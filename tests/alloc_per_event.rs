//! Allocation regression test for the steady-state event path.
//!
//! On a settled ring nearly every simulated event is background maintenance:
//! ring pings and stabilization, replica refresh and router upkeep. The
//! composed peer dispatches those events straight into the simulator's
//! reused effect buffer through each layer slot's retained buffer, and a
//! replica refresh shares one snapshot of the owner's items with every
//! target. Together these make the common event allocation-free. This test
//! counts heap allocations with a thread-local counting global allocator
//! while a settled 64-member ring runs with no user operations, and fails if
//! the per-event rate creeps back up.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

use pepper_sim::{Cluster, ClusterConfig};

/// Counts allocations (and reallocations) made by the current thread, so
/// the test harness's other threads cannot disturb the measurement.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` tolerates allocations during thread teardown.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method forwards to the system allocator unchanged; the only
// addition is a thread-local counter bump, which itself never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Ring size the cluster is grown to before measuring.
const MEMBERS: usize = 64;
/// Upper bound on heap allocations per processed event on a settled ring.
/// Re-collecting effects per layer and copying every replica push measured
/// about 2 per event; the reused buffers and shared snapshots measure well
/// under this bound.
const MAX_ALLOCS_PER_EVENT: f64 = 0.25;

#[test]
fn settled_ring_maintenance_is_nearly_allocation_free() {
    let mut cluster = Cluster::new(ClusterConfig::fast(5));
    let mut n = 0u64;
    while cluster.ring_members().len() < MEMBERS {
        assert!(n < 20_000, "ring stuck below {MEMBERS} members");
        if cluster.pool.len() < 2 {
            cluster.add_free_peer();
        }
        n += 1;
        cluster.insert_key(n.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        cluster.run(Duration::from_millis(5));
    }
    cluster.run_secs(3);

    let events_before = cluster.sim.stats().events_processed;
    let allocs_before = allocations();
    cluster.run_secs(2);
    let allocs = allocations() - allocs_before;
    let events = cluster.sim.stats().events_processed - events_before;

    assert!(events > 10_000, "too few events to measure: {events}");
    let per_event = allocs as f64 / events as f64;
    eprintln!("{allocs} allocations over {events} events = {per_event:.3} per event");
    assert!(
        per_event <= MAX_ALLOCS_PER_EVENT,
        "{per_event:.3} allocations per event on a settled ring (bound {MAX_ALLOCS_PER_EVENT})"
    );
}
