//! Drives one workload phase on a fresh [`Cluster`]: set-up, the open-loop
//! measured phase, the settle, and the correctness checks.
//!
//! Every call into the program goes through [`Phase::call`], which wraps it
//! in a span and records its CPU time and network deltas. Everything else
//! here (issuer choice, observation bookkeeping, the oracle) is the
//! benchmark's own work and is never counted as program time.

use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

use pepper_datastore::QueryId;
use pepper_index::Observation;
use pepper_sim::cluster::DurabilityConfig;
use pepper_sim::{Cluster, ClusterConfig, TraceConfig};
use pepper_types::{ItemId, PeerId};

use crate::gen::{Draw, KeyGen, Rng, Workload, KEY_DOMAIN};
use crate::layers::{LayerRecord, TraceCollector};
use crate::span::Spans;

/// Virtual gap between two preload inserts during set-up.
const PRELOAD_GAP: Duration = Duration::from_millis(2);
/// Virtual settle after the ring reached its target membership.
const SETUP_SETTLE: Duration = Duration::from_secs(3);
/// Virtual settle after the measured phase; ops not finished by its end
/// count as failed.
const SETTLE: Duration = Duration::from_secs(5);
/// Observation-draining step during the settle.
const SETTLE_STEP: Duration = Duration::from_millis(250);
/// Set-up gives up if the ring has not grown after this many inserts.
const MAX_PRELOAD: usize = 100_000;
/// Seed of the simulator and of the set-up inputs. Every run grows the same
/// ring; `--seed` varies the measured inputs only, so run-to-run spread
/// measures the program, not how lucky the ring's shape was.
const SETUP_SEED: u64 = 0x005e_ed0f_1d3a;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpKind {
    Insert,
    Delete,
    Query,
    Leave,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Pending,
    /// Completed; virtual nanoseconds from the due instant.
    Done(u64),
    Failed,
}

#[derive(Debug, Clone)]
struct Op {
    kind: OpKind,
    issuer: PeerId,
    due: u64,
    outcome: Outcome,
    /// Queries: the keys the result must contain when it claims full
    /// coverage (acked before issue, no delete issued by then).
    required: Vec<u64>,
}

/// What the oracle knows about one search key.
#[derive(Debug, Clone, Copy, Default)]
struct KeyState {
    acked_at: Option<u64>,
    delete_issued_at: Option<u64>,
    delete_acked: bool,
}

/// The deterministic outcome of one phase: identical for a fixed seed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Record {
    /// Attempted and failed user ops, by [`OpKind`] order.
    pub attempted: [u64; 4],
    pub failed: [u64; 4],
    /// Virtual latencies in nanoseconds.
    pub insert_ns: Vec<u64>,
    pub query_ns: Vec<u64>,
    pub join_ns: Vec<u64>,
    pub leave_ns: Vec<u64>,
    /// Queries that completed with partial coverage.
    pub incomplete_queries: u64,
    /// Network counters over the measured phase.
    pub sent: u64,
    pub dropped: u64,
    pub timers: u64,
    pub events: u64,
    /// Simulator peaks since boot.
    pub peak_queue_depth: u64,
    pub peak_fifo_channels: u64,
    pub splits: u64,
    pub merges: u64,
    pub restarts: u64,
    pub wal_records_replayed: u64,
    pub resurrected_deletes: u64,
    pub final_members: usize,
}

impl Record {
    pub fn ops(&self) -> u64 {
        self.attempted.iter().sum()
    }

    pub fn failures(&self) -> u64 {
        self.failed.iter().sum()
    }

    pub fn writes(&self) -> u64 {
        self.attempted[OpKind::Insert as usize] + self.attempted[OpKind::Delete as usize]
    }
}

/// CPU time spent inside the program during one phase.
#[derive(Debug, Clone, Default)]
pub struct Timing {
    /// Boot, growth and settle of the set-up.
    pub setup_ns: u64,
    /// All program calls during the measured phase.
    pub program_ns: u64,
    /// `Cluster::run` during the measured phase.
    pub run_ns: u64,
    /// Index API calls during the measured phase, and their count.
    pub api_ns: u64,
    pub api_calls: u64,
    /// Each `Cluster::restart_peer`.
    pub restart_ns: Vec<u64>,
    /// The correctness checks.
    pub check_ns: u64,
    /// Raw CPU time of the calibration kernel run before the phase.
    pub calib_ns: u64,
}

impl Timing {
    /// Rescales every program time by `f` (see [`crate::span::calibrate`]).
    pub fn scale(&mut self, f: f64) {
        let s = |v: &mut u64| *v = (*v as f64 * f) as u64;
        for v in [
            &mut self.setup_ns,
            &mut self.program_ns,
            &mut self.run_ns,
            &mut self.api_ns,
            &mut self.check_ns,
        ] {
            s(v);
        }
        self.restart_ns.iter_mut().for_each(s);
    }
}

/// Everything one phase produced.
pub struct PhaseResult {
    pub record: Record,
    pub timing: Timing,
    pub layers: Option<LayerRecord>,
    pub spans: Spans,
}

/// Which part of the phase a program call belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Part {
    Setup,
    Measure,
    Other,
}

/// One phase in progress.
struct Phase<'w> {
    w: &'w Workload,
    cluster: Cluster,
    spans: Spans,
    timing: Timing,
    part: Part,
    keys: KeyGen,
    rng: Rng,
    oracle: BTreeMap<u64, KeyState>,
    /// Acked keys with no delete issued, for drawing deletes.
    deletable: Vec<u64>,
    deletable_at: HashMap<u64, usize>,
    ops: Vec<Op>,
    /// Measured inserts: op index and key.
    by_item: HashMap<ItemId, (usize, u64)>,
    by_query: HashMap<(PeerId, QueryId), usize>,
    by_delete: HashMap<(PeerId, u64), usize>,
    by_leave: HashMap<PeerId, usize>,
    /// Ops still outstanding per issuer (such peers are not crashed or
    /// asked to leave, so a lost reply is never the client's own crash).
    pending_at: HashMap<PeerId, u32>,
    preload: HashMap<ItemId, u64>,
    record: Record,
    violations: Vec<String>,
    collector: Option<TraceCollector>,
}

/// Runs set-up, measured phase `phase` of workload `w`, settle and checks.
/// `Err` carries every correctness violation found.
pub fn run_phase(
    w: &Workload,
    seed: u64,
    phase: u64,
    trace: TraceConfig,
) -> Result<PhaseResult, Vec<String>> {
    let mut p = Phase::setup(w, seed, phase, trace)?;
    p.measure();
    p.settle();
    p.check();
    if !p.violations.is_empty() {
        return Err(p.violations);
    }
    p.probe_restart();
    let layers = p.collector.take().map(|c| c.finish(&p.cluster));
    Ok(PhaseResult {
        record: p.record,
        timing: p.timing,
        layers,
        spans: p.spans,
    })
}

impl<'w> Phase<'w> {
    fn setup(
        w: &'w Workload,
        seed: u64,
        phase: u64,
        trace: TraceConfig,
    ) -> Result<Self, Vec<String>> {
        let mut spans = Spans::default();
        let root = spans.open("setup", None, 0);
        let boot = spans.open("Cluster::new", None, 0);
        let cluster = Cluster::new(
            ClusterConfig::fast(SETUP_SEED)
                .with_free_peers(2)
                .with_durability(DurabilityConfig::default())
                .with_trace(trace),
        );
        let boot_ns = spans.close(boot, 0, 0);
        let mut p = Phase {
            w,
            cluster,
            spans,
            timing: Timing {
                setup_ns: boot_ns,
                ..Timing::default()
            },
            part: Part::Setup,
            keys: KeyGen::new(SETUP_SEED, w.keys),
            rng: Rng::stream(SETUP_SEED, 2),
            oracle: BTreeMap::new(),
            deletable: Vec::new(),
            deletable_at: HashMap::new(),
            ops: Vec::new(),
            by_item: HashMap::new(),
            by_query: HashMap::new(),
            by_delete: HashMap::new(),
            by_leave: HashMap::new(),
            pending_at: HashMap::new(),
            preload: HashMap::new(),
            record: Record::default(),
            violations: Vec::new(),
            collector: None,
        };
        p.grow()?;
        p.run_for(SETUP_SETTLE);
        p.drain();
        p.spans.close(root, 0, 0);
        if !p.preload.is_empty() {
            return Err(vec![format!(
                "set-up: {} preload inserts never acked",
                p.preload.len()
            )]);
        }
        p.part = Part::Other;
        p.rng = Rng::stream(seed, 100 + phase);
        p.keys.reseed(seed, 100 + phase);
        Ok(p)
    }

    /// Grows the ring to `w.members` by preload inserts, supplying free
    /// peers so that overflowing peers split; never registers more peers
    /// than the target, so growth stops exactly at it.
    fn grow(&mut self) -> Result<(), Vec<String>> {
        let mut peers = 3;
        for _ in 0..MAX_PRELOAD {
            if self.cluster.with_ring_members(|m| m.len()) >= self.w.members {
                return Ok(());
            }
            let key = self.keys.next_uniform();
            let at = self.issuer();
            let id = self.call("insert_key_at", None, |c| c.insert_key_at(at, key));
            self.preload.insert(id, key);
            self.oracle.insert(key, KeyState::default());
            self.run_for(PRELOAD_GAP);
            self.drain();
            while peers < self.w.members && self.cluster.pool.len() < 4 {
                self.call("add_free_peer", None, |c| c.add_free_peer());
                peers += 1;
            }
        }
        Err(vec![format!(
            "set-up: ring stuck below {} members",
            self.w.members
        )])
    }

    /// Times one program call as a span (the unit of every CPU metric).
    fn call<R>(
        &mut self,
        name: &'static str,
        op: Option<u64>,
        f: impl FnOnce(&mut Cluster) -> R,
    ) -> R {
        let before = self.cluster.sim.stats();
        let id = self.spans.open(name, op, self.cluster.now().as_nanos());
        let r = f(&mut self.cluster);
        let after = self.cluster.sim.stats();
        let ns = self.spans.close(
            id,
            after.messages_sent - before.messages_sent,
            after.events_processed - before.events_processed,
        );
        if name == "restart_peer" {
            self.timing.restart_ns.push(ns);
        }
        match self.part {
            Part::Setup => self.timing.setup_ns += ns,
            Part::Measure => {
                self.timing.program_ns += ns;
                match name {
                    "run" => self.timing.run_ns += ns,
                    "insert_key_at" | "delete_key_at" | "query_at" | "leave_peer" => {
                        self.timing.api_ns += ns;
                        self.timing.api_calls += 1;
                    }
                    _ => {}
                }
            }
            Part::Other => {}
        }
        r
    }

    fn run_for(&mut self, d: Duration) {
        let until = self.cluster.now().as_nanos() + d.as_nanos() as u64;
        self.advance_to(until);
    }

    /// Advances virtual time to exactly `until`. Traced phases advance in
    /// slices so the trace collector can read every peer's ring buffer
    /// before it wraps; slicing does not change what the simulator does.
    fn advance_to(&mut self, until: u64) {
        loop {
            let now = self.cluster.now().as_nanos();
            if now >= until {
                break;
            }
            let step = match &self.collector {
                Some(c) => c.next_poll(now).min(until),
                None => until,
            };
            self.call("run", None, |c| c.run(Duration::from_nanos(step - now)));
            if let Some(c) = self.collector.as_mut() {
                c.poll(&self.cluster, false);
            }
        }
    }

    /// A uniformly random ring member.
    fn issuer(&mut self) -> PeerId {
        let rng = &mut self.rng;
        self.cluster
            .with_ring_members(|m| m[rng.below(m.len() as u64) as usize])
    }

    /// A random ring member with no outstanding op issued at it.
    fn idle_member(&mut self) -> Option<PeerId> {
        let pending = &self.pending_at;
        let idle: Vec<PeerId> = self.cluster.with_ring_members(|m| {
            m.iter()
                .copied()
                .filter(|p| !pending.contains_key(p))
                .collect()
        });
        (!idle.is_empty()).then(|| idle[self.rng.below(idle.len() as u64) as usize])
    }

    fn measure(&mut self) {
        let w = self.w;
        let start = self.cluster.now().as_nanos();
        let end = start + w.phase.as_nanos() as u64;
        let net0 = self.cluster.sim.stats();
        if self.cluster.trace_config().tracing {
            self.collector = Some(TraceCollector::new(&self.cluster, start));
        }
        let root = self.spans.open("measure", None, start);
        self.part = Part::Measure;
        let count = (w.rate * w.phase.as_secs_f64()).round() as u64;
        let mut arrivals = self
            .rng
            .arrivals(count, start, end - start)
            .into_iter()
            .peekable();
        let jitter = |rng: &mut Rng| rng.below(1_000_000_000);
        let mut next_fault = w
            .faults
            .map(|f| start + f.spacing.as_nanos() as u64 + jitter(&mut self.rng));
        let mut restart: Option<(u64, PeerId)> = None;
        let mut faults = 0u64;
        loop {
            let next_arrival = arrivals.peek().copied().unwrap_or(u64::MAX);
            let due = next_arrival
                .min(restart.map_or(u64::MAX, |r| r.0))
                .min(next_fault.unwrap_or(u64::MAX));
            if due >= end {
                break;
            }
            self.advance_to(due);
            debug_assert_eq!(self.cluster.now().as_nanos(), due);
            self.drain();
            if due == next_arrival {
                arrivals.next();
                self.arrival(due);
            } else if restart.is_some_and(|r| r.0 == due) {
                let (_, peer) = restart.take().expect("checked above");
                self.restart(peer);
            } else {
                let f = w.faults.expect("a fault is due only in churn workloads");
                if faults.is_multiple_of(2) {
                    self.leave(due);
                } else if let Some(victim) = self.idle_member() {
                    self.call("crash_peer", None, |c| c.crash_peer(victim));
                    restart = Some((due + f.restart_after.as_nanos() as u64, victim));
                }
                faults += 1;
                let next = due + f.spacing.as_nanos() as u64 + jitter(&mut self.rng);
                // No fault whose restart would fall outside the phase.
                next_fault = (next + (f.restart_after.as_nanos() as u64) < end).then_some(next);
            }
        }
        self.advance_to(end);
        self.drain();
        self.part = Part::Other;
        let net1 = self.cluster.sim.stats();
        self.spans.close(
            root,
            net1.messages_sent - net0.messages_sent,
            net1.events_processed - net0.events_processed,
        );
        let r = &mut self.record;
        r.sent = net1.messages_sent - net0.messages_sent;
        r.dropped = net1.messages_dropped - net0.messages_dropped;
        r.timers = net1.timers_fired - net0.timers_fired;
        r.events = net1.events_processed - net0.events_processed;
        r.peak_queue_depth = net1.peak_queue_depth;
        r.peak_fifo_channels = net1.peak_fifo_channels;
        if let Some(c) = self.collector.as_mut() {
            c.end(&self.cluster, end);
        }
    }

    fn push_op(&mut self, kind: OpKind, issuer: PeerId, due: u64, required: Vec<u64>) -> usize {
        self.ops.push(Op {
            kind,
            issuer,
            due,
            outcome: Outcome::Pending,
            required,
        });
        *self.pending_at.entry(issuer).or_default() += 1;
        self.record.attempted[kind as usize] += 1;
        self.ops.len() - 1
    }

    fn arrival(&mut self, due: u64) {
        let mut draw = self.w.draw(&mut self.rng);
        if draw == Draw::Delete && self.deletable.is_empty() {
            draw = Draw::Insert;
        }
        match draw {
            Draw::Insert => {
                let key = self.keys.next_key();
                let at = self.issuer();
                let i = self.push_op(OpKind::Insert, at, due, Vec::new());
                let id = self.call("insert_key_at", Some(i as u64), |c| {
                    c.insert_key_at(at, key)
                });
                self.oracle.insert(key, KeyState::default());
                self.by_item.insert(id, (i, key));
            }
            Draw::Delete => {
                let key = self.deletable[self.rng.below(self.deletable.len() as u64) as usize];
                self.undeletable(key);
                self.oracle
                    .get_mut(&key)
                    .expect("deletable keys are known")
                    .delete_issued_at = Some(due);
                let at = self.issuer();
                let i = self.push_op(OpKind::Delete, at, due, Vec::new());
                self.call("delete_key_at", Some(i as u64), |c| {
                    c.delete_key_at(at, key)
                });
                self.by_delete.insert((at, key), i);
            }
            Draw::Query => {
                let width = self.w.width();
                let lo = match self.w.keys {
                    crate::gen::KeyDist::Uniform => self.rng.below(KEY_DOMAIN - width),
                    crate::gen::KeyDist::Zipf { .. } => self
                        .keys
                        .anchor()
                        .saturating_sub(width / 2)
                        .min(KEY_DOMAIN - width),
                };
                let hi = lo + width - 1;
                let required = self
                    .oracle
                    .range(lo..=hi)
                    .filter(|(_, s)| s.acked_at.is_some() && s.delete_issued_at.is_none())
                    .map(|(k, _)| *k)
                    .collect();
                let at = self.issuer();
                let i = self.push_op(OpKind::Query, at, due, required);
                match self.call("query_at", Some(i as u64), |c| c.query_at(at, lo, hi)) {
                    Some(q) => {
                        self.by_query.insert((at, q), i);
                    }
                    None => self.finish(i, Outcome::Failed),
                }
            }
            Draw::FreePeer => {
                self.call("add_free_peer", None, |c| c.add_free_peer());
            }
        }
    }

    fn leave(&mut self, due: u64) {
        let Some(peer) = self.idle_member() else {
            return;
        };
        let i = self.push_op(OpKind::Leave, peer, due, Vec::new());
        if self.call("leave_peer", Some(i as u64), |c| c.leave_peer(peer)) {
            self.by_leave.insert(peer, i);
        } else {
            // Declined on the spot: a failed op.
            self.finish(i, Outcome::Failed);
        }
    }

    fn restart(&mut self, peer: PeerId) {
        if let Some(c) = self.collector.as_mut() {
            c.before_restart(&self.cluster, peer);
        }
        let outcome = self.call("restart_peer", None, |c| c.restart_peer(peer));
        if let Some(o) = outcome {
            self.record.restarts += 1;
            self.record.wal_records_replayed += o.wal_records_replayed;
        }
        if let Some(c) = self.collector.as_mut() {
            c.after_restart(&self.cluster, peer);
        }
    }

    /// After the checks, crash-restarts one ring member so that every
    /// workload, not only the one with faults, reports what a restart
    /// (snapshot decode, WAL replay, rejoin) costs on its state.
    fn probe_restart(&mut self) {
        if let Some(victim) = self.idle_member() {
            self.call("crash_peer", None, |c| c.crash_peer(victim));
            self.restart(victim);
        }
    }

    fn undeletable(&mut self, key: u64) {
        if let Some(pos) = self.deletable_at.remove(&key) {
            self.deletable.swap_remove(pos);
            if let Some(moved) = self.deletable.get(pos) {
                self.deletable_at.insert(*moved, pos);
            }
        }
    }

    fn finish(&mut self, i: usize, outcome: Outcome) {
        let op = &mut self.ops[i];
        if op.outcome != Outcome::Pending {
            return;
        }
        op.outcome = outcome;
        op.required = Vec::new();
        let issuer = op.issuer;
        if let Some(n) = self.pending_at.get_mut(&issuer) {
            *n -= 1;
            if *n == 0 {
                self.pending_at.remove(&issuer);
            }
        }
        let kind = self.ops[i].kind;
        match outcome {
            Outcome::Done(ns) => match kind {
                OpKind::Insert => self.record.insert_ns.push(ns),
                OpKind::Query => self.record.query_ns.push(ns),
                OpKind::Leave => self.record.leave_ns.push(ns),
                OpKind::Delete => {}
            },
            Outcome::Failed => self.record.failed[kind as usize] += 1,
            Outcome::Pending => {}
        }
    }

    /// Applies every observation the peers made since the last drain.
    fn drain(&mut self) {
        let measuring = self.part != Part::Setup;
        for (peer, o) in self.cluster.drain_observations() {
            match o {
                Observation::InsertAcked { item, elapsed } => {
                    let ns = elapsed.as_nanos() as u64;
                    if let Some(key) = self.preload.remove(&item) {
                        self.acked(key, self.cluster.now().as_nanos());
                    } else if let Some((i, key)) = self.by_item.remove(&item) {
                        self.acked(key, self.ops[i].due + ns);
                        self.finish(i, Outcome::Done(ns));
                    }
                }
                Observation::InsertFailed { item } => {
                    if let Some((i, _)) = self.by_item.remove(&item) {
                        self.finish(i, Outcome::Failed);
                    }
                }
                Observation::DeleteAcked { mapped, found } => {
                    if let Some(i) = self.by_delete.remove(&(peer, mapped)) {
                        if let Some(s) = self.oracle.get_mut(&mapped) {
                            s.delete_acked = found;
                        }
                        let ns = self.cluster.now().as_nanos() - self.ops[i].due;
                        self.finish(i, Outcome::Done(ns));
                    }
                }
                Observation::QueryCompleted {
                    query,
                    items,
                    elapsed,
                    complete,
                    ..
                } => {
                    if let Some(i) = self.by_query.remove(&(peer, query)) {
                        let ns = elapsed.as_nanos() as u64;
                        if complete {
                            let keys: Vec<u64> = items.iter().map(|it| it.skv.raw()).collect();
                            self.check_query(i, ns, &keys);
                            self.finish(i, Outcome::Done(ns));
                        } else {
                            self.record.incomplete_queries += 1;
                            self.finish(i, Outcome::Failed);
                        }
                    }
                }
                Observation::LeaveCompleted { elapsed } => {
                    if let Some(i) = self.by_leave.remove(&peer) {
                        self.finish(i, Outcome::Done(elapsed.as_nanos() as u64));
                    }
                }
                Observation::InsertSuccCompleted { elapsed, .. } if measuring => {
                    self.record.splits += 1;
                    self.record.join_ns.push(elapsed.as_nanos() as u64);
                }
                Observation::MergeCompleted { .. } if measuring => self.record.merges += 1,
                _ => {}
            }
        }
    }

    fn acked(&mut self, key: u64, at: u64) {
        let s = self.oracle.entry(key).or_default();
        s.acked_at = Some(at);
        if s.delete_issued_at.is_none() {
            self.deletable_at.insert(key, self.deletable.len());
            self.deletable.push(key);
        }
    }

    /// A query that claims full coverage must hold every required key not
    /// deleted before it completed, and no key never inserted.
    fn check_query(&mut self, i: usize, ns: u64, got: &[u64]) {
        let op = &self.ops[i];
        let done = op.due + ns;
        let got_set: std::collections::HashSet<u64> = got.iter().copied().collect();
        for k in &op.required {
            let deleted = self.oracle[k].delete_issued_at.is_some_and(|t| t <= done);
            if !deleted && !got_set.contains(k) {
                self.violations.push(format!(
                    "query issued at t={}ns by {:?} claimed full coverage but missed acked key {k}",
                    op.due, op.issuer
                ));
            }
        }
        for k in got {
            if !self.oracle.contains_key(k) {
                self.violations.push(format!(
                    "query issued at t={}ns returned never-inserted key {k}",
                    op.due
                ));
            }
        }
    }

    fn settle(&mut self) {
        let root = self
            .spans
            .open("settle", None, self.cluster.now().as_nanos());
        let end = self.cluster.now().as_nanos() + SETTLE.as_nanos() as u64;
        while self.cluster.now().as_nanos() < end {
            self.run_for(SETTLE_STEP);
            self.drain();
        }
        self.spans.close(root, 0, 0);
        for i in 0..self.ops.len() {
            if self.ops[i].outcome == Outcome::Pending {
                self.finish(i, Outcome::Failed);
            }
        }
    }

    fn check(&mut self) {
        let root = self
            .spans
            .open("check", None, self.cluster.now().as_nanos());
        let t0 = crate::span::cpu_now();
        let report = {
            let id = self.spans.open("check_ring_report", None, 0);
            let r = self.cluster.check_ring_report();
            self.spans.close(id, 0, 0);
            r
        };
        for v in report.violations {
            self.violations.push(format!("ring after settle: {v}"));
        }
        let stored = {
            let id = self.spans.open("stored_keys", None, 0);
            let s = self.cluster.stored_keys();
            self.spans.close(id, 0, 0);
            s
        };
        for (k, s) in &self.oracle {
            if s.acked_at.is_some() && s.delete_issued_at.is_none() && !stored.contains(k) {
                self.violations
                    .push(format!("acked key {k} is not stored after the settle"));
            }
            if s.delete_acked && stored.contains(k) {
                self.record.resurrected_deletes += 1;
            }
        }
        self.record.final_members = self.cluster.with_ring_members(|m| m.len());
        self.timing.check_ns = crate::span::cpu_now() - t0;
        self.spans.close(root, 0, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::KeyDist;

    fn tiny(members: usize) -> Workload {
        Workload {
            name: "tiny",
            members,
            rate: 100.0,
            mix: [
                (Draw::Insert, 0.5),
                (Draw::Query, 0.4),
                (Draw::Delete, 0.1),
                (Draw::FreePeer, 0.0),
            ],
            selectivity: 0.05,
            keys: KeyDist::Uniform,
            faults: None,
            phase: Duration::from_secs(2),
            phases: 1,
        }
    }

    #[test]
    fn the_same_seed_reproduces_the_record() {
        let w = tiny(12);
        let a = run_phase(&w, 9, 0, TraceConfig::off())
            .expect("clean")
            .record;
        let b = run_phase(&w, 9, 0, TraceConfig::off())
            .expect("clean")
            .record;
        assert_eq!(a, b);
        assert!(a.ops() > 100, "{a:?}");
        let other = run_phase(&w, 10, 0, TraceConfig::off())
            .expect("clean")
            .record;
        assert_ne!(a.insert_ns, other.insert_ns);
    }

    #[test]
    fn tracing_leaves_the_record_unchanged_and_attributes_layers() {
        let w = tiny(12);
        let plain = run_phase(&w, 4, 0, TraceConfig::off()).expect("clean");
        let traced = run_phase(&w, 4, 0, crate::layers::traced_config()).expect("clean");
        assert_eq!(plain.record, traced.record);
        assert!(plain.layers.is_none());
        let l = traced.layers.expect("traced phases collect layers");
        assert_eq!(l.lost_events, 0);
        let routed = plain.record.attempted[OpKind::Insert as usize]
            + plain.record.attempted[OpKind::Delete as usize]
            + plain.record.attempted[OpKind::Query as usize];
        assert_eq!(l.route_hops.len() as u64, routed);
        assert!(l.layer_total("router") > 0 && l.layer_total("ring") > 0);
        // The post-check probe restarts one peer even without faults.
        assert_eq!(plain.timing.restart_ns.len(), 1);
        assert_eq!(plain.record.restarts, 1);
        assert_eq!(l.layer_total("no-such-layer"), 0);
    }

    #[test]
    fn every_op_is_issued_at_its_due_instant() {
        let w = tiny(12);
        let mut p = Phase::setup(&w, 3, 0, TraceConfig::off()).expect("set-up");
        let start = p.cluster.now().as_nanos();
        p.measure();
        assert!(p.ops.len() > 100);
        let end = start + w.phase.as_nanos() as u64;
        assert!(p.ops.windows(2).all(|o| o[0].due < o[1].due));
        assert!(p.ops.iter().all(|o| (start..end).contains(&o.due)));
        let mut issued = 0;
        for s in &p.spans.spans {
            if let Some(op) = s.op {
                assert_eq!(s.vstart, p.ops[op as usize].due, "{}", s.name);
                issued += 1;
            }
        }
        assert_eq!(issued, p.ops.len());
    }

    #[test]
    fn never_acked_and_declined_ops_count_as_failed() {
        // A one-member ring: its only member must decline to leave.
        let w = tiny(1);
        let mut p = Phase::setup(&w, 5, 0, TraceConfig::off()).expect("set-up");
        let due = p.cluster.now().as_nanos();
        p.leave(due);
        // An insert whose acknowledgement never arrives.
        let at = p.cluster.first;
        let i = p.push_op(OpKind::Insert, at, due, Vec::new());
        p.by_item.insert(ItemId::new(at, u64::MAX), (i, 42));
        p.settle();
        assert_eq!(p.record.attempted, [1, 0, 0, 1]);
        assert_eq!(p.record.failed, [1, 0, 0, 1]);
        assert!(p.record.insert_ns.is_empty());
    }

    #[test]
    fn a_complete_query_missing_a_key_is_a_violation() {
        let w = tiny(1);
        let mut p = Phase::setup(&w, 5, 0, TraceConfig::off()).expect("set-up");
        let acked = 1_000;
        p.oracle.insert(
            acked,
            KeyState {
                acked_at: Some(0),
                ..KeyState::default()
            },
        );
        let at = p.cluster.first;
        let i = p.push_op(OpKind::Query, at, p.cluster.now().as_nanos(), vec![acked]);
        p.check_query(i, 1_000, &[acked]);
        assert!(p.violations.is_empty());
        p.check_query(i, 1_000, &[]);
        assert_eq!(p.violations.len(), 1, "{:?}", p.violations);
        p.check_query(i, 1_000, &[acked, 7]);
        assert_eq!(
            p.violations.len(),
            2,
            "never-inserted key 7: {:?}",
            p.violations
        );
    }
}
