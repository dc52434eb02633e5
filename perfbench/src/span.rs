//! Spans around the benchmark's calls into the program, timed by the
//! calling thread's CPU clock.
//!
//! Thread CPU time (not wall time) is what every timing metric reports: the
//! simulator is single-threaded, and CPU time does not count the time the
//! thread spends descheduled on a shared machine. Program times are then
//! scaled to a reference machine speed with [`calibrate`].

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU nanoseconds consumed by the calling thread so far.
pub fn cpu_now() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux) that outlives the call, and the clock id is a
    // constant the kernel supports for every thread.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is always readable");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Nominal CPU time of [`calibrate`] at reference speed.
pub const CALIB_REF_NS: u64 = 50_000_000;

/// Runs a fixed, allocation- and map-heavy kernel (the simulator's kind of
/// work) and returns the CPU nanoseconds it took. The machine's speed
/// drifts by a fifth over minutes on a shared host; dividing a program
/// time by the kernel time measured right next to it, and multiplying by
/// [`CALIB_REF_NS`], expresses the program time at one reference speed.
pub fn calibrate() -> u64 {
    let start = cpu_now();
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    let mut checksum = 0u64;
    for _ in 0..3 {
        let mut tree = BTreeMap::new();
        let mut hash = HashMap::new();
        let mut vecs: Vec<Vec<u64>> = Vec::new();
        for i in 0..60_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            tree.insert(x % 1_000_000, i);
            hash.insert(x, i);
            if i % 8 == 0 {
                vecs.push(vec![x; 4]);
            }
        }
        checksum += tree.range(1_000..500_000).map(|(k, v)| k ^ v).sum::<u64>();
        checksum += (hash.len() + vecs.len()) as u64;
    }
    std::hint::black_box(checksum);
    cpu_now() - start
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// The user op this span belongs to (spans of one op share it).
    pub op: Option<u64>,
    /// Thread CPU nanoseconds.
    pub start: u64,
    pub end: u64,
    /// Virtual time at the start, in nanoseconds.
    pub vstart: u64,
    /// Network messages sent and events processed inside the span.
    pub sent: u64,
    pub events: u64,
}

/// An in-memory span log: a tree built with a stack of open spans.
#[derive(Debug, Default)]
pub struct Spans {
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// Opens a span under the innermost open one; returns its index.
    pub fn open(&mut self, name: &'static str, op: Option<u64>, vstart: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            op,
            start: cpu_now(),
            end: 0,
            vstart,
            sent: 0,
            events: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (the innermost open one) with its network deltas;
    /// returns its CPU duration in nanoseconds.
    pub fn close(&mut self, id: usize, sent: u64, events: u64) -> u64 {
        let end = cpu_now();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let s = &mut self.spans[id];
        s.end = end;
        s.sent = sent;
        s.events = events;
        end - s.start
    }

    /// One JSON object per line.
    pub fn to_jsonl(&self, out: &mut String) {
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(out, "{{\"id\":{i},\"name\":\"{}\"", s.name);
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if let Some(op) = s.op {
                let _ = write!(out, ",\"op\":{op}");
            }
            let _ = writeln!(
                out,
                ",\"cpu_start_ns\":{},\"cpu_end_ns\":{},\"virtual_ns\":{},\"sent\":{},\"events\":{}}}",
                s.start, s.end, s.vstart, s.sent, s.events
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialize() {
        let mut spans = Spans::default();
        let outer = spans.open("phase", None, 0);
        let inner = spans.open("insert_key_at", Some(7), 5);
        spans.close(inner, 3, 4);
        spans.close(outer, 3, 4);
        assert_eq!(spans.spans[inner].parent, Some(outer));
        assert!(spans.spans[outer].end >= spans.spans[inner].end);
        let mut out = String::new();
        spans.to_jsonl(&mut out);
        assert_eq!(out.lines().count(), 2);
        assert!(out.contains("\"op\":7"));
    }

    #[test]
    fn the_cpu_clock_advances() {
        let a = cpu_now();
        let mut x = 0u64;
        for i in 0..200_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(cpu_now() > a, "{x}");
    }
}
