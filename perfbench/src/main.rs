//! The PEPPER index benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <maintain-512|scan-128|write-128|churn-128> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs its measured phases (distinct input streams, pooled
//! samples) on fresh clusters, checks every result, and repeats whole
//! phases until `--seconds` of wall time have passed so that CPU timings
//! are medians. `--trace 0` prints the end-to-end metrics; `--trace 1`
//! additionally replays the same phases with tracing and metrics on and
//! prints the per-layer metrics. The last line of standard output is one
//! JSON object; any correctness violation exits with code 1 before it.
//! Spans of every program call are written to `perfbench/runs/`.

mod drive;
mod gen;
mod layers;
mod span;
mod stats;

use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use pepper_sim::TraceConfig;

use drive::{run_phase, OpKind, PhaseResult, Record, Timing};
use gen::Workload;
use layers::LayerRecord;
use stats::{median_f64, p50, p99, ratio};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    gen::workloads()
                        .into_iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(problems) => {
            for p in &problems {
                eprintln!("perfbench: {p}");
            }
            eprintln!(
                "perfbench: {} on workload {} seed {}: no numbers reported",
                if problems.len() == 1 {
                    "1 violation".to_string()
                } else {
                    format!("{} violations", problems.len())
                },
                args.workload.name,
                args.seed
            );
            ExitCode::from(1)
        }
    }
}

/// Runs phase `phase` and checks that it reproduces `expected`, when given.
fn checked_phase(
    args: &Args,
    phase: u64,
    trace: TraceConfig,
    expected: Option<&Record>,
) -> Result<PhaseResult, Vec<String>> {
    // The kernel runs on both sides of the phase, so the scale follows a
    // machine whose speed drifts during a long phase.
    let before = span::calibrate();
    let mut r = run_phase(&args.workload, args.seed, phase, trace)?;
    let calib_ns = (before + span::calibrate()) / 2;
    r.timing.scale(span::CALIB_REF_NS as f64 / calib_ns as f64);
    r.timing.calib_ns = calib_ns;
    if let Some(e) = expected {
        if *e != r.record {
            return Err(vec![format!(
                "phase {phase} did not reproduce its deterministic record (trace {})",
                !trace.is_off()
            )]);
        }
    }
    Ok(r)
}

fn run(args: &Args) -> Result<String, Vec<String>> {
    let w = &args.workload;
    let started = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut spans = SpanLog::create(w.name, args.trace);
    // Round 0 fixes each phase's deterministic record and warms the process
    // up; its timings are discarded. Timed rounds follow until the budget
    // is spent (at least one), and each must reproduce round 0 exactly.
    let mut records: Vec<Record> = Vec::new();
    for i in 0..w.phases {
        let r = checked_phase(args, i, TraceConfig::off(), None)?;
        spans.append(&r.spans);
        records.push(r.record);
    }
    let mut timings: Vec<Vec<Timing>> = vec![Vec::new(); records.len()];
    loop {
        for (i, reps) in timings.iter_mut().enumerate() {
            let r = checked_phase(args, i as u64, TraceConfig::off(), Some(&records[i]))?;
            reps.push(r.timing);
        }
        if started.elapsed() >= budget {
            break;
        }
    }
    let mut m = Metrics::default();
    if args.trace {
        let mut pooled = LayerRecord::default();
        let mut traced_ns = 0;
        for i in 0..w.phases {
            let r = checked_phase(args, i, layers::traced_config(), Some(&records[i as usize]))?;
            spans.append(&r.spans);
            traced_ns += r.timing.program_ns;
            pooled.absorb(r.layers.as_ref().expect("traced phases collect layers"));
        }
        per_layer(&mut m, &records, &timings, &pooled, traced_ns);
    } else {
        end_to_end(&mut m, &records, &timings);
    }
    let ops: u64 = records.iter().map(Record::ops).sum();
    let failed: u64 = records.iter().map(Record::failures).sum();
    let kinds = ["insert", "delete", "query", "leave"];
    for (k, name) in kinds.iter().enumerate() {
        let a: u64 = records.iter().map(|r| r.attempted[k]).sum();
        let f: u64 = records.iter().map(|r| r.failed[k]).sum();
        println!("{name:<8} attempted {a:>7} failed {f:>5}");
    }
    let incomplete: u64 = records.iter().map(|r| r.incomplete_queries).sum();
    let members: Vec<usize> = records.iter().map(|r| r.final_members).collect();
    println!("incomplete queries {incomplete}; final ring members {members:?}");
    // Membership latencies exist only where the workload has such events,
    // so they are shown here rather than in the result line.
    for (name, samples) in [
        ("join_p50_ms", pooled(&records, |r| &r.join_ns)),
        ("leave_p50_ms", pooled(&records, |r| &r.leave_ns)),
    ] {
        if let Some(v) = ms(p50(&samples)) {
            println!("{name:<28} {v:>16.6} ms ({} samples)", samples.len());
        }
    }
    for (name, value, unit) in &m.0 {
        println!("{name:<28} {value:>16.6} {unit}");
    }
    Ok(m.json(ops, failed))
}

/// Metrics in print order: name, value, unit.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self, attempted: u64, failed: u64) -> String {
        let mut s = format!("{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

fn ms(ns: Option<u64>) -> Option<f64> {
    ns.map(|v| v as f64 / 1e6)
}

fn pooled(records: &[Record], f: impl Fn(&Record) -> &Vec<u64>) -> Vec<u64> {
    records.iter().flat_map(|r| f(r).iter().copied()).collect()
}

/// Per phase, the median over its repetitions of `f`, summed over phases.
fn summed_median(timings: &[Vec<Timing>], f: impl Fn(&Timing) -> u64) -> f64 {
    timings
        .iter()
        .map(|reps| {
            median_f64(&reps.iter().map(|t| f(t) as f64).collect::<Vec<_>>()).unwrap_or(0.0)
        })
        .sum()
}

fn end_to_end(m: &mut Metrics, records: &[Record], timings: &[Vec<Timing>]) {
    let ops: u64 = records.iter().map(Record::ops).sum();
    let setups: Vec<f64> = timings
        .iter()
        .flatten()
        .map(|t| t.setup_ns as f64 / 1e9)
        .collect();
    m.put("setup_s", median_f64(&setups).unwrap_or(0.0), "s");
    m.put(
        "ops_per_s",
        ops as f64 / (summed_median(timings, |t| t.program_ns) / 1e9),
        "ops/s",
    );
    let inserts = pooled(records, |r| &r.insert_ns);
    let queries = pooled(records, |r| &r.query_ns);
    let rows = [
        ("insert_p50_ms", ms(p50(&inserts))),
        ("insert_p99_ms", ms(p99(&inserts))),
        ("query_p50_ms", ms(p50(&queries))),
        ("query_p99_ms", ms(p99(&queries))),
    ];
    for (name, v) in rows {
        if let Some(v) = v {
            m.put(name, v, "ms");
        }
    }
    let sent: u64 = records.iter().map(|r| r.sent).sum();
    m.put("msgs_per_op", ratio(sent as f64, ops as f64), "msgs/op");
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
}

fn per_layer(
    m: &mut Metrics,
    records: &[Record],
    timings: &[Vec<Timing>],
    l: &LayerRecord,
    traced_ns: u64,
) {
    let sum = |f: fn(&Record) -> u64| records.iter().map(f).sum::<u64>() as f64;
    let ops = sum(Record::ops);
    let events = sum(|r| r.events);
    let run_ns = summed_median(timings, |t| t.run_ns);
    m.put("net.run_s", run_ns / 1e9, "s");
    m.put("net.ns_per_event", ratio(run_ns, events), "ns");
    m.put("net.events_per_op", ratio(events, ops), "events/op");
    m.put(
        "net.timers_per_op",
        ratio(sum(|r| r.timers), ops),
        "timers/op",
    );
    m.put(
        "net.drop_ratio",
        ratio(sum(|r| r.dropped), sum(|r| r.sent)),
        "ratio",
    );
    let peak = |f: fn(&Record) -> u64| records.iter().map(f).max().unwrap_or(0) as f64;
    m.put(
        "net.peak_queue_depth",
        peak(|r| r.peak_queue_depth),
        "events",
    );
    m.put(
        "net.peak_fifo_channels",
        peak(|r| r.peak_fifo_channels),
        "channels",
    );
    let per_op = |layer: &str| ratio(l.layer_total(layer) as f64, ops);
    m.put("router.events_per_op", per_op("router"), "events/op");
    let hops = |p: Option<u64>| p.map_or(0.0, |v| v as f64);
    m.put("router.route_hops_p50", hops(p50(&l.route_hops)), "hops");
    m.put("router.route_hops_p99", hops(p99(&l.route_hops)), "hops");
    m.put(
        "router.route_ms_p50",
        ms(p50(&l.route_ns)).unwrap_or(0.0),
        "ms",
    );
    m.put("ring.events_per_op", per_op("ring"), "events/op");
    let counter = |layer, name| l.counter(layer, name) as f64;
    m.put(
        "ring.ping_timeout_ratio",
        ratio(counter("ring", "PingTimeout"), counter("ring", "Ping")),
        "ratio",
    );
    m.put("ds.events_per_op", per_op("ds"), "events/op");
    m.put(
        "ds.scan_timeout_ratio",
        ratio(
            counter("ds", "ScanForwardTimeout"),
            counter("ds", "ScanStep"),
        ),
        "ratio",
    );
    let steps: u64 = l.scan_steps.iter().sum();
    m.put(
        "ds.scan_steps_per_query",
        ratio(steps as f64, l.scan_steps.len() as f64),
        "steps/query",
    );
    m.put("ds.scan_ms_p50", ms(p50(&l.scan_ns)).unwrap_or(0.0), "ms");
    let inserts = sum(|r| r.attempted[OpKind::Insert as usize]);
    m.put(
        "ds.reroutes_per_insert",
        ratio(counter("ds", "Rerouted"), inserts),
        "reroutes/insert",
    );
    m.put("ds.splits", sum(|r| r.splits), "count");
    m.put("ds.merges", sum(|r| r.merges), "count");
    m.put("repl.events_per_op", per_op("repl"), "events/op");
    m.put(
        "repl.recover_requests",
        counter("repl", "RecoverRequest"),
        "count",
    );
    let writes = sum(Record::writes);
    m.put(
        "storage.wal_appends_per_write",
        ratio(counter("storage", "wal_append"), writes),
        "appends/write",
    );
    m.put(
        "storage.snapshots_per_write",
        ratio(counter("storage", "snapshot_write"), writes),
        "snapshots/write",
    );
    let restarts: Vec<u64> = timings
        .iter()
        .flatten()
        .flat_map(|t| t.restart_ns.iter().copied())
        .collect();
    m.put(
        "storage.restart_ms_p50",
        ms(p50(&restarts)).unwrap_or(0.0),
        "ms",
    );
    m.put(
        "storage.wal_records_per_restart",
        ratio(sum(|r| r.wal_records_replayed), sum(|r| r.restarts)),
        "records/restart",
    );
    let api_calls: u64 = timings.iter().map(|reps| reps[0].api_calls).sum();
    m.put(
        "index.api_us_per_op",
        ratio(summed_median(timings, |t| t.api_ns), api_calls as f64) / 1e3,
        "us",
    );
    m.put(
        "bench.check_s",
        summed_median(timings, |t| t.check_ns) / 1e9,
        "s",
    );
    m.put(
        "trace.overhead_ratio",
        ratio(traced_ns as f64, summed_median(timings, |t| t.program_ns)),
        "ratio",
    );
    m.put("trace.lost_events", l.lost_events as f64, "count");
    let calibs: Vec<f64> = timings
        .iter()
        .flatten()
        .map(|t| t.calib_ns as f64 / 1e6)
        .collect();
    m.put("bench.calib_ms", median_f64(&calibs).unwrap_or(0.0), "ms");
    // End-to-end figures that cannot carry a bound: they are 0 on
    // workloads without failures or resurrections.
    m.put(
        "failed_op_ratio",
        ratio(sum(Record::failures), ops),
        "ratio",
    );
    m.put(
        "resurrected_deletes",
        sum(|r| r.resurrected_deletes),
        "count",
    );
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The span log of round 0 and the traced round, next to the benchmark's
/// sources. Each phase's spans are written once the phase is over (never
/// inside a timed call), so they do not pile up in the measured process.
struct SpanLog(Option<std::fs::File>);

impl SpanLog {
    fn create(workload: &str, traced: bool) -> Self {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("runs");
        let path = dir.join(format!("{workload}-trace{}.spans.jsonl", u8::from(traced)));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::File::create(&path)) {
            Ok(f) => SpanLog(Some(f)),
            Err(e) => {
                eprintln!("perfbench: no span log at {}: {e}", path.display());
                SpanLog(None)
            }
        }
    }

    fn append(&mut self, spans: &span::Spans) {
        if let Some(f) = self.0.as_mut() {
            let mut out = String::new();
            spans.to_jsonl(&mut out);
            if let Err(e) = f.write_all(out.as_bytes()) {
                eprintln!("perfbench: span log write failed: {e}");
                self.0 = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_has_the_four_keys() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.5, "s");
        m.put("ops_per_s", 1234.5678, "ops/s");
        assert_eq!(
            m.json(10, 1),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"ops_per_s\": {\"value\": 1234.5678, \"unit\": \"ops/s\"}}}"
        );
    }
}
