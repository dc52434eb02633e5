//! Per-layer attribution from the program's public counters and traces.
//!
//! Counts are deltas of [`Cluster::metrics`] over the measured phase,
//! summed by layer prefix (a message kind that disappears reads as 0, never
//! as a missing metric). Route and scan splits come from
//! [`pepper_index::PeerNode::trace_events`], grouped by causal id: each
//! index API call roots a causal id that every message it causes inherits.

use std::collections::{BTreeMap, HashMap};

use pepper_sim::{Cid, Cluster, Metrics, TraceConfig, TraceEvent};
use pepper_types::PeerId;

/// Per-peer trace ring capacity of traced runs. The collector reads a
/// peer's buffer once half of it is new, so no event is evicted unread as
/// long as a peer records fewer than half this many events per poll.
pub const RING_CAPACITY: usize = 1024;
/// Virtual nanoseconds between two collector polls.
const POLL_NS: u64 = 100_000_000;

/// The trace configuration of a traced run.
pub fn traced_config() -> TraceConfig {
    TraceConfig::enabled().with_ring_capacity(RING_CAPACITY)
}

/// The per-layer view of one traced phase.
#[derive(Debug, Default)]
pub struct LayerRecord {
    /// Counter deltas over the measured phase, by `(layer, name)`.
    pub counters: BTreeMap<(&'static str, &'static str), u64>,
    /// Per routed op (insert, delete, query): `index/Route` deliveries and
    /// virtual nanoseconds from the API call to the first owner.
    pub route_hops: Vec<u64>,
    pub route_ns: Vec<u64>,
    /// Per completed query: scan steps and virtual nanoseconds from the
    /// first owner to completion at the issuer.
    pub scan_steps: Vec<u64>,
    pub scan_ns: Vec<u64>,
    /// Events evicted from a ring buffer before the collector read them.
    pub lost_events: u64,
}

impl LayerRecord {
    /// Sum of every counter whose layer is `layer`.
    pub fn layer_total(&self, layer: &str) -> u64 {
        self.counters
            .iter()
            .filter(|((l, _), _)| *l == layer)
            .map(|(_, n)| n)
            .sum()
    }

    pub fn counter(&self, layer: &'static str, name: &'static str) -> u64 {
        self.counters.get(&(layer, name)).copied().unwrap_or(0)
    }

    /// Pools another phase's record into this one.
    pub fn absorb(&mut self, other: &LayerRecord) {
        for (k, v) in &other.counters {
            *self.counters.entry(*k).or_default() += v;
        }
        self.route_hops.extend(&other.route_hops);
        self.route_ns.extend(&other.route_ns);
        self.scan_steps.extend(&other.scan_steps);
        self.scan_ns.extend(&other.scan_ns);
        self.lost_events += other.lost_events;
    }
}

/// What the trace says about one causal id.
#[derive(Debug, Default)]
struct CidAgg {
    api: Option<(&'static str, u64)>,
    routes: u64,
    last_route_at: u64,
    scan_steps: u64,
    done_at: Option<u64>,
}

/// Reads every peer's trace ring incrementally during a traced phase.
pub struct TraceCollector {
    /// Events of each peer already read (evicted plus retained at the last
    /// read).
    consumed: HashMap<PeerId, u64>,
    window: (u64, u64),
    by_cid: HashMap<Cid, CidAgg>,
    lost: u64,
    metrics_start: Metrics,
    metrics_end: Option<Metrics>,
    /// Registries of peers replaced by a restart.
    retired: Metrics,
}

impl TraceCollector {
    /// Starts collecting at virtual time `start`, the beginning of the
    /// measured window; everything recorded before belongs to the set-up.
    pub fn new(cluster: &Cluster, start: u64) -> Self {
        let consumed = cluster
            .sim
            .nodes_iter()
            .map(|(p, node)| (p, node.trace_dropped() + node.trace_events().len() as u64))
            .collect();
        TraceCollector {
            consumed,
            window: (start, u64::MAX),
            by_cid: HashMap::new(),
            lost: 0,
            metrics_start: cluster.metrics(),
            metrics_end: None,
            retired: Metrics::enabled(),
        }
    }

    /// The next virtual instant at which to poll.
    pub fn next_poll(&self, now: u64) -> u64 {
        (now / POLL_NS + 1) * POLL_NS
    }

    /// Ends the measured window: counters stop here, but the collector
    /// keeps reading so ops issued in the window are followed to their end.
    pub fn end(&mut self, cluster: &Cluster, end: u64) {
        self.window.1 = end;
        let mut m = cluster.metrics();
        m.absorb(&self.retired);
        self.metrics_end = Some(m);
    }

    /// Reads the crashed peer's buffer and keeps its registry before the
    /// restart replaces the node (the restarted node is preloaded with the
    /// old buffer, so reading restarts from its current length).
    pub fn before_restart(&mut self, cluster: &Cluster, peer: PeerId) {
        self.poll_peer(cluster, peer, true);
        if let Some(node) = cluster.node(peer) {
            self.retired.absorb(node.metrics());
        }
    }

    pub fn after_restart(&mut self, cluster: &Cluster, peer: PeerId) {
        if let Some(node) = cluster.node(peer) {
            let total = node.trace_dropped() + node.trace_events().len() as u64;
            self.consumed.insert(peer, total);
        }
    }

    /// Reads the new events of every peer whose buffer is half new (all
    /// peers when `force`).
    pub fn poll(&mut self, cluster: &Cluster, force: bool) {
        let peers: Vec<PeerId> = cluster.sim.peer_ids();
        for p in peers {
            self.poll_peer(cluster, p, force);
        }
    }

    fn poll_peer(&mut self, cluster: &Cluster, peer: PeerId, force: bool) {
        let Some(node) = cluster.node(peer) else {
            return;
        };
        let consumed = self.consumed.get(&peer).copied().unwrap_or(0);
        let dropped = node.trace_dropped();
        if !force && dropped + (RING_CAPACITY as u64) / 2 < consumed {
            return;
        }
        let events = node.trace_events();
        let total = dropped + events.len() as u64;
        if total <= consumed {
            return;
        }
        self.lost += dropped.saturating_sub(consumed);
        let first_new = consumed.saturating_sub(dropped) as usize;
        for e in &events[first_new..] {
            self.note(e);
        }
        self.consumed.insert(peer, total);
    }

    fn note(&mut self, e: &TraceEvent) {
        match (e.layer, e.kind) {
            ("api", kind @ ("InsertItem" | "DeleteItem" | "RangeQuery"))
                if (self.window.0..=self.window.1).contains(&e.at) =>
            {
                self.by_cid.entry(e.cid).or_default().api = Some((kind, e.at));
            }
            ("index", "Route") => {
                let a = self.by_cid.entry(e.cid).or_default();
                a.routes += 1;
                a.last_route_at = a.last_route_at.max(e.at);
            }
            ("ds", "ScanStep") => self.by_cid.entry(e.cid).or_default().scan_steps += 1,
            ("ds", "QueryCompleted") => {
                let a = self.by_cid.entry(e.cid).or_default();
                a.done_at = Some(a.done_at.map_or(e.at, |d| d.min(e.at)));
            }
            _ => {}
        }
    }

    /// Reads the rest of every buffer and reduces the phase.
    pub fn finish(mut self, cluster: &Cluster) -> LayerRecord {
        self.poll(cluster, true);
        let mut out = LayerRecord {
            lost_events: self.lost,
            ..LayerRecord::default()
        };
        let end = self.metrics_end.take().unwrap_or_else(|| cluster.metrics());
        for (layer, name, n) in end.counters() {
            let delta = n.saturating_sub(self.metrics_start.counter(layer, name));
            out.counters.insert((layer, name), delta);
        }
        let mut aggs: Vec<(&Cid, &CidAgg)> = self
            .by_cid
            .iter()
            .filter(|(_, a)| a.api.is_some())
            .collect();
        aggs.sort_by_key(|(c, _)| **c);
        for (_, a) in aggs {
            let (kind, at) = a.api.expect("filtered above");
            let first_owner = if a.routes == 0 { at } else { a.last_route_at };
            out.route_hops.push(a.routes);
            out.route_ns.push(first_owner - at);
            if kind == "RangeQuery" {
                if let Some(done) = a.done_at {
                    // The first scan step runs locally at the first owner;
                    // every further step is a delivered `ScanStep`.
                    out.scan_steps.push(a.scan_steps + 1);
                    out.scan_ns.push(done.saturating_sub(first_owner));
                }
            }
        }
        out
    }
}
