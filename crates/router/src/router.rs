//! The hierarchical shortcut router.

use std::time::Duration;

use pepper_net::{Emit, LayerCtx, ProtocolLayer};
use pepper_types::range::in_open;
use pepper_types::{PeerId, PeerValue, SystemConfig};

use crate::messages::RouterMsg;

/// Events reported by the content router.
///
/// The router is a pure cache: it currently has nothing to tell the composed
/// peer, so this enum is uninhabited — it exists so the router satisfies the
/// uniform [`ProtocolLayer`] contract, and documents where future events
/// (e.g. "shortcut table converged") would go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterEvent {}

/// Configuration of the content router.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterConfig {
    /// Number of shortcut levels maintained (level `i` points roughly `2^i`
    /// peers ahead).
    pub max_levels: usize,
    /// Period of the shortcut maintenance loop.
    pub maintain_period: Duration,
}

impl RouterConfig {
    /// Derives the router configuration from the system configuration.
    pub fn from_system(cfg: &SystemConfig) -> Self {
        RouterConfig {
            max_levels: 16,
            maintain_period: cfg.router_refresh_period,
        }
    }

    /// A small, fast configuration for tests.
    pub fn test() -> Self {
        RouterConfig {
            max_levels: 6,
            maintain_period: Duration::from_millis(100),
        }
    }
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig::from_system(&SystemConfig::paper_defaults())
    }
}

/// The per-peer content router: a table of shortcuts at exponentially
/// increasing ring distances.
#[derive(Debug, Clone)]
pub struct HierarchicalRouter {
    id: PeerId,
    cfg: RouterConfig,
    /// `entries[0]` is the ring successor; `entries[i]` points roughly
    /// `2^i` peers ahead.
    entries: Vec<Option<(PeerId, PeerValue)>>,
    timers_started: bool,
}

impl HierarchicalRouter {
    /// Creates a router for peer `id`.
    pub fn new(id: PeerId, cfg: RouterConfig) -> Self {
        let entries = vec![None; cfg.max_levels.max(1)];
        HierarchicalRouter {
            id,
            cfg,
            entries,
            timers_started: false,
        }
    }

    /// The shortcut table (level 0 is the successor).
    pub fn entries(&self) -> &[Option<(PeerId, PeerValue)>] {
        &self.entries
    }

    /// Number of populated shortcut levels.
    pub fn populated_levels(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    /// Installs the ring successor as the level-0 shortcut (called by the
    /// composed peer on ring `NewSuccessor` events).
    pub fn set_successor(&mut self, peer: PeerId, value: PeerValue) {
        if !self.entries.is_empty() {
            self.entries[0] = Some((peer, value));
        }
    }

    /// Drops every shortcut pointing at `peer` (called when the ring reports
    /// the peer as failed or departed).
    pub fn forget_peer(&mut self, peer: PeerId) {
        for e in &mut self.entries {
            if matches!(e, Some((p, _)) if *p == peer) {
                *e = None;
            }
        }
    }

    /// Clears all shortcuts (used when this peer leaves the ring).
    pub fn clear(&mut self) {
        for e in &mut self.entries {
            *e = None;
        }
    }

    /// One maintenance round: level `i` is refreshed by asking the level
    /// `i-1` target for *its* level `i-1` shortcut (doubling the distance).
    fn run_maintenance(&mut self, fx: &mut dyn Emit<RouterMsg>) {
        for slot in 1..self.entries.len() {
            if let Some((peer, _)) = self.entries[slot - 1] {
                if peer != self.id {
                    fx.send(
                        peer,
                        RouterMsg::GetEntry {
                            level: slot - 1,
                            slot,
                        },
                    );
                }
            }
        }
    }

    /// Chooses the next hop towards the peer responsible for `target`:
    /// the farthest shortcut that lies strictly between this peer's value and
    /// the target (so it never overshoots), falling back to the successor.
    ///
    /// Returns `None` when the router knows no other peer.
    pub fn next_hop(
        &self,
        self_value: PeerValue,
        target: PeerValue,
    ) -> Option<(PeerId, PeerValue)> {
        let mut best: Option<(PeerId, PeerValue)> = None;
        for entry in self.entries.iter().flatten() {
            let (peer, value) = *entry;
            if peer == self.id {
                continue;
            }
            if in_open(self_value.raw(), value.raw(), target.raw()) {
                match best {
                    Some((_, best_value))
                        if !in_open(best_value.raw(), value.raw(), target.raw()) => {}
                    _ => best = Some((peer, value)),
                }
            }
        }
        best.or_else(|| self.entries[0].filter(|(p, _)| *p != self.id))
    }
}

impl ProtocolLayer for HierarchicalRouter {
    type Msg = RouterMsg;
    type Event = RouterEvent;

    /// Schedules the periodic maintenance timer. Idempotent.
    fn start_timers(&mut self, _ctx: LayerCtx, fx: &mut dyn Emit<RouterMsg>) {
        if self.timers_started {
            return;
        }
        self.timers_started = true;
        let stagger = Duration::from_micros((self.id.raw() % 83) * 400);
        fx.timer(
            self.cfg.maintain_period / 2 + stagger,
            RouterMsg::MaintainTick,
        );
    }

    /// Handles a router message.
    fn handle(
        &mut self,
        _ctx: LayerCtx,
        from: PeerId,
        msg: RouterMsg,
        fx: &mut dyn Emit<RouterMsg>,
    ) {
        match msg {
            RouterMsg::MaintainTick => {
                fx.timer(self.cfg.maintain_period, RouterMsg::MaintainTick);
                self.run_maintenance(fx);
            }
            RouterMsg::GetEntry { level, slot } => {
                let entry = self.entries.get(level).copied().flatten();
                fx.send(from, RouterMsg::EntryReply { slot, entry });
            }
            RouterMsg::EntryReply { slot, entry } => {
                if slot > 0 && slot < self.entries.len() {
                    // Never learn a shortcut pointing back at ourselves.
                    self.entries[slot] = entry.filter(|(p, _)| *p != self.id);
                }
            }
        }
    }

    fn drain_events(&mut self) -> Vec<RouterEvent> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pepper_net::{Effect, Effects, SimTime};

    fn ctx(id: u64) -> LayerCtx {
        LayerCtx::new(PeerId(id), SimTime::from_secs(1))
    }

    fn router_with(id: u64, entries: &[(u64, u64)]) -> HierarchicalRouter {
        let mut r = HierarchicalRouter::new(PeerId(id), RouterConfig::test());
        for (slot, (peer, value)) in entries.iter().enumerate() {
            r.entries[slot] = Some((PeerId(*peer), PeerValue(*value)));
        }
        r
    }

    #[test]
    fn successor_is_level_zero() {
        let mut r = HierarchicalRouter::new(PeerId(0), RouterConfig::test());
        assert_eq!(r.populated_levels(), 0);
        r.set_successor(PeerId(1), PeerValue(10));
        assert_eq!(r.entries()[0], Some((PeerId(1), PeerValue(10))));
        assert_eq!(r.populated_levels(), 1);
    }

    #[test]
    fn maintenance_asks_each_level_target() {
        let mut r = router_with(0, &[(1, 10), (2, 20)]);
        let mut fx = Effects::new();
        r.handle(ctx(0), PeerId(0), RouterMsg::MaintainTick, &mut fx);
        let effects = fx.drain();
        // Re-armed timer plus one GetEntry per populated predecessor level.
        assert!(effects.iter().any(|e| matches!(
            e,
            Effect::Timer {
                msg: RouterMsg::MaintainTick,
                ..
            }
        )));
        assert!(effects.iter().any(|e| matches!(
            e,
            Effect::Send { to, msg: RouterMsg::GetEntry { level: 0, slot: 1 } } if *to == PeerId(1)
        )));
        assert!(effects.iter().any(|e| matches!(
            e,
            Effect::Send { to, msg: RouterMsg::GetEntry { level: 1, slot: 2 } } if *to == PeerId(2)
        )));
    }

    #[test]
    fn get_entry_is_answered_and_reply_is_stored() {
        let mut responder = router_with(2, &[(3, 30)]);
        let mut fx = Effects::new();
        responder.handle(
            ctx(2),
            PeerId(0),
            RouterMsg::GetEntry { level: 0, slot: 1 },
            &mut fx,
        );
        let reply = match fx.drain().remove(0) {
            Effect::Send { to, msg } => {
                assert_eq!(to, PeerId(0));
                msg
            }
            other => panic!("unexpected {other:?}"),
        };
        let mut requester = router_with(0, &[(2, 20)]);
        requester.handle(ctx(0), PeerId(2), reply, &mut fx);
        assert_eq!(requester.entries()[1], Some((PeerId(3), PeerValue(30))));
    }

    #[test]
    fn reply_pointing_at_self_is_ignored() {
        let mut r = router_with(0, &[(2, 20)]);
        let mut fx = Effects::new();
        r.handle(
            ctx(0),
            PeerId(2),
            RouterMsg::EntryReply {
                slot: 1,
                entry: Some((PeerId(0), PeerValue(5))),
            },
            &mut fx,
        );
        assert_eq!(r.entries()[1], None);
        // Slot 0 is never overwritten by replies.
        r.handle(
            ctx(0),
            PeerId(2),
            RouterMsg::EntryReply {
                slot: 0,
                entry: Some((PeerId(9), PeerValue(90))),
            },
            &mut fx,
        );
        assert_eq!(r.entries()[0], Some((PeerId(2), PeerValue(20))));
    }

    #[test]
    fn next_hop_picks_farthest_without_overshooting() {
        // Peer 0 at value 0; shortcuts at values 10, 20, 40, 80.
        let r = router_with(0, &[(1, 10), (2, 20), (4, 40), (8, 80)]);
        // Routing to 50: the best shortcut is value 40 (does not overshoot).
        assert_eq!(
            r.next_hop(PeerValue(0), PeerValue(50)),
            Some((PeerId(4), PeerValue(40)))
        );
        // Routing to 15: best is value 10.
        assert_eq!(
            r.next_hop(PeerValue(0), PeerValue(15)),
            Some((PeerId(1), PeerValue(10)))
        );
        // Routing to 5: nothing lies strictly between 0 and 5, fall back to
        // the successor.
        assert_eq!(
            r.next_hop(PeerValue(0), PeerValue(5)),
            Some((PeerId(1), PeerValue(10)))
        );
    }

    #[test]
    fn next_hop_handles_wraparound_targets() {
        // Peer at value 80 routing to 10 (wrapping past 0): shortcut at 95 is
        // usable, shortcut at 90 is closer to self than 95.
        let r = router_with(0, &[(1, 90), (2, 95)]);
        assert_eq!(
            r.next_hop(PeerValue(80), PeerValue(10)),
            Some((PeerId(2), PeerValue(95)))
        );
    }

    #[test]
    fn next_hop_with_no_entries_is_none() {
        let r = HierarchicalRouter::new(PeerId(0), RouterConfig::test());
        assert_eq!(r.next_hop(PeerValue(0), PeerValue(50)), None);
        // A router that only knows itself also returns None.
        let r = router_with(0, &[(0, 10)]);
        assert_eq!(r.next_hop(PeerValue(0), PeerValue(50)), None);
    }

    #[test]
    fn forget_and_clear_remove_entries() {
        let mut r = router_with(0, &[(1, 10), (2, 20), (1, 40)]);
        r.forget_peer(PeerId(1));
        assert_eq!(r.entries()[0], None);
        assert_eq!(r.entries()[2], None);
        assert_eq!(r.populated_levels(), 1);
        r.clear();
        assert_eq!(r.populated_levels(), 0);
    }

    #[test]
    fn timers_start_once() {
        let mut r = HierarchicalRouter::new(PeerId(1), RouterConfig::test());
        let mut fx = Effects::new();
        r.start_timers(ctx(1), &mut fx);
        r.start_timers(ctx(1), &mut fx);
        assert_eq!(fx.len(), 1);
    }
}
