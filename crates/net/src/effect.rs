//! Effects emitted by protocol state machines.
//!
//! Every protocol layer in this workspace is written as a state machine whose
//! handlers never touch the network directly: they push [`Effect`]s into an
//! [`Effects`] buffer. The composed peer maps each layer's effects into its
//! own unified message type (see [`Effects::absorb`]), straight into the
//! simulator's reused buffer (see
//! [`Context::effects`](crate::sim::Context::effects)). This keeps every
//! protocol unit-testable in isolation.

use std::time::Duration;

use pepper_types::PeerId;

use crate::time::SimTime;

/// The immutable per-invocation context handed to a layer handler.
#[derive(Debug, Clone, Copy)]
pub struct LayerCtx {
    /// The peer on which the handler runs.
    pub self_id: PeerId,
    /// Current virtual time.
    pub now: SimTime,
}

impl LayerCtx {
    /// Creates a layer context.
    pub fn new(self_id: PeerId, now: SimTime) -> Self {
        LayerCtx { self_id, now }
    }
}

/// A single side effect requested by a protocol handler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Effect<M> {
    /// Send `msg` to peer `to` (delivered after the network latency).
    Send {
        /// Destination peer.
        to: PeerId,
        /// The message to deliver.
        msg: M,
    },
    /// Deliver `msg` back to the emitting peer after `delay`.
    Timer {
        /// How long to wait before the timer fires.
        delay: Duration,
        /// The message delivered to the peer itself when the timer fires.
        msg: M,
    },
}

impl<M> Effect<M> {
    /// Maps the message type of the effect.
    pub fn map<N>(self, f: &mut impl FnMut(M) -> N) -> Effect<N> {
        match self {
            Effect::Send { to, msg } => Effect::Send { to, msg: f(msg) },
            Effect::Timer { delay, msg } => Effect::Timer { delay, msg: f(msg) },
        }
    }
}

/// An ordered buffer of effects produced by one handler invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Effects<M> {
    effects: Vec<Effect<M>>,
}

impl<M> Default for Effects<M> {
    fn default() -> Self {
        Effects {
            effects: Vec::new(),
        }
    }
}

impl<M> Effects<M> {
    /// Creates an empty effect buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests that `msg` be sent to `to`.
    pub fn send(&mut self, to: PeerId, msg: M) {
        self.effects.push(Effect::Send { to, msg });
    }

    /// Requests a timer: `msg` is delivered to the emitting peer after
    /// `delay`.
    pub fn timer(&mut self, delay: Duration, msg: M) {
        self.effects.push(Effect::Timer { delay, msg });
    }

    /// Number of buffered effects.
    pub fn len(&self) -> usize {
        self.effects.len()
    }

    /// Returns `true` when no effects were emitted.
    pub fn is_empty(&self) -> bool {
        self.effects.is_empty()
    }

    /// Drains the buffered effects.
    pub fn drain(&mut self) -> Vec<Effect<M>> {
        std::mem::take(&mut self.effects)
    }

    /// Iterates over the buffered effects.
    pub fn iter(&self) -> impl Iterator<Item = &Effect<M>> {
        self.effects.iter()
    }

    /// Moves all effects from `other` (after mapping) to the end of `self`,
    /// leaving `other` empty with its capacity intact for reuse.
    pub fn absorb<N>(&mut self, other: &mut Effects<N>, mut f: impl FnMut(N) -> M) {
        self.effects
            .extend(other.effects.drain(..).map(|e| e.map(&mut f)));
    }

    /// Wraps a raw effect vector (the simulator's scratch buffer).
    pub(crate) fn from_vec(effects: Vec<Effect<M>>) -> Self {
        Effects { effects }
    }

    /// Unwraps the raw effect vector, keeping its capacity.
    pub(crate) fn into_vec(self) -> Vec<Effect<M>> {
        self.effects
    }
}

impl<M> IntoIterator for Effects<M> {
    type Item = Effect<M>;
    type IntoIter = std::vec::IntoIter<Effect<M>>;
    fn into_iter(self) -> Self::IntoIter {
        self.effects.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Low {
        Ping,
        Pong,
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    enum High {
        Low(Low),
    }

    #[test]
    fn buffer_collects_in_order() {
        let mut fx: Effects<Low> = Effects::new();
        assert!(fx.is_empty());
        fx.send(PeerId(2), Low::Ping);
        fx.timer(Duration::from_secs(1), Low::Pong);
        assert_eq!(fx.len(), 2);
        let drained = fx.drain();
        assert_eq!(
            drained[0],
            Effect::Send {
                to: PeerId(2),
                msg: Low::Ping
            }
        );
        assert!(
            matches!(drained[1], Effect::Timer { delay, .. } if delay == Duration::from_secs(1))
        );
        assert!(fx.is_empty());
    }

    #[test]
    fn absorb_merges_layer_effects() {
        let mut low: Effects<Low> = Effects::new();
        low.send(PeerId(3), Low::Pong);
        let mut high: Effects<High> = Effects::new();
        high.absorb(&mut low, High::Low);
        assert_eq!(
            high.drain(),
            vec![Effect::Send {
                to: PeerId(3),
                msg: High::Low(Low::Pong)
            }]
        );
        // The source is drained, not consumed: it can be refilled.
        assert!(low.is_empty());
    }

    #[test]
    fn layer_ctx_carries_identity_and_time() {
        let ctx = LayerCtx::new(PeerId(9), SimTime::from_secs(3));
        assert_eq!(ctx.self_id, PeerId(9));
        assert_eq!(ctx.now, SimTime::from_secs(3));
    }
}
