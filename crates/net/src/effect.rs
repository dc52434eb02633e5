//! Effects emitted by protocol state machines.
//!
//! Every protocol layer in this workspace is written as a state machine whose
//! handlers never touch the network directly: they request sends and timers
//! through an [`Emit`] sink. Unit tests hand a layer an owned [`Effects`]
//! buffer; the composed peer hands it a sink that wraps each message into the
//! peer's unified message type and writes it straight into the simulator's
//! reused buffer (see [`LayerSlot::with`](crate::layer::LayerSlot::with) and
//! [`Context::effects`](crate::sim::Context::effects)), so every effect is
//! written exactly once. This keeps every protocol unit-testable in
//! isolation.

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

/// Where a protocol handler sends its effects: sends and timers in the
/// handler's own message type, recorded in emission order.
pub trait Emit<M> {
    /// Requests that `msg` be sent to `to`.
    fn send(&mut self, to: PeerId, msg: M);

    /// Requests a timer: `msg` is delivered to the emitting peer after
    /// `delay`.
    fn timer(&mut self, delay: Duration, msg: M);
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

    /// Wraps a raw effect vector (the simulator's scratch buffer).
    pub(crate) fn from_vec(effects: Vec<Effect<M>>) -> Self {
        Effects { effects }
    }

    /// Unwraps the raw effect vector, keeping its capacity.
    pub(crate) fn into_vec(self) -> Vec<Effect<M>> {
        self.effects
    }
}

impl<M> Emit<M> for Effects<M> {
    fn send(&mut self, to: PeerId, msg: M) {
        self.effects.push(Effect::Send { to, msg });
    }

    fn timer(&mut self, delay: Duration, msg: M) {
        self.effects.push(Effect::Timer { delay, msg });
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
    fn effects_record_sends_and_timers_through_dyn_emit_in_order() {
        let mut fx: Effects<Low> = Effects::new();
        let sink: &mut dyn Emit<Low> = &mut fx;
        sink.timer(Duration::from_millis(5), Low::Pong);
        sink.send(PeerId(3), Low::Ping);
        sink.timer(Duration::from_millis(1), Low::Ping);
        assert_eq!(
            fx.drain(),
            vec![
                Effect::Timer {
                    delay: Duration::from_millis(5),
                    msg: Low::Pong
                },
                Effect::Send {
                    to: PeerId(3),
                    msg: Low::Ping
                },
                Effect::Timer {
                    delay: Duration::from_millis(1),
                    msg: Low::Ping
                },
            ]
        );
    }

    #[test]
    fn layer_ctx_carries_identity_and_time() {
        let ctx = LayerCtx::new(PeerId(9), SimTime::from_secs(3));
        assert_eq!(ctx.self_id, PeerId(9));
        assert_eq!(ctx.now, SimTime::from_secs(3));
    }
}
