//! The uniform protocol-layer contract and the generic composition adapter.
//!
//! Every protocol layer of a PEPPER peer (fault-tolerant ring, Data Store,
//! replication manager, content router) is a pure state machine with the same
//! shape: it starts periodic timers, handles messages of its own type by
//! emitting sends and timers through an [`Emit`] sink, and reports facts the
//! composed peer must react to as typed *events*. [`ProtocolLayer`] captures
//! that shape, and [`LayerSlot`] owns the one place where a layer's messages
//! are wrapped into the composed peer's unified message type — so the peer
//! composes layers generically instead of hand-wiring per-layer dispatch,
//! effect-mapping and timer fan-out.

use std::ops::{Deref, DerefMut};
use std::time::Duration;

use pepper_types::PeerId;

use crate::effect::{Effects, Emit, LayerCtx};

/// A protocol layer: a pure state machine driven by messages and timers.
///
/// Handlers never touch the network; they emit sends and timers in the
/// layer's own message type through an [`Emit`] sink and buffer
/// [`Self::Event`]s which the composed peer drains after every invocation.
/// This uniform boundary is what keeps each layer unit-testable in isolation
/// (a test passes an owned [`Effects`] buffer as the sink) and makes
/// cross-layer invariant checking tractable.
pub trait ProtocolLayer {
    /// The message type this layer exchanges (timers deliver the same type).
    type Msg: Clone + std::fmt::Debug;

    /// The typed events this layer reports upward (ring membership changes,
    /// data-store rebalance requests, replication refresh ticks, …).
    type Event: std::fmt::Debug;

    /// Schedules the layer's periodic timers. Must be idempotent: composed
    /// peers may call it again after membership changes.
    fn start_timers(&mut self, ctx: LayerCtx, fx: &mut dyn Emit<Self::Msg>);

    /// Handles one delivered message (or timer), emitting effects into `fx`
    /// and buffering events for [`Self::drain_events`].
    fn handle(&mut self, ctx: LayerCtx, from: PeerId, msg: Self::Msg, fx: &mut dyn Emit<Self::Msg>);

    /// Drains the events buffered since the last drain, in emission order.
    fn drain_events(&mut self) -> Vec<Self::Event>;
}

/// The sink a [`LayerSlot`] hands its layer: wraps each message into the
/// composed peer's type and writes the effect straight into `out`.
struct Mapped<'a, L, M> {
    out: &'a mut Effects<M>,
    wrap: fn(L) -> M,
}

impl<L, M> Emit<L> for Mapped<'_, L, M> {
    fn send(&mut self, to: PeerId, msg: L) {
        self.out.send(to, (self.wrap)(msg));
    }

    fn timer(&mut self, delay: Duration, msg: L) {
        self.out.timer(delay, (self.wrap)(msg));
    }
}

/// Owns one layer inside a composed peer, together with the *single* mapping
/// from the layer's message type into the peer's unified message type.
///
/// All effect mapping funnels through [`LayerSlot::with`]. Read access to the
/// layer goes through `Deref`, and state mutators that emit neither effects
/// nor events can be called through `DerefMut`; anything that emits either
/// must run inside [`LayerSlot::with`] so the effects are captured and mapped
/// and the events are drained and returned — never left behind in the layer's
/// buffer to be mis-attributed to a later, unrelated invocation.
///
/// The slot holds no effect buffer of its own: [`LayerSlot::with`] hands the
/// layer a sink that wraps each message and appends it to the caller's `out`
/// (the simulator's reused buffer), so every effect is written exactly once.
#[derive(Debug, Clone)]
pub struct LayerSlot<L: ProtocolLayer, M> {
    layer: L,
    wrap: fn(L::Msg) -> M,
}

impl<L: ProtocolLayer, M> LayerSlot<L, M> {
    /// Wraps `layer`, mapping its messages into `M` with `wrap` (typically an
    /// enum constructor like `PeerMsg::Ring`).
    pub fn new(layer: L, wrap: fn(L::Msg) -> M) -> Self {
        LayerSlot { layer, wrap }
    }

    /// Consumes the slot, returning the layer.
    pub fn into_inner(self) -> L {
        self.layer
    }

    /// Runs `f` against the layer with a sink that wraps every emitted
    /// effect and appends it to `out` in emission order, and returns the
    /// closure result together with the events the invocation buffered. This
    /// is the one generic mapping site of a composed peer, and draining the
    /// events here (rather than at the call site) guarantees none is left
    /// behind to be mis-attributed to a later, unrelated invocation.
    pub fn with<R>(
        &mut self,
        out: &mut Effects<M>,
        f: impl FnOnce(&mut L, &mut dyn Emit<L::Msg>) -> R,
    ) -> (R, Vec<L::Event>) {
        let mut fx = Mapped {
            out,
            wrap: self.wrap,
        };
        let result = f(&mut self.layer, &mut fx);
        (result, self.layer.drain_events())
    }

    /// Starts the layer's timers, mapping them into `out` and returning any
    /// events the layer buffered while doing so.
    pub fn start_timers(&mut self, ctx: LayerCtx, out: &mut Effects<M>) -> Vec<L::Event> {
        self.with(out, |layer, fx| layer.start_timers(ctx, fx)).1
    }

    /// Dispatches one message to the layer, maps its effects into `out`, and
    /// returns the events the invocation produced.
    pub fn handle(
        &mut self,
        ctx: LayerCtx,
        from: PeerId,
        msg: L::Msg,
        out: &mut Effects<M>,
    ) -> Vec<L::Event> {
        self.with(out, |layer, fx| layer.handle(ctx, from, msg, fx))
            .1
    }
}

impl<L: ProtocolLayer, M> Deref for LayerSlot<L, M> {
    type Target = L;
    fn deref(&self) -> &L {
        &self.layer
    }
}

impl<L: ProtocolLayer, M> DerefMut for LayerSlot<L, M> {
    fn deref_mut(&mut self) -> &mut L {
        &mut self.layer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;
    use std::time::Duration;

    #[derive(Debug, Clone, PartialEq, Eq)]
    enum EchoMsg {
        Tick,
        Hello,
    }

    #[derive(Debug, PartialEq, Eq)]
    enum EchoEvent {
        Greeted(PeerId),
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    enum WireMsg {
        Echo(EchoMsg),
    }

    /// A minimal layer: re-arms a tick and greets back whoever says hello.
    #[derive(Debug, Default)]
    struct EchoLayer {
        started: bool,
        events: Vec<EchoEvent>,
    }

    impl ProtocolLayer for EchoLayer {
        type Msg = EchoMsg;
        type Event = EchoEvent;

        fn start_timers(&mut self, _ctx: LayerCtx, fx: &mut dyn Emit<EchoMsg>) {
            if !self.started {
                self.started = true;
                fx.timer(Duration::from_secs(1), EchoMsg::Tick);
            }
        }

        fn handle(
            &mut self,
            _ctx: LayerCtx,
            from: PeerId,
            msg: EchoMsg,
            fx: &mut dyn Emit<EchoMsg>,
        ) {
            match msg {
                EchoMsg::Tick => fx.timer(Duration::from_secs(1), EchoMsg::Tick),
                EchoMsg::Hello => {
                    fx.send(from, EchoMsg::Hello);
                    self.events.push(EchoEvent::Greeted(from));
                }
            }
        }

        fn drain_events(&mut self) -> Vec<EchoEvent> {
            std::mem::take(&mut self.events)
        }
    }

    fn ctx() -> LayerCtx {
        LayerCtx::new(PeerId(1), SimTime::ZERO)
    }

    #[test]
    fn slot_maps_timer_effects() {
        let mut slot = LayerSlot::new(EchoLayer::default(), WireMsg::Echo);
        let mut out: Effects<WireMsg> = Effects::new();
        slot.start_timers(ctx(), &mut out);
        assert!(matches!(
            out.drain()[0],
            crate::effect::Effect::Timer {
                msg: WireMsg::Echo(EchoMsg::Tick),
                ..
            }
        ));
        // Idempotent through the slot too.
        slot.start_timers(ctx(), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn slot_handle_maps_sends_and_returns_events() {
        let mut slot = LayerSlot::new(EchoLayer::default(), WireMsg::Echo);
        let mut out: Effects<WireMsg> = Effects::new();
        let events = slot.handle(ctx(), PeerId(7), EchoMsg::Hello, &mut out);
        assert_eq!(events, vec![EchoEvent::Greeted(PeerId(7))]);
        assert!(matches!(
            out.drain()[0],
            crate::effect::Effect::Send {
                to: PeerId(7),
                msg: WireMsg::Echo(EchoMsg::Hello),
            }
        ));
        // Events were drained by handle; nothing left behind.
        assert!(slot.drain_events().is_empty());
    }

    #[test]
    fn deref_exposes_layer_state() {
        let mut slot = LayerSlot::new(EchoLayer::default(), WireMsg::Echo);
        assert!(!slot.started);
        slot.started = true; // DerefMut for effect-free mutators
        assert!(slot.into_inner().started);
    }

    #[test]
    fn with_returns_closure_result_and_drains_events() {
        let mut slot = LayerSlot::new(EchoLayer::default(), WireMsg::Echo);
        let mut out: Effects<WireMsg> = Effects::new();
        let (n, events) = slot.with(&mut out, |layer, fx| {
            layer.handle(ctx(), PeerId(2), EchoMsg::Hello, fx);
            7
        });
        assert_eq!(n, 7);
        assert_eq!(out.len(), 1);
        // Events buffered inside the closure come back from `with` itself;
        // nothing is left behind for a later invocation to pick up.
        assert_eq!(events, vec![EchoEvent::Greeted(PeerId(2))]);
        assert!(slot.drain_events().is_empty());
    }

    /// A second layer with its own message type, to compose beside
    /// `EchoLayer` in one peer.
    #[derive(Debug, Default)]
    struct PingLayer;

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Ping;

    impl ProtocolLayer for PingLayer {
        type Msg = Ping;
        type Event = ();

        fn start_timers(&mut self, _ctx: LayerCtx, fx: &mut dyn Emit<Ping>) {
            fx.timer(Duration::from_secs(2), Ping);
        }

        fn handle(&mut self, _ctx: LayerCtx, from: PeerId, _msg: Ping, fx: &mut dyn Emit<Ping>) {
            fx.send(from, Ping);
        }

        fn drain_events(&mut self) -> Vec<()> {
            Vec::new()
        }
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    enum PeerMsg {
        Echo(EchoMsg),
        Ping(Ping),
    }

    #[test]
    fn slots_sharing_one_output_keep_emission_order() {
        use crate::effect::Effect;
        let mut echo = LayerSlot::new(EchoLayer::default(), PeerMsg::Echo);
        let mut ping = LayerSlot::new(PingLayer, PeerMsg::Ping);
        let mut out: Effects<PeerMsg> = Effects::new();

        let ((), events) = echo.with(&mut out, |layer, fx| {
            layer.handle(ctx(), PeerId(5), EchoMsg::Tick, fx);
            layer.handle(ctx(), PeerId(6), EchoMsg::Hello, fx);
        });
        assert_eq!(events, vec![EchoEvent::Greeted(PeerId(6))]);
        ping.handle(ctx(), PeerId(8), Ping, &mut out);
        ping.start_timers(ctx(), &mut out);
        let events = echo.handle(ctx(), PeerId(9), EchoMsg::Hello, &mut out);
        assert_eq!(events, vec![EchoEvent::Greeted(PeerId(9))]);

        // Back-to-back invocations of two slots land in `out` in exactly the
        // order the layers emitted them.
        assert_eq!(
            out.drain(),
            vec![
                Effect::Timer {
                    delay: Duration::from_secs(1),
                    msg: PeerMsg::Echo(EchoMsg::Tick),
                },
                Effect::Send {
                    to: PeerId(6),
                    msg: PeerMsg::Echo(EchoMsg::Hello),
                },
                Effect::Send {
                    to: PeerId(8),
                    msg: PeerMsg::Ping(Ping),
                },
                Effect::Timer {
                    delay: Duration::from_secs(2),
                    msg: PeerMsg::Ping(Ping),
                },
                Effect::Send {
                    to: PeerId(9),
                    msg: PeerMsg::Echo(EchoMsg::Hello),
                },
            ]
        );

        // An invocation that emits nothing appends nothing.
        out.send(PeerId(3), PeerMsg::Ping(Ping));
        let (r, events) = echo.with(&mut out, |_, _| 5);
        assert_eq!((r, events), (5, vec![]));
        assert_eq!(
            out.drain(),
            vec![Effect::Send {
                to: PeerId(3),
                msg: PeerMsg::Ping(Ping),
            }]
        );
    }
}
