//! Storage balance: splits, merges and redistributions (Section 2.3).
//!
//! The protocols here keep every live peer between `sf` and `2·sf` items:
//!
//! * **overflow → split**: the peer keeps the lower half of its range, a
//!   free peer (joined into the ring as this peer's successor by the index
//!   layer) receives the upper half via a hand-off;
//! * **underflow → merge/redistribute**: the peer asks its successor; the
//!   successor either hands over the lower portion of its items
//!   (redistribute, moving the boundary up) or gives up its entire range and
//!   becomes a free peer again (full merge, preceded by the availability
//!   protections of Section 5).
//!
//! Every transfer is *copy-then-delete*: the giving side keeps its items and
//! range until the receiving side has acknowledged the installation, and
//! both sides apply their range change only while no scan holds their range
//! lock (see [`crate::state`]). While a transfer is in flight the giving
//! side parks incoming item inserts/deletes so no item can land in (or
//! silently vanish from) the moving sub-range.

use pepper_net::{Emit, LayerCtx};
use pepper_types::{CircularRange, Item, PeerId, PeerValue};

use crate::events::DsEvent;
use crate::messages::DsMsg;
use crate::state::{DataStoreState, DeferredWrite, DsStatus};

/// The payload of a full merge grant: the recipient predecessor, the range
/// being given up, and its items.
pub type MergeGivePayload = (PeerId, CircularRange, Vec<(u64, Item)>);

impl DataStoreState {
    // ------------------------------------------------------------------
    // threshold checks
    // ------------------------------------------------------------------

    /// Declares an overflow when the store exceeds `2·sf` items.
    pub(crate) fn check_overflow(&mut self) {
        if self.status == DsStatus::Live
            && !self.rebalancing
            && self.store.len() > self.cfg.overflow_threshold()
            && self.store.len() >= 2
        {
            self.rebalancing = true;
            self.emit(DsEvent::SplitNeeded {
                items: self.store.len(),
            });
        }
    }

    /// Declares an underflow when the store drops below `sf` items. A peer
    /// responsible for the whole circle has nobody to merge with.
    pub(crate) fn check_underflow(&mut self) {
        if self.status == DsStatus::Live
            && !self.rebalancing
            && !self.range.is_full()
            && self.store.len() < self.cfg.underflow_threshold()
        {
            self.rebalancing = true;
            self.emit(DsEvent::MergeNeeded {
                items: self.store.len(),
            });
        }
    }

    /// Re-runs the threshold checks (used by the retry timer and by the
    /// index layer after external changes).
    pub fn recheck_balance(&mut self) {
        self.check_overflow();
        self.check_underflow();
    }

    /// Aborts an announced rebalance (no free peer available, no successor,
    /// ring insert failed, …) and schedules a retry.
    pub fn cancel_rebalance(&mut self, fx: &mut dyn Emit<DsMsg>) {
        self.rebalancing = false;
        self.pending_split = None;
        self.handoff_to = None;
        self.merge_requested_from = None;
        fx.timer(self.cfg.rebalance_retry_delay, DsMsg::RebalanceRetry);
    }

    /// Failure cleanup, driven by the ring's failure detector: `peer` has
    /// been declared fail-stopped. Any two-sided transfer waiting on a reply
    /// from `peer` would otherwise hang forever (stuck `rebalancing`, parked
    /// item writes, storage bounds never re-checked). Copy-then-delete makes
    /// every abort safe: the giving side still holds all items until the ack
    /// that will now never come.
    pub fn on_peer_failed(&mut self, ctx: LayerCtx, peer: PeerId, fx: &mut dyn Emit<DsMsg>) {
        // Drop deferred grants from the dead peer: its retained range is
        // revived from replicas by its ring successor, so applying the stale
        // grant here would double-own the granted sub-range. (The grant was
        // a copy — the items live on as replicas — so nothing is lost.)
        let had_grant = self.deferred.iter().any(|w| {
            matches!(w,
                DeferredWrite::ApplyRedistribute { granter, .. }
                | DeferredWrite::ApplyMergeGrant { granter, .. } if *granter == peer)
        });
        if had_grant {
            self.deferred.retain(|w| {
                !matches!(w,
                    DeferredWrite::ApplyRedistribute { granter, .. }
                    | DeferredWrite::ApplyMergeGrant { granter, .. } if *granter == peer)
            });
            self.rebalancing = false;
            fx.timer(self.cfg.rebalance_retry_delay, DsMsg::RebalanceRetry);
        }
        if self.handoff_to == Some(peer) {
            // Split receiver died before acknowledging the hand-off.
            self.handoff_to = None;
            self.pending_split = None;
            self.rebalancing = false;
            self.unblock_item_writes(ctx, fx);
            fx.timer(self.cfg.rebalance_retry_delay, DsMsg::RebalanceRetry);
        }
        if self.merge_requested_from == Some(peer) {
            // The successor died before answering our merge request.
            self.merge_requested_from = None;
            self.rebalancing = false;
            fx.timer(self.cfg.rebalance_retry_delay, DsMsg::RebalanceRetry);
        }
        if self.absorbing_leave_from == Some(peer) {
            // The voluntary leaver died before granting; unlock early (the
            // absorb timeout would catch it later).
            self.absorbing_leave_from = None;
            self.rebalancing = false;
            self.recheck_balance();
        }
    }

    pub(crate) fn on_rebalance_retry(&mut self, _ctx: LayerCtx) {
        self.recheck_balance();
    }

    // ------------------------------------------------------------------
    // split (overflow)
    // ------------------------------------------------------------------

    /// Plans a split: chooses the boundary and the value for the new peer.
    ///
    /// Returns `(new_peer_value, boundary)`: the free peer joins the ring as
    /// this peer's successor with value `new_peer_value` (this peer's current
    /// value) and will receive the range `(boundary, new_peer_value]`; this
    /// peer's value becomes `boundary`.
    ///
    /// Returns `None` (and clears the rebalancing flag) when a split is not
    /// possible (too few items or not live).
    pub fn begin_split(&mut self) -> Option<(PeerValue, PeerValue)> {
        if self.status != DsStatus::Live {
            self.rebalancing = false;
            return None;
        }
        let Some(boundary) = self.store.split_point(&self.range) else {
            self.rebalancing = false;
            return None;
        };
        let high = self.range.high();
        if boundary == high.raw() {
            self.rebalancing = false;
            return None;
        }
        let moved = if self.range.is_full() {
            CircularRange::new(boundary, high)
        } else {
            match self.range.split_at(boundary) {
                Some((_keep, moved)) => moved,
                None => {
                    self.rebalancing = false;
                    return None;
                }
            }
        };
        self.pending_split = Some(moved);
        Some((high, PeerValue(boundary)))
    }

    /// Sends the split hand-off to the freshly joined peer. Called by the
    /// index layer once the ring reports the `insertSucc` as complete. From
    /// this point until the hand-off is acknowledged, item writes at this
    /// peer are parked.
    pub fn send_handoff(
        &mut self,
        _ctx: LayerCtx,
        to: PeerId,
        fx: &mut dyn Emit<DsMsg>,
    ) -> Option<CircularRange> {
        let moved = self.pending_split?;
        let items = self.store.items_in_range(&moved);
        self.item_writes_blocked = true;
        self.handoff_to = Some(to);
        fx.send(
            to,
            DsMsg::HandoffInstall {
                range: moved,
                items,
            },
        );
        Some(moved)
    }

    /// New-peer side: install the hand-off (deferred while scans pass).
    pub(crate) fn on_handoff_install(
        &mut self,
        ctx: LayerCtx,
        from: PeerId,
        range: CircularRange,
        items: Vec<(u64, Item)>,
        fx: &mut dyn Emit<DsMsg>,
    ) {
        self.write_or_defer(
            ctx,
            DeferredWrite::InstallHandoff {
                range,
                items,
                splitter: from,
            },
            fx,
        );
    }

    /// Splitter side: the new peer confirmed; drop the moved items and
    /// shrink the range (deferred while scans pass).
    pub(crate) fn on_handoff_ack(&mut self, ctx: LayerCtx, fx: &mut dyn Emit<DsMsg>) {
        let Some(moved) = self.pending_split else {
            return;
        };
        self.write_or_defer(ctx, DeferredWrite::CompleteSplit { moved }, fx);
    }

    // ------------------------------------------------------------------
    // merge / redistribute (underflow)
    // ------------------------------------------------------------------

    /// Sends a merge request to the successor. Called by the index layer in
    /// response to [`DsEvent::MergeNeeded`].
    pub fn send_merge_request(&mut self, to: PeerId, fx: &mut dyn Emit<DsMsg>) {
        self.merge_requested_from = Some(to);
        fx.send(
            to,
            DsMsg::MergeRequest {
                requester_items: self.store.len(),
                requester_value: self.range.high(),
            },
        );
    }

    /// Successor side: decide between declining, redistributing, or a full
    /// merge.
    pub(crate) fn on_merge_request(
        &mut self,
        _ctx: LayerCtx,
        from: PeerId,
        requester_items: usize,
        _requester_value: PeerValue,
        fx: &mut dyn Emit<DsMsg>,
    ) {
        if self.status != DsStatus::Live
            || self.rebalancing
            || self.merge_give_to.is_some()
            || self.item_writes_blocked
            || self.range.is_full()
        {
            fx.send(from, DsMsg::MergeDeclined);
            return;
        }
        let total = self.store.len() + requester_items;
        if total <= self.cfg.overflow_threshold() {
            // Full merge: this peer will give up its entire range. The index
            // layer first runs the availability protections (extra-hop
            // replication + ring leave) and then calls `send_merge_grant`.
            self.rebalancing = true;
            self.merge_give_to = Some(from);
            self.emit(DsEvent::MergeGiveStarted { to: from });
            return;
        }
        // Redistribute: hand the lower portion over so both end up with
        // roughly `total / 2` items.
        let give = (total / 2).saturating_sub(requester_items).max(1);
        let Some(new_boundary) = self.store.redistribute_point(give, &self.range) else {
            fx.send(from, DsMsg::MergeDeclined);
            return;
        };
        let moving = CircularRange::new(self.range.low(), new_boundary);
        let items = self.store.items_in_range(&moving);
        self.rebalancing = true;
        self.item_writes_blocked = true;
        self.redistribute_give_boundary = Some(PeerValue(new_boundary));
        fx.send(
            from,
            DsMsg::RedistributeGrant {
                items,
                new_boundary: PeerValue(new_boundary),
                granter_low: self.range.low(),
            },
        );
        // The requester is this peer's *predecessor*: its failure is
        // invisible to the ping loop, so only a timer can end the wait.
        fx.timer(
            self.cfg.leave_absorb_timeout,
            DsMsg::GiveTimeout {
                to: from,
                boundary: Some(PeerValue(new_boundary)),
                attempt: 1,
            },
        );
    }

    /// Requester side: install the redistributed items and move the boundary
    /// up (deferred while scans pass).
    pub(crate) fn on_redistribute_grant(
        &mut self,
        ctx: LayerCtx,
        from: PeerId,
        items: Vec<(u64, Item)>,
        new_boundary: PeerValue,
        granter_low: PeerValue,
        fx: &mut dyn Emit<DsMsg>,
    ) {
        self.merge_requested_from = None;
        self.write_or_defer(
            ctx,
            DeferredWrite::ApplyRedistribute {
                items,
                new_boundary,
                granter_low,
                granter: from,
            },
            fx,
        );
    }

    /// Granter side: the requester installed; drop the granted items and move
    /// the range's low end up (deferred while scans pass).
    pub(crate) fn on_redistribute_ack(
        &mut self,
        ctx: LayerCtx,
        new_boundary: PeerValue,
        fx: &mut dyn Emit<DsMsg>,
    ) {
        self.write_or_defer(ctx, DeferredWrite::FinishRedistribute { new_boundary }, fx);
    }

    /// The payload of a full merge grant (copies; nothing is removed until
    /// the requester acknowledges). Returns `None` if no merge-give is in
    /// flight.
    pub fn merge_give_payload(&self) -> Option<MergeGivePayload> {
        let to = self.merge_give_to?;
        Some((to, self.range, self.store.to_vec()))
    }

    /// Sends the full merge grant to the predecessor. Called by the index
    /// layer once the availability protections (extra-hop replication and
    /// ring leave) have completed.
    pub fn send_merge_grant(&mut self, fx: &mut dyn Emit<DsMsg>) -> Option<PeerId> {
        let (to, range, items) = self.merge_give_payload()?;
        self.item_writes_blocked = true;
        fx.send(
            to,
            DsMsg::MergeGrant {
                range,
                items,
                granter_value: range.high(),
            },
        );
        // The requester is this peer's *predecessor*: its failure is
        // invisible to the ping loop, so only a timer can end the wait.
        fx.timer(
            self.cfg.leave_absorb_timeout,
            DsMsg::GiveTimeout {
                to,
                boundary: None,
                attempt: 1,
            },
        );
        Some(to)
    }

    /// Aborts an announced merge-give (for example when the ring refuses to
    /// start a `leave` because another operation is in flight). The requester
    /// is expected to be told via a `MergeDeclined` by the caller.
    pub fn cancel_merge_give(&mut self, _fx: &mut dyn Emit<DsMsg>) {
        self.merge_give_to = None;
        self.rebalancing = false;
        self.item_writes_blocked = false;
    }

    /// Requester side: absorb the granter's range and items (deferred while
    /// scans pass).
    pub(crate) fn on_merge_grant(
        &mut self,
        ctx: LayerCtx,
        from: PeerId,
        range: CircularRange,
        items: Vec<(u64, Item)>,
        _granter_value: PeerValue,
        fx: &mut dyn Emit<DsMsg>,
    ) {
        self.merge_requested_from = None;
        self.write_or_defer(
            ctx,
            DeferredWrite::ApplyMergeGrant {
                range,
                items,
                granter: from,
            },
            fx,
        );
    }

    /// Granter side: the requester absorbed everything; become a free peer
    /// (deferred while scans pass).
    pub(crate) fn on_merge_grant_ack(&mut self, ctx: LayerCtx, fx: &mut dyn Emit<DsMsg>) {
        self.write_or_defer(ctx, DeferredWrite::FinishMergeGive, fx);
    }

    /// Requester side: the successor declined; retry later. Also unlocks a
    /// predecessor whose accepted voluntary-leave offer was aborted by the
    /// leaver (e.g. the ring refused to start the leave). The sender must
    /// match the operation being declined — a stale decline from an
    /// already-cleaned-up operation must not unlock an unrelated in-flight
    /// one.
    pub(crate) fn on_merge_declined(
        &mut self,
        _ctx: LayerCtx,
        from: PeerId,
        fx: &mut dyn Emit<DsMsg>,
    ) {
        let was_requester = self.merge_requested_from == Some(from);
        let was_absorbing = self.absorbing_leave_from == Some(from);
        if !was_requester && !was_absorbing {
            return;
        }
        if was_requester {
            self.merge_requested_from = None;
        }
        if was_absorbing {
            self.absorbing_leave_from = None;
        }
        self.rebalancing = false;
        fx.timer(self.cfg.rebalance_retry_delay, DsMsg::RebalanceRetry);
    }

    // ------------------------------------------------------------------
    // voluntary leave
    // ------------------------------------------------------------------

    /// Leaver side: offer this peer's entire range to its predecessor `pred`.
    ///
    /// The actual hand-off only starts once the predecessor acknowledges: the
    /// ack locks the predecessor against concurrent splits/merges, so no new
    /// peer can be inserted between the two while the grant is in flight
    /// (the same protection the `rebalancing` flag gives the requester of an
    /// underflow-driven merge). Returns `false` when this peer cannot leave
    /// right now (free, rebalancing, sole owner of the ring, …).
    pub fn begin_voluntary_leave(&mut self, pred: PeerId, fx: &mut dyn Emit<DsMsg>) -> bool {
        if self.status != DsStatus::Live
            || self.rebalancing
            || self.item_writes_blocked
            || self.leave_offered_to.is_some()
            || self.range.is_full()
            || pred == self.id
        {
            return false;
        }
        self.leave_offered_to = Some(pred);
        fx.send(
            pred,
            DsMsg::LeaveOffer {
                leaver_value: self.range.high(),
            },
        );
        // The predecessor's failure is invisible to the ping loop (it is
        // behind this peer); time the offer out so a later leave can retry.
        fx.timer(
            self.cfg.leave_absorb_timeout,
            DsMsg::LeaveOfferTimeout { to: pred },
        );
        true
    }

    /// Predecessor side: accept (and lock) or decline a voluntary-leave
    /// offer. The offer is only accepted when it comes from this peer's
    /// *direct* successor as currently cached — anything else means the
    /// topology between the two has changed and absorbing the range would
    /// corrupt the partition.
    pub(crate) fn on_leave_offer(
        &mut self,
        _ctx: LayerCtx,
        from: PeerId,
        leaver_value: PeerValue,
        fx: &mut dyn Emit<DsMsg>,
    ) {
        // Only the peer identity is compared: the cached successor *value*
        // reflects the moment the successor was announced and goes stale when
        // the successor later splits (its value moves down). `leaver_value`
        // stays in the message for diagnostics and tracing.
        let _ = leaver_value;
        let from_direct_successor = self.succ.map(|(p, _)| p) == Some(from);
        if self.status != DsStatus::Live
            || self.rebalancing
            || self.item_writes_blocked
            || self.absorbing_leave_from.is_some()
            || !from_direct_successor
        {
            fx.send(from, DsMsg::LeaveOfferDeclined);
            return;
        }
        self.rebalancing = true;
        self.absorbing_leave_from = Some(from);
        fx.send(from, DsMsg::LeaveOfferAck);
        // Guard against the leaver failing mid-leave: unlock if the merge
        // grant never arrives.
        fx.timer(
            self.cfg.leave_absorb_timeout,
            DsMsg::LeaveAbsorbTimeout { from },
        );
    }

    /// Leaver side: the predecessor is locked; run the availability
    /// protections and grant, exactly like an underflow-driven full merge.
    pub(crate) fn on_leave_offer_ack(
        &mut self,
        _ctx: LayerCtx,
        from: PeerId,
        fx: &mut dyn Emit<DsMsg>,
    ) {
        if self.leave_offered_to != Some(from) {
            return;
        }
        self.leave_offered_to = None;
        if self.status != DsStatus::Live
            || self.rebalancing
            || self.item_writes_blocked
            || self.range.is_full()
        {
            // A split/merge started while the offer was in flight: abort the
            // leave and release the locked predecessor.
            fx.send(from, DsMsg::MergeDeclined);
            return;
        }
        self.rebalancing = true;
        self.merge_give_to = Some(from);
        self.emit(DsEvent::MergeGiveStarted { to: from });
    }

    /// Leaver side: the predecessor cannot absorb right now; stay in the
    /// ring.
    pub(crate) fn on_leave_offer_declined(&mut self, _ctx: LayerCtx, from: PeerId) {
        if self.leave_offered_to == Some(from) {
            self.leave_offered_to = None;
        }
    }

    /// Predecessor side: the merge grant never arrived (the leaver probably
    /// failed mid-leave); unlock.
    pub(crate) fn on_leave_absorb_timeout(&mut self, _ctx: LayerCtx, from: PeerId) {
        if self.absorbing_leave_from == Some(from) {
            self.absorbing_leave_from = None;
            self.rebalancing = false;
            self.recheck_balance();
        }
    }

    /// Giving side: the receiver's acknowledgement never arrived — it
    /// fail-stopped mid-transfer (it is this peer's predecessor, invisible
    /// to the ping loop).
    ///
    /// * A redistribute give is simply aborted: copy-then-delete means every
    ///   item is still here, and the requester's range is revived by its own
    ///   successor's takeover.
    /// * A merge give cannot be aborted — this peer has already left the
    ///   ring. It completes the give unilaterally instead: the pre-leave
    ///   additional-hop replication has pushed every item it holds, so the
    ///   takeover of this (now unowned) range revives them from replicas,
    ///   exactly as if this peer had failed.
    pub(crate) fn on_give_timeout(
        &mut self,
        ctx: LayerCtx,
        to: PeerId,
        boundary: Option<PeerValue>,
        attempt: u32,
        fx: &mut dyn Emit<DsMsg>,
    ) {
        match boundary {
            None => {
                if self.merge_give_to == Some(to) {
                    self.write_or_defer(ctx, DeferredWrite::FinishMergeGive, fx);
                }
            }
            Some(b) => {
                if self.redistribute_give_boundary != Some(b) {
                    return; // resolved (acked or abort-acked) in the meantime
                }
                if attempt == 1 {
                    // The requester may be alive with the grant parked
                    // behind scan locks: ask it to drop the grant, and only
                    // abort unilaterally if that, too, goes unanswered.
                    fx.send(to, DsMsg::RedistributeAbort { new_boundary: b });
                    fx.timer(
                        self.cfg.leave_absorb_timeout,
                        DsMsg::GiveTimeout {
                            to,
                            boundary: Some(b),
                            attempt: 2,
                        },
                    );
                } else {
                    // Neither a RedistributeAck nor an abort ack within a
                    // whole extra guard period: the requester is dead.
                    // Copy-then-delete means every item is still here.
                    self.redistribute_give_boundary = None;
                    self.rebalancing = false;
                    self.unblock_item_writes(ctx, fx);
                    fx.timer(self.cfg.rebalance_retry_delay, DsMsg::RebalanceRetry);
                }
            }
        }
    }

    /// Requester side: the granter's guard expired and it wants the grant
    /// back. If the grant is still parked behind scan locks, drop it and
    /// confirm; if it was already applied, ignore — our `RedistributeAck`
    /// is on its way (per-pair FIFO delivery guarantees the grant itself
    /// cannot still be in flight behind this abort).
    pub(crate) fn on_redistribute_abort(
        &mut self,
        _ctx: LayerCtx,
        from: PeerId,
        new_boundary: PeerValue,
        fx: &mut dyn Emit<DsMsg>,
    ) {
        let before = self.deferred.len();
        self.deferred.retain(|w| {
            !matches!(w,
                DeferredWrite::ApplyRedistribute { granter, new_boundary: b, .. }
                    if *granter == from && *b == new_boundary)
        });
        if self.deferred.len() != before {
            self.rebalancing = false;
            fx.send(from, DsMsg::RedistributeAbortAck { new_boundary });
            fx.timer(self.cfg.rebalance_retry_delay, DsMsg::RebalanceRetry);
        }
    }

    /// Granter side: the requester dropped the unapplied grant; keep the
    /// range and items and unlock.
    pub(crate) fn on_redistribute_abort_ack(
        &mut self,
        ctx: LayerCtx,
        new_boundary: PeerValue,
        fx: &mut dyn Emit<DsMsg>,
    ) {
        if self.redistribute_give_boundary == Some(new_boundary) {
            self.redistribute_give_boundary = None;
            self.rebalancing = false;
            self.unblock_item_writes(ctx, fx);
            fx.timer(self.cfg.rebalance_retry_delay, DsMsg::RebalanceRetry);
        }
    }

    /// Leaver side: the offered predecessor never answered (failed, or the
    /// cached pointer was stale); clear the offer so a later leave can be
    /// attempted.
    pub(crate) fn on_leave_offer_timeout(&mut self, _ctx: LayerCtx, to: PeerId) {
        if self.leave_offered_to == Some(to) {
            self.leave_offered_to = None;
        }
    }

    // ------------------------------------------------------------------
    // deferred-write application
    // ------------------------------------------------------------------

    /// Applies a (possibly previously deferred) range/item mutation.
    pub(crate) fn apply_write(
        &mut self,
        ctx: LayerCtx,
        write: DeferredWrite,
        fx: &mut dyn Emit<DsMsg>,
    ) {
        match write {
            DeferredWrite::CompleteSplit { moved } => {
                let removed = self.store.take_range(&moved);
                for (mapped, item) in &removed {
                    self.emit(DsEvent::ItemRemoved {
                        item: item.id,
                        mapped: *mapped,
                    });
                }
                // The kept range is everything up to the boundary.
                let boundary = moved.low();
                let new_range = if self.range.is_full() {
                    CircularRange::new(moved.high(), boundary)
                } else {
                    CircularRange::new(self.range.low(), boundary)
                };
                self.range = new_range;
                self.pending_split = None;
                self.handoff_to = None;
                self.rebalancing = false;
                self.emit(DsEvent::RangeChanged {
                    range: self.range,
                    value: self.range.high(),
                    grew: false,
                });
                self.unblock_item_writes(ctx, fx);
                self.recheck_balance();
            }
            DeferredWrite::InstallHandoff {
                range,
                items,
                splitter,
            } => {
                self.status = DsStatus::Live;
                self.range = range;
                for (mapped, item) in items {
                    self.emit(DsEvent::ItemStored { item: item.clone() });
                    self.store.insert(mapped, item);
                }
                self.emit(DsEvent::RangeChanged {
                    range: self.range,
                    value: self.range.high(),
                    grew: true,
                });
                fx.send(splitter, DsMsg::HandoffAck);
                self.recheck_balance();
            }
            DeferredWrite::ApplyRedistribute {
                items,
                new_boundary,
                granter_low,
                granter,
            } => {
                for (mapped, item) in items {
                    self.emit(DsEvent::ItemStored { item: item.clone() });
                    self.store.insert(mapped, item);
                }
                // The granter is normally ring-adjacent: its low end is this
                // peer's high end. When a peer between the two failed and
                // its takeover had not run yet, this redistribute bridges
                // the dead peer's stretch — report it so the layer above
                // revives its items from replicas (exactly like the
                // non-adjacent merge-grant case below).
                if granter_low != self.range.high() {
                    let gap = CircularRange::new(self.range.high(), granter_low);
                    if !gap.is_empty() {
                        self.emit(DsEvent::RangeBridged { gap });
                    }
                }
                self.range = CircularRange::new(self.range.low(), new_boundary);
                self.rebalancing = false;
                self.emit(DsEvent::RangeChanged {
                    range: self.range,
                    value: self.range.high(),
                    grew: true,
                });
                fx.send(granter, DsMsg::RedistributeAck { new_boundary });
                self.recheck_balance();
            }
            DeferredWrite::FinishRedistribute { new_boundary } => {
                if self.redistribute_give_boundary != Some(new_boundary) {
                    // Aborted by the give timeout (guard cleared), or a
                    // stale ack from an earlier give (guard holds a newer
                    // boundary): committing it would cut the range at the
                    // wrong place.
                    return;
                }
                self.redistribute_give_boundary = None;
                let moving = CircularRange::new(self.range.low(), new_boundary);
                let removed = self.store.take_range(&moving);
                for (mapped, item) in &removed {
                    self.emit(DsEvent::ItemRemoved {
                        item: item.id,
                        mapped: *mapped,
                    });
                }
                self.range = CircularRange::new(new_boundary, self.range.high());
                self.rebalancing = false;
                self.emit(DsEvent::RangeChanged {
                    range: self.range,
                    value: self.range.high(),
                    grew: false,
                });
                self.unblock_item_writes(ctx, fx);
                self.recheck_balance();
            }
            DeferredWrite::ApplyMergeGrant {
                range,
                items,
                granter,
            } => {
                for (mapped, item) in items {
                    self.emit(DsEvent::ItemStored { item: item.clone() });
                    self.store.insert(mapped, item);
                }
                match self.range.merge_with_successor(&range) {
                    Some(merged) => self.range = merged,
                    None => {
                        // The grant does not start where this range ends:
                        // the granter departed across peers that failed in
                        // between (their takeover had not happened yet).
                        // Absorbing bridges their unowned stretch — report
                        // it so the layer above revives its items from
                        // replicas, exactly like a failure takeover.
                        let gap = CircularRange::new(self.range.high(), range.low());
                        if !gap.is_empty() {
                            self.emit(DsEvent::RangeBridged { gap });
                        }
                        self.range = CircularRange::new(self.range.low(), range.high());
                    }
                }
                self.rebalancing = false;
                if self.absorbing_leave_from == Some(granter) {
                    self.absorbing_leave_from = None;
                }
                self.emit(DsEvent::RangeChanged {
                    range: self.range,
                    value: self.range.high(),
                    grew: true,
                });
                self.emit(DsEvent::AbsorbedSuccessor { granter });
                fx.send(granter, DsMsg::MergeGrantAck);
                // Absorbing a voluntary leaver can overflow a peer of any
                // size; re-check so the split fires without waiting for the
                // next item write.
                self.recheck_balance();
            }
            DeferredWrite::FinishMergeGive => {
                if self.status == DsStatus::Free {
                    return; // already completed (e.g. give timeout + late ack)
                }
                let removed = self.store.drain_all();
                for (mapped, item) in &removed {
                    self.emit(DsEvent::ItemRemoved {
                        item: item.id,
                        mapped: *mapped,
                    });
                }
                let anchor = self.range.high();
                self.range = CircularRange::empty(anchor);
                self.status = DsStatus::Free;
                self.rebalancing = false;
                self.merge_give_to = None;
                self.emit(DsEvent::BecameFree);
                self.unblock_item_writes(ctx, fx);
            }
        }
    }

    /// Re-dispatches item writes that were parked during a transfer.
    fn unblock_item_writes(&mut self, ctx: LayerCtx, fx: &mut dyn Emit<DsMsg>) {
        self.item_writes_blocked = false;
        let parked = std::mem::take(&mut self.blocked_item_writes);
        for (from, msg) in parked {
            self.dispatch(ctx, from, msg, fx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DsConfig;
    use crate::messages::QueryId;
    use pepper_net::{Effect, Effects, ProtocolLayer, SimTime};
    use pepper_types::{Item, SearchKey};

    fn ctx(id: u64) -> LayerCtx {
        LayerCtx::new(PeerId(id), SimTime::from_secs(1))
    }

    fn item(k: u64) -> Item {
        Item::for_key(SearchKey(k))
    }

    fn live_peer(id: u64, low: u64, high: u64, keys: &[u64]) -> DataStoreState {
        let mut ds = DataStoreState::new_first(PeerId(id), PeerValue(high), DsConfig::test());
        ds.range = CircularRange::new(low, high);
        for &k in keys {
            ds.store.insert(k, item(k));
        }
        ds
    }

    // -------------------------------------------------------------- split

    #[test]
    fn split_plan_and_handoff_roundtrip() {
        // sf = 2; 6 items overflow the peer.
        let mut q = live_peer(1, 0, 100, &[10, 20, 30, 40, 50, 60]);
        q.check_overflow();
        assert!(q.is_rebalancing());

        let (new_value, boundary) = q.begin_split().unwrap();
        assert_eq!(new_value, PeerValue(100));
        assert_eq!(boundary, PeerValue(30));

        // The ring join happens here (index layer); then the hand-off.
        let mut fx = Effects::new();
        let moved = q.send_handoff(ctx(1), PeerId(9), &mut fx).unwrap();
        assert_eq!(moved, CircularRange::new(30u64, 100u64));
        let handoff = fx.drain();
        let (range, items) = match &handoff[0] {
            Effect::Send {
                to,
                msg: DsMsg::HandoffInstall { range, items },
            } => {
                assert_eq!(*to, PeerId(9));
                (*range, items.clone())
            }
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(items.len(), 3); // 40, 50, 60 move
                                    // Items are still at the splitter until the ack (copy-then-delete).
        assert_eq!(q.item_count(), 6);

        // The new peer installs and acks.
        let mut n = DataStoreState::new_free(PeerId(9), DsConfig::test());
        n.became_ring_member(PeerValue(100));
        let mut nfx = Effects::new();
        n.on_handoff_install(ctx(9), PeerId(1), range, items, &mut nfx);
        assert_eq!(n.status(), DsStatus::Live);
        assert_eq!(n.item_count(), 3);
        assert_eq!(n.range(), CircularRange::new(30u64, 100u64));
        assert!(nfx.iter().any(|e| matches!(
            e,
            Effect::Send { to, msg: DsMsg::HandoffAck } if *to == PeerId(1)
        )));

        // The splitter completes on the ack.
        let mut qfx = Effects::new();
        q.on_handoff_ack(ctx(1), &mut qfx);
        assert_eq!(q.item_count(), 3);
        assert_eq!(q.range(), CircularRange::new(0u64, 30u64));
        assert!(!q.is_rebalancing());
        // Every item is at exactly one of the two peers.
        for k in [10u64, 20, 30, 40, 50, 60] {
            let at_q = q.local_items_mapped().iter().any(|(m, _)| *m == k);
            let at_n = n.local_items_mapped().iter().any(|(m, _)| *m == k);
            assert!(at_q ^ at_n, "item {k} must be at exactly one peer");
        }
    }

    #[test]
    fn split_of_full_range_peer() {
        let mut q = live_peer(1, 0, 0, &[]);
        q.range = CircularRange::full(100u64);
        for k in [10u64, 20, 30, 40, 50] {
            q.store.insert(k, item(k));
        }
        let (new_value, boundary) = q.begin_split().unwrap();
        assert_eq!(new_value, PeerValue(100));
        assert_eq!(boundary, PeerValue(20));
        let mut fx = Effects::new();
        let moved = q.send_handoff(ctx(1), PeerId(9), &mut fx).unwrap();
        assert_eq!(moved, CircularRange::new(20u64, 100u64));
        q.on_handoff_ack(ctx(1), &mut fx);
        assert_eq!(q.range(), CircularRange::new(100u64, 20u64));
        assert_eq!(q.item_count(), 2);
    }

    #[test]
    fn split_with_too_few_items_is_cancelled() {
        let mut q = live_peer(1, 0, 100, &[10]);
        q.rebalancing = true;
        assert!(q.begin_split().is_none());
        assert!(!q.is_rebalancing());
    }

    #[test]
    fn item_writes_are_parked_during_handoff() {
        let mut q = live_peer(1, 0, 100, &[10, 20, 30, 40, 50, 60]);
        q.check_overflow();
        q.begin_split().unwrap();
        let mut fx = Effects::new();
        q.send_handoff(ctx(1), PeerId(9), &mut fx).unwrap();

        // An insert arriving mid-hand-off is parked, not lost and not stored.
        let mut fx2 = Effects::new();
        q.handle(
            ctx(1),
            PeerId(5),
            DsMsg::InsertItem {
                item: item(45),
                reply_to: PeerId(5),
            },
            &mut fx2,
        );
        assert!(fx2.is_empty());
        assert_eq!(q.item_count(), 6);

        // After the ack the parked insert is re-dispatched; since 45 is now
        // outside the shrunk range it bounces back for re-routing.
        let mut fx3 = Effects::new();
        q.on_handoff_ack(ctx(1), &mut fx3);
        assert!(fx3.iter().any(|e| matches!(
            e,
            Effect::Send { to, msg: DsMsg::NotResponsible { mapped: 45 } } if *to == PeerId(5)
        )));
    }

    // ---------------------------------------------------- merge / redistribute

    #[test]
    fn redistribute_moves_boundary_and_items() {
        // Requester q owns (0, 30] with 1 item; granter s owns (30, 100] with
        // 6 items. total = 7 > 2*sf = 4, so s redistributes.
        let mut q = live_peer(1, 0, 30, &[10]);
        let mut s = live_peer(2, 30, 100, &[40, 50, 60, 70, 80, 90]);
        q.check_underflow();
        assert!(q.is_rebalancing());

        let mut fx = Effects::new();
        q.send_merge_request(PeerId(2), &mut fx);
        let req = fx.drain().remove(0);
        let (req_items, req_value) = match req {
            Effect::Send {
                msg:
                    DsMsg::MergeRequest {
                        requester_items,
                        requester_value,
                    },
                ..
            } => (requester_items, requester_value),
            other => panic!("unexpected {other:?}"),
        };

        let mut sfx = Effects::new();
        s.on_merge_request(ctx(2), PeerId(1), req_items, req_value, &mut sfx);
        let grant = sfx.drain().remove(0);
        let (items, new_boundary) = match grant {
            Effect::Send {
                to,
                msg:
                    DsMsg::RedistributeGrant {
                        items,
                        new_boundary,
                        granter_low,
                    },
            } => {
                assert_eq!(to, PeerId(1));
                assert_eq!(granter_low, PeerValue(30), "granter's low end rides along");
                (items, new_boundary)
            }
            other => panic!("unexpected {other:?}"),
        };
        // total = 7, target ~3 each: s gives 2 items (40, 50), boundary 50.
        assert_eq!(new_boundary, PeerValue(50));
        assert_eq!(items.len(), 2);
        // Copy-then-delete: s still holds them.
        assert_eq!(s.item_count(), 6);

        // Requester installs and acks.
        let mut qfx = Effects::new();
        q.on_redistribute_grant(
            ctx(1),
            PeerId(2),
            items,
            new_boundary,
            PeerValue(30),
            &mut qfx,
        );
        assert_eq!(q.item_count(), 3);
        assert_eq!(q.range(), CircularRange::new(0u64, 50u64));
        assert!(!q.is_rebalancing());
        assert!(qfx.iter().any(|e| matches!(
            e,
            Effect::Send { to, msg: DsMsg::RedistributeAck { .. } } if *to == PeerId(2)
        )));

        // Granter finishes.
        let mut sfx2 = Effects::new();
        s.on_redistribute_ack(ctx(2), new_boundary, &mut sfx2);
        assert_eq!(s.item_count(), 4);
        assert_eq!(s.range(), CircularRange::new(50u64, 100u64));
        assert!(!s.is_rebalancing());
    }

    #[test]
    fn small_successor_grants_full_merge() {
        // total = 1 + 2 = 3 <= 2*sf = 4: full merge.
        let mut q = live_peer(1, 0, 30, &[10]);
        let mut s = live_peer(2, 30, 100, &[40, 90]);
        let mut fx = Effects::new();

        s.on_merge_request(ctx(2), PeerId(1), 1, PeerValue(30), &mut fx);
        assert!(
            fx.is_empty(),
            "full merge defers the grant to the index layer"
        );
        assert!(matches!(
            s.drain_events()[0],
            DsEvent::MergeGiveStarted { to } if to == PeerId(1)
        ));
        assert!(s.is_rebalancing());

        // Index layer has run leave + extra-hop replication; now grant.
        let mut sfx = Effects::new();
        assert_eq!(s.send_merge_grant(&mut sfx), Some(PeerId(1)));
        let (range, items, gvalue) = match sfx.drain().remove(0) {
            Effect::Send {
                msg:
                    DsMsg::MergeGrant {
                        range,
                        items,
                        granter_value,
                    },
                ..
            } => (range, items, granter_value),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(gvalue, PeerValue(100));

        // Requester absorbs.
        let mut qfx = Effects::new();
        q.rebalancing = true;
        q.on_merge_grant(ctx(1), PeerId(2), range, items, gvalue, &mut qfx);
        assert_eq!(q.range(), CircularRange::new(0u64, 100u64));
        assert_eq!(q.item_count(), 3);
        assert!(q
            .drain_events()
            .iter()
            .any(|e| matches!(e, DsEvent::AbsorbedSuccessor { granter } if *granter == PeerId(2))));
        assert!(qfx.iter().any(|e| matches!(
            e,
            Effect::Send { to, msg: DsMsg::MergeGrantAck } if *to == PeerId(2)
        )));

        // Granter becomes free.
        let mut sfx2 = Effects::new();
        s.on_merge_grant_ack(ctx(2), &mut sfx2);
        assert_eq!(s.status(), DsStatus::Free);
        assert_eq!(s.item_count(), 0);
        assert!(s
            .drain_events()
            .iter()
            .any(|e| matches!(e, DsEvent::BecameFree)));
    }

    #[test]
    fn busy_successor_declines_and_requester_retries() {
        let mut s = live_peer(2, 30, 100, &[40, 50, 60, 70, 80]);
        s.rebalancing = true;
        let mut fx = Effects::new();
        s.on_merge_request(ctx(2), PeerId(1), 1, PeerValue(30), &mut fx);
        assert!(fx.iter().any(|e| matches!(
            e,
            Effect::Send {
                msg: DsMsg::MergeDeclined,
                ..
            }
        )));

        let mut q = live_peer(1, 0, 30, &[10]);
        q.rebalancing = true;
        q.merge_requested_from = Some(PeerId(2));
        let mut qfx = Effects::new();
        // A decline from an unrelated peer is ignored.
        q.on_merge_declined(ctx(1), PeerId(9), &mut qfx);
        assert!(q.is_rebalancing());
        assert!(qfx.is_empty());
        // The decline from the peer actually asked releases the rebalance.
        q.on_merge_declined(ctx(1), PeerId(2), &mut qfx);
        assert!(!q.is_rebalancing());
        assert!(qfx.iter().any(|e| matches!(
            e,
            Effect::Timer {
                msg: DsMsg::RebalanceRetry,
                ..
            }
        )));
    }

    #[test]
    fn rebalance_retry_rechecks_thresholds() {
        let mut q = live_peer(1, 0, 30, &[10]);
        q.on_rebalance_retry(ctx(1));
        assert!(q
            .drain_events()
            .iter()
            .any(|e| matches!(e, DsEvent::MergeNeeded { .. })));
    }

    #[test]
    fn deferred_merge_grant_waits_for_scan() {
        let mut q = live_peer(1, 0, 30, &[10]);
        q.rebalancing = true;
        q.acquire_scan_lock();
        let mut fx = Effects::new();
        q.on_merge_grant(
            ctx(1),
            PeerId(2),
            CircularRange::new(30u64, 100u64),
            vec![(40, item(40))],
            PeerValue(100),
            &mut fx,
        );
        // Nothing applied, no ack sent while the scan lock is held.
        assert_eq!(q.range(), CircularRange::new(0u64, 30u64));
        assert!(fx.is_empty());
        q.release_scan_lock(ctx(1), &mut fx);
        assert_eq!(q.range(), CircularRange::new(0u64, 100u64));
        assert!(fx.iter().any(|e| matches!(
            e,
            Effect::Send {
                msg: DsMsg::MergeGrantAck,
                ..
            }
        )));
    }

    #[test]
    fn cancel_rebalance_schedules_retry() {
        let mut q = live_peer(1, 0, 30, &[10]);
        q.rebalancing = true;
        let mut fx = Effects::new();
        q.cancel_rebalance(&mut fx);
        assert!(!q.is_rebalancing());
        assert!(fx.iter().any(|e| matches!(
            e,
            Effect::Timer {
                msg: DsMsg::RebalanceRetry,
                ..
            }
        )));
    }

    #[test]
    fn merge_request_to_full_range_peer_is_declined() {
        let mut s = DataStoreState::new_first(PeerId(2), PeerValue(100), DsConfig::test());
        s.store.insert(40, item(40));
        let mut fx = Effects::new();
        s.on_merge_request(ctx(2), PeerId(1), 0, PeerValue(30), &mut fx);
        assert!(fx.iter().any(|e| matches!(
            e,
            Effect::Send {
                msg: DsMsg::MergeDeclined,
                ..
            }
        )));
    }

    #[test]
    fn dead_handoff_receiver_releases_the_split() {
        let mut q = live_peer(1, 0, 100, &[10, 20, 30, 40, 50, 60]);
        q.check_overflow();
        q.begin_split().unwrap();
        let mut fx = Effects::new();
        q.send_handoff(ctx(1), PeerId(9), &mut fx).unwrap();
        // An insert arriving mid-hand-off is parked.
        q.handle(
            ctx(1),
            PeerId(5),
            DsMsg::InsertItem {
                item: item(45),
                reply_to: PeerId(5),
            },
            &mut fx,
        );
        assert!(q.is_item_writes_blocked());

        // The receiver fail-stops: the split is released, items are intact,
        // the parked write resumes — and immediately re-declares the
        // overflow, so a fresh split (with a different free peer) starts.
        let mut fx2 = Effects::new();
        q.drain_events();
        q.on_peer_failed(ctx(1), PeerId(9), &mut fx2);
        assert!(!q.is_item_writes_blocked());
        assert_eq!(q.item_count(), 7, "all items (and the parked one) remain");
        assert!(q
            .drain_events()
            .iter()
            .any(|e| matches!(e, DsEvent::SplitNeeded { .. })));
        assert!(fx2.iter().any(|e| matches!(
            e,
            Effect::Timer {
                msg: DsMsg::RebalanceRetry,
                ..
            }
        )));
    }

    #[test]
    fn dead_merge_target_unsticks_the_requester() {
        let mut q = live_peer(1, 0, 30, &[10]);
        q.check_underflow();
        let mut fx = Effects::new();
        q.send_merge_request(PeerId(2), &mut fx);
        assert!(q.is_rebalancing());
        // An unrelated peer's failure changes nothing.
        q.on_peer_failed(ctx(1), PeerId(7), &mut fx);
        assert!(q.is_rebalancing());
        // The asked successor's failure releases the rebalance.
        let mut fx2 = Effects::new();
        q.on_peer_failed(ctx(1), PeerId(2), &mut fx2);
        assert!(!q.is_rebalancing());
        assert!(fx2.iter().any(|e| matches!(
            e,
            Effect::Timer {
                msg: DsMsg::RebalanceRetry,
                ..
            }
        )));
    }

    #[test]
    fn give_timeout_aborts_redistribute_and_completes_merge_give() {
        // Redistribute granter: requester dies before the ack.
        let mut s = live_peer(2, 30, 100, &[40, 50, 60, 70, 80, 90]);
        let mut fx = Effects::new();
        s.on_merge_request(ctx(2), PeerId(1), 1, PeerValue(30), &mut fx);
        assert!(s.is_rebalancing() && s.is_item_writes_blocked());
        // A stale guard for a different boundary is ignored.
        s.on_give_timeout(ctx(2), PeerId(1), Some(PeerValue(99)), 1, &mut fx);
        assert!(s.is_rebalancing());
        // First matching firing only *asks* the requester to drop the grant
        // (it may be alive with the grant parked behind scan locks).
        let mut fx_ask = Effects::new();
        s.on_give_timeout(ctx(2), PeerId(1), Some(PeerValue(50)), 1, &mut fx_ask);
        assert!(s.is_rebalancing());
        assert!(fx_ask.iter().any(|e| matches!(
            e,
            Effect::Send { to, msg: DsMsg::RedistributeAbort { .. } } if *to == PeerId(1)
        )));
        // The second firing (still unanswered) aborts unilaterally: items
        // intact, writes unblocked.
        s.on_give_timeout(ctx(2), PeerId(1), Some(PeerValue(50)), 2, &mut fx);
        assert!(!s.is_rebalancing() && !s.is_item_writes_blocked());
        assert_eq!(s.item_count(), 6);
        // The requester's late ack must not shrink the range a second time.
        s.on_redistribute_ack(ctx(2), PeerValue(50), &mut fx);
        assert_eq!(s.item_count(), 6);
        assert_eq!(s.range(), CircularRange::new(30u64, 100u64));

        // Merge-give granter: requester dies before MergeGrantAck. The
        // granter has already ring-departed, so it completes unilaterally
        // (items survive as replicas pushed by the pre-leave protection).
        let mut g = live_peer(3, 30, 100, &[40, 90]);
        let mut gfx = Effects::new();
        g.on_merge_request(ctx(3), PeerId(1), 1, PeerValue(30), &mut gfx);
        g.drain_events();
        g.send_merge_grant(&mut gfx);
        // Guard for a different requester is ignored.
        g.on_give_timeout(ctx(3), PeerId(9), None, 1, &mut gfx);
        assert_eq!(g.status(), DsStatus::Live);
        g.on_give_timeout(ctx(3), PeerId(1), None, 1, &mut gfx);
        assert_eq!(g.status(), DsStatus::Free);
        assert!(g
            .drain_events()
            .iter()
            .any(|e| matches!(e, DsEvent::BecameFree)));
        // A late ack after the forced completion is a no-op.
        g.on_merge_grant_ack(ctx(3), &mut gfx);
        assert_eq!(g.status(), DsStatus::Free);
    }

    #[test]
    fn redistribute_across_a_dead_peers_range_reports_the_bridged_gap() {
        // Ring was q(0,30] → dead(30,60] → s(60,100]. The dead peer's
        // takeover has not run when q underflows and s grants a
        // redistribution: the grant's boundary move silently covers the
        // dead stretch (30, 60]. The requester must report it as bridged
        // so the index layer revives its items from replicas — without
        // this, every item of the dead peer is lost even though replicas
        // exist (found by the harness at scale, seed 1000 / large
        // horizon).
        let mut q = live_peer(1, 0, 30, &[10]);
        q.rebalancing = true;
        let mut qfx = Effects::new();
        q.on_redistribute_grant(
            ctx(1),
            PeerId(2),
            vec![(70, item(70))],
            PeerValue(80),
            PeerValue(60), // granter's low ≠ q's high 30: (30, 60] is bridged
            &mut qfx,
        );
        assert_eq!(q.range(), CircularRange::new(0u64, 80u64));
        let events = q.drain_events();
        let bridged = events
            .iter()
            .find_map(|e| match e {
                DsEvent::RangeBridged { gap } => Some(*gap),
                _ => None,
            })
            .expect("bridged gap must be reported");
        assert_eq!(bridged, CircularRange::new(30u64, 60u64));
        // An adjacent grant reports nothing.
        let mut q2 = live_peer(1, 0, 30, &[10]);
        q2.rebalancing = true;
        let mut q2fx = Effects::new();
        q2.on_redistribute_grant(
            ctx(1),
            PeerId(2),
            vec![(40, item(40))],
            PeerValue(50),
            PeerValue(30),
            &mut q2fx,
        );
        assert!(!q2
            .drain_events()
            .iter()
            .any(|e| matches!(e, DsEvent::RangeBridged { .. })));
    }

    #[test]
    fn slow_requester_drops_parked_grant_on_abort_and_granter_keeps_range() {
        // Requester q holds the grant parked behind a scan lock when the
        // granter's guard expires and the abort arrives.
        let mut q = live_peer(1, 0, 30, &[10]);
        q.rebalancing = true;
        q.acquire_scan_lock();
        let mut qfx = Effects::new();
        q.on_redistribute_grant(
            ctx(1),
            PeerId(2),
            vec![(40, item(40))],
            PeerValue(50),
            PeerValue(30),
            &mut qfx,
        );
        assert_eq!(q.range(), CircularRange::new(0u64, 30u64), "still parked");

        // Abort for a different boundary is ignored (nothing dropped).
        let mut qfx2 = Effects::new();
        q.on_redistribute_abort(ctx(1), PeerId(2), PeerValue(99), &mut qfx2);
        assert!(qfx2.is_empty());
        // The matching abort drops the parked grant and confirms.
        q.on_redistribute_abort(ctx(1), PeerId(2), PeerValue(50), &mut qfx2);
        assert!(qfx2.iter().any(|e| matches!(
            e,
            Effect::Send { to, msg: DsMsg::RedistributeAbortAck { .. } } if *to == PeerId(2)
        )));
        assert!(!q.is_rebalancing());
        // Releasing the scan lock now applies nothing.
        q.release_scan_lock(ctx(1), &mut qfx2);
        assert_eq!(q.range(), CircularRange::new(0u64, 30u64));
        assert_eq!(q.item_count(), 1);

        // Granter side: the abort ack unlocks with range and items intact.
        let mut s = live_peer(2, 30, 100, &[40, 50, 60, 70, 80, 90]);
        let mut sfx = Effects::new();
        s.on_merge_request(ctx(2), PeerId(1), 1, PeerValue(30), &mut sfx);
        assert!(s.is_item_writes_blocked());
        s.on_redistribute_abort_ack(ctx(2), PeerValue(50), &mut sfx);
        assert!(!s.is_rebalancing() && !s.is_item_writes_blocked());
        assert_eq!(s.item_count(), 6);
        assert_eq!(s.range(), CircularRange::new(30u64, 100u64));
        // A duplicate/stale abort ack is a no-op.
        s.on_redistribute_abort_ack(ctx(2), PeerValue(50), &mut sfx);
        assert!(!s.is_rebalancing());
    }

    #[test]
    fn leave_offer_timeout_allows_a_later_leave() {
        let mut s = live_peer(2, 30, 100, &[40, 90]);
        let mut fx = Effects::new();
        assert!(s.begin_voluntary_leave(PeerId(1), &mut fx));
        // The predecessor died and never answers; the guard clears the offer.
        s.on_leave_offer_timeout(ctx(2), PeerId(1));
        assert!(s.begin_voluntary_leave(PeerId(1), &mut fx));
        // An offer guard was armed both times.
        assert_eq!(
            fx.iter()
                .filter(|e| matches!(
                    e,
                    Effect::Timer {
                        msg: DsMsg::LeaveOfferTimeout { .. },
                        ..
                    }
                ))
                .count(),
            2
        );
    }

    // ---------------------------------------------------- voluntary leave

    #[test]
    fn voluntary_leave_handshake_locks_predecessor_and_merges() {
        // Leaver s owns (30, 100]; predecessor q owns (0, 30].
        let mut q = live_peer(1, 0, 30, &[10, 20]);
        q.set_successor(PeerId(2), PeerValue(100));
        let mut s = live_peer(2, 30, 100, &[40, 90]);

        let mut sfx = Effects::new();
        assert!(s.begin_voluntary_leave(PeerId(1), &mut sfx));
        // Double offers are rejected while one is in flight.
        assert!(!s.begin_voluntary_leave(PeerId(1), &mut sfx));
        let offer = match sfx.drain().remove(0) {
            Effect::Send { to, msg } => {
                assert_eq!(to, PeerId(1));
                msg
            }
            other => panic!("unexpected {other:?}"),
        };

        // The predecessor locks itself and acknowledges (with a guard timer).
        let mut qfx = Effects::new();
        q.handle(ctx(1), PeerId(2), offer, &mut qfx);
        assert!(q.is_rebalancing());
        let q_effects = qfx.drain();
        assert!(q_effects.iter().any(|e| matches!(
            e,
            Effect::Send { to, msg: DsMsg::LeaveOfferAck } if *to == PeerId(2)
        )));
        assert!(q_effects.iter().any(|e| matches!(
            e,
            Effect::Timer {
                msg: DsMsg::LeaveAbsorbTimeout { .. },
                ..
            }
        )));
        // While locked, the predecessor declines competing offers/merges.
        let mut qfx2 = Effects::new();
        q.on_merge_request(ctx(1), PeerId(9), 0, PeerValue(5), &mut qfx2);
        assert!(qfx2.iter().any(|e| matches!(
            e,
            Effect::Send {
                msg: DsMsg::MergeDeclined,
                ..
            }
        )));

        // The ack starts the usual merge-give at the leaver.
        let mut sfx2 = Effects::new();
        s.handle(ctx(2), PeerId(1), DsMsg::LeaveOfferAck, &mut sfx2);
        assert!(matches!(
            s.drain_events()[0],
            DsEvent::MergeGiveStarted { to } if to == PeerId(1)
        ));
        // Grant, absorb, ack: the predecessor unlocks on absorption.
        let mut sfx3 = Effects::new();
        assert_eq!(s.send_merge_grant(&mut sfx3), Some(PeerId(1)));
        let (range, items, gvalue) = match sfx3.drain().remove(0) {
            Effect::Send {
                msg:
                    DsMsg::MergeGrant {
                        range,
                        items,
                        granter_value,
                    },
                ..
            } => (range, items, granter_value),
            other => panic!("unexpected {other:?}"),
        };
        let mut qfx3 = Effects::new();
        q.on_merge_grant(ctx(1), PeerId(2), range, items, gvalue, &mut qfx3);
        assert_eq!(q.range(), CircularRange::new(0u64, 100u64));
        assert_eq!(q.item_count(), 4);
        assert!(!q.is_rebalancing());
        // A late guard timeout after the grant applied is a no-op.
        let mut qfx4 = Effects::new();
        q.handle(
            ctx(1),
            PeerId(1),
            DsMsg::LeaveAbsorbTimeout { from: PeerId(2) },
            &mut qfx4,
        );
        assert!(!q.is_rebalancing());
    }

    #[test]
    fn leave_offer_from_non_successor_is_declined() {
        let mut q = live_peer(1, 0, 30, &[10, 20]);
        q.set_successor(PeerId(2), PeerValue(100));
        // Offer from peer 7, which is not q's cached direct successor.
        let mut fx = Effects::new();
        q.on_leave_offer(ctx(1), PeerId(7), PeerValue(60), &mut fx);
        assert!(!q.is_rebalancing());
        assert!(fx.iter().any(|e| matches!(
            e,
            Effect::Send { to, msg: DsMsg::LeaveOfferDeclined } if *to == PeerId(7)
        )));
        // A stale cached *value* does not decline: only the peer identity
        // matters (values go stale when the successor splits).
        let mut fx2 = Effects::new();
        q.on_leave_offer(ctx(1), PeerId(2), PeerValue(60), &mut fx2);
        assert!(fx2.iter().any(|e| matches!(
            e,
            Effect::Send {
                msg: DsMsg::LeaveOfferAck,
                ..
            }
        )));
        // The declined leaver clears its pending offer.
        let mut s = live_peer(2, 30, 100, &[40]);
        let mut sfx = Effects::new();
        assert!(s.begin_voluntary_leave(PeerId(1), &mut sfx));
        s.handle(ctx(2), PeerId(1), DsMsg::LeaveOfferDeclined, &mut sfx);
        assert!(s.begin_voluntary_leave(PeerId(1), &mut sfx));
    }

    #[test]
    fn leave_ack_after_concurrent_rebalance_releases_predecessor() {
        let mut s = live_peer(2, 30, 100, &[40, 90]);
        let mut fx = Effects::new();
        assert!(s.begin_voluntary_leave(PeerId(1), &mut fx));
        // A split/merge started at the leaver while the offer was in flight.
        s.rebalancing = true;
        let mut fx2 = Effects::new();
        s.handle(ctx(2), PeerId(1), DsMsg::LeaveOfferAck, &mut fx2);
        assert!(s.drain_events().is_empty());
        assert!(fx2.iter().any(|e| matches!(
            e,
            Effect::Send { to, msg: DsMsg::MergeDeclined } if *to == PeerId(1)
        )));
    }

    #[test]
    fn absorb_timeout_unlocks_predecessor_when_leaver_dies() {
        let mut q = live_peer(1, 0, 30, &[10, 20]);
        q.set_successor(PeerId(2), PeerValue(100));
        let mut fx = Effects::new();
        q.on_leave_offer(ctx(1), PeerId(2), PeerValue(100), &mut fx);
        assert!(q.is_rebalancing());
        // The leaver failed: no grant ever arrives. A guard for a different
        // leaver is ignored; the matching one unlocks.
        let mut fx2 = Effects::new();
        q.handle(
            ctx(1),
            PeerId(1),
            DsMsg::LeaveAbsorbTimeout { from: PeerId(9) },
            &mut fx2,
        );
        assert!(q.is_rebalancing());
        q.handle(
            ctx(1),
            PeerId(1),
            DsMsg::LeaveAbsorbTimeout { from: PeerId(2) },
            &mut fx2,
        );
        assert!(!q.is_rebalancing());
    }

    #[test]
    fn free_or_busy_peer_cannot_offer_leave() {
        let mut free = DataStoreState::new_free(PeerId(3), DsConfig::test());
        let mut fx = Effects::new();
        assert!(!free.begin_voluntary_leave(PeerId(1), &mut fx));
        // The sole owner of the full circle has nobody to leave to.
        let mut sole = DataStoreState::new_first(PeerId(0), PeerValue(50), DsConfig::test());
        assert!(!sole.begin_voluntary_leave(PeerId(1), &mut fx));
        // A rebalancing peer must finish first.
        let mut busy = live_peer(2, 30, 100, &[40]);
        busy.rebalancing = true;
        assert!(!busy.begin_voluntary_leave(PeerId(1), &mut fx));
        assert!(fx.is_empty());
    }

    #[test]
    fn query_id_is_unused_in_balance_paths() {
        // Guard that balance handlers never touch query state.
        let q = live_peer(1, 0, 30, &[10]);
        assert_eq!(q.open_queries(), 0);
        let _ = QueryId {
            origin: PeerId(1),
            seq: 0,
        };
    }
}
