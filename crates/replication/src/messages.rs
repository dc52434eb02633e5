//! Replication protocol messages.

use std::collections::BTreeMap;
use std::sync::Arc;

use pepper_types::{CircularRange, Item};

/// Messages exchanged by the Replication Manager.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplMsg {
    /// Periodic replica-refresh tick.
    RefreshTick,
    /// A replica push: the sender's `items`, followed by the `replicas` it
    /// forwards, are to be stored in the receiver's replica store.
    ///
    /// `extra_hop` marks pushes performed by a peer that is about to leave
    /// on a merge (the paper's replicate-to-additional-hop).
    Push {
        /// The sender's own items (mapped value → item): one immutable
        /// snapshot of its store, shared by every target of a refresh round.
        items: Arc<BTreeMap<u64, Item>>,
        /// Replicas the sender holds for its predecessors (mapped value,
        /// item), forwarded one hop further by an extra-hop push. Empty in
        /// refresh pushes.
        replicas: Vec<(u64, Item)>,
        /// Whether this push is the pre-leave additional-hop replication.
        extra_hop: bool,
    },
    /// A peer that has just taken over a failed predecessor's range asks for
    /// replicas falling inside it. Its own replica store can be empty — for
    /// example when it joined moments before the failure — while farther
    /// successors of the failed peer still hold copies.
    RecoverRequest {
        /// The acquired range to recover.
        range: CircularRange,
    },
    /// Reply to [`ReplMsg::RecoverRequest`]: copies of the replicas the
    /// responder holds inside the requested range.
    RecoverReply {
        /// The recovered items (mapped value, item).
        items: Vec<(u64, Item)>,
    },
}

impl ReplMsg {
    /// Short tag used for tracing.
    pub fn tag(&self) -> &'static str {
        match self {
            ReplMsg::RefreshTick => "RefreshTick",
            ReplMsg::Push { .. } => "Push",
            ReplMsg::RecoverRequest { .. } => "RecoverRequest",
            ReplMsg::RecoverReply { .. } => "RecoverReply",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags() {
        assert_eq!(ReplMsg::RefreshTick.tag(), "RefreshTick");
        assert_eq!(
            ReplMsg::Push {
                items: Arc::default(),
                replicas: vec![],
                extra_hop: false
            }
            .tag(),
            "Push"
        );
    }
}
