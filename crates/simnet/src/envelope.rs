//! In-flight message representation.

use crate::node::NodeId;
use std::cmp::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// An in-flight payload: either owned by its single envelope, or shared
/// across the envelopes of one broadcast.
///
/// A quorum round sends the *same* request to every member. Cloning a
/// message with a large validation vector once per member is pure overhead
/// in an in-process simulator, so [`crate::Endpoint::broadcast`] shares
/// one allocation and every member's envelope holds an `Arc` to it; a
/// receiver that reads it in place ([`Payload::message`]) copies nothing. Byte
/// accounting still charges each member individually (see
/// [`crate::NetStatsSnapshot`]): sharing is a simulator optimisation, not a
/// change to the modelled wire cost.
#[derive(Debug)]
pub enum Payload<M> {
    /// A point-to-point payload, owned by this envelope alone.
    Owned(M),
    /// One broadcast's payload, shared by all member envelopes.
    Shared(Arc<M>),
}

impl<M: Clone> Payload<M> {
    /// Extract the message: an owned payload moves out, a shared one is
    /// taken by its last holder and cloned by any other. A receiver that
    /// only reads the message uses [`Payload::message`] instead and never
    /// copies a shared one.
    pub fn into_inner(self) -> M {
        match self {
            Payload::Owned(m) => m,
            Payload::Shared(a) => Arc::try_unwrap(a).unwrap_or_else(|a| (*a).clone()),
        }
    }
}

impl<M> Payload<M> {
    /// Borrow the message (e.g. to classify it for fault injection).
    pub fn message(&self) -> &M {
        match self {
            Payload::Owned(m) => m,
            Payload::Shared(a) => a,
        }
    }
}

impl<M: Clone> Clone for Payload<M> {
    /// Cloning a payload is how chaos injection duplicates a message: the
    /// copy of a shared broadcast payload stays shared (another `Arc`
    /// handle), an owned payload is cloned outright.
    fn clone(&self) -> Self {
        match self {
            Payload::Owned(m) => Payload::Owned(m.clone()),
            Payload::Shared(a) => Payload::Shared(Arc::clone(a)),
        }
    }
}

/// A message in flight: payload plus routing and timing metadata.
///
/// Envelopes are ordered by delivery time (earliest first) with the send
/// sequence number as a tie-breaker so that two messages with identical
/// delivery instants are received in send order — this keeps zero-latency
/// test runs perfectly FIFO.
#[derive(Debug)]
pub struct Envelope<M> {
    /// Sender node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Instant the sender handed the message to the network (span tracing
    /// splits a round into wire time vs. inbox dwell with this).
    pub sent_at: Instant,
    /// Earliest instant at which the destination may observe the message.
    pub deliver_at: Instant,
    /// Global send sequence number (tie-breaker for equal `deliver_at`).
    pub seq: u64,
    /// The payload.
    pub payload: Payload<M>,
}

impl<M> PartialEq for Envelope<M> {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at == other.deliver_at && self.seq == other.seq
    }
}

impl<M> Eq for Envelope<M> {}

impl<M> PartialOrd for Envelope<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for Envelope<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Earliest delivery first; BinaryHeap is a max-heap so the inbox
        // wraps envelopes in `Reverse`.
        self.deliver_at
            .cmp(&other.deliver_at)
            .then(self.seq.cmp(&other.seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn env(at: Instant, seq: u64) -> Envelope<u32> {
        Envelope {
            src: NodeId(0),
            dst: NodeId(1),
            sent_at: at,
            deliver_at: at,
            seq,
            payload: Payload::Owned(0),
        }
    }

    #[test]
    fn orders_by_delivery_time() {
        let now = Instant::now();
        let early = env(now, 5);
        let late = env(now + Duration::from_micros(10), 1);
        assert!(early < late, "earlier delivery must sort first");
    }

    #[test]
    fn ties_break_by_sequence() {
        let now = Instant::now();
        let first = env(now, 1);
        let second = env(now, 2);
        assert!(first < second);
        assert_eq!(first, env(now, 1));
    }

    #[test]
    fn shared_payload_unwraps_without_copy_for_last_holder() {
        let a = Arc::new(vec![1u8, 2, 3]);
        let p1: Payload<Vec<u8>> = Payload::Shared(Arc::clone(&a));
        let p2: Payload<Vec<u8>> = Payload::Shared(a);
        assert_eq!(p1.into_inner(), vec![1, 2, 3]); // clones (refcount 2)
        assert_eq!(p2.into_inner(), vec![1, 2, 3]); // takes (refcount 1)
    }
}
