//! Network delivery statistics.

use std::sync::atomic::{AtomicU64, Ordering};

/// Live counters for the whole network. Consumers take
/// [`NetStats::snapshot`]s and difference them per measurement interval.
///
/// Byte counters are driven by the sender's own size accounting
/// ([`crate::Endpoint::send_sized`] / [`crate::Endpoint::broadcast`]): the
/// simulator does not serialise payloads, so callers state the wire size of
/// each message. A broadcast that shares one payload allocation still
/// charges the full size once **per member**, because that is what would
/// cross a real network.
///
/// A message that is delivered touches only the two `sent` counters, both
/// bumped by its sender before any other check. Nothing counts a delivery:
/// every message is either dropped, at the one place that drops it, or
/// delivered — once, or twice if chaos duplicated it. So the snapshot
/// derives `delivered` as sent + duplicates − drops, and `bytes_delivered`
/// the same way from the bytes the rare drop and duplicate paths count.
/// A snapshot taken while a send is between its `sent` count and its drop
/// counts that message as delivered; once no send is in flight the derived
/// counters are exact, and every counter read directly only grows.
#[derive(Default)]
pub struct NetStats {
    sent: AtomicU64,
    dropped_failed: AtomicU64,
    dropped_closed: AtomicU64,
    dropped_link: AtomicU64,
    dropped_chaos: AtomicU64,
    chaos_duplicated: AtomicU64,
    chaos_delayed: AtomicU64,
    bytes_sent: AtomicU64,
    /// Bytes of every dropped message (any cause).
    bytes_dropped: AtomicU64,
    /// Bytes of every extra copy chaos duplication enqueued.
    bytes_duplicated: AtomicU64,
}

/// A point-in-time copy of the network counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetStatsSnapshot {
    /// Messages handed to the network by senders.
    pub sent: u64,
    /// Messages enqueued on a live destination inbox: sent + chaos
    /// duplicates − drops (see [`NetStats`]).
    pub delivered: u64,
    /// Messages dropped because the destination was failed.
    pub dropped_failed: u64,
    /// Messages dropped because the destination inbox was closed.
    pub dropped_closed: u64,
    /// Messages dropped because the directed link to the destination was
    /// failed (partitions count here, not under `dropped_failed`).
    pub dropped_link: u64,
    /// Messages dropped by a chaos rule's drop draw.
    pub dropped_chaos: u64,
    /// Extra copies enqueued by chaos duplication (each counts one extra
    /// delivery).
    pub chaos_duplicated: u64,
    /// Messages delayed-reordered by a chaos rule.
    pub chaos_delayed: u64,
    /// Payload bytes handed to the network (per destination, as declared by
    /// the sender).
    pub bytes_sent: u64,
    /// Payload bytes enqueued on live destination inboxes, derived like
    /// `delivered`.
    pub bytes_delivered: u64,
}

impl NetStats {
    pub(crate) fn record_sent(&self, bytes: u64) {
        self.sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(bytes, Ordering::Relaxed);
    }
    /// Count one drop of `bytes` on `counter`. Release, so a snapshot
    /// that reads the drop also reads the send (or duplicate) it undoes.
    fn record_drop(&self, counter: &AtomicU64, bytes: u64) {
        self.bytes_dropped.fetch_add(bytes, Ordering::Release);
        counter.fetch_add(1, Ordering::Release);
    }
    pub(crate) fn record_dropped_failed(&self, bytes: u64) {
        self.record_drop(&self.dropped_failed, bytes);
    }
    pub(crate) fn record_dropped_closed(&self, bytes: u64) {
        self.record_drop(&self.dropped_closed, bytes);
    }
    pub(crate) fn record_dropped_link(&self, bytes: u64) {
        self.record_drop(&self.dropped_link, bytes);
    }
    pub(crate) fn record_dropped_chaos(&self, bytes: u64) {
        self.record_drop(&self.dropped_chaos, bytes);
    }
    pub(crate) fn record_chaos_duplicated(&self, bytes: u64) {
        self.bytes_duplicated.fetch_add(bytes, Ordering::Release);
        self.chaos_duplicated.fetch_add(1, Ordering::Release);
    }
    pub(crate) fn record_chaos_delayed(&self) {
        self.chaos_delayed.fetch_add(1, Ordering::Relaxed);
    }

    /// Copy the counters at this instant. Drops are read before
    /// duplicates and duplicates before sends, each with acquire: every
    /// drop read comes with the send or duplicate it undoes, so the
    /// derived counters never underflow.
    pub fn snapshot(&self) -> NetStatsSnapshot {
        let acquire = |c: &AtomicU64| c.load(Ordering::Acquire);
        let dropped_failed = acquire(&self.dropped_failed);
        let dropped_closed = acquire(&self.dropped_closed);
        let dropped_link = acquire(&self.dropped_link);
        let dropped_chaos = acquire(&self.dropped_chaos);
        let bytes_dropped = acquire(&self.bytes_dropped);
        let chaos_duplicated = acquire(&self.chaos_duplicated);
        let bytes_duplicated = acquire(&self.bytes_duplicated);
        let sent = acquire(&self.sent);
        let bytes_sent = acquire(&self.bytes_sent);
        let dropped = dropped_failed + dropped_closed + dropped_link + dropped_chaos;
        NetStatsSnapshot {
            sent,
            delivered: sent + chaos_duplicated - dropped,
            dropped_failed,
            dropped_closed,
            dropped_link,
            dropped_chaos,
            chaos_duplicated,
            chaos_delayed: self.chaos_delayed.load(Ordering::Relaxed),
            bytes_sent,
            bytes_delivered: bytes_sent + bytes_duplicated - bytes_dropped,
        }
    }
}

/// One counter of a [`NetStatsSnapshot`]: its field name and its reader.
pub type NamedCounter = (&'static str, fn(&NetStatsSnapshot) -> u64);

impl NetStatsSnapshot {
    /// Every counter by field name, in declaration order: what an exporter
    /// walks instead of naming the fields a second time.
    pub const COUNTERS: &'static [NamedCounter] = {
        macro_rules! by_name {
            ($($f:ident),*) => { &[$((stringify!($f), |s| s.$f)),*] };
        }
        by_name![
            sent,
            delivered,
            dropped_failed,
            dropped_closed,
            dropped_link,
            dropped_chaos,
            chaos_duplicated,
            chaos_delayed,
            bytes_sent,
            bytes_delivered
        ]
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = NetStats::default();
        s.record_sent(10);
        s.record_sent(20);
        s.record_dropped_failed(20);
        let snap = s.snapshot();
        assert_eq!(snap.sent, 2);
        assert_eq!(snap.delivered, 1);
        assert_eq!(snap.dropped_failed, 1);
        assert_eq!(snap.dropped_closed, 0);
        assert_eq!(snap.bytes_sent, 30);
        assert_eq!(snap.bytes_delivered, 10);
    }

    #[test]
    fn counters_table_reads_every_field() {
        let s = NetStats::default();
        s.record_sent(10);
        s.record_dropped_chaos(10);
        let snap = s.snapshot();
        let by_name = |name| {
            let (_, get) = NetStatsSnapshot::COUNTERS
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap();
            get(&snap)
        };
        assert_eq!(by_name("sent"), 1);
        assert_eq!(by_name("bytes_sent"), 10);
        assert_eq!(by_name("dropped_chaos"), 1);
        assert_eq!(by_name("delivered"), 0);
        assert_eq!(
            std::mem::size_of::<NetStatsSnapshot>(),
            8 * NetStatsSnapshot::COUNTERS.len(),
            "a counter without its table entry"
        );
    }
}
