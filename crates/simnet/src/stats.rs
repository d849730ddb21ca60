//! Network delivery statistics.

use std::sync::atomic::{AtomicU64, Ordering};

/// Live counters for the whole network. All counters are monotonically
/// increasing; consumers take [`NetStats::snapshot`]s and difference them
/// per measurement interval.
///
/// Byte counters are driven by the sender's own size accounting
/// ([`crate::Endpoint::send_sized`] / [`crate::Endpoint::broadcast`]): the
/// simulator does not serialise payloads, so callers state the wire size of
/// each message. A broadcast that shares one payload allocation still
/// charges the full size once **per member**, because that is what would
/// cross a real network.
#[derive(Default)]
pub struct NetStats {
    sent: AtomicU64,
    delivered: AtomicU64,
    dropped_failed: AtomicU64,
    dropped_closed: AtomicU64,
    dropped_link: AtomicU64,
    dropped_chaos: AtomicU64,
    chaos_duplicated: AtomicU64,
    chaos_delayed: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_delivered: AtomicU64,
}

/// A point-in-time copy of the network counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetStatsSnapshot {
    /// Messages handed to the network by senders.
    pub sent: u64,
    /// Messages enqueued on a live destination inbox.
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
    /// Payload bytes enqueued on live destination inboxes.
    pub bytes_delivered: u64,
}

impl NetStats {
    pub(crate) fn record_sent(&self, bytes: u64) {
        self.sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(bytes, Ordering::Relaxed);
    }
    pub(crate) fn record_delivered(&self, bytes: u64) {
        self.delivered.fetch_add(1, Ordering::Relaxed);
        self.bytes_delivered.fetch_add(bytes, Ordering::Relaxed);
    }
    pub(crate) fn record_dropped_failed(&self) {
        self.dropped_failed.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn record_dropped_closed(&self) {
        self.dropped_closed.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn record_dropped_link(&self) {
        self.dropped_link.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn record_dropped_chaos(&self) {
        self.dropped_chaos.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn record_chaos_duplicated(&self) {
        self.chaos_duplicated.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn record_chaos_delayed(&self) {
        self.chaos_delayed.fetch_add(1, Ordering::Relaxed);
    }

    /// Copy the counters at this instant.
    pub fn snapshot(&self) -> NetStatsSnapshot {
        NetStatsSnapshot {
            sent: self.sent.load(Ordering::Relaxed),
            delivered: self.delivered.load(Ordering::Relaxed),
            dropped_failed: self.dropped_failed.load(Ordering::Relaxed),
            dropped_closed: self.dropped_closed.load(Ordering::Relaxed),
            dropped_link: self.dropped_link.load(Ordering::Relaxed),
            dropped_chaos: self.dropped_chaos.load(Ordering::Relaxed),
            chaos_duplicated: self.chaos_duplicated.load(Ordering::Relaxed),
            chaos_delayed: self.chaos_delayed.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            bytes_delivered: self.bytes_delivered.load(Ordering::Relaxed),
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
        s.record_delivered(10);
        s.record_dropped_failed();
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
        s.record_dropped_chaos();
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
