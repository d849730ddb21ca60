//! Per-thread bounded trace ring.
//!
//! Each client thread owns one [`TraceRing`]; no synchronisation is needed
//! on the record path (the "lock-free" in lock-free-ish is by
//! construction: single writer, no sharing). Memory is bounded by the
//! fixed capacity; once full, the oldest event is overwritten and counted
//! in [`TraceRing::dropped`], so a long run keeps the *tail* of the trace
//! — the part that explains the state the run ended in.

use crate::event::TxnEvent;
use crate::prom::{PromFamily, PromType};
use crate::ring::Ring;
use crate::section::section;

/// Default per-thread ring capacity (events, not bytes).
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// Observability knobs for one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Capacity of each thread's trace ring, in events.
    pub trace_capacity: usize,
    /// Record causal spans (client rounds, server dwell, Blocks) too.
    pub trace_spans: bool,
    /// Capacity of each thread's span ring (and the shared server-side
    /// collector), in spans.
    pub span_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            trace_capacity: DEFAULT_TRACE_CAPACITY,
            trace_spans: true,
            span_capacity: crate::span::DEFAULT_SPAN_CAPACITY,
        }
    }
}

/// A fixed-capacity overwrite-oldest ring of [`TxnEvent`]s.
#[derive(Debug, Clone)]
pub struct TraceRing(Ring<TxnEvent>);

impl TraceRing {
    /// An empty ring holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        TraceRing(Ring::new(capacity))
    }

    /// Record one event: O(1), no allocation after the ring first fills.
    pub fn push(&mut self, ev: TxnEvent) {
        self.0.push(ev);
    }

    /// Events ever recorded (dropped ones included).
    pub fn recorded(&self) -> u64 {
        self.summary().recorded
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.summary().dropped
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TxnEvent> {
        self.0.iter()
    }

    /// Counter summary for merging across threads.
    pub fn summary(&self) -> TraceSummary {
        self.0.summary()
    }
}

section! {
    /// Aggregated ring counters — what a multi-thread run reports.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct TraceSummary: "trace" => TRACE_EVENTS {
        /// Events recorded across all rings.
        pub recorded: u64 = "recorded",
        /// Events overwritten (bounded-memory drops) across all rings.
        pub dropped: u64 = "dropped",
        /// Total retained-event capacity across all rings.
        pub capacity: u64 = "capacity" in TRACE_CAPACITY,
    }
}

const TRACE_EVENTS: PromFamily = PromFamily {
    name: "acn_trace_events_total",
    help: "Transaction events recorded into, and overwritten in, the trace rings",
    ty: PromType::Counter,
    label: Some("event"),
};
const TRACE_CAPACITY: PromFamily = PromFamily {
    name: "acn_trace_capacity_events",
    help: "Retained-event capacity of the trace rings",
    ty: PromType::Gauge,
    label: None,
};

impl TraceSummary {
    /// Element-wise accumulate (per-thread collection).
    pub fn merge(&mut self, other: &TraceSummary) {
        self.recorded += other.recorded;
        self.dropped += other.dropped;
        self.capacity += other.capacity;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(n: u32) -> TxnEvent {
        TxnEvent::BlockStart { block: n }
    }

    #[test]
    fn fills_then_overwrites_oldest() {
        let mut r = TraceRing::new(3);
        for i in 0..3 {
            r.push(ev(i));
        }
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.len(), 3);
        r.push(ev(3));
        r.push(ev(4));
        assert_eq!(r.recorded(), 5);
        assert_eq!(r.dropped(), 2);
        assert_eq!(r.len(), 3, "memory stays bounded");
        let got: Vec<u32> = r
            .iter()
            .map(|e| match e {
                TxnEvent::BlockStart { block } => *block,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(got, vec![2, 3, 4], "oldest first, tail retained");
    }

    #[test]
    fn capacity_floor_is_one() {
        let mut r = TraceRing::new(0);
        r.push(ev(1));
        r.push(ev(2));
        assert_eq!(r.len(), 1);
        assert_eq!(r.dropped(), 1);
    }

    #[test]
    fn summaries_merge() {
        let mut r = TraceRing::new(2);
        for i in 0..5 {
            r.push(ev(i));
        }
        let mut total = r.summary();
        total.merge(&r.summary());
        assert_eq!(total.recorded, 10);
        assert_eq!(total.dropped, 6);
        assert_eq!(total.capacity, 4);
    }
}
