//! The benchmark's own span recorder.
//!
//! Spans are recorded around the calls the benchmark makes into each layer
//! (never inside the program), kept in memory for the whole rep, and
//! written out as Chrome-trace JSON when it ends. A layer's *self time* is
//! its span's duration minus the part of that interval its child spans
//! cover.

use crate::json::Json;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Span id: `thread << 32 | (index in that thread's buffer + 1)`; 0 = none.
pub type SpanId = u64;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: SpanId,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one (0 for a root).
    pub parent: SpanId,
    /// Spans of one transaction share this (0 for set-up spans).
    pub txn: u64,
}

/// One thread's span buffer. `origin` is shared by every buffer of a rep so
/// all spans sit on one time axis.
pub struct SpanBuf {
    thread: u32,
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanBuf {
    pub fn new(thread: u32, origin: Instant) -> Self {
        SpanBuf {
            thread,
            origin,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// Record a finished span and return its id (to parent later spans on).
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: SpanId,
        txn: u64,
    ) -> SpanId {
        let id = (u64::from(self.thread) << 32) | (self.spans.len() as u64 + 1);
        self.spans.push(Span {
            id,
            name,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            end_ns: end.duration_since(self.origin).as_nanos() as u64,
            parent,
            txn,
        });
        id
    }

    /// Start a span whose children will be recorded before it ends; finish
    /// it with [`SpanBuf::close`].
    pub fn open(&mut self, name: &'static str, start: Instant, parent: SpanId, txn: u64) -> SpanId {
        self.push(name, start, start, parent, txn)
    }

    /// Set the end of a span started with [`SpanBuf::open`] on this buffer.
    pub fn close(&mut self, id: SpanId, end: Instant) {
        let idx = (id & 0xffff_ffff) as usize - 1;
        self.spans[idx].end_ns = end.duration_since(self.origin).as_nanos() as u64;
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time of every span: duration minus the union of its children's
/// intervals (clipped to the span, so overlapping or overhanging children
/// are never subtracted twice or beyond the parent).
pub fn self_times(spans: &[Span]) -> HashMap<SpanId, u64> {
    let mut children: HashMap<SpanId, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(cursor);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            (s.id, (s.end_ns - s.start_ns).saturating_sub(covered))
        })
        .collect()
}

/// Count, total duration and total self time per span name, sorted by name.
pub fn totals_by_name(spans: &[Span]) -> Vec<(&'static str, NameTotals)> {
    let selfs = self_times(spans);
    let mut by_name: HashMap<&'static str, NameTotals> = HashMap::new();
    for s in spans {
        let t = by_name.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += selfs[&s.id];
    }
    let mut out: Vec<_> = by_name.into_iter().collect();
    out.sort_unstable_by_key(|(name, _)| *name);
    out
}

/// Chrome Trace Event Format (the JSON array flavour): one complete `X`
/// event per span, `ts`/`dur` in microseconds with the nanoseconds kept as
/// the fraction, one track per client thread. Opens in `chrome://tracing`
/// and <https://ui.perfetto.dev>.
pub fn chrome_trace(spans: &[Span], counts: &Json) -> String {
    let mut out = String::with_capacity(spans.len() * 140 + 256);
    out.push_str("[\n");
    out.push_str(
        &Json::obj([
            ("ph", Json::str("M")),
            ("pid", Json::num(1.0)),
            ("tid", Json::num(0.0)),
            ("name", Json::str("process_name")),
            (
                "args",
                Json::obj([
                    ("name", Json::str("acn-benchmark")),
                    ("counts", counts.clone()),
                ]),
            ),
        ])
        .render(),
    );
    for s in spans {
        // Span names are the benchmark's own identifiers: nothing to escape.
        let _ = write!(
            out,
            ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":\"{}\",\"ts\":{},\"dur\":{},\
             \"args\":{{\"id\":{},\"parent\":{},\"txn\":{}}}}}",
            s.id >> 32,
            s.name,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.id,
            s.parent,
            s.txn
        );
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, name: &'static str, start: u64, end: u64, parent: SpanId) -> Span {
        Span {
            id,
            name,
            start_ns: start,
            end_ns: end,
            parent,
            txn: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span(1, "txn", 0, 100, 0),
            // Two siblings under the root, with a gap between them.
            span(2, "next", 5, 15, 1),
            span(3, "run", 20, 90, 1),
            // Nested under `run`; must not be charged to the root again.
            span(4, "round", 30, 60, 3),
            span(5, "round", 60, 80, 3),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 10 - 70, "root minus its two direct children");
        assert_eq!(st[&2], 10);
        assert_eq!(st[&3], 70 - 30 - 20, "run minus its two rounds");
        assert_eq!(st[&4], 30);
        let totals = totals_by_name(&spans);
        let round = totals.iter().find(|(n, _)| *n == "round").unwrap().1;
        assert_eq!(
            round,
            NameTotals {
                count: 2,
                total_ns: 50,
                self_ns: 50
            }
        );
        // Self times telescope: they sum to the root's duration.
        assert_eq!(st.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_clipped() {
        let spans = vec![
            span(1, "p", 10, 50, 0),
            span(2, "c", 0, 30, 1),  // starts before the parent
            span(3, "c", 20, 40, 1), // overlaps its sibling
            span(4, "c", 45, 70, 1), // ends after the parent
        ];
        // Covered: [10,40) ∪ [45,50) = 35 of 40.
        assert_eq!(self_times(&spans)[&1], 5);
    }

    #[test]
    fn buffer_ids_carry_the_thread_and_roots_close_after_their_children() {
        let origin = Instant::now();
        let mut buf = SpanBuf::new(3, origin);
        let t0 = Instant::now();
        let root = buf.open("txn", t0, 0, 7);
        let child = buf.push("run", t0, Instant::now(), root, 7);
        buf.close(root, Instant::now());
        assert_eq!(root >> 32, 3);
        assert_ne!(root, child);
        let spans = buf.into_spans();
        assert_eq!(spans[1].parent, spans[0].id);
        assert!(spans[0].end_ns >= spans[1].end_ns, "root closed last");
    }

    #[test]
    fn chrome_trace_is_parseable_json() {
        let spans = vec![span((1 << 32) | 1, "txn", 1_500, 4_750, 0)];
        let text = chrome_trace(&spans, &Json::obj([("commits", Json::num(1.0))]));
        let parsed = Json::parse(&text).unwrap();
        let events = parsed.as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("ts").unwrap().as_f64(), Some(1.5));
        assert_eq!(events[1].get("dur").unwrap().as_f64(), Some(3.25));
        assert_eq!(events[1].get("tid").unwrap().as_u64(), Some(1));
    }
}
