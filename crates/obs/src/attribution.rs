//! Abort attribution: which object class, at which Block, aborted how.
//!
//! The paper's Dynamic Module collects "run-time parameters such as
//! objects' write and abort ratios"; this table is the client-side half of
//! that visibility. Every abort the executor absorbs lands here exactly
//! once, keyed by `(class, block index, abort kind)`, so a bench can print
//! "top-K hottest classes by induced aborts" next to throughput and the
//! totals reconcile against the executor's counters with no lost or
//! double-counted events.

use crate::event::{AbortKind, TxnEvent};
use crate::span::{Tracer, DEFAULT_SPAN_CAPACITY};
use crate::wasted::{WorkLedger, WorkTotals};
use acn_txir::ObjClass;
use std::collections::BTreeMap;

/// Observability knobs for one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Capacity of each thread's span ring (and the shared server-side
    /// collector), in spans.
    pub span_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            span_capacity: DEFAULT_SPAN_CAPACITY,
        }
    }
}

/// One attribution key: the class blamed (if any object was blamed), the
/// Block the abort surfaced in (`None` = flat body or commit phase), and
/// the abort kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AbortSite {
    /// Class of the first blamed object; `None` when the DTM reported no
    /// object (e.g. a pure lock conflict at prepare).
    pub class: Option<ObjClass>,
    /// Block index the abort surfaced in; `None` = flat body or commit.
    pub block: Option<u32>,
    /// Why the attempt (or Block) was thrown away.
    pub kind: AbortKind,
}

/// Abort counts per [`AbortSite`]. Deterministically ordered (BTreeMap) so
/// reports and JSON exports are stable across runs with equal counts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AbortTable {
    counts: BTreeMap<AbortSite, u64>,
}

impl AbortTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count one abort at `site`.
    pub fn record(&mut self, site: AbortSite) {
        *self.counts.entry(site).or_insert(0) += 1;
    }

    /// Count `n` aborts at `site` (JSON import, merges).
    pub fn record_n(&mut self, site: AbortSite, n: u64) {
        if n > 0 {
            *self.counts.entry(site).or_insert(0) += n;
        }
    }

    /// Accumulate another table (per-thread collection).
    pub fn merge(&mut self, other: &AbortTable) {
        for (&site, &n) in &other.counts {
            self.record_n(site, n);
        }
    }

    /// All sites with their counts, in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&AbortSite, &u64)> {
        self.counts.iter()
    }

    /// Total aborts attributed, over every kind.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Total aborts attributed over the given kinds only.
    pub fn total_of(&self, kinds: &[AbortKind]) -> u64 {
        self.counts
            .iter()
            .filter(|(s, _)| kinds.contains(&s.kind))
            .map(|(_, &n)| n)
            .sum()
    }

    /// True when nothing has been attributed.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Induced-abort count per class, heaviest first. `None` groups the
    /// aborts with no blamed object. Ties break on class id for
    /// determinism.
    pub fn by_class(&self) -> Vec<(Option<ObjClass>, u64)> {
        let mut agg: BTreeMap<Option<u16>, (Option<ObjClass>, u64)> = BTreeMap::new();
        for (site, &n) in &self.counts {
            let e = agg
                .entry(site.class.map(|c| c.id))
                .or_insert((site.class, 0));
            e.1 += n;
        }
        let mut out: Vec<(Option<ObjClass>, u64)> = agg.into_values().collect();
        out.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then_with(|| a.0.map(|c| c.id).cmp(&b.0.map(|c| c.id)))
        });
        out
    }

    /// The `k` classes inducing the most aborts, as `(name, count)`.
    pub fn top_classes(&self, k: usize) -> Vec<(&'static str, u64)> {
        self.by_class()
            .into_iter()
            .take(k)
            .map(|(c, n)| (c.map(|c| c.name).unwrap_or("<none>"), n))
            .collect()
    }
}

/// One worker's observer, installed on its client: the abort table, the
/// wasted-work ledger and the span tracer, fed through one entry point so
/// the three views never disagree about which events happened.
#[derive(Debug, Default)]
pub struct TxnObserver {
    /// Abort attribution counts (exact, unbounded only in distinct keys —
    /// bounded in practice by classes × blocks × kinds).
    pub aborts: AbortTable,
    /// Wasted-work ledger: every unit of work charged to the outcome
    /// (commit, full discard, partial discard) that settled it.
    pub work: WorkLedger,
    /// Span tracer: the attempt and Block spans come from the events, the
    /// round and wait spans from the client's pump.
    pub spans: Option<Tracer>,
}

impl TxnObserver {
    /// An observer with no span tracer. A tracer needs the run's origin
    /// instant and the worker's id band, so whoever knows them builds one
    /// with [`ObsConfig::span_capacity`] and sets [`TxnObserver::spans`].
    pub fn new(_: ObsConfig) -> Self {
        Self::default()
    }

    /// Record one event. Abort events additionally feed the attribution
    /// table, and every event feeds the wasted-work ledger and the tracer,
    /// so callers never double-book.
    pub fn on_event(&mut self, ev: TxnEvent) {
        match ev {
            TxnEvent::PartialAbort { block, obj, kind } => self.aborts.record(AbortSite {
                class: obj.map(|o| o.class),
                block: Some(block),
                kind,
            }),
            TxnEvent::FullAbort { block, obj, kind } => self.aborts.record(AbortSite {
                class: obj.map(|o| o.class),
                block,
                kind,
            }),
            _ => {}
        }
        self.work.on_event(ev);
        if let Some(t) = self.spans.as_mut() {
            t.on_event(ev);
        }
    }

    /// Merge this observer's attribution and settled wasted-work totals
    /// into the caller's accumulators.
    pub fn merge_into(&self, aborts: &mut AbortTable, work: &mut WorkTotals) {
        aborts.merge(&self.aborts);
        work.merge(&self.work.snapshot());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acn_txir::ObjectId;

    const BRANCH: ObjClass = ObjClass::new(1, "Branch");
    const ACCOUNT: ObjClass = ObjClass::new(2, "Account");

    #[test]
    fn abort_events_feed_both_views() {
        let mut o = TxnObserver::default();
        o.on_event(TxnEvent::Begin);
        o.on_event(TxnEvent::PartialAbort {
            block: 0,
            obj: Some(ObjectId::new(BRANCH, 3)),
            kind: AbortKind::Partial,
        });
        o.on_event(TxnEvent::FullAbort {
            block: None,
            obj: Some(ObjectId::new(BRANCH, 3)),
            kind: AbortKind::CommitConflict,
        });
        o.on_event(TxnEvent::Commit { restarts: 1 });
        assert_eq!(o.work.totals().committed.blocks, 1);
        assert_eq!(o.aborts.total(), 2);
        assert_eq!(o.aborts.top_classes(1), vec![("Branch", 2)]);
    }

    #[test]
    fn by_class_ranks_heaviest_first() {
        let mut t = AbortTable::new();
        let site = |class, block, kind| AbortSite { class, block, kind };
        t.record_n(site(Some(ACCOUNT), Some(1), AbortKind::Partial), 2);
        t.record_n(site(Some(BRANCH), Some(0), AbortKind::Partial), 5);
        t.record_n(site(Some(BRANCH), None, AbortKind::CommitConflict), 4);
        t.record_n(site(None, None, AbortKind::LockedOut), 1);
        assert_eq!(t.total(), 12);
        assert_eq!(t.total_of(&[AbortKind::Partial]), 7);
        let ranked = t.by_class();
        assert_eq!(ranked[0], (Some(BRANCH), 9));
        assert_eq!(ranked[1], (Some(ACCOUNT), 2));
        assert_eq!(ranked[2], (None, 1));
        assert_eq!(t.top_classes(2), vec![("Branch", 9), ("Account", 2)]);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = AbortTable::new();
        let mut b = AbortTable::new();
        let site = AbortSite {
            class: Some(BRANCH),
            block: Some(0),
            kind: AbortKind::Partial,
        };
        a.record(site);
        b.record(site);
        b.record(AbortSite {
            class: None,
            block: None,
            kind: AbortKind::Escalated,
        });
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.iter().count(), 2);
    }
}
