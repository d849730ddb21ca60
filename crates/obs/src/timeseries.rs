//! Live windowed time-series telemetry: a log-bucketed latency histogram
//! with lossless merge and bounded-error quantiles, plus grid-aligned
//! per-window counter cells.
//!
//! Both structures follow the repo's exactness discipline: merging is a
//! plain bucketwise sum (associative, commutative, lossless — the merged
//! histogram is byte-identical to recording every sample into one), and
//! the window grid is anchored at the run origin so per-thread series
//! land on the same cells no matter when each thread recorded. Idle
//! windows are *absent*, never zero-filled: a gap in the grid is
//! information (the system recorded nothing), and zero-filling would make
//! a stalled run indistinguishable from an idle one.

use crate::event::ExecStats;
use crate::registry::LatencySummary;
use std::collections::BTreeMap;
use std::time::Duration;

/// Sub-bucket resolution: each power-of-two octave splits into
/// `2^SUB_BITS` linear sub-buckets, bounding the relative quantile error
/// at `1/2^SUB_BITS` (≈ 3.1 %). Values below `2^SUB_BITS` are exact.
const SUB_BITS: u32 = 5;
const SUB_COUNT: u32 = 1 << SUB_BITS;

/// Bucket index of a value: identity below [`SUB_COUNT`], then
/// `(octave, sub-bucket)` packed so indices stay contiguous and monotone.
fn bucket_index(v: u64) -> u32 {
    if v < SUB_COUNT as u64 {
        return v as u32;
    }
    let msb = 63 - v.leading_zeros();
    let sub = (v >> (msb - SUB_BITS)) as u32 & (SUB_COUNT - 1);
    ((msb - SUB_BITS + 1) << SUB_BITS) + sub
}

/// Inclusive upper bound of a bucket — what quantiles report, so the
/// estimate errs at most one sub-bucket width (≤ `value/32 + 1`) high.
fn bucket_upper(idx: u32) -> u64 {
    if idx < SUB_COUNT {
        return idx as u64;
    }
    let octave = idx >> SUB_BITS;
    let sub = (idx & (SUB_COUNT - 1)) as u64;
    let width = 1u64 << (octave - 1);
    (SUB_COUNT as u64 + sub) * width + width - 1
}

/// A sparse HDR-style histogram of `u64` samples (nanoseconds in every
/// current use). Unbounded only in distinct buckets — ≤ 32 + 59×32 keys
/// over the whole `u64` range — so a per-thread instance stays tiny.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: BTreeMap<u32, u64>,
    total: u64,
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` equal samples (merges, imports).
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n > 0 {
            *self.buckets.entry(bucket_index(v)).or_insert(0) += n;
            self.total += n;
        }
    }

    /// Number of recorded samples.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Lossless merge: bucketwise sum. `merge(a, b)` equals recording
    /// every sample of both into a fresh histogram, which is what makes
    /// the per-thread → global aggregation exact.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (&b, &n) in &other.buckets {
            *self.buckets.entry(b).or_insert(0) += n;
        }
        self.total += other.total;
    }

    /// The value at quantile `q` (0.0–1.0) as the inclusive upper bound of
    /// the bucket holding the rank-`ceil(q·n)` sample; `None` when empty.
    /// Error bound: at most one sub-bucket width above the true sample,
    /// i.e. ≤ `true/32 + 1`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (&b, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return Some(bucket_upper(b));
            }
        }
        // Unreachable: the loop covers `total` samples and rank ≤ total.
        self.buckets.keys().next_back().map(|&b| bucket_upper(b))
    }

    /// [`LogHistogram::quantile`] of nanosecond samples, as a duration.
    pub fn percentile(&self, q: f64) -> Option<Duration> {
        self.quantile(q).map(Duration::from_nanos)
    }

    /// Integer-nanosecond p50/p95/p99 summary for the metrics export
    /// (zeros when empty).
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            samples: self.total,
            p50_nanos: self.quantile(0.50).unwrap_or(0),
            p95_nanos: self.quantile(0.95).unwrap_or(0),
            p99_nanos: self.quantile(0.99).unwrap_or(0),
        }
    }

    /// Integer-nanosecond p50/p99/p999 snapshot (zeros when empty).
    pub fn quantile_snapshot(&self) -> (u64, u64, u64) {
        (
            self.quantile(0.50).unwrap_or(0),
            self.quantile(0.99).unwrap_or(0),
            self.quantile(0.999).unwrap_or(0),
        )
    }

    /// Sparse `(bucket, count)` pairs in bucket order (export/import).
    pub fn iter_buckets(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.buckets.iter().map(|(&b, &n)| (b, n))
    }

    /// Rebuild from exported `(bucket, count)` pairs. Counts land on the
    /// exact bucket, so export → import is identity.
    pub fn from_buckets(pairs: impl IntoIterator<Item = (u32, u64)>) -> Self {
        let mut h = LogHistogram::new();
        for (b, n) in pairs {
            if n > 0 {
                *h.buckets.entry(b).or_insert(0) += n;
                h.total += n;
            }
        }
        h
    }
}

/// One grid window's counters: the outcomes of every transaction that
/// completed inside the window plus the latency histogram of its commits.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowCell {
    /// Commits, aborts and retries absorbed in the window.
    pub stats: ExecStats,
    /// End-to-end latency of the window's commits, nanoseconds.
    pub latency: LogHistogram,
}

impl WindowCell {
    fn merge(&mut self, other: &WindowCell) {
        self.stats.merge(&other.stats);
        self.latency.merge(&other.latency);
    }
}

/// Grid-aligned windowed series: events at origin-relative time `at_ns`
/// land in window `at_ns / window_ns`. The grid is a pure function of the
/// timestamp — there is no rotation state to drift, so an idle gap simply
/// leaves its windows absent (compare the `ContentionWindow` regression,
/// which must actively drop stale state on rotation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowedSeries {
    window_ns: u64,
    windows: BTreeMap<u64, WindowCell>,
    /// Retention cap in distinct windows; the oldest cell is evicted (and
    /// counted) when a newer one would exceed it.
    capacity: usize,
    evicted: u64,
}

impl WindowedSeries {
    /// Default retention: enough for any scenario the drivers run, small
    /// enough that a runaway clock cannot balloon memory.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// A series on a `window_ns`-wide grid (panics on a zero width).
    pub fn new(window_ns: u64) -> Self {
        Self::with_capacity(window_ns, Self::DEFAULT_CAPACITY)
    }

    /// [`WindowedSeries::new`] with an explicit retention cap.
    pub fn with_capacity(window_ns: u64, capacity: usize) -> Self {
        assert!(window_ns > 0, "window width must be positive");
        assert!(capacity > 0, "retention must hold at least one window");
        WindowedSeries {
            window_ns,
            windows: BTreeMap::new(),
            capacity,
            evicted: 0,
        }
    }

    /// Grid width, nanoseconds.
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// Windows evicted past the retention cap (0 in every healthy run).
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    fn cell(&mut self, at_ns: u64) -> &mut WindowCell {
        let idx = at_ns / self.window_ns;
        if !self.windows.contains_key(&idx) && self.windows.len() >= self.capacity {
            let oldest = *self.windows.keys().next().expect("capacity > 0");
            // Never evict forward: a late event older than everything
            // retained is dropped into the oldest cell instead.
            if oldest >= idx {
                return self.windows.get_mut(&oldest).expect("oldest exists");
            }
            self.windows.remove(&oldest);
            self.evicted += 1;
        }
        self.windows.entry(idx).or_default()
    }

    /// Record one transaction that finished at `at_ns`: the counters it
    /// moved and, when it committed, its end-to-end latency.
    pub fn record(&mut self, at_ns: u64, txn: &ExecStats, latency_ns: Option<u64>) {
        if *txn == ExecStats::default() && latency_ns.is_none() {
            // Nothing happened: an idle window stays absent.
            return;
        }
        let cell = self.cell(at_ns);
        cell.stats.merge(txn);
        if let Some(ns) = latency_ns {
            cell.latency.record(ns);
        }
    }

    /// Lossless merge of another series on the same grid (panics on a
    /// grid mismatch — merging incompatible grids silently would corrupt
    /// every window).
    pub fn merge(&mut self, other: &WindowedSeries) {
        assert_eq!(
            self.window_ns, other.window_ns,
            "cannot merge series on different window grids"
        );
        for (&idx, cell) in &other.windows {
            self.windows.entry(idx).or_default().merge(cell);
        }
        self.evicted += other.evicted;
        while self.windows.len() > self.capacity {
            let oldest = *self.windows.keys().next().expect("non-empty");
            self.windows.remove(&oldest);
            self.evicted += 1;
        }
    }

    /// Non-empty windows in grid order as `(index, cell)`.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &WindowCell)> + '_ {
        self.windows.iter().map(|(&i, c)| (i, c))
    }

    /// Number of non-empty windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// True when no window holds any data.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The cell of window `idx`, when anything was recorded into it.
    pub fn get(&self, idx: u64) -> Option<&WindowCell> {
        self.windows.get(&idx)
    }

    /// Commits summed over every retained window.
    pub fn total_commits(&self) -> u64 {
        self.windows.values().map(|c| c.stats.commits).sum()
    }

    /// Every retained window's latency histogram merged into one.
    pub fn total_latency(&self) -> LogHistogram {
        let mut all = LogHistogram::new();
        for cell in self.windows.values() {
            all.merge(&cell.latency);
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One commit at `at_ns` with the given latency.
    fn commit(s: &mut WindowedSeries, at_ns: u64, latency_ns: u64) {
        let txn = ExecStats {
            commits: 1,
            ..ExecStats::default()
        };
        s.record(at_ns, &txn, Some(latency_ns));
    }

    /// A failed transaction at `at_ns` that absorbed the given aborts.
    fn aborts(s: &mut WindowedSeries, at_ns: u64, full: u64, partial: u64) {
        let txn = ExecStats {
            full_aborts: full,
            partial_aborts: partial,
            ..ExecStats::default()
        };
        s.record(at_ns, &txn, None);
    }

    #[test]
    fn small_values_are_exact() {
        for v in 0..SUB_COUNT as u64 {
            assert_eq!(bucket_upper(bucket_index(v)), v);
        }
    }

    #[test]
    fn bucket_index_is_monotone_and_upper_bound_covers() {
        // Every power-of-two boundary and its neighbours, in ascending
        // order: indices never decrease and each bucket's reported upper
        // bound covers the value that landed in it.
        let mut values: Vec<u64> = (0..63u32)
            .flat_map(|s| [(1u64 << s).saturating_sub(1), 1 << s, (1 << s) + 1])
            .collect();
        values.sort_unstable();
        values.dedup();
        let mut prev_idx = 0;
        for v in values {
            let idx = bucket_index(v);
            assert!(idx >= prev_idx, "monotone at {v}");
            prev_idx = idx;
            assert!(bucket_upper(idx) >= v, "upper bound covers {v}");
        }
    }

    #[test]
    fn quantile_reports_bucket_upper_bound() {
        let mut h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v * 1000);
        }
        let p50 = h.quantile(0.5).unwrap();
        let true_p50 = 500_000;
        assert!(p50 >= true_p50);
        assert!(p50 as f64 <= true_p50 as f64 * (1.0 + 1.0 / 32.0) + 1.0);
        let p999 = h.quantile(0.999).unwrap();
        assert!(p999 >= 999_000);
        assert!(h.quantile(0.5) <= h.quantile(0.999), "monotone quantiles");
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.99), None);
        assert_eq!(h.quantile_snapshot(), (0, 0, 0));
    }

    #[test]
    fn merge_is_lossless() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut all = LogHistogram::new();
        for v in [3, 40, 40, 1_000_000, u64::MAX] {
            a.record(v);
            all.record(v);
        }
        for v in [7, 40, 5_000] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all, "merge equals recording everything into one");
    }

    #[test]
    fn bucket_export_round_trips() {
        let mut h = LogHistogram::new();
        for v in [0, 1, 31, 32, 1_000, 123_456_789] {
            h.record(v);
        }
        let rebuilt = LogHistogram::from_buckets(h.iter_buckets());
        assert_eq!(rebuilt, h);
    }

    #[test]
    fn series_grid_is_a_pure_function_of_time() {
        let mut s = WindowedSeries::new(100);
        commit(&mut s, 10, 5);
        commit(&mut s, 99, 5);
        commit(&mut s, 100, 5);
        // Idle gap: windows 2..=41 never materialize.
        commit(&mut s, 4200, 7);
        let idx: Vec<u64> = s.iter().map(|(i, _)| i).collect();
        assert_eq!(idx, vec![0, 1, 42]);
        assert_eq!(s.iter().next().unwrap().1.stats.commits, 2);
        assert_eq!(s.total_commits(), 4);
    }

    #[test]
    fn series_merge_is_lossless_and_grid_checked() {
        let mut a = WindowedSeries::new(100);
        let mut b = WindowedSeries::new(100);
        commit(&mut a, 50, 10);
        aborts(&mut a, 50, 1, 2);
        commit(&mut b, 50, 20);
        commit(&mut b, 250, 30);
        let mut all = WindowedSeries::new(100);
        commit(&mut all, 50, 10);
        aborts(&mut all, 50, 1, 2);
        commit(&mut all, 50, 20);
        commit(&mut all, 250, 30);
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    #[should_panic(expected = "different window grids")]
    fn series_merge_rejects_grid_mismatch() {
        let mut a = WindowedSeries::new(100);
        let b = WindowedSeries::new(200);
        a.merge(&b);
    }

    #[test]
    fn retention_evicts_oldest_not_newest() {
        let mut s = WindowedSeries::with_capacity(10, 2);
        commit(&mut s, 5, 1); // window 0
        commit(&mut s, 15, 1); // window 1
        commit(&mut s, 25, 1); // window 2 -> evicts window 0
        let idx: Vec<u64> = s.iter().map(|(i, _)| i).collect();
        assert_eq!(idx, vec![1, 2]);
        assert_eq!(s.evicted(), 1);
        // A straggler older than everything retained folds into the oldest
        // retained cell rather than evicting newer data.
        commit(&mut s, 3, 1);
        assert_eq!(s.iter().next().unwrap().1.stats.commits, 2);
    }
}
