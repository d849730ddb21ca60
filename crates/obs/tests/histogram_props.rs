//! Property tests for the live-telemetry structures: histogram merge is a
//! true monoid operation, quantiles obey their advertised error bound, and
//! the window grid never drifts under idle gaps — the property-level
//! extension of the `ContentionWindow` rotation regressions in `acn-dtm`.

use acn_obs::{ExecStats, LogHistogram, WindowedSeries};
use proptest::prelude::*;
use std::time::Duration;

fn histogram(values: &[u64]) -> LogHistogram {
    let mut h = LogHistogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

/// One commit with the given latency, as the drivers record it.
fn commit(s: &mut WindowedSeries, at_ns: u64, latency_ns: u64) {
    let txn = ExecStats {
        commits: 1,
        ..ExecStats::default()
    };
    s.record(at_ns, &txn, Some(latency_ns));
}

/// Samples spanning every magnitude the histogram will ever see, from
/// sub-microsecond to "the clock wrapped".
fn sample() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..64,
        64u64..100_000,
        100_000u64..10_000_000_000,
        any::<u64>(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// merge(a, b) == merge(b, a) == recording everything into one
    /// histogram: the lossless-merge claim, stated as commutativity plus
    /// agreement with the ground-truth single-pass histogram.
    #[test]
    fn merge_is_commutative_and_lossless(
        xs in prop::collection::vec(sample(), 0..200),
        ys in prop::collection::vec(sample(), 0..200),
    ) {
        let mut ab = histogram(&xs);
        ab.merge(&histogram(&ys));
        let mut ba = histogram(&ys);
        ba.merge(&histogram(&xs));
        let mut all = xs.clone();
        all.extend_from_slice(&ys);
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(&ab, &histogram(&all));
        prop_assert_eq!(ab.len(), (xs.len() + ys.len()) as u64);
    }

    /// (a ∪ b) ∪ c == a ∪ (b ∪ c): merge order never matters, so the
    /// per-thread → per-run → cross-run aggregation tree is sound.
    #[test]
    fn merge_is_associative(
        xs in prop::collection::vec(sample(), 0..100),
        ys in prop::collection::vec(sample(), 0..100),
        zs in prop::collection::vec(sample(), 0..100),
    ) {
        let mut left = histogram(&xs);
        left.merge(&histogram(&ys));
        left.merge(&histogram(&zs));
        let mut yz = histogram(&ys);
        yz.merge(&histogram(&zs));
        let mut right = histogram(&xs);
        right.merge(&yz);
        prop_assert_eq!(left, right);
    }

    /// Every reported quantile covers the true order statistic from above
    /// and overshoots by at most one sub-bucket width (≤ true/32 + 1): the
    /// bounded-error claim, checked against a sorted copy of the samples.
    #[test]
    fn quantile_error_stays_within_one_bucket(
        values in prop::collection::vec(sample(), 1..300),
        q in 0.0f64..=1.0,
    ) {
        let h = histogram(&values);
        let mut values = values;
        values.sort_unstable();
        let rank = ((q * values.len() as f64).ceil() as usize).max(1);
        let truth = values[rank - 1];
        let got = h.quantile(q).expect("non-empty");
        prop_assert!(got >= truth, "quantile {got} below true sample {truth}");
        let bound = (truth as f64) * (1.0 + 1.0 / 32.0) + 1.0;
        prop_assert!(
            got as f64 <= bound,
            "quantile {got} overshoots true sample {truth} past {bound}"
        );
    }

    /// For any sample set, a higher quantile never reports a lower value,
    /// and `percentile` is `quantile` read as nanoseconds.
    #[test]
    fn quantile_is_monotone_in_q_and_percentile_agrees(
        values in prop::collection::vec(sample(), 1..200),
        qa in 0.0f64..=1.0,
        qb in 0.0f64..=1.0,
    ) {
        let h = histogram(&values);
        let (lo, hi) = if qa <= qb { (qa, qb) } else { (qb, qa) };
        let (plo, phi) = (h.quantile(lo).unwrap(), h.quantile(hi).unwrap());
        prop_assert!(plo <= phi, "q({lo}) = {plo} > q({hi}) = {phi}");
        prop_assert_eq!(h.percentile(lo), Some(Duration::from_nanos(plo)));
        prop_assert_eq!(LogHistogram::new().percentile(lo), None);
    }

    /// The window grid is a pure function of the timestamp: events land in
    /// window `t / width` no matter the arrival order, and idle gaps leave
    /// their windows absent instead of zero-filled or drifted.
    #[test]
    fn window_grid_never_drifts_under_idle_gaps(
        width in 1u64..=1_000_000,
        stamps in prop::collection::vec(0u64..u64::MAX / 2, 1..100),
        shuffle_seed in any::<u64>(),
    ) {
        let mut in_order = WindowedSeries::new(width);
        for &t in &stamps {
            commit(&mut in_order, t, 1);
        }
        // A deterministic shuffle: arrival order must be irrelevant.
        let mut shuffled = stamps.clone();
        let mut state = shuffle_seed | 1;
        for i in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            shuffled.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let mut out_of_order = WindowedSeries::new(width);
        for &t in &shuffled {
            commit(&mut out_of_order, t, 1);
        }
        prop_assert_eq!(&in_order, &out_of_order);
        // Exactly the windows that saw an event exist — no zero-filling
        // across gaps, no drift: each index is its timestamps' quotient.
        let mut expect: Vec<u64> = stamps.iter().map(|t| t / width).collect();
        expect.sort_unstable();
        expect.dedup();
        let got: Vec<u64> = in_order.iter().map(|(i, _)| i).collect();
        prop_assert_eq!(got, expect);
        prop_assert_eq!(in_order.total_commits(), stamps.len() as u64);
    }

    /// Series merge distributes over the cells: merging per-thread series
    /// equals one series fed every event, including the abort counters.
    #[test]
    fn series_merge_is_lossless(
        width in 1u64..=100_000,
        a in prop::collection::vec((0u64..10_000_000, 1u64..1000, 0u64..3, 0u64..5), 0..80),
        b in prop::collection::vec((0u64..10_000_000, 1u64..1000, 0u64..3, 0u64..5), 0..80),
    ) {
        let feed = |s: &mut WindowedSeries, evs: &[(u64, u64, u64, u64)]| {
            for &(t, lat, full, partial) in evs {
                let txn = ExecStats {
                    commits: 1,
                    full_aborts: full,
                    partial_aborts: partial,
                    ..ExecStats::default()
                };
                s.record(t, &txn, Some(lat));
            }
        };
        let mut sa = WindowedSeries::new(width);
        let mut sb = WindowedSeries::new(width);
        let mut all = WindowedSeries::new(width);
        feed(&mut sa, &a);
        feed(&mut sb, &b);
        feed(&mut all, &a);
        feed(&mut all, &b);
        sa.merge(&sb);
        prop_assert_eq!(sa, all);
    }
}
