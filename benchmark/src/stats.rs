//! Order statistics over raw samples.

/// Fewest latency samples a percentile is reported from. Below this a
/// 99th percentile has fewer than ten samples beyond it and is noise.
pub const MIN_LATENCY_SAMPLES: usize = 1000;

/// Why a percentile was refused.
#[derive(Debug, PartialEq, Eq)]
pub struct TooFewSamples {
    pub have: usize,
    pub need: usize,
}

impl std::fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} latency samples, refusing to report a percentile from fewer than {}",
            self.have, self.need
        )
    }
}

/// Nearest-rank percentile (`q` in `0..=1`) of **sorted** samples: the
/// smallest sample with at least `q` of the pool at or below it. Exact on
/// raw samples — no bucketing error.
pub fn percentile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "samples must be sorted"
    );
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `(p50, p99)` of a latency pool, sorting it in place; refused below
/// `need` samples ([`MIN_LATENCY_SAMPLES`] for anything but a smoke run).
pub fn latency_percentiles(samples: &mut [u64], need: usize) -> Result<(u64, u64), TooFewSamples> {
    if samples.len() < need {
        return Err(TooFewSamples {
            have: samples.len(),
            need,
        });
    }
    samples.sort_unstable();
    Ok((
        percentile_sorted(samples, 0.5),
        percentile_sorted(samples, 0.99),
    ))
}

/// Median (mean of the middle pair for even counts); 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank first quartile: the smallest value with at least a quarter
/// of the values at or below it; 0 for no values.
pub fn lower_quartile(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len().div_ceil(4) - 1]
}

pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_on_raw_samples() {
        let mut s: Vec<u64> = (1..=1000).rev().collect();
        let (p50, p99) = latency_percentiles(&mut s, MIN_LATENCY_SAMPLES).unwrap();
        assert_eq!(p50, 500);
        assert_eq!(p99, 990);
        assert_eq!(percentile_sorted(&s, 1.0), 1000);
        assert_eq!(percentile_sorted(&s, 0.0), 1);
        // A single outlier does not reach p99 of 1000 samples, ten do.
        let mut t = vec![10u64; 1000];
        t[0] = 9_999;
        assert_eq!(
            latency_percentiles(&mut t, MIN_LATENCY_SAMPLES).unwrap().1,
            10
        );
        let mut u = vec![10u64; 1000];
        u[..11].fill(9_999);
        assert_eq!(
            latency_percentiles(&mut u, MIN_LATENCY_SAMPLES).unwrap().1,
            9_999
        );
    }

    #[test]
    fn refuses_percentiles_below_a_thousand_samples() {
        let mut s = vec![1u64; 999];
        assert_eq!(
            latency_percentiles(&mut s, MIN_LATENCY_SAMPLES),
            Err(TooFewSamples {
                have: 999,
                need: 1000
            })
        );
    }

    #[test]
    fn lower_quartile_is_a_value_of_the_set() {
        assert_eq!(lower_quartile(&[5.0, 1.0, 4.0, 2.0, 3.0]), 2.0);
        assert_eq!(lower_quartile(&[4.0, 3.0, 2.0, 1.0]), 1.0);
        assert_eq!(lower_quartile(&[7.0]), 7.0);
        assert_eq!(lower_quartile(&[]), 0.0);
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
