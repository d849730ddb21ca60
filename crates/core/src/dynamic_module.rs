//! The Dynamic Module: client-side contention sampling.
//!
//! "This module collects run-time parameters such as objects' write and
//! abort ratios and feeds them as input to the Algorithm Module." The
//! server half (windowed write counters) lives in `acn-dtm`; this half
//! queries a read quorum and smooths the samples so a single noisy window
//! does not thrash the Block sequence.

use acn_dtm::{DtmClient, DtmError};
use std::collections::HashMap;

/// Per-class contention sampler with exponential smoothing.
#[derive(Debug, Clone)]
pub struct DynamicModule {
    /// Classes this module tracks (the classes its template opens).
    classes: Vec<u16>,
    /// EWMA coefficient for new samples; `1.0` disables smoothing.
    alpha: f64,
    levels: HashMap<u16, f64>,
}

impl DynamicModule {
    /// Track `classes` with smoothing factor `alpha` (clamped to (0, 1]).
    pub fn new(classes: Vec<u16>, alpha: f64) -> Self {
        let alpha = alpha.clamp(f64::MIN_POSITIVE, 1.0);
        DynamicModule {
            classes,
            alpha,
            levels: HashMap::new(),
        }
    }

    /// Unsmoothed sampler (every refresh fully replaces the levels).
    pub fn raw(classes: Vec<u16>) -> Self {
        Self::new(classes, 1.0)
    }

    /// The classes being tracked.
    pub fn classes(&self) -> &[u16] {
        &self.classes
    }

    /// Current smoothed levels (empty until the first refresh).
    pub fn levels(&self) -> &HashMap<u16, f64> {
        &self.levels
    }

    /// Query the quorum and fold the sampled write levels — the paper's
    /// approximation of contention — into the smoothed levels.
    pub fn refresh(&mut self, client: &mut DtmClient) -> Result<&HashMap<u16, f64>, DtmError> {
        let sample = client.query_contention_full(&self.classes)?;
        self.ingest(&sample.writes);
        Ok(&self.levels)
    }

    /// Fold in the levels that piggybacked on the client's recent remote
    /// reads ([`DtmClient::set_piggyback_classes`]) — no extra messages.
    /// Returns `false` (and leaves the levels untouched) when no
    /// piggybacked sample has arrived yet.
    pub fn refresh_from_piggyback(&mut self, client: &DtmClient) -> bool {
        let sample = client.piggybacked_levels();
        if sample.is_empty() {
            return false;
        }
        let owned: HashMap<u16, f64> = sample.clone();
        self.ingest(&owned);
        true
    }

    /// Fold an externally obtained sample (unit-testable without a cluster).
    pub fn ingest(&mut self, sample: &HashMap<u16, f64>) {
        for &c in &self.classes {
            let s = sample.get(&c).copied().unwrap_or(0.0);
            let e = self.levels.entry(c).or_insert(s);
            *e = self.alpha * s + (1.0 - self.alpha) * *e;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(pairs: &[(u16, f64)]) -> HashMap<u16, f64> {
        pairs.iter().copied().collect()
    }

    #[test]
    fn raw_sampler_replaces_levels() {
        let mut m = DynamicModule::raw(vec![0, 1]);
        m.ingest(&sample(&[(0, 4.0), (1, 1.0)]));
        assert_eq!(m.levels()[&0], 4.0);
        m.ingest(&sample(&[(0, 2.0), (1, 6.0)]));
        assert_eq!(m.levels()[&0], 2.0);
        assert_eq!(m.levels()[&1], 6.0);
    }

    #[test]
    fn smoothing_damps_spikes() {
        let mut m = DynamicModule::new(vec![0], 0.5);
        m.ingest(&sample(&[(0, 10.0)]));
        assert_eq!(m.levels()[&0], 10.0, "first sample seeds the level");
        m.ingest(&sample(&[(0, 0.0)]));
        assert_eq!(m.levels()[&0], 5.0, "EWMA halves toward the sample");
        m.ingest(&sample(&[(0, 0.0)]));
        assert_eq!(m.levels()[&0], 2.5);
    }

    #[test]
    fn missing_classes_sample_as_zero() {
        let mut m = DynamicModule::raw(vec![0, 7]);
        m.ingest(&sample(&[(0, 3.0)]));
        assert_eq!(m.levels()[&7], 0.0);
    }

    #[test]
    fn untracked_classes_are_ignored() {
        let mut m = DynamicModule::raw(vec![0]);
        m.ingest(&sample(&[(0, 1.0), (9, 100.0)]));
        assert!(!m.levels().contains_key(&9));
    }

    #[test]
    fn alpha_is_clamped() {
        let m = DynamicModule::new(vec![0], 5.0);
        assert_eq!(m.alpha, 1.0);
        let m = DynamicModule::new(vec![0], -1.0);
        assert!(m.alpha > 0.0);
    }
}
