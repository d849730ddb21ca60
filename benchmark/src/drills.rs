//! The drill harness: sizes each drill's batches, runs it for its budget
//! and reports the median of the batch means, in the metric's own unit.

use crate::adapter::{self, Drill};
use crate::spec::PER_LAYER;
use crate::stats::median;
use std::path::Path;
use std::time::{Duration, Instant};

/// A batch shorter than this is dominated by the two clock reads around it.
const MIN_BATCH: Duration = Duration::from_millis(2);
/// Batches a drill runs even if one of them already used up the budget.
const MIN_BATCHES: usize = 5;

/// Nanoseconds per operation → the unit the metric is declared in.
fn in_unit(name: &str, ns: f64) -> f64 {
    let spec = PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("drill metric `{name}` is not a per-layer metric"));
    match spec.unit {
        "ns" => ns,
        "us" => ns / 1e3,
        other => panic!("drill metric `{name}` has non-time unit `{other}`"),
    }
}

fn run_one(mut drill: Drill, budget: Duration) -> Vec<(&'static str, f64)> {
    // Size the batch: double until one batch takes long enough to time.
    let mut n = 1u32;
    loop {
        let t = Instant::now();
        (drill.run)(n);
        if t.elapsed() >= MIN_BATCH || n >= drill.max_batch {
            break;
        }
        n = n.saturating_mul(2).min(drill.max_batch);
    }
    let mut means: Vec<Vec<f64>> = vec![Vec::new(); drill.metrics.len()];
    let deadline = Instant::now() + budget;
    while Instant::now() < deadline || means[0].len() < MIN_BATCHES {
        let spent = (drill.run)(n);
        assert_eq!(spent.len(), drill.metrics.len(), "one duration per metric");
        for (m, d) in means.iter_mut().zip(spent) {
            m.push(d.as_nanos() as f64 / f64::from(n));
        }
    }
    drill
        .metrics
        .iter()
        .zip(&means)
        .map(|(&name, m)| (name, in_unit(name, median(m))))
        .collect()
}

/// Run every drill for `budget` each; `scratch` is removed afterwards.
pub fn run_all(budget: Duration, scratch: &Path) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    for build in adapter::drills() {
        out.extend(run_one(build(scratch), budget));
    }
    let _ = std::fs::remove_dir_all(scratch);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_reports_the_median_batch_mean_in_the_declared_unit() {
        // A fake drill that claims 1500 ns per op, except for one slow batch.
        let mut calls = 0u32;
        let drill = Drill {
            metrics: &["dtm.txn_us", "dtm.store_read_ns"],
            max_batch: 8,
            run: Box::new(move |n| {
                calls += 1;
                // Calls 1–4 size the batch (n = 1, 2, 4, 8); 5–9 are measured.
                let per_op = if calls == 7 { 90_000 } else { 1_500 };
                vec![
                    Duration::from_nanos(u64::from(n) * per_op),
                    Duration::from_nanos(u64::from(n) * 40),
                ]
            }),
        };
        let got = run_one(drill, Duration::ZERO);
        assert_eq!(got, vec![("dtm.txn_us", 1.5), ("dtm.store_read_ns", 40.0)]);
    }
}
