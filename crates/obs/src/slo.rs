//! Declarative SLO gauges and the anomaly-triggered flight recorder.
//!
//! An [`SloPolicy`] names the budgets a run is supposed to stay inside —
//! tail latency, abort-storm rate, WAL-degraded commits, sync-refusal
//! spikes. Evaluating the policy against a run's merged telemetry yields
//! zero or more tripped [`SloTrigger`]s; each tripped evaluation can then
//! dump the retained span rings through the existing Chrome exporter as a
//! **flight-recorder artifact**, and every trigger lands in the metrics
//! report as a [`FlightRecord`] row naming the trigger, the measured value
//! vs its budget, and the artifact path. The artifact is a valid Chrome
//! trace — [`crate::parse_chrome_trace`] round-trips it — so "what was the
//! system doing when the SLO broke" is one `chrome://tracing` load away.
//!
//! Values and budgets are plain integers in each rule's natural unit —
//! nanoseconds for latency, a ×1000 milli-rate for the storm rule, raw
//! counts for refusals — so the JSON-lines rows round-trip exactly like
//! every other export in the workspace.

use crate::chrome::write_chrome_trace;
use crate::registry::ThreadTraceRow;
use crate::section::section;
use crate::span::Span;
use std::path::{Path, PathBuf};

/// One declarative SLO rule set. `None` disables a rule; the default
/// policy has every rule disabled, so opting in is explicit per scenario.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SloPolicy {
    /// Trip when p99 commit latency exceeds this many nanoseconds.
    pub p99_budget_ns: Option<u64>,
    /// Trip when aborts-per-commit (×1000) exceeds this level — an
    /// abort storm. E.g. `2_000` trips past two aborts per commit.
    pub abort_storm_milli: Option<u64>,
    /// Trip when more than this many commits were refused because a
    /// quorum member's WAL could not make them durable (`WalRefused`
    /// aborts) — the storage-degraded mode of PR 9.
    pub wal_refusals: Option<u64>,
    /// Trip when more than this many rounds were refused by replicas
    /// still catching up after a crash (`sync_vote_refusals +
    /// sync_read_refusals`) — a recovery back-pressure spike.
    pub sync_refusals: Option<u64>,
}

impl SloPolicy {
    /// A policy with every rule enabled at the given budgets — the shape
    /// the figure runner uses.
    pub fn strict(
        p99_budget_ns: u64,
        abort_storm_milli: u64,
        wal_refusals: u64,
        sync_refusals: u64,
    ) -> Self {
        SloPolicy {
            p99_budget_ns: Some(p99_budget_ns),
            abort_storm_milli: Some(abort_storm_milli),
            wal_refusals: Some(wal_refusals),
            sync_refusals: Some(sync_refusals),
        }
    }

    /// True when no rule is enabled (evaluation is a no-op).
    pub fn is_disabled(&self) -> bool {
        *self == SloPolicy::default()
    }

    /// Evaluate every enabled rule against a run's merged telemetry.
    /// Returns the tripped triggers, in rule order; an empty vector means
    /// the run stayed inside every budget.
    pub fn evaluate(&self, inputs: &SloInputs) -> Vec<SloTrigger> {
        let mut tripped = Vec::new();
        if let Some(budget) = self.p99_budget_ns {
            if inputs.p99_ns > budget {
                tripped.push(SloTrigger {
                    rule: SloRule::P99Latency,
                    value_milli: inputs.p99_ns,
                    budget_milli: budget,
                });
            }
        }
        if let Some(budget) = self.abort_storm_milli {
            // Integer milli-rate; a run with zero commits and any aborts
            // is the worst storm there is, so saturate rather than divide.
            let rate_milli = inputs
                .aborts
                .saturating_mul(1000)
                .checked_div(inputs.commits)
                .unwrap_or(if inputs.aborts == 0 { 0 } else { u64::MAX });
            if rate_milli > budget {
                tripped.push(SloTrigger {
                    rule: SloRule::AbortStorm,
                    value_milli: rate_milli,
                    budget_milli: budget,
                });
            }
        }
        if let Some(budget) = self.wal_refusals {
            if inputs.wal_refusals > budget {
                tripped.push(SloTrigger {
                    rule: SloRule::WalDegraded,
                    value_milli: inputs.wal_refusals,
                    budget_milli: budget,
                });
            }
        }
        if let Some(budget) = self.sync_refusals {
            if inputs.sync_refusals > budget {
                tripped.push(SloTrigger {
                    rule: SloRule::SyncRefusalSpike,
                    value_milli: inputs.sync_refusals,
                    budget_milli: budget,
                });
            }
        }
        tripped
    }
}

/// The telemetry a policy evaluation reads — all plain integers so callers
/// assemble it from whatever layer they own without import cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SloInputs {
    /// p99 commit latency, nanoseconds.
    pub p99_ns: u64,
    /// Committed transactions.
    pub commits: u64,
    /// Aborts of every kind (full + partial + locked).
    pub aborts: u64,
    /// `WalRefused` aborts — commits bounced by non-durable WALs.
    pub wal_refusals: u64,
    /// Rounds refused by still-syncing replicas (votes + reads).
    pub sync_refusals: u64,
}

/// Which rule tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloRule {
    /// p99 commit latency exceeded its budget.
    P99Latency,
    /// Aborts-per-commit exceeded the storm level.
    AbortStorm,
    /// `WalRefused` aborts exceeded their allowance (storage degraded).
    WalDegraded,
    /// Sync refusals exceeded their allowance (recovery back-pressure).
    SyncRefusalSpike,
}

impl SloRule {
    /// Stable label used in [`FlightRecord`] rows and artifact names.
    pub fn label(&self) -> &'static str {
        match self {
            SloRule::P99Latency => "p99_latency",
            SloRule::AbortStorm => "abort_storm",
            SloRule::WalDegraded => "wal_degraded",
            SloRule::SyncRefusalSpike => "sync_refusal_spike",
        }
    }
}

/// One tripped rule: the measured value against the budget it broke.
/// Units depend on the rule — nanoseconds for [`SloRule::P99Latency`],
/// milli-rate for [`SloRule::AbortStorm`], plain counts for the refusal
/// rules — and are named `_milli` for the export row they become.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloTrigger {
    /// The rule that tripped.
    pub rule: SloRule,
    /// Measured value, in the rule's unit.
    pub value_milli: u64,
    /// The budget it exceeded, same unit.
    pub budget_milli: u64,
}

section! {
    /// One flight-recorder row in the metrics report: which trigger fired,
    /// what it measured against its budget, and where the span dump landed.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct FlightRecord: "flight" {
        /// Tripped rule label ([`SloRule::label`]).
        pub trigger: String = "trigger",
        /// Measured value, in the rule's unit.
        pub value_milli: u64 = "value_milli",
        /// The budget it exceeded, same unit.
        pub budget_milli: u64 = "budget_milli",
        /// Path of the Chrome-trace artifact holding the span dump.
        pub artifact: String = "artifact",
    }
}

/// Dump the retained spans as one Chrome-trace flight-recorder artifact
/// under `dir` and return a [`FlightRecord`] row per tripped trigger, all
/// naming the shared artifact. `label` distinguishes concurrent dumps
/// (figure name, seed). No triggers → no artifact, no rows, no I/O.
pub fn record_flight(
    dir: &Path,
    label: &str,
    triggers: &[SloTrigger],
    spans: &[Span],
    threads: &[ThreadTraceRow],
) -> std::io::Result<Vec<FlightRecord>> {
    if triggers.is_empty() {
        return Ok(Vec::new());
    }
    std::fs::create_dir_all(dir)?;
    let path: PathBuf = dir.join(format!("flight-{label}.json"));
    std::fs::write(&path, write_chrome_trace(spans, threads))?;
    let artifact = path.to_string_lossy().into_owned();
    Ok(triggers
        .iter()
        .map(|t| FlightRecord {
            trigger: t.rule.label().to_owned(),
            value_milli: t.value_milli,
            budget_milli: t.budget_milli,
            artifact: artifact.clone(),
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chrome::parse_chrome_trace;
    use crate::span::{SpanKind, FLAG_COMMITTED};

    fn busy_inputs() -> SloInputs {
        SloInputs {
            p99_ns: 5_000_000,
            commits: 100,
            aborts: 350,
            wal_refusals: 12,
            sync_refusals: 3,
        }
    }

    #[test]
    fn disabled_policy_never_trips() {
        assert!(SloPolicy::default().is_disabled());
        assert!(SloPolicy::default().evaluate(&busy_inputs()).is_empty());
    }

    #[test]
    fn each_rule_trips_on_its_own_budget() {
        let policy = SloPolicy::strict(1_000_000, 2_000, 5, 100);
        let tripped = policy.evaluate(&busy_inputs());
        let rules: Vec<SloRule> = tripped.iter().map(|t| t.rule).collect();
        assert_eq!(
            rules,
            vec![
                SloRule::P99Latency,
                SloRule::AbortStorm,
                SloRule::WalDegraded
            ]
        );
        assert_eq!(tripped[0].value_milli, 5_000_000);
        assert_eq!(tripped[0].budget_milli, 1_000_000);
        assert_eq!(tripped[1].value_milli, 3_500, "350 aborts / 100 commits");
    }

    #[test]
    fn healthy_runs_stay_inside_every_budget() {
        let policy = SloPolicy::strict(10_000_000, 10_000, 100, 100);
        assert!(policy.evaluate(&busy_inputs()).is_empty());
    }

    #[test]
    fn zero_commit_storms_saturate_instead_of_dividing() {
        let policy = SloPolicy {
            abort_storm_milli: Some(1_000),
            ..Default::default()
        };
        let quiet = SloInputs::default();
        assert!(policy.evaluate(&quiet).is_empty(), "no traffic, no storm");
        let stormy = SloInputs {
            aborts: 7,
            ..Default::default()
        };
        let tripped = policy.evaluate(&stormy);
        assert_eq!(tripped.len(), 1);
        assert_eq!(tripped[0].value_milli, u64::MAX);
    }

    #[test]
    fn flight_record_dumps_a_valid_chrome_trace() {
        let dir = std::env::temp_dir().join(format!(
            "acn-slo-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let spans = vec![Span {
            id: 9,
            parent: 0,
            trace: 9,
            kind: SpanKind::Txn,
            class: 1,
            block: -1,
            node: 4,
            start_ns: 100,
            dur_ns: 2_000,
            flags: FLAG_COMMITTED,
        }];
        let threads = vec![ThreadTraceRow {
            thread: 0,
            recorded: 1,
            dropped: 0,
            capacity: 16,
        }];
        let triggers = [SloTrigger {
            rule: SloRule::AbortStorm,
            value_milli: 9_000,
            budget_milli: 2_000,
        }];
        let records = record_flight(&dir, "unit", &triggers, &spans, &threads).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].trigger, "abort_storm");
        let text = std::fs::read_to_string(&records[0].artifact).unwrap();
        let (back_spans, back_threads) = parse_chrome_trace(&text).unwrap();
        assert_eq!(back_spans, spans, "artifact round-trips exactly");
        assert_eq!(back_threads, threads);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn no_triggers_means_no_artifact() {
        let dir = std::env::temp_dir().join("acn-slo-test-should-not-exist");
        let records = record_flight(&dir, "none", &[], &[], &[]).unwrap();
        assert!(records.is_empty());
        assert!(!dir.exists(), "nothing tripped, nothing written");
    }
}
