//! The benchmark's fixed vocabulary: workload names, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repository
//! root repeats these; a unit test keeps the two in step. Later issues
//! cite these names, so they do not change.

/// What a workload runs. The shapes carry only the parameters that differ
/// between workloads; everything else is fixed in `adapter.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Bank on 4 servers at zero network latency, `hot_pool` 64 /
    /// `cold_pool` 4096. `file_wal` swaps the in-memory log for a
    /// file-backed one under group commit.
    Bank { write_pct: u8, file_wal: bool },
    /// TPC-C 100 % NewOrder on the paper's 10-server shape under
    /// 80–240 µs of injected one-way latency. `batch` routes it through
    /// the wave scheduler instead of the closed loop.
    NewOrder { batch: bool },
}

#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub shape: Shape,
    /// One line on why the workload exists (also in `BENCHMARK.json`).
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "bank_cpu",
        shape: Shape::Bank {
            write_pct: 90,
            file_wal: false,
        },
        why: "zero latency, memory WAL: simnet hand-off, Server::handle, Store and executor CPU do all the work",
    },
    WorkloadSpec {
        name: "bank_read",
        shape: Shape::Bank {
            write_pct: 10,
            file_wal: false,
        },
        why: "90% read-only audits: read quorum and validation only, almost no prepare, lock or WAL",
    },
    WorkloadSpec {
        name: "bank_wal",
        shape: Shape::Bank {
            write_pct: 90,
            file_wal: true,
        },
        why: "file WAL under group commit: append+fsync and ack parking dominate; must not move with bank_cpu",
    },
    WorkloadSpec {
        name: "neworder_lan",
        shape: Shape::NewOrder { batch: false },
        why: "the paper's regime: hot District counter, real partial rollbacks, round trips dominate CPU",
    },
    WorkloadSpec {
        name: "neworder_batch",
        shape: Shape::NewOrder { batch: true },
        why: "wave scheduler: symbolic resolution, plan_wave, counter prediction and mis-speculation repair",
    },
];

/// The one workload `BENCHMARK.json` does not list. The driver's time cap
/// is shared between the listed workloads, and runs shorter than 30 s
/// proved too easy for a spell of host interference to cover whole (three
/// covered runs of ten defeat the driver's quartiles); four workloads fit
/// at 30 s, five do not. This one goes because its latencies — whole-run,
/// 8 %-bucketed, from behind `run_scenario` — are the only ones that cannot
/// be taken per stretch. It still runs in the full suite, in `selfcheck`
/// and under `--workload`.
#[cfg(test)]
const NOT_DRIVER_GATED: &str = "neworder_batch";

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[cfg(test)]
impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the reference value by which the metric may worsen before
    /// it counts as a regression. Per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a caller of the system sees. `failed_share` is checked by the
/// correctness gate (it must be 0) and printed, but is not a bounded metric:
/// a value that is always 0 has no share to worsen by.
///
/// `peak_rss_mb` is not here either but among the per-layer metrics, as
/// `proc.peak_rss_mb`: ten identical `bank_cpu` runs spread 29 % on it with
/// throughput steady within 4 % (the allocator decides, not the commit
/// count), which no bound the contract allows can clear.
///
/// The bounds are what the reference box can hold, not what one would wish
/// for: ten identical runs (ten seeds, 30 s each) spread by up to 8 % on
/// `commits_per_s`, 6 % on `commit_p50_ms`, 16 % on `commit_p99_ms` and
/// 1.3 % on `msgs_per_commit` (IQR ÷ median, worst workload of two sets),
/// and by twice that when the host slows the VM down for a minute at a
/// time. A bound has to clear that spread or identical code fails it.
pub const END_TO_END: [MetricSpec; 5] = [
    e2e("commits_per_s", "1/s", Better::Higher, 0.25),
    e2e("commit_p50_ms", "ms", Better::Lower, 0.25),
    e2e("commit_p99_ms", "ms", Better::Lower, 0.25),
    e2e("msgs_per_commit", "msgs", Better::Lower, 0.08),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

use Better::{Higher, Lower};

/// Single-layer metrics, prefixed with the crate they measure. The order
/// follows a commit from the wire up.
pub const PER_LAYER: [MetricSpec; 52] = [
    // Drills: one layer's public functions timed in isolation.
    layer("simnet.handoff_us", "us", Lower),
    layer("simnet.send_ns", "ns", Lower),
    layer("simnet.broadcast_ns_per_member", "ns", Lower),
    layer("simnet.timer_overshoot_us", "us", Lower),
    layer("dtm.handle_read_batch_ns", "ns", Lower),
    layer("dtm.handle_prepare_ns", "ns", Lower),
    layer("dtm.handle_commit_ns", "ns", Lower),
    layer("dtm.store_read_ns", "ns", Lower),
    layer("dtm.store_apply_ns", "ns", Lower),
    layer("dtm.wal_frame_ns", "ns", Lower),
    layer("dtm.wal_append_mem_ns", "ns", Lower),
    layer("dtm.wal_append_file_ns", "ns", Lower),
    layer("dtm.wal_sync_file_us", "us", Lower),
    layer("dtm.txn_us", "us", Lower),
    layer("dtm.read_round_us", "us", Lower),
    layer("dtm.commit_round_us", "us", Lower),
    layer("core.run_us", "us", Lower),
    layer("core.exec_self_us", "us", Lower),
    layer("core.recompute_us", "us", Lower),
    layer("core.plan_wave_us", "us", Lower),
    layer("txir.resolve_ns", "ns", Lower),
    layer("txir.analyze_us", "us", Lower),
    layer("workloads.next_ns", "ns", Lower),
    layer("quorum.read_quorum_ns", "ns", Lower),
    layer("quorum.write_quorum_ns", "ns", Lower),
    layer("obs.on_event_ns", "ns", Lower),
    layer("ledger.coverage", "ratio", Higher),
    // Solo run: one client, zero latency, no aborts; counts repeat exactly.
    layer("dtm.solo_msgs_per_commit", "msgs", Lower),
    layer("dtm.solo_rounds_per_commit", "rounds", Lower),
    // Boundary counts around the traced rep's measured window.
    layer("dtm.rounds_per_commit", "rounds", Lower),
    layer("dtm.bytes_per_commit", "bytes", Lower),
    layer("dtm.validate_entries_per_commit", "entries", Lower),
    layer("dtm.rpc_retries", "count", Lower),
    layer("dtm.prepare_reject_share", "ratio", Lower),
    layer("dtm.wal_records_per_sync", "records", Higher),
    layer("dtm.wal_syncs_per_commit", "syncs", Lower),
    layer("core.attempts_per_commit", "attempts", Lower),
    layer("core.partial_share", "ratio", Higher),
    layer("core.reconfigs", "count", Lower),
    layer("core.controller_ns", "ns", Lower),
    layer("core.acn_over_flat", "ratio", Higher),
    layer("workloads.wave_width", "txns", Higher),
    layer("workloads.mispredict_share", "ratio", Lower),
    layer("workloads.cross_edges_per_txn", "edges", Lower),
    layer("workloads.seed_s", "s", Lower),
    layer("proc.cpu_us_per_commit", "us", Lower),
    layer("proc.peak_rss_mb", "MB", Lower),
    // Span self times of the traced rep, and what tracing itself cost.
    layer("span.core_run_us", "us", Lower),
    layer("span.workloads_next_ns", "ns", Lower),
    layer("span.loop_self_ns", "ns", Lower),
    layer("trace.commits_per_s", "1/s", Higher),
    layer("trace.overhead_share", "ratio", Lower),
];

/// Client threads of every workload. Fixed at 2 on every machine so numbers
/// compare across machines; matches `nproc` on the reference box.
pub const CLIENT_THREADS: usize = 2;

/// Seconds of discarded warm-up before each measured window.
pub const WARMUP_SECS: f64 = 2.0;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for m in &END_TO_END {
            let b = m.bound.expect("end-to-end metrics are bounded");
            assert!(b > 0.0 && b <= 0.25, "{} bound {b}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// binary prints. They must say the same thing.
    #[test]
    fn benchmark_json_repeats_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let workloads = doc.get("workloads").unwrap().as_arr().unwrap();
        let gated: Vec<_> = WORKLOADS
            .iter()
            .filter(|w| w.name != NOT_DRIVER_GATED)
            .collect();
        assert_eq!(workloads.len(), gated.len());
        for (j, w) in workloads.iter().zip(gated) {
            assert_eq!(j.get("name").unwrap().as_str(), Some(w.name));
            assert_eq!(j.get("why").unwrap().as_str(), Some(w.why));
        }
        let check = |key: &str, table: &[MetricSpec]| {
            let listed = doc.get(key).unwrap().as_arr().unwrap();
            assert_eq!(listed.len(), table.len(), "{key}");
            for (j, m) in listed.iter().zip(table) {
                assert_eq!(j.get("name").unwrap().as_str(), Some(m.name));
                assert_eq!(j.get("unit").unwrap().as_str(), Some(m.unit), "{}", m.name);
                assert_eq!(
                    j.get("better").unwrap().as_str(),
                    Some(m.better.label()),
                    "{}",
                    m.name
                );
                assert_eq!(j.get("bound").and_then(Json::as_f64), m.bound, "{}", m.name);
            }
        };
        check("end_to_end", &END_TO_END);
        check("per_layer", &PER_LAYER);
    }
}
