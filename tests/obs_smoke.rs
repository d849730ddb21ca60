//! Observability smoke test — the CI gate for the `acn-obs` layer.
//!
//! Runs a tiny contended Bank scenario with observability enabled and
//! checks the layer's end-to-end contract: abort attribution reconciles
//! *exactly* against the executor counters (no lost or double-counted
//! events), the hot class is identified as the top aborter, and the
//! JSON-lines export parses back to an equal report.

use acn_workloads::bank::{Bank, BankConfig};
use qr_acn::prelude::*;
use std::time::Duration;

fn observed_bank_config() -> (Bank, ScenarioConfig) {
    let bank = Bank::new(BankConfig {
        hot_pool: 8,
        cold_pool: 1024,
        write_pct: 95,
    });
    let mut cfg = ScenarioConfig::scaled(SystemKind::QrCn, 4);
    cfg.cluster = ClusterConfig::test(10, 4);
    // A real hop keeps every round in flight long enough for the four
    // workers to overlap. At zero latency the servers run on the sending
    // worker's thread and a whole transaction can fit in one time slice,
    // so whether any two ever conflict would depend on the scheduler.
    cfg.cluster.latency = LatencyModel::Constant(Duration::from_micros(20));
    cfg.cluster.window.window = Duration::from_millis(40);
    cfg.intervals = 3;
    cfg.interval = Duration::from_millis(80);
    cfg.obs = Some(ObsConfig::default());
    (bank, cfg)
}

fn observed_bank_scenario() -> ScenarioResult {
    let (bank, cfg) = observed_bank_config();
    run_scenario(&bank, &cfg)
}

#[test]
fn obs_smoke() {
    let r = observed_bank_scenario();
    assert!(r.total_commits() > 0, "scenario must make progress");
    let obs = r.obs.as_ref().expect("observability was enabled");

    // Attribution exactness: every abort the executor counted was
    // attributed exactly once — equality, not approximation.
    let counted = r.total_full_aborts() + r.total_partial_aborts() + r.total_locked_aborts();
    assert_eq!(
        obs.aborts.total_of(&AbortKind::EXECUTOR_KINDS),
        counted,
        "attributed aborts must equal the executor's counters exactly"
    );

    // Four threads on an 8-object hot Branch pool: contention is real,
    // and the hot class is the top aborter.
    assert!(counted > 0, "hot-pool Bank run should see aborts");
    let top = obs.aborts.top_classes(1);
    assert_eq!(top[0].0, "Branch", "hot class must top the table: {top:?}");

    // JSON-lines export: parses, round-trips to an equal value, and the
    // parsed counters match the run.
    let report = r.metrics_report(&[("bench", "obs_smoke".to_string())]);
    let text = report.to_json_lines();
    let parsed = MetricsReport::parse_json_lines(&text).expect("export must parse");
    assert_eq!(parsed, report, "JSON-lines round-trip must be exact");
    assert_eq!(parsed.exec.commits, r.total_commits());
    assert_eq!(parsed.exec.total_aborts(), counted);
    assert_eq!(
        parsed.attributed_total_of(&AbortKind::EXECUTOR_KINDS),
        counted
    );
    assert_eq!(parsed.top_classes(1)[0].0, "Branch");
}

/// `ExecCounters` exposed through the report agree with the per-interval
/// buckets — the regression guard for the counters the driver used to
/// drop (`locked_aborts`, `unavailable_retries`).
#[test]
fn report_carries_every_interval_counter() {
    let r = observed_bank_scenario();
    let report = r.metrics_report(&[]);
    assert_eq!(report.exec.commits, r.total_commits());
    assert_eq!(report.exec.full_aborts, r.total_full_aborts());
    assert_eq!(report.exec.partial_aborts, r.total_partial_aborts());
    assert_eq!(report.exec.locked_aborts, r.total_locked_aborts());
    assert_eq!(
        report.exec.unavailable_retries,
        r.total_unavailable_retries()
    );
}

/// The critical-path decomposition telescopes *exactly*: for every
/// committed transaction, `redo + lock + srvq + wal + net + local` equals
/// the end-to-end span duration in integer nanoseconds — no residue, no
/// double-counting — and the per-class aggregate counts every decomposed
/// transaction exactly once. The `wal` segment (group-commit park time,
/// carved out of `net` by the `WalPark` spans) must telescope with the
/// rest even when it is zero on an in-memory cluster.
#[test]
fn critical_path_sums_to_end_to_end() {
    let r = observed_bank_scenario();
    let obs = r.obs.as_ref().expect("observability was enabled");
    assert!(
        !obs.critpath.is_empty(),
        "committed transactions must decompose into critical paths"
    );
    for p in &obs.critpath {
        assert_eq!(
            p.redo_ns + p.lock_ns + p.srvq_ns + p.wal_ns + p.net_ns + p.local_ns,
            p.end_to_end_ns,
            "segments must telescope exactly for trace {}",
            p.trace
        );
    }
    // Ring accounting: one row per client worker thread plus the shared
    // server collector's row.
    assert_eq!(obs.thread_traces.len(), 4 + 1);
    assert!(obs
        .thread_traces
        .iter()
        .any(|row| row.thread == SERVER_TRACE_THREAD));
    // The whole-transaction (block == -1) aggregate rows carry the txn
    // counts: together they count every decomposed transaction once.
    let total: u64 = obs
        .critpath_rows
        .iter()
        .filter(|row| row.block == -1)
        .map(|row| row.txns)
        .sum();
    assert_eq!(total, obs.critpath.len() as u64);
}

/// The CI trace artifact: a contended Bank run over a lossy-free but slow
/// network whose Chrome-trace export round-trips *exactly* through the
/// vendored parser, and whose spans show the full client→server→client
/// nesting with non-zero server-queue and lock-wait segments. Prints the
/// repro seed on success; writes the trace into `$OBS_TRACE_DIR` when set
/// (CI uploads it as a workflow artifact).
#[test]
fn trace_artifact_round_trips() {
    let bank = Bank::new(BankConfig {
        hot_pool: 4,
        cold_pool: 512,
        write_pct: 95,
    });
    for seed in 42u64..=46 {
        let mut cfg = ScenarioConfig::scaled(SystemKind::QrCn, 4);
        cfg.cluster = ClusterConfig::test(10, 4);
        cfg.cluster.latency = LatencyModel::Uniform {
            min: Duration::from_micros(20),
            max: Duration::from_micros(120),
        };
        cfg.cluster.window.window = Duration::from_millis(40);
        cfg.intervals = 2;
        cfg.interval = Duration::from_millis(100);
        cfg.seed = seed;
        cfg.obs = Some(ObsConfig::default());
        let r = run_scenario(&bank, &cfg);
        let obs = r.obs.as_ref().expect("observability was enabled");

        let dur_of = |kind: SpanKind| -> u64 {
            obs.spans
                .iter()
                .filter(|s| s.kind == kind)
                .map(|s| s.dur_ns)
                .sum()
        };
        let lock = dur_of(SpanKind::LockWait);
        let srvq = dur_of(SpanKind::ServerQueue);
        if lock == 0 || srvq == 0 || obs.critpath.is_empty() {
            eprintln!("seed {seed}: lock={lock}ns srvq={srvq}ns — retrying with next seed");
            continue;
        }
        println!("trace artifact repro: contended Bank, seed {seed}");

        // Full nesting: some server-queue span hangs off a client quorum
        // round, which hangs off a committed attempt.
        let nested = obs.spans.iter().any(|sq| {
            sq.kind == SpanKind::ServerQueue
                && obs.spans.iter().any(|round| {
                    round.id == sq.parent
                        && SpanKind::ROUNDS.contains(&round.kind)
                        && obs
                            .spans
                            .iter()
                            .any(|att| att.id == round.parent && att.kind == SpanKind::Attempt)
                })
        });
        assert!(nested, "seed {seed}: no client→server→client span chain");

        // Exact export/import round-trip through the vendored parser.
        let text = write_chrome_trace(&obs.spans, &obs.thread_traces);
        let (spans, rows) = parse_chrome_trace(&text).expect("trace must parse");
        assert_eq!(spans, obs.spans, "span round-trip must be exact");
        assert_eq!(rows, obs.thread_traces, "thread rows must round-trip");

        if let Ok(dir) = std::env::var("OBS_TRACE_DIR") {
            let dir = std::path::PathBuf::from(dir);
            std::fs::create_dir_all(&dir).expect("create OBS_TRACE_DIR");
            let path = dir.join(format!("bank-contended-seed{seed}.trace.json"));
            std::fs::write(&path, &text).expect("write trace artifact");
            println!("wrote {}", path.display());
        }
        return;
    }
    panic!("no seed in 42..=46 produced both lock-wait and server-queue spans");
}

/// The wasted-work ledger reconciles *exactly* on a healthy run: every
/// work unit the executors performed is either committed or discarded
/// (never both, never lost), the per-kind breakdown sums to the discard
/// totals, and the ledger agrees with the executor's own counters.
#[test]
fn wasted_work_ledger_reconciles_exactly() {
    let r = observed_bank_scenario();
    let obs = r.obs.as_ref().expect("observability was enabled");
    assert!(!obs.wasted.is_empty(), "the ledger must have seen work");
    obs.wasted
        .check()
        .expect("wasted-work invariant must hold exactly");
    // Every commit ran at least one block to completion, and a contended
    // hot pool discards real work on the way.
    assert!(
        obs.wasted.committed.blocks >= r.total_commits(),
        "committed blocks ({}) must cover every commit ({})",
        obs.wasted.committed.blocks,
        r.total_commits()
    );
    assert!(
        !obs.wasted.discarded().is_zero(),
        "hot-pool aborts must discard work"
    );
    // The per-kind breakdown only ever blames kinds the executor raises.
    for kind in obs.wasted.by_kind.keys() {
        assert!(
            AbortKind::EXECUTOR_KINDS.contains(kind),
            "healthy run blamed non-executor kind {kind:?}"
        );
    }
}

/// The same invariant under a *pinned* fault schedule: crashes, drops and
/// duplicate deliveries must not lose or double-charge a single work
/// unit. This is the CI chaos leg — the seed is pinned so the schedule
/// (and therefore the assertion) is reproducible bit-for-bit.
#[test]
fn wasted_invariant_holds_under_chaos() {
    const FAULT_SEED: u64 = 2026;
    let bank = Bank::new(BankConfig {
        hot_pool: 8,
        cold_pool: 1024,
        write_pct: 95,
    });
    let mut cfg = ScenarioConfig::scaled(SystemKind::QrCn, 3);
    cfg.cluster = ClusterConfig::test(7, 3);
    cfg.cluster.client_cfg = ClientConfig {
        rpc_timeout: Duration::from_millis(30),
        quorum_retries: 3,
        retry_backoff: Duration::from_micros(100),
        ..ClientConfig::default()
    };
    cfg.cluster.prepared_ttl = Duration::from_secs(2);
    cfg.cluster.window.window = Duration::from_millis(50);
    cfg.intervals = 3;
    cfg.interval = Duration::from_millis(100);
    cfg.retry.max_unavailable_retries = 1_000;
    cfg.seed = FAULT_SEED ^ 0xABCD; // workload RNG, distinct from the fault stream
    cfg.chaos = Some(FaultPlan::generate(
        FAULT_SEED,
        7,
        3,
        &ChaosProfile::default(),
    ));
    cfg.obs = Some(ObsConfig::default());
    let r = run_scenario(&bank, &cfg);
    assert!(r.total_commits() > 0, "chaos run must make progress");
    let obs = r.obs.as_ref().expect("observability was enabled");
    obs.wasted.check().unwrap_or_else(|e| {
        panic!("seed {FAULT_SEED}: wasted-work invariant broke under chaos: {e}")
    });
    assert!(
        !obs.wasted.discarded().is_zero(),
        "seed {FAULT_SEED}: a fault schedule must discard some work"
    );
    // The report round-trips exactly with the chaos-shaped ledger rows in.
    let report = r.metrics_report(&[("bench", "obs_chaos".to_string())]);
    let parsed =
        MetricsReport::parse_json_lines(&report.to_json_lines()).expect("export must parse");
    assert_eq!(parsed, report, "chaos report round-trip must be exact");
}

/// The windowed series counts every commit and abort exactly once, on the
/// measurement-interval grid, and merges across the worker threads
/// without loss — the per-window cells sum back to the run's counters.
#[test]
fn windowed_series_counts_every_outcome() {
    let r = observed_bank_scenario();
    let obs = r.obs.as_ref().expect("observability was enabled");
    assert!(!obs.series.is_empty(), "the run must fill windows");
    assert_eq!(
        obs.series.window_ns(),
        Duration::from_millis(80).as_nanos() as u64,
        "series grid must be the measurement interval"
    );
    assert_eq!(obs.series.evicted(), 0, "no healthy run evicts windows");
    assert_eq!(
        obs.series.total_commits(),
        r.total_commits(),
        "series must count every commit exactly once"
    );
    let (mut fulls, mut partials, mut lat_samples) = (0u64, 0u64, 0u64);
    for (_, cell) in obs.series.iter() {
        fulls += cell.stats.full_aborts + cell.stats.locked_aborts;
        partials += cell.stats.partial_aborts;
        lat_samples += cell.latency.len();
    }
    assert_eq!(
        fulls,
        r.total_full_aborts() + r.total_locked_aborts(),
        "full restarts (incl. lock escalations) must land in the series"
    );
    assert_eq!(partials, r.total_partial_aborts());
    assert_eq!(
        lat_samples,
        r.total_commits(),
        "every commit must contribute one latency sample"
    );
}

/// The Prometheus exposition of a real run round-trips exactly through
/// the vendored parser — `parse(render(m)) == m` — and carries the
/// headline families the scrape surface promises.
#[test]
fn prometheus_export_round_trips() {
    let r = observed_bank_scenario();
    let report = r.metrics_report(&[("bench", "obs_prom".to_string())]);
    let metrics = report_to_prom(&report);
    assert!(!metrics.is_empty());
    let text = render_prom(&metrics);
    for family in [
        "acn_txns_total",
        "acn_commit_latency_ns",
        "acn_aborts_total",
        "acn_work_units_total",
    ] {
        assert!(text.contains(family), "exposition must carry {family}");
    }
    // Empty families are skipped on render — the round trip is exact
    // over every family that made the wire.
    let parsed = parse_prom(&text).expect("prometheus text must parse");
    let rendered: Vec<&PromMetric> = metrics.iter().filter(|m| !m.samples.is_empty()).collect();
    assert_eq!(parsed.len(), rendered.len());
    for (back, orig) in parsed.iter().zip(rendered) {
        assert_eq!(back, orig, "prometheus round-trip must be exact");
    }
    assert_eq!(render_prom(&parsed), text, "re-render must be identical");
}
