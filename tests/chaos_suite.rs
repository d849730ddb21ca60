//! The chaos suite: Bank, TPC-C and Vacation under seeded fault schedules.
//!
//! Every run installs a [`FaultPlan`] expanded from a single seed — message
//! drops/duplicates/delays plus a quorum-splitting partition and a server
//! crash window, all healing before the final measurement interval — and
//! records every committed transaction's read/write versions into a
//! [`HistoryLog`]. After the run the checker must find a serializable,
//! torn-commit-free history, and the healed tail of the run must show
//! progress.
//!
//! Reproduce a failure with `CHAOS_SEED=<seed> cargo test --test
//! chaos_suite` — the failing seed is printed on every assertion.

use qr_acn::prelude::*;
use qr_acn::workloads::bank::Bank;
use qr_acn::workloads::tpcc::Tpcc;
use qr_acn::workloads::vacation::Vacation;
use qr_acn::workloads::Workload;
use std::sync::Arc;
use std::time::Duration;

/// Eight fixed fault seeds (primes, for no particular reason beyond being
/// memorable). `CHAOS_SEED` replaces the whole list with one seed.
const SEEDS: [u64; 8] = [11, 23, 37, 41, 53, 67, 79, 97];

fn seeds() -> Vec<u64> {
    match std::env::var("CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("CHAOS_SEED must be a u64")],
        Err(_) => SEEDS.to_vec(),
    }
}

/// The suite's cluster and protocol shape: 7 servers / 3 clients, fast
/// RPC timeouts so fault windows are survivable within a 400 ms run.
///
/// `prepared_ttl` is deliberately *longer than the whole run*: a partition
/// can outlive any sub-second TTL while a decided commit's phase 2 is still
/// undeliverable to a minority member, and sweeping that member's lock
/// would let a second transaction commit the same version — a genuine torn
/// write. The TTL path itself is covered by `crates/dtm/tests/
/// chaos_recovery.rs`, where the coordinator is provably dead.
fn suite_config(system: SystemKind, fault_seed: u64) -> (ScenarioConfig, Arc<HistoryLog>) {
    let mut cfg = ScenarioConfig::scaled(system, 3);
    cfg.cluster = ClusterConfig::test(7, 3);
    cfg.cluster.client_cfg = ClientConfig {
        rpc_timeout: Duration::from_millis(30),
        quorum_retries: 3,
        retry_backoff: Duration::from_micros(100),
        ..ClientConfig::default()
    };
    cfg.cluster.prepared_ttl = Duration::from_secs(2);
    cfg.cluster.window.window = Duration::from_millis(50);
    cfg.intervals = 4;
    cfg.interval = Duration::from_millis(100);
    cfg.controller.period = Duration::from_millis(100);
    cfg.retry.max_unavailable_retries = 1_000;
    cfg.seed = fault_seed ^ 0xABCD; // workload RNG, distinct from the fault stream
    cfg.chaos = Some(FaultPlan::generate(
        fault_seed,
        7,
        3,
        &ChaosProfile::default(),
    ));
    let history = Arc::new(HistoryLog::new());
    cfg.history = Some(Arc::clone(&history));
    (cfg, history)
}

/// Run one workload under one fault seed; assert the committed history is
/// clean and that the healed tail made progress. Returns the verdict for
/// determinism comparisons.
fn run_under_seed(workload: &dyn Workload, system: SystemKind, fault_seed: u64) -> bool {
    eprintln!("chaos seed {fault_seed} ({system})");
    let (cfg, history) = suite_config(system, fault_seed);
    let result = qr_acn::workloads::run_scenario(workload, &cfg);
    let records = history.snapshot();
    let verdict = check_history(&records);
    if let Err(violations) = &verdict {
        panic!(
            "seed {fault_seed}: history checker failed with {} violation(s): {:#?}",
            violations.len(),
            &violations[..violations.len().min(5)]
        );
    }
    assert!(
        result
            .intervals
            .last()
            .expect("intervals non-empty")
            .commits
            > 0,
        "seed {fault_seed}: no progress after faults healed: {:?}",
        result.intervals
    );
    assert!(
        result.total_commits() as usize <= records.len(),
        "seed {fault_seed}: every counted commit must be in the history \
         ({} counted, {} recorded)",
        result.total_commits(),
        records.len()
    );
    verdict.is_ok()
}

/// Run one workload in **batch-ingest mode** under one fault seed: the
/// conflict-graph scheduler dispatches wave after wave (with overlap, so
/// cross-wave conflicts are genuinely speculative) while the fault schedule
/// drops, duplicates and delays messages. The DTM's validation still
/// guards every commit — speculation changes who aborts and how aborts are
/// repaired, never what commits — so the history checker must stay clean
/// and abort attribution must reconcile exactly against the new `Spec*`
/// kinds.
fn run_batch_seed(workload: &dyn Workload, system: SystemKind, spec: SpecMode, fault_seed: u64) {
    run_batch_seed_with(workload, system, spec, false, fault_seed)
}

fn run_batch_seed_with(
    workload: &dyn Workload,
    system: SystemKind,
    spec: SpecMode,
    speculate_inexact: bool,
    fault_seed: u64,
) {
    eprintln!("batch chaos seed {fault_seed} ({system}, {spec:?}, speculate={speculate_inexact})");
    let (mut cfg, history) = suite_config(system, fault_seed);
    cfg.batch = Some(BatchConfig {
        wave: 24,
        spec,
        overlap: true,
        speculate_inexact,
    });
    cfg.obs = Some(ObsConfig::default());
    let result = qr_acn::workloads::run_scenario(workload, &cfg);

    let records = history.snapshot();
    if let Err(violations) = check_history(&records) {
        panic!(
            "seed {fault_seed}: batch-mode run failed the history checker with {} violation(s): \
             {:#?}\nreproduce with: CHAOS_SEED={fault_seed} cargo test --test chaos_suite",
            violations.len(),
            &violations[..violations.len().min(5)]
        );
    }
    assert!(
        result.total_commits() > 0,
        "seed {fault_seed}: batch mode made no progress: {:?}",
        result.intervals
    );
    let ws = result.batch.expect("wave stats present in batch mode");
    assert!(
        ws.txns >= result.total_commits(),
        "seed {fault_seed}: every counted commit was scheduled through a wave"
    );
    let obs = result.obs.as_ref().expect("observability was enabled");
    let counted =
        result.total_full_aborts() + result.total_partial_aborts() + result.total_locked_aborts();
    assert_eq!(
        obs.aborts.total_of(&AbortKind::EXECUTOR_KINDS),
        counted,
        "seed {fault_seed}: attributed aborts must equal executor counters in batch mode"
    );
    assert_eq!(
        obs.aborts.total_of(&[
            AbortKind::ReadInvalid,
            AbortKind::CommitConflict,
            AbortKind::Partial,
        ]),
        0,
        "seed {fault_seed}: batch-mode aborts must carry the Spec* labels"
    );
}

#[test]
fn bank_batch_history_is_serializable_under_every_seed() {
    let bank = Bank::default();
    for seed in seeds() {
        run_batch_seed(&bank, SystemKind::QrCn, SpecMode::Partial, seed);
    }
}

#[test]
fn tpcc_batch_history_is_serializable_under_every_seed() {
    let tpcc = Tpcc::new(
        qr_acn::workloads::tpcc::TpccConfig {
            warehouses: 2,
            districts_per_warehouse: 4,
            customers_per_district: 20,
            items: 40,
            ol_min: 3,
            ol_max: 6,
        },
        qr_acn::workloads::tpcc::TpccMix::MIXED,
    );
    for seed in seeds() {
        run_batch_seed(&tpcc, SystemKind::QrCn, SpecMode::Partial, seed);
    }
}

/// The Block-STM-style ablation arm survives chaos too: flat sequences,
/// full re-execution on every mis-speculation, history still clean.
#[test]
fn bank_batch_full_restart_stays_serializable() {
    let bank = Bank::default();
    run_batch_seed(&bank, SystemKind::QrCn, SpecMode::FullRestart, SEEDS[1]);
}

/// The NEW_ORDER-only mix on the `speculate_inexact` arm: every instance
/// carries predicted-exact access sets from the symbolic resolver and the
/// hot-counter predictor, so wrong counter guesses surface dynamically as
/// `spec_mispredict` aborts while fault injection scrambles the message
/// schedule underneath. The history must stay clean and abort attribution
/// must reconcile exactly — mispredictions get their own kind instead of
/// being lumped into `SpecPartial` (DESIGN.md §14).
#[test]
fn tpcc_neworder_batch_speculative_attribution_stays_exact() {
    let tpcc = Tpcc::new(
        qr_acn::workloads::tpcc::TpccConfig {
            warehouses: 2,
            districts_per_warehouse: 4,
            customers_per_district: 20,
            items: 40,
            ol_min: 3,
            ol_max: 6,
        },
        qr_acn::workloads::tpcc::TpccMix::NEW_ORDER,
    );
    for seed in seeds() {
        run_batch_seed_with(&tpcc, SystemKind::QrCn, SpecMode::Partial, true, seed);
    }
}

/// Run one workload under an **amnesia-crash** schedule: one server loses
/// its entire store mid-run and must catch up from its peers before it may
/// serve reads or vote again. Asserts the committed history stays clean,
/// the healed tail makes progress (post-recovery staleness converges), the
/// wipe-and-catch-up actually happened, and abort attribution still
/// reconciles exactly — sync refusals included.
fn run_amnesia_seed(workload: &dyn Workload, system: SystemKind, fault_seed: u64) {
    eprintln!("amnesia chaos seed {fault_seed} ({system})");
    let (mut cfg, history) = suite_config(system, fault_seed);
    cfg.chaos = Some(FaultPlan::generate(
        fault_seed,
        7,
        3,
        &ChaosProfile {
            partitions: 0,
            crashes: 0,
            amnesia_crashes: 1,
            ..ChaosProfile::default()
        },
    ));
    cfg.obs = Some(ObsConfig::default());
    let result = qr_acn::workloads::run_scenario(workload, &cfg);

    let records = history.snapshot();
    if let Err(violations) = check_history(&records) {
        panic!(
            "seed {fault_seed}: amnesia run failed the history checker with {} violation(s): {:#?}",
            violations.len(),
            &violations[..violations.len().min(5)]
        );
    }
    assert!(
        result
            .intervals
            .last()
            .expect("intervals non-empty")
            .commits
            > 0,
        "seed {fault_seed}: no progress after the amnesia window healed: {:?}",
        result.intervals
    );
    assert!(
        result.recovery.amnesia_wipes >= 1,
        "seed {fault_seed}: the scheduled amnesia crash must have wiped a replica"
    );
    assert!(
        result.recovery.syncs_completed >= 1,
        "seed {fault_seed}: the wiped replica must finish catch-up before the run ends \
         (wipes={}, completed={})",
        result.recovery.amnesia_wipes,
        result.recovery.syncs_completed
    );
    // Attribution exactness survives recovery back-pressure: every abort
    // the executor counted — sync-refused commits included — is attributed
    // exactly once.
    let obs = result.obs.as_ref().expect("observability was enabled");
    let counted =
        result.total_full_aborts() + result.total_partial_aborts() + result.total_locked_aborts();
    assert_eq!(
        obs.aborts.total_of(&AbortKind::EXECUTOR_KINDS),
        counted,
        "seed {fault_seed}: attributed aborts must equal executor counters under amnesia chaos"
    );
}

/// Under a faulted run — message drops, duplicates, delays and an amnesia
/// crash — every server-side span must still attach to a client-side parent
/// span. The client closes its round span on *every* exit path (timeouts
/// included), so a server span whose request was duplicated, or whose reply
/// was dropped, still resolves to a recorded parent: no orphans.
#[test]
fn server_spans_have_client_parents_under_chaos() {
    let bank = Bank::default();
    let fault_seed = SEEDS[2];
    eprintln!("orphan-span chaos seed {fault_seed}");
    let (mut cfg, _history) = suite_config(SystemKind::QrCn, fault_seed);
    cfg.chaos = Some(FaultPlan::generate(
        fault_seed,
        7,
        3,
        &ChaosProfile {
            partitions: 0,
            crashes: 0,
            amnesia_crashes: 1,
            ..ChaosProfile::default()
        },
    ));
    // Rings big enough that nothing is evicted: a dropped client span would
    // make the check vacuous (an orphan could hide behind the eviction).
    cfg.obs = Some(ObsConfig {
        span_capacity: 1 << 18,
    });
    let result = qr_acn::workloads::run_scenario(&bank, &cfg);

    let obs = result.obs.as_ref().expect("observability was enabled");
    for row in &obs.thread_traces {
        assert_eq!(
            row.dropped, 0,
            "seed {fault_seed}: ring {} evicted spans; orphan check would be vacuous",
            row.thread
        );
    }
    let client_ids: std::collections::HashSet<u64> = obs
        .spans
        .iter()
        .filter(|s| !SpanKind::SERVER.contains(&s.kind))
        .map(|s| s.id)
        .collect();
    let server_spans: Vec<&Span> = obs
        .spans
        .iter()
        .filter(|s| SpanKind::SERVER.contains(&s.kind))
        .collect();
    assert!(
        !server_spans.is_empty(),
        "seed {fault_seed}: a faulted bank run must record server-side spans"
    );
    for s in &server_spans {
        // WalSync is the one deliberate root: an fsync batches records
        // from many rounds, so it carries no single client parent.
        if s.kind == SpanKind::WalSync {
            assert_eq!(s.parent, 0, "WalSync spans are server-local roots");
            assert_eq!(s.trace, 0, "WalSync spans belong to no client trace");
            continue;
        }
        assert!(
            s.parent != 0 && client_ids.contains(&s.parent),
            "seed {fault_seed}: orphan {:?} span on node {} (parent {} not found \
             among {} client spans)",
            s.kind,
            s.node,
            s.parent,
            client_ids.len()
        );
    }
}

/// One seed always expands to one fault schedule, and two consecutive runs
/// of the same seeded scenario reach the same invariant-checker verdict.
#[test]
fn same_seed_same_schedule_and_verdict() {
    for seed in [3u64, 1337, 0xDEAD_BEEF] {
        let a = FaultPlan::generate(seed, 7, 3, &ChaosProfile::default());
        let b = FaultPlan::generate(seed, 7, 3, &ChaosProfile::default());
        assert_eq!(a, b, "seed {seed} expanded to two different plans");
        assert_ne!(
            a,
            FaultPlan::generate(seed + 1, 7, 3, &ChaosProfile::default()),
            "adjacent seeds should not collide"
        );
    }
    let bank = Bank::default();
    let first = run_under_seed(&bank, SystemKind::QrDtm, SEEDS[0]);
    let second = run_under_seed(&bank, SystemKind::QrDtm, SEEDS[0]);
    assert_eq!(first, second, "same seed, different verdicts");
}

#[test]
fn bank_history_is_serializable_under_every_seed() {
    let bank = Bank::default();
    for seed in seeds() {
        run_under_seed(&bank, SystemKind::QrAcn, seed);
    }
}

#[test]
fn tpcc_history_is_serializable_under_every_seed() {
    // Scaled-down catalog: the suite stresses the protocol under faults,
    // not workload size, and seeding 600 objects per run × 8 seeds would
    // dominate the suite's runtime.
    let tpcc = Tpcc::new(
        qr_acn::workloads::tpcc::TpccConfig {
            warehouses: 2,
            districts_per_warehouse: 4,
            customers_per_district: 20,
            items: 40,
            ol_min: 3,
            ol_max: 6,
        },
        qr_acn::workloads::tpcc::TpccMix::MIXED,
    );
    for seed in seeds() {
        run_under_seed(&tpcc, SystemKind::QrDtm, seed);
    }
}

/// NewOrder-only TPC-C whose seeding also plants an ORDER row at every
/// district's first order id — the row the district's first NewOrder will
/// derive and presume absent.
struct CollidingOrders(Tpcc);

impl CollidingOrders {
    fn planted(&self) -> Vec<ObjectId> {
        let cfg = self.0.config();
        (0..cfg.warehouses)
            .flat_map(|w| (0..cfg.districts_per_warehouse).map(move |d| (w, d)))
            .map(|(w, d)| {
                ObjectId::new(
                    qr_acn::workloads::schema::ORDER,
                    self.0.district_index(w, d) * 1_000_000,
                )
            })
            .collect()
    }
}

impl Workload for CollidingOrders {
    fn name(&self) -> &str {
        "tpcc/colliding-orders"
    }
    fn templates(&self) -> &[Program] {
        self.0.templates()
    }
    fn manual_groups(&self, t: usize, dm: &DependencyModel) -> Vec<Vec<usize>> {
        self.0.manual_groups(t, dm)
    }
    fn next(&self, rng: &mut rand::rngs::StdRng, phase: usize) -> TxnRequest {
        self.0.next(rng, phase)
    }
    fn seed(&self, client: &mut DtmClient) {
        self.0.seed(client);
        qr_acn::workloads::seed_txn(client, |client, ctx| {
            for row in self.planted() {
                ctx.open(client, row, true)?;
                ctx.set_field(row, qr_acn::workloads::schema::O_CARRIER, Value::Int(7));
            }
            Ok(())
        });
    }
}

/// Negative control for value-blind opens in the closed loop: the inserts
/// of a NewOrder are opened with no read round, presuming the rows absent.
/// Here the presumption is wrong for every district's first order, while
/// messages drop, duplicate and arrive late. Prepare must reject the
/// version-0 presumption, the executor must demote the row and retry on its
/// real copy — so the collision costs an abort, never an insert.
#[test]
fn colliding_insert_under_drop_dup_is_demoted_not_lost() {
    let tpcc = CollidingOrders(Tpcc::new(
        qr_acn::workloads::tpcc::TpccConfig {
            warehouses: 2,
            districts_per_warehouse: 4,
            customers_per_district: 20,
            items: 40,
            ol_min: 3,
            ol_max: 6,
        },
        qr_acn::workloads::tpcc::TpccMix::NEW_ORDER,
    ));
    let planted = tpcc.planted();
    for fault_seed in seeds() {
        eprintln!("colliding-insert chaos seed {fault_seed}");
        let (mut cfg, history) = suite_config(SystemKind::QrAcn, fault_seed);
        cfg.chaos = Some(FaultPlan::generate(
            fault_seed,
            7,
            3,
            &ChaosProfile {
                partitions: 0,
                crashes: 0,
                ..ChaosProfile::default()
            },
        ));
        cfg.obs = Some(ObsConfig::default());
        let result = qr_acn::workloads::run_scenario(&tpcc, &cfg);

        let records = history.snapshot();
        if let Err(violations) = check_history(&records) {
            panic!(
                "seed {fault_seed}: history checker failed with {} violation(s): {:#?}",
                violations.len(),
                &violations[..violations.len().min(5)]
            );
        }
        let inventories: Vec<_> = result
            .server_stats
            .iter()
            .map(|s| s.inventory.clone())
            .collect();
        if let Err(violations) = check_durability(&records, &history.acked_snapshot(), &inventories)
        {
            panic!(
                "seed {fault_seed}: lost-ack checker failed with {} violation(s): {:#?}",
                violations.len(),
                &violations[..violations.len().min(5)]
            );
        }
        let obs = result.obs.as_ref().expect("observability was enabled");
        assert_eq!(
            obs.aborts.total_of(&AbortKind::EXECUTOR_KINDS),
            result.total_full_aborts()
                + result.total_partial_aborts()
                + result.total_locked_aborts(),
            "seed {fault_seed}: attributed aborts must equal executor counters"
        );
        // The seeder's record installs each planted row; the one NewOrder
        // that later writes it must have read that very version — the
        // demoted open's real read, not the version-0 presumption.
        let mut installed = std::collections::HashMap::new();
        let mut collisions = 0u64;
        for r in &records {
            for (row, version) in &r.writes {
                if !planted.contains(row) {
                    continue;
                }
                match installed.get(row) {
                    None => {
                        installed.insert(*row, *version);
                    }
                    Some(planted_at) => {
                        let read = r.reads.iter().find(|(o, _)| o == row);
                        assert_eq!(
                            read.map(|(_, v)| v),
                            Some(planted_at),
                            "seed {fault_seed}: {row} was overwritten without being read"
                        );
                        collisions += 1;
                    }
                }
            }
        }
        assert!(
            collisions >= 1,
            "seed {fault_seed}: some district placed its first order"
        );
        assert!(
            result.total_full_aborts() >= collisions,
            "seed {fault_seed}: every collision costs the rejected prepare \
             ({collisions} collisions, {} full aborts)",
            result.total_full_aborts()
        );
    }
}

#[test]
fn vacation_history_is_serializable_under_every_seed() {
    let vacation = Vacation::default();
    for seed in seeds() {
        run_under_seed(&vacation, SystemKind::QrCn, seed);
    }
}

#[test]
fn bank_recovers_from_amnesia_crashes_under_every_seed() {
    let bank = Bank::default();
    for seed in seeds() {
        run_amnesia_seed(&bank, SystemKind::QrAcn, seed);
    }
}

#[test]
fn vacation_recovers_from_amnesia_crashes_under_every_seed() {
    let vacation = Vacation::default();
    for seed in seeds() {
        run_amnesia_seed(&vacation, SystemKind::QrCn, seed);
    }
}

/// Run one workload under a **crash-restart** schedule: one server crashes
/// keeping its durable log, replays it on rejoin, and fetches only the
/// outage delta from peers. Asserts the committed history stays clean, the
/// healed tail makes progress, the replay-then-delta-sync recovery actually
/// happened (amnesia was *not* involved), abort attribution reconciles
/// exactly, and the recovery counters survive the metrics-report round
/// trip.
fn run_crash_restart_seed(workload: &dyn Workload, system: SystemKind, fault_seed: u64) {
    eprintln!("crash-restart chaos seed {fault_seed} ({system})");
    let (mut cfg, history) = suite_config(system, fault_seed);
    cfg.chaos = Some(FaultPlan::generate(
        fault_seed,
        7,
        3,
        &ChaosProfile {
            partitions: 0,
            crashes: 0,
            restart_crashes: 1,
            ..ChaosProfile::default()
        },
    ));
    cfg.obs = Some(ObsConfig::default());
    let result = qr_acn::workloads::run_scenario(workload, &cfg);

    let records = history.snapshot();
    if let Err(violations) = check_history(&records) {
        panic!(
            "seed {fault_seed}: crash-restart run failed the history checker with \
             {} violation(s): {:#?}\nreproduce with: CHAOS_SEED={fault_seed} cargo test \
             --test chaos_suite",
            violations.len(),
            &violations[..violations.len().min(5)]
        );
    }
    assert!(
        result
            .intervals
            .last()
            .expect("intervals non-empty")
            .commits
            > 0,
        "seed {fault_seed}: no progress after the restart window healed: {:?}",
        result.intervals
    );
    assert!(
        result.recovery.restart_replays >= 1,
        "seed {fault_seed}: the scheduled crash-restart must have replayed a WAL"
    );
    assert!(
        result.recovery.wal_records_replayed >= 1,
        "seed {fault_seed}: the victim was seeded before the crash, its log cannot be empty"
    );
    assert_eq!(
        result.recovery.amnesia_wipes, 0,
        "seed {fault_seed}: a restart crash must not wipe the disk"
    );
    assert!(
        result.recovery.syncs_completed >= 1,
        "seed {fault_seed}: the restarted replica must finish its delta sync before the \
         run ends (replays={}, completed={})",
        result.recovery.restart_replays,
        result.recovery.syncs_completed
    );
    // Attribution exactness survives recovery back-pressure.
    let obs = result.obs.as_ref().expect("observability was enabled");
    let counted =
        result.total_full_aborts() + result.total_partial_aborts() + result.total_locked_aborts();
    assert_eq!(
        obs.aborts.total_of(&AbortKind::EXECUTOR_KINDS),
        counted,
        "seed {fault_seed}: attributed aborts must equal executor counters under restart chaos"
    );
    // The new counters ride the metrics report, not just ScenarioResult.
    let report = result.metrics_report(&[]);
    let reported = report
        .recovery
        .expect("a restart run must report recovery counters");
    assert_eq!(
        reported, result.recovery,
        "seed {fault_seed}: reported recovery counters must match the run's"
    );
}

#[test]
fn bank_recovers_from_crash_restarts_under_every_seed() {
    let bank = Bank::default();
    for seed in seeds() {
        run_crash_restart_seed(&bank, SystemKind::QrAcn, seed);
    }
}

#[test]
fn tpcc_recovers_from_crash_restarts_under_every_seed() {
    // Same scaled-down catalog as the serializability TPC-C arm.
    let tpcc = Tpcc::new(
        qr_acn::workloads::tpcc::TpccConfig {
            warehouses: 2,
            districts_per_warehouse: 4,
            customers_per_district: 20,
            items: 40,
            ol_min: 3,
            ol_max: 6,
        },
        qr_acn::workloads::tpcc::TpccMix::MIXED,
    );
    for seed in seeds() {
        run_crash_restart_seed(&tpcc, SystemKind::QrDtm, seed);
    }
}

/// Run one workload through the **durability gauntlet**: group-commit
/// batching on every replica's WAL, seeded storage faults (append and sync
/// I/O errors with degraded-mode vote refusals), and a crash-restart whose
/// reload drops the victim's entire unsynced suffix — the OS page cache
/// the power cut never flushed. The lost-ack invariant must hold anyway:
/// every transaction whose commit the client saw acknowledged survives in
/// at least one final replica inventory, and no replica replays a version
/// nobody committed. Acks are only honest if the server defers them until
/// the covering WAL record is durable; this profile is the test that
/// catches an early ack.
fn run_durability_seed(workload: &dyn Workload, system: SystemKind, fault_seed: u64) {
    eprintln!("durability chaos seed {fault_seed} ({system})");
    let (mut cfg, history) = suite_config(system, fault_seed);
    cfg.chaos = Some(FaultPlan::generate(
        fault_seed,
        7,
        3,
        &ChaosProfile {
            partitions: 0,
            crashes: 0,
            restart_crashes: 1,
            ..ChaosProfile::default()
        },
    ));
    cfg.obs = Some(ObsConfig::default());
    cfg.cluster.durability = DurabilityMode::GroupCommit {
        max_records: 8,
        max_delay: Duration::from_millis(2),
    };
    cfg.cluster.wal_faults = Some(FaultLogConfig {
        seed: fault_seed,
        append_error_p: 0.02,
        sync_error_p: 0.02,
        lose_unsynced_on_restart: true,
        ..FaultLogConfig::default()
    });
    let result = qr_acn::workloads::run_scenario(workload, &cfg);

    let records = history.snapshot();
    if let Err(violations) = check_history(&records) {
        panic!(
            "seed {fault_seed}: durability run failed the history checker with \
             {} violation(s): {:#?}\nreproduce with: CHAOS_SEED={fault_seed} cargo test \
             --test chaos_suite",
            violations.len(),
            &violations[..violations.len().min(5)]
        );
    }
    let acked = history.acked_snapshot();
    let inventories: Vec<_> = result
        .server_stats
        .iter()
        .map(|s| s.inventory.clone())
        .collect();
    match check_durability(&records, &acked, &inventories) {
        Ok(summary) => {
            assert!(
                summary.acked_commits > 0,
                "seed {fault_seed}: the run acknowledged commits, the checker must see them"
            );
            assert_eq!(
                summary.replicas, 7,
                "seed {fault_seed}: every replica reported an inventory"
            );
        }
        Err(violations) => panic!(
            "seed {fault_seed}: lost-ack checker failed with {} violation(s): {:#?}\n\
             reproduce with: CHAOS_SEED={fault_seed} cargo test --test chaos_suite",
            violations.len(),
            &violations[..violations.len().min(5)]
        ),
    }
    assert!(
        result
            .intervals
            .last()
            .expect("intervals non-empty")
            .commits
            > 0,
        "seed {fault_seed}: no progress after the restart window healed: {:?}",
        result.intervals
    );
    assert!(
        result.recovery.restart_replays >= 1,
        "seed {fault_seed}: the scheduled crash-restart must have replayed a WAL"
    );
    // No lower bound on `wal_records_replayed` here: if the victim joined
    // its first write quorum shortly before the crash, the lost unsynced
    // suffix can legitimately be its *entire* log — that is the fault
    // being modeled, and the lost-ack check above is what bounds it.
    assert!(
        result.recovery.wal_sync_batches >= 1,
        "seed {fault_seed}: deferred acks force syncs; none were counted"
    );
    assert!(
        result.recovery.wal_records_synced >= result.recovery.wal_sync_batches,
        "seed {fault_seed}: every counted sync batch covers at least one record \
         (batches={}, records={})",
        result.recovery.wal_sync_batches,
        result.recovery.wal_records_synced
    );
    // Attribution exactness survives storage back-pressure: `wal_refused`
    // votes get their own kind instead of inflating CommitConflict.
    let obs = result.obs.as_ref().expect("observability was enabled");
    let counted =
        result.total_full_aborts() + result.total_partial_aborts() + result.total_locked_aborts();
    assert_eq!(
        obs.aborts.total_of(&AbortKind::EXECUTOR_KINDS),
        counted,
        "seed {fault_seed}: attributed aborts must equal executor counters under storage faults"
    );
}

#[test]
fn bank_durability_survives_suffix_loss_under_every_seed() {
    let bank = Bank::default();
    for seed in seeds() {
        run_durability_seed(&bank, SystemKind::QrAcn, seed);
    }
}

#[test]
fn tpcc_durability_survives_suffix_loss_under_every_seed() {
    // Same scaled-down catalog as the serializability TPC-C arm.
    let tpcc = Tpcc::new(
        qr_acn::workloads::tpcc::TpccConfig {
            warehouses: 2,
            districts_per_warehouse: 4,
            customers_per_district: 20,
            items: 40,
            ol_min: 3,
            ol_max: 6,
        },
        qr_acn::workloads::tpcc::TpccMix::MIXED,
    );
    for seed in seeds() {
        run_durability_seed(&tpcc, SystemKind::QrDtm, seed);
    }
}

/// Both crash flavors in one schedule: one replica restarts with its log,
/// another loses everything. The two recovery paths must coexist without
/// confusing each other's sync traffic (incarnations keep them apart), the
/// history must stay clean, and both paths must complete.
#[test]
fn mixed_restart_and_amnesia_crashes_stay_serializable() {
    let bank = Bank::default();
    for fault_seed in seeds() {
        eprintln!("mixed crash chaos seed {fault_seed}");
        let (mut cfg, history) = suite_config(SystemKind::QrAcn, fault_seed);
        cfg.chaos = Some(FaultPlan::generate(
            fault_seed,
            7,
            3,
            &ChaosProfile {
                partitions: 0,
                crashes: 0,
                amnesia_crashes: 1,
                restart_crashes: 1,
                ..ChaosProfile::default()
            },
        ));
        cfg.obs = Some(ObsConfig::default());
        let result = qr_acn::workloads::run_scenario(&bank, &cfg);

        let records = history.snapshot();
        if let Err(violations) = check_history(&records) {
            panic!(
                "seed {fault_seed}: mixed-crash run failed the history checker with \
                 {} violation(s): {:#?}",
                violations.len(),
                &violations[..violations.len().min(5)]
            );
        }
        assert!(
            result
                .intervals
                .last()
                .expect("intervals non-empty")
                .commits
                > 0,
            "seed {fault_seed}: no progress after the mixed crash windows healed"
        );
        assert!(
            result.recovery.restart_replays >= 1,
            "seed {fault_seed}: the restart crash must have replayed a WAL"
        );
        assert!(
            result.recovery.amnesia_wipes >= 1,
            "seed {fault_seed}: the amnesia crash must have wiped a replica"
        );
        // ≥ 1, not 2: overlapping windows on one victim legitimately merge
        // the two recoveries into a single completed catch-up.
        assert!(
            result.recovery.syncs_completed >= 1,
            "seed {fault_seed}: recovery must complete before the run ends \
             (replays={}, wipes={}, completed={})",
            result.recovery.restart_replays,
            result.recovery.amnesia_wipes,
            result.recovery.syncs_completed
        );
        let obs = result.obs.as_ref().expect("observability was enabled");
        let counted = result.total_full_aborts()
            + result.total_partial_aborts()
            + result.total_locked_aborts();
        assert_eq!(
            obs.aborts.total_of(&AbortKind::EXECUTOR_KINDS),
            counted,
            "seed {fault_seed}: attributed aborts must reconcile under mixed crash chaos"
        );
    }
}

/// Negative control: the checker must flag a deliberately torn commit — a
/// forged transaction claiming a write of an already-committed version.
#[test]
fn checker_flags_a_deliberately_torn_commit() {
    let bank = Bank::default();
    let mut cfg = ScenarioConfig::scaled(SystemKind::QrDtm, 2);
    cfg.cluster = ClusterConfig::test(4, 2);
    cfg.intervals = 2;
    cfg.interval = Duration::from_millis(50);
    let history = Arc::new(HistoryLog::new());
    cfg.history = Some(Arc::clone(&history));
    let _ = qr_acn::workloads::run_scenario(&bank, &cfg);

    let mut records = history.snapshot();
    check_history(&records).expect("healthy run must be clean");
    let victim = records
        .iter()
        .find(|r| !r.writes.is_empty())
        .expect("a bank run commits writes")
        .clone();
    let mut forged = victim;
    forged.txn = TxnId {
        client: NodeId(9_999),
        seq: 0,
    };
    records.push(forged);

    let violations = check_history(&records).expect_err("torn commit must be flagged");
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, Violation::TornWrite { .. })),
        "expected a TornWrite violation, got {violations:?}"
    );
}

/// Negative control for the durability checker: forge an *acknowledged*
/// commit whose write survives on no replica — exactly the state an early
/// ack plus a crash would produce — and the checker must flag it as a
/// lost ack.
#[test]
fn durability_checker_flags_a_forged_lost_ack() {
    let bank = Bank::default();
    let mut cfg = ScenarioConfig::scaled(SystemKind::QrDtm, 2);
    cfg.cluster = ClusterConfig::test(4, 2);
    cfg.intervals = 2;
    cfg.interval = Duration::from_millis(50);
    let history = Arc::new(HistoryLog::new());
    cfg.history = Some(Arc::clone(&history));
    let result = qr_acn::workloads::run_scenario(&bank, &cfg);

    let mut records = history.snapshot();
    let mut acked = history.acked_snapshot();
    let inventories: Vec<_> = result
        .server_stats
        .iter()
        .map(|s| s.inventory.clone())
        .collect();
    check_durability(&records, &acked, &inventories).expect("healthy run must be durably clean");

    // The forged transaction claims writes far above anything any replica
    // retained, and claims the client saw its commit acknowledged.
    let victim = records
        .iter()
        .find(|r| !r.writes.is_empty())
        .expect("a bank run commits writes")
        .clone();
    let mut forged = victim;
    forged.txn = TxnId {
        client: NodeId(9_999),
        seq: 0,
    };
    for (_, v) in forged.writes.iter_mut() {
        *v += 1_000_000;
    }
    acked.insert(forged.txn);
    records.push(forged);

    let violations = check_durability(&records, &acked, &inventories)
        .expect_err("a forged lost ack must be flagged");
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, Violation::LostAck { .. })),
        "expected a LostAck violation, got {violations:?}"
    );
}
