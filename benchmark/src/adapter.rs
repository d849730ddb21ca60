//! The program surface the benchmark stands on — and nothing else does.
//!
//! Every call into an `acn-*` crate is made from this file, so a refactor
//! of the program (ROADMAP item 2's single `run(RunOpts)`) knows exactly
//! what must keep compiling: the imports below and the functions listed
//! in `README.md` under "Pinned program surface". Configurations are built
//! from the program's own constructors and then adjusted field by field,
//! never as struct literals, because every past PR added a field to them.

#![allow(clippy::field_reassign_with_default)] // see above: constructors, then fields

use crate::spec::{Shape, CLIENT_THREADS};
use acn_core::{
    plan_wave, AcnController, AlgorithmModule, BlockSeq, ExecStats, ExecutorEngine, StaticModule,
    SumModel,
};
use acn_dtm::{
    Cluster, DtmClient, DurabilityMode, FileLog, HistoryLog, MemLog, Msg, Persistence,
    PersistenceMode, Server, ServerStats, Store, TxnCtx, TxnId, WalRecord, WindowConfig,
};
use acn_obs::{ObsConfig, TxnEvent, TxnObserver};
use acn_quorum::{DaryTree, LevelQuorums, ReadLevelPolicy};
use acn_simnet::{LatencyModel, Network, NodeId};
use acn_txir::{
    CounterOracle, CounterSite, DependencyModel, ObjClass, ObjectId, ObjectVal, ResolvedAccess,
    Value,
};
use acn_workloads::bank::{Bank, BankConfig};
use acn_workloads::schema::{ACCOUNT, BAL, BRANCH, DISTRICT, D_NEXT_OID};
use acn_workloads::tpcc::{Tpcc, TpccConfig, TpccMix};
use acn_workloads::{run_scenario, BatchConfig, ScenarioConfig, SpecMode, SystemKind, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Workload shapes
// ---------------------------------------------------------------------------

const BANK_HOT_POOL: u64 = 64;
const BANK_COLD_POOL: u64 = 4096;
const BANK_SERVERS: usize = 4;
const TPCC_DISTRICTS: u64 = 4;
/// Injected one-way delay of the `neworder_*` workloads.
pub const LAN_DELAY_US: (u64, u64) = (80, 240);
/// Flush policy of `bank_wal` (the `BENCH_wal.json` shape).
pub const GROUP_COMMIT_RECORDS: usize = 32;
pub const GROUP_COMMIT_DELAY: Duration = Duration::from_millis(1);
/// `run_scenario` reports per-interval commits; the batch workload's
/// warm-up and window are whole multiples of this.
const BATCH_INTERVAL: Duration = Duration::from_millis(500);

fn build_workload(shape: Shape) -> Box<dyn Workload> {
    match shape {
        Shape::Bank { write_pct, .. } => {
            let mut c = BankConfig::default();
            c.hot_pool = BANK_HOT_POOL;
            c.cold_pool = BANK_COLD_POOL;
            c.write_pct = write_pct;
            Box::new(Bank::new(c))
        }
        Shape::NewOrder { .. } => {
            let mut c = TpccConfig::default();
            c.warehouses = 1;
            c.districts_per_warehouse = TPCC_DISTRICTS;
            c.customers_per_district = 400;
            c.items = 200;
            c.ol_min = 5;
            c.ol_max = 10;
            Box::new(Tpcc::new(c, TpccMix::NEW_ORDER))
        }
    }
}

/// Which Block sequences the clients execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanMode {
    /// QR-ACN: one [`AcnController`] per template, refreshed between
    /// transactions. What every timed rep runs.
    Adaptive,
    /// `BlockSeq::flat` — the QR-DTM baseline, for `core.acn_over_flat`.
    Flat,
    /// The controller's composition for all-zero contention levels, never
    /// refreshed: no time-driven contention queries, so message counts
    /// repeat exactly. For the solo run.
    Quiescent,
}

/// The scenario a workload runs: `ScenarioConfig::scaled` (paper-shaped
/// cluster, default retry policy and executor config, telemetry off), then
/// the workload's own fields.
fn scenario(shape: Shape, seed: u64, mode: PlanMode, wal_dir: &Path) -> ScenarioConfig {
    let system = match mode {
        PlanMode::Flat => SystemKind::QrDtm,
        PlanMode::Adaptive | PlanMode::Quiescent => SystemKind::QrAcn,
    };
    let mut cfg = ScenarioConfig::scaled(system, CLIENT_THREADS);
    cfg.seed = seed;
    cfg.obs = None;
    match shape {
        Shape::Bank { file_wal, .. } => {
            cfg.cluster.servers = BANK_SERVERS;
            cfg.cluster.latency = LatencyModel::Zero;
            if file_wal {
                cfg.cluster.persistence = PersistenceMode::File(wal_dir.to_path_buf());
                cfg.cluster.durability = DurabilityMode::GroupCommit {
                    max_records: GROUP_COMMIT_RECORDS,
                    max_delay: GROUP_COMMIT_DELAY,
                };
            }
        }
        Shape::NewOrder { batch } => {
            cfg.cluster.latency = LatencyModel::Uniform {
                min: Duration::from_micros(LAN_DELAY_US.0),
                max: Duration::from_micros(LAN_DELAY_US.1),
            };
            if batch {
                let mut b = BatchConfig::default();
                b.wave = 32;
                b.spec = SpecMode::Partial;
                b.overlap = true;
                b.speculate_inexact = true;
                cfg.batch = Some(b);
            }
        }
    }
    cfg
}

/// `(read quorum size, write quorum size)` of the Bank workloads' cluster:
/// how many members one read round and one 2PC round talk to.
pub fn bank_quorum_sizes() -> (usize, usize) {
    let cluster = scenario(SOLO_TRANSFER, 0, PlanMode::Quiescent, Path::new("")).cluster;
    let quorums = LevelQuorums::with_policy(
        DaryTree::new(cluster.servers, cluster.arity),
        cluster.read_policy,
    );
    (quorums.read_quorum_size(), quorums.write_quorum_size())
}

// ---------------------------------------------------------------------------
// Counters the benchmark reads at window boundaries
// ---------------------------------------------------------------------------

macro_rules! counters {
    ($(#[$doc:meta])* $name:ident { $($field:ident),* $(,)? }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $name { $(pub $field: u64),* }
        #[allow(dead_code)] // every counter set gets the same helpers
        impl $name {
            /// Field-wise `self - earlier`.
            pub fn since(&self, earlier: &$name) -> $name {
                $name { $($field: self.$field - earlier.$field),* }
            }
            /// Field-wise sum.
            pub fn plus(&self, other: &$name) -> $name {
                $name { $($field: self.$field + other.$field),* }
            }
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($field), self.$field)),*]
            }
            /// Rebuild from named values (the inverse of [`Self::fields`]).
            pub fn from_fields(mut get: impl FnMut(&'static str) -> u64) -> $name {
                $name { $($field: get(stringify!($field))),* }
            }
        }
    };
}

counters! {
    /// One client thread's `ExecStats` and `ClientStats`, flattened.
    ClientCounts {
        commits, full_aborts, partial_aborts, locked_aborts,
        remote_reads, prepares, conflict_aborts, validate_entries_sent, rpc_retries,
    }
}

counters! {
    /// `NetStats` of the cluster's network.
    NetCounts { sent, bytes_sent }
}

counters! {
    /// `ServerStats` summed over servers. Only readable at shutdown, so
    /// these cover the whole rep (seeding and warm-up included).
    ServerCounts { prepares, prepare_rejects, wal_sync_batches, wal_records_synced }
}

counters! {
    /// `WaveStats` of a batch run.
    WaveCounts { waves, txns, layers, cross_edges, predicted_txns, mispredicts }
}

fn server_counts(stats: &[ServerStats]) -> ServerCounts {
    let mut c = ServerCounts::default();
    for s in stats {
        c.prepares += s.prepares;
        c.prepare_rejects += s.prepare_rejects;
        c.wal_sync_batches += s.wal_sync_batches;
        c.wal_records_synced += s.wal_records_synced;
    }
    c
}

// ---------------------------------------------------------------------------
// The closed-loop system under test
// ---------------------------------------------------------------------------

enum Plan {
    Acn(Arc<AcnController>),
    Fixed(Arc<BlockSeq>),
}

/// `(start, end)` of the three set-up steps, for the set-up spans.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub cluster_start: (Instant, Instant),
    pub seed: (Instant, Instant),
    pub analyze: (Instant, Instant),
}

/// What a client thread needs to run transactions, fixed once set-up ends.
struct Program {
    workload: Box<dyn Workload>,
    dms: Vec<Arc<DependencyModel>>,
    plans: Vec<Plan>,
    cfg: ScenarioConfig,
}

/// A started cluster with the workload seeded and analysed: everything
/// `setup_s` pays for. Dropping it stops the servers.
pub struct Sut {
    shape: Shape,
    /// `None` only once shut down.
    cluster: Option<Cluster>,
    program: Arc<Program>,
    history: Option<Arc<HistoryLog>>,
    /// The servers' WAL directory, when they log to files.
    wal_dir: Option<PathBuf>,
    pub setup: SetupTimes,
}

impl Sut {
    /// `Cluster::start` → `Workload::seed` → `StaticModule::analyze`, the
    /// sequence `run_scenario` performs, with the benchmark holding the
    /// pieces. `with_history` attaches a `HistoryLog` to every client (the
    /// seeder included), for the traced rep's serializability check.
    pub fn start(
        shape: Shape,
        seed: u64,
        mode: PlanMode,
        wal_dir: &Path,
        with_history: bool,
    ) -> Sut {
        let mut cfg = scenario(shape, seed, mode, wal_dir);
        if mode == PlanMode::Quiescent {
            // The solo run counts messages, it does not time them: take
            // the network and the disk out so it finishes in a blink.
            cfg.cluster.latency = LatencyModel::Zero;
            cfg.cluster.persistence = PersistenceMode::Memory;
        }
        let wal_dir = match &cfg.cluster.persistence {
            PersistenceMode::File(dir) => Some(dir.clone()),
            PersistenceMode::Memory => None,
        };
        let history = with_history.then(|| Arc::new(HistoryLog::new()));
        let workload = build_workload(shape);

        let t0 = Instant::now();
        let cluster = Cluster::start(cfg.cluster.clone());
        let t1 = Instant::now();
        {
            let mut seeder = cluster.client(0);
            if let Some(h) = &history {
                seeder.set_history(Arc::clone(h));
            }
            workload.seed(&mut seeder);
        }
        let t2 = Instant::now();
        let static_module = StaticModule::new();
        let dms: Vec<Arc<DependencyModel>> = workload
            .templates()
            .iter()
            .map(|p| {
                static_module
                    .analyze(p)
                    .expect("workload template is valid")
            })
            .collect();
        let controller = |dm: &Arc<DependencyModel>| {
            AcnController::new(
                Arc::clone(dm),
                AlgorithmModule::with_model(Box::new(SumModel)),
                cfg.controller,
            )
        };
        let plans = dms
            .iter()
            .map(|dm| match mode {
                PlanMode::Flat => Plan::Fixed(Arc::new(BlockSeq::flat(dm))),
                PlanMode::Adaptive => Plan::Acn(Arc::new(controller(dm))),
                PlanMode::Quiescent => {
                    let ctrl = controller(dm);
                    ctrl.refresh_with_levels(&HashMap::new());
                    Plan::Fixed(ctrl.current())
                }
            })
            .collect();
        let t3 = Instant::now();
        Sut {
            shape,
            cluster: Some(cluster),
            program: Arc::new(Program {
                workload,
                dms,
                plans,
                cfg,
            }),
            history,
            wal_dir,
            setup: SetupTimes {
                cluster_start: (t0, t1),
                seed: (t1, t2),
                analyze: (t2, t3),
            },
        }
    }

    fn cluster(&self) -> &Cluster {
        self.cluster.as_ref().expect("cluster runs until shutdown")
    }

    /// The client for thread `t`, ready to run transactions.
    pub fn worker(&self, t: usize) -> Worker {
        let mut client = self.cluster().client(t);
        if let Some(h) = &self.history {
            client.set_history(Arc::clone(h));
        }
        let cfg = &self.program.cfg;
        Worker {
            program: Arc::clone(&self.program),
            client,
            engine: ExecutorEngine::with_config(cfg.retry, cfg.exec),
            rng: StdRng::seed_from_u64(cfg.seed + t as u64),
            stats: ExecStats::default(),
        }
    }

    pub fn net(&self) -> NetCounts {
        let s = self.cluster().net().stats();
        NetCounts {
            sent: s.sent,
            bytes_sent: s.bytes_sent,
        }
    }

    /// Controller reconfigurations installed so far, over all templates.
    pub fn reconfigs(&self) -> u64 {
        self.program
            .plans
            .iter()
            .map(|p| match p {
                Plan::Acn(c) => c.refresh_count(),
                Plan::Fixed(_) => 0,
            })
            .sum()
    }

    /// The workload's conservation law, read back through a client
    /// transaction once the workers have stopped. `committed` is every
    /// transaction that returned `Ok` since the cluster started.
    pub fn check_invariant(&self, committed: u64) -> Result<(), String> {
        let mut client = self.cluster().client(0);
        match self.shape {
            Shape::Bank { .. } => {
                // A transfer debits one object of a class and credits
                // another by the same amount, so each class sums to its
                // initial total: zero (objects materialise with balance 0).
                for (class, pool) in [(BRANCH, BANK_HOT_POOL), (ACCOUNT, BANK_COLD_POOL)] {
                    let total = sum_field(&mut client, class, pool, BAL.0)?;
                    if total != 0 {
                        return Err(format!("bank: {class} balances sum to {total}, not 0"));
                    }
                }
                Ok(())
            }
            Shape::NewOrder { .. } => {
                let advance = sum_field(&mut client, DISTRICT, TPCC_DISTRICTS, D_NEXT_OID.0)?;
                if advance as u64 != committed {
                    return Err(format!(
                        "neworder: D_NEXT_O_ID advanced by {advance} over {committed} committed NewOrders"
                    ));
                }
                Ok(())
            }
        }
    }

    /// `HistoryLog::check()` over everything the clients committed:
    /// `Ok(commits checked)`, or the first violations. `None` without a log.
    pub fn check_history(&self) -> Option<Result<usize, String>> {
        self.history.as_deref().map(history_verdict)
    }

    /// Stop the servers, collect their stats and remove the WAL files.
    pub fn shutdown(mut self) -> ServerCounts {
        self.stop()
    }

    fn stop(&mut self) -> ServerCounts {
        let Some(cluster) = self.cluster.take() else {
            return ServerCounts::default();
        };
        let stats = cluster.shutdown();
        if let Some(dir) = &self.wal_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        server_counts(&stats)
    }
}

impl Drop for Sut {
    fn drop(&mut self) {
        self.stop();
    }
}

/// `HistoryLog::check()` as `Ok(commits checked)` or the first violation.
fn history_verdict(history: &HistoryLog) -> Result<usize, String> {
    history
        .check()
        .map(|summary| summary.commits)
        .map_err(|v| format!("{} history violations, first: {:?}", v.len(), v.first()))
}

/// Sum integer field `field` over objects `0..count` of `class`, 64 objects
/// per read-only transaction.
fn sum_field(
    client: &mut DtmClient,
    class: ObjClass,
    count: u64,
    field: u16,
) -> Result<i64, String> {
    let field = acn_txir::FieldId(field);
    let ids: Vec<ObjectId> = (0..count).map(|i| ObjectId::new(class, i)).collect();
    let mut total = 0i64;
    for chunk in ids.chunks(64) {
        let mut ctx = TxnCtx::begin(client);
        ctx.open_batch(client, chunk)
            .map_err(|e| format!("read-back of {class} failed: {e:?}"))?;
        for &obj in chunk {
            total += ctx
                .get_field(obj, field)
                .as_int()
                .map_err(|e| format!("{obj} holds a non-integer: {e:?}"))?;
        }
        ctx.commit(client)
            .map_err(|e| format!("read-back of {class} failed validation: {e:?}"))?;
    }
    Ok(total)
}

/// The instants of one loop iteration. Latency is `end - begin`: what a
/// caller waits for, controller step, retries and backoff included, the
/// request generator excluded.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    pub next_start: Instant,
    pub begin: Instant,
    pub controller_end: Instant,
    pub end: Instant,
    pub ok: bool,
}

pub struct Worker {
    program: Arc<Program>,
    client: DtmClient,
    engine: ExecutorEngine,
    rng: StdRng,
    stats: ExecStats,
}

impl Worker {
    /// One transaction, the way `run_scenario`'s closed loop runs it:
    /// `Workload::next` → `AcnController::maybe_refresh`/`current` →
    /// `ExecutorEngine::run`. The request stream is a pure function of
    /// `(seed, thread)`, so two builds given one seed execute the same
    /// requests in the same per-thread order.
    pub fn step(&mut self) -> Step {
        let next_start = Instant::now();
        let req = self.program.workload.next(&mut self.rng, 0);
        let begin = Instant::now();
        let seq = match &self.program.plans[req.template] {
            Plan::Acn(ctrl) => {
                ctrl.maybe_refresh(&mut self.client);
                ctrl.current()
            }
            Plan::Fixed(seq) => Arc::clone(seq),
        };
        let controller_end = Instant::now();
        let res = self.engine.run(
            &mut self.client,
            &self.program.dms[req.template].program,
            &req.params,
            &seq,
            &mut self.stats,
        );
        Step {
            next_start,
            begin,
            controller_end,
            end: Instant::now(),
            ok: res.is_ok(),
        }
    }

    pub fn counts(&self) -> ClientCounts {
        let c = self.client.stats();
        ClientCounts {
            commits: self.stats.commits,
            full_aborts: self.stats.full_aborts,
            partial_aborts: self.stats.partial_aborts,
            locked_aborts: self.stats.locked_aborts,
            remote_reads: c.remote_reads,
            prepares: c.prepares,
            conflict_aborts: c.conflict_aborts,
            validate_entries_sent: c.validate_entries_sent,
            rpc_retries: c.rpc_retries,
        }
    }
}

// ---------------------------------------------------------------------------
// The batch workload: `run_scenario` is the only public door to the waves
// ---------------------------------------------------------------------------

/// What `run_scenario` reports about one batch rep.
#[derive(Debug, Clone, Default)]
pub struct BatchOutcome {
    /// Commits per measured interval, and the interval's length.
    pub slice_commits: Vec<u64>,
    pub slice_secs: f64,
    /// Commits over the whole run, warm-up included.
    pub run_commits: u64,
    pub failed: u64,
    /// `ScenarioResult.latency` percentiles (8 %-wide buckets) over the
    /// whole run, with the sample count.
    pub p50_ns: u64,
    pub p99_ns: u64,
    pub latency_samples: u64,
    /// Executor aborts over the whole run.
    pub full_aborts: u64,
    pub partial_aborts: u64,
    pub locked_aborts: u64,
    /// Network totals over the whole run, seeding included.
    pub net: NetCounts,
    pub reconfigs: u64,
    pub waves: WaveCounts,
    pub servers: ServerCounts,
    /// `D_NEXT_O_ID` advance summed over districts, read from the replicas'
    /// final inventories (each committed NewOrder bumps its District's
    /// version once; the seed transaction wrote version 1).
    pub district_advance: u64,
    pub history: Option<Result<usize, String>>,
}

/// Run the batch workload for `warmup + window` (rounded to half seconds).
pub fn run_batch(
    shape: Shape,
    seed: u64,
    mode: PlanMode,
    warmup: Duration,
    window: Duration,
    with_history: bool,
) -> BatchOutcome {
    let mut cfg = scenario(shape, seed, mode, Path::new(""));
    let intervals = |d: Duration| (d.as_secs_f64() / BATCH_INTERVAL.as_secs_f64()).round() as usize;
    let warm = intervals(warmup);
    cfg.interval = BATCH_INTERVAL;
    cfg.intervals = warm + intervals(window).max(1);
    let history = with_history.then(|| Arc::new(HistoryLog::new()));
    cfg.history = history.clone();
    let workload = build_workload(shape);

    let r = run_scenario(workload.as_ref(), &cfg);

    let ns = |q: f64| r.latency.percentile(q).map_or(0, |d| d.as_nanos() as u64);
    let mut district_version: HashMap<u64, u64> = HashMap::new();
    for s in &r.server_stats {
        for (obj, version) in s
            .inventory
            .iter()
            .filter(|(o, _)| o.class.id == DISTRICT.id)
        {
            let v = district_version.entry(obj.index).or_default();
            *v = (*v).max(*version);
        }
    }
    let w = r.batch.unwrap_or_default();
    BatchOutcome {
        slice_commits: r.intervals[warm..].iter().map(|i| i.commits).collect(),
        slice_secs: BATCH_INTERVAL.as_secs_f64(),
        run_commits: r.total_commits(),
        failed: r.failed,
        p50_ns: ns(0.5),
        p99_ns: ns(0.99),
        latency_samples: r.latency.len(),
        full_aborts: r.total_full_aborts(),
        partial_aborts: r.total_partial_aborts(),
        locked_aborts: r.total_locked_aborts(),
        net: NetCounts {
            sent: r.net.sent,
            bytes_sent: r.net.bytes_sent,
        },
        reconfigs: r.refreshes,
        waves: WaveCounts {
            waves: w.waves,
            txns: w.txns,
            layers: w.layers,
            cross_edges: w.cross_edges,
            predicted_txns: w.predicted_txns,
            mispredicts: w.mispredicts,
        },
        servers: server_counts(&r.server_stats),
        district_advance: district_version.values().map(|v| v.saturating_sub(1)).sum(),
        history: history.as_deref().map(history_verdict),
    }
}

// ---------------------------------------------------------------------------
// The solo run: exact counts
// ---------------------------------------------------------------------------

/// Counts over `commits` back-to-back transactions of one client on an
/// otherwise idle, zero-latency cluster under [`PlanMode::Quiescent`]:
/// nothing aborts and nothing is time-driven, so they repeat exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SoloOutcome {
    pub commits: u64,
    pub msgs: u64,
    /// Read rounds + prepare rounds the client waited for (`ClientStats`
    /// does not count the phase-2 round of a write commit).
    pub rounds: u64,
}

pub fn solo(shape: Shape, seed: u64, txns: u64, wal_dir: &Path) -> SoloOutcome {
    let sut = Sut::start(shape, seed, PlanMode::Quiescent, wal_dir, false);
    let mut worker = sut.worker(0);
    let (net0, c0) = (sut.net(), worker.counts());
    for _ in 0..txns {
        assert!(worker.step().ok, "a solo transaction cannot fail");
    }
    let (net, c) = (sut.net().since(&net0), worker.counts().since(&c0));
    assert_eq!(
        c.full_aborts + c.partial_aborts + c.locked_aborts,
        0,
        "a solo run has nobody to conflict with"
    );
    drop(worker);
    sut.shutdown();
    SoloOutcome {
        commits: c.commits,
        msgs: net.sent,
        rounds: c.remote_reads + c.prepares + c.rpc_retries,
    }
}

// ---------------------------------------------------------------------------
// Layer drills: one layer's public functions, timed in isolation
// ---------------------------------------------------------------------------

/// One drill. `run(n)` performs `n` operations and returns, per metric in
/// `metrics`, the time spent in that metric's measured part over all `n`;
/// preparing inputs and draining outputs happens inside `run` but outside
/// the returned times. The harness in `drills.rs` sizes `n` and takes the
/// median of the per-batch means.
pub struct Drill {
    pub metrics: &'static [&'static str],
    /// Largest `n` one batch may use (drills that hold state per operation).
    pub max_batch: u32,
    pub run: Box<dyn FnMut(u32) -> Vec<Duration>>,
}

/// The drills, in ledger order, each built only when it is about to run
/// (some hold threads or files). `scratch` is a directory the file-backed
/// drills may create and must remove.
pub fn drills() -> Vec<fn(&Path) -> Drill> {
    vec![
        drill_handoff,
        drill_send,
        drill_broadcast,
        drill_timer_overshoot,
        drill_handle_read_batch,
        drill_handle_2pc,
        drill_store,
        drill_wal_frame,
        drill_wal_mem,
        drill_wal_file,
        drill_dtm_txn,
        drill_core_run,
        drill_recompute,
        drill_plan_wave,
        drill_resolve,
        drill_analyze,
        drill_next,
        drill_quorum,
        drill_on_event,
    ]
}

fn timed(n: u32, mut op: impl FnMut(u32)) -> Duration {
    let t = Instant::now();
    for i in 0..n {
        op(i);
    }
    t.elapsed()
}

/// An echo thread on one endpoint of a two-node network, stopped and
/// joined when the drill that owns it is dropped.
struct Echo {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Drop for Echo {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

const RECV_PATIENCE: Duration = Duration::from_secs(5);

/// Two threads ping-pong one message over `Endpoint::send` /
/// `recv_timeout`; a round trip is two hand-offs (inbox push, condvar
/// wake-up, thread switch).
fn drill_handoff(_: &Path) -> Drill {
    let net: Network<u64> = Network::new(2, LatencyModel::Zero);
    let (a, b) = (net.endpoint(NodeId(0)), net.endpoint(NodeId(1)));
    let stop = Arc::new(AtomicBool::new(false));
    let echo = Echo {
        stop: Arc::clone(&stop),
        thread: Some(std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                if let Ok((src, m)) = b.recv_timeout(Duration::from_millis(20)) {
                    b.send(src, m);
                }
            }
        })),
    };
    Drill {
        metrics: &["simnet.handoff_us"],
        max_batch: u32::MAX,
        run: Box::new(move |n| {
            let _keep = &echo;
            let d = timed(n, |i| {
                a.send(NodeId(1), u64::from(i));
                a.recv_timeout(RECV_PATIENCE).expect("echo replies");
            });
            vec![d / 2]
        }),
    }
}

/// `Endpoint::send` into an inbox nobody is blocked on: the push alone.
fn drill_send(_: &Path) -> Drill {
    let net: Network<u64> = Network::new(2, LatencyModel::Zero);
    let (a, sink) = (net.endpoint(NodeId(0)), net.endpoint(NodeId(1)));
    Drill {
        metrics: &["simnet.send_ns"],
        max_batch: 1 << 16,
        run: Box::new(move |n| {
            let d = timed(n, |i| a.send(NodeId(1), u64::from(i)));
            while sink.try_recv().is_some() {}
            vec![d]
        }),
    }
}

/// `Endpoint::broadcast` of one shared payload to three idle members.
fn drill_broadcast(_: &Path) -> Drill {
    let net: Network<u64> = Network::new(4, LatencyModel::Zero);
    let a = net.endpoint(NodeId(0));
    let members = [NodeId(1), NodeId(2), NodeId(3)];
    let sinks = members.map(|m| net.endpoint(m));
    Drill {
        metrics: &["simnet.broadcast_ns_per_member"],
        max_batch: 1 << 16,
        run: Box::new(move |n| {
            let d = timed(n, |i| a.broadcast(&members, u64::from(i), 8));
            for s in &sinks {
                while s.try_recv().is_some() {}
            }
            vec![d / members.len() as u32]
        }),
    }
}

/// How late a delayed message is handed over: under a constant 100 µs
/// model, `RecvMeta.received_at - deliver_at` of a blocked receiver.
fn drill_timer_overshoot(_: &Path) -> Drill {
    let net: Network<u64> = Network::new(2, LatencyModel::Constant(Duration::from_micros(100)));
    let (a, b) = (net.endpoint(NodeId(0)), net.endpoint(NodeId(1)));
    Drill {
        metrics: &["simnet.timer_overshoot_us"],
        max_batch: 64,
        run: Box::new(move |n| {
            let mut late = Duration::ZERO;
            for i in 0..n {
                a.send(NodeId(1), u64::from(i));
                let (_, _, meta) = b.recv_timeout_meta(RECV_PATIENCE).expect("delivered");
                late += meta.received_at.saturating_duration_since(meta.deliver_at);
            }
            vec![late]
        }),
    }
}

const DRILL_OBJECTS: u64 = 4096;
const DRILL_CLIENT: NodeId = NodeId(1_000);

fn account(i: u64) -> ObjectId {
    ObjectId::new(ACCOUNT, i % DRILL_OBJECTS)
}

fn balance(v: i64) -> ObjectVal {
    ObjectVal::from_fields([(BAL, Value::Int(v))])
}

/// A standalone replica with a `MemLog` and 4 k Account objects at
/// version 1, as a Bank server looks after warm-up.
fn drill_server() -> Server {
    let mut server = Server::new(WindowConfig::default());
    server.set_persistence(Box::new(MemLog::new()));
    let loader = TxnId {
        client: DRILL_CLIENT,
        seq: 0,
    };
    for i in 0..DRILL_OBJECTS {
        server.store_mut().apply(account(i), 1, balance(0), loader);
    }
    server
}

/// `Server::handle` of a 4-object `ReadBatchReq` with an empty validation
/// delta — what one member of a Bank read round does.
fn drill_handle_read_batch(_: &Path) -> Drill {
    let mut server = drill_server();
    let mut seq = 0u64;
    Drill {
        metrics: &["dtm.handle_read_batch_ns"],
        max_batch: 4096,
        run: Box::new(move |n| {
            let msgs: Vec<Msg> = (0..n)
                .map(|_| {
                    seq += 1;
                    Msg::ReadBatchReq {
                        txn: TxnId {
                            client: DRILL_CLIENT,
                            seq,
                        },
                        req: seq,
                        objs: (0..4).map(|k| account(seq * 4 + k)).collect(),
                        validate: Vec::new(),
                        sample: Vec::new(),
                    }
                })
                .collect();
            let now = Instant::now();
            let t = Instant::now();
            for m in msgs {
                std::hint::black_box(server.handle(m, now));
            }
            vec![t.elapsed()]
        }),
    }
}

/// `Server::handle` of a 4-object `PrepareReq` (validate 4, lock 4, log
/// the grant) and of the matching `CommitReq` (apply 4, log, unlock).
/// Transactions of one batch touch disjoint objects, so all prepares are
/// timed as one block and all commits as the next.
fn drill_handle_2pc(_: &Path) -> Drill {
    let mut server = drill_server();
    let mut version = vec![1u64; DRILL_OBJECTS as usize];
    let mut seq = 0u64;
    Drill {
        metrics: &["dtm.handle_prepare_ns", "dtm.handle_commit_ns"],
        max_batch: (DRILL_OBJECTS / 4) as u32,
        run: Box::new(move |n| {
            let mut prepares = Vec::with_capacity(n as usize);
            let mut commits = Vec::with_capacity(n as usize);
            for i in 0..u64::from(n) {
                seq += 1;
                let txn = TxnId {
                    client: DRILL_CLIENT,
                    seq,
                };
                let objs: Vec<(ObjectId, u64)> = (0..4)
                    .map(|k| {
                        let idx = (i * 4 + k) as usize;
                        (account(idx as u64), version[idx])
                    })
                    .collect();
                prepares.push(Msg::PrepareReq {
                    txn,
                    req: seq * 2,
                    validate: objs.clone(),
                    writes: objs.clone(),
                });
                commits.push(Msg::CommitReq {
                    txn,
                    req: seq * 2 + 1,
                    writes: objs
                        .iter()
                        .map(|&(o, v)| (o, v + 1, balance(seq as i64)))
                        .collect(),
                });
                for k in 0..4 {
                    version[(i * 4 + k) as usize] += 1;
                }
            }
            let now = Instant::now();
            let t = Instant::now();
            for m in prepares {
                let vote = server.handle(m, now);
                debug_assert!(matches!(vote, Some(Msg::PrepareResp { vote: true, .. })));
                std::hint::black_box(vote);
            }
            let prepare = t.elapsed();
            let t = Instant::now();
            for m in commits {
                std::hint::black_box(server.handle(m, now));
            }
            vec![prepare, t.elapsed()]
        }),
    }
}

/// `Store::read`, and `Store::try_lock` + `Store::apply`, over 4 k objects
/// (the `HashMap<ObjectId, _>` lookups under every `Server::handle`).
fn drill_store(_: &Path) -> Drill {
    let mut store = Store::new();
    let txn = TxnId {
        client: DRILL_CLIENT,
        seq: 1,
    };
    for i in 0..DRILL_OBJECTS {
        store.apply(account(i), 1, balance(0), txn);
    }
    let mut cursor = 0u64;
    let mut version = 1u64;
    Drill {
        metrics: &["dtm.store_read_ns", "dtm.store_apply_ns"],
        max_batch: DRILL_OBJECTS as u32,
        run: Box::new(move |n| {
            // A stride coprime with the pool size visits every object
            // without walking the map in insertion order.
            let read = timed(n, |_| {
                cursor = cursor.wrapping_add(2_654_435_761);
                std::hint::black_box(store.read(account(cursor)));
            });
            version += 1;
            let vals: Vec<ObjectVal> = (0..n).map(|i| balance(i64::from(i))).collect();
            let mut vals = vals.into_iter();
            let apply = timed(n, |i| {
                let obj = account(u64::from(i));
                std::hint::black_box(store.try_lock(obj, txn));
                store.apply(obj, version, vals.next().expect("one value per op"), txn);
            });
            vec![read, apply]
        }),
    }
}

fn commit_record(seq: u64) -> WalRecord {
    WalRecord::CommitApply {
        txn: TxnId {
            client: DRILL_CLIENT,
            seq,
        },
        req: seq,
        writes: (0..4)
            .map(|k| (account(seq * 4 + k), seq, balance(seq as i64)))
            .collect(),
    }
}

/// `WalRecord::frame_into` of a 4-write `CommitApply`: encode + checksum.
fn drill_wal_frame(_: &Path) -> Drill {
    let rec = commit_record(7);
    let mut buf = Vec::with_capacity(256);
    Drill {
        metrics: &["dtm.wal_frame_ns"],
        max_batch: u32::MAX,
        run: Box::new(move |n| {
            vec![timed(n, |_| {
                buf.clear();
                std::hint::black_box(&rec).frame_into(&mut buf);
                std::hint::black_box(&buf);
            })]
        }),
    }
}

/// `Persistence::append` on the in-memory ring every `bank_cpu` server uses.
fn drill_wal_mem(_: &Path) -> Drill {
    let rec = commit_record(7);
    let mut log = MemLog::new();
    Drill {
        metrics: &["dtm.wal_append_mem_ns"],
        max_batch: u32::MAX,
        run: Box::new(move |n| {
            vec![timed(n, |_| {
                log.append(std::hint::black_box(&rec))
                    .expect("MemLog cannot fail");
            })]
        }),
    }
}

/// Removes the drill's WAL directory when the drill is dropped.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `Persistence::append` then `sync` on a `FileLog`: a `write` and an
/// `fdatasync` per record, as `bank_wal` pays without group commit. On a
/// tmpfs the sync reads as microseconds — which is how you spot one.
fn drill_wal_file(scratch: &Path) -> Drill {
    std::fs::create_dir_all(scratch).expect("create drill WAL directory");
    let dir = ScratchDir(scratch.to_path_buf());
    let mut log = FileLog::open(scratch.join("drill.wal")).expect("open drill WAL");
    let rec = commit_record(7);
    Drill {
        metrics: &["dtm.wal_append_file_ns", "dtm.wal_sync_file_us"],
        max_batch: 256,
        run: Box::new(move |n| {
            let _keep = &dir;
            let (mut append, mut sync) = (Duration::ZERO, Duration::ZERO);
            for _ in 0..n {
                let t = Instant::now();
                log.append(&rec).expect("append to drill WAL");
                let mid = Instant::now();
                log.sync().expect("sync drill WAL");
                append += mid - t;
                sync += mid.elapsed();
            }
            log.reset();
            vec![append, sync]
        }),
    }
}

/// The shape the ledger is drawn on: Bank, transfers only.
pub const SOLO_TRANSFER: Shape = Shape::Bank {
    write_pct: 100,
    file_wal: false,
};

/// The solo transfer's four objects through the DTM client directly —
/// `TxnCtx::open_batch` (one read round), four `set_field`s,
/// `TxnCtx::commit` (prepare + commit rounds) — with no executor on top.
fn drill_dtm_txn(scratch: &Path) -> Drill {
    let sut = Sut::start(SOLO_TRANSFER, 1, PlanMode::Quiescent, scratch, false);
    let mut client = sut.cluster().client(0);
    let mut rng = StdRng::seed_from_u64(1);
    Drill {
        metrics: &["dtm.txn_us", "dtm.read_round_us", "dtm.commit_round_us"],
        max_batch: u32::MAX,
        run: Box::new(move |n| {
            let (mut txn, mut read, mut commit) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
            for _ in 0..n {
                let req = sut.program.workload.next(&mut rng, 0);
                let ids: Vec<u64> = req.params[..4]
                    .iter()
                    .map(|v| v.as_int().expect("bank params are integers") as u64)
                    .collect();
                let objs = [
                    ObjectId::new(BRANCH, ids[0]),
                    ObjectId::new(BRANCH, ids[1]),
                    ObjectId::new(ACCOUNT, ids[2]),
                    ObjectId::new(ACCOUNT, ids[3]),
                ];
                let t0 = Instant::now();
                let mut ctx = TxnCtx::begin(&mut client);
                ctx.open_batch(&mut client, &objs).expect("solo read round");
                let t1 = Instant::now();
                for (k, &obj) in objs.iter().enumerate() {
                    ctx.open(&mut client, obj, true)
                        .expect("already read: local");
                    let bal = ctx.get_field(obj, BAL).as_int().expect("integer balance");
                    let delta = if k % 2 == 0 { -1 } else { 1 };
                    ctx.set_field(obj, BAL, Value::Int(bal + delta));
                }
                let t2 = Instant::now();
                ctx.commit(&mut client).expect("solo commit");
                let t3 = Instant::now();
                txn += t3 - t0;
                read += t1 - t0;
                commit += t3 - t2;
            }
            vec![txn, read, commit]
        }),
    }
}

/// `ExecutorEngine::run` of the same solo transfer: the executor's
/// interpretation, Block bookkeeping and prefetch planning on top of the
/// DTM rounds above.
fn drill_core_run(scratch: &Path) -> Drill {
    let sut = Sut::start(SOLO_TRANSFER, 1, PlanMode::Quiescent, scratch, false);
    let mut worker = sut.worker(0);
    Drill {
        metrics: &["core.run_us"],
        max_batch: u32::MAX,
        run: Box::new(move |n| {
            let _keep = &sut;
            let mut run = Duration::ZERO;
            for _ in 0..n {
                let s = worker.step();
                assert!(s.ok, "a solo transaction cannot fail");
                run += s.end - s.controller_end;
            }
            vec![run]
        }),
    }
}

fn neworder() -> (Box<dyn Workload>, Vec<DependencyModel>) {
    let workload = build_workload(Shape::NewOrder { batch: false });
    let dms = workload
        .templates()
        .iter()
        .map(|p| DependencyModel::analyze(p.clone()).expect("workload template is valid"))
        .collect();
    (workload, dms)
}

/// `AlgorithmModule::recompute` (Steps 1–3) per NewOrder template, with
/// the District hot and Stock warm — a reconfiguration's compute cost.
fn drill_recompute(_: &Path) -> Drill {
    let (_, dms) = neworder();
    let algorithm = AlgorithmModule::with_model(Box::new(SumModel));
    let levels: HashMap<u16, f64> = [(DISTRICT.id, 0.9), (acn_workloads::schema::STOCK.id, 0.2)]
        .into_iter()
        .collect();
    Drill {
        metrics: &["core.recompute_us"],
        max_batch: u32::MAX,
        run: Box::new(move |n| {
            vec![timed(n, |i| {
                let dm = &dms[i as usize % dms.len()];
                std::hint::black_box(algorithm.recompute(dm, &levels));
            })]
        }),
    }
}

/// The batch coordinator's counter predictor, reduced to its contract:
/// predict the cursor, advance it by the instance's delta.
#[derive(Default)]
struct Cursors(HashMap<(u16, u64, u16), i64>);

impl CounterOracle for Cursors {
    fn predict(&mut self, site: &CounterSite) -> Option<i64> {
        let e = self
            .0
            .entry((site.obj.class.id, site.obj.index, site.field.0))
            .or_insert(0);
        let v = *e;
        *e += site.delta;
        Some(v)
    }
}

fn resolved_wave(
    workload: &dyn Workload,
    dms: &[DependencyModel],
    rng: &mut StdRng,
    oracle: &mut Cursors,
) -> Vec<ResolvedAccess> {
    (0..32)
        .map(|_| {
            let req = workload.next(rng, 0);
            dms[req.template].access.resolve_with(&req.params, oracle)
        })
        .collect()
}

/// `plan_wave` over the resolved access sets of 32 NewOrders.
fn drill_plan_wave(_: &Path) -> Drill {
    let (workload, dms) = neworder();
    let mut rng = StdRng::seed_from_u64(1);
    let mut oracle = Cursors::default();
    let waves: Vec<Vec<ResolvedAccess>> = (0..16)
        .map(|_| resolved_wave(workload.as_ref(), &dms, &mut rng, &mut oracle))
        .collect();
    Drill {
        metrics: &["core.plan_wave_us"],
        max_batch: u32::MAX,
        run: Box::new(move |n| {
            vec![timed(n, |i| {
                std::hint::black_box(plan_wave(&waves[i as usize % waves.len()]));
            })]
        }),
    }
}

/// `AccessSummary::resolve_with` per NewOrder request: symbolic
/// evaluation of the Var-indexed opens against predicted counters.
fn drill_resolve(_: &Path) -> Drill {
    let (workload, dms) = neworder();
    let mut rng = StdRng::seed_from_u64(1);
    let mut oracle = Cursors::default();
    Drill {
        metrics: &["txir.resolve_ns"],
        max_batch: 4096,
        run: Box::new(move |n| {
            let reqs: Vec<_> = (0..n).map(|_| workload.next(&mut rng, 0)).collect();
            let t = Instant::now();
            for req in &reqs {
                std::hint::black_box(
                    dms[req.template]
                        .access
                        .resolve_with(&req.params, &mut oracle),
                );
            }
            vec![t.elapsed()]
        }),
    }
}

/// `DependencyModel::analyze` per NewOrder template: the static pipeline
/// `setup_s` pays once per template.
fn drill_analyze(_: &Path) -> Drill {
    let (workload, _) = neworder();
    Drill {
        metrics: &["txir.analyze_us"],
        max_batch: 256,
        run: Box::new(move |n| {
            let templates = workload.templates();
            let programs: Vec<_> = (0..n as usize)
                .map(|i| templates[i % templates.len()].clone())
                .collect();
            let t = Instant::now();
            for p in programs {
                std::hint::black_box(DependencyModel::analyze(p).expect("valid template"));
            }
            vec![t.elapsed()]
        }),
    }
}

/// `Workload::next` of the Bank generator — the one that runs ten thousand
/// times a second inside the timed loop.
fn drill_next(_: &Path) -> Drill {
    let workload = build_workload(Shape::Bank {
        write_pct: 90,
        file_wal: false,
    });
    let mut rng = StdRng::seed_from_u64(1);
    Drill {
        metrics: &["workloads.next_ns"],
        max_batch: u32::MAX,
        run: Box::new(move |n| {
            vec![timed(n, |_| {
                std::hint::black_box(workload.next(&mut rng, 0));
            })]
        }),
    }
}

/// `LevelQuorums::read_quorum` / `write_quorum` on the paper's 10-node
/// ternary tree with every node alive — once per client round.
fn drill_quorum(_: &Path) -> Drill {
    let quorums = LevelQuorums::with_policy(DaryTree::new(10, 3), ReadLevelPolicy::Deepest);
    Drill {
        metrics: &["quorum.read_quorum_ns", "quorum.write_quorum_ns"],
        max_batch: u32::MAX,
        run: Box::new(move |n| {
            let read = timed(n, |i| {
                std::hint::black_box(quorums.read_quorum(u64::from(i), &|_| true));
            });
            let write = timed(n, |i| {
                std::hint::black_box(quorums.write_quorum(u64::from(i), &|_| true));
            });
            vec![read, write]
        }),
    }
}

/// `TxnObserver::on_event` per event. Nothing in a timed rep pays this
/// (telemetry is off); it bounds what turning it on would cost.
fn drill_on_event(_: &Path) -> Drill {
    let mut observer = TxnObserver::new(ObsConfig::default());
    let events = [
        TxnEvent::Begin,
        TxnEvent::BlockStart { block: 0 },
        TxnEvent::BatchedRead {
            block: Some(0),
            objs: 4,
        },
        TxnEvent::Commit { restarts: 0 },
    ];
    Drill {
        metrics: &["obs.on_event_ns"],
        max_batch: u32::MAX,
        run: Box::new(move |n| {
            vec![timed(n, |i| {
                observer.on_event(events[i as usize % events.len()]);
            })]
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NEWORDER: Shape = Shape::NewOrder { batch: false };

    #[test]
    fn solo_counts_repeat_exactly() {
        for shape in [SOLO_TRANSFER, NEWORDER] {
            let a = solo(shape, 7, 40, Path::new(""));
            let b = solo(shape, 7, 40, Path::new(""));
            assert_eq!(a, b, "{shape:?}");
            assert_eq!(a.commits, 40);
            assert!(a.msgs > 0 && a.rounds >= 2 * a.commits, "{a:?}");
        }
    }

    #[test]
    fn the_gate_notices_a_lost_neworder_and_a_leaked_balance() {
        let sut = Sut::start(NEWORDER, 3, PlanMode::Quiescent, Path::new(""), true);
        let mut worker = sut.worker(0);
        for _ in 0..5 {
            assert!(worker.step().ok);
        }
        assert_eq!(sut.check_invariant(5), Ok(()));
        assert!(sut
            .check_invariant(6)
            .unwrap_err()
            .contains("advanced by 5"));
        assert_eq!(
            sut.check_history(),
            Some(Ok(5 + 9)),
            "5 NewOrders + 9 seeding txns"
        );
        drop(worker);

        let bank = Sut::start(SOLO_TRANSFER, 3, PlanMode::Quiescent, Path::new(""), false);
        assert_eq!(bank.check_invariant(0), Ok(()));
        // Mint money behind the workload's back: a deposit with no withdrawal.
        let mut client = bank.cluster().client(1);
        let obj = ObjectId::new(ACCOUNT, 9);
        let mut ctx = TxnCtx::begin(&mut client);
        ctx.open(&mut client, obj, true).unwrap();
        ctx.set_field(obj, BAL, Value::Int(5));
        ctx.commit(&mut client).unwrap();
        assert!(bank.check_invariant(0).unwrap_err().contains("sum to 5"));
    }

    #[test]
    fn every_drill_runs_and_reports_one_duration_per_metric() {
        let scratch = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-drills-{}", std::process::id()));
        let mut seen = Vec::new();
        for build in drills() {
            let mut drill = build(&scratch);
            let spent = (drill.run)(3.min(drill.max_batch));
            assert_eq!(spent.len(), drill.metrics.len(), "{:?}", drill.metrics);
            seen.extend_from_slice(drill.metrics);
        }
        assert!(!scratch.exists(), "the file drill removes its directory");
        // Together with the derived and per-workload metrics these must cover
        // the per-layer table; `suite::run_single` would panic otherwise.
        for name in &seen {
            assert!(
                crate::spec::PER_LAYER.iter().any(|m| m.name == *name),
                "{name}"
            );
        }
        assert_eq!(seen.len(), 25);
    }
}
