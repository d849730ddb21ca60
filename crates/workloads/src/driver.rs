//! The measurement driver: cluster + client threads + per-interval stats.
//!
//! Reproduces the paper's methodology: "We measured the throughput on
//! client nodes as transactions committed per second. […] We ran QR-ACN's
//! algorithm for assessing the effectiveness of the current closed nesting
//! configuration every 10 seconds, and measured the system throughput for
//! every 10 second time interval." Intervals are scaled down together with
//! the network latency; hot-set shifts are expressed as a phase index per
//! interval.

use crate::batch::{run_waves, BatchConfig};
use crate::workload::Workload;
use acn_core::{
    AcnController, AlgorithmModule, BlockSeq, ControllerConfig, ExecStats, ExecutorConfig,
    ExecutorEngine, RetryPolicy, RunError, StaticModule, SumModel, WaveStats,
};
use acn_dtm::{Cluster, ClusterConfig, DtmClient, HistoryLog, ServerStats};
use acn_obs::{
    aggregate_critpath, critical_path, AbortRow, AbortTable, ContentionLevel, CritPathRow,
    LogHistogram, MetricsReport, NetCounters, ObsConfig, RecoveryCounters, Section, SeriesRow,
    Span, SpanCollector, ThreadTraceRow, Tracer, TxnCritPath, TxnObserver, WindowedSeries,
    WorkTotals,
};
use acn_simnet::{FaultPlan, NetStatsSnapshot};
use acn_txir::{DependencyModel, ObjClass};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::thread::Scope;
use std::time::{Duration, Instant};

/// Which of the three evaluated systems executes the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// Flat nesting — the QR-DTM baseline.
    QrDtm,
    /// Manual closed nesting — the QR-CN baseline
    /// ([`Workload::manual_groups`]).
    QrCn,
    /// Automated closed nesting — the paper's contribution.
    QrAcn,
}

impl std::fmt::Display for SystemKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SystemKind::QrDtm => write!(f, "QR-DTM"),
            SystemKind::QrCn => write!(f, "QR-CN"),
            SystemKind::QrAcn => write!(f, "QR-ACN"),
        }
    }
}

/// Scenario shape.
pub struct ScenarioConfig {
    /// Cluster shape and network parameters.
    pub cluster: ClusterConfig,
    /// Client threads (≤ `cluster.clients`).
    pub client_threads: usize,
    /// Number of measurement windows.
    pub intervals: usize,
    /// Window length (the paper's "10 second time interval", scaled).
    pub interval: Duration,
    /// Contention phase per interval index; shorter vectors repeat their
    /// last entry, an empty vector means phase 0 throughout.
    pub phase_per_interval: Vec<usize>,
    /// Which system executes the workload.
    pub system: SystemKind,
    /// ACN controller tuning (ignored by the baselines).
    pub controller: ControllerConfig,
    /// Executor retry policy.
    pub retry: RetryPolicy,
    /// Executor path toggles (batched reads on by default).
    pub exec: ExecutorConfig,
    /// Base RNG seed (thread `i` uses `seed + i`).
    pub seed: u64,
    /// Deterministic fault plan installed *after* seeding (the initial
    /// state is always loaded on a healthy network). When set, worker
    /// threads tolerate terminal transaction failures — a fault window can
    /// legitimately exhaust a retry policy — and count them into
    /// [`ScenarioResult::failed`] instead of panicking.
    pub chaos: Option<FaultPlan>,
    /// When set, every client (the seeder included) appends its committed
    /// read/write versions here for the serializability checker.
    pub history: Option<Arc<HistoryLog>>,
    /// Observability: when set, every worker's client carries one
    /// [`TxnObserver`] — abort attribution, the wasted-work ledger and the
    /// span tracer, all fed by the executor's events — merged into
    /// [`ScenarioResult::obs`] at the end. `None` turns events and spans
    /// off together, at zero overhead.
    pub obs: Option<ObsConfig>,
    /// Batch-ingest mode: when set, a coordinator collects waves of
    /// transactions, schedules them over the conflict graph of their
    /// statically resolved access sets, and dispatches independent ones
    /// concurrently across the worker pool. `None` = closed loop.
    pub batch: Option<BatchConfig>,
}

impl ScenarioConfig {
    /// A scaled-down default: paper-shaped cluster, `threads` clients,
    /// six 200 ms intervals.
    pub fn scaled(system: SystemKind, threads: usize) -> Self {
        let mut cluster = ClusterConfig::paper(threads.max(1));
        cluster.window.window = Duration::from_millis(100);
        ScenarioConfig {
            cluster,
            client_threads: threads,
            intervals: 6,
            interval: Duration::from_millis(200),
            phase_per_interval: Vec::new(),
            system,
            controller: ControllerConfig {
                period: Duration::from_millis(200),
                alpha: 1.0,
                sampling: acn_core::SamplingMode::Explicit,
            },
            retry: RetryPolicy::default(),
            exec: ExecutorConfig::default(),
            seed: 42,
            chaos: None,
            history: None,
            obs: None,
            batch: None,
        }
    }
}

/// The outcome of one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// The system that ran.
    pub system: SystemKind,
    /// Window length used.
    pub interval: Duration,
    /// Per-window counters: window `i` holds every transaction that
    /// completed in it (one finishing after the deadline counts into the
    /// last window).
    pub intervals: Vec<ExecStats>,
    /// Total ACN reconfigurations installed (0 for the baselines).
    pub refreshes: u64,
    /// End-to-end commit latency: the clock read around the executor's
    /// run of each committed transaction (includes retries and backoff).
    pub latency: LogHistogram,
    /// Transactions that failed terminally (chaos runs only; always 0 on a
    /// healthy cluster, where a terminal failure panics instead).
    pub failed: u64,
    /// Network counters accumulated over the whole run (seeding included).
    pub net: NetStatsSnapshot,
    /// Observability outputs, present when [`ScenarioConfig::obs`] was set.
    pub obs: Option<ScenarioObs>,
    /// Final per-server stats collected at shutdown, in rank order. Carries
    /// each replica's store digest, so suites can assert replica
    /// convergence after recovery chaos.
    pub server_stats: Vec<ServerStats>,
    /// Replica-recovery counters aggregated over servers (wipes, catch-up
    /// sync, refusals) and clients (read repair). All-zero on runs without
    /// amnesia faults or repair traffic.
    pub recovery: RecoveryCounters,
    /// Conflict-graph scheduling aggregates, present when the run used
    /// [`ScenarioConfig::batch`].
    pub batch: Option<WaveStats>,
}

/// Merged observability outputs of one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioObs {
    /// Abort attribution merged over all worker threads.
    pub aborts: AbortTable,
    /// Per-class contention levels sampled from the cluster right after
    /// the measurement deadline (empty if the quorum was unavailable).
    pub contention: Vec<ContentionLevel>,
    /// Every span the run kept — client rings and the server collector
    /// merged, sorted by `(trace, start, id)`.
    pub spans: Vec<Span>,
    /// Per-committed-transaction critical-path decomposition.
    pub critpath: Vec<TxnCritPath>,
    /// [`ScenarioObs::critpath`] aggregated per `(class, block)`.
    pub critpath_rows: Vec<CritPathRow>,
    /// Span-ring completeness per worker thread, plus the server
    /// collector's row under [`acn_obs::SERVER_TRACE_THREAD`].
    pub thread_traces: Vec<ThreadTraceRow>,
    /// Wasted-work totals merged over all worker threads; obeys
    /// `committed + discarded(full) + discarded(partial) == executed`
    /// exactly (see [`WorkTotals::check`]).
    pub wasted: WorkTotals,
    /// Per-window counters and latency histograms on the
    /// measurement-interval grid, merged over all worker threads: cell `i`
    /// carries [`ScenarioResult::intervals`]`[i]`, and the cells' histograms
    /// merge to [`ScenarioResult::latency`].
    pub series: WindowedSeries,
}

impl ScenarioResult {
    /// Committed transactions per second in window `i`.
    pub fn throughput(&self, i: usize) -> f64 {
        self.intervals[i].commits as f64 / self.interval.as_secs_f64()
    }

    /// Mean throughput over windows `from..`.
    pub fn mean_throughput_from(&self, from: usize) -> f64 {
        let n = self.intervals.len().saturating_sub(from).max(1);
        let total: u64 = self.intervals[from.min(self.intervals.len())..]
            .iter()
            .map(|w| w.commits)
            .sum();
        total as f64 / (n as f64 * self.interval.as_secs_f64())
    }

    /// The executor counters of the whole run: every window merged.
    pub fn totals(&self) -> ExecStats {
        let mut exec = ExecStats::default();
        for w in &self.intervals {
            exec.merge(w);
        }
        exec
    }

    /// Commits across all windows.
    pub fn total_commits(&self) -> u64 {
        self.totals().commits
    }

    /// Partial rollbacks across all windows.
    pub fn total_partial_aborts(&self) -> u64 {
        self.totals().partial_aborts
    }

    /// Full restarts across all windows.
    pub fn total_full_aborts(&self) -> u64 {
        self.totals().full_aborts
    }

    /// Locked-out restarts across all windows.
    pub fn total_locked_aborts(&self) -> u64 {
        self.totals().locked_aborts
    }

    /// Unavailable-retries across all windows.
    pub fn total_unavailable_retries(&self) -> u64 {
        self.totals().unavailable_retries
    }

    /// Assemble the unified [`MetricsReport`] for this run: executor
    /// totals, network counters, latency percentiles, plus attribution /
    /// spans / contention when observability was enabled. `meta` key-values
    /// are prepended to the run's own (`system`, `interval_ms`, `windows`).
    pub fn metrics_report(&self, meta: &[(&str, String)]) -> MetricsReport {
        let mut rows: Vec<(String, String)> = vec![
            ("system".into(), self.system.to_string()),
            ("interval_ms".into(), self.interval.as_millis().to_string()),
            ("windows".into(), self.intervals.len().to_string()),
        ];
        rows.extend(meta.iter().map(|(k, v)| (k.to_string(), v.clone())));
        if let Some(b) = &self.batch {
            rows.extend(
                WaveStats::META
                    .iter()
                    .map(|(k, get)| (k.to_string(), get(b).to_string())),
            );
        }
        let mut report = MetricsReport {
            meta: rows,
            exec: self.totals(),
            recovery: (self.recovery != RecoveryCounters::default()).then_some(self.recovery),
            net: NetCounters::collect_from(NetStatsSnapshot::COUNTERS, |get| get(&self.net)),
            latency: self.latency.summary(),
            ..MetricsReport::default()
        };
        if let Some(obs) = &self.obs {
            report.contention = obs.contention.clone();
            report.aborts = AbortRow::from_table(&obs.aborts);
            report.critpath = obs.critpath_rows.clone();
            report.thread_traces = obs.thread_traces.clone();
            report.wasted = (!obs.wasted.is_empty()).then(|| obs.wasted.clone());
            report.series = SeriesRow::from_series(&obs.series);
        }
        report
    }
}

pub(crate) enum Plan {
    Fixed(Vec<Arc<BlockSeq>>),
    Acn(Vec<Arc<AcnController>>),
}

/// One worker's account of the measurement phase: a windowed series on the
/// interval grid, recorded into once per transaction and merged once when
/// the thread exits. The per-interval counters, the run's latency
/// histogram and the exported series rows are all read off
/// the merged series, so none of them can disagree with another.
pub(crate) struct Tally {
    series: WindowedSeries,
    /// Last nanosecond of the last interval: a transaction that finishes
    /// after the deadline counts into the last window.
    horizon_ns: u64,
    /// Transactions that failed terminally (chaos runs only).
    failed: u64,
}

impl Tally {
    pub(crate) fn new(cfg: &ScenarioConfig) -> Self {
        let window_ns = cfg.interval.as_nanos() as u64;
        Tally {
            series: WindowedSeries::new(window_ns),
            horizon_ns: (window_ns * cfg.intervals as u64).saturating_sub(1),
            failed: 0,
        }
    }

    /// Execute one transaction of `template` through `run` and record it:
    /// the counters it moved land in the window in which it completed, and
    /// a commit adds one latency sample — the clock read around `run`.
    pub(crate) fn transact(
        &mut self,
        ph: &Phase<'_>,
        client: &mut DtmClient,
        template: usize,
        run: impl FnOnce(&mut DtmClient, &mut ExecStats) -> Result<(), RunError>,
    ) {
        fn tracer(client: &mut DtmClient) -> Option<&mut Tracer> {
            client.observer_mut()?.spans.as_mut()
        }
        if let Some(tr) = tracer(client) {
            tr.start_txn(template as u16);
        }
        let mut txn = ExecStats::default();
        let begin = Instant::now();
        let res = run(client, &mut txn);
        let done = Instant::now();
        if let Some(tr) = tracer(client) {
            tr.end_txn(res.is_ok());
        }
        if let Err(e) = &res {
            // A fault window can legitimately starve this client; count it
            // and keep the thread alive so progress resumes once the faults
            // heal. On a healthy cluster it is a configuration error.
            assert!(ph.cfg.chaos.is_some(), "scenario transaction failed: {e}");
            self.failed += 1;
        }
        let at_ns = ((done - ph.start).as_nanos() as u64).min(self.horizon_ns);
        let latency_ns = res.is_ok().then(|| (done - begin).as_nanos() as u64);
        self.series.record(at_ns, &txn, latency_ns);
    }
}

/// What the workers hand back, merged under one lock as each thread exits.
/// All threads share one window grid, so the series merge is exact.
pub(crate) struct Merged {
    series: WindowedSeries,
    failed: u64,
    aborts: AbortTable,
    work: WorkTotals,
    spans: Vec<Span>,
    thread_traces: Vec<ThreadTraceRow>,
    /// Read-repair messages the clients sent.
    repair_writes_sent: u64,
}

impl Merged {
    /// A finished worker: its tally, and from its client handle the
    /// observer (attribution, ledger, span ring) and the recovery traffic.
    pub(crate) fn worker(&mut self, tally: &Tally, client: &mut DtmClient) {
        self.series.merge(&tally.series);
        self.failed += tally.failed;
        if let Some(obs) = client.take_observer() {
            obs.merge_into(&mut self.aborts, &mut self.work);
            if let Some(tracer) = obs.spans {
                self.spans(tracer.drain());
            }
        }
        self.repair_writes_sent += client.stats().repair_writes_sent;
    }

    /// A drained span ring and its completeness row.
    pub(crate) fn spans(&mut self, (spans, row): (Vec<Span>, ThreadTraceRow)) {
        self.spans.extend(spans);
        self.thread_traces.push(row);
    }
}

/// What the measurement phase of either execution mode works from.
pub(crate) struct Phase<'a> {
    pub(crate) cfg: &'a ScenarioConfig,
    pub(crate) workload: &'a dyn Workload,
    pub(crate) cluster: &'a Cluster,
    pub(crate) dms: &'a [Arc<DependencyModel>],
    pub(crate) plan: &'a Plan,
    /// With piggybacked sampling, the union of all templates' classes,
    /// carried by every client on its remote reads.
    piggyback_classes: Vec<u16>,
    /// Zero of the interval clock, the span tracers and the fault schedule.
    pub(crate) start: Instant,
    pub(crate) merged: Mutex<Merged>,
}

impl Phase<'_> {
    pub(crate) fn deadline_len(&self) -> Duration {
        self.cfg.interval * self.cfg.intervals as u32
    }

    /// Contention phase of the interval `elapsed` falls in.
    pub(crate) fn phase_at(&self, elapsed: Duration) -> usize {
        let interval = (elapsed.as_nanos() / self.cfg.interval.as_nanos()) as usize;
        phase_for(self.cfg, interval)
    }

    /// The span tracer of id band `t`, when observability is on.
    pub(crate) fn tracer(&self, t: usize) -> Option<Tracer> {
        let o = self.cfg.obs?;
        let node = (self.cfg.cluster.servers + t) as u32;
        Some(Tracer::new(self.start, node, t as u64, o.span_capacity))
    }

    /// Prepare worker `t`'s client handle: when observability is on it
    /// carries the worker's one observer, span tracer included.
    pub(crate) fn setup_client(&self, t: usize, client: &mut DtmClient) {
        if !self.piggyback_classes.is_empty() {
            client.set_piggyback_classes(self.piggyback_classes.clone());
        }
        if let Some(h) = &self.cfg.history {
            client.set_history(Arc::clone(h));
        }
        if let Some(o) = self.cfg.obs {
            client.set_observer(TxnObserver {
                spans: self.tracer(t),
                ..TxnObserver::new(o)
            });
        }
    }

    /// The Block sequence `template` runs under right now; under ACN the
    /// controller refreshes it first when its period is up.
    pub(crate) fn block_seq(&self, template: usize, client: &mut DtmClient) -> Arc<BlockSeq> {
        match self.plan {
            Plan::Fixed(seqs) => Arc::clone(&seqs[template]),
            Plan::Acn(ctrls) => {
                ctrls[template].maybe_refresh(client);
                ctrls[template].current()
            }
        }
    }

    /// Timed crash/partition events run on a supervisor thread; the
    /// schedule ends at its last event, all of which precede the
    /// measurement deadline in a sane plan, so the scope's implicit join
    /// does not stall.
    pub(crate) fn spawn_fault_schedule<'s>(&self, s: &'s Scope<'s, '_>) {
        if let Some(events) = self.cfg.chaos.as_ref().map(|p| &p.events) {
            if !events.is_empty() {
                let (net, events, start) = (self.cluster.net().clone(), events.clone(), self.start);
                s.spawn(move || net.run_fault_schedule(&events, start));
            }
        }
    }
}

pub(crate) fn phase_for(cfg: &ScenarioConfig, interval: usize) -> usize {
    match cfg.phase_per_interval.len() {
        0 => 0,
        n => cfg.phase_per_interval[interval.min(n - 1)],
    }
}

/// Run one scenario and collect per-interval statistics.
///
/// # Panics
/// Without a chaos plan, panics on quorum unavailability or retry
/// exhaustion — scenarios on a healthy cluster treat those as
/// configuration errors. With [`ScenarioConfig::chaos`] set they are
/// counted into [`ScenarioResult::failed`] instead.
pub fn run_scenario(workload: &dyn Workload, cfg: &ScenarioConfig) -> ScenarioResult {
    assert!(cfg.client_threads >= 1);
    assert!(
        cfg.client_threads <= cfg.cluster.clients,
        "not enough client slots"
    );
    // Span tracing: one bounded collector shared by every server thread —
    // a preset one, or a fresh one when observing — drained (with the same
    // origin instant as the client rings) after shutdown.
    let mut cluster_cfg = cfg.cluster.clone();
    if let (Some(o), None) = (cfg.obs, &cluster_cfg.spans) {
        cluster_cfg.spans = Some(Arc::new(SpanCollector::new(o.span_capacity)));
    }
    let span_collector = cfg.obs.and(cluster_cfg.spans.clone());
    let cluster = Cluster::start(cluster_cfg);

    // Seed initial state from slot 0 before measurement starts. The seeder
    // records into the history log too — the checker needs the initial
    // versions to account for later reads of them.
    {
        let mut seeder = cluster.client(0);
        if let Some(h) = &cfg.history {
            seeder.set_history(Arc::clone(h));
        }
        workload.seed(&mut seeder);
    }

    // Faults start only after the initial state is fully loaded.
    if let Some(plan) = &cfg.chaos {
        cluster.install_chaos(plan);
    }

    // Static Module: analyze every template once.
    let static_module = StaticModule::new();
    let dms: Vec<Arc<DependencyModel>> = workload
        .templates()
        .iter()
        .map(|p| static_module.analyze(p).expect("workload template invalid"))
        .collect();

    let plan = match cfg.system {
        SystemKind::QrDtm => {
            Plan::Fixed(dms.iter().map(|dm| Arc::new(BlockSeq::flat(dm))).collect())
        }
        SystemKind::QrCn => Plan::Fixed(
            dms.iter()
                .enumerate()
                .map(|(t, dm)| Arc::new(BlockSeq::group_units(dm, &workload.manual_groups(t, dm))))
                .collect(),
        ),
        SystemKind::QrAcn => Plan::Acn(
            dms.iter()
                .map(|dm| {
                    Arc::new(AcnController::new(
                        Arc::clone(dm),
                        AlgorithmModule::with_model(Box::new(SumModel)),
                        cfg.controller,
                    ))
                })
                .collect(),
        ),
    };

    let phase = Phase {
        cfg,
        workload,
        cluster: &cluster,
        dms: &dms,
        plan: &plan,
        piggyback_classes: match (&plan, cfg.controller.sampling) {
            (Plan::Acn(ctrls), acn_core::SamplingMode::Piggyback) => {
                let mut all: Vec<u16> = ctrls.iter().flat_map(|c| c.classes()).collect();
                all.sort_unstable();
                all.dedup();
                all
            }
            _ => Vec::new(),
        },
        start: Instant::now(),
        merged: Mutex::new(Merged {
            series: WindowedSeries::new(cfg.interval.as_nanos() as u64),
            failed: 0,
            aborts: AbortTable::default(),
            work: WorkTotals::default(),
            spans: Vec::new(),
            thread_traces: Vec::new(),
            repair_writes_sent: 0,
        }),
    };
    let wave_stats = match &cfg.batch {
        Some(bc) => Some(run_waves(&phase, bc)),
        None => {
            run_closed_loop(&phase);
            None
        }
    };
    let Phase { start, merged, .. } = phase;
    let refreshes = match &plan {
        Plan::Fixed(_) => 0,
        Plan::Acn(ctrls) => ctrls.iter().map(|c| c.refresh_count()).sum(),
    };
    ScenarioResult {
        refreshes,
        batch: wave_stats,
        ..assemble(
            cfg,
            cluster,
            &dms,
            merged.into_inner(),
            span_collector,
            start,
        )
    }
}

/// The closed-loop measurement phase: each worker thread owns its client
/// handle and generates, decomposes and executes transactions back to back
/// until the deadline.
fn run_closed_loop(ph: &Phase<'_>) {
    let cfg = ph.cfg;
    std::thread::scope(|s| {
        ph.spawn_fault_schedule(s);
        for t in 0..cfg.client_threads {
            let mut client = ph.cluster.client(t);
            ph.setup_client(t, &mut client);
            s.spawn(move || {
                let engine = ExecutorEngine::with_config(cfg.retry, cfg.exec);
                let mut rng = StdRng::seed_from_u64(cfg.seed + t as u64);
                let mut tally = Tally::new(cfg);
                loop {
                    let elapsed = ph.start.elapsed();
                    if elapsed >= ph.deadline_len() {
                        break;
                    }
                    let req = ph.workload.next(&mut rng, ph.phase_at(elapsed));
                    let seq = ph.block_seq(req.template, &mut client);
                    tally.transact(ph, &mut client, req.template, |client, txn| {
                        let program = &ph.dms[req.template].program;
                        engine.run(client, program, &req.params, &seq, txn)
                    });
                }
                ph.merged.lock().worker(&tally, &mut client);
            });
        }
    });
}

/// Post-measurement assembly shared by both execution modes: contention
/// sampling, cluster shutdown, span merging and the
/// [`ScenarioResult`] (its `refreshes` and `batch` are the caller's).
fn assemble(
    cfg: &ScenarioConfig,
    cluster: Cluster,
    dms: &[Arc<DependencyModel>],
    mut merged: Merged,
    span_collector: Option<Arc<SpanCollector>>,
    start: Instant,
) -> ScenarioResult {
    // While the cluster is still up: one contention sample over every class
    // the workload touches (best-effort — a chaos plan may have taken the
    // quorum down, in which case the report just omits contention rows).
    let contention = cfg.obs.map(|_| {
        let classes: BTreeSet<ObjClass> = dms
            .iter()
            .flat_map(|dm| dm.access.read_classes.iter().copied())
            .collect();
        let ids: Vec<u16> = classes.iter().map(|c| c.id).collect();
        let mut sampler = cluster.client(0);
        match sampler.query_contention_full(&ids) {
            Ok(sample) => classes
                .iter()
                .map(|c| {
                    let milli = |m: &std::collections::HashMap<u16, f64>| {
                        (m.get(&c.id).copied().unwrap_or(0.0) * 1000.0).round() as u64
                    };
                    ContentionLevel {
                        class: c.name.to_string(),
                        writes_milli: milli(&sample.writes),
                        aborts_milli: milli(&sample.aborts),
                    }
                })
                .collect(),
            Err(_) => Vec::new(),
        }
    });

    let net = cluster.net().stats();
    let server_stats = cluster.shutdown();
    // Every server has finished: the shared span sink joins the client
    // rings.
    if let Some(collector) = &span_collector {
        merged.spans(collector.drain(start));
    }
    let Merged {
        series,
        failed,
        aborts,
        work,
        mut spans,
        mut thread_traces,
        repair_writes_sent,
    } = merged;
    let intervals: Vec<ExecStats> = (0..cfg.intervals as u64)
        .map(|i| series.get(i).map(|cell| cell.stats).unwrap_or_default())
        .collect();
    let latency = series.total_latency();

    // The servers' side of recovery, summed over replicas by counter
    // name; read repair is the one counter clients keep.
    let recovery = RecoveryCounters {
        repair_writes_sent,
        ..RecoveryCounters::collect_from(ServerStats::COUNTERS, |get| {
            server_stats.iter().map(get).sum()
        })
    };

    let obs = contention.map(|contention| {
        // Decompose the committed transactions' critical paths.
        spans.sort_by_key(|s| (s.trace, s.start_ns, s.id));
        thread_traces.sort_by_key(|r| r.thread);
        let critpath = critical_path(&spans);
        let critpath_rows = aggregate_critpath(&critpath, |c| {
            dms.get(c as usize)
                .map(|dm| dm.program.name.to_string())
                .unwrap_or_else(|| format!("class{c}"))
        });
        ScenarioObs {
            aborts,
            contention,
            spans,
            critpath,
            critpath_rows,
            thread_traces,
            wasted: work,
            series,
        }
    });

    ScenarioResult {
        system: cfg.system,
        interval: cfg.interval,
        intervals,
        refreshes: 0,
        latency,
        failed,
        net,
        obs,
        server_stats,
        recovery,
        batch: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::{Bank, BankConfig};
    use crate::batch::SpecMode;
    use acn_simnet::LatencyModel;

    fn tiny(system: SystemKind) -> ScenarioConfig {
        let mut cfg = ScenarioConfig::scaled(system, 2);
        cfg.cluster = ClusterConfig::test(10, 2);
        cfg.cluster.latency = LatencyModel::Zero;
        cfg.cluster.window.window = Duration::from_millis(20);
        cfg.intervals = 3;
        cfg.interval = Duration::from_millis(60);
        cfg.controller.period = Duration::from_millis(40);
        cfg
    }

    /// The by-name joins that fill the report's `net` and `recovery`
    /// sections are total: every exported counter has a source (a renamed
    /// field on either side would otherwise export a silent zero).
    #[test]
    fn every_exported_net_and_recovery_counter_has_a_source() {
        use acn_obs::Row;
        for f in NetCounters::FIELDS {
            assert!(
                NetStatsSnapshot::COUNTERS.iter().any(|(n, _)| *n == f.key),
                "net.{} has no NetStatsSnapshot counter",
                f.key
            );
        }
        let unsourced: Vec<&str> = RecoveryCounters::FIELDS
            .iter()
            .map(|f| f.key)
            .filter(|k| !ServerStats::COUNTERS.iter().any(|(n, _)| n == k))
            .collect();
        assert_eq!(
            unsourced,
            ["repair_writes_sent"],
            "read repair is the clients' counter; every other one needs a server counter"
        );
    }

    #[test]
    fn flat_scenario_commits_in_every_interval() {
        let bank = Bank::new(BankConfig {
            hot_pool: 4,
            cold_pool: 256,
            write_pct: 90,
        });
        let r = run_scenario(&bank, &tiny(SystemKind::QrDtm));
        assert_eq!(r.intervals.len(), 3);
        assert!(r.total_commits() > 0);
        assert_eq!(r.refreshes, 0);
        assert_eq!(r.total_partial_aborts(), 0, "flat cannot partially abort");
    }

    #[test]
    fn manual_cn_scenario_runs() {
        let bank = Bank::default();
        let r = run_scenario(&bank, &tiny(SystemKind::QrCn));
        assert!(r.total_commits() > 0);
        assert_eq!(r.refreshes, 0);
    }

    #[test]
    fn acn_scenario_reconfigures() {
        let bank = Bank::default();
        let r = run_scenario(&bank, &tiny(SystemKind::QrAcn));
        assert!(r.total_commits() > 0);
        assert!(r.refreshes > 0, "controller should fire at least once");
    }

    #[test]
    fn acn_scenario_with_piggybacked_sampling() {
        let bank = Bank::default();
        let mut cfg = tiny(SystemKind::QrAcn);
        cfg.controller.sampling = acn_core::SamplingMode::Piggyback;
        let r = run_scenario(&bank, &cfg);
        assert!(r.total_commits() > 0);
        assert!(r.refreshes > 0, "piggybacked sampling must still refresh");
    }

    #[test]
    fn latency_histogram_covers_every_commit() {
        let bank = Bank::default();
        let r = run_scenario(&bank, &tiny(SystemKind::QrDtm));
        assert_eq!(
            r.latency.len(),
            r.total_commits(),
            "one latency sample per committed transaction"
        );
        let p50 = r.latency.percentile(0.5).unwrap();
        let p99 = r.latency.percentile(0.99).unwrap();
        assert!(p50 <= p99);
        assert!(p99 < Duration::from_secs(5), "sane upper bound: {p99:?}");
    }

    /// One tally per worker: the series cells *are* the interval counters
    /// and their histograms merge to the run's latency histogram, bucket
    /// for bucket, in both execution modes. Each worker's last transaction
    /// finishes after the deadline, so this also pins the late-completion
    /// clamp: the series never grows a window past the last interval.
    #[test]
    fn series_cells_are_the_interval_counters() {
        for batch in [None, Some(BatchConfig::default())] {
            let mut cfg = tiny(SystemKind::QrCn);
            cfg.obs = Some(ObsConfig::default());
            cfg.batch = batch;
            let r = run_scenario(&Bank::default(), &cfg);
            assert!(r.total_commits() > 0);
            let series = &r.obs.as_ref().expect("obs enabled").series;
            for (i, _) in series.iter() {
                assert!(i < cfg.intervals as u64, "window {i} is past the run");
            }
            for (i, w) in r.intervals.iter().enumerate() {
                let cell = series.get(i as u64).map(|c| c.stats).unwrap_or_default();
                assert_eq!(*w, cell, "interval {i} (batch: {})", batch.is_some());
            }
            assert_eq!(series.total_latency(), r.latency);
            assert_eq!(r.latency.len(), r.total_commits());
        }
    }

    #[test]
    fn phase_schedule_clamps() {
        let cfg = tiny(SystemKind::QrDtm);
        assert_eq!(phase_for(&cfg, 5), 0, "empty schedule is phase 0");
        let mut cfg = cfg;
        cfg.phase_per_interval = vec![0, 1];
        assert_eq!(phase_for(&cfg, 0), 0);
        assert_eq!(phase_for(&cfg, 1), 1);
        assert_eq!(phase_for(&cfg, 9), 1, "repeats the last entry");
    }

    #[test]
    fn throughput_math() {
        let r = ScenarioResult {
            latency: LogHistogram::new(),
            system: SystemKind::QrDtm,
            interval: Duration::from_millis(500),
            intervals: vec![
                ExecStats {
                    commits: 50,
                    full_aborts: 1,
                    partial_aborts: 0,
                    locked_aborts: 4,
                    unavailable_retries: 0,
                },
                ExecStats {
                    commits: 100,
                    full_aborts: 2,
                    partial_aborts: 3,
                    locked_aborts: 1,
                    unavailable_retries: 7,
                },
            ],
            refreshes: 0,
            failed: 0,
            net: NetStatsSnapshot::default(),
            obs: None,
            server_stats: Vec::new(),
            recovery: RecoveryCounters::default(),
            batch: None,
        };
        assert_eq!(r.throughput(0), 100.0);
        assert_eq!(r.throughput(1), 200.0);
        assert_eq!(r.mean_throughput_from(1), 200.0);
        assert_eq!(r.total_commits(), 150);
        assert_eq!(r.total_full_aborts(), 3);
        assert_eq!(r.total_partial_aborts(), 3);
        // Regression: these two used to be dropped on the floor.
        assert_eq!(r.total_locked_aborts(), 5);
        assert_eq!(r.total_unavailable_retries(), 7);
        // The unified report carries every executor counter through.
        let report = r.metrics_report(&[("bench", "unit".to_string())]);
        assert_eq!(report.exec.commits, 150);
        assert_eq!(report.exec.locked_aborts, 5);
        assert_eq!(report.exec.unavailable_retries, 7);
        let lines = report.to_json_lines();
        let parsed = MetricsReport::parse_json_lines(&lines).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn batch_scenario_commits_and_reports_waves() {
        let bank = Bank::new(BankConfig {
            hot_pool: 4,
            cold_pool: 256,
            write_pct: 90,
        });
        let mut cfg = tiny(SystemKind::QrCn);
        cfg.batch = Some(BatchConfig::default());
        let r = run_scenario(&bank, &cfg);
        assert!(r.total_commits() > 0, "batch mode makes progress");
        let ws = r.batch.expect("wave stats present in batch mode");
        assert!(ws.waves > 0);
        assert!(ws.txns >= r.total_commits(), "every commit was scheduled");
        assert!(ws.edges > 0, "hot branches must conflict within a wave");
        let report = r.metrics_report(&[]);
        assert!(
            report.meta.iter().any(|(k, _)| k == "batch_waves"),
            "wave stats exported in the report meta"
        );
    }

    #[test]
    fn batch_attribution_reconciles_with_speculation_kinds() {
        let bank = Bank::new(BankConfig {
            hot_pool: 2,
            cold_pool: 64,
            write_pct: 95,
        });
        let mut cfg = tiny(SystemKind::QrCn);
        cfg.batch = Some(BatchConfig {
            wave: 16,
            spec: SpecMode::Partial,
            overlap: true,
            speculate_inexact: false,
        });
        cfg.obs = Some(ObsConfig::default());
        let r = run_scenario(&bank, &cfg);
        assert!(r.total_commits() > 0);
        let obs = r.obs.as_ref().expect("obs enabled");
        // The exactness invariant must survive the Spec* remapping: every
        // executor-counted abort is attributed exactly once, whichever
        // label it carries.
        assert_eq!(
            obs.aborts.total_of(&acn_obs::AbortKind::EXECUTOR_KINDS),
            r.total_full_aborts() + r.total_partial_aborts() + r.total_locked_aborts(),
            "attribution must reconcile with the interval counters"
        );
        // In batch mode the executor runs with speculation labelling, so
        // no abort may carry the closed-loop labels.
        assert_eq!(
            obs.aborts.total_of(&[
                acn_obs::AbortKind::ReadInvalid,
                acn_obs::AbortKind::CommitConflict,
                acn_obs::AbortKind::Partial,
            ]),
            0,
            "batch-mode aborts must be attributed to Spec* kinds"
        );
    }

    #[test]
    fn batch_full_restart_never_partially_rolls_back() {
        let bank = Bank::default();
        let mut cfg = tiny(SystemKind::QrCn);
        cfg.batch = Some(BatchConfig {
            wave: 16,
            spec: SpecMode::FullRestart,
            overlap: true,
            speculate_inexact: false,
        });
        let r = run_scenario(&bank, &cfg);
        assert!(r.total_commits() > 0);
        assert_eq!(
            r.total_partial_aborts(),
            0,
            "the Block-STM ablation arm runs flat sequences"
        );
    }

    #[test]
    fn neworder_batch_schedules_at_object_granularity() {
        // The regression PR 6 shipped with: ORDER/NEW_ORDER/ORDER_LINE are
        // `Var`-indexed, so without symbolic resolution every NewOrder
        // instance was inexact and the class-level fallback serialized the
        // waves (max_width 1). With the symbolic evaluator + counter
        // predictor the whole mix must resolve predicted-exact — no
        // `speculate_inexact` crutch needed.
        let tpcc = crate::tpcc::Tpcc::new(
            crate::tpcc::TpccConfig {
                warehouses: 2,
                districts_per_warehouse: 4,
                customers_per_district: 20,
                items: 40,
                ol_min: 3,
                ol_max: 6,
            },
            crate::tpcc::TpccMix::NEW_ORDER,
        );
        let mut cfg = tiny(SystemKind::QrCn);
        cfg.batch = Some(BatchConfig {
            wave: 24,
            spec: SpecMode::Partial,
            overlap: true,
            speculate_inexact: false,
        });
        cfg.obs = Some(ObsConfig::default());
        let r = run_scenario(&tpcc, &cfg);
        assert!(r.total_commits() > 0);
        let ws = r.batch.expect("wave stats present in batch mode");
        assert_eq!(
            ws.inexact_txns, 0,
            "every NewOrder access set must resolve (predicted-)exact"
        );
        assert!(
            ws.predicted_txns > 0,
            "the hot-counter predictor must be in play, not just statics"
        );
        assert!(
            ws.max_width > 1,
            "different districts must share a layer (got width {})",
            ws.max_width
        );
        // Predictions ride the same exactness contract as everything else.
        let obs = r.obs.as_ref().expect("obs enabled");
        assert_eq!(
            obs.aborts.total_of(&acn_obs::AbortKind::EXECUTOR_KINDS),
            r.total_full_aborts() + r.total_partial_aborts() + r.total_locked_aborts(),
            "attribution must reconcile with the interval counters"
        );
        let report = r.metrics_report(&[]);
        assert!(
            report.meta.iter().any(|(k, _)| k == "batch_predicted_txns"),
            "predictor counters exported in the report meta"
        );
    }

    /// A collector preset on the cluster config is the one the servers
    /// record into, so it is the one the run drains into its spans and its
    /// server completeness row.
    #[test]
    fn a_preset_span_collector_is_the_one_drained() {
        use acn_obs::{SpanKind, SERVER_TRACE_THREAD};
        let mut cfg = tiny(SystemKind::QrCn);
        cfg.obs = Some(ObsConfig::default());
        cfg.cluster.spans = Some(Arc::new(SpanCollector::new(1 << 16)));
        let r = run_scenario(&Bank::default(), &cfg);
        assert!(r.total_commits() > 0);
        let obs = r.obs.as_ref().expect("obs enabled");
        assert!(
            obs.spans.iter().any(|s| SpanKind::SERVER.contains(&s.kind)),
            "the servers' spans reach the run's spans"
        );
        let server = obs
            .thread_traces
            .iter()
            .find(|row| row.thread == SERVER_TRACE_THREAD)
            .expect("a server completeness row");
        assert!(server.recorded > 0, "{server:?}");
    }

    #[test]
    fn observed_scenario_reconciles_attribution() {
        let bank = Bank::new(BankConfig {
            hot_pool: 4,
            cold_pool: 64,
            write_pct: 95,
        });
        let mut cfg = tiny(SystemKind::QrCn);
        cfg.obs = Some(ObsConfig::default());
        let r = run_scenario(&bank, &cfg);
        assert!(r.total_commits() > 0);
        assert!(r.net.sent > 0, "network counters captured");
        let obs = r.obs.as_ref().expect("obs enabled");
        // Exactness: every executor-counted abort was attributed once.
        assert_eq!(
            obs.aborts.total_of(&acn_obs::AbortKind::EXECUTOR_KINDS),
            r.total_full_aborts() + r.total_partial_aborts() + r.total_locked_aborts(),
            "attribution must reconcile with the interval counters"
        );
        assert!(
            obs.spans.iter().any(|s| s.kind == acn_obs::SpanKind::Block),
            "Block spans come from the executor's events"
        );
        let report = r.metrics_report(&[]);
        let parsed = MetricsReport::parse_json_lines(&report.to_json_lines()).unwrap();
        assert_eq!(parsed, report);
    }
}
