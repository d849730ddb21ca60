//! Batch-ingest execution: conflict-graph waves over the worker pool.
//!
//! Instead of each client thread generating and running its own
//! transactions in a closed loop, a coordinator collects `wave` in-flight
//! transactions at a time, resolves each instance's statically declared
//! read/write sets (cached per template on the [`DependencyModel`]), builds
//! the conflict DAG with [`plan_wave`], and feeds a readiness queue:
//! a transaction becomes dispatchable the moment its conflict indegree
//! drains, so independent transactions run concurrently on the worker
//! threads while conflicting ones execute in arrival order — turning
//! conflicts the static analysis can see into *ordering* instead of
//! aborts.
//!
//! Waves pipeline: [`BatchConfig::overlap`] admits the next wave once the
//! current one is half drained, and the dispatcher links every conflict
//! between a still-unfinished transaction and a newly admitted one as a
//! cross-wave edge, so overlap never loses ordering information. The edge
//! points *from* the old transaction only when it has already started;
//! against a still-pending one the new transaction may go first, which
//! keeps the pipeline's critical path close to the per-wave coloring
//! depth. (Acyclic: a cycle would need a path from a pending job into a
//! running one, and a job only starts after every ancestor finished.)
//!
//! Conflicts the static sets *cannot see* — inexact templates scheduled
//! under [`BatchConfig::speculate_inexact`], which deliberately drops the
//! pessimistic class-level edges — surface at run time as validation or
//! lock aborts. Every instance runs under its wave's [`Prediction`], so
//! those mis-speculations are attributed as `SpecPartial` / `SpecFull`,
//! and — in [`SpecMode::Partial`] — recovered by the
//! closed-nesting executor's partial rollback from the offending Block.
//! [`SpecMode::FullRestart`] forces a flat (single-Block) sequence,
//! reproducing Block-STM's re-execute-from-scratch recovery: the ablation
//! the paper never ran.

use crate::driver::{Phase, Tally};
use crate::workload::TxnRequest;
use acn_core::{
    conflicts_with, plan_wave_with, BlockSeq, ExecutorEngine, InexactPolicy, Prediction,
    PredictionOutcome, WavePlan, WaveStats,
};
use acn_dtm::DtmClient;
use acn_obs::SpanKind;
use acn_txir::{CounterOracle, CounterSite, ResolvedAccess};
use parking_lot::{Condvar, Mutex};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How the executor recovers from a dynamic mis-speculation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecMode {
    /// Closed-nested Block sequences: a missed conflict rolls back only
    /// the offending Block (the paper's partial-rollback machinery).
    Partial,
    /// Flat sequences: every missed conflict re-executes the whole
    /// transaction — Block-STM-style recovery, the ablation baseline.
    FullRestart,
}

/// Batch-mode knobs on [`crate::driver::ScenarioConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Transactions collected per wave.
    pub wave: usize,
    /// Mis-speculation recovery mode.
    pub spec: SpecMode,
    /// Admit the next wave once the current one is half drained instead of
    /// waiting for a full barrier. Conflicts against still-unfinished
    /// transactions become cross-wave edges, so overlap keeps the workers
    /// fed without losing any ordering the static sets can prove.
    pub overlap: bool,
    /// Speculate on inexact pairs: drop the pessimistic class-level edges
    /// for pairs the static analysis could not fully resolve and dispatch
    /// them concurrently. A real collision is caught by the DTM's
    /// validation and repaired per [`SpecMode`] — this is the knob that
    /// turns the scheduler from conservative ordering into speculation
    /// with a partial-rollback safety net.
    pub speculate_inexact: bool,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            wave: 32,
            spec: SpecMode::Partial,
            overlap: true,
            speculate_inexact: false,
        }
    }
}

/// Key of one hot-counter cursor: `(class id, host object index, field)`.
type CounterKey = (u16, u64, u16);

/// The coordinator-side counter predictor: one cursor per hot-counter site,
/// seeded at 0 (the store's never-written default), advanced by each
/// predicted instance's delta, and re-seeded by the workers from
/// `observed + delta` whenever a prediction fails validation — so the
/// cursor resynchronizes with the store within one repair.
type CounterCursors = Mutex<HashMap<CounterKey, i64>>;

/// [`CounterOracle`] over a cursor map: predict the current cursor value
/// and advance it by the instance's delta.
struct CursorOracle<'a> {
    map: &'a mut HashMap<CounterKey, i64>,
}

impl CounterOracle for CursorOracle<'_> {
    fn predict(&mut self, site: &CounterSite) -> Option<i64> {
        let e = self
            .map
            .entry((site.obj.class.id, site.obj.index, site.field.0))
            .or_insert(0);
        let v = *e;
        *e += site.delta;
        Some(v)
    }
}

/// One scheduled transaction in the readiness queue.
struct Job {
    req: TxnRequest,
    /// Resolved access set, kept for cross-wave edge tests.
    access: ResolvedAccess,
    /// Successor job indices (already offset into the global job list).
    succs: Vec<usize>,
}

/// Queue state shared between the coordinator and the workers.
#[derive(Default)]
struct QueueState {
    /// Every job ever admitted, by global index; `None` once retired.
    jobs: Vec<Option<Job>>,
    indeg: Vec<usize>,
    /// Dispatched flag per job. A `ready` entry is stale once a cross-wave
    /// edge re-raises the job's indegree or a duplicate push landed;
    /// workers skip entries whose indegree is non-zero or that started.
    started: Vec<bool>,
    ready: VecDeque<usize>,
    /// Indices of admitted-but-unfinished jobs (dispatched or not) — the
    /// set newly admitted waves must be conflict-tested against.
    live: Vec<usize>,
    /// Jobs admitted but not yet completed.
    remaining: usize,
    shutdown: bool,
}

impl QueueState {
    /// Admit one planned wave (`accesses[k]` resolves `reqs[k]`) and return
    /// the number of cross-wave edges it took. Every conflict between a new
    /// transaction and a still-unfinished earlier one becomes an edge, so
    /// overlap pipelines the waves without dropping provable ordering. An
    /// already-running earlier transaction must come first; a still-pending
    /// one can just as soundly run *after* the newcomer, which avoids
    /// chaining each wave's tail to the next wave's head.
    fn admit(
        &mut self,
        reqs: Vec<TxnRequest>,
        accesses: Vec<ResolvedAccess>,
        wave: &WavePlan,
        policy: InexactPolicy,
    ) -> u64 {
        let base = self.jobs.len();
        self.indeg.extend(wave.indegree.iter().copied());
        self.started.extend(std::iter::repeat_n(false, wave.n));
        let mut cross_edges = 0;
        for (k, (req, access)) in reqs.into_iter().zip(accesses).enumerate() {
            let mut succs: Vec<usize> = wave.succs[k].iter().map(|&j| j + base).collect();
            for &i in &self.live {
                let old = self.jobs[i].as_mut().expect("live jobs are unretired");
                if conflicts_with(&old.access, &access, policy) {
                    if self.started[i] {
                        old.succs.push(base + k);
                        self.indeg[base + k] += 1;
                    } else {
                        succs.push(i);
                        self.indeg[i] += 1;
                    }
                    cross_edges += 1;
                }
            }
            self.jobs.push(Some(Job { req, access, succs }));
        }
        for k in base..base + wave.n {
            self.live.push(k);
            if self.indeg[k] == 0 {
                self.ready.push_back(k);
            }
        }
        self.remaining += wave.n;
        cross_edges
    }

    /// Job `idx` finished: release its request and access sets — both were
    /// read only while it was live (the dispatch clone, the cross-wave edge
    /// test), and a run admits jobs for as long as it lasts — and hand back
    /// the successors whose indegrees the caller drains.
    fn retire(&mut self, idx: usize) -> Vec<usize> {
        if let Some(p) = self.live.iter().position(|&i| i == idx) {
            self.live.swap_remove(p);
        }
        self.remaining -= 1;
        self.jobs[idx].take().map_or_else(Vec::new, |job| job.succs)
    }
}

struct Shared {
    q: Mutex<QueueState>,
    /// Workers wait here for ready jobs.
    work: Condvar,
    /// The coordinator waits here for the wave to drain.
    drained: Condvar,
}

/// What the workers share besides the scenario [`Phase`]: the readiness
/// queue and the counter predictor.
struct Wave<'a> {
    ph: &'a Phase<'a>,
    bc: &'a BatchConfig,
    shared: Shared,
    engine: ExecutorEngine,
    /// Flat sequences per template ([`SpecMode::FullRestart`] only).
    flat: Vec<Arc<BlockSeq>>,
    /// Hot-counter cursors shared between the coordinator (prediction) and
    /// the workers (mispredict feedback).
    counters: CounterCursors,
    /// Failed predictions over the whole run.
    mispredicted: AtomicU64,
}

/// Run the batch-scheduled measurement phase: spawn the worker pool, then
/// coordinate waves from the calling thread until the deadline. Returns
/// the per-wave aggregate stats.
pub(crate) fn run_waves(ph: &Phase<'_>, bc: &BatchConfig) -> WaveStats {
    let threads = ph.cfg.client_threads;

    let w = Wave {
        ph,
        bc,
        shared: Shared {
            q: Mutex::new(QueueState::default()),
            work: Condvar::new(),
            drained: Condvar::new(),
        },
        engine: ExecutorEngine::with_config(ph.cfg.retry, ph.cfg.exec),
        // The ablation arm: flat sequences so every recovery is a full
        // re-execution, regardless of what the plan would nest.
        flat: match bc.spec {
            SpecMode::FullRestart => ph
                .dms
                .iter()
                .map(|dm| Arc::new(BlockSeq::flat(dm)))
                .collect(),
            SpecMode::Partial => Vec::new(),
        },
        counters: Mutex::new(HashMap::new()),
        mispredicted: AtomicU64::new(0),
    };
    let (shared, counters) = (&w.shared, &w.counters);
    let mut stats = WaveStats::default();

    std::thread::scope(|s| {
        ph.spawn_fault_schedule(s);
        for t in 0..threads {
            let w = &w;
            let mut client = ph.cluster.client(t);
            ph.setup_client(t, &mut client);
            s.spawn(move || worker_loop(w, client));
        }

        // Coordinator: generate, schedule and admit waves until the
        // deadline. One RNG stream makes the generated transaction
        // sequence independent of the worker count.
        let mut rng = StdRng::seed_from_u64(ph.cfg.seed);
        // The coordinator's own tracer records one root span per wave; its
        // id band (`threads`) is disjoint from every worker's.
        let mut wave_tracer = ph.tracer(threads);
        let hard_deadline = ph.start + ph.deadline_len();
        loop {
            let elapsed = ph.start.elapsed();
            if elapsed >= ph.deadline_len() {
                break;
            }
            let phase = ph.phase_at(elapsed);
            let sched_start = Instant::now();
            let reqs: Vec<TxnRequest> = (0..bc.wave)
                .map(|_| ph.workload.next(&mut rng, phase))
                .collect();
            let policy = if bc.speculate_inexact {
                InexactPolicy::Speculate
            } else {
                InexactPolicy::Order
            };
            // Two-pass predicted resolution. Pass 1 resolves against a
            // scratch copy of the counter cursors (arrival order) just to
            // build the plan; pass 2 re-resolves in execution order —
            // `(layer, arrival)`, the order conflicting clique members
            // actually dispatch — against the real cursors, so the k-th
            // same-counter transaction to *run* predicts the k-th counter
            // value. The plan is reused across passes: permuting predicted
            // values within a counter group preserves its conflict edges
            // (same-counter instances already conflict on the exact,
            // Param-indexed host object itself), and any residual
            // discrepancy is just a mis-speculation the DTM validates and
            // the executor repairs.
            let mut scratch = counters.lock().clone();
            let pass1: Vec<_> = reqs
                .iter()
                .map(|req| {
                    ph.dms[req.template]
                        .access
                        .resolve_with(&req.params, &mut CursorOracle { map: &mut scratch })
                })
                .collect();
            let wave = plan_wave_with(&pass1, policy);
            let mut order: Vec<usize> = (0..wave.n).collect();
            order.sort_by_key(|&k| (wave.layer[k], k));
            let mut accesses: Vec<Option<ResolvedAccess>> = (0..wave.n).map(|_| None).collect();
            {
                let mut cursors = counters.lock();
                for &k in &order {
                    accesses[k] = Some(
                        ph.dms[reqs[k].template]
                            .access
                            .resolve_with(&reqs[k].params, &mut CursorOracle { map: &mut cursors }),
                    );
                }
            }
            let accesses: Vec<ResolvedAccess> = accesses.into_iter().flatten().collect();
            stats.absorb(&wave);
            if let Some(tr) = wave_tracer.as_mut() {
                tr.record_root(SpanKind::WaveSchedule, sched_start, wave.n as u16);
            }

            // Every notify below comes after the guard drops: the stand-in
            // `parking_lot` cannot requeue, so a worker woken under the
            // lock would only block on it again.
            stats.cross_edges += shared.q.lock().admit(reqs, accesses, &wave, policy);
            shared.work.notify_all();
            // Barrier (or half-barrier under overlap): wait until the wave
            // drains far enough to admit the next one.
            let admit_at = if bc.overlap { bc.wave / 2 } else { 0 };
            let mut q = shared.q.lock();
            while q.remaining > admit_at {
                if shared.drained.wait_until(&mut q, hard_deadline).timed_out() {
                    break;
                }
            }
        }
        shared.q.lock().shutdown = true;
        shared.work.notify_all();

        if let Some(tracer) = wave_tracer {
            ph.merged.lock().spans(tracer.drain());
        }
    });

    stats.mispredicts = w.mispredicted.load(Ordering::Relaxed);
    stats
}

/// One worker: pull ready jobs, execute them on its own client handle,
/// then drain successors' indegrees.
fn worker_loop(w: &Wave<'_>, mut client: DtmClient) {
    let Wave { ph, shared, .. } = w;
    let mut tally = Tally::new(ph.cfg);
    loop {
        let req = {
            let mut q = shared.q.lock();
            let idx = loop {
                if q.shutdown {
                    break None;
                }
                // Pop until a genuinely ready job; entries go stale when a
                // cross-wave edge re-raises an indegree or a job was
                // pushed twice (each drain to zero pushes).
                let mut found = None;
                while let Some(i) = q.ready.pop_front() {
                    if q.indeg[i] == 0 && !q.started[i] {
                        found = Some(i);
                        break;
                    }
                }
                if found.is_some() {
                    break found;
                }
                shared.work.wait(&mut q);
            };
            idx.map(|i| {
                q.started[i] = true;
                // The predictions are all the executor needs from the
                // schedule: it reads what to fetch (and what to presume
                // absent) off the template's own access table.
                let job = q.jobs[i].as_ref().expect("ready jobs are unretired");
                (i, job.req.clone(), job.access.predicted.clone())
            })
        };
        let Some((idx, req, preds)) = req else {
            break;
        };

        let dm = &ph.dms[req.template];
        let seq = match w.bc.spec {
            SpecMode::FullRestart => Arc::clone(&w.flat[req.template]),
            SpecMode::Partial => ph.block_seq(req.template, &mut client),
        };
        tally.transact(ph, &mut client, req.template, |client, txn| {
            let mut outcome = PredictionOutcome::default();
            // The prediction also gives mis-speculations the dedicated
            // Spec* attribution.
            let prediction = Some(Prediction {
                preds: &preds,
                outcome: &mut outcome,
            });
            let res = w
                .engine
                .run_with(client, &dm.program, &req.params, &seq, txn, prediction);
            if !outcome.mispredicts.is_empty() {
                w.mispredicted
                    .fetch_add(outcome.mispredicts.len() as u64, Ordering::Relaxed);
                // Re-seed the coordinator's cursor from what the store
                // actually held, plus this instance's own advance —
                // the next wave predicts correctly again.
                let mut map = w.counters.lock();
                for (p, observed) in &outcome.mispredicts {
                    map.insert((p.obj.class.id, p.obj.index, p.field.0), observed + p.delta);
                }
            }
            res
        });

        let readied = {
            let mut q = shared.q.lock();
            let mut readied = 0;
            for sdx in q.retire(idx) {
                q.indeg[sdx] -= 1;
                if q.indeg[sdx] == 0 {
                    q.ready.push_back(sdx);
                    readied += 1;
                }
            }
            readied
        };
        for _ in 0..readied {
            shared.work.notify_one();
        }
        shared.drained.notify_one();
    }
    ph.merged.lock().worker(&tally, &mut client);
}

#[cfg(test)]
mod tests {
    use super::*;
    use acn_core::plan_wave;
    use acn_txir::{ObjClass, ObjectId, Value};

    const ROW: ObjClass = ObjClass::new(0, "row");

    /// An exact instance that overwrites `ROW[i]`.
    fn writer(i: u64) -> (TxnRequest, ResolvedAccess) {
        let req = TxnRequest {
            template: 0,
            params: vec![Value::Int(i as i64)],
        };
        let access = ResolvedAccess {
            reads: vec![ObjectId::new(ROW, i)],
            writes: vec![ObjectId::new(ROW, i)],
            read_classes: vec![ROW.id],
            write_classes: vec![ROW.id],
            exact: true,
            predicted: Vec::new(),
        };
        (req, access)
    }

    fn admit(q: &mut QueueState, rows: &[u64]) -> u64 {
        let (reqs, accesses): (Vec<_>, Vec<_>) = rows.iter().map(|&i| writer(i)).unzip();
        let wave = plan_wave(&accesses);
        q.admit(reqs, accesses, &wave, InexactPolicy::Order)
    }

    #[test]
    fn a_retired_job_holds_no_vectors_and_no_later_wave_scans_it() {
        let mut q = QueueState::default();
        assert_eq!(admit(&mut q, &[7, 8]), 0, "nothing live to cross");
        assert_eq!(q.ready, [0, 1]);

        // Job 0 runs and finishes while job 1 is still pending.
        q.started[0] = true;
        assert!(q.retire(0).is_empty());
        assert!(
            q.jobs[0].is_none(),
            "request, access sets and edges released"
        );
        assert_eq!((q.live.as_slice(), q.remaining), (&[1][..], 1));

        // The next wave writes both rows again. Its scan walks `live` only:
        // the row-7 writer takes no edge from the retired job (indexing its
        // slot would panic), the row-8 writer goes ahead of pending job 1.
        assert_eq!(admit(&mut q, &[7, 8]), 1);
        assert_eq!(q.indeg, [0, 1, 0, 0]);
        assert_eq!(q.remaining, 3);
        q.started[3] = true;
        assert_eq!(q.retire(3), [1], "job 1 waits for the newcomer");
        assert!(q.jobs[3].is_none() && q.jobs[1].is_some());
    }
}
