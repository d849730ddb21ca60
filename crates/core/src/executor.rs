//! The Executor Engine: runs transaction instances over a Block sequence.
//!
//! "This module is responsible for maintaining the sequence of Blocks that
//! comprises a transaction and for executing those Blocks in that order."
//! Each Block runs as one closed-nested transaction; a single-Block
//! sequence degenerates to flat execution (the QR-DTM baseline). Partial
//! rollback, full restart and commit-time conflicts are all handled here,
//! with a bounded randomized backoff between restarts.

use crate::blocks::BlockSeq;
use acn_dtm::{AbortScope, DtmClient, DtmError, SpecCache, TxnCtx};
use acn_obs::{AbortKind, ExecStats, SpanKind, TxnEvent};
use acn_txir::{
    AccessMode, AccessSummary, ComputeOp, EvalError, ObjectId, Operand, PredictedRead, Program,
    Stmt, StmtIdx, Value, VarId,
};
use std::time::Duration;

/// Where a run reports what happened: the event is the only thing a site
/// produces, handed once to the counters and once to the client's
/// observer when one is installed, so no two views can disagree.
#[inline]
fn emit(stats: &mut ExecStats, client: &mut DtmClient, ev: TxnEvent) {
    stats.on_event(ev);
    if let Some(o) = client.observer_mut() {
        o.on_event(ev);
    }
}

/// Restart policy for the optimistic retry loops.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Full restarts before giving up with [`RunError::RetriesExhausted`].
    pub max_restarts: usize,
    /// Consecutive partial (child) retries of one Block before escalating
    /// to a full restart.
    pub max_partial_retries: usize,
    /// Base of the randomized backoff between full restarts.
    pub backoff_base: Duration,
    /// Restarts allowed on [`RunError::Unavailable`] before it is surfaced
    /// as fatal. Defaults to 0 (fail fast, the historical behavior): a
    /// healthy cluster never loses a quorum, so unavailability means
    /// misconfiguration. Chaos runs set this high — a fault schedule can
    /// partition a client away from every quorum for a while, and the run
    /// should resume once links heal rather than kill the worker.
    pub max_unavailable_retries: usize,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_restarts: 10_000,
            max_partial_retries: 64,
            backoff_base: Duration::from_micros(100),
            max_unavailable_retries: 0,
        }
    }
}

/// Execution-path toggles, independent of the retry policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutorConfig {
    /// Run every open through the speculative read path ([`AccessSummary`]):
    /// one batched quorum round at attempt start for every open the
    /// parameters resolve, one more per data-dependency level, and none at
    /// all for inserts presumed absent. On by default; off is the paper-literal
    /// arm the ablations compare against — one read round per open, each
    /// re-validating the full read-set; no cache, no blind opens.
    pub batched_reads: bool,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            batched_reads: true,
        }
    }
}

/// Terminal failures of a transaction run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// No quorum available — the cluster lost too many servers.
    Unavailable,
    /// The commit was decided but not acknowledged by the full write
    /// quorum ([`DtmError::Decided`]). Terminal, whatever the policy: the
    /// history already holds the decision, so the operation is not run
    /// again — and not reported as a commit either.
    Decided,
    /// The retry policy was exhausted without a commit.
    RetriesExhausted,
    /// The program computed an ill-typed value (a workload bug).
    Eval(EvalError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Unavailable => write!(f, "quorum unavailable"),
            RunError::Decided => write!(f, "commit decided, not acknowledged"),
            RunError::RetriesExhausted => write!(f, "retry policy exhausted"),
            RunError::Eval(e) => write!(f, "evaluation error: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

/// Feedback from one predicted run (see [`Prediction`]):
/// what the executor actually observed at counter reads that failed
/// validation — the coordinator's predictor re-seeds from `observed +
/// delta` — plus any aliased-open degradations the run absorbed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PredictionOutcome {
    /// `(prediction, observed value)` for every failed validation.
    pub mispredicts: Vec<(PredictedRead, i64)>,
    /// Aliased-open aborts that degraded the run to flat program order.
    pub aliased: u64,
}

enum StepError {
    Dtm(DtmError),
    Eval(EvalError),
    /// A predicted counter read observed a different value than the batch
    /// scheduler assumed: the wave's access sets were wrong for this
    /// instance. Handled at the abort sites (never reaches `step_error`).
    Mispredict {
        pred: PredictedRead,
        observed: i64,
    },
    /// An `Open` resolved to an object already held by a *different*
    /// handle, voiding the dependency analysis's distinct-objects
    /// assumption. Handled at the abort sites (never reaches `step_error`).
    Aliased {
        obj: ObjectId,
    },
}

impl From<DtmError> for StepError {
    fn from(e: DtmError) -> Self {
        StepError::Dtm(e)
    }
}
impl From<EvalError> for StepError {
    fn from(e: EvalError) -> Self {
        StepError::Eval(e)
    }
}

/// The speculative read state of one run: the one path by which an object
/// is fetched ahead of its `Open`. Absent when batched reads are off.
struct SpecReads<'a> {
    table: &'a AccessSummary,
    params: &'a [Value],
    /// Objects whose blind presumption failed earlier in this run: they
    /// exist, so every later attempt fetches them instead of presuming.
    demoted: Vec<ObjectId>,
    /// This attempt's fetched copies (see [`SpecCache`] for the rule).
    cache: SpecCache,
    /// Counter values known to this attempt, by [`AccessSummary::counters`]
    /// site: a still-active prediction at attempt start, the observed
    /// value once the real read ran. Empty unless some fetched index reads
    /// a counter ([`AccessSummary::fetch_derives`]).
    counters: Vec<Option<i64>>,
    /// Objects this attempt opened blind.
    presumed: Vec<ObjectId>,
    /// Objects fetched per read round issued from inside a statement
    /// since the Block body started, for its `BatchedRead` events.
    late_rounds: Vec<u32>,
}

impl<'a> SpecReads<'a> {
    fn new(table: &'a AccessSummary, params: &'a [Value]) -> Self {
        SpecReads {
            table,
            params,
            demoted: Vec::new(),
            cache: SpecCache::default(),
            counters: Vec::new(),
            presumed: Vec::new(),
            late_rounds: Vec::new(),
        }
    }

    /// Start an attempt: drop the previous attempt's state and return what
    /// the one initial round fetches — every fetched open resolvable from
    /// the parameters and the still-active predictions, plus the demoted
    /// objects.
    fn begin(&mut self, preds: &[PredictedRead]) -> Vec<ObjectId> {
        self.cache = SpecCache::default();
        self.presumed.clear();
        let (table, params) = (self.table, self.params);
        self.counters.clear();
        if table.fetch_derives {
            self.counters
                .extend(table.counters.iter().enumerate().map(|(c, site)| {
                    let host = table.counter_host(c, params)?;
                    let pred = preds
                        .iter()
                        .find(|p| p.obj == host && p.field == site.field)?;
                    Some(pred.value)
                }));
        }
        let mut objs = table.fetch_list(params, &self.counters);
        for o in &self.demoted {
            if !objs.contains(o) {
                objs.push(*o);
            }
        }
        objs
    }

    /// A remote round reported `objs` stale. The ones this attempt presumed
    /// absent are demoted for the rest of the run, and the cached copies
    /// are evicted — a Block re-run must not replay the copy that
    /// invalidated it. Returns what to refetch before such a re-run.
    fn invalidated(&mut self, objs: &[ObjectId]) -> Vec<ObjectId> {
        let mut refetch = Vec::new();
        for o in objs {
            let presumed = self.presumed.contains(o);
            if presumed && !self.demoted.contains(o) {
                self.demoted.push(*o);
            }
            if self.cache.evict(o) || presumed {
                refetch.push(*o);
            }
        }
        refetch
    }
}

/// Statement-level access to the running transaction: its context — with
/// the running Block's scope open on it on a nested schedule — and the
/// run's speculative reads.
struct Access<'a, 'r> {
    ctx: &'a mut TxnCtx,
    reads: Option<&'a mut SpecReads<'r>>,
}

impl Access<'_, '_> {
    /// Execute an `Open`. With the speculative read path on, an insert
    /// ([`acn_txir::OpenRow::absent`]) of an object this run has no reason
    /// to believe exists installs the presumed-absent copy with no round;
    /// everything else installs from the cache, and only a miss reads
    /// remotely.
    fn open(
        &mut self,
        client: &mut DtmClient,
        obj: ObjectId,
        update: bool,
        blind: bool,
    ) -> Result<(), DtmError> {
        let Some(r) = self.reads.as_deref_mut() else {
            return self.ctx.open(client, obj, update);
        };
        if blind && !r.cache.contains(&obj) && !r.demoted.contains(&obj) {
            // Presumed only if the copy went in: an object the transaction
            // has really read keeps its real copy, and a Block re-run
            // presumes the same object again.
            if self.ctx.open_blind(obj, update) && !r.presumed.contains(&obj) {
                r.presumed.push(obj);
            }
            return Ok(());
        }
        self.ctx.open_spec(client, obj, update, &r.cache)
    }

    /// Does some fetched open's index derive from a counter read?
    #[inline]
    fn derives(&self) -> bool {
        self.reads.as_deref().is_some_and(|r| r.table.fetch_derives)
    }

    /// A `GetField` just produced `value` in register `reg`. If that was a
    /// counter some fetched open's index derives from, the opens it
    /// unlocks are resolved now and fetched in one round — a data-dependency
    /// level costs one round, not one per open. Only called for templates
    /// that have such an open ([`AccessSummary::fetch_derives`]); none of
    /// the in-tree workloads does.
    fn observe(
        &mut self,
        client: &mut DtmClient,
        reg: VarId,
        value: &Value,
    ) -> Result<(), DtmError> {
        let r = self.reads.as_deref_mut().expect("derives() checked");
        let Some(site) = r.table.counters.iter().position(|c| c.reg == reg) else {
            return Ok(());
        };
        r.counters[site] = value.as_int().ok();
        let mut want = r.table.fetch_list(r.params, &r.counters);
        want.retain(|o| !r.cache.contains(o));
        let fresh = self.ctx.fetch_spec(client, &want)?;
        if !fresh.is_empty() {
            r.late_rounds.push(fresh.len() as u32);
        }
        r.cache.absorb(fresh);
        Ok(())
    }
}

/// Register file plus object-handle table for one transaction attempt.
struct Frame<'p> {
    params: &'p [Value],
    env: Vec<Value>,
    handles: Vec<Option<ObjectId>>,
}

impl<'p> Frame<'p> {
    fn new(program: &Program, params: &'p [Value]) -> Self {
        Frame {
            params,
            env: vec![Value::Unit; program.vars as usize],
            handles: vec![None; program.vars as usize],
        }
    }

    fn eval(&self, op: &Operand) -> Value {
        match op {
            Operand::Const(v) => v.clone(),
            Operand::Var(v) => self.env[v.0 as usize].clone(),
            Operand::Param(p) => self.params[p.0 as usize].clone(),
        }
    }

    fn handle(&self, var: VarId) -> ObjectId {
        self.handles[var.0 as usize].expect("handle used before open")
    }
}

/// Run-time guards threaded through statement execution: the attempt's
/// still-active counter predictions (validated at the real read) and the
/// aliased-open check (nested mode only — flat program order is
/// alias-safe).
struct StepGuards<'a> {
    preds: Option<&'a mut Vec<PredictedRead>>,
    alias_check: bool,
    /// Counts update-mode opens (commit-time lock claims) for the
    /// wasted-work ledger's `LockHolds` event.
    lock_holds: &'a mut u32,
}

fn run_stmt(
    acc: &mut Access<'_, '_>,
    client: &mut DtmClient,
    frame: &mut Frame<'_>,
    stmt: &Stmt,
    guards: &mut StepGuards<'_>,
) -> Result<(), StepError> {
    match stmt {
        Stmt::Open {
            var,
            class,
            index,
            mode,
        } => {
            let idx = frame.eval(index).as_int()? as u64;
            let obj = ObjectId::new(*class, idx);
            if guards.alias_check {
                // Handle slots from a rolled-back child run may be stale
                // (a re-run can take the other Cond branch), so this scan
                // can false-positive — safe, since the only consequence is
                // degrading the attempt to the flat program-order path.
                let slot = var.0 as usize;
                if frame
                    .handles
                    .iter()
                    .enumerate()
                    .any(|(i, h)| i != slot && *h == Some(obj))
                {
                    return Err(StepError::Aliased { obj });
                }
            }
            let update = matches!(mode, AccessMode::Update);
            let blind = acc
                .reads
                .as_deref()
                .is_some_and(|r| r.table.presumed_absent(*var));
            acc.open(client, obj, update, blind)?;
            if update {
                *guards.lock_holds += 1;
            }
            frame.handles[var.0 as usize] = Some(obj);
        }
        Stmt::GetField { var, obj, field } => {
            let handle = frame.handle(*obj);
            let value = acc.ctx.get_field(handle, *field);
            if let Some(preds) = guards.preds.as_deref_mut() {
                if let Some(pos) = preds
                    .iter()
                    .position(|p| p.obj == handle && p.field == *field)
                {
                    let p = preds[pos];
                    match value.as_int() {
                        Ok(v) if v == p.value => {
                            // Validated: retire the prediction so later
                            // re-reads (after the counter advanced) don't
                            // compare against the pre-advance value.
                            preds.swap_remove(pos);
                        }
                        Ok(v) => {
                            return Err(StepError::Mispredict {
                                pred: p,
                                observed: v,
                            })
                        }
                        Err(_) => {
                            return Err(StepError::Mispredict {
                                pred: p,
                                observed: 0,
                            })
                        }
                    }
                }
            }
            if acc.derives() {
                acc.observe(client, *var, &value)?;
            }
            frame.env[var.0 as usize] = value;
        }
        Stmt::SetField { obj, field, value } => {
            let v = frame.eval(value);
            acc.ctx.set_field(frame.handle(*obj), *field, v);
        }
        Stmt::Compute { out, op, ins } => {
            // The arguments are evaluated into registers on the stack.
            let mut args = [const { Value::Unit }; ComputeOp::MAX_ARITY];
            let Some(regs) = args.get_mut(..ins.len()) else {
                let (expected, got) = (op.arity(), ins.len());
                return Err(EvalError::ArityMismatch {
                    op: op.name(),
                    expected,
                    got,
                }
                .into());
            };
            for (reg, o) in regs.iter_mut().zip(ins) {
                *reg = frame.eval(o);
            }
            frame.env[out.0 as usize] = op.eval(regs)?;
        }
        Stmt::Cond {
            pred,
            then_br,
            else_br,
        } => {
            let branch = if frame.eval(pred).as_bool()? {
                then_br
            } else {
                else_br
            };
            for s in branch {
                run_stmt(acc, client, frame, s, guards)?;
            }
        }
    }
    Ok(())
}

/// The Executor Engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecutorEngine {
    policy: RetryPolicy,
    config: ExecutorConfig,
}

impl ExecutorEngine {
    /// Build with an explicit retry policy and default execution config.
    pub fn new(policy: RetryPolicy) -> Self {
        Self::with_config(policy, ExecutorConfig::default())
    }

    /// Build with explicit retry policy and execution config.
    pub fn with_config(policy: RetryPolicy, config: ExecutorConfig) -> Self {
        ExecutorEngine { policy, config }
    }

    /// Execute one transaction instance (`program` + `params`) over the
    /// Block sequence `seq`, retrying on aborts per the policy. Statistics
    /// are accumulated into `stats`.
    pub fn run(
        &self,
        client: &mut DtmClient,
        program: &Program,
        params: &[Value],
        seq: &BlockSeq,
        stats: &mut ExecStats,
    ) -> Result<(), RunError> {
        self.run_with(client, program, params, seq, stats, None)
    }

    /// [`ExecutorEngine::run`] under the batch scheduler's predictions
    /// (see [`Prediction`]), when given. Every event of the run feeds
    /// `stats` and the client's observer alike, so the observer's
    /// attribution table reconciles against `stats` to the unit
    /// (`total_of(EXECUTOR_KINDS) == full + partial + locked`). The run is
    /// not timed here: a caller that wants the end-to-end latency (retries
    /// and backoff included) reads the clock around the call.
    pub fn run_with(
        &self,
        client: &mut DtmClient,
        program: &Program,
        params: &[Value],
        seq: &BlockSeq,
        stats: &mut ExecStats,
        prediction: Option<Prediction<'_>>,
    ) -> Result<(), RunError> {
        assert_eq!(
            params.len(),
            program.params as usize,
            "instance must bind every parameter"
        );
        debug_assert_eq!(
            seq.opens.vars(),
            program.vars as usize,
            "the Block sequence was built from another template's model"
        );
        let inst = Instance {
            program,
            params,
            seq,
        };
        let mut run = RunState {
            stats,
            reads: self
                .config
                .batched_reads
                .then(|| SpecReads::new(&seq.opens, params)),
            // Predictions persist across attempts: a prediction dropped
            // after a mispredict stays dropped, so a restarted attempt
            // cannot trip over the same wrong value again.
            preds: prediction.map(|p| PredState {
                active: p.preds.to_vec(),
                outcome: p.outcome,
            }),
            forced_flat: false,
        };
        let mut restarts = 0usize;
        let mut unavailable = 0usize;
        loop {
            match self.attempt(client, &inst, &mut run) {
                Ok(()) => {
                    let restarts = restarts as u32;
                    emit(run.stats, client, TxnEvent::Commit { restarts });
                    return Ok(());
                }
                Err(AttemptError::Restart) => {
                    restarts += 1;
                    if restarts >= self.policy.max_restarts {
                        return Err(RunError::RetriesExhausted);
                    }
                    let cap = jitter_cap(self.policy.backoff_base, restarts);
                    client.pause(SpanKind::Backoff, Duration::ZERO, cap);
                }
                Err(AttemptError::Fatal(RunError::Unavailable))
                    if unavailable < self.policy.max_unavailable_retries =>
                {
                    // A fault window may have cut this client off from every
                    // quorum; back off (the window is typically much longer
                    // than a conflict) and restart the attempt from scratch.
                    unavailable += 1;
                    emit(run.stats, client, TxnEvent::UnavailableRetry);
                    let cap = jitter_cap(self.policy.backoff_base.saturating_mul(8), unavailable);
                    client.pause(SpanKind::Backoff, Duration::ZERO, cap);
                }
                Err(AttemptError::Fatal(e)) => return Err(e),
            }
        }
    }
}

/// The batch scheduler's predictions for one instance. Each
/// [`PredictedRead`] stands in for its counter's value when the attempt's
/// initial round resolves what to fetch, and is validated at the instance's
/// real read of that counter. On mismatch the attempt is repaired — a
/// partial rollback of the offending Block on a nested schedule
/// ([`AbortKind::SpecMispredict`]), a full restart on the flat arm — with
/// the failed prediction dropped so the re-run reads freely (and re-resolves
/// from the observed value like any unpredicted run), and the observed
/// value reported through `outcome` so the coordinator's predictor can
/// resynchronize. Aliased opens degrade the run to flat program order
/// ([`AbortKind::AliasedOpen`]) and are counted there too.
///
/// A predicted run is a scheduled one: a conflict the wave's ordering
/// missed is a mis-speculation, so the conflict-driven abort sites emit
/// [`AbortKind::SpecPartial`] / [`AbortKind::SpecFull`] instead of the
/// ordinary contention kinds. Only the attribution label changes, so the
/// exactness invariant holds either way.
pub struct Prediction<'a> {
    /// Counter reads the wave was ordered by.
    pub preds: &'a [PredictedRead],
    /// Feedback sink for the coordinator's predictor.
    pub outcome: &'a mut PredictionOutcome,
}

/// The fixed inputs of one run, shared by every attempt.
struct Instance<'a> {
    program: &'a Program,
    params: &'a [Value],
    seq: &'a BlockSeq,
}

enum AttemptError {
    /// Full abort — retry from the beginning.
    Restart,
    Fatal(RunError),
}

/// Per-run prediction state: the still-active predictions (mutated as they
/// validate or fail) and the caller's feedback sink.
struct PredState<'a> {
    active: Vec<PredictedRead>,
    outcome: &'a mut PredictionOutcome,
}

/// What one run carries from attempt to attempt.
struct RunState<'a> {
    stats: &'a mut ExecStats,
    reads: Option<SpecReads<'a>>,
    preds: Option<PredState<'a>>,
    /// An aliased open voided the schedule: every later attempt runs the
    /// instance as one flat program-order Block.
    forced_flat: bool,
}

impl RunState<'_> {
    /// Drop a failed prediction and feed the observed value back.
    fn mispredicted(&mut self, pred: PredictedRead, observed: i64) {
        if let Some(p) = self.preds.as_mut() {
            p.active
                .retain(|q| !(q.obj == pred.obj && q.field == pred.field));
            p.outcome.mispredicts.push((pred, observed));
        }
    }
}

impl ExecutorEngine {
    fn attempt(
        &self,
        client: &mut DtmClient,
        inst: &Instance<'_>,
        run: &mut RunState<'_>,
    ) -> Result<(), AttemptError> {
        let Instance {
            program,
            params,
            seq,
        } = *inst;
        emit(run.stats, client, TxnEvent::Begin);
        let mut ctx = TxnCtx::begin(client);
        let mut frame = Frame::new(program, params);

        // The attempt's one initial read round. Every later round is paid
        // for a reason: a data-dependency level, a miss, or a stale copy.
        if let Some(r) = run.reads.as_mut() {
            let active = run.preds.as_ref().map_or(&[][..], |p| &p.active);
            let objs = r.begin(active);
            self.fetch(client, &mut ctx, run, &objs, None)?;
        }

        if seq.is_flat() || run.forced_flat {
            self.run_flat(client, inst, &mut frame, &mut ctx, run)?;
        } else {
            self.run_nested(client, inst, &mut frame, &mut ctx, run)?;
        }

        match ctx.commit(client) {
            Ok(()) => Ok(()),
            Err(e) => Err(self.step_error(client, StepError::Dtm(e), None, run)),
        }
    }

    /// The flat arm: every statement in program order, no Block scope.
    /// Program order, not schedule order: a genuinely flat sequence is
    /// already sorted, and the aliased-open degrade path relies on
    /// re-running a reordered nested schedule in program order, where
    /// aliasing is harmless.
    fn run_flat(
        &self,
        client: &mut DtmClient,
        inst: &Instance<'_>,
        frame: &mut Frame<'_>,
        ctx: &mut TxnCtx,
        run: &mut RunState<'_>,
    ) -> Result<(), AttemptError> {
        let mut all: Vec<StmtIdx> = inst.seq.blocks.iter().flatten().copied().collect();
        all.sort_unstable();
        match run_body(client, frame, inst.program, &all, ctx, None, run) {
            Ok(()) => Ok(()),
            Err(StepError::Mispredict { pred, observed }) => {
                // No Block scope to repair from — full restart, with the
                // prediction dropped and fed back.
                run.mispredicted(pred, observed);
                let ev = TxnEvent::FullAbort {
                    block: None,
                    obj: Some(pred.obj),
                    kind: AbortKind::SpecMispredict,
                };
                emit(run.stats, client, ev);
                Err(AttemptError::Restart)
            }
            Err(e) => Err(self.step_error(client, e, None, run)),
        }
    }

    /// The nested arm: each Block runs as a closed-nested scope on `ctx`
    /// until it commits into the transaction, re-running just that Block
    /// for as long as whatever failed it was the Block's own.
    fn run_nested(
        &self,
        client: &mut DtmClient,
        inst: &Instance<'_>,
        frame: &mut Frame<'_>,
        ctx: &mut TxnCtx,
        run: &mut RunState<'_>,
    ) -> Result<(), AttemptError> {
        for (bi, block) in inst.seq.blocks.iter().enumerate() {
            let bi = bi as u32;
            let mut partial_tries = 0usize;
            loop {
                emit(run.stats, client, TxnEvent::BlockStart { block: bi });
                // Everything the Block opens — from the cache, blind or
                // remotely — is read inside the scope, so a later invalidation
                // of it rolls back only this Block.
                ctx.begin_block();
                let e = match run_body(client, frame, inst.program, block, ctx, Some(bi), run) {
                    Ok(()) => {
                        ctx.commit_block();
                        emit(run.stats, client, TxnEvent::BlockCommit { block: bi });
                        break;
                    }
                    Err(e) => e,
                };
                let (blamed, kind, refetch) = match e {
                    StepError::Aliased { obj } => {
                        // The distinct-objects assumption behind Block
                        // reordering is void for this instance: full abort,
                        // then re-run the whole transaction as a flat
                        // program-order sequence where aliasing is harmless.
                        let ev = TxnEvent::FullAbort {
                            block: Some(bi),
                            obj: Some(obj),
                            kind: AbortKind::AliasedOpen,
                        };
                        emit(run.stats, client, ev);
                        run.forced_flat = true;
                        if let Some(p) = run.preds.as_mut() {
                            p.outcome.aliased += 1;
                        }
                        return Err(AttemptError::Restart);
                    }
                    StepError::Dtm(DtmError::Invalidated { ref objs })
                        if ctx.classify(objs) == AbortScope::Child =>
                    {
                        // Only reads of this Block went stale. Evict the stale
                        // cached copies and demote a blind open whose
                        // presumed-absent object exists, so the re-run sees
                        // fresh state.
                        let refetch = run
                            .reads
                            .as_mut()
                            .map_or_else(Vec::new, |r| r.invalidated(objs));
                        let kind = if run.preds.is_some() {
                            AbortKind::SpecPartial
                        } else {
                            AbortKind::Partial
                        };
                        (objs.first().copied(), kind, refetch)
                    }
                    // A mispredict is always repairable from this Block:
                    // aborting it discards nothing the transaction needs, and
                    // dropping the prediction guarantees the re-run cannot trip
                    // over the same value again — it re-resolves from the value
                    // it observes.
                    StepError::Mispredict { pred, observed } => {
                        run.mispredicted(pred, observed);
                        (Some(pred.obj), AbortKind::SpecMispredict, Vec::new())
                    }
                    e => return Err(self.step_error(client, e, Some(bi), run)),
                };
                ctx.abort_block();
                let ev = TxnEvent::PartialAbort {
                    block: bi,
                    obj: blamed,
                    kind,
                };
                emit(run.stats, client, ev);
                partial_tries += 1;
                if partial_tries >= self.policy.max_partial_retries {
                    // Livelocked Block: escalate.
                    let ev = TxnEvent::FullAbort {
                        block: Some(bi),
                        obj: blamed,
                        kind: AbortKind::Escalated,
                    };
                    emit(run.stats, client, ev);
                    return Err(AttemptError::Restart);
                }
                // One round brings back what was evicted; if it finds the
                // transaction's earlier reads stale, that is a full abort, as
                // at the initial fetch.
                self.fetch(client, ctx, run, &refetch, Some(bi))?;
            }
        }
        Ok(())
    }

    /// One speculative read round, outside any Block, into the attempt's cache.
    fn fetch(
        &self,
        client: &mut DtmClient,
        ctx: &mut TxnCtx,
        run: &mut RunState<'_>,
        objs: &[ObjectId],
        block: Option<u32>,
    ) -> Result<(), AttemptError> {
        let Some(r) = run.reads.as_mut() else {
            return Ok(());
        };
        match ctx.fetch_spec(client, objs) {
            Ok(fresh) => {
                if !fresh.is_empty() {
                    let objs = fresh.len() as u32;
                    emit(run.stats, client, TxnEvent::BatchedRead { block, objs });
                }
                r.cache.absorb(fresh);
                Ok(())
            }
            Err(e) => Err(self.step_error(client, StepError::Dtm(e), None, run)),
        }
    }

    /// Map a step (or commit) error to its retry decision, emitting the
    /// matching abort event.
    fn step_error(
        &self,
        client: &mut DtmClient,
        e: StepError,
        block: Option<u32>,
        run: &mut RunState<'_>,
    ) -> AttemptError {
        match e {
            StepError::Dtm(DtmError::Invalidated { objs }) => {
                // Invalidated blind opens (the presumed-absent object
                // exists) are demoted before the restart so the next
                // attempt fetches their real versions.
                if let Some(r) = run.reads.as_mut() {
                    r.invalidated(&objs);
                }
                let ev = TxnEvent::FullAbort {
                    block,
                    obj: objs.first().copied(),
                    kind: if run.preds.is_some() {
                        AbortKind::SpecFull
                    } else {
                        AbortKind::ReadInvalid
                    },
                };
                emit(run.stats, client, ev);
                AttemptError::Restart
            }
            StepError::Dtm(DtmError::LockedOut { obj }) => {
                let ev = TxnEvent::FullAbort {
                    block,
                    obj: Some(obj),
                    kind: AbortKind::LockedOut,
                };
                emit(run.stats, client, ev);
                AttemptError::Restart
            }
            StepError::Dtm(DtmError::Conflict {
                invalid,
                locked,
                syncing,
                wal_refused,
            }) => {
                // A blind open can surface here too: prepare found the
                // presumed-absent object already written.
                if let Some(r) = run.reads.as_mut() {
                    r.invalidated(&invalid);
                }
                // A conflict that names no stale and no locked object and
                // was flagged `syncing` is pure recovery back-pressure — a
                // replica refused to vote while catching up after a
                // crash. Same shape flagged `wal_refused` is
                // storage back-pressure: a replica's WAL could not make the
                // grant durable. Attribute both separately so chaos runs
                // can tell recovery/storage stalls from data contention.
                let kind = if syncing && invalid.is_empty() && locked.is_empty() {
                    AbortKind::SyncRefused
                } else if wal_refused && invalid.is_empty() && locked.is_empty() {
                    AbortKind::WalRefused
                } else if run.preds.is_some() {
                    AbortKind::SpecFull
                } else {
                    AbortKind::CommitConflict
                };
                let ev = TxnEvent::FullAbort {
                    block,
                    // Stale reads outrank lock conflicts for blame; a
                    // pure lock conflict blames the locked object.
                    obj: invalid.first().or_else(|| locked.first()).copied(),
                    kind,
                };
                emit(run.stats, client, ev);
                AttemptError::Restart
            }
            StepError::Dtm(DtmError::Unavailable) => AttemptError::Fatal(RunError::Unavailable),
            StepError::Dtm(DtmError::Decided) => AttemptError::Fatal(RunError::Decided),
            StepError::Eval(e) => AttemptError::Fatal(RunError::Eval(e)),
            StepError::Mispredict { .. } | StepError::Aliased { .. } => {
                unreachable!("guard errors are attributed at their abort sites")
            }
        }
    }
}

/// Run one Block body on `ctx` — all statements (`block` = `None`) or the
/// nested schedule's Block `block`, whose scope the caller has opened — and
/// report what it did before its terminal event: the read rounds statements
/// issued, and the lock holds, which the wasted-work ledger must charge to
/// whatever this run becomes — a completed Block, a commit, or the
/// discarded side of an abort.
fn run_body(
    client: &mut DtmClient,
    frame: &mut Frame<'_>,
    program: &Program,
    stmts: &[StmtIdx],
    ctx: &mut TxnCtx,
    block: Option<u32>,
    run: &mut RunState<'_>,
) -> Result<(), StepError> {
    let mut lock_holds: u32 = 0;
    let result = {
        let mut guards = StepGuards {
            preds: run.preds.as_mut().map(|p| &mut p.active),
            alias_check: block.is_some(),
            lock_holds: &mut lock_holds,
        };
        let mut acc = Access {
            ctx,
            reads: run.reads.as_mut(),
        };
        stmts
            .iter()
            .try_for_each(|&i| run_stmt(&mut acc, client, frame, &program.stmts[i], &mut guards))
    };
    if let Some(r) = run.reads.as_mut() {
        for objs in r.late_rounds.drain(..) {
            emit(run.stats, client, TxnEvent::BatchedRead { block, objs });
        }
    }
    if lock_holds > 0 {
        let ev = TxnEvent::LockHolds {
            block,
            holds: lock_holds,
        };
        emit(run.stats, client, ev);
    }
    result
}

/// The restart backoff before retry `attempt` is uniform in
/// `[0, base · min(attempt, 16))`: this is the exclusive upper bound.
fn jitter_cap(base: Duration, attempt: usize) -> Duration {
    base.saturating_mul(attempt.min(16) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::BlockSeq;
    use acn_dtm::{Cluster, ClusterConfig};
    use acn_obs::{Span, Tracer, TxnObserver, FLAG_COMMITTED, FLAG_ROLLED_BACK};
    use acn_txir::{ComputeOp, DependencyModel, FieldId, ObjClass, ProgramBuilder};
    use std::time::Instant;

    const ACCOUNT: ObjClass = ObjClass::new(1, "Account");
    const BAL: FieldId = FieldId(0);
    const F1: FieldId = FieldId(1);

    /// deposit(account_id, amount): bal += amount.
    fn deposit_model() -> DependencyModel {
        let mut b = ProgramBuilder::new("deposit", 2);
        let acc = b.open_update(ACCOUNT, b.param(0));
        let bal = b.get(acc, BAL);
        let nb = b.add(bal, b.param(1));
        b.set(acc, BAL, nb);
        DependencyModel::analyze(b.finish()).unwrap()
    }

    /// transfer(a, b, amount): two accounts, two unit blocks.
    fn transfer_model() -> DependencyModel {
        let mut b = ProgramBuilder::new("transfer", 3);
        let amt = b.param(2);
        let a1 = b.open_update(ACCOUNT, b.param(0));
        let v1 = b.get(a1, BAL);
        let n1 = b.sub(v1, amt);
        b.set(a1, BAL, n1);
        let a2 = b.open_update(ACCOUNT, b.param(1));
        let v2 = b.get(a2, BAL);
        let n2 = b.add(v2, amt);
        b.set(a2, BAL, n2);
        DependencyModel::analyze(b.finish()).unwrap()
    }

    fn read_bal(client: &mut DtmClient, i: u64) -> i64 {
        let mut ctx = TxnCtx::begin(client);
        let obj = ObjectId::new(ACCOUNT, i);
        ctx.open(client, obj, false).unwrap();
        let v = ctx.get_field(obj, BAL).as_int().unwrap();
        ctx.commit(client).unwrap();
        v
    }

    #[test]
    fn flat_execution_commits() {
        let cluster = Cluster::start(ClusterConfig::test(4, 1));
        let mut client = cluster.client(0);
        let dm = deposit_model();
        let seq = BlockSeq::flat(&dm);
        let engine = ExecutorEngine::default();
        let mut stats = ExecStats::default();
        for _ in 0..5 {
            engine
                .run(
                    &mut client,
                    &dm.program,
                    &[Value::Int(7), Value::Int(10)],
                    &seq,
                    &mut stats,
                )
                .unwrap();
        }
        assert_eq!(stats.commits, 5);
        assert_eq!(read_bal(&mut client, 7), 50);
        cluster.shutdown();
    }

    #[test]
    fn nested_execution_commits_identically() {
        let cluster = Cluster::start(ClusterConfig::test(4, 1));
        let mut client = cluster.client(0);
        let dm = transfer_model();
        let engine = ExecutorEngine::default();
        let mut stats = ExecStats::default();
        // Seed account 1 with 100 via flat deposit.
        let dep = deposit_model();
        engine
            .run(
                &mut client,
                &dep.program,
                &[Value::Int(1), Value::Int(100)],
                &BlockSeq::flat(&dep),
                &mut stats,
            )
            .unwrap();
        // Transfer 30 from 1 to 2 with per-unit nesting.
        let seq = BlockSeq::from_units(&dm);
        assert_eq!(seq.len(), 2);
        engine
            .run(
                &mut client,
                &dm.program,
                &[Value::Int(1), Value::Int(2), Value::Int(30)],
                &seq,
                &mut stats,
            )
            .unwrap();
        assert_eq!(read_bal(&mut client, 1), 70);
        assert_eq!(read_bal(&mut client, 2), 30);
        cluster.shutdown();
    }

    #[test]
    fn conditional_statements_execute_taken_branch_only() {
        let cluster = Cluster::start(ClusterConfig::test(4, 1));
        let mut client = cluster.client(0);
        // withdraw-if-sufficient: bal >= amt ? bal -= amt : flag := 1.
        let mut b = ProgramBuilder::new("guarded", 2);
        let acc = b.open_update(ACCOUNT, b.param(0));
        let bal = b.get(acc, BAL);
        let ok = b.compute(ComputeOp::Ge, [bal.into(), b.param(1).into()]);
        b.cond(
            ok,
            |b| {
                let nb = b.sub(bal, b.param(1));
                b.set(acc, BAL, nb);
            },
            |b| {
                b.set(acc, BAL, -1i64);
            },
        );
        let dm = DependencyModel::analyze(b.finish()).unwrap();
        let engine = ExecutorEngine::default();
        let mut stats = ExecStats::default();
        let seq = BlockSeq::flat(&dm);
        // Insufficient funds: else branch writes -1.
        engine
            .run(
                &mut client,
                &dm.program,
                &[Value::Int(3), Value::Int(10)],
                &seq,
                &mut stats,
            )
            .unwrap();
        assert_eq!(read_bal(&mut client, 3), -1);
        cluster.shutdown();
    }

    #[test]
    fn concurrent_transfers_conserve_money() {
        let cluster = Cluster::start(ClusterConfig::test(10, 4));
        let dm = std::sync::Arc::new(transfer_model());
        let dep = deposit_model();
        let engine = ExecutorEngine::default();
        {
            let mut client = cluster.client(0);
            let mut stats = ExecStats::default();
            for i in 0..4 {
                engine
                    .run(
                        &mut client,
                        &dep.program,
                        &[Value::Int(i), Value::Int(1000)],
                        &BlockSeq::flat(&dep),
                        &mut stats,
                    )
                    .unwrap();
            }
        }
        let total_stats: Vec<ExecStats> = std::thread::scope(|s| {
            (0..4)
                .map(|t| {
                    let mut client = cluster.client(t);
                    let dm = std::sync::Arc::clone(&dm);
                    s.spawn(move || {
                        let engine = ExecutorEngine::default();
                        let seq = BlockSeq::from_units(&dm);
                        let mut stats = ExecStats::default();
                        for k in 0..25u64 {
                            let from = (t as u64 + k) % 4;
                            let to = (from + 1) % 4;
                            engine
                                .run(
                                    &mut client,
                                    &dm.program,
                                    &[
                                        Value::Int(from as i64),
                                        Value::Int(to as i64),
                                        Value::Int(3),
                                    ],
                                    &seq,
                                    &mut stats,
                                )
                                .unwrap();
                        }
                        stats
                    })
                })
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        });
        let mut merged = ExecStats::default();
        for s in &total_stats {
            merged.merge(s);
        }
        assert_eq!(merged.commits, 100);
        let mut client = cluster.client(0);
        let total: i64 = (0..4).map(|i| read_bal(&mut client, i)).sum();
        assert_eq!(total, 4000, "money conserved under contention");
        cluster.shutdown();
    }

    #[test]
    fn flat_batched_prefetch_commits_and_batches() {
        let cluster = Cluster::start(ClusterConfig::test(4, 1));
        let mut client = cluster.client(0);
        let dm = transfer_model();
        let seq = BlockSeq::flat(&dm);
        // Seed account 1 so the transfer has funds to move.
        let dep = deposit_model();
        let mut stats = ExecStats::default();
        ExecutorEngine::default()
            .run(
                &mut client,
                &dep.program,
                &[Value::Int(1), Value::Int(100)],
                &BlockSeq::flat(&dep),
                &mut stats,
            )
            .unwrap();
        let before = client.stats().remote_reads;
        // Both transfer opens are Param-indexed → one read round for two
        // objects on the flat schedule.
        ExecutorEngine::default()
            .run(
                &mut client,
                &dm.program,
                &[Value::Int(1), Value::Int(2), Value::Int(30)],
                &seq,
                &mut stats,
            )
            .unwrap();
        assert_eq!(
            client.stats().remote_reads - before,
            1,
            "two prefetchable opens must share one read round"
        );
        assert_eq!(read_bal(&mut client, 1), 70);
        assert_eq!(read_bal(&mut client, 2), 30);
        cluster.shutdown();
    }

    #[test]
    fn unbatched_config_never_batches() {
        let cluster = Cluster::start(ClusterConfig::test(4, 1));
        let mut client = cluster.client(0);
        let dm = transfer_model();
        let engine = ExecutorEngine::with_config(
            RetryPolicy::default(),
            ExecutorConfig {
                batched_reads: false,
            },
        );
        let mut stats = ExecStats::default();
        engine
            .run(
                &mut client,
                &dm.program,
                &[Value::Int(1), Value::Int(2), Value::Int(5)],
                &BlockSeq::flat(&dm),
                &mut stats,
            )
            .unwrap();
        assert_eq!(client.stats().remote_reads, 2, "one read round per open");
        assert_eq!(read_bal(&mut client, 1), -5);
        assert_eq!(read_bal(&mut client, 2), 5);
        cluster.shutdown();
    }

    #[test]
    fn nested_blocks_share_the_attempts_one_read_round() {
        let cluster = Cluster::start(ClusterConfig::test(4, 1));
        let mut client = cluster.client(0);
        // Three deposits in two Blocks: one round fetches all three
        // objects, and each Block installs its own as child-first reads.
        let mut b = ProgramBuilder::new("triple", 3);
        for i in 0..3u16 {
            let acc = b.open_update(ACCOUNT, b.param(i));
            let bal = b.get(acc, BAL);
            let nb = b.add(bal, 10i64);
            b.set(acc, BAL, nb);
        }
        let dm = DependencyModel::analyze(b.finish()).unwrap();
        let seq = BlockSeq::group_units(&dm, &[vec![0, 1], vec![2]]);
        assert_eq!(seq.len(), 2, "nested schedule");
        let mut stats = ExecStats::default();
        ExecutorEngine::default()
            .run(
                &mut client,
                &dm.program,
                &[Value::Int(4), Value::Int(5), Value::Int(6)],
                &seq,
                &mut stats,
            )
            .unwrap();
        assert_eq!(
            client.stats().remote_reads,
            1,
            "a Block boundary costs no read round"
        );
        for i in 4..7 {
            assert_eq!(read_bal(&mut client, i), 10);
        }
        cluster.shutdown();
    }

    #[test]
    fn data_dependent_opens_fall_back_to_single_reads() {
        let cluster = Cluster::start(ClusterConfig::test(4, 1));
        let mut client = cluster.client(0);
        // Pointer chase: the second open's index is read from the first
        // object — not prefetchable, must still execute correctly.
        let mut b = ProgramBuilder::new("chase", 1);
        let head = b.open_read(ACCOUNT, b.param(0));
        let next = b.get(head, BAL);
        let tail = b.open_update(ACCOUNT, next);
        let tv = b.get(tail, BAL);
        let nv = b.add(tv, 1i64);
        b.set(tail, BAL, nv);
        let dm = DependencyModel::analyze(b.finish()).unwrap();
        assert_eq!(
            dm.access.fetch_list(&[Value::Int(8)], &[]),
            vec![ObjectId::new(ACCOUNT, 8)],
            "only the head open resolves at entry"
        );
        // Seed: account 8's balance names account 9.
        let dep = deposit_model();
        let mut stats = ExecStats::default();
        ExecutorEngine::default()
            .run(
                &mut client,
                &dep.program,
                &[Value::Int(8), Value::Int(9)],
                &BlockSeq::flat(&dep),
                &mut stats,
            )
            .unwrap();
        let before = client.stats().remote_reads;
        ExecutorEngine::default()
            .run(
                &mut client,
                &dm.program,
                &[Value::Int(8)],
                &BlockSeq::flat(&dm),
                &mut stats,
            )
            .unwrap();
        assert_eq!(
            client.stats().remote_reads - before,
            2,
            "the head's fetch round, then one round for the chased open"
        );
        assert_eq!(read_bal(&mut client, 9), 1, "chased object updated");
        cluster.shutdown();
    }

    #[test]
    fn prefetch_skips_bad_operands_so_eval_errors_stay_fatal() {
        let cluster = Cluster::start(ClusterConfig::test(1, 1));
        let mut client = cluster.client(0);
        // The open's index parameter is a string: the prefetch pass must
        // skip it silently and the Open statement itself must fail the run
        // exactly as in the unbatched path.
        let dm = deposit_model();
        let mut stats = ExecStats::default();
        let err = ExecutorEngine::default()
            .run(
                &mut client,
                &dm.program,
                &[Value::str("oops"), Value::Int(1)],
                &BlockSeq::flat(&dm),
                &mut stats,
            )
            .unwrap_err();
        assert!(matches!(err, RunError::Eval(_)));
        assert_eq!(client.stats().remote_reads, 0, "nothing was prefetched");
        cluster.shutdown();
    }

    #[test]
    fn param_count_is_checked() {
        let dm = deposit_model();
        let cluster = Cluster::start(ClusterConfig::test(1, 1));
        let mut client = cluster.client(0);
        let engine = ExecutorEngine::default();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut stats = ExecStats::default();
            let _ = engine.run(
                &mut client,
                &dm.program,
                &[Value::Int(1)], // missing amount
                &BlockSeq::flat(&dm),
                &mut stats,
            );
        }));
        assert!(r.is_err());
        cluster.shutdown();
    }

    #[test]
    fn eval_errors_are_fatal_not_retried() {
        let cluster = Cluster::start(ClusterConfig::test(1, 1));
        let mut client = cluster.client(0);
        // amount is a string → Add fails.
        let dm = deposit_model();
        let engine = ExecutorEngine::default();
        let mut stats = ExecStats::default();
        let err = engine
            .run(
                &mut client,
                &dm.program,
                &[Value::Int(1), Value::str("oops")],
                &BlockSeq::flat(&dm),
                &mut stats,
            )
            .unwrap_err();
        assert!(matches!(err, RunError::Eval(_)));
        assert_eq!(stats.commits, 0);
        cluster.shutdown();
    }

    #[test]
    fn unavailable_retries_are_bounded_by_policy() {
        // Fully partition the client from every server: each attempt must
        // fail a quorum round, burn one unavailable retry, and the run must
        // surface Unavailable after exactly `max_unavailable_retries`
        // re-attempts — not loop forever and not give up early.
        let mut cfg = ClusterConfig::test(4, 1);
        cfg.client_cfg.rpc_timeout = Duration::from_millis(5);
        cfg.client_cfg.quorum_retries = 0;
        cfg.client_cfg.retry_backoff = Duration::ZERO;
        let cluster = Cluster::start(cfg);
        for rank in 0..4 {
            cluster.fail_server(rank);
        }
        let mut client = cluster.client(0);
        let dm = deposit_model();
        let seq = BlockSeq::flat(&dm);
        let engine = ExecutorEngine::new(RetryPolicy {
            max_unavailable_retries: 3,
            backoff_base: Duration::ZERO,
            ..RetryPolicy::default()
        });
        let mut stats = ExecStats::default();
        let err = engine
            .run(
                &mut client,
                &dm.program,
                &[Value::Int(7), Value::Int(10)],
                &seq,
                &mut stats,
            )
            .unwrap_err();
        assert_eq!(err, RunError::Unavailable);
        assert_eq!(
            stats.unavailable_retries, 3,
            "exactly max_unavailable_retries re-attempts before surfacing"
        );
        assert_eq!(stats.commits, 0);
        cluster.shutdown();
    }

    #[test]
    fn unavailable_fails_fast_with_default_policy() {
        // The default policy keeps the historical fail-fast contract:
        // zero unavailable retries, first quorum loss is fatal.
        let mut cfg = ClusterConfig::test(4, 1);
        cfg.client_cfg.rpc_timeout = Duration::from_millis(5);
        cfg.client_cfg.quorum_retries = 0;
        cfg.client_cfg.retry_backoff = Duration::ZERO;
        let cluster = Cluster::start(cfg);
        for rank in 0..4 {
            cluster.fail_server(rank);
        }
        let mut client = cluster.client(0);
        let dm = deposit_model();
        let seq = BlockSeq::flat(&dm);
        let engine = ExecutorEngine::default();
        let mut stats = ExecStats::default();
        let err = engine
            .run(
                &mut client,
                &dm.program,
                &[Value::Int(7), Value::Int(10)],
                &seq,
                &mut stats,
            )
            .unwrap_err();
        assert_eq!(err, RunError::Unavailable);
        assert_eq!(stats.unavailable_retries, 0);
        cluster.shutdown();
    }

    #[test]
    fn a_decided_commit_is_never_re_executed() {
        // Every CommitReq is lost: the write quorum votes yes, the decision
        // goes into the history, and the commit round dies unacknowledged.
        // That is terminal — with retries to spare, the operation must not
        // run again under a new TxnId and reach a second decision.
        use acn_dtm::{msg_kind, HistoryLog};
        use acn_simnet::{ChaosRule, FaultPlan};
        let mut cfg = ClusterConfig::test(4, 1);
        cfg.client_cfg.rpc_timeout = Duration::from_millis(5);
        cfg.client_cfg.quorum_retries = 1;
        cfg.client_cfg.retry_backoff = Duration::ZERO;
        cfg.prepared_ttl = Duration::from_millis(20);
        let cluster = Cluster::start(cfg);
        let lose_commits = ChaosRule::for_kind(msg_kind::COMMIT_REQ, 1.0, 0.0, 0.0, Duration::ZERO);
        cluster.install_chaos(&FaultPlan::with_rules(1, vec![lose_commits]));
        let mut client = cluster.client(0);
        let history = std::sync::Arc::new(HistoryLog::new());
        client.set_history(history.clone());
        let dm = deposit_model();
        let seq = BlockSeq::flat(&dm);
        let engine = ExecutorEngine::new(RetryPolicy {
            max_unavailable_retries: 5,
            backoff_base: Duration::ZERO,
            ..RetryPolicy::default()
        });
        let mut stats = ExecStats::default();
        let err = engine
            .run(
                &mut client,
                &dm.program,
                &[Value::Int(7), Value::Int(10)],
                &seq,
                &mut stats,
            )
            .unwrap_err();
        assert_eq!(err, RunError::Decided);
        assert_eq!(stats.unavailable_retries, 0, "a decision is not retried");
        assert_eq!(stats.commits, 0, "nor reported as a commit");
        assert_eq!(history.len(), 1, "one operation, one decision");
        cluster.shutdown();
    }

    #[test]
    fn jitter_caps_the_exponent_at_large_attempt_counts() {
        // The restart backoff is uniform in [0, base · min(attempt, 16)):
        // a huge attempt count must neither overflow the product nor
        // stretch the backoff past the 16× ceiling.
        let base = Duration::from_nanos(100);
        assert_eq!(jitter_cap(base, 1), base);
        assert_eq!(jitter_cap(base, 16), base * 16);
        assert_eq!(jitter_cap(base, usize::MAX), base * 16);
        assert_eq!(jitter_cap(Duration::MAX, usize::MAX), Duration::MAX);
        assert_eq!(jitter_cap(Duration::ZERO, 7), Duration::ZERO);
    }

    /// Run `f` with an observer and a span tracer installed on `client`,
    /// inside one traced transaction that `f` reports committed or not;
    /// hand back the spans and the observer.
    fn traced(
        client: &mut DtmClient,
        f: impl FnOnce(&mut DtmClient) -> bool,
    ) -> (Vec<Span>, TxnObserver) {
        let mut tracer = Tracer::new(Instant::now(), 0, 0, 1024);
        tracer.start_txn(0);
        client.set_observer(TxnObserver {
            spans: Some(tracer),
            ..TxnObserver::default()
        });
        let committed = f(client);
        let mut obs = client.take_observer().expect("installed");
        let mut tracer = obs.spans.take().expect("installed");
        tracer.end_txn(committed);
        (tracer.drain().0, obs)
    }

    #[test]
    fn observed_run_records_commits_and_reads() {
        let cluster = Cluster::start(ClusterConfig::test(4, 1));
        let mut client = cluster.client(0);
        let dm = transfer_model();
        let seq = BlockSeq::from_units(&dm);
        let (spans, obs) = traced(&mut client, |client| {
            let params = [Value::Int(1), Value::Int(2), Value::Int(30)];
            let mut stats = ExecStats::default();
            ExecutorEngine::default()
                .run(client, &dm.program, &params, &seq, &mut stats)
                .is_ok()
        });
        let work = obs.work.snapshot();
        assert_eq!(work.committed.blocks, 2, "one Block run per Block");
        assert_eq!(
            work.committed.read_rounds, 1,
            "prefetchable opens must show up as one batched-read round"
        );
        assert!(work.discarded().is_zero());
        let count = |kind| spans.iter().filter(|s| s.kind == kind).count();
        assert_eq!(count(SpanKind::Txn), 1);
        assert_eq!(count(SpanKind::Attempt), 1);
        assert_eq!(count(SpanKind::Block), 2);
        assert_eq!(count(SpanKind::ReadRound), 1);
        assert!(spans
            .iter()
            .filter(|s| matches!(s.kind, SpanKind::Txn | SpanKind::Attempt))
            .all(|s| s.flags == FLAG_COMMITTED));
        cluster.shutdown();
    }

    /// The span tree of a two-Block transfer whose first Block is forced
    /// to roll back once: the rolled-back run, then the committed one, then
    /// Block 1 — each closed before the attempt's prepare round opens —
    /// and commit-phase rounds outside any Block.
    #[test]
    fn block_spans_follow_the_events_of_a_partially_rolled_back_transfer() {
        use acn_txir::PredictedRead;
        let cluster = Cluster::start(ClusterConfig::test(4, 1));
        let mut client = cluster.client(0);
        let dm = transfer_model();
        let seq = BlockSeq::from_units(&dm);
        // A wrong prediction for Block 0's balance read forces exactly one
        // partial rollback of Block 0.
        let pred = PredictedRead {
            obj: ObjectId::new(ACCOUNT, 1),
            field: BAL,
            value: 999,
            delta: -5,
        };
        let (spans, obs) = traced(&mut client, |client| {
            let mut outcome = PredictionOutcome::default();
            let prediction = Prediction {
                preds: &[pred],
                outcome: &mut outcome,
            };
            let params = [Value::Int(1), Value::Int(2), Value::Int(5)];
            let mut stats = ExecStats::default();
            ExecutorEngine::default()
                .run_with(
                    client,
                    &dm.program,
                    &params,
                    &seq,
                    &mut stats,
                    Some(prediction),
                )
                .is_ok()
        });
        assert_eq!(obs.aborts.total_of(&[AbortKind::SpecMispredict]), 1);
        let attempt = spans
            .iter()
            .find(|s| s.kind == SpanKind::Attempt)
            .expect("one attempt");
        let blocks: Vec<&Span> = spans.iter().filter(|s| s.kind == SpanKind::Block).collect();
        let shape: Vec<(i32, u32)> = blocks.iter().map(|s| (s.block, s.flags)).collect();
        assert_eq!(shape, [(0, FLAG_ROLLED_BACK), (0, 0), (1, 0)]);
        assert!(blocks.iter().all(|b| b.parent == attempt.id));
        let prepare = spans
            .iter()
            .find(|s| s.kind == SpanKind::PrepareRound)
            .expect("an update transaction prepares");
        for b in &blocks {
            assert!(
                b.start_ns + b.dur_ns <= prepare.start_ns,
                "Block {} still open when the prepare round opened",
                b.block
            );
        }
        for kind in [SpanKind::PrepareRound, SpanKind::CommitRound] {
            let round = spans.iter().find(|s| s.kind == kind).expect("2PC round");
            assert_eq!(round.block, -1, "{kind} is outside every Block");
            assert_eq!(round.parent, attempt.id);
        }
        cluster.shutdown();
    }

    #[test]
    fn observed_contention_attribution_matches_stats() {
        use acn_obs::AbortKind;
        // Hammer one hot account from 4 threads so aborts actually happen,
        // then check the invariant the whole layer is built around: one
        // attributed event per stats increment.
        let cluster = Cluster::start(ClusterConfig::test(10, 4));
        let dm = std::sync::Arc::new(transfer_model());
        let (stats, obs) = std::thread::scope(|s| {
            (0..4)
                .map(|t| {
                    let mut client = cluster.client(t);
                    let dm = std::sync::Arc::clone(&dm);
                    s.spawn(move || {
                        let engine = ExecutorEngine::default();
                        let seq = BlockSeq::from_units(&dm);
                        let mut stats = ExecStats::default();
                        client.set_observer(TxnObserver::default());
                        for k in 0..25u64 {
                            let from = (t as u64 + k) % 2;
                            engine
                                .run(
                                    &mut client,
                                    &dm.program,
                                    &[
                                        Value::Int(from as i64),
                                        Value::Int((1 - from) as i64),
                                        Value::Int(1),
                                    ],
                                    &seq,
                                    &mut stats,
                                )
                                .unwrap();
                        }
                        (stats, client.take_observer().expect("installed"))
                    })
                })
                .map(|h| h.join().unwrap())
                .fold(
                    (ExecStats::default(), acn_obs::AbortTable::new()),
                    |(mut st, mut tb), (s, o)| {
                        st.merge(&s);
                        tb.merge(&o.aborts);
                        (st, tb)
                    },
                )
        });
        assert_eq!(stats.commits, 100);
        assert_eq!(
            obs.total_of(&AbortKind::EXECUTOR_KINDS),
            stats.full_aborts + stats.partial_aborts + stats.locked_aborts,
            "attribution must reconcile against ExecStats to the unit"
        );
        cluster.shutdown();
    }

    #[test]
    fn aliased_open_degrades_to_flat_and_still_commits() {
        use acn_obs::AbortKind;
        // Deliberately alias: transfer(1, 1, 30) opens ACCOUNT 1 through
        // two different handles. The nested schedule must detect the alias
        // at the second open, abort once with AliasedOpen, and re-run the
        // whole instance in flat program order (net effect: -30 then +30).
        let cluster = Cluster::start(ClusterConfig::test(4, 1));
        let mut client = cluster.client(0);
        let dm = transfer_model();
        let dep = deposit_model();
        let engine = ExecutorEngine::default();
        let mut stats = ExecStats::default();
        engine
            .run(
                &mut client,
                &dep.program,
                &[Value::Int(1), Value::Int(100)],
                &BlockSeq::flat(&dep),
                &mut stats,
            )
            .unwrap();
        let seq = BlockSeq::from_units(&dm);
        assert_eq!(seq.len(), 2);
        let mut stats = ExecStats::default();
        client.set_observer(TxnObserver::default());
        engine
            .run(
                &mut client,
                &dm.program,
                &[Value::Int(1), Value::Int(1), Value::Int(30)],
                &seq,
                &mut stats,
            )
            .unwrap();
        let obs = client.take_observer().expect("installed");
        assert_eq!(stats.commits, 1);
        assert_eq!(stats.full_aborts, 1, "exactly one aliased-open abort");
        assert_eq!(stats.partial_aborts, 0);
        assert_eq!(obs.aborts.total_of(&[AbortKind::AliasedOpen]), 1);
        assert_eq!(
            obs.aborts.total_of(&AbortKind::EXECUTOR_KINDS),
            stats.full_aborts + stats.partial_aborts + stats.locked_aborts,
            "attribution stays exact through the degrade path"
        );
        assert_eq!(read_bal(&mut client, 1), 100, "self-transfer is a no-op");
        cluster.shutdown();
    }

    #[test]
    fn distinct_objects_do_not_trip_the_alias_check() {
        let cluster = Cluster::start(ClusterConfig::test(4, 1));
        let mut client = cluster.client(0);
        let dm = transfer_model();
        let mut stats = ExecStats::default();
        ExecutorEngine::default()
            .run(
                &mut client,
                &dm.program,
                &[Value::Int(1), Value::Int(2), Value::Int(30)],
                &BlockSeq::from_units(&dm),
                &mut stats,
            )
            .unwrap();
        assert_eq!(stats.full_aborts, 0);
        assert_eq!(read_bal(&mut client, 1), -30);
        assert_eq!(read_bal(&mut client, 2), 30);
        cluster.shutdown();
    }

    #[test]
    fn correct_prediction_validates_silently() {
        use acn_txir::PredictedRead;
        let cluster = Cluster::start(ClusterConfig::test(4, 1));
        let mut client = cluster.client(0);
        let dm = deposit_model();
        let engine = ExecutorEngine::default();
        let mut stats = ExecStats::default();
        // Never-written fields read as Int(0), so 0 is the right first
        // prediction — the same rule the coordinator's predictor seeds from.
        let pred = PredictedRead {
            obj: ObjectId::new(ACCOUNT, 7),
            field: BAL,
            value: 0,
            delta: 10,
        };
        let mut outcome = PredictionOutcome::default();
        engine
            .run_with(
                &mut client,
                &dm.program,
                &[Value::Int(7), Value::Int(10)],
                &BlockSeq::flat(&dm),
                &mut stats,
                Some(Prediction {
                    preds: &[pred],
                    outcome: &mut outcome,
                }),
            )
            .unwrap();
        assert_eq!(stats.commits, 1);
        assert_eq!(stats.full_aborts + stats.partial_aborts, 0);
        assert!(outcome.mispredicts.is_empty());
        assert_eq!(outcome.aliased, 0);
        assert_eq!(read_bal(&mut client, 7), 10);
        cluster.shutdown();
    }

    #[test]
    fn nested_mispredict_repairs_by_partial_rollback() {
        use acn_obs::AbortKind;
        use acn_txir::PredictedRead;
        let cluster = Cluster::start(ClusterConfig::test(4, 1));
        let mut client = cluster.client(0);
        let dm = transfer_model();
        let engine = ExecutorEngine::default();
        // Wrong prediction for the first Block's balance read: the Block
        // must partial-abort once under SpecMispredict, drop the
        // prediction, and commit on the re-run.
        let pred = PredictedRead {
            obj: ObjectId::new(ACCOUNT, 1),
            field: BAL,
            value: 999,
            delta: -5,
        };
        let mut stats = ExecStats::default();
        let mut outcome = PredictionOutcome::default();
        client.set_observer(TxnObserver::default());
        engine
            .run_with(
                &mut client,
                &dm.program,
                &[Value::Int(1), Value::Int(2), Value::Int(5)],
                &BlockSeq::from_units(&dm),
                &mut stats,
                Some(Prediction {
                    preds: &[pred],
                    outcome: &mut outcome,
                }),
            )
            .unwrap();
        let obs = client.take_observer().expect("installed");
        assert_eq!(stats.commits, 1);
        assert_eq!(stats.partial_aborts, 1, "repaired from the Block");
        assert_eq!(stats.full_aborts, 0, "no full restart needed");
        assert_eq!(obs.aborts.total_of(&[AbortKind::SpecMispredict]), 1);
        assert_eq!(
            obs.aborts.total_of(&AbortKind::EXECUTOR_KINDS),
            stats.full_aborts + stats.partial_aborts + stats.locked_aborts,
        );
        assert_eq!(outcome.mispredicts, vec![(pred, 0)], "observed fed back");
        assert_eq!(read_bal(&mut client, 1), -5);
        cluster.shutdown();
    }

    #[test]
    fn flat_mispredict_restarts_once() {
        use acn_obs::AbortKind;
        use acn_txir::PredictedRead;
        let cluster = Cluster::start(ClusterConfig::test(4, 1));
        let mut client = cluster.client(0);
        let dm = deposit_model();
        let engine = ExecutorEngine::default();
        let pred = PredictedRead {
            obj: ObjectId::new(ACCOUNT, 7),
            field: BAL,
            value: 42,
            delta: 10,
        };
        let mut stats = ExecStats::default();
        let mut outcome = PredictionOutcome::default();
        client.set_observer(TxnObserver::default());
        engine
            .run_with(
                &mut client,
                &dm.program,
                &[Value::Int(7), Value::Int(10)],
                &BlockSeq::flat(&dm),
                &mut stats,
                Some(Prediction {
                    preds: &[pred],
                    outcome: &mut outcome,
                }),
            )
            .unwrap();
        let obs = client.take_observer().expect("installed");
        assert_eq!(stats.commits, 1);
        assert_eq!(stats.full_aborts, 1, "flat arm restarts on mispredict");
        assert_eq!(obs.aborts.total_of(&[AbortKind::SpecMispredict]), 1);
        assert_eq!(outcome.mispredicts, vec![(pred, 0)]);
        assert_eq!(read_bal(&mut client, 7), 10);
        cluster.shutdown();
    }

    /// append(counter_id, v): draw `n` from the counter account's balance
    /// (advancing it) and write F1 := v on account `1000 + n` — an `Update`
    /// open of a freshly drawn key whose handle is never read: an insert.
    fn append_program(b: &mut ProgramBuilder) {
        let ctr = b.open_update(ACCOUNT, b.param(0));
        let n = b.get(ctr, BAL);
        let next = b.add(n, 1i64);
        b.set(ctr, BAL, next);
        let key = b.add(n, 1000i64);
        let row = b.open_update(ACCOUNT, key);
        b.set(row, F1, b.param(1));
    }

    fn append_model() -> DependencyModel {
        let mut b = ProgramBuilder::new("append", 2);
        append_program(&mut b);
        DependencyModel::analyze(b.finish()).unwrap()
    }

    #[test]
    fn insert_commits_with_no_read_round_of_its_own() {
        let cluster = Cluster::start(ClusterConfig::test(4, 1));
        let mut client = cluster.client(0);
        let dm = append_model();
        let mut stats = ExecStats::default();
        ExecutorEngine::default()
            .run(
                &mut client,
                &dm.program,
                &[Value::Int(7), Value::Int(10)],
                &BlockSeq::flat(&dm),
                &mut stats,
            )
            .unwrap();
        assert_eq!(stats.commits, 1);
        assert_eq!(stats.full_aborts + stats.partial_aborts, 0);
        assert_eq!(
            client.stats().remote_reads,
            1,
            "the counter is fetched; a correct absent presumption reads nothing"
        );
        let mut ctx = TxnCtx::begin(&mut client);
        let obj = ObjectId::new(ACCOUNT, 1000);
        ctx.open(&mut client, obj, false).unwrap();
        assert_eq!(ctx.get_field(obj, F1), Value::Int(10));
        cluster.shutdown();
    }

    #[test]
    fn set_only_update_of_a_named_row_is_fetched_not_presumed() {
        // stamp(account_id, v): F1 := v. Value-blind, but the key is a
        // parameter — the row usually exists (Delivery's ORDER rows), so it
        // rides the initial round instead of costing an abort when it does.
        let mut b = ProgramBuilder::new("stamp", 2);
        let acc = b.open_update(ACCOUNT, b.param(0));
        b.set(acc, F1, b.param(1));
        let dm = DependencyModel::analyze(b.finish()).unwrap();
        let cluster = Cluster::start(ClusterConfig::test(4, 1));
        let mut client = cluster.client(0);
        let dep = deposit_model();
        let engine = ExecutorEngine::default();
        let mut stats = ExecStats::default();
        for (dm, params) in [
            (&dep, [Value::Int(7), Value::Int(100)]),
            (&dm, [Value::Int(7), Value::Int(10)]),
            (&dm, [Value::Int(8), Value::Int(10)]),
        ] {
            let before = client.stats();
            engine
                .run(
                    &mut client,
                    &dm.program,
                    &params,
                    &BlockSeq::flat(dm),
                    &mut stats,
                )
                .unwrap();
            let after = client.stats();
            assert_eq!(after.remote_reads - before.remote_reads, 1);
            assert_eq!(after.prepares - before.prepares, 1);
        }
        assert_eq!(stats.commits, 3);
        assert_eq!(stats.full_aborts, 0, "existing or absent, nothing aborts");
        assert_eq!(read_bal(&mut client, 7), 100);
        cluster.shutdown();
    }

    #[test]
    fn wrong_absent_presumption_demotes_and_retries() {
        let cluster = Cluster::start(ClusterConfig::test(4, 1));
        let mut client = cluster.client(0);
        let dep = deposit_model();
        let dm = append_model();
        let engine = ExecutorEngine::default();
        // The row the counter will name exists — the presumption (version
        // 0, default value) is wrong and must be caught at prepare, not
        // silently clobber the stored balance.
        let mut seed_stats = ExecStats::default();
        engine
            .run(
                &mut client,
                &dep.program,
                &[Value::Int(1000), Value::Int(100)],
                &BlockSeq::flat(&dep),
                &mut seed_stats,
            )
            .unwrap();
        let mut stats = ExecStats::default();
        let reads_before = client.stats().remote_reads;
        client.set_observer(TxnObserver::default());
        engine
            .run(
                &mut client,
                &dm.program,
                &[Value::Int(7), Value::Int(10)],
                &BlockSeq::flat(&dm),
                &mut stats,
            )
            .unwrap();
        let obs = client.take_observer().expect("installed");
        assert_eq!(stats.commits, 1);
        assert_eq!(stats.full_aborts, 1, "one commit-time rejection");
        assert_eq!(
            obs.aborts.total_of(&AbortKind::EXECUTOR_KINDS),
            stats.full_aborts + stats.partial_aborts + stats.locked_aborts,
        );
        assert_eq!(
            client.stats().remote_reads - reads_before,
            2,
            "the retry fetches the demoted row in its one initial round"
        );
        assert_eq!(
            read_bal(&mut client, 1000),
            100,
            "the retry wrote onto the real copy (demoted), keeping the balance"
        );
        cluster.shutdown();
    }

    #[test]
    fn insert_of_an_object_also_opened_by_name_uses_the_fetched_copy() {
        // The insert's drawn key names a row another handle opens by
        // parameter (fetched at attempt start): the insert statement must
        // install the fetched copy, not presume an existing row absent.
        let mut b = ProgramBuilder::new("aliased-append", 3);
        append_program(&mut b);
        let r = b.open_read(ACCOUNT, b.param(2));
        let _v = b.get(r, BAL);
        let dm = DependencyModel::analyze(b.finish()).unwrap();
        let cluster = Cluster::start(ClusterConfig::test(4, 1));
        let mut client = cluster.client(0);
        let dep = deposit_model();
        let engine = ExecutorEngine::default();
        let mut stats = ExecStats::default();
        for (dm, params) in [
            (&dep, vec![Value::Int(1000), Value::Int(100)]),
            (&dm, vec![Value::Int(7), Value::Int(1), Value::Int(1000)]),
        ] {
            engine
                .run(
                    &mut client,
                    &dm.program,
                    &params,
                    &BlockSeq::flat(dm),
                    &mut stats,
                )
                .unwrap();
        }
        assert_eq!(stats.commits, 2);
        assert_eq!(stats.full_aborts, 0, "no wrong presumption to reject");
        assert_eq!(read_bal(&mut client, 1000), 100);
        cluster.shutdown();
    }

    #[test]
    fn presumed_records_an_object_once_and_only_if_the_copy_was_installed() {
        let cluster = Cluster::start(ClusterConfig::test(4, 1));
        let mut client = cluster.client(0);
        let dm = append_model();
        let params = [Value::Int(7), Value::Int(10)];
        let mut reads = SpecReads::new(&dm.access, &params);
        let mut ctx = TxnCtx::begin(&mut client);
        let (real, absent) = (ObjectId::new(ACCOUNT, 1), ObjectId::new(ACCOUNT, 2));

        // Really read, then named by a blind-eligible Open: the real copy
        // stays, so a later invalidation of it is a genuine stale read —
        // not a failed absent-presumption to demote and refetch.
        ctx.open(&mut client, real, true).unwrap();
        let mut acc = Access {
            ctx: &mut ctx,
            reads: Some(&mut reads),
        };
        acc.open(&mut client, real, true, true).unwrap();
        // A Block that presumes `absent`, rolls back, and re-runs.
        for _ in 0..3 {
            acc.ctx.begin_block();
            acc.open(&mut client, absent, true, true).unwrap();
            acc.ctx.abort_block();
        }
        assert_eq!(reads.presumed, vec![absent]);
        assert!(reads.invalidated(&[real]).is_empty(), "nothing to refetch");
        assert!(reads.demoted.is_empty());
        assert_eq!(reads.invalidated(&[absent]), vec![absent]);
        assert_eq!(reads.demoted, vec![absent]);
        cluster.shutdown();
    }

    #[test]
    fn rolled_back_block_refetches_the_copy_that_invalidated_it() {
        use acn_dtm::{ClientConfig, Msg, TxnId};
        use acn_simnet::NodeId;
        // Block 0 opens the head (fetched at attempt start, so cached) and
        // chases its balance to a tail object the plan cannot resolve — a
        // remote read at the statement, which presents the head's cached
        // version for validation. The head is overwritten between the two
        // rounds: the Block must roll back once, refetch the head, and
        // commit — not replay the stale copy until the retry budget
        // escalates.
        let mut b = ProgramBuilder::new("chase", 2);
        let head = b.open_read(ACCOUNT, b.param(0));
        let next = b.get(head, BAL);
        let _again = b.get(head, BAL); // two reads: not a counter
        let tail = b.open_update(ACCOUNT, next);
        let tv = b.get(tail, BAL);
        let nv = b.add(tv, 1i64);
        b.set(tail, BAL, nv);
        let other = b.open_update(ACCOUNT, b.param(1));
        let ov = b.get(other, BAL);
        let on = b.add(ov, 1i64);
        b.set(other, BAL, on);
        let dm = DependencyModel::analyze(b.finish()).unwrap();
        let seq = BlockSeq::group_units(&dm, &[vec![0, 1], vec![2]]);

        let mut cfg = ClusterConfig::test(4, 2);
        cfg.client_cfg = ClientConfig {
            locked_retries: usize::MAX,
            locked_backoff: Duration::from_micros(200),
            ..ClientConfig::default()
        };
        let cluster = Cluster::start(cfg);
        let mut writer = cluster.client(1);
        let (head_obj, tail_obj) = (ObjectId::new(ACCOUNT, 8), ObjectId::new(ACCOUNT, 9));
        let point_head_at_tail = |writer: &mut DtmClient| {
            let mut ctx = TxnCtx::begin(writer);
            ctx.open(writer, head_obj, true).unwrap();
            ctx.set_field(head_obj, BAL, Value::Int(9));
            ctx.commit(writer).unwrap();
        };
        point_head_at_tail(&mut writer);

        // A stalled committer holds the tail locked on every replica, so
        // the runner parks in its second round until released.
        let zombie = cluster.net().endpoint(NodeId(4 + 1));
        let ztxn = TxnId {
            client: NodeId(4 + 1),
            seq: u64::MAX,
        };
        let to_all = |msg: &dyn Fn() -> Msg| {
            for rank in 0..4u32 {
                zombie.send(NodeId(rank), msg());
            }
            for _ in 0..4 {
                let _ = zombie.recv_timeout(Duration::from_millis(500));
            }
        };
        to_all(&|| Msg::PrepareReq {
            txn: ztxn,
            req: 1,
            validate: vec![],
            writes: vec![(tail_obj, 0)],
        });

        let sent_before = cluster.net().stats().sent;
        let (stats, obs) = std::thread::scope(|s| {
            let runner = s.spawn(|| {
                let mut client = cluster.client(0);
                let mut stats = ExecStats::default();
                client.set_observer(TxnObserver::default());
                ExecutorEngine::default()
                    .run(
                        &mut client,
                        &dm.program,
                        &[Value::Int(8), Value::Int(3)],
                        &seq,
                        &mut stats,
                    )
                    .unwrap();
                (stats, client.take_observer().expect("installed"))
            });
            // The runner cannot get past the locked tail, so once it has
            // sent far more than its initial round it is retrying there.
            while cluster.net().stats().sent < sent_before + 64 {
                std::thread::yield_now();
            }
            point_head_at_tail(&mut writer); // same value, newer version
            to_all(&|| Msg::AbortReq { txn: ztxn, req: 2 });
            runner.join().unwrap()
        });
        assert_eq!(stats.commits, 1);
        assert_eq!(stats.partial_aborts, 1, "one rollback of the Block");
        assert_eq!(stats.full_aborts, 0, "no escalation");
        assert_eq!(obs.aborts.total_of(&[AbortKind::Escalated]), 0);
        let mut client = cluster.client(0);
        assert_eq!(read_bal(&mut client, 9), 1, "chased object updated once");
        assert_eq!(read_bal(&mut client, 3), 1);
        cluster.shutdown();
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = ExecStats {
            commits: 1,
            full_aborts: 2,
            partial_aborts: 3,
            locked_aborts: 4,
            unavailable_retries: 5,
        };
        a.merge(&ExecStats {
            commits: 10,
            full_aborts: 20,
            partial_aborts: 30,
            locked_aborts: 40,
            unavailable_retries: 50,
        });
        assert_eq!(a.commits, 11);
        assert_eq!(a.full_aborts, 22);
        assert_eq!(a.partial_aborts, 33);
        assert_eq!(a.locked_aborts, 44);
        assert_eq!(a.unavailable_retries, 55);
    }
}
