//! Checkpointing executor — the alternative partial-abort design.
//!
//! Koskinen & Herlihy (§VII of the paper) propose *checkpoints and
//! continuations* instead of nested transactions: save the whole execution
//! state at fine-grained points and, on a conflict, resume from the last
//! checkpoint *preceding the first read of the invalidated object*. The
//! paper's earlier work ([10]) found closed nesting cheaper in DTM because
//! checkpointing pays a state-snapshot on every boundary; this module
//! exists to reproduce that comparison (`benches/ablations.rs`).
//!
//! The implementation checkpoints at UnitBlock granularity — the finest
//! the paper discusses ("saving the transaction state whenever the
//! transaction issues the first read operation on a shared object") — by
//! cloning the transaction context and register file before each block.

use crate::blocks::BlockSeq;
use crate::executor::rand_like::jitter;
use crate::executor::{run_block, Access, Frame, RetryPolicy, RunError, StepError, StepGuards};
use acn_dtm::{DtmClient, DtmError, TxnCtx};
use acn_obs::{AbortKind, SpanKind, TxnEvent, TxnObserver};
use acn_txir::{ObjectId, Program, Value};
use std::collections::HashMap;
use std::time::Instant;

/// Report one event: the counters are derived from it, and so is the
/// observer's attribution when one is attached.
fn emit(stats: &mut CheckpointStats, obs: &mut Option<&mut TxnObserver>, ev: TxnEvent) {
    stats.on_event(ev);
    if let Some(o) = obs.as_deref_mut() {
        o.on_event(ev);
    }
}

/// Counters for checkpointed execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Transactions committed.
    pub commits: u64,
    /// Rollbacks to an intermediate checkpoint (the partial-abort analogue).
    pub rollbacks: u64,
    /// Checkpoints taken (each one paid a full state clone).
    pub checkpoints: u64,
    /// Restarts from the very beginning (conflict before any checkpoint
    /// boundary, or policy escalation).
    pub full_restarts: u64,
}

impl CheckpointStats {
    /// Count one event of a checkpointed run: every Block start takes a
    /// checkpoint, a partial abort is a rollback to one, a full abort a
    /// restart from the top.
    fn on_event(&mut self, ev: TxnEvent) {
        match ev {
            TxnEvent::Commit { .. } => self.commits += 1,
            TxnEvent::PartialAbort { .. } => self.rollbacks += 1,
            TxnEvent::BlockStart { .. } => self.checkpoints += 1,
            TxnEvent::FullAbort { .. } => self.full_restarts += 1,
            _ => {}
        }
    }
}

/// Execute one instance with checkpoint-based partial rollback. `seq`
/// provides the checkpoint boundaries (normally
/// [`BlockSeq::from_units`]'s one-block-per-UnitBlock schedule). With an
/// observer attached, rollbacks and restarts are attributed under the
/// checkpoint-specific abort kinds ([`AbortKind::CkptRollback`] /
/// [`AbortKind::CkptRestart`]), so a mixed run never conflates the two
/// partial-rollback designs.
pub fn run_checkpointed(
    client: &mut DtmClient,
    program: &Program,
    params: &[Value],
    seq: &BlockSeq,
    policy: &RetryPolicy,
    stats: &mut CheckpointStats,
    mut obs: Option<&mut TxnObserver>,
) -> Result<(), RunError> {
    let mut restarts = 0usize;
    'restart: loop {
        emit(stats, &mut obs, TxnEvent::Begin);
        let mut ctx = TxnCtx::begin(client);
        let mut frame = Frame::new(program, params);
        // Saved states: snapshots[k] is the state *before* block k ran.
        let mut snapshots: Vec<(TxnCtx, Frame<'_>)> = Vec::with_capacity(seq.len());
        // For every object: the block at whose start it was first read.
        let mut first_read_block: HashMap<ObjectId, usize> = HashMap::new();

        let mut block_idx = 0usize;
        while block_idx < seq.len() {
            emit(
                stats,
                &mut obs,
                TxnEvent::BlockStart {
                    block: block_idx as u32,
                },
            );
            snapshots.truncate(block_idx);
            snapshots.push((ctx.clone(), frame.clone()));

            let reads_before = ctx.reads_len();
            let mut lock_holds: u32 = 0;
            let result = {
                let mut acc = Access {
                    ctx: &mut ctx,
                    child: None,
                    reads: None,
                };
                let mut guards = StepGuards::none();
                guards.lock_holds = Some(&mut lock_holds);
                run_block(
                    &mut acc,
                    client,
                    &mut frame,
                    program,
                    &seq.blocks[block_idx],
                    &mut guards,
                )
            };
            // Before the terminal event, so a rollback charges this run's
            // holds to the discarded block and a completed run keeps them.
            if lock_holds > 0 {
                emit(
                    stats,
                    &mut obs,
                    TxnEvent::LockHolds {
                        block: Some(block_idx as u32),
                        holds: lock_holds,
                    },
                );
            }
            match result {
                Ok(()) => {
                    // Record first-read blocks for objects this block added.
                    for &(obj, _) in &ctx.read_set()[reads_before..] {
                        first_read_block.entry(obj).or_insert(block_idx);
                    }
                    block_idx += 1;
                }
                Err(StepError::Dtm(DtmError::Invalidated { objs })) => {
                    // Resume from the earliest checkpoint that precedes the
                    // first read of any invalidated object. Objects read
                    // within the *current* (incomplete) block resolve to
                    // this block's own checkpoint.
                    let target = objs
                        .iter()
                        .map(|o| first_read_block.get(o).copied().unwrap_or(block_idx))
                        .min()
                        .unwrap_or(block_idx);
                    emit(
                        stats,
                        &mut obs,
                        TxnEvent::PartialAbort {
                            block: block_idx as u32,
                            obj: objs.first().copied(),
                            kind: AbortKind::CkptRollback,
                        },
                    );
                    let rb = Instant::now();
                    let (saved_ctx, saved_frame) = snapshots[target].clone();
                    ctx = saved_ctx;
                    frame = saved_frame;
                    // Invalidate bookkeeping past the restore point.
                    first_read_block.retain(|_, &mut b| b < target);
                    block_idx = target;
                    // The restore itself (state clone + bookkeeping) is the
                    // checkpoint design's redo overhead — span it.
                    if let Some(t) = client.tracer_mut() {
                        t.record_plain(SpanKind::CkptRollback, rb);
                    }
                }
                Err(StepError::Dtm(DtmError::Unavailable)) => return Err(RunError::Unavailable),
                Err(StepError::Dtm(e)) => {
                    emit(
                        stats,
                        &mut obs,
                        TxnEvent::FullAbort {
                            block: Some(block_idx as u32),
                            obj: blamed_object(&e),
                            kind: AbortKind::CkptRestart,
                        },
                    );
                    restarts += 1;
                    if restarts >= policy.max_restarts {
                        return Err(RunError::RetriesExhausted);
                    }
                    jitter(policy.backoff_base, restarts);
                    continue 'restart;
                }
                Err(StepError::Eval(e)) => return Err(RunError::Eval(e)),
                Err(StepError::Mispredict { .. }) | Err(StepError::Aliased { .. }) => {
                    unreachable!("checkpoint runner executes without guards")
                }
            }
        }

        match ctx.commit(client) {
            Ok(()) => {
                emit(
                    stats,
                    &mut obs,
                    TxnEvent::Commit {
                        restarts: restarts as u32,
                    },
                );
                return Ok(());
            }
            Err(DtmError::Unavailable) => return Err(RunError::Unavailable),
            Err(e) => {
                emit(
                    stats,
                    &mut obs,
                    TxnEvent::FullAbort {
                        block: None,
                        obj: blamed_object(&e),
                        kind: AbortKind::CkptRestart,
                    },
                );
                restarts += 1;
                if restarts >= policy.max_restarts {
                    return Err(RunError::RetriesExhausted);
                }
                jitter(policy.backoff_base, restarts);
            }
        }
    }
}

/// The first object a DTM error blames, when it blames any.
fn blamed_object(e: &DtmError) -> Option<ObjectId> {
    match e {
        DtmError::Invalidated { objs } => objs.first().copied(),
        DtmError::Conflict {
            invalid, locked, ..
        } => invalid.first().or_else(|| locked.first()).copied(),
        DtmError::LockedOut { obj } => Some(*obj),
        DtmError::Unavailable => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acn_dtm::{Cluster, ClusterConfig};
    use acn_txir::{DependencyModel, FieldId, ObjClass, ProgramBuilder};

    const ACCOUNT: ObjClass = ObjClass::new(1, "Account");
    const BRANCH: ObjClass = ObjClass::new(0, "Branch");
    const BAL: FieldId = FieldId(0);

    fn transfer_dm() -> DependencyModel {
        let mut b = ProgramBuilder::new("cp/transfer", 3);
        let amt = b.param(2);
        let a1 = b.open_update(ACCOUNT, b.param(0));
        let v1 = b.get(a1, BAL);
        let n1 = b.sub(v1, amt);
        b.set(a1, BAL, n1);
        let br = b.open_update(BRANCH, b.param(1));
        let v2 = b.get(br, BAL);
        let n2 = b.add(v2, amt);
        b.set(br, BAL, n2);
        DependencyModel::analyze(b.finish()).unwrap()
    }

    fn read_bal(client: &mut DtmClient, obj: ObjectId) -> i64 {
        let mut ctx = TxnCtx::begin(client);
        ctx.open(client, obj, false).unwrap();
        let v = ctx.get_field(obj, BAL).as_int().unwrap();
        ctx.commit(client).unwrap();
        v
    }

    #[test]
    fn checkpointed_run_commits() {
        let cluster = Cluster::start(ClusterConfig::test(4, 1));
        let mut client = cluster.client(0);
        let dm = transfer_dm();
        let seq = BlockSeq::from_units(&dm);
        let mut stats = CheckpointStats::default();
        run_checkpointed(
            &mut client,
            &dm.program,
            &[Value::Int(1), Value::Int(2), Value::Int(25)],
            &seq,
            &RetryPolicy::default(),
            &mut stats,
            None,
        )
        .unwrap();
        assert_eq!(stats.commits, 1);
        assert_eq!(stats.checkpoints, 2, "one checkpoint per unit block");
        assert_eq!(stats.rollbacks, 0);
        assert_eq!(read_bal(&mut client, ObjectId::new(ACCOUNT, 1)), -25);
        assert_eq!(read_bal(&mut client, ObjectId::new(BRANCH, 2)), 25);
        cluster.shutdown();
    }

    #[test]
    fn rollback_resumes_midway_not_from_start() {
        let cluster = Cluster::start(ClusterConfig::test(10, 2));
        let mut c0 = cluster.client(0);
        let mut victim = cluster.client(1);
        let dm = transfer_dm();
        let seq = BlockSeq::from_units(&dm);

        // Interleave manually: run block 0 (account), then invalidate the
        // branch read by another client mid-flight. We emulate the
        // interleaving by pre-invalidating between two full runs: first a
        // conflicting run that must roll back at least once under load.
        let mut stats = CheckpointStats::default();
        // Warm state.
        run_checkpointed(
            &mut victim,
            &dm.program,
            &[Value::Int(1), Value::Int(9), Value::Int(1)],
            &seq,
            &RetryPolicy::default(),
            &mut stats,
            None,
        )
        .unwrap();
        // Concurrent hammering on the branch to force invalidations.
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut st = CheckpointStats::default();
                for _ in 0..60 {
                    run_checkpointed(
                        &mut c0,
                        &dm.program,
                        &[Value::Int(2), Value::Int(9), Value::Int(1)],
                        &seq,
                        &RetryPolicy::default(),
                        &mut st,
                        None,
                    )
                    .unwrap();
                }
                done.store(true, std::sync::atomic::Ordering::Relaxed);
            });
            while !done.load(std::sync::atomic::Ordering::Relaxed) {
                run_checkpointed(
                    &mut victim,
                    &dm.program,
                    &[Value::Int(3), Value::Int(9), Value::Int(1)],
                    &seq,
                    &RetryPolicy::default(),
                    &mut stats,
                    None,
                )
                .unwrap();
            }
        });
        assert!(stats.commits > 0);
        // Both writers target branch 9, so some conflicts are certain;
        // the checkpointing path resolves them via rollback or restart.
        cluster.shutdown();
    }

    #[test]
    fn observed_checkpoint_run_uses_ckpt_kinds() {
        use acn_obs::{AbortKind, TxnObserver};
        let cluster = Cluster::start(ClusterConfig::test(4, 1));
        let mut client = cluster.client(0);
        let dm = transfer_dm();
        let seq = BlockSeq::from_units(&dm);
        let mut stats = CheckpointStats::default();
        let mut obs = TxnObserver::default();
        run_checkpointed(
            &mut client,
            &dm.program,
            &[Value::Int(1), Value::Int(2), Value::Int(25)],
            &seq,
            &RetryPolicy::default(),
            &mut stats,
            Some(&mut obs),
        )
        .unwrap();
        assert!(matches!(
            obs.trace.iter().last(),
            Some(TxnEvent::Commit { .. })
        ));
        assert_eq!(
            obs.aborts
                .total_of(&[AbortKind::CkptRollback, AbortKind::CkptRestart]),
            stats.rollbacks + stats.full_restarts,
            "checkpoint aborts attribute under checkpoint kinds only"
        );
        assert_eq!(obs.aborts.total_of(&AbortKind::EXECUTOR_KINDS), 0);
        cluster.shutdown();
    }

    #[test]
    fn checkpoint_overhead_scales_with_blocks() {
        let cluster = Cluster::start(ClusterConfig::test(4, 1));
        let mut client = cluster.client(0);
        let dm = transfer_dm();
        let per_unit = BlockSeq::from_units(&dm);
        let flat = BlockSeq::flat(&dm);
        let mut s1 = CheckpointStats::default();
        let mut s2 = CheckpointStats::default();
        run_checkpointed(
            &mut client,
            &dm.program,
            &[Value::Int(1), Value::Int(2), Value::Int(1)],
            &per_unit,
            &RetryPolicy::default(),
            &mut s1,
            None,
        )
        .unwrap();
        run_checkpointed(
            &mut client,
            &dm.program,
            &[Value::Int(1), Value::Int(2), Value::Int(1)],
            &flat,
            &RetryPolicy::default(),
            &mut s2,
            None,
        )
        .unwrap();
        assert!(s1.checkpoints > s2.checkpoints);
        cluster.shutdown();
    }
}
