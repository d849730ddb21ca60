//! Property tests for the ack-after-durable gate (DESIGN §15), driven
//! through the server state machine alone: no threads, no network, no
//! sleeps — `Server::step` / `Server::tick` / `Server::observe_faults` at
//! synthetic instants an hour ahead of the wall clock, over a
//! fault-injecting log that loses its unsynced suffix at every restart.
//!
//! A random schedule mixes prepares, commits, aborts, duplicates of earlier
//! requests, reads, ticks and crashes. Two oracles watch it:
//!
//! * a **tap** between the server and its log that keeps the model of what
//!   a crash would leave on disk — the records appended before the last
//!   successful sync — and checks the model against every real restart
//!   load;
//! * a **park queue** mirroring what the server withheld: `step` returning
//!   `None` for a 2PC request parks it, a crash empties the queue, and
//!   every message a tick releases must be the queue's front.
//!
//! Under `EveryRecord` and `GroupCommit` every `PrepareResp { vote: true }`,
//! `CommitAck` and `AbortAck` that leaves the server is already on the
//! model disk, and after every later crash-restart the server still
//! answers its request from the replayed dedup cache. `Buffered` is the
//! negative control: nothing is ever parked, and a fixed schedule shows the
//! survival property failing there.

use acn_dtm::{
    DurabilityMode, FaultLog, FaultLogConfig, Framed, LoadedLog, MemLog, Msg, Persistence, ReqId,
    Server, TxnId, WalError, WalRecord, WindowConfig,
};
use acn_simnet::NodeId;
use acn_txir::{FieldId, ObjClass, ObjectId, ObjectVal, Value};
use proptest::prelude::*;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const ACCT: ObjClass = ObjClass::new(0, "acct");

/// What a crash right now would leave on disk: `appended[..durable]`.
#[derive(Default)]
struct Disk {
    appended: Vec<WalRecord>,
    durable: usize,
}

impl Disk {
    /// Is the decision `req` certifies on the durable prefix?
    fn holds(&self, req: ReqId) -> bool {
        self.appended[..self.durable].iter().any(|rec| match rec {
            WalRecord::PrepareGrant { req: r, .. }
            | WalRecord::CommitApply { req: r, .. }
            | WalRecord::Abort { req: r, .. } => *r == req,
            WalRecord::IncarnationBump { .. } => false,
        })
    }
}

/// The server's log with the disk model listening in.
struct Tap {
    inner: FaultLog,
    disk: Arc<Mutex<Disk>>,
}

impl Persistence for Tap {
    fn append(&mut self, rec: &dyn Framed) -> Result<(), WalError> {
        self.inner.append(rec)?;
        self.disk.lock().unwrap().appended.push(rec.to_record());
        Ok(())
    }

    fn sync(&mut self) -> Result<(), WalError> {
        self.inner.sync()?;
        let mut disk = self.disk.lock().unwrap();
        disk.durable = disk.appended.len();
        Ok(())
    }

    fn load(&mut self) -> LoadedLog {
        let loaded = self.inner.load();
        let mut disk = self.disk.lock().unwrap();
        let durable = disk.durable;
        disk.appended.truncate(durable);
        assert_eq!(loaded.records, disk.appended, "the disk model drifted");
        loaded
    }

    fn reset(&mut self) {
        self.inner.reset();
        *self.disk.lock().unwrap() = Disk::default();
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Prepare {
        txn: u8,
        obj: u8,
    },
    Commit {
        txn: u8,
        obj: u8,
    },
    Abort {
        txn: u8,
    },
    /// Re-send the `nth` request sent so far (modulo how many there are).
    Duplicate {
        nth: u8,
    },
    Read {
        obj: u8,
    },
    /// Let `ms` milliseconds pass, then tick.
    Tick {
        ms: u8,
    },
    Restart,
    Amnesia,
}

/// Ticks and 2PC requests dominate; crashes are rare enough that acks get
/// parked and released in between.
fn op() -> impl Strategy<Value = Op> {
    (0u8..20, 0u8..6, 0u8..4).prop_map(|(kind, a, b)| match kind {
        0..=3 => Op::Prepare { txn: a, obj: b },
        4..=6 => Op::Commit { txn: a, obj: b },
        7 => Op::Abort { txn: a },
        8..=9 => Op::Duplicate { nth: a * 4 + b },
        10 => Op::Read { obj: b },
        11..=17 => Op::Tick { ms: a },
        18 => Op::Restart,
        _ => Op::Amnesia,
    })
}

#[derive(Debug, Clone, Copy)]
struct Faults {
    seed: u64,
    append_error_p: f64,
    sync_error_p: f64,
}

fn faults() -> impl Strategy<Value = Faults> {
    (any::<u64>(), 0u8..4).prop_map(|(seed, shape)| Faults {
        seed,
        append_error_p: if shape & 1 == 0 { 0.0 } else { 0.2 },
        sync_error_p: if shape & 2 == 0 { 0.0 } else { 0.3 },
    })
}

fn group_commit() -> DurabilityMode {
    DurabilityMode::GroupCommit {
        max_records: 4,
        max_delay: Duration::from_millis(5),
    }
}

/// What a schedule did, for the properties that differ by mode.
#[derive(Debug, Default)]
struct Report {
    /// Certifying acks that left the server.
    acks: usize,
    /// Acks that left before their record was on the model disk, plus
    /// acked requests a later restart no longer answered from the dedup
    /// cache: the lost acks the contract forbids.
    lost: usize,
    /// Replies `step` withheld.
    parked: usize,
    /// Withheld replies a crash dropped unsent.
    dropped: usize,
}

/// The request id an ack certifies a logged decision for, if it does.
fn certifies(msg: &Msg) -> Option<ReqId> {
    match msg {
        Msg::PrepareResp {
            req, vote: true, ..
        }
        | Msg::CommitAck { req }
        | Msg::AbortAck { req } => Some(*req),
        _ => None,
    }
}

macro_rules! ensure {
    ($cond:expr, $($msg:tt)*) => {
        if !$cond {
            return Err(format!($($msg)*));
        }
    };
}

/// Run `ops` against one server, checking every invariant that holds in
/// all three modes and counting the ones `Buffered` is allowed to break.
fn run_schedule(mode: &DurabilityMode, faults: Faults, ops: &[Op]) -> Result<Report, String> {
    let disk = Arc::new(Mutex::new(Disk::default()));
    let mut server = Server::new(WindowConfig::default());
    server.set_persistence(Box::new(Tap {
        inner: FaultLog::new(
            Box::new(MemLog::new()),
            FaultLogConfig {
                seed: faults.seed,
                append_error_p: faults.append_error_p,
                sync_error_p: faults.sync_error_p,
                lose_unsynced_on_restart: true,
                ..FaultLogConfig::default()
            },
        ),
        disk: disk.clone(),
    }));
    server.set_durability(mode.clone());
    let healthy = faults.append_error_p == 0.0 && faults.sync_error_p == 0.0;

    let mut now = Instant::now() + Duration::from_secs(3600);
    let mut report = Report::default();
    // Every 2PC request sent, in order; a request's id is its index + 1.
    let mut sent: Vec<(NodeId, Msg)> = Vec::new();
    // Replies the server withheld, oldest first.
    let mut parked: VecDeque<(NodeId, ReqId)> = VecDeque::new();
    // Requests whose ack left the server, by request id.
    let mut acked: BTreeMap<ReqId, Msg> = BTreeMap::new();
    let (mut amnesia_epoch, mut restart_epoch) = (0u64, 0u64);
    let mut next_version = 0u64;

    for (i, &op) in ops.iter().enumerate() {
        now += Duration::from_micros(100);
        let client = |txn: u8| NodeId(10 + txn as u32);
        let txn_id = |txn: u8| TxnId {
            client: client(txn),
            seq: txn as u64,
        };
        let obj_id = |obj: u8| ObjectId::new(ACCT, obj as u64);
        let req = sent.len() as ReqId + 1;
        let request = match op {
            Op::Prepare { txn, obj } => Some((
                client(txn),
                Msg::PrepareReq {
                    txn: txn_id(txn),
                    req,
                    validate: vec![],
                    writes: vec![(obj_id(obj), 0)],
                },
            )),
            Op::Commit { txn, obj } => {
                next_version += 1;
                let value = ObjectVal::from_fields([(FieldId(0), Value::Int(i as i64))]);
                Some((
                    client(txn),
                    Msg::CommitReq {
                        txn: txn_id(txn),
                        req,
                        writes: vec![(obj_id(obj), next_version, value)],
                    },
                ))
            }
            Op::Abort { txn } => Some((
                client(txn),
                Msg::AbortReq {
                    txn: txn_id(txn),
                    req,
                },
            )),
            Op::Duplicate { nth } if !sent.is_empty() => {
                Some(sent[nth as usize % sent.len()].clone())
            }
            _ => None,
        };
        if let Some((src, msg)) = request {
            let req = match &msg {
                Msg::PrepareReq { req, .. }
                | Msg::CommitReq { req, .. }
                | Msg::AbortReq { req, .. } => *req,
                other => unreachable!("{other:?}"),
            };
            if !matches!(op, Op::Duplicate { .. }) {
                sent.push((src, msg.clone()));
            }
            match server.step(src, &msg, now) {
                Some(reply) => {
                    if let Some(certified) = certifies(&reply) {
                        ensure!(certified == req, "op {i}: ack for {certified}, sent {req}");
                        report.acks += 1;
                        report.lost += !disk.lock().unwrap().holds(req) as usize;
                        acked.insert(req, msg);
                    }
                }
                None => {
                    ensure!(
                        *mode != DurabilityMode::Buffered,
                        "op {i}: Buffered withheld the reply to {req}"
                    );
                    report.parked += 1;
                    parked.push_back((src, req));
                }
            }
            continue;
        }
        match op {
            Op::Read { obj } => {
                let read = Msg::ReadBatchReq {
                    txn: txn_id(0),
                    req: 0,
                    objs: vec![obj_id(obj)],
                    validate: vec![],
                    sample: vec![],
                };
                ensure!(
                    matches!(
                        server.step(client(0), &read, now),
                        Some(Msg::ReadBatchResp { .. })
                    ),
                    "op {i}: a read was withheld"
                );
            }
            Op::Tick { ms } => {
                now += Duration::from_millis(ms as u64);
                let mut out = Vec::new();
                server.tick(now, &mut out);
                for (dst, ack) in out {
                    // Only what was parked leaves a tick, oldest first, to
                    // whoever asked — so nothing a crash dropped, and no
                    // refusal (`certifies` is `None` for those).
                    let front = parked.pop_front();
                    ensure!(
                        front == certifies(&ack).map(|req| (dst, req)),
                        "op {i}: tick released {ack:?} to {dst:?}, park queue front {front:?}"
                    );
                    let req = front.expect("compared equal to a Some").1;
                    report.acks += 1;
                    report.lost += !disk.lock().unwrap().holds(req) as usize;
                    let request = sent[req as usize - 1].1.clone();
                    acked.insert(req, request);
                }
                // With a healthy backend a parked ack makes the sync due
                // at once in both gated modes: released right after the
                // covering sync, not a tick later.
                ensure!(
                    !healthy || parked.is_empty(),
                    "op {i}: a tick over a healthy log left {parked:?} parked"
                );
            }
            Op::Restart | Op::Amnesia => {
                // The process dies: whatever it had parked was never sent.
                report.dropped += parked.len();
                parked.clear();
                if matches!(op, Op::Amnesia) {
                    // The disk is lost too, and with it every promise made
                    // on it (the catch-up protocol takes over from here).
                    amnesia_epoch += 1;
                    acked.clear();
                } else {
                    restart_epoch += 1;
                }
                server.observe_faults(amnesia_epoch, restart_epoch, false, now);
                // Every ack that ever left is answered from the replayed
                // dedup cache — its record survived.
                for request in acked.values() {
                    let hits = server.stats().dedup_hits;
                    let reply = server.handle(request.clone(), now);
                    let survived = server.stats().dedup_hits == hits + 1
                        && reply.as_ref().and_then(certifies).is_some();
                    report.lost += !survived as usize;
                }
            }
            Op::Duplicate { .. } => {} // nothing sent yet
            Op::Prepare { .. } | Op::Commit { .. } | Op::Abort { .. } => unreachable!(),
        }
    }
    Ok(report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The contract: no certifying ack leaves before its record is
    /// durable, and none is ever lost to a later crash-restart.
    #[test]
    fn gated_modes_never_lose_an_ack(
        group in any::<bool>(),
        faults in faults(),
        ops in prop::collection::vec(op(), 0..80),
    ) {
        let mode = if group { group_commit() } else { DurabilityMode::EveryRecord };
        let report = run_schedule(&mode, faults, &ops)
            .unwrap_or_else(|e| panic!("{e}\n{mode:?} {faults:?}\n{ops:?}"));
        prop_assert_eq!(report.lost, 0, "{:?} {:?}\n{:?}", mode, faults, ops);
    }

    /// `Buffered` weakens the contract, never the protocol: nothing is
    /// withheld (`run_schedule` refuses a `None` from `step`), so nothing
    /// is ever released by a tick.
    #[test]
    fn buffered_never_parks(
        faults in faults(),
        ops in prop::collection::vec(op(), 0..80),
    ) {
        let report = run_schedule(&DurabilityMode::Buffered, faults, &ops)
            .unwrap_or_else(|e| panic!("{e}\n{faults:?}\n{ops:?}"));
        prop_assert_eq!(report.parked, 0);
    }
}

/// The negative control: the same crash that costs `Buffered` an
/// acknowledged grant costs the gated modes nothing — so the property
/// above can fail, and fails for the reason it names.
#[test]
fn buffered_loses_an_acked_grant_the_gated_modes_keep() {
    let ops = [
        Op::Prepare { txn: 1, obj: 0 },
        Op::Tick { ms: 1 },
        Op::Restart,
    ];
    let quiet = Faults {
        seed: 0,
        append_error_p: 0.0,
        sync_error_p: 0.0,
    };
    let buffered = run_schedule(&DurabilityMode::Buffered, quiet, &ops).unwrap();
    assert_eq!((buffered.acks, buffered.parked), (1, 0));
    assert!(buffered.lost > 0, "the unsynced grant died with the crash");
    for mode in [DurabilityMode::EveryRecord, group_commit()] {
        let gated = run_schedule(&mode, quiet, &ops).unwrap();
        assert_eq!(
            (gated.acks, gated.parked, gated.lost),
            (1, 1, 0),
            "{mode:?}"
        );
    }
}

/// The schedules above must actually exercise the gate: acks parked and
/// released, decisions retried after a failed append, crashes with acks
/// still parked.
#[test]
fn schedules_reach_the_interesting_states() {
    let mut rng = proptest::test_runner::TestRng::deterministic("coverage");
    let schedule = prop::collection::vec(op(), 80..81);
    let (mut acks, mut parked, mut dropped) = (0, 0, 0);
    for shape in 0..4u8 {
        let faults = Faults {
            seed: 7,
            append_error_p: if shape & 1 == 0 { 0.0 } else { 0.2 },
            sync_error_p: if shape & 2 == 0 { 0.0 } else { 0.3 },
        };
        for _ in 0..16 {
            let ops = schedule.generate(&mut rng);
            let report = run_schedule(&group_commit(), faults, &ops).unwrap();
            acks += report.acks;
            parked += report.parked;
            dropped += report.dropped;
        }
    }
    assert!(parked > 500, "only {parked} replies were ever parked");
    assert!(acks > 250, "only {acks} acks ever left");
    assert!(dropped > 20, "only {dropped} parked acks ever met a crash");
}
