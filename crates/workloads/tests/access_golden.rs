//! Golden pin of what the Static Module tells the run time about a
//! template's opens, on both sides of the table:
//!
//! * the batch scheduler's view — `DependencyModel::access.resolve_with`
//!   under a cursor oracle → `(exact, reads, writes, predicted)`;
//! * the executor's view — the objects of the first read round of the
//!   instance's first attempt, taken off the wire by a one-replica server
//!   this test pumps itself (so nothing but `ExecutorEngine::run_with` and
//!   the message format is assumed about how the executor gets there).
//!
//! Every in-tree template (Bank, Vacation, TPC-C Payment / Delivery /
//! NewOrder) × 16 seeded requests, folded into one digest per template.
//! The digests were recorded at the commit *before* the three access
//! descriptions were folded into one table and must not change with it.
//! Where the scheduler's sets are exact, the fetch list and the rows opened
//! with no fetch partition them — checked per instance, not only hashed.

use acn_core::{BlockSeq, ExecStats, ExecutorEngine, Prediction, PredictionOutcome};
use acn_dtm::{ClientConfig, DtmClient, Msg, Server, WindowConfig};
use acn_quorum::{DaryTree, LevelQuorums};
use acn_simnet::{LatencyModel, Network, NodeId, RecvError};
use acn_txir::{CounterOracle, CounterSite, DependencyModel, ObjectId};
use acn_workloads::bank::{Bank, BankConfig};
use acn_workloads::tpcc::{Tpcc, TpccConfig, TpccMix};
use acn_workloads::vacation::{Vacation, VacationConfig};
use acn_workloads::Workload;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PER_TEMPLATE: usize = 16;

/// The batch coordinator's predictor: one cursor per counter, from 0.
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

/// The objects of every read round the replica served, in arrival order.
type Tap = Arc<Mutex<Vec<Vec<ObjectId>>>>;

/// One replica on this test's own thread: `Server::step` + `Server::tick`
/// over a zero-latency network, recording each `ReadBatchReq` it serves.
fn serve(net: &Network<Msg>, tap: Tap, stop: Arc<AtomicBool>) {
    let endpoint = net.endpoint(NodeId(0));
    let mut server = Server::new(WindowConfig::default());
    let mut out = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        server.tick(Instant::now(), &mut out);
        for (dst, msg) in out.drain(..) {
            endpoint.send(dst, msg);
        }
        let (src, msg) = match endpoint.recv_timeout(Duration::from_millis(2)) {
            Ok(received) => received,
            Err(RecvError::Timeout) => continue,
            Err(RecvError::Closed) => break,
        };
        let bare = match &msg {
            Msg::Traced { inner, .. } => &**inner,
            other => other,
        };
        if let Msg::ReadBatchReq { objs, .. } = bare {
            tap.lock().push(objs.clone());
        }
        if let Some(reply) = server.step(src, &msg, Instant::now()) {
            endpoint.send(src, reply);
        }
    }
}

fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn ids(objs: &[ObjectId]) -> String {
    let parts: Vec<String> = objs
        .iter()
        .map(|o| format!("{}:{}", o.class.id, o.index))
        .collect();
    parts.join(",")
}

/// Run `workload` until every template has seen [`PER_TEMPLATE`] requests
/// and return `(template name, instances, digest, rendering)` per template.
fn pin(workload: &dyn Workload, seed: u64) -> Vec<(String, usize, u64, String)> {
    let net: Network<Msg> = Network::new(2, LatencyModel::Zero);
    let tap: Tap = Arc::default();
    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let (net, tap, stop) = (net.clone(), Arc::clone(&tap), Arc::clone(&stop));
        std::thread::spawn(move || serve(&net, tap, stop))
    };
    let mut client = DtmClient::new(
        net.clone(),
        net.endpoint(NodeId(1)),
        LevelQuorums::new(DaryTree::new(1, 3)),
        ClientConfig::default(),
    );
    workload.seed(&mut client);

    let dms: Vec<DependencyModel> = workload
        .templates()
        .iter()
        .map(|p| DependencyModel::analyze(p.clone()).expect("valid template"))
        .collect();
    let seqs: Vec<BlockSeq> = dms.iter().map(BlockSeq::flat).collect();
    let engine = ExecutorEngine::default();
    let mut stats = ExecStats::default();
    let mut oracle = Cursors::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lines: Vec<Vec<String>> = vec![Vec::new(); dms.len()];

    for _ in 0..4000 {
        if lines.iter().all(|l| l.len() == PER_TEMPLATE) {
            break;
        }
        let req = workload.next(&mut rng, 0);
        let t = req.template;
        if lines[t].len() == PER_TEMPLATE {
            continue;
        }
        let resolved = dms[t].access.resolve_with(&req.params, &mut oracle);

        tap.lock().clear();
        let mut outcome = PredictionOutcome::default();
        let prediction = Prediction {
            preds: &resolved.predicted,
            outcome: &mut outcome,
        };
        engine
            .run_with(
                &mut client,
                &dms[t].program,
                &req.params,
                &seqs[t],
                &mut stats,
                Some(prediction),
            )
            .expect("an uncontended instance commits");
        assert!(outcome.mispredicts.is_empty(), "cursor and store agree");
        let fetch = tap.lock().first().cloned().unwrap_or_default();

        if resolved.exact {
            // Fetched ∪ opened-with-no-fetch = the scheduler's read set,
            // and only written rows are ever opened with no fetch.
            assert!(fetch.iter().all(|o| resolved.reads.contains(o)));
            for o in resolved.reads.iter().filter(|o| !fetch.contains(o)) {
                assert!(
                    resolved.writes.contains(o),
                    "{}: read {o:?} is neither fetched nor an insert",
                    dms[t].program.name
                );
            }
        }
        let preds: Vec<String> = resolved
            .predicted
            .iter()
            .map(|p| {
                format!(
                    "{}:{}.{}={}+{}",
                    p.obj.class.id, p.obj.index, p.field.0, p.value, p.delta
                )
            })
            .collect();
        lines[t].push(format!(
            "exact={} r=[{}] w=[{}] p=[{}] f=[{}]",
            resolved.exact,
            ids(&resolved.reads),
            ids(&resolved.writes),
            preds.join(","),
            ids(&fetch),
        ));
    }
    assert_eq!(stats.full_aborts + stats.partial_aborts, 0, "one client");

    stop.store(true, Ordering::SeqCst);
    server.join().expect("server thread");
    dms.iter()
        .zip(lines)
        .map(|(dm, lines)| {
            let text = lines.join("\n");
            (dm.program.name.clone(), lines.len(), fnv1a(&text), text)
        })
        .collect()
}

/// `(template, instances, digest)` as recorded at the parent commit.
const GOLDEN: &[(&str, usize, u64)] = &[
    ("bank/transfer", 16, 0x3bd2529c3c24c915),
    ("bank/audit", 16, 0x32f201062e186de5),
    ("vacation/reserve/8", 16, 0xb152b497f08c11f0),
    ("vacation/query", 16, 0xe39a76e1e311bab9),
    ("tpcc/payment", 16, 0xd90e3569dce40202),
    ("tpcc/delivery", 16, 0x2f6b87e4cb9fbff9),
    ("tpcc/neworder/5", 16, 0x21fa6903737c52f0),
    ("tpcc/neworder/6", 16, 0xe5f607146b24ad34),
];

#[test]
fn every_template_resolves_and_fetches_what_it_did_before_the_table() {
    let tpcc = Tpcc::new(
        TpccConfig {
            warehouses: 1,
            districts_per_warehouse: 2,
            customers_per_district: 10,
            items: 50,
            ol_min: 5,
            ol_max: 6,
        },
        TpccMix {
            neworder: 40,
            payment: 30,
            delivery: 30,
        },
    );
    let workloads: [(&dyn Workload, u64); 3] = [
        (&Bank::new(BankConfig::default()), 11),
        (&Vacation::new(VacationConfig::default()), 12),
        (&tpcc, 13),
    ];
    let mut actual = String::new();
    let mut detail = String::new();
    let mut got = Vec::new();
    for (workload, seed) in workloads {
        for (name, n, digest, text) in pin(workload, seed) {
            let _ = writeln!(actual, "    (\"{name}\", {n}, {digest:#018x}),");
            let _ = writeln!(detail, "== {name}\n{text}");
            got.push((name, n, digest));
        }
    }
    let want: Vec<(String, usize, u64)> = GOLDEN
        .iter()
        .map(|&(name, n, digest)| (name.to_string(), n, digest))
        .collect();
    assert_eq!(
        got, want,
        "access golden moved; actual table:\n{actual}\nper instance:\n{detail}"
    );
}
