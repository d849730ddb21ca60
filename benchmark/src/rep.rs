//! One rep: a fresh process sets the system up, warms it, measures a
//! window, checks the result and reports. Runs as a child of the benchmark
//! binary so `peak_rss_mb` and `setup_s` are per rep and nothing carries
//! over from one rep to the next.

use crate::adapter::{self, ClientCounts, NetCounts, PlanMode, ServerCounts, Sut, WaveCounts};
use crate::json::{ratio, Json};
use crate::procfs;
use crate::spec::{Shape, WorkloadSpec, CLIENT_THREADS};
use crate::trace::{self, NameTotals, Span, SpanBuf};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepKind {
    /// Set the system up, report `setup_s`, stop.
    Setup,
    /// Warm up, then measure with tracing off. End-to-end metrics come
    /// only from these.
    Timed,
    /// As `Timed`, with the span recorder on and a `HistoryLog` on every
    /// client; writes `trace-<workload>.json`.
    Traced,
}

impl RepKind {
    pub fn label(self) -> &'static str {
        match self {
            RepKind::Setup => "setup",
            RepKind::Timed => "timed",
            RepKind::Traced => "traced",
        }
    }

    pub fn parse(s: &str) -> Option<RepKind> {
        [RepKind::Setup, RepKind::Timed, RepKind::Traced]
            .into_iter()
            .find(|k| k.label() == s)
    }
}

#[derive(Debug, Clone)]
pub struct RepArgs {
    pub workload: &'static WorkloadSpec,
    pub seed: u64,
    pub kind: RepKind,
    /// Run `BlockSeq::flat` instead of QR-ACN (for `core.acn_over_flat`).
    pub flat: bool,
    pub warmup: Duration,
    pub window: Duration,
    /// Directory for WAL files and traces (`benchmark/out`).
    pub out: PathBuf,
}

/// What a rep reports to its parent.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Rep {
    /// Process start → system ready: cluster start + `Workload::seed` +
    /// static analysis. `None` for a batch rep, where `run_scenario` does
    /// the set-up behind its own door.
    pub setup_s: Option<f64>,
    /// The `Workload::seed` part of it.
    pub seed_s: f64,
    /// Messages sent while setting up.
    pub seed_msgs: u64,
    /// Transactions that returned `Err` inside the window.
    pub failed: u64,
    /// Commits since the cluster started (the ServerStats denominator).
    pub run_commits: u64,
    /// The window is cut into slices of this length; a commit belongs to
    /// the slice it completes in.
    pub slice_s: f64,
    /// Commits per slice; their sum and count give the window's commits
    /// and length.
    pub slice_commits: Vec<u64>,
    /// Raw begin→commit latencies per slice (closed loop only).
    pub slice_latency_ns: Vec<Vec<u64>>,
    /// `(p50, p99, samples)` from `ScenarioResult.latency` for the batch
    /// workload, whose latencies only exist as 8 %-wide buckets.
    pub bucketed: Option<(u64, u64, u64)>,
    /// Deltas over the window — or, for the batch workload, totals over the
    /// run (`run_scenario` reports nothing finer).
    pub net: NetCounts,
    pub client: ClientCounts,
    pub servers: ServerCounts,
    pub waves: WaveCounts,
    pub reconfigs: u64,
    pub cpu_us: u64,
    pub peak_rss_mb: f64,
    /// Per span name: count, total and self time (traced reps).
    pub spans: Vec<(String, NameTotals)>,
    /// Correctness-gate violations; empty means the rep is correct.
    pub violations: Vec<String>,
}

fn wal_dir(out: &Path) -> PathBuf {
    out.join(format!("wal-{}", std::process::id()))
}

/// Run one rep in this process. `process_start` is taken first thing in
/// `main`.
pub fn run(args: &RepArgs, process_start: Instant) -> Rep {
    let mode = if args.flat {
        PlanMode::Flat
    } else {
        PlanMode::Adaptive
    };
    match (args.workload.shape, args.kind) {
        (Shape::NewOrder { batch: true }, RepKind::Timed | RepKind::Traced) => {
            run_batch(args, mode, process_start)
        }
        _ => run_closed_loop(args, mode, process_start),
    }
}

/// Length of one slice of the closed loop's window.
const SLICE: Duration = Duration::from_secs(1);

struct ThreadOut {
    /// Latencies per slice.
    latency_ns: Vec<Vec<u64>>,
    failed: u64,
    run_commits: u64,
    window: ClientCounts,
    spans: Vec<Span>,
}

fn run_closed_loop(args: &RepArgs, mode: PlanMode, process_start: Instant) -> Rep {
    let traced = args.kind == RepKind::Traced;
    let sut = Sut::start(
        args.workload.shape,
        args.seed,
        mode,
        &wal_dir(&args.out),
        traced,
    );
    let mut rep = Rep {
        setup_s: Some(process_start.elapsed().as_secs_f64()),
        seed_s: (sut.setup.seed.1 - sut.setup.seed.0).as_secs_f64(),
        seed_msgs: sut.net().sent,
        ..Rep::default()
    };
    if args.kind == RepKind::Setup {
        sut.shutdown();
        return rep;
    }

    let warm_end = Instant::now() + args.warmup;
    let end = warm_end + args.window;
    let slices = (args.window.as_nanos() / SLICE.as_nanos()) as usize;
    assert!(
        slices >= 1 && args.window == SLICE * slices as u32,
        "the window must be a whole number of seconds"
    );
    let (threads, net, cpu_us) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENT_THREADS)
            .map(|t| {
                let sut = &sut;
                s.spawn(move || client_thread(sut, t, traced, process_start, warm_end, slices))
            })
            .collect();
        // The main thread only marks the window's boundaries.
        std::thread::sleep(warm_end.saturating_duration_since(Instant::now()));
        let (net0, cpu0) = (sut.net(), procfs::cpu_time_us());
        std::thread::sleep(end.saturating_duration_since(Instant::now()));
        let (net1, cpu1) = (sut.net(), procfs::cpu_time_us());
        let threads: Vec<ThreadOut> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (threads, net1.since(&net0), cpu1 - cpu0)
    });
    rep.peak_rss_mb = procfs::peak_rss_mb();
    rep.net = net;
    rep.cpu_us = cpu_us;
    rep.reconfigs = sut.reconfigs();
    let mut spans = Vec::new();
    rep.slice_s = SLICE.as_secs_f64();
    rep.slice_latency_ns = vec![Vec::new(); slices];
    for t in threads {
        rep.failed += t.failed;
        rep.run_commits += t.run_commits;
        rep.client = rep.client.plus(&t.window);
        for (all, mine) in rep.slice_latency_ns.iter_mut().zip(t.latency_ns) {
            all.extend(mine);
        }
        spans.extend(t.spans);
    }
    rep.slice_commits = rep
        .slice_latency_ns
        .iter()
        .map(|s| s.len() as u64)
        .collect();

    if rep.failed > 0 {
        rep.violations
            .push(format!("{} transactions returned Err", rep.failed));
    }
    if let Err(e) = sut.check_invariant(rep.run_commits) {
        rep.violations.push(e);
    }
    if let Some(Err(e)) = sut.check_history() {
        rep.violations.push(e);
    }
    if traced {
        let mut setup = SpanBuf::new(0, process_start);
        let s = sut.setup;
        setup.push(
            "dtm.cluster_start",
            s.cluster_start.0,
            s.cluster_start.1,
            0,
            0,
        );
        setup.push("workloads.seed", s.seed.0, s.seed.1, 0, 0);
        setup.push("txir.analyze", s.analyze.0, s.analyze.1, 0, 0);
        spans.extend(setup.into_spans());
        finish_trace(&mut rep, args, &spans);
    }
    rep.servers = sut.shutdown();
    rep
}

fn client_thread(
    sut: &Sut,
    t: usize,
    traced: bool,
    origin: Instant,
    warm_end: Instant,
    slices: usize,
) -> ThreadOut {
    let end = warm_end + SLICE * slices as u32;
    let mut worker = sut.worker(t);
    let mut buf = traced.then(|| SpanBuf::new(t as u32 + 1, origin));
    let mut out = ThreadOut {
        latency_ns: (0..slices).map(|_| Vec::with_capacity(1 << 14)).collect(),
        failed: 0,
        run_commits: 0,
        window: ClientCounts::default(),
        spans: Vec::new(),
    };
    let mut at_warm_end = None;
    let mut txn = (t as u64 + 1) << 32;
    let mut now = Instant::now();
    while now < end {
        if at_warm_end.is_none() && now >= warm_end {
            at_warm_end = Some(worker.counts());
        }
        let s = worker.step();
        out.run_commits += u64::from(s.ok);
        // A transaction belongs to the window it completes in.
        if s.end >= warm_end && s.end < end {
            if s.ok {
                let slice = ((s.end - warm_end).as_nanos() / SLICE.as_nanos()) as usize;
                out.latency_ns[slice].push((s.end - s.begin).as_nanos() as u64);
            } else {
                out.failed += 1;
            }
        }
        if let Some(buf) = buf.as_mut() {
            // The root runs from the end of the previous transaction, so
            // its self time is this loop's own bookkeeping (span recording
            // included) and the children tile the rest.
            txn += 1;
            let root = buf.open("txn", now, 0, txn);
            buf.push("workloads.next", s.next_start, s.begin, root, txn);
            buf.push("core.controller", s.begin, s.controller_end, root, txn);
            buf.push("core.run", s.controller_end, s.end, root, txn);
            buf.close(root, s.end);
        }
        now = s.end;
    }
    let last = worker.counts();
    out.window = last.since(&at_warm_end.unwrap_or(last));
    out.spans = buf.map(SpanBuf::into_spans).unwrap_or_default();
    out
}

fn run_batch(args: &RepArgs, mode: PlanMode, process_start: Instant) -> Rep {
    let traced = args.kind == RepKind::Traced;
    let t0 = Instant::now();
    let b = adapter::run_batch(
        args.workload.shape,
        args.seed,
        mode,
        args.warmup,
        args.window,
        traced,
    );
    let t1 = Instant::now();
    let mut rep = Rep {
        setup_s: None,
        slice_s: b.slice_secs,
        slice_commits: b.slice_commits,
        failed: b.failed,
        run_commits: b.run_commits,
        bucketed: Some((b.p50_ns, b.p99_ns, b.latency_samples)),
        net: b.net,
        client: ClientCounts {
            commits: b.run_commits,
            full_aborts: b.full_aborts,
            partial_aborts: b.partial_aborts,
            locked_aborts: b.locked_aborts,
            ..ClientCounts::default()
        },
        servers: b.servers,
        waves: b.waves,
        reconfigs: b.reconfigs,
        cpu_us: procfs::cpu_time_us(),
        peak_rss_mb: procfs::peak_rss_mb(),
        ..Rep::default()
    };
    if b.failed > 0 {
        rep.violations
            .push(format!("{} transactions returned Err", b.failed));
    }
    if b.district_advance != b.run_commits {
        rep.violations.push(format!(
            "neworder: D_NEXT_O_ID advanced by {} over {} committed NewOrders",
            b.district_advance, b.run_commits
        ));
    }
    if let Some(Err(e)) = b.history {
        rep.violations.push(e);
    }
    if traced {
        let mut buf = SpanBuf::new(0, process_start);
        buf.push("workloads.run_scenario", t0, t1, 0, 0);
        finish_trace(&mut rep, args, &buf.into_spans());
    }
    rep
}

/// Aggregate the spans into the report and write the Chrome trace.
fn finish_trace(rep: &mut Rep, args: &RepArgs, spans: &[Span]) {
    rep.spans = trace::totals_by_name(spans)
        .into_iter()
        .map(|(name, t)| (name.to_string(), t))
        .collect();
    let mut counts: Vec<(String, Json)> = Vec::new();
    for (prefix, fields) in [
        ("client", rep.client.fields()),
        ("net", rep.net.fields()),
        ("waves", rep.waves.fields()),
    ] {
        for (k, v) in fields {
            counts.push((format!("{prefix}.{k}"), Json::num(v as f64)));
        }
    }
    counts.push(("seed".into(), Json::num(args.seed as f64)));
    let path = args.out.join(format!("trace-{}.json", args.workload.name));
    let text = trace::chrome_trace(spans, &Json::Obj(counts));
    if let Err(e) = std::fs::write(&path, text) {
        rep.violations
            .push(format!("cannot write {}: {e}", path.display()));
    }
}

// ---------------------------------------------------------------------------
// The child → parent report
// ---------------------------------------------------------------------------

fn counts_arr(values: &[u64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::num(v as f64)).collect())
}

fn counts_json(fields: Vec<(&'static str, u64)>) -> Json {
    Json::obj(fields.into_iter().map(|(k, v)| (k, Json::num(v as f64))))
}

impl Rep {
    /// Commits inside the measured window.
    pub fn commits(&self) -> u64 {
        self.slice_commits.iter().sum()
    }

    /// Length of the measured window in seconds.
    pub fn window_s(&self) -> f64 {
        self.slice_s * self.slice_commits.len() as f64
    }

    /// Whole-window throughput.
    pub fn commits_per_s(&self) -> f64 {
        ratio(self.commits() as f64, self.window_s())
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("setup_s", self.setup_s.map_or(Json::Null, Json::num)),
            ("seed_s", Json::num(self.seed_s)),
            ("seed_msgs", Json::num(self.seed_msgs as f64)),
            ("failed", Json::num(self.failed as f64)),
            ("run_commits", Json::num(self.run_commits as f64)),
            ("slice_s", Json::num(self.slice_s)),
            ("slice_commits", counts_arr(&self.slice_commits)),
            (
                "slice_latency_ns",
                Json::Arr(
                    self.slice_latency_ns
                        .iter()
                        .map(|s| counts_arr(s))
                        .collect(),
                ),
            ),
            (
                "bucketed",
                self.bucketed.map_or(Json::Null, |(p50, p99, n)| {
                    Json::Arr(vec![
                        Json::num(p50 as f64),
                        Json::num(p99 as f64),
                        Json::num(n as f64),
                    ])
                }),
            ),
            ("net", counts_json(self.net.fields())),
            ("client", counts_json(self.client.fields())),
            ("servers", counts_json(self.servers.fields())),
            ("waves", counts_json(self.waves.fields())),
            ("reconfigs", Json::num(self.reconfigs as f64)),
            ("cpu_us", Json::num(self.cpu_us as f64)),
            ("peak_rss_mb", Json::num(self.peak_rss_mb)),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|(name, t)| {
                            Json::Arr(vec![
                                Json::str(name.clone()),
                                Json::num(t.count as f64),
                                Json::num(t.total_ns as f64),
                                Json::num(t.self_ns as f64),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "violations",
                Json::Arr(
                    self.violations
                        .iter()
                        .map(|v| Json::str(v.clone()))
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(j: &Json) -> Result<Rep, String> {
        let arr = |key: &str| {
            j.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("missing array `{key}`"))
        };
        let u64s = |items: &[Json]| -> Result<Vec<u64>, String> {
            items
                .iter()
                .map(|v| v.as_u64().ok_or_else(|| "non-count in array".to_string()))
                .collect()
        };
        let counts = |key: &str| j.get(key).cloned().unwrap_or(Json::Null);
        let (net, client, servers, waves) = (
            counts("net"),
            counts("client"),
            counts("servers"),
            counts("waves"),
        );
        let mut missing = None;
        let mut field = |obj: &Json, name: &'static str| {
            obj.get(name).and_then(Json::as_u64).unwrap_or_else(|| {
                missing.get_or_insert(name);
                0
            })
        };
        let rep = Rep {
            setup_s: j.get("setup_s").and_then(Json::as_f64),
            seed_s: j.req_f64("seed_s")?,
            seed_msgs: j.req_u64("seed_msgs")?,
            failed: j.req_u64("failed")?,
            run_commits: j.req_u64("run_commits")?,
            slice_s: j.req_f64("slice_s")?,
            slice_commits: u64s(arr("slice_commits")?)?,
            slice_latency_ns: arr("slice_latency_ns")?
                .iter()
                .map(|s| u64s(s.as_arr().ok_or("bad latency slice")?))
                .collect::<Result<_, String>>()?,
            bucketed: match j.get("bucketed").and_then(Json::as_arr) {
                Some(b) => {
                    let b = u64s(b)?;
                    (b.len() == 3).then(|| (b[0], b[1], b[2]))
                }
                None => None,
            },
            net: NetCounts::from_fields(|n| field(&net, n)),
            client: ClientCounts::from_fields(|n| field(&client, n)),
            servers: ServerCounts::from_fields(|n| field(&servers, n)),
            waves: WaveCounts::from_fields(|n| field(&waves, n)),
            reconfigs: j.req_u64("reconfigs")?,
            cpu_us: j.req_u64("cpu_us")?,
            peak_rss_mb: j.req_f64("peak_rss_mb")?,
            spans: arr("spans")?
                .iter()
                .map(|row| {
                    let row = row
                        .as_arr()
                        .filter(|r| r.len() == 4)
                        .ok_or("bad span row")?;
                    let n = u64s(&row[1..])?;
                    Ok((
                        row[0].as_str().ok_or("bad span name")?.to_string(),
                        NameTotals {
                            count: n[0],
                            total_ns: n[1],
                            self_ns: n[2],
                        },
                    ))
                })
                .collect::<Result<_, String>>()?,
            violations: arr("violations")?
                .iter()
                .map(|v| v.as_str().map(str::to_string).ok_or("bad violation"))
                .collect::<Result<_, _>>()?,
        };
        match missing {
            Some(name) => Err(format!("missing counter `{name}`")),
            None => Ok(rep),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_its_json() {
        let rep = Rep {
            setup_s: Some(0.012_345_678),
            seed_s: 0.001,
            seed_msgs: 1234,
            failed: 0,
            run_commits: 5,
            slice_s: 1.0,
            slice_commits: vec![2, 1],
            slice_latency_ns: vec![vec![350_123, 351_000], vec![9_999_999]],
            bucketed: Some((1, 2, 3)),
            net: NetCounts {
                sent: 66,
                bytes_sent: 7_000,
            },
            client: ClientCounts {
                commits: 3,
                partial_aborts: 1,
                ..ClientCounts::default()
            },
            servers: ServerCounts {
                wal_sync_batches: 9,
                ..ServerCounts::default()
            },
            waves: WaveCounts::default(),
            reconfigs: 2,
            cpu_us: 1_230_000,
            peak_rss_mb: 48.2,
            spans: vec![(
                "core.run".into(),
                NameTotals {
                    count: 3,
                    total_ns: 900,
                    self_ns: 800,
                },
            )],
            violations: vec!["bank: Branch balances sum to 5, not 0".into()],
        };
        let text = rep.to_json().render();
        assert_eq!(Rep::from_json(&Json::parse(&text).unwrap()).unwrap(), rep);

        let batch = Rep {
            setup_s: None,
            bucketed: None,
            ..Rep::default()
        };
        let text = batch.to_json().render();
        assert_eq!(Rep::from_json(&Json::parse(&text).unwrap()).unwrap(), batch);
    }

    #[test]
    fn a_truncated_report_is_rejected_by_field_name() {
        let mut j = Rep::default().to_json();
        if let Json::Obj(pairs) = &mut j {
            pairs.retain(|(k, _)| k != "client");
        }
        assert!(Rep::from_json(&j).unwrap_err().contains("commits"));
    }

    fn args(name: &str, kind: RepKind, window_s: u64) -> RepArgs {
        RepArgs {
            workload: crate::spec::workload(name).unwrap(),
            seed: 5,
            kind,
            flat: false,
            warmup: Duration::ZERO,
            window: Duration::from_secs(window_s),
            out: Path::new(env!("CARGO_MANIFEST_DIR"))
                .join(format!("out/test-rep-{}", std::process::id())),
        }
    }

    #[test]
    fn a_setup_rep_measures_setup_and_nothing_else() {
        let rep = run(&args("neworder_lan", RepKind::Setup, 0), Instant::now());
        assert!(rep.setup_s.unwrap() > 0.0 && rep.seed_s > 0.0 && rep.seed_msgs > 0);
        assert_eq!((rep.commits(), rep.window_s()), (0, 0.0));
        assert!(rep.violations.is_empty());
    }

    #[test]
    fn a_traced_wal_rep_commits_passes_its_gate_and_leaves_only_a_trace() {
        let a = args("bank_wal", RepKind::Traced, 1);
        std::fs::create_dir_all(&a.out).unwrap();
        let rep = run(&a, Instant::now());
        assert_eq!(rep.violations, Vec::<String>::new());
        assert!(rep.commits() > 0 && rep.window_s() == 1.0);
        assert_eq!(rep.slice_latency_ns.len(), 1);
        assert!(rep.net.sent > 0 && rep.servers.wal_sync_batches > 0);
        let names: Vec<&str> = rep.spans.iter().map(|(n, _)| n.as_str()).collect();
        for want in [
            "core.run",
            "core.controller",
            "workloads.next",
            "txn",
            "dtm.cluster_start",
        ] {
            assert!(names.contains(&want), "{want} missing from {names:?}");
        }
        let left: Vec<_> = std::fs::read_dir(&a.out)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(
            left,
            ["trace-bank_wal.json"],
            "the WAL directory is removed"
        );
        let trace = std::fs::read_to_string(a.out.join("trace-bank_wal.json")).unwrap();
        assert!(Json::parse(&trace).unwrap().as_arr().unwrap().len() > 4);
        std::fs::remove_dir_all(&a.out).unwrap();
    }
}
