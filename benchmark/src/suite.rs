//! Orchestration: spawn reps as child processes, fold their reports into
//! the named metrics, print them, and gate on correctness.

use crate::adapter::{self, SoloOutcome};
use crate::drills;
use crate::json::{ratio, Json};
use crate::procfs::Pinned;
use crate::rep::{Rep, RepArgs, RepKind};
use crate::spec::{
    Better, MetricSpec, Shape, WorkloadSpec, CLIENT_THREADS, END_TO_END, PER_LAYER, WARMUP_SECS,
    WORKLOADS,
};
use crate::stats::{self, latency_percentiles, median};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Transactions of a solo run: enough that one stray message would show
/// in the fourth digit, few enough to finish in well under a second.
const SOLO_TXNS: u64 = 500;

pub struct Ctx {
    pub seed: u64,
    /// `benchmark/out`: WAL files and traces.
    pub out: PathBuf,
    /// The CPU this process and every rep it spawns is confined to.
    pub pinned: Pinned,
}

/// Named values in a fixed order.
pub type Values = Vec<(&'static str, f64)>;

fn value(values: &Values, name: &str) -> f64 {
    values
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric `{name}` was not measured"))
        .1
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

/// Run one rep in a child process of this binary and read its report.
fn spawn(args: &RepArgs) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;
    let child = Command::new(exe)
        .arg("rep")
        .args(["--workload", args.workload.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--kind", args.kind.label()])
        .args(["--flat", if args.flat { "1" } else { "0" }])
        .args(["--warmup", &args.warmup.as_secs_f64().to_string()])
        .args(["--seconds", &args.window.as_secs_f64().to_string()])
        .arg("--out")
        .arg(&args.out)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start rep: {e}"))?;
    let pid = child.id();
    let output = child
        .wait_with_output()
        .map_err(|e| format!("rep did not finish: {e}"))?;
    // The rep removes its own WAL directory; this covers one that died.
    let _ = std::fs::remove_dir_all(args.out.join(format!("wal-{pid}")));
    if !output.status.success() {
        return Err(format!(
            "{} {} rep (seed {}) exited with {}",
            args.workload.name,
            args.kind.label(),
            args.seed,
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("rep printed nothing")?;
    Rep::from_json(&Json::parse(line)?)
}

fn rep_args(
    spec: &'static WorkloadSpec,
    ctx: &Ctx,
    kind: RepKind,
    flat: bool,
    warmup: f64,
    window: f64,
) -> RepArgs {
    RepArgs {
        workload: spec,
        seed: ctx.seed,
        kind,
        flat,
        warmup: secs(warmup),
        window: secs(window),
        out: ctx.out.clone(),
    }
}

/// How one workload's end-to-end metrics are sized.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    pub window: f64,
    pub reps: usize,
    /// Wall-time budget for extra set-up-only reps, so `setup_s` is a
    /// quartile of many: a Bank set-up takes a quarter of a millisecond, and
    /// one such reading is mostly scheduler noise.
    pub setup_budget: Duration,
    /// Fewest latency samples percentiles are reported from, and the size
    /// of a stretch: [`stats::MIN_LATENCY_SAMPLES`], except in the `--quick`
    /// smoke run.
    pub min_latency_samples: usize,
}

/// Fewest latency samples the `--quick` smoke run reports percentiles from:
/// its 2 s of `neworder_lan` cannot reach [`stats::MIN_LATENCY_SAMPLES`].
const QUICK_LATENCY_SAMPLES: usize = 100;

/// How many consecutive slices of `rep` make one stretch. A stretch has to
/// hold `need` commits at the rep's average rate, so that its own 99th
/// percentile has ten samples beyond it; the window is cut into as many
/// equal stretches as that allows.
fn stretch_slices(rep: &Rep, need: usize) -> usize {
    let slices = rep.slice_commits.len().max(1);
    let fewest = match rep.commits() as usize {
        0 => slices,
        commits => (need * slices).div_ceil(commits).clamp(1, slices),
    };
    slices / (slices / fewest)
}

/// Set-up-only reps run per workload: at least, and at most.
const SETUP_REPS: (usize, usize) = (4, 200);

/// One workload's end-to-end result.
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    /// One value per [`END_TO_END`] metric, in that order.
    pub values: Values,
    /// Whole-window commits ÷ window, per rep.
    pub rep_cps: Vec<f64>,
    /// `(p50, p99)` of all samples pooled, beside the best stretch's.
    pub pooled_ms: (f64, f64),
    /// `VmHWM` at the end of the window, median of reps (reported per layer,
    /// as `proc.peak_rss_mb`).
    pub peak_rss_mb: f64,
    /// Median of the set-ups, beside their lower quartile.
    pub setup_median_s: f64,
    pub latency_samples: u64,
    /// 8 %-bucket latencies (`neworder_batch`) rather than raw samples.
    pub bucketed: bool,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
}

impl EndToEnd {
    pub fn commits_per_s(&self) -> f64 {
        value(&self.values, "commits_per_s")
    }
}

/// Timed reps (tracing off) plus set-up reps of one workload.
pub fn measure(spec: &'static WorkloadSpec, ctx: &Ctx, sizing: Sizing) -> Result<EndToEnd, String> {
    let mut setup_s = Vec::new();
    let mut seed_msgs = Vec::new();
    let setups_began = Instant::now();
    while setup_s.len() < SETUP_REPS.0
        || (setup_s.len() < SETUP_REPS.1 && setups_began.elapsed() < sizing.setup_budget)
    {
        let r = spawn(&rep_args(spec, ctx, RepKind::Setup, false, 0.0, 0.0))?;
        setup_s.extend(r.setup_s);
        seed_msgs.push(r.seed_msgs as f64);
    }
    let mut reps: Vec<Rep> = Vec::new();
    for _ in 0..sizing.reps {
        let r = spawn(&rep_args(
            spec,
            ctx,
            RepKind::Timed,
            false,
            WARMUP_SECS,
            sizing.window,
        ))?;
        setup_s.extend(r.setup_s);
        reps.push(r);
    }
    if setup_s.is_empty() {
        return Err(format!("{}: no rep measured setup_s", spec.name));
    }

    // Throughput and latency are taken per stretch of the window (whole
    // slices, see `stretch_slices`) and the best stretch is reported: the
    // host slows this box down for seconds at a time (a busy sibling core, a
    // slow spell of the disk), and that only ever adds time. The quietest
    // stretch is the program's own speed as long as one stretch of the
    // window was left alone, where a mean, a median over slices or a pooled
    // tail takes in whatever share of the window was disturbed.
    let cps: Vec<f64> = reps.iter().map(Rep::commits_per_s).collect();
    let bucketed = reps.iter().all(|r| r.bucketed.is_some());
    let (mut stretch_cps, mut p50s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
    for r in &reps {
        let n = stretch_slices(r, sizing.min_latency_samples);
        for commits in r.slice_commits.chunks_exact(n) {
            let commits: u64 = commits.iter().sum();
            stretch_cps.push(ratio(commits as f64, r.slice_s * n as f64));
        }
        for samples in r.slice_latency_ns.chunks_exact(n) {
            let mut samples = samples.concat();
            if !samples.is_empty() {
                samples.sort_unstable();
                p50s.push(stats::percentile_sorted(&samples, 0.5) as f64);
                p99s.push(stats::percentile_sorted(&samples, 0.99) as f64);
            }
        }
    }
    let (p50_ns, p99_ns, pooled, samples) = if bucketed {
        // `run_scenario` keeps one histogram for the whole run, so a rep is
        // the shortest stretch there is: take the best rep.
        let b: Vec<_> = reps.iter().filter_map(|r| r.bucketed).collect();
        let samples: u64 = b.iter().map(|x| x.2).sum();
        if (samples as usize) < sizing.min_latency_samples {
            return Err(format!("{}: only {samples} latency samples", spec.name));
        }
        let p50 = stats::min(&b.iter().map(|x| x.0 as f64).collect::<Vec<_>>());
        let p99 = stats::min(&b.iter().map(|x| x.1 as f64).collect::<Vec<_>>());
        (p50, p99, (p50, p99), samples)
    } else {
        let mut pool: Vec<u64> = reps
            .iter()
            .flat_map(|r| r.slice_latency_ns.iter().flatten().copied())
            .collect();
        let pooled = latency_percentiles(&mut pool, sizing.min_latency_samples)
            .map_err(|e| format!("{}: {e}", spec.name))?;
        if p50s.is_empty() {
            return Err(format!("{}: no stretch has a latency sample", spec.name));
        }
        (
            stats::min(&p50s),
            stats::min(&p99s),
            (pooled.0 as f64, pooled.1 as f64),
            pool.len() as u64,
        )
    };
    // The closed loop counts messages and commits over the window. The
    // batch workload only has whole-run totals, so both sides of its ratio
    // cover the run, with the (exactly repeating) seeding messages taken off.
    let (msgs, per): (f64, f64) = reps
        .iter()
        .map(|r| {
            if bucketed {
                (r.net.sent as f64 - median(&seed_msgs), r.run_commits as f64)
            } else {
                (r.net.sent as f64, r.commits() as f64)
            }
        })
        .fold((0.0, 0.0), |a, b| (a.0 + b.0, a.1 + b.1));
    let commits: u64 = reps.iter().map(Rep::commits).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    let rss: Vec<f64> = reps.iter().map(|r| r.peak_rss_mb).collect();

    let values: Values = vec![
        ("commits_per_s", stats::max(&stretch_cps)),
        ("commit_p50_ms", p50_ns / 1e6),
        ("commit_p99_ms", p99_ns / 1e6),
        ("msgs_per_commit", ratio(msgs, per)),
        ("setup_s", stats::lower_quartile(&setup_s)),
    ];
    debug_assert!(values
        .iter()
        .map(|v| v.0)
        .eq(END_TO_END.iter().map(|m| m.name)));
    Ok(EndToEnd {
        values,
        rep_cps: cps,
        pooled_ms: (pooled.0 / 1e6, pooled.1 / 1e6),
        peak_rss_mb: median(&rss),
        setup_median_s: median(&setup_s),
        latency_samples: samples,
        bucketed,
        attempted: commits + failed,
        failed,
        violations: reps.into_iter().flat_map(|r| r.violations).collect(),
    })
}

/// One workload's traced phase: its own per-layer metrics.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
}

fn span_mean_ns(rep: &Rep, name: &str, self_time: bool) -> f64 {
    rep.spans
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, t)| {
            ratio(
                if self_time { t.self_ns } else { t.total_ns } as f64,
                t.count as f64,
            )
        })
}

/// The traced rep, the flat rep and the solo run of one workload.
/// `untraced` is the workload's tracing-off `(commits_per_s, peak_rss_mb)`
/// when the caller has already measured them; otherwise a half-length timed
/// rep supplies them.
pub fn trace_phase(
    spec: &'static WorkloadSpec,
    ctx: &Ctx,
    window: f64,
    untraced: Option<(f64, f64)>,
) -> Result<Layers, String> {
    let traced = spawn(&rep_args(
        spec,
        ctx,
        RepKind::Traced,
        false,
        WARMUP_SECS,
        window,
    ))?;
    let half = |flat: bool| -> Result<Rep, String> {
        let window = (window / 2.0).floor().max(1.0);
        spawn(&rep_args(
            spec,
            ctx,
            RepKind::Timed,
            flat,
            WARMUP_SECS / 2.0,
            window,
        ))
    };
    let mut violations = traced.violations.clone();
    let (base_cps, peak_rss_mb) = match untraced {
        Some(measured) => measured,
        None => {
            let r = half(false)?;
            violations.extend(r.violations.iter().cloned());
            (r.commits_per_s(), r.peak_rss_mb)
        }
    };
    let flat = half(true)?;
    violations.extend(flat.violations.iter().cloned());
    // `run_scenario` keeps the batch workload's set-up to itself; a
    // set-up rep shows what it costs.
    let seed_s = match traced.setup_s {
        Some(_) => traced.seed_s,
        None => spawn(&rep_args(spec, ctx, RepKind::Setup, false, 0.0, 0.0))?.seed_s,
    };
    let solo = adapter::solo(spec.shape, ctx.seed, SOLO_TXNS, &ctx.out.join("wal-solo"));

    let (c, s, w) = (&traced.client, &traced.servers, &traced.waves);
    // Client and net counters are window deltas on the closed loop and run
    // totals on the batch workload; `c.commits` is the matching commit count.
    let per_commit = |n: u64| ratio(n as f64, c.commits as f64);
    let aborts = c.full_aborts + c.partial_aborts + c.locked_aborts;
    let file_wal = matches!(spec.shape, Shape::Bank { file_wal: true, .. });
    let traced_cps = traced.commits_per_s();
    let values: Values = vec![
        (
            "dtm.solo_msgs_per_commit",
            ratio(solo.msgs as f64, solo.commits as f64),
        ),
        (
            "dtm.solo_rounds_per_commit",
            ratio(solo.rounds as f64, solo.commits as f64),
        ),
        (
            "dtm.rounds_per_commit",
            per_commit(c.remote_reads + c.prepares + c.rpc_retries),
        ),
        ("dtm.bytes_per_commit", per_commit(traced.net.bytes_sent)),
        (
            "dtm.validate_entries_per_commit",
            per_commit(c.validate_entries_sent),
        ),
        ("dtm.rpc_retries", c.rpc_retries as f64),
        (
            "dtm.prepare_reject_share",
            ratio(s.prepare_rejects as f64, s.prepares as f64),
        ),
        // `MemLog::sync` is a no-op that `ServerStats` still counts; only a
        // file-backed log syncs anything.
        (
            "dtm.wal_records_per_sync",
            if file_wal {
                ratio(s.wal_records_synced as f64, s.wal_sync_batches as f64)
            } else {
                0.0
            },
        ),
        (
            "dtm.wal_syncs_per_commit",
            if file_wal {
                ratio(s.wal_sync_batches as f64, traced.run_commits as f64)
            } else {
                0.0
            },
        ),
        ("core.attempts_per_commit", per_commit(c.commits + aborts)),
        (
            "core.partial_share",
            ratio(c.partial_aborts as f64, aborts as f64),
        ),
        ("core.reconfigs", traced.reconfigs as f64),
        (
            "core.controller_ns",
            span_mean_ns(&traced, "core.controller", false),
        ),
        ("core.acn_over_flat", ratio(base_cps, flat.commits_per_s())),
        (
            "workloads.wave_width",
            ratio(w.txns as f64, w.layers as f64),
        ),
        (
            "workloads.mispredict_share",
            ratio(w.mispredicts as f64, w.predicted_txns as f64),
        ),
        (
            "workloads.cross_edges_per_txn",
            ratio(w.cross_edges as f64, w.txns as f64),
        ),
        ("workloads.seed_s", seed_s),
        ("proc.cpu_us_per_commit", per_commit(traced.cpu_us)),
        ("proc.peak_rss_mb", peak_rss_mb),
        (
            "span.core_run_us",
            span_mean_ns(&traced, "core.run", false) / 1e3,
        ),
        (
            "span.workloads_next_ns",
            span_mean_ns(&traced, "workloads.next", false),
        ),
        ("span.loop_self_ns", span_mean_ns(&traced, "txn", true)),
        ("trace.commits_per_s", traced_cps),
        ("trace.overhead_share", 1.0 - ratio(traced_cps, base_cps)),
    ];
    Ok(Layers {
        values,
        attempted: traced.commits() + traced.failed,
        failed: traced.failed,
        violations,
    })
}

/// The layer ledger on the solo Bank transfer: what the drills' unit costs,
/// multiplied by the solo run's counts, explain of `core.run_us`.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    pub solo: SoloOutcome,
    /// `(term, value per commit)`: microseconds unless the name says
    /// otherwise.
    pub terms: Vec<(&'static str, f64)>,
    pub coverage: f64,
}

/// The drills, `core.exec_self_us` and the ledger.
pub fn drill_phase(ctx: &Ctx, budget: Duration) -> (Values, Ledger) {
    let mut values = drills::run_all(
        budget,
        &ctx.out.join(format!("wal-drill-{}", std::process::id())),
    );
    let v = |name: &str| value(&values, name);
    let exec_self = v("core.run_us") - v("dtm.txn_us");

    let solo = adapter::solo(
        adapter::SOLO_TRANSFER,
        ctx.seed,
        SOLO_TXNS,
        &ctx.out.join("wal-solo"),
    );
    // A solo transfer waits for its read rounds, one prepare round and —
    // not counted by `ClientStats` — one commit round.
    let read_rounds = ratio(solo.rounds as f64, solo.commits as f64) - 1.0;
    let rounds = read_rounds + 2.0;
    let (read_q, write_q) = adapter::bank_quorum_sizes();
    let members = read_rounds * read_q as f64 + 2.0 * write_q as f64;
    // Everything runs on one core, so the members of a quorum are woken and
    // handled one after another: a round is one hand-off per member plus the
    // one back to the client, and one handle per member.
    let handoffs = (members + rounds) * v("simnet.handoff_us");
    let handles = (read_rounds * read_q as f64 * v("dtm.handle_read_batch_ns")
        + write_q as f64 * (v("dtm.handle_prepare_ns") + v("dtm.handle_commit_ns")))
        / 1e3;
    // The drilled server logs to a MemLog, so the appends on a commit's path
    // (grant, apply; per member) are already inside `handles`: shown, not
    // added.
    let wal_inside_handles = 2.0 * write_q as f64 * v("dtm.wal_append_mem_ns") / 1e3;
    let coverage = ratio(handoffs + handles + exec_self, v("core.run_us"));
    // What the same unit costs explain if a quorum's members ran in
    // parallel (two hand-offs and one handle per round): the gap to
    // `coverage` is what sharing one core costs a round.
    let parallel = ratio(
        rounds * 2.0 * v("simnet.handoff_us")
            + (read_rounds * v("dtm.handle_read_batch_ns")
                + v("dtm.handle_prepare_ns")
                + v("dtm.handle_commit_ns"))
                / 1e3
            + exec_self,
        v("core.run_us"),
    );
    let ledger = Ledger {
        solo,
        terms: vec![
            ("rounds", rounds),
            ("members", members),
            ("handoffs_us", handoffs),
            ("handles_us", handles),
            ("wal_us_inside_handles", wal_inside_handles),
            ("exec_self_us", exec_self),
            ("run_us", v("core.run_us")),
            ("coverage_if_parallel", parallel),
        ],
        coverage,
    };
    values.push(("core.exec_self_us", exec_self));
    values.push(("ledger.coverage", coverage));
    (values, ledger)
}

// ---------------------------------------------------------------------------
// Printing
// ---------------------------------------------------------------------------

fn spec_of(name: &str) -> &'static MetricSpec {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("`{name}` is not a declared metric"))
}

fn print_values(scope: &str, values: &Values) {
    for (name, v) in values {
        println!("{scope} {name} {v} {}", spec_of(name).unit);
    }
}

fn print_end_to_end(spec: &WorkloadSpec, e: &EndToEnd) {
    print_values(spec.name, &e.values);
    println!(
        "{} commits_per_s.rep_min {} 1/s",
        spec.name,
        stats::min(&e.rep_cps)
    );
    println!(
        "{} commits_per_s.rep_median {} 1/s",
        spec.name,
        median(&e.rep_cps)
    );
    println!(
        "{} commits_per_s.rep_max {} 1/s",
        spec.name,
        stats::max(&e.rep_cps)
    );
    println!("{} commit_p50_ms.pooled {} ms", spec.name, e.pooled_ms.0);
    println!("{} commit_p99_ms.pooled {} ms", spec.name, e.pooled_ms.1);
    println!("{} latency_samples {} count", spec.name, e.latency_samples);
    println!("{} setup_s.median {} s", spec.name, e.setup_median_s);
    if e.bucketed {
        println!(
            "# {}: latencies come from ScenarioResult.latency: 8 %-wide buckets over the whole run, best rep",
            spec.name
        );
    }
    println!(
        "{} failed_share {} ratio",
        spec.name,
        ratio(e.failed as f64, e.attempted as f64)
    );
}

fn print_ledger(l: &Ledger) {
    println!(
        "# ledger: solo Bank transfer, {} commits, {} messages, {} read+prepare rounds",
        l.solo.commits, l.solo.msgs, l.solo.rounds
    );
    for (term, v) in &l.terms {
        let unit = match *term {
            "rounds" => "rounds",
            "members" => "msgs",
            "coverage_if_parallel" => "ratio",
            _ => "us",
        };
        println!("ledger term.{term} {v} {unit}");
    }
    if !(0.7..=1.3).contains(&l.coverage) {
        println!(
            "# ledger.coverage {:.3} is outside 0.7–1.3: the unit costs do not add up to a commit",
            l.coverage
        );
    }
}

fn print_machine_notes(pinned: Pinned) {
    println!(
        "# {CLIENT_THREADS} client threads, closed loop; every thread confined to CPU {} ({} allowed): rates are per core",
        pinned.cpu, pinned.allowed
    );
    println!(
        "# bank_wal flush policy: group commit, {} records or {:?}",
        adapter::GROUP_COMMIT_RECORDS,
        adapter::GROUP_COMMIT_DELAY
    );
    println!(
        "# neworder_*: {}–{} us injected one-way delay per message; latencies are the sandbox's, not a network's",
        adapter::LAN_DELAY_US.0,
        adapter::LAN_DELAY_US.1
    );
}

fn metrics_json(values: &Values) -> Json {
    Json::obj(values.iter().map(|(name, v)| {
        (
            *name,
            Json::obj([
                ("value", Json::num(*v)),
                ("unit", Json::str(spec_of(name).unit)),
            ]),
        )
    }))
}

fn report_violations(seed: u64, violations: &[String]) {
    for v in violations {
        eprintln!("CORRECTNESS (seed {seed}): {v}");
    }
}

// ---------------------------------------------------------------------------
// The three entry points
// ---------------------------------------------------------------------------

/// Per-drill budget of the full run: long enough for a stable median.
const DRILL_BUDGET: Duration = Duration::from_secs(1);
/// Per-drill budget inside one `--trace 1` run, which has to fit the
/// traced rep, the flat pair and every drill into a fraction of a minute.
const DRILL_BUDGET_SINGLE: Duration = Duration::from_millis(300);

/// `run --workload W --seconds S --trace T`: one workload, one result line
/// in the builder contract's shape. Returns whether the run was correct.
pub fn run_single(
    spec: &'static WorkloadSpec,
    ctx: &Ctx,
    seconds: f64,
    trace: bool,
) -> Result<bool, String> {
    print_machine_notes(ctx.pinned);
    let (values, attempted, failed, violations) = if trace {
        // `seconds` of measurement in all: half traced, a quarter each for
        // the untraced and the flat rep the traced one is compared with.
        let layers = trace_phase(spec, ctx, (seconds / 2.0).floor().max(1.0), None)?;
        let (mut values, ledger) = drill_phase(ctx, DRILL_BUDGET_SINGLE);
        print_ledger(&ledger);
        values.extend(layers.values);
        // Print in the declared order, and prove nothing is missing.
        let ordered: Values = PER_LAYER
            .iter()
            .map(|m| (m.name, value(&values, m.name)))
            .collect();
        (ordered, layers.attempted, layers.failed, layers.violations)
    } else {
        let sizing = Sizing {
            window: seconds,
            reps: 1,
            setup_budget: Duration::from_millis(500),
            min_latency_samples: stats::MIN_LATENCY_SAMPLES,
        };
        let e = measure(spec, ctx, sizing)?;
        print_end_to_end(spec, &e);
        (e.values, e.attempted, e.failed, e.violations)
    };
    if trace {
        print_values(spec.name, &values);
    }
    report_violations(ctx.seed, &violations);
    let correct = violations.is_empty();
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::num(attempted.max(1) as f64)),
            ("failed", Json::num(failed as f64)),
            ("metrics", metrics_json(&values)),
        ])
        .render()
    );
    Ok(correct)
}

fn suite_sizing(quick: bool) -> (Sizing, f64) {
    if quick {
        (
            Sizing {
                window: 2.0,
                reps: 1,
                setup_budget: Duration::ZERO,
                min_latency_samples: QUICK_LATENCY_SAMPLES,
            },
            2.0,
        )
    } else {
        (
            Sizing {
                window: 8.0,
                reps: 3,
                setup_budget: Duration::from_millis(500),
                min_latency_samples: stats::MIN_LATENCY_SAMPLES,
            },
            6.0,
        )
    }
}

/// `run`: every workload, timed and traced, then the drills and the
/// ledger; every metric printed as `scope name value unit`, then one JSON
/// summary. Returns whether every correctness check passed.
pub fn run_suite(ctx: &Ctx, quick: bool) -> Result<bool, String> {
    print_machine_notes(ctx.pinned);
    let (sizing, traced_window) = suite_sizing(quick);
    let mut violations = Vec::new();
    let mut workloads = Vec::new();
    for spec in &WORKLOADS {
        println!("# {}: {}", spec.name, spec.why);
        let e = measure(spec, ctx, sizing)?;
        print_end_to_end(spec, &e);
        let layers = trace_phase(
            spec,
            ctx,
            traced_window,
            Some((e.commits_per_s(), e.peak_rss_mb)),
        )?;
        print_values(spec.name, &layers.values);
        println!(
            "# {}: tracing cost {:.1} % of commits_per_s ({:.1} traced vs {:.1} untraced); trace in {}",
            spec.name,
            100.0 * value(&layers.values, "trace.overhead_share"),
            value(&layers.values, "trace.commits_per_s"),
            e.commits_per_s(),
            ctx.out.join(format!("trace-{}.json", spec.name)).display()
        );
        violations.extend(
            e.violations
                .iter()
                .chain(&layers.violations)
                .map(|v| format!("{}: {v}", spec.name)),
        );
        workloads.push((
            spec.name,
            Json::obj([
                ("end_to_end", metrics_json(&e.values)),
                ("per_layer", metrics_json(&layers.values)),
            ]),
        ));
    }
    let mut summary = vec![
        ("benchmark", Json::str("qr-acn")),
        ("seed", Json::num(ctx.seed as f64)),
        ("quick", Json::Bool(quick)),
        ("client_threads", Json::num(CLIENT_THREADS as f64)),
        ("workloads", Json::obj(workloads)),
    ];
    if !quick {
        let (values, ledger) = drill_phase(ctx, DRILL_BUDGET);
        print_values("drill", &values);
        print_ledger(&ledger);
        summary.push(("drills", metrics_json(&values)));
        summary.push((
            "ledger",
            Json::obj(ledger.terms.iter().map(|(k, v)| (*k, Json::num(*v)))),
        ));
    }
    report_violations(ctx.seed, &violations);
    let correct = violations.is_empty();
    summary.push(("correct", Json::Bool(correct)));
    // This benchmark defines the baseline; it claims no gain.
    summary.push(("claim", Json::Null));
    println!("{}", Json::obj(summary).render());
    Ok(correct)
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(m: &MetricSpec, a: f64, b: f64) -> f64 {
    match m.better {
        Better::Higher => ratio(a - b, a),
        Better::Lower => ratio(b - a, a),
    }
}

/// `selfcheck`: the end-to-end half of the benchmark twice on one build.
/// Prints both values, their relative difference and the bound per
/// workload × metric; returns whether every pair agrees within its bound
/// (in either direction — on an A/A run neither side is the reference).
pub fn selfcheck(ctx: &Ctx, quick: bool) -> Result<bool, String> {
    print_machine_notes(ctx.pinned);
    let (sizing, _) = suite_sizing(quick);
    let mut agree = true;
    let mut violations = Vec::new();
    println!("workload metric first second rel_diff bound verdict");
    for spec in &WORKLOADS {
        let a = measure(spec, ctx, sizing)?;
        let b = measure(spec, ctx, sizing)?;
        for (m, ((_, va), (_, vb))) in END_TO_END.iter().zip(a.values.iter().zip(&b.values)) {
            let bound = m.bound.expect("end-to-end metrics are bounded");
            let diff = worsening(m, *va, *vb).max(worsening(m, *vb, *va));
            let ok = diff <= bound;
            agree &= ok;
            println!(
                "{} {} {va} {vb} {diff:.4} {bound} {}",
                spec.name,
                m.name,
                if ok { "ok" } else { "DISAGREE" }
            );
        }
        violations.extend(
            a.violations
                .iter()
                .chain(&b.violations)
                .map(|v| format!("{}: {v}", spec.name)),
        );
    }
    report_violations(ctx.seed, &violations);
    Ok(agree && violations.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Better::{Higher, Lower};

    #[test]
    fn worsening_respects_direction() {
        let up = MetricSpec {
            name: "x",
            unit: "1/s",
            better: Higher,
            bound: Some(0.1),
        };
        let down = MetricSpec {
            name: "y",
            unit: "ms",
            better: Lower,
            bound: Some(0.1),
        };
        assert!((worsening(&up, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!(worsening(&up, 100.0, 110.0) < 0.0);
        assert!((worsening(&down, 2.0, 2.5) - 0.25).abs() < 1e-12);
        assert_eq!(worsening(&down, 0.0, 1.0), 0.0, "no reference, no NaN");
    }

    #[test]
    fn a_stretch_is_the_fewest_slices_that_hold_the_needed_samples() {
        let rep = |per_slice: u64, slices: usize| Rep {
            slice_commits: vec![per_slice; slices],
            ..Rep::default()
        };
        assert_eq!(stretch_slices(&rep(25_000, 20), 1000), 1);
        assert_eq!(stretch_slices(&rep(232, 20), 1000), 5);
        assert_eq!(stretch_slices(&rep(250, 20), 1000), 4);
        assert_eq!(
            stretch_slices(&rep(100, 2), 1000),
            2,
            "never past the window"
        );
        assert_eq!(
            stretch_slices(&rep(232, 8), 1000),
            8,
            "one stretch, nothing left over"
        );
        assert_eq!(stretch_slices(&rep(150, 20), 1000), 10);
        assert_eq!(stretch_slices(&rep(0, 8), 1000), 8);
        assert_eq!(stretch_slices(&Rep::default(), 1000), 1);
    }

    /// The line the driver parses: exactly four keys, contract-shaped names,
    /// every value a finite number — also for a rep that committed nothing.
    #[test]
    fn emitted_metrics_round_trip_and_survive_zero_commits() {
        let empty = Rep::default();
        let c = &empty.client;
        let values: Values = vec![
            ("commits_per_s", empty.commits_per_s()),
            (
                "msgs_per_commit",
                ratio(empty.net.sent as f64, c.commits as f64),
            ),
            ("core.partial_share", ratio(c.partial_aborts as f64, 0.0)),
            ("trace.overhead_share", 1.0 - ratio(0.0, 0.0)),
        ];
        let line = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::num(1.0)),
            ("failed", Json::num(0.0)),
            ("metrics", metrics_json(&values)),
        ])
        .render();
        let parsed = Json::parse(&line).unwrap();
        let keys: Vec<_> = parsed
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        for (name, m) in parsed.get("metrics").unwrap().as_obj().unwrap() {
            assert!(
                name.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
                "{name}"
            );
            assert!(m.get("value").unwrap().as_f64().unwrap().is_finite());
            assert_eq!(m.get("unit").unwrap().as_str(), Some(spec_of(name).unit));
        }
        assert_eq!(Json::parse(&line).unwrap().render(), line);
    }
}
