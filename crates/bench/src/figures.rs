//! Figure-4 experiment specifications and the three-system runner.
//!
//! Every subplot of the paper's Figure 4 is a time series of throughput
//! (committed transactions per second) per measurement interval for
//! QR-DTM (flat), QR-CN (manual closed nesting) and QR-ACN. The paper's
//! test-bed is 10 servers + up to 20 clients on a 1 Gbps LAN with 10 s
//! intervals; this harness scales time down (LAN-like simulated latency,
//! sub-second intervals) while preserving the cost structure, so the
//! *shape* — who wins, roughly by how much, and when QR-ACN "kicks in" —
//! is the reproduction target, not absolute numbers.

use acn_dtm::ClusterConfig;
use acn_obs::{MetricsReport, ObsConfig};
use acn_simnet::LatencyModel;
use acn_workloads::bank::{Bank, BankConfig};
use acn_workloads::tpcc::{Tpcc, TpccConfig, TpccMix};
use acn_workloads::vacation::{Vacation, VacationConfig};
use acn_workloads::{run_scenario, ScenarioConfig, ScenarioResult, SystemKind, Workload};
use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// One experiment (= one subplot of Figure 4).
pub struct FigureSpec {
    pub id: &'static str,
    pub title: &'static str,
    /// What the paper reports for this subplot.
    pub paper_claim: &'static str,
    pub workload: Box<dyn Workload>,
    /// Contention phase per interval (empty = static workload).
    pub phases: Vec<usize>,
    pub intervals: usize,
    pub interval: Duration,
    pub threads: usize,
}

fn paper_cluster(threads: usize) -> ClusterConfig {
    let mut c = ClusterConfig::paper(threads);
    // Slightly heavier than the LAN default so re-executed remote work
    // dominates local bookkeeping, as on the paper's test-bed.
    c.latency = LatencyModel::Uniform {
        min: Duration::from_micros(80),
        max: Duration::from_micros(240),
    };
    c.window.window = Duration::from_millis(150);
    c
}

fn tpcc_contended() -> TpccConfig {
    TpccConfig {
        warehouses: 1,
        districts_per_warehouse: 4,
        customers_per_district: 400,
        items: 200,
        ol_min: 5,
        ol_max: 10,
    }
}

/// All six Figure-4 experiments.
pub fn all_figures() -> Vec<FigureSpec> {
    vec![
        FigureSpec {
            id: "fig4a",
            title: "TPC-C, 100% NewOrder",
            paper_claim: "QR-ACN +53% over QR-DTM, +38% over QR-CN after kick-in",
            workload: Box::new(Tpcc::new(tpcc_contended(), TpccMix::NEW_ORDER)),
            phases: vec![],
            intervals: 6,
            interval: Duration::from_millis(400),
            threads: 8,
        },
        FigureSpec {
            id: "fig4b",
            title: "TPC-C, 100% Payment",
            paper_claim: "QR-ACN +53% over QR-DTM, +45% over QR-CN after kick-in",
            workload: Box::new(Tpcc::new(tpcc_contended(), TpccMix::PAYMENT)),
            phases: vec![],
            intervals: 6,
            interval: Duration::from_millis(400),
            threads: 8,
        },
        FigureSpec {
            id: "fig4c",
            title: "TPC-C, 50% NewOrder + 50% Payment",
            paper_claim: "QR-ACN +28% over QR-DTM, +9% over QR-CN after kick-in",
            workload: Box::new(Tpcc::new(tpcc_contended(), TpccMix::MIXED)),
            phases: vec![],
            intervals: 6,
            interval: Duration::from_millis(400),
            threads: 8,
        },
        FigureSpec {
            id: "fig4d",
            title: "TPC-C, 100% Delivery (uniform low contention)",
            paper_claim: "no system wins; QR-ACN within 3% of QR-CN (overhead probe)",
            workload: Box::new(Tpcc::new(tpcc_contended(), TpccMix::DELIVERY)),
            phases: vec![],
            intervals: 6,
            interval: Duration::from_millis(400),
            threads: 8,
        },
        FigureSpec {
            id: "fig4e",
            title: "Vacation, hot table shifts at t2 and t4",
            paper_claim: "QR-ACN +120% over QR-DTM, +35% over QR-CN at t2; +8% over QR-DTM at t4",
            workload: Box::new(Vacation::new(VacationConfig {
                hot_pool: 3,
                cold_pool: 4096,
                customers: 8192,
                write_pct: 90,
                queries_per_txn: 8,
            })),
            phases: vec![0, 1, 1, 2, 2, 2],
            intervals: 6,
            interval: Duration::from_millis(400),
            threads: 16,
        },
        FigureSpec {
            id: "fig4f",
            title: "Bank, 90% writes, hot class shifts at t2 and t4",
            paper_claim: "QR-ACN gain up to 55% after optimizing sub-transactions",
            workload: Box::new(Bank::new(BankConfig {
                hot_pool: 6,
                cold_pool: 4096,
                write_pct: 90,
            })),
            phases: vec![0, 1, 1, 0, 0, 0],
            intervals: 6,
            interval: Duration::from_millis(400),
            threads: 8,
        },
    ]
}

/// Results of one figure: the three systems' series.
pub struct FigureResult {
    pub spec_id: &'static str,
    pub results: Vec<ScenarioResult>,
}

/// Run one figure's three systems sequentially.
pub fn run_figure(spec: &FigureSpec) -> FigureResult {
    let systems = [SystemKind::QrDtm, SystemKind::QrCn, SystemKind::QrAcn];
    let mut results = Vec::new();
    for system in systems {
        let cfg = ScenarioConfig {
            cluster: paper_cluster(spec.threads),
            client_threads: spec.threads,
            intervals: spec.intervals,
            interval: spec.interval,
            phase_per_interval: spec.phases.clone(),
            system,
            controller: acn_core::ControllerConfig {
                // One assessment per measurement interval, like the paper's
                // 10 s algorithm period against 10 s intervals. Samples are
                // lightly smoothed so one noisy window cannot flip the
                // composition.
                period: spec.interval,
                alpha: 0.7,
                sampling: acn_core::SamplingMode::Piggyback,
            },
            retry: acn_core::RetryPolicy::default(),
            exec: acn_core::ExecutorConfig::default(),
            seed: 42,
            chaos: None,
            history: None,
            obs: Some(ObsConfig::default()),
            batch: None,
        };
        eprintln!("  {system} …");
        results.push(run_scenario(spec.workload.as_ref(), &cfg));
    }
    FigureResult {
        spec_id: spec.id,
        results,
    }
}

/// Render the per-interval table plus the headline comparisons.
pub fn print_figure(spec: &FigureSpec, fig: &FigureResult) {
    println!("\n== {} — {} ==", spec.id, spec.title);
    println!("paper: {}", spec.paper_claim);
    if !spec.phases.is_empty() {
        println!("phase schedule: {:?}", spec.phases);
    }
    print!("{:>10}", "interval");
    for r in &fig.results {
        print!("{:>10}", r.system.to_string());
    }
    println!();
    for i in 0..spec.intervals {
        print!("{:>10}", format!("t{}", i + 1));
        for r in &fig.results {
            print!("{:>10.0}", r.throughput(i));
        }
        println!();
    }
    let (dtm, cn, acn) = (&fig.results[0], &fig.results[1], &fig.results[2]);
    // "After kick-in" = from the second interval on, once the first
    // reconfiguration has landed.
    let from = 1;
    let (d, c, a) = (
        dtm.mean_throughput_from(from),
        cn.mean_throughput_from(from),
        acn.mean_throughput_from(from),
    );
    println!(
        "measured (t2..): QR-ACN vs QR-DTM {:+.0}%, QR-ACN vs QR-CN {:+.0}%",
        (a / d - 1.0) * 100.0,
        (a / c - 1.0) * 100.0
    );
    // Per-interval peaks — the shift experiments mix phases that favour
    // different systems, so the best-interval gain is the headline the
    // paper quotes ("gain becomes up to 55%").
    let peak = |base: &ScenarioResult| {
        (0..spec.intervals)
            .map(|i| acn.throughput(i) / base.throughput(i).max(1e-9) - 1.0)
            .fold(f64::NEG_INFINITY, f64::max)
            * 100.0
    };
    println!(
        "peak interval gain: QR-ACN vs QR-DTM {:+.0}%, QR-ACN vs QR-CN {:+.0}%",
        peak(dtm),
        peak(cn)
    );
    let pct = |r: &ScenarioResult, q: f64| {
        r.latency
            .percentile(q)
            .map(|d| format!("{:.1}ms", d.as_secs_f64() * 1e3))
            .unwrap_or_else(|| "-".into())
    };
    println!(
        "commit latency p50/p99: DTM {}/{}  CN {}/{}  ACN {}/{}",
        pct(dtm, 0.5),
        pct(dtm, 0.99),
        pct(cn, 0.5),
        pct(cn, 0.99),
        pct(acn, 0.5),
        pct(acn, 0.99),
    );
    println!(
        "aborts: DTM {}f/{}p  CN {}f/{}p  ACN {}f/{}p  (ACN reconfigs: {})",
        dtm.total_full_aborts(),
        dtm.total_partial_aborts(),
        cn.total_full_aborts(),
        cn.total_partial_aborts(),
        acn.total_full_aborts(),
        acn.total_partial_aborts(),
        acn.refreshes
    );
    for r in &fig.results {
        if let Some(obs) = &r.obs {
            let top: Vec<String> = obs
                .aborts
                .top_classes(3)
                .into_iter()
                .map(|(name, n)| format!("{name}={n}"))
                .collect();
            if !top.is_empty() {
                println!(
                    "{:>7} hottest aborters: {}",
                    r.system.to_string(),
                    top.join("  ")
                );
            }
        }
    }
}

/// Write one figure's series as CSV (`interval,system,throughput,commits,
/// full_aborts,partial_aborts`), for external plotting.
pub fn write_csv(spec: &FigureSpec, fig: &FigureResult, dir: &Path) -> io::Result<PathBuf> {
    use std::io::Write as _;
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.csv", spec.id));
    let mut f = std::fs::File::create(&path)?;
    writeln!(
        f,
        "interval,system,throughput,commits,full_aborts,partial_aborts"
    )?;
    for r in &fig.results {
        for (i, w) in r.intervals.iter().enumerate() {
            writeln!(
                f,
                "{},{},{:.1},{},{},{}",
                i + 1,
                r.system,
                r.throughput(i),
                w.commits,
                w.full_aborts,
                w.partial_aborts
            )?;
        }
    }
    Ok(path)
}

/// Write `render(result)` to `<dir>/<figure>-<system>.<ext>` for every
/// system it yields text for. A renderer parses its own output back and
/// returns the parser's refusal as an error, so a malformed export never
/// lands on disk unnoticed.
fn write_per_system(
    spec: &FigureSpec,
    fig: &FigureResult,
    dir: &Path,
    ext: &str,
    render: impl Fn(&ScenarioResult) -> Result<Option<String>, String>,
) -> io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut paths = Vec::new();
    for r in &fig.results {
        let text = render(r).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let Some(text) = text else { continue };
        let system = r.system.to_string().to_lowercase();
        let path = dir.join(format!("{}-{system}.{ext}", spec.id));
        std::fs::write(&path, text)?;
        paths.push(path);
    }
    Ok(paths)
}

fn report(spec: &FigureSpec, r: &ScenarioResult) -> MetricsReport {
    r.metrics_report(&[
        ("figure", spec.id.to_string()),
        ("title", spec.title.to_string()),
    ])
}

/// Write one figure's full metrics as JSON-lines, one
/// `<figure>-<system>.jsonl` file per system, each a complete
/// [`MetricsReport`] export that must parse back equal.
pub fn write_jsonl(spec: &FigureSpec, fig: &FigureResult, dir: &Path) -> io::Result<Vec<PathBuf>> {
    write_per_system(spec, fig, dir, "jsonl", |r| {
        let report = report(spec, r);
        let text = report.to_json_lines();
        assert_eq!(
            MetricsReport::parse_json_lines(&text)?,
            report,
            "JSON-lines export must round-trip"
        );
        Ok(Some(text))
    })
}

/// Write one figure's metrics in Prometheus exposition format, one
/// `<figure>-<system>.prom` file per system. Each exposition is parsed
/// back with the vendored parser and must re-render to the same text —
/// the scrape surface rides the same round-trip contract as every other
/// codec in the workspace.
pub fn write_prom(spec: &FigureSpec, fig: &FigureResult, dir: &Path) -> io::Result<Vec<PathBuf>> {
    write_per_system(spec, fig, dir, "prom", |r| {
        let text = acn_obs::render_prom(&acn_obs::report_to_prom(&report(spec, r)));
        assert_eq!(
            acn_obs::render_prom(&acn_obs::parse_prom(&text)?),
            text,
            "Prometheus exposition must round-trip"
        );
        Ok(Some(text))
    })
}

/// Write one figure's span traces as Chrome-trace JSON, one
/// `<figure>-<system>.trace.json` file per system that recorded spans —
/// open them in Perfetto or `chrome://tracing`. Each file must parse back
/// to the same spans and completeness rows.
pub fn write_trace(spec: &FigureSpec, fig: &FigureResult, dir: &Path) -> io::Result<Vec<PathBuf>> {
    write_per_system(spec, fig, dir, "trace.json", |r| {
        let Some(obs) = r.obs.as_ref().filter(|o| !o.spans.is_empty()) else {
            return Ok(None);
        };
        let text = acn_obs::write_chrome_trace(&obs.spans, &obs.thread_traces);
        let (spans, threads) = acn_obs::parse_chrome_trace(&text)?;
        assert_eq!(spans, obs.spans, "Chrome-trace export must round-trip");
        assert_eq!(
            threads, obs.thread_traces,
            "completeness rows must round-trip"
        );
        Ok(Some(text))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_figures_are_specified() {
        let figs = all_figures();
        assert_eq!(figs.len(), 6);
        let ids: Vec<&str> = figs.iter().map(|f| f.id).collect();
        assert_eq!(
            ids,
            vec!["fig4a", "fig4b", "fig4c", "fig4d", "fig4e", "fig4f"]
        );
    }

    #[test]
    fn shift_figures_have_phase_schedules() {
        let figs = all_figures();
        assert!(figs[4].phases.len() == figs[4].intervals);
        assert!(figs[5].phases.len() == figs[5].intervals);
        // TPC-C figures are static workloads.
        for f in &figs[..4] {
            assert!(f.phases.is_empty());
        }
    }

    #[test]
    fn workloads_generate_for_every_declared_phase() {
        use rand::SeedableRng;
        let figs = all_figures();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for f in &figs {
            for &p in f.phases.iter().chain([0usize].iter()) {
                let req = f.workload.next(&mut rng, p);
                assert!(req.template < f.workload.templates().len());
            }
        }
    }
}
