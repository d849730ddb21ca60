//! Regenerate the paper's Figure 4.
//!
//! ```sh
//! cargo run --release -p acn-bench --bin figures            # all six
//! cargo run --release -p acn-bench --bin figures fig4a      # one subplot
//! cargo run --release -p acn-bench --bin figures list       # enumerate
//! cargo run --release -p acn-bench --bin figures fig4f --csv out/    # series as CSV
//! cargo run --release -p acn-bench --bin figures fig4f --jsonl out/  # full metrics report
//! cargo run --release -p acn-bench --bin figures fig4f --trace out/  # span trace
//! cargo run --release -p acn-bench --bin figures fig4f --prom out/   # Prometheus text
//! ```

use acn_bench::figures::{
    all_figures, print_figure, run_figure, write_csv, write_jsonl, write_prom, write_trace,
};
use std::path::PathBuf;

/// Remove `flag DIR` from `args`, returning `DIR` if the flag was given.
fn take_dir(args: &mut Vec<String>, flag: &str) -> Option<PathBuf> {
    let i = args.iter().position(|a| a == flag)?;
    let dir = args
        .get(i + 1)
        .unwrap_or_else(|| panic!("{flag} requires a directory"))
        .clone();
    args.drain(i..=i + 1);
    Some(PathBuf::from(dir))
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--csv DIR` writes each figure's series as CSV.
    let csv_dir = take_dir(&mut args, "--csv");
    // `--jsonl DIR` writes each system's full MetricsReport as JSON-lines.
    let jsonl_dir = take_dir(&mut args, "--jsonl");
    // `--trace DIR` writes each system's span trace as Chrome-trace JSON
    // (open in Perfetto or chrome://tracing).
    let trace_dir = take_dir(&mut args, "--trace");
    // `--prom DIR` writes each system's metrics in Prometheus exposition
    // format (parsed back and re-rendered for equality before landing).
    let prom_dir = take_dir(&mut args, "--prom");
    let figs = all_figures();

    if args.first().map(String::as_str) == Some("list") {
        for f in &figs {
            println!("{:7} {} — paper: {}", f.id, f.title, f.paper_claim);
        }
        return;
    }

    let wanted: Vec<&str> = if args.is_empty() {
        figs.iter().map(|f| f.id).collect()
    } else {
        args.iter().map(String::as_str).collect()
    };

    for id in wanted {
        let Some(spec) = figs.iter().find(|f| f.id == id) else {
            eprintln!("unknown figure `{id}` — try `figures list`");
            std::process::exit(2);
        };
        eprintln!(
            "running {} (3 systems × {} intervals × {:?}) …",
            spec.id, spec.intervals, spec.interval
        );
        let result = run_figure(spec);
        print_figure(spec, &result);
        if let Some(dir) = &csv_dir {
            let path = write_csv(spec, &result, dir).expect("write csv");
            eprintln!("wrote {}", path.display());
        }
        if let Some(dir) = &jsonl_dir {
            for path in write_jsonl(spec, &result, dir).expect("write jsonl") {
                eprintln!("wrote {}", path.display());
            }
        }
        if let Some(dir) = &trace_dir {
            let paths = write_trace(spec, &result, dir).expect("write trace");
            if paths.is_empty() {
                eprintln!("no spans recorded — no trace written");
            }
            for path in paths {
                eprintln!("wrote {}", path.display());
            }
        }
        if let Some(dir) = &prom_dir {
            for path in write_prom(spec, &result, dir).expect("write prom") {
                eprintln!("wrote {}", path.display());
            }
        }
    }
}
