//! The QR-ACN benchmark.
//!
//! ```text
//! acn-benchmark run [--seed N] [--quick]
//!     every workload: timed reps, a traced rep, then drills and ledger
//! acn-benchmark run --workload W --seed N --seconds S --trace 0|1
//!     one workload, one result line (the builder contract's shape)
//! acn-benchmark selfcheck [--seed N] [--quick]
//!     the end-to-end half twice on this build; must agree within bounds
//! ```
//!
//! See `README.md` for the metric glossary and what each workload is for.

mod adapter;
mod drills;
mod json;
mod procfs;
mod rep;
mod spec;
mod stats;
mod suite;
mod trace;

use rep::{RepArgs, RepKind};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: acn-benchmark run [--workload W --seconds S --trace 0|1] [--seed N] [--quick] [--out DIR]
       acn-benchmark selfcheck [--seed N] [--quick] [--out DIR]";

/// `--flag value` pairs and bare `--switch`es after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn take(&mut self, flag: &str) -> Result<Option<String>, String> {
        let Some(i) = self.0.iter().position(|a| a == flag) else {
            return Ok(None);
        };
        if i + 1 >= self.0.len() {
            return Err(format!("{flag} needs a value"));
        }
        self.0.remove(i);
        Ok(Some(self.0.remove(i)))
    }

    fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        match self.take(flag)? {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("bad value for {flag}: {v}")),
        }
    }

    fn switch(&mut self, flag: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|a| a != flag);
        self.0.len() != before
    }

    fn done(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected argument `{extra}`")),
        }
    }
}

fn workload_arg(args: &mut Args) -> Result<Option<&'static spec::WorkloadSpec>, String> {
    match args.take("--workload")? {
        None => Ok(None),
        Some(name) => spec::workload(&name).map(Some).ok_or_else(|| {
            let known: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload `{name}` (known: {})", known.join(", "))
        }),
    }
}

fn dispatch(process_start: Instant, pinned: procfs::Pinned) -> Result<bool, String> {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        return Err(USAGE.into());
    }
    let command = argv.remove(0);
    let mut args = Args(argv);
    let seed: u64 = args.parsed("--seed")?.unwrap_or(42);
    // The one command is run from the repository root.
    let out = PathBuf::from(
        args.take("--out")?
            .unwrap_or_else(|| "benchmark/out".into()),
    );
    let ctx = suite::Ctx { seed, out, pinned };
    match command.as_str() {
        "run" => {
            let workload = workload_arg(&mut args)?;
            let seconds: Option<f64> = args.parsed("--seconds")?;
            let trace: Option<u8> = args.parsed("--trace")?;
            let quick = args.switch("--quick");
            args.done()?;
            match workload {
                Some(spec) => {
                    if quick {
                        return Err(
                            "--quick sizes the whole suite; it does not combine with --workload"
                                .into(),
                        );
                    }
                    let seconds = seconds
                        .filter(|s| *s >= 1.0 && s.fract() == 0.0)
                        .ok_or("--workload needs --seconds S, a whole number ≥ 1")?;
                    suite::run_single(spec, &ctx, seconds, trace.unwrap_or(0) != 0)
                }
                None if seconds.is_some() || trace.is_some() => {
                    Err("--seconds and --trace size a single workload; add --workload W".into())
                }
                None => suite::run_suite(&ctx, quick),
            }
        }
        "selfcheck" => {
            let quick = args.switch("--quick");
            args.done()?;
            suite::selfcheck(&ctx, quick)
        }
        // Internal: one rep in this process; `suite::spawn` is the caller.
        "rep" => {
            let rep_args = RepArgs {
                workload: workload_arg(&mut args)?.ok_or("rep needs --workload")?,
                seed,
                kind: args
                    .take("--kind")?
                    .as_deref()
                    .and_then(RepKind::parse)
                    .ok_or("rep needs --kind setup|timed|traced")?,
                flat: args.parsed::<u8>("--flat")?.unwrap_or(0) != 0,
                warmup: Duration::from_secs_f64(args.parsed("--warmup")?.unwrap_or(0.0)),
                window: Duration::from_secs_f64(args.parsed("--seconds")?.unwrap_or(0.0)),
                out: ctx.out,
            };
            args.done()?;
            println!("{}", rep::run(&rep_args, process_start).to_json().render());
            Ok(true)
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    // First thing: `setup_s` is measured from here.
    let process_start = Instant::now();
    // Before any thread exists, so reps, drills and the solo run all share
    // one core (see `procfs::pin_to_one_cpu` for why).
    let pinned = match procfs::pin_to_one_cpu() {
        Ok(pinned) => pinned,
        Err(e) => {
            eprintln!("acn-benchmark: cannot pin to one CPU: {e}");
            return ExitCode::from(2);
        }
    };
    match dispatch(process_start, pinned) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("acn-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
