//! `nvpg-perfbench` — the repository benchmark.
//!
//! ```text
//! nvpg-perfbench --workload retention16|paper_batch|serve_mixed
//!                --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload at the default configuration (no `NVPG_SIMD`,
//! solver and batch mode left at `auto`), checks every output it
//! produces, and prints one JSON result object as the last line of
//! standard output. Every workload reports the same metrics (see
//! `layers`): with `--trace 0` the end-to-end ones, with `--trace 1` the
//! per-layer ones, measured from outside the program by timing calls
//! into the public functions of each crate. Progress, workload-specific
//! details and a span summary go to stderr.
//!
//! Exit status: 0 when every output check passed, 1 when a check failed
//! or the workload could not run, 2 on a usage error.
//!
//! `perfbench/README.md` documents the workloads, the metrics and which
//! end-to-end metric each per-layer metric should move.

mod layers;
mod paper;
mod probes;
mod retention;
mod serve;
mod util;

use std::process::ExitCode;
use std::time::Duration;

use util::{Report, Tracer};

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: nvpg-perfbench --workload retention16|paper_batch|serve_mixed \
         --seed N --seconds S --trace 0|1"
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<Args> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().ok()?),
            "--seconds" => seconds = Some(value.parse::<u64>().ok().filter(|&s| s >= 1)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                })
            }
            _ => return None,
        }
    }
    Some(Args {
        workload: workload?,
        seed: seed?,
        seconds: Duration::from_secs(seconds?),
        trace: trace?,
    })
}

fn main() -> ExitCode {
    // The benchmark measures the default configuration: the SIMD level is
    // detected, never forced. Removed before any thread starts.
    std::env::remove_var("NVPG_SIMD");
    let Some(args) = parse_args() else {
        return usage();
    };
    let tracer = Tracer::new(args.trace);
    let outcome: Result<Report, String> = match args.workload.as_str() {
        "retention16" => retention::run(&args, &tracer),
        "paper_batch" => paper::run(&args, &tracer),
        "serve_mixed" => serve::run(&args, &tracer),
        _ => return usage(),
    };
    match outcome {
        Ok(report) => {
            tracer.summarize();
            report.summarize(&args.workload);
            println!("{}", report.to_json());
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::from(1)
        }
    }
}
