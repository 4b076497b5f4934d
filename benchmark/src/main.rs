//! `stackbench`: one benchmark for the decoder kernels, the serving stack
//! and the cycle-accurate core — the gate behind the root `BENCHMARK.json`.
//!
//! ```text
//! stackbench --workload W --seed N --seconds S --trace 0|1 [--out DIR]
//! stackbench run W --seed N [--seconds S] [--trace] [--out DIR]
//! stackbench all --seed N [--seconds S] [--runs R] [--trace] [--smoke] [--out DIR]
//! stackbench compare A.json B.json [--benchmark BENCHMARK.json]
//! ```
//!
//! The first form is the one `BENCHMARK.json` names; `run` is its readable
//! twin. Every layer is measured from outside, by timing calls into the
//! crates' public functions.

mod common;
mod frames;
mod hw;
mod json;
mod kernel;
mod loadgen;
mod metrics;
mod proc;
mod report;
mod serve;
mod stats;
mod trace;

use common::Run;
use metrics::{Outcome, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage:
  stackbench --workload W --seed N --seconds S --trace 0|1 [--out DIR]
  stackbench run W --seed N [--seconds S] [--trace] [--out DIR]
  stackbench all --seed N [--seconds S] [--runs R] [--trace] [--smoke] [--out DIR]
  stackbench compare A.json B.json [--benchmark BENCHMARK.json]
workloads: kernel_lanes serve_mixed_default serve_clear_sky hw_paper_point";

/// Seconds one run measures for when `--seconds` is not given; the same
/// number as `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

/// `all --smoke`: long enough for one whole round of every workload.
const SMOKE_SECONDS: f64 = 3.0;

/// Results and traces land here unless `--out` says otherwise. Relative to
/// the working directory, never to where the crate was built.
const DEFAULT_OUT: &str = "benchmark/out";

/// Command-line options shared by the subcommands.
pub struct Options {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub runs: usize,
    pub out_dir: PathBuf,
    pub benchmark: PathBuf,
    pub files: Vec<String>,
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        runs: 1,
        out_dir: PathBuf::from(DEFAULT_OUT),
        benchmark: PathBuf::from("BENCHMARK.json"),
        files: Vec::new(),
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => options.workload = Some(value("a workload name")?.clone()),
            "--seed" => {
                options.seed = parse_u64(value("a number")?).ok_or("--seed needs a number")?;
            }
            "--seconds" => {
                options.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            "--runs" => {
                options.runs = value("a count")?
                    .parse()
                    .ok()
                    .filter(|r| *r >= 1)
                    .ok_or("--runs needs a count of at least 1")?;
            }
            // `--trace` alone switches tracing on; the driver's form
            // follows it with 0 or 1.
            "--trace" => {
                let mut rest = args.clone();
                options.traced = match rest.next().map(String::as_str) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => options.seconds = SMOKE_SECONDS,
            "--out" => options.out_dir = PathBuf::from(value("a directory")?),
            "--benchmark" => options.benchmark = PathBuf::from(value("a file")?),
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            file => options.files.push(file.to_string()),
        }
    }
    Ok(options)
}

/// Runs one workload in this process and prints its result line.
fn run_workload(origin: Instant, workload: &str, options: &Options) -> Result<ExitCode, String> {
    let run = Run {
        seed: options.seed,
        seconds: options.seconds,
        traced: options.traced,
        out_dir: options.out_dir.clone(),
        origin,
    };
    let outcome: Outcome = match workload {
        "kernel_lanes" => kernel::run(&run),
        "serve_mixed_default" => serve::run(&run, &serve::MIXED_DEFAULT),
        "serve_clear_sky" => serve::run(&run, &serve::CLEAR_SKY),
        "hw_paper_point" => hw::run(&run),
        other => return Err(format!("unknown workload {other:?}; one of {WORKLOADS:?}")),
    };
    for violation in &outcome.violations {
        eprintln!("{workload}: VIOLATION: {violation}");
    }
    for (name, value, unit) in outcome.table(options.traced) {
        eprintln!("{workload}  {name:<40} {value:>16.6} {unit}");
    }
    println!("{}", outcome.result_line(options.traced));
    Ok(if outcome.correct() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let origin = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(command @ ("run" | "all" | "compare")) => (command, &args[1..]),
        _ => ("run", &args[..]),
    };
    let result = parse_options(rest).and_then(|mut options| match command {
        "all" => report::all(&options),
        "compare" => report::compare(&options.files, &options.benchmark),
        _ => {
            let workload = match options.workload.take() {
                Some(workload) if options.files.is_empty() => workload,
                None if options.files.len() == 1 => options.files.remove(0),
                _ => return Err("name exactly one workload".to_string()),
            };
            run_workload(origin, &workload, &options)
        }
    });
    result.unwrap_or_else(|message| {
        eprintln!("stackbench: {message}\n{USAGE}");
        ExitCode::from(2)
    })
}
