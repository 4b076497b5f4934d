//! Differential decode fuzzer: runs the `dvbs2::oracle` decoder matrix on
//! generated cases and reports every contract violation, shrunk to a
//! minimal reproducer.
//!
//! Run:  `cargo run --release -p dvbs2-bench --bin diff_fuzz -- --cases 500`
//! Repro: `cargo run --release -p dvbs2-bench --bin diff_fuzz -- --repro 'seed=.. rate=.. ...'`
//!
//! Exits non-zero when any contract is violated.

use dvbs2::decoder::SimdTier;
use dvbs2::ldpc::{CodeRate, FrameSize};
use dvbs2::oracle::{self, CaseSpec, OracleConfig, Sweep};

struct Args {
    cases: u64,
    fault_cases: u64,
    fabric_cases: u64,
    seed: u64,
    threads: usize,
    repro: Option<String>,
    skip_faults: bool,
    skip_partition: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        cases: 500,
        fault_cases: 500,
        fabric_cases: 0,
        seed: 0xD1FF,
        threads: dvbs2::channel::default_threads(),
        repro: None,
        skip_faults: false,
        skip_partition: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let number = |text: String| text.parse::<u64>().unwrap_or_else(|_| usage(&flag));
        match flag.as_str() {
            "--cases" => args.cases = number(value()),
            "--fault-cases" => args.fault_cases = number(value()),
            "--fabric-cases" => args.fabric_cases = number(value()),
            "--seed" => {
                let text = value();
                let parsed = match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => text.parse(),
                };
                args.seed = parsed.unwrap_or_else(|_| usage(&flag));
            }
            "--threads" => args.threads = number(value()) as usize,
            "--repro" => args.repro = Some(value()),
            "--skip-faults" => args.skip_faults = true,
            "--skip-partition" => args.skip_partition = true,
            other => usage(&format!("unknown flag {other}")),
        }
    }
    args
}

fn usage(problem: &str) -> ! {
    eprintln!("diff_fuzz: {problem}");
    eprintln!(
        "usage: diff_fuzz [--cases N] [--fault-cases N] [--fabric-cases N] [--seed S] \
         [--threads T] [--skip-faults] [--skip-partition] [--repro 'spec']"
    );
    std::process::exit(2);
}

fn main() {
    let args = parse_args();

    if let Some(spec_text) = &args.repro {
        let case: CaseSpec = match spec_text.parse() {
            Ok(case) => case,
            Err(e) => usage(&e.to_string()),
        };
        println!("replaying {case}");
        let report = oracle::run_case(0, &case);
        println!("evaluated {} contracts: {}", report.evaluated.len(), report.evaluated.join(" "));
        if report.clean() {
            println!("clean: no contract violated");
            return;
        }
        for v in &report.violations {
            println!("VIOLATION {v}");
        }
        std::process::exit(1);
    }

    println!(
        "differential oracle: {} cases, master seed {:#x}, {} threads",
        args.cases, args.seed, args.threads
    );
    let tiers = SimdTier::available().iter().map(|t| t.name()).collect::<Vec<_>>().join("+");
    let mut failed = false;
    // Every sweep is a case source plus a class set over the one oracle
    // driver, so one loop reports them all.
    for (label, sweep, master_seed, cases) in [
        ("equivalence contracts", Sweep::Matrix, args.seed, args.cases),
        ("fault differential", Sweep::Fault, args.seed ^ 0xFA17, args.fault_cases),
        ("fabric differential", Sweep::Fabric, args.seed ^ 0xFAB0, args.fabric_cases),
        ("partition sweep", Sweep::Partition, args.seed, 0),
    ] {
        let skip = match sweep {
            Sweep::Matrix => false,
            Sweep::Partition => args.skip_partition,
            Sweep::Fault | Sweep::Fabric => cases == 0,
        };
        if skip {
            continue;
        }
        let report = sweep.run(&OracleConfig { master_seed, cases, threads: args.threads });
        let (rates, frames) = (report.rates_covered.len(), report.frames_covered.len());
        if sweep == Sweep::Matrix {
            println!(
                "covered {rates} rates ({}), {frames} frame sizes",
                report.rates_covered.iter().map(|r| r.to_string()).collect::<Vec<_>>().join(" "),
            );
        }
        if report.clean() {
            let n = report.cases;
            let detail = match sweep {
                Sweep::Matrix => format!("{n} cases, 0 violations"),
                Sweep::Fault => format!("{n} faulted cases, bit-exact; sw lane tiers {tiers}"),
                Sweep::Fabric => format!("{n} multi-core cases, bit-exact"),
                Sweep::Partition => format!(
                    "{n} cases across {rates} rates x {frames} frame sizes, bit-exact at tiers {tiers}"
                ),
            };
            println!("{label}: PASS ({detail})");
            continue;
        }
        failed = true;
        println!("{label}: FAIL ({} violations)", report.violations.len());
        for v in &report.violations {
            println!("\nVIOLATION ({label}) {v}");
            println!("  repro: --repro '{}'", v.case);
            // Shrink under the sweep's own class set: cheaper than the
            // full matrix, and it re-runs exactly what found the failure.
            let shrunk = oracle::shrink_case(&v.case, |candidate| {
                let again = sweep.replay(v.case_index, candidate);
                again.violations.iter().any(|found| found.contract == v.contract)
            });
            println!("  shrunk repro: --repro '{shrunk}'");
        }
    }

    if !args.skip_faults {
        let points = [
            (CodeRate::R1_2, FrameSize::Short),
            (CodeRate::R2_3, FrameSize::Short),
            (CodeRate::R1_2, FrameSize::Normal),
        ];
        let mut scenarios = 0;
        let mut fault_violations = 0;
        for (rate, frame) in points {
            let fr = oracle::run_fault_suite(rate, frame, args.seed);
            scenarios += fr.cases;
            fault_violations += fr.violations.len();
            for v in &fr.violations {
                println!("FAULT VIOLATION ({rate}, {frame}): {v}");
            }
        }
        if fault_violations == 0 {
            println!("fault injection: PASS ({scenarios} scenarios, graceful degradation)");
        } else {
            failed = true;
            println!("fault injection: FAIL ({fault_violations} violations)");
        }
    }

    if failed {
        std::process::exit(1);
    }
}
