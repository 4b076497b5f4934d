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
use dvbs2_bench::args::{parse_env, usage, Flag, Takes};

const FLAGS: &[Flag] = &[
    Flag::taking("--cases", Takes::Number("N"), "matrix cases (default 500)"),
    Flag::taking("--fault-cases", Takes::Number("N"), "fault-differential cases (default 500)"),
    Flag::taking("--fabric-cases", Takes::Number("N"), "fabric-differential cases (default 0)"),
    Flag::taking("--seed", Takes::Number("S"), "master seed, decimal or 0x-hex (default 0xD1FF)"),
    Flag::taking(
        "--threads",
        Takes::Number("T"),
        "worker threads (default: available parallelism)",
    ),
    Flag::switch("--skip-faults", "skip the fault-injection suite"),
    Flag::switch("--skip-partition", "skip the partition sweep"),
    Flag::taking("--repro", Takes::Text("'spec'"), "replay one case under every contract class"),
];

fn main() {
    let flags = parse_env("diff_fuzz", FLAGS);
    let count = |name: &str, default: u64| flags.number(name).unwrap_or(default);
    let (cases, fault_cases, fabric_cases) =
        (count("--cases", 500), count("--fault-cases", 500), count("--fabric-cases", 0));
    let seed = count("--seed", 0xD1FF);
    let threads =
        flags.number("--threads").map_or_else(dvbs2::channel::default_threads, |t| t as usize);

    if let Some(spec_text) = flags.text("--repro") {
        let case: CaseSpec = match spec_text.parse() {
            Ok(case) => case,
            Err(e) => {
                eprintln!("diff_fuzz: {e}\n{}", usage("diff_fuzz", FLAGS));
                std::process::exit(2);
            }
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

    println!("differential oracle: {} cases, master seed {:#x}, {} threads", cases, seed, threads);
    let tiers = SimdTier::available().iter().map(|t| t.name()).collect::<Vec<_>>().join("+");
    let mut failed = false;
    // Every sweep is a case source plus a class set over the one oracle
    // driver, so one loop reports them all.
    for (label, sweep, master_seed, cases) in [
        ("equivalence contracts", Sweep::Matrix, seed, cases),
        ("fault differential", Sweep::Fault, seed ^ 0xFA17, fault_cases),
        ("fabric differential", Sweep::Fabric, seed ^ 0xFAB0, fabric_cases),
        ("partition sweep", Sweep::Partition, seed, 0),
    ] {
        let skip = match sweep {
            Sweep::Matrix => false,
            Sweep::Partition => flags.has("--skip-partition"),
            Sweep::Fault | Sweep::Fabric => cases == 0,
        };
        if skip {
            continue;
        }
        let report = sweep.run(&OracleConfig { master_seed, cases, threads });
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

    if !flags.has("--skip-faults") {
        let points = [
            (CodeRate::R1_2, FrameSize::Short),
            (CodeRate::R2_3, FrameSize::Short),
            (CodeRate::R1_2, FrameSize::Normal),
        ];
        let mut scenarios = 0;
        let mut fault_violations = 0;
        for (rate, frame) in points {
            let fr = oracle::run_fault_suite(rate, frame, seed);
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
