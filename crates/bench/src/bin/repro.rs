//! Regenerates the paper's tables and figures from the experiment registry
//! (`dvbs2_bench::experiments`, indexed in DESIGN.md §4).
//!
//! * `repro <name> [arguments]` prints one experiment;
//! * `repro all` prints every one at its default arguments;
//! * `repro check` recomputes the deterministic experiments and exits 1,
//!   naming experiment and key, on any row outside its tolerance against the
//!   values transcribed from the paper (exact rows tolerate nothing).
//!
//! Run: `cargo run --release -p dvbs2-bench --bin repro -- check`

use dvbs2_bench::args::{parse_or_exit, synopsis, Parsed};
use dvbs2_bench::experiments::{find, Experiment, EXPERIMENTS};
use dvbs2_bench::table::compare;

fn usage() -> ! {
    eprintln!("usage: repro <experiment> [arguments] | repro all | repro check\n");
    for e in EXPERIMENTS {
        eprintln!("  {:<34} {}", format!("{}{}", e.name, synopsis(e.flags)), e.about);
    }
    std::process::exit(2);
}

fn print(experiment: &Experiment, args: &Parsed) -> Result<(), Box<dyn std::error::Error>> {
    for table in (experiment.run)(args)? {
        println!("{table}");
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else { usage() };
    match command.as_str() {
        "all" => {
            for experiment in EXPERIMENTS {
                println!("==== {} — {}\n", experiment.name, experiment.about);
                print(experiment, &Parsed::default())?;
            }
        }
        "check" => {
            let mut failed = false;
            for experiment in EXPERIMENTS {
                let Some(gate) = &experiment.gate else { continue };
                let checks = compare(&(gate.tables)()?, gate.expects);
                let held = checks.iter().filter(|check| check.holds()).count();
                println!("{:<15} {held} of {} checked cells hold", experiment.name, checks.len());
                for check in checks.iter().filter(|check| !check.holds()) {
                    failed = true;
                    println!("repro check: FAIL {} {check}", experiment.name);
                }
            }
            if failed {
                std::process::exit(1);
            }
            println!("repro check: every checked cell is inside its tolerance");
        }
        name => {
            let Some(experiment) = find(name) else { usage() };
            let parsed = parse_or_exit(&format!("repro {name}"), experiment.flags, args);
            print(experiment, &parsed)?;
        }
    }
    Ok(())
}
