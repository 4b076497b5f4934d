//! `all` — every workload in a child process of its own, collected into one
//! result file — and `compare`, which holds two result files to the bounds
//! stored in `BENCHMARK.json`.

use crate::json::{self, Value};
use crate::metrics::{number, WORKLOADS};
use crate::stats::median;
use crate::Options;
use dvbs2::decoder::{detected_cpu_features, SimdTier};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

/// One child run's parsed result line.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// name → (value, unit)
    metrics: BTreeMap<String, (f64, String)>,
}

fn parse_result_line(line: &str) -> Result<ChildResult, String> {
    let doc = json::parse(line)?;
    let field = |name: &str| doc.get(name).ok_or(format!("result line has no {name:?}"));
    let mut metrics = BTreeMap::new();
    for (name, metric) in field("metrics")?.as_object().ok_or("metrics is not an object")? {
        let value = metric.get("value").and_then(Value::as_f64).ok_or("metric without a value")?;
        let unit = metric.get("unit").and_then(Value::as_str).ok_or("metric without a unit")?;
        metrics.insert(name.clone(), (value, unit.to_string()));
    }
    Ok(ChildResult {
        correct: field("correct")? == &Value::Bool(true),
        attempted: field("attempted")?.as_f64().ok_or("attempted is not a number")? as u64,
        failed: field("failed")?.as_f64().ok_or("failed is not a number")? as u64,
        metrics,
    })
}

/// Runs one workload once in a child process; its stderr passes through.
fn run_child(
    workload: &str,
    seed: u64,
    traced: bool,
    options: &Options,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("finding this executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &options.seconds.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .arg("--out")
        .arg(&options.out_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the {workload} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or(format!("the {workload} child printed no result"))?;
    let result = parse_result_line(line)?;
    if !output.status.success() && result.correct {
        return Err(format!("the {workload} child failed: {}", output.status));
    }
    Ok(result)
}

/// The checked-out commit, read from `.git` without running git; the
/// driver's checkouts are not repositories, so this may be "unknown".
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let revision = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map(|r| r.trim().to_string())
            .unwrap_or_default(),
        None => head.to_string(),
    };
    if revision.is_empty() {
        "unknown".to_string()
    } else {
        revision
    }
}

fn metrics_json(runs: &[ChildResult]) -> String {
    let mut entries = Vec::new();
    for (name, (_, unit)) in &runs[0].metrics {
        let values: Vec<f64> =
            runs.iter().filter_map(|r| r.metrics.get(name)).map(|m| m.0).collect();
        let listed: Vec<String> = values.iter().map(|v| number(*v)).collect();
        entries.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"runs\": [{}]}}",
            json::escape(name),
            number(median(&values)),
            json::escape(unit),
            listed.join(", ")
        ));
    }
    format!("{{{}}}", entries.join(", "))
}

/// `stackbench all`: each workload `--runs` times untraced (seeds `seed`,
/// `seed + 1`, …) and, with `--trace`, once traced; medians and every run's
/// value go to `<out>/result.json`.
pub fn all(options: &Options) -> Result<ExitCode, String> {
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for workload in WORKLOADS {
        let mut runs = Vec::new();
        for run in 0..options.runs as u64 {
            runs.push(run_child(workload, options.seed + run, false, options)?);
        }
        let traced = match options.traced {
            true => Some(run_child(workload, options.seed, true, options)?),
            false => None,
        };
        let correct = runs.iter().chain(&traced).all(|r| r.correct);
        all_correct &= correct;
        println!("{workload}: {}", if correct { "correct" } else { "INCORRECT" });
        for (name, (_, unit)) in &runs[0].metrics {
            let values: Vec<f64> = runs.iter().map(|r| r.metrics[name].0).collect();
            println!("  {name:<24} {:>14.6} {unit}", median(&values));
        }
        let layers =
            traced.as_ref().map_or("{}".to_string(), |t| metrics_json(std::slice::from_ref(t)));
        workloads.push(format!(
            "    \"{workload}\": {{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \
             \"metrics\": {}, \"layers\": {layers}}}",
            runs.iter().map(|r| r.attempted).sum::<u64>(),
            runs.iter().map(|r| r.failed).sum::<u64>(),
            metrics_json(&runs),
        ));
    }
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let features: Vec<String> =
        detected_cpu_features().iter().map(|f| format!("\"{f}\"")).collect();
    let document = format!(
        "{{\n  \"benchmark\": \"stackbench\",\n  \"seed\": {},\n  \"runs\": {},\n  \
         \"seconds\": {},\n  \"git_revision\": \"{}\",\n  \"cpu\": {{\"cores\": {cores}, \
         \"dispatch_tier\": \"{}\", \"features\": [{}]}},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        options.seed,
        options.runs,
        number(options.seconds),
        json::escape(&git_revision()),
        SimdTier::resolve(None).name(),
        features.join(", "),
        workloads.join(",\n"),
    );
    let path = options.out_dir.join("result.json");
    std::fs::create_dir_all(&options.out_dir)
        .and_then(|()| std::fs::write(&path, document))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(if all_correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// How much worse `b` is than `a`, as a share of `a`; negative is better.
pub fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    let change = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    if higher_is_better {
        -change
    } else {
        change
    }
}

fn load(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `stackbench compare A B`: per workload × end-to-end metric, how much
/// worse B's median is than A's, against the metric's bound. Exits non-zero
/// when any pair is beyond its bound or missing from B.
pub fn compare(files: &[String], benchmark: &Path) -> Result<ExitCode, String> {
    let [a, b] = files else { return Err("compare takes exactly two result files".to_string()) };
    let (a, b) = (load(Path::new(a))?, load(Path::new(b))?);
    let manifest = load(benchmark)?;
    let bounds =
        manifest.get("end_to_end").and_then(Value::as_array).ok_or("no end_to_end list")?;
    let value_of = |doc: &Value, workload: &str, metric: &str| -> Option<f64> {
        doc.get("workloads")?.get(workload)?.get("metrics")?.get(metric)?.get("value")?.as_f64()
    };
    let mut beyond = 0;
    println!(
        "{:<22} {:<22} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "a", "b", "worse", "bound"
    );
    for workload in WORKLOADS {
        for entry in bounds {
            let name = entry.get("name").and_then(Value::as_str).ok_or("metric without a name")?;
            let bound =
                entry.get("bound").and_then(Value::as_f64).ok_or("metric without a bound")?;
            let higher = entry.get("better").and_then(Value::as_str) == Some("higher");
            let (Some(va), Some(vb)) = (value_of(&a, workload, name), value_of(&b, workload, name))
            else {
                println!("{workload:<22} {name:<22} missing from a result file");
                beyond += 1;
                continue;
            };
            let worse = worsening(va, vb, higher);
            let verdict = if worse > bound { "  BEYOND" } else { "" };
            beyond += usize::from(worse > bound);
            println!(
                "{workload:<22} {name:<22} {va:>14.6} {vb:>14.6} {:>8.2}% {:>6.1}%{verdict}",
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    println!("{beyond} workload × metric pairs beyond their bound");
    Ok(if beyond == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_is_signed_by_direction() {
        assert!((worsening(100.0, 90.0, true) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, true) + 0.10).abs() < 1e-12);
        assert!((worsening(10.0, 11.0, false) - 0.10).abs() < 1e-12);
        assert!((worsening(10.0, 9.0, false) + 0.10).abs() < 1e-12);
    }

    #[test]
    fn result_lines_round_trip() {
        let mut outcome = crate::metrics::Outcome::default();
        (outcome.attempted, outcome.failed) = (5, 1);
        outcome.set("setup_s", 0.25);
        let parsed = parse_result_line(&outcome.result_line(false)).unwrap();
        assert!(!parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (5, 1));
        assert_eq!(parsed.metrics["setup_s"], (0.25, "s".to_string()));
        assert!(parse_result_line("{\"correct\": true}").is_err());
    }
}
