//! Fault-tolerance sweep: how decode quality degrades as hardware faults
//! accumulate, and how fast the pipeline's syndrome-anomaly detector
//! contains a faulted worker.
//!
//! Three measurements, all recorded in `BENCH_fault.json`:
//!
//! 1. **Fault-count curves** — FER/BER of the cycle-accurate hardware
//!    decoder under 0, 1, 2 and 4 permanently stuck RAM words, per rate.
//! 2. **Upset-rate curves** — FER/BER under a transient bit-flip fault
//!    whose per-commit activation probability sweeps upward, per rate.
//! 3. **Quarantine latency** — frames a permanently-faulted pipeline
//!    worker corrupts before the detector takes it out of rotation, plus
//!    the wall-clock time to the quarantine transition.
//!
//! Sanity contracts (enforced in every mode, exercised by the `--quick`
//! CI smoke): FER/BER lie in `[0, 1]`, quality degrades monotonically
//! between the fault-free baseline and the heaviest fault point of each
//! curve, and containment drops or reorders nothing.

use dvbs2::channel::mix_seed;
use dvbs2::hardware::{
    ConnectivityRom, CoreConfig, FaultActivation, FaultScenario, HardwareDecoder, RamFault,
    TimedRamFault,
};
use dvbs2::ldpc::CodeRate;
use dvbs2::{Modcod, ModcodTable};
use dvbs2_bench::args::{parse_env, Flag, Takes};
use dvbs2_bench::json::{write_record, Json, Object};
use dvbs2_pipeline::{
    DecodePipeline, PipelineConfig, QuarantinePolicy, SoftFrame, WorkerFaultInjection,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;

const FLAGS: &[Flag] = &[
    Flag::taking("--frames", Takes::Positive("N"), "channel frames per sweep point (default 24)"),
    Flag::taking("--seed", Takes::Number("S"), "stream seed, decimal or 0x-hex (default 0xFA17)"),
    Flag::switch("--quick", "CI budget: 6 frames per point, 200 latency frames"),
];

struct Options {
    frames: u64,
    latency_frames: u64,
    seed: u64,
}

fn parse_args() -> Options {
    let args = parse_env("fault_sweep", FLAGS);
    let quick = args.has("--quick");
    Options {
        frames: args.number("--frames").unwrap_or(if quick { 6 } else { 24 }),
        latency_frames: if quick { 200 } else { 400 },
        seed: args.number("--seed").unwrap_or(0xFA17),
    }
}

fn anchor_db(rate: CodeRate) -> f64 {
    match rate {
        CodeRate::R1_2 => 1.4,
        CodeRate::R3_4 => 2.8,
        CodeRate::R8_9 => 4.2,
        _ => 2.0,
    }
}

fn sweep_table() -> ModcodTable {
    use dvbs2::channel::Modulation;
    use dvbs2::ldpc::FrameSize;
    ModcodTable::build(&[
        Modcod::new(Modulation::Bpsk, CodeRate::R1_2, FrameSize::Short),
        Modcod::new(Modulation::Bpsk, CodeRate::R3_4, FrameSize::Short),
        Modcod::new(Modulation::Bpsk, CodeRate::R8_9, FrameSize::Short),
    ])
    .unwrap()
}

/// One measured sweep point.
struct Point {
    label: String,
    fer: f64,
    ber: f64,
    mean_iterations: f64,
}

/// Decodes `frames` seeded noisy transmissions on the cycle-accurate
/// hardware model under `scenario` and measures FER/BER against the
/// transmitted codewords. A frame error is either non-convergence or a
/// converged-but-wrong word; BER counts raw bit mismatches over all `n`.
fn measure(
    table: &ModcodTable,
    slot: usize,
    scenario: FaultScenario,
    label: &str,
    frames: u64,
    seed: u64,
) -> Point {
    let entry = table.entry(slot);
    let system = entry.system();
    let code = system.code();
    // The paper's core runs a fixed 30 iterations; the sweep trades depth
    // for points (12 iterations, syndrome early stop) — degradation curves
    // compare points against the same budget, not against the paper.
    let config = CoreConfig { max_iterations: 12, early_stop: true, ..CoreConfig::default() };
    let mut hw = HardwareDecoder::with_natural_schedule(code, config);
    hw.set_scenario(scenario);
    let ebn0 = anchor_db(entry.modcod.rate) + 0.8;
    let n = entry.frame_len();
    let mut frame_errors = 0u64;
    let mut bit_errors = 0u64;
    let mut iterations = 0u64;
    for i in 0..frames {
        let mut rng = SmallRng::seed_from_u64(mix_seed(seed, i));
        let tx = system.transmit_frame(&mut rng, ebn0);
        let out = hw.decode(&tx.llrs);
        iterations += out.result.iterations as u64;
        let wrong = (0..n).filter(|&b| out.result.bits.get(b) != tx.codeword.get(b)).count() as u64;
        bit_errors += wrong;
        frame_errors += u64::from(!out.result.converged || wrong > 0);
    }
    Point {
        label: label.to_string(),
        fer: frame_errors as f64 / frames as f64,
        ber: bit_errors as f64 / (frames * n as u64) as f64,
        mean_iterations: iterations as f64 / frames as f64,
    }
}

/// `count` permanently stuck RAM words spread across the address space.
fn stuck_scenario(words: usize, count: usize) -> FaultScenario {
    let mut scenario = FaultScenario::none();
    for k in 0..count {
        let word = words * (2 * k + 1) / (2 * count);
        assert!(
            scenario.push_ram(TimedRamFault::permanent(RamFault::StuckWord { word, value: -25 })),
            "scenario capacity"
        );
    }
    scenario
}

/// Two transient full-lane bit-flip faults with a seeded per-commit
/// probability each.
fn upset_scenario(words: usize, per_mille: u32, seed: u64) -> FaultScenario {
    FaultScenario::none()
        .with_ram(TimedRamFault {
            fault: RamFault::FlippedBits { word: words / 3, mask: 0b11_1111 },
            activation: FaultActivation::Random { seed: seed as u32, per_mille },
        })
        .with_ram(TimedRamFault {
            fault: RamFault::FlippedBits { word: 2 * words / 3, mask: 0b11_1111 },
            activation: FaultActivation::Random { seed: (seed >> 32) as u32, per_mille },
        })
}

struct LatencyOutcome {
    frames: u64,
    corrupted_frames: u64,
    /// `None` when the worker was never quarantined.
    detection_ms: Option<f64>,
    quarantines: u64,
    faults_suspected: u64,
    probes_run: u64,
    dropped: u64,
    out_of_order: bool,
}

/// Streams strongly-received all-zero codewords through a 3-worker
/// pipeline whose worker 0 has a permanently corrupted input datapath,
/// and measures how long the fault lives before containment.
fn measure_quarantine_latency(table: &ModcodTable, frames: u64) -> LatencyOutcome {
    let n = table.entry(0).frame_len();
    let policy = QuarantinePolicy {
        alpha: 0.5,
        nonconv_threshold: 0.5,
        syndrome_threshold: 0.01,
        min_decodes: 3,
        probe_interval_ms: 1,
        ..QuarantinePolicy::enabled()
    };
    let pipeline = DecodePipeline::start(
        table.clone(),
        PipelineConfig {
            workers: 3,
            quarantine: policy,
            fault_injection: Some(WorkerFaultInjection::permanent(0)),
            ..PipelineConfig::default()
        },
    );
    let started = Instant::now();
    let (corrupted, detection_ms, out_of_order) = std::thread::scope(|scope| {
        let consumer = scope.spawn(|| {
            let mut corrupted = 0u64;
            let mut detection_ms = None;
            let mut out_of_order = false;
            let mut seen = 0u64;
            while let Some(frame) = pipeline.next_decoded() {
                out_of_order |= frame.seq != seen;
                seen += 1;
                corrupted += u64::from(!frame.converged);
                if detection_ms.is_none() && pipeline.stats().quarantines >= 1 {
                    detection_ms = Some(started.elapsed().as_secs_f64() * 1e3);
                }
                if seen == frames {
                    break;
                }
            }
            (corrupted, detection_ms, out_of_order)
        });
        for i in 0..frames {
            pipeline.submit(SoftFrame { modcod: 0, stream_index: i, llrs: vec![6.0; n] }).unwrap();
        }
        consumer.join().expect("consumer thread")
    });
    let stats = pipeline.finish();
    LatencyOutcome {
        frames,
        corrupted_frames: corrupted,
        detection_ms,
        quarantines: stats.quarantines,
        faults_suspected: stats.faults_suspected,
        probes_run: stats.probes_run,
        dropped: stats.dropped,
        out_of_order,
    }
}

fn curve(points: &[Point]) -> Json {
    Json::array(points.iter().map(|p| {
        Object::new()
            .with("point", p.label.as_str())
            .with("fer", Json::Num(p.fer, 4))
            .with("ber", Json::Num(p.ber, 6))
            .with("mean_iterations", Json::Num(p.mean_iterations, 2))
    }))
}

fn check_curve(
    rate: &str,
    curve: &str,
    points: &[Point],
    frames: u64,
    violations: &mut Vec<String>,
) {
    for p in points {
        if !(0.0..=1.0).contains(&p.fer) || !(0.0..=1.0).contains(&p.ber) {
            violations.push(format!(
                "[{rate}/{curve}] point {}: FER {:.4} / BER {:.6} outside [0, 1]",
                p.label, p.fer, p.ber
            ));
        }
    }
    // End-to-end monotonicity with one frame of sampling slack: the code
    // corrects low-rate transient upsets outright (flat curves are an
    // honest result), so only a baseline that decodes *better* than the
    // heaviest fault point by more than chance is a violation.
    let first = &points[0];
    let last = &points[points.len() - 1];
    let fer_slack = 1.0 / frames as f64;
    if last.fer + fer_slack < first.fer || last.ber + 1e-4 < first.ber {
        violations.push(format!(
            "[{rate}/{curve}] degradation is not monotone end to end: \
             {} (FER {:.4}, BER {:.6}) vs {} (FER {:.4}, BER {:.6})",
            first.label, first.fer, first.ber, last.label, last.fer, last.ber
        ));
    }
}

fn main() {
    let options = parse_args();
    let table = sweep_table();
    let mut violations: Vec<String> = Vec::new();
    let mut rates: Vec<Object> = Vec::new();

    let stuck_counts = [0usize, 1, 2, 4];
    let upset_rates = [0u32, 50, 200, 500];
    for slot in 0..table.len() {
        let entry = table.entry(slot);
        let rate = format!("{:?}", entry.modcod.rate);
        let code = entry.system().code();
        let words = ConnectivityRom::build(code.params(), code.table()).words();
        println!("rate {rate}: {} RAM words, n = {}", words, entry.frame_len());

        let count_points: Vec<Point> = stuck_counts
            .iter()
            .map(|&count| {
                let p = measure(
                    &table,
                    slot,
                    stuck_scenario(words, count),
                    &format!("{count} stuck"),
                    options.frames,
                    mix_seed(options.seed, slot as u64),
                );
                println!(
                    "  {:>8}: FER {:.3}  BER {:.5}  {:.1} iterations",
                    p.label, p.fer, p.ber, p.mean_iterations
                );
                p
            })
            .collect();
        check_curve(&rate, "stuck-count", &count_points, options.frames, &mut violations);

        let upset_points: Vec<Point> = upset_rates
            .iter()
            .map(|&per_mille| {
                let scenario = if per_mille == 0 {
                    FaultScenario::none()
                } else {
                    upset_scenario(words, per_mille, mix_seed(options.seed, 0xF11F))
                };
                let p = measure(
                    &table,
                    slot,
                    scenario,
                    &format!("{per_mille}/1000 upsets"),
                    options.frames,
                    mix_seed(options.seed, slot as u64),
                );
                println!(
                    "  {:>15}: FER {:.3}  BER {:.5}  {:.1} iterations",
                    p.label, p.fer, p.ber, p.mean_iterations
                );
                p
            })
            .collect();
        check_curve(&rate, "upset-rate", &upset_points, options.frames, &mut violations);

        rates.push(
            Object::new()
                .with("rate", rate)
                .with("ram_words", words)
                .with("stuck_count_curve", curve(&count_points))
                .with("upset_rate_curve", curve(&upset_points)),
        );
    }

    println!("quarantine latency: {} frames, worker 0 permanently faulted", options.latency_frames);
    let latency = measure_quarantine_latency(&table, options.latency_frames);
    println!(
        "  contained after {} corrupted frames ({:.1} ms); {} quarantine(s), \
         {} suspicion(s), {} probe(s)",
        latency.corrupted_frames,
        latency.detection_ms.unwrap_or(f64::NAN),
        latency.quarantines,
        latency.faults_suspected,
        latency.probes_run,
    );
    if latency.quarantines < 1 {
        violations.push("[latency] the faulted worker was never quarantined".into());
    }
    if latency.dropped != 0 {
        violations.push(format!("[latency] containment dropped {} frames", latency.dropped));
    }
    if latency.out_of_order {
        violations.push("[latency] containment reordered egress".into());
    }
    if latency.corrupted_frames >= latency.frames / 2 {
        violations.push(format!(
            "[latency] detection too slow: {} of {} frames corrupted",
            latency.corrupted_frames, latency.frames
        ));
    }
    let record = Object::new()
        .with("benchmark", "fault_sweep")
        .provenance()
        .with("seed", options.seed)
        .with("frames_per_point", options.frames)
        .with(
            "decoder",
            "cycle-accurate hardware core, natural schedule, 12 iterations, syndrome early stop",
        )
        .with("operating_point_db", "rate anchor + 0.8 dB")
        .with("rates", Json::array(rates))
        .with(
            "quarantine_latency",
            Object::new()
                .with("frames", latency.frames)
                .with("corrupted_frames", latency.corrupted_frames)
                .with("detection_ms", latency.detection_ms.map(|ms| Json::Num(ms, 2)))
                .with("quarantines", latency.quarantines)
                .with("faults_suspected", latency.faults_suspected)
                .with("probes_run", latency.probes_run)
                .with("dropped", latency.dropped),
        );
    write_record("BENCH_fault.json", record).expect("writing BENCH_fault.json");

    if !violations.is_empty() {
        eprintln!("\n{} contract violation(s):", violations.len());
        for v in &violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
    println!("fault sweep clean");
}
