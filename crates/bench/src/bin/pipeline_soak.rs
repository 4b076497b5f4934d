//! Streaming-pipeline soak: sustained multi-threaded mixed-rate decoding
//! with bounded memory, checked against a single-threaded reference.
//!
//! Two phases:
//!
//! 1. **Parity** — admission control off, blocking submits. The decoded
//!    stream must be *bit-identical* to decoding the same seeded frame
//!    stream single-threaded, in exact submission order. Sustained decode
//!    throughput (Mbit/s) is recorded.
//! 2. **Backpressure** — tiny queues, `try_submit` with retry, adaptive
//!    admission. The pipeline must reject explicitly instead of dropping:
//!    zero dropped frames, in-order output, bounded queue watermarks.
//!
//! Results land in `BENCH_pipeline.json` at the repository root. Any
//! violated contract prints and exits non-zero (the `pipeline-soak` CI job
//! runs `--quick`).

use dvbs2::channel::{mix_seed, FrameTag, LlrSource, Modulation};
use dvbs2::ldpc::{BitVec, CodeRate, FrameSize};
use dvbs2::{Modcod, ModcodTable};
use dvbs2_bench::args::{parse_env, Flag, Takes};
use dvbs2_bench::json::{write_record, Json, Object};
use dvbs2_pipeline::{
    AdmissionPolicy, DecodePipeline, DecodedFrame, PipelineConfig, PipelineStats, SoftFrame,
    SubmitError,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;

const FLAGS: &[Flag] = &[
    Flag::taking("--frames", Takes::Positive("N"), "frames per phase (default 400)"),
    Flag::taking("--seed", Takes::Number("S"), "stream seed, decimal or 0x-hex (default 0x50AC)"),
    Flag::taking(
        "--workers",
        Takes::Positive("W"),
        "worker threads (default: available parallelism)",
    ),
    Flag::switch("--quick", "CI budget: 160 parity + 96 backpressure frames"),
];

struct Options {
    frames: u64,
    backpressure_frames: u64,
    seed: u64,
    workers: usize,
}

fn parse_args() -> Options {
    let args = parse_env("pipeline_soak", FLAGS);
    let frames = args.number("--frames").unwrap_or(if args.has("--quick") { 160 } else { 400 });
    Options {
        frames,
        backpressure_frames: (frames * 3 / 5).max(1),
        seed: args.number("--seed").unwrap_or(0x50AC),
        workers: args
            .number("--workers")
            .map_or_else(dvbs2::channel::default_threads, |w| w as usize),
    }
}

/// Deterministic index-addressed mixed-rate stream: frame `i` transmits
/// under slot `i % 3`, seeded by `mix_seed(seed, i)` — the same bits no
/// matter which thread generates or decodes it.
struct SoakSource {
    table: ModcodTable,
    seed: u64,
    ebn0_offset_db: f64,
}

fn anchor_db(rate: CodeRate) -> f64 {
    match rate {
        CodeRate::R1_2 => 1.4,
        CodeRate::R3_4 => 2.8,
        CodeRate::R8_9 => 4.2,
        _ => 2.0,
    }
}

impl LlrSource for SoakSource {
    fn tag(&self, index: u64) -> FrameTag {
        FrameTag { stream_index: index, modcod: (index % self.table.len() as u64) as usize }
    }

    fn fill(&mut self, index: u64, out: &mut Vec<f64>) {
        let tag = self.tag(index);
        let entry = self.table.entry(tag.modcod);
        let mut rng = SmallRng::seed_from_u64(mix_seed(self.seed, index));
        let ebn0 = anchor_db(entry.modcod.rate) + self.ebn0_offset_db;
        let frame = entry.system().transmit_frame(&mut rng, ebn0);
        out.clear();
        out.extend_from_slice(&frame.llrs);
    }
}

fn soak_table() -> ModcodTable {
    ModcodTable::build(&[
        Modcod::new(Modulation::Bpsk, CodeRate::R1_2, FrameSize::Short),
        Modcod::new(Modulation::Bpsk, CodeRate::R3_4, FrameSize::Short),
        Modcod::new(Modulation::Bpsk, CodeRate::R8_9, FrameSize::Short),
    ])
    .unwrap()
}

/// Pre-materialized stream (generation off the decode clock).
fn materialize(source: &mut SoakSource, frames: u64) -> Vec<SoftFrame> {
    (0..frames).map(|i| SoftFrame::from(source.frame(i))).collect()
}

struct PhaseOutcome {
    outputs: Vec<DecodedFrame>,
    stats: PipelineStats,
    seconds: f64,
    rejections: u64,
}

/// Blocking-submit run: every frame admitted, consumer drains concurrently.
fn run_parity_phase(table: &ModcodTable, stream: &[SoftFrame], workers: usize) -> PhaseOutcome {
    let pipeline = DecodePipeline::start(
        table.clone(),
        PipelineConfig {
            workers,
            ingress_capacity: 32,
            max_in_flight: 96,
            admission: AdmissionPolicy::Off,
            ..PipelineConfig::default()
        },
    );
    let started = Instant::now();
    let outputs = std::thread::scope(|scope| {
        let consumer = scope.spawn(|| {
            let mut outputs = Vec::with_capacity(stream.len());
            while let Some(frame) = pipeline.next_decoded() {
                outputs.push(frame);
                if outputs.len() == stream.len() {
                    break;
                }
            }
            outputs
        });
        for frame in stream {
            pipeline.submit(frame.clone()).expect("blocking submit only fails at shutdown");
        }
        consumer.join().expect("consumer thread")
    });
    let seconds = started.elapsed().as_secs_f64();
    PhaseOutcome { outputs, stats: pipeline.finish(), seconds, rejections: 0 }
}

/// Try-submit run under pressure: tiny queues, adaptive admission.
fn run_backpressure_phase(
    table: &ModcodTable,
    stream: &[SoftFrame],
    workers: usize,
) -> PhaseOutcome {
    let pipeline = DecodePipeline::start(
        table.clone(),
        PipelineConfig {
            workers: workers.min(2),
            ingress_capacity: 4,
            max_in_flight: 10,
            admission: AdmissionPolicy::Adaptive { min_iterations: 4 },
            ..PipelineConfig::default()
        },
    );
    let started = Instant::now();
    let (outputs, rejections) = std::thread::scope(|scope| {
        let consumer = scope.spawn(|| {
            let mut outputs = Vec::with_capacity(stream.len());
            while let Some(frame) = pipeline.next_decoded() {
                outputs.push(frame);
                if outputs.len() == stream.len() {
                    break;
                }
            }
            outputs
        });
        let mut rejections = 0u64;
        for frame in stream {
            let mut pending = frame.clone();
            loop {
                match pipeline.try_submit(pending) {
                    Ok(_) => break,
                    Err(SubmitError::Rejected(back)) => {
                        rejections += 1;
                        pending = back;
                        std::thread::yield_now();
                    }
                    Err(other) => panic!("unexpected submit error: {other:?}"),
                }
            }
        }
        (consumer.join().expect("consumer thread"), rejections)
    });
    let seconds = started.elapsed().as_secs_f64();
    PhaseOutcome { outputs, stats: pipeline.finish(), seconds, rejections }
}

/// Single-threaded reference over the same stream: one reused decoder per
/// slot, frames in order — what the pipeline output must match bit for bit.
fn reference_decode(table: &ModcodTable, stream: &[SoftFrame]) -> (Vec<BitVec>, f64) {
    let mut decoders: Vec<_> = (0..table.len()).map(|s| table.entry(s).make_decoder()).collect();
    let started = Instant::now();
    let bits = stream.iter().map(|frame| decoders[frame.modcod].decode(&frame.llrs).bits).collect();
    (bits, started.elapsed().as_secs_f64())
}

fn info_megabits(table: &ModcodTable, stream: &[SoftFrame]) -> f64 {
    stream.iter().map(|f| table.entry(f.modcod).info_len() as f64).sum::<f64>() / 1e6
}

fn coded_megabits(stream: &[SoftFrame]) -> f64 {
    stream.iter().map(|f| f.llrs.len() as f64).sum::<f64>() / 1e6
}

fn check_common(
    label: &str,
    outcome: &PhaseOutcome,
    expected_frames: u64,
    violations: &mut Vec<String>,
) {
    let stats = &outcome.stats;
    let mut check = |ok: bool, what: String| {
        if !ok {
            violations.push(format!("[{label}] {what}"));
        }
    };
    check(
        outcome.outputs.len() as u64 == expected_frames,
        format!("consumed {} of {expected_frames} frames", outcome.outputs.len()),
    );
    for (i, out) in outcome.outputs.iter().enumerate() {
        if out.seq != i as u64 || out.stream_index != i as u64 {
            check(
                false,
                format!(
                    "out-of-order at position {i}: seq {} stream {}",
                    out.seq, out.stream_index
                ),
            );
            break;
        }
    }
    check(stats.dropped == 0, format!("{} dropped frames", stats.dropped));
    check(stats.submitted == expected_frames, format!("submitted {}", stats.submitted));
    check(stats.decoded == expected_frames, format!("decoded {}", stats.decoded));
    check(stats.emitted == expected_frames, format!("emitted {}", stats.emitted));
    check(
        stats.offered == stats.submitted + stats.rejected,
        format!(
            "offered {} != submitted {} + rejected {}",
            stats.offered, stats.submitted, stats.rejected
        ),
    );
    check(
        stats.histogram_total() == stats.decoded,
        format!("histogram total {} != decoded {}", stats.histogram_total(), stats.decoded),
    );
    check(stats.in_flight == 0, format!("{} frames still in flight", stats.in_flight));
}

fn main() {
    let options = parse_args();
    let table = soak_table();
    let mut violations: Vec<String> = Vec::new();

    // ---- phase 1: bit parity at an operating point with plenty of early
    // stops (this is where sustained throughput is measured) ---------------
    let mut source = SoakSource { table: table.clone(), seed: options.seed, ebn0_offset_db: 0.6 };
    let stream = materialize(&mut source, options.frames);
    println!(
        "parity phase: {} frames, {} workers, slots {:?}",
        options.frames,
        options.workers,
        (0..table.len()).map(|s| table.entry(s).modcod.rate).collect::<Vec<_>>()
    );
    let (reference, reference_seconds) = reference_decode(&table, &stream);
    let parity = run_parity_phase(&table, &stream, options.workers);
    check_common("parity", &parity, options.frames, &mut violations);
    let mismatches = parity
        .outputs
        .iter()
        .zip(&reference)
        .filter(|(out, reference_bits)| &out.bits != *reference_bits)
        .count();
    if mismatches > 0 {
        violations.push(format!(
            "[parity] {mismatches} of {} frames differ from the single-threaded reference",
            options.frames
        ));
    }
    if parity.stats.rejected != 0 {
        violations.push(format!(
            "[parity] blocking submits must never reject ({} rejected)",
            parity.stats.rejected
        ));
    }
    let parity_info_mbps = info_megabits(&table, &stream) / parity.seconds;
    let parity_coded_mbps = coded_megabits(&stream) / parity.seconds;
    let speedup = reference_seconds / parity.seconds;
    let speedup_note = if options.workers == 1 {
        "single vCPU (no speedup comparison)".to_string()
    } else {
        format!("{speedup:.2}x vs single thread")
    };
    println!(
        "parity: {:.1} info Mbit/s ({:.1} coded), {speedup_note}, \
         early-stop rate {:.0}%, mean {:.1} iterations",
        parity_info_mbps,
        parity_coded_mbps,
        100.0 * parity.stats.early_stop_rate(),
        parity.stats.mean_iterations(),
    );

    // ---- per-worker-count scaling over the same parity stream ------------
    // Recorded honestly: on a single-vCPU host the extra workers only add
    // contention, and the rows show it instead of a lone `workers: 1` entry
    // masking the question.
    let scaling_counts: [usize; 3] = [1, 2, 4];
    let mut scaling_rows: Vec<(usize, f64, f64)> = Vec::new();
    for &w in &scaling_counts {
        let run = run_parity_phase(&table, &stream, w);
        check_common(&format!("scaling-w{w}"), &run, options.frames, &mut violations);
        let mbps = info_megabits(&table, &stream) / run.seconds;
        scaling_rows.push((w, run.seconds, mbps));
        println!(
            "scaling: {w} worker(s) -> {:.1} info Mbit/s ({:.2}x of 1 worker)",
            mbps,
            mbps / scaling_rows[0].2
        );
    }

    // ---- phase 2: backpressure under pressure (harder frames, tiny
    // queues, adaptive admission) ------------------------------------------
    let mut source =
        SoakSource { table: table.clone(), seed: options.seed ^ 0xBACC, ebn0_offset_db: -0.4 };
    let pressure_stream = materialize(&mut source, options.backpressure_frames);
    println!(
        "backpressure phase: {} frames, {} workers, ingress capacity 4",
        options.backpressure_frames,
        options.workers.min(2)
    );
    let pressure = run_backpressure_phase(&table, &pressure_stream, options.workers);
    check_common("backpressure", &pressure, options.backpressure_frames, &mut violations);
    if pressure.stats.rejected != pressure.rejections {
        violations.push(format!(
            "[backpressure] rejection accounting: stats {} vs caller {}",
            pressure.stats.rejected, pressure.rejections
        ));
    }
    if pressure.stats.ingress_watermark > 4 {
        violations.push(format!(
            "[backpressure] ingress watermark {} exceeds capacity 4",
            pressure.stats.ingress_watermark
        ));
    }
    let pressure_info_mbps = info_megabits(&table, &pressure_stream) / pressure.seconds;
    println!(
        "backpressure: {:.1} info Mbit/s, {} rejections, {} shed decodes, watermark {}",
        pressure_info_mbps,
        pressure.rejections,
        pressure.stats.shed,
        pressure.stats.ingress_watermark,
    );

    // ---- record ----------------------------------------------------------
    let phase = |frames: u64, seconds: f64, info_mbps: f64| {
        Object::new()
            .with("frames", frames)
            .with("seconds", Json::Num(seconds, 3))
            .with("info_mbps", Json::Num(info_mbps, 3))
    };
    // On a single-vCPU host a parallel-vs-serial ratio only measures pipeline
    // overhead, so flag the situation instead of recording a misleading number.
    let parity_record = phase(options.frames, parity.seconds, parity_info_mbps)
        .with("coded_mbps", Json::Num(parity_coded_mbps, 3));
    let parity_record = if options.workers == 1 {
        parity_record.with("single_vcpu", true)
    } else {
        parity_record.with("speedup_vs_single_thread", Json::Num(speedup, 3))
    };
    let record = Object::new()
        .with("benchmark", "pipeline_soak")
        .provenance()
        .with("seed", options.seed)
        .with("workers", options.workers)
        .with("slots", Json::array(["1/2 short", "3/4 short", "8/9 short"]))
        .with("units", "sustained decoded Mbit/s over the whole phase, frame generation excluded")
        .with(
            "parity",
            parity_record
                .with("early_stop_rate", Json::Num(parity.stats.early_stop_rate(), 4))
                .with("mean_iterations", Json::Num(parity.stats.mean_iterations(), 3)),
        )
        .with(
            "worker_scaling",
            Json::array(scaling_rows.iter().map(|&(w, seconds, mbps)| {
                Object::new()
                    .with("workers", w)
                    .with("seconds", Json::Num(seconds, 3))
                    .with("info_mbps", Json::Num(mbps, 3))
                    .with("scaling_vs_1_worker", Json::Num(mbps / scaling_rows[0].2, 3))
            })),
        )
        .with(
            "backpressure",
            phase(options.backpressure_frames, pressure.seconds, pressure_info_mbps)
                .with("rejected", pressure.stats.rejected)
                .with("shed", pressure.stats.shed)
                .with("dropped", pressure.stats.dropped)
                .with("ingress_watermark", pressure.stats.ingress_watermark),
        );
    write_record("BENCH_pipeline.json", record).expect("writing BENCH_pipeline.json");

    if !violations.is_empty() {
        eprintln!("\n{} contract violation(s):", violations.len());
        for v in &violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
    println!("pipeline soak clean");
}
