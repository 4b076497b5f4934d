//! `kernel_lanes`: the `decoder` crate alone, one thread, at the paper's
//! Eq.-8 operating point — N = 64800, rate 1/2, Eb/N0 2.0 dB, 30 fixed
//! iterations, early stop off — through four `decode_into` lanes.

use crate::common::{median_setup, Run, SETUP_MAX, SETUP_SHARE};
use crate::frames::{frame_seed, Frame, FrameSource};
use crate::metrics::Outcome;
use crate::proc::{cpu_seconds, peak_rss_mb};
use crate::stats::{median, percentile_of, quiet_time_of};
use crate::trace::{write_jsonl, Span};
use dvbs2::decoder::{
    CheckRule, DecodeResult, Decoder, DecoderConfig, FloodingDecoder, Precision, QCheckArithmetic,
    QuantizedZigzagDecoder, Quantizer, SimdTier, TileSchedule, TiledBatchDecoder, ZigzagDecoder,
};
use dvbs2::hardware::{hw_chain_partition, CnSchedule, ConnectivityRom};
use dvbs2::ldpc::{CodeRate, FrameSize};
use dvbs2::{Dvbs2System, SystemConfig};
use std::sync::Arc;
use std::time::Instant;

const EBN0_DB: f64 = 2.0;
const ITERATIONS: usize = 30;

/// The timed lanes and how many frames each decodes per round. The counts
/// give the lanes near-equal time shares (sizing host, ms per frame: 8.9,
/// 15.7, 166, 442), so halving any one lane's speed costs `info_mbps` about
/// a fifth, and they put the percentiles where a lane's own distribution is
/// tight: p50 inside `qsimd`, p95 at the fast end of `zigzag_ms_f32`.
const LANES: [(&str, usize); 4] =
    [("qsimd", 43), ("flooding_ms_f32", 20), ("zigzag_ms_f32", 3), ("zigzag_sp_f32", 1)];

/// Distinct frames cycled through the lanes: 48 × 518 KB of LLRs, well past
/// the last-level cache, so cycling creates no cache artefact.
const POOL: usize = 48;

/// Frames decoded per `decode_batch_into` call on the tiled lane.
const TILED_BATCH: usize = 8;

fn system() -> Dvbs2System {
    Dvbs2System::new(SystemConfig {
        rate: CodeRate::R1_2,
        frame: FrameSize::Normal,
        ..SystemConfig::default()
    })
    .expect("rate 1/2 normal frames are defined")
}

fn fixed_iterations() -> DecoderConfig {
    DecoderConfig::default().with_max_iterations(ITERATIONS).with_early_stop(false)
}

fn min_sum_f32() -> DecoderConfig {
    fixed_iterations().with_rule(CheckRule::NormalizedMinSum(0.8)).with_precision(Precision::F32)
}

struct Lanes {
    rom: ConnectivityRom,
    decoders: Vec<Box<dyn Decoder>>,
    simd_tier: SimdTier,
}

struct Kernels {
    system: Dvbs2System,
    code_build_ms: f64,
    lanes: Lanes,
}

/// ROM, chain partition and the four lane decoders over a built code.
fn setup_lanes(system: &Dvbs2System) -> Lanes {
    let graph = Arc::clone(system.graph());
    let rom = ConnectivityRom::build(system.code().params(), system.code().table());
    let partition = hw_chain_partition(&rom, &CnSchedule::natural(&rom), &graph);
    let qsimd = QuantizedZigzagDecoder::with_partition(
        Arc::clone(&graph),
        QCheckArithmetic::lut(Quantizer::paper_6bit()),
        fixed_iterations(),
        partition,
    );
    let simd_tier = qsimd.simd_tier().expect("the 360-lane hardware partition is SIMD-eligible");
    let decoders: Vec<Box<dyn Decoder>> = vec![
        Box::new(qsimd),
        Box::new(FloodingDecoder::new(Arc::clone(&graph), min_sum_f32())),
        Box::new(ZigzagDecoder::new(Arc::clone(&graph), min_sum_f32())),
        Box::new(ZigzagDecoder::new(graph, fixed_iterations().with_precision(Precision::F32))),
    ];
    Lanes { rom, decoders, simd_tier }
}

/// Everything before the first timed window: code, graph, ROM, chain
/// partition, the four decoders, and one warm-up decode each.
fn setup(warm_up: &Frame) -> Kernels {
    let started = Instant::now();
    let system = system();
    let code_build_ms = started.elapsed().as_secs_f64() * 1e3;
    let mut lanes = setup_lanes(&system);
    let mut out = DecodeResult::default();
    for decoder in &mut lanes.decoders {
        decoder.decode_into(&warm_up.llrs, &mut out);
    }
    Kernels { system, code_build_ms, lanes }
}

/// Seconds and CPU seconds of one round put together from quiet windows:
/// each lane's count times the quiet decile of its single calls (a call is
/// the smallest window there is, and the smaller the window the likelier it
/// ran undisturbed), and the quiet decile of each lane's CPU per block (the
/// CPU clock ticks too coarsely for single calls).
fn quiet_round(call_ns: &[Vec<u64>], block_cpu_s: &[Vec<f64>]) -> (f64, f64) {
    let seconds = LANES
        .iter()
        .zip(call_ns)
        .map(|(lane, calls)| {
            let calls: Vec<f64> = calls.iter().map(|&ns| ns as f64 / 1e9).collect();
            lane.1 as f64 * quiet_time_of(&calls)
        })
        .sum();
    (seconds, block_cpu_s.iter().map(|blocks| quiet_time_of(blocks)).sum())
}

/// Median time of `calls` decodes by an untimed lane, as
/// `(coded Mbit/s, ns per iteration)`.
fn probe_lane(
    decoder: &mut dyn Decoder,
    pool: &[Frame],
    calls: usize,
    outcome: &mut Outcome,
) -> (f64, f64) {
    let mut out = DecodeResult::default();
    decoder.decode_into(&pool[0].llrs, &mut out);
    let mut times = Vec::new();
    for frame in pool.iter().cycle().skip(1).take(calls) {
        let started = Instant::now();
        decoder.decode_into(&frame.llrs, &mut out);
        times.push(started.elapsed().as_nanos() as f64);
        outcome.attempted += 1;
        if out.bits != frame.codeword || out.iterations != ITERATIONS {
            outcome.failed += 1;
        }
    }
    let ns = median(&times);
    (frame_mbps(pool[0].llrs.len(), ns), ns / ITERATIONS as f64)
}

fn frame_mbps(bits: usize, ns: f64) -> f64 {
    bits as f64 * 1e3 / ns
}

pub fn run(run: &Run) -> Outcome {
    let mut outcome = Outcome::default();

    // Inputs first, outside set-up and outside every timed window. The
    // 6-bit lane leaves a few residual bit errors on about one frame in
    // twenty at this Eb/N0, so a frame the two fast lanes cannot both
    // recover is replaced by the next attempt's frame: no input fails by
    // construction, and every lane's output can be held to the codeword.
    let generator = system();
    let mut screen = setup_lanes(&generator);
    let mut source = FrameSource::new(&generator, EBN0_DB);
    let mut out = DecodeResult::default();
    let mut recovers = |frame: &Frame| {
        screen.decoders[..2].iter_mut().all(|decoder| {
            decoder.decode_into(&frame.llrs, &mut out);
            out.bits == frame.codeword
        })
    };
    let pool: Vec<Frame> = (0..POOL as u64)
        .map(|index| {
            (0..)
                .map(|attempt| source.frame(frame_seed(run.seed, 0, index, attempt)))
                .find(|frame| recovers(frame))
                .expect("some attempt decodes")
        })
        .collect();
    let gen = source.times;
    drop(source);
    drop(screen);
    drop(generator);

    let (mut kernels, setup_s) =
        median_setup(SETUP_SHARE * run.seconds, SETUP_MAX, || setup(&pool[0]), drop);
    let params = *kernels.system.params();
    let (n, k) = (params.n, params.k);

    // Whole rounds until the clock runs out. A traced run spends its first
    // half untraced so the two halves give the tracing overhead.
    let per_round: usize = LANES.iter().map(|lane| lane.1).sum();
    // Indexed [traced][lane]: a traced run keeps its two halves apart.
    let mut lane_ns = [vec![Vec::new(); LANES.len()], vec![Vec::new(); LANES.len()]];
    let mut block_cpu_s = [vec![Vec::new(); LANES.len()], vec![Vec::new(); LANES.len()]];
    let mut rounds = 0usize;
    let (mut round_p50, mut round_p95) = (Vec::new(), Vec::new());
    let mut round_ns: Vec<u64> = Vec::with_capacity(per_round);
    let mut spans: Vec<Span> = Vec::new();
    let mut out = DecodeResult::default();
    let mut cursor = 0usize;
    let window = Instant::now();
    loop {
        let elapsed = window.elapsed().as_secs_f64();
        if elapsed >= run.seconds {
            break;
        }
        let tracing = run.traced && elapsed >= run.seconds / 2.0;
        let half = usize::from(tracing);
        for (lane, decoder) in kernels.lanes.decoders.iter_mut().enumerate() {
            let cpu_before = cpu_seconds();
            for _ in 0..LANES[lane].1 {
                let frame = &pool[cursor % POOL];
                let started = Instant::now();
                decoder.decode_into(&frame.llrs, &mut out);
                let ended = Instant::now();
                lane_ns[half][lane].push((ended - started).as_nanos() as u64);
                round_ns.push((ended - started).as_nanos() as u64);
                if tracing {
                    spans.push(Span {
                        frame: cursor as u64,
                        span: "decoder.decode_into",
                        parent: "",
                        layer: "decoder",
                        start_ns: run.ns(started),
                        end_ns: run.ns(ended),
                    });
                }
                outcome.attempted += 1;
                if out.bits != frame.codeword {
                    outcome.failed += 1;
                }
                if out.iterations != ITERATIONS {
                    outcome.violation(format!(
                        "{} ran {} iterations, the contract is {ITERATIONS} fixed",
                        LANES[lane].0, out.iterations
                    ));
                }
                cursor += 1;
            }
            block_cpu_s[half][lane].push(cpu_seconds() - cpu_before);
        }
        rounds += 1;
        round_p50.push(percentile_of(&round_ns, 0.50) as f64);
        round_p95.push(percentile_of(&round_ns, 0.95) as f64);
        round_ns.clear();
    }
    let wall_s = window.elapsed().as_secs_f64();

    // The SIMD lane planes against the scalar fused sweep of the same
    // partition, on the first frame: bit-exact by contract.
    let graph = Arc::clone(kernels.system.graph());
    let rom = &kernels.lanes.rom;
    let partition = hw_chain_partition(rom, &CnSchedule::natural(rom), &graph);
    let mut fused = QuantizedZigzagDecoder::with_partition_fused(
        Arc::clone(&graph),
        QCheckArithmetic::lut(Quantizer::paper_6bit()),
        fixed_iterations(),
        partition,
    );
    let simd_result = kernels.lanes.decoders[0].decode(&pool[0].llrs);
    if fused.decode(&pool[0].llrs) != simd_result {
        outcome.violation("qsimd differs from with_partition_fused on the first frame".into());
    }

    // Windows: a single call for throughput, a lane's block of calls within
    // a round for CPU cost, a whole round for the percentiles (every round
    // holds the same calls, so rounds compare like with like). The quiet
    // decile of the windows stands for the run.
    let samples = rounds * per_round;
    let round_info_mbit = (per_round * k) as f64 / 1e6;
    let (untraced_s, untraced_cpu_s) = quiet_round(&lane_ns[0], &block_cpu_s[0]);
    outcome.set("setup_s", setup_s);
    outcome.set("info_mbps", round_info_mbit / untraced_s);
    let latency_p50_ms = quiet_time_of(&round_p50) / 1e6;
    let latency_p95_ms = quiet_time_of(&round_p95) / 1e6;
    outcome.set("latency_p50_ms", latency_p50_ms);
    outcome.set("traced.latency_p50_ms", latency_p50_ms);
    outcome.set("traced.latency_p95_ms", latency_p95_ms);
    outcome.set("cpu_s_per_info_mbit", untraced_cpu_s / round_info_mbit);
    outcome.set("peak_rss_mb", peak_rss_mb());
    eprintln!(
        "kernel_lanes: {rounds} rounds of {per_round} frames, {samples} latency samples \
         (p95 {latency_p95_ms:.3} ms), {wall_s:.2} s"
    );
    if !run.traced {
        return outcome;
    }

    // Per-layer: the timed lanes, four more lanes timed here only, and what
    // set-up and generation cost.
    for (index, lane) in LANES.iter().enumerate() {
        let calls = [lane_ns[0][index].as_slice(), lane_ns[1][index].as_slice()].concat();
        let ns = percentile_of(&calls, 0.50) as f64;
        outcome.set(&format!("decoder.{}.coded_mbps", lane.0), frame_mbps(n, ns));
        outcome.set(&format!("decoder.{}.ns_per_iter", lane.0), ns / ITERATIONS as f64);
    }
    let quantizer = Quantizer::paper_6bit();
    let table_sp = fixed_iterations().with_rule(CheckRule::TableSumProduct);
    let mut extra: Vec<(&str, Box<dyn Decoder>)> = vec![
        (
            "quantized_plain",
            Box::new(QuantizedZigzagDecoder::new(
                Arc::clone(&graph),
                quantizer,
                fixed_iterations(),
            )),
        ),
        ("quantized_fused", Box::new(fused)),
        (
            "table_sp_f32",
            Box::new(FloodingDecoder::new(
                Arc::clone(&graph),
                table_sp.with_precision(Precision::F32),
            )),
        ),
    ];
    for (name, decoder) in &mut extra {
        let (mbps, ns_per_iter) = probe_lane(decoder.as_mut(), &pool, 3, &mut outcome);
        outcome.set(&format!("decoder.{name}.coded_mbps"), mbps);
        outcome.set(&format!("decoder.{name}.ns_per_iter"), ns_per_iter);
    }
    let mut tiled =
        TiledBatchDecoder::new(graph, min_sum_f32(), TileSchedule::Flooding, TILED_BATCH);
    let mut results = vec![DecodeResult::default(); TILED_BATCH];
    let mut tiled_ns = Vec::new();
    for call in 0..3 {
        let frames: Vec<&Frame> =
            pool.iter().cycle().skip(call * TILED_BATCH).take(TILED_BATCH).collect();
        let llrs: Vec<&[f64]> = frames.iter().map(|f| f.llrs.as_slice()).collect();
        let started = Instant::now();
        tiled.decode_batch_into(&llrs, &mut results);
        tiled_ns.push(started.elapsed().as_nanos() as f64 / TILED_BATCH as f64);
        for (result, frame) in results.iter().zip(&frames) {
            outcome.attempted += 1;
            if result.bits != frame.codeword {
                outcome.failed += 1;
            }
        }
    }
    // The first call also warms the tiles up; the median of three drops it.
    let ns = median(&tiled_ns);
    outcome.set("decoder.tiled_ms_f32_x8.coded_mbps", frame_mbps(n, ns));
    outcome.set("decoder.tiled_ms_f32_x8.ns_per_iter", ns / ITERATIONS as f64);
    let tier = SimdTier::ALL.iter().position(|t| *t == kernels.lanes.simd_tier).unwrap_or(0);
    outcome.set("decoder.simd_tier", tier as f64);
    outcome.set("ldpc.code_build_ms", kernels.code_build_ms);
    outcome.set("ldpc.encode_us_per_frame", gen.encode_us_per_frame());
    outcome.set("channel.transmit_us_per_frame", gen.transmit_us_per_frame());
    outcome.set("channel.demap_us_per_frame", gen.demap_us_per_frame());
    outcome.set("loadgen.gen_s", gen.total_s());
    outcome.set("loadgen.latency_samples", samples as f64);
    let traced_rounds = block_cpu_s[1][0].len();
    outcome.set("traced.frames", (traced_rounds * per_round) as f64);
    outcome.set("traced.mean_iterations", ITERATIONS as f64);
    if traced_rounds > 0 && traced_rounds < rounds {
        let (traced_s, _) = quiet_round(&lane_ns[1], &block_cpu_s[1]);
        outcome.set("traced.info_mbps", round_info_mbit / traced_s);
        outcome.set("trace.overhead_frac", 1.0 - untraced_s / traced_s);
    }
    outcome.set("trace.spans", spans.len() as f64);
    let path = run.out_dir.join("trace-kernel_lanes.jsonl");
    if let Err(err) = write_jsonl(&path, &spans) {
        outcome.violation(format!("writing {}: {err}", path.display()));
    }
    outcome
}
