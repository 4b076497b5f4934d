//! `hw_paper_point`: the `hardware` crate alone, one thread — the
//! cycle-accurate core at the paper's headline point (6 bit, 30 iterations,
//! P_IO = 10, N = 64800 rate 1/2 at 1.4 dB) through `decode_quantized`.
//! Host time and simulated time are both reported and never mixed.

use crate::common::{median_setup, Run, SETUP_MAX, SETUP_SHARE};
use crate::frames::{frame_seed, FrameSource};
use crate::metrics::Outcome;
use crate::proc::{cpu_seconds, peak_rss_mb};
use crate::stats::{median, quiet_percentile, quiet_rate_of, quiet_time_of};
use crate::trace::{write_jsonl, Span};
use dvbs2::hardware::{
    CnSchedule, ConnectivityRom, CoreConfig, DecoderFabric, FabricConfig, GoldenModel,
    HardwareDecoder, HwDecodeOutput, ThroughputModel, ST_0_13_UM,
};
use dvbs2::ldpc::{CodeRate, DvbS2Code, FrameSize};
use dvbs2::{Dvbs2System, SystemConfig};
use std::time::Instant;

const EBN0_DB: f64 = 1.4;

/// Distinct quantized frames cycled through the core. The simulator is
/// deterministic, so every repeat of a pool frame must reproduce the first
/// result exactly, and the golden model runs once per pool frame.
const POOL: usize = 8;

/// Calls per window: CPU cost and the latency percentiles are the quiet
/// decile over windows this long (throughput is per call, the smallest
/// window there is). Every call does the same simulated work, so a window's
/// p95 says how still the host held.
const WINDOW: usize = 10;

/// Frames in the four-core fabric pass of the traced run.
const FABRIC_FRAMES: usize = 8;

struct Simulators {
    code: DvbS2Code,
    core: HardwareDecoder,
    golden: GoldenModel,
    code_build_ms: f64,
}

/// Everything before the first timed window: the code, the core, the golden
/// model, and one warm-up decode on each.
fn setup(warm_up: &[i32]) -> Simulators {
    let started = Instant::now();
    let code = DvbS2Code::new(CodeRate::R1_2, FrameSize::Normal)
        .expect("rate 1/2 normal frames are defined");
    let code_build_ms = started.elapsed().as_secs_f64() * 1e3;
    let config = CoreConfig::default();
    let mut core = HardwareDecoder::with_natural_schedule(&code, config);
    let rom = ConnectivityRom::build(code.params(), code.table());
    let mut golden = GoldenModel::new(
        &code,
        CnSchedule::natural(&rom),
        config.quantizer,
        config.max_iterations,
        config.early_stop,
    );
    core.decode_quantized(warm_up);
    golden.decode_quantized(warm_up);
    Simulators { code, core, golden, code_build_ms }
}

pub fn run(run: &Run) -> Outcome {
    let mut outcome = Outcome::default();
    let quantizer = CoreConfig::default().quantizer;

    let generator = Dvbs2System::new(SystemConfig {
        rate: CodeRate::R1_2,
        frame: FrameSize::Normal,
        ..SystemConfig::default()
    })
    .expect("rate 1/2 normal frames are defined");
    let mut source = FrameSource::new(&generator, EBN0_DB);
    let pool: Vec<Vec<i32>> = (0..POOL as u64)
        .map(|i| {
            let frame = source.frame(frame_seed(run.seed, 0, i, 0));
            frame.llrs.iter().map(|&llr| quantizer.quantize(llr)).collect()
        })
        .collect();
    let gen = source.times;
    drop(source);

    let (mut sims, setup_s) =
        median_setup(SETUP_SHARE * run.seconds, SETUP_MAX, || setup(&pool[0]), drop);
    let k = sims.code.params().k;

    // The timed window: frames through the core until the clock runs out.
    // A traced run keeps spans for its second half only.
    let mut first: Vec<Option<HwDecodeOutput>> = vec![None; POOL];
    let mut call_ns = [Vec::new(), Vec::new()];
    let mut spans: Vec<Span> = Vec::new();
    let mut mismatches = 0u64;
    let mut cpu_marks = vec![cpu_seconds()];
    let window = Instant::now();
    let mut frame = 0usize;
    while window.elapsed().as_secs_f64() < run.seconds || frame < WINDOW {
        let tracing = run.traced && window.elapsed().as_secs_f64() >= run.seconds / 2.0;
        let started = Instant::now();
        let output = sims.core.decode_quantized(&pool[frame % POOL]);
        let ended = Instant::now();
        call_ns[usize::from(tracing)].push((ended - started).as_nanos() as u64);
        if tracing {
            spans.push(Span {
                frame: frame as u64,
                span: "hardware.decode_quantized",
                parent: "",
                layer: "hardware",
                start_ns: run.ns(started),
                end_ns: run.ns(ended),
            });
        }
        let slot = &mut first[frame % POOL];
        if let Some(reference) = slot.as_ref() {
            mismatches += u64::from(*reference != output);
        } else {
            *slot = Some(output);
        }
        frame += 1;
        if frame.is_multiple_of(WINDOW) {
            cpu_marks.push(cpu_seconds());
        }
    }
    let wall_s = window.elapsed().as_secs_f64();
    let frames = frame;

    // Every frame against the golden model: each repeat matched its pool
    // frame's first result above, and each first result is checked here.
    let mut golden_ns = Vec::new();
    let mut wrong = [false; POOL];
    for (index, channel) in pool.iter().enumerate() {
        let Some(reference) = &first[index] else { continue };
        let started = Instant::now();
        let golden = sims.golden.decode_quantized(channel);
        golden_ns.push(started.elapsed().as_nanos() as f64);
        wrong[index] = golden != reference.result;
    }
    outcome.attempted = frames as u64;
    outcome.failed = mismatches + (0..frames).filter(|f| wrong[f % POOL]).count() as u64;
    if mismatches > 0 {
        outcome.violation(format!("{mismatches} repeats of a frame changed the core's output"));
    }

    // The degenerate one-core fabric must be cycle-identical to the core.
    let reference = first[0].as_ref().expect("the window decodes at least one frame");
    let mut single = DecoderFabric::with_natural_schedule(
        &sims.code,
        FabricConfig::single(CoreConfig::default()),
    );
    let lone = single.decode_quantized_batch(&pool[..1]);
    if lone.outputs[0] != *reference
        || lone.stats.makespan_cycles != reference.cycles.total_cycles as u64
    {
        outcome.violation("FabricConfig::single is not cycle-identical to the bare core".into());
    }

    // Throughput per call (a wrong frame delivers nothing), CPU cost per
    // whole window of calls. Host time is the calls' own, without the
    // harness's checks between them.
    let all: Vec<u64> = call_ns.iter().flatten().copied().collect();
    let info_mbit = |frame: usize| if wrong[frame % POOL] { 0.0 } else { k as f64 / 1e6 };
    let rates: Vec<f64> =
        all.iter().enumerate().map(|(frame, &ns)| info_mbit(frame) * 1e9 / ns as f64).collect();
    let cpu_costs: Vec<f64> = cpu_marks
        .windows(2)
        .enumerate()
        .map(|(index, marks)| {
            let first = index * WINDOW;
            (marks[1] - marks[0]) / (first..first + WINDOW).map(info_mbit).sum::<f64>()
        })
        .collect();
    outcome.set("setup_s", setup_s);
    outcome.set("info_mbps", quiet_rate_of(&rates));
    let latency_p50_ms = quiet_percentile(&all, WINDOW, 0.50) / 1e6;
    let latency_p95_ms = quiet_percentile(&all, WINDOW, 0.95) / 1e6;
    outcome.set("latency_p50_ms", latency_p50_ms);
    outcome.set("traced.latency_p50_ms", latency_p50_ms);
    outcome.set("traced.latency_p95_ms", latency_p95_ms);
    outcome.set("cpu_s_per_info_mbit", quiet_time_of(&cpu_costs));
    outcome.set("peak_rss_mb", peak_rss_mb());
    eprintln!(
        "hw_paper_point: {frames} frames ({} latency samples, p95 {latency_p95_ms:.3} ms), \
         {wall_s:.2} s",
        all.len()
    );
    if !run.traced {
        return outcome;
    }

    // Per-layer. Simulated counts repeat exactly; host times do not.
    let cycles = reference.cycles;
    let clock_mhz = ST_0_13_UM.max_clock_mhz;
    let core_ns = median(&all.iter().map(|&ns| ns as f64).collect::<Vec<_>>());
    outcome.set("hardware.sim_cycles_per_frame", cycles.total_cycles as f64);
    outcome.set("hardware.io_cycles", cycles.io_cycles as f64);
    outcome.set("hardware.info_phase_cycles", cycles.info_phase_cycles as f64);
    outcome.set("hardware.check_phase_cycles", cycles.check_phase_cycles as f64);
    outcome.set("hardware.max_buffer", cycles.max_buffer as f64);
    outcome.set("hardware.sim_info_mbps", cycles.throughput_mbps(clock_mhz, k));
    outcome.set("hardware.host_ns_per_sim_cycle", core_ns / cycles.total_cycles as f64);
    outcome.set("hardware.core_ms_per_frame", core_ns / 1e6);
    outcome.set("hardware.golden_ms_per_frame", median(&golden_ns) / 1e6);
    let model_cycles = ThroughputModel::paper(&ST_0_13_UM).cycles(sims.code.params()) as f64;
    outcome.set(
        "hardware.eq8_model_error_frac",
        (model_cycles - cycles.total_cycles as f64).abs() / cycles.total_cycles as f64,
    );
    let mut fabric = DecoderFabric::with_natural_schedule(&sims.code, FabricConfig::default());
    let batch: Vec<Vec<i32>> = pool.iter().cycle().take(FABRIC_FRAMES).cloned().collect();
    let pass = fabric.decode_quantized_batch(&batch);
    for (output, channel_index) in pass.outputs.iter().zip((0..POOL).cycle()) {
        if first[channel_index].as_ref().is_some_and(|r| r.result != output.result) {
            outcome.violation("a fabric core decoded differently from the bare core".into());
        }
    }
    outcome.set("hardware.fabric_p4.makespan_cycles", pass.stats.makespan_cycles as f64);
    outcome.set("hardware.fabric_p4.bus_utilization", pass.stats.bus_utilization());
    outcome.set("hardware.fabric_p4.stall_cycles", pass.stats.stall_cycles as f64);
    outcome.set(
        "hardware.fabric_p4.sim_info_mbps",
        pass.stats.aggregate_throughput_mbps(clock_mhz, k),
    );
    outcome.set("ldpc.code_build_ms", sims.code_build_ms);
    outcome.set("ldpc.encode_us_per_frame", gen.encode_us_per_frame());
    outcome.set("channel.transmit_us_per_frame", gen.transmit_us_per_frame());
    outcome.set("channel.demap_us_per_frame", gen.demap_us_per_frame());
    outcome.set("loadgen.gen_s", gen.total_s());
    outcome.set("loadgen.latency_samples", all.len() as f64);
    let rate = |samples: &[u64]| {
        let total: u64 = samples.iter().sum();
        (samples.len() * k) as f64 * 1e3 / total.max(1) as f64
    };
    outcome.set("traced.info_mbps", rate(&call_ns[1]));
    outcome.set("traced.frames", call_ns[1].len() as f64);
    outcome.set("traced.mean_iterations", cycles.iterations as f64);
    if !call_ns[0].is_empty() && !call_ns[1].is_empty() {
        outcome.set("trace.overhead_frac", 1.0 - rate(&call_ns[1]) / rate(&call_ns[0]));
    }
    outcome.set("trace.spans", spans.len() as f64);
    let path = run.out_dir.join("trace-hw_paper_point.jsonl");
    if let Err(err) = write_jsonl(&path, &spans) {
        outcome.violation(format!("writing {}: {err}", path.display()));
    }
    outcome
}
