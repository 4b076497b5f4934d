//! Fabric scaling sweep: the cycle-accurate multi-core [`DecoderFabric`]
//! against the extended Eq. 8 [`FabricModel`], for P ∈ {1, 2, 4, 8, 16}
//! cores across rate and frame-size points.
//!
//! For every point the sweep decodes one batch through the modeled
//! interconnect (shared front-end bus, link latency 2, round-robin
//! arbitration), records the measured makespan next to the calibrated
//! model's prediction, and reports the contention counters (stall cycles,
//! arbitration losses, queue high-water, bus utilization). A final section
//! answers the ROADMAP question: what P — and what front-end width — would
//! 10 Gbit/s take?
//!
//! Results land in `BENCH_fabric.json` at the repository root. Exits
//! non-zero when the model misses a measured makespan by more than the
//! gate, when throughput is not monotone in P, or when a fabric run breaks
//! the serial bound.
//!
//! Run: `cargo run --release -p dvbs2-bench --bin fabric_scaling [--quick]`
//! (`--quick` trims the point list and batch size for CI.)

use dvbs2::decoder::{DecoderConfig, QCheckArithmetic, QuantizedZigzagDecoder, Quantizer};
use dvbs2::hardware::{
    hw_chain_partition, Arbitration, CnSchedule, ConnectivityRom, CoreConfig, DecoderFabric,
    FabricConfig, FabricModel, GoldenModel, HardwareDecoder, ST_0_13_UM,
};
use dvbs2::ldpc::{CodeRate, DvbS2Code, FrameSize};
use dvbs2::{Dvbs2System, SystemConfig};
use dvbs2_bench::args::{parse_env, Flag};
use dvbs2_bench::json::{write_record, Json, Object};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

const FLAGS: &[Flag] = &[Flag::switch("--quick", "CI budget: trims the point list and batch size")];

const CORES: [usize; 5] = [1, 2, 4, 8, 16];
/// Accept up to this much relative error between the extended Eq. 8
/// makespan and the cycle-accurate measurement. The model idealizes the
/// wave structure (it has no per-frame arbitration jitter), so it is not
/// exact under contention — but it must stay a *model*, not a guess.
const MAKESPAN_GATE_PCT: f64 = 5.0;
/// The cycle-accurate core may cost this many times the software lane
/// reference's frame. At the paper's point both run the same row kernels
/// and the same variable-node sums (`i8` words, `i16` sums) over the same
/// frame: the core keeps its whole message RAM in the narrowest word its
/// quantizer allows. The core adds the per-cycle memory walk and one move
/// per word per phase, the plain rotation at commit (`BENCH_fabric.json`
/// records the ratio; on the recording host it read 1.4–2.0× over ten
/// runs, 2.0–2.3× alternated with eight of them while the information
/// image was `i16`, 2.2–2.9× while the check rows were too, and the
/// per-unit loop costs about 13× the `i16` lanes). Beyond the gate the
/// array has left the lanes, or the core copies its words again.
const CORE_OVER_LANES_GATE: f64 = 3.0;

struct Row {
    rate: CodeRate,
    frame: FrameSize,
    cores: usize,
    frames: usize,
    measured_makespan: u64,
    predicted_makespan: f64,
    err_pct: f64,
    serial_cycles: u64,
    stall_cycles: u64,
    arbitration_losses: u64,
    queue_high_water: usize,
    bus_utilization: f64,
    measured_mbps: f64,
    model_mbps: f64,
    io_ceiling_mbps: f64,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let quick = parse_env("fabric_scaling", FLAGS).has("--quick");
    let points: &[(CodeRate, FrameSize)] = if quick {
        &[(CodeRate::R1_2, FrameSize::Short), (CodeRate::R3_4, FrameSize::Short)]
    } else {
        &[
            (CodeRate::R1_4, FrameSize::Short),
            (CodeRate::R1_2, FrameSize::Short),
            (CodeRate::R3_4, FrameSize::Short),
            (CodeRate::R1_2, FrameSize::Normal),
            (CodeRate::R9_10, FrameSize::Normal),
        ]
    };
    let iterations = if quick { 3 } else { 8 };
    let batch = if quick { 16 } else { 32 };
    let clock = ST_0_13_UM.max_clock_mhz;

    println!(
        "fabric scaling: {} points x P in {CORES:?}, {batch}-frame batches, \
         {iterations} iterations, link latency 2, round-robin bus, {clock} MHz\n",
        points.len()
    );

    let mut rows: Vec<Row> = Vec::new();
    let mut violations: Vec<String> = Vec::new();

    for &(rate, frame) in points {
        let code = DvbS2Code::new(rate, frame)?;
        let params = *code.params();
        let sys = Dvbs2System::new(SystemConfig { rate, frame, ..SystemConfig::default() })?;
        let mut rng = SmallRng::seed_from_u64(0xFAB5 ^ rate as u64);
        let core =
            CoreConfig { max_iterations: iterations, early_stop: false, ..CoreConfig::default() };
        // Fabric timing is data-independent, so the channel content only
        // has to be realistic, not varied: one noisy frame per slot.
        let frames: Vec<Vec<f64>> =
            (0..batch).map(|_| sys.transmit_frame(&mut rng, 6.0).llrs).collect();

        println!("{rate} {frame:?} ({} info bits, {} channel values):", params.k, params.n);
        println!(
            "  {:>3} {:>12} {:>12} {:>7} {:>8} {:>7} {:>5} {:>6} {:>10} {:>10}",
            "P",
            "measured",
            "predicted",
            "err%",
            "stalls",
            "arblos",
            "hiwat",
            "bus%",
            "Mbit/s",
            "model"
        );

        let mut last_mbps = 0.0;
        for &cores in &CORES {
            let config = FabricConfig {
                cores,
                core,
                link_latency: 2,
                arbitration: Arbitration::RoundRobin { start: 0 },
            };
            let mut fabric = DecoderFabric::with_natural_schedule(&code, config);
            let quantized: Vec<Vec<i32>> =
                frames.iter().map(|llrs| fabric.quantize_channel(llrs)).collect();
            let out = fabric.decode_quantized_batch(&quantized);

            let model = FabricModel::paper(&ST_0_13_UM, cores)
                .with_iterations(iterations)
                .calibrated(&out.outputs[0].cycles);
            let predicted = model.makespan_cycles(&params, batch);
            let measured = out.stats.makespan_cycles;
            let err_pct = (measured as f64 / predicted - 1.0) * 100.0;
            let serial = DecoderFabric::serial_cycles(&out.outputs)
                + out.outputs.len() as u64 * 2 * config.link_latency as u64;
            let measured_mbps = out.stats.aggregate_throughput_mbps(clock, params.k);
            let model_mbps = model.aggregate_mbps(&params);
            let row = Row {
                rate,
                frame,
                cores,
                frames: batch,
                measured_makespan: measured,
                predicted_makespan: predicted,
                err_pct,
                serial_cycles: serial,
                stall_cycles: out.stats.stall_cycles,
                arbitration_losses: out.stats.arbitration_losses,
                queue_high_water: out.stats.queue_high_water,
                bus_utilization: out.stats.bus_utilization(),
                measured_mbps,
                model_mbps,
                io_ceiling_mbps: model.io_ceiling_mbps(&params),
            };
            println!(
                "  {:>3} {:>12} {:>12.0} {:>6.2}% {:>8} {:>7} {:>5} {:>5.1}% {:>10.1} {:>10.1}",
                row.cores,
                row.measured_makespan,
                row.predicted_makespan,
                row.err_pct,
                row.stall_cycles,
                row.arbitration_losses,
                row.queue_high_water,
                100.0 * row.bus_utilization,
                row.measured_mbps,
                row.model_mbps,
            );

            if row.err_pct.abs() > MAKESPAN_GATE_PCT {
                violations.push(format!(
                    "[{rate} {frame:?} P={cores}] model missed the makespan by {:.2}% \
                     (measured {measured}, predicted {predicted:.0})",
                    row.err_pct
                ));
            }
            if measured > serial {
                violations.push(format!(
                    "[{rate} {frame:?} P={cores}] makespan {measured} above the serial \
                     bound {serial}"
                ));
            }
            if measured_mbps + 1e-9 < last_mbps {
                violations.push(format!(
                    "[{rate} {frame:?} P={cores}] throughput regressed: {measured_mbps:.1} \
                     after {last_mbps:.1} Mbit/s"
                ));
            }
            last_mbps = measured_mbps;
            rows.push(row);
        }
        println!();
    }

    // The 10 Gbit/s question, answered on the calibrated R 1/2 Normal
    // model: at the paper's P_IO = 10 front end the I/O ceiling sits far
    // below 10 Gbit/s, so *no* core count suffices; the front end must
    // widen first, and then the required core count is finite.
    let target_mbps = 10_000.0;
    let tp = dvbs2::ldpc::CodeParams::new(CodeRate::R1_2, FrameSize::Normal)?;
    let base = FabricModel::paper(&ST_0_13_UM, 1);
    let at_paper_width = base.cores_for_throughput(&tp, target_mbps);
    let ceiling = base.io_ceiling_mbps(&tp);
    // Size the front end for the target with 20% headroom: at exactly the
    // ceiling the required core count diverges.
    let wide_p_io = base
        .p_io_for_throughput(&tp, target_mbps / 0.8)
        .expect("positive target always yields a width");
    let wide = base.with_p_io(wide_p_io);
    let wide_cores = wide
        .cores_for_throughput(&tp, target_mbps)
        .expect("the widened front end puts the target below the ceiling");
    println!("10 Gbit/s at R 1/2 Normal, 30 iterations:");
    match at_paper_width {
        None => {
            println!("  P_IO = 10: unreachable at any core count (I/O ceiling {ceiling:.0} Mbit/s)")
        }
        Some(p) => println!("  P_IO = 10: {p} cores"),
    }
    println!(
        "  P_IO = {wide_p_io}: {wide_cores} cores ({:.0} Mbit/s modeled, ceiling {:.0})",
        wide.with_cores(wide_cores).aggregate_mbps(&tp),
        wide.io_ceiling_mbps(&tp),
    );
    if at_paper_width.is_some() {
        violations.push(format!(
            "10 Gbit/s must be I/O-bound at P_IO = 10, got {at_paper_width:?} cores"
        ));
    }

    // Software lane-path reference: the differential sweeps that verify
    // this fabric bit-exact now run the quantized datapath through the
    // sub-chain-major SIMD planes. Measure that kernel's per-iteration
    // cost on the reference point (R 1/2 Normal, the same partition the
    // oracle pins against the golden model) and record it next to the
    // hardware calibration, so the model context names the software that
    // cross-checked it and sweep-turnaround changes stay visible across
    // kernel swaps.
    let ref_code = DvbS2Code::new(CodeRate::R1_2, FrameSize::Normal)?;
    let ref_graph = Arc::new(ref_code.tanner_graph());
    let ref_rom = ConnectivityRom::build(ref_code.params(), ref_code.table());
    let ref_schedule = CnSchedule::natural(&ref_rom);
    let ref_partition = hw_chain_partition(&ref_rom, &ref_schedule, &ref_graph);
    let sw_iterations = 30usize;
    let mut sw = QuantizedZigzagDecoder::with_partition(
        Arc::clone(&ref_graph),
        QCheckArithmetic::lut(Quantizer::paper_6bit()),
        DecoderConfig::default().with_max_iterations(sw_iterations).with_early_stop(false),
        ref_partition,
    );
    let sw_tier = sw.simd_tier().map_or("fused-scalar", |t| t.name());
    let ref_sys = Dvbs2System::new(SystemConfig {
        rate: CodeRate::R1_2,
        frame: FrameSize::Normal,
        ..SystemConfig::default()
    })?;
    let mut ref_rng = SmallRng::seed_from_u64(0x51D0);
    let ref_channel = sw.quantize_channel(&ref_sys.transmit_frame(&mut ref_rng, 2.0).llrs);
    let sw_reps = if quick { 2 } else { 4 };
    let best_ms = |decode: &mut dyn FnMut()| {
        let mut best = f64::INFINITY;
        for _ in 0..sw_reps {
            let t = Instant::now();
            decode();
            best = best.min(t.elapsed().as_secs_f64());
        }
        best * 1e3
    };
    let sw_frame_ms = best_ms(&mut || {
        std::hint::black_box(sw.decode_quantized(std::hint::black_box(&ref_channel)));
    });
    let sw_per_iteration_us = sw_frame_ms / sw_iterations as f64 * 1e3;
    let sw_info_mbps = ref_code.params().k as f64 / sw_frame_ms / 1e3;
    println!(
        "\nsw lane reference (R 1/2 Normal, {sw_iterations} fixed iterations, tier {sw_tier}): \
         {sw_frame_ms:.2} ms/frame, {sw_per_iteration_us:.1} us/iteration, \
         {sw_info_mbps:.2} Mbit/s info"
    );

    // The two hardware models at the paper's point on the same frame: host
    // time per frame of what every row above and every oracle sweep pays.
    let paper = CoreConfig::default();
    let mut hw = HardwareDecoder::new(&ref_code, ref_schedule.clone(), paper);
    let mut golden = GoldenModel::new(
        &ref_code,
        ref_schedule,
        paper.quantizer,
        paper.max_iterations,
        paper.early_stop,
    );
    let hw_tier = hw.simd_tier().map_or("per-unit", |t| t.name());
    let hw_word = format!("i{}", hw.check_word_bits());
    let core_ms_per_frame = best_ms(&mut || {
        std::hint::black_box(hw.decode_quantized(std::hint::black_box(&ref_channel)));
    });
    let golden_ms_per_frame = best_ms(&mut || {
        std::hint::black_box(golden.decode_quantized(std::hint::black_box(&ref_channel)));
    });
    let core_over_lanes = core_ms_per_frame / sw_frame_ms;
    println!(
        "hardware models, same frame (tier {hw_tier}, {hw_word} check rows): \
         core {core_ms_per_frame:.2} ms/frame, \
         golden {golden_ms_per_frame:.2} ms/frame, core {core_over_lanes:.1}x the lane reference"
    );
    if core_over_lanes > CORE_OVER_LANES_GATE {
        violations.push(format!(
            "the cycle-accurate core costs {core_over_lanes:.1}x the lane reference's frame \
             ({core_ms_per_frame:.2} ms against {sw_frame_ms:.2} ms, gate {CORE_OVER_LANES_GATE}x)"
        ));
    }

    let record = Object::new()
        .with("bench", "fabric_scaling")
        .provenance()
        .with("quick", quick)
        .with("clock_mhz", Json::Num(clock, 0))
        .with("iterations", iterations)
        .with("link_latency", 2u32)
        .with(
            "sw_lane_reference",
            Object::new()
                .with("rate", "1/2")
                .with("frame", "Normal")
                .with("tier", sw_tier)
                .with("iterations", sw_iterations)
                .with("frame_ms", Json::Num(sw_frame_ms, 3))
                .with("per_iteration_us", Json::Num(sw_per_iteration_us, 2))
                .with("info_mbps", Json::Num(sw_info_mbps, 3)),
        )
        .with(
            "hw_paper_point",
            Object::new()
                .with("tier", hw_tier)
                .with("check_word", hw_word)
                .with("core_ms_per_frame", Json::Num(core_ms_per_frame, 3))
                .with("golden_ms_per_frame", Json::Num(golden_ms_per_frame, 3))
                .with("core_over_lane_reference", Json::Num(core_over_lanes, 2)),
        )
        .with(
            "rows",
            Json::array(rows.iter().map(|r| {
                Object::new()
                    .with("rate", r.rate.to_string())
                    .with("frame", format!("{:?}", r.frame))
                    .with("cores", r.cores)
                    .with("frames", r.frames)
                    .with("measured_makespan", r.measured_makespan)
                    .with("predicted_makespan", Json::Num(r.predicted_makespan, 1))
                    .with("err_pct", Json::Num(r.err_pct, 3))
                    .with("serial_cycles", r.serial_cycles)
                    .with("stall_cycles", r.stall_cycles)
                    .with("arbitration_losses", r.arbitration_losses)
                    .with("queue_high_water", r.queue_high_water)
                    .with("bus_utilization", Json::Num(r.bus_utilization, 4))
                    .with("measured_mbps", Json::Num(r.measured_mbps, 2))
                    .with("model_mbps", Json::Num(r.model_mbps, 2))
                    .with("io_ceiling_mbps", Json::Num(r.io_ceiling_mbps, 2))
            })),
        )
        .with(
            "ten_gbps",
            Object::new()
                .with("rate", "1/2")
                .with("frame", "Normal")
                .with("target_mbps", Json::Num(target_mbps, 0))
                .with("cores_at_p_io_10", at_paper_width)
                .with("io_ceiling_at_p_io_10_mbps", Json::Num(ceiling, 1))
                .with("required_p_io", wide_p_io)
                .with("required_cores", wide_cores),
        )
        .with("violations", violations.len());
    println!();
    write_record("BENCH_fabric.json", record)?;

    if violations.is_empty() {
        println!("fabric scaling: PASS ({} rows)", rows.len());
        Ok(())
    } else {
        println!("fabric scaling: FAIL ({} violations)", violations.len());
        for v in &violations {
            println!("  VIOLATION {v}");
        }
        std::process::exit(1);
    }
}
