//! RTL-style verification of the cycle-accurate core: bit-exactness against
//! the golden model under annealed schedules, non-default memory
//! configurations, early stop, and across rates — plus agreement with the
//! algorithmic fixed-point decoder on decodable frames.

use dvbs2::channel::Modulation;
use dvbs2::decoder::{
    Decoder, DecoderConfig, QCheckArithmetic, QuantizedZigzagDecoder, Quantizer, SimdTier,
};
use dvbs2::hardware::{
    hw_chain_partition, optimize_schedule, AnnealOptions, CnSchedule, ConnectivityRom, CoreConfig,
    GoldenModel, HardwareDecoder, MemoryConfig, TestVectorSet,
};
use dvbs2::ldpc::{CodeRate, DvbS2Code, FrameSize};
use dvbs2::{DecoderKind, Dvbs2System, SystemConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

fn noisy_channel(code: &DvbS2Code, ebn0_db: f64, seed: u64) -> (dvbs2::ldpc::BitVec, Vec<f64>) {
    let sys = Dvbs2System::new(SystemConfig {
        rate: code.params().rate,
        frame: code.params().frame,
        ..SystemConfig::default()
    })
    .unwrap();
    let mut rng = SmallRng::seed_from_u64(seed);
    let frame = sys.transmit_frame(&mut rng, ebn0_db);
    (frame.codeword, frame.llrs)
}

#[test]
fn timed_core_is_bit_exact_for_every_short_rate() {
    for rate in CodeRate::ALL.into_iter().filter(|&r| r != CodeRate::R9_10) {
        let code = DvbS2Code::new(rate, FrameSize::Short).unwrap();
        let rom = ConnectivityRom::build(code.params(), code.table());
        let schedule = CnSchedule::natural(&rom);
        let config = CoreConfig { max_iterations: 8, ..CoreConfig::default() };
        let mut hw = HardwareDecoder::new(&code, schedule.clone(), config);
        let mut golden = GoldenModel::new(&code, schedule, config.quantizer, 8, false);
        let (_, llrs) = noisy_channel(&code, 2.0, 100 + rate as u64);
        let channel = hw.quantize_channel(&llrs);
        assert_eq!(
            hw.decode_quantized(&channel).result,
            golden.decode_quantized(&channel),
            "{rate}"
        );
    }
}

#[test]
fn timed_core_is_bit_exact_on_a_normal_frame() {
    let code = DvbS2Code::new(CodeRate::R1_2, FrameSize::Normal).unwrap();
    let rom = ConnectivityRom::build(code.params(), code.table());
    let schedule = optimize_schedule(
        &rom,
        MemoryConfig::default(),
        AnnealOptions { moves: 300, ..AnnealOptions::default() },
    )
    .schedule;
    let config = CoreConfig { max_iterations: 30, early_stop: true, ..CoreConfig::default() };
    let mut hw = HardwareDecoder::new(&code, schedule.clone(), config);
    let mut golden = GoldenModel::new(&code, schedule, config.quantizer, 30, true);
    let (cw, llrs) = noisy_channel(&code, 1.4, 77);
    let channel = hw.quantize_channel(&llrs);
    let hw_out = hw.decode_quantized(&channel);
    assert_eq!(hw_out.result, golden.decode_quantized(&channel));
    assert_eq!(hw_out.result.bits, cw);
}

#[test]
fn bit_exact_under_unusual_memory_configurations() {
    let code = DvbS2Code::new(CodeRate::R1_2, FrameSize::Short).unwrap();
    let rom = ConnectivityRom::build(code.params(), code.table());
    let schedule = CnSchedule::natural(&rom);
    let (_, llrs) = noisy_channel(&code, 2.4, 5);
    for memory in [
        MemoryConfig { banks: 1, write_ports: 1, fu_latency: 3 },
        MemoryConfig { banks: 2, write_ports: 1, fu_latency: 9 },
        MemoryConfig { banks: 8, write_ports: 3, fu_latency: 1 },
    ] {
        let config = CoreConfig { memory, max_iterations: 6, ..CoreConfig::default() };
        let mut hw = HardwareDecoder::new(&code, schedule.clone(), config);
        let mut golden = GoldenModel::new(&code, schedule.clone(), config.quantizer, 6, false);
        let channel = hw.quantize_channel(&llrs);
        // Timing configuration must never change the data.
        assert_eq!(
            hw.decode_quantized(&channel).result,
            golden.decode_quantized(&channel),
            "{memory:?}"
        );
    }
}

#[test]
fn fewer_banks_cost_more_buffer_and_cycles() {
    let code = DvbS2Code::new(CodeRate::R1_2, FrameSize::Short).unwrap();
    let (_, llrs) = noisy_channel(&code, 2.4, 8);
    let run = |banks: usize| {
        let config = CoreConfig {
            memory: MemoryConfig { banks, ..MemoryConfig::default() },
            max_iterations: 5,
            ..CoreConfig::default()
        };
        let mut hw = HardwareDecoder::with_natural_schedule(&code, config);
        hw.decode(&llrs).cycles
    };
    let one = run(1);
    let four = run(4);
    assert!(one.max_buffer >= four.max_buffer, "{one:?} vs {four:?}");
    assert!(one.total_cycles >= four.total_cycles);
}

#[test]
fn hardware_core_agrees_with_algorithmic_decoder_on_decoded_frames() {
    let code = DvbS2Code::new(CodeRate::R1_2, FrameSize::Short).unwrap();
    let graph = Arc::new(code.tanner_graph());
    let mut ideal =
        QuantizedZigzagDecoder::new(graph, Quantizer::paper_6bit(), DecoderConfig::default());
    let mut hw = HardwareDecoder::with_natural_schedule(
        &code,
        CoreConfig { early_stop: true, ..CoreConfig::default() },
    );
    for seed in 0..3 {
        let (cw, llrs) = noisy_channel(&code, 3.2, 600 + seed);
        let hw_bits = hw.decode(&llrs).result.bits;
        let ideal_bits = ideal.decode(&llrs).bits;
        assert_eq!(hw_bits, cw, "seed {seed}");
        assert_eq!(ideal_bits, cw, "seed {seed}");
    }
}

#[test]
fn timed_core_is_bit_exact_at_r910_normal() {
    // R 9/10 exists only at Normal frames (no Short variant in the
    // standard), so the all-short-rates sweep above cannot cover the
    // highest-rate, densest-row connectivity. Pin it here explicitly.
    let code = DvbS2Code::new(CodeRate::R9_10, FrameSize::Normal).unwrap();
    let rom = ConnectivityRom::build(code.params(), code.table());
    let schedule = CnSchedule::natural(&rom);
    let config = CoreConfig { max_iterations: 6, early_stop: true, ..CoreConfig::default() };
    let mut hw = HardwareDecoder::new(&code, schedule.clone(), config);
    let mut golden = GoldenModel::new(&code, schedule, config.quantizer, 6, true);
    let (cw, llrs) = noisy_channel(&code, 4.6, 910);
    let channel = hw.quantize_channel(&llrs);
    let hw_out = hw.decode_quantized(&channel);
    assert_eq!(hw_out.result, golden.decode_quantized(&channel));
    assert!(hw_out.result.converged, "4.6 dB is comfortably above the R9/10 threshold");
    assert_eq!(hw_out.result.bits, cw);
}

#[test]
fn min_sum_arithmetic_agrees_with_hardware_on_decoded_frames() {
    // The hardware functional units are LUT-only, so the min-sum-shift
    // arithmetic has no timed twin; the contract is agreement on decoded
    // words, not bit-exact messages (min-sum trades ~0.1-0.2 dB).
    let code = DvbS2Code::new(CodeRate::R2_3, FrameSize::Short).unwrap();
    let graph = Arc::new(code.tanner_graph());
    let quantizer = Quantizer::paper_6bit();
    let mut min_sum = QuantizedZigzagDecoder::with_arithmetic(
        Arc::clone(&graph),
        QCheckArithmetic::min_sum_shift(quantizer, 2),
        DecoderConfig::default(),
    );
    let mut hw = HardwareDecoder::with_natural_schedule(
        &code,
        CoreConfig { early_stop: true, ..CoreConfig::default() },
    );
    for seed in 0..3 {
        let (cw, llrs) = noisy_channel(&code, 4.4, 6600 + seed);
        let hw_out = hw.decode(&llrs);
        let ms_out = min_sum.decode(&llrs);
        assert!(hw_out.result.converged && ms_out.converged, "seed {seed}");
        assert_eq!(hw_out.result.bits, cw, "seed {seed}: LUT hardware");
        assert_eq!(ms_out.bits, cw, "seed {seed}: min-sum-shift");
    }
}

#[test]
fn generated_test_vectors_replay_on_the_core() {
    let set = TestVectorSet::generate(
        CodeRate::R2_3,
        FrameSize::Short,
        Quantizer::paper_6bit(),
        2,
        4.2,
        2024,
    );
    let code = DvbS2Code::new(set.rate, set.frame).unwrap();
    let mut hw = HardwareDecoder::with_natural_schedule(
        &code,
        CoreConfig { early_stop: true, ..CoreConfig::default() },
    );
    let text = set.to_text();
    let parsed = TestVectorSet::parse(&text).unwrap();
    for (i, frame) in parsed.frames.iter().enumerate() {
        let out = hw.decode_quantized(&frame.channel);
        assert_eq!(out.result.bits, frame.expected_bits, "frame {i}");
        assert_eq!(out.result.iterations, frame.expected_iterations, "frame {i}");
    }
}

/// The stack benchmark's `serve_mixed_default` slots: short QPSK frames
/// near each rate's waterfall, where decodes stop early at 7–17 iterations.
const SERVED_SLOTS: [(CodeRate, f64); 4] =
    [(CodeRate::R1_4, 2.2), (CodeRate::R1_2, 1.4), (CodeRate::R3_4, 2.8), (CodeRate::R8_9, 4.2)];

fn qpsk_system(rate: CodeRate, frame: FrameSize) -> Dvbs2System {
    Dvbs2System::new(SystemConfig {
        rate,
        frame,
        modulation: Modulation::Qpsk,
        ..SystemConfig::default()
    })
    .unwrap()
}

#[test]
fn lane_early_stop_matches_the_fused_sweep_at_the_served_slots() {
    // The lane-domain syndrome test changes when work is done, never what
    // is decided: results and per-iteration digests equal the scalar fused
    // sweep's, whose early stop is the scalar test.
    let arithmetic = QCheckArithmetic::lut(Quantizer::paper_6bit());
    for (rate, ebn0_db) in SERVED_SLOTS {
        let system = qpsk_system(rate, FrameSize::Short);
        let rom = ConnectivityRom::build(system.params(), system.code().table());
        let partition = hw_chain_partition(&rom, &CnSchedule::natural(&rom), system.graph());
        let mut fused = QuantizedZigzagDecoder::with_partition_fused(
            Arc::clone(system.graph()),
            arithmetic.clone(),
            DecoderConfig::default(),
            partition.clone(),
        );
        let mut rng = SmallRng::seed_from_u64(2100 + rate as u64);
        let channels: Vec<Vec<i32>> = (0..4)
            .map(|_| fused.quantize_channel(&system.transmit_frame(&mut rng, ebn0_db).llrs))
            .collect();
        for tier in SimdTier::available() {
            let mut lanes = QuantizedZigzagDecoder::with_partition(
                Arc::clone(system.graph()),
                arithmetic.clone(),
                DecoderConfig::default().with_simd_tier(Some(tier)),
                partition.clone(),
            );
            assert_eq!(lanes.simd_tier(), Some(tier));
            let (mut lane_digests, mut fused_digests) = (Vec::new(), Vec::new());
            for (i, channel) in channels.iter().enumerate() {
                let a = lanes.decode_quantized_traced(channel, &mut lane_digests);
                let b = fused.decode_quantized_traced(channel, &mut fused_digests);
                assert_eq!(a, b, "{rate} {tier:?} frame {i}");
                assert_eq!(lane_digests, fused_digests, "{rate} {tier:?} frame {i}");
            }
        }
    }
}

#[test]
fn the_served_quantized_kind_is_the_golden_model() {
    // What the tier serves is what the core computes: word, iteration
    // count and convergence flag on the natural schedule.
    let q = Quantizer::paper_6bit();
    let normal = (CodeRate::R1_2, 1.4, FrameSize::Normal);
    let points = SERVED_SLOTS.iter().map(|&(rate, db)| (rate, db, FrameSize::Short));
    for (rate, ebn0_db, frame) in points.chain([normal]) {
        let system = qpsk_system(rate, frame);
        let rom = ConnectivityRom::build(system.params(), system.code().table());
        let mut golden = GoldenModel::new(system.code(), CnSchedule::natural(&rom), q, 30, true);
        let mut rng = SmallRng::seed_from_u64(2200 + rate as u64);
        let frames = if frame == FrameSize::Short { 3 } else { 1 };
        let llrs: Vec<Vec<f64>> =
            (0..frames).map(|_| system.transmit_frame(&mut rng, ebn0_db).llrs).collect();
        let expected: Vec<_> = llrs
            .iter()
            .map(|llrs| golden.decode_quantized(&golden.quantize_channel(llrs)))
            .collect();
        assert!(
            expected.iter().any(|out| out.converged && out.iterations < 30),
            "{rate} {frame:?}"
        );
        for tier in SimdTier::available() {
            let mut served = system.make_decoder_for(
                DecoderKind::Quantized(q),
                DecoderConfig::default().with_simd_tier(Some(tier)),
            );
            for (i, (llrs, golden_out)) in llrs.iter().zip(&expected).enumerate() {
                assert_eq!(&served.decode(llrs), golden_out, "{rate} {frame:?} {tier:?} frame {i}");
            }
        }
    }
}
