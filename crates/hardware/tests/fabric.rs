//! Property tests for the multi-core decoder fabric: the P = 1 identity,
//! P-invariance, and arbitration-order invariance of decoded frames.

use dvbs2_decoder::test_support::noisy_llrs;
use dvbs2_hardware::{
    Arbitration, CnSchedule, ConnectivityRom, CoreConfig, DecoderFabric, FabricConfig,
    FaultScenario, GoldenModel, HardwareDecoder, RamFault,
};
use dvbs2_ldpc::{CodeRate, DvbS2Code, FrameSize};
use proptest::prelude::*;

fn batch(code: &DvbS2Code, count: usize, ebn0: f64, seed: u64) -> Vec<Vec<f64>> {
    (0..count).map(|i| noisy_llrs(code, ebn0, seed ^ (i as u64) << 17).1).collect()
}

/// Fabric P=1 must be cycle- and bit-identical to the bare core — full
/// `DecodeResult`, per-iteration FNV digest, and per-frame cycle counts —
/// across Normal and Short rate points.
#[test]
fn single_core_identity_across_rate_points() {
    let points = [
        (CodeRate::R1_4, FrameSize::Short),
        (CodeRate::R1_2, FrameSize::Short),
        (CodeRate::R3_4, FrameSize::Short),
        (CodeRate::R8_9, FrameSize::Short),
        (CodeRate::R1_2, FrameSize::Normal),
        (CodeRate::R9_10, FrameSize::Normal),
    ];
    for (rate, frame) in points {
        let code = DvbS2Code::new(rate, frame).unwrap();
        let config = CoreConfig { max_iterations: 2, ..CoreConfig::default() };
        let mut hw = HardwareDecoder::with_natural_schedule(&code, config);
        let mut fabric = DecoderFabric::with_natural_schedule(&code, FabricConfig::single(config));
        let frames: Vec<Vec<i32>> =
            batch(&code, 2, 2.0, 0xF00D).iter().map(|llrs| hw.quantize_channel(llrs)).collect();
        let mut fabric_traces = Vec::new();
        let out = fabric.decode_quantized_batch_traced(&frames, &mut fabric_traces);
        let mut serial = 0u64;
        for (i, channel) in frames.iter().enumerate() {
            let mut hw_trace = Vec::new();
            let single = hw.decode_quantized_traced(channel, &mut hw_trace);
            assert_eq!(out.outputs[i], single, "{rate:?}/{frame:?} frame {i}: result");
            assert_eq!(
                fabric_traces[i], hw_trace,
                "{rate:?}/{frame:?} frame {i}: per-iteration digests"
            );
            assert_eq!(
                out.timings[i].span_cycles(),
                single.cycles.total_cycles as u64,
                "{rate:?}/{frame:?} frame {i}: cycle identity"
            );
            serial += single.cycles.total_cycles as u64;
        }
        assert_eq!(out.stats.makespan_cycles, serial, "{rate:?}/{frame:?}: makespan");
        assert_eq!(out.stats.stall_cycles, 0, "{rate:?}/{frame:?}: P=1 cannot stall");
    }
}

/// Fabric frames must also match the untimed golden model bit for bit,
/// digest for digest — through the fabric's own batch path.
#[test]
fn fabric_frames_match_the_golden_model() {
    let code = DvbS2Code::new(CodeRate::R1_2, FrameSize::Short).unwrap();
    let config = CoreConfig { max_iterations: 3, ..CoreConfig::default() };
    let mut fabric = DecoderFabric::with_natural_schedule(
        &code,
        FabricConfig { cores: 2, core: config, ..FabricConfig::default() },
    );
    let rom = ConnectivityRom::build(code.params(), code.table());
    let mut golden = GoldenModel::new(
        &code,
        CnSchedule::natural(&rom),
        config.quantizer,
        config.max_iterations,
        config.early_stop,
    );
    let frames: Vec<Vec<i32>> =
        batch(&code, 4, 2.2, 0xBEEF).iter().map(|llrs| fabric.quantize_channel(llrs)).collect();
    let mut traces = Vec::new();
    let out = fabric.decode_quantized_batch_traced(&frames, &mut traces);
    for (i, channel) in frames.iter().enumerate() {
        let mut golden_trace = Vec::new();
        let golden_out = golden.decode_quantized_traced(channel, &mut golden_trace);
        assert_eq!(out.outputs[i].result, golden_out, "frame {i}: result vs golden");
        assert_eq!(traces[i], golden_trace, "frame {i}: digests vs golden");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Decoded frames are invariant in the core count, the arbitration
    /// policy and its starting offset — timing and data are separated by
    /// construction, faulted or not.
    #[test]
    fn frames_are_p_and_arbitration_invariant(
        seed in any::<u64>(),
        ebn0 in 1.0f64..3.5,
        faulted in any::<bool>(),
    ) {
        let code = DvbS2Code::new(CodeRate::R1_2, FrameSize::Short).unwrap();
        let core = CoreConfig { max_iterations: 2, ..CoreConfig::default() };
        let frames = batch(&code, 5, ebn0, seed);
        let scenario = if faulted {
            FaultScenario::single(RamFault::StuckWord { word: 2, value: 31 })
        } else {
            FaultScenario::none()
        };
        let mut reference =
            DecoderFabric::with_natural_schedule(&code, FabricConfig::single(core));
        reference.set_scenario(scenario);
        let expect = reference.decode_batch(&frames).outputs;
        for cores in [2usize, 4] {
            for arbitration in [
                Arbitration::RoundRobin { start: 0 },
                Arbitration::RoundRobin { start: cores - 1 },
                Arbitration::Fixed,
            ] {
                let cfg = FabricConfig { cores, core, link_latency: 2, arbitration };
                let mut fabric = DecoderFabric::with_natural_schedule(&code, cfg);
                fabric.set_scenario(scenario);
                let out = fabric.decode_batch(&frames);
                prop_assert_eq!(
                    &out.outputs, &expect,
                    "P={} {:?} diverged", cores, arbitration
                );
                // Contention may reorder grants but never loses cycles:
                // every span decomposes exactly.
                for tm in &out.timings {
                    prop_assert_eq!(
                        tm.span_cycles(),
                        tm.io_beats as u64
                            + tm.load_stall_cycles
                            + tm.input_wait_cycles
                            + tm.decode_cycles as u64
                            + 2 * cfg.link_latency as u64
                    );
                }
            }
        }
    }
}
