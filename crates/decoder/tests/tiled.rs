//! `TiledBatchDecoder` is a loop over one single-frame decoder (kept for the
//! stack benchmark's probe); these tests hold it to that: for every
//! schedule, precision, min-sum rule and SIMD dispatch tier a batch decode is
//! **bit-identical per frame** — full `DecodeResult` — to the matching
//! single-frame decoder.
//!
//! Tiers are forced through the per-decoder `DecoderConfig::with_simd_tier`
//! hook (race-free under the parallel test runner; the process-global
//! `DVBS2_SIMD` variable is exercised end-to-end by the CI matrix instead).
//! Unavailable tiers are skipped, so the suite passes on any x86-64 CPU and
//! on non-x86 targets — on this ladder `scalar` is always available. The
//! last test pins, directly on each single-frame decoder, that forcing one
//! panics.

use dvbs2_decoder::test_support::{noisy_llrs, small_code};
use dvbs2_decoder::{
    CheckRule, Decoder, DecoderConfig, FloodingDecoder, Precision, SimdTier, TileSchedule,
    TiledBatchDecoder, ZigzagDecoder,
};
use dvbs2_ldpc::TannerGraph;
use std::sync::Arc;

const SCHEDULES: [TileSchedule; 2] = [TileSchedule::Flooding, TileSchedule::Zigzag];

fn single_frame(
    graph: &Arc<TannerGraph>,
    config: DecoderConfig,
    schedule: TileSchedule,
) -> Box<dyn Decoder> {
    match schedule {
        TileSchedule::Flooding => Box::new(FloodingDecoder::new(Arc::clone(graph), config)),
        TileSchedule::Zigzag => Box::new(ZigzagDecoder::new(Arc::clone(graph), config)),
    }
}

/// Mixed-difficulty frames: early converger, mid-waterfall stragglers and
/// an undecodable frame that pins the iteration-cap path.
fn frames(code: &dvbs2_ldpc::DvbS2Code, n: usize, base_seed: u64) -> Vec<Vec<f64>> {
    let ebn0 = [4.0, 2.6, 2.4, 0.5, 2.8];
    (0..n).map(|i| noisy_llrs(code, ebn0[i % ebn0.len()], base_seed + i as u64).1).collect()
}

fn assert_tiled_matches_single(
    schedule: TileSchedule,
    config: DecoderConfig,
    n_frames: usize,
    seed: u64,
) {
    let (code, graph) = small_code();
    let graph = Arc::new(graph);
    let frames = frames(&code, n_frames, seed);
    let views: Vec<&[f64]> = frames.iter().map(|f| f.as_slice()).collect();
    let mut tiled = TiledBatchDecoder::new(Arc::clone(&graph), config, schedule, n_frames);
    let mut single = single_frame(&graph, config, schedule);
    let got = tiled.decode_batch(&views);
    for (i, frame) in frames.iter().enumerate() {
        let want = single.decode(frame);
        assert_eq!(
            got[i], want,
            "{schedule:?} {:?} {:?} tier {:?} frame {i}",
            config.rule, config.precision, config.simd,
        );
    }
}

/// The full dispatch matrix: every schedule × every available SIMD tier,
/// with the precision/rule pairing alternating so both precisions and both
/// min-sum rules are covered per tier.
#[test]
fn tiled_matches_single_frame_across_schedules_and_tiers() {
    for schedule in SCHEDULES {
        for (t, tier) in SimdTier::available().into_iter().enumerate() {
            for (precision, rule) in [
                (Precision::F32, CheckRule::NormalizedMinSum(0.8)),
                (Precision::F64, CheckRule::OffsetMinSum(0.15)),
            ] {
                let config = DecoderConfig::default()
                    .with_rule(rule)
                    .with_precision(precision)
                    .with_simd_tier(Some(tier));
                assert_tiled_matches_single(schedule, config, 5, 700 + 10 * t as u64);
            }
        }
    }
}

/// Scalar and vector tiers must agree bit for bit (rustc performs no FP
/// contraction, so wider registers change throughput, never results).
#[test]
fn all_available_tiers_agree_bit_for_bit() {
    let (code, graph) = small_code();
    let graph = Arc::new(graph);
    let frames = frames(&code, 4, 7100);
    let views: Vec<&[f64]> = frames.iter().map(|f| f.as_slice()).collect();
    for schedule in SCHEDULES {
        let mut per_tier = Vec::new();
        for tier in SimdTier::available() {
            let config = DecoderConfig::default()
                .with_rule(CheckRule::NormalizedMinSum(0.8))
                .with_precision(Precision::F32)
                .with_simd_tier(Some(tier));
            let mut dec = TiledBatchDecoder::new(Arc::clone(&graph), config, schedule, 4);
            per_tier.push((tier, dec.decode_batch(&views)));
        }
        let (base_tier, baseline) = &per_tier[0];
        for (tier, results) in &per_tier[1..] {
            assert_eq!(results, baseline, "{schedule:?}: {tier:?} diverged from {base_tier:?}");
        }
    }
}

/// With early stop disabled every frame runs to the cap — the benchmark
/// contract — and still matches single-frame.
#[test]
fn fixed_iteration_contract_matches_single_frame() {
    let config = DecoderConfig::default()
        .with_rule(CheckRule::NormalizedMinSum(0.8))
        .with_precision(Precision::F64)
        .with_max_iterations(8)
        .with_early_stop(false);
    for schedule in SCHEDULES {
        assert_tiled_matches_single(schedule, config, 4, 7400);
    }
}

/// Forcing an unavailable tier panics instead of silently falling back, on
/// every schedule.
#[test]
fn unavailable_forced_tier_panics() {
    let unavailable: Vec<SimdTier> =
        SimdTier::ALL.into_iter().filter(|t| !t.is_available()).collect();
    let graph = Arc::new(small_code().1);
    for (tier, schedule) in unavailable.into_iter().flat_map(|t| SCHEDULES.map(|s| (t, s))) {
        let config = DecoderConfig::default()
            .with_rule(CheckRule::NormalizedMinSum(0.8))
            .with_simd_tier(Some(tier));
        let result = std::panic::catch_unwind(|| single_frame(&graph, config, schedule));
        assert!(result.is_err(), "{schedule:?}: {tier:?} should be rejected on this CPU");
    }
}
