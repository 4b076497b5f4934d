//! Property tests pinning the quantized SIMD lane path's transparency
//! contract: for every available dispatch tier, every tested sub-chain
//! count (including ragged vector tails), both quantized arithmetics and
//! non-trivial edge orders, the lane-parallel decoder is **bit-exact** —
//! full `DecodeResult` plus per-iteration message digests — against the
//! scalar fused reference sweep.
//!
//! Tiers are forced through the per-decoder `DecoderConfig::with_simd_tier`
//! hook (race-free under the parallel test runner; the process-global
//! `DVBS2_SIMD` variable is exercised end-to-end by the CI matrix instead).
//! Unavailable tiers are skipped — except by the test that pins the panic.

use dvbs2_decoder::test_support::{noisy_llrs, rotation_partition, small_code, SplitMix64};
use dvbs2_decoder::{
    ChainPartition, DecoderConfig, QCheckArithmetic, QuantizedZigzagDecoder, Quantizer, SimdTier,
};
use dvbs2_ldpc::TannerGraph;
use std::sync::Arc;

/// Sub-chain counts that divide small_code's 9000 checks: small ragged
/// widths where the vector kernels are all remainder, a mid width, and the
/// hardware's 360 (= 11 × 32 + 8, so even the 32-lane AVX-512 kernels end
/// in a ragged tail).
const LANE_COUNTS: [usize; 4] = [5, 9, 75, 360];

fn arithmetics() -> Vec<(&'static str, QCheckArithmetic)> {
    vec![
        ("lut", QCheckArithmetic::lut(Quantizer::paper_6bit())),
        ("min-sum", QCheckArithmetic::min_sum_shift(Quantizer::paper_6bit(), 2)),
        ("lut-5bit", QCheckArithmetic::lut(Quantizer::paper_5bit())),
    ]
}

/// Decodes `frames` with both decoders and asserts full-result plus
/// per-iteration digest equality.
fn assert_bit_exact(
    simd: &mut QuantizedZigzagDecoder,
    fused: &mut QuantizedZigzagDecoder,
    channels: &[Vec<i32>],
    what: &str,
) {
    let (mut da, mut db) = (Vec::new(), Vec::new());
    for (i, channel) in channels.iter().enumerate() {
        let a = simd.decode_quantized_traced(channel, &mut da);
        let b = fused.decode_quantized_traced(channel, &mut db);
        assert_eq!(a, b, "{what}: frame {i} results diverged");
        assert_eq!(da, db, "{what}: frame {i} per-iteration digests diverged");
        assert_eq!(da.len(), a.iterations, "{what}: frame {i} one digest per sweep");
    }
}

fn noisy_channels(dec: &QuantizedZigzagDecoder, n: usize, base_seed: u64) -> Vec<Vec<i32>> {
    let (code, _) = small_code();
    (0..n)
        .map(|i| {
            let (_, llrs) = noisy_llrs(&code, 2.2 + 0.4 * (i % 3) as f64, base_seed + i as u64);
            dec.quantize_channel(&llrs)
        })
        .collect()
}

/// The core contract: every available tier × every lane count × every
/// arithmetic is bit-exact against the scalar fused sweep, digests and all.
#[test]
fn simd_matches_fused_across_tiers_lane_counts_and_arithmetics() {
    let (_, graph) = small_code();
    let graph = Arc::new(graph);
    for tier in SimdTier::available() {
        let config = DecoderConfig::default().with_simd_tier(Some(tier));
        for (name, arith) in arithmetics() {
            for lanes in LANE_COUNTS {
                let mut simd = QuantizedZigzagDecoder::with_partition(
                    Arc::clone(&graph),
                    arith.clone(),
                    config,
                    ChainPartition::new(lanes, None),
                );
                assert_eq!(
                    simd.simd_tier(),
                    Some(tier),
                    "{name} lanes {lanes}: SIMD plan should build and record its tier"
                );
                let mut fused = QuantizedZigzagDecoder::with_partition_fused(
                    Arc::clone(&graph),
                    arith.clone(),
                    config,
                    ChainPartition::new(lanes, None),
                );
                let channels = noisy_channels(&simd, 2, 9100 + lanes as u64);
                assert_bit_exact(
                    &mut simd,
                    &mut fused,
                    &channels,
                    &format!("{name} tier {tier:?} lanes {lanes}"),
                );
            }
        }
    }
}

/// A rotation-structured order (what the hardware partition has) takes the
/// rotation variable-node pass and the lane-domain early-termination test;
/// both are bit-exact against the fused sweep's scalar ones, early stops
/// included.
#[test]
fn rotation_order_early_stop_matches_fused() {
    let (_, graph) = small_code();
    let graph = Arc::new(graph);
    let partition = rotation_partition(&graph);
    for tier in SimdTier::available() {
        let config = DecoderConfig::default().with_simd_tier(Some(tier));
        for (name, arith) in arithmetics() {
            let mut simd = QuantizedZigzagDecoder::with_partition(
                Arc::clone(&graph),
                arith.clone(),
                config,
                partition.clone(),
            );
            assert_eq!(simd.simd_tier(), Some(tier));
            let mut fused = QuantizedZigzagDecoder::with_partition_fused(
                Arc::clone(&graph),
                arith,
                config,
                partition.clone(),
            );
            let channels = noisy_channels(&simd, 3, 9300);
            let what = format!("{name} tier {tier:?} rotation order");
            assert_bit_exact(&mut simd, &mut fused, &channels, &what);
            let stopped_early = channels.iter().any(|c| simd.decode_quantized(c).iterations < 30);
            assert!(stopped_early, "{what}: no frame exercised the early stop");
        }
    }
}

/// A non-trivial per-check edge order (each check's inputs reversed) must
/// be replayed identically by the baked SoA planes — the order-dependent
/// quantized boxplus sees its operands in schedule order in both paths.
#[test]
fn edge_order_fidelity_is_preserved() {
    let (_, graph) = small_code();
    let graph = Arc::new(graph);
    let n_check = graph.check_count();
    let info_d = graph.check_edges(0).len() - 1;
    let order: Vec<u32> = (0..n_check).flat_map(|_| (0..info_d as u32).rev()).collect();
    for tier in SimdTier::available() {
        let config = DecoderConfig::default().with_simd_tier(Some(tier));
        let mut simd = QuantizedZigzagDecoder::with_partition(
            Arc::clone(&graph),
            QCheckArithmetic::lut(Quantizer::paper_6bit()),
            config,
            ChainPartition::new(360, Some(order.clone())),
        );
        let mut fused = QuantizedZigzagDecoder::with_partition_fused(
            Arc::clone(&graph),
            QCheckArithmetic::lut(Quantizer::paper_6bit()),
            config,
            ChainPartition::new(360, Some(order.clone())),
        );
        let channels = noisy_channels(&simd, 2, 9400);
        assert_bit_exact(&mut simd, &mut fused, &channels, &format!("reversed order {tier:?}"));
    }
}

/// Channels pinned to the quantizer rails drive every saturating add and
/// clamp in the i16 kernels; the lane path must saturate exactly like the
/// scalar `sat_add` / clamp chain.
#[test]
fn rail_saturated_channels_stay_bit_exact() {
    let (_, graph) = small_code();
    let graph = Arc::new(graph);
    for (name, arith, max_mag) in [
        ("lut", QCheckArithmetic::lut(Quantizer::paper_6bit()), 31i32),
        ("min-sum", QCheckArithmetic::min_sum_shift(Quantizer::paper_6bit(), 2), 31i32),
        ("lut-5bit", QCheckArithmetic::lut(Quantizer::paper_5bit()), 15i32),
    ] {
        let config = DecoderConfig::default();
        let mut simd = QuantizedZigzagDecoder::with_partition(
            Arc::clone(&graph),
            arith.clone(),
            config,
            ChainPartition::new(360, None),
        );
        let mut fused = QuantizedZigzagDecoder::with_partition_fused(
            Arc::clone(&graph),
            arith,
            config,
            ChainPartition::new(360, None),
        );
        let n = graph.var_count();
        let mut rng = SplitMix64(0x5A7);
        // All-positive rail, alternating rails, and random rail-heavy mixes
        // (three-quarters of the values pinned to ±max_mag).
        let mut channels: Vec<Vec<i32>> = vec![
            vec![max_mag; n],
            (0..n).map(|i| if i % 2 == 0 { max_mag } else { -max_mag }).collect(),
        ];
        channels.push(
            (0..n)
                .map(|_| match rng.next_u64() % 8 {
                    0..=2 => max_mag,
                    3..=5 => -max_mag,
                    6 => (rng.next_u64() % (max_mag as u64 + 1)) as i32,
                    _ => -((rng.next_u64() % (max_mag as u64 + 1)) as i32),
                })
                .collect(),
        );
        assert_bit_exact(&mut simd, &mut fused, &channels, &format!("{name} rails"));
    }
}

/// A raw quantized channel outside the i16 rail gate falls back to the
/// scalar fused sweep for that frame — same results, no panic.
#[test]
fn out_of_rail_channel_falls_back_to_fused() {
    let (_, graph) = small_code();
    let graph = Arc::new(graph);
    let mk = |fused: bool| {
        let build = if fused {
            QuantizedZigzagDecoder::with_partition_fused
        } else {
            QuantizedZigzagDecoder::with_partition
        };
        build(
            Arc::clone(&graph),
            QCheckArithmetic::lut(Quantizer::paper_6bit()),
            DecoderConfig::default(),
            ChainPartition::new(360, None),
        )
    };
    let mut simd = mk(false);
    let mut fused = mk(true);
    assert!(simd.simd_tier().is_some());
    // A parity value beyond max_mag = 31: legal for the scalar i32 planes,
    // outside the SIMD plan's saturation headroom guarantee.
    let mut channel = vec![1i32; graph.var_count()];
    channel[graph.info_len() + 3] = 1000;
    // The lane decoder builds its scalar planes on the first such frame
    // and reuses them on the second.
    let (mut da, mut db) = (Vec::new(), Vec::new());
    for round in 0..2 {
        let a = simd.decode_quantized_traced(&channel, &mut da);
        let b = fused.decode_quantized_traced(&channel, &mut db);
        assert_eq!(a, b, "round {round}: fallback frame results diverged");
        assert_eq!(da, db, "round {round}: fallback frame digests diverged");
    }
}

/// A partition the SIMD plan cannot serve (single-row sub-chains) reports
/// no tier and still decodes bit-exactly through the fused fallback.
#[test]
fn ineligible_partition_reports_no_simd_plan() {
    let (_, graph) = small_code();
    let graph = Arc::new(graph);
    let lanes = graph.check_count(); // q_rows = 1
    let mut simd = QuantizedZigzagDecoder::with_partition(
        Arc::clone(&graph),
        QCheckArithmetic::lut(Quantizer::paper_6bit()),
        DecoderConfig::default(),
        ChainPartition::new(lanes, None),
    );
    assert_eq!(simd.simd_tier(), None);
    let mut fused = QuantizedZigzagDecoder::with_partition_fused(
        Arc::clone(&graph),
        QCheckArithmetic::lut(Quantizer::paper_6bit()),
        DecoderConfig::default(),
        ChainPartition::new(lanes, None),
    );
    let channels = noisy_channels(&simd, 1, 9700);
    assert_bit_exact(&mut simd, &mut fused, &channels, "q_rows = 1");
}

/// Forcing an unavailable tier panics at construction instead of silently
/// falling back.
#[test]
fn unavailable_forced_tier_panics() {
    let unavailable: Vec<SimdTier> =
        SimdTier::ALL.into_iter().filter(|t| !t.is_available()).collect();
    for tier in unavailable {
        let (_, graph): (_, TannerGraph) = small_code();
        let config = DecoderConfig::default().with_simd_tier(Some(tier));
        let result = std::panic::catch_unwind(|| {
            QuantizedZigzagDecoder::with_partition(
                Arc::new(graph),
                QCheckArithmetic::lut(Quantizer::paper_6bit()),
                config,
                ChainPartition::new(360, None),
            )
        });
        assert!(result.is_err(), "{tier:?} should be rejected on this CPU");
    }
}
