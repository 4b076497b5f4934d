//! Property tests pinning the quantized SIMD lane path's transparency
//! contract: for every available dispatch tier, both quantized arithmetics,
//! the hardware's rotation-structured edge orders and any `i32` channel,
//! the lane-parallel decoder is **bit-exact** — full `DecodeResult` plus
//! per-iteration message digests — against the scalar fused reference
//! sweep; and every cut the lanes cannot express builds that sweep.
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

/// Sub-chain counts that divide small_code's 9000 checks, in graph order:
/// none carries the code's 360-lane rotations (graph order flips where a
/// rotation wraps), so none gets the lanes.
const LANE_COUNTS: [usize; 4] = [5, 9, 75, 360];

fn arithmetics() -> Vec<(&'static str, QCheckArithmetic)> {
    vec![
        ("lut", QCheckArithmetic::lut(Quantizer::paper_6bit())),
        ("min-sum", QCheckArithmetic::min_sum_shift(Quantizer::paper_6bit(), 2)),
        ("lut-5bit", QCheckArithmetic::lut(Quantizer::paper_5bit())),
    ]
}

/// The lane decoder and its fused reference over `partition`.
fn pair(
    graph: &Arc<TannerGraph>,
    arith: &QCheckArithmetic,
    config: DecoderConfig,
    partition: &ChainPartition,
) -> [QuantizedZigzagDecoder; 2] {
    [QuantizedZigzagDecoder::with_partition, QuantizedZigzagDecoder::with_partition_fused]
        .map(|build| build(Arc::clone(graph), arith.clone(), config, partition.clone()))
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

/// The core contract: the rotation partition gets the lanes at every
/// available tier and with every arithmetic, bit-exact against the scalar
/// fused sweep, digests and all; every graph-order cut builds the fused
/// sweep itself, whatever the tier.
#[test]
fn simd_matches_fused_across_tiers_lane_counts_and_arithmetics() {
    let (_, graph) = small_code();
    let graph = Arc::new(graph);
    let rotation = rotation_partition(&graph);
    for (name, arith) in arithmetics() {
        for (i, tier) in SimdTier::available().into_iter().enumerate() {
            let config = DecoderConfig::default().with_simd_tier(Some(tier));
            let [mut simd, mut fused] = pair(&graph, &arith, config, &rotation);
            assert_eq!(simd.simd_tier(), Some(tier), "{name}: the rotation cut takes the lanes");
            let channels = noisy_channels(&simd, 2, 9100);
            assert_bit_exact(&mut simd, &mut fused, &channels, &format!("{name} tier {tier:?}"));
            for lanes in LANE_COUNTS {
                let what = format!("{name} tier {tier:?} lanes {lanes} in graph order");
                let cut = ChainPartition::new(lanes, None);
                let [mut simd, mut fused] = pair(&graph, &arith, config, &cut);
                assert_eq!(simd.simd_tier(), None, "{what}: no rotation, no lanes");
                if i == 0 {
                    let channels = noisy_channels(&simd, 2, 9100 + lanes as u64);
                    assert_bit_exact(&mut simd, &mut fused, &channels, &what);
                }
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
            let [mut simd, mut fused] = pair(&graph, &arith, config, &partition);
            assert_eq!(simd.simd_tier(), Some(tier));
            let channels = noisy_channels(&simd, 3, 9300);
            let what = format!("{name} tier {tier:?} rotation order");
            assert_bit_exact(&mut simd, &mut fused, &channels, &what);
            let stopped_early = channels.iter().any(|c| simd.decode_quantized(c).iterations < 30);
            assert!(stopped_early, "{what}: no frame exercised the early stop");
        }
    }
}

/// A non-trivial per-check edge order (the rotation order with each check's
/// inputs reversed, still a rotation) must be replayed identically by the
/// baked SoA planes — the order-dependent quantized boxplus sees its
/// operands in schedule order in both paths.
#[test]
fn edge_order_fidelity_is_preserved() {
    let (_, graph) = small_code();
    let graph = Arc::new(graph);
    let info_d = graph.check_edges(0).len() - 1;
    let rotation = rotation_partition(&graph);
    let forward = rotation.edge_order().expect("an explicit order");
    let order = forward.chunks_exact(info_d).flat_map(|c| c.iter().rev().copied()).collect();
    let reversed = ChainPartition::new(360, Some(order));
    let lut = QCheckArithmetic::lut(Quantizer::paper_6bit());
    for tier in SimdTier::available() {
        let config = DecoderConfig::default().with_simd_tier(Some(tier));
        let [mut simd, mut fused] = pair(&graph, &lut, config, &reversed);
        assert_eq!(simd.simd_tier(), Some(tier), "the reversed rotation takes the lanes");
        let channels = noisy_channels(&simd, 2, 9400);
        assert_bit_exact(&mut simd, &mut fused, &channels, &format!("reversed order {tier:?}"));
    }
}

/// Channels pinned to the quantizer rails drive every saturating add and
/// clamp in the i8 kernels; the lane path must saturate exactly like the
/// scalar `sat_add` / clamp chain.
#[test]
fn rail_saturated_channels_stay_bit_exact() {
    let (_, graph) = small_code();
    let graph = Arc::new(graph);
    let partition = rotation_partition(&graph);
    for (name, arith, max_mag) in [
        ("lut", QCheckArithmetic::lut(Quantizer::paper_6bit()), 31i32),
        ("min-sum", QCheckArithmetic::min_sum_shift(Quantizer::paper_6bit(), 2), 31i32),
        ("lut-5bit", QCheckArithmetic::lut(Quantizer::paper_5bit()), 15i32),
    ] {
        let [mut simd, mut fused] = pair(&graph, &arith, DecoderConfig::default(), &partition);
        assert!(simd.simd_tier().is_some(), "{name}");
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

/// Raw quantized channels far outside the quantizer's range — at, one past
/// and far past both ingress clamps (`2·max_mag + 1` on parity, an `i8`,
/// `i16::MAX − d_max·max_mag` on information), up to ±100 000 — stay on the
/// lanes and decode exactly as the scalar fused sweep, at every tier, with
/// every arithmetic. The last channel is all `+max_mag` but for those
/// values with the negative sign: under min-sum with a shift that leaves
/// the rail unnormalized, their checks send back `+max_mag` on every edge,
/// the case where a clamp one short of its bound flips a hard decision.
#[test]
fn out_of_rail_channels_stay_on_the_lanes() {
    let (_, graph) = small_code();
    let graph = Arc::new(graph);
    let (k, n) = (graph.info_len(), graph.var_count());
    let partition = rotation_partition(&graph);
    let d_max = (0..k).map(|v| graph.var_edges(v).len()).max().unwrap() as i32;
    let mut arithmetics = arithmetics();
    let unnormalized = QCheckArithmetic::min_sum_shift(Quantizer::paper_6bit(), 5);
    arithmetics.push(("min-sum, shift 5", unnormalized));
    for (name, arith) in arithmetics {
        let m = arith.quantizer().max_mag();
        // Each bound, one past it and 100 000, with either sign.
        let values = |bound: i32| [bound, bound + 1, 100_000].into_iter().flat_map(|x| [x, -x]);
        let mut rng = SplitMix64(0x0FF5 ^ m as u64);
        let mut noisy: Vec<i32> =
            (0..n).map(|_| (rng.next_u64() % (2 * m as u64 + 1)) as i32 - m).collect();
        let mut rails = vec![m; n];
        // Highest-degree information bits, and parity bits across the chain.
        let info = values(i16::MAX as i32 - d_max * m).enumerate().map(|(i, x)| (7 * i, x));
        let parity = values(2 * m + 1).enumerate().map(|(i, x)| (k + 1 + 1201 * i, x));
        for (v, x) in info.chain(parity) {
            assert!(v >= k || graph.var_edges(v).len() as i32 == d_max, "variable {v}");
            (noisy[v], rails[v]) = (x, -x.abs());
        }
        for tier in SimdTier::available() {
            let config = DecoderConfig::default().with_max_iterations(6).with_simd_tier(Some(tier));
            let [mut simd, mut fused] = pair(&graph, &arith, config, &partition);
            assert_eq!(simd.simd_tier(), Some(tier), "{name}");
            let channels = [noisy.clone(), rails.clone()];
            assert_bit_exact(&mut simd, &mut fused, &channels, &format!("{name} {tier:?}"));
        }
    }
}

/// A partition the SIMD plan cannot serve (single-row sub-chains) reports
/// no tier and decodes bit-exactly on the fused sweep it built instead.
#[test]
fn ineligible_partition_reports_no_simd_plan() {
    let (_, graph) = small_code();
    let graph = Arc::new(graph);
    let cut = ChainPartition::new(graph.check_count(), None); // q_rows = 1
    let lut = QCheckArithmetic::lut(Quantizer::paper_6bit());
    let [mut simd, mut fused] = pair(&graph, &lut, DecoderConfig::default(), &cut);
    assert_eq!(simd.simd_tier(), None);
    let channels = noisy_channels(&simd, 1, 9700);
    assert_bit_exact(&mut simd, &mut fused, &channels, "q_rows = 1");
}

/// The `i8` word's gate is tight: 6 bits (`max_mag` 31, parity total
/// `4·31 + 1 = 125`) take the lanes, and 7 bits at the same step
/// (`max_mag` 63) do not, at any tier: that decoder builds the scalar fused
/// sweep and decodes exactly as it, digests included.
#[test]
fn seven_bit_quantizers_take_the_fused_sweep() {
    let (_, graph) = small_code();
    let graph = Arc::new(graph);
    let partition = rotation_partition(&graph);
    let seven = QCheckArithmetic::lut(Quantizer::new(7, 0.25));
    assert_eq!(seven.quantizer().max_mag(), 63);
    for tier in SimdTier::available() {
        let config = DecoderConfig::default().with_simd_tier(Some(tier));
        let six = QCheckArithmetic::lut(Quantizer::new(6, 0.25));
        assert_eq!(pair(&graph, &six, config, &partition)[0].simd_tier(), Some(tier));
        let [mut simd, mut fused] = pair(&graph, &seven, config, &partition);
        assert_eq!(simd.simd_tier(), None, "{tier:?}: 7 bits are outside the i8 lanes");
        let channels = noisy_channels(&simd, 2, 9800);
        assert_bit_exact(&mut simd, &mut fused, &channels, &format!("7 bits {tier:?}"));
    }
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

/// The natural schedule as an explicit cut, spelled out edge by edge from
/// the record: check `u·q + r`'s input `i` is row `r`'s `i`-th entry at
/// lane `u` (what `dvbs2_hardware::hw_chain_partition` builds from the ROM).
fn natural_cut(graph: &TannerGraph) -> ChainPartition {
    let record = graph.quasi_cyclic().expect("a code's graph keeps its record");
    let (q, row_len) = (record.rows(), record.row_len());
    let mut order = Vec::new();
    for c in 0..graph.check_count() {
        let inputs = &graph.edge_vars()[graph.check_edges(c)][..row_len];
        for entry in record.row(c % q) {
            let position = inputs.iter().position(|&v| v as usize == entry.var(c / q));
            order.push(position.expect("the record's variable is an input") as u32);
        }
    }
    ChainPartition::new(360, Some(order))
}

/// The served constructor reads the natural schedule from the record and
/// decodes bit for bit as the fused sweep over the same schedule spelled
/// out edge by edge, at every tier and arithmetic the lanes take; it
/// declines a 7-bit word and a graph without the record.
#[test]
fn natural_lanes_are_the_natural_cut() {
    let (_, graph) = small_code();
    let graph = Arc::new(graph);
    let cut = natural_cut(&graph);
    for (name, arith) in arithmetics() {
        for tier in SimdTier::available() {
            let config = DecoderConfig::default().with_simd_tier(Some(tier));
            let lanes =
                QuantizedZigzagDecoder::natural_lanes(Arc::clone(&graph), arith.clone(), config);
            let mut lanes = lanes.expect("the lanes run 5 and 6 bits");
            assert_eq!(lanes.simd_tier(), Some(tier), "{name}");
            let mut fused = QuantizedZigzagDecoder::with_partition_fused(
                Arc::clone(&graph),
                arith.clone(),
                config,
                cut.clone(),
            );
            let channels = noisy_channels(&lanes, 2, 9900);
            assert_bit_exact(&mut lanes, &mut fused, &channels, &format!("{name} {tier:?}"));
        }
    }
    let config = DecoderConfig::default();
    let seven = QCheckArithmetic::lut(Quantizer::new(7, 0.25));
    assert!(QuantizedZigzagDecoder::natural_lanes(Arc::clone(&graph), seven, config).is_none());
    let mut edges = Vec::new();
    for c in 0..graph.check_count() {
        edges.extend(graph.check_edges(c).map(|e| (c as u32, graph.var_of_edge(e) as u32)));
    }
    let generic = Arc::new(TannerGraph::from_edges(graph.var_count(), graph.check_count(), &edges));
    assert!(generic.quasi_cyclic().is_none());
    let lut = QCheckArithmetic::lut(Quantizer::paper_6bit());
    assert!(QuantizedZigzagDecoder::natural_lanes(generic, lut, config).is_none());
}
