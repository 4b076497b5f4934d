//! Conventional two-phase ("flooding") belief propagation — Figure 2a of
//! the paper.
//!
//! Every iteration updates all variable nodes, then all check nodes, with
//! messages from the *previous* iteration only. Parity nodes are treated as
//! ordinary degree-2 variables. This is the baseline the zigzag schedule is
//! measured against: it needs ≈ 40 iterations where the optimized schedule
//! needs 30.
//!
//! The spine ([`crate::bp`]) picks the layout the messages live in, once,
//! and owns the loop, the store and the epilogue; this schedule is its step
//! on each layout. On the rotation planes both half-iterations read and
//! write dense rotated slices row by row under the rule's row kernel; on the
//! edge planes the scalar pass streams check by check with the scalar kernel
//! fused between gather and scatter. Min-sum on the rotation planes is
//! bit-identical to the scalar pass.

use crate::bp::{BpDecoder, Schedule, Store};
use crate::engine::{fused_check_pass, tier_clones, RowKernel};
use crate::llr_ops::{CheckRule, LlrFloat};
use crate::rotation::{
    fold_info_columns, rotation_vn_pass_tier, row_kernel, subtract, RotationPlanes,
};
use crate::simd::SimdTier;
use dvbs2_ldpc::{TannerGraph, PARALLELISM as LANES};

/// Flooding-schedule belief-propagation decoder over any Tanner graph, on
/// the one layout its graph, rule and precision select ([`BpDecoder`]).
/// The decoder builds only what that layout's pass reads.
///
/// ```
/// use dvbs2_decoder::{Decoder, DecoderConfig, FloodingDecoder};
/// use dvbs2_ldpc::TannerGraph;
/// use std::sync::Arc;
///
/// // Repetition code: both bits equal, two checks... a single parity check.
/// let g = Arc::new(TannerGraph::from_edges(2, 1, &[(0, 0), (0, 1)]));
/// let mut dec = FloodingDecoder::new(g, DecoderConfig::default());
/// let out = dec.decode(&[-2.0, 0.5]); // strong bit-1 vote wins
/// assert!(out.bits.get(0) && out.bits.get(1));
/// assert!(out.converged);
/// ```
pub type FloodingDecoder = BpDecoder<Flooding>;

/// The flooding schedule: both half-iterations from the previous
/// iteration's messages.
#[derive(Debug, Clone)]
pub struct Flooding;

impl Schedule for Flooding {
    fn new(_: &TannerGraph) -> Self {
        Flooding
    }

    fn name(rule: CheckRule) -> &'static str {
        match rule {
            CheckRule::SumProduct => "flooding sum-product",
            CheckRule::TableSumProduct => "flooding table sum-product",
            CheckRule::NormalizedMinSum(_) => "flooding normalized min-sum",
            CheckRule::OffsetMinSum(_) => "flooding offset min-sum",
        }
    }

    fn planes_step<F: LlrFloat>(
        &mut self,
        planes: &RotationPlanes,
        rule: &CheckRule,
        tier: SimdTier,
        m: &mut Store<F>,
    ) {
        let Store { llr, v2c, c2v, totals, .. } = m;
        row_kernel!(rule, F, |kernel| {
            rotation_check_pass_tier(tier, planes, totals, v2c, c2v, kernel)
        });
        // Parity `K + c` as `pllr + ((0 + R_c) + L_{c+1})`.
        let parity = |l, right, left: Option<F>| match left {
            Some(left) => l + ((F::ZERO + right) + left),
            None => l + (F::ZERO + right),
        };
        rotation_vn_pass_tier(tier, planes, llr, c2v, totals, parity);
    }

    fn edges_step<F: LlrFloat>(&mut self, graph: &TannerGraph, rule: &CheckRule, m: &mut Store<F>) {
        let Store { llr, v2c, c2v, totals, next } = m;
        fused_check_pass(graph, rule, llr, totals, v2c, c2v, next);
        std::mem::swap(totals, next);
    }
}

/// Check-node half-iteration over the rotation planes, row by row: each
/// input column is gathered into the one-row `v2c` and folded into the
/// rule's [`RowKernel`], which writes the row's extrinsics over its `c2v`
/// row. The left parity column is the row above (row 0: row `q − 1` one
/// lane down); check 0 has no left edge, and its `+∞` input changes no
/// output: it is never a minimum nor negative, and it is boxplus's
/// identity.
#[inline(always)]
fn rotation_check_pass<F: LlrFloat>(
    planes: &RotationPlanes,
    totals: &[F],
    v2c: &mut [F],
    c2v: &mut [F],
    mut kernel: impl RowKernel<F>,
) {
    let (q, d) = (planes.q, planes.stride);
    let info_d = d - 2;
    let (info, parity) = totals.split_at(planes.k);
    let parity_row = |r: usize| &parity[r * LANES..][..LANES];
    for (r, c2v_row) in c2v.chunks_exact_mut(d * LANES).enumerate() {
        kernel.start(LANES);
        fold_info_columns(planes, r, info, v2c, c2v_row, &mut kernel);
        for j in info_d..d {
            let (inputs, old) = (&mut v2c[j * LANES..][..LANES], &c2v_row[j * LANES..][..LANES]);
            if j == info_d && r == 0 {
                inputs[0] = F::INFINITY;
                subtract(&mut inputs[1..], parity_row(q - 1), &old[1..]);
            } else {
                subtract(inputs, parity_row(if j == info_d { r - 1 } else { r }), old);
            }
            kernel.fold(j, inputs);
        }
        kernel.extrinsics(v2c, c2v_row, LANES);
    }
}

tier_clones!(
    /// [`rotation_check_pass`] dispatched onto the selected SIMD tier.
    rotation_check_pass_tier<F: LlrFloat>, rotation_check_pass,
    rotation_check_pass_avx2, rotation_check_pass_avx512;
    (
        planes: &RotationPlanes,
        totals: &[F],
        v2c: &mut [F],
        c2v: &mut [F],
        kernel: impl RowKernel<F>,
    )
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bp::{Core, Layout};
    use crate::test_support::{llrs_for_codeword, noisy_llrs, small_code};
    use crate::{Decoder, DecoderConfig, Precision};
    use std::sync::Arc;

    #[test]
    fn noiseless_codeword_converges_immediately() {
        let (code, graph) = small_code();
        let enc = code.encoder().unwrap();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        use rand::SeedableRng;
        let cw = enc.encode(&enc.random_message(&mut rng)).unwrap();
        let llrs = llrs_for_codeword(&cw, 5.0);
        let mut dec = FloodingDecoder::new(Arc::new(graph), DecoderConfig::default());
        let out = dec.decode(&llrs);
        assert!(out.converged);
        assert_eq!(out.iterations, 1);
        assert_eq!(out.bits, cw);
    }

    #[test]
    fn f32_fast_path_decodes_the_same_frames() {
        let (code, graph) = small_code();
        let graph = Arc::new(graph);
        for seed in 0..4 {
            let (cw, llrs) = noisy_llrs(&code, 3.2, 300 + seed);
            let mut f64_dec = FloodingDecoder::new(Arc::clone(&graph), DecoderConfig::default());
            let mut f32_dec = FloodingDecoder::new(
                Arc::clone(&graph),
                DecoderConfig::default().with_precision(Precision::F32),
            );
            let a = f64_dec.decode(&llrs);
            let b = f32_dec.decode(&llrs);
            assert_eq!(a.bits, cw, "seed {seed}");
            assert_eq!(b.bits, cw, "seed {seed} (f32)");
        }
    }

    #[test]
    fn corrects_noisy_frame_at_moderate_snr() {
        let (code, graph) = small_code();
        let (cw, llrs) = noisy_llrs(&code, 3.2, 99);
        let mut dec = FloodingDecoder::new(Arc::new(graph), DecoderConfig::default());
        let out = dec.decode(&llrs);
        assert!(out.converged, "decoder did not converge");
        assert_eq!(out.bits, cw);
        assert!(out.iterations > 1, "noise should need work");
    }

    #[test]
    fn min_sum_variants_also_correct() {
        let (code, graph) = small_code();
        let graph = Arc::new(graph);
        let (cw, llrs) = noisy_llrs(&code, 3.6, 123);
        for rule in [CheckRule::NormalizedMinSum(0.8), CheckRule::OffsetMinSum(0.15)] {
            let mut dec = FloodingDecoder::new(
                Arc::clone(&graph),
                DecoderConfig { rule, ..DecoderConfig::default() },
            );
            let out = dec.decode(&llrs);
            assert_eq!(out.bits, cw, "{rule:?}");
        }
    }

    /// The final totals' bit patterns (natural order after either layout).
    fn totals_bits(decoder: &FloodingDecoder) -> Vec<u64> {
        match &decoder.core {
            Core::F64(m) => m.totals.iter().map(|x| x.to_bits()).collect(),
            Core::F32(m) => m.totals.iter().map(|x| u64::from(x.to_bits())).collect(),
        }
    }

    /// The same code's edge list as a generic graph: identical edge ids, but
    /// no information length, so no rotation planes.
    fn generic(graph: &TannerGraph) -> TannerGraph {
        let mut edges = Vec::new();
        for c in 0..graph.check_count() {
            edges.extend(graph.check_edges(c).map(|e| (c as u32, graph.var_of_edge(e) as u32)));
        }
        TannerGraph::from_edges(graph.var_count(), graph.check_count(), &edges)
    }

    /// The exactness matrix: the rotation planes against the scalar pass,
    /// the same configuration forced onto the edge planes, on the
    /// full `DecodeResult` and on the final totals bit for bit — every
    /// short rate and three normal ones, both min-sum rules, both
    /// precisions, early stop on and off, an iteration cap of 0, every
    /// available tier, on a noisy frame and on one salted with `±inf`,
    /// `NaN`, `±1e300` and `±0.0`.
    #[test]
    fn rotation_planes_equal_the_scalar_pass_bit_for_bit() {
        use dvbs2_ldpc::{CodeRate, DvbS2Code, FrameSize};
        let short = CodeRate::ALL.map(|rate| (rate, FrameSize::Short));
        let normal =
            [CodeRate::R1_2, CodeRate::R3_4, CodeRate::R9_10].map(|r| (r, FrameSize::Normal));
        let mut codes = 0;
        for (rate, frame) in short.into_iter().chain(normal) {
            let Ok(code) = DvbS2Code::new(rate, frame) else { continue };
            codes += 1;
            let graph = Arc::new(code.tanner_graph());
            let ebn0 = 1.5 + 3.0 * rate.as_f64();
            let (_, noisy) = noisy_llrs(&code, ebn0, 0x5EED + codes);
            let mut hostile = noisy.clone();
            let salt = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 1e300, -1e300, -0.0, 0.0];
            for (i, x) in hostile.iter_mut().step_by(61).enumerate() {
                *x = salt[i % salt.len()];
            }
            for rule in [CheckRule::NormalizedMinSum(0.8), CheckRule::OffsetMinSum(0.15)] {
                for precision in [Precision::F32, Precision::F64] {
                    for tier in SimdTier::available() {
                        let config = DecoderConfig::default()
                            .with_rule(rule)
                            .with_precision(precision)
                            .with_simd_tier(Some(tier));
                        let mut lanes = FloodingDecoder::new(Arc::clone(&graph), config);
                        assert!(matches!(lanes.layout, Layout::Planes(_)), "{rate} {frame:?}");
                        let mut reference = FloodingDecoder::on_edges(Arc::clone(&graph), config);
                        assert!(matches!(reference.layout, Layout::Edges), "{rate} {frame:?}");
                        for (cap, early_stop) in [(8, true), (8, false), (0, true), (0, false)] {
                            for decoder in [&mut lanes, &mut reference] {
                                decoder.config.max_iterations = cap;
                                decoder.config.early_stop = early_stop;
                            }
                            for (name, llrs) in [("noisy", &noisy), ("hostile", &hostile)] {
                                let what = format!(
                                    "{rate} {frame:?} {rule:?} {precision:?} {tier:?} \
                                     cap {cap} early stop {early_stop}, {name} frame"
                                );
                                assert_eq!(lanes.decode(llrs), reference.decode(llrs), "{what}");
                                let (got, want) = (totals_bits(&lanes), totals_bits(&reference));
                                let differs = got.iter().zip(&want).position(|(a, b)| a != b);
                                assert_eq!(differs, None, "{what}: first total that differs");
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(codes, 13);
    }

    /// The layout is the shared choice ([`RotationPlanes::for_config`]):
    /// the planes for the min-sum rules at both precisions and sum-product
    /// at f32 on a graph with the structure; the scalar pass for the table
    /// rule, f64 sum-product, and every rule on the same code's generic
    /// copy.
    #[test]
    fn the_layout_is_chosen_from_graph_and_rule() {
        let (_, graph) = small_code();
        let generic = generic(&graph);
        let on_planes = |g: &TannerGraph, rule, precision| {
            let config = DecoderConfig::default().with_rule(rule).with_precision(precision);
            let layout = FloodingDecoder::new(Arc::new(g.clone()), config).layout;
            assert_eq!(
                matches!(layout, Layout::Planes(_)),
                RotationPlanes::for_config(g, &config).is_some(),
                "{rule:?} {precision:?}"
            );
            matches!(layout, Layout::Planes(_))
        };
        let min_sum = [CheckRule::NormalizedMinSum(0.8), CheckRule::OffsetMinSum(0.15)];
        let every_rule =
            [CheckRule::SumProduct, CheckRule::TableSumProduct].into_iter().chain(min_sum);
        for precision in [Precision::F32, Precision::F64] {
            for rule in min_sum {
                assert!(on_planes(&graph, rule, precision));
            }
            for rule in every_rule.clone() {
                assert!(!on_planes(&generic, rule, precision));
            }
            assert!(!on_planes(&graph, CheckRule::TableSumProduct, precision));
        }
        assert!(on_planes(&graph, CheckRule::SumProduct, Precision::F32));
        assert!(!on_planes(&graph, CheckRule::SumProduct, Precision::F64));
    }
}
