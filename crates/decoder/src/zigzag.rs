//! The paper's optimized message-update schedule — Figure 2b / Section 2.2.
//!
//! DVB-S2 parity nodes all have degree 2 and connect consecutive check nodes
//! in a zigzag chain (the encoder's accumulator). Processing check nodes
//! sequentially lets the freshly updated message of check `j-1` flow into
//! check `j` *within the same iteration* (the "forward update"); messages
//! back down the chain use the previous iteration (the "parallel backward
//! update"). The paper's two payoffs, both reproduced by `fig2_schedules`:
//!
//! * the same BER needs ≈ 10 fewer iterations (30 instead of 40);
//! * only the backward messages must be stored — `E_PN / 2` values instead
//!   of `E_PN` — halving the parity-message memory.
//!
//! The schedule is sequential only *along the chain*. A check's information
//! edges depend on nothing but the previous iteration's totals — which is
//! why the paper runs 360 functional units side by side. With `I_c` the
//! fold of check `c`'s information inputs and `L_c`/`R_c` its left/right
//! parity inputs, the check's outputs are
//!
//! ```text
//! forward  F_c = I_c ⊞ L_c      L_c = llr[K+c-1] + F_{c-1}   (this sweep)
//! backward B_c = I_c ⊞ R_c      R_c = llr[K+c]   + B_{c+1}   (last sweep)
//! ```
//!
//! so only `F` carries a dependency from check to check. The spine
//! ([`crate::bp`]) picks the layout the messages live in, once, and owns the
//! loop, the store and the epilogue; this schedule is its step on each
//! layout:
//!
//! * **Rotation planes** (DESIGN.md §7.11): check `c = u·q + r` is lane `u`
//!   of residue row `r`, so lane `u` is the paper's sub-chain of `q`
//!   checks. Phase A folds every check's information inputs lane-parallel,
//!   phase B runs the forward chain row by row with each lane's first input
//!   speculated and then repaired lane by lane, phase C writes every output
//!   lane-parallel. The repair compares bits, so it is exact under either
//!   rule; min-sum selects and never rounds, so there it is bit-identical to
//!   the scalar sweep as well.
//! * **Edge planes**: the scalar check-by-check sweep. Each check's parity
//!   edges sit at the tail of its contiguous edge range (left chain edge at
//!   `end - 2`, right at `end - 1`), so the sweep writes the two parity
//!   inputs straight into the v2c plane and runs the kernel in place: the
//!   forward message of check `c` *is* `c2v[end(c) - 1]` and the backward
//!   message to parity node `j` *is* `c2v[end(j + 1) - 2]`.

use crate::bp::{BpDecoder, Schedule, Store};
use crate::engine::{tier_clones, ZigzagKernel};
use crate::llr_ops::{CheckRule, LlrFloat};
use crate::rotation::{add, fold_info_columns, rotation_vn_pass_tier, row_kernel, RotationPlanes};
use crate::simd::SimdTier;
use dvbs2_ldpc::{TannerGraph, PARALLELISM as LANES};

/// Zigzag-schedule decoder for DVB-S2 (IRA) Tanner graphs.
///
/// Requires a graph built by [`TannerGraph::for_code`]: variables
/// `info_len()..var_count()` must form the accumulator chain, and each
/// check's parity edges must come last in its edge range.
///
/// The min-sum rules and `f32` exact sum-product on a DVB-S2 graph run on
/// the rotation planes, 360 sub-chains side by side (module docs). `f64`
/// exact sum-product — the reference the seed-embedded regression suite
/// pins bit for bit — the table rule, and every rule on other graphs run the
/// scalar check-by-check sweep. Min-sum decodes bit for bit as the scalar
/// sweep on either layout.
pub type ZigzagDecoder = BpDecoder<Zigzag>;

/// The zigzag schedule: the forward chain within an iteration.
#[derive(Debug, Clone)]
pub struct Zigzag {
    /// The checks phase B's repair recomputed in the current decode (the
    /// rotation planes only).
    repaired: usize,
}

impl Schedule for Zigzag {
    fn new(graph: &TannerGraph) -> Self {
        assert!(
            graph.info_len() < graph.var_count(),
            "zigzag schedule needs a parity chain; use TannerGraph::for_code"
        );
        assert_eq!(
            graph.var_count() - graph.info_len(),
            graph.check_count(),
            "IRA structure requires one parity variable per check"
        );
        Zigzag { repaired: 0 }
    }

    fn name(rule: CheckRule) -> &'static str {
        match rule {
            CheckRule::SumProduct => "zigzag sum-product",
            CheckRule::TableSumProduct => "zigzag table sum-product",
            CheckRule::NormalizedMinSum(_) => "zigzag normalized min-sum",
            CheckRule::OffsetMinSum(_) => "zigzag offset min-sum",
        }
    }

    fn start(&mut self) {
        self.repaired = 0;
    }

    /// Phases A, B and C, then the variable-node pass; `next` holds `I_c`
    /// during the step.
    fn planes_step<F: LlrFloat>(
        &mut self,
        planes: &RotationPlanes,
        rule: &CheckRule,
        tier: SimdTier,
        m: &mut Store<F>,
    ) {
        let Store { llr, v2c, c2v, totals, next } = m;
        self.repaired += row_kernel!(rule, F, |kernel| {
            planes_check_pass_tier(tier, planes, llr, totals, v2c, c2v, next, kernel)
        });
        // Parity `K + c` as the sweep sums it: `(pllr + F_c) + B_{c+1}`.
        let parity = |l, forward, backward: Option<F>| (l + forward) + backward.unwrap_or(F::ZERO);
        rotation_vn_pass_tier(tier, planes, llr, c2v, totals, parity);
    }

    fn edges_step<F: LlrFloat>(&mut self, graph: &TannerGraph, rule: &CheckRule, m: &mut Store<F>) {
        sweep(graph, rule, m);
    }
}

/// One iteration of the scalar check-by-check sweep.
fn sweep<F: LlrFloat>(graph: &TannerGraph, rule: &CheckRule, m: &mut Store<F>) {
    let k = graph.info_len();
    let n_check = graph.check_count();
    let offsets = graph.check_offsets();
    let edge_vars = graph.edge_vars();

    // Sequential check-node sweep with immediate forward update, fused with
    // both variable-node passes: each check gathers its information inputs
    // from the previous totals (parallel, Eq. 4), runs the kernel in place,
    // and scatters its fresh extrinsics into the next totals plane while the
    // slice is cache-hot.
    m.next.fill(F::ZERO);
    for c in 0..n_check {
        let start = offsets[c] as usize;
        let end = offsets[c + 1] as usize;
        for ((x, &v), &msg) in
            m.v2c[start..end].iter_mut().zip(&edge_vars[start..end]).zip(&m.c2v[start..end])
        {
            *x = m.totals[v as usize] - msg;
        }
        if c > 0 {
            // Left parity input PN_{c-1} -> CN_c: this sweep's fresh forward
            // message — the right-edge output of check c-1, still warm at the
            // tail of the previous range (the paper's key optimization).
            m.v2c[end - 2] = m.llr[k + c - 1] + m.c2v[start - 1];
        }
        // Right parity input PN_c -> CN_c: last iteration's backward message
        // — the left-edge slot of check c+1, not yet overwritten by this
        // sweep (parallel backward update).
        m.v2c[end - 1] = m.llr[k + c]
            + if c + 1 < n_check { m.c2v[offsets[c + 2] as usize - 2] } else { F::ZERO };
        rule.extrinsic_t(&m.v2c[start..end], &mut m.c2v[start..end]);
        for (&v, &msg) in edge_vars[start..end].iter().zip(&m.c2v[start..end]) {
            m.next[v as usize] += msg;
        }
    }

    // A-posteriori totals: channel LLR on top of the scattered sums for the
    // information variables, the chain's forward + backward form for parity
    // (overwriting the parity-edge scatter).
    for (t, &l) in m.next.iter_mut().zip(&m.llr) {
        *t = l + *t;
    }
    for j in 0..n_check {
        let forward = m.c2v[offsets[j + 1] as usize - 1];
        let backward = if j + 1 < n_check { m.c2v[offsets[j + 2] as usize - 2] } else { F::ZERO };
        m.next[k + j] = m.llr[k + j] + forward + backward;
    }
    std::mem::swap(&mut m.totals, &mut m.next);
}

/// The check updates of one zigzag iteration on the rotation planes
/// (DESIGN.md §7.11): phases A, B and C under the rule's row kernel, bit for
/// bit those of the scalar sweep under min-sum. `fold` holds one `I_c` per
/// check, row-major like the parity rows. Returns the checks phase B's
/// repair recomputed.
#[inline(always)]
fn planes_check_pass<F: LlrFloat>(
    planes: &RotationPlanes,
    llr: &[F],
    totals: &[F],
    v2c: &mut [F],
    c2v: &mut [F],
    fold: &mut [F],
    mut kernel: impl ZigzagKernel<F>,
) -> usize {
    let info = &totals[..planes.k];
    information_folds(planes, info, v2c, c2v, fold, &mut kernel);
    let repaired = forward_chain(planes, llr, c2v, fold, &kernel);
    check_outputs(planes, llr, info, v2c, c2v, &mut kernel);
    repaired
}

/// Phase A: per check, `I_c` — the rule's left fold of its information
/// inputs (under min-sum the smallest magnitude, with the parity of their
/// negative signs in the sign bit).
#[inline(always)]
fn information_folds<F: LlrFloat>(
    planes: &RotationPlanes,
    info: &[F],
    v2c: &mut [F],
    c2v: &[F],
    fold: &mut [F],
    kernel: &mut impl ZigzagKernel<F>,
) {
    let info_d = planes.stride - 2;
    let rows = c2v.chunks_exact(planes.stride * LANES).zip(fold.chunks_exact_mut(LANES));
    for (r, (row, fold)) in rows.enumerate() {
        kernel.start(LANES);
        fold_info_columns(planes, r, info, v2c, row, kernel);
        kernel.info_fold(&v2c[..info_d * LANES], fold);
    }
}

/// Phase B: the forward messages `F_c = I_c ⊞ L_c` under the rule into the
/// right parity columns — the sweep's right-edge output, which depends on
/// no other input. Lane `u` of row `r` reads the row above; row 0 reads
/// lane `u − 1` of row `q − 1`, which this sweep has not computed yet. The
/// rows run lane-parallel with that input guessed from the last
/// iteration's `F`, then lanes `1..360` are repaired in order: from the
/// true input, recompute down the lane until a fresh `F` has the bits of
/// the one it replaces. Every later value depends on that one alone, so it
/// is unchanged too; the argument compares bits only, so it holds under
/// every rule. Returns the checks recomputed.
#[inline(always)]
fn forward_chain<F: LlrFloat>(
    planes: &RotationPlanes,
    llr: &[F],
    c2v: &mut [F],
    fold: &[F],
    kernel: &impl ZigzagKernel<F>,
) -> usize {
    let (k, q, d) = (planes.k, planes.q, planes.stride);
    let parity_llr = |r: usize| &llr[k + r * LANES..][..LANES];
    let right = |r: usize| (r * d + d - 1) * LANES;

    let mut guess = [F::ZERO; LANES];
    guess.copy_from_slice(&c2v[right(q - 1)..][..LANES]);
    let row0 = &mut c2v[right(0)..][..LANES];
    // Check 0 has no left input: `+∞`, as phase C gathers it.
    row0[0] = kernel.forward(fold[0], F::INFINITY);
    let inputs = fold[1..LANES].iter().zip(&parity_llr(q - 1)[..LANES - 1]).zip(&guess);
    for (f, ((&i, &l), &g)) in row0[1..].iter_mut().zip(inputs) {
        *f = kernel.forward(i, l + g);
    }
    for r in 1..q {
        let (above, this) = c2v.split_at_mut(right(r));
        let (above, this) = (&above[right(r - 1)..][..LANES], &mut this[..LANES]);
        let inputs = fold[r * LANES..][..LANES].iter().zip(parity_llr(r - 1)).zip(above);
        for (f, ((&i, &l), &a)) in this.iter_mut().zip(inputs) {
            *f = kernel.forward(i, l + a);
        }
    }

    let mut repaired = 0;
    for u in 1..LANES {
        let mut prev = c2v[right(q - 1) + u - 1];
        if prev.bits() == guess[u - 1].bits() {
            continue;
        }
        let mut l = parity_llr(q - 1)[u - 1];
        for r in 0..q {
            let (fresh, at) = (kernel.forward(fold[r * LANES + u], l + prev), right(r) + u);
            repaired += 1;
            if fresh.bits() == c2v[at].bits() {
                break;
            }
            c2v[at] = fresh;
            (prev, l) = (fresh, parity_llr(r)[u]);
        }
    }
    repaired
}

/// Phase C: per row, the information inputs gathered again and folded with
/// `L_c = pllr_{c−1} + F_{c−1}` and `R_c = pllr_c + B_{c+1}` into every
/// output; the right column gets phase B's `F_c` again, bit for bit
/// ([`ZigzagKernel::forward`]). `R` reads last iteration's `B`: row `r + 1`'s
/// left column before that row is rewritten, and for row `q − 1` row 0's,
/// saved before row 0 is rewritten.
#[inline(always)]
fn check_outputs<F: LlrFloat>(
    planes: &RotationPlanes,
    llr: &[F],
    info: &[F],
    v2c: &mut [F],
    c2v: &mut [F],
    kernel: &mut impl ZigzagKernel<F>,
) {
    let (k, q, d) = (planes.k, planes.q, planes.stride);
    let info_d = d - 2;
    let parity_llr = |r: usize| &llr[k + r * LANES..][..LANES];
    let (left, right) = (|r: usize| (r * d + d - 2) * LANES, |r: usize| (r * d + d - 1) * LANES);
    let mut first_left = [F::ZERO; LANES];
    first_left.copy_from_slice(&c2v[left(0)..][..LANES]);
    for r in 0..q {
        let row = r * d * LANES..(r + 1) * d * LANES;
        kernel.start(LANES);
        fold_info_columns(planes, r, info, v2c, &c2v[row.clone()], kernel);
        let (left_in, right_in) = v2c[info_d * LANES..].split_at_mut(LANES);
        if r == 0 {
            left_in[0] = F::INFINITY;
            add(&mut left_in[1..], parity_llr(q - 1), &c2v[right(q - 1)..][..LANES - 1]);
        } else {
            add(left_in, parity_llr(r - 1), &c2v[right(r - 1)..][..LANES]);
        }
        if r + 1 < q {
            add(right_in, parity_llr(r), &c2v[left(r + 1)..][..LANES]);
        } else {
            // The last check has no right neighbour: `+ 0.0`, as the sweep adds.
            add(right_in, parity_llr(r), &first_left[1..]);
            right_in[LANES - 1] = parity_llr(r)[LANES - 1] + F::ZERO;
        }
        kernel.fold(info_d, left_in);
        kernel.fold(info_d + 1, right_in);
        kernel.extrinsics(v2c, &mut c2v[row], LANES);
    }
}

tier_clones!(
    /// [`planes_check_pass`] dispatched onto the selected SIMD tier.
    planes_check_pass_tier<F: LlrFloat>, planes_check_pass,
    planes_check_pass_avx2, planes_check_pass_avx512;
    (
        planes: &RotationPlanes,
        llr: &[F],
        totals: &[F],
        v2c: &mut [F],
        c2v: &mut [F],
        fold: &mut [F],
        kernel: impl ZigzagKernel<F>,
    ) -> usize
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bp::{Core, Layout};
    use crate::engine::Lane;
    use crate::rotation::rotation_syndrome_tier;
    use crate::test_support::{llrs_for_codeword, noisy_llrs, small_code, SplitMix64};
    use crate::{DecodeResult, Decoder, DecoderConfig, FloodingDecoder, Precision};
    use dvbs2_ldpc::{AddressTable, BitVec, CodeParams, CodeRate, DegreeClass, FrameSize};
    use std::sync::Arc;

    #[test]
    fn noiseless_codeword_converges_immediately() {
        let (code, graph) = small_code();
        let enc = code.encoder().unwrap();
        let mut rng = SplitMix64(2);
        let msg: BitVec = (0..code.params().k).map(|_| rng.next_bool()).collect();
        let cw = enc.encode(&msg).unwrap();
        let llrs = llrs_for_codeword(&cw, 5.0);
        let mut dec = ZigzagDecoder::new(Arc::new(graph), DecoderConfig::default());
        let out = dec.decode(&llrs);
        assert!(out.converged);
        assert_eq!(out.iterations, 1);
        assert_eq!(out.bits, cw);
    }

    #[test]
    fn corrects_noisy_frame() {
        let (code, graph) = small_code();
        let (cw, llrs) = noisy_llrs(&code, 3.2, 42);
        let mut dec = ZigzagDecoder::new(Arc::new(graph), DecoderConfig::default());
        let out = dec.decode(&llrs);
        assert!(out.converged);
        assert_eq!(out.bits, cw);
    }

    #[test]
    fn converges_in_fewer_iterations_than_flooding() {
        // The paper's central claim for the schedule (Fig. 2b): across noisy
        // frames the sequential forward update converges faster.
        let (code, graph) = small_code();
        let graph = Arc::new(graph);
        let config = DecoderConfig { max_iterations: 60, ..DecoderConfig::default() };
        let mut zigzag = ZigzagDecoder::new(Arc::clone(&graph), config);
        let mut flooding = FloodingDecoder::new(Arc::clone(&graph), config);
        let mut zig_total = 0usize;
        let mut flood_total = 0usize;
        for seed in 0..8 {
            let (_, llrs) = noisy_llrs(&code, 2.4, 1000 + seed);
            zig_total += zigzag.decode(&llrs).iterations;
            flood_total += flooding.decode(&llrs).iterations;
        }
        assert!(zig_total < flood_total, "zigzag {zig_total} iters vs flooding {flood_total}");
    }

    #[test]
    fn agrees_with_flooding_on_decoded_words() {
        let (code, graph) = small_code();
        let graph = Arc::new(graph);
        let mut zigzag = ZigzagDecoder::new(Arc::clone(&graph), DecoderConfig::default());
        let mut flooding = FloodingDecoder::new(Arc::clone(&graph), DecoderConfig::default());
        for seed in 0..4 {
            let (cw, llrs) = noisy_llrs(&code, 3.0, 500 + seed);
            let z = zigzag.decode(&llrs);
            let f = flooding.decode(&llrs);
            assert_eq!(z.bits, cw, "seed {seed}");
            assert_eq!(f.bits, cw, "seed {seed}");
        }
    }

    #[test]
    fn works_with_min_sum_rule() {
        let (code, graph) = small_code();
        let (cw, llrs) = noisy_llrs(&code, 3.6, 77);
        let mut dec = ZigzagDecoder::new(
            Arc::new(graph),
            DecoderConfig { rule: CheckRule::NormalizedMinSum(0.8), ..DecoderConfig::default() },
        );
        let out = dec.decode(&llrs);
        assert_eq!(out.bits, cw);
    }

    #[test]
    fn f32_fast_path_decodes_the_same_frames() {
        let (code, graph) = small_code();
        let graph = Arc::new(graph);
        for seed in 0..4 {
            let (cw, llrs) = noisy_llrs(&code, 3.2, 700 + seed);
            let mut fast = ZigzagDecoder::new(
                Arc::clone(&graph),
                DecoderConfig::default().with_precision(Precision::F32),
            );
            let out = fast.decode(&llrs);
            assert!(out.converged, "seed {seed}");
            assert_eq!(out.bits, cw, "seed {seed}");
        }
    }

    #[test]
    fn min_sum_is_bit_identical_across_simd_tiers() {
        // Min-sum runs on the rotation planes, whose passes are tier clones
        // of one body: every forced tier decodes as the scalar tier does.
        let (code, graph) = small_code();
        let graph = Arc::new(graph);
        for rule in [CheckRule::NormalizedMinSum(0.8), CheckRule::OffsetMinSum(0.15)] {
            for precision in [Precision::F64, Precision::F32] {
                let cfg = DecoderConfig::default().with_rule(rule).with_precision(precision);
                let mut reference = ZigzagDecoder::new(
                    Arc::clone(&graph),
                    cfg.with_simd_tier(Some(SimdTier::Scalar)),
                );
                for tier in SimdTier::available() {
                    let mut dec =
                        ZigzagDecoder::new(Arc::clone(&graph), cfg.with_simd_tier(Some(tier)));
                    assert_eq!(dec.simd_tier(), tier);
                    assert_eq!(layout(&dec), "planes");
                    for seed in 0..3 {
                        let (_, llrs) = noisy_llrs(&code, 2.6, 300 + seed);
                        assert_eq!(
                            dec.decode(&llrs),
                            reference.decode(&llrs),
                            "{rule:?} {precision:?} {tier:?} seed {seed}"
                        );
                    }
                }
            }
        }
    }

    /// Which layout a decoder runs on.
    fn layout(decoder: &ZigzagDecoder) -> &'static str {
        match decoder.layout {
            Layout::Planes(_) => "planes",
            Layout::Edges => "sweep",
        }
    }

    /// The final totals' bit patterns (natural order after every layout).
    fn totals_bits(decoder: &ZigzagDecoder) -> Vec<u64> {
        match &decoder.core {
            Core::F64(m) => m.totals.iter().map(|x| x.bits()).collect(),
            Core::F32(m) => m.totals.iter().map(|x| x.bits()).collect(),
        }
    }

    /// A 360-bit-group IRA graph with `info_degree` information edges per
    /// check: a parity chain, with rotation planes from information degree
    /// 2 on (below it check 0 has degree 2 or less).
    fn tiny_chain(info_degree: usize) -> TannerGraph {
        let (q, k) = (3, 360);
        let params = CodeParams {
            rate: CodeRate::R1_4, // nominal: only the sizes below are used
            frame: FrameSize::Short,
            n: k + 360 * q,
            k,
            n_check: 360 * q,
            q,
            check_degree: info_degree + 2,
            hi: DegreeClass { count: k, degree: 3 * info_degree },
            lo: DegreeClass { count: 0, degree: 3 },
        };
        let rows = vec![(0..3 * info_degree as u32).collect()];
        let table = AddressTable::from_rows(&params, rows).unwrap();
        TannerGraph::for_code(&params, &table)
    }

    /// The layout is the shared choice ([`RotationPlanes::for_config`]):
    /// the planes for the min-sum rules at both precisions and sum-product
    /// at f32 on a graph with the structure; the scalar sweep for the table
    /// rule, f64 sum-product, and every rule on a chain without the
    /// structure.
    #[test]
    fn the_zigzag_layout_is_chosen_from_graph_and_rule() {
        let graph = Arc::new(small_code().1);
        let unstructured = Arc::new(tiny_chain(1));
        let on_planes = |g: &Arc<TannerGraph>, rule, precision| {
            let config = DecoderConfig::default().with_rule(rule).with_precision(precision);
            let planes = layout(&ZigzagDecoder::new(Arc::clone(g), config)) == "planes";
            let chosen = RotationPlanes::for_config(g, &config).is_some();
            assert_eq!(planes, chosen, "{rule:?} {precision:?}");
            planes
        };
        let min_sum = [CheckRule::NormalizedMinSum(0.8), CheckRule::OffsetMinSum(0.15)];
        let every_rule =
            [CheckRule::SumProduct, CheckRule::TableSumProduct].into_iter().chain(min_sum);
        for precision in [Precision::F32, Precision::F64] {
            for rule in min_sum {
                assert!(on_planes(&graph, rule, precision), "{rule:?} {precision:?}");
            }
            for rule in every_rule.clone() {
                assert!(!on_planes(&unstructured, rule, precision), "{rule:?} {precision:?}");
            }
            assert!(!on_planes(&graph, CheckRule::TableSumProduct, precision));
        }
        assert!(on_planes(&graph, CheckRule::SumProduct, Precision::F32));
        assert!(!on_planes(&graph, CheckRule::SumProduct, Precision::F64));
        // `tests/sum_product_f32.rs`'s tiny chains of information degree 2
        // and 3 run the planes.
        for info_degree in [2, 3] {
            assert!(on_planes(
                &Arc::new(tiny_chain(info_degree)),
                CheckRule::SumProduct,
                Precision::F32
            ));
        }
    }

    /// The exactness matrix: the rotation planes against the same
    /// configuration forced onto the scalar sweep, on the full
    /// `DecodeResult` and on the final totals bit for bit — every short
    /// rate and three normal ones, both min-sum rules, both precisions,
    /// caps 8 and 0 with early stop on and off, every available tier, on a
    /// noisy frame and on one salted with `±inf`, `NaN`, `±1e300` and `±0.0`.
    #[test]
    fn zigzag_planes_equal_the_scalar_sweep_bit_for_bit() {
        use dvbs2_ldpc::DvbS2Code;
        let short = CodeRate::ALL.map(|rate| (rate, FrameSize::Short));
        let normal =
            [CodeRate::R1_2, CodeRate::R3_4, CodeRate::R9_10].map(|r| (r, FrameSize::Normal));
        let runs = [(8, true), (8, false), (0, true), (0, false)];
        let mut codes = 0;
        for (rate, frame) in short.into_iter().chain(normal) {
            let Ok(code) = DvbS2Code::new(rate, frame) else { continue };
            codes += 1;
            let graph = Arc::new(code.tanner_graph());
            let (_, noisy) = noisy_llrs(&code, 1.5 + 3.0 * rate.as_f64(), 0x2162 + codes);
            let mut hostile = noisy.clone();
            let salt = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 1e300, -1e300, -0.0, 0.0];
            for (i, x) in hostile.iter_mut().step_by(61).enumerate() {
                *x = salt[i % salt.len()];
            }
            let frames = [("noisy", &noisy), ("hostile", &hostile)];
            for rule in [CheckRule::NormalizedMinSum(0.8), CheckRule::OffsetMinSum(0.15)] {
                for precision in [Precision::F32, Precision::F64] {
                    let config = DecoderConfig::default().with_rule(rule).with_precision(precision);
                    // The sweep has no tier clones: one reference serves all.
                    let mut reference = ZigzagDecoder::on_edges(Arc::clone(&graph), config);
                    let mut want = Vec::new();
                    for (cap, early_stop) in runs {
                        reference.config =
                            config.with_max_iterations(cap).with_early_stop(early_stop);
                        for (_, llrs) in frames {
                            want.push((reference.decode(llrs), totals_bits(&reference)));
                        }
                    }
                    for tier in SimdTier::available() {
                        let config = config.with_simd_tier(Some(tier));
                        let mut planes = ZigzagDecoder::new(Arc::clone(&graph), config);
                        assert_eq!(layout(&planes), "planes", "{rate} {frame:?}");
                        let mut want = want.iter();
                        for (cap, early_stop) in runs {
                            planes.config =
                                config.with_max_iterations(cap).with_early_stop(early_stop);
                            for (name, llrs) in frames {
                                let what = format!(
                                    "{rate} {frame:?} {rule:?} {precision:?} {tier:?} \
                                     cap {cap} early stop {early_stop}, {name} frame"
                                );
                                let (result, totals) = want.next().unwrap();
                                assert_eq!(&planes.decode(llrs), result, "{what}");
                                let got = totals_bits(&planes);
                                let differs = got.iter().zip(totals).position(|(a, b)| a != b);
                                assert_eq!(differs, None, "{what}: first total that differs");
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(codes, 13);
    }

    /// A decode without early stop by `schedule` on `planes` and `m`, with every guess
    /// of phase B (row `q − 1`'s forward messages from the step before) set
    /// to `NaN`, or negated, before each step: the result, the totals' bits
    /// and the checks the repair recomputed.
    fn run_with_poisoned_guesses<F: LlrFloat>(
        schedule: &mut Zigzag,
        planes: &RotationPlanes,
        config: &DecoderConfig,
        tier: SimdTier,
        m: &mut Store<F>,
        llrs: &[f64],
        negate: bool,
    ) -> (DecodeResult, Vec<u64>, usize) {
        let row = planes.stride * LANES;
        let guesses = planes.q * row - LANES..planes.q * row;
        crate::engine::load_llrs(&mut m.llr, llrs);
        m.c2v.fill(F::ZERO);
        schedule.start();
        planes.start(m);
        for _ in 0..config.max_iterations {
            for guess in &mut m.c2v[guesses.clone()] {
                *guess = if negate { -*guess } else { F::from_f64(f64::NAN) };
            }
            schedule.planes_step(planes, &config.rule, tier, m);
        }
        let converged = rotation_syndrome_tier(tier, planes, &m.totals);
        planes.finish(m);
        let mut bits = BitVec::zeros(m.totals.len());
        bits.fill_from(&m.totals, F::is_negative);
        let result = DecodeResult { bits, iterations: config.max_iterations, converged };
        (result, m.totals.iter().map(|x| x.bits()).collect(), schedule.repaired)
    }

    /// Phase B's repair is exact however wrong the guesses are. On a frame
    /// with an erased parity channel `L_c = F_{c−1}`, so a wrong first
    /// input changes the `F` below it: under normalized min-sum the first
    /// iteration, which guesses `0.0`, repairs every lane but the chain
    /// head's to the end of its sub-chain (the other rules get some `0.0`
    /// guesses right). Then every guess is poisoned, with `NaN` and again
    /// negated, before every step, and the decode equals the unpoisoned one
    /// bit for bit, in totals and `DecodeResult`. The information channel
    /// is scaled ×10, on which every `NaN`-poisoned walk reaches the end of
    /// its sub-chain under sum-product too, so a repair that stops short is
    /// caught. Under min-sum both runs equal the scalar sweep as well;
    /// sum-product has no scalar reference on the planes, so for it this is
    /// the proof that the repair is exact.
    #[test]
    fn the_repair_is_exact_when_every_guess_is_wrong() {
        let (code, graph) = small_code();
        let graph = Arc::new(graph);
        let (_, mut llrs) = noisy_llrs(&code, 2.0, 0xB0);
        let k = graph.info_len();
        llrs[..k].iter_mut().for_each(|x| *x *= 10.0);
        llrs[k..].fill(0.0);
        let min_sum = [CheckRule::NormalizedMinSum(0.8), CheckRule::OffsetMinSum(0.15)];
        let runs = min_sum
            .into_iter()
            .flat_map(|rule| [(rule, Precision::F32), (rule, Precision::F64)])
            .chain([(CheckRule::SumProduct, Precision::F32)]);
        for (rule, precision) in runs {
            let what = format!("{rule:?} {precision:?}");
            let first = DecoderConfig::default()
                .with_rule(rule)
                .with_precision(precision)
                .with_max_iterations(1)
                .with_early_stop(false);
            let mut planes = ZigzagDecoder::new(Arc::clone(&graph), first);
            let mut reference = ZigzagDecoder::on_edges(Arc::clone(&graph), first);
            let min_sum = rule != CheckRule::SumProduct;
            let got = planes.decode(&llrs);
            if min_sum {
                assert_eq!(got, reference.decode(&llrs), "{what}");
                assert_eq!(totals_bits(&planes), totals_bits(&reference), "{what}");
            }
            let Layout::Planes(p) = &planes.layout else { panic!() };
            let repaired = planes.schedule.repaired;
            match rule {
                CheckRule::NormalizedMinSum(_) => {
                    assert_eq!(repaired, (LANES - 1) * p.q, "{what}")
                }
                _ => assert!(repaired > 0, "{what}"),
            }

            let config = first.with_max_iterations(6);
            planes.config = config;
            let want = (planes.decode(&llrs), totals_bits(&planes));
            if min_sum {
                reference.config = config;
                assert_eq!(want, (reference.decode(&llrs), totals_bits(&reference)), "{what}");
            }
            let tier = planes.simd_tier();
            for negate in [false, true] {
                let Layout::Planes(p) = &planes.layout else { panic!("not on the planes") };
                let schedule = &mut planes.schedule;
                let (result, totals, repaired) = match &mut planes.core {
                    Core::F64(m) => {
                        run_with_poisoned_guesses(schedule, p, &config, tier, m, &llrs, negate)
                    }
                    Core::F32(m) => {
                        run_with_poisoned_guesses(schedule, p, &config, tier, m, &llrs, negate)
                    }
                };
                let what =
                    format!("{what}, {}", if negate { "negated guesses" } else { "NaN guesses" });
                assert_eq!((result, totals), want, "{what}");
                // A `NaN` guess never has the bits of the true input.
                assert!(negate || repaired >= 6 * (LANES - 1), "{what}: {repaired} repaired");
            }
        }
    }

    #[test]
    #[should_panic(expected = "parity chain")]
    fn rejects_graph_without_parity_chain() {
        let g = dvbs2_ldpc::TannerGraph::from_edges(2, 1, &[(0, 0), (0, 1)]);
        let _ = ZigzagDecoder::new(Arc::new(g), DecoderConfig::default());
    }
}
