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
//! The spine's message store ([`crate::bp`]) holds the flat check-major
//! layout of [`crate::engine`]. Each check's parity edges sit at the tail
//! of its contiguous edge range (left chain edge at `end - 2`, right at
//! `end - 1`), so the sweep writes the two parity inputs straight into the
//! v2c plane and runs the kernel in place: the forward message of check `c`
//! *is* `c2v[end(c) - 1]` and the backward message to parity node `j` *is*
//! `c2v[end(j + 1) - 2]` — no separate forward/backward arrays and no
//! per-check scratch copies.
//!
//! The schedule is sequential only *along the chain*. A check's information
//! edges depend on nothing but the previous iteration's totals — which is
//! why the paper runs 360 functional units side by side — so the `f32`
//! exact sum-product decoder splits the sweep into three phases (see
//! `Decoupled`): the information edges of every check lane-parallel, one
//! scalar boxplus per check down the chain, and a lane-parallel combine.

use crate::bp::{BpDecoder, Schedule, Step, Store};
use crate::engine::{
    accumulate_totals_slotted_tier, chain_combine_pass_tier, chain_info_pass_tier, BlockedChecks,
    Precision,
};
use crate::llr_ops::{boxplus_t, CheckRule, LlrFloat};
use crate::simd::SimdTier;
use crate::DecoderConfig;
use dvbs2_ldpc::TannerGraph;

/// Zigzag-schedule decoder for DVB-S2 (IRA) Tanner graphs.
///
/// Requires a graph built by [`TannerGraph::for_code`]: variables
/// `info_len()..var_count()` must form the accumulator chain, and each
/// check's parity edges must come last in its edge range.
///
/// `f32` exact sum-product runs the chain-decoupled sweep, lane-parallel
/// across checks on the SIMD tier ladder with one scalar boxplus per check
/// left on the chain. Every other rule and precision — the min-sum rules,
/// the table rule, and `f64` exact sum-product, the reference the
/// seed-embedded regression suite pins bit for bit — runs the scalar
/// check-by-check sweep.
pub type ZigzagDecoder = BpDecoder<Zigzag>;

/// The zigzag schedule: the chain-decoupled sweep's state for `f32` exact
/// sum-product, `None` for the scalar sweep.
#[derive(Debug, Clone)]
pub struct Zigzag(Option<Box<Decoupled>>);

impl Schedule for Zigzag {
    fn new(graph: &TannerGraph, config: &DecoderConfig) -> Self {
        assert!(
            graph.info_len() < graph.var_count(),
            "zigzag schedule needs a parity chain; use TannerGraph::for_code"
        );
        assert_eq!(
            graph.var_count() - graph.info_len(),
            graph.check_count(),
            "IRA structure requires one parity variable per check"
        );
        let decoupled = config.precision == Precision::F32 && config.rule == CheckRule::SumProduct;
        Zigzag(decoupled.then(|| Box::new(Decoupled::new(graph))))
    }

    /// Edge planes (in the blocked layout's slot order for the decoupled
    /// sweep) and the next totals.
    fn lengths(&self, graph: &TannerGraph) -> [usize; 3] {
        [graph.edge_count(), graph.edge_count(), graph.var_count()]
    }

    fn name(rule: CheckRule) -> &'static str {
        match rule {
            CheckRule::SumProduct => "zigzag sum-product",
            CheckRule::TableSumProduct => "zigzag table sum-product",
            CheckRule::NormalizedMinSum(_) => "zigzag normalized min-sum",
            CheckRule::OffsetMinSum(_) => "zigzag offset min-sum",
        }
    }
}

impl Step<f64> for Zigzag {
    fn step(&mut self, graph: &TannerGraph, rule: &CheckRule, _: SimdTier, m: &mut Store<f64>) {
        sweep(graph, rule, m);
    }
}

impl Step<f32> for Zigzag {
    fn start(&mut self, m: &mut Store<f32>) {
        if let Some(decoupled) = &mut self.0 {
            decoupled.bwd.fill(0.0);
        }
        m.totals_from_channel();
    }

    fn step(&mut self, graph: &TannerGraph, rule: &CheckRule, tier: SimdTier, m: &mut Store<f32>) {
        match &mut self.0 {
            Some(decoupled) => decoupled.step(graph, tier, m),
            None => sweep(graph, rule, m),
        }
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

/// The chain-decoupled zigzag sweep for `f32` exact sum-product.
///
/// With `I_c` the boxplus fold of check `c`'s information inputs, `E_j` the
/// fold of all of them but `j`, `L_c`/`R_c` its left/right parity inputs,
/// the check's outputs are
///
/// ```text
/// forward  F_c   = I_c ⊞ L_c      L_c = llr[K+c-1] + F_{c-1}   (this sweep)
/// backward B_c   = I_c ⊞ R_c      R_c = llr[K+c]   + B_{c+1}   (last sweep)
/// info     out_j = E_j ⊞ (L_c ⊞ R_c)
/// ```
///
/// so only `F` carries a dependency from check to check. Phase A computes
/// every `E_j` and `I_c` lane-parallel over the column-major planes, phase
/// B walks the chain with one scalar boxplus per check, phase C finishes
/// `B_c` and `out_j` lane-parallel. This is the scalar sweep's arithmetic
/// reassociated (boxplus is associative up to rounding), not an
/// approximation of it; the decoded words and iteration counts track the
/// `f64` reference frame for frame.
///
/// Built only for the decoders that take this path: the column-major
/// layout and the per-check chain arrays are memory the other rules'
/// stores should not carry. The store's planes are in `blocked`'s slot
/// order.
#[derive(Debug, Clone)]
struct Decoupled {
    blocked: BlockedChecks,
    /// `I_c`, like every array below indexed by check.
    info_fold: Vec<f32>,
    /// `L_c` and `R_c` (`L_0` is unused: check 0 has no left edge).
    left_in: Vec<f32>,
    right_in: Vec<f32>,
    /// `F_c`.
    fwd: Vec<f32>,
    /// `B_c`, one element longer than the chain: `B_0` is unused and the
    /// trailing zero stands for the backward message the last check never
    /// receives.
    bwd: Vec<f32>,
}

impl Decoupled {
    fn new(graph: &TannerGraph) -> Self {
        let n_check = graph.check_count();
        Decoupled {
            blocked: BlockedChecks::for_chain(graph),
            info_fold: vec![0.0; n_check],
            left_in: vec![0.0; n_check],
            right_in: vec![0.0; n_check],
            fwd: vec![0.0; n_check],
            bwd: vec![0.0; n_check + 1],
        }
    }

    /// One iteration: phases A, B and C, then the totals in edge order.
    fn step(&mut self, graph: &TannerGraph, tier: SimdTier, m: &mut Store<f32>) {
        let (totals, info_fold) = (&m.totals, &mut self.info_fold);
        chain_info_pass_tier(tier, &self.blocked, totals, &mut m.v2c, &mut m.c2v, info_fold);
        self.forward(&m.llr[graph.info_len()..]);
        chain_combine_pass_tier(
            tier,
            &self.blocked,
            &mut m.c2v,
            &self.info_fold,
            &self.left_in,
            &self.right_in,
            &self.fwd,
            &mut self.bwd,
        );
        let (edge_vars, slots) = (graph.edge_vars(), self.blocked.edge_to_slot());
        accumulate_totals_slotted_tier(tier, edge_vars, slots, &m.llr, &m.c2v, &mut m.next);
        std::mem::swap(&mut m.totals, &mut m.next);
    }

    /// Phase B: the forward recurrence down the chain, and every check's
    /// parity inputs for phase C. The serial dependency is one boxplus per
    /// check; it stays on the scalar libm form, whose dependent latency is
    /// a fraction of the lane polynomial's.
    fn forward(&mut self, parity_llr: &[f32]) {
        let mut forward = self.info_fold[0]; // F_0 = I_0: no left edge
        self.fwd[0] = forward;
        self.right_in[0] = parity_llr[0] + self.bwd[1];
        for c in 1..self.fwd.len() {
            let left = parity_llr[c - 1] + forward;
            forward = boxplus_t(self.info_fold[c], left);
            self.left_in[c] = left;
            self.fwd[c] = forward;
            self.right_in[c] = parity_llr[c] + self.bwd[c + 1];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{llrs_for_codeword, noisy_llrs, small_code, SplitMix64};
    use crate::{Decoder, FloodingDecoder};
    use dvbs2_ldpc::BitVec;
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
        // Min-sum runs the scalar sweep whatever the tier: a forced tier is
        // accepted and changes nothing in the DecodeResult.
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

    #[test]
    #[should_panic(expected = "parity chain")]
    fn rejects_graph_without_parity_chain() {
        let g = dvbs2_ldpc::TannerGraph::from_edges(2, 1, &[(0, 0), (0, 1)]);
        let _ = ZigzagDecoder::new(Arc::new(g), DecoderConfig::default());
    }
}
