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
//! so only `F` carries a dependency from check to check. The decoder picks
//! one layout at construction from the graph, the rule and the precision;
//! each is the only path for the decoders it serves:
//!
//! * **Rotation planes** — the min-sum rules on a DVB-S2 graph, at both
//!   precisions (DESIGN.md §7.11): flooding's planes, with check
//!   `c = u·q + r` lane `u` of residue row `r`, so lane `u` is the paper's
//!   sub-chain of `q` checks. Phase A folds every check's information
//!   inputs lane-parallel, phase B runs the forward chain row by row with
//!   each lane's first input speculated and then repaired lane by lane,
//!   phase C writes every output lane-parallel. Min-sum selects and never
//!   rounds, so this is bit-identical to the scalar sweep.
//! * **Chain-decoupled** — `f32` exact sum-product (`Decoupled`): the same
//!   phases on the degree-blocked edge planes, with the forward chain as one
//!   scalar boxplus per check.
//! * **Edge planes** — everything else (`f64` sum-product, the reference the
//!   seed-embedded regression suite pins, the table rule, and min-sum on a
//!   graph without the DVB-S2 structure): the scalar check-by-check sweep.
//!   Each check's parity edges sit at the tail of its contiguous edge range
//!   (left chain edge at `end - 2`, right at `end - 1`), so the sweep
//!   writes the two parity inputs straight into the v2c plane and runs the
//!   kernel in place: the forward message of check `c` *is*
//!   `c2v[end(c) - 1]` and the backward message to parity node `j` *is*
//!   `c2v[end(j + 1) - 2]`.
//!
//! The loop, the store and the epilogue are the spine's ([`crate::bp`]).

use crate::bp::{BpDecoder, Schedule, Step, Store};
use crate::engine::{
    accumulate_totals_slotted_tier, chain_combine_pass_tier, chain_info_pass_tier,
    syndrome_ok_totals, tier_clones, BlockedChecks, MinSumLanes, Precision,
};
use crate::llr_ops::{boxplus_t, CheckRule, LlrFloat};
use crate::rotation::{
    add, fold_info_columns, min_sum_correction, rotated, rotation_syndrome_tier,
    rotation_vn_pass_tier, RotationPlanes,
};
use crate::simd::SimdTier;
use crate::DecoderConfig;
use dvbs2_ldpc::{TannerGraph, PARALLELISM as LANES};

/// Zigzag-schedule decoder for DVB-S2 (IRA) Tanner graphs.
///
/// Requires a graph built by [`TannerGraph::for_code`]: variables
/// `info_len()..var_count()` must form the accumulator chain, and each
/// check's parity edges must come last in its edge range.
///
/// The min-sum rules on a DVB-S2 graph run on the rotation planes, 360
/// sub-chains side by side (module docs); `f32` exact sum-product runs the
/// chain-decoupled sweep, lane-parallel across checks with one scalar
/// boxplus per check left on the chain. `f64` exact sum-product — the
/// reference the seed-embedded regression suite pins bit for bit — the
/// table rule, and min-sum on other graphs run the scalar check-by-check
/// sweep. Every min-sum layout decodes bit for bit as the scalar sweep.
pub type ZigzagDecoder = BpDecoder<Zigzag>;

/// The zigzag schedule: where the messages live.
#[derive(Debug, Clone)]
pub struct Zigzag(Layout);

#[derive(Debug, Clone)]
enum Layout {
    /// The rotation planes, with the checks phase B's repair recomputed in
    /// the current decode.
    Planes {
        planes: RotationPlanes,
        repaired: usize,
    },
    Decoupled(Box<Decoupled>),
    Sweep,
}

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
        Zigzag(match config.rule {
            CheckRule::NormalizedMinSum(_) | CheckRule::OffsetMinSum(_) => {
                RotationPlanes::build(graph)
                    .map_or(Layout::Sweep, |planes| Layout::Planes { planes, repaired: 0 })
            }
            CheckRule::SumProduct if config.precision == Precision::F32 => {
                Layout::Decoupled(Box::new(Decoupled::new(graph)))
            }
            _ => Layout::Sweep,
        })
    }

    /// Edge planes (in the blocked layout's slot order for the decoupled
    /// sweep) and the next totals; on the rotation planes `v2c` is one row
    /// and `next` holds `I_c` during an iteration.
    fn lengths(&self, graph: &TannerGraph) -> [usize; 3] {
        match &self.0 {
            Layout::Planes { planes, .. } => planes.lengths(graph),
            _ => [graph.edge_count(), graph.edge_count(), graph.var_count()],
        }
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

/// The spine's precisions, each with its store seen at `f32`, the one
/// precision the chain-decoupled sweep is built for.
pub trait ChainFloat: LlrFloat {
    /// The store itself at `f32`, `None` at `f64`.
    fn at_f32(m: &mut Store<Self>) -> Option<&mut Store<f32>>;
}

impl ChainFloat for f32 {
    fn at_f32(m: &mut Store<f32>) -> Option<&mut Store<f32>> {
        Some(m)
    }
}

impl ChainFloat for f64 {
    fn at_f32(_: &mut Store<f64>) -> Option<&mut Store<f32>> {
        None
    }
}

/// On the rotation planes the parity halves of `llr` and `totals` are
/// transposed until [`Step::finish`].
impl<F: ChainFloat> Step<F> for Zigzag {
    fn start(&mut self, m: &mut Store<F>) {
        match &mut self.0 {
            Layout::Planes { planes, repaired } => {
                *repaired = 0;
                planes.start(m);
            }
            Layout::Decoupled(decoupled) => {
                decoupled.bwd.fill(0.0);
                m.totals_from_channel();
            }
            Layout::Sweep => m.totals_from_channel(),
        }
    }

    fn step(&mut self, graph: &TannerGraph, rule: &CheckRule, tier: SimdTier, m: &mut Store<F>) {
        match &mut self.0 {
            Layout::Planes { planes, repaired } => {
                let Store { llr, v2c, c2v, totals, next } = m;
                *repaired += min_sum_correction!(rule, F, |correct| {
                    planes_check_pass_tier(tier, planes, llr, totals, v2c, c2v, next, correct)
                });
                // Parity `K + c` as the sweep sums it: `(pllr + F_c) + B_{c+1}`.
                let parity =
                    |l, forward, backward: Option<F>| (l + forward) + backward.unwrap_or(F::ZERO);
                rotation_vn_pass_tier(tier, planes, llr, c2v, totals, parity);
            }
            Layout::Decoupled(decoupled) => {
                let m = F::at_f32(m).expect("the chain-decoupled sweep is built at f32 only");
                decoupled.step(graph, tier, m)
            }
            Layout::Sweep => sweep(graph, rule, m),
        }
    }

    fn syndrome_ok(&self, graph: &TannerGraph, tier: SimdTier, m: &Store<F>) -> bool {
        match &self.0 {
            Layout::Planes { planes, .. } => rotation_syndrome_tier(tier, planes, &m.totals),
            _ => syndrome_ok_totals(graph, &m.totals),
        }
    }

    fn finish(&self, m: &mut Store<F>) {
        if let Layout::Planes { planes, .. } = &self.0 {
            planes.finish(m);
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

/// The check updates of one zigzag iteration on the rotation planes, bit
/// for bit those of the scalar sweep (DESIGN.md §7.11): phases A, B and C.
/// `fold` holds one `I_c` per check, row-major like the parity rows.
/// Returns the checks phase B's repair recomputed.
#[inline(always)]
fn planes_check_pass<F: LlrFloat>(
    planes: &RotationPlanes,
    llr: &[F],
    totals: &[F],
    v2c: &mut [F],
    c2v: &mut [F],
    fold: &mut [F],
    correct: impl Fn(F) -> F,
) -> usize {
    let info = &totals[..planes.k];
    information_folds(planes, info, c2v, fold);
    let repaired = forward_chain(planes, llr, c2v, fold, &correct);
    check_outputs(planes, llr, info, v2c, c2v, &correct);
    repaired
}

/// Phase A: per check, `I_c` — the smallest magnitude of its information
/// inputs, with the parity of their negative signs in the sign bit.
#[inline(always)]
fn information_folds<F: LlrFloat>(planes: &RotationPlanes, info: &[F], c2v: &[F], fold: &mut [F]) {
    let rows = c2v.chunks_exact(planes.stride * LANES).zip(fold.chunks_exact_mut(LANES));
    for (r, (row, fold)) in rows.enumerate() {
        let mut m1 = [F::INFINITY; LANES];
        let mut odd = [0u32; LANES];
        for (j, column) in planes.info_columns(r).iter().enumerate() {
            let (head, tail) = rotated(info, column);
            let (old, h) = (&row[j * LANES..][..LANES], head.len());
            fold_min(&mut m1[..h], &mut odd[..h], head, &old[..h]);
            fold_min(&mut m1[h..], &mut odd[h..], tail, &old[h..]);
        }
        for ((f, &m), &o) in fold.iter_mut().zip(&m1).zip(&odd) {
            *f = m.flip_sign_if(o == 1);
        }
    }
}

/// `m1 = min(m1, |t − c|)` and the parity of the negative `t − c`, lane by
/// lane: phase A's fold of one gathered information slice.
#[inline(always)]
fn fold_min<F: LlrFloat>(m1: &mut [F], odd: &mut [u32], totals: &[F], c2v: &[F]) {
    for (((m, o), &t), &c) in m1.iter_mut().zip(odd.iter_mut()).zip(totals).zip(c2v) {
        let x = t - c;
        *m = m.min(x.abs());
        *o ^= x.is_negative() as u32;
    }
}

/// Phase B: the forward messages `F_c = correct(min(|I_c|, |L_c|))`, signed
/// by `I_c` and `L_c`, into the right parity columns — the sweep's
/// right-edge output, which depends on no other input. Lane `u` of row `r`
/// reads the row above; row 0 reads lane `u − 1` of row `q − 1`, which this
/// sweep has not computed yet. The rows run lane-parallel with that input
/// guessed from the last iteration's `F`, then lanes `1..360` are repaired
/// in order: from the true input, recompute down the lane until a fresh `F`
/// has the bits of the one it replaces. Every later value depends on that
/// one alone, so it is unchanged too. Returns the checks recomputed.
#[inline(always)]
fn forward_chain<F: LlrFloat>(
    planes: &RotationPlanes,
    llr: &[F],
    c2v: &mut [F],
    fold: &[F],
    correct: impl Fn(F) -> F,
) -> usize {
    let (k, q, d) = (planes.k, planes.q, planes.stride);
    let parity_llr = |r: usize| &llr[k + r * LANES..][..LANES];
    let right = |r: usize| (r * d + d - 1) * LANES;
    let forward =
        |i: F, l: F| correct(i.abs().min(l.abs())).flip_sign_if(sign_bit(i) != l.is_negative());

    let mut guess = [F::ZERO; LANES];
    guess.copy_from_slice(&c2v[right(q - 1)..][..LANES]);
    let row0 = &mut c2v[right(0)..][..LANES];
    // Check 0 has no left input: `+∞` is never the minimum nor negative.
    row0[0] = forward(fold[0], F::INFINITY);
    let inputs = fold[1..LANES].iter().zip(&parity_llr(q - 1)[..LANES - 1]).zip(&guess);
    for (f, ((&i, &l), &g)) in row0[1..].iter_mut().zip(inputs) {
        *f = forward(i, l + g);
    }
    for r in 1..q {
        let (above, this) = c2v.split_at_mut(right(r));
        let (above, this) = (&above[right(r - 1)..][..LANES], &mut this[..LANES]);
        let inputs = fold[r * LANES..][..LANES].iter().zip(parity_llr(r - 1)).zip(above);
        for (f, ((&i, &l), &a)) in this.iter_mut().zip(inputs) {
            *f = forward(i, l + a);
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
            let (fresh, at) = (forward(fold[r * LANES + u], l + prev), right(r) + u);
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

/// Whether `x`'s sign bit is set (`-0.0` included, unlike
/// [`LlrFloat::is_negative`]).
#[inline(always)]
fn sign_bit<F: LlrFloat>(x: F) -> bool {
    x.bits() != x.abs().bits()
}

/// Phase C: per row, the information inputs gathered again and folded with
/// `L_c = pllr_{c−1} + F_{c−1}` and `R_c = pllr_c + B_{c+1}` into every
/// output; the right column gets phase B's `F_c` again, bit for bit. `R`
/// reads last iteration's `B`: row `r + 1`'s left column before that row is
/// rewritten, and for row `q − 1` row 0's, saved before row 0 is rewritten.
#[inline(always)]
fn check_outputs<F: LlrFloat>(
    planes: &RotationPlanes,
    llr: &[F],
    info: &[F],
    v2c: &mut [F],
    c2v: &mut [F],
    correct: impl Fn(F) -> F,
) {
    let (k, q, d) = (planes.k, planes.q, planes.stride);
    let info_d = d - 2;
    let parity_llr = |r: usize| &llr[k + r * LANES..][..LANES];
    let (left, right) = (|r: usize| (r * d + d - 2) * LANES, |r: usize| (r * d + d - 1) * LANES);
    let mut first_left = [F::ZERO; LANES];
    first_left.copy_from_slice(&c2v[left(0)..][..LANES]);
    let mut lanes = MinSumLanes::new();
    for r in 0..q {
        let row = r * d * LANES..(r + 1) * d * LANES;
        lanes.start(LANES);
        fold_info_columns(planes, r, info, v2c, &c2v[row.clone()], &mut lanes);
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
        lanes.fold(info_d, left_in);
        lanes.fold(info_d + 1, right_in);
        lanes.extrinsics(v2c, &mut c2v[row], LANES, &correct);
    }
}

tier_clones!(
    /// [`planes_check_pass`] dispatched onto the selected SIMD tier.
    planes_check_pass_tier<F>, planes_check_pass, planes_check_pass_avx2, planes_check_pass_avx512;
    (
        planes: &RotationPlanes,
        llr: &[F],
        totals: &[F],
        v2c: &mut [F],
        c2v: &mut [F],
        fold: &mut [F],
        correct: impl Fn(F) -> F,
    ) -> usize
);

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
    use crate::bp::Core;
    use crate::test_support::{llrs_for_codeword, noisy_llrs, small_code, SplitMix64};
    use crate::{Decoder, FloodingDecoder};
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
        match decoder.schedule.0 {
            Layout::Planes { .. } => "planes",
            Layout::Decoupled(_) => "decoupled",
            Layout::Sweep => "sweep",
        }
    }

    /// `config` forced onto the scalar sweep, whatever layout it would pick.
    fn sweep_decoder(graph: &Arc<TannerGraph>, config: DecoderConfig) -> ZigzagDecoder {
        BpDecoder::with_schedule(Arc::clone(graph), config, Zigzag(Layout::Sweep))
    }

    /// The final totals' bit patterns (natural order after every layout).
    fn totals_bits(decoder: &ZigzagDecoder) -> Vec<u64> {
        match &decoder.core {
            Core::F64(m) => m.totals.iter().map(|x| x.bits()).collect(),
            Core::F32(m) => m.totals.iter().map(|x| x.bits()).collect(),
        }
    }

    /// A 360-bit-group IRA graph with one information edge per check: a
    /// parity chain, but no rotation planes (check 0 has degree 2).
    fn chain_without_planes() -> TannerGraph {
        let (q, k) = (3, 360);
        let params = CodeParams {
            rate: CodeRate::R1_4, // nominal: only the sizes below are used
            frame: FrameSize::Short,
            n: k + 360 * q,
            k,
            n_check: 360 * q,
            q,
            check_degree: 3,
            hi: DegreeClass { count: k, degree: 3 },
            lo: DegreeClass { count: 0, degree: 3 },
        };
        let table = AddressTable::from_rows(&params, vec![vec![0, 1, 2]]).unwrap();
        TannerGraph::for_code(&params, &table)
    }

    /// Min-sum on a graph with the structure takes the planes, at both
    /// precisions; f32 sum-product the decoupled sweep; everything else —
    /// f64 sum-product, the table rule, min-sum on a chain without the
    /// structure — the scalar sweep.
    #[test]
    fn the_zigzag_layout_is_chosen_from_graph_and_rule() {
        let graph = Arc::new(small_code().1);
        let unstructured = Arc::new(chain_without_planes());
        let layout_of = |g: &Arc<TannerGraph>, rule, precision| {
            let config = DecoderConfig::default().with_rule(rule).with_precision(precision);
            layout(&ZigzagDecoder::new(Arc::clone(g), config))
        };
        for precision in [Precision::F32, Precision::F64] {
            for rule in [CheckRule::NormalizedMinSum(0.8), CheckRule::OffsetMinSum(0.15)] {
                assert_eq!(layout_of(&graph, rule, precision), "planes", "{rule:?} {precision:?}");
                assert_eq!(layout_of(&unstructured, rule, precision), "sweep");
            }
            assert_eq!(layout_of(&graph, CheckRule::TableSumProduct, precision), "sweep");
        }
        assert_eq!(layout_of(&graph, CheckRule::SumProduct, Precision::F32), "decoupled");
        assert_eq!(layout_of(&graph, CheckRule::SumProduct, Precision::F64), "sweep");
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
                    let mut reference = sweep_decoder(&graph, config);
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

    /// `iterations` steps of `schedule` on `m`, with every guess of phase B
    /// (row `q − 1`'s forward messages from the step before) set to `NaN`
    /// before each: the totals' bits and the checks the repair recomputed.
    fn run_with_poisoned_guesses<F: ChainFloat>(
        schedule: &mut Zigzag,
        graph: &TannerGraph,
        config: &DecoderConfig,
        tier: SimdTier,
        m: &mut Store<F>,
        llrs: &[f64],
    ) -> (Vec<u64>, usize) {
        let Layout::Planes { planes, .. } = &schedule.0 else { panic!("not on the planes") };
        let row = planes.stride * LANES;
        let guesses = planes.q * row - LANES..planes.q * row;
        crate::engine::load_llrs(&mut m.llr, llrs);
        m.c2v.fill(F::ZERO);
        schedule.start(m);
        for _ in 0..config.max_iterations {
            m.c2v[guesses.clone()].fill(F::from_f64(f64::NAN));
            schedule.step(graph, &config.rule, tier, m);
        }
        schedule.finish(m);
        let Layout::Planes { repaired, .. } = schedule.0 else { unreachable!() };
        (m.totals.iter().map(|x| x.bits()).collect(), repaired)
    }

    /// Phase B's repair is exact however wrong the guesses are. On a frame
    /// with an erased parity channel `L_c = F_{c−1}`, so a wrong first
    /// input changes the `F` below it: the first iteration, which guesses
    /// `0.0`, repairs. Then every guess is
    /// poisoned with `NaN` before every iteration. Both decode bit for bit
    /// as the scalar sweep.
    #[test]
    fn the_repair_is_exact_when_every_guess_is_wrong() {
        let (code, graph) = small_code();
        let graph = Arc::new(graph);
        let (_, mut llrs) = noisy_llrs(&code, 2.0, 0xB0);
        llrs[graph.info_len()..].fill(0.0);
        for rule in [CheckRule::NormalizedMinSum(0.8), CheckRule::OffsetMinSum(0.15)] {
            for precision in [Precision::F32, Precision::F64] {
                let what = format!("{rule:?} {precision:?}");
                let first = DecoderConfig::default()
                    .with_rule(rule)
                    .with_precision(precision)
                    .with_max_iterations(1)
                    .with_early_stop(false);
                let mut planes = ZigzagDecoder::new(Arc::clone(&graph), first);
                let mut reference = sweep_decoder(&graph, first);
                assert_eq!(planes.decode(&llrs), reference.decode(&llrs), "{what}");
                assert_eq!(totals_bits(&planes), totals_bits(&reference), "{what}");
                let Layout::Planes { planes: p, repaired } = &planes.schedule.0 else { panic!() };
                // Under normalized min-sum every lane but the chain head's
                // guessed wrong, and the error reaches the end of every
                // sub-chain. The offset rule zeroes many boundaries, which
                // the `0.0` guess then gets right.
                match rule {
                    CheckRule::NormalizedMinSum(_) => {
                        assert_eq!(*repaired, (LANES - 1) * p.q, "{what}")
                    }
                    _ => assert!(*repaired > 0, "{what}"),
                }

                let config = first.with_max_iterations(6);
                reference.config = config;
                reference.decode(&llrs);
                let tier = planes.simd_tier();
                let (schedule, core) = (&mut planes.schedule, &mut planes.core);
                let (totals, repaired) = match core {
                    Core::F64(m) => {
                        run_with_poisoned_guesses(schedule, &graph, &config, tier, m, &llrs)
                    }
                    Core::F32(m) => {
                        run_with_poisoned_guesses(schedule, &graph, &config, tier, m, &llrs)
                    }
                };
                assert_eq!(totals, totals_bits(&reference), "{what}: poisoned guesses");
                assert!(repaired >= 6 * (LANES - 1), "{what}: {repaired} checks repaired");
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
