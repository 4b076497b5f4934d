//! The kernels of the float schedules' steps ([`crate::bp`]).
//!
//! The edge layouts store their messages in flat edge-indexed planes
//! (`v2c`, `c2v`) using the Tanner graph's check-major edge numbering, so
//! the check-node half-iteration streams each check's contiguous edge range
//! and the variable-node half-iteration is a single scatter-add/gather pass
//! over [`TannerGraph::edge_vars`]. The helpers here implement those passes
//! generically over the message precision.
//!
//! Bit-compatibility contract: for `f64` messages every helper performs the
//! same floating-point operations in the same order as the scalar loops
//! they replaced. In particular every totals pass adds each variable's
//! check messages in ascending edge-id order — exactly the order
//! `TannerGraph::var_edges` yields — so a-posteriori totals are
//! bit-identical to a per-variable gather.

use crate::llr_ops::{
    boxplus_correction_table, boxplus_lanes, boxplus_table_with, CheckRule, LlrFloat,
};
use crate::simd::SimdTier;
use dvbs2_ldpc::TannerGraph;

/// Message precision of a belief-propagation decoder.
///
/// `F64` is the bit-compatible reference path (identical results to the
/// original scalar decoders); `F32` halves the message-store footprint and
/// memory traffic, trading ~1e-3 relative message accuracy, which leaves
/// the decoded BER essentially unchanged (see the README performance notes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// Double-precision messages: the reference path.
    #[default]
    F64,
    /// Single-precision messages: the fast path.
    F32,
}

/// Largest channel-LLR magnitude the float decoders accept.
///
/// Every float decoder sanitizes its input through the engine's
/// `load_llrs` boundary: `NaN`
/// becomes `0.0` (an erasure — no information) and anything beyond
/// `±LLR_CLAMP` saturates to the clamp. Without this, an `inf` input makes
/// the check-node gather compute `inf - inf = NaN`, which then poisons
/// every message it touches. The clamp is far above any physical LLR
/// (demappers top out around `1e3`) yet small enough that degree-sized sums
/// of clamped values stay finite even in `f32`.
pub const LLR_CLAMP: f64 = 1e12;

/// Maps one raw channel LLR onto the decoders' finite domain: `NaN` → `0.0`
/// (no information), `±inf` and oversized magnitudes → `±LLR_CLAMP`.
/// Ordinary finite LLRs pass through unchanged, preserving the `f64` path's
/// bit-compatibility contract.
#[inline]
pub(crate) fn sanitize_llr(x: f64) -> f64 {
    if x.is_nan() {
        0.0
    } else {
        x.clamp(-LLR_CLAMP, LLR_CLAMP)
    }
}

/// Converts channel LLRs into the engine's message precision, reusing the
/// destination buffer (no allocation once `dst` has been sized). This is
/// the single ingestion boundary of every float decoder, so non-finite
/// inputs are sanitized here — in the `f64` domain, *before* any `f32`
/// narrowing (a large-but-finite `f64` like `1e300` would otherwise become
/// `inf` in `f32`).
#[inline]
pub(crate) fn load_llrs<F: LlrFloat>(dst: &mut [F], src: &[f64]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = F::from_f64(sanitize_llr(s));
    }
}

/// One fused flooding iteration: for every check, gather its inputs
/// (`v2c[e] = totals[var] - c2v[e]`) from the current totals, run the
/// kernel in place on the planes, and scatter the fresh extrinsics into
/// `totals_next` while the slice is still cache-hot — a single streaming
/// pass over the edge planes instead of separate gather, kernel, and
/// accumulate sweeps.
///
/// On return `totals_next` holds the a-posteriori totals implied by the
/// fresh `c2v`, accumulated in ascending edge order with the channel LLR
/// added last, as a per-variable gather over the new `c2v` rounds.
///
/// This is the scalar flooding pass: f64 sum-product (the reference the
/// seed-embedded regression suite pins) and the min-sum rules on a graph
/// without the DVB-S2 rotation structure run it.
#[inline]
pub(crate) fn fused_check_pass<F: LlrFloat>(
    graph: &TannerGraph,
    rule: &CheckRule,
    llr: &[F],
    totals: &[F],
    v2c: &mut [F],
    c2v: &mut [F],
    totals_next: &mut [F],
) {
    let offsets = graph.check_offsets();
    let edge_vars = graph.edge_vars();
    totals_next.fill(F::ZERO);
    for c in 0..graph.check_count() {
        let range = offsets[c] as usize..offsets[c + 1] as usize;
        for e in range.clone() {
            v2c[e] = totals[edge_vars[e] as usize] - c2v[e];
        }
        rule.extrinsic_t(&v2c[range.clone()], &mut c2v[range.clone()]);
        for e in range {
            totals_next[edge_vars[e] as usize] += c2v[e];
        }
    }
    for (t, &l) in totals_next.iter_mut().zip(llr) {
        *t = l + *t;
    }
}

/// Transposed (column-major) layout of the check-message planes for the
/// f32 sum-product passes, the table rule and the chain-decoupled zigzag:
/// checks are grouped by degree, and within a degree class the planes are
/// stored column by column — slot `base + j * m + i` holds the `j`-th
/// message of the class's `i`-th check.
///
/// With this layout a fixed-`j` sweep over a class reads and writes the
/// planes *contiguously*, turning each check's serial prefix/suffix
/// recurrence into `m` independent per-lane recurrences over dense arrays —
/// the shape the auto-vectorizer and the out-of-order core both want. The
/// only non-contiguous access left in the check pass is the unavoidable
/// `totals[var]` gather, served by the pre-transposed `slot_vars` table.
///
/// `edge_to_slot` maps the graph's check-major edge ids onto slots so the
/// variable-node accumulation can still run in ascending *edge* order (the
/// bit-compatibility contract for `f64` totals).
#[derive(Debug, Clone)]
pub(crate) struct BlockedChecks {
    classes: Vec<DegreeClass>,
    /// Variable index of each slot (edge_vars permuted into slot order).
    slot_vars: Vec<u32>,
    /// Slot of each edge (inverse of the edge→slot permutation).
    edge_to_slot: Vec<u32>,
}

#[derive(Debug, Clone)]
struct DegreeClass {
    degree: usize,
    /// First slot of the class's column-major plane region.
    slot_base: usize,
    checks: Vec<u32>,
}

impl DegreeClass {
    /// Whether this is the class [`BlockedChecks::for_chain`] isolates
    /// check 0 in (chain layouts only).
    fn is_chain_head(&self) -> bool {
        self.checks[0] == 0
    }

    /// Information edges per check in a chain layout: every check has a
    /// right parity edge, every check but 0 a left one.
    fn info_degree(&self) -> usize {
        self.degree - if self.is_chain_head() { 1 } else { 2 }
    }
}

impl BlockedChecks {
    pub(crate) fn new(graph: &TannerGraph) -> Self {
        Self::grouped(graph, false)
    }

    /// The layout for the chain-decoupled zigzag sweep over a DVB-S2 (IRA)
    /// graph: check 0, the only check without a left parity edge, gets a
    /// class of its own (the first), so within every class the information
    /// edges are the same leading columns and the parity edges the same
    /// trailing ones.
    pub(crate) fn for_chain(graph: &TannerGraph) -> Self {
        Self::grouped(graph, true)
    }

    fn grouped(graph: &TannerGraph, isolate_first: bool) -> Self {
        let offsets = graph.check_offsets();
        let edge_vars = graph.edge_vars();
        let mut classes: Vec<DegreeClass> = Vec::new();
        for c in 0..graph.check_count() {
            let degree = (offsets[c + 1] - offsets[c]) as usize;
            let closed = usize::from(isolate_first && c > 0);
            match classes.iter_mut().skip(closed).find(|k| k.degree == degree) {
                Some(class) => class.checks.push(c as u32),
                None => classes.push(DegreeClass { degree, slot_base: 0, checks: vec![c as u32] }),
            }
        }
        let mut slot_vars = vec![0u32; graph.edge_count()];
        let mut edge_to_slot = vec![0u32; graph.edge_count()];
        let mut slot_base = 0usize;
        for class in &mut classes {
            class.slot_base = slot_base;
            let m = class.checks.len();
            for (i, &c) in class.checks.iter().enumerate() {
                let start = offsets[c as usize] as usize;
                for j in 0..class.degree {
                    let slot = slot_base + j * m + i;
                    let e = start + j;
                    slot_vars[slot] = edge_vars[e];
                    edge_to_slot[e] = slot as u32;
                }
            }
            slot_base += m * class.degree;
        }
        BlockedChecks { classes, slot_vars, edge_to_slot }
    }

    /// Slot of each check-major edge id (for edge-order accumulation).
    pub(crate) fn edge_to_slot(&self) -> &[u32] {
        &self.edge_to_slot
    }
}

/// A-posteriori totals from transposed-plane messages in ascending edge
/// order, channel LLR added last (as [`fused_check_pass`] scatters them),
/// reading each message through the edge→slot permutation.
#[inline(always)]
pub(crate) fn accumulate_totals_slotted<F: LlrFloat>(
    edge_vars: &[u32],
    edge_to_slot: &[u32],
    llr: &[F],
    c2v_t: &[F],
    totals: &mut [F],
) {
    totals.fill(F::ZERO);
    for (&v, &slot) in edge_vars.iter().zip(edge_to_slot) {
        totals[v as usize] += c2v_t[slot as usize];
    }
    for (t, &l) in totals.iter_mut().zip(llr) {
        *t = l + *t;
    }
}

/// Lane count of one kernel stripe: wide enough that contiguous column
/// runs vectorize and the recurrence has abundant independent lanes, small
/// enough that the stripe's state plus its plane columns stay L1-resident.
const STRIPE: usize = 1024;

/// Gather plus extrinsics for a class of degree below 3, one check at a
/// time through the scalar kernel's special-cased path (a pass-through
/// under either sum-product rule).
fn degenerate_class_pass<F: LlrFloat>(
    slot_vars: &[u32],
    totals: &[F],
    v2c_t: &mut [F],
    c2v_t: &mut [F],
    class: &DegreeClass,
) {
    let (d, m, base) = (class.degree, class.checks.len(), class.slot_base);
    let mut tmp_in = [F::ZERO; 2];
    let mut tmp_out = [F::ZERO; 2];
    for i in 0..m {
        for (j, t) in tmp_in[..d].iter_mut().enumerate() {
            let s = base + j * m + i;
            *t = totals[slot_vars[s] as usize] - c2v_t[s];
        }
        CheckRule::SumProduct.extrinsic_t(&tmp_in[..d], &mut tmp_out[..d]);
        for (j, (&inp, &out)) in tmp_in[..d].iter().zip(&tmp_out[..d]).enumerate() {
            let s = base + j * m + i;
            v2c_t[s] = inp;
            c2v_t[s] = out;
        }
    }
}

/// The min-sum update of up to [`STRIPE`] checks of degree `d >= 3`, one
/// per lane — the two-minima body of the float rotation planes (one
/// residue row of 360 checks at a time): `start`, `fold` each gathered
/// input column, then write the `extrinsics`. Every access is contiguous
/// (the minimum's position is a *column* index), so the loops are dense,
/// branchless and independent across lanes. Per lane this is
/// [`CheckRule::extrinsic_t`]'s arithmetic, whose outputs do not depend on
/// the column order (DESIGN.md §7.10).
pub(crate) struct MinSumLanes<F> {
    min1: [F; STRIPE],
    min2: [F; STRIPE],
    min_col: [u32; STRIPE],
    negative_signs: [u32; STRIPE],
}

impl<F: LlrFloat> MinSumLanes<F> {
    pub(crate) fn new() -> Self {
        MinSumLanes {
            min1: [F::INFINITY; STRIPE],
            min2: [F::INFINITY; STRIPE],
            min_col: [0; STRIPE],
            negative_signs: [0; STRIPE],
        }
    }

    /// Starts a stripe of `lanes` checks (only those lanes are reset).
    #[inline(always)]
    pub(crate) fn start(&mut self, lanes: usize) {
        self.min1[..lanes].fill(F::INFINITY);
        self.min2[..lanes].fill(F::INFINITY);
        self.min_col[..lanes].fill(0);
        self.negative_signs[..lanes].fill(0);
    }

    /// Folds input column `j`, one input per lane, into the per-lane two
    /// minima, the minimum's column and the count of negative inputs.
    #[inline(always)]
    pub(crate) fn fold(&mut self, j: usize, column: &[F]) {
        let b = column.len();
        let (min1, min2) = (&mut self.min1[..b], &mut self.min2[..b]);
        let (min_col, negative_signs) = (&mut self.min_col[..b], &mut self.negative_signs[..b]);
        let jj = j as u32;
        for i in 0..b {
            let x = column[i];
            let mag = x.abs();
            // Two-smallest recurrence as min/max plus a mask blend for the
            // column index: the new second minimum is
            // min(min2, max(min1, mag)) — if `mag` beats min1, the
            // displaced min1 is the candidate, otherwise `mag` itself is.
            // Exact value selection, no data-dependent branches.
            let smaller = mag < min1[i];
            min2[i] = min2[i].min(min1[i].max(mag));
            min1[i] = min1[i].min(mag);
            let mask = (smaller as u32).wrapping_neg();
            min_col[i] = (jj & mask) | (min_col[i] & !mask);
            negative_signs[i] += x.is_negative() as u32;
        }
    }

    /// Writes the extrinsics of the folded columns over `c2v`, whose column
    /// `j` is `[j·lanes ..][.. lanes]` (`v2c` in the same shape, still
    /// holding the inputs, for their signs).
    #[inline(always)]
    pub(crate) fn extrinsics(
        &self,
        v2c: &[F],
        c2v: &mut [F],
        lanes: usize,
        correct: impl Fn(F) -> F,
    ) {
        let (min1, min2) = (&self.min1[..lanes], &self.min2[..lanes]);
        let (min_col, negative_signs) = (&self.min_col[..lanes], &self.negative_signs[..lanes]);
        let columns = v2c.chunks_exact(lanes).zip(c2v.chunks_exact_mut(lanes));
        for (j, (v2c_col, c2v_col)) in columns.enumerate() {
            let jj = j as u32;
            for i in 0..lanes {
                let mag = correct(F::select(min_col[i] == jj, min2[i], min1[i]));
                let flip = (negative_signs[i] + v2c_col[i].is_negative() as u32) & 1 == 1;
                c2v_col[i] = mag.flip_sign_if(flip);
            }
        }
    }
}

/// One stripe of a column-major plane region: `lanes` consecutive checks,
/// whose `j`-th messages sit `stride` slots apart.
#[derive(Clone, Copy)]
struct Stripe {
    /// Slot of the stripe's first lane in column 0.
    first: usize,
    /// Checks in the class (the distance between columns).
    stride: usize,
    lanes: usize,
}

impl Stripe {
    /// The stripes of `class`, in lane order.
    fn of(class: &DegreeClass) -> impl Iterator<Item = (usize, Stripe)> {
        let (base, m) = (class.slot_base, class.checks.len());
        (0..m)
            .step_by(STRIPE)
            .map(move |i0| (i0, Stripe { first: base + i0, stride: m, lanes: STRIPE.min(m - i0) }))
    }

    /// Slot range of the stripe's lanes in column `j`.
    fn col(&self, j: usize) -> std::ops::Range<usize> {
        let start = self.first + j * self.stride;
        start..start + self.lanes
    }

    /// The stripe's lanes of `plane` in column `j`, mutably, with those in
    /// column `j + 1` beside them.
    fn col_and_next<'a, F>(&self, plane: &'a mut [F], j: usize) -> (&'a mut [F], &'a [F]) {
        let (this, next) = plane[self.col(j).start..self.col(j + 1).end].split_at_mut(self.stride);
        (&mut this[..self.lanes], &next[..self.lanes])
    }
}

/// Gathers columns `0..cols` of a stripe: `v2c_t[s] = totals[var] - c2v_t[s]`.
#[inline(always)]
fn gather_stripe<F: LlrFloat>(
    slot_vars: &[u32],
    totals: &[F],
    v2c_t: &mut [F],
    c2v_t: &[F],
    stripe: Stripe,
    cols: usize,
) {
    for j in 0..cols {
        let vars = &slot_vars[stripe.col(j)];
        let old = &c2v_t[stripe.col(j)];
        for (i, x) in v2c_t[stripe.col(j)].iter_mut().enumerate() {
            *x = totals[vars[i] as usize] - old[i];
        }
    }
}

/// Prefix/suffix extrinsics over columns `0..k` (`k >= 2`) of one gathered
/// stripe, under the pairwise operator `op`: the structure of the scalar
/// sum-product kernels run column by column, so the serial boxplus
/// recurrences of a whole stripe of checks interleave. Check by check the
/// chain of dependent operations is the bottleneck (each one must retire
/// before the next starts); column by column every lane's chain advances one
/// link per pass over a dense array — independent lanes the vectorizer (or,
/// for a table lookup, the out-of-order core) overlaps.
///
/// All accumulation runs in `f32`, and the `c2v` plane doubles as the suffix
/// store — `f32 -> F -> f32` round-trips are lossless in both precisions.
/// Per lane the operation sequence is
/// `suffix[j] = in[j] op suffix[j+1]`, `out[j] = prefix[j-1] op suffix[j+1]`,
/// `prefix[j] = prefix[j-1] op in[j]`, exactly that of
/// `table_sum_product_extrinsic`. On return column `j` of `c2v_t` holds the
/// fold of every column but `j`, and `prefix` the fold of columns
/// `0..k - 1` (the last column's extrinsic).
#[inline(always)]
fn prefix_suffix_stripe<F: LlrFloat>(
    v2c_t: &[F],
    c2v_t: &mut [F],
    stripe: Stripe,
    k: usize,
    op: impl Fn(f32, f32) -> f32,
    prefix: &mut [f32; STRIPE],
) {
    let as32 = |x: F| x.to_f64() as f32;
    let of32 = |x: f32| F::from_f64(x as f64);
    let b = stripe.lanes;
    let prefix = &mut prefix[..b];
    // Suffix sweep into the c2v plane, seeded with in[k-1] rounded once to
    // f32 (column 0's suffix is never read, so it is never computed).
    for (s, &x) in c2v_t[stripe.col(k - 1)].iter_mut().zip(&v2c_t[stripe.col(k - 1)]) {
        *s = of32(as32(x));
    }
    for j in (1..k - 1).rev() {
        let (this, next) = stripe.col_and_next(c2v_t, j);
        let input = &v2c_t[stripe.col(j)];
        for i in 0..b {
            this[i] = of32(op(as32(input[i]), as32(next[i])));
        }
    }
    // Forward sweep: out[j] = prefix[j-1] op suffix[j+1], reading each
    // suffix column before the next iteration overwrites it.
    for (p, &x) in prefix.iter_mut().zip(&v2c_t[stripe.col(0)]) {
        *p = as32(x);
    }
    c2v_t.copy_within(stripe.col(1), stripe.first);
    for j in 1..k - 1 {
        let (this, next) = stripe.col_and_next(c2v_t, j);
        let input = &v2c_t[stripe.col(j)];
        for i in 0..b {
            this[i] = of32(op(prefix[i], as32(next[i])));
            prefix[i] = op(prefix[i], as32(input[i]));
        }
    }
    for (s, &p) in c2v_t[stripe.col(k - 1)].iter_mut().zip(prefix.iter()) {
        *s = of32(p);
    }
}

/// Check-node half-iteration for a sum-product rule over the transposed
/// planes: every class gathered and run through [`prefix_suffix_stripe`]
/// under the rule's pairwise operator, stripe by stripe. Like the min-sum
/// pass it leaves the totals to [`accumulate_totals_slotted`].
#[inline(always)]
fn blocked_prefix_suffix_pass<F: LlrFloat>(
    blocked: &BlockedChecks,
    totals: &[F],
    v2c_t: &mut [F],
    c2v_t: &mut [F],
    op: impl Fn(f32, f32) -> f32 + Copy,
) {
    let slot_vars = &blocked.slot_vars[..];
    let mut prefix = [0.0f32; STRIPE];
    for class in &blocked.classes {
        let d = class.degree;
        if d < 3 {
            degenerate_class_pass(slot_vars, totals, v2c_t, c2v_t, class);
            continue;
        }
        for (_, stripe) in Stripe::of(class) {
            // Gather every column first: the suffix sweep overwrites `c2v`,
            // which the gather still reads.
            gather_stripe(slot_vars, totals, v2c_t, c2v_t, stripe, d);
            prefix_suffix_stripe(v2c_t, c2v_t, stripe, d, op, &mut prefix);
        }
    }
}

/// The table-driven sum-product rule through [`blocked_prefix_suffix_pass`]:
/// per check the operation sequence (and therefore the output, bit for bit)
/// is that of [`CheckRule::extrinsic_t`] on the check's messages.
///
/// Kept out of line: inlined into the decoder's iteration loop, the lookup
/// loops lose their unrolling and the pass runs at about half speed.
#[inline(never)]
pub(crate) fn blocked_table_sum_product_pass<F: LlrFloat>(
    blocked: &BlockedChecks,
    totals: &[F],
    v2c_t: &mut [F],
    c2v_t: &mut [F],
) {
    let table = boxplus_correction_table();
    blocked_prefix_suffix_pass(blocked, totals, v2c_t, c2v_t, move |a, b| {
        boxplus_table_with(table, a, b)
    });
}

/// Exact sum-product through [`blocked_prefix_suffix_pass`] under
/// [`boxplus_lanes`]: the `f32` fast path, where the branch-free operator
/// lets every column sweep vectorize across the stripe's checks. (The `f64`
/// reference keeps the scalar check-by-check kernel, whose operation order
/// the seed-embedded regression suite pins.)
#[inline(always)]
pub(crate) fn blocked_sum_product_pass<F: LlrFloat>(
    blocked: &BlockedChecks,
    totals: &[F],
    v2c_t: &mut [F],
    c2v_t: &mut [F],
) {
    blocked_prefix_suffix_pass(blocked, totals, v2c_t, c2v_t, boxplus_lanes);
}

/// Phase A of the chain-decoupled zigzag sweep over a
/// [`BlockedChecks::for_chain`] layout: the information edges of every
/// check, which depend on nothing but the previous totals, lane-parallel
/// per class. Leaves each check's information-only extrinsics `E_j` in the
/// information columns of `c2v_t` (the parity columns are not touched) and
/// its all-information fold `I_c` in `info_fold[c]`.
#[inline(always)]
pub(crate) fn chain_info_pass(
    blocked: &BlockedChecks,
    totals: &[f32],
    v2c_t: &mut [f32],
    c2v_t: &mut [f32],
    info_fold: &mut [f32],
) {
    let slot_vars = &blocked.slot_vars[..];
    let mut fold = [0.0f32; STRIPE];
    for class in &blocked.classes {
        let k = class.info_degree();
        // A check without information edges folds to the boxplus identity —
        // except a lone degree-1 check 0, which by the scalar kernels'
        // convention says nothing at all.
        let identity = if class.degree == 1 { 0.0 } else { f32::INFINITY };
        for (i0, stripe) in Stripe::of(class) {
            let b = stripe.lanes;
            gather_stripe(slot_vars, totals, v2c_t, c2v_t, stripe, k);
            match k {
                0 => fold[..b].fill(identity),
                1 => fold[..b].copy_from_slice(&v2c_t[stripe.col(0)]),
                _ => {
                    prefix_suffix_stripe(v2c_t, c2v_t, stripe, k, boxplus_lanes, &mut fold);
                    for (f, &x) in fold[..b].iter_mut().zip(&v2c_t[stripe.col(k - 1)]) {
                        *f = boxplus_lanes(*f, x);
                    }
                }
            }
            for (&c, &f) in class.checks[i0..i0 + b].iter().zip(&fold[..b]) {
                info_fold[c as usize] = f;
            }
        }
    }
}

/// Phase C of the chain-decoupled zigzag sweep: with the chain's forward
/// recurrence done (`left_in[c]`/`right_in[c]` the parity inputs of check
/// `c`, `fwd[c]` its forward message), finishes every check lane-parallel —
/// `B_c = I_c ⊞ R_c` into the left parity column and `bwd[c]`,
/// `out_j = E_j ⊞ (L_c ⊞ R_c)` over the information columns, `fwd[c]` into
/// the right parity column. Check 0 has no left edge: its information
/// outputs fold with `R_0` alone.
///
/// The per-check values are staged into stripe-local arrays first: indexed
/// loads in the same loop as the boxplus would keep it from vectorizing.
#[inline(always)]
pub(crate) fn chain_combine_pass(
    blocked: &BlockedChecks,
    c2v_t: &mut [f32],
    info_fold: &[f32],
    left_in: &[f32],
    right_in: &[f32],
    fwd: &[f32],
    bwd: &mut [f32],
) {
    let mut both = [0.0f32; STRIPE];
    let mut right = [0.0f32; STRIPE];
    let mut back = [0.0f32; STRIPE];
    for class in &blocked.classes {
        let k = class.info_degree();
        let head = class.is_chain_head();
        for (i0, stripe) in Stripe::of(class) {
            let b = stripe.lanes;
            let checks = &class.checks[i0..i0 + b];
            let (both, right, back) = (&mut both[..b], &mut right[..b], &mut back[..b]);
            for (i, &c) in checks.iter().enumerate() {
                both[i] = left_in[c as usize];
                right[i] = right_in[c as usize];
                back[i] = info_fold[c as usize];
            }
            if head {
                both.copy_from_slice(right);
            } else {
                for i in 0..b {
                    both[i] = boxplus_lanes(both[i], right[i]);
                    back[i] = boxplus_lanes(back[i], right[i]);
                }
            }
            if k == 1 {
                // The lone information edge's extrinsic is the identity.
                c2v_t[stripe.col(0)].copy_from_slice(both);
            } else {
                for j in 0..k {
                    for (e, &p) in c2v_t[stripe.col(j)].iter_mut().zip(both.iter()) {
                        *e = boxplus_lanes(*e, p);
                    }
                }
            }
            let mut parity = k;
            if !head {
                c2v_t[stripe.col(parity)].copy_from_slice(back);
                for (&c, &x) in checks.iter().zip(back.iter()) {
                    bwd[c as usize] = x;
                }
                parity += 1;
            }
            for (x, &c) in c2v_t[stripe.col(parity)].iter_mut().zip(checks) {
                *x = fwd[c as usize];
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Runtime SIMD dispatch.
//
// Each `*_tier` function selects among clones of the kernel above it,
// compiled with progressively wider `#[target_feature]` sets. The clones
// call the `#[inline(always)]` base kernel, so the whole loop nest inherits
// the wrapper's feature set and the auto-vectorizer emits 256-/512-bit code
// without a compile-time `target-cpu` floor. The clones are the SAME Rust —
// identical operation order, no contraction — so every tier is bit-identical
// (pinned by `tests/sum_product_f32.rs` and `tests/qsimd.rs`). Callers resolve
// a `SimdTier` once per decoder via `SimdTier::resolve`, which guarantees the
// tier is supported, making the `unsafe` target-feature calls sound. The
// AVX-512 rung means F, BW and VL together (`SimdTier::Avx512`): the float
// kernels need only F, the `i16` lanes of `qsimd` need all three.

/// Tier clones of a kernel — every float and integer-lane kernel of the
/// crate dispatches through this one ladder; `<F>` after the dispatcher's
/// name makes all three generic over the message precision.
macro_rules! tier_clones {
    ($(#[$doc:meta])* $dispatch:ident $(<$f:ident>)?, $base:ident, $avx2:ident, $avx512:ident;
     ($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)?) => {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        #[allow(clippy::too_many_arguments)]
        unsafe fn $avx2$(<$f: LlrFloat>)?($($arg: $ty),*) $(-> $ret)? {
            $base($($arg),*)
        }

        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx512f,avx512bw,avx512vl")]
        #[allow(clippy::too_many_arguments)]
        unsafe fn $avx512$(<$f: LlrFloat>)?($($arg: $ty),*) $(-> $ret)? {
            $base($($arg),*)
        }

        $(#[$doc])*
        #[allow(clippy::too_many_arguments)]
        pub(crate) fn $dispatch$(<$f: LlrFloat>)?(tier: SimdTier, $($arg: $ty),*) $(-> $ret)? {
            // SAFETY: the clones only add target features to safe bodies,
            // and `tier` comes from `SimdTier::resolve`, which panics on a
            // tier this CPU lacks.
            match tier {
                #[cfg(target_arch = "x86_64")]
                SimdTier::Avx2 => unsafe { $avx2($($arg),*) },
                #[cfg(target_arch = "x86_64")]
                SimdTier::Avx512 => unsafe { $avx512($($arg),*) },
                _ => $base($($arg),*),
            }
        }
    };
}
pub(crate) use tier_clones;

tier_clones!(
    /// [`accumulate_totals_slotted`] dispatched onto the selected SIMD tier.
    accumulate_totals_slotted_tier<F>, accumulate_totals_slotted,
    accumulate_totals_slotted_avx2, accumulate_totals_slotted_avx512;
    (edge_vars: &[u32], edge_to_slot: &[u32], llr: &[F], c2v_t: &[F], totals: &mut [F])
);

tier_clones!(
    /// [`blocked_sum_product_pass`] dispatched onto the selected SIMD tier.
    blocked_sum_product_pass_tier<F>, blocked_sum_product_pass,
    blocked_sum_product_pass_avx2, blocked_sum_product_pass_avx512;
    (blocked: &BlockedChecks, totals: &[F], v2c_t: &mut [F], c2v_t: &mut [F])
);

tier_clones!(
    /// [`chain_info_pass`] dispatched onto the selected SIMD tier.
    chain_info_pass_tier, chain_info_pass, chain_info_pass_avx2, chain_info_pass_avx512;
    (
        blocked: &BlockedChecks,
        totals: &[f32],
        v2c_t: &mut [f32],
        c2v_t: &mut [f32],
        info_fold: &mut [f32],
    )
);

tier_clones!(
    /// [`chain_combine_pass`] dispatched onto the selected SIMD tier.
    chain_combine_pass_tier, chain_combine_pass,
    chain_combine_pass_avx2, chain_combine_pass_avx512;
    (
        blocked: &BlockedChecks,
        c2v_t: &mut [f32],
        info_fold: &[f32],
        left_in: &[f32],
        right_in: &[f32],
        fwd: &[f32],
        bwd: &mut [f32],
    )
);

/// `true` when the hard decisions implied by the totals' signs satisfy
/// every check equation. Equivalent to `syndrome_ok(graph,
/// &hard_decisions(totals))` but streams the check-major edge layout
/// without materialising a bit vector.
pub(crate) fn syndrome_ok_totals<F: LlrFloat>(graph: &TannerGraph, totals: &[F]) -> bool {
    let offsets = graph.check_offsets();
    let edge_vars = graph.edge_vars();
    for c in 0..graph.check_count() {
        let range = offsets[c] as usize..offsets[c + 1] as usize;
        let mut parity = 0u32;
        for &v in &edge_vars[range] {
            parity ^= totals[v as usize].is_negative() as u32;
        }
        if parity != 0 {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stopping::{hard_decisions, syndrome_ok};
    use crate::test_support::small_code;

    /// The totals passes' reference: scatter-add the check messages in
    /// ascending edge order onto zero, then add the channel LLR on top. This
    /// rounds exactly as the per-variable
    /// `llr[v] + var_edges(v).map(..).sum::<f64>()` gather (an `llr`-seeded
    /// accumulator would associate the additions differently).
    fn accumulate_totals<F: LlrFloat>(edge_vars: &[u32], llr: &[F], c2v: &[F], totals: &mut [F]) {
        totals.fill(F::ZERO);
        for (&v, &m) in edge_vars.iter().zip(c2v) {
            totals[v as usize] += m;
        }
        for (t, &l) in totals.iter_mut().zip(llr) {
            *t = l + *t;
        }
    }

    #[test]
    fn accumulate_totals_matches_per_variable_gather() {
        let (_, graph) = small_code();
        let edges = graph.edge_count();
        let mut rng = crate::test_support::SplitMix64(9);
        let llr: Vec<f64> = (0..graph.var_count()).map(|_| rng.next_f64() - 0.5).collect();
        let c2v: Vec<f64> = (0..edges).map(|_| rng.next_f64() - 0.5).collect();
        let mut totals = vec![0.0f64; graph.var_count()];
        accumulate_totals(graph.edge_vars(), &llr, &c2v, &mut totals);
        for v in 0..graph.var_count() {
            let want: f64 =
                llr[v] + graph.var_edges(v).iter().map(|&e| c2v[e as usize]).sum::<f64>();
            // Bit-identical, not approximately equal: same summation order.
            assert_eq!(totals[v], want, "var {v}");
        }
    }

    #[test]
    fn fused_pass_matches_separate_gather_kernel_accumulate() {
        let (_, graph) = small_code();
        let edges = graph.edge_count();
        let mut rng = crate::test_support::SplitMix64(11);
        let llr: Vec<f64> = (0..graph.var_count()).map(|_| rng.next_f64() - 0.5).collect();
        let c2v_start: Vec<f64> = (0..edges).map(|_| rng.next_f64() - 0.5).collect();
        let mut totals = vec![0.0f64; graph.var_count()];
        accumulate_totals(graph.edge_vars(), &llr, &c2v_start, &mut totals);

        // Fused path.
        let rule = CheckRule::SumProduct;
        let mut v2c = vec![0.0f64; edges];
        let mut c2v = c2v_start.clone();
        let mut totals_next = vec![0.0f64; graph.var_count()];
        fused_check_pass(&graph, &rule, &llr, &totals, &mut v2c, &mut c2v, &mut totals_next);

        // Reference: explicit gather, per-check kernel, then accumulate.
        let mut ref_v2c = vec![0.0f64; edges];
        for (e, o) in ref_v2c.iter_mut().enumerate() {
            *o = totals[graph.var_of_edge(e)] - c2v_start[e];
        }
        let mut ref_c2v = c2v_start;
        for c in 0..graph.check_count() {
            let range = graph.check_edges(c);
            rule.extrinsic_t(&ref_v2c[range.clone()], &mut ref_c2v[range]);
        }
        let mut ref_totals = vec![0.0f64; graph.var_count()];
        accumulate_totals(graph.edge_vars(), &llr, &ref_c2v, &mut ref_totals);

        assert_eq!(c2v, ref_c2v);
        assert_eq!(totals_next, ref_totals); // bit-identical summation order
    }

    #[test]
    fn syndrome_and_decisions_agree_with_bitvec_path() {
        let (_, graph) = small_code();
        let mut rng = crate::test_support::SplitMix64(4);
        for _ in 0..4 {
            let totals: Vec<f64> = (0..graph.var_count()).map(|_| rng.next_f64() - 0.5).collect();
            let bits = hard_decisions(&totals);
            assert_eq!(syndrome_ok_totals(&graph, &totals), syndrome_ok(&graph, &bits));
            let mut out = dvbs2_ldpc::BitVec::zeros(totals.len());
            out.fill_from(&totals, LlrFloat::is_negative);
            assert_eq!(out, bits);
        }
    }

    /// Brute-force min-sum with the "first strict minimum" tie-break: the
    /// retained minimum index is the first position whose magnitude is
    /// strictly smaller than everything before it. Works for any degree >= 2.
    fn first_strict_min_reference(ins: &[f64], outs: &mut [f64]) {
        let mut min1 = f64::INFINITY;
        let mut min2 = f64::INFINITY;
        let mut min_idx = 0usize;
        let mut neg = 0u32;
        for (j, &x) in ins.iter().enumerate() {
            let mag = x.abs();
            if mag < min1 {
                min2 = min1;
                min1 = mag;
                min_idx = j;
            } else if mag < min2 {
                min2 = mag;
            }
            neg += (x < 0.0) as u32;
        }
        for (j, (&x, o)) in ins.iter().zip(outs.iter_mut()).enumerate() {
            let mag = if j == min_idx { min2 } else { min1 };
            let flip = (neg - (x < 0.0) as u32) % 2 == 1;
            *o = if flip { -mag } else { mag };
        }
    }

    #[test]
    fn min_sum_tie_break_keeps_first_strict_minimum() {
        // Duplicate minima are the interesting case: coarse-grid magnitudes
        // make almost every check see an exact tie, and the retained index
        // must be the FIRST strict minimum in both the scalar rule and the
        // lane kernel (mask-blend column tracking), at every degree the
        // DVB-S2 rows have and a ragged lane count.
        let mut rng = crate::test_support::SplitMix64(23);
        let rule = CheckRule::NormalizedMinSum(1.0);
        let lanes = 361;
        let mut kernel = MinSumLanes::new();
        for d in 3..=30 {
            let v2c: Vec<f64> = (0..d * lanes)
                .map(|_| {
                    let mag = (rng.next_u64() % 3 + 1) as f64 * 0.5;
                    if rng.next_bool() {
                        -mag
                    } else {
                        mag
                    }
                })
                .collect();
            let mut c2v = vec![0.0f64; d * lanes];
            kernel.start(lanes);
            for (j, column) in v2c.chunks_exact(lanes).enumerate() {
                kernel.fold(j, column);
            }
            kernel.extrinsics(&v2c, &mut c2v, lanes, |x| x);
            for u in 0..lanes {
                let ins: Vec<f64> = (0..d).map(|j| v2c[j * lanes + u]).collect();
                let mut want = vec![0.0; d];
                first_strict_min_reference(&ins, &mut want);
                let mut scalar = vec![0.0; d];
                rule.extrinsic_t(&ins, &mut scalar);
                assert_eq!(scalar, want, "degree {d} lane {u}: scalar rule");
                let got: Vec<f64> = (0..d).map(|j| c2v[j * lanes + u]).collect();
                assert_eq!(got, want, "degree {d} lane {u}: lane kernel");
            }
        }
    }

    #[test]
    fn blocked_table_pass_matches_scalar_kernel_per_check() {
        // The column-major table-boxplus sweep must emit, check for check,
        // exactly the scalar `extrinsic_t` outputs — same f32 accumulation,
        // same operation order — in both plane precisions.
        fn run<F: LlrFloat>(seed: u64) {
            let (_, graph) = small_code();
            let blocked = BlockedChecks::new(&graph);
            let edges = graph.edge_count();
            let mut rng = crate::test_support::SplitMix64(seed);
            let totals: Vec<F> =
                (0..graph.var_count()).map(|_| F::from_f64(8.0 * rng.next_f64() - 4.0)).collect();
            let c2v_start: Vec<F> =
                (0..edges).map(|_| F::from_f64(2.0 * rng.next_f64() - 1.0)).collect();
            let mut v2c_t = vec![F::ZERO; edges];
            let mut c2v_t = c2v_start.clone();
            blocked_table_sum_product_pass(&blocked, &totals, &mut v2c_t, &mut c2v_t);

            let edge_vars = graph.edge_vars();
            for c in 0..graph.check_count() {
                let range = graph.check_edges(c);
                let ins: Vec<F> = range
                    .clone()
                    .map(|e| {
                        totals[edge_vars[e] as usize] - c2v_start[blocked.edge_to_slot[e] as usize]
                    })
                    .collect();
                let mut want = vec![F::ZERO; ins.len()];
                CheckRule::TableSumProduct.extrinsic_t(&ins, &mut want);
                for (k, e) in range.enumerate() {
                    let slot = blocked.edge_to_slot[e] as usize;
                    assert_eq!(v2c_t[slot], ins[k], "check {c} edge {e}: gather");
                    assert_eq!(c2v_t[slot], want[k], "check {c} edge {e}: extrinsic");
                }
            }
        }
        run::<f32>(29);
        run::<f64>(31);
    }

    #[test]
    fn blocked_sum_product_pass_tracks_f64_kernel_per_check() {
        // Four checks of every degree 3..=30 over private variables, so the
        // gathered inputs are the totals themselves: random mixed-sign
        // messages salted with exact zeros and saturated values of both
        // signs. Every lane-pass extrinsic must sit within 1e-4 (relative
        // once saturated) of the f64 scalar kernel's.
        let mut rng = crate::test_support::SplitMix64(41);
        let mut edges = Vec::new();
        for (c, d) in (3..=30u32).flat_map(|d| [d; 4]).enumerate() {
            for _ in 0..d {
                edges.push((c as u32, edges.len() as u32));
            }
        }
        let graph = TannerGraph::from_edges(edges.len(), 4 * 28, &edges);
        let blocked = BlockedChecks::new(&graph);
        let totals: Vec<f32> = (0..edges.len())
            .map(|_| match rng.next_u64() % 16 {
                0 => 0.0,
                1 => crate::LLR_CLAMP as f32,
                2 => -(crate::LLR_CLAMP as f32),
                _ => (50.0 * rng.next_f64() - 25.0) as f32,
            })
            .collect();
        let mut v2c_t = vec![0.0f32; edges.len()];
        let mut c2v_t = vec![0.0f32; edges.len()];
        for tier in SimdTier::available() {
            c2v_t.fill(0.0);
            blocked_sum_product_pass_tier(tier, &blocked, &totals, &mut v2c_t, &mut c2v_t);
            for c in 0..graph.check_count() {
                let range = graph.check_edges(c);
                let ins: Vec<f64> = range.clone().map(|e| totals[e] as f64).collect();
                let mut want = vec![0.0f64; ins.len()];
                CheckRule::SumProduct.extrinsic(&ins, &mut want);
                for (e, &w) in range.zip(&want) {
                    let got = c2v_t[blocked.edge_to_slot[e] as usize] as f64;
                    assert!(
                        (got - w).abs() <= 1e-4 * w.abs().max(1.0),
                        "{tier:?} check {c} (degree {}) edge {e}: {got} vs {w}",
                        ins.len()
                    );
                }
            }
        }
    }

    #[test]
    fn f32_helpers_round_trip() {
        let llr = [1.5f64, -2.0, 0.25];
        let mut dst = [0.0f32; 3];
        load_llrs(&mut dst, &llr);
        assert_eq!(dst, [1.5f32, -2.0, 0.25]);
    }

    #[test]
    fn load_llrs_sanitizes_non_finite_inputs() {
        let raw = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300, -1e300, 3.5, -0.25];
        let mut f64_dst = [0.0f64; 7];
        load_llrs(&mut f64_dst, &raw);
        assert_eq!(f64_dst, [0.0, LLR_CLAMP, -LLR_CLAMP, LLR_CLAMP, -LLR_CLAMP, 3.5, -0.25]);
        // Clamping happens in f64, so a huge finite f64 cannot sneak an inf
        // through the f32 narrowing.
        let mut f32_dst = [0.0f32; 7];
        load_llrs(&mut f32_dst, &raw);
        assert!(f32_dst.iter().all(|x| x.is_finite()));
        assert_eq!(f32_dst[5], 3.5f32);
    }
}
