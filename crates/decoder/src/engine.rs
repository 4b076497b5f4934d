//! The kernels of the float schedules' steps ([`crate::bp`]).
//!
//! The edge layouts store their messages in flat edge-indexed planes
//! (`v2c`, `c2v`) using the Tanner graph's check-major edge numbering, so
//! the check-node half-iteration streams each check's contiguous edge range
//! and the variable-node half-iteration is a single scatter-add/gather pass
//! over [`TannerGraph::edge_vars`]. The helpers here implement those passes
//! generically over the message precision, beside the row kernels the
//! rotation planes ([`crate::rotation`]) run each rule through.
//!
//! Bit-compatibility contract: for `f64` messages every helper performs the
//! same floating-point operations in the same order as the scalar loops
//! they replaced. In particular every totals pass adds each variable's
//! check messages in ascending edge-id order — exactly the order
//! `TannerGraph::var_edges` yields — so a-posteriori totals are
//! bit-identical to a per-variable gather.

use crate::llr_ops::{boxplus_lanes, CheckRule, LlrFloat};
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
/// seed-embedded regression suite pins), the table rule at both precisions,
/// and every rule on a graph without the DVB-S2 rotation structure run it.
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

/// Most lanes a row kernel takes: a rotation-plane row is 360, and the
/// state of a row stays L1-resident beside its gathered columns.
const ROW_LANES: usize = 1024;

/// A check rule's update of one row of up to [`ROW_LANES`] checks of degree
/// `d >= 3`, one per lane — the body of the float rotation planes, which
/// run one residue row of 360 checks at a time (DESIGN.md §7.10): `start`,
/// `fold` each input column as it is gathered, then write the
/// `extrinsics`. Column `j` of a row is `[j·lanes ..][.. lanes]`, so every
/// access is contiguous and the loops are dense, branchless and independent
/// across lanes.
pub(crate) trait RowKernel<F: LlrFloat> {
    /// Starts a row of `lanes` checks.
    fn start(&mut self, lanes: usize);

    /// Takes gathered input column `j`, one input per lane.
    fn fold(&mut self, j: usize, column: &[F]);

    /// Writes the row's extrinsics over `c2v`, `v2c` holding every gathered
    /// input column.
    fn extrinsics(&mut self, v2c: &[F], c2v: &mut [F], lanes: usize);

    /// The zigzag's information fold `I_c` into `out`, one per lane: the
    /// rule's left fold of the columns gathered into `v2c` (and taken by
    /// `fold`) since `start`.
    fn info_fold(&self, v2c: &[F], out: &mut [F]);

    /// The forward message `F_c = I_c ⊞ L_c`, bit for bit the extrinsic that
    /// [`RowKernel::extrinsics`] writes to the right column of a check whose
    /// other inputs are the information columns folded into `i`, then `l`.
    fn forward(&self, i: F, l: F) -> F;
}

/// The two-minima min-sum update under the rule's magnitude correction.
/// Per lane this is [`CheckRule::extrinsic_t`]'s arithmetic, whose outputs
/// do not depend on the column order (the minimum's position is a *column*
/// index).
pub(crate) struct MinSumLanes<F, C> {
    min1: [F; ROW_LANES],
    min2: [F; ROW_LANES],
    min_col: [u32; ROW_LANES],
    negative_signs: [u32; ROW_LANES],
    correct: C,
}

impl<F: LlrFloat, C: Fn(F) -> F> MinSumLanes<F, C> {
    pub(crate) fn new(correct: C) -> Self {
        MinSumLanes {
            min1: [F::INFINITY; ROW_LANES],
            min2: [F::INFINITY; ROW_LANES],
            min_col: [0; ROW_LANES],
            negative_signs: [0; ROW_LANES],
            correct,
        }
    }
}

impl<F: LlrFloat, C: Fn(F) -> F> RowKernel<F> for MinSumLanes<F, C> {
    /// Only the row's lanes are reset.
    #[inline(always)]
    fn start(&mut self, lanes: usize) {
        self.min1[..lanes].fill(F::INFINITY);
        self.min2[..lanes].fill(F::INFINITY);
        self.min_col[..lanes].fill(0);
        self.negative_signs[..lanes].fill(0);
    }

    /// Folds the column into the per-lane two minima, the minimum's column
    /// and the count of negative inputs.
    #[inline(always)]
    fn fold(&mut self, j: usize, column: &[F]) {
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

    /// Reads `v2c` only for the inputs' signs.
    #[inline(always)]
    fn extrinsics(&mut self, v2c: &[F], c2v: &mut [F], lanes: usize) {
        let (min1, min2) = (&self.min1[..lanes], &self.min2[..lanes]);
        let (min_col, negative_signs) = (&self.min_col[..lanes], &self.negative_signs[..lanes]);
        let columns = v2c.chunks_exact(lanes).zip(c2v.chunks_exact_mut(lanes));
        for (j, (v2c_col, c2v_col)) in columns.enumerate() {
            let jj = j as u32;
            for i in 0..lanes {
                let mag = (self.correct)(F::select(min_col[i] == jj, min2[i], min1[i]));
                let flip = (negative_signs[i] + v2c_col[i].is_negative() as u32) & 1 == 1;
                c2v_col[i] = mag.flip_sign_if(flip);
            }
        }
    }

    /// The smallest magnitude, with the parity of the negative inputs in the
    /// sign bit (from the folded state: `v2c` is not read).
    #[inline(always)]
    fn info_fold(&self, _v2c: &[F], out: &mut [F]) {
        for ((o, &m), &n) in out.iter_mut().zip(&self.min1).zip(&self.negative_signs) {
            *o = m.flip_sign_if(n & 1 == 1);
        }
    }

    #[inline(always)]
    fn forward(&self, i: F, l: F) -> F {
        (self.correct)(i.abs().min(l.abs())).flip_sign_if(sign_bit(i) != l.is_negative())
    }
}

/// Whether `x`'s sign bit is set (`-0.0` included, unlike
/// [`LlrFloat::is_negative`]).
#[inline(always)]
fn sign_bit<F: LlrFloat>(x: F) -> bool {
    x.bits() != x.abs().bits()
}

/// Exact sum-product under [`boxplus_lanes`]: the scalar kernel's
/// prefix/suffix structure run column by column, so the serial boxplus
/// recurrences of a whole row interleave. Check by check the chain of
/// dependent operations is the bottleneck (each one must retire before the
/// next starts); column by column every lane's chain advances one link per
/// pass over a dense array, which the vectorizer overlaps.
///
/// All accumulation runs in `f32`, and the `c2v` row doubles as the suffix
/// store — `f32 -> F -> f32` round-trips are lossless in both precisions.
/// Per lane the operation sequence is `suffix[j] = in[j] ⊞ suffix[j+1]`,
/// `out[j] = prefix[j-1] ⊞ suffix[j+1]`, `prefix[j] = prefix[j-1] ⊞ in[j]`,
/// so the last column's extrinsic is the left fold of the others.
/// `+∞` is the operator's identity (finite `x ⊞ +∞ == x`, with `-0.0`
/// becoming `+0.0`), so it stands for a missing input.
pub(crate) struct SumProductLanes {
    prefix: [f32; ROW_LANES],
}

impl SumProductLanes {
    pub(crate) fn new() -> Self {
        SumProductLanes { prefix: [0.0; ROW_LANES] }
    }
}

/// `x` rounded to the `f32` the sum-product lanes compute in.
#[inline(always)]
fn as32<F: LlrFloat>(x: F) -> f32 {
    x.to_f64() as f32
}

/// An `f32` result back in the message precision (exact).
#[inline(always)]
fn of32<F: LlrFloat>(x: f32) -> F {
    F::from_f64(x as f64)
}

impl<F: LlrFloat> RowKernel<F> for SumProductLanes {
    #[inline(always)]
    fn start(&mut self, _lanes: usize) {}

    /// Nothing to fold on the way: the prefix/suffix sweeps need the whole
    /// gathered row.
    #[inline(always)]
    fn fold(&mut self, _j: usize, _column: &[F]) {}

    #[inline(always)]
    fn extrinsics(&mut self, v2c: &[F], c2v: &mut [F], lanes: usize) {
        let k = v2c.len() / lanes;
        let col = |j: usize| j * lanes..(j + 1) * lanes;
        let prefix = &mut self.prefix[..lanes];
        // Suffix sweep into the c2v row, seeded with in[k-1] rounded once to
        // f32 (column 0's suffix is never read, so it is never computed).
        for (s, &x) in c2v[col(k - 1)].iter_mut().zip(&v2c[col(k - 1)]) {
            *s = of32::<F>(as32(x));
        }
        for j in (1..k - 1).rev() {
            let (this, next) = c2v[col(j).start..col(j + 1).end].split_at_mut(lanes);
            let input = &v2c[col(j)];
            for i in 0..lanes {
                this[i] = of32(boxplus_lanes(as32(input[i]), as32(next[i])));
            }
        }
        // Forward sweep: out[j] = prefix[j-1] ⊞ suffix[j+1], reading each
        // suffix column before the next iteration overwrites it.
        for (p, &x) in prefix.iter_mut().zip(&v2c[col(0)]) {
            *p = as32(x);
        }
        c2v.copy_within(col(1), 0);
        for j in 1..k - 1 {
            let (this, next) = c2v[col(j).start..col(j + 1).end].split_at_mut(lanes);
            let input = &v2c[col(j)];
            for i in 0..lanes {
                this[i] = of32(boxplus_lanes(prefix[i], as32(next[i])));
                prefix[i] = boxplus_lanes(prefix[i], as32(input[i]));
            }
        }
        for (s, &p) in c2v[col(k - 1)].iter_mut().zip(prefix.iter()) {
            *s = of32(p);
        }
    }

    /// `((in[0] ⊞ in[1]) ⊞ …)`, the association of the forward sweep's
    /// prefix.
    #[inline(always)]
    fn info_fold(&self, v2c: &[F], out: &mut [F]) {
        let lanes = out.len();
        out.copy_from_slice(&v2c[..lanes]);
        for column in v2c.chunks_exact(lanes).skip(1) {
            for (o, &x) in out.iter_mut().zip(column) {
                *o = of32(boxplus_lanes(as32(*o), as32(x)));
            }
        }
    }

    #[inline(always)]
    fn forward(&self, i: F, l: F) -> F {
        of32(boxplus_lanes(as32(i), as32(l)))
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
    use crate::simd::SimdTier;
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
        let mut kernel = MinSumLanes::new(|x| x);
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
            kernel.extrinsics(&v2c, &mut c2v, lanes);
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

    /// The sum-product row kernel on one row of the rotation planes.
    #[inline(always)]
    fn sum_product_row(kernel: &mut SumProductLanes, v2c: &[f32], c2v: &mut [f32]) {
        RowKernel::<f32>::extrinsics(kernel, v2c, c2v, ROW);
    }

    tier_clones!(
        sum_product_row_tier, sum_product_row, sum_product_row_avx2, sum_product_row_avx512;
        (kernel: &mut SumProductLanes, v2c: &[f32], c2v: &mut [f32])
    );

    /// Checks per row of the rotation planes.
    const ROW: usize = 360;

    #[test]
    fn sum_product_lanes_track_f64_kernel_per_check() {
        // Rows of 360 checks of every degree 4..=30 the planes build:
        // random mixed-sign messages salted with exact zeros and saturated
        // values of both signs, and lane 0 — check 0 on the planes — with
        // its left parity input (column d − 2) padded with `+∞`. On every
        // tier each extrinsic must sit within 1e-4 (relative once
        // saturated) of the f64 scalar kernel's on the check's real inputs.
        let mut rng = crate::test_support::SplitMix64(41);
        let mut kernel = SumProductLanes::new();
        for d in 4..=30 {
            let mut v2c: Vec<f32> = (0..d * ROW)
                .map(|_| match rng.next_u64() % 16 {
                    0 => 0.0,
                    1 => LLR_CLAMP as f32,
                    2 => -(LLR_CLAMP as f32),
                    _ => (50.0 * rng.next_f64() - 25.0) as f32,
                })
                .collect();
            v2c[(d - 2) * ROW] = f32::INFINITY;
            for tier in SimdTier::available() {
                let mut c2v = vec![0.0f32; d * ROW];
                sum_product_row_tier(tier, &mut kernel, &v2c, &mut c2v);
                for u in 0..ROW {
                    let pad = if u == 0 { d - 2 } else { d };
                    let columns: Vec<usize> = (0..d).filter(|&j| j != pad).collect();
                    let ins: Vec<f64> = columns.iter().map(|&j| v2c[j * ROW + u] as f64).collect();
                    let mut want = vec![0.0f64; ins.len()];
                    CheckRule::SumProduct.extrinsic(&ins, &mut want);
                    for (&j, &w) in columns.iter().zip(&want) {
                        let got = c2v[j * ROW + u] as f64;
                        assert!(
                            (got - w).abs() <= 1e-4 * w.abs().max(1.0),
                            "{tier:?} degree {d} lane {u} column {j}: {got} vs {w}"
                        );
                    }
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
