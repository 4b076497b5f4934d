//! Core LLR arithmetic for check-node updates.
//!
//! The check-node rule of Eq. 5, `tanh(out/2) = prod tanh(in_l/2)`, is
//! evaluated pairwise with the numerically stable "boxplus" form
//!
//! ```text
//! a ⊞ b = sign(a) sign(b) min(|a|,|b|)
//!         + ln(1 + e^{-|a+b|}) - ln(1 + e^{-|a-b|})
//! ```
//!
//! Min-sum keeps only the first term; normalized/offset min-sum apply a
//! scalar correction. All check-node rules implement [`CheckRule`] so the
//! decoders can be generic over them.
//!
//! Every kernel is generic over [`LlrFloat`] (`f32` or `f64`). The `f64`
//! instantiation performs exactly the same floating-point operations in the
//! same order as the original scalar code, so the double-precision reference
//! path stays bit-identical across refactors; `f32` is the fast path with
//! half the memory traffic.

use crate::engine::Lane;
use std::ops::{Add, AddAssign, Mul, Neg, Sub};
use std::sync::OnceLock;

/// Floating-point scalar usable as an LLR message (`f32` or `f64`): a
/// [`Lane`] with the arithmetic of the exact rules.
///
/// The methods mirror the `std` float API one-to-one so generic kernels
/// compile to the identical instruction sequence as hand-written scalar
/// code. Sign tests intentionally use [`Lane::is_negative`] (`x < 0.0`)
/// rather than `signum`, which would treat `-0.0` differently.
pub trait LlrFloat:
    Lane + Add<Output = Self> + Sub<Output = Self> + Mul<Output = Self> + Neg<Output = Self> + AddAssign
{
    /// Additive identity.
    const ZERO: Self;
    /// Positive infinity (min-sum accumulator seed).
    const INFINITY: Self;

    /// Converts from `f64` (rounding for `f32`).
    fn from_f64(x: f64) -> Self;
    /// Converts to `f64` (exact for both types).
    fn to_f64(self) -> f64;
    /// `self.copysign(sign)`.
    fn copysign(self, sign: Self) -> Self;
    /// `self.signum()`.
    fn signum(self) -> Self;
    /// `self.exp()`.
    fn exp(self) -> Self;
    /// `self.ln_1p()`.
    fn ln_1p(self) -> Self;
}

macro_rules! impl_llr_float {
    ($($t:ty),*) => {$(
        impl LlrFloat for $t {
            const ZERO: Self = 0.0;
            const INFINITY: Self = <$t>::INFINITY;

            #[inline]
            fn from_f64(x: f64) -> Self {
                x as $t
            }
            #[inline]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline]
            fn copysign(self, sign: Self) -> Self {
                self.copysign(sign)
            }
            #[inline]
            fn signum(self) -> Self {
                self.signum()
            }
            #[inline]
            fn exp(self) -> Self {
                self.exp()
            }
            #[inline]
            fn ln_1p(self) -> Self {
                self.ln_1p()
            }
        }
    )*};
}
impl_llr_float!(f32, f64);

/// Exact pairwise boxplus (Eq. 5), numerically stable for any finite inputs.
///
/// ```
/// use dvbs2_decoder::boxplus;
/// let out = boxplus(2.0, 3.0);
/// // Exact value: 2 atanh(tanh(1) tanh(1.5)).
/// let exact = 2.0 * ((2.0f64 / 2.0).tanh() * (3.0f64 / 2.0).tanh()).atanh();
/// assert!((out - exact).abs() < 1e-12);
/// ```
#[inline]
pub fn boxplus(a: f64, b: f64) -> f64 {
    boxplus_t(a, b)
}

/// [`boxplus`] generic over the message precision.
#[inline]
pub fn boxplus_t<F: LlrFloat>(a: F, b: F) -> F {
    let sign_min = a.abs().min(b.abs()).copysign(a) * b.signum();
    sign_min + ln_1p_exp_neg((a + b).abs()) - ln_1p_exp_neg((a - b).abs())
}

/// `ln(1 + e^{-x})` for `x >= 0`, stable against overflow.
#[inline]
fn ln_1p_exp_neg<F: LlrFloat>(x: F) -> F {
    debug_assert!(x >= F::ZERO);
    if x > F::from_f64(SOFTPLUS_CUTOFF as f64) {
        F::ZERO
    } else {
        (-x).exp().ln_1p()
    }
}

/// Argument past which `ln(1 + e^{-x})` is returned as exactly zero, shared
/// by the scalar and the lane form so both agree on where a saturated
/// message stops receiving a correction.
const SOFTPLUS_CUTOFF: f32 = 40.0;

/// `1.5 * 2^23`: adding it to `|t| < 2^22` rounds `t` to the nearest integer
/// and leaves that integer in the sum's low mantissa bits.
const ROUND_MAGIC: f32 = 12_582_912.0;

/// `ln(1 + e^{-x})` for `x >= 0` in branch-free, libm-free `f32`: the form
/// the lane-parallel sum-product passes evaluate, written with plain `*`,
/// `+` and one division so the loops around it vectorize under every
/// `#[target_feature]` tier clone and every tier computes the same bits
/// (`mul_add` would do neither on a baseline x86-64 build).
///
/// `e^{-x}` is Cephes' range-reduced degree-5 `expf`
/// (`e^{-x} = 2^n e^r`, `|r| <= ln2 / 2`), then
/// `ln(1 + u) = 2 atanh(s)` with `s = u / (2 + u) <= 1/3`, as the odd
/// minimax polynomial `2 s (1 + s^2 q(s^2))`. Absolute error is below
/// `2.5e-7` over the whole domain (swept against `f64` in the tests).
///
/// `x` is clamped to [`SOFTPLUS_CUTOFF`] before the polynomial and the
/// result zeroed past it. The clamp is what keeps every intermediate
/// normal: with a clamp at `expf`'s own limit (87) `s` falls to `1e-38`
/// and `s^3 q` goes subnormal on every saturated message, which costs
/// microcode assists worth several times the kernel itself.
#[inline(always)]
pub(crate) fn softplus_neg_f32(x: f32) -> f32 {
    let live = x <= SOFTPLUS_CUTOFF;
    let x = x.min(SOFTPLUS_CUTOFF);
    let shifted = -x * std::f32::consts::LOG2_E + ROUND_MAGIC;
    let n = shifted - ROUND_MAGIC;
    // ln 2 split Cephes-style: the high part, 355/512, has 9 significant
    // bits, so `n` times it is exact.
    let r = (-x - n * (355.0 / 512.0)) - n * -2.121_944_4e-4;
    let p = ((((1.987_569_1e-4 * r + 1.398_199_9e-3) * r + 8.333_452e-3) * r + 4.166_579_6e-2) * r
        + 1.666_666_6e-1)
        * r
        + 0.5;
    let exp_r = p * (r * r) + r + 1.0;
    // 2^n straight from the rounded sum's mantissa: n is in -58..=0, so the
    // biased exponent stays normal.
    let scale = f32::from_bits(shifted.to_bits().wrapping_sub(ROUND_MAGIC.to_bits() - 127) << 23);
    let u = exp_r * scale;
    let s = u / (2.0 + u);
    let z = s * s;
    let q = ((1.408_732_8e-1 * z + 1.399_012_7e-1) * z + 2.001_086_3e-1) * z + 3.333_322_4e-1;
    // `2 s (1 + z q)`, not `2 s + 2 s z q`: the product form never leaves
    // the normal range.
    <f32 as Lane>::select(live, 2.0 * s * (1.0 + z * q), 0.0)
}

/// Exact pairwise boxplus for the lane-parallel `f32` passes: the formula of
/// [`boxplus_t`] with both correction terms from [`softplus_neg_f32`] and
/// the sign product taken as a sign-bit XOR. Same value as the scalar form
/// up to the correction terms' rounding (`< 5e-7` absolute); unlike it,
/// free of calls and branches.
#[inline(always)]
pub(crate) fn boxplus_lanes(a: f32, b: f32) -> f32 {
    let sign = (a.to_bits() ^ b.to_bits()) & 0x8000_0000;
    let sign_min = f32::from_bits(a.abs().min(b.abs()).to_bits() | sign);
    sign_min + softplus_neg_f32((a + b).abs()) - softplus_neg_f32((a - b).abs())
}

/// Pairwise min-sum approximation of boxplus.
#[inline]
pub fn boxplus_min(a: f64, b: f64) -> f64 {
    a.abs().min(b.abs()).copysign(a) * b.signum()
}

/// Entries in the Jacobian-log correction table.
pub(crate) const BOXPLUS_TABLE_LEN: usize = 128;
/// Table resolution: bins of `1/16` LLR, covering magnitudes `[0, 8)`.
/// `ln(1 + e^{-8}) ≈ 3.4e-4`, well below the 6-bit quantizer step the
/// hardware itself tolerates, so the tail is clamped to zero.
const BOXPLUS_TABLE_BINS_PER_UNIT: f32 = 16.0;

/// The correction table `c[i] ≈ ln(1 + e^{-x})`, sampled at bin midpoints.
///
/// Built once per process; 128 × 4 bytes = 512 B, so it lives in L1 for the
/// whole decode. Entries are computed in `f64` and rounded once to `f32`.
pub(crate) fn boxplus_correction_table() -> &'static [f32; BOXPLUS_TABLE_LEN] {
    static TABLE: OnceLock<[f32; BOXPLUS_TABLE_LEN]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0.0f32; BOXPLUS_TABLE_LEN];
        for (i, entry) in table.iter_mut().enumerate() {
            let x = (i as f64 + 0.5) / BOXPLUS_TABLE_BINS_PER_UNIT as f64;
            *entry = (-x).exp().ln_1p() as f32;
        }
        table
    })
}

/// `ln(1 + e^{-x})` looked up from the correction table (`x >= 0`).
///
/// Branchless: whether `x` lands in the table or in the clamped-to-zero
/// tail is data-dependent and near-random on saturated messages, so an
/// `if idx < LEN` here mispredicts on a large fraction of lookups. The
/// wrapped load is masked to zero instead — bit-identical to the branchy
/// form (out-of-range indices read a garbage entry that the multiply by
/// `0.0` annihilates).
#[inline]
fn table_correction(table: &[f32; BOXPLUS_TABLE_LEN], x: f32) -> f32 {
    let idx = (x * BOXPLUS_TABLE_BINS_PER_UNIT) as usize;
    let in_range = (idx < BOXPLUS_TABLE_LEN) as u32 as f32;
    table[idx % BOXPLUS_TABLE_LEN] * in_range
}

/// Table-driven pairwise boxplus: `max*` with both Jacobian-log correction
/// terms read from `boxplus_correction_table` instead of evaluated with
/// transcendentals.
///
/// The computation is performed entirely in `f32` — including when called
/// from an `f64` decoder build — so the approximation is deterministic
/// across message precisions (the table itself is the only rounding source).
#[inline]
pub fn boxplus_table(a: f32, b: f32) -> f32 {
    let table = boxplus_correction_table();
    boxplus_table_with(table, a, b)
}

/// [`boxplus_table`] with the table pointer hoisted out of the inner loop.
#[inline]
pub(crate) fn boxplus_table_with(table: &[f32; BOXPLUS_TABLE_LEN], a: f32, b: f32) -> f32 {
    let sign_min = a.abs().min(b.abs()).copysign(a) * b.signum();
    sign_min + table_correction(table, (a + b).abs()) - table_correction(table, (a - b).abs())
}

/// A check-node update rule: how the magnitudes of incoming messages
/// combine. Decoders are generic over this to compare sum-product against
/// min-sum variants (one of the ablations called out in DESIGN.md).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum CheckRule {
    /// Exact sum-product (Eq. 5).
    #[default]
    SumProduct,
    /// Sum-product with both Jacobian-log correction terms read from a
    /// 128-entry table ([`boxplus_table`]) instead of computed with
    /// `exp`/`ln_1p` — the throughput variant of [`CheckRule::SumProduct`]
    /// (`CheckRule::SumProduct`). Always evaluated in `f32` internally, so
    /// its output is identical in `f32` and `f64` decoder builds.
    TableSumProduct,
    /// Min-sum with multiplicative normalization `alpha` in `(0, 1]`.
    NormalizedMinSum(f64),
    /// Min-sum with additive offset `beta >= 0` subtracted from magnitudes.
    OffsetMinSum(f64),
}

impl CheckRule {
    /// Computes the extrinsic output for every edge of one check node:
    /// `out[i] = boxplus over all in[j], j != i` under this rule.
    ///
    /// Uses an `O(d)` forward/backward sweep for sum-product and the
    /// two-minima trick for the min-sum rules.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != incoming.len()`.
    pub fn extrinsic(&self, incoming: &[f64], out: &mut [f64]) {
        self.extrinsic_t(incoming, out);
    }

    /// [`extrinsic`](Self::extrinsic) generic over the message precision.
    ///
    /// The `incoming`/`out` slices may be disjoint views into a single
    /// structure-of-arrays message store (one check node's contiguous edge
    /// range of the v2c and c2v planes) — the kernels never read `out`
    /// before writing it, so no per-check scratch copies are needed.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != incoming.len()`.
    pub fn extrinsic_t<F: LlrFloat>(&self, incoming: &[F], out: &mut [F]) {
        assert_eq!(incoming.len(), out.len(), "length mismatch");
        let d = incoming.len();
        match d {
            0 => {}
            // Degree 1: the extrinsic of the only edge is "no information".
            1 => out[0] = F::ZERO,
            2 => {
                out[0] = self.degrade(incoming[1]);
                out[1] = self.degrade(incoming[0]);
            }
            _ => match self {
                CheckRule::SumProduct => sum_product_extrinsic(incoming, out),
                CheckRule::TableSumProduct => table_sum_product_extrinsic(incoming, out),
                CheckRule::NormalizedMinSum(alpha) => {
                    let alpha = F::from_f64(*alpha);
                    min_sum_extrinsic(incoming, out, |m| m * alpha)
                }
                CheckRule::OffsetMinSum(beta) => {
                    let beta = F::from_f64(*beta);
                    min_sum_extrinsic(incoming, out, |m| (m - beta).max(F::ZERO))
                }
            },
        }
    }

    /// Applies this rule's magnitude correction to a single pass-through
    /// message (degree-2 check node).
    fn degrade<F: LlrFloat>(&self, x: F) -> F {
        match *self {
            // Degree-2 pass-through is exact under sum-product, so the
            // table variant needs no correction either.
            CheckRule::SumProduct | CheckRule::TableSumProduct => x,
            CheckRule::NormalizedMinSum(alpha) => x * F::from_f64(alpha),
            CheckRule::OffsetMinSum(beta) => (x.abs() - F::from_f64(beta)).max(F::ZERO).copysign(x),
        }
    }
}

/// Forward/backward sum-product extrinsic for `d >= 3`.
fn sum_product_extrinsic<F: LlrFloat>(incoming: &[F], out: &mut [F]) {
    let d = incoming.len();
    // out[i] currently unused; reuse it as the suffix accumulator store.
    // suffix[i] = incoming[i+1] ⊞ ... ⊞ incoming[d-1]
    out[d - 1] = incoming[d - 1];
    for i in (0..d - 1).rev() {
        out[i] = boxplus_t(incoming[i], out[i + 1]);
    }
    let mut prefix = incoming[0];
    let total_suffix = out[1];
    out[0] = total_suffix;
    for i in 1..d {
        let suffix = if i + 1 < d { out[i + 1] } else { F::ZERO };
        out[i] = if i + 1 < d { boxplus_t(prefix, suffix) } else { prefix };
        prefix = boxplus_t(prefix, incoming[i]);
    }
}

/// Forward/backward table-driven sum-product extrinsic for `d >= 3`.
///
/// Same prefix/suffix structure as [`sum_product_extrinsic`], with every
/// pairwise boxplus replaced by the table lookup. All arithmetic runs in
/// `f32` regardless of `F`: inputs are rounded once on entry, so the `f64`
/// instantiation produces bit-identical outputs to the `f32` one (for
/// inputs exactly representable in `f32`, i.e. everything an `f32` decode
/// would feed it).
fn table_sum_product_extrinsic<F: LlrFloat>(incoming: &[F], out: &mut [F]) {
    let table = boxplus_correction_table();
    let d = incoming.len();
    debug_assert!(d >= 3);
    let mut suffix = [0.0f32; 64];
    assert!(d <= suffix.len(), "check degree {d} exceeds kernel stack buffer");
    // suffix[i] = incoming[i+1] ⊞ ... ⊞ incoming[d-1]
    suffix[d - 1] = incoming[d - 1].to_f64() as f32;
    for i in (0..d - 1).rev() {
        suffix[i] = boxplus_table_with(table, incoming[i].to_f64() as f32, suffix[i + 1]);
    }
    let mut prefix = incoming[0].to_f64() as f32;
    out[0] = F::from_f64(suffix[1] as f64);
    for i in 1..d - 1 {
        out[i] = F::from_f64(boxplus_table_with(table, prefix, suffix[i + 1]) as f64);
        prefix = boxplus_table_with(table, prefix, incoming[i].to_f64() as f32);
    }
    out[d - 1] = F::from_f64(prefix as f64);
}

/// Two-minima min-sum extrinsic for `d >= 3` with a magnitude correction.
///
/// The minima tracking is written with selects rather than an
/// `if/else if` chain: on random LLRs the chain mispredicts constantly,
/// and the selection logic is equivalent (`min2.min(mag)` covers the
/// "between the minima" case exactly).
fn min_sum_extrinsic<F: LlrFloat>(incoming: &[F], out: &mut [F], correct: impl Fn(F) -> F) {
    let mut min1 = F::INFINITY;
    let mut min2 = F::INFINITY;
    let mut min_idx = 0usize;
    let mut negative_signs = 0u32;
    for (i, &x) in incoming.iter().enumerate() {
        let mag = x.abs();
        // Two-smallest recurrence as min/max plus a mask blend for the
        // index: the new second minimum is min(min2, max(min1, mag)) — if
        // `mag` beats min1, the displaced min1 is the candidate, otherwise
        // `mag` itself is. Exact value selection with no data-dependent
        // branch; the comparison outcomes are near-random, so branching on
        // them mispredicts on a large fraction of messages.
        let smaller = mag < min1;
        min2 = min2.min(min1.max(mag));
        min1 = min1.min(mag);
        let mask = (smaller as usize).wrapping_neg();
        min_idx = (i & mask) | (min_idx & !mask);
        negative_signs += x.is_negative() as u32;
    }
    // sign_product * self_sign as one parity bit; toggling the sign bit is
    // exact, so the result is bit-identical to the two-multiply
    // formulation.
    for (i, o) in out.iter_mut().enumerate() {
        let mag = correct(F::select(i == min_idx, min2, min1));
        let flip = (negative_signs + incoming[i].is_negative() as u32) & 1 == 1;
        *o = mag.flip_sign_if(flip);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_boxplus(a: f64, b: f64) -> f64 {
        2.0 * ((a / 2.0).tanh() * (b / 2.0).tanh()).atanh()
    }

    #[test]
    fn boxplus_matches_tanh_formula() {
        for &(a, b) in &[(0.3, 0.7), (-1.2, 2.5), (4.0, -4.0), (0.01, 8.0), (-3.0, -3.0)] {
            assert!((boxplus(a, b) - exact_boxplus(a, b)).abs() < 1e-10, "({a},{b})");
        }
    }

    #[test]
    fn boxplus_is_commutative_and_bounded() {
        for &(a, b) in &[(1.0, 2.0), (-0.5, 3.0), (10.0, -0.1)] {
            assert!((boxplus(a, b) - boxplus(b, a)).abs() < 1e-14);
            assert!(boxplus(a, b).abs() <= a.abs().min(b.abs()) + 1e-12);
        }
    }

    #[test]
    fn boxplus_zero_annihilates() {
        assert_eq!(boxplus(0.0, 5.0), 0.0);
        assert_eq!(boxplus(-7.0, 0.0), 0.0);
    }

    #[test]
    fn boxplus_large_inputs_behave_like_min() {
        // The correction terms decay as e^{-|a-b|}: 4.5e-5 at gap 10.
        let out = boxplus(50.0, -60.0);
        assert!((out + 50.0).abs() < 1e-4, "{out}");
    }

    #[test]
    fn vector_softplus_tracks_f64_over_the_whole_domain() {
        let exact = |x: f32| (-(x as f64)).exp().ln_1p();
        let mut previous = f32::INFINITY;
        let mut worst = 0.0f64;
        for step in 0..=600_000u32 {
            let x = step as f32 * 1e-4;
            let got = softplus_neg_f32(x);
            worst = worst.max((got as f64 - exact(x)).abs());
            assert!(got <= previous, "not monotone at {x}: {got} after {previous}");
            assert!(x <= SOFTPLUS_CUTOFF || got == 0.0, "{x} is past the cutoff, got {got}");
            previous = got;
        }
        assert!(worst <= 2.5e-7, "worst absolute error {worst:.3e}");
        // The smallest arguments and the far tail, which the grid skips.
        for x in [0.0f32, f32::MIN_POSITIVE, 1e-30, 1e-10, 1e-6] {
            assert!((softplus_neg_f32(x) as f64 - exact(x)).abs() <= 2.5e-7, "{x}");
        }
        for x in [40.000_004f32, 87.0, 1e6, crate::LLR_CLAMP as f32, f32::INFINITY] {
            assert_eq!(softplus_neg_f32(x), 0.0, "{x}");
        }
        assert!(softplus_neg_f32(SOFTPLUS_CUTOFF) > 0.0);
    }

    #[test]
    fn lane_boxplus_tracks_scalar_boxplus() {
        let values =
            [0.0f32, -0.0, 1e-3, -0.4, 0.7, 2.5, -3.0, 8.0, -19.5, 27.0, 41.0, -60.0, 1e12];
        for &a in &values {
            for &b in &values {
                let got = boxplus_lanes(a, b) as f64;
                let want = boxplus(a as f64, b as f64);
                assert!((got - want).abs() <= 1e-6 * (1.0 + want.abs()), "({a},{b}): {got} {want}");
            }
        }
        assert_eq!(boxplus_t(f32::INFINITY, -2.5), -2.5);
    }

    /// `+∞` is the lane boxplus's identity on either side, bit for bit, for
    /// every finite `x` but `-0.0`, which comes back as `+0.0` (the sign
    /// product is `-0.0`, and adding the zero corrections rounds it to
    /// `+0.0`). The rotation planes pad check 0's missing left input with
    /// it, so the pad changes no sum-product output but a `-0.0`.
    #[test]
    fn lane_boxplus_has_infinity_as_identity() {
        let clamp = crate::LLR_CLAMP as f32;
        let cutoff = SOFTPLUS_CUTOFF;
        let magnitudes = [
            0.0,
            1e-45,
            f32::MIN_POSITIVE,
            1e-6,
            0.7,
            2.5,
            cutoff.next_down(),
            cutoff,
            cutoff.next_up(),
            1e6,
            clamp,
            f32::MAX,
        ];
        for x in magnitudes.into_iter().flat_map(|m| [m, -m]) {
            let want = if x == 0.0 { 0.0f32 } else { x };
            for got in [boxplus_lanes(x, f32::INFINITY), boxplus_lanes(f32::INFINITY, x)] {
                assert_eq!(got.to_bits(), want.to_bits(), "{x:e}: {got:e}");
            }
        }
    }

    #[test]
    fn min_sum_upper_bounds_sum_product_magnitude() {
        for &(a, b) in &[(1.0, 2.0), (-0.5, 3.0), (2.2, -1.1)] {
            assert!(boxplus_min(a, b).abs() >= boxplus(a, b).abs());
            assert_eq!(boxplus_min(a, b).signum(), boxplus(a, b).signum());
        }
    }

    /// Brute-force reference: extrinsic for edge i is the fold of all others.
    fn reference_extrinsic(rule: &CheckRule, incoming: &[f64]) -> Vec<f64> {
        let fold = |vals: Vec<f64>| -> f64 {
            match rule {
                // The table rule's reference is the exact fold; tolerance is
                // the caller's business.
                CheckRule::SumProduct | CheckRule::TableSumProduct => {
                    vals.into_iter().reduce(boxplus).unwrap_or(0.0)
                }
                CheckRule::NormalizedMinSum(alpha) => {
                    let sign: f64 =
                        vals.iter().map(|v| if *v < 0.0 { -1.0 } else { 1.0 }).product();
                    let mag = vals.iter().map(|v| v.abs()).fold(f64::INFINITY, f64::min);
                    if mag.is_infinite() {
                        0.0
                    } else {
                        sign * mag * alpha
                    }
                }
                CheckRule::OffsetMinSum(beta) => {
                    let sign: f64 =
                        vals.iter().map(|v| if *v < 0.0 { -1.0 } else { 1.0 }).product();
                    let mag = vals.iter().map(|v| v.abs()).fold(f64::INFINITY, f64::min);
                    if mag.is_infinite() {
                        0.0
                    } else {
                        sign * (mag - beta).max(0.0)
                    }
                }
            }
        };
        (0..incoming.len())
            .map(|i| {
                let others: Vec<f64> =
                    incoming.iter().enumerate().filter(|&(j, _)| j != i).map(|(_, &v)| v).collect();
                fold(others)
            })
            .collect()
    }

    #[test]
    fn sum_product_extrinsic_matches_brute_force() {
        let incoming = [1.5, -0.7, 2.2, 0.3, -4.0, 1.1];
        let mut out = [0.0; 6];
        CheckRule::SumProduct.extrinsic(&incoming, &mut out);
        let want = reference_extrinsic(&CheckRule::SumProduct, &incoming);
        for (o, w) in out.iter().zip(&want) {
            assert!((o - w).abs() < 1e-10, "{o} vs {w}");
        }
    }

    #[test]
    fn min_sum_extrinsic_matches_brute_force() {
        let incoming = [1.5, -0.7, 2.2, 0.3, -4.0];
        for rule in [CheckRule::NormalizedMinSum(0.75), CheckRule::OffsetMinSum(0.3)] {
            let mut out = [0.0; 5];
            rule.extrinsic(&incoming, &mut out);
            let want = reference_extrinsic(&rule, &incoming);
            for (o, w) in out.iter().zip(&want) {
                assert!((o - w).abs() < 1e-12, "{rule:?}: {o} vs {w}");
            }
        }
    }

    #[test]
    fn degree_two_passes_messages_across() {
        let incoming = [3.0, -1.0];
        let mut out = [0.0; 2];
        CheckRule::SumProduct.extrinsic(&incoming, &mut out);
        assert_eq!(out, [-1.0, 3.0]);
    }

    #[test]
    fn degree_one_outputs_zero() {
        let mut out = [123.0];
        CheckRule::SumProduct.extrinsic(&[5.0], &mut out);
        assert_eq!(out, [0.0]);
    }

    #[test]
    fn table_boxplus_tracks_exact_boxplus() {
        // Midpoint sampling bounds each correction term's error by half a
        // bin width times the slope bound |d/dx ln(1+e^-x)| <= 1: two terms
        // stay within ~0.07 of the transcendental form.
        for &(a, b) in &[(0.3, 0.7), (-1.2, 2.5), (4.0, -4.0), (0.01, 8.0), (-3.0, -3.0)] {
            let approx = boxplus_table(a as f32, b as f32) as f64;
            assert!((approx - boxplus(a, b)).abs() < 0.07, "({a},{b}): {approx}");
        }
        // Tail clamp: far past the table the exact value is min-sum anyway.
        assert!((boxplus_table(50.0, -60.0) as f64 + 50.0).abs() < 1e-3);
        // Zero annihilates exactly (both corrections cancel).
        assert_eq!(boxplus_table(0.0, 5.0), 0.0);
    }

    #[test]
    fn table_sum_product_tracks_exact_extrinsic() {
        let incoming = [1.5, -0.7, 2.2, 0.3, -4.0, 1.1];
        let mut out = [0.0; 6];
        CheckRule::TableSumProduct.extrinsic(&incoming, &mut out);
        let want = reference_extrinsic(&CheckRule::SumProduct, &incoming);
        for (o, w) in out.iter().zip(&want) {
            // d-1 pairwise table ops, each within ~0.07.
            assert!((o - w).abs() < 0.4, "{o} vs {w}");
            assert_eq!(o.signum(), w.signum());
        }
    }

    #[test]
    fn table_sum_product_is_deterministic_across_precisions() {
        // The kernel computes in f32 internally, so feeding it the same
        // f32-representable values through the f32 and f64 instantiations
        // must produce bit-identical outputs.
        let incoming32: Vec<f32> = vec![1.5, -0.7, 2.2, 0.3, -4.0, 1.1, 0.0, -2.25];
        let incoming64: Vec<f64> = incoming32.iter().map(|&x| x as f64).collect();
        let mut out32 = vec![0.0f32; incoming32.len()];
        let mut out64 = vec![0.0f64; incoming64.len()];
        CheckRule::TableSumProduct.extrinsic_t(&incoming32, &mut out32);
        CheckRule::TableSumProduct.extrinsic_t(&incoming64, &mut out64);
        for (a, b) in out32.iter().zip(&out64) {
            assert_eq!(*a as f64, *b, "f32/f64 table kernels diverged");
        }
    }

    #[test]
    fn duplicate_minima_are_handled() {
        // Both minima equal: every extrinsic magnitude must be that minimum.
        let incoming = [2.0, -2.0, 5.0];
        let mut out = [0.0; 3];
        CheckRule::NormalizedMinSum(1.0).extrinsic(&incoming, &mut out);
        assert_eq!(out.map(f64::abs), [2.0, 2.0, 2.0]);
    }
}
