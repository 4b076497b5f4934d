//! The kernels of the float schedules' steps ([`crate::bp`]) and the row
//! kernels of every lane datapath.
//!
//! The edge layouts store their messages in flat edge-indexed planes
//! (`v2c`, `c2v`) using the Tanner graph's check-major edge numbering, so
//! the check-node half-iteration streams each check's contiguous edge range
//! and the variable-node half-iteration is a single scatter-add/gather pass
//! over [`TannerGraph::edge_vars`]. The helpers here implement those passes
//! generically over the message precision, beside the two row kernels
//! ([`RowKernel`], generic over the [`Lane`] type) that the float rotation
//! planes ([`crate::rotation`]), the quantized `i8` lanes (`qsimd`) and,
//! through [`FuLanes`](crate::FuLanes), the hardware models' functional-unit
//! array run every check rule through.
//!
//! Bit-compatibility contract: for `f64` messages every helper performs the
//! same floating-point operations in the same order as the scalar loops
//! they replaced. In particular every totals pass adds each variable's
//! check messages in ascending edge-id order — exactly the order
//! `TannerGraph::var_edges` yields — so a-posteriori totals are
//! bit-identical to a per-variable gather.

use crate::llr_ops::{boxplus_lanes, CheckRule, LlrFloat};
use dvbs2_ldpc::TannerGraph;
use std::fmt::Debug;
use std::ops::BitXor;

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

/// One lane of a row kernel: the message types the check updates run on —
/// `f32` and `f64` for the float rules ([`LlrFloat`] extends it), `i8` for
/// the served quantized lanes and `i16` for the hardware models'
/// functional-unit array. The methods are the two-minima recurrence's,
/// branch-free where the condition is data.
pub trait Lane: Copy + PartialOrd + Debug + Default + Send + Sync + 'static {
    /// Above every input magnitude: the two minima's seed (`+∞` for the
    /// floats, `i8::MAX` or `i16::MAX` for the quantized lanes, whose inputs
    /// stay within `±max_mag`).
    const MAX: Self;

    /// The minimum's column and the negative-sign parity, one per lane:
    /// never wider than the lane, so the integer kernels' state vectors are
    /// single-width (`u8`, `u16`). Both floats take `u32`: beside `f64` a
    /// `u64` word ran flooding min-sum about 15 % slower (AVX-512, 2 vCPUs).
    type Word: Copy + Eq + Default + BitXor<Output = Self::Word> + From<bool> + From<u8>;

    /// `self.abs()`.
    fn abs(self) -> Self;
    /// `self.min(other)` (`std` NaN semantics for the floats).
    fn min(self, other: Self) -> Self;
    /// `self.max(other)` (`std` NaN semantics for the floats).
    fn max(self, other: Self) -> Self;
    /// `self < 0` (`-0.0` is not negative).
    fn is_negative(self) -> bool;
    /// `if flip { -self } else { self }`, without a data-dependent branch
    /// (a sign-bit XOR for the floats): in the kernels `flip` is a
    /// near-random parity bit.
    fn flip_sign_if(self, flip: bool) -> Self;
    /// `if take_a { a } else { b }`, lowered to a bit-mask blend.
    fn select(take_a: bool, a: Self, b: Self) -> Self;
    /// The bit pattern, widened to `u64`: two values have equal `bits`
    /// exactly when they are bit-identical (`0.0` and `-0.0` differ).
    fn bits(self) -> u64;
}

macro_rules! impl_float_lane {
    ($($t:ty => $b:ty);*) => {$(
        impl Lane for $t {
            const MAX: Self = <$t>::INFINITY;
            type Word = u32;

            #[inline(always)]
            fn abs(self) -> Self {
                self.abs()
            }
            #[inline(always)]
            fn min(self, other: Self) -> Self {
                self.min(other)
            }
            #[inline(always)]
            fn max(self, other: Self) -> Self {
                self.max(other)
            }
            #[inline(always)]
            fn is_negative(self) -> bool {
                self < 0.0
            }
            #[inline(always)]
            fn flip_sign_if(self, flip: bool) -> Self {
                <$t>::from_bits(self.to_bits() ^ ((flip as $b) << (<$b>::BITS - 1)))
            }
            #[inline(always)]
            fn select(take_a: bool, a: Self, b: Self) -> Self {
                let mask = (take_a as $b).wrapping_neg();
                <$t>::from_bits((a.to_bits() & mask) | (b.to_bits() & !mask))
            }
            #[inline(always)]
            fn bits(self) -> u64 {
                self.to_bits().into()
            }
        }
    )*};
}
impl_float_lane!(f32 => u32; f64 => u64);

macro_rules! impl_int_lane {
    ($($t:ty => $w:ty);*) => {$(
        impl Lane for $t {
            const MAX: Self = <$t>::MAX;
            type Word = $w;

            #[inline(always)]
            fn abs(self) -> Self {
                self.abs()
            }
            #[inline(always)]
            fn min(self, other: Self) -> Self {
                Ord::min(self, other)
            }
            #[inline(always)]
            fn max(self, other: Self) -> Self {
                Ord::max(self, other)
            }
            #[inline(always)]
            fn is_negative(self) -> bool {
                self < 0
            }
            #[inline(always)]
            fn flip_sign_if(self, flip: bool) -> Self {
                let mask = -(flip as $t);
                (self ^ mask) - mask
            }
            #[inline(always)]
            fn select(take_a: bool, a: Self, b: Self) -> Self {
                let mask = -(take_a as $t);
                (a & mask) | (b & !mask)
            }
            #[inline(always)]
            fn bits(self) -> u64 {
                self as $w as u64
            }
        }
    )*};
}
impl_int_lane!(i8 => u8; i16 => u16);

/// Most lanes a row kernel takes: a rotation-plane row is 360, and the
/// state of a row stays L1-resident beside its gathered columns.
pub(crate) const ROW_LANES: usize = 1024;

/// A check rule's update of one row of up to [`ROW_LANES`] checks of degree
/// `d >= 3`, one per lane — the check-node body of every lane datapath: the
/// float rotation planes (DESIGN.md §7.10), the quantized `i8` lanes and,
/// through [`FuLanes`](crate::FuLanes), the hardware models' functional-unit
/// array (§7.8). Each runs one row of 360 checks at a time: `start`, `fold`
/// each input column as it is gathered, then write the `extrinsics`.
/// Column `j` of a row is `[j·lanes ..][.. lanes]`, so every access is
/// contiguous and the loops are dense, branchless and independent across
/// lanes.
///
/// Per lane every kernel is bit for bit a scalar reference, which the
/// kernels are tested against and which stays the definition:
/// [`CheckRule::extrinsic_t`] for the min-sum rules,
/// [`QCheckArithmetic::extrinsic`] for the quantized min-sum and
/// [`QBoxplus::extrinsic`] for the quantized LUT. Exact `f32` sum-product
/// has the prefix/suffix fold under [`boxplus_lanes`] and sits within
/// `1e-4` of `CheckRule::SumProduct`.
///
/// [`QCheckArithmetic::extrinsic`]: crate::QCheckArithmetic::extrinsic
/// [`QBoxplus::extrinsic`]: crate::QBoxplus::extrinsic
pub(crate) trait RowKernel<L: Lane> {
    /// Starts a row of `lanes` checks.
    fn start(&mut self, lanes: usize);

    /// Takes gathered input column `j`, one input per lane.
    fn fold(&mut self, j: usize, column: &[L]);

    /// Writes the row's extrinsics over `c2v`, `v2c` holding every gathered
    /// input column.
    fn extrinsics(&mut self, v2c: &[L], c2v: &mut [L], lanes: usize);
}

/// What the float zigzag's three phases (DESIGN.md §7.11) ask of a row
/// kernel beyond the row update.
pub(crate) trait ZigzagKernel<F: LlrFloat>: RowKernel<F> {
    /// The zigzag's information fold `I_c` into `out`, one per lane: the
    /// rule's left fold of the columns gathered into `v2c` (and taken by
    /// `fold`) since `start`.
    fn info_fold(&self, v2c: &[F], out: &mut [F]);

    /// The forward message `F_c = I_c ⊞ L_c`, bit for bit the extrinsic that
    /// [`RowKernel::extrinsics`] writes to the right column of a check whose
    /// other inputs are the information columns folded into `i`, then `l`.
    fn forward(&self, i: F, l: F) -> F;
}

/// One whole row through `kernel`: every column of `v2c` folded, then the
/// extrinsics over `c2v`.
#[inline(always)]
pub(crate) fn row_update<L: Lane>(
    kernel: &mut impl RowKernel<L>,
    v2c: &[L],
    c2v: &mut [L],
    lanes: usize,
) {
    kernel.start(lanes);
    for (j, column) in v2c.chunks_exact(lanes).enumerate() {
        kernel.fold(j, column);
    }
    kernel.extrinsics(v2c, c2v, lanes);
}

/// The two-minima min-sum update under a magnitude correction: per lane
/// the first strict minimum's column, the two smallest magnitudes and the
/// parity of the negative inputs, whose outputs do not depend on the
/// column order (the minimum's position is a *column* index). `correct`
/// is the rule's: `mag·α` normalized, `max(mag − β, 0)` offset, and the
/// quantized lanes' shift `m − (m >> s)`.
pub(crate) struct MinSumLanes<L: Lane, C> {
    min1: [L; ROW_LANES],
    min2: [L; ROW_LANES],
    min_col: [L::Word; ROW_LANES],
    negative_parity: [L::Word; ROW_LANES],
    correct: C,
}

impl<L: Lane, C: Fn(L) -> L + Copy> MinSumLanes<L, C> {
    pub(crate) fn new(correct: C) -> Self {
        MinSumLanes {
            min1: [L::MAX; ROW_LANES],
            min2: [L::MAX; ROW_LANES],
            min_col: [L::Word::default(); ROW_LANES],
            negative_parity: [L::Word::default(); ROW_LANES],
            correct,
        }
    }
}

impl<L: Lane, C: Fn(L) -> L + Copy> RowKernel<L> for MinSumLanes<L, C> {
    /// Only the row's lanes are reset.
    #[inline(always)]
    fn start(&mut self, lanes: usize) {
        self.min1[..lanes].fill(L::MAX);
        self.min2[..lanes].fill(L::MAX);
        self.min_col[..lanes].fill(L::Word::default());
        self.negative_parity[..lanes].fill(L::Word::default());
    }

    /// Folds the column into the per-lane two minima, the minimum's column
    /// and the negative-sign parity.
    #[inline(always)]
    fn fold(&mut self, j: usize, column: &[L]) {
        let b = column.len();
        let (min1, min2) = (&mut self.min1[..b], &mut self.min2[..b]);
        let (min_col, parity) = (&mut self.min_col[..b], &mut self.negative_parity[..b]);
        let jj = column_word::<L>(j);
        for i in 0..b {
            let x = column[i];
            let mag = x.abs();
            // Two-smallest recurrence as min/max plus a blend for the
            // column index: the new second minimum is
            // min(min2, max(min1, mag)) — if `mag` beats min1, the
            // displaced min1 is the candidate, otherwise `mag` itself is.
            // Exact value selection, no data-dependent branches.
            let smaller = mag < min1[i];
            min2[i] = min2[i].min(min1[i].max(mag));
            min1[i] = min1[i].min(mag);
            min_col[i] = if smaller { jj } else { min_col[i] };
            parity[i] = parity[i] ^ x.is_negative().into();
        }
    }

    /// Reads `v2c` only for the inputs' signs.
    #[inline(always)]
    fn extrinsics(&mut self, v2c: &[L], c2v: &mut [L], lanes: usize) {
        let (min1, min2) = (&self.min1[..lanes], &self.min2[..lanes]);
        let (min_col, parity) = (&self.min_col[..lanes], &self.negative_parity[..lanes]);
        let correct = self.correct; // by value, as `PrefixSuffixLanes` takes its operator
        let columns = v2c.chunks_exact(lanes).zip(c2v.chunks_exact_mut(lanes));
        for (j, (v2c_col, c2v_col)) in columns.enumerate() {
            let jj = column_word::<L>(j);
            for i in 0..lanes {
                let mag = correct(L::select(min_col[i] == jj, min2[i], min1[i]));
                let flip = parity[i] ^ v2c_col[i].is_negative().into() != L::Word::default();
                c2v_col[i] = mag.flip_sign_if(flip);
            }
        }
    }
}

impl<F: LlrFloat, C: Fn(F) -> F + Copy> ZigzagKernel<F> for MinSumLanes<F, C> {
    /// The smallest magnitude, with the parity of the negative inputs in the
    /// sign bit (from the folded state: `v2c` is not read).
    #[inline(always)]
    fn info_fold(&self, _v2c: &[F], out: &mut [F]) {
        for ((o, &m), &n) in out.iter_mut().zip(&self.min1).zip(&self.negative_parity) {
            *o = m.flip_sign_if(n != F::Word::default());
        }
    }

    #[inline(always)]
    fn forward(&self, i: F, l: F) -> F {
        (self.correct)(i.abs().min(l.abs())).flip_sign_if(sign_bit(i) != l.is_negative())
    }
}

/// Column `j` as a [`Lane::Word`].
#[inline(always)]
fn column_word<L: Lane>(j: usize) -> L::Word {
    u8::try_from(j).expect("a check has fewer than 256 inputs").into()
}

/// Whether `x`'s sign bit is set (`-0.0` included, unlike
/// [`Lane::is_negative`]).
#[inline(always)]
fn sign_bit<F: LlrFloat>(x: F) -> bool {
    x.bits() != x.abs().bits()
}

/// The exact rules' update under a pairwise operator `op`: the scalar
/// kernels' prefix/suffix structure run column by column, so the serial
/// recurrences of a whole row interleave. Check by check the chain of
/// dependent operations is the bottleneck (each one must retire before the
/// next starts); column by column every lane's chain advances one link per
/// pass over a dense array, which the vectorizer overlaps.
///
/// Per lane the operation sequence is `suffix[j] = in[j] op suffix[j+1]`,
/// `out[j] = prefix[j-1] op suffix[j+1]`, `prefix[j] = prefix[j-1] op in[j]`,
/// so the last column's extrinsic is the left fold of the others — the
/// association of [`QBoxplus::extrinsic`](crate::QBoxplus::extrinsic). The
/// `c2v` row doubles as the suffix store. Two operators run it: exact `f32`
/// sum-product ([`sum_product_lanes`]) and the quantized LUT combine
/// (`qsimd`'s `lut_kernel!`).
pub(crate) struct PrefixSuffixLanes<L, Op> {
    prefix: [L; ROW_LANES],
    op: Op,
}

impl<L: Lane, Op: Fn(L, L) -> L + Copy> PrefixSuffixLanes<L, Op> {
    pub(crate) fn new(op: Op) -> Self {
        PrefixSuffixLanes { prefix: [L::default(); ROW_LANES], op }
    }
}

impl<L: Lane, Op: Fn(L, L) -> L + Copy> RowKernel<L> for PrefixSuffixLanes<L, Op> {
    #[inline(always)]
    fn start(&mut self, _lanes: usize) {}

    /// Nothing to fold on the way: the prefix/suffix sweeps need the whole
    /// gathered row.
    #[inline(always)]
    fn fold(&mut self, _j: usize, _column: &[L]) {}

    #[inline(always)]
    fn extrinsics(&mut self, v2c: &[L], c2v: &mut [L], lanes: usize) {
        let k = c2v.len() / lanes;
        let col = |j: usize| j * lanes..(j + 1) * lanes;
        // The operator by value: what it captures (the LUT's thresholds)
        // then stays in registers instead of being reloaded through `self`
        // beside every store, which kept the integer sweep from vectorizing.
        let (op, prefix) = (self.op, &mut self.prefix[..lanes]);
        // Suffix sweep into the c2v row (column 0's suffix is never read, so
        // it is never computed).
        c2v[col(k - 1)].copy_from_slice(&v2c[col(k - 1)]);
        for j in (1..k - 1).rev() {
            let (this, next) = c2v[col(j).start..col(j + 1).end].split_at_mut(lanes);
            let input = &v2c[col(j)];
            for i in 0..lanes {
                this[i] = op(input[i], next[i]);
            }
        }
        // Forward sweep: out[j] = prefix[j-1] op suffix[j+1], reading each
        // suffix column before the next iteration overwrites it.
        prefix.copy_from_slice(&v2c[col(0)]);
        c2v.copy_within(col(1), 0);
        for j in 1..k - 1 {
            let (this, next) = c2v[col(j).start..col(j + 1).end].split_at_mut(lanes);
            let input = &v2c[col(j)];
            for i in 0..lanes {
                this[i] = op(prefix[i], next[i]);
                prefix[i] = op(prefix[i], input[i]);
            }
        }
        c2v[col(k - 1)].copy_from_slice(prefix);
    }
}

impl<F: LlrFloat, Op: Fn(F, F) -> F + Copy> ZigzagKernel<F> for PrefixSuffixLanes<F, Op> {
    /// `((in[0] op in[1]) op …)`, the association of the forward sweep's
    /// prefix.
    #[inline(always)]
    fn info_fold(&self, v2c: &[F], out: &mut [F]) {
        let lanes = out.len();
        out.copy_from_slice(&v2c[..lanes]);
        for column in v2c.chunks_exact(lanes).skip(1) {
            for (o, &x) in out.iter_mut().zip(column) {
                *o = (self.op)(*o, x);
            }
        }
    }

    #[inline(always)]
    fn forward(&self, i: F, l: F) -> F {
        (self.op)(i, l)
    }
}

/// Exact sum-product under [`boxplus_lanes`], all arithmetic in `f32` —
/// `f32 -> F -> f32` round-trips are lossless in both precisions. `+∞` is
/// the operator's identity (finite `x ⊞ +∞ == x`, with `-0.0` becoming
/// `+0.0`), so it stands for a missing input.
pub(crate) fn sum_product_lanes<F: LlrFloat>() -> PrefixSuffixLanes<F, impl Fn(F, F) -> F + Copy> {
    PrefixSuffixLanes::new(|a: F, b: F| {
        F::from_f64(boxplus_lanes(a.to_f64() as f32, b.to_f64() as f32) as f64)
    })
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
// kernels need only F, the integer lanes of `qsimd` need all three.

/// Tier clones of a kernel — every float and integer-lane kernel of the
/// crate dispatches through this one ladder; `<F: Bound>` after the
/// dispatcher's name makes all three generic over the lane type.
macro_rules! tier_clones {
    ($(#[$doc:meta])* $dispatch:ident $(<$f:ident: $bound:ident>)?,
     $base:ident, $avx2:ident, $avx512:ident;
     ($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)?) => {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        #[allow(clippy::too_many_arguments)]
        unsafe fn $avx2$(<$f: $bound>)?($($arg: $ty),*) $(-> $ret)? {
            $base($($arg),*)
        }

        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx512f,avx512bw,avx512vl")]
        #[allow(clippy::too_many_arguments)]
        unsafe fn $avx512$(<$f: $bound>)?($($arg: $ty),*) $(-> $ret)? {
            $base($($arg),*)
        }

        $(#[$doc])*
        #[allow(clippy::too_many_arguments)]
        pub(crate) fn $dispatch$(<$f: $bound>)?(tier: SimdTier, $($arg: $ty),*) $(-> $ret)? {
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
pub(crate) mod tests {
    use super::*;
    use crate::qsimd::FuWord;
    use crate::simd::SimdTier;
    use crate::stopping::{hard_decisions, syndrome_ok};
    use crate::test_support::{small_code, SplitMix64};

    // Every lane datapath inlines `row_update` into its own tier clones; the
    // kernel table runs a bare row through these.
    tier_clones!(
        /// [`row_update`] dispatched onto the selected SIMD tier.
        row_update_tier<L: Lane>, row_update, row_update_avx2, row_update_avx512;
        (kernel: &mut impl RowKernel<L>, v2c: &[L], c2v: &mut [L], lanes: usize)
    );

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
            out.fill_from(&totals, Lane::is_negative);
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

    /// The prefix/suffix association of [`QBoxplus::extrinsic`] under `op`,
    /// one check at a time: the scalar form of exact `f32` sum-product on
    /// the lanes, which has no `CheckRule` of its own (`extrinsic_t` runs
    /// the libm boxplus).
    ///
    /// [`QBoxplus::extrinsic`]: crate::QBoxplus::extrinsic
    fn prefix_suffix_reference<L: Lane>(ins: &[L], outs: &mut [L], op: impl Fn(L, L) -> L) {
        let d = ins.len();
        outs[d - 1] = ins[d - 1];
        for i in (0..d - 1).rev() {
            outs[i] = op(ins[i], outs[i + 1]);
        }
        let mut prefix = ins[0];
        outs[0] = outs[1];
        for i in 1..d {
            outs[i] = if i + 1 < d { op(prefix, outs[i + 1]) } else { prefix };
            prefix = op(prefix, ins[i]);
        }
    }

    /// Lane counts of the table: one lane, ragged widths around every
    /// vector size, a rotation-plane row, one past it and the `i8` lanes'
    /// padded row of whole 64-byte vectors.
    const LANE_COUNTS: [usize; 7] = [1, 5, 7, 77, 360, 361, 384];

    /// The largest check degree of any DVB-S2 code, both frame sizes.
    fn max_check_degree() -> usize {
        [dvbs2_ldpc::FrameSize::Normal, dvbs2_ldpc::FrameSize::Short]
            .into_iter()
            .flat_map(dvbs2_ldpc::CodeParams::all)
            .map(|p| p.check_degree)
            .max()
            .unwrap()
    }

    /// One row of the kernel table: `run` puts a row of `lanes` checks
    /// through the kernel at a tier, and every lane must equal `reference`
    /// on that lane's inputs bit for bit, at every degree from 3 to the
    /// largest DVB-S2 check degree, every lane count of [`LANE_COUNTS`]
    /// and every available tier. `draw` makes the inputs.
    pub(crate) fn assert_kernel_matches<L: Lane>(
        what: &str,
        run: impl Fn(SimdTier, &[L], &mut [L], usize),
        reference: impl Fn(&[L], &mut [L]),
        draw: impl Fn(&mut SplitMix64) -> L,
    ) {
        let mut rng = SplitMix64(0x7AB1E);
        let (mut ins, mut outs) = (Vec::new(), Vec::new());
        for d in 3..=max_check_degree() {
            for lanes in LANE_COUNTS {
                let v2c: Vec<L> = (0..d * lanes).map(|_| draw(&mut rng)).collect();
                let mut want = vec![L::default(); d * lanes];
                for u in 0..lanes {
                    ins.clear();
                    ins.extend((0..d).map(|j| v2c[j * lanes + u]));
                    outs.resize(d, L::default());
                    reference(&ins, &mut outs);
                    for (j, &o) in outs.iter().enumerate() {
                        want[j * lanes + u] = o;
                    }
                }
                for tier in SimdTier::available() {
                    let mut c2v = vec![L::default(); d * lanes];
                    run(tier, &v2c, &mut c2v, lanes);
                    for (at, (got, want)) in c2v.iter().zip(&want).enumerate() {
                        let (u, j) = (at % lanes, at / lanes);
                        assert_eq!(
                            got.bits(),
                            want.bits(),
                            "{what}, {tier:?}, degree {d}, {lanes} lanes: lane {u} column {j} \
                             is {got:?}, not {want:?}"
                        );
                    }
                }
            }
        }
    }

    /// Float inputs: mostly exact ties on a coarse grid (the first strict
    /// minimum decides), `±0.0`, and arbitrary values.
    fn draw_float<F: LlrFloat>(rng: &mut SplitMix64) -> F {
        let x = match rng.next_u64() % 8 {
            0 => 0.0,
            1..=4 => (rng.next_u64() % 3 + 1) as f64 * 0.5,
            _ => 25.0 * rng.next_f64(),
        };
        F::from_f64(if rng.next_bool() { -x } else { x })
    }

    /// Quantized inputs inside the rail `±max_mag`: zero, both rails, ties
    /// among small magnitudes, and arbitrary values.
    pub(crate) fn draw_quantized<W: FuWord>(max_mag: i32) -> impl Fn(&mut SplitMix64) -> W {
        move |rng| {
            W::narrow(match rng.next_u64() % 8 {
                0 => 0,
                1 => max_mag,
                2 => -max_mag,
                3..=5 => (rng.next_u64() % 5) as i32 - 2,
                _ => (rng.next_u64() % (2 * max_mag as u64 + 1)) as i32 - max_mag,
            })
        }
    }

    /// A scalar `i32` reference on integer lanes.
    pub(crate) fn widened<W: FuWord>(
        reference: impl Fn(&[i32], &mut [i32]),
    ) -> impl Fn(&[W], &mut [W]) {
        move |ins, outs| {
            let wide: Vec<i32> = ins.iter().map(|&x| x.widen().into()).collect();
            let mut out = vec![0; wide.len()];
            reference(&wide, &mut out);
            for (o, w) in outs.iter_mut().zip(out) {
                *o = W::narrow(w);
            }
        }
    }

    /// Under α = 1 the float planes' rule is the bare two minima, which the
    /// brute-force first-strict-minimum reference pins at every tie: coarse
    /// grid magnitudes make almost every check see one, and the retained
    /// index must be the FIRST strict minimum in both the scalar rule and
    /// the lane kernel (mask-blend column tracking).
    #[test]
    fn min_sum_tie_break_keeps_first_strict_minimum() {
        use crate::rotation::row_kernel;

        let ties = CheckRule::NormalizedMinSum(1.0);
        assert_kernel_matches(
            "first strict minimum",
            |tier, v2c, c2v, lanes| {
                row_kernel!(&ties, f64, |k| row_update_tier(tier, &mut { k }, v2c, c2v, lanes))
            },
            |ins: &[f64], outs: &mut [f64]| {
                first_strict_min_reference(ins, outs);
                let mut scalar = vec![0.0; ins.len()];
                ties.extrinsic_t(ins, &mut scalar);
                assert_eq!(scalar, outs, "the scalar rule on {ins:?}");
            },
            draw_float::<f64>,
        );
    }

    /// Every float lane kernel at every lane type it runs at, against its
    /// scalar reference: the float planes' two minima under both
    /// corrections (`f32` and `f64`) and exact `f32` sum-product. The
    /// quantized lanes' kernels have their rows in `qsimd`'s tests.
    #[test]
    fn every_lane_kernel_matches_its_scalar_reference() {
        use crate::rotation::row_kernel;

        for rule in [CheckRule::NormalizedMinSum(0.8), CheckRule::OffsetMinSum(0.5)] {
            assert_kernel_matches(
                &format!("{rule:?} f32"),
                |tier, v2c, c2v, lanes| {
                    row_kernel!(&rule, f32, |k| row_update_tier(tier, &mut { k }, v2c, c2v, lanes))
                },
                |ins: &[f32], outs: &mut [f32]| rule.extrinsic_t(ins, outs),
                draw_float::<f32>,
            );
            assert_kernel_matches(
                &format!("{rule:?} f64"),
                |tier, v2c, c2v, lanes| {
                    row_kernel!(&rule, f64, |k| row_update_tier(tier, &mut { k }, v2c, c2v, lanes))
                },
                |ins: &[f64], outs: &mut [f64]| rule.extrinsic_t(ins, outs),
                draw_float::<f64>,
            );
        }
        assert_kernel_matches(
            "sum-product f32",
            |tier, v2c, c2v, lanes| {
                row_update_tier(tier, &mut sum_product_lanes::<f32>(), v2c, c2v, lanes)
            },
            |ins: &[f32], outs: &mut [f32]| prefix_suffix_reference(ins, outs, boxplus_lanes),
            draw_float::<f32>,
        );
    }

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
                row_update_tier(tier, &mut sum_product_lanes::<f32>(), &v2c, &mut c2v, ROW);
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
