//! 360-lane SIMD functional-unit planes for the quantized datapath.
//!
//! The paper's architecture decodes each check row with M = 360 parallel
//! functional units working the 360 parity sub-chains in lockstep. The
//! fused scalar path (`QuantizedZigzagDecoder::with_partition_fused`)
//! reproduces that datapath check-by-check; this module reproduces its
//! *parallelism*: the planes are transposed **sub-chain-major** so that the
//! 360 FUs of one schedule row become 360 adjacent `i8` SIMD lanes, and
//! one vector op advances every sub-chain by one message — exactly the
//! hardware's row-lockstep, expressed as data parallelism. The `i8` lane
//! holds the paper's 6-bit message word; one AVX-512 register advances 64
//! sub-chains.
//!
//! # Layout
//!
//! The fused plan stores check `c` (lane `u = c / q_rows`, residue row
//! `r = c % q_rows`) as a contiguous `stride`-long row at
//! `((r * lanes + u) * stride)`. Here the same messages live at
//!
//! ```text
//! slot(c, i) = (r * stride + i) * pitch + u
//! ```
//!
//! so position `i` of residue row `r` is a dense `[i8; pitch]` vector
//! across all sub-chains — a structure-of-arrays transpose of the fused
//! layout. The column `pitch` is `lanes` rounded up to whole 64-byte
//! vectors ([`FuWord::PITCH_MULTIPLE`]: 384 for 360 lanes), so the row
//! kernel has no scalar tail; the pad lanes `lanes..pitch` hold zero
//! inputs, on which both rules output zero, and nothing outside the kernel
//! reads or writes them. The forward/backward chain state and the parity
//! channel are transposed the same way, `lanes` wide (`fwd[r * lanes + u]`),
//! which turns every chain coupling of the sweep into a contiguous vector
//! copy. They live in [`FuLanes`], the check row this module shares with
//! `dvbs2-hardware`'s functional-unit array:
//!
//! * the **left** parity input of row `r > 0` is `pchan[r-1] ⊞ fwd_regs`,
//!   lane-aligned; at `r == 0` the sub-chain boundary shifts the read one
//!   lane down (lane `u` continues lane `u - 1`'s chain segment);
//! * the **backward** output of row `r > 0` lands at row `r - 1` as one
//!   contiguous copy; at `r == 0` it lands at row `q_rows - 1` shifted one
//!   lane, reproducing the hardware's "one iteration fresher" backward
//!   boundary. The very last check's backward slot
//!   (`bwd[(q_rows-1)*lanes + lanes-1]`) is never written and stays zero,
//!   so the uniform `pchan ⊞ bwd` right-input vector needs no end-of-chain
//!   special case.
//!
//! Check 0 (row 0, lane 0) has no left parity input; the vector kernel
//! runs it with a zero placeholder and a scalar fix-up recomputes its row
//! with [`QCheckArithmetic::extrinsic`] — the same function the fused path
//! calls for that check — before write-back reads it.
//!
//! # Bit-exactness
//!
//! The check rows run `engine.rs`'s two lane kernels at the row's word, the
//! ones the float planes run: the LUT rule is [`PrefixSuffixLanes`] under
//! [`combine_one`], min-sum is [`MinSumLanes`] under the shift
//! `m − (m >> s)`. Each computes the *same dataflow* as its scalar
//! counterpart — same combine association order for the LUT rule, same
//! first-strict-min / second-min recurrence for min-sum, integer adds
//! reassociated only where addition is exactly commutative — so results
//! are bit-identical to the fused path (and therefore to `GoldenModel`) by
//! determinism, not by tolerance. The LUT correction gather is replaced by
//! a threshold decomposition ([`QBoxplus::corr_thresholds`]) that is
//! *verified* against the table at construction. The variable-node side reads the code's
//! quasi-cyclic rotations ([`RotEntry`], [`lane_columns`]): from the
//! graph's record for the natural schedule, or from a caller's cut,
//! validated. A partition or arithmetic
//! the lanes cannot express exactly (no rotation, a quantizer too wide for
//! the `i8` word — 7 bits or more — or for `i16` totals, a non-decomposable
//! table, `q_rows < 2`, a padded row of more than [`ROW_LANES`] lanes) gets
//! the scalar fused datapath at construction; a lane decoder never leaves
//! the lanes.
//!
//! # Ingress
//!
//! `decode_into` accepts any `i32` channel and clamps it once, on the
//! transpose into the lanes: the parity channel to `±(2·max_mag + 1)` (an
//! `i8`), the information channel to `±info_rail` (an `i16`). Both bounds
//! lie strictly beyond what the messages can add to the value, so every
//! clamped check input, every `v2c` message, every digest and the sign of
//! every total — the hard decisions and the lane syndrome — are the wide
//! channel's, and every `i8` and `i16` add stays in range (DESIGN.md §7.8,
//! §7.13).
//!
//! The scalar/AVX2/AVX-512 `#[target_feature]` clones are `engine.rs`'s
//! `tier_clones!`, the crate's one dispatch ladder.

use crate::engine::{
    row_update, tier_clones, Lane, MinSumLanes, PrefixSuffixLanes, RowKernel, ROW_LANES,
};
use crate::qdecoder::{ChainPartition, Fnv};
use crate::quant::{QBoxplus, QCheckArithmetic, Quantizer};
use crate::simd::SimdTier;
use crate::DecodeResult;
use dvbs2_ldpc::{BitVec, QcEntry, QuasiCyclic, TannerGraph, PARALLELISM};
use std::ops::{Add, BitXor, Neg, Shr, Sub};

/// The message word of a [`FuLanes`] row: the [`Lane`] of its row kernels,
/// with the integer arithmetic of the combine, the shift and the parity
/// inputs. `i8` is the served lanes' word, the paper's 6-bit message;
/// `i16` is the hardware models' message RAM word, which holds quantizers
/// up to 16 bits.
pub trait FuWord:
    Lane
    + Add<Output = Self>
    + Sub<Output = Self>
    + Neg<Output = Self>
    + BitXor<Output = Self>
    + Shr<u32, Output = Self>
    + From<bool>
{
    /// The word's width in bits.
    const BITS: u32;
    /// The largest `max_mag` the row runs on the lanes at. `i8`:
    /// `4·max_mag + 1 ≤ i8::MAX`, room for the served lanes' parity total
    /// `pchan + fwd + bwd` with the channel clamped to `±(2·max_mag + 1)`
    /// (5 and 6 bits). `i16`: `2·max_mag ≤ i16::MAX`, room for the
    /// combine's `a + b` (up to 15 bits).
    const MAX_MAG: i32;
    /// A message column is `lanes` rounded up to a multiple of this:
    /// `i8` pads to whole 64-byte vectors, so the row kernel has no scalar
    /// tail; `i16` keeps `lanes`, the layout of the hardware's message RAM,
    /// which the functional-unit array reads in place.
    const PITCH_MULTIPLE: usize;

    /// `self + other`, saturating at the word's range.
    fn saturating_add(self, other: Self) -> Self;
    /// `x` as a word; `x` must fit.
    fn narrow(x: i32) -> Self;
    /// The word as an `i16`.
    fn widen(self) -> i16;
}

macro_rules! impl_fu_word {
    ($($t:ty: max_mag $max_mag:expr, pitch $pitch:expr);*) => {$(
        impl FuWord for $t {
            const BITS: u32 = <$t>::BITS;
            const MAX_MAG: i32 = $max_mag;
            const PITCH_MULTIPLE: usize = $pitch;

            #[inline(always)]
            fn saturating_add(self, other: Self) -> Self {
                self.saturating_add(other)
            }
            #[inline(always)]
            fn narrow(x: i32) -> Self {
                x as $t
            }
            #[inline(always)]
            fn widen(self) -> i16 {
                self.into()
            }
        }
    )*};
}
impl_fu_word!(
    i8: max_mag (i8::MAX as i32 - 1) / 4, pitch 64;
    i16: max_mag i16::MAX as i32 / 2, pitch 1
);

/// Correction-step thresholds the gather-free LUT kernel carries. The
/// table contributes `round(ln 2 / step)` thresholds; every configuration
/// with a step coarse enough for real quantizers fits (the paper's 6-bit
/// table needs 3). Larger tables get the scalar fused datapath.
const MAX_CORR_THRESHOLDS: usize = 4;

/// The correction table as the lane kernel carries it, or `None` when it
/// does not decompose or needs more than [`MAX_CORR_THRESHOLDS`] steps:
/// `corr(z) = Σ [z <= t]` over the (construction-verified) thresholds;
/// unused slots hold `-1`, which no `z >= 0` satisfies. Thresholds live on
/// the reachable index range `|a ± b| <= 2·max_mag`, which fits the word
/// for every quantizer the lanes accept.
fn lane_thresholds<W: FuWord>(boxplus: &QBoxplus) -> Option<[W; MAX_CORR_THRESHOLDS]> {
    let th = boxplus.corr_thresholds()?;
    if th.len() > MAX_CORR_THRESHOLDS {
        return None;
    }
    let mut thresholds = [W::narrow(-1); MAX_CORR_THRESHOLDS];
    for (slot, &t) in thresholds.iter_mut().zip(&th) {
        *slot = W::narrow(t);
    }
    Some(thresholds)
}

/// Evaluates `$body` with `$kernel` bound (mutably) to the LUT rule's row
/// kernel for the thresholds `$th`: [`PrefixSuffixLanes`] under
/// [`combine_one`], compiled for the number of live thresholds — the
/// paper's 6-bit table has three, and the two compares of a sentinel slot
/// are a tenth of the sweep.
macro_rules! lut_kernel {
    ($th:expr, |$kernel:ident| $body:expr) => {{
        let th = $th;
        if th[MAX_CORR_THRESHOLDS - 1].is_negative() {
            let mut $kernel = PrefixSuffixLanes::new(move |a, b| {
                combine_one::<_, { MAX_CORR_THRESHOLDS - 1 }>(a, b, th)
            });
            $body
        } else {
            let mut $kernel =
                PrefixSuffixLanes::new(move |a, b| combine_one::<_, MAX_CORR_THRESHOLDS>(a, b, th));
            $body
        }
    }};
}

/// Evaluates `$body` with `$kernel` bound (mutably) to the row kernel of
/// the [`FuLanes`] `$fu`'s rule, picked per call (as `row_kernel!` picks
/// the float rule's): [`lut_kernel!`] or [`shift_min_sum_lanes`].
macro_rules! rule_kernel {
    ($fu:expr, |$kernel:ident| $body:expr) => {
        match $fu.arithmetic {
            QCheckArithmetic::Lut(_) => lut_kernel!($fu.thresholds, |$kernel| $body),
            QCheckArithmetic::MinSumShift { shift, .. } => {
                let mut $kernel = shift_min_sum_lanes(shift);
                $body
            }
        }
    };
}

/// The shift-normalized min-sum rule's row kernel: the two minima under
/// `m − (m >> shift)`, the subtract-shifted-self of
/// [`QCheckArithmetic::MinSumShift`].
pub(crate) fn shift_min_sum_lanes<W: FuWord>(shift: u32) -> MinSumLanes<W, impl Fn(W) -> W + Copy> {
    MinSumLanes::new(move |m: W| m - (m >> shift))
}

/// The zigzag check row of `lanes` functional units in lockstep: the
/// paper's functional unit (Fig. 4) in its check phase, a check node that
/// also runs the parity chain. The served lane planes here (`FuLanes<i8>`)
/// and `dvbs2-hardware`'s functional-unit array (`FuLanes<i16>`: golden
/// model, cycle-accurate core, fabric) run every check row through it.
///
/// It holds the rule (tier, correction thresholds, eligibility) and the
/// chain state, row-major (`plane[r * lanes + u]` for check
/// `j = u·q_rows + r` of unit `u`): the parity channel clamped to
/// `±(2·max_mag + 1)`, the forward and backward planes, the forward
/// registers, the chain boundaries and check 0's scratch. A check phase is
/// [`FuLanes::begin`], one [`FuLanes::row`] per residue row,
/// [`FuLanes::end`]. A row is `row_len + 2` columns of
/// [`pitch`](FuLanes::pitch) lanes, the first `lanes` of them units:
///
/// 1. every unit's parity inputs `pchan ⊞ fwd` and `pchan ⊞ bwd`: a
///    saturating add clamped to `±max_mag`, exact (DESIGN.md §7.8);
/// 2. the rule's row kernel over all `pitch` lanes of the row;
/// 3. check 0 (no left parity input) recomputed through
///    [`QCheckArithmetic::extrinsic`], its forward output moved to the left
///    slot;
/// 4. the caller's hook over the outputs (the hardware's unit fault);
/// 5. the write-back: backward outputs to the row above, forward outputs to
///    the registers and the forward plane, one lane down at row 0.
///
/// Phasing whole rows is exact: row `r` reads row `r` of the backward
/// plane and writes row `r - 1` (at `r == 0`, row `q_rows - 1` one lane
/// down). The last check's backward slot is never written and stays zero.
/// Steps 1, 3 and 5 touch only the units' lanes, so pad lanes that start
/// at zero stay zero: on zero inputs both rules output zero.
#[derive(Debug, Clone)]
pub struct FuLanes<W> {
    /// `None` when the rule or the geometry is outside the lanes and only
    /// the chain state is in use.
    tier: Option<SimdTier>,
    arithmetic: QCheckArithmetic,
    /// [`lane_thresholds`]; unused under min-sum.
    thresholds: [W; MAX_CORR_THRESHOLDS],
    max_mag: W,
    lanes: usize,
    pitch: usize,
    q_rows: usize,
    row_len: usize,
    pchan: Vec<W>,
    fwd: Vec<W>,
    bwd: Vec<W>,
    regs: Vec<W>,
    boundary: Vec<W>,
    /// One word per check: the clamped parity channel in check order on
    /// its way into `pchan`, the lanes' parity totals on their way out.
    transposed: Vec<W>,
    fix_in: Vec<i32>,
    fix_out: Vec<i32>,
}

impl<W: FuWord> FuLanes<W> {
    /// The row of `lanes` units over `q_rows` residue rows of checks with
    /// `row_len` information inputs. It runs on the lanes ([`tier`] is
    /// `Some`) when `max_mag ≤ W::MAX_MAG`, the correction table takes at
    /// most four steps, `q_rows ≥ 2` and the padded row is at most 1024
    /// lanes; otherwise the caller keeps a scalar row over the chain state
    /// held here. `forced` pins the tier; `None` takes [`SimdTier::detect`].
    ///
    /// # Panics
    ///
    /// Panics if the row runs on the lanes at a tier this CPU lacks.
    ///
    /// [`tier`]: FuLanes::tier
    pub fn new(
        arithmetic: &QCheckArithmetic,
        lanes: usize,
        q_rows: usize,
        row_len: usize,
        forced: Option<SimdTier>,
    ) -> FuLanes<W> {
        let max_mag = arithmetic.quantizer().max_mag();
        let thresholds = match arithmetic {
            QCheckArithmetic::Lut(bp) => lane_thresholds(bp),
            QCheckArithmetic::MinSumShift { .. } => Some([W::narrow(-1); MAX_CORR_THRESHOLDS]),
        };
        let pitch = lanes.next_multiple_of(W::PITCH_MULTIPLE);
        // Every sum the row forms must fit the word; row 0's backward
        // writes must land in another residue row than the one being read.
        let eligible = max_mag <= W::MAX_MAG
            && thresholds.is_some()
            && q_rows >= 2
            && (1..=ROW_LANES).contains(&pitch);
        let plane = vec![W::default(); lanes * q_rows];
        FuLanes {
            tier: eligible.then(|| SimdTier::resolve(forced)),
            arithmetic: arithmetic.clone(),
            thresholds: thresholds.unwrap_or([W::narrow(-1); MAX_CORR_THRESHOLDS]),
            max_mag: W::narrow(max_mag),
            lanes,
            pitch,
            q_rows,
            row_len,
            pchan: plane.clone(),
            fwd: plane.clone(),
            bwd: plane.clone(),
            transposed: plane,
            regs: vec![W::default(); lanes],
            boundary: vec![W::default(); lanes],
            fix_in: vec![0; row_len + 1],
            fix_out: vec![0; row_len + 1],
        }
    }

    /// The dispatch tier of [`FuLanes::row`], or `None` when the row is
    /// outside the lanes.
    pub fn tier(&self) -> Option<SimdTier> {
        self.tier
    }

    /// The lanes of one message column of a row: `lanes` rounded up to
    /// [`FuWord::PITCH_MULTIPLE`].
    pub fn pitch(&self) -> usize {
        self.pitch
    }

    /// Starts a frame: every chain message cleared and, on the lanes, the
    /// parity channel loaded from `parity[u·q_rows + r]` (check order),
    /// clamped to `±(2·max_mag + 1)`.
    ///
    /// # Panics
    ///
    /// Panics unless `parity` holds one value per check.
    // Inlined into `qsimd`'s ingress, so it runs at the lanes' tier.
    #[inline]
    pub fn reset(&mut self, parity: &[i32]) {
        let (lanes, q_rows) = (self.lanes, self.q_rows);
        assert_eq!(parity.len(), lanes * q_rows, "one parity value per check");
        if self.tier.is_some() {
            // Clamped in check order, then transposed: a dense pass and a
            // word-wide transpose beat one strided pass over the channel.
            let prail = 2 * i32::from(self.max_mag.widen()) + 1;
            for (t, &x) in self.transposed.iter_mut().zip(parity) {
                *t = W::narrow(x.clamp(-prail, prail));
            }
            for (u, column) in self.transposed.chunks_exact(q_rows).enumerate() {
                for (r, &x) in column.iter().enumerate() {
                    self.pchan[r * lanes + u] = x;
                }
            }
        }
        for plane in [&mut self.fwd, &mut self.bwd, &mut self.regs, &mut self.boundary] {
            plane.fill(W::default());
        }
    }

    /// Loads the chain boundaries into the forward registers (start of
    /// every check phase).
    pub fn begin(&mut self) {
        self.regs.copy_from_slice(&self.boundary);
    }

    /// Check row `r` of every unit, the five steps of the type docs. `v_in`
    /// is the row's `row_len + 2` input columns of [`pitch`](FuLanes::pitch)
    /// lanes (input `i` of unit `u` at `v_in[i * pitch + u]`): the
    /// information inputs inside `±max_mag` and zero on the pad lanes, then
    /// the two parity input columns, whose units' lanes the row overwrites.
    /// `v_out` receives every output in the same layout.
    ///
    /// # Panics
    ///
    /// Panics if the row is outside the lanes, `r` is not a residue row, or
    /// `v_in` or `v_out` is not `row_len + 2` columns long.
    pub fn row(&mut self, r: usize, v_in: &mut [W], v_out: &mut [W], hook: impl FnMut(&mut [W])) {
        let tier = self.tier.expect("the row is outside the lanes");
        assert!(r < self.q_rows, "row {r} out of range");
        assert_eq!(v_in.len(), (self.row_len + 2) * self.pitch, "a row is row_len + 2 columns");
        assert_eq!(v_out.len(), v_in.len(), "output row size mismatch");
        rule_kernel!(self, |kernel| fu_row_tier(tier, self, &mut kernel, r, v_in, v_out, hook))
    }

    /// Saves the chain boundaries for the next check phase: unit `u`
    /// continues unit `u - 1`'s chain, and unit 0 starts from zero.
    pub fn end(&mut self) {
        let lanes = self.lanes;
        self.boundary[1..].copy_from_slice(&self.regs[..lanes - 1]);
        self.boundary[0] = W::default();
    }

    /// The forward registers, the forward plane and the backward plane, for
    /// a scalar row over the same chain state.
    pub fn chain_mut(&mut self) -> (&mut [W], &mut [W], &mut [W]) {
        (&mut self.regs, &mut self.fwd, &mut self.bwd)
    }

    /// The parity totals `parity[j] + fwd[j] + bwd[j]` of every check, check
    /// order, from the caller's (wide) parity channel.
    pub fn parity_totals(&self, parity: &[i32], totals: &mut [i32]) {
        let (lanes, q_rows) = (self.lanes, self.q_rows);
        let wide = |x: W| i32::from(x.widen());
        let units = totals.chunks_exact_mut(q_rows).zip(parity.chunks_exact(q_rows));
        for (u, (tot, chan)) in units.enumerate() {
            for (r, (t, &x)) in tot.iter_mut().zip(chan).enumerate() {
                *t = x + wide(self.fwd[r * lanes + u]) + wide(self.bwd[r * lanes + u]);
            }
        }
    }

    /// The chain state in check order: backward messages, forward messages,
    /// then the boundaries.
    pub fn parity_state(&self) -> impl Iterator<Item = i32> + '_ {
        let (lanes, q_rows) = (self.lanes, self.q_rows);
        check_order(&self.bwd, lanes, q_rows)
            .chain(check_order(&self.fwd, lanes, q_rows))
            .chain(self.boundary.iter().map(|&b| b.widen().into()))
    }

    /// Bytes of the chain state: the parity channel, the forward and
    /// backward planes, the registers and the boundaries.
    fn chain_bytes(&self) -> usize {
        let words = 3 * self.pchan.len() + self.regs.len() + self.boundary.len();
        words * size_of::<W>()
    }

    /// The parity totals on the lanes, `pchan + fwd + bwd` (at most
    /// `4·max_mag + 1` on the lanes), in check order into `totals`: the
    /// sign of the wide channel's total (module docs).
    #[inline(always)]
    fn lane_parity_totals(&mut self, totals: &mut [W]) {
        let (lanes, q_rows) = (self.lanes, self.q_rows);
        let sums = self.pchan.iter().zip(&self.fwd).zip(&self.bwd);
        for (t, ((&p, &f), &b)) in self.transposed.iter_mut().zip(sums) {
            *t = p + f + b;
        }
        for (u, column) in totals.chunks_exact_mut(q_rows).enumerate() {
            for (r, t) in column.iter_mut().enumerate() {
                *t = self.transposed[r * lanes + u];
            }
        }
    }
}

/// A row-major plane in check order (`j = u·q_rows + r`).
fn check_order<W: FuWord>(
    plane: &[W],
    lanes: usize,
    q_rows: usize,
) -> impl Iterator<Item = i32> + '_ {
    (0..lanes).flat_map(move |u| (0..q_rows).map(move |r| plane[r * lanes + u].widen().into()))
}

/// Sub-chain-major SoA plan + state for the SIMD quantized decode.
///
/// Built by [`SimdQuant::try_build`] when the partition/arithmetic pair is
/// lane-expressible; a `QuantizedZigzagDecoder` that holds one holds no
/// scalar planes.
#[derive(Debug, Clone)]
pub(crate) struct SimdQuant {
    tier: SimdTier,
    lanes: usize,
    q_rows: usize,
    stride: usize,
    info_d: usize,
    /// The variable-node plan, row-major (`info_d` entries per residue
    /// row): real DVB-S2 codes are quasi-cyclic with lifting 360, so the
    /// `lanes` variables of one (row, position) plane vector are one
    /// 360-block rotated by a constant offset, read from the graph's
    /// record or verified against a caller's cut at build time. Bases are
    /// plane offsets at the `pitch`.
    rot: Vec<RotEntry>,
    // --- i8 message state, lane-major on the `pitch`, pad lanes zero ---
    v2c: Vec<i8>,
    c2v: Vec<i8>,
    /// The check rows and the parity chain state.
    fu: FuLanes<i8>,
    /// Per-lane syndrome accumulator of the early-termination test.
    syn: Vec<i16>,
    // --- the software shuffle network ---
    /// The information channel's clamp: beyond `d_max·max_mag`, and small
    /// enough that every total fits `i16`.
    info_rail: i16,
    /// Information channel in the lane domain, clamped to `±info_rail`.
    chan16: Vec<i16>,
    /// Information totals, each 360-block stored twice over
    /// (`[t_0 … t_359 | t_0 … t_359]`), so the block rotated by `off` is the
    /// contiguous slice `[off .. off + lanes]`.
    tot2: Vec<i16>,
    /// One word per variable with the sign of its total: the hard
    /// decisions on their way out.
    signs: Vec<i8>,
}

/// One (row, position) plane vector of the rotation VN plan: the `lanes`
/// messages at plane offset `base` belong to variables
/// `block + (u + off) % lanes`, which the doubled block planes hold
/// contiguously from `at = 2·block + off`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RotEntry {
    pub(crate) base: u32,
    at: u32,
}

impl RotEntry {
    /// The vector at plane offset `base` whose lane `u` reads variable
    /// `block + (u + off) % lanes`.
    pub(crate) fn rotated(base: usize, block: usize, off: usize) -> RotEntry {
        RotEntry { base: base as u32, at: (2 * block + off) as u32 }
    }

    /// The 360-lane vector at plane offset `base` of a record input: lane
    /// `u` reads `input.var(u)`, so lane 0 reads the block at its offset.
    pub(crate) fn of_input(base: usize, input: &QcEntry) -> RotEntry {
        let block = input.group as usize * PARALLELISM;
        RotEntry::rotated(base, block, input.var(0) - block)
    }

    /// The vector's `lanes`-block (its first variable) and rotation offset.
    pub(crate) fn block_and_off(&self, lanes: usize) -> (usize, usize) {
        let at = self.at as usize;
        (at / (2 * lanes) * lanes, at % (2 * lanes))
    }
}

impl SimdQuant {
    /// Builds the lane plan for a graph, a cut and an arithmetic, or
    /// returns `None` when the combination is not exactly expressible in
    /// `i8` message lanes with `i16` totals over the code's rotations (the
    /// caller builds the scalar fused datapath instead). `cut: None` is the
    /// natural schedule read from the graph's record ([`lane_columns`]);
    /// `None` without one.
    ///
    /// Assumes a cut has already been validated by
    /// `QuantizedZigzagDecoder::with_partition` (divisibility, permutation,
    /// uniform information degree).
    pub(crate) fn try_build(
        graph: &TannerGraph,
        cut: Option<&ChainPartition>,
        arithmetic: &QCheckArithmetic,
        tier: SimdTier,
    ) -> Option<SimdQuant> {
        let n_check = graph.check_count();
        let k = graph.info_len();
        let lanes = cut.map_or(PARALLELISM, ChainPartition::lanes);
        let q_rows = n_check / lanes;
        let info_d = graph.check_edges(0).len() - 1;
        let stride = info_d + 2;
        // The check row's own eligibility: the rule and the `i8` word
        // (`4·max_mag + 1 <= i8::MAX`, room for `lane_syndrome`'s
        // `pchan + fwd + bwd` with the parity channel clamped to
        // `±(2·max_mag + 1)`), `q_rows >= 2` (every real rate point has at
        // least five) and the lane count.
        let fu = FuLanes::<i8>::new(arithmetic, lanes, q_rows, info_d, Some(tier));
        fu.tier()?;
        let pitch = fu.pitch();

        let rot = lane_columns(graph, cut, pitch)?;
        // A total is the channel plus at most `d_max` messages of at most
        // `max_mag`, so with `dd = max(d_max, 2)` a channel clamped to
        // `info_rail = i16::MAX − dd·max_mag` cannot wrap one, and
        // `info_rail > dd·max_mag` keeps the clamp beyond anything the
        // messages can add. Release builds do not check those adds; the
        // test profile's overflow checks are the proof.
        let max_mag32 = i32::from(fu.max_mag);
        let degrees = graph.var_offsets()[..=k].windows(2).map(|w| w[1] - w[0]);
        let dd = degrees.max().unwrap_or(0).max(2) as i32;
        let info_rail = i16::MAX as i32 - dd * max_mag32;
        if info_rail <= dd * max_mag32 {
            return None;
        }

        let plane = q_rows * stride * pitch;
        Some(SimdQuant {
            tier,
            lanes,
            q_rows,
            stride,
            info_d,
            rot,
            v2c: vec![0; plane],
            c2v: vec![0; plane],
            fu,
            syn: vec![0; lanes],
            info_rail: info_rail as i16,
            chan16: vec![0; k],
            tot2: vec![0; 2 * k],
            signs: vec![0; graph.var_count()],
        })
    }

    /// The dispatch tier this plan runs.
    pub(crate) fn tier(&self) -> SimdTier {
        self.tier
    }

    /// Bytes of the message state: the `v2c` and `c2v` planes and the
    /// chain state.
    pub(crate) fn message_bytes(&self) -> usize {
        (self.v2c.len() + self.c2v.len()) * size_of::<i8>() + self.fu.chain_bytes()
    }

    /// Lane-parallel decode of any `i32` channel, mirroring the fused
    /// sweep's decode step for step (same early-stop placement, same
    /// iteration accounting, same digest points) and bit-identical to it:
    /// the clamped ingress (module docs) changes nothing observable.
    pub(crate) fn decode_into(
        &mut self,
        max_iterations: usize,
        early_stop: bool,
        channel: &[i32],
        out: &mut DecodeResult,
        mut trace: Option<&mut Vec<u64>>,
    ) {
        self.load(channel);
        // As in the fused path: with both chain directions empty (`load`
        // cleared them) a cap of 0 leaves the parity totals at the channel
        // values, and until the first sweep no check message is folded in.
        let mut iterations = 0;
        let mut converged = false;

        for it in 0..max_iterations {
            // Fused totals + variable-node pass (identical values to the
            // scalar fused pass: integer addition is order-independent).
            self.vn_pass(it > 0);
            if early_stop && it > 0 && self.syndrome_clear() {
                converged = true;
                break;
            }
            iterations += 1;

            rule_kernel!(self.fu, |kernel| check_sweep_tier(
                self.tier,
                &mut self.fu,
                &mut kernel,
                &mut self.v2c,
                &mut self.c2v
            ));
            if let Some(digests) = trace.as_deref_mut() {
                digests.push(self.digest());
            }
        }

        if !converged {
            // The loop ended right after a sweep: fold it into the totals
            // and take the verdict where the early stop takes it.
            self.vn_pass(iterations > 0);
            converged = self.syndrome_clear();
        }
        if out.bits.len() != channel.len() {
            out.bits = BitVec::zeros(channel.len());
        }
        egress_tier(self.tier, &mut self.fu, &self.tot2, &mut self.signs, &mut out.bits);
        out.iterations = iterations;
        out.converged = converged;
    }

    /// The ingress: the parity channel transposed lane-major and clamped to
    /// `±(2·max_mag + 1)` by [`FuLanes::reset`], which also clears the
    /// chain, and the information channel clamped to `±info_rail` (module
    /// docs).
    fn load(&mut self, channel: &[i32]) {
        load_tier(self.tier, &mut self.fu, self.info_rail, &mut self.chan16, channel)
    }

    /// Totals + saturated v2c for the information side, through the doubled
    /// blocks, with the `c2v` plane folded in once a sweep has written it
    /// (`swept`); before that every check message is zero.
    fn vn_pass(&mut self, swept: bool) {
        vn_pass_rot_tier(
            self.tier,
            &self.rot,
            self.lanes,
            self.fu.max_mag.into(),
            &self.chan16,
            swept.then_some(&self.c2v[..]),
            &mut self.v2c,
            &mut self.tot2,
        )
    }

    /// The syndrome test on the totals `vn_pass` just wrote, in the lanes:
    /// `syndrome_ok(hard_decisions(totals))`, parity side included.
    fn syndrome_clear(&mut self) -> bool {
        lane_syndrome_tier(
            self.tier,
            &self.rot,
            self.lanes,
            self.q_rows,
            self.info_d,
            &self.tot2,
            &self.fu.pchan,
            &self.fu.fwd,
            &self.fu.bwd,
            &mut self.syn,
        )
    }

    /// Canonical message digest — value-for-value the stream of
    /// `fused_digest`: per check (check order) the
    /// information c2v messages in hardware input order, then the forward,
    /// then the backward chain messages.
    fn digest(&self) -> u64 {
        let (lanes, q_rows, stride, info_d) = (self.lanes, self.q_rows, self.stride, self.info_d);
        let pitch = self.fu.pitch;
        let mut h = Fnv::new();
        for c in 0..lanes * q_rows {
            let base = (c % q_rows) * stride * pitch + c / q_rows;
            for i in 0..info_d {
                h.write_i32(self.c2v[base + i * pitch].into());
            }
        }
        let (fwd, bwd) = (&self.fu.fwd, &self.fu.bwd);
        for x in check_order(fwd, lanes, q_rows).chain(check_order(bwd, lanes, q_rows)) {
            h.write_i32(x);
        }
        h.finish()
    }
}

/// The lane columns of `cut`, or of the natural schedule read from the
/// graph's record when `cut` is `None`: [`cut_columns`] or
/// [`record_columns`].
pub(crate) fn lane_columns(
    graph: &TannerGraph,
    cut: Option<&ChainPartition>,
    pitch: usize,
) -> Option<Vec<RotEntry>> {
    match cut {
        None => Some(record_columns(graph.quasi_cyclic()?, pitch)),
        Some(cut) => cut_columns(graph, cut, pitch),
    }
}

/// The natural schedule's lane columns, read from the graph's record:
/// column `i` of residue row `r` is the row's `i`-th input in table order,
/// at plane offset `(r·stride + i)·pitch`. One step per 360 edges.
fn record_columns(record: &QuasiCyclic, pitch: usize) -> Vec<RotEntry> {
    let stride = record.row_len() + 2;
    let mut columns = Vec::with_capacity(record.rows() * record.row_len());
    for r in 0..record.rows() {
        let inputs = record.row(r).iter().enumerate();
        columns
            .extend(inputs.map(|(i, input)| RotEntry::of_input((r * stride + i) * pitch, input)));
    }
    columns
}

/// The lane columns of a caller's cut (its edge order, or graph order),
/// at plane offsets `(r·stride + i)·pitch`: lane 0's input fixes each
/// column's block and offset, and every other lane must read that block
/// rotated. `None` when some lane does not (graph order, other lane
/// counts, synthetic test orders), and the decoder takes the scalar fused
/// datapath.
fn cut_columns(graph: &TannerGraph, cut: &ChainPartition, pitch: usize) -> Option<Vec<RotEntry>> {
    let (k, lanes) = (graph.info_len(), cut.lanes());
    let q_rows = graph.check_count() / lanes;
    let info_d = graph.check_degree(0) - 1;
    let stride = info_d + 2;
    let (offsets, vars, order) = (graph.check_offsets(), graph.edge_vars(), cut.edge_order());
    let input = |c: usize, i: usize| {
        let position = order.map_or(i, |order| order[c * info_d + i] as usize);
        vars[offsets[c] as usize + position] as usize
    };
    let mut columns = Vec::with_capacity(q_rows * info_d);
    for r in 0..q_rows {
        for i in 0..info_d {
            let v0 = input(r, i);
            let (block, off) = (v0 - v0 % lanes, v0 % lanes);
            if v0 >= k || block + lanes > k {
                return None;
            }
            columns.push(RotEntry::rotated((r * stride + i) * pitch, block, off));
        }
    }
    for c in q_rows..lanes * q_rows {
        let (u, row) = (c / q_rows, &columns[(c % q_rows) * info_d..][..info_d]);
        for (i, column) in row.iter().enumerate() {
            let (block, off) = column.block_and_off(lanes);
            if input(c, i) != block + (u + off) % lanes {
                return None;
            }
        }
    }
    // Every information variable lies in a whole block some column covers;
    // the doubled planes are cut into blocks on the strength of it.
    assert!(k.is_multiple_of(lanes), "{k} information bits are not whole {lanes}-blocks");
    Some(columns)
}

/// One lane-wide boxplus combine via the threshold-decomposed correction:
/// bit-identical to `QBoxplus::combine`, without its sign. With `a = |x|`,
/// `b = |y|`, `{|x+y|, |x−y|} = {a+b, a+b − 2·mag}` in the order the sign
/// picks, so `sign · (corr(|x+y|) − corr(|x−y|))` is
/// `corr(hi) − corr(lo)` with `hi = a+b`, `lo = hi − 2·mag` either way: minus
/// the number of thresholds in `[lo, hi)`. That is never positive, so the
/// quantizer's upper clamp is dead and only the clamp at zero remains; the
/// sign goes on last as an XOR-and-subtract of the mask `m`. Only the first
/// `LIVE` thresholds are compared against (the rest must be the `-1`
/// sentinel).
#[inline(always)]
fn combine_one<W: FuWord, const LIVE: usize>(x: W, y: W, th: [W; MAX_CORR_THRESHOLDS]) -> W {
    let (a, b) = (x.abs(), y.abs());
    let mag = a.min(b);
    let hi = a + b;
    let lo = hi - (mag + mag);
    let mut c = W::default();
    for &t in &th[..LIVE] {
        c = c + W::from((lo <= t) & (t < hi));
    }
    let m = (x ^ y) >> (W::BITS - 1);
    ((mag - c).max(W::default()) ^ m) - m
}

/// [`Quantizer::quantize_into`], for the lanes' tier clones.
#[inline(always)]
fn quantize(quantizer: &Quantizer, llrs: &[f64], out: &mut [i32]) {
    quantizer.quantize_into(llrs, out)
}

/// [`SimdQuant::load`]'s body.
#[inline(always)]
fn load(fu: &mut FuLanes<i8>, info_rail: i16, chan16: &mut [i16], channel: &[i32]) {
    let k = chan16.len();
    fu.reset(&channel[k..]);
    let rail = i32::from(info_rail);
    for (c, &x) in chan16.iter_mut().zip(channel) {
        *c = x.clamp(-rail, rail) as i16;
    }
}

/// The egress: the hard decisions, once per decode. A hard decision is the
/// sign of a total, and the lanes hold every total's sign where it lies
/// (module docs): the information totals' in the doubled blocks, the parity
/// totals' in `pchan + fwd + bwd`. Both go to `signs` in variable order,
/// then to `bits`.
#[inline(always)]
fn egress(fu: &mut FuLanes<i8>, tot2: &[i16], signs: &mut [i8], bits: &mut BitVec) {
    let (k, lanes) = (tot2.len() / 2, fu.lanes);
    let (info, parity) = signs.split_at_mut(k);
    for (block, doubled) in info.chunks_exact_mut(lanes).zip(tot2.chunks_exact(2 * lanes)) {
        for (s, &t) in block.iter_mut().zip(doubled) {
            *s = (t >> 8) as i8;
        }
    }
    fu.lane_parity_totals(parity);
    bits.fill_from(signs, i8::is_negative);
}

/// Rotation-structured variable-node pass over the doubled blocks, the
/// software form of the paper's shuffle network: every rotated read and
/// write is one dense `lanes`-long slice, with no seam at the wrap. While
/// the c2v messages accumulate, the two halves of a block split its sum
/// between them (an entry at offset `off` adds `lanes - off` terms to the
/// first and `off` to the second); one fold per block adds them to the
/// channel and writes the total to both halves. The `i8` messages widen on
/// read, and the write narrows through the clamp to `±max_mag`, exactly.
/// `c2v` is `None` while every check message is zero: the totals are then
/// the channel, and no plane is read.
#[inline(always)]
fn vn_pass_rot(
    rot: &[RotEntry],
    lanes: usize,
    max_mag: i16,
    chan16: &[i16],
    c2v: Option<&[i8]>,
    v2c: &mut [i8],
    tot2: &mut [i16],
) {
    tot2.fill(0);
    if let Some(c2v) = c2v {
        for e in rot {
            let (base, at) = (e.base as usize, e.at as usize);
            for (t, &c) in tot2[at..at + lanes].iter_mut().zip(&c2v[base..base + lanes]) {
                *t += i16::from(c);
            }
        }
    }
    for (chan, tot) in chan16.chunks_exact(lanes).zip(tot2.chunks_exact_mut(2 * lanes)) {
        let (lo, hi) = tot.split_at_mut(lanes);
        for ((&ch, lo), hi) in chan.iter().zip(lo).zip(hi) {
            let t = ch + *lo + *hi;
            (*lo, *hi) = (t, t);
        }
    }
    for e in rot {
        let (base, at) = (e.base as usize, e.at as usize);
        let (t, v) = (&tot2[at..at + lanes], &mut v2c[base..base + lanes]);
        match c2v {
            Some(c2v) => {
                for ((v, &t), &c) in v.iter_mut().zip(t).zip(&c2v[base..base + lanes]) {
                    *v = (t - i16::from(c)).clamp(-max_mag, max_mag) as i8;
                }
            }
            None => {
                for (v, &t) in v.iter_mut().zip(t) {
                    *v = t.clamp(-max_mag, max_mag) as i8;
                }
            }
        }
    }
}

/// Lane-domain syndrome test: `true` when the hard decisions of the
/// current totals satisfy every check.
///
/// The sign bit of an XOR of integers is the XOR of their sign bits, and a
/// hard decision *is* the sign bit, so the syndrome of the `lanes` checks
/// of residue row `r` is the sign of one lane vector: the XOR of the row's
/// information totals (each `RotEntry` a contiguous slice of a doubled
/// block, as in [`vn_pass_rot`]), of its own parity totals
/// `pchan + fwd + bwd` (the sign of [`FuLanes::parity_totals`], at most
/// `4·max_mag + 1` in `i8`, widened) and of the left neighbour's — row
/// `r - 1` lane-aligned, or at `r == 0` row `q_rows - 1` shifted one lane,
/// with nothing for check 0. By construction
/// the result equals `syndrome_ok(hard_decisions_int(totals))` over the
/// materialized totals.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn lane_syndrome(
    rot: &[RotEntry],
    lanes: usize,
    q_rows: usize,
    info_d: usize,
    tot2: &[i16],
    pchan: &[i8],
    fwd: &[i8],
    bwd: &[i8],
    syn: &mut [i16],
) -> bool {
    let parity = |s: usize| i16::from(pchan[s] + fwd[s] + bwd[s]);
    for r in 0..q_rows {
        let row = r * lanes;
        if r > 0 {
            for (u, acc) in syn.iter_mut().enumerate() {
                *acc = parity(row + u) ^ parity(row - lanes + u);
            }
        } else {
            let last = (q_rows - 1) * lanes;
            syn[0] = parity(0);
            for (u, acc) in syn.iter_mut().enumerate().skip(1) {
                *acc = parity(u) ^ parity(last + u - 1);
            }
        }
        for e in &rot[r * info_d..(r + 1) * info_d] {
            for (acc, &x) in syn.iter_mut().zip(&tot2[e.at as usize..][..lanes]) {
                *acc ^= x;
            }
        }
        if syn.iter().fold(0, |any, &x| any | x) < 0 {
            return false;
        }
    }
    true
}

/// One check row of every unit, the five steps of [`FuLanes`], under the
/// rule's `kernel`. Inlined into each tier clone with the kernel, so the
/// row's loops vectorize there.
#[inline(always)]
fn fu_row<W: FuWord>(
    fu: &mut FuLanes<W>,
    kernel: &mut impl RowKernel<W>,
    r: usize,
    v_in: &mut [W],
    v_out: &mut [W],
    mut hook: impl FnMut(&mut [W]),
) {
    let (lanes, pitch, q_rows, row_len) = (fu.lanes, fu.pitch, fu.q_rows, fu.row_len);
    let max_mag = fu.max_mag;
    let (vl, vr) = (row_len * pitch, (row_len + 1) * pitch);
    debug_assert!(v_in[..vl].iter().all(|&x| x.abs() <= max_mag), "row outside the rail");
    // 1. Parity inputs. Left, `pchan[j - 1] ⊞ fwd`: lane-aligned for r > 0;
    // at r == 0 check j - 1 is the last one of the unit below. Check 0 has
    // none — a zero keeps lane 0 in range and step 3 rebuilds its outputs.
    let input = |chan: W, msg: W| chan.saturating_add(msg).max(-max_mag).min(max_mag);
    let (pchan, regs) = (&fu.pchan, &fu.regs);
    if r > 0 {
        let chan = &pchan[(r - 1) * lanes..r * lanes];
        for ((o, &c), &f) in v_in[vl..vl + lanes].iter_mut().zip(chan).zip(regs) {
            *o = input(c, f);
        }
    } else {
        v_in[vl] = W::default();
        let chan = &pchan[(q_rows - 1) * lanes..];
        for ((o, &c), &f) in v_in[vl + 1..vl + lanes].iter_mut().zip(chan).zip(&regs[1..]) {
            *o = input(c, f);
        }
    }
    // Right, `pchan[j] ⊞ bwd[j]`, the last check's backward slot being zero.
    let (chan, back) = (&pchan[r * lanes..(r + 1) * lanes], &fu.bwd[r * lanes..(r + 1) * lanes]);
    for ((o, &c), &b) in v_in[vr..vr + lanes].iter_mut().zip(chan).zip(back) {
        *o = input(c, b);
    }

    // 2. The rule's row kernel, pad lanes included.
    row_update(kernel, v_in, v_out, pitch);

    // 3. Check 0 has degree `row_len + 1`, the right parity input last: the
    // scalar rule (the call the fused sweep makes for that check)
    // recomputes it, and its forward output goes to the left slot, where
    // the write-back takes lane 0's from. The kernel's output at
    // (row_len + 1, lane 0) is never read.
    if r == 0 {
        let d0 = row_len + 1;
        for i in 0..row_len {
            fu.fix_in[i] = v_in[i * pitch].widen().into();
        }
        fu.fix_in[row_len] = v_in[vr].widen().into();
        fu.arithmetic.extrinsic(&fu.fix_in[..d0], &mut fu.fix_out[..d0]);
        for i in 0..row_len {
            v_out[i * pitch] = W::narrow(fu.fix_out[i]);
        }
        v_out[vl] = W::narrow(fu.fix_out[row_len]);
    }

    // 4. The caller's hook.
    hook(v_out);

    // 5. Write-back: backward outputs (left slot) to the row above, forward
    // outputs (right slot) into the registers.
    if r > 0 {
        fu.bwd[(r - 1) * lanes..r * lanes].copy_from_slice(&v_out[vl..vl + lanes]);
        fu.regs.copy_from_slice(&v_out[vr..vr + lanes]);
    } else {
        fu.bwd[(q_rows - 1) * lanes..][..lanes - 1].copy_from_slice(&v_out[vl + 1..vl + lanes]);
        fu.regs[1..].copy_from_slice(&v_out[vr + 1..vr + lanes]);
        fu.regs[0] = v_out[vl];
    }
    fu.fwd[r * lanes..(r + 1) * lanes].copy_from_slice(&fu.regs);
}

/// One check sweep of the lane planes: [`FuLanes::begin`], every residue
/// row through [`fu_row`] with no hook, [`FuLanes::end`].
#[inline(always)]
fn check_sweep(
    fu: &mut FuLanes<i8>,
    kernel: &mut impl RowKernel<i8>,
    v2c: &mut [i8],
    c2v: &mut [i8],
) {
    let row = v2c.len() / fu.q_rows;
    fu.begin();
    for (r, (v_in, v_out)) in v2c.chunks_exact_mut(row).zip(c2v.chunks_exact_mut(row)).enumerate() {
        fu_row(fu, kernel, r, v_in, v_out, |_| {});
    }
    fu.end();
}

tier_clones!(
    vn_pass_rot_tier, vn_pass_rot, vn_pass_rot_avx2, vn_pass_rot_avx512;
    (
        rot: &[RotEntry],
        lanes: usize,
        max_mag: i16,
        chan16: &[i16],
        c2v: Option<&[i8]>,
        v2c: &mut [i8],
        tot2: &mut [i16],
    )
);

tier_clones!(
    /// [`Quantizer::quantize_into`] at a tier: the float decoder entry of a
    /// lane decoder quantizes at the lanes' tier.
    quantize_tier, quantize, quantize_avx2, quantize_avx512;
    (quantizer: &Quantizer, llrs: &[f64], out: &mut [i32])
);

tier_clones!(
    load_tier, load, load_avx2, load_avx512;
    (fu: &mut FuLanes<i8>, info_rail: i16, chan16: &mut [i16], channel: &[i32])
);

tier_clones!(
    egress_tier, egress, egress_avx2, egress_avx512;
    (fu: &mut FuLanes<i8>, tot2: &[i16], signs: &mut [i8], bits: &mut BitVec)
);

tier_clones!(
    lane_syndrome_tier, lane_syndrome, lane_syndrome_avx2, lane_syndrome_avx512;
    (
        rot: &[RotEntry],
        lanes: usize,
        q_rows: usize,
        info_d: usize,
        tot2: &[i16],
        pchan: &[i8],
        fwd: &[i8],
        bwd: &[i8],
        syn: &mut [i16],
    ) -> bool
);

tier_clones!(
    check_sweep_tier, check_sweep, check_sweep_avx2, check_sweep_avx512;
    (fu: &mut FuLanes<i8>, kernel: &mut impl RowKernel<i8>, v2c: &mut [i8], c2v: &mut [i8])
);

tier_clones!(
    fu_row_tier<W: FuWord>, fu_row, fu_row_avx2, fu_row_avx512;
    (
        fu: &mut FuLanes<W>,
        kernel: &mut impl RowKernel<W>,
        r: usize,
        v_in: &mut [W],
        v_out: &mut [W],
        hook: impl FnMut(&mut [W]),
    )
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::row_update_tier;
    use crate::quant::Quantizer;
    use crate::stopping::{hard_decisions_int, syndrome_ok};
    use crate::test_support::{rotation_partition, SplitMix64};
    use dvbs2_ldpc::{
        AddressTable, CodeParams, CodeRate, DegreeClass, DvbS2Code, Encoder, FrameSize,
    };

    /// A quasi-cyclic IRA code with two residue rows: the smallest the lane
    /// planes accept, where row 0's left neighbour is the *next* row
    /// shifted one lane. (The rate/frame labels are unused placeholders.)
    fn two_row_code() -> (TannerGraph, Encoder) {
        let class = DegreeClass { count: 360, degree: 3 };
        let params = CodeParams {
            rate: CodeRate::R1_2,
            frame: FrameSize::Short,
            n: 1440,
            k: 720,
            n_check: 720,
            q: 2,
            check_degree: 5,
            hi: class,
            lo: class,
        };
        let rows = vec![vec![0, 101, 302], vec![5, 416, 633]];
        let table = AddressTable::from_rows(&params, rows).unwrap();
        (TannerGraph::for_code(&params, &table), Encoder::new(params, &table).unwrap())
    }

    /// Lane planes whose totals and chain state decide `word`: random
    /// magnitudes, signs from the bits. Returns the information totals.
    fn state_deciding(
        sq: &mut SimdQuant,
        word: &BitVec,
        k: usize,
        rng: &mut SplitMix64,
    ) -> Vec<i32> {
        let m = sq.fu.max_mag as u64;
        fn draw(rng: &mut SplitMix64, negative: bool, lo: u64, hi: u64) -> i32 {
            let mag = (lo + rng.next_u64() % (hi - lo + 1)) as i32;
            if negative {
                -mag
            } else {
                mag
            }
        }
        let info = (0..k).map(|v| draw(rng, word.get(v), 1, 4 * m)).collect();
        for u in 0..sq.lanes {
            for r in 0..sq.q_rows {
                // The channel term outweighs the two chain terms, so its
                // sign is the sum's.
                let (s, neg) = (r * sq.lanes + u, word.get(k + u * sq.q_rows + r));
                sq.fu.pchan[s] = draw(rng, neg, m, m) as i8;
                let negative = rng.next_bool();
                sq.fu.fwd[s] = draw(rng, negative, 0, (m - 1) / 2) as i8;
                let negative = rng.next_bool();
                sq.fu.bwd[s] = draw(rng, negative, 0, (m - 1) / 2) as i8;
            }
        }
        info
    }

    /// The lane test and the scalar test on the same state.
    fn both_tests(sq: &mut SimdQuant, graph: &TannerGraph, info: &[i32]) -> (bool, bool) {
        let k = graph.info_len();
        for (block, half) in info.chunks_exact(sq.lanes).zip(sq.tot2.chunks_exact_mut(sq.lanes * 2))
        {
            for (u, &t) in block.iter().enumerate() {
                half[u] = t as i16;
                half[sq.lanes + u] = t as i16;
            }
        }
        let lane = lane_syndrome_tier(
            sq.tier,
            &sq.rot,
            sq.lanes,
            sq.q_rows,
            sq.info_d,
            &sq.tot2,
            &sq.fu.pchan,
            &sq.fu.fwd,
            &sq.fu.bwd,
            &mut sq.syn,
        );
        let mut totals = info.to_vec();
        totals.resize(graph.var_count(), 0);
        clamped_parity_totals(sq, &mut totals[k..]);
        (lane, syndrome_ok(graph, &hard_decisions_int(&totals)))
    }

    /// The parity totals the lane syndrome reads: `pchan + fwd + bwd`, on the
    /// clamped channel.
    fn clamped_parity_totals(sq: &SimdQuant, totals: &mut [i32]) {
        let fu = &sq.fu;
        let parity: Vec<i32> = check_order(&fu.pchan, fu.lanes, fu.q_rows).collect();
        fu.parity_totals(&parity, totals);
    }

    #[test]
    fn lane_syndrome_is_the_scalar_syndrome_test() {
        let real = |rate| {
            let code = DvbS2Code::new(rate, FrameSize::Short).unwrap();
            (code.tanner_graph(), code.encoder().unwrap())
        };
        let codes = [
            ("R1/2", real(CodeRate::R1_2)),
            ("R8/9", real(CodeRate::R8_9)),
            ("q=2", two_row_code()),
        ];
        let arith = QCheckArithmetic::lut(Quantizer::paper_6bit());
        for (name, (graph, encoder)) in &codes {
            let k = graph.info_len();
            let partition = rotation_partition(graph);
            for tier in SimdTier::available() {
                let what = format!("{name} {tier:?}");
                let mut sq = SimdQuant::try_build(graph, Some(&partition), &arith, tier).unwrap();
                let (lanes, q_rows) = (sq.lanes, sq.q_rows);
                let mut rng = SplitMix64(0x5EED ^ k as u64);
                for round in 0..4 {
                    let message: BitVec = (0..k).map(|_| rng.next_bool()).collect();
                    let word = encoder.encode(&message).unwrap();
                    let mut info = state_deciding(&mut sq, &word, k, &mut rng);
                    assert_eq!(both_tests(&mut sq, graph, &info), (true, true), "{what}: codeword");

                    // One flipped information sign.
                    let v = (rng.next_u64() % k as u64) as usize;
                    info[v] = -info[v];
                    assert_eq!(
                        both_tests(&mut sq, graph, &info),
                        (false, false),
                        "{what}: info {v}"
                    );
                    info[v] = -info[v];

                    // One flipped parity sign at each chain position the
                    // lane test treats differently: check 0's own bit, a
                    // sub-chain boundary, the end of the chain.
                    let mid = 1 + (rng.next_u64() % (lanes as u64 - 1)) as usize;
                    for (r, u) in [(0, 0), (0, mid), (q_rows - 1, lanes - 1)] {
                        let s = r * lanes + u;
                        for plane in [&mut sq.fu.pchan, &mut sq.fu.fwd, &mut sq.fu.bwd] {
                            plane[s] = -plane[s];
                        }
                        let flipped = both_tests(&mut sq, graph, &info);
                        assert_eq!(flipped, (false, false), "{what}: parity r={r} u={u}");
                        for plane in [&mut sq.fu.pchan, &mut sq.fu.fwd, &mut sq.fu.bwd] {
                            plane[s] = -plane[s];
                        }
                    }
                    assert_eq!(both_tests(&mut sq, graph, &info), (true, true), "{what}: restored");

                    // Arbitrary totals and chain state, zeros included.
                    let m = sq.fu.max_mag as i64;
                    let mut any =
                        |span: i64| (rng.next_u64() % (2 * span as u64 + 1)) as i64 - span;
                    for x in info.iter_mut() {
                        *x = any(3) as i32;
                    }
                    for s in 0..lanes * q_rows {
                        sq.fu.pchan[s] = any(m) as i8;
                        sq.fu.fwd[s] = any(2) as i8;
                        sq.fu.bwd[s] = any(2) as i8;
                    }
                    let (lane, scalar) = both_tests(&mut sq, graph, &info);
                    assert_eq!(lane, scalar, "{what}: random state, round {round}");
                }
            }
        }
    }

    /// The clamped ingress at and past both bounds: with every channel value
    /// at, one past or far past its clamp (`info_rail`, `2·max_mag + 1`),
    /// either sign, and every message at either rail, the lanes form every
    /// parity check input and every `v2c` message the wide channel forms
    /// and decide every total's sign as it does; whole decodes equal
    /// `with_partition_fused`, digests included. This profile's overflow
    /// checks would catch a wrapped `i8` or `i16` add (the parity input
    /// `pchan + msg` reaches `3·max_mag + 1 = 94` and the parity total
    /// `4·max_mag + 1 = 125`), and the last block shows the information
    /// bound is tight.
    #[test]
    fn the_clamped_ingress_is_exact_at_and_past_both_bounds() {
        use crate::{DecoderConfig, QuantizedZigzagDecoder};
        use std::sync::Arc;
        let (_, graph) = crate::test_support::small_code();
        let graph = Arc::new(graph);
        let (k, n) = (graph.info_len(), graph.var_count());
        let partition = rotation_partition(&graph);
        let arith = QCheckArithmetic::lut(Quantizer::paper_6bit());
        let m = 31;
        let degree = |v: usize| graph.var_edges(v).len() as i32;
        let rail = i16::MAX as i32 - (0..k).map(degree).max().unwrap() * m;
        let past = |bound: i32, v: usize| [bound, bound + 1, 100_000][v % 3] * [1, -1][v / 3 % 2];
        let channel: Vec<i32> =
            (0..n).map(|v| if v < k { past(rail, v) } else { past(2 * m + 1, v) }).collect();
        let mut rng = SplitMix64(0x1616);
        let mut noisy: Vec<i32> = (0..n).map(|_| (rng.next_u64() % 63) as i32 - 31).collect();
        for v in (0..n).step_by(97) {
            noisy[v] = channel[v];
        }
        for tier in SimdTier::available() {
            let mut sq = SimdQuant::try_build(&graph, Some(&partition), &arith, tier).unwrap();
            let (lanes, q_rows) = (sq.lanes, sq.q_rows);
            assert_eq!(i32::from(sq.info_rail), rail, "{tier:?}");
            sq.load(&channel);
            for msg in [-m, m] {
                let what = format!("{tier:?} messages at {msg}");
                sq.c2v.fill(msg as i8);
                sq.fu.fwd.fill(msg as i8);
                sq.fu.bwd.fill(msg as i8);
                sq.vn_pass(true);
                for e in &sq.rot {
                    let (block, off) = e.block_and_off(lanes);
                    for u in 0..lanes {
                        let v = block + (u + off) % lanes;
                        let wide = (channel[v] + (degree(v) - 1) * msg).clamp(-m, m);
                        assert_eq!(i32::from(sq.v2c[e.base as usize + u]), wide, "{what}: v2c {v}");
                    }
                }
                let mut totals = vec![0; n];
                clamped_parity_totals(&sq, &mut totals[k..]);
                for (v, t) in totals[..k].iter_mut().enumerate() {
                    *t = i32::from(sq.tot2[2 * (v - v % lanes) + v % lanes]);
                }
                for (v, &t) in totals.iter().enumerate() {
                    let wide = channel[v] + if v < k { degree(v) } else { 2 } * msg;
                    assert_eq!(t < 0, wide < 0, "{what}: variable {v} ({} wide)", channel[v]);
                }
                for (s, &p) in sq.fu.pchan.iter().enumerate() {
                    let wide = channel[k + s % lanes * q_rows + s / lanes];
                    let input = p.saturating_add(msg as i8).clamp(-m as i8, m as i8);
                    assert_eq!(i32::from(input), (wide + msg).clamp(-m, m), "{what}: slot {s}");
                    let total = p + sq.fu.fwd[s] + sq.fu.bwd[s];
                    assert_eq!(i32::from(total), wide.clamp(-2 * m - 1, 2 * m + 1) + 2 * msg);
                }
            }
            let config = DecoderConfig::default().with_max_iterations(6).with_simd_tier(Some(tier));
            let mut decoders = [
                QuantizedZigzagDecoder::with_partition,
                QuantizedZigzagDecoder::with_partition_fused,
            ]
            .map(|build| build(Arc::clone(&graph), arith.clone(), config, partition.clone()));
            assert_eq!(decoders[0].simd_tier(), Some(tier));
            let (mut da, mut db) = (Vec::new(), Vec::new());
            for (name, channel) in [("noisy", &noisy), ("every value past", &channel)] {
                let [lanes, fused] = &mut decoders;
                let got = lanes.decode_quantized_traced(channel, &mut da);
                assert_eq!(got, fused.decode_quantized_traced(channel, &mut db), "{tier:?} {name}");
                assert_eq!(da, db, "{tier:?} {name}: digests");
            }
            // The bound is tight: every message at the rail puts the
            // highest-degree totals at `i16::MAX` exactly.
            sq.c2v.fill(31);
            sq.chan16.fill(rail as i16);
            sq.vn_pass(true);
            assert_eq!(sq.tot2.iter().max(), Some(&i16::MAX), "{tier:?}");
        }
    }

    /// `FuLanes<i8>` (360 units on a 384-lane pitch) and `FuLanes<i16>` (360
    /// on 360) row for row from the same chain state, at every tier, under
    /// every rule the `i8` word takes: the LUT at 6 bits, 5 bits and with
    /// four live thresholds, shift min-sum at shifts 1 to 3. The parity
    /// channel sits at, one past and far past its clamp `±(2m + 1)` and
    /// every chain message starts at `±m`, so the parity input
    /// `pchan + msg` reaches `3m + 1` and the parity total
    /// `pchan + fwd + bwd` reaches `4m + 1`, as `i8` adds this profile
    /// checks for overflow. Outputs, chain state and parity totals are
    /// equal after every row, and the pad lanes stay zero.
    #[test]
    fn the_i8_row_equals_the_i16_row() {
        let (lanes, q_rows, row_len) = (360, 3, 6);
        let q = Quantizer::paper_6bit();
        let mut rules = vec![
            QCheckArithmetic::lut(q),
            QCheckArithmetic::lut(Quantizer::paper_5bit()),
            QCheckArithmetic::lut(Quantizer::new(6, 0.18)),
        ];
        rules.extend((1..=3).map(|shift| QCheckArithmetic::min_sum_shift(q, shift)));
        for arith in &rules {
            let m = arith.quantizer().max_mag();
            let mut rng = SplitMix64(0x1816 ^ m as u64);
            let rail = |rng: &mut SplitMix64| if rng.next_bool() { m } else { -m };
            let parity: Vec<i32> = (0..lanes * q_rows)
                .map(|j| [2 * m + 1, 2 * m + 2, 100_000, m][j % 4] * rail(&mut rng).signum())
                .collect();
            let chain: Vec<[i32; 3]> =
                (0..lanes * q_rows).map(|_| [(); 3].map(|_| rail(&mut rng))).collect();
            let rows: Vec<Vec<i32>> = (0..2 * q_rows)
                .map(|_| {
                    let draw = |rng: &mut SplitMix64| match rng.next_u64() % 4 {
                        0 | 1 => rail(rng),
                        _ => (rng.next_u64() % (2 * m as u64 + 1)) as i32 - m,
                    };
                    (0..row_len * lanes).map(|_| draw(&mut rng)).collect()
                })
                .collect();
            for tier in SimdTier::available() {
                let what = format!("{arith:?} {tier:?}");
                let mut narrow = FuLanes::<i8>::new(arith, lanes, q_rows, row_len, Some(tier));
                let mut wide = FuLanes::<i16>::new(arith, lanes, q_rows, row_len, Some(tier));
                assert_eq!((narrow.tier(), wide.tier()), (Some(tier), Some(tier)), "{what}");
                assert_eq!((narrow.pitch(), wide.pitch()), (384, 360), "{what}");
                narrow.reset(&parity);
                wide.reset(&parity);
                for phase in 0..2 {
                    narrow.begin();
                    wide.begin();
                    if phase == 0 {
                        for (s, &[f, b, g]) in chain.iter().enumerate() {
                            (narrow.fwd[s], narrow.bwd[s]) = (f as i8, b as i8);
                            (wide.fwd[s], wide.bwd[s]) = (f as i16, b as i16);
                            if s < lanes {
                                (narrow.regs[s], wide.regs[s]) = (g as i8, g as i16);
                            }
                        }
                        let word = |s: usize| narrow.pchan[s] + narrow.fwd[s] + narrow.bwd[s];
                        let total = (0..lanes * q_rows).map(|s| word(s).abs()).max();
                        assert_eq!(total.map(i32::from), Some(4 * m + 1), "{what}");
                        // This phase's right parity inputs, before the clamp.
                        let right = (0..lanes * q_rows).map(|s| narrow.pchan[s] + narrow.bwd[s]);
                        let input = right.map(i8::abs).max();
                        assert_eq!(input.map(i32::from), Some(3 * m + 1), "{what}");
                    }
                    for r in 0..q_rows {
                        let at = format!("{what} phase {phase} row {r}");
                        let mut v8 = vec![0i8; (row_len + 2) * 384];
                        let mut v16 = vec![0i16; (row_len + 2) * 360];
                        for (j, &x) in rows[phase * q_rows + r].iter().enumerate() {
                            let (i, u) = (j / lanes, j % lanes);
                            (v8[i * 384 + u], v16[i * 360 + u]) = (x as i8, x as i16);
                        }
                        for i in row_len..row_len + 2 {
                            v8[i * 384..][..lanes].fill(i8::MIN);
                            v16[i * 360..][..lanes].fill(i16::MIN);
                        }
                        let (mut out8, mut out16) = (vec![i8::MIN; v8.len()], vec![0; v16.len()]);
                        narrow.row(r, &mut v8, &mut out8, |_| {});
                        wide.row(r, &mut v16, &mut out16, |_| {});
                        for i in 0..row_len + 2 {
                            let (col8, col16) = (&out8[i * 384..][..384], &out16[i * 360..][..360]);
                            let got: Vec<i16> = col8[..lanes].iter().map(|&x| x.into()).collect();
                            assert_eq!(got, col16, "{at}: column {i}");
                            assert!(col8[lanes..].iter().all(|&x| x == 0), "{at}: out pad {i}");
                            let pad = &v8[i * 384..][lanes..384];
                            assert!(pad.iter().all(|&x| x == 0), "{at}: in pad {i}");
                        }
                        let state8: Vec<i32> = narrow.parity_state().collect();
                        assert_eq!(state8, wide.parity_state().collect::<Vec<_>>(), "{at}");
                        let regs8: Vec<i16> = narrow.regs.iter().map(|&x| x.into()).collect();
                        assert_eq!(regs8, wide.regs, "{at}: registers");
                    }
                    narrow.end();
                    wide.end();
                }
                let (mut t8, mut t16) = (vec![0; parity.len()], vec![0; parity.len()]);
                narrow.parity_totals(&parity, &mut t8);
                wide.parity_totals(&parity, &mut t16);
                assert_eq!(t8, t16, "{what}: parity totals");
            }
        }
    }

    #[test]
    fn lane_combine_matches_scalar_combine_exhaustively() {
        fn exhaustive<W: FuWord>(bp: &QBoxplus) {
            let th = lane_thresholds::<W>(bp).unwrap();
            let m = bp.quantizer().max_mag();
            let lane = if th[3].is_negative() { combine_one::<W, 3> } else { combine_one::<W, 4> };
            for a in -m..=m {
                for b in -m..=m {
                    let got = lane(W::narrow(a), W::narrow(b), th).widen();
                    let bits = bp.quantizer().bits();
                    assert_eq!(i32::from(got), bp.combine(a, b), "bits={bits} a={a} b={b}");
                }
            }
        }
        for q in [Quantizer::paper_6bit(), Quantizer::paper_5bit(), Quantizer::new(6, 0.18)] {
            exhaustive::<i8>(&QBoxplus::new(q));
            exhaustive::<i16>(&QBoxplus::new(q));
        }
    }

    /// The shift min-sum lane kernel at shift 1..=3 against
    /// [`QCheckArithmetic::extrinsic`] lane by lane, rails and ties
    /// included, at every degree, lane count and tier of the kernel table.
    #[test]
    fn min_sum_lane_kernel_matches_scalar_rule() {
        use crate::engine::tests::{assert_kernel_matches, draw_quantized, widened};

        fn rows<W: FuWord>(word: &str) {
            let q = Quantizer::paper_6bit();
            for shift in [1, 2, 3] {
                let arith = QCheckArithmetic::min_sum_shift(q, shift);
                assert_kernel_matches(
                    &format!("min-sum >> {shift} {word}"),
                    |tier, v2c, c2v, lanes| {
                        row_update_tier(tier, &mut shift_min_sum_lanes::<W>(shift), v2c, c2v, lanes)
                    },
                    widened(|ins, outs| arith.extrinsic(ins, outs)),
                    draw_quantized(q.max_mag()),
                );
            }
        }
        rows::<i8>("i8");
        rows::<i16>("i16");
    }

    /// The LUT rule's row kernel, as [`FuLanes`] builds it, against
    /// [`QBoxplus::extrinsic`] lane by lane: one, three and four live
    /// thresholds, at every degree, lane count and tier of the kernel table.
    #[test]
    fn lut_lane_kernel_matches_scalar_extrinsic() {
        use crate::engine::tests::{assert_kernel_matches, draw_quantized, widened};

        fn rows<W: FuWord>(word: &str) {
            for q in [Quantizer::paper_6bit(), Quantizer::paper_5bit(), Quantizer::new(6, 0.18)] {
                let bp = QBoxplus::new(q);
                let live = bp.corr_thresholds().unwrap().len();
                assert_kernel_matches(
                    &format!("LUT {word}, {} bits, {live} live thresholds", q.bits()),
                    |tier, v2c, c2v, lanes| {
                        lut_kernel!(lane_thresholds::<W>(&bp).unwrap(), |kernel| {
                            row_update_tier(tier, &mut kernel, v2c, c2v, lanes)
                        })
                    },
                    widened(|ins, outs| bp.extrinsic(ins, outs)),
                    draw_quantized(q.max_mag()),
                );
            }
        }
        rows::<i8>("i8");
        rows::<i16>("i16");
    }
}
