//! 360-lane SIMD functional-unit planes for the quantized datapath.
//!
//! The paper's architecture decodes each check row with M = 360 parallel
//! functional units working the 360 parity sub-chains in lockstep. The
//! fused scalar path (`QuantizedZigzagDecoder::with_partition_fused`)
//! reproduces that datapath check-by-check; this module reproduces its
//! *parallelism*: the planes are transposed **sub-chain-major** so that the
//! 360 FUs of one schedule row become 360 adjacent `i16` SIMD lanes, and
//! one vector op advances every sub-chain by one message — exactly the
//! hardware's row-lockstep, expressed as data parallelism.
//!
//! # Layout
//!
//! The fused plan stores check `c` (lane `u = c / q_rows`, residue row
//! `r = c % q_rows`) as a contiguous `stride`-long row at
//! `((r * lanes + u) * stride)`. Here the same messages live at
//!
//! ```text
//! slot(c, i) = (r * stride + i) * lanes + u
//! ```
//!
//! so position `i` of residue row `r` is a dense `[i16; lanes]` vector
//! across all sub-chains — a structure-of-arrays transpose of the fused
//! layout with identical total size. The forward/backward chain state and
//! the parity channel are transposed the same way (`fwd[r * lanes + u]`),
//! which turns every chain coupling of the sweep into a contiguous vector
//! copy:
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
//! The check rows run `engine.rs`'s two lane kernels at `i16`, the ones
//! the float planes run: the LUT rule is [`PrefixSuffixLanes`] under
//! [`combine_one`], min-sum is [`MinSumLanes`] under the shift
//! `m − (m >> s)`. Each computes the *same dataflow* as its scalar
//! counterpart — same combine association order for the LUT rule, same
//! first-strict-min / second-min recurrence for min-sum, integer adds
//! reassociated only where addition is exactly commutative — so results
//! are bit-identical to the fused path (and therefore to `GoldenModel`) by
//! determinism, not by tolerance. The LUT correction gather is replaced by
//! a threshold decomposition ([`QBoxplus::corr_thresholds`]) that is
//! *verified* against the table at construction. The variable-node side reads the code's
//! quasi-cyclic rotations ([`build_rotation`]). A partition or arithmetic
//! the lanes cannot express exactly (no rotation, a quantizer too wide for
//! `i16` totals, a non-decomposable table, `q_rows < 2`, more than
//! [`ROW_LANES`] lanes) gets the scalar fused datapath at construction; a
//! lane decoder never leaves the lanes.
//!
//! # Ingress
//!
//! `decode_into` accepts any `i32` channel and clamps it once, on the
//! transpose into `i16`: the parity channel to `±(2·max_mag + 1)`, the
//! information channel to `±info_rail`. Both bounds lie strictly beyond
//! what the messages can add to the value, so every clamped check input,
//! every `v2c` message, every digest and the sign of every total — the
//! hard decisions and the lane syndrome — are the wide channel's, and every
//! `i16` add stays in range (DESIGN.md §7.8).
//!
//! The scalar/AVX2/AVX-512 `#[target_feature]` clones are `engine.rs`'s
//! `tier_clones!`, the crate's one dispatch ladder.

use crate::engine::{
    row_update, row_update_tier, tier_clones, MinSumLanes, PrefixSuffixLanes, RowKernel, ROW_LANES,
};
use crate::qdecoder::{ChainPartition, Fnv};
use crate::quant::{QBoxplus, QCheckArithmetic, Quantizer};
use crate::simd::SimdTier;
use crate::stopping::hard_decisions_int_into;
use crate::DecodeResult;
use dvbs2_ldpc::{BitVec, TannerGraph, PARALLELISM};

/// Correction-step thresholds the gather-free LUT kernel carries. The
/// table contributes `round(ln 2 / step)` thresholds; every configuration
/// with a step coarse enough for real quantizers fits (the paper's 6-bit
/// table needs 3). Larger tables get the scalar fused datapath.
const MAX_CORR_THRESHOLDS: usize = 4;

/// The quantizer's rail as a lane value, or `None` when the lanes cannot
/// hold the arithmetic: the combine kernel forms `|a ± b|` in `i16`, so
/// `2·max_mag` must fit.
fn lane_max_mag(quantizer: &Quantizer) -> Option<i16> {
    let max_mag = quantizer.max_mag();
    (2 * max_mag <= i16::MAX as i32).then_some(max_mag as i16)
}

/// The correction table as the lane kernel carries it, or `None` when it
/// does not decompose or needs more than [`MAX_CORR_THRESHOLDS`] steps:
/// `corr(z) = Σ [z <= t]` over the (construction-verified) thresholds;
/// unused slots hold `-1`, which no `z >= 0` satisfies. Thresholds live on
/// the reachable index range `|a ± b| <= 2·max_mag`, which fits `i16` for
/// every quantizer [`lane_max_mag`] accepts.
fn lane_thresholds(boxplus: &QBoxplus) -> Option<[i16; MAX_CORR_THRESHOLDS]> {
    let th = boxplus.corr_thresholds()?;
    if th.len() > MAX_CORR_THRESHOLDS {
        return None;
    }
    let mut thresholds = [-1i16; MAX_CORR_THRESHOLDS];
    for (slot, &t) in thresholds.iter_mut().zip(&th) {
        *slot = t as i16;
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
        let th: [i16; MAX_CORR_THRESHOLDS] = $th;
        if th[MAX_CORR_THRESHOLDS - 1] < 0 {
            let mut $kernel = PrefixSuffixLanes::new(move |a, b| {
                combine_one::<{ MAX_CORR_THRESHOLDS - 1 }>(a, b, th)
            });
            $body
        } else {
            let mut $kernel =
                PrefixSuffixLanes::new(move |a, b| combine_one::<MAX_CORR_THRESHOLDS>(a, b, th));
            $body
        }
    }};
}

/// The shift-normalized min-sum rule's row kernel: the two minima under
/// `m − (m >> shift)`, the subtract-shifted-self of
/// [`QCheckArithmetic::MinSumShift`].
pub(crate) fn shift_min_sum_lanes(shift: u32) -> MinSumLanes<i16, impl Fn(i16) -> i16 + Copy> {
    MinSumLanes::new(move |m: i16| m - (m >> shift))
}

/// The lane-wide LUT check update, for callers outside this crate: the
/// threshold-decomposed correction of one [`QBoxplus`] and the dispatch
/// tier that runs it. `dvbs2-hardware`'s functional-unit array updates its
/// 360 units through this, so the cycle-accurate core, the golden model and
/// the lane planes here share one kernel and one eligibility rule.
#[derive(Debug, Clone)]
pub struct LaneLut {
    tier: SimdTier,
    thresholds: [i16; MAX_CORR_THRESHOLDS],
}

impl LaneLut {
    /// The lane form of `boxplus`, or `None` when saturating `i16` lanes
    /// cannot express it exactly (the arithmetic half of the rule
    /// [`QuantizedZigzagDecoder`]'s lane planes apply: `2·max_mag` beyond
    /// `i16`, or a correction table of more than four unit steps). The
    /// caller then keeps its scalar
    /// [`QBoxplus::extrinsic`] path.
    ///
    /// `forced` pins the dispatch tier; `None` takes [`SimdTier::detect`],
    /// which honours `DVBS2_SIMD`.
    ///
    /// # Panics
    ///
    /// Panics if the tier is not available on this CPU.
    ///
    /// [`QuantizedZigzagDecoder`]: crate::QuantizedZigzagDecoder
    pub fn try_new(boxplus: &QBoxplus, forced: Option<SimdTier>) -> Option<LaneLut> {
        lane_max_mag(boxplus.quantizer())?; // eligibility only: the kernel never clamps to it
        Some(LaneLut { tier: SimdTier::resolve(forced), thresholds: lane_thresholds(boxplus)? })
    }

    /// The dispatch tier the kernel runs at.
    pub fn tier(&self) -> SimdTier {
        self.tier
    }

    /// Extrinsic outputs of `lanes` check nodes of one degree at once.
    /// `v2c[i * lanes + u]` is input `i` of node `u`, and `c2v` receives the
    /// outputs in the same layout. Every lane equals [`QBoxplus::extrinsic`]
    /// on that lane's inputs, for inputs inside the quantizer's rail.
    ///
    /// # Panics
    ///
    /// Panics unless `v2c` and `c2v` hold the same whole number (at least
    /// two) of `lanes`-wide vectors, `lanes` at most 1024.
    pub fn extrinsic(&self, v2c: &[i16], c2v: &mut [i16], lanes: usize) {
        assert_eq!(v2c.len(), c2v.len(), "length mismatch");
        assert!(lanes > 0 && v2c.len().is_multiple_of(lanes), "blocks must be whole vectors");
        assert!(lanes <= ROW_LANES, "at most {ROW_LANES} lanes");
        assert!(v2c.len() / lanes >= 2, "a check node has at least two inputs");
        lut_kernel!(self.thresholds, |kernel| {
            row_update_tier(self.tier, &mut kernel, v2c, c2v, lanes)
        });
    }
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
    max_mag: i16,
    /// The LUT rule's correction thresholds ([`lane_thresholds`]; unused
    /// under min-sum).
    thresholds: [i16; MAX_CORR_THRESHOLDS],
    /// The variable-node plan, row-major (`info_d` entries per residue
    /// row): real DVB-S2 codes are quasi-cyclic with lifting 360, so the
    /// `lanes` variables of one (row, position) plane vector are one
    /// 360-block rotated by a constant offset, verified against the graph
    /// at build time.
    rot: Vec<RotEntry>,
    // --- i16 message state, all lane-major ---
    v2c: Vec<i16>,
    c2v: Vec<i16>,
    fwd: Vec<i16>,
    bwd: Vec<i16>,
    fwd_regs: Vec<i16>,
    boundary: Vec<i16>,
    /// Parity channel transposed to `pchan[r * lanes + u]`, clamped to
    /// `±(2·max_mag + 1)`.
    pchan: Vec<i16>,
    // --- check-0 scalar fix-up scratch ---
    fix_in: Vec<i32>,
    fix_out: Vec<i32>,
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
}

/// One (row, position) plane vector of the rotation VN plan: the `lanes`
/// messages at plane offset `base` belong to variables
/// `block + (u + off) % lanes`, which the doubled block planes hold
/// contiguously from `at = 2·block + off`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RotEntry {
    pub(crate) base: u32,
    at: u32,
}

impl RotEntry {
    /// The vector's `lanes`-block (its first variable) and rotation offset.
    pub(crate) fn block_and_off(&self, lanes: usize) -> (usize, usize) {
        let at = self.at as usize;
        (at / (2 * lanes) * lanes, at % (2 * lanes))
    }
}

impl SimdQuant {
    /// Builds the lane plan for a graph/partition/arithmetic triple, or
    /// returns `None` when the combination is not exactly expressible in
    /// saturating `i16` lanes over the code's rotations (the caller builds
    /// the scalar fused datapath instead).
    ///
    /// Assumes the partition has already been validated by
    /// `QuantizedZigzagDecoder::with_partition` (divisibility, permutation,
    /// uniform information degree).
    pub(crate) fn try_build(
        graph: &TannerGraph,
        partition: &ChainPartition,
        arithmetic: &QCheckArithmetic,
        tier: SimdTier,
    ) -> Option<SimdQuant> {
        let n_check = graph.check_count();
        let k = graph.info_len();
        let lanes = partition.lanes();
        let q_rows = n_check / lanes;
        // Row 0's shifted backward writes must land in a *different*
        // residue row than the one being read, which needs at least two
        // rows per sub-chain (every real rate point has >= 5). The row
        // kernels hold the state of at most `ROW_LANES` lanes.
        if q_rows < 2 || lanes > ROW_LANES {
            return None;
        }
        let max_mag = lane_max_mag(arithmetic.quantizer())?;
        let thresholds = match arithmetic {
            QCheckArithmetic::Lut(bp) => lane_thresholds(bp)?,
            QCheckArithmetic::MinSumShift { .. } => [-1; MAX_CORR_THRESHOLDS],
        };
        let info_d = graph.check_edges(0).len() - 1;
        let stride = info_d + 2;

        // Bake the schedule permutation into the lane-major slot map, then
        // find the rotation of every plane vector in it.
        let edge_slot =
            lane_edge_slots(graph, partition.edge_order(), lanes, q_rows, stride, info_d);
        let rot = build_rotation(graph, &edge_slot, lanes, q_rows, stride, info_d)?;
        // A total is the channel plus at most `d_max` messages of at most
        // `max_mag`, so with `dd = max(d_max, 2)` a channel clamped to
        // `info_rail = i16::MAX − dd·max_mag` cannot wrap one, and
        // `info_rail > dd·max_mag` keeps the clamp beyond anything the
        // messages can add. It also gives `4·max_mag + 1 <= i16::MAX`, room
        // for `lane_syndrome`'s `pchan + fwd + bwd` with the parity channel
        // clamped to `±(2·max_mag + 1)`. Release builds do not check those
        // adds; the test profile's overflow checks are the proof.
        let max_mag32 = i32::from(max_mag);
        let dd = (0..k).map(|v| graph.var_edges(v).len()).max().unwrap_or(0).max(2) as i32;
        let info_rail = i16::MAX as i32 - dd * max_mag32;
        if info_rail <= dd * max_mag32 {
            return None;
        }

        let plane = q_rows * stride * lanes;
        Some(SimdQuant {
            tier,
            lanes,
            q_rows,
            stride,
            info_d,
            max_mag,
            thresholds,
            rot,
            v2c: vec![0; plane],
            c2v: vec![0; plane],
            fwd: vec![0; n_check],
            bwd: vec![0; n_check],
            fwd_regs: vec![0; lanes],
            boundary: vec![0; lanes],
            pchan: vec![0; n_check],
            fix_in: vec![0; stride],
            fix_out: vec![0; stride],
            syn: vec![0; lanes],
            info_rail: info_rail as i16,
            chan16: vec![0; k],
            tot2: vec![0; 2 * k],
        })
    }

    /// The dispatch tier this plan runs.
    pub(crate) fn tier(&self) -> SimdTier {
        self.tier
    }

    /// Lane-parallel decode of any `i32` channel, mirroring the fused
    /// sweep's decode step for step (same early-stop placement, same
    /// iteration accounting, same digest points) and bit-identical to it:
    /// the clamped ingress (module docs) changes nothing observable.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn decode_into(
        &mut self,
        arithmetic: &QCheckArithmetic,
        max_iterations: usize,
        early_stop: bool,
        channel: &[i32],
        totals: &mut [i32],
        out: &mut DecodeResult,
        mut trace: Option<&mut Vec<u64>>,
    ) {
        self.load(channel);
        let (k, lanes) = (self.chan16.len(), self.lanes);
        self.c2v.fill(0);
        // As in the fused path: with both directions empty a cap of 0 leaves
        // the parity totals at the channel values.
        self.fwd.fill(0);
        self.bwd.fill(0);
        self.boundary.fill(0);
        let mut iterations = 0;
        let mut converged = false;

        for it in 0..max_iterations {
            // Fused totals + variable-node pass (identical values to the
            // scalar fused pass: integer addition is order-independent).
            self.vn_pass();
            if early_stop && it > 0 && self.syndrome_clear() {
                converged = true;
                break;
            }
            iterations += 1;

            match *arithmetic {
                QCheckArithmetic::Lut(_) => {
                    lut_kernel!(self.thresholds, |kernel| self.check_sweep(arithmetic, &mut kernel))
                }
                QCheckArithmetic::MinSumShift { shift, .. } => {
                    self.check_sweep(arithmetic, &mut shift_min_sum_lanes(shift))
                }
            }
            if let Some(digests) = trace.as_deref_mut() {
                digests.push(self.digest());
            }
        }

        if !converged {
            // The loop ended right after a sweep: fold it into the totals
            // and take the verdict where the early stop takes it.
            self.vn_pass();
            converged = self.syndrome_clear();
        }
        // The lane test reads the state where it lies, so the `i32` totals
        // are materialized here, once per decode.
        self.parity_totals(k, totals);
        let blocks = self.tot2.chunks_exact(2 * lanes);
        for (wide, block) in totals[..k].chunks_exact_mut(lanes).zip(blocks) {
            for (t, &x) in wide.iter_mut().zip(block) {
                *t = x as i32;
            }
        }
        if out.bits.len() != totals.len() {
            out.bits = BitVec::zeros(totals.len());
        }
        hard_decisions_int_into(totals, &mut out.bits);
        out.iterations = iterations;
        out.converged = converged;
    }

    /// One check sweep under the rule's row kernel, picked per sweep (as
    /// `row_kernel!` picks the float rule's).
    fn check_sweep(&mut self, arithmetic: &QCheckArithmetic, kernel: &mut impl RowKernel<i16>) {
        check_sweep_tier(
            self.tier,
            self.lanes,
            self.q_rows,
            self.stride,
            self.info_d,
            self.max_mag,
            kernel,
            arithmetic,
            &self.pchan,
            &mut self.v2c,
            &mut self.c2v,
            &mut self.fwd,
            &mut self.bwd,
            &mut self.fwd_regs,
            &mut self.boundary,
            &mut self.fix_in,
            &mut self.fix_out,
        )
    }

    /// The ingress: the parity channel transposed lane-major and clamped to
    /// `±(2·max_mag + 1)`, the information channel clamped to
    /// `±info_rail` (module docs).
    fn load(&mut self, channel: &[i32]) {
        let (k, lanes, q_rows) = (self.chan16.len(), self.lanes, self.q_rows);
        let prail = 2 * i32::from(self.max_mag) + 1;
        for u in 0..lanes {
            let col = &channel[k + u * q_rows..k + (u + 1) * q_rows];
            for (r, &x) in col.iter().enumerate() {
                self.pchan[r * lanes + u] = x.clamp(-prail, prail) as i16;
            }
        }
        let rail = i32::from(self.info_rail);
        for (c, &x) in self.chan16.iter_mut().zip(channel) {
            *c = x.clamp(-rail, rail) as i16;
        }
    }

    /// Totals + saturated v2c for the information side, through the doubled
    /// blocks.
    fn vn_pass(&mut self) {
        vn_pass_rot_tier(
            self.tier,
            &self.rot,
            self.lanes,
            self.max_mag,
            &self.chan16,
            &self.c2v,
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
            &self.pchan,
            &self.fwd,
            &self.bwd,
            &mut self.syn,
        )
    }

    /// Parity-side totals from the lane-major chain state, read row-major:
    /// the wide channel's signs, from the clamped channel. The last check's
    /// backward slot is pinned zero, standing in for the scalar path's
    /// end-of-chain conditional.
    fn parity_totals(&self, k: usize, totals: &mut [i32]) {
        let (lanes, q_rows) = (self.lanes, self.q_rows);
        for r in 0..q_rows {
            for u in 0..lanes {
                let s = r * lanes + u;
                totals[k + u * q_rows + r] =
                    self.pchan[s] as i32 + self.fwd[s] as i32 + self.bwd[s] as i32;
            }
        }
    }

    /// Canonical message digest — value-for-value the stream of
    /// `fused_digest`: per check (check order) the
    /// information c2v messages in hardware input order, then the forward,
    /// then the backward chain messages.
    fn digest(&self) -> u64 {
        let (lanes, q_rows, stride, info_d) = (self.lanes, self.q_rows, self.stride, self.info_d);
        let mut h = Fnv::new();
        for c in 0..lanes * q_rows {
            let base = (c % q_rows) * stride * lanes + c / q_rows;
            for i in 0..info_d {
                h.write_i32(self.c2v[base + i * lanes] as i32);
            }
        }
        for c in 0..lanes * q_rows {
            h.write_i32(self.fwd[(c % q_rows) * lanes + c / q_rows] as i32);
        }
        for c in 0..lanes * q_rows {
            h.write_i32(self.bwd[(c % q_rows) * lanes + c / q_rows] as i32);
        }
        h.finish()
    }
}

/// The plane slot `(r·stride + i)·lanes + u` of input `i` (in `order`, or
/// graph order) of each check `c = u·q_rows + r`; parity edges `u32::MAX`.
pub(crate) fn lane_edge_slots(
    graph: &TannerGraph,
    order: Option<&[u32]>,
    lanes: usize,
    q_rows: usize,
    stride: usize,
    info_d: usize,
) -> Vec<u32> {
    let mut edge_slot = vec![u32::MAX; graph.edge_count()];
    for c in 0..lanes * q_rows {
        let (u, r) = (c / q_rows, c % q_rows);
        let start = graph.check_edges(c).start;
        for i in 0..info_d {
            let e = match order {
                Some(ord) => start + ord[c * info_d + i] as usize,
                None => start + i,
            };
            edge_slot[e] = ((r * stride + i) * lanes + u) as u32;
        }
    }
    edge_slot
}

/// The per-check input order of a hardware chain partition, under which
/// [`build_rotation`] finds every plane vector: input `i` of check
/// `c = u·q + r` is check `r`'s input `i` rotated `u` lanes within its
/// 360-block. `None` when some rotated variable is not an input of its
/// check. Every check must start with `info_d` information edges.
pub(crate) fn rotation_order(graph: &TannerGraph) -> Option<Vec<u32>> {
    const LANES: usize = PARALLELISM;
    let n_check = graph.check_count();
    let q_rows = n_check / LANES;
    if q_rows == 0 || !n_check.is_multiple_of(LANES) {
        return None;
    }
    let info_d = graph.check_edges(0).len().checked_sub(1)?;
    let inputs = |c: usize| &graph.edge_vars()[graph.check_edges(c).start..][..info_d];
    // Each variable's position among the current check's inputs, taken
    // (reset to `u32::MAX`) when matched, so no input is matched twice.
    let mut position = vec![u32::MAX; graph.var_count()];
    let mut order = Vec::with_capacity(n_check * info_d);
    for u in 0..LANES {
        for r in 0..q_rows {
            let c = u * q_rows + r;
            for (p, &v) in inputs(c).iter().enumerate() {
                position[v as usize] = p as u32;
            }
            for &v0 in inputs(r) {
                let v0 = v0 as usize;
                let v = v0 - v0 % LANES + (v0 % LANES + u) % LANES;
                let pos = std::mem::replace(&mut position[v], u32::MAX);
                if pos == u32::MAX {
                    return None;
                }
                order.push(pos);
            }
            for &v in inputs(c) {
                position[v as usize] = u32::MAX;
            }
        }
    }
    Some(order)
}

/// Detects the quasi-cyclic rotation structure of every (row, position)
/// plane vector: real hardware partitions map the 360 lanes of a position
/// onto one 360-variable block rotated by the schedule shift. Orders that
/// break the pattern (graph order, other lane counts, synthetic test
/// orders) get `None`, and their decoders the scalar fused datapath.
pub(crate) fn build_rotation(
    graph: &TannerGraph,
    edge_slot: &[u32],
    lanes: usize,
    q_rows: usize,
    stride: usize,
    info_d: usize,
) -> Option<Vec<RotEntry>> {
    let k = graph.info_len();
    let mut slot_var = vec![u32::MAX; q_rows * stride * lanes];
    for c in 0..graph.check_count() {
        let range = graph.check_edges(c);
        for e in range.start..range.start + info_d {
            slot_var[edge_slot[e] as usize] = graph.var_of_edge(e) as u32;
        }
    }
    let mut rot = Vec::with_capacity(q_rows * info_d);
    for r in 0..q_rows {
        for i in 0..info_d {
            let base = (r * stride + i) * lanes;
            let v0 = slot_var[base] as usize;
            if v0 >= k {
                return None;
            }
            let off = v0 % lanes;
            let block = v0 - off;
            if block + lanes > k {
                return None;
            }
            for u in 0..lanes {
                if slot_var[base + u] as usize != block + (u + off) % lanes {
                    return None;
                }
            }
            rot.push(RotEntry { base: base as u32, at: (2 * block + off) as u32 });
        }
    }
    // Every information variable lies in a whole block some entry covers;
    // the doubled planes are cut into blocks on the strength of it.
    assert!(k.is_multiple_of(lanes), "{k} information bits are not whole {lanes}-blocks");
    Some(rot)
}

/// Saturating add in the quantizer's lane domain (sums fit i16 for every
/// eligible `max_mag`, the clamped parity channel included).
#[inline(always)]
fn sat_add_i16(a: i16, b: i16, max_mag: i16) -> i16 {
    (a + b).clamp(-max_mag, max_mag)
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
fn combine_one<const LIVE: usize>(x: i16, y: i16, th: [i16; MAX_CORR_THRESHOLDS]) -> i16 {
    let (a, b) = (x.abs(), y.abs());
    let mag = a.min(b);
    let hi = a + b;
    let lo = hi - 2 * mag;
    let mut c = 0i16;
    for &t in &th[..LIVE] {
        c += ((lo <= t) & (t < hi)) as i16;
    }
    let m = (x ^ y) >> 15;
    ((mag - c).max(0) ^ m) - m
}

/// Rotation-structured variable-node pass over the doubled blocks, the
/// software form of the paper's shuffle network: every rotated read and
/// write is one dense `lanes`-long slice, with no seam at the wrap. While
/// the c2v messages accumulate, the two halves of a block split its sum
/// between them (an entry at offset `off` adds `lanes - off` terms to the
/// first and `off` to the second); one fold per block adds them to the
/// channel and writes the total to both halves.
#[inline(always)]
fn vn_pass_rot(
    rot: &[RotEntry],
    lanes: usize,
    max_mag: i16,
    chan16: &[i16],
    c2v: &[i16],
    v2c: &mut [i16],
    tot2: &mut [i16],
) {
    tot2.fill(0);
    for e in rot {
        let (base, at) = (e.base as usize, e.at as usize);
        for (t, &c) in tot2[at..at + lanes].iter_mut().zip(&c2v[base..base + lanes]) {
            *t += c;
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
        let (t, c) = (&tot2[at..at + lanes], &c2v[base..base + lanes]);
        for ((v, &t), &c) in v2c[base..base + lanes].iter_mut().zip(t).zip(c) {
            *v = (t - c).clamp(-max_mag, max_mag);
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
/// `pchan + fwd + bwd` ([`SimdQuant::parity_totals`]' value) and of the
/// left neighbour's — row `r - 1` lane-aligned, or at `r == 0` row
/// `q_rows - 1` shifted one lane, with nothing for check 0. By construction
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
    pchan: &[i16],
    fwd: &[i16],
    bwd: &[i16],
    syn: &mut [i16],
) -> bool {
    let parity = |s: usize| pchan[s] + fwd[s] + bwd[s];
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

/// Lane-major check sweep: per residue row, phase 1 builds the parity-chain
/// input vectors, phase 2 runs the rule's row kernel, phase 3 copies
/// the chain outputs forward/backward. Phasing whole rows is exact: within
/// a row every read targets row `r` state while every write targets row
/// `r - 1` (or, at `r == 0`, row `q_rows - 1` shifted one lane), so no
/// value is consumed in the sweep order the scalar path wouldn't produce.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn check_sweep(
    lanes: usize,
    q_rows: usize,
    stride: usize,
    info_d: usize,
    max_mag: i16,
    kernel: &mut impl RowKernel<i16>,
    arithmetic: &QCheckArithmetic,
    pchan: &[i16],
    v2c: &mut [i16],
    c2v: &mut [i16],
    fwd: &mut [i16],
    bwd: &mut [i16],
    fwd_regs: &mut [i16],
    boundary: &mut [i16],
    fix_in: &mut [i32],
    fix_out: &mut [i32],
) {
    fwd_regs.copy_from_slice(boundary);
    for r in 0..q_rows {
        let row = r * stride * lanes;
        let vl = row + info_d * lanes;
        let vr = vl + lanes;
        // Right parity inputs: uniform across all lanes (the global last
        // check's backward slot is pinned zero).
        {
            let pc = &pchan[r * lanes..(r + 1) * lanes];
            let bw = &bwd[r * lanes..(r + 1) * lanes];
            for ((o, &p), &b) in v2c[vr..vr + lanes].iter_mut().zip(pc).zip(bw) {
                *o = sat_add_i16(p, b, max_mag);
            }
        }
        // Left parity inputs: lane-aligned for r > 0, shifted one lane at
        // the sub-chain boundary row.
        if r > 0 {
            let pc = &pchan[(r - 1) * lanes..r * lanes];
            for ((o, &p), &f) in v2c[vl..vl + lanes].iter_mut().zip(pc).zip(fwd_regs.iter()) {
                *o = sat_add_i16(p, f, max_mag);
            }
        } else {
            // Check 0 (lane 0) has no left input; a zero placeholder keeps
            // the lane kernel in range and its row is rebuilt below.
            v2c[vl] = 0;
            let pc = &pchan[(q_rows - 1) * lanes..];
            for ((o, &p), &f) in
                v2c[vl + 1..vl + lanes].iter_mut().zip(&pc[..lanes - 1]).zip(fwd_regs[1..].iter())
            {
                *o = sat_add_i16(p, f, max_mag);
            }
        }
        let span = row..row + stride * lanes;
        row_update(kernel, &v2c[span.clone()], &mut c2v[span], lanes);
        if r == 0 {
            // Check 0: degree `info_d + 1` with the right parity input
            // last — recompute through the scalar arithmetic (the same
            // call the fused path makes for its short row) and store the
            // forward output at the left slot so write-back below reads
            // it uniformly. The kernel's garbage at (info_d + 1, lane 0)
            // is never read.
            let d0 = info_d + 1;
            for i in 0..info_d {
                fix_in[i] = v2c[row + i * lanes] as i32;
            }
            fix_in[info_d] = v2c[vr] as i32;
            arithmetic.extrinsic(&fix_in[..d0], &mut fix_out[..d0]);
            for i in 0..info_d {
                c2v[row + i * lanes] = fix_out[i] as i16;
            }
            c2v[vl] = fix_out[info_d] as i16;
        }
        // Write-back: backward outputs (left slot) to the previous row,
        // forward outputs (right slot) into the lane registers.
        if r > 0 {
            bwd[(r - 1) * lanes..r * lanes].copy_from_slice(&c2v[vl..vl + lanes]);
            fwd_regs.copy_from_slice(&c2v[vr..vr + lanes]);
        } else {
            bwd[(q_rows - 1) * lanes..][..lanes - 1].copy_from_slice(&c2v[vl + 1..vl + lanes]);
            fwd_regs[1..].copy_from_slice(&c2v[vr + 1..vr + lanes]);
            fwd_regs[0] = c2v[vl];
        }
        fwd[r * lanes..(r + 1) * lanes].copy_from_slice(fwd_regs);
    }
    for u in (1..lanes).rev() {
        boundary[u] = fwd_regs[u - 1];
    }
    boundary[0] = 0;
}

tier_clones!(
    vn_pass_rot_tier, vn_pass_rot, vn_pass_rot_avx2, vn_pass_rot_avx512;
    (
        rot: &[RotEntry],
        lanes: usize,
        max_mag: i16,
        chan16: &[i16],
        c2v: &[i16],
        v2c: &mut [i16],
        tot2: &mut [i16],
    )
);

tier_clones!(
    lane_syndrome_tier, lane_syndrome, lane_syndrome_avx2, lane_syndrome_avx512;
    (
        rot: &[RotEntry],
        lanes: usize,
        q_rows: usize,
        info_d: usize,
        tot2: &[i16],
        pchan: &[i16],
        fwd: &[i16],
        bwd: &[i16],
        syn: &mut [i16],
    ) -> bool
);

tier_clones!(
    check_sweep_tier, check_sweep, check_sweep_avx2, check_sweep_avx512;
    (
        lanes: usize,
        q_rows: usize,
        stride: usize,
        info_d: usize,
        max_mag: i16,
        kernel: &mut impl RowKernel<i16>,
        arithmetic: &QCheckArithmetic,
        pchan: &[i16],
        v2c: &mut [i16],
        c2v: &mut [i16],
        fwd: &mut [i16],
        bwd: &mut [i16],
        fwd_regs: &mut [i16],
        boundary: &mut [i16],
        fix_in: &mut [i32],
        fix_out: &mut [i32],
    )
);

#[cfg(test)]
mod tests {
    use super::*;
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
        let m = sq.max_mag as u64;
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
                sq.pchan[s] = draw(rng, neg, m, m) as i16;
                let negative = rng.next_bool();
                sq.fwd[s] = draw(rng, negative, 0, (m - 1) / 2) as i16;
                let negative = rng.next_bool();
                sq.bwd[s] = draw(rng, negative, 0, (m - 1) / 2) as i16;
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
            &sq.pchan,
            &sq.fwd,
            &sq.bwd,
            &mut sq.syn,
        );
        let mut totals = info.to_vec();
        totals.resize(graph.var_count(), 0);
        sq.parity_totals(k, &mut totals);
        (lane, syndrome_ok(graph, &hard_decisions_int(&totals)))
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
                let mut sq = SimdQuant::try_build(graph, &partition, &arith, tier).unwrap();
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
                        for plane in [&mut sq.pchan, &mut sq.fwd, &mut sq.bwd] {
                            plane[s] = -plane[s];
                        }
                        let flipped = both_tests(&mut sq, graph, &info);
                        assert_eq!(flipped, (false, false), "{what}: parity r={r} u={u}");
                        for plane in [&mut sq.pchan, &mut sq.fwd, &mut sq.bwd] {
                            plane[s] = -plane[s];
                        }
                    }
                    assert_eq!(both_tests(&mut sq, graph, &info), (true, true), "{what}: restored");

                    // Arbitrary totals and chain state, zeros included.
                    let m = sq.max_mag as i64;
                    let mut any =
                        |span: i64| (rng.next_u64() % (2 * span as u64 + 1)) as i64 - span;
                    for x in info.iter_mut() {
                        *x = any(3) as i32;
                    }
                    for s in 0..lanes * q_rows {
                        sq.pchan[s] = any(m) as i16;
                        sq.fwd[s] = any(2) as i16;
                        sq.bwd[s] = any(2) as i16;
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
    /// checks would catch a wrapped `i16` add, and the last block shows the
    /// information bound is tight.
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
            let mut sq = SimdQuant::try_build(&graph, &partition, &arith, tier).unwrap();
            let (lanes, q_rows) = (sq.lanes, sq.q_rows);
            assert_eq!(i32::from(sq.info_rail), rail, "{tier:?}");
            sq.load(&channel);
            for msg in [-m, m] {
                let what = format!("{tier:?} messages at {msg}");
                sq.c2v.fill(msg as i16);
                sq.fwd.fill(msg as i16);
                sq.bwd.fill(msg as i16);
                sq.vn_pass();
                for e in &sq.rot {
                    let (block, off) = e.block_and_off(lanes);
                    for u in 0..lanes {
                        let v = block + (u + off) % lanes;
                        let wide = (channel[v] + (degree(v) - 1) * msg).clamp(-m, m);
                        assert_eq!(i32::from(sq.v2c[e.base as usize + u]), wide, "{what}: v2c {v}");
                    }
                }
                let mut totals = vec![0; n];
                sq.parity_totals(k, &mut totals);
                for (v, t) in totals[..k].iter_mut().enumerate() {
                    *t = i32::from(sq.tot2[2 * (v - v % lanes) + v % lanes]);
                }
                for (v, &t) in totals.iter().enumerate() {
                    let wide = channel[v] + if v < k { degree(v) } else { 2 } * msg;
                    assert_eq!(t < 0, wide < 0, "{what}: variable {v} ({} wide)", channel[v]);
                }
                for (s, &p) in sq.pchan.iter().enumerate() {
                    let wide = channel[k + s % lanes * q_rows + s / lanes];
                    let input = sat_add_i16(p, msg as i16, m as i16);
                    assert_eq!(i32::from(input), (wide + msg).clamp(-m, m), "{what}: slot {s}");
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
            sq.vn_pass();
            assert_eq!(sq.tot2.iter().max(), Some(&i16::MAX), "{tier:?}");
        }
    }

    #[test]
    fn lane_combine_matches_scalar_combine_exhaustively() {
        for q in [Quantizer::paper_6bit(), Quantizer::paper_5bit(), Quantizer::new(6, 0.18)] {
            let bp = QBoxplus::new(q);
            let th = lane_thresholds(&bp).unwrap();
            let m = q.max_mag();
            for a in -m..=m {
                for b in -m..=m {
                    let lane = if th[3] < 0 { combine_one::<3> } else { combine_one::<4> };
                    assert_eq!(
                        lane(a as i16, b as i16, th) as i32,
                        bp.combine(a, b),
                        "bits={} a={a} b={b}",
                        q.bits()
                    );
                }
            }
        }
    }

    /// The shift min-sum lane kernel at shift 1..=3 against
    /// [`QCheckArithmetic::extrinsic`] lane by lane, rails and ties
    /// included, at every degree, lane count and tier of the kernel table.
    #[test]
    fn min_sum_lane_kernel_matches_scalar_rule() {
        use crate::engine::tests::{assert_kernel_matches, draw_quantized, widened};

        let q = Quantizer::paper_6bit();
        for shift in [1, 2, 3] {
            let arith = QCheckArithmetic::min_sum_shift(q, shift);
            assert_kernel_matches(
                &format!("min-sum >> {shift} i16"),
                |tier, v2c, c2v, lanes| {
                    row_update_tier(tier, &mut shift_min_sum_lanes(shift), v2c, c2v, lanes)
                },
                widened(|ins, outs| arith.extrinsic(ins, outs)),
                draw_quantized(q.max_mag() as i16),
            );
        }
    }

    /// The LUT rule through [`crate::LaneLut`], the entry the hardware
    /// models' functional-unit array takes, against [`QBoxplus::extrinsic`]
    /// lane by lane: one, three and four live thresholds, at every degree,
    /// lane count and tier of the kernel table.
    #[test]
    fn lut_lane_kernel_matches_scalar_extrinsic() {
        use crate::engine::tests::{assert_kernel_matches, draw_quantized, widened};
        use crate::LaneLut;

        for q in [Quantizer::paper_6bit(), Quantizer::paper_5bit(), Quantizer::new(6, 0.18)] {
            let bp = QBoxplus::new(q);
            let live = bp.corr_thresholds().unwrap().len();
            assert_kernel_matches(
                &format!("LUT i16, {} bits, {live} live thresholds", q.bits()),
                |tier, v2c, c2v, lanes| {
                    LaneLut::try_new(&bp, Some(tier)).unwrap().extrinsic(v2c, c2v, lanes)
                },
                widened(|ins, outs| bp.extrinsic(ins, outs)),
                draw_quantized(q.max_mag() as i16),
            );
        }
    }
}
