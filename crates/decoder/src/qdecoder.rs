//! Fixed-point zigzag decoder — the bit-exact golden model of the hardware
//! functional units.
//!
//! Identical schedule to [`crate::ZigzagDecoder`] but with every message a
//! saturating `bits`-wide integer and the check rule evaluated by
//! [`QBoxplus`]. The cycle-accurate core in `dvbs2-hardware` must reproduce
//! this decoder's decisions exactly; the `quantization` bench compares its
//! BER against the float reference to reproduce the paper's 6-bit ≈ 0.1 dB
//! claim.

#![allow(clippy::needless_range_loop)] // one index drives several parallel slices

use crate::qsimd::{quantize_tier, SimdQuant};
use crate::quant::{QBoxplus, QCheckArithmetic, Quantizer};
use crate::simd::SimdTier;
use crate::stopping::{hard_decisions_int_into, syndrome_ok};
use crate::{DecodeResult, Decoder, DecoderConfig};
use dvbs2_ldpc::{BitVec, TannerGraph};
use std::sync::Arc;

/// Hardware chain partitioning for [`QuantizedZigzagDecoder`]: cuts the
/// degree-2 parity chain into `lanes` parallel sub-chains with exactly the
/// boundary semantics of the hardware functional-unit array (forward
/// boundary one iteration staler, backward boundary one iteration fresher),
/// and optionally replays the hardware's per-check message input ordering.
///
/// With `lanes = 360` and an edge order derived from the core's connectivity
/// ROM and check-node schedule (`dvbs2_hardware::hw_chain_partition`), the
/// sequential software decoder becomes **bit-exact** against the hardware
/// `GoldenModel` — decoded words, iteration counts and convergence flags —
/// because the order-dependent quantized boxplus then sees identical
/// operands in identical order at every check. With `lanes = 1` and no edge
/// order it is the plain sequential zigzag — the partition
/// [`QuantizedZigzagDecoder::new`] runs.
#[derive(Debug, Clone)]
pub struct ChainPartition {
    lanes: usize,
    /// Flat check-major permutation: entry `c * d + i` is the position
    /// (within check `c`'s information edges, graph order) of the `i`-th
    /// message the hardware feeds its boxplus for that check. `None` keeps
    /// the graph's own (ascending variable index) order.
    edge_order: Option<Arc<[u32]>>,
}

impl ChainPartition {
    /// Creates a partition of `lanes` sub-chains with an optional per-check
    /// boxplus input ordering (see the type docs for the layout).
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub fn new(lanes: usize, edge_order: Option<Vec<u32>>) -> Self {
        assert!(lanes > 0, "a partition needs at least one sub-chain");
        ChainPartition { lanes, edge_order: edge_order.map(Arc::from) }
    }

    /// Number of parallel sub-chains.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The flat per-check input ordering, if one was supplied.
    pub fn edge_order(&self) -> Option<&[u32]> {
        self.edge_order.as_deref()
    }
}

/// Construction-time fusion of a [`ChainPartition`] into dedicated message
/// planes: the per-check schedule permutation is baked into the plane
/// *layout* so the check sweep and both variable-node passes run with zero
/// extra indirection in their inner loops. Every scalar decode runs on this
/// plan; the sequential zigzag is its 1-lane, graph-order instance.
///
/// Layout: check `c` (lane `u = c / q_rows`, residue row `r = c % q_rows`)
/// owns the fixed-stride plane row `r · lanes + u` — the rows are laid out
/// in **sweep traversal order**, so the residue-major check sweep walks the
/// planes strictly linearly. Within a row, positions `0..info_d` hold the
/// check's information inputs already in hardware-schedule order (the
/// permutation is applied once here, at build time), and the last two
/// positions are written in place with the left/right parity-chain inputs
/// each sweep. The variable-node side gathers and scatters through
/// [`var_slots`](Self::var_slots), the per-variable list of absolute plane
/// indices, computed once from the same permutation.
#[derive(Debug, Clone)]
struct FusedPlan {
    lanes: usize,
    q_rows: usize,
    /// Plane row stride: `info_d + 2` (check 0 uses one slot fewer).
    stride: usize,
    /// Uniform per-check information degree.
    info_d: usize,
    /// For every information edge, in variable-major order (`v` ascending,
    /// then that variable's edges in graph order): its absolute index into
    /// the fused planes.
    var_slots: Vec<u32>,
}

impl FusedPlan {
    /// Bakes `partition`'s edge order (identity if `None`) into the fused
    /// layout for `graph`. The constructor has validated both.
    fn build(graph: &TannerGraph, partition: &ChainPartition) -> FusedPlan {
        let n_check = graph.check_count();
        let k = graph.info_len();
        let lanes = partition.lanes();
        let q_rows = n_check / lanes;
        let info_d = graph.check_edges(0).len() - 1;
        let stride = info_d + 2;
        let order = partition.edge_order();
        // Invert the per-check permutation into an edge -> plane-slot map,
        // then flatten it variable-major for the VN-side passes. Information
        // edges are the first `info_d` of each check's range (edges are
        // sorted by variable index and information variables come first).
        let mut edge_slot = vec![u32::MAX; graph.edge_count()];
        for c in 0..n_check {
            let start = graph.check_edges(c).start;
            let base = ((c % q_rows) * lanes + c / q_rows) * stride;
            for i in 0..info_d {
                let e = match order {
                    Some(ord) => start + ord[c * info_d + i] as usize,
                    None => start + i,
                };
                edge_slot[e] = (base + i) as u32;
            }
        }
        let mut var_slots = Vec::with_capacity(n_check * info_d);
        for v in 0..k {
            for &e in graph.var_edges(v) {
                let slot = edge_slot[e as usize];
                debug_assert_ne!(slot, u32::MAX, "information edge missing from fused layout");
                var_slots.push(slot);
            }
        }
        FusedPlan { lanes, q_rows, stride, info_d, var_slots }
    }
}

/// The scalar fused sweep's plan, `i32` message planes and early-stop
/// scratch.
#[derive(Debug, Clone)]
struct FusedState {
    plan: FusedPlan,
    /// Fused-plane messages (see [`FusedPlan`]).
    v2c: Vec<i32>,
    c2v: Vec<i32>,
    backward: Vec<i32>,
    forward: Vec<i32>,
    /// Per-lane forward registers of the check sweep.
    fwd_regs: Vec<i32>,
    /// Chain-boundary forward values from the previous iteration (the
    /// functional units' boundary state).
    boundary: Vec<i32>,
    /// A-posteriori totals, every variable.
    totals: Vec<i32>,
    /// Hard decisions of the early-stop syndrome test.
    decisions: BitVec,
}

impl FusedState {
    fn new(graph: &TannerGraph, partition: &ChainPartition) -> FusedState {
        let plan = FusedPlan::build(graph, partition);
        let plane = plan.lanes * plan.q_rows * plan.stride;
        let n_check = graph.check_count();
        FusedState {
            v2c: vec![0; plane],
            c2v: vec![0; plane],
            backward: vec![0; n_check],
            forward: vec![0; n_check],
            fwd_regs: vec![0; plan.lanes],
            boundary: vec![0; plan.lanes],
            totals: vec![0; graph.var_count()],
            decisions: BitVec::zeros(graph.var_count()),
            plan,
        }
    }
}

/// The one datapath a [`QuantizedZigzagDecoder`] decodes on, chosen at
/// construction.
#[derive(Debug, Clone)]
enum Datapath {
    /// Sub-chain-major SIMD lane planes over the code's rotations.
    Lanes(Box<SimdQuant>),
    /// The scalar fused sweep.
    Fused(Box<FusedState>),
}

/// Quantized zigzag-schedule decoder.
///
/// One scalar datapath — the fused sweep over a [`ChainPartition`] — plus
/// its configuration: [`new`](Self::new) / [`with_arithmetic`](Self::with_arithmetic)
/// run it with one lane in graph order (the sequential zigzag of the paper's
/// Fig. 2b), [`with_partition_fused`](Self::with_partition_fused) with the
/// caller's cut, and [`with_partition`](Self::with_partition) runs the same
/// cut on the SIMD lane planes when they can express it.
/// [`natural_lanes`](Self::natural_lanes) runs the natural schedule's cut
/// on the lanes straight from the graph's quasi-cyclic record: the served
/// decoder. Either way a decoder holds exactly one datapath.
///
/// # Chain-boundary semantics vs the hardware `GoldenModel`
///
/// With one lane the parity chain is **one** sequential zigzag over all
/// `N − K` checks: the forward input of check `c` is check `c − 1`'s output
/// from the *same* iteration, for every `c > 0`, and the backward messages
/// come from the previous iteration. The hardware golden model
/// (`dvbs2_hardware::GoldenModel`) instead runs **360 parallel sub-chains**
/// (one per functional unit), which changes the message freshness at the
/// `q = (N − K) / 360` sub-chain boundaries in two ways:
///
/// * the forward message *entering* a sub-chain's first check comes from the
///   **previous iteration** (one lane would use the same iteration's value
///   from the preceding chain segment);
/// * the backward boundary message is written while processing row `0` but
///   read at row `q − 1` of the same sweep, making it **one iteration
///   fresher** than the one-lane, strictly previous-iteration backward
///   update.
///
/// All non-boundary messages — `359/360` of the chain — are computed
/// identically, so with one lane the two models agree on decoded words and
/// differ only in rare per-frame iteration counts near threshold, and the
/// differential oracle holds that pair to a decoded-word agreement
/// contract. In **hardware-partitioned mode**
/// ([`QuantizedZigzagDecoder::with_partition`] with a [`ChainPartition`]
/// built by `dvbs2_hardware::hw_chain_partition`) this decoder reproduces
/// the hardware boundary semantics *and* the schedule's per-check input
/// ordering, and the oracle tightens the contract to full bit-exactness
/// against `GoldenModel` (the cycle-accurate `HardwareDecoder` is always
/// held bit-exact to `GoldenModel`). See `DESIGN.md` ("Chain-boundary
/// semantics") for the derivation.
#[derive(Debug, Clone)]
pub struct QuantizedZigzagDecoder {
    graph: Arc<TannerGraph>,
    arithmetic: QCheckArithmetic,
    max_iterations: usize,
    early_stop: bool,
    datapath: Datapath,
    /// Reused quantized-channel buffer for the float [`Decoder`] entry.
    qchannel: Vec<i32>,
}

impl QuantizedZigzagDecoder {
    /// Creates a decoder with the given quantizer (see
    /// [`Quantizer::paper_6bit`]) and iteration policy: the sequential
    /// zigzag, i.e. the fused sweep with one lane in graph order.
    ///
    /// # Panics
    ///
    /// Panics if the graph lacks the IRA parity chain (see
    /// [`TannerGraph::for_code`]), or if its checks do not all have the
    /// same information degree (every DVB-S2 code's do).
    pub fn new(graph: Arc<TannerGraph>, quantizer: Quantizer, config: DecoderConfig) -> Self {
        Self::with_arithmetic(graph, QCheckArithmetic::lut(quantizer), config)
    }

    /// Creates a decoder with an explicit check-node arithmetic — the
    /// LUT-free [`QCheckArithmetic::min_sum_shift`] trades ~0.1–0.2 dB for
    /// a smaller functional unit.
    ///
    /// # Panics
    ///
    /// Same as [`QuantizedZigzagDecoder::new`].
    pub fn with_arithmetic(
        graph: Arc<TannerGraph>,
        arithmetic: QCheckArithmetic,
        config: DecoderConfig,
    ) -> Self {
        Self::build(graph, arithmetic, config, ChainPartition::new(1, None), None)
    }

    /// Creates a decoder that runs the check sweep in **hardware-partitioned
    /// mode**: `partition.lanes()` parallel sub-chains with the functional
    /// units' boundary freshness semantics, optionally replaying the
    /// hardware's per-check boxplus input ordering. With the LUT arithmetic
    /// and a partition from `dvbs2_hardware::hw_chain_partition`, decode
    /// results are bit-exact against the hardware `GoldenModel`.
    ///
    /// This is the hot path: the sub-chains are mapped onto SIMD lanes
    /// (sub-chain-major SoA `i8` message planes, the software image of the
    /// paper's M = 360 functional-unit array and its 6-bit message word) with
    /// scalar/AVX2/AVX-512 clones dispatched per `config.simd` /
    /// `DVBS2_SIMD` — see [`simd_tier`](Self::simd_tier). The lanes need the
    /// partition's edge order to carry the code's 360-lane rotations (as
    /// `hw_chain_partition`'s does) and an arithmetic `i8` lanes express
    /// exactly (5 and 6 bits on every DVB-S2 code; 7 bits and more take the
    /// scalar sweep). They then take
    /// every [`decode_quantized`](Self::decode_quantized) channel, any `i32`
    /// value, bit-identical to the scalar fused sweep of
    /// [`with_partition_fused`](Self::with_partition_fused). Any other cut
    /// or arithmetic builds that scalar sweep instead, here, once.
    ///
    /// # Panics
    ///
    /// Same as [`with_partition_fused`](Self::with_partition_fused), or if
    /// `config.simd` forces a tier this CPU does not support.
    pub fn with_partition(
        graph: Arc<TannerGraph>,
        arithmetic: QCheckArithmetic,
        config: DecoderConfig,
        partition: ChainPartition,
    ) -> Self {
        let tier = SimdTier::resolve(config.simd);
        Self::build(graph, arithmetic, config, partition, Some(tier))
    }

    /// [`with_partition`](Self::with_partition) pinned to the **scalar
    /// fused** sweep — no SIMD lane plan is built, every decode runs the
    /// permutation-baked `FusedPlan` path. This is the differential
    /// reference the lane kernels are held bit-exact against, and the
    /// benchmark baseline `speedup_quantized_simd_vs_fused` is measured
    /// from.
    ///
    /// # Panics
    ///
    /// Panics if the graph is not an IRA graph, if `n_check` is not
    /// divisible by `partition.lanes()`, if the partition's edge order is
    /// not a per-check permutation of the graph's information edges, or if
    /// the checks do not all have the same information degree
    /// (`config.simd` is ignored).
    pub fn with_partition_fused(
        graph: Arc<TannerGraph>,
        arithmetic: QCheckArithmetic,
        config: DecoderConfig,
        partition: ChainPartition,
    ) -> Self {
        Self::build(graph, arithmetic, config, partition, None)
    }

    /// The one constructor body: validates the partition and bakes it into
    /// the SIMD lane planes when `simd` names a tier and the lanes can
    /// express it, into the scalar fused planes otherwise.
    fn build(
        graph: Arc<TannerGraph>,
        arithmetic: QCheckArithmetic,
        config: DecoderConfig,
        cut: ChainPartition,
        simd: Option<SimdTier>,
    ) -> Self {
        let n_check = graph.check_count();
        assert!(
            graph.info_len() < graph.var_count() && graph.var_count() - graph.info_len() == n_check,
            "quantized zigzag decoder needs an IRA graph from TannerGraph::for_code"
        );
        let info_d = graph.check_edges(0).len() - 1;
        for c in 1..n_check {
            assert_eq!(
                graph.check_edges(c).len() - 2,
                info_d,
                "check {c}: non-uniform information degree; fused layout needs uniform rows"
            );
        }
        let lanes = cut.lanes();
        assert!(
            n_check.is_multiple_of(lanes),
            "{n_check} checks cannot be cut into {lanes} equal sub-chains"
        );
        if let Some(order) = cut.edge_order() {
            // Every check contributes exactly `check_degree - 2` information
            // edges in an IRA graph (check 0 has one fewer *parity* edge,
            // not fewer information edges).
            assert_eq!(
                order.len(),
                n_check * info_d,
                "edge order must cover every check's information edges"
            );
            let mut seen = vec![false; info_d];
            for c in 0..n_check {
                seen.fill(false);
                for &pos in &order[c * info_d..(c + 1) * info_d] {
                    let pos = pos as usize;
                    assert!(
                        pos < info_d && !seen[pos],
                        "check {c}: edge order is not a permutation"
                    );
                    seen[pos] = true;
                }
            }
        }
        let lanes =
            simd.and_then(|tier| SimdQuant::try_build(&graph, Some(&cut), &arithmetic, tier));
        let datapath = match lanes {
            Some(lanes) => Datapath::Lanes(Box::new(lanes)),
            None => Datapath::Fused(Box::new(FusedState::new(&graph, &cut))),
        };
        Self::assemble(graph, arithmetic, config, datapath)
    }

    /// The served datapath: the natural check-node schedule on the SIMD
    /// lanes, read from the graph's quasi-cyclic record — 360 sub-chains,
    /// each check's inputs in address-table order, one lane column per 360
    /// edges. It decodes bit for bit as
    /// [`with_partition`](Self::with_partition) under
    /// `dvbs2_hardware::hw_chain_partition` with the natural schedule, and
    /// so as the hardware `GoldenModel`, but builds without walking the
    /// graph: it allocates the decoder's scratch and reads a few hundred
    /// columns.
    ///
    /// `None` when the lanes cannot run it: a graph without the record
    /// (see [`TannerGraph::quasi_cyclic`]), or an arithmetic outside the
    /// `i8` word (7 bits and more). The scalar fused sweep needs that
    /// partition's explicit edge order; the caller builds it then.
    ///
    /// # Panics
    ///
    /// Panics if `config.simd` forces a tier this CPU does not support.
    pub fn natural_lanes(
        graph: Arc<TannerGraph>,
        arithmetic: QCheckArithmetic,
        config: DecoderConfig,
    ) -> Option<Self> {
        let tier = SimdTier::resolve(config.simd);
        graph.quasi_cyclic()?;
        let lanes = SimdQuant::try_build(&graph, None, &arithmetic, tier)?;
        Some(Self::assemble(graph, arithmetic, config, Datapath::Lanes(Box::new(lanes))))
    }

    fn assemble(
        graph: Arc<TannerGraph>,
        arithmetic: QCheckArithmetic,
        config: DecoderConfig,
        datapath: Datapath,
    ) -> Self {
        QuantizedZigzagDecoder {
            arithmetic,
            max_iterations: config.max_iterations,
            early_stop: config.early_stop,
            datapath,
            qchannel: Vec::new(),
            graph,
        }
    }

    /// The SIMD dispatch tier the lane-parallel check sweep runs, or
    /// `None` when decodes take the scalar fused sweep (sequential mode,
    /// [`with_partition_fused`](Self::with_partition_fused), or a
    /// partition/arithmetic the lanes cannot express exactly).
    pub fn simd_tier(&self) -> Option<SimdTier> {
        match &self.datapath {
            Datapath::Lanes(lanes) => Some(lanes.tier()),
            Datapath::Fused(_) => None,
        }
    }

    /// Bytes of one decoder's message state: the `v2c` and `c2v` planes
    /// and the parity chain (channel, forward and backward messages,
    /// registers, boundaries) — `i8` words on the lanes, `i32` on the fused
    /// sweep.
    pub fn message_bytes(&self) -> usize {
        match &self.datapath {
            Datapath::Lanes(lanes) => lanes.message_bytes(),
            Datapath::Fused(f) => {
                let words = f.v2c.len() + f.c2v.len() + f.backward.len() + f.forward.len();
                let chain = f.fwd_regs.len() + f.boundary.len();
                (words + chain) * size_of::<i32>()
            }
        }
    }

    /// The message quantizer in use.
    pub fn quantizer(&self) -> &Quantizer {
        self.arithmetic.quantizer()
    }

    /// Decodes pre-quantized channel LLRs. This is the entry point the
    /// hardware model is verified against.
    ///
    /// # Panics
    ///
    /// Panics if `channel.len() != graph.var_count()`.
    pub fn decode_quantized(&mut self, channel: &[i32]) -> DecodeResult {
        let mut out = DecodeResult::default();
        self.decode_quantized_into(channel, &mut out);
        out
    }

    /// Decodes pre-quantized channel LLRs into a caller-owned result,
    /// reusing its buffers (no allocation once `out.bits` has the codeword
    /// length).
    ///
    /// # Panics
    ///
    /// Panics if `channel.len() != graph.var_count()`.
    pub fn decode_quantized_into(&mut self, channel: &[i32], out: &mut DecodeResult) {
        self.run(channel, out, None);
    }

    /// [`decode_quantized`](Self::decode_quantized) that additionally pushes
    /// one FNV-1a digest of the message state (information-edge c2v messages
    /// in hardware input order, then the forward and backward chain
    /// messages) per completed check sweep. The digest is computed over
    /// canonical (layout-independent) message order, so the scalar fused
    /// sweep and the SIMD lane planes over the same partition produce
    /// identical digest sequences — the per-iteration half of their
    /// equivalence property.
    ///
    /// # Panics
    ///
    /// Panics if `channel.len() != graph.var_count()`.
    pub fn decode_quantized_traced(
        &mut self,
        channel: &[i32],
        digests: &mut Vec<u64>,
    ) -> DecodeResult {
        digests.clear();
        let mut out = DecodeResult::default();
        self.run(channel, &mut out, Some(digests));
        out
    }

    /// Quantizes float channel LLRs.
    ///
    /// Non-finite inputs degrade gracefully through the quantizer's
    /// saturation: `±inf` pins to the extreme level and `NaN` maps to `0`
    /// (an erasure), matching the float decoders' sanitization policy.
    pub fn quantize_channel(&self, channel_llrs: &[f64]) -> Vec<i32> {
        let mut channel = vec![0; channel_llrs.len()];
        self.arithmetic.quantizer().quantize_into(channel_llrs, &mut channel);
        channel
    }

    /// One decode on the decoder's datapath.
    fn run(&mut self, channel: &[i32], out: &mut DecodeResult, trace: Option<&mut Vec<u64>>) {
        assert_eq!(channel.len(), self.graph.var_count(), "LLR length mismatch");
        let (cap, early_stop) = (self.max_iterations, self.early_stop);
        match &mut self.datapath {
            Datapath::Lanes(lanes) => lanes.decode_into(cap, early_stop, channel, out, trace),
            Datapath::Fused(fused) => fused.decode_into(
                &self.graph,
                &self.arithmetic,
                cap,
                early_stop,
                channel,
                out,
                trace,
            ),
        }
    }
}

impl FusedState {
    /// The scalar decode, structured around the permutation-baked
    /// [`FusedPlan`] layout:
    ///
    /// * the check sweep walks the planes strictly linearly (rows are in
    ///   traversal order) and runs the boxplus kernel in place on each row —
    ///   no order LUT, no scratch copies;
    /// * the totals gather of iteration `t` and the variable-node pass of
    ///   iteration `t + 1` read the same messages, so they are fused into a
    ///   single pass at the top of the loop (integer addition is
    ///   order-independent, so every value is identical to the two-pass
    ///   formulation; parity totals are only materialized when the
    ///   early-stop test or the final decision needs them).
    #[allow(clippy::too_many_arguments)]
    fn decode_into(
        &mut self,
        graph: &TannerGraph,
        arithmetic: &QCheckArithmetic,
        max_iterations: usize,
        early_stop: bool,
        channel: &[i32],
        out: &mut DecodeResult,
        mut trace: Option<&mut Vec<u64>>,
    ) {
        let FusedState { plan, v2c, c2v, backward, forward, fwd_regs, boundary, totals, decisions } =
            self;
        let plan = &*plan;
        let k = graph.info_len();
        let n_check = graph.check_count();
        let q = *arithmetic.quantizer();
        let (lanes, q_rows, stride, info_d) = (plan.lanes, plan.q_rows, plan.stride, plan.info_d);

        c2v.fill(0);
        // Both chain directions start empty, so an iteration cap of 0 folds
        // nothing but the channel into the parity totals below.
        forward.fill(0);
        backward.fill(0);
        boundary.fill(0);
        let mut iterations = 0;
        let mut converged = false;

        for it in 0..max_iterations {
            // Fused totals + variable-node pass: one walk over `var_slots`
            // computes iteration `it - 1`'s totals and iteration `it`'s
            // saturated v2c messages (Eq. 4). On entry (`it == 0`) the c2v
            // plane is all zero, so this degenerates to `totals = channel`.
            let mut pos = 0usize;
            for v in 0..k {
                let n_e = graph.var_edges(v).len();
                let slots = &plan.var_slots[pos..pos + n_e];
                let mut sum = 0i32;
                for &s in slots {
                    sum += c2v[s as usize];
                }
                let total = channel[v] + sum;
                totals[v] = total;
                for &s in slots {
                    let s = s as usize;
                    v2c[s] = q.saturate(total - c2v[s]);
                }
                pos += n_e;
            }
            if early_stop && it > 0 {
                for j in 0..n_check {
                    totals[k + j] =
                        channel[k + j] + forward[j] + if j + 1 < n_check { backward[j] } else { 0 };
                }
                hard_decisions_int_into(totals, decisions);
                if syndrome_ok(graph, decisions) {
                    converged = true;
                    break;
                }
            }
            iterations += 1;

            // Check sweep: residue-major over the traversal-ordered rows,
            // so the plane walk is strictly linear. Lane `u` owns checks
            // `u*q_rows..(u+1)*q_rows`; its forward register is seeded from
            // the previous iteration's boundary state, and row-0 backward
            // writes are consumed at row `q_rows - 1` of the same sweep.
            //
            // All `lanes` checks of one residue row are mutually
            // independent (forward registers are lane-local; every
            // `backward` value read at row `r` was written at a different
            // residue row), so the sweep runs them in blocks of
            // [`FUSED_ROW_BLOCK`] adjacent rows: block-phased
            // reads-then-writes preserve the sequential sweep's
            // read-before-write order exactly, and the interleaved LUT
            // kernel below turns one serial boxplus chain per check into
            // `blk` chains advancing in lockstep — the chain's lookup
            // latency is the sweep's bottleneck, not arithmetic throughput.
            fwd_regs.copy_from_slice(&*boundary);
            for r in 0..q_rows {
                let mut u0 = 0usize;
                while u0 < lanes {
                    let blk = FUSED_ROW_BLOCK.min(lanes - u0);
                    let base = (r * lanes + u0) * stride;
                    // Left/right parity-chain inputs, written in place
                    // after the pre-permuted information inputs.
                    for x in 0..blk {
                        let u = u0 + x;
                        let c = u * q_rows + r;
                        let row = base + x * stride;
                        if c > 0 {
                            v2c[row + info_d] = q.sat_add(channel[k + c - 1], fwd_regs[u]);
                            v2c[row + info_d + 1] = q.sat_add(
                                channel[k + c],
                                if c + 1 < n_check { backward[c] } else { 0 },
                            );
                        } else {
                            v2c[row + info_d] = q.sat_add(channel[k], backward[0]);
                        }
                    }
                    // Check 0's short row (no left parity input) keeps the
                    // scalar path; every other LUT block runs interleaved.
                    let interleaved = match arithmetic {
                        QCheckArithmetic::Lut(bp) if !(r == 0 && u0 == 0) => {
                            lut_extrinsic_rows(bp, &*v2c, &mut *c2v, base, stride, info_d + 2, blk);
                            true
                        }
                        _ => false,
                    };
                    if !interleaved {
                        for x in 0..blk {
                            let c = (u0 + x) * q_rows + r;
                            let row = base + x * stride;
                            let d = if c > 0 { info_d + 2 } else { info_d + 1 };
                            arithmetic.extrinsic(&v2c[row..row + d], &mut c2v[row..row + d]);
                        }
                    }
                    for x in 0..blk {
                        let u = u0 + x;
                        let c = u * q_rows + r;
                        let row = base + x * stride;
                        if c > 0 {
                            backward[c - 1] = c2v[row + info_d];
                            fwd_regs[u] = c2v[row + info_d + 1];
                        } else {
                            fwd_regs[u] = c2v[row + info_d];
                        }
                        forward[c] = fwd_regs[u];
                    }
                    u0 += blk;
                }
            }
            for u in (1..lanes).rev() {
                boundary[u] = fwd_regs[u - 1];
            }
            boundary[0] = 0;
            if let Some(digests) = trace.as_deref_mut() {
                digests.push(fused_digest(plan, &*c2v, &*forward, &*backward));
            }
        }

        if !converged {
            // The loop ended right after a sweep: fold it into the totals.
            let mut pos = 0usize;
            for v in 0..k {
                let n_e = graph.var_edges(v).len();
                let mut sum = 0i32;
                for &s in &plan.var_slots[pos..pos + n_e] {
                    sum += c2v[s as usize];
                }
                totals[v] = channel[v] + sum;
                pos += n_e;
            }
            for j in 0..n_check {
                totals[k + j] =
                    channel[k + j] + forward[j] + if j + 1 < n_check { backward[j] } else { 0 };
            }
        }
        if out.bits.len() != totals.len() {
            out.bits = BitVec::zeros(totals.len());
        }
        hard_decisions_int_into(totals, &mut out.bits);
        if !converged {
            converged = syndrome_ok(graph, &out.bits);
        }
        out.iterations = iterations;
        out.converged = converged;
    }
}

/// Rows per interleaved block of the fused check sweep: enough independent
/// boxplus chains to cover the LUT combine's load-to-use latency, few
/// enough that the block's prefix state and plane rows stay register- and
/// L1-resident.
const FUSED_ROW_BLOCK: usize = 8;

/// [`QBoxplus::extrinsic`] over `rows <= FUSED_ROW_BLOCK` consecutive
/// fused-plane rows of uniform degree `d`, advancing every row's
/// prefix/suffix recurrence in lockstep. Per row the operation sequence is
/// exactly the scalar kernel's (same combines, same order, suffix stored in
/// the out plane), so the outputs are bit-identical — only the *scheduling*
/// across independent rows changes.
#[inline]
fn lut_extrinsic_rows(
    bp: &QBoxplus,
    v2c: &[i32],
    c2v: &mut [i32],
    base: usize,
    stride: usize,
    d: usize,
    rows: usize,
) {
    debug_assert!((1..=FUSED_ROW_BLOCK).contains(&rows) && d >= 3);
    // Suffix sweep into the out plane (a row's position-0 suffix is never
    // read, so it is never computed).
    for x in 0..rows {
        let rb = base + x * stride;
        c2v[rb + d - 1] = v2c[rb + d - 1];
    }
    for i in (1..d - 1).rev() {
        for x in 0..rows {
            let rb = base + x * stride;
            c2v[rb + i] = bp.combine(v2c[rb + i], c2v[rb + i + 1]);
        }
    }
    let mut prefix = [0i32; FUSED_ROW_BLOCK];
    for x in 0..rows {
        let rb = base + x * stride;
        prefix[x] = v2c[rb];
        c2v[rb] = c2v[rb + 1];
    }
    for i in 1..d - 1 {
        for x in 0..rows {
            let rb = base + x * stride;
            let out = bp.combine(prefix[x], c2v[rb + i + 1]);
            prefix[x] = bp.combine(prefix[x], v2c[rb + i]);
            c2v[rb + i] = out;
        }
    }
    for x in 0..rows {
        c2v[base + x * stride + d - 1] = prefix[x];
    }
}

/// Canonical message digest of a fused-plane decode state: per check (in
/// check order), the information c2v messages in hardware input order, then
/// the forward and backward chain messages. Layout-independent — the SIMD
/// lane planes' digest matches it value for value.
fn fused_digest(plan: &FusedPlan, c2v: &[i32], forward: &[i32], backward: &[i32]) -> u64 {
    let mut h = Fnv::new();
    for c in 0..plan.lanes * plan.q_rows {
        let row = ((c % plan.q_rows) * plan.lanes + c / plan.q_rows) * plan.stride;
        for &x in &c2v[row..row + plan.info_d] {
            h.write_i32(x);
        }
    }
    for &x in forward {
        h.write_i32(x);
    }
    for &x in backward {
        h.write_i32(x);
    }
    h.finish()
}

/// Minimal FNV-1a 64-bit hasher for the per-iteration message digests
/// (shared with the SIMD lane path in `qsimd`, whose digests must match
/// this module's value for value).
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    #[inline]
    pub(crate) fn write_i32(&mut self, x: i32) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

impl Decoder for QuantizedZigzagDecoder {
    fn decode(&mut self, channel_llrs: &[f64]) -> DecodeResult {
        let mut out = DecodeResult::default();
        self.decode_into(channel_llrs, &mut out);
        out
    }

    fn decode_into(&mut self, channel_llrs: &[f64], out: &mut DecodeResult) {
        let q = *self.arithmetic.quantizer();
        // The buffer is moved out so `decode_quantized_into(&mut self, ..)`
        // can run while reading it, then moved back for reuse.
        let mut qchannel = std::mem::take(&mut self.qchannel);
        qchannel.resize(channel_llrs.len(), 0);
        let tier = self.simd_tier().unwrap_or(SimdTier::Scalar);
        quantize_tier(tier, &q, channel_llrs, &mut qchannel);
        self.decode_quantized_into(&qchannel, out);
        self.qchannel = qchannel;
    }

    fn set_max_iterations(&mut self, max_iterations: usize) {
        self.max_iterations = max_iterations;
    }

    fn name(&self) -> &'static str {
        "quantized zigzag"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{noisy_llrs, small_code};

    fn decoder(bits: u32) -> (dvbs2_ldpc::DvbS2Code, QuantizedZigzagDecoder) {
        let (code, graph) = small_code();
        let dec = QuantizedZigzagDecoder::new(
            Arc::new(graph),
            Quantizer::new(bits, 0.5),
            DecoderConfig::default(),
        );
        (code, dec)
    }

    #[test]
    fn corrects_noisy_frame_with_6_bits() {
        let (code, mut dec) = decoder(6);
        let (cw, llrs) = noisy_llrs(&code, 3.2, 21);
        let out = dec.decode(&llrs);
        assert!(out.converged);
        assert_eq!(out.bits, cw);
    }

    #[test]
    fn corrects_noisy_frame_with_5_bits_at_higher_snr() {
        let (code, mut dec) = decoder(5);
        let (cw, llrs) = noisy_llrs(&code, 4.0, 22);
        let out = dec.decode(&llrs);
        assert_eq!(out.bits, cw);
    }

    #[test]
    fn decode_is_deterministic() {
        let (code, mut dec) = decoder(6);
        let (_, llrs) = noisy_llrs(&code, 2.6, 23);
        let a = dec.decode(&llrs);
        let b = dec.decode(&llrs);
        assert_eq!(a.bits, b.bits);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn quantized_channel_is_saturated() {
        let (_, dec) = decoder(6);
        let q = dec.quantize_channel(&[1000.0, -1000.0, 0.2]);
        assert_eq!(q, vec![31, -31, 0]);
    }

    #[test]
    fn min_sum_arithmetic_also_decodes() {
        use crate::quant::QCheckArithmetic;
        let (code, graph) = small_code();
        let mut dec = QuantizedZigzagDecoder::with_arithmetic(
            Arc::new(graph),
            QCheckArithmetic::min_sum_shift(Quantizer::paper_6bit(), 2),
            DecoderConfig::default(),
        );
        let (cw, llrs) = noisy_llrs(&code, 3.4, 61);
        let out = dec.decode(&llrs);
        assert!(out.converged);
        assert_eq!(out.bits, cw);
    }

    #[test]
    fn lut_arithmetic_beats_min_sum_near_threshold() {
        use crate::quant::QCheckArithmetic;
        let (code, graph) = small_code();
        let graph = Arc::new(graph);
        let q = Quantizer::paper_6bit();
        let mut lut = QuantizedZigzagDecoder::new(Arc::clone(&graph), q, DecoderConfig::default());
        let mut msd = QuantizedZigzagDecoder::with_arithmetic(
            Arc::clone(&graph),
            QCheckArithmetic::min_sum_shift(q, 2),
            DecoderConfig::default(),
        );
        let mut lut_iters = 0usize;
        let mut ms_iters = 0usize;
        for seed in 0..4 {
            let (_, llrs) = noisy_llrs(&code, 1.6, 7000 + seed);
            lut_iters += lut.decode(&llrs).iterations;
            ms_iters += msd.decode(&llrs).iterations;
        }
        // The exact rule converges at least as fast in aggregate.
        assert!(lut_iters <= ms_iters, "lut {lut_iters} vs min-sum {ms_iters}");
    }

    #[test]
    fn single_lane_partition_matches_sequential() {
        // `new` *is* the one-lane, graph-order partition; asking for it by
        // name (here on the SIMD lanes, whose one-lane cut is trivially a
        // rotation) changes nothing.
        let (code, graph) = small_code();
        let graph = Arc::new(graph);
        let q = Quantizer::paper_6bit();
        let mut seq = QuantizedZigzagDecoder::new(Arc::clone(&graph), q, DecoderConfig::default());
        let mut part = QuantizedZigzagDecoder::with_partition(
            Arc::clone(&graph),
            QCheckArithmetic::lut(q),
            DecoderConfig::default(),
            ChainPartition::new(1, None),
        );
        assert_eq!(seq.simd_tier(), None);
        assert!(part.simd_tier().is_some());
        for seed in 0..3u64 {
            let (_, llrs) = noisy_llrs(&code, 2.4, 4000 + seed);
            let a = seq.decode(&llrs);
            let b = part.decode(&llrs);
            assert_eq!(a.bits, b.bits, "seed {seed}: decoded words differ");
            assert_eq!(a.iterations, b.iterations, "seed {seed}: iteration counts differ");
            assert_eq!(a.converged, b.converged, "seed {seed}: convergence flags differ");
        }
    }

    #[test]
    fn partitioned_mode_decodes_with_360_lanes() {
        // Without an edge order the 360-lane sweep is not bit-exact to the
        // sequential decoder, but it is still a valid decoder: it must
        // correct a comfortably-above-threshold frame.
        let (code, graph) = small_code();
        let mut dec = QuantizedZigzagDecoder::with_partition(
            Arc::new(graph),
            QCheckArithmetic::lut(Quantizer::paper_6bit()),
            DecoderConfig::default(),
            ChainPartition::new(360, None),
        );
        let (cw, llrs) = noisy_llrs(&code, 3.2, 41);
        let out = dec.decode(&llrs);
        assert!(out.converged);
        assert_eq!(out.bits, cw);
    }

    #[test]
    #[should_panic(expected = "equal sub-chains")]
    fn partition_lanes_must_divide_check_count() {
        let (_, graph) = small_code();
        QuantizedZigzagDecoder::with_partition(
            Arc::new(graph),
            QCheckArithmetic::lut(Quantizer::paper_6bit()),
            DecoderConfig::default(),
            ChainPartition::new(7, None),
        );
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn partition_edge_order_must_be_a_permutation() {
        let (_, graph) = small_code();
        let info_d = graph.check_edges(0).len() - 1;
        let n_check = graph.check_count();
        // Position 0 repeated for every check: covers the length check but
        // fails the per-check permutation test.
        let order = vec![0u32; n_check * info_d];
        QuantizedZigzagDecoder::with_partition(
            Arc::new(graph),
            QCheckArithmetic::lut(Quantizer::paper_6bit()),
            DecoderConfig::default(),
            ChainPartition::new(360, Some(order)),
        );
    }

    #[test]
    #[should_panic(expected = "at least one sub-chain")]
    fn partition_rejects_zero_lanes() {
        ChainPartition::new(0, None);
    }

    #[test]
    fn tracks_float_zigzag_at_moderate_snr() {
        use crate::zigzag::ZigzagDecoder;
        let (code, graph) = small_code();
        let graph = Arc::new(graph);
        let mut qdec = QuantizedZigzagDecoder::new(
            Arc::clone(&graph),
            Quantizer::paper_6bit(),
            DecoderConfig::default(),
        );
        let mut fdec = ZigzagDecoder::new(Arc::clone(&graph), DecoderConfig::default());
        let mut agree = 0;
        const TRIALS: usize = 5;
        for seed in 0..TRIALS as u64 {
            let (cw, llrs) = noisy_llrs(&code, 3.4, 3000 + seed);
            let qd = qdec.decode(&llrs);
            let fd = fdec.decode(&llrs);
            if qd.bits == cw && fd.bits == cw {
                agree += 1;
            }
        }
        // 6-bit quantization costs ~0.1 dB: at 3.4 dB both decode reliably.
        assert_eq!(agree, TRIALS);
    }
}
