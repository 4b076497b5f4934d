//! Conventional two-phase ("flooding") belief propagation — Figure 2a of
//! the paper.
//!
//! Every iteration updates all variable nodes, then all check nodes, with
//! messages from the *previous* iteration only. Parity nodes are treated as
//! ordinary degree-2 variables. This is the baseline the zigzag schedule is
//! measured against: it needs ≈ 40 iterations where the optimized schedule
//! needs 30.
//!
//! Messages live in flat edge-indexed planes (see [`crate::engine`]): the
//! variable phase is one scatter-add plus one gather over
//! [`TannerGraph::edge_vars`], and each check node's kernel runs directly on
//! its contiguous slice of the planes — no per-check scratch copies.

use crate::engine::{
    accumulate_totals, accumulate_totals_slotted, accumulate_totals_slotted_tier,
    blocked_min_sum_pass_tier, blocked_sum_product_pass_tier, blocked_table_sum_product_pass,
    fused_check_pass, hard_decisions_into, load_llrs, syndrome_ok_totals, BlockedChecks, Precision,
};
use crate::llr_ops::{CheckRule, LlrFloat};
use crate::simd::SimdTier;
use crate::{DecodeResult, Decoder, DecoderConfig};
use dvbs2_ldpc::{BitVec, TannerGraph};
use std::sync::Arc;

/// Flooding-schedule belief-propagation decoder over any Tanner graph.
///
/// ```
/// use dvbs2_decoder::{Decoder, DecoderConfig, FloodingDecoder};
/// use dvbs2_ldpc::TannerGraph;
/// use std::sync::Arc;
///
/// // Repetition code: both bits equal, two checks... a single parity check.
/// let g = Arc::new(TannerGraph::from_edges(2, 1, &[(0, 0), (0, 1)]));
/// let mut dec = FloodingDecoder::new(g, DecoderConfig::default());
/// let out = dec.decode(&[-2.0, 0.5]); // strong bit-1 vote wins
/// assert!(out.bits.get(0) && out.bits.get(1));
/// assert!(out.converged);
/// ```
#[derive(Debug, Clone)]
pub struct FloodingDecoder {
    graph: Arc<TannerGraph>,
    config: DecoderConfig,
    blocked: BlockedChecks,
    /// Runtime dispatch tier, resolved once at construction.
    tier: SimdTier,
    core: Core,
}

#[derive(Debug, Clone)]
enum Core {
    F64(Engine<f64>),
    F32(Engine<f32>),
}

/// Message planes and working buffers at one precision.
#[derive(Debug, Clone)]
struct Engine<F> {
    llr: Vec<F>,
    v2c: Vec<F>,
    c2v: Vec<F>,
    totals: Vec<F>,
    totals_next: Vec<F>,
}

impl<F: LlrFloat> Engine<F> {
    fn new(graph: &TannerGraph) -> Self {
        let edges = graph.edge_count();
        let vars = graph.var_count();
        Engine {
            llr: vec![F::ZERO; vars],
            v2c: vec![F::ZERO; edges],
            c2v: vec![F::ZERO; edges],
            totals: vec![F::ZERO; vars],
            totals_next: vec![F::ZERO; vars],
        }
    }

    /// One full decode into `out`. Allocation-free once `out.bits` has the
    /// codeword length (the first call sizes it).
    fn decode_into(
        &mut self,
        graph: &TannerGraph,
        config: &DecoderConfig,
        blocked: &BlockedChecks,
        tier: SimdTier,
        channel_llrs: &[f64],
        out: &mut DecodeResult,
    ) {
        load_llrs(&mut self.llr, channel_llrs);
        let edge_vars = graph.edge_vars();

        self.c2v.fill(F::ZERO);
        // First-iteration gather sources: totals = llr plus all-zero messages.
        accumulate_totals(edge_vars, &self.llr, &self.c2v, &mut self.totals);
        let mut iterations = 0;
        let mut converged = false;

        for _ in 0..config.max_iterations {
            iterations += 1;
            // Both half-iterations per pass. The min-sum, table sum-product
            // and f32 exact sum-product rules run column-major kernels over
            // the transposed planes (dense, branchless, lane-parallel)
            // followed by the edge-order totals accumulation through the
            // slot permutation. f64 exact sum-product — the reference the
            // seed-embedded regression suite pins bit for bit — streams
            // check by check with the scalar kernel fused between gather
            // and scatter.
            match config.rule {
                CheckRule::SumProduct if config.precision == Precision::F32 => {
                    blocked_sum_product_pass_tier(
                        tier,
                        blocked,
                        &self.totals,
                        &mut self.v2c,
                        &mut self.c2v,
                    );
                    accumulate_totals_slotted_tier(
                        tier,
                        edge_vars,
                        blocked.edge_to_slot(),
                        &self.llr,
                        &self.c2v,
                        &mut self.totals_next,
                    );
                }
                CheckRule::SumProduct => {
                    fused_check_pass(
                        graph,
                        &config.rule,
                        &self.llr,
                        &self.totals,
                        &mut self.v2c,
                        &mut self.c2v,
                        &mut self.totals_next,
                    );
                }
                CheckRule::TableSumProduct => {
                    // The table rule's serial boxplus chains go through the
                    // column-major kernel (per check bit-identical to the
                    // scalar `extrinsic_t`, see the kernel doc); totals then
                    // accumulate in ascending edge order like the min-sum
                    // rules.
                    blocked_table_sum_product_pass(
                        blocked,
                        &self.totals,
                        &mut self.v2c,
                        &mut self.c2v,
                    );
                    accumulate_totals_slotted(
                        edge_vars,
                        blocked.edge_to_slot(),
                        &self.llr,
                        &self.c2v,
                        &mut self.totals_next,
                    );
                }
                CheckRule::NormalizedMinSum(alpha) => {
                    let alpha = F::from_f64(alpha);
                    blocked_min_sum_pass_tier(
                        tier,
                        blocked,
                        &config.rule,
                        &self.totals,
                        &mut self.v2c,
                        &mut self.c2v,
                        |m| m * alpha,
                    );
                    accumulate_totals_slotted_tier(
                        tier,
                        edge_vars,
                        blocked.edge_to_slot(),
                        &self.llr,
                        &self.c2v,
                        &mut self.totals_next,
                    );
                }
                CheckRule::OffsetMinSum(beta) => {
                    let beta = F::from_f64(beta);
                    blocked_min_sum_pass_tier(
                        tier,
                        blocked,
                        &config.rule,
                        &self.totals,
                        &mut self.v2c,
                        &mut self.c2v,
                        |m| (m - beta).max(F::ZERO),
                    );
                    accumulate_totals_slotted_tier(
                        tier,
                        edge_vars,
                        blocked.edge_to_slot(),
                        &self.llr,
                        &self.c2v,
                        &mut self.totals_next,
                    );
                }
            }
            std::mem::swap(&mut self.totals, &mut self.totals_next);
            if config.early_stop && syndrome_ok_totals(graph, &self.totals) {
                converged = true;
                break;
            }
        }
        if !config.early_stop || !converged {
            converged = syndrome_ok_totals(graph, &self.totals);
        }
        if out.bits.len() != self.totals.len() {
            out.bits = BitVec::zeros(self.totals.len());
        }
        hard_decisions_into(&self.totals, &mut out.bits);
        out.iterations = iterations;
        out.converged = converged;
    }
}

impl FloodingDecoder {
    /// Creates a decoder for `graph`.
    pub fn new(graph: Arc<TannerGraph>, config: DecoderConfig) -> Self {
        let blocked = BlockedChecks::new(&graph);
        let tier = SimdTier::resolve(config.simd);
        let core = match config.precision {
            Precision::F64 => Core::F64(Engine::new(&graph)),
            Precision::F32 => Core::F32(Engine::new(&graph)),
        };
        FloodingDecoder { graph, config, blocked, tier, core }
    }

    /// The decoder configuration.
    pub fn config(&self) -> &DecoderConfig {
        &self.config
    }

    /// The SIMD dispatch tier the kernels run on.
    pub fn simd_tier(&self) -> SimdTier {
        self.tier
    }
}

impl Decoder for FloodingDecoder {
    fn decode(&mut self, channel_llrs: &[f64]) -> DecodeResult {
        let mut out = DecodeResult::default();
        self.decode_into(channel_llrs, &mut out);
        out
    }

    fn decode_into(&mut self, channel_llrs: &[f64], out: &mut DecodeResult) {
        assert_eq!(channel_llrs.len(), self.graph.var_count(), "LLR length mismatch");
        match &mut self.core {
            Core::F64(e) => e.decode_into(
                &self.graph,
                &self.config,
                &self.blocked,
                self.tier,
                channel_llrs,
                out,
            ),
            Core::F32(e) => e.decode_into(
                &self.graph,
                &self.config,
                &self.blocked,
                self.tier,
                channel_llrs,
                out,
            ),
        }
    }

    fn set_max_iterations(&mut self, max_iterations: usize) {
        self.config.max_iterations = max_iterations;
    }

    fn name(&self) -> &'static str {
        match self.config.rule {
            CheckRule::SumProduct => "flooding sum-product",
            CheckRule::TableSumProduct => "flooding table sum-product",
            CheckRule::NormalizedMinSum(_) => "flooding normalized min-sum",
            CheckRule::OffsetMinSum(_) => "flooding offset min-sum",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{llrs_for_codeword, noisy_llrs, small_code};
    use crate::Precision;

    #[test]
    fn noiseless_codeword_converges_immediately() {
        let (code, graph) = small_code();
        let enc = code.encoder().unwrap();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        use rand::SeedableRng;
        let cw = enc.encode(&enc.random_message(&mut rng)).unwrap();
        let llrs = llrs_for_codeword(&cw, 5.0);
        let mut dec = FloodingDecoder::new(Arc::new(graph), DecoderConfig::default());
        let out = dec.decode(&llrs);
        assert!(out.converged);
        assert_eq!(out.iterations, 1);
        assert_eq!(out.bits, cw);
    }

    #[test]
    fn corrects_noisy_frame_at_moderate_snr() {
        let (code, graph) = small_code();
        let (cw, llrs) = noisy_llrs(&code, 3.2, 99);
        let mut dec = FloodingDecoder::new(Arc::new(graph), DecoderConfig::default());
        let out = dec.decode(&llrs);
        assert!(out.converged, "decoder did not converge");
        assert_eq!(out.bits, cw);
        assert!(out.iterations > 1, "noise should need work");
    }

    #[test]
    fn min_sum_variants_also_correct() {
        let (code, graph) = small_code();
        let graph = Arc::new(graph);
        let (cw, llrs) = noisy_llrs(&code, 3.6, 123);
        for rule in [CheckRule::NormalizedMinSum(0.8), CheckRule::OffsetMinSum(0.15)] {
            let mut dec = FloodingDecoder::new(
                Arc::clone(&graph),
                DecoderConfig { rule, ..DecoderConfig::default() },
            );
            let out = dec.decode(&llrs);
            assert_eq!(out.bits, cw, "{rule:?}");
        }
    }

    #[test]
    fn without_early_stop_runs_all_iterations() {
        let (code, graph) = small_code();
        let (_, llrs) = noisy_llrs(&code, 5.0, 7);
        let mut dec = FloodingDecoder::new(
            Arc::new(graph),
            DecoderConfig { max_iterations: 10, early_stop: false, ..DecoderConfig::default() },
        );
        let out = dec.decode(&llrs);
        assert_eq!(out.iterations, 10);
        assert!(out.converged, "frame should be clean after 10 iterations at 5 dB");
    }

    #[test]
    fn f32_fast_path_decodes_the_same_frames() {
        let (code, graph) = small_code();
        let graph = Arc::new(graph);
        for seed in 0..4 {
            let (cw, llrs) = noisy_llrs(&code, 3.2, 300 + seed);
            let mut f64_dec = FloodingDecoder::new(Arc::clone(&graph), DecoderConfig::default());
            let mut f32_dec = FloodingDecoder::new(
                Arc::clone(&graph),
                DecoderConfig::default().with_precision(Precision::F32),
            );
            let a = f64_dec.decode(&llrs);
            let b = f32_dec.decode(&llrs);
            assert_eq!(a.bits, cw, "seed {seed}");
            assert_eq!(b.bits, cw, "seed {seed} (f32)");
        }
    }

    #[test]
    #[should_panic(expected = "LLR length mismatch")]
    fn wrong_llr_length_panics() {
        let (_, graph) = small_code();
        let mut dec = FloodingDecoder::new(Arc::new(graph), DecoderConfig::default());
        let _ = dec.decode(&[0.0; 3]);
    }
}
