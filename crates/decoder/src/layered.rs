//! Layered (horizontal) decoding schedule — an extension beyond the paper.
//!
//! Later DVB-S2 decoder generations (e.g. DVB-S2X designs) process check
//! nodes in layers against a running a-posteriori total, roughly doubling
//! convergence speed over flooding. Included here as the natural
//! "future work" of the paper's schedule and as an ablation point.

use crate::bp::{BpDecoder, Schedule, Step, Store};
use crate::llr_ops::{CheckRule, LlrFloat};
use crate::simd::SimdTier;
use crate::DecoderConfig;
use dvbs2_ldpc::TannerGraph;

/// Layered belief-propagation decoder over any Tanner graph.
///
/// Every check node, processed in order, reads the current a-posteriori
/// totals, subtracts its own previous contribution, computes fresh
/// extrinsics and writes them back immediately.
pub type LayeredDecoder = BpDecoder<Layered>;

/// The layered schedule: the running-total sweep over the edge planes.
#[derive(Debug, Clone)]
pub struct Layered;

impl Schedule for Layered {
    fn new(_: &TannerGraph, _: &DecoderConfig) -> Self {
        Layered
    }

    /// Unlike the two-phase schedules, the layered update must read a
    /// check's previous `c2v` while writing its fresh extrinsics, so `v2c`
    /// is one check's inputs with its fresh extrinsics beside them, and
    /// there are no next totals.
    fn lengths(&self, graph: &TannerGraph) -> [usize; 3] {
        [2 * graph.max_check_degree(), graph.edge_count(), 0]
    }

    fn name(_: CheckRule) -> &'static str {
        "layered"
    }
}

impl<F: LlrFloat> Step<F> for Layered {
    /// The channel itself, `-0.0` included: the running totals start there.
    fn start(&mut self, m: &mut Store<F>) {
        m.totals.copy_from_slice(&m.llr);
    }

    fn step(&mut self, graph: &TannerGraph, rule: &CheckRule, _: SimdTier, m: &mut Store<F>) {
        let offsets = graph.check_offsets();
        let edge_vars = graph.edge_vars();
        let max_degree = m.v2c.len() / 2;
        let (scratch_in, scratch_out) = m.v2c.split_at_mut(max_degree);
        for c in 0..graph.check_count() {
            let range = offsets[c] as usize..offsets[c + 1] as usize;
            let d = range.len();
            for (i, e) in range.clone().enumerate() {
                let v = edge_vars[e] as usize;
                scratch_in[i] = m.totals[v] - m.c2v[e];
            }
            rule.extrinsic_t(&scratch_in[..d], &mut scratch_out[..d]);
            for (i, e) in range.enumerate() {
                let v = edge_vars[e] as usize;
                m.totals[v] += scratch_out[i] - m.c2v[e];
                m.c2v[e] = scratch_out[i];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{noisy_llrs, small_code};
    use crate::{Decoder, FloodingDecoder, Precision};
    use std::sync::Arc;

    #[test]
    fn corrects_noisy_frame() {
        let (code, graph) = small_code();
        let (cw, llrs) = noisy_llrs(&code, 3.2, 11);
        let mut dec = LayeredDecoder::new(Arc::new(graph), DecoderConfig::default());
        let out = dec.decode(&llrs);
        assert!(out.converged);
        assert_eq!(out.bits, cw);
    }

    #[test]
    fn converges_faster_than_flooding() {
        let (code, graph) = small_code();
        let graph = Arc::new(graph);
        let config = DecoderConfig { max_iterations: 60, ..DecoderConfig::default() };
        let mut layered = LayeredDecoder::new(Arc::clone(&graph), config);
        let mut flooding = FloodingDecoder::new(Arc::clone(&graph), config);
        let mut lay_total = 0usize;
        let mut flood_total = 0usize;
        for seed in 0..6 {
            let (_, llrs) = noisy_llrs(&code, 2.4, 2000 + seed);
            lay_total += layered.decode(&llrs).iterations;
            flood_total += flooding.decode(&llrs).iterations;
        }
        assert!(lay_total < flood_total, "layered {lay_total} vs flooding {flood_total}");
    }

    #[test]
    fn f32_fast_path_decodes_the_same_frames() {
        let (code, graph) = small_code();
        let graph = Arc::new(graph);
        let (cw, llrs) = noisy_llrs(&code, 3.2, 19);
        let mut fast = LayeredDecoder::new(
            Arc::clone(&graph),
            DecoderConfig::default().with_precision(Precision::F32),
        );
        let out = fast.decode(&llrs);
        assert!(out.converged);
        assert_eq!(out.bits, cw);
    }

    #[test]
    fn handles_undecodable_noise_gracefully() {
        let (code, graph) = small_code();
        // Eb/N0 far below threshold: must not converge, must report it.
        let (_, llrs) = noisy_llrs(&code, -2.0, 3);
        let mut dec = LayeredDecoder::new(
            Arc::new(graph),
            DecoderConfig { max_iterations: 10, ..DecoderConfig::default() },
        );
        let out = dec.decode(&llrs);
        assert_eq!(out.iterations, 10);
        assert!(!out.converged);
    }
}
