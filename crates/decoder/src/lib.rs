//! Message-passing decoders for DVB-S2 LDPC codes.
//!
//! Implements the decoding algorithms of the DATE 2005 paper *"A
//! Synthesizable IP Core for DVB-S2 LDPC Code Decoding"*:
//!
//! * [`FloodingDecoder`] — conventional two-phase belief propagation
//!   (the paper's Figure 2a baseline);
//! * [`ZigzagDecoder`] — the paper's optimized schedule with sequential
//!   forward updates through the degree-2 parity chain (Figure 2b), which
//!   converges in ≈ 30 iterations where flooding needs ≈ 40 and halves the
//!   parity-message storage;
//! * [`QuantizedZigzagDecoder`] — the 5/6-bit fixed-point model that the
//!   cycle-accurate hardware core reproduces bit-exactly;
//! * [`CheckRule`] — sum-product (Eq. 5) and min-sum variants.
//!
//! The two float schedules are one [`BpDecoder`]: one layout chosen at
//! construction, one message store, one iteration loop with early stop and
//! one epilogue. A schedule is only its per-iteration step on each layout.
//! Under flooding and zigzag alike, the min-sum rules and `f32` sum-product
//! on a DVB-S2 graph run on the rotation planes, the paper's 360 functional
//! units as vector lanes; the zigzag's forward chain runs there as 360
//! sub-chains side by side, bit-identical to the check-by-check sweep under
//! min-sum.
//!
//! # Example
//!
//! ```
//! use dvbs2_decoder::{Decoder, DecoderConfig, ZigzagDecoder};
//! use dvbs2_ldpc::{CodeRate, DvbS2Code, FrameSize};
//! use std::sync::Arc;
//! # fn main() -> Result<(), dvbs2_ldpc::CodeError> {
//! let code = DvbS2Code::new(CodeRate::R1_2, FrameSize::Short)?;
//! let graph = Arc::new(code.tanner_graph());
//! let mut decoder = ZigzagDecoder::new(graph, DecoderConfig::default());
//!
//! // A noise-free all-zero codeword: +1 LLR everywhere.
//! let llrs = vec![1.0; code.params().n];
//! let result = decoder.decode(&llrs);
//! assert!(result.converged);
//! assert_eq!(result.bits.count_ones(), 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod bitflip;
mod bp;
mod de;
mod engine;
mod flooding;
mod llr_ops;
mod qdecoder;
mod qsimd;
mod quant;
mod rotation;
mod simd;
mod stopping;
mod threshold;
mod tile;
mod zigzag;

#[doc(hidden)]
pub mod test_support;

pub use bitflip::BitFlippingDecoder;
pub use bp::BpDecoder;
pub use de::{Density, DensityEvolution};
pub use engine::{Lane, Precision, LLR_CLAMP};
pub use flooding::FloodingDecoder;
pub use llr_ops::{boxplus, boxplus_min, boxplus_t, boxplus_table, CheckRule, LlrFloat};
pub use qdecoder::{ChainPartition, QuantizedZigzagDecoder};
pub use qsimd::{FuLanes, FuWord};
pub use quant::{QBoxplus, QCheckArithmetic, Quantizer};
pub use simd::{detected_cpu_features, SimdTier};
pub use stopping::{
    hard_decisions, hard_decisions_int, hard_decisions_int_into, syndrome_ok, syndrome_weight,
};
pub use threshold::{
    ga_converges, ga_threshold_ebn0_db, ga_threshold_sigma, phi, phi_inv, DegreeDistribution,
};
pub use tile::{TileSchedule, TiledBatchDecoder};
pub use zigzag::ZigzagDecoder;

use dvbs2_ldpc::BitVec;

/// Iteration policy and check-node rule shared by all decoders.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecoderConfig {
    /// Iteration cap. The paper uses 30 for the zigzag schedule (equivalent
    /// to 40 with the conventional schedule).
    pub max_iterations: usize,
    /// Stop as soon as the hard decisions satisfy every parity check.
    pub early_stop: bool,
    /// Check-node update rule.
    pub rule: CheckRule,
    /// Message precision. `F64` (the default) is bit-compatible with the
    /// original double-precision decoders; `F32` is the fast path.
    pub precision: Precision,
    /// Forced SIMD dispatch tier, or `None` (the default) to auto-detect
    /// the widest tier the CPU supports. Every tier computes bit-identical
    /// results; this knob exists for tests and benchmarks that pin a tier,
    /// and is per-decoder so parallel tests never race on the process-wide
    /// `DVBS2_SIMD` environment override.
    pub simd: Option<SimdTier>,
}

impl Default for DecoderConfig {
    fn default() -> Self {
        DecoderConfig {
            max_iterations: 30,
            early_stop: true,
            rule: CheckRule::SumProduct,
            precision: Precision::F64,
            simd: None,
        }
    }
}

impl DecoderConfig {
    /// The paper's operating point: 30 iterations, sum-product, early stop.
    pub fn paper() -> Self {
        Self::default()
    }

    /// Returns the config with a different iteration cap.
    pub fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = max_iterations;
        self
    }

    /// Returns the config with a different check rule.
    pub fn with_rule(mut self, rule: CheckRule) -> Self {
        self.rule = rule;
        self
    }

    /// Returns the config with early termination enabled or disabled.
    pub fn with_early_stop(mut self, early_stop: bool) -> Self {
        self.early_stop = early_stop;
        self
    }

    /// Returns the config with a different message precision.
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Returns the config pinned to a SIMD dispatch tier (`None` restores
    /// auto-detection).
    pub fn with_simd_tier(mut self, simd: Option<SimdTier>) -> Self {
        self.simd = simd;
        self
    }
}

/// The outcome of decoding one frame.
///
/// The `Default` value (empty bits, zero iterations, not converged) is the
/// natural starting point for [`Decoder::decode_into`], which sizes and
/// fills the bit vector on first use and then reuses it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DecodeResult {
    /// Hard decisions for the full codeword (`N` bits).
    pub bits: BitVec,
    /// Iterations actually executed.
    pub iterations: usize,
    /// Whether the hard decisions satisfy all parity checks.
    pub converged: bool,
}

impl DecodeResult {
    /// Counts information-bit errors against a reference codeword, looking
    /// only at the first `k` (systematic) positions.
    ///
    /// # Panics
    ///
    /// Panics if `reference.len() != self.bits.len()` or `k` exceeds it.
    pub fn info_bit_errors(&self, reference: &BitVec, k: usize) -> usize {
        assert_eq!(reference.len(), self.bits.len(), "length mismatch");
        assert!(k <= reference.len(), "k out of range");
        (0..k).filter(|&i| self.bits.get(i) != reference.get(i)).count()
    }
}

/// A frame decoder: channel LLRs in, hard decisions out.
///
/// Implementations own their scratch state, so one instance decodes frames
/// back to back without reallocating; create one instance per thread.
pub trait Decoder {
    /// Decodes one frame of channel LLRs (length = codeword length).
    ///
    /// # Panics
    ///
    /// Implementations panic if `channel_llrs` has the wrong length.
    fn decode(&mut self, channel_llrs: &[f64]) -> DecodeResult;

    /// Decodes one frame into a caller-owned result, reusing its buffers.
    ///
    /// Streaming callers decode frames back to back; the in-crate decoders
    /// override this to write hard decisions directly into `out.bits`, so a
    /// warm `decode_into` performs no allocation at all (the `alloc`
    /// integration test enforces this). The default implementation simply
    /// overwrites `out` with a fresh [`Decoder::decode`] result.
    ///
    /// # Panics
    ///
    /// Same as [`Decoder::decode`].
    fn decode_into(&mut self, channel_llrs: &[f64], out: &mut DecodeResult) {
        *out = self.decode(channel_llrs);
    }

    /// Replaces the iteration cap for subsequent decodes.
    ///
    /// The streaming pipeline's admission control sheds load by lowering
    /// the cap under pressure (trading error-rate margin for throughput,
    /// the paper's Table 3 knob) instead of dropping frames. The default is
    /// a no-op: a decoder that ignores the cap simply never sheds work.
    fn set_max_iterations(&mut self, max_iterations: usize) {
        let _ = max_iterations;
    }

    /// A short human-readable identifier for reports.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_builders_compose() {
        let c = DecoderConfig::paper()
            .with_max_iterations(40)
            .with_rule(CheckRule::NormalizedMinSum(0.75))
            .with_early_stop(false)
            .with_precision(Precision::F32);
        assert_eq!(c.max_iterations, 40);
        assert!(!c.early_stop);
        assert!(matches!(c.rule, CheckRule::NormalizedMinSum(_)));
        assert_eq!(c.precision, Precision::F32);
        assert_eq!(DecoderConfig::default().precision, Precision::F64);
    }

    #[test]
    fn info_bit_errors_counts_prefix_only() {
        let reference = BitVec::from_bools([false, false, true, true]);
        let bits = BitVec::from_bools([false, true, true, false]);
        let r = DecodeResult { bits, iterations: 1, converged: false };
        assert_eq!(r.info_bit_errors(&reference, 2), 1);
        assert_eq!(r.info_bit_errors(&reference, 4), 2);
    }
}
