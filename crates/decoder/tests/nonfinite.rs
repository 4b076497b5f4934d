//! Regression tests for degenerate decoder inputs: non-finite channel LLRs
//! and an iteration cap of zero.
//!
//! A demodulator bug (or a saturated AGC) can hand the decoder `±inf` or
//! `NaN` soft bits. Before sanitization, an `inf` input made the check-node
//! gather compute `inf - inf = NaN`, which then spread through every
//! message plane. Every float decoder now clamps at its ingestion boundary
//! (`NaN` → erasure, `±inf` → `±LLR_CLAMP`), and the quantized decoder's
//! saturating quantizer has the same policy by construction, so frames
//! containing garbage samples decode like frames containing erasures.

use dvbs2_decoder::test_support::{llrs_for_codeword, noisy_llrs, rotation_partition, small_code};
use dvbs2_decoder::{
    BitFlippingDecoder, CheckRule, Decoder, DecoderConfig, FloodingDecoder, Precision,
    QCheckArithmetic, QuantizedZigzagDecoder, Quantizer, ZigzagDecoder,
};
use dvbs2_ldpc::BitVec;
use std::sync::Arc;

/// Every soft decoder in the matrix: every core the float schedules pick —
/// flooding and zigzag on the rotation planes (min-sum, and sum-product at
/// f32) and on the scalar pass and sweep (f64 sum-product, the table rule)
/// — at both precisions where the core has two; the quantized decoder on
/// each of its paths (sequential, scalar fused over the 360-lane rotation
/// cut, SIMD lane planes over the same cut).
fn soft_decoders(graph: &Arc<dvbs2_ldpc::TannerGraph>) -> Vec<Box<dyn Decoder>> {
    let f64_cfg = DecoderConfig::default();
    let f32_cfg = DecoderConfig::default().with_precision(Precision::F32);
    let ms_cfg = DecoderConfig::default().with_rule(CheckRule::NormalizedMinSum(0.8));
    let ms_f32_cfg = ms_cfg.with_precision(Precision::F32);
    let offset_cfg = DecoderConfig::default().with_rule(CheckRule::OffsetMinSum(0.15));
    let table_f32_cfg = f32_cfg.with_rule(CheckRule::TableSumProduct);
    let lut = || QCheckArithmetic::lut(Quantizer::paper_6bit());
    let cut = || rotation_partition(graph);
    vec![
        Box::new(FloodingDecoder::new(Arc::clone(graph), f64_cfg)),
        Box::new(FloodingDecoder::new(Arc::clone(graph), f32_cfg)),
        Box::new(FloodingDecoder::new(Arc::clone(graph), ms_cfg)),
        Box::new(FloodingDecoder::new(Arc::clone(graph), ms_f32_cfg)),
        Box::new(FloodingDecoder::new(Arc::clone(graph), table_f32_cfg)),
        Box::new(ZigzagDecoder::new(Arc::clone(graph), f64_cfg)),
        Box::new(ZigzagDecoder::new(Arc::clone(graph), f32_cfg)),
        Box::new(ZigzagDecoder::new(Arc::clone(graph), ms_cfg)),
        Box::new(ZigzagDecoder::new(Arc::clone(graph), ms_f32_cfg)),
        Box::new(ZigzagDecoder::new(Arc::clone(graph), offset_cfg)),
        Box::new(QuantizedZigzagDecoder::new(Arc::clone(graph), Quantizer::paper_6bit(), f64_cfg)),
        Box::new(QuantizedZigzagDecoder::with_partition_fused(
            Arc::clone(graph),
            lut(),
            f64_cfg,
            cut(),
        )),
        Box::new(QuantizedZigzagDecoder::with_partition(Arc::clone(graph), lut(), f64_cfg, cut())),
    ]
}

/// A clean codeword with a handful of non-finite samples must still decode:
/// `NaN` is an erasure the surrounding checks repair, and sign-consistent
/// `±inf` saturates instead of poisoning the message planes.
#[test]
fn frame_with_scattered_non_finite_llrs_decodes() {
    let (code, graph) = small_code();
    let graph = Arc::new(graph);
    let enc = code.encoder().unwrap();
    let msg: BitVec = (0..code.params().k).map(|i| i % 7 == 0).collect();
    let cw = enc.encode(&msg).unwrap();

    let mut llrs = llrs_for_codeword(&cw, 5.0);
    // Erasures anywhere; infinities with the *correct* sign (a saturated
    // but honest sample), plus one huge finite value that would overflow
    // f32 without the f64-domain clamp.
    for &i in &[7usize, 901, 4444, 12003] {
        llrs[i] = f64::NAN;
    }
    for &i in &[40usize, 2000, 9000] {
        llrs[i] = if cw.get(i) { f64::NEG_INFINITY } else { f64::INFINITY };
    }
    llrs[5000] = if cw.get(5000) { -1e300 } else { 1e300 };

    for mut dec in soft_decoders(&graph) {
        let out = dec.decode(&llrs);
        assert!(out.converged, "{}: did not converge on non-finite frame", dec.name());
        assert_eq!(out.bits, cw, "{}: wrong codeword", dec.name());
    }
}

/// The sanitization contract, stated exactly: decoding a frame containing
/// `NaN`/`±inf` is bit-identical to decoding the same frame with those
/// samples replaced by their sanitized values (`0.0` and `±LLR_CLAMP`).
/// This holds even for a *wrong-sign* infinity — an unrecoverable lie about
/// one bit, which behaves like any hugely confident wrong finite sample
/// instead of cascading `NaN` through the message planes.
#[test]
fn non_finite_frame_decodes_identically_to_sanitized_frame() {
    use dvbs2_decoder::LLR_CLAMP;
    let (code, graph) = small_code();
    let graph = Arc::new(graph);
    let enc = code.encoder().unwrap();
    let msg: BitVec = (0..code.params().k).map(|i| i % 3 == 0).collect();
    let cw = enc.encode(&msg).unwrap();

    let base = llrs_for_codeword(&cw, 5.0);
    let mut raw = base.clone();
    let mut sanitized = base;
    // A wrong-sign infinity, a right-sign infinity and an erasure.
    raw[123] = if cw.get(123) { f64::INFINITY } else { f64::NEG_INFINITY };
    sanitized[123] = if cw.get(123) { LLR_CLAMP } else { -LLR_CLAMP };
    raw[4567] = if cw.get(4567) { f64::NEG_INFINITY } else { f64::INFINITY };
    sanitized[4567] = if cw.get(4567) { -LLR_CLAMP } else { LLR_CLAMP };
    raw[9001] = f64::NAN;
    sanitized[9001] = 0.0;

    for mut dec in soft_decoders(&graph) {
        let a = dec.decode(&raw);
        let b = dec.decode(&sanitized);
        assert_eq!(a, b, "{}: non-finite frame diverged from sanitized frame", dec.name());
        let c = dec.decode(&raw);
        assert_eq!(a, c, "{}: non-finite input broke determinism", dec.name());
    }
}

/// An all-`NaN` frame carries no information at all; the sanitized LLRs are
/// all zero, whose hard decisions form the all-zero codeword.
#[test]
fn all_nan_frame_degrades_to_erasure() {
    let (code, graph) = small_code();
    let graph = Arc::new(graph);
    let llrs = vec![f64::NAN; code.params().n];
    for mut dec in soft_decoders(&graph) {
        let out = dec.decode(&llrs);
        assert!(out.converged, "{}: all-zero word satisfies every check", dec.name());
        assert_eq!(out.bits.count_ones(), 0, "{}", dec.name());
    }
}

/// The hard-decision baseline has no message arithmetic to poison, but its
/// sign test must still map non-finite samples deterministically.
#[test]
fn bit_flipping_handles_non_finite_signs() {
    let (code, graph) = small_code();
    let graph = Arc::new(graph);
    let enc = code.encoder().unwrap();
    let msg: BitVec = (0..code.params().k).map(|i| i % 11 == 0).collect();
    let cw = enc.encode(&msg).unwrap();
    let mut llrs = llrs_for_codeword(&cw, 4.0);
    // NaN compares non-negative, so it lands on bit 0: plant erasures where
    // the codeword already has zeros and true-sign infinities elsewhere.
    let mut planted = 0;
    for (i, llr) in llrs.iter_mut().enumerate().take(cw.len()) {
        if !cw.get(i) && planted < 3 {
            *llr = f64::NAN;
            planted += 1;
        }
    }
    llrs[60] = if cw.get(60) { f64::NEG_INFINITY } else { f64::INFINITY };
    let mut dec = BitFlippingDecoder::new(graph, DecoderConfig::default());
    let out = dec.decode(&llrs);
    assert!(out.converged);
    assert_eq!(out.bits, cw);
}

/// An iteration cap of zero (admission control can in principle shed that
/// far) means "the channel's own hard decisions, `iterations == 0`" — and in
/// particular nothing of the frame decoded before: a warm decoder must
/// answer exactly like a fresh one.
#[test]
fn zero_iteration_cap_ignores_the_previous_frame() {
    let (code, graph) = small_code();
    let graph = Arc::new(graph);
    let (_, previous) = noisy_llrs(&code, 1.0, 5100);
    let (_, frame) = noisy_llrs(&code, 1.0, 5101);
    let all = |graph: &Arc<dvbs2_ldpc::TannerGraph>| {
        let mut decoders = soft_decoders(graph);
        decoders
            .push(Box::new(BitFlippingDecoder::new(Arc::clone(graph), DecoderConfig::default())));
        decoders
    };
    for (mut warm, mut fresh) in all(&graph).into_iter().zip(all(&graph)) {
        assert!(warm.decode(&previous).iterations > 0, "{}: warm-up must iterate", warm.name());
        warm.set_max_iterations(0);
        fresh.set_max_iterations(0);
        let got = warm.decode(&frame);
        assert_eq!(got, fresh.decode(&frame), "{}: cap-0 decode read stale state", warm.name());
        assert_eq!(got.iterations, 0, "{}", warm.name());
    }
    // The quantized paths decide on the *quantized* channel.
    let q = Quantizer::paper_6bit();
    let want: BitVec = frame.iter().map(|&l| q.quantize(l) < 0).collect();
    for mut dec in soft_decoders(&graph).into_iter().filter(|d| d.name() == "quantized zigzag") {
        dec.set_max_iterations(0);
        assert_eq!(dec.decode(&frame).bits, want);
    }
}
