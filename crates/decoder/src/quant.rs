//! Fixed-point message quantization (Section 2.1 of the paper).
//!
//! The paper adopts 6-bit message quantization, citing a total loss of
//! ≈ 0.1 dB versus infinite precision, with 5 bits losing noticeably more.
//! [`Quantizer`] maps float LLRs to saturating signed integers, and
//! [`QBoxplus`] evaluates the check-node rule entirely in integers using the
//! classic min + correction-table decomposition — the arithmetic a hardware
//! functional unit actually implements, and therefore the golden model the
//! cycle-accurate core must match bit for bit.

/// Uniform symmetric quantizer: `bits`-wide signed values saturating at
/// `±(2^(bits-1) - 1)`, with LLR resolution `step`.
///
/// ```
/// use dvbs2_decoder::Quantizer;
/// let q = Quantizer::new(6, 0.5); // the paper's 6-bit messages
/// assert_eq!(q.max_mag(), 31);
/// assert_eq!(q.quantize(1.3), 3);    // 1.3 / 0.5 rounds to 3
/// assert_eq!(q.quantize(-100.0), -31); // saturates
/// assert_eq!(q.dequantize(3), 1.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantizer {
    bits: u32,
    max_mag: i32,
    step: f64,
}

impl Quantizer {
    /// Creates a quantizer with the given width and step.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= bits <= 16` and `step > 0`.
    pub fn new(bits: u32, step: f64) -> Self {
        assert!((2..=16).contains(&bits), "bits must be in 2..=16, got {bits}");
        assert!(step > 0.0 && step.is_finite(), "step must be positive, got {step}");
        Quantizer { bits, max_mag: (1 << (bits - 1)) - 1, step }
    }

    /// The paper's configuration: 6-bit messages.
    ///
    /// The step (0.25 LLR per LSB, i.e. a (6,2) fixed-point format with
    /// range ±7.75) is the best uniform choice at the paper's operating
    /// point: finer steps clip too many channel LLRs, coarser steps lose
    /// resolution in the check-node corrections.
    pub fn paper_6bit() -> Self {
        Quantizer::new(6, 0.25)
    }

    /// The paper's 5-bit comparison point. With only ±15 codes the best
    /// step is 0.5 (keeping the ±7.5 dynamic range and sacrificing
    /// resolution), which is what makes 5 bits measurably worse than 6 —
    /// the comparison of Section 2.1.
    pub fn paper_5bit() -> Self {
        Quantizer::new(5, 0.5)
    }

    /// Message width in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Largest representable magnitude, `2^(bits-1) - 1`.
    pub fn max_mag(&self) -> i32 {
        self.max_mag
    }

    /// LLR value of one LSB.
    pub fn step(&self) -> f64 {
        self.step
    }

    /// Quantizes a float LLR (round to nearest, saturate).
    pub fn quantize(&self, x: f64) -> i32 {
        let scaled = (x / self.step).round();
        scaled.clamp(-self.max_mag as f64, self.max_mag as f64) as i32
    }

    /// [`quantize`](Self::quantize) over a slice, element for element, as
    /// one loop that vectorizes: the clamp goes first (it commutes with the
    /// rounding, `max_mag` being an integer) as two compares that let a NaN
    /// through, the NaN becomes 0 as the saturating cast would have made
    /// it, and round-half-away is the truncating conversion of
    /// `v ± 0.49999999999999994`, the largest double below one half. A
    /// power-of-two step scales by its exact reciprocal.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != llrs.len()`.
    #[inline]
    pub fn quantize_into(&self, llrs: &[f64], out: &mut [i32]) {
        assert_eq!(out.len(), llrs.len(), "length mismatch");
        let rail = self.max_mag as f64;
        let round = |v: f64| {
            let v = if v > rail { rail } else { v };
            let v = if v < -rail { -rail } else { v };
            let v = if v.is_nan() { 0.0 } else { v };
            // SAFETY: `v` is finite and inside `±max_mag <= 32767`, so the
            // sum is finite and its truncation fits an `i32`. (The checked
            // `as` cast is what keeps this loop scalar.)
            unsafe { (v + 0.499_999_999_999_999_94_f64.copysign(v)).to_int_unchecked::<i32>() }
        };
        let inv = 1.0 / self.step;
        if self.step.to_bits() << 12 == 0 && self.step.is_normal() && inv.is_normal() {
            for (o, &x) in out.iter_mut().zip(llrs) {
                *o = round(x * inv);
            }
        } else {
            for (o, &x) in out.iter_mut().zip(llrs) {
                *o = round(x / self.step);
            }
        }
    }

    /// The float LLR represented by a fixed-point value.
    pub fn dequantize(&self, v: i32) -> f64 {
        v as f64 * self.step
    }

    /// Saturating addition within this quantizer's range.
    #[inline]
    pub fn sat_add(&self, a: i32, b: i32) -> i32 {
        (a + b).clamp(-self.max_mag, self.max_mag)
    }

    /// Saturates a wide accumulator back into range.
    #[inline]
    pub fn saturate(&self, x: i32) -> i32 {
        x.clamp(-self.max_mag, self.max_mag)
    }
}

/// Integer boxplus via `min` plus a small correction look-up table:
///
/// ```text
/// a ⊞ b ≈ sign(a) sign(b) min(|a|,|b|) + corr(|a+b|) - corr(|a-b|)
/// corr(z) = round( ln(1 + e^{-z·step}) / step )
/// ```
///
/// This is the standard fixed-point realization of Eq. 5 and is what the
/// hardware functional units compute; all arithmetic is integer and
/// deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct QBoxplus {
    quantizer: Quantizer,
    corr: Vec<i32>,
}

impl QBoxplus {
    /// Builds the correction table for a quantizer.
    pub fn new(quantizer: Quantizer) -> Self {
        let table_len = (4 * quantizer.max_mag() + 1) as usize;
        let corr = (0..table_len)
            .map(|z| {
                let x = z as f64 * quantizer.step();
                (((-x).exp()).ln_1p() / quantizer.step()).round() as i32
            })
            .collect();
        QBoxplus { quantizer, corr }
    }

    /// The quantizer this table was built for.
    pub fn quantizer(&self) -> &Quantizer {
        &self.quantizer
    }

    /// Decomposes the correction table over the reachable index range
    /// (`|a ± b| <= 2·max_mag` for in-range messages) into unit-step
    /// thresholds: `corr(z) == #{t in thresholds : z <= t}` for every
    /// reachable `z`.
    ///
    /// The `ln(1 + e^{-z·step})` table is non-increasing, so after rounding
    /// it is exactly a sum of indicator steps; the lane-parallel SIMD kernel
    /// evaluates the correction as a handful of broadcast compares instead
    /// of a per-lane gather. Returns `None` when the table is not
    /// representable this way — it always is for tables built by
    /// [`QBoxplus::new`], but the decomposition is verified here rather
    /// than assumed, so a future table change degrades to the scalar path
    /// instead of silently decoding wrong.
    pub fn corr_thresholds(&self) -> Option<Vec<i32>> {
        let reach = 2 * self.quantizer.max_mag() as usize;
        let corr = self.corr.get(..=reach)?;
        let mut thresholds = Vec::new();
        for v in 1..=corr[0] {
            thresholds.push(corr.iter().rposition(|&c| c >= v)? as i32);
        }
        for (z, &c) in corr.iter().enumerate() {
            let rebuilt = thresholds.iter().filter(|&&t| z as i32 <= t).count() as i32;
            if rebuilt != c {
                return None;
            }
        }
        Some(thresholds)
    }

    /// Integer boxplus of two messages.
    ///
    /// Branchless formulation of `sign·mag + corr(|a+b|) − corr(|a−b|)`
    /// clamped toward zero: the sign-conditional clamp is algebraically
    /// folded into the magnitude domain (`sign · clamp(mag + sign·c, 0,
    /// max)` expands to exactly the signed form for either sign), because a
    /// data-dependent branch on the output sign mispredicts on a large
    /// fraction of messages and this function dominates the quantized check
    /// sweep.
    #[inline]
    pub fn combine(&self, a: i32, b: i32) -> i32 {
        let sign = 1 - (((a ^ b) >> 30) & 2); // -1 if signs differ, else 1
        let mag = a.abs().min(b.abs());
        let c =
            self.corr[(a + b).unsigned_abs() as usize] - self.corr[(a - b).unsigned_abs() as usize];
        // Rounding may not flip the sign, so the magnitude-domain value is
        // clamped at zero; the upper clamp is the quantizer's saturation.
        sign * (mag + sign * c).clamp(0, self.quantizer.max_mag())
    }

    /// Extrinsic outputs for one check node, all-integer. Identical
    /// structure (and therefore identical rounding) to the float
    /// forward/backward sweep, so hardware and reference models agree
    /// exactly.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != incoming.len()`.
    pub fn extrinsic(&self, incoming: &[i32], out: &mut [i32]) {
        assert_eq!(incoming.len(), out.len(), "length mismatch");
        let d = incoming.len();
        match d {
            0 => {}
            1 => out[0] = 0,
            2 => {
                out[0] = incoming[1];
                out[1] = incoming[0];
            }
            _ => {
                out[d - 1] = incoming[d - 1];
                for i in (0..d - 1).rev() {
                    out[i] = self.combine(incoming[i], out[i + 1]);
                }
                let mut prefix = incoming[0];
                let total_suffix = out[1];
                out[0] = total_suffix;
                for i in 1..d {
                    out[i] = if i + 1 < d { self.combine(prefix, out[i + 1]) } else { prefix };
                    prefix = self.combine(prefix, incoming[i]);
                }
            }
        }
    }
}

/// The check-node arithmetic of a fixed-point decoder: the exact-rule
/// [`QBoxplus`] table (what the paper's Eq. 5 functional units compute) or
/// a shift-based normalized min-sum, which needs no LUT at all — the
/// classic area/performance knob of LDPC decoder design.
#[derive(Debug, Clone, PartialEq)]
pub enum QCheckArithmetic {
    /// Min + correction-LUT realization of Eq. 5.
    Lut(QBoxplus),
    /// Normalized min-sum with `alpha = 1 - 2^-shift` implemented as a
    /// subtract-shifted-self (no multiplier, no LUT).
    MinSumShift {
        /// Message quantizer.
        quantizer: Quantizer,
        /// Normalization shift (2 gives the common alpha = 0.75).
        shift: u32,
    },
}

impl QCheckArithmetic {
    /// The paper's LUT arithmetic at a given quantizer.
    pub fn lut(quantizer: Quantizer) -> Self {
        QCheckArithmetic::Lut(QBoxplus::new(quantizer))
    }

    /// Shift-based normalized min-sum (`alpha = 1 - 2^-shift`).
    ///
    /// # Panics
    ///
    /// Panics if `shift == 0` (alpha would be 0).
    pub fn min_sum_shift(quantizer: Quantizer, shift: u32) -> Self {
        assert!(shift > 0, "shift must be positive");
        QCheckArithmetic::MinSumShift { quantizer, shift }
    }

    /// The message quantizer in use.
    pub fn quantizer(&self) -> &Quantizer {
        match self {
            QCheckArithmetic::Lut(bp) => bp.quantizer(),
            QCheckArithmetic::MinSumShift { quantizer, .. } => quantizer,
        }
    }

    /// Extrinsic outputs for one check node under this arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != incoming.len()`.
    pub fn extrinsic(&self, incoming: &[i32], out: &mut [i32]) {
        match self {
            QCheckArithmetic::Lut(bp) => bp.extrinsic(incoming, out),
            QCheckArithmetic::MinSumShift { shift, .. } => {
                assert_eq!(incoming.len(), out.len(), "length mismatch");
                match incoming.len() {
                    0 => {}
                    1 => out[0] = 0,
                    2 => {
                        // Degree-2 pass-through is exact; no normalization.
                        out[0] = incoming[1];
                        out[1] = incoming[0];
                    }
                    _ => {
                        let mut min1 = i32::MAX;
                        let mut min2 = i32::MAX;
                        let mut min_idx = 0usize;
                        let mut sign = 1i32;
                        for (i, &x) in incoming.iter().enumerate() {
                            let mag = x.abs();
                            if mag < min1 {
                                min2 = min1;
                                min1 = mag;
                                min_idx = i;
                            } else if mag < min2 {
                                min2 = mag;
                            }
                            if x < 0 {
                                sign = -sign;
                            }
                        }
                        for (i, o) in out.iter_mut().enumerate() {
                            let mag = if i == min_idx { min2 } else { min1 };
                            let normalized = mag - (mag >> shift);
                            let self_sign = if incoming[i] < 0 { -1 } else { 1 };
                            *o = sign * self_sign * normalized;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::llr_ops::boxplus;

    #[test]
    fn quantize_rounds_and_saturates() {
        let q = Quantizer::new(6, 0.5);
        assert_eq!(q.quantize(0.0), 0);
        assert_eq!(q.quantize(0.24), 0);
        assert_eq!(q.quantize(0.26), 1);
        assert_eq!(q.quantize(-0.26), -1);
        assert_eq!(q.quantize(15.5), 31);
        assert_eq!(q.quantize(16.0), 31);
        assert_eq!(q.quantize(-1e9), -31);
    }

    #[test]
    fn quantize_into_equals_quantize_at_every_rounding_edge() {
        let ulp = |x: f64, up: bool| {
            let step = if (x > 0.0) == up { 1 } else { -1 };
            f64::from_bits((x.to_bits() as i64 + step) as u64)
        };
        for q in [Quantizer::paper_6bit(), Quantizer::paper_5bit(), Quantizer::new(6, 0.1)] {
            let below_half = 0.499_999_999_999_999_94 * q.step();
            let mut xs = vec![0.0, -0.0, below_half, -below_half, f64::NAN, -f64::NAN];
            xs.extend([f64::MIN_POSITIVE / 4.0, -f64::MIN_POSITIVE / 4.0, 5e-324, -5e-324]);
            xs.extend([1e300, -1e300, f64::INFINITY, f64::NEG_INFINITY, f64::MAX, f64::MIN]);
            for k in -q.max_mag() - 2..=q.max_mag() + 2 {
                for half in [-0.5, 0.5] {
                    let edge = (k as f64 + half) * q.step();
                    xs.extend([edge, ulp(edge, true), ulp(edge, false)]);
                }
            }
            let mut got = vec![i32::MIN; xs.len()];
            q.quantize_into(&xs, &mut got);
            for (&x, &g) in xs.iter().zip(&got) {
                assert_eq!(g, q.quantize(x), "step {} x {x:e} ({:#x})", q.step(), x.to_bits());
            }
        }
    }

    #[test]
    fn five_bit_range_is_tighter() {
        let q5 = Quantizer::paper_5bit();
        let q6 = Quantizer::paper_6bit();
        assert_eq!(q5.max_mag(), 15);
        assert_eq!(q6.max_mag(), 31);
    }

    #[test]
    fn sat_add_clamps() {
        let q = Quantizer::new(6, 0.5);
        assert_eq!(q.sat_add(30, 5), 31);
        assert_eq!(q.sat_add(-30, -5), -31);
        assert_eq!(q.sat_add(10, -3), 7);
    }

    #[test]
    fn qboxplus_tracks_float_boxplus() {
        let q = Quantizer::new(6, 0.5);
        let bp = QBoxplus::new(q);
        let mut worst: f64 = 0.0;
        for a in -20i32..=20 {
            for b in -20i32..=20 {
                let exact = boxplus(q.dequantize(a), q.dequantize(b));
                let approx = q.dequantize(bp.combine(a, b));
                worst = worst.max((exact - approx).abs());
            }
        }
        // Within one LSB of the exact rule.
        assert!(worst <= q.step() + 1e-9, "worst error {worst}");
    }

    #[test]
    fn qboxplus_sign_and_annihilator() {
        let bp = QBoxplus::new(Quantizer::new(6, 0.5));
        assert_eq!(bp.combine(0, 17), 0);
        assert!(bp.combine(5, 7) > 0);
        assert!(bp.combine(-5, 7) < 0);
        assert!(bp.combine(-5, -7) > 0);
    }

    #[test]
    fn qboxplus_magnitude_bounded_by_min() {
        let bp = QBoxplus::new(Quantizer::new(6, 0.5));
        for a in [-31, -9, -1, 2, 14, 31] {
            for b in [-31, -6, 3, 28] {
                // The correction can add at most +1 LSB over min in this
                // decomposition before clamping; exact rule never exceeds min.
                assert!(bp.combine(a, b).abs() <= a.abs().min(b.abs()) + 1);
            }
        }
    }

    #[test]
    fn extrinsic_degree2_is_exact_swap() {
        let bp = QBoxplus::new(Quantizer::new(6, 0.5));
        let mut out = [0; 2];
        bp.extrinsic(&[7, -3], &mut out);
        assert_eq!(out, [-3, 7]);
    }

    #[test]
    fn extrinsic_matches_pairwise_reduction() {
        let bp = QBoxplus::new(Quantizer::new(6, 0.5));
        let incoming = [9, -4, 17, 2, -30, 6];
        let mut out = [0; 6];
        bp.extrinsic(&incoming, &mut out);
        for i in 0..incoming.len() {
            // Reference: fold the other messages with the same
            // suffix-then-prefix association order used by `extrinsic`.
            let others: Vec<i32> =
                incoming.iter().enumerate().filter(|&(j, _)| j != i).map(|(_, &v)| v).collect();
            // extrinsic(i) = prefix(0..i) ⊞ suffix(i+1..), where prefix folds
            // left-to-right and suffix right-to-left.
            let prefix = incoming[..i].iter().copied().reduce(|a, b| bp.combine(a, b));
            let suffix = incoming[i + 1..].iter().rev().copied().reduce(|b, a| bp.combine(a, b));
            let want = match (prefix, suffix) {
                (Some(p), Some(s)) => bp.combine(p, s),
                (Some(p), None) => p,
                (None, Some(s)) => s,
                (None, None) => 0,
            };
            assert_eq!(out[i], want, "edge {i} (others {others:?})");
        }
    }

    #[test]
    #[should_panic(expected = "bits must be in 2..=16")]
    fn rejects_one_bit() {
        let _ = Quantizer::new(1, 0.5);
    }

    #[test]
    fn corr_threshold_decomposition_reconstructs_table() {
        for q in [Quantizer::paper_6bit(), Quantizer::paper_5bit(), Quantizer::new(8, 0.1)] {
            let bp = QBoxplus::new(q);
            let th = bp.corr_thresholds().expect("ln_1p tables always decompose");
            // corr(0) = round(ln 2 / step) thresholds, one per unit step.
            assert_eq!(th.len(), ((2f64).ln() / q.step()).round() as usize);
            for z in 0..=2 * q.max_mag() {
                let rebuilt = th.iter().filter(|&&t| z <= t).count() as i32;
                assert_eq!(rebuilt, bp.corr[z as usize], "bits={} z={z}", q.bits());
            }
            // Thresholds are strictly decreasing back toward zero.
            for w in th.windows(2) {
                assert!(w[0] > w[1]);
            }
        }
    }
}
