//! Shared fixtures for decoder tests (also used by downstream crates'
//! test suites). Not part of the stable API.
//!
//! Self-contained: uses a SplitMix64 PRNG and Box–Muller noise so the
//! library itself needs no RNG dependency.

#![allow(missing_docs)]

use crate::ChainPartition;
use dvbs2_ldpc::{BitVec, CodeRate, DvbS2Code, FrameSize, TannerGraph, PARALLELISM};

/// A tiny deterministic PRNG (SplitMix64) for fixtures.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn next_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// One standard-normal sample (Box–Muller, cosine branch).
    pub fn next_gaussian(&mut self) -> f64 {
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// A short-frame rate-1/2 code: small enough for fast unit tests, large
/// enough to exercise all structure.
pub fn small_code() -> (DvbS2Code, TannerGraph) {
    let code = DvbS2Code::new(CodeRate::R1_2, FrameSize::Short).unwrap();
    let graph = code.tanner_graph();
    (code, graph)
}

/// The 360-lane cut of a quasi-cyclic IRA graph with every check's inputs
/// in lane 0's graph order carried along the code's rotation. This is the
/// structure of a `dvbs2_hardware::hw_chain_partition` order (which this
/// crate cannot depend on): the lane planes find their rotation plan and
/// run the paths the served decoder runs. Ascending-variable order does
/// not have it, because it flips where a rotation wraps.
pub fn rotation_partition(graph: &TannerGraph) -> ChainPartition {
    let order =
        crate::qsimd::rotation_order(graph).expect("the graph is quasi-cyclic with lifting 360");
    ChainPartition::new(PARALLELISM, Some(order))
}

/// Noise-free channel LLRs for a codeword: `+mag` for bit 0, `-mag` for 1.
pub fn llrs_for_codeword(cw: &BitVec, mag: f64) -> Vec<f64> {
    cw.iter().map(|b| if b { -mag } else { mag }).collect()
}

/// Encodes a random message and passes it through BPSK + AWGN at the given
/// `Eb/N0`, returning the codeword and the channel LLRs.
pub fn noisy_llrs(code: &DvbS2Code, ebn0_db: f64, seed: u64) -> (BitVec, Vec<f64>) {
    let params = *code.params();
    let enc = code.encoder().unwrap();
    let mut rng = SplitMix64(seed);
    let msg: BitVec = (0..params.k).map(|_| rng.next_bool()).collect();
    let cw = enc.encode(&msg).unwrap();
    let rate = params.k as f64 / params.n as f64;
    let sigma2 = 1.0 / (2.0 * rate * 10f64.powf(ebn0_db / 10.0));
    let sigma = sigma2.sqrt();
    let llrs = cw
        .iter()
        .map(|b| {
            let x = if b { -1.0 } else { 1.0 };
            let y = x + sigma * rng.next_gaussian();
            2.0 * y / sigma2
        })
        .collect();
    (cw, llrs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64(1);
        let mut b = SplitMix64(1);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn noisy_llrs_mostly_agree_with_codeword_at_high_snr() {
        let (code, _) = small_code();
        let (cw, llrs) = noisy_llrs(&code, 8.0, 3);
        let agreements = llrs.iter().enumerate().filter(|&(i, &l)| (l < 0.0) == cw.get(i)).count();
        assert!(agreements as f64 / llrs.len() as f64 > 0.99);
    }
}
