//! The complete DVB-S2 FEC chain: outer BCH + inner LDPC.
//!
//! The paper's IP core decodes the inner LDPC code; in the standard it sits
//! between a BCH outer decoder and the demapper. [`FecChain`] wires the
//! whole path: `K_bch` data bits → BCH encode → LDPC encode → channel →
//! LDPC decode → BCH correct → data. The outer code corrects up to `t`
//! residual errors per frame, which is what removes the LDPC error floor
//! at quasi-error-free operating points.

use crate::{Dvbs2System, SystemConfig};
use dvbs2_bch::{BchCode, BchDecoder, BchEncoder};
use dvbs2_decoder::Decoder;
use dvbs2_ldpc::{BitVec, CodeError, DvbS2Code, TannerGraph};
use std::sync::Arc;

/// Result of decoding one FEC frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FecDecodeResult {
    /// The recovered `K_bch` data bits (best effort when `bch_corrected`
    /// is `None`).
    pub data: BitVec,
    /// Whether the LDPC inner decoder converged to a codeword.
    pub ldpc_converged: bool,
    /// LDPC iterations spent.
    pub ldpc_iterations: usize,
    /// Errors corrected by the outer BCH decoder, or `None` if the residual
    /// pattern exceeded its capability `t`.
    pub bch_corrected: Option<usize>,
}

/// The concatenated BCH + LDPC forward-error-correction chain.
///
/// For Monte-Carlo error-rate runs over this chain, drive it from
/// [`dvbs2_channel::monte_carlo_frames`] (or
/// [`crate::Dvbs2System::simulate_ber`], which wraps it): the chunked API is
/// bit-reproducible for a given seed at any thread count.
pub struct FecChain {
    /// The inner code's context; its `make_decoder` built `inner`.
    system: Dvbs2System,
    bch_encoder: BchEncoder,
    bch_decoder: BchDecoder,
    inner: Box<dyn Decoder + Send>,
}

impl std::fmt::Debug for FecChain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FecChain")
            .field("rate", &self.system.config().rate)
            .field("frame", &self.system.config().frame)
            .field("inner", &self.inner.name())
            .finish()
    }
}

impl FecChain {
    /// Builds the chain for a system configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError`] for undefined rate/frame combinations.
    pub fn new(config: SystemConfig) -> Result<Self, CodeError> {
        let system = Dvbs2System::new(config)?;
        let bch = BchCode::new(config.rate, config.frame)?;
        debug_assert_eq!(bch.params().n, system.params().k);
        Ok(FecChain {
            bch_encoder: BchEncoder::new(bch.clone()),
            bch_decoder: BchDecoder::new(bch),
            inner: system.make_decoder(),
            system,
        })
    }

    /// Number of data bits per FEC frame (`K_bch`).
    pub fn data_len(&self) -> usize {
        self.bch_encoder.code().params().k
    }

    /// Number of channel bits per FEC frame (`N_ldpc`).
    pub fn frame_len(&self) -> usize {
        self.system.params().n
    }

    /// The inner LDPC code.
    pub fn ldpc(&self) -> &DvbS2Code {
        self.system.code()
    }

    /// The shared Tanner graph of the inner code.
    pub fn graph(&self) -> &Arc<TannerGraph> {
        self.system.graph()
    }

    /// Overall information rate `K_bch / N_ldpc`.
    pub fn rate(&self) -> f64 {
        self.data_len() as f64 / self.frame_len() as f64
    }

    /// Encodes `K_bch` data bits into an `N_ldpc`-bit channel frame.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::MessageLength`] on a wrong-length input.
    pub fn encode(&self, data: &BitVec) -> Result<BitVec, CodeError> {
        let bch_word = self.bch_encoder.encode(data)?;
        self.system.encoder.encode(&bch_word)
    }

    /// Decodes one frame of channel LLRs through both codes.
    ///
    /// # Panics
    ///
    /// Panics if `llrs.len() != N_ldpc`.
    pub fn decode(&mut self, llrs: &[f64]) -> FecDecodeResult {
        let inner = self.inner.decode(llrs);
        let k_ldpc = self.system.params().k;
        let received: BitVec = (0..k_ldpc).map(|i| inner.bits.get(i)).collect();
        match self.bch_decoder.decode(&received) {
            Ok(outcome) => {
                let data = (0..self.data_len()).map(|i| outcome.codeword.get(i)).collect();
                FecDecodeResult {
                    data,
                    ldpc_converged: inner.converged,
                    ldpc_iterations: inner.iterations,
                    bch_corrected: Some(outcome.corrected),
                }
            }
            Err(_) => FecDecodeResult {
                data: (0..self.data_len()).map(|i| received.get(i)).collect(),
                ldpc_converged: inner.converged,
                ldpc_iterations: inner.iterations,
                bch_corrected: None,
            },
        }
    }

    /// Draws a random data block.
    pub fn random_data<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> BitVec {
        self.bch_encoder.random_message(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dvbs2System;
    use dvbs2_channel::{noise_sigma, AwgnChannel, Modulation};
    use dvbs2_ldpc::{CodeRate, FrameSize};
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    fn chain() -> FecChain {
        FecChain::new(SystemConfig {
            rate: CodeRate::R1_2,
            frame: FrameSize::Short,
            ..SystemConfig::default()
        })
        .unwrap()
    }

    fn transmit(chain: &FecChain, rng: &mut impl Rng, ebn0_db: f64) -> (BitVec, Vec<f64>) {
        let data = chain.random_data(rng);
        let frame = chain.encode(&data).unwrap();
        let mut samples = Modulation::Bpsk.modulate(&frame);
        let sigma = noise_sigma(ebn0_db, chain.rate());
        AwgnChannel::new(sigma).corrupt(rng, &mut samples);
        (data, Modulation::Bpsk.demap(&samples, sigma))
    }

    #[test]
    fn clean_chain_round_trips() {
        let mut c = chain();
        let mut rng = SmallRng::seed_from_u64(1);
        let (data, llrs) = transmit(&c, &mut rng, 4.0);
        let out = c.decode(&llrs);
        assert_eq!(out.bch_corrected, Some(0));
        assert!(out.ldpc_converged);
        assert_eq!(out.data, data);
    }

    #[test]
    fn bch_cleans_residual_ldpc_errors() {
        // Force residual errors by capping the LDPC decoder very low, then
        // let the outer code finish the job when few bits remain wrong.
        let mut c = FecChain::new(SystemConfig {
            rate: CodeRate::R1_2,
            frame: FrameSize::Short,
            decoder_config: dvbs2_decoder::DecoderConfig::default().with_max_iterations(30),
            ..SystemConfig::default()
        })
        .unwrap();
        let mut rng = SmallRng::seed_from_u64(22);
        let mut cleaned = 0usize;
        for _ in 0..20 {
            let (data, llrs) = transmit(&c, &mut rng, 1.05);
            let out = c.decode(&llrs);
            if out.bch_corrected.unwrap_or(0) > 0 && out.data == data {
                cleaned += 1;
            }
        }
        // Near threshold at least some frames must be rescued by BCH.
        // (Statistically stable for the fixed seed.)
        assert!(cleaned > 0, "expected BCH to clean at least one frame");
    }

    #[test]
    fn rates_compose() {
        let c = chain();
        let expected = c.data_len() as f64 / c.frame_len() as f64;
        assert!((c.rate() - expected).abs() < 1e-12);
        assert_eq!(c.frame_len(), 16_200);
        assert_eq!(c.data_len(), 7_032);
    }

    #[test]
    fn bbframe_travels_the_whole_stack() {
        // User bits -> BBFRAME -> BCH -> LDPC -> channel -> LDPC -> BCH ->
        // BBFRAME -> user bits: the complete DVB-S2 transmit/receive path.
        use crate::framing::{assemble_bbframe, extract_bbframe, BbHeader};
        let mut c = chain();
        let payload: BitVec = (0..2000).map(|i| i % 11 == 0).collect();
        let header = BbHeader { matype: 0xC000, upl: 1504, sync: 0x47, ..BbHeader::default() };
        let data = assemble_bbframe(header, &payload, c.data_len()).unwrap();
        let frame = c.encode(&data).unwrap();
        let mut samples = Modulation::Bpsk.modulate(&frame);
        let sigma = noise_sigma(2.5, c.rate());
        let mut rng = SmallRng::seed_from_u64(8);
        AwgnChannel::new(sigma).corrupt(&mut rng, &mut samples);
        let out = c.decode(&Modulation::Bpsk.demap(&samples, sigma));
        assert_eq!(out.bch_corrected, Some(0));
        let (recovered_header, recovered) = extract_bbframe(&out.data).unwrap();
        assert_eq!(recovered_header.sync, 0x47);
        assert_eq!(recovered, payload);
    }

    #[test]
    fn data_and_system_frames_are_compatible() {
        // The FEC chain's LDPC layer matches Dvbs2System's code.
        let c = chain();
        let sys = Dvbs2System::new(SystemConfig {
            rate: CodeRate::R1_2,
            frame: FrameSize::Short,
            ..SystemConfig::default()
        })
        .unwrap();
        assert_eq!(sys.params().k, c.ldpc().params().k);
    }
}
