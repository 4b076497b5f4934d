//! End-to-end DVB-S2 LDPC decoding — the facade over the workspace that
//! reproduces *"A Synthesizable IP Core for DVB-S2 LDPC Code Decoding"*
//! (Kienle, Brack, Wehn — DATE 2005).
//!
//! The sub-crates remain available as modules:
//!
//! * [`ldpc`] — code construction, Tanner graph, IRA encoder;
//! * [`channel`] — modulation, AWGN, Shannon limits, Monte-Carlo harness;
//! * [`decoder`] — flooding/zigzag and fixed-point decoders;
//! * [`hardware`] — the cycle-accurate IP-core model, throughput and area.
//!
//! [`Dvbs2System`] wires a complete transmit→receive chain for simulation.
//!
//! # Example
//!
//! ```
//! use dvbs2::{DecoderKind, Dvbs2System, SystemConfig};
//! use dvbs2::ldpc::{CodeRate, FrameSize};
//! # fn main() -> Result<(), dvbs2::ldpc::CodeError> {
//! let system = Dvbs2System::new(SystemConfig {
//!     rate: CodeRate::R1_2,
//!     frame: FrameSize::Short,
//!     ..SystemConfig::default()
//! })?;
//! let mut decoder = system.make_decoder();
//! let mut rng = rand::rng();
//! let frame = system.transmit_frame(&mut rng, 3.0);
//! let out = decoder.decode(&frame.llrs);
//! assert_eq!(out.bits, frame.codeword);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub use dvbs2_bch as bch;
pub use dvbs2_channel as channel;
pub use dvbs2_decoder as decoder;
pub use dvbs2_hardware as hardware;
pub use dvbs2_ldpc as ldpc;

mod fec;
pub mod framing;
mod modcod;
pub mod oracle;
pub use fec::{FecChain, FecDecodeResult};
pub use modcod::{DecoderProfile, Modcod, ModcodEntry, ModcodTable};

/// The workspace's most commonly used items in one import.
pub mod prelude {
    pub use crate::{
        DecoderKind, DecoderProfile, Dvbs2System, FecChain, FecDecodeResult, Modcod, ModcodEntry,
        ModcodTable, SystemConfig, TransmittedFrame,
    };
    pub use dvbs2_bch::{BchCode, BchDecoder, BchEncoder};
    pub use dvbs2_channel::{
        mix_seed, monte_carlo_frames, noise_sigma, shannon_limit_biawgn_db, AwgnChannel,
        BerEstimate, FrameOutcome, Modulation, StopRule,
    };
    pub use dvbs2_decoder::{
        CheckRule, DecodeResult, Decoder, DecoderConfig, FloodingDecoder, Precision,
        QuantizedZigzagDecoder, Quantizer, SimdTier, ZigzagDecoder,
    };
    pub use dvbs2_hardware::{
        optimize_schedule, AnnealOptions, AreaModel, CnSchedule, ConnectivityRom, CoreConfig,
        HardwareDecoder, MemoryConfig, ThroughputModel,
    };
    pub use dvbs2_ldpc::{BitVec, CodeParams, CodeRate, DvbS2Code, Encoder, FrameSize};
}

use dvbs2_channel::{AwgnChannel, FrameOutcome, Modulation};
use dvbs2_decoder::{
    Decoder, DecoderConfig, FloodingDecoder, QCheckArithmetic, QuantizedZigzagDecoder, Quantizer,
    ZigzagDecoder,
};
use dvbs2_hardware::{hw_chain_partition, CnSchedule, ConnectivityRom};
use dvbs2_ldpc::{
    BitVec, CodeError, CodeParams, CodeRate, DvbS2Code, Encoder, FrameSize, TannerGraph,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Which decoder the system instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum DecoderKind {
    /// Conventional flooding schedule (Fig. 2a baseline).
    Flooding,
    /// The paper's optimized zigzag schedule (Fig. 2b).
    #[default]
    Zigzag,
    /// The paper's datapath with the given message quantizer: the zigzag
    /// schedule cut into the core's 360 functional-unit sub-chains, each
    /// check's inputs in the natural check-node schedule's order, on the
    /// SIMD lane planes, whose plan is read from the graph's quasi-cyclic
    /// record ([`QuantizedZigzagDecoder::natural_lanes`]; a quantizer wider
    /// than the lanes' word takes the scalar fused sweep over
    /// `hw_chain_partition`'s edge order). With
    /// [`Quantizer::paper_6bit`] it is word-, iteration- and
    /// convergence-equal to the hardware `GoldenModel` on that schedule,
    /// and it is what every MODCOD slot serves by default
    /// ([`DecoderProfile::default_for`]). The one-lane sequential zigzag is
    /// [`QuantizedZigzagDecoder::new`], not a kind.
    Quantized(Quantizer),
    /// Hard-decision Gallager-B bit flipping (baseline, several dB worse).
    BitFlipping,
}

/// Configuration of a complete simulation chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Code rate.
    pub rate: CodeRate,
    /// Frame size.
    pub frame: FrameSize,
    /// Modulation (per-dimension equivalent under AWGN).
    pub modulation: Modulation,
    /// Decoder selection.
    pub decoder: DecoderKind,
    /// Iteration policy and check rule.
    pub decoder_config: DecoderConfig,
    /// Base seed for reproducible simulations.
    pub seed: u64,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            rate: CodeRate::R1_2,
            frame: FrameSize::Normal,
            modulation: Modulation::Bpsk,
            decoder: DecoderKind::default(),
            decoder_config: DecoderConfig::default(),
            seed: 0xD5B2,
        }
    }
}

/// One transmitted frame: the reference codeword and its received LLRs.
#[derive(Debug, Clone, PartialEq)]
pub struct TransmittedFrame {
    /// The encoded codeword (ground truth).
    pub codeword: BitVec,
    /// Channel LLRs after modulation, AWGN and demapping.
    pub llrs: Vec<f64>,
}

/// A full encode → modulate → AWGN → demap → decode chain.
#[derive(Debug, Clone)]
pub struct Dvbs2System {
    config: SystemConfig,
    code: DvbS2Code,
    graph: Arc<TannerGraph>,
    encoder: Encoder,
}

impl Dvbs2System {
    /// Builds the system for a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError`] if the rate/frame combination is undefined.
    pub fn new(config: SystemConfig) -> Result<Self, CodeError> {
        let code = DvbS2Code::new(config.rate, config.frame)?;
        let graph = Arc::new(code.tanner_graph());
        let encoder = code.encoder()?;
        Ok(Dvbs2System { config, code, graph, encoder })
    }

    /// The configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The underlying code.
    pub fn code(&self) -> &DvbS2Code {
        &self.code
    }

    /// Code parameters (Table 1 row).
    pub fn params(&self) -> &CodeParams {
        self.code.params()
    }

    /// The shared Tanner graph.
    pub fn graph(&self) -> &Arc<TannerGraph> {
        &self.graph
    }

    /// Creates a fresh decoder instance (one per thread; decoders own their
    /// scratch state).
    pub fn make_decoder(&self) -> Box<dyn Decoder + Send> {
        self.make_decoder_for(self.config.decoder, self.config.decoder_config)
    }

    /// Creates a decoder of an explicit kind/config over this system's
    /// graph, independent of the configured [`SystemConfig::decoder`] — the
    /// MODCOD dispatch table uses this to attach per-MODCOD decoder
    /// profiles to one shared code context. The one place a
    /// [`DecoderKind`] becomes a decoder.
    ///
    /// Every call pays for its own decoder and nothing else is kept here:
    /// the lane and rotation plans are read from the shared graph's
    /// quasi-cyclic record, a few hundred columns, so a decoder costs its
    /// scratch.
    pub fn make_decoder_for(
        &self,
        kind: DecoderKind,
        config: DecoderConfig,
    ) -> Box<dyn Decoder + Send> {
        let graph = Arc::clone(&self.graph);
        match kind {
            DecoderKind::Flooding => Box::new(FloodingDecoder::new(graph, config)),
            DecoderKind::Zigzag => Box::new(ZigzagDecoder::new(graph, config)),
            DecoderKind::Quantized(q) => {
                let lanes = QuantizedZigzagDecoder::natural_lanes(
                    Arc::clone(&graph),
                    QCheckArithmetic::lut(q),
                    config,
                );
                match lanes {
                    Some(lanes) => Box::new(lanes),
                    // Wider than the lanes' word: the scalar fused sweep,
                    // which needs the schedule as an explicit edge order.
                    None => {
                        let rom = ConnectivityRom::build(self.code.params(), self.code.table());
                        let partition =
                            hw_chain_partition(&rom, &CnSchedule::natural(&rom), &graph);
                        Box::new(QuantizedZigzagDecoder::with_partition(
                            graph,
                            QCheckArithmetic::lut(q),
                            config,
                            partition,
                        ))
                    }
                }
            }
            DecoderKind::BitFlipping => {
                Box::new(dvbs2_decoder::BitFlippingDecoder::new(graph, config))
            }
        }
    }

    /// Noise standard deviation for an `Eb/N0` under this configuration.
    ///
    /// Uses the *true* code rate `K/N` (short frames have a lower true rate
    /// than their nominal label, e.g. "1/2" short is really 4/9) and the
    /// configured modulation's normalization.
    pub fn noise_sigma(&self, ebn0_db: f64) -> f64 {
        let p = self.code.params();
        self.config.modulation.noise_sigma(ebn0_db, p.k as f64 / p.n as f64)
    }

    /// Encodes a random message and passes it through the channel.
    ///
    /// For the symbol modulations (8PSK, 16APSK, 32APSK) the DVB-S2 block
    /// bit interleaver is applied before mapping and inverted on the
    /// received LLRs, as the standard specifies.
    pub fn transmit_frame<R: Rng + ?Sized>(&self, rng: &mut R, ebn0_db: f64) -> TransmittedFrame {
        self.transmit_frame_with(rng, ebn0_db, self.config.modulation)
    }

    /// [`transmit_frame`](Self::transmit_frame) for a *specific* message of
    /// length `K` instead of a random one — the service tier's BBFRAME
    /// round-trip uses this to carry assembled baseband frames through the
    /// channel.
    ///
    /// # Panics
    ///
    /// Panics unless `message.len() == K`.
    pub fn transmit_message<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        ebn0_db: f64,
        message: &BitVec,
    ) -> TransmittedFrame {
        let codeword = self.encoder.encode(message).expect("message has length K");
        self.transmit_codeword(rng, ebn0_db, self.config.modulation, codeword)
    }

    /// [`transmit_frame`](Self::transmit_frame) with an explicit modulation,
    /// overriding the configured one — the differential oracle uses this to
    /// fuzz modulations without rebuilding the (cache-shared) system.
    pub fn transmit_frame_with<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        ebn0_db: f64,
        modulation: Modulation,
    ) -> TransmittedFrame {
        let msg = self.encoder.random_message(rng);
        let codeword = self.encoder.encode(&msg).expect("message has length K");
        self.transmit_codeword(rng, ebn0_db, modulation, codeword)
    }

    fn transmit_codeword<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        ebn0_db: f64,
        modulation: Modulation,
        codeword: BitVec,
    ) -> TransmittedFrame {
        let interleaver = modulation.interleaver(codeword.len());
        let mapped: BitVec = match &interleaver {
            Some(il) => {
                il.interleave(&codeword.iter().collect::<Vec<bool>>()).into_iter().collect()
            }
            None => codeword.clone(),
        };
        let mut samples = modulation.modulate(&mapped);
        let p = self.code.params();
        let sigma = modulation.noise_sigma(ebn0_db, p.k as f64 / p.n as f64);
        AwgnChannel::new(sigma).corrupt(rng, &mut samples);
        let llrs = modulation.demap(&samples, sigma);
        let llrs = match &interleaver {
            Some(il) => il.deinterleave(&llrs),
            None => llrs,
        };
        TransmittedFrame { codeword, llrs }
    }

    /// Frames per work-stealing chunk in [`simulate_ber`](Self::simulate_ber).
    ///
    /// Part of the run's deterministic identity: the early-out merges whole
    /// chunks, so changing this value changes how many frames a
    /// target-frame-errors run covers (never *which* noise realization a
    /// frame sees — that depends only on the seed and the frame index).
    pub const BER_CHUNK_FRAMES: usize = 8;

    /// Estimates BER/FER at one `Eb/N0` with the chunked work-stealing
    /// Monte-Carlo harness.
    ///
    /// Every global frame index gets its own RNG stream derived from the
    /// configured seed, so the estimate is bit-reproducible for a given
    /// seed regardless of `threads` or scheduling; with a
    /// `target_frame_errors` early-out, at most one in-flight chunk per
    /// thread is wasted.
    pub fn simulate_ber(
        &self,
        ebn0_db: f64,
        stop: dvbs2_channel::StopRule,
        threads: usize,
    ) -> dvbs2_channel::BerEstimate {
        let k = self.params().k;
        let base = self.config.seed ^ ebn0_db.to_bits();
        dvbs2_channel::monte_carlo_frames(threads, stop, Self::BER_CHUNK_FRAMES, |_thread| {
            let mut decoder = self.make_decoder();
            move |frame: u64| {
                let mut rng = SmallRng::seed_from_u64(dvbs2_channel::mix_seed(base, frame));
                let tx = self.transmit_frame(&mut rng, ebn0_db);
                let out = decoder.decode(&tx.llrs);
                let bit_errors = out.info_bit_errors(&tx.codeword, k);
                FrameOutcome {
                    bit_errors,
                    info_bits: k,
                    frame_error: bit_errors > 0,
                    iterations: out.iterations,
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvbs2_channel::StopRule;

    fn short_system(decoder: DecoderKind) -> Dvbs2System {
        Dvbs2System::new(SystemConfig {
            frame: FrameSize::Short,
            decoder,
            ..SystemConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn every_decoder_kind_decodes_a_clean_frame() {
        // Gallager-B decides on hard bits, several dB behind the soft
        // decoders: it gets a frame far above its waterfall.
        for (kind, ebn0_db) in [
            (DecoderKind::Flooding, 3.5),
            (DecoderKind::Zigzag, 3.5),
            (DecoderKind::Quantized(Quantizer::paper_6bit()), 3.5),
            (DecoderKind::BitFlipping, 9.0),
        ] {
            let system = short_system(kind);
            let mut rng = SmallRng::seed_from_u64(1);
            let frame = system.transmit_frame(&mut rng, ebn0_db);
            let out = system.make_decoder().decode(&frame.llrs);
            assert_eq!(out.bits, frame.codeword, "{kind:?}");
        }
    }

    #[test]
    fn apsk_frames_decode_at_high_snr() {
        // The interleaved APSK transmit paths feed decodable LLRs: at a
        // comfortable Eb/N0 above each constellation's waterfall the
        // decoder recovers the codeword exactly.
        for (modulation, ebn0_db) in [(Modulation::Apsk16, 9.0), (Modulation::Apsk32, 12.0)] {
            let system = Dvbs2System::new(SystemConfig {
                frame: FrameSize::Short,
                modulation,
                ..SystemConfig::default()
            })
            .unwrap();
            let mut rng = SmallRng::seed_from_u64(11);
            let frame = system.transmit_frame(&mut rng, ebn0_db);
            assert_eq!(frame.llrs.len(), system.params().n, "{modulation:?}");
            let out = system.make_decoder().decode(&frame.llrs);
            assert_eq!(out.bits, frame.codeword, "{modulation:?}");
        }
    }

    #[test]
    fn transmit_message_carries_the_chosen_payload() {
        let system = short_system(DecoderKind::Zigzag);
        let k = system.params().k;
        let message: BitVec = (0..k).map(|i| i % 5 == 2).collect();
        let mut rng = SmallRng::seed_from_u64(2);
        let frame = system.transmit_message(&mut rng, 3.5, &message);
        // The systematic prefix of the codeword is the message itself.
        for i in 0..k {
            assert_eq!(frame.codeword.get(i), message.get(i), "bit {i}");
        }
        let out = system.make_decoder().decode(&frame.llrs);
        assert_eq!(out.bits, frame.codeword);
    }

    #[test]
    fn simulate_ber_is_reproducible() {
        let system = short_system(DecoderKind::Zigzag);
        let a = system.simulate_ber(2.0, StopRule::frames(4), 2);
        let b = system.simulate_ber(2.0, StopRule::frames(4), 2);
        assert_eq!(a, b);
    }

    #[test]
    fn simulate_ber_is_independent_of_thread_count() {
        // Per-frame RNG streams + deterministic chunk-prefix early-out: the
        // counts must be identical however the frames are scheduled.
        let system = short_system(DecoderKind::Zigzag);
        let one = system.simulate_ber(1.5, StopRule::frames(6), 1);
        let four = system.simulate_ber(1.5, StopRule::frames(6), 4);
        assert_eq!(one, four);
    }

    #[test]
    fn ber_improves_with_snr() {
        let system = short_system(DecoderKind::Zigzag);
        let low = system.simulate_ber(0.0, StopRule::frames(6), 2);
        let high = system.simulate_ber(3.5, StopRule::frames(6), 2);
        assert!(high.ber() <= low.ber(), "{} vs {}", high.ber(), low.ber());
        assert_eq!(high.frame_errors, 0, "3.5 dB frames must be clean");
    }
}
