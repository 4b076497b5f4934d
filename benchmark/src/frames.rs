//! Seeded input frames. The program under test only ever sees the LLRs
//! made here; the transmitted codeword stays behind as the answer key.

use dvbs2::channel::{mix_seed, AwgnChannel, Modulation};
use dvbs2::ldpc::{BitVec, Encoder};
use dvbs2::Dvbs2System;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;

/// One generated frame: channel LLRs in, transmitted codeword as the key.
pub struct Frame {
    pub llrs: Vec<f64>,
    pub codeword: BitVec,
}

/// Generator-side time, split by the layer that did the work.
#[derive(Debug, Default, Clone, Copy)]
pub struct GenTimes {
    pub frames: u64,
    pub encode_ns: u64,
    pub transmit_ns: u64,
    pub demap_ns: u64,
}

impl GenTimes {
    pub fn merge(&mut self, other: GenTimes) {
        self.frames += other.frames;
        self.encode_ns += other.encode_ns;
        self.transmit_ns += other.transmit_ns;
        self.demap_ns += other.demap_ns;
    }

    pub fn total_s(&self) -> f64 {
        (self.encode_ns + self.transmit_ns + self.demap_ns) as f64 / 1e9
    }

    fn per_frame_us(&self, ns: u64) -> f64 {
        ns as f64 / 1e3 / self.frames.max(1) as f64
    }

    pub fn encode_us_per_frame(&self) -> f64 {
        self.per_frame_us(self.encode_ns)
    }

    pub fn transmit_us_per_frame(&self) -> f64 {
        self.per_frame_us(self.transmit_ns)
    }

    pub fn demap_us_per_frame(&self) -> f64 {
        self.per_frame_us(self.demap_ns)
    }
}

/// Makes frames for one code point: random message → encode → modulate →
/// AWGN → demap, the steps of `Dvbs2System::transmit_frame` taken one at a
/// time so each layer's share of generator time is known.
pub struct FrameSource<'a> {
    system: &'a Dvbs2System,
    encoder: Encoder,
    modulation: Modulation,
    ebn0_db: f64,
    pub times: GenTimes,
}

impl<'a> FrameSource<'a> {
    /// # Panics
    ///
    /// Panics for an interleaved modulation (8PSK and up): every workload
    /// uses BPSK or QPSK, whose LLRs need no de-interleaving.
    pub fn new(system: &'a Dvbs2System, ebn0_db: f64) -> Self {
        let modulation = system.config().modulation;
        assert!(
            modulation.interleaver(system.params().n).is_none(),
            "the frame source does not interleave"
        );
        let encoder = system.code().encoder().expect("the system's code has an encoder");
        FrameSource { system, encoder, modulation, ebn0_db, times: GenTimes::default() }
    }

    /// The frame of `frame_seed`: the same seed gives the same frame.
    pub fn frame(&mut self, frame_seed: u64) -> Frame {
        let mut rng = SmallRng::seed_from_u64(frame_seed);
        let started = Instant::now();
        let message = self.encoder.random_message(&mut rng);
        let codeword = self.encoder.encode(&message).expect("message has length K");
        let encoded = Instant::now();
        let mut samples = self.modulation.modulate(&codeword);
        let sigma = self.system.noise_sigma(self.ebn0_db);
        AwgnChannel::new(sigma).corrupt(&mut rng, &mut samples);
        let transmitted = Instant::now();
        let llrs = self.modulation.demap(&samples, sigma);
        let demapped = Instant::now();
        self.times.frames += 1;
        self.times.encode_ns += (encoded - started).as_nanos() as u64;
        self.times.transmit_ns += (transmitted - encoded).as_nanos() as u64;
        self.times.demap_ns += (demapped - transmitted).as_nanos() as u64;
        Frame { llrs, codeword }
    }
}

/// The seed of pool frame `index` of input class `class` (a MODCOD slot or
/// a lane), attempt `attempt`, under the run's `--seed`.
pub fn frame_seed(seed: u64, class: u64, index: u64, attempt: u64) -> u64 {
    mix_seed(mix_seed(seed, class << 32 | index), attempt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvbs2::ldpc::{CodeRate, FrameSize};
    use dvbs2::SystemConfig;

    #[test]
    fn frames_repeat_per_seed_and_match_the_library_generator() {
        let system = Dvbs2System::new(SystemConfig {
            rate: CodeRate::R1_2,
            frame: FrameSize::Short,
            modulation: Modulation::Qpsk,
            ..SystemConfig::default()
        })
        .unwrap();
        let mut source = FrameSource::new(&system, 2.0);
        let a = source.frame(frame_seed(7, 1, 3, 0));
        let b = source.frame(frame_seed(7, 1, 3, 0));
        let c = source.frame(frame_seed(7, 1, 4, 0));
        assert_eq!(a.llrs, b.llrs);
        assert_eq!(a.codeword, b.codeword);
        assert_ne!(a.llrs, c.llrs);
        assert_eq!(source.times.frames, 3);
        // Step by step or in one call, the library makes the same frame.
        let mut rng = SmallRng::seed_from_u64(frame_seed(7, 1, 3, 0));
        let reference = system.transmit_frame(&mut rng, 2.0);
        assert_eq!(reference.codeword, a.codeword);
        assert_eq!(reference.llrs, a.llrs);
    }
}
