//! Communications substrate for the DVB-S2 LDPC decoder reproduction:
//! modulation, AWGN, LLR conventions, channel capacity, and a multi-threaded
//! Monte-Carlo BER/FER harness.
//!
//! # Example: one noisy transmission
//!
//! ```
//! use dvbs2_channel::{AwgnChannel, Modulation, noise_sigma};
//! use dvbs2_ldpc::BitVec;
//! use rand::{SeedableRng, rngs::SmallRng};
//!
//! let bits = BitVec::from_bools([false, true, true, false]);
//! let mut samples = Modulation::Bpsk.modulate(&bits);
//! let sigma = noise_sigma(1.0, 0.5);
//! let mut rng = SmallRng::seed_from_u64(1);
//! AwgnChannel::new(sigma).corrupt(&mut rng, &mut samples);
//! let llrs = Modulation::Bpsk.demap(&samples, sigma);
//! assert_eq!(llrs.len(), 4);
//! ```

#![warn(missing_docs)]

mod apsk;
mod awgn;
mod capacity;
mod interleave;
mod llr;
mod modem;
mod sim;
mod stream;

pub use apsk::Constellation;
pub use awgn::{AwgnChannel, GaussianSource};
pub use capacity::{
    biawgn_capacity, shannon_limit_biawgn_db, shannon_limit_unconstrained_db,
    ultimate_shannon_limit_db,
};
pub use interleave::BlockInterleaver;
pub use llr::{bpsk_llr, db_to_linear, ebn0_to_esn0_db, linear_to_db, noise_sigma};
pub use modem::{Modulation, APSK16_GAMMA, APSK32_GAMMA};
pub use sim::{default_threads, mix_seed, monte_carlo_frames, BerEstimate, FrameOutcome, StopRule};
pub use stream::{
    FrameStream, FrameTag, LlrFrame, LlrSource, MultiStreamSource, StreamKey, TaggedLlrFrame,
};
