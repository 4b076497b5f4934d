//! Differential decode oracle: cross-decoder equivalence fuzzing.
//!
//! The paper's evaluation rests on one invariant — the cycle-accurate core
//! is bit-identical to the algorithmic decoders — and PR 1 added a second
//! (f32) numeric path whose agreement was sampled, not enforced. This module
//! turns the invariant into a standing oracle: a seeded case generator
//! (rate × frame size × Eb/N0 × quantizer × arithmetic) runs one frame
//! through the full decoder matrix and checks explicit pairwise contracts.
//!
//! # Equivalence classes
//!
//! | class | members | contract |
//! |---|---|---|
//! | timed/untimed | [`HardwareDecoder`] ↔ [`GoldenModel`] | full [`DecodeResult`] equality plus per-iteration message-digest equality, bit for bit, converged or not, **with or without an injected [`RamFault`]** (both models carry the same fault) |
//! | boundary-exact | golden ↔ [`QuantizedZigzagDecoder`] in hardware-partitioned mode ([`hw_chain_partition`]) | full [`DecodeResult`] equality — the partition replays the 360 sub-chains and the schedule's per-check input order |
//! | fixed-point | golden ↔ sequential [`QuantizedZigzagDecoder`] (LUT) | agreement on *decoded words* only — the parallel golden model deliberately deviates from the sequential zigzag at the 360 chain boundaries |
//! | float schedules | flooding / zigzag (f64) | all converged members produce the same codeword |
//! | precision | engine f32 ↔ f64 (same schedule/rule) | both-converged ⇒ same codeword |
//! | bit flipping | [`BitFlippingDecoder`] alone | iteration cap; converged ⇒ clean syndrome and syndrome weight not above the channel hard decisions' — *never* word agreement (see the matrix class) |
//! | everyone | every soft decoder | `converged` ⇒ clean syndrome; iterations ≤ cap |
//! | timing | hardware cycle stats | must reproduce the [`simulate_cn_phase`] memory model at the case's fuzzed `p_io` |
//!
//! Converged decoders from *different* classes must also agree on the
//! decoded word: two distinct valid codewords would mean an undetected
//! error, which at DVB-S2 minimum distances does not happen at the
//! operating points the generator draws from.
//!
//! # One runner, contract classes as data
//!
//! One case runner builds a case's evidence once — the frame, and the
//! equally-faulted timed core and golden model with their traced decodes —
//! and evaluates the contract classes it is asked for. Which contracts
//! apply to which case is the class table in `contracts`, not control flow,
//! and a [`Sweep`] is a case source plus a class set over one driver
//! (DESIGN.md §6.1 tabulates both).
//!
//! # Reproducing a failure
//!
//! Every violation carries the case's canonical one-line spec
//! ([`CaseSpec`]'s `Display`/`FromStr` round-trip). Feed it back with
//! `cargo run --release -p dvbs2-bench --bin diff_fuzz -- --repro '<spec>'`:
//! [`run_case`] evaluates **every** class, so it is a superset of every
//! sweep and whatever a sweep found replays. Shrink first with
//! [`shrink_case`] over [`Sweep::replay`], which runs that sweep's own
//! class set.
//!
//! [`HardwareDecoder`]: dvbs2_hardware::HardwareDecoder
//! [`GoldenModel`]: dvbs2_hardware::GoldenModel
//! [`RamFault`]: dvbs2_hardware::RamFault
//! [`hw_chain_partition`]: dvbs2_hardware::hw_chain_partition
//! [`simulate_cn_phase`]: dvbs2_hardware::simulate_cn_phase
//! [`DecodeResult`]: dvbs2_decoder::DecodeResult
//! [`QuantizedZigzagDecoder`]: dvbs2_decoder::QuantizedZigzagDecoder
//! [`BitFlippingDecoder`]: dvbs2_decoder::BitFlippingDecoder

mod context;
mod contracts;
mod shrink;
mod spec;
mod sweeps;
#[cfg(test)]
mod tests;

pub use contracts::Violation;
pub use shrink::shrink_case;
pub use spec::{ArithmeticKind, CaseSpec, ParseCaseError, ScheduleKind};
pub use sweeps::{run_case, run_fault_suite, OracleConfig, OracleReport, Sweep};
