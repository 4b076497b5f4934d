//! Untimed golden model of the IP core's data flow, and the frame both
//! hardware models run in.
//!
//! Executes exactly the arithmetic the hardware performs — same message RAM
//! layout, same shuffle rotations, same functional-unit input ordering (the
//! annealed schedule's order, not the Tanner graph's), same 360-way
//! partitioned zigzag chains — but with no clocking, banking or buffering.
//! The cycle-accurate [`crate::HardwareDecoder`] must match this model bit
//! for bit; that equivalence is the repository's analogue of RTL-versus-
//! golden-model verification. The two keep independent phases; what a frame
//! is around them (RAM clear, power-on fault, unit reset, digest, early
//! stop, totals and verdict) is one [`Frame`] that both hold.
//!
//! Two deliberate architectural deviations from the ideal sequential zigzag
//! of `dvbs2_decoder::ZigzagDecoder` (both negligible at N = 64800, verified
//! by the `fig2_schedules` bench):
//!
//! * the 360 functional units run 360 *parallel* forward chains; the forward
//!   message crossing a chain boundary comes from the previous iteration;
//! * the backward message at a chain boundary is written at row 0 and read
//!   at row `q-1`, so it is one iteration fresher than in the ideal
//!   schedule.

use crate::fault::{CommitPhase, CommitPoint, FaultScenario};
use crate::functional_unit::FunctionalUnitArray;
use crate::rom::ConnectivityRom;
use crate::schedule::CnSchedule;
use crate::shuffle::ShuffleNetwork;
use dvbs2_decoder::{hard_decisions_int, DecodeResult, FuWord, Quantizer};
use dvbs2_ldpc::{CodeParams, DvbS2Code, PARALLELISM};

/// What both hardware models hold: the code's ROM and schedule, the
/// functional units, the shuffle network, the fault scenario, the message
/// RAM's information image and the a-posteriori totals. [`Frame::decode`]
/// runs a frame around one model's phases, so the iteration loop and the
/// verdict exist once. `W` is the functional units' word and the
/// information image's: `i16` in the golden model, the narrowest the
/// quantizer allows in the timed core.
#[derive(Debug, Clone)]
pub(crate) struct Frame<W = i16> {
    pub(crate) params: CodeParams,
    pub(crate) rom: ConnectivityRom,
    pub(crate) schedule: CnSchedule,
    pub(crate) fu: FunctionalUnitArray<W>,
    pub(crate) shuffle: ShuffleNetwork,
    /// The corruption applies at logical commit points (each word
    /// write-back plus the initial RAM contents, keyed on iteration and
    /// phase), so equally-faulted models stay bit-exact.
    pub(crate) scenario: FaultScenario,
    /// Message RAM, word-major: `ram[word * 360 + lane]`. Holds
    /// check-to-variable messages in information layout between iterations,
    /// each inside `±max_mag`, in the units' word.
    pub(crate) ram: Vec<W>,
    totals: Vec<i32>,
}

impl<W: FuWord> Frame<W> {
    /// # Panics
    ///
    /// Panics if the schedule does not match the code's ROM.
    pub(crate) fn new(code: &DvbS2Code, schedule: CnSchedule, fu: FunctionalUnitArray<W>) -> Self {
        let params = *code.params();
        let rom = ConnectivityRom::build(&params, code.table());
        schedule.validate(&rom).expect("schedule must match the code's ROM");
        Frame {
            fu,
            shuffle: ShuffleNetwork::new(PARALLELISM),
            scenario: FaultScenario::none(),
            ram: vec![W::default(); rom.words() * PARALLELISM],
            totals: vec![0; params.n],
            params,
            rom,
            schedule,
        }
    }

    /// # Panics
    ///
    /// Panics if any fault addresses memory or units outside the model.
    pub(crate) fn set_scenario(&mut self, scenario: FaultScenario) {
        scenario.validate(self.rom.words());
        self.fu.set_fault(scenario.fu_fault());
        self.scenario = scenario;
    }

    pub(crate) fn quantize_channel(&self, llrs: &[f64]) -> Vec<i32> {
        let mut channel = vec![0; llrs.len()];
        self.fu.quantizer().quantize_into(llrs, &mut channel);
        channel
    }

    /// Decodes one frame: `phases(frame, iteration)` runs one model's
    /// information and check phase, and everything around them happens
    /// here. With `trace`, the message digest after every check phase is
    /// recorded into it (cleared first).
    ///
    /// # Panics
    ///
    /// Panics if `channel.len() != N`.
    pub(crate) fn decode(
        &mut self,
        channel: &[i32],
        max_iterations: usize,
        early_stop: bool,
        mut trace: Option<&mut Vec<u64>>,
        mut phases: impl FnMut(&mut Self, u32),
    ) -> DecodeResult {
        assert_eq!(channel.len(), self.params.n, "LLR length mismatch");
        if let Some(t) = trace.as_deref_mut() {
            t.clear();
        }
        self.ram.fill(W::default());
        // A stuck cell is stuck from power-on.
        let quantizer = *self.fu.quantizer();
        self.scenario.corrupt_power_on(&mut self.ram, &quantizer);
        self.fu.reset(channel);

        let mut iterations = 0;
        let mut converged = false;
        while iterations < max_iterations && !converged {
            phases(self, iterations as u32);
            iterations += 1;
            if let Some(t) = trace.as_deref_mut() {
                t.push(self.message_digest());
            }
            // The totals sweep (one pass over E_IN; hardware folds it into
            // the next information phase) is observable only through the
            // early-stop test, so without early stop it runs once, below.
            if early_stop {
                converged = self.check(channel);
            }
        }
        // The early-stop test judged the final state, unless it never ran:
        // at a cap of 0 the verdict is the channel's own.
        if !early_stop || iterations == 0 {
            converged = self.check(channel);
        }
        DecodeResult { bits: hard_decisions_int(&self.totals), iterations, converged }
    }

    /// Computes the totals from the current state and tests the syndrome.
    fn check(&mut self, channel: &[i32]) -> bool {
        self.compute_totals(channel);
        self.syndrome_clean()
    }

    /// Computes all a-posteriori totals from the information image and the
    /// functional units' parity state.
    fn compute_totals(&mut self, channel: &[i32]) {
        let p = PARALLELISM;
        let groups = self.totals.chunks_exact_mut(p).zip(channel.chunks_exact(p));
        for (g, (totals, chan)) in groups.take(self.params.groups()).enumerate() {
            let base = self.rom.group_base(g);
            totals.copy_from_slice(chan);
            for word in self.ram[base * p..(base + self.params.group_degree(g)) * p].chunks_exact(p)
            {
                for (t, &x) in totals.iter_mut().zip(word) {
                    *t += i32::from(x.widen());
                }
            }
        }
        self.fu.parity_totals(channel, &mut self.totals);
    }

    /// Evaluates every parity equation on the hard decisions of the totals
    /// using the ROM structure directly, one residue row of 360 checks at a
    /// time.
    ///
    /// A hard decision is the sign bit, and the sign bit of an XOR is the XOR
    /// of the sign bits. The 360 syndromes of a row are therefore the signs
    /// of one XOR of 360-wide blocks: the units' own parity totals, their
    /// left neighbours', and for every ROM entry of the row the entry's
    /// information group rotated by its shift (unit `u` reads node
    /// `(u − shift) mod 360`), as two contiguous halves.
    fn syndrome_clean(&self) -> bool {
        let (p, k, q_rows) = (PARALLELISM, self.params.k, self.params.q);
        let totals = &self.totals;
        let mut syn = [0i32; PARALLELISM];
        for r in 0..q_rows {
            for (u, s) in syn.iter_mut().enumerate() {
                let j = u * q_rows + r;
                *s = totals[k + j] ^ if j > 0 { totals[k + j - 1] } else { 0 };
            }
            for &w in self.rom.row(r) {
                let e = self.rom.entry(w as usize);
                let (group, shift) = (e.group as usize * p, e.shift as usize);
                let block = &totals[group..group + p];
                for (s, &x) in syn[shift..].iter_mut().zip(&block[..p - shift]) {
                    *s ^= x;
                }
                for (s, &x) in syn[..shift].iter_mut().zip(&block[p - shift..]) {
                    *s ^= x;
                }
            }
            if syn.iter().fold(0, |any, &s| any | s) < 0 {
                return false;
            }
        }
        true
    }

    /// Digest of the complete post-check-phase message state: the
    /// information image plus the functional units' backward/forward/boundary
    /// parity messages. Equal digests every iteration is the oracle's
    /// definition of "bit-exact per-iteration messages".
    ///
    /// Every value is folded as the `i32` it widens to, so the digests are
    /// the ones an `i32` message RAM produced.
    fn message_digest(&self) -> u64 {
        let h = 0xCBF2_9CE4_8422_2325; // FNV-1a offset basis
        let ram = self.ram.iter().map(|&x| x.widen().into());
        fold_digest(fold_digest(h, ram), self.fu.parity_state())
    }
}

/// Folds message values into an FNV-1a-style digest. Collisions only matter
/// against *accidental* divergence here (differential check, not an
/// adversary), so hashing each i32 as one unit is plenty.
fn fold_digest(mut h: u64, vals: impl IntoIterator<Item = i32>) -> u64 {
    for v in vals {
        h ^= v as u32 as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The untimed functional model (see module docs).
///
/// # Chain-boundary semantics vs the sequential `QuantizedZigzagDecoder`
///
/// `dvbs2_decoder::QuantizedZigzagDecoder` sweeps the degree-2 parity chain
/// as **one** sequence over all `N − K` checks: every check `c > 0` consumes
/// check `c − 1`'s forward output from the *same* iteration, and all
/// backward messages come from the *previous* iteration. This model executes
/// the hardware's partitioning instead: the chain is cut into
/// `PARALLELISM = 360` sub-chains of `q = (N − K) / 360` checks (functional
/// unit `ℓ` owns lane `ℓ` of rows `0..q`, processed in ascending residue
/// order). The arithmetic per check is identical; only the message
/// *freshness at the 359 interior sub-chain boundaries* differs:
///
/// * **forward boundary, one iteration staler** — the forward message
///   entering row `0` of lane `ℓ` is the row `q − 1` output of lane
///   `ℓ − 1` *from the previous check phase* (each FU seeds its chain from
///   stored state; the sequential decoder would use the current sweep's
///   value);
/// * **backward boundary, one iteration fresher** — the backward message a
///   lane emits while processing row `0` is consumed by the preceding lane
///   at row `q − 1` of the *same* check phase (row `0` executes before row
///   `q − 1` in the ascending sweep; the sequential decoder's backward
///   messages are uniformly one iteration old).
///
/// The other `(N − K) − 359` forward and backward updates are computed with
/// identical operand values and identical saturating arithmetic. The
/// deviations therefore perturb convergence only through a `359 / (N − K)`
/// fraction of the chain (≈ 1% at Normal frames), which shifts rare
/// per-frame iteration counts near threshold but not decoded words — the
/// differential oracle enforces decoded-word agreement between this model
/// and the *sequential* `QuantizedZigzagDecoder`, and *bit-exactness* both
/// against the timed [`crate::HardwareDecoder`] (decisions and
/// per-iteration message digests, with or without an injected
/// [`crate::RamFault`]) and against the software decoder in hardware-partitioned
/// mode ([`crate::hw_chain_partition`] replays this model's sub-chain
/// boundaries and per-check input ordering exactly). `DESIGN.md`
/// ("Chain-boundary semantics") carries the worked example.
#[derive(Debug, Clone)]
pub struct GoldenModel {
    frame: Frame,
    max_iterations: usize,
    early_stop: bool,
    /// One check row as the functional units take it: the row's words, then
    /// the units' two parity input slots.
    row: Vec<i16>,
    /// The functional units' outputs for one group or one row.
    out: Vec<i16>,
}

impl GoldenModel {
    /// Builds the model for a code with a given check-phase schedule.
    ///
    /// # Panics
    ///
    /// Panics if the schedule does not match the code's ROM.
    pub fn new(
        code: &DvbS2Code,
        schedule: CnSchedule,
        quantizer: Quantizer,
        max_iterations: usize,
        early_stop: bool,
    ) -> Self {
        let params = *code.params();
        GoldenModel {
            frame: Frame::new(code, schedule, FunctionalUnitArray::new(&params, quantizer)),
            max_iterations,
            early_stop,
            row: vec![0; params.check_degree * PARALLELISM],
            out: vec![0; params.hi.degree.max(params.check_degree) * PARALLELISM],
        }
    }

    /// The code parameters.
    pub fn params(&self) -> &CodeParams {
        &self.frame.params
    }

    /// The connectivity ROM.
    pub fn rom(&self) -> &ConnectivityRom {
        &self.frame.rom
    }

    /// The schedule in use.
    pub fn schedule(&self) -> &CnSchedule {
        &self.frame.schedule
    }

    /// The message quantizer.
    pub fn quantizer(&self) -> &Quantizer {
        self.frame.fu.quantizer()
    }

    /// Quantizes float channel LLRs with the model's quantizer.
    pub fn quantize_channel(&self, llrs: &[f64]) -> Vec<i32> {
        self.frame.quantize_channel(llrs)
    }

    /// Injects a complete [`FaultScenario`], mirroring
    /// [`crate::HardwareDecoder::set_scenario`]: the corruption is applied
    /// at exactly the same logical commit points (after every word
    /// write-back and on the initial RAM contents, keyed on iteration and
    /// phase — never physical cycles), so the timed core and this model must
    /// stay bit-exact under *identical* scenarios — the differential
    /// oracle's fault-differential contract.
    ///
    /// # Panics
    ///
    /// Panics if any fault addresses memory or units outside the model.
    pub fn set_scenario(&mut self, scenario: FaultScenario) {
        self.frame.set_scenario(scenario);
    }

    /// The active fault scenario (empty when fault-free).
    pub fn scenario(&self) -> &FaultScenario {
        &self.frame.scenario
    }

    /// Decodes one frame of quantized channel LLRs.
    ///
    /// # Panics
    ///
    /// Panics if `channel.len() != N`.
    pub fn decode_quantized(&mut self, channel: &[i32]) -> DecodeResult {
        self.decode_inner(channel, None)
    }

    /// Decodes one frame and records a per-iteration digest of the complete
    /// message state (RAM plus parity forward/backward/boundary messages)
    /// after each check phase. The timed core's
    /// [`crate::HardwareDecoder::decode_quantized_traced`] must produce an
    /// identical trace — this is how the oracle enforces bit-exactness of
    /// *per-iteration messages*, not just final decisions.
    ///
    /// # Panics
    ///
    /// Panics if `channel.len() != N`.
    pub fn decode_quantized_traced(
        &mut self,
        channel: &[i32],
        trace: &mut Vec<u64>,
    ) -> DecodeResult {
        self.decode_inner(channel, Some(trace))
    }

    fn decode_inner(&mut self, channel: &[i32], trace: Option<&mut Vec<u64>>) -> DecodeResult {
        let (row, out) = (&mut self.row, &mut self.out);
        self.frame.decode(channel, self.max_iterations, self.early_stop, trace, |f, iteration| {
            information_phase(f, out, channel, iteration);
            check_phase(f, row, out, iteration);
        })
    }
}

/// Variable-node half-iteration: each group reads its words in place,
/// and every output goes back with the entry's cyclic shift (leaving the
/// RAM in check layout).
fn information_phase(f: &mut Frame, out: &mut [i16], channel: &[i32], iteration: u32) {
    let p = PARALLELISM;
    let quantizer = *f.fu.quantizer();
    let point = CommitPoint { iteration, phase: CommitPhase::Info };
    for g in 0..f.params.groups() {
        let base = f.rom.group_base(g);
        let d = f.params.group_degree(g);
        let out = &mut out[..d * p];
        f.fu.process_vn_group(&channel[g * p..(g + 1) * p], &f.ram[base * p..(base + d) * p], out);
        for (i, data) in out.chunks_exact(p).enumerate() {
            let shift = f.rom.entry(base + i).shift as usize;
            let word = &mut f.ram[(base + i) * p..(base + i + 1) * p];
            f.shuffle.rotate(data, shift, word);
            f.scenario.corrupt_word(base + i, word, &quantizer, point);
        }
    }
}

/// Check-node half-iteration: ascending residue rows, 360 parallel
/// zigzag chains, write-back with the inverse shift (returning the RAM
/// to information layout).
fn check_phase(f: &mut Frame, row: &mut [i16], out: &mut [i16], iteration: u32) {
    let p = PARALLELISM;
    let quantizer = *f.fu.quantizer();
    let point = CommitPoint { iteration, phase: CommitPhase::Check };
    f.fu.begin_check_phase();
    for r in 0..f.params.q {
        let words = f.schedule.row(r);
        for (block, &w) in row.chunks_exact_mut(p).zip(words) {
            block.copy_from_slice(&f.ram[w as usize * p..(w as usize + 1) * p]);
        }
        let out = &mut out[..row.len()];
        f.fu.process_cn_row(r, row, out);
        for (data, &w) in out.chunks_exact(p).zip(words) {
            let w = w as usize;
            let inv = f.shuffle.inverse_shift(f.rom.entry(w).shift as usize);
            let word = &mut f.ram[w * p..(w + 1) * p];
            f.shuffle.rotate(data, inv, word);
            f.scenario.corrupt_word(w, word, &quantizer, point);
        }
    }
    f.fu.end_check_phase();
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvbs2_decoder::test_support::{llrs_for_codeword, noisy_llrs, SplitMix64};
    use dvbs2_decoder::{Decoder, DecoderConfig, QuantizedZigzagDecoder};
    use dvbs2_ldpc::{BitVec, CodeRate, FrameSize};
    use std::sync::Arc;

    fn model(code: &DvbS2Code) -> GoldenModel {
        let rom = ConnectivityRom::build(code.params(), code.table());
        GoldenModel::new(code, CnSchedule::natural(&rom), Quantizer::paper_6bit(), 30, true)
    }

    fn short_code() -> DvbS2Code {
        DvbS2Code::new(CodeRate::R1_2, FrameSize::Short).unwrap()
    }

    #[test]
    fn noiseless_codeword_decodes_in_one_iteration() {
        let code = short_code();
        let mut m = model(&code);
        let enc = code.encoder().unwrap();
        let msg = BitVec::from_bools((0..code.params().k).map(|i| i % 3 == 0));
        let cw = enc.encode(&msg).unwrap();
        let channel = m.quantize_channel(&llrs_for_codeword(&cw, 5.0));
        let out = m.decode_quantized(&channel);
        assert!(out.converged);
        assert_eq!(out.iterations, 1);
        assert_eq!(out.bits, cw);
    }

    #[test]
    fn corrects_noisy_frames() {
        let code = short_code();
        let mut m = model(&code);
        for seed in 0..3 {
            let (cw, llrs) = noisy_llrs(&code, 3.2, 900 + seed);
            let channel = m.quantize_channel(&llrs);
            let out = m.decode_quantized(&channel);
            assert!(out.converged, "seed {seed}");
            assert_eq!(out.bits, cw, "seed {seed}");
        }
    }

    #[test]
    fn matches_ideal_quantized_decoder_on_decoded_words() {
        // The partitioned chains deviate from the ideal zigzag only at the
        // 360 chain boundaries; decoded codewords must agree.
        let code = short_code();
        let mut m = model(&code);
        let graph = Arc::new(code.tanner_graph());
        let mut ideal =
            QuantizedZigzagDecoder::new(graph, Quantizer::paper_6bit(), DecoderConfig::default());
        for seed in 0..3 {
            let (cw, llrs) = noisy_llrs(&code, 3.4, 800 + seed);
            let channel = m.quantize_channel(&llrs);
            let golden_out = m.decode_quantized(&channel);
            let ideal_out = ideal.decode(&llrs);
            assert_eq!(golden_out.bits, cw, "seed {seed}");
            assert_eq!(ideal_out.bits, cw, "seed {seed}");
        }
    }

    #[test]
    fn decode_is_deterministic_and_reusable() {
        let code = short_code();
        let mut m = model(&code);
        let (_, llrs) = noisy_llrs(&code, 2.8, 55);
        let channel = m.quantize_channel(&llrs);
        let a = m.decode_quantized(&channel);
        let b = m.decode_quantized(&channel);
        assert_eq!(a, b);
    }

    #[test]
    fn annealed_schedule_gives_same_result_as_natural() {
        // Message order within a check changes only LSB rounding paths; the
        // decoded word of a decodable frame must not change.
        use crate::anneal::{optimize_schedule, AnnealOptions};
        use crate::memory::MemoryConfig;
        let code = short_code();
        let rom = ConnectivityRom::build(code.params(), code.table());
        let annealed = optimize_schedule(
            &rom,
            MemoryConfig::default(),
            AnnealOptions { moves: 300, ..AnnealOptions::default() },
        )
        .schedule;
        let mut natural = model(&code);
        let mut optimized = GoldenModel::new(&code, annealed, Quantizer::paper_6bit(), 30, true);
        let (cw, llrs) = noisy_llrs(&code, 3.4, 321);
        let channel = natural.quantize_channel(&llrs);
        let a = natural.decode_quantized(&channel);
        let b = optimized.decode_quantized(&channel);
        assert_eq!(a.bits, cw);
        assert_eq!(b.bits, cw);
    }

    #[test]
    fn injected_fault_changes_message_state() {
        // A stuck word at full magnitude must perturb the message digests;
        // clearing the fault restores the clean trajectory.
        let code = short_code();
        let mut m = model(&code);
        let (_, llrs) = noisy_llrs(&code, 2.8, 606);
        let channel = m.quantize_channel(&llrs);
        let mut clean_trace = Vec::new();
        let clean = m.decode_quantized_traced(&channel, &mut clean_trace);
        let fault = crate::RamFault::StuckWord { word: 2, value: 31 };
        m.set_scenario(FaultScenario::single(fault));
        let mut fault_trace = Vec::new();
        let faulted = m.decode_quantized_traced(&channel, &mut fault_trace);
        assert_ne!(clean_trace.first(), fault_trace.first());
        assert_eq!(m.scenario().as_single_permanent(), Some(fault));
        let _ = faulted;
        m.set_scenario(FaultScenario::none());
        let mut again = Vec::new();
        let re = m.decode_quantized_traced(&channel, &mut again);
        assert_eq!(re, clean);
        assert_eq!(again, clean_trace);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fault_word_must_be_in_ram() {
        let code = short_code();
        let mut m = model(&code);
        m.set_scenario(FaultScenario::single(crate::RamFault::StuckWord {
            word: usize::MAX,
            value: 0,
        }));
    }

    /// `syndrome_clean` one check at a time: `(u + 360 − shift) % 360` per
    /// ROM entry per check.
    fn syndrome_clean_per_check(
        params: &CodeParams,
        rom: &ConnectivityRom,
        totals: &[i32],
    ) -> bool {
        let p = PARALLELISM;
        (0..params.n_check).all(|j| {
            let (r, u) = (j % params.q, j / params.q);
            let mut parity = totals[params.k + j] < 0;
            if j > 0 {
                parity ^= totals[params.k + j - 1] < 0;
            }
            for &w in rom.row(r) {
                let e = rom.entry(w as usize);
                let t = (u + p - e.shift as usize) % p;
                parity ^= totals[e.group as usize * p + t] < 0;
            }
            !parity
        })
    }

    #[test]
    fn row_wise_syndrome_is_the_per_check_syndrome() {
        for rate in [CodeRate::R1_2, CodeRate::R8_9] {
            let code = DvbS2Code::new(rate, FrameSize::Short).unwrap();
            let params = code.params();
            let rom = ConnectivityRom::build(params, code.table());
            let fu = FunctionalUnitArray::new(params, Quantizer::paper_6bit());
            let mut frame = Frame::new(&code, CnSchedule::natural(&rom), fu);
            let mut both = |totals: &[i32]| {
                frame.totals.copy_from_slice(totals);
                let row_wise = frame.syndrome_clean();
                assert_eq!(row_wise, syndrome_clean_per_check(params, &rom, totals), "{rate}");
                row_wise
            };
            let mut rng = SplitMix64(0x5EED ^ params.k as u64);
            let mut draw = |span: u64| (rng.next_u64() % span) as i32;

            // Totals deciding a codeword, with random magnitudes.
            let msg: BitVec = (0..params.k).map(|i| i % 5 == 0 || i % 7 == 3).collect();
            let word = code.encoder().unwrap().encode(&msg).unwrap();
            let mut totals: Vec<i32> =
                (0..params.n).map(|m| if word.get(m) { -1 - draw(90) } else { draw(90) }).collect();
            assert!(both(&totals), "{rate}: codeword");

            // One flipped decision in every row class: a parity bit of each
            // residue row (it sits in its own check and in the next one), the
            // first and the last check of the chain, an information bit of
            // every group.
            let mut flips = vec![params.k, params.n - 1];
            for r in 0..params.q {
                flips.push(params.k + draw(360) as usize * params.q + r);
            }
            for g in 0..params.groups() {
                flips.push(g * PARALLELISM + draw(360) as usize);
            }
            for m in flips {
                totals[m] = !totals[m];
                assert!(!both(&totals), "{rate}: bit {m} flipped");
                totals[m] = !totals[m];
            }
            assert!(both(&totals), "{rate}: restored");

            // Arbitrary totals, zeros included.
            for _ in 0..8 {
                for t in totals.iter_mut() {
                    *t = draw(7) - 3;
                }
                both(&totals);
            }
        }
    }

    #[test]
    fn works_for_normal_frames() {
        let code = DvbS2Code::new(CodeRate::R9_10, FrameSize::Normal).unwrap();
        let mut m = model(&code);
        let (cw, llrs) = noisy_llrs(&code, 4.6, 17);
        let channel = m.quantize_channel(&llrs);
        let out = m.decode_quantized(&channel);
        assert!(out.converged);
        assert_eq!(out.bits, cw);
    }
}
