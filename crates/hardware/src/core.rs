//! The cycle-accurate decoder core — Figure 4 of the paper, clocked.
//!
//! [`HardwareDecoder`] moves every message through the modeled memory
//! subsystem: one wide read per cycle, functional-unit pipeline latency,
//! write-back through the shuffling network into the 4-bank single-port
//! RAMs, and the conflict buffer of Figure 5. Its decode results must be
//! **bit-identical** to the untimed [`crate::GoldenModel`] (verified in the
//! test suite and `tests/hw_equivalence.rs`), and its cycle counts are the
//! measured side of the Eq. 8 throughput comparison.
//!
//! The write queue carries word addresses and arrival cycles only, because
//! timing depends on addresses alone. A message word moves once per phase:
//! the functional units write their outputs into a staging image, and when
//! a word's write issues to a bank the shuffle network rotates it into the
//! RAM, where its commit-point fault strikes. The units read their inputs
//! where they lie. The RAM is held as two images so that both phases read
//! in place: the information image (word-major `i16`, the golden model's
//! layout) and the check image (row-major in schedule order). Each phase
//! reads one image and commits every word into the other, so after a check
//! phase the information image is the whole RAM — what the digests, the
//! totals and the next information phase read. The check image, the
//! staging image and the check rows hold the narrowest word the quantizer
//! allows: `i8` wherever the units' `i8` lanes hold it (4 to 6 bits, the
//! paper's word), `i16` otherwise; a check-phase commit widens its word as
//! it rotates it. The information image and the frame around the phases
//! (RAM clear, unit reset, digest, early stop, totals and verdict) are the
//! [`Frame`] the core shares with the golden model; the check image, the
//! staging image and the write queue are the core's own.

use crate::fault::{CommitPhase, CommitPoint, FaultScenario};
use crate::functional_unit::FunctionalUnitArray;
use crate::golden::Frame;
use crate::memory::MemoryConfig;
use crate::rom::ConnectivityRom;
use crate::schedule::CnSchedule;
use dvbs2_decoder::{DecodeResult, FuWord, Quantizer, SimdTier};
use dvbs2_ldpc::{CodeParams, DvbS2Code, PARALLELISM};
use std::collections::VecDeque;

/// Configuration of the cycle-accurate core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreConfig {
    /// Message/channel quantizer (the paper: 6 bit).
    pub quantizer: Quantizer,
    /// Iterations per frame. The paper assumes a fixed 30.
    pub max_iterations: usize,
    /// Optional syndrome-based early termination (off in the paper's
    /// throughput accounting).
    pub early_stop: bool,
    /// Memory subsystem parameters (banks, write ports, FU latency).
    pub memory: MemoryConfig,
    /// Channel values accepted per I/O cycle (the paper: 10).
    pub p_io: usize,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            quantizer: Quantizer::paper_6bit(),
            max_iterations: 30,
            early_stop: false,
            memory: MemoryConfig::default(),
            p_io: 10,
        }
    }
}

/// Measured cycle counts of one decoded frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CycleBreakdown {
    /// Frame I/O cycles, `ceil(N / P_IO)`.
    pub io_cycles: usize,
    /// Information-phase cycles summed over iterations.
    pub info_phase_cycles: usize,
    /// Check-phase cycles summed over iterations (includes write drains).
    pub check_phase_cycles: usize,
    /// Iterations executed.
    pub iterations: usize,
    /// Worst conflict-buffer occupancy observed (wide words).
    pub max_buffer: usize,
    /// `io + info + check` cycles.
    pub total_cycles: usize,
}

impl CycleBreakdown {
    /// Information throughput in Mbit/s at a given clock.
    pub fn throughput_mbps(&self, clock_mhz: f64, info_bits: usize) -> f64 {
        info_bits as f64 / self.total_cycles as f64 * clock_mhz
    }
}

/// Result of a hardware decode: decisions plus measured cycles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HwDecodeOutput {
    /// The decoding outcome (bit-identical to the golden model's).
    pub result: DecodeResult,
    /// Measured cycle counts.
    pub cycles: CycleBreakdown,
}

/// A write-back in flight: its data waits in the staging image until the
/// memory subsystem grants it a bank.
#[derive(Debug, Clone, Copy)]
struct PendingWrite {
    word: u32,
    bank: u32,
    arrival: usize,
}

/// Address-only model of the conflict buffer of Figure 5.
///
/// Bank conflicts, occupancy and drain time depend on write addresses and
/// arrival cycles alone, so the queue carries no data. Each word is written
/// once per phase, so its data can wait in the core's staging image at its
/// own place; [`WriteQueue::step`] hands every write it issues to a commit
/// that moves the staged word into the RAM. [`WriteQueue::read`]
/// asserts on every read that the word has no write in flight. Lives as
/// long as the core, so a warm decode allocates nothing here.
#[derive(Debug)]
struct WriteQueue {
    /// Writes in arrival order. Those that have arrived wait in the
    /// conflict buffer, ahead of those still in the functional units'
    /// pipeline: arrivals never decrease along the queue.
    writes: VecDeque<PendingWrite>,
    /// Bank of every word, `word % banks`, looked up rather than divided
    /// for on every read and write.
    bank: Vec<u32>,
    /// Words with a write in flight.
    pending: Vec<bool>,
    write_ports: usize,
    max_buffer: usize,
    /// Banks written in the current cycle.
    issued: Vec<u32>,
}

impl WriteQueue {
    fn new(words: usize, memory: MemoryConfig) -> Self {
        WriteQueue {
            writes: VecDeque::new(),
            bank: (0..words).map(|w| (w % memory.banks) as u32).collect(),
            pending: vec![false; words],
            write_ports: memory.write_ports,
            max_buffer: 0,
            issued: Vec::with_capacity(memory.write_ports),
        }
    }

    /// Starts a phase with an empty queue and a fresh occupancy count. A
    /// phase drains its queue, so there is something to clear only after a
    /// decode that unwound mid-phase.
    fn begin_phase(&mut self) {
        for w in self.writes.drain(..) {
            self.pending[w.word as usize] = false;
        }
        self.max_buffer = 0;
    }

    /// The bank a read of `word` occupies.
    ///
    /// # Panics
    ///
    /// Panics if the word's write-back is still in flight (a model
    /// invariant: the schedule never reads such a word).
    fn read(&self, word: usize) -> u32 {
        assert!(!self.pending[word], "read-after-write hazard on word {word}");
        self.bank[word]
    }

    fn push(&mut self, word: usize, arrival: usize) {
        debug_assert!(self.writes.back().is_none_or(|w| w.arrival <= arrival));
        self.pending[word] = true;
        self.writes.push_back(PendingWrite { word: word as u32, bank: self.bank[word], arrival });
    }

    /// One memory cycle: up to `write_ports` arrived writes, oldest first,
    /// issue to distinct banks not being read, clear their pending flags and
    /// `commit` their words; the rest stay buffered.
    fn step(&mut self, cycle: usize, read_bank: Option<u32>, mut commit: impl FnMut(usize)) {
        self.issued.clear();
        let mut idx = 0;
        while self.writes.get(idx).is_some_and(|w| w.arrival <= cycle) {
            let w = self.writes[idx];
            if self.issued.len() < self.write_ports
                && Some(w.bank) != read_bank
                && !self.issued.contains(&w.bank)
            {
                self.issued.push(w.bank);
                self.pending[w.word as usize] = false;
                self.writes.remove(idx);
                commit(w.word as usize);
            } else {
                idx += 1;
            }
        }
        self.max_buffer = self.max_buffer.max(idx);
    }

    fn is_empty(&self) -> bool {
        self.writes.is_empty()
    }
}

/// The cycle-accurate IP core model.
#[derive(Debug)]
pub struct HardwareDecoder {
    config: CoreConfig,
    datapath: Datapath,
}

/// The core on its check word, chosen once at construction: `i8` wherever
/// the functional units' `i8` lanes hold the quantizer (4 to 6 bits), `i16`
/// otherwise (the `i16` lanes up to 15 bits, the per-unit loop at 16).
#[derive(Debug)]
enum Datapath {
    Narrow(Core<i8>),
    Wide(Core<i16>),
}

/// Evaluates `$body` with `$core` bound to the datapath's [`Core`].
macro_rules! on_core {
    ($datapath:expr, |$core:ident| $body:expr) => {
        match $datapath {
            Datapath::Narrow($core) => $body,
            Datapath::Wide($core) => $body,
        }
    };
}

/// The core on check word `W`.
#[derive(Debug)]
struct Core<W> {
    /// The ROM, units, fault scenario, information image and the frame's
    /// iteration loop, shared with [`crate::GoldenModel`]: the information
    /// phase reads the information image and the check phase commits to it.
    frame: Frame<W>,
    timed: TimedRam<W>,
}

/// What the core's memory subsystem holds beyond the shared information
/// image, and the two timed phases that move words through it.
#[derive(Debug)]
struct TimedRam<W> {
    /// The schedule's read sequence, the check phase's read per cycle.
    reads: Vec<u32>,
    /// The message RAM's check image, in the units' word: row `r` of the
    /// schedule is `row_len + 2` contiguous vectors of the units' pitch
    /// (384 lanes on `i8`, 360 on `i16`), the row's words in schedule order
    /// and then the functional units' two parity input slots, each
    /// vector's pad lanes past 360 zero. The check phase reads it and the
    /// information phase commits to it.
    rows: Vec<W>,
    /// Vector index of each word in `rows`.
    slot: Vec<u32>,
    /// The functional units' outputs, unrotated and in their word, until
    /// their writes issue: the information phase's at `stage[word * 360..]`,
    /// the check phase's at the word's vector in `rows` (the image is as
    /// large as `rows`, whose row stride the lane update needs).
    stage: Vec<W>,
    queue: WriteQueue,
    fu_latency: usize,
}

impl HardwareDecoder {
    /// Builds the core for a code with an explicit check-phase schedule
    /// (see [`crate::optimize_schedule`] for an annealed one).
    ///
    /// # Panics
    ///
    /// Panics if the schedule does not match the code's ROM.
    pub fn new(code: &DvbS2Code, schedule: CnSchedule, config: CoreConfig) -> Self {
        let (params, quantizer) = (code.params(), config.quantizer);
        let datapath = match FunctionalUnitArray::<i8>::on_lanes(params, quantizer) {
            Some(fu) => Datapath::Narrow(Core::new(Frame::new(code, schedule, fu), config.memory)),
            None => {
                let fu = FunctionalUnitArray::new(params, quantizer);
                Datapath::Wide(Core::new(Frame::new(code, schedule, fu), config.memory))
            }
        };
        HardwareDecoder { config, datapath }
    }

    /// Builds the core with the natural (unoptimized) schedule.
    pub fn with_natural_schedule(code: &DvbS2Code, config: CoreConfig) -> Self {
        let rom = ConnectivityRom::build(code.params(), code.table());
        Self::new(code, CnSchedule::natural(&rom), config)
    }

    /// The code parameters.
    pub fn params(&self) -> &CodeParams {
        on_core!(&self.datapath, |core| &core.frame.params)
    }

    /// The configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.config
    }

    /// The schedule driving the check phase.
    pub fn schedule(&self) -> &CnSchedule {
        on_core!(&self.datapath, |core| &core.frame.schedule)
    }

    /// The dispatch tier the functional units' lane-wide check update runs
    /// at, or `None` when the quantizer takes the per-unit fallback (see
    /// [`FunctionalUnitArray::simd_tier`](crate::FunctionalUnitArray::simd_tier)).
    pub fn simd_tier(&self) -> Option<SimdTier> {
        on_core!(&self.datapath, |core| core.frame.fu.simd_tier())
    }

    /// Bits of the word the check image and the check rows hold: 8 where
    /// the `i8` lanes hold the quantizer, 16 otherwise.
    pub fn check_word_bits(&self) -> u32 {
        match self.datapath {
            Datapath::Narrow(_) => i8::BITS,
            Datapath::Wide(_) => i16::BITS,
        }
    }

    /// Injects a complete [`FaultScenario`] (multiple RAM faults, transient
    /// activations, FU datapath fault). Subsequent decodes run with the
    /// scenario active; decoding still terminates within the iteration cap
    /// and never panics — only the decoded bits degrade.
    ///
    /// # Panics
    ///
    /// Panics if any fault addresses memory or units outside the core.
    pub fn set_scenario(&mut self, scenario: FaultScenario) {
        on_core!(&mut self.datapath, |core| core.frame.set_scenario(scenario))
    }

    /// The active fault scenario (empty when fault-free).
    pub fn scenario(&self) -> &FaultScenario {
        on_core!(&self.datapath, |core| &core.frame.scenario)
    }

    /// Quantizes float channel LLRs with the core's quantizer.
    pub fn quantize_channel(&self, llrs: &[f64]) -> Vec<i32> {
        on_core!(&self.datapath, |core| core.frame.quantize_channel(llrs))
    }

    /// Decodes float channel LLRs (quantizing them first).
    pub fn decode(&mut self, llrs: &[f64]) -> HwDecodeOutput {
        let channel = self.quantize_channel(llrs);
        self.decode_quantized(&channel)
    }

    /// Decodes one frame of quantized channel LLRs, cycle-accurately.
    ///
    /// # Panics
    ///
    /// Panics if `channel.len() != N`, or (a model invariant, not an input
    /// error) if the memory schedule would ever read a word whose write-back
    /// is still in flight.
    pub fn decode_quantized(&mut self, channel: &[i32]) -> HwDecodeOutput {
        on_core!(&mut self.datapath, |core| core.decode(channel, &self.config, None))
    }

    /// Decodes one frame and records a per-iteration digest of the complete
    /// message state after each check phase, in the same format as
    /// [`crate::GoldenModel::decode_quantized_traced`]. The two traces must
    /// be identical — with or without an injected [`crate::RamFault`] — which is
    /// the oracle's per-iteration-message bit-exactness contract.
    ///
    /// # Panics
    ///
    /// Same as [`HardwareDecoder::decode_quantized`].
    pub fn decode_quantized_traced(
        &mut self,
        channel: &[i32],
        trace: &mut Vec<u64>,
    ) -> HwDecodeOutput {
        on_core!(&mut self.datapath, |core| core.decode(channel, &self.config, Some(trace)))
    }
}

impl<W: FuWord> Core<W>
where
    i16: From<W>,
{
    fn new(frame: Frame<W>, memory: MemoryConfig) -> Self {
        let (q, words, pitch) = (frame.params.q, frame.rom.words(), frame.fu.pitch());
        let stride = frame.rom.row_len() + 2;
        let mut slot = vec![0; words];
        for r in 0..q {
            for (i, &w) in frame.schedule.row(r).iter().enumerate() {
                slot[w as usize] = (r * stride + i) as u32;
            }
        }
        let timed = TimedRam {
            reads: frame.schedule.read_sequence(),
            rows: vec![W::default(); q * stride * pitch],
            slot,
            stage: vec![W::default(); q * stride * pitch],
            queue: WriteQueue::new(words, memory),
            fu_latency: memory.fu_latency,
        };
        Core { frame, timed }
    }

    fn decode(
        &mut self,
        channel: &[i32],
        config: &CoreConfig,
        trace: Option<&mut Vec<u64>>,
    ) -> HwDecodeOutput {
        let CoreConfig { max_iterations, early_stop, p_io, .. } = *config;
        let mut cycles = CycleBreakdown {
            io_cycles: self.frame.params.n.div_ceil(p_io),
            ..CycleBreakdown::default()
        };
        let timed = &mut self.timed;
        let result =
            self.frame.decode(channel, max_iterations, early_stop, trace, |f, iteration| {
                let (info_cycles, info_buf) = timed.information_phase(f, channel, iteration);
                let (check_cycles, check_buf) = timed.check_phase(f, iteration);
                cycles.info_phase_cycles += info_cycles;
                cycles.check_phase_cycles += check_cycles;
                cycles.max_buffer = cycles.max_buffer.max(info_buf).max(check_buf);
            });
        cycles.iterations = result.iterations;
        cycles.total_cycles =
            cycles.io_cycles + cycles.info_phase_cycles + cycles.check_phase_cycles;
        HwDecodeOutput { result, cycles }
    }
}

impl<W: FuWord> TimedRam<W>
where
    i16: From<W>,
{
    /// Timed information phase: sequential word reads (one per cycle); once
    /// a group's words are read the functional units take them in place and
    /// stage their outputs, and each output is rotated into the check image
    /// when the write queue issues it. Returns (cycles, max buffer
    /// occupancy).
    fn information_phase(
        &mut self,
        f: &mut Frame<W>,
        channel: &[i32],
        iteration: u32,
    ) -> (usize, usize) {
        let (p, pitch) = (PARALLELISM, f.fu.pitch());
        let quantizer = *f.fu.quantizer();
        let point = CommitPoint { iteration, phase: CommitPhase::Info };
        self.queue.begin_phase();
        let words = f.rom.words();
        let mut cycle = 0usize;
        let mut group = 0usize;
        let mut word_in_group = 0usize;
        // The functional unit's serial output port: one wide word per cycle,
        // so a short group's outputs wait for the previous group's stream.
        let mut output_free_at = 0usize;

        while cycle < words || !self.queue.is_empty() {
            let mut read_bank = None;
            if cycle < words {
                read_bank = Some(self.queue.read(cycle));
                word_in_group += 1;
                let d = f.params.group_degree(group);
                if word_in_group == d {
                    // Node complete: the functional units produce the
                    // group's outputs, streaming out after the pipeline
                    // latency, one (shifted) wide word per cycle.
                    let base = f.rom.group_base(group);
                    f.fu.process_vn_group(
                        &channel[group * p..(group + 1) * p],
                        &f.ram[base * p..(base + d) * p],
                        &mut self.stage[base * p..(base + d) * p],
                    );
                    let first_out = (cycle + 1 + self.fu_latency).max(output_free_at);
                    for i in 0..d {
                        self.queue.push(base + i, first_out + i);
                    }
                    output_free_at = first_out + d;
                    group += 1;
                    word_in_group = 0;
                }
            }
            self.queue.step(cycle, read_bank, |w| {
                let at = self.slot[w] as usize * pitch;
                let lanes = &mut self.rows[at..at + p];
                let shift = f.rom.entry(w).shift as usize;
                f.shuffle.rotate(&self.stage[w * p..(w + 1) * p], shift, lanes);
                f.scenario.corrupt_word(w, lanes, &quantizer, point);
            });
            cycle += 1;
        }
        (cycle, self.queue.max_buffer)
    }

    /// Timed check phase: the annealed read sequence, FU pipeline, inverse
    /// shuffle on write-back, 4-bank conflict buffer. After a row's last
    /// read the functional units take its words in place and stage their
    /// outputs, and each output is rotated back into the information image,
    /// widened to `i16` in the same pass, when its write issues. Returns
    /// (cycles, max buffer occupancy).
    fn check_phase(&mut self, f: &mut Frame<W>, iteration: u32) -> (usize, usize) {
        let (p, pitch) = (PARALLELISM, f.fu.pitch());
        let quantizer = *f.fu.quantizer();
        let point = CommitPoint { iteration, phase: CommitPhase::Check };
        let row_len = f.rom.row_len();
        self.queue.begin_phase();
        f.fu.begin_check_phase();

        let (mut cycle, mut r, mut pos_in_row) = (0usize, 0usize, 0usize);
        while cycle < self.reads.len() || !self.queue.is_empty() {
            let mut read_bank = None;
            if let Some(&w) = self.reads.get(cycle) {
                read_bank = Some(self.queue.read(w as usize));
                pos_in_row += 1;
                if pos_in_row == row_len {
                    let span = r * (row_len + 2) * pitch..(r + 1) * (row_len + 2) * pitch;
                    let out = &mut self.stage[span.clone()];
                    f.fu.process_cn_row(r, &mut self.rows[span], out);
                    for (pos, &w) in f.schedule.row(r).iter().enumerate() {
                        self.queue.push(w as usize, cycle + 1 + self.fu_latency + pos);
                    }
                    r += 1;
                    pos_in_row = 0;
                }
            }
            self.queue.step(cycle, read_bank, |w| {
                let at = self.slot[w] as usize * pitch;
                let lanes = &mut f.ram[w * p..(w + 1) * p];
                let inv = f.shuffle.inverse_shift(f.rom.entry(w).shift as usize);
                f.shuffle.rotate(&self.stage[at..at + p], inv, lanes);
                f.scenario.corrupt_word(w, lanes, &quantizer, point);
            });
            cycle += 1;
        }
        f.fu.end_check_phase();
        (cycle, self.queue.max_buffer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anneal::{optimize_schedule, AnnealOptions};
    use crate::fault::RamFault;
    use crate::golden::GoldenModel;
    use dvbs2_decoder::test_support::noisy_llrs;
    use dvbs2_ldpc::{CodeRate, FrameSize};

    fn short_code() -> DvbS2Code {
        DvbS2Code::new(CodeRate::R1_2, FrameSize::Short).unwrap()
    }

    fn core(code: &DvbS2Code, config: CoreConfig) -> HardwareDecoder {
        HardwareDecoder::with_natural_schedule(code, config)
    }

    #[test]
    fn bit_exact_against_golden_model() {
        let code = short_code();
        let config = CoreConfig { max_iterations: 10, ..CoreConfig::default() };
        let mut hw = core(&code, config);
        let rom = ConnectivityRom::build(code.params(), code.table());
        let mut golden = GoldenModel::new(
            &code,
            CnSchedule::natural(&rom),
            config.quantizer,
            config.max_iterations,
            config.early_stop,
        );
        for seed in 0..4 {
            let (_, llrs) = noisy_llrs(&code, 2.2, 7000 + seed);
            let channel = hw.quantize_channel(&llrs);
            let hw_out = hw.decode_quantized(&channel);
            let golden_out = golden.decode_quantized(&channel);
            // Bit-exact, including frames that fail to converge.
            assert_eq!(hw_out.result, golden_out, "seed {seed}");
        }
    }

    #[test]
    fn bit_exact_with_annealed_schedule_and_early_stop() {
        let code = short_code();
        let rom = ConnectivityRom::build(code.params(), code.table());
        let schedule = optimize_schedule(
            &rom,
            MemoryConfig::default(),
            AnnealOptions { moves: 200, ..AnnealOptions::default() },
        )
        .schedule;
        let config = CoreConfig { early_stop: true, ..CoreConfig::default() };
        let mut hw = HardwareDecoder::new(&code, schedule.clone(), config);
        let mut golden =
            GoldenModel::new(&code, schedule, config.quantizer, config.max_iterations, true);
        let (cw, llrs) = noisy_llrs(&code, 3.2, 31);
        let channel = hw.quantize_channel(&llrs);
        let hw_out = hw.decode_quantized(&channel);
        let golden_out = golden.decode_quantized(&channel);
        assert_eq!(hw_out.result, golden_out);
        assert_eq!(hw_out.result.bits, cw);
    }

    #[test]
    fn cycle_counts_match_paper_structure() {
        let code = short_code();
        let config = CoreConfig { max_iterations: 30, ..CoreConfig::default() };
        let mut hw = core(&code, config);
        let (_, llrs) = noisy_llrs(&code, 3.2, 5);
        let out = hw.decode(&llrs);
        let p = code.params();
        assert_eq!(out.cycles.io_cycles, p.n.div_ceil(10));
        assert_eq!(out.cycles.iterations, 30);
        // Each half-iteration reads E_IN/360 words plus a small drain tail.
        let reads = p.addr_entries();
        let per_phase_min = 30 * reads;
        assert!(out.cycles.info_phase_cycles >= per_phase_min);
        assert!(out.cycles.info_phase_cycles < per_phase_min + 30 * 64);
        assert!(out.cycles.check_phase_cycles >= per_phase_min);
        assert!(out.cycles.check_phase_cycles < per_phase_min + 30 * 64);
        assert_eq!(
            out.cycles.total_cycles,
            out.cycles.io_cycles + out.cycles.info_phase_cycles + out.cycles.check_phase_cycles
        );
    }

    #[test]
    fn paper_point_cycle_breakdown_is_pinned() {
        // N = 64800 rate 1/2, 6 bit, 30 fixed iterations, P_IO = 10, four
        // banks, natural schedule: the traced benchmark's simulated counts.
        // Timing does not depend on message values, so any frame will do.
        let code = DvbS2Code::new(CodeRate::R1_2, FrameSize::Normal).unwrap();
        let mut hw = core(&code, CoreConfig::default());
        assert_eq!(hw.simd_tier(), Some(SimdTier::detect()), "the lanes, not the fallback");
        let out = hw.decode_quantized(&vec![3; code.params().n]);
        assert_eq!(
            out.cycles,
            CycleBreakdown {
                io_cycles: 6480,
                info_phase_cycles: 13890,
                check_phase_cycles: 13800,
                iterations: 30,
                max_buffer: 3,
                total_cycles: 34170,
            }
        );
    }

    /// Calls `f` on every cell of the timing grid: three normal-frame and
    /// two short-frame rates, each under three memory configurations (the
    /// default, 8 banks x 2 ports x latency 4, and 2 x 1 x 9) with the
    /// natural schedule and one annealed for that memory.
    fn for_each_timing_cell(mut f: impl FnMut(&str, &DvbS2Code, &CnSchedule, MemoryConfig)) {
        for (rate, frame) in [
            (CodeRate::R1_4, FrameSize::Normal),
            (CodeRate::R3_4, FrameSize::Normal),
            (CodeRate::R9_10, FrameSize::Normal),
            (CodeRate::R1_2, FrameSize::Short),
            (CodeRate::R8_9, FrameSize::Short),
        ] {
            let code = DvbS2Code::new(rate, frame).unwrap();
            let rom = ConnectivityRom::build(code.params(), code.table());
            for memory in [
                MemoryConfig::default(),
                MemoryConfig { banks: 8, write_ports: 2, fu_latency: 4 },
                MemoryConfig { banks: 2, write_ports: 1, fu_latency: 9 },
            ] {
                let options = AnnealOptions { moves: 200, ..AnnealOptions::default() };
                let annealed = optimize_schedule(&rom, memory, options).schedule;
                for (name, schedule) in
                    [("natural", CnSchedule::natural(&rom)), ("annealed", annealed)]
                {
                    f(&format!("{rate} {frame:?} {name} {memory:?}"), &code, &schedule, memory);
                }
            }
        }
    }

    #[test]
    fn cycle_breakdowns_are_pinned_across_rates_schedules_and_memories() {
        // `(io, info, check, max_buffer)` over two iterations in the order
        // of `for_each_timing_cell`, recorded from the core whose write
        // queue still carried the data. Timing does not depend on message
        // values, so any frame will do.
        const PINNED: [(usize, usize, usize, usize); 30] = [
            (6480, 574, 554, 2),    // 1/4 Normal natural 4x2x5
            (6480, 574, 554, 2),    // 1/4 Normal annealed 4x2x5
            (6480, 572, 552, 1),    // 1/4 Normal natural 8x2x4
            (6480, 572, 552, 1),    // 1/4 Normal annealed 8x2x4
            (6480, 582, 590, 14),   // 1/4 Normal natural 2x1x9
            (6480, 582, 590, 14),   // 1/4 Normal annealed 2x1x9
            (6480, 1114, 1114, 3),  // 3/4 Normal natural 4x2x5
            (6480, 1114, 1114, 3),  // 3/4 Normal annealed 4x2x5
            (6480, 1112, 1112, 2),  // 3/4 Normal natural 8x2x4
            (6480, 1112, 1112, 1),  // 3/4 Normal annealed 8x2x4
            (6480, 1122, 1180, 29), // 3/4 Normal natural 2x1x9
            (6480, 1122, 1178, 28), // 3/4 Normal annealed 2x1x9
            (6480, 1026, 1074, 2),  // 9/10 Normal natural 4x2x5
            (6480, 1026, 1074, 2),  // 9/10 Normal annealed 4x2x5
            (6480, 1024, 1072, 1),  // 9/10 Normal natural 8x2x4
            (6480, 1024, 1072, 1),  // 9/10 Normal annealed 8x2x4
            (6480, 1034, 1122, 20), // 9/10 Normal natural 2x1x9
            (6480, 1034, 1120, 19), // 9/10 Normal annealed 2x1x9
            (1620, 334, 322, 2),    // 1/2 Short natural 4x2x5
            (1620, 334, 322, 1),    // 1/2 Short annealed 4x2x5
            (1620, 332, 320, 1),    // 1/2 Short natural 8x2x4
            (1620, 332, 320, 1),    // 1/2 Short annealed 8x2x4
            (1620, 342, 350, 10),   // 1/2 Short natural 2x1x9
            (1620, 342, 348, 9),    // 1/2 Short annealed 2x1x9
            (1620, 296, 322, 2),    // 8/9 Short natural 4x2x5
            (1620, 296, 322, 1),    // 8/9 Short annealed 4x2x5
            (1620, 294, 320, 1),    // 8/9 Short natural 8x2x4
            (1620, 294, 320, 1),    // 8/9 Short annealed 8x2x4
            (1620, 306, 348, 9),    // 8/9 Short natural 2x1x9
            (1620, 306, 344, 7),    // 8/9 Short annealed 2x1x9
        ];
        let mut cell = 0;
        for_each_timing_cell(|label, code, schedule, memory| {
            let config = CoreConfig { max_iterations: 2, memory, ..CoreConfig::default() };
            let mut hw = HardwareDecoder::new(code, schedule.clone(), config);
            let c = hw.decode_quantized(&vec![3; code.params().n]).cycles;
            let got = (c.io_cycles, c.info_phase_cycles, c.check_phase_cycles, c.max_buffer);
            assert_eq!(got, PINNED[cell], "{label}");
            assert_eq!(c.total_cycles, c.io_cycles + c.info_phase_cycles + c.check_phase_cycles);
            cell += 1;
        });
        assert_eq!(cell, PINNED.len());
    }

    #[test]
    fn timed_stats_match_untimed_memory_simulation() {
        // The core's check phase and the fast schedule evaluator used by the
        // annealer must agree on the cycle and buffer accounting on every
        // cell of the timing grid.
        use crate::memory::simulate_cn_phase;
        for_each_timing_cell(|label, code, schedule, memory| {
            let config = CoreConfig { max_iterations: 1, memory, ..CoreConfig::default() };
            let mut hw = HardwareDecoder::new(code, schedule.clone(), config);
            let out = hw.decode_quantized(&vec![3; code.params().n]);
            let row_len = ConnectivityRom::build(code.params(), code.table()).row_len();
            let stats = simulate_cn_phase(memory, &schedule.read_sequence(), row_len);
            assert_eq!(out.cycles.check_phase_cycles, stats.total_cycles, "{label}");
            assert!(out.cycles.max_buffer >= stats.max_buffer, "{label}");
        });
    }

    /// The check phase's timing on the address-only queue alone: a row's
    /// write-backs arrive after its last read, as the core issues them.
    fn replay_check_phase(memory: MemoryConfig, reads: &[u32], row_len: usize) -> (usize, usize) {
        let words = reads.len();
        let mut queue = WriteQueue::new(words, memory);
        queue.begin_phase();
        let mut cycle = 0;
        while cycle < reads.len() || !queue.is_empty() {
            let read_bank = reads.get(cycle).map(|&w| queue.read(w as usize));
            if cycle < reads.len() && cycle % row_len == row_len - 1 {
                let row = &reads[cycle + 1 - row_len..=cycle];
                for (pos, &w) in row.iter().enumerate() {
                    queue.push(w as usize, cycle + 1 + memory.fu_latency + pos);
                }
            }
            queue.step(cycle, read_bank, |_| {});
            cycle += 1;
        }
        (cycle, queue.max_buffer)
    }

    #[test]
    fn the_write_queue_times_what_the_annealer_scores() {
        // Timing is a function of addresses alone: the queue that carries no
        // data must reproduce `simulate_cn_phase`, the annealer's evaluator,
        // on every memory configuration the oracle draws and on natural,
        // annealed and shuffled read orders.
        use crate::memory::simulate_cn_phase;
        let code = short_code();
        let rom = ConnectivityRom::build(code.params(), code.table());
        let row_len = rom.row_len();
        let natural = CnSchedule::natural(&rom).read_sequence();
        let annealed = optimize_schedule(
            &rom,
            MemoryConfig::default(),
            AnnealOptions { moves: 200, ..AnnealOptions::default() },
        )
        .schedule
        .read_sequence();
        // Any permutation of the words is a read order the queue must time.
        let mut shuffled = natural.clone();
        let mut state = 0x9E37_79B9_u64;
        for i in (1..shuffled.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            shuffled.swap(i, (state % (i as u64 + 1)) as usize);
        }
        for memory in [
            MemoryConfig::default(),
            MemoryConfig { banks: 2, write_ports: 1, fu_latency: 3 },
            MemoryConfig { banks: 4, write_ports: 2, fu_latency: 8 },
            MemoryConfig { banks: 8, write_ports: 2, fu_latency: 4 },
        ] {
            for reads in [&natural, &annealed, &shuffled] {
                let want = simulate_cn_phase(memory, reads, row_len);
                assert_eq!(
                    replay_check_phase(memory, reads, row_len),
                    (want.total_cycles, want.max_buffer),
                    "{memory:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "read-after-write hazard on word 3")]
    fn reading_a_word_in_flight_is_a_hazard() {
        let mut queue = WriteQueue::new(8, MemoryConfig::default());
        queue.begin_phase();
        queue.push(3, 10);
        queue.step(10, Some(3), |_| unreachable!()); // bank 3 is being read: the write waits
        queue.read(3);
    }

    #[test]
    fn fixed_iteration_decode_matches_early_stop_on_undecodable_frames() {
        // Regression for the per-iteration totals sweep: without early stop
        // the totals are now computed once after the loop. On a frame that
        // never converges the early-stopping core also runs to the cap, so
        // the two paths must agree bit for bit (same totals state). At a cap
        // of 0 no early-stop test runs, and both return the channel's
        // decisions.
        let code = short_code();
        let (_, llrs) = noisy_llrs(&code, 0.0, 13); // far below threshold
        for max_iterations in [0, 1, 4] {
            let mut fixed = core(&code, CoreConfig { max_iterations, ..CoreConfig::default() });
            let mut stopping = core(
                &code,
                CoreConfig { max_iterations, early_stop: true, ..CoreConfig::default() },
            );
            let channel = fixed.quantize_channel(&llrs);
            let a = fixed.decode_quantized(&channel);
            let b = stopping.decode_quantized(&channel);
            assert!(!a.result.converged && !b.result.converged, "cap {max_iterations}: converged");
            assert_eq!(a.result, b.result, "cap {max_iterations}");
        }
    }

    #[test]
    fn ram_faults_degrade_gracefully() {
        let code = short_code();
        let config = CoreConfig { max_iterations: 6, early_stop: true, ..CoreConfig::default() };
        let mut hw = core(&code, config);
        let graph = code.tanner_graph();
        let (_, llrs) = noisy_llrs(&code, 3.2, 99);
        let channel = hw.quantize_channel(&llrs);
        let clean = hw.decode_quantized(&channel);
        for fault in [
            RamFault::StuckWord { word: 3, value: 31 },
            RamFault::StuckWord { word: 0, value: -31 },
            RamFault::FlippedBits { word: 7, mask: 0b10101 },
        ] {
            hw.set_scenario(FaultScenario::single(fault));
            let out = hw.decode_quantized(&channel);
            // Bounded, panic-free, and internally consistent: a converged
            // flag must still mean the decisions satisfy every parity check.
            assert!(out.result.iterations <= config.max_iterations, "{fault:?}");
            if out.result.converged {
                assert!(
                    dvbs2_decoder::syndrome_ok(&graph, &out.result.bits),
                    "{fault:?}: converged without a clean syndrome"
                );
            }
        }
        // Clearing the fault restores bit-exact behavior.
        hw.set_scenario(FaultScenario::none());
        assert_eq!(hw.decode_quantized(&channel), clean);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fault_word_must_be_in_ram() {
        let code = short_code();
        let mut hw = core(&code, CoreConfig::default());
        hw.set_scenario(FaultScenario::single(RamFault::StuckWord { word: usize::MAX, value: 0 }));
    }

    #[test]
    fn faulted_core_is_bit_exact_against_faulted_golden_model() {
        // The fault-differential contract: corruption at write-commit is a
        // pure function of the written data, so an equally-faulted golden
        // model must agree on every decision AND every per-iteration message
        // digest — any divergence isolates a defect in the timing machinery.
        let code = short_code();
        let config = CoreConfig { max_iterations: 6, early_stop: true, ..CoreConfig::default() };
        let mut hw = core(&code, config);
        let rom = ConnectivityRom::build(code.params(), code.table());
        let mut golden = GoldenModel::new(
            &code,
            CnSchedule::natural(&rom),
            config.quantizer,
            config.max_iterations,
            config.early_stop,
        );
        let (_, llrs) = noisy_llrs(&code, 2.8, 4242);
        let channel = hw.quantize_channel(&llrs);
        for fault in [
            None,
            Some(RamFault::StuckWord { word: 3, value: 31 }),
            Some(RamFault::StuckWord { word: 0, value: -31 }),
            Some(RamFault::FlippedBits { word: 7, mask: 0b10101 }),
            Some(RamFault::FlippedBits { word: 11, mask: 1 }),
        ] {
            let scenario = fault.map(FaultScenario::single).unwrap_or_default();
            hw.set_scenario(scenario);
            golden.set_scenario(scenario);
            let mut hw_trace = Vec::new();
            let mut golden_trace = Vec::new();
            let hw_out = hw.decode_quantized_traced(&channel, &mut hw_trace);
            let golden_out = golden.decode_quantized_traced(&channel, &mut golden_trace);
            assert_eq!(hw_out.result, golden_out, "{fault:?}: results diverged");
            assert_eq!(hw_trace, golden_trace, "{fault:?}: message traces diverged");
            assert_eq!(hw_trace.len(), hw_out.result.iterations, "{fault:?}: trace length");
        }
    }

    #[test]
    fn faulted_scenarios_are_bit_exact_against_faulted_golden_model() {
        // The scenario-level fault-differential contract: multi-word,
        // transient (windowed and probabilistic) and FU datapath faults all
        // key on logical commit coordinates, so an equally-faulted golden
        // model must agree on every decision AND every per-iteration digest
        // even though the timed core commits writes in bank-arbitrated
        // order.
        use crate::fault::{FaultActivation, FaultScenario, FuFault, TimedRamFault};
        let code = short_code();
        let rom = ConnectivityRom::build(code.params(), code.table());
        let (_, llrs) = noisy_llrs(&code, 2.8, 4242);
        let scenarios = [
            // Two concurrent permanent faults, one pair on the same word.
            FaultScenario::single(RamFault::StuckWord { word: 3, value: 31 })
                .with_ram(TimedRamFault::permanent(RamFault::FlippedBits { word: 3, mask: 1 }))
                .with_ram(TimedRamFault::permanent(RamFault::StuckWord { word: 9, value: -31 })),
            // A transient burst over iterations 1..3.
            FaultScenario::none().with_ram(TimedRamFault {
                fault: RamFault::FlippedBits { word: 5, mask: 0b111 },
                activation: FaultActivation::Window { from: 1, until: 3 },
            }),
            // Seeded per-commit upsets at 20%.
            FaultScenario::none().with_ram(TimedRamFault {
                fault: RamFault::FlippedBits { word: 2, mask: 0b1010 },
                activation: FaultActivation::Random { seed: 0xBEEF, per_mille: 200 },
            }),
            // FU datapath faults, alone and combined with a RAM fault.
            FaultScenario::none().with_fu(Some(FuFault::StuckSign { unit: 17, negative: true })),
            FaultScenario::single(RamFault::StuckWord { word: 1, value: 16 })
                .with_fu(Some(FuFault::StuckMag { unit: 359, value: 31 })),
        ];
        // At a cap of 0 a power-on stuck word reaches both verdicts'
        // totals with no phase run.
        for max_iterations in [6, 0] {
            let config = CoreConfig { max_iterations, early_stop: true, ..CoreConfig::default() };
            let mut hw = core(&code, config);
            let mut golden = GoldenModel::new(
                &code,
                CnSchedule::natural(&rom),
                config.quantizer,
                max_iterations,
                true,
            );
            let channel = hw.quantize_channel(&llrs);
            for scenario in scenarios {
                hw.set_scenario(scenario);
                golden.set_scenario(scenario);
                let mut hw_trace = Vec::new();
                let mut golden_trace = Vec::new();
                let hw_out = hw.decode_quantized_traced(&channel, &mut hw_trace);
                let golden_out = golden.decode_quantized_traced(&channel, &mut golden_trace);
                let label = format!("cap {max_iterations} {scenario:?}");
                assert_eq!(hw_out.result, golden_out, "{label}: results diverged");
                assert_eq!(hw_trace, golden_trace, "{label}: message traces diverged");
                // With no phase run the verdict is the channel's own, and a
                // 2.8 dB channel does not satisfy every check.
                let idle = max_iterations == 0 && hw_out.result.converged;
                assert!(!idle, "{label}: converged without an iteration");
            }
            // Clearing the scenario restores fault-free behavior.
            hw.set_scenario(FaultScenario::none());
            golden.set_scenario(FaultScenario::none());
            assert_eq!(hw.decode_quantized(&channel).result, golden.decode_quantized(&channel));
        }
    }

    #[test]
    fn sixteen_bit_faults_are_bit_exact_on_the_per_unit_datapath() {
        // At 16 bits the rail is `i16`'s own, the lanes refuse the quantizer
        // and the array runs unit by unit; every fault narrows a value the
        // quantizer snapped into ±32767, including from `i32` extremes.
        use crate::fault::{FaultScenario, TimedRamFault};
        let code = short_code();
        let quantizer = Quantizer::new(16, 1.0 / 4096.0);
        let config = CoreConfig { quantizer, max_iterations: 3, ..CoreConfig::default() };
        let mut hw = core(&code, config);
        assert_eq!(hw.simd_tier(), None, "16 bits take the per-unit datapath");
        let rom = ConnectivityRom::build(code.params(), code.table());
        let mut golden = GoldenModel::new(&code, CnSchedule::natural(&rom), quantizer, 3, false);
        let (_, llrs) = noisy_llrs(&code, 2.8, 1616);
        let channel = hw.quantize_channel(&llrs);
        let scenario = FaultScenario::single(RamFault::StuckWord { word: 3, value: i32::MAX })
            .with_ram(TimedRamFault::permanent(RamFault::FlippedBits { word: 5, mask: -1 }))
            .with_ram(TimedRamFault::permanent(RamFault::FlippedBits { word: 8, mask: i32::MIN }));
        hw.set_scenario(scenario);
        golden.set_scenario(scenario);
        let (mut hw_trace, mut golden_trace) = (Vec::new(), Vec::new());
        let hw_out = hw.decode_quantized_traced(&channel, &mut hw_trace);
        assert_eq!(hw_out.result, golden.decode_quantized_traced(&channel, &mut golden_trace));
        assert_eq!(hw_trace, golden_trace);
    }

    #[test]
    fn each_width_takes_the_narrowest_check_word() {
        // The `i8` lanes' own eligibility picks the word: 4 to 6 bits run
        // the check image and rows on `i8`, 7 to 15 bits on the `i16` lanes,
        // 16 bits on the per-unit loop over `i16` rows, and so does a 6-bit
        // table neither lane word carries (seven correction steps).
        let code = short_code();
        let lanes = Some(SimdTier::detect());
        let widths = (4..=16).map(|bits| {
            let (word, tier) = match bits {
                4..=6 => (8, lanes),
                7..=15 => (16, lanes),
                _ => (16, None),
            };
            (Quantizer::new(bits, 0.25), word, tier)
        });
        let tables = [(Quantizer::paper_5bit(), 8, lanes), (Quantizer::new(6, 0.1), 16, None)];
        for (quantizer, word, tier) in widths.chain(tables) {
            let hw = core(&code, CoreConfig { quantizer, ..CoreConfig::default() });
            assert_eq!((hw.check_word_bits(), hw.simd_tier()), (word, tier), "{quantizer:?}");
        }
    }

    #[test]
    fn widths_off_the_paper_point_are_bit_exact_on_their_check_word() {
        // The oracle draws 5 and 6 bits, which the core runs on `i8`. 4 bits
        // (`i8`) and 7 and 8 bits (the `i16` lanes) are held to the same
        // contract here: decisions and per-iteration digests against the
        // golden model's `i16` rows, fault-free and with RAM faults at both
        // commit points plus a unit fault, and cycles equal to the paper
        // core's, since timing depends on addresses alone.
        use crate::fault::{FaultActivation, FuFault, TimedRamFault};
        let code = short_code();
        let rom = ConnectivityRom::build(code.params(), code.table());
        let (_, llrs) = noisy_llrs(&code, 2.4, 4711);
        let paper = CoreConfig { max_iterations: 4, ..CoreConfig::default() };
        let mut paper_core = core(&code, paper);
        let cycles = paper_core.decode(&llrs).cycles;
        let faulted = |max_mag: i32| {
            // Permanent faults strike the power-on fill and every commit of
            // both phases; the seeded one some commits of each.
            FaultScenario::single(RamFault::StuckWord { word: 3, value: 3 * max_mag })
                .with_ram(TimedRamFault::permanent(RamFault::FlippedBits { word: 7, mask: 0b101 }))
                .with_ram(TimedRamFault {
                    fault: RamFault::FlippedBits { word: 12, mask: -1 },
                    activation: FaultActivation::Random { seed: 0x8B17, per_mille: 500 },
                })
                .with_fu(Some(FuFault::StuckMag { unit: 200, value: max_mag / 2 }))
        };
        for (quantizer, word) in [
            (Quantizer::new(4, 1.0), 8),
            (Quantizer::new(7, 0.25), 16),
            (Quantizer::new(8, 0.25), 16),
        ] {
            let config = CoreConfig { quantizer, ..paper };
            let mut hw = core(&code, config);
            assert_eq!(hw.check_word_bits(), word, "{quantizer:?}");
            assert!(hw.simd_tier().is_some(), "{quantizer:?} runs on the lanes");
            let mut golden =
                GoldenModel::new(&code, CnSchedule::natural(&rom), quantizer, 4, false);
            let channel = hw.quantize_channel(&llrs);
            let mut traces = Vec::new();
            for scenario in [FaultScenario::none(), faulted(quantizer.max_mag())] {
                hw.set_scenario(scenario);
                golden.set_scenario(scenario);
                let (mut hw_trace, mut golden_trace) = (Vec::new(), Vec::new());
                let out = hw.decode_quantized_traced(&channel, &mut hw_trace);
                let label = format!("{quantizer:?} {scenario:?}");
                let golden_out = golden.decode_quantized_traced(&channel, &mut golden_trace);
                assert_eq!(out.result, golden_out, "{label}: results diverged");
                assert_eq!(hw_trace, golden_trace, "{label}: message traces diverged");
                assert_eq!(out.cycles, cycles, "{label}: timing moved");
                traces.push(hw_trace);
            }
            assert_ne!(traces[0], traces[1], "{quantizer:?}: the faults must strike");
        }
    }

    #[test]
    fn transient_fault_outside_its_window_is_inert() {
        // A burst confined to iterations past the cap must decode
        // bit-identically to the fault-free core.
        use crate::fault::{FaultActivation, FaultScenario, TimedRamFault};
        let code = short_code();
        let config = CoreConfig { max_iterations: 4, ..CoreConfig::default() };
        let mut hw = core(&code, config);
        let (_, llrs) = noisy_llrs(&code, 3.0, 808);
        let channel = hw.quantize_channel(&llrs);
        let clean = hw.decode_quantized(&channel);
        hw.set_scenario(FaultScenario::none().with_ram(TimedRamFault {
            fault: RamFault::StuckWord { word: 0, value: 31 },
            activation: FaultActivation::Window { from: 10, until: 20 },
        }));
        assert_eq!(hw.decode_quantized(&channel), clean);
    }

    #[test]
    fn traced_decode_matches_untraced() {
        let code = short_code();
        let mut hw = core(&code, CoreConfig { max_iterations: 5, ..CoreConfig::default() });
        let (_, llrs) = noisy_llrs(&code, 2.4, 57);
        let channel = hw.quantize_channel(&llrs);
        let plain = hw.decode_quantized(&channel);
        let mut trace = Vec::new();
        let traced = hw.decode_quantized_traced(&channel, &mut trace);
        assert_eq!(plain, traced);
        assert_eq!(trace.len(), traced.result.iterations);
        // Messages evolve between iterations, so digests must not repeat on
        // a frame that is still converging.
        assert!(trace.windows(2).all(|w| w[0] != w[1]));
    }

    #[test]
    fn early_stop_reduces_cycles_on_clean_frames() {
        let code = short_code();
        let mut fixed = core(&code, CoreConfig { max_iterations: 30, ..CoreConfig::default() });
        let mut stopping = core(
            &code,
            CoreConfig { max_iterations: 30, early_stop: true, ..CoreConfig::default() },
        );
        let (_, llrs) = noisy_llrs(&code, 4.0, 77);
        let a = fixed.decode(&llrs);
        let b = stopping.decode(&llrs);
        assert!(b.cycles.iterations < a.cycles.iterations);
        assert!(b.cycles.total_cycles < a.cycles.total_cycles);
    }
}
