//! The cycle-accurate decoder core — Figure 4 of the paper, clocked.
//!
//! [`HardwareDecoder`] moves every message through the modeled memory
//! subsystem: one wide read per cycle, functional-unit pipeline latency,
//! write-back through the shuffling network into the 4-bank single-port
//! RAMs, and the conflict buffer of Figure 5. Its decode results must be
//! **bit-identical** to the untimed [`crate::GoldenModel`] (verified in the
//! test suite and `tests/hw_equivalence.rs`), and its cycle counts are the
//! measured side of the Eq. 8 throughput comparison.

use crate::fault::{CommitPhase, CommitPoint, FaultScenario, RamFault};
use crate::functional_unit::FunctionalUnitArray;
use crate::golden::{compute_totals, syndrome_clean};
use crate::memory::MemoryConfig;
use crate::rom::ConnectivityRom;
use crate::schedule::CnSchedule;
use crate::shuffle::ShuffleNetwork;
use dvbs2_decoder::{hard_decisions_int, DecodeResult, Quantizer, SimdTier};
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

/// A write-back in flight: committed to the RAM only when the memory
/// subsystem grants it a bank.
#[derive(Debug, Clone)]
struct PendingWrite {
    word: u32,
    arrival: usize,
    data: Vec<i32>,
}

/// Data-carrying model of the conflict buffer of Figure 5.
///
/// Lives as long as the core: a committed write hands its word buffer back
/// for the next one, so after the first phase a decode allocates nothing
/// here.
#[derive(Debug, Default)]
struct WriteQueue {
    inflight: VecDeque<PendingWrite>,
    buffer: VecDeque<PendingWrite>,
    max_buffer: usize,
    /// Word buffers of committed writes, for [`WriteQueue::word_buffer`].
    free: Vec<Vec<i32>>,
    /// Banks written in the current cycle.
    issued: Vec<u32>,
}

impl WriteQueue {
    /// Starts a phase with an empty queue and a fresh occupancy count. A
    /// phase drains its queue, so there is something to clear only after a
    /// decode that unwound mid-phase.
    fn begin_phase(&mut self) {
        let stale = self.inflight.drain(..).chain(self.buffer.drain(..));
        self.free.extend(stale.map(|w| w.data));
        self.max_buffer = 0;
    }

    /// A 360-lane buffer for the next [`WriteQueue::push`].
    fn word_buffer(&mut self) -> Vec<i32> {
        self.free.pop().unwrap_or_else(|| vec![0; PARALLELISM])
    }

    fn push(&mut self, word: u32, arrival: usize, data: Vec<i32>) {
        debug_assert!(self.inflight.back().is_none_or(|w| w.arrival <= arrival));
        self.inflight.push_back(PendingWrite { word, arrival, data });
    }

    /// One memory cycle: accept arrivals, issue up to `write_ports` writes
    /// to distinct banks not being read, commit them into `ram`.
    #[allow(clippy::too_many_arguments)]
    fn step(
        &mut self,
        cycle: usize,
        read_bank: Option<u32>,
        memory: MemoryConfig,
        ram: &mut [i32],
        write_pending: &mut [bool],
        scenario: &FaultScenario,
        quantizer: &Quantizer,
        point: CommitPoint,
    ) {
        while self.inflight.front().is_some_and(|w| w.arrival <= cycle) {
            let w = self.inflight.pop_front().expect("checked non-empty");
            self.buffer.push_back(w);
        }
        let banks = memory.banks as u32;
        self.issued.clear();
        let mut idx = 0;
        while idx < self.buffer.len() && self.issued.len() < memory.write_ports {
            let bank = self.buffer[idx].word % banks;
            if Some(bank) != read_bank && !self.issued.contains(&bank) {
                self.issued.push(bank);
                let w = self.buffer.remove(idx).expect("index in range");
                let word = w.word as usize;
                let p = w.data.len();
                let lanes = &mut ram[word * p..(word + 1) * p];
                lanes.copy_from_slice(&w.data);
                scenario.corrupt_word(word, lanes, quantizer, point);
                write_pending[word] = false;
                self.free.push(w.data);
            } else {
                idx += 1;
            }
        }
        self.max_buffer = self.max_buffer.max(self.buffer.len());
    }

    fn is_empty(&self) -> bool {
        self.inflight.is_empty() && self.buffer.is_empty()
    }
}

/// The cycle-accurate IP core model.
#[derive(Debug)]
pub struct HardwareDecoder {
    params: CodeParams,
    rom: ConnectivityRom,
    schedule: CnSchedule,
    /// `schedule.read_sequence()`, the check phase's read per cycle.
    reads: Vec<u32>,
    fu: FunctionalUnitArray,
    shuffle: ShuffleNetwork,
    config: CoreConfig,
    scenario: FaultScenario,
    ram: Vec<i32>,
    write_pending: Vec<bool>,
    queue: WriteQueue,
    totals: Vec<i32>,
    block_in: Vec<i32>,
    block_out: Vec<i32>,
}

impl HardwareDecoder {
    /// Builds the core for a code with an explicit check-phase schedule
    /// (see [`crate::optimize_schedule`] for an annealed one).
    ///
    /// # Panics
    ///
    /// Panics if the schedule does not match the code's ROM.
    pub fn new(code: &DvbS2Code, schedule: CnSchedule, config: CoreConfig) -> Self {
        let params = *code.params();
        let rom = ConnectivityRom::build(&params, code.table());
        schedule.validate(&rom).expect("schedule must match the code's ROM");
        let words = rom.words();
        let max_block = params.hi.degree.max(params.check_degree);
        HardwareDecoder {
            fu: FunctionalUnitArray::new(&params, config.quantizer),
            shuffle: ShuffleNetwork::new(PARALLELISM),
            ram: vec![0; words * PARALLELISM],
            write_pending: vec![false; words],
            queue: WriteQueue::default(),
            totals: vec![0; params.n],
            block_in: vec![0; max_block * PARALLELISM],
            block_out: vec![0; max_block * PARALLELISM],
            params,
            rom,
            reads: schedule.read_sequence(),
            schedule,
            config,
            scenario: FaultScenario::none(),
        }
    }

    /// Builds the core with the natural (unoptimized) schedule.
    pub fn with_natural_schedule(code: &DvbS2Code, config: CoreConfig) -> Self {
        let rom = ConnectivityRom::build(code.params(), code.table());
        Self::new(code, CnSchedule::natural(&rom), config)
    }

    /// The code parameters.
    pub fn params(&self) -> &CodeParams {
        &self.params
    }

    /// The configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.config
    }

    /// The schedule driving the check phase.
    pub fn schedule(&self) -> &CnSchedule {
        &self.schedule
    }

    /// The dispatch tier the functional units' lane-wide check update runs
    /// at, or `None` when the quantizer takes the per-unit fallback (see
    /// [`FunctionalUnitArray::simd_tier`]).
    pub fn simd_tier(&self) -> Option<SimdTier> {
        self.fu.simd_tier()
    }

    /// Injects (or clears) a single permanently stuck/flipping RAM word —
    /// the pre-scenario fault API, kept as a thin wrapper over
    /// [`HardwareDecoder::set_scenario`].
    ///
    /// # Panics
    ///
    /// Panics if the fault's word address is outside the message RAM.
    pub fn set_fault(&mut self, fault: Option<RamFault>) {
        self.set_scenario(fault.map(FaultScenario::from).unwrap_or_default());
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
        scenario.validate(self.rom.words());
        self.fu.set_fault(scenario.fu_fault());
        self.scenario = scenario;
    }

    /// The injected RAM fault, if the active scenario is a single permanent
    /// one (the only kind the pre-scenario API could express).
    pub fn fault(&self) -> Option<RamFault> {
        self.scenario.as_single_permanent()
    }

    /// The active fault scenario (empty when fault-free).
    pub fn scenario(&self) -> &FaultScenario {
        &self.scenario
    }

    /// Quantizes float channel LLRs with the core's quantizer.
    pub fn quantize_channel(&self, llrs: &[f64]) -> Vec<i32> {
        let mut channel = vec![0; llrs.len()];
        self.config.quantizer.quantize_into(llrs, &mut channel);
        channel
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
        self.decode_inner(channel, None)
    }

    /// Decodes one frame and records a per-iteration digest of the complete
    /// message state after each check phase, in the same format as
    /// [`crate::GoldenModel::decode_quantized_traced`]. The two traces must
    /// be identical — with or without an injected [`RamFault`] — which is
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
        trace.clear();
        self.decode_inner(channel, Some(trace))
    }

    fn decode_inner(
        &mut self,
        channel: &[i32],
        mut trace: Option<&mut Vec<u64>>,
    ) -> HwDecodeOutput {
        assert_eq!(channel.len(), self.params.n, "LLR length mismatch");
        self.ram.fill(0);
        self.scenario.corrupt_power_on(&mut self.ram, &self.config.quantizer);
        self.write_pending.fill(false);
        self.fu.reset(channel);

        let mut cycles = CycleBreakdown {
            io_cycles: self.params.n.div_ceil(self.config.p_io),
            ..CycleBreakdown::default()
        };
        let mut converged = false;

        for iteration in 0..self.config.max_iterations {
            cycles.iterations += 1;
            let (info_cycles, info_buf) = self.information_phase_timed(channel, iteration as u32);
            let (check_cycles, check_buf) = self.check_phase_timed(iteration as u32);
            cycles.info_phase_cycles += info_cycles;
            cycles.check_phase_cycles += check_cycles;
            cycles.max_buffer = cycles.max_buffer.max(info_buf).max(check_buf);
            if let Some(t) = trace.as_deref_mut() {
                t.push(crate::golden::message_digest(&self.ram, &self.fu));
            }
            // A full totals sweep (one pass over E_IN) is only observable
            // through the early-stop syndrome test; without early stopping
            // only the final totals matter, so the sweep runs once after the
            // loop (bit-identical — the totals are a pure function of the
            // RAM and functional-unit state after the last check phase).
            if self.config.early_stop {
                compute_totals(
                    &self.params,
                    &self.rom,
                    &self.ram,
                    &self.fu,
                    channel,
                    &mut self.totals,
                );
                if syndrome_clean(&self.params, &self.rom, &self.totals) {
                    converged = true;
                    break;
                }
            }
        }
        if !converged {
            if !self.config.early_stop {
                compute_totals(
                    &self.params,
                    &self.rom,
                    &self.ram,
                    &self.fu,
                    channel,
                    &mut self.totals,
                );
            }
            converged = syndrome_clean(&self.params, &self.rom, &self.totals);
        }
        cycles.total_cycles =
            cycles.io_cycles + cycles.info_phase_cycles + cycles.check_phase_cycles;
        HwDecodeOutput {
            result: DecodeResult {
                bits: hard_decisions_int(&self.totals),
                iterations: cycles.iterations,
                converged,
            },
            cycles,
        }
    }

    /// Timed information phase: sequential word reads (one per cycle), node
    /// outputs re-enter the RAM through the shuffle network and the write
    /// queue. Returns (cycles, max buffer occupancy).
    fn information_phase_timed(&mut self, channel: &[i32], iteration: u32) -> (usize, usize) {
        let p = PARALLELISM;
        let point = CommitPoint { iteration, phase: CommitPhase::Info };
        let latency = self.config.memory.fu_latency;
        self.queue.begin_phase();
        let words = self.rom.words();
        let mut cycle = 0usize;
        let mut group = 0usize;
        let mut word_in_group = 0usize;
        // The functional unit's serial output port: one wide word per cycle,
        // so a short group's outputs wait for the previous group's stream.
        let mut output_free_at = 0usize;

        while cycle < words || !self.queue.is_empty() {
            let read_word = if cycle < words { Some(cycle) } else { None };
            if let Some(w) = read_word {
                assert!(!self.write_pending[w], "read-after-write hazard on word {w}");
                let d = self.params.group_degree(group);
                self.block_in[word_in_group * p..(word_in_group + 1) * p]
                    .copy_from_slice(&self.ram[w * p..(w + 1) * p]);
                word_in_group += 1;
                if word_in_group == d {
                    // Node complete: the functional units produce the
                    // group's outputs, streaming out after the pipeline
                    // latency, one (shifted) wide word per cycle.
                    let base = self.rom.group_base(group);
                    // Split borrows: block_in is read, block_out written.
                    let (bi, bo) = (&self.block_in[..d * p], &mut self.block_out[..d * p]);
                    self.fu.process_vn_group(d, &channel[group * p..(group + 1) * p], bi, bo);
                    let first_out = (cycle + 1 + latency).max(output_free_at);
                    for i in 0..d {
                        let shift = self.rom.entry(base + i).shift as usize;
                        let mut rotated = self.queue.word_buffer();
                        self.shuffle.rotate(
                            &self.block_out[i * p..(i + 1) * p],
                            shift,
                            &mut rotated,
                        );
                        self.write_pending[base + i] = true;
                        self.queue.push((base + i) as u32, first_out + i, rotated);
                    }
                    output_free_at = first_out + d;
                    group += 1;
                    word_in_group = 0;
                }
            }
            let read_bank = read_word.map(|w| (w % self.config.memory.banks) as u32);
            self.queue.step(
                cycle,
                read_bank,
                self.config.memory,
                &mut self.ram,
                &mut self.write_pending,
                &self.scenario,
                &self.config.quantizer,
                point,
            );
            cycle += 1;
        }
        (cycle, self.queue.max_buffer)
    }

    /// Timed check phase: the annealed read sequence, FU pipeline, inverse
    /// shuffle on write-back, 4-bank conflict buffer. Returns
    /// (cycles, max buffer occupancy).
    fn check_phase_timed(&mut self, iteration: u32) -> (usize, usize) {
        let p = PARALLELISM;
        let point = CommitPoint { iteration, phase: CommitPhase::Check };
        let row_len = self.rom.row_len();
        let latency = self.config.memory.fu_latency;
        self.queue.begin_phase();
        self.fu.begin_check_phase();

        let mut cycle = 0usize;
        while cycle < self.reads.len() || !self.queue.is_empty() {
            let read_word = self.reads.get(cycle).map(|&w| w as usize);
            if let Some(w) = read_word {
                assert!(!self.write_pending[w], "read-after-write hazard on word {w}");
                let i = cycle % row_len;
                self.block_in[i * p..(i + 1) * p].copy_from_slice(&self.ram[w * p..(w + 1) * p]);
                if i == row_len - 1 {
                    let r = cycle / row_len;
                    {
                        let (bi, bo) =
                            (&self.block_in[..row_len * p], &mut self.block_out[..row_len * p]);
                        self.fu.process_cn_row(r, bi, bo);
                    }
                    for (pos, &word) in self.schedule.row(r).iter().enumerate() {
                        let shift = self.rom.entry(word as usize).shift as usize;
                        let inv = self.shuffle.inverse_shift(shift);
                        let mut rotated = self.queue.word_buffer();
                        self.shuffle.rotate(
                            &self.block_out[pos * p..(pos + 1) * p],
                            inv,
                            &mut rotated,
                        );
                        self.write_pending[word as usize] = true;
                        self.queue.push(word, cycle + 1 + latency + pos, rotated);
                    }
                }
            }
            let read_bank = read_word.map(|w| (w % self.config.memory.banks) as u32);
            self.queue.step(
                cycle,
                read_bank,
                self.config.memory,
                &mut self.ram,
                &mut self.write_pending,
                &self.scenario,
                &self.config.quantizer,
                point,
            );
            cycle += 1;
        }
        self.fu.end_check_phase();
        (cycle, self.queue.max_buffer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anneal::{optimize_schedule, AnnealOptions};
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

    #[test]
    fn timed_stats_match_untimed_memory_simulation() {
        // The data-carrying write queue and the fast schedule evaluator used
        // by the annealer must agree on the cycle/buffer accounting.
        use crate::memory::simulate_cn_phase;
        let code = short_code();
        let config = CoreConfig { max_iterations: 1, ..CoreConfig::default() };
        let mut hw = core(&code, config);
        let (_, llrs) = noisy_llrs(&code, 3.2, 9);
        let out = hw.decode(&llrs);
        let rom = ConnectivityRom::build(code.params(), code.table());
        let stats = simulate_cn_phase(
            config.memory,
            &CnSchedule::natural(&rom).read_sequence(),
            rom.row_len(),
        );
        assert_eq!(out.cycles.check_phase_cycles, stats.total_cycles);
    }

    #[test]
    fn fixed_iteration_decode_matches_early_stop_on_undecodable_frames() {
        // Regression for the per-iteration totals sweep: without early stop
        // the totals are now computed once after the loop. On a frame that
        // never converges the early-stopping core also runs to the cap, so
        // the two paths must agree bit for bit (same totals state).
        let code = short_code();
        let mut fixed = core(&code, CoreConfig { max_iterations: 4, ..CoreConfig::default() });
        let mut stopping = core(
            &code,
            CoreConfig { max_iterations: 4, early_stop: true, ..CoreConfig::default() },
        );
        let (_, llrs) = noisy_llrs(&code, 0.0, 13); // far below threshold
        let channel = fixed.quantize_channel(&llrs);
        let a = fixed.decode_quantized(&channel);
        let b = stopping.decode_quantized(&channel);
        assert!(!a.result.converged && !b.result.converged, "frame must not converge");
        assert_eq!(a.result, b.result);
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
            hw.set_fault(Some(fault));
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
        hw.set_fault(None);
        assert_eq!(hw.decode_quantized(&channel), clean);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fault_word_must_be_in_ram() {
        let code = short_code();
        let mut hw = core(&code, CoreConfig::default());
        hw.set_fault(Some(RamFault::StuckWord { word: usize::MAX, value: 0 }));
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
            hw.set_fault(fault);
            golden.set_fault(fault);
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
        for scenario in scenarios {
            hw.set_scenario(scenario);
            golden.set_scenario(scenario);
            let mut hw_trace = Vec::new();
            let mut golden_trace = Vec::new();
            let hw_out = hw.decode_quantized_traced(&channel, &mut hw_trace);
            let golden_out = golden.decode_quantized_traced(&channel, &mut golden_trace);
            assert_eq!(hw_out.result, golden_out, "{scenario:?}: results diverged");
            assert_eq!(hw_trace, golden_trace, "{scenario:?}: message traces diverged");
        }
        // Clearing the scenario restores fault-free behavior.
        hw.set_scenario(FaultScenario::none());
        golden.set_scenario(FaultScenario::none());
        assert_eq!(hw.decode_quantized(&channel).result, golden.decode_quantized(&channel));
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
