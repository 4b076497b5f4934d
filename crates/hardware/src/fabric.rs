//! A cycle-accurate multi-core decoder fabric — P copies of the paper's
//! 360-FU core behind a shared frame-memory front end.
//!
//! The paper's IP core is a single decoder; how far past its 255 Mbit/s
//! (towards 10 Gbit/s) replicated cores scale is the question here.
//! [`DecoderFabric`] answers with a modeled
//! interconnect in the style of a cycle-driven cache simulator: independent
//! frames are dealt round-robin to P [`HardwareDecoder`] cores, channel
//! values stream from the shared front end over a single arbitrated bus
//! (`P_IO` values per granted cycle, one grant per cycle), each grant
//! traverses a fixed-latency link into the winning core's input FIFO, and
//! decoded results travel back over the same-latency return link. The model
//! counts contention explicitly — per-frame bus-stall cycles, arbitration
//! losses, input-queue waits, and per-port queue high-water marks — so the
//! measured makespan can validate (or correct) the extended Eq. 8 model in
//! [`crate::FabricModel`].
//!
//! Two invariants anchor the model to the single-core truth:
//!
//! * **P = 1 identity** ([`FabricConfig::single`]): with one core and a
//!   zero-latency link, every frame's fabric span equals the core's
//!   [`CycleBreakdown::total_cycles`] exactly, and the batch makespan is
//!   their sum. The fabric never invents or loses a cycle.
//! * **Bit-exactness**: every frame is decoded by one real
//!   [`HardwareDecoder`], reset per frame, so P cores would hold P
//!   identical states and the decoded bits are independent of P, of the
//!   arbitration policy, and of any modeled contention — timing and data
//!   are separated by construction, and the differential oracle's
//!   `fabric=` dimension pins that separation against regressions. P is a
//!   parameter of the timing model alone.

use crate::core::{CoreConfig, CycleBreakdown, HardwareDecoder, HwDecodeOutput};
use crate::fault::FaultScenario;
use crate::rom::ConnectivityRom;
use crate::schedule::CnSchedule;
use dvbs2_ldpc::DvbS2Code;
use std::collections::VecDeque;

/// Bus arbitration policy of the shared front end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arbitration {
    /// Fair rotating-priority grant: after a grant the pointer advances past
    /// the winner (the default, and what a real bus would ship).
    RoundRobin {
        /// Initial position of the grant pointer (modulo the core count).
        start: usize,
    },
    /// Static priority: the lowest-indexed requester always wins. Unfair by
    /// design — it exposes the worst-case starvation the round-robin policy
    /// avoids, and decoded bits must not depend on the difference.
    Fixed,
}

impl Default for Arbitration {
    fn default() -> Self {
        Arbitration::RoundRobin { start: 0 }
    }
}

/// Configuration of the multi-core fabric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricConfig {
    /// Number of decoder cores (P ≥ 1).
    pub cores: usize,
    /// Configuration shared by every core.
    pub core: CoreConfig,
    /// Fixed one-way link latency in cycles between the front end and a
    /// core: every granted bus beat arrives `link_latency` cycles later, and
    /// the decoded result takes the same time to travel back.
    pub link_latency: usize,
    /// Bus arbitration policy.
    pub arbitration: Arbitration,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            cores: 4,
            core: CoreConfig::default(),
            link_latency: 2,
            arbitration: Arbitration::default(),
        }
    }
}

impl FabricConfig {
    /// The degenerate fabric that must be cycle- and bit-identical to a bare
    /// [`HardwareDecoder`]: one core, zero link latency.
    pub fn single(core: CoreConfig) -> Self {
        FabricConfig { cores: 1, core, link_latency: 0, arbitration: Arbitration::default() }
    }
}

/// Cycle-level life of one frame inside the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameTiming {
    /// Index of the frame in the submitted batch.
    pub frame: usize,
    /// Core the frame was dealt to (`frame % cores`).
    pub core: usize,
    /// Cycle the core first requested the input bus for this frame.
    pub first_request: u64,
    /// Cycle of the first granted bus beat.
    pub first_grant: u64,
    /// Bus beats needed to load the frame, `ceil(N / P_IO)`.
    pub io_beats: usize,
    /// Cycles spent requesting the bus without a grant (arbitration stalls).
    pub load_stall_cycles: u64,
    /// Cycles the fully-loaded frame waited in the core's input FIFO for the
    /// decode engine. Always zero today: like the paper's core (and Eq. 8),
    /// a port serializes I/O and decode, so the engine is idle when a load
    /// completes. Kept as a term of the span identity.
    pub input_wait_cycles: u64,
    /// Cycle decoding started.
    pub decode_start: u64,
    /// Decode cycles (the core's info + check phases; I/O is modeled by the
    /// fabric, not the core).
    pub decode_cycles: usize,
    /// Cycle the decoded result is back at the shared front end.
    pub done_cycle: u64,
}

impl FrameTiming {
    /// Total fabric cycles from first bus request to the returned result.
    ///
    /// Decomposes exactly as
    /// `io_beats + load_stall_cycles + input_wait_cycles + decode_cycles +
    /// 2 * link_latency` — the simulator asserts this identity for every
    /// frame, so contention is fully accounted, never smeared.
    pub fn span_cycles(&self) -> u64 {
        self.done_cycle - self.first_request
    }
}

/// Aggregate contention counters of one batch.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FabricStats {
    /// Cores in the fabric.
    pub cores: usize,
    /// Frames decoded.
    pub frames: usize,
    /// Cycle the last result reached the front end (0 for an empty batch).
    pub makespan_cycles: u64,
    /// Cycles the input bus spent granted (= total beats transferred).
    pub bus_busy_cycles: u64,
    /// Total core-cycles spent requesting the bus without a grant.
    pub stall_cycles: u64,
    /// Grant decisions lost: for every contended cycle, each requester that
    /// was not granted counts once.
    pub arbitration_losses: u64,
    /// Worst per-port backlog of frames waiting to start loading.
    pub queue_high_water: usize,
    /// Decode-busy cycles per core.
    pub per_core_busy_cycles: Vec<u64>,
    /// Frames dealt to each core.
    pub per_core_frames: Vec<usize>,
}

impl FabricStats {
    /// Fraction of the makespan the input bus was busy.
    pub fn bus_utilization(&self) -> f64 {
        if self.makespan_cycles == 0 {
            0.0
        } else {
            self.bus_busy_cycles as f64 / self.makespan_cycles as f64
        }
    }

    /// Aggregate information throughput of the batch in Mbit/s.
    pub fn aggregate_throughput_mbps(&self, clock_mhz: f64, info_bits_per_frame: usize) -> f64 {
        if self.makespan_cycles == 0 {
            0.0
        } else {
            (self.frames * info_bits_per_frame) as f64 / self.makespan_cycles as f64 * clock_mhz
        }
    }
}

/// Everything a batch decode produces: per-frame results, per-frame timing,
/// and fabric-level contention counters.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricOutput {
    /// Per-frame decode outputs, in submission order. Bit-identical to what
    /// a bare [`HardwareDecoder`] produces for each frame.
    pub outputs: Vec<HwDecodeOutput>,
    /// Per-frame fabric timing, in submission order.
    pub timings: Vec<FrameTiming>,
    /// Batch-level counters.
    pub stats: FabricStats,
}

/// What one port (core-side end of the interconnect) is doing.
#[derive(Debug)]
struct Port {
    /// Frames dealt to this core that have not started loading.
    queue: VecDeque<usize>,
    /// Frame currently streaming in over the bus (beats still to grant).
    loading: Option<(usize, usize)>,
    /// Fully-granted frames waiting in the input FIFO: `(frame, ready_at)`
    /// where `ready_at` is the first cycle the decode engine may start.
    ready: VecDeque<(usize, u64)>,
    /// Frame occupying the decode engine and its end cycle (exclusive).
    decoding: Option<(usize, u64)>,
    /// The port is busy until the previous frame's result has left over the
    /// return link.
    busy_until: u64,
}

impl Port {
    fn idle(&self) -> bool {
        self.queue.is_empty()
            && self.loading.is_none()
            && self.ready.is_empty()
            && self.decoding.is_none()
    }
}

/// The multi-core decoder fabric.
#[derive(Debug)]
pub struct DecoderFabric {
    config: FabricConfig,
    /// The core every frame decodes on; `config.cores` is the timing
    /// model's core count.
    core: HardwareDecoder,
}

impl DecoderFabric {
    /// Builds a fabric of identical cores for a code and check-phase
    /// schedule.
    ///
    /// # Panics
    ///
    /// Panics if `config.cores == 0` or if the schedule does not match the
    /// code's ROM.
    pub fn new(code: &DvbS2Code, schedule: CnSchedule, config: FabricConfig) -> Self {
        assert!(config.cores > 0, "a fabric needs at least one core");
        DecoderFabric { config, core: HardwareDecoder::new(code, schedule, config.core) }
    }

    /// Builds the fabric with the natural (unoptimized) schedule.
    pub fn with_natural_schedule(code: &DvbS2Code, config: FabricConfig) -> Self {
        let rom = ConnectivityRom::build(code.params(), code.table());
        Self::new(code, CnSchedule::natural(&rom), config)
    }

    /// The fabric configuration.
    pub fn config(&self) -> &FabricConfig {
        &self.config
    }

    /// Injects the same [`FaultScenario`] into every core (a uniform process
    /// defect). Per-frame results remain bit-identical to an equally-faulted
    /// single [`HardwareDecoder`], because fault commits key on logical
    /// coordinates, not fabric timing.
    ///
    /// # Panics
    ///
    /// Panics if the scenario addresses memory or units outside a core.
    pub fn set_scenario(&mut self, scenario: FaultScenario) {
        self.core.set_scenario(scenario);
    }

    /// Quantizes float channel LLRs with the cores' shared quantizer.
    pub fn quantize_channel(&self, llrs: &[f64]) -> Vec<i32> {
        self.core.quantize_channel(llrs)
    }

    /// Decodes a batch of float-LLR frames (quantizing each first).
    pub fn decode_batch(&mut self, frames: &[Vec<f64>]) -> FabricOutput {
        let quantized: Vec<Vec<i32>> = frames.iter().map(|f| self.quantize_channel(f)).collect();
        self.decode_quantized_batch(&quantized)
    }

    /// Decodes a batch of quantized frames, cycle-accurately.
    ///
    /// # Panics
    ///
    /// Panics if any frame's length differs from `N`.
    pub fn decode_quantized_batch(&mut self, frames: &[Vec<i32>]) -> FabricOutput {
        self.decode_inner(frames, None)
    }

    /// Decodes a batch and records each frame's per-iteration message digest
    /// in the [`HardwareDecoder::decode_quantized_traced`] format, for the
    /// oracle's bit-exactness contracts.
    ///
    /// # Panics
    ///
    /// Same as [`DecoderFabric::decode_quantized_batch`].
    pub fn decode_quantized_batch_traced(
        &mut self,
        frames: &[Vec<i32>],
        traces: &mut Vec<Vec<u64>>,
    ) -> FabricOutput {
        traces.clear();
        self.decode_inner(frames, Some(traces))
    }

    fn decode_inner(
        &mut self,
        frames: &[Vec<i32>],
        mut traces: Option<&mut Vec<Vec<u64>>>,
    ) -> FabricOutput {
        let mut outputs = Vec::with_capacity(frames.len());
        for channel in frames {
            let out = if let Some(ts) = traces.as_deref_mut() {
                let mut trace = Vec::new();
                let out = self.core.decode_quantized_traced(channel, &mut trace);
                ts.push(trace);
                out
            } else {
                self.core.decode_quantized(channel)
            };
            outputs.push(out);
        }
        let decode_cycles: Vec<usize> = outputs
            .iter()
            .map(|o| o.cycles.info_phase_cycles + o.cycles.check_phase_cycles)
            .collect();
        let (timings, stats) = self.simulate(&decode_cycles);
        FabricOutput { outputs, timings, stats }
    }

    /// The cycle loop: dealt queues, bus arbitration, delayed links, decode
    /// countdowns. Data has already been decoded — this models *when*.
    fn simulate(&self, decode_cycles: &[usize]) -> (Vec<FrameTiming>, FabricStats) {
        let p = self.config.cores;
        let link = self.config.link_latency as u64;
        let io_beats = self.io_beats();
        let frames = decode_cycles.len();

        let mut stats = FabricStats {
            cores: p,
            frames,
            per_core_busy_cycles: vec![0; p],
            per_core_frames: vec![0; p],
            ..FabricStats::default()
        };
        let mut timings: Vec<FrameTiming> = (0..frames)
            .map(|f| FrameTiming {
                frame: f,
                core: f % p,
                first_request: 0,
                first_grant: 0,
                io_beats,
                load_stall_cycles: 0,
                input_wait_cycles: 0,
                decode_start: 0,
                decode_cycles: decode_cycles[f],
                done_cycle: 0,
            })
            .collect();
        let mut ports: Vec<Port> = (0..p)
            .map(|_| Port {
                queue: VecDeque::new(),
                loading: None,
                ready: VecDeque::new(),
                decoding: None,
                busy_until: 0,
            })
            .collect();
        for f in 0..frames {
            ports[f % p].queue.push_back(f);
            stats.per_core_frames[f % p] += 1;
        }

        let mut rr = match self.config.arbitration {
            Arbitration::RoundRobin { start } => start % p,
            Arbitration::Fixed => 0,
        };
        let mut t: u64 = 0;
        while ports.iter().any(|port| !port.idle()) {
            // 1. Decode completions: the result leaves over the return link.
            for port in ports.iter_mut() {
                if let Some((f, end)) = port.decoding {
                    if end <= t {
                        let done = end + link;
                        timings[f].done_cycle = done;
                        port.busy_until = done;
                        port.decoding = None;
                    }
                }
            }
            // 2. Decode starts.
            for (c, port) in ports.iter_mut().enumerate() {
                if port.decoding.is_none() {
                    if let Some(&(f, ready_at)) = port.ready.front() {
                        if ready_at <= t {
                            port.ready.pop_front();
                            timings[f].input_wait_cycles = t - ready_at;
                            timings[f].decode_start = t;
                            port.decoding = Some((f, t + decode_cycles[f] as u64));
                            stats.per_core_busy_cycles[c] += decode_cycles[f] as u64;
                        }
                    }
                }
            }
            // 3. Load starts: a port picks up its next queued frame when the
            // whole port is idle through the previous frame's return (the
            // paper's core serializes I/O and decode, which is what Eq. 8
            // assumes).
            for port in ports.iter_mut() {
                let free = port.loading.is_none()
                    && port.ready.is_empty()
                    && port.decoding.is_none()
                    && port.busy_until <= t;
                if free {
                    if let Some(f) = port.queue.pop_front() {
                        port.loading = Some((f, io_beats));
                        timings[f].first_request = t;
                    }
                }
            }
            // 4. Bus arbitration: one grant per cycle among requesting ports.
            let requesters: Vec<usize> = (0..p).filter(|&c| ports[c].loading.is_some()).collect();
            if !requesters.is_empty() {
                let winner = match self.config.arbitration {
                    Arbitration::Fixed => requesters[0],
                    Arbitration::RoundRobin { .. } => (0..p)
                        .map(|o| (rr + o) % p)
                        .find(|c| requesters.contains(c))
                        .expect("some port requests"),
                };
                if matches!(self.config.arbitration, Arbitration::RoundRobin { .. }) {
                    rr = (winner + 1) % p;
                }
                stats.bus_busy_cycles += 1;
                stats.arbitration_losses += requesters.len() as u64 - 1;
                for &c in &requesters {
                    if c != winner {
                        let (f, _) = ports[c].loading.expect("requester is loading");
                        timings[f].load_stall_cycles += 1;
                        stats.stall_cycles += 1;
                    }
                }
                let port = &mut ports[winner];
                let (f, beats_left) = port.loading.expect("winner is loading");
                if beats_left == io_beats {
                    timings[f].first_grant = t;
                }
                if beats_left == 1 {
                    // Last beat: the frame is fully at the core once the
                    // link delivers it; decoding may start the cycle after.
                    port.ready.push_back((f, t + link + 1));
                    port.loading = None;
                } else {
                    port.loading = Some((f, beats_left - 1));
                }
            }
            stats.queue_high_water = stats
                .queue_high_water
                .max(ports.iter().map(|port| port.queue.len()).max().unwrap_or(0));
            t += 1;
        }

        for tm in &timings {
            stats.makespan_cycles = stats.makespan_cycles.max(tm.done_cycle);
            debug_assert_eq!(
                tm.span_cycles(),
                tm.io_beats as u64
                    + tm.load_stall_cycles
                    + tm.input_wait_cycles
                    + tm.decode_cycles as u64
                    + 2 * link,
                "frame {} span does not decompose",
                tm.frame
            );
        }
        (timings, stats)
    }

    /// Bus beats needed to load one frame, `ceil(N / P_IO)`.
    pub fn io_beats(&self) -> usize {
        self.core.params().n.div_ceil(self.config.core.p_io)
    }

    /// Sum of the spans a P=1 zero-link fabric would take — the serial
    /// baseline the measured makespan is compared against.
    pub fn serial_cycles(outputs: &[HwDecodeOutput]) -> u64 {
        outputs.iter().map(|o| o.cycles.total_cycles as u64).sum()
    }

    /// The per-frame cycle breakdown a bare core would report, for
    /// cross-checking a fabric frame against [`CycleBreakdown`]: the fabric
    /// span of an uncontended `P = 1, link = 0` frame equals
    /// `breakdown.total_cycles`.
    pub fn breakdown(output: &HwDecodeOutput) -> &CycleBreakdown {
        &output.cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::CoreConfig;
    use crate::fault::RamFault;
    use dvbs2_decoder::test_support::noisy_llrs;
    use dvbs2_ldpc::{CodeRate, FrameSize};

    fn short_code() -> DvbS2Code {
        DvbS2Code::new(CodeRate::R1_2, FrameSize::Short).unwrap()
    }

    fn batch(code: &DvbS2Code, count: usize, ebn0: f64, seed: u64) -> Vec<Vec<f64>> {
        (0..count).map(|i| noisy_llrs(code, ebn0, seed + i as u64).1).collect()
    }

    #[test]
    fn single_core_fabric_is_cycle_identical_to_the_bare_core() {
        let code = short_code();
        let config = CoreConfig { max_iterations: 4, ..CoreConfig::default() };
        let mut hw = HardwareDecoder::with_natural_schedule(&code, config);
        let mut fabric = DecoderFabric::with_natural_schedule(&code, FabricConfig::single(config));
        let frames = batch(&code, 3, 2.2, 900);
        let out = fabric.decode_batch(&frames);
        let mut serial = 0u64;
        for (i, llrs) in frames.iter().enumerate() {
            let single = hw.decode(llrs);
            assert_eq!(out.outputs[i], single, "frame {i} diverged");
            assert_eq!(
                out.timings[i].span_cycles(),
                single.cycles.total_cycles as u64,
                "frame {i} span != core cycles"
            );
            assert_eq!(out.timings[i].first_request, serial, "frame {i} start");
            serial += single.cycles.total_cycles as u64;
        }
        assert_eq!(out.stats.makespan_cycles, serial);
        assert_eq!(out.stats.stall_cycles, 0);
        assert_eq!(out.stats.arbitration_losses, 0);
    }

    #[test]
    fn results_are_invariant_in_cores_and_arbitration() {
        let code = short_code();
        let core = CoreConfig { max_iterations: 3, ..CoreConfig::default() };
        let frames = batch(&code, 5, 2.0, 4100);
        let reference = DecoderFabric::with_natural_schedule(&code, FabricConfig::single(core))
            .decode_batch(&frames)
            .outputs;
        for cores in [2, 3, 4] {
            for arbitration in [
                Arbitration::RoundRobin { start: 0 },
                Arbitration::RoundRobin { start: cores - 1 },
                Arbitration::Fixed,
            ] {
                let cfg = FabricConfig { cores, core, link_latency: 2, arbitration };
                let out = DecoderFabric::with_natural_schedule(&code, cfg).decode_batch(&frames);
                assert_eq!(out.outputs, reference, "P={cores} {arbitration:?} changed frames");
            }
        }
    }

    #[test]
    fn contention_is_counted_and_spans_decompose() {
        let code = short_code();
        // One iteration keeps decode short relative to I/O, forcing the
        // shared bus to saturate: with P=4 ports fighting for one grant per
        // cycle, stalls are guaranteed.
        let core = CoreConfig { max_iterations: 1, ..CoreConfig::default() };
        let cfg = FabricConfig { cores: 4, core, link_latency: 3, ..FabricConfig::default() };
        let frames = batch(&code, 8, 2.0, 7700);
        let out = DecoderFabric::with_natural_schedule(&code, cfg).decode_batch(&frames);
        assert!(out.stats.stall_cycles > 0, "io-bound fabric must stall");
        assert!(out.stats.arbitration_losses > 0);
        assert_eq!(out.stats.bus_busy_cycles, (out.timings.len() * out.timings[0].io_beats) as u64);
        for tm in &out.timings {
            assert_eq!(
                tm.span_cycles(),
                tm.io_beats as u64
                    + tm.load_stall_cycles
                    + tm.input_wait_cycles
                    + tm.decode_cycles as u64
                    + 2 * cfg.link_latency as u64
            );
        }
        // More cores can only help (or tie): the serial baseline bounds the
        // makespan from above, the bus from below.
        let serial = DecoderFabric::serial_cycles(&out.outputs)
            + out.timings.len() as u64 * 2 * cfg.link_latency as u64;
        assert!(out.stats.makespan_cycles <= serial);
        assert!(out.stats.makespan_cycles >= out.stats.bus_busy_cycles);
        assert!(out.stats.bus_utilization() > 0.5, "io-bound run should keep the bus hot");
    }

    #[test]
    fn faulted_fabric_matches_faulted_cores() {
        let code = short_code();
        let core = CoreConfig { max_iterations: 3, ..CoreConfig::default() };
        let mut hw = HardwareDecoder::with_natural_schedule(&code, core);
        let fault = RamFault::StuckWord { word: 3, value: 31 };
        hw.set_scenario(FaultScenario::single(fault));
        let mut fabric = DecoderFabric::with_natural_schedule(
            &code,
            FabricConfig { cores: 2, core, ..FabricConfig::default() },
        );
        fabric.set_scenario(FaultScenario::single(fault));
        let frames = batch(&code, 4, 2.4, 31);
        let out = fabric.decode_batch(&frames);
        for (i, llrs) in frames.iter().enumerate() {
            assert_eq!(out.outputs[i], hw.decode(llrs), "faulted frame {i} diverged");
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let code = short_code();
        let mut fabric = DecoderFabric::with_natural_schedule(&code, FabricConfig::default());
        let out = fabric.decode_quantized_batch(&[]);
        assert!(out.outputs.is_empty());
        assert_eq!(out.stats.makespan_cycles, 0);
        assert_eq!(out.stats.bus_utilization(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_is_rejected() {
        let code = short_code();
        let cfg = FabricConfig { cores: 0, ..FabricConfig::default() };
        let _ = DecoderFabric::with_natural_schedule(&code, cfg);
    }
}
