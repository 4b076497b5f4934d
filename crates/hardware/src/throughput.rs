//! The analytic throughput model — Eq. 7/8 of the paper.
//!
//! ```text
//! T = I / ( C/P_IO + It · 2 · (E_IN/P + T_latency) ) · f_clk        (Eq. 8)
//! ```
//!
//! with `I = K` information bits, `C = N` channel values read at `P_IO = 10`
//! per cycle, `It = 30` iterations, `P = 360` functional units, and
//! `T_latency` the pipeline/drain overhead per half-iteration. The
//! `throughput_eq8` bench tabulates this against the cycle counts measured
//! by [`crate::HardwareDecoder`] and the paper's 255 Mbit/s requirement.

use crate::core::CycleBreakdown;
use crate::tech::Technology;
use dvbs2_ldpc::{CodeParams, PARALLELISM};

/// Parameters of the Eq. 8 throughput computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputModel {
    /// Clock frequency in MHz (paper: 270 MHz worst case).
    pub clock_mhz: f64,
    /// Decoder iterations (paper: 30).
    pub iterations: usize,
    /// Parallel functional units (360).
    pub p: usize,
    /// Channel values accepted per I/O cycle (10).
    pub p_io: usize,
    /// Per-half-iteration latency `T_latency` in cycles (functional-unit
    /// pipeline depth plus the write-back drain).
    pub latency: usize,
}

impl ThroughputModel {
    /// The paper's operating point on a given technology.
    pub fn paper(tech: &Technology) -> Self {
        ThroughputModel {
            clock_mhz: tech.max_clock_mhz,
            iterations: 30,
            p: PARALLELISM,
            p_io: 10,
            latency: 10,
        }
    }

    /// Decoding cycles for one frame (the denominator of Eq. 8 without the
    /// clock).
    pub fn cycles(&self, params: &CodeParams) -> usize {
        let half_iteration = params.e_in() / self.p + self.latency;
        params.n.div_ceil(self.p_io) + self.iterations * 2 * half_iteration
    }

    /// Information throughput in Mbit/s (Eq. 8).
    ///
    /// ```
    /// use dvbs2_hardware::{ThroughputModel, ST_0_13_UM};
    /// use dvbs2_ldpc::{CodeParams, CodeRate, FrameSize};
    /// # fn main() -> Result<(), dvbs2_ldpc::CodeError> {
    /// let params = CodeParams::new(CodeRate::R1_2, FrameSize::Normal)?;
    /// let model = ThroughputModel::paper(&ST_0_13_UM);
    /// let t = model.throughput_mbps(&params);
    /// assert!(t > 250.0, "paper claims 255 Mbit/s at R = 1/2: {t}");
    /// # Ok(())
    /// # }
    /// ```
    pub fn throughput_mbps(&self, params: &CodeParams) -> f64 {
        params.k as f64 / self.cycles(params) as f64 * self.clock_mhz
    }

    /// Cycles per frame when frame I/O fully overlaps decoding (a
    /// double-buffered channel RAM loads frame `n+1` while frame `n`
    /// decodes — the paper's Eq. 8 serializes the I/O term instead).
    pub fn cycles_overlapped(&self, params: &CodeParams) -> usize {
        let decode = self.iterations * 2 * (params.e_in() / self.p + self.latency);
        decode.max(params.n.div_ceil(self.p_io))
    }

    /// Information throughput with overlapped I/O in Mbit/s.
    pub fn throughput_overlapped_mbps(&self, params: &CodeParams) -> f64 {
        params.k as f64 / self.cycles_overlapped(params) as f64 * self.clock_mhz
    }

    /// Cycles per frame at a *measured* mean iteration count (early
    /// termination): the decoder spends `avg_iterations` on average, so
    /// sustained throughput rises accordingly.
    pub fn cycles_at_iterations(&self, params: &CodeParams, avg_iterations: f64) -> f64 {
        params.n.div_ceil(self.p_io) as f64
            + avg_iterations * 2.0 * (params.e_in() / self.p + self.latency) as f64
    }

    /// Frame decode time in microseconds.
    pub fn frame_time_us(&self, params: &CodeParams) -> f64 {
        self.cycles(params) as f64 / self.clock_mhz
    }

    /// Inverts Eq. 8: the largest iteration cap (within `1..=
    /// self.iterations`) whose modeled throughput still reaches
    /// `target_mbps`, or `None` when even a single iteration cannot.
    ///
    /// This is the paper's Table 3 trade-off run backwards — given a demanded
    /// service rate, how many iterations can the decoder afford? — and is
    /// what the streaming pipeline's admission control uses to shed load by
    /// lowering the cap before it would have to drop frames. Throughput is
    /// monotonically decreasing in the iteration count, so the answer is the
    /// first cap that fits, scanning downward from the configured maximum.
    pub fn iterations_for_throughput(
        &self,
        params: &CodeParams,
        target_mbps: f64,
    ) -> Option<usize> {
        (1..=self.iterations).rev().find(|&it| {
            ThroughputModel { iterations: it, ..*self }.throughput_mbps(params) >= target_mbps
        })
    }
}

/// Eq. 8 extended to the P-core [`crate::DecoderFabric`].
///
/// The fabric serializes frame I/O on one shared bus (`P_IO` values per
/// granted cycle) while P cores decode in parallel, so the amortized cost of
/// a frame in the synchronized steady state is
///
/// ```text
/// C_frame = C/P_IO + ( It · 2 · (E_IN/P + T_latency) + 2·T_link ) / P_cores
///           + T_arb                                           (extended Eq. 8)
/// ```
///
/// — the I/O term no longer amortizes (every frame crosses the one bus), the
/// decode term divides across cores, each frame pays the link twice (channel
/// values in, result out), and `T_arb` absorbs fitted arbitration residue.
/// `k · f_clk / (C/P_IO)` is therefore a hard I/O ceiling: past the core
/// count where decode hides behind the bus, only a wider front end helps.
///
/// The flat `T_latency` of Eq. 8 is an approximation of the measured
/// pipeline/drain overhead; [`FabricModel::calibrated`] replaces it with the
/// per-iteration cycle count measured by the cycle-accurate core, after
/// which the model must agree with [`crate::DecoderFabric`] *exactly* (the
/// `throughput_eq8` bench and the fabric tests pin zero error).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricModel {
    /// The single-core Eq. 8 operating point.
    pub core: ThroughputModel,
    /// Decoder cores behind the shared front end.
    pub cores: usize,
    /// One-way link latency between the front end and a core, in cycles.
    pub link_latency: usize,
    /// Measured decode cycles per iteration (info + check phases including
    /// drains), from [`crate::CycleBreakdown`]. `None` falls back to the
    /// paper's flat `2 · (E_IN/P + T_latency)` term.
    pub iteration_cycles: Option<usize>,
    /// Fitted per-frame arbitration overhead in cycles.
    pub arbitration_overhead: f64,
}

impl FabricModel {
    /// The paper's operating point scaled to `cores`, with the default
    /// fabric link of 2 cycles.
    pub fn paper(tech: &Technology, cores: usize) -> Self {
        FabricModel {
            core: ThroughputModel::paper(tech),
            cores,
            link_latency: 2,
            iteration_cycles: None,
            arbitration_overhead: 0.0,
        }
    }

    /// The degenerate single-core, zero-link fabric — must reproduce the
    /// plain Eq. 8 cycle count.
    pub fn single(tech: &Technology) -> Self {
        FabricModel { cores: 1, link_latency: 0, ..FabricModel::paper(tech, 1) }
    }

    /// Replaces the flat `T_latency` term with the decode cycles per
    /// iteration measured by the cycle-accurate core.
    ///
    /// # Panics
    ///
    /// Panics if the breakdown's decode cycles are not an exact multiple of
    /// its iteration count — the core's phases are data-independent, so
    /// every iteration costs the same and an indivisible total means the
    /// breakdown does not belong to a fixed-iteration decode.
    pub fn calibrated(mut self, measured: &CycleBreakdown) -> Self {
        let decode = measured.info_phase_cycles + measured.check_phase_cycles;
        assert!(measured.iterations > 0, "calibration needs at least one iteration");
        assert_eq!(
            decode % measured.iterations,
            0,
            "decode cycles must divide evenly across iterations"
        );
        self.iteration_cycles = Some(decode / measured.iterations);
        self
    }

    /// The same model with a different front-end width.
    pub fn with_p_io(mut self, p_io: usize) -> Self {
        self.core.p_io = p_io;
        self
    }

    /// The same model with a different iteration cap.
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.core.iterations = iterations;
        self
    }

    /// The same model with a different core count.
    pub fn with_cores(mut self, cores: usize) -> Self {
        self.cores = cores;
        self
    }

    /// Bus cycles to load one frame.
    pub fn io_cycles(&self, params: &CodeParams) -> usize {
        params.n.div_ceil(self.core.p_io)
    }

    /// Decode cycles for one frame (no I/O, no links).
    pub fn decode_cycles(&self, params: &CodeParams) -> usize {
        match self.iteration_cycles {
            Some(c) => self.core.iterations * c,
            None => self.core.iterations * 2 * (params.e_in() / self.core.p + self.core.latency),
        }
    }

    /// Uncontended fabric cycles for one frame: load + decode + the link
    /// crossed twice. With `cores = 1, link = 0` (see [`FabricModel::single`])
    /// and a calibrated iteration cost this equals the cycle-accurate core's
    /// measured [`crate::CycleBreakdown::total_cycles`] exactly.
    pub fn frame_cycles(&self, params: &CodeParams) -> usize {
        self.io_cycles(params) + self.decode_cycles(params) + 2 * self.link_latency
    }

    /// Amortized steady-state cycles per frame of the extended Eq. 8.
    pub fn steady_cycles_per_frame(&self, params: &CodeParams) -> f64 {
        let decode = (self.decode_cycles(params) + 2 * self.link_latency) as f64;
        self.io_cycles(params) as f64 + decode / self.cores as f64 + self.arbitration_overhead
    }

    /// Aggregate information throughput of the fabric in Mbit/s.
    pub fn aggregate_mbps(&self, params: &CodeParams) -> f64 {
        params.k as f64 / self.steady_cycles_per_frame(params) * self.core.clock_mhz
    }

    /// The front-end I/O ceiling in Mbit/s: no core count can push the
    /// fabric past `k · f_clk / (C/P_IO)`.
    pub fn io_ceiling_mbps(&self, params: &CodeParams) -> f64 {
        params.k as f64 / self.io_cycles(params) as f64 * self.core.clock_mhz
    }

    /// Predicted makespan of a batch: waves of `min(P, F)` synchronized
    /// loads followed by parallel decodes, bounded below by the bus
    /// serializing every frame's I/O.
    pub fn makespan_cycles(&self, params: &CodeParams, frames: usize) -> f64 {
        if frames == 0 {
            return 0.0;
        }
        let io = self.io_cycles(params) as f64;
        let decode = (self.decode_cycles(params) + 2 * self.link_latency) as f64;
        let waves = frames.div_ceil(self.cores) as f64;
        let wave_len = self.cores.min(frames) as f64 * io + decode + self.arbitration_overhead;
        (waves * wave_len).max(frames as f64 * io + decode)
    }

    /// Inverts the extended Eq. 8: the smallest core count whose aggregate
    /// throughput reaches `target_mbps`, or `None` when the target sits
    /// above the I/O ceiling (no P suffices — the front end must widen).
    pub fn cores_for_throughput(&self, params: &CodeParams, target_mbps: f64) -> Option<usize> {
        if target_mbps <= 0.0 {
            return Some(1);
        }
        let target_cycles = params.k as f64 / target_mbps * self.core.clock_mhz;
        let slack = target_cycles - self.io_cycles(params) as f64 - self.arbitration_overhead;
        if slack <= 0.0 {
            return None;
        }
        let decode = (self.decode_cycles(params) + 2 * self.link_latency) as f64;
        Some(((decode / slack).ceil() as usize).max(1))
    }

    /// The smallest front-end width `P_IO` whose I/O ceiling reaches
    /// `target_mbps`, or `None` for a non-positive target. At exactly this
    /// width the required core count diverges, so callers size the front end
    /// for `target / headroom` with `headroom < 1`.
    pub fn p_io_for_throughput(&self, params: &CodeParams, target_mbps: f64) -> Option<usize> {
        if target_mbps <= 0.0 {
            return None;
        }
        let budget = (params.k as f64 * self.core.clock_mhz / target_mbps).floor();
        if budget < 1.0 {
            return None;
        }
        Some(params.n.div_ceil(budget as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tech::ST_0_13_UM;
    use dvbs2_ldpc::{CodeRate, FrameSize};

    fn model() -> ThroughputModel {
        ThroughputModel::paper(&ST_0_13_UM)
    }

    fn params(rate: CodeRate) -> CodeParams {
        CodeParams::new(rate, FrameSize::Normal).unwrap()
    }

    #[test]
    fn r12_reaches_the_paper_requirement() {
        // The 255 Mbit/s base-station requirement at R = 1/2, 30 iterations.
        let t = model().throughput_mbps(&params(CodeRate::R1_2));
        assert!((253.0..262.0).contains(&t), "throughput {t}");
    }

    #[test]
    fn high_rates_exceed_low_rates() {
        let lo = model().throughput_mbps(&params(CodeRate::R1_4));
        let hi = model().throughput_mbps(&params(CodeRate::R9_10));
        assert!(hi > lo);
        assert!(hi > 400.0, "R 9/10 should exceed 400 Mbit/s: {hi}");
    }

    #[test]
    fn cycles_are_dominated_by_iterations() {
        let p = params(CodeRate::R1_2);
        let m = model();
        let io = p.n.div_ceil(m.p_io);
        assert!(m.cycles(&p) > 4 * io);
    }

    #[test]
    fn fewer_iterations_mean_proportionally_more_throughput() {
        let p = params(CodeRate::R1_2);
        let base = model();
        let fast = ThroughputModel { iterations: 15, ..base };
        // Sub-linear: the I/O cycles do not shrink with iterations.
        let ratio = fast.throughput_mbps(&p) / base.throughput_mbps(&p);
        assert!(ratio > 1.6 && ratio < 2.0, "ratio {ratio}");
    }

    #[test]
    fn overlapped_io_raises_throughput() {
        let p = params(CodeRate::R1_2);
        let m = model();
        assert!(m.cycles_overlapped(&p) < m.cycles(&p));
        assert!(m.throughput_overlapped_mbps(&p) > m.throughput_mbps(&p));
        // Decode dominates at 30 iterations, so the gain is the I/O term.
        assert_eq!(m.cycles_overlapped(&p), m.cycles(&p) - p.n.div_ceil(m.p_io));
    }

    #[test]
    fn early_termination_scales_cycles() {
        let p = params(CodeRate::R1_2);
        let m = model();
        let full = m.cycles_at_iterations(&p, 30.0);
        let half = m.cycles_at_iterations(&p, 15.0);
        assert!((full - m.cycles(&p) as f64).abs() < 1e-9);
        assert!(half < full);
    }

    #[test]
    fn iteration_budget_inverts_the_throughput_curve() {
        let p = params(CodeRate::R1_2);
        let m = model();
        // At the paper's own operating point the full 30 iterations fit.
        let t30 = m.throughput_mbps(&p);
        assert_eq!(m.iterations_for_throughput(&p, t30), Some(30));
        // Demanding more forces a lower cap, and the returned cap is the
        // *largest* one that meets the target.
        let cap = m.iterations_for_throughput(&p, 1.5 * t30).expect("reachable");
        assert!(cap < 30, "cap {cap}");
        assert!(ThroughputModel { iterations: cap, ..m }.throughput_mbps(&p) >= 1.5 * t30);
        assert!(ThroughputModel { iterations: cap + 1, ..m }.throughput_mbps(&p) < 1.5 * t30);
        // An impossible demand is reported, not silently clamped.
        let ceiling = ThroughputModel { iterations: 1, ..m }.throughput_mbps(&p);
        assert_eq!(m.iterations_for_throughput(&p, ceiling * 1.01), None);
        // A trivial demand keeps the full budget.
        assert_eq!(m.iterations_for_throughput(&p, 1.0), Some(30));
    }

    #[test]
    fn frame_time_is_microseconds_scale() {
        // ~34000 cycles at 270 MHz is ~126 us.
        let t = model().frame_time_us(&params(CodeRate::R1_2));
        assert!((100.0..200.0).contains(&t), "{t}");
    }

    #[test]
    fn single_core_fabric_model_reproduces_eq8() {
        let p = params(CodeRate::R1_2);
        let fabric = FabricModel::single(&ST_0_13_UM);
        assert_eq!(fabric.frame_cycles(&p), model().cycles(&p));
        let agg = fabric.aggregate_mbps(&p);
        let single = model().throughput_mbps(&p);
        assert!((agg - single).abs() / single < 1e-9, "{agg} vs {single}");
    }

    #[test]
    fn fabric_throughput_is_monotone_in_cores_and_capped_by_io() {
        let p = params(CodeRate::R1_2);
        let mut last = 0.0;
        for cores in [1, 2, 4, 8, 16, 64, 1024] {
            let m = FabricModel::paper(&ST_0_13_UM, cores);
            let t = m.aggregate_mbps(&p);
            assert!(t > last, "throughput must grow with cores: {t} after {last}");
            assert!(t < m.io_ceiling_mbps(&p), "ceiling violated at P={cores}");
            last = t;
        }
        // The ceiling itself: R 1/2 Normal at P_IO = 10 is ~1.35 Gbit/s.
        let ceiling = FabricModel::paper(&ST_0_13_UM, 1).io_ceiling_mbps(&p);
        assert!((1300.0..1400.0).contains(&ceiling), "{ceiling}");
    }

    #[test]
    fn ten_gbps_needs_a_wider_front_end() {
        // The ROADMAP question: no core count reaches 10 Gbit/s at the
        // paper's P_IO = 10 — the model must say so rather than extrapolate.
        let p = params(CodeRate::R1_2);
        let m = FabricModel::paper(&ST_0_13_UM, 16);
        assert_eq!(m.cores_for_throughput(&p, 10_000.0), None);
        // Widening the front end makes it reachable, and the returned core
        // count is minimal.
        let p_io = m.p_io_for_throughput(&p, 10_000.0 / 0.8).expect("positive target");
        let wide = m.with_p_io(p_io);
        assert!(wide.io_ceiling_mbps(&p) >= 10_000.0);
        let cores = wide.cores_for_throughput(&p, 10_000.0).expect("above the ceiling now");
        assert!(wide.with_cores(cores).aggregate_mbps(&p) >= 10_000.0);
        assert!(
            cores == 1 || wide.with_cores(cores - 1).aggregate_mbps(&p) < 10_000.0,
            "core count {cores} is not minimal"
        );
    }

    #[test]
    fn calibrated_model_matches_the_measured_core_exactly() {
        use crate::core::{CoreConfig, HardwareDecoder};
        use dvbs2_decoder::test_support::noisy_llrs;
        let code = dvbs2_ldpc::DvbS2Code::new(CodeRate::R1_2, FrameSize::Short).unwrap();
        let config = CoreConfig { max_iterations: 5, ..CoreConfig::default() };
        let mut hw = HardwareDecoder::with_natural_schedule(&code, config);
        let (_, llrs) = noisy_llrs(&code, 2.2, 404);
        let out = hw.decode(&llrs);
        let m = FabricModel::single(&ST_0_13_UM)
            .with_iterations(config.max_iterations)
            .calibrated(&out.cycles);
        // Zero-error round trip: the calibrated extended Eq. 8 reproduces
        // the cycle-accurate total, not merely approximates it.
        assert_eq!(m.frame_cycles(code.params()), out.cycles.total_cycles);
        // The flat-latency Eq. 8 does not (that gap is the documented
        // T_latency approximation, quantified by `throughput_eq8`).
        let flat =
            ThroughputModel { iterations: config.max_iterations, ..model() }.cycles(code.params());
        assert_ne!(flat, out.cycles.total_cycles);
    }
}
