//! The case runner: one case's evidence, built once, and the contract
//! classes evaluated over it. Which contracts run on which case is the
//! [`CLASSES`] table, not control flow.

use super::context::{CaseContext, ContextCache};
use super::spec::{ArithmeticKind, CaseSpec};
use dvbs2_decoder::{
    syndrome_ok, syndrome_weight, BitFlippingDecoder, CheckRule, DecodeResult, Decoder,
    DecoderConfig, FloodingDecoder, Precision, QuantizedZigzagDecoder, SimdTier, ZigzagDecoder,
};
use dvbs2_hardware::{
    Arbitration, CoreConfig, DecoderFabric, FabricConfig, FaultScenario, FuFault, GoldenModel,
    HardwareDecoder, HwDecodeOutput, RamFault, TimedRamFault,
};
use dvbs2_ldpc::{BitVec, PARALLELISM};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// One violated contract, with enough context to reproduce it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Index of the case in its run (0-based).
    pub case_index: u64,
    /// The generating case (its `Display` form is the repro string).
    pub case: CaseSpec,
    /// Short identifier of the violated contract.
    pub contract: &'static str,
    /// Human-readable mismatch description.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "case {} [{}] {}: {}", self.case_index, self.contract, self.case, self.detail)
    }
}

/// What one case established: every contract that was evaluated on it, and
/// those that failed.
pub(super) struct Verdicts {
    index: u64,
    case: CaseSpec,
    pub(super) evaluated: Vec<&'static str>,
    pub(super) violations: Vec<Violation>,
}

impl Verdicts {
    pub(super) fn new(index: u64, case: CaseSpec) -> Self {
        Verdicts { index, case, evaluated: Vec::new(), violations: Vec::new() }
    }

    /// Evaluates one contract: records that it ran and, when `ok` is false,
    /// a violation (`detail` is built only then).
    pub(super) fn check(
        &mut self,
        contract: &'static str,
        ok: bool,
        detail: impl FnOnce() -> String,
    ) {
        self.check_at(self.case.simd, contract, ok, detail);
    }

    /// [`check`](Self::check) for a contract evaluated at one SIMD tier: a
    /// violation records the tier, so its repro string replays the exact
    /// kernel that diverged.
    fn check_at(
        &mut self,
        simd: Option<SimdTier>,
        contract: &'static str,
        ok: bool,
        detail: impl FnOnce() -> String,
    ) {
        if !self.evaluated.contains(&contract) {
            self.evaluated.push(contract);
        }
        if !ok {
            self.violations.push(Violation {
                case_index: self.index,
                case: CaseSpec { simd, ..self.case },
                contract,
                detail: detail(),
            });
        }
    }
}

/// A contract class: contracts that share the evidence they read and the
/// cases they apply to. A sweep is a case source plus a set of these; the
/// module root's table says what each one pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Class {
    TimedUntimed,
    Partitioned,
    Lanes,
    Matrix,
    Timing,
    Fabric,
    Degradation,
}

/// One row of the class table: which of the two timed decodes the class
/// reads (a model no requested class reads is not decoded: the partition
/// sweep never runs the cycle-accurate core, the fault suite never the
/// golden model), the cases it applies to, and the check that evaluates its
/// contracts.
struct ClassRow {
    class: Class,
    core: bool,
    golden: bool,
    applies: fn(&Evidence) -> bool,
    check: fn(&mut Evidence, &mut Verdicts),
}

/// The class table, in evaluation order (the partitioned class hands its
/// decode to the matrix class's word pool, so it runs first). A new
/// contract is a `check` call inside its class's function; a new class is a
/// row here.
#[rustfmt::skip]
const CLASSES: [ClassRow; 7] = [
    ClassRow { class: Class::TimedUntimed, core: true, golden: true, applies: |_| true, check: timed_untimed },
    // The partitioned software decoder has no RAM to corrupt, so the
    // bit-exact comparison only holds against a healthy golden model.
    ClassRow { class: Class::Partitioned, core: false, golden: true, applies: |ev| ev.fault.is_empty(), check: partitioned },
    ClassRow { class: Class::Lanes, core: false, golden: true, applies: |_| true, check: lanes },
    ClassRow { class: Class::Matrix, core: true, golden: false, applies: |_| true, check: matrix },
    ClassRow { class: Class::Timing, core: true, golden: false, applies: |_| true, check: timing },
    ClassRow { class: Class::Fabric, core: true, golden: true, applies: |ev| ev.case.fabric > 1, check: fabric },
    ClassRow { class: Class::Degradation, core: true, golden: false, applies: |_| true, check: degradation },
];

impl Class {
    /// Every class: what `run_case`, the `--repro` path, runs — a superset
    /// of every sweep.
    pub(super) fn all() -> Vec<Class> {
        CLASSES.iter().map(|row| row.class).collect()
    }
}

/// Everything a case's contracts read, built once per case: the frame, and
/// the equally-faulted timed core and golden model with their traced
/// decodes (output, per-iteration digests). Software decoders are built by
/// the classes that need them.
struct Evidence {
    index: u64,
    case: CaseSpec,
    ctx: Arc<CaseContext>,
    /// Continues the case's RNG stream past the case frame (the fabric
    /// class draws its extra frames from it).
    rng: SmallRng,
    llrs: Vec<f64>,
    /// Iteration cap and early stop of the case, sum-product f64 at
    /// `case.simd`; the software decoders derive their variants from it.
    sw_config: DecoderConfig,
    core_config: CoreConfig,
    /// The case's fault scenario, reduced into this code's RAM.
    fault: FaultScenario,
    channel: Vec<i32>,
    hw: HardwareDecoder,
    core: Option<(HwDecodeOutput, Vec<u64>)>,
    golden: Option<(DecodeResult, Vec<u64>)>,
    /// The partitioned class's decode, for the matrix class's word pool.
    partitioned: Option<DecodeResult>,
}

impl Evidence {
    /// `None` when a timed decode panicked (the `fault-panic` contract).
    fn build(
        index: u64,
        case: &CaseSpec,
        cache: &ContextCache,
        (decode_core, decode_golden): (bool, bool),
    ) -> Option<Self> {
        let ctx = cache.context_for(case);
        let mut rng = SmallRng::seed_from_u64(case.seed);
        let frame = ctx.code.system.transmit_frame_with(&mut rng, case.ebn0_db, case.modulation);
        let quantizer = case.quantizer();
        let core_config = CoreConfig {
            quantizer,
            max_iterations: case.max_iterations,
            early_stop: case.early_stop,
            memory: case.memory,
            p_io: case.p_io,
        };
        let fault = clamp_fault(case.fault, ctx.code.rom.words());
        let mut hw =
            HardwareDecoder::new(ctx.code.system.code(), ctx.schedule.clone(), core_config);
        let mut golden = GoldenModel::new(
            ctx.code.system.code(),
            ctx.schedule.clone(),
            quantizer,
            case.max_iterations,
            case.early_stop,
        );
        hw.set_scenario(fault);
        golden.set_scenario(fault);
        let channel = hw.quantize_channel(&frame.llrs);
        let (mut core_trace, mut golden_trace) = (Vec::new(), Vec::new());
        let (core, golden) = catch_unwind(AssertUnwindSafe(|| {
            (
                decode_core.then(|| hw.decode_quantized_traced(&channel, &mut core_trace)),
                decode_golden.then(|| golden.decode_quantized_traced(&channel, &mut golden_trace)),
            )
        }))
        .ok()?;
        Some(Evidence {
            index,
            case: *case,
            ctx,
            rng,
            llrs: frame.llrs,
            sw_config: DecoderConfig {
                max_iterations: case.max_iterations,
                early_stop: case.early_stop,
                rule: CheckRule::SumProduct,
                precision: Precision::F64,
                simd: case.simd,
            },
            core_config,
            fault,
            channel,
            hw,
            core: core.map(|out| (out, core_trace)),
            golden: golden.map(|out| (out, golden_trace)),
            partitioned: None,
        })
    }

    fn core(&self) -> (&HwDecodeOutput, &[u64]) {
        let (out, trace) = self.core.as_ref().expect("the class's table row reads the core");
        (out, trace)
    }

    fn golden(&self) -> (&DecodeResult, &[u64]) {
        let (out, trace) =
            self.golden.as_ref().expect("the class's table row reads the golden model");
        (out, trace)
    }

    /// The software decoder in hardware-partitioned mode under `arithmetic`:
    /// the scalar fused sweep, or the SIMD lane path at `simd` (`None` =
    /// auto-detect).
    fn partitioned(
        &self,
        arithmetic: ArithmeticKind,
        fused: bool,
        simd: Option<SimdTier>,
    ) -> QuantizedZigzagDecoder {
        let build = if fused {
            QuantizedZigzagDecoder::with_partition_fused
        } else {
            QuantizedZigzagDecoder::with_partition
        };
        build(
            Arc::clone(&self.ctx.code.graph),
            arithmetic.build(self.core_config.quantizer),
            self.sw_config.with_simd_tier(simd),
            self.ctx.partition.clone(),
        )
    }
}

/// Runs one case: builds its evidence once, then evaluates every class of
/// `classes` that applies to it.
pub(super) fn run_case_with(
    index: u64,
    case: &CaseSpec,
    cache: &ContextCache,
    classes: &[Class],
) -> Verdicts {
    let mut verdicts = Verdicts::new(index, *case);
    let rows = || CLASSES.iter().filter(|row| classes.contains(&row.class));
    let reads = (rows().any(|row| row.core), rows().any(|row| row.golden));
    // The timed decodes are evidence for every class, so a panic in them
    // is caught and reported whatever the class set.
    let evidence = Evidence::build(index, case, cache, reads);
    verdicts.check("fault-panic", evidence.is_some(), || "a timed decode panicked".to_owned());
    if let Some(mut evidence) = evidence {
        for row in rows() {
            if (row.applies)(&evidence) {
                (row.check)(&mut evidence, &mut verdicts);
            }
        }
    }
    verdicts
}

/// Timed ↔ untimed: the core against the equally-faulted golden model, bit
/// for bit, decisions and per-iteration message digests.
fn timed_untimed(ev: &mut Evidence, v: &mut Verdicts) {
    // Determinism spot check: an identical rerun must be bit-identical.
    let again = ev.index.is_multiple_of(16).then(|| ev.hw.decode_quantized(&ev.channel));
    let ((hw_out, hw_trace), (golden_out, golden_trace)) = (ev.core(), ev.golden());
    v.check("hw-golden-bitexact", hw_out.result == *golden_out, || {
        mismatch("hardware", &hw_out.result, "golden", golden_out)
    });
    v.check("hw-golden-trace", hw_trace == golden_trace, || divergence(hw_trace, golden_trace));
    if let Some(again) = again {
        v.check(
            "hw-determinism",
            again.result == hw_out.result && again.cycles == hw_out.cycles,
            || "rerun of the same channel frame diverged".to_owned(),
        );
    }
}

/// Boundary-exact: the LUT software decoder in hardware-partitioned mode (at
/// `case.simd`, auto-detected by default) against the healthy golden model.
fn partitioned(ev: &mut Evidence, v: &mut Verdicts) {
    let out =
        ev.partitioned(ArithmeticKind::Lut, false, ev.case.simd).decode_quantized(&ev.channel);
    v.check("golden-partitioned-bitexact", out == *ev.golden().0, || {
        mismatch("partitioned qzigzag", &out, "golden", ev.golden().0)
    });
    ev.partitioned = Some(out);
}

/// Lane ↔ fused: the SIMD lane path under `case.arithmetic` must reproduce
/// the scalar fused sweep, results and per-iteration digests, at every
/// available dispatch tier (only at `case.simd` when the case forces one).
/// The software decoders have no RAM to corrupt, so this holds whatever the
/// case's fault — the fault sweep's configuration space (arithmetic ×
/// quantizer × caps × channel realizations) is where the lane kernels must
/// stay transparent. Under the golden model's own arithmetic on healthy
/// hardware the golden result is a third reference for both.
fn lanes(ev: &mut Evidence, v: &mut Verdicts) {
    let arithmetic = ev.case.arithmetic;
    let golden = (arithmetic == ArithmeticKind::Lut && ev.fault.is_empty()).then(|| ev.golden().0);
    let mut fused_trace = Vec::new();
    // Lane digests are pinned against the fused sweep's: golden traces hash
    // hardware RAM state, a different format.
    let fused_out = ev
        .partitioned(arithmetic, true, None)
        .decode_quantized_traced(&ev.channel, &mut fused_trace);
    if let Some(golden) = golden {
        v.check("golden-partitioned-bitexact", fused_out == *golden, || {
            mismatch("fused qzigzag", &fused_out, "golden", golden)
        });
    }
    for tier in ev.case.simd.map_or(SimdTier::available(), |tier| vec![tier]) {
        let mut lane_trace = Vec::new();
        let lane_out = ev
            .partitioned(arithmetic, false, Some(tier))
            .decode_quantized_traced(&ev.channel, &mut lane_trace);
        let name = format!("{} lane path", tier.name());
        v.check_at(
            Some(tier),
            "simd-fused-bitexact",
            lane_out == fused_out && lane_trace == fused_trace,
            || {
                let results = mismatch(&name, &lane_out, "scalar fused", &fused_out);
                format!("{results}, {}", divergence(&lane_trace, &fused_trace))
            },
        );
        if let Some(golden) = golden {
            v.check_at(Some(tier), "simd-partitioned-bitexact", lane_out == *golden, || {
                mismatch(&name, &lane_out, "golden", golden)
            });
        }
    }
}

/// One decoder's outcome inside the matrix.
struct MatrixEntry {
    name: &'static str,
    result: DecodeResult,
    /// Whether this entry joins the converged-word agreement pool. Faulted
    /// timed decoders opt out: a corrupted RAM may legitimately settle on a
    /// different valid codeword than the healthy decoders.
    word_contract: bool,
}

/// The float/quantized decoder matrix: per-decoder contracts on every
/// member, converged-word agreement across them, and bit flipping's
/// explicit weaker contract.
fn matrix(ev: &mut Evidence, v: &mut Verdicts) {
    let (case, quantizer) = (ev.case, ev.core_config.quantizer);
    let graph = || Arc::clone(&ev.ctx.code.graph);
    let f64_config = ev.sw_config;
    let f32_config = f64_config.with_precision(Precision::F32);
    // Min-sum engine kernel, both precisions (flooding runs the min-sum
    // rules on the rotation planes).
    let ms = f64_config.with_rule(CheckRule::NormalizedMinSum(0.75));
    let mut entries: Vec<MatrixEntry> = Vec::new();
    let mut run = |name: &'static str, decoder: &mut dyn Decoder| {
        entries.push(MatrixEntry { name, result: decoder.decode(&ev.llrs), word_contract: true });
    };
    run("flooding-f64", &mut FloodingDecoder::new(graph(), f64_config));
    run("flooding-f32", &mut FloodingDecoder::new(graph(), f32_config));
    run("zigzag-f64", &mut ZigzagDecoder::new(graph(), f64_config));
    run("zigzag-f32", &mut ZigzagDecoder::new(graph(), f32_config));
    run("flooding-ms-f64", &mut FloodingDecoder::new(graph(), ms));
    run("flooding-ms-f32", &mut FloodingDecoder::new(graph(), ms.with_precision(Precision::F32)));
    run("qzigzag-lut", &mut QuantizedZigzagDecoder::new(graph(), quantizer, f64_config));
    let min_sum = case.arithmetic.build(quantizer);
    run(
        "qzigzag-minsum",
        &mut QuantizedZigzagDecoder::with_arithmetic(graph(), min_sum, f64_config),
    );
    // A faulted core opts out of the cross-decoder word pool: corrupted
    // messages may legitimately converge to a different valid codeword.
    entries.push(MatrixEntry {
        name: "hardware",
        result: ev.core().0.result.clone(),
        word_contract: ev.fault.is_empty(),
    });
    if let Some(result) = ev.partitioned.take() {
        entries.push(MatrixEntry { name: "qzigzag-partitioned", result, word_contract: true });
    }

    // Gallager-B is *deliberately* excluded from the converged-word pool:
    // when it converges, its hard decisions form a valid codeword, but from
    // a hard-decision channel several dB past its own threshold that
    // codeword is regularly a *different* one than the soft decoders agree
    // on (miscorrection), so word agreement would raise false alarms on
    // correct behavior. It also early-stops unconditionally (there is no
    // fixed-iteration mode to contract on). What it must guarantee: the cap
    // is respected, and a converged word leaves no unsatisfied check —
    // i.e. the syndrome weight never ends above the channel hard
    // decisions' starting weight.
    let bf_out = BitFlippingDecoder::new(graph(), f64_config).decode(&ev.llrs);
    v.check("iteration-cap", bf_out.iterations <= case.max_iterations, || {
        format!("bit-flipping: {} iterations > cap {}", bf_out.iterations, case.max_iterations)
    });
    if bf_out.converged {
        let start: BitVec = ev.llrs.iter().map(|&l| l < 0.0).collect();
        let start_weight = syndrome_weight(&ev.ctx.code.graph, &start);
        let end_weight = syndrome_weight(&ev.ctx.code.graph, &bf_out.bits);
        v.check("bitflip-syndrome-weight", end_weight <= start_weight, || {
            format!(
                "converged with syndrome weight {end_weight} above the channel's {start_weight}"
            )
        });
        v.check("converged-syndrome", end_weight == 0, || {
            format!("bit-flipping: converged with {end_weight} unsatisfied checks")
        });
    }

    for e in &entries {
        let iterations = e.result.iterations;
        v.check("iteration-cap", iterations <= case.max_iterations, || {
            format!("{}: {iterations} iterations > cap {}", e.name, case.max_iterations)
        });
        v.check("fixed-iterations", case.early_stop || iterations == case.max_iterations, || {
            format!(
                "{}: ran {iterations} iterations with early_stop off (cap {})",
                e.name, case.max_iterations
            )
        });
        v.check(
            "converged-syndrome",
            !e.result.converged || syndrome_ok(&ev.ctx.code.graph, &e.result.bits),
            || format!("{}: converged with a dirty syndrome", e.name),
        );
    }

    // Converged decoders from different classes must agree on the word.
    let mut pool = entries.iter().filter(|e| e.word_contract && e.result.converged);
    if let Some(first) = pool.next() {
        for e in pool {
            v.check("converged-agreement", e.result.bits == first.result.bits, || {
                format!(
                    "{} and {} both converged but differ in {} bits",
                    first.name,
                    e.name,
                    count_diff(&first.result.bits, &e.result.bits),
                )
            });
        }
    }
}

/// Timing: the core's cycle breakdown must reproduce the memory model
/// ([`simulate_cn_phase`](dvbs2_hardware::simulate_cn_phase), cached in the
/// context) at the case's memory configuration and `p_io`.
fn timing(ev: &mut Evidence, v: &mut Verdicts) {
    let cycles = &ev.core().0.cycles;
    let (n, p_io) = (ev.ctx.code.system.params().n, ev.core_config.p_io);
    v.check("cycle-io", cycles.io_cycles == n.div_ceil(p_io), || {
        format!("io_cycles {} != ceil({n}/{p_io})", cycles.io_cycles)
    });
    v.check(
        "cycle-total",
        cycles.total_cycles
            == cycles.io_cycles + cycles.info_phase_cycles + cycles.check_phase_cycles,
        || format!("total {} is not io+info+check", cycles.total_cycles),
    );
    let per_iter = ev.ctx.check_phase.total_cycles;
    v.check("cycle-check-phase", cycles.check_phase_cycles == cycles.iterations * per_iter, || {
        format!(
            "check_phase_cycles {} != {} iterations x {per_iter} (simulate_cn_phase)",
            cycles.check_phase_cycles, cycles.iterations
        )
    });
    // At a cap of 0 no phase runs, so nothing is ever buffered.
    let (buffer, bound) = (cycles.max_buffer, ev.ctx.check_phase.max_buffer);
    let buffer_ok = if cycles.iterations == 0 { buffer == 0 } else { buffer >= bound };
    v.check("cycle-buffer", buffer_ok, || {
        format!(
            "max_buffer {buffer} after {} iterations (the memory model's check-phase bound is {bound})",
            cycles.iterations
        )
    });
}

/// Fabric: the case frame plus `fabric - 1` frames derived from the case's
/// own RNG continuation run through a `fabric`-core [`DecoderFabric`]
/// (modeled interconnect: link latency 2, round-robin bus). Timing and data
/// are separated by construction, so every frame must be bit-exact — full
/// output, cycle breakdown, and per-iteration digests — against a fresh
/// single-core decode, and the measured cycles must decompose exactly and
/// stay monotone-sane against the serial schedule.
fn fabric(ev: &mut Evidence, v: &mut Verdicts) {
    let case = ev.case;
    let (n, p_io) = (ev.ctx.code.system.params().n, ev.core_config.p_io);
    let fabric_config = FabricConfig {
        cores: case.fabric,
        core: ev.core_config,
        link_latency: 2,
        arbitration: Arbitration::RoundRobin { start: 0 },
    };
    let link = fabric_config.link_latency as u64;
    let mut fabric =
        DecoderFabric::new(ev.ctx.code.system.code(), ev.ctx.schedule.clone(), fabric_config);
    fabric.set_scenario(ev.fault);
    let mut frames: Vec<Vec<i32>> = vec![ev.channel.clone()];
    for _ in 1..case.fabric {
        let extra =
            ev.ctx.code.system.transmit_frame_with(&mut ev.rng, case.ebn0_db, case.modulation);
        frames.push(ev.hw.quantize_channel(&extra.llrs));
    }
    let mut fabric_traces: Vec<Vec<u64>> = Vec::new();
    let fab = fabric.decode_quantized_batch_traced(&frames, &mut fabric_traces);
    for (i, channel) in frames.iter().enumerate() {
        // Frame 0 already has its single-core reference; the derived
        // frames get a fresh one from the same decoder.
        let (single, single_trace) = if i == 0 {
            (ev.core().0.clone(), ev.core().1.to_vec())
        } else {
            let mut trace = Vec::new();
            (ev.hw.decode_quantized_traced(channel, &mut trace), trace)
        };
        v.check("fabric-hw-bitexact", fab.outputs[i] == single, || {
            format!(
                "frame {i}: {}, cycles {} vs {}",
                mismatch("fabric", &fab.outputs[i].result, "single core", &single.result),
                fab.outputs[i].cycles.total_cycles,
                single.cycles.total_cycles,
            )
        });
        v.check("fabric-hw-trace", fabric_traces[i] == single_trace, || {
            format!(
                "frame {i} vs the single core: {}",
                divergence(&fabric_traces[i], &single_trace)
            )
        });
    }
    // Frame 0 must also line up with the untimed golden model's digests
    // (transitively true when fabric == hw and hw == golden, but checked
    // directly so a fabric divergence is attributed even when the
    // hw-golden contract fails in the same case).
    let golden_trace = ev.golden().1;
    v.check("fabric-golden-trace", fabric_traces[0] == golden_trace, || {
        format!("frame 0 vs the golden model: {}", divergence(&fabric_traces[0], golden_trace))
    });
    // Cycle contracts: every span decomposes exactly into its parts,
    // per-frame decode occupancy matches the core's own breakdown, and
    // the makespan is monotone-sane — never slower than the serial
    // schedule (plus per-frame link crossings), never faster than the
    // shared bus allows.
    for (tm, out) in fab.timings.iter().zip(&fab.outputs) {
        let parts = tm.io_beats as u64
            + tm.load_stall_cycles
            + tm.input_wait_cycles
            + tm.decode_cycles as u64
            + 2 * link;
        v.check("fabric-span-decomposition", tm.span_cycles() == parts, || {
            format!(
                "frame {}: span {} != io {} + stall {} + wait {} + decode {} + 2x link {link}",
                tm.frame,
                tm.span_cycles(),
                tm.io_beats,
                tm.load_stall_cycles,
                tm.input_wait_cycles,
                tm.decode_cycles,
            )
        });
        let (info, check) = (out.cycles.info_phase_cycles, out.cycles.check_phase_cycles);
        v.check("fabric-decode-cycles", tm.decode_cycles == info + check, || {
            format!(
                "frame {}: fabric decode occupancy {} != core info {info} + check {check}",
                tm.frame, tm.decode_cycles,
            )
        });
        v.check("fabric-io-beats", tm.io_beats == n.div_ceil(p_io), || {
            format!("frame {}: {} beats != ceil({n}/{p_io})", tm.frame, tm.io_beats)
        });
    }
    let makespan = fab.stats.makespan_cycles;
    let serial = DecoderFabric::serial_cycles(&fab.outputs) + fab.outputs.len() as u64 * 2 * link;
    v.check("fabric-makespan-monotone", makespan <= serial, || {
        format!("{} cores took {makespan} cycles, above the serial bound {serial}", case.fabric)
    });
    let total_beats = (frames.len() * n.div_ceil(p_io)) as u64;
    v.check("fabric-bus-beats", fab.stats.bus_busy_cycles == total_beats, || {
        format!("bus busy {} cycles != {total_beats} frame beats", fab.stats.bus_busy_cycles)
    });
    v.check("fabric-makespan-bus-bound", makespan >= total_beats, || {
        format!("makespan {makespan} below the bus serialization floor {total_beats}")
    });
}

/// Graceful degradation: whatever the fault, the core ends inside its
/// iteration cap and never flags a dirty syndrome as converged (`fault-panic`,
/// the third contract of the class, is evaluated where the evidence is
/// built).
fn degradation(ev: &mut Evidence, v: &mut Verdicts) {
    let out = &ev.core().0.result;
    v.check("fault-hang", out.iterations <= ev.case.max_iterations, || {
        format!("ran {} iterations, above the cap", out.iterations)
    });
    v.check("fault-syndrome", !out.converged || syndrome_ok(&ev.ctx.code.graph, &out.bits), || {
        "converged with a dirty syndrome".to_owned()
    });
}

/// Reduces a scenario's fault words into the code's RAM (and FU units into
/// the 360-wide array) so one repro string stays valid across frame sizes
/// (the shrinker demotes Normal to Short).
fn clamp_fault(scenario: FaultScenario, words: usize) -> FaultScenario {
    let mut out = FaultScenario::none();
    for timed in scenario.ram_faults() {
        let mut fault = timed.fault;
        let (RamFault::StuckWord { word, .. } | RamFault::FlippedBits { word, .. }) = &mut fault;
        *word %= words;
        out.push_ram(TimedRamFault { fault, activation: timed.activation });
    }
    out.with_fu(scenario.fu_fault().map(|mut fu| {
        let (FuFault::StuckSign { unit, .. } | FuFault::StuckMag { unit, .. }) = &mut fu;
        *unit %= PARALLELISM;
        fu
    }))
}

fn count_diff(a: &BitVec, b: &BitVec) -> usize {
    if a.len() != b.len() {
        return a.len().max(b.len());
    }
    (0..a.len()).filter(|&i| a.get(i) != b.get(i)).count()
}

/// "`a` (converged=.. iters=..) != `b` (converged=.. iters=..), N differing bits".
fn mismatch(a_name: &str, a: &DecodeResult, b_name: &str, b: &DecodeResult) -> String {
    format!(
        "{a_name} (converged={} iters={}) != {b_name} (converged={} iters={}), {} differing bits",
        a.converged,
        a.iterations,
        b.converged,
        b.iterations,
        count_diff(&a.bits, &b.bits),
    )
}

/// Where two per-iteration digest traces first part.
fn divergence(a: &[u64], b: &[u64]) -> String {
    format!(
        "digests diverged at iteration {} of {}",
        a.iter().zip(b).position(|(a, b)| a != b).unwrap_or(0) + 1,
        a.len().max(b.len()),
    )
}
