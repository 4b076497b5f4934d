//! The case grammar: [`CaseSpec`], its seeded generator (an append-only
//! draw order — recorded repro strings and CI seeds name cases by it), and
//! the `Display`/`FromStr` round-trip every violation is reported through.

use dvbs2_channel::{mix_seed, Modulation};
use dvbs2_decoder::{QCheckArithmetic, Quantizer, SimdTier};
use dvbs2_hardware::{
    FaultActivation, FaultScenario, FuFault, MemoryConfig, RamFault, TimedRamFault,
};
use dvbs2_ldpc::{CodeRate, FrameSize, PARALLELISM};
use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;

/// Check-node arithmetic selector for the quantized decoders under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithmeticKind {
    /// The paper's QBoxplus correction LUT.
    Lut,
    /// Shift-based normalized min-sum with the given shift (`alpha = 1 - 2^-shift`).
    MinSumShift(u32),
}

impl ArithmeticKind {
    pub(super) fn build(self, quantizer: Quantizer) -> QCheckArithmetic {
        match self {
            ArithmeticKind::Lut => QCheckArithmetic::lut(quantizer),
            ArithmeticKind::MinSumShift(shift) => QCheckArithmetic::min_sum_shift(quantizer, shift),
        }
    }
}

impl fmt::Display for ArithmeticKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArithmeticKind::Lut => write!(f, "lut"),
            ArithmeticKind::MinSumShift(shift) => write!(f, "msshift{shift}"),
        }
    }
}

/// Which check-node processing order the timed decoders run under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScheduleKind {
    /// Row order as the connectivity ROM lists it.
    Natural,
    /// The annealer's conflict-minimized order (Section 3.2), computed with
    /// a fixed deterministic seed and a bounded move budget so cases stay
    /// reproducible and cheap.
    Annealed,
}

impl fmt::Display for ScheduleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleKind::Natural => write!(f, "natural"),
            ScheduleKind::Annealed => write!(f, "annealed"),
        }
    }
}

/// One generated differential test case: everything needed to reproduce a
/// frame and the decoder matrix bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaseSpec {
    /// Per-case RNG seed (drives message bits and channel noise).
    pub seed: u64,
    /// Code rate.
    pub rate: CodeRate,
    /// Frame size.
    pub frame: FrameSize,
    /// Channel Eb/N0 in dB.
    pub ebn0_db: f64,
    /// Quantizer resolution in bits (5 or 6, the paper's two options).
    pub quantizer_bits: u32,
    /// Arithmetic for the min-sum quantized decoder under test.
    pub arithmetic: ArithmeticKind,
    /// Iteration cap for every decoder in the matrix.
    pub max_iterations: usize,
    /// Syndrome-based early termination for every decoder in the matrix.
    pub early_stop: bool,
    /// Check-node schedule for the timed decoders (hardware and golden).
    pub schedule: ScheduleKind,
    /// Memory subsystem (banks × write ports × FU latency) of the timed
    /// decoders; the cycle contracts are checked against this configuration,
    /// not the paper default.
    pub memory: MemoryConfig,
    /// I/O parallelism of the timed core — fuzzed so the
    /// `io_cycles == ceil(n / p_io)` contract is exercised at more than the
    /// paper's default of 10.
    pub p_io: usize,
    /// Channel modulation. 8PSK routes the frame through the DVB-S2 block
    /// interleaver and the max-log demapper, so interleaved LLR ordering
    /// reaches every decoder.
    pub modulation: Modulation,
    /// Fault scenario injected into *both* the timed core and the golden
    /// model (empty = healthy hardware): up to four concurrent RAM faults,
    /// each permanent, iteration-windowed, or probabilistically active per
    /// commit, plus an optional stuck FU output lane. Word addresses are
    /// reduced modulo the code's RAM size (and FU units modulo 360) at run
    /// time, so a spec stays valid when the shrinker demotes the frame
    /// size.
    pub fault: FaultScenario,
    /// Core count of the multi-core `DecoderFabric` cross-check (1 = single
    /// core, fabric contracts skipped). When above 1, the case frame plus
    /// `fabric - 1` derived frames run through a `fabric`-core fabric with a
    /// modeled interconnect, and every frame must stay bit-exact — results
    /// *and* per-iteration digests — against the single `HardwareDecoder`,
    /// with cycle counts that decompose exactly and stay monotone-sane
    /// against the serial schedule.
    pub fabric: usize,
    /// SIMD dispatch tier forced on the software quantized lane decoder
    /// (`None` = auto-detect, the legacy behaviour). The generator never
    /// draws this dimension — the lane class fans a case out across *all*
    /// available tiers when it is `None`, and only across this one when it
    /// is set — but a violation found at a specific tier records it here
    /// so the repro string replays the exact kernel that diverged.
    pub simd: Option<SimdTier>,
}

impl CaseSpec {
    /// The case's quantizer.
    pub fn quantizer(&self) -> Quantizer {
        match self.quantizer_bits {
            5 => Quantizer::paper_5bit(),
            _ => Quantizer::paper_6bit(),
        }
    }

    /// Deterministically generates case `index` of a run keyed by
    /// `master_seed`. The distribution is chosen to exercise both
    /// convergence regimes: Eb/N0 offsets from −0.4 dB (most frames fail)
    /// to +1.6 dB (most frames decode) around a per-rate anchor near the
    /// waterfall. Every eighth case uses a Normal frame at a reduced
    /// iteration cap; the rest are Short frames. Timed-decoder variation:
    /// about a third of Short-frame cases run an annealed check-node
    /// schedule (Normal frames keep the natural order — annealing them
    /// would dominate a run's cost), and memory configurations are drawn
    /// from a small set spanning starved (2 banks, 1 port) to generous
    /// (8 banks) subsystems.
    pub fn generate(master_seed: u64, index: u64) -> CaseSpec {
        let mut next = splitmix(mix_seed(master_seed, index));
        let frame = if index % 8 == 7 { FrameSize::Normal } else { FrameSize::Short };
        let rate = loop {
            let r = CodeRate::ALL[(next() % CodeRate::ALL.len() as u64) as usize];
            // R 9/10 is defined only for Normal frames in the standard.
            if frame == FrameSize::Normal || r != CodeRate::R9_10 {
                break r;
            }
        };
        let offset = [-0.4, 0.0, 0.6, 1.6][(next() % 4) as usize];
        let max_iterations = match frame {
            FrameSize::Short => 4 + (next() % 5) as usize, // 4..=8
            FrameSize::Normal => 2 + (next() % 3) as usize, // 2..=4
        };
        let schedule = if frame == FrameSize::Short && next().is_multiple_of(3) {
            ScheduleKind::Annealed
        } else {
            ScheduleKind::Natural
        };
        let memory = match next() % 4 {
            0 => MemoryConfig { banks: 2, write_ports: 1, fu_latency: 3 },
            1 => MemoryConfig { banks: 4, write_ports: 2, fu_latency: 8 },
            2 => MemoryConfig { banks: 8, write_ports: 2, fu_latency: 4 },
            _ => MemoryConfig::default(),
        };
        let quantizer_bits = if next().is_multiple_of(4) { 5 } else { 6 };
        let arithmetic = ArithmeticKind::MinSumShift(1 + (next() % 3) as u32);
        let early_stop = !next().is_multiple_of(4);
        // New dimensions draw strictly after the original ones, so a given
        // (master_seed, index) keeps its pre-PR-4 rate/frame/memory/... .
        let p_io = [4, 7, 16, 10][(next() % 4) as usize];
        // Exactly one draw keeps downstream dimensions aligned with runs
        // recorded before QPSK joined the pool; the APSK arms reuse the
        // values that previously mapped to extra BPSK weight, so the fault
        // draws below still see the same random stream.
        let modulation = match next() % 5 {
            0 => Modulation::Psk8,
            1 => Modulation::Qpsk,
            2 => Modulation::Apsk16,
            3 => Modulation::Apsk32,
            _ => Modulation::Bpsk,
        };
        let mut fault = FaultScenario::none();
        if next().is_multiple_of(4) {
            draw_ram_faults(&mut next, &mut fault);
        }
        // Independent datapath-defect dimension: one in eight cases runs
        // with a stuck sign or magnitude lane in one functional unit.
        if next().is_multiple_of(8) {
            fault.set_fu(Some(draw_fu_fault(&mut next)));
        }
        // Fabric dimension, drawn strictly after every earlier dimension
        // (append-only discipline, see the p_io comment above): about a
        // quarter of cases re-run the frame through a multi-core
        // DecoderFabric and cross-check it against the single core. Normal
        // frames cap at two cores — each extra core is a whole extra
        // Normal-frame decode plus its single-core reference.
        let fabric = [2, 4, 3, 1, 1, 1, 1, 1][(next() % 8) as usize];
        let fabric = if frame == FrameSize::Normal { fabric.min(2) } else { fabric };
        CaseSpec {
            seed: mix_seed(master_seed ^ 0x0DD5_B2C0_DEC0_DE00, index),
            // Denser symbol modulations sit further up in Eb/N0: roughly
            // +2 dB for 8PSK, +4.5 dB for 16APSK and +7 dB for 32APSK
            // relative to the BPSK/QPSK anchor at these rates, keeping both
            // convergence regimes populated for every constellation.
            ebn0_db: anchor_ebn0_db(rate) + offset + modulation_offset_db(modulation),
            quantizer_bits,
            arithmetic,
            max_iterations,
            early_stop,
            schedule,
            memory,
            p_io,
            modulation,
            fault,
            fabric,
            ..CaseSpec::base(rate, frame)
        }
    }

    /// The paper's operating point on healthy single-core hardware: 6-bit
    /// LUT arithmetic, six early-stopping iterations, the natural schedule,
    /// the default memory and `p_io = 10`, BPSK at the rate's anchor Eb/N0,
    /// the SIMD tier auto-detected. The generator never draws `simd` (the
    /// append-only draw order would shift; the lane class fans every case
    /// across the available tiers instead). Hand-built case sources
    /// override the fields they vary.
    pub(super) fn base(rate: CodeRate, frame: FrameSize) -> CaseSpec {
        CaseSpec {
            seed: 0,
            rate,
            frame,
            ebn0_db: anchor_ebn0_db(rate),
            quantizer_bits: 6,
            arithmetic: ArithmeticKind::Lut,
            max_iterations: 6,
            early_stop: true,
            schedule: ScheduleKind::Natural,
            memory: MemoryConfig::default(),
            p_io: 10,
            modulation: Modulation::Bpsk,
            fault: FaultScenario::none(),
            fabric: 1,
            simd: None,
        }
    }
}

/// SplitMix64 output chain from `state`: the generator's only randomness.
fn splitmix(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Draws one RAM defect: its word, its kind, then the kind's value.
fn draw_ram_fault(next: &mut impl FnMut() -> u64) -> RamFault {
    let word = (next() % 1024) as usize;
    if next().is_multiple_of(2) {
        RamFault::StuckWord { word, value: (next() % 63) as i32 - 31 }
    } else {
        RamFault::FlippedBits { word, mask: 1 + (next() % 31) as i32 }
    }
}

/// Draws the RAM half of a fault scenario into `fault`.
fn draw_ram_faults(next: &mut impl FnMut() -> u64, fault: &mut FaultScenario) {
    let primary = draw_ram_fault(next);
    // Scenario extensions draw strictly after the original fault draws, so
    // a given (master_seed, index) keeps its pre-PR-7 fault word and kind.
    // Half the faulted cases stay permanent; the rest become
    // iteration-windowed or per-commit random upsets.
    let activation = match next() % 4 {
        0 => {
            let from = (next() % 3) as u32;
            FaultActivation::Window { from, until: from + 1 + (next() % 4) as u32 }
        }
        1 => FaultActivation::Random { seed: next() as u32, per_mille: 50 + (next() % 451) as u32 },
        _ => FaultActivation::Permanent,
    };
    fault.push_ram(TimedRamFault { fault: primary, activation });
    // A third of faulted cases carry a second, independent permanent
    // defect to exercise multi-fault interaction.
    if next().is_multiple_of(3) {
        fault.push_ram(TimedRamFault::permanent(draw_ram_fault(next)));
    }
}

/// Draws a stuck sign or magnitude lane in one functional unit.
fn draw_fu_fault(next: &mut impl FnMut() -> u64) -> FuFault {
    let unit = (next() % PARALLELISM as u64) as usize;
    if next().is_multiple_of(2) {
        FuFault::StuckSign { unit, negative: next().is_multiple_of(2) }
    } else {
        FuFault::StuckMag { unit, value: (next() % 32) as i32 }
    }
}

/// Forces a fault scenario onto a generated case: keeps the generator's
/// scenario when it drew one, otherwise draws one the way the generator
/// does from a stream keyed by the case seed, with the 1-in-4 RAM gate
/// open. This is how the fault-differential sweep guarantees that *every*
/// case exercises the corrupted write path, across the full dimension:
/// permanent, windowed and random activations, a second concurrent defect,
/// and (one case in four) a stuck FU lane.
pub(super) fn force_fault(mut case: CaseSpec) -> CaseSpec {
    if case.fault.is_empty() {
        let mut next = splitmix(mix_seed(case.seed, 0xFA07));
        draw_ram_faults(&mut next, &mut case.fault);
        if next().is_multiple_of(4) {
            case.fault.set_fu(Some(draw_fu_fault(&mut next)));
        }
    }
    case
}

/// Forces the fabric dimension onto a generated case: keeps the
/// generator's core count when it drew one, otherwise derives a
/// deterministic P ∈ {2, 3, 4} from the case seed. Normal frames demote to
/// Short (re-homing the Normal-only R 9/10 onto R 8/9) so a ≥1000-case
/// sweep stays affordable — the main oracle run covers Normal-frame
/// fabrics organically.
pub(super) fn force_fabric(mut case: CaseSpec) -> CaseSpec {
    if case.fabric < 2 {
        case.fabric = 2 + (mix_seed(case.seed, 0xFAB0) % 3) as usize;
    }
    if case.frame == FrameSize::Normal {
        case.frame = FrameSize::Short;
        if case.rate == CodeRate::R9_10 {
            case.rate = CodeRate::R8_9;
        }
    }
    case
}

impl fmt::Display for CaseSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let frame = match self.frame {
            FrameSize::Normal => "normal",
            FrameSize::Short => "short",
        };
        let modulation = match self.modulation {
            Modulation::Bpsk => "bpsk",
            Modulation::Qpsk => "qpsk",
            Modulation::Psk8 => "8psk",
            Modulation::Apsk16 => "16apsk",
            Modulation::Apsk32 => "32apsk",
        };
        write!(
            f,
            // `{}` on f64 prints the shortest exactly-round-tripping form:
            // the repro string must reproduce the noise realization bit for
            // bit, so ebn0 cannot be rounded for display.
            "seed={} rate={} frame={frame} ebn0={} q={} arith={} iters={} early={} \
             sched={} mem={}x{}x{} pio={} mod={modulation}",
            self.seed,
            self.rate,
            self.ebn0_db,
            self.quantizer_bits,
            self.arithmetic,
            self.max_iterations,
            self.early_stop,
            self.schedule,
            self.memory.banks,
            self.memory.write_ports,
            self.memory.fu_latency,
            self.p_io,
        )?;
        // `fabric=1` (the single core, no fabric cross-check) is omitted so
        // repro strings recorded before the fabric dimension existed stay
        // the canonical spelling of the cases they name.
        if self.fabric > 1 {
            write!(f, " fabric={}", self.fabric)?;
        }
        // `simd=` is omitted when the tier is auto-detected, so repro
        // strings recorded before the SIMD dimension existed stay the
        // canonical spelling of the cases they name.
        if let Some(tier) = self.simd {
            write!(f, " simd={}", tier.name())?;
        }
        if self.fault.is_empty() {
            return Ok(());
        }
        // A single permanent RAM fault prints exactly as it did before the
        // scenario grammar existed, so historical repro strings stay the
        // canonical spelling of the cases they name.
        let mut atoms: Vec<String> = Vec::new();
        for timed in self.fault.ram_faults() {
            let defect = match timed.fault {
                RamFault::StuckWord { word, value } => format!("stuck@{word}:{value}"),
                RamFault::FlippedBits { word, mask } => format!("flip@{word}:{mask}"),
            };
            atoms.push(match timed.activation {
                FaultActivation::Permanent => defect,
                FaultActivation::Window { from, until } => format!("{defect}~{from}..{until}"),
                FaultActivation::Random { seed, per_mille } => {
                    format!("{defect}~p{per_mille}:{seed}")
                }
            });
        }
        match self.fault.fu_fault() {
            Some(FuFault::StuckSign { unit, negative }) => {
                atoms.push(format!("fusign@{unit}:{}", if negative { '-' } else { '+' }));
            }
            Some(FuFault::StuckMag { unit, value }) => atoms.push(format!("fumag@{unit}:{value}")),
            None => {}
        }
        write!(f, " fault={}", atoms.join(","))
    }
}

/// Error parsing a [`CaseSpec`] repro string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCaseError(String);

impl fmt::Display for ParseCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid case spec: {}", self.0)
    }
}

impl std::error::Error for ParseCaseError {}

impl FromStr for CaseSpec {
    type Err = ParseCaseError;

    /// Parses the `Display` form, e.g.
    /// `seed=7 rate=2/3 frame=short ebn0=2.4 q=6 arith=msshift2 iters=6 early=true`.
    ///
    /// The `sched=`, `mem=BxPxL`, `pio=`, `mod=`, `fabric=`, `simd=` and
    /// `fault=` keys are optional and default to the natural schedule, the
    /// paper memory configuration, `p_io = 10`, BPSK, a single core (no
    /// fabric cross-check), an auto-detected SIMD tier, and healthy
    /// hardware, so repro strings recorded before those dimensions existed
    /// still parse. `simd=scalar|avx2|avx512` forces that dispatch tier on
    /// the software quantized lane decoder (replay panics if the host CPU
    /// lacks it, like `DVBS2_SIMD`).
    ///
    /// `fault=` takes a comma-separated list of fault atoms
    /// (`fault=none` is also accepted):
    ///
    /// * `stuck@WORD:VALUE` / `flip@WORD:MASK` — a RAM defect, permanent
    ///   unless followed by an activation suffix: `~FROM..UNTIL` confines
    ///   it to a half-open iteration window, `~pPER_MILLE:SEED` makes each
    ///   commit independently corrupt with probability `PER_MILLE/1000`;
    /// * `fusign@UNIT:+` / `fusign@UNIT:-` — a functional unit whose
    ///   output sign lane is stuck;
    /// * `fumag@UNIT:VALUE` — a functional unit whose output magnitude
    ///   lanes are stuck at `VALUE`.
    ///
    /// Pre-scenario strings (`fault=stuck@W:V`, `fault=flip@W:M`) are a
    /// strict subset of this grammar and keep their exact meaning.
    fn from_str(text: &str) -> Result<Self, Self::Err> {
        let err = |what: &str| ParseCaseError(format!("{what} in {text:?}"));
        let mut fields: HashMap<&str, &str> = HashMap::new();
        for token in text.split_whitespace() {
            let (key, value) = token.split_once('=').ok_or_else(|| err("missing '='"))?;
            fields.insert(key, value);
        }
        let get = |key: &str| fields.get(key).copied().ok_or_else(|| err(key));
        let arith = match get("arith")? {
            "lut" => ArithmeticKind::Lut,
            other => match other.strip_prefix("msshift").and_then(|s| s.parse().ok()) {
                Some(shift) => ArithmeticKind::MinSumShift(shift),
                None => return Err(err("arith")),
            },
        };
        let schedule = match fields.get("sched").copied() {
            None | Some("natural") => ScheduleKind::Natural,
            Some("annealed") => ScheduleKind::Annealed,
            Some(_) => return Err(err("sched")),
        };
        let memory = match fields.get("mem").copied() {
            None => MemoryConfig::default(),
            Some(spec) => {
                let parts: Option<Vec<usize>> = spec.split('x').map(|p| p.parse().ok()).collect();
                match parts.as_deref() {
                    Some(&[banks, write_ports, fu_latency]) if banks > 0 && write_ports > 0 => {
                        MemoryConfig { banks, write_ports, fu_latency }
                    }
                    _ => return Err(err("mem")),
                }
            }
        };
        let positive = |key: &str, default: usize| match fields.get(key) {
            None => Ok(default),
            Some(spec) => spec.parse().ok().filter(|&p| p > 0).ok_or_else(|| err(key)),
        };
        let modulation = match fields.get("mod").copied() {
            None | Some("bpsk") => Modulation::Bpsk,
            Some("qpsk") => Modulation::Qpsk,
            Some("8psk") => Modulation::Psk8,
            Some("16apsk") => Modulation::Apsk16,
            Some("32apsk") => Modulation::Apsk32,
            Some(_) => return Err(err("mod")),
        };
        let simd = match fields.get("simd") {
            None => None,
            Some(name) => Some(
                SimdTier::ALL.into_iter().find(|t| t.name() == *name).ok_or_else(|| err("simd"))?,
            ),
        };
        let fault = match fields.get("fault").copied() {
            None | Some("none") => FaultScenario::none(),
            Some(spec) => parse_fault(spec).ok_or_else(|| err("fault"))?,
        };
        Ok(CaseSpec {
            seed: get("seed")?.parse().map_err(|_| err("seed"))?,
            rate: get("rate")?.parse().map_err(|_| err("rate"))?,
            frame: match get("frame")? {
                "normal" => FrameSize::Normal,
                "short" => FrameSize::Short,
                _ => return Err(err("frame")),
            },
            ebn0_db: get("ebn0")?.parse().map_err(|_| err("ebn0"))?,
            quantizer_bits: get("q")?.parse().map_err(|_| err("q"))?,
            arithmetic: arith,
            max_iterations: get("iters")?.parse().map_err(|_| err("iters"))?,
            early_stop: get("early")?.parse().map_err(|_| err("early"))?,
            schedule,
            memory,
            p_io: positive("pio", 10)?,
            modulation,
            fault,
            fabric: positive("fabric", 1)?,
            simd,
        })
    }
}

/// Parses a `fault=` value (see [`CaseSpec::from_str`] for the grammar);
/// `None` on a malformed atom or a fifth RAM fault.
pub(super) fn parse_fault(spec: &str) -> Option<FaultScenario> {
    let pair = |body: &str| -> Option<(usize, i32)> {
        let (word, arg) = body.split_once(':')?;
        Some((word.parse().ok()?, arg.parse().ok()?))
    };
    let mut scenario = FaultScenario::none();
    for atom in spec.split(',') {
        if let Some(body) = atom.strip_prefix("fusign@") {
            let (unit, sign) = body.split_once(':')?;
            let negative = match sign {
                "+" => false,
                "-" => true,
                _ => return None,
            };
            scenario.set_fu(Some(FuFault::StuckSign { unit: unit.parse().ok()?, negative }));
        } else if let Some(body) = atom.strip_prefix("fumag@") {
            let (unit, value) = pair(body)?;
            scenario.set_fu(Some(FuFault::StuckMag { unit, value }));
        } else {
            let (base, activation) = match atom.split_once('~') {
                None => (atom, FaultActivation::Permanent),
                Some((base, suffix)) => match suffix.strip_prefix('p') {
                    Some(body) => {
                        let (per_mille, seed) = body.split_once(':')?;
                        let (seed, per_mille) = (seed.parse().ok()?, per_mille.parse().ok()?);
                        (base, FaultActivation::Random { seed, per_mille })
                    }
                    None => {
                        let (from, until) = suffix.split_once("..")?;
                        let (from, until) = (from.parse().ok()?, until.parse().ok()?);
                        (base, FaultActivation::Window { from, until })
                    }
                },
            };
            let fault = if let Some(body) = base.strip_prefix("stuck@") {
                let (word, value) = pair(body)?;
                RamFault::StuckWord { word, value }
            } else {
                let (word, mask) = pair(base.strip_prefix("flip@")?)?;
                RamFault::FlippedBits { word, mask }
            };
            if !scenario.push_ram(TimedRamFault { fault, activation }) {
                return None;
            }
        }
    }
    Some(scenario)
}

/// Generator Eb/N0 offset per modulation: denser constellations need more
/// SNR to keep the decodes-mostly/fails-mostly mix the offsets produce on
/// BPSK. QPSK shares the BPSK anchor (per-dimension identical channel).
pub(super) fn modulation_offset_db(modulation: Modulation) -> f64 {
    match modulation {
        Modulation::Bpsk | Modulation::Qpsk => 0.0,
        Modulation::Psk8 => 2.0,
        Modulation::Apsk16 => 4.5,
        Modulation::Apsk32 => 7.0,
    }
}

/// Rough Eb/N0 (dB) of each rate's waterfall region — anchor for the
/// generator's offsets, not a calibrated threshold.
pub(super) fn anchor_ebn0_db(rate: CodeRate) -> f64 {
    match rate {
        CodeRate::R1_4 => 0.8,
        CodeRate::R1_3 => 0.9,
        CodeRate::R2_5 => 1.0,
        CodeRate::R1_2 => 1.4,
        CodeRate::R3_5 => 1.9,
        CodeRate::R2_3 => 2.4,
        CodeRate::R3_4 => 2.8,
        CodeRate::R4_5 => 3.2,
        CodeRate::R5_6 => 3.5,
        CodeRate::R8_9 => 4.2,
        CodeRate::R9_10 => 4.4,
    }
}
