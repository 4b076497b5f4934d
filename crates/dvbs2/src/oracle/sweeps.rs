//! The sweeps: one driver, and the named (case source, class set) pairs
//! that run over it.

use super::context::ContextCache;
use super::contracts::{run_case_with, Class, Verdicts, Violation};
use super::spec::{anchor_ebn0_db, force_fabric, force_fault, parse_fault, CaseSpec};
use dvbs2_channel::mix_seed;
use dvbs2_decoder::{
    syndrome_ok, Decoder, DecoderConfig, FloodingDecoder, Precision, QuantizedZigzagDecoder,
    ZigzagDecoder,
};
use dvbs2_hardware::{CoreConfig, HardwareDecoder};
use dvbs2_ldpc::{CodeRate, FrameSize, PARALLELISM};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Options for an oracle run.
#[derive(Debug, Clone, Copy)]
pub struct OracleConfig {
    /// Seed of the whole run (each case derives its own stream).
    pub master_seed: u64,
    /// Number of generated cases ([`Sweep::Partition`] ignores it: its case
    /// source is the fixed list of code points).
    pub cases: u64,
    /// Worker threads (cases are independent; results are deterministic
    /// regardless of this value).
    pub threads: usize,
}

/// Outcome of an oracle run.
#[derive(Debug, Clone, Default)]
pub struct OracleReport {
    /// Cases executed.
    pub cases: u64,
    /// Distinct code rates covered.
    pub rates_covered: Vec<CodeRate>,
    /// Distinct frame sizes covered.
    pub frames_covered: Vec<FrameSize>,
    /// Every contract that was evaluated on at least one case.
    pub evaluated: Vec<&'static str>,
    /// All contract violations, ordered by case index.
    pub violations: Vec<Violation>,
}

impl OracleReport {
    /// `true` when no contract was violated.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    fn absorb(&mut self, verdicts: Verdicts) {
        for contract in verdicts.evaluated {
            if !self.evaluated.contains(&contract) {
                self.evaluated.push(contract);
            }
        }
        self.violations.extend(verdicts.violations);
    }

    fn cover(&mut self, case: &CaseSpec) {
        if !self.rates_covered.contains(&case.rate) {
            self.rates_covered.push(case.rate);
        }
        if !self.frames_covered.contains(&case.frame) {
            self.frames_covered.push(case.frame);
        }
    }
}

/// The one sweep driver: runs cases `0..count` of `case_for` under
/// `classes` across worker threads and collects every verdict.
/// Deterministic for a given case source regardless of `threads`.
fn sweep(
    case_for: impl Fn(u64) -> CaseSpec + Sync,
    count: u64,
    classes: &[Class],
    threads: usize,
) -> OracleReport {
    let next = AtomicU64::new(0);
    let report = Mutex::new(OracleReport { cases: count, ..OracleReport::default() });
    let cache = ContextCache::default();
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= count {
                    break;
                }
                let verdicts = run_case_with(index, &case_for(index), &cache, classes);
                report.lock().expect("no panics hold the lock").absorb(verdicts);
            });
        }
    });
    let mut report = report.into_inner().expect("all workers joined");
    report.violations.sort_by_key(|v| v.case_index);
    report.evaluated.sort_unstable();
    for index in 0..count {
        report.cover(&case_for(index));
    }
    report
}

/// Runs every contract class on one case — a superset of what any sweep
/// evaluates on it, so every sweep violation replays here. This is the
/// `--repro` path.
pub fn run_case(case_index: u64, case: &CaseSpec) -> OracleReport {
    replay(case_index, case, &Class::all())
}

fn replay(case_index: u64, case: &CaseSpec, classes: &[Class]) -> OracleReport {
    let mut report = OracleReport { cases: 1, ..OracleReport::default() };
    report.cover(case);
    report.absorb(run_case_with(case_index, case, &ContextCache::default(), classes));
    report
}

/// The named sweeps. Each is a case source plus the contract classes it
/// evaluates; none has a runner of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    /// Generated cases through the full decoder matrix.
    Matrix,
    /// Generated cases with a fault scenario forced onto every one: the
    /// faulted core against the equally-faulted golden model, graceful
    /// degradation, and the software lane path against the fused sweep at
    /// every tier under the case's arithmetic.
    Fault,
    /// Generated cases with the fabric dimension forced onto every one
    /// (Normal frames demoted to Short); odd indices also carry a forced
    /// fault, so half the sweep drives corrupted writes through the fabric.
    Fabric,
    /// Every defined rate/frame code point (11 Normal-frame rates plus 10
    /// Short-frame rates) at two operating points, early-stopping above the
    /// waterfall and fixed-iteration below it: the boundary-exact and lane
    /// classes against the golden model.
    Partition,
}

/// The partition sweep's two operating points per code point:
/// (Eb/N0 offset from the anchor, early stop, iteration cap).
const PARTITION_CONFIGS: [(f64, bool, usize); 2] = [(0.4, true, 8), (-0.4, false, 4)];

/// Every defined code point; R 9/10 is Normal-only in the standard.
fn code_points() -> Vec<(CodeRate, FrameSize)> {
    let normal = CodeRate::ALL.iter().map(|&r| (r, FrameSize::Normal));
    let short =
        CodeRate::ALL.iter().filter(|&&r| r != CodeRate::R9_10).map(|&r| (r, FrameSize::Short));
    normal.chain(short).collect()
}

impl Sweep {
    fn classes(self) -> &'static [Class] {
        match self {
            Sweep::Matrix => &[
                Class::TimedUntimed,
                Class::Partitioned,
                Class::Matrix,
                Class::Timing,
                Class::Fabric,
            ],
            Sweep::Fault => &[Class::TimedUntimed, Class::Lanes, Class::Degradation],
            Sweep::Fabric => &[Class::TimedUntimed, Class::Fabric],
            Sweep::Partition => &[Class::Partitioned, Class::Lanes],
        }
    }

    /// Case `index` of this sweep's source under `master_seed` (panics for
    /// [`Sweep::Partition`] at an index past its 42 points).
    pub fn case(self, master_seed: u64, index: u64) -> CaseSpec {
        let generated = || CaseSpec::generate(master_seed, index);
        match self {
            Sweep::Matrix => generated(),
            Sweep::Fault => force_fault(generated()),
            Sweep::Fabric if index % 2 == 1 => force_fault(force_fabric(generated())),
            Sweep::Fabric => force_fabric(generated()),
            Sweep::Partition => {
                let (rate, frame) = code_points()[index as usize / PARTITION_CONFIGS.len()];
                let (offset, early_stop, max_iterations) =
                    PARTITION_CONFIGS[index as usize % PARTITION_CONFIGS.len()];
                CaseSpec {
                    seed: mix_seed(master_seed, index),
                    ebn0_db: anchor_ebn0_db(rate) + offset,
                    max_iterations,
                    early_stop,
                    ..CaseSpec::base(rate, frame)
                }
            }
        }
    }

    /// Runs the sweep. Deterministic for a given `master_seed` regardless of
    /// `threads`.
    pub fn run(self, config: &OracleConfig) -> OracleReport {
        let count = match self {
            Sweep::Partition => (code_points().len() * PARTITION_CONFIGS.len()) as u64,
            _ => config.cases,
        };
        sweep(|index| self.case(config.master_seed, index), count, self.classes(), config.threads)
    }

    /// Re-runs one case under this sweep's own class set: what a shrinker
    /// for one of the sweep's violations should call (cheaper than
    /// [`run_case`], and never evaluates a contract the sweep did not).
    pub fn replay(self, case_index: u64, case: &CaseSpec) -> OracleReport {
        replay(case_index, case, self.classes())
    }
}

/// Runs the fault-injection suite on one (rate, frame) point. Decoders must
/// degrade gracefully — wrong bits at worst, never a panic, a hang, or a
/// `converged` flag on a dirty syndrome. The report's `cases` counts:
///
/// * ten hardware scenarios — stuck and bit-flipped RAM words, multi-word,
///   iteration-windowed, per-commit-random and stuck-FU-lane — each on a
///   noisy frame 0.4 dB below the rate's anchor (the fault competes with
///   real noise) through the shared runner's graceful-degradation class, so
///   a violation's case replays;
/// * an all-zero LLR frame (erased channel) through a decoder matrix: it
///   degrades to the valid all-zero codeword, so convergence is legitimate;
/// * an all-saturated LLR frame with adversarial random signs.
pub fn run_fault_suite(rate: CodeRate, frame: FrameSize, master_seed: u64) -> OracleReport {
    let cache = ContextCache::default();
    let base = CaseSpec {
        seed: master_seed,
        ebn0_db: anchor_ebn0_db(rate) - 0.4,
        ..CaseSpec::base(rate, frame)
    };
    let ctx = cache.context_for(&base);
    let quantizer = base.quantizer();
    let words = ctx.code.rom.words();
    let max = quantizer.max_mag();
    // In the repro grammar, so a scenario reads as it prints in a violation.
    let scenarios = [
        format!("stuck@0:{max}"),
        format!("stuck@{}:-{max}", words / 2),
        format!("stuck@{}:0", words - 1),
        format!("flip@{}:1", words / 3),
        format!("flip@{}:31", 2 * words / 3),
        format!("stuck@0:{max},flip@{}:7", words / 2),
        format!("stuck@{}:-{max}~1..3", words / 4),
        format!("flip@{}:15~p250:{}", words / 5, master_seed as u32),
        "fusign@17:-".to_owned(),
        format!("flip@{}:2,fumag@{}:0", words / 7, PARALLELISM - 1),
    ];
    let mut report = OracleReport::default();
    report.cover(&base);
    for scenario in scenarios {
        let fault = parse_fault(&scenario).expect("the scenarios above are well-formed");
        let case = CaseSpec { fault, ..base };
        report.absorb(run_case_with(report.cases, &case, &cache, &[Class::Degradation]));
        report.cases += 1;
    }

    // Degenerate channel frames through a decoder matrix (no RAM fault).
    let n = ctx.code.system.params().n;
    let zeros = vec![0.0f64; n];
    // Large but finite: +/-1e4 saturates every quantizer and drives the
    // float decoders to their plateaus without producing inf - inf.
    let saturated: Vec<f64> =
        (0..n as u64).map(|i| if mix_seed(master_seed, i) & 1 == 0 { 1e4 } else { -1e4 }).collect();
    for (name, llrs) in [("all-zero", &zeros), ("all-saturated", &saturated)] {
        let config =
            DecoderConfig { max_iterations: base.max_iterations, ..DecoderConfig::default() };
        let results = catch_unwind(AssertUnwindSafe(|| {
            let graph = || Arc::clone(&ctx.code.graph);
            let f32_config = config.with_precision(Precision::F32);
            let core_config = CoreConfig {
                quantizer,
                max_iterations: base.max_iterations,
                early_stop: true,
                ..CoreConfig::default()
            };
            vec![
                FloodingDecoder::new(graph(), config).decode(llrs),
                ZigzagDecoder::new(graph(), f32_config).decode(llrs),
                QuantizedZigzagDecoder::new(graph(), quantizer, config).decode(llrs),
                HardwareDecoder::new(ctx.code.system.code(), ctx.schedule.clone(), core_config)
                    .decode(llrs)
                    .result,
            ]
        }));
        let mut v = Verdicts::new(report.cases, base);
        v.check("fault-panic", results.is_ok(), || format!("{name} frame: a decoder panicked"));
        for r in results.into_iter().flatten() {
            v.check("fault-hang", r.iterations <= base.max_iterations, || {
                format!("{name}: exceeded the iteration cap")
            });
            v.check(
                "fault-syndrome",
                !r.converged || syndrome_ok(&ctx.code.graph, &r.bits),
                || format!("{name}: converged with a dirty syndrome"),
            );
        }
        report.absorb(v);
        report.cases += 1;
    }
    report
}
