//! Failure shrinking: reduce a failing case to a minimal reproducer.

use super::spec::{CaseSpec, ScheduleKind};
use dvbs2_channel::Modulation;
use dvbs2_hardware::{FaultActivation, FaultScenario, MemoryConfig, RamFault, TimedRamFault};
use dvbs2_ldpc::{CodeRate, FrameSize};

/// Greedily reduces a failing case to a minimal reproducer, preserving its
/// identity (seed, rate, arithmetic — the parts that select *which* bug
/// fires) while shrinking everything that only makes the report bigger:
/// fewer iterations, Short instead of Normal frames, the default 6-bit
/// quantizer, fixed-iteration (`early_stop = false`) operation, the
/// natural schedule, the default memory configuration, the default
/// `p_io = 10`, BPSK modulation, and a simpler (or absent) fault scenario —
/// the FU fault drops first, then RAM faults drop one at a time,
/// activations simplify toward permanent, a stuck word shrinks toward
/// value `0`, and a flipped word toward mask `1`.
///
/// `still_fails` must return `true` when a candidate case still reproduces
/// the original failure; the shrinker keeps the smallest candidate that does.
pub fn shrink_case<F: FnMut(&CaseSpec) -> bool>(
    failing: &CaseSpec,
    mut still_fails: F,
) -> CaseSpec {
    let mut best = *failing;
    loop {
        let mut candidates: Vec<CaseSpec> = Vec::new();
        if best.max_iterations > 1 {
            candidates.push(CaseSpec { max_iterations: best.max_iterations / 2, ..best });
            candidates.push(CaseSpec { max_iterations: best.max_iterations - 1, ..best });
        }
        if best.frame == FrameSize::Normal && best.rate != CodeRate::R9_10 {
            candidates.push(CaseSpec { frame: FrameSize::Short, ..best });
        }
        // Every other dimension shrinks straight to its default; a
        // candidate that equals `best` is already there and is dropped below.
        candidates.extend([
            CaseSpec { early_stop: false, ..best },
            CaseSpec { quantizer_bits: 6, ..best },
            CaseSpec { schedule: ScheduleKind::Natural, ..best },
            CaseSpec { memory: MemoryConfig::default(), ..best },
            CaseSpec { p_io: 10, ..best },
            CaseSpec { modulation: Modulation::Bpsk, ..best },
        ]);
        if best.fabric > 1 {
            // Prefer dropping the fabric dimension outright; otherwise
            // shave one core at a time so a contention-dependent failure
            // keeps the smallest fabric that still shows it.
            candidates.push(CaseSpec { fabric: 1, ..best });
            candidates.push(CaseSpec { fabric: best.fabric - 1, ..best });
        }
        // A failure that survives at the auto-detected tier is not
        // kernel-specific; drop the forced tier from the repro string.
        candidates.push(CaseSpec { simd: None, ..best });
        candidates.push(CaseSpec { fault: best.fault.with_fu(None), ..best });
        let rams: Vec<TimedRamFault> = best.fault.ram_faults().copied().collect();
        let rebuild = |rams: Vec<TimedRamFault>| {
            let mut s = FaultScenario::none();
            for t in rams {
                s.push_ram(t);
            }
            CaseSpec { fault: s.with_fu(best.fault.fu_fault()), ..best }
        };
        for i in 0..rams.len() {
            // Drop fault `i` entirely (one fault shrinks to no fault), then
            // simplify it in place: activation toward permanent, stuck
            // value toward 0, flip mask toward 1.
            let (mut fewer, mut permanent, mut floor) = (rams.clone(), rams.clone(), rams.clone());
            fewer.remove(i);
            permanent[i].activation = FaultActivation::Permanent;
            floor[i].fault = match rams[i].fault {
                RamFault::StuckWord { word, .. } => RamFault::StuckWord { word, value: 0 },
                RamFault::FlippedBits { word, .. } => RamFault::FlippedBits { word, mask: 1 },
            };
            candidates.extend([fewer, permanent, floor].map(rebuild));
        }
        candidates.retain(|c| *c != best);
        match candidates.into_iter().find(|c| still_fails(c)) {
            Some(smaller) => best = smaller,
            None => return best,
        }
    }
}
