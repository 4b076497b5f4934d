use super::spec::{anchor_ebn0_db, force_fabric, force_fault, modulation_offset_db};
use super::*;
use crate::{Dvbs2System, SystemConfig};
use dvbs2_channel::Modulation;
use dvbs2_decoder::SimdTier;
use dvbs2_hardware::{FaultActivation, FaultScenario, FuFault, RamFault, TimedRamFault};
use dvbs2_ldpc::{CodeRate, FrameSize};
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[test]
fn generator_draws_every_modulation_with_the_right_anchor() {
    let mut seen = [false; 5]; // [bpsk, qpsk, 8psk, 16apsk, 32apsk]
    for index in 0..200u64 {
        let case = CaseSpec::generate(0xC0FE, index);
        match case.modulation {
            Modulation::Bpsk => seen[0] = true,
            Modulation::Qpsk => seen[1] = true,
            Modulation::Psk8 => seen[2] = true,
            Modulation::Apsk16 => seen[3] = true,
            Modulation::Apsk32 => seen[4] = true,
        }
        // QPSK shares the BPSK anchor (per-dimension identical channel,
        // so no dB shift); the symbol modulations keep their density
        // offsets (+2 / +4.5 / +7 dB).
        let delta =
            case.ebn0_db - anchor_ebn0_db(case.rate) - modulation_offset_db(case.modulation);
        let offsets: &[f64] = &[-0.4, 0.0, 0.6, 1.6];
        assert!(
            offsets.iter().any(|&o| (delta - o).abs() < 1e-9),
            "index {index}: {} offset {delta}",
            case.modulation as u8,
        );
    }
    assert!(seen.iter().all(|&s| s), "modulation coverage: {seen:?}");
}

#[test]
fn qpsk_cases_round_trip_through_their_repro_string() {
    let case = CaseSpec { modulation: Modulation::Qpsk, ..CaseSpec::generate(7, 3) };
    let parsed: CaseSpec = case.to_string().parse().unwrap();
    assert_eq!(parsed, case);
}

#[test]
fn apsk_cases_round_trip_through_their_repro_string() {
    for modulation in [Modulation::Apsk16, Modulation::Apsk32] {
        let case = CaseSpec { modulation, ..CaseSpec::generate(7, 3) };
        let parsed: CaseSpec = case.to_string().parse().unwrap();
        assert_eq!(parsed, case);
        assert!(case.to_string().contains("apsk"), "{case}");
    }
}

#[test]
fn pre_scenario_fault_strings_parse_to_the_same_single_fault() {
    // Backward-compatibility pin: every pre-scenario `fault=` spelling
    // must parse to a scenario holding exactly that single permanent
    // RAM fault — structurally equal to `FaultScenario::single` of it, so
    // structural equality pins behavioral identity — and must print back
    // byte-identically.
    let base = CaseSpec { fault: FaultScenario::none(), ..CaseSpec::generate(7, 3) };
    for (spec, fault) in [
        ("stuck@421:-31", RamFault::StuckWord { word: 421, value: -31 }),
        ("stuck@0:0", RamFault::StuckWord { word: 0, value: 0 }),
        ("flip@97:31", RamFault::FlippedBits { word: 97, mask: 31 }),
        ("flip@1023:1", RamFault::FlippedBits { word: 1023, mask: 1 }),
    ] {
        let text = format!("{base} fault={spec}");
        let parsed: CaseSpec = text.parse().unwrap();
        assert_eq!(parsed.fault.as_single_permanent(), Some(fault), "{spec}");
        assert_eq!(parsed.fault, FaultScenario::from(fault), "{spec}");
        assert_eq!(parsed.to_string(), text, "legacy spelling must stay canonical");
    }
    let healthy: CaseSpec = format!("{base} fault=none").parse().unwrap();
    assert!(healthy.fault.is_empty());
}

#[test]
fn scenario_fault_strings_round_trip() {
    let base = CaseSpec::generate(7, 3);
    let scenarios = [
        // Multi-fault with a window, plus a stuck FU sign lane.
        FaultScenario::none()
            .with_ram(TimedRamFault {
                fault: RamFault::StuckWord { word: 12, value: -3 },
                activation: FaultActivation::Window { from: 1, until: 4 },
            })
            .with_ram(TimedRamFault::permanent(RamFault::FlippedBits { word: 900, mask: 17 }))
            .with_fu(Some(FuFault::StuckSign { unit: 359, negative: true })),
        // Per-commit random upset.
        FaultScenario::none().with_ram(TimedRamFault {
            fault: RamFault::FlippedBits { word: 7, mask: 1 },
            activation: FaultActivation::Random { seed: 77, per_mille: 333 },
        }),
        // FU-only scenarios.
        FaultScenario::none().with_fu(Some(FuFault::StuckMag { unit: 0, value: 9 })),
        FaultScenario::none().with_fu(Some(FuFault::StuckSign { unit: 17, negative: false })),
        // A window that covers the power-on fill.
        FaultScenario::none().with_ram(TimedRamFault {
            fault: RamFault::StuckWord { word: 0, value: 31 },
            activation: FaultActivation::Window { from: 0, until: 1 },
        }),
    ];
    for scenario in scenarios {
        let case = CaseSpec { fault: scenario, ..base };
        let parsed: CaseSpec = case.to_string().parse().unwrap();
        assert_eq!(parsed, case, "{case}");
    }
}

#[test]
fn generated_fault_scenarios_round_trip_and_cover_the_dimension() {
    let (mut multi, mut window, mut random, mut fu) = (false, false, false, false);
    for index in 0..400u64 {
        let case = CaseSpec::generate(0xFA01_7EE7, index);
        let parsed: CaseSpec = case.to_string().parse().unwrap();
        assert_eq!(parsed, case, "index {index}");
        multi |= case.fault.ram_fault_count() > 1;
        fu |= case.fault.fu_fault().is_some();
        for t in case.fault.ram_faults() {
            match t.activation {
                FaultActivation::Window { .. } => window = true,
                FaultActivation::Random { .. } => random = true,
                FaultActivation::Permanent => {}
            }
        }
    }
    assert!(
        multi && window && random && fu,
        "coverage: multi={multi} window={window} random={random} fu={fu}"
    );
}

#[test]
fn forced_faults_are_never_empty_and_span_the_dimension() {
    let (mut extended, mut fu) = (false, false);
    for index in 0..200u64 {
        let case = force_fault(CaseSpec::generate(0xD1FF, index));
        assert!(!case.fault.is_empty(), "index {index}");
        extended |= case.fault.as_single_permanent().is_none();
        fu |= case.fault.fu_fault().is_some();
    }
    assert!(extended && fu, "forced coverage: extended={extended} fu={fu}");
}

#[test]
fn fabric_dimension_round_trips_and_is_forced_in_the_sweep() {
    let mut multi = false;
    for index in 0..200u64 {
        let case = CaseSpec::generate(0xFAB, index);
        let parsed: CaseSpec = case.to_string().parse().unwrap();
        assert_eq!(parsed, case, "index {index}");
        multi |= case.fabric > 1;
        if case.fabric > 1 {
            assert!(case.to_string().contains(" fabric="), "{case}");
        } else {
            assert!(!case.to_string().contains("fabric="), "{case}");
        }
        let forced = force_fabric(case);
        assert!((2..=4).contains(&forced.fabric), "index {index}: P={}", forced.fabric);
        assert_eq!(forced.frame, FrameSize::Short, "the sweep demotes Normal frames");
        assert_ne!(forced.rate, CodeRate::R9_10, "R9/10 re-homes with the frame");
    }
    assert!(multi, "the generator must draw multi-core fabrics");
    // Legacy strings parse with fabric defaulting to the single core;
    // a zero core count is rejected, not defaulted.
    let legacy = "seed=7 rate=2/3 frame=short ebn0=2.4 q=6 arith=lut iters=6 early=true";
    assert_eq!(legacy.parse::<CaseSpec>().unwrap().fabric, 1);
    assert_eq!(format!("{legacy} fabric=4").parse::<CaseSpec>().unwrap().fabric, 4);
    assert!(format!("{legacy} fabric=0").parse::<CaseSpec>().is_err(), "zero cores");
}

#[test]
fn simd_dimension_round_trips_and_defaults_to_auto() {
    // The generator never draws the dimension (append-only RNG
    // discipline: adding `simd=` must not shift any existing stream),
    // so a generated case omits the key and its string stays the
    // pre-SIMD canonical spelling.
    let case = CaseSpec::generate(0x51D, 11);
    assert_eq!(case.simd, None);
    assert!(!case.to_string().contains("simd="), "{case}");
    // A forced tier prints, round-trips, and shrinks back to auto.
    for (tier, name) in
        [(SimdTier::Scalar, "scalar"), (SimdTier::Avx2, "avx2"), (SimdTier::Avx512, "avx512")]
    {
        let forced = CaseSpec { simd: Some(tier), ..case };
        assert!(forced.to_string().contains(&format!(" simd={name}")), "{forced}");
        let parsed: CaseSpec = forced.to_string().parse().unwrap();
        assert_eq!(parsed, forced);
        assert_eq!(shrink_case(&forced, |_| true).simd, None, "tier must shrink away");
    }
    // Legacy strings parse with the tier defaulting to auto-detect;
    // an unknown tier is rejected, not defaulted.
    let legacy = "seed=7 rate=2/3 frame=short ebn0=2.4 q=6 arith=lut iters=6 early=true";
    assert_eq!(legacy.parse::<CaseSpec>().unwrap().simd, None);
    assert_eq!(
        format!("{legacy} simd=avx2").parse::<CaseSpec>().unwrap().simd,
        Some(SimdTier::Avx2)
    );
    assert!(format!("{legacy} simd=sse2").parse::<CaseSpec>().is_err(), "unknown tier");
}

#[test]
fn shrinker_reduces_a_scenario_one_dimension_at_a_time() {
    // A failure that only needs one permanent stuck word must shrink a
    // three-part scenario down to exactly that fault.
    let start = CaseSpec {
        fault: FaultScenario::none()
            .with_ram(TimedRamFault {
                fault: RamFault::StuckWord { word: 5, value: -9 },
                activation: FaultActivation::Window { from: 0, until: 9 },
            })
            .with_ram(TimedRamFault::permanent(RamFault::FlippedBits { word: 80, mask: 6 }))
            .with_fu(Some(FuFault::StuckMag { unit: 12, value: 3 })),
        ..CaseSpec::generate(7, 3)
    };
    let shrunk = shrink_case(&start, |c| {
        c.fault.ram_faults().any(|t| matches!(t.fault, RamFault::StuckWord { word: 5, .. }))
    });
    assert_eq!(shrunk.fault.fu_fault(), None, "FU fault must shrink away");
    assert_eq!(shrunk.fault.ram_fault_count(), 1, "second RAM fault must shrink away");
    let kept = shrunk.fault.ram_faults().next().unwrap();
    assert_eq!(kept.activation, FaultActivation::Permanent, "activation must simplify");
    assert_eq!(kept.fault, RamFault::StuckWord { word: 5, value: 0 }, "value must shrink");
}

#[test]
fn qpsk_demapper_path_matches_bpsk_per_dimension() {
    // QPSK maps and demaps per real dimension exactly like BPSK (same
    // ±1 samples, same noise sigma, same exact 2y/σ² LLR), so the same
    // RNG stream must yield the identical transmitted frame — and that
    // frame must decode through the standard chain.
    let system = Dvbs2System::new(SystemConfig {
        rate: CodeRate::R1_2,
        frame: FrameSize::Short,
        ..SystemConfig::default()
    })
    .unwrap();
    let mk = |modulation| {
        let mut rng = SmallRng::seed_from_u64(0x9A57);
        system.transmit_frame_with(&mut rng, 3.0, modulation)
    };
    let qpsk = mk(Modulation::Qpsk);
    assert_eq!(qpsk, mk(Modulation::Bpsk), "QPSK and BPSK paths must agree per dimension");
    let out = system.make_decoder().decode(&qpsk.llrs);
    assert_eq!(out.bits, qpsk.codeword, "QPSK frame must decode at 3 dB");
}
