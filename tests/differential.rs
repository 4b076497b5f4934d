//! Bounded differential-oracle suite: a fixed-seed slice of the `diff_fuzz`
//! sweep small enough for every CI run, plus unit coverage of the case
//! generator, the repro-string round-trip, the fault-injection suite and
//! the failure shrinker.

use dvbs2::channel::Modulation;
use dvbs2::hardware::{
    FaultActivation, FaultScenario, FuFault, MemoryConfig, RamFault, TimedRamFault,
};
use dvbs2::ldpc::{CodeRate, FrameSize};
use dvbs2::oracle::{
    run_case, run_fault_suite, shrink_case, ArithmeticKind, CaseSpec, OracleConfig, ScheduleKind,
    Sweep,
};

#[test]
fn bounded_sweep_is_clean() {
    // A fixed 48-case budget keeps this under CI timescales while touching
    // both frame sizes and most rates; the full 500-case budget runs in the
    // dedicated diff_fuzz CI job.
    let report = Sweep::Matrix.run(&OracleConfig { master_seed: 0xD1FF, cases: 48, threads: 4 });
    assert_eq!(report.cases, 48);
    assert!(report.rates_covered.len() >= 6, "rates: {:?}", report.rates_covered);
    assert_eq!(report.frames_covered.len(), 2, "both frame sizes");
    assert!(
        report.clean(),
        "contract violations:\n{}",
        report.violations.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn generator_is_deterministic_and_varied() {
    let a: Vec<CaseSpec> = (0..64).map(|i| CaseSpec::generate(7, i)).collect();
    let b: Vec<CaseSpec> = (0..64).map(|i| CaseSpec::generate(7, i)).collect();
    assert_eq!(a, b, "same master seed, same cases");
    let c = CaseSpec::generate(8, 0);
    assert_ne!(a[0], c, "different master seed, different cases");
    for (master, pins) in GENERATOR_PINS {
        for (index, pin) in pins.iter().enumerate() {
            let case = CaseSpec::generate(master, index as u64);
            assert_eq!(case.to_string(), *pin, "generate({master:#x}, {index}) moved");
        }
    }
    // R 9/10 must only be drawn at Normal frames.
    for case in &a {
        assert!(
            case.frame == FrameSize::Normal || case.rate != CodeRate::R9_10,
            "{case}: R9/10 has no Short variant"
        );
    }
    // Both convergence regimes appear.
    assert!(a.iter().any(|case| case.early_stop) && a.iter().any(|case| !case.early_stop));
    // Both schedule kinds and several memory configurations appear, but
    // annealed schedules stay off the expensive Normal frames.
    assert!(a.iter().any(|case| case.schedule == ScheduleKind::Annealed));
    assert!(a.iter().any(|case| case.schedule == ScheduleKind::Natural));
    for case in &a {
        assert!(
            case.frame == FrameSize::Short || case.schedule == ScheduleKind::Natural,
            "{case}: annealing a Normal frame would dominate the run"
        );
    }
    assert!(a.iter().any(|case| case.memory != MemoryConfig::default()));
    assert!(
        a.iter().map(|case| case.memory.banks).collect::<std::collections::HashSet<_>>().len() > 1
    );
    // The new dimensions are all exercised: several I/O widths (so the
    // io_cycles contract sees more than the paper default), interleaved
    // 8PSK frames, and injected RAM faults of both kinds.
    assert!(
        a.iter().map(|case| case.p_io).collect::<std::collections::HashSet<_>>().len() > 2,
        "p_io must vary"
    );
    assert!(a.iter().any(|case| case.p_io == 10), "the paper default stays in the mix");
    assert!(a.iter().any(|case| case.modulation == Modulation::Psk8));
    assert!(a.iter().any(|case| case.modulation == Modulation::Bpsk));
    let ram_kind = |case: &CaseSpec, stuck: bool| {
        case.fault.ram_faults().any(|t| matches!(t.fault, RamFault::StuckWord { .. }) == stuck)
    };
    assert!(a.iter().any(|case| ram_kind(case, true)));
    assert!(a.iter().any(|case| ram_kind(case, false)));
    assert!(a.iter().any(|case| case.fault.is_empty()));
    // The PR-7 scenario dimensions all appear: non-permanent activations,
    // multi-fault cases, and FU datapath faults.
    assert!(a
        .iter()
        .any(|case| case.fault.ram_faults().any(|t| t.activation != FaultActivation::Permanent)));
    assert!(a.iter().any(|case| case.fault.ram_fault_count() > 1));
    assert!(a.iter().any(|case| case.fault.fu_fault().is_some()));
    // The fabric dimension is drawn often enough to matter, single-core
    // cases stay in the mix, and Normal frames cap at two cores.
    assert!(a.iter().any(|case| case.fabric > 1), "multi-core fabric cases must appear");
    assert!(a.iter().any(|case| case.fabric == 1), "single-core cases must stay in the mix");
    for case in &a {
        assert!(
            case.frame == FrameSize::Short || case.fabric <= 2,
            "{case}: Normal-frame fabrics cap at two cores"
        );
    }
}

#[test]
fn repro_string_round_trips() {
    for index in 0..32 {
        let case = CaseSpec::generate(0xABCD, index);
        let text = case.to_string();
        let parsed: CaseSpec = text.parse().unwrap_or_else(|e| panic!("{text}: {e}"));
        assert_eq!(parsed, case, "{text}");
    }
    assert!("seed=1 rate=7/8 frame=short".parse::<CaseSpec>().is_err(), "unknown rate");
    assert!("not a spec".parse::<CaseSpec>().is_err());

    // Repro strings recorded before the schedule/memory dimensions existed
    // must still parse, defaulting to the natural schedule and the paper
    // memory configuration.
    let legacy = "seed=7 rate=2/3 frame=short ebn0=2.4 q=6 arith=msshift2 iters=6 early=true";
    let parsed: CaseSpec = legacy.parse().unwrap();
    assert_eq!(parsed.schedule, ScheduleKind::Natural);
    assert_eq!(parsed.memory, MemoryConfig::default());
    let full = format!("{legacy} sched=annealed mem=2x1x3");
    let parsed: CaseSpec = full.parse().unwrap();
    assert_eq!(parsed.schedule, ScheduleKind::Annealed);
    assert_eq!(parsed.memory, MemoryConfig { banks: 2, write_ports: 1, fu_latency: 3 });
    assert!(format!("{legacy} sched=zigzag").parse::<CaseSpec>().is_err(), "unknown schedule");
    assert!(format!("{legacy} mem=4x2").parse::<CaseSpec>().is_err(), "truncated memory");
}

#[test]
fn pre_pr4_repro_strings_still_parse() {
    // Pin: every repro-string shape that existed before the fault/pio/mod
    // dimensions must keep parsing, with the new fields at their defaults.
    let shapes = [
        "seed=7 rate=2/3 frame=short ebn0=2.4 q=6 arith=msshift2 iters=6 early=true",
        "seed=7 rate=2/3 frame=short ebn0=2.4 q=6 arith=lut iters=6 early=false sched=annealed",
        "seed=12 rate=1/4 frame=normal ebn0=0.8 q=5 arith=msshift1 iters=3 early=true \
         sched=natural mem=2x1x3",
        "seed=0 rate=9/10 frame=normal ebn0=4.4 q=6 arith=msshift3 iters=2 early=true \
         sched=natural mem=8x2x4",
    ];
    for text in shapes {
        let parsed: CaseSpec = text.parse().unwrap_or_else(|e| panic!("{text}: {e}"));
        assert_eq!(parsed.p_io, 10, "{text}: p_io defaults to the paper value");
        assert_eq!(parsed.modulation, Modulation::Bpsk, "{text}: modulation defaults to BPSK");
        assert!(parsed.fault.is_empty(), "{text}: no fault by default");
    }
}

#[test]
fn fault_and_pio_keys_round_trip() {
    // Property-style round trip over the new keys: every generated case —
    // and hand-built corner cases for both fault kinds — must survive
    // Display -> FromStr unchanged.
    let mut faulted = 0;
    for index in 0..64 {
        let case = CaseSpec::generate(0xFA17, index);
        let text = case.to_string();
        let parsed: CaseSpec = text.parse().unwrap_or_else(|e| panic!("{text}: {e}"));
        assert_eq!(parsed, case, "{text}");
        if !case.fault.is_empty() {
            faulted += 1;
            assert!(text.contains("fault="), "{text}: fault must be spelled out");
        } else {
            assert!(!text.contains("fault="), "{text}: healthy cases omit the key");
        }
    }
    assert!(faulted > 4, "the generator must draw faults often enough to matter");

    let base = CaseSpec {
        seed: 3,
        rate: CodeRate::R1_2,
        frame: FrameSize::Short,
        ebn0_db: 1.4,
        quantizer_bits: 6,
        arithmetic: ArithmeticKind::Lut,
        max_iterations: 4,
        early_stop: true,
        schedule: ScheduleKind::Natural,
        memory: MemoryConfig::default(),
        p_io: 16,
        modulation: Modulation::Psk8,
        fault: FaultScenario::single(RamFault::StuckWord { word: 9, value: -31 }),
        fabric: 1,
        simd: None,
    };
    for fault in [
        FaultScenario::none(),
        FaultScenario::single(RamFault::StuckWord { word: 0, value: 0 }),
        FaultScenario::single(RamFault::StuckWord { word: 123, value: 31 }),
        FaultScenario::single(RamFault::FlippedBits { word: 7, mask: 1 }),
        FaultScenario::single(RamFault::FlippedBits { word: 500, mask: 0b11111 }),
        // Extended PR-7 atoms: windowed and random activations, multi-fault
        // scenarios, and FU faults must survive the round trip too.
        FaultScenario::none().with_ram(TimedRamFault {
            fault: RamFault::StuckWord { word: 11, value: -7 },
            activation: FaultActivation::Window { from: 2, until: 5 },
        }),
        FaultScenario::none().with_ram(TimedRamFault {
            fault: RamFault::FlippedBits { word: 3, mask: 0b101 },
            activation: FaultActivation::Random { seed: 0xC0FFEE, per_mille: 250 },
        }),
        FaultScenario::single(RamFault::StuckWord { word: 1, value: 4 })
            .with_ram(TimedRamFault::permanent(RamFault::FlippedBits { word: 90, mask: 2 }))
            .with_fu(Some(FuFault::StuckSign { unit: 42, negative: true })),
        FaultScenario::none().with_fu(Some(FuFault::StuckMag { unit: 359, value: 31 })),
    ] {
        let case = CaseSpec { fault, ..base };
        let text = case.to_string();
        assert_eq!(text.parse::<CaseSpec>().unwrap(), case, "{text}");
    }
    // Explicit `fault=none` and the three modulation spellings parse too.
    let legacy = "seed=7 rate=2/3 frame=short ebn0=2.4 q=6 arith=lut iters=6 early=true";
    assert!(format!("{legacy} fault=none").parse::<CaseSpec>().unwrap().fault.is_empty());
    for (name, modulation) in
        [("bpsk", Modulation::Bpsk), ("qpsk", Modulation::Qpsk), ("8psk", Modulation::Psk8)]
    {
        let parsed = format!("{legacy} mod={name}").parse::<CaseSpec>().unwrap();
        assert_eq!(parsed.modulation, modulation, "{name}");
    }
    // Malformed values are rejected, not defaulted.
    assert!(format!("{legacy} pio=0").parse::<CaseSpec>().is_err(), "zero p_io");
    assert!(format!("{legacy} mod=16qam").parse::<CaseSpec>().is_err(), "unknown modulation");
    assert!(format!("{legacy} fault=stuck@3").parse::<CaseSpec>().is_err(), "missing value");
    assert!(format!("{legacy} fault=melt@3:1").parse::<CaseSpec>().is_err(), "unknown kind");
}

#[test]
fn single_case_replay_is_clean_and_deterministic() {
    let case = CaseSpec {
        seed: 99,
        rate: CodeRate::R1_2,
        frame: FrameSize::Short,
        ebn0_db: 2.2,
        quantizer_bits: 6,
        arithmetic: ArithmeticKind::MinSumShift(2),
        max_iterations: 6,
        early_stop: true,
        schedule: ScheduleKind::Natural,
        memory: MemoryConfig::default(),
        p_io: 10,
        modulation: Modulation::Bpsk,
        fault: FaultScenario::none(),
        fabric: 1,
        simd: None,
    };
    assert!(run_case(0, &case).clean());
    assert!(run_case(0, &case).clean(), "replay must be stable");
    // The timing contracts must also hold off the paper's operating point:
    // an annealed schedule on a starved memory subsystem with a narrow I/O
    // port, on an interleaved 8PSK frame.
    let stressed = CaseSpec {
        schedule: ScheduleKind::Annealed,
        memory: MemoryConfig { banks: 2, write_ports: 1, fu_latency: 3 },
        p_io: 4,
        modulation: Modulation::Psk8,
        ebn0_db: case.ebn0_db + 2.0,
        ..case
    };
    let report = run_case(0, &stressed);
    assert!(report.clean(), "annealed/starved case: {:?}", report.violations);
    // And with a RAM fault: the faulted core must track the faulted golden
    // model bit for bit while the healthy decoders keep their contracts.
    let faulted = CaseSpec {
        fault: FaultScenario::single(RamFault::StuckWord { word: 5, value: 31 }),
        ..case
    };
    let report = run_case(0, &faulted);
    assert!(report.clean(), "faulted case: {:?}", report.violations);
    // And through a three-core fabric: every frame must stay bit-exact
    // against the single core, faulted or not, and the cycle contracts
    // must hold under bus contention.
    let fabric = CaseSpec { fabric: 3, ..case };
    let report = run_case(0, &fabric);
    assert!(report.clean(), "fabric case: {:?}", report.violations);
    let fabric_faulted = CaseSpec { fabric: 3, ..faulted };
    let report = run_case(0, &fabric_faulted);
    assert!(report.clean(), "faulted fabric case: {:?}", report.violations);
}

#[test]
fn bounded_fabric_sweep_is_clean() {
    // Every case runs the multi-core fabric cross-check (odd indices with a
    // forced fault scenario on top); the full >=1000-case budget runs in
    // the fabric-scaling CI job.
    let report = Sweep::Fabric.run(&OracleConfig { master_seed: 0xFAB, cases: 12, threads: 4 });
    assert_eq!(report.cases, 12);
    assert!(
        report.clean(),
        "fabric-sweep violations:\n{}",
        report.violations.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn bounded_fault_differential_is_clean() {
    // Every case carries a RAM fault; the faulted core must stay bit-exact
    // (decisions and message digests) against the equally-faulted golden
    // model. The full >=500-case budget runs in the diff_fuzz CI job.
    let report = Sweep::Fault.run(&OracleConfig { master_seed: 0xFA17, cases: 12, threads: 4 });
    assert_eq!(report.cases, 12);
    assert!(
        report.clean(),
        "fault-differential violations:\n{}",
        report.violations.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn partition_sweep_covers_all_rates_bit_exactly() {
    // The boundary-exact contract across all 11 Normal-frame rates.
    let report = Sweep::Partition.run(&OracleConfig { master_seed: 0xB17, cases: 0, threads: 4 });
    assert_eq!(report.cases, 42, "21 code points x 2 operating points");
    assert_eq!(report.rates_covered.len(), CodeRate::ALL.len());
    assert!(report.evaluated.contains(&"simd-partitioned-bitexact"), "{:?}", report.evaluated);
    assert!(
        report.clean(),
        "partition violations:\n{}",
        report.violations.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn fault_suite_degrades_gracefully() {
    let report = run_fault_suite(CodeRate::R1_2, FrameSize::Short, 0xFA);
    assert_eq!(report.cases, 12, "10 fault scenarios + 2 degenerate frames");
    assert!(
        report.clean(),
        "fault violations:\n{}",
        report.violations.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn shrinker_minimizes_while_preserving_failure() {
    let failing = CaseSpec {
        seed: 5,
        rate: CodeRate::R2_3,
        frame: FrameSize::Normal,
        ebn0_db: 2.4,
        quantizer_bits: 5,
        arithmetic: ArithmeticKind::MinSumShift(3),
        max_iterations: 24,
        early_stop: true,
        schedule: ScheduleKind::Annealed,
        memory: MemoryConfig { banks: 8, write_ports: 2, fu_latency: 4 },
        p_io: 16,
        modulation: Modulation::Psk8,
        fault: FaultScenario::single(RamFault::FlippedBits { word: 42, mask: 0b1101 })
            .with_fu(Some(FuFault::StuckSign { unit: 7, negative: false })),
        fabric: 4,
        simd: None,
    };
    // Synthetic predicate: the "bug" needs at least 3 iterations and the
    // min-sum arithmetic; everything else is shrinkable noise.
    let still_fails = |c: &CaseSpec| {
        c.max_iterations >= 3 && matches!(c.arithmetic, ArithmeticKind::MinSumShift(_))
    };
    let shrunk = shrink_case(&failing, still_fails);
    assert!(still_fails(&shrunk), "shrinking must preserve the failure");
    assert_eq!(shrunk.max_iterations, 3, "iterations minimized");
    assert_eq!(shrunk.frame, FrameSize::Short, "frame demoted");
    assert_eq!(shrunk.quantizer_bits, 6, "quantizer normalized");
    assert!(!shrunk.early_stop, "early stop removed");
    assert_eq!(shrunk.schedule, ScheduleKind::Natural, "schedule normalized");
    assert_eq!(shrunk.memory, MemoryConfig::default(), "memory normalized");
    assert_eq!(shrunk.p_io, 10, "I/O width normalized");
    assert_eq!(shrunk.modulation, Modulation::Bpsk, "modulation normalized");
    assert!(shrunk.fault.is_empty(), "fault removed");
    assert_eq!(shrunk.fabric, 1, "fabric dimension dropped");
    assert_eq!((shrunk.seed, shrunk.rate), (failing.seed, failing.rate), "identity preserved");
    assert_eq!(shrunk.arithmetic, failing.arithmetic);

    // A fault-dependent bug keeps a fault but simplifies it: the flipped
    // mask shrinks to a single bit at the same word.
    let fault_bug = |c: &CaseSpec| !c.fault.is_empty();
    let kept = shrink_case(&failing, fault_bug);
    assert_eq!(kept.fault, FaultScenario::single(RamFault::FlippedBits { word: 42, mask: 1 }));
    let stuck = CaseSpec {
        fault: FaultScenario::single(RamFault::StuckWord { word: 9, value: -17 }),
        ..failing
    };
    let kept = shrink_case(&stuck, fault_bug);
    assert_eq!(kept.fault, FaultScenario::single(RamFault::StuckWord { word: 9, value: 0 }));
    // A bug that needs the FU fault keeps it while the RAM fault is dropped.
    let fu_bug = |c: &CaseSpec| c.fault.fu_fault().is_some();
    let kept = shrink_case(&failing, fu_bug);
    assert_eq!(kept.fault.ram_fault_count(), 0, "RAM fault dropped");
    assert_eq!(kept.fault.fu_fault(), Some(FuFault::StuckSign { unit: 7, negative: false }));

    // A predicate that always fails shrinks to the floor everywhere.
    let floor = shrink_case(&failing, |_| true);
    assert_eq!(floor.max_iterations, 1);
    assert!(floor.fault.is_empty());

    // A predicate nothing satisfies returns the original case untouched.
    let untouched = shrink_case(&failing, |_| false);
    assert_eq!(untouched, failing);
}

#[test]
fn every_sweep_violation_replays_through_run_case() {
    // A violation must replay: on cases drawn from each sweep's own source,
    // `run_case` (the `--repro` path) evaluates a superset of the contracts
    // that sweep's class set evaluates. The forced-fault cases carry min-sum
    // arithmetic and a fault, the two conditions under which `run_case` used
    // to skip the lane path. Partition indices 22/23 are the first
    // Short-frame point's two operating points.
    let mut every: Vec<&'static str> = Vec::new();
    for (sweep, indices, pinned) in [
        (Sweep::Matrix, [0, 2], "converged-syndrome"),
        (Sweep::Fault, [0, 1], "simd-fused-bitexact"),
        (Sweep::Fabric, [0, 1], "fabric-hw-bitexact"),
        (Sweep::Partition, [22, 23], "golden-partitioned-bitexact"),
    ] {
        for index in indices {
            let case = sweep.case(0xD1FF, index);
            let (swept, replayed) = (sweep.replay(index, &case), run_case(index, &case));
            assert!(swept.clean() && replayed.clean(), "{sweep:?} {case}");
            assert!(swept.evaluated.contains(&pinned), "{sweep:?} {case}: {:?}", swept.evaluated);
            let skipped: Vec<_> =
                swept.evaluated.iter().filter(|c| !replayed.evaluated.contains(c)).collect();
            assert!(skipped.is_empty(), "{sweep:?} {case}: run_case skips {skipped:?}");
            every.extend(replayed.evaluated);
        }
    }
    // With one clear-sky fabric case on top (every decoder converges, bit
    // flipping included, so no contract is vacuous), the replays evaluate
    // all 27 contracts: none has dropped out of the runner.
    let clear = "seed=0 rate=1/2 frame=short ebn0=9 q=6 arith=lut iters=6 early=true fabric=2";
    let replayed = run_case(0, &clear.parse().unwrap());
    assert!(replayed.clean(), "{:?}", replayed.violations);
    every.extend(replayed.evaluated);
    every.sort_unstable();
    every.dedup();
    assert_eq!(every.len(), 27, "{every:?}");
}

/// `Display` strings of `CaseSpec::generate(master, 0..22)` under the three
/// CI master seeds, recorded at the commit before the oracle was split
/// (PR 14): the mapping from `(master_seed, index)` to a case is what every
/// recorded repro string and every CI seed relies on, so it is pinned by
/// value, not just for self-consistency.
const GENERATOR_PINS: [(u64, [&str; 22]); 3] = [
    (
        0xD1FF,
        [
            "seed=8053295526253120706 rate=2/3 frame=short ebn0=2.4 q=6 arith=msshift2 iters=6 early=true sched=annealed mem=8x2x4 pio=7 mod=bpsk fault=flip@813:4~p157:4177001907",
            "seed=15076294668500734252 rate=3/5 frame=short ebn0=5.5 q=6 arith=msshift1 iters=6 early=true sched=natural mem=4x2x8 pio=7 mod=8psk fault=stuck@862:14~1..5,flip@294:18",
            "seed=8241392703044202254 rate=5/6 frame=short ebn0=5.1 q=6 arith=msshift3 iters=7 early=true sched=natural mem=8x2x4 pio=10 mod=bpsk fabric=4",
            "seed=2164607830856871070 rate=8/9 frame=short ebn0=5.800000000000001 q=5 arith=msshift2 iters=8 early=true sched=natural mem=4x2x8 pio=16 mod=bpsk",
            "seed=14168939110304349515 rate=4/5 frame=short ebn0=4.800000000000001 q=6 arith=msshift3 iters=4 early=true sched=annealed mem=2x1x3 pio=16 mod=8psk fabric=2 fault=stuck@1012:-22,stuck@847:-14,fumag@221:4",
            "seed=17804197603204346679 rate=1/3 frame=short ebn0=1.5 q=6 arith=msshift2 iters=7 early=true sched=annealed mem=4x2x8 pio=16 mod=bpsk fault=fusign@80:+",
            "seed=7099570452453696584 rate=8/9 frame=short ebn0=3.8000000000000003 q=6 arith=msshift2 iters=8 early=true sched=natural mem=4x2x8 pio=7 mod=bpsk",
            "seed=17079923797764471242 rate=5/6 frame=normal ebn0=12.1 q=6 arith=msshift3 iters=3 early=false sched=natural mem=4x2x8 pio=10 mod=32apsk",
            "seed=16439209690124715235 rate=4/5 frame=short ebn0=4.800000000000001 q=6 arith=msshift1 iters=4 early=true sched=natural mem=2x1x3 pio=16 mod=qpsk fault=stuck@663:-20",
            "seed=14383907588614273686 rate=5/6 frame=short ebn0=10.1 q=6 arith=msshift1 iters=6 early=true sched=annealed mem=4x2x8 pio=4 mod=32apsk fabric=4 fault=fusign@139:+",
            "seed=2809197573041445242 rate=5/6 frame=short ebn0=3.5 q=6 arith=msshift2 iters=8 early=false sched=annealed mem=4x2x8 pio=16 mod=qpsk fabric=4 fault=fumag@161:3",
            "seed=17331775726936348701 rate=8/9 frame=short ebn0=12.8 q=6 arith=msshift2 iters=7 early=false sched=annealed mem=4x2x5 pio=10 mod=32apsk fabric=2",
            "seed=6021263321231975562 rate=3/5 frame=short ebn0=4.5 q=6 arith=msshift3 iters=6 early=true sched=annealed mem=8x2x4 pio=10 mod=8psk",
            "seed=8203748978927911710 rate=4/5 frame=short ebn0=2.8000000000000003 q=6 arith=msshift3 iters=5 early=true sched=natural mem=8x2x4 pio=7 mod=qpsk",
            "seed=5701188131412713728 rate=2/5 frame=short ebn0=3.6 q=6 arith=msshift2 iters=5 early=true sched=natural mem=4x2x8 pio=4 mod=8psk",
            "seed=16950918744377045807 rate=8/9 frame=normal ebn0=10.8 q=6 arith=msshift2 iters=4 early=true sched=natural mem=4x2x5 pio=7 mod=32apsk fabric=2",
            "seed=16929943480204126112 rate=8/9 frame=short ebn0=4.8 q=6 arith=msshift3 iters=7 early=false sched=annealed mem=4x2x8 pio=16 mod=bpsk",
            "seed=18384822644613871804 rate=8/9 frame=short ebn0=3.8000000000000003 q=6 arith=msshift1 iters=5 early=true sched=annealed mem=4x2x5 pio=16 mod=bpsk",
            "seed=12197673478653893961 rate=2/3 frame=short ebn0=9.4 q=6 arith=msshift1 iters=7 early=false sched=natural mem=2x1x3 pio=10 mod=32apsk",
            "seed=9866096989835886092 rate=2/5 frame=short ebn0=1 q=6 arith=msshift1 iters=6 early=true sched=annealed mem=2x1x3 pio=4 mod=bpsk fabric=4",
            "seed=6178832897607290555 rate=1/3 frame=short ebn0=1.5 q=6 arith=msshift2 iters=6 early=false sched=natural mem=2x1x3 pio=10 mod=qpsk",
            "seed=13688129387599289050 rate=4/5 frame=short ebn0=3.8000000000000003 q=5 arith=msshift3 iters=6 early=true sched=natural mem=4x2x5 pio=4 mod=qpsk",
        ],
    ),
    (
        0xD1FF ^ 0xFA17,
        [
            "seed=17110090581434354859 rate=5/6 frame=short ebn0=6.1 q=5 arith=msshift1 iters=6 early=true sched=natural mem=8x2x4 pio=4 mod=8psk fabric=4",
            "seed=14903989550558751781 rate=1/2 frame=short ebn0=4 q=5 arith=msshift3 iters=5 early=false sched=natural mem=8x2x4 pio=4 mod=8psk fabric=2 fault=fusign@150:+",
            "seed=12950360117063774443 rate=5/6 frame=short ebn0=3.5 q=6 arith=msshift1 iters=5 early=false sched=natural mem=2x1x3 pio=7 mod=bpsk fault=fumag@181:23",
            "seed=14178888921076046322 rate=8/9 frame=short ebn0=4.2 q=6 arith=msshift1 iters=8 early=true sched=natural mem=4x2x8 pio=7 mod=bpsk",
            "seed=7200862975094282628 rate=1/3 frame=short ebn0=0.5 q=6 arith=msshift1 iters=8 early=true sched=natural mem=8x2x4 pio=10 mod=bpsk fabric=3",
            "seed=3623727857873789427 rate=8/9 frame=short ebn0=10.3 q=6 arith=msshift1 iters=8 early=true sched=natural mem=8x2x4 pio=16 mod=16apsk",
            "seed=14126526208245428545 rate=1/2 frame=short ebn0=5.9 q=6 arith=msshift2 iters=7 early=false sched=annealed mem=4x2x5 pio=10 mod=16apsk",
            "seed=7334791592814449152 rate=8/9 frame=normal ebn0=8.7 q=6 arith=msshift1 iters=2 early=false sched=natural mem=2x1x3 pio=4 mod=16apsk fabric=2",
            "seed=15778767839405314518 rate=1/2 frame=short ebn0=0.9999999999999999 q=6 arith=msshift1 iters=8 early=false sched=natural mem=2x1x3 pio=16 mod=qpsk fault=flip@669:14~p220:1097829790,stuck@669:11",
            "seed=5653490840099815049 rate=2/3 frame=short ebn0=2 q=5 arith=msshift2 iters=5 early=true sched=natural mem=4x2x5 pio=16 mod=bpsk",
            "seed=6799284147286418782 rate=3/4 frame=short ebn0=11.4 q=5 arith=msshift1 iters=7 early=true sched=natural mem=4x2x8 pio=16 mod=32apsk",
            "seed=4730531025564556536 rate=8/9 frame=short ebn0=5.800000000000001 q=5 arith=msshift3 iters=8 early=true sched=natural mem=8x2x4 pio=10 mod=bpsk",
            "seed=16871105297196037215 rate=8/9 frame=short ebn0=10.8 q=6 arith=msshift2 iters=4 early=true sched=annealed mem=4x2x5 pio=7 mod=32apsk fabric=3 fault=flip@273:23,stuck@80:5",
            "seed=6337278183385051205 rate=1/3 frame=short ebn0=0.9 q=5 arith=msshift3 iters=5 early=true sched=natural mem=4x2x5 pio=4 mod=qpsk fault=fumag@233:17",
            "seed=4900342164865572708 rate=3/5 frame=short ebn0=4.5 q=6 arith=msshift3 iters=4 early=true sched=natural mem=4x2x8 pio=10 mod=8psk",
            "seed=16444884282195863821 rate=9/10 frame=normal ebn0=6.4 q=5 arith=msshift1 iters=3 early=true sched=natural mem=4x2x8 pio=10 mod=8psk fabric=2 fault=flip@254:27~p128:3398923601,flip@1:26",
            "seed=13230469828641833425 rate=2/5 frame=short ebn0=1 q=6 arith=msshift3 iters=4 early=true sched=natural mem=4x2x5 pio=16 mod=bpsk fabric=4",
            "seed=16991368270891164667 rate=1/2 frame=short ebn0=9 q=5 arith=msshift3 iters=5 early=true sched=natural mem=8x2x4 pio=4 mod=32apsk",
            "seed=6466277144424434461 rate=1/2 frame=short ebn0=0.9999999999999999 q=5 arith=msshift3 iters=6 early=true sched=annealed mem=4x2x5 pio=16 mod=qpsk",
            "seed=16343124944888286967 rate=8/9 frame=short ebn0=3.8000000000000003 q=6 arith=msshift3 iters=7 early=false sched=natural mem=4x2x8 pio=7 mod=qpsk fabric=2",
            "seed=1790860758715919398 rate=2/3 frame=short ebn0=6.5 q=5 arith=msshift3 iters=4 early=false sched=natural mem=8x2x4 pio=4 mod=16apsk fault=flip@425:31",
            "seed=12135552856858759580 rate=3/5 frame=short ebn0=2.5 q=6 arith=msshift3 iters=5 early=true sched=annealed mem=2x1x3 pio=7 mod=bpsk",
        ],
    ),
    (
        0xD1FF ^ 0xFAB0,
        [
            "seed=13846175951042856630 rate=8/9 frame=short ebn0=6.8 q=6 arith=msshift2 iters=8 early=true sched=natural mem=2x1x3 pio=10 mod=8psk",
            "seed=11172393494859791301 rate=3/5 frame=short ebn0=1.9 q=6 arith=msshift1 iters=7 early=true sched=natural mem=4x2x8 pio=7 mod=qpsk fabric=4 fault=flip@31:8",
            "seed=7679506569692687973 rate=2/3 frame=short ebn0=6 q=6 arith=msshift3 iters=5 early=true sched=natural mem=4x2x8 pio=7 mod=8psk fault=stuck@11:-31~2..5",
            "seed=2718253712993780455 rate=1/4 frame=short ebn0=0.8 q=5 arith=msshift1 iters=5 early=true sched=natural mem=2x1x3 pio=4 mod=bpsk fabric=2 fault=stuck@82:-7~p252:48039398,stuck@497:-1",
            "seed=9225430034663790968 rate=3/4 frame=short ebn0=6.4 q=6 arith=msshift1 iters=6 early=true sched=annealed mem=8x2x4 pio=7 mod=8psk fault=flip@856:8~2..5",
            "seed=1109567145403456801 rate=1/3 frame=short ebn0=7.5 q=6 arith=msshift3 iters=6 early=true sched=natural mem=2x1x3 pio=4 mod=32apsk fabric=2",
            "seed=12314994351187872754 rate=4/5 frame=short ebn0=5.2 q=6 arith=msshift1 iters=6 early=true sched=natural mem=4x2x5 pio=10 mod=8psk",
            "seed=8555056875317347458 rate=3/5 frame=normal ebn0=3.5 q=6 arith=msshift2 iters=3 early=true sched=natural mem=4x2x8 pio=4 mod=8psk fabric=2",
            "seed=7970280565260817569 rate=2/5 frame=short ebn0=2.6 q=6 arith=msshift2 iters=5 early=true sched=natural mem=4x2x8 pio=10 mod=qpsk fabric=2 fault=fumag@225:28",
            "seed=66782819186891574 rate=1/4 frame=short ebn0=5.3 q=5 arith=msshift1 iters=8 early=true sched=natural mem=8x2x4 pio=10 mod=16apsk fault=flip@965:25",
            "seed=14804185596651870067 rate=5/6 frame=short ebn0=5.5 q=6 arith=msshift1 iters=5 early=false sched=natural mem=4x2x8 pio=10 mod=8psk fault=flip@398:22~1..4,stuck@717:-13",
            "seed=9617623421245627544 rate=8/9 frame=short ebn0=6.8 q=6 arith=msshift1 iters=8 early=true sched=natural mem=4x2x8 pio=16 mod=8psk fabric=4 fault=fusign@169:-",
            "seed=7418207539485139816 rate=5/6 frame=short ebn0=5.1 q=6 arith=msshift3 iters=8 early=false sched=natural mem=8x2x4 pio=16 mod=qpsk fabric=3 fault=flip@81:7~0..2,flip@567:26",
            "seed=4234932883840778695 rate=4/5 frame=short ebn0=5.2 q=6 arith=msshift2 iters=6 early=true sched=natural mem=8x2x4 pio=16 mod=8psk",
            "seed=11368692423532580486 rate=1/2 frame=short ebn0=3 q=6 arith=msshift2 iters=7 early=true sched=natural mem=4x2x8 pio=10 mod=qpsk fabric=4",
            "seed=17347154636602463991 rate=9/10 frame=normal ebn0=6.4 q=6 arith=msshift1 iters=2 early=false sched=natural mem=8x2x4 pio=7 mod=8psk",
            "seed=17798628480454945534 rate=3/4 frame=short ebn0=9.4 q=6 arith=msshift2 iters=8 early=true sched=annealed mem=8x2x4 pio=7 mod=32apsk fault=stuck@856:3~2..5",
            "seed=11984207907731103489 rate=2/5 frame=short ebn0=1 q=6 arith=msshift1 iters=8 early=true sched=natural mem=4x2x8 pio=16 mod=qpsk fabric=3",
            "seed=16939995660919682274 rate=4/5 frame=short ebn0=7.300000000000001 q=6 arith=msshift2 iters=5 early=false sched=natural mem=4x2x8 pio=16 mod=16apsk fabric=3",
            "seed=4993715363049757634 rate=1/4 frame=short ebn0=2.4 q=6 arith=msshift3 iters=5 early=true sched=annealed mem=4x2x8 pio=4 mod=8psk",
            "seed=14586320805736626954 rate=3/5 frame=short ebn0=3.5 q=6 arith=msshift2 iters=6 early=true sched=natural mem=4x2x5 pio=7 mod=qpsk fabric=4 fault=stuck@248:-8~1..4",
            "seed=16371890804486830563 rate=4/5 frame=short ebn0=4.800000000000001 q=5 arith=msshift3 iters=8 early=true sched=natural mem=2x1x3 pio=16 mod=8psk fabric=4",
        ],
    ),
];
