//! Fault models for the decoder core and its golden model.
//!
//! The message RAM dominates the core's area (Table 3), which makes memory
//! upsets the dominant real-world failure mode; the functional-unit datapath
//! is the other physically plausible defect site. This module models both:
//!
//! * [`RamFault`] — a stuck or bit-flipping wide word in the message RAM;
//! * [`FaultActivation`] — when a RAM fault is active: permanently, during
//!   an iteration window (a transient burst), or per-commit with a seeded
//!   probability (random soft errors);
//! * [`FuFault`] — a stuck sign or magnitude lane in one functional unit's
//!   output port;
//! * [`FaultScenario`] — up to [`MAX_SCENARIO_FAULTS`] concurrent timed RAM
//!   faults plus an optional FU fault, injected as one unit into
//!   [`crate::HardwareDecoder`] and [`crate::GoldenModel`].
//!
//! # Bit-exactness under faults
//!
//! The differential oracle demands that an equally-faulted timed core and
//! golden model agree on every decision *and* every per-iteration message
//! digest. Corruption therefore keys on **logical commit coordinates**
//! ([`CommitPoint`]: iteration index and phase), never on physical cycle
//! numbers — the timed core commits writes in bank-arbitrated order that an
//! untimed model cannot reproduce, but each wide word commits exactly once
//! per phase per iteration on both models, so any pure function of
//! `(commit point, word, written data)` yields identical RAM images. The
//! initial all-zero fill is its own phase ([`CommitPhase::PowerOn`], at
//! iteration 0): a permanently stuck cell is stuck from power-on, while a
//! windowed transient only perturbs the fill if its window covers
//! iteration 0.
//!
//! All corrupted lanes are snapped back into the active [`Quantizer`]
//! domain, so a fault perturbs message values without ever leaving the
//! value domain a fault-free decode operates in.

use dvbs2_decoder::{FuWord, Quantizer};
use dvbs2_ldpc::PARALLELISM;

/// A modeled defect in the message RAM, for fault-injection testing (the
/// `dvbs2::oracle` differential suite asserts the core degrades gracefully —
/// wrong bits at worst, never a panic or hang).
///
/// Faults act at write-commit time: whenever the memory subsystem commits a
/// wide word to the RAM, the stored value is corrupted. The initial all-zero
/// RAM contents are corrupted too (a stuck cell is stuck from power-on).
/// Corrupted values are snapped into the quantizer's representable domain,
/// so the fault perturbs data without leaving the model's value domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RamFault {
    /// Every lane of wide word `word` reads back `value` regardless of what
    /// was written (a stuck word line).
    StuckWord {
        /// Faulty wide-word address.
        word: usize,
        /// The value every lane is stuck at.
        value: i32,
    },
    /// Every lane of wide word `word` has `mask` XORed onto it at each write
    /// commit (bit flips on the write path).
    FlippedBits {
        /// Faulty wide-word address.
        word: usize,
        /// Bit mask XORed onto each lane's stored value.
        mask: i32,
    },
}

impl RamFault {
    /// The faulty wide-word address.
    pub fn word(&self) -> usize {
        match *self {
            RamFault::StuckWord { word, .. } | RamFault::FlippedBits { word, .. } => word,
        }
    }

    /// Corrupts the stored lanes of the faulty word, snapping every
    /// corrupted lane onto the quantizer's representable grid (for the
    /// uniform quantizer this is saturation at `±max_mag`; routing through
    /// the [`Quantizer`] makes the domain invariant explicit instead of an
    /// accident of mirrored clamping).
    ///
    /// The lanes are the word of the image the commit lands in: `i16` in
    /// the information image, which holds any quantizer (at most 16 bits),
    /// and `i8` in the core's check image where the `i8` lanes hold the
    /// quantizer. The lane is corrupted as the `i32` it widens to and the
    /// snapped result narrowed back, which is exact: it lies in
    /// `±max_mag`, inside the word.
    pub(crate) fn corrupt<W: FuWord>(&self, lanes: &mut [W], quantizer: &Quantizer) {
        match *self {
            RamFault::StuckWord { value, .. } => lanes.fill(W::narrow(quantizer.saturate(value))),
            RamFault::FlippedBits { mask, .. } => {
                for lane in lanes {
                    *lane = W::narrow(quantizer.saturate(i32::from(lane.widen()) ^ mask));
                }
            }
        }
    }
}

/// The phase a write commit belongs to. Together with the iteration index
/// this forms the logical coordinate system fault activation keys on (see
/// the module docs for why physical cycles cannot be used).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitPhase {
    /// The initial RAM fill before the first iteration.
    PowerOn,
    /// An information-phase (variable-node) write-back.
    Info,
    /// A check-phase write-back.
    Check,
}

impl CommitPhase {
    fn code(self) -> u64 {
        match self {
            CommitPhase::PowerOn => 0,
            CommitPhase::Info => 1,
            CommitPhase::Check => 2,
        }
    }
}

/// Logical coordinates of one write commit: which iteration and phase it
/// belongs to. Identical on the timed core and the golden model for the same
/// word, which is what makes transient faults bit-exact across both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitPoint {
    /// Decode iteration, counted from 0. The power-on fill is iteration 0.
    pub iteration: u32,
    /// The phase within the iteration.
    pub phase: CommitPhase,
}

impl CommitPoint {
    /// The initial RAM fill.
    pub fn power_on() -> Self {
        CommitPoint { iteration: 0, phase: CommitPhase::PowerOn }
    }
}

/// When a RAM fault corrupts commits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultActivation {
    /// Active at every commit including the power-on fill — the pre-existing
    /// "stuck forever" behavior.
    #[default]
    Permanent,
    /// Active while `from <= iteration < until` (a transient burst). The
    /// power-on fill counts as iteration 0, so a window starting at 0 also
    /// corrupts the initial RAM contents.
    Window {
        /// First faulty iteration.
        from: u32,
        /// One past the last faulty iteration.
        until: u32,
    },
    /// Active at each individual commit with probability `per_mille / 1000`,
    /// decided by a seeded hash of the commit coordinates — deterministic,
    /// and identical on the timed and untimed models.
    Random {
        /// Hash seed; different seeds give independent upset patterns.
        seed: u32,
        /// Upset probability in 1/1000 units (values above 1000 saturate to
        /// "always").
        per_mille: u32,
    },
}

/// SplitMix64 finalizer — cheap, well-mixed, and dependency-free.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl FaultActivation {
    /// Whether the fault corrupts a commit of `word` at `point`.
    pub fn is_active(&self, point: CommitPoint, word: usize) -> bool {
        match *self {
            FaultActivation::Permanent => true,
            FaultActivation::Window { from, until } => {
                from <= point.iteration && point.iteration < until
            }
            FaultActivation::Random { seed, per_mille } => {
                let h =
                    mix(mix(seed as u64 ^ ((point.iteration as u64) << 2) ^ point.phase.code())
                        ^ word as u64);
                h % 1000 < per_mille as u64
            }
        }
    }
}

/// One RAM fault paired with its activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedRamFault {
    /// The defect.
    pub fault: RamFault,
    /// When it corrupts commits.
    pub activation: FaultActivation,
}

impl TimedRamFault {
    /// A permanently active fault (the pre-existing single-fault semantics).
    pub fn permanent(fault: RamFault) -> Self {
        TimedRamFault { fault, activation: FaultActivation::Permanent }
    }
}

/// A stuck lane in one functional unit's output datapath. Applied to every
/// extrinsic output the unit produces (information-phase variable-node
/// outputs and check-phase outputs including the zigzag parity messages),
/// identically on both models — the FU array is shared, so bit-exactness
/// holds by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuFault {
    /// The unit's output sign bit is stuck: every output is forced to the
    /// given sign (magnitude preserved).
    StuckSign {
        /// Faulty functional unit, `0..360`.
        unit: usize,
        /// `true` forces negative outputs, `false` positive.
        negative: bool,
    },
    /// The unit's output magnitude lanes are stuck at `value` (sign
    /// preserved; zero outputs count as positive).
    StuckMag {
        /// Faulty functional unit, `0..360`.
        unit: usize,
        /// The stuck magnitude (snapped into the quantizer domain).
        value: i32,
    },
}

impl FuFault {
    /// The faulty functional unit index.
    pub fn unit(&self) -> usize {
        match *self {
            FuFault::StuckSign { unit, .. } | FuFault::StuckMag { unit, .. } => unit,
        }
    }

    /// Corrupts one output value of the faulty unit.
    pub(crate) fn corrupt(&self, v: i32, quantizer: &Quantizer) -> i32 {
        match *self {
            FuFault::StuckSign { negative, .. } => {
                if negative {
                    -v.abs()
                } else {
                    v.abs()
                }
            }
            FuFault::StuckMag { value, .. } => {
                let mag = quantizer.saturate(value.abs());
                if v < 0 {
                    -mag
                } else {
                    mag
                }
            }
        }
    }
}

/// Maximum number of concurrent RAM faults in a [`FaultScenario`].
///
/// The bound keeps the scenario `Copy` (the oracle's `CaseSpec` and its
/// shrinker rely on by-value case structs) and is far beyond what a
/// plausible physical defect pattern needs.
pub const MAX_SCENARIO_FAULTS: usize = 4;

/// A complete fault-injection scenario: up to [`MAX_SCENARIO_FAULTS`]
/// concurrent RAM faults, each with its own activation, plus at most one
/// functional-unit datapath fault.
///
/// The empty (default) scenario injects nothing and decodes bit-identically
/// to a fault-free core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultScenario {
    ram: [Option<TimedRamFault>; MAX_SCENARIO_FAULTS],
    fu: Option<FuFault>,
}

impl FaultScenario {
    /// The empty scenario (no faults).
    pub fn none() -> Self {
        FaultScenario::default()
    }

    /// A scenario holding one permanent RAM fault.
    pub fn single(fault: RamFault) -> Self {
        let mut s = FaultScenario::default();
        s.ram[0] = Some(TimedRamFault::permanent(fault));
        s
    }

    /// Whether the scenario injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.ram.iter().all(Option::is_none) && self.fu.is_none()
    }

    /// Number of RAM faults in the scenario.
    pub fn ram_fault_count(&self) -> usize {
        self.ram.iter().flatten().count()
    }

    /// Appends a RAM fault. Returns `false` (scenario unchanged) if all
    /// [`MAX_SCENARIO_FAULTS`] slots are taken.
    pub fn push_ram(&mut self, fault: TimedRamFault) -> bool {
        for slot in &mut self.ram {
            if slot.is_none() {
                *slot = Some(fault);
                return true;
            }
        }
        false
    }

    /// Builder form of [`FaultScenario::push_ram`] (silently drops the fault
    /// when full — callers composing random scenarios saturate gracefully).
    pub fn with_ram(mut self, fault: TimedRamFault) -> Self {
        self.push_ram(fault);
        self
    }

    /// Sets (or clears) the functional-unit fault.
    pub fn set_fu(&mut self, fault: Option<FuFault>) {
        self.fu = fault;
    }

    /// Builder form of [`FaultScenario::set_fu`].
    pub fn with_fu(mut self, fault: Option<FuFault>) -> Self {
        self.fu = fault;
        self
    }

    /// The functional-unit fault, if any.
    pub fn fu_fault(&self) -> Option<FuFault> {
        self.fu
    }

    /// The RAM faults in application order.
    pub fn ram_faults(&self) -> impl Iterator<Item = &TimedRamFault> {
        self.ram.iter().flatten()
    }

    /// If the scenario is exactly one permanently active RAM fault (and no
    /// FU fault), that fault — the cases the pre-scenario API could express.
    pub fn as_single_permanent(&self) -> Option<RamFault> {
        if self.fu.is_some() || self.ram_fault_count() != 1 {
            return None;
        }
        match self.ram[0] {
            Some(TimedRamFault { fault, activation: FaultActivation::Permanent }) => Some(fault),
            _ => None,
        }
    }

    /// Validates fault addresses against a RAM of `words` wide words.
    ///
    /// # Panics
    ///
    /// Panics if any RAM fault's word is `>= words` or the FU fault's unit
    /// is `>= 360`.
    pub fn validate(&self, words: usize) {
        for t in self.ram_faults() {
            assert!(t.fault.word() < words, "fault word {} out of range", t.fault.word());
        }
        if let Some(f) = self.fu {
            assert!(f.unit() < PARALLELISM, "fault unit {} out of range", f.unit());
        }
    }

    /// Applies every RAM fault active at `point` that targets `word` to the
    /// freshly committed `lanes`, in scenario order.
    pub(crate) fn corrupt_word<W: FuWord>(
        &self,
        word: usize,
        lanes: &mut [W],
        quantizer: &Quantizer,
        point: CommitPoint,
    ) {
        for t in self.ram_faults() {
            if t.fault.word() == word && t.activation.is_active(point, word) {
                t.fault.corrupt(lanes, quantizer);
            }
        }
    }

    /// Applies the power-on corruption to the freshly zero-filled message
    /// RAM (`ram[word * 360 + lane]` layout).
    pub(crate) fn corrupt_power_on(&self, ram: &mut [i16], quantizer: &Quantizer) {
        let p = PARALLELISM;
        let point = CommitPoint::power_on();
        for t in self.ram_faults() {
            let w = t.fault.word();
            if t.activation.is_active(point, w) {
                t.fault.corrupt(&mut ram[w * p..(w + 1) * p], quantizer);
            }
        }
    }
}

impl From<RamFault> for FaultScenario {
    fn from(fault: RamFault) -> Self {
        FaultScenario::single(fault)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_lanes_stay_on_the_quantizer_grid() {
        // Property pin for the re-quantization bugfix: for every stuck value
        // and flip mask over an exhaustive domain window, every corrupted
        // lane must be a representable code of the active quantizer —
        // saturated in magnitude AND exactly reproducible through a
        // dequantize/quantize round trip (i.e. on the step grid).
        for quantizer in [Quantizer::paper_6bit(), Quantizer::paper_5bit(), Quantizer::new(4, 1.0)]
        {
            let max = quantizer.max_mag();
            let domain: Vec<i16> = (-max as i16..=max as i16).collect();
            for value in -70..=70 {
                let mut lanes = domain.clone();
                RamFault::StuckWord { word: 0, value }.corrupt(&mut lanes, &quantizer);
                for &v in &lanes {
                    let v = v as i32;
                    assert!(v.abs() <= max, "stuck {value} left domain: {v}");
                    assert_eq!(quantizer.quantize(quantizer.dequantize(v)), v);
                }
            }
            for mask in 0..=64 {
                let mut lanes = domain.clone();
                RamFault::FlippedBits { word: 0, mask }.corrupt(&mut lanes, &quantizer);
                for &v in &lanes {
                    let v = v as i32;
                    assert!(v.abs() <= max, "mask {mask} left domain: {v}");
                    assert_eq!(quantizer.quantize(quantizer.dequantize(v)), v);
                }
            }
        }
    }

    #[test]
    fn corrupt_matches_pre_scenario_clamp_semantics() {
        // Backward-compatibility pin: with the uniform quantizer every
        // integer in ±max_mag is on the grid, so snapping through the
        // quantizer must be value-identical to the historical bare clamp —
        // pre-PR-7 fault repro strings keep byte-identical behavior.
        let quantizer = Quantizer::paper_6bit();
        let max = quantizer.max_mag();
        for value in [-100, -32, -31, -1, 0, 1, 30, 31, 99] {
            let mut lanes = vec![5i16, -17, 31];
            RamFault::StuckWord { word: 0, value }.corrupt(&mut lanes, &quantizer);
            assert!(lanes.iter().all(|&v| v as i32 == value.clamp(-max, max)));
        }
        for mask in [0, 1, 0b10101, 63] {
            let original = vec![5i16, -17, 31, 0, -31];
            let mut lanes = original.clone();
            RamFault::FlippedBits { word: 0, mask }.corrupt(&mut lanes, &quantizer);
            for (&before, &after) in original.iter().zip(&lanes) {
                assert_eq!(after as i32, (before as i32 ^ mask).clamp(-max, max));
            }
        }
    }

    /// Corrupts `W` lanes under every stuck value −70..=70 and ±`i32::MAX`
    /// and every flip mask 0..=0xFFFF, `i32::MIN` and −1: each corrupted
    /// lane must equal the `i32` formula applied to the lane's widened
    /// value. Every in-rail lane value is covered below 16 bits; at 16 bits
    /// the full mask range meets every 127th lane value plus the rails, and
    /// the full rail meets the corner masks.
    fn assert_corrupt_is_the_i32_formula<W: FuWord>(quantizer: Quantizer) {
        let corner_masks = [0, 1, 0x5555, 0x7FFF, 0x8000, 0xFFFF, i32::MIN, -1];
        let max = quantizer.max_mag();
        let rail: Vec<W> = (-max..=max).map(W::narrow).collect();
        let sparse: Vec<W> =
            (-max..=max).filter(|&v| v % 127 == 0 || v.abs() >= max - 1).map(W::narrow).collect();
        let full_masks = (0..=0xFFFF).chain([i32::MIN, -1]);
        let cases: Vec<(&[W], RamFault)> = if max < 0x7FFF {
            (-70..=70)
                .chain([i32::MAX, -i32::MAX])
                .map(|value| RamFault::StuckWord { word: 0, value })
                .chain(full_masks.map(|mask| RamFault::FlippedBits { word: 0, mask }))
                .map(|fault| (&rail[..], fault))
                .collect()
        } else {
            (-70..=70)
                .chain([i32::MAX, -i32::MAX])
                .map(|value| (&rail[..], RamFault::StuckWord { word: 0, value }))
                .chain(
                    full_masks.map(|mask| (&sparse[..], RamFault::FlippedBits { word: 0, mask })),
                )
                .chain(
                    corner_masks.map(|mask| (&rail[..], RamFault::FlippedBits { word: 0, mask })),
                )
                .collect()
        };
        let wide = |x: W| i32::from(x.widen());
        for (lanes, fault) in cases {
            let mut narrow = lanes.to_vec();
            fault.corrupt(&mut narrow, &quantizer);
            for (&before, &after) in lanes.iter().zip(&narrow) {
                let want = match fault {
                    RamFault::StuckWord { value, .. } => quantizer.saturate(value),
                    RamFault::FlippedBits { mask, .. } => quantizer.saturate(wide(before) ^ mask),
                };
                let (before, bits) = (wide(before), quantizer.bits());
                assert_eq!(wide(after), want, "{fault:?} on {before}, {bits} bits, i{}", W::BITS);
            }
        }
    }

    #[test]
    fn corrupting_i16_lanes_equals_the_i32_formula() {
        // The information image holds `i16` lanes and the hooks narrow what
        // they compute in `i32`. That is exact because every result is
        // snapped into ±max_mag. 16 bits is the widest quantizer, which the
        // functional units run on the per-unit datapath.
        for quantizer in [
            Quantizer::new(4, 1.0),
            Quantizer::paper_5bit(),
            Quantizer::paper_6bit(),
            Quantizer::new(16, 1.0 / 4096.0),
        ] {
            assert_corrupt_is_the_i32_formula::<i16>(quantizer);
        }
    }

    #[test]
    fn corrupting_i8_lanes_equals_the_i32_formula() {
        // The core's check image holds `i8` lanes wherever the `i8` lanes
        // hold the quantizer (4 to 6 bits), and an information-phase commit
        // corrupts them there: exact for the same reason, so the check image
        // holds commit-point faults as the `i16` image does.
        for quantizer in [Quantizer::new(4, 1.0), Quantizer::paper_5bit(), Quantizer::paper_6bit()]
        {
            assert!(quantizer.max_mag() <= i8::MAX as i32);
            assert_corrupt_is_the_i32_formula::<i8>(quantizer);
        }
    }

    #[test]
    fn window_activation_covers_half_open_range() {
        let a = FaultActivation::Window { from: 2, until: 5 };
        let at = |iteration, phase| CommitPoint { iteration, phase };
        assert!(!a.is_active(at(0, CommitPhase::PowerOn), 3));
        assert!(!a.is_active(at(1, CommitPhase::Check), 3));
        assert!(a.is_active(at(2, CommitPhase::Info), 3));
        assert!(a.is_active(at(4, CommitPhase::Check), 3));
        assert!(!a.is_active(at(5, CommitPhase::Info), 3));
        // A window starting at 0 also corrupts the power-on fill.
        let from_zero = FaultActivation::Window { from: 0, until: 1 };
        assert!(from_zero.is_active(CommitPoint::power_on(), 3));
    }

    #[test]
    fn random_activation_is_deterministic_and_rate_shaped() {
        let a = FaultActivation::Random { seed: 7, per_mille: 250 };
        let mut active = 0usize;
        let total = 4000usize;
        for iteration in 0..40u32 {
            for word in 0..100usize {
                let p = CommitPoint { iteration, phase: CommitPhase::Check };
                let hit = a.is_active(p, word);
                assert_eq!(hit, a.is_active(p, word), "must be deterministic");
                active += hit as usize;
            }
        }
        let rate = active as f64 / total as f64;
        assert!((0.18..0.32).contains(&rate), "rate {rate} far from 0.25");
        // Extremes.
        assert!(FaultActivation::Random { seed: 1, per_mille: 1000 }
            .is_active(CommitPoint::power_on(), 0));
        assert!(!FaultActivation::Random { seed: 1, per_mille: 0 }
            .is_active(CommitPoint::power_on(), 0));
    }

    #[test]
    fn scenario_holds_multiple_faults_in_order() {
        let quantizer = Quantizer::paper_6bit();
        let mut s = FaultScenario::single(RamFault::StuckWord { word: 2, value: 9 });
        assert!(s.push_ram(TimedRamFault::permanent(RamFault::FlippedBits { word: 2, mask: 1 })));
        assert_eq!(s.ram_fault_count(), 2);
        assert_eq!(s.as_single_permanent(), None);
        // Both target word 2: stuck applies first, then the flip — order is
        // scenario order.
        let mut lanes = vec![0i16; 4];
        s.corrupt_word(2, &mut lanes, &quantizer, CommitPoint::power_on());
        assert!(lanes.iter().all(|&v| v == 8)); // 9 ^ 1
                                                // Capacity saturates at MAX_SCENARIO_FAULTS.
        for w in 0..MAX_SCENARIO_FAULTS {
            s.push_ram(TimedRamFault::permanent(RamFault::StuckWord { word: w, value: 0 }));
        }
        assert_eq!(s.ram_fault_count(), MAX_SCENARIO_FAULTS);
        assert!(!s.push_ram(TimedRamFault::permanent(RamFault::StuckWord { word: 9, value: 0 })));
    }

    #[test]
    fn single_permanent_round_trips_through_scenario() {
        let f = RamFault::FlippedBits { word: 11, mask: 5 };
        let s = FaultScenario::from(f);
        assert_eq!(s.as_single_permanent(), Some(f));
        assert!(!s.is_empty());
        assert!(FaultScenario::none().is_empty());
        let fu = Some(FuFault::StuckSign { unit: 0, negative: true });
        assert_eq!(s.with_fu(fu).as_single_permanent(), None);
    }

    #[test]
    fn fu_fault_forces_sign_and_magnitude() {
        let quantizer = Quantizer::paper_6bit();
        let neg = FuFault::StuckSign { unit: 3, negative: true };
        let pos = FuFault::StuckSign { unit: 3, negative: false };
        for v in [-31, -4, 0, 4, 31] {
            assert!(neg.corrupt(v, &quantizer) <= 0);
            assert!(pos.corrupt(v, &quantizer) >= 0);
            assert_eq!(neg.corrupt(v, &quantizer).abs(), v.abs());
        }
        let mag = FuFault::StuckMag { unit: 3, value: 99 };
        assert_eq!(mag.corrupt(5, &quantizer), 31); // saturated into domain
        assert_eq!(mag.corrupt(-5, &quantizer), -31);
        assert_eq!(mag.corrupt(0, &quantizer), 31); // zero counts as positive
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn validate_rejects_out_of_range_unit() {
        FaultScenario::none()
            .with_fu(Some(FuFault::StuckMag { unit: PARALLELISM, value: 1 }))
            .validate(100);
    }
}
