//! Iteration-budget admission control.
//!
//! The paper's Table 3 trades iterations against throughput: the core at a
//! lower iteration cap serves proportionally more Mbit/s at a BER cost.
//! The pipeline runs that trade-off backwards as its load-shedding policy —
//! when the ingress queue fills, the service demands more throughput from
//! the (modeled) core, [`ThroughputModel::iterations_for_throughput`]
//! answers with the largest cap that still meets the demand, and frames
//! decode under the lowered cap *instead of being dropped*. Only when the
//! ladder bottoms out does backpressure reach the producer as a
//! [`crate::SubmitError::Rejected`].

use dvbs2::ModcodTable;
use dvbs2_hardware::{ThroughputModel, ST_0_13_UM};

/// Occupancy thresholds (fractions of ingress capacity) at which the
/// demanded throughput escalates. Paired with [`DEMAND_MULTIPLIERS`].
pub const OCCUPANCY_STEPS: [f64; 3] = [0.5, 0.75, 0.9];

/// Throughput demand at each pressure level, as a multiple of the
/// modeled throughput at the slot's configured iteration cap. Level 0
/// (below the first occupancy step) demands 1× — the configured cap.
pub const DEMAND_MULTIPLIERS: [f64; 4] = [1.0, 1.25, 1.5, 2.0];

/// When to shed iterations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Never lower caps: every frame decodes at its slot's configured
    /// iteration budget. Bit-parity soaks run with this so multi-threaded
    /// output is comparable to a single-threaded reference.
    #[default]
    Off,
    /// Lower caps with ingress occupancy, never below `min_iterations`.
    Adaptive {
        /// Floor under shedding; caps never drop below this.
        min_iterations: usize,
    },
}

/// Per-MODCOD-slot iteration caps, one rung per pressure level.
#[derive(Debug, Clone)]
struct Ladder {
    rungs: [usize; DEMAND_MULTIPLIERS.len()],
}

/// Maps ingress occupancy to per-slot iteration caps.
#[derive(Debug, Clone)]
pub struct AdmissionController {
    policy: AdmissionPolicy,
    ladders: Vec<Ladder>,
}

impl AdmissionController {
    /// Precomputes the shedding ladder of every slot in `table` against the
    /// paper's Eq. 8 throughput model of the 0.13 µm core, at the slot's
    /// configured iteration cap.
    pub fn new(policy: AdmissionPolicy, table: &ModcodTable) -> Self {
        let model = ThroughputModel::paper(&ST_0_13_UM);
        let min_iterations = match policy {
            AdmissionPolicy::Off => 1,
            AdmissionPolicy::Adaptive { min_iterations } => min_iterations.max(1),
        };
        let ladders = table
            .iter()
            .map(|entry| {
                let cap = entry.profile.config.max_iterations.max(1);
                let slot_model = ThroughputModel { iterations: cap, ..model };
                let base = slot_model.throughput_mbps(entry.params());
                let mut rungs = [cap; DEMAND_MULTIPLIERS.len()];
                for (rung, &mult) in rungs.iter_mut().zip(&DEMAND_MULTIPLIERS) {
                    *rung = slot_model
                        .iterations_for_throughput(entry.params(), base * mult)
                        .unwrap_or(min_iterations)
                        .clamp(min_iterations.min(cap), cap);
                }
                Ladder { rungs }
            })
            .collect();
        AdmissionController { policy, ladders }
    }

    /// The iteration cap for a frame of `slot` given the current ingress
    /// occupancy in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics on a slot the table did not define.
    pub fn cap_for(&self, slot: usize, occupancy: f64) -> usize {
        let ladder = &self.ladders[slot];
        if self.policy == AdmissionPolicy::Off {
            return ladder.rungs[0];
        }
        let level = OCCUPANCY_STEPS.iter().filter(|&&step| occupancy >= step).count();
        ladder.rungs[level]
    }

    /// The slot's configured (unshed) cap.
    pub fn base_cap(&self, slot: usize) -> usize {
        self.ladders[slot].rungs[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvbs2::channel::Modulation;
    use dvbs2::ldpc::{CodeRate, FrameSize};
    use dvbs2::Modcod;

    fn table() -> ModcodTable {
        ModcodTable::build(&[
            Modcod::new(Modulation::Bpsk, CodeRate::R1_2, FrameSize::Short),
            Modcod::new(Modulation::Psk8, CodeRate::R3_4, FrameSize::Short),
        ])
        .unwrap()
    }

    #[test]
    fn off_policy_always_returns_the_configured_cap() {
        let t = table();
        let ctl = AdmissionController::new(AdmissionPolicy::Off, &t);
        for slot in 0..t.len() {
            let cap = t.entry(slot).profile.config.max_iterations;
            assert_eq!(ctl.cap_for(slot, 0.0), cap);
            assert_eq!(ctl.cap_for(slot, 1.0), cap, "occupancy must not matter when off");
            assert_eq!(ctl.base_cap(slot), cap);
        }
    }

    #[test]
    fn adaptive_caps_fall_monotonically_with_pressure() {
        let t = table();
        let ctl = AdmissionController::new(AdmissionPolicy::Adaptive { min_iterations: 4 }, &t);
        for slot in 0..t.len() {
            let caps: Vec<usize> =
                [0.0, 0.5, 0.75, 0.9].iter().map(|&o| ctl.cap_for(slot, o)).collect();
            assert_eq!(caps[0], ctl.base_cap(slot), "idle pipeline sheds nothing");
            assert!(caps.windows(2).all(|w| w[1] <= w[0]), "caps must fall: {caps:?}");
            assert!(caps[3] < caps[0], "full pressure must actually shed: {caps:?}");
            assert!(caps.iter().all(|&c| c >= 4), "floor respected: {caps:?}");
        }
    }

    #[test]
    fn demanding_double_throughput_roughly_halves_iterations() {
        // The Table 3 shape: iteration time dominates the frame cycle
        // budget, so 2x throughput needs just under half the iterations.
        let t = table();
        let ctl = AdmissionController::new(AdmissionPolicy::Adaptive { min_iterations: 1 }, &t);
        let base = ctl.base_cap(0);
        let shed = ctl.cap_for(0, 0.95);
        assert!(shed <= base / 2 + 1, "base {base}, shed {shed}");
        assert!(shed >= base / 3, "base {base}, shed {shed}");
    }
}
