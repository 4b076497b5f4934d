//! What every workload shares: the run's arguments, its clock origin, and
//! the repeated set-up measurement.

use crate::stats::median;
use std::path::PathBuf;
use std::time::Instant;

/// One invocation: a workload, a seed, a length and a mode.
pub struct Run {
    pub seed: u64,
    /// Seconds the timed windows should fill.
    pub seconds: f64,
    /// Keep spans and report per-layer metrics.
    pub traced: bool,
    /// Where a traced run writes its spans.
    pub out_dir: PathBuf,
    /// Process start: the origin of every span timestamp.
    pub origin: Instant,
}

impl Run {
    /// Nanoseconds from the run's origin to `at`.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }
}

/// Set-up repeats may use this share of `--seconds`, and stop after this
/// many rounds: a 60 ms tier start repeats 31 times, a 600 ms kernel set-up
/// five times.
pub const SETUP_SHARE: f64 = 0.15;
pub const SETUP_MAX: usize = 31;

/// Runs `setup` several times and returns the last instance it built with
/// the median set-up time in seconds. Set-up is short next to a run, so one
/// timing of it is mostly scheduler noise; the median of several is what a
/// later PR is held to. Repeats stop after `max` rounds or once they have
/// used `budget_s` seconds, whichever comes first, but never before three.
pub fn median_setup<T>(
    budget_s: f64,
    max: usize,
    mut setup: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> (T, f64) {
    let started = Instant::now();
    let mut times = Vec::new();
    loop {
        let round = Instant::now();
        let instance = setup();
        times.push(round.elapsed().as_secs_f64());
        let enough =
            times.len() >= max || (times.len() >= 3 && started.elapsed().as_secs_f64() >= budget_s);
        if enough {
            return (instance, median(&times));
        }
        teardown(instance);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_repeats_at_least_three_times_and_keeps_the_last_instance() {
        let mut built = 0;
        let mut torn_down = Vec::new();
        let (last, seconds) = median_setup(
            0.0,
            10,
            || {
                built += 1;
                built
            },
            |instance| torn_down.push(instance),
        );
        assert_eq!(last, 3);
        assert_eq!(torn_down, [1, 2]);
        assert!(seconds >= 0.0);
        let (last, _) = median_setup(1e9, 5, || 7, |_| {});
        assert_eq!(last, 7);
    }
}
