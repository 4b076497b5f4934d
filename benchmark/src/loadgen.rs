//! Open-loop pacing. Frames are due on a fixed schedule that does not slow
//! when the system under test does; each frame's latency runs from its due
//! time, so a stall is charged to every frame it delays, and how late the
//! generator itself ran is reported beside the latencies.

use std::time::{Duration, Instant};

/// A source of time the pacer can wait on; a fake one drives the tests.
pub trait Clock {
    fn now_ns(&self) -> u64;
    fn sleep_until_ns(&self, at_ns: u64);
}

/// Wall time, in nanoseconds since `origin`.
pub struct RealClock {
    pub origin: Instant,
}

impl Clock for RealClock {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn sleep_until_ns(&self, at_ns: u64) {
        let wait = at_ns.saturating_sub(self.now_ns());
        if wait > 0 {
            std::thread::sleep(Duration::from_nanos(wait));
        }
    }
}

/// A fixed-rate arrival schedule: frame `g` is due at `start + g / rate`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start_ns: u64,
    pub interval_ns: f64,
}

impl Schedule {
    pub fn at_rate(start_ns: u64, frames_per_s: f64) -> Self {
        Schedule { start_ns, interval_ns: 1e9 / frames_per_s }
    }

    pub fn due_ns(&self, frame: u64) -> u64 {
        self.start_ns + (frame as f64 * self.interval_ns) as u64
    }
}

/// How late the generator first offered its frames.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Lateness {
    pub offered: u64,
    /// Frames first offered more than one arrival interval after they were
    /// due: the generator had fallen a whole frame behind.
    pub late: u64,
    pub max_ns: u64,
}

impl Lateness {
    pub fn late_frac(&self) -> f64 {
        self.late as f64 / self.offered.max(1) as f64
    }
}

/// Offers `frames` frames on `schedule`: waits for each due time (never for
/// a frame already overdue) and calls `offer(frame, due_ns)`, which returns
/// once the frame is admitted.
pub fn pace<C: Clock>(
    clock: &C,
    schedule: Schedule,
    frames: u64,
    mut offer: impl FnMut(u64, u64),
) -> Lateness {
    let mut lateness = Lateness::default();
    for frame in 0..frames {
        let due_ns = schedule.due_ns(frame);
        clock.sleep_until_ns(due_ns);
        let behind_ns = clock.now_ns().saturating_sub(due_ns);
        lateness.offered += 1;
        lateness.max_ns = lateness.max_ns.max(behind_ns);
        if behind_ns as f64 > schedule.interval_ns {
            lateness.late += 1;
        }
        offer(frame, due_ns);
    }
    lateness
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    struct FakeClock {
        now: Cell<u64>,
        sleeps: Cell<u64>,
    }

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.now.get()
        }

        fn sleep_until_ns(&self, at_ns: u64) {
            if at_ns > self.now.get() {
                self.now.set(at_ns);
                self.sleeps.set(self.sleeps.get() + 1);
            }
        }
    }

    #[test]
    fn schedule_is_fixed_rate() {
        let schedule = Schedule::at_rate(1_000, 4.0);
        assert_eq!(schedule.due_ns(0), 1_000);
        assert_eq!(schedule.due_ns(4), 1_000_001_000);
    }

    #[test]
    fn a_stall_is_charged_to_every_frame_it_delays() {
        // 1000 frames/s: one frame per millisecond. The system stalls for
        // 3.5 ms while admitting frame 2; service is otherwise instant.
        let clock = FakeClock { now: Cell::new(0), sleeps: Cell::new(0) };
        let schedule = Schedule::at_rate(0, 1_000.0);
        let mut latencies_ns = Vec::new();
        let lateness = pace(&clock, schedule, 8, |frame, due_ns| {
            if frame == 2 {
                clock.now.set(clock.now.get() + 3_500_000);
            }
            // Delivered the moment it is admitted; timed from its due time.
            latencies_ns.push(clock.now_ns() - due_ns);
        });
        // Frames 3..=5 were due during the stall and are offered at once,
        // their clocks already running since their own due times.
        assert_eq!(
            latencies_ns,
            [0, 0, 3_500_000, 2_500_000, 1_500_000, 500_000, 0, 0],
            "latency must run from the due time, not from the late offer"
        );
        // Only frames 3 and 4 were more than one interval behind.
        assert_eq!(lateness, Lateness { offered: 8, late: 2, max_ns: 2_500_000 });
        assert_eq!(lateness.late_frac(), 0.25);
        // The pacer slept for frames 1, 2, 6 and 7 only: it never waits for
        // a frame that is already overdue, so the schedule does not slip.
        assert_eq!(clock.sleeps.get(), 4);
        assert_eq!(clock.now_ns(), schedule.due_ns(7));
    }
}
