//! Multi-threaded Monte-Carlo BER/FER estimation.
//!
//! The harness is decoder-agnostic: callers provide a factory that builds a
//! per-thread frame simulator (encode → modulate → corrupt → decode →
//! count errors). Frames are indexed globally and seeded per index (see
//! [`mix_seed`]), so results are exact counts, bit-reproducible for a given
//! seed at any thread count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The result of simulating one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FrameOutcome {
    /// Information-bit errors after decoding.
    pub bit_errors: usize,
    /// Information bits carried by the frame (`K`).
    pub info_bits: usize,
    /// Whether the frame decoded incorrectly.
    pub frame_error: bool,
    /// Decoder iterations spent on this frame.
    pub iterations: usize,
}

/// Stopping rule for a Monte-Carlo run: stop at `max_frames`, or earlier
/// once `target_frame_errors` frame errors have been observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StopRule {
    /// Hard cap on simulated frames.
    pub max_frames: usize,
    /// Early-out threshold on accumulated frame errors (0 disables).
    pub target_frame_errors: usize,
}

impl StopRule {
    /// A rule with only a frame cap.
    pub fn frames(max_frames: usize) -> Self {
        StopRule { max_frames, target_frame_errors: 0 }
    }
}

/// Accumulated error statistics of a Monte-Carlo run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BerEstimate {
    /// Frames simulated.
    pub frames: usize,
    /// Total information-bit errors.
    pub bit_errors: usize,
    /// Total frame errors.
    pub frame_errors: usize,
    /// Total information bits simulated.
    pub info_bits: usize,
    /// Total decoder iterations.
    pub total_iterations: usize,
}

impl BerEstimate {
    /// Bit error rate; 0 when nothing was simulated.
    pub fn ber(&self) -> f64 {
        if self.info_bits == 0 {
            0.0
        } else {
            self.bit_errors as f64 / self.info_bits as f64
        }
    }

    /// Frame error rate.
    pub fn fer(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.frame_errors as f64 / self.frames as f64
        }
    }

    /// Mean decoder iterations per frame.
    pub fn avg_iterations(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.total_iterations as f64 / self.frames as f64
        }
    }

    /// Merges another estimate into this one.
    pub fn merge(&mut self, other: &BerEstimate) {
        self.frames += other.frames;
        self.bit_errors += other.bit_errors;
        self.frame_errors += other.frame_errors;
        self.info_bits += other.info_bits;
        self.total_iterations += other.total_iterations;
    }

    /// Records one frame outcome.
    pub fn record(&mut self, outcome: FrameOutcome) {
        self.frames += 1;
        self.bit_errors += outcome.bit_errors;
        self.info_bits += outcome.info_bits;
        self.total_iterations += outcome.iterations;
        if outcome.frame_error {
            self.frame_errors += 1;
        }
    }
}

/// Runs frames in fixed-size chunks across work-stealing worker threads,
/// with results that are **bit-reproducible** for a given seed regardless
/// of the thread count or scheduling.
///
/// Frames carry global indices `0..stop.max_frames`, grouped into chunks of
/// `chunk_frames` consecutive indices. Idle workers atomically claim the
/// next unclaimed chunk (work stealing — no static striping, so an unlucky
/// thread never becomes the straggler) and call the frame closure once per
/// index. Because the closure receives the *global frame index*, callers
/// derive an independent RNG stream per frame (see [`mix_seed`]) and every
/// frame's outcome is independent of which thread simulates it.
///
/// Early termination is deterministic: the run's result is the merge of the
/// shortest chunk *prefix* `0..=s` whose cumulative frame errors reach
/// `stop.target_frame_errors` (or of all chunks when the target is 0 or
/// never reached). Chunks beyond the stop prefix are discarded, so two runs
/// always merge exactly the same frames; at most one in-flight chunk per
/// thread is wasted.
///
/// ```
/// use dvbs2_channel::{monte_carlo_frames, FrameOutcome, StopRule};
/// let run = |threads| {
///     monte_carlo_frames(threads, StopRule::frames(100), 8, |_t| {
///         move |frame: u64| FrameOutcome {
///             bit_errors: (frame % 3 == 0) as usize,
///             info_bits: 10,
///             frame_error: frame % 3 == 0,
///             iterations: 1,
///         }
///     })
/// };
/// assert_eq!(run(1), run(4)); // identical counts, any thread count
/// ```
///
/// # Panics
///
/// Panics if `threads == 0`, `stop.max_frames == 0` or `chunk_frames == 0`.
pub fn monte_carlo_frames<W, F>(
    threads: usize,
    stop: StopRule,
    chunk_frames: usize,
    make_worker: W,
) -> BerEstimate
where
    W: Fn(usize) -> F + Sync,
    F: FnMut(u64) -> FrameOutcome,
{
    assert!(threads > 0, "need at least one thread");
    assert!(stop.max_frames > 0, "max_frames must be positive");
    assert!(chunk_frames > 0, "chunk_frames must be positive");
    let n_chunks = stop.max_frames.div_ceil(chunk_frames);
    let next_chunk = AtomicUsize::new(0);

    struct Progress {
        /// Per-chunk results, filled as workers complete them.
        results: Vec<Option<BerEstimate>>,
        /// First chunk index not yet folded into the in-order prefix.
        frontier: usize,
        /// Cumulative frame errors over chunks `0..frontier`.
        prefix_errors: usize,
        /// Last chunk of the stop prefix, once the target is reached.
        stop_at: Option<usize>,
    }
    let progress = Mutex::new(Progress {
        results: vec![None; n_chunks],
        frontier: 0,
        prefix_errors: 0,
        stop_at: None,
    });

    std::thread::scope(|scope| {
        for t in 0..threads {
            let next_chunk = &next_chunk;
            let progress = &progress;
            let make_worker = &make_worker;
            scope.spawn(move || {
                let mut simulate = make_worker(t);
                loop {
                    let chunk = next_chunk.fetch_add(1, Ordering::Relaxed);
                    if chunk >= n_chunks {
                        break;
                    }
                    {
                        let p = progress.lock().expect("no panics hold the lock");
                        if p.stop_at.is_some_and(|s| chunk > s) {
                            break;
                        }
                    }
                    let mut local = BerEstimate::default();
                    let first = (chunk * chunk_frames) as u64;
                    let last = ((chunk + 1) * chunk_frames).min(stop.max_frames) as u64;
                    for frame in first..last {
                        local.record(simulate(frame));
                    }
                    let mut p = progress.lock().expect("no panics hold the lock");
                    p.results[chunk] = Some(local);
                    // Fold completed chunks into the prefix strictly in index
                    // order; the stop decision therefore depends only on the
                    // per-chunk outcomes, never on completion order.
                    while p.stop_at.is_none() && p.frontier < n_chunks {
                        let Some(done) = p.results[p.frontier] else { break };
                        p.prefix_errors += done.frame_errors;
                        if stop.target_frame_errors > 0
                            && p.prefix_errors >= stop.target_frame_errors
                        {
                            p.stop_at = Some(p.frontier);
                        }
                        p.frontier += 1;
                    }
                }
            });
        }
    });

    let p = progress.into_inner().expect("all workers joined");
    let merged_until = p.stop_at.map_or(n_chunks, |s| s + 1);
    let mut total = BerEstimate::default();
    for chunk in 0..merged_until {
        let done = p.results[chunk].expect("chunks inside the stop prefix completed");
        total.merge(&done);
    }
    total
}

/// Derives an independent RNG seed for one stream (e.g. one frame index)
/// from a base seed, via two SplitMix64 mixing rounds.
///
/// Used with [`monte_carlo_frames`] to give every global frame index its
/// own reproducible noise realization, decoupled from thread scheduling.
pub fn mix_seed(seed: u64, stream: u64) -> u64 {
    let mut state = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut mix = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    mix();
    mix()
}

/// Default worker-thread count: the available parallelism, capped at 16.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get().min(16))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_counts_with_frame_cap() {
        let est = monte_carlo_frames(4, StopRule::frames(1000), 16, |_| {
            |_frame: u64| FrameOutcome {
                bit_errors: 2,
                info_bits: 50,
                frame_error: false,
                iterations: 3,
            }
        });
        assert_eq!(est.frames, 1000);
        assert_eq!(est.bit_errors, 2000);
        assert_eq!(est.info_bits, 50_000);
        assert_eq!(est.frame_errors, 0);
        assert!((est.avg_iterations() - 3.0).abs() < 1e-12);
        assert_eq!(est.fer(), 0.0);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = BerEstimate {
            frames: 1,
            bit_errors: 2,
            frame_errors: 1,
            info_bits: 10,
            total_iterations: 4,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.frames, 2);
        assert_eq!(a.bit_errors, 4);
        assert_eq!(a.info_bits, 20);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let _ = monte_carlo_frames(0, StopRule::frames(1), 1, |_| {
            |_frame: u64| FrameOutcome::default()
        });
    }

    /// A deterministic per-frame outcome keyed on the global index.
    fn frame_outcome(frame: u64) -> FrameOutcome {
        let noisy = mix_seed(42, frame).is_multiple_of(7);
        FrameOutcome {
            bit_errors: if noisy { 3 } else { 0 },
            info_bits: 20,
            frame_error: noisy,
            iterations: 1 + (frame % 5) as usize,
        }
    }

    #[test]
    fn chunked_run_is_identical_across_thread_counts() {
        let stop = StopRule::frames(509); // deliberately not a chunk multiple
        let reference = monte_carlo_frames(1, stop, 16, |_| frame_outcome);
        assert_eq!(reference.frames, 509);
        for threads in [2, 3, 8] {
            for chunk in [1, 16, 64] {
                let est = monte_carlo_frames(threads, stop, chunk, |_| frame_outcome);
                assert_eq!(est, reference, "threads {threads} chunk {chunk}");
            }
        }
    }

    #[test]
    fn chunked_early_out_is_deterministic_and_bounded() {
        let stop = StopRule { max_frames: 1_000_000, target_frame_errors: 25 };
        let reference = monte_carlo_frames(1, stop, 8, |_| frame_outcome);
        assert!(reference.frame_errors >= 25);
        // Stop prefix = whole chunks, so overshoot is below one extra chunk.
        assert!(reference.frame_errors < 25 + 8);
        for threads in [2, 7] {
            let est = monte_carlo_frames(threads, stop, 8, |_| frame_outcome);
            assert_eq!(est, reference, "threads {threads}");
        }
    }

    #[test]
    fn early_out_under_a_frame_cap_is_identical_across_thread_counts() {
        let stop = StopRule { max_frames: 400, target_frame_errors: 10 };
        let reference = monte_carlo_frames(1, stop, 16, |_| frame_outcome);
        assert!(reference.frames < 400, "the early-out fires before the cap");
        for threads in [1, 4] {
            let est = monte_carlo_frames(threads, stop, 16, |_| frame_outcome);
            assert_eq!(est, reference, "threads {threads}");
        }
    }

    #[test]
    fn chunked_run_visits_each_frame_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        let est = monte_carlo_frames(4, StopRule::frames(100), 7, |_| {
            |frame: u64| {
                hits[frame as usize].fetch_add(1, Ordering::Relaxed);
                FrameOutcome { bit_errors: 0, info_bits: 1, frame_error: false, iterations: 1 }
            }
        });
        assert_eq!(est.frames, 100);
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn mix_seed_separates_streams() {
        // Different streams from one seed must not collide or correlate
        // trivially; spot-check distinctness.
        let mut seen = std::collections::HashSet::new();
        for stream in 0..1000 {
            assert!(seen.insert(mix_seed(0xD5B2, stream)), "stream {stream}");
        }
        assert_ne!(mix_seed(1, 0), mix_seed(2, 0));
    }
}
