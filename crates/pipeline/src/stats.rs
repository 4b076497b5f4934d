//! Pipeline observability: lock-free counters, an iteration histogram, the
//! end-to-end latency recorder the service tier shares, and a consistent
//! snapshot API.
//!
//! Counters are plain relaxed atomics — each is individually exact, and
//! the invariants the soak asserts (`offered == submitted + rejected`,
//! `decoded == submitted`, histogram totals) hold exactly once the
//! pipeline has quiesced, which is when the assertions run.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Number of buckets in the iterations histogram; iteration counts at or
/// above the last bucket saturate into it.
pub const ITERATION_BUCKETS: usize = 64;

/// Number of buckets in the latency histogram: log-linear with 16
/// sub-buckets per power of two (≤ 6.25 % relative bucket width), exact
/// below 16 ns, covering up to `2^39` ns (~9 minutes) before saturating.
const LATENCY_BUCKETS: usize = 576;

/// The latency histogram bucket a nanosecond value falls into.
fn latency_bucket(ns: u64) -> usize {
    if ns < 16 {
        return ns as usize;
    }
    let exp = 63 - ns.leading_zeros() as u64; // >= 4
    let sub = (ns >> (exp - 4)) - 16; // 0..16 within the power of two
    (((exp - 3) * 16 + sub) as usize).min(LATENCY_BUCKETS - 1)
}

/// The smallest nanosecond value that lands in `bucket` — the conservative
/// (lower-bound) representative a quantile report uses.
fn latency_bucket_floor_ns(bucket: usize) -> u64 {
    assert!(bucket < LATENCY_BUCKETS, "bucket {bucket} out of range");
    if bucket < 16 {
        return bucket as u64;
    }
    let exp = bucket as u64 / 16 + 3;
    let sub = bucket as u64 % 16;
    (16 + sub) << (exp - 4)
}

/// Nearest-rank quantile over a bucketed histogram: the index of the
/// bucket holding the `ceil(q * total)`-th observation, or `None` when the
/// histogram is empty.
fn histogram_quantile_index(counts: &[u64], q: f64) -> Option<usize> {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return Some(i);
        }
    }
    Some(counts.len() - 1)
}

/// Live end-to-end latency recorder: a log-linear histogram plus the sum
/// and the maximum of every recorded value. The pipeline records
/// accepted→emitted time into one, the service tier submit→delivery time.
#[derive(Debug)]
pub struct LatencyRecorder {
    total_ns: AtomicU64,
    max_ns: AtomicU64,
    histogram: [AtomicU64; LATENCY_BUCKETS],
}

impl Default for LatencyRecorder {
    fn default() -> Self {
        LatencyRecorder {
            total_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
            histogram: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl LatencyRecorder {
    /// Records one latency sample.
    pub fn record(&self, ns: u64) {
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
        self.histogram[latency_bucket(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the recorder.
    pub fn snapshot(&self) -> LatencySnapshot {
        LatencySnapshot {
            total_ns: self.total_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
            histogram: self.histogram.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
        }
    }
}

/// A point-in-time copy of a [`LatencyRecorder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencySnapshot {
    /// Sum of every recorded latency, ns.
    pub total_ns: u64,
    /// Largest recorded latency, ns.
    pub max_ns: u64,
    histogram: Vec<u64>,
}

impl LatencySnapshot {
    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.histogram.iter().sum()
    }

    /// Latency quantile in nanoseconds (nearest rank over the log-linear
    /// histogram, reported as the bucket's lower bound — a conservative
    /// value within 6.25 % of the true quantile). Returns 0 before any
    /// sample.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        histogram_quantile_index(&self.histogram, q).map_or(0, latency_bucket_floor_ns)
    }

    /// Mean latency per recorded sample in nanoseconds (0 before any).
    pub fn mean_ns(&self) -> f64 {
        match self.count() {
            0 => 0.0,
            count => self.total_ns as f64 / count as f64,
        }
    }
}

/// Shared counter block the pipeline stages update in place.
#[derive(Debug)]
pub struct StatsCore {
    /// Frames offered via `try_submit`/`submit` (accepted or not).
    pub offered: AtomicU64,
    /// Frames accepted into the pipeline.
    pub submitted: AtomicU64,
    /// Frames bounced by backpressure (queue full or in-flight cap).
    pub rejected: AtomicU64,
    /// Frames a worker finished decoding.
    pub decoded: AtomicU64,
    /// Frames released in order at egress.
    pub emitted: AtomicU64,
    /// Frames the last worker out found stuck behind a gap in the reorder
    /// buffer. Zero in any healthy run; the soak asserts it stays zero.
    pub dropped: AtomicU64,
    /// Decodes that stopped early on a clean syndrome.
    pub early_stopped: AtomicU64,
    /// Decodes that ran under a lowered iteration cap (admission control).
    pub shed: AtomicU64,
    /// Total decode iterations across all frames.
    pub iterations_total: AtomicU64,
    /// Total nanoseconds spent inside `decode_into` across all workers.
    pub decode_ns: AtomicU64,
    /// Iterations histogram: bucket `i` counts frames that took `i`
    /// iterations (the last bucket saturates).
    pub iteration_histogram: [AtomicU64; ITERATION_BUCKETS],
    /// Deepest ingress-queue occupancy observed.
    pub ingress_watermark: AtomicUsize,
    /// Deepest reorder-buffer occupancy observed.
    pub reorder_watermark: AtomicUsize,
    /// Frames currently inside the pipeline (submitted, not yet consumed).
    pub in_flight: AtomicUsize,
    /// Times a worker's decode statistics crossed the anomaly thresholds.
    pub faults_suspected: AtomicU64,
    /// Times a worker entered quarantine (stopped taking traffic).
    pub quarantines: AtomicU64,
    /// Times a quarantined worker passed its known-answer probes and
    /// returned to rotation.
    pub reinstatements: AtomicU64,
    /// Workers currently quarantined. Also the coordination point of the
    /// never-quarantine-the-last-healthy-worker guard.
    pub quarantined_now: AtomicUsize,
    /// Known-answer probes run by quarantined workers.
    pub probes_run: AtomicU64,
    /// Known-answer probes that failed (wrong word or no convergence).
    pub probes_failed: AtomicU64,
    /// Accepted→emitted latency of every emitted frame.
    pub latency: LatencyRecorder,
}

impl Default for StatsCore {
    fn default() -> Self {
        StatsCore {
            offered: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            decoded: AtomicU64::new(0),
            emitted: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            early_stopped: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            iterations_total: AtomicU64::new(0),
            decode_ns: AtomicU64::new(0),
            iteration_histogram: std::array::from_fn(|_| AtomicU64::new(0)),
            ingress_watermark: AtomicUsize::new(0),
            reorder_watermark: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            faults_suspected: AtomicU64::new(0),
            quarantines: AtomicU64::new(0),
            reinstatements: AtomicU64::new(0),
            quarantined_now: AtomicUsize::new(0),
            probes_run: AtomicU64::new(0),
            probes_failed: AtomicU64::new(0),
            latency: LatencyRecorder::default(),
        }
    }
}

impl StatsCore {
    /// Records one finished decode.
    pub fn record_decode(&self, iterations: usize, early_stopped: bool, shed: bool, ns: u64) {
        self.decoded.fetch_add(1, Ordering::Relaxed);
        self.iterations_total.fetch_add(iterations as u64, Ordering::Relaxed);
        self.decode_ns.fetch_add(ns, Ordering::Relaxed);
        let bucket = iterations.min(ITERATION_BUCKETS - 1);
        self.iteration_histogram[bucket].fetch_add(1, Ordering::Relaxed);
        if early_stopped {
            self.early_stopped.fetch_add(1, Ordering::Relaxed);
        }
        if shed {
            self.shed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Raises a watermark counter to at least `depth`.
    pub fn raise_watermark(slot: &AtomicUsize, depth: usize) {
        slot.fetch_max(depth, Ordering::Relaxed);
    }

    /// Takes a snapshot of every counter.
    pub fn snapshot(&self) -> PipelineStats {
        let mut iteration_histogram = [0u64; ITERATION_BUCKETS];
        for (out, bucket) in iteration_histogram.iter_mut().zip(&self.iteration_histogram) {
            *out = bucket.load(Ordering::Relaxed);
        }
        PipelineStats {
            offered: self.offered.load(Ordering::Relaxed),
            submitted: self.submitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            decoded: self.decoded.load(Ordering::Relaxed),
            emitted: self.emitted.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            early_stopped: self.early_stopped.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            iterations_total: self.iterations_total.load(Ordering::Relaxed),
            decode_ns: self.decode_ns.load(Ordering::Relaxed),
            iteration_histogram,
            ingress_watermark: self.ingress_watermark.load(Ordering::Relaxed),
            reorder_watermark: self.reorder_watermark.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            faults_suspected: self.faults_suspected.load(Ordering::Relaxed),
            quarantines: self.quarantines.load(Ordering::Relaxed),
            reinstatements: self.reinstatements.load(Ordering::Relaxed),
            quarantined_now: self.quarantined_now.load(Ordering::Relaxed),
            probes_run: self.probes_run.load(Ordering::Relaxed),
            probes_failed: self.probes_failed.load(Ordering::Relaxed),
            latency: self.latency.snapshot(),
        }
    }
}

/// A point-in-time copy of the pipeline's counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineStats {
    /// Frames offered via `try_submit`/`submit` (accepted or not).
    pub offered: u64,
    /// Frames accepted into the pipeline.
    pub submitted: u64,
    /// Frames bounced by backpressure.
    pub rejected: u64,
    /// Frames decoded by the worker pool.
    pub decoded: u64,
    /// Frames emitted in order at egress.
    pub emitted: u64,
    /// Frames stuck behind a reorder gap when the last worker exited.
    pub dropped: u64,
    /// Decodes that stopped early on a clean syndrome.
    pub early_stopped: u64,
    /// Decodes run under a lowered (shed) iteration cap.
    pub shed: u64,
    /// Total decode iterations.
    pub iterations_total: u64,
    /// Total nanoseconds spent decoding.
    pub decode_ns: u64,
    /// Per-iteration-count frame histogram (last bucket saturates).
    pub iteration_histogram: [u64; ITERATION_BUCKETS],
    /// Deepest ingress occupancy observed.
    pub ingress_watermark: usize,
    /// Deepest reorder-buffer occupancy observed.
    pub reorder_watermark: usize,
    /// Frames inside the pipeline at snapshot time.
    pub in_flight: usize,
    /// Anomaly-threshold crossings (suspected worker faults).
    pub faults_suspected: u64,
    /// Workers that entered quarantine.
    pub quarantines: u64,
    /// Quarantined workers reinstated after passing their probes.
    pub reinstatements: u64,
    /// Workers quarantined at snapshot time.
    pub quarantined_now: usize,
    /// Known-answer probes run.
    pub probes_run: u64,
    /// Known-answer probes failed.
    pub probes_failed: u64,
    /// Accepted→emitted latency of the emitted frames.
    pub latency: LatencySnapshot,
}

impl PipelineStats {
    /// Sum of the iteration histogram — equals `decoded` at quiescence.
    pub fn histogram_total(&self) -> u64 {
        self.iteration_histogram.iter().sum()
    }

    /// Mean iterations per decoded frame.
    pub fn mean_iterations(&self) -> f64 {
        if self.decoded == 0 {
            0.0
        } else {
            self.iterations_total as f64 / self.decoded as f64
        }
    }

    /// Fraction of decodes that terminated early.
    pub fn early_stop_rate(&self) -> f64 {
        if self.decoded == 0 {
            0.0
        } else {
            self.early_stopped as f64 / self.decoded as f64
        }
    }

    /// Mean decode wall time per frame in nanoseconds.
    pub fn ns_per_frame(&self) -> f64 {
        if self.decoded == 0 {
            0.0
        } else {
            self.decode_ns as f64 / self.decoded as f64
        }
    }

    /// Exact iteration-count quantile (nearest rank): the iteration count
    /// below which a fraction `q` of decoded frames fall. Exact because
    /// every histogram bucket is one iteration wide (the last bucket
    /// saturates, so a result of `ITERATION_BUCKETS - 1` means "at least").
    /// Returns 0 when nothing has been decoded.
    pub fn iteration_quantile(&self, q: f64) -> usize {
        histogram_quantile_index(&self.iteration_histogram, q).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_recorded_decodes() {
        let core = StatsCore::default();
        core.record_decode(5, true, false, 1_000);
        core.record_decode(30, false, true, 3_000);
        core.record_decode(500, false, false, 2_000); // saturates the histogram
        let s = core.snapshot();
        assert_eq!(s.decoded, 3);
        assert_eq!(s.early_stopped, 1);
        assert_eq!(s.shed, 1);
        assert_eq!(s.iterations_total, 535);
        assert_eq!(s.decode_ns, 6_000);
        assert_eq!(s.iteration_histogram[5], 1);
        assert_eq!(s.iteration_histogram[30], 1);
        assert_eq!(s.iteration_histogram[ITERATION_BUCKETS - 1], 1);
        assert_eq!(s.histogram_total(), s.decoded);
        assert!((s.mean_iterations() - 535.0 / 3.0).abs() < 1e-12);
        assert!((s.ns_per_frame() - 2_000.0).abs() < 1e-12);
    }

    #[test]
    fn watermarks_only_rise() {
        let core = StatsCore::default();
        StatsCore::raise_watermark(&core.ingress_watermark, 4);
        StatsCore::raise_watermark(&core.ingress_watermark, 2);
        StatsCore::raise_watermark(&core.ingress_watermark, 9);
        assert_eq!(core.snapshot().ingress_watermark, 9);
    }

    #[test]
    fn watermark_never_under_reports_under_contention() {
        // The watermark is a single `fetch_max`: one atomic read-modify-
        // write, so no interleaving of concurrent raises can lose the
        // maximum (a load-compare-store sequence could). Hammer it from
        // several threads with interleaved rising/falling depths and
        // assert the final value is exactly the global maximum, every run.
        for round in 0..20usize {
            let core = StatsCore::default();
            let threads = 4usize;
            let per_thread = 500usize;
            let global_max = (threads - 1) * per_thread + (per_thread - 1);
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let slot = &core.reorder_watermark;
                    scope.spawn(move || {
                        for i in 0..per_thread {
                            // Rising then falling within each thread, so
                            // late *smaller* raises race against earlier
                            // larger ones from other threads.
                            StatsCore::raise_watermark(slot, t * per_thread + i);
                            StatsCore::raise_watermark(slot, i / 2);
                        }
                    });
                }
            });
            assert_eq!(
                core.snapshot().reorder_watermark,
                global_max,
                "round {round}: watermark under-reported the deepest occupancy"
            );
        }
    }

    #[test]
    fn latency_bucket_geometry_is_monotone_and_self_consistent() {
        // Every bucket's floor maps back to that bucket, and bucket indexes
        // never decrease as values grow.
        for bucket in 0..LATENCY_BUCKETS {
            let floor = latency_bucket_floor_ns(bucket);
            assert_eq!(latency_bucket(floor), bucket, "floor of bucket {bucket}");
        }
        let mut last = 0usize;
        for ns in [0u64, 1, 15, 16, 17, 31, 32, 1_000, 1_000_000, 1_000_000_000, u64::MAX] {
            let b = latency_bucket(ns);
            assert!(b >= last, "bucket regressed at {ns}");
            last = b;
        }
        assert_eq!(latency_bucket(u64::MAX), LATENCY_BUCKETS - 1, "saturates");
        // Relative bucket width stays within 1/16 above the linear range.
        for bucket in 16..LATENCY_BUCKETS - 1 {
            let floor = latency_bucket_floor_ns(bucket);
            let next = latency_bucket_floor_ns(bucket + 1);
            assert!((next - floor) as f64 / floor as f64 <= 1.0 / 16.0 + 1e-12, "bucket {bucket}");
        }
    }

    #[test]
    fn iteration_quantiles_are_exact_nearest_rank() {
        let core = StatsCore::default();
        // 90 one-iteration frames, 9 ten-iteration frames, 1 forty.
        for _ in 0..90 {
            core.record_decode(1, true, false, 0);
        }
        for _ in 0..9 {
            core.record_decode(10, false, false, 0);
        }
        core.record_decode(40, false, false, 0);
        let s = core.snapshot();
        assert_eq!(s.iteration_quantile(0.50), 1);
        assert_eq!(s.iteration_quantile(0.90), 1);
        assert_eq!(s.iteration_quantile(0.99), 10);
        assert_eq!(s.iteration_quantile(0.999), 40);
        assert_eq!(s.iteration_quantile(1.0), 40);
        assert_eq!(StatsCore::default().snapshot().iteration_quantile(0.5), 0, "empty");
    }

    #[test]
    fn latency_quantiles_track_recorded_values() {
        let core = StatsCore::default();
        for _ in 0..99 {
            core.latency.record(1_000);
        }
        core.latency.record(1_000_000);
        let s = core.snapshot().latency;
        let p50 = s.quantile_ns(0.50);
        assert!((992..=1_000).contains(&p50), "p50 {p50} within one bucket below 1000");
        let p999 = s.quantile_ns(0.999);
        assert!(p999 > 900_000 && p999 <= 1_000_000, "p999 {p999}");
        assert_eq!(s.max_ns, 1_000_000);
        assert!((s.mean_ns() - 10_990.0).abs() < 1e-9);
    }

    #[test]
    fn latency_quantiles_round_trip_the_shared_geometry() {
        let recorder = LatencyRecorder::default();
        for _ in 0..999 {
            recorder.record(10_000);
        }
        recorder.record(5_000_000);
        let s = recorder.snapshot();
        assert_eq!(s.count(), 1000);
        let p50 = s.quantile_ns(0.5);
        assert!((9_376..=10_000).contains(&p50), "p50 {p50} one bucket below 10us");
        let p999 = s.quantile_ns(0.999);
        assert!(p999 <= 10_000, "p999 rank 999 still lands on the 10us mass");
        assert_eq!(s.max_ns, 5_000_000);
    }

    #[test]
    fn rates_are_defined_on_the_empty_pipeline() {
        let s = StatsCore::default().snapshot();
        assert_eq!(s.latency.mean_ns(), 0.0);
        assert_eq!(s.mean_iterations(), 0.0);
        assert_eq!(s.early_stop_rate(), 0.0);
        assert_eq!(s.ns_per_frame(), 0.0);
    }
}
