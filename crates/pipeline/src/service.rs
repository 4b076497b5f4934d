//! The streaming decode service: ingress → worker pool → in-order egress,
//! with backpressure and iteration-budget admission control.
//!
//! ```text
//!  try_submit/submit          workers (N)                          next_decoded
//!  ───────────────▶ ingress ═════════════▶ egress: per-stream ═▶ ready ───────────▶
//!    (seq claimed)   Mutex     decode_into   Mutex: reorder        in seq
//! ```
//!
//! Design points, each load-bearing:
//!
//! * **Each stage is one mutex.** Ingress holds the queued frames, the next
//!   sequence number and the closed flag; the [`Egress`] holds one reorder
//!   buffer per stream, the in-order ready queue and the count of running
//!   workers. The pipeline never holds both locks at once, and no decode
//!   runs under either. A shard ([`DecodePipeline::start_shard`]) is the
//!   same pool releasing into an egress other pools share; a standalone
//!   pipeline is its one-stream case.
//! * **Sequence numbers are claimed only when the ingress push succeeds** —
//!   under the ingress lock, so a rejected frame burns no sequence number
//!   and the reorder buffer never waits for a frame that does not exist.
//! * **Backpressure is explicit.** [`DecodePipeline::try_submit`] hands the
//!   frame back in [`SubmitError::Rejected`]; nothing is silently dropped.
//!   The in-flight cap counts a frame from admission until a consumer takes
//!   it, so it bounds every stage and workers never wait on egress.
//! * **Admission control sheds iterations before frames.** Under ingress
//!   pressure the per-frame iteration cap steps down the
//!   [`AdmissionController`] ladder (paper Table 3 run backwards) before
//!   the queue ever rejects.
//! * **Workers take one frame at a time**: pop, decode, emit. A worker never
//!   holds an admitted frame it is not decoding, so an idle sibling can
//!   always take the next one and the depth a pop leaves behind — the
//!   occupancy admission reads — counts every waiting frame.
//! * **Egress is in order.** A worker inserts its frame into its stream's
//!   reorder buffer and moves the in-order run to the ready queue in one
//!   critical section, stamping each frame as it is released. A consumer
//!   sees each stream's frames in exact submission order.

use crate::admission::{AdmissionController, AdmissionPolicy};
use crate::health::{QuarantinePolicy, WorkerFaultInjection, WorkerHealth};
use crate::reorder::ReleaseBuffer;
use crate::stats::{PipelineStats, StatsCore};
use dvbs2::{ModcodEntry, ModcodTable};
use dvbs2_channel::{LlrFrame, StreamKey};
use dvbs2_decoder::{syndrome_weight, DecodeResult, Decoder};
use dvbs2_ldpc::BitVec;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One frame of demapped soft bits entering the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct SoftFrame {
    /// MODCOD slot into the pipeline's [`ModcodTable`].
    pub modcod: usize,
    /// Caller's stream position (carried through, not interpreted).
    pub stream_index: u64,
    /// Channel LLRs, length `N` of the slot's code.
    pub llrs: Vec<f64>,
}

impl From<LlrFrame> for SoftFrame {
    fn from(frame: LlrFrame) -> Self {
        SoftFrame {
            modcod: frame.tag.modcod,
            stream_index: frame.tag.stream_index,
            llrs: frame.llrs,
        }
    }
}

/// One decoded frame leaving the pipeline, in submission order.
///
/// Equality compares the decoded payload and metadata but **not** the
/// timestamps, so two decodes of the same frame on different pipelines
/// compare equal (the property shard-invariance tests rely on).
#[derive(Debug, Clone)]
pub struct DecodedFrame {
    /// Sequence number in its stream (standalone: submission order, gap-free).
    pub seq: u64,
    /// The submitter's stream position, carried through.
    pub stream_index: u64,
    /// MODCOD slot the frame decoded under.
    pub modcod: usize,
    /// Hard decisions for the full codeword (`N` bits).
    pub bits: BitVec,
    /// Information length `K` of the slot's code.
    pub info_len: usize,
    /// Iterations the decoder spent.
    pub iterations: usize,
    /// Whether the decoder converged to a codeword.
    pub converged: bool,
    /// The iteration cap this frame actually ran under (lower than the
    /// slot's configured cap when admission control shed load).
    pub iteration_cap: usize,
    /// When the frame entered the ingress queue (sequence claimed).
    pub accepted_at: Instant,
    /// When the egress stage released the frame in order, after every
    /// earlier frame.
    pub emitted_at: Instant,
}

impl PartialEq for DecodedFrame {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
            && self.stream_index == other.stream_index
            && self.modcod == other.modcod
            && self.bits == other.bits
            && self.info_len == other.info_len
            && self.iterations == other.iterations
            && self.converged == other.converged
            && self.iteration_cap == other.iteration_cap
    }
}

impl Eq for DecodedFrame {}

impl DecodedFrame {
    /// The decoded BBFRAME: the systematic (information) prefix of the
    /// codeword, which is what the outer BCH layer consumes.
    pub fn bbframe(&self) -> BitVec {
        (0..self.info_len).map(|i| self.bits.get(i)).collect()
    }

    /// End-to-end pipeline residence time: ingress admission to in-order
    /// egress.
    pub fn latency(&self) -> Duration {
        self.emitted_at.saturating_duration_since(self.accepted_at)
    }
}

/// A point-in-time view of the worker fleet's health, exported so a
/// multi-shard service tier can route traffic away from degraded shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineHealth {
    /// Workers the pipeline was started with.
    pub workers: usize,
    /// Workers currently out of rotation in syndrome-anomaly quarantine.
    pub quarantined_now: usize,
    /// Cumulative fault suspicions raised by the anomaly detector.
    pub faults_suspected: u64,
    /// Cumulative reinstatements after known-answer probes passed.
    pub reinstatements: u64,
}

impl PipelineHealth {
    /// Whether any worker is currently quarantined — the signal a service
    /// tier uses to migrate streams off this shard.
    pub fn degraded(&self) -> bool {
        self.quarantined_now > 0
    }

    /// Workers currently in rotation: started minus quarantined. The
    /// quarantine gate never takes the last worker, so this only reaches
    /// zero if the pipeline was somehow started with none.
    pub fn healthy_workers(&self) -> usize {
        self.workers.saturating_sub(self.quarantined_now)
    }
}

/// Why a submission did not enter the pipeline. Every variant returns the
/// frame so the caller can retry, requeue or count it.
#[derive(Debug, PartialEq)]
pub enum SubmitError {
    /// Backpressure: the ingress queue or the in-flight budget is full.
    Rejected(SoftFrame),
    /// The frame's MODCOD slot is not in the table.
    UnknownModcod(SoftFrame),
    /// The frame's LLR length does not match its slot's codeword length.
    WrongLength {
        /// The rejected frame.
        frame: SoftFrame,
        /// The slot's expected codeword length.
        expected: usize,
    },
    /// The pipeline is shutting down.
    ShutDown(SoftFrame),
}

impl SubmitError {
    /// Recovers the frame from any variant.
    pub fn into_frame(self) -> SoftFrame {
        match self {
            SubmitError::Rejected(f) | SubmitError::UnknownModcod(f) | SubmitError::ShutDown(f) => {
                f
            }
            SubmitError::WrongLength { frame, .. } => frame,
        }
    }
}

/// Service configuration.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Worker threads decoding frames.
    pub workers: usize,
    /// Ingress queue capacity (frames): the most admitted frames waiting
    /// for a worker. At least one.
    pub ingress_capacity: usize,
    /// Total frames allowed inside the pipeline at once, from admission
    /// until a consumer takes the frame (ingress + in decode + reorder +
    /// ready). Bounds memory end to end; egress has no other bound.
    pub max_in_flight: usize,
    /// Load-shedding policy.
    pub admission: AdmissionPolicy,
    /// Syndrome-anomaly quarantine policy (disabled by default).
    pub quarantine: QuarantinePolicy,
    /// Test/bench hook: deterministically corrupt one worker's input
    /// datapath (see [`WorkerFaultInjection`]). `None` in production.
    pub fault_injection: Option<WorkerFaultInjection>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            workers: dvbs2_channel::default_threads(),
            ingress_capacity: 64,
            max_in_flight: 160,
            admission: AdmissionPolicy::Off,
            quarantine: QuarantinePolicy::default(),
            fault_injection: None,
        }
    }
}

struct WorkItem {
    stream: StreamKey,
    seq: u64,
    accepted_at: Instant,
    frame: SoftFrame,
}

/// The ingress stage: what submitters and workers share, under one lock.
struct Ingress {
    items: VecDeque<WorkItem>,
    /// The sequence number the next admitted frame claims.
    next_seq: u64,
    /// Set when ingress closes: submissions fail, and workers exit once
    /// `items` drains.
    closed: bool,
}

/// A decoded frame leaving an [`Egress`].
#[derive(Debug)]
pub struct Released {
    /// The frame's stream; `frame.seq` is its place in it.
    pub stream: StreamKey,
    /// `(uid, epoch)` of the shard that decoded it; `(0, 0)` standalone.
    pub shard: (u64, u64),
    /// The frame, stamped `emitted_at` when it is released.
    pub frame: DecodedFrame,
}

/// The egress stage of every pool that releases into it: one reorder buffer
/// per stream, the ready queue and the running workers, under one lock.
#[derive(Debug, Default)]
pub struct Egress {
    state: Mutex<EgressState>,
    /// Signalled on every release and worker exit; consumers wait here.
    released: Condvar,
    stats: Arc<StatsCore>,
}

#[derive(Debug, Default)]
struct EgressState {
    streams: HashMap<StreamKey, ReleaseBuffer<Released>>,
    ready: VecDeque<Released>,
    /// Running workers; the egress is closed once this reaches zero.
    workers: usize,
}

struct Shared {
    table: ModcodTable,
    config: PipelineConfig,
    /// A shard's `(uid, epoch)` label (a unit returns at the egress); `None`
    /// standalone (a unit returns when a consumer takes the frame).
    shard: Option<(u64, u64)>,
    stats: Arc<StatsCore>,
    admission: AdmissionController,
    ingress: Mutex<Ingress>,
    /// Signalled when a frame is queued or ingress closes; idle workers
    /// wait here.
    work: Condvar,
    /// Signalled whenever pipeline space frees (ingress pop or consumption)
    /// or ingress closes; blocking submitters wait here.
    space: Condvar,
    egress: Arc<Egress>,
}

/// The streaming decode service. See the module docs for the stage graph.
pub struct DecodePipeline {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl DecodePipeline {
    /// Starts the worker pool over a MODCOD dispatch table.
    ///
    /// # Panics
    ///
    /// Panics on a configuration that cannot run: zero workers, an empty
    /// table, a zero ingress capacity or a zero in-flight budget.
    pub fn start(table: ModcodTable, config: PipelineConfig) -> Self {
        Self::spawn(table, config, Arc::default(), None)
    }

    /// Starts a shard: a pool releasing into the shared `egress` (which
    /// counts its workers before this returns), each frame labelled `shard`,
    /// fed by [`DecodePipeline::try_submit_at`]. Panics as `start` does.
    pub fn start_shard(
        table: ModcodTable,
        config: PipelineConfig,
        egress: &Arc<Egress>,
        shard: (u64, u64),
    ) -> Self {
        Self::spawn(table, config, Arc::clone(egress), Some(shard))
    }

    fn spawn(
        table: ModcodTable,
        config: PipelineConfig,
        egress: Arc<Egress>,
        shard: Option<(u64, u64)>,
    ) -> Self {
        assert!(config.workers > 0, "the pipeline needs at least one worker");
        assert!(!table.is_empty(), "the MODCOD table must define at least one slot");
        assert!(config.ingress_capacity > 0, "the ingress queue needs room for at least one frame");
        assert!(config.max_in_flight >= 1, "the in-flight budget must admit a frame");
        // Counted before any worker runs, so the egress cannot close early.
        egress.lock().workers += config.workers;
        let shared = Arc::new(Shared {
            admission: AdmissionController::new(config.admission, &table),
            shard,
            stats: if shard.is_some() { Arc::default() } else { Arc::clone(&egress.stats) },
            ingress: Mutex::new(Ingress {
                items: VecDeque::with_capacity(config.ingress_capacity),
                next_seq: 0,
                closed: false,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            egress,
            table,
            config,
        });
        let workers = (0..config.workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("decode-worker-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawning a decode worker")
            })
            .collect();
        DecodePipeline { shared, workers }
    }

    fn validate(&self, frame: SoftFrame) -> Result<SoftFrame, SubmitError> {
        let Some(entry) = self.shared.table.lookup(frame.modcod) else {
            return Err(SubmitError::UnknownModcod(frame));
        };
        let expected = entry.frame_len();
        if frame.llrs.len() != expected {
            return Err(SubmitError::WrongLength { frame, expected });
        }
        Ok(frame)
    }

    /// Offers a frame without blocking. On success the frame's sequence
    /// number (its position in the egress order) is returned; on
    /// backpressure the frame comes back in [`SubmitError::Rejected`].
    pub fn try_submit(&self, frame: SoftFrame) -> Result<u64, SubmitError> {
        self.offer(frame, None)
    }

    /// [`DecodePipeline::try_submit`] for a shard: the caller places the frame
    /// at `(stream, seq)`, and claims `seq` only when this succeeds.
    pub fn try_submit_at(
        &self,
        frame: SoftFrame,
        at: (StreamKey, u64),
    ) -> Result<u64, SubmitError> {
        self.offer(frame, Some(at))
    }

    fn offer(&self, frame: SoftFrame, place: Option<(StreamKey, u64)>) -> Result<u64, SubmitError> {
        let shared = &*self.shared;
        let frame = self.validate(frame)?;
        shared.stats.offered.fetch_add(1, Ordering::Relaxed);
        let admitted = shared.admit(
            &mut shared.ingress.lock().expect("no panics hold the ingress lock"),
            frame,
            place,
        );
        match admitted {
            Ok(_) => shared.work.notify_one(),
            Err(SubmitError::Rejected(_)) => {
                shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {}
        }
        admitted
    }

    /// Submits a frame, blocking while the pipeline is full. Fails only
    /// with [`SubmitError::ShutDown`] (or a validation error).
    pub fn submit(&self, frame: SoftFrame) -> Result<u64, SubmitError> {
        let shared = &*self.shared;
        let mut frame = self.validate(frame)?;
        shared.stats.offered.fetch_add(1, Ordering::Relaxed);
        let mut ingress = shared.ingress.lock().expect("no panics hold the ingress lock");
        loop {
            match shared.admit(&mut ingress, frame, None) {
                Err(SubmitError::Rejected(back)) => frame = back,
                admitted => {
                    drop(ingress);
                    if admitted.is_ok() {
                        shared.work.notify_one();
                    }
                    return admitted;
                }
            }
            // Consumers free in-flight room without the ingress lock, so a
            // wakeup can be missed; the timeout bounds that wait.
            ingress = shared
                .space
                .wait_timeout(ingress, Duration::from_millis(10))
                .expect("no panics hold the ingress lock")
                .0;
        }
    }

    /// The next decoded frame in submission order, blocking until one is
    /// ready. Returns `None` once every worker has exited and every frame
    /// has been consumed.
    pub fn next_decoded(&self) -> Option<DecodedFrame> {
        let frame = self.shared.egress.next()?.frame;
        self.shared.consumed();
        Some(frame)
    }

    /// A consistent-at-quiescence snapshot of the pipeline counters.
    pub fn stats(&self) -> PipelineStats {
        self.shared.stats.snapshot()
    }

    /// The current worker-fleet health, for shard-level routing decisions.
    pub fn health(&self) -> PipelineHealth {
        let stats = &self.shared.stats;
        PipelineHealth {
            workers: self.shared.config.workers,
            quarantined_now: stats.quarantined_now.load(Ordering::Relaxed),
            faults_suspected: stats.faults_suspected.load(Ordering::Relaxed),
            reinstatements: stats.reinstatements.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting new frames without joining the workers: already
    /// admitted frames keep decoding and draining to egress. Used by a
    /// service tier to drain a shard before retiring it — call
    /// [`DecodePipeline::finish`] (or drop) afterwards to join.
    pub fn close_ingress(&self) {
        let shared = &*self.shared;
        shared.ingress.lock().expect("no panics hold the ingress lock").closed = true;
        shared.work.notify_all();
        shared.space.notify_all();
    }

    /// The dispatch table the pipeline serves.
    pub fn table(&self) -> &ModcodTable {
        &self.shared.table
    }

    /// The configuration the pipeline was started with.
    pub fn config(&self) -> &PipelineConfig {
        &self.shared.config
    }

    /// Frames inside the pipeline until a consumer takes them (ingress +
    /// decode + reorder + ready). A single atomic load — cheap enough for
    /// per-frame routing and SLA decisions in a front-end tier.
    pub fn in_flight(&self) -> usize {
        self.shared.stats.in_flight.load(Ordering::Relaxed)
    }

    /// Stops accepting frames, decodes everything already admitted, joins
    /// the workers and returns the final counters. Workers never wait on a
    /// consumer, so `finish` returns whether or not anyone drains egress;
    /// frames not consumed by then are released with the pipeline.
    pub fn finish(mut self) -> PipelineStats {
        self.shutdown();
        self.shared.stats.snapshot()
    }

    /// Whether every worker has exited: dropping the pool then joins nothing.
    pub fn is_drained(&self) -> bool {
        self.workers.iter().all(JoinHandle::is_finished)
    }

    fn shutdown(&mut self) {
        self.close_ingress();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for DecodePipeline {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Shared {
    /// Admits `frame` under the ingress lock at `place` (by default the
    /// next sequence number) and queues it, or hands it back when ingress
    /// is closed or the in-flight budget or the queue is full.
    fn admit(
        &self,
        ingress: &mut Ingress,
        frame: SoftFrame,
        place: Option<(StreamKey, u64)>,
    ) -> Result<u64, SubmitError> {
        if ingress.closed {
            return Err(SubmitError::ShutDown(frame));
        }
        if ingress.items.len() >= self.config.ingress_capacity
            || self.stats.in_flight.load(Ordering::Relaxed) >= self.config.max_in_flight
        {
            return Err(SubmitError::Rejected(frame));
        }
        let (stream, seq) = place.unwrap_or_else(|| {
            ingress.next_seq += 1;
            (StreamKey::new(0, 0), ingress.next_seq - 1)
        });
        ingress.items.push_back(WorkItem { stream, seq, accepted_at: Instant::now(), frame });
        self.stats.in_flight.fetch_add(1, Ordering::Relaxed);
        self.stats.submitted.fetch_add(1, Ordering::Relaxed);
        StatsCore::raise_watermark(&self.stats.ingress_watermark, ingress.items.len());
        Ok(seq)
    }

    /// The next admitted frame and the ingress depth it leaves behind,
    /// waiting while ingress is empty. `None` once ingress is closed and
    /// drained.
    fn next_work(&self) -> Option<(WorkItem, usize)> {
        let mut ingress = self.ingress.lock().expect("no panics hold the ingress lock");
        loop {
            if let Some(item) = ingress.items.pop_front() {
                let depth = ingress.items.len();
                drop(ingress);
                self.space.notify_all();
                return Some((item, depth));
            }
            if ingress.closed {
                return None;
            }
            ingress = self.work.wait(ingress).expect("no panics hold the ingress lock");
        }
    }

    /// Hands a decoded frame to the egress. A shard's in-flight unit returns
    /// here, after one yield: a worker woken onto its submitter's CPU may
    /// have preempted that submitter, which then still decides its next
    /// admit before the unit returns, as it would with the worker elsewhere.
    fn release(&self, stream: StreamKey, frame: DecodedFrame) {
        self.egress.release(Released { stream, shard: self.shard.unwrap_or_default(), frame });
        if self.shard.is_some() {
            std::thread::yield_now();
            self.consumed();
        }
    }

    /// Returns a frame's in-flight unit: its room frees.
    fn consumed(&self) {
        self.stats.in_flight.fetch_sub(1, Ordering::Relaxed);
        self.space.notify_all();
    }
}

impl Egress {
    /// The release counters (`emitted`, `dropped`, `reorder_watermark`,
    /// `latency`) of every frame released here.
    pub fn stats(&self) -> &StatsCore {
        &self.stats
    }

    fn lock(&self) -> MutexGuard<'_, EgressState> {
        self.state.lock().expect("no panics hold the egress lock")
    }

    /// Holds `frame` in its stream and moves the stream's in-order run to
    /// the ready queue, stamping and counting each frame it releases.
    fn release(&self, frame: Released) {
        let mut guard = self.lock();
        let state = &mut *guard;
        let stream = state.streams.entry(frame.stream).or_default();
        stream.insert(frame.frame.seq, frame);
        StatsCore::raise_watermark(&self.stats.reorder_watermark, stream.pending());
        let now = Instant::now();
        while let Some(mut out) = stream.pop() {
            out.frame.emitted_at = now;
            self.stats.latency.record(out.frame.latency().as_nanos() as u64);
            self.stats.emitted.fetch_add(1, Ordering::Relaxed);
            state.ready.push_back(out);
        }
        drop(guard);
        self.released.notify_all();
    }

    /// A worker's exit. The last worker out closes the egress; frames still
    /// held behind a gap then wait on a frame that will never arrive, so
    /// they are counted as dropped rather than hanging a consumer.
    fn worker_exited(&self) {
        let mut state = self.lock();
        state.workers -= 1;
        if state.workers == 0 {
            let stuck: usize = state.streams.values_mut().map(|s| s.take_stuck().len()).sum();
            self.stats.dropped.fetch_add(stuck as u64, Ordering::Relaxed);
        }
        drop(state);
        self.released.notify_all();
    }

    /// The next released frame, blocking until one is ready. Returns `None`
    /// once every worker has exited and every frame has been taken.
    pub fn next(&self) -> Option<Released> {
        let mut state = self.lock();
        loop {
            if let Some(out) = state.ready.pop_front() {
                return Some(out);
            }
            if state.workers == 0 {
                return None;
            }
            state = self.released.wait(state).expect("no panics hold the egress lock");
        }
    }

    /// The next released frame if one is ready right now.
    pub fn try_next(&self) -> Option<Released> {
        self.lock().ready.pop_front()
    }

    /// Frames released so far, per stream.
    pub fn released_per_stream(&self) -> Vec<(StreamKey, u64)> {
        self.lock().streams.iter().map(|(key, stream)| (*key, stream.released())).collect()
    }
}

/// Pops frames from ingress and decodes them one at a time until ingress
/// closes and drains; the last worker out accounts stuck frames and closes
/// egress.
///
/// When the quarantine policy is enabled the worker also runs the
/// syndrome-anomaly detector over its own decodes and takes itself out of
/// rotation (stops consuming ingress; traffic implicitly re-routes to the
/// other workers) when its statistics look like a hardware fault rather
/// than a hard channel. Quarantine begins only between frames, where the
/// worker holds nothing popped and un-emitted — no frame is dropped or
/// reordered by the transition.
fn worker_loop(shared: &Shared, worker: usize) {
    let policy = shared.config.quarantine;
    let injection = shared.config.fault_injection;
    let mut health = WorkerHealth::new();
    // Frames *and* probes this worker has decoded — the clock the fault
    // injection window is defined over.
    let mut decode_count: u64 = 0;
    let mut decoders: HashMap<usize, Box<dyn Decoder + Send>> = HashMap::new();
    let mut scratch = DecodeResult::default();

    while let Some((mut item, depth)) = shared.next_work() {
        if let Some(inj) = injection {
            if inj.corrupts(worker, decode_count) {
                WorkerFaultInjection::corrupt_llrs(&mut item.frame.llrs);
            }
        }
        decode_count += 1;

        let slot = item.frame.modcod;
        let entry = shared.table.entry(slot);
        let decoder = decoders.entry(slot).or_insert_with(|| entry.make_decoder());
        let occupancy = depth as f64 / shared.config.ingress_capacity as f64;
        let cap = shared.admission.cap_for(slot, occupancy);
        let base_cap = shared.admission.base_cap(slot);
        decoder.set_max_iterations(cap);
        let started = Instant::now();
        decoder.decode_into(&item.frame.llrs, &mut scratch);
        let ns = started.elapsed().as_nanos() as u64;
        let early = scratch.converged && scratch.iterations < cap;
        shared.stats.record_decode(scratch.iterations, early, cap < base_cap, ns);
        if policy.enabled {
            health.observe(&policy, scratch.converged, residual_fraction(entry, &scratch));
        }

        let frame = DecodedFrame {
            seq: item.seq,
            stream_index: item.frame.stream_index,
            modcod: slot,
            bits: scratch.bits.clone(),
            info_len: entry.info_len(),
            iterations: scratch.iterations,
            converged: scratch.converged,
            iteration_cap: cap,
            accepted_at: item.accepted_at,
            emitted_at: item.accepted_at,
        };
        // The frame takes its in-flight unit along; the unit returns when a
        // consumer takes the frame.
        shared.release(item.stream, frame);

        // The frame has been emitted, so quarantining here drops and
        // reorders nothing: this worker simply stops consuming ingress and
        // the others absorb the traffic.
        if policy.enabled && health.suspect(&policy) {
            shared.stats.faults_suspected.fetch_add(1, Ordering::Relaxed);
            if try_enter_quarantine(shared) {
                // The known-answer probes run against the slot just served.
                let reinstated =
                    quarantine(shared, worker, (slot, entry), &mut decoders, &mut decode_count);
                health.reset();
                if !reinstated {
                    // Shutdown arrived while quarantined; fall through to
                    // the normal worker-exit accounting.
                    break;
                }
            } else {
                // This is the last healthy worker: degraded service beats
                // no service, so keep decoding and make the verdict
                // re-accumulate from fresh evidence instead of firing on
                // every frame.
                health.reset();
            }
        }
    }

    shared.egress.worker_exited();
}

/// The fraction of unsatisfied check equations left in a finished decode —
/// the second axis of the fault signature. A converged frame satisfies
/// every check by definition, so the syndrome is only counted on failures.
fn residual_fraction(entry: &ModcodEntry, out: &DecodeResult) -> f64 {
    if out.converged {
        0.0
    } else {
        let graph = entry.system().graph();
        syndrome_weight(graph, &out.bits) as f64 / graph.check_count() as f64
    }
}

/// Atomically claims a quarantine slot, unless doing so would leave fewer
/// than one healthy worker (a fleet must never quarantine itself whole).
fn try_enter_quarantine(shared: &Shared) -> bool {
    let quarantined = &shared.stats.quarantined_now;
    loop {
        let current = quarantined.load(Ordering::Relaxed);
        if shared.config.workers - current <= 1 {
            return false;
        }
        if quarantined
            .compare_exchange(current, current + 1, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            return true;
        }
    }
}

/// The quarantine loop: out of rotation, re-probe with a known-answer test
/// vector until [`QuarantinePolicy::probe_passes`] consecutive passes
/// reinstate the worker. The known answer is the all-zero codeword received
/// strongly — every slot's decoder converges on it in one iteration when
/// healthy, and a corrupted datapath cannot fake all three of convergence,
/// the all-zero word and the probe cadence. Returns `false` if shutdown
/// arrived first (the worker then exits still quarantined).
///
/// Probes advance the worker's decode counter through the same fault
/// injection hook as real frames, so a windowed (transient) fault heals
/// under probing and a permanent one keeps failing — exactly the
/// transient/hard distinction the detector exists to draw.
fn quarantine(
    shared: &Shared,
    worker: usize,
    (slot, entry): (usize, &ModcodEntry),
    decoders: &mut HashMap<usize, Box<dyn Decoder + Send>>,
    decode_count: &mut u64,
) -> bool {
    let policy = shared.config.quarantine;
    shared.stats.quarantines.fetch_add(1, Ordering::Relaxed);
    let n = entry.frame_len();
    let decoder = decoders.entry(slot).or_insert_with(|| entry.make_decoder());
    decoder.set_max_iterations(shared.admission.base_cap(slot));
    let mut probe = DecodeResult::default();
    let mut consecutive_passes = 0u32;
    while !shared.ingress.lock().expect("no panics hold the ingress lock").closed {
        std::thread::sleep(Duration::from_millis(policy.probe_interval_ms));
        shared.stats.probes_run.fetch_add(1, Ordering::Relaxed);
        let mut llrs = vec![6.0f64; n];
        if let Some(inj) = shared.config.fault_injection {
            if inj.corrupts(worker, *decode_count) {
                WorkerFaultInjection::corrupt_llrs(&mut llrs);
            }
        }
        *decode_count += 1;
        // Probes are not frames: they bypass ingress/egress and the decode
        // counters, so pipeline invariants (submitted == emitted + dropped)
        // are untouched by however long quarantine lasts.
        decoder.decode_into(&llrs, &mut probe);
        if probe.converged && (0..n).all(|i| !probe.bits.get(i)) {
            consecutive_passes += 1;
            if consecutive_passes >= policy.probe_passes {
                shared.stats.reinstatements.fetch_add(1, Ordering::Relaxed);
                shared.stats.quarantined_now.fetch_sub(1, Ordering::Relaxed);
                return true;
            }
        } else {
            consecutive_passes = 0;
            shared.stats.probes_failed.fetch_add(1, Ordering::Relaxed);
        }
    }
    false
}
