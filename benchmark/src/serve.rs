//! The two serving workloads: one `ServiceTier` shape (2 shards × 1 worker,
//! admission off) driven two ways.
//!
//! * `serve_mixed_default` — default decoder profiles near each rate's
//!   waterfall, constant-MODCOD streams: decode is nearly all of the work.
//! * `serve_clear_sky` — batchable min-sum profiles 6 dB above the anchors,
//!   MODCOD rotating per frame: decode is tiny, so queueing, batching,
//!   wake-ups, routing and reorder show.
//!
//! Each run has a closed-loop phase (throughput at saturation) and an
//! open-loop phase at 0.6 × that rate (latency from each frame's due time).

use crate::common::{median_setup, Run, SETUP_MAX, SETUP_SHARE};
use crate::frames::{frame_seed, FrameSource, GenTimes};
use crate::loadgen::{pace, Lateness, RealClock, Schedule};
use crate::metrics::Outcome;
use crate::proc::{cpu_seconds, peak_rss_mb};
use crate::stats::{median, percentile_of, quiet_percentile, quiet_rate_of, quiet_time_of};
use crate::trace::{self_time_ns, write_jsonl, Span};
use dvbs2::channel::{Modulation, StreamKey};
use dvbs2::decoder::{CheckRule, DecodeResult, DecoderConfig, Precision};
use dvbs2::ldpc::{BitVec, CodeRate, FrameSize};
use dvbs2::{DecoderKind, DecoderProfile, Dvbs2System, Modcod, ModcodTable, SystemConfig};
use dvbs2_pipeline::{AdmissionPolicy, DecodePipeline, PipelineConfig, SoftFrame, SubmitError};
use dvbs2_service::{ServiceConfig, ServiceError, ServiceFrame, ServiceTier, TenantPolicy};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The four MODCOD slots (short frames, QPSK): rate, metric label, and the
/// Eb/N0 in dB at which the default profile does real iteration work.
const SLOTS: [(CodeRate, &str, f64); 4] = [
    (CodeRate::R1_4, "r1_4", 2.2),
    (CodeRate::R1_2, "r1_2", 1.4),
    (CodeRate::R3_4, "r3_4", 2.8),
    (CodeRate::R8_9, "r8_9", 4.2),
];

/// How far above the anchors `serve_clear_sky` transmits.
const CLEAR_SKY_MARGIN_DB: f64 = 6.0;

const SHARDS: usize = 2;
const TENANT_BUDGET: usize = 16;

/// The closed-loop window is cut into at most this many equal-count
/// windows, each a whole number of strides of `RATE_STRIDE_ROUNDS` frames
/// per stream (the consumer samples the CPU clock once per stride), and
/// throughput and CPU cost are the quiet decile over them.
const RATE_WINDOWS: usize = 128;
const RATE_STRIDE_ROUNDS: usize = 4;

/// Open-loop latencies are cut into windows of about this many samples in
/// delivery order, and p50 and p95 are the quiet decile of the windows'
/// own: two samples beyond a window's p95, and enough windows even at
/// twenty frames a second to catch the host holding still.
const LATENCY_WINDOW: usize = 40;

/// Open-loop offered load as a share of the measured closed-loop rate.
const OPEN_LOOP_LOAD: f64 = 0.6;

/// How long a refused frame waits before it is offered again.
const CLOSED_LOOP_RETRY: Duration = Duration::from_micros(100);
const OPEN_LOOP_RETRY: Duration = Duration::from_micros(200);

/// What distinguishes the two workloads.
pub struct Shape {
    pub name: &'static str,
    /// Batchable min-sum profiles at high SNR with per-frame MODCOD
    /// rotation, instead of default profiles with constant-MODCOD streams.
    clear_sky: bool,
    tenants: u32,
    streams_per_tenant: u32,
    /// Distinct frames per slot; streams cycle through them.
    pool: usize,
    /// Warm-up frames per stream during set-up: enough that every decoder
    /// instance the streams will use has decoded once.
    warm_up: u64,
}

pub const MIXED_DEFAULT: Shape = Shape {
    name: "serve_mixed_default",
    clear_sky: false,
    tenants: 2,
    streams_per_tenant: 4,
    pool: 32,
    warm_up: 1,
};

pub const CLEAR_SKY: Shape = Shape {
    name: "serve_clear_sky",
    clear_sky: true,
    tenants: 4,
    streams_per_tenant: 8,
    pool: 64,
    warm_up: SLOTS.len() as u64,
};

impl Shape {
    fn streams(&self) -> usize {
        (self.tenants * self.streams_per_tenant) as usize
    }

    fn ebn0_db(&self, slot: usize) -> f64 {
        SLOTS[slot].2 + if self.clear_sky { CLEAR_SKY_MARGIN_DB } else { 0.0 }
    }

    fn table(&self) -> ModcodTable {
        let modcod = |rate| Modcod::new(Modulation::Qpsk, rate, FrameSize::Short);
        let table = if self.clear_sky {
            let profile = DecoderProfile {
                kind: DecoderKind::Flooding,
                config: DecoderConfig::default()
                    .with_rule(CheckRule::NormalizedMinSum(0.8))
                    .with_precision(Precision::F32),
            };
            ModcodTable::with_profiles(&SLOTS.map(|slot| (modcod(slot.0), profile)))
        } else {
            ModcodTable::build(&SLOTS.map(|slot| modcod(slot.0)))
        };
        table.expect("every slot is a defined short-frame code")
    }

    fn tier_config(&self, shards: usize) -> ServiceConfig {
        ServiceConfig {
            shards,
            pipeline: self.pipeline_config(1),
            tenants: (1..=self.tenants)
                .map(|tenant| TenantPolicy::throughput_bound(tenant, TENANT_BUDGET))
                .collect(),
            ..ServiceConfig::default()
        }
    }

    fn pipeline_config(&self, workers: usize) -> PipelineConfig {
        PipelineConfig { workers, admission: AdmissionPolicy::Off, ..PipelineConfig::default() }
    }
}

/// One pool frame with its answer key: the transmitted codeword, and what a
/// direct `decode_into` of the same LLRs produced and cost.
struct PoolFrame {
    llrs: Vec<f64>,
    codeword: BitVec,
    iterations: usize,
    direct_ns: u64,
}

/// The deterministic mapping from (stream, position) to a frame.
struct Traffic<'a> {
    shape: &'a Shape,
    pools: &'a [Vec<PoolFrame>],
}

impl Traffic<'_> {
    fn key(&self, stream: usize) -> StreamKey {
        let per_tenant = self.shape.streams_per_tenant as usize;
        StreamKey::new((stream / per_tenant) as u32 + 1, (stream % per_tenant) as u32)
    }

    fn stream_of(&self, key: StreamKey) -> usize {
        ((key.tenant - 1) * self.shape.streams_per_tenant + key.stream) as usize
    }

    /// The `index`-th frame of the round-robin mix: `(stream, position)`.
    fn nth(&self, index: u64) -> (usize, u64) {
        let streams = self.shape.streams() as u64;
        ((index % streams) as usize, index / streams)
    }

    /// Constant per stream (CCM) or rotating per frame (ACM).
    fn slot(&self, stream: usize, position: u64) -> usize {
        let rotation = if self.shape.clear_sky { position as usize } else { 0 };
        (stream + rotation) % SLOTS.len()
    }

    fn frame(&self, stream: usize, position: u64) -> &PoolFrame {
        let index = (stream * 7 + position as usize) % self.shape.pool;
        &self.pools[self.slot(stream, position)][index]
    }

    fn service_frame(&self, stream: usize, position: u64) -> ServiceFrame {
        ServiceFrame {
            key: self.key(stream),
            modcod: self.slot(stream, position),
            llrs: self.frame(stream, position).llrs.clone(),
        }
    }
}

struct Pools {
    pools: Vec<Vec<PoolFrame>>,
    gen: GenTimes,
    make_decoder_ms: f64,
}

/// Pool builders running side by side.
const POOL_THREADS: usize = 2;

/// One builder's share: every `POOL_THREADS`-th frame of every slot, as
/// `(slot, pool index, frame)`, with what generating them cost and what
/// `make_decoder` cost over the four slots.
fn build_pool_share(
    run: &Run,
    shape: &Shape,
    table: &ModcodTable,
    share: usize,
) -> (Vec<(usize, usize, PoolFrame)>, GenTimes, f64) {
    let mut gen = GenTimes::default();
    let mut make_decoder_ms = 0.0;
    let mut frames = Vec::new();
    let mut out = DecodeResult::default();
    for slot in 0..SLOTS.len() {
        let entry = table.entry(slot);
        let mut source = FrameSource::new(entry.system(), shape.ebn0_db(slot));
        let started = Instant::now();
        let mut decoder = entry.make_decoder();
        make_decoder_ms += started.elapsed().as_secs_f64() * 1e3;
        let class = slot as u64;
        let warm = source.frame(frame_seed(run.seed, class, u64::MAX, 0));
        decoder.decode_into(&warm.llrs, &mut out);
        // Generate first, then decode back to back, so that a frame's
        // direct time is a warm decoder's.
        let indices: Vec<usize> = (share..shape.pool).step_by(POOL_THREADS).collect();
        let mut generated: Vec<_> = indices
            .iter()
            .map(|&index| source.frame(frame_seed(run.seed, class, index as u64, 0)))
            .collect();
        for (&index, frame) in indices.iter().zip(&mut generated) {
            let mut attempt = 0;
            let direct_ns = loop {
                let started = Instant::now();
                decoder.decode_into(&frame.llrs, &mut out);
                let direct_ns = started.elapsed().as_nanos() as u64;
                if out.bits == frame.codeword {
                    break direct_ns;
                }
                attempt += 1;
                *frame = source.frame(frame_seed(run.seed, class, index as u64, attempt));
            };
            frames.push((
                slot,
                index,
                PoolFrame {
                    llrs: std::mem::take(&mut frame.llrs),
                    codeword: std::mem::take(&mut frame.codeword),
                    iterations: out.iterations,
                    direct_ns,
                },
            ));
        }
        gen.merge(source.times);
    }
    (frames, gen, make_decoder_ms)
}

/// Generates every slot's pool and decodes each frame directly, on two
/// threads. A frame the direct decode cannot recover is replaced by the
/// next attempt's frame, so no workload input fails by construction and the
/// codeword is the exact expected output of every layer above.
fn build_pools(run: &Run, shape: &Shape, table: &ModcodTable) -> Pools {
    let shares: Vec<_> = std::thread::scope(|scope| {
        let builders: Vec<_> = (0..POOL_THREADS)
            .map(|share| scope.spawn(move || build_pool_share(run, shape, table, share)))
            .collect();
        builders.into_iter().map(|b| b.join().expect("pool builder")).collect()
    });
    let mut gen = GenTimes::default();
    let mut make_decoder_ms = Vec::new();
    let mut slots: Vec<Vec<Option<PoolFrame>>> =
        (0..SLOTS.len()).map(|_| (0..shape.pool).map(|_| None).collect()).collect();
    for (frames, times, ms) in shares {
        gen.merge(times);
        make_decoder_ms.push(ms);
        for (slot, index, frame) in frames {
            slots[slot][index] = Some(frame);
        }
    }
    let pools = slots
        .into_iter()
        .map(|pool| pool.into_iter().map(|f| f.expect("every pool index is built")).collect())
        .collect();
    Pools { pools, gen, make_decoder_ms: median(&make_decoder_ms) }
}

/// What the generator knows about one admitted frame.
#[derive(Clone, Copy)]
struct Offer {
    stream: u32,
    position: u64,
    due_ns: u64,
    submit_start_ns: u64,
    submit_end_ns: u64,
}

#[derive(Default)]
struct GeneratorLog {
    offers: Vec<Offer>,
    attempts: u64,
    over_budget: u64,
    backpressure: u64,
    shed: u64,
    /// Streams whose tier-assigned sequence number was not the next one.
    sequence_gaps: u64,
}

/// Submits one frame, re-offering it after `retry` whenever the tier
/// refuses it, and logs the admitting call.
#[allow(clippy::too_many_arguments)]
fn offer(
    tier: &ServiceTier,
    traffic: &Traffic,
    run: &Run,
    next: &mut [u64],
    stream: usize,
    due_ns: Option<u64>,
    retry: Duration,
    log: &mut GeneratorLog,
) {
    let position = next[stream];
    let mut frame = traffic.service_frame(stream, position);
    loop {
        let started = Instant::now();
        log.attempts += 1;
        match tier.submit(frame) {
            Ok(sequence) => {
                let submit_start_ns = run.ns(started);
                log.offers.push(Offer {
                    stream: stream as u32,
                    position,
                    due_ns: due_ns.unwrap_or(submit_start_ns),
                    submit_start_ns,
                    submit_end_ns: run.ns(Instant::now()),
                });
                log.sequence_gaps += u64::from(sequence != position);
                next[stream] += 1;
                return;
            }
            Err(ServiceError::OverBudget(back)) => {
                log.over_budget += 1;
                frame = back;
            }
            Err(ServiceError::Backpressure(back)) => {
                log.backpressure += 1;
                frame = back;
            }
            Err(ServiceError::Shed(back)) => {
                log.shed += 1;
                frame = back;
            }
            Err(other) => panic!("the tier refused a well-formed frame: {other:?}"),
        }
        std::thread::sleep(retry);
    }
}

/// What the consumer saw of one delivered frame. The pipeline timestamps
/// are filled in only when the phase is traced.
#[derive(Clone, Copy, Default)]
struct Delivery {
    stream: u32,
    position: u64,
    pickup_ns: u64,
    shard: u64,
    info_bits: u32,
    iterations: u32,
    ok: bool,
    accepted_ns: u64,
    emitted_ns: u64,
    service_latency_ns: u64,
}

/// Shared between a phase's generator and its consumer.
struct Progress {
    /// Deliveries the consumer stops after; `u64::MAX` until known.
    target: AtomicU64,
    /// Delivery index the measured window opens at.
    measure_from: AtomicU64,
}

struct ConsumerLog {
    deliveries: Vec<Delivery>,
    order_errors: u64,
    /// Process CPU seconds when the measured window opened and after every
    /// `stride` deliveries since.
    cpu_marks: Vec<f64>,
    cpu_at_end: f64,
}

/// Blocks on `next_output` until `progress.target` deliveries, timestamping
/// each at pickup and checking it against its pool frame: per-stream order,
/// decoded bits, iteration count.
fn consume(
    tier: &ServiceTier,
    traffic: &Traffic,
    run: &Run,
    expected: &mut [u64],
    progress: &Progress,
    traced: bool,
) -> ConsumerLog {
    let stride = (RATE_STRIDE_ROUNDS * traffic.shape.streams()) as u64;
    let mut log = ConsumerLog {
        deliveries: Vec::new(),
        order_errors: 0,
        cpu_marks: Vec::new(),
        cpu_at_end: 0.0,
    };
    let mut consumed = 0u64;
    while consumed < progress.target.load(Ordering::Acquire) {
        let from = progress.measure_from.load(Ordering::Acquire);
        if consumed >= from && (consumed - from).is_multiple_of(stride) {
            log.cpu_marks.push(cpu_seconds());
        }
        let Some(output) = tier.next_output() else { break };
        let pickup_ns = run.ns(Instant::now());
        let stream = traffic.stream_of(output.key);
        let position = output.stream_seq;
        if position != expected[stream] {
            log.order_errors += 1;
        }
        expected[stream] = position + 1;
        let frame = traffic.frame(stream, position);
        let decoded = &output.decoded;
        let mut delivery = Delivery {
            stream: stream as u32,
            position,
            pickup_ns,
            shard: output.shard,
            info_bits: decoded.info_len as u32,
            iterations: decoded.iterations as u32,
            ok: decoded.bits == frame.codeword && decoded.iterations == frame.iterations,
            ..Delivery::default()
        };
        if traced {
            delivery.accepted_ns = run.ns(decoded.accepted_at);
            delivery.emitted_ns = run.ns(decoded.emitted_at);
            delivery.service_latency_ns = output.latency_ns;
        }
        log.deliveries.push(delivery);
        consumed += 1;
    }
    log.cpu_at_end = cpu_seconds();
    log
}

struct Phase {
    generator: GeneratorLog,
    consumer: ConsumerLog,
    /// Delivery index the measured window opens at (0 for open loop).
    measure_from: usize,
}

/// Closed-loop throughput and CPU cost, each the quiet decile over the
/// measured window's windows, and the plain frame rate over all of it.
struct ClosedLoopRates {
    info_mbps: f64,
    frames_per_s: f64,
    cpu_s_per_info_mbit: f64,
    sustained_fps: f64,
}

impl Phase {
    fn measured(&self) -> &[Delivery] {
        &self.consumer.deliveries[self.measure_from..]
    }

    fn rates(&self, streams: usize) -> ClosedLoopRates {
        let measured = self.measured();
        let marks = &self.consumer.cpu_marks;
        let opened_ns = self.consumer.deliveries[self.measure_from.max(1) - 1].pickup_ns;
        let info_mbit = |deliveries: &[Delivery]| -> f64 {
            deliveries.iter().filter(|d| d.ok).map(|d| f64::from(d.info_bits)).sum::<f64>() / 1e6
        };
        // (seconds, frames, info Mbit, CPU seconds) per window of whole strides.
        let stride = RATE_STRIDE_ROUNDS * streams;
        let strides = (measured.len() / stride).min(marks.len().saturating_sub(1));
        let group = strides.div_ceil(RATE_WINDOWS).max(1);
        let mut windows: Vec<(f64, f64, f64, f64)> = (0..strides / group)
            .map(|w| {
                let (first, end) = (w * group * stride, (w + 1) * group * stride);
                let from_ns = if first == 0 { opened_ns } else { measured[first - 1].pickup_ns };
                (
                    (measured[end - 1].pickup_ns - from_ns) as f64 / 1e9,
                    (end - first) as f64,
                    info_mbit(&measured[first..end]),
                    marks[(w + 1) * group] - marks[w * group],
                )
            })
            .collect();
        let whole_s = (measured.last().map_or(opened_ns, |d| d.pickup_ns) - opened_ns) as f64 / 1e9;
        if windows.is_empty() {
            // Too short a run for one stride: the whole window is the window.
            let cpu_s = self.consumer.cpu_at_end - marks.first().copied().unwrap_or(0.0);
            windows.push((whole_s, measured.len() as f64, info_mbit(measured), cpu_s));
        }
        let per_window = |value: fn(&(f64, f64, f64, f64)) -> f64| -> Vec<f64> {
            windows.iter().map(value).collect()
        };
        ClosedLoopRates {
            info_mbps: quiet_rate_of(&per_window(|w| w.2 / w.0)),
            frames_per_s: quiet_rate_of(&per_window(|w| w.1 / w.0)),
            cpu_s_per_info_mbit: quiet_time_of(&per_window(|w| w.3 / w.2)),
            sustained_fps: measured.len() as f64 / whole_s,
        }
    }
}

/// Closed loop at saturation: frames are offered round-robin over the
/// streams as fast as the tenant budgets admit them (a refused frame is
/// retried, head of line, so every stream carries the same count). The
/// first `pilot_s` seconds fill the queues and are not measured; the
/// measured window is the whole rounds offered in the `measure_s` seconds
/// after that.
fn closed_loop(
    tier: &ServiceTier,
    traffic: &Traffic,
    run: &Run,
    cursors: &mut Cursors,
    pilot_s: f64,
    measure_s: f64,
    traced: bool,
) -> Phase {
    let streams = traffic.shape.streams() as u64;
    let progress =
        Progress { target: AtomicU64::new(u64::MAX), measure_from: AtomicU64::new(u64::MAX) };
    let mut generator = GeneratorLog::default();
    let Cursors { next, expected } = cursors;
    let mut measure_from = u64::MAX;
    let consumer = std::thread::scope(|scope| {
        let consumer = scope.spawn(|| consume(tier, traffic, run, expected, &progress, traced));
        let started = Instant::now();
        let mut offered = 0u64;
        loop {
            // Decided at a round boundary, and before the last round is
            // offered, so the consumer can never wait for a frame that
            // will not come.
            let elapsed = started.elapsed().as_secs_f64();
            if measure_from == u64::MAX && elapsed >= pilot_s {
                measure_from = offered;
                progress.measure_from.store(measure_from, Ordering::Release);
            }
            let last_round = elapsed >= pilot_s + measure_s;
            if last_round {
                progress.target.store(offered + streams, Ordering::Release);
            }
            for stream in 0..streams as usize {
                offer(tier, traffic, run, next, stream, None, CLOSED_LOOP_RETRY, &mut generator);
            }
            offered += streams;
            if last_round {
                break;
            }
        }
        consumer.join().expect("consumer thread")
    });
    Phase { generator, consumer, measure_from: measure_from as usize }
}

/// Open loop: `frames` frames due at `rate_fps` on a fixed schedule, a
/// frame refused at its due time re-offered with its clock still running.
fn open_loop(
    tier: &ServiceTier,
    traffic: &Traffic,
    run: &Run,
    cursors: &mut Cursors,
    rate_fps: f64,
    frames: u64,
    traced: bool,
) -> (Phase, Lateness) {
    let streams = traffic.shape.streams() as u64;
    let progress = Progress { target: AtomicU64::new(frames), measure_from: AtomicU64::new(0) };
    let mut generator = GeneratorLog::default();
    let Cursors { next, expected } = cursors;
    let clock = RealClock { origin: run.origin };
    let schedule = Schedule::at_rate(run.ns(Instant::now()) + 2_000_000, rate_fps);
    let (consumer, lateness) = std::thread::scope(|scope| {
        let consumer = scope.spawn(|| consume(tier, traffic, run, expected, &progress, traced));
        let lateness = pace(&clock, schedule, frames, |frame, due_ns| {
            let stream = (frame % streams) as usize;
            offer(tier, traffic, run, next, stream, Some(due_ns), OPEN_LOOP_RETRY, &mut generator);
        });
        (consumer.join().expect("consumer thread"), lateness)
    });
    (Phase { generator, consumer, measure_from: 0 }, lateness)
}

/// Per-stream positions: what the generator submits next and what the
/// consumer expects next. Both count from the stream's first warm-up frame,
/// so a position is also the tier's gap-free `stream_seq`.
struct Cursors {
    next: Vec<u64>,
    expected: Vec<u64>,
}

struct Serving {
    tier: ServiceTier,
    cursors: Cursors,
    table_build_ms: f64,
    warm_up_failures: u64,
}

/// Everything before the first timed window: table (codes, graphs,
/// encoders), tier start, and `warm_up` frames per stream through the tier
/// so every decoder instance the run will use has decoded once.
fn setup(shape: &Shape, pools: &[Vec<PoolFrame>], run: &Run) -> Serving {
    let started = Instant::now();
    let table = shape.table();
    let table_build_ms = started.elapsed().as_secs_f64() * 1e3;
    let traffic = Traffic { shape, pools };
    let tier = ServiceTier::start(table, shape.tier_config(SHARDS));
    let streams = shape.streams();
    let mut cursors = Cursors { next: vec![0; streams], expected: vec![0; streams] };
    let mut log = GeneratorLog::default();
    let mut warm_up_failures = 0;
    for _ in 0..shape.warm_up {
        for stream in 0..streams {
            offer(
                &tier,
                &traffic,
                run,
                &mut cursors.next,
                stream,
                None,
                CLOSED_LOOP_RETRY,
                &mut log,
            );
        }
        for _ in 0..streams {
            let output = tier.next_output().expect("the tier is running");
            let stream = traffic.stream_of(output.key);
            let frame = traffic.frame(stream, output.stream_seq);
            let in_order = output.stream_seq == cursors.expected[stream];
            cursors.expected[stream] = output.stream_seq + 1;
            if !in_order || output.decoded.bits != frame.codeword {
                warm_up_failures += 1;
            }
        }
    }
    Serving {
        tier,
        cursors,
        table_build_ms,
        warm_up_failures: warm_up_failures + log.sequence_gaps,
    }
}

/// Folds one phase's per-frame verdicts into the outcome.
fn account(outcome: &mut Outcome, label: &str, phase: &Phase) {
    let admitted = phase.generator.offers.len() as u64;
    let delivered = phase.consumer.deliveries.len() as u64;
    let wrong = phase.consumer.deliveries.iter().filter(|d| !d.ok).count() as u64;
    outcome.attempted += admitted;
    outcome.failed += wrong + admitted.saturating_sub(delivered);
    if delivered != admitted {
        outcome.violation(format!("{label}: delivered {delivered} of {admitted} admitted frames"));
    }
    if wrong > 0 {
        outcome.violation(format!(
            "{label}: {wrong} frames differ from the direct decode of the same LLRs"
        ));
    }
    if phase.consumer.order_errors > 0 {
        outcome.violation(format!(
            "{label}: {} deliveries out of per-stream order",
            phase.consumer.order_errors
        ));
    }
    if phase.generator.sequence_gaps > 0 {
        outcome.violation(format!(
            "{label}: {} admissions got a sequence number with a gap",
            phase.generator.sequence_gaps
        ));
    }
}

/// Open-loop latencies in delivery order, each from its frame's due time,
/// paired with the offer that admitted the frame.
fn latencies(phase: &Phase, streams: usize) -> Vec<(Offer, Delivery, u64)> {
    let mut by_stream: Vec<Vec<Offer>> = vec![Vec::new(); streams];
    for offer in &phase.generator.offers {
        by_stream[offer.stream as usize].push(*offer);
    }
    phase
        .consumer
        .deliveries
        .iter()
        .filter_map(|delivery| {
            let offers = &by_stream[delivery.stream as usize];
            let first = offers.first()?.position;
            let offer = offers.get(delivery.position.checked_sub(first)? as usize)?;
            Some((*offer, *delivery, delivery.pickup_ns.saturating_sub(offer.due_ns)))
        })
        .collect()
}

/// Spans of the open-loop frames: per frame a root from the due time to the
/// consumer's pickup, cut into contiguous segments, plus the admitting
/// `submit` call. Also returns the largest share of any frame's latency that
/// its segments leave unexplained.
fn open_loop_spans(timed: &[(Offer, Delivery, u64)]) -> (Vec<Span>, f64) {
    let mut spans = Vec::with_capacity(timed.len() * 7);
    let mut worst_gap = 0f64;
    for (frame, (offer, delivery, latency)) in timed.iter().enumerate() {
        let collected_ns = (delivery.accepted_ns + delivery.service_latency_ns)
            .clamp(delivery.emitted_ns, delivery.pickup_ns.max(delivery.emitted_ns));
        let cuts = [
            offer.due_ns,
            offer.submit_start_ns,
            delivery.accepted_ns,
            delivery.emitted_ns,
            collected_ns,
            delivery.pickup_ns,
        ];
        let segments = [
            ("loadgen.wait_admit", "frame", "loadgen"),
            ("service.submit.admit", "service.submit", "service"),
            ("pipeline.residence", "frame", "pipeline"),
            ("service.egress_wait", "frame", "service"),
            ("service.consumer_pickup", "frame", "service"),
        ];
        let span = |span, parent, layer, start_ns: u64, end_ns: u64| Span {
            frame: frame as u64,
            span,
            parent,
            layer,
            start_ns,
            end_ns,
        };
        let root = span("frame", "", "loadgen", offer.due_ns, delivery.pickup_ns);
        let children: Vec<Span> = cuts
            .windows(2)
            .zip(segments)
            .map(|(cut, (name, parent, layer))| span(name, parent, layer, cut[0], cut[1]))
            .collect();
        // Whatever of the frame's latency no segment covers is unexplained.
        let unexplained = self_time_ns(&root, &children) as f64 / (*latency).max(1) as f64;
        worst_gap = worst_gap.max(unexplained);
        spans.push(root);
        spans.push(span(
            "service.submit",
            "frame",
            "service",
            offer.submit_start_ns,
            offer.submit_end_ns,
        ));
        spans.extend(children);
    }
    (spans, worst_gap)
}

pub fn run(run: &Run, shape: &Shape) -> Outcome {
    let mut outcome = Outcome::default();

    // Inputs and their answer key, outside set-up and every timed window.
    let generator_table = shape.table();
    let Pools { pools, gen, make_decoder_ms } = build_pools(run, shape, &generator_table);
    let traffic = Traffic { shape, pools: &pools };

    let (mut serving, setup_s) = median_setup(
        SETUP_SHARE * run.seconds,
        SETUP_MAX,
        || setup(shape, &pools, run),
        |serving| {
            serving.tier.finish();
        },
    );
    if serving.warm_up_failures > 0 {
        outcome.violation(format!("{} warm-up frames were wrong", serving.warm_up_failures));
    }
    let tier = &serving.tier;
    let cursors = &mut serving.cursors;
    let streams = shape.streams();

    // Phase A, closed loop; a traced run repeats it with pipeline
    // timestamps kept, and the two give the tracing overhead.
    let (pilot_s, closed_s, open_s) = if run.traced {
        (0.04 * run.seconds, 0.18 * run.seconds, 0.30 * run.seconds)
    } else {
        (0.05 * run.seconds, 0.37 * run.seconds, 0.55 * run.seconds)
    };
    let closed = closed_loop(tier, &traffic, run, cursors, pilot_s, closed_s, false);
    account(&mut outcome, "closed loop", &closed);
    let rates = closed.rates(streams);
    let (info_mbps, frames_per_s) = (rates.info_mbps, rates.frames_per_s);
    let closed_traced = run.traced.then(|| {
        let phase = closed_loop(tier, &traffic, run, cursors, pilot_s, closed_s, true);
        account(&mut outcome, "closed loop (traced)", &phase);
        phase
    });

    // Phase B, open loop at a fixed share of the rate this host just
    // sustained over the whole closed-loop window, so no host is driven past
    // its own capacity.
    let rate_fps = OPEN_LOOP_LOAD * rates.sustained_fps;
    let open_frames = ((rate_fps * open_s / streams as f64).ceil() as u64).max(1) * streams as u64;
    let (open, lateness) =
        open_loop(tier, &traffic, run, cursors, rate_fps, open_frames, run.traced);
    account(&mut outcome, "open loop", &open);
    let timed = latencies(&open, streams);
    let latency_ns: Vec<u64> = timed.iter().map(|t| t.2).collect();
    let latency_p50_ms = quiet_percentile(&latency_ns, LATENCY_WINDOW, 0.50) / 1e6;
    let latency_p95_ms = quiet_percentile(&latency_ns, LATENCY_WINDOW, 0.95) / 1e6;

    let migrations = tier.stats().migrations;
    let stats = serving.tier.finish();
    if stats.delivered != stats.submitted || stats.orphaned != 0 {
        outcome.violation(format!(
            "tier counters: submitted {} delivered {} orphaned {}",
            stats.submitted, stats.delivered, stats.orphaned
        ));
    }
    if let Some(stuck) = stats.tenants.iter().find(|t| t.in_flight != 0) {
        outcome.violation(format!("tenant {} still holds budget after the drain", stuck.tenant));
    }

    outcome.set("setup_s", setup_s);
    outcome.set("info_mbps", info_mbps);
    outcome.set("latency_p50_ms", latency_p50_ms);
    outcome.set("cpu_s_per_info_mbit", rates.cpu_s_per_info_mbit);
    outcome.set("peak_rss_mb", peak_rss_mb());
    eprintln!(
        "{}: closed loop {} frames at {frames_per_s:.1}/s, open loop {} latency samples at \
         {rate_fps:.1}/s (p95 {latency_p95_ms:.3} ms)",
        shape.name,
        closed.measured().len(),
        latency_ns.len()
    );
    let Some(closed_traced) = closed_traced else { return outcome };

    // ---- per-layer ------------------------------------------------------
    let traced_rates = closed_traced.rates(streams);
    let traced_fps = traced_rates.frames_per_s;
    outcome.set("traced.info_mbps", traced_rates.info_mbps);
    outcome.set("traced.latency_p50_ms", latency_p50_ms);
    outcome.set("traced.latency_p95_ms", latency_p95_ms);
    outcome.set("traced.frames", (closed_traced.measured().len() + timed.len()) as f64);
    let iterations: Vec<f64> = closed.measured().iter().map(|d| f64::from(d.iterations)).collect();
    let mean_iterations = iterations.iter().sum::<f64>() / iterations.len().max(1) as f64;
    outcome.set("traced.mean_iterations", mean_iterations);
    // Over the whole windows, not their quiet deciles: the two closed loops
    // are short, and what is asked is what the timestamps cost on average.
    outcome.set("trace.overhead_frac", 1.0 - traced_rates.sustained_fps / rates.sustained_fps);

    // The generator and the codes under it.
    let started = Instant::now();
    for slot in SLOTS {
        let config =
            SystemConfig { rate: slot.0, frame: FrameSize::Short, ..SystemConfig::default() };
        std::hint::black_box(Dvbs2System::new(config).expect("defined short-frame code"));
    }
    outcome.set("ldpc.code_build_ms", started.elapsed().as_secs_f64() * 1e3);
    outcome.set("ldpc.encode_us_per_frame", gen.encode_us_per_frame());
    outcome.set("channel.transmit_us_per_frame", gen.transmit_us_per_frame());
    outcome.set("channel.demap_us_per_frame", gen.demap_us_per_frame());
    outcome.set("loadgen.gen_s", gen.total_s());
    outcome.set("loadgen.offered_fps", rate_fps);
    outcome.set("loadgen.late_frac", lateness.late_frac());
    outcome.set("loadgen.late_ms_max", lateness.max_ns as f64 / 1e6);
    outcome.set("loadgen.latency_samples", latency_ns.len() as f64);
    outcome.set("dvbs2.table_build_ms", serving.table_build_ms);
    outcome.set("dvbs2.make_decoder_ms", make_decoder_ms);

    // Direct decode of each slot's pool: the layer below everything served.
    for (slot, pool) in pools.iter().enumerate() {
        let us: Vec<f64> = pool.iter().map(|f| f.direct_ns as f64 / 1e3).collect();
        let iterations: f64 = pool.iter().map(|f| f.iterations as f64).sum();
        let label = SLOTS[slot].1;
        outcome.set(
            &format!("decoder.slot.{label}.us_per_frame"),
            us.iter().sum::<f64>() / us.len() as f64,
        );
        outcome
            .set(&format!("decoder.slot.{label}.mean_iterations"), iterations / pool.len() as f64);
    }
    // The service layer, from the generator's and the consumer's logs.
    let submit_us: Vec<u64> = closed
        .generator
        .offers
        .iter()
        .map(|o| o.submit_end_ns.saturating_sub(o.submit_start_ns))
        .collect();
    outcome.set("service.submit_us_p50", percentile_of(&submit_us, 0.50) as f64 / 1e3);
    let attempts = closed.generator.attempts.max(1) as f64;
    outcome.set("service.refused_frac.over_budget", closed.generator.over_budget as f64 / attempts);
    outcome
        .set("service.refused_frac.backpressure", closed.generator.backpressure as f64 / attempts);
    outcome.set("service.refused_frac.shed", closed.generator.shed as f64 / attempts);
    let mut per_shard = std::collections::BTreeMap::new();
    for delivery in closed.measured() {
        *per_shard.entry(delivery.shard).or_insert(0u64) += 1;
    }
    let busiest = per_shard.values().max().copied().unwrap_or(0) as f64;
    let idlest = per_shard.values().min().copied().unwrap_or(0).max(1) as f64;
    outcome.set("service.shard_skew", busiest / idlest);
    outcome.set("service.migrations", migrations as f64);
    let egress_wait_ns: Vec<u64> = timed
        .iter()
        .map(|(_, d, _)| {
            d.service_latency_ns.saturating_sub(d.emitted_ns.saturating_sub(d.accepted_ns))
        })
        .collect();
    outcome.set("service.egress_wait_ms_p50", percentile_of(&egress_wait_ns, 0.50) as f64 / 1e6);

    let (spans, worst_gap) = open_loop_spans(&timed);
    outcome.set("trace.spans", spans.len() as f64);
    outcome.set("trace.span_sum_err_max_frac", worst_gap);
    if worst_gap > 0.02 {
        outcome.violation(format!(
            "a frame's spans miss its latency by {:.1} % (limit 2 %)",
            worst_gap * 100.0
        ));
    }
    let path = run.out_dir.join(format!("trace-{}.jsonl", shape.name));
    if let Err(err) = write_jsonl(&path, &spans) {
        outcome.violation(format!("writing {}: {err}", path.display()));
    }

    // A bare pipeline on the same frame mix, one worker then two.
    let probe_frames = |workers: f64| {
        let frames = traced_fps * workers / SHARDS as f64 * 0.07 * run.seconds;
        (frames / streams as f64).ceil().max(1.0) as u64 * streams as u64
    };
    let depth = (shape.tenants as usize * TENANT_BUDGET / SHARDS) as u64;
    let w1 = pipeline_probe(shape, &traffic, 1, probe_frames(1.0), depth, &mut outcome);
    let w2 = pipeline_probe(shape, &traffic, 2, probe_frames(2.0), depth, &mut outcome);
    // The one-worker probe's frames again, decoded directly on one thread:
    // the layer below the pipeline, at the same one-decoder-at-a-time load.
    let direct_ns = direct_pass(&generator_table, &traffic, probe_frames(1.0));
    let direct_total_ns: f64 = direct_ns.iter().sum();
    outcome.set("pipeline.w1.frames_per_s", w1.frames_per_s);
    outcome.set("pipeline.w2.frames_per_s", w2.frames_per_s);
    outcome.set("pipeline.worker_scaling", w2.frames_per_s / w1.frames_per_s);
    outcome.set(
        "pipeline.efficiency",
        w1.frames_per_s * direct_total_ns / 1e9 / direct_ns.len() as f64,
    );
    outcome.set("pipeline.submit_us_p50", w1.submit_us_p50);
    outcome.set("pipeline.residence_ms_p50", w1.residence_ms_p50);
    outcome.set("pipeline.decode_busy_frac", w1.decode_busy_frac);
    outcome.set("pipeline.queue_wait_ms_mean", w1.queue_wait_ms_mean);
    outcome.set("pipeline.ingress_watermark", w2.ingress_watermark);
    outcome.set("pipeline.reorder_watermark", w2.reorder_watermark);
    outcome.set("decoder.share_of_worker_busy", direct_total_ns / w1.decode_ns);
    outcome.set("service.efficiency", frames_per_s / (SHARDS as f64 * w1.frames_per_s));
    // The probe's round-robin mix is the open loop's too, so its median
    // direct decode is that of the frames whose p50 latency was reported.
    outcome.set(
        "service.latency_outside_decode_frac",
        1.0 - median(&direct_ns) / 1e6 / latency_p50_ms,
    );

    // The same frames, one at a time, through each layer of the stack.
    let mean_direct_s = pools.iter().flatten().map(|f| f.direct_ns as f64).sum::<f64>()
        / 1e9
        / (4 * shape.pool) as f64;
    let replay_frames = ((0.07 * run.seconds / (3.0 * mean_direct_s)) as u64).clamp(4, 512) / 4 * 4;
    stack_replay(shape, &traffic, replay_frames, &mut outcome);
    outcome
}

struct PipelineProbe {
    frames_per_s: f64,
    /// Nanoseconds the workers spent inside `decode_into`, by their count.
    decode_ns: f64,
    submit_us_p50: f64,
    residence_ms_p50: f64,
    decode_busy_frac: f64,
    queue_wait_ms_mean: f64,
    ingress_watermark: f64,
    reorder_watermark: f64,
}

/// Drives a bare `DecodePipeline` closed-loop with at most `depth` frames
/// inside it, over the workload's own frame mix.
fn pipeline_probe(
    shape: &Shape,
    traffic: &Traffic,
    workers: usize,
    frames: u64,
    depth: u64,
    outcome: &mut Outcome,
) -> PipelineProbe {
    let pipeline = DecodePipeline::start(shape.table(), shape.pipeline_config(workers));
    let consumed = AtomicU64::new(0);
    let mut submit_ns = Vec::new();
    let started = Instant::now();
    let (residence_ns, wrong) = std::thread::scope(|scope| {
        let consumer = scope.spawn(|| {
            let mut residence_ns = Vec::new();
            let mut wrong = 0u64;
            for index in 0..frames {
                let Some(decoded) = pipeline.next_decoded() else { break };
                let (stream, position) = traffic.nth(decoded.stream_index);
                let frame = traffic.frame(stream, position);
                let in_order = decoded.stream_index == index;
                if !in_order
                    || decoded.bits != frame.codeword
                    || decoded.iterations != frame.iterations
                {
                    wrong += 1;
                }
                residence_ns.push(decoded.latency().as_nanos() as u64);
                consumed.store(index + 1, Ordering::Release);
            }
            (residence_ns, wrong)
        });
        for index in 0..frames {
            while index - consumed.load(Ordering::Acquire) >= depth {
                std::thread::sleep(CLOSED_LOOP_RETRY);
            }
            let (stream, position) = traffic.nth(index);
            let mut frame = SoftFrame {
                modcod: traffic.slot(stream, position),
                stream_index: index,
                llrs: traffic.frame(stream, position).llrs.clone(),
            };
            loop {
                let call = Instant::now();
                match pipeline.try_submit(frame) {
                    Ok(_) => {
                        submit_ns.push(call.elapsed().as_nanos() as u64);
                        break;
                    }
                    Err(SubmitError::Rejected(back)) => frame = back,
                    Err(other) => panic!("the pipeline refused a well-formed frame: {other:?}"),
                }
                std::thread::sleep(CLOSED_LOOP_RETRY);
            }
        }
        consumer.join().expect("pipeline consumer")
    });
    let wall_s = started.elapsed().as_secs_f64();
    let stats = pipeline.finish();
    let delivered = residence_ns.len() as u64;
    outcome.attempted += frames;
    outcome.failed += wrong + (frames - delivered);
    if wrong > 0 || delivered != frames {
        outcome.violation(format!(
            "bare pipeline ({workers} workers): {wrong} wrong, {delivered} of {frames} delivered"
        ));
    }
    let mean_residence_ms =
        residence_ns.iter().sum::<u64>() as f64 / 1e6 / residence_ns.len().max(1) as f64;
    PipelineProbe {
        frames_per_s: frames as f64 / wall_s,
        decode_ns: stats.decode_ns as f64,
        submit_us_p50: percentile_of(&submit_ns, 0.50) as f64 / 1e3,
        residence_ms_p50: percentile_of(&residence_ns, 0.50) as f64 / 1e6,
        decode_busy_frac: stats.decode_ns as f64 / 1e9 / (workers as f64 * wall_s),
        queue_wait_ms_mean: mean_residence_ms - stats.ns_per_frame() / 1e6,
        ingress_watermark: stats.ingress_watermark as f64,
        reorder_watermark: stats.reorder_watermark as f64,
    }
}

/// Decodes the first `frames` frames of the workload's mix directly, one
/// after the other on this thread, and returns each decode's nanoseconds.
fn direct_pass(table: &ModcodTable, traffic: &Traffic, frames: u64) -> Vec<f64> {
    let streams = traffic.shape.streams() as u64;
    let mut decoders: Vec<_> =
        (0..SLOTS.len()).map(|slot| table.entry(slot).make_decoder()).collect();
    let mut out = DecodeResult::default();
    // One untimed pass over the streams warms every slot's decoder up; the
    // timed pass then starts over from the first frame, as the probe did.
    (0..streams)
        .chain(0..frames)
        .enumerate()
        .filter_map(|(pass, index)| {
            let (stream, position) = traffic.nth(index);
            let frame = traffic.frame(stream, position);
            let started = Instant::now();
            decoders[traffic.slot(stream, position)].decode_into(&frame.llrs, &mut out);
            (pass as u64 >= streams).then(|| started.elapsed().as_nanos() as f64)
        })
        .collect()
}

/// Stack replay: the same frames, one in flight at a time, through a direct
/// `decode_into`, a one-worker `DecodePipeline`, and a one-shard
/// `ServiceTier`. Each layer's ns/frame and its ratio to the layer below
/// say what the layer costs when nothing queues.
fn stack_replay(shape: &Shape, traffic: &Traffic, frames: u64, outcome: &mut Outcome) {
    let table = shape.table();
    let streams = shape.streams() as u64;
    let mean_ns =
        |samples: &[u64]| samples.iter().sum::<u64>() as f64 / samples.len().max(1) as f64;

    let mut decoders: Vec<_> =
        (0..SLOTS.len()).map(|slot| table.entry(slot).make_decoder()).collect();
    let mut out = DecodeResult::default();
    let mut wrong = 0u64;
    let mut direct_ns = Vec::new();
    let pipeline = DecodePipeline::start(shape.table(), shape.pipeline_config(1));
    let mut pipeline_ns = Vec::new();
    let tier = ServiceTier::start(shape.table(), shape.tier_config(1));
    let mut service_ns = Vec::new();
    let mut bbframe_ns = Vec::new();
    // The first pass over the streams warms each layer's decoders up and is
    // not timed.
    for index in 0..frames + streams {
        let timed = index >= streams;
        let (stream, position) = traffic.nth(index);
        let slot = traffic.slot(stream, position);
        let frame = traffic.frame(stream, position);

        let started = Instant::now();
        decoders[slot].decode_into(&frame.llrs, &mut out);
        let direct = started.elapsed();
        wrong += u64::from(out.bits != frame.codeword || out.iterations != frame.iterations);

        let soft = SoftFrame { modcod: slot, stream_index: index, llrs: frame.llrs.clone() };
        let started = Instant::now();
        pipeline.submit(soft).expect("an idle pipeline admits a frame");
        let decoded = pipeline.next_decoded().expect("the pipeline is running");
        let through_pipeline = started.elapsed();
        wrong += u64::from(decoded.bits != out.bits || decoded.iterations != out.iterations);

        let service_frame = traffic.service_frame(stream, position);
        let started = Instant::now();
        tier.submit(service_frame).expect("an idle tier admits a frame");
        let output = tier.next_output().expect("the tier is running");
        let through_service = started.elapsed();
        wrong += u64::from(
            output.decoded.bits != out.bits || output.decoded.iterations != out.iterations,
        );
        let started = Instant::now();
        let bbframe = std::hint::black_box(output.decoded.bbframe());
        let extract = started.elapsed();
        wrong += u64::from(bbframe.len() != table.entry(slot).info_len());

        if timed {
            direct_ns.push(direct.as_nanos() as u64);
            pipeline_ns.push(through_pipeline.as_nanos() as u64);
            service_ns.push(through_service.as_nanos() as u64);
            bbframe_ns.push(extract.as_nanos() as u64);
        }
    }
    pipeline.finish();
    tier.finish();
    outcome.attempted += 3 * (frames + streams);
    outcome.failed += wrong;
    if wrong > 0 {
        outcome.violation(format!(
            "stack replay: {wrong} layer outputs differ from the direct decode"
        ));
    }
    let (direct, through_pipeline, through_service) =
        (mean_ns(&direct_ns), mean_ns(&pipeline_ns), mean_ns(&service_ns));
    outcome.set("replay.direct_ns_per_frame", direct);
    outcome.set("replay.pipeline_ns_per_frame", through_pipeline);
    outcome.set("replay.service_ns_per_frame", through_service);
    outcome.set("replay.pipeline_over_direct", through_pipeline / direct);
    outcome.set("replay.service_over_pipeline", through_service / through_pipeline);
    outcome.set("dvbs2.bbframe_us_per_frame", mean_ns(&bbframe_ns) / 1e3);
}
