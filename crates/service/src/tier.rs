//! The service tier proper: sharded routing, tenant admission, egress
//! reordering, stream migration, hot reconfiguration and health
//! monitoring.
//!
//! Ordering argument, in one place. Per-stream sequence numbers are
//! assigned under the route lock and only on a successful shard admit, so
//! they are gap-free and match the order frames entered *some* shard.
//! Within one shard the pipeline's own reorder stage delivers frames in
//! admit order. Across shards — after a migration or a rolling
//! reconfiguration — the service-level egress stage holds each stream's
//! frames in a per-stream reorder buffer keyed by that sequence number and
//! releases them strictly in order, stamping each frame's latency as it
//! is released. A frame admitted to any shard is always delivered
//! (pipelines never drop admitted frames outside of teardown), so the
//! buffer never waits on a hole that cannot fill.

use crate::stats::{ServiceStats, ServiceStatsCore, TenantStats};
use crate::tenant::{SlaClass, TenantPolicy, TenantState};
use dvbs2::framing::{extract_bbframe, BbHeader, FramingError};
use dvbs2::{ModcodRegistry, ModcodTable};
use dvbs2_channel::StreamKey;
use dvbs2_ldpc::BitVec;
use dvbs2_pipeline::{
    DecodePipeline, DecodedFrame, PipelineConfig, PipelineHealth, ReleaseBuffer, SoftFrame,
    SubmitError, WorkerFaultInjection,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One frame of demapped soft bits entering the service tier.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceFrame {
    /// Which tenant/stream the frame belongs to (routing + ordering key).
    pub key: StreamKey,
    /// MODCOD slot into the currently installed table.
    pub modcod: usize,
    /// Channel LLRs, length `N` of the slot's code.
    pub llrs: Vec<f64>,
}

/// One decoded frame leaving the service, in per-stream order.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceOutput {
    /// The stream the frame belongs to.
    pub key: StreamKey,
    /// Gap-free per-stream sequence number (0-based admission order).
    pub stream_seq: u64,
    /// Uid of the shard that decoded the frame.
    pub shard: u64,
    /// MODCOD-table epoch the decoding shard was built under.
    pub epoch: u64,
    /// End-to-end service latency (submit to in-order delivery), ns:
    /// stamped when the per-stream reorder stage releases the frame.
    pub latency_ns: u64,
    /// The decoded frame itself.
    pub decoded: DecodedFrame,
}

impl ServiceOutput {
    /// Demuxes the decoded BBFRAME: parses the 80-bit BBHEADER (CRC-8
    /// checked) off the systematic prefix and returns it with the data
    /// field. The service-egress half of
    /// [`assemble_bbframe`](dvbs2::framing::assemble_bbframe).
    ///
    /// # Errors
    ///
    /// Returns [`FramingError`] when the header CRC fails or the declared
    /// data-field length is impossible — expected on non-converged frames.
    pub fn bbframe(&self) -> Result<(BbHeader, BitVec), FramingError> {
        extract_bbframe(&self.decoded.bbframe())
    }
}

/// Why a submission did not enter the service. Every variant returns the
/// frame so the caller can retry, requeue or count it.
#[derive(Debug, PartialEq)]
pub enum ServiceError {
    /// The frame's tenant has no registered [`TenantPolicy`].
    UnknownTenant(ServiceFrame),
    /// The tenant's in-service budget is exhausted.
    OverBudget(ServiceFrame),
    /// Latency-bound SLA shedding: the target shard has no queueing
    /// headroom, so admitting would blow the latency bound.
    Shed(ServiceFrame),
    /// Hard backpressure from the target shard.
    Backpressure(ServiceFrame),
    /// The frame's MODCOD slot is not in the shard's table.
    UnknownModcod(ServiceFrame),
    /// The frame's LLR length does not match its slot's codeword length.
    WrongLength {
        /// The rejected frame.
        frame: ServiceFrame,
        /// The slot's expected codeword length.
        expected: usize,
    },
    /// The service is shutting down (or has no routable shard left).
    ShutDown(ServiceFrame),
}

impl ServiceError {
    /// Recovers the frame from any variant.
    pub fn into_frame(self) -> ServiceFrame {
        match self {
            ServiceError::UnknownTenant(f)
            | ServiceError::OverBudget(f)
            | ServiceError::Shed(f)
            | ServiceError::Backpressure(f)
            | ServiceError::UnknownModcod(f)
            | ServiceError::ShutDown(f) => f,
            ServiceError::WrongLength { frame, .. } => frame,
        }
    }
}

/// Test/bench hook: aim a [`WorkerFaultInjection`] at one initial shard
/// (by start-up index), leaving the rest of the fleet healthy — the setup
/// fault-migration scenarios need.
#[derive(Debug, Clone, Copy)]
pub struct ShardFaultInjection {
    /// Index of the shard (0-based, in start-up order) to inject into.
    pub shard: usize,
    /// The per-worker injection handed to that shard's pipeline.
    pub injection: WorkerFaultInjection,
}

/// Service tier configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Independent pipeline shards behind the ingress.
    pub shards: usize,
    /// Configuration for each shard's pipeline (workers, queues,
    /// admission ladder, quarantine policy — all per shard).
    pub pipeline: PipelineConfig,
    /// Registered tenants; frames from unregistered tenants are refused.
    pub tenants: Vec<TenantPolicy>,
    /// Shard-health poll interval for the fault-migration monitor, in
    /// milliseconds. Zero disables the monitor.
    pub health_poll_ms: u64,
    /// Optional shard-targeted fault injection (tests/benches only).
    pub fault_injection: Option<ShardFaultInjection>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 2,
            pipeline: PipelineConfig::default(),
            tenants: Vec::new(),
            health_poll_ms: 0,
            fault_injection: None,
        }
    }
}

/// A point-in-time view of one shard, for operators and tests.
#[derive(Debug, Clone)]
pub struct ShardStatus {
    /// Stable shard identifier (unique across the tier's lifetime).
    pub uid: u64,
    /// MODCOD-table epoch the shard was built under.
    pub epoch: u64,
    /// Streams currently routed to the shard.
    pub streams: usize,
    /// Frames currently inside the shard's pipeline.
    pub in_flight: usize,
    /// The shard pipeline's worker-fleet health.
    pub health: PipelineHealth,
}

struct Shard {
    uid: u64,
    epoch: u64,
    pipeline: DecodePipeline,
    /// One flag per MODCOD slot of the shard's table, set once the shard
    /// has served the slot — its decoder caches are warm for these, so
    /// routing prefers affine shards.
    affinity: Box<[AtomicBool]>,
    /// Streams currently routed here (load-balancing signal only).
    streams: AtomicUsize,
}

struct StreamRoute {
    shard_uid: u64,
    /// Next per-stream sequence number; incremented only on a successful
    /// shard admit, so the sequence is gap-free.
    next_seq: u64,
    /// Last MODCOD the stream submitted — the affinity hint a re-route
    /// uses.
    modcod: usize,
}

/// Everything routing reads or writes, under the route lock.
#[derive(Default)]
struct RouteState {
    routes: HashMap<StreamKey, StreamRoute>,
    /// The routable fleet. A retired shard leaves this list under the same
    /// lock that closes its ingress; its collector keeps it alive until
    /// its admitted frames drain out.
    shards: Vec<Arc<Shard>>,
    /// One collector thread per shard ever spawned, joined at shutdown.
    collectors: Vec<JoinHandle<()>>,
    next_ticket: u64,
    next_shard_uid: u64,
    /// Set at shutdown; stops the health monitor.
    closed: bool,
}

struct FrameMeta {
    key: StreamKey,
    stream_seq: u64,
    submitted_at: Instant,
}

#[derive(Default)]
struct EgressState {
    /// Routing ticket → stream metadata for frames inside some shard.
    tickets: HashMap<u64, FrameMeta>,
    /// Per-stream release buffers; each held output keeps its submit
    /// instant so its latency is stamped when it is released.
    streams: HashMap<StreamKey, ReleaseBuffer<(Instant, ServiceOutput)>>,
    /// In-order outputs awaiting consumption. Unbounded, but transitively
    /// bounded by the sum of tenant budgets: a frame only exists here
    /// while its tenant budget unit is still claimed.
    ready: VecDeque<ServiceOutput>,
    open_collectors: usize,
}

struct Inner {
    registry: ModcodRegistry,
    config: ServiceConfig,
    stats: ServiceStatsCore,
    /// Immutable after start; per-tenant state is interior-atomic.
    tenants: BTreeMap<u32, TenantState>,
    route: Mutex<RouteState>,
    egress: Mutex<EgressState>,
    output_ready: Condvar,
}

/// The sharded decode front-end. See the crate docs for the design and
/// the module docs for the ordering argument.
pub struct ServiceTier {
    inner: Arc<Inner>,
    monitor: Option<JoinHandle<()>>,
}

impl ServiceTier {
    /// Starts the shard fleet over an initial MODCOD table.
    ///
    /// # Panics
    ///
    /// Panics on zero shards or duplicate tenant registrations (and
    /// propagates [`DecodePipeline::start`]'s own config panics).
    pub fn start(table: ModcodTable, config: ServiceConfig) -> Self {
        assert!(config.shards > 0, "the service needs at least one shard");
        let mut tenants = BTreeMap::new();
        for policy in &config.tenants {
            let dup = tenants.insert(policy.tenant, TenantState::new(*policy));
            assert!(dup.is_none(), "tenant {} registered twice", policy.tenant);
        }
        let inner = Arc::new(Inner {
            registry: ModcodRegistry::new(table),
            stats: ServiceStatsCore::default(),
            tenants,
            route: Mutex::new(RouteState::default()),
            egress: Mutex::new(EgressState::default()),
            output_ready: Condvar::new(),
            config,
        });
        {
            let mut route = inner.route.lock().expect("no panics hold the route lock");
            let snapshot = inner.registry.snapshot();
            for index in 0..inner.config.shards {
                let fault =
                    inner.config.fault_injection.filter(|f| f.shard == index).map(|f| f.injection);
                inner.spawn_shard(&mut route, snapshot.epoch, (*snapshot.table).clone(), fault);
            }
        }
        let monitor = (inner.config.health_poll_ms > 0).then(|| {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("service-monitor".into())
                .spawn(move || monitor_loop(&inner))
                .expect("spawning the service monitor")
        });
        ServiceTier { inner, monitor }
    }

    /// Offers a frame without blocking. On success the frame's per-stream
    /// sequence number (its position in that stream's egress order) is
    /// returned; every failure hands the frame back in a [`ServiceError`].
    pub fn submit(&self, frame: ServiceFrame) -> Result<u64, ServiceError> {
        let inner = &*self.inner;
        let Some(tenant) = inner.tenants.get(&frame.key.tenant) else {
            return Err(ServiceError::UnknownTenant(frame));
        };
        if !tenant.try_claim() {
            tenant.rejected.fetch_add(1, Ordering::Relaxed);
            inner.stats.rejected_budget.fetch_add(1, Ordering::Relaxed);
            return Err(ServiceError::OverBudget(frame));
        }
        // Route lock held through the shard admit: per-stream sequence
        // order and shard admit order stay identical.
        let mut guard = inner.route.lock().expect("no panics hold the route lock");
        let route = &mut *guard;
        let key = frame.key;
        let existing = route.routes.get(&key).map(|r| r.shard_uid);
        let sticky = existing.and_then(|uid| route.shards.iter().find(|s| s.uid == uid).cloned());
        let (shard, migrated) = match sticky {
            Some(shard) => (shard, false),
            None => {
                // First frame of the stream, or its shard was retired by a
                // reconfiguration: (re-)pick by affinity/hash. In-flight
                // frames on the old shard still deliver; egress reordering
                // keeps the stream in order across the move.
                let Some(shard) = pick_shard(&route.shards, key, frame.modcod, None) else {
                    tenant.release();
                    return Err(ServiceError::ShutDown(frame));
                };
                (shard, existing.is_some())
            }
        };
        if tenant.policy.sla == SlaClass::LatencyBound {
            // Shed while the shard still has queueing headroom: an
            // admitted latency-bound frame must never sit behind a deep
            // backlog. Layered above the pipeline's Eq.-8 iteration
            // ladder, which cheapens the frames that do get in.
            let cap = shard.pipeline.config().max_in_flight;
            if shard.pipeline.in_flight() * 2 >= cap {
                tenant.release();
                tenant.shed.fetch_add(1, Ordering::Relaxed);
                return Err(ServiceError::Shed(frame));
            }
        }
        let ticket = route.next_ticket;
        route.next_ticket += 1;
        let entry = route.routes.entry(key).or_insert_with(|| {
            shard.streams.fetch_add(1, Ordering::Relaxed);
            StreamRoute { shard_uid: shard.uid, next_seq: 0, modcod: frame.modcod }
        });
        let stream_seq = entry.next_seq;
        // The ticket goes in before the admit so the collector can never
        // see a ticket it cannot resolve.
        inner
            .egress
            .lock()
            .expect("no panics hold the egress lock")
            .tickets
            .insert(ticket, FrameMeta { key, stream_seq, submitted_at: Instant::now() });
        let soft = SoftFrame { modcod: frame.modcod, stream_index: ticket, llrs: frame.llrs };
        match shard.pipeline.try_submit(soft) {
            Ok(_) => {
                entry.next_seq += 1;
                if entry.shard_uid != shard.uid {
                    entry.shard_uid = shard.uid;
                    shard.streams.fetch_add(1, Ordering::Relaxed);
                }
                entry.modcod = frame.modcod;
                if migrated {
                    inner.stats.migrations.fetch_add(1, Ordering::Relaxed);
                }
                // The shard admitted the slot, so it is in the shard's table.
                shard.affinity[frame.modcod].store(true, Ordering::Relaxed);
                tenant.submitted.fetch_add(1, Ordering::Relaxed);
                Ok(stream_seq)
            }
            Err(err) => {
                inner
                    .egress
                    .lock()
                    .expect("no panics hold the egress lock")
                    .tickets
                    .remove(&ticket);
                tenant.release();
                tenant.rejected.fetch_add(1, Ordering::Relaxed);
                let rebuild = |f: SoftFrame| ServiceFrame { key, modcod: f.modcod, llrs: f.llrs };
                Err(match err {
                    SubmitError::Rejected(f) => {
                        inner.stats.rejected_backpressure.fetch_add(1, Ordering::Relaxed);
                        ServiceError::Backpressure(rebuild(f))
                    }
                    SubmitError::UnknownModcod(f) => ServiceError::UnknownModcod(rebuild(f)),
                    SubmitError::WrongLength { frame, expected } => {
                        ServiceError::WrongLength { frame: rebuild(frame), expected }
                    }
                    SubmitError::ShutDown(f) => ServiceError::ShutDown(rebuild(f)),
                })
            }
        }
    }

    /// The next decoded frame in per-stream order, blocking until one is
    /// ready. Returns `None` once every collector has shut down and the
    /// ready queue is drained.
    pub fn next_output(&self) -> Option<ServiceOutput> {
        let inner = &*self.inner;
        let mut egress = inner.egress.lock().expect("no panics hold the egress lock");
        loop {
            if let Some(out) = egress.ready.pop_front() {
                drop(egress);
                if let Some(tenant) = inner.tenants.get(&out.key.tenant) {
                    tenant.release();
                }
                return Some(out);
            }
            if egress.open_collectors == 0 {
                return None;
            }
            // The timeout guards against missed wakeups; correctness does
            // not depend on it.
            let (guard, _) = inner
                .output_ready
                .wait_timeout(egress, Duration::from_millis(10))
                .expect("no panics hold the egress lock");
            egress = guard;
        }
    }

    /// The next decoded frame if one is ready right now.
    pub fn try_next_output(&self) -> Option<ServiceOutput> {
        let inner = &*self.inner;
        let out = inner.egress.lock().expect("no panics hold the egress lock").ready.pop_front()?;
        if let Some(tenant) = inner.tenants.get(&out.key.tenant) {
            tenant.release();
        }
        Some(out)
    }

    /// Re-routes every stream currently on `shard_uid` to other healthy
    /// shards (explicit operator migration). In-flight frames finish on
    /// the old shard; per-stream order is preserved by the egress
    /// reorder stage. Returns the number of streams moved — zero when no
    /// alternative shard exists.
    pub fn migrate_streams_off(&self, shard_uid: u64) -> usize {
        self.inner.migrate_off(shard_uid, false)
    }

    /// Installs a new MODCOD table and rolls the shard fleet: the old
    /// shards stop accepting frames and drain what they admitted, a fresh
    /// fleet built from the new table takes over, and streams re-route
    /// lazily on their next frame. No stream drops or reorders a frame
    /// across the transition. Returns the new table epoch.
    pub fn reconfigure(&self, table: ModcodTable) -> u64 {
        let inner = &self.inner;
        let mut route = inner.route.lock().expect("no panics hold the route lock");
        let epoch = inner.registry.swap(table);
        let snapshot = inner.registry.snapshot();
        // Under the route lock no submitter sees the old fleet again: a
        // stream whose shard is gone re-picks on its next frame.
        let retired = std::mem::take(&mut route.shards);
        for _ in 0..inner.config.shards {
            inner.spawn_shard(&mut route, snapshot.epoch, (*snapshot.table).clone(), None);
        }
        drop(route);
        // The new collectors are counted before the old ones can exit, so
        // `next_output` never sees the tier with no open collector. Each
        // old collector keeps its shard alive until the drain completes.
        for old in retired {
            old.pipeline.close_ingress();
        }
        inner.stats.reconfigs.fetch_add(1, Ordering::Relaxed);
        epoch
    }

    /// The current MODCOD-table epoch.
    pub fn epoch(&self) -> u64 {
        self.inner.registry.epoch()
    }

    /// A point-in-time snapshot of the service counters.
    pub fn stats(&self) -> ServiceStats {
        let inner = &*self.inner;
        inner
            .stats
            .snapshot(inner.registry.epoch(), inner.tenants.values().map(TenantStats::from_state))
    }

    /// A point-in-time view of every active shard.
    pub fn shards(&self) -> Vec<ShardStatus> {
        self.inner
            .route
            .lock()
            .expect("no panics hold the route lock")
            .shards
            .iter()
            .map(|s| ShardStatus {
                uid: s.uid,
                epoch: s.epoch,
                streams: s.streams.load(Ordering::Relaxed),
                in_flight: s.pipeline.in_flight(),
                health: s.pipeline.health(),
            })
            .collect()
    }

    /// Stops accepting frames, drains every shard, joins the collectors
    /// and the monitor, and returns the final counters. Outputs still in
    /// the ready queue at that point are dropped with the tier — consume
    /// them (via [`ServiceTier::next_output`]) before or while finishing.
    pub fn finish(mut self) -> ServiceStats {
        self.shutdown();
        self.stats()
    }

    /// Closes every shard and joins the monitor and the collectors. The
    /// handles are taken under the route lock and joined after it drops;
    /// a second call finds none left.
    fn shutdown(&mut self) {
        let collectors = {
            let mut route = self.inner.route.lock().expect("no panics hold the route lock");
            route.closed = true;
            for shard in &route.shards {
                shard.pipeline.close_ingress();
            }
            std::mem::take(&mut route.collectors)
        };
        for handle in self.monitor.take().into_iter().chain(collectors) {
            let _ = handle.join();
        }
    }
}

impl Drop for ServiceTier {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Inner {
    /// Builds one shard pipeline and its collector thread and adds the
    /// shard to the routable fleet.
    fn spawn_shard(
        self: &Arc<Self>,
        route: &mut RouteState,
        epoch: u64,
        table: ModcodTable,
        fault: Option<WorkerFaultInjection>,
    ) {
        let uid = route.next_shard_uid;
        route.next_shard_uid += 1;
        let mut pipeline_config = self.config.pipeline;
        pipeline_config.fault_injection = fault;
        let affinity = (0..table.len()).map(|_| AtomicBool::new(false)).collect();
        let shard = Arc::new(Shard {
            uid,
            epoch,
            pipeline: DecodePipeline::start(table, pipeline_config),
            affinity,
            streams: AtomicUsize::new(0),
        });
        self.egress.lock().expect("no panics hold the egress lock").open_collectors += 1;
        let collector = {
            let inner = Arc::clone(self);
            let shard = Arc::clone(&shard);
            std::thread::Builder::new()
                .name(format!("service-collector-{uid}"))
                .spawn(move || collector_loop(&inner, &shard))
                .expect("spawning a shard collector")
        };
        route.collectors.push(collector);
        route.shards.push(shard);
    }

    /// Re-routes every stream on `shard_uid`; `fault` tags the move as
    /// health-driven in the counters.
    fn migrate_off(&self, shard_uid: u64, fault: bool) -> usize {
        let mut guard = self.route.lock().expect("no panics hold the route lock");
        let RouteState { routes, shards, .. } = &mut *guard;
        let mut moved = 0;
        for (key, entry) in routes.iter_mut() {
            if entry.shard_uid != shard_uid {
                continue;
            }
            let Some(target) = pick_shard(shards, *key, entry.modcod, Some(shard_uid)) else {
                break;
            };
            if let Some(old) = shards.iter().find(|s| s.uid == shard_uid) {
                old.streams.fetch_sub(1, Ordering::Relaxed);
            }
            target.streams.fetch_add(1, Ordering::Relaxed);
            entry.shard_uid = target.uid;
            moved += 1;
            self.stats.migrations.fetch_add(1, Ordering::Relaxed);
            if fault {
                self.stats.fault_migrations.fetch_add(1, Ordering::Relaxed);
            }
        }
        moved
    }
}

/// Chooses a shard for a stream. Candidates are the routable shards;
/// each is scored by its *effective marginal load* — the per-healthy-worker
/// load after accepting the stream, `(streams + 1) / healthy_workers`,
/// using the pipeline's live quarantine verdicts. A shard with one of four
/// workers quarantined costs 4/3 as much per stream as a healthy peer, so
/// it keeps taking a proportional share of traffic instead of falling off
/// the old binary healthy/degraded cliff — and it resumes its full share
/// the moment the probe reinstates the worker, with no routing-table
/// event. Costs compare by integer cross-multiplication (no floats on the
/// routing path); a shard with zero healthy workers costs infinity and is
/// only chosen when every candidate is in that state. Among equal-cost
/// shards: MODCOD affinity first (warm decoder caches), then the
/// `(tenant, stream, modcod)` hash breaks the tie so equal shards see an
/// even spread. Returns `None` only when no shard but `exclude_uid` is
/// left.
fn pick_shard(
    shards: &[Arc<Shard>],
    key: StreamKey,
    modcod: usize,
    exclude_uid: Option<u64>,
) -> Option<Arc<Shard>> {
    let open: Vec<&Arc<Shard>> = shards.iter().filter(|s| Some(s.uid) != exclude_uid).collect();
    // Cost is the ratio streams/healthy; `le` compares a/b <= c/d as
    // a*d <= c*b, with x/0 treated as +infinity.
    let costs: Vec<(u64, u64)> = open
        .iter()
        .map(|s| {
            (
                s.streams.load(Ordering::Relaxed) as u64 + 1,
                s.pipeline.health().healthy_workers() as u64,
            )
        })
        .collect();
    let le = |a: (u64, u64), b: (u64, u64)| match (a.1, b.1) {
        (0, 0) => true,
        (0, _) => false,
        (_, 0) => true,
        _ => a.0 * b.1 <= b.0 * a.1,
    };
    let best = costs.iter().copied().reduce(|a, b| if le(a, b) { a } else { b })?;
    let (affine, plain): (Vec<&Arc<Shard>>, Vec<&Arc<Shard>>) =
        open.iter().zip(&costs).filter(|&(_, &c)| le(c, best)).map(|(s, _)| *s).partition(|s| {
            s.affinity.get(modcod).is_some_and(|affine| affine.load(Ordering::Relaxed))
        });
    let candidates = if affine.is_empty() { plain } else { affine };
    let mut hasher = DefaultHasher::new();
    (key.tenant, key.stream, modcod).hash(&mut hasher);
    Some(Arc::clone(candidates[hasher.finish() as usize % candidates.len()]))
}

/// Per-shard egress pump: hands each decoded frame to the service-level
/// release step. Exits when the shard's pipeline closes its egress (drain
/// complete).
fn collector_loop(inner: &Inner, shard: &Shard) {
    while let Some(decoded) = shard.pipeline.next_decoded() {
        inner.egress.lock().expect("no panics hold the egress lock").collect(
            decoded,
            (shard.uid, shard.epoch),
            &inner.stats,
            &inner.tenants,
        );
        inner.output_ready.notify_all();
    }
    let mut egress = inner.egress.lock().expect("no panics hold the egress lock");
    egress.open_collectors -= 1;
    drop(egress);
    inner.output_ready.notify_all();
}

impl EgressState {
    /// The release step: resolves `decoded`'s routing ticket, holds the
    /// frame in its stream's release buffer and moves every frame now in
    /// order to the ready queue. Each frame's latency is stamped as it is
    /// released, so it covers the per-stream reorder wait.
    fn collect(
        &mut self,
        decoded: DecodedFrame,
        (shard, epoch): (u64, u64),
        stats: &ServiceStatsCore,
        tenants: &BTreeMap<u32, TenantState>,
    ) {
        let Some(meta) = self.tickets.remove(&decoded.stream_index) else {
            // Unresolvable ticket: an internal invariant broke. Count it
            // loudly rather than hanging a stream's reorder buffer.
            stats.orphaned.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let output = ServiceOutput {
            key: meta.key,
            stream_seq: meta.stream_seq,
            shard,
            epoch,
            latency_ns: 0,
            decoded,
        };
        let stream = self.streams.entry(meta.key).or_default();
        stream.insert(meta.stream_seq, (meta.submitted_at, output));
        let released_at = Instant::now();
        while let Some((submitted_at, mut out)) = stream.pop() {
            out.latency_ns = released_at.saturating_duration_since(submitted_at).as_nanos() as u64;
            stats.latency.record(out.latency_ns);
            if let Some(tenant) = tenants.get(&out.key.tenant) {
                tenant.delivered.fetch_add(1, Ordering::Relaxed);
            }
            self.ready.push_back(out);
        }
    }
}

/// Health monitor: polls each shard's pipeline for syndrome-anomaly
/// quarantines and migrates streams off degraded shards while healthy
/// capacity exists.
fn monitor_loop(inner: &Inner) {
    let interval = Duration::from_millis(inner.config.health_poll_ms);
    loop {
        std::thread::sleep(interval);
        let degraded: Vec<u64> = {
            let route = inner.route.lock().expect("no panics hold the route lock");
            if route.closed {
                return;
            }
            route.shards.iter().filter(|s| s.pipeline.health().degraded()).map(|s| s.uid).collect()
        };
        for uid in degraded {
            inner.migrate_off(uid, true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decoded(ticket: u64) -> DecodedFrame {
        let now = Instant::now();
        DecodedFrame {
            seq: ticket,
            stream_index: ticket,
            modcod: 0,
            bits: BitVec::zeros(8),
            info_len: 4,
            iterations: 1,
            converged: true,
            iteration_cap: 1,
            accepted_at: now,
            emitted_at: now,
        }
    }

    #[test]
    fn a_held_frame_is_stamped_when_it_is_released() {
        const DELAY: Duration = Duration::from_millis(20);
        let key = StreamKey::new(1, 0);
        let tenants = BTreeMap::from([(1, TenantState::new(TenantPolicy::throughput_bound(1, 4)))]);
        let stats = ServiceStatsCore::default();
        let mut egress = EgressState::default();
        let submitted_at = Instant::now();
        for seq in 0..2 {
            egress.tickets.insert(seq, FrameMeta { key, stream_seq: seq, submitted_at });
        }

        egress.collect(decoded(1), (0, 0), &stats, &tenants);
        assert!(egress.ready.is_empty(), "seq 1 waits for seq 0");
        std::thread::sleep(DELAY);
        egress.collect(decoded(0), (0, 0), &stats, &tenants);

        let released: Vec<ServiceOutput> = egress.ready.drain(..).collect();
        assert_eq!(released.iter().map(|o| o.stream_seq).collect::<Vec<_>>(), [0, 1]);
        assert!(
            released[1].latency_ns >= DELAY.as_nanos() as u64,
            "seq 1's latency {} ns must cover its {DELAY:?} reorder wait",
            released[1].latency_ns
        );
        assert_eq!(released[0].latency_ns, released[1].latency_ns, "released together");
        let recorded = stats.latency.snapshot();
        assert_eq!(recorded.count(), 2);
        assert_eq!(recorded.total_ns, released.iter().map(|o| o.latency_ns).sum::<u64>());
        assert_eq!(recorded.max_ns, released[1].latency_ns);
        assert_eq!(tenants[&1].delivered.load(Ordering::Relaxed), 2);
    }
}
