//! The service tier proper: sharded routing, tenant admission, stream
//! migration, hot reconfiguration and health monitoring over one shared
//! egress.
//!
//! Ordering argument, in one place. Per-stream sequence numbers are
//! assigned under the route lock and only on a successful shard admit, so
//! they are gap-free. A frame carries its `(stream, seq)` through its shard,
//! and every shard's workers release into the one shared [`Egress`], which
//! releases each stream strictly in sequence order whichever shard or
//! worker finished first, and never holds one stream behind another.
//! Workers never drop an admitted frame, so a stream never waits on a hole
//! that cannot fill.

use crate::stats::{ServiceStats, ServiceStatsCore, TenantStats};
use crate::tenant::{SlaClass, TenantPolicy, TenantState};
use dvbs2::framing::{extract_bbframe, BbHeader, FramingError};
use dvbs2::ModcodTable;
use dvbs2_channel::StreamKey;
use dvbs2_ldpc::BitVec;
use dvbs2_pipeline::{
    DecodePipeline, DecodedFrame, Egress, PipelineConfig, PipelineHealth, Released, SoftFrame,
    SubmitError, WorkerFaultInjection,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

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
    /// End-to-end service latency (shard admission to in-order release),
    /// ns: stamped when the egress releases the frame.
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
    /// lock that closes its ingress.
    shards: Vec<Shard>,
    /// Retired pools: each reconfiguration drops the drained ones,
    /// shutdown joins the rest.
    retired: Vec<DecodePipeline>,
    next_shard_uid: u64,
}

struct Inner {
    /// The MODCOD-table epoch (0 for the initial table), written under the
    /// route lock by the reconfiguration that installs a table.
    epoch: AtomicU64,
    config: ServiceConfig,
    stats: ServiceStatsCore,
    /// Immutable after start; per-tenant state is interior-atomic.
    tenants: BTreeMap<u32, TenantState>,
    route: Mutex<RouteState>,
    /// The one release stage behind every shard; the tenant budgets, held
    /// until a consumer takes a frame, bound its ready queue.
    egress: Arc<Egress>,
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
            epoch: AtomicU64::new(0),
            stats: ServiceStatsCore::default(),
            tenants,
            route: Mutex::new(RouteState::default()),
            egress: Arc::default(),
            config,
        });
        {
            let mut route = inner.route.lock().expect("no panics hold the route lock");
            for index in 0..inner.config.shards {
                let fault =
                    inner.config.fault_injection.filter(|f| f.shard == index).map(|f| f.injection);
                inner.spawn_shard(&mut route, 0, &table, fault);
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
        // Route lock held through the shard admit: a stream's next sequence
        // number is claimed only once its frame is admitted.
        let mut guard = inner.route.lock().expect("no panics hold the route lock");
        let RouteState { routes, shards, .. } = &mut *guard;
        let key = frame.key;
        let existing = routes.get(&key).map(|r| r.shard_uid);
        let sticky = existing.and_then(|uid| shards.iter().find(|s| s.uid == uid));
        let (shard, migrated) = match sticky {
            Some(shard) => (shard, false),
            None => {
                // First frame of the stream, or its shard was retired by a
                // reconfiguration: (re-)pick by affinity/hash. In-flight
                // frames on the old shard still deliver; egress reordering
                // keeps the stream in order across the move.
                let Some(shard) = pick_shard(shards, key, frame.modcod, None) else {
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
        let entry = routes.entry(key).or_insert_with(|| {
            shard.streams.fetch_add(1, Ordering::Relaxed);
            StreamRoute { shard_uid: shard.uid, next_seq: 0, modcod: frame.modcod }
        });
        let stream_seq = entry.next_seq;
        let soft = SoftFrame { modcod: frame.modcod, stream_index: stream_seq, llrs: frame.llrs };
        match shard.pipeline.try_submit_at(soft, (key, stream_seq)) {
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
    /// ready. Returns `None` once every shard's workers have exited and the
    /// ready queue is drained.
    pub fn next_output(&self) -> Option<ServiceOutput> {
        self.inner.egress.next().map(|released| self.inner.hand_out(released))
    }

    /// The next decoded frame if one is ready right now.
    pub fn try_next_output(&self) -> Option<ServiceOutput> {
        self.inner.egress.try_next().map(|released| self.inner.hand_out(released))
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
        let epoch = inner.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        // Retired pools whose workers have all exited go; dropping them
        // joins nothing that is still decoding.
        route.retired.retain(|pool| !pool.is_drained());
        // Under the route lock no submitter sees the old fleet again: a
        // stream whose shard is gone re-picks on its next frame.
        let old = std::mem::take(&mut route.shards);
        for _ in 0..inner.config.shards {
            inner.spawn_shard(&mut route, epoch, &table, None);
        }
        // The new fleet's workers are counted on the egress before the old
        // fleet closes, so `next_output` never sees no running worker.
        for shard in old {
            shard.pipeline.close_ingress();
            route.retired.push(shard.pipeline);
        }
        drop(route);
        inner.stats.reconfigs.fetch_add(1, Ordering::Relaxed);
        epoch
    }

    /// The current MODCOD-table epoch.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::Relaxed)
    }

    /// A point-in-time snapshot of the service counters. A tenant's
    /// deliveries are the frames the egress has released in its streams.
    pub fn stats(&self) -> ServiceStats {
        let inner = &*self.inner;
        let released = inner.egress.released_per_stream();
        let tenants = inner.tenants.values().map(|state| {
            let delivered = released.iter().filter(|(key, _)| key.tenant == state.policy.tenant);
            TenantStats::from_state(state, delivered.map(|(_, count)| count).sum())
        });
        let epoch = inner.epoch.load(Ordering::Relaxed);
        inner.stats.snapshot(epoch, inner.egress.stats(), tenants.collect())
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

    /// Stops accepting frames, drains every shard, joins the shards'
    /// workers and the monitor, and returns the final counters. Outputs
    /// still in the ready queue at that point are dropped with the tier —
    /// consume them (via [`ServiceTier::next_output`]) before or while
    /// finishing.
    pub fn finish(mut self) -> ServiceStats {
        self.shutdown();
        self.stats()
    }

    /// Closes every shard and joins the monitor and every pool, retired or
    /// not (dropping a pool joins it). The pools are taken under the route
    /// lock and joined after it drops; a second call finds none left.
    fn shutdown(&mut self) {
        let pools = {
            let mut route = self.inner.route.lock().expect("no panics hold the route lock");
            for shard in &route.shards {
                shard.pipeline.close_ingress();
            }
            (std::mem::take(&mut route.shards), std::mem::take(&mut route.retired))
        };
        if let Some(monitor) = self.monitor.take() {
            let _ = monitor.join();
        }
        drop(pools);
    }
}

impl Drop for ServiceTier {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Inner {
    /// Builds one shard's worker pool over the shared egress and adds the
    /// shard to the routable fleet.
    fn spawn_shard(
        &self,
        route: &mut RouteState,
        epoch: u64,
        table: &ModcodTable,
        fault: Option<WorkerFaultInjection>,
    ) {
        let uid = route.next_shard_uid;
        route.next_shard_uid += 1;
        let config = PipelineConfig { fault_injection: fault, ..self.config.pipeline };
        let affinity = (0..table.len()).map(|_| AtomicBool::new(false)).collect();
        let pipeline =
            DecodePipeline::start_shard(table.clone(), config, &self.egress, (uid, epoch));
        route.shards.push(Shard { uid, epoch, pipeline, affinity, streams: AtomicUsize::new(0) });
    }

    /// Hands a released frame to the consumer: its tenant's budget unit
    /// returns.
    fn hand_out(&self, released: Released) -> ServiceOutput {
        let Released { stream: key, shard: (shard, epoch), frame: decoded } = released;
        if let Some(tenant) = self.tenants.get(&key.tenant) {
            tenant.release();
        }
        let (stream_seq, latency_ns) = (decoded.seq, decoded.latency().as_nanos() as u64);
        ServiceOutput { key, stream_seq, shard, epoch, latency_ns, decoded }
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
    shards: &[Shard],
    key: StreamKey,
    modcod: usize,
    exclude_uid: Option<u64>,
) -> Option<&Shard> {
    let open: Vec<&Shard> = shards.iter().filter(|s| Some(s.uid) != exclude_uid).collect();
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
    let (affine, plain): (Vec<&Shard>, Vec<&Shard>) =
        open.iter().zip(&costs).filter(|&(_, &c)| le(c, best)).map(|(s, _)| *s).partition(|s| {
            s.affinity.get(modcod).is_some_and(|affine| affine.load(Ordering::Relaxed))
        });
    let candidates = if affine.is_empty() { plain } else { affine };
    let mut hasher = DefaultHasher::new();
    (key.tenant, key.stream, modcod).hash(&mut hasher);
    Some(candidates[hasher.finish() as usize % candidates.len()])
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
            // Shutdown takes the whole fleet.
            if route.shards.is_empty() {
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
    use dvbs2::ldpc::{CodeRate, FrameSize};
    use dvbs2::Modcod;
    use dvbs2_channel::Modulation;
    use std::time::Instant;

    fn table() -> ModcodTable {
        ModcodTable::build(&[Modcod::new(Modulation::Bpsk, CodeRate::R1_2, FrameSize::Short)])
            .unwrap()
    }

    #[test]
    fn a_held_frame_is_stamped_when_it_is_released() {
        const DELAY: Duration = Duration::from_millis(20);
        let key = StreamKey::new(1, 0);
        let table = table();
        let n = table.entry(0).frame_len();
        let tier = ServiceTier::start(
            table,
            ServiceConfig {
                shards: 1,
                pipeline: PipelineConfig { workers: 1, ..PipelineConfig::default() },
                tenants: vec![TenantPolicy::throughput_bound(1, 4)],
                ..ServiceConfig::default()
            },
        );
        let tenant = &tier.inner.tenants[&1];
        assert!(tenant.try_claim() && tenant.try_claim(), "the two frames' budget units");
        // Seq 1 enters the shard first and decodes while seq 0 is missing.
        let admit = |seq: u64| {
            let frame = SoftFrame { modcod: 0, stream_index: seq, llrs: vec![6.0; n] };
            let route = tier.inner.route.lock().unwrap();
            route.shards[0].pipeline.try_submit_at(frame, (key, seq)).unwrap();
        };
        admit(1);
        std::thread::sleep(DELAY);
        assert!(tier.try_next_output().is_none(), "seq 1 waits for seq 0");
        admit(0);

        let released: Vec<ServiceOutput> = (0..2).map(|_| tier.next_output().unwrap()).collect();
        assert_eq!(released.iter().map(|o| o.stream_seq).collect::<Vec<_>>(), [0, 1]);
        assert!(
            released[1].latency_ns >= DELAY.as_nanos() as u64,
            "seq 1's latency {} ns must cover its {DELAY:?} reorder wait",
            released[1].latency_ns
        );
        let emitted_at = |out: &ServiceOutput| out.decoded.emitted_at;
        assert_eq!(emitted_at(&released[0]), emitted_at(&released[1]), "released together");
        let stats = tier.stats();
        assert_eq!(stats.latency.count(), 2);
        assert_eq!(stats.latency.total_ns, released.iter().map(|o| o.latency_ns).sum::<u64>());
        assert_eq!(stats.latency.max_ns, released[1].latency_ns);
        assert_eq!(stats.tenants[0].delivered, 2);
    }

    #[test]
    fn reconfigurations_keep_only_the_pools_still_draining() {
        const ROLLS: usize = 16;
        const SHARDS: usize = 2;
        let tier = ServiceTier::start(
            table(),
            ServiceConfig {
                shards: SHARDS,
                pipeline: PipelineConfig { workers: 1, ..PipelineConfig::default() },
                ..ServiceConfig::default()
            },
        );
        let route = || tier.inner.route.lock().unwrap();
        for _ in 0..ROLLS {
            tier.reconfigure(table());
            // Nothing is in flight, so the fleet just retired drains at once.
            let deadline = Instant::now() + Duration::from_secs(10);
            while !route().retired.iter().all(DecodePipeline::is_drained) {
                assert!(Instant::now() < deadline, "an idle retired pool never drained");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let retired = route().retired.len();
        assert!(retired <= SHARDS, "{retired} retired pools kept after {ROLLS} rolls");
        assert_eq!(tier.finish().reconfigs, ROLLS as u64);
    }
}
