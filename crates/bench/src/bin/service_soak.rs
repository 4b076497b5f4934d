//! Service-tier soak: an open-loop many-client load generator driving the
//! sharded [`ServiceTier`] with multiple tenants, streams and MODCODs,
//! through four phases:
//!
//! 1. **Parity** — the same seeded mixed-MODCOD stream decoded under 1 and
//!    2 shards plus a single-threaded reference; decoded bits must be
//!    identical everywhere, every stream delivered in order. End-to-end
//!    latency percentiles (exact nearest-rank over the raw samples) and
//!    per-tenant throughput are measured here.
//! 2. **Reconfig-under-load** — a hot MODCOD-table swap while first-half
//!    frames are still in flight; every frame delivers in per-stream order
//!    under the epoch it was admitted to, bit-identical to the reference.
//! 3. **Fault-migration** — a permanently corrupted worker on one shard;
//!    the quarantine detector plus the health monitor must migrate its
//!    streams without dropping or reordering a frame.
//! 4. **Overload** (skipped by `--quick`) — offered load far above
//!    capacity with tiny queues and tight tenant budgets; the service must
//!    refuse explicitly (shed/reject), never drop an admitted frame.
//!
//! Results land in `BENCH_service.json` at the repository root. Any
//! violated contract prints and exits non-zero (the `service-soak` CI job
//! runs `--quick`).

use dvbs2::channel::{mix_seed, Modulation, StreamKey};
use dvbs2::ldpc::{BitVec, CodeRate, FrameSize};
use dvbs2::{Modcod, ModcodTable};
use dvbs2_bench::args::{parse_env, Flag, Takes};
use dvbs2_bench::json::{write_record, Json, Object};
use dvbs2_pipeline::{AdmissionPolicy, PipelineConfig, QuarantinePolicy, WorkerFaultInjection};
use dvbs2_service::{
    ServiceConfig, ServiceError, ServiceFrame, ServiceOutput, ServiceStats, ServiceTier,
    ShardFaultInjection, TenantPolicy,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::ops::Range;
use std::time::{Duration, Instant};

const FLAGS: &[Flag] = &[
    Flag::taking("--frames", Takes::Positive("N"), "frames per stream per phase (default 36)"),
    Flag::taking("--seed", Takes::Number("S"), "stream seed, decimal or 0x-hex (default 0x5EC7)"),
    Flag::taking(
        "--interval-us",
        Takes::Number("U"),
        "open-loop pacing between a client's frames (default 250)",
    ),
    Flag::switch("--quick", "CI budget: 12 frames per stream, overload phase skipped"),
];

struct Options {
    frames: u64,
    seed: u64,
    interval: Duration,
    quick: bool,
}

fn parse_args() -> Options {
    let args = parse_env("service_soak", FLAGS);
    let quick = args.has("--quick");
    Options {
        frames: args.number("--frames").unwrap_or(if quick { 12 } else { 36 }),
        seed: args.number("--seed").unwrap_or(0x5EC7),
        interval: Duration::from_micros(args.number("--interval-us").unwrap_or(250)),
        quick,
    }
}

/// The mixed-MODCOD dispatch table the soak serves: BPSK plus both APSK
/// constellations, all short FECFRAMEs so lengths stay uniform.
fn soak_table() -> ModcodTable {
    ModcodTable::build(&[
        Modcod::new(Modulation::Bpsk, CodeRate::R1_2, FrameSize::Short),
        Modcod::new(Modulation::Apsk16, CodeRate::R2_3, FrameSize::Short),
        Modcod::new(Modulation::Apsk32, CodeRate::R3_4, FrameSize::Short),
    ])
    .unwrap()
}

/// A comfortably-above-waterfall operating point per MODCOD, so most
/// frames converge while the decoder still does real iteration work.
fn operating_ebn0_db(modcod: &Modcod) -> f64 {
    match modcod.modulation {
        Modulation::Apsk16 => 9.0,
        Modulation::Apsk32 => 12.0,
        _ => match modcod.rate {
            CodeRate::R1_2 => 2.0,
            CodeRate::R3_4 => 3.4,
            _ => 2.6,
        },
    }
}

/// Deterministic noisy frame `seq` of `key` on `modcod`: identical bits no
/// matter which client thread generates it or which shard decodes it.
fn noisy_frame(
    table: &ModcodTable,
    key: StreamKey,
    seq: u64,
    modcod: usize,
    salt: u64,
) -> ServiceFrame {
    let entry = table.entry(modcod);
    let stream_seed = mix_seed(u64::from(key.tenant) << 32 | u64::from(key.stream), salt);
    let mut rng = SmallRng::seed_from_u64(mix_seed(stream_seed, seq));
    let ebn0 = operating_ebn0_db(&entry.modcod);
    ServiceFrame { key, modcod, llrs: entry.system().transmit_frame(&mut rng, ebn0).llrs }
}

/// What one open-loop client observed at the ingress.
#[derive(Default)]
struct ClientCounts {
    /// Frames admitted per stream (the delivery contract to verify).
    admitted: HashMap<StreamKey, u64>,
    shed: u64,
    rejected_backpressure: u64,
    rejected_budget: u64,
}

impl ClientCounts {
    fn merge(&mut self, other: ClientCounts) {
        for (key, n) in other.admitted {
            *self.admitted.entry(key).or_insert(0) += n;
        }
        self.shed += other.shed;
        self.rejected_backpressure += other.rejected_backpressure;
        self.rejected_budget += other.rejected_budget;
    }

    fn total_admitted(&self) -> u64 {
        self.admitted.values().sum()
    }

    fn total_refused(&self) -> u64 {
        self.shed + self.rejected_backpressure + self.rejected_budget
    }
}

/// What a client does with a refused frame.
#[derive(Clone, Copy)]
enum Offer {
    /// A lossless uplink: soft refusals are retried until admitted, and
    /// every offer is followed by the pacing interval.
    Retry,
    /// True open loop, sized by backlog rather than by a frame count tuned
    /// to one decode time: a refused frame is dropped at the source and
    /// counted, the client pauses only after a refusal (so it offers as fast
    /// as the tier admits and the queues fill whatever a decode costs), and
    /// it keeps offering past its frame count until it has been refused or
    /// the deadline passes.
    UntilRefused { deadline: Instant },
}

/// One client's open-loop submission pass over its streams: frame `seq` of
/// every stream, paced by `interval`, refusals handled as `offer` says.
fn open_loop_submit(
    tier: &ServiceTier,
    keys: &[StreamKey],
    seqs: Range<u64>,
    interval: Duration,
    offer: Offer,
    build: &(dyn Fn(StreamKey, u64) -> ServiceFrame + Sync),
) -> ClientCounts {
    let mut counts = ClientCounts::default();
    let mut seq = seqs.start;
    loop {
        let unrefused = match offer {
            Offer::Retry => false,
            Offer::UntilRefused { deadline } => {
                counts.total_refused() == 0 && Instant::now() < deadline
            }
        };
        if seq >= seqs.end && !unrefused {
            break;
        }
        for &key in keys {
            let refused_before = counts.total_refused();
            let mut frame = build(key, seq);
            loop {
                match tier.submit(frame) {
                    Ok(_) => {
                        *counts.admitted.entry(key).or_insert(0) += 1;
                        break;
                    }
                    Err(err) if matches!(offer, Offer::Retry) => match err {
                        ServiceError::Backpressure(back)
                        | ServiceError::OverBudget(back)
                        | ServiceError::Shed(back) => {
                            frame = back;
                            std::thread::sleep(Duration::from_micros(50));
                        }
                        other => panic!("unexpected submit error: {other:?}"),
                    },
                    Err(ServiceError::Backpressure(_)) => {
                        counts.rejected_backpressure += 1;
                        break;
                    }
                    Err(ServiceError::OverBudget(_)) => {
                        counts.rejected_budget += 1;
                        break;
                    }
                    Err(ServiceError::Shed(_)) => {
                        counts.shed += 1;
                        break;
                    }
                    Err(other) => panic!("unexpected submit error: {other:?}"),
                }
            }
            let paced = matches!(offer, Offer::Retry) || counts.total_refused() > refused_before;
            if paced && !interval.is_zero() {
                std::thread::sleep(interval);
            }
        }
        seq += 1;
    }
    counts
}

/// Runs one concurrent client per entry (a tenant's stream set), merging
/// their admission counts.
fn run_clients(
    tier: &ServiceTier,
    clients: &[(Vec<StreamKey>, Range<u64>)],
    interval: Duration,
    offer: Offer,
    build: &(dyn Fn(StreamKey, u64) -> ServiceFrame + Sync),
) -> ClientCounts {
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter()
            .map(|(keys, seqs)| {
                let seqs = seqs.clone();
                scope.spawn(move || open_loop_submit(tier, keys, seqs, interval, offer, build))
            })
            .collect();
        let mut merged = ClientCounts::default();
        for handle in handles {
            merged.merge(handle.join().expect("client thread"));
        }
        merged
    })
}

/// Drains every admitted frame out of the tier (admission budgets only
/// free on consumption, so the expected count is exact).
fn drain_outputs(
    tier: &ServiceTier,
    expected: u64,
    label: &str,
    violations: &mut Vec<String>,
) -> Vec<ServiceOutput> {
    let mut outputs = Vec::with_capacity(expected as usize);
    let deadline = Instant::now() + Duration::from_secs(120);
    while (outputs.len() as u64) < expected {
        match tier.try_next_output() {
            Some(out) => outputs.push(out),
            None => {
                if Instant::now() > deadline {
                    violations.push(format!(
                        "[{label}] drained only {} of {expected} outputs before timeout",
                        outputs.len()
                    ));
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
    outputs
}

/// The zero-drop / zero-reorder contract: restricted to each stream the
/// delivery order must be exactly `0, 1, 2, ...` up to its admitted count.
fn verify_ordering(
    label: &str,
    outputs: &[ServiceOutput],
    admitted: &HashMap<StreamKey, u64>,
    violations: &mut Vec<String>,
) {
    let mut next: HashMap<StreamKey, u64> = HashMap::new();
    for out in outputs {
        let seq = next.entry(out.key).or_insert(0);
        if out.stream_seq != *seq {
            violations.push(format!(
                "[{label}] stream {:?} delivered seq {} while expecting {} (drop or reorder)",
                out.key, out.stream_seq, seq
            ));
            return;
        }
        *seq += 1;
    }
    for (key, expected) in admitted {
        let got = next.get(key).copied().unwrap_or(0);
        if got != *expected {
            violations.push(format!(
                "[{label}] stream {key:?} delivered {got} of {expected} admitted frames"
            ));
        }
    }
    for key in next.keys() {
        if !admitted.contains_key(key) {
            violations.push(format!("[{label}] stream {key:?} delivered without any admission"));
        }
    }
}

/// Exact nearest-rank quantile over raw samples (not the histogram
/// approximation the live counters use).
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

struct LatencySummary {
    p50: u64,
    p99: u64,
    p999: u64,
    max: u64,
    mean: f64,
}

fn summarize_latency(samples: impl Iterator<Item = u64>) -> LatencySummary {
    let mut sorted: Vec<u64> = samples.collect();
    sorted.sort_unstable();
    let mean = if sorted.is_empty() {
        0.0
    } else {
        sorted.iter().map(|&ns| ns as f64).sum::<f64>() / sorted.len() as f64
    };
    LatencySummary {
        p50: exact_quantile(&sorted, 0.50),
        p99: exact_quantile(&sorted, 0.99),
        p999: exact_quantile(&sorted, 0.999),
        max: sorted.last().copied().unwrap_or(0),
        mean,
    }
}

struct TenantRow {
    tenant: u32,
    delivered: u64,
    info_mbps: f64,
    latency: LatencySummary,
    shed: u64,
    rejected: u64,
}

struct PhaseRow {
    name: String,
    shards: usize,
    seconds: f64,
    counts: ClientCounts,
    outputs_latency: LatencySummary,
    per_tenant: Vec<TenantRow>,
    stats: ServiceStats,
}

fn build_row(
    name: &str,
    shards: usize,
    seconds: f64,
    counts: ClientCounts,
    outputs: &[ServiceOutput],
    stats: ServiceStats,
) -> PhaseRow {
    let mut per_tenant = Vec::new();
    for tenant in &stats.tenants {
        let mine: Vec<&ServiceOutput> =
            outputs.iter().filter(|o| o.key.tenant == tenant.tenant).collect();
        let info_bits: f64 = mine.iter().map(|o| o.decoded.info_len as f64).sum();
        per_tenant.push(TenantRow {
            tenant: tenant.tenant,
            delivered: tenant.delivered,
            info_mbps: info_bits / 1e6 / seconds,
            latency: summarize_latency(mine.iter().map(|o| o.latency_ns)),
            shed: tenant.shed,
            rejected: tenant.rejected,
        });
    }
    PhaseRow {
        name: name.to_string(),
        shards,
        seconds,
        counts,
        outputs_latency: summarize_latency(outputs.iter().map(|o| o.latency_ns)),
        per_tenant,
        stats,
    }
}

/// Accounting invariants every phase must satisfy on top of ordering.
fn check_stats(label: &str, row: &PhaseRow, violations: &mut Vec<String>) {
    let stats = &row.stats;
    let mut check = |ok: bool, what: String| {
        if !ok {
            violations.push(format!("[{label}] {what}"));
        }
    };
    check(
        stats.submitted == row.counts.total_admitted(),
        format!("submitted {} != admitted {}", stats.submitted, row.counts.total_admitted()),
    );
    check(
        stats.delivered == stats.submitted,
        format!("delivered {} of {} admitted frames", stats.delivered, stats.submitted),
    );
    check(stats.orphaned == 0, format!("{} orphaned frames stranded behind a gap", stats.orphaned));
    // Clients only count sheds they drop (open loop); retried sheds are
    // invisible to them but still counted by the service.
    check(
        stats.shed_latency >= row.counts.shed,
        format!("shed accounting: stats {} < clients {}", stats.shed_latency, row.counts.shed),
    );
    for tenant in &stats.tenants {
        check(
            tenant.in_flight == 0,
            format!("tenant {} still holds {} budget units", tenant.tenant, tenant.in_flight),
        );
    }
}

fn main() {
    let options = parse_args();
    let table = soak_table();
    let mut violations: Vec<String> = Vec::new();
    let mut rows: Vec<PhaseRow> = Vec::new();

    // Two tenants on opposite SLA classes, four streams each, MODCOD
    // slot = stream % 3 so every constellation carries traffic.
    let tenant_keys =
        |tenant: u32| -> Vec<StreamKey> { (0..4).map(|s| StreamKey::new(tenant, s)).collect() };
    let slot_of = |key: StreamKey| -> usize { (key.stream % 3) as usize };
    let policies =
        || vec![TenantPolicy::throughput_bound(1, 4096), TenantPolicy::latency_bound(2, 4096)];
    let clients: Vec<(Vec<StreamKey>, Range<u64>)> =
        vec![(tenant_keys(1), 0..options.frames), (tenant_keys(2), 0..options.frames)];
    let all_keys: Vec<StreamKey> =
        clients.iter().flat_map(|(keys, _)| keys.iter().copied()).collect();
    let total_frames = all_keys.len() as u64 * options.frames;

    // ---- phase 1: parity across shard counts ----------------------------
    // The same seeded stream under 1 and 2 shards must be bit-identical to
    // a single-threaded reference (one reused decoder per slot).
    println!(
        "parity phase: {} streams x {} frames, slots {:?}",
        all_keys.len(),
        options.frames,
        (0..table.len())
            .map(|s| (table.entry(s).modcod.modulation, table.entry(s).modcod.rate))
            .collect::<Vec<_>>()
    );
    let parity_build = |key: StreamKey, seq: u64| -> ServiceFrame {
        noisy_frame(&table, key, seq, slot_of(key), options.seed)
    };
    let mut reference: HashMap<(StreamKey, u64), (BitVec, bool)> = HashMap::new();
    {
        let mut decoders: Vec<_> =
            (0..table.len()).map(|s| table.entry(s).make_decoder()).collect();
        for &key in &all_keys {
            for seq in 0..options.frames {
                let frame = parity_build(key, seq);
                let out = decoders[frame.modcod].decode(&frame.llrs);
                reference.insert((key, seq), (out.bits, out.converged));
            }
        }
    }
    let mut parity_bits: Vec<HashMap<(StreamKey, u64), BitVec>> = Vec::new();
    for shards in [1usize, 2] {
        let label = format!("parity-s{shards}");
        let tier = ServiceTier::start(
            table.clone(),
            ServiceConfig {
                shards,
                pipeline: PipelineConfig {
                    workers: 2,
                    ingress_capacity: 16,
                    max_in_flight: 32,
                    admission: AdmissionPolicy::Off,
                    ..PipelineConfig::default()
                },
                tenants: policies(),
                ..ServiceConfig::default()
            },
        );
        let started = Instant::now();
        let counts = run_clients(&tier, &clients, options.interval, Offer::Retry, &parity_build);
        let outputs = drain_outputs(&tier, counts.total_admitted(), &label, &mut violations);
        let seconds = started.elapsed().as_secs_f64();
        verify_ordering(&label, &outputs, &counts.admitted, &mut violations);
        let mut mismatches = 0usize;
        let mut bits = HashMap::new();
        for out in &outputs {
            let (ref_bits, ref_converged) = &reference[&(out.key, out.stream_seq)];
            if &out.decoded.bits != ref_bits || out.decoded.converged != *ref_converged {
                mismatches += 1;
            }
            bits.insert((out.key, out.stream_seq), out.decoded.bits.clone());
        }
        if mismatches > 0 {
            violations.push(format!(
                "[{label}] {mismatches} of {total_frames} frames differ from the reference"
            ));
        }
        parity_bits.push(bits);
        let row = build_row(&label, shards, seconds, counts, &outputs, tier.finish());
        check_stats(&label, &row, &mut violations);
        println!(
            "{label}: {:.2}s, p50 {:.0}us p99 {:.0}us p999 {:.0}us",
            seconds,
            row.outputs_latency.p50 as f64 / 1e3,
            row.outputs_latency.p99 as f64 / 1e3,
            row.outputs_latency.p999 as f64 / 1e3,
        );
        rows.push(row);
    }
    if parity_bits[0] != parity_bits[1] {
        violations.push("[parity] decoded bits differ between 1 and 2 shards".to_string());
    }

    // ---- phase 2: hot MODCOD reconfiguration under load ------------------
    // Swap the table (slots remapped) while first-half frames are still in
    // flight in the old shards; everything delivers under its own epoch.
    let old_table = ModcodTable::build(&[
        Modcod::new(Modulation::Bpsk, CodeRate::R1_2, FrameSize::Short),
        Modcod::new(Modulation::Apsk16, CodeRate::R2_3, FrameSize::Short),
    ])
    .unwrap();
    let new_table = ModcodTable::build(&[
        Modcod::new(Modulation::Apsk16, CodeRate::R2_3, FrameSize::Short),
        Modcod::new(Modulation::Bpsk, CodeRate::R3_4, FrameSize::Short),
    ])
    .unwrap();
    let half = (options.frames / 2).max(1);
    let reconfig_salt = options.seed ^ 0x7AB1E;
    let old_build = |key: StreamKey, seq: u64| -> ServiceFrame {
        noisy_frame(&old_table, key, seq, (key.stream % 2) as usize, reconfig_salt)
    };
    let new_build = |key: StreamKey, seq: u64| -> ServiceFrame {
        noisy_frame(&new_table, key, seq, (key.stream % 2) as usize, reconfig_salt)
    };
    {
        let label = "reconfig";
        let tier = ServiceTier::start(
            old_table.clone(),
            ServiceConfig {
                shards: 2,
                pipeline: PipelineConfig {
                    workers: 2,
                    admission: AdmissionPolicy::Off,
                    ..PipelineConfig::default()
                },
                tenants: policies(),
                ..ServiceConfig::default()
            },
        );
        let first: Vec<(Vec<StreamKey>, Range<u64>)> =
            vec![(tenant_keys(1), 0..half), (tenant_keys(2), 0..half)];
        let second: Vec<(Vec<StreamKey>, Range<u64>)> =
            vec![(tenant_keys(1), half..options.frames), (tenant_keys(2), half..options.frames)];
        let started = Instant::now();
        let mut counts = run_clients(&tier, &first, options.interval, Offer::Retry, &old_build);
        let in_flight_at_swap: usize = tier.shards().iter().map(|s| s.in_flight).sum();
        let epoch = tier.reconfigure(new_table.clone());
        if epoch != 1 {
            violations.push(format!("[{label}] reconfigure returned epoch {epoch}, expected 1"));
        }
        counts.merge(run_clients(&tier, &second, options.interval, Offer::Retry, &new_build));
        let outputs = drain_outputs(&tier, counts.total_admitted(), label, &mut violations);
        let seconds = started.elapsed().as_secs_f64();
        verify_ordering(label, &outputs, &counts.admitted, &mut violations);
        let mut decoders_old: Vec<_> =
            (0..old_table.len()).map(|s| old_table.entry(s).make_decoder()).collect();
        let mut decoders_new: Vec<_> =
            (0..new_table.len()).map(|s| new_table.entry(s).make_decoder()).collect();
        let mut epoch_errors = 0usize;
        let mut mismatches = 0usize;
        for out in &outputs {
            let expected_epoch = u64::from(out.stream_seq >= half);
            if out.epoch != expected_epoch {
                epoch_errors += 1;
            }
            let frame = if out.stream_seq < half {
                old_build(out.key, out.stream_seq)
            } else {
                new_build(out.key, out.stream_seq)
            };
            let reference = if out.stream_seq < half {
                decoders_old[frame.modcod].decode(&frame.llrs)
            } else {
                decoders_new[frame.modcod].decode(&frame.llrs)
            };
            if out.decoded.bits != reference.bits {
                mismatches += 1;
            }
        }
        if epoch_errors > 0 {
            violations
                .push(format!("[{label}] {epoch_errors} frames decoded under the wrong epoch"));
        }
        if mismatches > 0 {
            violations.push(format!("[{label}] {mismatches} frames differ from the reference"));
        }
        for status in tier.shards() {
            if status.epoch != 1 {
                violations.push(format!(
                    "[{label}] stale shard after the roll: uid {} epoch {}",
                    status.uid, status.epoch
                ));
            }
        }
        let row = build_row(label, 2, seconds, counts, &outputs, tier.finish());
        if row.stats.reconfigs != 1 {
            violations.push(format!("[{label}] reconfigs counter is {}", row.stats.reconfigs));
        }
        if row.stats.migrations < all_keys.len() as u64 {
            violations.push(format!(
                "[{label}] only {} migrations; every stream must re-route once",
                row.stats.migrations
            ));
        }
        check_stats(label, &row, &mut violations);
        println!(
            "{label}: {:.2}s, {} frames in flight at the swap, {} migrations",
            seconds, in_flight_at_swap, row.stats.migrations
        );
        rows.push(row);
    }

    // ---- phase 3: fault-driven migration ---------------------------------
    // Shard 0's worker 0 corrupts every frame; the syndrome-anomaly
    // quarantine flags it, the monitor migrates its streams, and nothing
    // drops or reorders. Strong all-zero frames keep the fault signature
    // deterministic.
    {
        let label = "fault-migration";
        let fault_frames = options.frames.max(40);
        let n = table.entry(0).frame_len();
        let strong_build =
            |key: StreamKey, _seq: u64| ServiceFrame { key, modcod: 0, llrs: vec![6.0; n] };
        let tier = ServiceTier::start(
            table.clone(),
            ServiceConfig {
                shards: 2,
                pipeline: PipelineConfig {
                    workers: 2,
                    quarantine: QuarantinePolicy {
                        enabled: true,
                        alpha: 0.5,
                        nonconv_threshold: 0.5,
                        syndrome_threshold: 0.01,
                        min_decodes: 3,
                        probe_passes: 2,
                        probe_interval_ms: 1,
                    },
                    ..PipelineConfig::default()
                },
                tenants: policies(),
                health_poll_ms: 2,
                fault_injection: Some(ShardFaultInjection {
                    shard: 0,
                    injection: WorkerFaultInjection::permanent(0),
                }),
            },
        );
        let fault_clients: Vec<(Vec<StreamKey>, Range<u64>)> =
            vec![(tenant_keys(1), 0..fault_frames), (tenant_keys(2), 0..fault_frames)];
        let started = Instant::now();
        let counts = run_clients(
            &tier,
            &fault_clients,
            Duration::from_millis(1),
            Offer::Retry,
            &strong_build,
        );
        let outputs = drain_outputs(&tier, counts.total_admitted(), label, &mut violations);
        let seconds = started.elapsed().as_secs_f64();
        verify_ordering(label, &outputs, &counts.admitted, &mut violations);
        let corrupted = outputs.iter().filter(|o| !o.decoded.converged).count();
        let row = build_row(label, 2, seconds, counts, &outputs, tier.finish());
        if row.stats.fault_migrations == 0 {
            violations.push(format!(
                "[{label}] the monitor never migrated streams off the degraded shard"
            ));
        }
        check_stats(label, &row, &mut violations);
        println!(
            "{label}: {:.2}s, {} fault migrations, {} of {} frames corrupted before containment",
            seconds,
            row.stats.fault_migrations,
            corrupted,
            outputs.len()
        );
        rows.push(row);
    }

    // ---- phase 4: overload (full runs only) ------------------------------
    // Offered load far above capacity against tiny queues and tight tenant
    // budgets. Pure open loop: a refused frame is dropped at the source.
    // The contract is explicit refusal — every *admitted* frame still
    // delivers in order.
    if !options.quick {
        let label = "overload";
        let n = table.entry(0).frame_len();
        let strong_build =
            |key: StreamKey, _seq: u64| ServiceFrame { key, modcod: 0, llrs: vec![6.0; n] };
        let tier = ServiceTier::start(
            table.clone(),
            ServiceConfig {
                shards: 2,
                pipeline: PipelineConfig {
                    workers: 1,
                    ingress_capacity: 4,
                    max_in_flight: 8,
                    admission: AdmissionPolicy::Adaptive { min_iterations: 4 },
                    ..PipelineConfig::default()
                },
                tenants: vec![
                    TenantPolicy::throughput_bound(1, 16),
                    TenantPolicy::latency_bound(2, 16),
                ],
                ..ServiceConfig::default()
            },
        );
        let overload_frames = options.frames * 4;
        let overload_clients: Vec<(Vec<StreamKey>, Range<u64>)> =
            vec![(tenant_keys(1), 0..overload_frames), (tenant_keys(2), 0..overload_frames)];
        let started = Instant::now();
        // A live consumer recycles tenant budget units while the clients
        // hammer the ingress, so admission keeps churning instead of
        // saturating at the budget once.
        let stop = std::sync::atomic::AtomicBool::new(false);
        let (counts, mut outputs) = std::thread::scope(|scope| {
            let consumer = scope.spawn(|| {
                let mut got = Vec::new();
                loop {
                    match tier.try_next_output() {
                        Some(out) => got.push(out),
                        None => {
                            if stop.load(std::sync::atomic::Ordering::Relaxed) {
                                break;
                            }
                            std::thread::sleep(Duration::from_micros(200));
                        }
                    }
                }
                got
            });
            // Sized by backlog: each client offers as fast as the tier
            // admits, so the tiny queues fill however cheap a decode is,
            // and backs off one interval per refusal, so budget units
            // recycle through the consumer and admission keeps churning
            // instead of ending in one burst of refusals. A client that
            // has offered every frame unrefused goes on until it is, for
            // at most ten seconds.
            let offer = Offer::UntilRefused { deadline: Instant::now() + Duration::from_secs(10) };
            let counts =
                run_clients(&tier, &overload_clients, options.interval, offer, &strong_build);
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            (counts, consumer.join().expect("overload consumer"))
        });
        let remaining = counts.total_admitted().saturating_sub(outputs.len() as u64);
        outputs.extend(drain_outputs(&tier, remaining, label, &mut violations));
        let seconds = started.elapsed().as_secs_f64();
        verify_ordering(label, &outputs, &counts.admitted, &mut violations);
        if counts.total_refused() == 0 {
            violations.push(format!("[{label}] load far above capacity yet nothing was refused"));
        }
        let row = build_row(label, 2, seconds, counts, &outputs, tier.finish());
        check_stats(label, &row, &mut violations);
        println!(
            "{label}: {:.2}s, admitted {} shed {} rejected {} (bp) + {} (budget)",
            seconds,
            row.counts.total_admitted(),
            row.counts.shed,
            row.counts.rejected_backpressure,
            row.counts.rejected_budget,
        );
        rows.push(row);
    }

    // ---- record ----------------------------------------------------------
    let us = |ns: f64| Json::Num(ns / 1e3, 1);
    let latency = |l: &LatencySummary| {
        Object::new()
            .with("p50_us", us(l.p50 as f64))
            .with("p99_us", us(l.p99 as f64))
            .with("p999_us", us(l.p999 as f64))
            .with("max_us", us(l.max as f64))
            .with("mean_us", us(l.mean))
    };
    let tenant = |tenant: u32, sla: &str| {
        Object::new().with("tenant", tenant).with("sla", sla).with("streams", 4u32)
    };
    let record = Object::new()
        .with("benchmark", "service_soak")
        .provenance()
        .with("seed", options.seed)
        .with("frames_per_stream", options.frames)
        .with("interval_us", options.interval.as_micros())
        .with("quick", options.quick)
        .with("slots", Json::array(["BPSK 1/2 short", "16APSK 2/3 short", "32APSK 3/4 short"]))
        .with("tenants", Json::array([tenant(1, "throughput_bound"), tenant(2, "latency_bound")]))
        .with(
            "units",
            "end-to-end latency (submit to in-order delivery) in microseconds, exact \
             nearest-rank percentiles over raw samples",
        )
        .with(
            "phases",
            Json::array(rows.iter().map(|row| {
                Object::new()
                    .with("name", row.name.as_str())
                    .with("shards", row.shards)
                    .with("seconds", Json::Num(row.seconds, 3))
                    .with("admitted", row.counts.total_admitted())
                    .with("delivered", row.stats.delivered)
                    .with("shed", row.counts.shed)
                    .with("rejected_backpressure", row.counts.rejected_backpressure)
                    .with("rejected_budget", row.counts.rejected_budget)
                    .with("migrations", row.stats.migrations)
                    .with("fault_migrations", row.stats.fault_migrations)
                    .with("reconfigs", row.stats.reconfigs)
                    .with("epoch", row.stats.epoch)
                    .with("latency", latency(&row.outputs_latency))
                    .with(
                        "per_tenant",
                        Json::array(row.per_tenant.iter().map(|tenant| {
                            Object::new()
                                .with("tenant", tenant.tenant)
                                .with("delivered", tenant.delivered)
                                .with("info_mbps", Json::Num(tenant.info_mbps, 3))
                                .with("shed", tenant.shed)
                                .with("rejected", tenant.rejected)
                                .with("latency", latency(&tenant.latency))
                        })),
                    )
            })),
        );
    write_record("BENCH_service.json", record).expect("writing BENCH_service.json");

    if !violations.is_empty() {
        eprintln!("\n{} contract violation(s):", violations.len());
        for v in &violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
    println!("service soak clean");
}
