//! Integration contracts of the sharded service tier: shard-count
//! invariance (bit parity with a single-threaded reference), per-stream
//! in-order egress across migrations and hot reconfigurations,
//! fault-driven migration, tenant admission, and BBFRAME demux.

use dvbs2::channel::{mix_seed, Modulation, StreamKey};
use dvbs2::decoder::DecoderConfig;
use dvbs2::framing::{assemble_bbframe, BbHeader};
use dvbs2::ldpc::{BitVec, CodeRate, FrameSize};
use dvbs2::{DecoderKind, DecoderProfile, Modcod, ModcodTable};
use dvbs2_pipeline::{PipelineConfig, QuarantinePolicy, WorkerFaultInjection};
use dvbs2_service::{
    ServiceConfig, ServiceError, ServiceFrame, ServiceOutput, ServiceStats, ServiceTier,
    ShardFaultInjection, TenantPolicy, TenantStats,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashMap;

fn short_table(rates: &[CodeRate]) -> ModcodTable {
    let modcods: Vec<Modcod> =
        rates.iter().map(|&rate| Modcod::new(Modulation::Bpsk, rate, FrameSize::Short)).collect();
    ModcodTable::build(&modcods).unwrap()
}

fn anchor_db(rate: CodeRate) -> f64 {
    match rate {
        CodeRate::R1_2 => 1.4,
        CodeRate::R3_4 => 2.8,
        CodeRate::R8_9 => 4.2,
        _ => 2.0,
    }
}

/// Deterministic noisy LLRs for frame `seq` of `key` on `modcod`:
/// identical no matter which shard (or reference decoder) consumes them.
fn noisy_llrs(table: &ModcodTable, key: StreamKey, seq: u64, modcod: usize) -> Vec<f64> {
    let entry = table.entry(modcod);
    let stream_seed = mix_seed(u64::from(key.tenant) << 32 | u64::from(key.stream), 0x5EED);
    let mut rng = SmallRng::seed_from_u64(mix_seed(stream_seed, seq));
    let ebn0 = anchor_db(entry.modcod.rate) + 0.4;
    entry.system().transmit_frame(&mut rng, ebn0).llrs
}

/// Submits with retry on backpressure (throughput-bound client behavior).
fn submit_retrying(tier: &ServiceTier, mut frame: ServiceFrame) -> u64 {
    loop {
        match tier.submit(frame) {
            Ok(seq) => return seq,
            Err(ServiceError::Backpressure(back)) | Err(ServiceError::OverBudget(back)) => {
                frame = back;
                std::thread::yield_now();
            }
            Err(other) => panic!("unexpected submit error: {other:?}"),
        }
    }
}

/// Drains exactly `count` outputs on a consumer thread while `submit`
/// runs on the caller's thread.
fn run_with_consumer(
    tier: &ServiceTier,
    count: usize,
    submit: impl FnOnce(),
) -> Vec<ServiceOutput> {
    std::thread::scope(|scope| {
        let consumer = scope.spawn(|| {
            let mut outputs = Vec::new();
            while outputs.len() < count {
                match tier.next_output() {
                    Some(out) => outputs.push(out),
                    None => break,
                }
            }
            outputs
        });
        submit();
        consumer.join().unwrap()
    })
}

/// Asserts the delivery order restricted to each stream is exactly
/// `0, 1, 2, ...` — no drop, no reorder, no duplicate.
fn assert_per_stream_order(
    outputs: &[ServiceOutput],
    expected_per_stream: &HashMap<StreamKey, u64>,
) {
    let mut next: HashMap<StreamKey, u64> = HashMap::new();
    for out in outputs {
        let seq = next.entry(out.key).or_insert(0);
        assert_eq!(
            out.stream_seq, *seq,
            "stream {:?} delivered seq {} while expecting {}",
            out.key, out.stream_seq, seq
        );
        *seq += 1;
    }
    assert_eq!(next.len(), expected_per_stream.len(), "every stream must deliver");
    for (key, expected) in expected_per_stream {
        assert_eq!(next[key], *expected, "stream {key:?} frame count");
    }
}

/// The tier's admission, delivery and shed totals are the sums of the
/// tenant slices: every admitted frame belongs to a registered tenant.
fn assert_tier_totals_sum_the_tenants(stats: &ServiceStats) {
    let sum = |field: fn(&TenantStats) -> u64| -> u64 { stats.tenants.iter().map(field).sum() };
    assert_eq!(stats.submitted, sum(|t| t.submitted));
    assert_eq!(stats.delivered, sum(|t| t.delivered));
    assert_eq!(stats.shed_latency, sum(|t| t.shed));
}

#[test]
fn decoded_bits_are_invariant_under_shard_count() {
    // 2 tenants x 2 streams x mixed MODCODs, decoded under 1, 2 and 4
    // shards: every (stream, seq) must produce bit-identical output, and
    // the single-shard run is the unsharded reference.
    const FRAMES_PER_STREAM: u64 = 12;
    let rates = [CodeRate::R1_2, CodeRate::R3_4];
    let keys =
        [StreamKey::new(1, 0), StreamKey::new(1, 1), StreamKey::new(2, 0), StreamKey::new(2, 1)];
    let total = keys.len() * FRAMES_PER_STREAM as usize;

    // Single-threaded reference: one decoder per slot, reused.
    let table = short_table(&rates);
    let mut reference: HashMap<(StreamKey, u64), (BitVec, bool)> = HashMap::new();
    let mut decoders: Vec<_> = (0..table.len()).map(|s| table.entry(s).make_decoder()).collect();
    for key in keys {
        for seq in 0..FRAMES_PER_STREAM {
            let modcod = (seq % rates.len() as u64) as usize;
            let out = decoders[modcod].decode(&noisy_llrs(&table, key, seq, modcod));
            reference.insert((key, seq), (out.bits, out.converged));
        }
    }
    let mut reference_converged = 0usize;

    for shards in [1usize, 2, 4] {
        let tier = ServiceTier::start(
            short_table(&rates),
            ServiceConfig {
                shards,
                pipeline: PipelineConfig {
                    workers: 2,
                    ingress_capacity: 8,
                    max_in_flight: 16,
                    ..PipelineConfig::default()
                },
                tenants: vec![
                    TenantPolicy::throughput_bound(1, 64),
                    TenantPolicy::throughput_bound(2, 64),
                ],
                ..ServiceConfig::default()
            },
        );
        let outputs = run_with_consumer(&tier, total, || {
            for seq in 0..FRAMES_PER_STREAM {
                for key in keys {
                    let modcod = (seq % rates.len() as u64) as usize;
                    let llrs = noisy_llrs(&table, key, seq, modcod);
                    let got = submit_retrying(&tier, ServiceFrame { key, modcod, llrs });
                    assert_eq!(got, seq, "per-stream sequence numbers are gap-free");
                }
            }
        });

        assert_eq!(outputs.len(), total, "{shards} shards: every frame delivered");
        let expected: HashMap<StreamKey, u64> =
            keys.iter().map(|&k| (k, FRAMES_PER_STREAM)).collect();
        assert_per_stream_order(&outputs, &expected);
        let mut converged = 0usize;
        for out in &outputs {
            let (ref_bits, ref_converged) = &reference[&(out.key, out.stream_seq)];
            assert_eq!(
                &out.decoded.bits, ref_bits,
                "{shards} shards: stream {:?} frame {} bits differ from the reference",
                out.key, out.stream_seq
            );
            assert_eq!(out.decoded.converged, *ref_converged);
            converged += usize::from(out.decoded.converged);
        }
        if shards == 1 {
            reference_converged = converged;
        } else {
            assert_eq!(converged, reference_converged, "convergence is shard-invariant");
        }
        assert!(converged > 0, "the operating point must decode some frames");

        let stats = tier.finish();
        assert_eq!(stats.submitted, total as u64);
        assert_eq!(stats.delivered, total as u64);
        assert_eq!(stats.orphaned, 0);
        assert!(stats.latency.quantile_ns(0.5) > 0, "latency histogram is populated");
        assert_tier_totals_sum_the_tenants(&stats);
        for tenant in &stats.tenants {
            assert_eq!(tenant.in_flight, 0, "all budget units returned");
            assert_eq!(tenant.submitted, tenant.delivered);
        }
    }
}

#[test]
fn forced_migration_preserves_per_stream_order() {
    const FRAMES_PER_STREAM: u64 = 16;
    let rates = [CodeRate::R1_2];
    let table = short_table(&rates);
    let n = table.entry(0).frame_len();
    let keys = [StreamKey::new(1, 0), StreamKey::new(1, 1), StreamKey::new(1, 2)];
    let total = keys.len() * FRAMES_PER_STREAM as usize;
    let tier = ServiceTier::start(
        table,
        ServiceConfig {
            shards: 2,
            pipeline: PipelineConfig { workers: 1, ..PipelineConfig::default() },
            tenants: vec![TenantPolicy::throughput_bound(1, 64)],
            ..ServiceConfig::default()
        },
    );

    let outputs = run_with_consumer(&tier, total, || {
        for seq in 0..FRAMES_PER_STREAM {
            for key in keys {
                let frame = ServiceFrame { key, modcod: 0, llrs: vec![6.0; n] };
                submit_retrying(&tier, frame);
            }
            if seq == FRAMES_PER_STREAM / 2 {
                // Mid-run, with frames in flight: force every stream off
                // whichever shards they sit on. Both directions move.
                let statuses = tier.shards();
                let mut moved = 0;
                for status in &statuses {
                    moved += tier.migrate_streams_off(status.uid);
                }
                assert!(moved > 0, "some stream must have been migrated");
            }
        }
    });

    assert_eq!(outputs.len(), total);
    let expected: HashMap<StreamKey, u64> = keys.iter().map(|&k| (k, FRAMES_PER_STREAM)).collect();
    assert_per_stream_order(&outputs, &expected);
    let stats = tier.finish();
    assert!(stats.migrations > 0, "forced migration must be counted");
    assert_eq!(stats.delivered, total as u64, "migration drops nothing");
    assert_eq!(stats.fault_migrations, 0, "no health verdicts were involved");
}

#[test]
fn hot_modcod_reconfiguration_rolls_shards_without_losing_a_frame() {
    const BEFORE: u64 = 12;
    const AFTER: u64 = 12;
    let old_table = short_table(&[CodeRate::R1_2]);
    let new_table = short_table(&[CodeRate::R3_4, CodeRate::R1_2]);
    let n = old_table.entry(0).frame_len();
    let keys = [StreamKey::new(1, 0), StreamKey::new(1, 1)];
    let total = keys.len() * (BEFORE + AFTER) as usize;
    let tier = ServiceTier::start(
        old_table,
        ServiceConfig {
            shards: 2,
            pipeline: PipelineConfig { workers: 1, ..PipelineConfig::default() },
            tenants: vec![TenantPolicy::throughput_bound(1, 64)],
            ..ServiceConfig::default()
        },
    );
    assert_eq!(tier.epoch(), 0);

    let outputs = run_with_consumer(&tier, total, || {
        // Strongly-received all-zero codewords are valid under every
        // linear code, so the same LLR vector decodes cleanly under both
        // tables (frame lengths match: Short FECFRAME either way).
        for _ in 0..BEFORE {
            for key in keys {
                submit_retrying(&tier, ServiceFrame { key, modcod: 0, llrs: vec![6.0; n] });
            }
        }
        let epoch = tier.reconfigure(new_table.clone());
        assert_eq!(epoch, 1, "the table swap is epoch-tagged");
        for _ in 0..AFTER {
            for key in keys {
                // The new table has two slots; exercise the new one.
                submit_retrying(&tier, ServiceFrame { key, modcod: 1, llrs: vec![6.0; n] });
            }
        }
    });

    assert_eq!(outputs.len(), total, "no frame is lost across the swap");
    let expected: HashMap<StreamKey, u64> = keys.iter().map(|&k| (k, BEFORE + AFTER)).collect();
    assert_per_stream_order(&outputs, &expected);
    for out in &outputs {
        let expected_epoch = u64::from(out.stream_seq >= BEFORE);
        assert_eq!(
            out.epoch, expected_epoch,
            "stream {:?} frame {} decoded under the wrong table epoch",
            out.key, out.stream_seq
        );
        assert!(out.decoded.converged, "strong all-zero frames decode under both tables");
    }
    for status in tier.shards() {
        assert_eq!(status.epoch, 1, "only new-epoch shards remain active");
    }
    let stats = tier.finish();
    assert_eq!(stats.reconfigs, 1);
    assert_eq!(stats.epoch, 1);
    assert!(stats.migrations >= keys.len() as u64, "every stream re-routed once");
    assert_eq!(stats.delivered, total as u64);
    assert_eq!(stats.orphaned, 0);
}

#[test]
fn degraded_shard_sheds_its_streams_to_healthy_shards() {
    // Shard 0's worker 0 has a permanently corrupted datapath. Its
    // pipeline quarantines the worker (syndrome anomaly), the shard
    // reports itself degraded, and the monitor must migrate its streams
    // to the healthy shard — all without dropping or reordering a frame.
    //
    // Sized by backlog, not by the clock: the faulted worker needs
    // `min_decodes = 3` corrupted decodes, each running to the 30-iteration
    // cap (about 45 clean decodes' time), and takes its next frame only if
    // one is queued when it finishes. The backlog therefore has to outlast
    // two of them on the one healthy neighbour that drains the same queue
    // — some 90 clean frames — and this one holds several times that. The
    // test then waits for the monitor instead of racing it.
    const BACKLOG_PER_STREAM: u64 = 300;
    const AFTER_PER_STREAM: u64 = 20;
    let rates = [CodeRate::R1_2];
    let table = short_table(&rates);
    let n = table.entry(0).frame_len();
    let keys: Vec<StreamKey> = (0..4).map(|s| StreamKey::new(1, s)).collect();
    let tier = ServiceTier::start(
        table,
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
            tenants: vec![TenantPolicy::throughput_bound(1, 128)],
            health_poll_ms: 2,
            fault_injection: Some(ShardFaultInjection {
                shard: 0,
                injection: WorkerFaultInjection::permanent(0),
            }),
        },
    );
    let submit_rounds = |rounds: u64| {
        for _ in 0..rounds {
            for key in &keys {
                submit_retrying(&tier, ServiceFrame { key: *key, modcod: 0, llrs: vec![6.0; n] });
            }
        }
    };

    // Phase 1: the backlog that lets the detector reach its verdict.
    let backlog = keys.len() * BACKLOG_PER_STREAM as usize;
    let mut outputs = run_with_consumer(&tier, backlog, || submit_rounds(BACKLOG_PER_STREAM));

    // The fault never heals, so the shard stays degraded until the monitor
    // (on its own 2 ms timer, no traffic needed) has moved its streams.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while tier.stats().fault_migrations == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "the monitor never migrated streams off the degraded shard: {:?}",
            tier.shards()
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }

    // Phase 2: the moved streams keep their order on the healthy shard.
    let after = keys.len() * AFTER_PER_STREAM as usize;
    outputs.extend(run_with_consumer(&tier, after, || submit_rounds(AFTER_PER_STREAM)));

    let total = backlog + after;
    assert_eq!(outputs.len(), total, "containment must not drop frames");
    let expected: HashMap<StreamKey, u64> =
        keys.iter().map(|&k| (k, BACKLOG_PER_STREAM + AFTER_PER_STREAM)).collect();
    assert_per_stream_order(&outputs, &expected);

    let stats = tier.finish();
    assert!(stats.fault_migrations > 0, "the monitor must migrate streams off the shard");
    assert_eq!(stats.delivered, total as u64);
    assert_eq!(stats.orphaned, 0);
    let corrupted = outputs.iter().filter(|o| !o.decoded.converged).count();
    assert!(
        corrupted < total / 4,
        "migration plus quarantine must bound the damage; {corrupted} of {total} corrupted"
    );
}

#[test]
fn reinstated_shard_resumes_its_full_routing_share() {
    // Shard 0's worker 0 takes a transient upset (its first 8 decodes are
    // corrupted, then the fault clears). The shard's pipeline quarantines
    // the worker, and the continuous routing weight — marginal load
    // `(streams + 1) / healthy_workers` — steers new admissions toward the
    // fully-healthy shard while shard 0 runs at half strength. Once the
    // known-answer probes reinstate the worker, the weight recovers with
    // no routing-table event, and newly admitted streams must spread
    // evenly across both shards again.
    //
    // The backlog must outlast the detector's warm-up: the faulted worker
    // needs `min_decodes = 3` corrupted decodes, each running to the
    // 30-iteration cap, while its healthy neighbour drains the same queue
    // at one iteration per clean frame. A backlog near those 90
    // iterations' worth of frames is a coin toss on an idle host
    // (`--test-threads=1`); this one is several times that.
    const FRAMES_PER_STREAM: u64 = 400;
    const NEW_STREAMS: u32 = 16;
    let table = short_table(&[CodeRate::R1_2]);
    let n = table.entry(0).frame_len();
    let phase1: Vec<StreamKey> = (0..2).map(|s| StreamKey::new(1, s)).collect();
    let phase2: Vec<StreamKey> = (0..NEW_STREAMS).map(|s| StreamKey::new(1, 100 + s)).collect();
    let total = phase1.len() * FRAMES_PER_STREAM as usize + phase2.len();
    let tier = ServiceTier::start(
        table,
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
            tenants: vec![TenantPolicy::throughput_bound(1, 128)],
            health_poll_ms: 2,
            fault_injection: Some(ShardFaultInjection {
                shard: 0,
                injection: WorkerFaultInjection::window(0, 0, 8),
            }),
        },
    );

    // Phase 1: open-loop traffic on two streams (one lands on each shard).
    // The backlog keeps both workers of each shard decoding, so shard 0's
    // worker 0 accumulates corrupted decodes while its fault window is
    // active.
    let phase1_total = phase1.len() * FRAMES_PER_STREAM as usize;
    let mut outputs = run_with_consumer(&tier, phase1_total, || {
        for _ in 0..FRAMES_PER_STREAM {
            for key in &phase1 {
                submit_retrying(&tier, ServiceFrame { key: *key, modcod: 0, llrs: vec![6.0; n] });
            }
        }
    });

    // Wait for the quarantine -> probe -> reinstate arc to complete. The
    // `reinstatements` counter is cumulative, so this observation cannot
    // race with the heal. Probes run on their own timer — no traffic is
    // needed to drive them.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        let shards = tier.shards();
        if shards.iter().any(|s| s.health.reinstatements >= 1 && s.health.quarantined_now == 0) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "the transient fault never healed: {shards:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }

    // Phase 2: admit fresh streams against the healed fleet.
    let before: HashMap<u64, usize> = tier.shards().iter().map(|s| (s.uid, s.streams)).collect();
    outputs.extend(run_with_consumer(&tier, phase2.len(), || {
        for key in &phase2 {
            submit_retrying(&tier, ServiceFrame { key: *key, modcod: 0, llrs: vec![6.0; n] });
        }
    }));
    let after = tier.shards();
    assert_eq!(after.len(), 2);
    let counts: Vec<usize> = after.iter().map(|s| s.streams).collect();
    assert!(
        counts[0].abs_diff(counts[1]) <= 1,
        "reinstatement must restore even stream spread, got {counts:?}"
    );
    for status in &after {
        assert!(
            status.streams > before[&status.uid],
            "shard {} took no new streams after reinstatement: {before:?} -> {after:?}",
            status.uid
        );
    }

    assert_eq!(outputs.len(), total, "healing must not drop frames");
    let mut expected: HashMap<StreamKey, u64> =
        phase1.iter().map(|&k| (k, FRAMES_PER_STREAM)).collect();
    expected.extend(phase2.iter().map(|&k| (k, 1)));
    assert_per_stream_order(&outputs, &expected);
    let stats = tier.finish();
    assert_eq!(stats.delivered, total as u64);
    assert_eq!(stats.orphaned, 0);
}

#[test]
fn bbframe_demux_round_trips_through_the_service() {
    let table = short_table(&[CodeRate::R1_2]);
    let entry = table.entry(0);
    let k = entry.info_len();
    let system = entry.system().clone();
    let tier = ServiceTier::start(
        table,
        ServiceConfig {
            shards: 2,
            pipeline: PipelineConfig { workers: 1, ..PipelineConfig::default() },
            tenants: vec![TenantPolicy::throughput_bound(9, 16)],
            ..ServiceConfig::default()
        },
    );
    let key = StreamKey::new(9, 3);

    let mut payloads = Vec::new();
    for seq in 0..4u16 {
        // A distinct payload per frame, wrapped in a BBFRAME.
        let payload: BitVec =
            (0..640).map(|i| (i as u16).wrapping_mul(seq + 1).is_multiple_of(3)).collect();
        let header = BbHeader { matype: 0xF000, upl: 1504, dfl: 0, sync: 0x47, syncd: seq * 8 };
        let message = assemble_bbframe(header, &payload, k).unwrap();
        let mut rng = SmallRng::seed_from_u64(mix_seed(0xBBF, u64::from(seq)));
        let frame = system.transmit_message(&mut rng, 6.0, &message);
        payloads.push((header, payload));
        submit_retrying(&tier, ServiceFrame { key, modcod: 0, llrs: frame.llrs });
    }

    for (seq, (sent_header, sent_payload)) in payloads.iter().enumerate() {
        let out = tier.next_output().expect("frame must be delivered");
        assert_eq!(out.stream_seq, seq as u64);
        assert!(out.decoded.converged, "6 dB is far above the R1/2 waterfall");
        let (header, payload) = out.bbframe().expect("header CRC must survive the round trip");
        assert_eq!(header.sync, sent_header.sync);
        assert_eq!(header.syncd, sent_header.syncd);
        assert_eq!(header.dfl as usize, sent_payload.len());
        assert_eq!(&payload, sent_payload, "frame {seq}: payload differs");
    }
    tier.finish();
}

#[test]
fn tenant_admission_budgets_and_sla_classes_are_enforced() {
    let table = short_table(&[CodeRate::R1_2]);
    let n = table.entry(0).frame_len();
    let tier = ServiceTier::start(
        table,
        ServiceConfig {
            shards: 1,
            pipeline: PipelineConfig { workers: 1, ..PipelineConfig::default() },
            tenants: vec![TenantPolicy::throughput_bound(1, 2), TenantPolicy::latency_bound(2, 64)],
            ..ServiceConfig::default()
        },
    );
    let frame = |tenant: u32, stream: u32| ServiceFrame {
        key: StreamKey::new(tenant, stream),
        modcod: 0,
        llrs: vec![6.0; n],
    };

    // Unregistered tenants are refused outright.
    match tier.submit(frame(99, 0)) {
        Err(ServiceError::UnknownTenant(f)) => assert_eq!(f.key.tenant, 99),
        other => panic!("expected UnknownTenant, got {other:?}"),
    }

    // Tenant 1 has budget 2: the budget is held until outputs are
    // consumed, so the third submit must bounce even after decoding.
    tier.submit(frame(1, 0)).unwrap();
    tier.submit(frame(1, 0)).unwrap();
    match tier.submit(frame(1, 0)) {
        Err(ServiceError::OverBudget(_)) => {}
        other => panic!("expected OverBudget, got {other:?}"),
    }
    let first = tier.next_output().unwrap();
    assert_eq!(first.stream_seq, 0);
    tier.submit(frame(1, 0)).expect("consuming an output frees a budget unit");

    // Tenant 2 is latency-bound: with the shard already holding frames
    // against a small in-flight cap, its submits shed instead of queueing.
    // The queued frames sit 3 dB below the waterfall so they burn the full
    // iteration budget — the single worker stays busy while we probe.
    let tight_table = short_table(&[CodeRate::R1_2]);
    let slow_llrs = || {
        let entry = tight_table.entry(0);
        let mut rng = SmallRng::seed_from_u64(0x510);
        entry.system().transmit_frame(&mut rng, anchor_db(CodeRate::R1_2) - 3.0).llrs
    };
    let tight = ServiceTier::start(
        tight_table.clone(),
        ServiceConfig {
            shards: 1,
            pipeline: PipelineConfig { workers: 1, max_in_flight: 2, ..PipelineConfig::default() },
            tenants: vec![
                TenantPolicy::throughput_bound(1, 64),
                TenantPolicy::latency_bound(2, 64),
            ],
            ..ServiceConfig::default()
        },
    );
    let slow = ServiceFrame { key: StreamKey::new(1, 0), modcod: 0, llrs: slow_llrs() };
    tight.submit(slow).unwrap();
    match tight.submit(frame(2, 0)) {
        Err(ServiceError::Shed(f)) => assert_eq!(f.key.tenant, 2),
        other => panic!("expected Shed for the latency-bound tenant, got {other:?}"),
    }
    let stats = tight.stats();
    assert_eq!(stats.shed_latency, 1);
    assert_tier_totals_sum_the_tenants(&stats);
    let shed_tenant = stats.tenants.iter().find(|t| t.tenant == 2).unwrap();
    assert_eq!(shed_tenant.shed, 1);

    // Malformed frames come back typed (tenant 2's budget is untouched).
    match tier.submit(ServiceFrame { key: StreamKey::new(2, 7), modcod: 5, llrs: vec![0.0; n] }) {
        Err(ServiceError::UnknownModcod(_)) => {}
        other => panic!("expected UnknownModcod, got {other:?}"),
    }
    match tier.submit(ServiceFrame { key: StreamKey::new(2, 7), modcod: 0, llrs: vec![0.0; 3] }) {
        Err(ServiceError::WrongLength { expected, .. }) => assert_eq!(expected, n),
        other => panic!("expected WrongLength, got {other:?}"),
    }
}

#[test]
fn a_consumer_waiting_through_reconfigurations_still_gets_the_next_frame() {
    // Nothing is in flight, so each retired fleet's collectors exit at
    // once; the consumer must not read that as the tier being done.
    const ROLLS: u64 = 32;
    let table = short_table(&[CodeRate::R1_2]);
    let n = table.entry(0).frame_len();
    let tier = ServiceTier::start(
        table.clone(),
        ServiceConfig {
            shards: 2,
            pipeline: PipelineConfig { workers: 1, ..PipelineConfig::default() },
            tenants: vec![TenantPolicy::throughput_bound(1, 4)],
            ..ServiceConfig::default()
        },
    );
    let key = StreamKey::new(1, 0);
    std::thread::scope(|scope| {
        let consumer = scope.spawn(|| tier.next_output());
        for _ in 0..ROLLS {
            tier.reconfigure(table.clone());
        }
        submit_retrying(&tier, ServiceFrame { key, modcod: 0, llrs: vec![6.0; n] });
        let out = consumer.join().unwrap().expect("the tier is still serving");
        assert_eq!((out.key, out.stream_seq, out.epoch), (key, 0, ROLLS));
    });
    assert_eq!(tier.finish().reconfigs, ROLLS);
}

#[test]
fn a_slow_frame_does_not_hold_another_streams_frame() {
    // f64 sum-product on the scalar zigzag sweep: pure-noise LLRs never
    // converge and run the whole cap, a strong all-zero word stops after
    // one iteration.
    const CAP: usize = 60;
    let profile = DecoderProfile {
        kind: DecoderKind::Zigzag,
        config: DecoderConfig::default().with_max_iterations(CAP),
    };
    let modcod = Modcod::new(Modulation::Bpsk, CodeRate::R1_2, FrameSize::Short);
    let table = ModcodTable::with_profiles(&[(modcod, profile)]).unwrap();
    let n = table.entry(0).frame_len();
    let noise = (0..n as u64).map(|i| if mix_seed(0x401, i) & 1 == 0 { 0.4 } else { -0.4 });
    let tier = ServiceTier::start(
        table,
        ServiceConfig {
            shards: 1,
            pipeline: PipelineConfig { workers: 2, ..PipelineConfig::default() },
            tenants: vec![TenantPolicy::throughput_bound(1, 4)],
            ..ServiceConfig::default()
        },
    );
    let (slow, fast) = (StreamKey::new(1, 0), StreamKey::new(1, 1));
    tier.submit(ServiceFrame { key: slow, modcod: 0, llrs: noise.collect() }).unwrap();
    tier.submit(ServiceFrame { key: fast, modcod: 0, llrs: vec![6.0; n] }).unwrap();

    let first = tier.next_output().unwrap();
    let second = tier.next_output().unwrap();
    assert_eq!(
        (first.key, first.decoded.iterations),
        (fast, 1),
        "the one-iteration frame of another stream must not wait for the slow one"
    );
    assert_eq!((second.key, second.decoded.iterations), (slow, CAP));
    assert!(!second.decoded.converged);
    let stats = tier.finish();
    assert_eq!((stats.delivered, stats.orphaned), (2, 0));
}
