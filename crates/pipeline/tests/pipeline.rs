//! Integration contracts of the streaming decode pipeline: bit parity with
//! single-threaded decoding, in-order egress, explicit backpressure,
//! admission-control shedding, shutdown and counter consistency.

use dvbs2::channel::{mix_seed, FrameTag, LlrSource, Modulation};
use dvbs2::decoder::DecoderConfig;
use dvbs2::ldpc::{BitVec, CodeRate, FrameSize};
use dvbs2::{DecoderKind, DecoderProfile, Modcod, ModcodTable};
use dvbs2_pipeline::{
    AdmissionPolicy, DecodePipeline, PipelineConfig, QuarantinePolicy, SoftFrame, SubmitError,
    WorkerFaultInjection,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A deterministic index-addressed source: frame `i` is a seeded noisy
/// transmission under slot `i % table.len()`, identical no matter when or
/// on which thread it is generated.
struct NoisySource {
    table: ModcodTable,
    seed: u64,
    ebn0_offset_db: f64,
}

impl NoisySource {
    fn anchor_db(rate: CodeRate) -> f64 {
        match rate {
            CodeRate::R1_2 => 1.4,
            CodeRate::R3_4 => 2.8,
            CodeRate::R8_9 => 4.2,
            _ => 2.0,
        }
    }
}

impl LlrSource for NoisySource {
    fn tag(&self, index: u64) -> FrameTag {
        FrameTag { stream_index: index, modcod: (index % self.table.len() as u64) as usize }
    }

    fn fill(&mut self, index: u64, out: &mut Vec<f64>) {
        let tag = self.tag(index);
        let entry = self.table.entry(tag.modcod);
        let mut rng = SmallRng::seed_from_u64(mix_seed(self.seed, index));
        let ebn0 = Self::anchor_db(entry.modcod.rate) + self.ebn0_offset_db;
        let frame = entry.system().transmit_frame(&mut rng, ebn0);
        out.clear();
        out.extend_from_slice(&frame.llrs);
    }
}

fn mixed_table(max_iterations: usize) -> ModcodTable {
    let profile = |kind| DecoderProfile {
        kind,
        config: DecoderConfig::default().with_max_iterations(max_iterations),
    };
    ModcodTable::with_profiles(&[
        (
            Modcod::new(Modulation::Bpsk, CodeRate::R1_2, FrameSize::Short),
            profile(DecoderKind::Zigzag),
        ),
        (
            Modcod::new(Modulation::Bpsk, CodeRate::R3_4, FrameSize::Short),
            profile(DecoderKind::Flooding),
        ),
        (
            Modcod::new(Modulation::Bpsk, CodeRate::R8_9, FrameSize::Short),
            profile(DecoderKind::Quantized(dvbs2::decoder::Quantizer::paper_6bit())),
        ),
    ])
    .unwrap()
}

fn soft_frame(source: &mut NoisySource, index: u64) -> SoftFrame {
    SoftFrame::from(source.frame(index))
}

/// Single-threaded reference: one decoder per slot (reused frame to frame,
/// exactly like a pipeline worker), frames decoded in stream order.
fn reference_decode(
    table: &ModcodTable,
    source: &mut NoisySource,
    frames: u64,
) -> Vec<(BitVec, usize, bool)> {
    let mut decoders: Vec<_> = (0..table.len()).map(|s| table.entry(s).make_decoder()).collect();
    (0..frames)
        .map(|i| {
            let frame = soft_frame(source, i);
            let out = decoders[frame.modcod].decode(&frame.llrs);
            (out.bits, out.iterations, out.converged)
        })
        .collect()
}

#[test]
fn multithreaded_decode_is_bit_identical_to_single_threaded() {
    const FRAMES: u64 = 48;
    let table = mixed_table(8);
    let mut source = NoisySource { table: table.clone(), seed: 0x50AC, ebn0_offset_db: 0.4 };
    let reference = reference_decode(&table, &mut source, FRAMES);

    let pipeline = DecodePipeline::start(
        table,
        PipelineConfig {
            workers: 4,
            ingress_capacity: 8,
            max_in_flight: 24,
            admission: AdmissionPolicy::Off,
            ..PipelineConfig::default()
        },
    );
    let outputs = std::thread::scope(|scope| {
        let consumer = scope.spawn(|| {
            let mut outputs = Vec::new();
            while let Some(frame) = pipeline.next_decoded() {
                outputs.push(frame);
                if outputs.len() as u64 == FRAMES {
                    break;
                }
            }
            outputs
        });
        for i in 0..FRAMES {
            let seq = pipeline.submit(soft_frame(&mut source, i)).unwrap();
            assert_eq!(seq, i, "blocking submits claim consecutive sequence numbers");
        }
        consumer.join().unwrap()
    });

    assert_eq!(outputs.len() as u64, FRAMES);
    let mut converged = 0;
    for (i, out) in outputs.iter().enumerate() {
        assert_eq!(out.seq, i as u64, "egress must be in submission order");
        assert_eq!(out.stream_index, i as u64);
        let (ref_bits, ref_iterations, ref_converged) = &reference[i];
        assert_eq!(&out.bits, ref_bits, "frame {i}: bits differ from single-threaded");
        assert_eq!(out.iterations, *ref_iterations, "frame {i}");
        assert_eq!(out.converged, *ref_converged, "frame {i}");
        assert_eq!(out.bbframe().len(), out.info_len);
        converged += usize::from(out.converged);
    }
    assert!(converged > 0, "the operating point must decode some frames");

    let stats = pipeline.finish();
    assert_eq!(stats.offered, FRAMES);
    assert_eq!(stats.submitted, FRAMES);
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.decoded, FRAMES);
    assert_eq!(stats.emitted, FRAMES);
    assert_eq!(stats.dropped, 0);
    assert_eq!(stats.in_flight, 0, "everything consumed");
    assert_eq!(stats.histogram_total(), stats.decoded);
    assert_eq!(stats.offered, stats.submitted + stats.rejected);
    assert!(stats.ingress_watermark <= 8, "bounded ingress");
    assert!(stats.decode_ns > 0);
}

#[test]
fn try_submit_backpressure_is_explicit_and_lossless() {
    const FRAMES: u64 = 40;
    let table = mixed_table(8);
    let mut source = NoisySource { table: table.clone(), seed: 0xBACC, ebn0_offset_db: 0.0 };
    let pipeline = DecodePipeline::start(
        table,
        PipelineConfig {
            workers: 1,
            ingress_capacity: 2,
            max_in_flight: 5,
            admission: AdmissionPolicy::Off,
            ..PipelineConfig::default()
        },
    );

    let (outputs, rejections) = std::thread::scope(|scope| {
        let consumer = scope.spawn(|| {
            let mut outputs = Vec::new();
            while let Some(frame) = pipeline.next_decoded() {
                outputs.push(frame);
                if outputs.len() as u64 == FRAMES {
                    break;
                }
            }
            outputs
        });
        let mut rejections = 0u64;
        for i in 0..FRAMES {
            let mut frame = soft_frame(&mut source, i);
            loop {
                match pipeline.try_submit(frame) {
                    Ok(_) => break,
                    Err(SubmitError::Rejected(back)) => {
                        // The exact frame comes back; nothing is lost.
                        assert_eq!(back.stream_index, i);
                        rejections += 1;
                        frame = back;
                        std::thread::yield_now();
                    }
                    Err(other) => panic!("unexpected submit error: {other:?}"),
                }
            }
        }
        (consumer.join().unwrap(), rejections)
    });

    assert!(rejections > 0, "tiny queues must exercise backpressure");
    for (i, out) in outputs.iter().enumerate() {
        assert_eq!(out.seq, i as u64, "order survives rejection/retry");
    }
    let stats = pipeline.finish();
    assert_eq!(stats.submitted, FRAMES);
    assert_eq!(stats.rejected, rejections);
    assert_eq!(stats.offered, stats.submitted + stats.rejected);
    assert_eq!(stats.decoded, FRAMES);
    assert_eq!(stats.dropped, 0);
    assert_eq!(stats.histogram_total(), stats.decoded);
    assert!(stats.ingress_watermark <= 2);
}

#[test]
fn validation_failures_hand_the_frame_back() {
    let table = mixed_table(6);
    let n = table.entry(0).frame_len();
    let pipeline =
        DecodePipeline::start(table, PipelineConfig { workers: 1, ..PipelineConfig::default() });

    let bad_slot = SoftFrame { modcod: 9, stream_index: 0, llrs: vec![1.0; n] };
    match pipeline.try_submit(bad_slot) {
        Err(SubmitError::UnknownModcod(frame)) => assert_eq!(frame.modcod, 9),
        other => panic!("expected UnknownModcod, got {other:?}"),
    }

    let bad_len = SoftFrame { modcod: 0, stream_index: 1, llrs: vec![1.0; 7] };
    match pipeline.try_submit(bad_len) {
        Err(SubmitError::WrongLength { frame, expected }) => {
            assert_eq!(expected, n);
            assert_eq!(frame.llrs.len(), 7);
        }
        other => panic!("expected WrongLength, got {other:?}"),
    }

    let stats = pipeline.finish();
    assert_eq!(stats.offered, 0, "malformed frames never count as offered load");
    assert_eq!(stats.submitted + stats.rejected + stats.decoded, 0);
}

#[test]
fn adaptive_admission_sheds_iterations_before_frames() {
    // One slow worker, a deep iteration budget and frames 0.4 dB below the
    // waterfall anchor: the ingress queue saturates and the controller must
    // lower caps instead of dropping frames.
    const FRAMES: u64 = 24;
    let table = mixed_table(30);
    let mut source = NoisySource { table: table.clone(), seed: 0x5EED, ebn0_offset_db: -0.4 };
    let pipeline = DecodePipeline::start(
        table,
        PipelineConfig {
            workers: 1,
            ingress_capacity: 4,
            max_in_flight: 9,
            admission: AdmissionPolicy::Adaptive { min_iterations: 4 },
            ..PipelineConfig::default()
        },
    );

    let outputs = std::thread::scope(|scope| {
        let consumer = scope.spawn(|| {
            let mut outputs = Vec::new();
            while let Some(frame) = pipeline.next_decoded() {
                outputs.push(frame);
                if outputs.len() as u64 == FRAMES {
                    break;
                }
            }
            outputs
        });
        for i in 0..FRAMES {
            pipeline.submit(soft_frame(&mut source, i)).unwrap();
        }
        consumer.join().unwrap()
    });

    let base_caps: Vec<usize> = (0..3).map(|_| 30).collect();
    let mut shed_frames = 0;
    for out in &outputs {
        assert!(out.iteration_cap <= base_caps[out.modcod]);
        assert!(out.iteration_cap >= 4, "the floor holds");
        assert!(out.iterations <= out.iteration_cap);
        shed_frames += usize::from(out.iteration_cap < base_caps[out.modcod]);
    }
    assert!(shed_frames > 0, "a saturated queue must trigger shedding");

    let stats = pipeline.finish();
    assert_eq!(stats.decoded, FRAMES, "shedding never drops frames");
    assert_eq!(stats.dropped, 0);
    assert_eq!(stats.shed, shed_frames as u64);
    assert_eq!(stats.histogram_total(), stats.decoded);
}

/// A fast-reacting detector for tests: every constant tightened so the
/// arc (observe → suspect → quarantine → probe) completes in milliseconds.
fn test_quarantine_policy() -> QuarantinePolicy {
    QuarantinePolicy {
        enabled: true,
        alpha: 0.5,
        nonconv_threshold: 0.5,
        syndrome_threshold: 0.01,
        min_decodes: 3,
        probe_passes: 2,
        probe_interval_ms: 1,
    }
}

/// Submits `frames` strongly-received all-zero codewords on slot 0 while a
/// consumer drains egress, and returns (outputs, final stats).
fn run_with_injection(
    config: PipelineConfig,
    frames: u64,
) -> (Vec<dvbs2_pipeline::DecodedFrame>, dvbs2_pipeline::PipelineStats) {
    let table = mixed_table(8);
    let n = table.entry(0).frame_len();
    let pipeline = DecodePipeline::start(table, config);
    let outputs = std::thread::scope(|scope| {
        let consumer = scope.spawn(|| {
            let mut outputs = Vec::new();
            while let Some(frame) = pipeline.next_decoded() {
                outputs.push(frame);
                if outputs.len() as u64 == frames {
                    break;
                }
            }
            outputs
        });
        for i in 0..frames {
            pipeline.submit(SoftFrame { modcod: 0, stream_index: i, llrs: vec![6.0; n] }).unwrap();
        }
        consumer.join().unwrap()
    });
    (outputs, pipeline.finish())
}

#[test]
fn faulted_worker_is_quarantined_without_dropping_or_reordering_frames() {
    // Worker 0's input datapath is permanently corrupted: its frames stop
    // converging with a large residual syndrome — the exact signature the
    // detector looks for. The pipeline must contain the fault (quarantine
    // the worker, serve the stream from the healthy ones) while keeping
    // the egress contract: every frame emitted, in submission order.
    const FRAMES: u64 = 400;
    let (outputs, stats) = run_with_injection(
        PipelineConfig {
            workers: 3,
            quarantine: test_quarantine_policy(),
            fault_injection: Some(WorkerFaultInjection::permanent(0)),
            ..PipelineConfig::default()
        },
        FRAMES,
    );

    assert_eq!(outputs.len() as u64, FRAMES);
    for (i, out) in outputs.iter().enumerate() {
        assert_eq!(out.seq, i as u64, "containment must not reorder egress");
    }
    assert_eq!(stats.decoded, FRAMES);
    assert_eq!(stats.emitted, FRAMES);
    assert_eq!(stats.dropped, 0, "containment must not drop frames");
    assert!(stats.faults_suspected >= 1, "the fault signature must be noticed");
    assert!(stats.quarantines >= 1, "the faulted worker must leave rotation");
    assert_eq!(stats.quarantined_now, 1, "a permanent fault never probes clean");
    assert!(stats.probes_run >= 1);
    assert!(stats.probes_failed >= 1, "corrupted probes must fail the known-answer check");
    assert_eq!(stats.reinstatements, 0);
    let faulted = outputs.iter().filter(|o| !o.converged).count() as u64;
    assert!(faulted >= 1, "the fault must have corrupted at least the warm-up frames");
    assert!(
        faulted <= FRAMES / 4,
        "quarantine must bound the damage; {faulted} of {FRAMES} frames corrupted"
    );
}

#[test]
fn transient_fault_heals_through_probing_and_reinstates_the_worker() {
    // Worker 0's first 8 decodes are corrupted, then the fault clears — a
    // transient upset. Probes share the worker's decode counter, so the
    // known-answer vector starts passing once the window expires and the
    // worker must return to rotation.
    const FRAMES: u64 = 400;
    let (outputs, stats) = run_with_injection(
        PipelineConfig {
            workers: 2,
            quarantine: test_quarantine_policy(),
            fault_injection: Some(WorkerFaultInjection::window(0, 0, 8)),
            ..PipelineConfig::default()
        },
        FRAMES,
    );

    assert_eq!(outputs.len() as u64, FRAMES);
    for (i, out) in outputs.iter().enumerate() {
        assert_eq!(out.seq, i as u64);
    }
    assert_eq!(stats.dropped, 0);
    assert_eq!(stats.quarantines, 1, "the transient fires exactly one quarantine");
    assert_eq!(stats.reinstatements, 1, "clean probes must reinstate the worker");
    assert_eq!(stats.quarantined_now, 0, "nobody is left quarantined");
    assert!(stats.probes_run >= 2, "reinstatement takes probe_passes consecutive passes");
    let faulted = outputs.iter().filter(|o| !o.converged).count() as u64;
    assert!(faulted <= 8, "only window-corrupted frames may fail");
}

#[test]
fn last_healthy_worker_is_never_quarantined() {
    // A single faulted worker is the whole pool: the detector keeps
    // flagging it, but quarantining it would stop the stream entirely.
    // Degraded service beats no service — every frame still flows.
    const FRAMES: u64 = 30;
    let (outputs, stats) = run_with_injection(
        PipelineConfig {
            workers: 1,
            quarantine: QuarantinePolicy { min_decodes: 2, ..test_quarantine_policy() },
            fault_injection: Some(WorkerFaultInjection::permanent(0)),
            ..PipelineConfig::default()
        },
        FRAMES,
    );

    assert_eq!(outputs.len() as u64, FRAMES);
    for (i, out) in outputs.iter().enumerate() {
        assert_eq!(out.seq, i as u64);
    }
    assert_eq!(stats.decoded, FRAMES, "the degraded worker keeps serving");
    assert_eq!(stats.dropped, 0);
    assert!(stats.faults_suspected >= 1, "the signature is still reported");
    assert_eq!(stats.quarantines, 0, "the last healthy worker must stay in rotation");
    assert_eq!(stats.quarantined_now, 0);
    assert_eq!(stats.probes_run, 0);
}

#[test]
fn finish_reports_consistent_final_counters() {
    let table = mixed_table(6);
    let n = table.entry(0).frame_len();
    let pipeline =
        DecodePipeline::start(table, PipelineConfig { workers: 2, ..PipelineConfig::default() });
    for i in 0..5u64 {
        pipeline.submit(SoftFrame { modcod: 0, stream_index: i, llrs: vec![6.0; n] }).unwrap();
    }
    // Collect what finish() promises to keep consumable.
    let mut seen = Vec::new();
    for _ in 0..5 {
        seen.push(pipeline.next_decoded().unwrap().seq);
    }
    let stats = pipeline.finish();
    assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    assert_eq!(stats.decoded, 5);
    assert_eq!(stats.dropped, 0);
    assert_eq!(stats.early_stopped, 5, "clean frames stop well under the cap");
    assert!(stats.early_stop_rate() > 0.99);
}

/// A confidently received all-zero codeword on slot 0 of `table`.
fn strong_frame(table: &ModcodTable, stream_index: u64) -> SoftFrame {
    SoftFrame { modcod: 0, stream_index, llrs: vec![6.0; table.entry(0).frame_len()] }
}

#[test]
fn finish_returns_without_a_consumer() {
    // Default queues are shallower than the admitted residue, so workers
    // that waited on a consumer would never exit.
    const FRAMES: u64 = 100;
    let table = mixed_table(6);
    let config = PipelineConfig { workers: 2, ..PipelineConfig::default() };
    assert!((config.ingress_capacity as u64) < FRAMES && FRAMES <= config.max_in_flight as u64);
    let admit = |pipeline: &DecodePipeline| {
        for i in 0..FRAMES {
            assert_eq!(pipeline.submit(strong_frame(&table, i)).unwrap(), i);
        }
    };

    let pipeline = DecodePipeline::start(table.clone(), config);
    admit(&pipeline);
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(pipeline.finish());
    });
    let stats =
        finished.recv_timeout(Duration::from_secs(30)).expect("finish must not wait on a consumer");
    assert_eq!((stats.submitted, stats.decoded, stats.emitted), (FRAMES, FRAMES, FRAMES));
    assert_eq!(stats.dropped, 0);
    assert_eq!(stats.in_flight, FRAMES as usize, "nothing was consumed");

    // The same residue after `close_ingress`: every worker exits with no
    // consumer, and the frames then come out in order, each once.
    let pipeline = DecodePipeline::start(table.clone(), config);
    admit(&pipeline);
    pipeline.close_ingress();
    let deadline = Instant::now() + Duration::from_secs(30);
    while pipeline.stats().emitted < FRAMES {
        assert!(Instant::now() < deadline, "workers stalled without a consumer");
        std::thread::sleep(Duration::from_millis(5));
    }
    let seqs: Vec<u64> = std::iter::from_fn(|| pipeline.next_decoded()).map(|f| f.seq).collect();
    assert_eq!(seqs, (0..FRAMES).collect::<Vec<_>>());
    assert_eq!(pipeline.finish().in_flight, 0);
}

#[test]
fn close_ingress_wakes_a_blocked_submit_with_its_frame() {
    let table = mixed_table(6);
    let pipeline = DecodePipeline::start(
        table.clone(),
        PipelineConfig { workers: 1, max_in_flight: 1, ..PipelineConfig::default() },
    );
    pipeline.submit(strong_frame(&table, 0)).unwrap();
    std::thread::scope(|scope| {
        // Frame 0 holds the whole in-flight budget until it is consumed.
        let blocked = scope.spawn(|| pipeline.submit(strong_frame(&table, 1)));
        while pipeline.stats().offered < 2 {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(20));
        pipeline.close_ingress();
        match blocked.join().unwrap() {
            Err(SubmitError::ShutDown(frame)) => assert_eq!(frame.stream_index, 1),
            other => panic!("expected ShutDown with the frame, got {other:?}"),
        }
    });
    assert_eq!(pipeline.next_decoded().map(|f| f.seq), Some(0), "admitted frames still drain");
    assert!(pipeline.next_decoded().is_none(), "egress closes behind the last worker");
    let stats = pipeline.finish();
    assert_eq!((stats.offered, stats.submitted, stats.rejected), (2, 1, 0));
}

#[test]
fn concurrent_submitters_claim_gap_free_sequence_numbers() {
    const SUBMITTERS: u64 = 4;
    const PER_SUBMITTER: u64 = 25;
    const FRAMES: u64 = SUBMITTERS * PER_SUBMITTER;
    let table = mixed_table(6);
    let pipeline = DecodePipeline::start(
        table.clone(),
        PipelineConfig {
            workers: 2,
            ingress_capacity: 4,
            max_in_flight: 8,
            admission: AdmissionPolicy::Off,
            ..PipelineConfig::default()
        },
    );
    let (claimed, outputs) = std::thread::scope(|scope| {
        let consumer = scope.spawn(|| {
            std::iter::from_fn(|| pipeline.next_decoded()).take(FRAMES as usize).collect::<Vec<_>>()
        });
        let submitters: Vec<_> = (0..SUBMITTERS)
            .map(|p| {
                let (pipeline, table) = (&pipeline, &table);
                scope.spawn(move || {
                    (0..PER_SUBMITTER)
                        .map(|i| {
                            let index = p * 1000 + i;
                            (pipeline.submit(strong_frame(table, index)).unwrap(), index)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut claimed: Vec<(u64, u64)> =
            submitters.into_iter().flat_map(|s| s.join().unwrap()).collect();
        claimed.sort_unstable();
        (claimed, consumer.join().unwrap())
    });

    let seqs: Vec<u64> = claimed.iter().map(|&(seq, _)| seq).collect();
    assert_eq!(seqs, (0..FRAMES).collect::<Vec<_>>(), "distinct and gap-free");
    let released: Vec<(u64, u64)> = outputs.iter().map(|f| (f.seq, f.stream_index)).collect();
    assert_eq!(released, claimed, "each frame released once, in sequence order");
    let stats = pipeline.finish();
    assert_eq!((stats.submitted, stats.emitted, stats.dropped), (FRAMES, FRAMES, 0));
    assert!(stats.ingress_watermark <= 4);
}

#[test]
#[should_panic(expected = "room for at least one frame")]
fn zero_ingress_capacity_panics_at_start() {
    let _ = DecodePipeline::start(
        mixed_table(6),
        PipelineConfig { ingress_capacity: 0, ..PipelineConfig::default() },
    );
}
