//! Streaming decode pipeline: a bounded, instrumented multi-frame service
//! layer over the DVB-S2 decoder matrix.
//!
//! The rest of the workspace decodes one frame at a time; a receiver
//! decodes a *stream* — demapped soft-bit frames arriving continuously,
//! each under its own MODCOD, with a service-rate obligation (the paper's
//! 255 Mbit/s base-station requirement is a sustained number, not a
//! single-frame one). This crate is that service layer:
//!
//! * [`DecodePipeline`] — ingress queue → worker pool → in-order egress,
//!   each stage one mutex and every frame counted against one in-flight
//!   budget, with per-worker decoder reuse via
//!   [`Decoder::decode_into`](dvbs2_decoder::Decoder::decode_into);
//! * [`Egress`] — the one release stage: a [`ReleaseBuffer`] per stream
//!   (gap-free in-order release by sequence number) and the ready queue,
//!   owned by a standalone pipeline or shared by a service tier's shards;
//! * [`AdmissionController`] — iteration-budget load shedding driven by
//!   the Eq. 8 [`ThroughputModel`](dvbs2_hardware::ThroughputModel)
//!   (the paper's Table 3 iterations-vs-throughput trade, run backwards);
//! * [`QuarantinePolicy`] — syndrome-anomaly fault containment: a worker
//!   whose decode statistics look like broken hardware (convergence
//!   collapse plus abnormal residual syndrome weight) takes itself out of
//!   rotation and re-probes with a known-answer vector until healthy;
//! * [`PipelineStats`] — frames in/out/rejected/dropped, queue
//!   watermarks, an iterations histogram, early-stop rate, ns/frame, the
//!   fault-containment counters and a [`LatencyRecorder`] snapshot.
//!
//! # Example
//!
//! ```
//! use dvbs2::channel::Modulation;
//! use dvbs2::ldpc::{CodeRate, FrameSize};
//! use dvbs2::{Modcod, ModcodTable};
//! use dvbs2_pipeline::{DecodePipeline, PipelineConfig, SoftFrame};
//!
//! let table = ModcodTable::build(&[Modcod::new(
//!     Modulation::Bpsk,
//!     CodeRate::R1_2,
//!     FrameSize::Short,
//! )])
//! .unwrap();
//! let n = table.entry(0).frame_len();
//! let pipeline = DecodePipeline::start(
//!     table,
//!     PipelineConfig { workers: 2, ..PipelineConfig::default() },
//! );
//! for i in 0..4u64 {
//!     // A confidently-received all-zero codeword.
//!     let frame = SoftFrame { modcod: 0, stream_index: i, llrs: vec![6.0; n] };
//!     pipeline.submit(frame).unwrap();
//! }
//! for i in 0..4u64 {
//!     let out = pipeline.next_decoded().unwrap();
//!     assert_eq!(out.seq, i, "egress is in submission order");
//!     assert!(out.converged);
//! }
//! let stats = pipeline.finish();
//! assert_eq!(stats.submitted, 4);
//! assert_eq!(stats.decoded, 4);
//! assert_eq!(stats.rejected + stats.dropped, 0);
//! ```

#![warn(missing_docs)]

mod admission;
mod health;
mod reorder;
mod service;
mod stats;

pub use admission::{AdmissionController, AdmissionPolicy, DEMAND_MULTIPLIERS, OCCUPANCY_STEPS};
pub use health::{QuarantinePolicy, WorkerFaultInjection, WorkerHealth};
pub use reorder::ReleaseBuffer;
pub use service::{
    DecodePipeline, DecodedFrame, Egress, PipelineConfig, PipelineHealth, Released, SoftFrame,
    SubmitError,
};
pub use stats::{LatencyRecorder, LatencySnapshot, PipelineStats, StatsCore, ITERATION_BUCKETS};
