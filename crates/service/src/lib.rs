//! Sharded decode front-end over the streaming pipeline: the service tier.
//!
//! One [`DecodePipeline`](dvbs2_pipeline::DecodePipeline) is a single-table
//! worker pool; a base station serves many tenants, each with several
//! streams, under different service-level obligations, and must survive a
//! MODCOD-table change without dropping a frame. This crate is that layer:
//!
//! * [`ServiceTier`] — N independent worker pools (shards) behind one
//!   non-blocking ingress, all releasing into one per-stream
//!   [`Egress`](dvbs2_pipeline::Egress). Frames route by
//!   `(tenant, stream, MODCOD)` hash with sticky per-stream affinity; the
//!   egress releases each stream in order even *across* a mid-stream shard
//!   change, and holds no stream's frame behind another stream's.
//! * [`TenantPolicy`] / [`SlaClass`] — per-tenant admission budgets layered
//!   on the pipeline's Eq.-8 iteration shedding: latency-bound tenants are
//!   shed early while a shard still has queueing headroom, throughput-bound
//!   tenants are admitted until hard backpressure.
//! * Hot reconfiguration — [`ServiceTier::reconfigure`] installs a new
//!   [`ModcodTable`](dvbs2::ModcodTable) under the next epoch and rolls
//!   the shard fleet:
//!   old shards drain what they admitted, new shards take over routing, no
//!   stream drops or reorders a frame.
//! * Fault-driven migration — a shard whose workers trip the
//!   syndrome-anomaly quarantine reports itself degraded
//!   ([`PipelineHealth::degraded`](dvbs2_pipeline::PipelineHealth::degraded));
//!   the monitor migrates its streams to healthy shards, again preserving
//!   per-stream order.
//!
//! # Example
//!
//! ```
//! use dvbs2::ldpc::{CodeRate, FrameSize};
//! use dvbs2::{Modcod, ModcodTable};
//! use dvbs2_channel::{Modulation, StreamKey};
//! use dvbs2_pipeline::PipelineConfig;
//! use dvbs2_service::{ServiceConfig, ServiceFrame, ServiceTier, TenantPolicy};
//!
//! let table = ModcodTable::build(&[Modcod::new(
//!     Modulation::Bpsk,
//!     CodeRate::R1_2,
//!     FrameSize::Short,
//! )])
//! .unwrap();
//! let n = table.entry(0).frame_len();
//! let config = ServiceConfig {
//!     shards: 2,
//!     pipeline: PipelineConfig { workers: 1, ..PipelineConfig::default() },
//!     tenants: vec![TenantPolicy::throughput_bound(7, 32)],
//!     ..ServiceConfig::default()
//! };
//! let tier = ServiceTier::start(table, config);
//! let key = StreamKey::new(7, 0);
//! for _ in 0..3 {
//!     // A confidently-received all-zero codeword.
//!     let frame = ServiceFrame { key, modcod: 0, llrs: vec![6.0; n] };
//!     tier.submit(frame).unwrap();
//! }
//! for seq in 0..3u64 {
//!     let out = tier.next_output().unwrap();
//!     assert_eq!(out.key, key);
//!     assert_eq!(out.stream_seq, seq, "egress is in per-stream order");
//!     assert!(out.decoded.converged);
//! }
//! let stats = tier.finish();
//! assert_eq!(stats.submitted, 3);
//! assert_eq!(stats.delivered, 3);
//! ```

#![warn(missing_docs)]

mod stats;
mod tenant;
mod tier;

pub use stats::{ServiceStats, TenantStats};
pub use tenant::{SlaClass, TenantPolicy};
pub use tier::{
    ServiceConfig, ServiceError, ServiceFrame, ServiceOutput, ServiceTier, ShardFaultInjection,
    ShardStatus,
};
