//! Service-tier counters: tenant-resolved admission outcomes, migration
//! and reconfiguration events, and an end-to-end latency histogram that
//! reuses the pipeline's log-linear bucket geometry.

use crate::tenant::TenantState;
use dvbs2_pipeline::{
    histogram_quantile_index, latency_bucket, latency_bucket_floor_ns, LATENCY_BUCKETS,
};
use std::sync::atomic::{AtomicU64, Ordering};

/// Live counters shared across the submit path, the collectors and the
/// monitor. Relaxed atomics everywhere: individually exact, mutually
/// consistent only at quiescence — same contract as the pipeline's core.
#[derive(Debug)]
pub(crate) struct ServiceStatsCore {
    pub(crate) submitted: AtomicU64,
    pub(crate) delivered: AtomicU64,
    /// Hard backpressure from a shard's ingress or in-flight cap.
    pub(crate) rejected_backpressure: AtomicU64,
    /// Tenant admission budget exhausted.
    pub(crate) rejected_budget: AtomicU64,
    /// Latency-bound SLA shedding (shard had queueing but no headroom).
    pub(crate) shed_latency: AtomicU64,
    /// Stream re-routes of any cause (drain, explicit, fault).
    pub(crate) migrations: AtomicU64,
    /// The subset of migrations triggered by a degraded-shard verdict.
    pub(crate) fault_migrations: AtomicU64,
    /// Completed [`reconfigure`](crate::ServiceTier::reconfigure) calls.
    pub(crate) reconfigs: AtomicU64,
    /// Decoded frames whose routing ticket had no metadata — an internal
    /// invariant violation, always zero in a healthy tier.
    pub(crate) orphaned: AtomicU64,
    /// End-to-end latency (submit to in-order delivery), ns.
    pub(crate) latency_ns_total: AtomicU64,
    pub(crate) latency_watermark_ns: AtomicU64,
    pub(crate) latency_histogram: [AtomicU64; LATENCY_BUCKETS],
}

impl Default for ServiceStatsCore {
    fn default() -> Self {
        ServiceStatsCore {
            submitted: AtomicU64::new(0),
            delivered: AtomicU64::new(0),
            rejected_backpressure: AtomicU64::new(0),
            rejected_budget: AtomicU64::new(0),
            shed_latency: AtomicU64::new(0),
            migrations: AtomicU64::new(0),
            fault_migrations: AtomicU64::new(0),
            reconfigs: AtomicU64::new(0),
            orphaned: AtomicU64::new(0),
            latency_ns_total: AtomicU64::new(0),
            latency_watermark_ns: AtomicU64::new(0),
            latency_histogram: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl ServiceStatsCore {
    pub(crate) fn record_latency(&self, ns: u64) {
        self.latency_ns_total.fetch_add(ns, Ordering::Relaxed);
        self.latency_watermark_ns.fetch_max(ns, Ordering::Relaxed);
        self.latency_histogram[latency_bucket(ns)].fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(
        &self,
        epoch: u64,
        tenants: impl Iterator<Item = TenantStats>,
    ) -> ServiceStats {
        let mut latency_histogram = vec![0u64; LATENCY_BUCKETS];
        for (out, bucket) in latency_histogram.iter_mut().zip(&self.latency_histogram) {
            *out = bucket.load(Ordering::Relaxed);
        }
        ServiceStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            delivered: self.delivered.load(Ordering::Relaxed),
            rejected_backpressure: self.rejected_backpressure.load(Ordering::Relaxed),
            rejected_budget: self.rejected_budget.load(Ordering::Relaxed),
            shed_latency: self.shed_latency.load(Ordering::Relaxed),
            migrations: self.migrations.load(Ordering::Relaxed),
            fault_migrations: self.fault_migrations.load(Ordering::Relaxed),
            reconfigs: self.reconfigs.load(Ordering::Relaxed),
            orphaned: self.orphaned.load(Ordering::Relaxed),
            epoch,
            latency_ns_total: self.latency_ns_total.load(Ordering::Relaxed),
            latency_watermark_ns: self.latency_watermark_ns.load(Ordering::Relaxed),
            latency_histogram,
            tenants: tenants.collect(),
        }
    }
}

/// One tenant's slice of the service counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantStats {
    /// The tenant these counters belong to.
    pub tenant: u32,
    /// Frames admitted into the service.
    pub submitted: u64,
    /// Frames delivered in per-stream order to the consumer.
    pub delivered: u64,
    /// Frames refused (budget or backpressure).
    pub rejected: u64,
    /// Frames shed by the latency-bound SLA.
    pub shed: u64,
    /// Frames currently inside the service.
    pub in_flight: usize,
}

impl TenantStats {
    pub(crate) fn from_state(state: &TenantState) -> Self {
        TenantStats {
            tenant: state.policy.tenant,
            submitted: state.submitted.load(Ordering::Relaxed),
            delivered: state.delivered.load(Ordering::Relaxed),
            rejected: state.rejected.load(Ordering::Relaxed),
            shed: state.shed.load(Ordering::Relaxed),
            in_flight: state.in_flight.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time snapshot of the service tier's counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceStats {
    /// Frames admitted across all tenants.
    pub submitted: u64,
    /// Frames delivered in per-stream order.
    pub delivered: u64,
    /// Frames refused on shard backpressure.
    pub rejected_backpressure: u64,
    /// Frames refused on an exhausted tenant budget.
    pub rejected_budget: u64,
    /// Frames shed by latency-bound SLA headroom checks.
    pub shed_latency: u64,
    /// Stream migrations between shards (all causes).
    pub migrations: u64,
    /// Migrations caused by a degraded-shard health verdict.
    pub fault_migrations: u64,
    /// Completed hot reconfigurations.
    pub reconfigs: u64,
    /// Decoded frames with no routing metadata (invariant violation).
    pub orphaned: u64,
    /// The MODCOD registry epoch at snapshot time.
    pub epoch: u64,
    /// Sum of end-to-end latencies, ns.
    pub latency_ns_total: u64,
    /// Largest end-to-end latency seen, ns.
    pub latency_watermark_ns: u64,
    /// Log-linear latency histogram (pipeline bucket geometry).
    pub latency_histogram: Vec<u64>,
    /// Per-tenant counter slices, sorted by tenant id.
    pub tenants: Vec<TenantStats>,
}

impl ServiceStats {
    /// End-to-end latency at quantile `q`, as the floor of the histogram
    /// bucket holding the nearest-rank sample (within 6.25% below the true
    /// value). Zero before any delivery.
    pub fn latency_quantile_ns(&self, q: f64) -> u64 {
        histogram_quantile_index(&self.latency_histogram, q)
            .map(latency_bucket_floor_ns)
            .unwrap_or(0)
    }

    /// Mean end-to-end latency in nanoseconds (zero before any delivery).
    pub fn mean_latency_ns(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.latency_ns_total as f64 / self.delivered as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_quantiles_round_trip_the_shared_geometry() {
        let core = ServiceStatsCore::default();
        for _ in 0..999 {
            core.record_latency(10_000);
        }
        core.record_latency(5_000_000);
        core.delivered.store(1000, Ordering::Relaxed);
        let stats = core.snapshot(3, std::iter::empty());
        assert_eq!(stats.epoch, 3);
        let p50 = stats.latency_quantile_ns(0.5);
        assert!((9_376..=10_000).contains(&p50), "p50 {p50} one bucket below 10us");
        let p999 = stats.latency_quantile_ns(0.999);
        assert!(p999 <= 10_000, "p999 rank 999 still lands on the 10us mass");
        assert_eq!(stats.latency_watermark_ns, 5_000_000);
    }
}
