//! Service-tier counters: tenant-resolved admission outcomes, migration
//! and reconfiguration events, and the shared egress's release counters.

use crate::tenant::TenantState;
use dvbs2_pipeline::{LatencySnapshot, StatsCore};
use std::sync::atomic::{AtomicU64, Ordering};

/// Live counters shared across the submit path and the monitor. Relaxed
/// atomics everywhere: individually exact, mutually consistent only at
/// quiescence — same contract as the pipeline's core. Admissions and
/// latency sheds are counted per tenant only, deliveries per stream on the
/// egress; the snapshot sums them.
#[derive(Debug, Default)]
pub(crate) struct ServiceStatsCore {
    /// Hard backpressure from a shard's ingress or in-flight cap.
    pub(crate) rejected_backpressure: AtomicU64,
    /// Tenant admission budget exhausted.
    pub(crate) rejected_budget: AtomicU64,
    /// Stream re-routes of any cause (drain, explicit, fault).
    pub(crate) migrations: AtomicU64,
    /// The subset of migrations triggered by a degraded-shard verdict.
    pub(crate) fault_migrations: AtomicU64,
    /// Completed [`reconfigure`](crate::ServiceTier::reconfigure) calls.
    pub(crate) reconfigs: AtomicU64,
}

impl ServiceStatsCore {
    pub(crate) fn snapshot(
        &self,
        epoch: u64,
        egress: &StatsCore,
        tenants: Vec<TenantStats>,
    ) -> ServiceStats {
        ServiceStats {
            submitted: tenants.iter().map(|t| t.submitted).sum(),
            delivered: tenants.iter().map(|t| t.delivered).sum(),
            rejected_backpressure: self.rejected_backpressure.load(Ordering::Relaxed),
            rejected_budget: self.rejected_budget.load(Ordering::Relaxed),
            shed_latency: tenants.iter().map(|t| t.shed).sum(),
            migrations: self.migrations.load(Ordering::Relaxed),
            fault_migrations: self.fault_migrations.load(Ordering::Relaxed),
            reconfigs: self.reconfigs.load(Ordering::Relaxed),
            orphaned: egress.dropped.load(Ordering::Relaxed),
            epoch,
            latency: egress.latency.snapshot(),
            tenants,
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
    pub(crate) fn from_state(state: &TenantState, delivered: u64) -> Self {
        TenantStats {
            tenant: state.policy.tenant,
            submitted: state.submitted.load(Ordering::Relaxed),
            delivered,
            rejected: state.rejected.load(Ordering::Relaxed),
            shed: state.shed.load(Ordering::Relaxed),
            in_flight: state.in_flight.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time snapshot of the service tier's counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceStats {
    /// Frames admitted across all tenants (the sum over [`Self::tenants`]).
    pub submitted: u64,
    /// Frames delivered in per-stream order (the sum over [`Self::tenants`]).
    pub delivered: u64,
    /// Frames refused on shard backpressure.
    pub rejected_backpressure: u64,
    /// Frames refused on an exhausted tenant budget.
    pub rejected_budget: u64,
    /// Frames shed by latency-bound SLA headroom checks (the sum over
    /// [`Self::tenants`]).
    pub shed_latency: u64,
    /// Stream migrations between shards (all causes).
    pub migrations: u64,
    /// Migrations caused by a degraded-shard health verdict.
    pub fault_migrations: u64,
    /// Completed hot reconfigurations.
    pub reconfigs: u64,
    /// Admitted frames left behind a gap in their stream when the egress
    /// closed — the tier's twin of the pipeline's `dropped`. Zero in any
    /// healthy run: only a worker that died holding a frame leaves one.
    pub orphaned: u64,
    /// The MODCOD-table epoch at snapshot time.
    pub epoch: u64,
    /// End-to-end latency (shard admission to in-order release) of the
    /// delivered frames.
    pub latency: LatencySnapshot,
    /// Per-tenant counter slices, sorted by tenant id.
    pub tenants: Vec<TenantStats>,
}
