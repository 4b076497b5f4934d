//! Per-tenant service-level policy: SLA class and admission budget.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// How a tenant's traffic trades latency against throughput when a shard
/// runs hot. This layers *service-level* shedding on top of the pipeline's
/// Eq.-8 iteration ladder: the ladder cheapens frames already admitted,
/// the SLA class decides which frames to admit at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlaClass {
    /// Bounded queueing delay beats delivery of every frame: a frame is
    /// shed (returned to the caller) when its target shard has already
    /// used half its in-flight budget, so admitted frames never sit in a
    /// deep queue. Interactive return channels want this.
    LatencyBound,
    /// Delivery beats delay: frames are admitted until the shard reports
    /// hard backpressure. Bulk broadcast streams want this.
    ThroughputBound,
}

/// A tenant's registration with the service tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantPolicy {
    /// Tenant identifier; [`StreamKey::tenant`](dvbs2_channel::StreamKey)
    /// values in submitted frames must match a registered policy.
    pub tenant: u32,
    /// The latency/throughput trade this tenant signed up for.
    pub sla: SlaClass,
    /// Admission budget: frames this tenant may have inside the service at
    /// once (queued, decoding, or awaiting consumption). The service-level
    /// analogue of the pipeline's `max_in_flight`.
    pub max_in_flight: usize,
}

impl TenantPolicy {
    /// A latency-bound tenant with the given in-service frame budget.
    pub fn latency_bound(tenant: u32, max_in_flight: usize) -> Self {
        TenantPolicy { tenant, sla: SlaClass::LatencyBound, max_in_flight }
    }

    /// A throughput-bound tenant with the given in-service frame budget.
    pub fn throughput_bound(tenant: u32, max_in_flight: usize) -> Self {
        TenantPolicy { tenant, sla: SlaClass::ThroughputBound, max_in_flight }
    }
}

/// Live admission state for one tenant.
#[derive(Debug)]
pub(crate) struct TenantState {
    pub(crate) policy: TenantPolicy,
    /// Frames currently inside the service (admitted, not yet consumed).
    pub(crate) in_flight: AtomicUsize,
    pub(crate) submitted: AtomicU64,
    pub(crate) rejected: AtomicU64,
    pub(crate) shed: AtomicU64,
}

impl TenantState {
    pub(crate) fn new(policy: TenantPolicy) -> Self {
        TenantState {
            policy,
            in_flight: AtomicUsize::new(0),
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        }
    }

    /// Claims one unit of the tenant's budget, failing without side
    /// effects when the budget is exhausted.
    pub(crate) fn try_claim(&self) -> bool {
        let mut current = self.in_flight.load(Ordering::Relaxed);
        loop {
            if current >= self.policy.max_in_flight {
                return false;
            }
            match self.in_flight.compare_exchange_weak(
                current,
                current + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(seen) => current = seen,
            }
        }
    }

    /// Returns a claimed unit (frame rejected downstream or consumed).
    pub(crate) fn release(&self) {
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_claims_are_exact() {
        let state = TenantState::new(TenantPolicy::latency_bound(1, 2));
        assert!(state.try_claim());
        assert!(state.try_claim());
        assert!(!state.try_claim(), "third claim exceeds the budget");
        state.release();
        assert!(state.try_claim(), "release frees a unit");
    }
}
