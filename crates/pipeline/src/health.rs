//! Syndrome-anomaly detection and worker quarantine.
//!
//! A worker whose datapath develops a fault (the hardware crate's
//! `FaultScenario` models the mechanisms: stuck RAM words, flipped write
//! paths, stuck FU lanes) does not crash — it keeps emitting frames whose
//! decode statistics are wrong in a characteristic way: convergence
//! collapses and the residual syndrome weight of non-converged frames jumps
//! far above what channel noise produces. This module turns that signature
//! into a containment mechanism:
//!
//! * [`WorkerHealth`] — per-worker EWMAs of the non-convergence rate and
//!   the residual syndrome-weight fraction, updated after every decode;
//! * [`QuarantinePolicy`] — thresholds that turn the EWMAs into a
//!   *suspect* verdict, plus the known-answer re-probe cadence;
//! * [`WorkerFaultInjection`] — a deterministic test hook that makes one
//!   worker's input datapath faulty for a window of its decodes, so the
//!   whole detect → quarantine → re-probe → reinstate arc is testable
//!   without real broken silicon.
//!
//! A suspect worker quarantines *itself*: it stops consuming the shared
//! ingress queue (traffic implicitly re-routes to the healthy workers — no
//! frame is dropped or reordered, because quarantine only begins between
//! frames, where the worker holds nothing un-emitted) and re-probes with
//! a known-answer test vector — a strongly-received all-zero codeword that
//! any healthy decoder converges on — until [`QuarantinePolicy::probe_passes`]
//! consecutive passes reinstate it. A worker never quarantines itself when
//! it is the last healthy worker; degraded service beats no service.

/// When and how workers quarantine themselves. Disabled by default: the
/// detector costs a syndrome count per non-converged frame, and deployments
/// without a fault model should not pay for (or be surprised by) workers
/// taking themselves out of rotation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuarantinePolicy {
    /// Master switch; `false` keeps every worker in rotation forever.
    pub enabled: bool,
    /// EWMA smoothing factor in `(0, 1]` — the weight of the newest
    /// observation. Higher reacts faster but is noisier.
    pub alpha: f64,
    /// A worker is suspect only if its non-convergence EWMA exceeds this.
    pub nonconv_threshold: f64,
    /// ... and its residual syndrome-weight-fraction EWMA exceeds this.
    /// Channel noise leaves a near-codeword residue (a small fraction of
    /// checks unsatisfied); a corrupted datapath leaves a large one — this
    /// threshold is what separates "hard channel" from "broken worker".
    pub syndrome_threshold: f64,
    /// Decodes a worker must have observed before it can be flagged
    /// (warm-up; an EWMA over two frames means nothing).
    pub min_decodes: u64,
    /// Consecutive known-answer probe passes required to reinstate a
    /// quarantined worker.
    pub probe_passes: u32,
    /// Milliseconds between probe attempts while quarantined.
    pub probe_interval_ms: u64,
}

impl Default for QuarantinePolicy {
    fn default() -> Self {
        QuarantinePolicy {
            enabled: false,
            alpha: 0.25,
            nonconv_threshold: 0.7,
            syndrome_threshold: 0.02,
            min_decodes: 8,
            probe_passes: 3,
            probe_interval_ms: 2,
        }
    }
}

impl QuarantinePolicy {
    /// The default thresholds with the detector switched on.
    pub fn enabled() -> Self {
        QuarantinePolicy { enabled: true, ..QuarantinePolicy::default() }
    }
}

/// Per-worker decode-health state: EWMAs of the two fault signatures.
#[derive(Debug, Clone, Default)]
pub struct WorkerHealth {
    nonconv_ewma: f64,
    syndrome_ewma: f64,
    observed: u64,
}

impl WorkerHealth {
    /// Fresh (healthy) state.
    pub fn new() -> Self {
        WorkerHealth::default()
    }

    /// Records one finished decode. `syndrome_fraction` is the fraction of
    /// unsatisfied check equations in the emitted word (`0.0` for a
    /// converged frame by definition).
    pub fn observe(&mut self, policy: &QuarantinePolicy, converged: bool, syndrome_fraction: f64) {
        let a = policy.alpha;
        self.nonconv_ewma = (1.0 - a) * self.nonconv_ewma + a * f64::from(u8::from(!converged));
        self.syndrome_ewma = (1.0 - a) * self.syndrome_ewma + a * syndrome_fraction;
        self.observed += 1;
    }

    /// Whether the observed statistics look like a faulty datapath rather
    /// than a hard channel: both EWMAs past threshold, after warm-up.
    pub fn suspect(&self, policy: &QuarantinePolicy) -> bool {
        self.observed >= policy.min_decodes
            && self.nonconv_ewma > policy.nonconv_threshold
            && self.syndrome_ewma > policy.syndrome_threshold
    }

    /// Clears the state (after reinstatement, or after a suppressed
    /// quarantine, so the verdict re-accumulates from fresh evidence).
    pub fn reset(&mut self) {
        *self = WorkerHealth::default();
    }

    /// Current non-convergence EWMA.
    pub fn nonconv_ewma(&self) -> f64 {
        self.nonconv_ewma
    }

    /// Current residual syndrome-weight-fraction EWMA.
    pub fn syndrome_ewma(&self) -> f64 {
        self.syndrome_ewma
    }
}

/// Deterministic fault injection for one pipeline worker: while the
/// worker's decode counter (frames *and* probes) lies in
/// `[from_decode, until_decode)`, every input frame it processes is
/// replaced with a fixed garbage pattern before decoding — modeling a
/// corrupted input bus. Probes count too, so a window models a transient
/// fault the re-probe eventually clears, while `until_decode == u64::MAX`
/// models a hard fault the worker never recovers from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerFaultInjection {
    /// Index of the faulted worker (`0..config.workers`).
    pub worker: usize,
    /// First corrupted decode.
    pub from_decode: u64,
    /// One past the last corrupted decode.
    pub until_decode: u64,
}

impl WorkerFaultInjection {
    /// A fault that never heals.
    pub fn permanent(worker: usize) -> Self {
        WorkerFaultInjection { worker, from_decode: 0, until_decode: u64::MAX }
    }

    /// A transient fault over a half-open decode window.
    pub fn window(worker: usize, from_decode: u64, until_decode: u64) -> Self {
        WorkerFaultInjection { worker, from_decode, until_decode }
    }

    /// Whether decode number `decode_index` on worker `worker` is corrupted.
    pub fn corrupts(&self, worker: usize, decode_index: u64) -> bool {
        worker == self.worker
            && self.from_decode <= decode_index
            && decode_index < self.until_decode
    }

    /// The corruption itself: a strong alternating-sign pattern, i.e. a
    /// confidently-received word maximally far from the submitted frame.
    /// Deterministic, so faulted decodes stay reproducible.
    pub fn corrupt_llrs(llrs: &mut [f64]) {
        for (i, llr) in llrs.iter_mut().enumerate() {
            *llr = if i % 2 == 0 { 6.0 } else { -6.0 };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_flags_only_the_fault_signature() {
        let policy = QuarantinePolicy {
            enabled: true,
            alpha: 0.5,
            min_decodes: 4,
            ..QuarantinePolicy::default()
        };
        // Healthy traffic: converged frames never raise a verdict.
        let mut healthy = WorkerHealth::new();
        for _ in 0..50 {
            healthy.observe(&policy, true, 0.0);
        }
        assert!(!healthy.suspect(&policy));
        // Hard channel: frequent non-convergence with a *small* residue
        // (near-codeword) must not be flagged as a hardware fault.
        let mut hard_channel = WorkerHealth::new();
        for _ in 0..50 {
            hard_channel.observe(&policy, false, 0.005);
        }
        assert!(!hard_channel.suspect(&policy));
        // Broken worker: non-convergence with a large residue is flagged,
        // but not before the warm-up window.
        let mut broken = WorkerHealth::new();
        for i in 0..50u64 {
            broken.observe(&policy, false, 0.4);
            assert_eq!(broken.suspect(&policy), i + 1 >= policy.min_decodes, "decode {i}");
        }
        broken.reset();
        assert!(!broken.suspect(&policy), "reset clears the verdict");
    }

    #[test]
    fn injection_window_is_half_open_and_worker_scoped() {
        let fault = WorkerFaultInjection::window(2, 3, 6);
        assert!(!fault.corrupts(2, 2));
        assert!(fault.corrupts(2, 3));
        assert!(fault.corrupts(2, 5));
        assert!(!fault.corrupts(2, 6));
        assert!(!fault.corrupts(1, 4), "other workers are untouched");
        assert!(WorkerFaultInjection::permanent(0).corrupts(0, u64::MAX - 1));
        let mut llrs = vec![0.0; 4];
        WorkerFaultInjection::corrupt_llrs(&mut llrs);
        assert_eq!(llrs, vec![6.0, -6.0, 6.0, -6.0]);
    }
}
