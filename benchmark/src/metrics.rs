//! The metric tables — the code-side twin of `BENCHMARK.json`, which a unit
//! test holds equal to them — and the collection a workload fills in.

use std::collections::BTreeMap;

/// The four workloads, in the order `all` runs them.
pub const WORKLOADS: [&str; 4] =
    ["kernel_lanes", "serve_mixed_default", "serve_clear_sky", "hw_paper_point"];

/// `(name, unit, better, bound)`: what a user of the stack sees. Every
/// workload reports every one of them from its untraced run. The 95th
/// percentile is not among them: on the shared sizing host unchanged code
/// spreads past any bound the contract allows, so it is reported per layer
/// (`traced.latency_p95_ms`) and on stderr, not gated.
pub const END_TO_END: [(&str, &str, &str, f64); 5] = [
    ("info_mbps", "Mbit/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("cpu_s_per_info_mbit", "s/Mbit", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
];

/// `(name, unit, better)`: single-layer metrics from the traced run. A
/// workload reports 0 for a layer that is not on its path.
pub const PER_LAYER: [(&str, &str, &str); 84] = [
    ("ldpc.code_build_ms", "ms", "lower"),
    ("ldpc.encode_us_per_frame", "us", "lower"),
    ("channel.transmit_us_per_frame", "us", "lower"),
    ("channel.demap_us_per_frame", "us", "lower"),
    ("decoder.simd_tier", "tier", "higher"),
    ("decoder.qsimd.coded_mbps", "Mbit/s", "higher"),
    ("decoder.qsimd.ns_per_iter", "ns", "lower"),
    ("decoder.flooding_ms_f32.coded_mbps", "Mbit/s", "higher"),
    ("decoder.flooding_ms_f32.ns_per_iter", "ns", "lower"),
    ("decoder.zigzag_ms_f32.coded_mbps", "Mbit/s", "higher"),
    ("decoder.zigzag_ms_f32.ns_per_iter", "ns", "lower"),
    ("decoder.zigzag_sp_f32.coded_mbps", "Mbit/s", "higher"),
    ("decoder.zigzag_sp_f32.ns_per_iter", "ns", "lower"),
    ("decoder.quantized_plain.coded_mbps", "Mbit/s", "higher"),
    ("decoder.quantized_plain.ns_per_iter", "ns", "lower"),
    ("decoder.quantized_fused.coded_mbps", "Mbit/s", "higher"),
    ("decoder.quantized_fused.ns_per_iter", "ns", "lower"),
    ("decoder.table_sp_f32.coded_mbps", "Mbit/s", "higher"),
    ("decoder.table_sp_f32.ns_per_iter", "ns", "lower"),
    ("decoder.tiled_ms_f32_x8.coded_mbps", "Mbit/s", "higher"),
    ("decoder.tiled_ms_f32_x8.ns_per_iter", "ns", "lower"),
    ("decoder.slot.r1_4.us_per_frame", "us", "lower"),
    ("decoder.slot.r1_4.mean_iterations", "iter", "lower"),
    ("decoder.slot.r1_2.us_per_frame", "us", "lower"),
    ("decoder.slot.r1_2.mean_iterations", "iter", "lower"),
    ("decoder.slot.r3_4.us_per_frame", "us", "lower"),
    ("decoder.slot.r3_4.mean_iterations", "iter", "lower"),
    ("decoder.slot.r8_9.us_per_frame", "us", "lower"),
    ("decoder.slot.r8_9.mean_iterations", "iter", "lower"),
    ("decoder.share_of_worker_busy", "frac", "higher"),
    ("dvbs2.table_build_ms", "ms", "lower"),
    ("dvbs2.make_decoder_ms", "ms", "lower"),
    ("dvbs2.bbframe_us_per_frame", "us", "lower"),
    ("pipeline.w1.frames_per_s", "1/s", "higher"),
    ("pipeline.w2.frames_per_s", "1/s", "higher"),
    ("pipeline.worker_scaling", "ratio", "higher"),
    ("pipeline.efficiency", "ratio", "higher"),
    ("pipeline.submit_us_p50", "us", "lower"),
    ("pipeline.residence_ms_p50", "ms", "lower"),
    ("pipeline.decode_busy_frac", "frac", "higher"),
    ("pipeline.queue_wait_ms_mean", "ms", "lower"),
    ("pipeline.ingress_watermark", "count", "lower"),
    ("pipeline.reorder_watermark", "count", "lower"),
    ("service.submit_us_p50", "us", "lower"),
    ("service.refused_frac.over_budget", "frac", "lower"),
    ("service.refused_frac.backpressure", "frac", "lower"),
    ("service.refused_frac.shed", "frac", "lower"),
    ("service.egress_wait_ms_p50", "ms", "lower"),
    ("service.efficiency", "ratio", "higher"),
    ("service.shard_skew", "ratio", "lower"),
    ("service.migrations", "count", "lower"),
    ("service.latency_outside_decode_frac", "frac", "lower"),
    ("hardware.sim_cycles_per_frame", "cycles", "lower"),
    ("hardware.io_cycles", "cycles", "lower"),
    ("hardware.info_phase_cycles", "cycles", "lower"),
    ("hardware.check_phase_cycles", "cycles", "lower"),
    ("hardware.max_buffer", "words", "lower"),
    ("hardware.sim_info_mbps", "Mbit/s", "higher"),
    ("hardware.host_ns_per_sim_cycle", "ns", "lower"),
    ("hardware.core_ms_per_frame", "ms", "lower"),
    ("hardware.golden_ms_per_frame", "ms", "lower"),
    ("hardware.fabric_p4.makespan_cycles", "cycles", "lower"),
    ("hardware.fabric_p4.bus_utilization", "frac", "lower"),
    ("hardware.fabric_p4.stall_cycles", "cycles", "lower"),
    ("hardware.fabric_p4.sim_info_mbps", "Mbit/s", "higher"),
    ("hardware.eq8_model_error_frac", "frac", "lower"),
    ("loadgen.offered_fps", "1/s", "higher"),
    ("loadgen.late_frac", "frac", "lower"),
    ("loadgen.late_ms_max", "ms", "lower"),
    ("loadgen.gen_s", "s", "lower"),
    ("loadgen.latency_samples", "count", "higher"),
    ("replay.direct_ns_per_frame", "ns", "lower"),
    ("replay.pipeline_ns_per_frame", "ns", "lower"),
    ("replay.service_ns_per_frame", "ns", "lower"),
    ("replay.pipeline_over_direct", "ratio", "lower"),
    ("replay.service_over_pipeline", "ratio", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.spans", "count", "higher"),
    ("trace.span_sum_err_max_frac", "frac", "lower"),
    ("traced.info_mbps", "Mbit/s", "higher"),
    ("traced.latency_p50_ms", "ms", "lower"),
    ("traced.latency_p95_ms", "ms", "lower"),
    ("traced.frames", "count", "higher"),
    ("traced.mean_iterations", "iter", "lower"),
];

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Frames (or decode calls) the run attempted and checked.
    pub attempted: u64,
    /// Of those, how many were wrong, undelivered or out of order.
    pub failed: u64,
    /// Contract violations beyond per-frame failures; empty when correct.
    pub violations: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a metric. Names outside the two tables are a bug in the
    /// harness, caught by the first run.
    pub fn set(&mut self, name: &str, value: f64) {
        let known = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .find(|known| *known == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the tables"));
        self.values.insert(known, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub fn violation(&mut self, what: String) {
        self.violations.push(what);
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0
    }

    /// The metrics of one mode as `(name, value, unit)`: the end-to-end
    /// table for an untraced run, the per-layer table for a traced one.
    pub fn table(&self, traced: bool) -> Vec<(&'static str, f64, &'static str)> {
        let value = |name: &str| self.get(name).unwrap_or(0.0);
        if traced {
            PER_LAYER.iter().map(|&(name, unit, _)| (name, value(name), unit)).collect()
        } else {
            END_TO_END.iter().map(|&(name, unit, _, _)| (name, value(name), unit)).collect()
        }
    }

    /// The one-line result object the driver reads.
    pub fn result_line(&self, traced: bool) -> String {
        let metrics: Vec<String> = self
            .table(traced)
            .into_iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", number(value))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A float as JSON, with all its digits; non-finite values become 0.
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for name in END_TO_END.iter().map(|m| m.0).chain(PER_LAYER.iter().map(|m| m.0)) {
            assert!(seen.insert(name), "{name} is listed twice");
            assert!(name.len() <= 64, "{name}");
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
        }
    }

    #[test]
    fn result_line_is_the_contract_shape() {
        let mut outcome = Outcome { attempted: 12, ..Outcome::default() };
        outcome.set("info_mbps", 1.25);
        let line = outcome.result_line(false);
        let doc = json::parse(&line).unwrap();
        assert_eq!(doc.get("correct"), Some(&json::Value::Bool(true)));
        assert_eq!(doc.get("attempted").unwrap().as_f64(), Some(12.0));
        let metrics = doc.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics["info_mbps"].get("value").unwrap().as_f64(), Some(1.25));
        assert_eq!(metrics["info_mbps"].get("unit").unwrap().as_str(), Some("Mbit/s"));
        let traced = json::parse(&outcome.result_line(true)).unwrap();
        assert_eq!(traced.get("metrics").unwrap().as_object().unwrap().len(), PER_LAYER.len());
    }

    #[test]
    fn benchmark_json_matches_the_tables() {
        // Reading the manifest next to the crate is fine in a test; the
        // binary itself never bakes in a build-time path.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        let e2e = doc.get("end_to_end").unwrap().as_array().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, &(name, unit, better, bound)) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(entry.get("name").unwrap().as_str(), Some(name));
            assert_eq!(entry.get("unit").unwrap().as_str(), Some(unit), "{name}");
            assert_eq!(entry.get("better").unwrap().as_str(), Some(better), "{name}");
            assert_eq!(entry.get("bound").unwrap().as_f64(), Some(bound), "{name}");
        }
        let layers = doc.get("per_layer").unwrap().as_array().unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, &(name, unit, better)) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(entry.get("name").unwrap().as_str(), Some(name));
            assert_eq!(entry.get("unit").unwrap().as_str(), Some(unit), "{name}");
            assert_eq!(entry.get("better").unwrap().as_str(), Some(better), "{name}");
        }
    }
}
