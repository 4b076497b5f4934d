//! Golden-vector regression: the SoA message-engine decoders must be
//! *behaviorally identical* to the original scalar implementations — same
//! hard decisions AND same iteration counts on every frame.
//!
//! The references below are the pre-refactor `FloodingDecoder` and
//! `ZigzagDecoder` embedded verbatim (modulo renaming and the public-API
//! surface they run against). They intentionally keep the original
//! associativity — `channel + edges.map(c2v).sum::<f64>()`, scratch-copy
//! check updates, forward/backward parity arrays — so any rounding drift in
//! the refactored engines shows up as a bit-level mismatch here.
//!
//! `SeedQuantizedZigzag` does the same for the fixed-point decoder: it is
//! the sequential quantized sweep `QuantizedZigzagDecoder::new` ran before
//! that constructor became the 1-lane instance of the fused plan.

// Verbatim seed code: lint style kept as shipped.
#![allow(clippy::needless_range_loop)]

use dvbs2_decoder::test_support::{noisy_llrs, small_code};
use dvbs2_decoder::{
    hard_decisions, hard_decisions_int, syndrome_ok, CheckRule, DecodeResult, Decoder,
    DecoderConfig, FloodingDecoder, QCheckArithmetic, QuantizedZigzagDecoder, Quantizer,
    TileSchedule, TiledBatchDecoder, ZigzagDecoder,
};
use dvbs2_ldpc::TannerGraph;
use std::sync::Arc;

/// The seed repository's flooding decoder, embedded as a reference.
struct SeedFlooding {
    graph: Arc<TannerGraph>,
    config: DecoderConfig,
    v2c: Vec<f64>,
    c2v: Vec<f64>,
    totals: Vec<f64>,
    scratch_in: Vec<f64>,
    scratch_out: Vec<f64>,
}

impl SeedFlooding {
    fn new(graph: Arc<TannerGraph>, config: DecoderConfig) -> Self {
        let edges = graph.edge_count();
        let vars = graph.var_count();
        let max_degree = (0..graph.check_count()).map(|c| graph.check_degree(c)).max().unwrap_or(0);
        SeedFlooding {
            graph,
            config,
            v2c: vec![0.0; edges],
            c2v: vec![0.0; edges],
            totals: vec![0.0; vars],
            scratch_in: vec![0.0; max_degree],
            scratch_out: vec![0.0; max_degree],
        }
    }

    fn decode(&mut self, channel_llrs: &[f64]) -> DecodeResult {
        let graph = Arc::clone(&self.graph);
        self.c2v.fill(0.0);
        let mut iterations = 0;
        let mut converged = false;

        for _ in 0..self.config.max_iterations {
            iterations += 1;
            for v in 0..graph.var_count() {
                let edges = graph.var_edges(v);
                let total: f64 =
                    channel_llrs[v] + edges.iter().map(|&e| self.c2v[e as usize]).sum::<f64>();
                self.totals[v] = total;
                for &e in edges {
                    self.v2c[e as usize] = total - self.c2v[e as usize];
                }
            }
            for c in 0..graph.check_count() {
                let range = graph.check_edges(c);
                let d = range.len();
                for (i, e) in range.clone().enumerate() {
                    self.scratch_in[i] = self.v2c[e];
                }
                self.config.rule.extrinsic(&self.scratch_in[..d], &mut self.scratch_out[..d]);
                for (i, e) in range.enumerate() {
                    self.c2v[e] = self.scratch_out[i];
                }
            }
            if self.config.early_stop {
                for v in 0..graph.var_count() {
                    self.totals[v] = channel_llrs[v]
                        + graph.var_edges(v).iter().map(|&e| self.c2v[e as usize]).sum::<f64>();
                }
                if syndrome_ok(&graph, &hard_decisions(&self.totals)) {
                    converged = true;
                    break;
                }
            }
        }
        if !self.config.early_stop || !converged {
            for v in 0..graph.var_count() {
                self.totals[v] = channel_llrs[v]
                    + graph.var_edges(v).iter().map(|&e| self.c2v[e as usize]).sum::<f64>();
            }
            converged = syndrome_ok(&graph, &hard_decisions(&self.totals));
        }
        DecodeResult { bits: hard_decisions(&self.totals), iterations, converged }
    }
}

/// The seed repository's zigzag decoder, embedded as a reference.
struct SeedZigzag {
    graph: Arc<TannerGraph>,
    config: DecoderConfig,
    v2c: Vec<f64>,
    c2v: Vec<f64>,
    backward: Vec<f64>,
    forward: Vec<f64>,
    totals: Vec<f64>,
    scratch_in: Vec<f64>,
    scratch_out: Vec<f64>,
}

impl SeedZigzag {
    fn new(graph: Arc<TannerGraph>, config: DecoderConfig) -> Self {
        let n_check = graph.check_count();
        let edges = graph.edge_count();
        let max_degree = (0..n_check).map(|c| graph.check_degree(c)).max().unwrap_or(0);
        SeedZigzag {
            graph,
            config,
            v2c: vec![0.0; edges],
            c2v: vec![0.0; edges],
            backward: vec![0.0; n_check],
            forward: vec![0.0; n_check],
            totals: vec![0.0; 0],
            scratch_in: vec![0.0; max_degree],
            scratch_out: vec![0.0; max_degree],
        }
    }

    fn info_degree(&self, c: usize) -> usize {
        self.graph.check_degree(c) - if c == 0 { 1 } else { 2 }
    }

    fn decode(&mut self, channel_llrs: &[f64]) -> DecodeResult {
        let graph = Arc::clone(&self.graph);
        let k = graph.info_len();
        let n_check = graph.check_count();

        self.c2v.fill(0.0);
        self.backward.fill(0.0);
        self.totals = vec![0.0; graph.var_count()];
        let mut iterations = 0;
        let mut converged = false;

        for _ in 0..self.config.max_iterations {
            iterations += 1;

            for v in 0..k {
                let edges = graph.var_edges(v);
                let total: f64 =
                    channel_llrs[v] + edges.iter().map(|&e| self.c2v[e as usize]).sum::<f64>();
                self.totals[v] = total;
                for &e in edges {
                    self.v2c[e as usize] = total - self.c2v[e as usize];
                }
            }

            let mut fwd_prev = 0.0;
            for c in 0..n_check {
                let info_d = self.info_degree(c);
                let range = graph.check_edges(c);
                let start = range.start;
                for i in 0..info_d {
                    self.scratch_in[i] = self.v2c[start + i];
                }
                let mut d = info_d;
                let left_pos = if c > 0 {
                    self.scratch_in[d] = channel_llrs[k + c - 1] + fwd_prev;
                    d += 1;
                    Some(d - 1)
                } else {
                    None
                };
                self.scratch_in[d] =
                    channel_llrs[k + c] + if c + 1 < n_check { self.backward[c] } else { 0.0 };
                let right_pos = d;
                d += 1;

                self.config.rule.extrinsic(&self.scratch_in[..d], &mut self.scratch_out[..d]);

                for i in 0..info_d {
                    self.c2v[start + i] = self.scratch_out[i];
                }
                if let Some(p) = left_pos {
                    self.backward[c - 1] = self.scratch_out[p];
                }
                fwd_prev = self.scratch_out[right_pos];
                self.forward[c] = fwd_prev;
            }

            for v in 0..k {
                self.totals[v] = channel_llrs[v]
                    + graph.var_edges(v).iter().map(|&e| self.c2v[e as usize]).sum::<f64>();
            }
            for j in 0..n_check {
                self.totals[k + j] = channel_llrs[k + j]
                    + self.forward[j]
                    + if j + 1 < n_check { self.backward[j] } else { 0.0 };
            }
            if self.config.early_stop && syndrome_ok(&graph, &hard_decisions(&self.totals)) {
                converged = true;
                break;
            }
        }
        if !converged {
            converged = syndrome_ok(&graph, &hard_decisions(&self.totals));
        }
        DecodeResult { bits: hard_decisions(&self.totals), iterations, converged }
    }
}

/// The sequential quantized zigzag sweep as `QuantizedZigzagDecoder::new`
/// ran it before it moved onto the fused plan, embedded as a reference:
/// edge-indexed planes, per-check scratch copies, one forward value threaded
/// down the whole chain, totals recomputed after every sweep.
struct SeedQuantizedZigzag {
    graph: Arc<TannerGraph>,
    arithmetic: QCheckArithmetic,
    config: DecoderConfig,
    v2c: Vec<i32>,
    c2v: Vec<i32>,
    backward: Vec<i32>,
    forward: Vec<i32>,
    totals: Vec<i32>,
    scratch_in: Vec<i32>,
    scratch_out: Vec<i32>,
}

impl SeedQuantizedZigzag {
    fn new(graph: Arc<TannerGraph>, arithmetic: QCheckArithmetic, config: DecoderConfig) -> Self {
        let n_check = graph.check_count();
        let edges = graph.edge_count();
        let max_degree = (0..n_check).map(|c| graph.check_degree(c)).max().unwrap_or(0);
        SeedQuantizedZigzag {
            arithmetic,
            config,
            v2c: vec![0; edges],
            c2v: vec![0; edges],
            backward: vec![0; n_check],
            forward: vec![0; n_check],
            totals: vec![0; graph.var_count()],
            scratch_in: vec![0; max_degree],
            scratch_out: vec![0; max_degree],
            graph,
        }
    }

    fn decode(&mut self, channel_llrs: &[f64]) -> DecodeResult {
        let graph = Arc::clone(&self.graph);
        let k = graph.info_len();
        let n_check = graph.check_count();
        let q = *self.arithmetic.quantizer();
        let channel: Vec<i32> = channel_llrs.iter().map(|&l| q.quantize(l)).collect();

        self.c2v.fill(0);
        self.backward.fill(0);
        let mut iterations = 0;
        let mut converged = false;

        for _ in 0..self.config.max_iterations {
            iterations += 1;

            for v in 0..k {
                let edges = graph.var_edges(v);
                let total: i32 =
                    channel[v] + edges.iter().map(|&e| self.c2v[e as usize]).sum::<i32>();
                for &e in edges {
                    self.v2c[e as usize] = q.saturate(total - self.c2v[e as usize]);
                }
            }

            let mut fwd_prev = 0i32;
            for c in 0..n_check {
                let range = graph.check_edges(c);
                let info_d = range.len() - if c == 0 { 1 } else { 2 };
                let start = range.start;
                for i in 0..info_d {
                    self.scratch_in[i] = self.v2c[start + i];
                }
                let mut d = info_d;
                let left_pos = if c > 0 {
                    self.scratch_in[d] = q.sat_add(channel[k + c - 1], fwd_prev);
                    d += 1;
                    Some(d - 1)
                } else {
                    None
                };
                self.scratch_in[d] =
                    q.sat_add(channel[k + c], if c + 1 < n_check { self.backward[c] } else { 0 });
                let right_pos = d;
                d += 1;

                self.arithmetic.extrinsic(&self.scratch_in[..d], &mut self.scratch_out[..d]);

                for i in 0..info_d {
                    self.c2v[start + i] = self.scratch_out[i];
                }
                if let Some(p) = left_pos {
                    self.backward[c - 1] = self.scratch_out[p];
                }
                fwd_prev = self.scratch_out[right_pos];
                self.forward[c] = fwd_prev;
            }

            for v in 0..k {
                self.totals[v] = channel[v]
                    + graph.var_edges(v).iter().map(|&e| self.c2v[e as usize]).sum::<i32>();
            }
            for j in 0..n_check {
                self.totals[k + j] = channel[k + j]
                    + self.forward[j]
                    + if j + 1 < n_check { self.backward[j] } else { 0 };
            }
            if self.config.early_stop && syndrome_ok(&graph, &hard_decisions_int(&self.totals)) {
                converged = true;
                break;
            }
        }
        let bits = hard_decisions_int(&self.totals);
        if !converged {
            converged = syndrome_ok(&graph, &bits);
        }
        DecodeResult { bits, iterations, converged }
    }
}

/// Frames spanning the interesting regimes on the N = 16200 rate-1/2 code:
/// clean convergence, slow convergence near threshold, and undecodable.
fn frame_seeds() -> Vec<(f64, u64)> {
    let mut frames = Vec::new();
    for seed in 0..4 {
        frames.push((2.0, 9000 + seed)); // converges in a few iterations
        frames.push((1.0, 9100 + seed)); // near threshold, many iterations
    }
    frames.push((0.2, 9200)); // below threshold: hits the iteration cap
    frames
}

fn assert_matches_seed(config: DecoderConfig) {
    let (code, graph) = small_code();
    assert_eq!(code.params().n, 16200, "regression fixture is the short frame");
    let graph = Arc::new(graph);
    let mut new_flood = FloodingDecoder::new(Arc::clone(&graph), config);
    let mut new_zigzag = ZigzagDecoder::new(Arc::clone(&graph), config);
    let mut seed_flood = SeedFlooding::new(Arc::clone(&graph), config);
    let mut seed_zigzag = SeedZigzag::new(Arc::clone(&graph), config);

    for (ebn0_db, seed) in frame_seeds() {
        let (_, llrs) = noisy_llrs(&code, ebn0_db, seed);
        let f_new = new_flood.decode(&llrs);
        let f_old = seed_flood.decode(&llrs);
        assert_eq!(
            f_new, f_old,
            "flooding diverged from seed at Eb/N0 {ebn0_db} dB, frame seed {seed}"
        );
        let z_new = new_zigzag.decode(&llrs);
        let z_old = seed_zigzag.decode(&llrs);
        assert_eq!(
            z_new, z_old,
            "zigzag diverged from seed at Eb/N0 {ebn0_db} dB, frame seed {seed}"
        );
    }
}

/// The batch entry point against the seed references directly: the whole
/// regression frame set decoded as one batch per schedule must reproduce the
/// seed decoders' results frame for frame.
fn assert_tiled_matches_seed(config: DecoderConfig) {
    let (code, graph) = small_code();
    let graph = Arc::new(graph);
    let frames: Vec<Vec<f64>> =
        frame_seeds().iter().map(|&(db, s)| noisy_llrs(&code, db, s).1).collect();
    let views: Vec<&[f64]> = frames.iter().map(|f| f.as_slice()).collect();
    let mut seed_flood = SeedFlooding::new(Arc::clone(&graph), config);
    let mut seed_zigzag = SeedZigzag::new(Arc::clone(&graph), config);
    for schedule in [TileSchedule::Flooding, TileSchedule::Zigzag] {
        let mut tiled = TiledBatchDecoder::new(Arc::clone(&graph), config, schedule, views.len());
        let got = tiled.decode_batch(&views);
        for (i, llrs) in frames.iter().enumerate() {
            let want = match schedule {
                TileSchedule::Flooding => seed_flood.decode(llrs),
                TileSchedule::Zigzag => seed_zigzag.decode(llrs),
            };
            assert_eq!(got[i], want, "tiled {schedule:?} diverged from seed on frame {i}");
        }
    }
}

#[test]
fn soa_engines_match_seed_sum_product() {
    assert_matches_seed(DecoderConfig::default());
}

#[test]
fn soa_engines_match_seed_min_sum() {
    assert_matches_seed(DecoderConfig::default().with_rule(CheckRule::NormalizedMinSum(0.8)));
}

#[test]
fn soa_engines_match_seed_without_early_stop() {
    // Exercises the fixed-iteration path (the benchmark configuration).
    let config = DecoderConfig::default().with_max_iterations(12).with_early_stop(false);
    assert_matches_seed(config);
}

#[test]
fn tiled_engines_match_seed_min_sum() {
    // f64 keeps the comparison bit-exact against the double-precision seed
    // embeds.
    assert_tiled_matches_seed(DecoderConfig::default().with_rule(CheckRule::NormalizedMinSum(0.8)));
}

#[test]
fn tiled_engines_match_seed_without_early_stop() {
    let config = DecoderConfig::default()
        .with_rule(CheckRule::OffsetMinSum(0.15))
        .with_max_iterations(12)
        .with_early_stop(false);
    assert_tiled_matches_seed(config);
}

#[test]
fn quantized_sequential_matches_seed() {
    // `new`/`with_arithmetic` run the fused plan with one lane in graph
    // order; the embedded sequential sweep is what that must reproduce,
    // full DecodeResult, for every arithmetic and both stopping policies.
    let (code, graph) = small_code();
    let graph = Arc::new(graph);
    let frames: Vec<Vec<f64>> =
        frame_seeds().iter().map(|&(db, s)| noisy_llrs(&code, db, s).1).collect();
    let arithmetics = [
        ("6-bit LUT", QCheckArithmetic::lut(Quantizer::paper_6bit())),
        ("5-bit LUT", QCheckArithmetic::lut(Quantizer::paper_5bit())),
        ("min-sum shift 2", QCheckArithmetic::min_sum_shift(Quantizer::paper_6bit(), 2)),
    ];
    let configs = [
        DecoderConfig::default(),
        DecoderConfig::default().with_max_iterations(12).with_early_stop(false),
    ];
    for (name, arithmetic) in arithmetics {
        for config in configs {
            let mut seed = SeedQuantizedZigzag::new(Arc::clone(&graph), arithmetic.clone(), config);
            let mut new = QuantizedZigzagDecoder::with_arithmetic(
                Arc::clone(&graph),
                arithmetic.clone(),
                config,
            );
            for (i, llrs) in frames.iter().enumerate() {
                let early_stop = config.early_stop;
                assert_eq!(
                    new.decode(llrs),
                    seed.decode(llrs),
                    "{name}, early stop {early_stop}: diverged from seed on frame {i}"
                );
            }
        }
    }
    // `new` is `with_arithmetic` over the LUT rule.
    let config = DecoderConfig::default();
    let mut seed = SeedQuantizedZigzag::new(
        Arc::clone(&graph),
        QCheckArithmetic::lut(Quantizer::paper_6bit()),
        config,
    );
    let mut new = QuantizedZigzagDecoder::new(Arc::clone(&graph), Quantizer::paper_6bit(), config);
    assert_eq!(new.decode(&frames[1]), seed.decode(&frames[1]));
}
