//! The belief-propagation spine shared by the float schedules
//! ([`BpDecoder`]).

use crate::engine::{load_llrs, syndrome_ok_totals, Precision};
use crate::llr_ops::{CheckRule, LlrFloat};
use crate::simd::SimdTier;
use crate::{DecodeResult, Decoder, DecoderConfig};
use dvbs2_ldpc::{BitVec, TannerGraph};
use std::fmt::Debug;
use std::sync::Arc;

/// A belief-propagation decoder over the schedule `S`.
///
/// Flooding (Fig. 2a), the paper's zigzag (Fig. 2b) and the layered
/// extension are one message-passing decoder run in three update orders,
/// named [`FloodingDecoder`], [`ZigzagDecoder`] and [`LayeredDecoder`]. This
/// struct owns everything they share: the message store at the configured
/// precision, the SIMD tier resolved once at construction, the iteration
/// loop with early stop, and the epilogue (final syndrome, hard decisions).
/// A schedule is only the layout it picks at construction and its
/// per-iteration step over the store.
///
/// [`FloodingDecoder`]: crate::FloodingDecoder
/// [`ZigzagDecoder`]: crate::ZigzagDecoder
/// [`LayeredDecoder`]: crate::LayeredDecoder
#[derive(Debug, Clone)]
pub struct BpDecoder<S> {
    graph: Arc<TannerGraph>,
    pub(crate) config: DecoderConfig,
    /// Runtime dispatch tier, resolved once at construction.
    tier: SimdTier,
    pub(crate) schedule: S,
    pub(crate) core: Core,
}

/// The message store at the configured precision: the decoder's one
/// precision dispatch.
#[derive(Debug, Clone)]
pub(crate) enum Core {
    F64(Store<f64>),
    F32(Store<f32>),
}

/// The message store at one precision: the channel, the message planes, the
/// totals and a working buffer. Each layout sizes `v2c`, `c2v` and `next`
/// for what its step reads ([`Schedule::lengths`]).
#[derive(Debug, Clone)]
pub struct Store<F> {
    pub(crate) llr: Vec<F>,
    pub(crate) v2c: Vec<F>,
    pub(crate) c2v: Vec<F>,
    pub(crate) totals: Vec<F>,
    pub(crate) next: Vec<F>,
}

impl<F: LlrFloat> Store<F> {
    fn new(vars: usize, [v2c, c2v, next]: [usize; 3]) -> Self {
        Store {
            llr: vec![F::ZERO; vars],
            v2c: vec![F::ZERO; v2c],
            c2v: vec![F::ZERO; c2v],
            totals: vec![F::ZERO; vars],
            next: vec![F::ZERO; next],
        }
    }

    /// The first iteration's totals from the channel and all-zero messages,
    /// as a scatter of those messages computes them (`-0.0` becomes `+0.0`).
    pub(crate) fn totals_from_channel(&mut self) {
        for (t, &l) in self.totals.iter_mut().zip(&self.llr) {
            *t = l + F::ZERO;
        }
    }
}

/// A schedule of the spine: the layout it picks at construction, with its
/// [`Step`] at both precisions. Sealed: the crate's three schedules are all.
pub trait Schedule: Step<f64> + Step<f32> + Clone + Debug {
    /// Picks the layout for `graph` under `config`.
    ///
    /// # Panics
    ///
    /// Panics on a graph the schedule cannot run.
    fn new(graph: &TannerGraph, config: &DecoderConfig) -> Self;

    /// The lengths of the store's `v2c`, `c2v` and `next` buffers.
    fn lengths(&self, graph: &TannerGraph) -> [usize; 3];

    /// The report name under `rule`.
    fn name(rule: CheckRule) -> &'static str;
}

/// A schedule's per-iteration step at precision `F`, with the hooks around
/// it. The spine loads the channel into `llr` and zeroes `c2v` before
/// [`Step::start`].
pub trait Step<F: LlrFloat> {
    /// Sets the first iteration's totals.
    fn start(&mut self, m: &mut Store<F>) {
        m.totals_from_channel();
    }

    /// One iteration: fresh `c2v` and the totals they imply.
    fn step(&mut self, graph: &TannerGraph, rule: &CheckRule, tier: SimdTier, m: &mut Store<F>);

    /// Whether the totals' hard decisions satisfy every check.
    fn syndrome_ok(&self, graph: &TannerGraph, _tier: SimdTier, m: &Store<F>) -> bool {
        syndrome_ok_totals(graph, &m.totals)
    }

    /// Leaves the totals in natural variable order after the last iteration.
    fn finish(&self, _m: &mut Store<F>) {}
}

impl<S: Schedule> BpDecoder<S> {
    /// Creates a decoder for `graph`.
    ///
    /// # Panics
    ///
    /// Panics if `config.simd` forces a SIMD tier this CPU does not support,
    /// or if the schedule cannot run `graph` (zigzag needs a parity chain:
    /// build the graph with [`TannerGraph::for_code`]).
    pub fn new(graph: Arc<TannerGraph>, config: DecoderConfig) -> Self {
        let schedule = S::new(&graph, &config);
        Self::with_schedule(graph, config, schedule)
    }

    /// A decoder on the layout `schedule` holds, whichever `S::new` would
    /// pick: the exactness tests force the scalar reference this way.
    pub(crate) fn with_schedule(
        graph: Arc<TannerGraph>,
        config: DecoderConfig,
        schedule: S,
    ) -> Self {
        let tier = SimdTier::resolve(config.simd);
        let (vars, lengths) = (graph.var_count(), schedule.lengths(&graph));
        let core = match config.precision {
            Precision::F64 => Core::F64(Store::new(vars, lengths)),
            Precision::F32 => Core::F32(Store::new(vars, lengths)),
        };
        BpDecoder { graph, config, tier, schedule, core }
    }

    /// The decoder configuration.
    pub fn config(&self) -> &DecoderConfig {
        &self.config
    }

    /// The SIMD dispatch tier the steps' kernels run on (the scalar sweeps
    /// have no tier clones and run the same code on every tier).
    pub fn simd_tier(&self) -> SimdTier {
        self.tier
    }
}

impl<S: Schedule> Decoder for BpDecoder<S> {
    fn decode(&mut self, channel_llrs: &[f64]) -> DecodeResult {
        let mut out = DecodeResult::default();
        self.decode_into(channel_llrs, &mut out);
        out
    }

    /// One full decode into `out`. Allocation-free once `out.bits` has the
    /// codeword length (the first call sizes it).
    fn decode_into(&mut self, channel_llrs: &[f64], out: &mut DecodeResult) {
        assert_eq!(channel_llrs.len(), self.graph.var_count(), "LLR length mismatch");
        let (graph, config, tier) = (&*self.graph, &self.config, self.tier);
        match &mut self.core {
            Core::F64(m) => run(&mut self.schedule, graph, config, tier, m, channel_llrs, out),
            Core::F32(m) => run(&mut self.schedule, graph, config, tier, m, channel_llrs, out),
        }
    }

    fn set_max_iterations(&mut self, max_iterations: usize) {
        self.config.max_iterations = max_iterations;
    }

    fn name(&self) -> &'static str {
        S::name(self.config.rule)
    }
}

/// One decode of every schedule: the channel in, the iteration loop with
/// early stop, the hard decisions out.
fn run<F: LlrFloat, S: Step<F>>(
    schedule: &mut S,
    graph: &TannerGraph,
    config: &DecoderConfig,
    tier: SimdTier,
    m: &mut Store<F>,
    channel_llrs: &[f64],
    out: &mut DecodeResult,
) {
    load_llrs(&mut m.llr, channel_llrs);
    m.c2v.fill(F::ZERO);
    schedule.start(m);
    (out.iterations, out.converged) = 'iterate: {
        for iterations in 1..=config.max_iterations {
            schedule.step(graph, &config.rule, tier, m);
            if config.early_stop && schedule.syndrome_ok(graph, tier, m) {
                break 'iterate (iterations, true);
            }
        }
        (config.max_iterations, schedule.syndrome_ok(graph, tier, m))
    };
    schedule.finish(m);
    if out.bits.len() != m.totals.len() {
        out.bits = BitVec::zeros(m.totals.len());
    }
    out.bits.fill_from(&m.totals, F::is_negative);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{llrs_for_codeword, noisy_llrs, small_code, SplitMix64};
    use crate::{FloodingDecoder, LayeredDecoder, ZigzagDecoder};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// One decoder of each schedule under `config`.
    fn schedules(graph: &TannerGraph, config: DecoderConfig) -> [Box<dyn Decoder>; 3] {
        let graph = Arc::new(graph.clone());
        [
            Box::new(FloodingDecoder::new(Arc::clone(&graph), config)),
            Box::new(ZigzagDecoder::new(Arc::clone(&graph), config)),
            Box::new(LayeredDecoder::new(graph, config)),
        ]
    }

    #[test]
    fn noiseless_codeword_converges_immediately() {
        let (code, graph) = small_code();
        let enc = code.encoder().unwrap();
        for seed in [1, 2] {
            let mut rng = SplitMix64(seed);
            let msg: BitVec = (0..code.params().k).map(|_| rng.next_bool()).collect();
            let cw = enc.encode(&msg).unwrap();
            let llrs = llrs_for_codeword(&cw, 5.0);
            for mut dec in schedules(&graph, DecoderConfig::default()) {
                let out = dec.decode(&llrs);
                assert!(out.converged, "{} seed {seed}", dec.name());
                assert_eq!(out.iterations, 1, "{} seed {seed}", dec.name());
                assert_eq!(out.bits, cw, "{} seed {seed}", dec.name());
            }
        }
    }

    #[test]
    fn f32_fast_path_decodes_the_same_frames() {
        let (code, graph) = small_code();
        let f32_config = DecoderConfig::default().with_precision(Precision::F32);
        let mut decoders = schedules(&graph, DecoderConfig::default());
        let mut fast = schedules(&graph, f32_config);
        for seed in [19].into_iter().chain(300..304).chain(700..704) {
            let (cw, llrs) = noisy_llrs(&code, 3.2, seed);
            for (reference, fast) in decoders.iter_mut().zip(&mut fast) {
                for dec in [reference, fast] {
                    let out = dec.decode(&llrs);
                    assert!(out.converged, "{} seed {seed}", dec.name());
                    assert_eq!(out.bits, cw, "{} seed {seed}", dec.name());
                }
            }
        }
    }

    #[test]
    fn without_early_stop_runs_all_iterations() {
        let (code, graph) = small_code();
        let (_, llrs) = noisy_llrs(&code, 5.0, 7);
        let config = DecoderConfig::default().with_max_iterations(10).with_early_stop(false);
        for mut dec in schedules(&graph, config) {
            let out = dec.decode(&llrs);
            assert_eq!(out.iterations, 10, "{}", dec.name());
            assert!(out.converged, "{}: frame should be clean after 10 iterations", dec.name());
        }
    }

    /// `config.simd` reaches every schedule (`SimdTier::resolve` panics on a
    /// tier the CPU lacks: `tests/tiled.rs`).
    #[test]
    fn every_schedule_runs_on_the_configured_tier() {
        let graph = Arc::new(small_code().1);
        for tier in SimdTier::available() {
            let config = DecoderConfig::default().with_simd_tier(Some(tier));
            assert_eq!(FloodingDecoder::new(Arc::clone(&graph), config).simd_tier(), tier);
            assert_eq!(ZigzagDecoder::new(Arc::clone(&graph), config).simd_tier(), tier);
            assert_eq!(LayeredDecoder::new(Arc::clone(&graph), config).simd_tier(), tier);
        }
    }

    /// The report names and the configuration every schedule answers with.
    #[test]
    fn every_schedule_keeps_its_names_and_config() {
        let graph = small_code().1;
        let rules = [
            (CheckRule::SumProduct, "sum-product"),
            (CheckRule::TableSumProduct, "table sum-product"),
            (CheckRule::NormalizedMinSum(0.8), "normalized min-sum"),
            (CheckRule::OffsetMinSum(0.15), "offset min-sum"),
        ];
        for (rule, suffix) in rules {
            let config = DecoderConfig::default().with_rule(rule).with_max_iterations(12);
            let names =
                [format!("flooding {suffix}"), format!("zigzag {suffix}"), "layered".into()];
            for (dec, name) in schedules(&graph, config).iter().zip(names) {
                assert_eq!(dec.name(), name);
            }
            let graph = Arc::new(graph.clone());
            assert_eq!(FloodingDecoder::new(Arc::clone(&graph), config).config(), &config);
            assert_eq!(ZigzagDecoder::new(Arc::clone(&graph), config).config(), &config);
            assert_eq!(LayeredDecoder::new(graph, config).config(), &config);
        }
    }

    /// Each layout's store holds the buffers its step reads, and no more.
    #[test]
    fn every_layout_sizes_the_store_for_its_step() {
        let graph = Arc::new(small_code().1);
        let (vars, edges) = (graph.var_count(), graph.edge_count());
        let lengths = |core: &Core| match core {
            Core::F64(m) => [&m.llr, &m.v2c, &m.c2v, &m.totals, &m.next].map(Vec::len),
            Core::F32(m) => [&m.llr, &m.v2c, &m.c2v, &m.totals, &m.next].map(Vec::len),
        };
        // On the rotation planes (min-sum, and sum-product at f32): one row
        // of 360 checks in `v2c`, and check 0's missing left edge keeps its
        // slot in `c2v`. Under zigzag `next` holds the information folds
        // during an iteration. No edge-sized plane beside `c2v`.
        let rows = graph.check_count() / 360;
        let row = (edges + 1) / rows;
        let min_sum = DecoderConfig::default().with_rule(CheckRule::NormalizedMinSum(0.8));
        let sum_product = DecoderConfig::default().with_precision(Precision::F32);
        for config in [min_sum, min_sum.with_precision(Precision::F32), sum_product] {
            let flooding = FloodingDecoder::new(Arc::clone(&graph), config);
            let zigzag = ZigzagDecoder::new(Arc::clone(&graph), config);
            for core in [&flooding.core, &zigzag.core] {
                assert_eq!(lengths(core), [vars, row, edges + 1, vars, vars], "{config:?}");
            }
        }
        // The scalar pass and sweep: both edge planes.
        let table = DecoderConfig::default().with_rule(CheckRule::TableSumProduct);
        let scalar = [DecoderConfig::default(), table, table.with_precision(Precision::F32)];
        for config in scalar {
            let flooding = FloodingDecoder::new(Arc::clone(&graph), config);
            let zigzag = ZigzagDecoder::new(Arc::clone(&graph), config);
            for core in [&flooding.core, &zigzag.core] {
                assert_eq!(lengths(core), [vars, edges, edges, vars, vars], "{config:?}");
            }
        }
        for precision in [Precision::F64, Precision::F32] {
            let config = DecoderConfig::default().with_precision(precision);
            let layered = LayeredDecoder::new(Arc::clone(&graph), config);
            let scratch = 2 * graph.max_check_degree();
            assert_eq!(lengths(&layered.core), [vars, scratch, edges, vars, 0], "{precision:?}");
        }
    }

    #[test]
    fn wrong_llr_length_panics() {
        let (_, graph) = small_code();
        for mut dec in schedules(&graph, DecoderConfig::default()) {
            let name = dec.name();
            let panic = catch_unwind(AssertUnwindSafe(|| dec.decode(&[0.0; 3]))).unwrap_err();
            let message = panic.downcast_ref::<String>().map_or("", |s| s.as_str());
            assert!(message.contains("LLR length mismatch"), "{name}: {message}");
        }
    }
}
