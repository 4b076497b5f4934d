//! The belief-propagation spine shared by the float schedules
//! ([`BpDecoder`]).

use crate::engine::{load_llrs, syndrome_ok_totals, Precision};
use crate::llr_ops::{CheckRule, LlrFloat};
use crate::rotation::{rotation_syndrome_tier, RotationPlanes};
use crate::simd::SimdTier;
use crate::{DecodeResult, Decoder, DecoderConfig};
use dvbs2_ldpc::{BitVec, TannerGraph};
use std::fmt::Debug;
use std::sync::Arc;

/// A belief-propagation decoder over the schedule `S`.
///
/// Flooding (Fig. 2a) and the paper's zigzag (Fig. 2b) are one
/// message-passing decoder run in two update orders, named
/// [`FloodingDecoder`] and [`ZigzagDecoder`]. This struct owns everything
/// they share: the layout the messages live in, chosen once at
/// construction, the message store at the configured precision, the SIMD
/// tier resolved once at construction, the iteration loop with early stop,
/// and the epilogue (final syndrome, hard decisions). A schedule is only its
/// per-iteration step on each layout.
///
/// [`FloodingDecoder`]: crate::FloodingDecoder
/// [`ZigzagDecoder`]: crate::ZigzagDecoder
#[derive(Debug, Clone)]
pub struct BpDecoder<S> {
    graph: Arc<TannerGraph>,
    pub(crate) config: DecoderConfig,
    /// Runtime dispatch tier, resolved once at construction.
    tier: SimdTier,
    pub(crate) layout: Layout,
    pub(crate) schedule: S,
    pub(crate) core: Core,
}

/// Where the messages live: one of two layouts, chosen from the graph, the
/// rule and the precision by [`RotationPlanes::for_config`], and the only
/// path for the decoders it serves.
#[derive(Debug, Clone)]
pub(crate) enum Layout {
    /// The min-sum rules and `f32` exact sum-product on a DVB-S2 graph:
    /// check `c = u·q + r` is lane `u` of residue row `r`, as in the paper's
    /// 360 functional units, so every pass reads and writes dense rotated
    /// slices with no index planes (DESIGN.md §7.10). The parity halves of
    /// `llr` and `totals` are transposed between [`Layout::start`] and
    /// [`Layout::finish`].
    Planes(RotationPlanes),
    /// Everything else (`f64` sum-product, the reference the regression
    /// suite pins, the table rule, and every rule on a graph without the
    /// DVB-S2 structure): one message per edge, check by check on each
    /// check's contiguous edge range, with no index planes beyond the
    /// graph's own.
    Edges,
}

impl Layout {
    /// The lengths of the store's `v2c`, `c2v` and `next` buffers: on the
    /// rotation planes `v2c` is one row.
    fn lengths(&self, graph: &TannerGraph) -> [usize; 3] {
        match self {
            Layout::Planes(planes) => planes.lengths(graph),
            Layout::Edges => [graph.edge_count(), graph.edge_count(), graph.var_count()],
        }
    }

    /// Sets the first iteration's totals from the loaded channel.
    fn start<F: LlrFloat>(&self, m: &mut Store<F>) {
        match self {
            Layout::Planes(planes) => planes.start(m),
            Layout::Edges => m.totals_from_channel(),
        }
    }

    /// Whether the totals' hard decisions satisfy every check.
    fn syndrome_ok<F: LlrFloat>(&self, graph: &TannerGraph, tier: SimdTier, m: &Store<F>) -> bool {
        match self {
            Layout::Planes(planes) => rotation_syndrome_tier(tier, planes, &m.totals),
            Layout::Edges => syndrome_ok_totals(graph, &m.totals),
        }
    }

    /// Leaves the totals in natural variable order after the last iteration.
    fn finish<F: LlrFloat>(&self, m: &mut Store<F>) {
        if let Layout::Planes(planes) = self {
            planes.finish(m);
        }
    }
}

/// The message store at the configured precision: the decoder's one
/// precision dispatch.
#[derive(Debug, Clone)]
pub(crate) enum Core {
    F64(Store<f64>),
    F32(Store<f32>),
}

/// The message store at one precision: the channel, the message planes, the
/// totals and a working buffer, sized for the decoder's layout.
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

/// A schedule of the spine: its per-iteration step on each [`Layout`], at
/// either precision, and its name. Sealed: the crate's two schedules are
/// all.
pub trait Schedule: Clone + Debug {
    /// The schedule for `graph`.
    ///
    /// # Panics
    ///
    /// Panics on a graph the schedule cannot run.
    fn new(graph: &TannerGraph) -> Self;

    /// The report name under `rule`.
    fn name(rule: CheckRule) -> &'static str;

    /// Called once per decode, before the first step.
    fn start(&mut self) {}

    /// One iteration on the rotation planes.
    fn planes_step<F: LlrFloat>(
        &mut self,
        planes: &RotationPlanes,
        rule: &CheckRule,
        tier: SimdTier,
        m: &mut Store<F>,
    );

    /// One iteration on the edge planes.
    fn edges_step<F: LlrFloat>(&mut self, graph: &TannerGraph, rule: &CheckRule, m: &mut Store<F>);
}

impl<S: Schedule> BpDecoder<S> {
    /// Creates a decoder for `graph`, on the layout its graph, rule and
    /// precision select: the rotation planes for the min-sum rules and `f32`
    /// sum-product on a DVB-S2 graph, the edge planes otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `config.simd` forces a SIMD tier this CPU does not support,
    /// or if the schedule cannot run `graph` (zigzag needs a parity chain:
    /// build the graph with [`TannerGraph::for_code`]).
    pub fn new(graph: Arc<TannerGraph>, config: DecoderConfig) -> Self {
        let layout =
            RotationPlanes::for_config(&graph, &config).map_or(Layout::Edges, Layout::Planes);
        Self::on_layout(graph, config, layout)
    }

    fn on_layout(graph: Arc<TannerGraph>, config: DecoderConfig, layout: Layout) -> Self {
        let schedule = S::new(&graph);
        let tier = SimdTier::resolve(config.simd);
        let (vars, lengths) = (graph.var_count(), layout.lengths(&graph));
        let core = match config.precision {
            Precision::F64 => Core::F64(Store::new(vars, lengths)),
            Precision::F32 => Core::F32(Store::new(vars, lengths)),
        };
        BpDecoder { graph, config, tier, layout, schedule, core }
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
        let (schedule, layout) = (&mut self.schedule, &self.layout);
        let (graph, config, tier) = (&*self.graph, &self.config, self.tier);
        match &mut self.core {
            Core::F64(m) => run(schedule, layout, graph, config, tier, m, channel_llrs, out),
            Core::F32(m) => run(schedule, layout, graph, config, tier, m, channel_llrs, out),
        }
    }

    fn set_max_iterations(&mut self, max_iterations: usize) {
        self.config.max_iterations = max_iterations;
    }

    fn name(&self) -> &'static str {
        S::name(self.config.rule)
    }
}

/// One decode of every schedule on every layout: the channel in, the
/// iteration loop with early stop, the hard decisions out.
#[allow(clippy::too_many_arguments)]
fn run<F: LlrFloat, S: Schedule>(
    schedule: &mut S,
    layout: &Layout,
    graph: &TannerGraph,
    config: &DecoderConfig,
    tier: SimdTier,
    m: &mut Store<F>,
    channel_llrs: &[f64],
    out: &mut DecodeResult,
) {
    load_llrs(&mut m.llr, channel_llrs);
    m.c2v.fill(F::ZERO);
    schedule.start();
    layout.start(m);
    (out.iterations, out.converged) = 'iterate: {
        for iterations in 1..=config.max_iterations {
            match layout {
                Layout::Planes(planes) => schedule.planes_step(planes, &config.rule, tier, m),
                Layout::Edges => schedule.edges_step(graph, &config.rule, m),
            }
            if config.early_stop && layout.syndrome_ok(graph, tier, m) {
                break 'iterate (iterations, true);
            }
        }
        (config.max_iterations, layout.syndrome_ok(graph, tier, m))
    };
    layout.finish(m);
    if out.bits.len() != m.totals.len() {
        out.bits = BitVec::zeros(m.totals.len());
    }
    out.bits.fill_from(&m.totals, F::is_negative);
}

#[cfg(test)]
impl<S: Schedule> BpDecoder<S> {
    /// A decoder on the edge planes, whichever layout [`BpDecoder::new`]
    /// would pick: the exactness tests force the scalar reference this way.
    pub(crate) fn on_edges(graph: Arc<TannerGraph>, config: DecoderConfig) -> Self {
        Self::on_layout(graph, config, Layout::Edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{llrs_for_codeword, noisy_llrs, small_code, SplitMix64};
    use crate::{FloodingDecoder, ZigzagDecoder};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// One decoder of each schedule under `config`.
    fn schedules(graph: &TannerGraph, config: DecoderConfig) -> [Box<dyn Decoder>; 2] {
        let graph = Arc::new(graph.clone());
        [
            Box::new(FloodingDecoder::new(Arc::clone(&graph), config)),
            Box::new(ZigzagDecoder::new(graph, config)),
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
            let names = [format!("flooding {suffix}"), format!("zigzag {suffix}")];
            for (dec, name) in schedules(&graph, config).iter().zip(names) {
                assert_eq!(dec.name(), name);
            }
            let graph = Arc::new(graph.clone());
            assert_eq!(FloodingDecoder::new(Arc::clone(&graph), config).config(), &config);
            assert_eq!(ZigzagDecoder::new(graph, config).config(), &config);
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
