//! The rotation planes of a DVB-S2 graph (DESIGN.md §7.10): the paper's 360
//! functional units as float lanes. Check `c = u·q + r` is lane `u` of
//! residue row `r`, so every pass reads and writes dense rotated slices
//! with no index planes. The flooding and the zigzag steps run on the one
//! layout, under min-sum and `f32` exact sum-product alike; this module
//! holds what they share — the layout choice the spine makes, the plan
//! (read from the graph's quasi-cyclic record), the transposition in and
//! out of the store, the information gather, the variable-node pass and
//! the syndrome test.

use crate::bp::Store;
use crate::engine::{tier_clones, Precision, RowKernel};
use crate::llr_ops::{CheckRule, LlrFloat};
use crate::qsimd::RotEntry;
use crate::simd::SimdTier;
use crate::DecoderConfig;
use dvbs2_ldpc::{TannerGraph, PARALLELISM as LANES};
use std::ops::Range;

/// The rotation planes of a DVB-S2 graph: row `r` is `stride = info_d + 2`
/// columns of 360 lanes back to back in `c2v`, the information columns,
/// then the left and the right parity column. Parity totals and channel
/// values are transposed to `[k + r·360 + u]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RotationPlanes {
    pub(crate) k: usize,
    pub(crate) q: usize,
    pub(crate) stride: usize,
    /// Information column `i` of row `r` at `info[r·info_d + i]`.
    info: Vec<RotEntry>,
    /// Runs of information variables that meet their checks in one order
    /// on every lane, each with its range of `terms`: the `c2v` offsets of
    /// its first variable's messages, in ascending check order.
    segments: Vec<(Range<usize>, Range<usize>)>,
    terms: Vec<usize>,
}

impl RotationPlanes {
    /// The spine's one layout choice ([`crate::bp`]): the planes of `graph`
    /// when its rule runs there and the graph has the structure, `None` for
    /// the scalar pass or sweep. The planes run the min-sum rules at both
    /// precisions and exact sum-product at `f32`; `f64` sum-product is the
    /// reference the regression suite pins, and the table rule runs the
    /// scalar kernel.
    pub(crate) fn for_config(graph: &TannerGraph, config: &DecoderConfig) -> Option<Self> {
        let on_planes = match config.rule {
            CheckRule::NormalizedMinSum(_) | CheckRule::OffsetMinSum(_) => true,
            CheckRule::SumProduct => config.precision == Precision::F32,
            CheckRule::TableSumProduct => false,
        };
        on_planes.then(|| Self::build(graph)).flatten()
    }

    /// The planes of `graph`, read from its quasi-cyclic record, or `None`
    /// without one or with fewer than two information inputs per check (so
    /// check 0 has degree >= 3, the row kernels' domain). Column `i` of row
    /// `r` is the row's `i`-th input in lane 0's ascending-variable order —
    /// the scalar pass's order at check `r` — rotated along the row.
    pub(crate) fn build(graph: &TannerGraph) -> Option<Self> {
        let record = graph.quasi_cyclic()?;
        let (q, info_d) = (record.rows(), record.row_len());
        if info_d < 2 {
            return None;
        }
        let stride = info_d + 2;
        let mut info = Vec::with_capacity(q * info_d);
        let mut row = Vec::with_capacity(info_d);
        for r in 0..q {
            row.clear();
            row.extend_from_slice(record.row(r));
            row.sort_unstable_by_key(|input| input.var(0));
            let base = |i: usize| (r * stride + i) * LANES;
            info.extend(
                row.iter().enumerate().map(|(i, input)| RotEntry::of_input(base(i), input)),
            );
        }
        Some(Self::from_columns(graph.info_len(), q, stride, info))
    }

    /// The planes over the information columns `info` (row-major, bases at
    /// 360 lanes): the segments and terms of the variable-node pass are cut
    /// from the columns' offsets, one step per column.
    pub(crate) fn from_columns(k: usize, q: usize, stride: usize, info: Vec<RotEntry>) -> Self {
        let info_d = stride - 2;
        let mut by_block = vec![Vec::new(); k / LANES];
        for (j, column) in info.iter().enumerate() {
            let (block, off) = column.block_and_off(LANES);
            by_block[block / LANES].push((j / info_d, column.base as usize, off));
        }
        let (mut segments, mut terms) = (Vec::new(), Vec::with_capacity(info.len() * 2));
        let (mut cuts, mut run) = (Vec::new(), Vec::new());
        for (b, columns) in by_block.iter().enumerate() {
            // Variable `w` of the block is lane `(w − off) mod 360` of a
            // column: between two offsets no lane wraps, so every lane's
            // checks keep the order they have at the segment's start.
            cuts.clear();
            cuts.extend(columns.iter().map(|c| c.2).chain([0, LANES]));
            cuts.sort_unstable();
            cuts.dedup();
            for cut in cuts.windows(2) {
                run.clear();
                run.extend(columns.iter().map(|&(r, base, off)| {
                    let u = (cut[0] + LANES - off) % LANES;
                    (u * q + r, base + u)
                }));
                run.sort_unstable();
                let first = terms.len();
                terms.extend(run.iter().map(|&(_, at)| at));
                segments.push((b * LANES + cut[0]..b * LANES + cut[1], first..terms.len()));
            }
        }
        RotationPlanes { k, q, stride, info, segments, terms }
    }

    /// The store's `v2c`, `c2v` and `next` lengths on the planes: one row
    /// of scratch, the `q` rows, and a working buffer of the codeword's
    /// length for the transpositions.
    pub(crate) fn lengths(&self, graph: &TannerGraph) -> [usize; 3] {
        let row = self.stride * LANES;
        [row, self.q * row, graph.var_count()]
    }

    /// The information columns of row `r`.
    #[inline(always)]
    pub(crate) fn info_columns(&self, r: usize) -> &[RotEntry] {
        let info_d = self.stride - 2;
        &self.info[r * info_d..][..info_d]
    }

    /// Moves the parity channel into the planes' order and sets the first
    /// iteration's totals.
    pub(crate) fn start<F: LlrFloat>(&self, m: &mut Store<F>) {
        self.reorder(&m.llr, &mut m.next, true);
        std::mem::swap(&mut m.llr, &mut m.next);
        m.totals_from_channel();
    }

    /// Moves the parity totals back to natural variable order.
    pub(crate) fn finish<F: LlrFloat>(&self, m: &mut Store<F>) {
        self.reorder(&m.totals, &mut m.next, false);
        std::mem::swap(&mut m.totals, &mut m.next);
    }

    /// Copies `from` into `to` with the parity half moved from natural
    /// order into the planes' transposed one (`into_planes`) or back.
    fn reorder<F: Copy>(&self, from: &[F], to: &mut [F], into_planes: bool) {
        let k = self.k;
        to[..k].copy_from_slice(&from[..k]);
        for r in 0..self.q {
            for u in 0..LANES {
                let (natural, plane) = (k + u * self.q + r, k + r * LANES + u);
                if into_planes {
                    to[plane] = from[natural];
                } else {
                    to[natural] = from[plane];
                }
            }
        }
    }
}

/// Evaluates `$body` with `$kernel` bound to the [`RowKernel`] of `$rule`
/// at precision `$f`: exact sum-product, or the two minima under the
/// min-sum rule's magnitude correction (`mag·α` normalized,
/// `max(mag − β, 0)` offset). Each rule monomorphizes its own pass.
///
/// [`RowKernel`]: crate::engine::RowKernel
macro_rules! row_kernel {
    ($rule:expr, $f:ty, |$kernel:ident| $body:expr) => {
        match *$rule {
            $crate::CheckRule::SumProduct => {
                let $kernel = $crate::engine::sum_product_lanes::<$f>();
                $body
            }
            $crate::CheckRule::NormalizedMinSum(alpha) => {
                let alpha = <$f as $crate::LlrFloat>::from_f64(alpha);
                let $kernel = $crate::engine::MinSumLanes::new(move |mag: $f| mag * alpha);
                $body
            }
            $crate::CheckRule::OffsetMinSum(beta) => {
                let beta = <$f as $crate::LlrFloat>::from_f64(beta);
                let $kernel = $crate::engine::MinSumLanes::new(move |mag: $f| {
                    (mag - beta).max(<$f as $crate::LlrFloat>::ZERO)
                });
                $body
            }
            $crate::CheckRule::TableSumProduct => {
                unreachable!("the table rule runs on the scalar pass")
            }
        }
    };
}
pub(crate) use row_kernel;

/// The block of information totals `column` reads, rotated: lanes
/// `0..360 − off` read the first piece, the rest the second.
#[inline(always)]
fn rotated<'a, F>(info: &'a [F], column: &RotEntry) -> (&'a [F], &'a [F]) {
    let (block, off) = column.block_and_off(LANES);
    (&info[block + off..block + LANES], &info[block..block + off])
}

/// `out = a − b`, lane by lane.
#[inline(always)]
pub(crate) fn subtract<F: LlrFloat>(out: &mut [F], a: &[F], b: &[F]) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x - y;
    }
}

/// `out = a + b`, lane by lane.
#[inline(always)]
pub(crate) fn add<F: LlrFloat>(out: &mut [F], a: &[F], b: &[F]) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x + y;
    }
}

/// Gathers the information columns of row `r` into the one-row `v2c`
/// (`totals − c2v`, column `j` at `[j·360..]`) and folds each into `kernel`.
#[inline(always)]
pub(crate) fn fold_info_columns<F: LlrFloat>(
    planes: &RotationPlanes,
    r: usize,
    info: &[F],
    v2c: &mut [F],
    c2v_row: &[F],
    kernel: &mut impl RowKernel<F>,
) {
    for (j, column) in planes.info_columns(r).iter().enumerate() {
        let (inputs, old) = (&mut v2c[j * LANES..][..LANES], &c2v_row[j * LANES..][..LANES]);
        let (head, tail) = rotated(info, column);
        let (lo, hi) = inputs.split_at_mut(head.len());
        subtract(lo, head, &old[..head.len()]);
        subtract(hi, tail, &old[head.len()..]);
        kernel.fold(j, inputs);
    }
}

/// Variable-node half-iteration over the rotation planes. Information
/// totals in the scalar passes' order `llr + (((0 + m_c1) + m_c2) + …)`
/// over checks `c1 < c2 < …`, by segment. Parity `K + c` is
/// `parity(llr, R, Some(L))`: its right message from check `c`, its left
/// one from `c + 1` (row 0 one lane up after row `q − 1`), and `None` for
/// the last parity bit, which has no left message. Each schedule passes
/// its scalar reference's association.
#[inline(always)]
pub(crate) fn rotation_vn_pass<F: LlrFloat>(
    planes: &RotationPlanes,
    llr: &[F],
    c2v: &[F],
    totals: &mut [F],
    parity: impl Fn(F, F, Option<F>) -> F,
) {
    let k = planes.k;
    let (info, parity_totals) = totals.split_at_mut(k);
    for (vars, terms) in &planes.segments {
        let t = &mut info[vars.clone()];
        t.fill(F::ZERO);
        for &at in &planes.terms[terms.clone()] {
            for (t, &m) in t.iter_mut().zip(&c2v[at..]) {
                *t += m;
            }
        }
        for (t, &l) in t.iter_mut().zip(&llr[vars.clone()]) {
            *t = l + *t;
        }
    }
    let (q, d) = (planes.q, planes.stride);
    let column = |r: usize, j: usize| &c2v[(r * d + j) * LANES..][..LANES];
    let rows = parity_totals.chunks_exact_mut(LANES).zip(llr[k..].chunks_exact(LANES));
    for (r, (t, l)) in rows.enumerate() {
        let right = column(r, d - 1);
        let left = if r + 1 < q { column(r + 1, d - 2) } else { &column(0, d - 2)[1..] };
        for (((t, &l), &m_right), &m_left) in t.iter_mut().zip(l).zip(right).zip(left) {
            *t = parity(l, m_right, Some(m_left));
        }
        if r + 1 == q {
            t[LANES - 1] = parity(l[LANES - 1], right[LANES - 1], None);
        }
    }
}

/// `syndrome_ok_totals` on the rotation planes: per row, the XOR of the
/// decisions (`x < 0`) of its information slices and of its own and its
/// left neighbour's parity rows, one OR-reduce, out at the first failure.
#[inline(always)]
fn rotation_syndrome<F: LlrFloat>(planes: &RotationPlanes, totals: &[F]) -> bool {
    let q = planes.q;
    let (info, parity) = totals.split_at(planes.k);
    let parity_row = |r: usize| &parity[r * LANES..][..LANES];
    let flip = |acc: &mut [u32], xs: &[F]| {
        for (a, &x) in acc.iter_mut().zip(xs) {
            *a ^= x.is_negative() as u32;
        }
    };
    let mut syn = [0u32; LANES];
    for r in 0..q {
        syn.fill(0);
        flip(&mut syn, parity_row(r));
        if r > 0 {
            flip(&mut syn, parity_row(r - 1));
        } else {
            flip(&mut syn[1..], parity_row(q - 1));
        }
        for column in planes.info_columns(r) {
            let (head, tail) = rotated(info, column);
            flip(&mut syn[..head.len()], head);
            flip(&mut syn[head.len()..], tail);
        }
        if syn.iter().fold(0, |any, &s| any | s) != 0 {
            return false;
        }
    }
    true
}

tier_clones!(
    /// [`rotation_vn_pass`] dispatched onto the selected SIMD tier.
    rotation_vn_pass_tier<F: LlrFloat>, rotation_vn_pass,
    rotation_vn_pass_avx2, rotation_vn_pass_avx512;
    (
        planes: &RotationPlanes,
        llr: &[F],
        c2v: &[F],
        totals: &mut [F],
        parity: impl Fn(F, F, Option<F>) -> F,
    )
);

tier_clones!(
    /// [`rotation_syndrome`] dispatched onto the selected SIMD tier.
    rotation_syndrome_tier<F: LlrFloat>, rotation_syndrome,
    rotation_syndrome_avx2, rotation_syndrome_avx512;
    (planes: &RotationPlanes, totals: &[F]) -> bool
);
