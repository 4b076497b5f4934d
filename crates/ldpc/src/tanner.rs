//! Tanner-graph representation optimized for message-passing decoders.
//!
//! Decoders index messages by *edge*. This module flattens the bipartite
//! graph into two views over a single edge numbering:
//!
//! * check-side: edges grouped contiguously by check node (`check_edges`),
//!   with the variable endpoint of each edge in `var_of_edge`;
//! * variable-side: for each variable node, the list of its edge ids
//!   (`var_edges`).
//!
//! For DVB-S2 codes, within each check the information edges come first and
//! the (up to two) parity edges last, which the zigzag decoder relies on.
//! A DVB-S2 graph also keeps its address table's residue rows
//! ([`QuasiCyclic`]): the rotation structure every 360-lane plan is read
//! from.

use crate::params::CodeParams;
use crate::rate::PARALLELISM;
use crate::tables::AddressTable;

/// One information input of a residue row: the address-table entry
/// `x = shift·q + r` of information group `group`. Lane `u` of the row
/// (check `u·q + r`, functional unit `u`) reads variable
/// `group·360 + (u − shift) mod 360` — the paper's shift ROM entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QcEntry {
    /// The information group (`x`'s table row).
    pub group: u32,
    /// The cyclic shift `x div q`.
    pub shift: u32,
}

impl QcEntry {
    /// The information variable lane `u` of this input reads.
    #[inline]
    pub fn var(&self, u: usize) -> usize {
        self.group as usize * PARALLELISM + (u + PARALLELISM - self.shift as usize) % PARALLELISM
    }
}

/// The quasi-cyclic record of a DVB-S2 graph: for each of the `q` residue
/// rows, the `row_len` [`QcEntry`]s of its information inputs in address-
/// table order (the connectivity ROM's word order, so the natural
/// check-node schedule). Check `u·q + r` holds row `r`'s inputs rotated to
/// lane `u`, so every 360-lane plan is read from here in one step per 360
/// edges, without walking the edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuasiCyclic {
    q: usize,
    row_len: usize,
    entries: Vec<QcEntry>,
}

impl QuasiCyclic {
    /// Number of residue rows, `q = (N − K) / 360`.
    pub fn rows(&self) -> usize {
        self.q
    }

    /// Information inputs per check, `check_degree − 2`.
    pub fn row_len(&self) -> usize {
        self.row_len
    }

    /// The inputs of residue row `r`, in table order.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[inline]
    pub fn row(&self, r: usize) -> &[QcEntry] {
        &self.entries[r * self.row_len..][..self.row_len]
    }
}

/// A bipartite variable/check graph with a flat edge numbering.
///
/// ```
/// use dvbs2_ldpc::TannerGraph;
/// // A tiny 3-variable, 2-check graph: c0–{v0,v1}, c1–{v1,v2}.
/// let g = TannerGraph::from_edges(3, 2, &[(0, 0), (0, 1), (1, 1), (1, 2)]);
/// assert_eq!(g.edge_count(), 4);
/// assert_eq!(g.var_degree(1), 2);
/// assert_eq!(g.check_degree(0), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TannerGraph {
    n_vars: usize,
    n_checks: usize,
    /// Number of information (systematic) variables; variables `>= info_len`
    /// are parity variables. Equal to `n_vars` for generic graphs.
    info_len: usize,
    check_ptr: Vec<u32>,
    var_of_edge: Vec<u32>,
    var_ptr: Vec<u32>,
    edge_of_var: Vec<u32>,
    /// The residue rows of a DVB-S2 graph with balanced rows; `None` for
    /// generic graphs.
    qc: Option<QuasiCyclic>,
}

impl TannerGraph {
    /// Builds a graph from `(check, var)` edge pairs.
    ///
    /// Edge ids follow the order of `edges` after a stable grouping by check
    /// node (within one check, edges keep their relative order from `edges`).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn from_edges(n_vars: usize, n_checks: usize, edges: &[(u32, u32)]) -> Self {
        let mut counts = vec![0u32; n_checks + 1];
        for &(c, v) in edges {
            assert!(
                (c as usize) < n_checks && (v as usize) < n_vars,
                "edge ({c},{v}) out of range"
            );
            counts[c as usize + 1] += 1;
        }
        for i in 1..=n_checks {
            counts[i] += counts[i - 1];
        }
        let check_ptr = counts.clone();
        let mut fill = counts;
        let mut var_of_edge = vec![0u32; edges.len()];
        for &(c, v) in edges {
            var_of_edge[fill[c as usize] as usize] = v;
            fill[c as usize] += 1;
        }
        let mut var_ptr = vec![0u32; n_vars + 1];
        for &v in &var_of_edge {
            var_ptr[v as usize + 1] += 1;
        }
        for i in 1..=n_vars {
            var_ptr[i] += var_ptr[i - 1];
        }
        Self::with_var_side(n_vars, n_checks, check_ptr, var_of_edge, var_ptr, None)
    }

    /// Completes a graph from its check side and the variable-major offsets:
    /// each variable's edge ids, ascending.
    fn with_var_side(
        n_vars: usize,
        n_checks: usize,
        check_ptr: Vec<u32>,
        var_of_edge: Vec<u32>,
        var_ptr: Vec<u32>,
        qc: Option<QuasiCyclic>,
    ) -> Self {
        let mut vfill = var_ptr.clone();
        let mut edge_of_var = vec![0u32; var_of_edge.len()];
        for (e, &v) in var_of_edge.iter().enumerate() {
            edge_of_var[vfill[v as usize] as usize] = e as u32;
            vfill[v as usize] += 1;
        }
        TannerGraph {
            n_vars,
            n_checks,
            info_len: n_vars,
            check_ptr,
            var_of_edge,
            var_ptr,
            edge_of_var,
            qc,
        }
    }

    /// Builds the Tanner graph of a DVB-S2 code. Information edges of every
    /// check precede its parity edges (ascending variable index among the
    /// information edges, then `K + c − 1` unless `c = 0`, then `K + c`),
    /// and `info_len` is set to `K`.
    ///
    /// The check side is read straight from the table's residue rows: entry
    /// `x = shift·q + r` of group `g` feeds check `u·q + r` from variable
    /// `g·360 + (u − shift) mod 360` (Eq. 2). With every row of the same
    /// length (the standard's residue balance) the rows are kept as the
    /// graph's [`QuasiCyclic`] record.
    ///
    /// # Panics
    ///
    /// Panics unless `N − K = 360·q` and the table has one row per
    /// 360-bit information group.
    pub fn for_code(params: &CodeParams, table: &AddressTable) -> Self {
        const P: usize = PARALLELISM;
        let (n, k, m, q) = (params.n, params.k, params.n_check, params.q);
        assert!(
            q * P == m && n == k + m && table.rows().len() * P == k,
            "the table and parameters do not describe a 360-lane quasi-cyclic IRA code"
        );
        // The residue rows, table order kept within each row.
        let mut row_ptr = vec![0usize; q + 1];
        for &x in table.rows().iter().flatten() {
            row_ptr[x as usize % q + 1] += 1;
        }
        for r in 0..q {
            row_ptr[r + 1] += row_ptr[r];
        }
        let mut fill = row_ptr.clone();
        let mut entries = vec![QcEntry { group: 0, shift: 0 }; row_ptr[q]];
        for (g, row) in table.rows().iter().enumerate() {
            for &x in row {
                let r = x as usize % q;
                entries[fill[r]] = QcEntry { group: g as u32, shift: x / q as u32 };
                fill[r] += 1;
            }
        }
        let inputs = |r: usize| &entries[row_ptr[r]..row_ptr[r + 1]];

        let edges = entries.len() * P + (2 * m).saturating_sub(1);
        let mut check_ptr = Vec::with_capacity(m + 1);
        let mut var_of_edge = Vec::with_capacity(edges);
        check_ptr.push(0);
        for u in 0..P {
            for r in 0..q {
                let (j, start) = (u * q + r, var_of_edge.len());
                var_of_edge.extend(inputs(r).iter().map(|e| e.var(u) as u32));
                // Table order is group-major: only a group's own inputs to
                // one row can leave lane `u` out of ascending order, so an
                // insertion sort mostly only compares.
                let row = &mut var_of_edge[start..];
                for i in 1..row.len() {
                    let mut at = i;
                    while at > 0 && row[at - 1] > row[at] {
                        row.swap(at - 1, at);
                        at -= 1;
                    }
                }
                if j > 0 {
                    var_of_edge.push((k + j - 1) as u32);
                }
                var_of_edge.push((k + j) as u32);
                check_ptr.push(var_of_edge.len() as u32);
            }
        }
        let mut var_ptr = Vec::with_capacity(n + 1);
        var_ptr.push(0u32);
        let info_degrees = table.rows().iter().flat_map(|row| std::iter::repeat_n(row.len(), P));
        let parity_degrees = (0..m).map(|j| if j + 1 < m { 2 } else { 1 });
        for degree in info_degrees.chain(parity_degrees) {
            var_ptr.push(var_ptr[var_ptr.len() - 1] + degree as u32);
        }

        let row_len = if q == 0 { 0 } else { inputs(0).len() };
        let balanced = (0..q).all(|r| inputs(r).len() == row_len);
        let qc = balanced.then_some(QuasiCyclic { q, row_len, entries });
        let mut graph = Self::with_var_side(n, m, check_ptr, var_of_edge, var_ptr, qc);
        graph.info_len = k;
        graph
    }

    /// The quasi-cyclic record of a graph built by
    /// [`for_code`](Self::for_code) from residue-balanced rows, `None`
    /// otherwise.
    pub fn quasi_cyclic(&self) -> Option<&QuasiCyclic> {
        self.qc.as_ref()
    }

    /// Number of variable nodes.
    pub fn var_count(&self) -> usize {
        self.n_vars
    }

    /// Number of check nodes.
    pub fn check_count(&self) -> usize {
        self.n_checks
    }

    /// Total number of edges (= messages per half-iteration direction).
    pub fn edge_count(&self) -> usize {
        self.var_of_edge.len()
    }

    /// Number of information (systematic) variables; for DVB-S2 graphs this
    /// is `K` and variables `K..N` are parity nodes.
    pub fn info_len(&self) -> usize {
        self.info_len
    }

    /// Edge-id range of check node `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.check_count()`.
    #[inline]
    pub fn check_edges(&self, c: usize) -> std::ops::Range<usize> {
        self.check_ptr[c] as usize..self.check_ptr[c + 1] as usize
    }

    /// Check-major CSR offsets: edges of check `c` are
    /// `check_offsets()[c]..check_offsets()[c + 1]`. Length is
    /// `check_count() + 1`.
    ///
    /// Message-passing inner loops stream this slice directly instead of
    /// calling [`check_edges`](Self::check_edges) per node.
    #[inline]
    pub fn check_offsets(&self) -> &[u32] {
        &self.check_ptr
    }

    /// Variable endpoint of every edge, indexed by edge id (check-major
    /// order). Length is `edge_count()`.
    ///
    /// This is the scatter/gather table of the variable-node half-iteration:
    /// iterating it in edge order visits each check's edges contiguously
    /// while touching each variable's edges in ascending edge-id order —
    /// the same per-variable summation order as
    /// [`var_edges`](Self::var_edges).
    #[inline]
    pub fn edge_vars(&self) -> &[u32] {
        &self.var_of_edge
    }

    /// Variable-major CSR offsets into [`var_edge_table`](Self::var_edge_table):
    /// edges of variable `v` are `var_offsets()[v]..var_offsets()[v + 1]`.
    /// Length is `var_count() + 1`.
    #[inline]
    pub fn var_offsets(&self) -> &[u32] {
        &self.var_ptr
    }

    /// Edge ids grouped by variable (the var→edge gather table backing
    /// [`var_edges`](Self::var_edges)). Within one variable the ids are
    /// ascending. Length is `edge_count()`.
    #[inline]
    pub fn var_edge_table(&self) -> &[u32] {
        &self.edge_of_var
    }

    /// Largest check-node degree (0 for a graph without checks). Decoders
    /// size their per-check scratch storage from this.
    pub fn max_check_degree(&self) -> usize {
        (0..self.n_checks).map(|c| self.check_degree(c)).max().unwrap_or(0)
    }

    /// Variable endpoint of edge `e`.
    #[inline]
    pub fn var_of_edge(&self, e: usize) -> usize {
        self.var_of_edge[e] as usize
    }

    /// Edge ids incident to variable `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.var_count()`.
    #[inline]
    pub fn var_edges(&self, v: usize) -> &[u32] {
        &self.edge_of_var[self.var_ptr[v] as usize..self.var_ptr[v + 1] as usize]
    }

    /// Degree of variable node `v`.
    pub fn var_degree(&self, v: usize) -> usize {
        self.var_edges(v).len()
    }

    /// Degree of check node `c`.
    pub fn check_degree(&self, c: usize) -> usize {
        self.check_edges(c).len()
    }

    /// Histogram of variable degrees as `(degree, count)` pairs, ascending.
    pub fn var_degree_histogram(&self) -> Vec<(usize, usize)> {
        let mut hist = std::collections::BTreeMap::new();
        for v in 0..self.n_vars {
            *hist.entry(self.var_degree(v)).or_insert(0usize) += 1;
        }
        hist.into_iter().collect()
    }

    /// `true` if some length-4 cycle passes through variable `v` (two of its
    /// checks share another variable).
    pub fn has_4cycle_through(&self, v: usize) -> bool {
        let checks: Vec<usize> =
            self.var_edges(v).iter().map(|&e| self.check_of_edge(e as usize)).collect();
        for (i, &c1) in checks.iter().enumerate() {
            for &c2 in &checks[i + 1..] {
                let vars1: std::collections::HashSet<u32> = self
                    .check_edges(c1)
                    .map(|e| self.var_of_edge[e])
                    .filter(|&u| u as usize != v)
                    .collect();
                if self
                    .check_edges(c2)
                    .map(|e| self.var_of_edge[e])
                    .any(|u| u as usize != v && vars1.contains(&u))
                {
                    return true;
                }
            }
        }
        false
    }

    /// BFS cycle estimate rooted at variable `v`: the length of the first
    /// cycle the search closes, if at most `cap` (bipartite graphs only
    /// have even cycles: 4, 6, 8, …).
    ///
    /// Exact for length-4 detection (a return of `Some(4)` iff a 4-cycle
    /// passes through `v`); for longer cycles the value is an upper bound
    /// on the graph girth (search paths may share a prefix). The minimum
    /// over all roots is the exact girth — the standard LDPC girth
    /// computation.
    pub fn local_girth(&self, v: usize, cap: usize) -> Option<usize> {
        let n_vars = self.n_vars;
        let total = n_vars + self.n_checks;
        let mut dist = vec![u32::MAX; total];
        let mut entry_edge = vec![u32::MAX; total];
        let mut queue = std::collections::VecDeque::new();
        dist[v] = 0;
        queue.push_back(v);
        let mut best: Option<usize> = None;

        while let Some(u) = queue.pop_front() {
            let du = dist[u] as usize;
            if 2 * du >= best.unwrap_or(cap + 1) {
                break;
            }
            // Neighbors of u with the edge used to reach them.
            let neighbors: Vec<(usize, u32)> = if u < n_vars {
                self.var_edges(u)
                    .iter()
                    .map(|&e| (n_vars + self.check_of_edge(e as usize), e))
                    .collect()
            } else {
                self.check_edges(u - n_vars).map(|e| (self.var_of_edge(e), e as u32)).collect()
            };
            for (w, e) in neighbors {
                if e == entry_edge[u] {
                    continue;
                }
                if dist[w] == u32::MAX {
                    dist[w] = du as u32 + 1;
                    entry_edge[w] = e;
                    queue.push_back(w);
                } else {
                    let cycle = du + dist[w] as usize + 1;
                    if cycle <= cap && best.is_none_or(|b| cycle < b) {
                        best = Some(cycle);
                    }
                }
            }
        }
        best
    }

    /// Check endpoint of edge `e` (binary search over the check ranges).
    pub fn check_of_edge(&self, e: usize) -> usize {
        debug_assert!(e < self.edge_count());
        match self.check_ptr.binary_search(&(e as u32)) {
            Ok(mut c) => {
                // Skip empty checks that share the same offset.
                while self.check_ptr[c + 1] as usize == e {
                    c += 1;
                }
                c
            }
            Err(i) => i - 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rate::{CodeRate, FrameSize};
    use crate::tables::TableOptions;

    fn graph(rate: CodeRate) -> (CodeParams, TannerGraph) {
        let p = CodeParams::new(rate, FrameSize::Normal).unwrap();
        let t = AddressTable::generate(&p, TableOptions::default());
        (p, TannerGraph::for_code(&p, &t))
    }

    /// The counting-sort construction the direct build replaced: every
    /// `(check, var)` pair of Eq. 2 in variable order, then the parity
    /// chain, grouped by check.
    fn counting_sort_reference(p: &CodeParams, t: &AddressTable) -> TannerGraph {
        let mut edges = Vec::new();
        for m in 0..p.k {
            edges.extend(t.check_indices(p, m).map(|j| (j as u32, m as u32)));
        }
        for j in 0..p.n_check {
            edges.push((j as u32, (p.k + j) as u32));
            if j + 1 < p.n_check {
                edges.push(((j + 1) as u32, (p.k + j) as u32));
            }
        }
        let mut graph = TannerGraph::from_edges(p.n, p.n_check, &edges);
        graph.info_len = p.k;
        graph
    }

    #[test]
    fn the_direct_build_equals_the_counting_sort_on_every_rate_point() {
        let mut points = 0;
        for frame in [FrameSize::Normal, FrameSize::Short] {
            for p in CodeParams::all(frame) {
                let t = AddressTable::generate(&p, TableOptions::default());
                let g = TannerGraph::for_code(&p, &t);
                let want = counting_sort_reference(&p, &t);
                let what = format!("{} {frame}", p.rate);
                assert_eq!(g.info_len(), want.info_len(), "{what}");
                assert!(g.check_offsets() == want.check_offsets(), "{what}: check offsets");
                assert!(g.edge_vars() == want.edge_vars(), "{what}: edge variables");
                assert!(g.var_offsets() == want.var_offsets(), "{what}: variable offsets");
                assert!(g.var_edge_table() == want.var_edge_table(), "{what}: variable edges");
                assert!(want.quasi_cyclic().is_none(), "{what}: a generic graph has no record");

                // The record is the table's residue rows, table order, and
                // reproduces every check's information inputs.
                let qc = g.quasi_cyclic().expect("balanced rows keep the record");
                assert_eq!((qc.rows(), qc.row_len()), (p.q, p.check_degree - 2), "{what}");
                let mut rows = vec![Vec::new(); p.q];
                for (group, row) in t.rows().iter().enumerate() {
                    for &x in row {
                        let entry = QcEntry { group: group as u32, shift: x / p.q as u32 };
                        rows[x as usize % p.q].push(entry);
                    }
                }
                for (r, row) in rows.iter().enumerate() {
                    assert_eq!(qc.row(r), &row[..], "{what}: residue row {r}");
                }
                for c in (0..p.n_check).step_by(97) {
                    let (u, r) = (c / p.q, c % p.q);
                    let mut inputs: Vec<usize> = qc.row(r).iter().map(|e| e.var(u)).collect();
                    inputs.sort_unstable();
                    let graph_inputs: Vec<usize> =
                        g.check_edges(c).take(qc.row_len()).map(|e| g.var_of_edge(e)).collect();
                    assert_eq!(inputs, graph_inputs, "{what}: check {c}");
                }
                points += 1;
            }
        }
        assert_eq!(points, 21, "11 normal and 10 short rate points");
    }

    #[test]
    fn counts_match_params() {
        let (p, g) = graph(CodeRate::R9_10);
        assert_eq!(g.var_count(), p.n);
        assert_eq!(g.check_count(), p.n_check);
        assert_eq!(g.edge_count(), p.e_in() + p.e_pn());
        assert_eq!(g.info_len(), p.k);
    }

    #[test]
    fn degree_histogram_matches_table1() {
        let (p, g) = graph(CodeRate::R9_10);
        let hist = g.var_degree_histogram();
        // Degree 1: the last parity node. Degree 2: the other parity nodes.
        // Degree 3 and the high degree: information classes.
        let lookup = |d: usize| hist.iter().find(|&&(deg, _)| deg == d).map_or(0, |&(_, c)| c);
        assert_eq!(lookup(1), 1);
        assert_eq!(lookup(2), p.n_check - 1);
        assert_eq!(lookup(3), p.lo.count);
        assert_eq!(lookup(p.hi.degree), p.hi.count);
    }

    #[test]
    fn parity_edges_are_last_in_each_check() {
        let (p, g) = graph(CodeRate::R8_9);
        for c in [0usize, 1, p.n_check / 2, p.n_check - 1] {
            let range = g.check_edges(c);
            let vars: Vec<usize> = range.map(|e| g.var_of_edge(e)).collect();
            let n_parity = vars.iter().filter(|&&v| v >= p.k).count();
            assert_eq!(n_parity, if c == 0 { 1 } else { 2 }, "check {c}");
            // Parity endpoints occupy the tail of the range.
            for &v in &vars[vars.len() - n_parity..] {
                assert!(v >= p.k);
            }
            for &v in &vars[..vars.len() - n_parity] {
                assert!(v < p.k);
            }
        }
    }

    #[test]
    fn check_of_edge_inverts_check_edges() {
        let (_, g) = graph(CodeRate::R9_10);
        for c in (0..g.check_count()).step_by(997) {
            for e in g.check_edges(c) {
                assert_eq!(g.check_of_edge(e), c);
            }
        }
    }

    #[test]
    fn var_edges_are_consistent_with_check_side() {
        let (_, g) = graph(CodeRate::R8_9);
        for v in (0..g.var_count()).step_by(1009) {
            for &e in g.var_edges(v) {
                assert_eq!(g.var_of_edge(e as usize), v);
            }
        }
    }

    #[test]
    fn conditioned_code_has_no_4cycles_sampled() {
        let (_, g) = graph(CodeRate::R9_10);
        for v in (0..g.var_count()).step_by(2003) {
            assert!(!g.has_4cycle_through(v), "4-cycle through variable {v}");
        }
    }

    #[test]
    fn local_girth_agrees_with_pairwise_4cycle_check() {
        let (_, g) = graph(CodeRate::R9_10);
        for v in (0..g.var_count()).step_by(4001) {
            assert_eq!(g.local_girth(v, 4).is_some(), g.has_4cycle_through(v), "var {v}");
        }
    }

    #[test]
    fn local_girth_finds_cycles_in_a_known_graph() {
        // A 6-cycle: v0-c0-v1-c1-v2-c2-v0.
        let g = TannerGraph::from_edges(3, 3, &[(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0)]);
        assert_eq!(g.local_girth(0, 10), Some(6));
        assert_eq!(g.local_girth(0, 4), None);
        // A tree has no cycles at all.
        let tree = TannerGraph::from_edges(3, 2, &[(0, 0), (0, 1), (1, 1), (1, 2)]);
        assert_eq!(tree.local_girth(0, 100), None);
    }

    #[test]
    fn unconditioned_tables_contain_4cycles() {
        use crate::tables::TableOptions;
        let p = CodeParams::new(CodeRate::R9_10, FrameSize::Normal).unwrap();
        let t = AddressTable::generate(&p, TableOptions { avoid_girth4: false, seed: 7 });
        let g = TannerGraph::for_code(&p, &t);
        let found = (0..g.var_count()).step_by(431).any(|v| g.local_girth(v, 4) == Some(4));
        assert!(found, "a dense unconditioned code should show sampled 4-cycles");
    }

    #[test]
    fn flat_layout_slices_agree_with_accessors() {
        let (_, g) = graph(CodeRate::R8_9);
        let offsets = g.check_offsets();
        assert_eq!(offsets.len(), g.check_count() + 1);
        for c in (0..g.check_count()).step_by(1013) {
            let range = g.check_edges(c);
            assert_eq!(offsets[c] as usize, range.start);
            assert_eq!(offsets[c + 1] as usize, range.end);
        }
        assert_eq!(g.edge_vars().len(), g.edge_count());
        for e in (0..g.edge_count()).step_by(997) {
            assert_eq!(g.edge_vars()[e] as usize, g.var_of_edge(e));
        }
        let var_offsets = g.var_offsets();
        assert_eq!(var_offsets.len(), g.var_count() + 1);
        for v in (0..g.var_count()).step_by(1009) {
            let edges = &g.var_edge_table()[var_offsets[v] as usize..var_offsets[v + 1] as usize];
            assert_eq!(edges, g.var_edges(v));
            // Ascending ids per variable: scatter-add over edge order then
            // sums each variable's messages in the same order var_edges does.
            assert!(edges.windows(2).all(|w| w[0] < w[1]), "var {v}");
        }
        let max = g.max_check_degree();
        assert!((0..g.check_count()).all(|c| g.check_degree(c) <= max));
        assert!((0..g.check_count()).any(|c| g.check_degree(c) == max));
    }

    #[test]
    fn generic_graph_from_edges() {
        let g = TannerGraph::from_edges(4, 2, &[(0, 0), (0, 1), (1, 1), (1, 2), (1, 3)]);
        assert_eq!(g.check_degree(0), 2);
        assert_eq!(g.check_degree(1), 3);
        assert_eq!(g.var_degree(1), 2);
        assert_eq!(g.var_degree(0), 1);
        assert_eq!(g.check_of_edge(0), 0);
        assert_eq!(g.check_of_edge(4), 1);
    }
}
