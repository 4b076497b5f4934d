//! Shared fixtures for decoder tests (also used by downstream crates'
//! test suites). Not part of the stable API.
//!
//! Self-contained: uses a SplitMix64 PRNG and Box–Muller noise so the
//! library itself needs no RNG dependency.

#![allow(missing_docs)]

use crate::qsimd::RotEntry;
use crate::rotation::RotationPlanes;
use crate::ChainPartition;
use dvbs2_ldpc::{BitVec, CodeRate, DvbS2Code, FrameSize, TannerGraph, PARALLELISM};

/// A tiny deterministic PRNG (SplitMix64) for fixtures.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn next_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// One standard-normal sample (Box–Muller, cosine branch).
    pub fn next_gaussian(&mut self) -> f64 {
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// A short-frame rate-1/2 code: small enough for fast unit tests, large
/// enough to exercise all structure.
pub fn small_code() -> (DvbS2Code, TannerGraph) {
    let code = DvbS2Code::new(CodeRate::R1_2, FrameSize::Short).unwrap();
    let graph = code.tanner_graph();
    (code, graph)
}

/// The 360-lane cut of a quasi-cyclic IRA graph with every check's inputs
/// in lane 0's graph order carried along the code's rotation. This is the
/// structure of a `dvbs2_hardware::hw_chain_partition` order (which this
/// crate cannot depend on): the lane planes find their rotation plan and
/// run the paths the served decoder runs. Ascending-variable order does
/// not have it, because it flips where a rotation wraps.
pub fn rotation_partition(graph: &TannerGraph) -> ChainPartition {
    let order = rotation_order(graph).expect("the graph is quasi-cyclic with lifting 360");
    ChainPartition::new(PARALLELISM, Some(order))
}

/// A lane column as `(plane offset, block, rotation offset)`: lane `u` of
/// the vector at the offset reads variable `block + (u + offset) % lanes`.
pub type LaneColumn = (usize, usize, usize);

fn lane_columns_of(rot: &[RotEntry], lanes: usize) -> Vec<LaneColumn> {
    rot.iter()
        .map(|e| {
            let (block, off) = e.block_and_off(lanes);
            (e.base as usize, block, off)
        })
        .collect()
}

/// The lane decoder's columns with bases at `lanes` per column: the
/// graph's record for `cut: None` (the natural schedule), or `cut`'s order
/// checked along the rotations.
pub fn lane_columns(graph: &TannerGraph, cut: Option<&ChainPartition>) -> Option<Vec<LaneColumn>> {
    let lanes = cut.map_or(PARALLELISM, ChainPartition::lanes);
    let rot = crate::qsimd::lane_columns(graph, cut, lanes)?;
    Some(lane_columns_of(&rot, lanes))
}

/// The reference for [`lane_columns`] under `cut`: the per-edge walk the
/// record replaced (a slot map over every edge, the variable of every
/// slot, each vector checked lane by lane).
pub fn walked_lane_columns(graph: &TannerGraph, cut: &ChainPartition) -> Option<Vec<LaneColumn>> {
    let lanes = cut.lanes();
    let q_rows = graph.check_count() / lanes;
    let info_d = graph.check_degree(0) - 1;
    let stride = info_d + 2;
    let slots = lane_edge_slots(graph, cut.edge_order(), lanes, q_rows, stride, info_d);
    let rot = build_rotation(graph, &slots, lanes, q_rows, stride, info_d)?;
    Some(lane_columns_of(&rot, lanes))
}

/// The float decoders' rotation planes, read from the record.
pub fn rotation_planes(graph: &TannerGraph) -> Option<RotationPlanes> {
    RotationPlanes::build(graph)
}

/// The reference for [`rotation_planes`]: the columns found by walking
/// every edge under [`rotation_partition`]'s order.
pub fn walked_rotation_planes(graph: &TannerGraph) -> Option<RotationPlanes> {
    let (k, q_rows) = (graph.info_len(), graph.check_count() / PARALLELISM);
    let info_d = graph.check_degree(0).checked_sub(1).filter(|&d| d >= 2)?;
    let stride = info_d + 2;
    let order = rotation_order(graph)?;
    let slots = lane_edge_slots(graph, Some(&order), PARALLELISM, q_rows, stride, info_d);
    let info = build_rotation(graph, &slots, PARALLELISM, q_rows, stride, info_d)?;
    Some(RotationPlanes::from_columns(k, q_rows, stride, info))
}

/// The plane slot `(r·stride + i)·lanes + u` of input `i` (in `order`, or
/// graph order) of each check `c = u·q_rows + r`; parity edges `u32::MAX`.
fn lane_edge_slots(
    graph: &TannerGraph,
    order: Option<&[u32]>,
    lanes: usize,
    q_rows: usize,
    stride: usize,
    info_d: usize,
) -> Vec<u32> {
    let mut edge_slot = vec![u32::MAX; graph.edge_count()];
    for c in 0..lanes * q_rows {
        let (u, r) = (c / q_rows, c % q_rows);
        let start = graph.check_edges(c).start;
        for i in 0..info_d {
            let e = match order {
                Some(ord) => start + ord[c * info_d + i] as usize,
                None => start + i,
            };
            edge_slot[e] = ((r * stride + i) * lanes + u) as u32;
        }
    }
    edge_slot
}

/// The per-check input order under which [`build_rotation`] finds every
/// plane vector: input `i` of check `c = u·q + r` is check `r`'s input `i`
/// rotated `u` lanes within its 360-block. `None` when some rotated
/// variable is not an input of its check. Every check must start with
/// `info_d` information edges.
fn rotation_order(graph: &TannerGraph) -> Option<Vec<u32>> {
    const LANES: usize = PARALLELISM;
    let n_check = graph.check_count();
    let q_rows = n_check / LANES;
    if q_rows == 0 || !n_check.is_multiple_of(LANES) {
        return None;
    }
    let info_d = graph.check_edges(0).len().checked_sub(1)?;
    let inputs = |c: usize| &graph.edge_vars()[graph.check_edges(c).start..][..info_d];
    // Each variable's position among the current check's inputs, taken
    // (reset to `u32::MAX`) when matched, so no input is matched twice.
    let mut position = vec![u32::MAX; graph.var_count()];
    let mut order = Vec::with_capacity(n_check * info_d);
    for u in 0..LANES {
        for r in 0..q_rows {
            let c = u * q_rows + r;
            for (p, &v) in inputs(c).iter().enumerate() {
                position[v as usize] = p as u32;
            }
            for &v0 in inputs(r) {
                let v0 = v0 as usize;
                let v = v0 - v0 % LANES + (v0 % LANES + u) % LANES;
                let pos = std::mem::replace(&mut position[v], u32::MAX);
                if pos == u32::MAX {
                    return None;
                }
                order.push(pos);
            }
            for &v in inputs(c) {
                position[v as usize] = u32::MAX;
            }
        }
    }
    Some(order)
}

/// The quasi-cyclic rotation of every (row, position) plane vector of a
/// slot map: the `lanes` variables of a vector must be one block rotated.
fn build_rotation(
    graph: &TannerGraph,
    edge_slot: &[u32],
    lanes: usize,
    q_rows: usize,
    stride: usize,
    info_d: usize,
) -> Option<Vec<RotEntry>> {
    let k = graph.info_len();
    let mut slot_var = vec![u32::MAX; q_rows * stride * lanes];
    for c in 0..graph.check_count() {
        let range = graph.check_edges(c);
        for e in range.start..range.start + info_d {
            slot_var[edge_slot[e] as usize] = graph.var_of_edge(e) as u32;
        }
    }
    let mut rot = Vec::with_capacity(q_rows * info_d);
    for r in 0..q_rows {
        for i in 0..info_d {
            let base = (r * stride + i) * lanes;
            let v0 = slot_var[base] as usize;
            if v0 >= k {
                return None;
            }
            let off = v0 % lanes;
            let block = v0 - off;
            if block + lanes > k {
                return None;
            }
            for u in 0..lanes {
                if slot_var[base + u] as usize != block + (u + off) % lanes {
                    return None;
                }
            }
            rot.push(RotEntry::rotated(base, block, off));
        }
    }
    Some(rot)
}

/// Noise-free channel LLRs for a codeword: `+mag` for bit 0, `-mag` for 1.
pub fn llrs_for_codeword(cw: &BitVec, mag: f64) -> Vec<f64> {
    cw.iter().map(|b| if b { -mag } else { mag }).collect()
}

/// Encodes a random message and passes it through BPSK + AWGN at the given
/// `Eb/N0`, returning the codeword and the channel LLRs.
pub fn noisy_llrs(code: &DvbS2Code, ebn0_db: f64, seed: u64) -> (BitVec, Vec<f64>) {
    let params = *code.params();
    let enc = code.encoder().unwrap();
    let mut rng = SplitMix64(seed);
    let msg: BitVec = (0..params.k).map(|_| rng.next_bool()).collect();
    let cw = enc.encode(&msg).unwrap();
    let rate = params.k as f64 / params.n as f64;
    let sigma2 = 1.0 / (2.0 * rate * 10f64.powf(ebn0_db / 10.0));
    let sigma = sigma2.sqrt();
    let llrs = cw
        .iter()
        .map(|b| {
            let x = if b { -1.0 } else { 1.0 };
            let y = x + sigma * rng.next_gaussian();
            2.0 * y / sigma2
        })
        .collect();
    (cw, llrs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64(1);
        let mut b = SplitMix64(1);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn noisy_llrs_mostly_agree_with_codeword_at_high_snr() {
        let (code, _) = small_code();
        let (cw, llrs) = noisy_llrs(&code, 8.0, 3);
        let agreements = llrs.iter().enumerate().filter(|&(i, &l)| (l < 0.0) == cw.get(i)).count();
        assert!(agreements as f64 / llrs.len() as f64 > 0.99);
    }
}
