//! Bridge from the hardware connectivity (ROM + check-node schedule) to the
//! software decoder's hardware-partitioned mode.
//!
//! The quantized boxplus is order-dependent in its low bits, so making
//! [`dvbs2_decoder::QuantizedZigzagDecoder`] bit-exact against
//! [`crate::GoldenModel`] needs more than the 360-sub-chain boundary
//! semantics: every check must also feed its boxplus the *same operands in
//! the same order* as the functional-unit array. The hardware order is the
//! schedule's word order per residue row; the graph's order is ascending
//! variable index. [`hw_chain_partition`] computes the per-check permutation
//! between the two and packages it with `lanes = 360` as a
//! [`ChainPartition`], walking every check. The served decoder does not
//! need it: on the lanes the natural schedule's order is read from the
//! graph's quasi-cyclic record
//! ([`dvbs2_decoder::QuantizedZigzagDecoder::natural_lanes`]). This
//! explicit order serves annealed schedules, the scalar fused sweep and
//! the differential oracle.

use crate::rom::ConnectivityRom;
use crate::schedule::CnSchedule;
use dvbs2_decoder::ChainPartition;
use dvbs2_ldpc::{TannerGraph, PARALLELISM};

/// Builds the [`ChainPartition`] that makes the sequential software decoder
/// replay the hardware exactly: 360 sub-chains plus, for every check, the
/// schedule's message input order expressed as a permutation of the graph's
/// information edges.
///
/// For check `j` (functional unit `u = j / q`, residue row `r = j % q`) the
/// hardware reads the words of `schedule.row(r)` in order; entry `w`
/// contributes the message of information node
/// `m = group(w)·360 + ((u + 360 − shift(w)) mod 360)` to that check. The
/// returned permutation records where each such `m` sits among check `j`'s
/// graph edges (which are sorted by variable index).
///
/// # Panics
///
/// Panics if `graph` is not the Tanner graph of the code the ROM was built
/// from, or if the schedule does not match the ROM.
pub fn hw_chain_partition(
    rom: &ConnectivityRom,
    schedule: &CnSchedule,
    graph: &TannerGraph,
) -> ChainPartition {
    schedule.validate(rom).expect("schedule must match the ROM");
    let p = PARALLELISM;
    let q_rows = rom.row_count();
    let row_len = rom.row_len();
    let n_check = graph.check_count();
    assert_eq!(n_check, p * q_rows, "graph does not belong to the ROM's code");

    let mut edge_order = vec![0u32; n_check * row_len];
    let mut vars = vec![0usize; row_len];
    for j in 0..n_check {
        let u = j / q_rows;
        let r = j % q_rows;
        let start = graph.check_edges(j).start;
        for (pos, slot) in vars.iter_mut().enumerate() {
            *slot = graph.var_of_edge(start + pos);
        }
        for (i, &w) in schedule.row(r).iter().enumerate() {
            let e = rom.entry(w as usize);
            let t = (u + p - e.shift as usize) % p;
            let m = e.group as usize * p + t;
            let pos = vars.iter().position(|&v| v == m).unwrap_or_else(|| {
                panic!("check {j}: schedule word {w} maps to variable {m}, not a graph neighbor")
            });
            edge_order[j * row_len + i] = pos as u32;
        }
    }
    ChainPartition::new(p, Some(edge_order))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anneal::{optimize_schedule, AnnealOptions};
    use crate::golden::GoldenModel;
    use crate::memory::MemoryConfig;
    use dvbs2_decoder::test_support::noisy_llrs;
    use dvbs2_decoder::{
        DecoderConfig, QCheckArithmetic, QuantizedZigzagDecoder, Quantizer, SimdTier,
    };
    use dvbs2_ldpc::{CodeRate, DvbS2Code, FrameSize};
    use std::sync::Arc;

    fn partitioned_decoder(
        code: &DvbS2Code,
        schedule: &CnSchedule,
        rom: &ConnectivityRom,
        max_iterations: usize,
        early_stop: bool,
    ) -> QuantizedZigzagDecoder {
        let graph = Arc::new(code.tanner_graph());
        let partition = hw_chain_partition(rom, schedule, &graph);
        QuantizedZigzagDecoder::with_partition(
            graph,
            QCheckArithmetic::lut(Quantizer::paper_6bit()),
            DecoderConfig { max_iterations, early_stop, ..DecoderConfig::default() },
            partition,
        )
    }

    fn assert_bit_exact(code: &DvbS2Code, schedule: CnSchedule, rom: &ConnectivityRom) {
        for (max_iters, early_stop) in [(30, true), (6, false), (0, true), (0, false), (1, true)] {
            let mut golden = GoldenModel::new(
                code,
                schedule.clone(),
                Quantizer::paper_6bit(),
                max_iters,
                early_stop,
            );
            let mut sw = partitioned_decoder(code, &schedule, rom, max_iters, early_stop);
            for seed in 0..3u64 {
                let (_, llrs) = noisy_llrs(code, 2.6, 7100 + seed);
                let channel = golden.quantize_channel(&llrs);
                let g = golden.decode_quantized(&channel);
                let s = sw.decode_quantized(&channel);
                assert_eq!(g, s, "seed {seed} iters {max_iters} early_stop {early_stop}: diverged");
            }
        }
    }

    #[test]
    fn partitioned_software_decoder_is_bit_exact_natural_schedule() {
        let code = DvbS2Code::new(CodeRate::R1_2, FrameSize::Short).unwrap();
        let rom = ConnectivityRom::build(code.params(), code.table());
        assert_bit_exact(&code, CnSchedule::natural(&rom), &rom);
    }

    #[test]
    fn partitioned_software_decoder_is_bit_exact_annealed_schedule() {
        // An annealed schedule permutes word order within rows — exactly the
        // order-dependence the edge permutation must absorb.
        let code = DvbS2Code::new(CodeRate::R1_2, FrameSize::Short).unwrap();
        let rom = ConnectivityRom::build(code.params(), code.table());
        let annealed = optimize_schedule(
            &rom,
            MemoryConfig::default(),
            AnnealOptions { moves: 300, ..AnnealOptions::default() },
        )
        .schedule;
        assert_bit_exact(&code, annealed, &rom);
    }

    #[test]
    fn simd_lane_planes_are_bit_exact_at_every_tier() {
        // The sub-chain-major SIMD planes must replay the functional-unit
        // array exactly at every dispatch tier this host can run: the full
        // golden DecodeResult, plus per-iteration FNV message digests
        // against the scalar fused sweep — under both the natural and an
        // annealed schedule.
        let code = DvbS2Code::new(CodeRate::R1_2, FrameSize::Short).unwrap();
        let rom = ConnectivityRom::build(code.params(), code.table());
        let annealed = optimize_schedule(
            &rom,
            MemoryConfig::default(),
            AnnealOptions { moves: 300, ..AnnealOptions::default() },
        )
        .schedule;
        let graph = Arc::new(code.tanner_graph());
        for (tag, schedule) in [("natural", CnSchedule::natural(&rom)), ("annealed", annealed)] {
            let partition = hw_chain_partition(&rom, &schedule, &graph);
            let arith = QCheckArithmetic::lut(Quantizer::paper_6bit());
            let mut golden =
                GoldenModel::new(&code, schedule.clone(), Quantizer::paper_6bit(), 10, true);
            let config = DecoderConfig::default().with_max_iterations(10);
            let mut fused = QuantizedZigzagDecoder::with_partition_fused(
                Arc::clone(&graph),
                arith.clone(),
                config,
                partition.clone(),
            );
            for tier in SimdTier::available() {
                let mut lanes = QuantizedZigzagDecoder::with_partition(
                    Arc::clone(&graph),
                    arith.clone(),
                    config.with_simd_tier(Some(tier)),
                    partition.clone(),
                );
                assert_eq!(lanes.simd_tier(), Some(tier), "{tag}: plan must build");
                let (mut dl, mut df) = (Vec::new(), Vec::new());
                for seed in 0..2u64 {
                    let (_, llrs) = noisy_llrs(&code, 2.4, 8600 + seed);
                    let channel = lanes.quantize_channel(&llrs);
                    let g = golden.decode_quantized(&channel);
                    let l = lanes.decode_quantized_traced(&channel, &mut dl);
                    let f = fused.decode_quantized_traced(&channel, &mut df);
                    assert_eq!(l, g, "{tag} {tier:?} seed {seed}: diverged from golden");
                    assert_eq!(l, f, "{tag} {tier:?} seed {seed}: diverged from fused");
                    assert_eq!(dl, df, "{tag} {tier:?} seed {seed}: digests diverged");
                }
            }
        }
    }

    /// Every plan the record yields equals the per-edge walk's on all 21
    /// rate points: the lane columns under the natural schedule (the
    /// record's own order, and its partition), an annealed one (the
    /// oracle's options) and the test rotation order; the float planes'
    /// columns, segments and terms.
    #[test]
    fn record_plans_equal_the_walks_on_every_rate_point() {
        use dvbs2_decoder::test_support::{
            lane_columns, rotation_partition, rotation_planes, walked_lane_columns,
            walked_rotation_planes,
        };
        let mut points = 0;
        for frame in [FrameSize::Normal, FrameSize::Short] {
            for rate in CodeRate::ALL {
                let Ok(code) = DvbS2Code::new(rate, frame) else { continue };
                let what = format!("{rate} {frame}");
                let graph = code.tanner_graph();
                let rom = ConnectivityRom::build(code.params(), code.table());
                let natural = hw_chain_partition(&rom, &CnSchedule::natural(&rom), &graph);
                let options = AnnealOptions { moves: 600, ..AnnealOptions::default() };
                let annealed = optimize_schedule(&rom, MemoryConfig::default(), options).schedule;
                let annealed = hw_chain_partition(&rom, &annealed, &graph);
                let walked = walked_lane_columns(&graph, &natural).expect("natural rotates");
                assert_eq!(lane_columns(&graph, None), Some(walked), "{what}: the record");
                for (cut, name) in [
                    (natural, "natural"),
                    (annealed, "annealed"),
                    (rotation_partition(&graph), "rotation order"),
                ] {
                    let walked = walked_lane_columns(&graph, &cut);
                    assert!(walked.is_some(), "{what} {name}: the walk finds the rotations");
                    assert_eq!(lane_columns(&graph, Some(&cut)), walked, "{what} {name}");
                }
                let planes = rotation_planes(&graph);
                assert!(planes.is_some(), "{what}: the float planes build");
                assert_eq!(planes, walked_rotation_planes(&graph), "{what}: float planes");
                points += 1;
            }
        }
        assert_eq!(points, 21);
    }

    #[test]
    #[should_panic(expected = "does not belong")]
    fn mismatched_graph_is_rejected() {
        let code = DvbS2Code::new(CodeRate::R1_2, FrameSize::Short).unwrap();
        let other = DvbS2Code::new(CodeRate::R2_3, FrameSize::Short).unwrap();
        let rom = ConnectivityRom::build(code.params(), code.table());
        let schedule = CnSchedule::natural(&rom);
        hw_chain_partition(&rom, &schedule, &other.tanner_graph());
    }
}
