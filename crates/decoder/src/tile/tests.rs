use super::*;
use crate::test_support::{noisy_llrs, small_code};
use crate::{CheckRule, Precision};

fn config(rule: CheckRule, precision: Precision) -> DecoderConfig {
    DecoderConfig::default().with_rule(rule).with_precision(precision)
}

fn reference(
    graph: &Arc<TannerGraph>,
    cfg: DecoderConfig,
    schedule: TileSchedule,
) -> Box<dyn Decoder> {
    match schedule {
        TileSchedule::Flooding => Box::new(FloodingDecoder::new(Arc::clone(graph), cfg)),
        TileSchedule::Zigzag => Box::new(ZigzagDecoder::new(Arc::clone(graph), cfg)),
    }
}

#[test]
fn tiled_decode_is_bit_identical_to_single_frame_all_schedules() {
    let (code, graph) = small_code();
    let graph = Arc::new(graph);
    // Mixed difficulty, so the frames stop at different iterations.
    let ebn0 = [4.0, 2.6, 2.4, 0.5];
    let frames: Vec<Vec<f64>> =
        ebn0.iter().enumerate().map(|(i, &db)| noisy_llrs(&code, db, 900 + i as u64).1).collect();
    let views: Vec<&[f64]> = frames.iter().map(|f| f.as_slice()).collect();
    for schedule in [TileSchedule::Flooding, TileSchedule::Zigzag] {
        for precision in [Precision::F64, Precision::F32] {
            let cfg = config(CheckRule::NormalizedMinSum(0.8), precision);
            let mut tiled = TiledBatchDecoder::new(Arc::clone(&graph), cfg, schedule, 4);
            let mut single = reference(&graph, cfg, schedule);
            let got = tiled.decode_batch(&views);
            for (i, frame) in frames.iter().enumerate() {
                assert_eq!(got[i], single.decode(frame), "{schedule:?} {precision:?} frame {i}");
            }
        }
    }
}

#[test]
fn partial_batches_reuse_the_buffers() {
    let (code, graph) = small_code();
    let graph = Arc::new(graph);
    let cfg = config(CheckRule::NormalizedMinSum(0.8), Precision::F32);
    let mut tiled = TiledBatchDecoder::new(Arc::clone(&graph), cfg, TileSchedule::Flooding, 8);
    let mut single = FloodingDecoder::new(Arc::clone(&graph), cfg);
    // Different batch sizes against the same decoder instance.
    for (n, seed) in [(1usize, 50u64), (3, 60), (8, 70), (2, 80)] {
        let frames: Vec<Vec<f64>> =
            (0..n).map(|i| noisy_llrs(&code, 2.8, seed + i as u64).1).collect();
        let views: Vec<&[f64]> = frames.iter().map(|f| f.as_slice()).collect();
        let got = tiled.decode_batch(&views);
        for (i, frame) in frames.iter().enumerate() {
            assert_eq!(got[i], single.decode(frame), "batch {n} frame {i}");
        }
    }
}

#[test]
fn early_stop_off_runs_all_iterations_per_lane() {
    let (code, graph) = small_code();
    let cfg = DecoderConfig {
        max_iterations: 8,
        early_stop: false,
        ..config(CheckRule::NormalizedMinSum(0.8), Precision::F32)
    };
    let mut tiled = TiledBatchDecoder::new(Arc::new(graph), cfg, TileSchedule::Flooding, 2);
    let frames: Vec<Vec<f64>> = (0..2).map(|i| noisy_llrs(&code, 4.0, 30 + i).1).collect();
    let views: Vec<&[f64]> = frames.iter().map(|f| f.as_slice()).collect();
    for r in tiled.decode_batch(&views) {
        assert_eq!(r.iterations, 8);
        assert!(r.converged);
    }
    // The cap reaches the decoder behind the loop.
    tiled.set_max_iterations(3);
    assert_eq!(tiled.config().max_iterations, 3);
    assert!(tiled.decode_batch(&views).iter().all(|r| r.iterations == 3));
}

#[test]
#[should_panic(expected = "exceeds max_batch")]
fn oversized_batch_is_rejected() {
    let (_, graph) = small_code();
    let cfg = config(CheckRule::NormalizedMinSum(0.8), Precision::F32);
    let n = graph.var_count();
    let mut dec = TiledBatchDecoder::new(Arc::new(graph), cfg, TileSchedule::Flooding, 2);
    let frame = vec![0.0; n];
    let views: Vec<&[f64]> = vec![&frame; 3];
    let _ = dec.decode_batch(&views);
}

#[test]
#[should_panic(expected = "parity chain")]
fn zigzag_schedule_rejects_non_ira_graphs() {
    let g = dvbs2_ldpc::TannerGraph::from_edges(2, 1, &[(0, 0), (0, 1)]);
    let cfg = config(CheckRule::NormalizedMinSum(0.8), Precision::F32);
    TiledBatchDecoder::new(Arc::new(g), cfg, TileSchedule::Zigzag, 2);
}
