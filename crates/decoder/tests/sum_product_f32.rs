//! The lane-parallel `f32` exact sum-product decoders against the scalar
//! `f64` references: flooding and zigzag on the rotation planes. Both
//! reassociate the boxplus chains and evaluate the corrections with the
//! vector softplus, so the contract is behavioural — same decoded word,
//! iteration count within one — plus bit-identity of the full result across
//! SIMD tiers, which the flooding min-sum kernels (the other tier-dispatched
//! float path) are held to here as well.

use dvbs2_decoder::test_support::{noisy_llrs, SplitMix64};
use dvbs2_decoder::{
    CheckRule, Decoder, DecoderConfig, FloodingDecoder, Precision, SimdTier, ZigzagDecoder,
};
use dvbs2_ldpc::{
    AddressTable, CodeParams, CodeRate, DegreeClass, DvbS2Code, FrameSize, TannerGraph,
};
use std::sync::Arc;

/// Ten iterations past the default cap, so no frame of the sets below
/// converges on the cap's edge.
fn reference_config() -> DecoderConfig {
    DecoderConfig::default().with_max_iterations(40)
}

fn f32_config() -> DecoderConfig {
    reference_config().with_precision(Precision::F32)
}

/// `(f64 reference, f32 lane-parallel)` pairs for both schedules.
type Pair = (&'static str, Box<dyn Decoder>, Box<dyn Decoder>);

fn decoder_pairs(graph: &Arc<TannerGraph>) -> Vec<Pair> {
    let reference = reference_config();
    vec![
        (
            "flooding",
            Box::new(FloodingDecoder::new(Arc::clone(graph), reference)),
            Box::new(FloodingDecoder::new(Arc::clone(graph), f32_config())),
        ),
        (
            "zigzag",
            Box::new(ZigzagDecoder::new(Arc::clone(graph), reference)),
            Box::new(ZigzagDecoder::new(Arc::clone(graph), f32_config())),
        ),
    ]
}

fn assert_tracks_reference(label: &str, graph: &Arc<TannerGraph>, frames: &[Vec<f64>]) {
    for (schedule, mut reference, mut fast) in decoder_pairs(graph) {
        for (index, llrs) in frames.iter().enumerate() {
            let want = reference.decode(llrs);
            let got = fast.decode(llrs);
            // A frame the reference cannot decode is chaotic in its last
            // bits; there only the iteration count is held.
            if want.converged {
                assert!(got.converged, "{label} {schedule} frame {index}: did not converge");
                assert_eq!(got.bits, want.bits, "{label} {schedule} frame {index}: decoded word");
            }
            assert!(
                got.iterations.abs_diff(want.iterations) <= 1,
                "{label} {schedule} frame {index}: {} iterations, reference {}",
                got.iterations,
                want.iterations
            );
        }
    }
}

#[test]
fn f32_sum_product_tracks_f64_on_dvbs2_codes() {
    // The regression suite's frame set on R1/2 (clean, near threshold, below
    // threshold), then the two served rates at the ends of the degree range:
    // R1/4 (check degree 4, two information edges per check) and R3/4.
    let mut r1_2: Vec<(f64, u64)> =
        (0..4).flat_map(|seed| [(2.0, 9000 + seed), (1.0, 9100 + seed)]).collect();
    r1_2.push((0.2, 9200));
    let sets = [
        (CodeRate::R1_2, r1_2),
        (CodeRate::R1_4, (0..3).map(|seed| (1.6, 9300 + seed)).collect()),
        (CodeRate::R3_4, (0..3).map(|seed| (2.8, 9400 + seed)).collect()),
    ];
    for (rate, points) in sets {
        let code = DvbS2Code::new(rate, FrameSize::Short).unwrap();
        let graph = Arc::new(code.tanner_graph());
        let frames: Vec<Vec<f64>> =
            points.iter().map(|&(ebn0_db, seed)| noisy_llrs(&code, ebn0_db, seed).1).collect();
        assert_tracks_reference(&format!("{rate:?}"), &graph, &frames);
    }
}

/// A 360-bit-group IRA code small enough to pick its check degree freely:
/// `info_degree` information edges on every check, check 0 included.
fn tiny_chain_graph(info_degree: usize) -> TannerGraph {
    let q = 3;
    let k = if info_degree == 0 { 0 } else { 360 };
    let n_check = 360 * q;
    let params = CodeParams {
        rate: CodeRate::R1_4, // nominal: only the sizes below are used
        frame: FrameSize::Short,
        n: k + n_check,
        k,
        n_check,
        q,
        check_degree: info_degree + 2,
        hi: DegreeClass { count: k, degree: 3 * info_degree },
        lo: DegreeClass { count: 0, degree: 3 },
    };
    // One group of 360 bits; bit m reaches checks `x + 3 m`, so the row
    // 0..3·info_degree gives every check exactly `info_degree` edges.
    let rows = if k == 0 { vec![] } else { vec![(0..3 * info_degree as u32).collect()] };
    let table = AddressTable::from_rows(&params, rows).expect("balanced rows");
    TannerGraph::for_code(&params, &table)
}

#[test]
fn f32_sum_product_tracks_f64_on_tiny_chains_on_both_layouts() {
    // Information degrees 0 and 1 leave the graph without the rotation
    // planes (check 0 needs two information edges), so both schedules run
    // the scalar pass or sweep; 2 and 3 run the planes, where check 0's
    // missing left input is the `+∞` pad. Every linear code holds the
    // all-zero word, so noisy positive LLRs are valid frames.
    for info_degree in 0..=3 {
        let graph = Arc::new(tiny_chain_graph(info_degree));
        assert_eq!(graph.check_degree(0), info_degree + 1);
        assert_eq!(graph.check_degree(1), info_degree + 2);
        let frames: Vec<Vec<f64>> = (0..6u64)
            .map(|seed| {
                let mut rng = SplitMix64(77 + seed);
                let sigma = 0.5 + 0.04 * seed as f64;
                (0..graph.var_count())
                    .map(|_| 2.0 * (1.0 + sigma * rng.next_gaussian()) / (sigma * sigma))
                    .collect()
            })
            .collect();
        assert_tracks_reference(&format!("info degree {info_degree}"), &graph, &frames);
    }
}

#[test]
fn f32_sum_product_survives_erased_and_saturated_inputs() {
    let code = DvbS2Code::new(CodeRate::R1_2, FrameSize::Short).unwrap();
    let graph = Arc::new(code.tanner_graph());
    let (codeword, mut llrs) = noisy_llrs(&code, 2.0, 11);
    for (i, l) in llrs.iter_mut().enumerate() {
        let sign = if codeword.get(i) { -1.0 } else { 1.0 };
        match i % 23 {
            0 => *l = 0.0,
            1 => *l = f64::NAN,
            2 => *l = sign * f64::INFINITY,
            3 => *l = sign * 1e300,
            _ => {}
        }
    }
    assert_tracks_reference("erased/saturated", &graph, &[llrs]);
}

#[test]
fn f32_sum_product_is_bit_identical_across_simd_tiers() {
    // Every tier-dispatched float kernel — the f32 sum-product lane passes
    // and the flooding min-sum pass in both precisions — must give the
    // scalar tier's full DecodeResult bit for bit (CI also forces
    // DVBS2_SIMD=scalar over this suite).
    type Make = fn(&Arc<TannerGraph>, DecoderConfig) -> (Box<dyn Decoder>, SimdTier);
    let flooding: Make = |graph, config| {
        let decoder = FloodingDecoder::new(Arc::clone(graph), config);
        let tier = decoder.simd_tier();
        (Box::new(decoder), tier)
    };
    let zigzag: Make = |graph, config| {
        let decoder = ZigzagDecoder::new(Arc::clone(graph), config);
        let tier = decoder.simd_tier();
        (Box::new(decoder), tier)
    };
    let min_sum = |rule, precision| reference_config().with_rule(rule).with_precision(precision);
    let normalized = CheckRule::NormalizedMinSum(0.8);
    let offset = CheckRule::OffsetMinSum(0.15);
    let inputs: [(&str, Make, DecoderConfig); 6] = [
        ("flooding sum-product f32", flooding, f32_config()),
        ("zigzag sum-product f32", zigzag, f32_config()),
        ("flooding normalized min-sum f32", flooding, min_sum(normalized, Precision::F32)),
        ("flooding normalized min-sum f64", flooding, min_sum(normalized, Precision::F64)),
        ("flooding offset min-sum f32", flooding, min_sum(offset, Precision::F32)),
        ("flooding offset min-sum f64", flooding, min_sum(offset, Precision::F64)),
    ];
    let code = DvbS2Code::new(CodeRate::R1_2, FrameSize::Short).unwrap();
    let graph = Arc::new(code.tanner_graph());
    let frames: Vec<Vec<f64>> = [(2.0, 300), (1.0, 301), (0.2, 302)]
        .iter()
        .map(|&(ebn0_db, seed)| noisy_llrs(&code, ebn0_db, seed).1)
        .collect();
    for (label, make, config) in inputs {
        let (mut reference, _) = make(&graph, config.with_simd_tier(Some(SimdTier::Scalar)));
        let want: Vec<_> = frames.iter().map(|llrs| reference.decode(llrs)).collect();
        for tier in SimdTier::available() {
            let (mut decoder, resolved) = make(&graph, config.with_simd_tier(Some(tier)));
            assert_eq!(resolved, tier, "{label}");
            for (index, llrs) in frames.iter().enumerate() {
                assert_eq!(decoder.decode(llrs), want[index], "{label} {tier:?} frame {index}");
            }
        }
    }
}
