//! End-to-end transmission tests across decoders, rates and frame sizes.

use dvbs2::channel::StopRule;
use dvbs2::decoder::{CheckRule, DecoderConfig, Quantizer};
use dvbs2::ldpc::{CodeRate, FrameSize};
use dvbs2::{DecoderKind, Dvbs2System, FecChain, SystemConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn system(rate: CodeRate, frame: FrameSize, decoder: DecoderKind) -> Dvbs2System {
    Dvbs2System::new(SystemConfig { rate, frame, decoder, ..SystemConfig::default() }).unwrap()
}

#[test]
fn normal_frame_rate_half_decodes_near_threshold() {
    // The paper's headline code at ~1 dB (≈ 0.8 dB from Shannon).
    let sys = system(CodeRate::R1_2, FrameSize::Normal, DecoderKind::Zigzag);
    let mut rng = SmallRng::seed_from_u64(7);
    let frame = sys.transmit_frame(&mut rng, 1.2);
    let out = sys.make_decoder().decode(&frame.llrs);
    assert!(out.converged, "did not converge at 1.2 dB");
    assert_eq!(out.bits, frame.codeword);
}

#[test]
fn every_short_rate_decodes_at_high_snr() {
    let mut rng = SmallRng::seed_from_u64(11);
    for rate in CodeRate::ALL {
        if rate == CodeRate::R9_10 {
            continue; // undefined for short frames
        }
        let sys = system(rate, FrameSize::Short, DecoderKind::Zigzag);
        // High-rate codes need more Eb/N0; 6 dB clears every threshold.
        let frame = sys.transmit_frame(&mut rng, 6.0);
        let out = sys.make_decoder().decode(&frame.llrs);
        assert_eq!(out.bits, frame.codeword, "rate {rate}");
    }
}

#[test]
fn quantized_decoder_matches_float_at_operating_point() {
    let float_sys = system(CodeRate::R1_2, FrameSize::Short, DecoderKind::Zigzag);
    let quant_sys =
        system(CodeRate::R1_2, FrameSize::Short, DecoderKind::Quantized(Quantizer::paper_6bit()));
    let mut rng = SmallRng::seed_from_u64(23);
    for _ in 0..3 {
        let frame = float_sys.transmit_frame(&mut rng, 3.0);
        let f = float_sys.make_decoder().decode(&frame.llrs);
        let q = quant_sys.make_decoder().decode(&frame.llrs);
        assert_eq!(f.bits, frame.codeword);
        assert_eq!(q.bits, frame.codeword);
    }
}

#[test]
fn min_sum_system_works_end_to_end() {
    let sys = Dvbs2System::new(SystemConfig {
        rate: CodeRate::R2_3,
        frame: FrameSize::Short,
        decoder: DecoderKind::Flooding,
        decoder_config: DecoderConfig::default()
            .with_rule(CheckRule::NormalizedMinSum(0.8))
            .with_max_iterations(40),
        ..SystemConfig::default()
    })
    .unwrap();
    let mut rng = SmallRng::seed_from_u64(31);
    let frame = sys.transmit_frame(&mut rng, 4.5);
    let out = sys.make_decoder().decode(&frame.llrs);
    assert_eq!(out.bits, frame.codeword);
}

#[test]
fn zigzag_needs_fewer_iterations_than_flooding_in_aggregate() {
    // The Fig. 2 claim, measured through the public API.
    let zig = system(CodeRate::R1_2, FrameSize::Short, DecoderKind::Zigzag);
    let flood = system(CodeRate::R1_2, FrameSize::Short, DecoderKind::Flooding);
    let stop = StopRule::frames(10);
    let z = zig.simulate_ber(2.2, stop, 2);
    let f = flood.simulate_ber(2.2, stop, 2);
    assert!(
        z.avg_iterations() < f.avg_iterations(),
        "zigzag {} vs flooding {}",
        z.avg_iterations(),
        f.avg_iterations()
    );
}

#[test]
fn psk8_with_interleaver_decodes() {
    // 8PSK at the same Eb/N0 needs more margin than BPSK; 6 dB is ample
    // for rate 1/2.
    let sys = Dvbs2System::new(SystemConfig {
        rate: CodeRate::R1_2,
        frame: FrameSize::Short,
        modulation: dvbs2::channel::Modulation::Psk8,
        decoder: DecoderKind::Zigzag,
        ..SystemConfig::default()
    })
    .unwrap();
    let mut rng = SmallRng::seed_from_u64(37);
    let frame = sys.transmit_frame(&mut rng, 6.0);
    assert_eq!(frame.llrs.len(), sys.params().n);
    let out = sys.make_decoder().decode(&frame.llrs);
    assert!(out.converged);
    assert_eq!(out.bits, frame.codeword);
}

#[test]
fn psk8_needs_more_ebn0_than_bpsk() {
    // Spectral efficiency costs SNR: at 1.3 dB (just past the BPSK
    // waterfall) the BPSK system is clean while 8PSK still fails frames.
    let mk = |modulation| {
        Dvbs2System::new(SystemConfig {
            rate: CodeRate::R1_2,
            frame: FrameSize::Short,
            modulation,
            ..SystemConfig::default()
        })
        .unwrap()
    };
    let bpsk = mk(dvbs2::channel::Modulation::Bpsk);
    let psk8 = mk(dvbs2::channel::Modulation::Psk8);
    let stop = StopRule::frames(8);
    let b = bpsk.simulate_ber(1.3, stop, 2);
    let p = psk8.simulate_ber(1.3, stop, 2);
    assert_eq!(b.frame_errors, 0, "BPSK must be clean at 1.3 dB");
    assert!(p.frame_errors > 0, "8PSK should still fail at 1.3 dB");
}

#[test]
fn apsk16_chain_decodes_at_high_snr() {
    // 16APSK wired manually around the code (the Dvbs2System facade covers
    // BPSK/QPSK/8PSK; APSK is the standard's next step up).
    use dvbs2::channel::{AwgnChannel, Constellation};
    use dvbs2::decoder::{Decoder as _, DecoderConfig, ZigzagDecoder};
    use dvbs2::ldpc::DvbS2Code;
    use std::sync::Arc;

    let code = DvbS2Code::new(CodeRate::R2_3, FrameSize::Short).unwrap();
    let p = *code.params();
    let constellation = Constellation::apsk16(3.15);
    let enc = code.encoder().unwrap();
    let mut rng = SmallRng::seed_from_u64(77);
    let cw = enc.encode(&enc.random_message(&mut rng)).unwrap();

    let mut samples = constellation.modulate(&cw);
    let sigma = constellation.noise_sigma(9.0, p.k as f64 / p.n as f64);
    AwgnChannel::new(sigma).corrupt(&mut rng, &mut samples);
    let llrs = constellation.demap(&samples, sigma);

    let mut dec = ZigzagDecoder::new(Arc::new(code.tanner_graph()), DecoderConfig::default());
    let out = dec.decode(&llrs);
    assert!(out.converged, "16APSK at 9 dB should decode");
    assert_eq!(out.bits, cw);
}

#[test]
fn undecodable_snr_reports_failure_not_panic() {
    let sys = system(CodeRate::R9_10, FrameSize::Normal, DecoderKind::Zigzag);
    let mut rng = SmallRng::seed_from_u64(41);
    let frame = sys.transmit_frame(&mut rng, -3.0);
    let out = sys.make_decoder().decode(&frame.llrs);
    assert!(!out.converged);
    assert!(out.bits.hamming_distance(&frame.codeword) > 0);
}

#[test]
fn parity_residue_frames_deliver_exact_data_through_the_fec_chain() {
    // Near the waterfall the served 6-bit datapath leaves a few wrong
    // *parity* bits on the odd frame: the LDPC decode reports
    // non-converged, yet the information word is exact, and the FEC chain
    // must hand the data field on untouched (DESIGN.md §8).
    use dvbs2::channel::{noise_sigma, AwgnChannel, Modulation};
    let mut chain = FecChain::new(SystemConfig {
        rate: CodeRate::R1_2,
        frame: FrameSize::Short,
        decoder: DecoderKind::Quantized(Quantizer::paper_6bit()),
        ..SystemConfig::default()
    })
    .unwrap();
    let sigma = noise_sigma(1.4, chain.rate());
    let mut rng = SmallRng::seed_from_u64(1400);
    let mut parity_only = 0;
    for frame in 0..150 {
        let data = chain.random_data(&mut rng);
        let mut samples = Modulation::Bpsk.modulate(&chain.encode(&data).unwrap());
        AwgnChannel::new(sigma).corrupt(&mut rng, &mut samples);
        let out = chain.decode(&Modulation::Bpsk.demap(&samples, sigma));
        assert_eq!(out.data, data, "frame {frame}: {out:?}");
        if !out.ldpc_converged && out.bch_corrected == Some(0) {
            parity_only += 1;
        }
    }
    assert!(parity_only > 0, "no frame ended with parity-only residue");
}
