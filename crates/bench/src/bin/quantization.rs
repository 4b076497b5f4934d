//! Regenerates the **Section 2.1 quantization claims**: "the total
//! quantization loss is 0.1 dB when using a 6 bit message quantization
//! compared to infinite precision. For a 5 bit message quantization the
//! loss is larger."
//!
//! Sweeps Eb/N0 for the float, 6-bit and 5-bit zigzag decoders and
//! interpolates the Eb/N0 needed for a target BER.
//!
//! Then counts, at the stack benchmark's four anchor points, the frames
//! the served 6-bit datapath leaves non-converged and how many of them
//! still carry an exact information word (codeword FER vs information FER).
//!
//! Run: `cargo run --release -p dvbs2-bench --bin quantization [--frames N]`

use dvbs2::channel::Modulation;
use dvbs2::decoder::Quantizer;
use dvbs2::ldpc::{CodeRate, FrameSize};
use dvbs2::{DecoderKind, DecoderProfile, Dvbs2System, SystemConfig};
use dvbs2_bench::{ber_point, ebn0_at_ber, sci, system, BerPoint};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn sweep(decoder: DecoderKind, label: &str, frames: usize) -> Vec<BerPoint> {
    let points: Vec<f64> = vec![0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6];
    println!("\n{label}:");
    println!("{:>9} {:>12} {:>12} {:>8}", "Eb/N0[dB]", "BER", "FER", "frames");
    let mut out = Vec::new();
    for ebn0 in points {
        let sys = system(CodeRate::R1_2, FrameSize::Short, decoder, 30);
        let p = ber_point(&sys, ebn0, frames, 30);
        println!("{:>9.2} {:>12} {:>12} {:>8}", ebn0, sci(p.ber), sci(p.fer), p.frames);
        out.push(p);
    }
    out
}

/// Codeword FER vs information FER of the served decoder at
/// `serve_mixed_default`'s operating points (short QPSK frames): the
/// quantized zigzag's residue on weak degree-2 parity nodes fails the
/// syndrome test without touching the information word.
fn parity_residue_table(frames: usize) {
    println!(
        "\nServed 6-bit datapath at the stack benchmark's anchors, short QPSK frames, \
         {frames} frames per point:"
    );
    println!(
        "{:>5} {:>9} {:>13} {:>11} {:>10} {:>12} {:>8} {:>8}",
        "rate",
        "Eb/N0[dB]",
        "non-converged",
        "parity bits",
        "info exact",
        "max info err",
        "cw FER",
        "info FER"
    );
    for (rate, ebn0_db) in
        [(CodeRate::R1_4, 2.2), (CodeRate::R1_2, 1.4), (CodeRate::R3_4, 2.8), (CodeRate::R8_9, 4.2)]
    {
        let profile = DecoderProfile::default_for(rate, FrameSize::Short);
        let system = Dvbs2System::new(SystemConfig {
            rate,
            frame: FrameSize::Short,
            modulation: Modulation::Qpsk,
            decoder: profile.kind,
            decoder_config: profile.config,
            ..SystemConfig::default()
        })
        .expect("valid configuration");
        let k = system.params().k;
        let mut decoder = system.make_decoder();
        let mut rng = SmallRng::seed_from_u64(300 + rate as u64);
        let (mut non_converged, mut info_exact, mut info_failed, mut max_info) = (0, 0, 0, 0);
        let (mut parity_lo, mut parity_hi) = (usize::MAX, 0);
        for _ in 0..frames {
            let tx = system.transmit_frame(&mut rng, ebn0_db);
            let out = decoder.decode(&tx.llrs);
            let info = out.info_bit_errors(&tx.codeword, k);
            info_failed += usize::from(info > 0);
            if !out.converged {
                let parity = out.bits.hamming_distance(&tx.codeword) - info;
                non_converged += 1;
                info_exact += usize::from(info == 0);
                max_info = max_info.max(info);
                (parity_lo, parity_hi) = (parity_lo.min(parity), parity_hi.max(parity));
            }
        }
        let parity_range =
            if non_converged == 0 { "-".into() } else { format!("{parity_lo}-{parity_hi}") };
        println!(
            "{:>5} {:>9.1} {:>13} {:>11} {:>10} {:>12} {:>8} {:>8}",
            rate.to_string(),
            ebn0_db,
            non_converged,
            parity_range,
            info_exact,
            max_info,
            sci(non_converged as f64 / frames as f64),
            sci(info_failed as f64 / frames as f64)
        );
    }
}

fn main() {
    let frames: usize = std::env::args()
        .skip_while(|a| a != "--frames")
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(150);
    println!(
        "Quantization loss, rate 1/2 short frames, zigzag schedule, 30 iterations, \
         {frames} frames per point"
    );

    let float = sweep(DecoderKind::Zigzag, "float (infinite precision)", frames);
    let q6 = sweep(
        DecoderKind::Quantized(Quantizer::paper_6bit()),
        "6-bit messages (paper's choice)",
        frames,
    );
    let q5 = sweep(DecoderKind::Quantized(Quantizer::paper_5bit()), "5-bit messages", frames);

    let target = 1e-3;
    println!("\nEb/N0 @ BER {target:.0e} (interpolated):");
    let reference = ebn0_at_ber(&float, target);
    for (label, points) in [("float", &float), ("6-bit", &q6), ("5-bit", &q5)] {
        match (ebn0_at_ber(points, target), reference) {
            (Some(x), Some(r)) => {
                println!("  {label:<7} {x:>6.2} dB   loss vs float: {:+.2} dB", x - r)
            }
            _ => println!("  {label:<7} not bracketed by the sweep (raise --frames)"),
        }
    }
    println!("\nPaper claim: ~0.1 dB loss at 6 bits; larger at 5 bits.");

    parity_residue_table(2 * frames);
}
