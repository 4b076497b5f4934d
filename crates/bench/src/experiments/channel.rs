//! The communications experiments: seeded Monte-Carlo BER runs (Fig. 2,
//! quantization loss, gap to Shannon, the girth, BCH and early-termination
//! ablations) and the analytic thresholds behind them.

use super::Tables;
use crate::args::Parsed;
use crate::table::{Cell, Table};
use crate::{ber_point, ebn0_at_ber, sci, system, BerPoint};
use dvbs2::channel::{noise_sigma, shannon_limit_biawgn_db, AwgnChannel, Modulation, StopRule};
use dvbs2::decoder::{
    ga_threshold_ebn0_db, Decoder, DecoderConfig, DegreeDistribution, DensityEvolution, Quantizer,
    ZigzagDecoder,
};
use dvbs2::hardware::{ThroughputModel, ST_0_13_UM};
use dvbs2::ldpc::{
    AddressTable, CodeParams, CodeRate, DvbS2Code, FrameSize, TableOptions, TannerGraph,
};
use dvbs2::{DecoderKind, DecoderProfile, Dvbs2System, FecChain, SystemConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

fn frame_size(args: &Parsed) -> FrameSize {
    if args.has("--normal") {
        FrameSize::Normal
    } else {
        FrameSize::Short
    }
}

fn frames(args: &Parsed, default: usize) -> usize {
    args.number("--frames").map_or(default, |n| n as usize)
}

/// **Figure 2 / Section 2.2**: the optimized zigzag parity update reaches
/// the conventional two-phase schedule's BER with ~10 fewer iterations
/// ("30 iterations instead of 40"). Sweeps the iteration cap for both
/// schedules at a fixed near-threshold Eb/N0.
pub fn fig2_schedules(args: &Parsed) -> Tables {
    let frame = frame_size(args);
    let (ebn0, frames) = if frame == FrameSize::Normal { (1.0, 12) } else { (1.0, 40) };
    let mut table = Table::new(
        format!(
            "Figure 2: conventional (flooding) vs optimized (zigzag) schedule\n\
             Rate 1/2 {frame} frames at Eb/N0 = {ebn0} dB, {frames} frames per point"
        ),
        &["iters", "flooding BER", "zigzag BER", "flood iters", "zig iters"],
    );
    let (mut flood_clean, mut zig_clean) = (None, None);
    for cap in [5usize, 10, 15, 20, 25, 30, 40, 50] {
        let point = |kind| ber_point(&system(CodeRate::R1_2, frame, kind, cap), ebn0, frames, 0);
        let (flood, zig) = (point(DecoderKind::Flooding), point(DecoderKind::Zigzag));
        table.row(vec![
            cap.into(),
            sci(flood.ber).into(),
            sci(zig.ber).into(),
            Cell::num(flood.avg_iterations, 1),
            Cell::num(zig.avg_iterations, 1),
        ]);
        if flood.ber == 0.0 {
            flood_clean.get_or_insert(cap);
        }
        if zig.ber == 0.0 {
            zig_clean.get_or_insert(cap);
        }
    }
    table.note(match (zig_clean, flood_clean) {
        (Some(z), Some(f)) => format!(
            "Clean-frame regime reached at {z} iterations (zigzag) vs {f} (flooding): \
             {} iterations saved.\n\
             Paper claim: 30 iterations with the optimized schedule match 40 without.",
            f.saturating_sub(z)
        ),
        _ => "Increase frames/SNR to reach the clean regime; partial data printed above.".into(),
    });
    table.note(
        "Memory payoff (Section 2.2): only backward messages stored — E_PN/2 ≈ N-K values \
         instead of E_PN.",
    );
    Ok(vec![table])
}

fn quantization_sweep(decoder: DecoderKind, label: &str, frames: usize) -> (Table, Vec<BerPoint>) {
    let mut table = Table::new(format!("{label}:"), &["Eb/N0[dB]", "BER", "FER", "frames"]);
    let mut points = Vec::new();
    for ebn0 in [0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6] {
        let p = ber_point(&system(CodeRate::R1_2, FrameSize::Short, decoder, 30), ebn0, frames, 30);
        table.row(vec![Cell::num(ebn0, 2), sci(p.ber).into(), sci(p.fer).into(), p.frames.into()]);
        points.push(p);
    }
    (table, points)
}

/// Codeword FER vs information FER of the served decoder at
/// `serve_mixed_default`'s operating points (short QPSK frames): the
/// quantized zigzag's residue on weak degree-2 parity nodes fails the
/// syndrome test without touching the information word.
fn parity_residue_table(frames: usize) -> Table {
    let mut table = Table::new(
        format!(
            "Served 6-bit datapath at the stack benchmark's anchors, short QPSK frames, \
             {frames} frames per point:"
        ),
        &[
            "rate",
            "Eb/N0[dB]",
            "non-converged",
            "parity bits",
            "info exact",
            "max info err",
            "cw FER",
            "info FER",
        ],
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
        let (mut non_converged, mut info_exact, mut info_failed, mut max_info) =
            (0usize, 0usize, 0usize, 0);
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
        table.row(vec![
            rate.to_string().into(),
            Cell::num(ebn0_db, 1),
            non_converged.into(),
            if non_converged == 0 {
                Cell::none()
            } else {
                format!("{parity_lo}-{parity_hi}").into()
            },
            info_exact.into(),
            max_info.into(),
            sci(non_converged as f64 / frames as f64).into(),
            sci(info_failed as f64 / frames as f64).into(),
        ]);
    }
    table
}

/// **Section 2.1**: "the total quantization loss is 0.1 dB when using a
/// 6 bit message quantization compared to infinite precision. For a 5 bit
/// message quantization the loss is larger." Sweeps Eb/N0 for the float,
/// 6-bit and 5-bit zigzag decoders, interpolates the Eb/N0 at a target
/// BER, then counts the frames the served 6-bit datapath leaves
/// non-converged at the stack benchmark's anchors.
pub fn quantization(args: &Parsed) -> Tables {
    let frames = frames(args, 150);
    let sweeps = [
        (DecoderKind::Zigzag, "float", "float (infinite precision)"),
        (
            DecoderKind::Quantized(Quantizer::paper_6bit()),
            "6-bit",
            "6-bit messages (paper's choice)",
        ),
        (DecoderKind::Quantized(Quantizer::paper_5bit()), "5-bit", "5-bit messages"),
    ];
    let mut tables = vec![Table::new(
        format!(
            "Quantization loss, rate 1/2 short frames, zigzag schedule, 30 iterations, \
             {frames} frames per point"
        ),
        &[],
    )];
    let mut curves = Vec::new();
    for (decoder, short, label) in sweeps {
        let (table, points) = quantization_sweep(decoder, label, frames);
        tables.push(table);
        curves.push((short, points));
    }

    let target = 1e-3;
    let mut loss = Table::new(
        format!("Eb/N0 @ BER {target:.0e} (interpolated):"),
        &["precision", "Eb/N0[dB]", "loss vs float [dB]"],
    );
    let reference = ebn0_at_ber(&curves[0].1, target);
    for (label, points) in &curves {
        loss.row(match (ebn0_at_ber(points, target), reference) {
            (Some(x), Some(r)) => {
                vec![(*label).into(), Cell::num(x, 2), format!("{:+.2}", x - r).into()]
            }
            _ => vec![(*label).into(), Cell::none(), "not bracketed (raise --frames)".into()],
        });
    }
    loss.note("Paper claim: ~0.1 dB loss at 6 bits; larger at 5 bits.");
    tables.push(loss);
    tables.push(parity_residue_table(2 * frames));
    Ok(tables)
}

/// The rates `thresholds` runs exact density evolution for by default
/// (~25 s each).
pub const DEFAULT_EXACT_DE: [CodeRate; 3] = [CodeRate::R1_2, CodeRate::R3_5, CodeRate::R3_4];

/// Analytic backing for "transmission close to the theoretical limit":
/// belief-propagation thresholds of every DVB-S2 degree distribution
/// against the binary-input AWGN Shannon limit — by Gaussian approximation
/// for all rates and by exact discretized density evolution for `exact`.
pub fn thresholds(exact: &[CodeRate]) -> Tables {
    let engine = DensityEvolution::default_grid();
    let mut table = Table::new(
        "BP thresholds vs Shannon, normal frames\n\
         (GA = Gaussian approximation; DE = exact discretized density evolution)",
        &["rate", "R", "Shannon [dB]", "GA [dB]", "DE [dB]", "DE gap"],
    );
    for rate in CodeRate::ALL {
        let p = CodeParams::new(rate, FrameSize::Normal)?;
        let r = p.k as f64 / p.n as f64;
        let dist = DegreeDistribution::for_code(&p);
        let shannon = shannon_limit_biawgn_db(r);
        let mut row = vec![
            rate.to_string().into(),
            Cell::num(r, 3),
            Cell::num(shannon, 3),
            Cell::num(ga_threshold_ebn0_db(&dist, r), 3),
        ];
        if exact.contains(&rate) {
            let sigma = engine.threshold_sigma(&dist, 500, 1e-6);
            let de = 10.0 * (1.0 / (2.0 * r * sigma * sigma)).log10();
            row.extend([Cell::num(de, 3), Cell::num(de - shannon, 3)]);
        } else {
            row.extend([Cell::none(), Cell::none()]);
        }
        table.row(row);
    }
    if !exact.is_empty() {
        let sigma_reg = engine.threshold_sigma(&DegreeDistribution::regular(3, 6), 500, 1e-6);
        table.note(format!(
            "Reference: (3,6)-regular exact-DE threshold σ* = {sigma_reg:.4} (literature: 0.8809)."
        ));
    }
    table.note(
        "The exact-DE gap of ~0.3 dB for R = 1/2, plus the finite-length loss at \
         N = 64800,\nreproduces the paper's \"≈ 0.7 dB to Shannon\". GA is biased high for \
         these degree-2-heavy\nIRA profiles (worst at low rates) — which is why the exact \
         engine exists.",
    );
    Ok(vec![table])
}

/// Girth-conditioning ablation: the table generator's 4-cycle avoidance
/// (on by default, matching the standard's tables) versus plain random
/// tables — sampled local-girth histograms and the BER consequence at one
/// near-threshold point.
pub fn girth(_: &Parsed) -> Tables {
    let (rate, frame) = (CodeRate::R1_2, FrameSize::Short);
    let params = CodeParams::new(rate, frame)?;
    let (ebn0_db, frames) = (1.1, 60);
    let mut table = Table::new(
        format!(
            "Girth-conditioning ablation, rate {rate} {frame} frames: local girth of 400 sampled \
             nodes (none = no cycle up to 10),\nBER at Eb/N0 = {ebn0_db} dB (zigzag, 30 \
             iterations, {frames} frames)"
        ),
        &["<tables", "girth 4", "girth 6", "girth 8", "girth 10", "none", "BER", "FER"],
    );
    for conditioned in [true, false] {
        let options = TableOptions { avoid_girth4: conditioned, ..TableOptions::default() };
        let address_table = AddressTable::generate(&params, options);
        let graph = TannerGraph::for_code(&params, &address_table);
        let stride = (graph.var_count() / 400).max(1);
        let girths: Vec<usize> = (0..graph.var_count())
            .step_by(stride)
            .map(|v| graph.local_girth(v, 10).unwrap_or(12))
            .collect();
        let count = |g: usize| Cell::from(girths.iter().filter(|&&found| found == g).count());

        let (ber, fer) = if conditioned {
            let system = Dvbs2System::new(SystemConfig { rate, frame, ..SystemConfig::default() })?;
            let threads = dvbs2::channel::default_threads();
            let est = system.simulate_ber(ebn0_db, StopRule::frames(frames), threads);
            (est.ber(), est.fer())
        } else {
            // The facade only builds conditioned codes: a local loop.
            let code = DvbS2Code::from_table(rate, frame, address_table.rows().to_vec())?;
            let enc = code.encoder()?;
            let mut dec = ZigzagDecoder::new(Arc::new(graph), DecoderConfig::default());
            let mut rng = SmallRng::seed_from_u64(99);
            let sigma = noise_sigma(ebn0_db, params.k as f64 / params.n as f64);
            let (mut bit_errors, mut frame_errors) = (0usize, 0usize);
            for _ in 0..frames {
                let cw = enc.encode(&enc.random_message(&mut rng))?;
                let mut samples = Modulation::Bpsk.modulate(&cw);
                AwgnChannel::new(sigma).corrupt(&mut rng, &mut samples);
                let out = dec.decode(&Modulation::Bpsk.demap(&samples, sigma));
                let errs = out.info_bit_errors(&cw, params.k);
                bit_errors += errs;
                frame_errors += usize::from(errs > 0);
            }
            (bit_errors as f64 / (frames * params.k) as f64, frame_errors as f64 / frames as f64)
        };
        table.row(vec![
            if conditioned { "conditioned (default)" } else { "unconditioned" }.into(),
            count(4),
            count(6),
            count(8),
            count(10),
            count(12),
            format!("{ber:.2e}").into(),
            format!("{fer:.2e}").into(),
        ]);
    }
    table.note(
        "4-cycles feed a message back to its sender after two iterations; avoiding them \
         is\nstandard code-construction hygiene and the DVB-S2 annex tables satisfy it.",
    );
    Ok(vec![table])
}

/// The outer-BCH contribution (extension X2): frame error rates before
/// and after the BCH stage across the LDPC waterfall.
pub fn fec_gain(args: &Parsed) -> Tables {
    let frames = frames(args, 80);
    let mut chain = FecChain::new(SystemConfig {
        rate: CodeRate::R1_2,
        frame: FrameSize::Short,
        ..SystemConfig::default()
    })?;
    let mut table = Table::new(
        format!(
            "Outer BCH gain, rate 1/2 short frames, {} data bits, t = 12, {frames} frames/point",
            chain.data_len()
        ),
        &["Eb/N0[dB]", "LDPC FER", "post-BCH FER", "rescued", "flagged"],
    );
    for ebn0 in [0.9f64, 1.0, 1.1, 1.2] {
        let mut rng = SmallRng::seed_from_u64(4242);
        let sigma = noise_sigma(ebn0, chain.rate());
        let (mut ldpc_errors, mut post_errors, mut rescued, mut flagged) =
            (0usize, 0usize, 0usize, 0usize);
        for _ in 0..frames {
            let data = chain.random_data(&mut rng);
            let frame = chain.encode(&data)?;
            let mut samples = Modulation::Bpsk.modulate(&frame);
            AwgnChannel::new(sigma).corrupt(&mut rng, &mut samples);
            let out = chain.decode(&Modulation::Bpsk.demap(&samples, sigma));
            let ldpc_wrong = !out.ldpc_converged || out.bch_corrected.unwrap_or(1) > 0;
            let post_wrong = out.data != data;
            ldpc_errors += usize::from(ldpc_wrong);
            post_errors += usize::from(post_wrong);
            rescued += usize::from(ldpc_wrong && !post_wrong);
            flagged += usize::from(out.bch_corrected.is_none());
        }
        table.row(vec![
            Cell::num(ebn0, 2),
            Cell::num(ldpc_errors as f64 / frames as f64, 3),
            Cell::num(post_errors as f64 / frames as f64, 3),
            rescued.into(),
            flagged.into(),
        ]);
    }
    table.note(
        "The BCH stage converts near-threshold residual-error frames into clean frames\n\
         (rescued) and marks heavy failures (flagged) — no undetected wrong frames.",
    );
    Ok(vec![table])
}

/// Effective throughput with syndrome-based early termination — the gain
/// the paper's fixed-30-iteration accounting leaves on the table: the mean
/// iteration count of the zigzag decoder per Eb/N0, fed into the Eq. 8
/// cycle model.
pub fn dynamic_throughput(_: &Parsed) -> Tables {
    let rate = CodeRate::R1_2;
    // Normal-frame parameters price the hardware; the iteration statistics
    // come from the (much faster) short-frame simulation — iteration
    // counts at matched distance-to-threshold are nearly length-invariant.
    let hw_params = CodeParams::new(rate, FrameSize::Normal)?;
    let model = ThroughputModel::paper(&ST_0_13_UM);
    let fixed = model.throughput_mbps(&hw_params);
    let mut table = Table::new(
        format!(
            "Early-termination throughput, rate {rate} @ {} MHz (fixed 30 iterations: \
             {fixed:.1} Mbit/s)",
            model.clock_mhz
        ),
        &["Eb/N0[dB]", "iters/frame", "T_eff [Mbit/s]", "gain vs fixed", "FER"],
    );
    for ebn0 in [1.2f64, 1.6, 2.0, 2.5, 3.0, 4.0] {
        let pt = ber_point(&system(rate, FrameSize::Short, DecoderKind::Zigzag, 30), ebn0, 40, 0);
        let cycles = model.cycles_at_iterations(&hw_params, pt.avg_iterations);
        let t_eff = hw_params.k as f64 / cycles * model.clock_mhz;
        table.row(vec![
            Cell::num(ebn0, 2),
            Cell::num(pt.avg_iterations, 1),
            Cell::num(t_eff, 1),
            Cell::unit(t_eff / fixed, 2, "x"),
            Cell::num(pt.fer, 2),
        ]);
    }
    table.note(format!(
        "With overlapped frame I/O (double-buffered channel RAM) the fixed-iteration \
         figure itself rises to {:.1} Mbit/s.",
        model.throughput_overlapped_mbps(&hw_params)
    ));
    Ok(vec![table])
}

/// **"≈ 0.7 dB to Shannon"**: BER waterfalls for selected rates against
/// the binary-input AWGN Shannon limit of each true code rate.
pub fn ber_waterfall(args: &Parsed) -> Tables {
    let frame = frame_size(args);
    let normal = frame == FrameSize::Normal;
    let frames = frames(args, if normal { 15 } else { 80 });
    let mut tables = vec![Table::new(
        format!(
            "Gap to Shannon, {frame} frames, zigzag sum-product, 30 iterations\n\
             ({frames} frames per point)"
        ),
        &[],
    )];
    for rate in [CodeRate::R1_4, CodeRate::R1_2, CodeRate::R3_4] {
        let sys = system(rate, frame, DecoderKind::Zigzag, 30);
        let p = sys.params();
        let true_rate = p.k as f64 / p.n as f64;
        let limit = shannon_limit_biawgn_db(true_rate);
        let mut table = Table::new(
            format!("rate {rate} (true {true_rate:.3}), Shannon limit {limit:+.3} dB:"),
            &["Eb/N0[dB]", "gap[dB]", "BER", "FER", "iters"],
        );
        // Points straddling the waterfall: start near the limit.
        for off in if normal { [0.4, 0.6, 0.8, 1.0] } else { [0.4, 0.8, 1.2, 1.6] } {
            let pt = ber_point(&sys, limit + off, frames, 25);
            table.row(vec![
                Cell::num(limit + off, 2),
                Cell::num(off, 2),
                sci(pt.ber).into(),
                sci(pt.fer).into(),
                Cell::num(pt.avg_iterations, 1),
            ]);
        }
        tables.push(table);
    }
    tables.last_mut().expect("one table per rate").note(
        "Paper framing: the N = 64800 codes operate ≈ 0.7 dB from the Shannon limit; short \
         frames (our fast default) sit slightly further out, as expected from block length.",
    );
    Ok(tables)
}
