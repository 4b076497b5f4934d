//! `dvbs2` — command-line front end for the DVB-S2 LDPC IP-core
//! reproduction.
//!
//! ```text
//! dvbs2 info  [RATE] [--short]                    code parameters
//! dvbs2 ber   RATE EBN0_DB [--frames N] [--short] [--decoder NAME]
//! dvbs2 hw    [RATE]                              cycles/throughput/area
//! dvbs2 vectors RATE EBN0_DB FRAMES SEED          golden vectors to stdout
//! ```

use dvbs2::channel::{default_threads, shannon_limit_biawgn_db, StopRule};
use dvbs2::decoder::{DecoderConfig, Quantizer};
use dvbs2::hardware::{
    AreaModel, ConnectivityRom, CoreConfig, HardwareDecoder, TestVectorSet, ThroughputModel,
    ST_0_13_UM,
};
use dvbs2::ldpc::{CodeParams, CodeRate, DvbS2Code, FrameSize};
use dvbs2::{DecoderKind, Dvbs2System, SystemConfig};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  dvbs2 info  [RATE] [--short]\n  dvbs2 ber   RATE EBN0_DB [--frames N] \
         [--short] [--decoder zigzag|flooding|quantized|bitflip]\n  dvbs2 hw    [RATE]\n  \
         dvbs2 vectors RATE EBN0_DB FRAMES SEED\nRATE is one of 1/4 1/3 2/5 1/2 3/5 2/3 3/4 4/5 \
         5/6 8/9 9/10"
    );
    ExitCode::FAILURE
}

fn parse_rate(s: &str) -> Option<CodeRate> {
    s.parse().ok()
}

fn parse_decoder(s: &str) -> Option<DecoderKind> {
    match s {
        "zigzag" => Some(DecoderKind::Zigzag),
        "flooding" => Some(DecoderKind::Flooding),
        "quantized" => Some(DecoderKind::Quantized(Quantizer::paper_6bit())),
        "bitflip" => Some(DecoderKind::BitFlipping),
        _ => None,
    }
}

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn option<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn cmd_info(args: &[String]) -> Option<()> {
    let frame = if flag(args, "--short") { FrameSize::Short } else { FrameSize::Normal };
    let rates: Vec<CodeRate> = match args.first().filter(|a| !a.starts_with("--")) {
        Some(r) => vec![parse_rate(r)?],
        None => CodeRate::ALL.to_vec(),
    };
    println!(
        "{:>6} {:>8} {:>8} {:>4} {:>4} {:>8} {:>6} {:>12}",
        "rate", "K", "N-K", "j", "k", "E_IN", "Addr", "Shannon [dB]"
    );
    for rate in rates {
        let p = CodeParams::new(rate, frame).ok()?;
        println!(
            "{:>6} {:>8} {:>8} {:>4} {:>4} {:>8} {:>6} {:>12.3}",
            rate.to_string(),
            p.k,
            p.n_check,
            p.hi.degree,
            p.check_degree,
            p.e_in(),
            p.addr_entries(),
            shannon_limit_biawgn_db(p.k as f64 / p.n as f64)
        );
    }
    Some(())
}

fn cmd_ber(args: &[String]) -> Option<()> {
    let rate = parse_rate(args.first()?)?;
    let ebn0: f64 = args.get(1)?.parse().ok()?;
    let frames: usize = option(args, "--frames").map_or(Some(50), |v| v.parse().ok())?;
    let frame = if flag(args, "--short") { FrameSize::Short } else { FrameSize::Normal };
    let decoder = option(args, "--decoder").map_or(Some(DecoderKind::Zigzag), parse_decoder)?;
    let system = Dvbs2System::new(SystemConfig {
        rate,
        frame,
        decoder,
        decoder_config: DecoderConfig::default(),
        ..SystemConfig::default()
    })
    .ok()?;
    let est = system.simulate_ber(
        ebn0,
        StopRule { max_frames: frames, target_frame_errors: 50 },
        default_threads(),
    );
    println!(
        "rate {rate} {frame} @ {ebn0} dB ({decoder:?}): BER {:.3e}  FER {:.3e}  \
         over {} frames, {:.1} iterations/frame",
        est.ber(),
        est.fer(),
        est.frames,
        est.avg_iterations()
    );
    Some(())
}

fn cmd_hw(args: &[String]) -> Option<()> {
    let rate = match args.first() {
        Some(r) => parse_rate(r)?,
        None => CodeRate::R1_2,
    };
    let code = DvbS2Code::new(rate, FrameSize::Normal).ok()?;
    let params = *code.params();
    let model = ThroughputModel::paper(&ST_0_13_UM);
    let mut hw = HardwareDecoder::with_natural_schedule(&code, CoreConfig::default());
    let channel = vec![15i32; params.n]; // any frame: cycle counts are data-independent
    let out = hw.decode_quantized(&channel);
    let rom = ConnectivityRom::build(&params, code.table());
    println!("rate {rate} normal frame, 30 iterations @ {} MHz:", model.clock_mhz);
    println!(
        "  cycles: measured {} (Eq. 8: {}), throughput {:.1} Mbit/s (Eq. 8: {:.1})",
        out.cycles.total_cycles,
        model.cycles(&params),
        out.cycles.throughput_mbps(model.clock_mhz, params.k),
        model.throughput_mbps(&params)
    );
    println!(
        "  connectivity: {} (shift, address) entries = {} bits",
        rom.words(),
        rom.storage_bits()
    );
    println!("  multi-rate core area ({}):", ST_0_13_UM.name);
    print!("{}", AreaModel::paper().report(FrameSize::Normal));
    Some(())
}

fn cmd_vectors(args: &[String]) -> Option<()> {
    let rate = parse_rate(args.first()?)?;
    let ebn0: f64 = args.get(1)?.parse().ok()?;
    let frames: usize = args.get(2)?.parse().ok()?;
    let seed: u64 = args.get(3)?.parse().ok()?;
    let set = TestVectorSet::generate(
        rate,
        FrameSize::Short,
        Quantizer::paper_6bit(),
        frames,
        ebn0,
        seed,
    );
    print!("{}", set.to_text());
    Some(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    let ok = match cmd.as_str() {
        "info" => cmd_info(rest),
        "ber" => cmd_ber(rest),
        "hw" => cmd_hw(rest),
        "vectors" => cmd_vectors(rest),
        _ => None,
    };
    match ok {
        Some(()) => ExitCode::SUCCESS,
        None => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_parse() {
        assert_eq!(parse_rate("1/2"), Some(CodeRate::R1_2));
        assert_eq!(parse_rate("9/10"), Some(CodeRate::R9_10));
        assert_eq!(parse_rate("7/8"), None);
    }

    #[test]
    fn decoders_parse() {
        assert!(matches!(parse_decoder("zigzag"), Some(DecoderKind::Zigzag)));
        assert!(matches!(parse_decoder("bitflip"), Some(DecoderKind::BitFlipping)));
        assert!(parse_decoder("magic").is_none());
    }

    #[test]
    fn flags_and_options() {
        let args: Vec<String> =
            ["--short", "--frames", "25"].iter().map(|s| s.to_string()).collect();
        assert!(flag(&args, "--short"));
        assert!(!flag(&args, "--long"));
        assert_eq!(option(&args, "--frames"), Some("25"));
        assert_eq!(option(&args, "--seed"), None);
    }

    #[test]
    fn info_runs_for_every_rate() {
        assert!(cmd_info(&[]).is_some());
        assert!(cmd_info(&["1/2".into(), "--short".into()]).is_some());
        assert!(cmd_info(&["7/8".into()]).is_none());
    }
}
