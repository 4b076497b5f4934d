//! The paper-reproduction and measurement harness.
//!
//! [`experiments`] is the registry behind the `repro` binary: one function
//! per experiment of DESIGN.md §4, each returning typed [`table::Table`]s,
//! with the rows the paper states checked by `repro check`;
//! `EXPERIMENTS.md` records their output against the paper's numbers. The
//! other binaries under `src/bin/` (throughput, BER gates, oracle, soaks)
//! share [`args`] for their command lines and [`json`] for the
//! `BENCH_*.json` records they write.

pub mod args;
pub mod experiments;
pub mod json;
pub mod table;

use dvbs2::channel::StopRule;
use dvbs2::prelude::*;
use dvbs2::{DecoderKind, Dvbs2System, SystemConfig};

/// A measured BER point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BerPoint {
    /// Operating point in dB.
    pub ebn0_db: f64,
    /// Bit error rate.
    pub ber: f64,
    /// Frame error rate.
    pub fer: f64,
    /// Frames simulated.
    pub frames: usize,
    /// Information bits simulated (the measurement floor is `1/(2·bits)`).
    pub info_bits: usize,
    /// Mean iterations per frame.
    pub avg_iterations: f64,
}

impl BerPoint {
    /// BER clamped to the half-an-error measurement floor, so error-free
    /// points can still participate in log-domain interpolation.
    pub fn ber_floored(&self) -> f64 {
        let floor = 0.5 / self.info_bits.max(1) as f64;
        self.ber.max(floor)
    }
}

/// Runs one BER point through the facade's Monte-Carlo harness.
pub fn ber_point(
    system: &Dvbs2System,
    ebn0_db: f64,
    max_frames: usize,
    target_frame_errors: usize,
) -> BerPoint {
    let est = system.simulate_ber(
        ebn0_db,
        StopRule { max_frames, target_frame_errors },
        dvbs2::channel::default_threads(),
    );
    BerPoint {
        ebn0_db,
        ber: est.ber(),
        fer: est.fer(),
        frames: est.frames,
        info_bits: est.info_bits,
        avg_iterations: est.avg_iterations(),
    }
}

/// Builds a simulation system for a rate/frame/decoder triple with the
/// given iteration cap.
pub fn system(
    rate: CodeRate,
    frame: FrameSize,
    decoder: DecoderKind,
    max_iterations: usize,
) -> Dvbs2System {
    Dvbs2System::new(SystemConfig {
        rate,
        frame,
        decoder,
        decoder_config: DecoderConfig::default().with_max_iterations(max_iterations),
        ..SystemConfig::default()
    })
    .expect("valid configuration")
}

/// Linear interpolation of the `Eb/N0` at which `log10(BER)` crosses a
/// target, given measured points sorted by `ebn0_db`. Returns `None` when
/// the target is not bracketed.
pub fn ebn0_at_ber(points: &[BerPoint], target_ber: f64) -> Option<f64> {
    let target = target_ber.log10();
    for pair in points.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        let (la, lb) = (a.ber_floored().log10(), b.ber_floored().log10());
        if la == lb {
            continue;
        }
        if (la >= target && lb <= target) || (la <= target && lb >= target) {
            let frac = (target - la) / (lb - la);
            return Some(a.ebn0_db + frac * (b.ebn0_db - a.ebn0_db));
        }
    }
    None
}

/// Compact scientific formatting for tables.
pub fn sci(x: f64) -> String {
    if x == 0.0 {
        "<floor".to_owned()
    } else {
        format!("{x:.2e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolation_finds_crossing() {
        let points = [
            BerPoint {
                ebn0_db: 1.0,
                ber: 1e-2,
                fer: 0.0,
                frames: 1,
                info_bits: 1_000_000,
                avg_iterations: 0.0,
            },
            BerPoint {
                ebn0_db: 2.0,
                ber: 1e-4,
                fer: 0.0,
                frames: 1,
                info_bits: 1_000_000,
                avg_iterations: 0.0,
            },
        ];
        let x = ebn0_at_ber(&points, 1e-3).unwrap();
        assert!((x - 1.5).abs() < 1e-9);
    }

    #[test]
    fn interpolation_handles_zero_tail() {
        // The zero point interpolates against its half-an-error floor
        // (0.5 / 1e6 = 5e-7), so the 1e-3 crossing lands inside the segment.
        let points = [
            BerPoint {
                ebn0_db: 1.0,
                ber: 1e-2,
                fer: 0.0,
                frames: 1,
                info_bits: 1_000_000,
                avg_iterations: 0.0,
            },
            BerPoint {
                ebn0_db: 2.0,
                ber: 0.0,
                fer: 0.0,
                frames: 1,
                info_bits: 1_000_000,
                avg_iterations: 0.0,
            },
        ];
        let x = ebn0_at_ber(&points, 1e-3).unwrap();
        assert!(x > 1.0 && x < 1.5, "{x}");
    }

    #[test]
    fn interpolation_rejects_unbracketed() {
        let points = [
            BerPoint {
                ebn0_db: 1.0,
                ber: 1e-2,
                fer: 0.0,
                frames: 1,
                info_bits: 1_000_000,
                avg_iterations: 0.0,
            },
            BerPoint {
                ebn0_db: 2.0,
                ber: 1e-3,
                fer: 0.0,
                frames: 1,
                info_bits: 1_000_000,
                avg_iterations: 0.0,
            },
        ];
        assert_eq!(ebn0_at_ber(&points, 1e-6), None);
    }
}
