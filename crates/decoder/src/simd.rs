//! Runtime SIMD dispatch for the message-engine kernels.
//!
//! The workspace pins `-C target-cpu=x86-64-v3` in `.cargo/config.toml`,
//! which bakes AVX2 into *every* function — a build that crashes with
//! `SIGILL` on a pre-Haswell core and cannot be probed at runtime. This
//! module replaces the pin as the sole vector story: the hot kernels have
//! `#[target_feature]`-compiled AVX2 and AVX-512 clones, and a
//! [`SimdTier`] chosen once per decoder (via
//! [`is_x86_feature_detected!`](std::arch::is_x86_feature_detected))
//! selects among them per call. A baseline `x86-64` build therefore still
//! runs the vector paths on capable hardware, and a v3 build still runs —
//! the pin becomes a codegen default, not a hard floor.
//!
//! All tiers are **bit-identical**: the clones contain the same Rust (and
//! the same operation order), and rustc performs no floating-point
//! contraction, so wider registers change throughput, never results. The
//! tier-identity test in `tests/sum_product_f32.rs` pins this across every
//! available tier.

/// One rung of the runtime dispatch ladder.
///
/// Ordered from narrowest to widest; [`SimdTier::detect`] picks the highest
/// rung the running CPU supports (or the one forced via the `DVBS2_SIMD`
/// environment variable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdTier {
    /// Portable baseline: whatever the build's `target-cpu` allows.
    Scalar,
    /// 256-bit paths compiled with `#[target_feature(enable = "avx2")]`.
    Avx2,
    /// 512-bit paths compiled with
    /// `#[target_feature(enable = "avx512f,avx512bw,avx512vl")]`: the
    /// integer-lane kernels need BW for 512-bit `i8`/`i16` min/max/abs/compare
    /// and VL for their mixed-width remainders. Every AVX-512 core since
    /// Skylake-SP has all three; an F-only part reports this rung
    /// unavailable and runs the (bit-identical) AVX2 clones everywhere.
    Avx512,
}

impl SimdTier {
    /// Every tier, narrowest first (the order of the dispatch ladder).
    pub const ALL: [SimdTier; 3] = [SimdTier::Scalar, SimdTier::Avx2, SimdTier::Avx512];

    /// The tier to use on this machine: the `DVBS2_SIMD` environment
    /// variable (`scalar` / `avx2` / `avx512`) when set, otherwise the
    /// widest tier the CPU reports.
    ///
    /// The environment override is process-global — tests that need a
    /// specific tier should use
    /// [`DecoderConfig::with_simd_tier`](crate::DecoderConfig::with_simd_tier)
    /// instead, which is per-decoder and race-free under a parallel test
    /// runner.
    ///
    /// # Panics
    ///
    /// Panics if `DVBS2_SIMD` names an unknown tier or one the CPU does not
    /// support (a silent fallback would defeat the point of forcing it).
    pub fn detect() -> SimdTier {
        match std::env::var("DVBS2_SIMD") {
            Ok(name) => {
                let tier = match name.to_ascii_lowercase().as_str() {
                    "scalar" => SimdTier::Scalar,
                    "avx2" => SimdTier::Avx2,
                    "avx512" => SimdTier::Avx512,
                    other => panic!(
                        "DVBS2_SIMD={other:?} is not a dispatch tier \
                         (expected scalar, avx2 or avx512)"
                    ),
                };
                assert!(
                    tier.is_available(),
                    "DVBS2_SIMD requested {tier:?}, which this CPU does not support"
                );
                tier
            }
            Err(_) => Self::best_available(),
        }
    }

    /// Resolves an explicit per-decoder override (`Some`) or falls back to
    /// [`SimdTier::detect`] (`None`).
    ///
    /// # Panics
    ///
    /// Panics if the forced tier is not available on this CPU.
    pub fn resolve(forced: Option<SimdTier>) -> SimdTier {
        match forced {
            Some(tier) => {
                assert!(
                    tier.is_available(),
                    "decoder configured for {tier:?}, which this CPU does not support"
                );
                tier
            }
            None => Self::detect(),
        }
    }

    /// The widest tier the running CPU supports.
    pub fn best_available() -> SimdTier {
        Self::ALL.into_iter().rev().find(|t| t.is_available()).unwrap_or(SimdTier::Scalar)
    }

    /// Whether the running CPU can execute this tier's kernels.
    pub fn is_available(self) -> bool {
        match self {
            SimdTier::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512bw")
                    && std::arch::is_x86_feature_detected!("avx512vl")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// Every tier the running CPU supports, narrowest first.
    pub fn available() -> Vec<SimdTier> {
        Self::ALL.into_iter().filter(|t| t.is_available()).collect()
    }

    /// Stable lower-case identifier (what benchmark reports emit).
    pub fn name(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Avx2 => "avx2",
            SimdTier::Avx512 => "avx512",
        }
    }
}

/// The vector-relevant CPU features the running machine reports, for
/// benchmark `cpu` blocks. Empty on non-x86-64 targets.
pub fn detected_cpu_features() -> Vec<&'static str> {
    #[cfg(target_arch = "x86_64")]
    {
        let mut features = Vec::new();
        macro_rules! probe {
            ($($name:tt),*) => {$(
                if std::arch::is_x86_feature_detected!($name) {
                    features.push($name);
                }
            )*};
        }
        probe!("sse4.2", "avx", "avx2", "fma", "avx512f", "avx512bw", "avx512vl");
        features
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_is_always_available() {
        assert!(SimdTier::Scalar.is_available());
        assert!(SimdTier::available().contains(&SimdTier::Scalar));
    }

    #[test]
    fn best_available_is_listed_as_available() {
        let best = SimdTier::best_available();
        assert!(best.is_available());
        assert_eq!(SimdTier::available().last(), Some(&best));
    }

    #[test]
    fn resolve_honours_explicit_tier() {
        assert_eq!(SimdTier::resolve(Some(SimdTier::Scalar)), SimdTier::Scalar);
    }

    #[test]
    fn names_are_stable() {
        let names: Vec<_> = SimdTier::ALL.iter().map(|t| t.name()).collect();
        assert_eq!(names, ["scalar", "avx2", "avx512"]);
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn detected_features_match_tier_availability() {
        let features = detected_cpu_features();
        assert_eq!(features.contains(&"avx2"), SimdTier::Avx2.is_available());
        let wide = ["avx512f", "avx512bw", "avx512vl"].iter().all(|f| features.contains(f));
        assert_eq!(wide, SimdTier::Avx512.is_available());
    }
}
