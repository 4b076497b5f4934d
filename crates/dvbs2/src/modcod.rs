//! MODCOD dispatch: mapping stream MODCOD slots onto code contexts and
//! decoder profiles.
//!
//! A DVB-S2 receiver learns each frame's MODCOD (modulation + code rate,
//! plus the frame-size flag) from the PLHEADER, then must decode the
//! payload with the matching code. [`ModcodTable`] is the service-layer
//! form of that dispatch: a dense slot-indexed table where every entry
//! owns a ready [`Dvbs2System`] (code, Tanner graph, encoder) and a
//! [`DecoderProfile`] saying *which* decoder the pipeline should
//! instantiate for frames of that slot. Entries are `Arc`-shared so a
//! worker pool can hold per-worker decoder instances over one shared
//! graph without rebuilding code contexts.

use crate::{DecoderKind, Dvbs2System, SystemConfig};
use dvbs2_channel::Modulation;
use dvbs2_decoder::{Decoder, DecoderConfig, Quantizer};
use dvbs2_ldpc::{CodeError, CodeParams, CodeRate, FrameSize};
use std::sync::Arc;

/// One MODCOD: the transmission parameters a PLHEADER announces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Modcod {
    /// Payload modulation.
    pub modulation: Modulation,
    /// Inner LDPC code rate.
    pub rate: CodeRate,
    /// FECFRAME size (normal 64 800 / short 16 200).
    pub frame: FrameSize,
}

impl Modcod {
    /// Convenience constructor.
    pub fn new(modulation: Modulation, rate: CodeRate, frame: FrameSize) -> Self {
        Modcod { modulation, rate, frame }
    }
}

/// Which decoder a MODCOD slot runs, and under what iteration policy.
///
/// A profile always names a single-frame decoder: pipeline workers decode
/// frame by frame whatever the rule, so no profile is "batchable".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecoderProfile {
    /// Decoder algorithm / arithmetic.
    pub kind: DecoderKind,
    /// Iteration cap, early-stop policy, check rule, precision.
    pub config: DecoderConfig,
}

impl DecoderProfile {
    /// The default service profile for a code point: the paper's datapath,
    /// [`DecoderKind::Quantized`] at 6 bits, for every rate and frame size.
    ///
    /// One 360-lane 6-bit datapath serves every rate from its per-rate
    /// connectivity, as the core does from its ROM. Against the f32
    /// sum-product it costs the paper's ≈ 0.1 dB on information bits
    /// (`ber_parity` gate 3 holds it under 0.15 dB at R 1/4, 1/2 and 3/4).
    /// The quantized zigzag also leaves a few wrong *parity* bits on the
    /// odd frame near the waterfall: such a frame reports
    /// `converged == false` with an exact or near-exact information word,
    /// which the outer BCH code is there to finish (DESIGN.md §8). Ask
    /// [`ModcodTable::with_profiles`] for a float decoder.
    pub fn default_for(rate: CodeRate, frame: FrameSize) -> Self {
        let _ = (rate, frame); // one datapath; the code point sets only its ROM
        DecoderProfile {
            kind: DecoderKind::Quantized(Quantizer::paper_6bit()),
            config: DecoderConfig::default(),
        }
    }
}

/// One dispatch-table entry: a MODCOD, its decoder profile, and a fully
/// built code context.
#[derive(Debug)]
pub struct ModcodEntry {
    /// The MODCOD this entry serves.
    pub modcod: Modcod,
    /// The decoder the pipeline instantiates for this slot.
    pub profile: DecoderProfile,
    system: Dvbs2System,
}

impl ModcodEntry {
    /// Builds the code context for one MODCOD/profile pair.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError`] for undefined rate/frame combinations.
    pub fn new(modcod: Modcod, profile: DecoderProfile) -> Result<Self, CodeError> {
        let system = Dvbs2System::new(SystemConfig {
            rate: modcod.rate,
            frame: modcod.frame,
            modulation: modcod.modulation,
            decoder: profile.kind,
            decoder_config: profile.config,
            ..SystemConfig::default()
        })?;
        Ok(ModcodEntry { modcod, profile, system })
    }

    /// The underlying simulation system (code, graph, encoder).
    pub fn system(&self) -> &Dvbs2System {
        &self.system
    }

    /// Code parameters (`n`, `k`) of this slot's LDPC code.
    pub fn params(&self) -> &CodeParams {
        self.system.params()
    }

    /// Channel LLRs per frame for this slot (`N_ldpc`).
    pub fn frame_len(&self) -> usize {
        self.system.params().n
    }

    /// Information bits per frame for this slot (`K_ldpc`).
    pub fn info_len(&self) -> usize {
        self.system.params().k
    }

    /// Creates a fresh decoder following this entry's profile (one per
    /// worker thread; decoders own their scratch state).
    pub fn make_decoder(&self) -> Box<dyn Decoder + Send> {
        self.system.make_decoder_for(self.profile.kind, self.profile.config)
    }
}

/// A dense, slot-indexed MODCOD dispatch table.
///
/// Slot `i` of the table serves frames tagged `modcod == i` (see
/// `dvbs2_channel::FrameTag`). Entries are `Arc`-shared: the pipeline's
/// ingress validates frame lengths against the entry, and each worker
/// lazily builds its own decoder from the shared entry on first use.
#[derive(Debug, Clone, Default)]
pub struct ModcodTable {
    entries: Vec<Arc<ModcodEntry>>,
}

impl ModcodTable {
    /// Builds a table from MODCODs using [`DecoderProfile::default_for`].
    ///
    /// # Errors
    ///
    /// Returns [`CodeError`] if any rate/frame combination is undefined.
    pub fn build(modcods: &[Modcod]) -> Result<Self, CodeError> {
        Self::with_profiles(
            modcods
                .iter()
                .map(|&m| (m, DecoderProfile::default_for(m.rate, m.frame)))
                .collect::<Vec<_>>()
                .as_slice(),
        )
    }

    /// Builds a table with explicit per-slot decoder profiles.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError`] if any rate/frame combination is undefined.
    pub fn with_profiles(slots: &[(Modcod, DecoderProfile)]) -> Result<Self, CodeError> {
        let mut entries = Vec::with_capacity(slots.len());
        for &(modcod, profile) in slots {
            entries.push(Arc::new(ModcodEntry::new(modcod, profile)?));
        }
        Ok(ModcodTable { entries })
    }

    /// The entry serving slot `slot`, or `None` for an unknown slot.
    pub fn lookup(&self, slot: usize) -> Option<&Arc<ModcodEntry>> {
        self.entries.get(slot)
    }

    /// The entry serving slot `slot`.
    ///
    /// # Panics
    ///
    /// Panics on an unknown slot; use [`ModcodTable::lookup`] to probe.
    pub fn entry(&self, slot: usize) -> &Arc<ModcodEntry> {
        self.lookup(slot).unwrap_or_else(|| panic!("unknown MODCOD slot {slot}"))
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table has no slots.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries in slot order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<ModcodEntry>> {
        self.entries.iter()
    }

    /// The largest frame length any slot can produce (0 for an empty
    /// table) — what an ingress stage sizes its scratch buffers to.
    pub fn max_frame_len(&self) -> usize {
        self.entries.iter().map(|e| e.frame_len()).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> ModcodTable {
        ModcodTable::build(&[
            Modcod::new(Modulation::Bpsk, CodeRate::R1_2, FrameSize::Short),
            Modcod::new(Modulation::Psk8, CodeRate::R3_4, FrameSize::Short),
            Modcod::new(Modulation::Bpsk, CodeRate::R8_9, FrameSize::Short),
            Modcod::new(Modulation::Bpsk, CodeRate::R1_4, FrameSize::Short),
        ])
        .unwrap()
    }

    #[test]
    fn slots_resolve_to_matching_codes() {
        let t = table();
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
        assert_eq!(t.entry(0).frame_len(), 16_200);
        assert_eq!(t.entry(0).info_len(), 7_200);
        assert_eq!(t.entry(1).modcod.rate, CodeRate::R3_4);
        assert!(t.lookup(4).is_none());
        assert_eq!(t.max_frame_len(), 16_200);
    }

    #[test]
    fn default_profiles_follow_the_rate_mapping() {
        // Every rate and frame size maps to the paper's 6-bit datapath
        // under the paper's iteration policy.
        let served = DecoderProfile {
            kind: DecoderKind::Quantized(Quantizer::paper_6bit()),
            config: DecoderConfig::default(),
        };
        for frame in [FrameSize::Short, FrameSize::Normal] {
            for rate in CodeRate::ALL {
                assert_eq!(DecoderProfile::default_for(rate, frame), served, "{rate:?} {frame:?}");
            }
        }
        let t = table();
        assert!(t.iter().all(|entry| entry.profile == served));
        assert_eq!(t.entry(0).make_decoder().name(), "quantized zigzag");
    }

    #[test]
    fn entries_make_working_decoders() {
        let t = table();
        for slot in 0..t.len() {
            let entry = t.entry(slot);
            let mut dec = entry.make_decoder();
            // The all-zero codeword with confident LLRs must decode clean.
            let llrs = vec![5.0; entry.frame_len()];
            let out = dec.decode(&llrs);
            assert!(out.converged, "slot {slot} ({})", dec.name());
            assert!(out.bits.iter().all(|b| !b), "slot {slot}");
        }
    }

    #[test]
    fn apsk_modcods_build_working_entries() {
        let t = ModcodTable::build(&[
            Modcod::new(Modulation::Apsk16, CodeRate::R2_3, FrameSize::Short),
            Modcod::new(Modulation::Apsk32, CodeRate::R3_4, FrameSize::Short),
        ])
        .unwrap();
        for slot in 0..t.len() {
            let entry = t.entry(slot);
            let out = entry.make_decoder().decode(&vec![5.0; entry.frame_len()]);
            assert!(out.converged && out.bits.iter().all(|b| !b), "slot {slot}");
        }
    }

    #[test]
    fn explicit_profiles_override_the_defaults() {
        let m = Modcod::new(Modulation::Bpsk, CodeRate::R1_2, FrameSize::Short);
        let profile = DecoderProfile {
            kind: DecoderKind::Flooding,
            config: DecoderConfig::default().with_max_iterations(12),
        };
        let t = ModcodTable::with_profiles(&[(m, profile)]).unwrap();
        assert!(matches!(t.entry(0).profile.kind, DecoderKind::Flooding));
        assert_eq!(t.entry(0).profile.config.max_iterations, 12);
        let mut dec = t.entry(0).make_decoder();
        assert_eq!(dec.name(), "flooding sum-product");
        let out = dec.decode(&vec![4.0; t.entry(0).frame_len()]);
        assert!(out.converged);
    }
}
