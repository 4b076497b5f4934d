//! Multi-frame entry point, kept only because `benchmark/`'s
//! `decoder.tiled_ms_f32_x8.*` probe constructs it: a batch is a loop over
//! the matching single-frame decoder. The frame-interleaved lane engine that
//! used to live here lost to that loop wherever it interleaved (DESIGN.md
//! §7.3); new code should call [`Decoder::decode_into`] per frame.

use crate::{DecodeResult, Decoder, DecoderConfig, FloodingDecoder, ZigzagDecoder};
use dvbs2_ldpc::TannerGraph;
use std::sync::Arc;

/// Which single-frame decoder a [`TiledBatchDecoder`] loops over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TileSchedule {
    /// [`FloodingDecoder`].
    Flooding,
    /// [`ZigzagDecoder`].
    Zigzag,
}

/// Decodes up to `max_batch` frames per call, one after the other, on one
/// single-frame decoder: frame for frame the result *is* that decoder's.
///
/// ```
/// use dvbs2_decoder::{CheckRule, DecoderConfig, TileSchedule, TiledBatchDecoder};
/// use dvbs2_ldpc::TannerGraph;
/// use std::sync::Arc;
///
/// let g = Arc::new(TannerGraph::from_edges(2, 1, &[(0, 0), (0, 1)]));
/// let config = DecoderConfig::default().with_rule(CheckRule::NormalizedMinSum(0.8));
/// let mut dec = TiledBatchDecoder::new(g, config, TileSchedule::Flooding, 4);
/// let out = dec.decode_batch(&[&[-2.0, 0.5], &[1.0, 2.0]]);
/// assert!(out[0].bits.get(0) && out[0].bits.get(1)); // bit-1 vote wins
/// assert_eq!(out[1].bits.count_ones(), 0);
/// ```
pub struct TiledBatchDecoder {
    config: DecoderConfig,
    schedule: TileSchedule,
    max_batch: usize,
    decoder: Box<dyn Decoder + Send>,
}

impl TiledBatchDecoder {
    /// Creates the decoder `schedule` names, for calls of up to `max_batch` frames.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is 0, or where the single-frame decoder's
    /// constructor does.
    pub fn new(
        graph: Arc<TannerGraph>,
        config: DecoderConfig,
        schedule: TileSchedule,
        max_batch: usize,
    ) -> Self {
        assert!(max_batch > 0, "max_batch must be at least 1");
        let decoder: Box<dyn Decoder + Send> = match schedule {
            TileSchedule::Flooding => Box::new(FloodingDecoder::new(graph, config)),
            TileSchedule::Zigzag => Box::new(ZigzagDecoder::new(graph, config)),
        };
        TiledBatchDecoder { config, schedule, max_batch, decoder }
    }

    /// Largest number of frames one call may carry.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// The decoder configuration.
    pub fn config(&self) -> &DecoderConfig {
        &self.config
    }

    /// The single-frame decoder behind the loop.
    pub fn schedule(&self) -> TileSchedule {
        self.schedule
    }

    /// Sets the iteration cap for subsequent batches.
    pub fn set_max_iterations(&mut self, max_iterations: usize) {
        self.config.max_iterations = max_iterations;
        self.decoder.set_max_iterations(max_iterations);
    }

    /// Decodes `frames.len() <= max_batch` frames.
    ///
    /// # Panics
    ///
    /// Panics on an empty or oversized batch, or a frame of the wrong length.
    pub fn decode_batch(&mut self, frames: &[&[f64]]) -> Vec<DecodeResult> {
        let mut out = vec![DecodeResult::default(); frames.len()];
        self.decode_batch_into(frames, &mut out);
        out
    }

    /// [`decode_batch`](Self::decode_batch) into caller-owned results.
    ///
    /// # Panics
    ///
    /// As [`decode_batch`](Self::decode_batch), or if `out.len() != frames.len()`.
    pub fn decode_batch_into(&mut self, frames: &[&[f64]], out: &mut [DecodeResult]) {
        assert!(!frames.is_empty(), "empty batch");
        let max = self.max_batch;
        assert!(frames.len() <= max, "batch of {} exceeds max_batch {max}", frames.len());
        assert_eq!(out.len(), frames.len(), "result slice length mismatch");
        for (frame, slot) in frames.iter().zip(out) {
            self.decoder.decode_into(frame, slot);
        }
    }

    /// The single-frame decoder's [`Decoder::name`].
    pub fn name(&self) -> &'static str {
        self.decoder.name()
    }
}

#[cfg(test)]
mod tests;
