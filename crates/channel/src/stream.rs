//! Frame-tagged LLR streams: the demodulator-facing contract of a
//! streaming decode service.
//!
//! A continuous DVB-S2 reception is a sequence of demapped soft-bit frames,
//! each tagged with its position in the stream and the MODCOD slot it was
//! transmitted under (the receiver learns the MODCOD from the PLHEADER
//! before the payload arrives). The decode pipeline consumes exactly this
//! shape. Sources are *index-addressed* and deterministic — frame `i` is
//! the same bits no matter when or where it is generated — so a
//! multi-threaded pipeline run can be replayed bit-identically by a
//! single-threaded reference decode over the same source.

/// Identity of one frame within a continuous stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FrameTag {
    /// Global position in the stream (0-based, gap-free).
    pub stream_index: u64,
    /// Opaque MODCOD slot; the service layer maps it onto a code/decoder
    /// pair (see `dvbs2::ModcodTable`).
    pub modcod: usize,
}

/// One demapped frame: a tag plus its channel LLRs (codeword length).
#[derive(Debug, Clone, PartialEq)]
pub struct LlrFrame {
    /// The frame's stream identity.
    pub tag: FrameTag,
    /// Soft bits in the decoder's LLR convention (positive favors bit 0).
    pub llrs: Vec<f64>,
}

/// A deterministic, index-addressed source of tagged LLR frames.
///
/// Determinism in the index is the load-bearing property: it decouples
/// frame content from generation order, which is what lets the pipeline
/// soak compare a work-stealing multi-threaded decode against an in-order
/// single-threaded one, frame by frame.
pub trait LlrSource {
    /// The tag of frame `index` (its MODCOD slot in particular).
    fn tag(&self, index: u64) -> FrameTag;

    /// Writes frame `index`'s LLRs into `out`, resizing it as needed.
    fn fill(&mut self, index: u64, out: &mut Vec<f64>);

    /// Materializes frame `index` as an owned [`LlrFrame`].
    fn frame(&mut self, index: u64) -> LlrFrame {
        let tag = self.tag(index);
        let mut llrs = Vec::new();
        self.fill(index, &mut llrs);
        LlrFrame { tag, llrs }
    }
}

/// Iterator adapter yielding frames `0..limit` of a source in order.
#[derive(Debug)]
pub struct FrameStream<S> {
    source: S,
    next: u64,
    limit: u64,
}

impl<S: LlrSource> FrameStream<S> {
    /// Streams the first `limit` frames of `source`.
    pub fn new(source: S, limit: u64) -> Self {
        FrameStream { source, next: 0, limit }
    }
}

impl<S: LlrSource> Iterator for FrameStream<S> {
    type Item = LlrFrame;

    fn next(&mut self) -> Option<LlrFrame> {
        if self.next >= self.limit {
            return None;
        }
        let frame = self.source.frame(self.next);
        self.next += 1;
        Some(frame)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = (self.limit - self.next) as usize;
        (remaining, Some(remaining))
    }
}

/// Identity of one logical stream inside a multi-tenant service: which
/// tenant owns it and which of that tenant's streams it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamKey {
    /// Owning tenant (service-level admission budgets are per tenant).
    pub tenant: u32,
    /// Stream id within the tenant.
    pub stream: u32,
}

impl StreamKey {
    /// Convenience constructor.
    pub fn new(tenant: u32, stream: u32) -> Self {
        StreamKey { tenant, stream }
    }
}

/// One demapped frame of a tenant-tagged stream: the owning stream, the
/// frame's position *within that stream*, and the LLR payload.
#[derive(Debug, Clone, PartialEq)]
pub struct TaggedLlrFrame {
    /// The stream this frame belongs to.
    pub key: StreamKey,
    /// 0-based, gap-free position within the stream.
    pub seq: u64,
    /// MODCOD slot of the frame.
    pub modcod: usize,
    /// Channel LLRs (codeword length).
    pub llrs: Vec<f64>,
}

/// A deterministic bundle of per-stream [`LlrSource`]s — the many-client
/// traffic shape a sharded decode service ingests.
///
/// Each inner source is addressed by the *per-stream* frame index, so frame
/// `(key, seq)` has identical bits no matter how the streams' submissions
/// interleave — the property that lets a sharded run be checked against a
/// single-threaded per-stream reference decode.
#[derive(Debug)]
pub struct MultiStreamSource<S> {
    streams: Vec<(StreamKey, S)>,
}

impl<S: LlrSource> MultiStreamSource<S> {
    /// Bundles per-stream sources. Keys must be distinct.
    ///
    /// # Panics
    ///
    /// Panics on an empty bundle or duplicate keys.
    pub fn new(streams: Vec<(StreamKey, S)>) -> Self {
        assert!(!streams.is_empty(), "a multi-stream source needs at least one stream");
        let mut keys: Vec<StreamKey> = streams.iter().map(|(k, _)| *k).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), streams.len(), "stream keys must be distinct");
        MultiStreamSource { streams }
    }

    /// Number of streams in the bundle.
    pub fn len(&self) -> usize {
        self.streams.len()
    }

    /// Whether the bundle is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }

    /// The key of stream `index` (bundle order).
    pub fn key(&self, index: usize) -> StreamKey {
        self.streams[index].0
    }

    /// Materializes frame `seq` of stream `index` (bundle order).
    pub fn frame(&mut self, index: usize, seq: u64) -> TaggedLlrFrame {
        let (key, source) = &mut self.streams[index];
        let inner = source.frame(seq);
        TaggedLlrFrame { key: *key, seq, modcod: inner.tag.modcod, llrs: inner.llrs }
    }

    /// Frame `global_index` of the round-robin interleaving of every
    /// stream: stream `global_index % len`, per-stream seq
    /// `global_index / len` — a deterministic arrival order for open-loop
    /// load generation.
    pub fn round_robin(&mut self, global_index: u64) -> TaggedLlrFrame {
        let n = self.streams.len() as u64;
        self.frame((global_index % n) as usize, global_index / n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::mix_seed;

    /// A toy source: two alternating "MODCODs" with different lengths and
    /// per-index seeded contents.
    struct ToySource {
        seed: u64,
    }

    impl LlrSource for ToySource {
        fn tag(&self, index: u64) -> FrameTag {
            FrameTag { stream_index: index, modcod: (index % 2) as usize }
        }

        fn fill(&mut self, index: u64, out: &mut Vec<f64>) {
            let len = if index.is_multiple_of(2) { 4 } else { 6 };
            out.clear();
            let s = mix_seed(self.seed, index);
            out.extend((0..len).map(|i| (s.wrapping_add(i) % 13) as f64 - 6.0));
        }
    }

    #[test]
    fn frames_are_deterministic_in_the_index() {
        let mut a = ToySource { seed: 7 };
        let mut b = ToySource { seed: 7 };
        // Generation order must not matter.
        let f3 = a.frame(3);
        let f0 = a.frame(0);
        assert_eq!(b.frame(0), f0);
        assert_eq!(b.frame(3), f3);
        assert_ne!(ToySource { seed: 8 }.frame(0), f0, "seed must matter");
    }

    #[test]
    fn multi_stream_frames_are_deterministic_and_key_tagged() {
        let mk = || {
            MultiStreamSource::new(vec![
                (StreamKey::new(0, 0), ToySource { seed: 3 }),
                (StreamKey::new(0, 1), ToySource { seed: 4 }),
                (StreamKey::new(1, 0), ToySource { seed: 5 }),
            ])
        };
        let mut a = mk();
        let mut b = mk();
        // Generation order must not matter, and each stream keeps its own
        // per-stream index space.
        let f = a.frame(2, 7);
        assert_eq!(f.key, StreamKey::new(1, 0));
        assert_eq!(f.seq, 7);
        assert_eq!(b.frame(2, 7), f);
        assert_ne!(b.frame(1, 7).llrs, f.llrs, "streams draw independent content");
        // Round-robin interleaving: global index 5 → stream 2, seq 1.
        let rr = a.round_robin(5);
        assert_eq!((rr.key, rr.seq), (StreamKey::new(1, 0), 1));
        assert_eq!(rr, b.frame(2, 1));
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn multi_stream_rejects_duplicate_keys() {
        let _ = MultiStreamSource::new(vec![
            (StreamKey::new(0, 0), ToySource { seed: 1 }),
            (StreamKey::new(0, 0), ToySource { seed: 2 }),
        ]);
    }

    #[test]
    fn stream_yields_indexed_frames_in_order() {
        let frames: Vec<LlrFrame> = FrameStream::new(ToySource { seed: 1 }, 5).collect();
        assert_eq!(frames.len(), 5);
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(f.tag.stream_index, i as u64);
            assert_eq!(f.tag.modcod, i % 2);
            assert_eq!(f.llrs.len(), if i % 2 == 0 { 4 } else { 6 });
        }
    }
}
