//! Set-up allocation audit for the served decoder.
//!
//! `make_decoder_for` of the served kind reads its lane plan from the
//! graph's quasi-cyclic record, so a decoder costs its scratch and a few
//! hundred plan entries: no edge-slot map, no per-slot variable plane and
//! no partition. A counting global allocator holds it to that, in bytes.
//! The counters are per thread, so tests running side by side see only
//! their own allocations.

use dvbs2::decoder::{DecodeResult, DecoderConfig, QCheckArithmetic, QuantizedZigzagDecoder};
use dvbs2::ldpc::{CodeRate, FrameSize};
use dvbs2::{DecoderProfile, Dvbs2System, SystemConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct CountingAllocator;

// Const-initialised and without destructors, so touching them from inside
// the allocator neither allocates nor registers anything.
thread_local! {
    static BYTES: Cell<usize> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn record(size: usize) {
    // `try_with`: the allocator still runs while a thread tears down.
    let _ = BYTES.try_with(|bytes| bytes.set(bytes.get() + size));
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// plain thread-local integers.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// `(bytes, largest single allocation)` of what `f` allocates on this thread.
fn allocated<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    BYTES.with(|bytes| bytes.set(0));
    LARGEST.with(|largest| largest.set(0));
    let value = f();
    (value, BYTES.with(Cell::get), LARGEST.with(Cell::get))
}

/// Fixed-size pieces of a decoder beside its planes: the boxes, the
/// quantizer's table, the check row's fix-up rows.
const FIXED_BYTES: usize = 4096;

#[test]
fn a_served_decoder_allocates_only_its_scratch() {
    for frame in [FrameSize::Short, FrameSize::Normal] {
        let system =
            Dvbs2System::new(SystemConfig { rate: CodeRate::R1_2, frame, ..Default::default() })
                .unwrap();
        let served = DecoderProfile::default_for(CodeRate::R1_2, frame);
        let dvbs2::DecoderKind::Quantized(quantizer) = served.kind else {
            panic!("the served kind is the quantized lanes")
        };
        let graph = system.graph();
        let (k, n, checks, edges) =
            (graph.info_len(), graph.var_count(), graph.check_count(), graph.edge_count());
        let record = graph.quasi_cyclic().expect("a code's graph keeps its record");
        // The same decoder, for its own account of its message state.
        let lanes = QuantizedZigzagDecoder::natural_lanes(
            Arc::clone(graph),
            QCheckArithmetic::lut(quantizer),
            DecoderConfig::default(),
        )
        .expect("the served kind runs on the lanes");
        // Message planes and chain, then the channel (`i16` information,
        // `i8` parity on its way in), the totals (doubled `i16` blocks and
        // one sign per variable) and the 360-lane syndrome accumulator.
        let scratch = lanes.message_bytes() + (2 * k + checks) + (4 * k + n) + 2 * 360;
        let plan = record.rows() * record.row_len() * 8;

        let mut warm = system.make_decoder_for(served.kind, served.config);
        let (mut decoder, bytes, largest) =
            allocated(|| system.make_decoder_for(served.kind, served.config));
        let what = format!("R1/2 {frame}");
        assert!(
            bytes <= scratch + plan + FIXED_BYTES,
            "{what}: a second decoder allocated {bytes} bytes, its scratch is {scratch} and \
             its plan {plan}"
        );
        assert!(
            largest < edges * size_of::<u32>(),
            "{what}: one allocation of {largest} bytes, an index array over {edges} edges"
        );

        // Both decoders decode, and alike.
        let llrs = vec![4.0; n];
        let (mut a, mut b) = (DecodeResult::default(), DecodeResult::default());
        warm.decode_into(&llrs, &mut a);
        decoder.decode_into(&llrs, &mut b);
        assert!(a.converged && a == b, "{what}");
    }
}
