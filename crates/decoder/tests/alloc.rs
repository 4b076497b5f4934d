//! Steady-state allocation audit for the message-passing decoders.
//!
//! The engines preallocate every message plane and working buffer in
//! `new()`; after a warm-up decode, each subsequent `decode()` must perform
//! exactly ONE heap allocation — the `BitVec` handed back in the result —
//! and match it with one deallocation. A counting global allocator enforces
//! this. The counters are per thread: the harness runs the tests of this
//! binary on threads of their own, side by side, and each audit must see
//! only what its own decodes allocate (the decoders audited here never
//! spawn).

use dvbs2_decoder::test_support::{noisy_llrs, rotation_partition, small_code};
use dvbs2_decoder::{
    CheckRule, DecodeResult, Decoder, DecoderConfig, FloodingDecoder, Precision, QCheckArithmetic,
    QuantizedZigzagDecoder, Quantizer, ZigzagDecoder,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::thread::LocalKey;

struct CountingAllocator;

// Const-initialised and without destructors, so touching them from inside
// the allocator neither allocates nor registers anything.
thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static DEALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn bump(counter: &'static LocalKey<Cell<usize>>) {
    // `try_with`: the allocator still runs while a thread tears down.
    let _ = counter.try_with(|count| count.set(count.get() + 1));
}

/// `(allocations, deallocations)` made so far by the calling thread.
fn counts() -> (usize, usize) {
    (ALLOCATIONS.with(Cell::get), DEALLOCATIONS.with(Cell::get))
}

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// plain thread-local integers.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCATIONS);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&DEALLOCATIONS);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&ALLOCATIONS);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Runs `decode` on three frames after a warm-up and asserts that each call
/// allocated exactly once (the returned bit vector) and freed exactly once
/// (the previous result, dropped between calls).
fn assert_single_allocation_per_decode(name: &str, decoder: &mut dyn Decoder, llrs: &[f64]) {
    let mut results = vec![decoder.decode(llrs)]; // warm-up
    for round in 0..3 {
        let before = counts();
        let result = decoder.decode(llrs);
        let after = counts();
        let (allocated, deallocated) = (after.0 - before.0, after.1 - before.1);
        assert_eq!(
            allocated, 1,
            "{name} round {round}: expected the result BitVec to be the only \
             allocation, saw {allocated}"
        );
        assert_eq!(
            deallocated, 0,
            "{name} round {round}: decode freed {deallocated} buffers mid-flight"
        );
        results.push(result); // keep results alive outside the measured window
    }
    drop(results);
}

/// Runs `decode_into` on three frames after a warm-up and asserts that the
/// reused result makes warm decodes fully allocation-free — the contract
/// the streaming pipeline's per-worker scratch relies on.
fn assert_zero_allocation_decode_into(name: &str, decoder: &mut dyn Decoder, llrs: &[f64]) {
    let mut out = DecodeResult::default();
    decoder.decode_into(llrs, &mut out); // warm-up: sizes out.bits
    let reference = out.clone();
    for round in 0..3 {
        let before = counts();
        decoder.decode_into(llrs, &mut out);
        let after = counts();
        let (allocated, deallocated) = (after.0 - before.0, after.1 - before.1);
        assert_eq!(allocated, 0, "{name} round {round}: decode_into allocated {allocated}");
        assert_eq!(deallocated, 0, "{name} round {round}: decode_into freed {deallocated}");
    }
    assert_eq!(out, reference, "{name}: decode_into must be deterministic across reuse");
}

/// The float configurations both audits cover. On this quasi-cyclic code
/// `sum-product f32` and every min-sum row (`min-sum f32` is the served
/// clear-sky profile) run flooding and zigzag on the rotation planes, whose
/// row kernels and syndrome lanes live on the stack; `sum-product f64` and
/// the table rule run the scalar pass and sweep.
fn audited_configs() -> [(&'static str, DecoderConfig); 6] {
    let f32_config = DecoderConfig::default().with_precision(Precision::F32);
    [
        ("sum-product f64", DecoderConfig::default()),
        ("min-sum f64", DecoderConfig::default().with_rule(CheckRule::NormalizedMinSum(0.8))),
        ("sum-product f32", f32_config),
        ("table sum-product f32", f32_config.with_rule(CheckRule::TableSumProduct)),
        ("min-sum f32", f32_config.with_rule(CheckRule::NormalizedMinSum(0.8))),
        ("offset min-sum f32", f32_config.with_rule(CheckRule::OffsetMinSum(0.15))),
    ]
}

#[test]
fn decode_into_is_allocation_free_after_warm_up() {
    let (code, graph) = small_code();
    let graph = Arc::new(graph);
    let (_, llrs) = noisy_llrs(&code, 1.4, 31);

    for (label, config) in audited_configs() {
        let mut flooding = FloodingDecoder::new(Arc::clone(&graph), config);
        assert_zero_allocation_decode_into(&format!("flooding {label}"), &mut flooding, &llrs);
        let mut zigzag = ZigzagDecoder::new(Arc::clone(&graph), config);
        assert_zero_allocation_decode_into(&format!("zigzag {label}"), &mut zigzag, &llrs);
    }
    // The quantized decoder reuses both its channel buffer and its
    // hard-decision scratch through the same entry point.
    let mut quantized = QuantizedZigzagDecoder::new(
        Arc::clone(&graph),
        Quantizer::paper_6bit(),
        DecoderConfig::default(),
    );
    assert_zero_allocation_decode_into("quantized 6-bit", &mut quantized, &llrs);
    // The served shape: 360 lanes in a rotation order, early stop on, so
    // the lane-domain syndrome test runs every iteration after the first.
    let mut lanes = QuantizedZigzagDecoder::with_partition(
        Arc::clone(&graph),
        QCheckArithmetic::lut(Quantizer::paper_6bit()),
        DecoderConfig::default(),
        rotation_partition(&graph),
    );
    assert!(lanes.simd_tier().is_some());
    assert_zero_allocation_decode_into("quantized 6-bit, 360 lanes", &mut lanes, &llrs);
}

#[test]
fn decoders_do_not_allocate_after_warm_up() {
    let (code, graph) = small_code();
    let graph = Arc::new(graph);
    let (_, llrs) = noisy_llrs(&code, 1.4, 31);

    for (label, config) in audited_configs() {
        let mut flooding = FloodingDecoder::new(Arc::clone(&graph), config);
        assert_single_allocation_per_decode(&format!("flooding {label}"), &mut flooding, &llrs);
        let mut zigzag = ZigzagDecoder::new(Arc::clone(&graph), config);
        assert_single_allocation_per_decode(&format!("zigzag {label}"), &mut zigzag, &llrs);
    }
}
