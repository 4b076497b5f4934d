//! Allocation audit for the cycle-accurate core's write path.
//!
//! A frame at the paper's point is about 27,000 wide-word write-backs over
//! 34,170 cycles. The core recycles its write buffers, keeps the banks it
//! wrote this cycle in one reused list and caches the check phase's read
//! sequence, so what a decode allocates must not depend on how many
//! iterations it runs. A counting global allocator checks that, with
//! per-thread counters as in `crates/decoder/tests/alloc.rs`.

use dvbs2_decoder::test_support::noisy_llrs;
use dvbs2_hardware::{CoreConfig, HardwareDecoder};
use dvbs2_ldpc::{CodeRate, DvbS2Code, FrameSize};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
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

/// `(allocations, deallocations)` of one warm `decode_quantized` at the
/// given iteration cap, the result kept alive across the measurement.
fn per_decode(code: &DvbS2Code, channel: &[i32], max_iterations: usize) -> (usize, usize) {
    let config = CoreConfig { max_iterations, ..CoreConfig::default() };
    let mut core = HardwareDecoder::with_natural_schedule(code, config);
    let warm_up = core.decode_quantized(channel);
    let before = counts();
    let output = core.decode_quantized(channel);
    let after = counts();
    assert_eq!(output, warm_up, "cap {max_iterations}: the core must be deterministic");
    assert_eq!(output.cycles.iterations, max_iterations);
    (after.0 - before.0, after.1 - before.1)
}

#[test]
fn allocations_per_decode_do_not_grow_with_iterations() {
    let code = DvbS2Code::new(CodeRate::R1_2, FrameSize::Short).unwrap();
    let (_, llrs) = noisy_llrs(&code, 1.4, 31);
    let channel = HardwareDecoder::with_natural_schedule(&code, CoreConfig::default())
        .quantize_channel(&llrs);
    let one = per_decode(&code, &channel, 1);
    let thirty = per_decode(&code, &channel, 30);
    assert_eq!(one, thirty, "(allocations, deallocations) at cap 1 against cap 30");
    // What is left is the result's bit vector, grown as it is collected:
    // nothing is freed, so nothing but the result was made.
    assert_eq!(one.1, 0, "a warm decode freed {} buffers", one.1);
}
