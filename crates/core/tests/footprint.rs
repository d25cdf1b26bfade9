//! What one `MwLlSc` costs the allocator. The paper's bound is `O(NW)`
//! words; this pins the constant as well: an object is one 8-byte-aligned
//! block (the `Arc`'s own, holding the header, the slot words, the cells
//! and the buffers), with no cache-line padding per cell, and every extra
//! process adds the same few bytes. A counting global allocator
//! records the calls, the requested bytes and the largest alignment; it
//! counts per thread, so tests running in parallel do not disturb each
//! other's tallies.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mwllsc::MwLlSc;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
    static MAX_ALIGN: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

fn record(size: usize, align: usize) {
    // `try_with`: the slots are gone while the thread's TLS is torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + size));
    let _ = MAX_ALIGN.try_with(|n| n.set(n.get().max(align)));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counting touches
// only const-initialized thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size(), layout.align());
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size(), layout.align());
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size, layout.align());
        // SAFETY: forwarded unchanged; `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What building one object cost this thread.
#[derive(Debug, Clone, Copy)]
struct Footprint {
    allocs: usize,
    bytes: usize,
    max_align: usize,
}

fn footprint(n: usize, w: usize) -> Footprint {
    let initial = vec![0u64; w];
    ALLOCS.with(|c| c.set(0));
    BYTES.with(|c| c.set(0));
    MAX_ALIGN.with(|c| c.set(0));
    let obj = MwLlSc::new(n, w, &initial);
    let fp = Footprint {
        allocs: ALLOCS.with(Cell::get),
        bytes: BYTES.with(Cell::get),
        max_align: MAX_ALIGN.with(Cell::get),
    };
    drop(obj);
    fp
}

#[test]
fn a_small_object_is_one_unpadded_block() {
    // N = 4, W = 1: 4 slot words, 3N + 1 = 13 cells and 3NW = 12 buffer
    // words, the store's per-key shape, after the `Arc`'s counts and the
    // object's header, all in one block of at most 384 bytes.
    let fp = footprint(4, 1);
    assert_eq!(fp.allocs, 1, "MwLlSc::new(4, 1, _) made {} allocations: {fp:?}", fp.allocs);
    assert!(fp.bytes <= 384, "MwLlSc::new(4, 1, _) requested {} bytes: {fp:?}", fp.bytes);
    assert!(fp.max_align <= 16, "an allocation was aligned to {} bytes: {fp:?}", fp.max_align);
}

#[test]
fn requested_bytes_grow_linearly_in_n() {
    // Every extra process adds one slot word, 3 cell words and 3 W-word
    // buffers: 7 words, 56 bytes at W = 1. The per-process step must be
    // the same at every N (the header is the only constant) and at most
    // 64 bytes: a per-process word of more than 8 bytes, or padding any of
    // them to a cache line, would break the bound.
    let w = 1;
    let per_process_cap = 64;
    let ns = [4usize, 8, 16, 32, 64];
    let fps: Vec<Footprint> = ns.iter().map(|&n| footprint(n, w)).collect();
    let step = (fps[1].bytes - fps[0].bytes) / (ns[1] - ns[0]);
    for (&n, fp) in ns.iter().zip(&fps) {
        assert_eq!(
            fp.bytes,
            fps[0].bytes + step * (n - ns[0]),
            "N={n}: {fp:?} is off the line through N=4 and N=8 ({step} bytes per process)"
        );
        assert_eq!(fp.allocs, 1, "N={n}: {fp:?} is more than one block");
    }
    assert!(step <= per_process_cap, "each process adds {step} bytes, more than {per_process_cap}");
}
