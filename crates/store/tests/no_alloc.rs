//! The batched paths a hot caller runs on every tick — `read_many_into`
//! and `update_many_with`, the mesh worker's per-wave calls — allocate
//! nothing once the handle is warm. A counting global allocator watches
//! them; it counts per thread, so tests running in parallel do not
//! disturb each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mwllsc_store::{DynStore, Store, StoreConfig};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // `try_with`: the slot is gone while the thread's TLS is torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counting touches
// only a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// 64 keys with repeats, spread over every shard.
fn batch() -> Vec<u64> {
    (0..64).map(|i| (i * 37) % 50).collect()
}

#[test]
fn warmed_batch_paths_do_not_allocate() {
    let store = Store::new(StoreConfig::new(16, 4, 2, 1 << 12));
    let mut h = store.attach();
    let keys = batch();
    let mut out = vec![0u64; keys.len() * 2];
    // Warm up: materialize every key, lease every shard, size the scratch.
    h.update_many_with(&keys, |_, v| v[0] += 1).unwrap();
    h.read_many_into(&keys, &mut out).unwrap();

    let before = allocs();
    for _ in 0..10 {
        h.update_many_with(&keys, |_, v| v[0] += 1).unwrap();
        h.read_many_into(&keys, &mut out).unwrap();
    }
    assert_eq!(allocs() - before, 0, "a warmed handle's batched calls allocated");

    let copies = |k: u64| keys.iter().filter(|&&x| x == k).count() as u64;
    for (i, &k) in keys.iter().enumerate() {
        assert_eq!(out[i * 2], 11 * copies(k), "key {k}");
    }
}

#[test]
fn warmed_type_erased_batch_paths_do_not_allocate() {
    // The mesh worker drives the store through `DynStoreHandle`.
    let store: Box<dyn DynStore> = Box::new(Store::new(StoreConfig::new(16, 4, 1, 1 << 12)));
    let mut h = store.attach_dyn();
    let keys = batch();
    let mut out = vec![0u64; keys.len()];
    h.update_many_dyn(&keys, &mut |_, v| v[0] += 1).unwrap();
    h.read_many_into(&keys, &mut out).unwrap();

    let before = allocs();
    for _ in 0..10 {
        h.update_many_dyn(&keys, &mut |_, v| v[0] += 1).unwrap();
        h.read_many_into(&keys, &mut out).unwrap();
    }
    assert_eq!(allocs() - before, 0, "a warmed type-erased handle's batched calls allocated");
}
