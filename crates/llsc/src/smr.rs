//! Hand-rolled epoch-based safe memory reclamation (EBR).
//!
//! This build environment has no access to external crates, so the
//! pointer substrates cannot use `crossbeam-epoch`. This module is a
//! dependency-free reimplementation of the same discipline, sized for
//! what [`DeferredSwapCell`](crate::DeferredSwapCell) needs:
//!
//! * a **global epoch** counter ([`global_epoch`]) that only ever
//!   advances;
//! * a **participant registry** — a lock-free singly-linked list of
//!   per-thread records, each holding a *local epoch* word
//!   (`(epoch << 1) | pinned`). Records are claimed on first use by a
//!   thread, returned at thread exit, and reused by later threads, so
//!   the registry's size is bounded by the peak number of concurrent
//!   threads, not by thread churn;
//! * **pinned guards** ([`pin`] / [`Guard`]): while a thread holds a
//!   guard, its participant record advertises the epoch it entered, and
//!   the global epoch cannot advance more than one step past it;
//! * **per-epoch limbo bags**: retired garbage is pushed (lock-free) onto
//!   the bag indexed by `epoch % 3`, each item stamped with the epoch at
//!   retire time. Garbage with stamp `s` is freed only once the global
//!   epoch has reached `s + 2` — at that point every guard that could
//!   have observed the object before it was unlinked has been dropped
//!   (see *Why two epochs* below);
//! * **amortized advancing**: every [`ADVANCE_EVERY`]-th retire by a
//!   participant attempts [`try_advance`] and, on success, drains the
//!   bag that just became two epochs old. No background thread, no
//!   timers: reclamation piggybacks on retire traffic exactly like
//!   `crossbeam_epoch`'s.
//!
//! # Why two epochs
//!
//! [`pin`] publishes the thread's local epoch with a `SeqCst` fence
//! before the thread reads any protected pointer; [`try_advance`] issues
//! a `SeqCst` fence before scanning the registry. These fences totally
//! order every pin against every advance, which yields the two
//! invariants the scheme rests on:
//!
//! 1. a guard pinned at epoch `e` blocks every advance while its epoch
//!    differs from the global one, so the global epoch can reach at most
//!    `e + 1` while the guard lives;
//! 2. a node retired with stamp `s` was unlinked before the retirer read
//!    `s` from the global epoch, so any guard still able to reach the
//!    node was pinned at an epoch `≤ s`.
//!
//! Together: once the global epoch reaches `s + 2`, the advance from
//! `s + 1` verified that no participant was still pinned at `≤ s`, and
//! no later pin can re-enter an epoch that old — stamp-`s` garbage is
//! unreachable and safe to free, *at any later time, without a fresh
//! scan*. That last clause is why a drain may run concurrently with
//! pins, retires, and even other drains (bags are swapped out whole and
//! every item's stamp is re-checked at free time).
//!
//! # What this bounds
//!
//! Under sustained retire traffic with every guard short-lived, the
//! backlog of retired-but-unfreed nodes is `O(P · ADVANCE_EVERY)` for
//! `P` active participants: each participant contributes at most
//! `ADVANCE_EVERY` retires per epoch before it forces an advance
//! attempt, and at most ~3 epochs of garbage are pending at once. The
//! reclamation stress suite (`crates/llsc/tests/reclamation.rs`) holds
//! this bound as a hard assertion. The scheme inherits EBR's classic
//! caveat: a guard held forever (a stalled reader) blocks advancing and
//! lets garbage accumulate — correctness is unaffected, memory is not;
//! the same suite demonstrates both halves.

use core::cell::Cell;
use std::ptr;

use crate::sync::{fence, AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};

/// Retires a participant performs between two collection attempts.
///
/// Public so tests and benches can state the memory high-water bound
/// (`participants × ADVANCE_EVERY × small constant`) in terms of it.
pub const ADVANCE_EVERY: u64 = 64;

/// Number of limbo bags. Three suffice: at any instant only garbage from
/// the current epoch, the previous one, and the one before that can be
/// pending (older stamps are freed by the drain that accompanies each
/// advance).
const BAGS: usize = 3;

/// The global epoch. Monotone; bag index is `epoch % 3`.
static GLOBAL_EPOCH: AtomicU64 = AtomicU64::new(0);

/// Head of the participant-registry linked list. Records are never
/// deallocated (they are recycled via `in_use`), so traversal needs no
/// protection of its own.
static REGISTRY: AtomicPtr<Participant> = AtomicPtr::new(ptr::null_mut());

/// Retired-but-not-yet-freed item count, across all cells and threads.
static PENDING: AtomicUsize = AtomicUsize::new(0);

/// Participant records ever allocated (reused records are not counted
/// twice): the peak number of concurrent threads that touched the
/// subsystem. Sizes the backpressure soft cap.
static REGISTERED: AtomicUsize = AtomicUsize::new(0);

/// Total items freed by the subsystem since process start (diagnostics).
static FREED: AtomicU64 = AtomicU64::new(0);

static LIMBO: [LimboBag; BAGS] = [LimboBag::new(), LimboBag::new(), LimboBag::new()];

/// One registry record. A record is *owned* by at most one live thread
/// at a time (`in_use`); only the owner touches the `Cell` fields, which
/// is what makes the manual `Sync` impl below sound.
struct Participant {
    /// `(epoch << 1) | 1` while pinned; even (flag clear) while not.
    /// The epoch bits are stale while unpinned and must be ignored.
    state: AtomicU64,
    /// Claimed by a live thread? Cleared at thread exit so the record —
    /// and with it the registry's size — is recycled across thread churn.
    in_use: AtomicBool,
    /// Next record in the registry. Written once at publication.
    next: AtomicPtr<Participant>,
    /// Re-entrant pin depth. Owner-thread only.
    guard_depth: Cell<usize>,
    /// Retires since the owner last attempted a collection. Owner only.
    retires: Cell<u64>,
}

// SAFETY: the `Cell` fields are accessed only by the thread that owns
// the record (`in_use` hand-off uses Acquire/Release, so ownership
// transfer is a synchronization point); the remaining fields are
// atomics.
unsafe impl Sync for Participant {}

impl Participant {
    fn new_in_use() -> Self {
        Self {
            state: AtomicU64::new(0),
            in_use: AtomicBool::new(true),
            next: AtomicPtr::new(ptr::null_mut()),
            guard_depth: Cell::new(0),
            retires: Cell::new(0),
        }
    }
}

/// A type-erased retired allocation, linked into a limbo bag.
struct Retired {
    /// The erased `Box<Node<T>>` pointer.
    ptr: *mut u8,
    /// Reconstructs and drops the box. Called exactly once.
    drop_fn: unsafe fn(*mut u8),
    /// Global epoch at retire time; freed once the epoch reaches `+2`.
    stamp: u64,
    next: *mut Retired,
}

/// A Treiber stack of [`Retired`] items for one `epoch % 3` residue.
struct LimboBag {
    head: AtomicPtr<Retired>,
}

impl LimboBag {
    const fn new() -> Self {
        Self { head: AtomicPtr::new(ptr::null_mut()) }
    }

    fn push(&self, item: *mut Retired) {
        let mut head = self.head.load(Ordering::Relaxed); // lint: cell=LIMBO
        loop {
            // SAFETY: `item` is exclusively ours until the CAS publishes it.
            unsafe { (*item).next = head };
            // Release: publishes the item's fields (ptr, drop_fn, stamp)
            // to whichever drain later Acquire-swaps the head.
            match self.head.compare_exchange_weak(head, item, Ordering::Release, Ordering::Relaxed) // lint: cell=LIMBO
            {
                Ok(_) => return,
                Err(actual) => head = actual,
            }
        }
    }

    /// Swaps the bag out whole and frees every item whose stamp is two or
    /// more epochs old; newer items (possible after an index wrap during
    /// a stalled drain) are pushed back. Returns the number freed.
    fn drain(&self) -> usize {
        // AcqRel: Acquire pairs with `push`'s Release so the items'
        // fields are visible; Release keeps a concurrent drain that
        // observes our null from re-ordering ahead of it (cheap, and the
        // symmetry keeps the reasoning local).
        let mut head = self.head.swap(ptr::null_mut(), Ordering::AcqRel); // lint: cell=LIMBO
        if head.is_null() {
            return 0;
        }
        // Any stamp `s` with `global >= s + 2` is safe to free here even
        // though we hold no pin and ran no scan: reaching `s + 2`
        // required an advance whose scan proved no participant was still
        // pinned at `<= s`, and pins only ever enter the current epoch,
        // so none can reappear that old. (See the module docs.)
        let global = GLOBAL_EPOCH.load(Ordering::Acquire); // lint: cell=EPOCH
        let mut freed = 0;
        while !head.is_null() {
            // SAFETY: items in the bag were published exactly once by
            // `push` and the swap above made this chain exclusively ours.
            let item = unsafe { Box::from_raw(head) };
            head = item.next;
            if global >= item.stamp.saturating_add(2) {
                // SAFETY: the stamp check above is precisely the
                // reclamation condition; `drop_fn` matches `ptr`'s
                // erased type and runs exactly once.
                unsafe { (item.drop_fn)(item.ptr) };
                PENDING.fetch_sub(1, Ordering::Relaxed); // lint: cell=CTR
                FREED.fetch_add(1, Ordering::Relaxed); // lint: cell=CTR
                freed += 1;
            } else {
                self.push(Box::into_raw(item));
            }
        }
        freed
    }
}

/// Claims a free participant record, or registers a fresh one.
fn acquire_record() -> *mut Participant {
    let mut cur = REGISTRY.load(Ordering::Acquire); // lint: cell=REG
    while !cur.is_null() {
        // SAFETY: registry records are never deallocated.
        let p = unsafe { &*cur };
        // Acquire on success: the previous owner's Release hand-off
        // ordered its final Cell writes before us.
        // lint: cell=REG
        if p.in_use.compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed).is_ok() {
            p.guard_depth.set(0);
            p.retires.set(0);
            return cur;
        }
        cur = p.next.load(Ordering::Relaxed); // lint: cell=REG
    }
    // No free record: allocate and publish one. Records live for the
    // whole process; the registry is bounded by peak thread concurrency.
    REGISTERED.fetch_add(1, Ordering::Relaxed); // lint: cell=CTR
    let fresh = Box::into_raw(Box::new(Participant::new_in_use()));
    let mut head = REGISTRY.load(Ordering::Relaxed); // lint: cell=REG
    loop {
        // SAFETY: `fresh` is unpublished, we still own it exclusively.
        unsafe { (*fresh).next.store(head, Ordering::Relaxed) }; // lint: cell=REG
                                                                 // Release: publishes the record's initialized fields to scanners.
                                                                 // lint: cell=REG
        match REGISTRY.compare_exchange_weak(head, fresh, Ordering::Release, Ordering::Relaxed) {
            Ok(_) => return fresh,
            Err(actual) => head = actual,
        }
    }
}

fn release_record(p: *mut Participant) {
    // SAFETY: registry records are never deallocated.
    let part = unsafe { &*p };
    debug_assert_eq!(part.guard_depth.get(), 0, "record released while pinned");
    // Release: hand our Cell writes to the next `acquire_record` owner.
    part.in_use.store(false, Ordering::Release); // lint: cell=REG
}

/// The calling thread's registry record, returned at thread exit.
struct ThreadParticipant {
    ptr: *mut Participant,
}

impl Drop for ThreadParticipant {
    fn drop(&mut self) {
        release_record(self.ptr);
    }
}

thread_local! {
    static PARTICIPANT: ThreadParticipant = ThreadParticipant { ptr: acquire_record() };
}

/// An RAII pin on the current epoch.
///
/// While any `Guard` lives on this thread, no object unlinked *after*
/// the pin can be freed, so pointers loaded under the guard stay valid
/// until the guard drops. Guards nest (re-entrant per thread) and are
/// intentionally `!Send`: the pin lives in this thread's participant
/// record.
#[derive(Debug)]
pub struct Guard {
    participant: *mut Participant,
    /// The guard pinned a temporary record because thread-local storage
    /// was already torn down (possible during TLS destructors); the
    /// record is returned on drop.
    ephemeral: bool,
}

/// Pins the current thread: advertises the current global epoch in the
/// thread's participant record and returns the [`Guard`] that holds the
/// pin. Nested pins reuse the outermost epoch.
#[must_use]
pub fn pin() -> Guard {
    let (participant, ephemeral) =
        PARTICIPANT.try_with(|t| (t.ptr, false)).unwrap_or_else(|_| (acquire_record(), true));
    // SAFETY: registry records are never deallocated, and we own this one.
    let p = unsafe { &*participant };
    let depth = p.guard_depth.get();
    if depth == 0 {
        // The epoch load may be stale; that is harmless — pinning an
        // older epoch only blocks advancing earlier (more conservative).
        let e = GLOBAL_EPOCH.load(Ordering::Relaxed); // lint: cell=EPOCH
        p.state.store((e << 1) | 1, Ordering::Relaxed); // lint: cell=REG
                                                        // SeqCst: totally ordered against the fence in `try_advance`.
                                                        // Either the advancer's scan sees our pin (and refuses to
                                                        // advance past it), or this fence — and therefore every
                                                        // protected load after it — comes after the advance, in which
                                                        // case we can only observe post-advance pointers. This is the
                                                        // load-bearing fence of the whole scheme.
        fence(Ordering::SeqCst);
    }
    p.guard_depth.set(depth + 1);
    Guard { participant, ephemeral }
}

impl Drop for Guard {
    fn drop(&mut self) {
        // SAFETY: registry records are never deallocated, and this
        // guard's existence proves the record is owned by this thread.
        let p = unsafe { &*self.participant };
        let depth = p.guard_depth.get() - 1;
        p.guard_depth.set(depth);
        if depth == 0 {
            let s = p.state.load(Ordering::Relaxed); // lint: cell=REG
                                                     // Release: every protected read this thread performed under
                                                     // the pin is ordered before the unpin becomes visible to an
                                                     // advancer's scan.
            p.state.store(s & !1, Ordering::Release); // lint: cell=REG
        }
        if self.ephemeral {
            release_record(self.participant);
        }
    }
}

/// Hands an unlinked, heap-allocated `T` to the reclamation subsystem.
/// It is dropped (via `Box::from_raw`) once every guard that could still
/// reach it has been released.
///
/// Requiring a [`Guard`] keeps the discipline honest: the retiring
/// thread is pinned, so the epoch it stamps the garbage with is at least
/// the epoch of any guard that could have observed the object — the
/// invariant the two-epoch rule rests on.
///
/// # Safety
///
/// * `object` came from `Box::into_raw` and is not reachable from any
///   shared location anymore (the caller unlinked it);
/// * no new reference to it will be created after this call;
/// * `object` is not retired twice.
pub unsafe fn retire<T: Send + 'static>(_guard: &Guard, object: *mut T) {
    unsafe fn drop_box<T>(p: *mut u8) {
        // SAFETY: `p` is the erased `Box<T>` captured below; the
        // subsystem calls each `drop_fn` exactly once.
        drop(unsafe { Box::from_raw(p.cast::<T>()) });
    }
    PENDING.fetch_add(1, Ordering::Relaxed); // lint: cell=CTR
                                             // Acquire keeps the stamp from being read ahead of the caller's
                                             // unlink: the stamp must be no older than the epoch in which the
                                             // object was still reachable (invariant 2 of the module docs). A
                                             // fresher-than-necessary stamp only delays the free.
    let stamp = GLOBAL_EPOCH.load(Ordering::Acquire); // lint: cell=EPOCH
    let item = Box::into_raw(Box::new(Retired {
        ptr: object.cast::<u8>(),
        drop_fn: drop_box::<T>,
        stamp,
        next: ptr::null_mut(),
    }));
    LIMBO[(stamp % BAGS as u64) as usize].push(item);

    // Amortized collection: every ADVANCE_EVERY-th retire on this thread
    // tries to move the epoch and drain what just became safe.
    let tick = PARTICIPANT.try_with(|t| {
        // SAFETY: registry records are never deallocated.
        let p = unsafe { &*t.ptr };
        let r = p.retires.get() + 1;
        p.retires.set(if r >= ADVANCE_EVERY { 0 } else { r });
        r >= ADVANCE_EVERY
    });
    if tick.unwrap_or(true) {
        collect();
    }
}

/// Attempts to advance the global epoch by one. Fails (returns `false`)
/// if any participant is pinned at an epoch other than the current one —
/// including one pinned at the *previous* epoch, which is exactly the
/// stalled-reader backpressure EBR is built around.
pub fn try_advance() -> bool {
    let e = GLOBAL_EPOCH.load(Ordering::Acquire); // lint: cell=EPOCH
                                                  // SeqCst: pairs with the fence in `pin` (see there). After this
                                                  // fence, every pin whose fence preceded ours is visible to the scan
                                                  // below.
    fence(Ordering::SeqCst);
    let mut cur = REGISTRY.load(Ordering::Acquire); // lint: cell=REG
    while !cur.is_null() {
        // SAFETY: registry records are never deallocated.
        let p = unsafe { &*cur };
        let s = p.state.load(Ordering::Relaxed); // lint: cell=REG
        if s & 1 == 1 && s >> 1 != e {
            return false;
        }
        cur = p.next.load(Ordering::Relaxed); // lint: cell=REG
    }
    // AcqRel: the success makes the new epoch — and transitively the
    // scan that justified it — visible to loads of the epoch elsewhere;
    // a lost race just means someone else advanced for us.
    // lint: cell=EPOCH
    GLOBAL_EPOCH.compare_exchange(e, e + 1, Ordering::AcqRel, Ordering::Relaxed).is_ok()
}

/// One amortized collection step: try to advance, then drain the bag
/// that (on success) just became two epochs old.
fn collect() {
    if try_advance() {
        let g = GLOBAL_EPOCH.load(Ordering::Acquire); // lint: cell=EPOCH
                                                      // The bag holding stamps `g - 2` (index arithmetic mod 3). Every
                                                      // item's stamp is re-checked in `drain`, so a racing advance
                                                      // only makes this drain less productive, never unsound.
        LIMBO[((g.wrapping_add(1)) % BAGS as u64) as usize].drain();
    }
}

/// The backlog level above which [`decongest`] starts applying
/// backpressure. Scaled by the number of participant records so the cap
/// is a property of thread concurrency, never of swap count.
fn soft_cap() -> usize {
    REGISTERED.load(Ordering::Relaxed).max(1) * ADVANCE_EVERY as usize * 4 // lint: cell=CTR
}

/// Bounded backpressure against backlog growth; call **unpinned**, after
/// an operation that retired garbage.
///
/// Amortized collection alone keeps the backlog at `O(participants ×
/// ADVANCE_EVERY)` only while epochs can actually advance. On an
/// oversubscribed machine a thread is regularly *preempted while
/// pinned*, and for that whole scheduling quantum every advance fails —
/// the running thread can then retire an entire quantum's worth of
/// garbage unchecked. This hook restores the bound: once the global
/// backlog exceeds a participant-scaled soft cap, the producing thread
/// spends a bounded effort here — advance + targeted drain when
/// possible, `yield_now` otherwise, so the stale pinned thread gets CPU
/// to finish its operation and unpin. A permanently stalled guard caps
/// the effort (four rounds) rather than blocking: memory stays hostage
/// to the stall, as EBR's contract says it must, but progress is
/// unaffected.
pub fn decongest() {
    for _ in 0..4 {
        // lint: cell=CTR
        if PENDING.load(Ordering::Relaxed) <= soft_cap() {
            return;
        }
        if try_advance() {
            // The advance proved garbage two epochs back is now free;
            // sweep every bag (each item's stamp is re-checked, so the
            // unfreeable ones are simply re-pushed).
            for bag in &LIMBO {
                bag.drain();
            }
        } else {
            // Someone is pinned at a stale epoch — most likely preempted
            // mid-operation. Give the scheduler a chance to run them.
            crate::sync::yield_now();
        }
    }
}

/// Makes a best effort to reclaim everything currently reclaimable:
/// several advance attempts, each followed by a full drain of all bags.
/// Returns the number of items freed.
///
/// With no guard held anywhere this frees the entire backlog; with a
/// stalled guard it frees what the stall does not protect. Intended for
/// tests, benches, and quiescent points (it is never required for the
/// memory bound — amortized collection in [`retire`] maintains that).
pub fn try_flush() -> usize {
    let mut freed = 0;
    // Two advances move every pre-flush stamp out of the protection
    // window; two more rounds give racing pins a chance to drain what
    // they blocked. Extra iterations are cheap no-ops.
    for _ in 0..4 {
        let _ = try_advance();
        for bag in &LIMBO {
            freed += bag.drain();
        }
    }
    freed
}

/// Current global epoch (diagnostics; monotone).
#[must_use]
pub fn global_epoch() -> u64 {
    GLOBAL_EPOCH.load(Ordering::Acquire) // lint: cell=EPOCH
}

/// Number of retired items not yet freed, process-wide. The reclamation
/// tests assert this (and the per-cell node counters) stay bounded under
/// sustained retire traffic.
#[must_use]
pub fn pending() -> usize {
    PENDING.load(Ordering::Relaxed) // lint: cell=CTR
}

/// Total items freed by the subsystem since process start.
#[must_use]
pub fn freed() -> u64 {
    FREED.load(Ordering::Relaxed) // lint: cell=CTR
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    /// A payload whose drop is observable.
    struct Tracked(Arc<AtomicUsize>);
    impl Drop for Tracked {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Flushes until `cond` holds. Sibling tests in this binary may hold
    /// transient pins that block individual advance attempts, so a single
    /// `try_flush` is not enough for a deterministic assertion.
    fn settle(cond: impl Fn() -> bool) -> bool {
        for _ in 0..10_000 {
            try_flush();
            if cond() {
                return true;
            }
            std::thread::yield_now();
        }
        false
    }

    #[test]
    fn retire_then_flush_frees() {
        let drops = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let g = pin();
            let p = Box::into_raw(Box::new(Tracked(Arc::clone(&drops))));
            // SAFETY: `p` is unlinked (never shared) and retired once.
            unsafe { retire(&g, p) };
        }
        assert!(
            settle(|| drops.load(Ordering::Relaxed) == 100),
            "all garbage freed at quiescence (freed {})",
            drops.load(Ordering::Relaxed)
        );
    }

    #[test]
    fn held_guard_defers_frees() {
        let _gate = crate::testgate();
        let drops = Arc::new(AtomicUsize::new(0));
        let hold = pin();
        let p = Box::into_raw(Box::new(Tracked(Arc::clone(&drops))));
        // SAFETY: unlinked, retired once.
        unsafe { retire(&hold, p) };
        // Our own pin caps the global epoch below stamp + 2, so no amount
        // of flushing can free the node while the guard lives.
        for _ in 0..16 {
            try_flush();
        }
        assert_eq!(drops.load(Ordering::Relaxed), 0, "pinned epoch protects the node");
        drop(hold);
        assert!(settle(|| drops.load(Ordering::Relaxed) == 1), "freed after the guard dropped");
    }

    #[test]
    fn guards_nest() {
        let a = pin();
        let b = pin();
        drop(a);
        // Still pinned through `b`: an advance at a different epoch will
        // stall rather than misbehave; just exercise the depth counting.
        drop(b);
        let _ = try_advance();
    }

    #[test]
    fn epoch_is_monotone_across_threads() {
        let _gate = crate::testgate();
        let before = global_epoch();
        let joins: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..50 {
                        let g = pin();
                        let p = Box::into_raw(Box::new(7u64));
                        // SAFETY: unlinked, retired once.
                        unsafe { retire(&g, p) };
                    }
                })
            })
            .collect();
        for j in joins {
            j.join().unwrap();
        }
        try_flush();
        assert!(global_epoch() >= before);
    }
}
