//! The slot-leasing registry behind [`MwLlSc::claim`](crate::MwLlSc::claim)
//! and [`MwLlSc::attach`](crate::MwLlSc::attach) — public since the store
//! layer (`mwllsc-store`) leases shard-level slots through the same
//! machinery.
//!
//! The paper's model fixes `N` static processes; real deployments churn
//! worker threads. The registry maps the fixed process ids `0..N` onto
//! *leases*: a [`Handle`](crate::Handle) leases a slot for its lifetime and
//! releases it on drop, so the id space survives thread churn.
//!
//! The load-bearing detail is what travels with the slot: each slot carries
//! a `u32` *payload* that a lease hands to the new holder and a release
//! hands back. For `MwLlSc` the payload is the slot's owned buffer index
//! (`mybuf_p`): the algorithm's space bound rests on the invariant that the
//! `3N` buffers are partitioned at every instant among the current value
//! (`X.buf`), the `2N` history entries (`Bank`), and one spare per process,
//! and helping *exchanges* buffer ownership, so the payload must survive
//! the lease boundary. A freed slot is a process that is simply taking no
//! steps; re-leasing it resumes that process with its buffer intact, so the
//! `3NW + 3N + 1` shared-word footprint never grows no matter how many
//! handles come and go. Other consumers (the sharded store) use the payload
//! as an opaque token.
//!
//! The lease logic is [`Slots`], a view over slot words owned elsewhere:
//! an object's `N` slot words are the first words of its own block, and a
//! [`SlotRegistry`] (one per store shard) owns its words in a box. Either
//! way the words are unpadded. A handle leases a slot once and releases it
//! on drop, but the store claims a key's object per op, so in a store
//! every per-key op leases and releases one of the object's slot words.
//! Those words share the object's first cache line with its header (the
//! `Arc` counts and the counters) and `X`. Padding each word to 128 bytes
//! would cost 120 bytes per process slot in every object and every store
//! shard; the `pad` module records what the shared line costs on the
//! contended `hot4` cells and in E8.

use crate::sync::{AtomicU32, AtomicU64, Labeled, Ordering};

/// Bit marking a slot as currently leased; the low 32 bits hold the
/// resting payload of a free slot (stale while leased).
const LEASED: u64 = 1 << 63;

/// Errors from [`MwLlSc::attach`](crate::MwLlSc::attach).
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum AttachError {
    /// All `N` slots are leased by live handles.
    Exhausted {
        /// The configured process count (= total slots).
        n: usize,
    },
}

impl std::fmt::Display for AttachError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Exhausted { n } => {
                write!(f, "all {n} process slots are leased by live handles")
            }
        }
    }
}

impl std::error::Error for AttachError {}

/// The word of a free slot resting with `payload`.
pub(crate) fn free_slot(payload: u32) -> u64 {
    u64::from(payload)
}

/// The lease logic of a [`SlotRegistry`], over `n` slot words and a scan
/// cursor that someone else owns (an object's block, or the registry).
#[derive(Clone, Copy)]
pub(crate) struct Slots<'a> {
    /// Per-slot word: [`LEASED`] bit plus the resting payload, packed
    /// contiguously (eight slots per 64-byte line).
    slots: &'a [AtomicU64],
    /// Rotating scan start for [`lease_any`](Self::lease_any).
    cursor: &'a AtomicU32,
}

impl<'a> Slots<'a> {
    #[inline]
    pub(crate) fn new(slots: &'a [AtomicU64], cursor: &'a AtomicU32) -> Self {
        Self { slots, cursor }
    }

    /// Labels slot `p` as `("SLOT", p, 0)` and the cursor as `CURS` for
    /// model-checked builds (no-op otherwise).
    pub(crate) fn model_label(self) {
        for (p, slot) in self.slots.iter().enumerate() {
            Labeled::set_label(slot, "SLOT", p as u32, 0);
        }
        Labeled::set_label(self.cursor, "CURS", 0, 0);
    }

    /// Leases slot `p` if free, returning the payload it carries.
    pub(crate) fn lease_exact(self, p: usize) -> Option<u32> {
        // fetch_or is idempotent on an already-leased slot, so losing the
        // race costs nothing and the winner is decided by one RMW.
        let prev = self.slots[p].fetch_or(LEASED, Ordering::AcqRel); // lint: cell=SLOT
        (prev & LEASED == 0).then_some(prev as u32)
    }

    /// Leases any free slot, returning `(p, payload)`.
    pub(crate) fn lease_any(self) -> Option<(usize, u32)> {
        let n = self.slots.len();
        let start = self.cursor.fetch_add(1, Ordering::Relaxed) as usize % n; // lint: cell=CURS
        for i in 0..n {
            let p = (start + i) % n;
            // Cheap read first; only RMW slots that look free.
            // lint: cell=SLOT
            if self.slots[p].load(Ordering::Relaxed) & LEASED == 0 {
                if let Some(payload) = self.lease_exact(p) {
                    return Some((p, payload));
                }
            }
        }
        None
    }

    /// Returns slot `p` to the free pool, carrying `payload` back with it.
    ///
    /// The `Release` store pairs with the `AcqRel` in
    /// [`lease_exact`](Self::lease_exact): the next leaseholder observes
    /// every write the previous one made (for `MwLlSc`, its final `Help[p]`
    /// state and the contents of the carried buffer).
    pub(crate) fn release(self, p: usize, payload: u32) {
        debug_assert!(self.slots[p].load(Ordering::Relaxed) & LEASED != 0, "double release of {p}"); // lint: cell=SLOT
        self.slots[p].store(free_slot(payload), Ordering::Release); // lint: cell=SLOT
    }

    /// Number of currently leased slots.
    pub(crate) fn live(self) -> usize {
        // lint: cell=SLOT
        self.slots.iter().filter(|s| s.load(Ordering::Acquire) & LEASED != 0).count()
    }
}

/// Lease state for a fixed set of `n` slots, owning its words: the
/// registry of one store shard. (An [`MwLlSc`](crate::MwLlSc) keeps its
/// slot words in its own block and runs the same logic over them.)
///
/// Lock-free: a lease is one `fetch_or` on the slot word, a release is one
/// store. [`lease_any`](Self::lease_any) scans from a rotating start so
/// attachers spread across the id space instead of contending on slot 0.
///
/// # Examples
///
/// ```
/// use mwllsc::SlotRegistry;
///
/// let r = SlotRegistry::new(2);
/// let (p, payload) = r.lease_any().unwrap();
/// assert_eq!(payload, p as u32, "fresh slots carry their own id");
/// let q = r.lease_any().unwrap().0;
/// assert_ne!(p, q);
/// assert!(r.lease_any().is_none(), "both slots held");
/// r.release(p, 7);
/// assert_eq!(r.lease_exact(p), Some(7), "the payload travels with the slot");
/// ```
pub struct SlotRegistry {
    slots: Box<[AtomicU64]>,
    cursor: AtomicU32,
}

impl SlotRegistry {
    /// Creates a registry of `n` slots, slot `p` initially carrying the
    /// payload `p` (an opaque token for consumers that do not use it).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > u32::MAX` (payloads are 32-bit).
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a registry needs at least one slot");
        assert!(u32::try_from(n).is_ok(), "slot count exceeds u32");
        let this = Self {
            slots: (0..n).map(|p| AtomicU64::new(free_slot(p as u32))).collect(),
            cursor: AtomicU32::new(0),
        };
        this.view().model_label();
        this
    }

    #[inline]
    fn view(&self) -> Slots<'_> {
        Slots::new(&self.slots, &self.cursor)
    }

    /// Total number of slots.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Leases slot `p` if free, returning the payload it carries.
    #[must_use]
    pub fn lease_exact(&self, p: usize) -> Option<u32> {
        self.view().lease_exact(p)
    }

    /// Leases any free slot, returning `(p, payload)`.
    #[must_use]
    pub fn lease_any(&self) -> Option<(usize, u32)> {
        self.view().lease_any()
    }

    /// Returns slot `p` to the free pool, carrying `payload` back with it
    /// (a `Release` store that the next lease's `AcqRel` pairs with).
    pub fn release(&self, p: usize, payload: u32) {
        self.view().release(p, payload);
    }

    /// Number of currently leased slots.
    #[must_use]
    pub fn live(&self) -> usize {
        self.view().live()
    }
}

impl std::fmt::Debug for SlotRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlotRegistry")
            .field("slots", &self.slots.len())
            .field("live", &self.live())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An object's slot words for `n = 3`: slot `p` rests with its
    /// initial buffer `mybuf_p = 2N + p`.
    fn object_slots() -> (Vec<AtomicU64>, AtomicU32) {
        ((0..3).map(|p| AtomicU64::new(free_slot(6 + p))).collect(), AtomicU32::new(0))
    }

    #[test]
    fn lease_release_roundtrip_carries_payload() {
        let (words, cursor) = object_slots();
        let r = Slots::new(&words, &cursor);
        assert_eq!(r.lease_exact(1), Some(7), "initial mybuf_1 = 2N + 1");
        assert_eq!(r.lease_exact(1), None, "slot is held");
        r.release(1, 42);
        assert_eq!(r.lease_exact(1), Some(42), "release carried the new payload back");
        assert_eq!(r.live(), 1);
    }

    #[test]
    fn plain_registry_payload_is_the_slot_id() {
        let r = SlotRegistry::new(4);
        assert_eq!(r.capacity(), 4);
        for p in 0..4 {
            assert_eq!(r.lease_exact(p), Some(p as u32));
        }
        assert_eq!(r.capacity(), 4, "leases do not change the capacity");
    }

    #[test]
    fn lease_any_exhausts_and_recovers() {
        let r = SlotRegistry::new(2);
        let a = r.lease_any().unwrap();
        let b = r.lease_any().unwrap();
        assert_ne!(a.0, b.0);
        assert_eq!(r.lease_any(), None, "both slots held");
        r.release(a.0, a.1);
        assert_eq!(r.lease_any(), Some(a), "freed slot is reusable with its payload");
    }

    #[test]
    fn concurrent_lease_any_grants_distinct_slots() {
        use std::sync::{Arc, Barrier};
        let n = 8;
        let r = Arc::new(SlotRegistry::new(n));
        let barrier = Arc::new(Barrier::new(n));
        let joins: Vec<_> = (0..n)
            .map(|_| {
                let r = Arc::clone(&r);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    r.lease_any().expect("one slot per thread")
                })
            })
            .collect();
        let mut got: Vec<usize> = joins.into_iter().map(|j| j.join().unwrap().0).collect();
        got.sort_unstable();
        assert_eq!(got, (0..n).collect::<Vec<_>>(), "every slot granted exactly once");
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_rejected() {
        let _ = SlotRegistry::new(0);
    }
}
