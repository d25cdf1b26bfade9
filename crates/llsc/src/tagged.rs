//! Tagged-word realization of single-word LL/SC from CAS.

use core::fmt;

use crate::sync::{AtomicU64, Labeled, Ordering};
use crate::{Link, LlScCell};

/// A single-word LL/SC/VL/read/write object packed into one `AtomicU64`.
///
/// Layout: the value occupies the low `value_bits` bits, a monotone tag the
/// remaining `64 - value_bits`. A successful SC or a `write` increments the
/// tag (mod `2^(64-value_bits)`), so an SC — implemented as one
/// `compare_exchange` against the word observed at LL time — succeeds iff
/// the object did not change in between. This realizes exact LL/SC
/// semantics up to tag wrap-around (see [`TaggedLlSc::wraparound_bound`]).
///
/// The operations live on [`TaggedView`], which borrows the word: this
/// type is a word that views itself, and the multiword object views the
/// cell words of its own block the same way.
///
/// # Examples
///
/// ```
/// use llsc_word::{LlScCell, TaggedLlSc};
///
/// let x = TaggedLlSc::new(8, 5); // 8-bit values, initial value 5
/// let (v, link) = x.ll();
/// assert_eq!(v, 5);
/// assert!(x.vl(link));
/// assert!(x.sc(link, 6));
/// assert_eq!(x.read(), 6);
/// // The old link is now stale:
/// assert!(!x.vl(link));
/// assert!(!x.sc(link, 7));
/// ```
pub struct TaggedLlSc {
    cell: AtomicU64,
    value_bits: u32,
}

impl fmt::Debug for TaggedLlSc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.view().fmt(f)
    }
}

impl TaggedLlSc {
    /// Creates a cell whose values fit in `value_bits` bits, holding `init`.
    ///
    /// # Panics
    ///
    /// Panics if `value_bits` is 0 or ≥ 64 (at least one tag bit is
    /// required), or if `init` does not fit in `value_bits` bits.
    #[must_use]
    pub fn new(value_bits: u32, init: u64) -> Self {
        assert!((1..64).contains(&value_bits), "value_bits must be in 1..=63, got {value_bits}");
        let max = (1u64 << value_bits) - 1;
        assert!(init <= max, "initial value {init} does not fit in {value_bits} bits");
        Self { cell: AtomicU64::new(TaggedView::initial_word(init)), value_bits }
    }

    /// Creates a cell sized for values `0..=max`, holding `init`.
    #[must_use]
    pub fn with_max(max: u64, init: u64) -> Self {
        Self::new(crate::bits_for(max), init)
    }

    #[inline]
    fn view(&self) -> TaggedView<'_> {
        TaggedView::with_checked_bits(&self.cell, self.value_bits)
    }

    /// Number of successful SC/write operations that must occur *between one
    /// process's LL and its SC* before the tag can wrap and an SC can
    /// succeed spuriously (the residual ABA window).
    ///
    /// For the field widths used by the multiword algorithm (`value_bits ≤
    /// 2 + log2(3N)`), this is at least `2^40` even for a million
    /// processes.
    #[must_use]
    pub fn wraparound_bound(&self) -> u128 {
        1u128 << self.view().tag_bits()
    }

    /// The number of bits the value field occupies.
    #[must_use]
    pub fn value_bits(&self) -> u32 {
        self.value_bits
    }
}

impl LlScCell for TaggedLlSc {
    fn ll(&self) -> (u64, Link) {
        self.view().ll()
    }

    fn sc(&self, link: Link, v: u64) -> bool {
        self.view().sc(link, v)
    }

    fn vl(&self, link: Link) -> bool {
        self.view().vl(link)
    }

    fn read(&self) -> u64 {
        self.view().read()
    }

    fn write(&self, v: u64) {
        self.view().write(v);
    }

    fn max_value(&self) -> u64 {
        self.view().max_value()
    }

    fn model_label(&self, name: &'static str, a: u32, b: u32) {
        self.view().model_label(name, a, b);
    }
}

/// A tagged LL/SC cell viewed in place: a borrowed `AtomicU64` holding a
/// value of `value_bits` bits under a tag, laid out as in [`TaggedLlSc`].
///
/// This is the one implementation of the tagged LL/SC/VL operations.
/// [`TaggedLlSc`] views its own word; the multiword object views the cell
/// words of its block and derives each cell's value width from its
/// layout, so no cell stores its own width.
///
/// # Examples
///
/// ```
/// use llsc_word::sync::AtomicU64;
/// use llsc_word::{LlScCell, TaggedView};
///
/// let word = AtomicU64::new(TaggedView::initial_word(5));
/// let x = TaggedView::new(&word, 8);
/// let (v, link) = x.ll();
/// assert_eq!(v, 5);
/// assert!(x.sc(link, 6));
/// assert!(!TaggedView::new(&word, 8).vl(link), "every view of the word sees the SC");
/// ```
#[derive(Clone, Copy)]
pub struct TaggedView<'a> {
    cell: &'a AtomicU64,
    value_bits: u32,
}

impl fmt::Debug for TaggedView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Untrapped read: formatting must never become a scheduling point
        // in model-checked builds.
        #[cfg(mwllsc_model)]
        let raw = self.cell.debug_load();
        #[cfg(not(mwllsc_model))]
        let raw = self.cell.load(Ordering::Relaxed); // lint: cell=none
        f.debug_struct("TaggedLlSc")
            .field("value", &(raw & self.value_mask()))
            .field("tag", &(raw >> self.value_bits))
            .field("value_bits", &self.value_bits)
            .finish()
    }
}

impl<'a> TaggedView<'a> {
    /// Views `cell` as a tagged cell whose values fit in `value_bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `value_bits` is 0 or ≥ 64 (at least one tag bit is
    /// required).
    #[inline]
    #[must_use]
    pub fn new(cell: &'a AtomicU64, value_bits: u32) -> Self {
        assert!((1..64).contains(&value_bits), "value_bits must be in 1..=63, got {value_bits}");
        Self { cell, value_bits }
    }

    /// [`new`](Self::new) for a width the caller has already checked: a
    /// [`TaggedLlSc`]'s own, or one derived from a multiword layout, which
    /// the per-access paths view without repeating the range check.
    #[inline]
    pub(crate) fn with_checked_bits(cell: &'a AtomicU64, value_bits: u32) -> Self {
        debug_assert!((1..64).contains(&value_bits), "value_bits must be in 1..=63");
        Self { cell, value_bits }
    }

    /// The word that holds `init` under tag 0: what a cell's word starts
    /// as.
    #[inline]
    #[must_use]
    pub fn initial_word(init: u64) -> u64 {
        init
    }

    #[inline]
    fn value_mask(&self) -> u64 {
        (1u64 << self.value_bits) - 1
    }

    #[inline]
    fn tag_bits(&self) -> u32 {
        64 - self.value_bits
    }

    #[inline]
    fn pack_next(&self, raw: u64, v: u64) -> u64 {
        debug_assert!(v <= self.max_value());
        let tag = raw >> self.value_bits;
        // value_bits >= 1 keeps tag_bits <= 63, so the shift cannot overflow.
        let next_tag = tag.wrapping_add(1) & ((1u64 << self.tag_bits()) - 1);
        (next_tag << self.value_bits) | v
    }

    #[cfg(debug_assertions)]
    fn id(&self) -> usize {
        std::ptr::from_ref(self.cell).addr()
    }

    #[inline]
    fn make_link(&self, raw: u64) -> Link {
        Link {
            snapshot: raw,
            #[cfg(debug_assertions)]
            owner: self.id(),
        }
    }

    #[cfg(debug_assertions)]
    fn check_link(&self, link: &Link) {
        debug_assert_eq!(
            link.owner,
            self.id(),
            "Link used with an object other than the one that issued it"
        );
    }

    #[cfg(not(debug_assertions))]
    #[inline]
    fn check_link(&self, _link: &Link) {}
}

impl LlScCell for TaggedView<'_> {
    #[inline]
    fn ll(&self) -> (u64, Link) {
        let raw = self.cell.load(Ordering::SeqCst); // lint: cell=X
        (raw & self.value_mask(), self.make_link(raw))
    }

    #[inline]
    fn sc(&self, link: Link, v: u64) -> bool {
        self.check_link(&link);
        assert!(v <= self.max_value(), "SC value {v} exceeds {} bits", self.value_bits);
        let next = self.pack_next(link.snapshot, v);
        // lint: cell=X
        self.cell.compare_exchange(link.snapshot, next, Ordering::SeqCst, Ordering::SeqCst).is_ok()
    }

    #[inline]
    fn vl(&self, link: Link) -> bool {
        self.check_link(&link);
        self.cell.load(Ordering::SeqCst) == link.snapshot // lint: cell=X
    }

    #[inline]
    fn read(&self) -> u64 {
        self.cell.load(Ordering::SeqCst) & self.value_mask() // lint: cell=X
    }

    /// Plain write; invalidates all outstanding links by bumping the tag.
    ///
    /// Implemented as one `fetch_update` (a CAS loop under the hood). The
    /// loop is lock-free, not wait-free, in general; however the multiword
    /// algorithm only issues `write` on `Help[p]` *by process `p` itself*
    /// while no SC on `Help[p]` can succeed (helpers' SCs require a
    /// `(1, _)` link, which cannot exist at line 1), and the initializing
    /// writes are single-threaded, so within the algorithm every `write`
    /// completes in `O(1)` steps. This matches the paper's cost
    /// accounting — and makes the whole `write` a *single* access at the
    /// facade granularity, mirroring the one-step `write` of the
    /// `simsched` interpreter.
    #[inline]
    fn write(&self, v: u64) {
        assert!(v <= self.max_value(), "write value {v} exceeds {} bits", self.value_bits);
        let _ = self
            .cell
            // lint: cell=X
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |cur| Some(self.pack_next(cur, v)));
    }

    #[inline]
    fn max_value(&self) -> u64 {
        self.value_mask()
    }

    fn model_label(&self, name: &'static str, a: u32, b: u32) {
        Labeled::set_label(self.cell, name, a, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn ll_sc_roundtrip() {
        let x = TaggedLlSc::new(16, 100);
        let (v, link) = x.ll();
        assert_eq!(v, 100);
        assert!(x.sc(link, 200));
        assert_eq!(x.read(), 200);
    }

    #[test]
    fn sc_fails_after_interfering_sc() {
        let x = TaggedLlSc::new(16, 0);
        let (_, l1) = x.ll();
        let (_, l2) = x.ll();
        assert!(x.sc(l1, 1));
        assert!(!x.sc(l2, 2), "second SC must fail: a successful SC intervened");
        assert_eq!(x.read(), 1);
    }

    #[test]
    fn sc_fails_even_on_same_value_aba() {
        // Classic ABA: value returns to its original, SC must still fail.
        let x = TaggedLlSc::new(16, 7);
        let (_, link) = x.ll();
        let (_, l2) = x.ll();
        assert!(x.sc(l2, 9));
        let (_, l3) = x.ll();
        assert!(x.sc(l3, 7)); // value is 7 again
        assert_eq!(x.read(), 7);
        assert!(!x.vl(link));
        assert!(!x.sc(link, 8), "ABA must not fool the SC");
    }

    #[test]
    fn write_invalidates_links() {
        let x = TaggedLlSc::new(8, 3);
        let (_, link) = x.ll();
        x.write(3); // same value, still must invalidate
        assert!(!x.vl(link));
        assert!(!x.sc(link, 4));
        assert_eq!(x.read(), 3);
    }

    #[test]
    fn vl_true_until_change() {
        let x = TaggedLlSc::new(8, 1);
        let (_, link) = x.ll();
        assert!(x.vl(link));
        assert!(x.vl(link), "VL must not consume the link");
        let (_, l2) = x.ll();
        assert!(x.sc(l2, 2));
        assert!(!x.vl(link));
    }

    #[test]
    fn successful_sc_invalidates_own_future_reuse() {
        // The paper's semantics: an SC (even by the same process) starts a
        // new "era"; re-using the old link must fail.
        let x = TaggedLlSc::new(8, 0);
        let (_, link) = x.ll();
        assert!(x.sc(link, 1));
        assert!(!x.sc(link, 2), "a link is dead after a successful SC through it");
    }

    #[test]
    fn max_value_enforced() {
        let x = TaggedLlSc::new(4, 0);
        assert_eq!(x.max_value(), 15);
        let (_, link) = x.ll();
        assert!(x.sc(link, 15));
        assert_eq!(x.read(), 15);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn sc_value_overflow_panics() {
        let x = TaggedLlSc::new(4, 0);
        let (_, link) = x.ll();
        let _ = x.sc(link, 16);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn init_overflow_panics() {
        let _ = TaggedLlSc::new(3, 8);
    }

    #[test]
    #[should_panic(expected = "value_bits")]
    fn zero_value_bits_panics() {
        let _ = TaggedLlSc::new(0, 0);
    }

    #[test]
    fn view_rejects_widths_without_a_tag_bit() {
        let word = AtomicU64::new(0);
        for bits in [0, 64] {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                TaggedView::new(&word, bits)
            }));
            assert!(caught.is_err(), "value_bits={bits} must be rejected");
        }
        assert_eq!(TaggedView::new(&word, 63).max_value(), (1 << 63) - 1);
    }

    #[test]
    fn tag_wraps_without_corrupting_value() {
        // With 62 value bits there are only 4 tag values; exercise wrap.
        let x = TaggedLlSc::new(62, 0);
        for i in 0..20u64 {
            let (v, link) = x.ll();
            assert_eq!(v, i);
            assert!(x.sc(link, i + 1));
        }
        assert_eq!(x.read(), 20);
    }

    #[test]
    fn tag_wraparound_aba_is_real_and_matches_documented_bound() {
        // Negative test pinning down the documented caveat: with only 2
        // tag bits, exactly `wraparound_bound()` = 4 successful SCs that
        // return the value to its original make a stale SC succeed
        // spuriously. This is why the multiword algorithm sizes its value
        // fields to leave ≥ 40 tag bits (see `Layout`).
        let x = TaggedLlSc::new(62, 7);
        assert_eq!(x.wraparound_bound(), 4);
        let (_, stale) = x.ll();
        // 3 intervening SCs: tag cycles 1, 2, 3 — stale SC still fails.
        for v in [8u64, 9, 8] {
            let (_, l) = x.ll();
            assert!(x.sc(l, v));
            assert!(!x.vl(stale), "stale link must look broken before the wrap");
        }
        // 4th SC returns the value to 7 and the tag to 0: full wrap.
        let (_, l) = x.ll();
        assert!(x.sc(l, 7));
        assert!(
            x.sc(stale, 42),
            "after exactly wraparound_bound() successful SCs the ABA window opens — \
             if this stops succeeding, the documented bound is stale"
        );
        assert_eq!(x.read(), 42);
    }

    #[test]
    fn concurrent_fetch_increment_is_exact() {
        // N threads each perform K successful fetch&increments via LL/SC.
        const THREADS: usize = 8;
        const PER: u64 = 10_000;
        let x = Arc::new(TaggedLlSc::new(32, 0));
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let x = Arc::clone(&x);
            handles.push(std::thread::spawn(move || {
                let mut done = 0;
                while done < PER {
                    let (v, link) = x.ll();
                    if x.sc(link, v + 1) {
                        done += 1;
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(x.read(), THREADS as u64 * PER);
    }

    #[test]
    fn concurrent_vl_never_lies() {
        // A validator repeatedly LLs then VLs with no writer: VL always true.
        let x = Arc::new(TaggedLlSc::new(32, 9));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let v = {
            let x = Arc::clone(&x);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let (val, link) = x.ll();
                    if x.vl(link) {
                        // Between LL and a *successful* VL the value is the
                        // value we read (no change happened).
                        assert_eq!(x.read(), val);
                    }
                }
            })
        };
        // A writer that always writes the same value: VL may fail but reads
        // must always see 9.
        for _ in 0..50_000 {
            x.write(9);
        }
        stop.store(true, Ordering::Relaxed);
        v.join().unwrap();
    }
}
