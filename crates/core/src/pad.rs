//! Cache-line padding for per-shard and per-ring words.
//!
//! [`CachePadded`] gives a value its own aligned block, so writes to it
//! never invalidate the cache line holding its neighbours (*false
//! sharing*). The alignment is 128 bytes, not 64: modern x86 prefetches
//! cache lines in adjacent pairs (and Apple/ARM server parts use 128-byte
//! lines outright), so 64-byte padding still ping-pongs under the
//! adjacent-line prefetcher — the same reasoning behind
//! `crossbeam_utils::CachePadded`.
//!
//! What is padded: the store's shards (each carries operation counters
//! that its callers bump on every op) and the mesh ring's `head` and
//! `tail` indices (each written by one side and polled by the other).
//! There are a handful of each per process, so the slack is a constant.
//!
//! What is not: the words of one `MwLlSc` — the slot-registry lease
//! words, `X`, `Bank`, `Help` and the buffers, which follow the object's
//! header in one block. They are per-key words, so padding them
//! multiplies a store's footprint by the key count: a store key at
//! `N = 4`, `W = 1` cost 2127 bytes of RSS with padded cells, 592 with
//! unpadded cells in four allocations, and costs 376 as one block. The
//! price shows when several cores hammer one object. On a 2-vCPU x86-64
//! VM, E8's `W = 2` storm at `N = 2` fell from 1.57 to 0.92 Mops/s for
//! `jp-waitfree` (medians of 20 quick runs each), and padding only `Help`
//! brought it back to 1.35: the `Help[p]` mailboxes false-share. In 5
//! other runs, where both builds ran near 10 Mops/s, `jp-waitfree` fell
//! from 9.4 to 6.9 and `jp-retry-ll`, which writes no `Help`, from 13.9
//! to 9.8. E16's `hot4` store cells, four hot keys under two or four
//! callers, rose from 4.4 to 6.0 and from 4.9 to 7.3 Mops/s on the same
//! host. Moving the slot words and counters into the cells' block kept
//! E8 within its run-to-run spread, which on that host is bimodal (one
//! cell reads 1–3 or 6–13 Mops/s from run to run), and the `hot4` store
//! cells rose again, from 4.55 to 4.80 and from 6.35 to 7.56 Mops/s
//! (medians of 5 quick runs each). `X` gets no line of its own because
//! every op reads it, so a successful SC invalidates it for every process
//! whatever sits beside it.
//!
//! Padding is a *layout* choice, not algorithm state: the space accounting
//! in [`SpaceReport`](crate::SpaceReport) and
//! [`SpaceEstimate`](crate::SpaceEstimate) counts logical 64-bit words
//! (the paper's registers), and alignment slack is excluded by design.

use core::ops::{Deref, DerefMut};

/// Pads and aligns `T` to 128 bytes so it occupies its own cache-line
/// pair, eliminating false sharing with neighbouring values.
///
/// `CachePadded<T>` derefs to `T`, so wrapped cells are used exactly as
/// unwrapped ones:
///
/// ```
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use mwllsc::CachePadded;
///
/// let cells: Vec<CachePadded<AtomicU64>> =
///     (0..4).map(|i| CachePadded::new(AtomicU64::new(i))).collect();
/// cells[2].fetch_add(10, Ordering::Relaxed);
/// assert_eq!(cells[2].load(Ordering::Relaxed), 12);
/// assert!(core::mem::align_of::<CachePadded<AtomicU64>>() >= 128);
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps `value` in its own padded cache-line pair.
    pub const fn new(value: T) -> Self {
        Self { value }
    }

    /// Unwraps the padded value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T> From<T> for CachePadded<T> {
    fn from(value: T) -> Self {
        Self::new(value)
    }
}

impl<T: core::fmt::Debug> core::fmt::Debug for CachePadded<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_tuple("CachePadded").field(&self.value).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_and_size() {
        assert_eq!(core::mem::align_of::<CachePadded<u64>>(), 128);
        assert_eq!(core::mem::size_of::<CachePadded<u64>>(), 128);
        // An array of padded cells puts each element on its own block.
        let a: [CachePadded<u64>; 2] = [CachePadded::new(1), CachePadded::new(2)];
        let p0 = core::ptr::from_ref(&*a[0]) as usize;
        let p1 = core::ptr::from_ref(&*a[1]) as usize;
        assert!(p1 - p0 >= 128);
    }

    #[test]
    fn deref_and_into_inner() {
        let mut c = CachePadded::new(41u64);
        *c += 1;
        assert_eq!(*c, 42);
        assert_eq!(c.into_inner(), 42);
        let c: CachePadded<u64> = 7.into();
        assert_eq!(*c, 7);
    }
}
