//! `W`-word *safe* buffers.
//!
//! The paper stores object values in `3N` buffers of `W` words each and
//! requires only *safe-register* semantics from them: a read that overlaps
//! a write may return an arbitrary (torn) value, but reads that do not
//! overlap any write return the most recently written value. The
//! algorithm's buffer-management discipline guarantees that whenever a
//! returned value matters, no overlapping write occurred.
//!
//! In Rust, a plain `&mut`/`&` data race is undefined behaviour regardless
//! of whether the value is used, so each word is an `AtomicU64` accessed
//! with `Relaxed` ordering: per-word atomicity with no ordering — torn
//! *multi-word* values arise from interleaving exactly as the safe-register
//! model allows, with no UB. Cross-thread publication of buffer contents is
//! ordered by the `SeqCst` LL/SC operations on `X`/`Help` that precede and
//! follow buffer accesses (see the crate docs).
//!
//! All `3N` buffers live in **one** contiguous block of `3N · W` words —
//! buffer `i` is words `i·W..(i+1)·W` — so an object makes one buffer
//! allocation instead of `3N + 1`, and [`BufferPool::get`] hands out a
//! borrowed `W`-word view of its slice.

use crate::sync::{AtomicU64, Labeled, Ordering};

/// A borrowed view of one `W`-word safe buffer inside a [`BufferPool`].
#[derive(Clone, Copy)]
pub(crate) struct Buffer<'a> {
    words: &'a [AtomicU64],
}

impl Buffer<'_> {
    /// Reads the buffer into `dst` word by word (`Relaxed`).
    ///
    /// This is the paper's `copy BUF[i] into *retval` (lines 3, 6, 7): `W`
    /// individually-atomic loads, which may observe a torn multi-word value
    /// if a write overlaps.
    #[inline]
    pub(crate) fn copy_to(self, dst: &mut [u64]) {
        debug_assert_eq!(dst.len(), self.words.len());
        for (d, s) in dst.iter_mut().zip(self.words) {
            *d = s.load(Ordering::Relaxed); // lint: cell=BUF
        }
    }

    /// Writes `src` into the buffer word by word (`Relaxed`).
    ///
    /// This is the paper's `copy *v into BUF[i]` (lines 11, 17).
    #[inline]
    pub(crate) fn copy_from(self, src: &[u64]) {
        debug_assert_eq!(src.len(), self.words.len());
        for (s, d) in src.iter().zip(self.words) {
            d.store(*s, Ordering::Relaxed); // lint: cell=BUF
        }
    }
}

/// The array `BUF[0..3N-1]`, as one block of `3N · W` words.
pub(crate) struct BufferPool {
    words: Box<[AtomicU64]>,
    w: usize,
}

impl BufferPool {
    /// Allocates `count` buffers of `w` words each, all zeroed.
    pub(crate) fn new(count: usize, w: usize) -> Self {
        Self { words: (0..count * w).map(|_| AtomicU64::new(0)).collect(), w }
    }

    /// Buffer `i`: words `i·W..(i+1)·W` of the block.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> Buffer<'_> {
        Buffer { words: &self.words[i * self.w..(i + 1) * self.w] }
    }

    /// Number of buffers (`3N`).
    pub(crate) fn count(&self) -> usize {
        self.words.len() / self.w
    }

    /// Total number of 64-bit words held in buffers (`3N · W`): the
    /// dominant term of the paper's `O(NW)` space bound.
    pub(crate) fn words(&self) -> usize {
        self.words.len()
    }

    /// Labels word `j` of buffer `b` as `("BUF", b, j)` for model-checked
    /// builds (no-op otherwise).
    pub(crate) fn model_label(&self) {
        for (i, word) in self.words.iter().enumerate() {
            Labeled::set_label(word, "BUF", (i / self.w) as u32, (i % self.w) as u32);
        }
    }
}

impl core::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "BufferPool[{} x {} words]", self.count(), self.w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(p: &BufferPool, i: usize) -> Vec<u64> {
        let mut out = vec![u64::MAX; p.w];
        p.get(i).copy_to(&mut out);
        out
    }

    #[test]
    fn copy_roundtrip() {
        let p = BufferPool::new(3, 4);
        p.get(1).copy_from(&[1, 2, 3, 4]);
        assert_eq!(read(&p, 1), [1, 2, 3, 4]);
    }

    #[test]
    fn zero_initialized() {
        let p = BufferPool::new(6, 3);
        for i in 0..6 {
            assert_eq!(read(&p, i), [0, 0, 0], "buffer {i}");
        }
    }

    #[test]
    fn pool_word_accounting() {
        let p = BufferPool::new(6, 8);
        assert_eq!(p.count(), 6);
        assert_eq!(p.words(), 48);
        assert_eq!(p.get(5).words.len(), 8);
        assert_eq!(format!("{p:?}"), "BufferPool[6 x 8 words]");
    }

    #[test]
    fn buffers_are_independent() {
        // W = 3, 3N = 6: writing buffer i must leave every other buffer —
        // in particular its block neighbours i-1 and i+1 — unchanged.
        let pattern = |j: usize| [10 * j as u64 + 1, 10 * j as u64 + 2, 10 * j as u64 + 3];
        for i in 0..6 {
            let p = BufferPool::new(6, 3);
            for j in 0..6 {
                p.get(j).copy_from(&pattern(j));
            }
            p.get(i).copy_from(&[u64::MAX; 3]);
            for j in 0..6 {
                let expect = if j == i { [u64::MAX; 3] } else { pattern(j) };
                assert_eq!(read(&p, j), expect, "buffer {j} after writing buffer {i}");
            }
        }
    }

    #[test]
    fn single_word_buffer() {
        let p = BufferPool::new(3, 1);
        p.get(2).copy_from(&[u64::MAX]);
        assert_eq!(read(&p, 2), [u64::MAX]);
        assert_eq!(read(&p, 1), [0]);
    }
}
