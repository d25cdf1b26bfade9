//! One `Arc` allocation holding a header followed by a slice.
//!
//! The multiword object keeps its fixed fields and all of its `O(NW)`
//! words in one block, so the pointer a caller holds reaches every word
//! of the object in one hop. Safe Rust can build an `Arc` of a
//! runtime-length slice, but not of a struct that ends in one; this
//! module is the constructor for that shape, and the only unsafe code it
//! adds to the suite.
//!
//! Its soundness rests on the implementor of `HeaderSlice` declaring its
//! layout truthfully, which the compiler cannot check. That obligation
//! belongs on an `unsafe trait`, but the one implementor, `mwllsc`'s
//! `MwLlSc`, lives in a crate that forbids unsafe code, and an
//! `unsafe impl` is unsafe code. So the trait is safe to implement, both
//! items are hidden from the documentation, and they are not meant for
//! any other implementor.

use std::mem::{align_of, size_of};
use std::ptr;
use std::sync::Arc;

/// A struct made of a header followed by a slice: the shape [`new_arc`]
/// builds in one allocation.
///
/// # Contract
///
/// The implementing type is declared `#[repr(C)]` with exactly two
/// fields, a [`Header`](Self::Header) and then a `[`[`Elem`](Self::Elem)`]`,
/// and [`cast`](Self::cast) is the plain pointer cast `tail as *const Self`,
/// which keeps the address and takes the slice length as the length of
/// the trailing field. Rust offers no safe way to express the cast
/// generically, which is why the implementor writes it out.
///
/// An impl that breaks this contract is unsound: [`new_arc`] checks only
/// that `cast` keeps the address, so a wrong field order, a missing
/// `#[repr(C)]`, or a `Header` or `Elem` other than the fields' own types
/// makes it hand out an `Arc` to memory that does not hold a valid `Self`,
/// which is undefined behaviour reached from safe code. The trait is
/// hidden and has one implementor, `MwLlSc`, whose layout `mwllsc`'s
/// tests check.
///
/// # Examples
///
/// ```
/// use llsc_word::block::{new_arc, HeaderSlice};
///
/// #[repr(C)]
/// struct Row {
///     label: &'static str,
///     cells: [u64],
/// }
///
/// impl HeaderSlice for Row {
///     type Header = &'static str;
///     type Elem = u64;
///
///     fn cast(tail: *const [u64]) -> *const Self {
///         tail as *const Self
///     }
/// }
///
/// let row = new_arc::<Row>("squares", 4, |i| (i * i) as u64);
/// assert_eq!(row.label, "squares");
/// assert_eq!(&row.cells, &[0, 1, 4, 9]);
/// ```
#[doc(hidden)]
pub trait HeaderSlice {
    /// The fixed fields in front of the slice.
    type Header;
    /// The slice's element type.
    type Elem;

    /// Reinterprets a slice pointer as a pointer to `Self` with that many
    /// elements in its tail: must be `tail as *const Self`.
    fn cast(tail: *const [Self::Elem]) -> *const Self;
}

/// Builds an `Arc<T>` in one allocation: `header`, then a tail of `len`
/// elements, element `i` being `init(i)`.
///
/// The header and the elements must each be aligned to at most 8 bytes,
/// and one of them to exactly 8, so that the block is laid out like the
/// `Arc<[u64]>` it is allocated as.
///
/// Sound only for a `T` that keeps the [`HeaderSlice`] contract; see
/// there.
///
/// # Panics
///
/// Panics if the block's size overflows, if `T` breaks the
/// [`HeaderSlice`] contract's address rule, or if `init` panics (the
/// block is then freed; elements already built are leaked, not dropped).
#[doc(hidden)]
#[must_use]
pub fn new_arc<T: HeaderSlice + ?Sized>(
    header: T::Header,
    len: usize,
    mut init: impl FnMut(usize) -> T::Elem,
) -> Arc<T> {
    const {
        assert!(
            align_of::<T::Header>() <= align_of::<u64>()
                && align_of::<T::Elem>() <= align_of::<u64>()
                && (align_of::<T::Header>() == align_of::<u64>()
                    || align_of::<T::Elem>() == align_of::<u64>()),
            "new_arc lays the block out as an Arc<[u64]>"
        );
    }
    let tail_offset = size_of::<T::Header>().next_multiple_of(align_of::<T::Elem>());
    let bytes = len
        .checked_mul(size_of::<T::Elem>())
        .and_then(|tail| tail.checked_add(tail_offset))
        .expect("block size overflows usize")
        .next_multiple_of(size_of::<u64>());
    let mut block = Arc::<[u64]>::new_uninit_slice(bytes / size_of::<u64>());
    let base: *mut u8 =
        Arc::get_mut(&mut block).expect("a fresh Arc is unique").as_mut_ptr().cast();
    for i in 0..len {
        let elem = init(i);
        // SAFETY: `base` points to `bytes` writable bytes, aligned to 8;
        // element `i` lies at `tail_offset + i * size_of::<Elem>()`, which
        // ends at or before `bytes` and is aligned for `Elem` because
        // `tail_offset` is a multiple of its alignment (at most 8).
        unsafe { base.add(tail_offset).cast::<T::Elem>().add(i).write(elem) };
    }
    // SAFETY: the header occupies the block's first `size_of::<Header>()`
    // bytes (at most `tail_offset <= bytes`), and the block is aligned to
    // 8, the header's alignment or more.
    unsafe { base.cast::<T::Header>().write(header) };

    let raw = Arc::into_raw(block);
    let tail = ptr::slice_from_raw_parts(raw.cast::<T::Elem>(), len);
    let this = T::cast(tail);
    assert!(ptr::addr_eq(this, raw), "HeaderSlice::cast must keep the address");
    // SAFETY: `raw` came from `Arc::into_raw` of a `[MaybeUninit<u64>]` of
    // `bytes` bytes, aligned to 8. Under the `HeaderSlice` contract, `this`
    // has the same address and describes a `#[repr(C)]` value with the
    // header at offset 0 and `len` elements from `tail_offset`: `bytes`
    // bytes (its size rounded up to its alignment, 8), the same size and
    // alignment as the slice, so the `Arc`'s own header sits at the same
    // offset before it and the eventual deallocation uses the layout the
    // block was allocated with. Every field was initialized above.
    unsafe { Arc::from_raw(this) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::mem::size_of_val;

    /// Counts its own drops, so a test can see each header and element
    /// dropped exactly once.
    struct Tracked<'a> {
        drops: &'a Cell<usize>,
        value: u64,
    }

    impl Drop for Tracked<'_> {
        fn drop(&mut self) {
            self.drops.set(self.drops.get() + 1);
        }
    }

    #[repr(C)]
    struct Tracking<'a> {
        header: (u8, Tracked<'a>),
        tail: [Tracked<'a>],
    }

    impl<'a> HeaderSlice for Tracking<'a> {
        type Header = (u8, Tracked<'a>);
        type Elem = Tracked<'a>;

        fn cast(tail: *const [Tracked<'a>]) -> *const Self {
            tail as *const Self
        }
    }

    #[repr(C)]
    struct Narrow {
        header: u64,
        tail: [u32],
    }

    impl HeaderSlice for Narrow {
        type Header = u64;
        type Elem = u32;

        fn cast(tail: *const [u32]) -> *const Self {
            tail as *const Self
        }
    }

    #[test]
    fn header_and_tail_round_trip_and_drop_once() {
        let drops = Cell::new(0);
        let tracked = |value| Tracked { drops: &drops, value };
        for len in [0usize, 1, 5] {
            drops.set(0);
            let block = new_arc::<Tracking<'_>>((7, tracked(99)), len, |i| tracked(i as u64 * 3));
            assert_eq!(block.header.0, 7);
            assert_eq!(block.header.1.value, 99);
            assert_eq!(block.tail.len(), len);
            for (i, e) in block.tail.iter().enumerate() {
                assert_eq!(e.value, i as u64 * 3);
            }
            // The 24-byte header, then 16 bytes per element.
            assert_eq!(size_of_val(&*block), 24 + 16 * len);
            let clone = Arc::clone(&block);
            drop(block);
            assert_eq!(drops.get(), 0, "a clone keeps the block alive");
            drop(clone);
            assert_eq!(drops.get(), 1 + len, "len={len}");
        }
    }

    #[test]
    fn narrow_elements_round_the_block_up_to_whole_words() {
        // u32 elements after a u64 header: the block comes from an
        // Arc<[u64]>, so its size rounds up to a multiple of 8.
        for len in 0..4usize {
            let block = new_arc::<Narrow>(5, len, |i| i as u32 + 1);
            assert_eq!(block.header, 5);
            assert_eq!(block.tail, (1..=len as u32).collect::<Vec<_>>()[..]);
            assert_eq!(size_of_val(&*block), (8 + 4 * len).next_multiple_of(8));
        }
    }

    #[test]
    fn a_panicking_init_frees_the_block() {
        let drops = Cell::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            new_arc::<Tracking<'_>>((0, Tracked { drops: &drops, value: 0 }), 4, |i| {
                assert!(i < 2, "init fails at element 2");
                Tracked { drops: &drops, value: 0 }
            })
        }));
        assert!(caught.is_err());
        // The header was still a local and is dropped; the two elements
        // already written are leaked with the freed block, not dropped.
        assert_eq!(drops.get(), 1);
    }
}
