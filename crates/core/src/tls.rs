//! Thread-cached attachments: [`MwLlSc::with`] and friends.
//!
//! Pool schedulers (`rayon`, async executors) migrate logical tasks across
//! OS threads, and per-task `attach()`/drop traffic would put two RMWs on
//! the registry around every operation. The fix is the same one
//! `crossbeam-epoch` uses for its participant registry: each OS thread
//! lazily attaches once per object, caches the handle in thread-local
//! storage, and reuses it for every subsequent [`with`](MwLlSc::with) on
//! that object. The lease is released when the thread exits (thread-local
//! destructors drop the cached handles) or eagerly via
//! [`detach_current_thread`].
//!
//! A cached handle keeps its object alive (it holds an `Arc`), so an
//! object touched by `with` on some thread is freed only after that thread
//! exits or detaches.

use std::any::Any;
use std::cell::RefCell;
use std::sync::Arc;

use llsc_word::Substrate;

use crate::handle::Handle;
use crate::registry::AttachError;
use crate::variable::MwLlSc;

thread_local! {
    /// This thread's cached attachments, keyed by object address. The
    /// entry's handle holds an `Arc` to the object, so the address cannot
    /// be recycled while the entry lives — the key is collision-free.
    static ATTACHMENTS: RefCell<Vec<(usize, Box<dyn Any>)>> = const { RefCell::new(Vec::new()) };
}

impl<C: Substrate> MwLlSc<C> {
    /// Runs `f` on this thread's cached [`Handle`] for the object,
    /// attaching one (and caching it for later calls) on first use.
    ///
    /// This is the zero-bookkeeping path for thread pools: any worker can
    /// call `obj.with(|h| ...)` without tracking process ids, and the
    /// first `N` distinct threads to touch the object each get a slot.
    ///
    /// # Panics
    ///
    /// Panics if all `N` slots are leased (see [`try_with`](Self::try_with)
    /// for the non-panicking variant) — size `n` to the number of worker
    /// threads that may touch the object concurrently.
    ///
    /// # Examples
    ///
    /// ```
    /// use mwllsc::MwLlSc;
    ///
    /// let obj = MwLlSc::new(4, 2, &[0, 0]);
    /// let total: u64 = (0..4u64)
    ///     .map(|_| {
    ///         let obj = obj.clone();
    ///         std::thread::spawn(move || {
    ///             obj.with(|h| {
    ///                 let mut v = [0u64; 2];
    ///                 loop {
    ///                     h.ll(&mut v);
    ///                     if h.sc(&[v[0] + 1, v[1] + 1]) {
    ///                         return 1u64;
    ///                     }
    ///                 }
    ///             })
    ///         })
    ///     })
    ///     .collect::<Vec<_>>()
    ///     .into_iter()
    ///     .map(|j| j.join().unwrap())
    ///     .sum();
    /// assert_eq!(total, 4);
    /// let mut h = obj.attach().unwrap(); // workers exited: slots are free
    /// let mut v = [0u64; 2];
    /// h.ll(&mut v);
    /// assert_eq!(v, [4, 4]);
    /// ```
    pub fn with<R>(self: &Arc<Self>, f: impl FnOnce(&mut Handle<C>) -> R) -> R {
        self.try_with(f).unwrap_or_else(|e| panic!("MwLlSc::with: {e}"))
    }

    /// [`with`](Self::with), reporting slot exhaustion instead of
    /// panicking.
    ///
    /// # Errors
    ///
    /// [`AttachError::Exhausted`] if this thread has no cached handle yet
    /// and all `N` slots are leased.
    pub fn try_with<R>(
        self: &Arc<Self>,
        f: impl FnOnce(&mut Handle<C>) -> R,
    ) -> Result<R, AttachError> {
        let key = Arc::as_ptr(self).cast::<()>().addr();
        // A cache hit performs no shared-memory access at all, which would
        // make `with` invisible to a model checker's scheduler; this
        // explicit scheduling point (a no-op in normal builds) keeps the
        // checkout boundary explorable.
        crate::sync::yield_point();
        // Take the entry out of the cache while `f` runs so a nested
        // `with` on a *different* object does not hit a RefCell
        // double-borrow; a nested `with` on the *same* object attaches a
        // second slot, which is exactly the "two outstanding operations"
        // semantics the paper's model assigns to two processes.
        let cached = ATTACHMENTS.with(|c| {
            let mut c = c.borrow_mut();
            c.iter().position(|(k, _)| *k == key).map(|i| c.swap_remove(i).1)
        });
        let mut handle: Box<Handle<C>> = match cached {
            Some(any) => any.downcast().expect("cache entries are keyed by object identity"),
            None => Box::new(self.attach()?),
        };
        let r = f(&mut handle);
        ATTACHMENTS.with(|c| {
            let mut c = c.borrow_mut();
            if c.iter().any(|(k, _)| *k == key) {
                // A nested `with` on the same object already re-cached a
                // handle under this key while ours was checked out; keep
                // one cached lease per (thread, object) and release ours
                // rather than pinning a second slot until thread exit.
                drop(handle);
            } else {
                c.push((key, handle));
            }
        });
        Ok(r)
    }
}

/// Drops every attachment cached by [`MwLlSc::with`] on the *current*
/// thread, releasing the underlying slots (for all objects this thread has
/// touched) immediately instead of at thread exit.
///
/// # Examples
///
/// ```
/// use mwllsc::MwLlSc;
///
/// let obj = MwLlSc::new(1, 1, &[5]);
/// obj.with(|h| {
///     let mut v = [0u64];
///     h.ll(&mut v);
///     assert_eq!(v, [5]);
/// });
/// assert_eq!(obj.live_leases(), 1, "attachment is cached");
/// mwllsc::detach_current_thread();
/// assert_eq!(obj.live_leases(), 0);
/// ```
pub fn detach_current_thread() {
    ATTACHMENTS.with(|c| c.borrow_mut().clear());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_caches_one_slot_per_thread() {
        let obj = MwLlSc::new(2, 1, &[0]);
        let p1 = obj.with(|h| h.process_id());
        let p2 = obj.with(|h| h.process_id());
        assert_eq!(p1, p2, "second call reuses the cached attachment");
        assert_eq!(obj.live_leases(), 1);
        detach_current_thread();
        assert_eq!(obj.live_leases(), 0);
    }

    #[test]
    fn try_with_reports_exhaustion() {
        let obj = MwLlSc::new(1, 1, &[0]);
        let _held = obj.attach().unwrap();
        assert_eq!(obj.try_with(|_| ()).unwrap_err(), AttachError::Exhausted { n: 1 });
        drop(_held);
        assert!(obj.try_with(|_| ()).is_ok());
        detach_current_thread();
    }

    #[test]
    fn nested_with_on_distinct_objects_works() {
        let a = MwLlSc::new(1, 1, &[1]);
        let b = MwLlSc::new(1, 1, &[2]);
        let (va, vb) = a.with(|ha| {
            let mut v = [0u64];
            ha.ll(&mut v);
            let va = v[0];
            let vb = b.with(|hb| {
                hb.ll(&mut v);
                v[0]
            });
            (va, vb)
        });
        assert_eq!((va, vb), (1, 2));
        detach_current_thread();
        assert_eq!(a.live_leases() + b.live_leases(), 0);
    }

    #[test]
    fn nested_with_on_same_object_takes_a_second_slot() {
        let obj = MwLlSc::new(2, 1, &[0]);
        obj.with(|outer| {
            let outer_p = outer.process_id();
            let inner_p = obj.with(|h| h.process_id());
            assert_ne!(outer_p, inner_p, "reentrant use is a second process");
        });
        // Only ONE lease may stay cached for the (thread, object) pair —
        // the nested call's slot or the outer's, but not both.
        assert_eq!(obj.live_leases(), 1, "no duplicate cache entry pins a second slot");
        let freed = obj.attach().expect("the other slot is free again");
        drop(freed);
        detach_current_thread();
        assert_eq!(obj.live_leases(), 0);
    }

    #[test]
    fn threads_release_slots_on_exit() {
        let obj = MwLlSc::new(2, 1, &[0]);
        for _ in 0..8 {
            let obj = Arc::clone(&obj);
            std::thread::spawn(move || {
                obj.with(|h| {
                    let mut v = [0u64];
                    h.ll(&mut v);
                    let _ = h.sc(&[v[0] + 1]);
                });
            })
            .join()
            .unwrap();
        }
        assert_eq!(obj.live_leases(), 0, "8 worker threads over 2 slots, all released");
    }
}
