//! The atomics facade: `std::sync::atomic` by default, instrumented
//! model atomics under `--cfg mwllsc_model`.
//!
//! Every shared-memory access the `llsc-word` and `mwllsc` crates perform
//! goes through the types re-exported here instead of using
//! `std::sync::atomic` directly. In a normal build the re-exports *are*
//! the std types (a zero-cost facade — asserted by a `TypeId` and layout
//! guard in the tests). When the workspace is compiled with
//! `RUSTFLAGS='--cfg mwllsc_model'`, the re-exports switch to the
//! instrumented types in [`model`], which trap every load, store, RMW,
//! fence, and yield point into a pluggable per-thread [`hook::StepHook`]
//! before executing it.
//!
//! That trap is the bridge the `simsched::real` model checker drives: its
//! controller installs a hook that *parks* the calling thread until the
//! scheduler grants it the access, which serializes the real compiled
//! code at exactly the one-shared-access-per-step granularity the
//! `simsched` interpreter, schedulers, and exhaustive DFS already use.
//! With at most one thread between its trap and its access at any time,
//! an execution is fully determined by the sequence of scheduler
//! decisions, which is what makes exploration exhaustive and failing
//! schedules replayable.
//!
//! The [`model`] module itself compiles in *every* build (so its own unit
//! tests and the `simsched` controller machinery stay inside tier-1);
//! only the re-export switch and the instrumentation of the shipping code
//! are gated on `cfg(mwllsc_model)`.

/// The pluggable access hook: how a model checker intercepts the shipping
/// code's shared-memory accesses.
pub mod hook {
    use std::cell::RefCell;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    /// A static label naming the algorithmic role of an atomic location,
    /// e.g. `("Bank", k, 0)` for `Bank[k]` or `("BUF", b, i)` for word `i`
    /// of buffer `b`. Labels make access logs readable and give replays a
    /// location identity that is stable across re-executions (raw heap
    /// addresses are not).
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    pub struct Label {
        /// Role name (`"X"`, `"Bank"`, `"Help"`, `"BUF"`, `"SLOT"`, ...).
        pub name: &'static str,
        /// First index (e.g. the bank/help/buffer index).
        pub a: u32,
        /// Second index (e.g. the word within a buffer).
        pub b: u32,
    }

    impl std::fmt::Display for Label {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "{}[{},{}]", self.name, self.a, self.b)
        }
    }

    /// What kind of shared-memory access is being performed.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    pub enum AccessKind {
        /// An atomic load.
        Load,
        /// An atomic store.
        Store,
        /// An atomic read-modify-write (swap, CAS, fetch-and-*,
        /// `fetch_update` — one access, like the hardware primitive).
        Rmw,
        /// A memory fence (no location; `addr` is 0).
        Fence,
        /// A pure scheduling point (no memory effect; `addr` is 0).
        Yield,
    }

    /// One intercepted access, described *before* it executes.
    #[derive(Clone, Copy, Debug)]
    pub struct Access {
        /// Kind of access.
        pub kind: AccessKind,
        /// Address of the atomic cell (0 for fences and yields). Only
        /// meaningful within one execution; use `label` for cross-run
        /// identity.
        pub addr: usize,
        /// The (success) memory ordering the shipping code requested.
        pub order: Ordering,
        /// The failure ordering, for compare-exchange accesses.
        pub failure: Option<Ordering>,
        /// The location's algorithmic label, if one was attached.
        pub label: Option<Label>,
    }

    /// What an access observed/did, reported *after* it executes.
    #[derive(Clone, Copy, Debug)]
    pub enum Observed {
        /// A load observed this value (pointers are reported as addresses).
        Value(u64),
        /// An RMW observed `before` and left `after` (`after == before`
        /// for failed compare-exchanges); `wrote` is whether it mutated.
        Rmw {
            /// Value before the RMW.
            before: u64,
            /// Value after the RMW.
            after: u64,
            /// Whether the RMW actually wrote (CAS success).
            wrote: bool,
        },
        /// Nothing observable (stores, fences, yields).
        None,
    }

    /// A per-thread access interceptor. `before_access` runs before the
    /// underlying atomic operation (a model checker parks the thread here
    /// until granted); `after_access` runs immediately after, with the
    /// observed result.
    pub trait StepHook: Send + Sync {
        /// Called before the access executes. May block.
        fn before_access(&self, access: &Access);
        /// Called after the access executes.
        fn after_access(&self, access: &Access, observed: Observed);
    }

    thread_local! {
        static HOOK: RefCell<Option<Arc<dyn StepHook>>> = const { RefCell::new(None) };
    }

    /// Installs `h` as the current thread's hook for the duration of `f`,
    /// restoring the previous hook afterwards (also on panic).
    pub fn with_hook<R>(h: Arc<dyn StepHook>, f: impl FnOnce() -> R) -> R {
        struct Restore(Option<Arc<dyn StepHook>>);
        impl Drop for Restore {
            fn drop(&mut self) {
                let _ = HOOK.try_with(|c| *c.borrow_mut() = self.0.take());
            }
        }
        let prev = HOOK.with(|c| c.borrow_mut().replace(Arc::clone(&h)));
        let _restore = Restore(prev);
        f()
    }

    /// Whether the current thread has a hook installed.
    #[must_use]
    pub fn hook_installed() -> bool {
        HOOK.try_with(|c| c.borrow().is_some()).unwrap_or(false)
    }

    /// Runs `op` through the current thread's hook, if any. `op` returns
    /// the operation result plus what it observed. This is the single
    /// dispatch point of the whole facade.
    pub fn dispatch<R>(access: &Access, op: impl FnOnce() -> (R, Observed)) -> R {
        // `try_with`: shipping code may run atomic ops from its own TLS
        // destructors (e.g. a thread-cached store handle releasing its
        // lease on thread exit), at which point this thread-local may
        // already be gone. Such accesses run unhooked — a model
        // controller drives virtual threads and never reaches OS-thread
        // teardown, so nothing is lost.
        let hook = HOOK.try_with(|c| c.borrow().clone()).unwrap_or(None);
        match hook {
            Some(h) => {
                h.before_access(access);
                let (r, obs) = op();
                h.after_access(access, obs);
                r
            }
            None => op().0,
        }
    }
}

/// Instrumented atomics: every operation traps into the thread's
/// [`hook::StepHook`] (if one is installed) before executing on an inner
/// `std::sync::atomic` cell. Always compiled; re-exported at the facade
/// root only under `cfg(mwllsc_model)`.
pub mod model {
    use super::hook::{dispatch, Access, AccessKind, Label, Observed};
    use std::sync::atomic::Ordering;
    use std::sync::OnceLock;

    fn acc(kind: AccessKind, addr: usize, order: Ordering, label: Option<Label>) -> Access {
        Access { kind, addr, order, failure: None, label }
    }

    macro_rules! model_int_atomic {
        ($name:ident, $std:ty, $prim:ty) => {
            /// An instrumented integer atomic (see [the module docs](self)).
            #[derive(Debug, Default)]
            pub struct $name {
                inner: $std,
                label: OnceLock<Label>,
            }

            impl $name {
                /// Creates a new cell holding `v`.
                #[must_use]
                pub const fn new(v: $prim) -> Self {
                    Self { inner: <$std>::new(v), label: OnceLock::new() }
                }

                /// Attaches an algorithmic label (first caller wins).
                pub fn set_label(&self, name: &'static str, a: u32, b: u32) {
                    let _ = self.label.set(Label { name, a, b });
                }

                fn addr(&self) -> usize {
                    std::ptr::from_ref(&self.inner).addr()
                }

                fn lbl(&self) -> Option<Label> {
                    self.label.get().copied()
                }

                /// As [`std::sync::atomic::AtomicU64::load`].
                pub fn load(&self, order: Ordering) -> $prim {
                    let a = acc(AccessKind::Load, self.addr(), order, self.lbl());
                    dispatch(&a, || {
                        let v = self.inner.load(order);
                        (v, Observed::Value(v as u64))
                    })
                }

                /// As [`std::sync::atomic::AtomicU64::store`].
                pub fn store(&self, v: $prim, order: Ordering) {
                    let a = acc(AccessKind::Store, self.addr(), order, self.lbl());
                    dispatch(&a, || (self.inner.store(v, order), Observed::None));
                }

                /// As [`std::sync::atomic::AtomicU64::swap`].
                pub fn swap(&self, v: $prim, order: Ordering) -> $prim {
                    self.rmw(order, None, |inner| {
                        let before = inner.swap(v, order);
                        (before, before as u64, v as u64, true)
                    })
                }

                /// As [`std::sync::atomic::AtomicU64::fetch_add`].
                pub fn fetch_add(&self, v: $prim, order: Ordering) -> $prim {
                    self.rmw(order, None, |inner| {
                        let before = inner.fetch_add(v, order);
                        (before, before as u64, before.wrapping_add(v) as u64, true)
                    })
                }

                /// As [`std::sync::atomic::AtomicU64::fetch_sub`].
                pub fn fetch_sub(&self, v: $prim, order: Ordering) -> $prim {
                    self.rmw(order, None, |inner| {
                        let before = inner.fetch_sub(v, order);
                        (before, before as u64, before.wrapping_sub(v) as u64, true)
                    })
                }

                /// As [`std::sync::atomic::AtomicU64::fetch_or`].
                pub fn fetch_or(&self, v: $prim, order: Ordering) -> $prim {
                    self.rmw(order, None, |inner| {
                        let before = inner.fetch_or(v, order);
                        (before, before as u64, (before | v) as u64, true)
                    })
                }

                /// As [`std::sync::atomic::AtomicU64::fetch_and`].
                pub fn fetch_and(&self, v: $prim, order: Ordering) -> $prim {
                    self.rmw(order, None, |inner| {
                        let before = inner.fetch_and(v, order);
                        (before, before as u64, (before & v) as u64, true)
                    })
                }

                /// As [`std::sync::atomic::AtomicU64::compare_exchange`].
                ///
                /// One trapped access, like the hardware CAS.
                pub fn compare_exchange(
                    &self,
                    current: $prim,
                    new: $prim,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$prim, $prim> {
                    self.rmw(success, Some(failure), |inner| {
                        match inner.compare_exchange(current, new, success, failure) {
                            Ok(before) => (Ok(before), before as u64, new as u64, true),
                            Err(before) => (Err(before), before as u64, before as u64, false),
                        }
                    })
                }

                /// As [`std::sync::atomic::AtomicU64::compare_exchange_weak`].
                pub fn compare_exchange_weak(
                    &self,
                    current: $prim,
                    new: $prim,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$prim, $prim> {
                    self.rmw(success, Some(failure), |inner| {
                        match inner.compare_exchange_weak(current, new, success, failure) {
                            Ok(before) => (Ok(before), before as u64, new as u64, true),
                            Err(before) => (Err(before), before as u64, before as u64, false),
                        }
                    })
                }

                /// As [`std::sync::atomic::AtomicU64::fetch_update`], but
                /// counted as **one** trapped access: the model serializes
                /// all shared accesses, so the inner retry loop can never
                /// iterate and the whole operation is atomic — the
                /// granularity the algorithm's `write` is specified at.
                pub fn fetch_update<F>(
                    &self,
                    set_order: Ordering,
                    fetch_order: Ordering,
                    f: F,
                ) -> Result<$prim, $prim>
                where
                    F: FnMut($prim) -> Option<$prim>,
                {
                    self.rmw(set_order, Some(fetch_order), |inner| {
                        match inner.fetch_update(set_order, fetch_order, f) {
                            Ok(before) => {
                                let after = inner.load(Ordering::Relaxed);
                                (Ok(before), before as u64, after as u64, true)
                            }
                            Err(before) => (Err(before), before as u64, before as u64, false),
                        }
                    })
                }

                /// Untrapped exclusive access (as the std method).
                pub fn get_mut(&mut self) -> &mut $prim {
                    self.inner.get_mut()
                }

                /// Untrapped `Relaxed` load, for `Debug` impls and other
                /// diagnostics that must never become scheduling points.
                pub fn debug_load(&self) -> $prim {
                    self.inner.load(Ordering::Relaxed)
                }

                /// Untrapped consuming read (as the std method).
                #[must_use]
                pub fn into_inner(self) -> $prim {
                    self.inner.into_inner()
                }

                fn rmw<R>(
                    &self,
                    order: Ordering,
                    failure: Option<Ordering>,
                    op: impl FnOnce(&$std) -> (R, u64, u64, bool),
                ) -> R {
                    let a = Access {
                        kind: AccessKind::Rmw,
                        addr: self.addr(),
                        order,
                        failure,
                        label: self.lbl(),
                    };
                    dispatch(&a, || {
                        let (r, before, after, wrote) = op(&self.inner);
                        (r, Observed::Rmw { before, after, wrote })
                    })
                }
            }
        };
    }

    model_int_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
    model_int_atomic!(AtomicU32, std::sync::atomic::AtomicU32, u32);
    model_int_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);

    /// An instrumented boolean atomic (see [the module docs](self)).
    #[derive(Debug, Default)]
    pub struct AtomicBool {
        inner: std::sync::atomic::AtomicBool,
        label: OnceLock<Label>,
    }

    impl AtomicBool {
        /// Creates a new cell holding `v`.
        #[must_use]
        pub const fn new(v: bool) -> Self {
            Self { inner: std::sync::atomic::AtomicBool::new(v), label: OnceLock::new() }
        }

        /// Attaches an algorithmic label (first caller wins).
        pub fn set_label(&self, name: &'static str, a: u32, b: u32) {
            let _ = self.label.set(Label { name, a, b });
        }

        fn addr(&self) -> usize {
            std::ptr::from_ref(&self.inner).addr()
        }

        /// As [`std::sync::atomic::AtomicBool::load`].
        pub fn load(&self, order: Ordering) -> bool {
            let a = acc(AccessKind::Load, self.addr(), order, self.label.get().copied());
            dispatch(&a, || {
                let v = self.inner.load(order);
                (v, Observed::Value(u64::from(v)))
            })
        }

        /// As [`std::sync::atomic::AtomicBool::store`].
        pub fn store(&self, v: bool, order: Ordering) {
            let a = acc(AccessKind::Store, self.addr(), order, self.label.get().copied());
            dispatch(&a, || (self.inner.store(v, order), Observed::None));
        }

        /// As [`std::sync::atomic::AtomicBool::swap`].
        pub fn swap(&self, v: bool, order: Ordering) -> bool {
            let a = Access {
                kind: AccessKind::Rmw,
                addr: self.addr(),
                order,
                failure: None,
                label: self.label.get().copied(),
            };
            dispatch(&a, || {
                let before = self.inner.swap(v, order);
                (
                    before,
                    Observed::Rmw { before: u64::from(before), after: u64::from(v), wrote: true },
                )
            })
        }

        /// As [`std::sync::atomic::AtomicBool::compare_exchange`].
        pub fn compare_exchange(
            &self,
            current: bool,
            new: bool,
            success: Ordering,
            failure: Ordering,
        ) -> Result<bool, bool> {
            let a = Access {
                kind: AccessKind::Rmw,
                addr: self.addr(),
                order: success,
                failure: Some(failure),
                label: self.label.get().copied(),
            };
            dispatch(&a, || match self.inner.compare_exchange(current, new, success, failure) {
                Ok(b) => (
                    Ok(b),
                    Observed::Rmw { before: u64::from(b), after: u64::from(new), wrote: true },
                ),
                Err(b) => (
                    Err(b),
                    Observed::Rmw { before: u64::from(b), after: u64::from(b), wrote: false },
                ),
            })
        }

        /// Untrapped exclusive access (as the std method).
        pub fn get_mut(&mut self) -> &mut bool {
            self.inner.get_mut()
        }
    }

    /// An instrumented pointer atomic (see [the module docs](self)).
    #[derive(Debug)]
    pub struct AtomicPtr<T> {
        inner: std::sync::atomic::AtomicPtr<T>,
        label: OnceLock<Label>,
    }

    impl<T> Default for AtomicPtr<T> {
        fn default() -> Self {
            Self::new(std::ptr::null_mut())
        }
    }

    impl<T> AtomicPtr<T> {
        /// Creates a new cell holding `p`.
        #[must_use]
        pub const fn new(p: *mut T) -> Self {
            Self { inner: std::sync::atomic::AtomicPtr::new(p), label: OnceLock::new() }
        }

        /// Attaches an algorithmic label (first caller wins).
        pub fn set_label(&self, name: &'static str, a: u32, b: u32) {
            let _ = self.label.set(Label { name, a, b });
        }

        fn addr(&self) -> usize {
            std::ptr::from_ref(&self.inner).addr()
        }

        /// As [`std::sync::atomic::AtomicPtr::load`].
        pub fn load(&self, order: Ordering) -> *mut T {
            let a = acc(AccessKind::Load, self.addr(), order, self.label.get().copied());
            dispatch(&a, || {
                let p = self.inner.load(order);
                (p, Observed::Value(p.addr() as u64))
            })
        }

        /// As [`std::sync::atomic::AtomicPtr::store`].
        pub fn store(&self, p: *mut T, order: Ordering) {
            let a = acc(AccessKind::Store, self.addr(), order, self.label.get().copied());
            dispatch(&a, || (self.inner.store(p, order), Observed::None));
        }

        /// As [`std::sync::atomic::AtomicPtr::swap`].
        pub fn swap(&self, p: *mut T, order: Ordering) -> *mut T {
            let a = Access {
                kind: AccessKind::Rmw,
                addr: self.addr(),
                order,
                failure: None,
                label: self.label.get().copied(),
            };
            dispatch(&a, || {
                let before = self.inner.swap(p, order);
                (
                    before,
                    Observed::Rmw {
                        before: before.addr() as u64,
                        after: p.addr() as u64,
                        wrote: true,
                    },
                )
            })
        }

        /// As [`std::sync::atomic::AtomicPtr::compare_exchange`].
        pub fn compare_exchange(
            &self,
            current: *mut T,
            new: *mut T,
            success: Ordering,
            failure: Ordering,
        ) -> Result<*mut T, *mut T> {
            self.cas(current, new, success, failure, false)
        }

        /// As [`std::sync::atomic::AtomicPtr::compare_exchange_weak`].
        pub fn compare_exchange_weak(
            &self,
            current: *mut T,
            new: *mut T,
            success: Ordering,
            failure: Ordering,
        ) -> Result<*mut T, *mut T> {
            self.cas(current, new, success, failure, true)
        }

        /// Untrapped exclusive access (as the std method).
        pub fn get_mut(&mut self) -> &mut *mut T {
            self.inner.get_mut()
        }

        fn cas(
            &self,
            current: *mut T,
            new: *mut T,
            success: Ordering,
            failure: Ordering,
            weak: bool,
        ) -> Result<*mut T, *mut T> {
            let a = Access {
                kind: AccessKind::Rmw,
                addr: self.addr(),
                order: success,
                failure: Some(failure),
                label: self.label.get().copied(),
            };
            dispatch(&a, || {
                let r = if weak {
                    self.inner.compare_exchange_weak(current, new, success, failure)
                } else {
                    self.inner.compare_exchange(current, new, success, failure)
                };
                match r {
                    Ok(b) => (
                        Ok(b),
                        Observed::Rmw {
                            before: b.addr() as u64,
                            after: new.addr() as u64,
                            wrote: true,
                        },
                    ),
                    Err(b) => (
                        Err(b),
                        Observed::Rmw {
                            before: b.addr() as u64,
                            after: b.addr() as u64,
                            wrote: false,
                        },
                    ),
                }
            })
        }
    }

    /// An instrumented [`std::sync::atomic::fence`].
    pub fn fence(order: Ordering) {
        let a = acc(AccessKind::Fence, 0, order, None);
        dispatch(&a, || (std::sync::atomic::fence(order), Observed::None));
    }

    /// An instrumented [`std::thread::yield_now`]: a pure scheduling point.
    pub fn yield_now() {
        let a = acc(AccessKind::Yield, 0, Ordering::Relaxed, None);
        dispatch(&a, || (std::thread::yield_now(), Observed::None));
    }

    /// A scheduling point with no memory or OS effect at all: compiles to
    /// nothing in normal builds, traps like a yield under the model.
    pub fn yield_point() {
        let a = acc(AccessKind::Yield, 0, Ordering::Relaxed, None);
        dispatch(&a, || ((), Observed::None));
    }
}

/// Attaching algorithmic labels to atomic cells, uniformly over both
/// facade flavours: a no-op on the std types, recorded on the model types.
pub trait Labeled {
    /// Attaches `(name, a, b)` as the cell's label (first caller wins;
    /// no-op in non-model builds).
    fn set_label(&self, name: &'static str, a: u32, b: u32);
}

macro_rules! noop_labeled {
    ($($t:ty),*) => {
        $(
            #[cfg(not(mwllsc_model))]
            impl Labeled for $t {
                #[inline(always)]
                fn set_label(&self, _name: &'static str, _a: u32, _b: u32) {}
            }
        )*
    };
}
noop_labeled!(
    std::sync::atomic::AtomicU64,
    std::sync::atomic::AtomicU32,
    std::sync::atomic::AtomicUsize,
    std::sync::atomic::AtomicBool
);

#[cfg(not(mwllsc_model))]
impl<T> Labeled for std::sync::atomic::AtomicPtr<T> {
    #[inline(always)]
    fn set_label(&self, _name: &'static str, _a: u32, _b: u32) {}
}

macro_rules! model_labeled {
    ($($t:ident),*) => {
        $(
            impl Labeled for model::$t {
                fn set_label(&self, name: &'static str, a: u32, b: u32) {
                    <model::$t>::set_label(self, name, a, b);
                }
            }
        )*
    };
}
model_labeled!(AtomicU64, AtomicU32, AtomicUsize, AtomicBool);

impl<T> Labeled for model::AtomicPtr<T> {
    fn set_label(&self, name: &'static str, a: u32, b: u32) {
        model::AtomicPtr::set_label(self, name, a, b);
    }
}

// ---------------------------------------------------------------------
// The facade switch.
// ---------------------------------------------------------------------

#[cfg(not(mwllsc_model))]
pub use std::sync::atomic::{fence, AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize};

#[cfg(not(mwllsc_model))]
pub use std::thread::yield_now;

/// A scheduling point with no effect in normal builds (the model-build
/// twin traps it as a yield).
#[cfg(not(mwllsc_model))]
#[inline(always)]
pub fn yield_point() {}

#[cfg(mwllsc_model)]
pub use model::{
    fence, yield_now, yield_point, AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize,
};

pub use std::sync::atomic::Ordering;

#[cfg(test)]
mod tests {
    use super::hook::{Access, AccessKind, Observed, StepHook};
    use super::*;
    use std::sync::atomic::Ordering;
    use std::sync::{Arc, Mutex};

    /// One recorded access: `(kind, addr, label, observed)`.
    type Recorded = (AccessKind, usize, Option<&'static str>, Option<u64>);

    /// A hook that appends `(kind, addr, label, observed)` to a log.
    struct Recorder {
        log: Mutex<Vec<Recorded>>,
    }

    impl StepHook for Recorder {
        fn before_access(&self, _access: &Access) {}
        fn after_access(&self, access: &Access, observed: Observed) {
            let obs = match observed {
                Observed::Value(v) => Some(v),
                Observed::Rmw { after, .. } => Some(after),
                Observed::None => None,
            };
            self.log.lock().unwrap().push((
                access.kind,
                access.addr,
                access.label.map(|l| l.name),
                obs,
            ));
        }
    }

    #[test]
    #[cfg(not(mwllsc_model))]
    fn facade_is_zero_cost_without_model_cfg() {
        use std::any::TypeId;
        // The re-exports must BE the std types: no wrapper, no branch.
        assert_eq!(TypeId::of::<AtomicU64>(), TypeId::of::<std::sync::atomic::AtomicU64>());
        assert_eq!(TypeId::of::<AtomicU32>(), TypeId::of::<std::sync::atomic::AtomicU32>());
        assert_eq!(TypeId::of::<AtomicUsize>(), TypeId::of::<std::sync::atomic::AtomicUsize>());
        assert_eq!(TypeId::of::<AtomicBool>(), TypeId::of::<std::sync::atomic::AtomicBool>());
        assert_eq!(TypeId::of::<AtomicPtr<u8>>(), TypeId::of::<std::sync::atomic::AtomicPtr<u8>>());
        // Layout on top of identity: a facade atomic costs exactly one
        // machine word.
        assert_eq!(std::mem::size_of::<AtomicU64>(), std::mem::size_of::<u64>());
        assert_eq!(std::mem::align_of::<AtomicU64>(), std::mem::align_of::<u64>());
    }

    #[test]
    fn model_atomics_work_unhooked() {
        let a = model::AtomicU64::new(5);
        assert_eq!(a.load(Ordering::SeqCst), 5);
        a.store(7, Ordering::SeqCst);
        assert_eq!(a.fetch_add(1, Ordering::SeqCst), 7);
        assert_eq!(a.compare_exchange(8, 9, Ordering::SeqCst, Ordering::SeqCst), Ok(8));
        assert_eq!(a.compare_exchange(8, 10, Ordering::SeqCst, Ordering::SeqCst), Err(9));
        assert_eq!(a.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| Some(v + 1)), Ok(9));
        assert_eq!(a.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn hook_sees_every_access_in_program_order() {
        let rec = Arc::new(Recorder { log: Mutex::new(Vec::new()) });
        let a = model::AtomicU64::new(0);
        a.set_label("X", 0, 0);
        let b = model::AtomicBool::new(false);
        hook::with_hook(Arc::clone(&rec) as Arc<dyn StepHook>, || {
            a.store(3, Ordering::SeqCst);
            assert_eq!(a.load(Ordering::SeqCst), 3);
            assert_eq!(a.fetch_or(4, Ordering::SeqCst), 3);
            b.store(true, Ordering::Release);
            model::fence(Ordering::SeqCst);
            model::yield_point();
        });
        // No hook after the scope: untracked.
        a.store(9, Ordering::SeqCst);
        let log = rec.log.lock().unwrap();
        let kinds: Vec<AccessKind> = log.iter().map(|e| e.0).collect();
        assert_eq!(
            kinds,
            vec![
                AccessKind::Store,
                AccessKind::Load,
                AccessKind::Rmw,
                AccessKind::Store,
                AccessKind::Fence,
                AccessKind::Yield
            ]
        );
        assert_eq!(log[0].2, Some("X"));
        assert_eq!(log[1].3, Some(3), "load observed the stored value");
        assert_eq!(log[2].3, Some(7), "rmw observed its after-value");
        assert_eq!(log.len(), 6, "the unhooked store must not be recorded");
    }

    #[test]
    fn hook_is_per_thread() {
        let rec = Arc::new(Recorder { log: Mutex::new(Vec::new()) });
        let a = Arc::new(model::AtomicU64::new(0));
        let a2 = Arc::clone(&a);
        hook::with_hook(Arc::clone(&rec) as Arc<dyn StepHook>, || {
            a.store(1, Ordering::SeqCst);
            std::thread::spawn(move || a2.store(2, Ordering::SeqCst)).join().unwrap();
            assert!(hook::hook_installed());
        });
        assert!(!hook::hook_installed());
        assert_eq!(rec.log.lock().unwrap().len(), 1, "other threads are not hooked");
    }

    #[test]
    fn fetch_update_is_one_access() {
        let rec = Arc::new(Recorder { log: Mutex::new(Vec::new()) });
        let a = model::AtomicU64::new(10);
        hook::with_hook(Arc::clone(&rec) as Arc<dyn StepHook>, || {
            assert_eq!(a.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| Some(v * 2)), Ok(10));
        });
        let log = rec.log.lock().unwrap();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].0, AccessKind::Rmw);
        assert_eq!(log[0].3, Some(20));
    }

    #[test]
    fn labels_are_first_write_wins() {
        let a = model::AtomicU64::new(0);
        a.set_label("Bank", 3, 0);
        a.set_label("Help", 9, 9);
        let rec = Arc::new(Recorder { log: Mutex::new(Vec::new()) });
        hook::with_hook(Arc::clone(&rec) as Arc<dyn StepHook>, || {
            let _ = a.load(Ordering::SeqCst);
        });
        assert_eq!(rec.log.lock().unwrap()[0].2, Some("Bank"));
    }
}
