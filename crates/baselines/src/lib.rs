//! Comparison baselines for multiword LL/SC.
//!
//! The paper's claim is relative: *same time, factor-`N` less space than
//! the previous best wait-free construction*. This crate supplies the
//! comparators that make the claim measurable (experiments E1 and E8):
//!
//! | implementation | progress | space | role |
//! |---|---|---|---|
//! | [`AmStyleLlSc`] | wait-free | `Θ(N²W)` | the prior state of the art's space class (Anderson–Moir 1995), reconstructed — see the module docs for exactly what is and is not claimed |
//! | [`LockLlSc`] | blocking | `O(W)` | the engineering default the lock-free literature argues against |
//! | [`SeqLockLlSc`] | lock-free reads | `O(W)` | minimal-space racy design; starvable readers, crash-fragile writers |
//! | [`PtrSwapLlSc`] | wait-free ops | `O(W)` live + unbounded garbage | the "just use GC/epochs" design whose space discipline the paper's bounded buffers replace |
//!
//! All of them (and the paper's algorithm, via an adapter) implement
//! [`MwHandle`], so the harness and benches drive them identically;
//! [`build`] constructs any of them from an [`Algo`] tag.
//!
//! Every baseline also ships an [`MwFactory`](mwllsc::MwFactory) marker
//! ([`LockBackend`], [`SeqLockBackend`], [`PtrSwapBackend`],
//! [`AmStyleBackend`]), so `mwllsc-store`'s sharded `Store` can serve a
//! multi-million-key space over any of them; [`try_build_store`] selects
//! a backend from an [`Algo`] tag at runtime. To make that possible the
//! baselines' `claim` is now a *lease* (like the core algorithm's since
//! the slot-registry redesign): dropping a handle frees its process id
//! for a later [`try_claim`](LockLlSc::try_claim).

#![warn(missing_docs, missing_debug_implementations)]
#![deny(unsafe_op_in_unsafe_fn)]

mod am_style;
mod buffers;
mod factory;
mod lock;
mod ptrswap;
mod seqlock;
mod traits;

/// Serializes the unit tests that retire ptr-swap nodes: the epoch limbo
/// is process-global, so one test's collection can free another test's
/// nodes between two of its reads of a node counter.
#[cfg(test)]
pub(crate) fn testgate() -> std::sync::MutexGuard<'static, ()> {
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub use am_style::{AmHandle, AmStyleBackend, AmStyleLlSc};
pub use factory::{build, try_build, try_build_store, Algo};
pub use lock::{LockBackend, LockHandle, LockLlSc};
pub use ptrswap::{PtrSwapBackend, PtrSwapHandle, PtrSwapLlSc};
pub use seqlock::{SeqLockBackend, SeqLockHandle, SeqLockLlSc};
pub use traits::{MwHandle, Progress, SpaceEstimate};
