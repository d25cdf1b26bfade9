//! Wait-free multiword LL/SC/VL variables with `O(NW)` space.
//!
//! This crate is a faithful, production-grade implementation of the
//! algorithm of **Prasad Jayanti and Srdjan Petrovic, “Efficient Wait-Free
//! Implementation of Multiword LL/SC Variables”** (Dartmouth TR2004-523,
//! October 2004; ICDCS 2005): a `W`-word Load-Linked / Store-Conditional /
//! Validate shared variable for `N` asynchronous processes, built from
//! single-word LL/SC objects (themselves realized from CAS by the
//! [`llsc_word`] crate) and per-word-atomic *safe* buffers.
//!
//! # Guarantees
//!
//! * **Wait-free**: every `LL` and `SC` completes in `O(W)` of the calling
//!   process's own steps and every `VL` in `O(1)`, no matter how other
//!   processes are scheduled (including crashes).
//! * **Linearizable**: operations appear to take effect atomically at a
//!   point between invocation and response, with the LL/SC/VL semantics of
//!   the paper's Figure 1.
//! * **Space-optimal up to constants**: `3N` value buffers of `W` words,
//!   plus `3N + 1` single-word LL/SC cells — `O(NW)` total, a factor `N`
//!   below the previous best (Anderson–Moir), which the `llsc-baselines`
//!   crate reconstructs for comparison.
//!
//! # How it works (paper §2, compressed)
//!
//! The current value of the object `O` lives in one of `3N` buffers; the
//! word-sized LL/SC variable `X` names that buffer together with a sequence
//! number that increments (mod `2N`) on every successful SC. A buffer that
//! holds the current value is not reused until `2N` further successful SCs
//! occur, so a reader that observes `X` and copies the named buffer gets a
//! consistent value unless it was overtaken by at least `2N` SCs mid-copy.
//! The helping mechanism covers exactly that case: an LL first *announces*
//! itself in `Help[p]` offering its own spare buffer; every SC that is
//! about to advance the sequence number from `s` checks process `s mod N`
//! and, if it is announced, donates its own buffer — which holds a value of
//! `O` that was current during the LL — by SC-ing `(0, buf)` into
//! `Help[p]`. Helper and helpee thereby *exchange buffer ownership*; this
//! exchange (rather than copying into per-reader space) is what removes the
//! factor-`N` from the space bound. Every process is examined for help
//! twice per `2N` successful SCs, so an overtaken reader is always rescued
//! before its value could go stale, and LL can decide — via a second read
//! of `X` and one `VL` — whether to return the directly-read value or the
//! donated one while meeting both of its obligations (§2.4): return a valid
//! value, and leave the link in a state that makes the subsequent SC
//! succeed iff that value is still current.
//!
//! # Quickstart
//!
//! ```
//! use mwllsc::MwLlSc;
//!
//! // A 3-word variable shared by 4 processes.
//! let obj = MwLlSc::new(4, 3, &[0, 0, 0]);
//! let mut handles = obj.handles();
//!
//! // Wait-free multiword fetch-and-add from any process:
//! let h = &mut handles[2];
//! let mut val = [0u64; 3];
//! loop {
//!     h.ll(&mut val);
//!     val[0] += 1; // modify
//!     if h.sc(&val) {
//!         break; // installed atomically
//!     }
//! }
//! assert_eq!(h.ll_vec(), vec![1, 0, 0]);
//! ```
//!
//! Threads share the object through [`MwLlSc::handles`] /
//! [`MwLlSc::claim`] when they pin process ids, or lease slots dynamically
//! with [`MwLlSc::attach`] / [`MwLlSc::with`] (handles release their slot
//! on drop, so thread pools can churn freely); see the crate examples for
//! realistic scenarios. Code meant to run over *any* multiword LL/SC
//! implementation — this one or the comparators in `llsc-baselines` —
//! should be written against the [`MwHandle`] trait.
//!
//! # Relation to the paper's pseudocode
//!
//! [`Handle::ll`], [`Handle::sc`] and [`Handle::vl`] are line-for-line
//! transliterations of Figure 2 (line numbers appear as comments in the
//! source). Differences are confined to what a real machine requires:
//!
//! * single-word LL/SC objects are realized from CAS with explicit link
//!   tokens ([`llsc_word::TaggedLlSc`]); the token replaces the hardware
//!   reservation and keeps per-process link state `O(1)`;
//! * buffers use per-word `AtomicU64` with `Relaxed` ordering, which is the
//!   Rust-legal rendering of the paper's *safe registers* (torn multi-word
//!   reads allowed, no UB);
//! * `X`, `Bank`, `Help` operations are `SeqCst`, giving the global time
//!   order the paper's proof reasons about.
//!
//! The deterministic simulator in the `simsched` crate re-implements the
//! same pseudocode at single-step granularity against *exact* abstract
//! LL/SC semantics and model-checks linearizability and the paper's
//! invariants I1/I2 and Lemma 3; the two implementations are cross-checked
//! by shared test scenarios.

#![warn(missing_docs, missing_debug_implementations)]
#![forbid(unsafe_code)]

mod buffer;
mod handle;
pub mod layout;
mod pad;
mod registry;
mod stats;
pub mod sync;
mod tls;
pub mod traits;
mod variable;

pub use handle::Handle;
pub use pad::CachePadded;
pub use registry::{AttachError, SlotRegistry};
pub use stats::Stats;
pub use tls::detach_current_thread;
pub use traits::{
    EpochBackend, MwFactory, MwHandle, PaperBackend, PaperRetryBackend, Progress, SpaceEstimate,
};
pub use variable::{ClaimError, ConfigError, LlStrategy, MwLlSc, SpaceReport};

/// The alternative epoch-based substrate (ablation), re-exported.
pub use llsc_word::EpochLlSc;
/// The single-word LL/SC interface both substrates implement,
/// re-exported so a raw substrate cell can be driven directly.
pub use llsc_word::LlScCell;
/// The default single-word substrate, re-exported for convenience.
pub use llsc_word::TaggedLlSc;
