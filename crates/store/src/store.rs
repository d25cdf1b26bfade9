//! The sharded store: configuration, shards, the lazy per-key table, and
//! the rolled-up space/stats reports.

use mwllsc::sync::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use mwllsc::{CachePadded, MwFactory, PaperBackend, SlotRegistry};

use crate::handle::StoreHandle;
use crate::router::Router;

/// Keys per key-table page, as a power of two (256). The table's top
/// level holds one slot per page of the key space; a page of per-key
/// slots is allocated by the first touch of any key in it.
const PAGE_BITS: u32 = 8;
const PAGE_SLOTS: usize = 1 << PAGE_BITS;

/// A key-table page: one materialize-once slot per key.
type Page<O> = Box<[OnceLock<Arc<O>>]>;

/// Configuration for [`Store::try_new`].
///
/// `shards × shard_capacity` bounds the number of *concurrent*
/// [`StoreHandle`]s that can operate (each handle leases at most one slot
/// per shard); `keys` bounds the logical variable space, of which only
/// touched keys are ever materialized.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreConfig {
    /// Number of shards `S`.
    pub shards: usize,
    /// Process slots per shard `c` — the most handles that can touch one
    /// shard concurrently. Every per-key object is built for `c`
    /// processes, so per-key cost is `3cW + 3c + 1` words.
    pub shard_capacity: usize,
    /// Words per logical variable, `W`.
    pub width: usize,
    /// Logical key space: valid keys are `0..keys`.
    pub keys: u64,
    /// Initial value of every variable (length `width`).
    pub initial: Vec<u64>,
}

impl StoreConfig {
    /// A configuration with every variable initially all-zero.
    #[must_use]
    pub fn new(shards: usize, shard_capacity: usize, width: usize, keys: u64) -> Self {
        Self { shards, shard_capacity, width, keys, initial: vec![0; width] }
    }

    /// Replaces the initial value (must have length `width`).
    #[must_use]
    pub fn with_initial(mut self, initial: &[u64]) -> Self {
        self.initial = initial.to_vec();
        self
    }
}

/// Errors from store construction and per-key operations.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum StoreError {
    /// `shards` was zero.
    ZeroShards,
    /// `shard_capacity` was zero.
    ZeroShardCapacity,
    /// `width` was zero.
    ZeroWords,
    /// `keys` was zero.
    ZeroKeys,
    /// `keys` exceeds [`Store::MAX_KEYS`], which bounds the key table's
    /// eagerly allocated top level.
    TooManyKeys {
        /// The requested key-space size.
        keys: u64,
        /// The largest admissible value.
        max: u64,
    },
    /// `shard_capacity` exceeds the backend's per-object process ceiling
    /// ([`MwFactory::max_processes`] — `Layout::MAX_PROCESSES` for the
    /// paper backends).
    ShardCapacityTooLarge {
        /// The requested per-shard capacity.
        capacity: usize,
        /// The largest admissible value.
        max: usize,
    },
    /// The initial value slice length differs from `width`.
    WrongInitLen {
        /// Configured word count `W`.
        expected: usize,
        /// Length of the supplied initial value.
        got: usize,
    },
    /// The key is outside the configured `0..keys` space.
    KeyOutOfRange {
        /// The offending key.
        key: u64,
        /// The configured key-space size.
        capacity: u64,
    },
    /// A value slice's length differs from `width`.
    WrongValueLen {
        /// Configured word count `W`.
        expected: usize,
        /// Length of the supplied slice.
        got: usize,
    },
    /// All `shard_capacity` slots of the shard are leased by live
    /// [`StoreHandle`]s; drop one (or size `shard_capacity` to the
    /// worst-case number of concurrent handles per shard).
    ShardExhausted {
        /// The contested shard.
        shard: usize,
        /// Its slot capacity.
        capacity: usize,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ZeroShards => write!(f, "shard count must be at least 1"),
            Self::ZeroShardCapacity => write!(f, "shard capacity must be at least 1"),
            Self::ZeroWords => write!(f, "word count W must be at least 1"),
            Self::ZeroKeys => write!(f, "key space must hold at least 1 key"),
            Self::TooManyKeys { keys, max } => {
                write!(f, "key space of {keys} keys exceeds the store's ceiling of {max}")
            }
            Self::ShardCapacityTooLarge { capacity, max } => {
                write!(f, "shard capacity {capacity} exceeds the per-object process ceiling {max}")
            }
            Self::WrongInitLen { expected, got } => {
                write!(f, "initial value has {got} words, expected W = {expected}")
            }
            Self::KeyOutOfRange { key, capacity } => {
                write!(f, "key {key} outside the configured key space 0..{capacity}")
            }
            Self::WrongValueLen { expected, got } => {
                write!(f, "value slice has {got} words, expected W = {expected}")
            }
            Self::ShardExhausted { shard, capacity } => {
                write!(f, "all {capacity} slots of shard {shard} are leased by live store handles")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// One shard: a slot registry for handle leases plus the counters of the
/// keys routed to it (the objects themselves live in the store-wide key
/// table).
pub(crate) struct Shard {
    /// Shard-level slot leases. A [`StoreHandle`] holding slot `p` here
    /// owns process id `p` in *every* object of this shard, so its
    /// per-operation `claim(p)` can never conflict.
    pub(crate) registry: SlotRegistry,
    /// Objects materialized for this shard's keys, so
    /// [`Store::touched_keys`] need not walk the table.
    touched: AtomicUsize,
    // Operation counters live *per shard* (inside the shard's padded
    // block), not on the `Store`: a single store-global counter would be
    // one cache line RMW'd by every thread on every operation — exactly
    // the coherence ping-pong sharding exists to remove. Contention on
    // these mirrors shard contention, which is the quantity being scaled.
    /// Completed read-family operations against this shard.
    pub(crate) reads: AtomicU64,
    /// Completed updates against this shard.
    pub(crate) updates: AtomicU64,
    /// Extra LL/SC rounds taken by updates that lost an SC race.
    pub(crate) update_retries: AtomicU64,
}

/// A sharded store of up to `keys` logical `W`-word LL/SC variables.
///
/// See the [crate docs](crate) for the architecture; construction is
/// [`Store::try_new`] (or the panicking [`Store::new`]), access is through
/// [`Store::attach`] / [`Store::with`].
///
/// # Backends
///
/// The type parameter `B` selects the *backend*: the LL/SC implementation
/// a shard's key table materializes. The default [`PaperBackend`] keeps
/// the original API — `Store::new(...)` still builds a store of paper
/// objects over the tagged substrate — while
/// `Store::<EpochBackend>::new_in(...)` (or any other [`MwFactory`])
/// serves the same 2^24-key workload over a different implementation.
/// Runtime selection (the harness CLI) goes through
/// `llsc_baselines::try_build_store`, which returns the type-erased
/// [`DynStore`](crate::DynStore) view.
pub struct Store<B: MwFactory = PaperBackend> {
    router: Router,
    shards: Box<[CachePadded<Shard>]>,
    /// key → object, two levels: page `key >> PAGE_BITS`, then slot
    /// `key % PAGE_SLOTS`. Both levels materialize once, on first touch.
    table: Box<[OnceLock<Page<B::Object>>]>,
    shard_capacity: usize,
    w: usize,
    keys: u64,
    initial: Box<[u64]>,
}

impl<B: MwFactory> std::fmt::Debug for Store<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("backend", &B::NAME)
            .field("shards", &self.shards.len())
            .field("shard_capacity", &self.shard_capacity)
            .field("w", &self.w)
            .field("keys", &self.keys)
            .finish_non_exhaustive()
    }
}

impl Store {
    /// Creates a [`PaperBackend`] store, reporting configuration problems
    /// as typed errors.
    ///
    /// This is [`try_new_in`](Store::try_new_in) pinned to the default
    /// backend, so `Store::try_new(...)` needs no type annotations.
    pub fn try_new(config: StoreConfig) -> Result<Arc<Self>, StoreError> {
        Self::try_new_in(config)
    }

    /// [`try_new`](Self::try_new), panicking on configuration errors.
    ///
    /// # Panics
    ///
    /// Panics on the conditions `try_new` reports as errors.
    #[must_use]
    pub fn new(config: StoreConfig) -> Arc<Self> {
        Self::new_in(config)
    }
}

impl<B: MwFactory> Store<B> {
    /// The largest key space a store accepts (2^28 keys). The key table
    /// allocates its top level — one slot per 256 keys — at construction,
    /// and this ceiling keeps that allocation small (24 MiB at the
    /// ceiling, 1.5 MiB for 2^24 keys).
    pub const MAX_KEYS: u64 = 1 << 28;

    /// Creates a store over backend `B`, reporting configuration problems
    /// as typed errors.
    ///
    /// Nothing is allocated per key here: the store starts as the key
    /// table's top level (one empty slot per 256-key page) plus a slot
    /// registry per shard, and a key's page and object are materialized
    /// on first touch. (For inference reasons the backend-generic constructors
    /// carry the `_in` suffix, mirroring `MwLlSc::try_new_in`; the
    /// unsuffixed [`Store::try_new`]/[`Store::new`] build the default
    /// [`PaperBackend`].)
    pub fn try_new_in(config: StoreConfig) -> Result<Arc<Self>, StoreError> {
        let StoreConfig { shards, shard_capacity, width, keys, initial } = config;
        if shards == 0 {
            return Err(StoreError::ZeroShards);
        }
        if shard_capacity == 0 {
            return Err(StoreError::ZeroShardCapacity);
        }
        if width == 0 {
            return Err(StoreError::ZeroWords);
        }
        if keys == 0 {
            return Err(StoreError::ZeroKeys);
        }
        if keys > Self::MAX_KEYS {
            return Err(StoreError::TooManyKeys { keys, max: Self::MAX_KEYS });
        }
        if shard_capacity > B::max_processes() {
            return Err(StoreError::ShardCapacityTooLarge {
                capacity: shard_capacity,
                max: B::max_processes(),
            });
        }
        if initial.len() != width {
            return Err(StoreError::WrongInitLen { expected: width, got: initial.len() });
        }
        Ok(Arc::new(Self {
            router: Router::new(shards),
            shards: (0..shards)
                .map(|_| {
                    CachePadded::new(Shard {
                        registry: SlotRegistry::new(shard_capacity),
                        touched: AtomicUsize::new(0),
                        reads: AtomicU64::new(0),
                        updates: AtomicU64::new(0),
                        update_retries: AtomicU64::new(0),
                    })
                })
                .collect(),
            table: (0..keys.div_ceil(PAGE_SLOTS as u64)).map(|_| OnceLock::new()).collect(),
            shard_capacity,
            w: width,
            keys,
            initial: initial.into_boxed_slice(),
        }))
    }

    /// [`try_new_in`](Self::try_new_in), panicking on configuration
    /// errors.
    ///
    /// # Panics
    ///
    /// Panics on the conditions `try_new_in` reports as errors.
    #[must_use]
    pub fn new_in(config: StoreConfig) -> Arc<Self> {
        // lint: panic-ok(documented `# Panics` convenience wrapper; try_new_in is the typed path)
        Self::try_new_in(config).unwrap_or_else(|e| panic!("Store::new: {e}"))
    }

    /// The backend's display name (e.g. `"paper"`, `"lock"`).
    #[must_use]
    pub fn backend(&self) -> &'static str {
        B::NAME
    }

    /// Attaches a [`StoreHandle`].
    ///
    /// Always succeeds: shard slots are leased lazily, one per shard the
    /// handle actually touches, so capacity pressure surfaces as a typed
    /// [`StoreError::ShardExhausted`] on the first operation that needs a
    /// full shard — not here.
    #[must_use]
    pub fn attach(self: &Arc<Self>) -> StoreHandle<B> {
        StoreHandle::new(Arc::clone(self))
    }

    /// Number of shards `S`.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Process slots per shard, `c`.
    #[must_use]
    pub fn shard_capacity(&self) -> usize {
        self.shard_capacity
    }

    /// Words per logical variable, `W`.
    #[must_use]
    pub fn width(&self) -> usize {
        self.w
    }

    /// Size of the logical key space (valid keys are `0..key_capacity()`).
    #[must_use]
    pub fn key_capacity(&self) -> u64 {
        self.keys
    }

    /// Number of logical keys materialized so far.
    #[must_use]
    pub fn touched_keys(&self) -> usize {
        self.shards.iter().map(|s| s.touched.load(Ordering::Relaxed)).sum()
    }

    /// Number of shard slots currently leased by live [`StoreHandle`]s.
    #[must_use]
    pub fn live_slot_leases(&self) -> usize {
        self.shards.iter().map(|s| s.registry.live()).sum()
    }

    /// The router (pure, deterministic key→shard function).
    #[must_use]
    pub fn router(&self) -> Router {
        self.router
    }

    /// Validates `key` and returns its shard index — the public face of
    /// the routing step, for ownership layers (e.g. `mwllsc-mesh`) that
    /// partition shards across workers and must agree with the store on
    /// which shard a key lives in.
    pub fn try_route(&self, key: u64) -> Result<usize, StoreError> {
        self.route(key)
    }

    /// Validates `key` and returns its shard index.
    pub(crate) fn route(&self, key: u64) -> Result<usize, StoreError> {
        if key >= self.keys {
            return Err(StoreError::KeyOutOfRange { key, capacity: self.keys });
        }
        Ok(self.router.shard_of(key))
    }

    pub(crate) fn shard(&self, si: usize) -> &Shard {
        &self.shards[si] // si comes from router.shard_of, bounded by shard count
    }

    /// Returns the object for `key` (which must be in range and route to
    /// shard `si`), materializing its page and then the object on first
    /// touch.
    ///
    /// Once both exist the lookup is two `Acquire` loads, with no lock
    /// and no `Arc` clone (claiming a handle on the object still clones
    /// inside the backend). Only concurrent first touches of one page or
    /// one key wait, inside that `OnceLock`, and every caller gets the
    /// single winner's object.
    pub(crate) fn object_for(&self, si: usize, key: u64) -> &Arc<B::Object> {
        // route() checked key < keys, so key >> PAGE_BITS < table.len()
        let page = self.table[(key >> PAGE_BITS) as usize]
            .get_or_init(|| (0..PAGE_SLOTS).map(|_| OnceLock::new()).collect());
        // the low PAGE_BITS bits of the key index a PAGE_SLOTS-slot page
        page[key as usize & (PAGE_SLOTS - 1)].get_or_init(|| {
            self.shard(si).touched.fetch_add(1, Ordering::Relaxed);
            B::try_build(self.shard_capacity, self.w, &self.initial)
                .expect("per-key config was validated at store construction") // lint: panic-ok(try_build was proven Ok for this exact config at construction)
        })
    }

    /// The materialized key-table pages.
    fn pages(&self) -> impl Iterator<Item = &Page<B::Object>> {
        self.table.iter().filter_map(OnceLock::get)
    }

    /// Every materialized per-key object.
    fn objects(&self) -> impl Iterator<Item = &Arc<B::Object>> {
        self.pages().flat_map(|page| page.iter().filter_map(OnceLock::get))
    }

    /// Rolls every materialized object's space accounting (including the
    /// backend's retired-words backlog) into one [`StoreSpace`].
    ///
    /// `shared_words` sums what each object *measures* about itself
    /// ([`MwFactory::measured_shared_words`]), while
    /// `per_key_shared_words` is the backend's closed-form formula — the
    /// store tests assert `shared_words == touched ×
    /// per_key_shared_words`, which keeps the formula honest against the
    /// actual allocations rather than defining the invariant away.
    #[must_use]
    pub fn space(&self) -> StoreSpace {
        let mut shared_words = 0;
        let mut retired_words = 0;
        let mut touched_keys = 0;
        for obj in self.objects() {
            touched_keys += 1;
            shared_words += B::measured_shared_words(obj);
            retired_words += B::retired_words(obj);
        }
        let words = |bytes: usize| bytes.div_ceil(std::mem::size_of::<u64>());
        let table_words = words(std::mem::size_of_val::<[_]>(&self.table))
            + self.pages().map(|page| words(std::mem::size_of_val::<[_]>(page))).sum::<usize>();
        StoreSpace {
            backend: B::NAME,
            shards: self.shards.len(),
            key_capacity: self.keys,
            touched_keys,
            shared_words,
            retired_words,
            table_words,
            per_key_shared_words: B::object_shared_words(self.shard_capacity, self.w),
        }
    }

    /// Rolls every shard's operation counters and every materialized
    /// object's instrumentation counters into one [`StoreStats`].
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        let mut s = StoreStats { live_slot_leases: self.live_slot_leases(), ..Default::default() };
        for shard in self.shards.iter() {
            s.reads += shard.reads.load(Ordering::Relaxed);
            s.updates += shard.updates.load(Ordering::Relaxed);
            s.update_retries += shard.update_retries.load(Ordering::Relaxed);
        }
        for obj in self.objects() {
            let os = B::object_stats(obj);
            s.objects += 1;
            s.ll_ops += os.ll_ops;
            s.sc_attempts += os.sc_attempts;
            s.sc_successes += os.sc_successes;
            s.lls_helped += os.lls_helped;
            s.helps_given += os.helps_given;
        }
        s
    }
}

/// Honest space rollup for one [`Store`], in 64-bit words.
///
/// `shared_words` counts the exact per-object footprint
/// ([`MwFactory::object_shared_words`]) of every *materialized* object;
/// keys never touched cost nothing, which is the whole point of lazy
/// initialization. The invariant
/// `shared_words == touched_keys × per_key_shared_words` is asserted by
/// the store stress tests. Word counts are logical registers (the paper's
/// unit), so layout is excluded by design: each object's header in front
/// of its words (the `Arc` counts, the layout and the counters) and the
/// shards' cache-line padding (see [`CachePadded`]). The key table that
/// indexes the objects is reported apart, in `table_words`, so the
/// invariant stays a statement about the objects alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub struct StoreSpace {
    /// The backend that materialized the objects ([`MwFactory::NAME`]).
    pub backend: &'static str,
    /// Shard count `S`.
    pub shards: usize,
    /// Configured logical key space.
    pub key_capacity: u64,
    /// Keys materialized by a first touch.
    pub touched_keys: usize,
    /// Live shared words over all materialized objects: `touched ×
    /// per_key_shared_words` (`touched × (3cW + 3c + 1)` for the paper
    /// backends).
    pub shared_words: usize,
    /// Substrate reclamation backlog over all materialized objects
    /// (retired-but-not-freed words; zero for the default tagged
    /// substrate).
    pub retired_words: usize,
    /// Words held by the key table itself, never folded into
    /// `shared_words`: its eager top level (one slot per 256-key page of
    /// the key space) plus every page a first touch has materialized (256
    /// per-key slots each, touched or not).
    pub table_words: usize,
    /// Cost of one materialized key ([`MwFactory::object_shared_words`];
    /// `3cW + 3c + 1` words for the paper backends).
    pub per_key_shared_words: usize,
}

impl StoreSpace {
    /// Everything the store currently holds: live words, the reclamation
    /// backlog and the key table.
    #[must_use]
    pub fn total_words(&self) -> usize {
        self.shared_words + self.retired_words + self.table_words
    }

    /// What materializing the *entire* key space up front would cost, in
    /// words — the figure lazy initialization avoids.
    #[must_use]
    pub fn eager_words(&self) -> u128 {
        u128::from(self.key_capacity) * self.per_key_shared_words as u128
    }
}

/// Aggregated instrumentation for one [`Store`]: store-level operation
/// counts plus the rollup of every materialized object's
/// [`Stats`](mwllsc::Stats).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct StoreStats {
    /// Materialized per-key objects.
    pub objects: usize,
    /// Shard slots currently leased by live handles.
    pub live_slot_leases: usize,
    /// Completed [`StoreHandle::read`]-family operations.
    pub reads: u64,
    /// Completed [`StoreHandle::update`] operations.
    pub updates: u64,
    /// Extra LL/SC rounds taken by updates that lost an SC race.
    pub update_retries: u64,
    /// Sum of per-object LL counts.
    pub ll_ops: u64,
    /// Sum of per-object SC attempts.
    pub sc_attempts: u64,
    /// Sum of per-object successful SCs.
    pub sc_successes: u64,
    /// Sum of per-object helped LLs.
    pub lls_helped: u64,
    /// Sum of per-object helps given.
    pub helps_given: u64,
}

#[cfg(test)]
mod tests {
    use mwllsc::layout::Layout;

    use super::*;

    #[test]
    fn construction_validates() {
        let ok = StoreConfig::new(4, 2, 2, 100);
        assert!(Store::try_new(ok.clone()).is_ok());
        assert_eq!(
            Store::try_new(StoreConfig { shards: 0, ..ok.clone() }).unwrap_err(),
            StoreError::ZeroShards
        );
        assert_eq!(
            Store::try_new(StoreConfig { shard_capacity: 0, ..ok.clone() }).unwrap_err(),
            StoreError::ZeroShardCapacity
        );
        assert_eq!(
            Store::try_new(StoreConfig { width: 0, initial: vec![], ..ok.clone() }).unwrap_err(),
            StoreError::ZeroWords
        );
        assert_eq!(
            Store::try_new(StoreConfig { keys: 0, ..ok.clone() }).unwrap_err(),
            StoreError::ZeroKeys
        );
        let max = Store::<PaperBackend>::MAX_KEYS;
        assert!(Store::try_new(StoreConfig { keys: max, ..ok.clone() }).is_ok());
        assert_eq!(
            Store::try_new(StoreConfig { keys: max + 1, ..ok.clone() }).unwrap_err(),
            StoreError::TooManyKeys { keys: max + 1, max }
        );
        assert_eq!(
            Store::try_new(StoreConfig { shard_capacity: Layout::MAX_PROCESSES + 1, ..ok.clone() })
                .unwrap_err(),
            StoreError::ShardCapacityTooLarge {
                capacity: Layout::MAX_PROCESSES + 1,
                max: Layout::MAX_PROCESSES
            }
        );
        assert_eq!(
            Store::try_new(StoreConfig { initial: vec![1], ..ok }).unwrap_err(),
            StoreError::WrongInitLen { expected: 2, got: 1 }
        );
    }

    #[test]
    fn lazy_materialization_counts_touches_once() {
        let store = Store::new(StoreConfig::new(4, 2, 1, 1000));
        assert_eq!(store.touched_keys(), 0);
        let top_level = store.space().table_words;
        assert!(top_level > 0, "the top level is allocated eagerly");
        let si = store.route(17).unwrap();
        let a = store.object_for(si, 17);
        let b = store.object_for(si, 17);
        assert!(Arc::ptr_eq(a, b), "one object per key");
        assert_eq!(store.touched_keys(), 1);
        let space = store.space();
        assert_eq!(space.shared_words, space.per_key_shared_words, "the table is not folded in");
        let page = space.table_words - top_level;
        assert!(page >= PAGE_SLOTS, "a touch materializes one page of {PAGE_SLOTS} slots");
        // A second key on the same page costs an object but no page.
        store.object_for(store.route(18).unwrap(), 18);
        assert_eq!(store.space().table_words, top_level + page);
        assert_eq!(store.space().shared_words, 2 * space.per_key_shared_words);
    }

    #[test]
    fn concurrent_first_touches_build_one_object_per_key() {
        // Key 300 and its page neighbours (page 1 holds 256..512), all
        // untouched, first-touched by 8 threads released together.
        let store = Store::new(StoreConfig::new(4, 8, 1, 1000));
        let keys = [299u64, 300, 301];
        let barrier = std::sync::Barrier::new(8);
        let seen: Vec<Vec<Arc<_>>> = std::thread::scope(|s| {
            let spawned: Vec<_> = (0..8)
                .map(|t| {
                    let (store, barrier) = (&store, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        // Alternate the touch order so threads collide on
                        // the page slot and on each key slot.
                        let mut order = keys;
                        if t % 2 == 1 {
                            order.reverse();
                        }
                        let mut objs: Vec<_> = order
                            .iter()
                            .map(|&k| Arc::clone(store.object_for(store.route(k).unwrap(), k)))
                            .collect();
                        if t % 2 == 1 {
                            objs.reverse();
                        }
                        objs
                    })
                })
                .collect();
            spawned.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for objs in &seen[1..] {
            for (a, b) in objs.iter().zip(&seen[0]) {
                assert!(Arc::ptr_eq(a, b), "every thread got the single winner's object");
            }
        }
        assert_eq!(store.touched_keys(), keys.len());
        let space = store.space();
        assert_eq!(space.touched_keys, keys.len());
        assert_eq!(space.shared_words, keys.len() * space.per_key_shared_words);
    }

    #[test]
    fn route_rejects_out_of_range_keys() {
        // Key spaces that are not multiples of the page size: the last
        // key lives on a partly used page.
        for keys in [1u64, 10, 257, 1000] {
            let store = Store::new(StoreConfig::new(2, 1, 1, keys));
            assert!(store.route(keys - 1).is_ok());
            let mut h = store.attach();
            h.update(keys - 1, |v| v[0] = keys).unwrap();
            assert_eq!(h.read_vec(keys - 1).unwrap(), vec![keys], "last key of {keys}");
            assert_eq!(
                h.read_vec(keys).unwrap_err(),
                StoreError::KeyOutOfRange { key: keys, capacity: keys }
            );
            assert_eq!(
                store.route(keys).unwrap_err(),
                StoreError::KeyOutOfRange { key: keys, capacity: keys }
            );
        }
    }

    #[test]
    fn eager_words_quantifies_what_lazy_avoids() {
        let store = Store::new(StoreConfig::new(64, 2, 2, 1 << 24));
        let space = store.space();
        assert_eq!(space.shared_words, 0);
        assert_eq!(space.per_key_shared_words, 3 * 2 * 2 + 3 * 2 + 1);
        assert_eq!(space.eager_words(), (1u128 << 24) * 19);
        // Before the first touch only the table's top level exists.
        assert!(space.table_words * 8 <= 2 << 20, "{} table words", space.table_words);
    }

    #[test]
    fn error_messages_render() {
        assert!(StoreError::ShardExhausted { shard: 3, capacity: 8 }
            .to_string()
            .contains("shard 3"));
        assert!(StoreError::KeyOutOfRange { key: 5, capacity: 4 }.to_string().contains("0..4"));
        assert!(StoreError::ShardCapacityTooLarge { capacity: 9, max: 8 }
            .to_string()
            .contains("ceiling 8"));
        assert!(StoreError::TooManyKeys { keys: 9, max: 8 }.to_string().contains("ceiling of 8"));
    }
}
