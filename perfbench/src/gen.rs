//! The four workloads and their seeded op streams.
//!
//! Every stream is built here, before any timed call, from the seed and
//! the lane number alone. A lane is one generator thread or, on the
//! server, one connection. Runners cycle through their lane's stream, so
//! how many ops a run completes is the only thing the clock decides.

use mwllsc_harness::workload::{KeyDist, KeyGen, SplitMix64};

/// The four workloads the benchmark runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    StoreUniformRw,
    StoreZipfBatchW4,
    ServerPipelined,
    MeshReadHeavy,
}

/// The layer a workload drives end to end, and whose runner the traced
/// run replays the workload's streams through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rung {
    /// One `MwLlSc` per key, reached through `Handle::ll`/`sc`/`read`.
    Core,
    /// Per-op `StoreHandle::read` / `update_with`.
    StoreOp,
    /// `StoreHandle::read_many_into` / `update_many_with`.
    StoreBatch,
    /// `MeshHandle::read_many_into` / `update_batch`.
    Mesh,
    /// Pipelined GET / UPDATE frames through `Client`.
    Server,
}

impl Rung {
    pub fn name(self) -> &'static str {
        match self {
            Rung::Core => "core",
            Rung::StoreOp => "store-op",
            Rung::StoreBatch => "store-batch",
            Rung::Mesh => "mesh",
            Rung::Server => "server",
        }
    }
}

/// Everything that fixes a workload's inputs and system shape.
#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub top: Rung,
    pub keys: u64,
    pub width: usize,
    pub shards: usize,
    pub shard_capacity: usize,
    pub dist: KeyDist,
    /// Op streams: generator threads, or connections for the server.
    pub lanes: usize,
    /// Keys per round; every key of a round is read, or every key updated.
    pub round: usize,
    /// A round is a read round with probability `reads_in / of`.
    pub reads_in: u64,
    pub of: u64,
    /// Stream length per lane, in ops, before the runner cycles.
    pub lane_ops: usize,
    /// How often set-up is repeated for the `setup_s` median.
    pub setup_reps: usize,
    /// Whether every thread of the run shares one CPU. The workloads
    /// whose generator hands each request to one system thread and waits
    /// for it (mesh, server) ran bimodal when the scheduler placed the
    /// two threads sometimes on one CPU, sometimes on two; on one CPU
    /// their figures are steady and count the path's whole CPU cost.
    pub one_cpu: bool,
}

const ZIPF: KeyDist = KeyDist::Zipfian { theta: 0.99 };

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::StoreUniformRw,
        Workload::StoreZipfBatchW4,
        Workload::ServerPipelined,
        Workload::MeshReadHeavy,
    ];

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.spec().name == name)
    }

    pub fn spec(self) -> Spec {
        match self {
            Workload::StoreUniformRw => Spec {
                name: "store-uniform-rw",
                why: "per-key lookup in store over a working set larger than L3, core uncontended",
                top: Rung::StoreOp,
                keys: 1 << 18,
                width: 1,
                shards: 16,
                shard_capacity: 4,
                dist: KeyDist::Uniform,
                lanes: 2,
                round: 1,
                reads_in: 1,
                of: 2,
                lane_ops: 1 << 20,
                setup_reps: 5,
                one_cpu: false,
            },
            Workload::StoreZipfBatchW4 => Spec {
                name: "store-zipf-batch-w4",
                why: "hot cached keys: multiword core LL/SC between two writers and the store batch paths",
                top: Rung::StoreBatch,
                keys: 4096,
                width: 4,
                shards: 16,
                shard_capacity: 4,
                dist: ZIPF,
                lanes: 2,
                round: 64,
                reads_in: 1,
                of: 5,
                lane_ops: 1 << 18,
                setup_reps: 15,
                one_cpu: false,
            },
            Workload::ServerPipelined => Spec {
                name: "server-pipelined",
                why: "codec, coalescer, reactor and loopback TCP dominate; store and core are a small share",
                top: Rung::Server,
                keys: 1 << 16,
                width: 1,
                shards: 16,
                shard_capacity: 4,
                dist: ZIPF,
                lanes: 2,
                round: 1,
                reads_in: 1,
                of: 2,
                lane_ops: 1 << 17,
                setup_reps: 5,
                one_cpu: true,
            },
            Workload::MeshReadHeavy => Spec {
                name: "mesh-read-heavy",
                why: "the only workload through the mesh rings and waves; read-heavy against the write-heavy store ones",
                top: Rung::Mesh,
                keys: 1 << 16,
                width: 1,
                shards: 16,
                shard_capacity: 4,
                dist: ZIPF,
                lanes: 1,
                round: 32,
                reads_in: 19,
                of: 20,
                lane_ops: 1 << 17,
                setup_reps: 9,
                one_cpu: true,
            },
        }
    }
}

/// Odd multipliers tying word `j` of a value to word 0: every value the
/// benchmark writes is `v[j] = v[0] * MULT[j]` (wrapping), so an update
/// is the word-wise addition of `MULT` and a torn multiword read breaks
/// the relation.
pub const MULT: [u64; 4] = [1, 0x9E37_79B9_7F4A_7C15, 0xC2B2_AE3D_27D4_EB4F, 0x1656_67B1_9E37_79F9];

/// Word `j` of the value whose word 0 is `v0`.
pub fn word(v0: u64, j: usize) -> u64 {
    v0.wrapping_mul(MULT[j])
}

/// The preloaded value of `key`: word 0 is `key + 1`.
pub fn initial(key: u64, width: usize) -> Vec<u64> {
    (0..width).map(|j| word(key + 1, j)).collect()
}

/// The operand of one update: adding it keeps `v[j] = v[0] * MULT[j]`
/// and raises word 0 by one.
pub fn delta(width: usize) -> Vec<u64> {
    MULT[..width].to_vec()
}

/// One lane's ops: `keys` in rounds of `round`, each round all reads or
/// all updates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Stream {
    pub round: usize,
    pub keys: Vec<u64>,
    pub reads: Vec<bool>,
}

impl Stream {
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn rounds(&self) -> usize {
        self.reads.len()
    }

    pub fn round_keys(&self, r: usize) -> &[u64] {
        &self.keys[r * self.round..(r + 1) * self.round]
    }

    /// Whether op `i` (counted from the stream's start, cycling) reads.
    pub fn op_reads(&self, i: u64) -> bool {
        self.reads[(i % self.len() as u64) as usize / self.round]
    }

    pub fn op_key(&self, i: u64) -> u64 {
        self.keys[(i % self.len() as u64) as usize]
    }
}

/// Builds every lane's stream for `spec` from `seed`.
pub fn streams(spec: &Spec, seed: u64) -> Vec<Stream> {
    let mut gen = KeyGen::new(spec.dist, spec.keys);
    (0..spec.lanes)
        .map(|lane| {
            let mut rng =
                SplitMix64::new(seed ^ (lane as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
            let rounds = spec.lane_ops / spec.round;
            let mut keys = Vec::with_capacity(spec.lane_ops);
            let mut reads = Vec::with_capacity(rounds);
            for _ in 0..rounds {
                reads.push(rng.next_u64() % spec.of < spec.reads_in);
                keys.extend((0..spec.round).map(|_| gen.next(&mut rng)));
            }
            Stream { round: spec.round, keys, reads }
        })
        .collect()
}

/// Share of update entries whose key occurs more than once among the
/// updates of its batch of `batch` consecutive ops: the entries the
/// store's equal-key SC folding can merge.
pub fn equal_key_share(streams: &[Stream], batch: usize) -> f64 {
    let (mut folded, mut total) = (0u64, 0u64);
    let mut sorted = Vec::new();
    for s in streams {
        for first in (0..s.len() as u64).step_by(batch) {
            sorted.clear();
            sorted.extend(
                (first..first + batch as u64).filter(|&i| !s.op_reads(i)).map(|i| s.op_key(i)),
            );
            sorted.sort_unstable();
            total += sorted.len() as u64;
            for (i, k) in sorted.iter().enumerate() {
                let dup_prev = i > 0 && sorted[i - 1] == *k;
                let dup_next = i + 1 < sorted.len() && sorted[i + 1] == *k;
                folded += u64::from(dup_prev || dup_next);
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        folded as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_reproduces_the_op_stream_and_another_changes_it() {
        for w in Workload::ALL {
            let spec = Spec { lane_ops: 1 << 12, ..w.spec() };
            let a = streams(&spec, 7);
            assert_eq!(a, streams(&spec, 7), "{}: same seed, same stream", spec.name);
            assert_ne!(a, streams(&spec, 8), "{}: new seed, new stream", spec.name);
            assert_eq!(a.len(), spec.lanes);
            if spec.lanes > 1 {
                assert_ne!(a[0], a[1], "{}: lanes draw different ops", spec.name);
            }
            for s in &a {
                assert!(s.keys.iter().all(|&k| k < spec.keys));
                assert_eq!(s.len(), spec.lane_ops);
            }
        }
    }

    #[test]
    fn mix_follows_the_spec() {
        let spec = Workload::MeshReadHeavy.spec();
        let s = &streams(&spec, 1)[0];
        let reads = s.reads.iter().filter(|&&r| r).count() as f64 / s.rounds() as f64;
        assert!((reads - 0.95).abs() < 0.02, "read share {reads}");
    }

    #[test]
    fn updates_keep_the_cross_word_relation() {
        let mut v = initial(41, 4);
        let d = delta(4);
        for (x, y) in v.iter_mut().zip(&d) {
            *x = x.wrapping_add(*y);
        }
        assert_eq!(v, initial(42, 4));
    }

    #[test]
    fn equal_key_share_counts_every_member_of_a_run() {
        let s = Stream { round: 4, keys: vec![1, 2, 1, 3, 5, 5, 5, 5], reads: vec![false, true] };
        assert_eq!(equal_key_share(std::slice::from_ref(&s), 4), 0.5);
        assert_eq!(equal_key_share(&[s], 2), 0.0, "runs split across batches do not fold");
    }
}
