//! Exactness checks: what every read must satisfy, and the per-key
//! probe of `k + 1 + acked` at the end of a run.

use crate::gen::{word, Stream};

/// Whether `v` is a value `key` can hold after at least `floor_extra`
/// acknowledged updates: word 0 at or above `key + 1 + floor_extra`, and
/// every other word tied to word 0 (a torn multiword read breaks this).
pub fn value_ok(key: u64, v: &[u64], floor_extra: u64) -> bool {
    v[0] >= key + 1 + floor_extra && v.iter().enumerate().all(|(j, &x)| x == word(v[0], j))
}

/// Adds to `acked` the increments one lane's runner acknowledged: it
/// completed the first `done` ops of its cycling stream, except the
/// ops at the indices in `failed`.
pub fn tally(stream: &Stream, done: u64, failed: &[u64], acked: &mut [u64]) {
    let n = stream.len() as u64;
    let (cycles, rem) = (done / n, done % n);
    for i in 0..n {
        if !stream.op_reads(i) {
            acked[stream.op_key(i) as usize] += cycles + u64::from(i < rem);
        }
    }
    for &i in failed.iter().filter(|&&i| i < done && !stream.op_reads(i)) {
        acked[stream.op_key(i) as usize] -= 1;
    }
}

/// What the probe found.
#[derive(Debug, Default)]
pub struct Probe {
    pub keys: u64,
    pub mismatches: u64,
    pub first: Option<String>,
}

/// Reads every key through `read` and compares it with
/// `key + 1 + acked[key]` (and the cross-word relation).
pub fn probe(
    width: usize,
    acked: &[u64],
    mut read: impl FnMut(u64, &mut [u64]) -> Result<(), String>,
) -> Probe {
    let mut p = Probe::default();
    let mut v = vec![0u64; width];
    for (key, &n) in acked.iter().enumerate() {
        let key = key as u64;
        p.keys += 1;
        let found = match read(key, &mut v) {
            Ok(()) if v[0] == key + 1 + n && value_ok(key, &v, n) => continue,
            Ok(()) => format!("key {key}: read {v:?}, expected word 0 = {}", key + 1 + n),
            Err(e) => format!("key {key}: {e}"),
        };
        p.mismatches += 1;
        p.first.get_or_insert(found);
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{delta, initial};

    fn stream() -> Stream {
        Stream { round: 2, keys: vec![0, 1, 2, 2, 3, 0], reads: vec![false, true, false] }
    }

    #[test]
    fn tally_counts_cycles_prefixes_and_failures() {
        let s = stream();
        let mut acked = vec![0; 4];
        // Two full cycles (12 ops) plus the first op of a third.
        tally(&s, 13, &[], &mut acked);
        assert_eq!(acked, vec![2 * 2 + 1, 2, 0, 2]);
        let mut with_failure = vec![0; 4];
        tally(&s, 13, &[12, 2], &mut with_failure);
        assert_eq!(with_failure, vec![4, 2, 0, 2], "a failed read acks nothing anyway");
    }

    #[test]
    fn probe_reports_an_acked_count_off_by_one() {
        let width = 4;
        let mut values: Vec<Vec<u64>> = (0..8).map(|k| initial(k, width)).collect();
        let mut acked = vec![0u64; 8];
        for k in [3usize, 3, 5] {
            for (x, d) in values[k].iter_mut().zip(delta(width)) {
                *x = x.wrapping_add(d);
            }
            acked[k] += 1;
        }
        let read = |vals: &Vec<Vec<u64>>| {
            let vals = vals.clone();
            move |k: u64, out: &mut [u64]| {
                out.copy_from_slice(&vals[k as usize]);
                Ok(())
            }
        };
        assert_eq!(probe(width, &acked, read(&values)).mismatches, 0);

        acked[5] += 1;
        let p = probe(width, &acked, read(&values));
        assert_eq!(p.mismatches, 1);
        assert!(p.first.unwrap().starts_with("key 5"));
    }

    #[test]
    fn torn_and_low_reads_fail() {
        let mut v = initial(9, 4);
        assert!(value_ok(9, &v, 0));
        assert!(!value_ok(9, &v, 1), "below the floor");
        v[2] ^= 1;
        assert!(!value_ok(9, &v, 0), "torn");
    }
}
