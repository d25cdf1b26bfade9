//! A fixed-size log-linear latency histogram, so that recording a
//! request costs one increment and the benchmark's own memory does not
//! grow with the number of requests (which would leak into
//! `peak_rss_mib`).

/// Sub-buckets per power of two: buckets are under 1% wide.
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Enough buckets for any `u32` nanosecond count (about 4.3 s).
const BUCKETS: usize = (32 - SUB_BITS as usize + 1) * SUB;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hist {
    counts: Vec<u32>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Self { counts: vec![0; BUCKETS], n: 0 }
    }
}

/// The bucket of `v`: exact below `SUB`, then `SUB` buckets per octave.
fn index(v: u32) -> usize {
    if (v as usize) < SUB {
        return v as usize;
    }
    let e = 31 - v.leading_zeros(); // ≥ SUB_BITS
    let shift = e - SUB_BITS;
    (shift as usize + 1) * SUB + ((v >> shift) as usize - SUB)
}

/// The lower edge and width of bucket `i`.
fn bounds(i: usize) -> (f64, f64) {
    if i < SUB {
        return (i as f64, 1.0);
    }
    let shift = (i / SUB - 1) as u32;
    let lo = ((SUB + i % SUB) as u64) << shift;
    (lo as f64, (1u64 << shift) as f64)
}

impl Hist {
    pub fn add(&mut self, v: u32) {
        self.counts[index(v)] += 1;
        self.n += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    /// The `q`-quantile by nearest rank, placed inside its bucket as if
    /// the bucket's samples were spread evenly across it.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if below + u64::from(c) >= rank {
                let (lo, width) = bounds(i);
                return Some(lo + width * (rank - below - 1) as f64 / f64::from(c));
            }
            below += u64::from(c);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_u32_range() {
        let mut next = 0u64;
        for i in 0..BUCKETS {
            let (lo, width) = bounds(i);
            assert_eq!(lo as u64, next, "bucket {i} starts where {} ends", i.saturating_sub(1));
            assert_eq!(index(lo as u32), i);
            assert_eq!(index((lo + width - 1.0) as u32), i);
            assert!(width / lo.max(1.0) <= 1.0 / SUB as f64 || width == 1.0);
            next += width as u64;
        }
        assert_eq!(next, 1 << 32);
    }

    #[test]
    fn quantiles_interpolate_inside_a_bucket() {
        let mut h = Hist::default();
        assert_eq!(h.quantile(0.5), None);
        for v in 1..=100 {
            h.add(v);
        }
        assert_eq!(h.quantile(0.5), Some(50.0));
        assert_eq!(h.quantile(0.99), Some(99.0));
        let mut big = Hist::default();
        big.add(1_000_000);
        big.add(1_000_000);
        let (lo, width) = bounds(index(1_000_000));
        assert_eq!(big.quantile(0.5), Some(lo));
        assert_eq!(big.quantile(1.0), Some(lo + width / 2.0));
        h.merge(&big);
        assert_eq!(h.len(), 102);
    }
}
