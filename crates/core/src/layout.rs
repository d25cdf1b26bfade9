//! Bit-field layouts for the algorithm's word-sized records.
//!
//! The paper's Figure 2 declares two record types stored in word-sized
//! LL/SC objects:
//!
//! ```text
//! xtype    = record buf: 0..3N-1; seq: 0..2N-1 end      (the variable X)
//! helptype = record helpme: {0,1}; buf: 0..3N-1 end     (the array Help)
//! ```
//!
//! Both must fit in the *value* field of a single-word LL/SC object. This
//! module computes, for a given process count `N`, how many bits each field
//! needs and packs/unpacks the records. The remaining bits of the 64-bit
//! word are left to the substrate's tag (see `llsc_word::TaggedLlSc`), so
//! smaller `N` automatically buys a larger ABA-wrap bound.

use llsc_word::bits_for;

/// The `xtype` record: index of the buffer holding the current value of
/// `O`, and the sequence number (mod `2N`) of the successful SC that wrote
/// it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct XRecord {
    /// Buffer index in `0..3N`.
    pub buf: u32,
    /// Sequence number in `0..2N`.
    pub seq: u32,
}

/// The `helptype` record: whether the owning process wants help with a
/// pending LL, and a buffer index (the owner's buffer while asking, the
/// helper's donated buffer once helped).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HelpRecord {
    /// `true` ⇔ the owner has announced an LL and has not been helped yet.
    pub helpme: bool,
    /// Buffer index in `0..3N`.
    pub buf: u32,
}

/// Field widths and packing for a given `N`.
#[derive(Clone, Copy, Debug)]
pub struct Layout {
    n: u32,
    // Field widths are at most 64, so a byte each keeps the layout (and
    // with it every object's header) small.
    buf_bits: u8,
    seq_bits: u8,
}

impl Layout {
    /// The largest process count the suite accepts for a 64-bit tagged
    /// substrate word.
    ///
    /// The packed `xtype` occupies `bits_for(3N-1) + bits_for(2N-1)` bits
    /// and must leave at least [`Self::MIN_TAG_BITS`] tag bits in the
    /// 64-bit word for the substrate's ABA protection. `2^22` is the
    /// round cap just under that floor: at `N = 2^22` the record needs
    /// `24 + 23 = 47` bits (17 tag bits left); the first `N` whose record
    /// exceeds 48 bits — strictly fewer tag bits than the floor — is
    /// `⌈(2^24 + 1) / 3⌉ ≈ 5.6M`, so the power-of-two cap is slightly
    /// conservative. Every constructor that takes an `n` validates
    /// against this single constant.
    pub const MAX_PROCESSES: usize = 1 << 22;

    /// The fewest tag bits we accept in the substrate word (the ABA-wrap
    /// floor behind [`Self::MAX_PROCESSES`]).
    pub const MIN_TAG_BITS: u32 = 16;

    /// Computes the layout for `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > `[`Self::MAX_PROCESSES`] (the packed
    /// `xtype` would leave fewer than [`Self::MIN_TAG_BITS`] tag bits in a
    /// 64-bit word).
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "at least one process is required");
        assert!(
            n <= Self::MAX_PROCESSES,
            "n={n} leaves fewer than {} tag bits for the LL/SC substrate",
            Self::MIN_TAG_BITS
        );
        let n = u32::try_from(n).expect("process count exceeds u32");
        let buf_bits = bits_for(u64::from(3 * n - 1)) as u8;
        let seq_bits = bits_for(u64::from(2 * n - 1)) as u8;
        let layout = Self { n, buf_bits, seq_bits };
        debug_assert!(layout.x_value_bits() <= 64 - Self::MIN_TAG_BITS);
        layout
    }

    /// Number of processes `N`.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n as usize
    }

    /// Number of buffers, `3N`.
    #[must_use]
    pub fn num_buffers(&self) -> usize {
        3 * self.n as usize
    }

    /// Number of `Bank` entries / distinct sequence numbers, `2N`.
    #[must_use]
    pub fn num_seqs(&self) -> usize {
        2 * self.n as usize
    }

    /// Width of the packed `xtype` value in bits.
    #[must_use]
    pub fn x_value_bits(&self) -> u32 {
        u32::from(self.buf_bits + self.seq_bits)
    }

    /// Width of a buffer index (a `Bank` cell's value) in bits.
    #[must_use]
    pub fn buf_value_bits(&self) -> u32 {
        u32::from(self.buf_bits)
    }

    /// Width of the packed `helptype` value in bits.
    #[must_use]
    pub fn help_value_bits(&self) -> u32 {
        u32::from(self.buf_bits) + 1
    }

    /// Packs an [`XRecord`]: `seq` in the high field, `buf` in the low.
    #[must_use]
    pub fn pack_x(&self, x: XRecord) -> u64 {
        debug_assert!(x.buf < 3 * self.n, "buf {} out of range", x.buf);
        debug_assert!(x.seq < 2 * self.n, "seq {} out of range", x.seq);
        (u64::from(x.seq) << self.buf_bits) | u64::from(x.buf)
    }

    /// Unpacks an [`XRecord`].
    #[must_use]
    pub fn unpack_x(&self, v: u64) -> XRecord {
        let buf = (v & ((1u64 << self.buf_bits) - 1)) as u32;
        let seq = (v >> self.buf_bits) as u32;
        debug_assert!(buf < 3 * self.n);
        debug_assert!(seq < 2 * self.n);
        XRecord { buf, seq }
    }

    /// Packs a [`HelpRecord`]: `helpme` in the top bit, `buf` below.
    #[must_use]
    pub fn pack_help(&self, h: HelpRecord) -> u64 {
        debug_assert!(h.buf < 3 * self.n, "buf {} out of range", h.buf);
        (u64::from(h.helpme) << self.buf_bits) | u64::from(h.buf)
    }

    /// Unpacks a [`HelpRecord`].
    #[must_use]
    pub fn unpack_help(&self, v: u64) -> HelpRecord {
        let buf = (v & ((1u64 << self.buf_bits) - 1)) as u32;
        let helpme = (v >> self.buf_bits) & 1 == 1;
        debug_assert!(buf < 3 * self.n);
        HelpRecord { helpme, buf }
    }

    /// The next sequence number: `(seq + 1) mod 2N`.
    #[must_use]
    pub fn next_seq(&self, seq: u32) -> u32 {
        (seq + 1) % (2 * self.n)
    }

    /// The process that an SC advancing from sequence number `seq` must
    /// examine for help: `seq mod N` (paper §2.2).
    #[must_use]
    pub fn helpee(&self, seq: u32) -> usize {
        (seq % self.n) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_for_small_n() {
        let l = Layout::new(1);
        // 3N-1 = 2 -> 2 bits; 2N-1 = 1 -> 1 bit.
        assert_eq!(l.x_value_bits(), 3);
        assert_eq!(l.help_value_bits(), 3);
        let l = Layout::new(4);
        // 3N-1 = 11 -> 4 bits; 2N-1 = 7 -> 3 bits.
        assert_eq!(l.x_value_bits(), 7);
        assert_eq!(l.help_value_bits(), 5);
    }

    #[test]
    fn pack_unpack_x_roundtrip_exhaustive() {
        for n in [1usize, 2, 3, 5, 8, 17, 64] {
            let l = Layout::new(n);
            for buf in 0..(3 * n) as u32 {
                for seq in 0..(2 * n) as u32 {
                    let rec = XRecord { buf, seq };
                    let packed = l.pack_x(rec);
                    assert!(packed < 1 << l.x_value_bits());
                    assert_eq!(l.unpack_x(packed), rec, "n={n} buf={buf} seq={seq}");
                }
            }
        }
    }

    #[test]
    fn pack_unpack_help_roundtrip_exhaustive() {
        for n in [1usize, 2, 3, 5, 8, 17, 64] {
            let l = Layout::new(n);
            for buf in 0..(3 * n) as u32 {
                for helpme in [false, true] {
                    let rec = HelpRecord { helpme, buf };
                    let packed = l.pack_help(rec);
                    assert!(packed < 1 << l.help_value_bits());
                    assert_eq!(l.unpack_help(packed), rec);
                }
            }
        }
    }

    #[test]
    fn packed_values_are_dense_distinct() {
        // Distinct records must pack to distinct words (injectivity).
        let l = Layout::new(3);
        let mut seen = std::collections::HashSet::new();
        for buf in 0..9u32 {
            for seq in 0..6u32 {
                assert!(seen.insert(l.pack_x(XRecord { buf, seq })));
            }
        }
    }

    #[test]
    fn next_seq_wraps_mod_2n() {
        let l = Layout::new(3);
        assert_eq!(l.next_seq(0), 1);
        assert_eq!(l.next_seq(4), 5);
        assert_eq!(l.next_seq(5), 0);
    }

    #[test]
    fn helpee_cycles_every_process_twice_per_2n() {
        // Over a window of 2N consecutive sequence numbers, every process
        // is examined exactly twice (paper §2.2).
        for n in [1usize, 2, 5, 8] {
            let l = Layout::new(n);
            let mut counts = vec![0usize; n];
            for s in 0..(2 * n) as u32 {
                counts[l.helpee(s)] += 1;
            }
            assert!(counts.iter().all(|&c| c == 2), "n={n}: {counts:?}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn zero_processes_rejected() {
        let _ = Layout::new(0);
    }

    #[test]
    fn tag_budget_reported() {
        // For N=1024, xtype needs 12+11=23 bits, leaving 41 tag bits.
        let l = Layout::new(1024);
        assert_eq!(l.x_value_bits(), 23);
        assert!(64 - l.x_value_bits() >= 41);
    }

    #[test]
    fn max_processes_respects_the_tag_floor() {
        // The largest admissible N must still leave MIN_TAG_BITS for the
        // substrate (the round cap is slightly conservative: 47 of the 48
        // admissible record bits are used).
        let l = Layout::new(Layout::MAX_PROCESSES);
        assert!(l.x_value_bits() <= 64 - Layout::MIN_TAG_BITS);
        assert_eq!(l.x_value_bits(), 47);
    }

    #[test]
    #[should_panic(expected = "tag bits")]
    fn beyond_max_processes_rejected() {
        let _ = Layout::new(Layout::MAX_PROCESSES + 1);
    }
}
