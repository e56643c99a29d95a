//! Piece bitfields.
//!
//! Each peer advertises the pieces it has with a `bitfield` message right
//! after the handshake and with `have` messages afterwards. The in-memory
//! representation here is word-packed with the wire encoding of BEP 3
//! (big-endian bit order: piece 0 is the most significant bit of byte 0).

use serde::{Deserialize, Serialize};

/// A fixed-size set of piece indices.
///
/// ```
/// use bt_piece::Bitfield;
/// let mut have = Bitfield::new(8);
/// have.set(3);
/// let seed = Bitfield::full(8);
/// // §II-A interest relation: the seed has pieces we lack.
/// assert!(have.is_interested_in(&seed));
/// assert!(!seed.is_interested_in(&have));
/// // Wire round-trip (BEP 3, MSB-first bit order).
/// assert_eq!(Bitfield::from_wire(&have.to_wire(), 8), Some(have));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Bitfield {
    bits: Vec<u64>,
    len: u32,
    ones: u32,
}

impl Bitfield {
    /// An all-zero bitfield for `len` pieces.
    pub fn new(len: u32) -> Bitfield {
        let words = (len as usize).div_ceil(64);
        Bitfield {
            bits: vec![0u64; words],
            len,
            ones: 0,
        }
    }

    /// An all-one bitfield (a seed's piece map).
    pub fn full(len: u32) -> Bitfield {
        let mut bf = Bitfield::new(len);
        for i in 0..len {
            bf.set(i);
        }
        bf
    }

    /// Number of pieces this bitfield covers.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// True if it covers zero pieces.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of pieces present.
    pub fn count_ones(&self) -> u32 {
        self.ones
    }

    /// True when every piece is present (the peer is a seed).
    pub fn is_complete(&self) -> bool {
        self.ones == self.len && self.len > 0
    }

    /// Test piece `index`.
    ///
    /// # Panics
    /// Panics if `index >= len`.
    pub fn get(&self, index: u32) -> bool {
        assert!(index < self.len, "piece {index} out of range {}", self.len);
        let (w, b) = (index / 64, index % 64);
        self.bits[w as usize] >> b & 1 == 1
    }

    /// Set piece `index`; returns true if it was newly set.
    pub fn set(&mut self, index: u32) -> bool {
        assert!(index < self.len, "piece {index} out of range {}", self.len);
        let (w, b) = (index / 64, index % 64);
        let mask = 1u64 << b;
        let was = self.bits[w as usize] & mask != 0;
        self.bits[w as usize] |= mask;
        if !was {
            self.ones += 1;
        }
        !was
    }

    /// Clear piece `index`; returns true if it was previously set.
    pub fn clear(&mut self, index: u32) -> bool {
        assert!(index < self.len, "piece {index} out of range {}", self.len);
        let (w, b) = (index / 64, index % 64);
        let mask = 1u64 << b;
        let was = self.bits[w as usize] & mask != 0;
        self.bits[w as usize] &= !mask;
        if was {
            self.ones -= 1;
        }
        was
    }

    /// Mask selecting the valid bits of word `w` (all-ones except for a
    /// ragged final word).
    fn tail_mask(&self, w: usize) -> u64 {
        if w + 1 == self.bits.len() && !self.len.is_multiple_of(64) {
            (1u64 << (self.len % 64)) - 1
        } else {
            u64::MAX
        }
    }

    /// Iterate over the indices of set pieces.
    pub fn iter_ones(&self) -> impl Iterator<Item = u32> + '_ {
        bit_indices(self.bits.iter().copied())
    }

    /// Iterate over the indices of missing pieces.
    pub fn iter_zeros(&self) -> impl Iterator<Item = u32> + '_ {
        bit_indices(
            self.bits
                .iter()
                .enumerate()
                .map(move |(w, &x)| !x & self.tail_mask(w)),
        )
    }

    /// Iterate over pieces `self` has and `other` lacks, ascending.
    ///
    /// Word-level `self & !other`; the picker's candidate enumeration
    /// (`remote \ own`) is this iterator.
    pub fn iter_ones_andnot<'a>(&'a self, other: &'a Bitfield) -> impl Iterator<Item = u32> + 'a {
        debug_assert_eq!(self.len, other.len);
        bit_indices(
            self.bits
                .iter()
                .zip(other.bits.iter())
                .map(|(mine, theirs)| mine & !theirs),
        )
    }

    /// Number of pieces `self` has that `other` lacks (`|self \ other|`).
    pub fn count_andnot(&self, other: &Bitfield) -> u32 {
        debug_assert_eq!(self.len, other.len);
        self.bits
            .iter()
            .zip(other.bits.iter())
            .map(|(a, b)| (a & !b).count_ones())
            .sum()
    }

    /// True if `other` has at least one piece this bitfield lacks.
    ///
    /// This is the *interest* relation of §II-A: "peer A is interested in
    /// peer B when peer B has pieces that peer A does not have".
    pub fn is_interested_in(&self, other: &Bitfield) -> bool {
        debug_assert_eq!(self.len, other.len);
        self.bits
            .iter()
            .zip(other.bits.iter())
            .any(|(mine, theirs)| theirs & !mine != 0)
    }

    /// Encode as the BEP 3 wire bitfield (big-endian bit order, zero-padded
    /// to a whole number of bytes).
    pub fn to_wire(&self) -> Vec<u8> {
        let nbytes = (self.len as usize).div_ceil(8);
        let mut out = vec![0u8; nbytes];
        for i in self.iter_ones() {
            out[(i / 8) as usize] |= 0x80 >> (i % 8);
        }
        out
    }

    /// Decode a BEP 3 wire bitfield for a torrent of `len` pieces.
    ///
    /// Returns `None` if the byte length is wrong or any spare (padding)
    /// bit is set — both are protocol violations that should drop the
    /// connection.
    pub fn from_wire(data: &[u8], len: u32) -> Option<Bitfield> {
        if data.len() != (len as usize).div_ceil(8) {
            return None;
        }
        let mut bf = Bitfield::new(len);
        for (byte_idx, byte) in data.iter().enumerate() {
            for bit in 0..8 {
                if byte & (0x80 >> bit) != 0 {
                    let idx = byte_idx as u32 * 8 + bit;
                    if idx >= len {
                        return None; // spare bit set
                    }
                    bf.set(idx);
                }
            }
        }
        Some(bf)
    }
}

/// Ascending bit indices over a word stream: for each word `w` of the
/// packed layout, bit `b` yields index `w * 64 + b`. One
/// `trailing_zeros` + clear-lowest-bit per set bit, one load per word —
/// the word-level replacement for per-index `get()` scans.
fn bit_indices<I: Iterator<Item = u64>>(words: I) -> impl Iterator<Item = u32> {
    let mut words = words.enumerate();
    let mut cur: Option<(u32, u64)> = None;
    std::iter::from_fn(move || loop {
        if let Some((base, bits)) = &mut cur {
            if *bits != 0 {
                let b = bits.trailing_zeros();
                *bits &= *bits - 1;
                return Some(*base + b);
            }
        }
        let (w, bits) = words.next()?;
        cur = Some((w as u32 * 64, bits));
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let mut bf = Bitfield::new(130);
        assert!(!bf.get(0));
        assert!(bf.set(0));
        assert!(!bf.set(0));
        assert!(bf.get(0));
        assert!(bf.set(129));
        assert_eq!(bf.count_ones(), 2);
        assert!(bf.clear(0));
        assert!(!bf.clear(0));
        assert_eq!(bf.count_ones(), 1);
    }

    #[test]
    fn full_is_complete() {
        let bf = Bitfield::full(77);
        assert!(bf.is_complete());
        assert_eq!(bf.count_ones(), 77);
        let mut bf2 = bf.clone();
        bf2.clear(76);
        assert!(!bf2.is_complete());
    }

    #[test]
    fn interest_relation() {
        let mut a = Bitfield::new(10);
        let mut b = Bitfield::new(10);
        // Neither has anything: no interest either way.
        assert!(!a.is_interested_in(&b));
        b.set(3);
        assert!(a.is_interested_in(&b));
        assert!(!b.is_interested_in(&a));
        a.set(3);
        // Equal sets: mutual disinterest ("peer A is not interested in peer
        // B when peer B only has a subset of the pieces of peer A").
        assert!(!a.is_interested_in(&b));
        a.set(5);
        assert!(!a.is_interested_in(&b));
        assert!(b.is_interested_in(&a));
    }

    #[test]
    fn wire_roundtrip() {
        let mut bf = Bitfield::new(21);
        for i in [0u32, 7, 8, 15, 20] {
            bf.set(i);
        }
        let wire = bf.to_wire();
        assert_eq!(wire.len(), 3);
        assert_eq!(Bitfield::from_wire(&wire, 21), Some(bf));
    }

    #[test]
    fn wire_bit_order_is_msb_first() {
        let mut bf = Bitfield::new(8);
        bf.set(0);
        assert_eq!(bf.to_wire(), vec![0b1000_0000]);
        bf.set(7);
        assert_eq!(bf.to_wire(), vec![0b1000_0001]);
    }

    #[test]
    fn from_wire_rejects_bad_length_and_spare_bits() {
        assert_eq!(Bitfield::from_wire(&[0xFF], 9), None); // too short
        assert_eq!(Bitfield::from_wire(&[0xFF, 0xFF, 0x00], 9), None); // too long
        assert_eq!(Bitfield::from_wire(&[0xFF, 0xFF], 9), None); // spare bits
        assert!(Bitfield::from_wire(&[0xFF, 0x80], 9).is_some());
    }

    #[test]
    fn iterators() {
        let mut bf = Bitfield::new(5);
        bf.set(1);
        bf.set(4);
        assert_eq!(bf.iter_ones().collect::<Vec<_>>(), vec![1, 4]);
        assert_eq!(bf.iter_zeros().collect::<Vec<_>>(), vec![0, 2, 3]);
    }
}
