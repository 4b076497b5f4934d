//! A compact bit vector used for messages, codewords and syndromes.

use std::fmt;
use std::ops::BitXorAssign;

/// A fixed-length, heap-allocated bit vector packed into 64-bit words.
///
/// ```
/// use dvbs2_ldpc::BitVec;
/// let mut bits = BitVec::zeros(100);
/// bits.set(3, true);
/// bits.set(99, true);
/// assert_eq!(bits.count_ones(), 2);
/// assert!(bits.get(3) && !bits.get(4));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates an all-zero bit vector of length `len`.
    pub fn zeros(len: usize) -> Self {
        BitVec { words: vec![0; len.div_ceil(64)], len }
    }

    /// Builds a bit vector from an iterator of booleans.
    pub fn from_bools<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut v = BitVec::default();
        v.extend(iter);
        v
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the vector holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range (len {})", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of range (len {})", self.len);
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Overwrites every bit: bit `i` becomes `bit(values[i])`, 64 bits per
    /// stored word with no branch per bit. Bits of the last word past `len`
    /// stay zero, as everywhere else.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != self.len()`.
    pub fn fill_from<T: Copy>(&mut self, values: &[T], bit: impl Fn(T) -> bool) {
        assert_eq!(values.len(), self.len, "length mismatch");
        for (word, chunk) in self.words.iter_mut().zip(values.chunks(64)) {
            *word = chunk.iter().enumerate().fold(0, |w, (i, &x)| w | (bit(x) as u64) << i);
        }
    }

    /// Flips bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn toggle(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range (len {})", self.len);
        self.words[i / 64] ^= 1u64 << (i % 64);
    }

    /// Number of set bits (Hamming weight).
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Hamming distance to another vector of the same length.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn hamming_distance(&self, other: &BitVec) -> usize {
        assert_eq!(self.len, other.len, "length mismatch");
        self.words.iter().zip(&other.words).map(|(a, b)| (a ^ b).count_ones() as usize).sum()
    }

    /// Iterates over the bits as booleans.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Appends one bit.
    pub fn push(&mut self, value: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        self.len += 1;
        self.set(self.len - 1, value);
    }
}

impl Extend<bool> for BitVec {
    fn extend<I: IntoIterator<Item = bool>>(&mut self, iter: I) {
        for b in iter {
            self.push(b);
        }
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        BitVec::from_bools(iter)
    }
}

impl BitXorAssign<&BitVec> for BitVec {
    /// XORs another vector of the same length into this one.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    fn bitxor_assign(&mut self, rhs: &BitVec) {
        assert_eq!(self.len, rhs.len, "length mismatch");
        for (a, b) in self.words.iter_mut().zip(&rhs.words) {
            *a ^= b;
        }
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[{} bits, weight {}]", self.len, self.count_ones())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_toggle_round_trip() {
        let mut v = BitVec::zeros(130);
        for i in (0..130).step_by(7) {
            v.set(i, true);
        }
        for i in 0..130 {
            assert_eq!(v.get(i), i % 7 == 0);
        }
        v.toggle(0);
        assert!(!v.get(0));
        assert_eq!(v.count_ones(), (0..130).filter(|i| i % 7 == 0).count() - 1);
    }

    #[test]
    fn xor_is_self_inverse() {
        let a: BitVec = (0..200).map(|i| i % 3 == 0).collect();
        let b: BitVec = (0..200).map(|i| i % 5 == 0).collect();
        let mut c = a.clone();
        c ^= &b;
        c ^= &b;
        assert_eq!(c, a);
    }

    #[test]
    fn hamming_distance_counts_differences() {
        let a: BitVec = (0..64).map(|i| i < 10).collect();
        let b: BitVec = (0..64).map(|i| i < 13).collect();
        assert_eq!(a.hamming_distance(&b), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let v = BitVec::zeros(10);
        let _ = v.get(10);
    }

    #[test]
    fn push_and_extend() {
        let mut v = BitVec::zeros(0);
        v.extend([true, false, true]);
        assert_eq!(v.len(), 3);
        assert!(v.get(0) && !v.get(1) && v.get(2));
    }

    #[test]
    fn fill_from_equals_per_bit_set_and_leaves_the_tail_zero() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for len in [0, 1, 63, 64, 65, 16200, 64800] {
            let values: Vec<i32> = (0..len)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (state >> 40) as i32 - (1 << 23)
                })
                .collect();
            let mut per_bit = BitVec::zeros(len);
            for (i, &x) in values.iter().enumerate() {
                per_bit.set(i, x < 0);
            }
            // Start from all ones: every bit must be overwritten, and the
            // bits past `len` must not pick anything up.
            let mut filled: BitVec = std::iter::repeat_n(true, len).collect();
            filled.fill_from(&values, |x| x < 0);
            assert_eq!(filled, per_bit, "len {len}");
            assert_eq!(filled.count_ones(), values.iter().filter(|&&x| x < 0).count());
            filled.fill_from(&values, |_| true);
            assert_eq!(filled.count_ones(), len, "len {len}: tail bits set");
        }
    }

    #[test]
    fn from_iterator_collect() {
        let v: BitVec = std::iter::repeat_n(true, 65).collect();
        assert_eq!(v.count_ones(), 65);
    }
}
