//! Packed bit vectors representing the content of one DRAM row.
//!
//! A [`BitRow`] is a fixed-width sequence of bits stored in 64-bit words.
//! It supports the bulk bitwise operations the PIM-Assembler sense amplifier
//! realizes in-array (XNOR2, 3-input majority, ...) so that the functional
//! simulator can execute in-memory operations bit-accurately.

use std::fmt;

const WORD_BITS: usize = 64;

/// A fixed-width packed bit vector; the content of one DRAM row.
///
/// # Examples
///
/// ```
/// use pim_dram::bitrow::BitRow;
///
/// let a = BitRow::from_bits([true, false, true, true]);
/// let b = BitRow::from_bits([true, true, false, true]);
/// assert_eq!(a.xnor(&b).to_bit_vec(), vec![true, false, false, true]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitRow {
    len: usize,
    words: Vec<u64>,
}

impl BitRow {
    /// Creates an all-zero row of `len` bits.
    pub fn zeros(len: usize) -> Self {
        BitRow { len, words: vec![0; len.div_ceil(WORD_BITS)] }
    }

    /// Creates an all-one row of `len` bits.
    pub fn ones(len: usize) -> Self {
        let mut row = BitRow { len, words: vec![u64::MAX; len.div_ceil(WORD_BITS)] };
        row.mask_tail();
        row
    }

    /// Creates a row from an iterator of bits (index 0 first), packing
    /// words directly as the iterator is drained.
    pub fn from_bits<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let iter = bits.into_iter();
        let (lower, _) = iter.size_hint();
        let mut words = Vec::with_capacity(lower.div_ceil(WORD_BITS));
        let mut len = 0usize;
        let mut word = 0u64;
        for b in iter {
            if b {
                word |= 1u64 << (len % WORD_BITS);
            }
            len += 1;
            if len.is_multiple_of(WORD_BITS) {
                words.push(word);
                word = 0;
            }
        }
        if !len.is_multiple_of(WORD_BITS) {
            words.push(word);
        }
        BitRow { len, words }
    }

    /// Creates a row of `len` bits where bit `i` is `f(i)`, filling one
    /// backing word at a time.
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> bool) -> Self {
        let mut words = Vec::with_capacity(len.div_ceil(WORD_BITS));
        let mut i = 0;
        while i < len {
            let n = WORD_BITS.min(len - i);
            let mut word = 0u64;
            for bit in 0..n {
                if f(i + bit) {
                    word |= 1u64 << bit;
                }
            }
            words.push(word);
            i += n;
        }
        BitRow { len, words }
    }

    /// Creates a row from the low bits of `value` (LSB = bit 0), `len` wide.
    ///
    /// # Panics
    ///
    /// Panics if `len > 64`.
    pub fn from_u64(value: u64, len: usize) -> Self {
        assert!(len <= 64, "from_u64 supports at most 64 bits");
        let mut row = BitRow::zeros(len);
        if len > 0 {
            row.words[0] = if len == 64 { value } else { value & ((1u64 << len) - 1) };
        }
        row
    }

    /// Interprets the first `min(len, 64)` bits as a little-endian integer.
    pub fn to_u64(&self) -> u64 {
        if self.words.is_empty() {
            return 0;
        }
        let mut v = self.words[0];
        if self.len < 64 {
            v &= (1u64 << self.len) - 1;
        }
        v
    }

    /// Number of bits in the row.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the row has zero width.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range ({} bits)", self.len);
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Sets bit `i` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of range ({} bits)", self.len);
        let mask = 1u64 << (i % WORD_BITS);
        if value {
            self.words[i / WORD_BITS] |= mask;
        } else {
            self.words[i / WORD_BITS] &= !mask;
        }
    }

    /// Bitwise NOT.
    pub fn not(&self) -> Self {
        let mut out = self.clone();
        for w in &mut out.words {
            *w = !*w;
        }
        out.mask_tail();
        out
    }

    /// Bitwise AND with another row of equal width.
    ///
    /// # Panics
    ///
    /// Panics if widths differ (this and all binary ops below).
    pub fn and(&self, other: &Self) -> Self {
        self.zip_with(other, |a, b| a & b)
    }

    /// Bitwise OR.
    pub fn or(&self, other: &Self) -> Self {
        self.zip_with(other, |a, b| a | b)
    }

    /// Bitwise XOR.
    pub fn xor(&self, other: &Self) -> Self {
        self.zip_with(other, |a, b| a ^ b)
    }

    /// Bitwise XNOR — the single-cycle comparison primitive of the paper.
    pub fn xnor(&self, other: &Self) -> Self {
        let mut out = self.zip_with(other, |a, b| !(a ^ b));
        out.mask_tail();
        out
    }

    /// Bitwise 3-input majority — the TRA (triple-row-activation) primitive
    /// used for in-memory carry generation.
    pub fn maj3(a: &Self, b: &Self, c: &Self) -> Self {
        assert_eq!(a.len, b.len, "maj3 width mismatch");
        assert_eq!(a.len, c.len, "maj3 width mismatch");
        let mut out = BitRow::zeros(a.len);
        for i in 0..a.words.len() {
            let (x, y, z) = (a.words[i], b.words[i], c.words[i]);
            out.words[i] = (x & y) | (x & z) | (y & z);
        }
        out
    }

    /// Clears the row and loads `value`'s low `len` bits at offset 0 —
    /// the allocation-free form of `splice(0, &BitRow::from_u64(value,
    /// len))` on a zeroed row.
    ///
    /// # Panics
    ///
    /// Panics if `len > 64` or `len > self.len()`.
    pub fn load_u64(&mut self, value: u64, len: usize) {
        assert!(len <= 64, "load_u64 supports at most 64 bits");
        assert!(len <= self.len, "load of {len} bits into a {} bit row", self.len);
        self.words.fill(0);
        if len > 0 {
            self.words[0] = if len == 64 { value } else { value & ((1u64 << len) - 1) };
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether every bit is one.
    pub fn all_ones(&self) -> bool {
        self.count_ones() == self.len
    }

    /// Whether every bit is zero.
    pub fn all_zeros(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Copies `src` into `self` starting at bit offset `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset + src.len() > self.len()`.
    pub fn splice(&mut self, offset: usize, src: &BitRow) {
        assert!(offset + src.len <= self.len, "splice out of range");
        for i in 0..src.len {
            self.set(offset + i, src.get(i));
        }
    }

    /// Extracts `len` bits starting at `offset` into a new row.
    ///
    /// # Panics
    ///
    /// Panics if `offset + len > self.len()`.
    pub fn extract(&self, offset: usize, len: usize) -> BitRow {
        assert!(offset + len <= self.len, "extract out of range");
        BitRow::from_fn(len, |i| self.get(offset + i))
    }

    /// The `len` bits starting at `offset` as a little-endian integer:
    /// `extract(offset, len).to_u64()` without building the row.
    ///
    /// # Panics
    ///
    /// Panics if `len > 64` or `offset + len > self.len()`.
    ///
    /// # Examples
    ///
    /// ```
    /// use pim_dram::bitrow::BitRow;
    ///
    /// let row = BitRow::from_fn(128, |i| i == 62 || i == 65);
    /// assert_eq!(row.bits_u64(60, 8), 0b10_0100);
    /// ```
    pub fn bits_u64(&self, offset: usize, len: usize) -> u64 {
        assert!(len <= WORD_BITS && offset + len <= self.len, "bit field out of range");
        read_field(&self.words, offset, len)
    }

    /// Collects the bits into a `Vec<bool>` (index 0 first).
    pub fn to_bit_vec(&self) -> Vec<bool> {
        (0..self.len).map(|i| self.get(i)).collect()
    }

    /// Raw 64-bit backing words (tail bits beyond `len` are zero).
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// A `len`-bit row holding `words` (one row of a sub-array's word
    /// slab; tail bits beyond `len` must be zero).
    pub(crate) fn from_words(len: usize, words: &[u64]) -> Self {
        debug_assert_eq!(words.len(), len.div_ceil(WORD_BITS), "word count of a {len} bit row");
        BitRow { len, words: words.to_vec() }
    }

    /// Mutable backing words; the caller keeps the tail bits zero.
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    fn zip_with(&self, other: &Self, f: impl Fn(u64, u64) -> u64) -> Self {
        assert_eq!(self.len, other.len, "bit row width mismatch");
        let mut out = BitRow::zeros(self.len);
        for i in 0..self.words.len() {
            out.words[i] = f(self.words[i], other.words[i]);
        }
        out
    }

    fn mask_tail(&mut self) {
        let rem = self.len % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

/// The `len ≤ 64` bits starting at bit `offset` of a packed word slice,
/// as a little-endian integer. The caller checks the range.
pub(crate) fn read_field(words: &[u64], offset: usize, len: usize) -> u64 {
    if len == 0 {
        return 0;
    }
    let (word, shift) = (offset / WORD_BITS, offset % WORD_BITS);
    let mut value = words[word] >> shift;
    if shift + len > WORD_BITS {
        value |= words[word + 1] << (WORD_BITS - shift);
    }
    value & field_mask(len)
}

/// Overwrites the `len ≤ 64` bits starting at bit `offset` of a packed
/// word slice with the low `len` bits of `value`, leaving every other bit
/// alone. The caller checks the range.
pub(crate) fn write_field(words: &mut [u64], offset: usize, len: usize, value: u64) {
    if len == 0 {
        return;
    }
    let (word, shift) = (offset / WORD_BITS, offset % WORD_BITS);
    let (mask, value) = (field_mask(len), value & field_mask(len));
    words[word] = (words[word] & !(mask << shift)) | (value << shift);
    if shift + len > WORD_BITS {
        let spill = WORD_BITS - shift;
        words[word + 1] = (words[word + 1] & !(mask >> spill)) | (value >> spill);
    }
}

/// The low `len` bits set (`len ≤ 64`).
fn field_mask(len: usize) -> u64 {
    if len >= WORD_BITS {
        u64::MAX
    } else {
        (1u64 << len) - 1
    }
}

impl fmt::Debug for BitRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitRow[{}; ", self.len)?;
        let shown = self.len.min(64);
        for i in 0..shown {
            write!(f, "{}", if self.get(i) { '1' } else { '0' })?;
        }
        if self.len > shown {
            write!(f, "…")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for BitRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len {
            write!(f, "{}", if self.get(i) { '1' } else { '0' })?;
        }
        Ok(())
    }
}

impl FromIterator<bool> for BitRow {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        BitRow::from_bits(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = BitRow::zeros(130);
        assert_eq!(z.count_ones(), 0);
        assert!(z.all_zeros());
        let o = BitRow::ones(130);
        assert_eq!(o.count_ones(), 130);
        assert!(o.all_ones());
    }

    #[test]
    fn set_get_roundtrip() {
        let mut r = BitRow::zeros(256);
        r.set(0, true);
        r.set(63, true);
        r.set(64, true);
        r.set(255, true);
        assert!(r.get(0) && r.get(63) && r.get(64) && r.get(255));
        assert!(!r.get(1) && !r.get(128));
        assert_eq!(r.count_ones(), 4);
    }

    #[test]
    fn xnor_truth_table() {
        let a = BitRow::from_bits([false, false, true, true]);
        let b = BitRow::from_bits([false, true, false, true]);
        assert_eq!(a.xnor(&b).to_bit_vec(), vec![true, false, false, true]);
    }

    #[test]
    fn maj3_truth_table() {
        // All eight input combinations across eight bit positions.
        let a = BitRow::from_bits([false, false, false, false, true, true, true, true]);
        let b = BitRow::from_bits([false, false, true, true, false, false, true, true]);
        let c = BitRow::from_bits([false, true, false, true, false, true, false, true]);
        let m = BitRow::maj3(&a, &b, &c);
        assert_eq!(m.to_bit_vec(), vec![false, false, false, true, false, true, true, true]);
    }

    #[test]
    fn not_masks_tail() {
        let r = BitRow::zeros(3).not();
        assert_eq!(r.count_ones(), 3);
        assert_eq!(r.as_words()[0], 0b111);
    }

    #[test]
    fn u64_roundtrip() {
        let r = BitRow::from_u64(0xDEAD_BEEF, 48);
        assert_eq!(r.to_u64(), 0xDEAD_BEEF);
        assert_eq!(r.len(), 48);
    }

    #[test]
    fn splice_extract_roundtrip() {
        let mut r = BitRow::zeros(64);
        let payload = BitRow::from_u64(0b101101, 6);
        r.splice(10, &payload);
        assert_eq!(r.extract(10, 6), payload);
    }

    #[test]
    fn bit_fields_read_what_extract_reads() {
        // Fields inside one word, straddling a word boundary, and a whole
        // 64-bit word, on a row whose width is not a multiple of 64.
        let r = BitRow::from_fn(200, |i| (i * 7 + i / 3) % 5 < 2);
        for offset in 0..=200 {
            for len in 0..=64.min(200 - offset) {
                assert_eq!(
                    r.bits_u64(offset, len),
                    r.extract(offset, len).to_u64(),
                    "offset {offset} len {len}"
                );
            }
        }
    }

    #[test]
    fn display_and_debug() {
        let r = BitRow::from_bits([true, false, true]);
        assert_eq!(r.to_string(), "101");
        assert!(format!("{r:?}").contains("101"));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn binary_op_width_mismatch_panics() {
        let _ = BitRow::zeros(4).and(&BitRow::zeros(5));
    }

    #[test]
    fn field_writes_touch_only_their_bits() {
        // Fields inside one word, straddling a word boundary, and a whole
        // word, on a row whose width is not a multiple of 64: a write
        // lands exactly where splice puts it and reads back.
        let base = BitRow::from_fn(200, |i| (i * 5 + i / 7) % 3 == 0);
        for (offset, len) in [(0, 8), (60, 8), (64, 64), (100, 64), (136, 64), (199, 1), (7, 0)] {
            let value = 0xA5C3_96E1_0F3C_5AA5u64;
            let mut words = base.as_words().to_vec();
            write_field(&mut words, offset, len, value);
            let mut expect = base.clone();
            expect.splice(offset, &BitRow::from_u64(value, len));
            assert_eq!(words, expect.as_words(), "offset {offset} len {len}");
            assert_eq!(read_field(&words, offset, len), BitRow::from_u64(value, len).to_u64());
        }
    }

    #[test]
    fn direct_packing_matches_per_bit_construction() {
        for len in [0usize, 1, 63, 64, 65, 130] {
            let direct = BitRow::from_fn(len, |i| i % 7 == 0);
            let mut per_bit = BitRow::zeros(len);
            for i in 0..len {
                per_bit.set(i, i % 7 == 0);
            }
            assert_eq!(direct, per_bit, "from_fn len {len}");
            let collected = BitRow::from_bits((0..len).map(|i| i % 7 == 0));
            assert_eq!(collected, per_bit, "from_bits len {len}");
            assert_eq!(collected.len(), len);
        }
    }

    #[test]
    fn from_iter_collects() {
        let r: BitRow = [true, true, false].into_iter().collect();
        assert_eq!(r.len(), 3);
        assert_eq!(r.count_ones(), 2);
    }
}
