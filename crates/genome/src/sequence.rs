//! 2-bit packed DNA sequences.
//!
//! A [`DnaSequence`] stores bases four-per-byte using the Fig. 7 encoding,
//! matching how PIM-Assembler lays 128 bp into one 256-bit DRAM row.

use std::fmt;
use std::str::FromStr;

use rand::Rng;

use crate::base::DnaBase;
use crate::error::{GenomeError, Result};

/// A DNA sequence packed two bits per base.
///
/// # Examples
///
/// ```
/// use pim_genome::sequence::DnaSequence;
///
/// let s: DnaSequence = "CGTGC".parse()?;
/// assert_eq!(s.len(), 5);
/// assert_eq!(s.to_string(), "CGTGC");
/// assert_eq!(s.subsequence(1, 3).to_string(), "GTG");
/// # Ok::<(), pim_genome::GenomeError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct DnaSequence {
    len: usize,
    packed: Vec<u8>,
}

impl DnaSequence {
    /// Creates an empty sequence.
    pub fn new() -> Self {
        DnaSequence::default()
    }

    /// Creates an empty sequence with capacity for `bases`.
    pub fn with_capacity(bases: usize) -> Self {
        DnaSequence { len: 0, packed: Vec::with_capacity(bases.div_ceil(4)) }
    }

    /// Generates a uniformly random sequence of `len` bases.
    pub fn random<R: Rng + ?Sized>(rng: &mut R, len: usize) -> Self {
        let mut s = DnaSequence::with_capacity(len);
        for _ in 0..len {
            s.push(DnaBase::from_code(rng.gen_range(0..4)));
        }
        s
    }

    /// Number of bases.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one base.
    pub fn push(&mut self, base: DnaBase) {
        let bit = self.len * 2;
        if bit / 8 >= self.packed.len() {
            self.packed.push(0);
        }
        self.packed[bit / 8] |= base.code() << (bit % 8);
        self.len += 1;
    }

    /// Returns base `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn get(&self, i: usize) -> DnaBase {
        assert!(i < self.len, "base index {i} out of range ({} bases)", self.len);
        let bit = i * 2;
        DnaBase::from_code((self.packed[bit / 8] >> (bit % 8)) & 0b11)
    }

    /// Copies `len` bases starting at `start` into a new sequence.
    ///
    /// # Panics
    ///
    /// Panics if `start + len > self.len()`.
    pub fn subsequence(&self, start: usize, len: usize) -> DnaSequence {
        assert!(start + len <= self.len, "subsequence out of range");
        let mut s = DnaSequence::with_capacity(len);
        for i in 0..len {
            s.push(self.get(start + i));
        }
        s
    }

    /// Appends all bases of `other`.
    pub fn extend_from(&mut self, other: &DnaSequence) {
        for b in other.iter() {
            self.push(b);
        }
    }

    /// The reverse complement.
    pub fn reverse_complement(&self) -> DnaSequence {
        let mut s = DnaSequence::with_capacity(self.len);
        for i in (0..self.len).rev() {
            s.push(self.get(i).complement());
        }
        s
    }

    /// Iterates over the bases.
    pub fn iter(&self) -> Iter<'_> {
        Iter { seq: self, next: 0 }
    }

    /// The raw packed bytes (4 bases per byte, Fig. 7 codes, LSB first).
    pub fn as_packed_bytes(&self) -> &[u8] {
        &self.packed
    }

    /// Packs the first `max_bases` bases (zero-padded) into a little-endian
    /// bit vector of `2·max_bases` bits — the exact payload written into a
    /// PIM-Assembler k-mer row.
    pub fn to_row_bits(&self, max_bases: usize) -> Vec<bool> {
        let mut bits = vec![false; max_bases * 2];
        for i in 0..self.len.min(max_bases) {
            let code = self.get(i).code();
            bits[2 * i] = code & 1 == 1;
            bits[2 * i + 1] = code & 2 == 2;
        }
        bits
    }

    /// GC content in `[0, 1]` (0 for the empty sequence).
    pub fn gc_fraction(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        let gc = self.iter().filter(|b| matches!(b, DnaBase::G | DnaBase::C)).count();
        gc as f64 / self.len as f64
    }
}

/// Iterator over the bases of a [`DnaSequence`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    seq: &'a DnaSequence,
    next: usize,
}

impl Iterator for Iter<'_> {
    type Item = DnaBase;

    fn next(&mut self) -> Option<DnaBase> {
        if self.next >= self.seq.len {
            return None;
        }
        let b = self.seq.get(self.next);
        self.next += 1;
        Some(b)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.seq.len - self.next;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a DnaSequence {
    type Item = DnaBase;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl FromIterator<DnaBase> for DnaSequence {
    fn from_iter<I: IntoIterator<Item = DnaBase>>(iter: I) -> Self {
        let mut s = DnaSequence::new();
        for b in iter {
            s.push(b);
        }
        s
    }
}

impl Extend<DnaBase> for DnaSequence {
    fn extend<I: IntoIterator<Item = DnaBase>>(&mut self, iter: I) {
        for b in iter {
            self.push(b);
        }
    }
}

impl FromStr for DnaSequence {
    type Err = GenomeError;

    fn from_str(s: &str) -> Result<Self> {
        let mut seq = DnaSequence::with_capacity(s.len());
        for (i, ch) in s.chars().enumerate() {
            seq.push(DnaBase::try_from_char_at(ch, i)?);
        }
        Ok(seq)
    }
}

impl fmt::Display for DnaSequence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.iter() {
            write!(f, "{b}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for DnaSequence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.len <= 40 {
            write!(f, "DnaSequence({self})")
        } else {
            write!(f, "DnaSequence({}… {} bp)", self.subsequence(0, 40), self.len)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn parse_display_roundtrip() {
        let s: DnaSequence = "ACGTACGTTTGGCCAA".parse().unwrap();
        assert_eq!(s.to_string(), "ACGTACGTTTGGCCAA");
        assert_eq!(s.len(), 16);
    }

    #[test]
    fn push_get_across_byte_boundaries() {
        let mut s = DnaSequence::new();
        let pattern = [DnaBase::A, DnaBase::C, DnaBase::G, DnaBase::T, DnaBase::T, DnaBase::G];
        for _ in 0..10 {
            for b in pattern {
                s.push(b);
            }
        }
        for (i, b) in s.iter().enumerate() {
            assert_eq!(b, pattern[i % pattern.len()]);
        }
    }

    #[test]
    fn subsequence_matches_slice() {
        let s: DnaSequence = "CGTGCGTGCTT".parse().unwrap();
        assert_eq!(s.subsequence(0, 5).to_string(), "CGTGC");
        assert_eq!(s.subsequence(6, 5).to_string(), "TGCTT");
    }

    #[test]
    fn reverse_complement_is_involution() {
        let s: DnaSequence = "ATTGCCGGAAC".parse().unwrap();
        assert_eq!(s.reverse_complement().reverse_complement(), s);
        assert_eq!(s.reverse_complement().to_string(), "GTTCCGGCAAT");
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let mut r1 = ChaCha8Rng::seed_from_u64(9);
        let mut r2 = ChaCha8Rng::seed_from_u64(9);
        assert_eq!(DnaSequence::random(&mut r1, 100), DnaSequence::random(&mut r2, 100));
    }

    #[test]
    fn row_bits_match_fig7_codes() {
        let s: DnaSequence = "TGAC".parse().unwrap(); // codes 00, 01, 10, 11
        let bits = s.to_row_bits(4);
        assert_eq!(bits, vec![false, false, true, false, false, true, true, true]);
        // Padding to a longer row is zeros (= T, which is why the row layout
        // also stores the k-mer length out of band).
        assert_eq!(s.to_row_bits(6).len(), 12);
    }

    #[test]
    fn parse_rejects_bad_chars() {
        let err = "ACGNT".parse::<DnaSequence>().unwrap_err();
        assert_eq!(err, GenomeError::InvalidBase { ch: 'N', position: 3, line: None });
    }

    #[test]
    fn gc_fraction_counts() {
        let s: DnaSequence = "GGCC".parse().unwrap();
        assert_eq!(s.gc_fraction(), 1.0);
        let s: DnaSequence = "GATA".parse().unwrap();
        assert_eq!(s.gc_fraction(), 0.25);
        assert_eq!(DnaSequence::new().gc_fraction(), 0.0);
    }

    #[test]
    fn collect_and_extend() {
        let s: DnaSequence = [DnaBase::A, DnaBase::C].into_iter().collect();
        let mut t = s.clone();
        t.extend([DnaBase::G]);
        assert_eq!(t.to_string(), "ACG");
        let mut u = DnaSequence::new();
        u.extend_from(&t);
        assert_eq!(u, t);
    }

    #[test]
    fn debug_truncates_long_sequences() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let s = DnaSequence::random(&mut rng, 100);
        let dbg = format!("{s:?}");
        assert!(dbg.contains("100 bp"));
    }
}
