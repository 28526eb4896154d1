//! Packed k-mers (k ≤ 32) and k-mer iteration.
//!
//! A [`Kmer`] packs its bases into a `u64`, two bits per base with the
//! Fig. 7 encoding, base 0 in the least-significant bits. 32 bases cover
//! every k the paper evaluates (k = 16, 22, 26, 32).

use std::fmt;

use crate::base::DnaBase;
use crate::error::{GenomeError, Result};
use crate::sequence::DnaSequence;

/// A fixed-length k-mer packed into 64 bits.
///
/// # Examples
///
/// ```
/// use pim_genome::kmer::Kmer;
///
/// let k: Kmer = "CGTGC".parse()?;
/// assert_eq!(k.k(), 5);
/// assert_eq!(k.to_string(), "CGTGC");
/// assert_eq!(k.prefix().to_string(), "CGTG");
/// assert_eq!(k.suffix().to_string(), "GTGC");
/// # Ok::<(), pim_genome::GenomeError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Kmer {
    packed: u64,
    k: u8,
}

impl Kmer {
    /// Maximum supported k.
    pub const MAX_K: usize = 32;

    /// Builds a k-mer from bases.
    ///
    /// # Errors
    ///
    /// Returns [`GenomeError::UnsupportedK`] if the base count is 0 or
    /// exceeds [`Kmer::MAX_K`].
    pub fn from_bases(bases: &[DnaBase]) -> Result<Self> {
        if bases.is_empty() || bases.len() > Kmer::MAX_K {
            return Err(GenomeError::UnsupportedK { k: bases.len() });
        }
        let mut packed = 0u64;
        for (i, b) in bases.iter().enumerate() {
            packed |= (b.code() as u64) << (2 * i);
        }
        Ok(Kmer { packed, k: bases.len() as u8 })
    }

    /// Extracts the k-mer starting at `start` in `seq`.
    ///
    /// # Errors
    ///
    /// * [`GenomeError::UnsupportedK`] for k outside `1..=32`.
    /// * [`GenomeError::SequenceTooShort`] if the window exceeds the
    ///   sequence.
    pub fn from_sequence(seq: &DnaSequence, start: usize, k: usize) -> Result<Self> {
        if k == 0 || k > Kmer::MAX_K {
            return Err(GenomeError::UnsupportedK { k });
        }
        if start + k > seq.len() {
            return Err(GenomeError::SequenceTooShort { len: seq.len(), needed: start + k });
        }
        let mut packed = 0u64;
        for i in 0..k {
            packed |= (seq.get(start + i).code() as u64) << (2 * i);
        }
        Ok(Kmer { packed, k: k as u8 })
    }

    /// The k-mer length.
    pub fn k(&self) -> usize {
        self.k as usize
    }

    /// The packed 2-bit representation (base 0 in the low bits).
    pub fn packed(&self) -> u64 {
        self.packed
    }

    /// Reconstructs a k-mer from its packed representation.
    ///
    /// # Errors
    ///
    /// Returns [`GenomeError::UnsupportedK`] for k outside `1..=32`.
    pub fn from_packed(packed: u64, k: usize) -> Result<Self> {
        if k == 0 || k > Kmer::MAX_K {
            return Err(GenomeError::UnsupportedK { k });
        }
        let mask = if k == 32 { u64::MAX } else { (1u64 << (2 * k)) - 1 };
        Ok(Kmer { packed: packed & mask, k: k as u8 })
    }

    /// Base at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.k()`.
    pub fn base(&self, i: usize) -> DnaBase {
        assert!(i < self.k(), "base index {i} out of k-mer range");
        DnaBase::from_code(((self.packed >> (2 * i)) & 0b11) as u8)
    }

    /// The (k−1)-mer prefix (drops the last base) — `node_1` of the
    /// `DeBruijn` procedure in Fig. 5.
    ///
    /// # Panics
    ///
    /// Panics if `k == 1`.
    pub fn prefix(&self) -> Kmer {
        assert!(self.k > 1, "cannot take prefix of a 1-mer");
        let k = self.k as usize - 1;
        let mask = (1u64 << (2 * k)) - 1;
        Kmer { packed: self.packed & mask, k: k as u8 }
    }

    /// The (k−1)-mer suffix (drops the first base) — `node_2` of the
    /// `DeBruijn` procedure.
    ///
    /// # Panics
    ///
    /// Panics if `k == 1`.
    pub fn suffix(&self) -> Kmer {
        assert!(self.k > 1, "cannot take suffix of a 1-mer");
        let k = self.k as usize - 1;
        Kmer { packed: self.packed >> 2, k: k as u8 }
    }

    /// Extends this (k−1)-mer by one base at the end, producing the
    /// neighbouring node reached along edge `base`.
    ///
    /// # Errors
    ///
    /// Returns [`GenomeError::UnsupportedK`] if the result would exceed
    /// [`Kmer::MAX_K`].
    pub fn extended(&self, base: DnaBase) -> Result<Kmer> {
        let k = self.k as usize + 1;
        if k > Kmer::MAX_K {
            return Err(GenomeError::UnsupportedK { k });
        }
        Ok(Kmer { packed: self.packed | ((base.code() as u64) << (2 * self.k())), k: k as u8 })
    }

    /// Last base.
    pub fn last_base(&self) -> DnaBase {
        self.base(self.k() - 1)
    }

    /// The reverse complement of this k-mer.
    pub fn reverse_complement(&self) -> Kmer {
        let mut packed = 0u64;
        for i in 0..self.k() {
            let b = self.base(i).complement();
            packed |= (b.code() as u64) << (2 * (self.k() - 1 - i));
        }
        Kmer { packed, k: self.k }
    }

    /// The lexicographically smaller of this k-mer and its reverse
    /// complement (the canonical form used when strands are unknown).
    pub fn canonical(&self) -> Kmer {
        let rc = self.reverse_complement();
        if rc.packed < self.packed {
            rc
        } else {
            *self
        }
    }

    /// The bases as a [`DnaSequence`].
    pub fn to_sequence(&self) -> DnaSequence {
        (0..self.k()).map(|i| self.base(i)).collect()
    }
}

impl std::str::FromStr for Kmer {
    type Err = GenomeError;

    fn from_str(s: &str) -> Result<Self> {
        let seq: DnaSequence = s.parse()?;
        Kmer::from_sequence(&seq, 0, seq.len())
    }
}

impl fmt::Display for Kmer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.k() {
            write!(f, "{}", self.base(i))?;
        }
        Ok(())
    }
}

/// Iterator over all k-mers of a sequence, in order (the `for` loop of the
/// `Hashmap(S, k)` procedure).
#[derive(Debug, Clone)]
pub struct KmerIter<'a> {
    seq: &'a DnaSequence,
    k: usize,
    next: usize,
    /// Rolling packed value of the previous window (valid when `next > 0`).
    rolling: u64,
}

impl<'a> KmerIter<'a> {
    /// Creates an iterator over the k-mers of `seq`.
    ///
    /// # Errors
    ///
    /// Returns [`GenomeError::UnsupportedK`] for unsupported k. A sequence
    /// shorter than k yields an empty iterator rather than an error.
    pub fn new(seq: &'a DnaSequence, k: usize) -> Result<Self> {
        if k == 0 || k > Kmer::MAX_K {
            return Err(GenomeError::UnsupportedK { k });
        }
        Ok(KmerIter { seq, k, next: 0, rolling: 0 })
    }
}

impl Iterator for KmerIter<'_> {
    type Item = Kmer;

    fn next(&mut self) -> Option<Kmer> {
        if self.next + self.k > self.seq.len() {
            return None;
        }
        let packed = if self.next == 0 {
            let first = Kmer::from_sequence(self.seq, 0, self.k).expect("validated in new");
            first.packed()
        } else {
            // Roll: drop the first base, append the new last base.
            let incoming = self.seq.get(self.next + self.k - 1).code() as u64;
            (self.rolling >> 2) | (incoming << (2 * (self.k - 1)))
        };
        self.rolling = packed;
        self.next += 1;
        Some(Kmer { packed, k: self.k as u8 })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = (self.seq.len() + 1).saturating_sub(self.next + self.k);
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for KmerIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_fig5b_kmers() {
        // S = CGTGCGTGCTT, k = 5 → the seven k-mers listed in Fig. 5b.
        let s: DnaSequence = "CGTGCGTGCTT".parse().unwrap();
        let kmers: Vec<String> = KmerIter::new(&s, 5).unwrap().map(|k| k.to_string()).collect();
        assert_eq!(kmers, vec!["CGTGC", "GTGCG", "TGCGT", "GCGTG", "CGTGC", "GTGCT", "TGCTT"]);
    }

    #[test]
    fn rolling_iterator_matches_direct_extraction() {
        let s: DnaSequence = "ACGTTGCAACGGTTACGT".parse().unwrap();
        for k in [1, 2, 5, 16] {
            let rolled: Vec<Kmer> = KmerIter::new(&s, k).unwrap().collect();
            let direct: Vec<Kmer> =
                (0..=(s.len() - k)).map(|i| Kmer::from_sequence(&s, i, k).unwrap()).collect();
            assert_eq!(rolled, direct, "k={k}");
        }
    }

    #[test]
    fn prefix_suffix_overlap() {
        let k: Kmer = "CGTGC".parse().unwrap();
        // suffix(prefix edge) chaining property: suffix of CGTGC = GTGC,
        // prefix = CGTG, and they overlap on GTG.
        assert_eq!(k.prefix().suffix(), k.suffix().prefix());
    }

    #[test]
    fn extended_rebuilds_kmer_from_node_and_edge() {
        let k: Kmer = "CGTGC".parse().unwrap();
        let rebuilt = k.prefix().extended(k.last_base()).unwrap();
        assert_eq!(rebuilt, k);
    }

    #[test]
    fn packed_roundtrip_and_masking() {
        let k: Kmer = "ACGT".parse().unwrap();
        let same = Kmer::from_packed(k.packed() | 0xFFFF_0000_0000_0000, 4).unwrap();
        assert_eq!(same, k);
        assert!(Kmer::from_packed(0, 0).is_err());
        assert!(Kmer::from_packed(0, 33).is_err());
    }

    #[test]
    fn k32_works() {
        let s = "ACGTACGTACGTACGTACGTACGTACGTACGT";
        let k: Kmer = s.parse().unwrap();
        assert_eq!(k.k(), 32);
        assert_eq!(k.to_string(), s);
    }

    #[test]
    fn canonical_is_strand_invariant() {
        let k: Kmer = "ACGTT".parse().unwrap();
        assert_eq!(k.canonical(), k.reverse_complement().canonical());
        // Reverse complement really reverses and complements.
        assert_eq!(k.reverse_complement().to_string(), "AACGT");
    }

    #[test]
    fn short_sequence_yields_no_kmers() {
        let s: DnaSequence = "ACG".parse().unwrap();
        assert_eq!(KmerIter::new(&s, 5).unwrap().count(), 0);
    }

    #[test]
    fn exact_size_iterator() {
        let s: DnaSequence = "CGTGCGTGCTT".parse().unwrap();
        let it = KmerIter::new(&s, 5).unwrap();
        assert_eq!(it.len(), 7);
    }
}
