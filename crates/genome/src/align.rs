//! Banded global alignment for assembly validation.
//!
//! Genome fraction (k-mer containment) says *what* was recovered; alignment
//! identity says *how faithfully*. This module implements Needleman-Wunsch
//! with an optional diagonal band — O(n·band) instead of O(n·m) — which is
//! exact whenever the true alignment stays within the band (always the case
//! for near-identical contigs, the validation use-case).

use crate::sequence::DnaSequence;

/// Scoring scheme (match positive, mismatch/gap negative).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scoring {
    /// Score for a matching base pair.
    pub matches: i32,
    /// Score for a mismatching pair.
    pub mismatch: i32,
    /// Score per gap base.
    pub gap: i32,
}

impl Default for Scoring {
    fn default() -> Self {
        Scoring { matches: 1, mismatch: -1, gap: -2 }
    }
}

/// Result of an alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Alignment {
    /// Total alignment score.
    pub score: i32,
    /// Matching positions.
    pub matches: usize,
    /// Mismatching positions.
    pub mismatches: usize,
    /// Gap bases (insertions + deletions).
    pub gaps: usize,
}

impl Alignment {
    /// Identity over aligned columns, in `[0, 1]`.
    pub fn identity(&self) -> f64 {
        let cols = self.matches + self.mismatches + self.gaps;
        if cols == 0 {
            1.0
        } else {
            self.matches as f64 / cols as f64
        }
    }
}

/// Global alignment restricted to a diagonal band of half-width `band`.
/// A band of max(n, m) or more already spans every cell, so a wider one
/// aligns exactly like it.
///
/// Returns `None` when the band cannot connect the corners (length
/// difference exceeds the band).
///
/// # Examples
///
/// ```
/// use pim_genome::align::{banded_global, Scoring};
///
/// let a: pim_genome::DnaSequence = "ACGTACGT".parse()?;
/// let b: pim_genome::DnaSequence = "ACGTTCGT".parse()?;
/// let aln = banded_global(&a, &b, 4, Scoring::default()).expect("band wide enough");
/// assert_eq!(aln.mismatches, 1);
/// assert!(aln.identity() > 0.8);
/// # Ok::<(), pim_genome::GenomeError>(())
/// ```
pub fn banded_global(
    a: &DnaSequence,
    b: &DnaSequence,
    band: usize,
    scoring: Scoring,
) -> Option<Alignment> {
    let (n, m) = (a.len(), b.len());
    if n.abs_diff(m) > band {
        return None;
    }
    let band = band.min(n.max(m));
    const NEG: i32 = i32::MIN / 4;
    let width = 2 * band + 1;
    // dp[i][d] = best score aligning a[..i] with b[..j], j = i + d − band.
    let mut prev = vec![NEG; width];
    let mut prev_dir: Vec<Vec<u8>> = Vec::with_capacity(n + 1); // 0 diag, 1 up (gap in b), 2 left (gap in a)
    let mut dirs0 = vec![0u8; width];
    // Row 0: only gaps in a.
    for d in 0..width {
        let j = d as isize - band as isize;
        if (0..=m as isize).contains(&j) {
            prev[d] = scoring.gap * j as i32;
            dirs0[d] = 2;
        }
    }
    prev_dir.push(dirs0);
    for i in 1..=n {
        let mut cur = vec![NEG; width];
        let mut dirs = vec![0u8; width];
        for d in 0..width {
            let j = i as isize + d as isize - band as isize;
            if j < 0 || j > m as isize {
                continue;
            }
            let j = j as usize;
            if j == 0 {
                // First column: only gaps in b.
                cur[d] = scoring.gap * i as i32;
                dirs[d] = 1;
                continue;
            }
            let mut best = NEG;
            let mut dir = 0u8;
            // Diagonal: prev row, same d (j−1 = (i−1) + d − band).
            let sub = if a.get(i - 1) == b.get(j - 1) { scoring.matches } else { scoring.mismatch };
            if prev[d] > NEG && prev[d] + sub > best {
                best = prev[d] + sub;
                dir = 0;
            }
            // Up: gap in b (j fixed) → prev row, d+1.
            if d + 1 < width && prev[d + 1] > NEG && prev[d + 1] + scoring.gap > best {
                best = prev[d + 1] + scoring.gap;
                dir = 1;
            }
            // Left: gap in a (i fixed) → same row, d−1.
            if d >= 1 && cur[d - 1] > NEG && cur[d - 1] + scoring.gap > best {
                best = cur[d - 1] + scoring.gap;
                dir = 2;
            }
            cur[d] = best;
            dirs[d] = dir;
        }
        prev_dir.push(dirs);
        prev = cur;
    }
    // End cell: i = n, j = m → d = m − n + band.
    let d_end = (m as isize - n as isize + band as isize) as usize;
    let score = prev[d_end];
    if score <= NEG {
        return None;
    }
    // Traceback.
    let (mut i, mut d) = (n, d_end);
    let mut matches = 0;
    let mut mismatches = 0;
    let mut gaps = 0;
    loop {
        let j = (i as isize + d as isize - band as isize) as usize;
        if i == 0 && j == 0 {
            break;
        }
        match prev_dir[i][d] {
            0 => {
                if a.get(i - 1) == b.get(j - 1) {
                    matches += 1;
                } else {
                    mismatches += 1;
                }
                i -= 1;
            }
            1 => {
                gaps += 1;
                i -= 1;
                d += 1;
            }
            _ => {
                gaps += 1;
                d -= 1;
            }
        }
    }
    Some(Alignment { score, matches, mismatches, gaps })
}

/// Identity of the best global alignment within the band (`None` if the
/// band is too narrow for the length difference).
pub fn identity(a: &DnaSequence, b: &DnaSequence, band: usize) -> Option<f64> {
    banded_global(a, b, band, Scoring::default()).map(|aln| aln.identity())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn seq(s: &str) -> DnaSequence {
        s.parse().unwrap()
    }

    #[test]
    fn identical_sequences_align_perfectly() {
        let a = seq("ACGTACGTTTGG");
        let aln = banded_global(&a, &a, 3, Scoring::default()).unwrap();
        assert_eq!(aln.matches, a.len());
        assert_eq!(aln.mismatches, 0);
        assert_eq!(aln.gaps, 0);
        assert_eq!(aln.identity(), 1.0);
        assert_eq!(aln.score, a.len() as i32);
    }

    #[test]
    fn single_substitution_detected() {
        let a = seq("ACGTACGT");
        let b = seq("ACGTTCGT");
        let aln = banded_global(&a, &b, 4, Scoring::default()).unwrap();
        assert_eq!(aln.matches, 7);
        assert_eq!(aln.mismatches, 1);
        assert_eq!(aln.gaps, 0);
    }

    #[test]
    fn single_deletion_costs_one_gap() {
        let a = seq("ACGTACGT");
        let b = seq("ACGACGT"); // T deleted
        let aln = banded_global(&a, &b, 3, Scoring::default()).unwrap();
        assert_eq!(aln.gaps, 1);
        assert_eq!(aln.mismatches, 0);
        assert_eq!(aln.matches, 7);
    }

    #[test]
    fn band_too_narrow_returns_none() {
        let a = seq("ACGTACGTACGT");
        let b = seq("ACG");
        assert!(banded_global(&a, &b, 2, Scoring::default()).is_none());
    }

    #[test]
    fn a_band_wider_than_both_sequences_aligns_like_the_full_band() {
        let mut rng = ChaCha8Rng::seed_from_u64(92);
        let a = DnaSequence::random(&mut rng, 40);
        let b = DnaSequence::random(&mut rng, 37);
        let full = banded_global(&a, &b, 40, Scoring::default());
        assert!(full.is_some());
        for band in [41, 1_000, usize::MAX] {
            assert_eq!(banded_global(&a, &b, band, Scoring::default()), full, "band {band}");
        }
    }

    #[test]
    fn long_random_sequences_self_identity() {
        let mut rng = ChaCha8Rng::seed_from_u64(90);
        let a = DnaSequence::random(&mut rng, 500);
        assert_eq!(identity(&a, &a, 8).unwrap(), 1.0);
    }

    #[test]
    fn noisy_copy_has_high_but_imperfect_identity() {
        let mut rng = ChaCha8Rng::seed_from_u64(91);
        let a = DnaSequence::random(&mut rng, 400);
        let mut b = a.clone();
        for pos in [50usize, 150, 250, 350] {
            b.set_base(pos, b.get(pos).complement());
        }
        let id = identity(&a, &b, 8).unwrap();
        assert!((0.98..1.0).contains(&id), "identity {id}");
    }

    #[test]
    fn empty_sequences() {
        let e = DnaSequence::new();
        let aln = banded_global(&e, &e, 2, Scoring::default()).unwrap();
        assert_eq!(aln.identity(), 1.0);
        assert_eq!(aln.score, 0);
    }
}
