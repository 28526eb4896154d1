//! Structured genome simulation.
//!
//! Purely random sequences are (almost) repeat-free at the paper's k
//! values, which makes assembly artificially easy. This generator plants
//! exact repeat families into a random background so tests and benchmarks
//! can exercise branch handling and unitig breaking the way a real
//! chromosome would.

use rand::Rng;

use crate::sequence::DnaSequence;

/// Specification of a planted repeat family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepeatFamily {
    /// Length of the repeated unit (bp).
    pub unit_len: usize,
    /// Number of copies planted.
    pub copies: usize,
}

/// Genome generator with planted repeat structure.
///
/// # Examples
///
/// ```
/// use pim_genome::simulate::{GenomeSimulator, RepeatFamily};
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
/// let sim = GenomeSimulator::new(5_000)
///     .with_repeat(RepeatFamily { unit_len: 300, copies: 3 });
/// let genome = sim.generate(&mut rng);
/// assert_eq!(genome.len(), 5_000);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenomeSimulator {
    length: usize,
    repeats: Vec<RepeatFamily>,
}

impl GenomeSimulator {
    /// Creates a simulator for a genome of `length` bp.
    ///
    /// # Panics
    ///
    /// Panics if `length == 0`.
    pub fn new(length: usize) -> Self {
        assert!(length > 0, "genome length must be positive");
        GenomeSimulator { length, repeats: Vec::new() }
    }

    /// Adds a repeat family.
    ///
    /// # Panics
    ///
    /// Panics if the family's total size exceeds the genome.
    pub fn with_repeat(mut self, family: RepeatFamily) -> Self {
        let total: usize = self
            .repeats
            .iter()
            .chain(std::iter::once(&family))
            .map(|f| f.unit_len * f.copies)
            .sum();
        assert!(total < self.length, "repeat content exceeds genome length");
        self.repeats.push(family);
        self
    }

    /// Target length.
    pub fn length(&self) -> usize {
        self.length
    }

    /// Generates the genome: random background with each family's unit
    /// copied into `copies` non-overlapping positions.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> DnaSequence {
        let mut genome = DnaSequence::random(rng, self.length);
        // Reserve disjoint slots by slicing the genome into equal segments
        // and planting one copy per segment — guarantees non-overlap.
        let total_copies: usize = self.repeats.iter().map(|f| f.copies).sum();
        if total_copies == 0 {
            return genome;
        }
        let segment = self.length / total_copies;
        let mut slot = 0usize;
        for family in &self.repeats {
            let unit = DnaSequence::random(rng, family.unit_len);
            for _ in 0..family.copies {
                let base = slot * segment;
                let max_off = segment.saturating_sub(family.unit_len);
                let off = if max_off == 0 { 0 } else { rng.gen_range(0..max_off) };
                genome = splice_sequence(&genome, base + off, &unit);
                slot += 1;
            }
        }
        genome
    }
}

/// Returns `genome` with `unit` written at `offset`.
fn splice_sequence(genome: &DnaSequence, offset: usize, unit: &DnaSequence) -> DnaSequence {
    let mut out = DnaSequence::with_capacity(genome.len());
    for i in 0..genome.len() {
        if i >= offset && i < offset + unit.len() {
            out.push(unit.get(i - offset));
        } else {
            out.push(genome.get(i));
        }
    }
    out
}

/// Counts exact occurrences of `unit` in `genome` (verification helper).
pub fn count_occurrences(genome: &DnaSequence, unit: &DnaSequence) -> usize {
    if unit.is_empty() || unit.len() > genome.len() {
        return 0;
    }
    let g = genome.to_string();
    let u = unit.to_string();
    let mut n = 0;
    let mut from = 0;
    while let Some(pos) = g[from..].find(&u) {
        n += 1;
        from += pos + 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assemble::{AssemblyConfig, SoftwareAssembler, Traversal};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn plants_the_requested_copies() {
        let mut rng = ChaCha8Rng::seed_from_u64(40);
        let sim = GenomeSimulator::new(4000).with_repeat(RepeatFamily { unit_len: 200, copies: 3 });
        let genome = sim.generate(&mut rng);
        assert_eq!(genome.len(), 4000);
        // Recover the planted unit by checking any 200-window appearing 3×:
        // simpler — regenerate with the same seed to capture the unit.
        // Instead verify structurally: some 50-mer occurs ≥ 3 times.
        let mut found = false;
        for start in (0..genome.len() - 50).step_by(25) {
            let window = genome.subsequence(start, 50);
            if count_occurrences(&genome, &window) >= 3 {
                found = true;
                break;
            }
        }
        assert!(found, "no 3×-repeated 50-mer found");
    }

    #[test]
    fn repeat_free_genome_has_no_duplicated_windows() {
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let genome = GenomeSimulator::new(3000).generate(&mut rng);
        for start in (0..genome.len() - 40).step_by(100) {
            let w = genome.subsequence(start, 40);
            assert_eq!(count_occurrences(&genome, &w), 1, "window at {start} repeats");
        }
    }

    #[test]
    fn repeats_break_unitigs() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let plain = GenomeSimulator::new(3000).generate(&mut rng);
        let repetitive = GenomeSimulator::new(3000)
            .with_repeat(RepeatFamily { unit_len: 250, copies: 3 })
            .generate(&mut rng);
        let cfg = AssemblyConfig::new(17).with_traversal(Traversal::Unitigs);
        let asm_plain = SoftwareAssembler::new(cfg).assemble_sequence(&plain).unwrap();
        let asm_rep = SoftwareAssembler::new(cfg).assemble_sequence(&repetitive).unwrap();
        assert_eq!(asm_plain.contigs.len(), 1);
        assert!(asm_rep.contigs.len() > 1, "repeats must fragment the assembly");
    }

    #[test]
    fn multiple_families_fit() {
        let mut rng = ChaCha8Rng::seed_from_u64(43);
        let sim = GenomeSimulator::new(10_000)
            .with_repeat(RepeatFamily { unit_len: 300, copies: 2 })
            .with_repeat(RepeatFamily { unit_len: 150, copies: 4 });
        let genome = sim.generate(&mut rng);
        assert_eq!(genome.len(), 10_000);
    }

    #[test]
    #[should_panic(expected = "repeat content exceeds")]
    fn oversized_repeats_rejected() {
        let _ = GenomeSimulator::new(1000).with_repeat(RepeatFamily { unit_len: 600, copies: 2 });
    }

    #[test]
    fn occurrence_counter_handles_overlaps() {
        let genome: DnaSequence = "AAAA".parse().unwrap();
        let unit: DnaSequence = "AA".parse().unwrap();
        assert_eq!(count_occurrences(&genome, &unit), 3);
        assert_eq!(count_occurrences(&genome, &"CCCCC".parse().unwrap()), 0);
    }
}
