//! Adversarial genome and read-set generators for the verification suite.
//!
//! The oracles compare PIM kernels against software references over inputs
//! chosen to stress the places where they could diverge: uniform random
//! genomes (the baseline), repeat-heavy genomes (hash collisions, dense
//! graph nodes, ambiguous traversals), and low-coverage read sets (sparse
//! graphs with many dead ends for the traversal to handle).

use pim_genome::reads::{Read, ReadSimulator};
use pim_genome::sequence::DnaSequence;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The adversarial input families exercised by the oracles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Uniform random genome at comfortable coverage.
    Random,
    /// A short motif repeated with small random spacers — many repeated
    /// k-mers, high-multiplicity edges, branchy graph.
    RepeatHeavy,
    /// Random genome sequenced at ~2× — coverage gaps fragment the graph.
    LowCoverage,
}

impl Scenario {
    /// Every scenario, in fixed order.
    pub const ALL: [Scenario; 3] = [Scenario::Random, Scenario::RepeatHeavy, Scenario::LowCoverage];

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            Scenario::Random => "random",
            Scenario::RepeatHeavy => "repeat-heavy",
            Scenario::LowCoverage => "low-coverage",
        }
    }

    fn coverage(&self) -> f64 {
        match self {
            Scenario::Random | Scenario::RepeatHeavy => 8.0,
            Scenario::LowCoverage => 2.0,
        }
    }
}

/// One generated verification input: the genome and its sequenced reads.
#[derive(Debug, Clone)]
pub struct TestCase {
    /// Which family produced it.
    pub scenario: Scenario,
    /// The reference genome.
    pub genome: DnaSequence,
    /// Error-free simulated reads (both the PIM and the software side
    /// consume exactly these, so stage outputs must agree bit for bit).
    pub reads: Vec<Read>,
}

/// Length of the simulated reads; a genome must be at least this long.
pub const READ_LEN: usize = 50;

/// Generates the `scenario` input of roughly `genome_len` bases,
/// deterministically from `seed`.
///
/// # Panics
///
/// Panics if `genome_len < READ_LEN`.
pub fn generate(scenario: Scenario, genome_len: usize, seed: u64) -> TestCase {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x7E57_CA5E);
    let genome = match scenario {
        Scenario::Random | Scenario::LowCoverage => DnaSequence::random(&mut rng, genome_len),
        Scenario::RepeatHeavy => repeat_heavy(&mut rng, genome_len),
    };
    let reads = ReadSimulator::new(READ_LEN, scenario.coverage()).simulate(&genome, &mut rng);
    TestCase { scenario, genome, reads }
}

/// A genome dominated by copies of one motif: `motif spacer motif spacer …`
/// with 40 bp motifs and 15 bp random spacers, so most k-mers occur many
/// times and the de Bruijn graph is dense with multi-edges.
fn repeat_heavy(rng: &mut ChaCha8Rng, genome_len: usize) -> DnaSequence {
    let motif = DnaSequence::random(rng, 40);
    let mut text = String::with_capacity(genome_len + 64);
    while text.len() < genome_len {
        text.push_str(&motif.to_string());
        text.push_str(&DnaSequence::random(rng, 15).to_string());
    }
    text.truncate(genome_len);
    text.parse().expect("generated text is pure ACGT")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for s in Scenario::ALL {
            let a = generate(s, 400, 9);
            let b = generate(s, 400, 9);
            assert_eq!(a.genome, b.genome, "{}", s.name());
            assert_eq!(a.reads.len(), b.reads.len());
        }
    }

    #[test]
    fn repeat_heavy_genomes_actually_repeat() {
        let case = generate(Scenario::RepeatHeavy, 600, 3);
        let mut counter = pim_genome::KmerCounter::new(11).unwrap();
        counter.count_sequence(&case.genome).unwrap();
        let max = counter.entries().iter().map(|e| e.count).max().unwrap();
        assert!(max >= 5, "repeat-heavy genome should have high-multiplicity k-mers (max {max})");
    }

    #[test]
    fn low_coverage_uses_fewer_reads() {
        let lo = generate(Scenario::LowCoverage, 600, 4);
        let hi = generate(Scenario::Random, 600, 4);
        assert!(lo.reads.len() < hi.reads.len());
    }
}
