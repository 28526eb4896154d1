//! Capstone integration: a repeat-structured genome goes through all three
//! stages on the PIM platform. Assembly fragments at the repeats, but the
//! genome's k-mers survive.

use pim_assembler_suite::assembler::{PimAssembler, PimAssemblerConfig};
use pim_assembler_suite::genome::assemble::{AssemblyConfig, SoftwareAssembler, Traversal};
use pim_assembler_suite::genome::reads::ReadSimulator;
use pim_assembler_suite::genome::simulate::{GenomeSimulator, RepeatFamily};
use pim_assembler_suite::genome::stats::genome_fraction;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn repeats_fragment_assembly_but_kmers_survive() {
    let mut rng = ChaCha8Rng::seed_from_u64(80);
    let genome = GenomeSimulator::new(4000)
        .with_repeat(RepeatFamily { unit_len: 260, copies: 3 })
        .generate(&mut rng);
    let reads = ReadSimulator::new(80, 30.0).simulate(&genome, &mut rng);
    let mut pim = PimAssembler::new(PimAssemblerConfig::small_test(15).with_hash_subarrays(16));
    let run = pim.assemble(&reads).unwrap();
    // The repeat creates branches: Euler decomposition yields ≥ 2 trails or
    // one trail that spells a rearranged tour; either way the k-mer content
    // is preserved.
    let frac = genome_fraction(&genome, &run.assembly.contigs, 15);
    assert!(frac > 0.97, "k-mer recovery {frac}");
    // Unitig policy (software) fragments deterministically.
    let unitigs =
        SoftwareAssembler::new(AssemblyConfig::new(15).with_traversal(Traversal::Unitigs))
            .assemble(&reads);
    assert!(unitigs.contigs.len() > 1, "repeats must fragment unitigs");
}
