//! Quickstart: assemble a small synthetic genome on the PIM-Assembler
//! platform and inspect the result.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use pim_assembler_suite::assembler::{PimAssembler, PimAssemblerConfig};
use pim_assembler_suite::genome::reads::ReadSimulator;
use pim_assembler_suite::genome::sequence::DnaSequence;
use pim_assembler_suite::genome::stats::genome_fraction;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A 5 kbp random reference, sequenced into 101 bp reads at 20x.
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let genome = DnaSequence::random(&mut rng, 5_000);
    let reads = ReadSimulator::new(101, 20.0).simulate(&genome, &mut rng);
    println!("reference: {} bp, {} reads x 101 bp", genome.len(), reads.len());

    // 2. Assemble on the PIM platform (k = 17, the paper's Pd = 2 optimum).
    let mut assembler = PimAssembler::new(PimAssemblerConfig::paper(17).with_hash_subarrays(16));
    let run = assembler.assemble(&reads)?;

    // 3. Results: contigs and how much of the genome they recover.
    println!("\nassembly: {}", run.assembly.stats);
    println!(
        "genome fraction recovered: {:.1}%",
        100.0 * genome_fraction(&genome, &run.assembly.contigs, 17)
    );

    // 4. What the hardware actually did.
    let r = &run.report;
    println!("\ncommands: {}", r.commands);
    println!(
        "stage wall-clock: hashmap {:.2} ms | deBruijn {:.2} ms | traverse {:.2} ms (Pd = {}, {} chains)",
        r.hashmap.wall_s * 1e3,
        r.debruijn.wall_s * 1e3,
        r.traverse.wall_s * 1e3,
        r.pd,
        r.parallel_chains
    );
    println!(
        "power {:.1} W | energy {:.3} mJ | MBR {:.1}% | RUR {:.1}%",
        r.power_w,
        r.commands.total_energy_fj() as f64 * 1e-12,
        r.mbr_percent,
        r.rur_percent
    );
    Ok(())
}
