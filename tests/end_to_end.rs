//! Workspace-level integration: the PIM pipeline and the software
//! assembler must agree end-to-end, and the PIM pipeline must actually
//! reconstruct genomes.

use pim_assembler_suite::assembler::{PimAssembler, PimAssemblerConfig};
use pim_assembler_suite::genome::assemble::{AssemblyConfig, SoftwareAssembler};
use pim_assembler_suite::genome::reads::ReadSimulator;
use pim_assembler_suite::genome::sequence::DnaSequence;
use pim_assembler_suite::genome::stats::genome_fraction;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn dataset(
    seed: u64,
    len: usize,
    coverage: f64,
) -> (DnaSequence, Vec<pim_assembler_suite::genome::Read>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let genome = DnaSequence::random(&mut rng, len);
    let reads = ReadSimulator::new(70, coverage).simulate(&genome, &mut rng);
    (genome, reads)
}

#[test]
fn pim_and_software_agree_across_seeds_and_k() {
    for (seed, k) in [(1u64, 13usize), (2, 15), (3, 17), (4, 21)] {
        let (_, reads) = dataset(seed, 800, 25.0);
        let mut pim = PimAssembler::new(PimAssemblerConfig::small_test(k));
        let pim_run = pim.assemble(&reads).unwrap();
        let soft = SoftwareAssembler::new(AssemblyConfig::new(k)).assemble(&reads);
        assert_eq!(pim_run.assembly.distinct_kmers, soft.distinct_kmers, "seed {seed} k {k}");
        assert_eq!(pim_run.assembly.graph_nodes, soft.graph_nodes, "seed {seed} k {k}");
        assert_eq!(pim_run.assembly.graph_edges, soft.graph_edges, "seed {seed} k {k}");
        assert_eq!(
            pim_run.assembly.stats.total_length, soft.stats.total_length,
            "seed {seed} k {k}"
        );
        // Identical contig multisets (order may differ).
        let mut a: Vec<String> = pim_run.assembly.contigs.iter().map(|c| c.to_string()).collect();
        let mut b: Vec<String> = soft.contigs.iter().map(|c| c.to_string()).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b, "seed {seed} k {k}");
    }
}

#[test]
fn pim_pipeline_recovers_genomes() {
    for seed in [10u64, 11, 12] {
        let (genome, reads) = dataset(seed, 1200, 30.0);
        let mut pim = PimAssembler::new(PimAssemblerConfig::small_test(17));
        let run = pim.assemble(&reads).unwrap();
        let frac = genome_fraction(&genome, &run.assembly.contigs, 17);
        assert!(frac > 0.97, "seed {seed}: fraction {frac}");
        // Alignment-level validation: a single recovered contig must align
        // to the reference region it spells at ≈100 % identity.
        if run.assembly.contigs.len() == 1 {
            let contig = run.assembly.contigs[0].sequence();
            let g = genome.to_string();
            let c = contig.to_string();
            let start = g.find(&c[..60.min(c.len())]).expect("contig anchors in the genome");
            let window = genome.subsequence(start, contig.len().min(genome.len() - start));
            let id = pim_assembler_suite::genome::align::identity(contig, &window, 8)
                .expect("band wide enough");
            assert!(id > 0.999, "seed {seed}: contig identity {id}");
        }
    }
}

#[test]
fn error_reads_are_filtered_by_min_count() {
    let mut rng = ChaCha8Rng::seed_from_u64(20);
    let genome = DnaSequence::random(&mut rng, 1000);
    let reads = ReadSimulator::new(70, 35.0).with_error_rate(0.004).simulate(&genome, &mut rng);
    let unfiltered = {
        let mut pim = PimAssembler::new(PimAssemblerConfig::small_test(15).with_hash_subarrays(16));
        pim.assemble(&reads).unwrap()
    };
    let filtered = {
        let mut pim = PimAssembler::new(
            PimAssemblerConfig::small_test(15).with_min_count(3).with_hash_subarrays(16),
        );
        pim.assemble(&reads).unwrap()
    };
    assert!(filtered.assembly.graph_edges < unfiltered.assembly.graph_edges);
    let frac = genome_fraction(&genome, &filtered.assembly.contigs, 15);
    assert!(frac > 0.95, "fraction {frac}");
}

#[test]
fn perf_report_is_self_consistent() {
    let (_, reads) = dataset(30, 800, 20.0);
    let mut pim = PimAssembler::new(PimAssemblerConfig::small_test(15));
    let run = pim.assemble(&reads).unwrap();
    let r = &run.report;
    // Stage commands sum to the total.
    let mut sum = r.hashmap.commands;
    sum.merge(&r.debruijn.commands);
    sum.merge(&r.traverse.commands);
    assert_eq!(sum, r.commands);
    // Wall time is serial time over chains, inflated by the refresh tax.
    let refresh = pim_assembler_suite::dram::refresh::RefreshParams::ddr4();
    assert!(
        (r.total_wall_s()
            - refresh.inflate_seconds(sum.total_time_ps() as f64 * 1e-12 / r.parallel_chains))
        .abs()
            < 1e-12
    );
    // Measured workload matches the run.
    assert_eq!(r.workload.total_kmers, run.hash_stats.inserted_total);
    assert_eq!(r.workload.distinct_kmers, run.hash_stats.distinct);
}

#[test]
fn pd_sweep_trades_power_for_delay() {
    let (_, reads) = dataset(40, 600, 20.0);
    let mut results = Vec::new();
    for pd in [1usize, 2, 4] {
        let mut pim = PimAssembler::new(PimAssemblerConfig::small_test(15).with_pd(pd));
        let run = pim.assemble(&reads).unwrap();
        results.push((run.report.total_wall_s(), run.report.power_w));
    }
    assert!(results[0].0 > results[1].0, "pd 1 -> 2 must cut delay");
    assert!(results[0].1 < results[1].1 && results[1].1 < results[2].1, "power must rise with pd");
}
