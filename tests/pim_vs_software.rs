//! Cross-crate equivalence: every PIM primitive must agree with its
//! software counterpart when driven through the full stack.

use pim_assembler_suite::assembler::dispatch::ParallelDispatcher;
use pim_assembler_suite::assembler::hashmap_stage::PimHashTable;
use pim_assembler_suite::assembler::ir::{BackendKind, OptLevel};
use pim_assembler_suite::assembler::mapping::KmerMapper;
use pim_assembler_suite::assembler::pim_add::{PimAdder, ScratchSpace};
use pim_assembler_suite::assembler::traverse_stage::TraverseStage;
use pim_assembler_suite::dram::bitrow::BitRow;
use pim_assembler_suite::dram::controller::Controller;
use pim_assembler_suite::dram::geometry::DramGeometry;
use pim_assembler_suite::dram::RowAddr;
use pim_assembler_suite::genome::debruijn::DeBruijnGraph;
use pim_assembler_suite::genome::hash_table::KmerCounter;
use pim_assembler_suite::genome::kmer::{Kmer, KmerIter};
use pim_assembler_suite::genome::sequence::DnaSequence;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn pim_hash_table_equals_software_counter_many_seeds() {
    for seed in 0..5u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let seq = DnaSequence::random(&mut rng, 300 + (seed as usize) * 100);
        let k = 9 + (seed as usize % 3) * 2;
        let g = DramGeometry::paper_assembly();
        let mut ctrl = Controller::new(g);
        let mut table = PimHashTable::new(KmerMapper::new(&g, 4, 8));
        let mut soft = KmerCounter::new(k).unwrap();
        let kmers: Vec<Kmer> = KmerIter::new(&seq, k).unwrap().collect();
        for &kmer in &kmers {
            soft.insert(kmer);
        }
        let serial = ParallelDispatcher::serial();
        table.insert(&mut ctrl, &serial, &kmers).unwrap();
        let scanned = table.scan(&mut ctrl, &serial).unwrap();
        assert_eq!(scanned.len(), soft.distinct(), "seed {seed}");
        for (kmer, count) in scanned {
            assert_eq!(count, soft.count(&kmer), "seed {seed} kmer {kmer}");
        }
    }
}

#[test]
fn pim_column_sum_equals_integer_addition() {
    let g = DramGeometry::paper_assembly();
    let mut ctrl = Controller::new(g);
    let id = ctrl.subarray_handle(0, 0, 0, 0).unwrap();
    let cols = g.cols;
    let mut rng = ChaCha8Rng::seed_from_u64(55);
    for trial in 0..5 {
        let n = 2 + trial * 3;
        let mut expected = vec![0u64; cols];
        let addends: Vec<BitRow> =
            (0..n).map(|_| BitRow::from_fn(cols, |_| rng.gen_bool(0.4))).collect();
        for bits in &addends {
            for (j, e) in expected.iter_mut().enumerate() {
                *e += bits.get(j) as u64;
            }
        }
        let rows: Vec<RowAddr> = (0..n).map(RowAddr).collect();
        let planes = ctrl
            .with_context(id, |ctx| {
                for (&row, bits) in rows.iter().zip(&addends) {
                    ctx.write_row(row, bits)?;
                }
                ctx.write_row(50, &BitRow::zeros(cols))?;
                let mut scratch = ScratchSpace::new(100, 400);
                PimAdder::column_sum(
                    ctx,
                    BackendKind::PimAssembler,
                    OptLevel::O0,
                    &rows,
                    RowAddr(50),
                    &mut scratch,
                )
            })
            .unwrap();
        assert_eq!(PimAdder::decode_columns(&planes), expected, "trial {trial}");
    }
}

#[test]
fn pim_degree_accumulation_equals_graph_degrees() {
    for seed in [7u64, 8, 9] {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let seq = DnaSequence::random(&mut rng, 120);
        let mut c = KmerCounter::new(5).unwrap();
        c.count_sequence(&seq).unwrap();
        let graph = DeBruijnGraph::from_counter(&c, 1);
        let g = DramGeometry::paper_assembly();
        let mut ctrl = Controller::new(g);
        let work =
            [ctrl.subarray_handle(0, 1, 0, 0).unwrap(), ctrl.subarray_handle(0, 1, 0, 1).unwrap()];
        let (out, inc, dense) = TraverseStage::degrees(
            &mut ctrl,
            &ParallelDispatcher::serial(),
            &graph,
            work,
            BackendKind::PimAssembler,
            OptLevel::O0,
        )
        .unwrap();
        assert!(dense, "seed {seed}: graph should fit the dense mapping");
        for v in 0..graph.node_count() {
            assert_eq!(out[v], graph.out_degree(v) as u64, "seed {seed} out {v}");
            assert_eq!(inc[v], graph.in_degree(v) as u64, "seed {seed} in {v}");
        }
    }
}

#[test]
fn correlated_mapping_beats_naive_probes() {
    // The mapping ablation (DESIGN.md §5): bucketed correlated mapping vs a
    // single giant bucket.
    let mut rng = ChaCha8Rng::seed_from_u64(66);
    let seq = DnaSequence::random(&mut rng, 1200);
    let g = DramGeometry::paper_assembly();
    let probes_with = |bucket_rows: usize| {
        let mut ctrl = Controller::new(g);
        let mut table = PimHashTable::new(KmerMapper::new(&g, 4, bucket_rows));
        let kmers: Vec<Kmer> = KmerIter::new(&seq, 13).unwrap().collect();
        table.insert(&mut ctrl, &ParallelDispatcher::serial(), &kmers).unwrap();
        table.stats().probes
    };
    let bucketed = probes_with(8);
    let naive = probes_with(976);
    assert!(
        naive > bucketed * 10,
        "naive scan should be far costlier: bucketed {bucketed}, naive {naive}"
    );
}
