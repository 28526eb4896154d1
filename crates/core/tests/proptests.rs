//! Property-based tests for the PIM-Assembler core: the in-memory
//! machinery must agree with software semantics on arbitrary inputs.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use pim_assembler::dispatch::ParallelDispatcher;
use pim_assembler::hashmap_stage::PimHashTable;
use pim_assembler::ir::BackendKind;
use pim_assembler::mapping::KmerMapper;
use pim_assembler::pim_add::{PimAdder, ScratchSpace};
use pim_dram::address::RowAddr;
use pim_dram::bitrow::BitRow;
use pim_dram::controller::Controller;
use pim_dram::geometry::DramGeometry;
use pim_genome::base::DnaBase;
use pim_genome::hash_table::KmerCounter;
use pim_genome::kmer::KmerIter;
use pim_genome::sequence::DnaSequence;

fn dna(min: usize, max: usize) -> impl Strategy<Value = DnaSequence> {
    proptest::collection::vec(0u8..4, min..=max)
        .prop_map(|codes| codes.into_iter().map(DnaBase::from_code).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pim_table_counts_match_software(seq in dna(30, 200), k in 5usize..=13) {
        let g = DramGeometry::paper_assembly();
        let mut ctrl = Controller::new(g);
        let mut table = PimHashTable::new(KmerMapper::new(&g, 4, 8));
        let mut soft = KmerCounter::new(k).unwrap();
        let kmers: Vec<_> = KmerIter::new(&seq, k).unwrap().collect();
        for &kmer in &kmers {
            soft.insert(kmer);
        }
        let serial = ParallelDispatcher::serial();
        table.insert(&mut ctrl, &serial, &kmers).unwrap();
        let scanned = table.scan(&mut ctrl, &serial).unwrap();
        prop_assert_eq!(scanned.len(), soft.distinct());
        for (kmer, count) in scanned {
            prop_assert_eq!(count, soft.count(&kmer));
        }
    }

    #[test]
    fn column_sum_matches_software_sums(n_rows in 1usize..14, seed in 0u64..500) {
        let g = DramGeometry::paper_assembly();
        let mut ctrl = Controller::new(g);
        let mut ctx = ctrl.detach_context(ctrl.subarray_handle(0, 0, 0, 0).unwrap()).unwrap();
        let cols = g.cols;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut expected = vec![0u64; cols];
        let mut rows = Vec::new();
        for r in 0..n_rows {
            let bits = BitRow::from_fn(cols, |_| rand::Rng::gen_bool(&mut rng, 0.5));
            for (j, e) in expected.iter_mut().enumerate() {
                *e += bits.get(j) as u64;
            }
            ctx.write_row(r, &bits).unwrap();
            rows.push(RowAddr(r));
        }
        ctx.write_row(40, &BitRow::zeros(cols)).unwrap();
        let mut scratch = ScratchSpace::new(50, 500);
        let planes = PimAdder::column_sum(&mut ctx, BackendKind::PimAssembler, &rows, RowAddr(40), &mut scratch).unwrap();
        prop_assert_eq!(PimAdder::decode_columns(&planes), expected);
    }

    #[test]
    fn full_add_is_exact_for_all_row_patterns(pa in 0u64..1024, pb in 0u64..1024, pc in 0u64..1024) {
        let g = DramGeometry::paper_assembly();
        let mut ctrl = Controller::new(g);
        let mut ctx = ctrl.detach_context(ctrl.subarray_handle(0, 0, 0, 0).unwrap()).unwrap();
        let cols = g.cols;
        let a = BitRow::from_fn(cols, |i| (pa >> (i % 10)) & 1 == 1);
        let b = BitRow::from_fn(cols, |i| (pb >> (i % 10)) & 1 == 1);
        let c = BitRow::from_fn(cols, |i| (pc >> (i % 10)) & 1 == 1);
        ctx.write_row(1, &a).unwrap();
        ctx.write_row(2, &b).unwrap();
        ctx.write_row(3, &c).unwrap();
        ctx.write_row(4, &BitRow::zeros(cols)).unwrap();
        PimAdder::full_add(&mut ctx, BackendKind::PimAssembler, RowAddr(1), RowAddr(2), RowAddr(3), RowAddr(4), RowAddr(10), RowAddr(11))
            .unwrap();
        prop_assert_eq!(ctx.peek_row(10).unwrap(), a.xor(&b).xor(&c));
        prop_assert_eq!(ctx.peek_row(11).unwrap(), BitRow::maj3(&a, &b, &c));
    }

    #[test]
    fn mapper_homes_are_stable_and_in_range(seq in dna(16, 16)) {
        let g = DramGeometry::paper_assembly();
        let mapper = KmerMapper::new(&g, 8, 8);
        let kmer = pim_genome::Kmer::from_sequence(&seq, 0, 16).unwrap();
        let h1 = mapper.home(&kmer);
        let h2 = mapper.home(&kmer);
        prop_assert_eq!(h1, h2);
        prop_assert!(h1.0 < 8);
        prop_assert!(h1.1 < mapper.layout().kmer_rows());
        // Row images decode back to the k-mer bits.
        let img = mapper.row_image(&kmer, g.cols);
        prop_assert_eq!(img.extract(0, 32).to_u64(), kmer.packed());
    }

    // ── Parallel dispatch equivalence on randomized streams ────────────

    #[test]
    fn parallel_dispatch_is_byte_identical_on_random_streams(
        ops in proptest::collection::vec(0usize..96, 1..100),
    ) {
        let g = DramGeometry::tiny();
        let ids: Vec<pim_dram::SubarrayId> =
            (0..8).map(|i| pim_dram::SubarrayId::from_linear_index(&g, i)).collect();

        let mut serial = seeded(&g, &ids);
        dispatch_rounds(&ParallelDispatcher::serial(), &mut serial, &ids, &ops);

        // The persistent worker pool must be byte-identical to the serial
        // path for every pool size: degenerate (1), small (2), and more
        // workers than partitions (8).
        for workers in [1usize, 2, 8] {
            let mut parallel = seeded(&g, &ids);
            dispatch_rounds(&ParallelDispatcher::with_workers(workers), &mut parallel, &ids, &ops);

            // Cycle/energy totals are identical …
            prop_assert_eq!(serial.ledger(), parallel.ledger(), "ledger, workers={}", workers);
            // … and every row of every sub-array is byte-identical.
            for &id in &ids {
                let (a, b) = (serial.context(id).unwrap(), parallel.context(id).unwrap());
                for row in 0..g.rows {
                    prop_assert_eq!(
                        a.peek_row(row).unwrap(),
                        b.peek_row(row).unwrap(),
                        "workers={}", workers
                    );
                }
            }
        }
    }

    #[test]
    fn dispatched_stream_matches_one_checkout_per_round(
        ops in proptest::collection::vec(0usize..96, 1..60),
    ) {
        let g = DramGeometry::tiny();
        let ids: Vec<pim_dram::SubarrayId> =
            (0..8).map(|i| pim_dram::SubarrayId::from_linear_index(&g, i)).collect();

        let mut direct = seeded(&g, &ids);
        let mut dispatched = seeded(&g, &ids);
        for &op in &ops {
            direct.with_context(ids[op % 8], |ctx| issue_round(ctx, op)).unwrap();
        }
        dispatch_rounds(&ParallelDispatcher::with_workers(3), &mut dispatched, &ids, &ops);
        prop_assert_eq!(direct.ledger(), dispatched.ledger());
        for &id in &ids {
            prop_assert_eq!(direct.subarray_ledger(id), dispatched.subarray_ledger(id));
        }
    }
}

use pim_dram::context::SubarrayContext;
use pim_dram::sense_amp::SaMode;

/// Issues op code `op`'s copy-copy-logic round on `ctx`. Each op in
/// `0..96` decodes to a `(sub-array, source salt, logic mode)` triple; the
/// sub-array part (`op % 8`) picks the context, which the caller checks
/// out.
fn issue_round(ctx: &mut SubarrayContext, op: usize) -> pim_assembler::Result<()> {
    let (salt, mode) = ((op / 8) % 4, op / 32);
    let mode = [SaMode::Xnor, SaMode::Nand, SaMode::Nor][mode];
    let (x0, x1) = (ctx.compute_row(0), ctx.compute_row(1));
    ctx.aap_copy(RowAddr(salt), x0)?;
    ctx.aap_copy(RowAddr((salt + 1) % 4), x1)?;
    ctx.aap2_discard(mode, [x0, x1], RowAddr(8 + salt))?;
    Ok(())
}

/// Groups the generated rounds by sub-array (in order of first
/// appearance, each sub-array keeping its rounds' order) and runs every
/// group as one dispatcher partition.
fn dispatch_rounds(
    dispatcher: &ParallelDispatcher,
    ctrl: &mut Controller,
    ids: &[pim_dram::SubarrayId],
    ops: &[usize],
) {
    let mut partitions: Vec<(pim_dram::SubarrayId, Vec<usize>)> = Vec::new();
    for &op in ops {
        let id = ids[op % 8];
        match partitions.iter_mut().find(|(p, _)| *p == id) {
            Some((_, rounds)) => rounds.push(op),
            None => partitions.push((id, vec![op])),
        }
    }
    dispatcher
        .run_partitions(ctrl, partitions, |ctx, rounds| {
            rounds.into_iter().try_for_each(|op| issue_round(ctx, op))
        })
        .unwrap();
}

fn seeded(g: &DramGeometry, ids: &[pim_dram::SubarrayId]) -> Controller {
    let mut ctrl = Controller::new(*g);
    for (n, &id) in ids.iter().enumerate() {
        ctrl.with_context(id, |ctx| {
            (0..4usize).try_for_each(|row| {
                ctx.write_row(row, &BitRow::from_fn(g.cols, |i| (i + row + n) % 3 == 0))
            })
        })
        .unwrap();
    }
    ctrl
}
