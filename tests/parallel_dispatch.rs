//! Acceptance test for the parallel dispatch layer: executing the same
//! work through `ParallelDispatcher` with multiple host workers must be
//! *indistinguishable* from the serial reference — byte-identical contigs,
//! identical command counts, and identical cycle/energy totals — because
//! the simulated machine's semantics cannot depend on host scheduling.

use pim_assembler_suite::assembler::dispatch::ParallelDispatcher;
use pim_assembler_suite::assembler::{PimAssembler, PimAssemblerConfig, Result};
use pim_assembler_suite::dram::address::{RowAddr, SubarrayId};
use pim_assembler_suite::dram::bitrow::BitRow;
use pim_assembler_suite::dram::context::SubarrayContext;
use pim_assembler_suite::dram::controller::Controller;
use pim_assembler_suite::dram::geometry::DramGeometry;
use pim_assembler_suite::dram::sense_amp::SaMode;
use pim_assembler_suite::genome::reads::ReadSimulator;
use pim_assembler_suite::genome::sequence::DnaSequence;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Full pipeline, serial vs parallel: contigs and every stage's command
/// totals must match exactly for any worker count.
#[test]
fn pipeline_results_are_identical_for_any_worker_count() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let genome = DnaSequence::random(&mut rng, 1500);
    let reads = ReadSimulator::new(70, 22.0).simulate(&genome, &mut rng);

    let config = |workers: usize| {
        PimAssemblerConfig::small_test(15).with_hash_subarrays(8).with_workers(workers)
    };
    let reference = PimAssembler::new(config(1)).assemble(&reads).unwrap();
    assert!(
        !reference.assembly.contigs.is_empty(),
        "reference run must produce contigs for the comparison to mean anything"
    );

    for workers in [2usize, 4, 8] {
        let run = PimAssembler::new(config(workers)).assemble(&reads).unwrap();
        // Byte-identical contigs, in identical order.
        assert_eq!(
            reference.assembly.contigs, run.assembly.contigs,
            "workers={workers}: contigs diverged"
        );
        // Identical aggregate command / cycle / energy totals …
        assert_eq!(
            reference.report.commands, run.report.commands,
            "workers={workers}: totals diverged"
        );
        // … per stage, not just in aggregate.
        let stages = |r: &pim_assembler_suite::assembler::perf::PerfReport| {
            [r.hashmap.commands, r.debruijn.commands, r.traverse.commands]
        };
        assert_eq!(
            stages(&reference.report),
            stages(&run.report),
            "workers={workers}: per-stage totals diverged"
        );
        assert_eq!(
            reference.report.measured_parallelism, run.report.measured_parallelism,
            "workers={workers}: schedule-measured parallelism diverged"
        );
    }
}

/// 64 copy-copy-XNOR rounds on one sub-array's context, the way a stage
/// issues its kernels.
fn xnor_rounds(ctx: &mut SubarrayContext) -> Result<()> {
    let (x0, x1) = (ctx.compute_row(0), ctx.compute_row(1));
    for round in 0..64usize {
        ctx.aap_copy(RowAddr(round % 4), x0)?;
        ctx.aap_copy(RowAddr((round + 1) % 4), x1)?;
        ctx.aap2_discard(SaMode::Xnor, [x0, x1], RowAddr(8 + round % 4))?;
    }
    Ok(())
}

/// Direct dispatcher check over ≥ 4 disjoint sub-array partitions:
/// byte-identical array state and bit-identical cycle/energy totals.
#[test]
fn four_plus_partitions_execute_byte_identically() {
    const PARTITIONS: usize = 6;
    let g = DramGeometry::paper_assembly();
    let ids: Vec<SubarrayId> =
        (0..PARTITIONS).map(|i| SubarrayId::from_linear_index(&g, i)).collect();

    let seed = |ids: &[SubarrayId]| {
        let mut ctrl = Controller::new(g);
        for (n, &id) in ids.iter().enumerate() {
            ctrl.with_context(id, |ctx| {
                (0..4usize).try_for_each(|row| {
                    ctx.write_row(row, &BitRow::from_fn(g.cols, |i| (i * 7 + row + n) % 5 < 2))
                })
            })
            .unwrap();
        }
        ctrl
    };

    // One partition per sub-array, each running its copy-copy-XNOR rounds.
    assert!(ids.len() >= 4, "must exercise at least four partitions");
    let run = |dispatcher: &ParallelDispatcher, ctrl: &mut Controller| {
        let partitions: Vec<(SubarrayId, ())> = ids.iter().map(|&id| (id, ())).collect();
        dispatcher.run_partitions(ctrl, partitions, |ctx, ()| xnor_rounds(ctx)).unwrap();
    };

    let mut serial = seed(&ids);
    run(&ParallelDispatcher::serial(), &mut serial);

    for workers in [2usize, 4, 8] {
        let mut parallel = seed(&ids);
        run(&ParallelDispatcher::with_workers(workers), &mut parallel);
        assert_eq!(serial.ledger(), parallel.ledger(), "workers={workers}: command ledger");
        for &id in &ids {
            let (a, b) = (serial.context(id).unwrap(), parallel.context(id).unwrap());
            for row in 0..g.rows {
                assert_eq!(
                    a.peek_row(row).unwrap(),
                    b.peek_row(row).unwrap(),
                    "workers={workers}: row {row} of {id:?} diverged"
                );
            }
        }
    }
}
