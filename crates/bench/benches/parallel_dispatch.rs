//! Wall-clock of the parallel dispatcher vs the serial reference on a
//! multi-sub-array AAP workload.
//!
//! Each of the 8 partitions carries the same per-sub-array program volume,
//! so the ideal speedup at `workers = 8` is the host's core count (capped
//! at 8). The acceptance bar — ≥ 2× over serial at 8 partitions — is only
//! reachable on a multi-core host; `dispatch_host_parallelism` prints what
//! this machine offers. Correctness (byte-identical state and totals for
//! any worker count) is asserted by the test suites, and spot-checked here
//! before timing starts.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use pim_assembler::dispatch::ParallelDispatcher;
use pim_dram::address::{RowAddr, SubarrayId};
use pim_dram::bitrow::BitRow;
use pim_dram::controller::Controller;
use pim_dram::geometry::DramGeometry;
use pim_dram::port::AapPort;
use pim_dram::sense_amp::SaMode;

const PARTITIONS: usize = 8;
const PROGRAMS_PER_PARTITION: usize = 256;

fn seeded_controller(g: DramGeometry, ids: &[SubarrayId]) -> Controller {
    let mut ctrl = Controller::new(g);
    let cols = g.cols;
    for (n, &id) in ids.iter().enumerate() {
        for row in 0..4usize {
            let data = BitRow::from_fn(cols, |i| (i + row + n) % 3 == 0);
            ctrl.write_row(id, row, &data).unwrap();
        }
    }
    ctrl
}

/// `PROGRAMS_PER_PARTITION` copy-copy-XNOR programs on sub-array `id`:
/// one partition's share of the workload.
fn programs(port: &mut impl AapPort, id: SubarrayId) -> pim_assembler::Result<()> {
    let (x0, x1) = (port.compute_row(0), port.compute_row(1));
    for round in 0..PROGRAMS_PER_PARTITION {
        port.aap_copy(id, RowAddr(round % 4), x0)?;
        port.aap_copy(id, RowAddr((round + 1) % 4), x1)?;
        port.aap2_discard(id, SaMode::Xnor, [x0, x1], RowAddr(8 + round % 4))?;
    }
    Ok(())
}

/// Runs the workload as one partition per sub-array.
fn dispatch(dispatcher: &ParallelDispatcher, ctrl: &mut Controller, ids: &[SubarrayId]) {
    let partitions: Vec<(SubarrayId, ())> = ids.iter().map(|&id| (id, ())).collect();
    dispatcher.run_partitions(ctrl, partitions, |ctx, ()| programs(ctx, ctx.id())).unwrap();
}

fn bench_dispatch(c: &mut Criterion) {
    let g = DramGeometry::paper_assembly();
    let ids: Vec<SubarrayId> =
        (0..PARTITIONS).map(|i| SubarrayId::from_linear_index(&g, i)).collect();

    // Spot-check the equivalence contract before timing anything.
    let mut a = seeded_controller(g, &ids);
    let mut b = seeded_controller(g, &ids);
    dispatch(&ParallelDispatcher::serial(), &mut a, &ids);
    dispatch(&ParallelDispatcher::with_workers(PARTITIONS), &mut b, &ids);
    assert_eq!(*a.stats(), *b.stats(), "parallel != serial totals");

    let host = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    c.bench_function("dispatch_host_parallelism", |bch| bch.iter(|| black_box(host)));

    let cases: Vec<(String, ParallelDispatcher)> = [1usize, 2, 4, 8]
        .into_iter()
        .map(|w| {
            let label = if w == 1 { "serial".to_string() } else { format!("workers_{w}") };
            (label, ParallelDispatcher::with_workers(w))
        })
        .collect();
    for (label, dispatcher) in cases {
        let mut ctrl = seeded_controller(g, &ids);
        c.bench_function(&format!("dispatch_8x256_{label}"), |bch| {
            bch.iter(|| dispatch(&dispatcher, &mut ctrl, black_box(&ids)))
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_dispatch
}
criterion_main!(benches);
