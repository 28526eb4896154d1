//! Criterion micro-benchmarks of the functional in-DRAM primitives, plus
//! the single-cycle-XNOR vs Ambit-emulated-XNOR ablation.
//!
//! Host time here measures the *simulator*; the simulated cycle counts that
//! the paper compares are printed by `fig3b_throughput`. The ablation shows
//! both: PIM-Assembler's XNOR issues 3 commands where the Ambit emulation
//! issues 7, and host time tracks the command count.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use pim_dram::bitrow::BitRow;
use pim_dram::context::SubarrayContext;
use pim_dram::controller::Controller;
use pim_dram::geometry::DramGeometry;
use pim_dram::sense_amp::SaMode;

/// A context of the first sub-array, checked out for the whole bench.
fn setup() -> SubarrayContext {
    let mut ctrl = Controller::new(DramGeometry::paper_assembly());
    let id = ctrl.subarray_handle(0, 0, 0, 0).unwrap();
    ctrl.detach_context(id).unwrap()
}

fn bench_pa_xnor(c: &mut Criterion) {
    let mut ctx = setup();
    let cols = ctx.geometry().cols;
    ctx.write_row(1, &BitRow::from_fn(cols, |i| i % 2 == 0)).unwrap();
    ctx.write_row(2, &BitRow::from_fn(cols, |i| i % 3 == 0)).unwrap();
    c.bench_function("pa_xnor_row_3_commands", |b| {
        b.iter(|| {
            ctx.aap_copy(1, ctx.compute_row(0)).unwrap();
            ctx.aap_copy(2, ctx.compute_row(1)).unwrap();
            black_box(ctx.aap2_xnor([ctx.compute_row(0), ctx.compute_row(1)], 5).unwrap());
        })
    });
}

/// Ambit has no native X(N)OR: it composes it from TRA AND/OR plus DCC NOT
/// passes — 7 command slots on the same array (§I). Emulated here with the
/// equivalent command count on the same sub-array.
fn bench_ambit_emulated_xnor(c: &mut Criterion) {
    let mut ctx = setup();
    let cols = ctx.geometry().cols;
    ctx.write_row(1, &BitRow::from_fn(cols, |i| i % 2 == 0)).unwrap();
    ctx.write_row(2, &BitRow::from_fn(cols, |i| i % 3 == 0)).unwrap();
    ctx.write_row(3, &BitRow::ones(cols)).unwrap(); // control row C1
    ctx.write_row(4, &BitRow::zeros(cols)).unwrap(); // control row C0
    c.bench_function("ambit_emulated_xnor_row_7_commands", |b| {
        b.iter(|| {
            let (x1, x2, x3) = (ctx.compute_row(0), ctx.compute_row(1), ctx.compute_row(2));
            // NOT a (DCC emulation: copy + two-row NAND with the ones row).
            ctx.aap_copy(1, x1).unwrap();
            ctx.aap_copy(3, x2).unwrap();
            ctx.aap2(SaMode::Nand, [x1, x2], 10).unwrap(); // !a
                                                           // a AND b via TRA with C0.
            ctx.aap_copy(1, x1).unwrap();
            ctx.aap_copy(2, x2).unwrap();
            ctx.aap_copy(4, x3).unwrap();
            black_box(ctx.aap3_carry([x1, x2, x3], 11).unwrap());
        })
    });
}

fn bench_tra_carry(c: &mut Criterion) {
    let mut ctx = setup();
    let cols = ctx.geometry().cols;
    for r in 1..=3usize {
        ctx.write_row(r, &BitRow::from_fn(cols, |i| (i + r) % 3 == 0)).unwrap();
    }
    c.bench_function("tra_carry_row", |b| {
        b.iter(|| {
            ctx.aap_copy(1, ctx.compute_row(0)).unwrap();
            ctx.aap_copy(2, ctx.compute_row(1)).unwrap();
            ctx.aap_copy(3, ctx.compute_row(2)).unwrap();
            black_box(
                ctx.aap3_carry([ctx.compute_row(0), ctx.compute_row(1), ctx.compute_row(2)], 9)
                    .unwrap(),
            );
        })
    });
}

fn bench_row_clone(c: &mut Criterion) {
    let mut ctx = setup();
    let cols = ctx.geometry().cols;
    ctx.write_row(1, &BitRow::ones(cols)).unwrap();
    c.bench_function("row_clone", |b| b.iter(|| ctx.aap_copy(black_box(1), black_box(2)).unwrap()));
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_pa_xnor, bench_ambit_emulated_xnor, bench_tra_carry, bench_row_clone
}
criterion_main!(benches);
