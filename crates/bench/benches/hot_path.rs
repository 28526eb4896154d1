//! Criterion micro-benchmarks of the hot path: the discard-read AAP
//! variants and the compiled-template executor.
//!
//! These are *host-time* measurements of the simulator's steady-state inner
//! loop — the path `pim-asm bench` reports on — so the interesting numbers
//! are relative: the discard variants vs their sensed counterparts in
//! `bulk_ops`, and template execution vs the same three AAPs issued by
//! hand (`hot_op2_discard_xnor`).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use pim_assembler::template::{CompiledTemplate, Kernel, TemplateKey};
use pim_dram::address::RowAddr;
use pim_dram::bitrow::BitRow;
use pim_dram::controller::Controller;
use pim_dram::geometry::DramGeometry;
use pim_dram::sense_amp::SaMode;

fn setup() -> (Controller, pim_dram::SubarrayId) {
    let ctrl = Controller::new(DramGeometry::paper_assembly());
    let id = ctrl.subarray_handle(0, 0, 0, 0).unwrap();
    (ctrl, id)
}

/// Two-row activation with the sensed output discarded — the scratch-row
/// path every bulk executor takes.
fn bench_op2_discard(c: &mut Criterion) {
    let (mut ctrl, id) = setup();
    let cols = ctrl.geometry().cols;
    ctrl.write_row(id, 1, &BitRow::from_fn(cols, |i| i % 2 == 0)).unwrap();
    ctrl.write_row(id, 2, &BitRow::from_fn(cols, |i| i % 3 == 0)).unwrap();
    c.bench_function("hot_op2_discard_xnor", |b| {
        b.iter(|| {
            ctrl.aap_copy(id, 1, ctrl.compute_row(0)).unwrap();
            ctrl.aap_copy(id, 2, ctrl.compute_row(1)).unwrap();
            ctrl.aap2_discard(id, SaMode::Xnor, [ctrl.compute_row(0), ctrl.compute_row(1)], 5)
                .unwrap();
            black_box(&ctrl);
        })
    });
}

/// Triple-row activation with the carry discarded.
fn bench_op3_discard(c: &mut Criterion) {
    let (mut ctrl, id) = setup();
    let cols = ctrl.geometry().cols;
    for r in 1..=3usize {
        ctrl.write_row(id, r, &BitRow::from_fn(cols, |i| (i + r) % 3 == 0)).unwrap();
    }
    c.bench_function("hot_op3_discard_carry", |b| {
        b.iter(|| {
            ctrl.aap_copy(id, 1, ctrl.compute_row(0)).unwrap();
            ctrl.aap_copy(id, 2, ctrl.compute_row(1)).unwrap();
            ctrl.aap_copy(id, 3, ctrl.compute_row(2)).unwrap();
            ctrl.aap3_carry_discard(
                id,
                [ctrl.compute_row(0), ctrl.compute_row(1), ctrl.compute_row(2)],
                9,
            )
            .unwrap();
            black_box(&ctrl);
        })
    });
}

/// The compiled XNOR template executing the same three AAPs as
/// `hot_op2_discard_xnor` through its bound role table.
fn bench_template_exec(c: &mut Criterion) {
    let (mut ctrl, id) = setup();
    let cols = ctrl.geometry().cols;
    ctrl.write_row(id, 1, &BitRow::from_fn(cols, |i| i % 2 == 0)).unwrap();
    ctrl.write_row(id, 2, &BitRow::from_fn(cols, |i| i % 3 == 0)).unwrap();
    let template = CompiledTemplate::compile(TemplateKey::new(Kernel::Xnor, cols, cols));
    let rows = [RowAddr(1), RowAddr(2), RowAddr(5), ctrl.compute_row(0), ctrl.compute_row(1)];
    c.bench_function("hot_template_exec_xnor", |b| {
        b.iter(|| {
            template.execute(&mut ctrl, id, black_box(&rows)).unwrap();
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_op2_discard, bench_op3_discard, bench_template_exec
}
criterion_main!(benches);
