//! Mapping-kernel suite: the popcount / min-select / DP-cell kernels
//! compiled on every backend × geometry against per-column
//! truth-table oracles, plus the allocator-soundness and spill
//! state-identity properties for the deeper DP programs.
#![recursion_limit = "256"]

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use pim_assembler::ir::{self, compile, kernels, LowerOptions, PimProgram, RowClass};
use pim_assembler::template::{CompiledTemplate, Kernel, TemplateKey};
use pim_dram::address::RowAddr;
use pim_dram::bitrow::BitRow;
use pim_dram::context::SubarrayContext;
use pim_dram::controller::Controller;
use pim_dram::geometry::DramGeometry;

/// Generous upper bound on any mapping kernel's role table (popcount on
/// the Ambit rewrite is the largest at 16 + 5 spill roles).
const MAX_ROLES: usize = 64;

/// A controller whose activation semantics match the backend (PANDA MRAM
/// senses nondestructively); mirrors `ir_suite.rs`.
/// A context of `ctrl`'s first sub-array.
fn context(mut ctrl: Controller) -> SubarrayContext {
    let id = ctrl.subarray_handle(0, 0, 0, 0).unwrap();
    ctrl.detach_context(id).unwrap()
}

fn backend_controller(backend: ir::BackendKind, g: DramGeometry) -> Controller {
    match backend {
        ir::BackendKind::PandaMram => {
            Controller::with_profile(g, &pim_dram::profile::BackendProfile::panda_mram())
        }
        _ => Controller::new(g),
    }
}

fn rand_row(cols: usize, rng: &mut ChaCha8Rng) -> BitRow {
    BitRow::from_fn(cols, |_| rand::Rng::gen_bool(rng, 0.5))
}

/// Compiles `kernel` for the shape, executes it on a fresh controller
/// with the given input rows (binding spill roles to dedicated data rows
/// where the lowering demands them), and returns the output rows.
fn run_kernel(
    backend: ir::BackendKind,
    g: DramGeometry,
    cols: usize,
    kernel: Kernel,
    inputs: &[BitRow],
    n_outputs: usize,
) -> Vec<BitRow> {
    let t = CompiledTemplate::compile(TemplateKey::new(kernel, cols, cols).with_backend(backend));
    let mut ctx = context(backend_controller(backend, g));
    let mut input_addrs = Vec::new();
    for (i, row) in inputs.iter().enumerate() {
        let addr = RowAddr(1 + i);
        ctx.write_row(addr, row).unwrap();
        input_addrs.push(addr);
    }
    let zero = RowAddr(1 + inputs.len());
    ctx.write_row(zero, &BitRow::zeros(cols)).unwrap();
    let outs: Vec<RowAddr> = (0..n_outputs).map(|i| RowAddr(2 + inputs.len() + i)).collect();
    let spills: Vec<RowAddr> =
        (0..t.spill_role_count()).map(|i| RowAddr(2 + inputs.len() + n_outputs + i)).collect();
    let mut rows = [RowAddr(0); MAX_ROLES];
    let n =
        t.bind_roles_into(ctx.geometry(), &input_addrs, &outs, zero, &spills, &mut rows).unwrap();
    t.execute(&mut ctx, &rows[..n]).unwrap();
    outs.iter().map(|&o| ctx.peek_row(o).unwrap()).collect()
}

fn geometries() -> [(usize, DramGeometry); 2] {
    [(64, DramGeometry::tiny()), (256, DramGeometry::paper_assembly())]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Popcount: per column, `ones + 2·twos + 4·fours` equals the number
    // of set bits across the seven input planes — on every backend, at
    // both geometries.
    #[test]
    fn popcount_matches_the_column_count_oracle(seed in 0u64..1000) {
        for (cols, g) in geometries() {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let planes: Vec<BitRow> = (0..7).map(|_| rand_row(cols, &mut rng)).collect();
            for backend in ir::BackendKind::ALL {
                let outs = run_kernel(backend, g, cols, Kernel::Popcount, &planes, 3);
                for j in 0..cols {
                    let count = planes.iter().filter(|p| p.get(j)).count();
                    let got = usize::from(outs[0].get(j))
                        + 2 * usize::from(outs[1].get(j))
                        + 4 * usize::from(outs[2].get(j));
                    prop_assert_eq!(got, count, "{} cols={} col {}: popcount", backend, cols, j);
                }
            }
        }
    }

    // Min-select: `dst = (a & m) | (b & ~m)` per column everywhere.
    #[test]
    fn min_select_matches_the_mux_oracle(seed in 0u64..1000) {
        for (cols, g) in geometries() {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let a = rand_row(cols, &mut rng);
            let b = rand_row(cols, &mut rng);
            let m = rand_row(cols, &mut rng);
            let inputs = [a.clone(), b.clone(), m.clone()];
            for backend in ir::BackendKind::ALL {
                let outs = run_kernel(backend, g, cols, Kernel::MinSelect, &inputs, 1);
                let want = BitRow::from_fn(cols, |j| {
                    if m.get(j) { a.get(j) } else { b.get(j) }
                });
                prop_assert_eq!(&outs[0], &want, "{} cols={}: min-select", backend, cols);
            }
        }
    }

    // DP-cell: one LSB-first borrow step of `a − b`,
    // `bout = maj(~a, b, bin)` per column.
    #[test]
    fn dp_cell_matches_the_borrow_step_oracle(seed in 0u64..1000) {
        for (cols, g) in geometries() {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let a = rand_row(cols, &mut rng);
            let b = rand_row(cols, &mut rng);
            let bin = rand_row(cols, &mut rng);
            let inputs = [a.clone(), b.clone(), bin.clone()];
            for backend in ir::BackendKind::ALL {
                let outs = run_kernel(backend, g, cols, Kernel::DpCell, &inputs, 1);
                let want = BitRow::from_fn(cols, |j| {
                    let votes = [!a.get(j), b.get(j), bin.get(j)];
                    votes.iter().filter(|&&v| v).count() >= 2
                });
                prop_assert_eq!(&outs[0], &want, "{} cols={}: dp-cell borrow", backend, cols);
            }
        }
    }
}

/// Composition check: chaining W bit-sliced planes LSB-first through the
/// DP-cell kernel, from a zero borrow, leaves the borrow out of `A − B`,
/// i.e. `[A < B]` per column, and min-select on that mask then
/// materialises `min(A, B)` plane by plane — the protocol the mapping
/// stage's DP refinement runs.
#[test]
fn bit_serial_min_scan_selects_the_column_minimum_on_every_backend() {
    const W: usize = 4;
    for (cols, g) in geometries() {
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        // A/B values per column, bit-sliced into W planes (plane w = bit w).
        let mut values = || -> Vec<u64> {
            (0..cols).map(|_| rand::Rng::gen_range(&mut rng, 0..16u64)).collect()
        };
        let (a_vals, b_vals) = (values(), values());
        let plane = |vals: &[u64], w: usize| BitRow::from_fn(cols, |j| (vals[j] >> w) & 1 == 1);

        for backend in ir::BackendKind::ALL {
            let at = format!("{backend} cols={cols}");
            let mut borrow = BitRow::zeros(cols);
            for w in 0..W {
                let inputs = [plane(&a_vals, w), plane(&b_vals, w), borrow];
                let outs = run_kernel(backend, g, cols, Kernel::DpCell, &inputs, 1);
                borrow = outs[0].clone();
            }
            for j in 0..cols {
                assert_eq!(borrow.get(j), a_vals[j] < b_vals[j], "{at} col {j}: borrow out");
            }
            for w in 0..W {
                let inputs = [plane(&a_vals, w), plane(&b_vals, w), borrow.clone()];
                let outs = run_kernel(backend, g, cols, Kernel::MinSelect, &inputs, 1);
                for j in 0..cols {
                    let want = (a_vals[j].min(b_vals[j]) >> w) & 1 == 1;
                    assert_eq!(outs[0].get(j), want, "{at} col {j} bit {w}: min");
                }
            }
        }
    }
}

/// Compiles `program` for `slots` compute slots and executes it with
/// deterministic random inputs, returning every fixed role row's final
/// contents (mirrors `ir_suite.rs::execute_for_state`).
fn execute_for_state(program: &PimProgram, slots: usize, seed: u64) -> Vec<BitRow> {
    let g = DramGeometry::paper_assembly();
    let options = LowerOptions { row_bits: g.cols, size: g.cols, compute_slots: slots };
    let kernel = compile(program, &options).expect("mapping kernels are legal");
    let mut ctx = context(Controller::new(g));

    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut rows = Vec::new();
    let mut fixed = Vec::new();
    let (mut next_data, mut next_slot, mut next_spill) = (1usize, 0usize, 0usize);
    for role in kernel.roles() {
        match role.class {
            RowClass::Temp => {
                rows.push(ctx.compute_row(next_slot));
                next_slot += 1;
            }
            RowClass::Spill => {
                rows.push(RowAddr(500 + next_spill));
                next_spill += 1;
            }
            _ => {
                let addr = RowAddr(next_data);
                next_data += 1;
                if role.class == RowClass::Input {
                    let bits = rand_row(g.cols, &mut rng);
                    ctx.write_row(addr, &bits).unwrap();
                }
                fixed.push(addr);
                rows.push(addr);
            }
        }
    }
    kernel.execute(&mut ctx, &rows).unwrap();
    fixed.iter().map(|&addr| ctx.peek_row(addr).unwrap()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The 7:3 counter forces spills on a narrow target; spilling must stay
    // an accounting change, never a semantic one. (Four slots is the
    // floor: a TRA staging three temps into a temp dst holds four slots
    // at once. The borrow step fits three and runs alongside as a
    // control.)
    #[test]
    fn deep_mapping_programs_are_spill_state_identical(seed in 0u64..1000) {
        for program in [kernels::popcount(), kernels::dp_cell()] {
            let direct = execute_for_state(&program, 8, seed);
            let spilled = execute_for_state(&program, 4, seed);
            prop_assert_eq!(direct, spilled, "{} diverged under spilling", program.name());
        }
    }
}

#[test]
fn mapping_program_allocations_never_alias_live_rows() {
    for program in [kernels::popcount(), kernels::min_select(), kernels::dp_cell()] {
        let alloc = ir::allocate(&program, 8).unwrap();
        assert_eq!(alloc.stats.spill_stores, 0, "{} spills on the full target", program.name());
        for (i, x) in alloc.temps.iter().enumerate() {
            assert_eq!(x.slots.len(), 1, "unspilled temp {} moved slots", x.label);
            for y in &alloc.temps[i + 1..] {
                let overlap = x.def <= y.last_use && y.def <= x.last_use;
                if overlap {
                    assert_ne!(
                        x.slots[0],
                        y.slots[0],
                        "{}: live temps {} and {} share a slot",
                        program.name(),
                        x.label,
                        y.label
                    );
                }
            }
        }
    }
}

#[test]
fn narrow_target_popcount_spills_and_counts_match_report() {
    // The 7:3 counter genuinely exercises the spill path on a 4-slot
    // target: the allocation must report stores and the lowered stream
    // must carry the extra type-1 copies.
    let program = kernels::popcount();
    let cols = DramGeometry::paper_assembly().cols;
    let narrow = LowerOptions { row_bits: cols, size: cols, compute_slots: 4 };
    let spilled = compile(&program, &narrow).unwrap();
    assert!(spilled.report().alloc.spill_stores > 0, "{:?}", spilled.report().alloc);
    let (aap_direct, ..) =
        compile(&program, &LowerOptions::for_row(cols)).unwrap().command_counts();
    let (aap_spilled, ..) = spilled.command_counts();
    assert!(aap_spilled > aap_direct, "spilling adds type-1 copies");
}
