//! IR pipeline suite: allocator soundness under random programs, spill
//! state-identity, and the differential pin of the IR lowering against the
//! literal pre-IR instruction sequences.
#![recursion_limit = "256"]

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use pim_assembler::ir::{
    self, compile, kernels, IrErrorKind, LowerOptions, LoweredOp, PimProgram, RowClass,
};
use pim_assembler::template::{CompiledTemplate, Kernel, TemplateKey};
use pim_dram::address::RowAddr;
use pim_dram::bitrow::BitRow;
use pim_dram::context::SubarrayContext;
use pim_dram::controller::Controller;
use pim_dram::geometry::DramGeometry;
use pim_dram::sense_amp::SaMode;

/// One activation round of a generated program: copy `arity` operands into
/// temps (optionally reusing the previous round's first temp, which
/// stretches that temp's lifetime across the round boundary), then
/// activate them into a fresh output.
#[derive(Debug, Clone)]
struct Round {
    arity: usize,
    reuse_prev: bool,
    input_sel: [usize; 3],
    mode_sel: usize,
}

const TWO_SRC_MODES: [SaMode; 4] = [SaMode::Xor, SaMode::Xnor, SaMode::Nor, SaMode::Nand];

const MAX_ROUNDS: usize = 3;

fn rounds() -> impl Strategy<Value = Vec<Round>> {
    // The vendored proptest stub has no tuple strategies, so one flat
    // vector of raw draws is reshaped into rounds: 6 values per round
    // (arity, reuse, 3 input picks, mode), 1–3 rounds.
    proptest::collection::vec(0usize..60, 6..=6 * MAX_ROUNDS).prop_map(|draws| {
        draws
            .chunks_exact(6)
            .map(|c| Round {
                arity: 2 + c[0] % 2,
                reuse_prev: c[1] % 2 == 1,
                input_sel: [c[2] % 3, c[3] % 3, c[4] % 3],
                mode_sel: c[5] % TWO_SRC_MODES.len(),
            })
            .collect()
    })
}

/// Builds a legal program from the rounds, keeping the total temp count
/// within `max_temps` (rounds past the cap are dropped).
fn build_program(rounds: &[Round], max_temps: usize) -> PimProgram {
    let mut p = PimProgram::new("generated");
    let inputs = [p.input("a"), p.input("b"), p.input("c")];
    let mut temps_declared = 0usize;
    let mut prev_round_temp = None;
    for (r, round) in rounds.iter().enumerate() {
        let reuse = round.reuse_prev.then_some(prev_round_temp).flatten();
        let fresh_needed = round.arity - usize::from(reuse.is_some());
        if temps_declared + fresh_needed > max_temps {
            break;
        }
        let mut srcs = Vec::new();
        if let Some(t) = reuse {
            srcs.push(t);
        }
        let mut first_fresh = None;
        for f in 0..fresh_needed {
            let t = p.temp(format!("t{r}_{f}"));
            first_fresh.get_or_insert(t);
            p.copy(inputs[round.input_sel[f]], t);
            srcs.push(t);
            temps_declared += 1;
        }
        let out = p.output(format!("o{r}"));
        match round.arity {
            2 => p.two_src([srcs[0], srcs[1]], out, TWO_SRC_MODES[round.mode_sel]),
            _ => p.three_src([srcs[0], srcs[1], srcs[2]], out),
        }
        // Only a temp defined *this* round can be reused next round: a
        // temp reused twice would outlive the reload bookkeeping the
        // generator models.
        prev_round_temp = first_fresh;
    }
    p
}

/// Compiles `program` for `slots` compute slots and executes it on a fresh
/// controller with deterministic input rows, returning the contents of
/// every fixed (non-temp, non-spill) role row afterwards.
fn execute_for_state(program: &PimProgram, slots: usize, seed: u64) -> Vec<BitRow> {
    let g = DramGeometry::paper_assembly();
    let options = LowerOptions { row_bits: g.cols, size: g.cols, compute_slots: slots };
    let kernel = compile(program, &options).expect("generated programs are legal");
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
                    let bits = BitRow::from_fn(g.cols, |_| rand::Rng::gen_bool(&mut rng, 0.5));
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    // With at most 8 temps on the full 8-slot target nothing ever
    // spills, and two temps whose lifetimes overlap must never occupy
    // the same compute slot.
    #[test]
    fn allocator_never_aliases_live_virtual_rows(rs in rounds()) {
        let program = build_program(&rs, 8);
        let alloc = ir::allocate(&program, 8).unwrap();
        prop_assert_eq!(alloc.stats.spill_stores, 0);
        prop_assert_eq!(alloc.stats.spill_reloads, 0);
        for (i, x) in alloc.temps.iter().enumerate() {
            prop_assert!(x.slots.len() == 1, "unspilled temp {} moved slots", x.label);
            for y in &alloc.temps[i + 1..] {
                let overlap = x.def <= y.last_use && y.def <= x.last_use;
                if overlap {
                    prop_assert!(
                        x.slots[0] != y.slots[0],
                        "live temps {} and {} share slot {}",
                        x.label,
                        y.label,
                        x.slots[0]
                    );
                }
            }
        }
    }

    // Spill-to-copy is an accounting change, never a semantic one: the
    // same program lowered for a 3-slot target (spills may engage) and
    // the full 8-slot target (never spills) leaves every input and
    // output row byte-identical.
    #[test]
    fn spilled_allocation_is_state_identical_to_direct(rs in rounds(), seed in 0u64..1000) {
        let program = build_program(&rs, 8);
        let direct = execute_for_state(&program, 8, seed);
        let spilled = execute_for_state(&program, 3, seed);
        prop_assert_eq!(direct, spilled);
    }
}

#[test]
fn forced_spill_case_is_state_identical_and_actually_spills() {
    // Three temps live at once on a 2-slot target: the allocator must
    // spill, and the spilled execution must still agree with the direct
    // one row-for-row.
    let mut p = PimProgram::new("spill3");
    let a = p.input("a");
    let b = p.input("b");
    let o1 = p.output("o1");
    let o2 = p.output("o2");
    let t1 = p.temp("t1");
    let t2 = p.temp("t2");
    let t3 = p.temp("t3");
    p.copy(a, t1);
    p.copy(b, t2);
    p.copy(a, t3);
    p.two_src([t1, t2], o1, SaMode::Xor);
    p.two_src([t2, t3], o2, SaMode::Nand);

    let cols = DramGeometry::paper_assembly().cols;
    let narrow = LowerOptions { row_bits: cols, size: cols, compute_slots: 2 };
    let spilled = compile(&p, &narrow).unwrap();
    assert!(spilled.report().alloc.spill_stores > 0, "{:?}", spilled.report().alloc);
    let (aap_direct, ..) = compile(&p, &LowerOptions::for_row(cols)).unwrap().command_counts();
    let (aap_spilled, ..) = spilled.command_counts();
    assert!(aap_spilled > aap_direct, "spilling adds type-1 copies");

    assert_eq!(execute_for_state(&p, 8, 7), execute_for_state(&p, 2, 7));
}

#[test]
fn ir_lowered_streams_match_the_legacy_sequences_across_geometries() {
    // The pre-IR `Kernel::roles()` tables emitted exactly these
    // instruction lists; the IR path must reproduce them op for op, over
    // the same role labels, for every geometry and bulk size (a bulk size
    // of `mult` rows repeats every op `mult` times).
    let labels = |k: &ir::CompiledKernel| -> Vec<String> {
        k.roles().iter().map(|r| r.label.clone()).collect()
    };
    for cols in [64usize, 256] {
        for mult in [1usize, 3] {
            let options = LowerOptions { size: cols * mult, ..LowerOptions::for_row(cols) };

            let xnor = compile(&Kernel::Xnor.program(), &options).unwrap();
            assert_eq!(labels(&xnor), ["a", "b", "dst", "x1", "x2"], "xnor cols={cols}");
            let (a, b, dst, x1, x2) = (0, 1, 2, 3, 4);
            let expected = [
                LoweredOp::Copy { src: a, dst: x1 },
                LoweredOp::Copy { src: b, dst: x2 },
                LoweredOp::TwoSrc { srcs: [x1, x2], dst, mode: SaMode::Xnor },
            ];
            assert_eq!(xnor.ops(), expected, "xnor cols={cols} mult={mult}");
            assert_eq!(xnor.report().reps, mult, "xnor cols={cols} mult={mult}");

            let adder = compile(&Kernel::FullAdder.program(), &options).unwrap();
            assert_eq!(
                labels(&adder),
                ["a", "b", "c", "zero", "sum_dst", "carry_dst", "x1", "x2", "x3"],
                "full-adder cols={cols}"
            );
            let (a, b, c, zero, sum, carry, x1, x2, x3) = (0, 1, 2, 3, 4, 5, 6, 7, 8);
            let expected = [
                LoweredOp::Copy { src: c, dst: x1 },
                LoweredOp::Copy { src: zero, dst: x2 },
                LoweredOp::Copy { src: c, dst: x3 },
                LoweredOp::ThreeSrc { srcs: [x1, x2, x3], dst: sum },
                LoweredOp::Copy { src: a, dst: x1 },
                LoweredOp::Copy { src: b, dst: x2 },
                LoweredOp::TwoSrc { srcs: [x1, x2], dst: sum, mode: SaMode::CarrySum },
                LoweredOp::Copy { src: a, dst: x1 },
                LoweredOp::Copy { src: b, dst: x2 },
                LoweredOp::Copy { src: c, dst: x3 },
                LoweredOp::ThreeSrc { srcs: [x1, x2, x3], dst: carry },
            ];
            assert_eq!(adder.ops(), expected, "full-adder cols={cols} mult={mult}");
            assert_eq!(adder.report().reps, mult, "full-adder cols={cols} mult={mult}");

            // The templates the stages execute lower to these same kernels.
            for (kernel, lowered) in [(Kernel::Xnor, &xnor), (Kernel::FullAdder, &adder)] {
                let template =
                    CompiledTemplate::compile(TemplateKey::new(kernel, cols, cols * mult));
                assert_eq!(template.report(), lowered.report(), "{kernel:?} cols={cols}");
            }
        }
    }
}

#[test]
fn illegal_activation_sets_fail_at_legalization_with_spans() {
    // An input row in an activation set: legal nowhere on the MRD.
    let mut p = PimProgram::new("bad-activation");
    let a = p.input("a");
    let d = p.output("d");
    let t = p.temp("t");
    p.copy(a, t);
    p.two_src([a, t], d, SaMode::Xor);
    let err = compile(&p, &LowerOptions::for_row(64)).unwrap_err();
    assert!(matches!(err.kind, IrErrorKind::NonComputeActivation { .. }), "{err:?}");
    assert_eq!(err.span.kernel, "bad-activation");
    assert_eq!(err.span.op_index, Some(1));
    assert!(err.to_string().contains("a:input"), "{err}");
}

#[test]
fn sa_mode_misuse_fails_at_legalization() {
    for mode in [SaMode::Memory, SaMode::Carry] {
        let mut p = PimProgram::new("bad-mode");
        let a = p.input("a");
        let d = p.output("d");
        let t1 = p.temp("t1");
        let t2 = p.temp("t2");
        p.copy(a, t1);
        p.copy(a, t2);
        p.two_src([t1, t2], d, mode);
        let err = compile(&p, &LowerOptions::for_row(64)).unwrap_err();
        assert!(matches!(err.kind, IrErrorKind::IllegalSaMode { mode: m } if m == mode), "{err:?}");
        assert_eq!(err.span.op_index, Some(2));
    }
}

/// A controller whose activation semantics match the backend: PANDA MRAM
/// senses nondestructively (and activates data rows directly); the DRAM
/// backends run the default destructive-charge substrate.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Cross-backend differential: the stage kernels lowered for every
    // backend produce BitRows identical to the software oracle, at both
    // the tiny (64-column) and paper (256-column) geometries. The command
    // *mixes* differ per backend; the *results* may not.
    #[test]
    fn stage_kernels_agree_with_the_software_oracle_on_every_backend(seed in 0u64..1000) {
        for (cols, g) in [(64usize, DramGeometry::tiny()), (256, DramGeometry::paper_assembly())] {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let a = BitRow::from_fn(cols, |_| rand::Rng::gen_bool(&mut rng, 0.5));
            let b = BitRow::from_fn(cols, |_| rand::Rng::gen_bool(&mut rng, 0.5));
            let c = BitRow::from_fn(cols, |_| rand::Rng::gen_bool(&mut rng, 0.5));
            for backend in ir::BackendKind::ALL {
                let mut rows = [RowAddr(0); 24];

                let xnor = CompiledTemplate::compile(
                    TemplateKey::new(Kernel::Xnor, cols, cols).with_backend(backend),
                );
                prop_assert!(
                    xnor.roles().iter().all(|r| r.class != RowClass::Spill),
                    "{backend}: xnor must lower spill-free"
                );
                let mut ctx = context(backend_controller(backend, g));
                ctx.write_row(1, &a).unwrap();
                ctx.write_row(2, &b).unwrap();
                ctx.write_row(4, &BitRow::zeros(cols)).unwrap();
                let n = xnor
                    .bind_roles_into(ctx.geometry(), &[RowAddr(1), RowAddr(2)], &[RowAddr(9)], RowAddr(4), &[], &mut rows)
                    .unwrap();
                xnor.execute(&mut ctx, &rows[..n]).unwrap();
                prop_assert_eq!(
                    ctx.peek_row(9).unwrap(),
                    a.xnor(&b),
                    "{} cols={}: xnor", backend, cols
                );

                let adder = CompiledTemplate::compile(
                    TemplateKey::new(Kernel::FullAdder, cols, cols).with_backend(backend),
                );
                prop_assert!(
                    adder.roles().iter().all(|r| r.class != RowClass::Spill),
                    "{backend}: full-adder must lower spill-free"
                );
                let mut ctx = context(backend_controller(backend, g));
                ctx.write_row(1, &a).unwrap();
                ctx.write_row(2, &b).unwrap();
                ctx.write_row(3, &c).unwrap();
                ctx.write_row(4, &BitRow::zeros(cols)).unwrap();
                let n = adder
                    .bind_roles_into(
                        ctx.geometry(),
                        &[RowAddr(1), RowAddr(2), RowAddr(3)],
                        &[RowAddr(10), RowAddr(11)],
                        RowAddr(4),
                        &[],
                        &mut rows,
                    )
                    .unwrap();
                adder.execute(&mut ctx, &rows[..n]).unwrap();
                prop_assert_eq!(
                    ctx.peek_row(10).unwrap(),
                    a.xor(&b).xor(&c),
                    "{} cols={}: sum", backend, cols
                );
                prop_assert_eq!(
                    ctx.peek_row(11).unwrap(),
                    BitRow::maj3(&a, &b, &c),
                    "{} cols={}: carry", backend, cols
                );
            }
        }
    }
}

#[test]
fn every_registered_kernel_lowers_cleanly_on_the_paper_target() {
    for name in kernels::KERNEL_NAMES {
        let program = kernels::by_name(name).unwrap();
        let kernel = compile(&program, &LowerOptions::for_row(256)).unwrap();
        assert_eq!(kernel.name(), program.name());
        assert!(kernel.report().alloc.spill_stores == 0, "{name} spills on the full target");
    }
}
