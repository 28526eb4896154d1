//! Legalization: compile-time enforcement of decoder and sense-amp rules.
//!
//! The Modified Row Decoder only multi-activates the eight compute rows,
//! rejects duplicate rows in one activation set, and the sense amp cannot
//! evaluate `Memory`/`Carry` for a two-source AAP. The DRAM model checks
//! all of this on every command it executes (`pim_dram::subarray`); this
//! pass checks the same rules on the IR *before* any command is emitted,
//! so an illegal kernel fails with a typed [`IrError`] carrying its
//! source-kernel span instead of a runtime DRAM error.

use pim_dram::sense_amp::SaMode;

use super::program::{IrError, IrErrorKind, KernelSpan, PimOp, PimProgram, RowClass, VRow};

/// Statistics of one legalization run (surfaced in compile reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LegalizeStats {
    /// Ops inspected.
    pub ops: usize,
    /// Multi-row activation sets validated against the decoder rules.
    pub activation_sets: usize,
    /// Sense-amp modes validated for shape compatibility.
    pub modes_checked: usize,
}

fn span(p: &PimProgram, op_index: usize) -> KernelSpan {
    KernelSpan { kernel: p.name().to_string(), op_index: Some(op_index) }
}

fn operand(p: &PimProgram, row: VRow) -> String {
    p.label_of(row).to_string()
}

/// Checks `program` against the decoder/sense-amp/dataflow rules with the
/// strict (PIM-Assembler / Ambit) activation policy.
///
/// Rules enforced (each mirrors a runtime check listed in its
/// [`IrErrorKind`] variant):
///
/// 1. multi-row activation sources must be [`RowClass::Temp`] rows;
/// 2. an activation set must not contain the same virtual row twice;
/// 3. two-source AAPs take logic modes only (`Nor`/`Nand`/`Xor`/`Xnor`/
///    `CarrySum`);
/// 4. temps and outputs must be written before they are read;
/// 5. inputs and zero rows are read-only.
///
/// # Errors
///
/// The first violated rule, as a typed [`IrError`] spanning the offending
/// op.
pub fn legalize(program: &PimProgram) -> Result<LegalizeStats, IrError> {
    legalize_with(program, false)
}

/// [`legalize`] with a selectable activation policy.
///
/// With `allow_data_activation` set, rule 1 is relaxed: activation sets
/// may name data rows (inputs, zero, outputs) directly, the legality
/// model of non-destructive-sensing substrates (the PANDA-style MRAM
/// backend). Every other rule is enforced identically.
///
/// # Errors
///
/// The first violated rule, as a typed [`IrError`] spanning the offending
/// op.
pub fn legalize_with(
    program: &PimProgram,
    allow_data_activation: bool,
) -> Result<LegalizeStats, IrError> {
    let mut stats = LegalizeStats::default();
    let mut defined = vec![false; program.rows().len()];

    for (i, op) in program.ops().iter().enumerate() {
        stats.ops += 1;

        // Rule 1 + 2: decoder activation-set legality.
        let activation: &[VRow] = match op {
            PimOp::Copy { .. } => &[],
            PimOp::TwoSrc { srcs, .. } => srcs,
            PimOp::ThreeSrc { srcs, .. } => srcs,
        };
        if !activation.is_empty() {
            stats.activation_sets += 1;
            for &src in activation {
                if program.class_of(src) != RowClass::Temp && !allow_data_activation {
                    return Err(IrError {
                        span: span(program, i),
                        kind: IrErrorKind::NonComputeActivation {
                            operand: format!("{}:{}", program.label_of(src), program.class_of(src)),
                        },
                    });
                }
            }
            for (j, &src) in activation.iter().enumerate() {
                if activation[..j].contains(&src) {
                    return Err(IrError {
                        span: span(program, i),
                        kind: IrErrorKind::DuplicateActivation { operand: operand(program, src) },
                    });
                }
            }
        }

        // Rule 3: SA-mode shape compatibility (ThreeSrc is implicitly
        // Carry, so only TwoSrc carries a mode to validate).
        if let PimOp::TwoSrc { mode, .. } = op {
            stats.modes_checked += 1;
            if matches!(mode, SaMode::Memory | SaMode::Carry) {
                return Err(IrError {
                    span: span(program, i),
                    kind: IrErrorKind::IllegalSaMode { mode: *mode },
                });
            }
        }

        // Rule 4: no reads of undefined temps/outputs.
        for src in op.reads() {
            match program.class_of(src) {
                RowClass::Temp | RowClass::Output if !defined[src.index()] => {
                    return Err(IrError {
                        span: span(program, i),
                        kind: IrErrorKind::UseBeforeDef { operand: operand(program, src) },
                    });
                }
                _ => {}
            }
        }

        // Rule 5: inputs and the zero constant are read-only.
        let dst = op.writes();
        match program.class_of(dst) {
            class @ (RowClass::Input | RowClass::Zero) => {
                return Err(IrError {
                    span: span(program, i),
                    kind: IrErrorKind::ReadOnlyWrite { operand: operand(program, dst), class },
                });
            }
            _ => defined[dst.index()] = true,
        }
    }

    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_programs_are_legal() {
        for p in [super::super::kernels::xnor(), super::super::kernels::full_adder()] {
            let stats = legalize(&p).unwrap_or_else(|e| panic!("{} illegal: {e}", p.name()));
            assert_eq!(stats.ops, p.ops().len());
        }
    }

    #[test]
    fn non_temp_activation_source_is_rejected() {
        let mut p = PimProgram::new("bad-src");
        let a = p.input("a");
        let d = p.output("d");
        let t = p.temp("t1");
        p.copy(a, t);
        p.two_src([t, a], d, SaMode::Xnor); // `a` is an input, not a compute temp
        let err = legalize(&p).unwrap_err();
        assert_eq!(err.span.op_index, Some(1));
        assert!(
            matches!(err.kind, IrErrorKind::NonComputeActivation { ref operand } if operand == "a:input")
        );
    }

    #[test]
    fn relaxed_policy_admits_data_activation_but_nothing_else() {
        let mut p = PimProgram::new("direct");
        let a = p.input("a");
        let b = p.input("b");
        let d = p.output("d");
        p.two_src([a, b], d, SaMode::Xnor);
        // Strict (charge-sharing) targets reject data-row activation …
        assert!(legalize(&p).is_err());
        // … the non-destructive-sensing policy admits it …
        let stats = legalize_with(&p, true).unwrap();
        assert_eq!(stats.activation_sets, 1);
        // … but duplicate rows stay illegal under either policy.
        let mut dup = PimProgram::new("direct-dup");
        let a = dup.input("a");
        let d = dup.output("d");
        dup.two_src([a, a], d, SaMode::Xnor);
        let err = legalize_with(&dup, true).unwrap_err();
        assert!(matches!(err.kind, IrErrorKind::DuplicateActivation { .. }));
    }

    #[test]
    fn duplicate_activation_row_is_rejected() {
        let mut p = PimProgram::new("dup");
        let a = p.input("a");
        let d = p.output("d");
        let t = p.temp("t1");
        p.copy(a, t);
        p.two_src([t, t], d, SaMode::Xor);
        let err = legalize(&p).unwrap_err();
        assert!(
            matches!(err.kind, IrErrorKind::DuplicateActivation { ref operand } if operand == "t1")
        );
    }

    #[test]
    fn memory_and_carry_modes_are_rejected_for_two_src() {
        for mode in [SaMode::Memory, SaMode::Carry] {
            let mut p = PimProgram::new("bad-mode");
            let a = p.input("a");
            let d = p.output("d");
            let t1 = p.temp("t1");
            let t2 = p.temp("t2");
            p.copy(a, t1);
            p.copy(a, t2);
            p.two_src([t1, t2], d, mode);
            let err = legalize(&p).unwrap_err();
            assert_eq!(err.span.op_index, Some(2));
            assert!(matches!(err.kind, IrErrorKind::IllegalSaMode { mode: m } if m == mode));
        }
    }

    #[test]
    fn use_before_def_is_rejected() {
        let mut p = PimProgram::new("ubd");
        let d = p.output("d");
        let t1 = p.temp("t1");
        let t2 = p.temp("t2");
        p.two_src([t1, t2], d, SaMode::Xnor);
        let err = legalize(&p).unwrap_err();
        assert!(matches!(err.kind, IrErrorKind::UseBeforeDef { ref operand } if operand == "t1"));
    }

    #[test]
    fn reading_an_unwritten_output_is_rejected() {
        let mut p = PimProgram::new("out-read");
        let d = p.output("d");
        let t = p.temp("t1");
        p.copy(d, t);
        let err = legalize(&p).unwrap_err();
        assert!(matches!(err.kind, IrErrorKind::UseBeforeDef { ref operand } if operand == "d"));
    }

    #[test]
    fn writes_to_inputs_and_zero_rows_are_rejected() {
        let mut p = PimProgram::new("ro-input");
        let a = p.input("a");
        let b = p.input("b");
        p.copy(a, b);
        let err = legalize(&p).unwrap_err();
        assert!(
            matches!(err.kind, IrErrorKind::ReadOnlyWrite { ref operand, class: RowClass::Input } if operand == "b")
        );

        let mut p = PimProgram::new("ro-zero");
        let a = p.input("a");
        let z = p.zero("zero");
        p.copy(a, z);
        let err = legalize(&p).unwrap_err();
        assert!(matches!(err.kind, IrErrorKind::ReadOnlyWrite { class: RowClass::Zero, .. }));
    }
}
