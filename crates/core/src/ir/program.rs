//! The typed PIM-IR: programs over virtual rows.
//!
//! A [`PimProgram`] is the front-end form of an AAP kernel: a straight-line
//! sequence of [`PimOp`]s whose operands are [`VRow`]s — virtual rows with
//! a declared [`RowClass`] role annotation — instead of concrete
//! [`pim_dram::address::RowAddr`]es. Virtual temporaries are SSA-like:
//! each `temp` names a value, not a physical compute row, and the
//! [`crate::ir::alloc`] pass decides which of the sub-array's eight
//! MRD-wired compute rows (or spill rows) each one occupies and when.
//!
//! Programs are built with the builder methods ([`PimProgram::input`],
//! [`PimProgram::temp`], [`PimProgram::copy`], …) and compiled through
//! [`crate::ir::compile`], which legalizes, allocates, peepholes, and
//! emits an executable [`crate::ir::CompiledKernel`].

use std::fmt;

use pim_dram::sense_amp::SaMode;

/// A virtual row: an SSA-like operand naming a value, not an address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VRow(pub(crate) u32);

impl VRow {
    /// The declaration index of this virtual row within its program.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Kernel role annotation of a virtual row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowClass {
    /// A caller-supplied operand row (read-only).
    Input,
    /// A caller-visible result row (writable, readable once written).
    Output,
    /// A caller-supplied all-zero constant row (read-only).
    Zero,
    /// A kernel temporary. Temps are the only rows a multi-row activation
    /// may source (they lower onto the MRD-wired compute rows x1..x8).
    Temp,
    /// An allocator-introduced spill slot (never declared by kernels;
    /// appears only in lowered role tables when temps exceed the
    /// available compute rows).
    Spill,
}

impl fmt::Display for RowClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RowClass::Input => "input",
            RowClass::Output => "output",
            RowClass::Zero => "zero",
            RowClass::Temp => "temp",
            RowClass::Spill => "spill",
        };
        f.write_str(s)
    }
}

/// Declaration record of one virtual row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowDecl {
    /// The row's kernel role.
    pub class: RowClass,
    /// Human-readable operand name (used in dumps and error spans).
    pub label: String,
}

/// One IR instruction. Shapes mirror the three AAP instruction classes of
/// §II-B, so activation-set arity (2 or 3) is enforced by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PimOp {
    /// Type-1 AAP: RowClone `src` into `dst`.
    Copy {
        /// Source row.
        src: VRow,
        /// Destination row.
        dst: VRow,
    },
    /// Type-2 AAP: two-row activation evaluated by the sense amp in
    /// `mode`, result written to `dst`.
    TwoSrc {
        /// The activation set (must lower onto compute rows).
        srcs: [VRow; 2],
        /// Destination row.
        dst: VRow,
        /// Sense-amplifier mode (logic modes only; checked at
        /// legalization).
        mode: SaMode,
    },
    /// Type-3 AAP: triple-row activation, majority/carry (the SA latches
    /// the carry; mode is implicitly [`SaMode::Carry`]).
    ThreeSrc {
        /// The activation set (must lower onto compute rows).
        srcs: [VRow; 3],
        /// Destination row.
        dst: VRow,
    },
}

impl PimOp {
    /// The rows this op reads, in operand order.
    pub fn reads(&self) -> Vec<VRow> {
        match *self {
            PimOp::Copy { src, .. } => vec![src],
            PimOp::TwoSrc { srcs, .. } => srcs.to_vec(),
            PimOp::ThreeSrc { srcs, .. } => srcs.to_vec(),
        }
    }

    /// The row this op writes.
    pub fn writes(&self) -> VRow {
        match *self {
            PimOp::Copy { dst, .. } => dst,
            PimOp::TwoSrc { dst, .. } => dst,
            PimOp::ThreeSrc { dst, .. } => dst,
        }
    }
}

/// A typed IR program over virtual rows.
///
/// # Examples
///
/// ```
/// use pim_assembler::ir::{PimProgram, RowClass};
/// use pim_dram::sense_amp::SaMode;
///
/// let mut p = PimProgram::new("xnor");
/// let a = p.input("a");
/// let b = p.input("b");
/// let dst = p.output("dst");
/// let t1 = p.temp("t1");
/// let t2 = p.temp("t2");
/// p.copy(a, t1);
/// p.copy(b, t2);
/// p.two_src([t1, t2], dst, SaMode::Xnor);
/// assert_eq!(p.ops().len(), 3);
/// assert_eq!(p.class_of(t1), RowClass::Temp);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PimProgram {
    name: String,
    rows: Vec<RowDecl>,
    ops: Vec<PimOp>,
}

impl PimProgram {
    /// An empty program named `name` (the kernel name used in error spans).
    pub fn new(name: impl Into<String>) -> Self {
        PimProgram { name: name.into(), rows: Vec::new(), ops: Vec::new() }
    }

    fn declare(&mut self, class: RowClass, label: impl Into<String>) -> VRow {
        let v = VRow(self.rows.len() as u32);
        self.rows.push(RowDecl { class, label: label.into() });
        v
    }

    /// Declares a read-only caller operand row.
    pub fn input(&mut self, label: impl Into<String>) -> VRow {
        self.declare(RowClass::Input, label)
    }

    /// Declares a caller-visible result row.
    pub fn output(&mut self, label: impl Into<String>) -> VRow {
        self.declare(RowClass::Output, label)
    }

    /// Declares a read-only all-zero constant row.
    pub fn zero(&mut self, label: impl Into<String>) -> VRow {
        self.declare(RowClass::Zero, label)
    }

    /// Declares an SSA-like temporary (allocated onto compute rows).
    pub fn temp(&mut self, label: impl Into<String>) -> VRow {
        self.declare(RowClass::Temp, label)
    }

    /// Appends a RowClone.
    pub fn copy(&mut self, src: VRow, dst: VRow) {
        self.ops.push(PimOp::Copy { src, dst });
    }

    /// Appends a two-row activation in `mode`.
    pub fn two_src(&mut self, srcs: [VRow; 2], dst: VRow, mode: SaMode) {
        self.ops.push(PimOp::TwoSrc { srcs, dst, mode });
    }

    /// Appends a triple-row activation (majority/carry).
    pub fn three_src(&mut self, srcs: [VRow; 3], dst: VRow) {
        self.ops.push(PimOp::ThreeSrc { srcs, dst });
    }

    /// The kernel name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All row declarations, in declaration order.
    pub fn rows(&self) -> &[RowDecl] {
        &self.rows
    }

    /// The instruction sequence.
    pub fn ops(&self) -> &[PimOp] {
        &self.ops
    }

    /// The class of `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` was declared on a different program.
    pub fn class_of(&self, row: VRow) -> RowClass {
        self.rows[row.index()].class
    }

    /// The label of `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` was declared on a different program.
    pub fn label_of(&self, row: VRow) -> &str {
        &self.rows[row.index()].label
    }

    fn operand(&self, row: VRow) -> String {
        format!("{}:{}", self.label_of(row), self.class_of(row))
    }

    /// Renders the pre-lowering IR as indented text (the `pim-asm ir`
    /// dump format).
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "kernel {} — {} virtual rows, {} ops\n",
            self.name,
            self.rows.len(),
            self.ops.len()
        );
        for (i, op) in self.ops.iter().enumerate() {
            let line = match *op {
                PimOp::Copy { src, dst } => {
                    format!("copy     {} -> {}", self.operand(src), self.operand(dst))
                }
                PimOp::TwoSrc { srcs, dst, mode } => format!(
                    "aap2     [{}, {}] -{:?}-> {}",
                    self.operand(srcs[0]),
                    self.operand(srcs[1]),
                    mode,
                    self.operand(dst)
                ),
                PimOp::ThreeSrc { srcs, dst } => format!(
                    "aap3     [{}, {}, {}] -Carry-> {}",
                    self.operand(srcs[0]),
                    self.operand(srcs[1]),
                    self.operand(srcs[2]),
                    self.operand(dst)
                ),
            };
            out.push_str(&format!("  {i:>3}: {line}\n"));
        }
        out
    }
}

/// Source-kernel span attached to every IR error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelSpan {
    /// The kernel the offending program was named after.
    pub kernel: String,
    /// Index of the offending op, when the error is op-local.
    pub op_index: Option<usize>,
}

impl fmt::Display for KernelSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.op_index {
            Some(i) => write!(f, "kernel `{}` op {i}", self.kernel),
            None => write!(f, "kernel `{}`", self.kernel),
        }
    }
}

/// What a compile pass rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrErrorKind {
    /// A multi-row activation sourced a non-temp row. Only the MRD-wired
    /// compute rows can be multi-activated
    /// ([`pim_dram::decoder::ModifiedRowDecoder`] rejects everything else
    /// at runtime with `DramError::NotComputeRow`; the IR rejects it at
    /// compile time).
    NonComputeActivation {
        /// Label and class of the offending operand.
        operand: String,
    },
    /// The same virtual row appeared twice in one activation set (the
    /// decoder's `DuplicateSourceRow` rule, moved to compile time).
    DuplicateActivation {
        /// Label of the duplicated operand.
        operand: String,
    },
    /// A sense-amp mode the op shape cannot evaluate: two-source AAPs
    /// support logic modes only (`Memory`/`Carry` are rejected).
    IllegalSaMode {
        /// The rejected mode.
        mode: SaMode,
    },
    /// A temp or output row was read before any op wrote it.
    UseBeforeDef {
        /// Label of the undefined operand.
        operand: String,
    },
    /// An op wrote a read-only row (an input or the zero constant).
    ReadOnlyWrite {
        /// Label of the written operand.
        operand: String,
        /// Its (read-only) class.
        class: RowClass,
    },
    /// An activation set needs more simultaneously-live compute rows than
    /// the target exposes; spilling cannot help because all sources of
    /// one activation must be resident at once.
    NotEnoughComputeSlots {
        /// Distinct compute-resident operands the op needs.
        needed: usize,
        /// Compute slots available.
        available: usize,
    },
}

/// A typed compile-time IR error with its source-kernel span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IrError {
    /// Where in which kernel.
    pub span: KernelSpan,
    /// What was rejected.
    pub kind: IrErrorKind,
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: ", self.span)?;
        match &self.kind {
            IrErrorKind::NonComputeActivation { operand } => write!(
                f,
                "activation source `{operand}` is not a temp — only compute rows multi-activate"
            ),
            IrErrorKind::DuplicateActivation { operand } => {
                write!(f, "row `{operand}` appears twice in one activation set")
            }
            IrErrorKind::IllegalSaMode { mode } => {
                write!(f, "sense-amp mode {mode:?} is illegal for a two-source AAP")
            }
            IrErrorKind::UseBeforeDef { operand } => {
                write!(f, "row `{operand}` is read before any op defines it")
            }
            IrErrorKind::ReadOnlyWrite { operand, class } => {
                write!(f, "write to read-only {class} row `{operand}`")
            }
            IrErrorKind::NotEnoughComputeSlots { needed, available } => write!(
                f,
                "activation set needs {needed} resident compute rows, target has {available}"
            ),
        }
    }
}

impl std::error::Error for IrError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assigns_declaration_order() {
        let mut p = PimProgram::new("t");
        let a = p.input("a");
        let t = p.temp("t1");
        assert_eq!(a.index(), 0);
        assert_eq!(t.index(), 1);
        assert_eq!(p.class_of(a), RowClass::Input);
        assert_eq!(p.label_of(t), "t1");
    }

    #[test]
    fn reads_and_writes_are_reported() {
        let mut p = PimProgram::new("t");
        let a = p.input("a");
        let b = p.input("b");
        let d = p.output("d");
        let t1 = p.temp("t1");
        let t2 = p.temp("t2");
        p.two_src([t1, t2], d, SaMode::Xor);
        p.copy(a, t1);
        let op = p.ops()[0];
        assert_eq!(op.reads(), vec![t1, t2]);
        assert_eq!(op.writes(), d);
        assert_eq!(p.ops()[1].reads(), vec![a]);
        let _ = b;
    }

    #[test]
    fn text_dump_names_operands_and_ops() {
        let mut p = PimProgram::new("demo");
        let a = p.input("a");
        let t = p.temp("t1");
        p.copy(a, t);
        let text = p.to_text();
        assert!(text.contains("kernel demo"), "{text}");
        assert!(text.contains("copy     a:input -> t1:temp"), "{text}");
    }

    #[test]
    fn error_display_carries_the_span() {
        let e = IrError {
            span: KernelSpan { kernel: "full-adder".into(), op_index: Some(3) },
            kind: IrErrorKind::DuplicateActivation { operand: "t1".into() },
        };
        let s = e.to_string();
        assert!(s.contains("kernel `full-adder` op 3"), "{s}");
        assert!(s.contains("t1"), "{s}");
    }
}
