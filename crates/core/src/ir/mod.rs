//! The typed PIM-IR and its lowering pipeline.
//!
//! Every AAP kernel in the platform is defined once as a [`PimProgram`]
//! over virtual rows ([`kernels`]) and lowered through one pipeline:
//!
//! ```text
//!   PimProgram (virtual rows, SSA-like temps)
//!        │
//!        ▼
//!   legalize   — decoder activation-set legality, SA-mode shape
//!        │       compatibility, def-before-use (typed IrError + span)
//!        ▼
//!   allocate   — lifetime-based virtual-row allocation onto compute
//!        │       slots, spill-to-copy when temps exceed slots
//!        ▼
//!   peephole   — self-copy elim, RowClone coalescing, dead-copy elim
//!        │
//!        ▼
//!   CompiledKernel (role-indexed LoweredOps + CompileReport)
//!        │
//!        ▼
//!   execute on a SubarrayContext (CompiledKernel::execute)
//! ```
//!
//! The [`LoweredOp`]s are the paper's §II-B AAP instructions (types 1–3)
//! over role indices, and [`CompiledKernel::execute`] is their one
//! executor. [`crate::template::CompiledTemplate`] wraps a
//! [`CompiledKernel`] for the built-in kernels (adding the
//! [`crate::template::TemplateKey`] shape and precomputed command
//! counts), so there is exactly one source of truth per kernel command
//! sequence. [`crate::budget::pipeline_budget`]
//! and the `pim-verify` invariant checker derive their expected command
//! counts from the [`CompileReport`] pass statistics.
//!
//! Lowering is retargetable: [`compile_backend`] prepends a per-substrate
//! IR→IR rewrite ([`backend`]) to the same pipeline, so the identical
//! kernel programs execute on the PIM-Assembler, Ambit-TRA, and
//! PANDA-MRAM targets with backend-specific command mixes.

pub mod alloc;
pub mod backend;
pub mod kernels;
pub mod legalize;
pub mod peephole;
pub mod program;

use pim_dram::address::RowAddr;
use pim_dram::context::SubarrayContext;
use pim_dram::sense_amp::SaMode;

pub use alloc::{allocate, AllocStats, Allocation, TempAssignment};
pub use backend::{
    AmbitTraBackend, BackendKind, LoweringBackend, PandaMramBackend, PimAssemblerBackend,
};
pub use legalize::{legalize, legalize_with, LegalizeStats};
pub use peephole::{peephole, PeepholeStats};
pub use program::{IrError, IrErrorKind, KernelSpan, PimOp, PimProgram, RowClass, RowDecl, VRow};

/// Optimization level of one IR compilation. `O0`, the faithful
/// re-encoding of the paper's hand-written AAP sequences, is the only
/// level: the sequence search that `O2` selected is retired (DESIGN §11
/// gives the measurement). The type survives only because the benchmark
/// names it ([`crate::config::PimAssemblerConfig::opt_level`],
/// [`crate::template::TemplateKey::with_opt`] and
/// [`crate::mapping_stage::PimReadMapper::build`]); the next benchmark
/// change drops it together with those call sites (ROADMAP item 7).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum OptLevel {
    /// Faithful re-encoding of the hand-written command sequences.
    #[default]
    O0,
}

impl OptLevel {
    /// Canonical schema name (`"O0"`).
    pub fn name(self) -> &'static str {
        match self {
            OptLevel::O0 => "O0",
        }
    }
}

/// One lowered op. Row operands are *role indices* into the binding
/// array supplied at execution time (see [`CompiledKernel::roles`] for
/// the binding order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoweredOp {
    /// Type-1 AAP: RowClone role `src` into role `dst`.
    Copy {
        /// Source role index.
        src: usize,
        /// Destination role index.
        dst: usize,
    },
    /// Type-2 AAP over two compute-slot roles.
    TwoSrc {
        /// Activation-set role indices.
        srcs: [usize; 2],
        /// Destination role index.
        dst: usize,
        /// Sense-amp mode.
        mode: SaMode,
    },
    /// Type-3 AAP (TRA) over three compute-slot roles.
    ThreeSrc {
        /// Activation-set role indices.
        srcs: [usize; 3],
        /// Destination role index.
        dst: usize,
    },
}

/// Lowering parameters: the target shape the program is compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LowerOptions {
    /// Row width in bits (`DramGeometry::cols`).
    pub row_bits: usize,
    /// Bulk vector size in bits; sizes beyond one row repeat each command
    /// once per touched row when the kernel executes.
    pub size: usize,
    /// Compute rows available for temp allocation (the MRD exposes
    /// [`pim_dram::geometry::COMPUTE_ROWS`]; tests shrink this to force
    /// spilling).
    pub compute_slots: usize,
}

impl LowerOptions {
    /// Options for a single-row kernel of width `row_bits` on the full
    /// eight-compute-row target.
    pub fn for_row(row_bits: usize) -> Self {
        LowerOptions { row_bits, size: row_bits, compute_slots: pim_dram::geometry::COMPUTE_ROWS }
    }
}

/// Pass statistics of one compilation, kept on the emitted kernel.
///
/// The per-class `command_counts` here are what
/// [`crate::budget::pipeline_budget`] (and through it the `pim-verify`
/// invariant checker) use as expected command counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileReport {
    /// Kernel name.
    pub kernel: String,
    /// The lowering backend the kernel was compiled for.
    pub backend: BackendKind,
    /// Ops in the source program.
    pub ops_in: usize,
    /// Ops after allocation + peephole (spill copies included).
    pub ops_out: usize,
    /// Legalization statistics.
    pub legalize: LegalizeStats,
    /// Allocation statistics.
    pub alloc: AllocStats,
    /// Peephole statistics.
    pub peephole: PeepholeStats,
    /// Per-execution `(aap, aap2, aap3)` command counts (repetitions for
    /// the bulk size included).
    pub command_counts: (u64, u64, u64),
    /// Role bindings the lowered kernel takes.
    pub role_count: usize,
    /// Command repeats per op (the bulk-size row count).
    pub reps: usize,
    /// Per-temp lifetime/slot records (the allocation map).
    pub temps: Vec<TempAssignment>,
}

/// An executable lowered kernel: the output of [`compile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledKernel {
    name: String,
    roles: Vec<RowDecl>,
    ops: Vec<LoweredOp>,
    reps: usize,
    report: CompileReport,
}

impl CompiledKernel {
    /// The kernel name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The lowering backend the kernel was compiled for.
    pub fn backend(&self) -> BackendKind {
        self.report.backend
    }

    /// The role table, in caller-binding order (non-temp declarations,
    /// then compute-slot roles, then spill roles).
    pub fn roles(&self) -> &[RowDecl] {
        &self.roles
    }

    /// Number of rows a caller must bind to execute this kernel.
    pub fn role_count(&self) -> usize {
        self.roles.len()
    }

    /// The lowered ops.
    pub fn ops(&self) -> &[LoweredOp] {
        &self.ops
    }

    /// The compile report (pass statistics and allocation map).
    pub fn report(&self) -> &CompileReport {
        &self.report
    }

    /// Per-class command counts of one execution, `(aap, aap2, aap3)`.
    pub fn command_counts(&self) -> (u64, u64, u64) {
        self.report.command_counts
    }

    /// Executes the kernel on `ctx` with the given role bindings, all
    /// commands through the discard AAP variants (allocation-free).
    ///
    /// # Errors
    ///
    /// DRAM addressing/decoder errors from the sub-array.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len() != self.role_count()` — callers that need a
    /// typed arity error wrap this (see
    /// [`crate::template::CompiledTemplate::execute`]).
    pub fn execute(&self, ctx: &mut SubarrayContext, rows: &[RowAddr]) -> crate::error::Result<()> {
        assert_eq!(rows.len(), self.roles.len(), "kernel arity mismatch");
        for op in &self.ops {
            for _ in 0..self.reps {
                issue(ctx, rows, op)?;
            }
        }
        Ok(())
    }

    /// Executes the kernel like [`CompiledKernel::execute`], but senses
    /// the final command and AND-reduces its read-out: returns whether
    /// every sensed bit is one. The final op must be a two-source AAP (the
    /// shape of every comparison kernel); it issues as
    /// [`SubarrayContext::aap2_all_ones`], which charges exactly like the
    /// `aap2` that [`CompiledKernel::execute`] would discard, so the ledger
    /// is byte-identical to it.
    ///
    /// # Errors
    ///
    /// DRAM addressing/decoder errors from the sub-array.
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch or when the lowered kernel does not end
    /// in a [`LoweredOp::TwoSrc`].
    pub fn execute_all_ones(
        &self,
        ctx: &mut SubarrayContext,
        rows: &[RowAddr],
    ) -> crate::error::Result<bool> {
        assert_eq!(rows.len(), self.roles.len(), "kernel arity mismatch");
        let (last, head) = self.ops.split_last().expect("sensed kernel has at least one op");
        let &LoweredOp::TwoSrc { srcs, dst, mode } = last else {
            panic!("sensed execution requires a two-source final op, got {last:?}");
        };
        for op in head {
            for _ in 0..self.reps {
                issue(ctx, rows, op)?;
            }
        }
        for _ in 0..self.reps.saturating_sub(1) {
            issue(ctx, rows, last)?;
        }
        Ok(ctx.aap2_all_ones(mode, [rows[srcs[0]], rows[srcs[1]]], rows[dst])?)
    }

    /// Renders the lowered kernel (role table, allocation map, ops, and
    /// pass statistics) as text — the post-lowering half of the
    /// `pim-asm ir` dump.
    pub fn to_text(&self) -> String {
        let r = &self.report;
        let mut out = format!(
            "lowered {} — {} roles, {} ops, reps={}\n",
            self.name,
            self.roles.len(),
            self.ops.len(),
            self.reps
        );
        out.push_str("role bindings:\n");
        for (i, role) in self.roles.iter().enumerate() {
            out.push_str(&format!("  {i:>3}: {} ({})\n", role.label, role.class));
        }
        out.push_str("allocation map:\n");
        if r.temps.is_empty() {
            out.push_str("  (no temps)\n");
        }
        for t in &r.temps {
            let slots: Vec<String> = t.slots.iter().map(|s| format!("x{}", s + 1)).collect();
            let spill = match t.spill_role {
                Some(s) => format!(", spilled via s{}", s + 1),
                None => String::new(),
            };
            out.push_str(&format!(
                "  {} -> {} (ops {}..={}{})\n",
                t.label,
                if slots.is_empty() { "-".to_string() } else { slots.join(",") },
                t.def,
                t.last_use,
                spill
            ));
        }
        out.push_str("post-lowering ops:\n");
        for (i, op) in self.ops.iter().enumerate() {
            let label = |r: usize| format!("{}:{}", r, self.roles[r].label);
            let line = match *op {
                LoweredOp::Copy { src, dst } => format!("AAP   {} -> {}", label(src), label(dst)),
                LoweredOp::TwoSrc { srcs, dst, mode } => format!(
                    "AAP2  [{}, {}] -{:?}-> {}",
                    label(srcs[0]),
                    label(srcs[1]),
                    mode,
                    label(dst)
                ),
                LoweredOp::ThreeSrc { srcs, dst } => format!(
                    "AAP3  [{}, {}, {}] -Carry-> {}",
                    label(srcs[0]),
                    label(srcs[1]),
                    label(srcs[2]),
                    label(dst)
                ),
            };
            out.push_str(&format!("  {i:>3}: {line}\n"));
        }
        let (aap, aap2, aap3) = r.command_counts;
        out.push_str(&format!("command counts per execution: AAP={aap} AAP2={aap2} AAP3={aap3}\n"));
        out.push_str(&format!(
            "passes: legalize {} ops / {} activation sets / {} modes; alloc {} temps -> {} slots \
             ({} spill roles, {} stores, {} reloads); peephole -{} self-copies -{} dup clones -{} \
             dead copies\n",
            r.legalize.ops,
            r.legalize.activation_sets,
            r.legalize.modes_checked,
            r.alloc.temps,
            r.alloc.slots_used,
            r.alloc.spill_roles,
            r.alloc.spill_stores,
            r.alloc.spill_reloads,
            r.peephole.self_copies_removed,
            r.peephole.clones_coalesced,
            r.peephole.dead_copies_removed,
        ));
        if r.peephole.copies_forwarded > 0 {
            out.push_str(&format!(
                "peephole forwarded {} copy chains\n",
                r.peephole.copies_forwarded
            ));
        }
        out
    }
}

fn issue(ctx: &mut SubarrayContext, rows: &[RowAddr], op: &LoweredOp) -> crate::error::Result<()> {
    match *op {
        LoweredOp::Copy { src, dst } => ctx.aap_copy(rows[src], rows[dst])?,
        LoweredOp::TwoSrc { srcs, dst, mode } => {
            ctx.aap2_discard(mode, [rows[srcs[0]], rows[srcs[1]]], rows[dst])?;
        }
        LoweredOp::ThreeSrc { srcs, dst } => {
            ctx.aap3_carry_discard([rows[srcs[0]], rows[srcs[1]], rows[srcs[2]]], rows[dst])?;
        }
    }
    Ok(())
}

/// Compiles `program` through the full pass pipeline
/// (legalize → allocate → peephole) for the `options` target on the
/// native PIM-Assembler backend.
///
/// # Errors
///
/// A typed [`IrError`] (with source-kernel span) from the first failing
/// pass: decoder/SA-mode/dataflow violations from legalization, or
/// [`IrErrorKind::NotEnoughComputeSlots`] from allocation.
pub fn compile(program: &PimProgram, options: &LowerOptions) -> Result<CompiledKernel, IrError> {
    compile_backend(program, options, BackendKind::PimAssembler)
}

/// Compiles `program` for a specific lowering `backend`: the backend's
/// IR→IR rewrite runs first, then the shared pipeline
/// (legalize → allocate → peephole) under the backend's activation
/// policy. The PIM-Assembler backend's rewrite is the identity, so
/// [`compile`] and `compile_backend(…, BackendKind::PimAssembler)` emit
/// byte-identical kernels.
///
/// # Errors
///
/// A typed [`IrError`] (with source-kernel span) from the first failing
/// pass, exactly as [`compile`].
pub fn compile_backend(
    program: &PimProgram,
    options: &LowerOptions,
    backend: BackendKind,
) -> Result<CompiledKernel, IrError> {
    let lowering = backend.lowering();
    let rewritten = lowering.rewrite(program);
    let legalize_stats = legalize::legalize_with(&rewritten, lowering.allows_data_activation())?;
    let allocation = alloc::allocate(&rewritten, options.compute_slots)?;
    let scratch: Vec<bool> = allocation.roles.iter().map(|r| r.class == RowClass::Temp).collect();
    let (ops, peephole_stats) = peephole::peephole(allocation.ops, |r| scratch[r]);

    let reps = options.size.div_ceil(options.row_bits).max(1);
    let mut counts = (0u64, 0u64, 0u64);
    for op in &ops {
        match op {
            LoweredOp::Copy { .. } => counts.0 += reps as u64,
            LoweredOp::TwoSrc { .. } => counts.1 += reps as u64,
            LoweredOp::ThreeSrc { .. } => counts.2 += reps as u64,
        }
    }

    let report = CompileReport {
        kernel: rewritten.name().to_string(),
        backend,
        ops_in: rewritten.ops().len(),
        ops_out: ops.len(),
        legalize: legalize_stats,
        alloc: allocation.stats,
        peephole: peephole_stats,
        command_counts: counts,
        role_count: allocation.roles.len(),
        reps,
        temps: allocation.temps,
    };

    Ok(CompiledKernel {
        name: rewritten.name().to_string(),
        roles: allocation.roles,
        ops,
        reps,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_dram::bitrow::BitRow;
    use pim_dram::controller::Controller;
    use pim_dram::geometry::DramGeometry;

    fn setup() -> SubarrayContext {
        let mut ctrl = Controller::new(DramGeometry::paper_assembly());
        let id = ctrl.subarray_handle(0, 0, 0, 0).unwrap();
        ctrl.detach_context(id).unwrap()
    }

    #[test]
    fn canonical_kernels_compile_with_expected_counts() {
        let cols = 256;
        let xnor = compile(&kernels::xnor(), &LowerOptions::for_row(cols)).unwrap();
        assert_eq!(xnor.command_counts(), (2, 1, 0));
        assert_eq!(xnor.role_count(), 5);
        let fa = compile(&kernels::full_adder(), &LowerOptions::for_row(cols)).unwrap();
        assert_eq!(fa.command_counts(), (8, 1, 2));
        assert_eq!(fa.role_count(), 9);
        assert_eq!(fa.report().peephole, PeepholeStats::default());
    }

    #[test]
    fn illegal_programs_fail_at_compile_time_with_spans() {
        use pim_dram::sense_amp::SaMode;
        let mut p = PimProgram::new("bad");
        let a = p.input("a");
        let d = p.output("d");
        let t = p.temp("t");
        p.copy(a, t);
        p.two_src([t, t], d, SaMode::Xnor);
        let err = compile(&p, &LowerOptions::for_row(64)).unwrap_err();
        assert_eq!(err.span.kernel, "bad");
        assert_eq!(err.span.op_index, Some(1));
        assert!(matches!(err.kind, IrErrorKind::DuplicateActivation { .. }));
    }

    #[test]
    fn sensed_execution_charges_like_discard_execution() {
        let cols = DramGeometry::paper_assembly().cols;
        let kernel = compile(&kernels::xnor(), &LowerOptions::for_row(cols)).unwrap();
        let a = BitRow::from_fn(cols, |i| i % 3 == 0);
        for (b, equal) in [(a.clone(), true), (BitRow::from_fn(cols, |i| i == 255), false)] {
            let (mut sensed, mut discarded) = (setup(), setup());
            for ctx in [&mut sensed, &mut discarded] {
                ctx.write_row(1, &a).unwrap();
                ctx.write_row(2, &b).unwrap();
            }
            let rows =
                [RowAddr(1), RowAddr(2), RowAddr(9), sensed.compute_row(0), sensed.compute_row(1)];
            let all_ones = kernel.execute_all_ones(&mut sensed, &rows).unwrap();
            kernel.execute(&mut discarded, &rows).unwrap();
            assert_eq!(sensed.ledger(), discarded.ledger());
            assert_eq!(all_ones, equal);
            assert_eq!(all_ones, sensed.peek_row(9).unwrap().all_ones());
        }
    }

    #[test]
    fn text_dumps_cover_roles_ops_and_passes() {
        let kernel = compile(&kernels::full_adder(), &LowerOptions::for_row(64)).unwrap();
        let text = kernel.to_text();
        assert!(text.contains("lowered full-adder"), "{text}");
        assert!(text.contains("x1"), "{text}");
        assert!(text.contains("AAP3"), "{text}");
        assert!(text.contains("command counts per execution: AAP=8 AAP2=1 AAP3=2"), "{text}");
    }
}
