//! Compiled AAP program templates (the IR lowering backend's execution layer).
//!
//! The assembly stages execute the same small AAP kernels — the 3-command
//! `PIM_XNOR` comparison, the 11-command full-adder slice — millions of
//! times, varying only the concrete row operands. A [`CompiledTemplate`]
//! lifts program construction out of the hot loop: a kernel *shape* —
//! [`Kernel`] × row width × bulk size, the [`TemplateKey`] — is lowered
//! once through the [`crate::ir`] pass pipeline (legalize → virtual-row
//! allocation → peephole) into a [`crate::ir::CompiledKernel`] skeleton
//! of ops over *role slots*, and then executed any number of times by
//! binding concrete rows at call time. Execution goes through the
//! discard AAP variants, so a template run is allocation-free and
//! produces byte-identical array state and command accounting to issuing
//! the same AAPs on the sub-array context one by one.
//!
//! The per-class command counts of a template
//! ([`CompiledTemplate::command_counts`]) are precomputed at compile
//! time, which is what lets callers account repeated executions in one
//! batched `charge_many`-style synthetic charge on the controller when
//! they replay a template analytically instead of executing it
//! ([`CompiledTemplate::charge_executions`]).

use pim_dram::address::RowAddr;
use pim_dram::context::SubarrayContext;
use pim_dram::controller::Controller;
use pim_dram::geometry::{DramGeometry, COMPUTE_ROWS};
use pim_dram::ledger::CommandClass;

use crate::error::{PimError, Result};
use crate::ir::{
    self, BackendKind, CompileReport, CompiledKernel, LowerOptions, OptLevel, PimProgram,
};

/// The kernels the stages compile to templates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// The 3-command comparison: clone both operands, XNOR them.
    /// Roles: `[a, b, dst, x1, x2]`.
    Xnor,
    /// The 11-command full-adder slice (Fig. 8): latch `c`, sum cycle,
    /// carry cycle. Roles: `[a, b, c, zero, sum_dst, carry_dst, x1, x2, x3]`.
    FullAdder,
    /// The 7:3 popcount counter (four chained full adders) used by the
    /// mapping stage's Hamming filter.
    /// Roles: `[i0..i6, zero, ones, twos, fours, x...]`.
    Popcount,
    /// The bitwise 2:1 mux `dst = m ? a : b` (three two-row activations,
    /// no TRA) that materialises the DP minimum once the borrow chain has
    /// left `[A < B]` in the mask row. Roles: `[a, b, m, dst, x...]`.
    MinSelect,
    /// One LSB-first borrow step of `A − B`, `bout = maj(~a, b, bin)`: the
    /// bit-serial compare of the DP-cell minimum.
    /// Roles: `[a, b, bin, zero, bout, x...]`.
    DpCell,
}

impl Kernel {
    /// The kernel's canonical IR definition (the single source of truth
    /// for its command sequence; see [`crate::ir::kernels`]).
    pub fn program(self) -> PimProgram {
        match self {
            Kernel::Xnor => ir::kernels::xnor(),
            Kernel::FullAdder => ir::kernels::full_adder(),
            Kernel::Popcount => ir::kernels::popcount(),
            Kernel::MinSelect => ir::kernels::min_select(),
            Kernel::DpCell => ir::kernels::dp_cell(),
        }
    }
}

/// One compiled shape: kernel × row width × bulk vector size × backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TemplateKey {
    /// The kernel.
    pub kernel: Kernel,
    /// Row width in bits (`DramGeometry::cols`).
    pub row_bits: usize,
    /// Bulk vector size in bits; sizes beyond one row repeat each command
    /// once per touched row when the template executes.
    pub size: usize,
    /// The lowering backend the shape compiles for (see
    /// [`crate::ir::BackendKind`]); the lowered command sequences differ
    /// per backend.
    pub backend: BackendKind,
}

impl TemplateKey {
    /// A shape for the default PIM-Assembler backend.
    pub fn new(kernel: Kernel, row_bits: usize, size: usize) -> Self {
        TemplateKey { kernel, row_bits, size, backend: BackendKind::PimAssembler }
    }

    /// The same shape retargeted to `backend`.
    pub fn with_backend(self, backend: BackendKind) -> Self {
        TemplateKey { backend, ..self }
    }

    /// The same shape: [`OptLevel::O0`] is the only level, so this
    /// changes nothing. Kept only for the benchmark's call site; the next
    /// benchmark change drops it with that call (ROADMAP item 7).
    pub fn with_opt(self, opt: OptLevel) -> Self {
        let OptLevel::O0 = opt;
        self
    }
}

/// A compiled, reusable AAP kernel skeleton.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledTemplate {
    key: TemplateKey,
    inner: CompiledKernel,
}

impl CompiledTemplate {
    /// Compiles the skeleton for `key` through the IR pass pipeline on the
    /// key's backend.
    pub fn compile(key: TemplateKey) -> Self {
        let options =
            LowerOptions { row_bits: key.row_bits, size: key.size, compute_slots: COMPUTE_ROWS };
        let inner = ir::compile_backend(&key.kernel.program(), &options, key.backend)
            .expect("built-in kernels are legal on every backend by construction");
        CompiledTemplate { key, inner }
    }

    /// The shape this template was compiled for.
    pub fn key(&self) -> &TemplateKey {
        &self.key
    }

    /// The lowering backend this template was compiled for.
    pub fn backend(&self) -> BackendKind {
        self.key.backend
    }

    /// Number of row roles the template binds at execution time.
    pub fn role_count(&self) -> usize {
        self.inner.role_count()
    }

    /// The role table, in caller-binding order (see
    /// [`crate::ir::CompiledKernel::roles`]). Backend-aware callers use
    /// the role *classes* to build bindings generically — different
    /// backends lower the same kernel to different role tables (e.g. the
    /// Ambit rewrite adds a zero-constant role and more scratch slots).
    pub fn roles(&self) -> &[ir::RowDecl] {
        self.inner.roles()
    }

    /// The IR compile report (pass statistics and allocation map).
    pub fn report(&self) -> &CompileReport {
        self.inner.report()
    }

    /// Per-class command counts of one execution, `(aap, aap2, aap3)` —
    /// precomputed so a caller replaying the template analytically can
    /// charge `n` executions in three batched synthetic charges instead
    /// of `n × ops` individual ones.
    pub fn command_counts(&self) -> (u64, u64, u64) {
        self.inner.command_counts()
    }

    /// Charges `n` executions of this template to the controller's
    /// global ledger as synthetic commands without executing them
    /// (batched `charge_many` accounting; see
    /// [`Controller::record_synthetic`]).
    pub fn charge_executions(&self, ctrl: &mut Controller, n: u64) {
        let (aap, aap2, aap3) = self.command_counts();
        ctrl.record_synthetic(CommandClass::Aap, aap * n);
        ctrl.record_synthetic(CommandClass::Aap2, aap2 * n);
        ctrl.record_synthetic(CommandClass::Aap3, aap3 * n);
    }

    /// Number of spill roles the lowered kernel carries (zero for every
    /// kernel that fits the compute-row register file; the deep popcount
    /// counter spills on the Ambit rewrite and needs that many dedicated
    /// scratch rows bound at execution time).
    pub fn spill_role_count(&self) -> usize {
        self.inner.roles().iter().filter(|r| r.class == ir::RowClass::Spill).count()
    }

    /// Builds the caller binding for this template's role table by *class*
    /// into `rows`: [`ir::RowClass::Input`] roles consume `inputs` in
    /// declaration order, [`ir::RowClass::Output`] roles consume `outputs`,
    /// [`ir::RowClass::Zero`] roles bind `zero` (which must address an
    /// all-zero row), [`ir::RowClass::Temp`] roles bind the geometry's
    /// compute rows in slot order, and [`ir::RowClass::Spill`] roles
    /// consume `spills` (caller-owned scratch data rows; see
    /// [`CompiledTemplate::spill_role_count`]). Returns the role count
    /// (the bound prefix of `rows`).
    ///
    /// This is how backend-agnostic callers execute a retargeted template:
    /// the role *table* differs per backend (the Ambit rewrite adds a
    /// zero-constant role and more scratch slots), but the classes fully
    /// determine the binding.
    ///
    /// # Errors
    ///
    /// [`PimError::TemplateArity`] if `rows` is shorter than the role
    /// table, or if `inputs`, `outputs` or `spills` does not match the
    /// kernel's input, output or spill role count (`expected` is the
    /// class's role count, `provided` the rows supplied for it).
    pub fn bind_roles_into(
        &self,
        geometry: &DramGeometry,
        inputs: &[RowAddr],
        outputs: &[RowAddr],
        zero: RowAddr,
        spills: &[RowAddr],
        rows: &mut [RowAddr],
    ) -> Result<usize> {
        let roles = self.inner.roles();
        if rows.len() < roles.len() {
            return Err(PimError::TemplateArity { expected: roles.len(), provided: rows.len() });
        }
        // Counts every role of a class, bound or not, so a short binding
        // still reports the class's full role count.
        fn take(bound: &[RowAddr], n: &mut usize) -> Option<RowAddr> {
            *n += 1;
            bound.get(*n - 1).copied()
        }
        let (mut ni, mut no, mut nt, mut ns) = (0usize, 0usize, 0usize, 0usize);
        for (slot, role) in rows.iter_mut().zip(roles) {
            let row = match role.class {
                ir::RowClass::Input => take(inputs, &mut ni),
                ir::RowClass::Output => take(outputs, &mut no),
                ir::RowClass::Zero => Some(zero),
                ir::RowClass::Temp => {
                    nt += 1;
                    Some(RowAddr(geometry.compute_row(nt - 1)))
                }
                ir::RowClass::Spill => take(spills, &mut ns),
            };
            if let Some(row) = row {
                *slot = row;
            }
        }
        for (expected, provided) in [(ni, inputs.len()), (no, outputs.len()), (ns, spills.len())] {
            if expected != provided {
                return Err(PimError::TemplateArity { expected, provided });
            }
        }
        Ok(roles.len())
    }

    fn check_arity(&self, rows: &[RowAddr]) -> Result<()> {
        if rows.len() != self.inner.role_count() {
            return Err(PimError::TemplateArity {
                expected: self.inner.role_count(),
                provided: rows.len(),
            });
        }
        Ok(())
    }

    /// Executes the template on `ctx` with the given role bindings.
    /// Allocation-free: every command issues through the discard AAP
    /// variants; state and accounting are byte-identical to issuing the
    /// same AAPs on the context one by one.
    ///
    /// # Errors
    ///
    /// * [`PimError::TemplateArity`] if `rows.len()` differs from the
    ///   kernel's role count.
    /// * DRAM addressing/decoder errors from the sub-array.
    pub fn execute(&self, ctx: &mut SubarrayContext, rows: &[RowAddr]) -> Result<()> {
        self.check_arity(rows)?;
        self.inner.execute(ctx, rows)
    }

    /// Executes the template, sensing the final command and AND-reducing
    /// its read-out: whether every sensed bit is one (the comparison-kernel
    /// path; see [`crate::ir::CompiledKernel::execute_all_ones`]). The
    /// ledger is byte-identical to [`CompiledTemplate::execute`].
    ///
    /// # Errors
    ///
    /// Same as [`CompiledTemplate::execute`].
    ///
    /// # Panics
    ///
    /// Panics if the lowered kernel does not end in a two-source AAP.
    pub fn execute_all_ones(&self, ctx: &mut SubarrayContext, rows: &[RowAddr]) -> Result<bool> {
        self.check_arity(rows)?;
        self.inner.execute_all_ones(ctx, rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_dram::bitrow::BitRow;
    use pim_dram::controller::Controller;
    use pim_dram::geometry::DramGeometry;
    use pim_dram::sense_amp::SaMode;

    fn setup() -> SubarrayContext {
        let mut ctrl = Controller::new(DramGeometry::paper_assembly());
        let id = ctrl.subarray_handle(0, 0, 0, 0).unwrap();
        ctrl.detach_context(id).unwrap()
    }

    fn xnor_key(cols: usize) -> TemplateKey {
        TemplateKey::new(Kernel::Xnor, cols, cols)
    }

    /// Issues the XNOR kernel's three AAPs directly on `ctx`, each
    /// repeated `reps` times: the reference a template run must match.
    fn direct_xnor(ctx: &mut SubarrayContext, rows: [RowAddr; 5], reps: usize) {
        let [a, b, dst, x1, x2] = rows;
        for _ in 0..reps {
            ctx.aap_copy(a, x1).unwrap();
        }
        for _ in 0..reps {
            ctx.aap_copy(b, x2).unwrap();
        }
        for _ in 0..reps {
            ctx.aap2_discard(SaMode::Xnor, [x1, x2], dst).unwrap();
        }
    }

    /// Asserts two contexts hold identical ledgers and rows.
    fn assert_identical(a: &SubarrayContext, b: &SubarrayContext) {
        assert_eq!(a.ledger(), b.ledger());
        for row in 0..a.geometry().rows {
            assert_eq!(a.peek_row(row).unwrap(), b.peek_row(row).unwrap(), "row {row}");
        }
    }

    #[test]
    fn template_execution_matches_direct_aaps() {
        let cols = DramGeometry::paper_assembly().cols;
        let a = BitRow::from_fn(cols, |i| i % 2 == 0);
        let b = BitRow::from_fn(cols, |i| i % 3 == 0);

        let mut templated = setup();
        let mut direct = setup();
        for ctx in [&mut templated, &mut direct] {
            ctx.write_row(1, &a).unwrap();
            ctx.write_row(2, &b).unwrap();
        }
        let rows =
            [RowAddr(1), RowAddr(2), RowAddr(9), direct.compute_row(0), direct.compute_row(1)];
        let template = CompiledTemplate::compile(xnor_key(cols));
        template.execute(&mut templated, &rows).unwrap();
        direct_xnor(&mut direct, rows, 1);

        assert_identical(&templated, &direct);
        assert_eq!(templated.peek_row(9).unwrap(), a.xnor(&b));
    }

    #[test]
    fn full_adder_template_matches_direct_aaps() {
        let cols = DramGeometry::paper_assembly().cols;
        let a = BitRow::from_fn(cols, |i| i % 2 == 0);
        let b = BitRow::from_fn(cols, |i| i % 3 == 0);
        let c = BitRow::from_fn(cols, |i| i % 5 == 0);
        let mut templated = setup();
        let mut direct = setup();
        for ctx in [&mut templated, &mut direct] {
            for (row, data) in [(1, &a), (2, &b), (3, &c), (4, &BitRow::zeros(cols))] {
                ctx.write_row(row, data).unwrap();
            }
        }
        let (ra, rb, rc, zero, sum, carry) =
            (RowAddr(1), RowAddr(2), RowAddr(3), RowAddr(4), RowAddr(10), RowAddr(11));
        let x = [direct.compute_row(0), direct.compute_row(1), direct.compute_row(2)];
        let template = CompiledTemplate::compile(TemplateKey::new(Kernel::FullAdder, cols, cols));
        template
            .execute(&mut templated, &[ra, rb, rc, zero, sum, carry, x[0], x[1], x[2]])
            .unwrap();

        // Latch cycle, sum cycle, carry cycle: the paper's 11 commands.
        for (src, dst) in [(rc, x[0]), (zero, x[1]), (rc, x[2])] {
            direct.aap_copy(src, dst).unwrap();
        }
        direct.aap3_carry_discard(x, sum).unwrap();
        for (src, dst) in [(ra, x[0]), (rb, x[1])] {
            direct.aap_copy(src, dst).unwrap();
        }
        direct.aap2_discard(SaMode::CarrySum, [x[0], x[1]], sum).unwrap();
        for (src, dst) in [(ra, x[0]), (rb, x[1]), (rc, x[2])] {
            direct.aap_copy(src, dst).unwrap();
        }
        direct.aap3_carry_discard(x, carry).unwrap();

        assert_identical(&templated, &direct);
        assert_eq!(templated.peek_row(sum).unwrap(), a.xor(&b).xor(&c));
        assert_eq!(templated.peek_row(carry).unwrap(), BitRow::maj3(&a, &b, &c));
        assert_eq!(template.command_counts(), (8, 1, 2));
    }

    #[test]
    fn arity_mismatch_is_an_error() {
        let cols = DramGeometry::paper_assembly().cols;
        let mut ctx = setup();
        let template = CompiledTemplate::compile(xnor_key(cols));
        let err = template.execute(&mut ctx, &[RowAddr(0)]).unwrap_err();
        assert_eq!(err, PimError::TemplateArity { expected: 5, provided: 1 });
        assert!(err.to_string().contains("5"));
    }

    /// Binds `template` on a paper controller with the given class rows.
    fn bind(
        template: &CompiledTemplate,
        inputs: &[RowAddr],
        outputs: &[RowAddr],
        spills: &[RowAddr],
    ) -> Result<usize> {
        let g = DramGeometry::paper_assembly();
        let mut rows = [RowAddr(0); 32];
        template.bind_roles_into(&g, inputs, outputs, RowAddr(4), spills, &mut rows)
    }

    #[test]
    fn binding_too_few_inputs_is_an_arity_error() {
        let xnor = CompiledTemplate::compile(xnor_key(256));
        let err = bind(&xnor, &[RowAddr(1)], &[RowAddr(9)], &[]).unwrap_err();
        assert_eq!(err, PimError::TemplateArity { expected: 2, provided: 1 });
    }

    #[test]
    fn binding_too_few_outputs_is_an_arity_error() {
        let xnor = CompiledTemplate::compile(xnor_key(256));
        let err = bind(&xnor, &[RowAddr(1), RowAddr(2)], &[], &[]).unwrap_err();
        assert_eq!(err, PimError::TemplateArity { expected: 1, provided: 0 });
    }

    #[test]
    fn binding_without_spill_rows_is_an_arity_error() {
        let key = TemplateKey::new(Kernel::Popcount, 256, 256).with_backend(BackendKind::AmbitTra);
        let popcount = CompiledTemplate::compile(key);
        let count = |class| popcount.roles().iter().filter(|r| r.class == class).count();
        let inputs: Vec<_> = (0..count(ir::RowClass::Input)).map(|i| RowAddr(10 + i)).collect();
        let outputs: Vec<_> = (0..count(ir::RowClass::Output)).map(|i| RowAddr(20 + i)).collect();
        let spills: Vec<_> = (0..popcount.spill_role_count()).map(|i| RowAddr(30 + i)).collect();
        assert_eq!(bind(&popcount, &inputs, &outputs, &spills), Ok(popcount.role_count()));
        let err = bind(&popcount, &inputs, &outputs, &[]).unwrap_err();
        assert_eq!(err, PimError::TemplateArity { expected: 5, provided: 0 });
    }

    #[test]
    fn surplus_bindings_are_an_arity_error() {
        let xnor = CompiledTemplate::compile(xnor_key(256));
        let (a, b, out) = (RowAddr(1), RowAddr(2), RowAddr(9));
        assert_eq!(bind(&xnor, &[a, b], &[out], &[]), Ok(5));
        let err = bind(&xnor, &[a, b, RowAddr(3)], &[out], &[]).unwrap_err();
        assert_eq!(err, PimError::TemplateArity { expected: 2, provided: 3 });
        let err = bind(&xnor, &[a, b], &[out, RowAddr(10)], &[]).unwrap_err();
        assert_eq!(err, PimError::TemplateArity { expected: 1, provided: 2 });
        let err = bind(&xnor, &[a, b], &[out], &[RowAddr(30)]).unwrap_err();
        assert_eq!(err, PimError::TemplateArity { expected: 0, provided: 1 });
    }

    #[test]
    fn backends_compile_to_distinct_command_mixes() {
        let counts = |backend| {
            CompiledTemplate::compile(xnor_key(256).with_backend(backend)).command_counts()
        };
        let pa = counts(BackendKind::PimAssembler);
        assert_eq!(pa, (2, 1, 0));
        assert_ne!(counts(BackendKind::AmbitTra), pa);
        assert_eq!(counts(BackendKind::PandaMram), (0, 1, 0));
    }

    #[test]
    fn bulk_sizes_repeat_each_command_per_row() {
        let cols = DramGeometry::paper_assembly().cols;
        let key = TemplateKey::new(Kernel::Xnor, cols, 3 * cols);
        let template = CompiledTemplate::compile(key);
        assert_eq!(template.command_counts(), (6, 3, 0));

        let mut templated = setup();
        let mut direct = setup();
        let rows =
            [RowAddr(1), RowAddr(2), RowAddr(9), direct.compute_row(0), direct.compute_row(1)];
        template.execute(&mut templated, &rows).unwrap();
        direct_xnor(&mut direct, rows, 3);
        assert_identical(&templated, &direct);
        assert_eq!(templated.ledger().count(CommandClass::Aap), 6);
        assert_eq!(templated.ledger().count(CommandClass::Aap2), 3);
    }

    #[test]
    fn charge_executions_matches_executed_accounting() {
        let cols = DramGeometry::paper_assembly().cols;
        let template = CompiledTemplate::compile(xnor_key(cols));

        let mut executed = setup();
        let rows =
            [RowAddr(1), RowAddr(2), RowAddr(9), executed.compute_row(0), executed.compute_row(1)];
        for _ in 0..5 {
            template.execute(&mut executed, &rows).unwrap();
        }

        let mut charged = Controller::new(DramGeometry::paper_assembly());
        template.charge_executions(&mut charged, 5);
        assert_eq!(executed.ledger(), charged.ledger());
    }

    #[test]
    fn template_role_counts_come_from_the_lowered_kernel() {
        let x = CompiledTemplate::compile(xnor_key(64));
        assert_eq!(x.role_count(), 5);
        let fa = CompiledTemplate::compile(TemplateKey::new(Kernel::FullAdder, 64, 64));
        assert_eq!(fa.role_count(), 9);
        assert_eq!(fa.report().alloc.slots_used, 3);
        assert_eq!(fa.report().alloc.spill_stores, 0);
    }

    #[test]
    fn mapping_kernels_lower_spill_free_on_every_backend() {
        for kernel in [Kernel::Popcount, Kernel::MinSelect, Kernel::DpCell] {
            for backend in BackendKind::ALL {
                let t = CompiledTemplate::compile(
                    TemplateKey::new(kernel, 256, 256).with_backend(backend),
                );
                if kernel == Kernel::Popcount && backend == BackendKind::AmbitTra {
                    // The 7:3 counter keeps ~7 rows live; the Ambit
                    // rewrite's extra staging pushes it past the 8-row
                    // register file.
                    assert_eq!(t.spill_role_count(), 5);
                } else {
                    assert_eq!(t.spill_role_count(), 0, "{kernel:?} on {backend:?} spilled");
                }
                assert!(t.report().alloc.slots_used <= COMPUTE_ROWS);
            }
        }
    }

    #[test]
    fn sensed_template_execution_charges_identically() {
        let cols = DramGeometry::paper_assembly().cols;
        let a = BitRow::from_fn(cols, |i| i % 5 == 0);
        let template = CompiledTemplate::compile(xnor_key(cols));
        for (b, equal) in [(BitRow::from_fn(cols, |i| i % 7 == 0), false), (a.clone(), true)] {
            let mut sensed = setup();
            let mut discarded = setup();
            for ctx in [&mut sensed, &mut discarded] {
                ctx.write_row(1, &a).unwrap();
                ctx.write_row(2, &b).unwrap();
            }
            let rows =
                [RowAddr(1), RowAddr(2), RowAddr(9), sensed.compute_row(0), sensed.compute_row(1)];
            let all_ones = template.execute_all_ones(&mut sensed, &rows).unwrap();
            template.execute(&mut discarded, &rows).unwrap();
            assert_eq!(all_ones, equal);
            assert_eq!(sensed.peek_row(9).unwrap(), a.xnor(&b));
            assert_identical(&sensed, &discarded);
        }
    }
}
