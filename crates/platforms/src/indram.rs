//! The processing-in-DRAM platform family.
//!
//! All four in-DRAM designs (PIM-Assembler, Ambit, DRISA-1T1C, DRISA-3T1C)
//! run over the identical array organization of [`PimArraySpec`]; what
//! differs is how many row-wide commands each bulk operation costs:
//!
//! | op | P-A | Ambit | DRISA-1T1C | DRISA-3T1C |
//! |----|-----|-------|------------|------------|
//! | XNOR2/XOR2 | 3 (2 RowClones + 1 two-row AAP) | 7 (§I: "Ambit imposes 7 memory cycles to implement X(N)OR") | 6 (NOR-composition) | 11 (AND/NOT composition on the slower 3T1C array) |
//! | AND2/OR2 | 3 | 4 (copies + control-row init + TRA) | 3 | 2 (native 3T1C AND) |
//! | NOT | 2 | 2 (DCC row) | 1 | 1 |
//! | MAJ3 | 4 (3 copies + TRA) | 5 (init + copies + TRA) | 9 | 13 |
//! | COPY | 1 | 1 | 1 | 1 |
//! | addition | 4 / bit-slice (2 copies + carry + sum) | 10 / bit (majority-based carry + X(N)OR-heavy sum) | 8 / bit (NOR full adder) | 14 / bit |
//!
//! The PIM-Assembler counts follow directly from §II-A (single-cycle XNOR
//! after operand RowClones; carry and sum in one cycle each). The baseline
//! counts reproduce the paper's measured ratios: P-A is 2.3× / 1.9× / 3.7×
//! faster than Ambit / D1 / D3 on bulk X(N)OR (§II-B).
//!
//! These analytic tables are pinned against the command streams the IR
//! lowering actually executes
//! (`analytic_tables_match_the_executed_command_streams`): the P-A column
//! must equal the compiled-template counts exactly, and the idealized
//! Ambit column (control rows held resident) must never exceed the
//! general-purpose `ambit-tra` lowering's executed mix.

use crate::ops::BulkOp;
use crate::platform::Platform;
use crate::spec::PimArraySpec;

/// Per-operation command counts of one in-DRAM design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpCostTable {
    /// AAP-equivalents for NOT.
    pub not: f64,
    /// AAP-equivalents for AND2/OR2.
    pub and_or: f64,
    /// AAP-equivalents for XOR2/XNOR2 (cold: operand staging included —
    /// what Fig. 3b's standalone bulk operations pay).
    pub xnor: f64,
    /// AAP-equivalents for MAJ3.
    pub maj3: f64,
    /// AAP-equivalents for COPY.
    pub copy: f64,
    /// AAP-equivalents per bit-slice of elementwise addition.
    pub add_per_bit: f64,
    /// Effective AAP-equivalents of one *pipelined* hash-probe comparison:
    /// during a bucket scan the next candidate's RowClone overlaps the
    /// current activation window (double-buffered through x3/x4), so
    /// PIM-Assembler's probe converges to the paper's single-cycle claim.
    /// Baseline designs overlap their staging passes too but keep their
    /// multi-cycle logic composition on the critical path. Calibrated to
    /// the Fig. 9 per-platform execution-time ratios.
    pub pipelined_xnor: f64,
}

impl OpCostTable {
    /// Cost of one bulk op in AAP-equivalents.
    pub fn cost(&self, op: BulkOp) -> f64 {
        match op {
            BulkOp::Not => self.not,
            BulkOp::And2 | BulkOp::Or2 => self.and_or,
            BulkOp::Xor2 | BulkOp::Xnor2 => self.xnor,
            BulkOp::Maj3 => self.maj3,
            BulkOp::Copy => self.copy,
        }
    }
}

/// One member of the in-DRAM platform family.
///
/// # Examples
///
/// ```
/// use pim_platforms::{indram::InDramPlatform, platform::Platform, ops::BulkOp};
///
/// let pa = InDramPlatform::pim_assembler();
/// let ambit = InDramPlatform::ambit();
/// let ratio = pa.bulk_op_throughput(BulkOp::Xnor2, 1 << 27)
///     / ambit.bulk_op_throughput(BulkOp::Xnor2, 1 << 27);
/// assert!((ratio - 7.0 / 3.0).abs() < 1e-9); // 2.33× — the paper's 2.3×
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InDramPlatform {
    name: &'static str,
    spec: PimArraySpec,
    costs: OpCostTable,
}

impl InDramPlatform {
    /// PIM-Assembler over the §II-B throughput array.
    pub fn pim_assembler() -> Self {
        InDramPlatform::pim_assembler_with_spec(PimArraySpec::paper_throughput())
    }

    /// PIM-Assembler over an explicit array spec.
    pub fn pim_assembler_with_spec(spec: PimArraySpec) -> Self {
        InDramPlatform {
            name: "P-A",
            spec,
            costs: OpCostTable {
                not: 2.0,
                and_or: 3.0,
                xnor: 3.0,
                maj3: 4.0,
                copy: 1.0,
                add_per_bit: 4.0,
                pipelined_xnor: 1.0,
            },
        }
    }

    /// Ambit (Seshadri et al., MICRO'17): TRA-based, needs control-row
    /// initialization and 7 cycles for X(N)OR.
    pub fn ambit() -> Self {
        InDramPlatform::ambit_with_spec(PimArraySpec::paper_throughput())
    }

    /// Ambit over an explicit array spec.
    pub fn ambit_with_spec(spec: PimArraySpec) -> Self {
        InDramPlatform {
            name: "Ambit",
            spec,
            costs: OpCostTable {
                not: 2.0,
                and_or: 4.0,
                xnor: 7.0,
                maj3: 5.0,
                copy: 1.0,
                add_per_bit: 10.0,
                pipelined_xnor: 3.2,
            },
        }
    }

    /// DRISA-1T1C (Li et al., MICRO'17): NOR-based logic composition.
    pub fn drisa_1t1c() -> Self {
        InDramPlatform::drisa_1t1c_with_spec(PimArraySpec::paper_throughput())
    }

    /// DRISA-1T1C over an explicit array spec.
    pub fn drisa_1t1c_with_spec(spec: PimArraySpec) -> Self {
        InDramPlatform {
            name: "D1",
            spec,
            costs: OpCostTable {
                not: 1.0,
                and_or: 3.0,
                xnor: 6.0,
                maj3: 9.0,
                copy: 1.0,
                add_per_bit: 8.0,
                pipelined_xnor: 3.1,
            },
        }
    }

    /// DRISA-3T1C: native AND through the decoupled 3T1C cell, but a
    /// slower, lower-density array makes composed X(N)OR expensive.
    pub fn drisa_3t1c() -> Self {
        InDramPlatform::drisa_3t1c_with_spec(PimArraySpec::paper_throughput())
    }

    /// DRISA-3T1C over an explicit array spec.
    pub fn drisa_3t1c_with_spec(spec: PimArraySpec) -> Self {
        InDramPlatform {
            name: "D3",
            spec,
            costs: OpCostTable {
                not: 1.0,
                and_or: 2.0,
                xnor: 11.0,
                maj3: 13.0,
                copy: 1.0,
                add_per_bit: 14.0,
                pipelined_xnor: 2.7,
            },
        }
    }

    /// The array spec in use.
    pub fn spec(&self) -> &PimArraySpec {
        &self.spec
    }

    /// The per-operation cost table.
    pub fn costs(&self) -> &OpCostTable {
        &self.costs
    }

    /// AAP-equivalents to run `op` over `bits` input bits.
    pub fn total_aaps(&self, op: BulkOp, bits: u128) -> f64 {
        let rows = (bits as f64 / self.spec.bits_per_parallel_op()).ceil();
        rows * self.costs.cost(op)
    }
}

impl Platform for InDramPlatform {
    fn name(&self) -> &'static str {
        self.name
    }

    fn bulk_op_throughput(&self, op: BulkOp, bits: u128) -> f64 {
        let seconds = self.total_aaps(op, bits) * self.spec.aap_ns * 1e-9;
        bits as f64 / seconds
    }

    fn addition_throughput(&self, element_bits: usize, bits: u128) -> f64 {
        // Bit-serial over a transposed layout: each parallel row op covers
        // one bit position of `bits_per_parallel_op()` elements-bits.
        let slices = (bits as f64 / self.spec.bits_per_parallel_op()).ceil();
        let aaps = slices * self.costs.add_per_bit;
        let _ = element_bits; // cost is per bit regardless of element width
        bits as f64 / (aaps * self.spec.aap_ns * 1e-9)
    }

    fn bulk_power_w(&self) -> f64 {
        // All parallel sub-arrays fire one AAP per aap_ns.
        let dynamic =
            self.spec.parallel_subarrays as f64 * self.spec.aap_multi_nj / self.spec.aap_ns; // nJ/ns = W
        dynamic + self.spec.background_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_xnor_ratios() {
        let bits = 1u128 << 28;
        let pa = InDramPlatform::pim_assembler().bulk_op_throughput(BulkOp::Xnor2, bits);
        let ambit = InDramPlatform::ambit().bulk_op_throughput(BulkOp::Xnor2, bits);
        let d1 = InDramPlatform::drisa_1t1c().bulk_op_throughput(BulkOp::Xnor2, bits);
        let d3 = InDramPlatform::drisa_3t1c().bulk_op_throughput(BulkOp::Xnor2, bits);
        // Paper §II-B: 2.3×, 1.9×, 3.7×.
        assert!((pa / ambit - 2.33).abs() < 0.1, "vs Ambit: {}", pa / ambit);
        assert!((pa / d1 - 2.0).abs() < 0.15, "vs D1: {}", pa / d1);
        assert!((pa / d3 - 3.67).abs() < 0.1, "vs D3: {}", pa / d3);
    }

    #[test]
    fn throughput_independent_of_vector_size_when_aligned() {
        let pa = InDramPlatform::pim_assembler();
        let t1 = pa.bulk_op_throughput(BulkOp::Xnor2, 1 << 27);
        let t2 = pa.bulk_op_throughput(BulkOp::Xnor2, 1 << 29);
        assert!((t1 - t2).abs() / t1 < 1e-6);
    }

    #[test]
    fn and_is_cheaper_than_xnor_on_every_design() {
        for p in [
            InDramPlatform::pim_assembler(),
            InDramPlatform::ambit(),
            InDramPlatform::drisa_1t1c(),
            InDramPlatform::drisa_3t1c(),
        ] {
            assert!(
                p.bulk_op_throughput(BulkOp::And2, 1 << 27)
                    >= p.bulk_op_throughput(BulkOp::Xnor2, 1 << 27),
                "{}",
                p.name()
            );
        }
    }

    #[test]
    fn addition_ratios_follow_cost_table() {
        let bits = 1u128 << 28;
        let pa = InDramPlatform::pim_assembler().addition_throughput(32, bits);
        let ambit = InDramPlatform::ambit().addition_throughput(32, bits);
        assert!((pa / ambit - 10.0 / 4.0).abs() < 1e-6);
    }

    #[test]
    fn power_is_positive_and_finite() {
        for p in [InDramPlatform::pim_assembler(), InDramPlatform::ambit()] {
            let w = p.bulk_power_w();
            assert!(w.is_finite() && w > 0.0);
        }
    }

    #[test]
    fn analytic_tables_match_the_executed_command_streams() {
        use pim_assembler::ir::BackendKind;
        use pim_assembler::template::{CompiledTemplate, Kernel, TemplateKey};

        let total = |t: &CompiledTemplate| {
            let (aap, aap2, aap3) = t.command_counts();
            (aap + aap2 + aap3) as f64
        };

        // PIM-Assembler: the analytic column IS the executed command mix.
        let pa = *InDramPlatform::pim_assembler().costs();
        let xnor = CompiledTemplate::compile(TemplateKey::new(Kernel::Xnor, 256, 256));
        let adder = CompiledTemplate::compile(TemplateKey::new(Kernel::FullAdder, 256, 256));
        assert_eq!(total(&xnor), pa.xnor, "cold X(N)OR = the compiled probe");
        assert_eq!(
            total(&adder),
            2.0 * pa.maj3 + pa.xnor,
            "cold full-adder slice = two majority passes plus the sum cycle"
        );
        let (xnor_aap, ..) = xnor.command_counts();
        assert_eq!(
            pa.pipelined_xnor,
            total(&xnor) - xnor_aap as f64,
            "pipelined probe hides exactly the staging copies"
        );
        let (_, fa_aap2, fa_aap3) = adder.command_counts();
        assert_eq!(
            pa.add_per_bit,
            (fa_aap2 + fa_aap3 + 1) as f64,
            "steady-state slice keeps operands resident, re-staging one row"
        );

        // Ambit: the analytic costs assume resident control rows, so the
        // general-purpose `ambit-tra` lowering can only spend more.
        let ambit = *InDramPlatform::ambit().costs();
        let xnor_a = CompiledTemplate::compile(
            TemplateKey::new(Kernel::Xnor, 256, 256).with_backend(BackendKind::AmbitTra),
        );
        let adder_a = CompiledTemplate::compile(
            TemplateKey::new(Kernel::FullAdder, 256, 256).with_backend(BackendKind::AmbitTra),
        );
        assert!(total(&xnor_a) >= ambit.xnor, "{} < {}", total(&xnor_a), ambit.xnor);
        assert!(
            total(&adder_a) >= ambit.add_per_bit,
            "{} < {}",
            total(&adder_a),
            ambit.add_per_bit
        );
    }

    #[test]
    fn total_aaps_rounds_up_partial_rows() {
        let pa = InDramPlatform::pim_assembler();
        let tiny = pa.total_aaps(BulkOp::Xnor2, 1);
        assert_eq!(tiny, 3.0); // one row op minimum
    }
}
