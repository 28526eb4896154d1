//! `PIM_XNOR` — the parallel in-memory comparator (Fig. 7).
//!
//! An entire temp row (one padded k-mer, up to 128 bp) is compared with a
//! stored k-mer row in a single two-row-activation cycle; the DPU's AND
//! unit then reduces the XNOR result row to the match/mismatch decision.
//! Per comparison the hardware issues:
//!
//! 1. one RowClone of the candidate row into compute row `x2`
//!    (the staged query already sits in `x1`),
//! 2. one two-source AAP in XNOR mode,
//! 3. one DPU AND-reduction.
//!
//! The comparison program itself is not hand-rolled here: the comparator
//! holds the [`Kernel::Xnor`] template lowered through the [`crate::ir`]
//! pipeline, and every probe executes that one compiled kernel, sensing
//! the final XNOR and AND-reducing the read-out in place (no row is copied
//! out of the sub-array). Sensed and discard AAPs charge identically, so
//! the command sequence is the same as issuing each AAP by hand.

use pim_dram::address::RowAddr;
use pim_dram::bitrow::BitRow;
use pim_dram::context::SubarrayContext;
use pim_dram::geometry::DramGeometry;
use pim_dram::ledger::CommandClass;

use crate::error::Result;
use crate::ir::{BackendKind, RowClass};
use crate::layout::SubarrayLayout;
use crate::template::{CompiledTemplate, Kernel, TemplateKey};

/// Upper bound on the probe kernel's role count across backends (the
/// Ambit rewrite is the widest: 3 data roles + zero constant + scratch
/// slots ≤ 8). Lets every backend bind its roles on the stack.
const MAX_PROBE_ROLES: usize = 16;

/// Executes `PIM_XNOR` comparisons against a staged query.
///
/// The comparator owns the IR-compiled XNOR kernel for its row width plus
/// the staging convention: queries are staged once per k-mer in temp row
/// 0 of the Fig. 6 layout (amortizing the write across the bucket scan),
/// then compared against any number of candidate rows by re-executing the
/// compiled kernel, which senses into temp row 1. Zero-constant roles (the
/// Ambit rewrite's row-init constant) bind the last temp row, which no
/// stage writes, so it holds the power-on zero state. The role table is
/// bound once, at construction; a probe only patches in its candidate row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PimComparator {
    xnor: CompiledTemplate,
    /// The kernel's role bindings, the first `role_count` entries; the
    /// candidate role's entry is a placeholder each probe overwrites.
    rows: [RowAddr; MAX_PROBE_ROLES],
    role_count: usize,
    /// Index of the candidate role: the kernel's second input.
    candidate: usize,
    /// The temp row queries are staged in.
    query_row: RowAddr,
}

impl PimComparator {
    /// Compiles the comparator's XNOR kernel for `geometry`'s rows on
    /// `backend`, and binds its roles to the geometry's layout and compute
    /// rows.
    pub fn new(geometry: &DramGeometry, backend: BackendKind) -> Self {
        let cols = geometry.cols;
        let xnor = CompiledTemplate::compile(
            TemplateKey::new(Kernel::Xnor, cols, cols).with_backend(backend),
        );
        assert!(xnor.role_count() <= MAX_PROBE_ROLES, "probe role table too wide");
        assert!(
            xnor.roles().iter().all(|r| r.class != RowClass::Spill),
            "probe kernel must lower spill-free on every backend"
        );
        let layout = SubarrayLayout::new(geometry);
        let query_row = layout.temp_row(0);
        let zero_row = layout.temp_row(layout.temp_rows() - 1);
        let mut rows = [RowAddr(0); MAX_PROBE_ROLES];
        // The query row stands in for the candidate until a probe names it.
        let role_count = xnor
            .bind_roles_into(
                geometry,
                &[query_row, query_row],
                &[layout.temp_row(1)],
                zero_row,
                &[],
                &mut rows,
            )
            .expect("MAX_PROBE_ROLES bounds the role table by construction");
        let candidate = xnor
            .roles()
            .iter()
            .enumerate()
            .filter(|(_, role)| role.class == RowClass::Input)
            .nth(1)
            .map(|(i, _)| i)
            .expect("the XNOR kernel compares two inputs");
        PimComparator { xnor, rows, role_count, candidate, query_row }
    }

    /// The compiled XNOR kernel the comparator probes with.
    pub fn kernel(&self) -> &CompiledTemplate {
        &self.xnor
    }

    /// The lowering backend the probe kernel was compiled for.
    pub fn backend(&self) -> BackendKind {
        self.xnor.backend()
    }

    /// Stages a query row image into the query temp row and clones it into
    /// compute row `x1`. The staging itself is an in-DRAM movement from the
    /// sequence bank (Fig. 6: "the ctrl first reads and parses the short
    /// reads from the original sequence bank to the specific sub-array"),
    /// charged as one AAP-class transfer rather than a host write. This is
    /// a single primitive, not a kernel program, so it issues directly on
    /// the context (a one-copy IR program would be peephole-eliminated as
    /// a dead scratch write).
    ///
    /// # Errors
    ///
    /// Propagates DRAM addressing errors.
    pub fn stage_query(&self, ctx: &mut SubarrayContext, image: &BitRow) -> Result<()> {
        ctx.poke_row(self.query_row, image)?;
        ctx.record_synthetic(CommandClass::Aap, 1);
        ctx.aap_copy(self.query_row, ctx.compute_row(0))?;
        Ok(())
    }

    /// Compares the staged query against `candidate`: the XNOR row goes to
    /// the scratch temp row, and the DPU's AND unit reduces the sensed
    /// read-out. Returns `true` on a full-row match.
    ///
    /// The XNOR two-row activation destroys compute rows `x1`/`x2`, so the
    /// query is re-cloned from its temp row before each comparison — the
    /// re-clone of `x1` is fused into the candidate clone window in
    /// hardware, which is why the cost model charges one copy per probe.
    ///
    /// # Errors
    ///
    /// Propagates DRAM addressing errors.
    pub fn compare(&self, ctx: &mut SubarrayContext, candidate: RowAddr) -> Result<bool> {
        let mut rows = self.rows;
        rows[self.candidate] = candidate;
        let matched = self.xnor.execute_all_ones(ctx, &rows[..self.role_count])?;
        ctx.dpu_op();
        Ok(matched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::SubarrayLayout;
    use crate::mapping::KmerMapper;
    use pim_dram::controller::Controller;
    use pim_dram::geometry::DramGeometry;
    use pim_genome::kmer::Kmer;

    /// A context of `ctrl`'s first sub-array.
    fn context(mut ctrl: Controller) -> SubarrayContext {
        let id = ctrl.subarray_handle(0, 0, 0, 0).unwrap();
        ctrl.detach_context(id).unwrap()
    }

    fn setup() -> (SubarrayContext, SubarrayLayout, KmerMapper, PimComparator) {
        let g = DramGeometry::paper_assembly();
        let cmp = PimComparator::new(&g, BackendKind::PimAssembler);
        (context(Controller::new(g)), SubarrayLayout::new(&g), KmerMapper::new(&g, 1, 8), cmp)
    }

    #[test]
    fn equal_kmers_match() {
        let (mut ctx, layout, mapper, cmp) = setup();
        let kmer: Kmer = "CGTGCGTGCTTACGGA".parse().unwrap();
        let image = mapper.row_image(&kmer, 256);
        // Store the k-mer in slot 0, stage the same k-mer as a query.
        ctx.write_row(layout.kmer_row(0).unwrap(), &image).unwrap();
        cmp.stage_query(&mut ctx, &image).unwrap();
        let matched = cmp.compare(&mut ctx, layout.kmer_row(0).unwrap()).unwrap();
        assert!(matched);
    }

    #[test]
    fn different_kmers_mismatch() {
        let (mut ctx, layout, mapper, cmp) = setup();
        let a: Kmer = "CGTGCGTGCTTACGGA".parse().unwrap();
        let b: Kmer = "CGTGCGTGCTTACGGC".parse().unwrap(); // last base differs
        ctx.write_row(layout.kmer_row(0).unwrap(), &mapper.row_image(&a, 256)).unwrap();
        cmp.stage_query(&mut ctx, &mapper.row_image(&b, 256)).unwrap();
        let matched = cmp.compare(&mut ctx, layout.kmer_row(0).unwrap()).unwrap();
        assert!(!matched);
    }

    #[test]
    fn query_survives_repeated_comparisons() {
        // The staged temp row must remain intact across destructive
        // compute-row operations so the bucket scan can continue.
        let (mut ctx, layout, mapper, cmp) = setup();
        let q: Kmer = "AAAACCCCGGGGTTTT".parse().unwrap();
        let image = mapper.row_image(&q, 256);
        for slot in 0..4usize {
            let other = Kmer::from_packed(0x1234_5678 + slot as u64, 16).unwrap();
            ctx.write_row(layout.kmer_row(slot).unwrap(), &mapper.row_image(&other, 256)).unwrap();
        }
        ctx.write_row(layout.kmer_row(4).unwrap(), &image).unwrap();
        cmp.stage_query(&mut ctx, &image).unwrap();
        let mut matches = Vec::new();
        for slot in 0..5usize {
            matches.push(cmp.compare(&mut ctx, layout.kmer_row(slot).unwrap()).unwrap());
        }
        assert_eq!(matches, vec![false, false, false, false, true]);
    }

    #[test]
    fn command_counts_per_probe() {
        let (mut ctx, layout, mapper, cmp) = setup();
        let q: Kmer = "ACGTACGTACGTACGT".parse().unwrap();
        let image = mapper.row_image(&q, 256);
        ctx.write_row(layout.kmer_row(0).unwrap(), &image).unwrap();
        cmp.stage_query(&mut ctx, &image).unwrap();
        let before = *ctx.ledger();
        cmp.compare(&mut ctx, layout.kmer_row(0).unwrap()).unwrap();
        let delta = ctx.ledger().since(&before);
        assert_eq!(delta.count(CommandClass::Aap), 2); // query re-clone + candidate clone
        assert_eq!(delta.count(CommandClass::Aap2), 1); // the XNOR
        assert_eq!(delta.count(CommandClass::Dpu), 1); // the AND reduction
    }

    #[test]
    fn retargeted_comparators_agree_with_the_default_backend() {
        let g = DramGeometry::paper_assembly();
        for backend in [BackendKind::AmbitTra, BackendKind::PandaMram] {
            let mut ctx = context(match backend {
                BackendKind::PandaMram => {
                    Controller::with_profile(g, &pim_dram::profile::BackendProfile::panda_mram())
                }
                _ => Controller::new(g),
            });
            let layout = SubarrayLayout::new(&g);
            let mapper = KmerMapper::new(&g, 1, 8);
            let cmp = PimComparator::new(&g, backend);
            assert_eq!(cmp.backend(), backend);

            let stored: Kmer = "CGTGCGTGCTTACGGA".parse().unwrap();
            let other: Kmer = "CGTGCGTGCTTACGGC".parse().unwrap();
            ctx.write_row(layout.kmer_row(0).unwrap(), &mapper.row_image(&stored, 256)).unwrap();
            for (query, expect) in [(stored, true), (other, false)] {
                cmp.stage_query(&mut ctx, &mapper.row_image(&query, 256)).unwrap();
                let matched = cmp.compare(&mut ctx, layout.kmer_row(0).unwrap()).unwrap();
                assert_eq!(matched, expect, "{backend}: query {query}");
            }
            // The command mix is backend-specific: Ambit spends strictly
            // more AAPs than the two the P-A probe issues.
            if backend == BackendKind::AmbitTra {
                assert!(cmp.kernel().command_counts().0 > 2);
            } else {
                assert_eq!(cmp.kernel().command_counts(), (0, 1, 0));
            }
        }
    }

    #[test]
    fn probe_commands_come_from_the_compiled_kernel() {
        let (_, _, _, cmp) = setup();
        assert_eq!(cmp.kernel().command_counts(), (2, 1, 0));
        assert_eq!(cmp.kernel().role_count(), 5);
    }
}
