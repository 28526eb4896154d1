//! Pipeline stage budgets — expected command bounds derived from the
//! compiled AAP templates.
//!
//! Every stage executes a small set of compiled kernels
//! ([`crate::template::CompiledTemplate`]) whose per-execution command mix
//! is known exactly: the [`crate::ir`] lowering pipeline counts commands
//! per class while emitting each kernel and records them in the
//! [`crate::ir::CompileReport`] ([`CompiledTemplate::command_counts`]
//! exposes the same numbers). That makes the
//! *command mix per unit of algorithmic work* (per probe, per inserted
//! k-mer, per adder slice) a compile-time constant, and any run whose
//! counters drift past those ratios has a hot-path regression: a kernel
//! re-emitting commands, a stage double-charging, or a fallback silently
//! engaging. [`pipeline_budget`] encodes the ratios as
//! [`StageBudget`] lines over the [`pim_obsv`] snapshot keys; the
//! `pim-verify` invariant checker evaluates them after every pipeline run.

use pim_dram::ledger::{CommandClass, EnergyLedger};
use pim_obsv::{BudgetLine, StageBudget};

use crate::mapping_stage::{DpWidth, MappingConfig};
use crate::template::{CompiledTemplate, Kernel, TemplateKey};

/// Builds the stage budget for a pipeline run on sub-arrays of `cols`
/// columns.
///
/// The factors come straight from the compiled templates:
///
/// * **Hashmap** — each probe is one `PIM_XNOR` comparison
///   ([`Kernel::Xnor`]: 2 AAP copies + 1 AAP2), each offered k-mer pays at
///   most one staged query (2 AAP) plus a counter read/write or
///   `MEM_insert` tail (≤ 2 AAP).
/// * **DeBruijn** — each surviving k-mer `MEM_insert`s exactly three rows
///   (node₁, node₂, edge entry).
/// * **Traverse** — degree accumulation is full-adder slices
///   ([`Kernel::FullAdder`]: 8 AAP, 1 AAP2, 2 AAP3), so TRA (AAP3) and
///   copy (AAP) volume is bounded by a fixed multiple of the sum cycles
///   (AAP2); the synthetic fallback charges the identical ratio.
///
/// The mapping lines take the default [`MappingConfig`]'s DP width for
/// the longest read a row holds (`cols / 2` bp); an assembly run leaves
/// every mapping counter at zero.
pub fn pipeline_budget(cols: usize) -> StageBudget {
    pipeline_budget_at(cols, MappingConfig::default().dp_width(cols / 2))
}

/// [`pipeline_budget`] for a run whose mapping DP runs at `dp`'s width
/// (the run's own [`MappingConfig::dp_width`]).
pub fn pipeline_budget_at(cols: usize, dp: DpWidth) -> StageBudget {
    let compile = |k: Kernel| CompiledTemplate::compile(TemplateKey::new(k, cols, cols));
    let xnor = compile(Kernel::Xnor);
    let adder = compile(Kernel::FullAdder);
    let popcount = compile(Kernel::Popcount);
    let dp_cell = compile(Kernel::DpCell);
    let min_select = compile(Kernel::MinSelect);
    let (xnor_aap, xnor_aap2, _) = xnor.command_counts();
    let (fa_aap, fa_aap2, fa_aap3) = adder.command_counts();
    let (pop_aap, pop_aap2, pop_aap3) = popcount.command_counts();
    let (dp_aap, dp_aap2, dp_aap3) = dp_cell.command_counts();
    let (ms_aap, ms_aap2, ms_aap3) = min_select.command_counts();
    // Mapping-stage work units (see `crate::mapping_stage`):
    //
    // * Each popcount execution owns its share of the column sum: carry-
    //   save runs at most one full adder per addend plane (every FA
    //   retires a net row) and the ripple tail adds ≤ 8 more per of the
    //   3 weighted sums — ≤ 24 per chunk, and a chunk holds ≥ 1 popcount
    //   group, so FA executions ≤ (1 + 24) + 2 ≈ 27 per popcount.
    // * Each DP wavefront cell is two bit-serial min passes, each W
    //   LSB-first dp-cell borrow steps and then W min-select muxes.
    let fa_per_popcount = 27;
    let dp_kernel_execs = (2 * dp.bits()) as u64;

    StageBudget::new()
        .with_line(BudgetLine::new(
            "stage-1 PIM_XNOR comparisons per probe",
            "hashmap.aap2",
            vec![("hashmap.hash_probes".into(), xnor_aap2)],
            0,
        ))
        .with_line(BudgetLine::new(
            "stage-1 row clones per k-mer",
            "hashmap.aap",
            vec![
                ("hashmap.hash_probes".into(), xnor_aap),
                // Staged query (xnor_aap) + counter/MEM_insert tail (2).
                ("hashmap.hash_inserts".into(), xnor_aap + 2),
            ],
            0,
        ))
        .with_line(BudgetLine::new(
            "stage-2 MEM_inserts per surviving k-mer",
            "graph.host_writes",
            vec![("graph.graph_kmers".into(), 3)],
            0,
        ))
        .with_line(BudgetLine::new(
            "stage-2b TRA cycles per adder sum cycle",
            "traverse.aap3",
            // Ceiling keeps the ratio sound for a mix with more sum
            // cycles than TRAs, at the cost of one slice of slack.
            vec![("traverse.aap2".into(), fa_aap3.div_ceil(fa_aap2))],
            0,
        ))
        .with_line(BudgetLine::new(
            "stage-2b copies per adder sum cycle",
            "traverse.aap",
            vec![("traverse.aap2".into(), fa_aap.div_ceil(fa_aap2))],
            0,
        ))
        .with_line(BudgetLine::new(
            "mapping sum cycles per probe/plane/popcount/wavefront",
            "mapping.aap2",
            vec![
                ("mapping.map_seed_probes".into(), xnor_aap2),
                ("mapping.map_match_planes".into(), xnor_aap2),
                ("mapping.map_popcount_ops".into(), pop_aap2 + fa_per_popcount * fa_aap2),
                ("mapping.map_dp_wavefronts".into(), dp_kernel_execs * (dp_aap2 + ms_aap2)),
            ],
            0,
        ))
        .with_line(BudgetLine::new(
            "mapping row clones per probe/plane/popcount/wavefront",
            "mapping.aap",
            vec![
                // Query staging: one in-DRAM transfer + one clone per read.
                ("mapping.map_reads".into(), 2),
                ("mapping.map_seed_probes".into(), xnor_aap),
                ("mapping.map_match_planes".into(), xnor_aap),
                ("mapping.map_popcount_ops".into(), pop_aap + fa_per_popcount * fa_aap),
                ("mapping.map_dp_wavefronts".into(), dp_kernel_execs * (dp_aap + ms_aap)),
            ],
            0,
        ))
        .with_line(BudgetLine::new(
            "mapping TRA cycles per popcount/wavefront",
            "mapping.aap3",
            vec![
                ("mapping.map_popcount_ops".into(), pop_aap3 + fa_per_popcount * fa_aap3),
                ("mapping.map_dp_wavefronts".into(), dp_kernel_execs * (dp_aap3 + ms_aap3)),
            ],
            0,
        ))
}

/// Per-chunk AAP bound for the streamed hashmap stage, derived from the
/// compiled probe kernel. The staged [`crate::pipeline::Session`] checks
/// every ingestion chunk's ledger delta against it, so a hot-path
/// regression surfaces at the first offending chunk instead of only in
/// the end-of-run budget sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkAapBound {
    /// AAP commands one probe may issue (the XNOR copy pair).
    pub aap_per_probe: u64,
    /// AAP commands one offered k-mer may additionally issue (staged
    /// query plus the counter / `MEM_insert` tail).
    pub aap_per_insert: u64,
    /// AAP2 commands one probe issues exactly — the sum-cycle count, used
    /// to recover the chunk's probe count from its delta.
    pub aap2_per_probe: u64,
}

impl ChunkAapBound {
    /// Checks one chunk's delta: `inserts` k-mers were offered, the probe
    /// count is recovered from the AAP2 volume, and the AAP volume must
    /// stay within the combined per-unit bound. Returns the violation
    /// description, or `None` when the chunk is in bounds.
    pub fn check(&self, delta: &EnergyLedger, inserts: u64) -> Option<String> {
        if self.aap2_per_probe == 0 {
            return None;
        }
        let probes = delta.count(CommandClass::Aap2) / self.aap2_per_probe;
        let bound = inserts * self.aap_per_insert + probes * self.aap_per_probe;
        let aap = delta.count(CommandClass::Aap);
        (aap > bound).then(|| {
            format!(
                "hashmap chunk issued {aap} AAP commands, bound {bound} \
                 ({inserts} k-mers offered, {probes} probes)"
            )
        })
    }
}

/// The per-chunk AAP bound for sub-arrays of `cols` columns — the same
/// compiled-template factors as [`pipeline_budget_at`]'s "stage-1 row
/// clones per k-mer" line, reshaped for chunk deltas.
pub fn hashmap_chunk_aap_bound(cols: usize) -> ChunkAapBound {
    let xnor = CompiledTemplate::compile(TemplateKey::new(Kernel::Xnor, cols, cols));
    let (xnor_aap, xnor_aap2, _) = xnor.command_counts();
    ChunkAapBound {
        aap_per_probe: xnor_aap,
        aap_per_insert: xnor_aap + 2,
        aap2_per_probe: xnor_aap2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PimAssemblerConfig;
    use crate::pipeline::PimAssembler;
    use pim_genome::reads::ReadSimulator;
    use pim_genome::sequence::DnaSequence;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn healthy_pipeline_run_stays_within_budget() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let genome = DnaSequence::random(&mut rng, 800);
        let reads = ReadSimulator::new(60, 25.0).simulate(&genome, &mut rng);
        let config = PimAssemblerConfig::small_test(15).with_observability(true);
        let mut asm = PimAssembler::new(config);
        let run = asm.assemble(&reads).unwrap();
        let snapshot = run.report.metrics.expect("observability enabled");
        let budget = pipeline_budget(config.geometry.cols);
        let violations = budget.check(&snapshot);
        assert!(violations.is_empty(), "budget violations: {violations:?}");
        // The bounds are live, not vacuous: the bounded counters are hot.
        assert!(snapshot.counter("hashmap.aap2") > 0);
        assert!(snapshot.counter("traverse.aap3") > 0);
    }

    #[test]
    fn budget_factors_match_the_ir_compile_reports() {
        // The budget's multipliers are not hand-maintained constants: they
        // are the per-class command counts the IR lowering pipeline reports
        // for each kernel, so a kernel change reshapes the bounds with it.
        let cols = 256;
        let xnor = CompiledTemplate::compile(TemplateKey::new(Kernel::Xnor, cols, cols));
        let adder = CompiledTemplate::compile(TemplateKey::new(Kernel::FullAdder, cols, cols));
        assert_eq!(xnor.command_counts(), xnor.report().command_counts);
        assert_eq!(adder.command_counts(), adder.report().command_counts);
        let budget = pipeline_budget(cols);
        let probe_line = &budget.lines[0];
        assert_eq!(probe_line.terms[0].1, xnor.report().command_counts.1);
        let tra_line = &budget.lines[3];
        let (_, fa_aap2, fa_aap3) = adder.report().command_counts;
        assert_eq!(tra_line.terms[0].1, fa_aap3.div_ceil(fa_aap2));
    }

    /// A healthy mapping run's snapshot and the DP width it ran at.
    fn mapping_snapshot(mapping: MappingConfig) -> (pim_obsv::MetricsSnapshot, DpWidth) {
        use crate::mapping_stage::{run_mapping, MappingRunConfig};
        let config = MappingRunConfig {
            genome_len: 200,
            read_len: 24,
            coverage: 3.0,
            error_rate: 0.03,
            mapping,
            ..MappingRunConfig::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let genome = DnaSequence::random(&mut rng, config.genome_len);
        let reads = ReadSimulator::new(config.read_len, config.coverage)
            .with_error_rate(config.error_rate)
            .simulate(&genome, &mut rng);
        let report = run_mapping(&config, &genome, &reads).unwrap();
        assert!(report.agreement);
        let metrics = report.metrics.expect("run_mapping always records metrics");
        (metrics, mapping.dp_width(config.read_len))
    }

    fn small_mapping() -> MappingConfig {
        MappingConfig { seed_len: 12, band: 2, max_mismatch_bits: 8 }
    }

    #[test]
    fn healthy_mapping_run_stays_within_budget() {
        let (snapshot, dp) = mapping_snapshot(small_mapping());
        let violations = pipeline_budget_at(256, dp).check(&snapshot);
        assert!(violations.is_empty(), "budget violations: {violations:?}");
        // The mapping lines are live: the bounded counters are hot.
        assert!(snapshot.counter("mapping.aap2") > 0);
        assert!(snapshot.counter("mapping.aap3") > 0);
        assert!(snapshot.counter("mapping.map_dp_wavefronts") > 0);
    }

    #[test]
    fn mapping_command_drift_triggers_a_violation() {
        let (mut snapshot, dp) = mapping_snapshot(small_mapping());
        let aap2 = snapshot.counter("mapping.aap2");
        snapshot.counters.insert("mapping.aap2".to_string(), 2 * aap2 + 1);
        let budget = pipeline_budget_at(256, dp);
        let violations = budget.check(&snapshot);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("mapping sum cycles"));
    }

    #[test]
    fn the_mapping_dp_factor_is_twice_the_runs_own_width() {
        // A wider filter widens the DP values: W = 5 here (the 24 bp reads
        // cap the bound at 24), against 4 at the small config. The run
        // stays within the budget of its own width, and the budget of the
        // narrower width flags its DP commands.
        let wide = MappingConfig { max_mismatch_bits: 40, band: 4, ..small_mapping() };
        let (snapshot, dp) = mapping_snapshot(wide);
        let narrow = small_mapping().dp_width(24);
        assert_eq!((dp.bits(), narrow.bits()), (5, 4));
        assert!(pipeline_budget_at(256, dp).check(&snapshot).is_empty());
        let dp_cell = CompiledTemplate::compile(TemplateKey::new(Kernel::DpCell, 256, 256));
        let min_select = CompiledTemplate::compile(TemplateKey::new(Kernel::MinSelect, 256, 256));
        let per_step = dp_cell.command_counts().1 + min_select.command_counts().1;
        let budget = pipeline_budget_at(256, dp);
        let sum_cycles = budget.lines.iter().find(|l| l.label.contains("mapping sum cycles"));
        let wavefront_term = sum_cycles.unwrap().terms.last().unwrap();
        assert_eq!(wavefront_term.1, 2 * 5 * per_step);
        let violations = pipeline_budget_at(256, narrow).check(&snapshot);
        assert!(!violations.is_empty(), "a 4-bit budget passed a 5-bit DP");
    }

    #[test]
    fn hashmap_chunks_stay_within_the_chunk_aap_bound() {
        use crate::hashmap_stage::HashmapExec;
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let genome = DnaSequence::random(&mut rng, 600);
        let reads = ReadSimulator::new(60, 20.0).simulate(&genome, &mut rng);
        let config = PimAssemblerConfig::small_test(13);
        let mut ctrl = pim_dram::controller::Controller::with_params(
            config.geometry,
            config.timing,
            config.energy,
        );
        let dispatcher = crate::dispatch::ParallelDispatcher::serial();
        let bound = hashmap_chunk_aap_bound(config.geometry.cols);
        let mut exec = HashmapExec::new(&config);
        let mut chunks = 0;
        for chunk in reads.chunks(8) {
            let before = *ctrl.ledger();
            let offered = exec.feed(&mut ctrl, &dispatcher, chunk).unwrap();
            let delta = ctrl.ledger().since(&before);
            assert_eq!(bound.check(&delta, offered), None, "chunk {chunks}");
            chunks += 1;
        }
        assert!(chunks > 1, "test must exercise multiple chunks");
        // Drift detection: an AAP volume the offered work cannot explain.
        let mut drifted = EnergyLedger::default();
        drifted.charge_many(CommandClass::Aap, ctrl.costs(), 1_000_000);
        drifted.charge_many(CommandClass::Aap2, ctrl.costs(), bound.aap2_per_probe * 10);
        let violation = bound.check(&drifted, 1).expect("drift must be flagged");
        assert!(violation.contains("hashmap chunk"), "{violation}");
    }

    #[test]
    fn command_drift_triggers_a_violation() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let genome = DnaSequence::random(&mut rng, 600);
        let reads = ReadSimulator::new(60, 20.0).simulate(&genome, &mut rng);
        let config = PimAssemblerConfig::small_test(13).with_observability(true);
        let mut asm = PimAssembler::new(config);
        let run = asm.assemble(&reads).unwrap();
        let mut snapshot = run.report.metrics.expect("observability enabled");
        // Simulate a hot-path regression: stage 1 suddenly issues twice the
        // comparisons its probe count explains.
        let aap2 = snapshot.counter("hashmap.aap2");
        snapshot.counters.insert("hashmap.aap2".to_string(), 2 * aap2 + 1);
        let budget = pipeline_budget(config.geometry.cols);
        let violations = budget.check(&snapshot);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("PIM_XNOR comparisons per probe"));
    }
}
