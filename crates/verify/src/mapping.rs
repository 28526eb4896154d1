//! Mapping-stage differential verification — the second workload's
//! oracles, pinned from day one.
//!
//! The mapping funnel ([`pim_assembler::mapping_stage`]) must agree with
//! the pure-software reference
//! ([`pim_assembler::mapping_stage::software_map`], which delegates its
//! DP leg to [`pim_genome::align::banded_global`]) *byte for byte*: same
//! hits, same positions, same scores, on every lowering backend, for
//! serial and parallel dispatch alike. Under
//! fault injection the agreement may break — but never silently: every
//! PIM verdict that drives control flow is shadow-checked, so any
//! divergence must surface in the stage's `shadow_mismatches` detection
//! counter. A healthy run's metrics must also stay within the
//! template-derived mapping budget
//! ([`pim_assembler::budget::pipeline_budget_at`]) at the run's own DP
//! width.

use pim_assembler::budget::pipeline_budget_at;
use pim_assembler::ir::BackendKind;
use pim_assembler::mapping_stage::{
    run_mapping, seed_index_subarrays, MappingConfig, MappingRunConfig, MappingRunReport,
};
use pim_assembler::Result;
use pim_dram::geometry::DramGeometry;
use pim_genome::reads::{Read, ReadSimulator};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::fmt;

use crate::genomes::{generate, Scenario, TestCase};
use crate::report::OracleReport;

/// Knobs of [`mapping_suite`].
#[derive(Debug, Clone)]
pub struct MappingSuiteOptions {
    /// Genome length per scenario.
    pub genome_len: usize,
    /// Simulated read length.
    pub read_len: usize,
    /// Read coverage depth.
    pub coverage: f64,
    /// Per-base substitution error rate (keeps the DP refiner hot).
    pub error_rate: f64,
    /// Base RNG seed (scenario index is folded in).
    pub seed: u64,
    /// Backends to differentially verify.
    pub backends: Vec<BackendKind>,
    /// Fault-injection flip rates to campaign over (empty skips faults).
    pub fault_rates: Vec<f64>,
}

impl Default for MappingSuiteOptions {
    fn default() -> Self {
        MappingSuiteOptions {
            genome_len: 240,
            read_len: 24,
            coverage: 3.0,
            error_rate: 0.03,
            seed: 42,
            backends: BackendKind::ALL.to_vec(),
            fault_rates: vec![1e-3],
        }
    }
}

impl MappingSuiteOptions {
    fn run_config(&self, backend: BackendKind) -> MappingRunConfig {
        MappingRunConfig {
            genome_len: self.genome_len,
            read_len: self.read_len,
            coverage: self.coverage,
            error_rate: self.error_rate,
            seed: self.seed,
            backend,
            mapping: MappingConfig {
                seed_len: (self.read_len / 2).min(16),
                ..MappingConfig::default()
            },
            subarrays: seed_index_subarrays(
                &DramGeometry::paper_assembly(),
                self.genome_len,
                self.read_len,
            ),
            ..MappingRunConfig::default()
        }
    }

    /// Simulates the read set mapped against `case`'s genome (the suite
    /// re-sequences with its own error rate so the DP leg stays hot —
    /// the assembly oracles' reads are error-free).
    fn simulate_reads(&self, case: &TestCase) -> Vec<Read> {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ 0x9A9);
        ReadSimulator::new(self.read_len, self.coverage)
            .with_error_rate(self.error_rate)
            .simulate(&case.genome, &mut rng)
    }
}

/// Formats the first few hit disagreements for an oracle note.
fn diff_notes(report: &MappingRunReport) -> (usize, Vec<String>) {
    let mut mismatches = 0;
    let mut notes = Vec::new();
    for (i, (pim, soft)) in report.hits.iter().zip(report.software.iter()).enumerate() {
        if pim != soft {
            mismatches += 1;
            if notes.len() < 5 {
                notes.push(format!("read {i}: PIM {pim:?} vs software {soft:?}"));
            }
        }
    }
    (mismatches, notes)
}

/// Mapping stage on `backend`: hits, positions, and scores must equal the
/// software reference exactly, the healthy-array shadow counters must
/// stay silent, and the run must stay within its mapping budget.
pub fn mapping_oracle(
    case: &TestCase,
    options: &MappingSuiteOptions,
    backend: BackendKind,
) -> Result<OracleReport> {
    let reads = options.simulate_reads(case);
    let config = options.run_config(backend);
    let report = run_mapping(&config, &case.genome, &reads)?;
    Ok(oracle_row(case, &config, &report))
}

/// The oracle row of one healthy mapping run: one mismatch per hit that
/// differs from the software reference, plus one for shadow mismatches,
/// one for a run that mapped nothing, and one per violated budget line.
fn oracle_row(
    case: &TestCase,
    config: &MappingRunConfig,
    report: &MappingRunReport,
) -> OracleReport {
    let (mut mismatches, mut notes) = diff_notes(report);
    if report.stats.shadow_mismatches > 0 {
        mismatches += 1;
        notes.push(format!(
            "healthy array reported {} shadow mismatches",
            report.stats.shadow_mismatches
        ));
    }
    if report.stats.mapped == 0 {
        mismatches += 1;
        notes.push("vacuous run: no read mapped".into());
    }
    if config.backend == BackendKind::PimAssembler {
        // The budget's factors come from P-A's compiled templates.
        match &report.metrics {
            Some(snapshot) => {
                let cols = DramGeometry::paper_assembly().cols;
                let dp = config.mapping.dp_width(config.read_len);
                for violation in pipeline_budget_at(cols, dp).check(snapshot) {
                    mismatches += 1;
                    notes.push(format!("budget: {violation}"));
                }
            }
            None => {
                mismatches += 1;
                notes.push("no metrics snapshot to check the budget against".into());
            }
        }
    } else {
        notes
            .push("unbudgeted until item 4 (ROADMAP): the budget compiles P-A kernels only".into());
    }
    OracleReport {
        stage: "mapping",
        scenario: format!("{}@{}", case.scenario.name(), config.backend),
        compared: report.reads,
        mismatches,
        notes,
    }
}

/// Serial vs. worker-pool dispatch: hits and stage statistics must be
/// identical for any worker count.
pub fn mapping_dispatch_oracle(
    case: &TestCase,
    options: &MappingSuiteOptions,
    workers: usize,
) -> Result<OracleReport> {
    let reads = options.simulate_reads(case);
    let backend = BackendKind::PimAssembler;
    let serial = run_mapping(&options.run_config(backend), &case.genome, &reads)?;
    let parallel = run_mapping(
        &MappingRunConfig { workers, ..options.run_config(backend) },
        &case.genome,
        &reads,
    )?;
    let mut mismatches = 0;
    let mut notes = Vec::new();
    if serial.hits != parallel.hits {
        mismatches += 1;
        notes.push("serial and parallel hits differ".into());
    }
    if serial.stats != parallel.stats {
        mismatches += 1;
        notes.push(format!(
            "serial stats {:?} vs workers-{workers} {:?}",
            serial.stats, parallel.stats
        ));
    }
    Ok(OracleReport {
        stage: "mapping-dispatch",
        scenario: format!("{}@workers-{workers}", case.scenario.name()),
        compared: reads.len(),
        mismatches,
        notes,
    })
}

/// Outcome of one faulty mapping run.
#[derive(Debug, Clone, Copy)]
pub struct MappingFaultReport {
    /// Per-bit read-out flip probability injected.
    pub flip_rate: f64,
    /// Whether the run returned an error (acceptable degradation).
    pub errored: bool,
    /// Sense-amp bit flips actually injected.
    pub flips: u64,
    /// Shadow mismatches the stage detected.
    pub shadow_mismatches: u64,
    /// Reads whose PIM mapping disagreed with the software reference.
    pub disagreements: u64,
}

impl MappingFaultReport {
    /// The one forbidden outcome: the mapping diverged from the software
    /// reference but no detection counter fired and no error surfaced —
    /// a silent wrong mapping.
    pub fn silent_corruption(&self) -> bool {
        self.disagreements > 0 && self.shadow_mismatches == 0 && !self.errored
    }
}

/// Runs the mapping workload once per flip rate, recording whether
/// injected corruption surfaced in the detection counters.
pub fn mapping_fault_campaign(
    case: &TestCase,
    options: &MappingSuiteOptions,
    rates: &[f64],
) -> Vec<MappingFaultReport> {
    let reads = options.simulate_reads(case);
    rates
        .iter()
        .map(|&rate| {
            let config = MappingRunConfig {
                fault_rate: rate,
                fault_seed: options.seed ^ 0xFA17,
                ..options.run_config(BackendKind::PimAssembler)
            };
            match run_mapping(&config, &case.genome, &reads) {
                Ok(report) => {
                    let (disagreements, _) = diff_notes(&report);
                    MappingFaultReport {
                        flip_rate: rate,
                        errored: false,
                        flips: report.fault_flips,
                        shadow_mismatches: report.stats.shadow_mismatches,
                        disagreements: disagreements as u64,
                    }
                }
                Err(_) => MappingFaultReport {
                    flip_rate: rate,
                    errored: true,
                    flips: 0,
                    shadow_mismatches: 0,
                    disagreements: 0,
                },
            }
        })
        .collect()
}

/// The full mapping verification picture: differential oracles plus the
/// fault campaign.
#[derive(Debug, Clone, Default)]
pub struct MappingSuiteReport {
    /// Differential oracle outcomes (scenario × backend, plus dispatch).
    pub oracles: Vec<OracleReport>,
    /// Fault-injection outcomes, one per flip rate.
    pub faults: Vec<MappingFaultReport>,
}

impl MappingSuiteReport {
    /// Whether every oracle was exact and no faulty run corrupted the
    /// mapping silently.
    pub fn passed(&self) -> bool {
        self.oracles.iter().all(OracleReport::passed)
            && self.faults.iter().all(|f| !f.silent_corruption())
    }
}

impl fmt::Display for MappingSuiteReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for oracle in &self.oracles {
            writeln!(
                f,
                "  [{}] {} {}: {}/{} mismatches",
                if oracle.passed() { "ok" } else { "FAIL" },
                oracle.stage,
                oracle.scenario,
                oracle.mismatches,
                oracle.compared
            )?;
            for note in &oracle.notes {
                writeln!(f, "        {note}")?;
            }
        }
        for fault in &self.faults {
            writeln!(
                f,
                "  [{}] fault rate {:.0e}: {} flips, {} shadow mismatches, {} disagreements{}",
                if fault.silent_corruption() { "FAIL" } else { "ok" },
                fault.flip_rate,
                fault.flips,
                fault.shadow_mismatches,
                fault.disagreements,
                if fault.errored { " (errored)" } else { "" }
            )?;
        }
        Ok(())
    }
}

/// Runs the whole mapping verification suite: every scenario × backend
/// differential, the serial-vs-parallel dispatch check, and the fault
/// campaign. Stage errors fold into failed oracles, so one call always
/// yields a complete picture.
pub fn mapping_suite(options: &MappingSuiteOptions) -> MappingSuiteReport {
    let mut report = MappingSuiteReport::default();
    for (i, scenario) in Scenario::ALL.iter().enumerate() {
        let case = generate(*scenario, options.genome_len, options.seed + i as u64);
        for &backend in &options.backends {
            report.oracles.push(mapping_oracle(&case, options, backend).unwrap_or_else(|e| {
                OracleReport {
                    stage: "mapping",
                    scenario: format!("{}@{}", case.scenario.name(), backend),
                    compared: 0,
                    mismatches: 1,
                    notes: vec![format!("stage error: {e}")],
                }
            }));
        }
    }
    let dispatch_case = generate(Scenario::Random, options.genome_len, options.seed);
    report.oracles.push(mapping_dispatch_oracle(&dispatch_case, options, 8).unwrap_or_else(|e| {
        OracleReport {
            stage: "mapping-dispatch",
            scenario: "random@workers-8".into(),
            compared: 0,
            mismatches: 1,
            notes: vec![format!("stage error: {e}")],
        }
    }));
    if !options.fault_rates.is_empty() {
        let fault_case = generate(Scenario::Random, options.genome_len, options.seed ^ 0xFA01);
        report.faults = mapping_fault_campaign(&fault_case, options, &options.fault_rates);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapping_suite_passes_end_to_end() {
        let options = MappingSuiteOptions {
            genome_len: 200,
            fault_rates: vec![0.0, 1e-3],
            ..MappingSuiteOptions::default()
        };
        let report = mapping_suite(&options);
        assert!(report.passed(), "{report}");
        assert_eq!(report.oracles.len(), 10, "3 scenarios x 3 backends + dispatch");
        assert_eq!(report.faults.len(), 2);
        // The clean fault run really was clean, and the faulty one hot.
        assert_eq!(report.faults[0].flips, 0);
        assert!(report.faults[1].flips > 0, "fault campaign injected nothing");
    }

    #[test]
    fn a_mapping_run_over_its_budget_fails_its_row() {
        let options = MappingSuiteOptions { genome_len: 200, ..MappingSuiteOptions::default() };
        let case = generate(Scenario::Random, options.genome_len, options.seed);
        let reads = options.simulate_reads(&case);
        let config = options.run_config(BackendKind::PimAssembler);
        let mut report = run_mapping(&config, &case.genome, &reads).unwrap();
        let healthy = oracle_row(&case, &config, &report);
        assert!(healthy.passed() && healthy.notes.is_empty(), "{:?}", healthy.notes);
        // A DP issuing twice the sum cycles its wavefronts explain.
        let snapshot = report.metrics.as_mut().unwrap();
        let aap2 = snapshot.counter("mapping.aap2");
        assert!(aap2 > 0);
        snapshot.counters.insert("mapping.aap2".into(), 2 * aap2);
        let drifted = oracle_row(&case, &config, &report);
        assert_eq!(drifted.mismatches, 1, "{:?}", drifted.notes);
        assert!(drifted.notes[0].contains("mapping sum cycles"), "{:?}", drifted.notes);
        // The other backends say they are unbudgeted instead of passing
        // vacuously.
        let ambit = options.run_config(BackendKind::AmbitTra);
        let report = run_mapping(&ambit, &case.genome, &reads).unwrap();
        let row = oracle_row(&case, &ambit, &report);
        assert!(row.passed(), "{:?}", row.notes);
        assert!(row.notes.iter().any(|n| n.contains("unbudgeted")), "{:?}", row.notes);
    }

    #[test]
    fn a_longer_reference_gets_a_seed_index_sized_from_it() {
        // 3 kbp of 64 bp windows overflows 4 index sub-arrays; the suite
        // sizes its index from the reference, as `pim-asm map` does.
        let options = MappingSuiteOptions {
            genome_len: 3_000,
            read_len: 64,
            coverage: 1.0,
            backends: vec![BackendKind::PimAssembler],
            fault_rates: Vec::new(),
            ..MappingSuiteOptions::default()
        };
        let report = mapping_suite(&options);
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn faulty_runs_raise_detection_counters_not_silent_divergence() {
        let options = MappingSuiteOptions { genome_len: 200, ..MappingSuiteOptions::default() };
        let case = generate(Scenario::Random, options.genome_len, options.seed);
        let reports = mapping_fault_campaign(&case, &options, &[3e-3]);
        assert_eq!(reports.len(), 1);
        let fault = reports[0];
        assert!(!fault.silent_corruption(), "{fault:?}");
        assert!(fault.errored || fault.flips > 0);
        // At this rate the funnel senses enough rows that corruption is
        // practically guaranteed to hit a shadow-checked verdict.
        assert!(fault.errored || fault.shadow_mismatches > 0, "{fault:?}");
    }
}
