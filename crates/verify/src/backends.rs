//! Cross-backend differential mode: the stage kernels retargeted to every
//! lowering backend (`pim-assembler`, `ambit-tra`, `panda-mram`) must
//! produce BitRow results identical to the pure-software reference, while
//! spending backend-specific command mixes and energy totals.
//!
//! The equivalence argument is the same one the per-backend unit tests
//! make, lifted to whole stages over generated genomes: retargeting only
//! changes *how* a kernel's dataflow is realized (command repertoire,
//! activation semantics, cost tables), never *what* it computes. A
//! disagreement between two backends — or between any backend and the
//! software oracle — is a lowering bug, never tolerance noise.

use pim_assembler::dispatch::ParallelDispatcher;
use pim_assembler::ir::BackendKind;
use pim_assembler::traverse_stage::TraverseStage;
use pim_assembler::Result;
use pim_dram::controller::Controller;
use pim_dram::geometry::DramGeometry;
use pim_dram::ledger::{CommandClass, EnergyLedger};
use pim_genome::debruijn::DeBruijnGraph;
use pim_genome::hash_table::KmerCounter;

use crate::genomes::{generate, Scenario, TestCase};
use crate::oracle::hashmap_oracle;
use crate::report::{OracleReport, VerifyReport};

/// A controller whose substrate matches `backend`: the profile sets the
/// activation model (destructive charge sharing for the DRAM designs,
/// nondestructive sensing for SOT-MRAM) and the timing/energy tables.
pub fn backend_controller(backend: BackendKind, geometry: DramGeometry) -> Controller {
    Controller::with_profile(geometry, &backend.profile())
}

/// Traverse stage on `backend`: the retargeted degree accumulation must
/// equal the graph's own bookkeeping for every vertex.
pub fn traverse_backend_oracle(
    case: &TestCase,
    k: usize,
    min_count: u64,
    backend: BackendKind,
) -> Result<OracleReport> {
    let mut counter = KmerCounter::new(k)?;
    for read in &case.reads {
        if read.seq.len() >= k {
            counter.count_sequence(&read.seq)?;
        }
    }
    let graph = DeBruijnGraph::from_counter(&counter, min_count);

    let mut ctrl = backend_controller(backend, DramGeometry::paper_assembly());
    let work = [ctrl.subarray_handle(0, 1, 0, 0)?, ctrl.subarray_handle(0, 1, 0, 1)?];
    let serial = ParallelDispatcher::serial();
    let (out, inc, _dense) = TraverseStage::degrees(&mut ctrl, &serial, &graph, work, backend)?;

    let mut mismatches = 0;
    let mut notes = Vec::new();
    for v in 0..graph.node_count() {
        if out[v] != graph.out_degree(v) as u64 || inc[v] != graph.in_degree(v) as u64 {
            mismatches += 1;
            if notes.len() < 5 {
                notes.push(format!(
                    "node {v}: {backend} ({}, {}) vs software ({}, {})",
                    out[v],
                    inc[v],
                    graph.out_degree(v),
                    graph.in_degree(v)
                ));
            }
        }
    }
    Ok(OracleReport {
        stage: "traverse",
        scenario: on_backend(case, backend),
        compared: graph.node_count().max(1),
        mismatches,
        notes,
    })
}

/// Knobs of [`backend_suite`].
#[derive(Debug, Clone)]
pub struct BackendSuiteOptions {
    /// Genome length of the generated test case.
    pub genome_len: usize,
    /// k-mer length driven through the stages.
    pub k: usize,
    /// Minimum k-mer count for the traverse graph.
    pub min_count: u64,
    /// RNG seed for the test case.
    pub seed: u64,
}

impl Default for BackendSuiteOptions {
    fn default() -> Self {
        BackendSuiteOptions { genome_len: 300, k: 9, min_count: 1, seed: 42 }
    }
}

/// Runs the cross-backend differential suite: the hashmap and traverse
/// stages on every lowering backend against the software oracle, plus a
/// distinctness check that the backends really took different command
/// mixes and energy totals to the same answers (identical results with
/// identical costs would mean the retargeting is vacuous).
pub fn backend_suite(options: &BackendSuiteOptions) -> VerifyReport {
    let mut report = VerifyReport::default();
    let case = generate(Scenario::Random, options.genome_len, options.seed);
    let mut hashmap_ledgers = Vec::new();

    for backend in BackendKind::ALL {
        if let Some(ledger) = run_backend(&mut report, &case, options, backend) {
            hashmap_ledgers.push((backend, ledger));
        }
    }

    report.oracles.push(mix_distinctness(&case, &hashmap_ledgers));
    report
}

/// Runs the stage oracles for one named backend only — the shape CI smoke
/// jobs invoke via `pim-asm verify --backend <name>`. The mix-distinctness
/// check needs every backend's statistics, so it only runs in the full
/// [`backend_suite`].
pub fn single_backend_suite(options: &BackendSuiteOptions, backend: BackendKind) -> VerifyReport {
    let mut report = VerifyReport::default();
    let case = generate(Scenario::Random, options.genome_len, options.seed);
    run_backend(&mut report, &case, options, backend);
    report
}

/// Pushes the hashmap and traverse oracles for `backend`, returning the
/// hashmap run's ledger when that stage succeeded.
fn run_backend(
    report: &mut VerifyReport,
    case: &TestCase,
    options: &BackendSuiteOptions,
    backend: BackendKind,
) -> Option<EnergyLedger> {
    let mut ledger = None;
    match hashmap_oracle(case, options.k, backend) {
        Ok((oracle, l)) => {
            report.oracles.push(OracleReport { scenario: on_backend(case, backend), ..oracle });
            ledger = Some(l);
        }
        Err(e) => report.oracles.push(stage_error("hashmap", backend, case, &e)),
    }
    match traverse_backend_oracle(case, options.k, options.min_count, backend) {
        Ok(oracle) => report.oracles.push(oracle),
        Err(e) => report.oracles.push(stage_error("traverse", backend, case, &e)),
    }
    ledger
}

/// A backend row's scenario label: `<scenario>@<backend>`.
fn on_backend(case: &TestCase, backend: BackendKind) -> String {
    format!("{}@{}", case.scenario.name(), backend)
}

fn stage_error(
    stage: &'static str,
    backend: BackendKind,
    case: &TestCase,
    e: &pim_assembler::PimError,
) -> OracleReport {
    OracleReport {
        stage,
        scenario: on_backend(case, backend),
        compared: 0,
        mismatches: 1,
        notes: vec![format!("stage error: {e}")],
    }
}

/// Same answers, different spend: for the identical hashmap workload the
/// Ambit lowering must issue strictly more copies than PIM-Assembler (its
/// gates consume fresh operand copies), the MRAM lowering strictly fewer
/// (direct data activation elides the staging), and the MRAM energy total
/// must differ from the DRAM substrate's.
fn mix_distinctness(case: &TestCase, ledgers: &[(BackendKind, EnergyLedger)]) -> OracleReport {
    let mut mismatches = 0;
    let mut notes = Vec::new();
    let find = |k: BackendKind| ledgers.iter().find(|(b, _)| *b == k).map(|(_, l)| l);
    match (
        find(BackendKind::PimAssembler),
        find(BackendKind::AmbitTra),
        find(BackendKind::PandaMram),
    ) {
        (Some(pa), Some(ambit), Some(mram)) => {
            let copies = |l: &EnergyLedger| l.count(CommandClass::Aap);
            let nj = |l: &EnergyLedger| l.total_energy_fj() as f64 / 1e6;
            let (pa_aap, ambit_aap, mram_aap) = (copies(pa), copies(ambit), copies(mram));
            if ambit_aap <= pa_aap {
                mismatches += 1;
                notes.push(format!("ambit copies {ambit_aap} ≤ pim-assembler {pa_aap}"));
            }
            if mram_aap >= pa_aap {
                mismatches += 1;
                notes.push(format!("mram copies {mram_aap} ≥ pim-assembler {pa_aap}"));
            }
            if mram.total_energy_fj() == pa.total_energy_fj() {
                mismatches += 1;
                notes.push(format!("mram energy {} nJ == dram energy", nj(mram)));
            }
            notes.push(format!(
                "copies pa/ambit/mram: {pa_aap}/{ambit_aap}/{mram_aap}; \
                 energy {:.1}/{:.1}/{:.1} nJ",
                nj(pa),
                nj(ambit),
                nj(mram)
            ));
        }
        _ => {
            mismatches += 1;
            notes.push("missing per-backend ledgers (a stage errored)".into());
        }
    }
    OracleReport {
        stage: "backend-mix",
        scenario: case.scenario.name().into(),
        compared: 3,
        mismatches,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_suite_passes_and_covers_every_backend() {
        let report = backend_suite(&BackendSuiteOptions::default());
        assert!(report.passed(), "{report}");
        // hashmap + traverse per backend, plus the mix-distinctness check.
        assert_eq!(report.oracles.len(), 2 * BackendKind::ALL.len() + 1);
        for backend in BackendKind::ALL {
            assert!(
                report.oracles.iter().any(|o| o.scenario.ends_with(&backend.to_string())),
                "no oracle ran on {backend}"
            );
        }
    }

    #[test]
    fn single_backend_suite_isolates_one_backend() {
        let report = single_backend_suite(&BackendSuiteOptions::default(), BackendKind::PandaMram);
        assert!(report.passed(), "{report}");
        assert_eq!(report.oracles.len(), 2, "hashmap + traverse, no mix check");
        for oracle in &report.oracles {
            assert!(oracle.scenario.ends_with("panda-mram"), "{}", oracle.scenario);
        }
    }

    #[test]
    fn ambit_full_adder_copy_count_stays_collapsed() {
        // Pin the post-fixpoint Ambit full-adder mix: the copy-chain
        // forwarding pass collapses the rewrite's staging chains to exactly
        // 30 copies (a regression here means the peephole fixpoint after
        // the backend rewrite stopped running).
        use pim_assembler::template::{CompiledTemplate, Kernel, TemplateKey};
        let adder = CompiledTemplate::compile(
            TemplateKey::new(Kernel::FullAdder, 256, 256).with_backend(BackendKind::AmbitTra),
        );
        assert_eq!(adder.command_counts(), (30, 3, 8));
    }

    #[test]
    fn backend_controllers_carry_their_profiles() {
        let g = DramGeometry::paper_assembly();
        for backend in BackendKind::ALL {
            let ctrl = backend_controller(backend, g);
            assert_eq!(ctrl.backend_name(), backend.name());
            assert_eq!(ctrl.activation_model(), backend.profile().activation);
        }
    }
}
