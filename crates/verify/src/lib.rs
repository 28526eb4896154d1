//! # pim-verify — differential verification & fault injection
//!
//! The PIM-Assembler reproduction models a *bit-accurate* in-DRAM
//! assembler: every stage kernel computes real values while charging
//! hardware costs. That makes three strong checks possible, and this crate
//! packages all of them:
//!
//! 1. **Differential oracles** ([`oracle`]) — each PIM stage kernel
//!    (hashmap, graph, traverse) executed against the DRAM model
//!    and compared *bit for bit* with the pure-software golden reference
//!    from `pim-genome`, over random and adversarial inputs ([`genomes`]).
//! 2. **Pipeline invariants** ([`invariants`]) — the production pipeline,
//!    a [`pim_assembler::Session`] dispatched over two workers, checked
//!    for integer-exact energy-ledger conservation at every stage boundary
//!    and for the template-derived stage command budgets.
//! 3. **Fault injection** ([`fault`]) — sense-amp read-out bit flips at a
//!    configurable rate (optionally derived from the circuit-level
//!    variation model), verifying the pipeline detects corruption or
//!    degrades gracefully: no panics, quality loss reported via stats.
//! 4. **Cross-backend differentials** ([`backends`]) — the stage kernels
//!    retargeted to every lowering backend (Ambit TRA, PANDA MRAM) must
//!    produce results identical to the software oracle while spending
//!    backend-specific command mixes and energy totals.
//! 5. **Staged-execution identity** ([`resume`]) — streamed, checkpointed,
//!    killed, and resumed runs compared against the one-shot pipeline over
//!    the worker-count × optimization-level matrix; contigs, command
//!    stats, energy ledgers, and deterministic metrics must all be
//!    byte-identical.
//!
//! ## Example
//!
//! ```
//! use pim_verify::{standard_suite, SuiteOptions};
//!
//! let report = standard_suite(&SuiteOptions { genome_len: 300, ..SuiteOptions::default() });
//! assert!(report.passed(), "{report}");
//! ```

pub mod backends;
pub mod fault;
pub mod genomes;
pub mod invariants;
pub mod mapping;
pub mod oracle;
pub mod report;
pub mod resume;

pub use backends::{backend_suite, single_backend_suite, BackendSuiteOptions};
pub use fault::{flip_rate_from_variation, run_campaign};
pub use genomes::{generate, Scenario, TestCase};
pub use invariants::check_pipeline;
pub use mapping::{mapping_suite, MappingSuiteOptions, MappingSuiteReport};
pub use report::{FaultRunReport, InvariantReport, OracleReport, VerifyReport};
pub use resume::{resume_suite, ResumeSuiteOptions};

/// Knobs of [`standard_suite`].
#[derive(Debug, Clone)]
pub struct SuiteOptions {
    /// Genome length per scenario.
    pub genome_len: usize,
    /// k-mer length driven through the stages.
    pub k: usize,
    /// Minimum k-mer count for the graph stage.
    pub min_count: u64,
    /// Base RNG seed (scenario index is folded in).
    pub seed: u64,
    /// Fault-injection flip rates to campaign over (empty skips faults).
    pub fault_rates: Vec<f64>,
}

impl Default for SuiteOptions {
    fn default() -> Self {
        SuiteOptions { genome_len: 400, k: 9, min_count: 1, seed: 42, fault_rates: vec![1e-4] }
    }
}

/// Runs the whole verification suite: all three stage oracles over all
/// three scenarios, the pipeline invariant check, and a fault campaign.
///
/// Stage errors are folded into the report as failed oracles rather than
/// propagated, so a single call always yields a complete picture.
pub fn standard_suite(options: &SuiteOptions) -> VerifyReport {
    let mut report = VerifyReport::default();
    for (i, scenario) in Scenario::ALL.iter().enumerate() {
        let case = generate(*scenario, options.genome_len, options.seed + i as u64);
        let checks: [(&'static str, pim_assembler::Result<OracleReport>); 3] = [
            ("hashmap", oracle::hashmap_oracle(&case, options.k)),
            ("graph", oracle::graph_oracle(&case, options.k, options.min_count)),
            ("traverse", oracle::traverse_oracle(&case, options.k, options.min_count)),
        ];
        for (stage, outcome) in checks {
            report.oracles.push(outcome.unwrap_or_else(|e| OracleReport {
                stage,
                scenario: case.scenario.name().into(),
                compared: 0,
                mismatches: 1,
                notes: vec![format!("stage error: {e}")],
            }));
        }
    }

    let invariant_case = generate(Scenario::Random, options.genome_len, options.seed);
    report.invariants = Some(
        invariants::check_pipeline(&invariant_case, options.k, options.min_count).unwrap_or_else(
            |e| InvariantReport {
                commands_checked: 0,
                ledger_checkpoints: 0,
                budget_lines_checked: 0,
                violations: vec![format!("pipeline error: {e}")],
            },
        ),
    );

    if !options.fault_rates.is_empty() {
        let fault_case = generate(Scenario::Random, options.genome_len, options.seed ^ 0xFA01);
        report.faults =
            fault::run_campaign(&fault_case, options.k, &options.fault_rates, options.seed);
    }

    // Staged-execution identity over a reduced matrix (serial + pooled at
    // O0); the full worker × opt matrix lives in `resume_suite` and the
    // CLI's `verify --stage resume`.
    report.oracles.extend(resume::resume_suite(&ResumeSuiteOptions {
        genome_len: options.genome_len,
        k: 13,
        seed: options.seed,
        opt_levels: vec![pim_assembler::ir::OptLevel::O0],
        ..ResumeSuiteOptions::default()
    }));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_suite_passes_end_to_end() {
        let report = standard_suite(&SuiteOptions {
            genome_len: 300,
            fault_rates: vec![0.0, 1e-3],
            ..SuiteOptions::default()
        });
        assert!(report.passed(), "{report}");
        assert_eq!(report.oracles.len(), 11, "3 oracles x 3 scenarios + 2 resume cells");
        assert_eq!(report.oracles.iter().filter(|o| o.stage == "resume").count(), 2);
        let inv = report.invariants.as_ref().unwrap();
        assert!(inv.commands_checked > 0);
        assert_eq!(report.faults.len(), 2);
    }
}
