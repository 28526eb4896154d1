//! Aggregated verification results.

use std::fmt;

/// Outcome of one differential oracle over one input.
#[derive(Debug, Clone)]
pub struct OracleReport {
    /// Check under test: a stage kernel (`hashmap`, `graph`, `traverse`,
    /// `mapping`) or a cross-cutting check (`backend-mix`,
    /// `mapping-dispatch`, `resume`).
    pub stage: &'static str,
    /// Input scenario name.
    pub scenario: String,
    /// Facts compared (entries, edges, trails, …).
    pub compared: usize,
    /// Facts that disagreed with the software reference.
    pub mismatches: usize,
    /// Human-readable descriptions of the first few mismatches.
    pub notes: Vec<String>,
}

impl OracleReport {
    /// Whether the PIM kernel matched the reference bit for bit.
    pub fn passed(&self) -> bool {
        self.mismatches == 0
    }
}

/// Outcome of the pipeline invariant check over a dispatched
/// [`pim_assembler::Session`] run.
#[derive(Debug, Clone)]
pub struct InvariantReport {
    /// Commands the run issued — the ledger the conservation checks
    /// balanced.
    pub commands_checked: u64,
    /// Ledger-conservation checkpoints taken (one per pipeline stage).
    pub ledger_checkpoints: usize,
    /// Template-derived stage budget lines evaluated against the run's
    /// metrics snapshot (see `pim_assembler::budget::pipeline_budget`).
    pub budget_lines_checked: usize,
    /// Invariant violations found (ledger conservation, stage budgets).
    pub violations: Vec<String>,
}

impl InvariantReport {
    /// Whether every checked invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Outcome of one fault-injection run of the full pipeline.
#[derive(Debug, Clone)]
pub struct FaultRunReport {
    /// Per-bit read-out flip probability injected.
    pub flip_rate: f64,
    /// Whether the pipeline panicked (it never may).
    pub panicked: bool,
    /// Whether the pipeline returned an error (acceptable degradation).
    pub errored: bool,
    /// Sense-amp bit flips actually injected.
    pub flips: u64,
    /// Hash-stage shadow mismatches detected (see
    /// `pim_assembler::hashmap_stage::HashStats::shadow_mismatches`).
    pub shadow_mismatches: u64,
    /// Traverse-stage degree mismatches detected.
    pub degree_mismatches: u64,
    /// Genome fraction recovered by the faulty run (0 when errored).
    pub genome_fraction: f64,
    /// Genome fraction of the fault-free reference run.
    pub clean_genome_fraction: f64,
}

impl FaultRunReport {
    /// Graceful degradation: no panic, and if the run completed with
    /// injected flips it either detected corruption or its output still
    /// stands (quality loss is reported, not hidden).
    pub fn graceful(&self) -> bool {
        !self.panicked
    }

    /// Whether corruption surfaced in the detection counters.
    pub fn detected(&self) -> bool {
        self.shadow_mismatches > 0 || self.degree_mismatches > 0 || self.errored
    }
}

/// The full verification report: oracles + invariants + fault campaign.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Differential oracle outcomes.
    pub oracles: Vec<OracleReport>,
    /// Pipeline invariant outcome (absent when the check was skipped).
    pub invariants: Option<InvariantReport>,
    /// Fault-injection outcomes, one per flip rate.
    pub faults: Vec<FaultRunReport>,
}

impl VerifyReport {
    /// Whether everything passed: all oracles exact, all invariants held,
    /// every fault run graceful.
    pub fn passed(&self) -> bool {
        self.oracles.iter().all(OracleReport::passed)
            && self.invariants.as_ref().is_none_or(InvariantReport::passed)
            && self.faults.iter().all(FaultRunReport::graceful)
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== differential oracles ==")?;
        for o in &self.oracles {
            writeln!(
                f,
                "  {:<9} {:<13} {:>6} compared  {:>3} mismatches  [{}]",
                o.stage,
                o.scenario,
                o.compared,
                o.mismatches,
                if o.passed() { "ok" } else { "FAIL" }
            )?;
            for n in &o.notes {
                writeln!(f, "      {n}")?;
            }
        }
        if let Some(inv) = &self.invariants {
            writeln!(f, "== pipeline invariants ==")?;
            writeln!(
                f,
                "  {} commands checked, {} ledger checkpoints, {} budget lines  [{}]",
                inv.commands_checked,
                inv.ledger_checkpoints,
                inv.budget_lines_checked,
                if inv.passed() { "ok" } else { "FAIL" }
            )?;
            for v in &inv.violations {
                writeln!(f, "      {v}")?;
            }
        }
        if !self.faults.is_empty() {
            writeln!(f, "== fault injection ==")?;
            for r in &self.faults {
                writeln!(
                    f,
                    "  rate {:<8.1e} flips {:>8}  shadow {:>4}  degree {:>4}  gf {:.3} (clean {:.3})  {}  [{}]",
                    r.flip_rate,
                    r.flips,
                    r.shadow_mismatches,
                    r.degree_mismatches,
                    r.genome_fraction,
                    r.clean_genome_fraction,
                    if r.errored { "errored" } else { "completed" },
                    if r.graceful() { "ok" } else { "PANIC" }
                )?;
            }
        }
        write!(f, "verdict: {}", if self.passed() { "PASS" } else { "FAIL" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_passes() {
        assert!(VerifyReport::default().passed());
    }

    #[test]
    fn any_mismatch_fails_the_report() {
        let mut r = VerifyReport::default();
        r.oracles.push(OracleReport {
            stage: "hashmap",
            scenario: "random".into(),
            compared: 10,
            mismatches: 1,
            notes: vec![],
        });
        assert!(!r.passed());
        assert!(r.to_string().contains("FAIL"));
    }

    #[test]
    fn panicking_fault_run_fails_errored_one_does_not() {
        let base = FaultRunReport {
            flip_rate: 1e-3,
            panicked: false,
            errored: true,
            flips: 100,
            shadow_mismatches: 2,
            degree_mismatches: 0,
            genome_fraction: 0.0,
            clean_genome_fraction: 0.99,
        };
        let mut r = VerifyReport { faults: vec![base.clone()], ..Default::default() };
        assert!(r.passed(), "an errored (but not panicked) run is graceful");
        r.faults[0].panicked = true;
        assert!(!r.passed());
    }
}
