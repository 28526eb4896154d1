//! Pipeline invariant checking on the production path.
//!
//! Runs the assembly exactly as a [`Session`] runs it — every stage
//! dispatched over a two-worker pool, so stage work executes on detached
//! sub-array contexts and merges back on reattach — with observability on,
//! and checks:
//!
//! * **Ledger conservation** — at each of the three stage boundaries the
//!   controller's global ledger plus every attached per-sub-array ledger
//!   must equal its merged total, integer-exactly, with no context left
//!   detached.
//! * **Stage budgets** — the run's `pim-obsv` metrics snapshot must stay
//!   within the command bounds the compiled AAP templates predict
//!   ([`pim_assembler::budget::pipeline_budget`]): e.g. stage-1 `AAP2`
//!   commands per hash probe, stage-2b TRA cycles per adder sum cycle.
//!   The bound multipliers are the per-class command counts the
//!   `pim_assembler::ir` lowering pipeline reports for each kernel, so
//!   they track the compiled programs rather than hand-written tables.
//!
//! Command legality needs no replay here. The IR legalizer
//! (`pim_assembler::ir::legalize`) rejects an illegal program at compile
//! time, and [`pim_dram::subarray::Subarray`] checks every command it
//! executes before the command is charged: a multi-row activation must name
//! distinct compute rows the modified row decoder can raise together, and a
//! two-row activation must sense in a two-row mode.

use pim_assembler::budget::pipeline_budget;
use pim_assembler::{PimAssembler, PimAssemblerConfig, Result, Session};
use pim_dram::controller::Controller;

use crate::genomes::TestCase;
use crate::report::InvariantReport;

/// Violation descriptions kept (the violation *count* is what fails the
/// report; these are for diagnosis).
const MAX_VIOLATIONS: usize = 20;

/// Workers the checked run dispatches over: more than one, so stage work
/// really detaches from the controller and reattaches.
const WORKERS: usize = 2;

fn violation(out: &mut Vec<String>, text: String) {
    if out.len() < MAX_VIOLATIONS {
        out.push(text);
    }
}

/// `global + Σ attached sub-array ledgers == total`, integer-exactly.
fn ledger_conserved(ctrl: &Controller) -> bool {
    if ctrl.has_detached_contexts() {
        return false; // conservation is only defined over attached ledgers
    }
    let mut commands = ctrl.global_ledger().total_commands();
    let mut time = ctrl.global_ledger().total_time_ps();
    let mut energy = ctrl.global_ledger().total_energy_fj();
    for id in ctrl.touched_subarrays() {
        if let Some(ledger) = ctrl.subarray_ledger(id) {
            commands += ledger.total_commands();
            time += ledger.total_time_ps();
            energy += ledger.total_energy_fj();
        }
    }
    let total = ctrl.ledger();
    commands == total.total_commands()
        && time == total.total_time_ps()
        && energy == total.total_energy_fj()
}

/// Runs hashmap → graph → traverse through a two-worker [`Session`] and
/// checks the invariants above.
///
/// # Errors
///
/// Propagates stage errors (the invariant check requires a healthy run).
pub fn check_pipeline(case: &TestCase, k: usize, min_count: u64) -> Result<InvariantReport> {
    let config = PimAssemblerConfig::small_test(k)
        .with_min_count(min_count)
        .with_workers(WORKERS)
        .with_observability(true);
    let mut asm = PimAssembler::new(config);
    let mut violations = Vec::new();
    let mut ledger_checkpoints = 0;
    let mut checkpoint = |ctrl: &Controller, stage: &str, violations: &mut Vec<String>| {
        ledger_checkpoints += 1;
        if !ledger_conserved(ctrl) {
            violation(violations, format!("ledger conservation violated after the {stage} stage"));
        }
    };

    let mut session = Session::start(&mut asm, None)?;
    session.feed(&case.reads)?;
    session.seal()?;
    checkpoint(session.controller(), "hashmap", &mut violations);
    session.advance_graph()?;
    checkpoint(session.controller(), "graph", &mut violations);
    let run = session.finish()?;
    checkpoint(asm.controller(), "traverse", &mut violations);

    // Stage budgets: the metrics snapshot must stay within the command
    // bounds the compiled templates predict for this workload.
    let budget = pipeline_budget(config.geometry.cols);
    let snapshot = run.report.metrics.as_ref().expect("observability was on");
    for v in budget.check(snapshot) {
        violation(&mut violations, v);
    }
    Ok(InvariantReport {
        commands_checked: asm.controller().ledger().total_commands(),
        ledger_checkpoints,
        budget_lines_checked: budget.len(),
        violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genomes::{generate, Scenario};
    use pim_dram::geometry::DramGeometry;

    #[test]
    fn full_pipeline_satisfies_all_invariants() {
        let case = generate(Scenario::Random, 400, 21);
        let report = check_pipeline(&case, 9, 1).unwrap();
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert!(report.commands_checked > 1000, "expected a substantial run");
        assert_eq!(report.ledger_checkpoints, 3);
        assert!(report.budget_lines_checked >= 5, "stage budgets were evaluated");
    }

    #[test]
    fn repeat_heavy_pipeline_also_clean() {
        let case = generate(Scenario::RepeatHeavy, 400, 22);
        let report = check_pipeline(&case, 9, 1).unwrap();
        assert!(report.passed(), "violations: {:?}", report.violations);
    }

    #[test]
    fn ledger_conservation_helper_detects_balance() {
        let mut ctrl = Controller::new(DramGeometry::paper_assembly());
        assert!(ledger_conserved(&ctrl), "an idle controller is trivially conserved");
        let id = ctrl.subarray_handle(0, 0, 0, 0).unwrap();
        let cols = ctrl.geometry().cols;
        ctrl.with_context(id, |ctx| {
            ctx.write_row(0, &pim_dram::BitRow::ones(cols))?;
            ctx.read_row(0)
        })
        .unwrap();
        ctrl.dpu_ops(5);
        assert!(ledger_conserved(&ctrl));
        // A detached context makes conservation undefined → reported false.
        let ctx = ctrl.detach_context(id).unwrap();
        assert!(!ledger_conserved(&ctrl));
        ctrl.reattach_context(ctx).unwrap();
        assert!(ledger_conserved(&ctrl));
    }
}
