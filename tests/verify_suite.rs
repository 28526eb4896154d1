//! Integration tests of the `pim-verify` subsystem itself: oracles over
//! every scenario, invariants on the full dispatched pipeline, and a fault
//! smoke at the reference rate.

use pim_assembler_suite::assembler::ir::BackendKind;
use pim_assembler_suite::verify::{
    check_pipeline, generate, oracle, run_campaign, standard_suite, Scenario, SuiteOptions,
};

#[test]
fn all_stage_oracles_pass_on_every_scenario() {
    for (i, scenario) in Scenario::ALL.iter().enumerate() {
        let case = generate(*scenario, 500, 400 + i as u64);
        let reports = [
            oracle::hashmap_oracle(&case, 11, BackendKind::PimAssembler).unwrap().0,
            oracle::graph_oracle(&case, 11, 1).unwrap(),
            oracle::traverse_oracle(&case, 11, 1).unwrap(),
        ];
        for r in reports {
            assert!(r.passed(), "{} oracle failed on {}: {:?}", r.stage, r.scenario, r.notes);
            assert!(r.compared > 0, "{} oracle compared nothing on {}", r.stage, r.scenario);
        }
    }
}

#[test]
fn trace_invariants_hold_for_the_full_pipeline() {
    let case = generate(Scenario::Random, 500, 500);
    let report = check_pipeline(&case, 11, 1).unwrap();
    assert!(report.passed(), "violations: {:?}", report.violations);
    assert_eq!(report.ledger_checkpoints, 3);
    assert!(report.commands_checked > 1000);
}

#[test]
fn fault_smoke_at_reference_rate() {
    // The acceptance gate: 1e-3 flips cause no panics and surface in the
    // report (detection counters, an error, or measured quality delta).
    let case = generate(Scenario::Random, 500, 501);
    let reports = run_campaign(&case, 11, &[1e-3], 501);
    let r = &reports[0];
    assert!(r.graceful(), "1e-3 faults panicked the pipeline");
    assert!(r.errored || r.flips > 0, "fault injector never fired");
}

#[test]
fn standard_suite_is_green() {
    let report = standard_suite(&SuiteOptions::default());
    assert!(report.passed(), "{report}");
}
