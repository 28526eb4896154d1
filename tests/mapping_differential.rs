//! Differential regression suite for the second workload: PIM read
//! mapping must equal the pure-software reference **byte for byte** —
//! same hits, same positions, same `banded_global`-derived scores — on
//! every lowering backend at both optimization levels, over random,
//! repeat-heavy, and low-coverage read sets; serial dispatch must equal
//! the worker pool; and fault injection must raise detection counters
//! rather than produce silent wrong mappings, also where several reads
//! share one filter pass.
//!
//! This is the integration-level face of the `pim-verify` mapping
//! oracles: where those drive the suite through its own scenario
//! generator, this pins the composed `run_mapping` workload the CLI and
//! bench harness invoke.

use pim_assembler_suite::assembler::ir::{BackendKind, OptLevel};
use pim_assembler_suite::assembler::mapping_stage::{
    run_mapping, software_map, MappingConfig, MappingRunConfig, MappingRunReport,
};
use pim_assembler_suite::genome::reads::{Read, ReadSimulator};
use pim_assembler_suite::genome::sequence::DnaSequence;
use pim_assembler_suite::verify::{generate, Scenario};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const READ_LEN: usize = 24;

fn base_config() -> MappingRunConfig {
    MappingRunConfig {
        genome_len: 220,
        read_len: READ_LEN,
        coverage: 3.0,
        error_rate: 0.03,
        mapping: MappingConfig { seed_len: 12, band: 2, max_mismatch_bits: 8 },
        ..MappingRunConfig::default()
    }
}

/// Simulates the scenario's genome plus an error-bearing read set sized
/// for the mapping funnel (the verify scenarios' own reads are longer
/// and error-free).
fn scenario_inputs(scenario: Scenario, seed: u64) -> (DnaSequence, Vec<Read>) {
    let case = generate(scenario, 220, seed);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x51);
    let reads =
        ReadSimulator::new(READ_LEN, 3.0).with_error_rate(0.03).simulate(&case.genome, &mut rng);
    (case.genome, reads)
}

fn run(config: &MappingRunConfig, genome: &DnaSequence, reads: &[Read]) -> MappingRunReport {
    run_mapping(config, genome, reads).expect("mapping workload fits the seed partition")
}

#[test]
fn every_backend_and_opt_level_matches_the_software_oracle_byte_for_byte() {
    for scenario in Scenario::ALL {
        let (genome, reads) = scenario_inputs(scenario, 42);
        let software = software_map(&genome, &reads, READ_LEN, &base_config().mapping);
        for backend in BackendKind::ALL {
            for opt in [OptLevel::O0, OptLevel::O2] {
                let config = MappingRunConfig { backend, opt, ..base_config() };
                let report = run(&config, &genome, &reads);
                assert_eq!(
                    report.hits, software,
                    "{scenario:?} on {backend} at {opt}: PIM diverged from software"
                );
                assert!(report.agreement);
                assert_eq!(
                    report.stats.shadow_mismatches, 0,
                    "{scenario:?} on {backend} at {opt}: healthy array raised shadows"
                );
            }
        }
    }
}

#[test]
fn the_funnel_is_live_on_every_scenario() {
    // The byte-for-byte test above would pass vacuously if nothing ever
    // mapped; pin that each scenario exercises the whole funnel.
    for scenario in Scenario::ALL {
        let (genome, reads) = scenario_inputs(scenario, 42);
        let report = run(&base_config(), &genome, &reads);
        assert!(report.stats.mapped > 0, "{scenario:?}: nothing mapped");
        assert!(report.stats.survivors > 0, "{scenario:?}: Hamming filter never passed");
        assert!(report.stats.dp_cells > 0, "{scenario:?}: DP refiner never engaged");
    }
}

#[test]
fn serial_and_worker_pool_runs_are_identical() {
    // Every deterministic counter, per sub-array included: which
    // sub-array runs a filter or DP pass must not depend on the pool.
    let (genome, reads) = scenario_inputs(Scenario::Random, 7);
    let serial = run(&base_config(), &genome, &reads);
    let sm = serial.metrics.unwrap();
    for workers in [2, 8] {
        let pool = run(&MappingRunConfig { workers, ..base_config() }, &genome, &reads);
        assert_eq!(serial.hits, pool.hits, "hits depend on worker count ({workers})");
        assert_eq!(serial.stats, pool.stats, "statistics depend on worker count ({workers})");
        assert_eq!(sm.counters, pool.metrics.unwrap().counters, "counters at workers {workers}");
    }
}

#[test]
fn fault_injection_raises_detection_counters_not_silent_wrong_mappings() {
    let (genome, reads) = scenario_inputs(Scenario::Random, 9);
    let software = software_map(&genome, &reads, READ_LEN, &base_config().mapping);
    let mut detected_any = false;
    for fault_seed in 0..4 {
        let config = MappingRunConfig { fault_rate: 2e-3, fault_seed, ..base_config() };
        let report = run(&config, &genome, &reads);
        assert!(report.fault_flips > 0, "fault model injected nothing");
        // Fewer match planes than one filter pass per seeded read: the
        // campaign runs on passes shared by several reads, so detection
        // must work per column.
        let planes = report.metrics.as_ref().unwrap().counter("mapping.map_match_planes");
        assert!(
            planes < report.stats.seeded * 2 * READ_LEN as u64,
            "seed {fault_seed}: {planes} match planes for {} seeded reads",
            report.stats.seeded
        );
        let disagreements = report.hits.iter().zip(software.iter()).filter(|(p, s)| p != s).count();
        if disagreements > 0 {
            assert!(
                report.stats.shadow_mismatches > 0,
                "seed {fault_seed}: {disagreements} wrong mappings with silent detectors"
            );
        }
        detected_any |= report.stats.shadow_mismatches > 0;
    }
    assert!(detected_any, "no campaign run ever tripped a detector; rate too low to test");
}
