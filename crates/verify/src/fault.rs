//! Fault-injection campaigns over the full pipeline.
//!
//! Arms the DRAM model's sense-amp fault injector (see
//! [`pim_dram::fault`]) and runs the complete assembler, verifying the
//! pipeline *detects* corruption (shadow/degree mismatch counters, stage
//! errors) or *degrades gracefully* (no panics; quality loss is measured
//! and reported, never hidden). The flip rate can be chosen directly or
//! derived from the circuit-level process-variation model.

use std::panic::{catch_unwind, AssertUnwindSafe};

use pim_assembler::{PimAssembler, PimAssemblerConfig, PimError};
use pim_circuits::variation::{ActivationMethod, MonteCarlo};
use pim_dram::fault::FaultConfig;
use pim_genome::stats::genome_fraction;

use crate::genomes::TestCase;
use crate::report::FaultRunReport;

/// Derives a per-bit read-out flip rate from the circuit-level variation
/// model: the Monte-Carlo error rate of triple-row activation (the most
/// variation-sensitive primitive, paper Table I) at `variation_pct`
/// transistor-parameter spread.
pub fn flip_rate_from_variation(variation_pct: f64, trials: usize, seed: u64) -> f64 {
    MonteCarlo::new(trials, seed).error_rate_pct(ActivationMethod::Tra, variation_pct) / 100.0
}

/// Runs the full pipeline once per flip rate (plus one clean reference
/// run) and reports detection and degradation per rate.
///
/// Panics inside the pipeline are caught and recorded — a panicking run
/// fails [`FaultRunReport::graceful`], it does not abort the campaign.
pub fn run_campaign(case: &TestCase, k: usize, rates: &[f64], seed: u64) -> Vec<FaultRunReport> {
    let config = PimAssemblerConfig::small_test(k);
    let clean_genome_fraction = {
        let mut asm = PimAssembler::new(config);
        match asm.assemble(&case.reads) {
            Ok(run) => genome_fraction(&case.genome, &run.assembly.contigs, k),
            Err(_) => 0.0,
        }
    };

    rates
        .iter()
        .map(|&flip_rate| {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let mut asm = PimAssembler::new(config);
                // A rate that is not a probability errors the run.
                let run =
                    FaultConfig::new(flip_rate, seed).map_err(PimError::from).and_then(|fault| {
                        asm.inject_faults(fault);
                        asm.assemble(&case.reads)
                    });
                (run, asm.fault_flips())
            }));
            match outcome {
                Err(_) => FaultRunReport {
                    flip_rate,
                    panicked: true,
                    errored: false,
                    flips: 0,
                    shadow_mismatches: 0,
                    degree_mismatches: 0,
                    genome_fraction: 0.0,
                    clean_genome_fraction,
                },
                Ok((Err(_), flips)) => FaultRunReport {
                    flip_rate,
                    panicked: false,
                    errored: true,
                    flips,
                    shadow_mismatches: 0,
                    degree_mismatches: 0,
                    genome_fraction: 0.0,
                    clean_genome_fraction,
                },
                Ok((Ok(run), flips)) => FaultRunReport {
                    flip_rate,
                    panicked: false,
                    errored: false,
                    flips,
                    shadow_mismatches: run.hash_stats.shadow_mismatches,
                    degree_mismatches: run.traverse_stats.degree_mismatches,
                    genome_fraction: genome_fraction(&case.genome, &run.assembly.contigs, k),
                    clean_genome_fraction,
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genomes::{generate, Scenario};

    #[test]
    fn zero_rate_run_matches_clean_reference() {
        let case = generate(Scenario::Random, 400, 31);
        let reports = run_campaign(&case, 9, &[0.0], 7);
        let r = &reports[0];
        assert!(!r.panicked && !r.errored);
        assert_eq!(r.flips, 0);
        assert_eq!(r.shadow_mismatches, 0);
        assert_eq!(r.degree_mismatches, 0);
        assert_eq!(r.genome_fraction, r.clean_genome_fraction);
    }

    #[test]
    fn heavy_faults_are_detected_and_never_panic() {
        let case = generate(Scenario::Random, 400, 32);
        for &rate in &[1e-3, 1e-2] {
            let reports = run_campaign(&case, 9, &[rate], 7);
            let r = &reports[0];
            assert!(r.graceful(), "rate {rate} panicked the pipeline");
            assert!(r.errored || r.flips > 0, "rate {rate} injected nothing");
            assert!(
                r.detected() || (r.genome_fraction - r.clean_genome_fraction).abs() < 1e-9,
                "rate {rate}: silent quality loss (gf {} vs clean {})",
                r.genome_fraction,
                r.clean_genome_fraction
            );
        }
    }

    #[test]
    fn a_rate_that_is_not_a_probability_errors_the_run() {
        let case = generate(Scenario::Random, 300, 33);
        for r in run_campaign(&case, 9, &[f64::NAN, -0.1, 1.5], 7) {
            assert!(r.graceful() && r.errored, "rate {}", r.flip_rate);
            assert_eq!(r.flips, 0);
        }
    }

    #[test]
    fn variation_derived_rate_is_a_probability() {
        let p = flip_rate_from_variation(20.0, 2000, 5);
        assert!((0.0..=1.0).contains(&p), "{p}");
        let none = flip_rate_from_variation(0.0, 2000, 5);
        assert_eq!(none, 0.0, "no variation, no flips");
    }
}
