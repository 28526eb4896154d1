//! Staged-execution byte-identity verification.
//!
//! The staged engine's load-bearing contract: a run that is *streamed*
//! (chunked ingestion), *checkpointed* (stage state persisted after every
//! chunk), killed, and *resumed* from disk must be byte-identical to the
//! uninterrupted one-shot run — same contigs, same per-stage command
//! ledgers, same total energy ledger, same deterministic metrics. This
//! module pins that contract across the worker-count × optimization-level
//! matrix ({1, 8} × {O0, O2} by default), folding each cell into an
//! [`OracleReport`] so the standard suite and the CLI `verify` command
//! render it alongside the stage oracles.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use pim_assembler::checkpoint::prepare_dir;
use pim_assembler::ir::OptLevel;
use pim_assembler::{PimAssembler, PimAssemblerConfig, PimRun, Session};

use crate::genomes::{generate, Scenario};
use crate::report::OracleReport;

/// Knobs of [`resume_suite`].
#[derive(Debug, Clone)]
pub struct ResumeSuiteOptions {
    /// Genome length the reads are simulated from.
    pub genome_len: usize,
    /// k-mer length.
    pub k: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Worker counts to verify.
    pub workers: Vec<usize>,
    /// Optimization levels to verify.
    pub opt_levels: Vec<OptLevel>,
    /// Chunk size the streamed leg ingests with.
    pub chunk_reads: usize,
    /// Number of chunks fed before the simulated kill.
    pub kill_after_chunks: usize,
}

impl Default for ResumeSuiteOptions {
    fn default() -> Self {
        ResumeSuiteOptions {
            genome_len: 400,
            k: 13,
            seed: 42,
            workers: vec![1, 8],
            opt_levels: vec![OptLevel::O0, OptLevel::O2],
            chunk_reads: 7,
            kill_after_chunks: 3,
        }
    }
}

/// Compares two finished runs fact by fact, recording mismatches.
fn diff_runs(
    reference: &PimRun,
    ref_asm: &PimAssembler,
    candidate: &PimRun,
    cand_asm: &PimAssembler,
    compared: &mut usize,
    notes: &mut Vec<String>,
) {
    let mut check = |fact: &str, ok: bool| {
        *compared += 1;
        if !ok {
            notes.push(format!("{fact} diverged from the one-shot run"));
        }
    };
    check("contigs", reference.assembly.contigs == candidate.assembly.contigs);
    check("trail count", reference.assembly.trails == candidate.assembly.trails);
    check("total commands", reference.report.commands == candidate.report.commands);
    check(
        "hashmap commands",
        reference.report.hashmap.commands == candidate.report.hashmap.commands,
    );
    check(
        "debruijn commands",
        reference.report.debruijn.commands == candidate.report.debruijn.commands,
    );
    check(
        "traverse commands",
        reference.report.traverse.commands == candidate.report.traverse.commands,
    );
    check(
        "measured parallelism",
        reference.report.measured_parallelism == candidate.report.measured_parallelism,
    );
    check("hash stats", reference.hash_stats == candidate.hash_stats);
    check("traverse stats", reference.traverse_stats == candidate.traverse_stats);
    check("energy ledger", ref_asm.controller().ledger() == cand_asm.controller().ledger());
    match (&reference.report.metrics, &candidate.report.metrics) {
        (Some(a), Some(b)) => {
            check("metric counters", a.counters == b.counters);
            check("metric floats", a.floats == b.floats);
        }
        _ => check("metrics presence", false),
    }
}

/// Scratch checkpoint directory unique to one matrix cell of one call:
/// the per-process counter keeps concurrent [`resume_suite`] calls (test
/// threads, say) from sharing, and deleting, each other's checkpoints.
fn scratch_dir(workers: usize, opt: OptLevel) -> std::io::Result<PathBuf> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join(format!("pim-verify-resume-w{workers}-{opt:?}-{}-{n}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    Ok(dir)
}

/// Verifies one matrix cell: streamed vs one-shot, then
/// checkpoint/kill/resume vs one-shot.
fn verify_cell(
    options: &ResumeSuiteOptions,
    workers: usize,
    opt: OptLevel,
) -> pim_assembler::Result<OracleReport> {
    let case = generate(Scenario::Random, options.genome_len, options.seed);
    let base = PimAssemblerConfig::small_test(options.k)
        .with_observability(true)
        .with_workers(workers)
        .with_opt_level(opt);
    let mut compared = 0;
    let mut notes = Vec::new();

    // One-shot reference.
    let mut ref_asm = PimAssembler::new(base);
    let reference = ref_asm.assemble(&case.reads)?;

    // Leg 1: streamed ingestion, no checkpoints.
    let streamed_config = base.with_chunk_reads(options.chunk_reads)?;
    let mut streamed_asm = PimAssembler::new(streamed_config);
    let streamed = streamed_asm.assemble(&case.reads)?;
    diff_runs(&reference, &ref_asm, &streamed, &streamed_asm, &mut compared, &mut notes);

    // Leg 2: checkpointed run killed mid-stream, resumed from disk.
    let dir = scratch_dir(workers, opt)
        .map_err(|e| pim_assembler::PimError::Checkpoint { reason: format!("scratch dir: {e}") })?;
    prepare_dir(&dir, false)?;
    {
        let mut asm = PimAssembler::new(streamed_config);
        let mut session = Session::start(&mut asm, Some(dir.clone()))?;
        for chunk in case.reads.chunks(options.chunk_reads).take(options.kill_after_chunks) {
            session.feed(chunk)?;
        }
        // Dropping the session here is the simulated kill.
    }
    let mut resumed_asm = PimAssembler::new(streamed_config);
    let resumed = Session::resume(&mut resumed_asm, &dir)?.run(&case.reads)?;
    diff_runs(&reference, &ref_asm, &resumed, &resumed_asm, &mut compared, &mut notes);
    let _ = std::fs::remove_dir_all(&dir);

    Ok(OracleReport {
        stage: "resume",
        scenario: format!("workers={workers} opt={opt:?}"),
        compared,
        mismatches: notes.len(),
        notes,
    })
}

/// Runs the streamed/checkpointed/resumed byte-identity check over the
/// full worker × opt-level matrix.
///
/// Cell errors are folded into failed reports rather than propagated, so
/// one call always yields the complete matrix.
pub fn resume_suite(options: &ResumeSuiteOptions) -> Vec<OracleReport> {
    let mut reports = Vec::new();
    for &workers in &options.workers {
        for &opt in &options.opt_levels {
            reports.push(verify_cell(options, workers, opt).unwrap_or_else(|e| OracleReport {
                stage: "resume",
                scenario: format!("workers={workers} opt={opt:?}"),
                compared: 0,
                mismatches: 1,
                notes: vec![format!("suite error: {e}")],
            }));
        }
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_matrix_is_byte_identical() {
        let reports =
            resume_suite(&ResumeSuiteOptions { genome_len: 300, ..ResumeSuiteOptions::default() });
        assert_eq!(reports.len(), 4, "2 worker counts x 2 opt levels");
        for report in &reports {
            assert!(report.passed(), "{}: {:?}", report.scenario, report.notes);
            assert!(report.compared >= 24, "both legs compared in {}", report.scenario);
        }
    }

    #[test]
    fn concurrent_suites_keep_their_checkpoints_apart() {
        let options = ResumeSuiteOptions { genome_len: 300, ..ResumeSuiteOptions::default() };
        let start = std::sync::Barrier::new(2);
        let runs: Vec<Vec<OracleReport>> = std::thread::scope(|s| {
            let suites: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        resume_suite(&options)
                    })
                })
                .collect();
            suites.into_iter().map(|h| h.join().expect("suite thread")).collect()
        });
        for report in runs.iter().flatten() {
            assert!(report.passed(), "{}: {:?}", report.scenario, report.notes);
        }
    }
}
