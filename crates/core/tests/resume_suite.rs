//! Kill-and-resume suite for the staged execution engine.
//!
//! The contract under test: a checkpointed run that dies at *any* point —
//! mid-stream between chunks (after a snapshot or a journal record), at
//! the hashmap/graph boundary, or at the graph/traverse boundary — and
//! resumes from disk produces results
//! byte-identical to an uninterrupted one-shot run. That covers contigs,
//! the per-stage command ledgers, the total energy ledger, the
//! deterministic metrics sections, and the measured parallelism, across
//! worker counts and arbitrary chunk sizes (the proptest below drives
//! random ones).

use std::path::{Path, PathBuf};

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use pim_assembler::checkpoint::{prepare_dir, CHECKPOINT_FILE};
use pim_assembler::{PimAssembler, PimAssemblerConfig, PimRun, Session};
use pim_dram::ledger::CommandClass;
use pim_genome::reads::{Read, ReadSimulator};
use pim_genome::sequence::DnaSequence;

fn sim_reads(seed: u64, genome_len: usize) -> Vec<Read> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let genome = DnaSequence::random(&mut rng, genome_len);
    ReadSimulator::new(60, 25.0).simulate(&genome, &mut rng)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pim-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    prepare_dir(&dir, false).unwrap();
    dir
}

/// One-shot reference: the historical unchunked, uncheckpointed path.
fn reference(config: PimAssemblerConfig, reads: &[Read]) -> (PimRun, PimAssembler) {
    let mut asm = PimAssembler::new(config);
    let run = asm.assemble(reads).unwrap();
    (run, asm)
}

/// Each command class's snapshot key and the row activations one of its
/// commands raises.
const CLASS_METRICS: [(CommandClass, &str, u64); 6] = [
    (CommandClass::Read, "host_reads", 1),
    (CommandClass::Write, "host_writes", 1),
    (CommandClass::Aap, "aap", 2),
    (CommandClass::Aap2, "aap2", 3),
    (CommandClass::Aap3, "aap3", 4),
    (CommandClass::Dpu, "dpu", 0),
];

/// Asserts that the report's stage split (the s1/s2 boundary ledgers)
/// and the metrics' stage folds (`set_stage`) attribute every command to
/// the same stage, for a run with metrics.
fn assert_stage_split_matches_metrics(run: &PimRun) {
    let Some(snap) = &run.report.metrics else { return };
    let r = &run.report;
    let stages = [
        ("hashmap", &r.hashmap.commands),
        ("graph", &r.debruijn.commands),
        ("traverse", &r.traverse.commands),
    ];
    let mut commands = 0;
    for (stage, ledger) in stages {
        let mut activations = 0;
        for (class, metric, weight) in CLASS_METRICS {
            let key = format!("{stage}.{metric}");
            assert_eq!(snap.counter(&key), ledger.count(class), "{key}");
            commands += snap.counter(&key);
            activations += weight * ledger.count(class);
        }
        assert_eq!(snap.counter(&format!("{stage}.row_activations")), activations, "{stage}");
    }
    assert_eq!(commands, snap.counter("total.commands"));
}

/// Asserts the byte-identity contract between two finished runs.
fn assert_identical(a: &PimRun, asm_a: &PimAssembler, b: &PimRun, asm_b: &PimAssembler) {
    assert_stage_split_matches_metrics(a);
    assert_stage_split_matches_metrics(b);
    assert_eq!(a.assembly.contigs, b.assembly.contigs);
    assert_eq!(a.assembly.stats.total_length, b.assembly.stats.total_length);
    assert_eq!(a.assembly.trails, b.assembly.trails);
    assert_eq!(a.report.commands, b.report.commands);
    assert_eq!(a.report.hashmap.commands, b.report.hashmap.commands);
    assert_eq!(a.report.debruijn.commands, b.report.debruijn.commands);
    assert_eq!(a.report.traverse.commands, b.report.traverse.commands);
    assert_eq!(a.report.measured_parallelism, b.report.measured_parallelism);
    assert_eq!(a.hash_stats, b.hash_stats);
    assert_eq!(a.traverse_stats, b.traverse_stats);
    // The full integer ledger — every command class's count, time, and
    // energy — must match down to the femtojoule.
    assert_eq!(asm_a.controller().ledger(), asm_b.controller().ledger());
    match (&a.report.metrics, &b.report.metrics) {
        (Some(ma), Some(mb)) => {
            assert_eq!(ma.counters, mb.counters, "deterministic counters diverged");
            assert_eq!(ma.floats, mb.floats, "deterministic floats diverged");
        }
        (None, None) => {}
        _ => panic!("one run has metrics, the other does not"),
    }
}

/// Kills a checkpointed session after `feed_chunks` chunks of size
/// `chunk` (`None` = seal first, kill at the hashmap/graph boundary;
/// `graph_done` = also run the graph stage, kill at the graph/traverse
/// boundary), then resumes with `resume_workers` workers and
/// `resume_chunk` chunk size and finishes the run.
#[allow(clippy::too_many_arguments)]
fn kill_and_resume(
    config: PimAssemblerConfig,
    reads: &[Read],
    dir: &Path,
    chunk: usize,
    feed_chunks: Option<usize>,
    graph_done: bool,
    resume_workers: usize,
    resume_chunk: usize,
) -> (PimRun, PimAssembler) {
    {
        let streamed = config.with_chunk_reads(chunk).unwrap();
        let mut asm = PimAssembler::new(streamed);
        let mut session = Session::start(&mut asm, Some(dir.to_path_buf())).unwrap();
        match feed_chunks {
            Some(n) => {
                for c in reads.chunks(chunk).take(n) {
                    session.feed(c).unwrap();
                }
            }
            None => {
                for c in reads.chunks(chunk) {
                    session.feed(c).unwrap();
                }
                session.seal().unwrap();
                if graph_done {
                    session.advance_graph().unwrap();
                }
            }
        }
        // The session is dropped here without finishing: the "kill".
    }
    let resumed_config =
        config.with_chunk_reads(resume_chunk).unwrap().with_workers(resume_workers);
    let mut asm = PimAssembler::new(resumed_config);
    let run = Session::resume(&mut asm, dir).unwrap().run(reads).unwrap();
    (run, asm)
}

#[test]
fn resume_from_every_stage_boundary_matches_one_shot() {
    let reads = sim_reads(11, 800);
    let config = PimAssemblerConfig::small_test(13).with_observability(true);
    let (ref_run, ref_asm) = reference(config, &reads);
    // Kill at the hashmap/graph boundary (stage = graph checkpoint).
    let dir = temp_dir("boundary-graph");
    let (run, asm) = kill_and_resume(config, &reads, &dir, 8, None, false, 1, 8);
    assert_identical(&ref_run, &ref_asm, &run, &asm);
    std::fs::remove_dir_all(&dir).unwrap();
    // Kill at the graph/traverse boundary (stage = traverse checkpoint).
    let dir = temp_dir("boundary-traverse");
    let (run, asm) = kill_and_resume(config, &reads, &dir, 8, None, true, 1, 8);
    assert_identical(&ref_run, &ref_asm, &run, &asm);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_from_every_chunk_write_point_matches_one_shot() {
    // One checkpointed run keeps the file as each chunk's write left it:
    // a snapshot, or a snapshot plus journal records. Each copy resumes,
    // serially or pooled, to the one-shot run.
    let reads = sim_reads(16, 500);
    let config = PimAssemblerConfig::small_test(13).with_observability(true);
    let (ref_run, ref_asm) = reference(config, &reads);
    let dir = temp_dir("every-write");
    let streamed = config.with_chunk_reads(12).unwrap();
    let mut files = Vec::new();
    {
        let mut asm = PimAssembler::new(streamed);
        let mut session = Session::start(&mut asm, Some(dir.clone())).unwrap();
        for chunk in reads.chunks(12) {
            session.feed(chunk).unwrap();
            files.push(std::fs::read_to_string(dir.join(CHECKPOINT_FILE)).unwrap());
        }
    }
    let journaled = files.iter().filter(|file| file.contains("\nrecord = ")).count();
    assert!(journaled > 0 && journaled < files.len(), "{journaled} of {} journaled", files.len());
    for (i, file) in files.iter().enumerate() {
        std::fs::write(dir.join(CHECKPOINT_FILE), file).unwrap();
        let workers = if i % 2 == 0 { 1 } else { 4 };
        let mut asm = PimAssembler::new(streamed.with_workers(workers));
        let run = Session::resume(&mut asm, &dir).unwrap().run(&reads).unwrap();
        assert_identical(&ref_run, &ref_asm, &run, &asm);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mid_stream_kill_with_different_resume_chunking_matches_one_shot() {
    let reads = sim_reads(12, 800);
    let config = PimAssemblerConfig::small_test(13).with_observability(true);
    let (ref_run, ref_asm) = reference(config, &reads);
    // Die after 3 chunks of 7 (cursor 21); resume in chunks of 5, so the
    // skip cuts through the middle of a resume chunk.
    let dir = temp_dir("mid-stream");
    let (run, asm) = kill_and_resume(config, &reads, &dir, 7, Some(3), false, 1, 5);
    assert_identical(&ref_run, &ref_asm, &run, &asm);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn pooled_resume_matches_serial_one_shot() {
    let reads = sim_reads(13, 800);
    let config = PimAssemblerConfig::small_test(13).with_observability(true);
    let (ref_run, ref_asm) = reference(config, &reads);
    // Serially checkpointed, killed mid-stream, resumed with 8 workers.
    let dir = temp_dir("pooled");
    let (run, asm) = kill_and_resume(config, &reads, &dir, 6, Some(4), false, 8, 11);
    assert_identical(&ref_run, &ref_asm, &run, &asm);
    std::fs::remove_dir_all(&dir).unwrap();
    // And the reverse: checkpointed under 8 workers, resumed serially.
    let dir = temp_dir("pooled-rev");
    let (run, asm) = kill_and_resume(config.with_workers(8), &reads, &dir, 6, Some(4), false, 1, 6);
    assert_identical(&ref_run, &ref_asm, &run, &asm);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn double_kill_resume_chain_composes() {
    // Kill, resume, kill the resumed session again, resume again: the
    // checkpointed metrics fold must compose across segments.
    let reads = sim_reads(14, 800);
    let config = PimAssemblerConfig::small_test(13).with_observability(true);
    let (ref_run, ref_asm) = reference(config, &reads);
    let dir = temp_dir("double-kill");
    {
        let streamed = config.with_chunk_reads(9).unwrap();
        let mut asm = PimAssembler::new(streamed);
        let mut session = Session::start(&mut asm, Some(dir.clone())).unwrap();
        for c in reads.chunks(9).take(2) {
            session.feed(c).unwrap();
        }
    }
    {
        let streamed = config.with_chunk_reads(4).unwrap();
        let mut asm = PimAssembler::new(streamed);
        let mut session = Session::resume(&mut asm, &dir).unwrap();
        for c in reads.chunks(4).take(9) {
            session.feed(c).unwrap();
        }
    }
    let mut asm = PimAssembler::new(config.with_chunk_reads(13).unwrap());
    let run = Session::resume(&mut asm, &dir).unwrap().run(&reads).unwrap();
    assert_identical(&ref_run, &ref_asm, &run, &asm);
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_chunking_and_kill_points_resume_identically(
        chunk in 1usize..=16,
        kill_after in 0usize..6,
        resume_chunk in 1usize..=16,
        pooled in any::<bool>(),
    ) {
        let reads = sim_reads(15, 500);
        let config = PimAssemblerConfig::small_test(13).with_observability(true);
        let (ref_run, ref_asm) = reference(config, &reads);
        let dir = temp_dir(&format!("prop-{chunk}-{kill_after}-{resume_chunk}-{pooled}"));
        let workers = if pooled { 8 } else { 1 };
        let (run, asm) = kill_and_resume(
            config,
            &reads,
            &dir,
            chunk,
            Some(kill_after),
            false,
            workers,
            resume_chunk,
        );
        prop_assert_eq!(&ref_run.assembly.contigs, &run.assembly.contigs);
        prop_assert_eq!(ref_run.report.commands, run.report.commands);
        prop_assert_eq!(ref_asm.controller().ledger(), asm.controller().ledger());
        let (ma, mb) = (
            ref_run.report.metrics.as_ref().unwrap(),
            run.report.metrics.as_ref().unwrap(),
        );
        prop_assert_eq!(&ma.counters, &mb.counters);
        prop_assert_eq!(&ma.floats, &mb.floats);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
