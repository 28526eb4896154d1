//! Hostile checkpoints: a resume from a corrupted or hand-edited
//! checkpoint must return a typed error (or resume), never panic — and a
//! resumed session must run to completion the same way.
//!
//! Each `*_is_a_checkpoint_error` test edits one field of a real mid-run
//! checkpoint to a value that used to panic `Session::resume` or the
//! resumed run; the proptest rewrites one number of a real checkpoint at
//! random.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use pim_assembler::checkpoint::{prepare_dir, StageCheckpoint, CHECKPOINT_FILE};
use pim_assembler::{PimAssembler, PimAssemblerConfig, PimError, Session};
use pim_dram::ledger::{CommandClass, CommandCosts, EnergyLedger};
use pim_genome::reads::{Read, ReadSimulator};
use pim_genome::sequence::DnaSequence;

const CHUNK: usize = 8;

fn config() -> PimAssemblerConfig {
    PimAssemblerConfig::small_test(13).with_chunk_reads(CHUNK).unwrap()
}

fn reads() -> Vec<Read> {
    let mut rng = ChaCha8Rng::seed_from_u64(16);
    let genome = DnaSequence::random(&mut rng, 500);
    ReadSimulator::new(60, 25.0).simulate(&genome, &mut rng)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pim-hostile-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    prepare_dir(&dir, false).unwrap();
    dir
}

/// A real checkpoint: the hashmap stage after 3 chunks, or (`traverse`)
/// the graph/traverse boundary.
fn checkpoint(tag: &str, traverse: bool, config: PimAssemblerConfig) -> StageCheckpoint {
    let dir = temp_dir(tag);
    {
        let mut asm = PimAssembler::new(config);
        let mut session = Session::start(&mut asm, Some(dir.clone())).unwrap();
        let reads = reads();
        let chunks = if traverse { usize::MAX } else { 3 };
        for chunk in reads.chunks(CHUNK).take(chunks) {
            session.feed(chunk).unwrap();
        }
        if traverse {
            session.seal().unwrap();
            session.advance_graph().unwrap();
        }
    }
    let cp = StageCheckpoint::load(&dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    cp
}

/// Writes `text` as the checkpoint in `dir` and resumes from it under
/// `config`; with `complete`, the resumed session then re-feeds the read
/// stream and finishes.
fn resume_from(
    dir: &Path,
    text: &str,
    config: PimAssemblerConfig,
    complete: bool,
) -> Result<(), PimError> {
    std::fs::write(dir.join(CHECKPOINT_FILE), text).unwrap();
    let mut asm = PimAssembler::new(config);
    let session = Session::resume(&mut asm, dir)?;
    if complete {
        session.run(&reads())?;
    }
    Ok(())
}

/// Resuming `cp` under `config` (and, with `complete`, running it to the
/// end) fails with a checkpoint error.
fn assert_run_error(tag: &str, cp: &StageCheckpoint, config: PimAssemblerConfig, complete: bool) {
    let dir = temp_dir(tag);
    let err = resume_from(&dir, &cp.to_text(), config, complete).unwrap_err();
    assert!(matches!(err, PimError::Checkpoint { .. }), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

fn assert_checkpoint_error(tag: &str, cp: &StageCheckpoint) {
    assert_run_error(tag, cp, config(), false);
}

/// Rewrites field `index` of the first `hash` entry
/// (`sub row packed k count`), the first line of the list's block.
fn edit_first_hash_entry(cp: &mut StageCheckpoint, index: usize, value: usize) {
    let block = cp.lists.get_mut("hash").unwrap();
    let (first, rest) = block.split_once('\n').unwrap();
    let mut fields: Vec<String> = first.split_whitespace().map(String::from).collect();
    fields[index] = value.to_string();
    *block = format!("{}\n{rest}", fields.join(" "));
}

#[test]
fn out_of_range_subarray_ledger_is_a_checkpoint_error() {
    let mut cp = checkpoint("ledger", false, config());
    let name = cp.ledgers.keys().find(|name| name.starts_with("sub.")).unwrap().clone();
    let ledger = cp.ledgers.remove(&name).unwrap();
    cp.ledgers.insert("sub.99999999".into(), ledger);
    assert_checkpoint_error("ledger", &cp);
}

#[test]
fn hash_entry_past_the_partition_is_a_checkpoint_error() {
    let mut cp = checkpoint("sub-index", false, config());
    edit_first_hash_entry(&mut cp, 0, config().hash_subarrays);
    assert_checkpoint_error("sub-index", &cp);
}

#[test]
fn hash_entry_past_the_kmer_region_is_a_checkpoint_error() {
    // Row 1000 of the sub-array's 1024 lies past its 976-row k-mer region.
    let mut cp = checkpoint("row", false, config());
    edit_first_hash_entry(&mut cp, 1, 1000);
    assert_checkpoint_error("row", &cp);
}

#[test]
fn edited_ledger_count_is_a_checkpoint_error() {
    // A ledger whose count disagrees with its charged latency and energy
    // was edited: the report would count commands its device time and
    // energy never paid for.
    let mut cp = checkpoint("count", false, config());
    let ledger = cp.ledgers.values_mut().find(|l| l.class(CommandClass::Aap).count > 0).unwrap();
    let mut aap = ledger.class(CommandClass::Aap);
    aap.count += 1 << 40;
    ledger.set_class(CommandClass::Aap, aap);
    assert_checkpoint_error("count", &cp);
}

/// The cost table `config()` charges at.
fn costs() -> CommandCosts {
    *PimAssembler::new(config()).controller().costs()
}

/// Adds `extra` commands of `class`, each charged at `costs()`, to `ledger`.
fn charge_more(ledger: &mut EnergyLedger, class: CommandClass, extra: u64) {
    let (unit, mut totals) = (costs().unit(class), ledger.class(class));
    totals.count += extra;
    totals.time_ps += extra * unit.time_ps;
    totals.energy_fj += extra * unit.energy_fj;
    ledger.set_class(class, totals);
}

#[test]
fn a_huge_consistent_ledger_resumes_and_finishes() {
    // 2^40 more AAPs on one sub-array, each charged: a consistent ledger
    // whose sub-array queue the report's scheduler then skips through.
    let mut cp = checkpoint("huge", false, config());
    let sub = cp.ledgers.iter_mut().find(|(name, _)| name.starts_with("sub.")).unwrap().1;
    charge_more(sub, CommandClass::Aap, 1 << 40);
    let dir = temp_dir("huge");
    std::fs::write(dir.join(CHECKPOINT_FILE), cp.to_text()).unwrap();
    let mut asm = PimAssembler::new(config());
    let run = Session::resume(&mut asm, &dir).unwrap().run(&reads()).unwrap();
    assert!(run.report.commands.count(CommandClass::Aap) > 1 << 40);
    let parallelism = run.report.measured_parallelism.unwrap();
    assert!(parallelism >= 1.0, "{parallelism}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_ledger_without_headroom_for_the_resumed_run_is_a_checkpoint_error() {
    // A consistent ledger whose merged energy sits just under u64::MAX:
    // the resumed run's own charges overflowed the ledgers' cross-class
    // totals (a panic in debug builds, a wrapped total in release builds).
    let mut cp = checkpoint("headroom", false, config());
    let merged: u64 = cp
        .ledgers
        .iter()
        .filter(|(name, _)| *name == "global" || name.starts_with("sub."))
        .map(|(_, l)| l.total_energy_fj())
        .sum();
    let unit = costs().unit(CommandClass::Dpu);
    charge_more(
        cp.ledgers.get_mut("global").unwrap(),
        CommandClass::Dpu,
        (u64::MAX - merged) / unit.energy_fj,
    );
    let dir = temp_dir("headroom");
    let err = resume_from(&dir, &cp.to_text(), config(), true).unwrap_err();
    assert!(matches!(err, PimError::Checkpoint { .. }), "{err}");
    assert!(err.to_string().contains("energy"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn out_of_order_stage_boundaries_are_a_checkpoint_error() {
    // `finish` takes the graph stage's commands as s2 − s1: swapped
    // boundaries underflowed there.
    let mut cp = checkpoint("boundaries", true, config());
    let (s1, s2) = (cp.ledgers["s1"], cp.ledgers["s2"]);
    assert_ne!(s1, s2);
    cp.ledgers.insert("s1".into(), s2);
    cp.ledgers.insert("s2".into(), s1);
    assert_run_error("boundaries", &cp, config(), true);
}

#[test]
fn overflowing_checkpointed_metric_is_a_checkpoint_error() {
    // The next checkpoint write folds the saved counters into the live
    // ones: a saturated counter overflowed there.
    let observed = config().with_observability(true);
    let mut cp = checkpoint("metric", false, observed);
    *cp.counters.get_mut("hashmap.aap").unwrap() = u64::MAX;
    assert_run_error("metric", &cp, observed, true);
}

#[test]
fn overflowing_hash_statistics_are_a_checkpoint_error() {
    // The resumed run adds the next chunks' counts to the checkpointed
    // totals: a saturated one overflowed there (a panic in debug builds,
    // a silent wrap in release builds).
    let base = checkpoint("hash-stats", false, config());
    for field in ["hash.inserted_total", "hash.distinct", "hash.probes", "hash.hits", "kmer_count"]
    {
        let mut cp = base.clone();
        *cp.fields.get_mut(field).unwrap() = u64::MAX;
        let dir = temp_dir("hash-stats");
        let err = resume_from(&dir, &cp.to_text(), config(), true).unwrap_err();
        assert!(matches!(err, PimError::Checkpoint { .. }), "{field}: {err}");
        assert!(err.to_string().contains(field), "{field}: {err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn every_cut_of_an_observed_checkpoints_trailer_is_a_checkpoint_error() {
    // An observed run's checkpoint ends in its metrics sections, where
    // any `end = …` line used to seal the file: a cut trailer resumed.
    let observed = config().with_observability(true);
    let text = checkpoint("trailer", false, observed).to_text();
    let trailer = text.rfind("end = ").unwrap();
    assert!(text[..trailer].contains("\n[host]\n"), "an observed checkpoint ends in [host]");
    let dir = temp_dir("trailer");
    for cut in trailer + 1..text.len() - 1 {
        let err = resume_from(&dir, &text[..cut], observed, false).unwrap_err();
        assert!(matches!(err, PimError::Checkpoint { .. }), "cut at {cut}: {err}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Interesting replacement values: region and partition boundaries,
/// word-size edges, and the extremes.
const PROBES: [u64; 16] =
    [0, 1, 2, 7, 8, 12, 13, 255, 256, 975, 976, 1000, 1024, 32768, 1 << 40, u64::MAX];

/// `text` with the number in token `token` of line `line` (both taken
/// modulo their counts) replaced by `value`: the token's first run of
/// digits, or the whole token when it has none.
fn mutate(text: &str, line: usize, token: usize, value: u64) -> String {
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    let n = lines.len();
    let target = &mut lines[line % n];
    let mut tokens: Vec<String> = target.split_whitespace().map(String::from).collect();
    if tokens.is_empty() {
        return text.to_string();
    }
    let n = tokens.len();
    let tok = &mut tokens[token % n];
    *tok = match tok.find(|c: char| c.is_ascii_digit()) {
        Some(start) => {
            let end =
                tok[start..].find(|c: char| !c.is_ascii_digit()).map_or(tok.len(), |e| start + e);
            format!("{}{value}{}", &tok[..start], &tok[end..])
        }
        None => value.to_string(),
    };
    *target = tokens.join(" ");
    lines.join("\n") + "\n"
}

fn base_texts() -> &'static [String; 2] {
    static TEXTS: OnceLock<[String; 2]> = OnceLock::new();
    TEXTS.get_or_init(|| {
        [
            checkpoint("base-hashmap", false, config()).to_text(),
            checkpoint("base-traverse", true, config()).to_text(),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn resume_never_panics_on_a_mutated_checkpoint(
        traverse in any::<bool>(),
        line in any::<usize>(),
        token in any::<usize>(),
        probe in 0usize..20,
        random in any::<u64>(),
    ) {
        let text = &base_texts()[usize::from(traverse)];
        let value = PROBES.get(probe).copied().unwrap_or(random);
        let dir = temp_dir(&format!("prop-{traverse}"));
        // Either outcome is fine; a panic fails the property. Every case
        // that resumes runs to the end: a hashmap checkpoint re-feeds the
        // rest of the read stream, so the mutated table goes through the
        // probe path, and every resumed session runs the last stage and
        // builds the report.
        let _ = resume_from(&dir, &mutate(text, line, token, value), config(), true);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
