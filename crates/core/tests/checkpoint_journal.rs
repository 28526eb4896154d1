//! The checkpoint journal under damage.
//!
//! A checkpoint file is a snapshot followed by journal records, each
//! holding what one chunk changed. A resume from a journal that was torn,
//! truncated, flipped, reordered or edited must return a typed error or
//! resume and finish; and where the record framing or checksum catches
//! the damage, the finished run must equal the one-shot run, because the
//! journal then ends at an earlier, exact resume point.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use pim_assembler::checkpoint::{prepare_dir, StageCheckpoint, CHECKPOINT_FILE};
use pim_assembler::{PimAssembler, PimAssemblerConfig, PimError, PimRun, Session};
use pim_dram::ledger::EnergyLedger;
use pim_genome::reads::{Read, ReadSimulator};
use pim_genome::sequence::DnaSequence;

/// Small chunks: each changes a small part of the table, so several
/// records follow each snapshot.
const CHUNK: usize = 2;

fn config() -> PimAssemblerConfig {
    PimAssemblerConfig::small_test(13).with_chunk_reads(CHUNK).unwrap()
}

fn reads() -> Vec<Read> {
    let mut rng = ChaCha8Rng::seed_from_u64(16);
    let genome = DnaSequence::random(&mut rng, 500);
    ReadSimulator::new(60, 25.0).simulate(&genome, &mut rng)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pim-journal-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    prepare_dir(&dir, false).unwrap();
    dir
}

/// What a finished run must reproduce: contigs, command ledger and the
/// controller's full ledger.
type Facts = (Vec<pim_genome::contig::Contig>, EnergyLedger, EnergyLedger);

fn facts(run: &PimRun, asm: &PimAssembler) -> Facts {
    (run.assembly.contigs.clone(), run.report.commands, *asm.controller().ledger())
}

fn one_shot() -> &'static Facts {
    static FACTS: OnceLock<Facts> = OnceLock::new();
    FACTS.get_or_init(|| {
        let mut asm = PimAssembler::new(PimAssemblerConfig::small_test(13));
        let run = asm.assemble(&reads()).unwrap();
        facts(&run, &asm)
    })
}

/// Writes `text` as the checkpoint file in `dir`, resumes from it and
/// runs the read stream to the end (in larger chunks, to keep cases
/// quick: the chunk size is not part of the fingerprint).
fn resume_and_finish(dir: &Path, text: &str) -> Result<Facts, PimError> {
    std::fs::write(dir.join(CHECKPOINT_FILE), text).unwrap();
    let mut asm = PimAssembler::new(config().with_chunk_reads(16).unwrap());
    let run = Session::resume(&mut asm, dir)?.run(&reads())?;
    Ok(facts(&run, &asm))
}

/// Byte offsets of the whole journal records in a file a session wrote:
/// `(header start, body end)` of each record after the snapshot.
fn records(text: &str) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut at = text.find("\nrecord = ").map(|i| i + 1);
    while let Some(start) = at {
        let Some(header_len) = text[start..].find('\n') else { break };
        let header_end = start + header_len + 1;
        let len: usize = text[start..header_end].split(' ').nth(3).unwrap().parse().unwrap();
        let end = header_end + len;
        if end > text.len() {
            break;
        }
        spans.push((start, end));
        at = (end < text.len()).then_some(end);
    }
    spans
}

/// Feeds chunks into `session` one at a time until the file in `dir`
/// ends in at least `records` journal records, returning its text.
fn feed_until_records(
    session: &mut Session,
    dir: &Path,
    chunks: &mut dyn Iterator<Item = &[Read]>,
    records: usize,
) -> String {
    for chunk in chunks {
        session.feed(chunk).unwrap();
        let text = std::fs::read_to_string(dir.join(CHECKPOINT_FILE)).unwrap();
        if self::records(&text).len() >= records {
            return text;
        }
    }
    panic!("the stream ended before the journal held {records} records");
}

/// A real journaled checkpoint: a snapshot and at least four records.
fn journaled() -> &'static String {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let dir = temp_dir("base");
        let reads = reads();
        let text = {
            let mut asm = PimAssembler::new(config());
            let mut session = Session::start(&mut asm, Some(dir.clone())).unwrap();
            feed_until_records(&mut session, &dir, &mut reads.chunks(CHUNK), 4)
        };
        std::fs::remove_dir_all(&dir).unwrap();
        text
    })
}

/// `text` with record `i` (of `spans`) re-framed after `edit` rewrote its
/// body: its header carries the new length and checksum.
fn reframe(
    text: &str,
    spans: &[(usize, usize)],
    i: usize,
    edit: impl Fn(&str) -> String,
) -> String {
    let (start, end) = spans[i];
    let header_end = start + text[start..].find('\n').unwrap() + 1;
    let body = edit(&text[header_end..end]);
    let seq = i + 1;
    // The framing a session writes, rebuilt through a scratch append.
    let dir = temp_dir(&format!("reframe-{i}"));
    std::fs::write(dir.join(CHECKPOINT_FILE), "").unwrap();
    let record = StageCheckpoint::parse(&body).map(|cp| cp.append(&dir, seq as u64));
    let framed = match record {
        Ok(Ok(())) => std::fs::read_to_string(dir.join(CHECKPOINT_FILE)).unwrap(),
        // An edit the parser rejects keeps its old header: the checksum
        // then ends the journal there, which is also a legal outcome.
        _ => format!("{}{body}", &text[start..header_end]),
    };
    std::fs::remove_dir_all(&dir).unwrap();
    format!("{}{framed}{}", &text[..start], &text[end..])
}

/// `body` with the first run of digits in token `token` of line `line`
/// (both modulo their counts) replaced by `value`.
fn edit_number(body: &str, line: usize, token: usize, value: u64) -> String {
    let mut lines: Vec<String> = body.lines().map(String::from).collect();
    let n = lines.len();
    let target = &mut lines[line % n];
    let mut tokens: Vec<String> = target.split(' ').map(String::from).collect();
    let n = tokens.len();
    let tok = &mut tokens[token % n];
    if let Some(start) = tok.find(|c: char| c.is_ascii_digit()) {
        let end = tok[start..].find(|c: char| !c.is_ascii_digit()).map_or(tok.len(), |e| start + e);
        *tok = format!("{}{value}{}", &tok[..start], &tok[end..]);
    }
    *target = tokens.join(" ");
    lines.join("\n") + "\n"
}

#[derive(Debug, Clone)]
enum Damage {
    /// Cut the file at a byte.
    Truncate(usize),
    /// XOR a byte with a mask below 0x80 (the file stays ASCII).
    Flip(usize, u8),
    /// Remove a record.
    Drop(usize),
    /// Repeat a record right after itself.
    Duplicate(usize),
    /// Swap a record with the next one.
    Swap(usize),
    /// Rewrite a number in a record and re-frame it with a valid checksum.
    Edit(usize, usize, usize, u64),
}

impl Damage {
    /// Damage of kind `kind` (modulo the six kinds) at positions `at` and
    /// `token`, writing `value` or flipping with `mask`.
    fn of(kind: usize, at: usize, token: usize, value: u64, mask: u8) -> Self {
        match kind % 6 {
            0 => Damage::Truncate(at),
            1 => Damage::Flip(at, mask),
            2 => Damage::Drop(at),
            3 => Damage::Duplicate(at),
            4 => Damage::Swap(at),
            _ => Damage::Edit(at, at / 7, token, value),
        }
    }
}

/// An offset in `0..len` from `at`: for even `at` one in `from..len`
/// (the journal, a small part of the file), for odd `at` anywhere.
fn offset(at: usize, from: usize, len: usize) -> usize {
    if at.is_multiple_of(2) {
        from + at / 2 % (len - from)
    } else {
        at / 2 % len
    }
}

/// The damaged text, and whether the framing or checksum catches the
/// damage (`Some(true)`: the run must equal the one-shot run), the
/// snapshot is cut (`Some(false)`: resume must fail), or neither (`None`).
fn apply(text: &str, damage: &Damage) -> (String, Option<bool>) {
    let spans = records(text);
    let snapshot_len = spans[0].0;
    let n = spans.len();
    let whole = |i: usize| &text[spans[i].0..spans[i].1];
    match *damage {
        Damage::Truncate(at) => {
            let at = offset(at, snapshot_len - 1, text.len() + 1);
            // Short of the trailer line's newline, the snapshot is cut.
            (text[..at].to_string(), Some(at + 1 >= snapshot_len))
        }
        Damage::Flip(at, mask) => {
            let at = offset(at, snapshot_len, text.len());
            let mut bytes = text.as_bytes().to_vec();
            bytes[at] ^= mask;
            let caught = (at >= snapshot_len).then_some(true);
            (String::from_utf8(bytes).unwrap(), caught)
        }
        Damage::Drop(i) => {
            let (start, end) = spans[i % n];
            (format!("{}{}", &text[..start], &text[end..]), Some(true))
        }
        Damage::Duplicate(i) => {
            let end = spans[i % n].1;
            (format!("{}{}{}", &text[..end], whole(i % n), &text[end..]), Some(true))
        }
        Damage::Swap(i) => {
            let i = i % (n - 1);
            let (start, end) = (spans[i].0, spans[i + 1].1);
            let swapped = format!("{}{}", whole(i + 1), whole(i));
            (format!("{}{swapped}{}", &text[..start], &text[end..]), Some(true))
        }
        Damage::Edit(i, line, token, value) => {
            (reframe(text, &spans, i % n, |body| edit_number(body, line, token, value)), None)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn a_damaged_journal_resumes_exactly_or_fails_typed(
        kind in 0usize..6,
        at in any::<usize>(),
        token in any::<usize>(),
        value in any::<u64>(),
        mask in 1u8..0x80,
    ) {
        let damage = Damage::of(kind, at, token, value, mask);
        let (text, caught) = apply(journaled(), &damage);
        let dir = temp_dir("prop");
        let outcome = resume_and_finish(&dir, &text);
        std::fs::remove_dir_all(&dir).unwrap();
        match (caught, outcome) {
            (Some(true), Ok(facts)) => prop_assert!(&facts == one_shot(), "{damage:?} diverged"),
            (Some(true), Err(err)) => prop_assert!(false, "{damage:?}: {err}"),
            (Some(false), Ok(_)) => prop_assert!(false, "{damage:?} resumed from a cut snapshot"),
            (_, Err(err)) => prop_assert!(matches!(err, PimError::Checkpoint { .. }), "{err}"),
            (None, Ok(_)) => {}
        }
    }
}

#[test]
fn the_base_journal_resolves_to_the_live_checkpoint() {
    // A snapshot plus at least four records, each whole, resolves to the
    // checkpoint of the same reads fed as one chunk, byte for byte (its
    // counts included, which no resumed run's output shows at
    // `min_count` 1), and the file resumes to the one-shot run.
    let text = journaled();
    let spans = records(text);
    assert!(spans.len() >= 4, "{} records", spans.len());
    assert_eq!(spans.last().unwrap().1, text.len());
    let resolved = StageCheckpoint::parse(text).unwrap();
    let dir = temp_dir("one-chunk");
    {
        let mut asm = PimAssembler::new(config());
        let mut session = Session::start(&mut asm, Some(dir.clone())).unwrap();
        session.feed(&reads()[..resolved.cursor as usize]).unwrap();
    }
    assert_eq!(StageCheckpoint::load(&dir).unwrap().to_text(), resolved.to_text());
    std::fs::remove_dir_all(&dir).unwrap();
    let dir = temp_dir("as-is");
    assert_eq!(&resume_and_finish(&dir, text).unwrap(), one_shot());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Cuts the file in `dir` in the middle of its last record's body, as a
/// kill mid-append leaves it, and returns the cursor a resume sees.
fn tear_last_record(dir: &Path) -> u64 {
    let path = dir.join(CHECKPOINT_FILE);
    let text = std::fs::read_to_string(&path).unwrap();
    let (start, end) = *records(&text).last().expect("the last write was a record");
    let before = StageCheckpoint::parse(&text[..start]).unwrap();
    std::fs::write(&path, &text[..(start + end) / 2]).unwrap();
    let torn = StageCheckpoint::load(dir).unwrap();
    assert_eq!(torn, before, "a torn record is ignored");
    torn.cursor
}

#[test]
fn a_run_killed_mid_append_twice_resumes_to_the_one_shot_run() {
    let reads = reads();
    let dir = temp_dir("torn");
    let mut chunks = reads.chunks(CHUNK);
    {
        let mut asm = PimAssembler::new(config());
        let mut session = Session::start(&mut asm, Some(dir.clone())).unwrap();
        feed_until_records(&mut session, &dir, &mut chunks, 2);
    }
    let first_kill = tear_last_record(&dir);
    {
        // Resume and re-feed the stream from the start: the covered reads
        // are skipped, the first write is a snapshot over the torn file,
        // and records follow it.
        let mut asm = PimAssembler::new(config().with_workers(4));
        let mut session = Session::resume(&mut asm, &dir).unwrap();
        let mut stream = reads.chunks(CHUNK);
        feed_until_records(&mut session, &dir, &mut stream, 3);
    }
    let second_kill = tear_last_record(&dir);
    assert!(second_kill > first_kill, "{second_kill} <= {first_kill}");
    let mut asm = PimAssembler::new(config());
    let run = Session::resume(&mut asm, &dir).unwrap().run(&reads).unwrap();
    assert_eq!(&facts(&run, &asm), one_shot());
    std::fs::remove_dir_all(&dir).unwrap();
}
