//! Serializable stage checkpoints for the staged execution engine.
//!
//! A [`StageCheckpoint`] is everything a [`crate::pipeline::Session`]
//! needs to resume a half-finished run from disk: the stage cursor, the
//! exact command/energy accounting ([`EnergyLedger`] per touched
//! sub-array plus the global and stage-boundary ledgers, all integer
//! fields), the deterministic metrics accumulated so far, and the
//! stage-specific payload each stage executor serializes for itself
//! (hash-table entries, graph survivors, …).
//!
//! The on-disk format is a line-oriented text file — `key = value`
//! scalars plus `[section]` blocks, closed by an `end` trailer. The file
//! holds a *snapshot* (one whole checkpoint) followed by a *journal* of
//! records appended after its trailer. A record is a partial checkpoint
//! that holds only what one chunk changed, framed by a header line
//! `record = <seq> <bytes> <checksum>` (its sequence number after the
//! snapshot, counting from 1, the body's byte length, and the body's
//! FNV-1a 64 checksum in hex). [`StageCheckpoint::parse`] resolves the
//! snapshot and its records into one checkpoint.
//!
//! Snapshots are written atomically (temp file + rename), so a kill
//! mid-snapshot leaves the previous file intact. Records are appended
//! in place, so a kill mid-append leaves a torn record: the journal ends
//! at the first record that is cut short, fails its checksum, or is out
//! of sequence, and what precedes it is an earlier, exact resume point.
//! The header pins a schema string and the configuration fingerprint
//! ([`crate::config::PimAssemblerConfig::fingerprint`]); a resume with
//! either mismatched is rejected with a typed error instead of silently
//! diverging. Worker count is *not* part of the fingerprint: results are
//! worker-invariant, so a serially-checkpointed run may resume pooled.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use pim_dram::ledger::{ClassTotals, CommandClass, EnergyLedger, COMMAND_CLASSES};

use crate::error::{PimError, Result};

/// Schema tag in the first line of every checkpoint file.
pub const CHECKPOINT_SCHEMA: &str = "pim-checkpoint-v1";

/// File name of the session checkpoint inside a checkpoint directory.
pub const CHECKPOINT_FILE: &str = "session.ckpt";

/// A serializable snapshot of a session between two chunks.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageCheckpoint {
    /// Configuration fingerprint the checkpoint was taken under.
    pub fingerprint: String,
    /// Name of the stage that runs next ("hashmap" while ingesting,
    /// "graph" / "traverse" once earlier stages sealed, "done" after the
    /// run completed).
    pub stage: String,
    /// Progress cursor inside the current stage (reads consumed for the
    /// hashmap stage; 0 for single-chunk stages).
    pub cursor: u64,
    /// Scalar facts (read totals, stage statistics, …).
    pub fields: BTreeMap<String, u64>,
    /// Named ledgers: `global`, `sub.<linear>` per touched sub-array, and
    /// the cumulative stage boundaries `s1` / `s2` when sealed.
    pub ledgers: BTreeMap<String, EnergyLedger>,
    /// Stage-specific list payloads: one text block per list, holding one
    /// newline-terminated line per item (see [`push_list_line`]).
    pub lists: BTreeMap<String, String>,
    /// Deterministic metrics counters accumulated up to the checkpoint.
    pub counters: BTreeMap<String, u64>,
    /// Host (non-contract) metrics accumulated up to the checkpoint.
    pub host: BTreeMap<String, u64>,
}

impl StageCheckpoint {
    /// An empty checkpoint for `stage` under `fingerprint`.
    pub fn new(fingerprint: &str, stage: &str, cursor: u64) -> Self {
        StageCheckpoint {
            fingerprint: fingerprint.to_string(),
            stage: stage.to_string(),
            cursor,
            ..StageCheckpoint::default()
        }
    }

    /// A scalar field, defaulting to 0 when absent.
    pub fn field(&self, key: &str) -> u64 {
        self.fields.get(key).copied().unwrap_or(0)
    }

    /// A required ledger section.
    ///
    /// # Errors
    ///
    /// [`PimError::Checkpoint`] when the section is missing.
    pub fn ledger(&self, name: &str) -> Result<EnergyLedger> {
        self.ledgers
            .get(name)
            .copied()
            .ok_or_else(|| corrupt(format!("missing ledger section `{name}`")))
    }

    /// Renders the checkpoint to its text form.
    pub fn to_text(&self) -> String {
        let list_bytes: usize = self.lists.values().map(String::len).sum();
        let mut out = String::with_capacity(list_bytes + 4096);
        let _ = writeln!(out, "schema = {CHECKPOINT_SCHEMA}");
        let _ = writeln!(out, "config = {}", self.fingerprint);
        let _ = writeln!(out, "stage = {}", self.stage);
        let _ = writeln!(out, "cursor = {}", self.cursor);
        if !self.fields.is_empty() {
            let _ = writeln!(out, "[fields]");
            for (k, v) in &self.fields {
                let _ = writeln!(out, "{k} = {v}");
            }
        }
        for (name, ledger) in &self.ledgers {
            let _ = writeln!(out, "[ledger {name}]");
            for class in COMMAND_CLASSES {
                let t = ledger.class(class);
                let _ =
                    writeln!(out, "{} {} {} {}", class.mnemonic(), t.count, t.time_ps, t.energy_fj);
            }
        }
        for (name, block) in &self.lists {
            let _ = writeln!(out, "[list {name}]");
            out.push_str(block);
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "[counters]");
            for (k, v) in &self.counters {
                let _ = writeln!(out, "{k} = {v}");
            }
        }
        if !self.host.is_empty() {
            let _ = writeln!(out, "[host]");
            for (k, v) in &self.host {
                let _ = writeln!(out, "{k} = {v}");
            }
        }
        let _ = writeln!(out, "end = {CHECKPOINT_SCHEMA}");
        out
    }

    /// Parses a checkpoint file: the snapshot, resolved with the whole
    /// records of its journal into exactly the checkpoint the last of
    /// them describes.
    ///
    /// Records apply in order: scalars, ledgers and metrics overwrite,
    /// and a list line replaces the line with the same key (its first
    /// two fields: `sub row` in the hash list). All records' list lines
    /// are merged into each list at once. The journal ends at the first
    /// record that is cut short, fails its checksum, or is out of
    /// sequence; that record and everything after it are ignored.
    ///
    /// # Errors
    ///
    /// [`PimError::Checkpoint`] on a schema mismatch, a snapshot without
    /// its exact `end` trailer, any malformed line, or a whole record
    /// that does not extend its snapshot: one under another fingerprint,
    /// at a stage other than `hashmap`, or whose cursor does not grow.
    pub fn parse(text: &str) -> Result<Self> {
        let (mut cp, snapshot_len) = StageCheckpoint::parse_one(text)?;
        let records = whole_records(&text[snapshot_len..])
            .into_iter()
            .map(|body| match StageCheckpoint::parse_one(body)? {
                (record, len) if len == body.len() => Ok(record),
                _ => Err(corrupt("journal record holds more than one checkpoint".into())),
            })
            .collect::<Result<Vec<_>>>()?;
        cp.apply(&records)?;
        Ok(cp)
    }

    /// Parses the checkpoint at the start of `text`, returning it and the
    /// byte length it spans (through its trailer line).
    fn parse_one(text: &str) -> Result<(Self, usize)> {
        // Each line with the byte offset just past it.
        let mut lines = split_lines(text).scan(0, |end, raw| {
            *end += raw.len();
            Some((*end, strip_eol(raw)))
        });
        let header = lines.next().map_or("", |(_, line)| line);
        let schema = header
            .strip_prefix("schema = ")
            .ok_or_else(|| corrupt("missing schema header".into()))?;
        if schema != CHECKPOINT_SCHEMA {
            return Err(corrupt(format!("schema `{schema}` does not match `{CHECKPOINT_SCHEMA}`")));
        }
        let mut cp = StageCheckpoint::default();
        let mut section = Section::Header;
        for (end, line) in lines {
            if line.is_empty() {
                continue;
            }
            // The trailer closes the checkpoint in any section, and only
            // the exact trailer does: a cut one is a truncated file.
            if let Some(value) = line.strip_prefix("end =") {
                if value.strip_prefix(' ') != Some(CHECKPOINT_SCHEMA) {
                    return Err(corrupt(format!("bad end trailer `{line}`")));
                }
                return Ok((cp, end));
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = if let Some(ledger) = name.strip_prefix("ledger ") {
                    cp.ledgers.insert(ledger.to_string(), EnergyLedger::default());
                    Section::Ledger(ledger.to_string())
                } else if let Some(list) = name.strip_prefix("list ") {
                    cp.lists.insert(list.to_string(), String::new());
                    Section::List(list.to_string())
                } else {
                    match name {
                        "fields" => Section::Fields,
                        "counters" => Section::Counters,
                        "host" => Section::Host,
                        other => return Err(corrupt(format!("unknown section `{other}`"))),
                    }
                };
                continue;
            }
            match &section {
                Section::Header => {
                    let (key, value) = split_kv(line)?;
                    match key {
                        "config" => cp.fingerprint = value.to_string(),
                        "stage" => cp.stage = value.to_string(),
                        "cursor" => cp.cursor = parse_u64(value)?,
                        other => return Err(corrupt(format!("unknown header key `{other}`"))),
                    }
                }
                Section::Fields | Section::Counters | Section::Host => {
                    let (key, value) = split_kv(line)?;
                    let map = match section {
                        Section::Fields => &mut cp.fields,
                        Section::Counters => &mut cp.counters,
                        _ => &mut cp.host,
                    };
                    map.insert(key.to_string(), parse_u64(value)?);
                }
                Section::Ledger(name) => {
                    let mut parts = line.split_whitespace();
                    let mnemonic = parts.next().unwrap_or("");
                    let class = CommandClass::from_mnemonic(mnemonic)
                        .ok_or_else(|| corrupt(format!("unknown command class `{mnemonic}`")))?;
                    let totals = ClassTotals {
                        count: parse_u64(parts.next().unwrap_or(""))?,
                        time_ps: parse_u64(parts.next().unwrap_or(""))?,
                        energy_fj: parse_u64(parts.next().unwrap_or(""))?,
                    };
                    let ledger = cp.ledgers.get_mut(name).expect("section inserted on entry");
                    ledger.set_class(class, totals);
                }
                Section::List(name) => {
                    let block = cp.lists.get_mut(name).expect("section inserted on entry");
                    block.push_str(line);
                    block.push('\n');
                }
            }
        }
        Err(corrupt("truncated checkpoint (missing end trailer)".into()))
    }

    /// Applies whole journal records to this snapshot, in order (see
    /// [`StageCheckpoint::parse`]).
    fn apply(&mut self, records: &[StageCheckpoint]) -> Result<()> {
        for record in records {
            if record.fingerprint != self.fingerprint
                || record.stage != JOURNAL_STAGE
                || self.stage != JOURNAL_STAGE
                || record.cursor <= self.cursor
            {
                return Err(corrupt(format!(
                    "journal record (`{}` at cursor {}) does not extend the `{}` checkpoint at \
                     cursor {}",
                    record.stage, record.cursor, self.stage, self.cursor
                )));
            }
            self.cursor = record.cursor;
            self.fields.extend(record.fields.iter().map(|(k, v)| (k.clone(), *v)));
            self.ledgers.extend(record.ledgers.iter().map(|(k, v)| (k.clone(), *v)));
            self.counters.extend(record.counters.iter().map(|(k, v)| (k.clone(), *v)));
            self.host.extend(record.host.iter().map(|(k, v)| (k.clone(), *v)));
        }
        let names: BTreeSet<&String> = records.iter().flat_map(|r| r.lists.keys()).collect();
        for name in names {
            let mut updates = Vec::new();
            for block in records.iter().filter_map(|r| r.lists.get(name)) {
                for line in lines(block) {
                    updates.push((list_key(line)?, line));
                }
            }
            // Stable: a key's lines stay in record order, the last wins.
            updates.sort_by_key(|&(key, _)| key);
            let merged = merge_list(self.lists.get(name).map_or("", String::as_str), &updates)?;
            self.lists.insert(name.clone(), merged);
        }
        Ok(())
    }

    /// Atomically writes the checkpoint into `dir` as a snapshot (temp
    /// file + rename), replacing the file and its journal, so an
    /// interrupted save leaves the previous file intact.
    ///
    /// # Errors
    ///
    /// [`PimError::Checkpoint`] on any I/O failure.
    pub fn save(&self, dir: &Path) -> Result<()> {
        let tmp = dir.join(format!("{CHECKPOINT_FILE}.tmp"));
        let fin = dir.join(CHECKPOINT_FILE);
        std::fs::write(&tmp, self.to_text())
            .map_err(|e| corrupt(format!("write {}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, &fin)
            .map_err(|e| corrupt(format!("rename to {}: {e}", fin.display())))?;
        Ok(())
    }

    /// Appends the checkpoint to the file in `dir` as journal record
    /// `seq` (the first record after a snapshot is 1): its header line,
    /// then its text. The checkpoint holds what changed since the file's
    /// last record or snapshot, which [`StageCheckpoint::parse`] applies
    /// on top of them. An interrupted append leaves a torn record, which
    /// parsing ignores; append to a file that holds one only after a
    /// snapshot replaced it.
    ///
    /// # Errors
    ///
    /// [`PimError::Checkpoint`] on any I/O failure, including a
    /// directory without a checkpoint file to append to.
    pub fn append(&self, dir: &Path, seq: u64) -> Result<()> {
        let body = self.to_text();
        let mut record = record_header(seq, &body);
        record.push_str(&body);
        let path = dir.join(CHECKPOINT_FILE);
        std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .and_then(|mut file| file.write_all(record.as_bytes()))
            .map_err(|e| corrupt(format!("append to {}: {e}", path.display())))
    }

    /// Loads and parses the checkpoint file stored in `dir`: its
    /// snapshot resolved with its journal (see [`StageCheckpoint::parse`]).
    ///
    /// # Errors
    ///
    /// [`PimError::Checkpoint`] when no checkpoint exists there or the
    /// file fails to parse.
    pub fn load(dir: &Path) -> Result<Self> {
        let path = dir.join(CHECKPOINT_FILE);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| corrupt(format!("read {}: {e}", path.display())))?;
        StageCheckpoint::parse(&text)
    }

    /// Verifies the checkpoint was taken under `fingerprint`.
    ///
    /// # Errors
    ///
    /// [`PimError::Checkpoint`] on a mismatch.
    pub fn verify_fingerprint(&self, fingerprint: &str) -> Result<()> {
        if self.fingerprint != fingerprint {
            return Err(corrupt(format!(
                "configuration fingerprint `{fingerprint}` does not match the checkpointed \
                 `{}` (k, filters, geometry and opt level must be identical to resume)",
                self.fingerprint
            )));
        }
        Ok(())
    }
}

enum Section {
    Header,
    Fields,
    Counters,
    Host,
    Ledger(String),
    List(String),
}

/// Prepares `dir` for a fresh checkpointed run: creates it when missing
/// and refuses to reuse a non-empty one without `force`.
///
/// # Errors
///
/// [`PimError::CheckpointDirNotEmpty`] when the directory holds files and
/// `force` is false; [`PimError::Checkpoint`] on I/O failures.
pub fn prepare_dir(dir: &Path, force: bool) -> Result<PathBuf> {
    if dir.exists() {
        let occupied = std::fs::read_dir(dir)
            .map_err(|e| corrupt(format!("read {}: {e}", dir.display())))?
            .next()
            .is_some();
        if occupied && !force {
            return Err(PimError::CheckpointDirNotEmpty { path: dir.display().to_string() });
        }
    } else {
        std::fs::create_dir_all(dir)
            .map_err(|e| corrupt(format!("create {}: {e}", dir.display())))?;
    }
    Ok(dir.to_path_buf())
}

fn corrupt(reason: String) -> PimError {
    PimError::Checkpoint { reason }
}

/// Appends one list item to `block`: `fields` in decimal, separated by
/// single spaces, then a newline. The line is built on the stack and
/// appended in one piece, so rendering a list allocates nothing beyond
/// the block itself.
///
/// # Examples
///
/// ```
/// use pim_assembler::checkpoint::push_list_line;
///
/// let mut block = String::new();
/// push_list_line(&mut block, &[0, 17, u64::MAX]);
/// assert_eq!(block, "0 17 18446744073709551615\n");
/// ```
pub fn push_list_line(block: &mut String, fields: &[u64]) {
    // Room for a separator, 20 digits (`u64::MAX`) and the newline.
    const FIELD: usize = 22;
    let mut line = [0u8; 128];
    let mut len = 0;
    for (i, &value) in fields.iter().enumerate() {
        if len + FIELD > line.len() {
            block.push_str(std::str::from_utf8(&line[..len]).expect("ASCII digits"));
            len = 0;
        }
        if i > 0 {
            line[len] = b' ';
            len += 1;
        }
        let digits = value.checked_ilog10().map_or(1, |d| d as usize + 1);
        let mut rest = value;
        for at in (len..len + digits).rev() {
            line[at] = b'0' + (rest % 10) as u8;
            rest /= 10;
        }
        len += digits;
    }
    line[len] = b'\n';
    block.push_str(std::str::from_utf8(&line[..=len]).expect("ASCII digits"));
}

/// The one stage whose checkpoints a journal record may extend: the
/// hashmap stage writes a checkpoint per chunk, every other stage one at
/// its boundary.
const JOURNAL_STAGE: &str = "hashmap";

/// Prefix of a journal record's header line.
const RECORD_HEADER: &str = "record = ";

/// The header line of journal record `seq` with text `body`:
/// `record = <seq> <bytes> <checksum>`, the checksum as 16 hex digits.
fn record_header(seq: u64, body: &str) -> String {
    format!("{RECORD_HEADER}{seq} {} {:016x}\n", body.len(), checksum(body.as_bytes()))
}

/// The checksum of a journal record's text: FNV-1a 64 over its
/// little-endian 8-byte words, then over its trailing bytes. Each step
/// is a bijection of the running hash, so any one changed word changes
/// the sum; a word per step keeps it off the write path (byte-wise
/// FNV-1a cost 1.5 ns per byte, ≈4 ms per benchmark pass).
fn checksum(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x100_0000_01b3;
    let step = |hash: u64, value: u64| (hash ^ value).wrapping_mul(PRIME);
    let mut words = bytes.chunks_exact(8);
    let hash = words.by_ref().fold(0xcbf2_9ce4_8422_2325, |hash, word| {
        step(hash, u64::from_le_bytes(word.try_into().expect("8-byte chunk")))
    });
    words.remainder().iter().fold(hash, |hash, &byte| step(hash, u64::from(byte)))
}

/// The texts of the whole records at the start of `journal`, in order:
/// up to the first record that is cut short, fails its checksum, or is
/// out of sequence.
fn whole_records(journal: &str) -> Vec<&str> {
    let mut records = Vec::new();
    let mut rest = journal;
    while let Some((header, tail)) = rest.split_once('\n') {
        let seq = records.len() as u64 + 1;
        let body = header
            .strip_prefix(RECORD_HEADER)
            .and_then(|fields| fields.split(' ').nth(1)?.parse::<usize>().ok())
            .and_then(|len| tail.get(..len))
            // The canonical header of this body at this sequence number:
            // checks the number, the length and the checksum at once.
            .filter(|body| record_header(seq, body).strip_suffix('\n') == Some(header));
        let Some(body) = body else { break };
        records.push(body);
        rest = &tail[body.len()..];
    }
    records
}

/// The key of a list line: its first two fields (`sub row` in the hash
/// list).
fn list_key(line: &str) -> Result<(u64, u64)> {
    let [first, second] =
        list_fields(line).ok_or_else(|| corrupt(format!("bad list line `{line}`")))?;
    Ok((first, second))
}

/// Merges `updates` (sorted by key; the last of equal keys wins) into
/// the list block `base` (in key order): an update replaces the line with
/// its key, or goes in at its place in key order.
fn merge_list(base: &str, updates: &[((u64, u64), &str)]) -> Result<String> {
    fn push(out: &mut String, line: &str) {
        out.push_str(line);
        out.push('\n');
    }
    let extra: usize = updates.iter().map(|(_, line)| line.len() + 1).sum();
    let mut out = String::with_capacity(base.len() + extra);
    let mut runs = updates.chunk_by(|a, b| a.0 == b.0).peekable();
    for line in lines(base) {
        let key = list_key(line)?;
        let mut line = line;
        while let Some(run) = runs.next_if(|run| run[0].0 <= key) {
            let last = run[run.len() - 1].1;
            if run[0].0 == key {
                line = last;
            } else {
                push(&mut out, last);
            }
        }
        push(&mut out, line);
    }
    for run in runs {
        push(&mut out, run[run.len() - 1].1);
    }
    Ok(out)
}

/// The lines of `text`, as [`str::lines`] yields them.
pub(crate) fn lines(text: &str) -> impl Iterator<Item = &str> {
    split_lines(text).map(strip_eol)
}

/// `raw` without its line ending (`\n` or `\r\n`).
fn strip_eol(raw: &str) -> &str {
    raw.strip_suffix('\n').map_or(raw, |line| line.strip_suffix('\r').unwrap_or(line))
}

/// `text` split after each newline, as [`str::split_inclusive`] splits
/// it at `'\n'`, but finding each newline eight bytes at a time:
/// checkpoint text is mostly short list lines, which this splits about
/// 3× faster, and a resume splits every line of the file at least twice.
fn split_lines(text: &str) -> impl Iterator<Item = &str> {
    let mut rest = text;
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        let end = newline(rest.as_bytes()).map_or(rest.len(), |at| at + 1);
        let (line, tail) = rest.split_at(end);
        rest = tail;
        Some(line)
    })
}

/// The index of the first `\n` in `bytes`.
fn newline(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);
    const NEWLINES: u64 = u64::from_le_bytes([b'\n'; 8]);
    let mut words = bytes.chunks_exact(8);
    let mut at = 0;
    for word in words.by_ref() {
        // A newline is a zero byte of `x`; the lowest flagged byte of
        // `zeros` is the first zero byte (flags above it may be false).
        let x = u64::from_le_bytes(word.try_into().expect("8-byte chunk")) ^ NEWLINES;
        let zeros = x.wrapping_sub(ONES) & !x & HIGHS;
        if zeros != 0 {
            return Some(at + zeros.trailing_zeros() as usize / 8);
        }
        at += 8;
    }
    words.remainder().iter().position(|&byte| byte == b'\n').map(|i| at + i)
}

/// Reads the first `N` fields of a list line as [`push_list_line`]
/// writes them: decimal integers, each ended by one space or the end of
/// the line. `None` when the line does not start with `N` such fields.
pub(crate) fn list_fields<const N: usize>(line: &str) -> Option<[u64; N]> {
    let mut fields = [0u64; N];
    let mut bytes = line.bytes();
    for field in &mut fields {
        let mut digits = 0;
        for byte in bytes.by_ref().take_while(|&byte| byte != b' ') {
            let digit = byte.wrapping_sub(b'0');
            if digit > 9 {
                return None;
            }
            *field = field.checked_mul(10)?.checked_add(u64::from(digit))?;
            digits += 1;
        }
        if digits == 0 {
            return None;
        }
    }
    Some(fields)
}

fn split_kv(line: &str) -> Result<(&str, &str)> {
    line.split_once(" = ").ok_or_else(|| corrupt(format!("malformed line `{line}`")))
}

fn parse_u64(s: &str) -> Result<u64> {
    s.parse().map_err(|_| corrupt(format!("bad integer `{s}`")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_dram::ledger::CommandCosts;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pim-ckpt-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample() -> StageCheckpoint {
        let costs = CommandCosts::new(
            &pim_dram::timing::TimingParams::ddr4_2133(),
            &pim_dram::energy::EnergyParams::ddr4_45nm(),
            256,
        );
        let mut ledger = EnergyLedger::default();
        ledger.charge_many(CommandClass::Aap, &costs, 7);
        ledger.charge_many(CommandClass::Read, &costs, 3);
        let mut cp = StageCheckpoint::new("fp-test", "hashmap", 42);
        cp.fields.insert("total_reads".into(), 42);
        cp.fields.insert("kmer_count".into(), 1234);
        cp.ledgers.insert("global".into(), ledger);
        cp.ledgers.insert("sub.3".into(), ledger);
        cp.lists.insert("hash".into(), "0 5 1234 15 2\n1 9 99 15 1\n".into());
        cp.lists.insert("empty".into(), String::new());
        cp.counters.insert("hashmap.aap".into(), 17);
        cp.host.insert("dispatch.batches".into(), 2);
        cp
    }

    #[test]
    fn text_round_trips_exactly() {
        let cp = sample();
        let parsed = StageCheckpoint::parse(&cp.to_text()).unwrap();
        assert_eq!(parsed, cp);
        assert_eq!(parsed.ledger("global").unwrap(), cp.ledgers["global"]);
        assert_eq!(parsed.field("kmer_count"), 1234);
    }

    #[test]
    fn list_lines_render_like_format() {
        // Every digit count, and lines long enough to flush the line
        // buffer part-way.
        let mut values = vec![0, u64::MAX];
        for digits in 1..20 {
            let p = 10u64.pow(digits);
            values.extend([p - 1, p, p + 1]);
        }
        for fields in 0..=values.len() {
            let mut block = String::from("[list x]\n");
            push_list_line(&mut block, &values[..fields]);
            let line: Vec<String> = values[..fields].iter().map(u64::to_string).collect();
            assert_eq!(block, format!("[list x]\n{}\n", line.join(" ")), "{fields} fields");
        }
    }

    #[test]
    fn truncated_and_mismatched_files_are_rejected() {
        let cp = sample();
        let text = cp.to_text();
        let truncated = &text[..text.len() / 2];
        assert!(matches!(StageCheckpoint::parse(truncated), Err(PimError::Checkpoint { .. })));
        let wrong_schema = text.replace(CHECKPOINT_SCHEMA, "pim-checkpoint-v0");
        assert!(matches!(StageCheckpoint::parse(&wrong_schema), Err(PimError::Checkpoint { .. })));
        assert!(cp.verify_fingerprint("fp-test").is_ok());
        let err = cp.verify_fingerprint("fp-other").unwrap_err();
        assert!(err.to_string().contains("fingerprint"));
    }

    /// `snapshot`'s text followed by `records` as journal records 1, 2, …
    fn journal(snapshot: &StageCheckpoint, records: &[StageCheckpoint]) -> String {
        let mut text = snapshot.to_text();
        for (i, record) in records.iter().enumerate() {
            let body = record.to_text();
            text += &record_header(i as u64 + 1, &body);
            text += &body;
        }
        text
    }

    /// A journal record at `cursor` holding `hash` lines.
    fn record(cursor: u64, hash: &str) -> StageCheckpoint {
        let mut cp = StageCheckpoint::new("fp-test", "hashmap", cursor);
        cp.fields.insert("total_reads".into(), cursor);
        cp.lists.insert("hash".into(), hash.into());
        cp
    }

    /// Two records after `sample()`.
    fn sample_records() -> [StageCheckpoint; 2] {
        let mut first = record(50, "0 2 7 15 1\n0 5 1234 15 3\n");
        first.ledgers.insert("sub.4".into(), sample().ledgers["global"]);
        first.counters.insert("hashmap.aap".into(), 20);
        [first, record(57, "0 5 1234 15 4\n2 0 8 15 1\n")]
    }

    /// `sample()` and `sample_records()` after it, with the states the
    /// file resolves to after 0, 1 and 2 records.
    fn sample_journal() -> (String, [StageCheckpoint; 3]) {
        let snapshot = sample();
        let mut after_first = snapshot.clone();
        after_first.cursor = 50;
        after_first.fields.insert("total_reads".into(), 50);
        after_first.ledgers.insert("sub.4".into(), snapshot.ledgers["global"]);
        after_first.counters.insert("hashmap.aap".into(), 20);
        after_first.lists.insert("hash".into(), "0 2 7 15 1\n0 5 1234 15 3\n1 9 99 15 1\n".into());
        let mut after_second = after_first.clone();
        after_second.cursor = 57;
        after_second.fields.insert("total_reads".into(), 57);
        after_second
            .lists
            .insert("hash".into(), "0 2 7 15 1\n0 5 1234 15 4\n1 9 99 15 1\n2 0 8 15 1\n".into());
        (journal(&snapshot, &sample_records()), [snapshot, after_first, after_second])
    }

    #[test]
    fn journal_records_resolve_to_the_state_they_describe() {
        let (text, [snapshot, after_first, after_second]) = sample_journal();
        assert_eq!(StageCheckpoint::parse(&text).unwrap(), after_second);
        // Every cut of the journal resolves to the last whole record's
        // state: a torn tail is an earlier, exact resume point.
        let snapshot_len = snapshot.to_text().len();
        let first_end = text.rfind("record = 2 ").unwrap();
        for cut in snapshot_len..text.len() {
            let expected = if cut < first_end { &snapshot } else { &after_first };
            assert_eq!(&StageCheckpoint::parse(&text[..cut]).unwrap(), expected, "cut at {cut}");
        }
        // A flipped byte anywhere in the second record (header or body)
        // fails its framing or checksum: the journal ends before it.
        for at in first_end..text.len() {
            let mut bytes = text.clone().into_bytes();
            bytes[at] ^= 0x04;
            let flipped = String::from_utf8(bytes).unwrap();
            assert_eq!(StageCheckpoint::parse(&flipped).unwrap(), after_first, "flip at {at}");
        }
        // Records out of sequence end the journal too: a duplicated first
        // record, and the two records swapped.
        let first = &text[snapshot_len..first_end];
        let doubled = format!("{}{first}{first}", &text[..snapshot_len]);
        assert_eq!(StageCheckpoint::parse(&doubled).unwrap(), after_first);
        let swapped = format!("{}{}{first}", &text[..snapshot_len], &text[first_end..]);
        assert_eq!(StageCheckpoint::parse(&swapped).unwrap(), snapshot);
    }

    #[test]
    fn a_record_that_does_not_extend_its_snapshot_is_an_error() {
        let snapshot = sample();
        let mut other_config = record(50, "");
        other_config.fingerprint = "fp-other".into();
        let mut other_stage = record(50, "");
        other_stage.stage = "graph".into();
        let stalled = record(snapshot.cursor, "");
        for bad in [other_config, other_stage, stalled] {
            let err = StageCheckpoint::parse(&journal(&snapshot, &[bad])).unwrap_err();
            assert!(err.to_string().contains("does not extend"), "{err}");
        }
        let mut traverse = sample();
        traverse.stage = "traverse".into();
        assert!(StageCheckpoint::parse(&journal(&traverse, &[record(50, "")])).is_err());
        // A whole record whose hash line has no key.
        let err = StageCheckpoint::parse(&journal(&snapshot, &[record(50, "x 1\n")])).unwrap_err();
        assert!(err.to_string().contains("bad list line"), "{err}");
    }

    #[test]
    fn a_cut_trailer_is_a_truncated_checkpoint() {
        // `sample()` ends in `[host]`, where any `end = …` line used to
        // seal the checkpoint.
        let text = sample().to_text();
        let trailer = text.rfind("end = ").unwrap();
        for cut in trailer + 1..text.len() - 1 {
            let err = StageCheckpoint::parse(&text[..cut]).unwrap_err();
            assert!(matches!(err, PimError::Checkpoint { .. }), "cut at {cut}: {err}");
        }
        // The trailer without its final newline is whole.
        assert_eq!(StageCheckpoint::parse(&text[..text.len() - 1]).unwrap(), sample());
    }

    #[test]
    fn lines_split_like_str_lines() {
        let mut text = String::new();
        for len in 0..40 {
            text.extend(std::iter::repeat_n('7', len));
            text.push_str(if len % 3 == 0 { "\r\n" } else { "\n" });
        }
        for cut in 0..=text.len() {
            assert!(lines(&text[..cut]).eq(text[..cut].lines()), "cut at {cut}");
        }
    }

    #[test]
    fn list_fields_read_what_push_list_line_writes() {
        let mut block = String::new();
        push_list_line(&mut block, &[3, 975, 12_345_678_901, 17, u64::MAX]);
        let line = block.trim_end();
        assert_eq!(list_fields(line), Some([3, 975, 12_345_678_901, 17, u64::MAX]));
        assert_eq!(list_fields(line), Some([3, 975]));
        assert_eq!(list_fields::<3>("0 17"), None);
        for bad in ["x 17", " 1 2", "1  2", "1 -2", "18446744073709551616 1"] {
            assert_eq!(list_fields::<2>(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn save_and_load_round_trip_through_a_directory() {
        let dir = temp_dir("roundtrip");
        prepare_dir(&dir, false).unwrap();
        let cp = sample();
        cp.save(&dir).unwrap();
        assert_eq!(StageCheckpoint::load(&dir).unwrap(), cp);
        // A second save overwrites atomically (no stale temp file left).
        cp.save(&dir).unwrap();
        assert!(!dir.join(format!("{CHECKPOINT_FILE}.tmp")).exists());
        // Appended records land after the snapshot, and a snapshot
        // replaces the file with its journal.
        let (text, [_, _, after_second]) = sample_journal();
        for (seq, record) in (1..).zip(sample_records()) {
            record.append(&dir, seq).unwrap();
        }
        assert_eq!(std::fs::read_to_string(dir.join(CHECKPOINT_FILE)).unwrap(), text);
        assert_eq!(StageCheckpoint::load(&dir).unwrap(), after_second);
        cp.save(&dir).unwrap();
        assert_eq!(StageCheckpoint::load(&dir).unwrap(), cp);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn non_empty_dir_requires_force() {
        let dir = temp_dir("guard");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("stale.txt"), "x").unwrap();
        let err = prepare_dir(&dir, false).unwrap_err();
        assert!(matches!(err, PimError::CheckpointDirNotEmpty { .. }), "{err}");
        assert!(err.to_string().contains("--force"));
        prepare_dir(&dir, true).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_checkpoint_is_a_typed_error() {
        let dir = temp_dir("missing");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(matches!(StageCheckpoint::load(&dir), Err(PimError::Checkpoint { .. })));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
