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
//! scalars plus `[section]` blocks — written atomically (temp file +
//! rename) so a kill mid-write never leaves a torn checkpoint behind.
//! The header pins a schema string and the configuration fingerprint
//! ([`crate::config::PimAssemblerConfig::fingerprint`]); a resume with
//! either mismatched is rejected with a typed error instead of silently
//! diverging. Worker count is *not* part of the fingerprint: results are
//! worker-invariant, so a serially-checkpointed run may resume pooled.

use std::collections::BTreeMap;
use std::fmt::Write as _;
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

    /// Parses a checkpoint from its text form.
    ///
    /// # Errors
    ///
    /// [`PimError::Checkpoint`] on a schema mismatch, a truncated file
    /// (missing `end` trailer), or any malformed line.
    pub fn parse(text: &str) -> Result<Self> {
        let mut lines = text.lines();
        let header = lines.next().unwrap_or("");
        let schema = header
            .strip_prefix("schema = ")
            .ok_or_else(|| corrupt("missing schema header".into()))?;
        if schema != CHECKPOINT_SCHEMA {
            return Err(corrupt(format!("schema `{schema}` does not match `{CHECKPOINT_SCHEMA}`")));
        }
        let mut cp = StageCheckpoint::default();
        let mut section = Section::Header;
        let mut sealed = false;
        for line in lines {
            if line.is_empty() {
                continue;
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
                        "end" => {
                            if value != CHECKPOINT_SCHEMA {
                                return Err(corrupt("bad end trailer".into()));
                            }
                            sealed = true;
                        }
                        other => return Err(corrupt(format!("unknown header key `{other}`"))),
                    }
                }
                Section::Fields | Section::Counters | Section::Host => {
                    let (key, value) = split_kv(line)?;
                    if key == "end" {
                        sealed = true;
                        continue;
                    }
                    let map = match section {
                        Section::Fields => &mut cp.fields,
                        Section::Counters => &mut cp.counters,
                        _ => &mut cp.host,
                    };
                    map.insert(key.to_string(), parse_u64(value)?);
                }
                Section::Ledger(name) => {
                    if is_trailer(line) {
                        sealed = true;
                        continue;
                    }
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
                    if is_trailer(line) {
                        sealed = true;
                        continue;
                    }
                    let block = cp.lists.get_mut(name).expect("section inserted on entry");
                    block.push_str(line);
                    block.push('\n');
                }
            }
        }
        if !sealed {
            return Err(corrupt("truncated checkpoint (missing end trailer)".into()));
        }
        Ok(cp)
    }

    /// Atomically writes the checkpoint into `dir` (temp file + rename),
    /// so an interrupted save leaves the previous checkpoint intact.
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

    /// Loads and parses the checkpoint stored in `dir`.
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

/// Whether `line` is the `end = <schema>` trailer.
fn is_trailer(line: &str) -> bool {
    line.strip_prefix("end = ") == Some(CHECKPOINT_SCHEMA)
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
