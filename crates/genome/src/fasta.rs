//! Minimal FASTA input/output.
//!
//! Enough of the format to interchange references, reads, and contigs with
//! standard tooling: `>`-headers, wrapped sequence lines, `ACGT`/`acgt`
//! alphabet. IUPAC ambiguity codes (`N` and friends) cannot be represented
//! by the 2-bit pipeline, so a record containing them is *split* at each
//! run of ambiguous positions into separate records — the standard
//! assembler treatment of N-gaps (no k-mer may span an uncalled base) —
//! instead of rejecting the whole file.

use std::io::{BufRead, Write};

use crate::base::{is_ambiguity_code, DnaBase};
use crate::error::{GenomeError, Result};
use crate::sequence::DnaSequence;

/// One FASTA record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FastaRecord {
    /// Header text after `>` (up to the first newline).
    pub name: String,
    /// The sequence.
    pub seq: DnaSequence,
}

/// A record being accumulated, possibly splitting at ambiguity runs.
struct PendingRecord {
    name: String,
    header_line: usize,
    fragments: Vec<DnaSequence>,
    current: DnaSequence,
    saw_sequence_chars: bool,
}

impl PendingRecord {
    fn new(name: String, header_line: usize) -> Self {
        PendingRecord {
            name,
            header_line,
            fragments: Vec::new(),
            current: DnaSequence::new(),
            saw_sequence_chars: false,
        }
    }

    /// Ends the in-progress fragment (called at an ambiguity run).
    fn split(&mut self) {
        if !self.current.is_empty() {
            self.fragments.push(std::mem::replace(&mut self.current, DnaSequence::new()));
        }
    }

    /// Closes the record: one output record per non-empty fragment, named
    /// `{name}:{i}` when the record split. A record whose sequence was
    /// entirely ambiguous yields nothing; a record with *no* sequence
    /// lines at all is malformed.
    fn finish(mut self, records: &mut Vec<FastaRecord>) -> Result<()> {
        self.split();
        if self.fragments.is_empty() {
            if !self.saw_sequence_chars {
                return Err(GenomeError::MalformedFasta {
                    line: self.header_line,
                    reason: "record with empty sequence",
                });
            }
            return Ok(()); // all-N record: nothing assemblable, drop it
        }
        if self.fragments.len() == 1 {
            records.push(FastaRecord { name: self.name, seq: self.fragments.pop().unwrap() });
        } else {
            for (i, seq) in self.fragments.into_iter().enumerate() {
                records.push(FastaRecord { name: format!("{}:{}", self.name, i + 1), seq });
            }
        }
        Ok(())
    }
}

/// Parses all records from a reader.
///
/// Lower-case bases are accepted; runs of IUPAC ambiguity codes split a
/// record into multiple records named `{name}:{i}` (a record with a single
/// fragment keeps its name, and all-ambiguous records are dropped).
///
/// # Errors
///
/// * [`GenomeError::MalformedFasta`] when sequence data precedes the first
///   header or a record has no sequence lines.
/// * [`GenomeError::InvalidBase`] for characters that are neither
///   `ACGTacgt` nor ambiguity codes.
/// * [`GenomeError::Io`] for underlying read failures.
///
/// # Examples
///
/// ```
/// use pim_genome::fasta::read_fasta;
///
/// let input = ">seq1\nACGT\nACGT\n>seq2\nTTNNTT\n";
/// let records = read_fasta(input.as_bytes())?;
/// assert_eq!(records.len(), 3); // seq2 splits at the N-run
/// assert_eq!(records[1].name, "seq2:1");
/// # Ok::<(), pim_genome::GenomeError>(())
/// ```
pub fn read_fasta<R: BufRead>(reader: R) -> Result<Vec<FastaRecord>> {
    fasta_records(reader).collect()
}

/// Streaming FASTA parser: an iterator over records.
///
/// Yields exactly the records [`read_fasta`] would return, in the same
/// order (the eager reader is implemented on top of this iterator), but
/// holds at most one input record — plus its ambiguity-split fragments —
/// in memory at a time, so arbitrarily large files can be consumed
/// out-of-core. Construct with [`fasta_records`].
pub struct FastaRecords<R: BufRead> {
    lines: std::iter::Enumerate<std::io::Lines<R>>,
    pending: Option<PendingRecord>,
    queue: std::collections::VecDeque<FastaRecord>,
    done: bool,
}

/// Creates a streaming record iterator over a FASTA reader.
///
/// # Examples
///
/// ```
/// use pim_genome::fasta::fasta_records;
///
/// let input = ">seq1\nACGT\n>seq2\nTTNNTT\n";
/// let names: Vec<String> = fasta_records(input.as_bytes())
///     .map(|r| r.map(|rec| rec.name))
///     .collect::<Result<_, _>>()?;
/// assert_eq!(names, ["seq1", "seq2:1", "seq2:2"]);
/// # Ok::<(), pim_genome::GenomeError>(())
/// ```
pub fn fasta_records<R: BufRead>(reader: R) -> FastaRecords<R> {
    FastaRecords {
        lines: reader.lines().enumerate(),
        pending: None,
        queue: std::collections::VecDeque::new(),
        done: false,
    }
}

impl<R: BufRead> FastaRecords<R> {
    /// Consumes one input line, updating the pending record and pushing
    /// any completed records onto the queue.
    fn consume_line(&mut self, lineno: usize, line: &str) -> Result<()> {
        let line = line.trim_end();
        if line.is_empty() {
            return Ok(());
        }
        if let Some(name) = line.strip_prefix('>') {
            if let Some(p) = self.pending.take() {
                let mut out = Vec::new();
                p.finish(&mut out)?;
                self.queue.extend(out);
            }
            self.pending = Some(PendingRecord::new(name.trim().to_string(), lineno + 1));
        } else {
            let p = self.pending.as_mut().ok_or(GenomeError::MalformedFasta {
                line: lineno + 1,
                reason: "sequence before first header",
            })?;
            for (col, ch) in line.chars().enumerate() {
                p.saw_sequence_chars = true;
                if is_ambiguity_code(ch) {
                    p.split();
                } else {
                    let line = Some(lineno + 1);
                    let base = DnaBase::try_from_char_at(ch, col)
                        .map_err(|_| GenomeError::InvalidBase { ch, position: col, line })?;
                    p.current.push(base);
                }
            }
        }
        Ok(())
    }
}

impl<R: BufRead> Iterator for FastaRecords<R> {
    type Item = Result<FastaRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(rec) = self.queue.pop_front() {
                return Some(Ok(rec));
            }
            if self.done {
                return None;
            }
            match self.lines.next() {
                None => {
                    self.done = true;
                    if let Some(p) = self.pending.take() {
                        let mut out = Vec::new();
                        if let Err(e) = p.finish(&mut out) {
                            return Some(Err(e));
                        }
                        self.queue.extend(out);
                    }
                }
                Some((lineno, line)) => {
                    let line = match line {
                        Ok(line) => line,
                        Err(e) => {
                            self.done = true;
                            return Some(Err(e.into()));
                        }
                    };
                    if let Err(e) = self.consume_line(lineno, &line) {
                        self.done = true;
                        return Some(Err(e));
                    }
                }
            }
        }
    }
}

/// Writes records to a writer, wrapping sequence lines at 70 columns.
///
/// # Errors
///
/// Returns [`GenomeError::Io`] on write failure.
pub fn write_fasta<W: Write>(mut writer: W, records: &[FastaRecord]) -> Result<()> {
    for r in records {
        writeln!(writer, ">{}", r.name)?;
        let text = r.seq.to_string();
        for chunk in text.as_bytes().chunks(70) {
            writer.write_all(chunk)?;
            writeln!(writer)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let records = vec![
            FastaRecord { name: "a".into(), seq: "ACGTACGT".parse().unwrap() },
            FastaRecord { name: "b desc".into(), seq: "TT".parse().unwrap() },
        ];
        let mut buf = Vec::new();
        write_fasta(&mut buf, &records).unwrap();
        let parsed = read_fasta(buf.as_slice()).unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn multiline_sequences_concatenate() {
        let recs = read_fasta(">x\nAC\nGT\n".as_bytes()).unwrap();
        assert_eq!(recs[0].seq.to_string(), "ACGT");
    }

    #[test]
    fn long_sequences_wrap_on_write() {
        let seq: DnaSequence = "A".repeat(150).parse().unwrap();
        let mut buf = Vec::new();
        write_fasta(&mut buf, &[FastaRecord { name: "long".into(), seq }]).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.lines().all(|l| l.len() <= 70));
    }

    #[test]
    fn sequence_before_header_rejected() {
        let err = read_fasta("ACGT\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GenomeError::MalformedFasta { .. }));
    }

    #[test]
    fn empty_record_rejected() {
        let err = read_fasta(">x\n>y\nACGT\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GenomeError::MalformedFasta { .. }));
    }

    #[test]
    fn n_runs_split_records() {
        let recs = read_fasta(">x\nACGTNNNNTTTT\n".as_bytes()).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!((recs[0].name.as_str(), recs[0].seq.to_string().as_str()), ("x:1", "ACGT"));
        assert_eq!((recs[1].name.as_str(), recs[1].seq.to_string().as_str()), ("x:2", "TTTT"));
    }

    #[test]
    fn n_runs_split_across_line_boundaries() {
        // The run ends one line and starts the next: still a single split.
        let recs = read_fasta(">x\nACGTN\nNGGG\n".as_bytes()).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].seq.to_string(), "ACGT");
        assert_eq!(recs[1].seq.to_string(), "GGG");
    }

    #[test]
    fn single_fragment_keeps_its_name() {
        // Leading/trailing Ns trim rather than split: one fragment, no
        // `:i` suffix.
        let recs = read_fasta(">x\nNNACGTNN\n".as_bytes()).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].name, "x");
        assert_eq!(recs[0].seq.to_string(), "ACGT");
    }

    #[test]
    fn lowercase_and_mixed_case_accepted() {
        let recs = read_fasta(">x\nacgtACGT\n>y\naCnNgT\n".as_bytes()).unwrap();
        assert_eq!(recs[0].seq.to_string(), "ACGTACGT");
        // Lower-case n is an ambiguity code too.
        assert_eq!(recs[1].name, "y:1");
        assert_eq!(recs[1].seq.to_string(), "AC");
        assert_eq!(recs[2].seq.to_string(), "GT");
    }

    #[test]
    fn all_ambiguous_records_dropped() {
        let recs = read_fasta(">gap\nNNNN\n>y\nACGT\n".as_bytes()).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].name, "y");
    }

    #[test]
    fn truly_invalid_chars_still_rejected() {
        let err = read_fasta(">x\nAC*T\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GenomeError::InvalidBase { ch: '*', .. }));
    }

    #[test]
    fn invalid_base_names_its_line_and_position_in_the_line() {
        let err = read_fasta(">x\nACGTACGTAC\nGTXA\n".as_bytes()).unwrap_err();
        assert_eq!(err, GenomeError::InvalidBase { ch: 'X', position: 2, line: Some(3) });
        assert_eq!(err.to_string(), "invalid base 'X' at line 3, position 2");
    }

    #[test]
    fn blank_lines_ignored() {
        let recs = read_fasta(">x\n\nAC\n\nGT\n".as_bytes()).unwrap();
        assert_eq!(recs[0].seq.to_string(), "ACGT");
    }

    /// Streaming and eager parses must agree record for record.
    fn assert_streaming_matches_eager(input: &str) {
        let eager = read_fasta(input.as_bytes()).unwrap();
        let streamed: Vec<FastaRecord> =
            fasta_records(input.as_bytes()).collect::<Result<_>>().unwrap();
        assert_eq!(streamed, eager, "streamed/eager drift on {input:?}");
    }

    #[test]
    fn streaming_matches_eager_on_multi_record_input() {
        assert_streaming_matches_eager(">a\nACGT\nACGT\n>b desc\nTT\n>c\nGGGG\n");
    }

    #[test]
    fn streaming_matches_eager_on_lowercase_input() {
        assert_streaming_matches_eager(">x\nacgtACGT\n>y\ntgca\n");
    }

    #[test]
    fn streaming_matches_eager_on_iupac_split_input() {
        assert_streaming_matches_eager(">x\nACGTNNNNTTTT\n>gap\nNNNN\n>y\nNNACGTN\nNGGG\n");
    }

    #[test]
    fn streaming_yields_records_before_the_file_ends() {
        // The first record must be available after its header/body lines,
        // without consuming the rest of the input eagerly.
        let mut it = fasta_records(">a\nAC\n>b\nGT\n".as_bytes());
        assert_eq!(it.next().unwrap().unwrap().name, "a");
        assert_eq!(it.next().unwrap().unwrap().name, "b");
        assert!(it.next().is_none());
    }

    #[test]
    fn streaming_surfaces_errors_and_stops() {
        let mut it = fasta_records("ACGT\n".as_bytes());
        assert!(matches!(it.next(), Some(Err(GenomeError::MalformedFasta { .. }))));
        assert!(it.next().is_none());
    }
}
