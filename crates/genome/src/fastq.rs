//! Minimal FASTQ input/output.
//!
//! Sequencers emit FASTQ (sequence + per-base Phred qualities); assemblers
//! consume it. This module parses and writes the four-line record format
//! and converts between ASCII (Phred+33) and numeric quality scores.

use std::io::{BufRead, Write};

use crate::base::DnaBase;
use crate::error::{GenomeError, Result};
use crate::sequence::DnaSequence;

/// One FASTQ record: name, bases, per-base Phred qualities.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FastqRecord {
    /// Header text after `@`.
    pub name: String,
    /// The sequence.
    pub seq: DnaSequence,
    /// Phred quality per base (0–93).
    pub quals: Vec<u8>,
}

impl FastqRecord {
    /// Mean Phred quality (0 for an empty record).
    pub fn mean_quality(&self) -> f64 {
        if self.quals.is_empty() {
            return 0.0;
        }
        self.quals.iter().map(|&q| q as f64).sum::<f64>() / self.quals.len() as f64
    }

    /// Expected number of erroneous bases given the qualities
    /// (`Σ 10^(−q/10)`).
    pub fn expected_errors(&self) -> f64 {
        self.quals.iter().map(|&q| 10f64.powf(-(q as f64) / 10.0)).sum()
    }
}

/// Parses FASTQ records (Phred+33 quality encoding).
///
/// Lower-case bases are accepted. Runs of IUPAC ambiguity codes (`N` and
/// friends — uncalled positions a sequencer emits routinely) split the
/// read into multiple records named `{name}:{i}`, with the quality string
/// sliced in sync; a read with a single fragment keeps its name, and
/// all-ambiguous reads are dropped. This mirrors [`crate::fasta::read_fasta`].
///
/// # Errors
///
/// * [`GenomeError::MalformedFastq`] for structural problems (missing `@`,
///   `+` separator, length mismatch between bases and qualities, or a
///   quality character outside `'!'..='~'`, that is, Q0–Q93),
/// * [`GenomeError::InvalidBase`] for characters that are neither
///   `ACGTacgt` nor ambiguity codes,
/// * [`GenomeError::Io`] for read failures.
///
/// # Examples
///
/// ```
/// use pim_genome::fastq::read_fastq;
///
/// let text = "@r1\nACGT\n+\nIIII\n";
/// let records = read_fastq(text.as_bytes())?;
/// assert_eq!(records[0].quals, vec![40, 40, 40, 40]);
/// # Ok::<(), pim_genome::GenomeError>(())
/// ```
pub fn read_fastq<R: BufRead>(reader: R) -> Result<Vec<FastqRecord>> {
    fastq_records(reader).collect()
}

/// Streaming FASTQ parser: an iterator over records.
///
/// Yields exactly the records [`read_fastq`] would return, in the same
/// order (the eager reader is implemented on top of this iterator), but
/// holds at most one four-line input record — plus its ambiguity-split
/// fragments — in memory at a time. Construct with [`fastq_records`].
pub struct FastqRecords<R: BufRead> {
    lines: std::iter::Enumerate<std::io::Lines<R>>,
    queue: std::collections::VecDeque<FastqRecord>,
    done: bool,
}

/// Creates a streaming record iterator over a FASTQ reader.
///
/// # Examples
///
/// ```
/// use pim_genome::fastq::fastq_records;
///
/// let text = "@r1\nACGT\n+\nIIII\n";
/// let records: Vec<_> = fastq_records(text.as_bytes()).collect::<Result<_, _>>()?;
/// assert_eq!(records[0].quals, vec![40, 40, 40, 40]);
/// # Ok::<(), pim_genome::GenomeError>(())
/// ```
pub fn fastq_records<R: BufRead>(reader: R) -> FastqRecords<R> {
    FastqRecords {
        lines: reader.lines().enumerate(),
        queue: std::collections::VecDeque::new(),
        done: false,
    }
}

impl<R: BufRead> FastqRecords<R> {
    /// Parses the next four-line record (header already consumed as
    /// `(n, header)`), pushing its fragments onto the queue.
    fn parse_record(&mut self, n: usize, header: &str) -> Result<()> {
        let name = header
            .strip_prefix('@')
            .ok_or(GenomeError::MalformedFastq { line: n + 1, reason: "expected '@' header" })?
            .trim()
            .to_string();
        let (_, seq_line) = self
            .lines
            .next()
            .ok_or(GenomeError::MalformedFastq { line: n + 2, reason: "missing sequence line" })?;
        let seq_line = seq_line?;
        let (_, plus) = self
            .lines
            .next()
            .ok_or(GenomeError::MalformedFastq { line: n + 3, reason: "missing '+' separator" })?;
        if !plus?.starts_with('+') {
            return Err(GenomeError::MalformedFastq {
                line: n + 3,
                reason: "expected '+' separator",
            });
        }
        let (_, qual_line) = self
            .lines
            .next()
            .ok_or(GenomeError::MalformedFastq { line: n + 4, reason: "missing quality line" })?;
        let qual_line = qual_line?;
        if qual_line.len() != seq_line.len() {
            return Err(GenomeError::MalformedFastq {
                line: n + 4,
                reason: "quality length differs from sequence length",
            });
        }
        if !qual_line.bytes().all(|b| (b'!'..=b'~').contains(&b)) {
            return Err(GenomeError::MalformedFastq {
                line: n + 4,
                reason: "quality character outside Phred+33 range",
            });
        }
        let qual_bytes: Vec<u8> = qual_line.bytes().map(|b| b - 33).collect();
        let mut fragments: Vec<(DnaSequence, Vec<u8>)> = Vec::new();
        let mut seq = DnaSequence::with_capacity(seq_line.len());
        let mut quals: Vec<u8> = Vec::with_capacity(qual_bytes.len());
        for (i, ch) in seq_line.chars().enumerate() {
            if crate::base::is_ambiguity_code(ch) {
                if !seq.is_empty() {
                    fragments.push((
                        std::mem::replace(&mut seq, DnaSequence::new()),
                        std::mem::take(&mut quals),
                    ));
                }
            } else {
                let line = Some(n + 2);
                let base = DnaBase::try_from_char_at(ch, i)
                    .map_err(|_| GenomeError::InvalidBase { ch, position: i, line })?;
                seq.push(base);
                quals.push(qual_bytes[i]);
            }
        }
        if !seq.is_empty() {
            fragments.push((seq, quals));
        }
        // An all-ambiguous (or empty) read contributes nothing assemblable.
        if fragments.len() == 1 {
            let (seq, quals) = fragments.pop().unwrap();
            self.queue.push_back(FastqRecord { name, seq, quals });
        } else {
            for (i, (seq, quals)) in fragments.into_iter().enumerate() {
                self.queue.push_back(FastqRecord { name: format!("{name}:{}", i + 1), seq, quals });
            }
        }
        Ok(())
    }
}

impl<R: BufRead> Iterator for FastqRecords<R> {
    type Item = Result<FastqRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(rec) = self.queue.pop_front() {
                return Some(Ok(rec));
            }
            if self.done {
                return None;
            }
            let Some((n, header)) = self.lines.next() else {
                self.done = true;
                return None;
            };
            let header = match header {
                Ok(header) => header,
                Err(e) => {
                    self.done = true;
                    return Some(Err(e.into()));
                }
            };
            if header.trim().is_empty() {
                continue;
            }
            if let Err(e) = self.parse_record(n, &header) {
                self.done = true;
                return Some(Err(e));
            }
        }
    }
}

/// Writes FASTQ records (Phred+33).
///
/// # Errors
///
/// Returns [`GenomeError::Io`] on write failure.
///
/// # Panics
///
/// Panics if a record's quality vector length differs from its sequence.
pub fn write_fastq<W: Write>(mut writer: W, records: &[FastqRecord]) -> Result<()> {
    for r in records {
        assert_eq!(r.quals.len(), r.seq.len(), "quality/sequence length mismatch");
        writeln!(writer, "@{}", r.name)?;
        writeln!(writer, "{}", r.seq)?;
        writeln!(writer, "+")?;
        let quals: String = r.quals.iter().map(|&q| (q.min(93) + 33) as char).collect();
        writeln!(writer, "{quals}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(name: &str, seq: &str, q: u8) -> FastqRecord {
        let seq: DnaSequence = seq.parse().unwrap();
        let quals = vec![q; seq.len()];
        FastqRecord { name: name.into(), seq, quals }
    }

    #[test]
    fn roundtrip() {
        let records = vec![record("a", "ACGTACGT", 38), record("b", "TTG", 12)];
        let mut buf = Vec::new();
        write_fastq(&mut buf, &records).unwrap();
        assert_eq!(read_fastq(buf.as_slice()).unwrap(), records);
    }

    #[test]
    fn phred33_decoding() {
        // 'I' = 73 → Q40; '!' = 33 → Q0.
        let recs = read_fastq("@x\nAC\n+\nI!\n".as_bytes()).unwrap();
        assert_eq!(recs[0].quals, vec![40, 0]);
    }

    #[test]
    fn mean_and_expected_errors() {
        let r = record("x", "ACGT", 20); // Q20 = 1% error each
        assert_eq!(r.mean_quality(), 20.0);
        assert!((r.expected_errors() - 0.04).abs() < 1e-9);
    }

    #[test]
    fn structural_errors_detected() {
        assert!(matches!(
            read_fastq("ACGT\n".as_bytes()),
            Err(GenomeError::MalformedFastq { reason: "expected '@' header", .. })
        ));
        assert!(matches!(
            read_fastq("@x\nACGT\nIIII\nIIII\n".as_bytes()),
            Err(GenomeError::MalformedFastq { reason: "expected '+' separator", .. })
        ));
        assert!(matches!(
            read_fastq("@x\nACGT\n+\nII\n".as_bytes()),
            Err(GenomeError::MalformedFastq {
                reason: "quality length differs from sequence length",
                ..
            })
        ));
        assert!(matches!(
            read_fastq("@x\nACGT\n+\n".as_bytes()),
            Err(GenomeError::MalformedFastq { reason: "missing quality line", .. })
        ));
    }

    #[test]
    fn invalid_base_names_its_line_and_position_in_the_line() {
        let input = "@r1\nACGT\n+\nIIII\n@r2\nAC GT\n+\nIIIII\n";
        let err = read_fastq(input.as_bytes()).unwrap_err();
        assert_eq!(err, GenomeError::InvalidBase { ch: ' ', position: 2, line: Some(6) });
        assert_eq!(err.to_string(), "invalid base ' ' at line 6, position 2");
    }

    #[test]
    fn blank_lines_between_records_tolerated() {
        let recs = read_fastq("@a\nAC\n+\nII\n\n@b\nGT\n+\nII\n".as_bytes()).unwrap();
        assert_eq!(recs.len(), 2);
    }

    #[test]
    fn n_runs_split_reads_with_quals_in_sync() {
        let recs = read_fastq("@r\nACNNGT\n+\nIJKLMN\n".as_bytes()).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].name, "r:1");
        assert_eq!(recs[0].seq.to_string(), "AC");
        assert_eq!(recs[0].quals, vec![40, 41]); // 'I','J'
        assert_eq!(recs[1].name, "r:2");
        assert_eq!(recs[1].seq.to_string(), "GT");
        assert_eq!(recs[1].quals, vec![44, 45]); // 'M','N'
    }

    #[test]
    fn lowercase_reads_accepted() {
        let recs = read_fastq("@r\nacgt\n+\nIIII\n".as_bytes()).unwrap();
        assert_eq!(recs[0].seq.to_string(), "ACGT");
    }

    #[test]
    fn all_ambiguous_reads_dropped_structure_still_checked() {
        // The dropped read's lines still count toward framing: the next
        // record parses normally.
        let recs = read_fastq("@gap\nNNNN\n+\nIIII\n@r\nACGT\n+\nIIII\n".as_bytes()).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].name, "r");
        assert_eq!(recs[0].seq.to_string(), "ACGT");
    }

    #[test]
    fn single_fragment_read_keeps_its_name() {
        let recs = read_fastq("@r\nNACGTN\n+\nIIIIII\n".as_bytes()).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].name, "r");
        assert_eq!(recs[0].quals.len(), 4);
    }

    /// Streaming and eager parses must agree record for record.
    fn assert_streaming_matches_eager(input: &str) {
        let eager = read_fastq(input.as_bytes()).unwrap();
        let streamed: Vec<FastqRecord> =
            fastq_records(input.as_bytes()).collect::<Result<_>>().unwrap();
        assert_eq!(streamed, eager, "streamed/eager drift on {input:?}");
    }

    #[test]
    fn streaming_matches_eager_on_multi_record_input() {
        assert_streaming_matches_eager("@a\nACGT\n+\nIIII\n@b\nTTG\n+\nJJJ\n\n@c\nGG\n+\nII\n");
    }

    #[test]
    fn streaming_matches_eager_on_lowercase_input() {
        assert_streaming_matches_eager("@r\nacgt\n+\nIIII\n@s\ntgCA\n+\nABCD\n");
    }

    #[test]
    fn streaming_matches_eager_on_iupac_split_input() {
        assert_streaming_matches_eager(
            "@r\nACNNGT\n+\nIJKLMN\n@gap\nNNNN\n+\nIIII\n@s\nNACGTN\n+\nIIIIII\n",
        );
    }

    #[test]
    fn streaming_yields_records_incrementally() {
        let mut it = fastq_records("@a\nAC\n+\nII\n@b\nGT\n+\nII\n".as_bytes());
        assert_eq!(it.next().unwrap().unwrap().name, "a");
        assert_eq!(it.next().unwrap().unwrap().name, "b");
        assert!(it.next().is_none());
    }

    #[test]
    fn streaming_surfaces_errors_and_stops() {
        let mut it = fastq_records("ACGT\n".as_bytes());
        assert!(matches!(it.next(), Some(Err(GenomeError::MalformedFastq { .. }))));
        assert!(it.next().is_none());
    }

    #[test]
    fn qualities_outside_phred33_rejected() {
        // A multi-byte character or DEL would decode above Q93, which
        // `write_fastq` cannot write back.
        let reason = "quality character outside Phred+33 range";
        for qual in ["\u{e9}", "I\u{7f}", " I", "I\0"] {
            let err = read_fastq(format!("@x\nAC\n+\n{qual}\n").as_bytes()).unwrap_err();
            assert_eq!(err, GenomeError::MalformedFastq { line: 4, reason }, "{qual:?}");
        }
    }

    #[test]
    fn qualities_cap_at_93_on_write() {
        let mut r = record("x", "AC", 99);
        r.quals = vec![99, 99];
        let mut buf = Vec::new();
        write_fastq(&mut buf, &[r]).unwrap();
        let parsed = read_fastq(buf.as_slice()).unwrap();
        assert_eq!(parsed[0].quals, vec![93, 93]);
    }
}
