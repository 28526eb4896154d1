//! Error type for the genome toolkit.

use std::fmt;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, GenomeError>;

/// Errors raised by sequence parsing, k-mer handling, and assembly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenomeError {
    /// A character outside `ACGTacgt` appeared in sequence input.
    InvalidBase {
        /// The offending character.
        ch: char,
        /// Index of the character (0-based) within its line, or within
        /// the string for a sequence parsed from a string.
        position: usize,
        /// Line number (1-based) in FASTA/FASTQ input; `None` for a
        /// sequence parsed from a string.
        line: Option<usize>,
    },
    /// A k value outside the supported `1..=32` range.
    UnsupportedK {
        /// The requested k.
        k: usize,
    },
    /// A sequence was too short to yield even one k-mer.
    SequenceTooShort {
        /// Sequence length.
        len: usize,
        /// Required minimum length.
        needed: usize,
    },
    /// FASTA input was malformed.
    MalformedFasta {
        /// Line number (1-based).
        line: usize,
        /// What went wrong.
        reason: &'static str,
    },
    /// FASTQ input was malformed.
    MalformedFastq {
        /// Line number (1-based).
        line: usize,
        /// What went wrong.
        reason: &'static str,
    },
    /// An I/O error, stringified (keeps the error type `Clone + Eq`).
    Io(String),
}

impl fmt::Display for GenomeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenomeError::InvalidBase { ch, position, line: None } => {
                write!(f, "invalid base {ch:?} at position {position}")
            }
            GenomeError::InvalidBase { ch, position, line: Some(line) } => {
                write!(f, "invalid base {ch:?} at line {line}, position {position}")
            }
            GenomeError::UnsupportedK { k } => {
                write!(f, "unsupported k-mer length {k} (supported: 1..=32)")
            }
            GenomeError::SequenceTooShort { len, needed } => {
                write!(f, "sequence of length {len} too short (need at least {needed})")
            }
            GenomeError::MalformedFasta { line, reason } => {
                write!(f, "malformed fasta at line {line}: {reason}")
            }
            GenomeError::MalformedFastq { line, reason } => {
                write!(f, "malformed fastq at line {line}: {reason}")
            }
            GenomeError::Io(msg) => write!(f, "io error: {msg}"),
        }
    }
}

impl std::error::Error for GenomeError {}

impl From<std::io::Error> for GenomeError {
    fn from(e: std::io::Error) -> Self {
        GenomeError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let base = GenomeError::InvalidBase { ch: 'N', position: 4, line: None };
        assert_eq!(base.to_string(), "invalid base 'N' at position 4");
        let base = GenomeError::InvalidBase { ch: 'X', position: 2, line: Some(3) };
        assert_eq!(base.to_string(), "invalid base 'X' at line 3, position 2");
        assert!(GenomeError::UnsupportedK { k: 40 }.to_string().contains("40"));
        assert!(GenomeError::SequenceTooShort { len: 3, needed: 16 }.to_string().contains("16"));
        let fastq = GenomeError::MalformedFastq { line: 4, reason: "missing quality line" };
        assert_eq!(fastq.to_string(), "malformed fastq at line 4: missing quality line");
    }

    #[test]
    fn io_errors_convert() {
        let e: GenomeError = std::io::Error::other("boom").into();
        assert!(matches!(e, GenomeError::Io(_)));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GenomeError>();
    }
}
