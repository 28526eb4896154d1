//! Single DNA bases and their 2-bit encoding.
//!
//! PIM-Assembler packs bases two bits each so that one 256-bit DRAM row
//! stores up to 128 bp. The bit assignment follows the table in Fig. 7:
//! `T = 00`, `G = 01`, `A = 10`, `C = 11`.

use std::fmt;

use crate::error::{GenomeError, Result};

/// One DNA base.
///
/// # Examples
///
/// ```
/// use pim_genome::base::DnaBase;
///
/// assert_eq!(DnaBase::A.to_char(), 'A');
/// assert_eq!(DnaBase::A.code(), 0b10); // Fig. 7 encoding
/// assert_eq!(DnaBase::A.complement(), DnaBase::T);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DnaBase {
    /// Thymine (`00`).
    T,
    /// Guanine (`01`).
    G,
    /// Adenine (`10`).
    A,
    /// Cytosine (`11`).
    C,
}

impl DnaBase {
    /// All four bases in code order (`T, G, A, C`).
    pub const ALL: [DnaBase; 4] = [DnaBase::T, DnaBase::G, DnaBase::A, DnaBase::C];

    /// The 2-bit code of this base (Fig. 7).
    pub fn code(&self) -> u8 {
        match self {
            DnaBase::T => 0b00,
            DnaBase::G => 0b01,
            DnaBase::A => 0b10,
            DnaBase::C => 0b11,
        }
    }

    /// Reconstructs a base from its 2-bit code.
    ///
    /// # Panics
    ///
    /// Panics if `code > 3`.
    pub fn from_code(code: u8) -> Self {
        match code {
            0b00 => DnaBase::T,
            0b01 => DnaBase::G,
            0b10 => DnaBase::A,
            0b11 => DnaBase::C,
            other => panic!("invalid 2-bit base code {other}"),
        }
    }

    /// Parses a base character (case-insensitive).
    ///
    /// # Errors
    ///
    /// Returns [`GenomeError::InvalidBase`] for characters outside
    /// `ACGTacgt`; `position` is reported as 0 (callers with context use
    /// [`DnaBase::try_from_char_at`]).
    pub fn try_from_char(ch: char) -> Result<Self> {
        DnaBase::try_from_char_at(ch, 0)
    }

    /// Parses a base character, reporting `position` on error.
    ///
    /// # Errors
    ///
    /// Returns [`GenomeError::InvalidBase`] for characters outside `ACGTacgt`.
    pub fn try_from_char_at(ch: char, position: usize) -> Result<Self> {
        match ch.to_ascii_uppercase() {
            'A' => Ok(DnaBase::A),
            'C' => Ok(DnaBase::C),
            'G' => Ok(DnaBase::G),
            'T' => Ok(DnaBase::T),
            _ => Err(GenomeError::InvalidBase { ch, position, line: None }),
        }
    }

    /// The base character.
    pub fn to_char(&self) -> char {
        match self {
            DnaBase::A => 'A',
            DnaBase::C => 'C',
            DnaBase::G => 'G',
            DnaBase::T => 'T',
        }
    }

    /// Watson-Crick complement.
    pub fn complement(&self) -> Self {
        match self {
            DnaBase::A => DnaBase::T,
            DnaBase::T => DnaBase::A,
            DnaBase::C => DnaBase::G,
            DnaBase::G => DnaBase::C,
        }
    }
}

/// Whether `ch` is an IUPAC ambiguity code (`N`, `R`, `Y`, `S`, `W`, `K`,
/// `M`, `B`, `D`, `H`, `V`, case-insensitive) — a position the sequencer
/// could not call as a single base. The 2-bit pipeline cannot represent
/// these, so the FASTA/FASTQ readers split reads at runs of them instead
/// of rejecting the whole file.
pub fn is_ambiguity_code(ch: char) -> bool {
    matches!(
        ch.to_ascii_uppercase(),
        'N' | 'R' | 'Y' | 'S' | 'W' | 'K' | 'M' | 'B' | 'D' | 'H' | 'V'
    )
}

impl fmt::Display for DnaBase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_char())
    }
}

impl TryFrom<char> for DnaBase {
    type Error = GenomeError;

    fn try_from(ch: char) -> Result<Self> {
        DnaBase::try_from_char(ch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_encoding() {
        assert_eq!(DnaBase::T.code(), 0b00);
        assert_eq!(DnaBase::G.code(), 0b01);
        assert_eq!(DnaBase::A.code(), 0b10);
        assert_eq!(DnaBase::C.code(), 0b11);
    }

    #[test]
    fn code_roundtrip() {
        for b in DnaBase::ALL {
            assert_eq!(DnaBase::from_code(b.code()), b);
        }
    }

    #[test]
    fn char_roundtrip_case_insensitive() {
        for (lo, b) in [('a', DnaBase::A), ('c', DnaBase::C), ('g', DnaBase::G), ('t', DnaBase::T)]
        {
            assert_eq!(DnaBase::try_from_char(lo).unwrap(), b);
            assert_eq!(DnaBase::try_from_char(lo.to_ascii_uppercase()).unwrap(), b);
            assert_eq!(b.to_char(), lo.to_ascii_uppercase());
        }
    }

    #[test]
    fn complement_is_involution() {
        for b in DnaBase::ALL {
            assert_eq!(b.complement().complement(), b);
            assert_ne!(b.complement(), b);
        }
    }

    #[test]
    fn invalid_chars_rejected_with_position() {
        let err = DnaBase::try_from_char_at('N', 17).unwrap_err();
        assert_eq!(err, GenomeError::InvalidBase { ch: 'N', position: 17, line: None });
    }

    #[test]
    #[should_panic(expected = "invalid 2-bit base code")]
    fn from_code_bounds() {
        DnaBase::from_code(4);
    }

    #[test]
    fn ambiguity_codes_recognized() {
        for ch in "NRYSWKMBDHVnryswkmbdhv".chars() {
            assert!(is_ambiguity_code(ch), "{ch} is an IUPAC ambiguity code");
        }
        for ch in "ACGTacgt*-. 7".chars() {
            assert!(!is_ambiguity_code(ch), "{ch} is not an ambiguity code");
        }
    }
}
