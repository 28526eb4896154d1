//! Error type for the PIM-Assembler core.

use std::fmt;

use pim_dram::DramError;
use pim_genome::GenomeError;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, PimError>;

/// Errors raised while mapping or executing the assembly pipeline in PIM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PimError {
    /// An underlying DRAM-model error.
    Dram(DramError),
    /// An underlying genome-toolkit error.
    Genome(GenomeError),
    /// The k-mer region of a sub-array overflowed (workload too large for
    /// the allocated sub-array set). The message names the remedy: more
    /// hash sub-arrays.
    SubarrayFull {
        /// Linear index of the saturated sub-array.
        subarray: usize,
        /// Rows available in its k-mer region.
        capacity: usize,
    },
    /// A read-mapper length the seed index cannot take: a read length
    /// shorter than the seed or longer than half the row width (two bits
    /// per base), or a reference too long for the index's 32-bit
    /// positions.
    LengthOutOfRange {
        /// What is out of range: `"read length"` or `"reference length"`.
        what: &'static str,
        /// The length in bases.
        len: usize,
        /// Shortest supported length.
        min: usize,
        /// Longest supported length.
        max: usize,
    },
    /// A read-mapper input whose length does not fit the index's fixed
    /// read length: a mapped read of another length, or a reference
    /// shorter than one read.
    SequenceLength {
        /// Which input: `"read"` or `"reference"`.
        what: &'static str,
        /// Its length in bases.
        len: usize,
        /// The index's read length in bases.
        expected: usize,
    },
    /// A graph too large for the dense adjacency mapping of the traverse
    /// stage.
    GraphTooLarge {
        /// Node count.
        nodes: usize,
        /// Maximum mappable nodes.
        max: usize,
    },
    /// A compiled template executed with the wrong number of row bindings
    /// for its kernel's role set.
    TemplateArity {
        /// Roles the kernel binds.
        expected: usize,
        /// Rows actually supplied.
        provided: usize,
    },
    /// A kernel program rejected by the IR compile pipeline (decoder
    /// activation-set legality, SA-mode shape compatibility, dataflow, or
    /// allocation), with its source-kernel span.
    Ir(crate::ir::IrError),
    /// A streamed run configured with `chunk_reads == 0` (a chunk must
    /// make progress, or the session would never advance its cursor).
    InvalidChunkSize,
    /// A checkpoint directory that already holds files, rejected without
    /// an explicit `force` (`--force` on the command line).
    CheckpointDirNotEmpty {
        /// The offending directory.
        path: String,
    },
    /// A checkpoint that could not be written, read, or parsed — schema
    /// mismatch, truncated file, or a config fingerprint that does not
    /// match the resuming session.
    Checkpoint {
        /// What went wrong, human-readable.
        reason: String,
    },
}

impl fmt::Display for PimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PimError::Dram(e) => write!(f, "dram: {e}"),
            PimError::Genome(e) => write!(f, "genome: {e}"),
            PimError::SubarrayFull { subarray, capacity } => write!(
                f,
                "sub-array {subarray} k-mer region full ({capacity} rows); spread the k-mers over \
                 more hash sub-arrays (--subarrays, or PimAssemblerConfig::with_hash_subarrays)"
            ),
            PimError::LengthOutOfRange { what, len, min, max } => {
                write!(f, "{what} {len} bp is outside the supported range {min}..={max} bp")
            }
            PimError::SequenceLength { what, len, expected } => {
                write!(f, "{what} is {len} bp but the mapping index takes {expected} bp reads")
            }
            PimError::GraphTooLarge { nodes, max } => {
                write!(f, "graph with {nodes} nodes exceeds dense mapping limit {max}")
            }
            PimError::TemplateArity { expected, provided } => {
                write!(f, "template binds {expected} row roles, {provided} supplied")
            }
            PimError::Ir(e) => write!(f, "ir: {e}"),
            PimError::InvalidChunkSize => {
                write!(f, "chunk_reads must be at least 1 on the streamed path")
            }
            PimError::CheckpointDirNotEmpty { path } => {
                write!(f, "refusing to overwrite checkpoints in {path}; pass --force to replace")
            }
            PimError::Checkpoint { reason } => write!(f, "checkpoint: {reason}"),
        }
    }
}

impl std::error::Error for PimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PimError::Dram(e) => Some(e),
            PimError::Genome(e) => Some(e),
            PimError::Ir(e) => Some(e),
            _ => None,
        }
    }
}

impl From<crate::ir::IrError> for PimError {
    fn from(e: crate::ir::IrError) -> Self {
        PimError::Ir(e)
    }
}

impl From<DramError> for PimError {
    fn from(e: DramError) -> Self {
        PimError::Dram(e)
    }
}

impl From<GenomeError> for PimError {
    fn from(e: GenomeError) -> Self {
        PimError::Genome(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_substrate_errors() {
        let d: PimError = DramError::RowOutOfRange { row: 1, rows: 1 }.into();
        assert!(matches!(d, PimError::Dram(_)));
        let g: PimError = GenomeError::UnsupportedK { k: 99 }.into();
        assert!(matches!(g, PimError::Genome(_)));
    }

    #[test]
    fn displays() {
        let e = PimError::SubarrayFull { subarray: 3, capacity: 976 };
        assert!(e.to_string().contains("976"));
        assert!(e.to_string().contains("more hash sub-arrays (--subarrays"), "{e}");
        let e = PimError::SequenceLength { what: "read", len: 20, expected: 24 };
        assert_eq!(e.to_string(), "read is 20 bp but the mapping index takes 24 bp reads");
        let e = PimError::LengthOutOfRange { what: "read length", len: 10, min: 16, max: 128 };
        assert_eq!(e.to_string(), "read length 10 bp is outside the supported range 16..=128 bp");
        let e = PimError::InvalidChunkSize;
        assert!(e.to_string().contains("chunk_reads"));
        let e = PimError::CheckpointDirNotEmpty { path: "ckpt".into() };
        assert!(e.to_string().contains("--force"));
        let e = PimError::Checkpoint { reason: "schema mismatch".into() };
        assert!(e.to_string().contains("schema mismatch"));
    }

    #[test]
    fn source_chains() {
        use std::error::Error;
        let e: PimError = DramError::RowOutOfRange { row: 1, rows: 1 }.into();
        assert!(e.source().is_some());
        assert!(PimError::InvalidChunkSize.source().is_none());
    }

    #[test]
    fn wraps_ir_errors_with_their_span() {
        let ir_err = crate::ir::IrError {
            span: crate::ir::KernelSpan { kernel: "xnor".into(), op_index: Some(2) },
            kind: crate::ir::IrErrorKind::DuplicateActivation { operand: "t1".into() },
        };
        let e: PimError = ir_err.into();
        assert!(matches!(e, PimError::Ir(_)));
        let msg = e.to_string();
        assert!(msg.contains("kernel `xnor` op 2"), "{msg}");
        use std::error::Error;
        assert!(e.source().is_some());
    }
}
