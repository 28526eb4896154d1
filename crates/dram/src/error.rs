//! Error type shared by all fallible operations in this crate.

use std::fmt;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, DramError>;

/// Errors raised by the DRAM model.
///
/// # Examples
///
/// ```
/// use pim_dram::{controller::Controller, geometry::DramGeometry, DramError};
///
/// let ctrl = Controller::new(DramGeometry::paper_assembly());
/// let err = ctrl.subarray_handle(99, 0, 0, 0).unwrap_err();
/// assert!(matches!(err, DramError::AddressOutOfRange { .. }));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DramError {
    /// A chip/bank/MAT/sub-array coordinate exceeded the configured geometry.
    AddressOutOfRange {
        /// Which coordinate was out of range ("chip", "bank", "mat", ...).
        component: &'static str,
        /// The offending index.
        index: usize,
        /// The exclusive upper bound for that coordinate.
        limit: usize,
    },
    /// A row index exceeded the sub-array height.
    RowOutOfRange {
        /// The offending row index.
        row: usize,
        /// Number of rows in the sub-array.
        rows: usize,
    },
    /// A row payload did not match the sub-array width.
    WidthMismatch {
        /// Provided width in bits.
        provided: usize,
        /// Expected width in bits (sub-array columns).
        expected: usize,
    },
    /// A bit field of a row reached past the row width, or was wider than
    /// the 64 bits one field access moves.
    FieldOutOfRange {
        /// First bit of the field.
        offset: usize,
        /// Field width in bits.
        len: usize,
        /// Row width in bits (sub-array columns).
        cols: usize,
    },
    /// Multi-row activation requested on rows not wired to the modified
    /// row decoder (only the 8 compute rows support it — paper §II-A).
    NotComputeRow {
        /// The offending row index.
        row: usize,
    },
    /// Multi-row activation with an unsupported number of simultaneous rows.
    BadActivationCount {
        /// Rows requested.
        requested: usize,
        /// Supported counts.
        supported: &'static str,
    },
    /// Two source rows of a simultaneous activation were identical.
    DuplicateSourceRow {
        /// The duplicated row index.
        row: usize,
    },
    /// A model parameter failed validation (e.g. refresh timing with
    /// `tRFC ≥ tREFI`, which would make the device spend all its time
    /// refreshing).
    InvalidParameter {
        /// What was wrong, in plain words.
        what: &'static str,
    },
    /// The sub-array is not owned by the executing component: it is
    /// already checked out of the controller into a
    /// [`crate::context::SubarrayContext`], a context was reattached
    /// without a matching checkout, or work was handed a context other
    /// than the sub-array it addresses. Raised whenever the
    /// detach/reattach ownership protocol is violated.
    SubarrayDetached {
        /// The unavailable sub-array.
        subarray: crate::address::SubarrayId,
    },
}

impl fmt::Display for DramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DramError::AddressOutOfRange { component, index, limit } => {
                write!(f, "{component} index {index} out of range (limit {limit})")
            }
            DramError::RowOutOfRange { row, rows } => {
                write!(f, "row {row} out of range (sub-array has {rows} rows)")
            }
            DramError::WidthMismatch { provided, expected } => {
                write!(f, "row width {provided} does not match sub-array width {expected}")
            }
            DramError::FieldOutOfRange { offset, len, cols } => write!(
                f,
                "{len}-bit field at bit {offset} does not fit a {cols}-bit row (fields are at \
                 most 64 bits)"
            ),
            DramError::NotComputeRow { row } => {
                write!(f, "row {row} is not wired to the modified row decoder")
            }
            DramError::BadActivationCount { requested, supported } => {
                write!(
                    f,
                    "cannot activate {requested} rows simultaneously (supported: {supported})"
                )
            }
            DramError::DuplicateSourceRow { row } => {
                write!(f, "source row {row} listed more than once in a multi-row activation")
            }
            DramError::InvalidParameter { what } => {
                write!(f, "invalid model parameter: {what}")
            }
            DramError::SubarrayDetached { subarray } => {
                write!(f, "sub-array {subarray} is not owned by the executing component (detached context)")
            }
        }
    }
}

impl std::error::Error for DramError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_unpunctuated() {
        let e = DramError::RowOutOfRange { row: 2000, rows: 1024 };
        let s = e.to_string();
        assert!(s.starts_with("row 2000"));
        assert!(!s.ends_with('.'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DramError>();
    }

    #[test]
    fn all_variants_display() {
        let variants = [
            DramError::AddressOutOfRange { component: "bank", index: 9, limit: 8 },
            DramError::RowOutOfRange { row: 1, rows: 1 },
            DramError::WidthMismatch { provided: 1, expected: 256 },
            DramError::FieldOutOfRange { offset: 250, len: 8, cols: 256 },
            DramError::NotComputeRow { row: 3 },
            DramError::BadActivationCount { requested: 4, supported: "2 or 3" },
            DramError::DuplicateSourceRow { row: 1016 },
            DramError::InvalidParameter { what: "tRFC must be below tREFI" },
            DramError::SubarrayDetached {
                subarray: crate::address::SubarrayId { chip: 0, bank: 1, mat: 0, subarray: 3 },
            },
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
        }
    }
}
