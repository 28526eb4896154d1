//! Area-overhead accounting (§II-B *Area Overhead*).
//!
//! Three add-on cost sources sit on top of the commodity DRAM chip:
//!
//! 1. the reconfigurable SA: ~50 additional transistors per bit-line,
//! 2. the 3:8 modified row decoder: 2 extra transistors in each of the 8
//!    compute-row word-line drivers (16 transistors per sub-array),
//! 3. the controller logic driving the enable bits.
//!
//! The paper sums these to at most **51 DRAM-row-equivalents (51×256
//! transistors) per sub-array**, i.e. ≈5 % of chip area for 1024-row
//! sub-arrays.

/// Transistor-count area model of one computational sub-array.
///
/// # Examples
///
/// ```
/// use pim_circuits::area::AreaModel;
///
/// let a = AreaModel::paper();
/// let pct = a.overhead_percent();
/// assert!(pct > 4.0 && pct < 6.0, "paper reports ~5%, got {pct}");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AreaModel {
    /// Rows per sub-array.
    pub rows: usize,
    /// Columns (bit-lines) per sub-array.
    pub cols: usize,
    /// Add-on transistors per bit-line in the reconfigurable SA.
    pub sa_addon_per_bitline: usize,
    /// Add-on transistors in the modified row decoder (2 per compute-row
    /// word-line driver × 8 rows).
    pub mrd_addon: usize,
    /// Controller transistors per sub-array (enable-bit drivers).
    pub ctrl_addon: usize,
}

impl AreaModel {
    /// The paper's accounting: 50 T per bit-line, 16 T MRD, and a controller
    /// allotment that brings the total to 51 row-equivalents.
    pub fn paper() -> Self {
        AreaModel {
            rows: 1024,
            cols: 256,
            sa_addon_per_bitline: 50,
            mrd_addon: 16,
            ctrl_addon: 240,
        }
    }

    /// Total add-on transistors.
    pub fn addon_transistors(&self) -> usize {
        self.sa_addon_per_bitline * self.cols + self.mrd_addon + self.ctrl_addon
    }

    /// Add-on expressed in DRAM-row-equivalents (`cols` transistors each),
    /// rounded up — the paper's "51 DRAM rows per sub-array, at the most".
    pub fn addon_row_equivalents(&self) -> usize {
        self.addon_transistors().div_ceil(self.cols)
    }

    /// Area overhead as a fraction of the sub-array.
    pub fn overhead_fraction(&self) -> f64 {
        self.addon_row_equivalents() as f64 / self.rows as f64
    }

    /// Area overhead in percent.
    pub fn overhead_percent(&self) -> f64 {
        100.0 * self.overhead_fraction()
    }
}

impl Default for AreaModel {
    fn default() -> Self {
        AreaModel::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_numbers_reproduce() {
        let a = AreaModel::paper();
        assert_eq!(a.addon_row_equivalents(), 51);
        let pct = a.overhead_percent();
        assert!((pct - 4.98).abs() < 0.1, "expected ≈4.98%, got {pct}");
    }

    #[test]
    fn sa_dominates_the_overhead() {
        let a = AreaModel::paper();
        let sa = a.sa_addon_per_bitline * a.cols;
        assert!(sa as f64 / a.addon_transistors() as f64 > 0.95);
    }

    #[test]
    fn taller_subarrays_amortize_better() {
        let mut tall = AreaModel::paper();
        tall.rows = 2048;
        assert!(tall.overhead_fraction() < AreaModel::paper().overhead_fraction());
    }

    #[test]
    fn row_equivalents_round_up() {
        let a =
            AreaModel { rows: 16, cols: 10, sa_addon_per_bitline: 1, mrd_addon: 1, ctrl_addon: 0 };
        // 11 transistors over 10-wide rows → 2 row-equivalents.
        assert_eq!(a.addon_row_equivalents(), 2);
    }
}
