//! DRAM refresh modeling.
//!
//! Processing-in-DRAM does not suspend retention requirements: every row —
//! including the compute rows — must be refreshed each tREFI window, and
//! during tRFC the banks are unavailable for AAP issue. The refresh model
//! quantifies the throughput tax this imposes, which the performance model
//! folds into wall-clock estimates.

use crate::error::{DramError, Result};

/// Refresh parameters of a DDR4-class device.
///
/// # Examples
///
/// ```
/// use pim_dram::refresh::RefreshParams;
///
/// let r = RefreshParams::ddr4();
/// let tax = r.availability_tax();
/// assert!(tax > 0.0 && tax < 0.1); // a few percent of all cycles
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefreshParams {
    /// Average refresh interval (ns) — one REF command per window.
    pub t_refi_ns: f64,
    /// Refresh cycle time (ns) — bank unavailable.
    pub t_rfc_ns: f64,
}

impl RefreshParams {
    /// Validated construction: rejects parameter sets where the refresh
    /// math silently breaks down (a device with `tRFC ≥ tREFI` spends all
    /// its time refreshing — [`RefreshParams::inflate_seconds`] would
    /// return a negative or infinite wall-clock).
    ///
    /// # Errors
    ///
    /// [`DramError::InvalidParameter`] when any timing is non-positive or
    /// `t_rfc_ns >= t_refi_ns`.
    pub fn new(t_refi_ns: f64, t_rfc_ns: f64) -> Result<Self> {
        if !(t_refi_ns.is_finite() && t_refi_ns > 0.0) {
            return Err(DramError::InvalidParameter { what: "tREFI must be positive and finite" });
        }
        if !(t_rfc_ns.is_finite() && t_rfc_ns > 0.0) {
            return Err(DramError::InvalidParameter { what: "tRFC must be positive and finite" });
        }
        if t_rfc_ns >= t_refi_ns {
            return Err(DramError::InvalidParameter {
                what: "tRFC must be below tREFI (availability tax would reach 100%)",
            });
        }
        Ok(RefreshParams { t_refi_ns, t_rfc_ns })
    }

    /// DDR4 at normal temperature: tREFI = 7.8 µs, tRFC = 350 ns (8 Gb).
    pub fn ddr4() -> Self {
        RefreshParams::new(7_800.0, 350.0).expect("DDR4 defaults are valid")
    }

    /// Fraction of time the array is blocked by refresh
    /// (`tRFC / tREFI`).
    pub fn availability_tax(&self) -> f64 {
        self.t_rfc_ns / self.t_refi_ns
    }

    /// Inflates a wall-clock estimate by the refresh stall share.
    ///
    /// # Panics
    ///
    /// Panics when the parameters are degenerate (`tRFC ≥ tREFI`) — such a
    /// set cannot pass [`RefreshParams::new`], but the fields are public,
    /// so a hand-built struct is caught here instead of silently returning
    /// a negative or infinite wall-clock.
    pub fn inflate_seconds(&self, seconds: f64) -> f64 {
        let tax = self.availability_tax();
        assert!(
            tax < 1.0,
            "degenerate refresh parameters: tRFC ({}) >= tREFI ({})",
            self.t_rfc_ns,
            self.t_refi_ns
        );
        seconds / (1.0 - tax)
    }
}

impl Default for RefreshParams {
    fn default() -> Self {
        RefreshParams::ddr4()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr4_tax_is_about_4_5_percent() {
        let r = RefreshParams::ddr4();
        assert!((r.availability_tax() - 0.0449).abs() < 0.001);
    }

    #[test]
    fn inflation_is_consistent_with_tax() {
        let r = RefreshParams::ddr4();
        let inflated = r.inflate_seconds(100.0);
        assert!(inflated > 100.0);
        // Work fraction × inflated time = original time.
        assert!((inflated * (1.0 - r.availability_tax()) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_parameters_rejected_at_construction() {
        // tRFC >= tREFI: the device would spend >= 100% of its time
        // refreshing; previously this silently produced a negative
        // wall-clock from inflate_seconds.
        assert!(matches!(
            RefreshParams::new(350.0, 350.0),
            Err(DramError::InvalidParameter { .. })
        ));
        assert!(matches!(
            RefreshParams::new(100.0, 350.0),
            Err(DramError::InvalidParameter { .. })
        ));
        assert!(matches!(
            RefreshParams::new(-7800.0, 350.0),
            Err(DramError::InvalidParameter { .. })
        ));
        assert!(matches!(RefreshParams::new(7800.0, 0.0), Err(DramError::InvalidParameter { .. })));
        assert!(RefreshParams::new(7800.0, 350.0).is_ok());
    }

    #[test]
    #[should_panic(expected = "degenerate refresh parameters")]
    fn handbuilt_degenerate_struct_cannot_inflate_silently() {
        // Public fields allow bypassing `new`; the inflation guard still
        // refuses to return a negative wall-clock.
        let r = RefreshParams { t_refi_ns: 100.0, t_rfc_ns: 350.0 };
        let _ = r.inflate_seconds(10.0);
    }
}
