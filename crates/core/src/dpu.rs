//! The MAT-level Digital Processing Unit (Fig. 1a).
//!
//! "A low-overhead Digital Processing Unit (DPU) is also considered in
//! MAT-level to perform simple non-bulk bit-wise operations" (§II-A). In
//! the hashmap stage "a built-in AND unit in DPU readily takes all the
//! XNOR results to determine the next memory operation" (Fig. 7), and the
//! scalar frequency increments run here too. Every DPU operation is charged
//! through the executing [`AapPort`] — the controller's global ledger, or
//! a detached sub-array context's local ledger under parallel dispatch.

use pim_dram::port::AapPort;

/// The DPU: scalar reduction and arithmetic next to the sub-arrays.
///
/// The AND-reduction of a probe's XNOR row (Fig. 7) is charged by
/// [`crate::pim_xnor::PimComparator::compare`], which reduces the sensed
/// row in the sub-array's row buffer ([`AapPort::aap2_all_ones`]).
///
/// # Examples
///
/// ```
/// use pim_assembler::dpu::Dpu;
/// use pim_dram::{controller::Controller, geometry::DramGeometry};
///
/// let mut ctrl = Controller::new(DramGeometry::tiny());
/// assert_eq!(Dpu::increment_saturating(&mut ctrl, 7, 255), 8);
/// assert_eq!(ctrl.stats().dpu, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Dpu;

impl Dpu {
    /// Scalar increment of a frequency counter, saturating at `max`
    /// (the `New_freq` update of Fig. 5b). One DPU operation.
    pub fn increment_saturating(ctrl: &mut impl AapPort, value: u64, max: u64) -> u64 {
        ctrl.dpu_op();
        value.saturating_add(1).min(max)
    }

    /// Scalar comparison used by the controller's branch decisions.
    /// One DPU operation.
    pub fn is_zero(ctrl: &mut impl AapPort, value: u64) -> bool {
        ctrl.dpu_op();
        value == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_dram::controller::Controller;
    use pim_dram::geometry::DramGeometry;

    fn ctrl() -> Controller {
        Controller::new(DramGeometry::tiny())
    }

    #[test]
    fn increment_saturates() {
        let mut c = ctrl();
        assert_eq!(Dpu::increment_saturating(&mut c, 3, 255), 4);
        assert_eq!(Dpu::increment_saturating(&mut c, 255, 255), 255);
    }

    #[test]
    fn is_zero() {
        let mut c = ctrl();
        assert!(Dpu::is_zero(&mut c, 0));
        assert!(!Dpu::is_zero(&mut c, 7));
        assert_eq!(c.stats().dpu, 2);
    }
}
