//! The MAT-level Digital Processing Unit (Fig. 1a).
//!
//! "A low-overhead Digital Processing Unit (DPU) is also considered in
//! MAT-level to perform simple non-bulk bit-wise operations" (§II-A). In
//! the hashmap stage "a built-in AND unit in DPU readily takes all the
//! XNOR results to determine the next memory operation" (Fig. 7), and the
//! scalar frequency increments run here too. Every DPU operation is charged
//! to the ledger of the sub-array context it serves.

use pim_dram::context::SubarrayContext;

/// The DPU: scalar reduction and arithmetic next to the sub-arrays.
///
/// The AND-reduction of a probe's XNOR row (Fig. 7) is charged by
/// [`crate::pim_xnor::PimComparator::compare`], which reduces the sensed
/// row in the sub-array's row buffer ([`SubarrayContext::aap2_all_ones`]).
///
/// # Examples
///
/// ```
/// use pim_assembler::dpu::Dpu;
/// use pim_dram::{controller::Controller, geometry::DramGeometry, CommandClass};
///
/// let mut ctrl = Controller::new(DramGeometry::tiny());
/// let mut ctx = ctrl.detach_context(ctrl.subarray_handle(0, 0, 0, 0)?)?;
/// assert_eq!(Dpu::increment_saturating(&mut ctx, 7, 255), 8);
/// ctrl.reattach_context(ctx)?;
/// assert_eq!(ctrl.ledger().count(CommandClass::Dpu), 1);
/// # Ok::<(), pim_dram::DramError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Dpu;

impl Dpu {
    /// Scalar increment of a frequency counter, saturating at `max`
    /// (the `New_freq` update of Fig. 5b). One DPU operation.
    pub fn increment_saturating(ctx: &mut SubarrayContext, value: u64, max: u64) -> u64 {
        ctx.dpu_op();
        value.saturating_add(1).min(max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_dram::controller::Controller;
    use pim_dram::geometry::DramGeometry;

    fn ctx() -> SubarrayContext {
        let mut ctrl = Controller::new(DramGeometry::tiny());
        let sub = ctrl.subarray_handle(0, 0, 0, 0).unwrap();
        ctrl.detach_context(sub).unwrap()
    }

    #[test]
    fn increment_saturates() {
        let mut c = ctx();
        assert_eq!(Dpu::increment_saturating(&mut c, 3, 255), 4);
        assert_eq!(Dpu::increment_saturating(&mut c, 255, 255), 255);
    }
}
