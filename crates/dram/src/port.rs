//! The AAP execution port abstraction.
//!
//! Kernel code (PIM_XNOR comparison, PIM_Add carry-save trees, DPU
//! reductions) is written once against [`AapPort`] and runs unchanged
//! through either the [`crate::controller::Controller`] façade (serial,
//! globally accounted) or a detached
//! [`crate::context::SubarrayContext`] (thread-local, ledger accounted).
//! Both implementations execute bit-identically and charge identical
//! integer unit costs, which is what makes parallel dispatch equivalence
//! checkable byte for byte.

use crate::address::{RowAddr, SubarrayId};
use crate::bitrow::BitRow;
use crate::context::SubarrayContext;
use crate::controller::Controller;
use crate::error::{DramError, Result};
use crate::geometry::DramGeometry;
use crate::ledger::CommandClass;
use crate::sense_amp::SaMode;
use pim_obsv::{HistKey, Metric};

/// A target that can execute AAP commands against addressed sub-arrays.
///
/// The [`Controller`] accepts any sub-array of its geometry; a
/// [`SubarrayContext`] accepts only its own sub-array and returns
/// [`DramError::SubarrayDetached`] for any other id, which is exactly the
/// disjointness invariant a parallel dispatcher relies on.
pub trait AapPort {
    /// The configured geometry.
    fn geometry(&self) -> &DramGeometry;

    /// Address of compute row `i` (`x1..x8` ⇒ `i ∈ 0..8`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 8`.
    fn compute_row(&self, i: usize) -> RowAddr {
        RowAddr(self.geometry().compute_row(i))
    }

    /// Writes one row from the host (charged as `WR`).
    ///
    /// # Errors
    ///
    /// Propagates addressing/width/ownership errors.
    fn write_row(&mut self, id: SubarrayId, row: RowAddr, data: &BitRow) -> Result<()>;

    /// Reads one row to the host (charged as `RD`).
    ///
    /// # Errors
    ///
    /// Propagates addressing/ownership errors.
    fn read_row(&mut self, id: SubarrayId, row: RowAddr) -> Result<BitRow>;

    /// Reads a row without charging a command.
    ///
    /// # Errors
    ///
    /// Propagates addressing/ownership errors.
    fn peek_row(&mut self, id: SubarrayId, row: RowAddr) -> Result<BitRow>;

    /// Writes a row without charging a command (pair with
    /// [`AapPort::record_synthetic`]).
    ///
    /// # Errors
    ///
    /// Propagates addressing/width/ownership errors.
    fn poke_row(&mut self, id: SubarrayId, row: RowAddr, data: &BitRow) -> Result<()>;

    /// Reads the `len ≤ 64` bits at bit `offset` of a row without
    /// charging a command (pair with [`AapPort::record_synthetic`]).
    ///
    /// # Errors
    ///
    /// Propagates addressing/field-range/ownership errors.
    fn peek_field(
        &mut self,
        id: SubarrayId,
        row: RowAddr,
        offset: usize,
        len: usize,
    ) -> Result<u64>;

    /// Overwrites the `len ≤ 64` bits at bit `offset` of a row with the
    /// low bits of `value`, without charging a command.
    ///
    /// # Errors
    ///
    /// Propagates addressing/field-range/ownership errors.
    fn poke_field(
        &mut self,
        id: SubarrayId,
        row: RowAddr,
        offset: usize,
        len: usize,
        value: u64,
    ) -> Result<()>;

    /// Type-1 AAP: in-array copy.
    ///
    /// # Errors
    ///
    /// Propagates addressing/ownership errors.
    fn aap_copy(&mut self, id: SubarrayId, src: RowAddr, dst: RowAddr) -> Result<()>;

    /// Type-2 AAP: two-row activation evaluating `mode`.
    ///
    /// # Errors
    ///
    /// Propagates decoder/addressing/ownership errors.
    fn aap2(
        &mut self,
        id: SubarrayId,
        mode: SaMode,
        srcs: [RowAddr; 2],
        dst: RowAddr,
    ) -> Result<BitRow>;

    /// Single-cycle in-memory XNOR2.
    ///
    /// # Errors
    ///
    /// Same as [`AapPort::aap2`].
    fn aap2_xnor(&mut self, id: SubarrayId, srcs: [RowAddr; 2], dst: RowAddr) -> Result<BitRow> {
        self.aap2(id, SaMode::Xnor, srcs, dst)
    }

    /// Sum cycle of the in-memory adder.
    ///
    /// # Errors
    ///
    /// Same as [`AapPort::aap2`].
    fn aap2_sum(&mut self, id: SubarrayId, srcs: [RowAddr; 2], dst: RowAddr) -> Result<BitRow> {
        self.aap2(id, SaMode::CarrySum, srcs, dst)
    }

    /// Type-2 AAP whose sensed output is AND-reduced: whether every sensed
    /// bit is one (the DPU's `ki = kj` decision of Fig. 7). Charges and
    /// counts exactly like [`AapPort::aap2`], the sensed read-out
    /// included; implementations backed by the functional model reduce
    /// the row buffer in place instead of copying the row out.
    ///
    /// # Errors
    ///
    /// Same as [`AapPort::aap2`].
    fn aap2_all_ones(
        &mut self,
        id: SubarrayId,
        mode: SaMode,
        srcs: [RowAddr; 2],
        dst: RowAddr,
    ) -> Result<bool> {
        self.aap2(id, mode, srcs, dst).map(|out| out.all_ones())
    }

    /// Type-2 AAP whose sensed output the caller does not need.
    ///
    /// Semantically identical to [`AapPort::aap2`] with the return value
    /// dropped; implementations backed by the functional model skip
    /// materializing the sensed row entirely, which keeps the bulk
    /// execution path allocation-free.
    ///
    /// # Errors
    ///
    /// Same as [`AapPort::aap2`].
    fn aap2_discard(
        &mut self,
        id: SubarrayId,
        mode: SaMode,
        srcs: [RowAddr; 2],
        dst: RowAddr,
    ) -> Result<()> {
        self.aap2(id, mode, srcs, dst).map(|_| ())
    }

    /// Type-3 AAP (TRA): 3-input majority / carry, latched.
    ///
    /// # Errors
    ///
    /// Propagates decoder/addressing/ownership errors.
    fn aap3_carry(&mut self, id: SubarrayId, srcs: [RowAddr; 3], dst: RowAddr) -> Result<BitRow>;

    /// Type-3 AAP whose sensed output the caller does not need (see
    /// [`AapPort::aap2_discard`]).
    ///
    /// # Errors
    ///
    /// Same as [`AapPort::aap3_carry`].
    fn aap3_carry_discard(
        &mut self,
        id: SubarrayId,
        srcs: [RowAddr; 3],
        dst: RowAddr,
    ) -> Result<()> {
        self.aap3_carry(id, srcs, dst).map(|_| ())
    }

    /// Clears a sub-array's SA carry latch.
    ///
    /// # Errors
    ///
    /// Propagates ownership errors.
    fn reset_latch(&mut self, id: SubarrayId) -> Result<()>;

    /// Records one DPU scalar operation.
    fn dpu_op(&mut self);

    /// Records `n` DPU scalar operations.
    fn dpu_ops(&mut self, n: u64) {
        for _ in 0..n {
            self.dpu_op();
        }
    }

    /// Records `count` synthetic commands of `class` without executing
    /// them.
    fn record_synthetic(&mut self, class: CommandClass, count: u64);

    /// Adds `n` to a stage-level observability metric (hash probes, graph
    /// k-mers, …). Default is a no-op so mock ports need not care; the
    /// controller and context implementations feed their counter blocks.
    fn record_metric(&mut self, metric: Metric, n: u64) {
        let _ = (metric, n);
    }

    /// Records one observability histogram sample (probe-chain length,
    /// trail length, …). Default is a no-op.
    fn record_value(&mut self, key: HistKey, value: u64) {
        let _ = (key, value);
    }
}

impl AapPort for Controller {
    fn geometry(&self) -> &DramGeometry {
        Controller::geometry(self)
    }

    fn write_row(&mut self, id: SubarrayId, row: RowAddr, data: &BitRow) -> Result<()> {
        Controller::write_row(self, id, row, data)
    }

    fn read_row(&mut self, id: SubarrayId, row: RowAddr) -> Result<BitRow> {
        Controller::read_row(self, id, row)
    }

    fn peek_row(&mut self, id: SubarrayId, row: RowAddr) -> Result<BitRow> {
        Controller::peek_row(self, id, row)
    }

    fn poke_row(&mut self, id: SubarrayId, row: RowAddr, data: &BitRow) -> Result<()> {
        Controller::poke_row(self, id, row, data)
    }

    fn peek_field(
        &mut self,
        id: SubarrayId,
        row: RowAddr,
        offset: usize,
        len: usize,
    ) -> Result<u64> {
        Controller::peek_field(self, id, row, offset, len)
    }

    fn poke_field(
        &mut self,
        id: SubarrayId,
        row: RowAddr,
        offset: usize,
        len: usize,
        value: u64,
    ) -> Result<()> {
        Controller::poke_field(self, id, row, offset, len, value)
    }

    fn aap_copy(&mut self, id: SubarrayId, src: RowAddr, dst: RowAddr) -> Result<()> {
        Controller::aap_copy(self, id, src, dst)
    }

    fn aap2(
        &mut self,
        id: SubarrayId,
        mode: SaMode,
        srcs: [RowAddr; 2],
        dst: RowAddr,
    ) -> Result<BitRow> {
        Controller::aap2(self, id, mode, srcs, dst)
    }

    fn aap2_all_ones(
        &mut self,
        id: SubarrayId,
        mode: SaMode,
        srcs: [RowAddr; 2],
        dst: RowAddr,
    ) -> Result<bool> {
        Controller::aap2_all_ones(self, id, mode, srcs, dst)
    }

    fn aap2_discard(
        &mut self,
        id: SubarrayId,
        mode: SaMode,
        srcs: [RowAddr; 2],
        dst: RowAddr,
    ) -> Result<()> {
        Controller::aap2_discard(self, id, mode, srcs, dst)
    }

    fn aap3_carry(&mut self, id: SubarrayId, srcs: [RowAddr; 3], dst: RowAddr) -> Result<BitRow> {
        Controller::aap3_carry(self, id, srcs, dst)
    }

    fn aap3_carry_discard(
        &mut self,
        id: SubarrayId,
        srcs: [RowAddr; 3],
        dst: RowAddr,
    ) -> Result<()> {
        Controller::aap3_carry_discard(self, id, srcs, dst)
    }

    fn reset_latch(&mut self, id: SubarrayId) -> Result<()> {
        Controller::try_reset_latch(self, id)
    }

    fn dpu_op(&mut self) {
        Controller::dpu_op(self)
    }

    fn record_synthetic(&mut self, class: CommandClass, count: u64) {
        Controller::record_synthetic(self, class, count)
    }

    fn record_metric(&mut self, metric: Metric, n: u64) {
        Controller::record_metric(self, metric, n)
    }

    fn record_value(&mut self, key: HistKey, value: u64) {
        Controller::record_value(self, key, value)
    }
}

impl SubarrayContext {
    fn own(&self, id: SubarrayId) -> Result<()> {
        if id == self.id() {
            Ok(())
        } else {
            Err(DramError::SubarrayDetached { subarray: id })
        }
    }
}

impl AapPort for SubarrayContext {
    fn geometry(&self) -> &DramGeometry {
        SubarrayContext::geometry(self)
    }

    fn write_row(&mut self, id: SubarrayId, row: RowAddr, data: &BitRow) -> Result<()> {
        self.own(id)?;
        SubarrayContext::write_row(self, row, data)
    }

    fn read_row(&mut self, id: SubarrayId, row: RowAddr) -> Result<BitRow> {
        self.own(id)?;
        SubarrayContext::read_row(self, row)
    }

    fn peek_row(&mut self, id: SubarrayId, row: RowAddr) -> Result<BitRow> {
        self.own(id)?;
        SubarrayContext::peek_row(self, row)
    }

    fn poke_row(&mut self, id: SubarrayId, row: RowAddr, data: &BitRow) -> Result<()> {
        self.own(id)?;
        SubarrayContext::poke_row(self, row, data)
    }

    fn peek_field(
        &mut self,
        id: SubarrayId,
        row: RowAddr,
        offset: usize,
        len: usize,
    ) -> Result<u64> {
        self.own(id)?;
        SubarrayContext::peek_field(self, row, offset, len)
    }

    fn poke_field(
        &mut self,
        id: SubarrayId,
        row: RowAddr,
        offset: usize,
        len: usize,
        value: u64,
    ) -> Result<()> {
        self.own(id)?;
        SubarrayContext::poke_field(self, row, offset, len, value)
    }

    fn aap_copy(&mut self, id: SubarrayId, src: RowAddr, dst: RowAddr) -> Result<()> {
        self.own(id)?;
        SubarrayContext::aap_copy(self, src, dst)
    }

    fn aap2(
        &mut self,
        id: SubarrayId,
        mode: SaMode,
        srcs: [RowAddr; 2],
        dst: RowAddr,
    ) -> Result<BitRow> {
        self.own(id)?;
        SubarrayContext::aap2(self, mode, srcs, dst)
    }

    fn aap2_all_ones(
        &mut self,
        id: SubarrayId,
        mode: SaMode,
        srcs: [RowAddr; 2],
        dst: RowAddr,
    ) -> Result<bool> {
        self.own(id)?;
        SubarrayContext::aap2_all_ones(self, mode, srcs, dst)
    }

    fn aap2_discard(
        &mut self,
        id: SubarrayId,
        mode: SaMode,
        srcs: [RowAddr; 2],
        dst: RowAddr,
    ) -> Result<()> {
        self.own(id)?;
        SubarrayContext::aap2_discard(self, mode, srcs, dst)
    }

    fn aap3_carry(&mut self, id: SubarrayId, srcs: [RowAddr; 3], dst: RowAddr) -> Result<BitRow> {
        self.own(id)?;
        SubarrayContext::aap3_carry(self, srcs, dst)
    }

    fn aap3_carry_discard(
        &mut self,
        id: SubarrayId,
        srcs: [RowAddr; 3],
        dst: RowAddr,
    ) -> Result<()> {
        self.own(id)?;
        SubarrayContext::aap3_carry_discard(self, srcs, dst)
    }

    fn reset_latch(&mut self, id: SubarrayId) -> Result<()> {
        self.own(id)?;
        SubarrayContext::reset_latch(self);
        Ok(())
    }

    fn dpu_op(&mut self) {
        SubarrayContext::dpu_op(self)
    }

    fn record_synthetic(&mut self, class: CommandClass, count: u64) {
        SubarrayContext::record_synthetic(self, class, count)
    }

    fn record_metric(&mut self, metric: Metric, n: u64) {
        SubarrayContext::record_metric(self, metric, n)
    }

    fn record_value(&mut self, key: HistKey, value: u64) {
        SubarrayContext::record_value(self, key, value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xnor_via_port<P: AapPort>(port: &mut P, id: SubarrayId) -> BitRow {
        let cols = port.geometry().cols;
        let a = BitRow::from_fn(cols, |i| i % 2 == 0);
        let b = BitRow::from_fn(cols, |i| i % 3 == 0);
        port.write_row(id, RowAddr(1), &a).unwrap();
        port.write_row(id, RowAddr(2), &b).unwrap();
        port.aap_copy(id, RowAddr(1), port.compute_row(0)).unwrap();
        port.aap_copy(id, RowAddr(2), port.compute_row(1)).unwrap();
        port.aap2_xnor(id, [port.compute_row(0), port.compute_row(1)], RowAddr(5)).unwrap()
    }

    #[test]
    fn controller_and_context_execute_identically() {
        let g = DramGeometry::tiny();
        let mut ctrl = Controller::new(g);
        let id = ctrl.subarray_handle(0, 0, 0, 0).unwrap();
        let through_ctrl = xnor_via_port(&mut ctrl, id);

        let mut ctrl2 = Controller::new(g);
        let mut ctx = ctrl2.detach_context(id).unwrap();
        let through_ctx = xnor_via_port(&mut ctx, id);
        ctrl2.reattach_context(ctx).unwrap();

        assert_eq!(through_ctrl, through_ctx);
        assert_eq!(*ctrl.stats(), *ctrl2.stats());
    }

    #[test]
    fn context_rejects_foreign_subarrays() {
        let g = DramGeometry::tiny();
        let mut ctrl = Controller::new(g);
        let mine = ctrl.subarray_handle(0, 0, 0, 0).unwrap();
        let other = ctrl.subarray_handle(0, 1, 0, 0).unwrap();
        let mut ctx = ctrl.detach_context(mine).unwrap();
        let err = AapPort::read_row(&mut ctx, other, RowAddr(0)).unwrap_err();
        assert!(matches!(err, DramError::SubarrayDetached { subarray } if subarray == other));
        ctrl.reattach_context(ctx).unwrap();
    }
}
