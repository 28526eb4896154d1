//! Per-sub-array execution contexts.
//!
//! A [`SubarrayContext`] owns everything one computational sub-array needs
//! to execute independently of the rest of the hierarchy: the bit-accurate
//! [`Subarray`] (rows, decoders, reconfigurable sense amplifier) plus a
//! local [`EnergyLedger`]. It is the only thing that executes a sub-array
//! command. The [`crate::controller::Controller`] owns the contexts and
//! merges their ledgers; work runs on a context checked out of it
//! ([`crate::controller::Controller::detach_context`] for a parallel
//! dispatcher, [`crate::controller::Controller::with_context`] for a
//! serial step), and reattaching merges the context's integer ledger into
//! the controller's totals exactly. So the command legality rules live
//! here: a multi-row activation must name distinct compute rows the
//! modified row decoder can raise together, and a two-row activation must
//! sense in a two-row mode. An illegal command returns an error before
//! anything is charged.

use crate::address::{RowAddr, SubarrayId};
use crate::bitrow::BitRow;
use crate::error::Result;
use crate::fault::FaultInjector;
use crate::geometry::DramGeometry;
use crate::ledger::{CommandClass, CommandCosts, EnergyLedger};
use crate::profile::ActivationModel;
use crate::sense_amp::SaMode;
use crate::subarray::Subarray;
use pim_obsv::{ContextObsv, HistKey, Metric};

/// One sub-array's state, timing/energy accounting, and command execution.
///
/// Every kernel takes the context it runs on, so the sub-array a command
/// addresses is the context's own by construction. Each command charges
/// the controller's unit costs to the local ledger, so the same command
/// multiset gives the same merged totals on any split across checkouts.
#[derive(Debug, Clone)]
pub struct SubarrayContext {
    id: SubarrayId,
    subarray: Subarray,
    costs: CommandCosts,
    ledger: EnergyLedger,
    /// Optional sense-amp read-out fault injection (see [`crate::fault`]).
    fault: Option<FaultInjector>,
    /// Hot-path observability counters (fixed arrays, no heap per record).
    obsv: ContextObsv,
}

impl SubarrayContext {
    /// Creates a fresh (all-zero rows) context for `id` with the given
    /// activation model.
    pub(crate) fn new(
        id: SubarrayId,
        geometry: DramGeometry,
        costs: CommandCosts,
        activation: ActivationModel,
    ) -> Self {
        SubarrayContext {
            id,
            subarray: Subarray::with_activation(geometry, activation),
            costs,
            ledger: EnergyLedger::default(),
            fault: None,
            obsv: ContextObsv::default(),
        }
    }

    /// Arms (or disarms, with `None`) read-out fault injection.
    pub(crate) fn set_fault_injector(&mut self, injector: Option<FaultInjector>) {
        self.fault = injector;
    }

    /// Bits flipped by fault injection on this context so far.
    pub fn fault_flips(&self) -> u64 {
        self.fault.as_ref().map_or(0, FaultInjector::flips)
    }

    /// Applies the armed fault model to one sensed read-out. Stored rows
    /// are untouched — only what the sense amplifier hands back flips.
    fn sense(&mut self, mut data: BitRow) -> BitRow {
        if let Some(injector) = &mut self.fault {
            let before = injector.flips();
            injector.corrupt(&mut data);
            let flipped = injector.flips() - before;
            self.obsv.record(Metric::FaultFlips, flipped);
        }
        data
    }

    /// The sub-array this context owns.
    pub fn id(&self) -> SubarrayId {
        self.id
    }

    /// The sub-array geometry.
    pub fn geometry(&self) -> &DramGeometry {
        self.subarray.geometry()
    }

    /// Address of compute row `i` (`x1..x8` ⇒ `i ∈ 0..8`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 8`.
    pub fn compute_row(&self, i: usize) -> RowAddr {
        RowAddr(self.geometry().compute_row(i))
    }

    /// The local integer ledger.
    pub fn ledger(&self) -> &EnergyLedger {
        &self.ledger
    }

    /// Read access to the underlying sub-array (inspection).
    pub fn subarray(&self) -> &Subarray {
        &self.subarray
    }

    pub(crate) fn reset_ledger(&mut self) {
        self.ledger = EnergyLedger::default();
    }

    /// Overwrites the local ledger (checkpoint restore).
    pub(crate) fn set_ledger(&mut self, ledger: EnergyLedger) {
        self.ledger = ledger;
    }

    /// Observability counters accumulated by this context since the last
    /// reset (cumulative across detach/reattach cycles): read-outs, fault
    /// flips and stage work. Commands are not counted here: the controller
    /// derives their counters from the ledger when it folds metrics.
    pub fn obsv(&self) -> &ContextObsv {
        &self.obsv
    }

    pub(crate) fn reset_obsv(&mut self) {
        self.obsv.reset();
    }

    /// Adds `n` to a stage-level metric on this context's counters.
    pub fn record_metric(&mut self, metric: Metric, n: u64) {
        self.obsv.record(metric, n);
    }

    /// Records one histogram sample on this context's counters.
    pub fn record_value(&mut self, key: HistKey, value: u64) {
        self.obsv.record_value(key, value);
    }

    fn charge(&mut self, class: CommandClass) {
        self.ledger.charge(class, &self.costs);
    }

    /// Writes one row from the host (charged as `WR`).
    ///
    /// # Errors
    ///
    /// Propagates sub-array addressing/width errors.
    pub fn write_row(&mut self, row: impl Into<RowAddr>, data: &BitRow) -> Result<()> {
        self.subarray.write(row.into(), data)?;
        self.charge(CommandClass::Write);
        Ok(())
    }

    /// Reads one row to the host (charged as `RD`).
    ///
    /// # Errors
    ///
    /// Propagates sub-array addressing errors.
    pub fn read_row(&mut self, row: impl Into<RowAddr>) -> Result<BitRow> {
        let data = self.subarray.read(row.into())?;
        self.charge(CommandClass::Read);
        self.obsv.record(Metric::SensedReads, 1);
        Ok(self.sense(data))
    }

    /// Reads a row *without* charging a command (debug/verification view).
    ///
    /// # Errors
    ///
    /// Propagates sub-array addressing errors.
    pub fn peek_row(&self, row: impl Into<RowAddr>) -> Result<BitRow> {
        self.subarray.read(row.into())
    }

    /// Writes a row *without* charging a command. Callers pair this with
    /// [`SubarrayContext::record_synthetic`] when the physical transfer is
    /// an in-DRAM movement whose cost differs from a host row write (e.g.
    /// staging a k-mer from the sequence bank into a temp row).
    ///
    /// # Errors
    ///
    /// Propagates sub-array addressing/width errors.
    pub fn poke_row(&mut self, row: impl Into<RowAddr>, data: &BitRow) -> Result<()> {
        self.subarray.write(row.into(), data)
    }

    /// Reads the `len ≤ 64` bits at bit `offset` of a row *without*
    /// charging a command; callers that model the access charge it with
    /// [`SubarrayContext::record_synthetic`].
    ///
    /// # Errors
    ///
    /// Propagates sub-array addressing and field-range errors.
    pub fn peek_field(&self, row: impl Into<RowAddr>, offset: usize, len: usize) -> Result<u64> {
        self.subarray.read_field(row.into(), offset, len)
    }

    /// Overwrites the `len ≤ 64` bits at bit `offset` of a row with the
    /// low bits of `value`, *without* charging a command (see
    /// [`SubarrayContext::peek_field`]).
    ///
    /// # Errors
    ///
    /// Propagates sub-array addressing and field-range errors.
    pub fn poke_field(
        &mut self,
        row: impl Into<RowAddr>,
        offset: usize,
        len: usize,
        value: u64,
    ) -> Result<()> {
        self.subarray.write_field(row.into(), offset, len, value)
    }

    /// Type-1 AAP: in-array copy (RowClone-FPM).
    ///
    /// # Errors
    ///
    /// Propagates sub-array addressing errors.
    pub fn aap_copy(&mut self, src: impl Into<RowAddr>, dst: impl Into<RowAddr>) -> Result<()> {
        self.subarray.copy(src.into(), dst.into())?;
        self.charge(CommandClass::Aap);
        Ok(())
    }

    /// Type-2 AAP: two-row activation evaluating `mode`.
    ///
    /// # Errors
    ///
    /// Propagates decoder and addressing errors (sources must be compute
    /// rows; see [`crate::subarray::Subarray::op2`]).
    pub fn aap2(
        &mut self,
        mode: SaMode,
        srcs: [RowAddr; 2],
        dst: impl Into<RowAddr>,
    ) -> Result<BitRow> {
        self.subarray.op2(mode, srcs, dst.into())?;
        self.charge(CommandClass::Aap2);
        self.obsv.record(Metric::SensedReads, 1);
        let out = self.subarray.sensed();
        Ok(self.sense(out))
    }

    /// Type-2 AAP whose sensed output the DPU AND-reduces: whether every
    /// sensed bit is one, read from the sub-array's row buffer without
    /// copying the row out. Identical array state and accounting as
    /// [`SubarrayContext::aap2`], sensed read-out included. When fault
    /// injection is armed the sensed copy is taken and reduced instead,
    /// so the injector draws the same stream positions and flips the same
    /// bits.
    ///
    /// # Errors
    ///
    /// Same as [`SubarrayContext::aap2`].
    pub fn aap2_all_ones(
        &mut self,
        mode: SaMode,
        srcs: [RowAddr; 2],
        dst: impl Into<RowAddr>,
    ) -> Result<bool> {
        if self.fault.is_some() {
            return self.aap2(mode, srcs, dst).map(|out| out.all_ones());
        }
        self.subarray.op2(mode, srcs, dst.into())?;
        self.charge(CommandClass::Aap2);
        self.obsv.record(Metric::SensedReads, 1);
        Ok(self.subarray.sensed_all_ones())
    }

    /// Type-2 AAP whose sensed output the caller does not need. Identical
    /// array state and accounting as [`SubarrayContext::aap2`], without
    /// materializing the sensed row. When fault injection is armed the
    /// sensed path runs anyway (on a throwaway copy) so the injector's
    /// deterministic stream position and flip counters stay in lock-step
    /// with the returning variant.
    ///
    /// # Errors
    ///
    /// Same as [`SubarrayContext::aap2`].
    pub fn aap2_discard(
        &mut self,
        mode: SaMode,
        srcs: [RowAddr; 2],
        dst: impl Into<RowAddr>,
    ) -> Result<()> {
        if self.fault.is_some() {
            return self.aap2(mode, srcs, dst).map(|_| ());
        }
        self.subarray.op2(mode, srcs, dst.into())?;
        self.charge(CommandClass::Aap2);
        self.obsv.record(Metric::DiscardReads, 1);
        Ok(())
    }

    /// Single-cycle in-memory XNOR2.
    ///
    /// # Errors
    ///
    /// Same as [`SubarrayContext::aap2`].
    pub fn aap2_xnor(&mut self, srcs: [RowAddr; 2], dst: impl Into<RowAddr>) -> Result<BitRow> {
        self.aap2(SaMode::Xnor, srcs, dst)
    }

    /// Sum cycle of the in-memory adder (XOR with the latched carry).
    ///
    /// # Errors
    ///
    /// Same as [`SubarrayContext::aap2`].
    pub fn aap2_sum(&mut self, srcs: [RowAddr; 2], dst: impl Into<RowAddr>) -> Result<BitRow> {
        self.aap2(SaMode::CarrySum, srcs, dst)
    }

    /// Type-3 AAP (Ambit TRA): 3-input majority / carry, latched.
    ///
    /// # Errors
    ///
    /// Propagates decoder and addressing errors.
    pub fn aap3_carry(&mut self, srcs: [RowAddr; 3], dst: impl Into<RowAddr>) -> Result<BitRow> {
        self.subarray.op3_carry(srcs, dst.into())?;
        self.charge(CommandClass::Aap3);
        self.obsv.record(Metric::SensedReads, 1);
        let out = self.subarray.sensed();
        Ok(self.sense(out))
    }

    /// Type-3 AAP whose sensed output the caller does not need (see
    /// [`SubarrayContext::aap2_discard`] for the fault-injection
    /// lock-step guarantee).
    ///
    /// # Errors
    ///
    /// Same as [`SubarrayContext::aap3_carry`].
    pub fn aap3_carry_discard(
        &mut self,
        srcs: [RowAddr; 3],
        dst: impl Into<RowAddr>,
    ) -> Result<()> {
        if self.fault.is_some() {
            return self.aap3_carry(srcs, dst).map(|_| ());
        }
        self.subarray.op3_carry(srcs, dst.into())?;
        self.charge(CommandClass::Aap3);
        self.obsv.record(Metric::DiscardReads, 1);
        Ok(())
    }

    /// Clears the SA carry latch (start of a new addition).
    pub fn reset_latch(&mut self) {
        self.subarray.reset_latch();
    }

    /// Records one DPU scalar operation against this context's ledger.
    pub fn dpu_op(&mut self) {
        self.charge(CommandClass::Dpu);
    }

    /// Records `n` DPU scalar operations.
    pub fn dpu_ops(&mut self, n: u64) {
        self.ledger.charge_many(CommandClass::Dpu, &self.costs, n);
    }

    /// Records `count` synthetic commands of `class` without executing
    /// them, charged to this context's ledger (the controller's
    /// `record_synthetic` charges its global ledger instead).
    pub fn record_synthetic(&mut self, class: CommandClass, count: u64) {
        self.ledger.charge_many(class, &self.costs, count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::EnergyParams;
    use crate::fault::FaultConfig;
    use crate::timing::TimingParams;

    fn context() -> SubarrayContext {
        let g = DramGeometry::tiny();
        let costs = CommandCosts::new(&TimingParams::default(), &EnergyParams::default(), g.cols);
        SubarrayContext::new(
            SubarrayId::from_linear_index(&g, 0),
            g,
            costs,
            ActivationModel::DestructiveCharge,
        )
    }

    #[test]
    fn context_executes_the_xnor_sequence() {
        let mut ctx = context();
        let cols = ctx.geometry().cols;
        let a = BitRow::from_fn(cols, |i| i % 2 == 0);
        let b = BitRow::from_fn(cols, |i| i % 3 == 0);
        ctx.write_row(1, &a).unwrap();
        ctx.write_row(2, &b).unwrap();
        ctx.aap_copy(1, ctx.compute_row(0)).unwrap();
        ctx.aap_copy(2, ctx.compute_row(1)).unwrap();
        let out = ctx.aap2_xnor([ctx.compute_row(0), ctx.compute_row(1)], 5).unwrap();
        assert_eq!(out, a.xnor(&b));
        let l = ctx.ledger();
        let counts =
            [CommandClass::Write, CommandClass::Aap, CommandClass::Aap2].map(|c| l.count(c));
        assert_eq!(counts, [2, 2, 1]);
        assert!(l.total_time_ps() > 0 && l.total_energy_fj() > 0);
    }

    #[test]
    fn peek_and_poke_do_not_charge() {
        let mut ctx = context();
        let cols = ctx.geometry().cols;
        ctx.poke_row(0, &BitRow::ones(cols)).unwrap();
        let before = *ctx.ledger();
        let row = ctx.peek_row(0).unwrap();
        assert_eq!(row, BitRow::ones(cols));
        assert_eq!(*ctx.ledger(), before);
        assert_eq!(before.total_commands(), 0);
    }

    #[test]
    fn discard_variants_match_returning_variants() {
        let mut a = context();
        let mut b = context();
        let cols = a.geometry().cols;
        let x = BitRow::from_fn(cols, |i| i % 2 == 0);
        let y = BitRow::from_fn(cols, |i| i % 3 == 0);
        for ctx in [&mut a, &mut b] {
            ctx.write_row(1, &x).unwrap();
            ctx.write_row(2, &y).unwrap();
            ctx.aap_copy(1, ctx.compute_row(0)).unwrap();
            ctx.aap_copy(2, ctx.compute_row(1)).unwrap();
            ctx.aap_copy(1, ctx.compute_row(2)).unwrap();
        }
        let (x1, x2, x3) = (a.compute_row(0), a.compute_row(1), a.compute_row(2));
        a.aap2(SaMode::Xnor, [x1, x2], 5).unwrap();
        b.aap2_discard(SaMode::Xnor, [x1, x2], 5).unwrap();
        a.aap3_carry([x1, x2, x3], 6).unwrap();
        b.aap3_carry_discard([x1, x2, x3], 6).unwrap();
        let sensed = a.aap2(SaMode::Nand, [x1, x2], 7).unwrap();
        assert_eq!(b.aap2_all_ones(SaMode::Nand, [x1, x2], 7).unwrap(), sensed.all_ones());
        assert_eq!(a.ledger(), b.ledger());
        for row in 0..a.geometry().rows {
            assert_eq!(a.peek_row(row).unwrap(), b.peek_row(row).unwrap());
        }
        assert_eq!(a.subarray().latch(), b.subarray().latch());
    }

    #[test]
    fn discard_variants_keep_fault_stream_in_lock_step() {
        let mut a = context();
        let mut b = context();
        a.set_fault_injector(Some(FaultInjector::new(&FaultConfig::new(0.05, 7).unwrap(), 0)));
        b.set_fault_injector(Some(FaultInjector::new(&FaultConfig::new(0.05, 7).unwrap(), 0)));
        let cols = a.geometry().cols;
        let x = BitRow::from_fn(cols, |i| i % 2 == 0);
        for ctx in [&mut a, &mut b] {
            ctx.write_row(1, &x).unwrap();
            ctx.aap_copy(1, ctx.compute_row(0)).unwrap();
            ctx.aap_copy(1, ctx.compute_row(1)).unwrap();
        }
        let (x1, x2) = (a.compute_row(0), a.compute_row(1));
        // Returning vs discard: the injector must advance identically so the
        // next sensed read-out sees the same corruption on both contexts.
        a.aap2(SaMode::Xnor, [x1, x2], 5).unwrap();
        b.aap2_discard(SaMode::Xnor, [x1, x2], 5).unwrap();
        assert_eq!(a.fault_flips(), b.fault_flips());
        assert_eq!(a.read_row(5).unwrap(), b.read_row(5).unwrap());
        // Returning-then-reduced vs reducing: the same verdict from the
        // same corrupted read-out, the same flips, and the same stream
        // position for the next read. An XNOR of equal rows senses all
        // ones, so a flip anywhere turns the verdict; at a 5% rate about
        // one 64-bit read-out in 27 comes through clean, so over 200
        // rounds both verdicts occur.
        let mut verdicts = [0u32; 2];
        for round in 0..200 {
            for ctx in [&mut a, &mut b] {
                ctx.aap_copy(1, x1).unwrap();
                ctx.aap_copy(1, x2).unwrap();
            }
            let sensed = a.aap2(SaMode::Xnor, [x1, x2], 5).unwrap().all_ones();
            let reduced = b.aap2_all_ones(SaMode::Xnor, [x1, x2], 5).unwrap();
            assert_eq!(sensed, reduced, "round {round}");
            assert_eq!(a.fault_flips(), b.fault_flips(), "round {round}");
            assert_eq!(a.read_row(5).unwrap(), b.read_row(5).unwrap(), "round {round}");
            verdicts[usize::from(reduced)] += 1;
        }
        assert!(verdicts.iter().all(|&n| n > 0), "both verdicts occur: {verdicts:?}");
        assert_eq!(a.ledger(), b.ledger());
        assert_eq!(a.obsv(), b.obsv());
    }

    #[test]
    fn illegal_activations_are_rejected_without_charging() {
        let mut ctx = context();
        let cols = ctx.geometry().cols;
        let (x1, x2, x3) = (ctx.compute_row(0), ctx.compute_row(1), ctx.compute_row(2));
        ctx.write_row(1, &BitRow::from_fn(cols, |i| i % 2 == 0)).unwrap();
        ctx.aap_copy(1, x1).unwrap();
        ctx.aap_copy(1, x2).unwrap();
        let data = RowAddr(1);
        let (ledger, obsv) = (*ctx.ledger(), *ctx.obsv());
        let rows: Vec<BitRow> =
            (0..ctx.geometry().rows).map(|r| ctx.peek_row(r).unwrap()).collect();

        let pairs = [
            (SaMode::Xnor, [data, x2], "data-row source"),
            (SaMode::Xnor, [x1, x1], "repeated source"),
            (SaMode::Memory, [x1, x2], "memory mode"),
            (SaMode::Carry, [x1, x2], "carry mode"),
        ];
        for (mode, srcs, what) in pairs {
            assert!(ctx.aap2(mode, srcs, 5).is_err(), "aap2 {what}");
            assert!(ctx.aap2_discard(mode, srcs, 5).is_err(), "aap2_discard {what}");
            assert!(ctx.aap2_all_ones(mode, srcs, 5).is_err(), "aap2_all_ones {what}");
        }
        for (srcs, what) in [([data, x2, x3], "data-row source"), ([x1, x3, x1], "repeated source")]
        {
            assert!(ctx.aap3_carry(srcs, 6).is_err(), "aap3_carry {what}");
        }
        assert_eq!(*ctx.ledger(), ledger, "a rejected command must not charge");
        assert_eq!(*ctx.obsv(), obsv, "a rejected command must not count");
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(ctx.peek_row(r).unwrap(), *row, "row {r} changed");
        }
        // The same operands in a legal shape execute and charge.
        ctx.aap2(SaMode::Xnor, [x1, x2], 5).unwrap();
        assert_eq!(ctx.ledger().total_commands(), ledger.total_commands() + 1);
    }

    #[test]
    fn synthetic_commands_hit_the_ledger() {
        let mut ctx = context();
        ctx.record_synthetic(CommandClass::Aap, 3);
        ctx.record_synthetic(CommandClass::Read, 0);
        ctx.dpu_ops(2);
        let l = ctx.ledger();
        let counts = [CommandClass::Aap, CommandClass::Read, CommandClass::Dpu].map(|c| l.count(c));
        assert_eq!(counts, [3, 0, 2]);
    }

    #[test]
    fn obsv_counters_mirror_executed_commands() {
        let mut ctx = context();
        let cols = ctx.geometry().cols;
        ctx.write_row(1, &BitRow::from_fn(cols, |i| i % 2 == 0)).unwrap();
        ctx.write_row(2, &BitRow::from_fn(cols, |i| i % 3 == 0)).unwrap();
        ctx.aap_copy(1, ctx.compute_row(0)).unwrap();
        ctx.aap_copy(2, ctx.compute_row(1)).unwrap();
        let (x1, x2) = (ctx.compute_row(0), ctx.compute_row(1));
        ctx.aap2(SaMode::Xnor, [x1, x2], 5).unwrap();
        ctx.aap2_discard(SaMode::Xnor, [x1, x2], 6).unwrap();
        ctx.record_synthetic(CommandClass::Aap3, 2);
        ctx.dpu_ops(3);
        // The context counts read-outs per event and no command twice.
        let own = ctx.obsv().counters;
        assert_eq!(own.get(Metric::SensedReads), 1);
        assert_eq!(own.get(Metric::DiscardReads), 1);
        assert_eq!(own.total(), 2);
        // The command counters are derived from the ledger.
        let c = crate::controller::command_counters(ctx.ledger());
        assert_eq!(c.get(Metric::HostWrites), 2);
        assert_eq!(c.get(Metric::AapCopy), 2);
        assert_eq!(c.get(Metric::Aap2), 2);
        assert_eq!(c.get(Metric::Aap3), 2);
        assert_eq!(c.get(Metric::DpuOps), 3);
        // 2×WR(1) + 2×AAP(2) + 2×AAP2(3) + 2×AAP3(4, synthetic) + 3×DPU(0) = 20.
        assert_eq!(c.get(Metric::RowActivations), 20);
        assert_eq!(c.total() - c.get(Metric::RowActivations), ctx.ledger().total_commands());
    }
}
