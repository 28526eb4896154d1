//! Integer-exact latency/energy accounting.
//!
//! Per-sub-array execution contexts ([`crate::context::SubarrayContext`])
//! accumulate their command traffic locally and are merged back into the
//! [`crate::controller::Controller`] when a parallel dispatch completes.
//! For the merged totals to be *byte-identical* regardless of merge order,
//! the ledger accounts in integers — picoseconds and femtojoules — rather
//! than accumulating `f64` latencies (whose addition is not associative).
//! The ledger is the only record of a command: stage splits are integer
//! [`EnergyLedger::since`] deltas, the performance report reads its counts,
//! latencies and energies, and the per-command observability counters are
//! derived from it when the controller folds metrics.
//!
//! The classes are PIM-Assembler's command set (§II-B *Software Support*):
//! the three `AAP` shapes differ only in the number of simultaneously
//! activated source rows — `AAP(src, des)` copies (RowClone-FPM),
//! `AAP(src1, src2, des)` is a two-row activation (XNOR/NOR/NAND) and
//! `AAP(src1, src2, src3, des)` an Ambit TRA (majority / carry). `RD`/`WR`
//! move a row between the array and the host; `DPU` is one MAT-level
//! digital processing-unit operation.

use std::fmt;

use crate::energy::EnergyParams;
use crate::timing::TimingParams;

/// The six accounting classes of the PIM-DRAM command set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommandClass {
    /// Row read to the host (`RD`).
    Read,
    /// Row write from the host (`WR`).
    Write,
    /// Type-1 AAP copy (`AAP`).
    Aap,
    /// Type-2 AAP, two-row activation (`AAP2`).
    Aap2,
    /// Type-3 AAP, triple-row activation (`AAP3`).
    Aap3,
    /// DPU scalar operation (`DPU`).
    Dpu,
}

/// All classes, in mnemonic order.
pub const COMMAND_CLASSES: [CommandClass; 6] = [
    CommandClass::Read,
    CommandClass::Write,
    CommandClass::Aap,
    CommandClass::Aap2,
    CommandClass::Aap3,
    CommandClass::Dpu,
];

impl CommandClass {
    /// Parses a [`CommandClass::mnemonic`] string.
    pub fn from_mnemonic(mnemonic: &str) -> Option<Self> {
        Some(match mnemonic {
            "RD" => CommandClass::Read,
            "WR" => CommandClass::Write,
            "AAP" => CommandClass::Aap,
            "AAP2" => CommandClass::Aap2,
            "AAP3" => CommandClass::Aap3,
            "DPU" => CommandClass::Dpu,
            _ => return None,
        })
    }

    /// The statistics mnemonic of this class.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            CommandClass::Read => "RD",
            CommandClass::Write => "WR",
            CommandClass::Aap => "AAP",
            CommandClass::Aap2 => "AAP2",
            CommandClass::Aap3 => "AAP3",
            CommandClass::Dpu => "DPU",
        }
    }

    /// Latency of one command of this class in nanoseconds for a row of
    /// `cols` bits.
    fn latency_ns(self, timing: &TimingParams, cols: usize) -> f64 {
        match self {
            CommandClass::Read => timing.row_read_ns(cols),
            CommandClass::Write => timing.row_write_ns(cols),
            // All AAP shapes take the same tRAS + tRP window: the extra
            // source rows are raised in the same activation (that is the
            // point of the modified row decoder).
            CommandClass::Aap | CommandClass::Aap2 | CommandClass::Aap3 => timing.aap_ns(),
            // DPU scalar ops run at the array command clock.
            CommandClass::Dpu => timing.t_ck_ns,
        }
    }

    /// Energy of one command of this class in nanojoules for a row of
    /// `cols` bits.
    fn energy_nj(self, energy: &EnergyParams, cols: usize) -> f64 {
        match self {
            CommandClass::Read => energy.row_read_nj(cols),
            CommandClass::Write => energy.row_write_nj(cols),
            CommandClass::Aap => energy.aap_nj(),
            CommandClass::Aap2 => energy.aap2_nj(),
            CommandClass::Aap3 => energy.aap3_nj(),
            CommandClass::Dpu => energy.dpu_op_nj,
        }
    }

    fn index(self) -> usize {
        match self {
            CommandClass::Read => 0,
            CommandClass::Write => 1,
            CommandClass::Aap => 2,
            CommandClass::Aap2 => 3,
            CommandClass::Aap3 => 4,
            CommandClass::Dpu => 5,
        }
    }
}

/// Integer unit cost of one command of a class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct UnitCost {
    /// Latency in picoseconds.
    pub time_ps: u64,
    /// Energy in femtojoules.
    pub energy_fj: u64,
}

/// Pre-quantized per-class unit costs for a fixed (timing, energy, row
/// width) configuration. Every component of one controller shares one
/// `CommandCosts`, so context-local and controller-level accounting use
/// identical arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CommandCosts {
    units: [UnitCost; 6],
}

impl CommandCosts {
    /// Quantizes the analog cost model: latencies round to the nearest
    /// picosecond, energies to the nearest femtojoule (both far below the
    /// model's own resolution).
    pub fn new(timing: &TimingParams, energy: &EnergyParams, cols: usize) -> Self {
        let mut units = [UnitCost::default(); 6];
        for class in COMMAND_CLASSES {
            units[class.index()] = UnitCost {
                time_ps: (class.latency_ns(timing, cols) * 1e3).round() as u64,
                energy_fj: (class.energy_nj(energy, cols) * 1e6).round() as u64,
            };
        }
        CommandCosts { units }
    }

    /// The unit cost of one command of `class`.
    pub fn unit(&self, class: CommandClass) -> UnitCost {
        self.units[class.index()]
    }
}

/// Per-class integer totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ClassTotals {
    /// Commands of this class.
    pub count: u64,
    /// Accumulated latency (ps).
    pub time_ps: u64,
    /// Accumulated energy (fJ).
    pub energy_fj: u64,
}

/// Order-independent latency/energy account of a command multiset.
///
/// `merge` is exactly commutative and associative (integer addition), so
/// any partition of the same work into ledgers merges back to the same
/// totals.
///
/// # Examples
///
/// ```
/// use pim_dram::ledger::{CommandClass, CommandCosts, EnergyLedger};
/// use pim_dram::{energy::EnergyParams, timing::TimingParams};
///
/// let costs = CommandCosts::new(&TimingParams::default(), &EnergyParams::default(), 256);
/// let mut a = EnergyLedger::default();
/// let mut b = EnergyLedger::default();
/// a.charge(CommandClass::Aap, &costs);
/// b.charge(CommandClass::Aap2, &costs);
///
/// let mut ab = a;
/// ab.merge(&b);
/// let mut ba = b;
/// ba.merge(&a);
/// assert_eq!(ab, ba);
/// assert_eq!(ab.count(CommandClass::Aap2), 1);
/// assert!(ab.total_time_ps() > 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EnergyLedger {
    classes: [ClassTotals; 6],
}

impl EnergyLedger {
    /// Charges one command of `class` at `costs`.
    pub fn charge(&mut self, class: CommandClass, costs: &CommandCosts) {
        self.charge_many(class, costs, 1);
    }

    /// Charges `count` commands of `class` at `costs`.
    pub fn charge_many(&mut self, class: CommandClass, costs: &CommandCosts, count: u64) {
        let unit = costs.unit(class);
        let totals = &mut self.classes[class.index()];
        totals.count += count;
        totals.time_ps += unit.time_ps * count;
        totals.energy_fj += unit.energy_fj * count;
    }

    /// Totals for one class.
    pub fn class(&self, class: CommandClass) -> ClassTotals {
        self.classes[class.index()]
    }

    /// Commands of one class.
    pub fn count(&self, class: CommandClass) -> u64 {
        self.classes[class.index()].count
    }

    /// Overwrites one class's totals — the restore counterpart of
    /// [`EnergyLedger::class`], used when importing a checkpointed ledger.
    pub fn set_class(&mut self, class: CommandClass, totals: ClassTotals) {
        self.classes[class.index()] = totals;
    }

    /// Adds `other`'s totals into `self`.
    pub fn merge(&mut self, other: &EnergyLedger) {
        for (mine, theirs) in self.classes.iter_mut().zip(other.classes.iter()) {
            mine.count += theirs.count;
            mine.time_ps += theirs.time_ps;
            mine.energy_fj += theirs.energy_fj;
        }
    }

    /// [`EnergyLedger::merge`] for untrusted ledgers (read back from a
    /// checkpoint, say): `None` when a per-class total or a cross-class
    /// total ([`EnergyLedger::total_time_ps`] and friends) of the merged
    /// ledger would overflow `u64`.
    pub fn checked_merge(&self, other: &EnergyLedger) -> Option<EnergyLedger> {
        let mut out = *self;
        let mut sums = [0u64; 3];
        for (mine, theirs) in out.classes.iter_mut().zip(other.classes.iter()) {
            mine.count = mine.count.checked_add(theirs.count)?;
            mine.time_ps = mine.time_ps.checked_add(theirs.time_ps)?;
            mine.energy_fj = mine.energy_fj.checked_add(theirs.energy_fj)?;
            for (sum, value) in sums.iter_mut().zip([mine.count, mine.time_ps, mine.energy_fj]) {
                *sum = sum.checked_add(value)?;
            }
        }
        Some(out)
    }

    /// Whether every class's latency and energy are exactly its count of
    /// unit charges at `costs`: true of any ledger built by charging and
    /// merging under one cost table, so a ledger read back from a
    /// checkpoint that fails it was edited or corrupted.
    pub fn is_charged_at(&self, costs: &CommandCosts) -> bool {
        COMMAND_CLASSES.iter().all(|&class| {
            let (totals, unit) = (self.class(class), costs.unit(class));
            totals.count.checked_mul(unit.time_ps) == Some(totals.time_ps)
                && totals.count.checked_mul(unit.energy_fj) == Some(totals.energy_fj)
        })
    }

    /// The delta accumulated since `baseline` (a prior snapshot of this
    /// ledger).
    ///
    /// # Panics
    ///
    /// Panics (integer underflow, debug) or wraps (release) if `baseline`
    /// is not an earlier snapshot; callers hold that invariant.
    pub fn since(&self, baseline: &EnergyLedger) -> EnergyLedger {
        let mut out = *self;
        for (mine, base) in out.classes.iter_mut().zip(baseline.classes.iter()) {
            mine.count -= base.count;
            mine.time_ps -= base.time_ps;
            mine.energy_fj -= base.energy_fj;
        }
        out
    }

    /// Total commands across all classes.
    pub fn total_commands(&self) -> u64 {
        self.classes.iter().map(|c| c.count).sum()
    }

    /// Total serial latency (ps).
    pub fn total_time_ps(&self) -> u64 {
        self.classes.iter().map(|c| c.time_ps).sum()
    }

    /// Total energy (fJ).
    pub fn total_energy_fj(&self) -> u64 {
        self.classes.iter().map(|c| c.energy_fj).sum()
    }

    /// Total energy in picojoules (truncating femtojoule view — the unit
    /// the observability snapshot reports).
    pub fn total_energy_pj(&self) -> u64 {
        self.total_energy_fj() / 1_000
    }

    /// True if nothing has been charged.
    pub fn is_empty(&self) -> bool {
        self.total_commands() == 0
    }
}

impl fmt::Display for EnergyLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for class in COMMAND_CLASSES {
            write!(f, "{}={} ", class.mnemonic(), self.count(class))?;
        }
        write!(
            f,
            "serial={:.1}us energy={:.1}uJ",
            self.total_time_ps() as f64 / 1e6,
            self.total_energy_fj() as f64 / 1e9
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn costs() -> CommandCosts {
        CommandCosts::new(&TimingParams::default(), &EnergyParams::default(), 256)
    }

    #[test]
    fn checked_merge_refuses_overflowing_totals() {
        let mut a = EnergyLedger::default();
        a.charge(CommandClass::Aap, &costs());
        let mut doubled = a;
        doubled.merge(&a);
        assert_eq!(a.checked_merge(&a), Some(doubled));
        let mut huge = EnergyLedger::default();
        huge.set_class(
            CommandClass::Read,
            ClassTotals { count: u64::MAX, time_ps: 0, energy_fj: 0 },
        );
        // Per class: MAX + MAX reads. Across classes: MAX reads + 1 AAP.
        assert_eq!(huge.checked_merge(&huge), None);
        assert_eq!(huge.checked_merge(&a), None);
    }

    #[test]
    fn charged_ledgers_are_consistent_with_their_cost_table() {
        let c = costs();
        let mut ledger = EnergyLedger::default();
        assert!(ledger.is_charged_at(&c));
        ledger.charge_many(CommandClass::Aap2, &c, 7);
        let mut merged = ledger;
        merged.merge(&ledger);
        assert!(merged.is_charged_at(&c));
        let mut edited = merged;
        let mut aap2 = edited.class(CommandClass::Aap2);
        aap2.count += 1;
        edited.set_class(CommandClass::Aap2, aap2);
        assert!(!edited.is_charged_at(&c));
    }

    #[test]
    fn classes_roundtrip_through_mnemonics() {
        for class in COMMAND_CLASSES {
            assert_eq!(CommandClass::from_mnemonic(class.mnemonic()), Some(class));
        }
        assert_eq!(CommandClass::from_mnemonic("NOP"), None);
    }

    #[test]
    fn unit_costs_quantize_the_analog_model() {
        let t = TimingParams::default();
        let c = costs();
        // AAP window: tRAS + tRP = 47.06 ns → 47060 ps.
        assert_eq!(c.unit(CommandClass::Aap).time_ps, (t.aap_ns() * 1e3).round() as u64);
        // DPU at the command clock: 0.937 ns → 937 ps.
        assert_eq!(c.unit(CommandClass::Dpu).time_ps, 937);
        // AAP2/AAP3 cost strictly more energy than AAP.
        assert!(c.unit(CommandClass::Aap).energy_fj < c.unit(CommandClass::Aap2).energy_fj);
        assert!(c.unit(CommandClass::Aap2).energy_fj < c.unit(CommandClass::Aap3).energy_fj);
    }

    #[test]
    fn class_costs_follow_the_activation_shape() {
        let (t, e) = (TimingParams::ddr4_2133(), EnergyParams::ddr4_45nm());
        // One tRAS + tRP window for every AAP shape.
        let aap = CommandClass::Aap.latency_ns(&t, 256);
        assert_eq!(CommandClass::Aap2.latency_ns(&t, 256), aap);
        assert_eq!(CommandClass::Aap3.latency_ns(&t, 256), aap);
        // Energy grows with the number of activated rows.
        let energy = |class: CommandClass| class.energy_nj(&e, 256);
        assert!(energy(CommandClass::Aap) < energy(CommandClass::Aap2));
        assert!(energy(CommandClass::Aap2) < energy(CommandClass::Aap3));
        // A DPU op is fast and cheap.
        assert!(CommandClass::Dpu.latency_ns(&t, 256) < 2.0);
        assert!(energy(CommandClass::Dpu) < 0.1);
    }

    #[test]
    fn charge_many_equals_repeated_charge() {
        let c = costs();
        let mut one = EnergyLedger::default();
        for _ in 0..13 {
            one.charge(CommandClass::Aap2, &c);
        }
        let mut many = EnergyLedger::default();
        many.charge_many(CommandClass::Aap2, &c, 13);
        assert_eq!(one, many);
    }

    #[test]
    fn merge_is_order_independent() {
        let c = costs();
        let mut a = EnergyLedger::default();
        a.charge_many(CommandClass::Read, &c, 7);
        a.charge_many(CommandClass::Aap, &c, 3);
        let mut b = EnergyLedger::default();
        b.charge_many(CommandClass::Write, &c, 2);
        b.charge_many(CommandClass::Dpu, &c, 11);

        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.total_commands(), 23);
    }

    #[test]
    fn since_inverts_merge() {
        let c = costs();
        let mut base = EnergyLedger::default();
        base.charge_many(CommandClass::Aap3, &c, 5);
        let mut grown = base;
        grown.charge_many(CommandClass::Aap, &c, 9);
        let delta = grown.since(&base);
        assert_eq!(delta.class(CommandClass::Aap).count, 9);
        assert_eq!(delta.class(CommandClass::Aap3).count, 0);
        let mut rebuilt = base;
        rebuilt.merge(&delta);
        assert_eq!(rebuilt, grown);
    }

    #[test]
    fn set_class_imports_checkpointed_totals() {
        let c = costs();
        let mut src = EnergyLedger::default();
        src.charge_many(CommandClass::Aap, &c, 5);
        src.charge_many(CommandClass::Dpu, &c, 2);
        let mut restored = EnergyLedger::default();
        for class in COMMAND_CLASSES {
            restored.set_class(class, src.class(class));
        }
        assert_eq!(restored, src);
    }

    #[test]
    fn display_names_every_class_with_its_count() {
        let c = costs();
        let mut l = EnergyLedger::default();
        l.charge_many(CommandClass::Write, &c, 4);
        l.charge(CommandClass::Aap2, &c);
        assert_eq!((l.count(CommandClass::Write), l.count(CommandClass::Aap2)), (4, 1));
        let text = l.to_string();
        for class in COMMAND_CLASSES {
            let field = format!("{}={} ", class.mnemonic(), l.count(class));
            assert!(text.contains(&field), "missing {field} in {text}");
        }
        assert!(text.contains("serial=") && text.contains("energy="), "{text}");
    }
}
