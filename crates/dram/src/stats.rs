//! Command, latency, and energy accounting.
//!
//! [`CommandStats`] is the floating-point view of the controller's integer
//! ledger ([`crate::ledger::EnergyLedger::to_stats`]). The behavioural
//! performance model in the `pim-assembler` crate turns these counters into
//! execution-time and power estimates (the role of the paper's Matlab
//! simulator, §II-B item 3).

use std::fmt;

/// Counters for each command class plus accumulated serial latency/energy.
///
/// `serial_ns` is the sum of per-command latencies *as if* every command ran
/// back-to-back in one sub-array; wall-clock estimation across parallel
/// sub-arrays divides by the active parallelism (done by the perf model,
/// which knows the mapping).
///
/// # Examples
///
/// ```
/// use pim_dram::ledger::{CommandClass, CommandCosts, EnergyLedger};
/// use pim_dram::{energy::EnergyParams, timing::TimingParams};
///
/// let costs = CommandCosts::new(&TimingParams::default(), &EnergyParams::default(), 256);
/// let mut ledger = EnergyLedger::default();
/// ledger.charge(CommandClass::Aap2, &costs);
/// let s = ledger.to_stats();
/// assert_eq!(s.aap2, 1);
/// assert!(s.serial_ns > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CommandStats {
    /// Host row reads.
    pub reads: u64,
    /// Host row writes.
    pub writes: u64,
    /// Type-1 AAP copies (RowClone).
    pub aap: u64,
    /// Type-2 AAP two-row activations.
    pub aap2: u64,
    /// Type-3 AAP triple-row activations.
    pub aap3: u64,
    /// DPU scalar operations.
    pub dpu: u64,
    /// Sum of command latencies, serially (ns).
    pub serial_ns: f64,
    /// Sum of command energies (nJ).
    pub energy_nj: f64,
}

impl CommandStats {
    /// Total commands of all classes.
    pub fn total_commands(&self) -> u64 {
        self.reads + self.writes + self.aap + self.aap2 + self.aap3 + self.dpu
    }

    /// Total in-array operations (all AAP shapes, excluding host I/O & DPU).
    pub fn total_aaps(&self) -> u64 {
        self.aap + self.aap2 + self.aap3
    }

    /// Adds another stats block into this one.
    pub fn merge(&mut self, other: &CommandStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.aap += other.aap;
        self.aap2 += other.aap2;
        self.aap3 += other.aap3;
        self.dpu += other.dpu;
        self.serial_ns += other.serial_ns;
        self.energy_nj += other.energy_nj;
    }

    /// Difference `self − baseline` (for scoping a phase of execution).
    ///
    /// # Panics
    ///
    /// Panics if `baseline` has counters larger than `self`.
    pub fn since(&self, baseline: &CommandStats) -> CommandStats {
        CommandStats {
            reads: self.reads - baseline.reads,
            writes: self.writes - baseline.writes,
            aap: self.aap - baseline.aap,
            aap2: self.aap2 - baseline.aap2,
            aap3: self.aap3 - baseline.aap3,
            dpu: self.dpu - baseline.dpu,
            serial_ns: self.serial_ns - baseline.serial_ns,
            energy_nj: self.energy_nj - baseline.energy_nj,
        }
    }
}

impl fmt::Display for CommandStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "RD={} WR={} AAP={} AAP2={} AAP3={} DPU={} serial={:.1}us energy={:.1}uJ",
            self.reads,
            self.writes,
            self.aap,
            self.aap2,
            self.aap3,
            self.dpu,
            self.serial_ns / 1000.0,
            self.energy_nj / 1000.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_and_since_are_inverse() {
        let snapshot =
            CommandStats { aap2: 1, serial_ns: 47.0, energy_nj: 2.5, ..Default::default() };
        let mut a = snapshot;
        a.merge(&CommandStats {
            aap3: 1,
            writes: 1,
            serial_ns: 77.0,
            energy_nj: 4.0,
            ..Default::default()
        });
        let delta = a.since(&snapshot);
        assert_eq!(delta.aap3, 1);
        assert_eq!(delta.writes, 1);
        assert_eq!(delta.aap2, 0);
        let mut rebuilt = snapshot;
        rebuilt.merge(&delta);
        assert_eq!(rebuilt, a);
    }

    #[test]
    fn display_mentions_all_counters() {
        let s = CommandStats::default();
        let txt = s.to_string();
        for key in ["RD=", "WR=", "AAP=", "AAP2=", "AAP3=", "DPU="] {
            assert!(txt.contains(key), "missing {key} in {txt}");
        }
    }
}
