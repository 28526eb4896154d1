//! Performance estimation — the role of the paper's Matlab behavioral
//! simulator (§II-B item 3).
//!
//! The functional pipeline charges every command to the integer ledger,
//! and each stage's commands are the ledger delta across it; this module
//! turns those per-stage ledgers into wall-clock, power, MBR, and RUR, and
//! extrapolates a measured scaled run to the paper's chromosome-14 scale.
//! Energy is the ledger's own total (`commands.total_energy_fj()`).
//! The parallelism constants come from
//! [`pim_platforms::assembly_model::PimAssemblyModel`] so the measured and
//! analytic paths stay consistent.

use pim_dram::ledger::{CommandClass, EnergyLedger};
use pim_obsv::MetricsSnapshot;
use pim_platforms::assembly_model::{AssemblyCostModel, PimAssemblyModel, StageBreakdown};
use pim_platforms::workload::AssemblyWorkload;

use crate::config::PimAssemblerConfig;

/// Per-stage command counts and estimated wall-clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StagePerf {
    /// Commands issued by the stage, with their latency and energy.
    pub commands: EnergyLedger,
    /// Estimated wall-clock seconds at the configured parallelism.
    pub wall_s: f64,
}

/// The complete performance report of one pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// All commands of the run, with their serial latency and energy.
    pub commands: EnergyLedger,
    /// Stage 1: k-mer analysis.
    pub hashmap: StagePerf,
    /// Stage 2: graph construction.
    pub debruijn: StagePerf,
    /// Stage 3: traversal.
    pub traverse: StagePerf,
    /// Parallelism degree used.
    pub pd: usize,
    /// Effective parallel command chains.
    pub parallel_chains: f64,
    /// Average power (W).
    pub power_w: f64,
    /// Memory Bottleneck Ratio (%).
    pub mbr_percent: f64,
    /// Resource Utilization Ratio (%).
    pub rur_percent: f64,
    /// Effective sub-array parallelism measured by scheduling the run's
    /// per-sub-array command totals under the shared command bus
    /// (see [`pim_dram::schedule::queues_from_totals`]); `None` until
    /// attached via [`PerfReport::with_measured_parallelism`].
    pub measured_parallelism: Option<f64>,
    /// The measured workload sizes (for extrapolation).
    pub workload: AssemblyWorkload,
    /// Flat metrics snapshot from the `pim-obsv` layer; `None` unless the
    /// run was configured with
    /// [`crate::config::PimAssemblerConfig::with_observability`].
    pub metrics: Option<MetricsSnapshot>,
}

impl PerfReport {
    /// Builds a report from per-stage ledger deltas.
    pub fn new(
        config: &PimAssemblerConfig,
        stages: [EnergyLedger; 3],
        workload: AssemblyWorkload,
    ) -> Self {
        let model = PimAssemblyModel::pim_assembler(config.pd);
        let chains = model.parallel_chains();
        let refresh = pim_dram::refresh::RefreshParams::ddr4();
        let stage = |l: EnergyLedger| StagePerf {
            commands: l,
            wall_s: refresh.inflate_seconds(serial_ns(&l) * 1e-9 / chains),
        };
        let hashmap = stage(stages[0]);
        let debruijn = stage(stages[1]);
        let traverse = stage(stages[2]);
        let mut commands = stages[0];
        commands.merge(&stages[1]);
        commands.merge(&stages[2]);
        let power_w = model.static_w + model.chain_w * model.active_chains();
        let mbr = mbr_from_commands(&commands);
        PerfReport {
            commands,
            hashmap,
            debruijn,
            traverse,
            pd: config.pd,
            parallel_chains: chains,
            power_w,
            mbr_percent: mbr,
            rur_percent: (100.0 - mbr) * 0.76,
            measured_parallelism: None,
            workload,
            metrics: None,
        }
    }

    /// Attaches the schedule-measured effective sub-array parallelism.
    pub fn with_measured_parallelism(mut self, parallelism: f64) -> Self {
        self.measured_parallelism = Some(parallelism);
        self
    }

    /// Attaches the run's flat metrics snapshot.
    pub fn with_metrics(mut self, metrics: MetricsSnapshot) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Total wall-clock seconds.
    pub fn total_wall_s(&self) -> f64 {
        self.hashmap.wall_s + self.debruijn.wall_s + self.traverse.wall_s
    }

    /// Extrapolates this run to the paper's chromosome-14 scale, reusing
    /// the *measured* probe behaviour in the analytic model.
    pub fn extrapolate_chr14(&self) -> StageBreakdown {
        let chr14 = AssemblyWorkload::chr14(self.workload.k);
        let mut w = chr14;
        w.avg_probes_per_kmer = self.workload.avg_probes_per_kmer;
        PimAssemblyModel::pim_assembler(self.pd).estimate(&w)
    }
}

/// A ledger's serial command latency in nanoseconds.
fn serial_ns(ledger: &EnergyLedger) -> f64 {
    ledger.total_time_ps() as f64 / 1e3
}

/// Measured MBR: the data-movement share of serial command time, each
/// class's share taken from the ledger's own picoseconds. Host row
/// reads/writes move data by definition. Of the RowClone copies, roughly
/// one in five *places* data (temp-row staging, counter-row activation);
/// the rest stage operands into the compute rows, which is part of the
/// computation itself — the same accounting split the analytic model uses.
fn mbr_from_commands(c: &EnergyLedger) -> f64 {
    let total_ps = c.total_time_ps();
    if total_ps == 0 {
        return 0.0;
    }
    let ps = |class| c.class(class).time_ps as f64;
    let moved = ps(CommandClass::Read) + ps(CommandClass::Write) + 0.2 * ps(CommandClass::Aap);
    (100.0 * moved / total_ps as f64).min(100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_dram::energy::EnergyParams;
    use pim_dram::ledger::CommandCosts;
    use pim_dram::timing::TimingParams;

    fn fake_stage(aap: u64, aap2: u64, writes: u64) -> EnergyLedger {
        let costs = CommandCosts::new(&TimingParams::ddr4_2133(), &EnergyParams::ddr4_45nm(), 256);
        let mut ledger = EnergyLedger::default();
        ledger.charge_many(CommandClass::Aap, &costs, aap);
        ledger.charge_many(CommandClass::Aap2, &costs, aap2);
        ledger.charge_many(CommandClass::Write, &costs, writes);
        ledger
    }

    fn workload() -> AssemblyWorkload {
        AssemblyWorkload::from_measured(16, 100, 101, 8600, 2000, 2050, 2000, 1.2)
    }

    #[test]
    fn wall_clock_divides_by_chains() {
        let cfg = PimAssemblerConfig::paper(16).with_pd(2);
        let r = PerfReport::new(
            &cfg,
            [fake_stage(100, 100, 10), fake_stage(10, 0, 5), fake_stage(5, 5, 0)],
            workload(),
        );
        assert!(r.parallel_chains > 1.0);
        let serial_s = serial_ns(&r.commands) * 1e-9;
        let refresh = pim_dram::refresh::RefreshParams::ddr4();
        assert!(
            (r.total_wall_s() - refresh.inflate_seconds(serial_s / r.parallel_chains)).abs()
                < 1e-12
        );
    }

    #[test]
    fn doubling_pd_halves_wall_until_issue_cap() {
        let w = workload();
        let stages = [fake_stage(1000, 500, 100), fake_stage(100, 10, 30), fake_stage(50, 20, 0)];
        let r1 = PerfReport::new(&PimAssemblerConfig::paper(16).with_pd(1), stages, w);
        let r2 = PerfReport::new(&PimAssemblerConfig::paper(16).with_pd(2), stages, w);
        let r8 = PerfReport::new(&PimAssemblerConfig::paper(16).with_pd(8), stages, w);
        assert!((r1.total_wall_s() / r2.total_wall_s() - 2.0).abs() < 1e-9);
        // Past the command-issue cap, more Pd buys little delay …
        assert!(r2.total_wall_s() / r8.total_wall_s() < 1.5);
        // … but keeps costing power.
        assert!(r8.power_w > r2.power_w);
    }

    #[test]
    fn mbr_is_bounded_and_sensitive_to_writes() {
        let cfg = PimAssemblerConfig::paper(16);
        let compute_heavy = PerfReport::new(
            &cfg,
            [fake_stage(10, 1000, 1), fake_stage(0, 0, 0), fake_stage(0, 0, 0)],
            workload(),
        );
        let write_heavy = PerfReport::new(
            &cfg,
            [fake_stage(10, 10, 1000), fake_stage(0, 0, 0), fake_stage(0, 0, 0)],
            workload(),
        );
        assert!(compute_heavy.mbr_percent < write_heavy.mbr_percent);
        assert!((0.0..=100.0).contains(&write_heavy.mbr_percent));
        assert!(compute_heavy.rur_percent > write_heavy.rur_percent);
    }

    #[test]
    fn extrapolation_lands_at_paper_scale() {
        let cfg = PimAssemblerConfig::paper(16);
        let r = PerfReport::new(
            &cfg,
            [fake_stage(100, 100, 10), fake_stage(10, 0, 5), fake_stage(5, 5, 0)],
            workload(),
        );
        let chr14 = r.extrapolate_chr14();
        assert!(chr14.total_s() > 1.0, "chr14-scale run must take seconds: {}", chr14.total_s());
        assert_eq!(chr14.name, "P-A");
    }
}
