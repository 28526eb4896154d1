//! The PIM-Assembler memory controller (Ctrl in Fig. 1a).
//!
//! The controller owns one execution context per touched sub-array
//! ([`SubarrayContext`]) and the merged accounting over them; it executes
//! no sub-array command itself. Every AAP, row read and row write runs on
//! a context, which checks it against the sub-array's row decoders and
//! sense-amp modes ([`crate::subarray::Subarray`]) and charges its local
//! [`EnergyLedger`]; the three AAP instruction types of §II-B are
//! [`SubarrayContext::aap_copy`], [`SubarrayContext::aap2`] and
//! [`SubarrayContext::aap3_carry`].
//!
//! Work reaches a context by checking it out: a parallel dispatcher
//! detaches one context per partition ([`Controller::detach_context`]),
//! drives it from a worker thread and reattaches it
//! ([`Controller::reattach_context`]); a serial step uses
//! [`Controller::with_context`], which does the same for one sub-array.
//! Reattaching is the one place sub-array work joins the controller's
//! integer totals, exactly and independent of reattach order. What the
//! controller charges itself is work no sub-array owns: DPU scalar
//! operations ([`Controller::dpu_ops`]) and traffic accounted
//! analytically ([`Controller::record_synthetic`]).

use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use crate::address::SubarrayId;
use crate::context::SubarrayContext;
use crate::energy::EnergyParams;
use crate::error::{DramError, Result};
use crate::fault::{FaultConfig, FaultInjector};
use crate::geometry::DramGeometry;
use crate::ledger::{CommandClass, CommandCosts, EnergyLedger, COMMAND_CLASSES};
use crate::profile::{ActivationModel, BackendProfile};
use crate::timing::TimingParams;
use pim_obsv::{
    ContextObsv, CounterSet, HistKey, Metric, MetricsRegistry, MetricsSnapshot, ScopeId, Stage,
};

/// The command counters a ledger implies: each class's count under its
/// metric, plus the DRAM row activations its commands raise (RD/WR 1,
/// AAP 2, AAP2 3, AAP3 4, DPU 0).
///
/// No class's activations exceed its unit latency in picoseconds, so the
/// sum stays below the ledger's total latency, which every charged ledger
/// and every ledger `checked_merge` admits keeps within `u64`.
pub(crate) fn command_counters(ledger: &EnergyLedger) -> CounterSet {
    let mut counters = CounterSet::new();
    for class in COMMAND_CLASSES {
        let (metric, activations) = match class {
            CommandClass::Read => (Metric::HostReads, 1),
            CommandClass::Write => (Metric::HostWrites, 1),
            CommandClass::Aap => (Metric::AapCopy, 2),
            CommandClass::Aap2 => (Metric::Aap2, 3),
            CommandClass::Aap3 => (Metric::Aap3, 4),
            CommandClass::Dpu => (Metric::DpuOps, 0),
        };
        let count = ledger.count(class);
        counters.add(metric, count);
        counters.add(Metric::RowActivations, activations * count);
    }
    counters
}

/// Counter and ledger values of one context (or the global account) at
/// its last fold, so only new work is attributed to the current stage.
#[derive(Debug, Clone, Copy, Default)]
struct FoldMark {
    counters: CounterSet,
    ledger: EnergyLedger,
}

impl FoldMark {
    /// Moves the mark to `(counters, ledger)` and returns what accumulated
    /// since: the counter delta plus the command counters of the ledger
    /// delta.
    fn advance(&mut self, counters: CounterSet, ledger: EnergyLedger) -> CounterSet {
        let mut delta = counters.since(&self.counters);
        delta.merge(&command_counters(&ledger.since(&self.ledger)));
        *self = FoldMark { counters, ledger };
        delta
    }
}

/// Metrics-registry state carried while metrics collection is enabled.
///
/// Hot paths only touch the ledgers and the fixed-array [`ContextObsv`]
/// blocks; this state is consulted at stage boundaries, where each
/// context's delta since its last fold mark is attributed to the current
/// [`Stage`].
#[derive(Debug, Clone, Default)]
struct ObsvState {
    registry: MetricsRegistry,
    marks: BTreeMap<SubarrayId, FoldMark>,
    global_mark: FoldMark,
}

/// Owns the per-sub-array contexts and their merged accounting.
///
/// See the crate-level example for a copy–copy–XNOR sequence run on a
/// checked-out context.
#[derive(Debug, Clone)]
pub struct Controller {
    geometry: DramGeometry,
    /// The profile's timing/energy tables, quantized: the only cost model
    /// every ledger is charged at.
    costs: CommandCosts,
    /// Physical activation semantics every context is built with.
    activation: ActivationModel,
    /// Name of the backend profile in effect (diagnostics/reporting).
    backend_name: &'static str,
    /// Attached contexts, materialized lazily on first touch. `BTreeMap`
    /// keeps iteration (and thus merged-state inspection) deterministic.
    contexts: BTreeMap<SubarrayId, SubarrayContext>,
    /// Ledger snapshots of currently detached contexts, taken at detach
    /// time so reattach can merge exactly the work done while away.
    in_flight: BTreeMap<SubarrayId, EnergyLedger>,
    /// Commands not attributable to a sub-array (DPU ops, synthetic
    /// traffic recorded at the controller).
    global: EnergyLedger,
    /// Merged totals: `global` + every context's ledger (attached or
    /// reattached). Maintained incrementally.
    total: EnergyLedger,
    /// Armed fault model, applied to every context (see [`crate::fault`]).
    fault: Option<FaultConfig>,
    /// Stage-level metrics and histograms recorded at the controller.
    global_obsv: ContextObsv,
    /// Stage label new counter deltas are attributed to at fold time.
    stage: Stage,
    /// Scoped metrics accumulation; `None` until
    /// [`Controller::enable_metrics`] (boxed — the registry is cold state).
    obsv: Option<Box<ObsvState>>,
}

impl Controller {
    /// Creates a controller with default DDR4-2133 / 45 nm parameters.
    pub fn new(geometry: DramGeometry) -> Self {
        Controller::with_params(geometry, TimingParams::default(), EnergyParams::default())
    }

    /// Creates a controller with explicit timing and energy parameters and
    /// the destructive (DRAM) activation model — the historical surface;
    /// byte-identical to pre-profile behavior.
    pub fn with_params(geometry: DramGeometry, timing: TimingParams, energy: EnergyParams) -> Self {
        Controller::with_profile(
            geometry,
            &BackendProfile {
                name: "pim-assembler",
                activation: ActivationModel::DestructiveCharge,
                timing,
                energy,
            },
        )
    }

    /// Creates a controller from a [`BackendProfile`]: the profile's
    /// timing/energy tables become the per-class unit costs and its
    /// activation model is threaded into every sub-array context (existing
    /// and lazily materialized).
    pub fn with_profile(geometry: DramGeometry, profile: &BackendProfile) -> Self {
        let BackendProfile { name, activation, timing, energy } = *profile;
        let costs = CommandCosts::new(&timing, &energy, geometry.cols);
        Controller {
            geometry,
            costs,
            activation,
            backend_name: name,
            contexts: BTreeMap::new(),
            in_flight: BTreeMap::new(),
            global: EnergyLedger::default(),
            total: EnergyLedger::default(),
            fault: None,
            global_obsv: ContextObsv::default(),
            stage: Stage::Setup,
            obsv: None,
        }
    }

    /// Enables scoped metrics collection, resetting all observability
    /// counters and marking every ledger so the registry covers exactly
    /// the traffic from this call on. The per-event counter increments
    /// themselves are always on (fixed-array adds); enabling metrics only
    /// adds stage-boundary folds.
    pub fn enable_metrics(&mut self) {
        let mut state = ObsvState::default();
        for (id, ctx) in self.contexts.iter_mut() {
            ctx.reset_obsv();
            state.marks.insert(*id, FoldMark { ledger: *ctx.ledger(), ..FoldMark::default() });
        }
        state.global_mark.ledger = self.global;
        self.global_obsv = ContextObsv::default();
        self.stage = Stage::Setup;
        self.obsv = Some(Box::new(state));
    }

    /// Whether scoped metrics collection is enabled.
    pub fn metrics_enabled(&self) -> bool {
        self.obsv.is_some()
    }

    /// The stage new counter deltas are currently attributed to.
    pub fn stage(&self) -> Stage {
        self.stage
    }

    /// Marks a stage boundary: folds every attached context's counter
    /// delta (and the global delta) into the registry under the *current*
    /// stage, then switches attribution to `stage`. A no-op router when
    /// metrics are disabled.
    pub fn set_stage(&mut self, stage: Stage) {
        self.fold_pending();
        self.stage = stage;
    }

    /// Folds unattributed deltas into the registry under the current
    /// stage: each context's counter delta plus the command counters
    /// derived from its ledger delta ([`FoldMark::advance`]), and the same
    /// for the global account. Detached contexts are skipped; their work
    /// is attributed at the next fold after reattach (dispatch batches
    /// never span a stage boundary).
    fn fold_pending(&mut self) {
        let Some(state) = self.obsv.as_deref_mut() else { return };
        let stage = self.stage;
        for (id, ctx) in &self.contexts {
            let mark = state.marks.entry(*id).or_default();
            let delta = mark.advance(ctx.obsv().counters, *ctx.ledger());
            let linear = id.linear_index(&self.geometry) as u32;
            state.registry.fold(ScopeId::subarray(stage, linear), &delta);
        }
        let delta = state.global_mark.advance(self.global_obsv.counters, self.global);
        state.registry.fold(ScopeId::global(stage), &delta);
    }

    /// Adds `n` to a stage-level metric on the controller's global
    /// counters (attributed to the current stage at the next fold).
    pub fn record_metric(&mut self, metric: Metric, n: u64) {
        self.global_obsv.record(metric, n);
    }

    /// Records one histogram sample on the controller's global counters.
    pub fn record_value(&mut self, key: HistKey, value: u64) {
        self.global_obsv.record_value(key, value);
    }

    /// Builds the flat metrics snapshot: per-stage aggregates, per-stage ×
    /// per-sub-array detail, merged histograms, and ledger-derived run
    /// totals. Returns `None` unless [`Controller::enable_metrics`] was
    /// called. Counter keys are execution-order deterministic — a serial
    /// run and a worker-pool run of the same workload produce identical
    /// snapshots.
    pub fn metrics_snapshot(&mut self) -> Option<MetricsSnapshot> {
        self.fold_pending();
        let state = self.obsv.as_deref()?;
        let mut snap = MetricsSnapshot::new();
        for (scope, counters) in state.registry.iter() {
            for (metric, value) in counters.iter() {
                if value == 0 {
                    continue;
                }
                let (stage, metric) = (scope.stage.name(), metric.name());
                snap.add_counter(format!("{stage}.{metric}"), value);
                if !scope.is_global() {
                    snap.add_counter(format!("{stage}.sub{:05}.{metric}", scope.subarray), value);
                }
            }
        }
        let mut hists = self.global_obsv.hists;
        for ctx in self.contexts.values() {
            hists.merge(&ctx.obsv().hists);
        }
        for key in HistKey::ALL {
            let h = hists.get(key);
            if h.is_empty() {
                continue;
            }
            // Partition-item occupancy is a per-dispatch-batch sample, so
            // its bucket shape depends on how the run was chunked; it lives
            // in the host section, outside the deterministic contract.
            let host = key == HistKey::PartitionItems;
            for (bucket, count) in h.nonzero_buckets() {
                let name = format!("hist.{}.b{bucket:02}", key.name());
                if host {
                    *snap.host.entry(name).or_insert(0) += count;
                } else {
                    snap.add_counter(name, count);
                }
            }
            let total = format!("hist.{}.total", key.name());
            if host {
                *snap.host.entry(total).or_insert(0) += h.total_samples();
            } else {
                snap.add_counter(total, h.total_samples());
            }
        }
        snap.add_counter("total.commands", self.total.total_commands());
        snap.add_counter("total.time_ps", self.total.total_time_ps());
        snap.add_counter("total.energy_fj", self.total.total_energy_fj());
        snap.add_counter("total.energy_pj", self.total.total_energy_pj());
        Some(snap)
    }

    /// Arms sense-amp read-out fault injection: every sub-array context
    /// (existing attached ones and any created later) flips each sensed
    /// bit with `config.flip_rate` probability from its own deterministic
    /// per-sub-array stream. Stored array content is never corrupted —
    /// only what read-outs return. Arm *before* running a workload;
    /// contexts detached at the moment of arming keep running clean until
    /// they are next created fresh.
    pub fn inject_faults(&mut self, config: FaultConfig) {
        for (id, ctx) in self.contexts.iter_mut() {
            let stream = id.linear_index(&self.geometry) as u64;
            ctx.set_fault_injector(Some(FaultInjector::new(&config, stream)));
        }
        self.fault = Some(config);
    }

    /// The armed fault configuration, if any.
    pub fn fault_config(&self) -> Option<&FaultConfig> {
        self.fault.as_ref()
    }

    /// Total bits flipped by fault injection across all attached contexts.
    pub fn fault_flips(&self) -> u64 {
        self.contexts.values().map(SubarrayContext::fault_flips).sum()
    }

    /// The configured geometry.
    pub fn geometry(&self) -> &DramGeometry {
        &self.geometry
    }

    /// The quantized per-class unit costs shared by the controller and all
    /// of its contexts.
    pub fn costs(&self) -> &CommandCosts {
        &self.costs
    }

    /// The activation model every sub-array context executes with.
    pub fn activation_model(&self) -> ActivationModel {
        self.activation
    }

    /// The name of the backend profile this controller was built from
    /// (`"pim-assembler"` for the historical constructors).
    pub fn backend_name(&self) -> &'static str {
        self.backend_name
    }

    /// Validated sub-array handle for (chip, bank, mat, subarray).
    ///
    /// # Errors
    ///
    /// Returns [`crate::DramError::AddressOutOfRange`] on bad coordinates.
    pub fn subarray_handle(
        &self,
        chip: usize,
        bank: usize,
        mat: usize,
        subarray: usize,
    ) -> Result<SubarrayId> {
        SubarrayId::new(&self.geometry, chip, bank, mat, subarray)
    }

    /// The attached context of `id`, or a fresh one armed with the fault
    /// model when one is configured (a sub-array is materialized on first
    /// touch). Callers check first that `id` is not checked out.
    fn take_context(&mut self, id: SubarrayId) -> SubarrayContext {
        self.contexts.remove(&id).unwrap_or_else(|| {
            let mut ctx = SubarrayContext::new(id, self.geometry, self.costs, self.activation);
            if let Some(cfg) = &self.fault {
                let stream = id.linear_index(&self.geometry) as u64;
                ctx.set_fault_injector(Some(FaultInjector::new(cfg, stream)));
            }
            ctx
        })
    }

    /// Records `n` DPU scalar operations as one batched ledger charge
    /// (`charge_many`, exactly `n` single charges by construction).
    pub fn dpu_ops(&mut self, n: u64) {
        self.global.charge_many(CommandClass::Dpu, &self.costs, n);
        self.total.charge_many(CommandClass::Dpu, &self.costs, n);
    }

    /// Records `count` synthetic commands of `class` without executing
    /// them — used when a stage's traffic is accounted analytically (e.g.
    /// degree accumulation of a graph too large for the functional dense
    /// mapping). Synthetic commands are charged to the controller's global
    /// ledger.
    pub fn record_synthetic(&mut self, class: CommandClass, count: u64) {
        self.global.charge_many(class, &self.costs, count);
        self.total.charge_many(class, &self.costs, count);
    }

    /// The merged integer ledger (global + all contexts).
    pub fn ledger(&self) -> &EnergyLedger {
        &self.total
    }

    /// The global ledger alone: commands not attributable to a sub-array
    /// (DPU ops, synthetic traffic). Conservation invariant:
    /// `global + Σ attached-context ledgers == total` whenever no context
    /// is detached — verification harnesses assert exactly this.
    pub fn global_ledger(&self) -> &EnergyLedger {
        &self.global
    }

    /// Whether any context is currently checked out (conservation over
    /// attached ledgers only holds when this is `false`).
    pub fn has_detached_contexts(&self) -> bool {
        !self.in_flight.is_empty()
    }

    /// Resets the accounting: the global ledger, every *attached*
    /// context's ledger and the metrics collected so far (work on
    /// currently detached contexts is merged when they reattach).
    pub fn take_stats(&mut self) {
        self.global = EnergyLedger::default();
        self.total = EnergyLedger::default();
        for ctx in self.contexts.values_mut() {
            ctx.reset_ledger();
            ctx.reset_obsv();
        }
        self.global_obsv = ContextObsv::default();
        self.stage = Stage::Setup;
        if let Some(state) = self.obsv.as_deref_mut() {
            *state = ObsvState::default();
        }
    }

    /// Restores checkpointed accounting onto a (typically fresh)
    /// controller: the global ledger plus each listed context's local
    /// ledger, with the merged total recomputed. Contexts
    /// are materialized on demand; observability counters are *not*
    /// restored (the session layer folds checkpointed snapshots instead),
    /// so with metrics enabled the pending deltas are folded first and the
    /// restored ledgers become fold marks, never attributed again.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::SubarrayDetached`] if any listed sub-array is
    /// currently checked out.
    pub fn restore_accounting(
        &mut self,
        global: EnergyLedger,
        contexts: &[(SubarrayId, EnergyLedger)],
    ) -> Result<()> {
        for &(id, _) in contexts {
            if self.in_flight.contains_key(&id) {
                return Err(DramError::SubarrayDetached { subarray: id });
            }
        }
        self.fold_pending();
        self.global = global;
        for &(id, ledger) in contexts {
            let mut ctx = self.take_context(id);
            ctx.set_ledger(ledger);
            self.contexts.insert(id, ctx);
        }
        if let Some(state) = self.obsv.as_deref_mut() {
            state.global_mark.ledger = global;
            for &(id, ledger) in contexts {
                state.marks.entry(id).or_default().ledger = ledger;
            }
        }
        let mut total = self.global;
        for ctx in self.contexts.values() {
            total.merge(ctx.ledger());
        }
        self.total = total;
        Ok(())
    }

    /// Checks a context out of the controller for independent (possibly
    /// cross-thread) execution. Until reattached, a second checkout of `id`
    /// fails with [`DramError::SubarrayDetached`].
    ///
    /// # Errors
    ///
    /// Returns [`DramError::SubarrayDetached`] if `id` is already checked
    /// out.
    pub fn detach_context(&mut self, id: SubarrayId) -> Result<SubarrayContext> {
        if self.in_flight.contains_key(&id) {
            return Err(DramError::SubarrayDetached { subarray: id });
        }
        let ctx = self.take_context(id);
        self.in_flight.insert(id, *ctx.ledger());
        Ok(ctx)
    }

    /// Returns a detached context, merging the work it performed while
    /// away into the controller's totals. Merging is integer-exact and
    /// order-independent across contexts.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::SubarrayDetached`] if the context was not
    /// detached from this controller (no matching checkout).
    pub fn reattach_context(&mut self, ctx: SubarrayContext) -> Result<()> {
        let id = ctx.id();
        let snapshot =
            self.in_flight.remove(&id).ok_or(DramError::SubarrayDetached { subarray: id })?;
        let delta = ctx.ledger().since(&snapshot);
        self.total.merge(&delta);
        self.contexts.insert(id, ctx);
        Ok(())
    }

    /// Runs `f` on the context of `id`: checks it out, runs the closure
    /// and reattaches it, also when `f` fails or panics, so the work joins
    /// the totals through [`Controller::reattach_context`] exactly as a
    /// dispatched partition's does. Call it once per sub-array per step
    /// (an index build, a batch of graph-region writes), not per command.
    ///
    /// # Errors
    ///
    /// [`DramError::SubarrayDetached`] if `id` is already checked out;
    /// otherwise whatever `f` returns.
    pub fn with_context<T, E: From<DramError>>(
        &mut self,
        id: SubarrayId,
        f: impl FnOnce(&mut SubarrayContext) -> std::result::Result<T, E>,
    ) -> std::result::Result<T, E> {
        let mut ctx = self.detach_context(id)?;
        let outcome = catch_unwind(AssertUnwindSafe(|| f(&mut ctx)));
        self.reattach_context(ctx).expect("checked out above");
        outcome.unwrap_or_else(|payload| resume_unwind(payload))
    }

    /// The attached context for `id`, if that sub-array has been touched.
    pub fn context(&self, id: SubarrayId) -> Option<&SubarrayContext> {
        self.contexts.get(&id)
    }

    /// A touched sub-array's local ledger; `None` if untouched or
    /// detached.
    pub fn subarray_ledger(&self, id: SubarrayId) -> Option<&EnergyLedger> {
        self.contexts.get(&id).map(SubarrayContext::ledger)
    }

    /// Sub-arrays that have been touched (attached contexts, in address
    /// order).
    pub fn touched_subarrays(&self) -> impl Iterator<Item = SubarrayId> + '_ {
        self.contexts.keys().copied()
    }

    /// Per-sub-array `(commands, busy_ns)` totals in address order — the
    /// input shape of [`crate::schedule::queues_from_totals`] for makespan
    /// estimation of the recorded traffic.
    pub fn subarray_command_totals(&self) -> Vec<(u64, f64)> {
        self.contexts
            .values()
            .map(|ctx| (ctx.ledger().total_commands(), ctx.ledger().total_time_ps() as f64 / 1e3))
            .filter(|&(commands, _)| commands > 0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitrow::BitRow;
    use crate::sense_amp::SaMode;

    fn ctrl() -> (Controller, SubarrayId) {
        let c = Controller::new(DramGeometry::tiny());
        let id = c.subarray_handle(0, 0, 0, 0).unwrap();
        (c, id)
    }

    /// `global + Σ attached-context ledgers == total`.
    fn conserved(c: &Controller) -> bool {
        let mut sum = *c.global_ledger();
        for id in c.touched_subarrays() {
            sum.merge(c.subarray_ledger(id).unwrap());
        }
        !c.has_detached_contexts() && sum == *c.ledger()
    }

    #[test]
    fn xnor_sequence_counts_commands() {
        let (mut c, id) = ctrl();
        let cols = c.geometry().cols;
        let a = BitRow::from_fn(cols, |i| i % 2 == 0);
        let b = BitRow::from_fn(cols, |i| i % 3 == 0);
        let out = c
            .with_context(id, |ctx| {
                ctx.write_row(1, &a)?;
                ctx.write_row(2, &b)?;
                ctx.aap_copy(1, ctx.compute_row(0))?;
                ctx.aap_copy(2, ctx.compute_row(1))?;
                ctx.aap2_xnor([ctx.compute_row(0), ctx.compute_row(1)], 5)
            })
            .unwrap();
        assert_eq!(out, a.xnor(&b));
        let l = c.ledger();
        let counts =
            [CommandClass::Write, CommandClass::Aap, CommandClass::Aap2].map(|k| l.count(k));
        assert_eq!(counts, [2, 2, 1]);
        assert!(l.total_time_ps() > 0 && l.total_energy_fj() > 0);
    }

    #[test]
    fn full_adder_through_a_context() {
        // A complete ripple step: given rows A, B and carry-in row C,
        // carry-out = MAJ(A,B,C), sum = A^B^C, as the paper sequences it:
        // TRA(A,B,C) latches the carry *and* smashes the compute rows, so
        // the controller re-copies A,B for the sum cycle.
        let (mut c, id) = ctrl();
        let cols = c.geometry().cols;
        let a = BitRow::from_fn(cols, |i| (i / 2) % 2 == 0);
        let b = BitRow::from_fn(cols, |i| (i / 3) % 2 == 0);
        let cin = BitRow::zeros(cols);
        let (sum, carry) = c
            .with_context(id, |ctx| {
                ctx.write_row(1, &a)?;
                ctx.write_row(2, &b)?;
                ctx.write_row(3, &cin)?;
                let (x1, x2, x3) = (ctx.compute_row(0), ctx.compute_row(1), ctx.compute_row(2));
                // Sum first (carry-in is latched zero after reset), then
                // carry-out.
                ctx.reset_latch();
                ctx.aap_copy(1, x1)?;
                ctx.aap_copy(2, x2)?;
                let sum = ctx.aap2_sum([x1, x2], 8)?;
                ctx.aap_copy(1, x1)?;
                ctx.aap_copy(2, x2)?;
                ctx.aap_copy(3, x3)?;
                Ok::<_, DramError>((sum, ctx.aap3_carry([x1, x2, x3], 9)?))
            })
            .unwrap();
        assert_eq!(sum, a.xor(&b).xor(&cin));
        assert_eq!(carry, BitRow::maj3(&a, &b, &cin));
    }

    #[test]
    fn dpu_ops_accumulate() {
        let (mut c, _) = ctrl();
        c.dpu_ops(5);
        assert_eq!(c.ledger().count(CommandClass::Dpu), 5);
    }

    #[test]
    fn take_stats_resets() {
        let (mut c, id) = ctrl();
        let cols = c.geometry().cols;
        c.with_context(id, |ctx| ctx.write_row(0, &BitRow::zeros(cols))).unwrap();
        c.dpu_ops(1);
        c.take_stats();
        assert!(c.ledger().is_empty() && c.global_ledger().is_empty());
        assert!(c.subarray_ledger(id).unwrap().is_empty());
    }

    #[test]
    fn detached_subarray_rejects_a_second_checkout() {
        let (mut c, id) = ctrl();
        let cols = c.geometry().cols;
        let ctx = c.detach_context(id).unwrap();
        let err = c.with_context(id, |ctx| ctx.write_row(0, &BitRow::zeros(cols))).unwrap_err();
        assert!(matches!(err, DramError::SubarrayDetached { subarray } if subarray == id));
        // Double detach is also a protocol violation.
        assert!(c.detach_context(id).is_err());
        // Other sub-arrays keep working.
        let other = c.subarray_handle(0, 1, 0, 0).unwrap();
        c.with_context(other, |ctx| ctx.write_row(0, &BitRow::zeros(cols))).unwrap();
        c.reattach_context(ctx).unwrap();
        c.with_context(id, |ctx| ctx.write_row(0, &BitRow::zeros(cols))).unwrap();
        assert_eq!(c.ledger().count(CommandClass::Write), 2);
    }

    #[test]
    fn detached_work_merges_back_exactly() {
        let (mut c, id) = ctrl();
        let cols = c.geometry().cols;
        // Prior attached work, so the detach snapshot is non-trivial.
        c.with_context(id, |ctx| ctx.write_row(0, &BitRow::ones(cols))).unwrap();
        let mut ctx = c.detach_context(id).unwrap();
        ctx.write_row(1, &BitRow::zeros(cols)).unwrap();
        ctx.aap_copy(1, ctx.compute_row(0)).unwrap();
        ctx.dpu_op();
        c.reattach_context(ctx).unwrap();

        // The same commands in one checkout of a fresh controller.
        let (mut once, _) = ctrl();
        once.with_context(id, |ctx| {
            ctx.write_row(0, &BitRow::ones(cols))?;
            ctx.write_row(1, &BitRow::zeros(cols))?;
            ctx.aap_copy(1, ctx.compute_row(0))?;
            ctx.dpu_op();
            Ok::<_, DramError>(())
        })
        .unwrap();

        assert_eq!(c.ledger(), once.ledger());
        assert_eq!(c.subarray_ledger(id), once.subarray_ledger(id));
        // Array state matches byte for byte.
        let (a, b) = (c.context(id).unwrap(), once.context(id).unwrap());
        assert_eq!(a.peek_row(1).unwrap(), b.peek_row(1).unwrap());
        assert_eq!(a.peek_row(a.compute_row(0)).unwrap(), b.peek_row(b.compute_row(0)).unwrap());
    }

    #[test]
    fn reattach_of_unknown_context_is_rejected() {
        let (mut c, id) = ctrl();
        let ctx = c.detach_context(id).unwrap();
        let mut other = Controller::new(DramGeometry::tiny());
        let stray = other.detach_context(id).unwrap();
        c.reattach_context(ctx).unwrap();
        // `c` has no outstanding checkout for `id` any more.
        assert!(matches!(
            c.reattach_context(stray),
            Err(DramError::SubarrayDetached { subarray }) if subarray == id
        ));
    }

    #[test]
    fn a_failing_step_stays_attached_with_its_work_merged() {
        let (mut c, id) = ctrl();
        let cols = c.geometry().cols;
        c.dpu_ops(2);
        let err = c
            .with_context(id, |ctx| {
                ctx.write_row(0, &BitRow::ones(cols))?;
                ctx.aap_copy(0, ctx.compute_row(0))?;
                ctx.write_row(100_000, &BitRow::ones(cols))
            })
            .unwrap_err();
        assert!(matches!(err, DramError::RowOutOfRange { .. }), "{err:?}");
        // Attached, and the two commands before the failure are merged.
        assert!(!c.has_detached_contexts());
        assert_eq!(c.subarray_ledger(id).unwrap().total_commands(), 2);
        assert_eq!(c.ledger().total_commands(), 4);
        assert!(conserved(&c));
        // A second checkout of the same sub-array sees the work.
        let row = c.with_context(id, |ctx| ctx.peek_row(0)).unwrap();
        assert_eq!(row, BitRow::ones(cols));
        // A double `detach_context` is still rejected.
        let ctx = c.detach_context(id).unwrap();
        assert!(matches!(c.detach_context(id), Err(DramError::SubarrayDetached { .. })));
        c.reattach_context(ctx).unwrap();
        assert!(conserved(&c));
    }

    #[test]
    fn a_panicking_step_is_reattached_before_the_panic_propagates() {
        let (mut c, id) = ctrl();
        let cols = c.geometry().cols;
        let caught = catch_unwind(AssertUnwindSafe(|| {
            c.with_context(id, |ctx| -> Result<()> {
                ctx.write_row(0, &BitRow::ones(cols))?;
                panic!("deliberate failure mid-step");
            })
        }));
        let payload = caught.expect_err("the panic propagates");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"deliberate failure mid-step"));
        assert!(!c.has_detached_contexts());
        assert_eq!(c.ledger().count(CommandClass::Write), 1);
        assert!(conserved(&c));
        c.with_context(id, |ctx| ctx.write_row(1, &BitRow::zeros(cols))).unwrap();
        assert_eq!(c.ledger().count(CommandClass::Write), 2);
    }

    #[test]
    fn fault_injection_corrupts_readouts_but_not_stored_state() {
        let (mut c, id) = ctrl();
        let cols = c.geometry().cols;
        c.inject_faults(crate::fault::FaultConfig::new(1.0, 9).unwrap());
        let read = c
            .with_context(id, |ctx| {
                ctx.write_row(0, &BitRow::zeros(cols))?;
                ctx.read_row(0)
            })
            .unwrap();
        assert!(read.all_ones(), "rate-1.0 injection must flip every sensed bit");
        // The cells themselves are clean: peek is the host debug view and
        // bypasses the sense path.
        assert_eq!(c.context(id).unwrap().peek_row(0).unwrap(), BitRow::zeros(cols));
        assert_eq!(c.fault_flips(), cols as u64);
        // A later checkout keeps the armed model.
        assert!(c.with_context(id, |ctx| ctx.read_row(0)).unwrap().all_ones());
        assert_eq!(c.fault_flips(), 2 * cols as u64);
    }

    #[test]
    fn global_ledger_plus_context_ledgers_equals_total() {
        let (mut c, id) = ctrl();
        let cols = c.geometry().cols;
        c.with_context(id, |ctx| {
            ctx.write_row(0, &BitRow::ones(cols))?;
            ctx.aap_copy(0, 1)
        })
        .unwrap();
        c.dpu_ops(3);
        c.record_synthetic(CommandClass::Aap, 2);
        assert!(conserved(&c));
    }

    #[test]
    fn metrics_attribute_deltas_to_stages_across_detach() {
        let (mut c, id) = ctrl();
        let cols = c.geometry().cols;
        c.enable_metrics();
        // Setup-stage traffic.
        c.with_context(id, |ctx| ctx.write_row(0, &BitRow::ones(cols))).unwrap();
        c.record_synthetic(CommandClass::Write, 3);
        c.set_stage(Stage::Hashmap);
        // Hashmap-stage traffic over two checkouts.
        c.with_context(id, |ctx| ctx.aap_copy(0, 1)).unwrap();
        let mut ctx = c.detach_context(id).unwrap();
        ctx.aap_copy(0, 2).unwrap();
        ctx.dpu_op();
        c.reattach_context(ctx).unwrap();
        c.set_stage(Stage::Graph);
        c.dpu_ops(5);

        let snap = c.metrics_snapshot().expect("metrics enabled");
        assert_eq!(snap.counter("setup.host_writes"), 4);
        assert_eq!(snap.counter("setup.sub00000.host_writes"), 1);
        assert_eq!(snap.counter("hashmap.aap"), 2);
        assert_eq!(snap.counter("hashmap.dpu"), 1);
        assert_eq!(snap.counter("graph.dpu"), 5);
        assert_eq!(snap.counter("total.commands"), c.ledger().total_commands());
        assert_eq!(snap.counter("total.energy_pj"), c.ledger().total_energy_pj());

        // Snapshotting is idempotent: no double-folding of deltas.
        let again = c.metrics_snapshot().unwrap();
        assert_eq!(again, snap);
    }

    #[test]
    fn fold_marks_skip_work_before_enable_and_restored_ledgers() {
        let (mut c, id) = ctrl();
        let cols = c.geometry().cols;
        // Work before metrics are enabled is not attributed.
        c.with_context(id, |ctx| ctx.write_row(0, &BitRow::ones(cols))).unwrap();
        c.dpu_ops(7);
        c.enable_metrics();
        c.with_context(id, |ctx| {
            ctx.aap_copy(0, ctx.compute_row(0))?;
            ctx.aap_copy(0, ctx.compute_row(1))?;
            ctx.aap2_discard(SaMode::Xnor, [ctx.compute_row(0), ctx.compute_row(1)], 5)
        })
        .unwrap();
        c.record_synthetic(CommandClass::Aap3, 2);
        c.set_stage(Stage::Hashmap);
        let snap = c.metrics_snapshot().unwrap();
        assert_eq!(snap.counter("setup.host_writes"), 0);
        assert_eq!(snap.counter("setup.dpu"), 0);
        assert_eq!(snap.counter("setup.aap"), 2);
        assert_eq!(snap.counter("setup.aap2"), 1);
        assert_eq!(snap.counter("setup.aap3"), 2);
        assert_eq!(snap.counter("setup.discard_reads"), 1);
        // 2×AAP(2) + 1×AAP2(3) + 2×AAP3(4).
        assert_eq!(snap.counter("setup.row_activations"), 15);
        assert_eq!(snap.counter("setup.sub00000.row_activations"), 7);
        // A restored ledger is a fold mark: only the work after it counts.
        let (global, sub) = (*c.global_ledger(), *c.subarray_ledger(id).unwrap());
        let mut fresh = Controller::new(DramGeometry::tiny());
        fresh.enable_metrics();
        fresh.set_stage(Stage::Hashmap);
        fresh.restore_accounting(global, &[(id, sub)]).unwrap();
        fresh.with_context(id, |ctx| ctx.write_row(1, &BitRow::ones(cols))).unwrap();
        fresh.dpu_ops(1);
        let snap = fresh.metrics_snapshot().unwrap();
        assert_eq!(snap.counter("hashmap.host_writes"), 1);
        assert_eq!(snap.counter("hashmap.dpu"), 1);
        assert_eq!(snap.counter("hashmap.aap"), 0);
        assert_eq!(snap.counter("hashmap.row_activations"), 1);
        assert_eq!(snap.counter("total.commands"), c.ledger().total_commands() + 2);
        // Taking the stats resets ledgers and marks together.
        fresh.take_stats();
        fresh.dpu_ops(3);
        assert_eq!(fresh.metrics_snapshot().unwrap().counter("setup.dpu"), 3);
    }

    #[test]
    fn derived_activations_stay_below_the_ledger_latency() {
        // The largest single-class ledgers a checkpoint may carry under
        // each shipped profile: a charge history with totals within `u64`.
        let profiles = [
            BackendProfile::pim_assembler(),
            BackendProfile::ambit_tra(),
            BackendProfile::panda_mram(),
        ];
        for profile in profiles {
            let c = Controller::with_profile(DramGeometry::paper_assembly(), &profile);
            for class in COMMAND_CLASSES {
                let unit = c.costs().unit(class);
                let count = (u64::MAX / unit.time_ps.max(1)).min(u64::MAX / unit.energy_fj.max(1));
                let mut ledger = EnergyLedger::default();
                ledger.charge_many(class, c.costs(), count);
                assert!(ledger.is_charged_at(c.costs()));
                let derived = command_counters(&ledger);
                assert_eq!(derived.total() - derived.get(Metric::RowActivations), count);
                let activations = derived.get(Metric::RowActivations);
                assert!(activations <= ledger.total_time_ps(), "{} {class:?}", profile.name);
            }
        }
    }

    #[test]
    fn metrics_disabled_returns_no_snapshot() {
        let (mut c, id) = ctrl();
        let cols = c.geometry().cols;
        c.with_context(id, |ctx| ctx.write_row(0, &BitRow::zeros(cols))).unwrap();
        assert!(!c.metrics_enabled());
        assert!(c.metrics_snapshot().is_none());
    }

    #[test]
    fn restore_accounting_reproduces_ledgers() {
        let (mut c, id) = ctrl();
        let cols = c.geometry().cols;
        c.with_context(id, |ctx| {
            ctx.write_row(0, &BitRow::ones(cols))?;
            ctx.aap_copy(0, 1)
        })
        .unwrap();
        c.dpu_ops(3);
        c.record_synthetic(CommandClass::Aap2, 2);

        let global = *c.global_ledger();
        let contexts: Vec<_> =
            c.touched_subarrays().map(|sid| (sid, *c.subarray_ledger(sid).unwrap())).collect();

        let mut fresh = Controller::new(DramGeometry::tiny());
        fresh.restore_accounting(global, &contexts).unwrap();
        assert_eq!(fresh.ledger(), c.ledger());
        assert_eq!(fresh.global_ledger(), c.global_ledger());
        assert_eq!(fresh.subarray_ledger(id), c.subarray_ledger(id));
        // Accounting keeps accumulating on top of the restored baseline.
        fresh.dpu_ops(1);
        c.dpu_ops(1);
        assert_eq!(fresh.ledger(), c.ledger());
    }

    #[test]
    fn partition_items_histogram_lands_in_host_section() {
        let (mut c, id) = ctrl();
        let cols = c.geometry().cols;
        c.enable_metrics();
        c.with_context(id, |ctx| ctx.write_row(0, &BitRow::zeros(cols))).unwrap();
        c.record_value(HistKey::PartitionItems, 4);
        c.record_value(HistKey::HashProbeLen, 1);
        let snap = c.metrics_snapshot().unwrap();
        assert!(snap.counters.keys().all(|k| !k.contains("partition_items")), "{snap:?}");
        assert_eq!(snap.host.get("hist.partition_items.total"), Some(&1));
        assert_eq!(snap.counter("hist.hash_probe_len.total"), 1);
    }

    #[test]
    fn per_subarray_accounting_sums_to_the_total() {
        let (mut c, id) = ctrl();
        let other = c.subarray_handle(0, 1, 0, 0).unwrap();
        let cols = c.geometry().cols;
        c.with_context(id, |ctx| ctx.write_row(0, &BitRow::ones(cols))).unwrap();
        c.with_context(other, |ctx| {
            ctx.write_row(0, &BitRow::ones(cols))?;
            ctx.aap_copy(0, 1)
        })
        .unwrap();
        c.dpu_ops(1);
        let mut sum = *c.subarray_ledger(id).unwrap();
        sum.merge(c.subarray_ledger(other).unwrap());
        // The DPU op lives in the global ledger, not any sub-array's.
        assert_eq!(sum.total_commands() + 1, c.ledger().total_commands());
        let totals = c.subarray_command_totals();
        assert_eq!(totals.len(), 2);
        assert_eq!(totals.iter().map(|t| t.0).sum::<u64>(), 3);
    }
}
