//! Parallel dispatch of disjoint-sub-array work.
//!
//! The paper's performance claims rest on sub-array-level parallelism
//! (`Pd` replicas of each pipeline stage running in disjoint sub-arrays).
//! This module makes that parallelism *executable* in the functional
//! model: a [`ParallelDispatcher`] checks per-sub-array
//! [`SubarrayContext`]s out of the [`Controller`]
//! ([`Controller::detach_context`]), drives each partition on a
//! persistent `WorkerPool` thread (std `mpsc`; the build environment
//! has no `rayon`), and reattaches them in deterministic order. The pool
//! threads are spawned once when the dispatcher is built and live for its
//! whole lifetime, so repeated dispatches — the shape of the assembly
//! pipeline, which dispatches once per stage batch — pay no per-call
//! spawn cost; partitions are pulled from a shared queue, so slow
//! partitions do not strand idle workers behind a static chunking.
//!
//! Correctness contract: because partitions touch disjoint sub-arrays and
//! contexts account in integer [`pim_dram::ledger::EnergyLedger`]s, a
//! parallel run produces **byte-identical** array state and an identical
//! merged ledger to the serial run of the same partitions — regardless of
//! worker count or interleaving. The serial
//! fallback (`workers == 1`) runs the identical context-based path, so
//! `serial()` vs `parallel()` differ only in wall-clock.
//!
//! A context is the only thing that executes a command, so this is the
//! batch route onto the array; a step that touches one sub-array takes
//! the single-context form, [`Controller::with_context`]. Both join the
//! controller's totals through [`Controller::reattach_context`].

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use pim_dram::address::SubarrayId;
use pim_dram::context::SubarrayContext;
use pim_dram::controller::Controller;
use pim_obsv::{DispatchMetrics, HistKey, SpanRecorder};

use crate::error::Result;

/// A type-erased unit of work shipped to a pool thread.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Tracks one batch of jobs submitted to the pool: outstanding count, a
/// wake-up for the submitter, and the first captured panic payload.
struct Batch {
    remaining: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// A fixed set of persistent worker threads draining a shared job queue.
///
/// Threads are spawned once at construction; every [`WorkerPool::scope`]
/// call enqueues its jobs and blocks until all of them ran, which is what
/// makes lending the caller's borrows to the (statically `'static`) job
/// type sound. Dropping the pool closes the queue and joins the threads.
struct WorkerPool {
    tx: Option<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
    /// Telemetry shared with the owning dispatcher (per-worker item
    /// pickup, barrier wait time).
    metrics: Arc<DispatchMetrics>,
}

impl WorkerPool {
    /// Spawns `threads` workers blocking on a shared queue.
    fn new(threads: usize, metrics: Arc<DispatchMetrics>) -> Self {
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let handles = (0..threads)
            .map(|worker| {
                let rx = Arc::clone(&rx);
                let metrics = Arc::clone(&metrics);
                std::thread::spawn(move || Self::drain(&rx, &metrics, worker))
            })
            .collect();
        WorkerPool { tx: Some(tx), handles, metrics }
    }

    /// Worker body: pull jobs until the queue closes. The queue lock is
    /// held only across `recv`, never while a job runs, so pickup is
    /// serialized but execution is parallel.
    fn drain(rx: &Mutex<Receiver<Job>>, metrics: &DispatchMetrics, worker: usize) {
        loop {
            // Lock can only be poisoned if a peer died inside `recv`,
            // which does not panic; treat poisoning as shutdown anyway.
            let job = match rx.lock() {
                Ok(guard) => guard.recv(),
                Err(_) => return,
            };
            match job {
                Ok(job) => {
                    metrics.record_worker_item(worker);
                    job()
                }
                Err(_) => return, // queue closed: pool is shutting down
            }
        }
    }

    /// Runs the given jobs to completion on the pool, blocking the caller
    /// until the last one finishes. Panics from jobs are captured and the
    /// first one (in completion order) is *returned*, not re-raised — the
    /// caller decides how to surface it after recovering its state. This
    /// is what lets [`ParallelDispatcher::run_partitions`] reattach every
    /// checked-out context before propagating a worker panic.
    fn scope<'env>(
        &self,
        jobs: Vec<Box<dyn FnOnce() + Send + 'env>>,
    ) -> Option<Box<dyn std::any::Any + Send>> {
        let batch = Arc::new(Batch {
            remaining: Mutex::new(jobs.len()),
            done: Condvar::new(),
            panic: Mutex::new(None),
        });
        let tx = self.tx.as_ref().expect("pool queue open until drop");
        for job in jobs {
            // SAFETY: `scope` blocks below until `remaining` hits zero, i.e.
            // until every job has finished running, so the `'env` borrows
            // inside the job strictly outlive its execution. The job is
            // only ever run once, on a pool thread, within that window.
            let job: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(job) };
            let batch = Arc::clone(&batch);
            let wrapped: Job = Box::new(move || {
                let outcome = catch_unwind(AssertUnwindSafe(job));
                if let Err(payload) = outcome {
                    let mut slot = batch.panic.lock().unwrap();
                    slot.get_or_insert(payload);
                }
                let mut remaining = batch.remaining.lock().unwrap();
                *remaining -= 1;
                if *remaining == 0 {
                    batch.done.notify_all();
                }
            });
            tx.send(wrapped).expect("pool threads alive until drop");
        }
        let wait_start = Instant::now();
        let mut remaining = batch.remaining.lock().unwrap();
        while *remaining > 0 {
            remaining = batch.done.wait(remaining).unwrap();
        }
        drop(remaining);
        self.metrics.record_pool_batch(wait_start.elapsed().as_nanos() as u64);
        let payload = batch.panic.lock().unwrap().take();
        payload
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel ends every worker's recv loop.
        self.tx.take();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("threads", &self.handles.len()).finish()
    }
}

/// Executes disjoint-sub-array partitions, concurrently when configured.
///
/// Cloning is cheap and shares the underlying `WorkerPool` (if any);
/// equality compares the configured worker count only.
#[derive(Debug, Clone)]
pub struct ParallelDispatcher {
    workers: usize,
    /// Persistent pool, present iff `workers > 1`. Shared across clones.
    pool: Option<Arc<WorkerPool>>,
    /// Dispatch telemetry, always on (relaxed atomic adds). Shared with
    /// the pool threads and across clones.
    metrics: Arc<DispatchMetrics>,
    /// Optional span sink for `dispatch.batch` spans (observability runs).
    spans: Option<Arc<SpanRecorder>>,
}

impl PartialEq for ParallelDispatcher {
    fn eq(&self, other: &Self) -> bool {
        self.workers == other.workers
    }
}

impl Eq for ParallelDispatcher {}

impl Default for ParallelDispatcher {
    fn default() -> Self {
        ParallelDispatcher::serial()
    }
}

impl ParallelDispatcher {
    /// A dispatcher that runs every partition on the calling thread (the
    /// reference semantics; no threads are spawned).
    pub fn serial() -> Self {
        ParallelDispatcher {
            workers: 1,
            pool: None,
            metrics: Arc::new(DispatchMetrics::new()),
            spans: None,
        }
    }

    /// A dispatcher using all available host parallelism.
    pub fn parallel() -> Self {
        let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        ParallelDispatcher::with_workers(workers)
    }

    /// A dispatcher with an explicit worker count. For `workers > 1` the
    /// pool threads are spawned here, once, and reused by every dispatch.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn with_workers(workers: usize) -> Self {
        assert!(workers > 0, "dispatcher needs at least one worker");
        let metrics = Arc::new(DispatchMetrics::new());
        let pool = (workers > 1).then(|| Arc::new(WorkerPool::new(workers, Arc::clone(&metrics))));
        ParallelDispatcher { workers, pool, metrics, spans: None }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The dispatch telemetry block (shared with pool threads and clones).
    pub fn metrics(&self) -> &DispatchMetrics {
        &self.metrics
    }

    /// Installs (or removes) a span sink; each `run_partitions` batch then
    /// records a `dispatch.batch` span covering its execution.
    pub fn set_span_recorder(&mut self, spans: Option<Arc<SpanRecorder>>) {
        self.spans = spans;
    }

    /// Runs `f` once per partition, each against the detached context of
    /// that partition's sub-array with the partition's payload. Partitions
    /// must address pairwise-distinct sub-arrays (that is the disjointness
    /// the hardware provides); every partition is attempted even if
    /// another fails, mirroring independent sub-arrays having no rollback.
    /// Contexts are reattached in partition order, so the merged totals —
    /// already order-independent by integer accounting — and the
    /// controller's context table are deterministic.
    ///
    /// Returns the per-partition results in partition order.
    ///
    /// # Errors
    ///
    /// Returns [`pim_dram::DramError::SubarrayDetached`] (wrapped) if two
    /// partitions name the same sub-array or one is already detached;
    /// otherwise the first failing partition's error, in partition order.
    pub fn run_partitions<P, R, F>(
        &self,
        ctrl: &mut Controller,
        partitions: Vec<(SubarrayId, P)>,
        f: F,
    ) -> Result<Vec<R>>
    where
        P: Send,
        R: Send,
        F: Fn(&mut SubarrayContext, P) -> Result<R> + Sync,
    {
        // Telemetry first, before any path split, so these counters are
        // identical for serial and pooled runs of the same workload.
        self.metrics.record_batch(partitions.len() as u64);
        ctrl.record_value(HistKey::PartitionItems, partitions.len() as u64);
        let span_start = self.spans.as_deref().map(SpanRecorder::now_ns);

        // Check out every partition's context up front; a duplicate id
        // surfaces here as SubarrayDetached before any work runs.
        let mut work: Vec<(SubarrayContext, P)> = Vec::with_capacity(partitions.len());
        let mut checkout_err = None;
        for (id, payload) in partitions {
            match ctrl.detach_context(id) {
                Ok(ctx) => work.push((ctx, payload)),
                Err(e) => {
                    checkout_err = Some(e);
                    break;
                }
            }
        }
        if let Some(e) = checkout_err {
            for (ctx, _) in work {
                ctrl.reattach_context(ctx).expect("checked out above");
            }
            return Err(e.into());
        }

        // Each finished partition carries its context back plus `Some`
        // result — or `None` when the partition body panicked (the first
        // captured payload travels alongside). Both paths run *every*
        // partition even after a panic, mirroring independent sub-arrays
        // having no rollback.
        type Finished<R> = Vec<(SubarrayContext, Option<Result<R>>)>;
        let (finished, panic_payload): (Finished<R>, _) = if self.workers <= 1 || work.len() <= 1 {
            let mut payload = None;
            let finished = work
                .into_iter()
                .map(|(mut ctx, p)| match catch_unwind(AssertUnwindSafe(|| f(&mut ctx, p))) {
                    Ok(r) => (ctx, Some(r)),
                    Err(e) => {
                        payload.get_or_insert(e);
                        (ctx, None)
                    }
                })
                .collect();
            (finished, payload)
        } else {
            self.run_on_threads(work, &f)
        };

        if let (Some(spans), Some(start)) = (&self.spans, span_start) {
            spans.record("dispatch.batch", "dispatch", 0, start, finished.len() as u64);
        }

        // Reattach *every* context — panicked partitions included — before
        // surfacing anything, so the controller is fully usable afterward.
        let mut results = Vec::with_capacity(finished.len());
        let mut first_err = None;
        let mut panicked: Option<(usize, SubarrayId)> = None;
        for (index, (ctx, result)) in finished.into_iter().enumerate() {
            let id = ctx.id();
            ctrl.reattach_context(ctx).expect("checked out above");
            match result {
                Some(Ok(r)) => results.push(r),
                Some(Err(e)) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
                None => {
                    if panicked.is_none() {
                        panicked = Some((index, id));
                    }
                }
            }
        }
        if let Some(payload) = panic_payload {
            // Re-raise the *original* payload, enriched with the partition
            // that died when the payload is a plain message (the common
            // panic!("...") shape); opaque payloads propagate unchanged.
            let location = match panicked {
                Some((index, id)) => format!("partition {index} ({id})"),
                None => "unknown partition".to_string(),
            };
            let message = (payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .or_else(|| payload.downcast_ref::<String>().cloned());
            match message {
                Some(msg) => panic!("worker panicked in {location}: {msg}"),
                None => resume_unwind(payload),
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(results),
        }
    }

    /// Ships one job per partition to the persistent pool; each job fills
    /// its own result slot, so collecting the slots restores partition
    /// order no matter which worker ran what.
    ///
    /// Each partition's context lives *inside* its slot mutex for the
    /// whole run: a panicking job poisons only its own slot, and the
    /// context is recovered through [`std::sync::PoisonError::into_inner`]
    /// with whatever state the partition reached. The first panic payload
    /// is returned alongside the results instead of being re-raised here,
    /// so the caller can reattach every context first.
    #[allow(clippy::type_complexity)]
    fn run_on_threads<P, R, F>(
        &self,
        work: Vec<(SubarrayContext, P)>,
        f: &F,
    ) -> (Vec<(SubarrayContext, Option<Result<R>>)>, Option<Box<dyn std::any::Any + Send>>)
    where
        P: Send,
        R: Send,
        F: Fn(&mut SubarrayContext, P) -> Result<R> + Sync,
    {
        type Slot<R> = Mutex<(SubarrayContext, Option<Result<R>>)>;
        let pool = self.pool.as_ref().expect("workers > 1 implies a pool");
        let mut payloads = Vec::with_capacity(work.len());
        let slots: Vec<Slot<R>> = work
            .into_iter()
            .map(|(ctx, payload)| {
                payloads.push(payload);
                Mutex::new((ctx, None))
            })
            .collect();
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = payloads
            .into_iter()
            .zip(&slots)
            .map(|(payload, slot)| {
                Box::new(move || {
                    // Each slot is locked exactly once, by its own job, so
                    // the lock cannot be contended or already poisoned.
                    let mut guard = slot.lock().expect("slot locked only by its own job");
                    let (ctx, result) = &mut *guard;
                    *result = Some(f(ctx, payload));
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        let panic_payload = pool.scope(jobs);
        let finished = slots
            .into_iter()
            .map(|slot| slot.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner))
            .collect();
        (finished, panic_payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::PimError;
    use pim_dram::address::RowAddr;
    use pim_dram::bitrow::BitRow;
    use pim_dram::geometry::DramGeometry;
    use pim_dram::sense_amp::SaMode;
    use pim_dram::{CommandClass, DramError};

    fn subarrays(n: usize) -> (Controller, Vec<SubarrayId>) {
        let g = DramGeometry::tiny();
        let ctrl = Controller::new(g);
        let ids = (0..n).map(|i| SubarrayId::from_linear_index(&g, i)).collect();
        (ctrl, ids)
    }

    /// A small per-sub-array program: copy two data rows into compute
    /// rows, XNOR them into a data row.
    fn program(ctx: &mut SubarrayContext, salt: usize) -> Result<()> {
        let (x0, x1) = (ctx.compute_row(0), ctx.compute_row(1));
        ctx.aap_copy(RowAddr(salt % 4), x0)?;
        ctx.aap_copy(RowAddr(salt % 4 + 1), x1)?;
        ctx.aap2_discard(SaMode::Xnor, [x0, x1], RowAddr(8 + salt % 3))?;
        Ok(())
    }

    fn seed_rows(ctrl: &mut Controller, ids: &[SubarrayId]) {
        let cols = ctrl.geometry().cols;
        for (n, &id) in ids.iter().enumerate() {
            ctrl.with_context(id, |ctx| {
                (0..6).try_for_each(|row| {
                    ctx.write_row(row, &BitRow::from_fn(cols, |i| (i + row + n) % 3 == 0))
                })
            })
            .unwrap();
        }
    }

    /// One unit write to row 0 of `id`.
    fn write_zeros(ctrl: &mut Controller, id: SubarrayId) {
        let cols = ctrl.geometry().cols;
        ctrl.with_context(id, |ctx| ctx.write_row(0, &BitRow::zeros(cols))).unwrap();
    }

    /// Runs [`program`] once per sub-array (salted by its index) as one
    /// dispatcher partition each.
    fn dispatch_programs(
        dispatcher: &ParallelDispatcher,
        ctrl: &mut Controller,
        ids: &[SubarrayId],
    ) {
        let partitions: Vec<(SubarrayId, usize)> = ids.iter().copied().zip(0..).collect();
        dispatcher.run_partitions(ctrl, partitions, program).unwrap();
    }

    #[test]
    fn parallel_execution_is_byte_identical_to_serial() {
        let (mut serial_ctrl, ids) = subarrays(8);
        let (mut par_ctrl, _) = subarrays(8);
        seed_rows(&mut serial_ctrl, &ids);
        seed_rows(&mut par_ctrl, &ids);

        dispatch_programs(&ParallelDispatcher::serial(), &mut serial_ctrl, &ids);
        dispatch_programs(&ParallelDispatcher::with_workers(4), &mut par_ctrl, &ids);

        assert_eq!(serial_ctrl.ledger(), par_ctrl.ledger());
        let rows = serial_ctrl.geometry().rows;
        for &id in &ids {
            let (a, b) = (serial_ctrl.context(id).unwrap(), par_ctrl.context(id).unwrap());
            for row in 0..rows {
                assert_eq!(
                    a.peek_row(row).unwrap(),
                    b.peek_row(row).unwrap(),
                    "row {row} of {id} diverged"
                );
            }
        }
    }

    #[test]
    fn dispatched_execution_matches_one_checkout_per_subarray() {
        let (mut direct, ids) = subarrays(4);
        let (mut dispatched, _) = subarrays(4);
        seed_rows(&mut direct, &ids);
        seed_rows(&mut dispatched, &ids);

        for (salt, &id) in ids.iter().enumerate() {
            direct.with_context(id, |ctx| program(ctx, salt)).unwrap();
        }
        dispatch_programs(&ParallelDispatcher::with_workers(2), &mut dispatched, &ids);

        assert_eq!(direct.ledger(), dispatched.ledger());
        for &id in &ids {
            assert_eq!(direct.subarray_ledger(id), dispatched.subarray_ledger(id));
        }
    }

    #[test]
    fn run_partitions_returns_results_in_partition_order() {
        let (mut ctrl, ids) = subarrays(5);
        let cols = ctrl.geometry().cols;
        let partitions: Vec<(SubarrayId, usize)> =
            ids.iter().copied().zip([10usize, 20, 30, 40, 50]).collect();
        let out = ParallelDispatcher::with_workers(3)
            .run_partitions(&mut ctrl, partitions, |ctx, payload| {
                ctx.write_row(0, &BitRow::from_fn(cols, |i| i == payload % cols))?;
                Ok(payload * 2)
            })
            .unwrap();
        assert_eq!(out, vec![20, 40, 60, 80, 100]);
        assert_eq!(ctrl.ledger().count(CommandClass::Write), 5);
    }

    #[test]
    fn duplicate_partition_ids_are_rejected_up_front() {
        let (mut ctrl, ids) = subarrays(2);
        let partitions = vec![(ids[0], ()), (ids[1], ()), (ids[0], ())];
        let err = ParallelDispatcher::with_workers(2)
            .run_partitions(&mut ctrl, partitions, |_ctx, ()| Ok(()))
            .unwrap_err();
        assert!(matches!(err, PimError::Dram(DramError::SubarrayDetached { .. })));
        // All contexts were returned: the controller is fully usable.
        write_zeros(&mut ctrl, ids[0]);
        assert_eq!(ctrl.ledger().count(CommandClass::Write), 1);
    }

    #[test]
    fn first_error_in_partition_order_wins_and_controller_recovers() {
        for workers in [1, 4] {
            let (mut ctrl, ids) = subarrays(4);
            let cols = ctrl.geometry().cols;
            let partitions: Vec<(SubarrayId, usize)> = ids.iter().copied().zip(0..4).collect();
            let err = ParallelDispatcher::with_workers(workers)
                .run_partitions(&mut ctrl, partitions, |ctx, n| {
                    if n % 2 == 1 {
                        // Bad row: out of range.
                        ctx.write_row(100_000, &BitRow::zeros(cols))?;
                    } else {
                        ctx.write_row(0, &BitRow::ones(cols))?;
                    }
                    Ok(())
                })
                .unwrap_err();
            assert!(
                matches!(err, PimError::Dram(DramError::RowOutOfRange { .. })),
                "workers={workers}"
            );
            // Successful partitions (0 and 2) landed; failed ones did not.
            assert_eq!(ctrl.ledger().count(CommandClass::Write), 2, "workers={workers}");
            write_zeros(&mut ctrl, ids[1]);
        }
    }

    #[test]
    fn worker_panic_recovers_contexts_and_names_the_partition() {
        for workers in [1, 4] {
            let (mut ctrl, ids) = subarrays(4);
            let cols = ctrl.geometry().cols;
            let dispatcher = ParallelDispatcher::with_workers(workers);
            let partitions: Vec<(SubarrayId, usize)> = ids.iter().copied().zip(0..4).collect();
            let caught = catch_unwind(AssertUnwindSafe(|| {
                dispatcher.run_partitions(&mut ctrl, partitions, |ctx, n| {
                    ctx.write_row(0, &BitRow::ones(cols))?;
                    if n == 2 {
                        panic!("deliberate failure in job {n}");
                    }
                    Ok(())
                })
            }));
            // The original message survives, enriched with the partition.
            let payload = caught.expect_err("worker panic must propagate");
            let msg = payload.downcast_ref::<String>().expect("formatted panic message");
            assert!(msg.contains("deliberate failure in job 2"), "workers={workers}: {msg}");
            assert!(msg.contains("partition 2"), "workers={workers}: {msg}");
            // Every context was reattached first — including the panicked
            // partition's, with the state it reached — so the controller
            // stays fully usable and no sub-array is stranded detached.
            assert_eq!(ctrl.ledger().count(CommandClass::Write), 4, "workers={workers}");
            for &id in &ids {
                write_zeros(&mut ctrl, id);
            }
            assert_eq!(ctrl.ledger().count(CommandClass::Write), 8, "workers={workers}");
        }
    }
}
