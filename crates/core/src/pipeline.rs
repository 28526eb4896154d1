//! The end-to-end PIM-Assembler pipeline and its staged execution engine.
//!
//! `PimAssembler::assemble` drives all three stages of Fig. 5 against the
//! bit-accurate DRAM model, returning real contigs plus the full
//! performance report. Results are byte-identical to the software
//! assembler of `pim_genome` (the integration tests assert this), because
//! the PIM pipeline executes the *same algorithm* through in-memory
//! primitives.
//!
//! Every run goes through a [`Session`]: a resumable run that advances
//! the stage executors ([`HashmapExec`], then [`GraphStage::build`], then
//! [`TraverseExec`]) chunk by chunk,
//! optionally persists a [`StageCheckpoint`] after every chunk and stage
//! boundary, and can be reconstructed from disk with [`Session::resume`].
//! `assemble` is `Session::start(..)?.run(reads)`. The load-bearing
//! contract — pinned by `pim-verify` and `tests/resume_suite.rs` — is
//! that streamed + checkpointed + resumed execution is *byte-identical*
//! to the one-shot run: contigs, the energy ledger and its per-stage
//! deltas, and every deterministic metric, at any worker count. Three
//! substrate properties earn it: per-chunk work concatenates to the
//! one-shot work order (the dispatcher preserves per-sub-array arrival
//! order), ledger charging is an order-independent integer sum, and
//! checkpoint save and restore go through the contexts' uncharged debug
//! view (`peek_row` / `poke_row`), so saving and reloading state perturbs
//! no accounting.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use pim_dram::address::SubarrayId;
use pim_dram::controller::Controller;
use pim_dram::ledger::{CommandClass, EnergyLedger, COMMAND_CLASSES};
use pim_genome::assemble::Assembly;
use pim_genome::contig::Contig;
use pim_genome::debruijn::DeBruijnGraph;
use pim_genome::reads::Read;
use pim_genome::stats::AssemblyStats;
use pim_obsv::{MetricsSnapshot, SpanRecorder, Stage};
use pim_platforms::workload::AssemblyWorkload;

use crate::budget::{hashmap_chunk_aap_bound, ChunkAapBound};
use crate::checkpoint::StageCheckpoint;
use crate::config::PimAssemblerConfig;
use crate::dispatch::ParallelDispatcher;
use crate::error::{PimError, Result};
use crate::graph_stage::{GraphStage, GraphStats};
use crate::hashmap_stage::{HashStats, HashmapExec, PimHashTable};
use crate::partition::{IntervalBlockPartitioner, Partitioning};
use crate::perf::PerfReport;
use crate::traverse_stage::{TraverseArtifact, TraverseExec, TraverseStats};

/// Everything one assembly run produces.
#[derive(Debug, Clone)]
pub struct PimRun {
    /// The assembled contigs and stage sizes (same shape as the software
    /// assembler's output).
    pub assembly: Assembly,
    /// Full performance report.
    pub report: PerfReport,
    /// Hash-stage statistics.
    pub hash_stats: HashStats,
    /// Graph-stage statistics.
    pub graph_stats: GraphStats,
    /// Traverse-stage statistics.
    pub traverse_stats: TraverseStats,
    /// The interval-block partitioning chosen for the graph.
    pub partitioning: Partitioning,
    /// Per-chunk AAP budget violations recorded during streamed
    /// ingestion (see [`crate::budget::hashmap_chunk_aap_bound`]). Empty
    /// for healthy runs; violations are recorded, never fatal.
    pub chunk_violations: Vec<String>,
}

/// The PIM-Assembler platform instance.
///
/// See the crate-level example for end-to-end usage.
#[derive(Debug, Clone)]
pub struct PimAssembler {
    config: PimAssemblerConfig,
    ctrl: Controller,
    dispatcher: ParallelDispatcher,
    spans: Option<Arc<SpanRecorder>>,
}

/// Capacity of the span ring buffer when observability is enabled.
const SPAN_RING_CAPACITY: usize = 8192;

impl PimAssembler {
    /// Creates an assembler over a fresh memory group. Stages execute
    /// through a [`ParallelDispatcher`] sized by
    /// [`PimAssemblerConfig::workers`]; any worker count produces
    /// byte-identical contigs and command totals.
    pub fn new(config: PimAssemblerConfig) -> Self {
        let mut ctrl = Controller::with_params(config.geometry, config.timing, config.energy);
        let mut dispatcher = ParallelDispatcher::with_workers(config.workers.max(1));
        let spans = config.observe.then(|| Arc::new(SpanRecorder::new(SPAN_RING_CAPACITY)));
        if config.observe {
            ctrl.enable_metrics();
            dispatcher.set_span_recorder(spans.clone());
        }
        PimAssembler { config, ctrl, dispatcher, spans }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PimAssemblerConfig {
        &self.config
    }

    /// The memory controller (inspection / verification).
    pub fn controller(&self) -> &Controller {
        &self.ctrl
    }

    /// The dispatcher driving the stages.
    pub fn dispatcher(&self) -> &ParallelDispatcher {
        &self.dispatcher
    }

    /// The span recorder, when the run was configured with
    /// [`PimAssemblerConfig::with_observability`]. Export with
    /// [`SpanRecorder::to_chrome_json`] for chrome://tracing / Perfetto.
    pub fn span_recorder(&self) -> Option<&Arc<SpanRecorder>> {
        self.spans.as_ref()
    }

    /// Arms sense-amp fault injection on the underlying controller: every
    /// subsequent row read-out flips each bit with the configured
    /// probability (stored cells stay intact). Used by the verification
    /// harness to measure how the pipeline degrades under array faults —
    /// see [`pim_dram::fault::FaultConfig`]. Incompatible with
    /// checkpointing (the flip streams are not serializable).
    pub fn inject_faults(&mut self, config: pim_dram::fault::FaultConfig) {
        self.ctrl.inject_faults(config);
    }

    /// Total sense-amp bit flips injected so far (0 without fault
    /// injection).
    pub fn fault_flips(&self) -> u64 {
        self.ctrl.fault_flips()
    }

    /// Runs the three-stage assembly over a read set:
    /// `Session::start(self, None)?.run(reads)`.
    ///
    /// With [`PimAssemblerConfig::chunk_reads`] unset the reads go in as
    /// one chunk; with `Some(n)` they stream through the hashmap stage in
    /// chunks of `n` with byte-identical results. For a checkpointed or
    /// resumed run, start the [`Session`] with a checkpoint directory (or
    /// [`Session::resume`] one) and call [`Session::run`].
    ///
    /// # Errors
    ///
    /// * [`crate::PimError::SubarrayFull`] if the hash partition is too
    ///   small for the workload (increase
    ///   [`PimAssemblerConfig::with_hash_subarrays`]).
    /// * DRAM addressing errors.
    pub fn assemble(&mut self, reads: &[Read]) -> Result<PimRun> {
        Session::start(self, None)?.run(reads)
    }
}

/// Auxiliary sub-array `offset` places after the hash partition.
fn aux_subarray(config: &PimAssemblerConfig, offset: usize) -> SubarrayId {
    let index = (config.hash_subarrays + offset) % config.geometry.total_subarrays();
    SubarrayId::from_linear_index(&config.geometry, index)
}

/// Interval count for the graph partitioning: one interval per active MAT,
/// at least two.
fn partition_intervals(geometry: &pim_dram::geometry::DramGeometry) -> usize {
    geometry.active_mats_per_bank.max(2)
}

/// The graph stage's last step, shared by a live run and a resume: prunes
/// tips when the config asks for it and re-partitions the pruned graph.
/// Returns the graph, its partitioning and the number of edges pruned,
/// which only a live run charges (a resume restores those charges with
/// its ledgers).
fn simplify_graph(
    config: &PimAssemblerConfig,
    graph: DeBruijnGraph,
    partitioning: Partitioning,
) -> (DeBruijnGraph, Partitioning, u64) {
    let Some(max_tip) = config.simplify_tips else {
        return (graph, partitioning, 0);
    };
    let (simplified, _) = pim_genome::simplify::Simplifier::new(max_tip).simplify(&graph);
    let dropped = (graph.edge_count() - simplified.edge_count()) as u64;
    let f = config.geometry.cols.min(config.geometry.rows);
    let partitioning = IntervalBlockPartitioner::new(partition_intervals(&config.geometry), f)
        .partition(&simplified);
    (simplified, partitioning, dropped)
}

/// Folds checkpointed metrics from an earlier session segment into the
/// current snapshot. `total.*` counters are skipped: they are re-derived
/// from the restored ledger and therefore already cumulative. Host keys
/// are summed wholesale — they sit outside the deterministic contract
/// (`dispatch.max_queue_depth` becomes a sum of per-segment maxima, which
/// is documented and acceptable there).
///
/// # Errors
///
/// [`PimError::Checkpoint`] when a checkpointed value would overflow its
/// counter.
fn fold_base(
    base_counters: &BTreeMap<String, u64>,
    base_host: &BTreeMap<String, u64>,
    snap: &mut MetricsSnapshot,
) -> Result<()> {
    fn add(into: &mut BTreeMap<String, u64>, key: &str, value: u64) -> Result<()> {
        let slot = into.entry(key.to_string()).or_insert(0);
        *slot = slot.checked_add(value).ok_or_else(|| PimError::Checkpoint {
            reason: format!("checkpointed metric `{key}` overflows 64 bits"),
        })?;
        Ok(())
    }
    for (key, value) in base_counters {
        if !key.starts_with("total.") {
            add(&mut snap.counters, key, *value)?;
        }
    }
    for (key, value) in base_host {
        add(&mut snap.host, key, *value)?;
    }
    Ok(())
}

/// The session's metrics snapshot: the controller's, with the dispatcher's
/// counters and the span counts in the host section and the checkpointed
/// base folded in. `None` while metrics are off.
///
/// # Errors
///
/// As [`fold_base`].
fn session_snapshot(
    ctrl: &mut Controller,
    dispatcher: &ParallelDispatcher,
    spans: Option<&SpanRecorder>,
    base_counters: &BTreeMap<String, u64>,
    base_host: &BTreeMap<String, u64>,
) -> Result<Option<MetricsSnapshot>> {
    let Some(mut snap) = ctrl.metrics_snapshot() else { return Ok(None) };
    // Dispatcher batch counts depend on how the stream was chunked, so
    // all dispatch telemetry lives in the host section, outside the
    // worker- and chunk-invariant contract.
    for (name, value) in dispatcher.metrics().deterministic_counters() {
        snap.host.insert(format!("dispatch.{name}"), value);
    }
    for (name, value) in dispatcher.metrics().host_counters() {
        snap.host.insert(format!("dispatch.{name}"), value);
    }
    if let Some(spans) = spans {
        snap.host.insert("spans.recorded".to_string(), spans.len() as u64);
        snap.host.insert("spans.dropped".to_string(), spans.dropped());
    }
    fold_base(base_counters, base_host, &mut snap)?;
    Ok(Some(snap))
}

/// The largest merged command, latency (ps) or energy (fJ) total a
/// restored checkpoint may carry. The resumed run keeps charging on top of
/// it, and the ledgers' cross-class totals are plain sums, so the other
/// half of the range is the run's headroom: a streamed assembly's energy
/// per k-mer, scaled to chromosome 14's ≈3.9 G k-mers, is ≈1.5e17 fJ,
/// about 60× below the ceiling.
const RESTORED_LEDGER_CEILING: u64 = u64::MAX / 2;

/// Whether `later` holds at least `earlier`'s totals in every class — true
/// of any two cumulative ledger snapshots of one run, in that order.
fn ledger_at_least(later: &EnergyLedger, earlier: &EnergyLedger) -> bool {
    COMMAND_CLASSES.iter().all(|&class| {
        let (a, b) = (earlier.class(class), later.class(class));
        a.count <= b.count && a.time_ps <= b.time_ps && a.energy_fj <= b.energy_fj
    })
}

/// Where a session currently stands.
enum Phase {
    /// Streaming reads into the hashmap stage.
    Ingest(HashmapExec),
    /// Hashmap sealed; the graph stage runs next.
    GraphPending(PimHashTable),
    /// Graph built (and simplified); the traverse stage runs next.
    TraversePending(Box<TraverseExec>),
    /// The run completed (or the session was consumed).
    Finished,
}

/// A resumable, streaming, checkpointable assembly run.
///
/// A session borrows a [`PimAssembler`] for its lifetime and advances the
/// pipeline's stage executors chunk by chunk:
///
/// 1. [`Session::start`] (or [`Session::resume`] from disk),
/// 2. [`Session::feed`] for each chunk of reads,
/// 3. [`Session::seal`] once the stream ends,
/// 4. [`Session::finish`] to run the remaining stages and build the
///    [`PimRun`].
///
/// [`Session::run`] does steps 2–4 over an in-memory read set.
///
/// When constructed with a checkpoint directory, the session persists a
/// [`StageCheckpoint`] after every chunk and at every stage boundary. A
/// chunk's checkpoint is a journal record of what the chunk changed,
/// appended to the file; the whole checkpoint is rewritten as a snapshot
/// (atomically — a kill mid-write leaves the previous file valid) at
/// [`Session::start`], at every stage boundary, as the first write after
/// a resume, and when the journal would outgrow the table (see
/// [`crate::checkpoint`]).
/// Accounting is checkpointed as exact integer [`EnergyLedger`]s and
/// restored via [`Controller::restore_accounting`]; device state is
/// restored through the contexts' uncharged debug view; deterministic
/// metrics are folded across segments. The result is byte-identical to an
/// uninterrupted one-shot run.
pub struct Session<'a> {
    asm: &'a mut PimAssembler,
    dir: Option<PathBuf>,
    phase: Phase,
    /// Reads the loaded checkpoint already covers; `feed` skips them.
    skip_reads: u64,
    total_reads: u64,
    read_len: Option<usize>,
    kmer_count: u64,
    hash_stats: Option<HashStats>,
    /// Cumulative ledger at the hashmap/graph boundary.
    s1: Option<EnergyLedger>,
    /// Cumulative ledger at the graph/traverse boundary.
    s2: Option<EnergyLedger>,
    bound: ChunkAapBound,
    violations: Vec<String>,
    base_counters: BTreeMap<String, u64>,
    base_host: BTreeMap<String, u64>,
    span_t0: Option<u64>,
    journal: Journal,
}

/// What the session's checkpoint file holds past its last snapshot.
#[derive(Debug, Default)]
struct Journal {
    /// Records appended after the snapshot this session last wrote;
    /// `None` until one lands (at start, after a resume, or after a
    /// failed write), so the next write is a snapshot.
    records: Option<u64>,
    /// Hash entries those records hold.
    entries: u64,
    /// Each sub-array's ledger (by linear index) as the file last
    /// recorded it.
    ledgers: BTreeMap<usize, EnergyLedger>,
}

impl<'a> Session<'a> {
    /// Starts a fresh session, optionally checkpointing into
    /// `checkpoint_dir` (prepare it with
    /// [`crate::checkpoint::prepare_dir`] first).
    ///
    /// # Errors
    ///
    /// [`PimError::Checkpoint`] when fault injection is armed and a
    /// checkpoint directory is requested — flip streams are not
    /// serializable, so checkpointed runs must be fault-free.
    pub fn start(asm: &'a mut PimAssembler, checkpoint_dir: Option<PathBuf>) -> Result<Self> {
        if checkpoint_dir.is_some() && asm.ctrl.fault_config().is_some() {
            return Err(PimError::Checkpoint {
                reason: "fault injection cannot be checkpointed (sense-amp flip streams are not \
                         serializable); run without --checkpoint-dir"
                    .into(),
            });
        }
        asm.ctrl.take_stats();
        asm.dispatcher.metrics().reset();
        asm.ctrl.set_stage(Stage::Hashmap);
        let span_t0 = asm.spans.as_deref().map(SpanRecorder::now_ns);
        let exec = HashmapExec::new(&asm.config);
        let bound = hashmap_chunk_aap_bound(asm.config.geometry.cols);
        let mut session = Session {
            asm,
            dir: checkpoint_dir,
            phase: Phase::Ingest(exec),
            skip_reads: 0,
            total_reads: 0,
            read_len: None,
            kmer_count: 0,
            hash_stats: None,
            s1: None,
            s2: None,
            bound,
            violations: Vec::new(),
            base_counters: BTreeMap::new(),
            base_host: BTreeMap::new(),
            span_t0,
            journal: Journal::default(),
        };
        // Persist an empty cursor immediately so a run killed before the
        // first chunk lands is still resumable.
        session.write_checkpoint("hashmap", 0)?;
        Ok(session)
    }

    /// Reconstructs an interrupted session from the checkpoint in `dir`.
    ///
    /// Device state is rebuilt through the contexts' uncharged debug view,
    /// exact accounting is restored with [`Controller::restore_accounting`],
    /// and checkpointed metrics become the fold base for the final snapshot.
    /// The caller then re-feeds the *same* read stream; reads the cursor
    /// already covers are skipped without charging.
    ///
    /// # Errors
    ///
    /// [`PimError::Checkpoint`] when no checkpoint exists, its
    /// configuration fingerprint differs, the run already completed, or
    /// fault injection is armed.
    pub fn resume(asm: &'a mut PimAssembler, dir: &Path) -> Result<Self> {
        let cp = StageCheckpoint::load(dir)?;
        cp.verify_fingerprint(&asm.config.fingerprint())?;
        if asm.ctrl.fault_config().is_some() {
            return Err(PimError::Checkpoint {
                reason: "fault injection cannot be resumed (sense-amp flip streams are not \
                         serializable)"
                    .into(),
            });
        }
        asm.ctrl.take_stats();
        asm.dispatcher.metrics().reset();
        let geometry = asm.config.geometry;
        let (phase, skip_reads, total_reads, s1, s2, hash_stats, kmer_count) = {
            let PimAssembler { config, ctrl, .. } = &mut *asm;
            match cp.stage.as_str() {
                "hashmap" => {
                    let exec = HashmapExec::restore(ctrl, config, &cp)?;
                    let kmer_count = exec.kmer_count();
                    (Phase::Ingest(exec), cp.cursor, cp.cursor, None, None, None, kmer_count)
                }
                "graph" => {
                    let exec = HashmapExec::restore(ctrl, config, &cp)?;
                    let hash_stats = Some(*exec.table().stats());
                    let kmer_count = exec.kmer_count();
                    let table = exec.into_table();
                    let s1 = cp.ledger("s1")?;
                    (
                        Phase::GraphPending(table),
                        0,
                        cp.cursor,
                        Some(s1),
                        None,
                        hash_stats,
                        kmer_count,
                    )
                }
                "traverse" => {
                    let block = cp.lists.get("graph").ok_or_else(|| PimError::Checkpoint {
                        reason: "traverse checkpoint is missing the graph survivor list".into(),
                    })?;
                    let survivors = GraphStage::parse_survivors(block, config.k)?;
                    let f = config.geometry.cols.min(config.geometry.rows);
                    let (graph, partitioning) =
                        GraphStage::rebuild(&survivors, partition_intervals(&config.geometry), f);
                    let (graph, partitioning, _) = simplify_graph(config, graph, partitioning);
                    let graph_stats = GraphStats {
                        scanned: cp.field("graph.scanned"),
                        edges_inserted: cp.field("graph.edges_inserted"),
                        mem_inserts: cp.field("graph.mem_inserts"),
                    };
                    let hash_stats = Some(HashStats::load(&cp, "hash"));
                    let exec = TraverseExec::new(
                        graph,
                        partitioning,
                        graph_stats,
                        survivors,
                        aux_subarray(config, 1),
                        aux_subarray(config, 2),
                    );
                    (
                        Phase::TraversePending(Box::new(exec)),
                        0,
                        cp.field("total_reads"),
                        Some(cp.ledger("s1")?),
                        Some(cp.ledger("s2")?),
                        hash_stats,
                        cp.field("kmer_count"),
                    )
                }
                "done" => {
                    return Err(PimError::Checkpoint {
                        reason: "checkpoint marks a completed run; nothing to resume".into(),
                    })
                }
                other => {
                    return Err(PimError::Checkpoint {
                        reason: format!("unknown checkpoint stage `{other}`"),
                    })
                }
            }
        };
        let global = cp.ledger("global")?;
        let total_subarrays = geometry.total_subarrays();
        let mut subs = Vec::new();
        for (name, ledger) in &cp.ledgers {
            if let Some(idx) = name.strip_prefix("sub.") {
                let bad = || PimError::Checkpoint {
                    reason: format!("bad sub-array ledger `{name}` (of {total_subarrays})"),
                };
                let idx: usize = idx.parse().map_err(|_| bad())?;
                if idx >= total_subarrays {
                    return Err(bad());
                }
                subs.push((SubarrayId::from_linear_index(&geometry, idx), *ledger));
            }
        }
        // Every checkpointed ledger is a charge history under this
        // configuration's cost table: a count edited apart from its
        // latency and energy would make the report's command counts, and
        // the scheduler's per-sub-array average latencies, disagree with
        // the device time and energy it reports.
        let costs = *asm.ctrl.costs();
        let uncharged = cp.ledgers.iter().find(|(_, l)| !l.is_charged_at(&costs));
        if let Some((name, _)) = uncharged {
            return Err(PimError::Checkpoint {
                reason: format!("ledger `{name}` is not a charge history at this cost table"),
            });
        }
        // Untrusted integers: every total the restored accounting derives
        // (per class and across classes) must stay representable, and the
        // merged totals must leave the resumed run room to keep charging.
        let mut ledgers = std::iter::once(&global).chain(subs.iter().map(|(_, l)| l));
        let Some(total) = ledgers.try_fold(EnergyLedger::default(), |t, l| t.checked_merge(l))
        else {
            return Err(PimError::Checkpoint { reason: "ledger totals overflow 64 bits".into() });
        };
        for (what, value) in [
            ("command count", total.total_commands()),
            ("latency (ps)", total.total_time_ps()),
            ("energy (fJ)", total.total_energy_fj()),
        ] {
            if value > RESTORED_LEDGER_CEILING {
                return Err(PimError::Checkpoint {
                    reason: format!(
                        "restored ledgers' total {what} {value} exceeds the ceiling \
                         {RESTORED_LEDGER_CEILING}"
                    ),
                });
            }
        }
        // `finish` takes each stage's delta as the difference of
        // consecutive boundaries, so they must be cumulative: s1 ≤ s2 ≤
        // the restored total, per class (which also keeps the boundaries'
        // own totals representable).
        let boundaries: Vec<EnergyLedger> = [s1, s2, Some(total)].into_iter().flatten().collect();
        if boundaries.windows(2).any(|w| !ledger_at_least(&w[1], &w[0])) {
            return Err(PimError::Checkpoint {
                reason: "stage-boundary ledgers out of order (need s1 <= s2 <= total)".into(),
            });
        }
        asm.ctrl.restore_accounting(global, &subs)?;
        asm.ctrl.set_stage(match &phase {
            Phase::Ingest(_) => Stage::Hashmap,
            Phase::GraphPending(_) => Stage::Graph,
            Phase::TraversePending(_) | Phase::Finished => Stage::Traverse,
        });
        let span_t0 = asm.spans.as_deref().map(SpanRecorder::now_ns);
        let bound = hashmap_chunk_aap_bound(asm.config.geometry.cols);
        let read_len = cp.field("read_len");
        Ok(Session {
            asm,
            dir: Some(dir.to_path_buf()),
            phase,
            skip_reads,
            total_reads,
            read_len: (read_len > 0).then_some(read_len as usize),
            kmer_count,
            hash_stats,
            s1,
            s2,
            bound,
            violations: Vec::new(),
            base_counters: cp.counters.clone(),
            base_host: cp.host.clone(),
            span_t0,
            journal: Journal::default(),
        })
    }

    /// Feeds one chunk of reads into the hashmap stage. On a resumed
    /// session the reads the checkpoint already covers are skipped
    /// without charging; after the hashmap stage sealed (a session
    /// resumed at a later stage) feeding is a no-op — the checkpoint
    /// already contains the whole stream.
    ///
    /// # Errors
    ///
    /// Hash-stage execution errors and checkpoint I/O failures.
    pub fn feed(&mut self, reads: &[Read]) -> Result<()> {
        if !matches!(self.phase, Phase::Ingest(_)) {
            return Ok(());
        }
        if self.read_len.is_none() {
            self.read_len = reads.first().map(|r| r.seq.len());
        }
        let mut reads = reads;
        if self.skip_reads > 0 {
            let n = usize::try_from(self.skip_reads).unwrap_or(usize::MAX).min(reads.len());
            self.skip_reads -= n as u64;
            reads = &reads[n..];
        }
        if reads.is_empty() {
            return Ok(());
        }
        let chunked = self.asm.config.chunk_reads.is_some();
        {
            let PimAssembler { ctrl, dispatcher, spans, .. } = &mut *self.asm;
            let Phase::Ingest(exec) = &mut self.phase else { unreachable!() };
            let t0 = chunked.then(|| spans.as_deref().map(SpanRecorder::now_ns)).flatten();
            let before = *ctrl.ledger();
            let offered = exec.feed(ctrl, dispatcher, reads)?;
            let delta = ctrl.ledger().since(&before);
            if let Some(violation) = self.bound.check(&delta, offered) {
                self.violations.push(violation);
            }
            if let (Some(spans), Some(t0)) = (spans.as_deref(), t0) {
                spans.record("stage.hashmap.chunk", "stage", 0, t0, offered);
            }
            self.total_reads = exec.reads_consumed();
        }
        self.write_checkpoint("hashmap", self.total_reads)
    }

    /// Feeds `reads` in [`PimAssemblerConfig::chunk_reads`] chunks (one
    /// chunk when unset), then seals and finishes the run. On a resumed
    /// session pass the *same* read stream as the original run: the reads
    /// the checkpoint covers are skipped.
    ///
    /// # Errors
    ///
    /// Everything [`Session::feed`] and [`Session::finish`] return.
    pub fn run(mut self, reads: &[Read]) -> Result<PimRun> {
        let chunk = self.asm.config.chunk_reads.unwrap_or(reads.len()).max(1);
        for c in reads.chunks(chunk) {
            self.feed(c)?;
        }
        self.finish()
    }

    /// Seals the read stream: finalizes the hashmap stage, captures the
    /// stage-1 boundary, and writes the `stage = graph` checkpoint. A
    /// no-op when the session is already past ingestion.
    ///
    /// # Errors
    ///
    /// Checkpoint I/O failures.
    pub fn seal(&mut self) -> Result<()> {
        if !matches!(self.phase, Phase::Ingest(_)) {
            return Ok(());
        }
        {
            let Phase::Ingest(exec) = &self.phase else { unreachable!() };
            self.total_reads = exec.reads_consumed();
            self.kmer_count = exec.kmer_count();
            self.hash_stats = Some(*exec.table().stats());
        }
        self.s1 = Some(*self.asm.ctrl.ledger());
        if let (Some(spans), Some(t0)) = (self.asm.spans.as_deref(), self.span_t0) {
            spans.record("stage.hashmap", "stage", 0, t0, self.kmer_count);
        }
        self.write_checkpoint("graph", self.total_reads)?;
        let phase = std::mem::replace(&mut self.phase, Phase::Finished);
        let Phase::Ingest(exec) = phase else { unreachable!() };
        self.phase = Phase::GraphPending(exec.into_table());
        Ok(())
    }

    /// Per-chunk AAP budget violations recorded so far (also carried on
    /// the finished [`PimRun`]).
    pub fn chunk_violations(&self) -> &[String] {
        &self.violations
    }

    /// The memory controller the session drives (inspection between
    /// stages, e.g. ledger conservation at a stage boundary).
    pub fn controller(&self) -> &Controller {
        &self.asm.ctrl
    }

    /// Runs the graph stage if it is pending, writing the
    /// `stage = traverse` checkpoint at its boundary. A no-op at any
    /// other phase; [`Session::finish`] calls this itself, but exposing
    /// the step lets callers (and the resume suite) stop a run between
    /// the graph and traverse stages.
    ///
    /// # Errors
    ///
    /// Graph-stage execution errors and checkpoint I/O failures.
    pub fn advance_graph(&mut self) -> Result<()> {
        // ── Stage 2: graph construction (DeBruijn) ─────────────────────
        if matches!(self.phase, Phase::GraphPending(_)) {
            let phase = std::mem::replace(&mut self.phase, Phase::Finished);
            let Phase::GraphPending(table) = phase else { unreachable!() };
            let next = {
                let PimAssembler { config, ctrl, dispatcher, spans } = &mut *self.asm;
                ctrl.set_stage(Stage::Graph);
                let stage_start = spans.as_deref().map(SpanRecorder::now_ns);
                let (graph, partitioning, graph_stats, survivors) = GraphStage::build(
                    ctrl,
                    dispatcher,
                    &table,
                    config.min_count,
                    aux_subarray(config, 0),
                    partition_intervals(&config.geometry),
                )?;
                let (graph, partitioning, dropped) = simplify_graph(config, graph, partitioning);
                // Each dropped edge is a DPU decision plus an invalidating
                // row touch in the graph region.
                ctrl.dpu_ops(dropped);
                ctrl.record_synthetic(CommandClass::Aap, dropped);
                self.s2 = Some(*ctrl.ledger());
                if let (Some(spans), Some(t0)) = (spans.as_deref(), stage_start) {
                    spans.record("stage.debruijn", "stage", 0, t0, graph.edge_count() as u64);
                }
                TraverseExec::new(
                    graph,
                    partitioning,
                    graph_stats,
                    survivors,
                    aux_subarray(config, 1),
                    aux_subarray(config, 2),
                )
            };
            self.phase = Phase::TraversePending(Box::new(next));
            self.write_checkpoint("traverse", 0)?;
        }
        Ok(())
    }

    /// Runs the remaining stages and builds the [`PimRun`]. Seals the
    /// stream first if the caller did not.
    ///
    /// # Errors
    ///
    /// Stage execution errors, checkpoint I/O failures, and
    /// [`PimError::Checkpoint`] when the session already finished.
    pub fn finish(mut self) -> Result<PimRun> {
        self.seal()?;
        self.advance_graph()?;

        // ── Stage 3: traversal (Traverse) ──────────────────────────────
        let phase = std::mem::replace(&mut self.phase, Phase::Finished);
        let Phase::TraversePending(texec) = phase else {
            return Err(PimError::Checkpoint { reason: "session already finished".into() });
        };
        let missing = |what: &str| PimError::Checkpoint {
            reason: format!("session is missing the {what} boundary"),
        };
        let s1_ledger = self.s1.ok_or_else(|| missing("stage-1"))?;
        let s2_ledger = self.s2.ok_or_else(|| missing("stage-2"))?;
        let hash_stats = self.hash_stats.ok_or_else(|| missing("hashmap statistics"))?;
        let run = {
            let PimAssembler { config, ctrl, dispatcher, spans } = &mut *self.asm;
            ctrl.set_stage(Stage::Traverse);
            let stage_start = spans.as_deref().map(SpanRecorder::now_ns);
            let TraverseArtifact {
                trails,
                stats: traverse_stats,
                graph,
                partitioning,
                graph_stats,
            } = texec.run(ctrl, dispatcher)?;
            let stages = [s1_ledger, s2_ledger.since(&s1_ledger), ctrl.ledger().since(&s2_ledger)];
            if let (Some(spans), Some(t0)) = (spans.as_deref(), stage_start) {
                spans.record("stage.traverse", "stage", 0, t0, trails.len() as u64);
            }

            // Contig spelling (host-side, as in the paper — stage 3 output).
            let k = config.k;
            let contigs: Vec<Contig> = trails
                .iter()
                .map(|t| Contig::from_trail(&graph, t))
                .filter(|c| c.len() >= k)
                .collect();

            let assembly = Assembly {
                stats: AssemblyStats::from_contigs(&contigs),
                contigs,
                distinct_kmers: graph_stats.edges_inserted as usize,
                total_kmers: hash_stats.inserted_total,
                hash_probes: hash_stats.probes,
                graph_nodes: graph.node_count(),
                graph_edges: graph.edge_count(),
                trails: trails.len(),
            };

            let workload = AssemblyWorkload::from_measured(
                k,
                self.total_reads,
                self.read_len.unwrap_or(0),
                hash_stats.inserted_total,
                hash_stats.distinct,
                graph.node_count() as u64,
                graph.edge_count() as u64,
                if hash_stats.inserted_total > 0 {
                    (hash_stats.probes as f64 / hash_stats.inserted_total as f64).max(1.0)
                } else {
                    1.0
                },
            );
            // Ground-truth parallelism: schedule the measured per-sub-array
            // traffic under the shared command bus (three DDR commands per
            // issue) and attach the effective parallelism it achieves.
            let queues = pim_dram::schedule::queues_from_totals(&ctrl.subarray_command_totals());
            let sched = pim_dram::schedule::schedule(&queues, 3.0 * config.timing.t_ck_ns);
            let mut report = PerfReport::new(config, stages, workload)
                .with_measured_parallelism(sched.effective_parallelism);
            let (counters, host) = (&self.base_counters, &self.base_host);
            if let Some(mut snap) =
                session_snapshot(ctrl, dispatcher, spans.as_deref(), counters, host)?
            {
                snap.floats.insert("measured_parallelism".to_string(), sched.effective_parallelism);
                report = report.with_metrics(snap);
            }

            PimRun {
                assembly,
                report,
                hash_stats,
                graph_stats,
                traverse_stats,
                partitioning,
                chunk_violations: self.violations.clone(),
            }
        };
        self.write_checkpoint("done", 0)?;
        Ok(run)
    }

    /// Writes the session checkpoint for `stage` at `cursor` when a
    /// checkpoint directory is configured: a journal record of what
    /// changed since the file's last write while ingesting, unless a
    /// snapshot is due or the journal's hash entries would then outnumber
    /// the table's, and a snapshot otherwise. So a resume reads at most a
    /// snapshot plus one table's worth of records.
    fn write_checkpoint(&mut self, stage: &str, cursor: u64) -> Result<()> {
        let Some(dir) = self.dir.clone() else { return Ok(()) };
        let journal = &mut self.journal;
        // Taken until the write lands: a failed write leaves a snapshot due.
        let seq = match (&self.phase, journal.records.take()) {
            (Phase::Ingest(exec), Some(records))
                if stage == "hashmap"
                    && journal.entries + exec.changed_entries()
                        <= exec.table().stats().distinct =>
            {
                journal.entries += exec.changed_entries();
                Some(records + 1)
            }
            _ => {
                journal.entries = 0;
                None
            }
        };
        let fingerprint = self.asm.config.fingerprint();
        let mut cp = StageCheckpoint::new(&fingerprint, stage, cursor);
        {
            let PimAssembler { config, ctrl, dispatcher, spans } = &mut *self.asm;
            match &mut self.phase {
                Phase::Ingest(exec) => exec.save(ctrl, &mut cp, seq.is_some())?,
                Phase::TraversePending(exec) => {
                    exec.save(&mut cp);
                    if let Some(hs) = &self.hash_stats {
                        hs.save(&mut cp, "hash");
                    }
                    cp.fields.insert("kmer_count".into(), self.kmer_count);
                }
                Phase::GraphPending(_) | Phase::Finished => {}
            }
            if let Some(read_len) = self.read_len {
                cp.fields.insert("read_len".into(), read_len as u64);
            }
            cp.fields.insert("total_reads".into(), self.total_reads);
            cp.ledgers.insert("global".into(), *ctrl.global_ledger());
            // A record carries the sub-array ledgers that moved since the
            // file last recorded them; a snapshot carries them all.
            for id in ctrl.touched_subarrays() {
                let linear = id.linear_index(&config.geometry);
                let ledger = *ctrl.subarray_ledger(id).expect("touched implies attached");
                if self.journal.ledgers.insert(linear, ledger) != Some(ledger) || seq.is_none() {
                    cp.ledgers.insert(format!("sub.{linear}"), ledger);
                }
            }
            if let Some(s1) = self.s1 {
                cp.ledgers.insert("s1".into(), s1);
            }
            if let Some(s2) = self.s2 {
                cp.ledgers.insert("s2".into(), s2);
            }
            let (counters, host) = (&self.base_counters, &self.base_host);
            if let Some(mut snap) =
                session_snapshot(ctrl, dispatcher, spans.as_deref(), counters, host)?
            {
                // `total.*` counters are ledger-derived at render time;
                // the checkpoint stores only additive segment data.
                snap.counters.retain(|key, _| !key.starts_with("total."));
                cp.counters = snap.counters;
                cp.host = snap.host;
            }
        }
        match seq {
            Some(seq) => cp.append(&dir, seq)?,
            None => cp.save(&dir)?,
        }
        self.journal.records = Some(seq.unwrap_or(0));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::prepare_dir;
    use pim_genome::assemble::{AssemblyConfig, SoftwareAssembler};
    use pim_genome::reads::ReadSimulator;
    use pim_genome::sequence::DnaSequence;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn small_run(seed: u64, genome_len: usize, k: usize) -> (DnaSequence, PimRun) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let genome = DnaSequence::random(&mut rng, genome_len);
        let reads = ReadSimulator::new(60, 25.0).simulate(&genome, &mut rng);
        let mut asm = PimAssembler::new(PimAssemblerConfig::small_test(k));
        let run = asm.assemble(&reads).unwrap();
        (genome, run)
    }

    fn sim_reads(seed: u64, genome_len: usize) -> Vec<Read> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let genome = DnaSequence::random(&mut rng, genome_len);
        ReadSimulator::new(60, 25.0).simulate(&genome, &mut rng)
    }

    fn assert_same_run(a: &PimRun, b: &PimRun) {
        assert_eq!(a.assembly.contigs, b.assembly.contigs);
        assert_eq!(a.assembly.trails, b.assembly.trails);
        assert_eq!(a.report.commands, b.report.commands);
        assert_eq!(a.report.hashmap.commands, b.report.hashmap.commands);
        assert_eq!(a.report.debruijn.commands, b.report.debruijn.commands);
        assert_eq!(a.report.traverse.commands, b.report.traverse.commands);
        assert_eq!(a.report.measured_parallelism, b.report.measured_parallelism);
        assert_eq!(a.hash_stats, b.hash_stats);
        assert_eq!(a.graph_stats.edges_inserted, b.graph_stats.edges_inserted);
        assert_eq!(a.traverse_stats, b.traverse_stats);
        match (&a.report.metrics, &b.report.metrics) {
            (Some(ma), Some(mb)) => {
                assert_eq!(ma.counters, mb.counters, "deterministic counters diverged");
                assert_eq!(ma.floats, mb.floats, "deterministic floats diverged");
            }
            (None, None) => {}
            _ => panic!("one run has metrics, the other does not"),
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pim-session-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn recovers_most_of_the_genome() {
        let (genome, run) = small_run(1, 900, 15);
        let frac = pim_genome::stats::genome_fraction(&genome, &run.assembly.contigs, 15);
        assert!(frac > 0.97, "genome fraction {frac}");
    }

    #[test]
    fn matches_software_assembler_contig_set() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let genome = DnaSequence::random(&mut rng, 700);
        let reads = ReadSimulator::new(60, 25.0).simulate(&genome, &mut rng);
        let mut pim = PimAssembler::new(PimAssemblerConfig::small_test(15));
        let pim_run = pim.assemble(&reads).unwrap();
        let soft = SoftwareAssembler::new(AssemblyConfig::new(15)).assemble(&reads);
        // Identical k-mer spectra ⇒ identical graph sizes and total bases.
        assert_eq!(pim_run.assembly.distinct_kmers, soft.distinct_kmers);
        assert_eq!(pim_run.assembly.graph_nodes, soft.graph_nodes);
        assert_eq!(pim_run.assembly.graph_edges, soft.graph_edges);
        assert_eq!(pim_run.assembly.stats.total_length, soft.stats.total_length);
    }

    #[test]
    fn report_has_stage_breakdown() {
        let (_, run) = small_run(3, 500, 13);
        let r = &run.report;
        assert!(r.hashmap.wall_s > 0.0);
        assert!(r.debruijn.wall_s > 0.0);
        assert!(r.traverse.wall_s > 0.0);
        // Hashmap dominates (the paper's >80% claim for stages 1–2).
        assert!(r.hashmap.wall_s > r.traverse.wall_s);
        assert!(r.power_w > 0.0 && r.commands.total_energy_fj() > 0);
        assert!((0.0..=100.0).contains(&r.mbr_percent));
        // The scheduled ground truth is attached and shows real sub-array
        // overlap (the hash partition alone spans 8 sub-arrays).
        let measured = r.measured_parallelism.expect("pipeline attaches measured parallelism");
        assert!(measured >= 1.0, "measured parallelism {measured}");
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let genome = DnaSequence::random(&mut rng, 600);
        let reads = ReadSimulator::new(60, 20.0).simulate(&genome, &mut rng);
        let serial =
            PimAssembler::new(PimAssemblerConfig::small_test(13)).assemble(&reads).unwrap();
        let parallel = PimAssembler::new(PimAssemblerConfig::small_test(13).with_workers(4))
            .assemble(&reads)
            .unwrap();
        assert_eq!(serial.assembly.contigs, parallel.assembly.contigs);
        assert_eq!(serial.report.commands, parallel.report.commands);
        assert_eq!(serial.report.hashmap.commands, parallel.report.hashmap.commands);
        assert_eq!(serial.report.debruijn.commands, parallel.report.debruijn.commands);
        assert_eq!(serial.report.traverse.commands, parallel.report.traverse.commands);
        assert_eq!(serial.report.measured_parallelism, parallel.report.measured_parallelism);
    }

    #[test]
    fn workload_measures_probe_behaviour() {
        let (_, run) = small_run(4, 600, 13);
        let w = &run.report.workload;
        assert_eq!(w.k, 13);
        assert!(w.avg_probes_per_kmer >= 1.0);
        assert_eq!(w.total_kmers, run.hash_stats.inserted_total);
    }

    #[test]
    fn extrapolation_scales_to_seconds() {
        let (_, run) = small_run(5, 500, 16);
        let chr14 = run.report.extrapolate_chr14();
        assert!(chr14.total_s() > 1.0 && chr14.total_s() < 500.0, "{}", chr14.total_s());
    }

    #[test]
    fn simplification_prunes_noisy_graphs() {
        let mut rng = ChaCha8Rng::seed_from_u64(70);
        let genome = DnaSequence::random(&mut rng, 1000);
        let reads = ReadSimulator::new(70, 30.0).with_error_rate(0.003).simulate(&genome, &mut rng);
        let raw = PimAssembler::new(PimAssemblerConfig::small_test(15).with_hash_subarrays(16))
            .assemble(&reads)
            .unwrap();
        let clean = PimAssembler::new(
            PimAssemblerConfig::small_test(15).with_hash_subarrays(16).with_simplification(30),
        )
        .assemble(&reads)
        .unwrap();
        assert!(clean.assembly.graph_edges < raw.assembly.graph_edges);
        assert_eq!(clean.partitioning.total_edges(), clean.assembly.graph_edges);
        // Each clipped edge is charged one DPU decision and one AAP.
        let clipped = (raw.assembly.graph_edges - clean.assembly.graph_edges) as u64;
        for class in [CommandClass::Dpu, CommandClass::Aap] {
            let (with, without) = (&clean.report.debruijn.commands, &raw.report.debruijn.commands);
            assert_eq!(with.count(class) - without.count(class), clipped, "{class:?}");
        }
        let frac = pim_genome::stats::genome_fraction(&genome, &clean.assembly.contigs, 15);
        assert!(frac > 0.95, "fraction {frac}");
    }

    #[test]
    fn partitioning_is_reported() {
        let (_, run) = small_run(6, 500, 13);
        assert_eq!(run.partitioning.total_edges(), run.assembly.graph_edges);
    }

    #[test]
    fn streamed_chunks_match_the_one_shot_run() {
        let reads = sim_reads(21, 700);
        let base = PimAssemblerConfig::small_test(13).with_observability(true);
        let one_shot = PimAssembler::new(base).assemble(&reads).unwrap();
        for chunk in [1, 7, 64] {
            let streamed =
                PimAssembler::new(base.with_chunk_reads(chunk).unwrap()).assemble(&reads).unwrap();
            assert_same_run(&one_shot, &streamed);
            assert!(streamed.chunk_violations.is_empty(), "{:?}", streamed.chunk_violations);
        }
    }

    #[test]
    fn checkpointed_kill_and_resume_is_byte_identical() {
        let reads = sim_reads(22, 700);
        let config = PimAssemblerConfig::small_test(13).with_observability(true);
        let reference = PimAssembler::new(config).assemble(&reads).unwrap();

        // Ingest part of the stream, then "die" (drop the session).
        let dir = temp_dir("kill-resume");
        prepare_dir(&dir, false).unwrap();
        let streamed = config.with_chunk_reads(9).unwrap();
        {
            let mut asm = PimAssembler::new(streamed);
            let mut session = Session::start(&mut asm, Some(dir.clone())).unwrap();
            for chunk in reads.chunks(9).take(3) {
                session.feed(chunk).unwrap();
            }
        }
        // Resume on a *different* worker count: results are invariant.
        let mut asm = PimAssembler::new(streamed.with_workers(4));
        let resumed = Session::resume(&mut asm, &dir).unwrap().run(&reads).unwrap();
        assert_same_run(&reference, &resumed);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_rejects_mismatched_and_completed_checkpoints() {
        let reads = sim_reads(23, 500);
        let dir = temp_dir("reject");
        let config = PimAssemblerConfig::small_test(13).with_chunk_reads(16).unwrap();
        let mut asm = PimAssembler::new(config);
        let ckpt = prepare_dir(&dir, false).unwrap();
        let done = Session::start(&mut asm, Some(ckpt)).unwrap().run(&reads).unwrap();
        assert!(done.chunk_violations.is_empty());
        let resume = |config| match Session::resume(&mut PimAssembler::new(config), &dir) {
            Err(err) => err,
            Ok(_) => panic!("resume must be refused"),
        };
        // The finished run leaves a `done` checkpoint behind.
        let err = resume(config);
        assert!(err.to_string().contains("completed"), "{err}");
        // A different fingerprint (k) is refused outright.
        let err = resume(PimAssemblerConfig::small_test(15));
        assert!(err.to_string().contains("fingerprint"), "{err}");
        // Occupied directory without --force is refused for fresh runs.
        let err = prepare_dir(&dir, false).unwrap_err();
        assert!(matches!(err, PimError::CheckpointDirNotEmpty { .. }), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn overflowing_the_hash_partition_is_a_typed_error() {
        // 3000 bp at 10x holds more distinct k-mers than the k-mer region
        // of one sub-array: the run must fail with SubarrayFull, whose
        // message names the remedy, and never panic.
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let genome = DnaSequence::random(&mut rng, 3000);
        let reads = ReadSimulator::new(101, 10.0).simulate(&genome, &mut rng);
        let config = PimAssemblerConfig::paper(15).with_hash_subarrays(1);
        let err = PimAssembler::new(config).assemble(&reads).unwrap_err();
        assert!(matches!(err, PimError::SubarrayFull { subarray: 0, .. }), "{err}");
        assert!(err.to_string().contains("--subarrays"), "{err}");
    }

    #[test]
    fn checkpointing_forbids_fault_injection() {
        let dir = temp_dir("faults");
        prepare_dir(&dir, false).unwrap();
        let mut asm = PimAssembler::new(PimAssemblerConfig::small_test(13));
        asm.inject_faults(pim_dram::fault::FaultConfig::new(0.001, 42).unwrap());
        let err = match Session::start(&mut asm, Some(dir.clone())) {
            Err(err) => err,
            Ok(_) => panic!("fault-armed session must not checkpoint"),
        };
        assert!(err.to_string().contains("fault injection"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
