//! One pass of a workload: from the first program call (platform
//! construction) to the finished result.
//!
//! Untraced and traced passes run the same calls. A traced pass also turns
//! on the program's `pim-obsv` layer, records a span around every call,
//! and replays a few layer operations (checkpoint load and save, the
//! report's scheduler) to time them in isolation. Replays are spans named
//! `replay.*`; their time is excluded from the pass's wall time.

use std::path::PathBuf;
use std::time::Instant;

use pim_assembler::checkpoint::{prepare_dir, StageCheckpoint, CHECKPOINT_FILE};
use pim_assembler::dispatch::ParallelDispatcher;
use pim_assembler::ir::{BackendKind, OptLevel};
use pim_assembler::mapping::KmerMapper;
use pim_assembler::mapping_stage::{MapStats, MappingExec, MappingHit, PimReadMapper};
use pim_assembler::{PimAssembler, PimError, PimRun, Session};
use pim_dram::controller::Controller;
use pim_dram::geometry::DramGeometry;
use pim_dram::ledger::EnergyLedger;
use pim_dram::schedule::{queues_from_totals, schedule};
use pim_genome::reads::Read;
use pim_obsv::{MetricsSnapshot, Stage};

use crate::trace::{ProgramSpans, Tracer};
use crate::workload::{contig_multiset, AsmSpec, Inputs, Kind, MapSpec, Reference};

/// The modeled-device facts of a run. They are deterministic: every pass
/// of one input, traced or not, streamed or one-shot, must give the same.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceFacts {
    /// Modeled device time (ms): `PerfReport::total_wall_s` for assembly,
    /// the ledger's serial command time for mapping.
    pub device_ms: f64,
    /// The controller's integer ledger (per-class counts, ps and fJ).
    pub ledger: EnergyLedger,
    /// Schedule-measured sub-array parallelism (assembly only).
    pub measured_parallelism: Option<f64>,
}

impl DeviceFacts {
    fn of_assembly(run: &PimRun, asm: &PimAssembler) -> Self {
        DeviceFacts {
            device_ms: run.report.total_wall_s() * 1e3,
            ledger: *asm.controller().ledger(),
            measured_parallelism: run.report.measured_parallelism,
        }
    }

    /// Modeled energy (mJ) from the integer ledger.
    pub fn device_mj(&self) -> f64 {
        self.ledger.total_energy_fj() as f64 * 1e-12
    }
}

/// Observations of the checkpoint layer during one traced pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckpointObs {
    /// Distinct checkpoints written (each write moves stage or cursor).
    pub writes: u64,
    /// Largest checkpoint file seen (bytes).
    pub peak_bytes: u64,
    /// Σ replayed `StageCheckpoint::save` after each feed (s).
    pub save_s: f64,
    last: Option<(String, u64)>,
}

/// Host timings and outputs of one pass.
#[derive(Debug, Clone)]
pub struct PassOut {
    /// Host seconds from the first program call to the finished result,
    /// excluding replays.
    pub wall_s: f64,
    /// Host seconds from the first program call to ready-to-feed.
    pub setup_s: f64,
    /// Modeled-device facts.
    pub facts: DeviceFacts,
    /// What the layers did.
    pub detail: Detail,
    /// The program's metrics snapshot (traced passes).
    pub snapshot: Option<MetricsSnapshot>,
    /// The program's own spans, one lane per assembler (traced assembly
    /// passes; a resumed pass has two).
    pub program_spans: Vec<ProgramSpans>,
}

/// Workload-specific outputs and layer counters of a pass.
#[derive(Debug, Clone)]
pub enum Detail {
    /// An assembly pass.
    Assembly {
        /// The finished run.
        run: Box<PimRun>,
        /// Checkpoint-layer observations (traced, checkpointed passes).
        checkpoint: CheckpointObs,
        /// Replayed scheduler: (seconds, queues) (traced passes).
        schedule: Option<(f64, usize)>,
    },
    /// A mapping pass.
    Mapping {
        /// Per-read hits.
        hits: Vec<Option<MappingHit>>,
        /// Funnel statistics.
        stats: MapStats,
        /// Dispatcher counters: batches, partitions, barrier wait (ns),
        /// per-worker items.
        dispatch: DispatchCounts,
    },
}

/// Dispatcher counters read from the program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DispatchCounts {
    /// `run_partitions` batches.
    pub batches: u64,
    /// Partitions dispatched.
    pub partitions: u64,
    /// Front-end time blocked on pool barriers (ns).
    pub barrier_wait_ns: u64,
    /// Items each pool worker executed (empty when serial).
    pub worker_items: Vec<u64>,
}

impl DispatchCounts {
    /// Reads the `dispatch.*` keys of a metrics snapshot's host section.
    pub fn from_snapshot(snap: &MetricsSnapshot) -> Self {
        let get = |k: &str| snap.host.get(k).copied().unwrap_or(0);
        DispatchCounts {
            batches: get("dispatch.batches"),
            partitions: get("dispatch.partitions"),
            barrier_wait_ns: get("dispatch.barrier_wait_ns"),
            worker_items: snap
                .host
                .iter()
                .filter(|(k, _)| k.starts_with("dispatch.worker") && k.ends_with("_items"))
                .map(|(_, &v)| v)
                .collect(),
        }
    }

    fn from_dispatcher(d: &ParallelDispatcher) -> Self {
        let mut out = DispatchCounts::default();
        for (k, v) in d.metrics().deterministic_counters() {
            match k {
                "batches" => out.batches = v,
                "partitions" => out.partitions = v,
                _ => {}
            }
        }
        for (k, v) in d.metrics().host_counters() {
            if k == "barrier_wait_ns" {
                out.barrier_wait_ns = v;
            } else if k.starts_with("worker") {
                out.worker_items.push(v);
            }
        }
        out
    }

    /// Max / mean items per pool worker; 1 when the dispatch was serial.
    pub fn worker_skew(&self) -> f64 {
        if self.worker_items.is_empty() {
            return 1.0;
        }
        let max = *self.worker_items.iter().max().expect("non-empty") as f64;
        let mean = self.worker_items.iter().sum::<u64>() as f64 / self.worker_items.len() as f64;
        if mean > 0.0 {
            max / mean
        } else {
            1.0
        }
    }
}

/// Why a pass failed.
#[derive(Debug, Clone, PartialEq)]
pub enum Failure {
    /// A program call returned an error.
    Error(String),
    /// The pass finished but an output check failed.
    Check(String),
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Error(e) => write!(f, "program error: {e}"),
            Failure::Check(e) => write!(f, "output check: {e}"),
        }
    }
}

impl From<PimError> for Failure {
    fn from(e: PimError) -> Self {
        Failure::Error(e.to_string())
    }
}

fn io_err(what: &str, e: std::io::Error) -> Failure {
    Failure::Error(format!("{what}: {e}"))
}

/// Scratch directories of a pass (checkpoints and replays).
#[derive(Debug, Clone)]
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    fn fresh(&self, name: &str) -> Result<PathBuf, Failure> {
        let dir = self.0.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| io_err("clear work dir", e))?;
        }
        Ok(prepare_dir(&dir, false)?)
    }
}

/// Runs one assembly pass.
///
/// # Errors
///
/// The first program error, as a [`Failure`].
pub fn assembly(
    spec: &AsmSpec,
    reads: &[Read],
    work: &WorkDir,
    tracer: &mut Tracer,
) -> Result<PassOut, Failure> {
    let traced = tracer.enabled();
    let config = spec.config(traced);
    let chunks: Vec<&[Read]> = match spec.chunk_reads {
        Some(n) => reads.chunks(n).collect(),
        None => vec![reads],
    };
    let ckpt = if spec.kill_and_resume { Some(work.fresh("ckpt")?) } else { None };
    let replay_dir = if traced && ckpt.is_some() { Some(work.fresh("replay")?) } else { None };
    let mut obs = CheckpointObs::default();
    let mut replayed = 0.0;
    // Loads the checkpoint the last call wrote, counts it, and replays its
    // save (timed only after feeds).
    let mut replay = |tracer: &mut Tracer, after_feed: bool| -> Result<(), Failure> {
        let (Some(dir), Some(scratch)) = (ckpt.as_deref(), replay_dir.as_deref()) else {
            return Ok(());
        };
        let span = tracer.begin("replay.checkpoint");
        let t = Instant::now();
        let cp = StageCheckpoint::load(dir)?;
        let bytes = std::fs::metadata(dir.join(CHECKPOINT_FILE))
            .map_err(|e| io_err("stat checkpoint", e))?
            .len();
        let key = (cp.stage.clone(), cp.cursor);
        if obs.last.as_ref() != Some(&key) {
            obs.writes += 1;
            obs.last = Some(key);
        }
        obs.peak_bytes = obs.peak_bytes.max(bytes);
        let save = Instant::now();
        cp.save(scratch)?;
        if after_feed {
            obs.save_s += save.elapsed().as_secs_f64();
        }
        replayed += t.elapsed().as_secs_f64();
        tracer.end(span, bytes);
        Ok(())
    };

    let t0 = Instant::now();
    let t0_ns = tracer.now_ns();
    let span = tracer.begin("pipeline.start");
    let mut asm = PimAssembler::new(config);
    let mut session = Session::start(&mut asm, ckpt.clone())?;
    tracer.end(span, 0);
    let setup_s = t0.elapsed().as_secs_f64();
    replay(tracer, false)?;

    let mut program_offset = t0_ns;
    let mut program_spans = Vec::new();
    let (run, asm) = if spec.kill_and_resume {
        let dir = ckpt.clone().expect("kill_and_resume checkpoints");
        let mid = chunks.len() / 2;
        for chunk in &chunks[..mid] {
            feed(&mut session, chunk, true, tracer)?;
            replay(tracer, true)?;
        }
        let span = tracer.begin("pipeline.kill");
        drop(session);
        if let Some(rec) = asm.span_recorder() {
            program_spans.push(ProgramSpans { pass: 0, offset_ns: t0_ns, events: rec.events() });
        }
        drop(asm);
        tracer.end(span, mid as u64);
        let span = tracer.begin("pipeline.resume");
        program_offset = tracer.now_ns();
        let mut asm = PimAssembler::new(config);
        let mut session = Session::resume(&mut asm, &dir)?;
        tracer.end(span, 0);
        replay(tracer, false)?;
        for (i, chunk) in chunks.iter().enumerate() {
            feed(&mut session, chunk, i >= mid, tracer)?;
            if i >= mid {
                replay(tracer, true)?;
            }
        }
        let run = finish(session, tracer, &mut |t| replay(t, false))?;
        (run, asm)
    } else {
        for chunk in &chunks {
            feed(&mut session, chunk, true, tracer)?;
            replay(tracer, true)?;
        }
        let run = finish(session, tracer, &mut |t| replay(t, false))?;
        (run, asm)
    };
    let wall_s = t0.elapsed().as_secs_f64() - replayed;

    let facts = DeviceFacts::of_assembly(&run, &asm);
    let mut schedule_replay = None;
    if traced {
        let totals = asm.controller().subarray_command_totals();
        let span = tracer.begin("replay.schedule");
        let t = Instant::now();
        let queues = queues_from_totals(&totals);
        let sched = schedule(&queues, 3.0 * config.timing.t_ck_ns);
        let secs = t.elapsed().as_secs_f64();
        tracer.end(span, queues.len() as u64);
        if Some(sched.effective_parallelism) != run.report.measured_parallelism {
            return Err(Failure::Check("replayed schedule disagrees with the report".into()));
        }
        schedule_replay = Some((secs, queues.len()));
        if let Some(rec) = asm.span_recorder() {
            program_spans.push(ProgramSpans {
                pass: 0,
                offset_ns: program_offset,
                events: rec.events(),
            });
        }
    }
    let snapshot = run.report.metrics.clone();
    Ok(PassOut {
        wall_s,
        setup_s,
        facts,
        detail: Detail::Assembly { run: Box::new(run), checkpoint: obs, schedule: schedule_replay },
        snapshot,
        program_spans,
    })
}

fn feed(
    session: &mut Session<'_>,
    chunk: &[Read],
    ingests: bool,
    tracer: &mut Tracer,
) -> Result<(), Failure> {
    let span = tracer.begin("pipeline.feed");
    session.feed(chunk)?;
    tracer.end(span, if ingests { chunk.len() as u64 } else { 0 });
    Ok(())
}

fn finish(
    mut session: Session<'_>,
    tracer: &mut Tracer,
    replay: &mut dyn FnMut(&mut Tracer) -> Result<(), Failure>,
) -> Result<PimRun, Failure> {
    let span = tracer.begin("pipeline.seal");
    session.seal()?;
    tracer.end(span, 0);
    replay(tracer)?;
    let span = tracer.begin("pipeline.advance_graph");
    session.advance_graph()?;
    tracer.end(span, 0);
    replay(tracer)?;
    let span = tracer.begin("pipeline.finish");
    let run = session.finish()?;
    tracer.end(span, 0);
    replay(tracer)?;
    Ok(run)
}

/// Runs one mapping pass.
///
/// # Errors
///
/// The first program error, as a [`Failure`].
pub fn mapping(spec: &MapSpec, inputs: &Inputs, tracer: &mut Tracer) -> Result<PassOut, Failure> {
    let traced = tracer.enabled();
    let t0 = Instant::now();
    let span = tracer.begin("mapping_stage.build");
    let (mut ctrl, pim, dispatcher) = map_setup(spec, inputs, traced)?;
    tracer.end(span, 0);
    let setup_s = t0.elapsed().as_secs_f64();

    let span = tracer.begin("mapping_stage.feed");
    let mut exec = MappingExec::new(pim);
    exec.feed(&mut ctrl, &dispatcher, &inputs.reads)?;
    exec.seal();
    let (hits, stats) = exec.finish();
    tracer.end(span, inputs.reads.len() as u64);
    let wall_s = t0.elapsed().as_secs_f64();

    let ledger = *ctrl.ledger();
    let facts = DeviceFacts {
        device_ms: ledger.total_time_ps() as f64 * 1e-9,
        ledger,
        measured_parallelism: None,
    };
    Ok(PassOut {
        wall_s,
        setup_s,
        facts,
        detail: Detail::Mapping {
            hits,
            stats,
            dispatch: DispatchCounts::from_dispatcher(&dispatcher),
        },
        snapshot: if traced { ctrl.metrics_snapshot() } else { None },
        program_spans: Vec::new(),
    })
}

/// The optimisation level the mapping kernels compile at.
pub const MAP_OPT: OptLevel = OptLevel::O0;

/// The mapping set-up: a controller, the seed index built into it, and
/// the dispatcher.
fn map_setup(
    spec: &MapSpec,
    inputs: &Inputs,
    observe: bool,
) -> Result<(Controller, PimReadMapper, ParallelDispatcher), Failure> {
    let geometry = DramGeometry::paper_assembly();
    let backend = BackendKind::PimAssembler;
    let mut ctrl = Controller::with_profile(geometry, &backend.profile());
    if observe {
        ctrl.enable_metrics();
    }
    ctrl.set_stage(Stage::Mapping);
    let mapper = KmerMapper::new(&geometry, spec.subarrays, spec.bucket_rows);
    let pim = PimReadMapper::build(
        &mut ctrl,
        mapper,
        &inputs.genome,
        spec.read_len,
        spec.mapping(),
        backend,
        MAP_OPT,
    )?;
    Ok((ctrl, pim, ParallelDispatcher::with_workers(spec.workers)))
}

/// Host seconds of the set-up alone (the start of an untraced pass, then
/// dropped), so a run can sample set-up time more often than it passes.
///
/// # Errors
///
/// The first program error, as a [`Failure`].
pub fn setup_only(kind: &Kind, inputs: &Inputs, work: &WorkDir) -> Result<f64, Failure> {
    match kind {
        // The timing is taken before the set-up is dropped at block end.
        Kind::Assembly(spec) => {
            let ckpt = if spec.kill_and_resume { Some(work.fresh("ckpt")?) } else { None };
            let t0 = Instant::now();
            let mut asm = PimAssembler::new(spec.config(false));
            let _session = Session::start(&mut asm, ckpt)?;
            Ok(t0.elapsed().as_secs_f64())
        }
        Kind::Mapping(spec) => {
            let t0 = Instant::now();
            let _setup = map_setup(spec, inputs, false)?;
            Ok(t0.elapsed().as_secs_f64())
        }
    }
}

/// Checks a pass's outputs against the reference and the expected device
/// facts. Returns the first violated check.
pub fn check(out: &PassOut, reference: &Reference, expected: &DeviceFacts) -> Result<(), Failure> {
    let fail = |what: String| Err(Failure::Check(what));
    match (&out.detail, reference) {
        (Detail::Assembly { run, .. }, Reference::Contigs(contigs)) => {
            if contig_multiset(&run.assembly.contigs) != *contigs {
                return fail(format!(
                    "contigs differ from the software assembler ({} vs {} contigs)",
                    run.assembly.contigs.len(),
                    contigs.len()
                ));
            }
            if run.hash_stats.shadow_mismatches != 0 {
                return fail(format!(
                    "{} hash shadow mismatches",
                    run.hash_stats.shadow_mismatches
                ));
            }
            if !run.chunk_violations.is_empty() {
                return fail(format!("chunk budget violations: {:?}", run.chunk_violations));
            }
        }
        (Detail::Mapping { hits, stats, .. }, Reference::Hits(expected_hits)) => {
            if hits != expected_hits {
                return fail("hits differ from the software mapper".into());
            }
            if stats.shadow_mismatches != 0 {
                return fail(format!("{} mapping shadow mismatches", stats.shadow_mismatches));
            }
        }
        _ => return fail("reference kind does not match the workload".into()),
    }
    if out.facts != *expected {
        return fail(format!(
            "device facts changed: {} ms / {} fJ, expected {} ms / {} fJ",
            out.facts.device_ms,
            out.facts.ledger.total_energy_fj(),
            expected.device_ms,
            expected.ledger.total_energy_fj()
        ));
    }
    Ok(())
}

/// The device facts every pass of `spec` must reproduce, from a one-shot
/// `PimAssembler::assemble` of the same reads (one chunk, one worker, no
/// checkpoint): streamed, resumed and pooled runs must equal it byte for
/// byte.
///
/// # Errors
///
/// The program's error, as a [`Failure`].
pub fn one_shot_facts(spec: &AsmSpec, reads: &[Read]) -> Result<DeviceFacts, Failure> {
    let mut asm = PimAssembler::new(spec.one_shot_config());
    let run = asm.assemble(reads)?;
    Ok(DeviceFacts::of_assembly(&run, &asm))
}
