//! One benchmark run: a workload at one seed, measured for a time budget.
//!
//! A run generates the inputs, computes the reference outputs and the
//! expected device facts (all outside timing), then repeats passes until
//! the budget is spent. Untraced passes give the end-to-end metrics; with
//! tracing on, half the budget goes to traced passes, which give the
//! per-layer metrics.
//!
//! Host times are the fastest untraced pass (and the fastest set-up) of the
//! run: contention from the rest of the machine only ever adds time, so the
//! minimum is the estimate it disturbs least.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use pim_assembler::ir::{BackendKind, OptLevel};
use pim_assembler::template::{CompiledTemplate, Kernel, TemplateKey};
use pim_dram::geometry::DramGeometry;
use pim_dram::ledger::CommandClass;
use pim_obsv::MetricsSnapshot;

use crate::pass::{self, Detail, DeviceFacts, DispatchCounts, Failure, PassOut, WorkDir};
use crate::stats::{median, minimum, quantile, ratio};
use crate::trace::{ProgramSpans, Span, Tracer};
use crate::workload::{generate, reference, Inputs, Kind, Reference, Workload};

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// End-to-end metrics (untraced passes), in report order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("device_ms", "ms"),
    ("device_mj", "mJ"),
];

/// Per-layer metrics (traced passes), in report order. A metric of a
/// layer the workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("pipeline.start_s", "s"),
    ("pipeline.feed_s", "s"),
    ("pipeline.chunk_p50_ms", "ms"),
    ("pipeline.chunk_p90_ms", "ms"),
    ("pipeline.chunks", "count"),
    ("pipeline.graph_s", "s"),
    ("pipeline.finish_s", "s"),
    ("hashmap_stage.kmers", "count"),
    ("hashmap_stage.distinct", "count"),
    ("hashmap_stage.probes", "count"),
    ("hashmap_stage.probes_per_kmer", "ratio"),
    ("hashmap_stage.hit_ratio", "ratio"),
    ("hashmap_stage.ns_per_probe", "ns"),
    ("graph_stage.scanned", "count"),
    ("graph_stage.edges", "count"),
    ("traverse_stage.edges_walked", "count"),
    ("traverse_stage.dense", "count"),
    ("traverse_stage.self_s", "s"),
    ("dram.schedule_s", "s"),
    ("dram.queues", "count"),
    ("dram.commands", "count"),
    ("dram.rd", "count"),
    ("dram.wr", "count"),
    ("dram.aap", "count"),
    ("dram.aap2", "count"),
    ("dram.aap3", "count"),
    ("dram.dpu", "count"),
    ("dram.host_ns_per_cmd", "ns"),
    ("dram.hashmap_ms", "ms"),
    ("dram.debruijn_ms", "ms"),
    ("dram.traverse_ms", "ms"),
    ("dram.measured_parallelism", "ratio"),
    ("dispatch.batches", "count"),
    ("dispatch.partitions", "count"),
    ("dispatch.barrier_wait_s", "s"),
    ("dispatch.worker_skew", "ratio"),
    ("checkpoint.writes", "count"),
    ("checkpoint.peak_bytes", "bytes"),
    ("checkpoint.save_s", "s"),
    ("checkpoint.resume_s", "s"),
    ("mapping_stage.build_s", "s"),
    ("mapping_stage.feed_s", "s"),
    ("mapping_stage.reads", "count"),
    ("mapping_stage.candidates", "count"),
    ("mapping_stage.survivors", "count"),
    ("mapping_stage.dp_cells", "count"),
    ("mapping_stage.mapped", "count"),
    ("mapping_stage.filter_ratio", "ratio"),
    ("mapping_stage.ns_per_dp_cell", "ns"),
    ("template.compile_s", "s"),
    ("obsv.overhead_ratio", "ratio"),
    ("obsv.span_coverage", "ratio"),
];

/// How long and how to measure.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Measurement budget (s), split evenly between untraced and traced
    /// passes when tracing.
    pub seconds: f64,
    /// Run traced passes and report per-layer metrics.
    pub trace: bool,
    /// Scratch directory for checkpoints and replays.
    pub work_dir: PathBuf,
}

/// Everything one run measured.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Passes run (each is one operation).
    pub attempted: u64,
    /// Passes that returned an error or failed an output check.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// End-to-end metrics, from the untraced passes.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (empty unless traced).
    pub per_layer: Vec<Metric>,
    /// What ran: seed, input digest, configuration, host and revision.
    pub manifest: Vec<(&'static str, String)>,
    /// Chrome trace of the traced passes.
    pub trace_json: Option<String>,
    /// The program's metrics snapshot from the last traced pass.
    pub snapshot: Option<MetricsSnapshot>,
}

impl RunResult {
    /// Whether every pass ran and matched the reference.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Runs `workload` at `seed`.
pub fn run(workload: &Workload, seed: u64, opts: &RunOptions) -> RunResult {
    let inputs = generate(&workload.kind, seed);
    let reference = reference(&workload.kind, &inputs);
    run_with_reference(workload, seed, &inputs, &reference, opts)
}

/// Runs `workload` on given inputs, checking every pass against
/// `reference`.
pub fn run_with_reference(
    workload: &Workload,
    seed: u64,
    inputs: &Inputs,
    reference: &Reference,
    opts: &RunOptions,
) -> RunResult {
    let work = WorkDir(opts.work_dir.clone());
    // Expected device facts, outside timing. For mapping this also warms
    // the allocator; for assembly the one-shot run does.
    let expected = match &workload.kind {
        Kind::Assembly(spec) => pass::one_shot_facts(spec, &inputs.reads),
        Kind::Mapping(spec) => {
            pass::mapping(spec, inputs, &mut Tracer::new(false)).map(|o| o.facts)
        }
    };
    let mut tally = Tally::default();
    let budget = if opts.trace { opts.seconds / 2.0 } else { opts.seconds };

    // Only the untraced passes count towards peak RSS, not the reference
    // and expected-facts runs above (nor the heap they left free).
    reset_peak_rss();
    let mut off = Tracer::new(false);
    let untraced =
        measure(workload, inputs, reference, &expected, &work, &mut off, budget, &mut tally);
    let peak_rss_mb = peak_rss_kb() as f64 / 1024.0;

    let mut on = Tracer::new(opts.trace);
    let traced = if opts.trace {
        measure(workload, inputs, reference, &expected, &work, &mut on, budget, &mut tally)
    } else {
        Vec::new()
    };

    let walls: Vec<f64> = untraced.iter().map(|p| p.wall_s).collect();
    let setups: Vec<f64> = untraced.iter().flat_map(|p| p.setup_s.iter().copied()).collect();
    let facts = expected.as_ref().ok();
    let device_ms = facts.map_or(0.0, |f| f.device_ms);
    let device_mj = facts.map_or(0.0, DeviceFacts::device_mj);
    let end_to_end = table(
        &END_TO_END,
        &BTreeMap::from([
            ("wall_s", minimum(&walls)),
            ("setup_s", minimum(&setups)),
            ("peak_rss_mb", peak_rss_mb),
            ("device_ms", device_ms),
            ("device_mj", device_mj),
        ]),
    );

    let (fingerprint, opt_level, workers) = match &workload.kind {
        Kind::Assembly(s) => {
            let config = s.config(false);
            (config.fingerprint(), config.opt_level, s.workers)
        }
        Kind::Mapping(s) => (s.fingerprint(), pass::MAP_OPT, s.workers),
    };
    let mut per_layer = Vec::new();
    let mut trace_json = None;
    let mut snapshot = None;
    if opts.trace {
        let mut values = BTreeMap::new();
        for (name, _) in PER_LAYER {
            let samples: Vec<f64> =
                traced.iter().filter_map(|p| p.layer.get(name).copied()).collect();
            values.insert(name, median(&samples));
        }
        let chunk_ms: Vec<f64> = on
            .spans()
            .iter()
            .filter(|s| s.name == "pipeline.feed" && s.items > 0)
            .map(|s| s.secs() * 1e3)
            .collect();
        let traced_walls: Vec<f64> = traced.iter().map(|p| p.wall_s).collect();
        let commands = facts.map_or(0, |f| f.ledger.total_commands()) as f64;
        values.insert("pipeline.chunk_p50_ms", quantile(&chunk_ms, 0.5));
        values.insert("pipeline.chunk_p90_ms", quantile(&chunk_ms, 0.9));
        values.insert("dram.host_ns_per_cmd", ratio(minimum(&walls) * 1e9, commands));
        values.insert("obsv.overhead_ratio", ratio(minimum(&traced_walls), minimum(&walls)));
        values.insert("template.compile_s", replay_compile(&workload.kind, opt_level, &mut on));
        per_layer = table(&PER_LAYER, &values);
        let lanes: Vec<ProgramSpans> =
            traced.last().map(|p| p.program_spans.clone()).unwrap_or_default();
        trace_json = Some(on.to_chrome_json(&lanes));
        snapshot = traced.last().and_then(|p| p.snapshot.clone());
    }

    let manifest = vec![
        ("workload", workload.name.to_string()),
        ("seed", seed.to_string()),
        ("input_digest", format!("{:016x}", inputs.digest)),
        ("reads", inputs.reads.len().to_string()),
        ("config_fingerprint", fingerprint),
        ("backend", BackendKind::PimAssembler.name().to_string()),
        ("opt_level", opt_level.name().to_string()),
        ("workers", workers.to_string()),
        ("nproc", std::thread::available_parallelism().map_or(1, |n| n.get()).to_string()),
        ("git_rev", git_revision()),
        ("untraced_passes", untraced.len().to_string()),
        ("traced_passes", traced.len().to_string()),
    ];
    RunResult {
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        end_to_end,
        per_layer,
        manifest,
        trace_json,
        snapshot,
    }
}

/// A pass reduced to what the metrics need, so the run's memory does not
/// grow with the number of passes.
struct PassSummary {
    wall_s: f64,
    /// The pass's own set-up, then the set-up-only repetitions after it.
    setup_s: Vec<f64>,
    layer: BTreeMap<&'static str, f64>,
    snapshot: Option<MetricsSnapshot>,
    program_spans: Vec<ProgramSpans>,
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn fail(&mut self, failure: &Failure) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(failure.to_string());
        }
    }
}

/// Set-up-only repetitions after each untraced pass: set-up is short
/// (sub-millisecond to milliseconds), so it needs more samples than the
/// passes give.
const SETUP_REPEATS: usize = 4;

/// Passes run in each phase even when the budget is spent.
const MIN_PASSES: usize = 3;

#[allow(clippy::too_many_arguments)]
fn measure(
    workload: &Workload,
    inputs: &Inputs,
    reference: &Reference,
    expected: &Result<DeviceFacts, Failure>,
    work: &WorkDir,
    tracer: &mut Tracer,
    budget: f64,
    tally: &mut Tally,
) -> Vec<PassSummary> {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut ran = 0;
    while ran < MIN_PASSES || start.elapsed().as_secs_f64() < budget {
        ran += 1;
        let id = tally.attempted as u32;
        tally.attempted += 1;
        tracer.begin_pass(id);
        let (summary, verdict) = one_pass(workload, inputs, reference, expected, work, tracer, id);
        if let Err(failure) = verdict {
            tally.fail(&failure);
        }
        out.extend(summary);
    }
    // Only the last pass's program artifacts are kept.
    let n = out.len();
    for p in out.iter_mut().take(n.saturating_sub(1)) {
        p.snapshot = None;
        p.program_spans.clear();
    }
    out
}

/// Runs pass `id` and checks it. A pass that finished yields a summary
/// even when a check failed, since it still took its time.
fn one_pass(
    workload: &Workload,
    inputs: &Inputs,
    reference: &Reference,
    expected: &Result<DeviceFacts, Failure>,
    work: &WorkDir,
    tracer: &mut Tracer,
    id: u32,
) -> (Option<PassSummary>, Result<(), Failure>) {
    let result = match &workload.kind {
        Kind::Assembly(spec) => pass::assembly(spec, &inputs.reads, work, tracer),
        Kind::Mapping(spec) => pass::mapping(spec, inputs, tracer),
    };
    let mut pass_out = match result {
        Ok(pass_out) => pass_out,
        Err(failure) => return (None, Err(failure)),
    };
    let mut verdict = match expected {
        Ok(facts) => pass::check(&pass_out, reference, facts),
        Err(failure) => Err(failure.clone()),
    };
    let mut setup_s = vec![pass_out.setup_s];
    if !tracer.enabled() {
        for _ in 0..SETUP_REPEATS {
            match pass::setup_only(&workload.kind, inputs, work) {
                Ok(secs) => setup_s.push(secs),
                Err(failure) => verdict = verdict.and(Err(failure)),
            }
        }
    }
    for lane in &mut pass_out.program_spans {
        lane.pass = id;
    }
    let layer = if tracer.enabled() {
        let spans: Vec<Span> = tracer.spans().iter().filter(|s| s.pass == id).copied().collect();
        layer_values(&pass_out, &spans)
    } else {
        BTreeMap::new()
    };
    let summary = PassSummary {
        wall_s: pass_out.wall_s,
        setup_s,
        layer,
        snapshot: pass_out.snapshot.take(),
        program_spans: std::mem::take(&mut pass_out.program_spans),
    };
    (Some(summary), verdict)
}

/// Per-pass layer values from the pass's outputs and its spans.
fn layer_values(out: &PassOut, spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let total = |name: &str| spans.iter().filter(|s| s.name == name).map(Span::secs).sum::<f64>();
    let calls: f64 = spans.iter().filter(|s| !s.name.starts_with("replay.")).map(Span::secs).sum();
    let ledger = &out.facts.ledger;
    let count = |class| ledger.class(class).count as f64;
    let mut v = BTreeMap::from([
        ("dram.commands", ledger.total_commands() as f64),
        ("dram.rd", count(CommandClass::Read)),
        ("dram.wr", count(CommandClass::Write)),
        ("dram.aap", count(CommandClass::Aap)),
        ("dram.aap2", count(CommandClass::Aap2)),
        ("dram.aap3", count(CommandClass::Aap3)),
        ("dram.dpu", count(CommandClass::Dpu)),
        ("obsv.span_coverage", ratio(calls, out.wall_s)),
    ]);
    let dispatch = match &out.detail {
        Detail::Assembly { run, checkpoint, schedule } => {
            let feed_s = total("pipeline.feed");
            let finish_s = total("pipeline.finish");
            let (schedule_s, queues) = schedule.unwrap_or((0.0, 0));
            let h = &run.hash_stats;
            let r = &run.report;
            v.extend([
                ("pipeline.start_s", total("pipeline.start")),
                ("pipeline.feed_s", feed_s),
                (
                    "pipeline.chunks",
                    spans.iter().filter(|s| s.name == "pipeline.feed" && s.items > 0).count()
                        as f64,
                ),
                ("pipeline.graph_s", total("pipeline.seal") + total("pipeline.advance_graph")),
                ("pipeline.finish_s", finish_s),
                ("hashmap_stage.kmers", h.inserted_total as f64),
                ("hashmap_stage.distinct", h.distinct as f64),
                ("hashmap_stage.probes", h.probes as f64),
                ("hashmap_stage.probes_per_kmer", ratio(h.probes as f64, h.inserted_total as f64)),
                ("hashmap_stage.hit_ratio", ratio(h.hits as f64, h.probes as f64)),
                (
                    "hashmap_stage.ns_per_probe",
                    ratio((feed_s - checkpoint.save_s) * 1e9, h.probes as f64),
                ),
                ("graph_stage.scanned", run.graph_stats.scanned as f64),
                ("graph_stage.edges", run.graph_stats.edges_inserted as f64),
                ("traverse_stage.edges_walked", run.traverse_stats.edges_walked as f64),
                ("traverse_stage.dense", f64::from(u8::from(run.traverse_stats.dense_mapping))),
                // Floored at 0: where the traverse work is smaller than the
                // replay's own noise (asm-stream), the difference can dip below.
                ("traverse_stage.self_s", (finish_s - schedule_s).max(0.0)),
                ("dram.schedule_s", schedule_s),
                ("dram.queues", queues as f64),
                ("dram.hashmap_ms", r.hashmap.wall_s * 1e3),
                ("dram.debruijn_ms", r.debruijn.wall_s * 1e3),
                ("dram.traverse_ms", r.traverse.wall_s * 1e3),
                ("dram.measured_parallelism", r.measured_parallelism.unwrap_or(0.0)),
                ("checkpoint.writes", checkpoint.writes as f64),
                ("checkpoint.peak_bytes", checkpoint.peak_bytes as f64),
                ("checkpoint.save_s", checkpoint.save_s),
                ("checkpoint.resume_s", total("pipeline.resume")),
            ]);
            out.snapshot.as_ref().map(DispatchCounts::from_snapshot).unwrap_or_default()
        }
        Detail::Mapping { stats, dispatch, .. } => {
            let feed_s = total("mapping_stage.feed");
            v.extend([
                ("mapping_stage.build_s", total("mapping_stage.build")),
                ("mapping_stage.feed_s", feed_s),
                ("mapping_stage.reads", stats.reads as f64),
                ("mapping_stage.candidates", stats.candidates as f64),
                ("mapping_stage.survivors", stats.survivors as f64),
                ("mapping_stage.dp_cells", stats.dp_cells as f64),
                ("mapping_stage.mapped", stats.mapped as f64),
                (
                    "mapping_stage.filter_ratio",
                    ratio(stats.survivors as f64, stats.candidates as f64),
                ),
                ("mapping_stage.ns_per_dp_cell", ratio(feed_s * 1e9, stats.dp_cells as f64)),
            ]);
            dispatch.clone()
        }
    };
    v.extend([
        ("dispatch.batches", dispatch.batches as f64),
        ("dispatch.partitions", dispatch.partitions as f64),
        ("dispatch.barrier_wait_s", dispatch.barrier_wait_ns as f64 * 1e-9),
        ("dispatch.worker_skew", dispatch.worker_skew()),
    ]);
    v
}

/// Replays `CompiledTemplate::compile` for every kernel the workload
/// executes, bypassing any cache; the median of several rounds (s).
fn replay_compile(kind: &Kind, opt: OptLevel, tracer: &mut Tracer) -> f64 {
    let kernels: &[Kernel] = match kind {
        Kind::Assembly(_) => &[Kernel::Xnor, Kernel::FullAdder],
        Kind::Mapping(_) => &[Kernel::Xnor, Kernel::Popcount, Kernel::DpCell, Kernel::MinSelect],
    };
    let cols = DramGeometry::paper_assembly().cols;
    let rounds: Vec<f64> = (0..9)
        .map(|_| {
            let span = tracer.begin("replay.template");
            let t = Instant::now();
            for &kernel in kernels {
                let key = TemplateKey::new(kernel, cols, cols)
                    .with_backend(BackendKind::PimAssembler)
                    .with_opt(opt);
                std::hint::black_box(CompiledTemplate::compile(std::hint::black_box(key)));
            }
            let secs = t.elapsed().as_secs_f64();
            tracer.end(span, kernels.len() as u64);
            secs
        })
        .collect();
    median(&rounds)
}

fn table(
    names: &[(&'static str, &'static str)],
    values: &BTreeMap<&'static str, f64>,
) -> Vec<Metric> {
    names
        .iter()
        .map(|&(name, unit)| Metric { name, unit, value: values.get(name).copied().unwrap_or(0.0) })
        .collect()
}

/// Returns free heap to the kernel, then resets this process's peak
/// resident set (`VmHWM`) to its current resident set (Linux 4.0 and
/// later; a no-op where unavailable).
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` only returns free heap pages to the
        // kernel; it is safe to call at any time.
        unsafe {
            malloc_trim(0);
        }
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process (`VmHWM`, kB); 0 where unavailable.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// The checkout's git revision, read from `.git` in the working directory
/// without running git; `unknown` outside a git checkout.
pub fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}
