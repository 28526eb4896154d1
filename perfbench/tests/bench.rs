//! The benchmark checked at tiny input sizes: every workload runs, every
//! named metric is emitted with its unit, a wrong reference is counted as
//! a failed pass, and the deterministic metrics are identical traced and
//! untraced.

use std::path::PathBuf;

use pim_perfbench::pass::{self, WorkDir};
use pim_perfbench::report::result_line;
use pim_perfbench::run::{run, run_with_reference, RunOptions, END_TO_END, PER_LAYER};
use pim_perfbench::trace::Tracer;
use pim_perfbench::workload::{generate, reference, standard, Kind, Reference, Workload};

/// The standard workloads with the same shape at a fraction of the size.
fn tiny() -> Vec<Workload> {
    standard()
        .into_iter()
        .map(|mut w| {
            w.kind = match w.kind {
                Kind::Assembly(mut s) => {
                    s.genome_len = 600;
                    s.read_len = 60;
                    s.coverage = 15.0;
                    s.k = 15;
                    s.hash_subarrays = s.hash_subarrays.min(8);
                    s.chunk_reads = s.chunk_reads.map(|_| 16);
                    Kind::Assembly(s)
                }
                Kind::Mapping(mut s) => {
                    s.genome_len = 300;
                    s.read_len = 32;
                    s.coverage = 4.0;
                    s.error_rate = 0.03;
                    s.subarrays = 4;
                    Kind::Mapping(s)
                }
            };
            w
        })
        .collect()
}

fn options(tag: &str, trace: bool) -> RunOptions {
    let work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}"));
    RunOptions { seconds: 0.0, trace, work_dir }
}

#[test]
fn every_workload_runs_correctly_and_reports_every_metric_with_its_unit() {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    for workload in tiny() {
        let result = run(&workload, 7, &options(workload.name, true));
        assert!(result.correct(), "{}: {:?}", workload.name, result.failures);
        assert_eq!(result.attempted, 6, "three untraced and three traced passes");

        let e2e: Vec<_> = result.end_to_end.iter().map(|m| (m.name, m.unit)).collect();
        let layers: Vec<_> = result.per_layer.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(e2e, END_TO_END);
        assert_eq!(layers, PER_LAYER);
        for m in result.end_to_end.iter().chain(&result.per_layer) {
            assert!(!m.unit.is_empty() && m.value.is_finite(), "{m:?}");
            let declared = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            assert!(manifest.contains(&declared), "BENCHMARK.json lacks {declared}");
        }
        for m in &result.end_to_end {
            assert!(m.value > 0.0, "{}: end-to-end metric {} is 0", workload.name, m.name);
        }
        for (traced, metrics) in [(false, &result.end_to_end), (true, &result.per_layer)] {
            let line = result_line(&result, traced);
            assert!(line.starts_with("{\"correct\": true, \"attempted\": 6, \"failed\": 0"));
            for m in metrics {
                let entry = format!("\"{}\": {{\"value\": ", m.name);
                assert!(
                    line.contains(&entry) && line.contains(&format!("\"unit\": \"{}\"", m.unit))
                );
            }
        }
        let layer = |name: &str| result.per_layer.iter().find(|m| m.name == name).unwrap().value;
        match workload.kind {
            Kind::Assembly(spec) => {
                assert!(layer("hashmap_stage.probes") > 0.0 && layer("dram.schedule_s") > 0.0);
                assert_eq!(
                    layer("checkpoint.writes") > 0.0,
                    spec.kill_and_resume,
                    "{}",
                    workload.name
                );
                assert_eq!(layer("mapping_stage.reads"), 0.0);
            }
            Kind::Mapping(_) => {
                assert!(layer("mapping_stage.dp_cells") > 0.0, "the DP path ran");
                assert_eq!(layer("hashmap_stage.probes"), 0.0);
                assert_eq!(layer("dram.queues"), 0.0);
            }
        }
        assert!(result.trace_json.as_deref().is_some_and(|t| t.contains("\"traceEvents\"")));
        let _ = std::fs::remove_dir_all(options(workload.name, true).work_dir);
    }
}

#[test]
fn a_wrong_reference_counts_failed_passes_instead_of_panicking() {
    for workload in tiny() {
        let inputs = generate(&workload.kind, 3);
        let wrong = match reference(&workload.kind, &inputs) {
            Reference::Contigs(mut contigs) => {
                contigs.push("ACGT".into());
                Reference::Contigs(contigs)
            }
            Reference::Hits(mut hits) => {
                let hit = hits.iter_mut().flatten().next().expect("some read maps");
                hit.position += 1;
                Reference::Hits(hits)
            }
        };
        let opts = options(&format!("wrong-{}", workload.name), false);
        let result = run_with_reference(&workload, 3, &inputs, &wrong, &opts);
        assert!(!result.correct(), "{}", workload.name);
        assert_eq!(result.failed, result.attempted, "{}", workload.name);
        assert!(result.failures[0].contains("output check"), "{:?}", result.failures);
        assert!(result_line(&result, false).starts_with("{\"correct\": false"));
        let _ = std::fs::remove_dir_all(opts.work_dir);
    }
}

#[test]
fn deterministic_metrics_match_between_traced_and_untraced_passes() {
    for workload in tiny() {
        let inputs = generate(&workload.kind, 11);
        let work = WorkDir(options(&format!("det-{}", workload.name), false).work_dir);
        let mut facts = Vec::new();
        for traced in [false, true] {
            let mut tracer = Tracer::new(traced);
            let out = match &workload.kind {
                Kind::Assembly(spec) => pass::assembly(spec, &inputs.reads, &work, &mut tracer),
                Kind::Mapping(spec) => pass::mapping(spec, &inputs, &mut tracer),
            }
            .unwrap_or_else(|f| panic!("{}: {f}", workload.name));
            assert_eq!(out.snapshot.is_some(), traced, "obsv follows tracing");
            assert_eq!(tracer.spans().is_empty(), !traced);
            facts.push(out.facts);
        }
        assert_eq!(facts[0], facts[1], "{}", workload.name);
        if let Kind::Assembly(spec) = &workload.kind {
            let one_shot = pass::one_shot_facts(spec, &inputs.reads).unwrap();
            assert_eq!(
                facts[0], one_shot,
                "{}: streamed/resumed differs from one-shot",
                workload.name
            );
        }
        let _ = std::fs::remove_dir_all(&work.0);
    }
}
