//! Differential oracles: each PIM stage kernel executed against the DRAM
//! model and compared bit for bit with its pure-software golden reference.
//!
//! The PIM kernels are *functionally exact* by design — they model timing
//! and energy, but the data path produces real values. Any disagreement
//! with the software toolkit is therefore a bug (or injected corruption),
//! never tolerance noise, which is what makes exact differential checking
//! viable. The stages run through the same dispatched entry points the
//! pipeline uses, on [`ParallelDispatcher::serial`].

use std::collections::BTreeMap;

use pim_assembler::dispatch::ParallelDispatcher;
use pim_assembler::graph_stage::GraphStage;
use pim_assembler::hashmap_stage::PimHashTable;
use pim_assembler::ir::{BackendKind, OptLevel};
use pim_assembler::mapping::KmerMapper;
use pim_assembler::traverse_stage::TraverseStage;
use pim_assembler::Result;
use pim_dram::controller::Controller;
use pim_dram::geometry::DramGeometry;
use pim_genome::debruijn::DeBruijnGraph;
use pim_genome::euler::{eulerian_trails, trails_cover_all_edges, EulerAlgorithm};
use pim_genome::hash_table::KmerCounter;
use pim_genome::kmer::{Kmer, KmerIter};

use crate::genomes::TestCase;
use crate::report::OracleReport;

/// Mismatch descriptions kept per report (the count is always exact).
const MAX_NOTES: usize = 5;

fn note(notes: &mut Vec<String>, text: String) {
    if notes.len() < MAX_NOTES {
        notes.push(text);
    }
}

/// Every k-mer of the case's reads, in read order.
pub(crate) fn read_kmers(case: &TestCase, k: usize) -> Result<Vec<Kmer>> {
    let mut kmers = Vec::new();
    for read in &case.reads {
        kmers.extend(KmerIter::new(&read.seq, k)?);
    }
    Ok(kmers)
}

/// Feeds every read k-mer into both tables, returning them loaded.
fn load_tables(
    ctrl: &mut Controller,
    case: &TestCase,
    k: usize,
) -> Result<(PimHashTable, KmerCounter)> {
    let geometry = *ctrl.geometry();
    let mut table = PimHashTable::new(KmerMapper::new(&geometry, 4, 8));
    let mut soft = KmerCounter::new(k)?;
    let kmers = read_kmers(case, k)?;
    for &kmer in &kmers {
        soft.insert(kmer);
    }
    table.insert(ctrl, &ParallelDispatcher::serial(), &kmers)?;
    Ok((table, soft))
}

/// Hashmap stage: the PIM table scan must reproduce the software counter's
/// exact (k-mer, count) multiset.
pub fn hashmap_oracle(case: &TestCase, k: usize) -> Result<OracleReport> {
    let mut ctrl = Controller::new(DramGeometry::paper_assembly());
    let (table, soft) = load_tables(&mut ctrl, case, k)?;

    let mut scanned = table.scan(&mut ctrl, &ParallelDispatcher::serial())?;
    scanned.sort_by_key(|(kmer, _)| kmer.packed());
    let mut expected: Vec<(u64, u64)> =
        soft.entries().iter().map(|e| (e.kmer.packed(), e.count)).collect();
    expected.sort_unstable();

    let mut mismatches = 0;
    let mut notes = Vec::new();
    if scanned.len() != expected.len() {
        mismatches += 1;
        note(
            &mut notes,
            format!("distinct k-mers: pim {} vs software {}", scanned.len(), expected.len()),
        );
    }
    for ((kmer, count), (epacked, ecount)) in scanned.iter().zip(&expected) {
        if kmer.packed() != *epacked || count != ecount {
            mismatches += 1;
            note(
                &mut notes,
                format!("entry: pim ({kmer}, {count}) vs software (packed {epacked}, {ecount})"),
            );
        }
    }
    Ok(OracleReport {
        stage: "hashmap",
        scenario: case.scenario.name().into(),
        compared: expected.len().max(scanned.len()),
        mismatches,
        notes,
    })
}

/// Flattens a graph into a canonical edge list keyed by the inducing k-mer:
/// `packed k-mer → (from node, to node, multiplicity)` with nodes named by
/// their packed (k−1)-mer (indices differ between builds; labels cannot).
fn edge_map(graph: &DeBruijnGraph) -> BTreeMap<u64, (u64, u64, u64)> {
    let mut edges = BTreeMap::new();
    for v in 0..graph.node_count() {
        let from = graph.node(v).packed();
        for e in graph.out_edges(v) {
            edges.insert(e.kmer.packed(), (from, graph.node(e.to).packed(), e.multiplicity));
        }
    }
    edges
}

/// Graph stage: the PIM-built de Bruijn graph must equal
/// [`DeBruijnGraph::from_counter`] — same nodes, edges, multiplicities,
/// degrees.
pub fn graph_oracle(case: &TestCase, k: usize, min_count: u64) -> Result<OracleReport> {
    let mut ctrl = Controller::new(DramGeometry::paper_assembly());
    let (table, soft) = load_tables(&mut ctrl, case, k)?;
    let graph_region = ctrl.subarray_handle(0, 1, 0, 0)?;
    let serial = ParallelDispatcher::serial();
    let (pim_graph, _partitioning, _stats, _survivors) =
        GraphStage::build(&mut ctrl, &serial, &table, min_count, graph_region, 4)?;
    let soft_graph = DeBruijnGraph::from_counter(&soft, min_count);

    let pim_edges = edge_map(&pim_graph);
    let soft_edges = edge_map(&soft_graph);
    let mut mismatches = 0;
    let mut notes = Vec::new();
    if pim_graph.node_count() != soft_graph.node_count() {
        mismatches += 1;
        note(
            &mut notes,
            format!(
                "node count: pim {} vs software {}",
                pim_graph.node_count(),
                soft_graph.node_count()
            ),
        );
    }
    for (packed, pim) in &pim_edges {
        match soft_edges.get(packed) {
            Some(soft) if soft == pim => {}
            Some(soft) => {
                mismatches += 1;
                note(&mut notes, format!("edge {packed}: pim {pim:?} vs software {soft:?}"));
            }
            None => {
                mismatches += 1;
                note(&mut notes, format!("edge {packed} only in pim graph"));
            }
        }
    }
    for packed in soft_edges.keys() {
        if !pim_edges.contains_key(packed) {
            mismatches += 1;
            note(&mut notes, format!("edge {packed} only in software graph"));
        }
    }
    Ok(OracleReport {
        stage: "graph",
        scenario: case.scenario.name().into(),
        compared: soft_edges.len().max(pim_edges.len()),
        mismatches,
        notes,
    })
}

/// Traverse stage: PIM degree accumulation and trail walk must equal the
/// graph's own degrees and [`eulerian_trails`], and the trails must cover
/// every edge.
pub fn traverse_oracle(case: &TestCase, k: usize, min_count: u64) -> Result<OracleReport> {
    let mut counter = KmerCounter::new(k)?;
    for read in &case.reads {
        if read.seq.len() >= k {
            counter.count_sequence(&read.seq)?;
        }
    }
    let graph = DeBruijnGraph::from_counter(&counter, min_count);

    let mut ctrl = Controller::new(DramGeometry::paper_assembly());
    let work = [ctrl.subarray_handle(0, 1, 0, 0)?, ctrl.subarray_handle(0, 1, 0, 1)?];
    let (trails, stats) = TraverseStage::run(
        &mut ctrl,
        &ParallelDispatcher::serial(),
        &graph,
        work,
        EulerAlgorithm::Hierholzer,
        BackendKind::PimAssembler,
        OptLevel::O0,
    )?;
    let expected = eulerian_trails(&graph, EulerAlgorithm::Hierholzer);

    let mut mismatches = 0;
    let mut notes = Vec::new();
    if stats.degree_mismatches != 0 {
        mismatches += 1;
        note(&mut notes, format!("{} PIM degree mismatches", stats.degree_mismatches));
    }
    if trails != expected {
        mismatches += 1;
        note(
            &mut notes,
            format!("trails differ: pim {} vs software {}", trails.len(), expected.len()),
        );
    }
    if !trails_cover_all_edges(&graph, &trails) {
        mismatches += 1;
        note(&mut notes, "trails do not cover all edges".into());
    }
    Ok(OracleReport {
        stage: "traverse",
        scenario: case.scenario.name().into(),
        compared: expected.len().max(trails.len()) + graph.node_count(),
        mismatches,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genomes::{generate, Scenario};

    #[test]
    fn all_three_oracles_pass_on_a_random_genome() {
        let case = generate(Scenario::Random, 500, 11);
        assert!(hashmap_oracle(&case, 11).unwrap().passed());
        assert!(graph_oracle(&case, 11, 1).unwrap().passed());
        assert!(traverse_oracle(&case, 11, 1).unwrap().passed());
    }

    #[test]
    fn oracles_pass_on_the_adversarial_scenarios() {
        for s in [Scenario::RepeatHeavy, Scenario::LowCoverage] {
            let case = generate(s, 450, 12);
            assert!(hashmap_oracle(&case, 9).unwrap().passed(), "{}", s.name());
            assert!(graph_oracle(&case, 9, 1).unwrap().passed(), "{}", s.name());
            assert!(traverse_oracle(&case, 9, 1).unwrap().passed(), "{}", s.name());
        }
    }

    #[test]
    fn hashmap_oracle_actually_detects_divergence() {
        // Sanity-check the checker itself: corrupt the PIM read-out path
        // with full-rate faults and the oracle must report mismatches.
        let case = generate(Scenario::Random, 300, 13);
        let mut ctrl = Controller::new(DramGeometry::paper_assembly());
        ctrl.inject_faults(pim_dram::fault::FaultConfig::new(0.02, 99).unwrap());
        let outcome = (|| -> Result<usize> {
            let (table, soft) = load_tables(&mut ctrl, &case, 9)?;
            let mut scanned = table.scan(&mut ctrl, &ParallelDispatcher::serial())?;
            scanned.sort_by_key(|(kmer, _)| kmer.packed());
            let mut expected: Vec<(u64, u64)> =
                soft.entries().iter().map(|e| (e.kmer.packed(), e.count)).collect();
            expected.sort_unstable();
            Ok(scanned
                .iter()
                .zip(&expected)
                .filter(|((kmer, count), (ep, ec))| kmer.packed() != *ep || count != ec)
                .count()
                + scanned.len().abs_diff(expected.len()))
        })();
        match outcome {
            // Corruption may escalate to a stage error (e.g. a mis-compare
            // overfilling a bucket) — that, too, is detection.
            Err(_) => {}
            Ok(n) => assert!(n > 0, "2% read-out faults must corrupt the scan"),
        }
    }
}
