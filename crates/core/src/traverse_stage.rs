//! Stage 2b — the `Traverse(G)` procedure in PIM (Fig. 5, Fig. 8).
//!
//! The traversal first accumulates in/out degrees over the adjacency
//! structure with `PIM_Add` — the Fig. 8 flow: adjacency rows are mapped to
//! consecutive sub-array rows, carry-save-reduced three at a time, and
//! finished with a bit-serial addition — then locates the Eulerian start
//! vertices and walks the trails (Fleury in the paper's pseudocode; the
//! linear-time Hierholzer equivalent by default).
//!
//! Graphs whose node count exceeds the sub-array width cannot use the dense
//! mapping directly; the stage then computes degrees in software and
//! charges the identical command counts synthetically (the per-command
//! traffic is exactly determined by the node/edge counts).

use pim_dram::address::{RowAddr, SubarrayId};
use pim_dram::bitrow::BitRow;
use pim_dram::context::SubarrayContext;
use pim_dram::controller::Controller;
use pim_dram::ledger::CommandClass;
use pim_genome::debruijn::DeBruijnGraph;
use pim_genome::euler::{eulerian_trails, EulerAlgorithm, Trail};
use pim_obsv::{HistKey, Metric};

use crate::dispatch::ParallelDispatcher;
use crate::error::Result;
use crate::ir::{BackendKind, OptLevel};
use crate::pim_add::{PimAdder, ScratchSpace};
use crate::template::{CompiledTemplate, Kernel, TemplateKey};

/// Statistics of the traverse stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraverseStats {
    /// Whether degrees were computed through the functional dense mapping
    /// (`true`) or accounted synthetically (`false`).
    pub dense_mapping: bool,
    /// Eulerian trails walked.
    pub trails: u64,
    /// Edges traversed during the walk.
    pub edges_walked: u64,
    /// Nodes whose PIM-computed in/out degrees disagreed with the graph's
    /// own bookkeeping. Always 0 on a healthy array; non-zero under fault
    /// injection, where it is the stage's corruption-detection signal (the
    /// walk itself still follows the graph's true adjacency).
    pub degree_mismatches: u64,
}

/// Executes the traverse stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraverseStage;

impl TraverseStage {
    /// Computes `(out_degrees, in_degrees, dense)` of `graph` with
    /// `PIM_Add`, every full-adder slice (dense path) or synthetic charge
    /// (fallback path) lowered for `backend` at optimization level `opt`.
    ///
    /// When the graph fits the dense Fig. 8 mapping
    /// (`nodes ≤ min(cols, rows/3)`), the out- and in-degree passes run as
    /// two dispatcher partitions, out-degrees in `work[0]` and in-degrees
    /// in `work[1]`; they write disjoint sub-arrays, so the degrees and
    /// command totals are the same for any worker count. Larger graphs get
    /// their degrees in software and the same command volume accounted
    /// synthetically on the controller.
    ///
    /// # Errors
    ///
    /// [`pim_dram::DramError::SubarrayDetached`] (wrapped) if the two work
    /// sub-arrays coincide on the dense path; otherwise DRAM addressing
    /// and scratch errors.
    pub fn degrees(
        ctrl: &mut Controller,
        dispatcher: &ParallelDispatcher,
        graph: &DeBruijnGraph,
        work: [SubarrayId; 2],
        backend: BackendKind,
        opt: OptLevel,
    ) -> Result<(Vec<u64>, Vec<u64>, bool)> {
        let n = graph.node_count();
        let cols = ctrl.geometry().cols;
        let rows = ctrl.geometry().rows;
        if n > 0 && n <= cols && 3 * n + 8 < rows {
            // Column sums of Aᵀ rows give out-degrees; of A rows, in-degrees.
            let partitions = vec![(work[0], true), (work[1], false)];
            let mut passes =
                dispatcher.run_partitions(ctrl, partitions, move |ctx, transpose| {
                    Self::dense_degree_pass(ctx, graph, transpose, backend, opt)
                })?;
            let inc = passes.pop().expect("two partitions dispatched");
            let out = passes.pop().expect("two partitions dispatched");
            Ok((out, inc, true))
        } else {
            // Synthetic accounting: the same adjacency-row reduction the
            // dense path performs, at `2E + N` single-bit additions packed
            // `cols` per wave, each wave costing one full-adder step. The
            // per-step command mix comes from the IR-compiled kernel
            // (8 copies, 1 sum AAP, 2 TRAs), not a hardcoded table, so the
            // synthetic path can never drift from what the dense path
            // actually executes.
            let adder = CompiledTemplate::compile(
                TemplateKey::new(Kernel::FullAdder, cols, cols).with_backend(backend).with_opt(opt),
            );
            let adds = 2 * graph.edge_count() as u64 + n as u64;
            adder.charge_executions(ctrl, adds.div_ceil(cols as u64));
            let out = (0..n).map(|v| graph.out_degree(v) as u64).collect();
            let inc = (0..n).map(|v| graph.in_degree(v) as u64).collect();
            Ok((out, inc, false))
        }
    }

    /// Runs the full traverse stage: degrees ([`TraverseStage::degrees`]),
    /// start selection, Euler walk.
    ///
    /// # Errors
    ///
    /// As [`TraverseStage::degrees`].
    pub fn run(
        ctrl: &mut Controller,
        dispatcher: &ParallelDispatcher,
        graph: &DeBruijnGraph,
        work: [SubarrayId; 2],
        algorithm: EulerAlgorithm,
        backend: BackendKind,
        opt: OptLevel,
    ) -> Result<(Vec<Trail>, TraverseStats)> {
        let (out, inc, dense) = Self::degrees(ctrl, dispatcher, graph, work, backend, opt)?;
        Self::walk(ctrl, graph, &out, &inc, dense, algorithm)
    }

    /// The host-side tail of the stage: start selection, Euler walk, and
    /// per-edge traversal accounting.
    fn walk(
        ctrl: &mut Controller,
        graph: &DeBruijnGraph,
        out: &[u64],
        inc: &[u64],
        dense: bool,
        algorithm: EulerAlgorithm,
    ) -> Result<(Vec<Trail>, TraverseStats)> {
        // Start-vertex selection: one DPU comparison per node (the
        // `if out − in > 0` branch of the pseudocode).
        ctrl.dpu_ops(graph.node_count() as u64);
        // Cross-check the PIM degree pass against the graph's own
        // bookkeeping. A disagreement (possible under fault injection)
        // is detected and counted rather than aborted on; the walk
        // proceeds on the graph's true adjacency.
        let degree_mismatches = out
            .iter()
            .zip(inc)
            .enumerate()
            .filter(|&(v, (&o, &i))| {
                o != graph.out_degree(v) as u64 || i != graph.in_degree(v) as u64
            })
            .count() as u64;
        let trails = eulerian_trails(graph, algorithm);
        let edges_walked: u64 = trails.iter().map(|t| (t.len().saturating_sub(1)) as u64).sum();
        let trail_count = trails.len() as u64;
        ctrl.record_metric(Metric::TraverseEdges, edges_walked);
        for trail in &trails {
            ctrl.record_value(HistKey::TraverseTrailLen, (trail.len().saturating_sub(1)) as u64);
        }
        // Each traversal step chases one edge: a row read + a DPU branch.
        ctrl.record_synthetic(CommandClass::Read, edges_walked);
        ctrl.record_synthetic(CommandClass::Dpu, edges_walked);
        Ok((
            trails,
            TraverseStats {
                dense_mapping: dense,
                trails: trail_count,
                edges_walked,
                degree_mismatches,
            },
        ))
    }

    /// One dense degree pass: maps adjacency rows (or their transpose) into
    /// the work sub-array `ctx` and column-sums them. Column `j` of the row
    /// set `A[i][j]` sums to the in-degree of `j`; transposing yields
    /// out-degrees.
    fn dense_degree_pass(
        ctx: &mut SubarrayContext,
        graph: &DeBruijnGraph,
        transpose: bool,
        backend: BackendKind,
        opt: OptLevel,
    ) -> Result<Vec<u64>> {
        let n = graph.node_count();
        let cols = ctx.geometry().cols;
        // Build adjacency bit rows and write them into the sub-array
        // (Fig. 8 "mapping" step).
        let mut addends = vec![BitRow::zeros(cols); n];
        for i in 0..n {
            for e in graph.out_edges(i) {
                if transpose {
                    // A^T rows: row e.to carries column i, so column sums
                    // yield out-degrees.
                    addends[e.to].set(i, true);
                } else {
                    addends[i].set(e.to, true);
                }
            }
        }
        let mut rows = Vec::with_capacity(n);
        for (i, bits) in addends.iter().enumerate() {
            ctx.write_row(RowAddr(i), bits)?;
            rows.push(RowAddr(i));
        }
        let zero = RowAddr(n);
        ctx.write_row(zero, &BitRow::zeros(cols))?;
        let mut scratch = ScratchSpace::new(n + 1, ctx.geometry().data_rows());
        let planes = PimAdder::column_sum(ctx, backend, opt, &rows, zero, &mut scratch)?;
        let mut values = PimAdder::decode_columns(&planes);
        values.truncate(n);
        // In-degree of j = Σ_i A[i][j]; out-degree of j = Σ_i A^T[i][j].
        Ok(values)
    }
}

/// Output artifact of the traverse stage: the walked trails plus the
/// graph, partitioning, and graph statistics handed back for contig
/// spelling and reporting.
#[derive(Debug, Clone)]
pub struct TraverseArtifact {
    /// The Eulerian trails in walk order.
    pub trails: Vec<Trail>,
    /// Traverse-stage statistics.
    pub stats: TraverseStats,
    /// The (simplified) graph the trails were walked on.
    pub graph: DeBruijnGraph,
    /// The interval-block partitioning of the graph.
    pub partitioning: crate::partition::Partitioning,
    /// Statistics of the preceding graph stage.
    pub graph_stats: crate::graph_stage::GraphStats,
}

/// The stage-3 executor of the staged engine: walks the Eulerian trails
/// of the (simplified) graph. Its checkpoint payload is the
/// pre-simplification survivor list — a `stage = traverse` checkpoint is
/// self-contained: [`crate::graph_stage::GraphStage::rebuild`]
/// reconstructs the graph purely host-side on resume.
#[derive(Debug, Clone)]
pub struct TraverseExec {
    graph: DeBruijnGraph,
    partitioning: crate::partition::Partitioning,
    graph_stats: crate::graph_stage::GraphStats,
    survivors: Vec<(pim_genome::kmer::Kmer, u64)>,
    work_out: SubarrayId,
    work_in: SubarrayId,
}

impl TraverseExec {
    /// An executor over the finished (and, when configured, simplified)
    /// graph. `survivors` are the pre-simplification post-filter entries
    /// retained for the stage's checkpoint payload.
    pub fn new(
        graph: DeBruijnGraph,
        partitioning: crate::partition::Partitioning,
        graph_stats: crate::graph_stage::GraphStats,
        survivors: Vec<(pim_genome::kmer::Kmer, u64)>,
        work_out: SubarrayId,
        work_in: SubarrayId,
    ) -> Self {
        TraverseExec { graph, partitioning, graph_stats, survivors, work_out, work_in }
    }

    /// Serializes the resume state into `cp`: the survivor list (list
    /// `graph`) and the graph-stage statistics.
    pub fn save(&self, cp: &mut crate::checkpoint::StageCheckpoint) {
        let mut block = String::new();
        for (kmer, count) in &self.survivors {
            crate::checkpoint::push_list_line(
                &mut block,
                &[kmer.packed(), kmer.k() as u64, *count],
            );
        }
        cp.lists.insert("graph".into(), block);
        cp.fields.insert("graph.scanned".into(), self.graph_stats.scanned);
        cp.fields.insert("graph.edges_inserted".into(), self.graph_stats.edges_inserted);
        cp.fields.insert("graph.mem_inserts".into(), self.graph_stats.mem_inserts);
    }

    /// Runs the stage ([`TraverseStage::run`] with Hierholzer's walk, on
    /// the PIM-Assembler backend) and hands the trails, the graph and its
    /// statistics on for contig spelling and reporting.
    ///
    /// # Errors
    ///
    /// As [`TraverseStage::run`].
    pub fn run(
        self,
        ctrl: &mut Controller,
        dispatcher: &ParallelDispatcher,
        opt: OptLevel,
    ) -> Result<TraverseArtifact> {
        let (trails, stats) = TraverseStage::run(
            ctrl,
            dispatcher,
            &self.graph,
            [self.work_out, self.work_in],
            EulerAlgorithm::Hierholzer,
            BackendKind::PimAssembler,
            opt,
        )?;
        Ok(TraverseArtifact {
            trails,
            stats,
            graph: self.graph,
            partitioning: self.partitioning,
            graph_stats: self.graph_stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_dram::geometry::DramGeometry;
    use pim_genome::hash_table::KmerCounter;
    use pim_genome::sequence::DnaSequence;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// A controller plus the two work sub-arrays of the degree passes.
    fn setup() -> (Controller, [SubarrayId; 2]) {
        let ctrl = Controller::new(DramGeometry::paper_assembly());
        let work =
            [ctrl.subarray_handle(0, 2, 0, 0).unwrap(), ctrl.subarray_handle(0, 2, 0, 1).unwrap()];
        (ctrl, work)
    }

    fn graph_of(seq: &str, k: usize) -> DeBruijnGraph {
        let s: DnaSequence = seq.parse().unwrap();
        let mut c = KmerCounter::new(k).unwrap();
        c.count_sequence(&s).unwrap();
        DeBruijnGraph::from_counter(&c, 1)
    }

    fn degrees_of(
        ctrl: &mut Controller,
        g: &DeBruijnGraph,
        work: [SubarrayId; 2],
    ) -> (Vec<u64>, Vec<u64>, bool) {
        let serial = ParallelDispatcher::serial();
        TraverseStage::degrees(ctrl, &serial, g, work, BackendKind::PimAssembler, OptLevel::O0)
            .unwrap()
    }

    fn run_on(
        ctrl: &mut Controller,
        dispatcher: &ParallelDispatcher,
        g: &DeBruijnGraph,
        work: [SubarrayId; 2],
    ) -> Result<(Vec<Trail>, TraverseStats)> {
        let algorithm = EulerAlgorithm::Hierholzer;
        TraverseStage::run(
            ctrl,
            dispatcher,
            g,
            work,
            algorithm,
            BackendKind::PimAssembler,
            OptLevel::O0,
        )
    }

    #[test]
    fn fig8_style_degree_accumulation() {
        // A small graph: degrees via the dense PIM mapping must equal the
        // graph's own counters.
        let (mut ctrl, work) = setup();
        let g = graph_of("CGTGCGTGCTTACGGA", 5);
        let (out, inc, dense) = degrees_of(&mut ctrl, &g, work);
        assert!(dense);
        for v in 0..g.node_count() {
            assert_eq!(out[v], g.out_degree(v) as u64, "out {v}");
            assert_eq!(inc[v], g.in_degree(v) as u64, "in {v}");
        }
        // The reduction really used TRAs.
        assert!(ctrl.ledger().count(CommandClass::Aap3) > 0);
    }

    #[test]
    fn degrees_on_random_graph() {
        let (mut ctrl, work) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let seq = DnaSequence::random(&mut rng, 150).to_string();
        let g = graph_of(&seq, 6);
        assert!(g.node_count() <= 256, "test graph too large");
        let (out, inc, dense) = degrees_of(&mut ctrl, &g, work);
        assert!(dense);
        for v in 0..g.node_count() {
            assert_eq!(out[v], g.out_degree(v) as u64);
            assert_eq!(inc[v], g.in_degree(v) as u64);
        }
    }

    #[test]
    fn large_graph_falls_back_to_synthetic() {
        let (mut ctrl, work) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let seq = DnaSequence::random(&mut rng, 2000).to_string();
        let g = graph_of(&seq, 11);
        assert!(g.node_count() > 256);
        let before = *ctrl.ledger();
        let (_, _, dense) = degrees_of(&mut ctrl, &g, work);
        assert!(!dense);
        let d = ctrl.ledger().since(&before);
        let (aap3, aap2) = (d.count(CommandClass::Aap3), d.count(CommandClass::Aap2));
        assert!(aap3 > 0 && aap2 > 0, "synthetic accounting missing: {d}");
    }

    #[test]
    fn run_produces_covering_trails() {
        let (mut ctrl, work) = setup();
        let g = graph_of("ATTGCCGGAACT", 4);
        let (trails, stats) = run_on(&mut ctrl, &ParallelDispatcher::serial(), &g, work).unwrap();
        assert!(pim_genome::euler::trails_cover_all_edges(&g, &trails));
        assert_eq!(stats.edges_walked as usize, g.edge_count());
        assert!(stats.dense_mapping);
    }

    #[test]
    fn dispatched_run_matches_serial_trails_and_totals() {
        let g = graph_of("CGTGCGTGCTTACGGA", 5);
        let (mut serial_ctrl, work) = setup();
        let (trails_s, stats_s) =
            run_on(&mut serial_ctrl, &ParallelDispatcher::serial(), &g, work).unwrap();
        for workers in [2, 4] {
            let (mut ctrl, work) = setup();
            let pool = ParallelDispatcher::with_workers(workers);
            let (trails, stats) = run_on(&mut ctrl, &pool, &g, work).unwrap();
            assert_eq!(trails, trails_s, "workers={workers}");
            assert_eq!(stats, stats_s, "workers={workers}");
            assert_eq!(ctrl.ledger(), serial_ctrl.ledger(), "workers={workers}");
        }
    }

    #[test]
    fn dispatched_run_rejects_identical_work_subarrays() {
        let g = graph_of("CGTGCGTGCTTACGGA", 5);
        let (mut ctrl, [work, _]) = setup();
        let err = run_on(&mut ctrl, &ParallelDispatcher::serial(), &g, [work, work]).unwrap_err();
        assert!(matches!(
            err,
            crate::error::PimError::Dram(pim_dram::DramError::SubarrayDetached { .. })
        ));
    }

    #[test]
    fn traverse_exec_matches_direct_run() {
        let g = graph_of("CGTGCGTGCTTACGGA", 5);
        let (mut ctrl_a, work) = setup();
        let dispatcher = ParallelDispatcher::serial();
        let (trails_ref, stats_ref) = run_on(&mut ctrl_a, &dispatcher, &g, work).unwrap();

        let (mut ctrl_b, [work_out, work_in]) = setup();
        let partitioning = crate::partition::IntervalBlockPartitioner::new(2, 64).partition(&g);
        let exec = TraverseExec::new(
            g.clone(),
            partitioning,
            crate::graph_stage::GraphStats::default(),
            Vec::new(),
            work_out,
            work_in,
        );
        let art = exec.run(&mut ctrl_b, &dispatcher, OptLevel::O0).unwrap();
        assert_eq!(art.trails, trails_ref);
        assert_eq!(art.stats, stats_ref);
        assert_eq!(ctrl_b.ledger(), ctrl_a.ledger());
    }

    #[test]
    fn empty_graph_is_handled() {
        let (mut ctrl, work) = setup();
        let g = DeBruijnGraph::from_kmers(4, std::iter::empty());
        let (trails, stats) = run_on(&mut ctrl, &ParallelDispatcher::serial(), &g, work).unwrap();
        assert!(trails.is_empty());
        assert_eq!(stats.edges_walked, 0);
    }
}
