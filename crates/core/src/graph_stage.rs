//! Stage 2a — the `DeBruijn(Hashmap, k)` procedure in PIM (Fig. 5).
//!
//! The graph is constructed by scanning the hash-table rows (charged row
//! reads), filtering by frequency, and `MEM_insert`-ing each surviving
//! k-mer's node pair and edge into the graph region of memory. The graph
//! region writes are executed against real sub-array rows (cycling through
//! a dedicated sub-array set) so the command accounting reflects the
//! paper's "massive number of iteratively-used MEM_insert" operations.

use pim_dram::address::{RowAddr, SubarrayId};
use pim_dram::bitrow::BitRow;
use pim_dram::controller::Controller;
use pim_genome::debruijn::DeBruijnGraph;
use pim_genome::kmer::Kmer;
use pim_obsv::Metric;

use crate::dispatch::ParallelDispatcher;
use crate::error::{PimError, Result};
use crate::hashmap_stage::PimHashTable;
use crate::layout::SubarrayLayout;
use crate::mapping::KmerMapper;
use crate::partition::{IntervalBlockPartitioner, Partitioning};

/// Statistics of the graph-construction stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GraphStats {
    /// K-mers scanned from the hash table.
    pub scanned: u64,
    /// K-mers surviving the frequency filter (edges inserted).
    pub edges_inserted: u64,
    /// `MEM_insert` row writes performed for nodes + edge lists.
    pub mem_inserts: u64,
}

/// Full output of a graph build: the graph, its partitioning, the stage
/// statistics, and the post-filter survivors in scan order (the
/// checkpoint payload [`GraphStage::rebuild`] replays on resume).
pub type GraphBuildOutput = (DeBruijnGraph, Partitioning, GraphStats, Vec<(Kmer, u64)>);

/// Builds the de Bruijn graph from the PIM hash table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GraphStage;

impl GraphStage {
    /// Scans `table` (dispatched across its sub-arrays, see
    /// [`PimHashTable::scan`]), filters by `min_count`, materializes the
    /// graph, and partitions it for the traverse mapping.
    ///
    /// `graph_region` designates the sub-array whose k-mer region receives
    /// the `MEM_insert` writes (cycling when full — the functional graph
    /// lives in the returned structure, the writes account the hardware
    /// traffic). Those writes address a single region, so they run in one
    /// checkout of its context after the filter; the graph and command
    /// totals are the same for any worker count.
    ///
    /// The post-filter survivors come back in scan order: the checkpoint
    /// payload from which [`GraphStage::rebuild`] reconstructs the
    /// identical graph on resume (node ids are assigned by first-reference
    /// order during `add_kmer`, so replaying the same entry order
    /// reproduces the same numbering).
    ///
    /// # Errors
    ///
    /// Propagates DRAM addressing errors.
    pub fn build(
        ctrl: &mut Controller,
        dispatcher: &ParallelDispatcher,
        table: &PimHashTable,
        min_count: u64,
        graph_region: SubarrayId,
        intervals: usize,
    ) -> Result<GraphBuildOutput> {
        let entries = table.scan(ctrl, dispatcher)?;
        Self::construct(ctrl, table, entries, min_count, graph_region, intervals)
    }

    /// Pure host-side graph reconstruction from checkpointed survivors:
    /// replays `add_kmer` in the stored order and re-partitions. Charges
    /// no commands — resume restores accounting separately.
    pub fn rebuild(
        survivors: &[(Kmer, u64)],
        intervals: usize,
        f: usize,
    ) -> (DeBruijnGraph, Partitioning) {
        let mut graph: Option<DeBruijnGraph> = None;
        for &(kmer, count) in survivors {
            let g = graph
                .get_or_insert_with(|| DeBruijnGraph::from_kmers(kmer.k(), std::iter::empty()));
            g.add_kmer(kmer, count);
        }
        let graph = graph.unwrap_or_else(|| DeBruijnGraph::from_kmers(2, std::iter::empty()));
        let partitioning = IntervalBlockPartitioner::new(intervals.max(1), f).partition(&graph);
        (graph, partitioning)
    }

    /// Parses the `graph` checkpoint list block written by
    /// [`crate::traverse_stage::TraverseExec::save`] (`packed k count`
    /// per line) back into the survivor entries.
    ///
    /// # Errors
    ///
    /// [`crate::error::PimError::Checkpoint`] on any malformed line or a
    /// k-mer whose length is not `k`.
    pub fn parse_survivors(block: &str, k: usize) -> Result<Vec<(Kmer, u64)>> {
        let mut survivors = Vec::new();
        for line in block.lines() {
            let malformed = || crate::error::PimError::Checkpoint {
                reason: format!("malformed graph survivor line `{line}`"),
            };
            let mut parts = line.split_whitespace();
            let mut next = || parts.next().ok_or_else(malformed);
            let packed: u64 = next()?.parse().map_err(|_| malformed())?;
            let kmer_k: usize = next()?.parse().map_err(|_| malformed())?;
            let count: u64 = next()?.parse().map_err(|_| malformed())?;
            let kmer = Kmer::from_packed(packed, kmer_k)
                .ok()
                .filter(|kmer| kmer.k() == k)
                .ok_or_else(malformed)?;
            survivors.push((kmer, count));
        }
        Ok(survivors)
    }

    /// Filters the scanned entries and materializes the graph + partition,
    /// retaining the post-filter survivors for checkpointing.
    fn construct(
        ctrl: &mut Controller,
        table: &PimHashTable,
        entries: Vec<(Kmer, u64)>,
        min_count: u64,
        graph_region: SubarrayId,
        intervals: usize,
    ) -> Result<GraphBuildOutput> {
        let layout = SubarrayLayout::new(ctrl.geometry());
        let cols = ctrl.geometry().cols;
        let mapper: &KmerMapper = table.mapper();
        let mut stats = GraphStats { scanned: entries.len() as u64, ..GraphStats::default() };

        let mut graph: Option<DeBruijnGraph> = None;
        let mut survivors = Vec::new();
        for (kmer, count) in entries {
            if count < min_count {
                continue;
            }
            let g = graph
                .get_or_insert_with(|| DeBruijnGraph::from_kmers(kmer.k(), std::iter::empty()));
            g.add_kmer(kmer, count);
            survivors.push((kmer, count));
        }
        stats.edges_inserted = survivors.len() as u64;
        if !survivors.is_empty() {
            ctrl.with_context(graph_region, |ctx| {
                let mut image = BitRow::zeros(cols);
                for (kmer, _) in &survivors {
                    mapper.row_image_into(kmer, &mut image);
                    // MEM_insert: node_1, node_2, and the edge-list entry —
                    // three row writes into the graph region (Fig. 5's
                    // pseudocode inserts all three).
                    for _ in 0..3 {
                        let row = RowAddr(stats.mem_inserts as usize % layout.kmer_rows());
                        ctx.write_row(row, &image)?;
                        stats.mem_inserts += 1;
                    }
                }
                Ok::<_, PimError>(())
            })?;
        }
        ctrl.record_metric(Metric::GraphKmers, stats.edges_inserted);
        let graph = graph.unwrap_or_else(|| DeBruijnGraph::from_kmers(2, std::iter::empty()));
        let f = ctrl.geometry().cols.min(ctrl.geometry().rows);
        let partitioning = IntervalBlockPartitioner::new(intervals.max(1), f).partition(&graph);
        Ok((graph, partitioning, stats, survivors))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::KmerMapper;
    use pim_dram::geometry::DramGeometry;
    use pim_dram::CommandClass;
    use pim_genome::kmer::KmerIter;
    use pim_genome::sequence::DnaSequence;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn loaded_table(ctrl: &mut Controller, seq: &str, k: usize, subarrays: usize) -> PimHashTable {
        let mut table = PimHashTable::new(KmerMapper::new(ctrl.geometry(), subarrays, 8));
        let seq: DnaSequence = seq.parse().unwrap();
        let kmers: Vec<Kmer> = KmerIter::new(&seq, k).unwrap().collect();
        table.insert(ctrl, &ParallelDispatcher::serial(), &kmers).unwrap();
        table
    }

    fn build_from(seq: &str, k: usize, min_count: u64) -> GraphBuildOutput {
        let mut ctrl = Controller::new(DramGeometry::paper_assembly());
        let table = loaded_table(&mut ctrl, seq, k, 4);
        let region = ctrl.subarray_handle(0, 1, 0, 0).unwrap();
        GraphStage::build(&mut ctrl, &ParallelDispatcher::serial(), &table, min_count, region, 2)
            .unwrap()
    }

    #[test]
    fn graph_matches_software_construction() {
        let (graph, _, stats, survivors) = build_from("CGTGCGTGCTT", 5, 1);
        assert_eq!(graph.edge_count(), 6);
        assert_eq!(survivors.len(), 6);
        assert_eq!(stats.edges_inserted, 6);
        assert_eq!(stats.mem_inserts, 18);
        assert_eq!(stats.scanned, 6);
    }

    #[test]
    fn min_count_filters_edges() {
        let (graph, _, stats, _) = build_from("CGTGCGTGCTT", 5, 2);
        assert_eq!(graph.edge_count(), 1); // only CGTGC has count 2
        assert_eq!(stats.edges_inserted, 1);
    }

    #[test]
    fn partitioning_covers_the_graph() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let seq = DnaSequence::random(&mut rng, 600).to_string();
        let (graph, part, _, _) = build_from(&seq, 9, 1);
        assert_eq!(part.total_edges(), graph.edge_count());
        assert_eq!(part.interval_of.len(), graph.node_count());
    }

    #[test]
    fn empty_table_yields_empty_graph() {
        let g = DramGeometry::paper_assembly();
        let mut ctrl = Controller::new(g);
        let table = PimHashTable::new(KmerMapper::new(&g, 2, 8));
        let region = ctrl.subarray_handle(0, 1, 0, 0).unwrap();
        let (graph, part, stats, _) =
            GraphStage::build(&mut ctrl, &ParallelDispatcher::serial(), &table, 1, region, 2)
                .unwrap();
        assert_eq!(graph.edge_count(), 0);
        assert_eq!(stats.scanned, 0);
        assert_eq!(part.total_edges(), 0);
    }

    #[test]
    fn mem_inserts_are_charged_as_writes() {
        let mut ctrl = Controller::new(DramGeometry::paper_assembly());
        let table = loaded_table(&mut ctrl, "ACGTTGCA", 4, 2);
        let before = *ctrl.ledger();
        let region = ctrl.subarray_handle(0, 1, 0, 0).unwrap();
        let (_, _, stats, _) =
            GraphStage::build(&mut ctrl, &ParallelDispatcher::serial(), &table, 1, region, 1)
                .unwrap();
        let d = ctrl.ledger().since(&before);
        assert_eq!(d.count(CommandClass::Write), stats.mem_inserts);
        assert!(d.count(CommandClass::Read) >= stats.scanned); // table scan reads
    }
}
