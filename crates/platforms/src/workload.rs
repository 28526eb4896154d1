//! Genome-assembly workload descriptions.
//!
//! A [`AssemblyWorkload`] captures the stage sizes every platform model
//! consumes: how many k-mers stream through the hash stage, how many
//! distinct k-mers build the graph, and how many degree additions the
//! traversal performs. Workloads come from two sources:
//!
//! 1. **measured** — counted exactly on a scaled dataset that was actually
//!    assembled (see `pim_genome`), then linearly extrapolated;
//! 2. **analytic** — the paper's chromosome-14 setup (45,711,162 reads ×
//!    101 bp, k ∈ {16, 22, 26, 32}) estimated from the genome size.

/// Stage sizes of one assembly run.
///
/// # Examples
///
/// ```
/// use pim_platforms::workload::AssemblyWorkload;
///
/// let w = AssemblyWorkload::chr14(16);
/// assert_eq!(w.read_len, 101);
/// assert_eq!(w.total_kmers, 45_711_162 * (101 - 16 + 1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AssemblyWorkload {
    /// k-mer length.
    pub k: usize,
    /// Number of reads.
    pub reads: u64,
    /// Read length (bp).
    pub read_len: usize,
    /// Total k-mers streamed through the hash stage:
    /// `reads × (read_len − k + 1)`.
    pub total_kmers: u64,
    /// Distinct k-mers surviving filtering (≈ graph edges).
    pub distinct_kmers: u64,
    /// de Bruijn nodes ((k−1)-mers).
    pub graph_nodes: u64,
    /// de Bruijn edges.
    pub graph_edges: u64,
    /// Mean hash probes per streamed k-mer (≥ 1).
    pub avg_probes_per_kmer: f64,
    /// Integer additions in the traverse stage (degree accumulation over
    /// the adjacency structure, Fig. 8).
    pub traverse_adds: u64,
    /// Bit width of the degree counters being added.
    pub counter_bits: usize,
}

impl AssemblyWorkload {
    /// The paper's chromosome-14 workload at the given k (§IV *Setup*).
    ///
    /// Chromosome 14 has ≈ 88 Mbp of non-gap sequence; nearly every genomic
    /// position starts a distinct k-mer at these k values.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > read_len`.
    pub fn chr14(k: usize) -> Self {
        AssemblyWorkload::from_scale(k, 45_711_162, 101, 88_000_000)
    }

    /// A workload of the paper's *shape* at arbitrary scale.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > read_len`.
    pub fn from_scale(k: usize, reads: u64, read_len: usize, genome_len: u64) -> Self {
        assert!(k > 0 && k <= read_len, "k must be in 1..=read_len");
        let kmers_per_read = (read_len - k + 1) as u64;
        let total = reads * kmers_per_read;
        // Random/unique genome assumption: one distinct k-mer per genomic
        // position (minus boundary), discounted slightly for repeats.
        let distinct = ((genome_len - k as u64 + 1) as f64 * 0.96) as u64;
        let nodes = ((genome_len - k as u64 + 2) as f64 * 0.96) as u64;
        AssemblyWorkload {
            k,
            reads,
            read_len,
            total_kmers: total,
            distinct_kmers: distinct,
            graph_nodes: nodes,
            graph_edges: distinct,
            // Open addressing at ≤ 0.75 load keeps probes short.
            avg_probes_per_kmer: 1.35,
            // Degree accumulation touches each edge twice (out + in) plus a
            // per-node edge-count update (Fig. 5's Traverse pseudocode).
            traverse_adds: 2 * distinct + nodes,
            counter_bits: 32,
        }
    }

    /// Builds a workload from measured stage sizes of a real scaled run.
    #[allow(clippy::too_many_arguments)] // mirrors the measured quantities one-to-one
    pub fn from_measured(
        k: usize,
        reads: u64,
        read_len: usize,
        total_kmers: u64,
        distinct_kmers: u64,
        graph_nodes: u64,
        graph_edges: u64,
        avg_probes_per_kmer: f64,
    ) -> Self {
        AssemblyWorkload {
            k,
            reads,
            read_len,
            total_kmers,
            distinct_kmers,
            graph_nodes,
            graph_edges,
            avg_probes_per_kmer,
            traverse_adds: 2 * graph_edges + graph_nodes,
            counter_bits: 32,
        }
    }

    /// Linearly extrapolates this workload to `target_reads` reads and a
    /// genome `genome_factor` times larger (distinct k-mers, nodes, and
    /// edges scale with the genome; streamed k-mers scale with the reads).
    pub fn scaled(&self, target_reads: u64, genome_factor: f64) -> Self {
        let read_factor = target_reads as f64 / self.reads as f64;
        AssemblyWorkload {
            k: self.k,
            reads: target_reads,
            read_len: self.read_len,
            total_kmers: (self.total_kmers as f64 * read_factor) as u64,
            distinct_kmers: (self.distinct_kmers as f64 * genome_factor) as u64,
            graph_nodes: (self.graph_nodes as f64 * genome_factor) as u64,
            graph_edges: (self.graph_edges as f64 * genome_factor) as u64,
            avg_probes_per_kmer: self.avg_probes_per_kmer,
            traverse_adds: (self.traverse_adds as f64 * genome_factor) as u64,
            counter_bits: self.counter_bits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chr14_total_kmers_shrink_with_k() {
        let k16 = AssemblyWorkload::chr14(16);
        let k32 = AssemblyWorkload::chr14(32);
        assert!(k32.total_kmers < k16.total_kmers);
        assert_eq!(k16.total_kmers, 45_711_162 * 86);
        assert_eq!(k32.total_kmers, 45_711_162 * 70);
    }

    #[test]
    fn distinct_close_to_genome_size() {
        let w = AssemblyWorkload::chr14(22);
        assert!(w.distinct_kmers > 80_000_000 && w.distinct_kmers < 88_000_000);
    }

    #[test]
    fn scaling_is_linear_in_reads() {
        let w = AssemblyWorkload::from_scale(21, 1_000, 101, 100_000);
        let s = w.scaled(10_000, 1.0);
        assert_eq!(s.total_kmers, w.total_kmers * 10);
        assert_eq!(s.distinct_kmers, w.distinct_kmers);
    }

    #[test]
    fn genome_factor_scales_graph() {
        let w = AssemblyWorkload::from_scale(21, 1_000, 101, 100_000);
        let s = w.scaled(w.reads, 3.0);
        assert!((s.graph_edges as f64 / w.graph_edges as f64 - 3.0).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "k must be")]
    fn rejects_k_longer_than_reads() {
        AssemblyWorkload::from_scale(102, 10, 101, 1000);
    }

    #[test]
    fn traverse_adds_track_edges() {
        let w = AssemblyWorkload::chr14(16);
        assert_eq!(w.traverse_adds, 2 * w.graph_edges + w.graph_nodes);
    }
}
