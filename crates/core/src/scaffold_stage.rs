//! Stage 3 — scaffolding on the PIM platform (extension).
//!
//! The paper defers scaffolding to future work; we map it onto the same
//! machinery as stage 1: contig k-mers are loaded into a PIM hash table
//! (the anchor index), each mate of a read pair is anchored with the same
//! staged-query + `PIM_XNOR`-probe sequence, and link voting/chaining runs
//! in the DPU. The resulting scaffolds are identical to the software
//! scaffolder's (asserted in tests); the value added here is the command
//! accounting that extends the performance model to stage 3.

use std::collections::HashMap;

use pim_dram::controller::Controller;
use pim_genome::contig::Contig;
use pim_genome::kmer::{Kmer, KmerIter};
use pim_genome::scaffold::{ReadPair, Scaffold, Scaffolder};
use pim_obsv::{Metric, Stage};

use crate::dpu::Dpu;
use crate::error::Result;
use crate::hashmap_stage::{HashStats, PimHashTable};
use crate::mapping::KmerMapper;

/// Statistics of the PIM scaffold stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScaffoldStats {
    /// Contig k-mers loaded into the anchor index.
    pub index_kmers: u64,
    /// Mate anchor queries issued.
    pub anchor_queries: u64,
    /// Pairs whose both mates anchored.
    pub pairs_anchored: u64,
    /// Scaffolds produced.
    pub scaffolds: u64,
}

/// Executes scaffolding with PIM-accounted anchoring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScaffoldStage;

impl ScaffoldStage {
    /// Builds the anchor index from `contigs`, anchors every pair, and
    /// chains supported links into scaffolds — one [`ScaffoldExec`] fed
    /// the whole pair set.
    ///
    /// # Errors
    ///
    /// Propagates DRAM and genome-toolkit errors. The anchor index needs
    /// `mapper` capacity for the distinct contig k-mers.
    pub fn run(
        ctrl: &mut Controller,
        mapper: KmerMapper,
        contigs: &[Contig],
        pairs: &[ReadPair],
        k: usize,
        min_support: usize,
    ) -> Result<(Vec<Scaffold>, ScaffoldStats)> {
        let mut exec = ScaffoldExec::new(ctrl, mapper, contigs.to_vec(), k, min_support)?;
        exec.feed(ctrl, pairs)?;
        exec.finish(ctrl)
    }
}

/// The scaffold executor: loads the anchor index, anchors read pairs
/// chunk by chunk, and chains the links. Chunk boundaries are invisible
/// to the result and the ledger: anchoring is per-pair independent and
/// charging is an order-independent integer sum, so any chunking of the
/// same pair stream is byte-identical to the one-shot run (asserted in
/// tests).
///
/// On resume the caller re-feeds the *full* pair stream: the first
/// `cursor` pairs are buffered for the final chaining pass (which needs
/// every pair) but not re-anchored or re-charged.
#[derive(Debug, Clone)]
pub struct ScaffoldExec {
    table: PimHashTable,
    sidecar: HashMap<u64, (usize, usize)>,
    contigs: Vec<Contig>,
    k: usize,
    min_support: usize,
    stats: ScaffoldStats,
    pairs: Vec<ReadPair>,
    anchored: u64,
}

impl ScaffoldExec {
    /// Builds the anchor index over `contigs` — every contig k-mer goes
    /// into the PIM table (charged) — and returns an executor ready to
    /// consume pairs. The host-side sidecar mapping k-mer → (contig,
    /// offset) mirrors the payload hardware keeps in adjacent value rows;
    /// it is a pure function of the contigs, so it is rebuilt rather than
    /// checkpointed.
    ///
    /// # Errors
    ///
    /// DRAM and genome-toolkit errors; the index needs `mapper` capacity
    /// for the distinct contig k-mers.
    pub fn new(
        ctrl: &mut Controller,
        mapper: KmerMapper,
        contigs: Vec<Contig>,
        k: usize,
        min_support: usize,
    ) -> Result<Self> {
        ctrl.set_stage(Stage::Scaffold);
        let mut stats = ScaffoldStats::default();
        let mut table = PimHashTable::new(mapper);
        for c in &contigs {
            for kmer in KmerIter::new(c.sequence(), k)? {
                table.insert(ctrl, kmer)?;
                stats.index_kmers += 1;
            }
        }
        Self::with_index(table, contigs, k, min_support, stats, 0)
    }

    /// Assembles an executor around a loaded anchor index, rebuilding the
    /// sidecar from `contigs`.
    fn with_index(
        table: PimHashTable,
        contigs: Vec<Contig>,
        k: usize,
        min_support: usize,
        stats: ScaffoldStats,
        anchored: u64,
    ) -> Result<Self> {
        let mut sidecar: HashMap<u64, (usize, usize)> = HashMap::new();
        for (ci, c) in contigs.iter().enumerate() {
            for (off, kmer) in KmerIter::new(c.sequence(), k)?.enumerate() {
                sidecar.entry(kmer.packed()).or_insert((ci, off));
            }
        }
        Ok(ScaffoldExec {
            table,
            sidecar,
            contigs,
            k,
            min_support,
            stats,
            pairs: Vec::new(),
            anchored,
        })
    }

    /// Anchors (and buffers) one chunk of pairs. Pairs below the resume
    /// cursor are buffered only — their anchor queries already ran and
    /// were charged before the checkpoint.
    ///
    /// # Errors
    ///
    /// DRAM addressing errors from the anchor probes.
    pub fn feed(&mut self, ctrl: &mut Controller, chunk: &[ReadPair]) -> Result<()> {
        for p in chunk {
            let idx = self.pairs.len() as u64;
            if idx >= self.anchored {
                let a = self.anchor(ctrl, &p.r1.seq)?;
                let b = self.anchor(ctrl, &p.r2.seq)?;
                self.stats.anchor_queries += 2;
                if a.is_some() && b.is_some() {
                    self.stats.pairs_anchored += 1;
                }
                self.anchored = idx + 1;
            }
            self.pairs.push(p.clone());
        }
        Ok(())
    }

    /// Anchors a read by its first k-mer through a charged PIM lookup.
    fn anchor(
        &mut self,
        ctrl: &mut Controller,
        seq: &pim_genome::DnaSequence,
    ) -> Result<Option<(usize, usize)>> {
        if seq.len() < self.k {
            return Ok(None);
        }
        let kmer = Kmer::from_sequence(seq, 0, self.k)?;
        let count = self.table.count(ctrl, &kmer)?;
        if Dpu::is_zero(ctrl, count) {
            Ok(None)
        } else {
            Ok(self.sidecar.get(&kmer.packed()).copied())
        }
    }

    /// Link voting + chaining over every buffered pair (DPU scalar work,
    /// one op per anchored pair and per contig).
    ///
    /// # Errors
    ///
    /// Genome-toolkit errors from the software chaining pass.
    pub fn finish(mut self, ctrl: &mut Controller) -> Result<(Vec<Scaffold>, ScaffoldStats)> {
        ctrl.record_metric(Metric::ScaffoldAnchors, self.stats.pairs_anchored);
        ctrl.dpu_ops(self.stats.pairs_anchored + self.contigs.len() as u64);
        let scaffolds =
            Scaffolder::new(self.k, self.min_support).scaffold(&self.contigs, &self.pairs)?;
        self.stats.scaffolds = scaffolds.len() as u64;
        Ok((scaffolds, self.stats))
    }

    /// Serializes the resume state into `cp`: the anchor index (list
    /// `scaffold_index`), its statistics and the stage counters. Reads
    /// device state through the uncharged debug port only.
    ///
    /// # Errors
    ///
    /// DRAM addressing errors while exporting device state.
    pub fn save(
        &self,
        ctrl: &mut Controller,
        cp: &mut crate::checkpoint::StageCheckpoint,
    ) -> Result<()> {
        self.table.save_entries(ctrl, cp, "scaffold_index")?;
        self.table.stats().save(cp, "scaffold.index");
        cp.fields.insert("scaffold.index_kmers".into(), self.stats.index_kmers);
        cp.fields.insert("scaffold.anchor_queries".into(), self.stats.anchor_queries);
        cp.fields.insert("scaffold.pairs_anchored".into(), self.stats.pairs_anchored);
        Ok(())
    }

    /// Reconstructs an executor from a checkpoint written by
    /// [`ScaffoldExec::save`]: the anchor index is restored through the
    /// uncharged debug port, the sidecar rebuilt purely from `contigs`,
    /// and the anchor cursor picks up where it left off.
    ///
    /// # Errors
    ///
    /// [`crate::error::PimError::Checkpoint`] on a malformed payload;
    /// DRAM addressing errors while restoring rows.
    pub fn restore(
        ctrl: &mut Controller,
        mapper: KmerMapper,
        contigs: Vec<Contig>,
        k: usize,
        min_support: usize,
        cp: &crate::checkpoint::StageCheckpoint,
    ) -> Result<Self> {
        ctrl.set_stage(Stage::Scaffold);
        let entries = PimHashTable::load_entries(cp, "scaffold_index", k)?;
        let table = PimHashTable::restore_entries(
            mapper,
            crate::ir::BackendKind::PimAssembler,
            crate::ir::OptLevel::O0,
            ctrl,
            &entries,
            HashStats::load(cp, "scaffold.index"),
        )?;
        let stats = ScaffoldStats {
            index_kmers: cp.field("scaffold.index_kmers"),
            anchor_queries: cp.field("scaffold.anchor_queries"),
            pairs_anchored: cp.field("scaffold.pairs_anchored"),
            scaffolds: 0,
        };
        Self::with_index(table, contigs, k, min_support, stats, cp.cursor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_dram::geometry::DramGeometry;
    use pim_genome::scaffold::simulate_pairs;
    use pim_genome::sequence::DnaSequence;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup(genome_len: usize, seed: u64) -> (Controller, DnaSequence, ChaCha8Rng) {
        let g = DramGeometry::paper_assembly();
        let ctrl = Controller::new(g);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let genome = DnaSequence::random(&mut rng, genome_len);
        (ctrl, genome, rng)
    }

    #[test]
    fn pim_scaffolds_match_software_scaffolder() {
        let (mut ctrl, genome, mut rng) = setup(3000, 50);
        let contigs = vec![
            Contig::new(genome.subsequence(0, 1400)),
            Contig::new(genome.subsequence(1500, 1400)),
        ];
        let pairs = simulate_pairs(&genome, 60, 400, 600, &mut rng);
        let mapper = KmerMapper::new(ctrl.geometry(), 8, 8);
        let (pim_scaffolds, stats) =
            ScaffoldStage::run(&mut ctrl, mapper, &contigs, &pairs, 17, 3).unwrap();
        let soft = Scaffolder::new(17, 3).scaffold(&contigs, &pairs).unwrap();
        assert_eq!(pim_scaffolds, soft);
        assert_eq!(stats.scaffolds, 1);
        assert!(stats.pairs_anchored > 0);
        assert_eq!(stats.anchor_queries, 2 * pairs.len() as u64);
    }

    #[test]
    fn anchoring_is_charged_on_the_controller() {
        let (mut ctrl, genome, mut rng) = setup(2000, 51);
        let contigs = vec![Contig::new(genome.subsequence(0, 1800))];
        let pairs = simulate_pairs(&genome, 50, 300, 50, &mut rng);
        let before = *ctrl.stats();
        let mapper = KmerMapper::new(ctrl.geometry(), 8, 8);
        let (_, stats) = ScaffoldStage::run(&mut ctrl, mapper, &contigs, &pairs, 15, 3).unwrap();
        let d = ctrl.stats().since(&before);
        // Index build + two anchor probes per pair all issue real commands.
        assert!(
            d.aap2 >= stats.anchor_queries,
            "probes {} < queries {}",
            d.aap2,
            stats.anchor_queries
        );
        assert!(d.aap > stats.index_kmers, "index build must clone rows");
    }

    #[test]
    fn links_follow_read_pair_orientation() {
        // Pairs are sampled left→right (r1 upstream, r2 downstream), so a
        // genome split into [contig 0 | gap | contig 1] must chain 0 → 1,
        // never the reverse.
        let (mut ctrl, genome, mut rng) = setup(3000, 53);
        let contigs = vec![
            Contig::new(genome.subsequence(0, 1400)),
            Contig::new(genome.subsequence(1500, 1400)),
        ];
        let pairs = simulate_pairs(&genome, 60, 400, 600, &mut rng);
        let mapper = KmerMapper::new(ctrl.geometry(), 8, 8);
        let (scaffolds, _) =
            ScaffoldStage::run(&mut ctrl, mapper, &contigs, &pairs, 17, 3).unwrap();
        let chained: Vec<_> = scaffolds.iter().filter(|s| s.contigs.len() > 1).collect();
        assert_eq!(chained.len(), 1, "expected exactly one multi-contig scaffold");
        assert_eq!(chained[0].contigs, vec![0, 1], "link orientation must follow pair direction");
    }

    #[test]
    fn tie_breaking_is_deterministic_under_shuffled_insertion() {
        use rand::Rng;
        // Fisher–Yates (the vendored rand has no slice shuffle).
        fn shuffle<T>(items: &mut [T], rng: &mut ChaCha8Rng) {
            for i in (1..items.len()).rev() {
                let j = rng.gen_range(0..=i);
                items.swap(i, j);
            }
        }
        // Three contigs with equal-support competing links: the scaffold
        // output must not depend on the order pairs arrive in.
        let (mut ctrl, genome, mut rng) = setup(5000, 54);
        let contigs = vec![
            Contig::new(genome.subsequence(0, 1400)),
            Contig::new(genome.subsequence(1500, 1400)),
            Contig::new(genome.subsequence(3000, 1400)),
        ];
        let mut pairs = simulate_pairs(&genome, 60, 400, 800, &mut rng);
        let mapper = KmerMapper::new(ctrl.geometry(), 8, 8);
        let (reference, _) =
            ScaffoldStage::run(&mut ctrl, mapper, &contigs, &pairs, 17, 3).unwrap();
        for round in 0..3 {
            shuffle(&mut pairs, &mut rng);
            let g = DramGeometry::paper_assembly();
            let mut ctrl = Controller::new(g);
            let mapper = KmerMapper::new(ctrl.geometry(), 8, 8);
            let (shuffled, _) =
                ScaffoldStage::run(&mut ctrl, mapper, &contigs, &pairs, 17, 3).unwrap();
            assert_eq!(shuffled, reference, "round {round}: pair order changed the scaffolds");
        }
    }

    #[test]
    fn chunked_exec_with_mid_stream_restore_matches_one_shot() {
        let (mut ctrl_a, genome, mut rng) = setup(3000, 50);
        let contigs = vec![
            Contig::new(genome.subsequence(0, 1400)),
            Contig::new(genome.subsequence(1500, 1400)),
        ];
        let pairs = simulate_pairs(&genome, 60, 400, 600, &mut rng);
        let mapper = KmerMapper::new(ctrl_a.geometry(), 8, 8);
        let (reference, stats_ref) =
            ScaffoldStage::run(&mut ctrl_a, mapper, &contigs, &pairs, 17, 3).unwrap();

        // The same pair stream in chunks of 7, with a kill + restore onto
        // a fresh controller mid-stream.
        let g = DramGeometry::paper_assembly();
        let mut ctrl_b = Controller::new(g);
        let mut exec =
            ScaffoldExec::new(&mut ctrl_b, KmerMapper::new(&g, 8, 8), contigs.clone(), 17, 3)
                .unwrap();
        let mid = pairs.len() / 2;
        for chunk in pairs[..mid].chunks(7) {
            exec.feed(&mut ctrl_b, chunk).unwrap();
        }
        let mut cp = crate::checkpoint::StageCheckpoint::new("fp", "scaffold", exec.anchored);
        exec.save(&mut ctrl_b, &mut cp).unwrap();
        assert_eq!(cp.cursor, mid as u64);
        let saved_global = *ctrl_b.global_ledger();
        let saved_subs: Vec<_> = ctrl_b
            .touched_subarrays()
            .map(|id| (id, *ctrl_b.subarray_ledger(id).unwrap()))
            .collect();
        drop(ctrl_b);

        let mut ctrl_c = Controller::new(g);
        let mut exec =
            ScaffoldExec::restore(&mut ctrl_c, KmerMapper::new(&g, 8, 8), contigs, 17, 3, &cp)
                .unwrap();
        ctrl_c.restore_accounting(saved_global, &saved_subs).unwrap();
        // Re-feed the full stream under a different chunking: pairs below
        // the cursor are buffered but not re-anchored.
        for chunk in pairs.chunks(11) {
            exec.feed(&mut ctrl_c, chunk).unwrap();
        }
        let (scaffolds, stats) = exec.finish(&mut ctrl_c).unwrap();
        assert_eq!(scaffolds, reference);
        assert_eq!(stats, stats_ref);
        assert_eq!(*ctrl_c.stats(), *ctrl_a.stats());
    }

    #[test]
    fn empty_contig_set_yields_no_scaffolds() {
        let (mut ctrl, genome, mut rng) = setup(2000, 55);
        let pairs = simulate_pairs(&genome, 50, 300, 40, &mut rng);
        let mapper = KmerMapper::new(ctrl.geometry(), 8, 8);
        let (scaffolds, stats) = ScaffoldStage::run(&mut ctrl, mapper, &[], &pairs, 15, 3).unwrap();
        assert!(scaffolds.is_empty());
        assert_eq!(stats.index_kmers, 0);
        assert_eq!(stats.pairs_anchored, 0);
        assert_eq!(stats.scaffolds, 0);
        // Queries were still issued (and charged) against the empty index.
        assert_eq!(stats.anchor_queries, 2 * pairs.len() as u64);
    }

    #[test]
    fn unanchorable_pairs_are_counted_out() {
        let (mut ctrl, genome, mut rng) = setup(2000, 52);
        let contigs = vec![Contig::new(genome.subsequence(0, 900))];
        // Pairs drawn from a different genome anchor nowhere.
        let other = DnaSequence::random(&mut rng, 2000);
        let pairs = simulate_pairs(&other, 50, 300, 40, &mut rng);
        let mapper = KmerMapper::new(ctrl.geometry(), 8, 8);
        let (scaffolds, stats) =
            ScaffoldStage::run(&mut ctrl, mapper, &contigs, &pairs, 15, 3).unwrap();
        assert_eq!(stats.pairs_anchored, 0);
        assert_eq!(scaffolds.len(), 1); // the lone contig stands alone
    }
}
