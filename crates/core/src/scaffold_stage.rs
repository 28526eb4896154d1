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
use pim_genome::DnaSequence;
use pim_obsv::{Metric, Stage};

use crate::dispatch::ParallelDispatcher;
use crate::dpu::Dpu;
use crate::error::{PimError, Result};
use crate::hashmap_stage::PimHashTable;
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
    /// Builds the anchor index from `contigs` (every contig k-mer goes
    /// into the PIM table, charged), anchors both mates of every pair,
    /// and chains supported links into scaffolds (DPU scalar work, one op
    /// per anchored pair and per contig). The host-side sidecar mapping
    /// k-mer → (contig, offset) mirrors the payload hardware keeps in
    /// adjacent value rows.
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
        ctrl.set_stage(Stage::Scaffold);
        let mut stats = ScaffoldStats::default();
        let mut table = PimHashTable::new(mapper);
        let mut sidecar: HashMap<u64, (usize, usize)> = HashMap::new();
        let mut kmers = Vec::new();
        for (ci, c) in contigs.iter().enumerate() {
            for (off, kmer) in KmerIter::new(c.sequence(), k)?.enumerate() {
                kmers.push(kmer);
                sidecar.entry(kmer.packed()).or_insert((ci, off));
            }
        }
        table.insert(ctrl, &ParallelDispatcher::serial(), &kmers)?;
        stats.index_kmers = kmers.len() as u64;
        for p in pairs {
            let a = anchor(ctrl, &table, &sidecar, &p.r1.seq, k)?;
            let b = anchor(ctrl, &table, &sidecar, &p.r2.seq, k)?;
            stats.anchor_queries += 2;
            if a.is_some() && b.is_some() {
                stats.pairs_anchored += 1;
            }
        }
        ctrl.record_metric(Metric::ScaffoldAnchors, stats.pairs_anchored);
        ctrl.dpu_ops(stats.pairs_anchored + contigs.len() as u64);
        let scaffolds = Scaffolder::new(k, min_support).scaffold(contigs, pairs)?;
        stats.scaffolds = scaffolds.len() as u64;
        Ok((scaffolds, stats))
    }
}

/// Anchors a read by its first k-mer through a charged PIM lookup on the
/// k-mer's home sub-array, which also charges the DPU's hit decision.
fn anchor(
    ctrl: &mut Controller,
    table: &PimHashTable,
    sidecar: &HashMap<u64, (usize, usize)>,
    seq: &DnaSequence,
    k: usize,
) -> Result<Option<(usize, usize)>> {
    if seq.len() < k {
        return Ok(None);
    }
    let kmer = Kmer::from_sequence(seq, 0, k)?;
    let hit = ctrl.with_context(table.home_subarray(&kmer), |ctx| {
        let count = table.count(ctx, &kmer)?;
        Ok::<_, PimError>(!Dpu::is_zero(ctx, count))
    })?;
    Ok(hit.then(|| sidecar.get(&kmer.packed()).copied()).flatten())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_dram::geometry::DramGeometry;
    use pim_dram::ledger::CommandClass;
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
    fn scaffolding_charges_pinned_per_class_totals() {
        let (mut ctrl, genome, mut rng) = setup(2000, 51);
        ctrl.enable_metrics();
        let contigs = vec![Contig::new(genome.subsequence(0, 1800))];
        let pairs = simulate_pairs(&genome, 50, 300, 50, &mut rng);
        let mapper = KmerMapper::new(ctrl.geometry(), 8, 8);
        let (_, stats) = ScaffoldStage::run(&mut ctrl, mapper, &contigs, &pairs, 15, 3).unwrap();
        assert_eq!(
            stats,
            ScaffoldStats {
                index_kmers: 1786,
                anchor_queries: 100,
                pairs_anchored: 45,
                scaffolds: 1
            }
        );
        // The merged ledger, class by class: (count, ps, fJ). The index
        // build and every anchor probe issue real commands.
        let merged = |class| {
            let t = ctrl.ledger().class(class);
            (t.count, t.time_ps, t.energy_fj)
        };
        assert_eq!(merged(CommandClass::Read), (0, 0, 0));
        assert_eq!(merged(CommandClass::Write), (0, 0, 0));
        assert_eq!(merged(CommandClass::Aap), (11_149, 524_671_940, 23_647_029_000));
        assert_eq!(merged(CommandClass::Aap2), (1_855, 87_296_300, 4_361_105_000));
        assert_eq!(merged(CommandClass::Aap3), (0, 0, 0));
        assert_eq!(merged(CommandClass::Dpu), (2_001, 1_874_937, 40_020_000));
        // Anchor probes run on their k-mer's home sub-array, which is
        // charged their staging and DPU work; the controller keeps only
        // the chaining decisions, one per anchored pair and per contig.
        let global = ctrl.global_ledger();
        assert_eq!(global.total_commands(), global.class(CommandClass::Dpu).count);
        assert_eq!(global.class(CommandClass::Dpu).count, stats.pairs_anchored + 1);
        let snap = ctrl.metrics_snapshot().unwrap();
        for (metric, value) in [
            ("aap", 11_149),
            ("aap2", 1_855),
            ("dpu", 2_001),
            ("hash_inserts", 1_786),
            ("hash_probes", 1_667),
            ("row_activations", 27_863),
            ("scaffold_anchors", 45),
            ("sensed_reads", 1_855),
        ] {
            assert_eq!(snap.counter(&format!("scaffold.{metric}")), value, "scaffold.{metric}");
        }
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
