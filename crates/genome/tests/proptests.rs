//! Property-based tests for the genome toolkit's core invariants.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use pim_genome::assemble::{AssemblyConfig, SoftwareAssembler, Traversal};
use pim_genome::base::DnaBase;
use pim_genome::debruijn::DeBruijnGraph;
use pim_genome::euler::{eulerian_trails, trails_cover_all_edges, EulerAlgorithm};
use pim_genome::fasta::{fasta_records, read_fasta, write_fasta};
use pim_genome::fastq::{fastq_records, read_fastq, write_fastq};
use pim_genome::hash_table::KmerCounter;
use pim_genome::kmer::{Kmer, KmerIter};
use pim_genome::sequence::DnaSequence;
use pim_genome::GenomeError;

fn dna(min: usize, max: usize) -> impl Strategy<Value = DnaSequence> {
    proptest::collection::vec(0u8..4, min..=max)
        .prop_map(|codes| codes.into_iter().map(DnaBase::from_code).collect())
}

proptest! {
    #[test]
    fn sequence_string_roundtrip(seq in dna(0, 200)) {
        let text = seq.to_string();
        let parsed: DnaSequence = text.parse().unwrap();
        prop_assert_eq!(parsed, seq);
    }

    #[test]
    fn reverse_complement_involution(seq in dna(0, 120)) {
        prop_assert_eq!(seq.reverse_complement().reverse_complement(), seq);
    }

    #[test]
    fn kmer_pack_roundtrip(seq in dna(1, 32)) {
        let k = seq.len();
        let kmer = Kmer::from_sequence(&seq, 0, k).unwrap();
        prop_assert_eq!(kmer.to_sequence(), seq);
        prop_assert_eq!(Kmer::from_packed(kmer.packed(), k).unwrap(), kmer);
    }

    #[test]
    fn kmer_counts_sum_to_window_count(seq in dna(16, 200), k in 2usize..=16) {
        let mut c = KmerCounter::new(k).unwrap();
        c.count_sequence(&seq).unwrap();
        let windows = seq.len() + 1 - k;
        prop_assert_eq!(c.total() as usize, windows);
        let from_entries: u64 = c.entries().iter().map(|e| e.count).sum();
        prop_assert_eq!(from_entries as usize, windows);
    }

    #[test]
    fn debruijn_edge_count_equals_distinct_kmers(seq in dna(20, 150), k in 3usize..=10) {
        let mut c = KmerCounter::new(k).unwrap();
        c.count_sequence(&seq).unwrap();
        let g = DeBruijnGraph::from_counter(&c, 1);
        prop_assert_eq!(g.edge_count(), c.distinct());
        // Balance always sums to zero.
        prop_assert_eq!(g.balance().iter().sum::<isize>(), 0);
    }

    #[test]
    fn euler_trails_cover_every_edge_exactly_once(seq in dna(20, 150), k in 3usize..=8) {
        let mut c = KmerCounter::new(k).unwrap();
        c.count_sequence(&seq).unwrap();
        let g = DeBruijnGraph::from_counter(&c, 1);
        for alg in [EulerAlgorithm::Hierholzer, EulerAlgorithm::Fleury] {
            let trails = eulerian_trails(&g, alg);
            prop_assert!(trails_cover_all_edges(&g, &trails), "{:?}", alg);
            // Every consecutive pair in a trail really is a graph edge.
            for t in &trails {
                for w in t.windows(2) {
                    prop_assert!(g.out_edges(w[0]).iter().any(|e| e.to == w[1]));
                }
            }
        }
    }

    #[test]
    fn assembled_contigs_contain_only_input_kmers(seed in 0u64..1000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let genome = DnaSequence::random(&mut rng, 600);
        let k = 15;
        let asm = SoftwareAssembler::new(AssemblyConfig::new(k)).assemble_sequence(&genome).unwrap();
        let mut genomic = std::collections::HashSet::new();
        genomic.extend(KmerIter::new(&genome, k).unwrap().map(|km| km.packed()));
        for c in &asm.contigs {
            for km in KmerIter::new(c.sequence(), k).unwrap() {
                prop_assert!(genomic.contains(&km.packed()), "foreign k-mer {km}");
            }
        }
    }

    #[test]
    fn unitigs_and_euler_cover_same_kmer_set(seed in 0u64..500) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xABCD);
        let genome = DnaSequence::random(&mut rng, 400);
        let k = 13;
        let euler = SoftwareAssembler::new(AssemblyConfig::new(k)).assemble_sequence(&genome).unwrap();
        let unitig = SoftwareAssembler::new(
            AssemblyConfig::new(k).with_traversal(Traversal::Unitigs),
        )
        .assemble_sequence(&genome)
        .unwrap();
        let kmers = |contigs: &[pim_genome::Contig]| {
            let mut s = std::collections::HashSet::new();
            for c in contigs {
                s.extend(KmerIter::new(c.sequence(), k).unwrap().map(|km| km.packed()));
            }
            s
        };
        prop_assert_eq!(kmers(&euler.contigs), kmers(&unitig.contigs));
    }
}

// Small random multigraphs — duplicate k-mers (parallel edges) and
// homopolymers like AAAA (self-loops) included — never panic the simplifier,
// and it only ever removes edges. Pins the walk guards that replaced the
// `in_degree == 1` pop/expect.
proptest! {
    #[test]
    fn simplify_never_panics_on_small_multigraphs(
        packed in proptest::collection::vec(0u64..256, 1..40),
        bound in 1usize..12,
    ) {
        let mut g = DeBruijnGraph::from_kmers(4, std::iter::empty::<Kmer>());
        for &p in &packed {
            g.add_kmer(Kmer::from_packed(p, 4).unwrap(), 1 + p % 5);
        }
        let (clean, _) = pim_genome::simplify::Simplifier::new(bound).simplify(&g);
        prop_assert!(clean.edge_count() <= g.edge_count());
        // Degree bookkeeping of the output stays self-consistent.
        let total_out: usize = (0..clean.node_count()).map(|v| clean.out_degree(v)).sum();
        let total_in: usize = (0..clean.node_count()).map(|v| clean.in_degree(v)).sum();
        prop_assert_eq!(total_out, clean.edge_count());
        prop_assert_eq!(total_in, clean.edge_count());
    }
}

// FASTA/FASTQ readers on random structure: whole short records with loose
// pieces mixed in (record markers, each line end, bases in both cases, IUPAC
// codes, an invalid letter, NUL, a multi-byte character) and stray records,
// one with a multi-byte quality string.
const PIECES: &[&str] =
    &[">", "@", "+", "\n", "\r\n", "\r", "ACGT", "acgt", "gAtC", "N", "rYkM", "X", "\0", "é", " "];
const STRAY: &[&str] = &[">p\nAC\n", "@p\nAC\n+\nII\n", "@p\nAC\n+\né\n"];
const FASTA: &[&str] =
    &[">r1\nACGT\n", ">r2 x\nacgt\nTTGA\n", ">r3\nACNNGT\n", ">gap\nNNNN\n", "\n"];
const FASTQ: &[&str] =
    &["@q1\nACGT\n+\nIIII\n", "@q2 x\nacNNgt\n+q2\n!!II~~\n", "@gap\nNN\n+\nII\n", "\r\n"];

/// A document cut from `records`, and whether it is clean. The first draw
/// sets the share of loose pieces: none (clean records only) up to 7 in 8.
fn document(records: &'static [&'static str]) -> impl Strategy<Value = (bool, String)> {
    proptest::collection::vec(any::<u32>(), 1..24).prop_map(move |draws| {
        let noise = draws[0] % 8;
        let pick = |list: &[&'static str], d: u32| list[(d / 8) as usize % list.len()];
        let text = draws[1..].iter().map(|&d| match d % 8 {
            n if n >= noise => pick(records, d),
            0 => pick(STRAY, d),
            _ => pick(PIECES, d),
        });
        (noise == 0, text.collect())
    })
}

/// One format's readers on `input`: a clean document parses; streaming
/// yields exactly the eager result and stops at its first error, a typed
/// structural or base error; `Ok` records survive a write and re-read.
fn check<'a, T: PartialEq + std::fmt::Debug, I: Iterator<Item = Result<T, GenomeError>>>(
    (clean, input): &'a (bool, String),
    read: impl Fn(&[u8]) -> Result<Vec<T>, GenomeError>,
    stream: impl Fn(&'a [u8]) -> I,
    write: impl Fn(&mut Vec<u8>, &[T]) -> Result<(), GenomeError>,
) -> Result<(), String> {
    let eager = read(input.as_bytes());
    prop_assert!(!clean || eager.is_ok(), "clean document failed: {eager:?}");
    let mut streamed = stream(input.as_bytes());
    prop_assert_eq!(&streamed.by_ref().collect::<Result<Vec<T>, _>>(), &eager);
    prop_assert!(streamed.next().is_none(), "streaming went on after {eager:?}");
    match eager {
        Ok(records) => {
            let mut out = Vec::new();
            write(&mut out, &records).unwrap();
            prop_assert_eq!(read(&out).unwrap(), records);
        }
        Err(e) => prop_assert!(matches!(
            e,
            GenomeError::MalformedFasta { .. }
                | GenomeError::MalformedFastq { .. }
                | GenomeError::InvalidBase { .. }
        )),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn fasta_readers_agree_and_round_trip(doc in document(FASTA)) {
        check(&doc, |b| read_fasta(b), fasta_records, |w, r| write_fasta(w, r))?;
    }

    #[test]
    fn fastq_readers_agree_and_round_trip(doc in document(FASTQ)) {
        check(&doc, |b| read_fastq(b), fastq_records, |w, r| write_fastq(w, r))?;
    }

    #[test]
    fn crlf_line_ends_parse_like_lf(fasta in document(FASTA), fastq in document(FASTQ)) {
        for lf in [fasta.1.replace('\r', ""), fastq.1.replace('\r', "")] {
            let crlf = lf.replace('\n', "\r\n");
            prop_assert_eq!(read_fasta(crlf.as_bytes()), read_fasta(lf.as_bytes()));
            prop_assert_eq!(read_fastq(crlf.as_bytes()), read_fastq(lf.as_bytes()));
        }
    }
}
