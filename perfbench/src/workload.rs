//! The three workloads, their generated inputs and reference outputs.
//!
//! Inputs come from `DnaSequence::random` and `ReadSimulator` under the
//! benchmark's seed; only the generated reads (and, for mapping, the
//! reference sequence) reach the program. Reference outputs come from the
//! software implementations in `pim-genome` / `pim_assembler`, computed
//! once per seed outside any timing.

use pim_assembler::config::PimAssemblerConfig;
use pim_assembler::mapping_stage::{software_map, MappingConfig, MappingHit};
use pim_genome::assemble::{AssemblyConfig, SoftwareAssembler};
use pim_genome::contig::Contig;
use pim_genome::reads::{Read, ReadSimulator};
use pim_genome::sequence::DnaSequence;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// An assembly workload: one genome's reads through the three-stage
/// pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsmSpec {
    /// Genome length (bases).
    pub genome_len: usize,
    /// Read length (bases); reads are error-free.
    pub read_len: usize,
    /// Read coverage depth.
    pub coverage: f64,
    /// k-mer length.
    pub k: usize,
    /// Sub-arrays of the hash-table partition (sets the hash load).
    pub hash_subarrays: usize,
    /// Dispatcher worker threads.
    pub workers: usize,
    /// Reads per `Session::feed` call; `None` feeds the whole set at once.
    pub chunk_reads: Option<usize>,
    /// Checkpoint after every chunk, drop the session and its assembler
    /// after the midpoint chunk, resume on a new one and re-feed the
    /// stream.
    pub kill_and_resume: bool,
}

impl AsmSpec {
    /// The platform configuration of one pass.
    pub fn config(&self, observe: bool) -> PimAssemblerConfig {
        let base = PimAssemblerConfig::paper(self.k)
            .with_hash_subarrays(self.hash_subarrays)
            .with_workers(self.workers)
            .with_observability(observe);
        match self.chunk_reads {
            Some(n) => base.with_chunk_reads(n).expect("workload chunk sizes are nonzero"),
            None => base,
        }
    }

    /// The one-shot configuration whose results a streamed run must equal
    /// byte for byte: same k and partition, one chunk, one worker.
    pub fn one_shot_config(&self) -> PimAssemblerConfig {
        PimAssemblerConfig::paper(self.k).with_hash_subarrays(self.hash_subarrays)
    }
}

/// A read-mapping workload: error-carrying reads against a reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MapSpec {
    /// Reference length (bases).
    pub genome_len: usize,
    /// Read length (bases).
    pub read_len: usize,
    /// Read coverage depth.
    pub coverage: f64,
    /// Per-base substitution rate of the simulated reads.
    pub error_rate: f64,
    /// Sub-arrays holding the seed index.
    pub subarrays: usize,
    /// Hash-bucket granularity of the seed index.
    pub bucket_rows: usize,
    /// Dispatcher worker threads.
    pub workers: usize,
}

impl MapSpec {
    /// The mapping algorithm parameters (the library default).
    pub fn mapping(&self) -> MappingConfig {
        MappingConfig::default()
    }

    /// A stable description of the fields that shape mapping results (the
    /// mapping counterpart of `PimAssemblerConfig::fingerprint`).
    pub fn fingerprint(&self) -> String {
        let m = self.mapping();
        format!(
            "map:seed{}:band{}:mm{}:len{}:subs{}:br{}",
            m.seed_len,
            m.band,
            m.max_mismatch_bits,
            self.read_len,
            self.subarrays,
            self.bucket_rows
        )
    }
}

/// What a workload runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Genome assembly.
    Assembly(AsmSpec),
    /// Read mapping.
    Mapping(MapSpec),
}

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name used on the command line and, for a gated workload, in
    /// `BENCHMARK.json`.
    pub name: &'static str,
    /// What it runs.
    pub kind: Kind,
}

/// The benchmark's workloads. Sizes keep one pass near a second on a
/// 2-vCPU host; see the README for why each was chosen.
pub fn standard() -> [Workload; 3] {
    [
        // The paper's one-shot run at a low hash load (~23%): the report's
        // scheduler and k-mer ingest dominate; pool and checkpoints idle.
        // Not gated in `BENCHMARK.json`: its host time drifts beyond the
        // bounds between runs of the same code (see the README).
        Workload {
            name: "asm-batch",
            kind: Kind::Assembly(AsmSpec {
                genome_len: 30_000,
                read_len: 101,
                coverage: 10.0,
                k: 17,
                hash_subarrays: 128,
                workers: 1,
                chunk_reads: None,
                kill_and_resume: false,
            }),
        },
        // Streamed, checkpointed and resumed at a high hash load (~77%):
        // probe chains, the pool's per-chunk barrier and checkpoint I/O
        // dominate; the scheduler sees only 17 queues.
        Workload {
            name: "asm-stream",
            kind: Kind::Assembly(AsmSpec {
                genome_len: 12_000,
                read_len: 101,
                coverage: 20.0,
                k: 17,
                hash_subarrays: 16,
                workers: 2,
                chunk_reads: Some(64),
                kill_and_resume: true,
            }),
        },
        // The second workload on the same fabric: seeding, Hamming filter
        // and bit-serial DP; no hashmap, graph, schedule or checkpoint.
        Workload {
            name: "map-dp",
            kind: Kind::Mapping(MapSpec {
                genome_len: 3_000,
                read_len: 64,
                coverage: 10.0,
                error_rate: 0.02,
                subarrays: 16,
                bucket_rows: 8,
                workers: 1,
            }),
        },
    ]
}

/// Looks a standard workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    standard().into_iter().find(|w| w.name == name)
}

/// Generated inputs of one workload at one seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The genome the reads were sampled from (the mapping reference).
    pub genome: DnaSequence,
    /// The reads.
    pub reads: Vec<Read>,
    /// FNV-1a digest of what reaches the program: the reads, plus the
    /// reference sequence for mapping.
    pub digest: u64,
}

/// Generates a workload's inputs from `seed`.
pub fn generate(kind: &Kind, seed: u64) -> Inputs {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let (genome_len, read_len, coverage, error_rate) = match kind {
        Kind::Assembly(s) => (s.genome_len, s.read_len, s.coverage, 0.0),
        Kind::Mapping(s) => (s.genome_len, s.read_len, s.coverage, s.error_rate),
    };
    let genome = DnaSequence::random(&mut rng, genome_len);
    let reads = ReadSimulator::new(read_len, coverage)
        .with_error_rate(error_rate)
        .simulate(&genome, &mut rng);
    let mut digest = Fnv::new();
    if matches!(kind, Kind::Mapping(_)) {
        digest.sequence(&genome);
    }
    for read in &reads {
        digest.sequence(&read.seq);
    }
    Inputs { genome, reads, digest: digest.0 }
}

/// Reference outputs the program's results must equal.
#[derive(Debug, Clone, PartialEq)]
pub enum Reference {
    /// The software assembler's contigs as a sorted multiset.
    Contigs(Vec<String>),
    /// The software mapper's per-read hits.
    Hits(Vec<Option<MappingHit>>),
}

/// Computes the reference outputs for `inputs`.
pub fn reference(kind: &Kind, inputs: &Inputs) -> Reference {
    match kind {
        Kind::Assembly(s) => {
            let soft = SoftwareAssembler::new(AssemblyConfig::new(s.k)).assemble(&inputs.reads);
            Reference::Contigs(contig_multiset(&soft.contigs))
        }
        Kind::Mapping(s) => {
            Reference::Hits(software_map(&inputs.genome, &inputs.reads, s.read_len, &s.mapping()))
        }
    }
}

/// Contigs as a sorted multiset of sequences (contig order is not part of
/// the assembler's contract).
pub fn contig_multiset(contigs: &[Contig]) -> Vec<String> {
    let mut out: Vec<String> = contigs.iter().map(|c| c.to_string()).collect();
    out.sort();
    out
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn sequence(&mut self, seq: &DnaSequence) {
        self.bytes(&(seq.len() as u64).to_le_bytes());
        self.bytes(seq.as_packed_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let kind = by_name("map-dp").unwrap().kind;
        let (a, b, c) = (generate(&kind, 5), generate(&kind, 5), generate(&kind, 6));
        assert_eq!(a.reads, b.reads);
        assert_eq!(a.digest, b.digest);
        assert_ne!(a.digest, c.digest);
    }

    #[test]
    fn workload_names_are_unique() {
        let names: Vec<_> = standard().iter().map(|w| w.name).collect();
        assert!(names.iter().all(|n| by_name(n).is_some()));
        assert_eq!(names, ["asm-batch", "asm-stream", "map-dp"]);
    }
}
