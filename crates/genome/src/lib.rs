#![warn(missing_docs)]
//! # pim-genome
//!
//! A from-scratch genome-assembly toolkit implementing the algorithm stack
//! of the PIM-Assembler paper (Fig. 5): short-read analysis, k-mer hash-table
//! construction, bidirected de Bruijn graph construction, and Eulerian
//! traversal into contigs.
//!
//! The toolkit is pure software; the `pim-assembler` crate maps these same
//! algorithms onto the processing-in-DRAM platform and uses this crate as
//! its correctness oracle.
//!
//! * [`base`] / [`sequence`] — 2-bit packed DNA (T=00, G=01, A=10, C=11, the
//!   encoding of Fig. 7),
//! * [`fasta`] / [`fastq`] — minimal FASTA and FASTQ I/O for interchange,
//! * [`reads`] — uniform short-read simulator with an optional substitution
//!   error model (the paper samples 45.7 M × 101 bp reads from chr14);
//!   [`simulate`] plants repeat families into synthetic genomes,
//! * [`correction`] — k-mer-spectrum read error correction (extension),
//! * [`kmer`] — packed k-mers (k ≤ 32) and iterators,
//! * [`hash_table`] — the `Hashmap(S, k)` procedure of Fig. 5b as an
//!   open-addressing counting table,
//! * [`debruijn`] — the `DeBruijn(Hashmap, k)` graph-construction procedure,
//! * [`simplify`] — tip clipping and bubble popping on the graph,
//! * [`euler`] — `Traverse(G)`: Fleury (as the paper names) and Hierholzer
//!   Eulerian-path algorithms,
//! * [`contig`] / [`stats`] — contig spelling and assembly metrics (N50 …);
//!   [`align`] — banded global alignment for validating contigs,
//! * [`assemble`] — the end-to-end software assembler.
//!
//! ## Example
//!
//! ```
//! use pim_genome::{assemble::{SoftwareAssembler, AssemblyConfig}, reads::ReadSimulator,
//!                  sequence::DnaSequence};
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let genome = DnaSequence::random(&mut rng, 2000);
//! let reads = ReadSimulator::new(80, 30.0).simulate(&genome, &mut rng);
//! let asm = SoftwareAssembler::new(AssemblyConfig::new(21)).assemble(&reads);
//! assert!(asm.stats.total_length >= 1900); // genome essentially recovered
//! ```

pub mod align;
pub mod assemble;
pub mod base;
pub mod contig;
pub mod correction;
pub mod debruijn;
pub mod error;
pub mod euler;
pub mod fasta;
pub mod fastq;
pub mod hash_table;
pub mod kmer;
pub mod reads;
pub mod sequence;
pub mod simplify;
pub mod simulate;
pub mod stats;

pub use assemble::{Assembly, AssemblyConfig, SoftwareAssembler};
pub use base::DnaBase;
pub use contig::Contig;
pub use debruijn::DeBruijnGraph;
pub use error::{GenomeError, Result};
pub use hash_table::KmerCounter;
pub use kmer::Kmer;
pub use reads::{Read, ReadSimulator};
pub use sequence::DnaSequence;
pub use stats::AssemblyStats;
