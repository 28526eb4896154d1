//! Ablation of the correlated data mapping (Fig. 6): bucketed hashing vs a
//! naive single-bucket layout. The naive layout scans linearly from row 0,
//! so each query pays O(occupancy) `PIM_XNOR` probes instead of O(bucket).
//! Host time tracks the probe count, and the probe counters themselves are
//! asserted in the integration tests.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use pim_assembler::dispatch::ParallelDispatcher;
use pim_assembler::hashmap_stage::PimHashTable;
use pim_assembler::mapping::KmerMapper;
use pim_dram::controller::Controller;
use pim_dram::geometry::DramGeometry;
use pim_genome::kmer::{Kmer, KmerIter};
use pim_genome::sequence::DnaSequence;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn sequence() -> DnaSequence {
    let mut rng = ChaCha8Rng::seed_from_u64(21);
    DnaSequence::random(&mut rng, 1500)
}

fn run_with_bucket_rows(seq: &DnaSequence, bucket_rows: usize) -> u64 {
    let g = DramGeometry::paper_assembly();
    let mut ctrl = Controller::new(g);
    let mut table = PimHashTable::new(KmerMapper::new(&g, 4, bucket_rows));
    let kmers: Vec<Kmer> = KmerIter::new(seq, 13).unwrap().collect();
    table.insert(&mut ctrl, &ParallelDispatcher::serial(), &kmers).unwrap();
    table.stats().probes
}

fn bench_correlated_mapping(c: &mut Criterion) {
    let seq = sequence();
    c.bench_function("correlated_bucketed_mapping_8_rows", |b| {
        b.iter(|| black_box(run_with_bucket_rows(&seq, 8)))
    });
}

fn bench_naive_mapping(c: &mut Criterion) {
    let seq = sequence();
    // One giant bucket: every query scans from the region start.
    let giant = 976;
    c.bench_function("naive_single_bucket_mapping", |b| {
        b.iter(|| black_box(run_with_bucket_rows(&seq, giant)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_correlated_mapping, bench_naive_mapping
}
criterion_main!(benches);
