//! Correlated data partitioning and mapping (Fig. 6, contribution 3).
//!
//! K-mers hash-partition across the allocated sub-arrays so that "correlated
//! regions of k-mer vectors … and value vectors [are stored] in the same
//! sub-array", letting every query be answered by purely local row
//! comparisons. Within a sub-array, a second hash selects a *bucket* (a
//! small contiguous row range) so that the linear scan of Fig. 7 stays
//! short; buckets overflow into their neighbours (open addressing at row
//! granularity).

use pim_dram::address::SubarrayId;
use pim_dram::bitrow::BitRow;
use pim_dram::geometry::DramGeometry;
use pim_genome::kmer::Kmer;

use crate::layout::SubarrayLayout;

/// Maps k-mers to (sub-array, bucket) homes.
///
/// # Examples
///
/// ```
/// use pim_assembler::{mapping::KmerMapper, layout::SubarrayLayout};
/// use pim_dram::geometry::DramGeometry;
///
/// let g = DramGeometry::paper_assembly();
/// let mapper = KmerMapper::new(&g, 8, 8);
/// let kmer: pim_genome::Kmer = "ACGTACGTACGTACGT".parse()?;
/// let (sub, bucket_row) = mapper.home(&kmer);
/// assert!(sub < 8);
/// assert!(bucket_row < SubarrayLayout::new(&g).kmer_rows());
/// # Ok::<(), pim_genome::GenomeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct KmerMapper {
    geometry: DramGeometry,
    subarrays: Vec<SubarrayId>,
    layout: SubarrayLayout,
    bucket_rows: usize,
    buckets_per_subarray: usize,
}

impl KmerMapper {
    /// Allocates the first `num_subarrays` sub-arrays (linear order) as the
    /// hash partition, with `bucket_rows` rows per bucket.
    ///
    /// # Panics
    ///
    /// Panics if `num_subarrays` is 0 or exceeds the geometry, or if
    /// `bucket_rows` is 0.
    pub fn new(geometry: &DramGeometry, num_subarrays: usize, bucket_rows: usize) -> Self {
        assert!(
            num_subarrays >= 1 && num_subarrays <= geometry.total_subarrays(),
            "bad sub-array count"
        );
        assert!(bucket_rows >= 1, "bucket must have at least one row");
        let layout = SubarrayLayout::new(geometry);
        let subarrays =
            (0..num_subarrays).map(|i| SubarrayId::from_linear_index(geometry, i)).collect();
        let buckets_per_subarray = (layout.kmer_rows() / bucket_rows).max(1);
        KmerMapper { geometry: *geometry, subarrays, layout, bucket_rows, buckets_per_subarray }
    }

    /// The geometry the partition and layout were derived from.
    pub fn geometry(&self) -> &DramGeometry {
        &self.geometry
    }

    /// The allocated sub-array handles.
    pub fn subarrays(&self) -> &[SubarrayId] {
        &self.subarrays
    }

    /// The shared row layout.
    pub fn layout(&self) -> &SubarrayLayout {
        &self.layout
    }

    /// Rows per bucket.
    pub fn bucket_rows(&self) -> usize {
        self.bucket_rows
    }

    /// Total k-mer capacity across the partition.
    pub fn capacity(&self) -> usize {
        self.subarrays.len() * self.layout.kmer_rows()
    }

    /// Home of a k-mer: `(sub-array index, bucket start row)`.
    pub fn home(&self, kmer: &Kmer) -> (usize, usize) {
        let h = mix(kmer.packed());
        let sub = (h % self.subarrays.len() as u64) as usize;
        let bucket = ((h >> 32) % self.buckets_per_subarray as u64) as usize;
        (sub, bucket * self.bucket_rows)
    }

    /// The row image of a k-mer: 2 bits per base (Fig. 7 encoding), LSB
    /// first, zero-padded to the row width — "each row stores up to
    /// 128 bps".
    pub fn row_image(&self, kmer: &Kmer, cols: usize) -> BitRow {
        let mut out = BitRow::zeros(cols);
        self.row_image_into(kmer, &mut out);
        out
    }

    /// Reloads `out` (an existing row-width buffer) with the image of
    /// `kmer` — the allocation-free form of [`KmerMapper::row_image`] the
    /// per-k-mer stage loops use. The 2-bit base encoding is exactly the
    /// k-mer's packed representation, so this is one masked word store.
    pub fn row_image_into(&self, kmer: &Kmer, out: &mut BitRow) {
        out.load_u64(kmer.packed(), 2 * kmer.k());
    }
}

/// splitmix64 finalizer: uniform sub-array/bucket spreading.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_genome::sequence::DnaSequence;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn mapper() -> KmerMapper {
        KmerMapper::new(&DramGeometry::paper_assembly(), 8, 8)
    }

    #[test]
    fn homes_are_in_range_and_bucket_aligned() {
        let m = mapper();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..200 {
            let seq = DnaSequence::random(&mut rng, 16);
            let kmer = Kmer::from_sequence(&seq, 0, 16).unwrap();
            let (sub, row) = m.home(&kmer);
            assert!(sub < 8);
            assert!(row < m.layout().kmer_rows());
            assert_eq!(row % m.bucket_rows(), 0);
        }
    }

    #[test]
    fn homes_are_deterministic() {
        let m = mapper();
        let kmer: Kmer = "ACGTACGTACGTACGT".parse().unwrap();
        assert_eq!(m.home(&kmer), m.home(&kmer));
    }

    #[test]
    fn distribution_spreads_over_subarrays() {
        let m = mapper();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut counts = [0usize; 8];
        for _ in 0..4000 {
            let seq = DnaSequence::random(&mut rng, 16);
            let kmer = Kmer::from_sequence(&seq, 0, 16).unwrap();
            counts[m.home(&kmer).0] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((300..700).contains(&c), "sub-array {i} got {c} of 4000");
        }
    }

    #[test]
    fn row_image_round_trips_the_kmer_bits() {
        let m = mapper();
        let kmer: Kmer = "TGAC".parse().unwrap(); // codes 00 01 10 11
        let img = m.row_image(&kmer, 256);
        assert_eq!(img.len(), 256);
        // First 8 bits are the packed codes, LSB first per base.
        assert_eq!(img.extract(0, 8).to_u64(), kmer.packed());
        // The padding is zero.
        assert!(img.extract(8, 248).all_zeros());
    }

    #[test]
    fn row_image_into_matches_per_bit_packing_and_clears_stale_bits() {
        let m = mapper();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut out = BitRow::ones(256); // stale content must be cleared
        for len in [4usize, 11, 16, 32] {
            let seq = DnaSequence::random(&mut rng, len);
            let kmer = Kmer::from_sequence(&seq, 0, len).unwrap();
            let reference = BitRow::from_bits(kmer.to_sequence().to_row_bits(128));
            m.row_image_into(&kmer, &mut out);
            assert_eq!(out, reference, "k={len}");
            assert_eq!(out, m.row_image(&kmer, 256), "k={len}");
        }
    }

    #[test]
    fn capacity_scales_with_subarrays() {
        let g = DramGeometry::paper_assembly();
        let small = KmerMapper::new(&g, 4, 8);
        let large = KmerMapper::new(&g, 16, 8);
        assert_eq!(large.capacity(), 4 * small.capacity());
    }
}
