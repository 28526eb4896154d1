//! Fixed-array counters and log2 histograms — the zero-allocation record path.

/// One integer metric of the snapshot.
///
/// Metrics fall into three families: DRAM command traffic (the six
/// command classes and the row activations they imply, which `pim-dram`'s
/// controller derives from its integer energy ledgers when it folds a
/// stage, so no command is counted twice), read-path discipline (sensed
/// vs discarded sense-amp read-outs, fault detections), and per-stage
/// algorithmic work (probes, inserts, k-mers, edges, mapping steps). The
/// last two are recorded per event on the hot path, by a sub-array
/// context or by the pipeline stages on a context or the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Metric {
    /// Host-visible row reads (`RD`, sensed).
    HostReads,
    /// Host-visible row writes (`WR`).
    HostWrites,
    /// Type-1 AAP row copies.
    AapCopy,
    /// Type-2 double-row-activation AAPs.
    Aap2,
    /// Type-3 triple-row-activation carry AAPs.
    Aap3,
    /// Scalar DPU operations.
    DpuOps,
    /// Total DRAM row activations implied by the commands above
    /// (RD/WR: 1, AAP: 2, AAP2: 3, AAP3: 4, DPU: 0).
    RowActivations,
    /// Compute results driven through the sense amplifiers back to the host.
    SensedReads,
    /// Compute results discarded at the sense amps (fast path, no read-out).
    DiscardReads,
    /// Bit flips injected by the fault model and observed at a sense.
    FaultFlips,
    /// Hash-table probe comparisons (stage 1).
    HashProbes,
    /// Hash-table insert operations (stage 1).
    HashInserts,
    /// K-mers materialised as graph nodes/edges (stage 2).
    GraphKmers,
    /// Edges consumed by Eulerian traversal (stage 3).
    TraverseEdges,
    /// Reads streamed through the mapping stage.
    MapReads,
    /// Seed-row comparator probes issued by the mapping stage.
    MapSeedProbes,
    /// XNOR match planes computed during Hamming filtering.
    MapMatchPlanes,
    /// Popcount kernel executions over match-plane groups.
    MapPopcountOps,
    /// DP wavefront steps executed during banded alignment refinement.
    MapDpWavefronts,
}

impl Metric {
    /// Every metric, in canonical (serialisation) order.
    pub const ALL: [Metric; 19] = [
        Metric::HostReads,
        Metric::HostWrites,
        Metric::AapCopy,
        Metric::Aap2,
        Metric::Aap3,
        Metric::DpuOps,
        Metric::RowActivations,
        Metric::SensedReads,
        Metric::DiscardReads,
        Metric::FaultFlips,
        Metric::HashProbes,
        Metric::HashInserts,
        Metric::GraphKmers,
        Metric::TraverseEdges,
        Metric::MapReads,
        Metric::MapSeedProbes,
        Metric::MapMatchPlanes,
        Metric::MapPopcountOps,
        Metric::MapDpWavefronts,
    ];

    /// Number of metrics (the fixed counter-array width).
    pub const COUNT: usize = Self::ALL.len();

    /// Stable snapshot key fragment for this metric.
    pub fn name(self) -> &'static str {
        match self {
            Metric::HostReads => "host_reads",
            Metric::HostWrites => "host_writes",
            Metric::AapCopy => "aap",
            Metric::Aap2 => "aap2",
            Metric::Aap3 => "aap3",
            Metric::DpuOps => "dpu",
            Metric::RowActivations => "row_activations",
            Metric::SensedReads => "sensed_reads",
            Metric::DiscardReads => "discard_reads",
            Metric::FaultFlips => "fault_flips",
            Metric::HashProbes => "hash_probes",
            Metric::HashInserts => "hash_inserts",
            Metric::GraphKmers => "graph_kmers",
            Metric::TraverseEdges => "traverse_edges",
            Metric::MapReads => "map_reads",
            Metric::MapSeedProbes => "map_seed_probes",
            Metric::MapMatchPlanes => "map_match_planes",
            Metric::MapPopcountOps => "map_popcount_ops",
            Metric::MapDpWavefronts => "map_dp_wavefronts",
        }
    }

    /// Position in [`Metric::ALL`]: the declaration order, which `ALL`
    /// follows (pinned by a test).
    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

/// A fixed array of [`Metric::COUNT`] integer counters.
///
/// Adds, merges and `since`-deltas are plain integer arithmetic, so the
/// result of accumulating a set of increments is independent of the order
/// they arrive in — the property the serial-vs-parallel determinism test
/// pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterSet {
    values: [u64; Metric::COUNT],
}

impl CounterSet {
    /// An all-zero counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to `metric`.
    #[inline]
    pub fn add(&mut self, metric: Metric, n: u64) {
        self.values[metric.index()] += n;
    }

    /// Current value of `metric`.
    #[inline]
    pub fn get(&self, metric: Metric) -> u64 {
        self.values[metric.index()]
    }

    /// Element-wise accumulation of `other` into `self` (commutative).
    pub fn merge(&mut self, other: &CounterSet) {
        for (dst, src) in self.values.iter_mut().zip(other.values.iter()) {
            *dst += *src;
        }
    }

    /// Element-wise delta `self - base`; panics if any counter regressed.
    pub fn since(&self, base: &CounterSet) -> CounterSet {
        let mut out = CounterSet::default();
        for ((dst, now), then) in out.values.iter_mut().zip(self.values.iter()).zip(&base.values) {
            *dst = now.checked_sub(*then).expect("counters are monotonic");
        }
        out
    }

    /// Whether every counter is zero.
    pub fn is_zero(&self) -> bool {
        self.values.iter().all(|v| *v == 0)
    }

    /// Iterates `(metric, value)` pairs in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (Metric, u64)> + '_ {
        Metric::ALL.iter().map(move |m| (*m, self.get(*m)))
    }

    /// Sum of all counters (used by conservation checks).
    pub fn total(&self) -> u64 {
        self.values.iter().sum()
    }
}

/// One distribution tracked as a log2-bucketed histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HistKey {
    /// Probe-chain length per hashmap insert.
    HashProbeLen,
    /// Contig/trail length (edges) per Eulerian walk.
    TraverseTrailLen,
    /// Sub-array partitions per dispatcher batch.
    PartitionItems,
    /// Candidate positions surviving the seed filter, per mapped read.
    MapCandidates,
}

impl HistKey {
    /// Every histogram key, in canonical order.
    pub const ALL: [HistKey; 4] = [
        HistKey::HashProbeLen,
        HistKey::TraverseTrailLen,
        HistKey::PartitionItems,
        HistKey::MapCandidates,
    ];

    /// Number of histogram keys.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable snapshot key fragment for this histogram.
    pub fn name(self) -> &'static str {
        match self {
            HistKey::HashProbeLen => "hash_probe_len",
            HistKey::TraverseTrailLen => "traverse_trail_len",
            HistKey::PartitionItems => "partition_items",
            HistKey::MapCandidates => "map_candidates",
        }
    }

    /// Position in [`HistKey::ALL`]: the declaration order, which `ALL`
    /// follows (pinned by a test).
    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

/// Number of buckets per histogram: bucket 0 holds zero, bucket `i >= 1`
/// holds values in `[2^(i-1), 2^i)` — enough for the full `u64` range.
pub const HIST_BUCKETS: usize = 65;

/// A log2-bucketed histogram over `u64` samples, fixed-size, heap-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self { buckets: [0; HIST_BUCKETS] }
    }
}

impl Histogram {
    /// Bucket index for `value` (0 for zero, `ilog2(value) + 1` otherwise).
    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            value.ilog2() as usize + 1
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
    }

    /// Count in bucket `i`.
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// Element-wise accumulation of `other` into `self` (commutative).
    pub fn merge(&mut self, other: &Histogram) {
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += *src;
        }
    }

    /// Total number of recorded samples across all buckets.
    pub fn total_samples(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(|b| *b == 0)
    }

    /// Iterates `(bucket_index, count)` for non-empty buckets.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets.iter().enumerate().filter(|(_, c)| **c > 0).map(|(i, c)| (i, *c))
    }
}

/// The fixed set of histograms carried alongside a [`CounterSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistSet {
    hists: [Histogram; HistKey::COUNT],
}

impl HistSet {
    /// Records one sample into the histogram for `key`.
    #[inline]
    pub fn record(&mut self, key: HistKey, value: u64) {
        self.hists[key.index()].record(value);
    }

    /// The histogram for `key`.
    pub fn get(&self, key: HistKey) -> &Histogram {
        &self.hists[key.index()]
    }

    /// Element-wise accumulation of `other` into `self` (commutative).
    pub fn merge(&mut self, other: &HistSet) {
        for (dst, src) in self.hists.iter_mut().zip(other.hists.iter()) {
            dst.merge(src);
        }
    }
}

/// The per-context observability block embedded in every `SubarrayContext`
/// (and once in the controller for the metrics it records itself).
///
/// `record` is an indexed add into inline arrays — no branches on
/// configuration, no heap, nothing shared — so it is safe to leave enabled
/// unconditionally on the AAP hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ContextObsv {
    /// Hot-path counters (cumulative since the last reset).
    pub counters: CounterSet,
    /// Hot-path histograms (cumulative since the last reset).
    pub hists: HistSet,
}

impl ContextObsv {
    /// Adds `n` to `metric`.
    #[inline]
    pub fn record(&mut self, metric: Metric, n: u64) {
        self.counters.add(metric, n);
    }

    /// Records one histogram sample for `key`.
    #[inline]
    pub fn record_value(&mut self, key: HistKey, value: u64) {
        self.hists.record(key, value);
    }

    /// Resets all counters and histograms to zero.
    pub fn reset(&mut self) {
        *self = ContextObsv::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_roundtrip_and_since() {
        let mut a = CounterSet::new();
        a.add(Metric::Aap2, 5);
        a.add(Metric::HostReads, 2);
        let snap = a;
        a.add(Metric::Aap2, 3);
        let delta = a.since(&snap);
        assert_eq!(delta.get(Metric::Aap2), 3);
        assert_eq!(delta.get(Metric::HostReads), 0);
        assert_eq!(a.get(Metric::Aap2), 8);
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = CounterSet::new();
        a.add(Metric::AapCopy, 7);
        let mut b = CounterSet::new();
        b.add(Metric::Aap3, 11);
        b.add(Metric::AapCopy, 1);
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.get(Metric::AapCopy), 8);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 1023, 1024] {
            h.record(v);
        }
        assert_eq!(h.total_samples(), 7);
        assert_eq!(h.bucket(10), 1); // 1023 in [512, 1024)
        assert_eq!(h.bucket(11), 1); // 1024 in [1024, 2048)
    }

    #[test]
    fn indices_are_positions_in_all() {
        // `index` is the declaration order; `ALL` must list every variant
        // in that order so counters land in their canonical slots.
        for (i, metric) in Metric::ALL.iter().enumerate() {
            assert_eq!(metric.index(), i, "{metric:?}");
        }
        for (i, key) in HistKey::ALL.iter().enumerate() {
            assert_eq!(key.index(), i, "{key:?}");
        }
    }

    #[test]
    fn metric_names_are_unique() {
        for (i, a) in Metric::ALL.iter().enumerate() {
            for b in Metric::ALL.iter().skip(i + 1) {
                assert_ne!(a.name(), b.name());
            }
        }
    }
}
