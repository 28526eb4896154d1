//! Platform configuration.

use pim_dram::energy::EnergyParams;
use pim_dram::geometry::DramGeometry;
use pim_dram::timing::TimingParams;

use crate::error::{PimError, Result};
use crate::ir::OptLevel;

/// Complete configuration of a PIM-Assembler instance.
///
/// # Examples
///
/// ```
/// use pim_assembler::config::PimAssemblerConfig;
///
/// let cfg = PimAssemblerConfig::paper(16).with_pd(4);
/// assert_eq!(cfg.k, 16);
/// assert_eq!(cfg.pd, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PimAssemblerConfig {
    /// DRAM organization.
    pub geometry: DramGeometry,
    /// Timing parameters.
    pub timing: TimingParams,
    /// Energy parameters.
    pub energy: EnergyParams,
    /// k-mer length.
    pub k: usize,
    /// Minimum k-mer frequency kept for graph construction.
    pub min_count: u64,
    /// Parallelism degree: replicated sub-array groups (§IV *Trade-offs*).
    pub pd: usize,
    /// Sub-arrays allocated to the hash-table partitioning.
    pub hash_subarrays: usize,
    /// Rows per hash bucket inside a sub-array's k-mer region.
    pub bucket_rows: usize,
    /// Graph simplification (tip clipping + bubble popping) with the given
    /// maximum tip length in edges; `None` disables it.
    pub simplify_tips: Option<usize>,
    /// Host worker threads for the parallel dispatcher (1 = serial
    /// reference execution; results are identical for any value).
    pub workers: usize,
    /// Enables the `pim-obsv` observability layer: per-stage/per-sub-array
    /// metrics, trace spans, and the stage-budget watchdog. Off by default
    /// — the hot path records nothing beyond the always-on ledger.
    pub observe: bool,
    /// IR optimization level for stage kernels: always [`OptLevel::O0`],
    /// the paper's hand-written sequences. It stays only because the
    /// benchmark reads it and because the fingerprint (and so every
    /// checkpoint) spells it as `optO0`; the next benchmark change drops
    /// it with the benchmark's call site (ROADMAP item 7).
    pub opt_level: OptLevel,
    /// Streamed-execution chunk size: reads per stage-1 ingestion chunk.
    /// There is one path: [`crate::pipeline::Session::run`] feeds the
    /// whole read set as one chunk when this is `None` (the default), and
    /// chunks of `n` when it is `Some(n)`, with byte-identical results.
    pub chunk_reads: Option<usize>,
}

impl PimAssemblerConfig {
    /// The paper's §IV configuration at the given k, Pd = 2 (the optimum
    /// found in Fig. 10).
    pub fn paper(k: usize) -> Self {
        PimAssemblerConfig {
            geometry: DramGeometry::paper_assembly(),
            timing: TimingParams::ddr4_2133(),
            energy: EnergyParams::ddr4_45nm(),
            k,
            min_count: 1,
            pd: 2,
            hash_subarrays: 64,
            bucket_rows: 8,
            simplify_tips: None,
            workers: 1,
            observe: false,
            opt_level: OptLevel::O0,
            chunk_reads: None,
        }
    }

    /// A small configuration for tests and examples: tiny sub-array count,
    /// fast to execute functionally.
    pub fn small_test(k: usize) -> Self {
        PimAssemblerConfig {
            geometry: DramGeometry::paper_assembly(),
            timing: TimingParams::ddr4_2133(),
            energy: EnergyParams::ddr4_45nm(),
            k,
            min_count: 1,
            pd: 2,
            hash_subarrays: 8,
            bucket_rows: 8,
            simplify_tips: None,
            workers: 1,
            observe: false,
            opt_level: OptLevel::O0,
            chunk_reads: None,
        }
    }

    /// Sets the parallelism degree.
    ///
    /// # Panics
    ///
    /// Panics if `pd == 0`.
    pub fn with_pd(mut self, pd: usize) -> Self {
        assert!(pd >= 1, "parallelism degree must be at least 1");
        self.pd = pd;
        self
    }

    /// Sets the frequency filter.
    pub fn with_min_count(mut self, min_count: u64) -> Self {
        self.min_count = min_count;
        self
    }

    /// Sets the number of hash sub-arrays.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or exceeds the geometry's sub-array count.
    pub fn with_hash_subarrays(mut self, n: usize) -> Self {
        assert!(n >= 1 && n <= self.geometry.total_subarrays(), "bad hash sub-array count");
        self.hash_subarrays = n;
        self
    }

    /// Enables graph simplification with the given tip bound.
    pub fn with_simplification(mut self, max_tip_edges: usize) -> Self {
        self.simplify_tips = Some(max_tip_edges);
        self
    }

    /// Sets the host worker-thread count for the parallel dispatcher.
    /// Execution results are identical for any value (see
    /// [`crate::dispatch::ParallelDispatcher`]); only wall-clock changes.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers >= 1, "worker count must be at least 1");
        self.workers = workers;
        self
    }

    /// Enables or disables the observability layer (metrics registry,
    /// trace spans, stage budgets). Does not change assembly results.
    pub fn with_observability(mut self, observe: bool) -> Self {
        self.observe = observe;
        self
    }

    /// Enables streamed execution with `chunk_reads` reads per chunk.
    /// Unlike the panicking builders this is fallible — a zero chunk is a
    /// configuration error the CLI surfaces as a typed [`PimError`], not
    /// a crash.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::InvalidChunkSize`] if `chunk_reads == 0`.
    pub fn with_chunk_reads(mut self, chunk_reads: usize) -> Result<Self> {
        if chunk_reads == 0 {
            return Err(PimError::InvalidChunkSize);
        }
        self.chunk_reads = Some(chunk_reads);
        Ok(self)
    }

    /// Maximum k representable in one row (2 bits per base): 128 bp for
    /// 256-column sub-arrays.
    pub fn max_k(&self) -> usize {
        self.geometry.cols / 2
    }

    /// A short stable fingerprint of the fields that shape execution
    /// results, stamped into checkpoints so a resume with a mismatched
    /// configuration is rejected instead of silently diverging. Worker
    /// count is deliberately excluded — results are worker-invariant, so
    /// a run checkpointed serially may resume pooled and vice versa.
    pub fn fingerprint(&self) -> String {
        format!(
            "k{}:min{}:pd{}:hs{}:br{}:tips{}:opt{:?}:g{}x{}x{}x{}x{}x{}",
            self.k,
            self.min_count,
            self.pd,
            self.hash_subarrays,
            self.bucket_rows,
            self.simplify_tips.map_or(-1i64, |t| t as i64),
            self.opt_level,
            self.geometry.chips,
            self.geometry.banks_per_chip,
            self.geometry.mats_per_bank,
            self.geometry.subarrays_per_mat,
            self.geometry.rows,
            self.geometry.cols,
        )
    }
}

impl Default for PimAssemblerConfig {
    fn default() -> Self {
        PimAssemblerConfig::paper(16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = PimAssemblerConfig::paper(22);
        assert_eq!(c.pd, 2);
        assert_eq!(c.max_k(), 128);
        assert_eq!(c.geometry.rows, 1024);
    }

    #[test]
    fn builders() {
        let c = PimAssemblerConfig::paper(16).with_pd(8).with_min_count(3).with_hash_subarrays(16);
        assert_eq!(c.pd, 8);
        assert_eq!(c.min_count, 3);
        assert_eq!(c.hash_subarrays, 16);
    }

    #[test]
    fn worker_builder() {
        let c = PimAssemblerConfig::paper(16);
        assert_eq!(c.workers, 1, "serial by default");
        assert_eq!(c.with_workers(8).workers, 8);
    }

    #[test]
    #[should_panic(expected = "parallelism degree")]
    fn zero_pd_rejected() {
        let _ = PimAssemblerConfig::paper(16).with_pd(0);
    }

    #[test]
    #[should_panic(expected = "worker count")]
    fn zero_workers_rejected() {
        let _ = PimAssemblerConfig::paper(16).with_workers(0);
    }

    #[test]
    #[should_panic(expected = "bad hash sub-array count")]
    fn absurd_subarray_count_rejected() {
        let _ = PimAssemblerConfig::paper(16).with_hash_subarrays(usize::MAX);
    }

    #[test]
    fn chunk_reads_builder_validates() {
        let c = PimAssemblerConfig::paper(16);
        assert_eq!(c.chunk_reads, None, "one-shot by default");
        assert_eq!(c.with_chunk_reads(128).unwrap().chunk_reads, Some(128));
        assert_eq!(c.with_chunk_reads(0).unwrap_err(), PimError::InvalidChunkSize);
    }

    #[test]
    fn fingerprint_tracks_result_shaping_fields_only() {
        let base = PimAssemblerConfig::small_test(15);
        assert_eq!(base.fingerprint(), base.with_workers(8).fingerprint(), "worker-invariant");
        assert_eq!(base.fingerprint(), base.with_chunk_reads(64).unwrap().fingerprint());
        assert_ne!(base.fingerprint(), base.with_min_count(3).fingerprint());
        assert_ne!(base.fingerprint(), PimAssemblerConfig::small_test(17).fingerprint());
        // Checkpoints written by earlier builds carry this field's text.
        assert!(base.fingerprint().contains(":optO0:"), "{}", base.fingerprint());
    }
}
