//! Second workload — PIM read mapping with bit-serial DP refinement.
//!
//! The stage opens the platform beyond assembly: simulated reads stream
//! against a reference whose seed k-mers are staged into their home
//! sub-arrays exactly like the stage-1 hash table. One
//! [`PimReadMapper::map_batch`] runs a three-phase funnel over the whole
//! batch, each phase one dispatched batch on the array:
//!
//! 1. **Seed lookup** — each read's leading k-mer probes its home bucket
//!    with `PIM_XNOR` ([`PimComparator`]) on its home sub-array, yielding
//!    the reference positions that share the seed.
//! 2. **Hamming filter** — the C `(read, position)` candidates of the
//!    whole batch are packed in read order *one candidate per column*
//!    into ⌈C/cols⌉ passes. Per bit-plane the host writes the windows'
//!    bits and each column's own read bit as two rows, `PIM_XNOR` matches
//!    them, and the 7:3 popcount kernel plus a full-adder column sum
//!    reduce the match planes to a per-candidate match count. Candidates
//!    whose packed-bit Hamming distance exceeds the threshold drop out.
//! 3. **DP refinement** — the S inexact survivors of the whole batch, in
//!    the same order, run a banded unit-cost edit-distance wavefront in
//!    lockstep over ⌈S/cols⌉ passes: the host supplies each column's
//!    `insert`/`delete`/`substitute` operand bit-planes for each band cell
//!    (host-mediated shift network; `substitute` compares the column's
//!    own read) and the array computes the three-way minimum as two
//!    two-way ones. Each runs W LSB-first `dp-cell` borrow steps of
//!    `A − B`, which leave `[A < B]` in a row (the compare is the carry
//!    chain of a subtraction, one TRA per bit), then W `min-select`
//!    muxes, which need no TRA. The values are W bits wide, W derived
//!    from the config by [`MappingConfig::dp_width`]: a filtered
//!    candidate's band values stay at most min(`max_mismatch_bits` +
//!    `band`, read length), so W = 4 bits at the defaults, and every
//!    kernel execution, plane write and sense of the DP scales with W.
//!    The sensed distance drives the final hit;
//!    [`pim_genome::align::banded_global`] with zero match score and unit
//!    penalties, saturated at the width's INF, is the exact software
//!    shadow.
//!
//! Pass p of phases 2 and 3 runs on the index's sub-array p mod N, for N
//! index sub-arrays. The host writes every window and read plane a pass
//! reads, so once a seed's positions have been read no pass depends on
//! the seeds a sub-array stores. Each of these phases dispatches one
//! partition per sub-array it uses, and that partition runs its passes in
//! pass order.
//!
//! As with the assembly stages the PIM verdicts drive all control flow;
//! host-side shadows only *detect* corruption ([`MapStats`]'s
//! `shadow_mismatches`), checked per column, so a fault flags the
//! candidate it hit instead of producing a silent wrong mapping. The
//! partitions dispatch over [`ParallelDispatcher`], with results,
//! statistics, and command totals byte-identical to the serial order for
//! any worker count. The batching window is one
//! [`PimReadMapper::map_batch`] call: hits and [`MapStats`] do not depend
//! on how a read stream is split into batches, but the number of passes,
//! and so the device cost, does (see [`MappingExec`]).

use pim_dram::address::RowAddr;
use pim_dram::bitrow::BitRow;
use pim_dram::context::SubarrayContext;
use pim_dram::controller::Controller;
use pim_dram::fault::FaultConfig;
use pim_dram::geometry::DramGeometry;
use pim_genome::align::{banded_global, Scoring};
use pim_genome::kmer::Kmer;
use pim_genome::reads::Read;
use pim_genome::sequence::DnaSequence;
use pim_obsv::{HistKey, Metric, MetricsSnapshot, Stage};

use crate::dispatch::ParallelDispatcher;
use crate::error::{PimError, Result};
use crate::ir::{BackendKind, OptLevel};
use crate::layout::SubarrayLayout;
use crate::mapping::KmerMapper;
use crate::pim_add::{PimAdder, ScratchSpace};
use crate::pim_xnor::PimComparator;
use crate::template::{CompiledTemplate, Kernel, TemplateKey};

/// The fewest index sub-arrays a mapping run spreads its seeds over.
const MIN_INDEX_SUBARRAYS: usize = 4;

/// Stack bound on any mapping kernel's role table (popcount on the Ambit
/// rewrite is the widest).
const MAX_MAP_ROLES: usize = 64;

/// Fan-in of the popcount kernel (a 7:3 counter).
const POPCOUNT_FAN_IN: usize = 7;

/// Mapping-algorithm parameters.
#[derive(Debug, Clone, Copy)]
pub struct MappingConfig {
    /// Seed k-mer length (the read prefix probed against the index).
    pub seed_len: usize,
    /// DP band half-width (matches `banded_global`'s `band`). A band of
    /// at least the read length spans every cell; the mapper clamps a
    /// wider one to it.
    pub band: usize,
    /// Hamming-filter threshold on *packed-bit* distance (2 bits/base).
    pub max_mismatch_bits: u32,
}

impl Default for MappingConfig {
    fn default() -> Self {
        MappingConfig { seed_len: 16, band: 2, max_mismatch_bits: 8 }
    }
}

impl MappingConfig {
    /// The value width of the bit-serial DP for `read_len`-bp reads.
    ///
    /// A candidate reaches the DP only after the Hamming filter admitted
    /// it with at most `max_mismatch_bits` differing bits, so with at most
    /// that many substituted bases. In-band cell (i, j) is then at most
    /// min(mismatches + |i − j|, max(i, j)), so at most B =
    /// min(max_mismatch_bits + band, read_len), and every operand the
    /// host writes is at most B + 1. W is the smallest width with
    /// 2^W − 1 > B + 1, and INF = 2^W − 1, so saturation never reaches a
    /// finite operand. The defaults give W = 4 and INF = 15; reads of at
    /// most 128 bp keep W ≤ 8.
    pub fn dp_width(&self, read_len: usize) -> DpWidth {
        let bound = (self.max_mismatch_bits as usize).saturating_add(self.band).min(read_len);
        // The smallest W with 2^W > B + 2 is the bit length of B + 2.
        let bits = usize::BITS - bound.saturating_add(2).leading_zeros();
        DpWidth { bits: bits.min(u32::BITS) as usize }
    }
}

/// The bit-serial DP's value width ([`MappingConfig::dp_width`]), 2 to 32
/// bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DpWidth {
    bits: usize,
}

impl DpWidth {
    /// Bit planes per DP value.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// The saturating "unreachable" distance, 2^bits − 1, injected at
    /// band boundaries.
    pub fn inf(&self) -> u32 {
        u32::MAX >> (u32::BITS as usize - self.bits)
    }
}

/// One read's best mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MappingHit {
    /// Index of the read in the mapped batch.
    pub read_id: usize,
    /// Reference position of the window the read mapped to.
    pub position: usize,
    /// Alignment score — `banded_global` with `Scoring { matches: 0,
    /// mismatch: -1, gap: -1 }`, i.e. the negated banded edit distance.
    pub score: i32,
}

/// Statistics of the mapping stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MapStats {
    /// Reads streamed through the stage.
    pub reads: u64,
    /// Reads whose seed matched at least one stored index row.
    pub seeded: u64,
    /// Candidate positions surfaced by seed lookup (total).
    pub candidates: u64,
    /// Candidates surviving the Hamming filter.
    pub survivors: u64,
    /// Band cells evaluated by the in-DRAM DP wavefront, per candidate:
    /// a lockstep pass over `n` candidates evaluates `n` cells per band
    /// position, so the count does not depend on how candidates share
    /// passes.
    pub dp_cells: u64,
    /// Reads that produced a final mapping.
    pub mapped: u64,
    /// PIM results that disagreed with the host-side shadow recompute
    /// (seed compare, Hamming count, or final DP distance). Always 0 on a
    /// healthy array; the corruption-detection signal under fault
    /// injection — the PIM verdict still drives control flow.
    pub shadow_mismatches: u64,
}

impl MapStats {
    /// Accumulates another counter set (order-independent integer adds).
    pub fn merge(&mut self, other: &MapStats) {
        self.reads += other.reads;
        self.seeded += other.seeded;
        self.candidates += other.candidates;
        self.survivors += other.survivors;
        self.dp_cells += other.dp_cells;
        self.mapped += other.mapped;
        self.shadow_mismatches += other.shadow_mismatches;
    }
}

/// The set of compiled kernels one mapper instance executes.
#[derive(Debug, Clone)]
struct MappingKernels {
    xnor: CompiledTemplate,
    popcount: CompiledTemplate,
    dp_cell: CompiledTemplate,
    min_select: CompiledTemplate,
}

/// One column of a packed Hamming or DP pass: a reference position
/// offered to the batch's read number `read`.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    read: usize,
    position: usize,
}

/// The host's shadow of the seed index, flat over every `(sub-array,
/// row)` seed slot: entry `sub·seed_rows + row` holds the packed seed
/// stored in that row and, CSR-style, its ascending reference positions
/// `positions[offsets[e]..offsets[e + 1]]`. A row is empty exactly when
/// it stores no position.
#[derive(Debug, Clone)]
struct SeedDirectory {
    seeds: Vec<u64>,
    offsets: Vec<u32>,
    positions: Vec<u32>,
}

impl SeedDirectory {
    /// The reference positions stored under entry `e` (empty for an
    /// empty row).
    fn positions(&self, e: usize) -> &[u32] {
        &self.positions[self.offsets[e] as usize..self.offsets[e + 1] as usize]
    }
}

/// The in-DRAM read mapper: seed index + the three-phase mapping funnel.
#[derive(Debug, Clone)]
pub struct PimReadMapper {
    mapper: KmerMapper,
    comparator: PimComparator,
    kernels: MappingKernels,
    /// The build's config, its `band` clamped to the read length (a
    /// band that wide already spans every cell).
    config: MappingConfig,
    dp: DpWidth,
    reference: DnaSequence,
    read_len: usize,
    /// Rows `[0, seed_rows)` of each k-mer region hold seed rows; the
    /// rest is the per-pass plane scratch pool.
    seed_rows: usize,
    directory: SeedDirectory,
    zero_row: RowAddr,
    stats: MapStats,
}

impl PimReadMapper {
    /// Builds the seed index for `reference` in DRAM (one charged row
    /// write per stored seed), compiling every mapping kernel once for
    /// `backend`. `read_len` fixes the window width mapped against (every
    /// mapped read must have exactly this length) and, with `config`, the
    /// DP value width ([`MappingConfig::dp_width`]). `opt` is always
    /// [`OptLevel::O0`], the only level; the parameter stays only for the
    /// benchmark's call site, and the next benchmark change drops it
    /// (ROADMAP item 7).
    ///
    /// # Errors
    ///
    /// * [`PimError::LengthOutOfRange`] if `read_len` is shorter than the
    ///   seed or longer than half the row width (two bits per base), or
    ///   the reference is too long for the index's 32-bit positions.
    /// * [`PimError::SequenceLength`] if the reference is shorter than
    ///   one read.
    /// * [`PimError::SubarrayFull`] if a seed region overflows.
    /// * Genome errors for degenerate seed/reference shapes.
    pub fn build(
        ctrl: &mut Controller,
        mapper: KmerMapper,
        reference: &DnaSequence,
        read_len: usize,
        config: MappingConfig,
        backend: BackendKind,
        opt: OptLevel,
    ) -> Result<Self> {
        let layout = *mapper.layout();
        let cols = layout.cols();
        if !(config.seed_len..=cols / 2).contains(&read_len) {
            return Err(PimError::LengthOutOfRange {
                what: "read length",
                len: read_len,
                min: config.seed_len,
                max: cols / 2,
            });
        }
        if reference.len() < read_len {
            return Err(PimError::SequenceLength {
                what: "reference",
                len: reference.len(),
                expected: read_len,
            });
        }
        let OptLevel::O0 = opt;
        let zero_row = layout.temp_row(layout.temp_rows() - 1);
        let comparator = PimComparator::new(mapper.geometry(), backend);
        let key = |k: Kernel| TemplateKey::new(k, cols, cols).with_backend(backend);
        let kernels = MappingKernels {
            xnor: CompiledTemplate::compile(key(Kernel::Xnor)),
            popcount: CompiledTemplate::compile(key(Kernel::Popcount)),
            dp_cell: CompiledTemplate::compile(key(Kernel::DpCell)),
            min_select: CompiledTemplate::compile(key(Kernel::MinSelect)),
        };
        let seed_rows = layout.kmer_rows() / 2;
        let directory = Self::build_directory(ctrl, &mapper, reference, read_len, &config)?;
        let config = MappingConfig { band: config.band.min(read_len), ..config };
        Ok(PimReadMapper {
            mapper,
            comparator,
            kernels,
            config,
            dp: config.dp_width(read_len),
            reference: reference.clone(),
            read_len,
            seed_rows,
            directory,
            zero_row,
            stats: MapStats::default(),
        })
    }

    /// Stores the seed of every read-length window of `reference` in its
    /// home bucket (linear probing within the sub-array's seed rows, one
    /// charged row write per new seed) and returns the host directory.
    /// `offsets` counts each entry's positions during placement, is
    /// prefix-summed into end offsets, and becomes the start offsets as
    /// the positions are filled back to front. The seed rows are written
    /// after placement, in one checkout per index sub-array.
    fn build_directory(
        ctrl: &mut Controller,
        mapper: &KmerMapper,
        reference: &DnaSequence,
        read_len: usize,
        config: &MappingConfig,
    ) -> Result<SeedDirectory> {
        if u32::try_from(reference.len()).is_err() {
            return Err(PimError::LengthOutOfRange {
                what: "reference length",
                len: reference.len(),
                min: read_len,
                max: u32::MAX as usize,
            });
        }
        let layout = mapper.layout();
        let seed_rows = layout.kmer_rows() / 2;
        let entries = mapper.subarrays().len() * seed_rows;
        let mut seeds = vec![0u64; entries];
        let mut offsets = vec![0u32; entries + 1];
        let windows = reference.len() - read_len + 1;
        let mut entry_of = Vec::with_capacity(windows);
        for p in 0..windows {
            let seed = Kmer::from_sequence(reference, p, config.seed_len)?;
            let (sub_idx, bucket) = mapper.home(&seed);
            let base = sub_idx * seed_rows;
            let start = bucket % seed_rows;
            let row = (0..seed_rows)
                .map(|step| (start + step) % seed_rows)
                .find(|&row| offsets[base + row] == 0 || seeds[base + row] == seed.packed())
                .ok_or(PimError::SubarrayFull { subarray: sub_idx, capacity: seed_rows })?;
            let e = base + row;
            if offsets[e] == 0 {
                seeds[e] = seed.packed();
            }
            offsets[e] += 1;
            entry_of.push(e);
        }
        // Every stored seed (a non-zero count) is one charged row write.
        let mut image = BitRow::zeros(layout.cols());
        for (sub_idx, &id) in mapper.subarrays().iter().enumerate() {
            let sub_entries = sub_idx * seed_rows..(sub_idx + 1) * seed_rows;
            if offsets[sub_entries.clone()].iter().all(|&n| n == 0) {
                continue;
            }
            ctrl.with_context(id, |ctx| {
                for (row, e) in sub_entries.enumerate().filter(|&(_, e)| offsets[e] > 0) {
                    mapper
                        .row_image_into(&Kmer::from_packed(seeds[e], config.seed_len)?, &mut image);
                    ctx.write_row(RowAddr(row), &image)?;
                }
                Ok::<_, PimError>(())
            })?;
        }
        for e in 1..=entries {
            offsets[e] += offsets[e - 1];
        }
        let mut positions = vec![0u32; windows];
        for (p, &e) in entry_of.iter().enumerate().rev() {
            offsets[e] -= 1;
            // Checked above: every position fits in u32.
            positions[offsets[e] as usize] = p as u32;
        }
        Ok(SeedDirectory { seeds, offsets, positions })
    }

    /// The lowering backend the mapping kernels run on.
    pub fn backend(&self) -> BackendKind {
        self.comparator.backend()
    }

    /// Stage statistics so far.
    pub fn stats(&self) -> &MapStats {
        &self.stats
    }

    /// The mapper (layout + sub-array partition) in use.
    pub fn mapper(&self) -> &KmerMapper {
        &self.mapper
    }

    /// Maps a batch of reads in three dispatched phases: seed lookups on
    /// each read's home sub-array, then ⌈C/cols⌉ Hamming passes over the
    /// batch's C candidates in read order, then ⌈S/cols⌉ lockstep DP
    /// passes over its S inexact survivors. Pass p of a phase runs on the
    /// index's sub-array p mod N. Returns one entry per read, in read
    /// order — `None` for reads the funnel rejects. State, statistics,
    /// and command totals are identical for any worker count; hits and
    /// statistics are also identical for any split of a read stream into
    /// batches, while command totals grow with the number of batches.
    ///
    /// # Errors
    ///
    /// The first failing partition's error, in sub-array order within the
    /// first failing phase; a read whose length differs from the index's
    /// `read_len` fails with [`PimError::SequenceLength`].
    pub fn map_batch(
        &mut self,
        ctrl: &mut Controller,
        dispatcher: &ParallelDispatcher,
        reads: &[Read],
    ) -> Result<Vec<Option<MappingHit>>> {
        for read in reads {
            if read.seq.len() != self.read_len {
                return Err(PimError::SequenceLength {
                    what: "read",
                    len: read.seq.len(),
                    expected: self.read_len,
                });
            }
        }
        let this = &*self;
        let mut stats = MapStats::default();

        // Phase 1: seed lookups, one partition per home sub-array.
        let mut groups: Vec<Vec<(usize, Kmer)>> = vec![Vec::new(); this.mapper.subarrays().len()];
        for (idx, read) in reads.iter().enumerate() {
            let seed = Kmer::from_sequence(&read.seq, 0, this.config.seed_len)?;
            groups[this.mapper.home(&seed).0].push((idx, seed));
        }
        let partitions = groups
            .into_iter()
            .enumerate()
            .filter(|(_, group)| !group.is_empty())
            .map(|(sub_idx, group)| (this.mapper.subarrays()[sub_idx], (sub_idx, group)))
            .collect();
        let lookups = dispatcher.run_partitions(ctrl, partitions, |ctx, (sub_idx, group)| {
            this.seed_group(ctx, sub_idx, &group)
        })?;
        let mut entries = vec![None; reads.len()];
        for (matched, part_stats) in lookups {
            stats.merge(&part_stats);
            for (idx, e) in matched {
                entries[idx] = Some(e);
            }
        }
        let candidates: Vec<Candidate> = entries
            .iter()
            .enumerate()
            .flat_map(|(read, e)| {
                let positions = e.map_or(&[][..], |e| this.directory.positions(e));
                positions.iter().map(move |&p| Candidate { read, position: p as usize })
            })
            .collect();

        // Phase 2: the batch's Hamming filter passes.
        let filtered =
            this.run_pooled(ctrl, dispatcher, &candidates, &mut stats, |ctx, pass, stats| {
                this.hamming_filter(ctx, reads, pass, stats)
            })?;
        let mut best: Vec<Option<(i32, usize)>> = vec![None; reads.len()];
        let mut inexact = Vec::new();
        for (cand, dist) in filtered.into_iter().flatten() {
            stats.survivors += 1;
            if dist == 0 {
                Self::offer(&mut best[cand.read], 0, cand.position);
            } else {
                inexact.push(cand);
            }
        }

        // Phase 3: the batch's DP passes.
        let refined =
            this.run_pooled(ctrl, dispatcher, &inexact, &mut stats, |ctx, pass, stats| {
                this.dp_refine(ctx, reads, pass, stats)
            })?;
        for (cand, d) in inexact.iter().zip(refined.into_iter().flatten()) {
            if d < this.dp.inf() {
                Self::offer(&mut best[cand.read], -(d as i32), cand.position);
            }
        }

        let hits: Vec<Option<MappingHit>> = best
            .into_iter()
            .enumerate()
            .map(|(read_id, best)| {
                best.map(|(score, position)| MappingHit { read_id, position, score })
            })
            .collect();
        stats.mapped += hits.iter().flatten().count() as u64;
        self.stats.merge(&stats);
        Ok(hits)
    }

    /// Packs `items` one per column into ⌈len/cols⌉ passes and runs pass
    /// p on the index's sub-array p mod N as one dispatched batch: one
    /// partition per sub-array used, each running its passes in pass
    /// order. Returns the pass results in pass order and folds every
    /// partition's statistics into `stats`.
    fn run_pooled<T, R>(
        &self,
        ctrl: &mut Controller,
        dispatcher: &ParallelDispatcher,
        items: &[T],
        stats: &mut MapStats,
        run_pass: impl Fn(&mut SubarrayContext, &[T], &mut MapStats) -> Result<R> + Sync,
    ) -> Result<Vec<R>>
    where
        T: Sync,
        R: Send,
    {
        if items.is_empty() {
            return Ok(Vec::new());
        }
        let cols = self.mapper.layout().cols();
        let subarrays = self.mapper.subarrays();
        let passes = items.len().div_ceil(cols);
        let mut partitions: Vec<_> =
            subarrays.iter().take(passes).map(|&id| (id, Vec::new())).collect();
        for (p, pass) in items.chunks(cols).enumerate() {
            partitions[p % subarrays.len()].1.push((p, pass));
        }
        let results = dispatcher.run_partitions(ctrl, partitions, |ctx, passes| {
            let mut part_stats = MapStats::default();
            let out = passes
                .into_iter()
                .map(|(p, pass)| Ok((p, run_pass(ctx, pass, &mut part_stats)?)))
                .collect::<Result<Vec<_>>>()?;
            Ok((out, part_stats))
        })?;
        let mut ordered = Vec::with_capacity(passes);
        for (out, part_stats) in results {
            stats.merge(&part_stats);
            ordered.extend(out);
        }
        ordered.sort_unstable_by_key(|&(p, _)| p);
        Ok(ordered.into_iter().map(|(_, r)| r).collect())
    }

    /// Keeps the better `(score, position)` — higher score wins, ties go
    /// to the lower reference position.
    fn offer(best: &mut Option<(i32, usize)>, score: i32, position: usize) {
        let better = match best {
            None => true,
            Some((s, p)) => score > *s || (score == *s && position < *p),
        };
        if better {
            *best = Some((score, position));
        }
    }

    /// Phase 1 for the reads of one batch homed on `sub_idx`, in stream
    /// order (`group` pairs each read's batch index with its seed).
    /// Returns the batch index and directory entry of every read whose
    /// seed matched.
    fn seed_group(
        &self,
        ctx: &mut SubarrayContext,
        sub_idx: usize,
        group: &[(usize, Kmer)],
    ) -> Result<(Vec<(usize, usize)>, MapStats)> {
        let mut stats = MapStats::default();
        let mut matched = Vec::new();
        for &(idx, seed) in group {
            stats.reads += 1;
            ctx.record_metric(Metric::MapReads, 1);
            let entry = self.seed_lookup(ctx, sub_idx, &seed, &mut stats)?;
            let count = entry.map_or(0, |e| self.directory.positions(e).len());
            ctx.record_value(HistKey::MapCandidates, count as u64);
            if let Some(e) = entry {
                stats.seeded += 1;
                stats.candidates += count as u64;
                matched.push((idx, e));
            }
        }
        Ok((matched, stats))
    }

    /// Seed lookup: probe the home bucket with `PIM_XNOR` until the
    /// stored seed matches (or an empty row ends the chain) and return
    /// the directory entry of the matched row.
    fn seed_lookup(
        &self,
        ctx: &mut SubarrayContext,
        sub_idx: usize,
        seed: &Kmer,
        stats: &mut MapStats,
    ) -> Result<Option<usize>> {
        let layout = *self.mapper.layout();
        let (_, bucket) = self.mapper.home(seed);
        let image = self.mapper.row_image(seed, layout.cols());
        self.comparator.stage_query(ctx, &image)?;
        let base = sub_idx * self.seed_rows;
        let start = bucket % self.seed_rows;
        for step in 0..self.seed_rows {
            let row = (start + step) % self.seed_rows;
            let e = base + row;
            if self.directory.positions(e).is_empty() {
                return Ok(None);
            }
            ctx.record_metric(Metric::MapSeedProbes, 1);
            let matched = self.comparator.compare(ctx, RowAddr(row))?;
            if matched != (self.directory.seeds[e] == seed.packed()) {
                stats.shadow_mismatches += 1;
            }
            if matched {
                return Ok(Some(e));
            }
        }
        Ok(None)
    }

    /// Phase 2 — the columnar Hamming filter over one pass of ≤ `cols`
    /// candidates, one per column, drawn from any reads of the batch.
    /// Returns the surviving candidates with their packed-bit distances.
    fn hamming_filter(
        &self,
        ctx: &mut SubarrayContext,
        reads: &[Read],
        pass: &[Candidate],
        stats: &mut MapStats,
    ) -> Result<Vec<(Candidate, u32)>> {
        let layout = *self.mapper.layout();
        let cols = layout.cols();
        let plane_count = 2 * self.read_len;
        let read_bits: Vec<Vec<bool>> =
            pass.iter().map(|c| reads[c.read].seq.to_row_bits(self.read_len)).collect();
        let window_bits: Vec<Vec<bool>> = pass
            .iter()
            .map(|c| {
                self.reference.subsequence(c.position, self.read_len).to_row_bits(self.read_len)
            })
            .collect();

        let mut scratch = ScratchSpace::new(self.seed_rows, layout.kmer_rows());
        let mut rows = [RowAddr(0); MAX_MAP_ROLES];

        // Per plane, the windows' bits and each column's own read bit are
        // written to two data rows for the XNOR (never the kernel's zero
        // role, which a direct-activation backend opens in the same
        // activation set).
        let wplane_row = scratch.alloc()?;
        let rplane_row = scratch.alloc()?;

        let spill_rows: Vec<RowAddr> = (0..self.kernels.popcount.spill_role_count())
            .map(|_| scratch.alloc())
            .collect::<Result<_>>()?;

        let mut ones_planes = Vec::new();
        let mut twos_planes = Vec::new();
        let mut fours_planes = Vec::new();
        let mut group_rows: Vec<RowAddr> = Vec::new();
        for j in 0..plane_count {
            let wplane = BitRow::from_fn(cols, |c| c < pass.len() && window_bits[c][j]);
            ctx.write_row(wplane_row, &wplane)?;
            let rplane = BitRow::from_fn(cols, |c| c < pass.len() && read_bits[c][j]);
            ctx.write_row(rplane_row, &rplane)?;
            let match_row = scratch.alloc()?;
            let n = self.kernels.xnor.bind_roles_into(
                ctx.geometry(),
                &[wplane_row, rplane_row],
                &[match_row],
                self.zero_row,
                &[],
                &mut rows,
            )?;
            self.kernels.xnor.execute(ctx, &rows[..n])?;
            ctx.record_metric(Metric::MapMatchPlanes, 1);
            group_rows.push(match_row);
            if group_rows.len() == POPCOUNT_FAN_IN || j + 1 == plane_count {
                // Only the last group can be short. Its pads are distinct
                // written zero rows: a triple-row activation may open
                // several pads at once.
                while group_rows.len() < POPCOUNT_FAN_IN {
                    let pad = scratch.alloc()?;
                    ctx.write_row(pad, &BitRow::zeros(cols))?;
                    group_rows.push(pad);
                }
                let (o, t, f) = (scratch.alloc()?, scratch.alloc()?, scratch.alloc()?);
                let n = self.kernels.popcount.bind_roles_into(
                    ctx.geometry(),
                    &group_rows,
                    &[o, t, f],
                    self.zero_row,
                    &spill_rows,
                    &mut rows,
                )?;
                self.kernels.popcount.execute(ctx, &rows[..n])?;
                ctx.record_metric(Metric::MapPopcountOps, 1);
                ones_planes.push(o);
                twos_planes.push(t);
                fours_planes.push(f);
                for row in group_rows.drain(..) {
                    scratch.release(row);
                }
            }
        }

        // Reduce the per-group counter planes to per-candidate totals:
        // matches = Σ ones + 2·Σ twos + 4·Σ fours.
        let mut totals = vec![0u64; cols];
        for (planes, weight) in [(&ones_planes, 1u64), (&twos_planes, 2), (&fours_planes, 4)] {
            let summed =
                PimAdder::column_sum(ctx, self.backend(), planes, self.zero_row, &mut scratch)?;
            for (c, v) in PimAdder::decode_columns(&summed).into_iter().enumerate() {
                totals[c] += weight * v;
            }
        }

        let mut survivors = Vec::new();
        for (c, &cand) in pass.iter().enumerate() {
            let matched = totals[c].min(plane_count as u64) as u32;
            let dist = plane_count as u32 - matched;
            let expected =
                read_bits[c].iter().zip(window_bits[c].iter()).filter(|(r, w)| r != w).count()
                    as u32;
            if dist != expected {
                stats.shadow_mismatches += 1;
            }
            if dist <= self.config.max_mismatch_bits {
                survivors.push((cand, dist));
            }
        }
        Ok(survivors)
    }

    /// Phase 3 — banded unit-cost edit distance for one pass of ≤ `cols`
    /// inexact survivors, run in lockstep one candidate per column. The
    /// host supplies the three operand planes per band cell from the
    /// previously sensed wavefront (the host-mediated shift network; each
    /// column's `sub` operand compares that column's own read) and the
    /// array computes `min(ins, del, sub)` bit-serially over the build's
    /// [`DpWidth`]; the sensed result is the next wavefront value. Returns
    /// each candidate's distance, saturated at INF.
    fn dp_refine(
        &self,
        ctx: &mut SubarrayContext,
        reads: &[Read],
        pass: &[Candidate],
        stats: &mut MapStats,
    ) -> Result<Vec<u32>> {
        let layout = *self.mapper.layout();
        let inf = self.dp.inf();
        let band = self.config.band;
        let width = 2 * band + 1;
        let n = self.read_len; // read length (rows of the DP matrix)
        let m = self.read_len; // window length (columns)
        let reads: Vec<&Read> = pass.iter().map(|c| &reads[c.read]).collect();

        let mut scratch = ScratchSpace::new(self.seed_rows, layout.kmer_rows());
        let rows = DpRows::alloc(ctx, &mut scratch, self.dp.bits())?;

        // prev/cur wavefronts per diagonal offset `d` (j = i + d - band),
        // one value vector per candidate column. Row 0: D[0][j] = j.
        let inf_row = vec![inf; pass.len()];
        let mut prev: Vec<Vec<u32>> = (0..width)
            .map(|d| {
                let j = d as i64 - band as i64;
                if (0..=m as i64).contains(&j) {
                    vec![j as u32; pass.len()]
                } else {
                    inf_row.clone()
                }
            })
            .collect();
        let bump = |v: u32| (v + 1).min(inf);

        let mut cur: Vec<Vec<u32>> = vec![inf_row.clone(); width];
        for i in 1..=n {
            for row in cur.iter_mut() {
                *row = inf_row.clone();
            }
            for d in 0..width {
                let j = i as i64 + d as i64 - band as i64;
                if j < 0 || j > m as i64 {
                    continue;
                }
                let j = j as usize;
                if j == 0 {
                    cur[d] = vec![i as u32; pass.len()];
                    continue;
                }
                // Per-candidate operand values from the sensed wavefront.
                let ins: Vec<u32> = (0..pass.len())
                    .map(|c| if d > 0 { bump(cur[d - 1][c]) } else { inf })
                    .collect();
                let del: Vec<u32> = (0..pass.len())
                    .map(|c| if d + 1 < width { bump(prev[d + 1][c]) } else { inf })
                    .collect();
                let sub: Vec<u32> = pass
                    .iter()
                    .zip(&reads)
                    .enumerate()
                    .map(|(c, (cand, read))| {
                        let neq = read.seq.get(i - 1) != self.reference.get(cand.position + j - 1);
                        (prev[d][c] + u32::from(neq)).min(inf)
                    })
                    .collect();
                // The sensed minimum *is* the next wavefront (fault flips
                // propagate into the distance).
                cur[d] = self.pim_min3(ctx, &rows, &ins, &del, &sub)?;
                stats.dp_cells += pass.len() as u64;
                ctx.record_metric(Metric::MapDpWavefronts, 1);
            }
            std::mem::swap(&mut prev, &mut cur);
        }

        // End cell (n, m) sits at d = m - n + band = band. The shadow is
        // the banded distance saturated at INF, which is what the array
        // computes: a far candidate a faulty filter admits is flagged once,
        // by the filter's shadow, not again here.
        let dists: Vec<u32> = (0..pass.len()).map(|c| prev[band][c]).collect();
        for ((cand, read), &dist) in pass.iter().zip(&reads).zip(&dists) {
            let window = self.reference.subsequence(cand.position, self.read_len);
            let expected = banded_global(&read.seq, &window, band, unit_scoring())
                .map_or(inf, |a| ((-a.score) as u32).min(inf));
            if dist != expected {
                stats.shadow_mismatches += 1;
            }
        }
        Ok(dists)
    }

    /// One lockstep band cell: writes the `ins`/`del`/`sub` operand
    /// vectors (one value per column, each below 2^W for the W planes per
    /// value of `rows`) as bit planes, computes `min(min(ins, del), sub)`
    /// on the array and returns the sensed result planes as values.
    fn pim_min3(
        &self,
        ctx: &mut SubarrayContext,
        rows: &DpRows,
        ins: &[u32],
        del: &[u32],
        sub: &[u32],
    ) -> Result<Vec<u32>> {
        self.write_value_planes(ctx, &rows.ins, ins)?;
        self.write_value_planes(ctx, &rows.del, del)?;
        self.write_value_planes(ctx, &rows.sub, sub)?;
        self.pim_min2(ctx, rows, &rows.ins, &rows.del, &rows.min2)?;
        self.pim_min2(ctx, rows, &rows.min2, &rows.sub, &rows.min3)?;
        Self::read_value_planes(ctx, &rows.min3, ins.len())
    }

    /// Senses one bit-plane row per entry of `planes` (LSB first) and
    /// returns the first `len` columns' values.
    fn read_value_planes(
        ctx: &mut SubarrayContext,
        planes: &[RowAddr],
        len: usize,
    ) -> Result<Vec<u32>> {
        let mut vals = vec![0u32; len];
        for (w, &row) in planes.iter().enumerate() {
            let plane = ctx.read_row(row)?;
            for (c, v) in vals.iter_mut().enumerate() {
                *v |= u32::from(plane.get(c)) << w;
            }
        }
        Ok(vals)
    }

    /// Writes one value-per-candidate vector as one bit-plane row per
    /// entry of `planes` (LSB first).
    fn write_value_planes(
        &self,
        ctx: &mut SubarrayContext,
        planes: &[RowAddr],
        vals: &[u32],
    ) -> Result<()> {
        let cols = ctx.geometry().cols;
        for (w, &row) in planes.iter().enumerate() {
            let plane = BitRow::from_fn(cols, |c| c < vals.len() && (vals[c] >> w) & 1 == 1);
            ctx.write_row(row, &plane)?;
        }
        Ok(())
    }

    /// Column-parallel `out = min(a, b)` over W = `a.len()` bit-sliced
    /// planes: W LSB-first `dp-cell` borrow steps of `a − b` leave
    /// `[a < b]` in a borrow row, then W `min-select` muxes take `a` where
    /// it is set and `b` elsewhere (on a tie `b` holds the same value).
    fn pim_min2(
        &self,
        ctx: &mut SubarrayContext,
        rows: &DpRows,
        a: &[RowAddr],
        b: &[RowAddr],
        out: &[RowAddr],
    ) -> Result<()> {
        let mut bound = [RowAddr(0); MAX_MAP_ROLES];
        let mut borrow = rows.borrow_zero;
        for (w, (&aw, &bw)) in a.iter().zip(b).enumerate() {
            let bout = rows.borrow[w % 2];
            let n = self.kernels.dp_cell.bind_roles_into(
                ctx.geometry(),
                &[aw, bw, borrow],
                &[bout],
                self.zero_row,
                &[],
                &mut bound,
            )?;
            self.kernels.dp_cell.execute(ctx, &bound[..n])?;
            borrow = bout;
        }
        for ((&aw, &bw), &ow) in a.iter().zip(b).zip(out) {
            let n = self.kernels.min_select.bind_roles_into(
                ctx.geometry(),
                &[aw, bw, borrow],
                &[ow],
                self.zero_row,
                &[],
                &mut bound,
            )?;
            self.kernels.min_select.execute(ctx, &bound[..n])?;
        }
        Ok(())
    }
}

/// The scratch rows of one DP pass: W value planes for each of the three
/// operands, `min(ins, del)` and the result, plus the borrow rows.
#[derive(Debug)]
struct DpRows {
    ins: Vec<RowAddr>,
    del: Vec<RowAddr>,
    sub: Vec<RowAddr>,
    min2: Vec<RowAddr>,
    min3: Vec<RowAddr>,
    /// A written zero row: the borrow into plane 0. It is not the
    /// kernels' zero role, because a direct-activation backend opens
    /// input rows in place, and a rewrite that put `bin` and `zero` in
    /// one activation set would then raise the same word line twice.
    borrow_zero: RowAddr,
    /// Two borrow rows the steps alternate between.
    borrow: [RowAddr; 2],
}

impl DpRows {
    /// Allocates the rows for `bits`-bit values from `scratch` and writes
    /// the first borrow's zero row.
    fn alloc(ctx: &mut SubarrayContext, scratch: &mut ScratchSpace, bits: usize) -> Result<Self> {
        let mut planes = || (0..bits).map(|_| scratch.alloc()).collect::<Result<Vec<_>>>();
        let (ins, del, sub, min2, min3) = (planes()?, planes()?, planes()?, planes()?, planes()?);
        let borrow_zero = scratch.alloc()?;
        ctx.write_row(borrow_zero, &BitRow::zeros(ctx.geometry().cols))?;
        let borrow = [scratch.alloc()?, scratch.alloc()?];
        Ok(DpRows { ins, del, sub, min2, min3, borrow_zero, borrow })
    }
}

/// The mapping executor of the staged engine: chunked read mapping over a
/// built [`PimReadMapper`]. Each [`MappingExec::feed`] is one
/// [`PimReadMapper::map_batch`] call and so one batching window: all the
/// candidates of a feed share its Hamming passes, and all its inexact
/// survivors share its DP passes, pass p on the index's sub-array p mod
/// N. [`MappingHit::read_id`] is batch-relative, so each chunk's hits
/// are rebased by the stream offset before accumulation.
///
/// Hits and [`MapStats`] do not depend on the chunking: every candidate
/// is filtered and refined alone in its column, and [`MapStats::merge`]
/// is an order-independent sum. Device cost does depend on it. Every
/// pass has a fixed cost, and C candidates take ⌈C/cols⌉ filter passes
/// in one feed but Σ⌈Cᵢ/cols⌉ over chunks, so passes, commands, time and
/// energy are lowest with the whole stream in one feed and never lower
/// for a finer split (pinned in tests).
#[derive(Debug, Clone)]
pub struct MappingExec {
    mapper: PimReadMapper,
    hits: Vec<Option<MappingHit>>,
    sealed: bool,
}

impl MappingExec {
    /// An executor over a built seed index.
    pub fn new(mapper: PimReadMapper) -> Self {
        MappingExec { mapper, hits: Vec::new(), sealed: false }
    }

    /// Maps one chunk of reads, rebasing hit ids to the stream offset.
    ///
    /// # Errors
    ///
    /// As [`PimReadMapper::map_batch`].
    pub fn feed(
        &mut self,
        ctrl: &mut Controller,
        dispatcher: &ParallelDispatcher,
        reads: &[Read],
    ) -> Result<()> {
        debug_assert!(!self.sealed, "MappingExec::feed after seal");
        let base = self.hits.len();
        let mut chunk_hits = self.mapper.map_batch(ctrl, dispatcher, reads)?;
        for hit in chunk_hits.iter_mut().flatten() {
            hit.read_id += base;
        }
        self.hits.extend(chunk_hits);
        Ok(())
    }

    /// Marks the read stream as exhausted; feeding afterwards is a
    /// contract violation.
    pub fn seal(&mut self) {
        self.sealed = true;
    }

    /// Consumes the executor, yielding the per-read hits (stream order)
    /// and the accumulated statistics.
    pub fn finish(self) -> (Vec<Option<MappingHit>>, MapStats) {
        let stats = *self.mapper.stats();
        (self.hits, stats)
    }
}

/// The `banded_global` scoring whose score is the negated unit-cost
/// banded edit distance — the mapping stage's exact software shadow.
pub fn unit_scoring() -> Scoring {
    Scoring { matches: 0, mismatch: -1, gap: -1 }
}

/// The pure-software reference mapper: identical seed index, identical
/// packed-bit Hamming filter, with [`banded_global`] as the DP oracle and
/// the same cut-off (a distance of INF or more, [`MappingConfig::dp_width`],
/// maps nowhere). On a healthy array [`PimReadMapper::map_batch`] is
/// byte-identical.
pub fn software_map(
    reference: &DnaSequence,
    reads: &[Read],
    read_len: usize,
    config: &MappingConfig,
) -> Vec<Option<MappingHit>> {
    use std::collections::HashMap;
    let inf = config.dp_width(read_len).inf();
    let mut index: HashMap<u64, Vec<usize>> = HashMap::new();
    for p in 0..=(reference.len().saturating_sub(read_len)) {
        let Ok(seed) = Kmer::from_sequence(reference, p, config.seed_len) else { continue };
        index.entry(seed.packed()).or_default().push(p);
    }
    reads
        .iter()
        .enumerate()
        .map(|(read_idx, read)| {
            if read.seq.len() != read_len {
                return None;
            }
            let seed = Kmer::from_sequence(&read.seq, 0, config.seed_len).ok()?;
            let candidates = index.get(&seed.packed())?;
            let read_bits = read.seq.to_row_bits(read_len);
            let mut best: Option<(i32, usize)> = None;
            for &pos in candidates {
                let window = reference.subsequence(pos, read_len);
                let wbits = window.to_row_bits(read_len);
                let dist = read_bits.iter().zip(wbits.iter()).filter(|(r, w)| r != w).count();
                if dist as u32 > config.max_mismatch_bits {
                    continue;
                }
                let score = if dist == 0 {
                    0
                } else {
                    match banded_global(&read.seq, &window, config.band, unit_scoring()) {
                        Some(a) if ((-a.score) as u32) < inf => a.score,
                        _ => continue,
                    }
                };
                let better = match best {
                    None => true,
                    Some((s, p)) => score > s || (score == s && pos < p),
                };
                if better {
                    best = Some((score, pos));
                }
            }
            best.map(|(score, position)| MappingHit { read_id: read_idx, position, score })
        })
        .collect()
}

/// The index sub-arrays a `genome_len`-bp reference mapped with
/// `read_len`-bp reads takes by default: max(4, ⌈windows / (seed_rows /
/// 2)⌉), so the seeds of all the reference's windows would fill at most
/// about half of each sub-array's seed rows; capped at the geometry's
/// sub-array count. A 3 kbp reference with 64 bp reads (2,937 windows,
/// 488 seed rows) takes 13.
pub fn seed_index_subarrays(geometry: &DramGeometry, genome_len: usize, read_len: usize) -> usize {
    let windows = genome_len.saturating_sub(read_len) + 1;
    let seed_rows = SubarrayLayout::new(geometry).kmer_rows() / 2;
    windows
        .div_ceil((seed_rows / 2).max(1))
        .max(MIN_INDEX_SUBARRAYS)
        .min(geometry.total_subarrays())
}

/// Configuration of one end-to-end mapping run (the `pim-asm map`
/// workload). The genome/read simulation itself lives with the callers
/// (this crate stays RNG-free); `genome_len`, `coverage`, `error_rate`,
/// and `seed` record the parameters the workload should be simulated
/// with.
#[derive(Debug, Clone, Copy)]
pub struct MappingRunConfig {
    /// Reference genome length (bases).
    pub genome_len: usize,
    /// Simulated read length (from the seed length to `cols/2`).
    pub read_len: usize,
    /// Read coverage depth.
    pub coverage: f64,
    /// Per-base substitution error rate for simulated reads.
    pub error_rate: f64,
    /// RNG seed (genome + reads).
    pub seed: u64,
    /// Sub-arrays to spread the seed index over.
    pub subarrays: usize,
    /// Hash-bucket granularity of the seed index.
    pub bucket_rows: usize,
    /// Lowering backend for every mapping kernel.
    pub backend: BackendKind,
    /// Dispatcher worker threads (1 = the calling thread alone).
    pub workers: usize,
    /// Mapping-algorithm parameters.
    pub mapping: MappingConfig,
    /// Sense-amp fault rate (0.0 = healthy array).
    pub fault_rate: f64,
    /// Fault-injection RNG seed.
    pub fault_seed: u64,
}

impl Default for MappingRunConfig {
    fn default() -> Self {
        MappingRunConfig {
            genome_len: 300,
            read_len: 32,
            coverage: 4.0,
            error_rate: 0.0,
            seed: 42,
            subarrays: MIN_INDEX_SUBARRAYS,
            bucket_rows: 8,
            backend: BackendKind::PimAssembler,
            workers: 1,
            mapping: MappingConfig::default(),
            fault_rate: 0.0,
            fault_seed: 7,
        }
    }
}

/// Results of one end-to-end mapping run.
#[derive(Debug, Clone)]
pub struct MappingRunReport {
    /// PIM mapping per read (in read order).
    pub hits: Vec<Option<MappingHit>>,
    /// Software-oracle mapping per read.
    pub software: Vec<Option<MappingHit>>,
    /// Whether the PIM and software mappings are byte-identical.
    pub agreement: bool,
    /// Stage statistics.
    pub stats: MapStats,
    /// Scoped metrics snapshot (`mapping.*` keys).
    pub metrics: Option<MetricsSnapshot>,
    /// Sense-amp bit flips the fault model injected.
    pub fault_flips: u64,
    /// Number of simulated reads.
    pub reads: usize,
}

/// Runs the full mapping workload over a pre-simulated `genome` + read
/// set: build the index, map every read in one batch, and compare against
/// [`software_map`]. Callers with an RNG (bench, verify, the CLI)
/// simulate the inputs from the config's `genome_len`/`coverage`/
/// `error_rate`/`seed` fields.
///
/// # Errors
///
/// Index build or mapping errors (overflowing seed regions, DRAM
/// addressing failures); an invalid `fault_rate`.
pub fn run_mapping(
    config: &MappingRunConfig,
    genome: &DnaSequence,
    reads: &[Read],
) -> Result<MappingRunReport> {
    let g = DramGeometry::paper_assembly();
    let mut ctrl = Controller::with_profile(g, &config.backend.profile());
    ctrl.enable_metrics();
    if config.fault_rate > 0.0 {
        ctrl.inject_faults(FaultConfig::new(config.fault_rate, config.fault_seed)?);
    }
    ctrl.set_stage(Stage::Mapping);

    let mapper = KmerMapper::new(&g, config.subarrays, config.bucket_rows);
    let pim = PimReadMapper::build(
        &mut ctrl,
        mapper,
        genome,
        config.read_len,
        config.mapping,
        config.backend,
        OptLevel::O0,
    )?;
    let dispatcher = ParallelDispatcher::with_workers(config.workers.max(1));
    let mut exec = MappingExec::new(pim);
    exec.feed(&mut ctrl, &dispatcher, reads)?;
    exec.seal();
    let (hits, stats) = exec.finish();
    let software = software_map(genome, reads, config.read_len, &config.mapping);
    let agreement = hits == software;
    Ok(MappingRunReport {
        agreement,
        stats,
        metrics: ctrl.metrics_snapshot(),
        fault_flips: ctrl.fault_flips(),
        reads: reads.len(),
        hits,
        software,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_dram::ledger::CommandClass;
    use pim_genome::base::DnaBase;
    use pim_genome::reads::ReadSimulator;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn simulate(config: &MappingRunConfig) -> (DnaSequence, Vec<Read>) {
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let genome = DnaSequence::random(&mut rng, config.genome_len);
        let reads = ReadSimulator::new(config.read_len, config.coverage)
            .with_error_rate(config.error_rate)
            .simulate(&genome, &mut rng);
        (genome, reads)
    }

    fn run(config: &MappingRunConfig) -> Result<MappingRunReport> {
        let (genome, reads) = simulate(config);
        run_mapping(config, &genome, &reads)
    }

    fn small_config() -> MappingRunConfig {
        MappingRunConfig {
            genome_len: 200,
            read_len: 24,
            coverage: 3.0,
            mapping: MappingConfig { seed_len: 12, band: 2, max_mismatch_bits: 8 },
            ..MappingRunConfig::default()
        }
    }

    #[test]
    fn clean_run_matches_the_software_oracle() {
        let report = run(&small_config()).unwrap();
        assert!(report.reads > 0);
        assert!(report.agreement, "PIM and software mappings diverged");
        assert_eq!(report.stats.shadow_mismatches, 0);
        assert!(report.stats.mapped > 0, "nothing mapped: {:?}", report.stats);
    }

    #[test]
    fn error_reads_engage_the_dp_refiner_and_still_agree() {
        let config = MappingRunConfig { error_rate: 0.03, ..small_config() };
        let report = run(&config).unwrap();
        assert!(report.agreement, "PIM and software mappings diverged under read errors");
        assert!(report.stats.dp_cells > 0, "no DP cells ran: {:?}", report.stats);
        assert_eq!(report.stats.shadow_mismatches, 0);
    }

    /// Maps `reads` through one [`MappingExec`], `chunk` reads per feed,
    /// on a fresh metrics-enabled controller (as [`run_mapping`] does
    /// with the whole stream in one feed).
    fn map_in_chunks(
        config: &MappingRunConfig,
        genome: &DnaSequence,
        reads: &[Read],
        chunk: usize,
    ) -> (Vec<Option<MappingHit>>, MapStats, MetricsSnapshot) {
        let g = DramGeometry::paper_assembly();
        let mut ctrl = Controller::with_profile(g, &config.backend.profile());
        ctrl.enable_metrics();
        ctrl.set_stage(Stage::Mapping);
        let mapper = KmerMapper::new(&g, config.subarrays, config.bucket_rows);
        let pim = PimReadMapper::build(
            &mut ctrl,
            mapper,
            genome,
            config.read_len,
            config.mapping,
            config.backend,
            OptLevel::O0,
        )
        .unwrap();
        let mut exec = MappingExec::new(pim);
        for part in reads.chunks(chunk) {
            exec.feed(&mut ctrl, &ParallelDispatcher::serial(), part).unwrap();
        }
        exec.seal();
        let (hits, stats) = exec.finish();
        (hits, stats, ctrl.metrics_snapshot().unwrap())
    }

    #[test]
    fn chunked_mapping_matches_one_shot() {
        // One feed is one batching window. Hits, statistics and the
        // per-read counters do not depend on the chunking; every other
        // counter follows the passes, which can only grow when a batch
        // is split over more feeds (⌈ΣC/cols⌉ ≤ Σ⌈Cᵢ/cols⌉, and every
        // pass has a fixed cost). At this size each phase of every feed
        // fits one pass, on sub-array 0, so the bound holds per
        // sub-array too.
        let config = MappingRunConfig { error_rate: 0.02, ..small_config() };
        let (genome, reads) = simulate(&config);
        let one_shot = run_mapping(&config, &genome, &reads).unwrap();
        assert!(one_shot.agreement);
        let whole = one_shot.metrics.unwrap();
        let per_read = |key: &str| {
            key.ends_with(".map_reads")
                || key.ends_with(".map_seed_probes")
                || key.starts_with("hist.map_candidates.")
        };
        for n in [1, 3, 7] {
            let (hits, stats, chunked) = map_in_chunks(&config, &genome, &reads, n);
            assert_eq!(hits, one_shot.hits, "chunk={n}");
            assert_eq!(stats, one_shot.stats, "chunk={n}");
            assert!(chunked.counters.keys().eq(whole.counters.keys()), "chunk={n}");
            for (key, &value) in &whole.counters {
                let got = chunked.counter(key);
                if per_read(key) {
                    assert_eq!(got, value, "chunk={n}: per-read counter {key}");
                } else {
                    assert!(got >= value, "chunk={n}: {key} = {got}, one-shot {value}");
                }
            }
            if n == 1 {
                let planes = |m: &MetricsSnapshot| m.counter("mapping.map_match_planes");
                assert!(planes(&whole) < planes(&chunked), "one feed shared no pass");
            }
        }
    }

    /// A repeat-heavy reference of `len` bases: copies of one random
    /// motif, each followed by its own random spacer.
    fn motif_reference(
        rng: &mut ChaCha8Rng,
        motif_len: usize,
        spacer_len: usize,
        len: usize,
    ) -> DnaSequence {
        let motif = DnaSequence::random(rng, motif_len);
        let mut genome = DnaSequence::new();
        while genome.len() < len {
            genome.extend_from(&motif);
            genome.extend_from(&DnaSequence::random(rng, spacer_len));
        }
        genome.subsequence(0, len)
    }

    #[test]
    fn one_reads_candidates_straddle_two_filter_passes() {
        // 3 kbp of 40 bp motif + 20 bp spacer: 50 motif copies. A read
        // sampled at offset 16 of a copy seeds inside the motif, so it has
        // one candidate per copy, and its window runs into the copy's own
        // spacer, so the filter separates the copies. Eight such reads
        // share one seed and so one home sub-array: 400 candidates in
        // one feed, and the sixth read's (columns 250..300) straddle the
        // first and second filter pass. That read is exact and its own
        // window sits in column 255, so its hit must survive the second
        // pass. Even copies carry a substitution past the seed, so the DP
        // path runs on both sides of the boundary too.
        const MOTIF: usize = 40;
        const PERIOD: usize = 60;
        const READ_LEN: usize = 32;
        let mut rng = ChaCha8Rng::seed_from_u64(19);
        let genome = motif_reference(&mut rng, MOTIF, PERIOD - MOTIF, 3_000);
        let mut reads: Vec<Read> = (0..8)
            .map(|copy| {
                let origin = copy * PERIOD + 16;
                let mut seq = DnaSequence::new();
                for i in 0..READ_LEN {
                    let base = genome.get(origin + i);
                    seq.push(if copy % 2 == 0 && i == 20 { base.complement() } else { base });
                }
                Read { id: copy, seq, origin }
            })
            .collect();
        reads.extend(
            ReadSimulator::new(READ_LEN, 0.5).with_error_rate(0.02).simulate(&genome, &mut rng),
        );
        let base =
            MappingRunConfig { read_len: READ_LEN, subarrays: 16, ..MappingRunConfig::default() };
        let software = software_map(&genome, &reads, READ_LEN, &base.mapping);
        let planes_per_pass = 2 * READ_LEN as u64;
        for backend in BackendKind::ALL {
            let report =
                run_mapping(&MappingRunConfig { backend, ..base }, &genome, &reads).unwrap();
            assert_eq!(report.hits, software, "{backend}");
            assert_eq!(report.stats.shadow_mismatches, 0, "{backend}");
            let planes = report.metrics.unwrap().counter("mapping.map_match_planes");
            assert!(
                planes >= 2 * planes_per_pass,
                "{backend}: the batch ran fewer than two filter passes"
            );
        }
    }

    #[test]
    fn dp_width_is_the_narrowest_that_keeps_inf_above_every_operand() {
        let defaults = MappingConfig::default();
        assert_eq!(defaults.dp_width(64), DpWidth { bits: 4 });
        assert_eq!(defaults.dp_width(24), DpWidth { bits: 4 });
        let wide = MappingConfig { band: 4, max_mismatch_bits: 40, ..defaults };
        assert_eq!(wide.dp_width(64), DpWidth { bits: 6 });
        // The read length caps the bound: a 128 bp read never needs more
        // than 8 bits, whatever the filter admits.
        let unfiltered =
            MappingConfig { band: usize::MAX, max_mismatch_bits: u32::MAX, ..defaults };
        assert_eq!(unfiltered.dp_width(128), DpWidth { bits: 8 });
        assert_eq!(unfiltered.dp_width(24), DpWidth { bits: 5 });
        for bound in 0..300u32 {
            let config = MappingConfig { band: 0, max_mismatch_bits: bound, ..defaults };
            let dp = config.dp_width(usize::MAX);
            let (bits, inf) = (dp.bits(), dp.inf());
            assert_eq!(u64::from(inf), (1u64 << bits) - 1, "bound {bound}");
            assert!(inf > bound + 1, "bound {bound}: INF {inf} reaches an operand");
            assert!((inf >> 1) <= bound + 1, "bound {bound}: {bits} bits is not the narrowest");
        }
    }

    /// A mapper over a random 200 bp reference for 64 bp reads at the
    /// default config, built for `backend` on a fresh controller, to drive
    /// the DP kernels directly.
    fn dp_mapper(backend: BackendKind) -> (Controller, PimReadMapper) {
        let g = DramGeometry::paper_assembly();
        let genome = DnaSequence::random(&mut ChaCha8Rng::seed_from_u64(1), 200);
        let mut ctrl = Controller::with_profile(g, &backend.profile());
        let mapper = KmerMapper::new(&g, 1, 8);
        let config = MappingConfig::default();
        let pim =
            PimReadMapper::build(&mut ctrl, mapper, &genome, 64, config, backend, OptLevel::O0)
                .unwrap();
        (ctrl, pim)
    }

    #[test]
    fn dp_width_min3_is_exact_on_every_admissible_operand_triple() {
        // At the defaults every band value is at most B = 8 + 2 and every
        // operand the host writes at most B + 1 = 11, or INF = 15: 13
        // values and 2,197 triples, one per column over 9 passes. The
        // 4-bit `pim_min2`∘`pim_min2` must equal both the 8-bit one and
        // the integer minimum, on every backend.
        const READ_LEN: usize = 64;
        let config = MappingConfig::default();
        let dp = config.dp_width(READ_LEN);
        assert_eq!(dp, DpWidth { bits: 4 });
        let bound = config.max_mismatch_bits + config.band as u32;
        let values: Vec<u32> = (0..=bound + 1).chain([dp.inf()]).collect();
        let values = &values;
        let triples: Vec<[u32; 3]> = values
            .iter()
            .flat_map(|&a| values.iter().flat_map(move |&b| values.iter().map(move |&c| [a, b, c])))
            .collect();
        assert_eq!(triples.len(), 2_197);
        let g = DramGeometry::paper_assembly();
        for backend in BackendKind::ALL {
            let (mut ctrl, pim) = dp_mapper(backend);
            assert_eq!(pim.dp, dp);
            let kmer_rows = pim.mapper().layout().kmer_rows();
            ctrl.with_context(pim.mapper().subarrays()[0], |ctx| {
                let mut scratch = ScratchSpace::new(pim.seed_rows, kmer_rows);
                let narrow = DpRows::alloc(ctx, &mut scratch, dp.bits())?;
                let eight = DpRows::alloc(ctx, &mut scratch, 8)?;
                for pass in triples.chunks(g.cols) {
                    let operand = |k: usize| pass.iter().map(|t| t[k]).collect::<Vec<u32>>();
                    let (ins, del, sub) = (operand(0), operand(1), operand(2));
                    let got = pim.pim_min3(ctx, &narrow, &ins, &del, &sub)?;
                    let wide = pim.pim_min3(ctx, &eight, &ins, &del, &sub)?;
                    let want: Vec<u32> = pass.iter().map(|t| t[0].min(t[1]).min(t[2])).collect();
                    assert_eq!(got, wide, "{backend}: 4-bit against 8-bit min3");
                    assert_eq!(got, want, "{backend}: 4-bit min3 against the integer minimum");
                }
                Ok::<_, PimError>(())
            })
            .unwrap();
        }
    }

    #[test]
    fn pim_min2_is_exact_on_every_pair_of_values() {
        // Every pair of W-bit values, one per column: 256 pairs in one pass
        // at W = 4, 65,536 over 256 passes at W = 8. The borrow chain must
        // leave [A < B] in its last borrow row and the muxes the integer
        // minimum, ties and the all-ones value included, on every backend.
        let cols = DramGeometry::paper_assembly().cols;
        for backend in BackendKind::ALL {
            let (mut ctrl, pim) = dp_mapper(backend);
            let kmer_rows = pim.mapper().layout().kmer_rows();
            ctrl.with_context(pim.mapper().subarrays()[0], |ctx| {
                for bits in [4usize, 8] {
                    let mut scratch = ScratchSpace::new(pim.seed_rows, kmer_rows);
                    let rows = DpRows::alloc(ctx, &mut scratch, bits)?;
                    let n = 1u32 << bits;
                    let pairs: Vec<(u32, u32)> =
                        (0..n).flat_map(|a| (0..n).map(move |b| (a, b))).collect();
                    for pass in pairs.chunks(cols) {
                        let (a, b): (Vec<u32>, Vec<u32>) = pass.iter().copied().unzip();
                        pim.write_value_planes(ctx, &rows.ins, &a)?;
                        pim.write_value_planes(ctx, &rows.del, &b)?;
                        pim.pim_min2(ctx, &rows, &rows.ins, &rows.del, &rows.min2)?;
                        let got = PimReadMapper::read_value_planes(ctx, &rows.min2, a.len())?;
                        let borrow = ctx.peek_row(rows.borrow[(bits - 1) % 2])?;
                        for (c, &(x, y)) in pass.iter().enumerate() {
                            let at = format!("{backend} W={bits}: {x} against {y}");
                            assert_eq!(borrow.get(c), x < y, "{at}: borrow out");
                            assert_eq!(got[c], x.min(y), "{at}: minimum");
                        }
                    }
                }
                Ok::<_, PimError>(())
            })
            .unwrap();
        }
    }

    #[test]
    fn a_four_bit_band_cell_costs_104_array_commands_8_of_them_tras() {
        // P-A at the defaults' W = 4: each of a band cell's two min2s runs 4
        // borrow steps (AAP 4, AAP2 1, AAP3 1) and 4 muxes (AAP 4, AAP2 3),
        // so its min3 is 104 array commands of which 8 are TRAs. With the
        // 12 operand-plane writes and 4 senses the cell is 120 commands.
        let (mut ctrl, pim) = dp_mapper(BackendKind::PimAssembler);
        let kmer_rows = pim.mapper().layout().kmer_rows();
        let delta = ctrl
            .with_context(pim.mapper().subarrays()[0], |ctx| {
                let mut scratch = ScratchSpace::new(pim.seed_rows, kmer_rows);
                let rows = DpRows::alloc(ctx, &mut scratch, pim.dp.bits())?;
                let before = *ctx.ledger();
                let got = pim.pim_min3(ctx, &rows, &[3, 9], &[7, 15], &[5, 2])?;
                assert_eq!(got, [3, 2]);
                Ok::<_, PimError>(ctx.ledger().since(&before))
            })
            .unwrap();
        let array = [CommandClass::Aap, CommandClass::Aap2, CommandClass::Aap3];
        let array_commands: u64 = array.iter().map(|&class| delta.count(class)).sum();
        assert_eq!(array_commands, 104, "array commands per min3: {delta:?}");
        assert_eq!(delta.count(CommandClass::Aap3), 8, "TRAs per min3: {delta:?}");
        assert_eq!(delta.count(CommandClass::Write), 12, "plane writes per cell: {delta:?}");
        assert_eq!(delta.count(CommandClass::Read), 4, "senses per cell: {delta:?}");
        assert_eq!(delta.total_commands(), 120);
    }

    #[test]
    fn dp_width_above_four_maps_far_filtered_reads_like_software() {
        // max_mismatch_bits 40 and band 4 give W = 6 (INF 63). Each read
        // keeps its window's seed and carries one-bit substitutions (T↔G,
        // A↔C), so up to 38 of them pass the 40-bit filter, and most sit
        // more than 15 edits from their window: a 4-bit DP would saturate
        // those at 15 and map them nowhere.
        const READ_LEN: usize = 64;
        let mapping = MappingConfig { seed_len: 16, band: 4, max_mismatch_bits: 40 };
        assert_eq!(mapping.dp_width(READ_LEN), DpWidth { bits: 6 });
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let genome = DnaSequence::random(&mut rng, 600);
        let reads: Vec<Read> = (0..12)
            .map(|r| {
                let origin = 40 * r + 7;
                let subs = 16 + 2 * r;
                let hit = |i: usize| i >= 16 && (i - 16) * subs % (READ_LEN - 16) < subs;
                let mut seq = DnaSequence::new();
                for i in 0..READ_LEN {
                    let base = genome.get(origin + i);
                    seq.push(if hit(i) { DnaBase::from_code(base.code() ^ 1) } else { base });
                }
                Read { id: r, seq, origin }
            })
            .collect();
        let software = software_map(&genome, &reads, READ_LEN, &mapping);
        assert!(software.iter().all(Option::is_some), "a read failed the filter: {software:?}");
        let far = software.iter().flatten().filter(|h| h.score < -15).count();
        assert!(far >= 6, "only {far} reads lie more than 15 edits away: {software:?}");
        let base =
            MappingRunConfig { genome_len: 600, read_len: READ_LEN, mapping, ..Default::default() };
        for backend in BackendKind::ALL {
            let report =
                run_mapping(&MappingRunConfig { backend, ..base }, &genome, &reads).unwrap();
            assert_eq!(report.hits, software, "{backend}");
            assert_eq!(report.stats.shadow_mismatches, 0, "{backend}");
        }
    }

    #[test]
    fn dp_refine_saturates_a_far_candidate_without_a_second_shadow() {
        // A candidate more than INF edits from its window reaches the DP
        // only through a faulty filter, whose own shadow flags it. The
        // healthy array saturates its distance at INF = 15, which is what
        // the DP shadow expects, so it is not flagged twice.
        const READ_LEN: usize = 32;
        let g = DramGeometry::paper_assembly();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let genome = DnaSequence::random(&mut rng, 100);
        let mut ctrl = Controller::with_profile(g, &BackendKind::PimAssembler.profile());
        let config = MappingConfig::default();
        let pim = PimReadMapper::build(
            &mut ctrl,
            KmerMapper::new(&g, 1, 8),
            &genome,
            READ_LEN,
            config,
            BackendKind::PimAssembler,
            OptLevel::O0,
        )
        .unwrap();
        let seq = DnaSequence::random(&mut rng, READ_LEN);
        let window = genome.subsequence(0, READ_LEN);
        let distance = -banded_global(&seq, &window, config.band, unit_scoring()).unwrap().score;
        assert!(distance > 15, "the read is only {distance} edits away");
        let reads = [Read { id: 0, seq, origin: 0 }];
        let mut stats = MapStats::default();
        let dists = ctrl
            .with_context(pim.mapper().subarrays()[0], |ctx| {
                pim.dp_refine(ctx, &reads, &[Candidate { read: 0, position: 0 }], &mut stats)
            })
            .unwrap();
        assert_eq!(dists, [15]);
        assert_eq!(stats.shadow_mismatches, 0);
    }

    #[test]
    fn hostile_band_and_mismatch_configs_map_like_their_clamps() {
        // A band of usize::MAX used to overflow `2 * band + 1` in the DP;
        // any band of at least the read length spans every cell, so it
        // maps exactly like band = read_len. A threshold of u32::MAX bits
        // admits every candidate, exactly like 2·read_len bits does.
        let base = MappingRunConfig { error_rate: 0.03, ..small_config() };
        let (genome, reads) = simulate(&base);
        let (read_len, mapping) = (base.read_len, base.mapping);
        let pairs = [
            (
                MappingConfig { band: usize::MAX, ..mapping },
                MappingConfig { band: read_len, ..mapping },
            ),
            (
                MappingConfig { max_mismatch_bits: u32::MAX, ..mapping },
                MappingConfig { max_mismatch_bits: 2 * read_len as u32, ..mapping },
            ),
        ];
        for (hostile, clamped) in pairs {
            let software = software_map(&genome, &reads, read_len, &hostile);
            assert_eq!(software, software_map(&genome, &reads, read_len, &clamped));
            assert!(software.iter().flatten().any(|h| h.score < 0), "no inexact hit");
            for backend in BackendKind::ALL {
                let run = |mapping| {
                    let config = MappingRunConfig { mapping, backend, ..base };
                    run_mapping(&config, &genome, &reads).unwrap()
                };
                let (h, c) = (run(hostile), run(clamped));
                assert_eq!(h.hits, software, "{backend}: {hostile:?}");
                assert_eq!(h.stats, c.stats, "{backend}: {hostile:?}");
                assert_eq!(h.stats.shadow_mismatches, 0, "{backend}: {hostile:?}");
                assert_eq!(h.metrics.unwrap().counters, c.metrics.unwrap().counters);
            }
        }
    }

    #[test]
    fn the_seed_index_is_sized_from_the_reference() {
        let g = DramGeometry::paper_assembly();
        // 2,937 windows over 488 / 2 seed rows per sub-array.
        assert_eq!(seed_index_subarrays(&g, 3_000, 64), 13);
        let defaults = MappingRunConfig::default();
        assert_eq!(seed_index_subarrays(&g, defaults.genome_len, defaults.read_len), 4);
        assert_eq!(seed_index_subarrays(&g, usize::MAX, 16), g.total_subarrays());
    }

    #[test]
    fn unit_scoring_negates_the_edit_distance() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let a = DnaSequence::random(&mut rng, 30);
        // One substitution: distance exactly 1.
        let mut b = DnaSequence::new();
        for i in 0..a.len() {
            b.push(if i == 10 { a.get(i).complement() } else { a.get(i) });
        }
        let aln = banded_global(&a, &b, 2, unit_scoring()).unwrap();
        assert_eq!(aln.score, -1);
    }

    #[test]
    fn mismatched_read_length_is_rejected() {
        let g = DramGeometry::paper_assembly();
        let mut ctrl = Controller::with_profile(g, &BackendKind::PimAssembler.profile());
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let genome = DnaSequence::random(&mut rng, 100);
        let mapper = KmerMapper::new(&g, 2, 8);
        let mut pim = PimReadMapper::build(
            &mut ctrl,
            mapper,
            &genome,
            24,
            MappingConfig { seed_len: 12, ..MappingConfig::default() },
            BackendKind::PimAssembler,
            OptLevel::O0,
        )
        .unwrap();
        let bad = Read { id: 0, seq: DnaSequence::random(&mut rng, 20), origin: 0 };
        let err = pim.map_batch(&mut ctrl, &ParallelDispatcher::serial(), &[bad]).unwrap_err();
        assert_eq!(err, PimError::SequenceLength { what: "read", len: 20, expected: 24 });
        assert_eq!(err.to_string(), "read is 20 bp but the mapping index takes 24 bp reads");

        let short = DnaSequence::random(&mut rng, 10);
        let err = PimReadMapper::build(
            &mut ctrl,
            KmerMapper::new(&g, 2, 8),
            &short,
            24,
            MappingConfig { seed_len: 12, ..MappingConfig::default() },
            BackendKind::PimAssembler,
            OptLevel::O0,
        )
        .unwrap_err();
        assert_eq!(err, PimError::SequenceLength { what: "reference", len: 10, expected: 24 });
    }

    #[test]
    fn oversized_read_length_is_rejected_at_build() {
        let g = DramGeometry::paper_assembly();
        let mut ctrl = Controller::new(g);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let genome = DnaSequence::random(&mut rng, 400);
        // Longer than half a 256-column row, and shorter than the 16 bp seed.
        for (read_len, message) in [
            (200, "read length 200 bp is outside the supported range 16..=128 bp"),
            (10, "read length 10 bp is outside the supported range 16..=128 bp"),
        ] {
            let err = PimReadMapper::build(
                &mut ctrl,
                KmerMapper::new(&g, 2, 8),
                &genome,
                read_len,
                MappingConfig::default(),
                BackendKind::PimAssembler,
                OptLevel::O0,
            )
            .unwrap_err();
            assert_eq!(
                err,
                PimError::LengthOutOfRange {
                    what: "read length",
                    len: read_len,
                    min: 16,
                    max: 128
                }
            );
            assert_eq!(err.to_string(), message);
        }
    }

    /// Band cells one DP pass evaluates: every `(i, j)` of the band with
    /// `1 ≤ i ≤ n` and `1 ≤ j ≤ n` (column 0 is seeded by the host).
    fn band_cells(n: usize, band: usize) -> u64 {
        (1..=n).map(|i| (i.saturating_sub(band).max(1)..=(i + band).min(n)).count() as u64).sum()
    }

    #[test]
    fn map_dp_sized_batch_runs_pooled_passes() {
        // The benchmark's read-mapping shape: 3 kbp, 64 bp reads at 10×
        // with 2% substitutions, 16 index sub-arrays. Its ~350 candidates
        // take ⌈C/256⌉ = 2 filter passes and its ~220 inexact survivors
        // one DP pass for the whole batch; packed per home sub-array they
        // took 16 of each.
        let config = MappingRunConfig {
            genome_len: 3_000,
            read_len: 64,
            coverage: 10.0,
            error_rate: 0.02,
            seed: 11,
            subarrays: 16,
            ..MappingRunConfig::default()
        };
        let (genome, reads) = simulate(&config);
        let report = run_mapping(&config, &genome, &reads).unwrap();
        assert_eq!(report.hits, software_map(&genome, &reads, 64, &config.mapping));
        assert_eq!(report.stats.shadow_mismatches, 0);
        let cols = DramGeometry::paper_assembly().cols as u64;
        let candidates = report.stats.candidates;
        assert!(candidates > cols, "{candidates} candidates fill only one filter pass");
        let per_pass = band_cells(64, config.mapping.band);
        assert_eq!(report.stats.dp_cells % per_pass, 0);
        let inexact = report.stats.dp_cells / per_pass;
        assert!(inexact > 0, "no DP pass ran");

        let metrics = report.metrics.unwrap();
        let planes_per_pass = 2 * 64;
        assert_eq!(
            metrics.counter("mapping.map_match_planes"),
            candidates.div_ceil(cols) * planes_per_pass
        );
        assert_eq!(metrics.counter("mapping.map_dp_wavefronts"), inexact.div_ceil(cols) * per_pass);
        // Pass p runs on sub-array p mod 16: filter passes 0 and 1, on
        // both sub-arrays alike with a worker per partition.
        for (sub, planes) in [(0, planes_per_pass), (1, planes_per_pass), (2, 0)] {
            let key = format!("mapping.sub{sub:05}.map_match_planes");
            assert_eq!(metrics.counter(&key), planes, "{key}");
        }
        let pooled = run_mapping(&MappingRunConfig { workers: 2, ..config }, &genome, &reads);
        assert_eq!(pooled.unwrap().metrics.unwrap().counters, metrics.counters);
    }
}
