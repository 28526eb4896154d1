//! Stage 1 — the `Hashmap(S, k)` procedure in PIM (Fig. 5b, Fig. 6, Fig. 7).
//!
//! Every k-mer chopped from the read stream is staged into its home
//! sub-array's temp region, compared against the bucket's stored k-mer rows
//! with `PIM_XNOR`, and either its frequency counter in the value region is
//! updated (`New_freq`) or the k-mer is `MEM_insert`-ed into the next free
//! row. All data lives in the bit-accurate sub-arrays; the builder keeps a
//! shadow slot directory purely so that verification and iteration do not
//! have to rescan DRAM rows (the hardware controller tracks the same
//! occupancy in its bucket pointers).
//!
//! Because a k-mer only ever touches its home sub-array, the whole stage is
//! embarrassingly parallel across sub-arrays: [`PimHashTable::insert`]
//! groups a k-mer stream by home sub-array and drives each group through a
//! detached [`pim_dram::context::SubarrayContext`] under a
//! [`ParallelDispatcher`], producing byte-identical table state and command
//! totals for any worker count ([`ParallelDispatcher::serial`] runs the
//! same partitions on the calling thread).

use pim_dram::address::{RowAddr, SubarrayId};
use pim_dram::bitrow::BitRow;
use pim_dram::context::SubarrayContext;
use pim_dram::controller::Controller;
use pim_dram::ledger::CommandClass;
use pim_dram::DramError;
use pim_genome::kmer::{Kmer, KmerIter};
use pim_genome::reads::Read;
use pim_obsv::{HistKey, Metric};

use crate::checkpoint::{lines, list_fields, push_list_line, StageCheckpoint};
use crate::config::PimAssemblerConfig;
use crate::dispatch::ParallelDispatcher;
use crate::dpu::Dpu;
use crate::error::{PimError, Result};
use crate::ir::{BackendKind, OptLevel};
use crate::layout::{SubarrayLayout, COUNTER_BITS};
use crate::mapping::KmerMapper;
use crate::pim_xnor::PimComparator;

/// Statistics of the hash stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HashStats {
    /// K-mers offered (total stream).
    pub inserted_total: u64,
    /// Distinct k-mers stored.
    pub distinct: u64,
    /// `PIM_XNOR` probes performed.
    pub probes: u64,
    /// Counter updates (hits on existing k-mers).
    pub hits: u64,
    /// Probes where the in-DRAM `PIM_XNOR` verdict disagreed with the
    /// host-side shadow directory. Always 0 on a healthy array; non-zero
    /// under fault injection, where it is the stage's corruption-detection
    /// signal (the PIM verdict still drives control flow, as it would in
    /// hardware).
    pub shadow_mismatches: u64,
}

impl HashStats {
    /// Accumulates another counter set (per-sub-array partial results
    /// merging into the stage total; plain integer addition, so the merge
    /// is order-independent). Leaves `self` unchanged on error.
    ///
    /// # Errors
    ///
    /// [`PimError::Checkpoint`] naming the `hash.*` checkpoint field whose
    /// total would overflow 64 bits: live counting cannot get there, a
    /// resumed checkpoint with an edited statistic can.
    pub fn merge(&mut self, other: &HashStats) -> Result<()> {
        let mut merged = *self;
        for (name, total, add) in [
            ("inserted_total", &mut merged.inserted_total, other.inserted_total),
            ("distinct", &mut merged.distinct, other.distinct),
            ("probes", &mut merged.probes, other.probes),
            ("hits", &mut merged.hits, other.hits),
            ("shadow_mismatches", &mut merged.shadow_mismatches, other.shadow_mismatches),
        ] {
            *total = total.checked_add(add).ok_or_else(|| PimError::Checkpoint {
                reason: format!("checkpointed `hash.{name}` overflows 64 bits"),
            })?;
        }
        *self = merged;
        Ok(())
    }

    /// Writes the statistics into `cp` as `{prefix}.*` fields.
    pub fn save(&self, cp: &mut StageCheckpoint, prefix: &str) {
        for (name, value) in [
            ("inserted_total", self.inserted_total),
            ("distinct", self.distinct),
            ("probes", self.probes),
            ("hits", self.hits),
            ("shadow_mismatches", self.shadow_mismatches),
        ] {
            cp.fields.insert(format!("{prefix}.{name}"), value);
        }
    }

    /// Reads statistics written by [`HashStats::save`] (absent fields
    /// read as 0).
    pub fn load(cp: &StageCheckpoint, prefix: &str) -> Self {
        let field = |name: &str| cp.field(&format!("{prefix}.{name}"));
        HashStats {
            inserted_total: field("inserted_total"),
            distinct: field("distinct"),
            probes: field("probes"),
            hits: field("hits"),
            shadow_mismatches: field("shadow_mismatches"),
        }
    }
}

/// The in-DRAM k-mer hash table.
///
/// # Examples
///
/// ```
/// use pim_assembler::dispatch::ParallelDispatcher;
/// use pim_assembler::{hashmap_stage::PimHashTable, mapping::KmerMapper};
/// use pim_dram::{controller::Controller, geometry::DramGeometry};
///
/// let g = DramGeometry::paper_assembly();
/// let mut ctrl = Controller::new(g);
/// let mut table = PimHashTable::new(KmerMapper::new(&g, 2, 8));
/// let kmer: pim_genome::Kmer = "CGTGCGTGCTTACGGA".parse()?;
/// table.insert(&mut ctrl, &ParallelDispatcher::serial(), &[kmer, kmer])?;
/// let count = ctrl.with_context(table.home_subarray(&kmer), |ctx| table.count(ctx, &kmer))?;
/// assert_eq!(count, 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct PimHashTable {
    mapper: KmerMapper,
    /// The IR-compiled `PIM_XNOR` probe kernel for this layout's row width.
    comparator: PimComparator,
    /// Shadow occupancy: `slots[subarray][row] = Some(kmer)`.
    slots: Vec<Vec<Option<Kmer>>>,
    /// Per sub-array, the entries inserted or re-counted since the change
    /// record was last cleared: what a checkpoint journal record holds.
    changes: Vec<RowChanges>,
    stats: HashStats,
}

/// One sub-array's change record: each entry inserted or re-counted
/// since the record was last cleared, once, with its k-mer and the count
/// it holds now. A journal record is rendered from it alone: reading a
/// sparse record's entries back from the shadow slots and value rows
/// cost about twice as much at 349 sub-arrays. Its size is bounded by the
/// sub-array's k-mer rows, so a table that is never checkpointed keeps at
/// most one entry per slot.
#[derive(Debug, Clone, Default)]
struct RowChanges {
    /// `(row, packed k-mer, k)` of each changed entry.
    entries: Vec<(u32, u64, u8)>,
    /// `counts[row]`: the count a changed row holds now, or 0 while it
    /// is unchanged (a stored entry counts at least 1).
    counts: Vec<u8>,
}

// A counter fits the change record's `u8` counts.
const _: () = assert!(COUNTER_BITS <= 8);

impl RowChanges {
    fn new(kmer_rows: usize) -> Self {
        RowChanges { entries: Vec::new(), counts: vec![0; kmer_rows] }
    }

    /// Records that `row` holds `kmer` and now counts `count`.
    fn record(&mut self, row: usize, kmer: Kmer, count: u64) {
        if self.counts[row] == 0 {
            self.entries.push((row as u32, kmer.packed(), kmer.k() as u8));
        }
        self.counts[row] = u8::try_from(count).expect("counters are at most 8 bits wide");
    }

    fn clear(&mut self) {
        for &(row, ..) in &self.entries {
            self.counts[row as usize] = 0;
        }
        self.entries.clear();
    }
}

impl PimHashTable {
    /// Creates an empty table over the mapper's sub-array partition,
    /// compiling the probe kernel once for the layout's row width.
    pub fn new(mapper: KmerMapper) -> Self {
        PimHashTable::with_backend(mapper, BackendKind::PimAssembler, OptLevel::O0)
    }

    /// [`PimHashTable::new`] with the probe kernel lowered for `backend`
    /// at optimization level `opt`.
    pub fn with_backend(mapper: KmerMapper, backend: BackendKind, opt: OptLevel) -> Self {
        let (kmer_rows, subarrays) = (mapper.layout().kmer_rows(), mapper.subarrays().len());
        let slots = vec![vec![None; kmer_rows]; subarrays];
        let changes = vec![RowChanges::new(kmer_rows); subarrays];
        let comparator = PimComparator::new(mapper.geometry(), backend, opt);
        PimHashTable { mapper, comparator, slots, changes, stats: HashStats::default() }
    }

    /// The lowering backend the probe kernel runs on.
    pub fn backend(&self) -> BackendKind {
        self.comparator.backend()
    }

    /// The mapper in use.
    pub fn mapper(&self) -> &KmerMapper {
        &self.mapper
    }

    /// Stage statistics so far.
    pub fn stats(&self) -> &HashStats {
        &self.stats
    }

    /// Inserts a k-mer stream, dispatching each home sub-array's share as
    /// an independent partition. The interleaving across sub-arrays is
    /// immaterial — they share no rows and no shadow slots — and each
    /// sub-array sees its k-mers in arrival order, so the final table
    /// state, stage statistics, and command totals are identical for any
    /// worker count and any split of the stream into calls.
    ///
    /// # Errors
    ///
    /// * [`PimError::SubarrayFull`] when a home sub-array's k-mer region
    ///   overflows. Every partition runs to its own first failure
    ///   (independent sub-arrays have no rollback); the first failing
    ///   partition's error — in home-sub-array order — is returned.
    /// * [`PimError::Checkpoint`] when a statistic restored from a
    ///   checkpoint overflows (see [`HashStats::merge`]).
    /// * DRAM addressing errors.
    pub fn insert(
        &mut self,
        ctrl: &mut Controller,
        dispatcher: &ParallelDispatcher,
        kmers: &[Kmer],
    ) -> Result<()> {
        // Group the stream by home sub-array, preserving arrival order
        // within each group.
        let mut groups: Vec<Vec<Kmer>> = vec![Vec::new(); self.slots.len()];
        for &kmer in kmers {
            let (sub_idx, _) = self.mapper.home(&kmer);
            groups[sub_idx].push(kmer);
        }
        let mut partitions = Vec::new();
        for (sub_idx, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            // The shadow slots and change record travel with the
            // partition and come back in the result, so a failing group
            // still returns its directory.
            let slots = std::mem::take(&mut self.slots[sub_idx]);
            let changes = std::mem::take(&mut self.changes[sub_idx]);
            partitions.push((self.mapper.subarrays()[sub_idx], (sub_idx, group, slots, changes)));
        }
        let mapper = &self.mapper;
        let comparator = &self.comparator;
        let results = dispatcher.run_partitions(ctrl, partitions, |ctx, payload| {
            let (sub_idx, group, mut slots, mut changes) = payload;
            let mut stats = HashStats::default();
            let mut first_err = None;
            // One image buffer for the whole group: the per-k-mer loop is
            // allocation-free in steady state.
            let mut image = BitRow::zeros(ctx.geometry().cols);
            for kmer in group {
                if let Err(e) = Self::insert_one(
                    ctx,
                    mapper,
                    comparator,
                    sub_idx,
                    &mut slots,
                    &mut changes,
                    &mut stats,
                    kmer,
                    &mut image,
                ) {
                    first_err = Some(e);
                    break;
                }
            }
            Ok((sub_idx, slots, changes, stats, first_err))
        })?;
        let mut first_err = None;
        for (sub_idx, slots, changes, stats, err) in results {
            self.slots[sub_idx] = slots;
            self.changes[sub_idx] = changes;
            let merged = self.stats.merge(&stats).err();
            first_err = first_err.or(err).or(merged);
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// The sub-array `kmer` is stored in: the context
    /// [`PimHashTable::count`] probes.
    pub fn home_subarray(&self, kmer: &Kmer) -> SubarrayId {
        self.mapper.subarrays()[self.mapper.home(kmer).0]
    }

    /// Reads the frequency of `kmer` (0 if absent) on `ctx`, its home
    /// sub-array, charging the probe commands like a real query.
    ///
    /// # Errors
    ///
    /// [`DramError::SubarrayDetached`] (wrapped) when `ctx` is not
    /// [`PimHashTable::home_subarray`] of `kmer`; DRAM addressing errors.
    pub fn count(&self, ctx: &mut SubarrayContext, kmer: &Kmer) -> Result<u64> {
        let layout = *self.mapper.layout();
        let (sub_idx, bucket_row) = self.mapper.home(kmer);
        let home = self.mapper.subarrays()[sub_idx];
        if ctx.id() != home {
            return Err(DramError::SubarrayDetached { subarray: home }.into());
        }
        let image = self.mapper.row_image(kmer, layout.cols());
        self.comparator.stage_query(ctx, &image)?;
        let kmer_rows = layout.kmer_rows();
        for step in 0..kmer_rows {
            let row = (bucket_row + step) % kmer_rows;
            match self.slots[sub_idx][row] {
                Some(_) => {
                    if self.comparator.compare(ctx, RowAddr(row))? {
                        return Self::read_counter_at(ctx, &layout, row);
                    }
                }
                None => return Ok(0),
            }
        }
        Ok(0)
    }

    /// All stored entries `(kmer, count)`, charging one row read per stored
    /// k-mer and per touched value row — the scan the graph stage performs.
    /// Each occupied sub-array is scanned as an independent partition;
    /// partitions concatenate in sub-array order, so entry order and
    /// command totals are the same for any worker count.
    ///
    /// # Errors
    ///
    /// Propagates DRAM addressing errors.
    pub fn scan(
        &self,
        ctrl: &mut Controller,
        dispatcher: &ParallelDispatcher,
    ) -> Result<Vec<(Kmer, u64)>> {
        let partitions: Vec<(SubarrayId, usize)> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, slots)| slots.iter().any(Option::is_some))
            .map(|(sub_idx, _)| (self.mapper.subarrays()[sub_idx], sub_idx))
            .collect();
        let (mapper, slots) = (&self.mapper, &self.slots);
        let pieces = dispatcher.run_partitions(ctrl, partitions, |ctx, sub_idx| {
            let mut out = Vec::new();
            Self::scan_subarray(ctx, mapper.layout(), &slots[sub_idx], &mut out)?;
            Ok(out)
        })?;
        Ok(pieces.into_iter().flatten().collect())
    }

    /// The per-sub-array insert procedure: stage, probe, count/insert.
    /// Takes the sub-array's shadow slots, its change record and a stats
    /// accumulator explicitly, since it runs on a detached context that
    /// owns none of them.
    #[allow(clippy::too_many_arguments)]
    fn insert_one(
        ctx: &mut SubarrayContext,
        mapper: &KmerMapper,
        comparator: &PimComparator,
        sub_idx: usize,
        slots: &mut [Option<Kmer>],
        changes: &mut RowChanges,
        stats: &mut HashStats,
        kmer: Kmer,
        image: &mut BitRow,
    ) -> Result<u64> {
        let layout = *mapper.layout();
        let (_, bucket_row) = mapper.home(&kmer);
        mapper.row_image_into(&kmer, image);
        stats.inserted_total += 1;
        ctx.record_metric(Metric::HashInserts, 1);

        // Stage the query once (temp write + clone into x1).
        comparator.stage_query(ctx, image)?;

        // Linear probe from the bucket start, wrapping across the region.
        let kmer_rows = layout.kmer_rows();
        let mut local_probes = 0u64;
        let mut outcome = None;
        for step in 0..kmer_rows {
            let row = (bucket_row + step) % kmer_rows;
            match slots[row] {
                Some(stored) => {
                    stats.probes += 1;
                    local_probes += 1;
                    let matched = comparator.compare(ctx, RowAddr(row))?;
                    if matched != (stored == kmer) {
                        // The array mis-compared (possible under fault
                        // injection). Record the detection but follow the
                        // PIM verdict — hardware has no shadow to consult.
                        stats.shadow_mismatches += 1;
                    }
                    if matched {
                        stats.hits += 1;
                        let current = Self::read_counter_at(ctx, &layout, row)?;
                        let next = Dpu::increment_saturating(ctx, current, layout.max_count());
                        Self::write_counter_at(ctx, &layout, row, next)?;
                        changes.record(row, stored, next);
                        outcome = Some(next);
                        break;
                    }
                }
                None => {
                    // MEM_insert: clone the staged temp row into the slot
                    // and initialize the counter.
                    ctx.aap_copy(layout.temp_row(0), RowAddr(row))?;
                    slots[row] = Some(kmer);
                    stats.distinct += 1;
                    Self::write_counter_at(ctx, &layout, row, 1)?;
                    changes.record(row, kmer, 1);
                    outcome = Some(1);
                    break;
                }
            }
        }
        ctx.record_metric(Metric::HashProbes, local_probes);
        ctx.record_value(HistKey::HashProbeLen, local_probes);
        outcome.ok_or(PimError::SubarrayFull { subarray: sub_idx, capacity: kmer_rows })
    }

    /// One sub-array's share of the table scan, appending to `out`.
    fn scan_subarray(
        ctx: &mut SubarrayContext,
        layout: &SubarrayLayout,
        slots: &[Option<Kmer>],
        out: &mut Vec<(Kmer, u64)>,
    ) -> Result<()> {
        let cols = layout.cols();
        for (row, slot) in slots.iter().enumerate() {
            let Some(kmer) = slot else { continue };
            // Read the k-mer row and decode it from the DRAM image itself
            // (not the shadow directory), so any bit corruption in the
            // array genuinely flows into the downstream graph stage.
            let image = ctx.read_row(RowAddr(row))?;
            let decoded = Kmer::from_packed(image.extract(0, 2 * kmer.k()).to_u64(), kmer.k())
                .expect("2k extracted bits always form a valid packed k-mer");
            let (vrow, bit) = layout.counter_location(row);
            let value_row = ctx.read_row(layout.value_row(vrow))?;
            let count = value_row.extract(bit, COUNTER_BITS.min(cols - bit)).to_u64();
            out.push((decoded, count));
        }
        Ok(())
    }

    /// Counter access stays inside the sub-array: the value row activates
    /// locally (one AAP-class command) and the DPU reads/updates the 8-bit
    /// field through the sense amplifiers — no host round-trip. On the
    /// host the field moves in place (uncharged field access), and the
    /// command is charged on its own.
    fn read_counter_at(
        ctx: &mut SubarrayContext,
        layout: &SubarrayLayout,
        slot: usize,
    ) -> Result<u64> {
        let (vrow, bit) = layout.counter_location(slot);
        let count = ctx.peek_field(layout.value_row(vrow), bit, COUNTER_BITS)?;
        ctx.record_synthetic(CommandClass::Aap, 1);
        Ok(count)
    }

    fn write_counter_at(
        ctx: &mut SubarrayContext,
        layout: &SubarrayLayout,
        slot: usize,
        value: u64,
    ) -> Result<()> {
        let (vrow, bit) = layout.counter_location(slot);
        ctx.poke_field(layout.value_row(vrow), bit, COUNTER_BITS, value)?;
        ctx.record_synthetic(CommandClass::Aap, 1);
        Ok(())
    }

    /// Writes every stored entry with its physical placement into list
    /// `list` of `cp`, one `sub row packed k count` line per entry, in
    /// sub-array and row order. Reads each counter through the attached
    /// contexts' uncharged debug view ([`Controller::context`]), so taking
    /// a checkpoint perturbs neither the ledger nor the metrics. A
    /// checkpoint journal record renders the changed entries as the same
    /// lines from the change record. Together with
    /// [`PimHashTable::load_entries`] and
    /// [`PimHashTable::restore_entries`] this is the table's checkpoint
    /// round-trip: a slot's DRAM row image is exactly
    /// [`KmerMapper::row_image`] of its k-mer and the counter is an 8-bit
    /// field in the value region, so the full device state is
    /// reconstructible from these lines. (Fault injection corrupts
    /// read-outs, not this invariant's stored state, but checkpointed
    /// sessions do not support fault campaigns — see the pipeline docs.)
    ///
    /// # Errors
    ///
    /// [`DramError::SubarrayDetached`] (wrapped) for an occupied sub-array
    /// that is not attached; DRAM addressing errors.
    pub fn save_entries(
        &self,
        ctrl: &Controller,
        cp: &mut StageCheckpoint,
        list: &str,
    ) -> Result<()> {
        let layout = *self.mapper.layout();
        let mut block = String::new();
        for (sub_idx, slots) in self.slots.iter().enumerate() {
            let subarray = self.mapper.subarrays()[sub_idx];
            let context = ctrl.context(subarray);
            for (row, slot) in slots.iter().enumerate() {
                let Some(kmer) = *slot else { continue };
                let ctx = context.ok_or(DramError::SubarrayDetached { subarray })?;
                let (vrow, bit) = layout.counter_location(row);
                let count = ctx.peek_field(layout.value_row(vrow), bit, COUNTER_BITS)?;
                let (sub, k) = (sub_idx as u64, kmer.k() as u64);
                push_list_line(&mut block, &[sub, row as u64, kmer.packed(), k, count]);
            }
        }
        cp.lists.insert(list.into(), block);
        Ok(())
    }

    /// The lines [`PimHashTable::save_entries`] would write for the
    /// entries inserted or re-counted since the change record was last
    /// cleared, into list `list` of `cp`: what one checkpoint journal
    /// record holds. Costs O(changes), not O(table).
    pub(crate) fn save_changed_entries(&mut self, cp: &mut StageCheckpoint, list: &str) {
        let mut block = String::new();
        for (sub_idx, changes) in self.changes.iter_mut().enumerate() {
            changes.entries.sort_unstable_by_key(|&(row, ..)| row);
            for &(row, packed, k) in &changes.entries {
                let count = u64::from(changes.counts[row as usize]);
                push_list_line(&mut block, &[sub_idx as u64, row.into(), packed, k.into(), count]);
            }
        }
        cp.lists.insert(list.into(), block);
    }

    /// Entries inserted or re-counted since the change record was last
    /// cleared.
    pub(crate) fn changed_entries(&self) -> u64 {
        self.changes.iter().map(|changes| changes.entries.len() as u64).sum()
    }

    /// Clears the change record (a checkpoint now holds every change).
    pub(crate) fn clear_changes(&mut self) {
        self.changes.iter_mut().for_each(RowChanges::clear);
    }

    /// Reads back the entries [`PimHashTable::save_entries`] wrote into
    /// list `list` of `cp`.
    ///
    /// # Errors
    ///
    /// [`PimError::Checkpoint`] on a malformed line or a k-mer whose
    /// length is not `k`.
    pub fn load_entries(
        cp: &StageCheckpoint,
        list: &str,
        k: usize,
    ) -> Result<Vec<(usize, usize, Kmer, u64)>> {
        let malformed =
            |line: &str| PimError::Checkpoint { reason: format!("bad `{list}` entry `{line}`") };
        let mut entries = Vec::new();
        for line in lines(cp.lists.get(list).map_or("", String::as_str)) {
            let [sub_idx, row, packed, kmer_k, count] =
                list_fields(line).ok_or_else(|| malformed(line))?;
            let index = |value: u64| usize::try_from(value).map_err(|_| malformed(line));
            let kmer = Kmer::from_packed(packed, index(kmer_k)?)
                .ok()
                .filter(|kmer| kmer.k() == k)
                .ok_or_else(|| malformed(line))?;
            entries.push((index(sub_idx)?, index(row)?, kmer, count));
        }
        Ok(entries)
    }

    /// Rebuilds a checkpointed table: shadow slots, k-mer row images and
    /// counter fields are restored through each sub-array context's
    /// uncharged debug view (one row write per k-mer row and one field
    /// write per counter, one checkout per run of one sub-array's
    /// entries), and the statistics accumulator is set to the checkpointed
    /// values. Charges nothing — the session restores accounting
    /// separately via [`Controller::restore_accounting`].
    ///
    /// # Errors
    ///
    /// [`PimError::Checkpoint`] for an entry outside the table — a
    /// sub-array index past the partition, a row past the k-mer region,
    /// or a count past the counter width; DRAM addressing errors.
    pub fn restore_entries(
        mapper: KmerMapper,
        backend: BackendKind,
        opt: OptLevel,
        ctrl: &mut Controller,
        entries: &[(usize, usize, Kmer, u64)],
        stats: HashStats,
    ) -> Result<Self> {
        let mut table = PimHashTable::with_backend(mapper, backend, opt);
        let layout = *table.mapper.layout();
        let subarrays = table.slots.len();
        let mut image = BitRow::zeros(layout.cols());
        // Saved entries come in sub-array order, so each run of one
        // sub-array's entries is one checkout of its context.
        for run in entries.chunk_by(|a, b| a.0 == b.0) {
            let sub_idx = run[0].0;
            let outside = run.iter().find(|&&(_, row, _, count)| {
                sub_idx >= subarrays || row >= layout.kmer_rows() || count > layout.max_count()
            });
            if let Some(&(sub_idx, row, _, count)) = outside {
                return Err(PimError::Checkpoint {
                    reason: format!(
                        "hash entry (sub-array {sub_idx}, row {row}, count {count}) lies \
                         outside the table: {subarrays} sub-arrays of {} k-mer rows, counts up \
                         to {}",
                        layout.kmer_rows(),
                        layout.max_count()
                    ),
                });
            }
            let (mapper, slots) = (&table.mapper, &mut table.slots[sub_idx]);
            ctrl.with_context(mapper.subarrays()[sub_idx], |ctx| {
                for &(_, row, kmer, count) in run {
                    mapper.row_image_into(&kmer, &mut image);
                    ctx.poke_row(RowAddr(row), &image)?;
                    let (vrow, bit) = layout.counter_location(row);
                    ctx.poke_field(layout.value_row(vrow), bit, COUNTER_BITS, count)?;
                    slots[row] = Some(kmer);
                }
                Ok::<_, PimError>(())
            })?;
        }
        table.stats = stats;
        Ok(table)
    }
}

/// The stage-1 executor of the staged engine: chunked read ingestion into
/// the in-DRAM hash table. Each [`HashmapExec::feed`] call streams one
/// chunk of reads (charging that chunk's host row writes), chops it into
/// k-mers, and batch-inserts them; chunk boundaries are invisible to the
/// final table state and accounting because per-sub-array arrival order
/// is preserved and ledger charging is an order-independent sum.
#[derive(Debug, Clone)]
pub struct HashmapExec {
    table: PimHashTable,
    k: usize,
    reads_consumed: u64,
    kmer_count: u64,
}

impl HashmapExec {
    /// An empty executor over the configuration's hash partition.
    pub fn new(config: &PimAssemblerConfig) -> Self {
        let mapper = KmerMapper::new(&config.geometry, config.hash_subarrays, config.bucket_rows);
        let table = PimHashTable::with_backend(mapper, BackendKind::PimAssembler, config.opt_level);
        HashmapExec { table, k: config.k, reads_consumed: 0, kmer_count: 0 }
    }

    /// Ingests one chunk of reads, returning the number of k-mers the
    /// chunk contributed.
    ///
    /// # Errors
    ///
    /// [`PimError::SubarrayFull`] when the hash partition overflows,
    /// [`PimError::Checkpoint`] when a count restored from a checkpoint
    /// overflows, plus DRAM addressing errors.
    pub fn feed(
        &mut self,
        ctrl: &mut Controller,
        dispatcher: &ParallelDispatcher,
        reads: &[Read],
    ) -> Result<u64> {
        let cols = ctrl.geometry().cols as u64;
        // Stream the chunk into the original sequence bank: one host row
        // write per 128 bp of read data (the one-shot path charges the
        // same total up front; charge_many additivity makes the split
        // invisible to the ledger).
        let stream_rows: u64 =
            reads.iter().map(|r| ((r.seq.len() * 2) as u64).div_ceil(cols)).sum();
        ctrl.record_synthetic(CommandClass::Write, stream_rows);
        let mut kmers = Vec::new();
        for read in reads {
            for kmer in KmerIter::new(&read.seq, self.k)? {
                kmers.push(kmer);
            }
        }
        self.table.insert(ctrl, dispatcher, &kmers)?;
        self.reads_consumed += reads.len() as u64;
        self.kmer_count = self.kmer_count.checked_add(kmers.len() as u64).ok_or_else(|| {
            PimError::Checkpoint { reason: "checkpointed `kmer_count` overflows 64 bits".into() }
        })?;
        Ok(kmers.len() as u64)
    }

    /// Reads ingested so far (the checkpoint cursor).
    pub fn reads_consumed(&self) -> u64 {
        self.reads_consumed
    }

    /// Total k-mers offered so far.
    pub fn kmer_count(&self) -> u64 {
        self.kmer_count
    }

    /// The table under construction.
    pub fn table(&self) -> &PimHashTable {
        &self.table
    }

    /// Consumes the executor, yielding the table for the graph stage.
    pub fn into_table(self) -> PimHashTable {
        self.table
    }

    /// Serializes the resume state into `cp`: the table entries (list
    /// `hash`) — all of them, or with `changes_only` just those inserted
    /// or re-counted since the last save (a journal record) — its
    /// statistics and the k-mer count; then clears the table's change
    /// record. Reads device state through the uncharged debug view only.
    ///
    /// # Errors
    ///
    /// DRAM addressing errors while exporting device state.
    pub fn save(
        &mut self,
        ctrl: &Controller,
        cp: &mut StageCheckpoint,
        changes_only: bool,
    ) -> Result<()> {
        if changes_only {
            self.table.save_changed_entries(cp, "hash");
        } else {
            self.table.save_entries(ctrl, cp, "hash")?;
        }
        self.table.clear_changes();
        self.table.stats().save(cp, "hash");
        cp.fields.insert("kmer_count".into(), self.kmer_count);
        Ok(())
    }

    /// Entries the table inserted or re-counted since the last
    /// [`HashmapExec::save`].
    pub(crate) fn changed_entries(&self) -> u64 {
        self.table.changed_entries()
    }

    /// Reconstructs an executor from a checkpoint payload written by
    /// [`HashmapExec::save`]. Uncharged — see
    /// [`PimHashTable::restore_entries`].
    ///
    /// # Errors
    ///
    /// [`PimError::Checkpoint`] on a malformed payload; DRAM addressing
    /// errors while restoring rows.
    pub fn restore(
        ctrl: &mut Controller,
        config: &PimAssemblerConfig,
        cp: &StageCheckpoint,
    ) -> Result<Self> {
        let entries = PimHashTable::load_entries(cp, "hash", config.k)?;
        let mapper = KmerMapper::new(&config.geometry, config.hash_subarrays, config.bucket_rows);
        let table = PimHashTable::restore_entries(
            mapper,
            BackendKind::PimAssembler,
            config.opt_level,
            ctrl,
            &entries,
            HashStats::load(cp, "hash"),
        )?;
        Ok(HashmapExec {
            table,
            k: config.k,
            reads_consumed: cp.cursor,
            kmer_count: cp.field("kmer_count"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_dram::geometry::DramGeometry;
    use pim_genome::hash_table::KmerCounter;
    use pim_genome::kmer::KmerIter;
    use pim_genome::sequence::DnaSequence;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup() -> (Controller, PimHashTable) {
        let g = DramGeometry::paper_assembly();
        let ctrl = Controller::new(g);
        let table = PimHashTable::new(KmerMapper::new(&g, 4, 8));
        (ctrl, table)
    }

    fn kmers_of(seq: &DnaSequence, k: usize) -> Vec<Kmer> {
        KmerIter::new(seq, k).unwrap().collect()
    }

    fn serial() -> ParallelDispatcher {
        ParallelDispatcher::serial()
    }

    /// `table.count` on the k-mer's home sub-array.
    fn count(ctrl: &mut Controller, table: &PimHashTable, kmer: &Kmer) -> u64 {
        ctrl.with_context(table.home_subarray(kmer), |ctx| table.count(ctx, kmer)).unwrap()
    }

    #[test]
    fn fig5b_worked_example() {
        // S = CGTGCGTGCTT, k = 5 — the hash table of Fig. 5b.
        let (mut ctrl, mut table) = setup();
        let s: DnaSequence = "CGTGCGTGCTT".parse().unwrap();
        table.insert(&mut ctrl, &serial(), &kmers_of(&s, 5)).unwrap();
        assert_eq!(count(&mut ctrl, &table, &"CGTGC".parse().unwrap()), 2);
        assert_eq!(count(&mut ctrl, &table, &"GTGCG".parse().unwrap()), 1);
        assert_eq!(count(&mut ctrl, &table, &"TGCTT".parse().unwrap()), 1);
        assert_eq!(count(&mut ctrl, &table, &"AAAAA".parse().unwrap()), 0);
        assert_eq!(table.stats().distinct, 6);
        assert_eq!(table.stats().inserted_total, 7);
    }

    #[test]
    fn count_runs_only_on_the_home_subarray() {
        let (mut ctrl, mut table) = setup();
        let kmer: Kmer = "CGTGC".parse().unwrap();
        table.insert(&mut ctrl, &serial(), &[kmer]).unwrap();
        let home = table.home_subarray(&kmer);
        let other = *table.mapper().subarrays().iter().find(|&&id| id != home).unwrap();
        let before = *ctrl.ledger();
        let err = ctrl.with_context(other, |ctx| table.count(ctx, &kmer)).unwrap_err();
        assert_eq!(err, PimError::Dram(DramError::SubarrayDetached { subarray: home }));
        assert_eq!(*ctrl.ledger(), before, "a rejected query charges nothing");
        assert_eq!(count(&mut ctrl, &table, &kmer), 1);
    }

    #[test]
    fn matches_software_counter_on_random_data() {
        let (mut ctrl, mut table) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let seq = DnaSequence::random(&mut rng, 400);
        let k = 11;
        let mut soft = KmerCounter::new(k).unwrap();
        soft.count_sequence(&seq).unwrap();
        // Rebuild the table at k=11 (mapper is k-agnostic).
        table.insert(&mut ctrl, &serial(), &kmers_of(&seq, k)).unwrap();
        let scanned = table.scan(&mut ctrl, &serial()).unwrap();
        assert_eq!(scanned.len(), soft.distinct());
        for (kmer, count) in scanned {
            assert_eq!(count, soft.count(&kmer), "{kmer}");
        }
    }

    #[test]
    fn counters_saturate_at_region_max() {
        let (mut ctrl, mut table) = setup();
        let kmer: Kmer = "ACGTACGTACGTACGT".parse().unwrap();
        let max = table.mapper().layout().max_count();
        table.insert(&mut ctrl, &serial(), &vec![kmer; max as usize + 10]).unwrap();
        assert_eq!(count(&mut ctrl, &table, &kmer), max);
    }

    #[test]
    fn commands_are_charged_per_insert() {
        let (mut ctrl, mut table) = setup();
        let kmer: Kmer = "TTTTGGGGCCCCAAAA".parse().unwrap();
        let before = *ctrl.ledger();
        table.insert(&mut ctrl, &serial(), &[kmer]).unwrap();
        let d = ctrl.ledger().since(&before);
        // Fresh insert in an empty bucket: temp staging (in-DRAM AAP) +
        // x1 clone + slot clone + counter-row activation — all in-array.
        assert_eq!(d.count(CommandClass::Write), 0);
        assert_eq!(d.count(CommandClass::Aap), 4);
        assert_eq!(d.count(CommandClass::Aap2), 0); // no stored rows yet → no comparisons
        let before = *ctrl.ledger();
        table.insert(&mut ctrl, &serial(), &[kmer]).unwrap();
        let d = ctrl.ledger().since(&before);
        assert_eq!(d.count(CommandClass::Aap2), 1); // one PIM_XNOR probe
        assert!(d.count(CommandClass::Dpu) >= 2); // AND-reduce + increment
    }

    #[test]
    fn probe_counts_reflect_bucket_collisions() {
        let (mut ctrl, mut table) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let seq = DnaSequence::random(&mut rng, 2000);
        table.insert(&mut ctrl, &serial(), &kmers_of(&seq, 13)).unwrap();
        let s = table.stats();
        assert!(s.probes > 0);
        let avg = s.probes as f64 / s.inserted_total as f64;
        assert!(avg < 8.0, "average probes {avg} too high for this load factor");
    }

    #[test]
    fn overflow_reports_subarray_full() {
        // One sub-array with a tiny k-mer region overflows quickly.
        let g = DramGeometry::tiny();
        let mut ctrl = Controller::new(g);
        let mut table = PimHashTable::new(KmerMapper::new(&g, 1, 2));
        let capacity = table.mapper().layout().kmer_rows();
        let mut inserted = 0usize;
        let mut err = None;
        for v in 0..(capacity as u64 + 5) {
            let kmer = Kmer::from_packed(v * 7 + 1, 12).unwrap();
            match table.insert(&mut ctrl, &serial(), &[kmer]) {
                Ok(()) => inserted += 1,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert_eq!(inserted, capacity);
        assert!(matches!(err, Some(PimError::SubarrayFull { .. })));
    }

    #[test]
    fn insert_is_identical_for_any_worker_count_and_split() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let seq = DnaSequence::random(&mut rng, 900);
        let kmers = kmers_of(&seq, 13);

        // Reference: one k-mer per call on the calling thread — the
        // arrival order every sub-array must see.
        let (mut ref_ctrl, mut reference) = setup();
        for &kmer in &kmers {
            reference.insert(&mut ref_ctrl, &serial(), &[kmer]).unwrap();
        }
        // Snapshot before scanning: the scan itself charges row reads.
        let ref_ledger = *ref_ctrl.ledger();
        let ref_scan = reference.scan(&mut ref_ctrl, &serial()).unwrap();

        for workers in [1, 4] {
            let (mut ctrl, mut table) = setup();
            table.insert(&mut ctrl, &ParallelDispatcher::with_workers(workers), &kmers).unwrap();
            assert_eq!(table.stats(), reference.stats(), "workers={workers}");
            assert_eq!(*ctrl.ledger(), ref_ledger, "workers={workers}");
            assert_eq!(table.scan(&mut ctrl, &serial()).unwrap(), ref_scan, "workers={workers}");
        }
    }

    #[test]
    fn scan_is_identical_for_any_worker_count() {
        let (mut ctrl, mut table) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let seq = DnaSequence::random(&mut rng, 500);
        table.insert(&mut ctrl, &serial(), &kmers_of(&seq, 12)).unwrap();
        let before = *ctrl.ledger();
        let serial_scan = table.scan(&mut ctrl, &serial()).unwrap();
        let serial_delta = ctrl.ledger().since(&before);
        let before = *ctrl.ledger();
        let pooled = table.scan(&mut ctrl, &ParallelDispatcher::with_workers(4)).unwrap();
        let pooled_delta = ctrl.ledger().since(&before);
        assert_eq!(serial_scan, pooled);
        assert_eq!(serial_delta, pooled_delta);
    }

    #[test]
    fn save_load_restore_round_trips_without_charging() {
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        let seq = DnaSequence::random(&mut rng, 700);
        let kmers = kmers_of(&seq, 13);

        // Uninterrupted reference: all k-mers through one table.
        let (mut ref_ctrl, mut reference) = setup();
        reference.insert(&mut ref_ctrl, &serial(), &kmers).unwrap();

        // Interrupted run: first half, save, load and restore on fresh
        // hardware, second half.
        let (mut ctrl_a, mut table_a) = setup();
        let half = kmers.len() / 2;
        table_a.insert(&mut ctrl_a, &serial(), &kmers[..half]).unwrap();
        let before_save = *ctrl_a.ledger();
        let mut cp = StageCheckpoint::new("fp", "hashmap", 0);
        table_a.save_entries(&ctrl_a, &mut cp, "hash").unwrap();
        assert_eq!(*ctrl_a.ledger(), before_save, "saving must not charge");
        let entries = PimHashTable::load_entries(&cp, "hash", 13).unwrap();
        assert_eq!(entries.len() as u64, table_a.stats().distinct);

        let g = DramGeometry::paper_assembly();
        let mut ctrl_b = Controller::new(g);
        let mut restored = PimHashTable::restore_entries(
            KmerMapper::new(&g, 4, 8),
            BackendKind::PimAssembler,
            OptLevel::O0,
            &mut ctrl_b,
            &entries,
            *table_a.stats(),
        )
        .unwrap();
        assert!(ctrl_b.ledger().is_empty(), "restore must not charge");
        assert_eq!(restored.stats(), table_a.stats());
        let mut resaved = StageCheckpoint::new("fp", "hashmap", 0);
        restored.save_entries(&ctrl_b, &mut resaved, "hash").unwrap();
        assert_eq!(resaved.lists, cp.lists, "a restored table saves the same block");
        restored.insert(&mut ctrl_b, &serial(), &kmers[half..]).unwrap();
        assert_eq!(restored.stats(), reference.stats());
        assert_eq!(
            restored.scan(&mut ctrl_b, &serial()).unwrap(),
            reference.scan(&mut ref_ctrl, &serial()).unwrap(),
            "restored table must continue byte-identically"
        );
    }

    /// The hash list as it was rendered before list blocks: one
    /// `format!` line per entry, the count read through a row clone and
    /// `extract`. The oracle [`PimHashTable::save_entries`] must match.
    fn per_entry_rendering(table: &PimHashTable, ctrl: &Controller) -> String {
        let layout = *table.mapper().layout();
        let mut lines = Vec::new();
        for (sub, slots) in table.slots.iter().enumerate() {
            let subarray = table.mapper().subarrays()[sub];
            for (row, slot) in slots.iter().enumerate() {
                let Some(kmer) = slot else { continue };
                let (vrow, bit) = layout.counter_location(row);
                let value_row =
                    ctrl.context(subarray).unwrap().peek_row(layout.value_row(vrow)).unwrap();
                let count = value_row.extract(bit, COUNTER_BITS).to_u64();
                lines.push(format!("{sub} {row} {} {} {count}", kmer.packed(), kmer.k()));
            }
        }
        lines.iter().map(|line| format!("{line}\n")).collect()
    }

    #[test]
    fn save_entries_matches_the_per_entry_rendering() {
        let (mut ctrl, mut table) = setup();
        let mut cp = StageCheckpoint::new("fp", "hashmap", 0);
        table.save_entries(&ctrl, &mut cp, "hash").unwrap();
        assert_eq!(cp.lists["hash"], "", "an empty table saves an empty block");
        assert_eq!(per_entry_rendering(&table, &ctrl), "");

        // Mostly count-1 k-mers from a random sequence, plus one k-mer
        // driven past the counter's saturation at 255.
        let mut rng = ChaCha8Rng::seed_from_u64(34);
        let mut kmers = kmers_of(&DnaSequence::random(&mut rng, 1500), 15);
        let max = table.mapper().layout().max_count() as usize;
        kmers.extend(std::iter::repeat_n(kmers[7], max + 3));
        table.insert(&mut ctrl, &serial(), &kmers).unwrap();
        table.save_entries(&ctrl, &mut cp, "hash").unwrap();
        let block = &cp.lists["hash"];
        assert_eq!(*block, per_entry_rendering(&table, &ctrl));
        let counts: Vec<&str> =
            block.lines().map(|line| line.rsplit(' ').next().unwrap()).collect();
        assert!(counts.contains(&"1") && counts.contains(&"255"), "{counts:?}");
    }

    #[test]
    fn changed_entries_are_the_rows_inserted_or_recounted_since_the_last_clear() {
        let (mut ctrl, mut table) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(35);
        let kmers = kmers_of(&DnaSequence::random(&mut rng, 1200), 13);
        let (first, second) = kmers.split_at(kmers.len() / 2);
        table.insert(&mut ctrl, &serial(), first).unwrap();
        assert_eq!(table.changed_entries(), table.stats().distinct, "every entry is new");
        table.clear_changes();
        assert_eq!(table.changed_entries(), 0);
        let mut before = StageCheckpoint::new("fp", "hashmap", 0);
        table.save_entries(&ctrl, &mut before, "hash").unwrap();
        // The second half again, plus two k-mers of the first: re-counts
        // of old entries as well as new ones, each row once.
        let mut batch = second.to_vec();
        batch.extend([first[0], first[0], first[9]]);
        table.insert(&mut ctrl, &serial(), &batch).unwrap();
        let mut after = StageCheckpoint::new("fp", "hashmap", 0);
        table.save_entries(&ctrl, &mut after, "hash").unwrap();
        let mut changed = StageCheckpoint::new("fp", "hashmap", 0);
        table.save_changed_entries(&mut changed, "hash");
        // No count saturates here, so every changed row renders a line the
        // previous export did not have: the changed block is exactly the
        // new or rewritten lines, in sub-array and row order.
        let old: std::collections::HashSet<&str> = before.lists["hash"].lines().collect();
        let fresh: String = after.lists["hash"]
            .lines()
            .filter(|line| !old.contains(line))
            .map(|line| format!("{line}\n"))
            .collect();
        assert_eq!(changed.lists["hash"], fresh);
        assert_eq!(table.changed_entries(), fresh.lines().count() as u64);
    }

    #[test]
    fn batch_overflow_reports_first_full_subarray() {
        let g = DramGeometry::tiny();
        let mut ctrl = Controller::new(g);
        let mut table = PimHashTable::new(KmerMapper::new(&g, 1, 2));
        let capacity = table.mapper().layout().kmer_rows();
        let kmers: Vec<Kmer> =
            (0..(capacity as u64 + 5)).map(|v| Kmer::from_packed(v * 7 + 1, 12).unwrap()).collect();
        let err = table.insert(&mut ctrl, &serial(), &kmers).unwrap_err();
        assert!(matches!(err, PimError::SubarrayFull { .. }));
        // The shadow directory survived the failure: the table still scans.
        assert_eq!(table.scan(&mut ctrl, &serial()).unwrap().len(), capacity);
    }

    #[test]
    fn overflowing_merge_names_the_field_and_keeps_the_totals() {
        let mut stats = HashStats { probes: u64::MAX, ..HashStats::default() };
        let before = stats;
        let err = stats.merge(&HashStats { inserted_total: 1, probes: 1, ..HashStats::default() });
        let err = err.unwrap_err();
        assert!(matches!(err, PimError::Checkpoint { .. }), "{err}");
        assert!(err.to_string().contains("hash.probes"), "{err}");
        assert_eq!(stats, before, "a failed merge must not apply part of the sum");
    }
}
