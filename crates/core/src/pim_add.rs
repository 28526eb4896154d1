//! `PIM_Add` — in-memory addition (Fig. 8).
//!
//! The traverse stage sums adjacency-matrix rows column-wise to obtain
//! vertex degrees. PIM-Assembler "takes every three rows to perform a
//! parallel in-memory addition" — a carry-save step producing a sum row
//! (same significance) and a carry row (next significance) in the reserved
//! space — and finishes with a bit-serial addition "concluded after 2 × m
//! cycles", the ripple over the two surviving operands.
//!
//! One full-adder step over whole rows:
//!
//! 1. **latch** the carry operand: `TRA(c, 0, c)` majors to `c` and loads
//!    the SA latch,
//! 2. **sum cycle**: two-row activation in `CarrySum` mode gives
//!    `a ⊕ b ⊕ latch` in one cycle,
//! 3. **carry cycle**: `TRA(a, b, c)` gives the majority in one cycle.

use pim_dram::address::RowAddr;
use pim_dram::bitrow::BitRow;
use pim_dram::context::SubarrayContext;

use crate::error::{PimError, Result};
use crate::ir::{BackendKind, OptLevel};
use crate::template::{CompiledTemplate, Kernel, TemplateKey};

/// Upper bound on the full-adder role table across backends (the Ambit
/// rewrite is the widest: the data/zero roles plus ≤ 8 scratch slots).
/// Lets the reduction loops bind roles on the stack.
const MAX_ADDER_ROLES: usize = 24;

/// A pool of free data rows used for intermediate carry-save results
/// (the `Resv.` region of Fig. 8).
#[derive(Debug, Clone)]
pub struct ScratchSpace {
    free: Vec<RowAddr>,
    capacity: usize,
}

impl ScratchSpace {
    /// Creates a pool over the half-open row range `start..end`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn new(start: usize, end: usize) -> Self {
        assert!(end > start, "scratch range must be non-empty");
        ScratchSpace { free: (start..end).rev().map(RowAddr).collect(), capacity: end - start }
    }

    /// Takes a free row.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::SubarrayFull`] when the pool is exhausted.
    pub fn alloc(&mut self) -> Result<RowAddr> {
        self.free.pop().ok_or(PimError::SubarrayFull { subarray: 0, capacity: self.capacity })
    }

    /// Returns a row to the pool.
    pub fn release(&mut self, row: RowAddr) {
        self.free.push(row);
    }

    /// Rows currently available.
    pub fn available(&self) -> usize {
        self.free.len()
    }
}

/// Whole-row in-memory adder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PimAdder;

impl PimAdder {
    /// One full-adder step over rows: writes `a ⊕ b ⊕ c` to `sum_dst` and
    /// `MAJ(a, b, c)` to `carry_dst`. `zero` must name an all-zero row.
    ///
    /// The command sequence is the IR-lowered [`Kernel::FullAdder`]
    /// program (latch cycle, `CarrySum` sum cycle, majority carry cycle —
    /// see [`crate::ir::kernels::full_adder`]) for `backend` at
    /// optimization level `opt`; this entry point compiles and executes it
    /// once. The role table is bound by class, so the extra zero/scratch
    /// roles a backend rewrite introduces resolve automatically (`zero`
    /// also backs any zero-constant roles). Loops should compile the
    /// template themselves (as [`PimAdder::column_sum`] does) to amortize
    /// the compile.
    ///
    /// # Errors
    ///
    /// Propagates DRAM addressing errors.
    #[allow(clippy::too_many_arguments)] // one parameter per hardware row operand
    pub fn full_add(
        ctx: &mut SubarrayContext,
        backend: BackendKind,
        opt: OptLevel,
        a: RowAddr,
        b: RowAddr,
        c: RowAddr,
        zero: RowAddr,
        sum_dst: RowAddr,
        carry_dst: RowAddr,
    ) -> Result<()> {
        let cols = ctx.geometry().cols;
        let adder = CompiledTemplate::compile(
            TemplateKey::new(Kernel::FullAdder, cols, cols).with_backend(backend).with_opt(opt),
        );
        let mut rows = [RowAddr(0); MAX_ADDER_ROLES];
        let n = adder.bind_roles_into(
            ctx.geometry(),
            &[a, b, c],
            &[sum_dst, carry_dst],
            zero,
            &[],
            &mut rows,
        )?;
        adder.execute(ctx, &rows[..n])
    }

    /// Column-parallel sum of single-bit addend rows (the degree
    /// accumulation of Fig. 8). Returns the result bit-planes, LSB first:
    /// column `j` of the result is `Σ planes[i].get(j) · 2^i`.
    ///
    /// Every full-adder step is lowered for `backend` at optimization
    /// level `opt`; the reduction schedule and the results are the same
    /// on every backend and level. `zero` must name an all-zero row;
    /// `scratch` provides the reserved space for intermediate sum/carry
    /// rows.
    ///
    /// # Errors
    ///
    /// * [`PimError::SubarrayFull`] if the scratch pool is too small.
    /// * DRAM addressing errors.
    pub fn column_sum(
        ctx: &mut SubarrayContext,
        backend: BackendKind,
        opt: OptLevel,
        addends: &[RowAddr],
        zero: RowAddr,
        scratch: &mut ScratchSpace,
    ) -> Result<Vec<BitRow>> {
        if addends.is_empty() {
            return Ok(Vec::new());
        }
        // Compile the full-adder kernel once for this geometry; every
        // carry-save and ripple step below replays the same template, so
        // the reduction loop pushes no per-step instruction vectors. The
        // per-step role binding is a fixed-size stack array filled by
        // class (for PIM-Assembler it reproduces the canonical
        // `[a, b, c, zero, sum, carry, x1, x2, x3]` order exactly).
        let cols = ctx.geometry().cols;
        let adder = CompiledTemplate::compile(
            TemplateKey::new(Kernel::FullAdder, cols, cols).with_backend(backend).with_opt(opt),
        );
        let mut rows = [RowAddr(0); MAX_ADDER_ROLES];
        // A direct-activation backend opens the operand rows themselves, so
        // every row in an activation set must be physically distinct — the
        // kernel's zero-constant role (bound to `zero`) included. Padded
        // ripple operands therefore each get their own all-zero row, lazily
        // taken from scratch.
        let direct_activation = backend.lowering().allows_data_activation();
        let mut pads: [Option<RowAddr>; 2] = [None, None];
        // Rows pending per significance; `owned` rows recycle into scratch.
        #[derive(Clone, Copy)]
        struct Pending {
            row: RowAddr,
            owned: bool,
        }
        let mut weights: Vec<Vec<Pending>> =
            vec![addends.iter().map(|&row| Pending { row, owned: false }).collect()];

        // Carry-save reduction: every 3 rows of one weight → 1 sum + 1 carry.
        let mut w = 0;
        while w < weights.len() {
            while weights[w].len() >= 3 {
                let (p1, p2, p3) = (
                    weights[w].pop().expect("len>=3"),
                    weights[w].pop().expect("len>=2"),
                    weights[w].pop().expect("len>=1"),
                );
                let sum_row = scratch.alloc()?;
                let carry_row = scratch.alloc()?;
                let n = adder.bind_roles_into(
                    ctx.geometry(),
                    &[p1.row, p2.row, p3.row],
                    &[sum_row, carry_row],
                    zero,
                    &[],
                    &mut rows,
                )?;
                adder.execute(ctx, &rows[..n])?;
                for p in [p1, p2, p3] {
                    if p.owned {
                        scratch.release(p.row);
                    }
                }
                weights[w].push(Pending { row: sum_row, owned: true });
                if weights.len() == w + 1 {
                    weights.push(Vec::new());
                }
                weights[w + 1].push(Pending { row: carry_row, owned: true });
            }
            w += 1;
        }

        // Final bit-serial ripple over the ≤ 2 rows left per weight.
        let mut planes = Vec::new();
        let mut carry: Option<Pending> = None;
        let mut w = 0;
        loop {
            let mut operands: Vec<Pending> =
                if w < weights.len() { weights[w].clone() } else { Vec::new() };
            if let Some(c) = carry.take() {
                operands.push(c);
            }
            if operands.is_empty() {
                if w >= weights.len() {
                    break;
                }
                planes.push(BitRow::zeros(ctx.geometry().cols));
                w += 1;
                continue;
            }
            let a = operands[0];
            let b = match operands.get(1) {
                Some(p) => *p,
                None if direct_activation => {
                    Pending { row: Self::pad_zero(ctx, cols, scratch, &mut pads[0])?, owned: false }
                }
                None => Pending { row: zero, owned: false },
            };
            let c = match operands.get(2) {
                Some(p) => *p,
                None if direct_activation => {
                    Pending { row: Self::pad_zero(ctx, cols, scratch, &mut pads[1])?, owned: false }
                }
                None => Pending { row: zero, owned: false },
            };
            let sum_row = scratch.alloc()?;
            let carry_row = scratch.alloc()?;
            let n = adder.bind_roles_into(
                ctx.geometry(),
                &[a.row, b.row, c.row],
                &[sum_row, carry_row],
                zero,
                &[],
                &mut rows,
            )?;
            adder.execute(ctx, &rows[..n])?;
            for p in operands {
                if p.owned {
                    scratch.release(p.row);
                }
            }
            planes.push(ctx.peek_row(sum_row)?);
            scratch.release(sum_row);
            let carry_bits = ctx.peek_row(carry_row)?;
            if carry_bits.all_zeros() && w + 1 >= weights.len() {
                scratch.release(carry_row);
                break;
            }
            carry = Some(Pending { row: carry_row, owned: true });
            w += 1;
        }
        for pad in pads.into_iter().flatten() {
            scratch.release(pad);
        }
        Ok(planes)
    }

    /// Returns the lazily-initialized all-zero padding row in `slot`,
    /// allocating it from `scratch` and zeroing it on first use.
    fn pad_zero(
        ctx: &mut SubarrayContext,
        cols: usize,
        scratch: &mut ScratchSpace,
        slot: &mut Option<RowAddr>,
    ) -> Result<RowAddr> {
        if let Some(r) = *slot {
            return Ok(r);
        }
        let r = scratch.alloc()?;
        ctx.write_row(r, &BitRow::zeros(cols))?;
        *slot = Some(r);
        Ok(r)
    }

    /// Decodes column values from bit-planes (test/verification helper).
    pub fn decode_columns(planes: &[BitRow]) -> Vec<u64> {
        if planes.is_empty() {
            return Vec::new();
        }
        let cols = planes[0].len();
        (0..cols)
            .map(|j| planes.iter().enumerate().map(|(i, p)| (p.get(j) as u64) << i).sum())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_dram::controller::Controller;
    use pim_dram::geometry::DramGeometry;
    use pim_dram::CommandClass;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// A context of `ctrl`'s first sub-array.
    fn context(mut ctrl: Controller) -> SubarrayContext {
        let id = ctrl.subarray_handle(0, 0, 0, 0).unwrap();
        ctrl.detach_context(id).unwrap()
    }

    fn setup() -> SubarrayContext {
        context(Controller::new(DramGeometry::paper_assembly()))
    }

    #[test]
    fn full_add_is_a_bitwise_full_adder() {
        let mut ctx = setup();
        let cols = ctx.geometry().cols;
        let a = BitRow::from_fn(cols, |i| i % 2 == 0);
        let b = BitRow::from_fn(cols, |i| i % 3 == 0);
        let c = BitRow::from_fn(cols, |i| i % 5 == 0);
        ctx.write_row(10, &a).unwrap();
        ctx.write_row(11, &b).unwrap();
        ctx.write_row(12, &c).unwrap();
        ctx.write_row(13, &BitRow::zeros(cols)).unwrap(); // zero row
        PimAdder::full_add(
            &mut ctx,
            BackendKind::PimAssembler,
            OptLevel::O0,
            RowAddr(10),
            RowAddr(11),
            RowAddr(12),
            RowAddr(13),
            RowAddr(20),
            RowAddr(21),
        )
        .unwrap();
        assert_eq!(ctx.peek_row(20).unwrap(), a.xor(&b).xor(&c));
        assert_eq!(ctx.peek_row(21).unwrap(), BitRow::maj3(&a, &b, &c));
    }

    #[test]
    fn column_sum_matches_integer_sums() {
        let mut ctx = setup();
        let cols = ctx.geometry().cols;
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let n = 9; // forces two carry-save levels + ripple
        let mut rows = Vec::new();
        let mut expected = vec![0u64; cols];
        for r in 0..n {
            let bits = BitRow::from_fn(cols, |_| rng.gen_bool(0.5));
            for (j, e) in expected.iter_mut().enumerate() {
                *e += bits.get(j) as u64;
            }
            ctx.write_row(r, &bits).unwrap();
            rows.push(RowAddr(r));
        }
        ctx.write_row(100, &BitRow::zeros(cols)).unwrap();
        let mut scratch = ScratchSpace::new(200, 300);
        let planes = PimAdder::column_sum(
            &mut ctx,
            BackendKind::PimAssembler,
            OptLevel::O0,
            &rows,
            RowAddr(100),
            &mut scratch,
        )
        .unwrap();
        assert_eq!(PimAdder::decode_columns(&planes), expected);
    }

    #[test]
    fn column_sum_of_single_row_is_identity() {
        let mut ctx = setup();
        let cols = ctx.geometry().cols;
        let bits = BitRow::from_fn(cols, |i| i % 7 == 0);
        ctx.write_row(0, &bits).unwrap();
        ctx.write_row(100, &BitRow::zeros(cols)).unwrap();
        let mut scratch = ScratchSpace::new(200, 220);
        let planes = PimAdder::column_sum(
            &mut ctx,
            BackendKind::PimAssembler,
            OptLevel::O0,
            &[RowAddr(0)],
            RowAddr(100),
            &mut scratch,
        )
        .unwrap();
        let vals = PimAdder::decode_columns(&planes);
        for (j, v) in vals.iter().enumerate() {
            assert_eq!(*v, bits.get(j) as u64);
        }
    }

    #[test]
    fn column_sum_empty_input() {
        let mut ctx = setup();
        let mut scratch = ScratchSpace::new(200, 210);
        let planes = PimAdder::column_sum(
            &mut ctx,
            BackendKind::PimAssembler,
            OptLevel::O0,
            &[],
            RowAddr(100),
            &mut scratch,
        )
        .unwrap();
        assert!(planes.is_empty());
    }

    #[test]
    fn scratch_exhaustion_is_detected() {
        let mut ctx = setup();
        let cols = ctx.geometry().cols;
        for r in 0..12usize {
            ctx.write_row(r, &BitRow::ones(cols)).unwrap();
        }
        ctx.write_row(100, &BitRow::zeros(cols)).unwrap();
        let rows: Vec<RowAddr> = (0..12).map(RowAddr).collect();
        let mut scratch = ScratchSpace::new(200, 202); // far too small
        let err = PimAdder::column_sum(
            &mut ctx,
            BackendKind::PimAssembler,
            OptLevel::O0,
            &rows,
            RowAddr(100),
            &mut scratch,
        )
        .unwrap_err();
        assert!(matches!(err, PimError::SubarrayFull { .. }));
    }

    #[test]
    fn scratch_alloc_release_roundtrip() {
        let mut s = ScratchSpace::new(10, 13);
        assert_eq!(s.available(), 3);
        let r = s.alloc().unwrap();
        assert_eq!(s.available(), 2);
        s.release(r);
        assert_eq!(s.available(), 3);
    }

    #[test]
    fn retargeted_column_sum_matches_integer_sums() {
        for backend in [BackendKind::AmbitTra, BackendKind::PandaMram] {
            let g = DramGeometry::paper_assembly();
            let mut ctx = context(match backend {
                BackendKind::PandaMram => {
                    Controller::with_profile(g, &pim_dram::profile::BackendProfile::panda_mram())
                }
                _ => Controller::new(g),
            });
            let cols = g.cols;
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            let mut rows = Vec::new();
            let mut expected = vec![0u64; cols];
            for r in 0..7usize {
                let bits = BitRow::from_fn(cols, |_| rng.gen_bool(0.5));
                for (j, e) in expected.iter_mut().enumerate() {
                    *e += bits.get(j) as u64;
                }
                ctx.write_row(r, &bits).unwrap();
                rows.push(RowAddr(r));
            }
            ctx.write_row(100, &BitRow::zeros(cols)).unwrap();
            let mut scratch = ScratchSpace::new(200, 300);
            let planes = PimAdder::column_sum(
                &mut ctx,
                backend,
                OptLevel::O0,
                &rows,
                RowAddr(100),
                &mut scratch,
            )
            .unwrap();
            assert_eq!(PimAdder::decode_columns(&planes), expected, "{backend}");
        }
    }

    #[test]
    fn addition_counts_2m_class_cycles() {
        // The paper's 2×m claim counts the sum + carry activations per bit;
        // our functional sequence adds the operand staging copies on top.
        let mut ctx = setup();
        let cols = ctx.geometry().cols;
        ctx.write_row(0, &BitRow::ones(cols)).unwrap();
        ctx.write_row(1, &BitRow::ones(cols)).unwrap();
        ctx.write_row(100, &BitRow::zeros(cols)).unwrap();
        let before = *ctx.ledger();
        let mut scratch = ScratchSpace::new(200, 230);
        PimAdder::column_sum(
            &mut ctx,
            BackendKind::PimAssembler,
            OptLevel::O0,
            &[RowAddr(0), RowAddr(1)],
            RowAddr(100),
            &mut scratch,
        )
        .unwrap();
        let d = ctx.ledger().since(&before);
        // Two one-bit addends: one ripple step producing sum+carry, then a
        // final step for the carry plane: 2 sum cycles (AAP2) + up to 4 TRA
        // (2 latch loads + 2 carries).
        assert_eq!(d.count(CommandClass::Aap2), 2);
        let aap3 = d.count(CommandClass::Aap3);
        assert!((3..=4).contains(&aap3), "aap3 = {aap3}");
    }
}
