//! Virtual-row allocation: lifetime-based mapping of temps onto compute rows.
//!
//! Replaces the hand-assigned `x1/x2/x3` scratch slots of the old
//! `Kernel::roles()` tables. The allocator is a linear scan over the op
//! sequence: temps expire at their last use, definitions take the lowest
//! free compute slot, and when a kernel keeps more temporaries live than
//! the sub-array exposes compute rows, the farthest-next-use temp is
//! *spilled to copy* — RowCloned out to an allocator-introduced spill row
//! and RowCloned back before its next read. Spilling changes the command
//! sequence (extra type-1 AAPs) but never the resulting array state.
//!
//! Lowest-free + expire-at-last-use reproduces the historical hand
//! assignments for both canonical kernels byte-for-byte, which is what
//! keeps the IR path identical to the pre-IR `CompiledTemplate` skeletons.

use super::program::{
    IrError, IrErrorKind, KernelSpan, PimOp, PimProgram, RowClass, RowDecl, VRow,
};
use super::LoweredOp;

/// Statistics of one allocation run (surfaced in compile reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocStats {
    /// Temps declared by the program.
    pub temps: usize,
    /// Distinct compute slots the allocation used.
    pub slots_used: usize,
    /// Spill rows appended to the role table.
    pub spill_roles: usize,
    /// Spill stores (RowClone compute row → spill row) inserted.
    pub spill_stores: usize,
    /// Spill reloads (RowClone spill row → compute row) inserted.
    pub spill_reloads: usize,
}

/// Where one temp lived over its lifetime (for dumps and allocator tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TempAssignment {
    /// The temp's virtual row.
    pub vrow: VRow,
    /// The temp's label.
    pub label: String,
    /// Every compute slot the temp occupied, in occupation order (one
    /// entry unless the temp was spilled and reloaded).
    pub slots: Vec<usize>,
    /// The spill role the temp was assigned, if it was ever evicted.
    pub spill_role: Option<usize>,
    /// Op index of the temp's first definition.
    pub def: usize,
    /// Op index of the temp's last read or write.
    pub last_use: usize,
}

/// The result of allocating a program's virtual rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    /// Final role table, in caller-binding order: non-temp declarations
    /// first (declaration order), then one temp role per used compute
    /// slot (`x1`, `x2`, …), then spill roles (`s1`, `s2`, …).
    pub roles: Vec<RowDecl>,
    /// The lowered op sequence over role indices, spill copies included.
    pub ops: Vec<LoweredOp>,
    /// Per-temp lifetime records.
    pub temps: Vec<TempAssignment>,
    /// Aggregate statistics.
    pub stats: AllocStats,
}

/// Operand form used during the scan, before final role indices exist.
#[derive(Debug, Clone, Copy)]
enum Sym {
    /// A non-temp declaration (index into the non-temp prefix).
    Fixed(usize),
    /// A compute slot.
    Slot(usize),
    /// A spill role.
    Spill(usize),
}

#[derive(Debug, Clone, Copy)]
enum SymOp {
    Copy { src: Sym, dst: Sym },
    TwoSrc { srcs: [Sym; 2], dst: Sym, mode: pim_dram::sense_amp::SaMode },
    ThreeSrc { srcs: [Sym; 3], dst: Sym },
}

struct Scan<'p> {
    program: &'p PimProgram,
    compute_slots: usize,
    /// Non-temp role index per vrow (None for temps).
    fixed: Vec<Option<usize>>,
    /// Op indices at which each vrow is read or written.
    events: Vec<Vec<usize>>,
    /// Current compute slot per vrow.
    slot_of: Vec<Option<usize>>,
    /// Occupant per slot.
    slots: Vec<Option<VRow>>,
    /// Assigned spill role per vrow.
    spill_of: Vec<Option<usize>>,
    /// Whether the vrow's live value currently sits in its spill row.
    in_spill: Vec<bool>,
    max_slot_used: Option<usize>,
    spill_roles: usize,
    out: Vec<SymOp>,
    temps: Vec<TempAssignment>,
    stats: AllocStats,
}

impl<'p> Scan<'p> {
    fn new(program: &'p PimProgram, compute_slots: usize) -> Self {
        let n = program.rows().len();
        let mut fixed = vec![None; n];
        let mut next_fixed = 0usize;
        for (i, decl) in program.rows().iter().enumerate() {
            if decl.class != RowClass::Temp {
                fixed[i] = Some(next_fixed);
                next_fixed += 1;
            }
        }
        let mut events = vec![Vec::new(); n];
        for (i, op) in program.ops().iter().enumerate() {
            for r in op.reads() {
                events[r.index()].push(i);
            }
            events[op.writes().index()].push(i);
        }
        Scan {
            program,
            compute_slots,
            fixed,
            events,
            slot_of: vec![None; n],
            slots: vec![None; compute_slots],
            spill_of: vec![None; n],
            in_spill: vec![false; n],
            max_slot_used: None,
            spill_roles: 0,
            out: Vec::new(),
            temps: Vec::new(),
            stats: AllocStats::default(),
        }
    }

    fn is_temp(&self, v: VRow) -> bool {
        self.program.class_of(v) == RowClass::Temp
    }

    fn last_use(&self, v: VRow) -> usize {
        *self.events[v.index()].last().expect("temp with no events")
    }

    /// First event of `v` strictly after op `i` (`usize::MAX` when dead).
    fn next_use(&self, v: VRow, i: usize) -> usize {
        let ev = &self.events[v.index()];
        let pos = ev.partition_point(|&e| e <= i);
        ev.get(pos).copied().unwrap_or(usize::MAX)
    }

    fn expire(&mut self, i: usize) {
        for s in 0..self.slots.len() {
            if let Some(v) = self.slots[s] {
                if self.last_use(v) < i {
                    self.slots[s] = None;
                    self.slot_of[v.index()] = None;
                }
            }
        }
    }

    fn record_slot(&mut self, v: VRow, slot: usize) {
        let t = self
            .temps
            .iter_mut()
            .find(|t| t.vrow == v)
            .expect("temp assignment recorded before slot");
        t.slots.push(slot);
    }

    /// Finds a slot for `v` at op `i`, evicting a non-`protected` temp via
    /// farthest-next-use (Belady) when every slot is occupied.
    fn acquire_slot(&mut self, v: VRow, i: usize, protected: &[VRow]) -> Result<usize, IrError> {
        let slot = match self.slots.iter().position(|o| o.is_none()) {
            Some(free) => free,
            None => {
                let victim = self
                    .slots
                    .iter()
                    .enumerate()
                    .filter_map(|(s, o)| o.map(|occ| (s, occ)))
                    .filter(|(_, occ)| !protected.contains(occ))
                    .max_by_key(|&(s, occ)| (self.next_use(occ, i), s));
                let Some((s, occ)) = victim else {
                    return Err(IrError {
                        span: KernelSpan {
                            kernel: self.program.name().to_string(),
                            op_index: Some(i),
                        },
                        kind: IrErrorKind::NotEnoughComputeSlots {
                            needed: protected.len(),
                            available: self.compute_slots,
                        },
                    });
                };
                // Spill store: RowClone the victim out so it can be
                // reloaded before its next read.
                let role = match self.spill_of[occ.index()] {
                    Some(r) => r,
                    None => {
                        let r = self.spill_roles;
                        self.spill_roles += 1;
                        self.spill_of[occ.index()] = Some(r);
                        r
                    }
                };
                if let Some(t) = self.temps.iter_mut().find(|t| t.vrow == occ) {
                    t.spill_role = Some(role);
                }
                self.out.push(SymOp::Copy { src: Sym::Slot(s), dst: Sym::Spill(role) });
                self.stats.spill_stores += 1;
                self.slot_of[occ.index()] = None;
                self.in_spill[occ.index()] = true;
                self.slots[s] = None;
                s
            }
        };
        self.slots[slot] = Some(v);
        self.slot_of[v.index()] = Some(slot);
        self.max_slot_used = Some(self.max_slot_used.map_or(slot, |m| m.max(slot)));
        self.record_slot(v, slot);
        Ok(slot)
    }

    /// Ensures a read temp is resident, reloading from its spill row.
    fn ensure_resident(&mut self, v: VRow, i: usize, protected: &[VRow]) -> Result<(), IrError> {
        if self.slot_of[v.index()].is_some() {
            return Ok(());
        }
        if !self.in_spill[v.index()] {
            // Only reachable on unlegalized programs: the temp was never
            // defined. Report it the same way legalization would.
            return Err(IrError {
                span: KernelSpan { kernel: self.program.name().to_string(), op_index: Some(i) },
                kind: IrErrorKind::UseBeforeDef { operand: self.program.label_of(v).to_string() },
            });
        }
        let role = self.spill_of[v.index()].expect("spilled temp has a spill role");
        let slot = self.acquire_slot(v, i, protected)?;
        self.out.push(SymOp::Copy { src: Sym::Spill(role), dst: Sym::Slot(slot) });
        self.stats.spill_reloads += 1;
        self.in_spill[v.index()] = false;
        Ok(())
    }

    fn sym(&self, v: VRow) -> Sym {
        match self.fixed[v.index()] {
            Some(f) => Sym::Fixed(f),
            None => Sym::Slot(self.slot_of[v.index()].expect("temp operand must be resident")),
        }
    }

    fn run(mut self) -> Result<Allocation, IrError> {
        // Record temps in declaration order so dumps are stable.
        for (idx, decl) in self.program.rows().iter().enumerate() {
            if decl.class == RowClass::Temp {
                let v = VRow(idx as u32);
                let ev = &self.events[idx];
                let (def, last) = match (ev.first(), ev.last()) {
                    (Some(&d), Some(&l)) => (d, l),
                    // Declared but never used: give it an empty lifetime.
                    _ => (0, 0),
                };
                self.temps.push(TempAssignment {
                    vrow: v,
                    label: decl.label.clone(),
                    slots: Vec::new(),
                    spill_role: None,
                    def,
                    last_use: last,
                });
            }
        }
        self.stats.temps = self.temps.len();

        for i in 0..self.program.ops().len() {
            self.expire(i);
            let op = self.program.ops()[i];

            // Every temp the op touches must stay resident together.
            let mut protected: Vec<VRow> = Vec::new();
            for r in op.reads() {
                if self.is_temp(r) && !protected.contains(&r) {
                    protected.push(r);
                }
            }
            let dst = op.writes();
            if self.is_temp(dst) && !protected.contains(&dst) {
                protected.push(dst);
            }

            for r in op.reads() {
                if self.is_temp(r) {
                    self.ensure_resident(r, i, &protected)?;
                }
            }
            if self.is_temp(dst) && self.slot_of[dst.index()].is_none() {
                // A full-row write needs no reload even if previously
                // spilled — the old value is dead.
                self.in_spill[dst.index()] = false;
                self.acquire_slot(dst, i, &protected)?;
            }

            let sym_op = match op {
                PimOp::Copy { src, dst } => SymOp::Copy { src: self.sym(src), dst: self.sym(dst) },
                PimOp::TwoSrc { srcs, dst, mode } => SymOp::TwoSrc {
                    srcs: [self.sym(srcs[0]), self.sym(srcs[1])],
                    dst: self.sym(dst),
                    mode,
                },
                PimOp::ThreeSrc { srcs, dst } => SymOp::ThreeSrc {
                    srcs: [self.sym(srcs[0]), self.sym(srcs[1]), self.sym(srcs[2])],
                    dst: self.sym(dst),
                },
            };
            self.out.push(sym_op);
        }

        self.finish()
    }

    fn finish(self) -> Result<Allocation, IrError> {
        let num_fixed = self.fixed.iter().flatten().count();
        let slots_used = self.max_slot_used.map_or(0, |m| m + 1);
        let resolve = |s: Sym| -> usize {
            match s {
                Sym::Fixed(f) => f,
                Sym::Slot(slot) => num_fixed + slot,
                Sym::Spill(r) => num_fixed + slots_used + r,
            }
        };
        let ops = self
            .out
            .iter()
            .map(|op| match *op {
                SymOp::Copy { src, dst } => {
                    LoweredOp::Copy { src: resolve(src), dst: resolve(dst) }
                }
                SymOp::TwoSrc { srcs, dst, mode } => LoweredOp::TwoSrc {
                    srcs: [resolve(srcs[0]), resolve(srcs[1])],
                    dst: resolve(dst),
                    mode,
                },
                SymOp::ThreeSrc { srcs, dst } => LoweredOp::ThreeSrc {
                    srcs: [resolve(srcs[0]), resolve(srcs[1]), resolve(srcs[2])],
                    dst: resolve(dst),
                },
            })
            .collect();

        let mut roles: Vec<RowDecl> =
            self.program.rows().iter().filter(|d| d.class != RowClass::Temp).cloned().collect();
        for s in 0..slots_used {
            roles.push(RowDecl { class: RowClass::Temp, label: format!("x{}", s + 1) });
        }
        for r in 0..self.spill_roles {
            roles.push(RowDecl { class: RowClass::Spill, label: format!("s{}", r + 1) });
        }

        let mut stats = self.stats;
        stats.slots_used = slots_used;
        stats.spill_roles = self.spill_roles;

        Ok(Allocation { roles, ops, temps: self.temps, stats })
    }
}

/// Allocates `program`'s virtual rows onto `compute_slots` compute rows.
///
/// The program should be [`super::legalize()`]d first (the [`super::compile`]
/// pipeline does); this pass assumes activation sources are temps.
///
/// # Errors
///
/// [`IrErrorKind::NotEnoughComputeSlots`] when one op needs more
/// simultaneously-resident temps than `compute_slots` (spilling cannot
/// split a single activation set), and [`IrErrorKind::UseBeforeDef`] for
/// unlegalized programs that read an undefined temp.
pub fn allocate(program: &PimProgram, compute_slots: usize) -> Result<Allocation, IrError> {
    Scan::new(program, compute_slots).run()
}

#[cfg(test)]
mod tests {
    use super::super::kernels;
    use super::*;
    use pim_dram::sense_amp::SaMode;

    #[test]
    fn xnor_reproduces_the_historical_role_table() {
        let alloc = allocate(&kernels::xnor(), 8).unwrap();
        // Roles: a=0, b=1, dst=2, x1=3, x2=4.
        let labels: Vec<&str> = alloc.roles.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, vec!["a", "b", "dst", "x1", "x2"]);
        assert_eq!(
            alloc.ops,
            vec![
                LoweredOp::Copy { src: 0, dst: 3 },
                LoweredOp::Copy { src: 1, dst: 4 },
                LoweredOp::TwoSrc { srcs: [3, 4], dst: 2, mode: SaMode::Xnor },
            ]
        );
        assert_eq!(alloc.stats.spill_stores, 0);
        assert_eq!(alloc.stats.slots_used, 2);
    }

    #[test]
    fn full_adder_reproduces_the_historical_role_table() {
        let alloc = allocate(&kernels::full_adder(), 8).unwrap();
        // Roles: a=0, b=1, c=2, zero=3, sum_dst=4, carry_dst=5, x1=6, x2=7, x3=8.
        assert_eq!(alloc.roles.len(), 9);
        assert_eq!(alloc.stats.slots_used, 3);
        assert_eq!(
            alloc.ops,
            vec![
                LoweredOp::Copy { src: 2, dst: 6 },
                LoweredOp::Copy { src: 3, dst: 7 },
                LoweredOp::Copy { src: 2, dst: 8 },
                LoweredOp::ThreeSrc { srcs: [6, 7, 8], dst: 4 },
                LoweredOp::Copy { src: 0, dst: 6 },
                LoweredOp::Copy { src: 1, dst: 7 },
                LoweredOp::TwoSrc { srcs: [6, 7], dst: 4, mode: SaMode::CarrySum },
                LoweredOp::Copy { src: 0, dst: 6 },
                LoweredOp::Copy { src: 1, dst: 7 },
                LoweredOp::Copy { src: 2, dst: 8 },
                LoweredOp::ThreeSrc { srcs: [6, 7, 8], dst: 5 },
            ]
        );
    }

    #[test]
    fn spilling_kicks_in_when_temps_exceed_slots() {
        // Three simultaneously-live temps on a 2-slot target.
        let mut p = PimProgram::new("spill3");
        let a = p.input("a");
        let b = p.input("b");
        let o1 = p.output("o1");
        let o2 = p.output("o2");
        let t1 = p.temp("t1");
        let t2 = p.temp("t2");
        let t3 = p.temp("t3");
        p.copy(a, t1);
        p.copy(b, t2);
        p.copy(a, t3);
        p.two_src([t1, t2], o1, SaMode::Xor);
        p.two_src([t2, t3], o2, SaMode::Xor);
        let alloc = allocate(&p, 2).unwrap();
        assert!(alloc.stats.spill_stores > 0, "{:?}", alloc.stats);
        assert!(alloc.stats.spill_reloads > 0, "{:?}", alloc.stats);
        assert!(alloc.stats.spill_roles >= 1);
        // Spill roles come after the slot roles in the binding order.
        assert!(alloc.roles.iter().any(|r| r.class == RowClass::Spill));
        // The same program allocates cleanly (and spill-free) with 8 slots.
        let wide = allocate(&p, 8).unwrap();
        assert_eq!(wide.stats.spill_stores, 0);
    }

    #[test]
    fn activation_wider_than_slots_is_a_typed_error() {
        let err = allocate(&kernels::full_adder(), 2).unwrap_err();
        assert!(
            matches!(err.kind, IrErrorKind::NotEnoughComputeSlots { needed: 3, available: 2 }),
            "{err:?}"
        );
        assert_eq!(err.span.kernel, "full-adder");
    }

    #[test]
    fn live_temps_never_share_a_slot() {
        // Direct check on the full adder: overlapping lifetimes ⇒
        // distinct slots (the proptest in tests/ir_suite.rs generalizes
        // this over random programs).
        let alloc = allocate(&kernels::full_adder(), 8).unwrap();
        for (i, x) in alloc.temps.iter().enumerate() {
            for y in &alloc.temps[i + 1..] {
                let overlap = x.def <= y.last_use && y.def <= x.last_use;
                if overlap && x.spill_role.is_none() && y.spill_role.is_none() {
                    assert_ne!(x.slots, y.slots, "{} and {} alias", x.label, y.label);
                }
            }
        }
    }
}
