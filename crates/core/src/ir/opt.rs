//! The IR optimizer: bounded command-sequence search, scored per backend.
//!
//! PR 5's pipeline (`legalize → allocate → peephole`) is a faithful
//! re-encoder: it never emits a *shorter* command sequence than the
//! hand-written kernels. This pass does, following the pPIM-compiler
//! playbook: treat the kernel as a boolean specification, synthesize
//! candidate sequences from a bounded catalog of substrate primitives,
//! prove each candidate equivalent to the baseline *on the target
//! backend's activation model*, and keep the cheapest sequence under the
//! backend's [`pim_dram::profile::BackendProfile`] timing/energy tables.
//!
//! The proof is exhaustive, not sampled: kernels have ≤ 6 input rows, so
//! every column of a candidate's truth table fits one `u64` word and the
//! evaluator compares *all* input assignments at once. Equivalence is
//! checked on the **compiled** kernels (after backend rewrite, allocation
//! and peephole — the ops that actually execute), under the worst-case
//! seeds the hardware can present:
//!
//! * compute/scratch rows poison-seeded both all-zeros and all-ones
//!   (a candidate must not read stale scratch state);
//! * the SA carry latch seeded both ways (no hidden latch dependence);
//! * destructive charge sharing writes the sensed result back into every
//!   activated source row (the DRAM backends), or leaves sources intact
//!   (MRAM) — whichever the backend's [`ActivationModel`] says.
//!
//! A candidate must reproduce the baseline's final state on every
//! caller-visible row (inputs, zero, outputs) *and* the final latch
//! value. Ties go to the baseline, which keeps `O0` and a fruitless `O2`
//! search byte-identical — the optimizer can only ever improve a stream.
//!
//! Because each backend scores candidates with its own cost tables and
//! compiles them through its own rewrite, backends can and do pick
//! different winners: the same xor-cascade full adder lowers to 9
//! commands on PIM-Assembler, 3 on PANDA-MRAM, and a 37-command gate
//! expansion on Ambit-TRA — each strictly cheaper than that backend's
//! baseline.

use pim_dram::profile::ActivationModel;
use pim_dram::sense_amp::SaMode;

use super::{BackendKind, CompiledKernel, LowerOptions, LoweredOp, PimOp, PimProgram, RowClass};

/// Optimization level of one IR compilation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OptLevel {
    /// Faithful re-encoding: the lowered stream is byte-identical to the
    /// hand-written command sequences (the historical behavior).
    #[default]
    O0,
    /// Optimizing: bounded sequence search + cost-model selection. Never
    /// worse than O0 (ties keep the baseline stream).
    O2,
}

impl OptLevel {
    /// Canonical CLI/schema name (`"O0"` / `"O2"`).
    pub fn name(self) -> &'static str {
        match self {
            OptLevel::O0 => "O0",
            OptLevel::O2 => "O2",
        }
    }

    /// Parses a CLI opt-level spelling (`0`/`O0`/`o0`, `2`/`O2`/`o2`).
    pub fn parse(s: &str) -> Option<OptLevel> {
        match s {
            "0" | "O0" | "o0" => Some(OptLevel::O0),
            "2" | "O2" | "o2" => Some(OptLevel::O2),
            _ => None,
        }
    }
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Statistics of one optimizer run (kept on the [`super::CompileReport`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OptStats {
    /// Candidate sequences assembled from the catalog.
    pub candidates_considered: usize,
    /// Candidates that compiled and passed the exhaustive equivalence
    /// proof on this backend.
    pub candidates_verified: usize,
    /// Whether a candidate beat the baseline (false ⇒ stream unchanged).
    pub improved: bool,
    /// Baseline stream cost in integer picoseconds (backend timing table).
    pub baseline_cost_ps: u64,
    /// Selected stream cost in integer picoseconds (== baseline when not
    /// improved).
    pub best_cost_ps: u64,
}

/// Result of [`optimize`]: the replacement program (when one won) plus
/// the search statistics.
#[derive(Debug, Clone)]
pub struct OptOutcome {
    /// A source program whose compilation beats `baseline`, or `None` to
    /// keep the baseline.
    pub program: Option<PimProgram>,
    /// Search statistics.
    pub stats: OptStats,
}

// ---------------------------------------------------------------------------
// Cost model
// ---------------------------------------------------------------------------

/// Stream cost under `backend`'s profile: total issue time in integer
/// picoseconds, with the integer-femtojoule energy total as tiebreak.
/// Derived from the same [`BackendProfile`] tables the runtime ledger
/// charges, so "cheaper here" means "cheaper on the ledger".
///
/// [`BackendProfile`]: pim_dram::profile::BackendProfile
pub fn stream_cost(counts: (u64, u64, u64), backend: BackendKind) -> (u64, u64) {
    let profile = backend.profile();
    let aap_ps = (profile.timing.aap_ns() * 1000.0).round() as u64;
    let (c1, c2, c3) = counts;
    let time_ps = (c1 + c2 + c3) * aap_ps;
    let e = profile.energy;
    let energy_fj = c1 * (e.aap_nj() * 1e6).round() as u64
        + c2 * (e.aap2_nj() * 1e6).round() as u64
        + c3 * (e.aap3_nj() * 1e6).round() as u64;
    (time_ps, energy_fj)
}

// ---------------------------------------------------------------------------
// Exhaustive evaluator
// ---------------------------------------------------------------------------

/// Max input rows the exhaustive evaluator handles (2^6 assignments fill
/// one u64 truth-table word).
const MAX_INPUTS: usize = 6;

/// All-assignments mask for `n` inputs.
fn tt_mask(n: usize) -> u64 {
    if n >= MAX_INPUTS {
        u64::MAX
    } else {
        (1u64 << (1usize << n)) - 1
    }
}

/// Truth-table word of input `i`: bit `j` is bit `i` of assignment `j`.
fn tt_input(i: usize) -> u64 {
    let mut w = 0u64;
    for j in 0..64usize {
        if (j >> i) & 1 == 1 {
            w |= 1 << j;
        }
    }
    w
}

fn apply2(mode: SaMode, a: u64, b: u64, latch: u64) -> Option<u64> {
    Some(match mode {
        SaMode::Nor => !(a | b),
        SaMode::Nand => !(a & b),
        SaMode::Xor => a ^ b,
        SaMode::Xnor => !(a ^ b),
        SaMode::CarrySum => a ^ b ^ latch,
        SaMode::Memory | SaMode::Carry => return None,
    })
}

fn maj3(a: u64, b: u64, c: u64) -> u64 {
    (a & b) | (a & c) | (b & c)
}

/// Final machine state of one exhaustive run: per-row truth-table words
/// plus the SA carry latch.
struct EvalState {
    rows: Vec<u64>,
    latch: u64,
}

/// Runs a compiled kernel's role-indexed ops over truth-table words.
/// Inputs are seeded with the exhaustive assignment patterns (in role
/// order), the zero row with 0, and every other role with `poison`.
/// Returns `None` when the ops use an unevaluable SA mode.
fn eval_lowered(
    kernel: &CompiledKernel,
    model: ActivationModel,
    poison: u64,
    latch0: u64,
) -> Option<EvalState> {
    let mut next_input = 0usize;
    let mut rows: Vec<u64> = kernel
        .roles()
        .iter()
        .map(|decl| match decl.class {
            RowClass::Input => {
                next_input += 1;
                tt_input(next_input - 1)
            }
            RowClass::Zero => 0,
            RowClass::Output | RowClass::Temp | RowClass::Spill => poison,
        })
        .collect();
    if next_input > MAX_INPUTS {
        return None;
    }
    let destructive = model == ActivationModel::DestructiveCharge;
    let mut latch = latch0;
    for op in kernel.ops() {
        match *op {
            LoweredOp::Copy { src, dst } => rows[dst] = rows[src],
            LoweredOp::TwoSrc { srcs, dst, mode } => {
                let r = apply2(mode, rows[srcs[0]], rows[srcs[1]], latch)?;
                rows[dst] = r;
                if destructive {
                    rows[srcs[0]] = r;
                    rows[srcs[1]] = r;
                }
            }
            LoweredOp::ThreeSrc { srcs, dst } => {
                let r = maj3(rows[srcs[0]], rows[srcs[1]], rows[srcs[2]]);
                rows[dst] = r;
                latch = r;
                if destructive {
                    for s in srcs {
                        rows[s] = r;
                    }
                }
            }
        }
    }
    Some(EvalState { rows, latch })
}

/// Runs a source program's virtual-row ops the same way (used for the
/// reference truth tables). Sound at VRow granularity
/// because the allocator never aliases live temps and legalization forces
/// def-before-read, so slot-level destruction can only hit dead values.
fn eval_program(
    program: &PimProgram,
    model: ActivationModel,
    poison: u64,
    latch0: u64,
) -> Option<EvalState> {
    let mut next_input = 0usize;
    let mut rows: Vec<u64> = program
        .rows()
        .iter()
        .map(|decl| match decl.class {
            RowClass::Input => {
                next_input += 1;
                tt_input(next_input - 1)
            }
            RowClass::Zero => 0,
            RowClass::Output | RowClass::Temp | RowClass::Spill => poison,
        })
        .collect();
    if next_input > MAX_INPUTS {
        return None;
    }
    let destructive = model == ActivationModel::DestructiveCharge;
    let mut latch = latch0;
    for op in program.ops() {
        match *op {
            PimOp::Copy { src, dst } => rows[dst.index()] = rows[src.index()],
            PimOp::TwoSrc { srcs, dst, mode } => {
                let r = apply2(mode, rows[srcs[0].index()], rows[srcs[1].index()], latch)?;
                rows[dst.index()] = r;
                if destructive {
                    rows[srcs[0].index()] = r;
                    rows[srcs[1].index()] = r;
                }
            }
            PimOp::ThreeSrc { srcs, dst } => {
                let r = maj3(rows[srcs[0].index()], rows[srcs[1].index()], rows[srcs[2].index()]);
                rows[dst.index()] = r;
                latch = r;
                if destructive {
                    for s in srcs {
                        rows[s.index()] = r;
                    }
                }
            }
        }
    }
    Some(EvalState { rows, latch })
}

/// Worst-case seeds: scratch poison × initial latch, both ways each.
const SEEDS: [(u64, u64); 4] = [(0, 0), (0, u64::MAX), (u64::MAX, 0), (u64::MAX, u64::MAX)];

/// Exhaustive equivalence of two compiled kernels under `model`: same
/// caller-visible role prefix, and for every scratch-poison/latch seed the
/// same final words on every input/zero/output role and the same final
/// latch. This is the optimizer's acceptance proof.
fn lowered_equivalent(
    base: &CompiledKernel,
    cand: &CompiledKernel,
    model: ActivationModel,
) -> bool {
    let fixed = |k: &CompiledKernel| {
        k.roles()
            .iter()
            .take_while(|d| !matches!(d.class, RowClass::Temp | RowClass::Spill))
            .cloned()
            .collect::<Vec<_>>()
    };
    let (bf, cf) = (fixed(base), fixed(cand));
    if bf.is_empty() || bf != cf {
        return false;
    }
    let n = bf.iter().filter(|d| d.class == RowClass::Input).count();
    if n == 0 || n > MAX_INPUTS {
        return false;
    }
    let mask = tt_mask(n);
    for (poison, latch0) in SEEDS {
        let (Some(b), Some(c)) =
            (eval_lowered(base, model, poison, latch0), eval_lowered(cand, model, poison, latch0))
        else {
            return false;
        };
        for (i, decl) in bf.iter().enumerate() {
            let visible = matches!(decl.class, RowClass::Input | RowClass::Zero | RowClass::Output);
            if visible && (b.rows[i] ^ c.rows[i]) & mask != 0 {
                return false;
            }
        }
        if (b.latch ^ c.latch) & mask != 0 {
            return false;
        }
    }
    // The sensed-execution contract: when the baseline ends in a sensible
    // two-source AAP onto a caller-visible row (the comparator path), the
    // replacement must end the same way on the same row.
    if let Some(&LoweredOp::TwoSrc { dst, .. }) = base.ops().last() {
        if dst < bf.len()
            && !matches!(cand.ops().last(), Some(&LoweredOp::TwoSrc { dst: d, .. }) if d == dst)
        {
            return false;
        }
    }
    true
}

// ---------------------------------------------------------------------------
// Candidate synthesis
// ---------------------------------------------------------------------------

/// One catalog entry: a way to compute an output column from input rows.
#[derive(Debug, Clone, PartialEq)]
enum Expr {
    /// `out = input[i]` (one RowClone).
    CopyInput(usize),
    /// `out = 0` (one RowClone from the zero row).
    Zero,
    /// `out = mode(input[i], input[j])` through staged copies.
    Mode2(usize, usize, SaMode),
    /// `out = XOR over the input subset` as a staged cascade.
    XorChain(Vec<usize>),
    /// `out = MAJ(input[i], input[j], input[k])` through staged copies.
    Maj3(usize, usize, usize),
}

impl Expr {
    fn truth_table(&self) -> u64 {
        match self {
            Expr::CopyInput(i) => tt_input(*i),
            Expr::Zero => 0,
            Expr::Mode2(i, j, mode) => {
                apply2(*mode, tt_input(*i), tt_input(*j), 0).expect("catalog modes are evaluable")
            }
            Expr::XorChain(s) => s.iter().fold(0, |acc, &i| acc ^ tt_input(i)),
            Expr::Maj3(i, j, k) => maj3(tt_input(*i), tt_input(*j), tt_input(*k)),
        }
    }

    /// Source-op count when staged for the worst-case (destructive)
    /// substrate — the beam-ranking heuristic; real scoring recompiles.
    fn estimated_ops(&self) -> usize {
        match self {
            Expr::CopyInput(_) | Expr::Zero => 1,
            Expr::Mode2(..) => 3,
            Expr::Maj3(..) => 4,
            Expr::XorChain(s) => 2 * s.len() - 1,
        }
    }

    /// Emits the staged ops computing this expr into `out` on `np`.
    /// `inputs[i]` / `zero` are `np` rows; temps are fresh per emission
    /// (SSA — destructive activations only ever consume dedicated copies).
    fn emit(
        &self,
        np: &mut PimProgram,
        inputs: &[super::VRow],
        zero: Option<super::VRow>,
        out: super::VRow,
        tag: usize,
    ) -> bool {
        let mut fresh = 0usize;
        let stage = |np: &mut PimProgram, fresh: &mut usize, src: super::VRow| {
            *fresh += 1;
            let t = np.temp(format!("o{tag}s{fresh}"));
            np.copy(src, t);
            t
        };
        match self {
            Expr::CopyInput(i) => np.copy(inputs[*i], out),
            Expr::Zero => match zero {
                Some(z) => np.copy(z, out),
                None => return false,
            },
            Expr::Mode2(i, j, mode) => {
                let s0 = stage(np, &mut fresh, inputs[*i]);
                let s1 = stage(np, &mut fresh, inputs[*j]);
                np.two_src([s0, s1], out, *mode);
            }
            Expr::Maj3(i, j, k) => {
                let s0 = stage(np, &mut fresh, inputs[*i]);
                let s1 = stage(np, &mut fresh, inputs[*j]);
                let s2 = stage(np, &mut fresh, inputs[*k]);
                np.three_src([s0, s1, s2], out);
            }
            Expr::XorChain(s) => {
                let mut acc = stage(np, &mut fresh, inputs[s[0]]);
                for (step, &i) in s[1..].iter().enumerate() {
                    let t = stage(np, &mut fresh, inputs[i]);
                    let last = step + 2 == s.len();
                    if last {
                        np.two_src([acc, t], out, SaMode::Xor);
                    } else {
                        fresh += 1;
                        let next = np.temp(format!("o{tag}x{fresh}"));
                        np.two_src([acc, t], next, SaMode::Xor);
                        acc = next;
                    }
                }
            }
        }
        true
    }
}

/// Catalog of candidate exprs over `n` inputs, smallest first.
fn catalog(n: usize) -> Vec<Expr> {
    let mut out = vec![Expr::Zero];
    for i in 0..n {
        out.push(Expr::CopyInput(i));
    }
    for i in 0..n {
        for j in i + 1..n {
            for mode in [SaMode::Nor, SaMode::Nand, SaMode::Xor, SaMode::Xnor] {
                out.push(Expr::Mode2(i, j, mode));
            }
        }
    }
    for i in 0..n {
        for j in i + 1..n {
            for k in j + 1..n {
                out.push(Expr::Maj3(i, j, k));
            }
        }
    }
    // XOR chains over every input subset of size ≥ 2 (bounded: n ≤ 6).
    for bits in 0u32..(1u32 << n) {
        if bits.count_ones() >= 2 {
            let subset: Vec<usize> = (0..n).filter(|i| bits >> i & 1 == 1).collect();
            out.push(Expr::XorChain(subset));
        }
    }
    out.sort_by_key(Expr::estimated_ops);
    out
}

/// Candidates kept per output after truth-table matching.
const BEAM: usize = 4;
/// Hard cap on assembled whole-program candidates per search.
const MAX_CANDIDATES: usize = 96;

/// Searches for a source program whose compilation on `backend` beats
/// `baseline` (the O0 compilation of `program` on the same backend) under
/// the backend's cost tables. Returns the winning program (or `None` on a
/// tie/loss) plus search statistics. Infallible by construction: any
/// candidate that fails to compile or to verify is discarded.
pub fn optimize(
    program: &PimProgram,
    baseline: &CompiledKernel,
    options: &LowerOptions,
    backend: BackendKind,
) -> OptOutcome {
    let baseline_cost = stream_cost(baseline.command_counts(), backend);
    let mut stats = OptStats {
        baseline_cost_ps: baseline_cost.0,
        best_cost_ps: baseline_cost.0,
        ..OptStats::default()
    };
    let keep = |stats: OptStats| OptOutcome { program: None, stats };

    // The caller-visible surface of the source program.
    let inputs: Vec<super::VRow> = (0..program.rows().len() as u32)
        .map(super::VRow)
        .filter(|v| program.class_of(*v) == RowClass::Input)
        .collect();
    let outputs: Vec<super::VRow> = (0..program.rows().len() as u32)
        .map(super::VRow)
        .filter(|v| program.class_of(*v) == RowClass::Output)
        .collect();
    let n = inputs.len();
    if n == 0 || n > MAX_INPUTS || outputs.is_empty() || outputs.len() > 3 {
        return keep(stats);
    }

    // Reference truth tables from the source program, which must be pure
    // functions of the inputs (identical across scratch/latch seeds).
    let mask = tt_mask(n);
    let mut reference: Option<Vec<u64>> = None;
    for (poison, latch0) in SEEDS {
        let Some(state) = eval_program(program, ActivationModel::DestructiveCharge, poison, latch0)
        else {
            return keep(stats);
        };
        let outs: Vec<u64> = outputs.iter().map(|v| state.rows[v.index()] & mask).collect();
        match &reference {
            None => reference = Some(outs),
            Some(prev) if *prev != outs => return keep(stats),
            Some(_) => {}
        }
    }
    let reference = reference.expect("at least one seed ran");

    // Beam per output: the cheapest catalog exprs matching its column.
    let exprs = catalog(n);
    let per_output: Vec<Vec<&Expr>> = reference
        .iter()
        .map(|&tt| exprs.iter().filter(|e| e.truth_table() & mask == tt).take(BEAM).collect())
        .collect();
    if per_output.iter().any(Vec::is_empty) {
        return keep(stats);
    }

    let zero_decl = program.rows().iter().any(|d| d.class == RowClass::Zero);
    let orders = permutations(outputs.len());
    let mut best: Option<(u64, u64, PimProgram)> = None;

    'search: for order in &orders {
        // Cartesian product over the per-output beams, odometer-style.
        let mut pick = vec![0usize; outputs.len()];
        loop {
            if stats.candidates_considered >= MAX_CANDIDATES {
                break 'search;
            }
            stats.candidates_considered += 1;
            if let Some(cand) = assemble(program, &inputs, &outputs, order, &per_output, &pick) {
                if let Ok(kernel) = super::compile_backend(&cand, options, backend) {
                    if lowered_equivalent(baseline, &kernel, backend.profile().activation) {
                        stats.candidates_verified += 1;
                        let cost = stream_cost(kernel.command_counts(), backend);
                        let beats_best = best.as_ref().is_none_or(|(t, e, _)| cost < (*t, *e));
                        if cost < baseline_cost && beats_best {
                            best = Some((cost.0, cost.1, cand));
                        }
                    }
                }
            }
            // Advance the odometer.
            let mut i = 0;
            loop {
                if i == pick.len() {
                    break;
                }
                pick[i] += 1;
                if pick[i] < per_output[order[i]].len() {
                    break;
                }
                pick[i] = 0;
                i += 1;
            }
            if i == pick.len() {
                break;
            }
        }
    }
    let _ = zero_decl;

    match best {
        Some((t, _, program)) => {
            stats.improved = true;
            stats.best_cost_ps = t;
            OptOutcome { program: Some(program), stats }
        }
        None => keep(stats),
    }
}

/// Builds the candidate program: the source's caller-visible rows
/// re-declared in original order, then each output's expr in `order`.
fn assemble(
    source: &PimProgram,
    inputs: &[super::VRow],
    outputs: &[super::VRow],
    order: &[usize],
    per_output: &[Vec<&Expr>],
    pick: &[usize],
) -> Option<PimProgram> {
    let mut np = PimProgram::new(source.name());
    let mut map: Vec<Option<super::VRow>> = vec![None; source.rows().len()];
    let mut zero = None;
    for (i, decl) in source.rows().iter().enumerate() {
        let v = match decl.class {
            RowClass::Input => np.input(decl.label.clone()),
            RowClass::Output => np.output(decl.label.clone()),
            RowClass::Zero => {
                let z = np.zero(decl.label.clone());
                zero = Some(z);
                z
            }
            RowClass::Temp | RowClass::Spill => continue,
        };
        map[i] = Some(v);
    }
    let new_inputs: Vec<super::VRow> =
        inputs.iter().map(|v| map[v.index()].expect("inputs are re-declared")).collect();
    for &oi in order {
        let out = map[outputs[oi].index()].expect("outputs are re-declared");
        if !per_output[oi][pick[oi]].emit(&mut np, &new_inputs, zero, out, oi) {
            return None;
        }
    }
    Some(np)
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    fn rec(prefix: &mut Vec<usize>, rest: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if rest.is_empty() {
            out.push(prefix.clone());
            return;
        }
        for i in 0..rest.len() {
            let x = rest.remove(i);
            prefix.push(x);
            rec(prefix, rest, out);
            prefix.pop();
            rest.insert(i, x);
        }
    }
    let mut out = Vec::new();
    rec(&mut Vec::new(), &mut (0..n).collect(), &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::super::{compile_backend, compile_backend_opt, kernels};
    use super::*;

    const OPTIONS: LowerOptions = LowerOptions { row_bits: 256, size: 256, compute_slots: 8 };

    #[test]
    fn opt_level_parses_and_displays() {
        assert_eq!(OptLevel::parse("0"), Some(OptLevel::O0));
        assert_eq!(OptLevel::parse("O2"), Some(OptLevel::O2));
        assert_eq!(OptLevel::parse("3"), None);
        assert_eq!(OptLevel::O2.to_string(), "O2");
        assert_eq!(OptLevel::default(), OptLevel::O0);
    }

    #[test]
    fn truth_table_inputs_enumerate_assignments() {
        // With 2 inputs: input 0 = 0b1010, input 1 = 0b1100 over 4 rows.
        assert_eq!(tt_input(0) & tt_mask(2), 0b1010);
        assert_eq!(tt_input(1) & tt_mask(2), 0b1100);
        assert_eq!(tt_mask(3), 0xff);
    }

    #[test]
    fn evaluator_models_destructive_charge_sharing() {
        let mut p = PimProgram::new("probe");
        let a = p.input("a");
        let b = p.input("b");
        let d = p.output("d");
        let t1 = p.temp("t1");
        let t2 = p.temp("t2");
        p.copy(a, t1);
        p.copy(b, t2);
        p.two_src([t1, t2], d, SaMode::Xor);
        // Read t1 *after* the activation: destructive model sees the xor
        // result, nondestructive still sees a.
        let d2 = p.output("d2");
        p.copy(t1, d2);
        let des = eval_program(&p, ActivationModel::DestructiveCharge, 0, 0).unwrap();
        let non = eval_program(&p, ActivationModel::NondestructiveSense, 0, 0).unwrap();
        let m = tt_mask(2);
        assert_eq!(des.rows[d2.index()] & m, (tt_input(0) ^ tt_input(1)) & m);
        assert_eq!(non.rows[d2.index()] & m, tt_input(0) & m);
    }

    #[test]
    fn evaluator_latches_the_tra_majority_for_carry_sum() {
        let state =
            eval_program(&kernels::full_adder(), ActivationModel::DestructiveCharge, 0, u64::MAX)
                .unwrap();
        let m = tt_mask(3);
        let (a, b, c) = (tt_input(0), tt_input(1), tt_input(2));
        // Outputs: declaration order is a,b,c,zero,sum_dst,carry_dst,...
        assert_eq!(state.rows[4] & m, (a ^ b ^ c) & m, "sum");
        assert_eq!(state.rows[5] & m, maj3(a, b, c) & m, "carry");
        assert_eq!(state.latch & m, maj3(a, b, c) & m, "latch holds the final TRA");
    }

    #[test]
    fn full_adder_improves_on_every_backend_with_distinct_winning_costs() {
        let program = kernels::full_adder();
        let mut costs = Vec::new();
        for backend in BackendKind::ALL {
            let baseline = compile_backend(&program, &OPTIONS, backend).unwrap();
            let outcome = optimize(&program, &baseline, &OPTIONS, backend);
            assert!(outcome.stats.improved, "{backend} found no improvement");
            assert!(outcome.stats.best_cost_ps < outcome.stats.baseline_cost_ps, "{backend}");
            let kernel =
                compile_backend(outcome.program.as_ref().unwrap(), &OPTIONS, backend).unwrap();
            let total = {
                let (a, b, c) = kernel.command_counts();
                a + b + c
            };
            let base_total = {
                let (a, b, c) = baseline.command_counts();
                a + b + c
            };
            assert!(total < base_total, "{backend}: {total} !< {base_total}");
            costs.push(outcome.stats.best_cost_ps);
        }
        // Each backend scored its own winner on its own tables.
        assert_ne!(costs[0], costs[2], "P-A and MRAM budgets must differ");
    }

    #[test]
    fn optimized_full_adder_command_mixes_per_backend() {
        let program = kernels::full_adder();
        let pa = compile_backend_opt(&program, &OPTIONS, BackendKind::PimAssembler, OptLevel::O2)
            .unwrap();
        // xor-cascade sum (2 copies + xor, copy + xor) + TRA carry
        // (3 copies + TRA): 9 commands vs the baseline's 11.
        assert_eq!(pa.command_counts(), (6, 2, 1));
        assert_eq!(pa.role_count(), 9, "same binding surface as the baseline");
        let mram =
            compile_backend_opt(&program, &OPTIONS, BackendKind::PandaMram, OptLevel::O2).unwrap();
        assert_eq!(mram.command_counts(), (0, 2, 1), "direct data activation: 3 commands");
        let ambit =
            compile_backend_opt(&program, &OPTIONS, BackendKind::AmbitTra, OptLevel::O2).unwrap();
        let (a, b, c) = ambit.command_counts();
        assert!(a + b + c < 41, "ambit O2 must beat its 41-command baseline: {:?}", (a, b, c));
    }

    #[test]
    fn xnor_ties_and_keeps_the_baseline_stream() {
        let program = kernels::xnor();
        for backend in BackendKind::ALL {
            let o0 = compile_backend(&program, &OPTIONS, backend).unwrap();
            let o2 = compile_backend_opt(&program, &OPTIONS, backend, OptLevel::O2).unwrap();
            assert_eq!(o0.ops(), o2.ops(), "{backend}: O2 must not disturb an optimal kernel");
            assert_eq!(o0.roles(), o2.roles(), "{backend}");
            let stats = o2.report().opt.expect("O2 reports present");
            assert!(!stats.improved);
            assert_eq!(stats.baseline_cost_ps, stats.best_cost_ps);
        }
    }

    #[test]
    fn o2_full_adder_executes_bit_identically_to_o0() {
        use pim_dram::address::RowAddr;
        use pim_dram::bitrow::BitRow;
        use pim_dram::controller::Controller;
        use pim_dram::geometry::DramGeometry;

        let program = kernels::full_adder();
        let cols = DramGeometry::paper_assembly().cols;
        let options = LowerOptions::for_row(cols);
        let o0 = compile_backend(&program, &options, BackendKind::PimAssembler).unwrap();
        let o2 = compile_backend_opt(&program, &options, BackendKind::PimAssembler, OptLevel::O2)
            .unwrap();
        for seed in 0..4u64 {
            let mk = || {
                let mut ctrl = Controller::new(DramGeometry::paper_assembly());
                let id = ctrl.subarray_handle(0, 0, 0, 0).unwrap();
                ctrl.detach_context(id).unwrap()
            };
            let (mut c0, mut c2) = (mk(), mk());
            for ctx in [&mut c0, &mut c2] {
                for r in 1..=3usize {
                    let row = BitRow::from_fn(cols, |i| {
                        (i as u64 * 7 + r as u64 + seed).is_multiple_of(3)
                    });
                    ctx.write_row(r, &row).unwrap();
                }
                ctx.write_row(4, &BitRow::zeros(cols)).unwrap();
            }
            let rows = [
                RowAddr(1),
                RowAddr(2),
                RowAddr(3),
                RowAddr(4),
                RowAddr(10),
                RowAddr(11),
                c0.compute_row(0),
                c0.compute_row(1),
                c0.compute_row(2),
            ];
            o0.execute(&mut c0, &rows).unwrap();
            o2.execute(&mut c2, &rows).unwrap();
            for row in [1usize, 2, 3, 4, 10, 11] {
                assert_eq!(
                    c0.peek_row(row).unwrap(),
                    c2.peek_row(row).unwrap(),
                    "row {row} diverged at seed {seed}"
                );
            }
            // O2 spends strictly fewer commands for the same answer.
            assert!(c2.ledger().total_commands() < c0.ledger().total_commands());
        }
    }
}
