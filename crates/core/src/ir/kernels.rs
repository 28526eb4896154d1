//! Canonical IR definitions of the built-in assembly kernels.
//!
//! These are the single source of truth for every kernel's command
//! sequence: `programs.rs` constructors, `CompiledTemplate`, the stage
//! files, and the `pim-asm ir` dump all start from the programs built
//! here and lower through [`super::compile`]. The virtual-row declaration
//! order matches the historical caller-binding order, and lowest-free
//! allocation reproduces the historical `x1/x2/x3` scratch assignments,
//! so the lowered skeletons are byte-identical to the pre-IR tables.

use pim_dram::sense_amp::SaMode;

use super::program::{PimProgram, VRow};

/// Bitwise XNOR (the `PIM_XNOR` comparison primitive, Fig. 6):
/// `dst = !(a ^ b)`.
///
/// Bindings: `[a, b, dst, x1, x2]`.
pub fn xnor() -> PimProgram {
    let mut p = PimProgram::new("xnor");
    let a = p.input("a");
    let b = p.input("b");
    let dst = p.output("dst");
    let t1 = p.temp("t1");
    let t2 = p.temp("t2");
    p.copy(a, t1);
    p.copy(b, t2);
    p.two_src([t1, t2], dst, SaMode::Xnor);
    p
}

/// Bitwise full adder (the `PIM_ADD` building block, Fig. 7):
/// `sum_dst = a ^ b ^ c`, `carry_dst = maj(a, b, c)`.
///
/// The carry latch is loaded by a first TRA over `(c, zero, c)` — the
/// majority of that triple is `c` — after which the `CarrySum` cycle
/// computes `a ^ b ^ latch`, and a final TRA over `(a, b, c)` produces
/// the majority carry.
///
/// Bindings: `[a, b, c, zero, sum_dst, carry_dst, x1, x2, x3]`.
pub fn full_adder() -> PimProgram {
    let mut p = PimProgram::new("full-adder");
    let a = p.input("a");
    let b = p.input("b");
    let c = p.input("c");
    let zero = p.zero("zero");
    let sum_dst = p.output("sum_dst");
    let carry_dst = p.output("carry_dst");

    // Latch cycle: TRA (c, zero, c) leaves carry = c in the SA latch.
    let t1 = p.temp("t1");
    let t2 = p.temp("t2");
    let t3 = p.temp("t3");
    p.copy(c, t1);
    p.copy(zero, t2);
    p.copy(c, t3);
    p.three_src([t1, t2, t3], sum_dst);

    // Sum cycle: CarrySum evaluates a ^ b ^ latch.
    let t4 = p.temp("t4");
    let t5 = p.temp("t5");
    p.copy(a, t4);
    p.copy(b, t5);
    p.two_src([t4, t5], sum_dst, SaMode::CarrySum);

    // Carry cycle: TRA (a, b, c) majority.
    let t6 = p.temp("t6");
    let t7 = p.temp("t7");
    let t8 = p.temp("t8");
    p.copy(a, t6);
    p.copy(b, t7);
    p.copy(c, t8);
    p.three_src([t6, t7, t8], carry_dst);
    p
}

/// Appends one full-adder subprogram (`sum = a ^ b ^ c`,
/// `carry = maj(a, b, c)`) to `p`, staging every operand into fresh
/// temps because triple-row activation is destructive. `tag` keeps the
/// staging labels unique when the adder is instantiated several times.
#[allow(clippy::too_many_arguments)]
fn append_full_adder(
    p: &mut PimProgram,
    a: VRow,
    b: VRow,
    c: VRow,
    zero: VRow,
    sum_dst: VRow,
    carry_dst: VRow,
    tag: &str,
) {
    // Latch cycle: TRA (c, zero, c) leaves carry = c in the SA latch.
    let t1 = p.temp(format!("{tag}_t1"));
    let t2 = p.temp(format!("{tag}_t2"));
    let t3 = p.temp(format!("{tag}_t3"));
    p.copy(c, t1);
    p.copy(zero, t2);
    p.copy(c, t3);
    p.three_src([t1, t2, t3], sum_dst);

    // Sum cycle: CarrySum evaluates a ^ b ^ latch.
    let t4 = p.temp(format!("{tag}_t4"));
    let t5 = p.temp(format!("{tag}_t5"));
    p.copy(a, t4);
    p.copy(b, t5);
    p.two_src([t4, t5], sum_dst, SaMode::CarrySum);

    // Carry cycle: TRA (a, b, c) majority.
    let t6 = p.temp(format!("{tag}_t6"));
    let t7 = p.temp(format!("{tag}_t7"));
    let t8 = p.temp(format!("{tag}_t8"));
    p.copy(a, t6);
    p.copy(b, t7);
    p.copy(c, t8);
    p.three_src([t6, t7, t8], carry_dst);
}

/// Bit-serial 7:3 popcount counter: compresses seven match planes into a
/// three-bit column count via a tree of four full adders.
///
/// Per column: `ones + 2*twos + 4*fours = popcount(i0..i6)`. The tree is
/// `FA(i0,i1,i2) -> (s0, c0)`, `FA(i3,i4,i5) -> (s1, c1)`,
/// `FA(s0, s1, i6) -> (ones, c2)`, `FA(c0, c1, c2) -> (twos, fours)` —
/// the Hamming-weight reduction step of the mapping stage's seed filter.
///
/// Bindings: `[i0..i6, zero, ones, twos, fours, x...]`.
pub fn popcount() -> PimProgram {
    let mut p = PimProgram::new("popcount");
    let ins: Vec<VRow> = (0..7).map(|i| p.input(format!("i{i}"))).collect();
    let zero = p.zero("zero");
    let ones = p.output("ones");
    let twos = p.output("twos");
    let fours = p.output("fours");

    let s0 = p.temp("s0");
    let c0 = p.temp("c0");
    let s1 = p.temp("s1");
    let c1 = p.temp("c1");
    let c2 = p.temp("c2");
    append_full_adder(&mut p, ins[0], ins[1], ins[2], zero, s0, c0, "fa0");
    append_full_adder(&mut p, ins[3], ins[4], ins[5], zero, s1, c1, "fa1");
    append_full_adder(&mut p, s0, s1, ins[6], zero, ones, c2, "fa2");
    append_full_adder(&mut p, c0, c1, c2, zero, twos, fours, "fa3");
    p
}

/// Appends a staged two-source gate `dst = a <mode> b` to `p`, copying
/// both operands into fresh temps first (double-row activation is
/// destructive, and activation sets must be compute-row temps).
fn append_gate(p: &mut PimProgram, a: VRow, b: VRow, dst: VRow, mode: SaMode, tag: &str) {
    let u1 = p.temp(format!("{tag}_u1"));
    let u2 = p.temp(format!("{tag}_u2"));
    p.copy(a, u1);
    p.copy(b, u2);
    p.two_src([u1, u2], dst, mode);
}

/// Bitwise 2:1 multiplexer (the min/select primitive):
/// `dst = m ? a : b`, computed as `xnor(b, nand(a ^ b, m))`.
///
/// Where the mask is set, `nand(a ^ b, 1) = ~(a ^ b)` and
/// `xnor(b, ~(a ^ b)) = a`; where it is clear, `nand(·, 0) = 1` and
/// `xnor(b, 1) = b`. Three two-row activations and no TRA, with no
/// inverted mask to build. The final op is a double-row activation, so
/// the selected row can be sensed directly.
///
/// Bindings: `[a, b, m, dst, x...]`.
pub fn min_select() -> PimProgram {
    let mut p = PimProgram::new("min-select");
    let a = p.input("a");
    let b = p.input("b");
    let m = p.input("m");
    let dst = p.output("dst");

    let diff = p.temp("diff"); // a ^ b
    append_gate(&mut p, a, b, diff, SaMode::Xor, "g_diff");
    // `diff` is already a temp, so only the mask and `b` are staged.
    let tm = p.temp("tm");
    let keep = p.temp("keep"); // ~((a ^ b) & m)
    p.copy(m, tm);
    p.two_src([diff, tm], keep, SaMode::Nand);
    let tb = p.temp("tb");
    p.copy(b, tb);
    p.two_src([tb, keep], dst, SaMode::Xnor);
    p
}

/// One LSB-first borrow step of the bit-serial DP-cell minimum: the
/// borrow out of `a − b` at one bit plane, `bout = maj(~a, b, bin)`.
///
/// An unsigned compare is a carry chain: scanning two bit-sliced
/// operands `A` and `B` from the least significant plane up, with a zero
/// borrow into plane 0, the borrow out of the last plane is `[A < B]` per
/// column. That row is the mask [`min_select`] takes `min(A, B)` with,
/// plane by plane (ties select `B`, which holds the same value). `~a` is
/// one XNOR against the zero row and the borrow one TRA, as PIM_Add takes
/// its carry from one majority per bit (Fig. 8).
///
/// Bindings: `[a, b, bin, zero, bout, x...]`.
pub fn dp_cell() -> PimProgram {
    let mut p = PimProgram::new("dp-cell");
    let a = p.input("a");
    let b = p.input("b");
    let bin = p.input("bin");
    let zero = p.zero("zero");
    let bout = p.output("bout");

    let na = p.temp("na"); // ~a
    append_gate(&mut p, a, zero, na, SaMode::Xnor, "g_na");
    // bout = maj(~a, b, bin) via a TRA; `na` is already a temp.
    let tb = p.temp("tb");
    let tbin = p.temp("tbin");
    p.copy(b, tb);
    p.copy(bin, tbin);
    p.three_src([na, tb, tbin], bout);
    p
}

/// Looks a canonical kernel up by its CLI name.
///
/// Accepted names: `xnor`, `full-adder` (also `full_adder`), `popcount`,
/// `min-select` (also `min_select`), `dp-cell` (also `dp_cell`).
pub fn by_name(name: &str) -> Option<PimProgram> {
    match name {
        "xnor" => Some(xnor()),
        "full-adder" | "full_adder" => Some(full_adder()),
        "popcount" => Some(popcount()),
        "min-select" | "min_select" => Some(min_select()),
        "dp-cell" | "dp_cell" => Some(dp_cell()),
        _ => None,
    }
}

/// The CLI names of all canonical kernels, for help/error text.
pub const KERNEL_NAMES: &[&str] = &["xnor", "full-adder", "popcount", "min-select", "dp-cell"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn by_name_resolves_all_registered_kernels() {
        for name in KERNEL_NAMES {
            assert!(by_name(name).is_some(), "{name} not resolvable");
        }
        assert_eq!(by_name("full_adder").unwrap().name(), "full-adder");
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn kernel_shapes_match_the_paper_figures() {
        let x = xnor();
        assert_eq!(x.ops().len(), 3);
        assert_eq!(x.rows().len(), 5);
        let fa = full_adder();
        assert_eq!(fa.ops().len(), 11);
        assert_eq!(fa.rows().len(), 14); // 6 bound roles + 8 SSA temps
    }

    #[test]
    fn mapping_kernel_shapes() {
        let pc = popcount();
        assert_eq!(pc.ops().len(), 44); // 4 full adders x 11 ops
        assert_eq!(pc.rows().len(), 48); // 11 bound roles + 5 wires + 32 staging
        let ms = min_select();
        assert_eq!(ms.ops().len(), 7); // 1 staged gate + 2 half-staged gates
        assert_eq!(ms.rows().len(), 10); // 4 bound roles + 2 wires + 4 staging
        let dp = dp_cell();
        assert_eq!(dp.ops().len(), 6); // 1 staged gate + 1 half-staged TRA
        assert_eq!(dp.rows().len(), 10); // 5 bound roles + 1 wire + 4 staging
    }
}
