//! Digital model of the reconfigurable sense amplifier (Fig. 2).
//!
//! The paper's SA augments the regular cross-coupled pair with two inverters
//! of shifted voltage-transfer characteristics (VTC), one AND gate with an
//! inverted input, one XOR gate, a D-latch, and a 4:1 MUX, steered by five
//! enable signals `(Enm, Enx, Enmux, Enc1, Enc2)`.
//!
//! During a two-row activation the bit-line settles to `Vi = n·Vdd / C`
//! where `n` is the number of activated cells storing logic 1 and `C = 2`.
//! The **low-Vs** inverter switches around `¼·Vdd`, so its output is the
//! NOR2 of the operands; the **high-Vs** inverter switches around `¾·Vdd`,
//! giving NAND2; `XOR2 = NAND2 AND (NOT NOR2)` through the add-on AND gate,
//! and the MUX routes `XOR2` / `XNOR2` onto BL / BL̄. A triple-row
//! activation senses the 3-input majority (Ambit TRA) for the carry, which
//! the D-latch holds so the add-on XOR can form the sum in the next cycle.
//!
//! This module models that behaviour *digitally* (exact logic); the analog
//! margins and their sensitivity to process variation are modeled in the
//! `pim-circuits` crate.

use crate::bitrow::BitRow;
use crate::error::{DramError, Result};

/// Operating mode of the reconfigurable sense amplifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SaMode {
    /// Normal DRAM read/write sensing (MUX deactivated).
    Memory,
    /// Two-row activation, low-Vs inverter output: NOR2.
    Nor,
    /// Two-row activation, high-Vs inverter output: NAND2.
    Nand,
    /// Two-row activation, add-on AND gate output: XOR2.
    Xor,
    /// Two-row activation, complement on BL̄: XNOR2 (single cycle —
    /// the paper's comparison primitive).
    Xnor,
    /// Triple-row activation: majority (carry), latched.
    Carry,
    /// Sum through the add-on XOR of the two operands and the latched carry.
    CarrySum,
}

/// The five SA enable signals `(Enm, Enx, Enmux, Enc1, Enc2)` of Fig. 2a.
///
/// # Examples
///
/// ```
/// use pim_dram::sense_amp::{EnableSignals, SaMode};
///
/// // The paper quotes "01110" as the enable set for XNOR2.
/// assert_eq!(EnableSignals::for_mode(SaMode::Xnor).as_bits(), [false, true, true, true, false]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EnableSignals {
    /// Enables the normal-Vs back-to-back inverter pair (memory sensing).
    pub en_m: bool,
    /// Enables the shifted-VTC inverter branch (in-memory logic).
    pub en_x: bool,
    /// Enables the 4:1 output MUX.
    pub en_mux: bool,
    /// MUX selector bit 1.
    pub en_c1: bool,
    /// MUX selector bit 2.
    pub en_c2: bool,
}

impl EnableSignals {
    /// Enable set for a given SA mode, per the control table of Fig. 2a.
    pub fn for_mode(mode: SaMode) -> Self {
        match mode {
            // W/R: Enm=1, Enx=1 (both sensing paths ready), MUX off.
            SaMode::Memory => {
                EnableSignals { en_m: true, en_x: true, en_mux: false, en_c1: false, en_c2: false }
            }
            // XNOR2: the paper's "01110".
            SaMode::Xnor => {
                EnableSignals { en_m: false, en_x: true, en_mux: true, en_c1: true, en_c2: false }
            }
            SaMode::Xor => {
                EnableSignals { en_m: false, en_x: true, en_mux: true, en_c1: false, en_c2: true }
            }
            SaMode::Nor => {
                EnableSignals { en_m: false, en_x: true, en_mux: true, en_c1: false, en_c2: false }
            }
            SaMode::Nand => {
                EnableSignals { en_m: false, en_x: true, en_mux: true, en_c1: true, en_c2: true }
            }
            // Carry: normal majority sensing with the latch armed.
            SaMode::Carry => {
                EnableSignals { en_m: true, en_x: true, en_mux: true, en_c1: true, en_c2: false }
            }
            // Sum: latch drives the add-on XOR onto the BL.
            SaMode::CarrySum => {
                EnableSignals { en_m: true, en_x: true, en_mux: true, en_c1: false, en_c2: false }
            }
        }
    }

    /// The signals as the `[Enm, Enx, Enmux, Enc1, Enc2]` bit pattern.
    pub fn as_bits(&self) -> [bool; 5] {
        [self.en_m, self.en_x, self.en_mux, self.en_c1, self.en_c2]
    }
}

/// Row-wide digital sense-amplifier model.
///
/// Holds the per-column D-latch state used by the addition datapath. The
/// SA is replicated per bit-line, so every mode evaluates 64 bit-lines at
/// a time over packed row words (a sub-array row's slice of its word
/// slab), with the tail past the row width kept zero.
///
/// # Examples
///
/// ```
/// use pim_dram::sense_amp::{SaMode, SenseAmpArray};
///
/// let sa = SenseAmpArray::new(4);
/// let mut out = [0u64];
/// sa.two_row(SaMode::Xnor, &[0b1100], &[0b1010], &mut out)?;
/// assert_eq!(out, [0b1001]);
/// # Ok::<(), pim_dram::DramError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SenseAmpArray {
    latch: BitRow,
    /// The valid bit-lines of the last row word.
    tail: u64,
}

impl SenseAmpArray {
    /// Creates a SA array for a sub-array of `cols` bit-lines, latch cleared.
    pub fn new(cols: usize) -> Self {
        let tail = match cols % 64 {
            0 => u64::MAX,
            rem => (1u64 << rem) - 1,
        };
        SenseAmpArray { latch: BitRow::zeros(cols), tail }
    }

    /// Current latch content (the carry row of an in-flight addition).
    pub fn latch(&self) -> &BitRow {
        &self.latch
    }

    /// The valid bit-lines of a row's last word (all of them when the row
    /// width is a multiple of 64).
    pub(crate) fn tail_mask(&self) -> u64 {
        self.tail
    }

    /// Clears the latch (issued by the controller before a new addition).
    pub fn reset_latch(&mut self) {
        self.latch.words_mut().fill(0);
    }

    /// Senses a two-row activation of the rows `a` and `b` in `mode` into
    /// `out`:
    /// * NOR2 through the low-Vs inverter, NAND2 through the high-Vs one;
    /// * XOR2 through the add-on AND gate (`NAND2 AND NOT(NOR2)`, one XOR
    ///   per word), XNOR2 as its complement on BL̄;
    /// * the adder's sum, the XOR of both rows and the latched carry.
    ///
    /// # Errors
    ///
    /// [`DramError::BadActivationCount`] for [`SaMode::Memory`] and
    /// [`SaMode::Carry`], which a two-row activation cannot sense; `out`
    /// is then untouched.
    pub fn two_row(&self, mode: SaMode, a: &[u64], b: &[u64], out: &mut [u64]) -> Result<()> {
        match mode {
            SaMode::Nor => zip2(a, b, out, |x, y| !(x | y)),
            SaMode::Nand => zip2(a, b, out, |x, y| !(x & y)),
            SaMode::Xor => zip2(a, b, out, |x, y| x ^ y),
            SaMode::Xnor => zip2(a, b, out, |x, y| !(x ^ y)),
            SaMode::CarrySum => zip3(a, b, self.latch.as_words(), out, |x, y, z| x ^ y ^ z),
            SaMode::Memory | SaMode::Carry => {
                return Err(DramError::BadActivationCount {
                    requested: 2,
                    supported: "logic modes only",
                })
            }
        }
        if let Some(last) = out.last_mut() {
            *last &= self.tail;
        }
        Ok(())
    }

    /// Senses a triple-row activation (Ambit TRA) into `out`: the 3-input
    /// majority, latched as the carry for a following
    /// [`SaMode::CarrySum`] two-row activation.
    pub fn triple_row_carry(&mut self, a: &[u64], b: &[u64], c: &[u64], out: &mut [u64]) {
        zip3(a, b, c, out, |x, y, z| (x & y) | (x & z) | (y & z));
        self.latch.words_mut().copy_from_slice(out);
    }
}

fn zip2(a: &[u64], b: &[u64], out: &mut [u64], f: impl Fn(u64, u64) -> u64) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = f(x, y);
    }
}

fn zip3(a: &[u64], b: &[u64], c: &[u64], out: &mut [u64], f: impl Fn(u64, u64, u64) -> u64) {
    for (((o, &x), &y), &z) in out.iter_mut().zip(a).zip(b).zip(c) {
        *o = f(x, y, z);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Senses `mode` over two 4-bit rows on a fresh SA.
    fn sense(sa: &SenseAmpArray, mode: SaMode, a: &BitRow, b: &BitRow) -> BitRow {
        let mut out = [0u64];
        sa.two_row(mode, a.as_words(), b.as_words(), &mut out).unwrap();
        BitRow::from_fn(a.len(), |i| (out[0] >> i) & 1 == 1)
    }

    fn rows4() -> (BitRow, BitRow) {
        (
            BitRow::from_bits([false, false, true, true]),
            BitRow::from_bits([false, true, false, true]),
        )
    }

    #[test]
    fn nor_nand_xor_truth_tables_match_fig2b() {
        let sa = SenseAmpArray::new(4);
        let (a, b) = rows4();
        // Fig. 2b: Di Dj -> out1 (NOR via low-Vs), out2 (NAND via high-Vs).
        assert_eq!(sense(&sa, SaMode::Nor, &a, &b).to_bit_vec(), vec![true, false, false, false]);
        assert_eq!(sense(&sa, SaMode::Nand, &a, &b).to_bit_vec(), vec![true, true, true, false]);
        assert_eq!(sense(&sa, SaMode::Xor, &a, &b).to_bit_vec(), vec![false, true, true, false]);
        // XOR2 is NAND2 AND NOT(NOR2) (Fig. 2a); XNOR2 its complement.
        let nand_and_not_nor =
            sense(&sa, SaMode::Nand, &a, &b).and(&sense(&sa, SaMode::Nor, &a, &b).not());
        assert_eq!(sense(&sa, SaMode::Xor, &a, &b), nand_and_not_nor);
        assert_eq!(sense(&sa, SaMode::Xnor, &a, &b), nand_and_not_nor.not());
    }

    #[test]
    fn full_adder_bit_via_carry_then_sum() {
        // One full-adder step: carry = MAJ(a, b, cin); sum = a ^ b ^ cin.
        let mut sa = SenseAmpArray::new(8);
        let a = BitRow::from_bits([false, false, false, false, true, true, true, true]);
        let b = BitRow::from_bits([false, false, true, true, false, false, true, true]);
        let cin = BitRow::from_bits([false, true, false, true, false, true, false, true]);
        let mut out = [0u64];
        // With the incoming carry latched (as the controller sequences it),
        // the add-on XOR produces sum = a ^ b ^ cin …
        let c = cin.as_words();
        sa.triple_row_carry(c, c, c, &mut out); // latch := cin
        assert_eq!(sense(&sa, SaMode::CarrySum, &a, &b), a.xor(&b).xor(&cin));
        // … and the TRA produces the carry-out MAJ(a, b, cin).
        sa.triple_row_carry(a.as_words(), b.as_words(), c, &mut out);
        assert_eq!(sa.latch(), &BitRow::maj3(&a, &b, &cin));
        assert_eq!(out, sa.latch().as_words());
    }

    #[test]
    fn complemented_modes_keep_the_tail_clear() {
        // NOR of two all-zero 67-bit rows is all ones; the 61 tail bits of
        // the second word stay clear, so row equality stays exact.
        let sa = SenseAmpArray::new(67);
        let zeros = BitRow::zeros(67);
        let mut out = [u64::MAX; 2];
        for mode in [SaMode::Nor, SaMode::Nand, SaMode::Xnor] {
            sa.two_row(mode, zeros.as_words(), zeros.as_words(), &mut out).unwrap();
            assert_eq!(out, [u64::MAX, 0b111], "{mode:?}");
        }
    }

    #[test]
    fn memory_and_carry_modes_are_not_two_row_senses() {
        let sa = SenseAmpArray::new(64);
        let mut out = [7u64];
        for mode in [SaMode::Memory, SaMode::Carry] {
            let err = sa.two_row(mode, &[0], &[0], &mut out).unwrap_err();
            assert!(matches!(err, DramError::BadActivationCount { requested: 2, .. }));
        }
        assert_eq!(out, [7], "a rejected mode senses nothing");
    }

    #[test]
    fn latch_reset() {
        let mut sa = SenseAmpArray::new(4);
        let (a, b) = rows4();
        let mut out = [0u64];
        sa.triple_row_carry(a.as_words(), b.as_words(), a.as_words(), &mut out);
        assert!(!sa.latch().all_zeros());
        sa.reset_latch();
        assert!(sa.latch().all_zeros());
    }

    #[test]
    fn enable_signals_match_paper_encodings() {
        // "01110 for XNOR2" (§II-A).
        assert_eq!(
            EnableSignals::for_mode(SaMode::Xnor).as_bits(),
            [false, true, true, true, false]
        );
        // Memory W/R keeps the MUX off so BL is driven by the normal pair.
        let m = EnableSignals::for_mode(SaMode::Memory);
        assert!(m.en_m && !m.en_mux);
        // All seven modes produce distinct enable sets or reuse is explicit.
        let modes = [
            SaMode::Memory,
            SaMode::Nor,
            SaMode::Nand,
            SaMode::Xor,
            SaMode::Xnor,
            SaMode::Carry,
            SaMode::CarrySum,
        ];
        for m in modes {
            // for_mode is total.
            let _ = EnableSignals::for_mode(m);
        }
    }
}
