//! Cross-model consistency: the digital sense-amplifier truth tables, the
//! analog charge-sharing + VTC classification, and the transient
//! integration must all agree on every operand combination — three
//! independent models of the same circuit.

use pim_assembler_suite::circuits::charge_sharing::ChargeSharing;
use pim_assembler_suite::circuits::transient::TransientSim;
use pim_assembler_suite::circuits::vtc::{Inverter, InverterKind};
use pim_assembler_suite::dram::bitrow::BitRow;
use pim_assembler_suite::dram::sense_amp::{SaMode, SenseAmpArray};

/// The digital SA model's two-row `mode` output for a single bit pair:
/// the sensing the sub-arrays execute.
fn digital(mode: SaMode, a: bool, b: bool) -> bool {
    let mut out = [0u64];
    SenseAmpArray::new(1).two_row(mode, &[u64::from(a)], &[u64::from(b)], &mut out).unwrap();
    out[0] == 1
}

/// Digital XNOR via the SA model for a single bit pair.
fn digital_xnor(a: bool, b: bool) -> bool {
    digital(SaMode::Xnor, a, b)
}

/// Analog XNOR: charge share the two cells, classify with the shifted-VTC
/// detectors, complement the XOR.
fn analog_xnor(a: bool, b: bool) -> bool {
    let cs = ChargeSharing::ideal(1.0);
    let v = cs.two_row_voltage(usize::from(a) + usize::from(b));
    let lo = Inverter::new(InverterKind::LowVs, 1.0);
    let hi = Inverter::new(InverterKind::HighVs, 1.0);
    let nor = lo.digital(v);
    let nand = hi.digital(v);
    let xor = nand && !nor;
    !xor
}

/// Transient XNOR: the settled BL̄ voltage.
fn transient_xnor(a: bool, b: bool) -> bool {
    TransientSim::nominal_45nm().simulate_xnor(a, b).final_blbar_voltage() > 0.5
}

#[test]
fn three_xnor_models_agree_on_all_operands() {
    for a in [false, true] {
        for b in [false, true] {
            let expect = a == b;
            assert_eq!(digital_xnor(a, b), expect, "digital {a}{b}");
            assert_eq!(analog_xnor(a, b), expect, "analog {a}{b}");
            assert_eq!(transient_xnor(a, b), expect, "transient {a}{b}");
        }
    }
}

#[test]
fn tra_majority_agrees_between_digital_and_analog() {
    let cs = ChargeSharing::ideal(1.0);
    for bits in 0..8u8 {
        let d = [(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0];
        let n = d.iter().filter(|&&x| x).count();
        // Analog: the n/3 divider level sensed against ½·Vdd.
        let analog = cs.tra_voltage(n) > 0.5;
        // Digital: bitwise majority.
        let digital = BitRow::maj3(
            &BitRow::from_bits([d[0]]),
            &BitRow::from_bits([d[1]]),
            &BitRow::from_bits([d[2]]),
        )
        .get(0);
        assert_eq!(analog, digital, "operands {d:?}");
    }
}

#[test]
fn nor_nand_detectors_agree_with_digital_gates() {
    let cs = ChargeSharing::ideal(1.0);
    let lo = Inverter::new(InverterKind::LowVs, 1.0);
    let hi = Inverter::new(InverterKind::HighVs, 1.0);
    for a in [false, true] {
        for b in [false, true] {
            let v = cs.two_row_voltage(usize::from(a) + usize::from(b));
            assert_eq!(lo.digital(v), digital(SaMode::Nor, a, b), "NOR {a}{b}");
            assert_eq!(hi.digital(v), digital(SaMode::Nand, a, b), "NAND {a}{b}");
        }
    }
}

#[test]
fn transient_share_levels_match_static_divider() {
    // Midway through the charge-share phase (after several τ), the BL must
    // sit at the static divider level the algebraic model predicts.
    let sim = TransientSim::nominal_45nm();
    let cs = ChargeSharing::nominal_45nm();
    for (a, b) in [(false, false), (false, true), (true, true)] {
        let w = sim.simulate_xnor(a, b);
        let share_end = sim.t_precharge_ns + sim.t_share_ns;
        let idx = w.time_ns.iter().position(|&t| t >= share_end - sim.dt_ns).unwrap();
        let predicted = cs.two_row_voltage(usize::from(a) + usize::from(b));
        assert!(
            (w.v_bl[idx] - predicted).abs() < 0.08,
            "DiDj={}{}: transient {} vs static {predicted}",
            u8::from(a),
            u8::from(b),
            w.v_bl[idx]
        );
    }
}
