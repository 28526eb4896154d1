//! Voltage-transfer characteristics of the sense amplifier's inverters.
//!
//! The reconfigurable SA uses three inverter flavors (Fig. 2b):
//!
//! * **normal-Vs** — switching voltage at `½·Vdd` (the regular cross-coupled
//!   pair used for memory sensing),
//! * **low-Vs** — high-Vth NMOS + low-Vth PMOS shift the switching voltage
//!   down to `¼·Vdd`; amplifying deviation from `¼·Vdd` realizes **NOR2**,
//! * **high-Vs** — low-Vth NMOS + high-Vth PMOS shift it up to `¾·Vdd`,
//!   realizing **NAND2**.

/// Which inverter flavor (determines the switching voltage).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InverterKind {
    /// Regular inverter, switches at ½·Vdd.
    NormalVs,
    /// Shifted down to ¼·Vdd (threshold detector for NOR2).
    LowVs,
    /// Shifted up to ¾·Vdd (threshold detector for NAND2).
    HighVs,
}

impl InverterKind {
    /// Nominal switching voltage as a fraction of Vdd.
    pub fn switching_fraction(&self) -> f64 {
        match self {
            InverterKind::NormalVs => 0.5,
            InverterKind::LowVs => 0.25,
            InverterKind::HighVs => 0.75,
        }
    }
}

/// A CMOS inverter with a (possibly shifted) switching voltage.
///
/// The transfer curve is modeled as a steep logistic around the switching
/// voltage — adequate because the SA only uses the inverters as threshold
/// detectors with rail-to-rail outputs.
///
/// # Examples
///
/// ```
/// use pim_circuits::vtc::{Inverter, InverterKind};
///
/// let inv = Inverter::new(InverterKind::LowVs, 1.0);
/// assert!(inv.output(0.0) > 0.9);  // input well below ¼·Vdd → high
/// assert!(inv.output(0.5) < 0.1);  // input above ¼·Vdd → low
/// assert!(inv.digital(0.5) == false);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Inverter {
    kind: InverterKind,
    vdd: f64,
    vs: f64,
    gain: f64,
}

impl Inverter {
    /// Creates an inverter of the given flavor at supply `vdd` (volts).
    pub fn new(kind: InverterKind, vdd: f64) -> Self {
        Inverter { kind, vdd, vs: kind.switching_fraction() * vdd, gain: 25.0 }
    }

    /// The inverter flavor.
    pub fn kind(&self) -> InverterKind {
        self.kind
    }

    /// The switching voltage in volts.
    pub fn switching_voltage(&self) -> f64 {
        self.vs
    }

    /// Analog output voltage for input `vin` (logistic VTC).
    pub fn output(&self, vin: f64) -> f64 {
        self.vdd / (1.0 + ((vin - self.vs) * self.gain / self.vdd).exp())
    }

    /// Digital reading of the output (`true` = logic 1 = output above ½Vdd),
    /// i.e. `vin < vs`.
    pub fn digital(&self, vin: f64) -> bool {
        vin < self.vs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switching_fractions_match_fig2b() {
        assert_eq!(InverterKind::LowVs.switching_fraction(), 0.25);
        assert_eq!(InverterKind::NormalVs.switching_fraction(), 0.5);
        assert_eq!(InverterKind::HighVs.switching_fraction(), 0.75);
    }

    #[test]
    fn vtc_is_monotonically_decreasing() {
        for kind in [InverterKind::LowVs, InverterKind::NormalVs, InverterKind::HighVs] {
            let inv = Inverter::new(kind, 1.0);
            let mut prev = f64::INFINITY;
            for i in 0..=100 {
                let v = inv.output(i as f64 / 100.0);
                assert!(v <= prev + 1e-12, "VTC not monotone for {kind:?}");
                prev = v;
            }
        }
    }

    #[test]
    fn low_vs_implements_nor_threshold() {
        // Charge-shared levels for 2-row activation: 0, Vdd/2, Vdd.
        let inv = Inverter::new(InverterKind::LowVs, 1.0);
        assert!(inv.digital(0.0)); // n=0 → NOR = 1
        assert!(!inv.digital(0.5)); // n=1 → NOR = 0
        assert!(!inv.digital(1.0)); // n=2 → NOR = 0
    }

    #[test]
    fn high_vs_implements_nand_threshold() {
        let inv = Inverter::new(InverterKind::HighVs, 1.0);
        assert!(inv.digital(0.0)); // n=0 → NAND = 1
        assert!(inv.digital(0.5)); // n=1 → NAND = 1
        assert!(!inv.digital(1.0)); // n=2 → NAND = 0
    }

    #[test]
    fn xor_from_nand_and_not_nor() {
        // XOR2 = NAND2 AND (NOT NOR2) across the three charge levels.
        let lo = Inverter::new(InverterKind::LowVs, 1.0);
        let hi = Inverter::new(InverterKind::HighVs, 1.0);
        let xor = |v: f64| hi.digital(v) && !lo.digital(v);
        assert!(!xor(0.0));
        assert!(xor(0.5));
        assert!(!xor(1.0));
    }

    #[test]
    fn analog_output_is_rail_to_rail_far_from_vs() {
        let inv = Inverter::new(InverterKind::NormalVs, 1.2);
        assert!(inv.output(0.0) > 1.1);
        assert!(inv.output(1.2) < 0.1);
    }
}
