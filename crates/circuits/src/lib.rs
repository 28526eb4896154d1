#![warn(missing_docs)]
//! # pim-circuits
//!
//! Circuit-level behavioral models for the PIM-Assembler platform,
//! standing in for the paper's Cadence Spectre / 45 nm NCSU PDK flow
//! (§II-B item 1). The models capture exactly the quantities the paper's
//! circuit experiments measure:
//!
//! * [`vtc`] — the shifted voltage-transfer characteristics of the low-Vs /
//!   high-Vs inverters that turn the charge-shared bit-line voltage into
//!   NOR2 / NAND2 decisions (Fig. 2b),
//! * [`charge_sharing`] — the `Vi = n·Vdd/C` capacitive-divider algebra of
//!   two- and three-row activations and their sensing margins,
//! * [`transient`] — an RC transient integrator reproducing the Fig. 3a
//!   waveforms of a single-cycle in-memory XNOR2,
//! * [`variation`] — the 10 000-trial Monte-Carlo process-variation study of
//!   Table I (TRA vs two-row activation, ±5 % … ±30 %),
//! * [`area`] — the transistor-count area-overhead model (~5 % of chip area,
//!   §II-B *Area Overhead*).
//!
//! ## Example
//!
//! ```
//! use pim_circuits::charge_sharing::ChargeSharing;
//!
//! let cs = ChargeSharing::nominal_45nm();
//! // Two-row activation with one '1' settles at half Vdd …
//! let v = cs.two_row_voltage(1);
//! assert!((v - 0.5 * cs.vdd()).abs() < 0.05);
//! ```

pub mod area;
pub mod charge_sharing;
pub mod transient;
pub mod variation;
pub mod vtc;

pub use area::AreaModel;
pub use charge_sharing::ChargeSharing;
pub use transient::{TransientSim, Waveform};
pub use variation::{ActivationMethod, MonteCarlo, VariationReport};
pub use vtc::{Inverter, InverterKind};
