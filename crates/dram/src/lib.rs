#![warn(missing_docs)]
//! # pim-dram
//!
//! A functional, timing-, and energy-annotated model of a processing-in-DRAM
//! memory hierarchy, the substrate of the PIM-Assembler platform
//! (Angizi et al., *PIM-Assembler: A Processing-in-Memory Platform for Genome
//! Assembly*, DAC 2020).
//!
//! The crate models the full DRAM organization from Fig. 1 of the paper:
//! chips contain banks, banks contain MATs, MATs contain computational
//! sub-arrays of 1024 rows × 256 columns. Each sub-array's row space is split
//! into 1016 *data rows* driven by a regular row decoder and 8 *compute rows*
//! (`x1..x8`) driven by a [`decoder::ModifiedRowDecoder`] that supports
//! multi-row activation. The reconfigurable sense amplifier of Fig. 2 is
//! modeled digitally by its truth table in [`sense_amp`], giving:
//!
//! * single-cycle **XNOR2** via two-row activation and the shifted-VTC
//!   NOR/NAND threshold detectors,
//! * single-cycle **carry** (3-input majority) via Ambit-style triple-row
//!   activation (TRA),
//! * single-cycle **sum** via the SA latch and the add-on XOR gate.
//!
//! Every operation is issued as an `ACTIVATE-ACTIVATE-PRECHARGE` (*AAP*)
//! command on a sub-array's [`context::SubarrayContext`], which executes it
//! bit-accurately against the stored array content and charges latency from
//! [`timing::TimingParams`] and energy from [`energy::EnergyParams`]. The
//! [`controller::Controller`] owns the contexts and merges their ledgers:
//! work runs on a context checked out of it, one per sub-array.
//!
//! ## Example
//!
//! ```
//! use pim_dram::{controller::Controller, geometry::DramGeometry, BitRow};
//!
//! # fn main() -> pim_dram::Result<()> {
//! let mut ctrl = Controller::new(DramGeometry::paper_assembly());
//! let sub = ctrl.subarray_handle(0, 0, 0, 0)?;
//!
//! // Write two operand rows, copy them into compute rows x1/x2, XNOR them.
//! let a = BitRow::from_fn(256, |i| i % 3 == 0);
//! let b = BitRow::from_fn(256, |i| i % 5 == 0);
//! let got = ctrl.with_context(sub, |ctx| {
//!     ctx.write_row(10, &a)?;
//!     ctx.write_row(11, &b)?;
//!     ctx.aap_copy(10, ctx.compute_row(0))?;
//!     ctx.aap_copy(11, ctx.compute_row(1))?;
//!     ctx.aap2_xnor([ctx.compute_row(0), ctx.compute_row(1)], 20)?;
//!     ctx.read_row(20)
//! })?;
//! assert_eq!(got, a.xnor(&b));
//! // The context's work is merged into the controller's ledger.
//! assert_eq!(ctrl.ledger().total_commands(), 6);
//! # Ok(())
//! # }
//! ```

pub mod address;
pub mod bitrow;
pub mod context;
pub mod controller;
pub mod decoder;
pub mod energy;
pub mod error;
pub mod fault;
pub mod geometry;
pub mod ledger;
pub mod profile;
pub mod refresh;
pub mod schedule;
pub mod sense_amp;
pub mod subarray;
pub mod timing;

pub use address::{RowAddr, SubarrayId};
pub use bitrow::BitRow;
pub use context::SubarrayContext;
pub use controller::Controller;
pub use error::{DramError, Result};
pub use fault::{FaultConfig, FaultInjector};
pub use geometry::DramGeometry;
pub use ledger::{CommandClass, CommandCosts, EnergyLedger};
pub use profile::{ActivationModel, BackendProfile};

/// Re-export of the observability layer the command surface feeds
/// ([`context::SubarrayContext`] / [`controller::Controller`] counters,
/// [`controller::Controller::metrics_snapshot`] scoping types).
pub use pim_obsv as obsv;
