#![warn(missing_docs)]
//! # pim-assembler-suite
//!
//! Umbrella crate of the PIM-Assembler reproduction workspace. It re-exports
//! every member crate so the workspace-level examples and integration tests
//! can reach the whole system through one dependency:
//!
//! * [`dram`] — the processing-in-DRAM substrate (functional + timing/energy),
//! * [`circuits`] — analog behavioral models (transients, variation, area),
//! * [`genome`] — the genome-assembly algorithm toolkit,
//! * [`platforms`] — CPU/GPU/HMC/Ambit/DRISA baseline models,
//! * [`assembler`] — the PIM-Assembler core (mapping, kernels, pipeline),
//! * [`verify`] — differential oracles, pipeline invariants, fault injection.
//!
//! See `README.md` for a tour and `DESIGN.md` for the paper-to-module map.

pub use pim_assembler as assembler;
pub use pim_circuits as circuits;
pub use pim_dram as dram;
pub use pim_genome as genome;
pub use pim_platforms as platforms;
pub use pim_verify as verify;
