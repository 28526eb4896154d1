//! End-to-end and per-layer benchmark of the PIM-Assembler workspace.
//!
//! The benchmark drives the public `pim_assembler` APIs from outside the
//! program on three generated workloads ([`workload::standard`]): one-shot
//! assembly, streamed and resumed assembly, and read mapping. Untraced
//! passes give the end-to-end metrics on both clocks (host seconds and
//! memory; modeled device time and energy); a traced run times every call
//! into a layer's public functions and reads each layer's public counters.
//! See `README.md` beside this crate for the workloads, the metrics and
//! what each is expected to move.

pub mod pass;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
