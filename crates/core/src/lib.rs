#![warn(missing_docs)]
//! # pim-assembler
//!
//! The paper's primary contribution: a processing-in-DRAM genome assembler.
//! This crate maps the reconstructed assembly algorithm (Fig. 5) onto the
//! bit-accurate DRAM substrate of `pim-dram`, executing every stage
//! *functionally* — the hash table really lives in sub-array rows, queries
//! really run as `PIM_XNOR` row comparisons, and degrees really accumulate
//! through `PIM_Add` carry-save reduction — while counting every command
//! for the performance model.
//!
//! Module map:
//!
//! * [`config`] — platform configuration (geometry, k, Pd, …),
//! * [`layout`] — the Fig. 6 sub-array row layout (k-mer / value / temp /
//!   compute regions),
//! * [`dispatch`] — parallel dispatch of per-sub-array partitions,
//! * [`dpu`] — the MAT-level digital processing unit,
//! * [`ir`] — the typed PIM-IR over virtual rows and its lowering
//!   pipeline (legalize → virtual-row allocation → peephole), the single
//!   source of truth for every kernel command sequence; its lowered ops
//!   are the §II-B AAP instructions (types 1–3),
//! * [`template`] — compiled, reusable AAP kernel templates (the compiled
//!   IR kernels the stages execute),
//! * [`pim_xnor`] — the parallel in-memory comparator (Fig. 7),
//! * [`pim_add`] — carry-save + bit-serial in-memory addition (Fig. 8),
//! * [`mapping`] — correlated data partitioning and mapping (Fig. 6),
//! * [`partition`] — interval-block graph partitioning (Fig. 8, stage 1–2),
//! * [`hashmap_stage`] — the `Hashmap(S, k)` procedure in PIM,
//! * [`graph_stage`] — the `DeBruijn(Hashmap, k)` procedure in PIM,
//! * [`traverse_stage`] — the `Traverse(G)` procedure in PIM,
//! * [`checkpoint`] — serializable stage checkpoints (a snapshot written
//!   atomically plus an append-only journal of per-chunk records,
//!   schema/fingerprint validation, directory guard),
//! * [`pipeline`] — the full assembler: [`pipeline::PimAssembler`] and
//!   the resumable [`pipeline::Session`] that drives every run, producing
//!   contigs and a [`perf::PerfReport`],
//! * [`perf`] — wall-clock/power/MBR/RUR estimation and chr14-scale
//!   extrapolation,
//! * [`budget`] — template-derived stage command budgets checked against
//!   the `pim-obsv` metrics snapshot.
//!
//! ## Example
//!
//! ```
//! use pim_assembler::{config::PimAssemblerConfig, pipeline::PimAssembler};
//! use pim_genome::{reads::ReadSimulator, sequence::DnaSequence};
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let genome = DnaSequence::random(&mut rng, 800);
//! let reads = ReadSimulator::new(60, 25.0).simulate(&genome, &mut rng);
//! let mut assembler = PimAssembler::new(PimAssemblerConfig::small_test(15));
//! let run = assembler.assemble(&reads)?;
//! assert!(run.assembly.stats.total_length >= 700);
//! // Real in-memory comparisons ran.
//! assert!(run.report.commands.count(pim_dram::CommandClass::Aap2) > 0);
//! # Ok::<(), pim_assembler::PimError>(())
//! ```

pub mod budget;
pub mod checkpoint;
pub mod config;
pub mod dispatch;
pub mod dpu;
pub mod error;
pub mod graph_stage;
pub mod hashmap_stage;
pub mod ir;
pub mod layout;
pub mod mapping;
pub mod mapping_stage;
pub mod partition;
pub mod perf;
pub mod pim_add;
pub mod pim_xnor;
pub mod pipeline;
pub mod template;
pub mod traverse_stage;

pub use config::PimAssemblerConfig;
pub use dispatch::ParallelDispatcher;
pub use error::{PimError, Result};
pub use perf::PerfReport;
pub use pipeline::{PimAssembler, PimRun, Session};
