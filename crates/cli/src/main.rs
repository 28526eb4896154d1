//! `pim-asm` — assemble genomes on the simulated PIM-Assembler platform.
//!
//! ```text
//! pim-asm assemble <reads.fasta|fastq> [--k 17] [--min-count 1]
//!         [--simplify N] [--correct] [--pd 2] [--subarrays 32]
//!         [--workers 1] [--output contigs.fasta] [--report]
//!         [--chunk-reads N] [--checkpoint-dir D [--force] | --resume D]
//! pim-asm simulate <genome.fasta> [--coverage 25] [--seed 42]
//!         [--output reads.fasta]
//! pim-asm stats <contigs.fasta>
//! pim-asm throughput
//! pim-asm map [--genome-len 300] [--read-len 32] [--coverage 4]
//!         [--error-rate 0.02] [--seed 42] [--subarrays 4] [--workers 1] [--faults 0]
//!         [--backend <pim-assembler|ambit-tra|panda-mram>] [--opt-level <0|2>]
//! pim-asm verify [--k 9] [--genome-len 400] [--seed 42] [--faults 1e-4]
//!         [--stage <mapping|resume>]
//!         [--backend <pim-assembler|ambit-tra|panda-mram|all>]
//! pim-asm ir --kernel <xnor|full-adder> [--cols 256] [--slots 8]
//!         [--backend <pim-assembler|ambit-tra|panda-mram>]
//! pim-asm help
//! ```
//!
//! Each command accepts only its own options and positional arguments;
//! any other `--name`, a value option given last without its value, or an
//! extra positional is an error naming it (exit status 1).

mod args;
mod commands;

use args::ParsedArgs;

fn main() {
    let parsed = ParsedArgs::parse(std::env::args().skip(1));
    if !commands::is_command(&parsed.command) {
        eprintln!("unknown command {:?}\n", parsed.command);
        eprint!("{}", commands::USAGE);
        std::process::exit(2);
    }
    if let Err(e) = commands::run(&parsed) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
