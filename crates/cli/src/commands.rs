//! Subcommand implementations.

use std::error::Error;
use std::fs::File;
use std::io::BufReader;
use std::path::Path;

use pim_assembler::{PimAssembler, PimAssemblerConfig};
use pim_dram::geometry::DramGeometry;
use pim_genome::correction::ReadCorrector;
use pim_genome::fasta::{read_fasta, write_fasta, FastaRecord};
use pim_genome::fastq::read_fastq;
use pim_genome::reads::{Read, ReadSimulator};
use pim_platforms::throughput::{ThroughputReport, PAPER_VECTOR_BITS};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::args::ParsedArgs;

/// Help text.
pub const USAGE: &str = "\
pim-asm — genome assembly on the simulated PIM-Assembler platform

USAGE:
  pim-asm assemble <reads.fasta|.fastq> [options]   assemble reads into contigs
  pim-asm simulate <genome.fasta> [options]         sample synthetic reads
  pim-asm stats <contigs.fasta>                     N50/N90/L50 and length table
  pim-asm throughput                                Fig. 3b bulk-op throughput table
  pim-asm map [options]                             map simulated reads on the platform
  pim-asm verify [options]                          differential + fault verification suite
  pim-asm ir --kernel NAME [options]                dump a kernel's IR and lowering
  pim-asm help                                      this text

ASSEMBLE OPTIONS:
  --k N            k-mer length (default 17, 2..=32)
  --min-count N    drop k-mers seen fewer than N times (default 1)
  --simplify N     clip tips/pop bubbles up to N edges (default off)
  --correct        spectral read error correction before assembly
  --pd N           parallelism degree (default 2, at least 1)
  --subarrays N    hash-partition sub-arrays (default 32; more when the
                   k-mer region of a sub-array fills up)
  --workers N      host threads for the parallel dispatcher (default 1;
                   results are identical for any value)
  --chunk-reads N  stream the input N reads at a time instead of loading
                   it whole (results are byte-identical; memory is
                   bounded by the chunk size)
  --checkpoint-dir D  persist stage checkpoints into directory D after
                   every chunk: a chunk appends what it changed to the
                   checkpoint file, and the whole table is rewritten
                   at stage boundaries and when the appended records
                   would outgrow it (implies streaming; D must be empty
                   unless --force is passed)
  --resume D       resume an interrupted checkpointed run from D; pass
                   the same input file (already-ingested reads are
                   skipped without charging)
  --force          allow --checkpoint-dir to reuse a non-empty directory
  --output PATH    write contigs FASTA (default stdout summary only)
  --report         print the hardware performance report
  --metrics-out P  write the pim-obsv metrics snapshot JSON to P
  --trace-out P    write Chrome trace_event JSON to P (chrome://tracing)

STATS OPTIONS:
  --metrics FILE   print a pim-obsv metrics snapshot (from assemble
                   --metrics-out) instead of contig stats

SIMULATE OPTIONS:
  --coverage X     mean coverage (default 25)
  --seed N         RNG seed (default 42)
  --output PATH    write reads FASTA (default reads.fasta)

MAP OPTIONS:
  --genome-len N   synthetic reference length (default 300)
  --read-len N     simulated read length (default 32; 16..=128, the
                   seed length to half a row)
  --coverage X     read coverage depth (default 4)
  --error-rate X   per-base substitution error rate (default 0.02;
                   errors route survivors through the DP refiner)
  --seed N         RNG seed for the genome + read simulation (default 42)
  --subarrays N    sub-arrays the seed index spreads over (default
                   max(4, windows / a quarter of a sub-array's k-mer
                   rows), rounded up: 13 for 3 kbp with 64 bp reads)
  --backend NAME   lowering backend for the mapping kernels:
                   pim-assembler (default), ambit-tra, panda-mram
  --workers N      worker threads for the dispatcher (default 1;
                   results are identical for any value)
  --faults X       sense-amp flip rate to inject (default none)

VERIFY OPTIONS:
  --stage NAME     verify one workload: `mapping` runs the read-mapping
                   differential + fault suite; `resume` pins streamed /
                   checkpointed / resumed byte-identity at 1 and 8
                   workers
  --backend NAME   run the cross-backend differential suite instead:
                   pim-assembler, ambit-tra, panda-mram, or `all` to
                   compare every backend's command mix in one run
                   (with --stage mapping: which backends to verify,
                   default all)
  --k N            k-mer length driven through the stages (default 9;
                   13 with --stage resume)
  --min-count N    graph-stage k-mer count threshold (default 1)
  --genome-len N   synthetic genome length per scenario (default 400;
                   300 with --backend, 240 with --stage mapping)
  --read-len N     with --stage mapping: simulated read length (default
                   24; 2..=min(--genome-len, 128))
  --coverage X     with --stage mapping: read coverage depth (default 3)
  --error-rate X   with --stage mapping: per-base substitution error
                   rate (default 0.03)
  --seed N         base RNG seed (default 42)
  --faults LIST    comma-separated sense-amp flip rates to campaign over
                   (default 1e-4; 1e-3 with --stage mapping; pass `none`
                   to skip fault injection)

IR OPTIONS:
  --kernel NAME    canonical kernel to dump (xnor, full-adder, popcount,
                   min-select, dp-cell)
  --backend NAME   lowering backend: pim-assembler (default), ambit-tra,
                   panda-mram
  --cols N         row width in bits to lower for (default 256)
  --slots N        compute rows available to the allocator (default 8;
                   shrink to watch spill-to-copy engage)
";

type CliResult = Result<(), Box<dyn Error>>;

/// One subcommand's command line: how many positional arguments it
/// takes, the options (taking a value) and the switches it accepts;
/// `--help` is accepted everywhere.
struct CommandSpec {
    name: &'static str,
    positionals: usize,
    options: &'static [&'static str],
    switches: &'static [&'static str],
}

/// Every subcommand. Every option is documented in [`USAGE`], and any
/// other `--name`, a value option without its value, or a positional past
/// the command's count is an error naming it.
const COMMANDS: [CommandSpec; 9] = [
    CommandSpec {
        name: "assemble",
        positionals: 1,
        options: &[
            "k",
            "min-count",
            "simplify",
            "pd",
            "subarrays",
            "workers",
            "chunk-reads",
            "checkpoint-dir",
            "resume",
            "output",
            "metrics-out",
            "trace-out",
        ],
        switches: &["correct", "force", "report"],
    },
    CommandSpec {
        name: "simulate",
        positionals: 1,
        options: &["coverage", "seed", "output"],
        switches: &[],
    },
    CommandSpec { name: "stats", positionals: 1, options: &["metrics"], switches: &[] },
    CommandSpec { name: "throughput", positionals: 0, options: &[], switches: &[] },
    CommandSpec {
        name: "map",
        positionals: 0,
        options: &[
            "genome-len",
            "read-len",
            "coverage",
            "error-rate",
            "seed",
            "subarrays",
            "backend",
            "workers",
            "faults",
        ],
        switches: &[],
    },
    CommandSpec {
        name: "verify",
        positionals: 0,
        options: &[
            "stage",
            "backend",
            "k",
            "min-count",
            "genome-len",
            "read-len",
            "coverage",
            "error-rate",
            "seed",
            "faults",
        ],
        switches: &[],
    },
    CommandSpec {
        name: "ir",
        positionals: 0,
        options: &["kernel", "backend", "cols", "slots"],
        switches: &[],
    },
    CommandSpec { name: "help", positionals: 0, options: &[], switches: &[] },
    CommandSpec { name: "", positionals: 0, options: &[], switches: &[] },
];

/// The spec of subcommand `name`, if it is one.
fn spec(name: &str) -> Option<&'static CommandSpec> {
    COMMANDS.iter().find(|c| c.name == name)
}

/// Whether `name` is a subcommand (`""`, no command, prints the help).
pub fn is_command(name: &str) -> bool {
    spec(name).is_some()
}

/// Runs the parsed command line: checks it against the command's
/// [`CommandSpec`], then prints [`USAGE`] for `help`, no command or
/// `--help`, and otherwise runs the command.
///
/// # Errors
///
/// An unknown command or option, a value option without its value, an
/// extra positional argument, and whatever the command returns.
pub fn run(args: &ParsedArgs) -> CliResult {
    let spec = spec(&args.command).ok_or_else(|| format!("unknown command {:?}", args.command))?;
    let switches: Vec<&str> = spec.switches.iter().copied().chain(["help"]).collect();
    args.check_known(spec.positionals, spec.options, &switches)?;
    let command = if args.has_flag("help") { "help" } else { args.command.as_str() };
    match command {
        "assemble" => assemble(args),
        "stats" => stats(args),
        "simulate" => simulate(args),
        "throughput" => throughput(),
        "map" => map(args),
        "verify" => verify(args),
        "ir" => ir(args),
        _ => {
            print!("{USAGE}");
            Ok(())
        }
    }
}

/// Resolves a `--backend` value, naming the valid set on failure.
fn parse_backend(name: &str) -> Result<pim_assembler::ir::BackendKind, Box<dyn Error>> {
    use pim_assembler::ir::BackendKind;
    BackendKind::parse(name).ok_or_else(|| {
        let known: Vec<&str> = BackendKind::ALL.iter().map(|b| b.name()).collect();
        format!("unknown backend {name:?} (one of: {})", known.join(", ")).into()
    })
}

/// `--k`: a k-mer length the assembly stages support.
fn k_arg(args: &ParsedArgs, default: usize) -> Result<usize, String> {
    let max = pim_genome::kmer::Kmer::MAX_K;
    args.get_num_where("k", default, |k| (2..=max).contains(&k), &format!("in 2..={max}"))
}

/// `--workers`: dispatcher threads, at least 1 (the default: the calling
/// thread alone); the simulated results are identical for any count.
fn workers_arg(args: &ParsedArgs) -> Result<usize, String> {
    args.get_num_where("workers", 1, |w| w >= 1, "at least 1")
}

/// `--coverage`: a positive, finite read depth.
fn coverage_arg(args: &ParsedArgs, default: f64) -> Result<f64, String> {
    args.get_num_where("coverage", default, |c: f64| c > 0.0 && c.is_finite(), "positive")
}

/// `--error-rate`: a per-base substitution probability.
fn error_rate_arg(args: &ParsedArgs, default: f64) -> Result<f64, String> {
    args.get_num_where("error-rate", default, |r| (0.0..1.0).contains(&r), "in [0, 1)")
}

/// `--faults LIST`: comma-separated sense-amp flip rates, each in
/// [0, 1]; `none` is the empty campaign.
fn fault_rates_arg(args: &ParsedArgs, default: &[f64]) -> Result<Vec<f64>, String> {
    match args.get_str("faults") {
        None => Ok(default.to_vec()),
        Some("none") => Ok(Vec::new()),
        Some(list) => list
            .split(',')
            .map(|r| {
                r.trim().parse::<f64>().ok().filter(|r| (0.0..=1.0).contains(r)).ok_or_else(|| {
                    format!("bad fault rate {r:?} (each rate must be a number in [0, 1])")
                })
            })
            .collect(),
    }
}

/// Streams reads from a FASTA/FASTQ file into a running
/// [`pim_assembler::Session`], `chunk` reads at a time, holding at most
/// one chunk in memory.
fn feed_session_from_file(
    session: &mut pim_assembler::Session<'_>,
    path: &Path,
    chunk: usize,
) -> Result<u64, Box<dyn Error>> {
    use pim_genome::fasta::fasta_records;
    use pim_genome::fastq::fastq_records;
    let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
    let file = BufReader::new(File::open(path)?);
    let seqs: Box<dyn Iterator<Item = Result<pim_genome::DnaSequence, Box<dyn Error>>>> = match ext
    {
        "fastq" | "fq" => {
            Box::new(fastq_records(file).map(|r| r.map(|rec| rec.seq).map_err(Into::into)))
        }
        _ => Box::new(fasta_records(file).map(|r| r.map(|rec| rec.seq).map_err(Into::into))),
    };
    let mut buffer: Vec<Read> = Vec::with_capacity(chunk);
    let mut total = 0u64;
    for (id, seq) in seqs.enumerate() {
        buffer.push(Read { id, seq: seq?, origin: 0 });
        total += 1;
        if buffer.len() == chunk {
            session.feed(&buffer)?;
            buffer.clear();
        }
    }
    if !buffer.is_empty() {
        session.feed(&buffer)?;
    }
    Ok(total)
}

/// Default streaming chunk when `--resume`/`--checkpoint-dir` is used
/// without an explicit `--chunk-reads`.
const DEFAULT_CHUNK_READS: usize = 4096;

/// `pim-asm assemble`.
pub fn assemble(args: &ParsedArgs) -> CliResult {
    use pim_assembler::checkpoint::prepare_dir;
    use pim_assembler::Session;
    let input = args.positional.first().ok_or("assemble needs an input reads file")?;
    let k = k_arg(args, 17)?;
    let chunk_reads: Option<usize> =
        args.get_str("chunk-reads").map(|_| args.get_num("chunk-reads", 0)).transpose()?;
    let checkpoint_dir = args.get_str("checkpoint-dir");
    let resume_dir = args.get_str("resume");
    if checkpoint_dir.is_some() && resume_dir.is_some() {
        return Err("--checkpoint-dir and --resume are mutually exclusive".into());
    }
    let streaming = chunk_reads.is_some() || checkpoint_dir.is_some() || resume_dir.is_some();
    if streaming && args.has_flag("correct") {
        return Err(
            "--correct needs the whole read set in memory; drop --chunk-reads/--checkpoint-dir"
                .into(),
        );
    }

    let workers = workers_arg(args)?;
    let metrics_out = args.get_str("metrics-out");
    let trace_out = args.get_str("trace-out");
    let pd = args.get_num_where("pd", 2, |pd| pd >= 1, "at least 1")?;
    let total = PimAssemblerConfig::paper(k).geometry.total_subarrays();
    let subarrays = args.get_num_where(
        "subarrays",
        32,
        |n| (1..=total).contains(&n),
        &format!("in 1..={total}"),
    )?;
    let mut config = PimAssemblerConfig::paper(k)
        .with_min_count(args.get_num("min-count", 1)?)
        .with_pd(pd)
        .with_hash_subarrays(subarrays)
        .with_workers(workers)
        .with_observability(metrics_out.is_some() || trace_out.is_some());
    if let Some(tips) = args.options.get("simplify") {
        config =
            config.with_simplification(tips.parse().map_err(|_| "--simplify expects a number")?);
    }
    let chunk = chunk_reads.unwrap_or(DEFAULT_CHUNK_READS);
    if streaming {
        config = config.with_chunk_reads(chunk)?;
    }

    let mut assembler = PimAssembler::new(config);
    let run = if streaming {
        let mut session = if let Some(dir) = resume_dir {
            Session::resume(&mut assembler, Path::new(dir))?
        } else {
            let dir = checkpoint_dir.map(std::path::PathBuf::from);
            if let Some(d) = &dir {
                prepare_dir(d, args.has_flag("force"))?;
            }
            Session::start(&mut assembler, dir)?
        };
        let total = feed_session_from_file(&mut session, Path::new(input), chunk)?;
        eprintln!("streamed {total} reads from {input} in chunks of {chunk}");
        let run = session.finish()?;
        for violation in &run.chunk_violations {
            eprintln!("warning: chunk AAP bound exceeded: {violation}");
        }
        run
    } else {
        let mut reads = load_reads(Path::new(input))?;
        eprintln!("loaded {} reads from {input}", reads.len());
        if args.has_flag("correct") {
            let stats = ReadCorrector::new(k, 3).correct_reads(&mut reads)?;
            eprintln!(
                "corrected {} bases ({} uncorrectable)",
                stats.corrected, stats.uncorrectable
            );
        }
        assembler.assemble(&reads)?
    };
    println!("assembly: {}", run.assembly.stats);
    println!(
        "graph: {} nodes, {} edges, {} trails",
        run.assembly.graph_nodes, run.assembly.graph_edges, run.assembly.trails
    );

    if args.has_flag("report") {
        let r = &run.report;
        println!("\nhardware report (Pd = {}, {:.0} chains):", r.pd, r.parallel_chains);
        println!("  commands: {}", r.commands);
        if let Some(par) = r.measured_parallelism {
            println!("  schedule-measured sub-array parallelism: {par:.1}");
        }
        println!(
            "  wall: hashmap {:.3} s | deBruijn {:.3} s | traverse {:.3} s",
            r.hashmap.wall_s, r.debruijn.wall_s, r.traverse.wall_s
        );
        println!(
            "  power {:.1} W | energy {:.3} mJ | MBR {:.1}% | RUR {:.1}%",
            r.power_w,
            r.commands.total_energy_fj() as f64 * 1e-12,
            r.mbr_percent,
            r.rur_percent
        );
        let chr14 = r.extrapolate_chr14();
        println!("  chr14-scale extrapolation: {:.1} s @ {:.1} W", chr14.total_s(), chr14.power_w);
    }

    if let Some(path) = metrics_out {
        let snap = run.report.metrics.as_ref().ok_or("metrics snapshot missing from report")?;
        std::fs::write(path, snap.to_json())?;
        eprintln!("wrote metrics snapshot ({} counters) to {path}", snap.counters.len());
    }
    if let Some(path) = trace_out {
        let spans = assembler.span_recorder().ok_or("span recorder missing")?;
        std::fs::write(path, spans.to_chrome_json())?;
        eprintln!("wrote {} trace spans to {path} (open in chrome://tracing)", spans.len());
    }

    if let Some(out) = args.get_str("output") {
        let records: Vec<FastaRecord> = run
            .assembly
            .contigs
            .iter()
            .enumerate()
            .map(|(i, c)| FastaRecord {
                name: format!("contig_{i} len={}", c.len()),
                seq: c.sequence().clone(),
            })
            .collect();
        write_fasta(File::create(out)?, &records)?;
        eprintln!("wrote {} contigs to {out}", records.len());
    }
    Ok(())
}

/// `pim-asm simulate`.
pub fn simulate(args: &ParsedArgs) -> CliResult {
    let input = args.positional.first().ok_or("simulate needs a genome FASTA")?;
    let records = read_fasta(BufReader::new(File::open(input)?))?;
    let genome = &records.first().ok_or("empty FASTA")?.seq;
    if genome.len() < 101 {
        return Err(
            format!("genome of {} bp is shorter than the 101 bp reads", genome.len()).into()
        );
    }
    let coverage = coverage_arg(args, 25.0)?;
    let seed: u64 = args.get_num("seed", 42)?;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let reads = ReadSimulator::new(101, coverage).simulate(genome, &mut rng);
    let out = args.get_str("output").unwrap_or("reads.fasta");
    let records: Vec<FastaRecord> = reads
        .iter()
        .map(|r| FastaRecord { name: format!("read_{}", r.id), seq: r.seq.clone() })
        .collect();
    write_fasta(File::create(out)?, &records)?;
    println!("sampled {} x 101 bp reads at {coverage}x into {out}", reads.len());
    Ok(())
}

/// `pim-asm stats`.
pub fn stats(args: &ParsedArgs) -> CliResult {
    use pim_genome::contig::Contig;
    use pim_genome::stats::{lx, nx, AssemblyStats};
    if let Some(path) = args.get_str("metrics") {
        return metrics_stats(path);
    }
    let input = args.positional.first().ok_or("stats needs a contigs FASTA")?;
    let records = read_fasta(BufReader::new(File::open(input)?))?;
    let contigs: Vec<Contig> = records.iter().map(|r| Contig::new(r.seq.clone())).collect();
    let s = AssemblyStats::from_contigs(&contigs);
    println!("{s}");
    println!("N90 = {} bp | L50 = {} contigs", nx(&contigs, 90.0), lx(&contigs, 50.0));
    let mut lengths: Vec<(usize, &str)> =
        records.iter().map(|r| (r.seq.len(), r.name.as_str())).collect();
    lengths.sort_unstable_by_key(|&(len, _)| std::cmp::Reverse(len));
    for (len, name) in lengths.iter().take(10) {
        println!("{len:>10} bp  {name}");
    }
    if lengths.len() > 10 {
        println!("… and {} more", lengths.len() - 10);
    }
    Ok(())
}

/// `pim-asm stats --metrics`: renders a pim-obsv snapshot as tables.
fn metrics_stats(path: &str) -> CliResult {
    use pim_obsv::MetricsSnapshot;
    let text = std::fs::read_to_string(path)?;
    let snap = MetricsSnapshot::parse(&text)
        .ok_or_else(|| format!("{path} is not a pim-obsv metrics snapshot"))?;

    let mut detail = 0usize;
    println!("stage/aggregate counters:");
    for (key, value) in &snap.counters {
        // Per-sub-array detail keys ("<stage>.subNNNNN.<metric>") are
        // summarized, not listed — 32k sub-arrays would swamp the table.
        if key.contains(".sub") {
            detail += 1;
            continue;
        }
        println!("  {key:<44} {value:>16}");
    }
    if detail > 0 {
        println!("  … plus {detail} per-sub-array detail counters");
    }
    if !snap.floats.is_empty() {
        println!("derived:");
        for (key, value) in &snap.floats {
            println!("  {key:<44} {value:>16.3}");
        }
    }
    if !snap.host.is_empty() {
        println!("host-side (timing-dependent, excluded from determinism):");
        for (key, value) in &snap.host {
            println!("  {key:<44} {value:>16}");
        }
    }
    Ok(())
}

/// `pim-asm map`: the second workload — stream simulated reads against a
/// synthetic reference, mapping each through the seed-filter + DP funnel
/// on the array, and compare against the software oracle.
pub fn map(args: &ParsedArgs) -> CliResult {
    use pim_assembler::mapping_stage::{run_mapping, seed_index_subarrays, MappingRunConfig};
    let defaults = MappingRunConfig::default();
    let geometry = DramGeometry::paper_assembly();
    let (min, max) = (defaults.mapping.seed_len, geometry.cols / 2);
    let read_len = args.get_num_where(
        "read-len",
        defaults.read_len,
        |n| (min..=max).contains(&n),
        &format!("in {min}..={max} (the seed length to half a row)"),
    )?;
    let genome_len = args.get_num_where(
        "genome-len",
        defaults.genome_len,
        |n| n >= read_len,
        &format!("at least --read-len ({read_len})"),
    )?;
    let config = MappingRunConfig {
        genome_len,
        read_len,
        coverage: coverage_arg(args, 4.0)?,
        error_rate: error_rate_arg(args, 0.02)?,
        seed: args.get_num("seed", defaults.seed)?,
        subarrays: args.get_num_where(
            "subarrays",
            seed_index_subarrays(&geometry, genome_len, read_len),
            |n| (1..=geometry.total_subarrays()).contains(&n),
            &format!("in 1..={}", geometry.total_subarrays()),
        )?,
        backend: match args.get_str("backend") {
            Some(name) => parse_backend(name)?,
            None => defaults.backend,
        },
        workers: workers_arg(args)?,
        fault_rate: args.get_num_where("faults", 0.0, |r| (0.0..=1.0).contains(&r), "in [0, 1]")?,
        ..defaults
    };
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let genome = pim_genome::sequence::DnaSequence::random(&mut rng, config.genome_len);
    let reads = ReadSimulator::new(config.read_len, config.coverage)
        .with_error_rate(config.error_rate)
        .simulate(&genome, &mut rng);
    let report = run_mapping(&config, &genome, &reads)?;

    let s = report.stats;
    println!(
        "mapped {}/{} reads against a {} bp reference on {}",
        s.mapped, report.reads, config.genome_len, config.backend
    );
    let dp = config.mapping.dp_width(config.read_len);
    println!(
        "  seed index: {} sub-arrays; DP values: {} bits (INF {})",
        config.subarrays,
        dp.bits(),
        dp.inf()
    );
    println!(
        "  funnel: {} seeded, {} candidates, {} survivors, {} DP cells",
        s.seeded, s.candidates, s.survivors, s.dp_cells
    );
    println!(
        "  software oracle agreement: {}  shadow mismatches: {}  fault flips: {}",
        report.agreement, s.shadow_mismatches, report.fault_flips
    );
    if let Some(metrics) = &report.metrics {
        for key in ["mapping.map_seed_probes", "mapping.map_match_planes", "mapping.aap2"] {
            println!("  {key} = {}", metrics.counter(key));
        }
        println!(
            "  device: {} commands, {:.4} ms serial ledger time, {:.2} uJ",
            metrics.counter("total.commands"),
            metrics.counter("total.time_ps") as f64 * 1e-9,
            metrics.counter("total.energy_fj") as f64 * 1e-9
        );
    }
    if report.agreement || config.fault_rate > 0.0 {
        Ok(())
    } else {
        Err("PIM mapping diverged from the software oracle on a healthy array".into())
    }
}

/// `--genome-len` of the verification suites: long enough for their
/// simulated reads.
fn genome_len_arg(args: &ParsedArgs, default: usize) -> Result<usize, String> {
    let min = pim_verify::genomes::READ_LEN;
    args.get_num_where(
        "genome-len",
        default,
        |n| n >= min,
        &format!("at least {min} (the read length)"),
    )
}

/// `pim-asm verify`.
pub fn verify(args: &ParsedArgs) -> CliResult {
    use pim_verify::{standard_suite, SuiteOptions};
    match args.get_str("stage") {
        Some("mapping") => return verify_mapping(args),
        Some("resume") => return verify_resume(args),
        Some(other) => {
            return Err(format!("unknown --stage {other:?} (one of: mapping, resume)").into())
        }
        None => {}
    }
    if args.get_str("backend").is_some() {
        return verify_backends(args);
    }
    let defaults = SuiteOptions::default();
    let options = SuiteOptions {
        genome_len: genome_len_arg(args, defaults.genome_len)?,
        k: k_arg(args, defaults.k)?,
        min_count: args.get_num("min-count", defaults.min_count)?,
        seed: args.get_num("seed", defaults.seed)?,
        fault_rates: fault_rates_arg(args, &defaults.fault_rates)?,
    };
    let report = standard_suite(&options);
    println!("{report}");
    if report.passed() {
        Ok(())
    } else {
        Err("verification failed".into())
    }
}

/// `pim-asm verify --stage mapping`: the read-mapping workload's
/// differential + fault suite — hits and scores must equal the software
/// oracle byte for byte on every requested backend, serial must equal
/// parallel, and injected faults must raise detection counters.
fn verify_mapping(args: &ParsedArgs) -> CliResult {
    use pim_verify::MappingSuiteOptions;
    let defaults = MappingSuiteOptions::default();
    let backends = match args.get_str("backend") {
        None | Some("all") => pim_assembler::ir::BackendKind::ALL.to_vec(),
        Some(name) => vec![parse_backend(name)?],
    };
    let genome_len = genome_len_arg(args, defaults.genome_len)?;
    // The suite seeds with half the read (at most 16 bp), so a read needs
    // 2 bp; it must also fit the reference and half a row.
    let max = genome_len.min(DramGeometry::paper_assembly().cols / 2);
    let options = MappingSuiteOptions {
        genome_len,
        read_len: args.get_num_where(
            "read-len",
            defaults.read_len,
            |n| (2..=max).contains(&n),
            &format!("in 2..={max} (up to the smaller of --genome-len and half a row)"),
        )?,
        coverage: coverage_arg(args, defaults.coverage)?,
        error_rate: error_rate_arg(args, defaults.error_rate)?,
        seed: args.get_num("seed", defaults.seed)?,
        backends,
        fault_rates: fault_rates_arg(args, &defaults.fault_rates)?,
    };
    let report = pim_verify::mapping_suite(&options);
    println!("{report}");
    if report.passed() {
        Ok(())
    } else {
        Err("mapping verification failed".into())
    }
}

/// `pim-asm verify --stage resume`: the staged-execution identity suite —
/// streamed, checkpointed, killed, and resumed runs must be byte-identical
/// to the one-shot pipeline at every worker count.
fn verify_resume(args: &ParsedArgs) -> CliResult {
    use pim_verify::{resume_suite, ResumeSuiteOptions, VerifyReport};
    let defaults = ResumeSuiteOptions::default();
    let options = ResumeSuiteOptions {
        genome_len: genome_len_arg(args, defaults.genome_len)?,
        k: k_arg(args, defaults.k)?,
        seed: args.get_num("seed", defaults.seed)?,
        ..defaults
    };
    let report = VerifyReport { oracles: resume_suite(&options), ..VerifyReport::default() };
    println!("{report}");
    if report.passed() {
        Ok(())
    } else {
        Err("resume verification failed".into())
    }
}

/// `pim-asm verify --backend`: the cross-backend differential suite —
/// stage kernels retargeted to a lowering backend must reproduce the
/// software oracle bit for bit.
fn verify_backends(args: &ParsedArgs) -> CliResult {
    use pim_verify::{backend_suite, single_backend_suite, BackendSuiteOptions};
    let name = args.get_str("backend").expect("caller checked --backend");
    let defaults = BackendSuiteOptions::default();
    let options = BackendSuiteOptions {
        genome_len: genome_len_arg(args, defaults.genome_len)?,
        k: k_arg(args, defaults.k)?,
        min_count: args.get_num("min-count", defaults.min_count)?,
        seed: args.get_num("seed", defaults.seed)?,
    };
    let report = match name {
        "all" => backend_suite(&options),
        _ => single_backend_suite(&options, parse_backend(name)?),
    };
    println!("{report}");
    if report.passed() {
        Ok(())
    } else {
        Err("backend verification failed".into())
    }
}

/// `pim-asm ir`: dump a kernel's IR before and after lowering.
pub fn ir(args: &ParsedArgs) -> CliResult {
    use pim_assembler::ir::{compile_backend, kernels, BackendKind, LowerOptions};
    let known = kernels::KERNEL_NAMES.join(", ");
    let name = args.get_str("kernel").ok_or(format!("ir needs --kernel NAME (one of: {known})"))?;
    let program =
        kernels::by_name(name).ok_or(format!("unknown kernel {name:?} (one of: {known})"))?;
    let backend = match args.get_str("backend") {
        Some(b) => parse_backend(b)?,
        None => BackendKind::PimAssembler,
    };
    let cols: usize = args.get_num("cols", 256)?;
    let slots: usize = args.get_num("slots", pim_dram::geometry::COMPUTE_ROWS)?;
    if cols == 0 || slots == 0 {
        return Err("--cols and --slots must be at least 1".into());
    }

    println!("── pre-lowering IR ──────────────────────────────────────────");
    print!("{}", program.to_text());
    println!();
    println!("── lowering for backend={backend}, cols={cols}, compute slots={slots} ──");
    let options = LowerOptions { row_bits: cols, size: cols, compute_slots: slots };
    let kernel = compile_backend(&program, &options, backend)
        .map_err(|e| format!("lowering failed: {e}"))?;
    print!("{}", kernel.to_text());
    Ok(())
}

/// `pim-asm throughput`.
pub fn throughput() -> CliResult {
    let report = ThroughputReport::paper_sweep();
    println!("bulk-op throughput (output bits/s), vectors of 2^27..2^29 bits:");
    println!("{:<8} {:>14} {:>14}", "platform", "XNOR2", "addition");
    for name in ["CPU", "GPU", "HMC", "Ambit", "D1", "D3", "P-A"] {
        let p = report
            .points
            .iter()
            .find(|p| p.platform == name && p.bits == PAPER_VECTOR_BITS[0])
            .expect("platform present");
        println!(
            "{:<8} {:>11.1} Gb/s {:>11.1} Gb/s",
            name,
            p.xnor_bits_per_s / 1e9,
            p.add_bits_per_s / 1e9
        );
    }
    Ok(())
}

/// Loads reads from FASTA or FASTQ by extension.
fn load_reads(path: &Path) -> Result<Vec<Read>, Box<dyn Error>> {
    let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
    let file = BufReader::new(File::open(path)?);
    let seqs: Vec<pim_genome::DnaSequence> = match ext {
        "fastq" | "fq" => read_fastq(file)?.into_iter().map(|r| r.seq).collect(),
        _ => read_fasta(file)?.into_iter().map(|r| r.seq).collect(),
    };
    Ok(seqs.into_iter().enumerate().map(|(id, seq)| Read { id, seq, origin: 0 }).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_genome::sequence::DnaSequence;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("pim_asm_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn end_to_end_simulate_then_assemble() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let genome = DnaSequence::random(&mut rng, 3000);
        let genome_path = tmp("genome.fasta");
        write_fasta(
            File::create(&genome_path).unwrap(),
            &[FastaRecord { name: "g".into(), seq: genome.clone() }],
        )
        .unwrap();

        let reads_path = tmp("reads.fasta");
        let sim_args = ParsedArgs::parse([
            "simulate".to_string(),
            genome_path.to_str().unwrap().to_string(),
            "--coverage".into(),
            "20".into(),
            "--output".into(),
            reads_path.to_str().unwrap().to_string(),
        ]);
        simulate(&sim_args).unwrap();

        let contigs_path = tmp("contigs.fasta");
        let asm_args = ParsedArgs::parse([
            "assemble".to_string(),
            reads_path.to_str().unwrap().to_string(),
            "--k".into(),
            "17".into(),
            "--output".into(),
            contigs_path.to_str().unwrap().to_string(),
            "--report".into(),
        ]);
        assemble(&asm_args).unwrap();

        let contigs = read_fasta(BufReader::new(File::open(&contigs_path).unwrap())).unwrap();
        assert!(!contigs.is_empty());
        let total: usize = contigs.iter().map(|r| r.seq.len()).sum();
        assert!(total >= 2900, "assembled only {total} bp");
    }

    #[test]
    fn stats_reports_on_a_contig_set() {
        let path = tmp("stats.fasta");
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let records = vec![
            FastaRecord { name: "c0".into(), seq: DnaSequence::random(&mut rng, 500) },
            FastaRecord { name: "c1".into(), seq: DnaSequence::random(&mut rng, 120) },
        ];
        write_fasta(File::create(&path).unwrap(), &records).unwrap();
        let args = ParsedArgs::parse(["stats".to_string(), path.to_str().unwrap().to_string()]);
        stats(&args).unwrap();
    }

    #[test]
    fn fastq_reads_load() {
        let path = tmp("reads.fastq");
        std::fs::write(&path, "@r1\nACGTACGTACGTACGTACGT\n+\nIIIIIIIIIIIIIIIIIIII\n").unwrap();
        let reads = load_reads(&path).unwrap();
        assert_eq!(reads.len(), 1);
        assert_eq!(reads[0].seq.len(), 20);
    }

    #[test]
    fn throughput_runs() {
        throughput().unwrap();
    }

    #[test]
    fn verify_suite_runs_and_passes() {
        let args = ParsedArgs::parse(
            ["verify", "--genome-len", "300", "--faults", "1e-3"].map(String::from),
        );
        verify(&args).unwrap();
    }

    #[test]
    fn verify_rejects_bad_fault_rates() {
        let args = ParsedArgs::parse(["verify", "--faults", "lots"].map(String::from));
        assert!(verify(&args).is_err());
    }

    #[test]
    fn verify_can_skip_fault_injection() {
        let args = ParsedArgs::parse(
            ["verify", "--genome-len", "300", "--faults", "none"].map(String::from),
        );
        verify(&args).unwrap();
    }

    #[test]
    fn missing_input_is_an_error() {
        let args = ParsedArgs::parse(["assemble".to_string()]);
        assert!(assemble(&args).is_err());
    }

    #[test]
    fn ir_dumps_every_canonical_kernel() {
        for name in pim_assembler::ir::kernels::KERNEL_NAMES {
            let args = ParsedArgs::parse(["ir", "--kernel", name].map(String::from));
            ir(&args).unwrap();
        }
    }

    #[test]
    fn ir_supports_shrunken_slot_counts() {
        // full-adder at 2 slots needs its TRA triple resident at once.
        let args =
            ParsedArgs::parse(["ir", "--kernel", "full-adder", "--slots", "2"].map(String::from));
        let err = ir(&args).unwrap_err();
        assert!(err.to_string().contains("lowering failed"), "{err}");
        // 3 slots is the minimum for the adder — spill-to-copy engages.
        let args =
            ParsedArgs::parse(["ir", "--kernel", "full-adder", "--slots", "3"].map(String::from));
        ir(&args).unwrap();
    }

    #[test]
    fn ir_lowers_every_kernel_on_every_backend_and_alias() {
        for backend in ["pim-assembler", "pa", "pim", "ambit-tra", "ambit", "panda-mram", "mram"] {
            for name in pim_assembler::ir::kernels::KERNEL_NAMES {
                let args = ParsedArgs::parse(
                    ["ir", "--kernel", name, "--backend", backend].map(String::from),
                );
                ir(&args).unwrap();
            }
        }
    }

    #[test]
    fn ir_rejects_unknown_backends_with_the_valid_set() {
        let args =
            ParsedArgs::parse(["ir", "--kernel", "xnor", "--backend", "hbm"].map(String::from));
        let err = ir(&args).unwrap_err().to_string();
        assert!(err.contains("unknown backend \"hbm\""), "{err}");
        for name in ["pim-assembler", "ambit-tra", "panda-mram"] {
            assert!(err.contains(name), "error must list {name}: {err}");
        }
    }

    #[test]
    fn usage_lists_the_backends() {
        for name in ["pim-assembler", "ambit-tra", "panda-mram"] {
            assert!(USAGE.contains(name), "--help must list {name}");
        }
    }

    #[test]
    fn verify_backend_runs_single_and_all_modes() {
        for backend in ["ambit", "mram", "all"] {
            let args = ParsedArgs::parse(
                ["verify", "--backend", backend, "--genome-len", "200"].map(String::from),
            );
            verify(&args).unwrap();
        }
        let args = ParsedArgs::parse(["verify", "--backend", "hmc"].map(String::from));
        let err = verify(&args).unwrap_err().to_string();
        assert!(err.contains("unknown backend"), "{err}");
    }

    #[test]
    fn ir_rejects_unknown_kernels_and_missing_names() {
        let err = ir(&ParsedArgs::parse(["ir"].map(String::from))).unwrap_err();
        assert!(err.to_string().contains("--kernel"), "{err}");
        assert!(err.to_string().contains("xnor"), "{err}");
        let err = ir(&ParsedArgs::parse(["ir", "--kernel", "nope"].map(String::from))).unwrap_err();
        assert!(err.to_string().contains("unknown kernel"), "{err}");
    }

    #[test]
    fn assemble_emits_metrics_and_trace_artifacts() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let genome = DnaSequence::random(&mut rng, 1200);
        let reads = pim_genome::reads::ReadSimulator::new(60, 20.0).simulate(&genome, &mut rng);
        let reads_path = tmp("obsv_reads.fasta");
        let records: Vec<FastaRecord> = reads
            .iter()
            .map(|r| FastaRecord { name: format!("read_{}", r.id), seq: r.seq.clone() })
            .collect();
        write_fasta(File::create(&reads_path).unwrap(), &records).unwrap();

        let metrics_path = tmp("obsv_metrics.json");
        let trace_path = tmp("obsv_trace.json");
        let args = ParsedArgs::parse([
            "assemble".to_string(),
            reads_path.to_str().unwrap().to_string(),
            "--k".into(),
            "15".into(),
            "--subarrays".into(),
            "8".into(),
            "--metrics-out".into(),
            metrics_path.to_str().unwrap().to_string(),
            "--trace-out".into(),
            trace_path.to_str().unwrap().to_string(),
        ]);
        assemble(&args).unwrap();

        let snap =
            pim_obsv::MetricsSnapshot::parse(&std::fs::read_to_string(&metrics_path).unwrap())
                .expect("metrics artifact parses");
        assert!(snap.counter("hashmap.aap2") > 0);
        assert!(snap.counter("total.commands") > 0);
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("stage.hashmap"));

        // And the stats subcommand renders the snapshot.
        let stats_args = ParsedArgs::parse([
            "stats".to_string(),
            "--metrics".into(),
            metrics_path.to_str().unwrap().to_string(),
        ]);
        stats(&stats_args).unwrap();
    }

    #[test]
    fn streamed_assemble_matches_the_batch_run() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let genome = DnaSequence::random(&mut rng, 1500);
        let reads = pim_genome::reads::ReadSimulator::new(60, 20.0).simulate(&genome, &mut rng);
        let reads_path = tmp("stream_reads.fasta");
        let records: Vec<FastaRecord> = reads
            .iter()
            .map(|r| FastaRecord { name: format!("read_{}", r.id), seq: r.seq.clone() })
            .collect();
        write_fasta(File::create(&reads_path).unwrap(), &records).unwrap();

        let batch_out = tmp("stream_batch.fasta");
        assemble(&ParsedArgs::parse([
            "assemble".to_string(),
            reads_path.to_str().unwrap().to_string(),
            "--k".into(),
            "15".into(),
            "--subarrays".into(),
            "8".into(),
            "--output".into(),
            batch_out.to_str().unwrap().to_string(),
        ]))
        .unwrap();

        let streamed_out = tmp("stream_chunked.fasta");
        assemble(&ParsedArgs::parse([
            "assemble".to_string(),
            reads_path.to_str().unwrap().to_string(),
            "--k".into(),
            "15".into(),
            "--subarrays".into(),
            "8".into(),
            "--chunk-reads".into(),
            "17".into(),
            "--output".into(),
            streamed_out.to_str().unwrap().to_string(),
        ]))
        .unwrap();

        assert_eq!(
            std::fs::read_to_string(&batch_out).unwrap(),
            std::fs::read_to_string(&streamed_out).unwrap(),
            "streamed ingestion must produce byte-identical contigs"
        );
    }

    #[test]
    fn checkpointed_assemble_resumes_after_a_kill() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let genome = DnaSequence::random(&mut rng, 1500);
        let reads = pim_genome::reads::ReadSimulator::new(60, 20.0).simulate(&genome, &mut rng);
        let reads_path = tmp("ckpt_reads.fasta");
        let records: Vec<FastaRecord> = reads
            .iter()
            .map(|r| FastaRecord { name: format!("read_{}", r.id), seq: r.seq.clone() })
            .collect();
        write_fasta(File::create(&reads_path).unwrap(), &records).unwrap();

        let batch_out = tmp("ckpt_batch.fasta");
        assemble(&ParsedArgs::parse([
            "assemble".to_string(),
            reads_path.to_str().unwrap().to_string(),
            "--k".into(),
            "15".into(),
            "--subarrays".into(),
            "8".into(),
            "--output".into(),
            batch_out.to_str().unwrap().to_string(),
        ]))
        .unwrap();

        // "Kill" an in-flight checkpointed run by feeding only a prefix.
        let ckpt_dir = tmp("ckpt_dir");
        let _ = std::fs::remove_dir_all(&ckpt_dir);
        {
            use pim_assembler::checkpoint::prepare_dir;
            use pim_assembler::Session;
            prepare_dir(&ckpt_dir, false).unwrap();
            let config =
                PimAssemblerConfig::paper(15).with_hash_subarrays(8).with_chunk_reads(17).unwrap();
            let mut asm = PimAssembler::new(config);
            let mut session = Session::start(&mut asm, Some(ckpt_dir.clone())).unwrap();
            let cli_reads = load_reads(&reads_path).unwrap();
            for chunk in cli_reads[..34].chunks(17) {
                session.feed(chunk).unwrap();
            }
        }

        // `assemble --resume` finishes the run from disk.
        let resumed_out = tmp("ckpt_resumed.fasta");
        assemble(&ParsedArgs::parse([
            "assemble".to_string(),
            reads_path.to_str().unwrap().to_string(),
            "--k".into(),
            "15".into(),
            "--subarrays".into(),
            "8".into(),
            "--chunk-reads".into(),
            "17".into(),
            "--resume".into(),
            ckpt_dir.to_str().unwrap().to_string(),
            "--output".into(),
            resumed_out.to_str().unwrap().to_string(),
        ]))
        .unwrap();

        assert_eq!(
            std::fs::read_to_string(&batch_out).unwrap(),
            std::fs::read_to_string(&resumed_out).unwrap(),
            "resumed run must produce byte-identical contigs"
        );
        std::fs::remove_dir_all(&ckpt_dir).unwrap();
    }

    #[test]
    fn assemble_rejects_conflicting_checkpoint_flags() {
        let args = ParsedArgs::parse(
            ["assemble", "in.fa", "--checkpoint-dir", "a", "--resume", "b"].map(String::from),
        );
        let err = assemble(&args).unwrap_err();
        assert!(err.to_string().contains("mutually exclusive"), "{err}");
        let args = ParsedArgs::parse(
            ["assemble", "in.fa", "--chunk-reads", "8", "--correct"].map(String::from),
        );
        let err = assemble(&args).unwrap_err();
        assert!(err.to_string().contains("--correct"), "{err}");
    }

    #[test]
    fn verify_stage_resume_runs_and_passes() {
        let args = ParsedArgs::parse(
            ["verify", "--stage", "resume", "--genome-len", "250"].map(String::from),
        );
        verify(&args).unwrap();
    }

    /// Runs `cmd` on `argv`, which must be rejected, and returns the
    /// error message.
    fn rejected(cmd: fn(&ParsedArgs) -> CliResult, argv: &[&str]) -> String {
        let args = ParsedArgs::parse(argv.iter().map(|a| a.to_string()));
        cmd(&args).expect_err("malformed or out-of-range value must be rejected").to_string()
    }

    #[test]
    fn assemble_rejects_a_malformed_k() {
        let err = rejected(assemble, &["assemble", "r.fa", "--k", "banana"]);
        assert_eq!(err, "--k expects a number, got \"banana\"");
    }

    #[test]
    fn assemble_rejects_a_malformed_chunk_size() {
        let err = rejected(assemble, &["assemble", "r.fa", "--chunk-reads", "x"]);
        assert_eq!(err, "--chunk-reads expects a number, got \"x\"");
    }

    #[test]
    fn map_rejects_a_negative_seed() {
        let err = rejected(map, &["map", "--seed", "-1"]);
        assert_eq!(err, "--seed expects a number, got \"-1\"");
    }

    #[test]
    fn assemble_rejects_zero_subarrays() {
        let err = rejected(assemble, &["assemble", "in.fa", "--subarrays", "0"]);
        assert_eq!(err, "--subarrays must be in 1..=32768, got 0");
    }

    #[test]
    fn assemble_rejects_zero_pd() {
        let err = rejected(assemble, &["assemble", "in.fa", "--pd", "0"]);
        assert_eq!(err, "--pd must be at least 1, got 0");
    }

    #[test]
    fn assemble_and_map_reject_zero_workers() {
        let err = rejected(assemble, &["assemble", "in.fa", "--workers", "0"]);
        assert_eq!(err, "--workers must be at least 1, got 0");
        let err = rejected(map, &["map", "--workers", "0"]);
        assert_eq!(err, "--workers must be at least 1, got 0");
    }

    #[test]
    fn map_rejects_fault_rates_above_one() {
        let err = rejected(map, &["map", "--faults", "2"]);
        assert_eq!(err, "--faults must be in [0, 1], got 2");
    }

    #[test]
    fn verify_rejects_fault_rates_above_one() {
        let err = rejected(verify, &["verify", "--faults", "1e-4,2"]);
        assert!(err.contains("bad fault rate \"2\"") && err.contains("[0, 1]"), "{err}");
    }

    #[test]
    fn map_rejects_read_lengths_outside_seed_to_half_a_row() {
        for len in ["0", "10", "129"] {
            let err = rejected(map, &["map", "--read-len", len]);
            assert_eq!(
                err,
                format!(
                    "--read-len must be in 16..=128 (the seed length to half a row), got {len}"
                )
            );
        }
    }

    #[test]
    fn verify_mapping_rejects_read_lengths_before_running() {
        let range = "(up to the smaller of --genome-len and half a row)";
        for (argv, expected) in [
            (&["--read-len", "1"][..], format!("--read-len must be in 2..=128 {range}, got 1")),
            (&["--read-len", "129"], format!("--read-len must be in 2..=128 {range}, got 129")),
            (
                &["--genome-len", "100", "--read-len", "101"],
                format!("--read-len must be in 2..=100 {range}, got 101"),
            ),
        ] {
            let argv: Vec<&str> =
                ["verify", "--stage", "mapping"].iter().chain(argv).copied().collect();
            assert_eq!(rejected(verify, &argv), expected);
        }
    }

    #[test]
    fn map_rejects_zero_coverage() {
        let err = rejected(map, &["map", "--coverage", "0"]);
        assert_eq!(err, "--coverage must be positive, got 0");
    }

    #[test]
    fn map_spreads_a_longer_reference_over_more_subarrays() {
        // Without --subarrays a 3 kbp reference gets a seed index sized
        // from it (13 sub-arrays). Forced onto 4 it overflows their k-mer
        // regions, and the error names the option that maps it.
        let argv = ["map", "--genome-len", "3000", "--read-len", "64", "--coverage", "10"];
        run(&ParsedArgs::parse(argv.map(String::from)))
            .unwrap_or_else(|e| panic!("map without --subarrays: {e}"));
        let four: Vec<&str> = argv.iter().copied().chain(["--subarrays", "4"]).collect();
        let err = rejected(map, &four);
        assert!(err.contains("k-mer region full") && err.contains("--subarrays"), "{err}");
        let err = rejected(map, &["map", "--subarrays", "0"]);
        assert!(err.starts_with("--subarrays must be in 1..="), "{err}");
    }

    #[test]
    fn map_rejects_genomes_shorter_than_a_read() {
        let err = rejected(map, &["map", "--genome-len", "10"]);
        assert_eq!(err, "--genome-len must be at least --read-len (32), got 10");
    }

    #[test]
    fn verify_rejects_genomes_shorter_than_a_read() {
        let err = rejected(verify, &["verify", "--genome-len", "0"]);
        assert_eq!(err, "--genome-len must be at least 50 (the read length), got 0");
    }

    #[test]
    fn verify_rejects_unsupported_k() {
        let err = rejected(verify, &["verify", "--k", "40"]);
        assert_eq!(err, "--k must be in 2..=32, got 40");
    }

    #[test]
    fn every_command_rejects_a_mistyped_option() {
        let ckpt = tmp("typo_ckpt");
        let _ = std::fs::remove_dir_all(&ckpt);
        let ckpt = ckpt.to_str().unwrap();
        for (argv, typo) in [
            (&["assemble", "r.fa", "--checkpoint-dri", ckpt][..], "--checkpoint-dri"),
            (&["assemble", "r.fa", "--seed", "3"], "--seed"),
            (&["simulate", "g.fa", "--coverag", "5"], "--coverag"),
            (&["stats", "c.fa", "--metric", "m.json"], "--metric"),
            (&["throughput", "--verbose"], "--verbose"),
            (&["map", "--genome-length", "300"], "--genome-length"),
            (&["verify", "--stages", "mapping"], "--stages"),
            (&["verify", "--report"], "--report"),
            (&["ir", "--kernal", "xnor"], "--kernal"),
            // Retired with the O2 optimizer: refused by name, its value
            // left a stray positional that is never reached.
            (&["map", "--opt-level", "2"], "--opt-level"),
            (&["verify", "--opt-level", "2"], "--opt-level"),
            (&["ir", "--kernel", "full-adder", "--opt-level", "2"], "--opt-level"),
            (&["help", "--bogus"], "--bogus"),
            (&["--bogus"], "--bogus"),
        ] {
            let args = ParsedArgs::parse(argv.iter().map(|a| a.to_string()));
            let err = run(&args).expect_err("an unknown option must be rejected").to_string();
            assert!(err.starts_with(&format!("unknown option {typo} for ")), "{argv:?}: {err}");
        }
        assert!(!Path::new(ckpt).exists(), "a rejected command must write nothing");
    }

    #[test]
    fn every_command_rejects_a_missing_value_and_a_stray_positional() {
        // Each command's positionals filled, then one more; and each value
        // option given last without its value. Both exit before running.
        let error = |argv: &[String]| {
            let args = ParsedArgs::parse(argv.iter().cloned());
            run(&args).expect_err("the command line must be rejected").to_string()
        };
        for spec in COMMANDS.iter().filter(|spec| !spec.name.is_empty()) {
            let mut argv = vec![spec.name.to_string()];
            argv.extend((0..spec.positionals).map(|i| format!("in{i}.fa")));
            let mut stray = argv.clone();
            stray.push("extra.fa".into());
            let err = error(&stray);
            assert!(
                err.starts_with(&format!("unexpected argument \"extra.fa\" for {}", spec.name)),
                "{stray:?}: {err}"
            );
            for option in spec.options {
                let mut last = argv.clone();
                last.push(format!("--{option}"));
                assert_eq!(error(&last), format!("--{option} needs a value"), "{last:?}");
            }
        }
        // The reproductions: `--k` last no longer assembles at the default
        // k, and a second input file is not ignored.
        let err = error(&["assemble", "r.fa", "--subarrays", "8", "--k"].map(String::from));
        assert_eq!(err, "--k needs a value");
        // A value option followed by another option takes no value from it:
        // `--output --report` no longer writes the contigs to `--report`.
        let err = error(&["assemble", "r.fa", "--output", "--report"].map(String::from));
        assert_eq!(err, "--output needs a value");
        let err = error(&["assemble", "r.fa", "extra.fa"].map(String::from));
        assert_eq!(err, "unexpected argument \"extra.fa\" for assemble (it takes at most 1)");
        let err = error(&["map", "extra.fa"].map(String::from));
        assert_eq!(err, "unexpected argument \"extra.fa\" for map (it takes none)");
    }

    /// The entries of one USAGE options section: `(name, takes a value,
    /// description)`, the description's continuation lines joined.
    fn usage_entries(section: &str) -> Vec<(String, bool, String)> {
        let body = USAGE.split(&format!("{section}:\n")).nth(1).expect("section present");
        let mut entries: Vec<(String, bool, String)> = Vec::new();
        for line in body.lines().take_while(|line| !line.is_empty()) {
            if let Some(entry) = line.strip_prefix("  --") {
                let mut words = entry.split_whitespace();
                let name = words.next().unwrap().to_string();
                let next = words.next().unwrap_or("");
                let takes_value = !next.is_empty() && next.chars().all(|c| c.is_ascii_uppercase());
                entries.push((name, takes_value, entry.to_string()));
            } else {
                let (.., text) = entries.last_mut().expect("continuation follows an entry");
                text.push(' ');
                text.push_str(line.trim());
            }
        }
        entries
    }

    #[test]
    fn every_documented_option_is_accepted() {
        for (section, command) in [
            ("ASSEMBLE OPTIONS", "assemble"),
            ("STATS OPTIONS", "stats"),
            ("SIMULATE OPTIONS", "simulate"),
            ("MAP OPTIONS", "map"),
            ("VERIFY OPTIONS", "verify"),
            ("IR OPTIONS", "ir"),
        ] {
            let entries = usage_entries(section);
            let spec = spec(command).unwrap();
            for (name, takes_value, _) in &entries {
                let mut argv = vec![command.to_string(), format!("--{name}")];
                if *takes_value {
                    argv.push("1".into());
                }
                let args = ParsedArgs::parse(argv);
                let accepted = args.check_known(spec.positionals, spec.options, spec.switches);
                assert_eq!(accepted, Ok(()), "{command} --{name}");
            }
            // And nothing is accepted that the help does not document.
            for name in spec.options.iter().chain(spec.switches) {
                assert!(entries.iter().any(|(n, ..)| n == name), "{command} --{name} undocumented");
            }
        }
        // `--help` prints the usage under any command instead of running it.
        for command in ["assemble", "throughput", "help", ""] {
            let args = ParsedArgs::parse([command, "--help"].map(String::from));
            run(&args).unwrap_or_else(|e| panic!("{command} --help: {e}"));
        }
    }

    #[test]
    fn verify_usage_states_each_modes_defaults() {
        use pim_verify::{BackendSuiteOptions, MappingSuiteOptions, ResumeSuiteOptions};
        let entries = usage_entries("VERIFY OPTIONS");
        let entry = |name: &str| {
            entries.iter().find(|(n, ..)| n == name).map(|(.., text)| text.clone()).unwrap()
        };
        let standard = pim_verify::SuiteOptions::default();
        let backend = BackendSuiteOptions::default();
        let mapping = MappingSuiteOptions::default();
        let resume = ResumeSuiteOptions::default();
        // A mode's default is stated when it differs from the standard
        // suite's.
        let states = |name: &str, value: String, standard: String, mode: &str| {
            let text = entry(name);
            let phrase = format!("{value} with {mode}");
            assert!(
                value == standard || text.contains(&phrase),
                "--{name} must say `{phrase}`: {text}"
            );
        };
        let genome_len = entry("genome-len");
        assert!(genome_len.contains(&format!("(default {};", standard.genome_len)), "{genome_len}");
        let s = standard.genome_len.to_string();
        states("genome-len", backend.genome_len.to_string(), s.clone(), "--backend");
        states("genome-len", mapping.genome_len.to_string(), s.clone(), "--stage mapping");
        states("genome-len", resume.genome_len.to_string(), s, "--stage resume");
        let k = entry("k");
        assert!(k.contains(&format!("(default {};", standard.k)), "{k}");
        states("k", backend.k.to_string(), standard.k.to_string(), "--backend");
        states("k", resume.k.to_string(), standard.k.to_string(), "--stage resume");
        let min_count = entry("min-count");
        assert!(min_count.contains(&format!("(default {})", standard.min_count)), "{min_count}");
        states("min-count", backend.min_count.to_string(), "1".into(), "--backend");
        for (name, value) in [
            ("read-len", mapping.read_len.to_string()),
            ("coverage", mapping.coverage.to_string()),
            ("error-rate", mapping.error_rate.to_string()),
        ] {
            let text = entry(name);
            assert!(text.contains("with --stage mapping"), "{text}");
            assert!(text.contains(&format!("(default {value}")), "--{name}: {text}");
        }
        let rates = |rates: &[f64]| rates.iter().map(|r| format!("{r:e}")).collect::<Vec<_>>();
        let faults = entry("faults");
        assert!(faults.contains(&format!("(default {};", rates(&standard.fault_rates).join(","))));
        let mapping_rates = rates(&mapping.fault_rates).join(",");
        assert!(faults.contains(&format!("{mapping_rates} with --stage mapping")), "{faults}");
        for seed in [backend.seed, mapping.seed, resume.seed] {
            assert_eq!(seed, standard.seed, "--seed states one default for every mode");
        }
    }

    #[test]
    fn stats_rejects_non_snapshot_metrics_files() {
        let path = tmp("not_metrics.json");
        std::fs::write(&path, "{\"schema\": \"something-else\"}").unwrap();
        let args = ParsedArgs::parse([
            "stats".to_string(),
            "--metrics".into(),
            path.to_str().unwrap().to_string(),
        ]);
        let err = stats(&args).unwrap_err();
        assert!(err.to_string().contains("not a pim-obsv metrics snapshot"), "{err}");
    }
}
