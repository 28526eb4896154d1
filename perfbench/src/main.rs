//! `perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! [--out DIR]`
//!
//! Runs one workload (or each in its own process, for `all`), prints every
//! metric by name with its unit, and ends with one JSON result line. The
//! results file, and for traced runs the Chrome trace and the program's
//! metrics snapshot, are written to `--out` (default: `out/` beside this
//! crate's manifest).

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use pim_perfbench::report::{listing, result_line, results_json};
use pim_perfbench::run::{run, RunOptions};
use pim_perfbench::workload::{by_name, standard};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <asm-batch|asm-stream|map-dp|all> [--seed N] \
                     [--seconds S] [--trace 0|1] [--out DIR]";

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(workload) = by_name(&args.workload) else {
        eprintln!("perfbench: unknown workload `{}`\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let work_dir = args.out.join(format!("work-{}", std::process::id()));
    let opts = RunOptions { seconds: args.seconds, trace: args.trace, work_dir };
    let result = run(&workload, args.seed, &opts);
    let _ = std::fs::remove_dir_all(&opts.work_dir);

    let stem = format!("{}-seed{}", workload.name, args.seed);
    let mut files =
        vec![(format!("{stem}-trace{}.json", u8::from(args.trace)), results_json(&result))];
    if let Some(trace) = &result.trace_json {
        files.push((format!("{stem}.trace.json"), trace.clone()));
    }
    if let Some(snapshot) = &result.snapshot {
        files.push((format!("{stem}.metrics.json"), snapshot.to_json()));
    }
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: cannot create {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    for (name, body) in &files {
        let path = args.out.join(name);
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("# wrote {}", path.display());
    }
    print!("{}", listing(&result));
    println!("{}", result_line(&result, args.trace));
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in its own process (peak RSS is per process) and
/// passes each one's output through. Fails if any run fails or is
/// incorrect.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in standard() {
        let output = Command::new(&exe)
            .args(["--workload", workload.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&args.out)
            .output();
        match output {
            Ok(o) => {
                let stdout = String::from_utf8_lossy(&o.stdout);
                print!("{stdout}");
                eprint!("{}", String::from_utf8_lossy(&o.stderr));
                let last = stdout.lines().last().unwrap_or("");
                ok &= o.status.success() && last.starts_with("{\"correct\": true");
            }
            Err(e) => {
                eprintln!("perfbench: cannot run {}: {e}", workload.name);
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
