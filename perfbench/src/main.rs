//! Command-line entry of the benchmark (normally started by `run.py`):
//!
//! ```text
//! clb-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-file <path>]
//! ```
//!
//! Prints the output digest, any failed check and the host context, then the
//! result line last. With `--trace 1 --trace-file <path>` the traced pass's spans
//! are written to `<path>` as JSON lines.

use clb_perfbench::{run, RunConfig, Workload};
use std::path::PathBuf;

const USAGE: &str = "usage: clb-perfbench --workload <grid_log2|huge_instance|online_churn> \
                     --seed <n> --seconds <s> --trace <0|1> [--trace-file <path>]";

fn parse(args: &[String]) -> Result<(RunConfig, Option<PathBuf>), String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be a whole number"))
    };
    let workload = value("--workload")?;
    let config = RunConfig {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?,
        seed: number("--seed")?,
        seconds: number("--seconds")?,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    };
    let trace_file = value("--trace-file").ok().map(PathBuf::from);
    Ok((config, trace_file))
}

fn main() {
    // The grid's sharded check re-executes this binary as its shard workers.
    clb::shard::maybe_run_worker();
    // Shard workers inherit the environment: one thread each, so the two workers
    // together use two hardware threads. This process's own work runs on an explicit
    // pool of `nproc` threads and ignores this default.
    std::env::set_var("RAYON_NUM_THREADS", "1");

    let args: Vec<String> = std::env::args().skip(1).collect();
    let (config, trace_file) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("clb-perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = run(&config);
    if let (Some(path), Some(lines)) = (&trace_file, &outcome.trace_lines) {
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(path, lines));
        if let Err(e) = written {
            eprintln!("clb-perfbench: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    for line in &outcome.log {
        println!("{line}");
    }
    println!("{}", outcome.result_line());
}
