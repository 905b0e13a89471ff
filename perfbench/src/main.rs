//! Command line of the benchmark:
//!
//! ```text
//! tvnep-perfbench --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
//! ```
//!
//! Prints a human-readable report with every metric the run measured, then
//! one JSON line with the operation accounting and the end-to-end
//! (`--trace 0`) or per-layer (`--trace 1`) metrics `BENCHMARK.json` lists.
//! A run that misses one of those metrics fails without a JSON line.

use std::path::PathBuf;
use std::process::ExitCode;

use tvnep_perfbench::{csigma, report::Report, stream};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    workdir: PathBuf,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut workdir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            "--workdir" => workdir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds {seconds}: must be positive"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        workdir: workdir.ok_or("--workdir is required")?,
    })
}

fn run(a: &Args) -> Result<Report, String> {
    let io = |e: std::io::Error| format!("admission stream: {e}");
    match (a.workload.as_str(), a.trace) {
        ("csigma_exact", false) => Ok(csigma::run(a.seed, a.seconds)),
        ("csigma_exact", true) => Ok(csigma::run_traced(a.seed, a.seconds)),
        // The stream is fixed so that its exact counts repeat on every seed.
        ("admission_stream", false) => stream::run(&a.workdir, a.seconds).map_err(io),
        ("admission_stream", true) => stream::run_traced(&a.workdir).map_err(io),
        (other, _) => Err(format!(
            "unknown workload {other} (csigma_exact, admission_stream)"
        )),
    }
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tvnep-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.workdir) {
        eprintln!("tvnep-perfbench: {}: {e}", args.workdir.display());
        return ExitCode::FAILURE;
    }
    match run(&args).and_then(|report| {
        let json = report.json_line(args.trace)?;
        Ok((report, json))
    }) {
        Ok((report, json)) => {
            println!(
                "workload={} seed={} seconds={} trace={} threads=1 clients=1 nproc={}",
                args.workload,
                args.seed,
                args.seconds,
                u8::from(args.trace),
                tvnep_perfbench::host::nproc()
            );
            for line in &report.lines {
                println!("{line}");
            }
            for line in report.metric_lines() {
                println!("{line}");
            }
            println!(
                "operations: attempted={} failed={}",
                report.attempted, report.failed
            );
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("tvnep-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
