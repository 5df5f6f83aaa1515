//! The repo's perf ledger: five closed-loop training workloads on the
//! real engine, end-to-end metrics with regression bounds, every layer
//! timed against the bound it should approach. See `README.md`.
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1   one measured run (the driver's contract)
//! run.sh [--seed N]                                      the whole ledger -> out/results.json
//! run.sh compare A.json B.json                           apply the bounds to two ledgers
//! run.sh manifest                                        render BENCHMARK.json from the metric tables
//! run.sh golden                                          re-record golden/<workload>.losses
//! ```

mod bind;
mod checks;
mod compare;
mod driver;
mod json;
mod ledger;
mod meta;
mod metrics;
mod probes;
mod rig;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        Some(v) => v.parse().map_err(|_| format!("bad value for {name}: {v}")),
        None => Ok(default),
    }
}

fn real_main(args: &[String]) -> Result<i32, String> {
    match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", metrics::manifest());
            return Ok(0);
        }
        Some("compare") => {
            let (a, b) = match (args.get(1), args.get(2)) {
                (Some(a), Some(b)) => (a, b),
                _ => return Err("usage: compare <a.json> <b.json>".into()),
            };
            return compare::run(a.as_ref(), b.as_ref());
        }
        Some("golden") => return ledger::record_golden(),
        _ => {}
    }
    let seed = parse(args, "--seed", checks::DEFAULT_SEED)?;
    let seconds = parse(args, "--seconds", metrics::RUN_SECONDS as f64)?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {seconds}"));
    }
    let Some(name) = flag(args, "--workload") else {
        return ledger::run(seed, seconds);
    };
    let workload = workloads::find(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let trace = match parse(args, "--trace", 0u8)? {
        0 => false,
        1 => true,
        n => return Err(format!("--trace must be 0 or 1, got {n}")),
    };
    if workload.no_kernel_pool {
        // Before the first kernel runs: the global pool is sized once
        // per process, and no other thread exists yet to race the write.
        std::env::set_var("ZI_KERNEL_THREADS", "0");
    }
    Ok(driver::run(&driver::Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args) {
        Ok(code) => ExitCode::from(code as u8),
        Err(e) => {
            eprintln!("zi-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
