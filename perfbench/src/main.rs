//! `halk-perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! halk-perfbench --workload serve-halk|serve-exact|train --seed N --seconds S
//!                --trace 0|1 --halk PATH --config perfbench/config.json
//!                [--workdir .bench_work]
//! ```
//!
//! Usually launched through `perfbench/run.py`, which builds this package
//! and the `halk` binary first. Prints a report on stderr and, as the last
//! line of stdout, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics` (end-to-end metrics with `--trace 0`, per-layer metrics
//! with `--trace 1`). Exits nonzero when any check failed.

mod calib;
mod config;
mod daemon;
mod gen;
mod render;
mod report;
mod serve;
mod stats;
mod tracefile;
mod train;

use config::{Config, Spec};
use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    halk: PathBuf,
    config: PathBuf,
    workdir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut halk, mut config) = (None, None);
    let mut workdir = PathBuf::from(".bench_work");
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => seed = Some(val()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                })
            }
            "--halk" => halk = Some(PathBuf::from(val()?)),
            "--config" => config = Some(PathBuf::from(val()?)),
            "--workdir" => workdir = PathBuf::from(val()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        halk: halk.ok_or("--halk is required")?,
        config: config.ok_or("--config is required")?,
        workdir,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("halk-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = match Config::load(&args.config) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("halk-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = cfg.spec(&args.workload) else {
        eprintln!("halk-perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    // A private scratch directory per run (snapshot, traces, daemon log);
    // results and checksums persist beside it.
    let run_dir = args.workdir.join(format!(
        "run-{}-{}-s{}",
        args.workload,
        std::process::id(),
        args.seed
    ));
    let results_dir = args.workdir.join("results");
    for d in [&run_dir, &results_dir] {
        if let Err(e) = std::fs::create_dir_all(d) {
            eprintln!("halk-perfbench: cannot create {}: {e}", d.display());
            return ExitCode::FAILURE;
        }
    }
    let run_dir = match run_dir.canonicalize() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("halk-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let halk = args.halk.canonicalize().unwrap_or(args.halk.clone());

    let mut report = Report::new();
    let outcome = match (spec, args.trace) {
        (Spec::Serve(s), false) => {
            serve::run(s, &halk, &run_dir, args.seed, args.seconds, &mut report)
        }
        (Spec::Serve(s), true) => {
            serve::run_traced(s, &halk, &run_dir, args.seed, args.seconds, &mut report)
        }
        (Spec::Train(t), false) => train::run(t, &args.workdir, &mut report),
        (Spec::Train(t), true) => train::run_traced(t, &run_dir, &mut report),
    };
    if let Err(e) = outcome {
        report.fail(e);
    }
    let results = results_dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let line = report.finish(&args.workload, args.seed, args.trace, &results);
    let _ = std::fs::remove_dir_all(&run_dir);
    println!("{line}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
