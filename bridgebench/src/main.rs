//! `bridgebench --workload <wide_copy|txn_mix|sort_merge> [--seed N]
//! [--seconds S] [--trace 0|1]`
//!
//! Prints context lines, then one JSON result object as the last line of
//! standard output. With `--trace 0` the result carries the end-to-end
//! metrics; with `--trace 1`, the per-layer metrics of the traced run.

use bridgebench::report::result_json;
use bridgebench::{run, workload, RunConfig, DEFAULT_SEED, WORKLOADS};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds < 0.0 {
        return Err(format!("bad --seconds {}", args.seconds));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bridgebench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(mut w) = workload(&args.workload, args.seed) else {
        eprintln!(
            "bridgebench: unknown workload {:?} (one of {})",
            args.workload,
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    let cfg = RunConfig {
        seconds: args.seconds,
        trace: args.trace,
        check_profile: false,
    };
    let outcome = run(w.as_mut(), &cfg);
    println!(
        "workload {} seed {} trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    for v in &outcome.violations {
        println!("  ORACLE VIOLATION: {v}");
    }
    let checks = outcome.checks;
    println!(
        "  checked {} operations, {} failed (failed_frac {})",
        checks.attempted,
        checks.failed,
        checks.failed as f64 / checks.attempted.max(1) as f64
    );
    let metrics = if args.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    for m in metrics {
        println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_json(outcome.correct(), checks, metrics));
    ExitCode::SUCCESS
}
