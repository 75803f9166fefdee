//! Command-line entry of the end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path dbtbench/Cargo.toml -- \
//!     --workload spec_cycle --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Diagnostics go to standard error; the last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones (and the spans are written to `--trace-out`).

use smarq_dbtbench::{end_to_end, inputs, parse_workload, report, trace, Outcome, DEFAULT_SEED};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    workload: inputs::Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

const USAGE: &str =
    "usage: smarq-dbtbench --workload <spec_cycle|translate_churn|multiguest_fast> \
                     [--seed N] [--seconds N] [--trace 0|1] [--trace-out PATH]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 40;
    let mut trace = false;
    let mut trace_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v:?}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(parse_workload(&value()?)?),
            "--seed" => seed = number(value()?)?,
            "--seconds" => seconds = number(value()?)?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v:?}: expected 0 or 1")),
                }
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        trace_out,
    })
}

/// Where spans go by default: beside the build output.
fn default_trace_out(args: &Args) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("dbtbench/target"));
    dir.join("traces")
        .join(format!("{}-{}.json", args.workload.name(), args.seed))
}

fn run(args: &Args) -> Result<(), String> {
    let inputs = inputs::generate(args.workload, args.seed)?;
    let seconds = Duration::from_secs(args.seconds);
    let (metrics, outcome) = if args.trace {
        let out = args
            .trace_out
            .clone()
            .unwrap_or_else(|| default_trace_out(args));
        trace::traced(&inputs, seconds, &out)?
    } else {
        end_to_end(&inputs, seconds)?
    };
    report_outcome(&inputs, &outcome);
    for m in &metrics.0 {
        eprintln!("  {:40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        report::result_line(outcome.correct, outcome.attempted, outcome.failed, &metrics)
    );
    Ok(())
}

fn report_outcome(inputs: &inputs::Inputs, outcome: &Outcome) {
    let counts: Vec<String> = outcome
        .counts
        .fields()
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    eprintln!("exact counts per pass: {}", counts.join(" "));
    if let Some(f) = &outcome.first_failure {
        eprintln!(
            "FAILED: {} of {} programs; first failing: workload {} seed {} program {}: {}",
            outcome.failed,
            outcome.attempted,
            inputs.workload.name(),
            inputs.seed,
            f.label,
            f.reason
        );
    }
    for c in &outcome.count_mismatches {
        eprintln!("NONDETERMINISTIC: a pass counted {c:?}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
