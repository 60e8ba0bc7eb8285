//! Command-line entry of the benchmark:
//!
//! ```text
//! h2pbench --workload <serve-light|serve-overload|serve-chaos|plan-batch>
//!          [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Human-readable notes go to stderr; the last line on stdout is the
//! JSON result. Exits 1 if any output check fails.

use std::process::ExitCode;

use h2pbench::{run, Workload, DEFAULT_SEED};

const USAGE: &str = "usage: h2pbench --workload <serve-light|serve-overload|serve-chaos|plan-batch> [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} expected, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload name"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("h2pbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(args.workload, args.seed, args.seconds, args.trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("h2pbench: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        eprintln!("h2pbench: {}: {note}", args.workload.name());
    }
    for m in &outcome.metrics {
        eprintln!("h2pbench: {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for e in &outcome.errors {
        eprintln!("h2pbench: CHECK FAILED: {e}");
    }
    println!("{}", outcome.to_json());
    if outcome.is_correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
