//! Atlas campaign benchmark.
//!
//! ```text
//! perfbench --workload <atlas_r111|atlas_r108_paired|fleet_10k> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! runs the traced run and reports the per-layer metrics. The last line of
//! standard output is the result object; the line before it is the run
//! context. Any output-check failure prints no result and exits nonzero.
//! See `README.md` beside this crate.

mod check;
mod fixture;
mod metrics;
mod runs;
mod stats;
mod sweep;
mod timed;

use fixture::{Size, Workload, DEFAULT_SEED};
use runs::Options;
use telemetry::JsonValue;

fn parse_args() -> Result<(Options, bool), String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} needs {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(seconds > 0.0 && f64::is_finite(seconds)) {
                    return Err(bad("a positive number of seconds"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((
        Options {
            workload,
            seed,
            seconds,
            size: Size::bench(workload),
        },
        trace,
    ))
}

fn main() {
    let (opts, trace) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = if trace {
        runs::traced_run(&opts)
    } else {
        runs::timed_run(&opts)
    };
    let table: &[(&str, &str)] = if trace {
        &metrics::PER_LAYER
    } else {
        &metrics::END_TO_END
    };
    let line = outcome.map_err(|e| e.to_string()).and_then(|mut res| {
        res.note("workload", opts.workload.name());
        res.note("gated", opts.workload.gated());
        res.note("seed", opts.seed);
        res.note("trace", trace);
        res.note("seconds", opts.seconds);
        res.note("cpu_model", stats::cpu_model());
        res.note("nproc", stats::nproc());
        res.note(
            "rayon",
            JsonValue::from("sequential shim: every run is single-threaded"),
        );
        Ok((res.context_line(), res.result_line(table)?))
    });
    match line {
        Ok((context, result)) => {
            println!("context {context}");
            println!("{result}");
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", opts.workload.name());
            std::process::exit(1);
        }
    }
}
