//! End-to-end and per-layer benchmark of the dynamic-connectivity stack.
//!
//! ```text
//! perfbench --workload <social-read|road-churn|durable-service> --seed <n>
//!           --seconds <s> --trace <0|1> [--data-dir <dir>]
//! ```
//!
//! Prints one line of sample counts, then, as its last line, one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. `--trace 0` gives
//! the end-to-end metrics, `--trace 1` the per-layer ones. See `README.md`.

mod client;
mod door;
mod inputs;
mod run;
mod stats;
mod trace;
mod workload;

use run::{Metric, Options, Report};
use std::path::PathBuf;
use std::process::ExitCode;
use workload::Workload;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    data_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut data_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::by_name(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            "--data-dir" => data_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
        data_dir,
    })
}

/// A JSON number; non-finite values cannot be encoded and read as 0.
fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn print_report(r: &Report) {
    let samples: Vec<String> = r
        .metrics
        .iter()
        .map(|m| format!("\"{}\": {}", m.name, m.samples))
        .collect();
    println!("{{\"samples\": {{{}}}}}", samples.join(", "));
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.failed == 0,
        r.attempted.max(1),
        r.failed,
        metrics_json(&r.metrics)
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name;
    let opts = Options {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        data_dir: args.data_dir.unwrap_or_else(|| {
            PathBuf::from(".perfbench_tmp").join(format!(
                "{name}-{}-{}",
                args.seed,
                std::process::id()
            ))
        }),
        span_file: PathBuf::from(".perfbench_out").join(format!("spans-{name}-{}.tsv", args.seed)),
    };
    let report = run::run(&opts);
    run::phase("done");
    print_report(&report);
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
