//! `snn-perfbench` — the repository's benchmark.
//!
//! ```text
//! snn-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
//! ```
//!
//! Workloads (all T = 4, 3-bit weights, model converted from
//! `Parameters::he_init` with a fixed seed; `--seed` draws the inputs):
//!
//! * `lenet_tcp_open` — LeNet-5 behind an in-process `NetServer` on
//!   loopback, open-loop Poisson arrivals at a fixed 200 inf/s.
//! * `vgg11_tiled_direct` — tiled VGG-11 through `Accelerator::run`, back
//!   to back, no server.
//!
//! `--trace 0` runs the workload with server tracing off and reports the
//! end-to-end metrics.  `--trace 1` runs the traced suite instead (the
//! same for every workload name) and reports the per-layer metrics; its
//! spans are written as JSONL to `--spans <path>`, or to standard output
//! when no path is given.  Every output is checked against the functional
//! oracle `SnnModel::forward`; the last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`.  Any
//! request that does not end in the oracle's answer (a mismatch, an
//! error, REJECTED, a timeout) makes the exit code 1.
//! `perfbench/README.md` explains the workloads and metrics.

mod client;
mod e2e;
mod measure;
mod models;
mod replay;
mod spans;
mod traced;

use std::process::ExitCode;

/// One reported figure.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            samples,
        }
    }
}

/// What one run reports.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    /// Requests that did not end in the oracle's answer (errors, REJECTED,
    /// timeouts, mismatches) and failed self-checks.
    pub failed: u64,
    /// Diagnostics printed beside the metrics (host steal, send lag, ...).
    pub notes: String,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

const WORKLOADS: [&str; 2] = ["lenet_tcp_open", "vgg11_tiled_direct"];

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        spans: None,
    };
    let mut pairs = argv.chunks(2);
    for pair in &mut pairs {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| "--seconds takes a number")?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--spans" => args.spans = Some(value.clone()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("snn-perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        traced::run(args.seed, args.seconds, args.spans.as_deref())
    } else {
        match args.workload.as_str() {
            "lenet_tcp_open" => e2e::lenet_tcp_open(args.seed, args.seconds),
            _ => e2e::vgg11_tiled_direct(args.seed, args.seconds),
        }
    };

    println!("{}", outcome.notes);
    for m in &outcome.metrics {
        println!(
            "  {:<32} {:>16.4} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    // A quantile of no samples reads NaN: the run measured nothing, so it
    // prints no result.
    if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("snn-perfbench: metric {} is not finite", m.name);
        return ExitCode::from(1);
    }
    let correct = outcome.failed == 0;
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
