//! `load_harness` — the open-loop load generator as a standalone tool.
//!
//! Self-hosts a loopback `NetServer` (LeNet-5, tracing on) unless
//! `--addr` points at an external front-end, drives it with a
//! Poisson/fixed-rate arrival schedule over pipelined connections, and
//! prints a JSON report: offered vs achieved rate, coordinated-omission-
//! resistant latency percentiles (measured from each request's
//! *scheduled* arrival), the generator's own scheduling noise (send lag,
//! inter-arrival jitter), and — for the self-hosted server — per-phase
//! trace percentiles from the PR 9 `RequestTrace` JSONL drain, so a
//! saturation regression is attributable to queue wait, compute, or
//! write stall rather than a single opaque number.
//!
//! ```text
//! load_harness [--rate IPS] [--connections N] [--duration-ms MS]
//!              [--schedule poisson|fixed] [--seed N]
//!              [--reactors N] [--addr HOST:PORT] [--out FILE]
//! ```
//!
//! Every flag also reads an `SNN_LOAD_*` environment variable
//! (`SNN_LOAD_RATE`, `SNN_LOAD_CONNECTIONS`, `SNN_LOAD_DURATION_MS`,
//! `SNN_LOAD_SCHEDULE`, `SNN_LOAD_SEED`, `SNN_LOAD_REACTORS`), flags
//! winning; CI's smoke run sets a low rate and short duration.  Against
//! an external `--addr` the trace section is skipped (draining another
//! operator's trace ring from a bench tool would be rude).

use snn_accel::config::AcceleratorConfig;
use snn_accel::serve::ServerOptions;
use snn_bench::openloop::{self, OpenLoopConfig, Schedule};
use snn_bench::phases::phase_latency_json;
use snn_model::convert::{convert, CalibrationStats, ConversionConfig};
use snn_model::params::Parameters;
use snn_model::zoo;
use snn_net::{scrape_traces, NetOptions, NetServer};
use snn_telemetry::RequestTrace;
use snn_tensor::Tensor;
use std::net::SocketAddr;
use std::time::Duration;

struct Args {
    rate_ips: f64,
    connections: usize,
    duration: Duration,
    schedule: Schedule,
    reactors: usize,
    addr: Option<SocketAddr>,
    out: Option<String>,
}

fn env_or<T: std::str::FromStr>(key: &str, fallback: T) -> T {
    std::env::var(key)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(fallback)
}

fn parse_args() -> Args {
    let mut args = Args {
        rate_ips: env_or("SNN_LOAD_RATE", 200.0),
        connections: env_or("SNN_LOAD_CONNECTIONS", 64),
        duration: Duration::from_millis(env_or("SNN_LOAD_DURATION_MS", 3000u64)),
        schedule: std::env::var("SNN_LOAD_SCHEDULE")
            .ok()
            .and_then(|v| Schedule::parse(&v))
            .unwrap_or(Schedule::Poisson {
                seed: env_or("SNN_LOAD_SEED", 0x5eed_u64),
            }),
        reactors: env_or("SNN_LOAD_REACTORS", 0usize),
        addr: None,
        out: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = |i: usize| -> &str {
            argv.get(i + 1)
                .unwrap_or_else(|| panic!("{flag} needs a value"))
        };
        match flag {
            "--rate" => args.rate_ips = value(i).parse().expect("--rate IPS"),
            "--connections" => args.connections = value(i).parse().expect("--connections N"),
            "--duration-ms" => {
                args.duration = Duration::from_millis(value(i).parse().expect("--duration-ms MS"))
            }
            "--schedule" => {
                args.schedule = Schedule::parse(value(i))
                    .unwrap_or_else(|| panic!("--schedule poisson|fixed, got {}", value(i)))
            }
            "--seed" => {
                args.schedule = Schedule::Poisson {
                    seed: value(i).parse().expect("--seed N"),
                }
            }
            "--reactors" => args.reactors = value(i).parse().expect("--reactors N"),
            "--addr" => args.addr = Some(value(i).parse().expect("--addr HOST:PORT")),
            "--out" => args.out = Some(value(i).to_string()),
            other => panic!("unknown flag {other} (see the module docs for usage)"),
        }
        i += 2;
    }
    assert!(args.rate_ips > 0.0, "--rate must be positive");
    assert!(args.connections > 0, "--connections must be positive");
    args
}

fn lenet_input() -> Tensor<f32> {
    let values: Vec<f32> = (0..1024).map(|j| ((j * 13 % 97) as f32) / 96.0).collect();
    Tensor::from_vec(vec![1, 32, 32], values).expect("input")
}

fn main() {
    let args = parse_args();
    let input = lenet_input();

    // Self-hosted loopback server unless --addr names an external one.
    let server = if args.addr.is_none() {
        let net = zoo::lenet5();
        let params = Parameters::he_init(&net, 7).expect("parameters");
        let calibration: Vec<Tensor<f32>> = vec![input.clone()];
        let stats =
            CalibrationStats::collect(&net, &params, calibration.iter()).expect("calibration");
        let model = convert(
            &net,
            &params,
            &stats,
            ConversionConfig {
                weight_bits: 3,
                time_steps: 4,
            },
        )
        .expect("conversion");
        let options = NetOptions {
            server: ServerOptions {
                trace: true,
                ..ServerOptions::default()
            },
            reactors: args.reactors,
            max_connections: args.connections.max(NetOptions::default().max_connections),
            ..NetOptions::default()
        };
        Some(
            NetServer::bind(
                "127.0.0.1:0",
                AcceleratorConfig::lenet_table3(),
                model,
                options,
            )
            .expect("bind server"),
        )
    } else {
        None
    };
    let addr = args
        .addr
        .unwrap_or_else(|| server.as_ref().expect("self-hosted").local_addr());

    let config = OpenLoopConfig {
        connections: args.connections,
        rate_ips: args.rate_ips,
        duration: args.duration,
        schedule: args.schedule,
    };
    let report = openloop::run(addr, &input, &config);

    // Per-phase attribution from the self-hosted server's trace ring.
    let trace_phase_latency = if server.is_some() {
        let dump = scrape_traces(addr).expect("trace scrape");
        let traces: Vec<RequestTrace> = dump
            .lines()
            .filter(|l| !l.trim().is_empty())
            .filter_map(RequestTrace::from_json_line)
            .collect();
        Some(phase_latency_json(&traces))
    } else {
        None
    };

    let mut json = format!(
        "{{\n\"workload\": \"lenet5_T4_open_loop\",\n\"open_loop\": {}",
        report.to_json()
    );
    if let Some(phases) = &trace_phase_latency {
        json.push_str(&format!(",\n\"trace_phase_latency\": {phases}"));
    }
    if let Some(server) = server {
        let stats = server.shutdown();
        json.push_str(&format!(",\n\"reactors\": {}", stats.reactors));
    }
    json.push_str("\n}\n");

    eprintln!(
        "open-loop: offered {:.1}/s, achieved {:.1}/s over {} connections ({}): \
         {} completed, {} rejected, {} errors; latency p50 {:.0} us p99 {:.0} us \
         (send lag p99 {:.0} us, jitter p99 {:.0} us)",
        report.offered_rate_ips,
        report.achieved_rate_ips,
        config.connections,
        match config.schedule {
            Schedule::Poisson { .. } => "poisson",
            Schedule::Fixed => "fixed",
        },
        report.completed,
        report.rejected,
        report.errors,
        report.latency.p50_us,
        report.latency.p99_us,
        report.send_lag.p99_us,
        report.jitter.p99_us,
    );
    if let Some(path) = &args.out {
        std::fs::write(path, &json).expect("write report");
        eprintln!("wrote {path}");
    }
    println!("{json}");
}
