//! Multi-connection loopback load generator for the `snn-net` TCP
//! front-end: measures end-to-end serving throughput and latency
//! percentiles **at the system boundary** — sockets, framing, the
//! reactor shards and the micro-batching server included — and writes
//! `BENCH_net.json` to the current directory so the network-serving
//! trajectory is tracked PR over PR alongside `BENCH_conv.json` and
//! `BENCH_serve.json`.
//!
//! Four phases:
//!
//! 1. **Latency probe** — one connection streams sequential LeNet
//!    inferences; per-request wall-clock latencies give p50/p99 (the
//!    figure a lone interactive client sees).
//! 2. **Closed-loop throughput** — `SNN_BENCH_CONNECTIONS` concurrent
//!    connections (default 64) each **pipeline** `REQUESTS_PER_CONNECTION`
//!    inferences over `NetClient::infer_many`.  This measures capacity,
//!    but its latency is coordinated-omission biased: each connection
//!    waits for replies before offering more load, so the summary labels
//!    the number as capacity and leaves latency-at-rate to phase 3.
//! 3. **Open-loop latency** — Poisson arrivals at **controlled
//!    utilisation points** (50 % and 90 % of the phase-2 capacity) over
//!    `SNN_BENCH_OPENLOOP_CONNECTIONS` pipelined connections: offered vs
//!    achieved rate, latency from each request's *scheduled* arrival,
//!    and the generator's own send-lag/jitter so scheduling noise is
//!    separable from server saturation.  Each point drains the trace ring
//!    for its own per-phase percentiles.
//! 4. **Backpressure** — a burst against a one-slot queue forces the
//!    admission policy to shed load; the summary records how many REJECTED
//!    frames came back and a sample retry-after hint, proving the hint
//!    path end to end.

use snn_accel::config::AcceleratorConfig;
use snn_accel::serve::ServerOptions;
use snn_bench::openloop::{self, OpenLoopConfig, Schedule};
use snn_bench::phases::{any_phase, phase_latency_json};
use snn_model::convert::{convert, CalibrationStats, ConversionConfig};
use snn_model::params::Parameters;
use snn_model::snn::SnnModel;
use snn_model::zoo;
use snn_net::{scrape_traces, NetClient, NetError, NetOptions, NetServer};
use snn_telemetry::{Phase, RequestTrace};
use snn_tensor::Tensor;
use std::time::{Duration, Instant};

/// Concurrent connections of the throughput phase; override with the
/// `SNN_BENCH_CONNECTIONS` environment variable (CI runs the default).
const DEFAULT_CONNECTIONS: usize = 64;
const REQUESTS_PER_CONNECTION: usize = 4;
const PROBE_REQUESTS: usize = 24;
const BURST_CONNECTIONS: usize = 4;
const BURST_REQUESTS: usize = 25;
/// Connections of the open-loop utilisation points (override with
/// `SNN_BENCH_OPENLOOP_CONNECTIONS`) — "hundreds of pipelined
/// connections", per the scale-out acceptance bar.
const OPENLOOP_CONNECTIONS: usize = 256;
/// Duration of each open-loop point (override with `SNN_BENCH_OPENLOOP_MS`).
const OPENLOOP_DURATION_MS: u64 = 3000;

fn connections() -> usize {
    std::env::var("SNN_BENCH_CONNECTIONS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&c| c > 0)
        .unwrap_or(DEFAULT_CONNECTIONS)
}

fn lenet_model(inputs_wanted: usize) -> (SnnModel, Vec<Tensor<f32>>) {
    let net = zoo::lenet5();
    let params = Parameters::he_init(&net, 7).expect("parameters");
    let inputs: Vec<Tensor<f32>> = (0..inputs_wanted.max(4))
        .map(|b| {
            let values: Vec<f32> = (0..1024)
                .map(|j| (((j * 13 + b * 101) % 97) as f32) / 96.0)
                .collect();
            Tensor::from_vec(vec![1, 32, 32], values).expect("input")
        })
        .collect();
    let stats =
        CalibrationStats::collect(&net, &params, inputs.iter().take(4)).expect("calibration");
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
    (model, inputs)
}

/// Closed-loop pipelined load: every connection keeps `depth` requests in
/// flight until its share is served.  Returns `(requests, achieved_ips)`.
/// The achieved rate doubles as the offered rate — a closed loop offers
/// exactly what the server absorbs, which is why latency-at-rate comes
/// from the open-loop phase instead.
fn closed_loop_ips(
    addr: std::net::SocketAddr,
    connections: usize,
    depth: usize,
    inputs: &[Tensor<f32>],
) -> (usize, f64) {
    let started = Instant::now();
    let workers: Vec<_> = (0..connections)
        .map(|c| {
            let batch: Vec<Tensor<f32>> = (0..depth)
                .map(|r| inputs[(c + r) % inputs.len()].clone())
                .collect();
            std::thread::spawn(move || {
                let mut client = NetClient::connect(addr).expect("connect");
                let replies = client.infer_many(&batch).expect("pipelined batch");
                let mut served = 0usize;
                for reply in replies {
                    reply.expect("inference succeeds");
                    served += 1;
                }
                served
            })
        })
        .collect();
    let mut total = 0usize;
    for worker in workers {
        total += worker.join().expect("load thread");
    }
    (total, total as f64 / started.elapsed().as_secs_f64())
}

fn percentile_us(sorted_ns: &[u64], pct: usize) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let index = (sorted_ns.len() - 1) * pct / 100;
    sorted_ns[index] as f64 / 1000.0
}

fn main() {
    let connections = connections();
    let (model, inputs) = lenet_model(8);
    let config = AcceleratorConfig::lenet_table3();

    // The summary embeds per-phase trace percentiles, so tracing is
    // pinned on regardless of the SNN_TRACE environment.
    let options = NetOptions {
        server: ServerOptions {
            trace: true,
            ..ServerOptions::default()
        },
        ..NetOptions::default()
    };
    let server =
        NetServer::bind("127.0.0.1:0", config, model.clone(), options).expect("bind server");
    let addr = server.local_addr();
    // Warm up the pool, the compiled program and the connection path.
    let mut warm = NetClient::connect(addr).expect("warmup connect");
    warm.infer(&inputs[0]).expect("warmup inference");
    drop(warm);

    // Phase 1: sequential latency probe over one connection.
    let mut probe = NetClient::connect(addr).expect("probe connect");
    let mut latencies_ns = Vec::with_capacity(PROBE_REQUESTS);
    for i in 0..PROBE_REQUESTS {
        let input = &inputs[i % inputs.len()];
        let t0 = Instant::now();
        probe.infer(input).expect("probe inference");
        latencies_ns.push(t0.elapsed().as_nanos() as u64);
    }
    drop(probe);
    latencies_ns.sort_unstable();
    let p50_us = percentile_us(&latencies_ns, 50);
    let p99_us = percentile_us(&latencies_ns, 99);
    let mean_us =
        latencies_ns.iter().sum::<u64>() as f64 / latencies_ns.len().max(1) as f64 / 1000.0;

    // Phase 2: closed-loop pipelined throughput — the capacity number.
    let (total_requests, ips) =
        closed_loop_ips(addr, connections, REQUESTS_PER_CONNECTION, &inputs);

    // Drain the per-request traces the run produced (tracing is on by
    // default) and summarise per-phase latency percentiles for the trend.
    let trace_dump = scrape_traces(addr).expect("trace scrape");
    let traces: Vec<RequestTrace> = trace_dump
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| RequestTrace::from_json_line(l).expect("parse trace line"))
        .collect();
    let expected_traces = total_requests + PROBE_REQUESTS + 1;
    assert!(
        !traces.is_empty() && traces.len() <= expected_traces,
        "trace drain must return at most one trace per request"
    );
    // With the default connection count the ring never evicts, so the
    // correlation is exact; an oversized SNN_BENCH_CONNECTIONS run may
    // legitimately evict old traces.
    if expected_traces <= snn_telemetry::DEFAULT_TRACE_CAPACITY {
        assert_eq!(
            traces.len(),
            expected_traces,
            "every request (plus probe and warmup) must leave exactly one trace"
        );
    }
    for phase in [Phase::QueueWait, Phase::Compute, Phase::WriteStall] {
        assert!(
            any_phase(&traces, phase),
            "the loopback run must record {phase:?} spans"
        );
    }
    let phase_latency = phase_latency_json(&traces);
    println!(
        "net: {total_requests} LeNet inferences pipelined over {connections} TCP connections \
         (depth {REQUESTS_PER_CONNECTION}, closed loop): {ips:.1} inf/s; sequential probe \
         p50 {p50_us:.0} us, p99 {p99_us:.0} us"
    );

    // Phase 3: open-loop arrivals at controlled utilisation points.  The
    // trace ring was just drained, so each point's scrape attributes only
    // its own requests.
    let openloop_connections = std::env::var("SNN_BENCH_OPENLOOP_CONNECTIONS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&c| c > 0)
        .unwrap_or(OPENLOOP_CONNECTIONS);
    let openloop_ms = std::env::var("SNN_BENCH_OPENLOOP_MS")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .filter(|&m| m > 0)
        .unwrap_or(OPENLOOP_DURATION_MS);
    let mut open_loop_sections = Vec::new();
    let mut open_loop_completed = 0u64;
    for (label, utilisation) in [("u50", 0.5), ("u90", 0.9)] {
        let open_config = OpenLoopConfig {
            connections: openloop_connections,
            rate_ips: ips * utilisation,
            duration: Duration::from_millis(openloop_ms),
            schedule: Schedule::Poisson { seed: 0x5eed },
        };
        let report = openloop::run(addr, &inputs[0], &open_config);
        let point_traces: Vec<RequestTrace> = scrape_traces(addr)
            .expect("open-loop trace scrape")
            .lines()
            .filter(|l| !l.trim().is_empty())
            .filter_map(RequestTrace::from_json_line)
            .collect();
        println!(
            "open-loop {label}: offered {:.1}/s achieved {:.1}/s over {} connections, \
             latency p50 {:.0} us p99 {:.0} us (jitter p99 {:.0} us, {} rejected)",
            report.offered_rate_ips,
            report.achieved_rate_ips,
            openloop_connections,
            report.latency.p50_us,
            report.latency.p99_us,
            report.jitter.p99_us,
            report.rejected,
        );
        assert!(
            report.completed > 0,
            "the {label} open-loop point must serve at least one request"
        );
        assert_eq!(report.errors, 0, "open-loop requests must not error");
        open_loop_completed += report.completed;
        open_loop_sections.push(format!(
            "\"{label}\": {{\"utilisation_target\": {utilisation}, \"report\": {}, \
             \"trace_phase_latency\": {}}}",
            report.to_json(),
            phase_latency_json(&point_traces)
        ));
    }

    let stats = server.shutdown();
    assert_eq!(
        stats.server.completed,
        (total_requests + PROBE_REQUESTS + 1) as u64 + open_loop_completed,
        "every request (probe, warmup, closed- and open-loop) must resolve"
    );
    assert_eq!(
        stats.turned_away, 0,
        "the reactor must hold {connections} concurrent connections without shedding"
    );

    // Phase 4: forced backpressure against a one-slot queue.
    let tight = NetServer::bind(
        "127.0.0.1:0",
        config,
        model,
        NetOptions {
            server: ServerOptions {
                max_batch: 1,
                queue_capacity: 1,
                ..ServerOptions::default()
            },
            ..NetOptions::default()
        },
    )
    .expect("bind backpressure server");
    let tight_addr = tight.local_addr();
    let burst: Vec<_> = (0..BURST_CONNECTIONS)
        .map(|c| {
            let input = inputs[c % inputs.len()].clone();
            std::thread::spawn(move || {
                let mut client = NetClient::connect(tight_addr).expect("connect");
                let mut rejections = 0u64;
                let mut hint_ms = 0u64;
                for _ in 0..BURST_REQUESTS {
                    match client.infer(&input) {
                        Ok(_) => {}
                        Err(NetError::Rejected(reply)) => {
                            rejections += 1;
                            hint_ms = hint_ms.max(reply.retry_after_ms);
                        }
                        Err(other) => panic!("unexpected error: {other}"),
                    }
                }
                (rejections, hint_ms)
            })
        })
        .collect();
    let mut rejections = 0u64;
    let mut hint_ms = 0u64;
    for worker in burst {
        let (r, h) = worker.join().expect("burst thread");
        rejections += r;
        hint_ms = hint_ms.max(h);
    }
    let tight_stats = tight.shutdown();
    println!(
        "backpressure: {rejections}/{} requests shed by the one-slot queue, \
         sample retry-after hint {hint_ms} ms",
        BURST_CONNECTIONS * BURST_REQUESTS
    );
    assert_eq!(tight_stats.server.rejected, rejections);
    // The phase exists to prove the REJECTED/hint path end to end; a run
    // in which the burst never overflowed the one-slot queue proved
    // nothing and must fail loudly rather than record a vacuous summary.
    assert!(
        rejections > 0,
        "the burst must force at least one QueueFull rejection"
    );
    assert!(hint_ms >= 1, "a rejection must carry a positive retry hint");

    let utilisation: Vec<String> = stats
        .server
        .utilisation
        .iter()
        .map(|u| {
            format!(
                "\"{:?}\": {{\"units\": {}, \"busy_cycles\": {}, \"total_cycles\": {}, \
                 \"utilisation\": {:.4}}}",
                u.kind,
                u.units,
                u.busy_cycles,
                u.total_cycles,
                u.utilisation()
            )
        })
        .collect();
    let json = format!(
        "{{\n\
         \"workload\": \"lenet5_T4_tcp_loopback\",\n\
         \"connections\": {connections},\n\
         \"pipeline_depth\": {REQUESTS_PER_CONNECTION},\n\
         \"requests\": {total_requests},\n\
         \"thread_budget\": {},\n\
         \"reactors\": {},\n\
         \"inferences_per_sec\": {{\"tcp_loopback\": {ips:.2}}},\n\
         \"latency\": {{\"p50_us\": {p50_us:.1}, \"p99_us\": {p99_us:.1}, \
         \"mean_us\": {mean_us:.1}}},\n\
         \"trace_phase_latency\": {phase_latency},\n\
         \"open_loop\": {{\"connections\": {openloop_connections}, {}}},\n\
         \"backpressure\": {{\"burst_requests\": {}, \"rejections\": {rejections}, \
         \"retry_hint_sample\": {hint_ms}}},\n\
         \"unit_utilisation\": {{{}}}\n\
         }}\n",
        stats.server.thread_budget,
        stats.reactors,
        open_loop_sections.join(", "),
        BURST_CONNECTIONS * BURST_REQUESTS,
        utilisation.join(", ")
    );
    let path = "BENCH_net.json";
    std::fs::write(path, &json).expect("write BENCH_net.json");
    println!("wrote {path}");
}
