//! The serving scenario behind `BENCH_serve.json`: naive per-call
//! inference versus the streaming server.
//!
//! One compiled LeNet-5 program is served two ways: a naive sequential
//! `run` call per input (per-call compile — what a client without the
//! server would do) and the streaming micro-batching server.  Logits are
//! bit-identical either way (pinned by the `exec_properties` suite); the
//! scenario records what the server buys in throughput.
//!
//! The body produced by [`sweep_body`] is shared by the `end_to_end`
//! criterion harness (which appends its `results` rows) and the standalone
//! `bench_serve` binary (which writes the scenario alone), so both
//! regenerate the same schema.

use snn_accel::config::AcceleratorConfig;
use snn_accel::serve::{ServerOptions, StreamServer};
use snn_accel::sim::Accelerator;
use snn_model::convert::{convert, CalibrationStats, ConversionConfig};
use snn_model::params::Parameters;
use snn_model::snn::SnnModel;
use snn_model::zoo;
use snn_tensor::Tensor;
use std::hint::black_box;
use std::time::Instant;

/// Inferences per measured round.
pub const BATCH: usize = 32;

/// Micro-batch size of the served configuration.
pub const MICRO_BATCH: usize = 8;

/// Measurement rounds per configuration; the best round is recorded.
pub const ROUNDS: usize = 3;

fn lenet_model() -> (SnnModel, Tensor<f32>) {
    let net = zoo::lenet5();
    let params = Parameters::he_init(&net, 7).expect("parameters");
    let input = Tensor::from_vec(
        vec![1, 32, 32],
        (0..1024).map(|i| (i % 97) as f32 / 96.0).collect(),
    )
    .expect("input");
    let stats = CalibrationStats::collect(&net, &params, [&input]).expect("calibration");
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
    (model, input)
}

/// Measures the serving scenario and returns the `BENCH_serve.json` body
/// (everything except the criterion `results` array).
///
/// Baseline: naive sequential `run` per-input calls.  Contender: the
/// streaming server, reported as `inferences_per_sec/stream_server` and
/// `speedup_server_vs_naive`.
///
/// # Panics
///
/// Panics if any server fails to start or any inference errors — a bench
/// run that cannot serve must fail loudly rather than record garbage.
pub fn sweep_body() -> String {
    let (model, base_input) = lenet_model();
    let config = AcceleratorConfig::lenet_table3();
    let volume = base_input.len();
    let inputs: Vec<Tensor<f32>> = (0..BATCH)
        .map(|b| {
            let values: Vec<f32> = (0..volume)
                .map(|j| (((j * 13 + b * 101) % 97) as f32) / 96.0)
                .collect();
            Tensor::from_vec(vec![1, 32, 32], values).expect("serve input")
        })
        .collect();

    // Naive baseline: one `run` call per input, best of ROUNDS.
    let accel = Accelerator::new(config);
    accel.run(&model, &inputs[0]).expect("warmup");
    let mut naive_best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let start = Instant::now();
        for input in &inputs {
            black_box(accel.run(&model, input).expect("naive run"));
        }
        naive_best = naive_best.min(start.elapsed().as_secs_f64());
    }
    let naive_ips = BATCH as f64 / naive_best;

    // Compile once, micro-batch onto the engine.
    let server = StreamServer::start_with(
        config,
        model.clone(),
        ServerOptions {
            max_batch: MICRO_BATCH,
            // The summary embeds per-phase trace percentiles, so tracing
            // is pinned on regardless of SNN_TRACE.
            trace: true,
            ..ServerOptions::default()
        },
    )
    .expect("start server");
    server.run_all(&inputs[..2]).expect("server warmup");
    let mut best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let start = Instant::now();
        black_box(server.run_all(&inputs).expect("served batch"));
        best = best.min(start.elapsed().as_secs_f64());
    }
    let serve_ips = BATCH as f64 / best;
    // Per-phase latency percentiles from the server's span recorder,
    // summarised for the PR-over-PR trend like the throughput numbers.
    let traces = server.recorder().drain();
    let phase_latency = if traces.is_empty() {
        String::from("{}")
    } else {
        crate::phases::phase_latency_json(&traces)
    };
    assert!(
        server.is_healthy(),
        "the engine must survive the measured rounds"
    );
    let stats = server.shutdown();
    let speedup = serve_ips / naive_ips;
    println!(
        "serve: naive {naive_ips:.1} inf/s, stream server {serve_ips:.1} inf/s ({speedup:.2}x, \
         thread budget {})",
        stats.thread_budget
    );

    let utilisation: Vec<String> = stats
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
    format!(
        "\"workload\": \"lenet5_T4_batch{BATCH}\",\n\
         \"batch\": {BATCH},\n\
         \"micro_batch\": {MICRO_BATCH},\n\
         \"thread_budget\": {},\n\
         \"inferences_per_sec\": {{\"naive_run\": {naive_ips:.2}, \
         \"stream_server\": {serve_ips:.2}}},\n\
         \"speedup_server_vs_naive\": {speedup:.3},\n\
         \"trace_phase_latency\": {phase_latency},\n\
         \"unit_utilisation\": {{{}}}",
        stats.thread_budget,
        utilisation.join(", ")
    )
}
