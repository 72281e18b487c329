//! End-to-end Criterion benchmarks: full cycle-accurate inference of
//! converted SNN models on the accelerator simulator, plus the analytical
//! design-space evaluation used for Tables II and III.
//!
//! Besides the criterion groups, the harness runs the **serving scenario**
//! from [`snn_bench::serve_sweep`]: a batch of LeNet-5 inferences served
//! through the streaming micro-batching server versus naive sequential
//! `run` per-input calls (compile + execution per call — what a client
//! without the server would do).  The measured inferences/sec, speedup,
//! thread budget and modelled per-unit utilisation are written to
//! `BENCH_serve.json` at the workspace root (see
//! [`snn_bench::bench_output_path`]) so the serving-throughput trajectory is tracked PR over
//! PR alongside `BENCH_conv.json`.

use criterion::{criterion_group, Criterion};
use snn_accel::config::AcceleratorConfig;
use snn_accel::cost;
use snn_accel::sim::Accelerator;
use snn_accel::timing::network_timing;
use snn_bench::serve_sweep;
use snn_model::convert::{convert, CalibrationStats, ConversionConfig};
use snn_model::params::Parameters;
use snn_model::snn::SnnModel;
use snn_model::zoo;
use snn_tensor::Tensor;
use std::hint::black_box;

fn tiny_model() -> (SnnModel, Tensor<f32>) {
    let net = zoo::tiny_cnn();
    let params = Parameters::he_init(&net, 7).expect("parameters");
    let input = Tensor::from_vec(
        vec![1, 12, 12],
        (0..144).map(|i| (i % 97) as f32 / 96.0).collect(),
    )
    .expect("input");
    let stats = CalibrationStats::collect(&net, &params, [&input]).expect("calibration");
    let model = convert(&net, &params, &stats, ConversionConfig::default()).expect("conversion");
    (model, input)
}

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

fn bench_inference(c: &mut Criterion) {
    let (tiny, tiny_input) = tiny_model();
    let (lenet, lenet_input) = lenet_model();
    let accel = Accelerator::new(AcceleratorConfig::lenet_table3());

    c.bench_function("inference/tiny_cnn_cycle_accurate", |b| {
        b.iter(|| {
            accel
                .run(black_box(&tiny), black_box(&tiny_input))
                .expect("run")
        });
    });
    c.bench_function("inference/lenet5_cycle_accurate", |b| {
        b.iter(|| {
            accel
                .run(black_box(&lenet), black_box(&lenet_input))
                .expect("run")
        });
    });
}

fn bench_design_space(c: &mut Criterion) {
    // The Table II / Table III style evaluation: analytical timing and cost
    // models over the paper's networks.
    c.bench_function("design_space/lenet5_unit_sweep", |b| {
        let net = zoo::lenet5();
        b.iter(|| {
            for units in [1usize, 2, 4, 8] {
                let cfg = AcceleratorConfig::lenet_experiment(units);
                let timing = network_timing(&cfg, &net, 3).expect("timing");
                let res = cost::estimate_resources(&cfg, &net, 3);
                black_box((timing.total_cycles(), res.luts));
            }
        });
    });
    c.bench_function("design_space/vgg11_timing", |b| {
        let net = zoo::vgg11(100);
        let cfg = AcceleratorConfig::vgg11_table3();
        b.iter(|| network_timing(black_box(&cfg), black_box(&net), 6).expect("timing"));
    });
}

criterion_group!(benches, bench_inference, bench_design_space);

/// Runs the criterion groups, then the serving scenario,
/// and writes the `BENCH_serve.json` summary.
fn main() {
    let mut criterion = Criterion::default();
    benches(&mut criterion);
    criterion.final_summary();

    let serve = serve_sweep::sweep_body();
    let json = format!(
        "{{\n{serve},\n\"results\": {}\n}}\n",
        criterion.summary_json()
    );
    let path = snn_bench::bench_output_path("BENCH_serve.json");
    std::fs::write(&path, &json).expect("write BENCH_serve.json");
    println!("wrote {}", path.display());
}
