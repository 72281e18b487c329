//! Property tests pinning the execution engine, the batch path and the
//! streaming batch server to **independent oracles** across random
//! network shapes, strides, paddings, spike-train lengths, accelerator
//! geometries, tile budgets and batch sizes — including batch = 1 and an
//! all-silent input:
//!
//! * logits, prediction and every intermediate layer's levels against the
//!   functional model (`SnnModel::forward`);
//! * per-layer `UnitStats` of every convolution and linear layer against
//!   the counter-stepped units in `snn_accel::reference`, fed that layer's
//!   input levels from the functional trace;
//! * total and per-layer cycles against the analytical timing model
//!   (`Accelerator::design_report`);
//! * batch and served reports against solo `Accelerator::run` calls, for
//!   any submission order over both completion paths.

use proptest::prelude::*;
use snn_accel::config::{AcceleratorConfig, ArrayGeometry};
use snn_accel::memory;
use snn_accel::reference::{ReferenceConvolutionUnit, ReferenceLinearUnit};
use snn_accel::report::RunReport;
use snn_accel::serve::{CompletionSink, ServerOptions, StreamServer};
use snn_accel::sim::Accelerator;
use snn_accel::AccelError;
use snn_model::convert::{convert, CalibrationStats, ConversionConfig};
use snn_model::params::Parameters;
use snn_model::snn::{requantize, SnnLayer, SnnModel};
use snn_model::{LayerSpec, NetworkSpec};
use snn_tensor::Tensor;
use std::sync::Arc;
use std::time::Duration;

#[derive(Debug, Clone, Copy)]
struct ScenarioParams {
    c_in: usize,
    c_out: usize,
    size: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    with_pool: bool,
    time_steps: usize,
    conv_units: usize,
    columns: usize,
    batch: usize,
    seed: u64,
}

/// Builds a random small network, converts it, and derives an accelerator
/// configuration whose narrow geometry forces several sequential channel
/// groups (including a straggler group when the output channels do not
/// divide evenly).  Returns `None` for dimension combinations that do not
/// form a valid network.
fn build_scenario(p: ScenarioParams) -> Option<(SnnModel, Vec<Tensor<f32>>, AcceleratorConfig)> {
    let padded = p.size + 2 * p.padding;
    if p.kernel > padded {
        return None;
    }
    let conv_out = (padded - p.kernel) / p.stride + 1;
    let mut layers = vec![LayerSpec::Conv2d {
        in_channels: p.c_in,
        out_channels: p.c_out,
        kernel: p.kernel,
        stride: p.stride,
        padding: p.padding,
    }];
    let (fh, fw) = if p.with_pool && conv_out >= 2 {
        layers.push(LayerSpec::avg_pool2());
        (conv_out / 2, conv_out / 2)
    } else {
        (conv_out, conv_out)
    };
    layers.push(LayerSpec::Flatten);
    layers.push(LayerSpec::linear(p.c_out * fh * fw, 4));
    let net = NetworkSpec::new("exec-prop", vec![p.c_in, p.size, p.size], layers).ok()?;
    let params = Parameters::he_init(&net, p.seed).ok()?;

    let volume = p.c_in * p.size * p.size;
    let inputs: Vec<Tensor<f32>> = (0..p.batch)
        .map(|b| {
            let values: Vec<f32> = (0..volume)
                .map(|j| {
                    let x = (j as u64 * 2654435761)
                        .wrapping_add(p.seed)
                        .wrapping_add(b as u64 * 7919);
                    (x % 97) as f32 / 96.0
                })
                .collect();
            Tensor::from_vec(vec![p.c_in, p.size, p.size], values).unwrap()
        })
        .collect();
    let stats = CalibrationStats::collect(&net, &params, inputs.iter()).ok()?;
    let model = convert(
        &net,
        &params,
        &stats,
        ConversionConfig {
            weight_bits: 3,
            time_steps: p.time_steps,
        },
    )
    .ok()?;

    let config = AcceleratorConfig {
        conv_units: p.conv_units,
        conv_geometry: ArrayGeometry {
            columns: p.columns,
            rows: p.kernel,
        },
        ..AcceleratorConfig::default()
    };
    Some((model, inputs, config))
}

/// Asserts a report against the functional model and the analytical
/// timing model: logits, prediction, per-layer and total cycles.
fn assert_matches_functional_and_timing(
    accel: &Accelerator,
    model: &SnnModel,
    input: &Tensor<f32>,
    report: &RunReport,
) {
    let trace = model.forward(input).unwrap();
    assert_eq!(report.logits, trace.logits().as_slice());
    assert_eq!(report.prediction, trace.predicted_class());
    let timing = accel.design_report(model).unwrap().timing;
    assert_eq!(report.total_cycles(), timing.total_cycles());
    assert_eq!(report.layers.len(), timing.layers.len());
    for (layer, predicted) in report.layers.iter().zip(&timing.layers) {
        assert_eq!(layer.kind, predicted.kind);
        assert_eq!(layer.latency_cycles, predicted.total_cycles());
    }
}

/// Walks the functional trace layer by layer and re-runs every
/// convolution and linear layer on the counter-stepped reference unit,
/// fed that layer's input levels: the requantized reference accumulators
/// must equal the functional levels, and the reference `UnitStats` must
/// equal the engine's per-layer work in `report`.
fn assert_layer_stats_match_reference(
    config: &AcceleratorConfig,
    model: &SnnModel,
    input: &Tensor<f32>,
    report: &RunReport,
) {
    let trace = model.forward(input).unwrap();
    let max_level = model.max_level();
    let time_steps = model.time_steps();
    let mut layer_input = &trace.input_levels;
    for (i, layer) in model.layers().iter().enumerate() {
        let output = &trace.activations[i];
        let reference = match layer {
            SnnLayer::Conv {
                weight_codes,
                bias_acc,
                stride,
                padding,
                requant,
            } => {
                let result = ReferenceConvolutionUnit::new(config.conv_geometry)
                    .run_layer(
                        layer_input,
                        weight_codes,
                        bias_acc,
                        time_steps,
                        *stride,
                        *padding,
                    )
                    .unwrap();
                Some((result.accumulators, result.stats, *requant))
            }
            SnnLayer::Linear {
                weight_codes,
                bias_acc,
                requant,
            } => {
                let result = ReferenceLinearUnit::new(config.linear_lanes)
                    .run_layer(layer_input, weight_codes, bias_acc, time_steps)
                    .unwrap();
                Some((result.accumulators, result.stats, *requant))
            }
            SnnLayer::Pool { .. } | SnnLayer::Flatten => None,
        };
        if let Some((accumulators, stats, requant)) = reference {
            let levels = match requant {
                Some(r) => accumulators.map(|&v| requantize(v, r, max_level)),
                None => accumulators,
            };
            assert_eq!(&levels, output, "layer {i} levels");
            assert_eq!(report.layers[i].work, stats, "layer {i} stats");
        }
        layer_input = output;
    }
}

/// A tile budget half the largest layer's footprint, so at least that
/// layer runs in row bands or output chunks; `None` when the halved
/// budget cannot hold a single row of some layer.
fn tiled_config(model: &SnnModel, config: AcceleratorConfig) -> Option<AcceleratorConfig> {
    let largest = memory::largest_layer_footprint_bytes(model.spec(), model.time_steps());
    let tiled = AcceleratorConfig {
        activation_buffer_bytes: Some((largest / 2).max(1)),
        ..config
    };
    match Accelerator::new(tiled).compile(model) {
        Ok(program) => {
            assert!(program.steps.iter().any(|s| s.tiling.is_some()));
            Some(tiled)
        }
        Err(AccelError::BufferBudget { .. }) => None,
        Err(other) => panic!("unexpected compile error: {other:?}"),
    }
}

/// Guards the generators: typical draws must produce a real scenario, and
/// the narrow geometry must force several channel groups, whose reports
/// still match every oracle.
#[test]
fn typical_scenarios_build_with_several_channel_groups() {
    let (model, inputs, config) = build_scenario(ScenarioParams {
        c_in: 2,
        c_out: 6,
        size: 8,
        kernel: 3,
        stride: 1,
        padding: 1,
        with_pool: true,
        time_steps: 4,
        conv_units: 1,
        columns: 3,
        batch: 2,
        seed: 42,
    })
    .expect("scenario must build");
    assert_eq!(inputs.len(), 2);
    let accel = Accelerator::new(config);
    let program = accel.compile(&model).unwrap();
    assert!(
        program.steps[0].channel_groups > 1,
        "narrow geometry must force sequential channel groups"
    );
    let report = accel.run(&model, &inputs[0]).unwrap();
    assert_matches_functional_and_timing(&accel, &model, &inputs[0], &report);
    assert_layer_stats_match_reference(&config, &model, &inputs[0], &report);
    let tiled = tiled_config(&model, config).expect("typical scenario tiles");
    assert_eq!(
        Accelerator::new(tiled).run(&model, &inputs[0]).unwrap(),
        report
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `run` computes the functional model's logits and prediction and
    /// spends exactly the cycles the analytical timing model predicts,
    /// layer by layer.
    #[test]
    fn run_matches_functional_model_and_analytical_timing(
        c_in in 1usize..3,
        c_out in 1usize..8,
        size in 5usize..10,
        kernel in 2usize..4,
        stride in 1usize..3,
        padding in 0usize..2,
        time_steps in 1usize..6,
        conv_units in 1usize..3,
        columns in 2usize..6,
        seed in 0u64..1000,
    ) {
        let Some((model, inputs, config)) = build_scenario(ScenarioParams {
            c_in, c_out, size, kernel, stride, padding,
            with_pool: true, time_steps, conv_units, columns,
            batch: 1, seed,
        }) else { return Ok(()) };
        let accel = Accelerator::new(config);
        let report = accel.run(&model, &inputs[0]).unwrap();
        assert_matches_functional_and_timing(&accel, &model, &inputs[0], &report);
    }

    /// The `RunReport` counters keep an oracle outside the engine: every
    /// convolution and linear layer's `UnitStats` equal the reference
    /// unit's, run on the functional trace's levels — untiled, and under a
    /// tile budget that splits the largest layer.
    #[test]
    fn layer_stats_match_the_reference_units(
        c_in in 1usize..3,
        c_out in 1usize..8,
        size in 5usize..10,
        kernel in 2usize..4,
        stride in 1usize..3,
        padding in 0usize..2,
        with_pool in proptest::bool::ANY,
        time_steps in 1usize..6,
        conv_units in 1usize..3,
        columns in 2usize..6,
        seed in 0u64..1000,
    ) {
        let Some((model, inputs, config)) = build_scenario(ScenarioParams {
            c_in, c_out, size, kernel, stride, padding,
            with_pool, time_steps, conv_units, columns,
            batch: 1, seed,
        }) else { return Ok(()) };
        let untiled = Accelerator::new(config).run(&model, &inputs[0]).unwrap();
        assert_layer_stats_match_reference(&config, &model, &inputs[0], &untiled);
        if let Some(tiled) = tiled_config(&model, config) {
            let report = Accelerator::new(tiled).run(&model, &inputs[0]).unwrap();
            assert_layer_stats_match_reference(&tiled, &model, &inputs[0], &report);
        }
    }

    /// Batch execution over the shared worker pool returns, per input,
    /// exactly the report of a solo `run` (the sequential layer loop) —
    /// for batch sizes including one.
    #[test]
    fn batch_reports_match_solo_sequential_runs(
        c_out in 1usize..6,
        size in 5usize..9,
        kernel in 2usize..4,
        time_steps in 1usize..5,
        conv_units in 1usize..3,
        batch in 1usize..5,
        seed in 0u64..1000,
    ) {
        let Some((model, inputs, config)) = build_scenario(ScenarioParams {
            c_in: 1, c_out, size, kernel, stride: 1, padding: 0,
            with_pool: true, time_steps, conv_units, columns: 3,
            batch, seed,
        }) else { return Ok(()) };
        let accel = Accelerator::new(config);
        let reports = accel.run_batch(&model, &inputs).unwrap();
        prop_assert_eq!(reports.len(), inputs.len());
        for (report, input) in reports.iter().zip(&inputs) {
            let solo = accel.run(&model, input).unwrap();
            prop_assert_eq!(report, &solo);
        }
    }

    /// Every report the streaming server hands back is bit-identical to a
    /// solo `run` (the sequential layer loop), for any micro-batch cap,
    /// submission order and completion path: inputs go in a generated
    /// permutation, each through a ticket or the tagged completion sink.
    #[test]
    fn stream_server_matches_sequential_oracle(
        c_out in 1usize..6,
        size in 5usize..9,
        kernel in 2usize..4,
        time_steps in 1usize..5,
        max_batch in 1usize..5,
        batch in 1usize..5,
        order_keys in proptest::collection::vec(0u64..1000, 4),
        tagged_mask in 0u32..16,
        seed in 0u64..1000,
    ) {
        let Some((model, inputs, config)) = build_scenario(ScenarioParams {
            c_in: 1, c_out, size, kernel, stride: 1, padding: 1,
            with_pool: true, time_steps, conv_units: 1, columns: 3,
            batch, seed,
        }) else { return Ok(()) };
        let server = StreamServer::start_with(config, model.clone(), ServerOptions {
            max_batch,
            ..ServerOptions::default()
        }).unwrap();
        let mut order: Vec<usize> = (0..inputs.len()).collect();
        order.sort_by_key(|&i| (order_keys[i], i));
        let (sink, completions) = CompletionSink::new(Arc::new(|| {}));
        let mut tickets = Vec::new();
        let mut tagged = 0usize;
        for index in order {
            if tagged_mask & (1 << index) != 0 {
                server.submit_tagged(inputs[index].clone(), index as u64, &sink).unwrap();
                tagged += 1;
            } else {
                tickets.push((index, server.submit(inputs[index].clone()).unwrap()));
            }
        }
        let mut served: Vec<Option<RunReport>> = vec![None; inputs.len()];
        for (index, ticket) in tickets {
            served[index] = Some(ticket.wait().unwrap());
        }
        for _ in 0..tagged {
            let completion = completions
                .recv_timeout(Duration::from_secs(60))
                .expect("tagged completion arrives");
            served[completion.tag as usize] = Some(completion.result.unwrap());
        }
        let stats = server.shutdown();
        prop_assert_eq!(stats.completed, inputs.len() as u64);
        prop_assert_eq!(stats.errors, 0);
        let accel = Accelerator::new(config);
        for (report, input) in served.into_iter().zip(&inputs) {
            let report = report.expect("every submission settled");
            prop_assert_eq!(report, accel.run(&model, input).unwrap());
        }
    }

    /// An all-silent input exercises the engine's word-level skip paths:
    /// the report still matches the functional model, the served report
    /// matches the solo one, and the processing units perform no
    /// data-dependent work.
    #[test]
    fn all_silent_input_is_bit_identical_and_workless(
        c_out in 1usize..6,
        size in 5usize..9,
        kernel in 2usize..4,
        time_steps in 1usize..5,
        seed in 0u64..1000,
    ) {
        let Some((model, _inputs, config)) = build_scenario(ScenarioParams {
            c_in: 1, c_out, size, kernel, stride: 1, padding: 0,
            with_pool: true, time_steps, conv_units: 1, columns: 2,
            batch: 2, seed,
        }) else { return Ok(()) };
        let silent = Tensor::filled(vec![1, size, size], 0.0f32);
        let accel = Accelerator::new(config);
        let report = accel.run(&model, &silent).unwrap();
        assert_matches_functional_and_timing(&accel, &model, &silent, &report);
        // The first convolution sees no spikes at all.
        prop_assert_eq!(report.layers[0].work.adder_ops, 0);
        // Cycles are still consumed: the schedule is input-independent.
        prop_assert!(report.layers[0].work.cycles > 0);

        let server = StreamServer::start(config, model.clone()).unwrap();
        let served = server.run_all(std::slice::from_ref(&silent)).unwrap();
        prop_assert_eq!(&served[0], &report);
    }
}
