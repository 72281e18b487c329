//! Chaos-tier tracing tests (fault-injection builds only): deliberate
//! engine crashes and engine panics must still produce exactly one
//! trace per request with the correct terminal outcome, and the recorder
//! must never be left holding an open span — supervision settles every
//! stranded submission, and settling publishes its trace.
#![cfg(feature = "fault-injection")]

use snn_accel::config::AcceleratorConfig;
use snn_accel::serve::{poison, ServerOptions, StreamServer};
use snn_accel::AccelError;
use snn_model::convert::{convert, CalibrationStats, ConversionConfig};
use snn_model::params::Parameters;
use snn_model::snn::SnnModel;
use snn_model::zoo;
use snn_telemetry::Outcome;
use snn_tensor::Tensor;

fn tiny_setup(seed: u64, count: usize) -> (SnnModel, Vec<Tensor<f32>>) {
    let net = zoo::tiny_cnn();
    let params = Parameters::he_init(&net, seed).unwrap();
    let inputs: Vec<Tensor<f32>> = (0..count)
        .map(|i| {
            let values: Vec<f32> = (0..144)
                .map(|j| {
                    let x = (j as u64 * 2654435761).wrapping_add(seed + i as u64 * 7919);
                    (x % 97) as f32 / 96.0
                })
                .collect();
            Tensor::from_vec(vec![1, 12, 12], values).unwrap()
        })
        .collect();
    let stats = CalibrationStats::collect(&net, &params, inputs.iter()).unwrap();
    let model = convert(
        &net,
        &params,
        &stats,
        ConversionConfig {
            weight_bits: 3,
            time_steps: 3,
        },
    )
    .unwrap();
    (model, inputs)
}

fn poisoned(mut input: Tensor<f32>, value: f32) -> Tensor<f32> {
    input.as_mut_slice()[0] = value;
    input
}

#[test]
fn kill_pill_traces_replica_down_and_leaks_no_spans() {
    let (model, inputs) = tiny_setup(71, 3);
    let server = StreamServer::start_with(
        AcceleratorConfig::default(),
        model,
        ServerOptions {
            trace: true,
            ..ServerOptions::default()
        },
    )
    .unwrap();

    let ticket = server
        .submit(poisoned(inputs[0].clone(), poison::kill_pill()))
        .unwrap();
    match ticket.wait() {
        Err(AccelError::ReplicaDown { .. }) => {}
        other => panic!("expected ReplicaDown, got {other:?}"),
    }

    let recorder = server.recorder().clone();
    assert_eq!(recorder.open_spans(), 0, "supervision settles every span");
    let traces = recorder.drain();
    assert_eq!(traces.len(), 1);
    assert_eq!(traces[0].outcome, Outcome::ReplicaDown);

    // The engine is dead: the next submission fails at admission and its
    // trace carries the serving error code.
    match server.submit(inputs[1].clone()) {
        Err(AccelError::Serving { .. }) => {}
        other => panic!("expected Serving after the engine died, got {other:?}"),
    }
    assert_eq!(recorder.open_spans(), 0);
    let traces = recorder.drain();
    assert_eq!(traces.len(), 1);
    assert_eq!(
        traces[0].outcome,
        Outcome::Error {
            code: "serving".to_string()
        }
    );
    assert_eq!(traces[0].queue_depth_at_route, None, "never queued");
    server.shutdown();
}

#[test]
fn poison_pill_traces_engine_panic_while_siblings_trace_scores() {
    let (model, inputs) = tiny_setup(83, 4);
    let server = StreamServer::start_with(
        AcceleratorConfig::default(),
        model,
        ServerOptions {
            trace: true,
            ..ServerOptions::default()
        },
    )
    .unwrap();

    let bad = server
        .submit(poisoned(inputs[0].clone(), poison::pill()))
        .unwrap();
    let good: Vec<_> = inputs[1..]
        .iter()
        .map(|i| server.submit(i.clone()).unwrap())
        .collect();
    match bad.wait() {
        Err(AccelError::EnginePanic { .. }) => {}
        other => panic!("expected EnginePanic, got {other:?}"),
    }
    for ticket in good {
        ticket.wait().unwrap();
    }

    let recorder = server.recorder().clone();
    assert_eq!(recorder.open_spans(), 0);
    let traces = recorder.drain();
    assert_eq!(traces.len(), inputs.len());
    let panics = traces
        .iter()
        .filter(|t| {
            t.outcome
                == Outcome::Error {
                    code: "engine_panic".to_string(),
                }
        })
        .count();
    let scores = traces
        .iter()
        .filter(|t| matches!(t.outcome, Outcome::Scores { .. }))
        .count();
    assert_eq!(panics, 1, "exactly the poisoned request traces a panic");
    assert_eq!(scores, inputs.len() - 1);
    server.shutdown();
}
