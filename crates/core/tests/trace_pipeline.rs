//! End-to-end tests of the per-request tracing pipeline at the serving
//! core: every admitted request yields exactly one complete
//! `RequestTrace` under its request id, phase durations stay within
//! wall-clock bounds, terminal outcomes match the settled results,
//! tracing never leaks an open span, and — the contract that makes
//! tracing safe to leave on — SCORES are bit-identical with tracing on
//! and off.
//!
//! The <3% overhead smoke lives here too, `#[ignore]`d by default (it
//! measures wall-clock throughput, so it only runs where the machine is
//! quiet — the CI `observability` job invokes it explicitly).

use snn_accel::config::AcceleratorConfig;
use snn_accel::serve::{ServerOptions, StreamServer};
use snn_accel::AccelError;
use snn_model::convert::{convert, CalibrationStats, ConversionConfig};
use snn_model::params::Parameters;
use snn_model::snn::SnnModel;
use snn_model::zoo;
use snn_telemetry::{Outcome, Phase};
use snn_tensor::Tensor;
use std::collections::HashSet;
use std::time::{Duration, Instant};

fn tiny_setup(seed: u64, time_steps: usize, count: usize) -> (SnnModel, Vec<Tensor<f32>>) {
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
            time_steps,
        },
    )
    .unwrap();
    (model, inputs)
}

fn traced_options() -> ServerOptions {
    ServerOptions {
        trace: true,
        ..ServerOptions::default()
    }
}

#[test]
fn every_served_request_yields_one_complete_trace() {
    let (model, inputs) = tiny_setup(11, 3, 6);
    let server =
        StreamServer::start_with(AcceleratorConfig::default(), model, traced_options()).unwrap();
    let wall_start = Instant::now();
    let reports = server.run_all(&inputs).unwrap();
    let wall = wall_start.elapsed().as_secs_f64();
    assert_eq!(reports.len(), inputs.len());

    let recorder = server.recorder().clone();
    assert_eq!(recorder.open_spans(), 0, "no span may outlive its request");
    let traces = recorder.drain();
    assert_eq!(traces.len(), inputs.len(), "one trace per request");

    let ids: HashSet<u64> = traces.iter().map(|t| t.request_id).collect();
    assert_eq!(ids.len(), traces.len(), "request ids are unique");

    for trace in &traces {
        match &trace.outcome {
            Outcome::Scores { total_cycles } => assert!(*total_cycles > 0),
            other => panic!("served request traced as {other:?}"),
        }
        assert!(trace.queue_depth_at_route.is_some());
        for phase in [
            Phase::Admission,
            Phase::Route,
            Phase::QueueWait,
            Phase::BatchAssembly,
            Phase::Compute,
        ] {
            assert!(
                trace.phase_seconds(phase).is_some(),
                "missing phase {phase:?} in {trace:?}"
            );
        }
        let phase_sum: f64 = trace.phases.iter().map(|s| s.seconds).sum();
        assert!(
            phase_sum <= trace.total_seconds + 1e-6,
            "phases ({phase_sum}s) exceed the trace total ({}s)",
            trace.total_seconds
        );
        assert!(
            trace.total_seconds <= wall + 0.5,
            "trace total exceeds the run's wall clock"
        );
    }

    // The histograms saw every request.
    assert_eq!(recorder.duration_histogram().count(), inputs.len() as u64);
    assert_eq!(recorder.queue_wait_histogram().count(), inputs.len() as u64);
    assert_eq!(recorder.compute_histogram().count(), inputs.len() as u64);
    server.shutdown();
}

#[test]
fn scores_are_bit_identical_with_tracing_on_and_off_and_off_records_nothing() {
    let (model, inputs) = tiny_setup(23, 3, 5);
    let config = AcceleratorConfig::default();
    let traced = StreamServer::start_with(config, model.clone(), traced_options()).unwrap();
    let untraced = StreamServer::start_with(
        config,
        model,
        ServerOptions {
            trace: false,
            ..traced_options()
        },
    )
    .unwrap();

    let on = traced.run_all(&inputs).unwrap();
    let off = untraced.run_all(&inputs).unwrap();
    assert_eq!(on, off, "tracing must not perturb results");

    let recorder = untraced.recorder().clone();
    assert!(!recorder.enabled());
    assert_eq!(recorder.open_spans(), 0);
    assert!(
        recorder.drain().is_empty(),
        "disabled recorder stores no traces"
    );
    assert!(recorder.duration_histogram().is_empty());
    assert_eq!(traced.recorder().drain().len(), inputs.len());
    traced.shutdown();
    untraced.shutdown();
}

#[test]
fn deadline_sheds_trace_the_rejected_deadline_outcome() {
    let (model, inputs) = tiny_setup(31, 3, 4);
    let server = StreamServer::start_with(
        AcceleratorConfig::default(),
        model,
        ServerOptions {
            // A zero queue-wait deadline sheds every submission before
            // compute, deterministically.
            max_queue_wait: Some(Duration::ZERO),
            ..traced_options()
        },
    )
    .unwrap();
    let tickets: Vec<_> = inputs
        .iter()
        .map(|i| server.submit(i.clone()).unwrap())
        .collect();
    for ticket in tickets {
        match ticket.wait() {
            Err(AccelError::DeadlineExceeded { .. }) => {}
            other => panic!("expected a deadline shed, got {other:?}"),
        }
    }
    let recorder = server.recorder().clone();
    assert_eq!(recorder.open_spans(), 0);
    let traces = recorder.drain();
    assert_eq!(traces.len(), inputs.len());
    for trace in &traces {
        assert_eq!(
            trace.outcome,
            Outcome::Rejected {
                scope: "deadline".to_string()
            },
            "shed request traced as {trace:?}"
        );
        // A shed request reached a queue but never computed.
        assert!(trace.phase_seconds(Phase::QueueWait).is_some());
        assert!(trace.phase_seconds(Phase::Compute).is_none());
    }
    server.shutdown();
}

/// The overhead budget pinned by the issue: tracing on may cost at most
/// 3% throughput versus `SNN_TRACE=0`.  Wall-clock measurement, so the
/// test is `#[ignore]`d in the default tier and invoked explicitly by
/// the CI `observability` job (best-of-3 rounds each way to shed
/// scheduler noise).
#[test]
#[ignore = "wall-clock smoke; run explicitly: cargo test --release -- --ignored overhead_budget"]
fn overhead_budget_tracing_costs_under_three_percent() {
    let (model, inputs) = tiny_setup(47, 3, 8);
    let config = AcceleratorConfig::default();
    let mut repeated = Vec::with_capacity(inputs.len() * 25);
    for _ in 0..25 {
        repeated.extend(inputs.iter().cloned());
    }

    let best = |trace: bool| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let server = StreamServer::start_with(
                config,
                model.clone(),
                ServerOptions {
                    trace,
                    ..traced_options()
                },
            )
            .unwrap();
            let started = Instant::now();
            server.run_all(&repeated).unwrap();
            best = best.min(started.elapsed().as_secs_f64());
            server.shutdown();
        }
        best
    };

    // Warm caches and thread pools on a throwaway round.
    best(false);
    let off = best(false);
    let on = best(true);
    let overhead = (on - off) / off;
    assert!(
        overhead < 0.03,
        "tracing overhead {:.2}% exceeds the 3% budget (on {on:.4}s, off {off:.4}s)",
        overhead * 100.0
    );
}
