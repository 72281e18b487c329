//! End-to-end tracing over real sockets: every pipelined request served
//! by a `NetServer` yields exactly one complete
//! `RequestTrace` retrievable over the wire (framed STATS format `2` or
//! the plaintext `TRACES` line), with per-phase durations inside
//! wall-clock bounds and a `WriteStall` span amended by the reactor.
//! Tracing must not perturb results: scores stay bit-identical with the
//! recorder on and off.  The suite also pins the exposition parity
//! contract — plaintext and Prometheus STATS enumerate the same counter
//! key set.

use snn_accel::config::AcceleratorConfig;
use snn_accel::serve::ServerOptions;
use snn_model::convert::{convert, CalibrationStats, ConversionConfig};
use snn_model::params::Parameters;
use snn_model::snn::SnnModel;
use snn_model::zoo;
use snn_net::{scrape_traces, NetClient, NetOptions, NetServer};
use snn_telemetry::{Outcome, Phase, RequestTrace};
use snn_tensor::Tensor;
use std::collections::{BTreeSet, HashSet};
use std::time::Instant;

fn tiny_setup(count: usize) -> (SnnModel, Vec<Tensor<f32>>) {
    let net = zoo::tiny_cnn();
    let params = Parameters::he_init(&net, 13).unwrap();
    let inputs: Vec<Tensor<f32>> = (0..count)
        .map(|i| {
            let values: Vec<f32> = (0..144)
                .map(|j| ((i * 31 + j * 7) % 100) as f32 / 100.0)
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

fn traced_net_options(trace: bool) -> NetOptions {
    NetOptions {
        server: ServerOptions {
            trace,
            ..ServerOptions::default()
        },
        ..NetOptions::default()
    }
}

fn parse_jsonl(dump: &str) -> Vec<RequestTrace> {
    dump.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            RequestTrace::from_json_line(l).unwrap_or_else(|| panic!("unparseable trace: {l}"))
        })
        .collect()
}

/// The acceptance pin: pipelined requests over a loopback server each
/// produce one complete trace, correlated by request id,
/// with phase sums inside the observed wall clock.
#[test]
fn every_pipelined_request_yields_one_complete_trace_over_the_wire() {
    let (model, inputs) = tiny_setup(2);
    let server = NetServer::bind(
        "127.0.0.1:0",
        AcceleratorConfig::default(),
        model,
        traced_net_options(true),
    )
    .unwrap();
    let batch: Vec<Tensor<f32>> = (0..8).map(|i| inputs[i % inputs.len()].clone()).collect();

    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let wall_start = Instant::now();
    let replies = client.infer_many(&batch).unwrap();
    let wall = wall_start.elapsed().as_secs_f64();
    for reply in &replies {
        assert!(reply.is_ok(), "pipelined inference failed: {reply:?}");
    }

    let traces = parse_jsonl(&client.stats_traces().unwrap());
    assert_eq!(traces.len(), batch.len(), "one trace per request");
    let ids: HashSet<u64> = traces.iter().map(|t| t.request_id).collect();
    assert_eq!(ids.len(), traces.len(), "request ids are unique");

    for trace in &traces {
        match &trace.outcome {
            Outcome::Scores { total_cycles } => assert!(*total_cycles > 0),
            other => panic!("served request traced as {other:?}"),
        }
        assert!(trace.queue_depth_at_route.is_some(), "routed: {trace:?}");
        for phase in [
            Phase::Admission,
            Phase::Route,
            Phase::QueueWait,
            Phase::BatchAssembly,
            Phase::Compute,
        ] {
            assert!(
                trace.phase_seconds(phase).is_some(),
                "missing {phase:?} in {trace:?}"
            );
        }
        // The reactor amends each served trace with its reply's
        // write-queue residency once the kernel accepts the bytes — and
        // the client has the reply in hand, so the bytes were accepted.
        assert!(
            trace.phase_seconds(Phase::WriteStall).is_some(),
            "missing WriteStall in {trace:?}"
        );
        // WriteStall happens after settle, so it is excluded from the
        // in-pipeline total; the in-pipeline phases must fit inside it.
        let in_pipeline: f64 = trace
            .phases
            .iter()
            .filter(|s| s.phase != Phase::WriteStall)
            .map(|s| s.seconds)
            .sum();
        assert!(
            in_pipeline <= trace.total_seconds + 1e-6,
            "phases ({in_pipeline}s) exceed trace total ({}s)",
            trace.total_seconds
        );
        assert!(trace.total_seconds <= wall + 0.5);
    }

    // The drain was destructive: a second scrape starts empty.
    assert!(client.stats_traces().unwrap().is_empty());

    // The Prometheus exposition carries the histogram families fed by
    // the same requests.
    let prom = client.stats_prometheus().unwrap();
    for family in [
        "snn_request_queue_wait_seconds",
        "snn_request_compute_seconds",
        "snn_request_duration_seconds",
        "snn_reactor_write_stall_seconds",
    ] {
        assert!(
            prom.contains(&format!("# TYPE {family} histogram")),
            "missing {family} in: {prom}"
        );
    }
    let count_line = format!("snn_request_duration_seconds_count {}\n", batch.len());
    assert!(prom.contains(&count_line), "missing {count_line}");
    server.shutdown();
}

#[test]
fn scores_over_tcp_are_bit_identical_with_tracing_on_and_off() {
    let (model, inputs) = tiny_setup(3);
    let config = AcceleratorConfig::default();
    let traced = NetServer::bind(
        "127.0.0.1:0",
        config,
        model.clone(),
        traced_net_options(true),
    )
    .unwrap();
    let untraced =
        NetServer::bind("127.0.0.1:0", config, model, traced_net_options(false)).unwrap();

    let mut on_client = NetClient::connect(traced.local_addr()).unwrap();
    let mut off_client = NetClient::connect(untraced.local_addr()).unwrap();
    for input in &inputs {
        let on = on_client.infer(input).unwrap();
        let off = off_client.infer(input).unwrap();
        assert_eq!(on.logits, off.logits, "tracing must not perturb scores");
        assert_eq!(on.prediction, off.prediction);
        assert_eq!(on.total_cycles, off.total_cycles);
    }

    // A disabled recorder serves empty trace dumps and empty histograms,
    // but the exposition still enumerates the families (count 0).
    assert!(off_client.stats_traces().unwrap().is_empty());
    let prom = off_client.stats_prometheus().unwrap();
    assert!(prom.contains("snn_request_duration_seconds_count 0\n"));
    assert!(!on_client.stats_traces().unwrap().is_empty());
    traced.shutdown();
    untraced.shutdown();
}

/// The `nc`-style plaintext `TRACES` line drains the same JSONL dump as
/// the framed format-2 request, destructively.
#[test]
fn plaintext_traces_line_drains_the_ring_as_jsonl() {
    let (model, inputs) = tiny_setup(3);
    let server = NetServer::bind(
        "127.0.0.1:0",
        AcceleratorConfig::default(),
        model,
        traced_net_options(true),
    )
    .unwrap();
    let addr = server.local_addr();

    let mut client = NetClient::connect(addr).unwrap();
    for input in &inputs {
        client.infer(input).unwrap();
    }
    drop(client);

    let traces = parse_jsonl(&scrape_traces(addr).unwrap());
    assert_eq!(traces.len(), inputs.len());
    for trace in &traces {
        assert!(matches!(trace.outcome, Outcome::Scores { .. }));
        assert_eq!(
            trace.queue_depth_at_route,
            Some(0),
            "one client, one request at a time"
        );
    }
    assert!(
        scrape_traces(addr).unwrap().is_empty(),
        "the plaintext drain is destructive too"
    );
    server.shutdown();
}

/// Normalises one exposition key for the parity diff: strips the `snn_`
/// prefix and `_total` suffix, drops histogram bucket series (plaintext
/// carries only the `_count`/`_sum` summaries).
fn normalize(name: &str) -> Option<String> {
    let name = name.strip_prefix("snn_").unwrap_or(name);
    if name.ends_with("_bucket") {
        return None;
    }
    Some(name.strip_suffix("_total").unwrap_or(name).to_string())
}

fn text_key_set(text: &str) -> BTreeSet<String> {
    let mut keys = BTreeSet::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("reactor[") {
            let fields = rest.split_once("]: ").expect("reactor line").1;
            for field in fields.split_whitespace() {
                let key = field.split_once('=').expect("field=value").0;
                keys.insert(format!("reactor_{key}"));
            }
        } else if let Some(rest) = line.strip_prefix("unit[") {
            let fields = rest.split_once("]: ").expect("unit line").1;
            for field in fields.split_whitespace() {
                let key = field.split_once('=').expect("field=value").0;
                // Plaintext says `units=`, Prometheus `snn_unit_count`.
                let key = if key == "units" {
                    "unit_count".to_string()
                } else {
                    format!("unit_{key}")
                };
                keys.insert(key);
            }
        } else {
            let key = line.split_once(':').expect("key: value").0;
            keys.extend(normalize(key));
        }
    }
    keys
}

fn prometheus_key_set(prom: &str) -> BTreeSet<String> {
    prom.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split(['{', ' ']).next().expect("metric name"))
        .filter_map(normalize)
        .collect()
}

/// The parity pin: every counter one STATS format exposes, the other
/// exposes too (modulo the mechanical `snn_`/`_total` naming and the
/// histogram bucket series).  A key added to one renderer but not the
/// other fails this diff with the exact missing names.
#[test]
fn stats_text_and_prometheus_enumerate_the_same_key_set() {
    let (model, inputs) = tiny_setup(2);
    // Two reactor shards so the per-shard `reactor[i]` lines and their
    // Prometheus label series are both multi-entry.
    let server = NetServer::bind(
        "127.0.0.1:0",
        AcceleratorConfig::default(),
        model,
        NetOptions {
            reactors: 2,
            ..traced_net_options(true)
        },
    )
    .unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    for input in &inputs {
        client.infer(input).unwrap();
    }

    let text_keys = text_key_set(&client.stats_text().unwrap());
    let prom_keys = prometheus_key_set(&client.stats_prometheus().unwrap());
    let only_text: Vec<&String> = text_keys.difference(&prom_keys).collect();
    let only_prom: Vec<&String> = prom_keys.difference(&text_keys).collect();
    assert!(
        only_text.is_empty() && only_prom.is_empty(),
        "exposition formats diverge — text-only: {only_text:?}, prometheus-only: {only_prom:?}"
    );
    server.shutdown();
}
