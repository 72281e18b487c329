//! End-to-end loopback tests: real sockets, real threads, one process.
//!
//! The key pins: scores received over TCP are bit-identical to the
//! matching in-process `StreamServer::submit`; a full submission queue
//! answers with a typed REJECTED frame carrying a retry-after hint (and
//! `ServerStats::rejected` counts it); malformed bytes get a protocol
//! error, not a hang; shutdown is clean and drains accepted work.

use snn_accel::config::AcceleratorConfig;
use snn_accel::serve::{ServerOptions, StreamServer};
use snn_model::convert::{convert, CalibrationStats, ConversionConfig};
use snn_model::params::Parameters;
use snn_model::snn::SnnModel;
use snn_model::zoo;
use snn_net::protocol::{error_code, reject_scope, Frame};
use snn_net::{scrape_stats, NetClient, NetError, NetOptions, NetServer};
use snn_tensor::Tensor;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fn converted_model(
    net: snn_model::network::NetworkSpec,
    side: usize,
    time_steps: usize,
    count: usize,
) -> (SnnModel, Vec<Tensor<f32>>) {
    let params = Parameters::he_init(&net, 11).unwrap();
    let volume = side * side;
    let inputs: Vec<Tensor<f32>> = (0..count)
        .map(|i| {
            let values: Vec<f32> = (0..volume)
                .map(|j| ((i * 17 + j * 5) % 100) as f32 / 100.0)
                .collect();
            Tensor::from_vec(vec![1, side, side], values).unwrap()
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

fn tiny_setup(count: usize) -> (SnnModel, Vec<Tensor<f32>>) {
    converted_model(zoo::tiny_cnn(), 12, 3, count)
}

fn lenet_setup(count: usize) -> (SnnModel, Vec<Tensor<f32>>) {
    converted_model(zoo::lenet5(), 32, 4, count)
}

/// The acceptance pin: a LeNet inference served over TCP returns scores
/// bit-identical to the matching in-process `StreamServer::submit`.
#[test]
fn lenet_scores_over_tcp_match_in_process_submit_bit_exactly() {
    let (model, inputs) = lenet_setup(2);
    let config = AcceleratorConfig::lenet_table3();
    let net_server =
        NetServer::bind("127.0.0.1:0", config, model.clone(), NetOptions::default()).unwrap();
    let in_process = StreamServer::start(config, model).unwrap();

    let mut client = NetClient::connect(net_server.local_addr()).unwrap();
    for input in &inputs {
        let wire = client.infer(input).unwrap();
        let solo = in_process.submit(input.clone()).unwrap().wait().unwrap();
        assert_eq!(wire.logits, solo.logits, "logits must be bit-identical");
        assert_eq!(wire.prediction as usize, solo.prediction);
        assert_eq!(wire.time_steps as usize, solo.time_steps);
        assert_eq!(wire.total_cycles, solo.total_cycles());
        assert_eq!(wire.thread_budget as usize, solo.thread_budget);
    }
    drop(client);
    let stats = net_server.shutdown();
    assert_eq!(stats.requests, inputs.len() as u64);
    assert_eq!(stats.server.completed, inputs.len() as u64);
    assert_eq!(stats.protocol_errors, 0);
    in_process.shutdown();
}

/// The pipelining acceptance pin: ten LeNet inferences **in flight at once
/// on a single connection** come back correctly correlated and with logits
/// bit-identical to the sequential in-process `StreamServer::submit`.
#[test]
fn pipelined_lenet_scores_on_one_connection_match_sequential_submit() {
    let (model, inputs) = lenet_setup(2);
    let config = AcceleratorConfig::lenet_table3();
    let net_server =
        NetServer::bind("127.0.0.1:0", config, model.clone(), NetOptions::default()).unwrap();
    let in_process = StreamServer::start(config, model).unwrap();

    // >= 8 in-flight requests on one connection (the acceptance floor).
    let batch: Vec<Tensor<f32>> = (0..10).map(|i| inputs[i % inputs.len()].clone()).collect();
    let mut client = NetClient::connect(net_server.local_addr()).unwrap();
    let replies = client.infer_many(&batch).unwrap();
    assert_eq!(replies.len(), batch.len());
    for (reply, input) in replies.iter().zip(&batch) {
        let wire = reply.as_ref().expect("pipelined inference succeeds");
        let solo = in_process.submit(input.clone()).unwrap().wait().unwrap();
        assert_eq!(wire.logits, solo.logits, "logits must be bit-identical");
        assert_eq!(wire.prediction as usize, solo.prediction);
        assert_eq!(wire.total_cycles, solo.total_cycles());
    }
    drop(client);
    let stats = net_server.shutdown();
    assert_eq!(stats.requests, batch.len() as u64);
    assert_eq!(stats.server.completed, batch.len() as u64);
    assert_eq!(stats.protocol_errors, 0);
    in_process.shutdown();
}

#[test]
fn many_requests_per_connection_and_stats_accumulate() {
    let (model, inputs) = tiny_setup(5);
    let server = NetServer::bind(
        "127.0.0.1:0",
        AcceleratorConfig::default(),
        model,
        NetOptions::default(),
    )
    .unwrap();
    let addr = server.local_addr();

    let mut client = NetClient::connect(addr).unwrap();
    for input in &inputs {
        let reply = client.infer(input).unwrap();
        assert!(!reply.logits.is_empty());
    }
    // Framed stats on the same connection, which stays usable.
    let text = client.stats_text().unwrap();
    assert!(text.contains("completed: 5"), "stats text: {text}");
    assert!(text.contains("queue_capacity:"));
    assert!(text.contains("unit["));
    assert!(client.infer(&inputs[0]).is_ok());

    // Plaintext one-shot scrape on a fresh connection.
    let scraped = scrape_stats(addr).unwrap();
    assert!(scraped.contains("completed: 6"), "scraped: {scraped}");
    assert!(scraped.contains("connections_accepted:"));

    let stats = server.shutdown();
    assert_eq!(stats.requests, 6);
    assert_eq!(stats.stats_requests, 2);
    assert!(stats.accepted >= 2);
}

/// Concurrent connections against a one-slot queue force the admission
/// policy to shed load; the client sees a typed REJECTED frame with a
/// positive retry-after hint, and the server counts the rejection.
#[test]
fn full_queue_rejects_over_tcp_with_a_retry_hint() {
    let (model, inputs) = tiny_setup(2);
    let server = NetServer::bind(
        "127.0.0.1:0",
        AcceleratorConfig::default(),
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
    .unwrap();
    let addr = server.local_addr();

    let rejected = Arc::new(AtomicBool::new(false));
    let hint_ms = Arc::new(AtomicU64::new(0));
    let completed = Arc::new(AtomicU64::new(0));
    let threads: Vec<_> = (0..4)
        .map(|t| {
            let rejected = Arc::clone(&rejected);
            let hint_ms = Arc::clone(&hint_ms);
            let completed = Arc::clone(&completed);
            let input = inputs[t % inputs.len()].clone();
            std::thread::spawn(move || {
                let mut client = NetClient::connect(addr).unwrap();
                for _ in 0..50 {
                    if rejected.load(Ordering::Acquire) {
                        break;
                    }
                    match client.infer(&input) {
                        Ok(_) => {
                            completed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(NetError::Rejected(reply)) => {
                            assert_eq!(reply.scope, reject_scope::QUEUE);
                            assert_eq!(reply.capacity, 1);
                            assert!(reply.retry_after_ms >= 1, "hint must be positive");
                            hint_ms.store(reply.retry_after_ms, Ordering::Relaxed);
                            rejected.store(true, Ordering::Release);
                            break;
                        }
                        Err(other) => panic!("unexpected error: {other}"),
                    }
                }
            })
        })
        .collect();
    for thread in threads {
        thread.join().unwrap();
    }

    assert!(
        rejected.load(Ordering::Acquire),
        "four concurrent connections against a one-slot queue must shed \
         at least once within 200 requests"
    );
    assert!(hint_ms.load(Ordering::Relaxed) >= 1);
    let stats = server.shutdown();
    assert!(stats.server.rejected >= 1, "rejection must be counted");
    assert_eq!(stats.server.completed, completed.load(Ordering::Relaxed));
}

#[test]
fn backpressure_retry_helper_eventually_succeeds() {
    let (model, inputs) = tiny_setup(1);
    let server = NetServer::bind(
        "127.0.0.1:0",
        AcceleratorConfig::default(),
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
    .unwrap();
    let addr = server.local_addr();
    // Saturate from a background connection while the foreground client
    // retries with the server's own hints.
    let stop = Arc::new(AtomicBool::new(false));
    let pressure = {
        let stop = Arc::clone(&stop);
        let input = inputs[0].clone();
        std::thread::spawn(move || {
            let mut client = NetClient::connect(addr).unwrap();
            while !stop.load(Ordering::Acquire) {
                let _ = client.infer(&input);
            }
        })
    };
    let mut client = NetClient::connect(addr).unwrap();
    // A tight deterministic backoff keeps the test fast while still
    // exercising the jittered-retry path end to end.
    let policy = snn_net::BackoffPolicy {
        base_ms: 2,
        cap_ms: 50,
        seed: 42,
    };
    let reply = client
        .infer_with_retry_using(&inputs[0], 200, &policy)
        .unwrap();
    assert!(!reply.logits.is_empty());
    stop.store(true, Ordering::Release);
    pressure.join().unwrap();
    server.shutdown();
}

#[test]
fn bad_input_shape_gets_a_typed_error_and_the_connection_survives() {
    let (model, inputs) = tiny_setup(1);
    let server = NetServer::bind(
        "127.0.0.1:0",
        AcceleratorConfig::default(),
        model,
        NetOptions::default(),
    )
    .unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let wrong = Tensor::filled(vec![1, 5, 5], 0.5f32);
    match client.infer(&wrong) {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, error_code::BAD_REQUEST),
        other => panic!("expected a remote error, got {other:?}"),
    }
    // The error was request-scoped, not connection-scoped.
    assert!(client.infer(&inputs[0]).is_ok());
    let stats = server.shutdown();
    assert_eq!(stats.server.errors, 1);
    assert_eq!(stats.server.completed, 1);
}

#[test]
fn malformed_bytes_get_a_protocol_error_reply_and_a_close() {
    let (model, _) = tiny_setup(1);
    let server = NetServer::bind(
        "127.0.0.1:0",
        AcceleratorConfig::default(),
        model,
        NetOptions::default(),
    )
    .unwrap();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).unwrap(); // server closes after the error
    let (frame, _) = Frame::decode(&reply).unwrap().expect("one error frame");
    match frame {
        Frame::Error(err) => assert_eq!(err.code, error_code::PROTOCOL),
        other => panic!("expected an error frame, got {other:?}"),
    }
    let stats = server.shutdown();
    assert_eq!(stats.protocol_errors, 1);
}

#[test]
fn shutdown_is_clean_and_reports_final_stats() {
    let (model, inputs) = tiny_setup(3);
    let server = NetServer::bind(
        "127.0.0.1:0",
        AcceleratorConfig::default(),
        model,
        NetOptions::default(),
    )
    .unwrap();
    let addr = server.local_addr();
    let mut client = NetClient::connect(addr).unwrap();
    for input in &inputs {
        client.infer(input).unwrap();
    }
    let stats = server.shutdown();
    assert_eq!(stats.server.completed, 3);
    assert_eq!(stats.server.errors, 0);
    assert_eq!(stats.turned_away, 0);
    // The listener is gone: new connections are refused (or reset).
    assert!(
        NetClient::connect(addr).is_err() || {
            let mut c = NetClient::connect(addr).unwrap();
            c.infer(&inputs[0]).is_err()
        }
    );
}

#[test]
fn a_failed_exchange_poisons_the_client_connection() {
    // A fake server that answers with garbage: the first call fails with a
    // protocol error, and the client must then refuse to reuse the stream
    // (a late reply could otherwise answer the wrong request).
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        let mut scratch = [0u8; 1024];
        let _ = conn.read(&mut scratch);
        conn.write_all(b"NOT A FRAME AT ALL").unwrap();
        conn.shutdown(std::net::Shutdown::Both).ok();
    });
    let mut client = NetClient::connect(addr).unwrap();
    match client.stats_text() {
        Err(NetError::Protocol(_)) => {}
        other => panic!("expected a protocol error, got {other:?}"),
    }
    match client.stats_text() {
        Err(NetError::Poisoned) => {}
        other => panic!("expected Poisoned on reuse, got {other:?}"),
    }
    fake.join().unwrap();
}

#[test]
fn idle_connections_forfeit_their_slot() {
    let (model, inputs) = tiny_setup(1);
    let server = NetServer::bind(
        "127.0.0.1:0",
        AcceleratorConfig::default(),
        model,
        NetOptions {
            idle_timeout: std::time::Duration::from_millis(100),
            poll_interval: std::time::Duration::from_millis(10),
            ..NetOptions::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    // A silent connection is closed by the idle deadline (read sees EOF)...
    let mut silent = TcpStream::connect(addr).unwrap();
    silent
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();
    let mut scratch = [0u8; 16];
    assert_eq!(silent.read(&mut scratch).unwrap(), 0, "expected EOF");
    // ...and its slot is back: a real client is admitted and served.
    let mut client = NetClient::connect(addr).unwrap();
    assert!(client.infer(&inputs[0]).is_ok());
    server.shutdown();
}

/// Past `max_connections` the reactor sheds new connections with a typed
/// REJECTED frame (`scope = connections`) — written non-blockingly, no
/// thread spawned — and the slot frees once an admitted peer leaves.
#[test]
fn connection_cap_sheds_with_a_typed_rejection() {
    let (model, inputs) = tiny_setup(1);
    let server = NetServer::bind(
        "127.0.0.1:0",
        AcceleratorConfig::default(),
        model,
        NetOptions {
            max_connections: 1,
            poll_interval: std::time::Duration::from_millis(5),
            ..NetOptions::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    // Occupy the only slot with a served connection.
    let mut first = NetClient::connect(addr).unwrap();
    first.infer(&inputs[0]).unwrap();
    // The second connection is shed: it sees one REJECTED frame, then EOF.
    let mut second = NetClient::connect(addr).unwrap();
    match second.infer(&inputs[0]) {
        Err(NetError::Rejected(reply)) => {
            assert_eq!(reply.scope, reject_scope::CONNECTIONS);
            assert_eq!(reply.capacity, 1);
            assert!(reply.retry_after_ms >= 1, "hint must be positive");
        }
        other => panic!("expected a connection-scope rejection, got {other:?}"),
    }
    // Free the slot; a new connection is admitted and served.
    drop(first);
    let mut retry = NetClient::connect(addr).unwrap();
    let mut served = false;
    for _ in 0..100 {
        match retry.infer(&inputs[0]) {
            Ok(_) => {
                served = true;
                break;
            }
            Err(err) if err.is_backpressure() => {
                std::thread::sleep(std::time::Duration::from_millis(10));
                retry = NetClient::connect(addr).unwrap();
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert!(served, "the freed slot must admit a new connection");
    let stats = server.shutdown();
    assert!(stats.turned_away >= 1, "the shed must be counted");
}

/// The STATS content-negotiation byte: Prometheus exposition carries
/// `# TYPE` metadata and `snn_`-prefixed samples that agree with the
/// plaintext counters.
#[test]
fn stats_negotiation_serves_prometheus_exposition() {
    let (model, inputs) = tiny_setup(2);
    let server = NetServer::bind(
        "127.0.0.1:0",
        AcceleratorConfig::default(),
        model,
        NetOptions::default(),
    )
    .unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    for input in &inputs {
        client.infer(input).unwrap();
    }
    let text = client.stats_text().unwrap();
    assert!(text.contains("completed: 2"), "plaintext: {text}");
    assert!(text.contains("panics: 0"), "plaintext: {text}");
    assert!(text.contains("deadline_sheds: 0"), "plaintext: {text}");
    assert!(text.contains("reactor_alive: 1"), "plaintext: {text}");
    let prom = client.stats_prometheus().unwrap();
    assert!(
        prom.contains("# TYPE snn_completed_total counter"),
        "prometheus: {prom}"
    );
    assert!(
        prom.contains("\nsnn_completed_total 2\n"),
        "prometheus: {prom}"
    );
    // The supervision counters are first-class in both formats: a scrape
    // can alert on engine panics and deadline sheds without new plumbing.
    assert!(
        prom.contains("# TYPE snn_panics_total counter\nsnn_panics_total 0\n"),
        "prometheus: {prom}"
    );
    assert!(
        prom.contains("# TYPE snn_deadline_sheds_total counter\nsnn_deadline_sheds_total 0\n"),
        "prometheus: {prom}"
    );
    assert!(
        prom.contains("# TYPE snn_reactor_alive gauge\nsnn_reactor_alive 1\n"),
        "prometheus: {prom}"
    );
    assert!(prom.contains("# TYPE snn_queue_capacity gauge"));
    assert!(
        prom.contains("snn_unit_utilisation{unit=\"Convolution\"}"),
        "per-unit samples must be labelled: {prom}"
    );
    // Every sample line belongs to a snn_-prefixed metric.
    for line in prom.lines() {
        assert!(
            line.starts_with("# TYPE snn_")
                || line.starts_with("# HELP snn_")
                || line.starts_with("snn_"),
            "stray exposition line: {line}"
        );
    }
    // The connection survives both scrapes.
    assert!(client.infer(&inputs[0]).is_ok());
    let stats = server.shutdown();
    assert_eq!(stats.stats_requests, 2);
}

#[test]
fn degenerate_server_options_fail_bind_with_a_typed_error() {
    let (model, _) = tiny_setup(1);
    let result = NetServer::bind(
        "127.0.0.1:0",
        AcceleratorConfig::default(),
        model,
        NetOptions {
            server: ServerOptions {
                queue_capacity: 0,
                ..ServerOptions::default()
            },
            ..NetOptions::default()
        },
    );
    match result {
        Err(NetError::Accel(err)) => assert!(err.to_string().contains("queue_capacity")),
        other => panic!("expected an accel error, got {:?}", other.map(|_| ())),
    }
}
