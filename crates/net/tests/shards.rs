//! Sharded-reactor loopback suite: with the front-end split into N
//! reactor shards, results must be indistinguishable from the
//! single-reactor server — scores stay bit-identical to the in-process
//! `StreamServer::submit` — while the sharding itself is visible in the per-reactor stats (round-robin
//! accept distribution, handoff counts) and the global connection cap
//! holds exactly across shards.  Also pins the edge-trigger starvation
//! regression: a socket whose readable bytes outlast one fairness burst
//! must be re-served from the reactor's hot list, because epoll will
//! never re-report the edge.

use snn_accel::config::AcceleratorConfig;
use snn_accel::serve::StreamServer;
use snn_model::convert::{convert, CalibrationStats, ConversionConfig};
use snn_model::params::Parameters;
use snn_model::snn::SnnModel;
use snn_model::zoo;
use snn_net::protocol::reject_scope;
use snn_net::{NetClient, NetError, NetOptions, NetServer};
use snn_tensor::Tensor;
use std::time::Duration;

fn tiny_setup(count: usize) -> (SnnModel, Vec<Tensor<f32>>) {
    let net = zoo::tiny_cnn();
    let params = Parameters::he_init(&net, 19).unwrap();
    let inputs: Vec<Tensor<f32>> = (0..count)
        .map(|i| {
            let values: Vec<f32> = (0..144)
                .map(|j| ((i * 23 + j * 3) % 100) as f32 / 100.0)
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

fn sharded_options(reactors: usize) -> NetOptions {
    NetOptions {
        reactors,
        poll_interval: Duration::from_millis(5),
        ..NetOptions::default()
    }
}

/// The sharding exactness pin: three reactor shards serving three
/// concurrent connections (so every shard owns one) return logits
/// bit-identical to the in-process submit.
#[test]
fn sharded_scores_match_in_process_submit() {
    let (model, inputs) = tiny_setup(4);
    let config = AcceleratorConfig::default();
    let in_process = StreamServer::start(config, model.clone()).unwrap();
    let server = NetServer::bind("127.0.0.1:0", config, model, sharded_options(3)).unwrap();
    // Three live connections: round-robin places one on each shard.
    let mut clients: Vec<NetClient> = (0..3)
        .map(|_| NetClient::connect(server.local_addr()).unwrap())
        .collect();
    for (i, input) in inputs.iter().enumerate() {
        let client = &mut clients[i % 3];
        let wire = client.infer(input).unwrap();
        let solo = in_process.submit(input.clone()).unwrap().wait().unwrap();
        assert_eq!(
            wire.logits, solo.logits,
            "logits must be bit-identical under sharding"
        );
        assert_eq!(wire.prediction as usize, solo.prediction);
        assert_eq!(wire.total_cycles, solo.total_cycles());
    }
    let stats = server.stats();
    assert_eq!(stats.reactors, 3);
    assert_eq!(stats.reactors_alive, 3);
    assert_eq!(stats.per_reactor.len(), 3);
    // Round-robin: every shard got exactly one of the three connections,
    // and the non-accepting shards got theirs by handoff.
    for reactor in &stats.per_reactor {
        assert_eq!(
            reactor.accepted, 1,
            "round-robin must spread 3 connections over 3 shards"
        );
        let expected_handoffs = u64::from(reactor.index != 0);
        assert_eq!(reactor.handoffs, expected_handoffs);
    }
    assert_eq!(stats.requests, inputs.len() as u64);
    drop(clients);
    server.shutdown();
    in_process.shutdown();
}

/// The connection cap is **global**: two shards collectively own at most
/// `max_connections` sockets, and the shed carries the global capacity —
/// sharding must not multiply the admission budget.
#[test]
fn connection_cap_is_shared_across_shards() {
    let (model, inputs) = tiny_setup(1);
    let server = NetServer::bind(
        "127.0.0.1:0",
        AcceleratorConfig::default(),
        model,
        NetOptions {
            max_connections: 2,
            ..sharded_options(2)
        },
    )
    .unwrap();
    let addr = server.local_addr();
    // Fill both slots; round-robin places one connection per shard.
    let mut first = NetClient::connect(addr).unwrap();
    first.infer(&inputs[0]).unwrap();
    let mut second = NetClient::connect(addr).unwrap();
    second.infer(&inputs[0]).unwrap();
    // The third connection must be shed with the *global* capacity, no
    // matter which shard would have received it.
    let mut third = NetClient::connect(addr).unwrap();
    match third.infer(&inputs[0]) {
        Err(NetError::Rejected(reply)) => {
            assert_eq!(reply.scope, reject_scope::CONNECTIONS);
            assert_eq!(reply.capacity, 2, "the cap is global, not per shard");
        }
        other => panic!("expected a connection-scope rejection, got {other:?}"),
    }
    // Freeing one slot readmits — the released reservation is visible to
    // the accepting shard regardless of which shard owned the connection.
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
                std::thread::sleep(Duration::from_millis(10));
                retry = NetClient::connect(addr).unwrap();
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert!(served, "a freed slot must readmit across shards");
    let stats = server.shutdown();
    assert!(stats.turned_away >= 1);
    assert_eq!(stats.server.errors, 0);
}

/// The edge-trigger starvation regression.  With a fairness burst far
/// smaller than the buffered request backlog, a pipelined burst arrives
/// as ONE readable edge whose bytes take many read rounds to drain —
/// epoll will never re-report the edge for the remainder, so every
/// request only completes if the reactor's hot list re-serves the
/// socket.  Before the hot list, this test hangs (the client times out
/// with most replies missing).
#[test]
fn tiny_read_burst_does_not_strand_pipelined_requests_under_edge_triggering() {
    let (model, inputs) = tiny_setup(2);
    let server = NetServer::bind(
        "127.0.0.1:0",
        AcceleratorConfig::default(),
        model,
        NetOptions {
            // One tiny_cnn INFER frame is ~600 bytes; 20 pipelined
            // requests are ~12 KiB buffered behind a single edge, drained
            // 64 bytes per round — hundreds of hot-list re-reads.
            read_burst: 64,
            ..sharded_options(1)
        },
    )
    .unwrap();
    let batch: Vec<Tensor<f32>> = (0..20).map(|i| inputs[i % inputs.len()].clone()).collect();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let replies = client.infer_many(&batch).unwrap();
    assert_eq!(replies.len(), batch.len());
    for reply in &replies {
        reply
            .as_ref()
            .expect("no pipelined request may be stranded");
    }
    // A second burst on the same connection is a *new* edge on a socket
    // that was previously drained through the hot list — it must also be
    // served in full (the hot list must not have eaten the registration).
    let replies = client.infer_many(&batch).unwrap();
    for reply in &replies {
        reply.as_ref().expect("the second burst must be served too");
    }
    drop(client);
    let stats = server.shutdown();
    assert_eq!(stats.requests, 2 * batch.len() as u64);
    assert_eq!(stats.server.completed, 2 * batch.len() as u64);
    assert_eq!(stats.protocol_errors, 0);
}

/// `read_burst == 0` can never make progress; bind must refuse it with a
/// typed config error rather than ship a server that spins.
#[test]
fn zero_read_burst_fails_bind_with_a_typed_error() {
    let (model, _) = tiny_setup(1);
    let err = NetServer::bind(
        "127.0.0.1:0",
        AcceleratorConfig::default(),
        model,
        NetOptions {
            read_burst: 0,
            ..NetOptions::default()
        },
    )
    .unwrap_err();
    assert!(
        matches!(
            &err,
            NetError::Accel(snn_accel::AccelError::InvalidConfig { context })
                if context.contains("read_burst")
        ),
        "expected a typed InvalidConfig, got {err:?}"
    );
}

/// A shard count above the connection cap is wasted threads; the resolver
/// clamps it so every shard can own at least one connection.
#[test]
fn reactor_count_is_clamped_to_the_connection_cap() {
    let (model, _) = tiny_setup(1);
    let server = NetServer::bind(
        "127.0.0.1:0",
        AcceleratorConfig::default(),
        model,
        NetOptions {
            reactors: 8,
            max_connections: 3,
            ..NetOptions::default()
        },
    )
    .unwrap();
    let stats = server.stats();
    assert_eq!(stats.reactors, 3);
    assert_eq!(stats.per_reactor.len(), 3);
    server.shutdown();
}
