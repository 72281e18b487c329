//! Chaos suite: loopback serving under seeded fault schedules (compiled
//! only with the `fault-injection` feature).
//!
//! The supervision invariant every schedule pins: **every request ends in
//! bit-exact SCORES or a typed error frame — never a hang, never a
//! process panic — and, short of an engine kill, the server keeps serving
//! afterwards.**  Five escalating schedules:
//!
//! * recoverable transport faults (short I/O, EAGAIN, EINTR, delayed
//!   readiness, dropped wake bytes) — replies must stay bit-exact;
//! * an engine panic mid-batch (a poison-pill input) — the panic is
//!   isolated to its own request, siblings and later requests are exact;
//! * expired request deadlines — shed *before compute* with a typed
//!   DEADLINE rejection and a `deadline_sheds` counter to show for it;
//! * an engine kill (a kill-pill input) — every admitted request settles
//!   with exact SCORES or a typed REPLICA_DOWN, later ones are refused
//!   with SHUTTING_DOWN, and STATS still answers;
//! * connection resets — the reset connection's requests may fail with
//!   transport errors, but a fresh connection is served exactly.
//!
//! The schedule seed is proptest-generated and can be pinned with the
//! `SNN_CHAOS_SEED` environment variable (CI sweeps several fixed seeds).
//! The fault injector is process-global, so every test takes [`chaos_lock`]
//! around its schedule.

#![cfg(feature = "fault-injection")]

use proptest::prelude::*;
use snn_accel::config::AcceleratorConfig;
use snn_accel::serve::{poison, StreamServer};
use snn_model::convert::{convert, CalibrationStats, ConversionConfig};
use snn_model::params::Parameters;
use snn_model::zoo;
use snn_net::protocol::{error_code, reject_scope};
use snn_net::{fault, NetClient, NetError, NetOptions, NetServer};
use snn_tensor::Tensor;
use std::net::SocketAddr;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// One shared server + oracle for the whole binary, like the pipelining
/// suite: the model compiles once and the expected logits come from
/// sequential in-process submissions.
struct Setup {
    server: NetServer,
    addr: SocketAddr,
    inputs: Vec<Tensor<f32>>,
    expected: Vec<Vec<i64>>,
}

fn setup() -> &'static Setup {
    static SETUP: OnceLock<Setup> = OnceLock::new();
    SETUP.get_or_init(|| {
        let net = zoo::tiny_cnn();
        let params = Parameters::he_init(&net, 11).unwrap();
        let inputs: Vec<Tensor<f32>> = (0..4)
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
        let config = AcceleratorConfig::default();
        let in_process = StreamServer::start(config, model.clone()).unwrap();
        let expected: Vec<Vec<i64>> = inputs
            .iter()
            .map(|input| {
                in_process
                    .submit(input.clone())
                    .unwrap()
                    .wait()
                    .unwrap()
                    .logits
            })
            .collect();
        in_process.shutdown();
        let server = NetServer::bind("127.0.0.1:0", config, model, NetOptions::default()).unwrap();
        let addr = server.local_addr();
        Setup {
            server,
            addr,
            inputs,
            expected,
        }
    })
}

/// The injector is process-global; every schedule holds this lock from
/// install to clear so concurrent tests cannot cross-arm each other.
fn chaos_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // A previous test panicking mid-schedule must not wedge the rest.
    match LOCK.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Disarms the plan on every exit path (panic included), so one failing
/// schedule cannot leave the shared server faulted for its successors.
struct ArmedPlan;

impl ArmedPlan {
    fn install(plan: fault::FaultPlan) -> Self {
        fault::install(plan);
        ArmedPlan
    }
}

impl Drop for ArmedPlan {
    fn drop(&mut self) {
        fault::clear();
    }
}

/// The schedule seed: `SNN_CHAOS_SEED` when set (CI sweeps fixed seeds),
/// otherwise the proptest-generated default.
fn chaos_seed(default: u64) -> u64 {
    std::env::var("SNN_CHAOS_SEED")
        .ok()
        .and_then(|raw| raw.parse().ok())
        .unwrap_or(default)
}

/// Reads a `key: value` counter out of the plaintext stats body.
fn counter(stats: &str, key: &str) -> u64 {
    stats
        .lines()
        .find_map(|line| line.strip_prefix(&format!("{key}: ")))
        .unwrap_or_else(|| panic!("stats body missing {key:?}:\n{stats}"))
        .trim()
        .parse()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Under a schedule of recoverable transport faults, a pipelined batch
    /// resolves completely and **bit-exactly** — short reads reassemble,
    /// EAGAIN/EINTR retry, dropped wakes are covered by the poll-interval
    /// drain — and the schedule demonstrably fired.
    #[test]
    fn recoverable_fault_schedules_preserve_bit_exactness(
        seed in 0u64..10_000,
        n in 4usize..=10,
    ) {
        let setup = setup();
        let _serial = chaos_lock();
        let _plan = ArmedPlan::install(fault::FaultPlan::recoverable(chaos_seed(seed)));
        let picks: Vec<usize> = (0..n).map(|i| (seed as usize + i * 13) % setup.inputs.len()).collect();
        let batch: Vec<Tensor<f32>> = picks.iter().map(|&p| setup.inputs[p].clone()).collect();
        let mut client = NetClient::connect(setup.addr).unwrap();
        let replies = client.infer_many(&batch).unwrap();
        prop_assert_eq!(replies.len(), n);
        for (reply, &pick) in replies.iter().zip(&picks) {
            let scores = reply.as_ref().expect("recoverable faults must not fail a request");
            prop_assert_eq!(&scores.logits, &setup.expected[pick]);
        }
        prop_assert!(
            fault::injected_count() > 0,
            "an aggressive schedule that injected nothing proves nothing"
        );
        prop_assert!(setup.server.is_healthy());
    }
}

/// An input that panics the execution engine mid-batch fails **only its
/// own request** with a typed ENGINE_PANIC error frame: pipelined siblings
/// come back bit-exact, the server's panic counter ticks, and the very
/// next inference on a fresh connection is served exactly — the reactor
/// never saw the panic.
#[test]
fn an_engine_panic_fails_one_request_and_the_server_keeps_serving() {
    let setup = setup();
    let _serial = chaos_lock();
    let mut poisoned = setup.inputs[0].clone();
    poisoned.as_mut_slice()[0] = poison::pill();
    let batch = vec![setup.inputs[1].clone(), poisoned, setup.inputs[2].clone()];
    let mut client = NetClient::connect(setup.addr).unwrap();
    let replies = client.infer_many(&batch).unwrap();
    assert_eq!(replies.len(), 3);
    assert_eq!(
        replies[0].as_ref().unwrap().logits,
        setup.expected[1],
        "sibling before the poison pill must be exact"
    );
    match &replies[1] {
        Err(NetError::Remote { code, message }) => {
            assert_eq!(*code, error_code::ENGINE_PANIC, "typed panic code");
            assert!(
                message.contains("panic"),
                "the frame names the panic: {message}"
            );
        }
        other => panic!("poisoned request must fail with ENGINE_PANIC, got {other:?}"),
    }
    assert_eq!(
        replies[2].as_ref().unwrap().logits,
        setup.expected[2],
        "sibling after the poison pill must be exact"
    );
    // The connection survived (typed error frames do not poison it), the
    // panic counter ticked, and fresh traffic is served exactly.
    let stats = client.stats_text().unwrap();
    assert!(counter(&stats, "panics") >= 1, "panics counter must tick");
    let mut fresh = NetClient::connect(setup.addr).unwrap();
    let reply = fresh.infer(&setup.inputs[3]).unwrap();
    assert_eq!(reply.logits, setup.expected[3]);
    assert!(setup.server.is_healthy(), "the reactor never saw the panic");
}

/// A request whose queue-wait deadline has already expired is shed
/// **before compute**: the reply is a typed REJECTED frame with scope
/// `deadline` plus a retry hint, the `deadline_sheds` counter ticks, and
/// deadline-free traffic on the same server is untouched.
#[test]
fn expired_deadlines_shed_before_compute_with_a_typed_rejection() {
    let setup = setup();
    let _serial = chaos_lock();
    let mut client = NetClient::connect(setup.addr).unwrap();
    // Deadline zero: expired the moment the dispatcher looks at it.
    let replies = client
        .infer_many_within(&[setup.inputs[0].clone()], Some(0))
        .unwrap();
    match &replies[0] {
        Err(NetError::Rejected(reply)) => {
            assert_eq!(reply.scope, reject_scope::DEADLINE, "typed deadline scope");
            assert!(reply.retry_after_ms >= 1, "a shed always hints a retry");
        }
        other => panic!("expired deadline must be shed with REJECTED, got {other:?}"),
    }
    let stats = client.stats_text().unwrap();
    assert!(
        counter(&stats, "deadline_sheds") >= 1,
        "deadline_sheds must tick"
    );
    // Generous deadlines and deadline-free requests still complete
    // exactly on the same connection.
    let replies = client
        .infer_many_within(&[setup.inputs[1].clone()], Some(60_000))
        .unwrap();
    assert_eq!(replies[0].as_ref().unwrap().logits, setup.expected[1]);
    let reply = client.infer(&setup.inputs[2]).unwrap();
    assert_eq!(reply.logits, setup.expected[2]);
}

/// The engine-death schedule: a kill-pill input unwinds the engine's
/// whole dispatcher at the end of a pipelined storm.  The pins: the storm
/// never hangs — every request ends in bit-exact SCORES or a typed
/// REPLICA_DOWN error frame (code 5), and at least the pill's own request
/// is stranded; afterwards `is_healthy()` is false, a fresh INFER is
/// refused with a typed SHUTTING_DOWN error frame instead of hanging, and
/// STATS still answers with counters that match the storm.
#[test]
fn an_engine_kill_mid_storm_settles_every_request_and_refuses_new_ones() {
    let setup = setup();
    let _serial = chaos_lock();
    // A dedicated server: killing the engine is permanent, so the shared
    // singleton cannot be used.
    let net = zoo::tiny_cnn();
    let params = Parameters::he_init(&net, 11).unwrap();
    let stats = CalibrationStats::collect(&net, &params, setup.inputs.iter()).unwrap();
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
    let server = NetServer::bind(
        "127.0.0.1:0",
        AcceleratorConfig::default(),
        model,
        NetOptions::default(),
    )
    .unwrap();
    assert!(server.is_healthy());

    // The storm: a pipelined burst that ends in the kill pill.  Frames on
    // one connection are admitted in order, so every request of the burst
    // is admitted before the engine can die: each one is either served or
    // stranded in the pill's micro-batch.
    let mut killer = setup.inputs[0].clone();
    killer.as_mut_slice()[0] = poison::kill_pill();
    let picks: Vec<usize> = (0..10).map(|i| i % setup.inputs.len()).collect();
    let mut batch: Vec<Tensor<f32>> = picks.iter().map(|&p| setup.inputs[p].clone()).collect();
    batch.push(killer);

    let mut client = NetClient::connect(server.local_addr()).unwrap();
    client
        .set_reply_timeout(std::time::Duration::from_secs(30))
        .unwrap();
    let replies = client.infer_many(&batch).unwrap();
    assert_eq!(replies.len(), batch.len(), "every request must settle");
    let mut served = 0u64;
    let mut stranded = 0usize;
    for (slot, reply) in replies.iter().enumerate() {
        match reply {
            Ok(scores) => {
                assert!(
                    slot < picks.len(),
                    "the kill pill itself can never be served"
                );
                assert_eq!(
                    scores.logits, setup.expected[picks[slot]],
                    "request {slot}: a served reply must stay bit-exact through the kill"
                );
                served += 1;
            }
            Err(NetError::Remote { code, message }) => {
                assert_eq!(
                    *code,
                    error_code::REPLICA_DOWN,
                    "request {slot}: the only admissible failure is a typed \
                     REPLICA_DOWN, got {message:?}"
                );
                assert!(message.contains("down"), "the frame says why: {message}");
                stranded += 1;
            }
            Err(other) => panic!("request {slot}: unexpected error class: {other}"),
        }
    }
    assert!(
        matches!(replies.last(), Some(Err(NetError::Remote { .. }))),
        "the kill pill's own request is stranded"
    );
    assert_eq!(served as usize + stranded, batch.len());
    assert!(
        !server.is_healthy(),
        "a dead engine must fail the health probe"
    );

    // A fresh INFER is refused with a typed SHUTTING_DOWN frame, not a hang.
    let mut fresh = NetClient::connect(server.local_addr()).unwrap();
    fresh
        .set_reply_timeout(std::time::Duration::from_secs(30))
        .unwrap();
    match fresh.infer(&setup.inputs[1]) {
        Err(NetError::Remote { code, message }) => {
            assert_eq!(code, error_code::SHUTTING_DOWN, "got {message:?}");
        }
        other => panic!("a dead engine must refuse with SHUTTING_DOWN, got {other:?}"),
    }

    // STATS still answers, and its counters match the storm.
    let mut scraper = NetClient::connect(server.local_addr()).unwrap();
    let text = scraper.stats_text().unwrap();
    assert_eq!(counter(&text, "completed"), served);
    assert_eq!(
        counter(&text, "queue_depth"),
        0,
        "the dead queue was drained"
    );
    assert_eq!(counter(&text, "reactor_alive"), 1, "the reactors survived");

    let final_stats = server.shutdown();
    assert_eq!(final_stats.server.completed, served);
    assert_eq!(final_stats.server.queue.depth, 0);
}

/// Connection resets are the destructive schedule: requests riding a reset
/// connection may fail with transport errors (typed, never hangs), but the
/// server itself must shrug them off — once the plan is disarmed, a fresh
/// connection is served bit-exactly.
#[test]
fn connection_resets_kill_connections_not_the_server() {
    let setup = setup();
    let _serial = chaos_lock();
    {
        let _plan =
            ArmedPlan::install(fault::FaultPlan::recoverable(chaos_seed(77)).with_resets(120));
        for round in 0..6usize {
            let pick = round % setup.inputs.len();
            let mut client = match NetClient::connect(setup.addr) {
                Ok(client) => client,
                // The accept path itself may be reset; that is the fault
                // biting, not a failure of the invariant.
                Err(_) => continue,
            };
            // Keep a wedged exchange bounded: a reset mid-reply surfaces
            // as a typed timeout at worst.
            client
                .set_reply_timeout(std::time::Duration::from_secs(5))
                .unwrap();
            match client.infer(&setup.inputs[pick]) {
                Ok(reply) => assert_eq!(
                    reply.logits, setup.expected[pick],
                    "a reply that does arrive is still exact"
                ),
                Err(
                    NetError::Io(_)
                    | NetError::Disconnected
                    | NetError::Timeout { .. }
                    | NetError::Protocol(_),
                ) => {}
                Err(other) => panic!("unexpected error class under resets: {other}"),
            }
        }
    }
    // Plan disarmed: the server must still be fully alive and exact.
    let mut fresh = NetClient::connect(setup.addr).unwrap();
    let reply = fresh.infer(&setup.inputs[0]).unwrap();
    assert_eq!(reply.logits, setup.expected[0]);
    assert!(
        setup.server.is_healthy(),
        "resets must never kill the reactor"
    );
}
