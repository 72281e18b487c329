//! Protocol v3 deadline × request-id interplay under pipelining.
//!
//! One connection interleaves INFER frames that carry a
//! [`infer_flags::HAS_DEADLINE`] word with plain ones, all in flight at
//! once.  The pins, per request id: a zero queue-wait deadline is **always
//! shed before compute** with a REJECTED frame of scope
//! [`reject_scope::DEADLINE`] echoing that id; a generous deadline and no
//! deadline are always served with SCORES bit-identical to the sequential
//! in-process oracle; and no id is ever answered twice or answered with a
//! sibling's outcome, no matter how the replies interleave in completion
//! order.

use proptest::prelude::*;
use snn_accel::config::AcceleratorConfig;
use snn_accel::serve::StreamServer;
use snn_model::convert::{convert, CalibrationStats, ConversionConfig};
use snn_model::params::Parameters;
use snn_model::zoo;
use snn_net::protocol::{infer_flags, reject_scope, Frame, InferRequest};
use snn_net::{NetOptions, NetServer};
use snn_tensor::Tensor;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::OnceLock;

struct Setup {
    _server: NetServer,
    addr: SocketAddr,
    inputs: Vec<Tensor<f32>>,
    expected: Vec<Vec<i64>>,
}

fn setup() -> &'static Setup {
    static SETUP: OnceLock<Setup> = OnceLock::new();
    SETUP.get_or_init(|| {
        let net = zoo::tiny_cnn();
        let params = Parameters::he_init(&net, 23).unwrap();
        let inputs: Vec<Tensor<f32>> = (0..4)
            .map(|i| {
                let values: Vec<f32> = (0..144)
                    .map(|j| ((i * 13 + j * 11) % 100) as f32 / 100.0)
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
            _server: server,
            addr,
            inputs,
            expected,
        }
    })
}

/// The deadline shape of one pipelined request.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Plan {
    /// No HAS_DEADLINE flag: served under the server-wide policy.
    Plain,
    /// `deadline_ms = 0`: any queue wait exceeds it, so it is always shed
    /// before compute.
    Doomed,
    /// A one-minute deadline no test queue ever approaches: always served.
    Generous,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Interleaved HAS_DEADLINE and plain INFER frames on one connection:
    /// every request id gets exactly the outcome its own deadline dictates.
    #[test]
    fn per_request_deadlines_shed_and_serve_by_id_under_pipelining(
        kinds in proptest::collection::vec(0u8..3, 2..14),
        mix_seed in 0u64..10_000,
    ) {
        let setup = setup();
        let plans: Vec<Plan> = kinds.iter().map(|k| match k {
            0 => Plan::Plain,
            1 => Plan::Doomed,
            _ => Plan::Generous,
        }).collect();
        let picks: Vec<usize> = (0..plans.len())
            .map(|i| ((mix_seed as usize).wrapping_mul(37).wrapping_add(i * 5)) % setup.inputs.len())
            .collect();

        // One burst, all ids in flight at once.
        let mut conn = TcpStream::connect(setup.addr).unwrap();
        conn.set_nodelay(true).unwrap();
        let mut burst = Vec::new();
        for (id, plan) in plans.iter().enumerate() {
            let request = InferRequest::from_tensor(id as u64, &setup.inputs[picks[id]]);
            let request = match plan {
                Plan::Plain => request,
                Plan::Doomed => request.with_deadline(0),
                Plan::Generous => request.with_deadline(60_000),
            };
            // The wire carries the deadline as a flag bit + trailing word.
            let encoded = Frame::Infer(request).encode();
            if *plan == Plan::Plain {
                prop_assert_eq!(encoded[20] & infer_flags::HAS_DEADLINE as u8, 0);
            } else {
                prop_assert_ne!(encoded[20] & infer_flags::HAS_DEADLINE as u8, 0);
            }
            burst.extend_from_slice(&encoded);
        }
        conn.write_all(&burst).unwrap();
        conn.flush().unwrap();

        // Replies arrive in completion order; collect them all by id.
        conn.set_read_timeout(Some(std::time::Duration::from_secs(60))).unwrap();
        let mut outcomes: Vec<Option<Frame>> = vec![None; plans.len()];
        let mut pending = plans.len();
        let mut buf: Vec<u8> = Vec::new();
        let mut scratch = [0u8; 8192];
        while pending > 0 {
            if let Some((frame, used)) = Frame::decode(&buf).unwrap() {
                buf.drain(..used);
                let id = match &frame {
                    Frame::Scores(reply) => reply.request_id,
                    Frame::Rejected(reply) => reply.request_id,
                    other => {
                        return Err(TestCaseError::fail(format!("unexpected frame: {other:?}")))
                    }
                } as usize;
                prop_assert!(id < plans.len(), "unknown request id {}", id);
                prop_assert!(outcomes[id].is_none(), "request id {} answered twice", id);
                outcomes[id] = Some(frame);
                pending -= 1;
                continue;
            }
            let n = conn.read(&mut scratch).unwrap();
            prop_assert!(n > 0, "server closed before all replies arrived");
            buf.extend_from_slice(&scratch[..n]);
        }

        for (id, (plan, outcome)) in plans.iter().zip(&outcomes).enumerate() {
            match (plan, outcome.as_ref().unwrap()) {
                (Plan::Doomed, Frame::Rejected(reply)) => {
                    prop_assert_eq!(reply.scope, reject_scope::DEADLINE,
                        "request {}: a zero deadline sheds with DEADLINE scope", id);
                    prop_assert_eq!(reply.request_id, id as u64);
                }
                (Plan::Plain | Plan::Generous, Frame::Scores(reply)) => {
                    prop_assert_eq!(&reply.logits, &setup.expected[picks[id]],
                        "request {}: logits must match the sequential oracle", id);
                }
                (plan, other) => {
                    return Err(TestCaseError::fail(format!(
                        "request {id} ({plan:?}): unexpected outcome {other:?}"
                    )))
                }
            }
        }
    }
}
