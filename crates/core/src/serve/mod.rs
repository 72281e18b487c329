//! Streaming batch serving: one compiled engine behind a bounded queue.
//!
//! [`StreamServer`] compiles one model **once** and serves it from one
//! engine: a bounded submission queue and a dispatcher thread that drains
//! it into micro-batches of up to [`ServerOptions::max_batch`] inputs,
//! executing each batch on the **bit-plane sparse engine** over the whole
//! shared worker pool — compiling once at start-up instead of per call.
//! Every report a client receives is bit-identical to the matching solo
//! [`crate::sim::Accelerator`] call (pinned by property tests).
//!
//! All parallelism — batch workers and per-layer channel fan-out — draws
//! from the single global [`snn_parallel::ThreadBudget`], so a server
//! under heavy traffic cannot oversubscribe the host.
//! [`StreamServer::stats`] reports the cumulative counters (completed
//! inferences, micro-batch sizes, wall-clock throughput, modelled
//! per-unit utilisation) as one [`ServerStats`] view; the end-to-end
//! benchmark records these in `BENCH_serve.json`.
//!
//! # Admission policy
//!
//! The submission queue is **bounded** by
//! [`ServerOptions::queue_capacity`] with a *reject-when-full* policy:
//! [`StreamServer::submit`] never blocks the caller — a submission that
//! finds the queue full is rejected with the typed
//! [`AccelError::QueueFull`] (carrying the observed depth and capacity)
//! and counted in [`ServerStats::rejected`].  Rejection is load shedding,
//! not failure: the client sees exactly which limit it hit and can retry,
//! back off or route elsewhere, while the server's memory stays bounded no
//! matter how fast clients submit — the property a network front-end
//! needs.  [`StreamServer::queue_snapshot`] exposes the live queue depth
//! and recent drain rate (windowed over the last
//! [`DRAIN_WINDOW_BATCHES`] micro-batches) so that front-end (`snn-net`)
//! can attach a concrete *retry-after* hint to every rejection.
//!
//! # Completion paths
//!
//! Results come back one of two ways:
//!
//! * **Tickets** — [`StreamServer::submit`] returns a [`Ticket`] whose
//!   [`Ticket::wait`] blocks a thread (or [`Ticket::try_wait`] polls).
//! * **Completion queue** — [`StreamServer::submit_tagged`] delivers a
//!   tagged [`Completion`] through a shared [`CompletionSink`] and then
//!   invokes the sink's waker callback.  This is the path an event-driven
//!   front-end uses: the `snn-net` reactor hands the dispatcher a waker
//!   that writes one byte into its wake pipe, keeps hundreds of inferences
//!   in flight across its connections, and never parks a thread per
//!   request.  Both paths are bit-identical.
//!
//! # Engine death
//!
//! The dispatcher runs under a supervisor: a panic that escapes the
//! per-item unwind guard kills the engine, not the process.  The
//! supervisor marks it unhealthy, closes its queue, and settles every
//! queued and in-flight submission with the typed
//! [`AccelError::ReplicaDown`] — those clients get an immediate answer
//! instead of a hang — and [`StreamServer::is_healthy`] turns `false`.
//! Every later submission fails at admission with [`AccelError::Serving`]
//! until the server is rebuilt.

mod replica;
mod stats;

pub use stats::{
    drain_rate, QueueSnapshot, ServerStats, DEFAULT_RETRY_AFTER_MS, DRAIN_WINDOW_BATCHES,
    MAX_RETRY_AFTER_MS,
};

use crate::config::AcceleratorConfig;
use crate::exec::utilisation_from_program;
use crate::report::RunReport;
use crate::sim::Accelerator;
use crate::{AccelError, Result};
use replica::{relock, EngineShared, ReplicaShared, ReplyTo, Submission};
use snn_model::snn::SnnModel;
use snn_telemetry::{Outcome, Phase, SpanRecorder};
use snn_tensor::Tensor;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Options of a [`StreamServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerOptions {
    /// Maximum number of queued inputs drained into one micro-batch.
    pub max_batch: usize,
    /// Maximum undispatched submissions the queue holds; beyond it
    /// [`StreamServer::submit`] rejects with [`AccelError::QueueFull`]
    /// (see the module docs on the admission policy).  Must be at least
    /// `1`: a zero capacity would reject every submission, so
    /// [`StreamServer::start_with`] refuses it with the typed
    /// [`AccelError::InvalidConfig`] instead of starting a server that can
    /// never serve (use [`StreamServer::shutdown`] to drain).
    pub queue_capacity: usize,
    /// Server-wide deadline on **queue wait**: a submission that has sat
    /// undispatched for this long is shed *before* compute with the typed
    /// [`AccelError::DeadlineExceeded`] (counted in
    /// [`ServerStats::deadline_sheds`]) instead of being computed late for
    /// a client that has given up.  `None` (the default) never sheds;
    /// per-request deadlines passed to [`StreamServer::submit_within`]
    /// tighten this bound but never loosen it.  A zero duration sheds
    /// every queued submission — useful in tests, degenerate in
    /// production.
    pub max_queue_wait: Option<Duration>,
    /// Whether per-request span tracing is recorded (default: on, unless
    /// the environment sets `SNN_TRACE=0`).  Tracing is wait-free on the
    /// hot path — phase marks live on the submission itself and the only
    /// shared touch is one recorder mutex at completion — with a documented
    /// overhead budget of <3% throughput versus tracing off, and results
    /// are bit-identical either way (pinned by tests).  See
    /// [`StreamServer::recorder`].
    pub trace: bool,
}

/// Default [`ServerOptions::queue_capacity`]: deep enough that a paced
/// client never notices, small enough to bound memory under abuse.
pub const DEFAULT_QUEUE_CAPACITY: usize = 1024;

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            max_batch: 8,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            max_queue_wait: None,
            trace: snn_telemetry::trace_enabled_from_env(),
        }
    }
}

/// A pending inference: resolved by [`Ticket::wait`] (blocking) or polled
/// with [`Ticket::try_wait`] (non-blocking).
#[derive(Debug)]
pub struct Ticket {
    receiver: mpsc::Receiver<Result<RunReport>>,
}

impl Ticket {
    /// Blocks until the inference completes and returns its report.
    ///
    /// # Errors
    ///
    /// Propagates execution errors, or [`AccelError::Serving`] when the
    /// server shut down before this inference was dispatched.
    pub fn wait(self) -> Result<RunReport> {
        self.receiver.recv().map_err(|_| AccelError::Serving {
            context: "server shut down before the inference completed".to_string(),
        })?
    }

    /// Non-blocking poll: returns the report if the inference has settled,
    /// `None` while it is still queued or executing.
    ///
    /// The result is delivered **once**: after `try_wait` returns `Some`,
    /// later calls (and [`Ticket::wait`]) see the ticket as dead and report
    /// [`AccelError::Serving`].  Event loops that poll tickets should drop
    /// the ticket on `Some`.
    pub fn try_wait(&self) -> Option<Result<RunReport>> {
        match self.receiver.try_recv() {
            Ok(report) => Some(report),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(AccelError::Serving {
                context: "server shut down before the inference completed".to_string(),
            })),
        }
    }
}

/// A settled tagged submission, delivered through the channel half of a
/// [`CompletionSink`] — the non-blocking counterpart of a [`Ticket`].
#[derive(Debug)]
pub struct Completion {
    /// The caller-chosen tag passed to [`StreamServer::submit_tagged`].
    pub tag: u64,
    /// The inference outcome, bit-identical to what the matching
    /// [`Ticket::wait`] would have returned.
    pub result: Result<RunReport>,
}

/// The delivery side of the non-blocking completion path.
///
/// Built with [`CompletionSink::new`], which returns the sink (handed to
/// [`StreamServer::submit_tagged`], clonable) and the receiver the caller
/// drains.  When a tagged inference settles, the dispatcher pushes a
/// [`Completion`] into the channel **and then** invokes the waker — so a
/// reactor blocked in `epoll_wait(2)` can use the waker to write one byte into a
/// wake pipe and is guaranteed to observe the completion after waking.  No
/// thread ever blocks on a reply channel.
#[derive(Clone)]
pub struct CompletionSink {
    pub(crate) sender: mpsc::Sender<Completion>,
    pub(crate) waker: Arc<dyn Fn() + Send + Sync>,
}

impl fmt::Debug for CompletionSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompletionSink").finish_non_exhaustive()
    }
}

impl CompletionSink {
    /// Creates a sink and its completion receiver.  `waker` is called by
    /// the dispatcher thread after every completion it enqueues; it must be
    /// cheap and must not block (e.g. a non-blocking one-byte pipe write).
    pub fn new(waker: Arc<dyn Fn() + Send + Sync>) -> (Self, mpsc::Receiver<Completion>) {
        let (sender, receiver) = mpsc::channel();
        (CompletionSink { sender, waker }, receiver)
    }
}

/// Streaming micro-batching inference server.  See the module docs.
pub struct StreamServer {
    shared: Arc<ReplicaShared>,
    dispatcher: Option<JoinHandle<()>>,
    /// Submissions refused because the queue was full.
    rejected: AtomicU64,
    shutting_down: AtomicBool,
    recorder: Arc<SpanRecorder>,
}

impl fmt::Debug for StreamServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamServer")
            .field("options", &self.shared.engine.options)
            .finish_non_exhaustive()
    }
}

impl StreamServer {
    /// Starts a server for `model` on an accelerator with `config` and
    /// default [`ServerOptions`].  The model is compiled once, up front.
    ///
    /// # Errors
    ///
    /// Returns an error when the model cannot be mapped onto the
    /// configuration.
    pub fn start(config: AcceleratorConfig, model: SnnModel) -> Result<Self> {
        Self::start_with(config, model, ServerOptions::default())
    }

    /// Starts a server with explicit options: the model is compiled once
    /// and one dispatcher thread is spawned over the program.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidConfig`] for degenerate options — a
    /// `max_batch` of `0` (the dispatcher could never drain a micro-batch)
    /// or a `queue_capacity` of `0` (every submission would be rejected) —
    /// and otherwise the errors of [`StreamServer::start`].
    pub fn start_with(
        config: AcceleratorConfig,
        model: SnnModel,
        options: ServerOptions,
    ) -> Result<Self> {
        if options.max_batch == 0 {
            return Err(AccelError::InvalidConfig {
                context: "ServerOptions::max_batch is 0: the dispatcher could never drain \
                          a micro-batch"
                    .to_string(),
            });
        }
        if options.queue_capacity == 0 {
            return Err(AccelError::InvalidConfig {
                context: "ServerOptions::queue_capacity is 0: every submission would be \
                          rejected (shut the server down to drain it instead)"
                    .to_string(),
            });
        }
        let accel = Accelerator::new(config);
        let program = accel.compile(&model)?;
        let shared = Arc::new(ReplicaShared::new(EngineShared {
            accel,
            model,
            program,
            options,
        }));
        let dispatcher_shared = Arc::clone(&shared);
        let dispatcher = thread::Builder::new()
            .name("snn-serve-dispatch".to_string())
            .spawn(move || replica::run(&dispatcher_shared))
            .expect("spawn dispatcher thread");
        Ok(StreamServer {
            shared,
            dispatcher: Some(dispatcher),
            rejected: AtomicU64::new(0),
            shutting_down: AtomicBool::new(false),
            recorder: Arc::new(SpanRecorder::new(options.trace)),
        })
    }

    /// The server's span recorder: phase histograms and the
    /// ring buffer of completed [`snn_telemetry::RequestTrace`]s.  A
    /// front-end drains it for the JSONL trace export and renders its
    /// histograms into the Prometheus exposition.  Disabled
    /// ([`ServerOptions::trace`] false) it records nothing and every
    /// per-request hook is a no-op.
    pub fn recorder(&self) -> &Arc<SpanRecorder> {
        &self.recorder
    }

    /// Enqueues one input for inference and returns its [`Ticket`].
    ///
    /// Never blocks: admission is governed by the bounded-queue policy in
    /// the module docs.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::QueueFull`] when the queue already holds
    /// [`ServerOptions::queue_capacity`] undispatched inputs (the rejection
    /// is also counted in [`ServerStats::rejected`]), and
    /// [`AccelError::Serving`] when the server has begun shutting down or
    /// its engine is down.
    pub fn submit(&self, input: Tensor<f32>) -> Result<Ticket> {
        self.submit_within(input, None)
    }

    /// Like [`StreamServer::submit`] with a per-request **queue-wait
    /// deadline**: if the submission is still undispatched after
    /// `deadline`, it is shed before compute and the ticket resolves with
    /// [`AccelError::DeadlineExceeded`] (counted in
    /// [`ServerStats::deadline_sheds`]).  The effective deadline is the
    /// tighter of `deadline` and [`ServerOptions::max_queue_wait`]; `None`
    /// defers entirely to the server-wide bound.
    ///
    /// # Errors
    ///
    /// Admission errors exactly as [`StreamServer::submit`]; the deadline
    /// only governs what happens after admission.
    pub fn submit_within(&self, input: Tensor<f32>, deadline: Option<Duration>) -> Result<Ticket> {
        let (reply, receiver) = mpsc::channel();
        self.enqueue(input, ReplyTo::Ticket(reply), deadline)?;
        Ok(Ticket { receiver })
    }

    /// Enqueues one input whose result is delivered as a [`Completion`]
    /// carrying `tag` through `sink`'s channel — the **non-blocking**
    /// completion path: no thread waits on a ticket; the dispatcher pushes
    /// the completion and invokes the sink's waker.  This is how an
    /// event-loop front-end (the `snn-net` reactor) keeps many inferences
    /// in flight per connection without parking a thread on each.
    ///
    /// Admission is identical to [`StreamServer::submit`] — same bounded
    /// queues, same typed rejections — and results are bit-identical to the
    /// matching blocking call.
    ///
    /// # Errors
    ///
    /// [`AccelError::QueueFull`] and [`AccelError::Serving`] exactly as
    /// [`StreamServer::submit`]; a rejected submission produces **no**
    /// completion, so callers settle the request from the error in hand.
    pub fn submit_tagged(&self, input: Tensor<f32>, tag: u64, sink: &CompletionSink) -> Result<()> {
        self.submit_tagged_within(input, tag, sink, None)
    }

    /// Like [`StreamServer::submit_tagged`] with a per-request queue-wait
    /// deadline (see [`StreamServer::submit_within`]).  An expired
    /// submission **does** produce a completion — carrying
    /// [`AccelError::DeadlineExceeded`] — because the front-end needs to
    /// answer the request it already accepted.
    ///
    /// # Errors
    ///
    /// Admission errors exactly as [`StreamServer::submit_tagged`].
    pub fn submit_tagged_within(
        &self,
        input: Tensor<f32>,
        tag: u64,
        sink: &CompletionSink,
        deadline: Option<Duration>,
    ) -> Result<()> {
        self.enqueue(
            input,
            ReplyTo::Sink {
                tag,
                sink: sink.clone(),
            },
            deadline,
        )
    }

    fn enqueue(
        &self,
        input: Tensor<f32>,
        reply: ReplyTo,
        deadline: Option<Duration>,
    ) -> Result<()> {
        // Tagged submissions are traced under their caller-chosen tag (the
        // reactor's unique wire tag), tickets under a recorder-assigned id
        // — either way one trace per request id.
        let request_id = match &reply {
            ReplyTo::Sink { tag, .. } => *tag,
            ReplyTo::Ticket(_) => self.recorder.next_request_id(),
        };
        let mut trace = self.recorder.begin(request_id);
        if self.shutting_down.load(Ordering::SeqCst) {
            trace.finish(Outcome::Error {
                code: "serving".to_string(),
            });
            return Err(AccelError::Serving {
                context: "server is shutting down and no longer accepts submissions".to_string(),
            });
        }
        let deadline = match (deadline, self.shared.engine.options.max_queue_wait) {
            (Some(request), Some(server)) => Some(request.min(server)),
            (Some(request), None) => Some(request),
            (None, server) => server,
        };
        trace.advance(Phase::Route);
        let admitted = self.shared.try_enqueue(Submission {
            input,
            reply,
            enqueued_at: Instant::now(),
            deadline,
            trace,
        });
        if let Err(AccelError::QueueFull { .. }) = admitted {
            self.rejected.fetch_add(1, Ordering::SeqCst);
        }
        admitted
    }

    /// Submits all `inputs` and waits for all results, in order.
    ///
    /// # Errors
    ///
    /// Returns the first error encountered — including an admission
    /// rejection, which cancels the not-yet-submitted remainder; already
    /// accepted inferences still complete server-side.
    pub fn run_all(&self, inputs: &[Tensor<f32>]) -> Result<Vec<RunReport>> {
        let tickets: Vec<Ticket> = inputs
            .iter()
            .map(|i| self.submit(i.clone()))
            .collect::<Result<_>>()?;
        tickets.into_iter().map(Ticket::wait).collect()
    }

    /// Cheap point-in-time queue-load snapshot: depth, capacity and
    /// recent drain rate — the inputs of a retry-after hint.  Takes the
    /// queue and stats locks briefly (never both at once) and allocates
    /// nothing.
    pub fn queue_snapshot(&self) -> QueueSnapshot {
        QueueSnapshot {
            depth: relock(&self.shared.queue).jobs.len(),
            capacity: self.shared.engine.options.queue_capacity,
            drain_rate_ips: relock(&self.shared.stats).drain_rate_ips(self.shared.started),
        }
    }

    /// Whether the engine's dispatcher is alive — the lock-free health
    /// probe a front-end polls.  `false` once the supervisor caught a
    /// dispatcher panic (see the module docs on engine death).
    pub fn is_healthy(&self) -> bool {
        self.shared.healthy.load(Ordering::SeqCst)
    }

    /// Snapshot of the serving statistics (see [`ServerStats`]).
    pub fn stats(&self) -> ServerStats {
        let options = &self.shared.engine.options;
        let queue = self.queue_snapshot();
        let accum = relock(&self.shared.stats);
        ServerStats {
            completed: accum.completed,
            errors: accum.errors,
            batches: accum.batches,
            largest_batch: accum.largest_batch,
            rejected: self.rejected.load(Ordering::SeqCst),
            panics: accum.panics,
            deadline_sheds: accum.deadline_sheds,
            queue,
            max_batch: options.max_batch,
            queue_capacity: options.queue_capacity,
            thread_budget: snn_parallel::budget().total(),
            elapsed_s: self.shared.started.elapsed().as_secs_f64(),
            utilisation: utilisation_from_program(
                self.shared.engine.accel.config(),
                &self.shared.engine.program,
            ),
        }
    }

    /// Drains the queue, stops the dispatcher and returns the final
    /// statistics.  Queued-but-undispatched submissions are still
    /// served; submissions after shutdown starts are not.
    pub fn shutdown(mut self) -> ServerStats {
        self.stop();
        self.stats()
    }

    fn stop(&mut self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        self.shared.begin_shutdown();
        if let Some(handle) = self.dispatcher.take() {
            // Dispatcher panics are caught by the in-thread supervisor, so
            // a join error would mean the supervisor itself died; nothing
            // is left to salvage from that thread either way.
            let _ = handle.join();
        }
    }
}

impl Drop for StreamServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Deliberate crash triggers for fault-injection builds.  Compiled only
/// with the `fault-injection` feature; release builds pay nothing.
///
/// Two sentinels with distinct blast radii:
///
/// * the **poison pill** ([`poison::PILL_BITS`]) panics *inside* the
///   micro-batch's per-item unwind guard, exercising the item-level
///   `EnginePanic` isolation path — one inference fails, the engine
///   survives;
/// * the **kill pill** ([`poison::KILL_BITS`]) panics *outside* that
///   guard, in the dispatcher itself, exercising the supervisor — the
///   engine dies, its stranded submissions settle with
///   [`AccelError::ReplicaDown`], and later submissions fail with
///   [`AccelError::Serving`].
///
/// Both sentinels are quiet NaNs, so they round-trip bit-exactly through
/// the `snn-net` wire protocol and can be injected by a remote chaos
/// client.
#[cfg(feature = "fault-injection")]
pub mod poison {
    use snn_tensor::Tensor;

    /// Bit pattern of the per-item sentinel: a quiet NaN with a
    /// recognizable payload, so no legitimate input (finite activations)
    /// collides.
    pub const PILL_BITS: u32 = 0x7fc0_dead;

    /// Bit pattern of the engine-killing sentinel (a different quiet-NaN
    /// payload than [`PILL_BITS`]).
    pub const KILL_BITS: u32 = 0x7fc1_dead;

    /// The poison-pill value a test writes into an input's first element.
    pub fn pill() -> f32 {
        f32::from_bits(PILL_BITS)
    }

    /// The kill-pill value a test writes into an input's first element to
    /// bring down the engine that dequeues it.
    pub fn kill_pill() -> f32 {
        f32::from_bits(KILL_BITS)
    }

    /// Panics when `input` leads with the poison-pill sentinel.  Called
    /// inside the dispatcher's per-item unwind guard.
    pub(crate) fn check(input: &Tensor<f32>) {
        if input.as_slice().first().map(|v| v.to_bits()) == Some(PILL_BITS) {
            panic!("fault-injection poison pill in input");
        }
    }

    /// Panics when `input` leads with the kill-pill sentinel.  Called
    /// **outside** the per-item guard, so the unwind escapes the dispatch
    /// loop and lands in the supervisor.
    pub(crate) fn check_kill(input: &Tensor<f32>) {
        if input.as_slice().first().map(|v| v.to_bits()) == Some(KILL_BITS) {
            panic!("fault-injection kill pill: dispatcher going down");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snn_model::convert::{convert, CalibrationStats, ConversionConfig};
    use snn_model::params::Parameters;
    use snn_model::zoo;

    fn tiny_setup(time_steps: usize) -> (SnnModel, Vec<Tensor<f32>>) {
        let net = zoo::tiny_cnn();
        let params = Parameters::he_init(&net, 11).unwrap();
        let inputs: Vec<Tensor<f32>> = (0..6)
            .map(|i| {
                let values: Vec<f32> = (0..144)
                    .map(|j| ((i * 17 + j * 5) % 100) as f32 / 100.0)
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

    #[test]
    fn served_reports_match_solo_runs_bit_exactly() {
        let (model, inputs) = tiny_setup(4);
        let config = AcceleratorConfig::default();
        let server = StreamServer::start(config, model.clone()).unwrap();
        let served = server.run_all(&inputs).unwrap();
        let accel = Accelerator::new(config);
        for (report, input) in served.iter().zip(&inputs) {
            let solo = accel.run(&model, input).unwrap();
            assert_eq!(report, &solo);
        }
        let stats = server.shutdown();
        assert_eq!(stats.completed, inputs.len() as u64);
        assert_eq!(stats.errors, 0);
        assert!(stats.batches >= 1);
        assert!(stats.largest_batch <= stats.max_batch);
        assert!(!stats.utilisation.is_empty());
    }

    #[test]
    fn micro_batch_of_one_works() {
        let (model, inputs) = tiny_setup(3);
        let server = StreamServer::start_with(
            AcceleratorConfig::default(),
            model,
            ServerOptions {
                max_batch: 1,
                ..ServerOptions::default()
            },
        )
        .unwrap();
        let served = server.run_all(&inputs[..2]).unwrap();
        assert_eq!(served.len(), 2);
        let stats = server.shutdown();
        assert_eq!(stats.batches, 2);
        assert!((stats.mean_batch() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bad_inputs_error_without_stalling_the_server() {
        let (model, inputs) = tiny_setup(3);
        let server = StreamServer::start(AcceleratorConfig::default(), model).unwrap();
        let bad = server
            .submit(Tensor::filled(vec![1, 8, 8], 0.5f32))
            .unwrap();
        let good = server.submit(inputs[0].clone()).unwrap();
        assert!(bad.wait().is_err());
        assert!(good.wait().is_ok());
        let stats = server.stats();
        assert_eq!(stats.errors, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn unmappable_model_is_rejected_at_startup() {
        let (model, _) = tiny_setup(3);
        let config = AcceleratorConfig {
            conv_units: 0,
            ..AcceleratorConfig::default()
        };
        assert!(StreamServer::start(config, model).is_err());
    }

    #[test]
    fn shutdown_before_dispatch_resolves_tickets_with_an_error_or_result() {
        let (model, inputs) = tiny_setup(3);
        let server = StreamServer::start(AcceleratorConfig::default(), model).unwrap();
        let ticket = server.submit(inputs[0].clone()).unwrap();
        // Shutdown drains the queue first, so this ticket resolves with a
        // report rather than hanging.
        let stats = server.shutdown();
        assert!(ticket.wait().is_ok());
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn degenerate_options_are_rejected_at_construction() {
        for options in [
            ServerOptions {
                queue_capacity: 0,
                ..ServerOptions::default()
            },
            ServerOptions {
                max_batch: 0,
                ..ServerOptions::default()
            },
        ] {
            let (model, _) = tiny_setup(3);
            match StreamServer::start_with(AcceleratorConfig::default(), model, options) {
                Err(AccelError::InvalidConfig { context }) => {
                    assert!(context.contains("ServerOptions"), "context: {context}");
                }
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn full_queue_rejects_with_typed_error_and_counts() {
        let (model, inputs) = tiny_setup(3);
        let server = StreamServer::start_with(
            AcceleratorConfig::default(),
            model,
            ServerOptions {
                max_batch: 1,
                queue_capacity: 1,
                ..ServerOptions::default()
            },
        )
        .unwrap();
        // Submitting is orders of magnitude faster than inference, so a
        // tight loop must fill the one-slot queue long before the bounded
        // attempt cap: once the dispatcher is busy with an earlier input
        // and one more waits, the next submission is shed.
        let mut tickets = Vec::new();
        let mut rejection = None;
        for _ in 0..10_000 {
            match server.submit(inputs[0].clone()) {
                Ok(ticket) => tickets.push(ticket),
                Err(err) => {
                    rejection = Some(err);
                    break;
                }
            }
        }
        match rejection.expect("a rejection within the attempt cap") {
            AccelError::QueueFull { queued, capacity } => {
                assert_eq!(queued, 1);
                assert_eq!(capacity, 1);
            }
            other => panic!("expected QueueFull, got {other:?}"),
        }
        // A full queue yields a positive retry hint.
        let snapshot = server.queue_snapshot();
        assert_eq!(snapshot.capacity, 1);
        if snapshot.is_full() {
            assert!(snapshot.retry_after_ms() >= 1);
        }
        // Accepted inferences still complete.
        for ticket in tickets {
            ticket.wait().unwrap();
        }
        let stats = server.shutdown();
        assert!(stats.rejected >= 1);
        assert!(stats.completed >= 1);
    }

    #[test]
    fn queue_snapshot_reports_depth_capacity_and_drain_rate() {
        let (model, inputs) = tiny_setup(3);
        let server = StreamServer::start(AcceleratorConfig::default(), model).unwrap();
        let before = server.queue_snapshot();
        assert_eq!(before.capacity, DEFAULT_QUEUE_CAPACITY);
        assert!(!before.is_full());
        assert_eq!(before.retry_after_ms(), 0, "empty queue: retry now");
        server.run_all(&inputs).unwrap();
        let after = server.queue_snapshot();
        assert_eq!(after.depth, 0, "run_all drained everything");
        assert!(after.drain_rate_ips > 0.0, "served work implies a rate");
        let stats = server.shutdown();
        assert_eq!(stats.queue.capacity, DEFAULT_QUEUE_CAPACITY);
    }

    #[test]
    fn retry_hint_math_covers_the_fallbacks() {
        let empty = QueueSnapshot {
            depth: 0,
            capacity: 8,
            drain_rate_ips: 100.0,
        };
        assert_eq!(empty.retry_after_ms(), 0);
        let unmeasured = QueueSnapshot {
            depth: 3,
            capacity: 8,
            drain_rate_ips: 0.0,
        };
        assert_eq!(unmeasured.retry_after_ms(), DEFAULT_RETRY_AFTER_MS);
        let typical = QueueSnapshot {
            depth: 5,
            capacity: 8,
            drain_rate_ips: 50.0,
        };
        // 5 inferences at 50/s = 100 ms.
        assert_eq!(typical.retry_after_ms(), 100);
        let glacial = QueueSnapshot {
            depth: 1000,
            capacity: 1000,
            drain_rate_ips: 0.001,
        };
        assert_eq!(glacial.retry_after_ms(), MAX_RETRY_AFTER_MS);
    }

    #[test]
    fn try_wait_polls_without_blocking_and_matches_wait() {
        let (model, inputs) = tiny_setup(3);
        let config = AcceleratorConfig::default();
        let server = StreamServer::start(config, model.clone()).unwrap();
        let ticket = server.submit(inputs[0].clone()).unwrap();
        // Poll until it settles (bounded, far beyond any plausible run).
        let mut polled = None;
        for _ in 0..20_000 {
            if let Some(result) = ticket.try_wait() {
                polled = Some(result);
                break;
            }
            thread::sleep(std::time::Duration::from_micros(200));
        }
        let report = polled
            .expect("inference settles within the poll cap")
            .unwrap();
        let solo = Accelerator::new(config).run(&model, &inputs[0]).unwrap();
        assert_eq!(report, solo, "polled result equals the blocking oracle");
        // The result was delivered once; the drained ticket is dead.
        match ticket.try_wait() {
            Some(Err(AccelError::Serving { .. })) => {}
            other => panic!("expected a dead ticket, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn tagged_submissions_complete_through_the_sink_with_a_wake_per_completion() {
        let (model, inputs) = tiny_setup(3);
        let config = AcceleratorConfig::default();
        let server = StreamServer::start(config, model.clone()).unwrap();
        let wakes = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let wakes_in_waker = Arc::clone(&wakes);
        let (sink, completions) = CompletionSink::new(Arc::new(move || {
            wakes_in_waker.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }));
        for (tag, input) in inputs.iter().enumerate() {
            server
                .submit_tagged(input.clone(), tag as u64, &sink)
                .unwrap();
        }
        let mut seen = vec![false; inputs.len()];
        let accel = Accelerator::new(config);
        for _ in 0..inputs.len() {
            let completion = completions
                .recv_timeout(std::time::Duration::from_secs(60))
                .expect("completion arrives");
            let tag = completion.tag as usize;
            assert!(!seen[tag], "tag {tag} delivered twice");
            seen[tag] = true;
            let report = completion.result.unwrap();
            let solo = accel.run(&model, &inputs[tag]).unwrap();
            assert_eq!(report, solo, "tagged result equals the solo oracle");
        }
        assert!(seen.iter().all(|&s| s), "every tag completed");
        assert_eq!(
            wakes.load(std::sync::atomic::Ordering::SeqCst),
            inputs.len(),
            "one wake per completion, sent after the enqueue"
        );
        let stats = server.shutdown();
        assert_eq!(stats.completed, inputs.len() as u64);
    }

    #[test]
    fn tagged_rejections_produce_no_completion() {
        let (model, inputs) = tiny_setup(3);
        let server = StreamServer::start_with(
            AcceleratorConfig::default(),
            model,
            ServerOptions {
                max_batch: 1,
                queue_capacity: 1,
                ..ServerOptions::default()
            },
        )
        .unwrap();
        let (sink, completions) = CompletionSink::new(Arc::new(|| {}));
        let mut accepted = 0u64;
        let mut rejected = 0u64;
        for tag in 0..10_000 {
            match server.submit_tagged(inputs[0].clone(), tag, &sink) {
                Ok(()) => accepted += 1,
                Err(AccelError::QueueFull { .. }) => {
                    rejected += 1;
                    break;
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(rejected >= 1, "the one-slot queue must shed");
        // Exactly the accepted submissions complete; the rejection never
        // surfaces in the completion channel.
        let mut settled = 0u64;
        while let Ok(completion) = completions.recv_timeout(std::time::Duration::from_secs(60)) {
            completion.result.unwrap();
            settled += 1;
            if settled == accepted {
                break;
            }
        }
        assert_eq!(settled, accepted);
        server.shutdown();
    }

    #[test]
    fn snapshots_and_stats_are_monotone_under_load() {
        let (model, inputs) = tiny_setup(3);
        let server = StreamServer::start(AcceleratorConfig::default(), model).unwrap();
        let tickets: Vec<Ticket> = inputs
            .iter()
            .cycle()
            .take(12)
            .map(|input| server.submit(input.clone()).unwrap())
            .collect();
        // Interleave snapshots with the draining queue: the cumulative
        // counters never step backwards and the live depth stays within the
        // configured bound at every observation.
        let mut last = server.stats();
        for ticket in tickets {
            ticket.wait().unwrap();
            let snapshot = server.queue_snapshot();
            assert!(snapshot.depth <= snapshot.capacity);
            assert_eq!(snapshot.capacity, DEFAULT_QUEUE_CAPACITY);
            let stats = server.stats();
            assert!(stats.completed >= last.completed, "completed is monotone");
            assert!(stats.errors >= last.errors, "errors is monotone");
            assert!(stats.batches >= last.batches, "batches is monotone");
            assert!(stats.rejected >= last.rejected, "rejected is monotone");
            assert!(stats.elapsed_s >= last.elapsed_s, "elapsed is monotone");
            last = stats;
        }
        let final_stats = server.shutdown();
        assert_eq!(final_stats.completed, 12);
    }

    #[test]
    fn zero_max_queue_wait_sheds_everything_before_compute() {
        let (model, inputs) = tiny_setup(3);
        let server = StreamServer::start_with(
            AcceleratorConfig::default(),
            model,
            ServerOptions {
                max_queue_wait: Some(Duration::ZERO),
                ..ServerOptions::default()
            },
        )
        .unwrap();
        let tickets: Vec<Ticket> = inputs
            .iter()
            .take(3)
            .map(|input| server.submit(input.clone()).unwrap())
            .collect();
        for ticket in tickets {
            match ticket.wait() {
                Err(AccelError::DeadlineExceeded { deadline_ms, .. }) => {
                    assert_eq!(deadline_ms, 0);
                }
                other => panic!("expected DeadlineExceeded, got {other:?}"),
            }
        }
        let stats = server.shutdown();
        assert_eq!(stats.deadline_sheds, 3);
        assert_eq!(stats.completed, 0);
        assert_eq!(stats.errors, 0, "sheds are backpressure, not errors");
    }

    #[test]
    fn per_request_deadline_sheds_only_the_impatient_submission() {
        let (model, inputs) = tiny_setup(3);
        let server = StreamServer::start(AcceleratorConfig::default(), model).unwrap();
        // Keep the dispatcher busy so the impatient submission queues.
        let busy = server.submit(inputs[0].clone()).unwrap();
        let impatient = server
            .submit_within(inputs[1].clone(), Some(Duration::ZERO))
            .unwrap();
        let patient = server.submit_within(inputs[2].clone(), None).unwrap();
        busy.wait().unwrap();
        match impatient.wait() {
            Err(AccelError::DeadlineExceeded { .. }) => {}
            // The dispatcher may have drained all three into the first
            // micro-batch before the busy inference even started; in that
            // case nothing waited and nothing sheds.  Accept either, but
            // the patient submission must always complete.
            Ok(_) => {}
            other => panic!("expected DeadlineExceeded or a report, got {other:?}"),
        }
        patient.wait().unwrap();
        server.shutdown();
    }

    #[test]
    fn tagged_deadline_sheds_deliver_a_completion() {
        let (model, inputs) = tiny_setup(3);
        let server = StreamServer::start_with(
            AcceleratorConfig::default(),
            model,
            ServerOptions {
                max_queue_wait: Some(Duration::ZERO),
                ..ServerOptions::default()
            },
        )
        .unwrap();
        let (sink, completions) = CompletionSink::new(Arc::new(|| {}));
        server
            .submit_tagged_within(inputs[0].clone(), 7, &sink, None)
            .unwrap();
        let completion = completions
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("shed submissions still complete through the sink");
        assert_eq!(completion.tag, 7);
        match completion.result {
            Err(AccelError::DeadlineExceeded { .. }) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        let stats = server.shutdown();
        assert!(stats.deadline_sheds >= 1);
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn engine_panic_fails_one_item_and_the_server_survives() {
        let (model, inputs) = tiny_setup(3);
        let config = AcceleratorConfig::default();
        let server = StreamServer::start(config, model.clone()).unwrap();
        let mut poisoned_values = inputs[0].as_slice().to_vec();
        poisoned_values[0] = poison::pill();
        let poisoned = Tensor::from_vec(vec![1, 12, 12], poisoned_values).unwrap();
        let bad = server.submit(poisoned).unwrap();
        let good = server.submit(inputs[1].clone()).unwrap();
        match bad.wait() {
            Err(AccelError::EnginePanic { context }) => {
                assert!(context.contains("poison pill"), "context: {context}");
            }
            other => panic!("expected EnginePanic, got {other:?}"),
        }
        // The sibling and a fresh submission both complete, bit-exactly.
        let report = good.wait().unwrap();
        let solo = Accelerator::new(config).run(&model, &inputs[1]).unwrap();
        assert_eq!(report, solo);
        let fresh = server.submit(inputs[2].clone()).unwrap();
        fresh.wait().unwrap();
        let stats = server.shutdown();
        assert_eq!(stats.panics, 1);
        assert_eq!(stats.errors, 1, "the panic counts as an error too");
        assert_eq!(stats.completed, 2);
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn killing_the_last_replica_turns_new_submissions_into_serving_errors() {
        let (model, inputs) = tiny_setup(3);
        let server = StreamServer::start(AcceleratorConfig::default(), model).unwrap();
        let mut kill_values = inputs[0].as_slice().to_vec();
        kill_values[0] = poison::kill_pill();
        let kill = Tensor::from_vec(vec![1, 12, 12], kill_values).unwrap();
        assert!(server.is_healthy());
        let doomed = server.submit(kill).unwrap();
        // Submissions racing the death either queue behind the pill (the
        // supervisor settles them) or are refused at admission; none can
        // be served, since the queue is FIFO.
        let racing: Vec<Result<Ticket>> = inputs[1..4]
            .iter()
            .map(|input| server.submit(input.clone()))
            .collect();
        match doomed.wait() {
            Err(AccelError::ReplicaDown { context }) => {
                assert!(context.contains("dispatcher died"), "context: {context}");
            }
            other => panic!("expected ReplicaDown, got {other:?}"),
        }
        for submitted in racing {
            match submitted.map(Ticket::wait) {
                Ok(Err(AccelError::ReplicaDown { .. })) | Err(AccelError::Serving { .. }) => {}
                other => panic!("expected ReplicaDown or Serving, got {other:?}"),
            }
        }
        assert!(!server.is_healthy());
        assert_eq!(
            server.queue_snapshot().depth,
            0,
            "the dead engine was drained"
        );
        match server.submit(inputs[1].clone()) {
            Err(AccelError::Serving { context }) => {
                assert!(context.contains("down"), "context: {context}");
            }
            other => panic!("expected Serving, got {other:?}"),
        }
        let stats = server.shutdown();
        assert_eq!(stats.completed, 0);
        assert_eq!(
            stats.rejected, 0,
            "refusing a dead engine is not backpressure"
        );
    }

    #[test]
    fn default_capacity_admits_normal_traffic_without_rejections() {
        let (model, inputs) = tiny_setup(3);
        let server = StreamServer::start(AcceleratorConfig::default(), model).unwrap();
        let served = server.run_all(&inputs).unwrap();
        assert_eq!(served.len(), inputs.len());
        let stats = server.shutdown();
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.queue_capacity, DEFAULT_QUEUE_CAPACITY);
    }
}
