//! The engine loop: one bounded submission queue, one dispatcher thread.
//!
//! A [`crate::serve::StreamServer`] compiles its model **once** and runs
//! one of these engines over the compiled program: micro-batch draining,
//! deadline shedding before compute, per-item panic isolation and
//! stats-before-settle ordering all live here.  The throughput comes from
//! parallelism *inside* the engine — each micro-batch fans out over the
//! whole global thread budget — not from duplicate engines.
//!
//! The dispatcher body runs under a **supervisor** (`catch_unwind`), so a
//! panic that escapes the per-item guard (a bug in the dispatcher itself,
//! or the fault-injection *kill pill*) cannot strand a client.  The
//! supervisor marks the engine unhealthy, closes its queue, and settles
//! every queued and in-flight submission with the typed
//! [`AccelError::ReplicaDown`]; later submissions are refused with
//! [`AccelError::Serving`].

use super::stats::StatsAccum;
use super::{CompletionSink, ServerOptions};
use crate::compiler::Program;
use crate::report::RunReport;
use crate::sim::Accelerator;
use crate::{AccelError, Result};
use snn_model::snn::SnnModel;
use snn_telemetry::{Outcome, Phase, TraceBuilder};
use snn_tensor::Tensor;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Locks an engine-owned mutex, tolerating poison: a dispatcher that
/// panicked mid-batch leaves its locks poisoned, and the supervisor (and
/// any stats reader) must still be able to walk the wreckage to settle
/// stranded submissions and report counters.
pub(crate) fn relock<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Where a settled submission's result goes.
pub(crate) enum ReplyTo {
    /// Per-submission channel behind a [`crate::serve::Ticket`] (blocking
    /// callers).
    Ticket(mpsc::Sender<Result<RunReport>>),
    /// Shared completion queue with a tag (non-blocking callers).
    Sink {
        /// Caller-chosen tag echoed in the completion.
        tag: u64,
        /// The shared sink.
        sink: CompletionSink,
    },
}

/// One queued inference.
pub(crate) struct Submission {
    pub(crate) input: Tensor<f32>,
    pub(crate) reply: ReplyTo,
    /// When the submission entered the queue (the deadline's clock zero).
    pub(crate) enqueued_at: Instant,
    /// Effective queue-wait deadline: the tighter of the per-request
    /// deadline and [`ServerOptions::max_queue_wait`], resolved at
    /// admission.  `None` never expires.
    pub(crate) deadline: Option<Duration>,
    /// The request's span trace, carried with the submission through the
    /// pipeline (builder-owned state: recording a phase boundary takes no
    /// locks).  Finished in [`Submission::settle`]; dropping an unsettled
    /// submission publishes an `abandoned` trace instead of leaking an
    /// open span.
    pub(crate) trace: TraceBuilder,
}

/// Maps an inference result onto the trace's terminal outcome.
fn outcome_of(result: &Result<RunReport>) -> Outcome {
    match result {
        Ok(report) => Outcome::Scores {
            total_cycles: report.total_cycles(),
        },
        Err(err) => error_outcome(err),
    }
}

/// The trace outcome of a request that ended in `err`.
fn error_outcome(err: &AccelError) -> Outcome {
    match err {
        AccelError::DeadlineExceeded { .. } => Outcome::Rejected {
            scope: "deadline".to_string(),
        },
        AccelError::QueueFull { .. } => Outcome::Rejected {
            scope: "queue".to_string(),
        },
        AccelError::EnginePanic { .. } => Outcome::Error {
            code: "engine_panic".to_string(),
        },
        AccelError::ReplicaDown { .. } => Outcome::ReplicaDown,
        AccelError::Serving { .. } => Outcome::Error {
            code: "serving".to_string(),
        },
        _ => Outcome::Error {
            code: "bad_request".to_string(),
        },
    }
}

impl Submission {
    /// Whether this submission's queue wait has reached its deadline at
    /// `now` (a shed happens strictly before compute, so "reached" — not
    /// "exceeded" — is the boundary: a zero deadline always sheds).
    fn expired_at(&self, now: Instant) -> bool {
        match self.deadline {
            Some(deadline) => now.duration_since(self.enqueued_at) >= deadline,
            None => false,
        }
    }

    /// Delivers `result` to whichever completion path this submission
    /// uses (dropped tickets and closed sinks just mean the client
    /// stopped listening; the waker fires strictly after the send).
    pub(crate) fn settle(mut self, result: Result<RunReport>) {
        // Publish the trace before delivery: a client holding its result
        // is guaranteed to find the completed trace in the recorder.
        self.trace.finish(outcome_of(&result));
        match self.reply {
            ReplyTo::Ticket(reply) => {
                let _ = reply.send(result);
            }
            ReplyTo::Sink { tag, sink } => {
                if sink.sender.send(super::Completion { tag, result }).is_ok() {
                    (sink.waker)();
                }
            }
        }
    }
}

/// The engine's bounded submission queue plus its shutdown latch.
#[derive(Default)]
pub(crate) struct SubmissionQueue {
    pub(crate) jobs: VecDeque<Submission>,
    /// Set on server shutdown — and by the supervisor when the dispatcher
    /// dies, which is what makes a dead engine refuse new submissions
    /// without a race: both the drain and every admission hold the queue
    /// lock.
    pub(crate) shutdown: bool,
}

/// The compile-once state: one accelerator, one model, one program, one
/// set of options.
pub(crate) struct EngineShared {
    pub(crate) accel: Accelerator,
    pub(crate) model: SnnModel,
    pub(crate) program: Program,
    pub(crate) options: ServerOptions,
}

/// The serving engine: compiled program, queue, dispatcher handshake,
/// stats and health.
pub(crate) struct ReplicaShared {
    pub(crate) engine: EngineShared,
    pub(crate) queue: Mutex<SubmissionQueue>,
    pub(crate) ready: Condvar,
    pub(crate) stats: Mutex<StatsAccum>,
    /// Cleared by the supervisor when the dispatcher dies; read lock-free
    /// by [`crate::serve::StreamServer::is_healthy`].
    pub(crate) healthy: AtomicBool,
    /// The micro-batch currently executing.  The dispatcher parks each
    /// batch here for the duration of the compute so the supervisor can
    /// settle exactly these submissions if the dispatcher dies mid-batch.
    pub(crate) in_flight: Mutex<Vec<Submission>>,
    pub(crate) started: Instant,
}

impl ReplicaShared {
    pub(crate) fn new(engine: EngineShared) -> Self {
        ReplicaShared {
            engine,
            queue: Mutex::new(SubmissionQueue::default()),
            ready: Condvar::new(),
            stats: Mutex::new(StatsAccum::new()),
            healthy: AtomicBool::new(true),
            in_flight: Mutex::new(Vec::new()),
            started: Instant::now(),
        }
    }

    /// Admits `submission` into the bounded queue, or refuses it.  Never
    /// blocks beyond the queue lock.  The trace is routed under that lock
    /// (it records the depth the submission queued behind) and enters
    /// [`Phase::QueueWait`] just before the push; a refused submission's
    /// trace is finished here and it produces no completion.
    ///
    /// # Errors
    ///
    /// [`AccelError::QueueFull`] when the queue already holds
    /// [`ServerOptions::queue_capacity`] submissions, and
    /// [`AccelError::Serving`] once the queue is shut down (server stop,
    /// or a dead dispatcher).
    pub(crate) fn try_enqueue(&self, mut submission: Submission) -> Result<()> {
        let capacity = self.engine.options.queue_capacity;
        let mut queue = relock(&self.queue);
        let queued = queue.jobs.len();
        let err = if queue.shutdown {
            let context = if self.healthy.load(Ordering::SeqCst) {
                "server is shutting down and no longer accepts submissions"
            } else {
                "the engine is down; the server cannot serve until it is restarted"
            };
            AccelError::Serving {
                context: context.to_string(),
            }
        } else if queued >= capacity {
            AccelError::QueueFull { queued, capacity }
        } else {
            submission.trace.note_route(queued);
            submission.trace.advance(Phase::QueueWait);
            queue.jobs.push_back(submission);
            drop(queue);
            self.ready.notify_one();
            return Ok(());
        };
        drop(queue);
        submission.trace.finish(error_outcome(&err));
        Err(err)
    }

    /// Marks the queue shut down and wakes the dispatcher (server stop).
    pub(crate) fn begin_shutdown(&self) {
        relock(&self.queue).shutdown = true;
        self.ready.notify_all();
    }
}

/// The dispatcher thread body: the dispatch loop under its supervisor.
///
/// A normal return (server shutdown) leaves the engine healthy.  A panic
/// that unwinds out of the dispatch loop — past the per-item guard — is
/// caught here: the engine is marked unhealthy, its queue is closed, and
/// every queued and in-flight submission settles with
/// [`AccelError::ReplicaDown`].  Those settles are supervision, not
/// inference outcomes, so they are **not** counted in `errors`; the
/// health flag and the typed error carry the story.
pub(crate) fn run(shared: &Arc<ReplicaShared>) {
    let outcome = catch_unwind(AssertUnwindSafe(|| dispatch_loop(shared)));
    if outcome.is_ok() {
        return;
    }
    shared.healthy.store(false, Ordering::SeqCst);
    let queued: Vec<Submission> = {
        let mut queue = relock(&shared.queue);
        queue.shutdown = true;
        queue.jobs.drain(..).collect()
    };
    let in_flight: Vec<Submission> = std::mem::take(&mut *relock(&shared.in_flight));
    let context = "the dispatcher died mid-batch; the submission was drained unserved \
                   (later submissions are refused until the server is restarted)";
    for submission in in_flight.into_iter().chain(queued) {
        submission.settle(Err(AccelError::ReplicaDown {
            context: context.to_string(),
        }));
    }
}

fn dispatch_loop(shared: &ReplicaShared) {
    let engine = &shared.engine;
    let max_batch = engine.options.max_batch.max(1);
    loop {
        // Collect the next micro-batch: everything queued, capped.
        let batch: Vec<Submission> = {
            let mut queue = relock(&shared.queue);
            loop {
                if !queue.jobs.is_empty() {
                    let take = queue.jobs.len().min(max_batch);
                    break queue.jobs.drain(..take).collect();
                }
                if queue.shutdown {
                    return;
                }
                queue = shared
                    .ready
                    .wait(queue)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        };

        // Shed expired entries *before* compute: work the client has
        // already given up on is answered with a typed error at queue
        // cost, not computed late at full cost.
        let now = Instant::now();
        let (mut batch, expired): (Vec<Submission>, Vec<Submission>) =
            batch.into_iter().partition(|s| !s.expired_at(now));
        // Kept submissions leave the queue here: queue_wait ends, batch
        // assembly begins.  (Expired ones finish inside `settle` below —
        // their whole post-admission life was queue wait.)
        for submission in batch.iter_mut() {
            submission.trace.advance(Phase::BatchAssembly);
        }
        if !expired.is_empty() {
            relock(&shared.stats).deadline_sheds += expired.len() as u64;
            for submission in expired {
                let waited_ms = now.duration_since(submission.enqueued_at).as_millis() as u64;
                let deadline_ms = submission
                    .deadline
                    .map(|d| d.as_millis() as u64)
                    .unwrap_or(0);
                submission.settle(Err(AccelError::DeadlineExceeded {
                    waited_ms,
                    deadline_ms,
                }));
            }
        }
        if batch.is_empty() {
            continue;
        }

        // Park the batch in `in_flight` for the duration of the compute:
        // if anything below unwinds past the per-item guard, the
        // supervisor finds exactly these submissions and settles them.
        let mut in_flight = relock(&shared.in_flight);
        *in_flight = batch;

        // The kill pill is checked *outside* the per-item guard: it
        // models a dispatcher-level crash (not an engine panic), so it
        // unwinds the whole loop into the supervisor.
        #[cfg(feature = "fault-injection")]
        for submission in in_flight.iter() {
            super::poison::check_kill(&submission.input);
        }

        // Compute starts now.  Marked while the in-flight guard is still
        // mutable — `par_map` below borrows the batch immutably.
        for submission in in_flight.iter_mut() {
            submission.trace.advance(Phase::Compute);
        }

        // Execute the micro-batch over the whole worker pool.  Each item runs under its own unwind guard: a panicking
        // inference fails only itself with the typed `EnginePanic`, never
        // the dispatcher (snn-parallel would otherwise re-raise the task
        // panic here and kill the serving loop).
        let threads = snn_parallel::budget().total().min(in_flight.len());
        let reports = snn_parallel::par_map(&in_flight, threads, |_, submission| {
            snn_parallel::catch_panic_message(|| {
                #[cfg(feature = "fault-injection")]
                super::poison::check(&submission.input);
                engine
                    .accel
                    .execute_compiled(&engine.model, &engine.program, &submission.input)
            })
            .unwrap_or_else(|message| Err(AccelError::EnginePanic { context: message }))
        });

        let completed = reports.iter().filter(|r| r.is_ok()).count() as u64;
        let errors = reports.len() as u64 - completed;
        let panics = reports
            .iter()
            .filter(|r| matches!(r, Err(AccelError::EnginePanic { .. })))
            .count() as u64;
        // Count before replying, so a client that has its result in hand
        // is guaranteed to find it reflected in the server statistics.
        {
            let mut accum = relock(&shared.stats);
            accum.completed += completed;
            accum.errors += errors;
            accum.panics += panics;
            accum.batches += 1;
            accum.largest_batch = accum.largest_batch.max((completed + errors) as usize);
            accum.recent.push_back((Instant::now(), completed + errors));
            if accum.recent.len() > super::stats::DRAIN_WINDOW_BATCHES {
                accum.recent.pop_front();
            }
        }
        let batch = std::mem::take(&mut *in_flight);
        drop(in_flight);
        for (submission, report) in batch.into_iter().zip(reports) {
            // Waker strictly after the send (inside `settle`): a reactor
            // woken by the pipe byte must find the completion queued.
            submission.settle(report);
        }
    }
}
