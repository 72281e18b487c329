//! Serving statistics: the dispatcher's accumulator, queue snapshots, the
//! windowed drain-rate estimate, and the [`ServerStats`] view.
//!
//! The drain rate is the source of every retry-after hint, so its math
//! lives here as the **pure** function
//! [`drain_rate`] — callable without a server, which is how
//! `crates/core/tests/drain_rate_properties.rs` pins it against a
//! hand-stepped model (windowed rate, lifetime fallback, empty-window
//! division).

use crate::report::UnitUtilisation;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// How many recent micro-batch completions the drain-rate window keeps
/// (the "recent" in [`QueueSnapshot::drain_rate_ips`]).
pub const DRAIN_WINDOW_BATCHES: usize = 32;

/// Fallback retry hint when a server has not yet drained anything, so no
/// drain rate is measurable (milliseconds).
pub const DEFAULT_RETRY_AFTER_MS: u64 = 100;

/// Upper clamp of [`QueueSnapshot::retry_after_ms`] (one minute).
pub const MAX_RETRY_AFTER_MS: u64 = 60_000;

/// Cumulative counters, updated by the dispatcher under the stats lock.
pub(crate) struct StatsAccum {
    pub(crate) completed: u64,
    pub(crate) errors: u64,
    pub(crate) batches: u64,
    pub(crate) largest_batch: usize,
    pub(crate) panics: u64,
    pub(crate) deadline_sheds: u64,
    /// `(completion instant, inferences settled)` of the most recent
    /// micro-batches, capped at [`DRAIN_WINDOW_BATCHES`] entries — the
    /// basis of the *recent* drain rate in [`QueueSnapshot`].
    pub(crate) recent: VecDeque<(Instant, u64)>,
}

impl StatsAccum {
    pub(crate) fn new() -> Self {
        StatsAccum {
            completed: 0,
            errors: 0,
            batches: 0,
            largest_batch: 0,
            panics: 0,
            deadline_sheds: 0,
            recent: VecDeque::new(),
        }
    }

    /// The engine's drain rate right now (see [`drain_rate`]).
    pub(crate) fn drain_rate_ips(&self, started: Instant) -> f64 {
        drain_rate(
            &self.recent,
            self.completed + self.errors,
            started.elapsed(),
        )
    }
}

/// Recent drain rate in inferences/second, measured **completion to
/// completion** across the window: the inferences settled after the oldest
/// windowed batch, divided by the span between the oldest and newest batch
/// completions.  Anchoring both ends on completions (rather than on "now")
/// keeps the rate a measure of how fast the dispatcher drains *when it is
/// draining* — an idle lull must not decay it, or the retry-after hints
/// derived from it would balloon after every quiet period.  Falls back to
/// the lifetime average (`lifetime_settled / lifetime_elapsed`) when the
/// window holds fewer than two batches or spans zero time, and to `0.0`
/// when nothing has ever settled.
///
/// `recent` is the window of `(completion instant, inferences settled)`
/// records, oldest first, as maintained by the dispatcher (capped at
/// [`DRAIN_WINDOW_BATCHES`] entries); `lifetime_settled` is the cumulative
/// `completed + errors` count and `lifetime_elapsed` the wall-clock age of
/// the engine.
pub fn drain_rate(
    recent: &VecDeque<(Instant, u64)>,
    lifetime_settled: u64,
    lifetime_elapsed: Duration,
) -> f64 {
    if let (Some(&(oldest, oldest_items)), Some(&(newest, _))) = (recent.front(), recent.back()) {
        let span = newest.duration_since(oldest).as_secs_f64();
        // The oldest record marks the window start; its items settled at
        // (not during) the measured span.
        let items: u64 = recent.iter().map(|&(_, n)| n).sum::<u64>() - oldest_items;
        if span > 0.0 && items > 0 {
            return items as f64 / span;
        }
    }
    let elapsed = lifetime_elapsed.as_secs_f64();
    if elapsed > 0.0 && lifetime_settled > 0 {
        return lifetime_settled as f64 / elapsed;
    }
    0.0
}

/// A cheap point-in-time view of a submission queue's load: how deep it
/// is, how big it may grow, and how fast the dispatcher has recently been
/// draining it.
///
/// Produced by [`crate::serve::StreamServer::queue_snapshot`] (short lock
/// holds, no allocation).  This is the signal a network front-end turns
/// into *retry-after* hints on rejected submissions, closing the loop on the reject-when-full admission policy:
/// a shed client learns not just that the server is full but when capacity
/// is likely to reappear.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueSnapshot {
    /// Submissions currently queued and not yet dispatched.
    pub depth: usize,
    /// Configured queue capacity
    /// ([`crate::serve::ServerOptions::queue_capacity`]).
    pub capacity: usize,
    /// Recent drain rate in inferences per second: inferences settled
    /// across the last [`DRAIN_WINDOW_BATCHES`] micro-batches divided by
    /// the span between the oldest and newest of those completions — a
    /// completion-to-completion measure, so idle periods do not decay it
    /// (falling back to the lifetime average, and `0.0` before anything
    /// has been served).
    pub drain_rate_ips: f64,
}

impl QueueSnapshot {
    /// Whether the next submission would be rejected.
    pub fn is_full(&self) -> bool {
        self.depth >= self.capacity
    }

    /// Milliseconds a rejected client should wait before retrying: the time
    /// the dispatcher needs to drain the current queue depth at the recent
    /// drain rate, clamped to `1..=`[`MAX_RETRY_AFTER_MS`].
    ///
    /// Returns `0` when the queue is empty (retry immediately) and
    /// [`DEFAULT_RETRY_AFTER_MS`] when no drain rate is measurable yet.
    pub fn retry_after_ms(&self) -> u64 {
        if self.depth == 0 {
            return 0;
        }
        if self.drain_rate_ips <= 0.0 {
            return DEFAULT_RETRY_AFTER_MS;
        }
        let ms = (self.depth as f64 / self.drain_rate_ips * 1000.0).ceil() as u64;
        ms.clamp(1, MAX_RETRY_AFTER_MS)
    }
}

/// Snapshot of a server's serving statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerStats {
    /// Inferences completed successfully.
    pub completed: u64,
    /// Inferences that returned an error.
    pub errors: u64,
    /// Micro-batches dispatched.
    pub batches: u64,
    /// Largest micro-batch dispatched so far.
    pub largest_batch: usize,
    /// Submissions rejected by the bounded-queue admission policy.
    pub rejected: u64,
    /// Engine panics caught at the micro-batch item boundary: each one
    /// failed exactly one inference with [`crate::AccelError::EnginePanic`]
    /// (also counted in `errors`) and left the dispatcher, its batch
    /// siblings and the server running.
    pub panics: u64,
    /// Submissions shed from the queue before compute because their queue
    /// wait reached its deadline (see
    /// [`crate::serve::ServerOptions::max_queue_wait`]); like `rejected`,
    /// these are backpressure and are *not* counted in `errors` or
    /// `completed`.
    pub deadline_sheds: u64,
    /// Queue-depth / drain-rate snapshot.  The drain rate is windowed
    /// over the most recent [`DRAIN_WINDOW_BATCHES`] micro-batch
    /// completions, measured completion-to-completion so idle lulls do
    /// not decay it; with fewer than two windowed batches it falls back
    /// to the lifetime average.  Across successive snapshots the cumulative counters in
    /// this struct (`completed`, `errors`, `batches`, `rejected`) are
    /// monotone non-decreasing, and `queue.depth` never exceeds
    /// `queue.capacity`.
    pub queue: QueueSnapshot,
    /// Configured micro-batch cap.
    pub max_batch: usize,
    /// Configured submission-queue capacity
    /// ([`crate::serve::ServerOptions::queue_capacity`]).
    pub queue_capacity: usize,
    /// Effective global thread budget each micro-batch fans out over.
    pub thread_budget: usize,
    /// Wall-clock seconds since the server started.
    pub elapsed_s: f64,
    /// Modelled per-unit busy/idle occupancy of one inference (identical
    /// for every inference of the compiled model).
    pub utilisation: Vec<UnitUtilisation>,
}

impl ServerStats {
    /// Completed inferences per wall-clock second since start-up.
    pub fn throughput_ips(&self) -> f64 {
        if self.elapsed_s <= 0.0 {
            return 0.0;
        }
        self.completed as f64 / self.elapsed_s
    }

    /// Mean micro-batch size (`0.0` before the first batch).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        (self.completed + self.errors) as f64 / self.batches as f64
    }
}
