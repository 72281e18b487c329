//! Per-request span telemetry for the SNN serving stack.
//!
//! This crate is the observability backbone the serving layers
//! (`snn-accel`'s `StreamServer`, `snn-net`'s reactor) thread a
//! [`SpanRecorder`] through: every admitted request carries a
//! [`TraceBuilder`] that marks typed phase boundaries
//! ([`Phase::Admission`] → [`Phase::Route`] → [`Phase::QueueWait`] →
//! [`Phase::BatchAssembly`] → [`Phase::Compute`], with
//! [`Phase::WriteStall`] appended by the reactor after settle) and a
//! terminal [`Outcome`].  Completed [`RequestTrace`]s are exported three
//! ways:
//!
//! 1. **Prometheus histograms** — [`SpanRecorder::render_prometheus_into`]
//!    appends `snn_request_queue_wait_seconds`,
//!    `snn_request_compute_seconds`, `snn_request_duration_seconds` and
//!    `snn_reactor_write_stall_seconds` to
//!    the existing STATS exposition, using the fixed log-spaced buckets
//!    of [`histogram`].
//! 2. **JSONL trace dump** — [`SpanRecorder::render_jsonl`] drains the
//!    ring buffer into one [`RequestTrace::to_json_line`]
//!    line per trace (STATS format byte `2 = TRACES` on the wire).
//! 3. **Bench percentiles** — [`LatencyHistogram::quantile`] gives the
//!    bench harnesses p50/p99/p999 per phase for `BENCH_*.json`.
//!
//! Design constraints (see `ARCHITECTURE.md` § Observability): the hot
//! path is wait-free — a span start is two `Instant` reads and an array
//! store on builder-owned state, and the single mutex touch happens at
//! completion.  Tracing is on by default; `SNN_TRACE=0`
//! ([`trace_enabled_from_env`]) disables it with bit-identical serving
//! results.

pub mod histogram;
pub mod trace;

pub use histogram::{
    bucket_index, bucket_upper_bound, escape_label_value, render_histogram, LatencyHistogram,
    BUCKET_COUNT,
};
pub use trace::{
    trace_enabled_from_env, Outcome, Phase, PhaseSpan, RequestTrace, SpanRecorder, TraceBuilder,
    DEFAULT_TRACE_CAPACITY, PHASES, PHASE_COUNT,
};
