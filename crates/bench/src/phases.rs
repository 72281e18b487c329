//! Per-phase latency summaries for the bench harnesses: turns a drained
//! batch of [`RequestTrace`]s into the `"trace_phase_latency"` JSON
//! object embedded in `BENCH_net.json` / `BENCH_serve.json`, so the
//! PR-over-PR trend tracks p50/p99/p999 of queue wait, compute and
//! end-to-end duration (and, at the TCP boundary, reactor write stall)
//! alongside raw throughput.
//!
//! Keys end in `_us`, which [`crate::trend`] classifies as
//! lower-is-better durations.

use snn_telemetry::{Phase, RequestTrace, PHASES};

/// Nearest-rank percentile over an **ascending** sample slice, as
/// `numerator/denominator` (e.g. `999/1000` for p99.9).  Empty input
/// yields `0.0`.
pub fn percentile(sorted: &[f64], numerator: usize, denominator: usize) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let index = (sorted.len() - 1) * numerator / denominator;
    sorted[index]
}

fn summary_json(label: &str, mut samples_us: Vec<f64>) -> String {
    samples_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    format!(
        "\"{label}\": {{\"p50_us\": {:.1}, \"p99_us\": {:.1}, \"p999_us\": {:.1}}}",
        percentile(&samples_us, 50, 100),
        percentile(&samples_us, 99, 100),
        percentile(&samples_us, 999, 1000)
    )
}

/// Renders the `"trace_phase_latency"` object body (the `{...}` value)
/// from drained traces: one `p50_us`/`p99_us`/`p999_us` summary per
/// phase that recorded at least one sample, plus the end-to-end
/// `duration` summary over every trace.
pub fn phase_latency_json(traces: &[RequestTrace]) -> String {
    let mut entries = Vec::new();
    for phase in PHASES {
        let samples: Vec<f64> = traces
            .iter()
            .filter_map(|t| t.phase_seconds(phase))
            .map(|s| s * 1e6)
            .collect();
        if !samples.is_empty() {
            entries.push(summary_json(phase.name(), samples));
        }
    }
    let durations: Vec<f64> = traces.iter().map(|t| t.total_seconds * 1e6).collect();
    if !durations.is_empty() {
        entries.push(summary_json("duration", durations));
    }
    format!("{{{}}}", entries.join(", "))
}

/// `true` when at least one trace recorded the phase — used by harnesses
/// to assert the pipeline actually produced what they are summarising.
pub fn any_phase(traces: &[RequestTrace], phase: Phase) -> bool {
    traces.iter().any(|t| t.phase_seconds(phase).is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use snn_telemetry::{Outcome, PhaseSpan};

    fn trace(id: u64, compute_s: f64) -> RequestTrace {
        RequestTrace {
            request_id: id,
            unix_ms: 0,
            queue_depth_at_route: Some(0),
            phases: vec![PhaseSpan {
                phase: Phase::Compute,
                seconds: compute_s,
            }],
            outcome: Outcome::Scores { total_cycles: 1 },
            total_seconds: compute_s * 2.0,
        }
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50, 100), 50.0);
        assert_eq!(percentile(&sorted, 99, 100), 99.0);
        assert_eq!(percentile(&sorted, 999, 1000), 99.0);
        assert_eq!(percentile(&[], 50, 100), 0.0);
    }

    #[test]
    fn json_carries_only_recorded_phases_plus_duration() {
        let traces: Vec<RequestTrace> = (0..10).map(|i| trace(i, 0.001 * (i + 1) as f64)).collect();
        let json = phase_latency_json(&traces);
        assert!(json.contains("\"compute\": {\"p50_us\":"), "{json}");
        assert!(json.contains("\"duration\": {"), "{json}");
        assert!(!json.contains("queue_wait"), "{json}");
        // The fragment is a complete JSON object the trend reader accepts.
        let wrapped = format!("{{\"trace_phase_latency\": {json}}}");
        let metrics = crate::trend::parse_metrics(&wrapped).unwrap();
        assert!(metrics
            .iter()
            .any(|m| m.id == "trace_phase_latency/compute/p99_us" && !m.higher_is_better));
    }
}
