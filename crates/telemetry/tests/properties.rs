//! Property-pins for the telemetry crate: histogram bucket math against
//! a hand-stepped model, Prometheus exposition-format conformance for
//! the rendered series, and JSONL round-trip over arbitrary traces.
//!
//! The bucket layout is a pure function (`bucket_upper_bound`,
//! `bucket_index`), so the model here recomputes placement by walking
//! the bounds linearly and the histogram state by replaying every
//! observation into a flat vector — any drift between the two is a
//! layout change that must be deliberate (it would silently re-bucket
//! every dashboard).

use proptest::prelude::*;
use snn_telemetry::trace::{Outcome, PhaseSpan, RequestTrace, PHASES};
use snn_telemetry::{
    bucket_index, bucket_upper_bound, render_histogram, LatencyHistogram, BUCKET_COUNT,
};

/// The hand-stepped placement model: the first bound at or above the
/// sample wins; anything past the last finite bound (or NaN) is `+Inf`.
fn model_bucket(seconds: f64) -> usize {
    if seconds.is_nan() {
        return BUCKET_COUNT;
    }
    let mut i = 0;
    while i < BUCKET_COUNT {
        if seconds <= bucket_upper_bound(i) {
            return i;
        }
        i += 1;
    }
    BUCKET_COUNT
}

/// Shapes a `(kind, magnitude)` pair into an interesting sample:
/// sub-microsecond, mid-range, beyond the last bound, zero, or negative
/// (clock anomaly).  The vendored proptest has no `prop_oneof`, so the
/// mixing happens here, in plain code.
fn shape_sample(kind: usize, magnitude: f64) -> f64 {
    match kind % 5 {
        0 => 1e-9 + magnitude * 1e-6,     // below / at the first bound
        1 => magnitude * 100.0,           // the meat of the range
        2 => 40.0 + magnitude * 1e4,      // past the last finite bound
        3 => 0.0,                         // exact zero
        _ => -1e-3 * (magnitude + 0.001), // negative: clamps to bucket 0
    }
}

/// Lowercase label text from a byte vector (no string strategies in the
/// vendored proptest).
fn label_from(bytes: &[u8]) -> String {
    bytes.iter().map(|b| char::from(b'a' + (b % 26))).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Bucket bounds are strictly monotone and exactly log2-spaced, so
    /// every sample lands in exactly one bucket: the one the model picks.
    #[test]
    fn every_sample_lands_in_exactly_one_bucket(
        kind in 0usize..5,
        magnitude in 0.0f64..1.0,
    ) {
        for i in 1..BUCKET_COUNT {
            prop_assert!(bucket_upper_bound(i) > bucket_upper_bound(i - 1));
            prop_assert!(
                (bucket_upper_bound(i) / bucket_upper_bound(i - 1) - 2.0).abs() < 1e-12
            );
        }
        let s = shape_sample(kind, magnitude);
        let i = bucket_index(s);
        prop_assert_eq!(i, model_bucket(s));
        prop_assert!(i <= BUCKET_COUNT);
        if i < BUCKET_COUNT {
            prop_assert!(s <= bucket_upper_bound(i));
            if i > 0 {
                prop_assert!(s > bucket_upper_bound(i - 1));
            }
        } else {
            prop_assert!(s > bucket_upper_bound(BUCKET_COUNT - 1));
        }
    }

    /// Replaying observations into a flat model reproduces the
    /// histogram's counts, sum and count exactly; bucket counts always
    /// total the sample count (the `+Inf` catch-all leaks nothing), and
    /// merging two histograms equals observing the concatenation.
    #[test]
    fn histogram_state_matches_replayed_model(
        first in proptest::collection::vec((0usize..5, 0.0f64..1.0), 0..64),
        second in proptest::collection::vec((0usize..5, 0.0f64..1.0), 0..64),
    ) {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut model_counts = vec![0u64; BUCKET_COUNT + 1];
        let mut model_sum = 0.0f64;
        for &(kind, magnitude) in &first {
            let s = shape_sample(kind, magnitude);
            a.observe(s);
            model_counts[model_bucket(s)] += 1;
            model_sum += s;
        }
        for &(kind, magnitude) in &second {
            let s = shape_sample(kind, magnitude);
            b.observe(s);
            model_counts[model_bucket(s)] += 1;
            model_sum += s;
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), (first.len() + second.len()) as u64);
        prop_assert_eq!(a.counts().iter().sum::<u64>(), a.count());
        prop_assert_eq!(a.counts().as_slice(), model_counts.as_slice());
        prop_assert!((a.sum() - model_sum).abs() <= 1e-9 * model_sum.abs().max(1.0));

        // Quantiles are monotone in q and bounded by the bucket range.
        if !a.is_empty() {
            let p50 = a.quantile(0.5);
            let p99 = a.quantile(0.99);
            let p999 = a.quantile(0.999);
            prop_assert!(p50 <= p99 && p99 <= p999);
            prop_assert!(p999 <= bucket_upper_bound(BUCKET_COUNT - 1));
        }
    }

    /// Exposition conformance for any rendered histogram: one HELP and
    /// one TYPE line, cumulative non-decreasing `_bucket` series ending
    /// in `le="+Inf"` equal to `_count`, and every line either a comment
    /// or a `name{...} value` sample of that family.
    #[test]
    fn rendered_exposition_is_conformant(
        samples in proptest::collection::vec((0usize..5, 0.0f64..1.0), 0..32),
        label_bytes in proptest::collection::vec(0u8..255, 0..12),
    ) {
        let mut h = LatencyHistogram::new();
        for &(kind, magnitude) in &samples {
            h.observe(shape_sample(kind, magnitude));
        }
        let label = label_from(&label_bytes);
        let mut out = String::new();
        render_histogram(
            &mut out,
            "snn_test_seconds",
            "Test histogram.",
            &[(Some(("reactor", label.clone())), &h)],
        );
        let lines: Vec<&str> = out.lines().collect();
        prop_assert_eq!(lines[0], "# HELP snn_test_seconds Test histogram.");
        prop_assert_eq!(lines[1], "# TYPE snn_test_seconds histogram");
        prop_assert_eq!(
            lines.iter().filter(|l| l.starts_with('#')).count(), 2,
            "exactly one HELP and one TYPE line"
        );

        let mut previous = 0u64;
        let mut bucket_lines = 0usize;
        let mut last_le = String::new();
        for line in &lines[2..] {
            prop_assert!(
                line.starts_with("snn_test_seconds_bucket{")
                    || line.starts_with("snn_test_seconds_sum{")
                    || line.starts_with("snn_test_seconds_count{"),
                "unexpected line {:?}", line
            );
            if let Some(rest) = line.strip_prefix("snn_test_seconds_bucket{") {
                bucket_lines += 1;
                let (labels, value) = rest.rsplit_once("} ").unwrap();
                prop_assert!(labels.starts_with("reactor=\""));
                last_le = labels
                    .rsplit("le=\"")
                    .next()
                    .unwrap()
                    .trim_end_matches('"')
                    .to_string();
                let cumulative: u64 = value.parse().unwrap();
                prop_assert!(cumulative >= previous, "cumulative counts never decrease");
                previous = cumulative;
            }
        }
        prop_assert_eq!(bucket_lines, BUCKET_COUNT + 1);
        prop_assert_eq!(last_le.as_str(), "+Inf");
        prop_assert_eq!(previous, h.count(), "+Inf bucket equals _count");
        let count_line = *lines.last().unwrap();
        let count_suffix = format!(" {}", h.count());
        let count_matches = count_line.ends_with(&count_suffix);
        prop_assert!(count_matches, "count line mismatch: {:?}", count_line);
    }

    /// Any trace the recorder can produce survives the JSONL round trip
    /// with its identity, queue depth, outcome and phase set intact.
    #[test]
    fn jsonl_round_trips_arbitrary_traces(
        request_id in 0u64..u64::MAX / 2,
        unix_ms in 0u64..4_000_000_000_000,
        depth in proptest::option::of(0usize..1024),
        phase_mask in 0u8..64,
        durations in proptest::collection::vec(0.0f64..100.0, 6..=6),
        outcome_pick in 0usize..5,
        scope_bytes in proptest::collection::vec(0u8..255, 1..12),
        cycles in 0u64..1_000_000_000,
    ) {
        let scope = label_from(&scope_bytes);
        let outcome = match outcome_pick {
            0 => Outcome::Scores { total_cycles: cycles },
            1 => Outcome::Rejected { scope: scope.clone() },
            2 => Outcome::Error { code: scope.clone() },
            3 => Outcome::ReplicaDown,
            _ => Outcome::Abandoned,
        };
        let phases: Vec<PhaseSpan> = PHASES
            .iter()
            .enumerate()
            .filter(|(i, _)| phase_mask & (1 << i) != 0)
            .map(|(i, &phase)| PhaseSpan { phase, seconds: durations[i] })
            .collect();
        let trace = RequestTrace {
            request_id,
            unix_ms,
            queue_depth_at_route: depth,
            phases,
            outcome,
            total_seconds: durations.iter().sum(),
        };
        let parsed = RequestTrace::from_json_line(&trace.to_json_line());
        let parsed = parsed.expect("emitted line must parse");
        prop_assert_eq!(parsed.request_id, trace.request_id);
        prop_assert_eq!(parsed.unix_ms, trace.unix_ms);
        prop_assert_eq!(parsed.queue_depth_at_route, trace.queue_depth_at_route);
        prop_assert_eq!(&parsed.outcome, &trace.outcome);
        prop_assert_eq!(parsed.phases.len(), trace.phases.len());
        for (a, b) in parsed.phases.iter().zip(&trace.phases) {
            prop_assert_eq!(a.phase, b.phase);
            prop_assert!((a.seconds - b.seconds).abs() <= 1e-9 * b.seconds.max(1e-6));
        }
    }
}
