//! Benchmark trend checking: compares a freshly generated `BENCH_*.json`
//! summary against the committed previous values and reports regressions.
//!
//! The summaries are written by the bench harnesses themselves
//! (`BENCH_conv.json` by `conv_unit`, `BENCH_serve.json` by `end_to_end`),
//! so the format is ours; a tiny flattening JSON reader keeps this free of
//! external dependencies (the container has no registry access).  Metrics
//! are classified by their key path:
//!
//! * `*_ns`, `*_us`, `*_ms` — durations (and latency percentiles like the
//!   `p50_us`/`p99_us` of `BENCH_net.json`), **lower** is better;
//! * `*speedup*`, `*per_sec*` paths, path segments ending in `_ips`
//!   (inferences per second, e.g. `drain_rate_ips`; an `_ips` parent
//!   segment marks every leaf under it) and `utilisation` leaf keys — ratios/rates,
//!   **higher** is better;
//! * everything else (sample counts, batch sizes, cycle counts — including
//!   the `busy_cycles`/`total_cycles` siblings of a utilisation entry) is
//!   informational and not compared.  So are the open-loop generator's
//!   own scheduling-noise keys (`jitter`, `send_lag`): they describe the
//!   load machine, not the server, and exist precisely so a latency
//!   regression can be cross-checked against them by a human.
//!
//! The check is **two-tier**, with the failure tier set per metric by
//! [`fail_threshold_for`]:
//!
//! * **Stable duration keys** (`_ns`/`_us`/`_ms`, e.g. latency p50/p99)
//!   **fail** past [`DEFAULT_THRESHOLD`] (20 %) — three PRs of baselines
//!   have shown them reproducible on the hosted runner, so a 20 % growth
//!   is a real regression, not noise.  Two escape hatches keep this
//!   strict tier honest: the extreme-tail `p999*` keys warn but never
//!   fail (a single descheduled request moves them an order of
//!   magnitude), and regressions where both sides sit under the
//!   [`MATERIALITY_FLOOR_US`] absolute floor are skipped outright (a
//!   relative threshold on a 3 µs phase measures scheduler jitter).
//! * **Throughput keys** (`_ips`, `per_sec`, `speedup`, `utilisation`)
//!   warn past 20 % and only fail past [`FAIL_THRESHOLD`] (50 %): the
//!   1-core hosted runner's available parallelism varies enough that a
//!   few tens of percent of throughput is genuinely ambient.

use std::fmt;

/// Fraction of change treated as a regression (20 %).
pub const DEFAULT_THRESHOLD: f64 = 0.20;

/// Fraction of change past which a regression **fails** the trend check
/// instead of warning (50 %): hosted-runner noise explains a few tens of
/// percent on micro-benchmarks, not a halving of throughput.  Duration
/// metrics use the stricter per-metric tier from [`fail_threshold_for`].
pub const FAIL_THRESHOLD: f64 = 0.50;

/// The failure tier of one metric key: stable duration keys
/// (`_ns`/`_us`/`_ms`) fail at [`DEFAULT_THRESHOLD`]; the extreme-tail
/// `p999*` duration percentiles never fail (on a 1-core hosted runner the
/// p999 of a few hundred samples *is* the max sample, and one deschedule
/// moves it an order of magnitude — they still warn); everything else
/// fails at [`FAIL_THRESHOLD`].  See the module docs for the rationale.
pub fn fail_threshold_for(id: &str) -> f64 {
    let duration = id.split('/').any(|segment| {
        segment.ends_with("_ns") || segment.ends_with("_us") || segment.ends_with("_ms")
    });
    let extreme_tail = id.split('/').any(|segment| segment.starts_with("p999"));
    match (duration, extreme_tail) {
        (true, true) => f64::INFINITY,
        (true, false) => DEFAULT_THRESHOLD,
        _ => FAIL_THRESHOLD,
    }
}

/// Absolute materiality floor for duration comparisons (500 µs).
///
/// Relative thresholds need an absolute floor: micro-phases like
/// connection `admission` or queue `route` sit at single-digit
/// microseconds, where a "150 % regression" (0.2 µs -> 0.5 µs) measures
/// scheduler jitter, not the server.  [`compare`] skips a lower-is-better
/// duration regression when **both** values are below the floor; a real
/// cost hiding under it still surfaces in the end-to-end `duration`
/// totals, which sit well above.  Growth *crossing* the floor is still
/// reported.
pub const MATERIALITY_FLOOR_US: f64 = 500.0;

/// [`MATERIALITY_FLOOR_US`] expressed in `id`'s own unit, for duration
/// keys (`None` for everything else).
fn materiality_floor(id: &str) -> Option<f64> {
    id.split('/').find_map(|segment| {
        if segment.ends_with("_ns") {
            Some(MATERIALITY_FLOOR_US * 1_000.0)
        } else if segment.ends_with("_us") {
            Some(MATERIALITY_FLOOR_US)
        } else if segment.ends_with("_ms") {
            Some(MATERIALITY_FLOOR_US / 1_000.0)
        } else {
            None
        }
    })
}

/// One comparable benchmark metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Flattened key path, e.g. `results/conv_unit/bitplane_sparse/3/median_ns`.
    pub id: String,
    /// The numeric value.
    pub value: f64,
    /// Whether larger values are improvements.
    pub higher_is_better: bool,
}

/// A metric that moved past the regression threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// The metric's key path.
    pub id: String,
    /// Committed previous value.
    pub baseline: f64,
    /// Freshly measured value.
    pub current: f64,
    /// `current / baseline`.
    pub ratio: f64,
    /// Whether larger values are improvements for this metric.
    pub higher_is_better: bool,
}

impl Regression {
    /// Whether this regression also crosses a harsher `threshold` (e.g.
    /// [`FAIL_THRESHOLD`]) in its own worse-direction.
    pub fn exceeds(&self, threshold: f64) -> bool {
        if self.higher_is_better {
            self.ratio < 1.0 - threshold
        } else {
            self.ratio > 1.0 + threshold
        }
    }
}

impl fmt::Display for Regression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let direction = if self.higher_is_better {
            "dropped"
        } else {
            "grew"
        };
        write!(
            f,
            "{}: {} {:.1}% ({} -> {})",
            self.id,
            direction,
            100.0 * (self.ratio - 1.0).abs(),
            self.baseline,
            self.current
        )
    }
}

// ---------------------------------------------------------------------------
// Minimal flattening JSON reader
// ---------------------------------------------------------------------------

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(text: &'a str) -> Self {
        Reader {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.pos))
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        while let Some(&b) = self.bytes.get(self.pos) {
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    // The harness-written summaries only escape quotes and
                    // backslashes; pass anything else through verbatim.
                    if let Some(&esc) = self.bytes.get(self.pos) {
                        self.pos += 1;
                        out.push(esc as char);
                    }
                }
                _ => out.push(b as char),
            }
        }
        Err("unterminated string".to_string())
    }

    fn parse_scalar(&mut self) -> Result<Option<f64>, String> {
        self.skip_ws();
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b',' || b == b'}' || b == b']' || b.is_ascii_whitespace() {
                break;
            }
            self.pos += 1;
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-utf8 scalar".to_string())?;
        if token.is_empty() {
            return Err(format!("empty scalar at byte {start}"));
        }
        // Numbers become metrics; true/false/null are informational.
        Ok(token.parse::<f64>().ok())
    }

    /// Parses one value, appending `(path, number)` pairs to `out`.
    fn parse_value(&mut self, path: &str, out: &mut Vec<(String, f64)>) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => {
                self.expect(b'{')?;
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(());
                }
                loop {
                    let key = self.parse_string()?;
                    self.expect(b':')?;
                    let child = if path.is_empty() {
                        key.clone()
                    } else {
                        format!("{path}/{key}")
                    };
                    self.parse_value(&child, out)?;
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(());
                        }
                        other => return Err(format!("bad object separator {other:?}")),
                    }
                }
            }
            Some(b'[') => {
                self.expect(b'[')?;
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(());
                }
                let mut index = 0usize;
                loop {
                    // Array elements keep their index as a provisional path
                    // component; `parse_metrics` rewrites criterion result
                    // rows to their stable `"id"` afterwards.
                    self.parse_value(&format!("{path}/{index}"), out)?;
                    index += 1;
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(());
                        }
                        other => return Err(format!("bad array separator {other:?}")),
                    }
                }
            }
            Some(b'"') => {
                self.parse_string()?;
                Ok(())
            }
            Some(_) => {
                if let Some(number) = self.parse_scalar()? {
                    out.push((path.to_string(), number));
                }
                Ok(())
            }
            None => Err("unexpected end of input".to_string()),
        }
    }
}

/// Extracts the comparable metrics of one `BENCH_*.json` summary.
///
/// # Errors
///
/// Returns a description of the first malformed construct.
pub fn parse_metrics(text: &str) -> Result<Vec<Metric>, String> {
    parse_metrics_with_skipped(text).map(|(metrics, _)| metrics)
}

/// Like [`parse_metrics`], but also returns the key paths of numeric
/// fields that were **not** classified as comparable (informational
/// counts, cycle totals, unknown keys).  `bench_trend` prints these so a
/// metric silently dropped from the comparison is visible in the log
/// rather than disappearing.
///
/// # Errors
///
/// Returns a description of the first malformed construct.
pub fn parse_metrics_with_skipped(text: &str) -> Result<(Vec<Metric>, Vec<String>), String> {
    // First pass: flatten every numeric field.
    let mut raw = Vec::new();
    let mut reader = Reader::new(text);
    reader.parse_value("", &mut raw)?;
    reader.skip_ws();

    // Second pass: criterion result rows carry their stable key in an
    // `"id"` string field; rewrite `results/<index>/...` to
    // `results/<id>/...` so reordering rows does not break comparisons.
    let ids = result_ids(text);
    let mut metrics = Vec::new();
    let mut skipped = Vec::new();
    for (mut id, value) in raw {
        if let Some(rest) = id.strip_prefix("results/") {
            if let Some((index, field)) = rest.split_once('/') {
                if let Ok(index) = index.parse::<usize>() {
                    if let Some(stable) = ids.get(index) {
                        id = format!("results/{stable}/{field}");
                    }
                }
            }
        }
        // Only the `utilisation` leaf is a rate; its cycle-count siblings
        // (`.../busy_cycles`, `.../total_cycles`) are informational.  An
        // `_ips` suffix on any path segment marks a throughput rate — the
        // segment may be a parent (`throughput_ips/<variant>`),
        // so the whole path is checked, not just the leaf.
        let leaf = id.rsplit('/').next().unwrap_or(id.as_str()).to_string();
        let higher = id.contains("speedup")
            || id.contains("per_sec")
            || id.split('/').any(|segment| segment.ends_with("_ips"))
            || leaf == "utilisation";
        // Durations are lower-is-better; like `_ips`, the unit suffix may
        // sit on a parent segment (`phase_p99_us/compute`) rather than the
        // leaf, so every segment is checked.
        let lower = id.split('/').any(|segment| {
            segment.ends_with("_ns") || segment.ends_with("_us") || segment.ends_with("_ms")
        });
        // The open-loop generator's scheduling-noise keys are measurements
        // of the load machine, not the server — informational by design,
        // whatever their unit suffix says.
        let generator_noise = id
            .split('/')
            .any(|segment| segment.contains("jitter") || segment.contains("send_lag"));
        if (higher || lower) && !generator_noise {
            metrics.push(Metric {
                id,
                value,
                higher_is_better: higher,
            });
        } else {
            skipped.push(id);
        }
    }
    Ok((metrics, skipped))
}

/// The `"id"` strings of the `results` array, in order.
fn result_ids(text: &str) -> Vec<String> {
    let mut ids = Vec::new();
    let mut rest = text;
    while let Some(at) = rest.find("\"id\"") {
        rest = &rest[at + 4..];
        if let Some(colon) = rest.find(':') {
            rest = &rest[colon + 1..];
            if let Some(open) = rest.find('"') {
                rest = &rest[open + 1..];
                if let Some(close) = rest.find('"') {
                    ids.push(rest[..close].to_string());
                    rest = &rest[close + 1..];
                    continue;
                }
            }
        }
        break;
    }
    ids
}

/// Compares current metrics against the committed baseline and returns the
/// ones that regressed by more than `threshold` (e.g. `0.2` for 20 %).
///
/// Metrics present on only one side are ignored — new benchmarks appear
/// and old ones retire without tripping the check.
pub fn compare(baseline: &[Metric], current: &[Metric], threshold: f64) -> Vec<Regression> {
    let mut regressions = Vec::new();
    for now in current {
        let Some(then) = baseline.iter().find(|m| m.id == now.id) else {
            continue;
        };
        if then.value <= 0.0 {
            continue;
        }
        let ratio = now.value / then.value;
        let regressed = if now.higher_is_better {
            ratio < 1.0 - threshold
        } else {
            ratio > 1.0 + threshold
        };
        if regressed {
            // Sub-floor durations are scheduler jitter, not regressions.
            if !now.higher_is_better {
                if let Some(floor) = materiality_floor(&now.id) {
                    if then.value < floor && now.value < floor {
                        continue;
                    }
                }
            }
            regressions.push(Regression {
                id: now.id.clone(),
                baseline: then.value,
                current: now.value,
                ratio,
                higher_is_better: now.higher_is_better,
            });
        }
    }
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
"workload": "lenet",
"batch": 32,
"inferences_per_sec": {"naive_run": 900.0, "stream_server": 2200.0},
"speedup_server_vs_naive": 2.4,
"unit_utilisation": {"Convolution": {"units": 4, "busy_cycles": 73160, "total_cycles": 125568, "utilisation": 0.58}},
"results": [
  {"id": "conv_unit/bitplane_sparse/3", "median_ns": 450000.0, "mean_ns": 451000.0, "samples": 12},
  {"id": "pool_unit/avg", "median_ns": 22000.0, "mean_ns": 22500.0, "samples": 12}
]
}"#;

    #[test]
    fn parses_rates_speedups_utilisation_and_durations() {
        let metrics = parse_metrics(SAMPLE).unwrap();
        let find = |id: &str| {
            metrics
                .iter()
                .find(|m| m.id == id)
                .unwrap_or_else(|| panic!("missing metric {id}: {metrics:?}"))
        };
        let naive = find("inferences_per_sec/naive_run");
        assert!(naive.higher_is_better);
        assert!((naive.value - 900.0).abs() < 1e-9);
        assert!(find("speedup_server_vs_naive").higher_is_better);
        assert!(find("unit_utilisation/Convolution/utilisation").higher_is_better);
        // Cycle-count siblings of a utilisation entry are informational,
        // not comparable metrics.
        assert!(metrics.iter().all(|m| !m.id.ends_with("busy_cycles")));
        assert!(metrics.iter().all(|m| !m.id.ends_with("total_cycles")));
        assert!(metrics.iter().all(|m| !m.id.ends_with("/units")));
        let sparse = find("results/conv_unit/bitplane_sparse/3/median_ns");
        assert!(!sparse.higher_is_better);
        assert!((sparse.value - 450000.0).abs() < 1e-9);
        // Sample counts and batch sizes are not comparable metrics.
        assert!(metrics.iter().all(|m| !m.id.ends_with("samples")));
        assert!(metrics.iter().all(|m| m.id != "batch"));
    }

    #[test]
    fn regressions_respect_direction_and_threshold() {
        let baseline = parse_metrics(SAMPLE).unwrap();
        let current = SAMPLE
            .replace("\"stream_server\": 2200.0", "\"stream_server\": 1500.0")
            .replace("\"median_ns\": 450000.0", "\"median_ns\": 600000.0");
        let current = parse_metrics(&current).unwrap();
        let regressions = compare(&baseline, &current, DEFAULT_THRESHOLD);
        let ids: Vec<&str> = regressions.iter().map(|r| r.id.as_str()).collect();
        assert!(ids.contains(&"inferences_per_sec/stream_server"));
        assert!(ids.contains(&"results/conv_unit/bitplane_sparse/3/median_ns"));
        // The unchanged pool metric does not trip.
        assert!(!ids.iter().any(|id| id.contains("pool_unit")));
        // Every regression renders a human-readable line.
        for regression in &regressions {
            assert!(regression.to_string().contains(&regression.id));
        }
    }

    #[test]
    fn fail_threshold_separates_warnings_from_hard_failures() {
        let baseline = parse_metrics(SAMPLE).unwrap();
        // -30% throughput: a warning-tier regression, not a failure.
        // +120% latency: past the fail tier in the lower-is-better sense.
        let current = SAMPLE
            .replace("\"stream_server\": 2200.0", "\"stream_server\": 1540.0")
            .replace("\"median_ns\": 450000.0", "\"median_ns\": 990000.0");
        let current = parse_metrics(&current).unwrap();
        let regressions = compare(&baseline, &current, DEFAULT_THRESHOLD);
        assert_eq!(regressions.len(), 2);
        let soft = regressions
            .iter()
            .find(|r| r.id.contains("stream_server"))
            .unwrap();
        assert!(!soft.exceeds(FAIL_THRESHOLD), "-30% stays a warning");
        let hard = regressions
            .iter()
            .find(|r| r.id.contains("median_ns"))
            .unwrap();
        assert!(hard.exceeds(FAIL_THRESHOLD), "+120% must fail");
    }

    #[test]
    fn improvements_and_small_noise_do_not_trip() {
        let baseline = parse_metrics(SAMPLE).unwrap();
        let current = SAMPLE
            .replace("\"stream_server\": 2200.0", "\"stream_server\": 2600.0")
            .replace("\"median_ns\": 450000.0", "\"median_ns\": 495000.0"); // +10%
        let current = parse_metrics(&current).unwrap();
        assert!(compare(&baseline, &current, DEFAULT_THRESHOLD).is_empty());
    }

    #[test]
    fn new_and_retired_metrics_are_ignored() {
        let baseline = parse_metrics(SAMPLE).unwrap();
        let trimmed = parse_metrics(
            r#"{"inferences_per_sec": {"naive_run": 900.0}, "brand_new_per_sec": 1.0}"#,
        )
        .unwrap();
        assert!(compare(&baseline, &trimmed, DEFAULT_THRESHOLD).is_empty());
    }

    #[test]
    fn ips_segments_are_higher_is_better_throughput_rates() {
        let metrics = parse_metrics(
            r#"{"replica_throughput_ips": {"replicas_1": 2000.0, "replicas_2": 2600.0},
                "replica_speedup": {"replicas_2_vs_1": 1.3},
                "drain_rate_ips": 512.0}"#,
        )
        .unwrap();
        for id in [
            "replica_throughput_ips/replicas_1",
            "replica_throughput_ips/replicas_2",
            "replica_speedup/replicas_2_vs_1",
            "drain_rate_ips",
        ] {
            let metric = metrics
                .iter()
                .find(|m| m.id == id)
                .unwrap_or_else(|| panic!("missing {id}: {metrics:?}"));
            assert!(metric.higher_is_better, "{id} must be higher-is-better");
        }
        // A halved replica throughput regresses; a gained one does not.
        let baseline = metrics;
        let current = parse_metrics(
            r#"{"replica_throughput_ips": {"replicas_1": 2100.0, "replicas_2": 1200.0},
                "replica_speedup": {"replicas_2_vs_1": 0.57},
                "drain_rate_ips": 600.0}"#,
        )
        .unwrap();
        let regressions = compare(&baseline, &current, DEFAULT_THRESHOLD);
        let ids: Vec<&str> = regressions.iter().map(|r| r.id.as_str()).collect();
        assert!(ids.contains(&"replica_throughput_ips/replicas_2"));
        assert!(ids.contains(&"replica_speedup/replicas_2_vs_1"));
        assert!(!ids.contains(&"replica_throughput_ips/replicas_1"));
        assert!(!ids.contains(&"drain_rate_ips"));
    }

    #[test]
    fn latency_percentiles_are_lower_is_better() {
        let metrics = parse_metrics(
            r#"{"latency": {"p50_us": 900.0, "p99_us": 2100.0, "mean_us": 1000.0},
                "warmup_ms": 12.0, "samples": 64}"#,
        )
        .unwrap();
        for id in [
            "latency/p50_us",
            "latency/p99_us",
            "latency/mean_us",
            "warmup_ms",
        ] {
            let metric = metrics
                .iter()
                .find(|m| m.id == id)
                .unwrap_or_else(|| panic!("missing {id}: {metrics:?}"));
            assert!(!metric.higher_is_better, "{id} must be lower-is-better");
        }
        assert!(metrics.iter().all(|m| m.id != "samples"));
    }

    #[test]
    fn duration_suffixes_on_parent_segments_are_lower_is_better() {
        // The unit suffix may name a parent group rather than the leaf —
        // `phase_p99_us/compute` must classify exactly like `p99_us`.
        let metrics = parse_metrics(
            r#"{"phase_p99_us": {"queue_wait": 120.0, "compute": 900.0},
                "trace_phase_latency": {"compute": {"p999_us": 1800.0}}}"#,
        )
        .unwrap();
        for id in [
            "phase_p99_us/queue_wait",
            "phase_p99_us/compute",
            "trace_phase_latency/compute/p999_us",
        ] {
            let metric = metrics
                .iter()
                .find(|m| m.id == id)
                .unwrap_or_else(|| panic!("missing {id}: {metrics:?}"));
            assert!(!metric.higher_is_better, "{id} must be lower-is-better");
        }
    }

    #[test]
    fn unclassified_numeric_keys_are_reported_not_dropped() {
        let (metrics, skipped) = parse_metrics_with_skipped(
            r#"{"latency": {"p50_us": 900.0}, "batch": 32, "samples": 64,
                "mystery_metric": 7.0}"#,
        )
        .unwrap();
        assert_eq!(metrics.len(), 1);
        assert!(skipped.contains(&"batch".to_string()));
        assert!(skipped.contains(&"samples".to_string()));
        assert!(skipped.contains(&"mystery_metric".to_string()));
        assert!(!skipped.contains(&"latency/p50_us".to_string()));
    }

    #[test]
    fn failure_tier_is_strict_for_durations_and_lenient_for_throughput() {
        // Stable duration keys fail at the warn threshold.
        assert!((fail_threshold_for("latency/p50_us") - DEFAULT_THRESHOLD).abs() < 1e-12);
        assert!(
            (fail_threshold_for("trace_phase_latency/compute/p99_us") - DEFAULT_THRESHOLD).abs()
                < 1e-12
        );
        assert!(
            (fail_threshold_for("results/conv_unit/median_ns") - DEFAULT_THRESHOLD).abs() < 1e-12
        );
        assert!((fail_threshold_for("warmup_ms") - DEFAULT_THRESHOLD).abs() < 1e-12);
        // Extreme duration tails warn but never fail — a single slow
        // sample moves them an order of magnitude on a shared runner.
        assert!(fail_threshold_for("latency/p999_us").is_infinite());
        assert!(fail_threshold_for("open_loop/u90/report/latency/p999_us").is_infinite());
        // Throughput keeps the noise-tolerant tier.
        assert!(
            (fail_threshold_for("inferences_per_sec/tcp_loopback") - FAIL_THRESHOLD).abs() < 1e-12
        );
        assert!(
            (fail_threshold_for("replica_throughput_ips/replicas_2") - FAIL_THRESHOLD).abs()
                < 1e-12
        );
        assert!((fail_threshold_for("speedup_server_vs_naive") - FAIL_THRESHOLD).abs() < 1e-12);
    }

    #[test]
    fn sub_floor_duration_regressions_are_scheduler_jitter_not_reported() {
        let baseline = parse_metrics(
            r#"{"trace_phase_latency": {
                  "route": {"p50_us": 0.2, "p99_us": 3.8},
                  "compute": {"p50_us": 6833.4}},
                "warmup_ms": 0.1}"#,
        )
        .unwrap();
        // Every micro-phase blows its relative threshold but stays under
        // the 500 us floor; the material compute phase regresses for real.
        let current = parse_metrics(
            r#"{"trace_phase_latency": {
                  "route": {"p50_us": 1.3, "p99_us": 19.3},
                  "compute": {"p50_us": 9000.0}},
                "warmup_ms": 0.4}"#,
        )
        .unwrap();
        let regressions = compare(&baseline, &current, DEFAULT_THRESHOLD);
        let ids: Vec<&str> = regressions.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, vec!["trace_phase_latency/compute/p50_us"]);
        // Growth that crosses the floor is still a regression: the floor
        // is a materiality test, not an exemption for small baselines.
        let crossed =
            parse_metrics(r#"{"trace_phase_latency": {"route": {"p99_us": 700.0}}}"#).unwrap();
        let regressions = compare(&baseline, &crossed, DEFAULT_THRESHOLD);
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].id.ends_with("route/p99_us"));
    }

    #[test]
    fn generator_noise_keys_are_informational_not_compared() {
        let (metrics, skipped) = parse_metrics_with_skipped(
            r#"{"open_loop": {"report": {
                  "latency": {"p50_us": 900.0},
                  "send_lag": {"p50_us": 40.0, "p99_us": 200.0},
                  "interarrival_jitter": {"p99_us": 120.0}}}}"#,
        )
        .unwrap();
        // The served latency is compared; the harness's own scheduling
        // noise is reported but never gates.
        assert_eq!(metrics.len(), 1);
        assert_eq!(metrics[0].id, "open_loop/report/latency/p50_us");
        assert!(skipped.contains(&"open_loop/report/send_lag/p50_us".to_string()));
        assert!(skipped.contains(&"open_loop/report/send_lag/p99_us".to_string()));
        assert!(skipped.contains(&"open_loop/report/interarrival_jitter/p99_us".to_string()));
    }

    #[test]
    fn committed_summaries_parse() {
        for path in [
            "../../BENCH_conv.json",
            "../../BENCH_serve.json",
            "../../BENCH_net.json",
        ] {
            let full = format!("{}/{}", env!("CARGO_MANIFEST_DIR"), path);
            if let Ok(text) = std::fs::read_to_string(&full) {
                let metrics = parse_metrics(&text).unwrap();
                assert!(!metrics.is_empty(), "{path} produced no metrics");
            }
        }
    }
}
