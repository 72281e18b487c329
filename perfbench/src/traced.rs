//! The traced run: per-layer metrics from spans the benchmark records
//! around calls into each layer's public functions, plus the server's own
//! phase spans (drained over TRACES) for the serving layers.  The suite is
//! the same whatever `--workload` names; its parts are
//!
//! * LeNet-5 engine calls (`Accelerator::compile`, `SnnModel::encode_input`,
//!   solo `Accelerator::run` and `run_sequential`) and a layer-by-layer
//!   replay of the sequential path;
//! * a traced LeNet-5 server, driven open-loop (network path, write
//!   stalls) and saturated in traced/untraced pairs (serving phases,
//!   batching, the cost of tracing itself);
//! * `Frame::encode`/`decode` on the workload's INFER and SCORES frames;
//! * tiled VGG-11: a band-by-band replay of every layer and tiled vs
//!   untiled `Accelerator::run` interleaved on the same inputs.

use crate::client::{self, ClientRun};
use crate::e2e::{bind_lenet, OPEN_RATE_IPS};
use crate::measure::{median, quantile, HostCpu};
use crate::models::{Net, Pool};
use crate::replay::{self, Replay};
use crate::spans::SpanLog;
use crate::{Metric, Outcome};
use snn_accel::config::AcceleratorConfig;
use snn_accel::memory::plan_network_tiles;
use snn_accel::sim::Accelerator;
use snn_net::protocol::{Frame, InferRequest, ScoreReply};
use snn_net::scrape_traces;
use snn_telemetry::{Outcome as TraceOutcome, Phase, RequestTrace};
use std::hint::black_box;
use std::time::Instant;

/// In-flight requests of the saturated segments on their one connection.
const SATURATE_WINDOW: usize = 64;
const LENET_POOL: usize = 64;
const LENET_RUNS: usize = 100;
const VGG_REPLAYS: usize = 2;
/// Tiled/untiled and traced/untraced pairs, alternating which goes first.
const PAIRS: usize = 4;

/// Correctness tallies across the suite.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Checks {
    fn client(&mut self, run: &ClientRun) {
        self.attempted += run.attempted;
        self.failed += run.failed();
    }

    fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("self-check failed: {what}"));
        }
    }
}

fn us(seconds: f64) -> f64 {
    seconds * 1e6
}

fn phase_us(traces: &[RequestTrace], phase: Phase) -> Vec<f64> {
    traces
        .iter()
        .filter_map(|t| t.phase_seconds(phase))
        .map(us)
        .collect()
}

/// Drains the server's completed SCORES traces.
fn drain_traces(server: &snn_net::NetServer) -> Vec<RequestTrace> {
    scrape_traces(server.local_addr())
        .expect("TRACES scrape")
        .lines()
        .filter_map(RequestTrace::from_json_line)
        .filter(|t| matches!(t.outcome, TraceOutcome::Scores { .. }))
        .collect()
}

fn engine(
    model: &snn_model::snn::SnnModel,
    pool: &Pool,
    spans: &mut SpanLog,
    checks: &mut Checks,
    metrics: &mut Vec<Metric>,
) -> f64 {
    let root = spans.open("engine.lenet", None, None);
    let accel = Accelerator::new(Net::Lenet.config());
    let compile: Vec<f64> = (0..20)
        .map(|_| {
            let (program, span) = spans.time("compile", Some(root), None, || accel.compile(model));
            checks.check(program.is_ok(), "LeNet-5 compiles");
            spans.duration_us(span)
        })
        .collect();
    let encode: Vec<f64> = pool
        .images
        .iter()
        .map(|image| {
            let (_, span) = spans.time("encode", Some(root), None, || {
                black_box(model.encode_input(image))
            });
            spans.duration_us(span)
        })
        .collect();
    let plan = plan_network_tiles(
        model.spec(),
        model.time_steps(),
        u64::MAX,
        accel.config().linear_lanes,
    )
    .expect("untiled LeNet-5 plan");
    // Per input: the pipelined `run` (what callers and the server use:
    // conv→pool pairs fused on a stage thread), the sequential oracle path
    // `run_sequential`, and a layer replay of that sequential path,
    // interleaved so that all three see the same host conditions.
    let (mut runs, mut sequential, mut replays) = (Vec::new(), Vec::new(), Vec::new());
    for id in 0..LENET_RUNS as u64 {
        let mut sequential_report = None;
        for pipelined in [id % 2 == 0, id % 2 == 1] {
            let (name, times) = if pipelined {
                ("run", &mut runs)
            } else {
                ("run_sequential", &mut sequential)
            };
            let (report, span) = spans.time(name, Some(root), Some(id), || {
                if pipelined {
                    accel.run(model, pool.image(id))
                } else {
                    accel.run_sequential(model, pool.image(id))
                }
            });
            let report = report.expect("LeNet-5 run");
            checks.check(
                pool.is_correct(id, &report.logits, report.total_cycles()),
                "LeNet-5 run matches the oracle",
            );
            times.push(spans.duration_us(span));
            if !pipelined {
                sequential_report = Some(report);
            }
        }
        let parent = spans.open("replay", Some(root), Some(id));
        let r = replay::replay(
            model,
            accel.config(),
            &plan,
            pool.image(id),
            spans,
            parent,
            id,
        );
        spans.close(parent);
        checks.check(
            sequential_report.is_some_and(|report| replay::matches_report(&r, &report)),
            "LeNet-5 replay matches its RunReport",
        );
        replays.push(r);
    }
    spans.close(root);

    let layers_sum: f64 = (0..replays[0].layers.len())
        .map(|l| {
            median(
                &replays
                    .iter()
                    .map(|r| spans.duration_us(r.layers[l].span))
                    .collect::<Vec<_>>(),
            )
        })
        .sum();
    let (run, seq, enc) = (median(&runs), median(&sequential), median(&encode));
    metrics.push(Metric::new(
        "engine.compile_us",
        median(&compile),
        "us",
        compile.len(),
    ));
    metrics.push(Metric::new("engine.encode_us", enc, "us", encode.len()));
    metrics.push(Metric::new("engine.run_p50_us", run, "us", runs.len()));
    metrics.push(Metric::new(
        "engine.run_sequential_p50_us",
        seq,
        "us",
        sequential.len(),
    ));
    metrics.push(Metric::new(
        "engine.layers_sum_us",
        layers_sum,
        "us",
        replays.len(),
    ));
    metrics.push(Metric::new(
        "engine.exec_overhead_us",
        seq - enc - layers_sum,
        "us",
        sequential.len(),
    ));
    let (words, silent) = replays
        .iter()
        .flat_map(|r| &r.layers)
        .fold((0, 0), |(w, s), l| (w + l.words, s + l.silent_words));
    silent as f64 / words.max(1) as f64
}

fn network(
    pool: &Pool,
    seed: u64,
    seconds: f64,
    spans: &mut SpanLog,
    checks: &mut Checks,
    metrics: &mut Vec<Metric>,
) {
    // Open loop, traced: the per-request network path.
    let server = bind_lenet(true);
    let schedule = client::poisson_schedule(OPEN_RATE_IPS, 0.3 * seconds, seed);
    let open = client::open_loop(server.local_addr(), pool, &schedule);
    let open_traces = drain_traces(&server);
    let mut protocol_errors = server.shutdown().protocol_errors;
    checks.client(&open);
    if let (Some(first), Some(last)) = (open.requests.first(), open.requests.last()) {
        let phase = spans.record("lenet.open_loop", None, None, first.1, last.2);
        for &(id, start, end) in &open.requests {
            spans.record("request", Some(phase), Some(id), start, end);
        }
    }
    // The trace ring keeps the most recent completions: compare them with
    // the same number of most recent client latencies.
    let latencies_ms = open.latencies_ms();
    let recent = latencies_ms.len().saturating_sub(open_traces.len());
    let client_p50 = median(&latencies_ms[recent..]) * 1e3;
    let server_p50 = median(
        &open_traces
            .iter()
            .map(|t| us(t.total_seconds))
            .collect::<Vec<_>>(),
    );
    let stall = phase_us(&open_traces, Phase::WriteStall);

    // Saturated, traced and untraced servers interleaved.
    let mut cpu = [0.0f64; 2];
    let mut done = [0u64; 2];
    let (mut batches, mut completed, mut largest, mut rejected, mut sheds, mut errors) =
        (0, 0, 0, 0, 0, 0);
    let mut loadgen_cpu = 0.0;
    let mut traces = Vec::new();
    for pair in 0..PAIRS {
        for traced in [pair % 2 == 1, pair % 2 == 0] {
            let server = bind_lenet(traced);
            let run = client::saturate(server.local_addr(), pool, SATURATE_WINDOW, 0.1 * seconds);
            if traced {
                traces.extend(drain_traces(&server));
            }
            let net = server.shutdown();
            protocol_errors += net.protocol_errors;
            let stats = net.server;
            batches += stats.batches;
            completed += stats.completed;
            largest = largest.max(stats.largest_batch);
            rejected += stats.rejected;
            sheds += stats.deadline_sheds;
            errors += stats.errors;
            checks.client(&run);
            cpu[traced as usize] += run.process_cpu_s - run.loadgen_cpu_s;
            done[traced as usize] += run.completed;
            loadgen_cpu += run.loadgen_cpu_s;
            if let (Some(first), Some(last)) = (run.requests.first(), run.requests.last()) {
                let name = if traced {
                    "lenet.saturate.traced"
                } else {
                    "lenet.saturate.untraced"
                };
                spans.record(name, None, None, first.1, last.2);
            }
        }
    }
    let per_inf = |i: usize| cpu[i] / done[i].max(1) as f64;

    metrics.push(Metric::new(
        "net.overhead_p50_us",
        client_p50 - server_p50,
        "us",
        open_traces.len(),
    ));
    metrics.push(Metric::new(
        "net.write_stall_p50_us",
        median(&stall),
        "us",
        stall.len(),
    ));
    metrics.push(Metric::new(
        "net.write_stall_p99_us",
        quantile(&stall, 0.99),
        "us",
        stall.len(),
    ));
    let (encode_ns, decode_ns, frames) = frame_codec(pool);
    metrics.push(Metric::new("net.frame_encode_ns", encode_ns, "ns", frames));
    metrics.push(Metric::new("net.frame_decode_ns", decode_ns, "ns", frames));
    metrics.push(Metric::new(
        "net.protocol_errors",
        protocol_errors as f64,
        "count",
        1 + 2 * PAIRS,
    ));
    for (name, phase, q) in [
        ("serve.admission_p50_us", Phase::Admission, 0.5),
        ("serve.route_p50_us", Phase::Route, 0.5),
        ("serve.queue_wait_p50_us", Phase::QueueWait, 0.5),
        ("serve.queue_wait_p99_us", Phase::QueueWait, 0.99),
        ("serve.batch_assembly_p50_us", Phase::BatchAssembly, 0.5),
        ("serve.compute_p50_us", Phase::Compute, 0.5),
        ("serve.compute_p99_us", Phase::Compute, 0.99),
    ] {
        let samples = phase_us(&traces, phase);
        metrics.push(Metric::new(
            name,
            quantile(&samples, q),
            "us",
            samples.len(),
        ));
    }
    let segments = 2 * PAIRS;
    metrics.push(Metric::new(
        "serve.mean_batch",
        completed as f64 / batches.max(1) as f64,
        "count",
        batches as usize,
    ));
    metrics.push(Metric::new(
        "serve.largest_batch",
        largest as f64,
        "count",
        segments,
    ));
    metrics.push(Metric::new(
        "serve.rejected",
        rejected as f64,
        "count",
        segments,
    ));
    metrics.push(Metric::new(
        "serve.deadline_sheds",
        sheds as f64,
        "count",
        segments,
    ));
    metrics.push(Metric::new(
        "serve.errors",
        errors as f64,
        "count",
        segments,
    ));
    metrics.push(Metric::new(
        "telemetry.overhead_ratio",
        per_inf(1) / per_inf(0),
        "ratio",
        segments,
    ));
    metrics.push(Metric::new(
        "loadgen.send_lag_p99_us",
        quantile(&open.send_lag_us, 0.99),
        "us",
        open.send_lag_us.len(),
    ));
    metrics.push(Metric::new(
        "loadgen.cpu_us_per_inf",
        loadgen_cpu * 1e6 / (done[0] + done[1]).max(1) as f64,
        "us",
        segments,
    ));
}

/// Median ns to encode (and decode) one request's INFER frame plus its
/// SCORES reply, over the pool.
fn frame_codec(pool: &Pool) -> (f64, f64, usize) {
    let frames: Vec<Frame> = (0..pool.images.len() as u64)
        .flat_map(|id| {
            [
                Frame::Infer(InferRequest::from_tensor(id, pool.image(id))),
                Frame::Scores(ScoreReply {
                    request_id: id,
                    prediction: 0,
                    time_steps: 4,
                    thread_budget: 2,
                    total_cycles: pool.cycles,
                    logits: pool.logits[id as usize].clone(),
                }),
            ]
        })
        .collect();
    let bytes: Vec<Vec<u8>> = frames.iter().map(Frame::encode).collect();
    let requests = pool.images.len() as f64;
    let per_request_ns = |f: &mut dyn FnMut()| -> Vec<f64> {
        (0..30)
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed().as_secs_f64() * 1e9 / requests
            })
            .collect()
    };
    let encode = per_request_ns(&mut || {
        for frame in &frames {
            black_box(frame.encode());
        }
    });
    let decode = per_request_ns(&mut || {
        for b in &bytes {
            black_box(Frame::decode(b).expect("decodable frame"));
        }
    });
    (median(&encode), median(&decode), frames.len())
}

fn vgg(seed: u64, spans: &mut SpanLog, checks: &mut Checks, metrics: &mut Vec<Metric>) {
    let model = Net::Vgg.convert();
    let pool = Pool::new(Net::Vgg, &model, VGG_REPLAYS, seed);
    let config = Net::Vgg.config();
    let untiled_config = AcceleratorConfig {
        activation_buffer_bytes: None,
        ..config
    };
    let (tiled, untiled) = (Accelerator::new(config), Accelerator::new(untiled_config));
    let budget = config
        .activation_buffer_bytes
        .expect("tiled VGG-11 has a buffer budget");
    let plan = plan_network_tiles(
        model.spec(),
        model.time_steps(),
        budget,
        config.linear_lanes,
    )
    .expect("VGG-11 tile plan");
    let program = tiled.compile(&model).expect("VGG-11 compiles");
    checks.check(
        program
            .steps
            .iter()
            .zip(&plan.layers)
            .all(|(s, t)| &s.tiling == t),
        "the compiled program follows plan_network_tiles",
    );

    let root = spans.open("vgg11.replay", None, None);
    let mut reports = Vec::new();
    let mut replays = Vec::new();
    for id in 0..VGG_REPLAYS as u64 {
        let (report, _) = spans.time("run", Some(root), Some(id), || {
            tiled.run(&model, pool.image(id))
        });
        let report = report.expect("VGG-11 tiled run");
        checks.check(
            pool.is_correct(id, &report.logits, report.total_cycles()),
            "VGG-11 run matches the oracle",
        );
        let parent = spans.open("replay", Some(root), Some(id));
        let r = replay::replay(&model, &config, &plan, pool.image(id), spans, parent, id);
        spans.close(parent);
        checks.check(
            replay::matches_report(&r, &report),
            "VGG-11 replay matches its RunReport",
        );
        reports.push(report);
        replays.push(r);
    }
    spans.close(root);

    for (l, layer) in replays[0].layers.iter().enumerate() {
        let n = replays.len();
        let mean = |f: &dyn Fn(&Replay) -> f64| replays.iter().map(f).sum::<f64>() / n as f64;
        let prefix = format!("layer.{:02}", layer.index);
        let host = median(
            &replays
                .iter()
                .map(|r| spans.duration_us(r.layers[l].span))
                .collect::<Vec<_>>(),
        );
        let cycles = reports[0]
            .layers
            .iter()
            .find(|e| e.index == layer.index)
            .map_or(0, |e| e.latency_cycles);
        metrics.push(Metric::new(format!("{prefix}.host_us"), host, "us", n));
        metrics.push(Metric::new(
            format!("{prefix}.adder_ops"),
            mean(&|r| r.layers[l].stats.adder_ops as f64),
            "count",
            n,
        ));
        metrics.push(Metric::new(
            format!("{prefix}.modelled_cycles"),
            cycles as f64,
            "cycles",
            n,
        ));
        metrics.push(Metric::new(
            format!("{prefix}.input_density"),
            mean(&|r| r.layers[l].input_density),
            "ratio",
            n,
        ));
    }

    // End-to-end tiling cost: tiled vs untiled runs, interleaved.
    let mut time = [0.0f64; 2];
    for pair in 0..PAIRS {
        let id = pair as u64 % VGG_REPLAYS as u64;
        for use_tiled in [pair % 2 == 0, pair % 2 == 1] {
            let accel = if use_tiled { &tiled } else { &untiled };
            let name = if use_tiled {
                "vgg11.run.tiled"
            } else {
                "vgg11.run.untiled"
            };
            let (report, span) =
                spans.time(name, None, Some(id), || accel.run(&model, pool.image(id)));
            let report = report.expect("VGG-11 run");
            checks.check(
                pool.is_correct(id, &report.logits, report.total_cycles()),
                "VGG-11 run matches the oracle",
            );
            time[use_tiled as usize] += spans.duration_us(span);
        }
    }
    let tiles: usize = plan
        .layers
        .iter()
        .enumerate()
        .filter_map(|(i, t)| {
            Some(
                t.as_ref()?
                    .tile_count(model.spec().layer_output_shape(i)[0]),
            )
        })
        .sum();
    metrics.push(Metric::new(
        "memory.tiled_layers",
        plan.tiled_layers() as f64,
        "count",
        1,
    ));
    metrics.push(Metric::new("memory.tiles", tiles as f64, "count", 1));
    metrics.push(Metric::new(
        "memory.tiling_overhead_ratio",
        time[1] / time[0],
        "ratio",
        PAIRS,
    ));
}

pub fn run(seed: u64, seconds: f64, spans_out: Option<&str>) -> Outcome {
    let host = HostCpu::now();
    let mut spans = SpanLog::new();
    let mut checks = Checks::default();
    let mut metrics = Vec::new();

    let model = Net::Lenet.convert();
    let pool = Pool::new(Net::Lenet, &model, LENET_POOL, seed);
    let silent_share = engine(&model, &pool, &mut spans, &mut checks, &mut metrics);
    metrics.push(Metric::new(
        "tensor.silent_word_share",
        silent_share,
        "ratio",
        LENET_RUNS,
    ));
    network(&pool, seed, seconds, &mut spans, &mut checks, &mut metrics);
    vgg(seed, &mut spans, &mut checks, &mut metrics);
    metrics.push(Metric::new(
        "host.steal_share",
        host.steal_share(&HostCpu::now()),
        "ratio",
        1,
    ));

    match spans_out {
        Some(path) => {
            let mut file = std::io::BufWriter::new(
                std::fs::File::create(path).expect("create the spans file"),
            );
            spans.write_jsonl(&mut file).expect("write spans");
        }
        None => spans
            .write_jsonl(&mut std::io::stdout().lock())
            .expect("write spans"),
    }
    let mut notes = format!(
        "traced suite: attempted={} failed={} spans={}",
        checks.attempted,
        checks.failed,
        spans.len()
    );
    for note in &checks.notes {
        notes.push_str(&format!("\n{note}"));
    }
    Outcome {
        metrics,
        attempted: checks.attempted,
        failed: checks.failed,
        notes,
    }
}
