//! The end-to-end runs, tracing off: LeNet-5 served over loopback TCP at
//! a fixed open-loop rate, and tiled VGG-11 through `Accelerator::run`.

use crate::client::{self, ClientRun};
use crate::measure::{median, peak_rss_mb, process_cpu_s, quantile, HostCpu};
use crate::models::{Net, Pool};
use crate::{Metric, Outcome};
use snn_accel::serve::ServerOptions;
use snn_accel::sim::Accelerator;
use snn_net::{NetOptions, NetServer};
use std::time::Instant;

/// Offered rate of `lenet_tcp_open`, inferences per second: a fixed
/// absolute number, well below batch-of-one capacity on a 2-core host.
pub const OPEN_RATE_IPS: f64 = 200.0;
const LENET_POOL: usize = 256;
const VGG_POOL: usize = 8;
/// Set-ups timed before and after the measured window; `setup_s` is the
/// median of all of them.
const LENET_SETUPS: [usize; 2] = [50, 50];
const VGG_SETUPS: [usize; 2] = [3, 2];

/// A LeNet-5 front-end on loopback at default options, tracing as given.
pub fn bind_lenet(trace: bool) -> NetServer {
    let options = NetOptions {
        server: ServerOptions {
            trace,
            ..ServerOptions::default()
        },
        ..NetOptions::default()
    };
    NetServer::bind(
        "127.0.0.1:0",
        Net::Lenet.config(),
        Net::Lenet.convert(),
        options,
    )
    .expect("bind the LeNet-5 server")
}

/// The oracle pool for `net`, from a model converted outside any timing.
fn oracle_pool(net: Net, count: usize, seed: u64) -> Pool {
    Pool::new(net, &net.convert(), count, seed)
}

/// Set-up times and failed first replies.  They are taken on both sides
/// of the measured window, so that `setup_s` spans more than one stretch
/// of host time.
#[derive(Default)]
struct SetUps {
    times: Vec<f64>,
    failed: u64,
}

impl SetUps {
    /// Times `count` set-ups, each returning what it built and whether
    /// its first reply was the oracle's; returns the last one built.
    fn time<T>(&mut self, count: usize, mut set_up: impl FnMut() -> (T, bool)) -> T {
        let mut built = None;
        for _ in 0..count {
            drop(built.take());
            let start = Instant::now();
            let (value, ok) = set_up();
            self.times.push(start.elapsed().as_secs_f64());
            self.failed += u64::from(!ok);
            built = Some(value);
        }
        built.expect("at least one set-up")
    }
}

fn outcome(workload: &str, net: Net, run: &ClientRun, setups: &SetUps) -> Outcome {
    let lat = run.latencies_ms();
    let n = lat.len();
    let metrics = vec![
        Metric::new("setup_s", median(&setups.times), "s", setups.times.len()),
        Metric::new("throughput_ips", run.throughput_ips(), "1/s", n),
        Metric::new("cpu_us_per_inf", run.cpu_us_per_inf(), "us", n),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB", 1),
    ];
    let attempted = run.attempted + setups.times.len() as u64;
    // Every request that did not end in the oracle's answer fails the run.
    let failed = run.failed() + setups.failed;
    // Recorded beside the gated metrics, never gated: wall-clock latency
    // follows host steal by more than any bound the gate allows (README).
    let notes = format!(
        "workload={workload} attempted={attempted} failed={failed} failed_share={} \
         rejected={} errors={} mismatches={} modelled_latency_us={} \
         latency_p50_ms={:.4} latency_p90_ms={:.4} latency_p99_ms={:.4} (n={n}) \
         host.steal_share={:.4} loadgen.send_lag_p99_us={:.1} loadgen.cpu_us_per_inf={:.1}",
        failed as f64 / attempted as f64,
        run.rejected,
        run.errors,
        run.mismatches,
        net.config().cycles_to_us(net.pinned_cycles()),
        median(&lat),
        quantile(&lat, 0.90),
        quantile(&lat, 0.99),
        run.steal_share,
        quantile(&run.send_lag_us, 0.99),
        run.loadgen_cpu_s * 1e6 / run.completed.max(1) as f64,
    );
    Outcome {
        metrics,
        attempted,
        failed,
        notes,
    }
}

pub fn lenet_tcp_open(seed: u64, seconds: f64) -> Outcome {
    let pool = oracle_pool(Net::Lenet, LENET_POOL, seed);
    // Convert, bind and answer one request.
    let set_up = || {
        let server = bind_lenet(false);
        let ok = client::one_request(server.local_addr(), &pool, 0);
        (server, ok)
    };
    let mut setups = SetUps::default();
    let server = setups.time(LENET_SETUPS[0], set_up);
    let schedule = client::poisson_schedule(OPEN_RATE_IPS, seconds, seed);
    let run = client::open_loop(server.local_addr(), &pool, &schedule);
    server.shutdown();
    setups.time(LENET_SETUPS[1], set_up);
    outcome("lenet_tcp_open", Net::Lenet, &run, &setups)
}

/// Back-to-back `Accelerator::run` calls from this thread until `seconds`
/// have passed; every report is checked against the oracle.
fn run_direct(
    accel: &Accelerator,
    model: &snn_model::snn::SnnModel,
    pool: &Pool,
    seconds: f64,
) -> ClientRun {
    let mut run = ClientRun::default();
    let host = HostCpu::now();
    let cpu = process_cpu_s();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let id = run.attempted;
        run.attempted += 1;
        let began = Instant::now();
        match accel.run(model, pool.image(id)) {
            Ok(report) if pool.is_correct(id, &report.logits, report.total_cycles()) => {
                run.completed += 1;
                run.requests.push((id, began, Instant::now()));
            }
            Ok(_) => run.mismatches += 1,
            Err(_) => run.errors += 1,
        }
    }
    run.window_s = start.elapsed().as_secs_f64();
    run.process_cpu_s = process_cpu_s() - cpu;
    run.steal_share = host.steal_share(&HostCpu::now());
    run
}

pub fn vgg11_tiled_direct(seed: u64, seconds: f64) -> Outcome {
    let pool = oracle_pool(Net::Vgg, VGG_POOL, seed);
    let accel = Accelerator::new(Net::Vgg.config());
    // Convert and run one inference.
    let set_up = || {
        let model = Net::Vgg.convert();
        let first = accel.run(&model, pool.image(0));
        let ok = matches!(&first, Ok(r) if pool.is_correct(0, &r.logits, r.total_cycles()));
        (model, ok)
    };
    let mut setups = SetUps::default();
    let model = setups.time(VGG_SETUPS[0], set_up);
    let run = run_direct(&accel, &model, &pool, seconds);
    // One model alive at a time, as before the window, so the later
    // set-ups leave `peak_rss_mb` as it was.
    drop(model);
    setups.time(VGG_SETUPS[1], set_up);
    outcome("vgg11_tiled_direct", Net::Vgg, &run, &setups)
}
