//! The load generator: one TCP connection speaking the raw frame codec,
//! driven open-loop (a writer and a reader thread) or closed-loop with a
//! fixed window of in-flight requests (one thread).  Every SCORES reply is
//! checked against the pool's oracle logits and pinned cycle count.

use crate::measure::{process_cpu_s, thread_cpu_s, HostCpu};
use crate::models::Pool;
use snn_net::protocol::{Frame, InferRequest};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

/// A reply slower than this is a hang, not a latency.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// What one client run saw, over its measured window.
#[derive(Default)]
pub struct ClientRun {
    /// Requests the schedule or window sent.
    pub attempted: u64,
    /// SCORES replies that matched the oracle.
    pub completed: u64,
    /// REJECTED replies.
    pub rejected: u64,
    /// ERROR replies, undecodable replies and duplicate ids.
    pub errors: u64,
    /// SCORES replies whose logits or cycles differ from the oracle.
    pub mismatches: u64,
    /// `(request id, start, reply)` of each correct reply in completion
    /// order; the start is the scheduled arrival (open loop) or the send
    /// (closed loop, direct calls).
    pub requests: Vec<(u64, Instant, Instant)>,
    /// How late each open-loop send left against its schedule, µs.
    pub send_lag_us: Vec<f64>,
    /// From the first scheduled send to the last reply, seconds.
    pub window_s: f64,
    /// Process CPU over the window, seconds.
    pub process_cpu_s: f64,
    /// CPU of the generator's own threads over the window, seconds.
    pub loadgen_cpu_s: f64,
    /// Host steal share over the window.
    pub steal_share: f64,
}

impl ClientRun {
    /// Requests that did not end in a correct reply: errors, REJECTED,
    /// timeouts (no reply at all) and oracle mismatches.
    pub fn failed(&self) -> u64 {
        self.attempted - self.completed
    }

    /// Server-side CPU per completed inference: process CPU minus the
    /// generator's threads, µs.
    pub fn cpu_us_per_inf(&self) -> f64 {
        (self.process_cpu_s - self.loadgen_cpu_s) * 1e6 / self.completed.max(1) as f64
    }

    /// Latency of each correct reply in completion order, milliseconds.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.requests
            .iter()
            .map(|&(_, start, reply)| reply.saturating_duration_since(start).as_secs_f64() * 1e3)
            .collect()
    }

    pub fn throughput_ips(&self) -> f64 {
        self.completed as f64 / self.window_s
    }
}

/// splitmix64, the schedule's seeded generator.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Arrival offsets of a Poisson process at `rate_ips` over `seconds`,
/// conditioned on its expected count: that many uniform arrival times,
/// sorted.  Conditioning keeps the offered load identical across seeds.
pub fn poisson_schedule(rate_ips: f64, seconds: f64, seed: u64) -> Vec<Duration> {
    let count = (rate_ips * seconds).round() as usize;
    let mut state = seed;
    let mut offsets: Vec<f64> = (0..count)
        .map(|_| (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64 * seconds)
        .collect();
    offsets.sort_by(|a, b| a.partial_cmp(b).expect("finite offsets"));
    offsets.into_iter().map(Duration::from_secs_f64).collect()
}

fn send(stream: &mut TcpStream, pool: &Pool, id: u64) -> std::io::Result<()> {
    stream.write_all(&Frame::Infer(InferRequest::from_tensor(id, pool.image(id))).encode())
}

/// Decodes the replies buffered in `buf`, calling `on_scores(id, at)` for
/// each correct one; returns how many replies were consumed, or `None`
/// when the stream is corrupt.
fn drain_replies(
    buf: &mut Vec<u8>,
    pool: &Pool,
    seen: &mut [bool],
    run: &mut ClientRun,
    mut on_scores: impl FnMut(u64, Instant, &mut ClientRun),
) -> Option<u64> {
    let mut consumed = 0;
    loop {
        let (frame, used) = match Frame::decode(buf) {
            Ok(Some(decoded)) => decoded,
            Ok(None) => return Some(consumed),
            Err(_) => {
                run.errors += 1;
                return None;
            }
        };
        buf.drain(..used);
        let now = Instant::now();
        consumed += 1;
        let id = match &frame {
            Frame::Scores(r) => r.request_id,
            Frame::Rejected(r) => r.request_id,
            Frame::Error(r) => r.request_id,
            _ => u64::MAX,
        };
        match seen.get_mut(id as usize) {
            Some(slot) if !*slot => *slot = true,
            _ => {
                run.errors += 1;
                continue;
            }
        }
        match frame {
            Frame::Scores(reply) if pool.is_correct(id, &reply.logits, reply.total_cycles) => {
                run.completed += 1;
                on_scores(id, now, run);
            }
            Frame::Scores(_) => run.mismatches += 1,
            Frame::Rejected(_) => run.rejected += 1,
            _ => run.errors += 1,
        }
    }
}

fn read_some(stream: &mut TcpStream, buf: &mut Vec<u8>) -> bool {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return false,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                return true;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect to the loopback server");
    stream.set_nodelay(true).expect("TCP_NODELAY");
    stream
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .expect("read timeout");
    stream
}

/// Sends request `id` on a fresh connection and waits for its reply;
/// `true` when the reply is the oracle's answer.
pub fn one_request(addr: SocketAddr, pool: &Pool, id: u64) -> bool {
    let mut stream = connect(addr);
    if send(&mut stream, pool, id).is_err() {
        return false;
    }
    let mut buf = Vec::new();
    let mut run = ClientRun::default();
    let mut seen = vec![false; id as usize + 1];
    while run.completed + run.mismatches + run.rejected + run.errors == 0 {
        if !read_some(&mut stream, &mut buf)
            || drain_replies(&mut buf, pool, &mut seen, &mut run, |_, _, _| {}).is_none()
        {
            return false;
        }
    }
    run.completed == 1
}

/// Open loop: request `k` is due at `origin + schedule[k]` whatever the
/// server does; its latency runs from that instant.  The writer is the
/// calling thread, the reader one spawned thread.
pub fn open_loop(addr: SocketAddr, pool: &Pool, schedule: &[Duration]) -> ClientRun {
    let mut writer = connect(addr);
    let mut reader = writer.try_clone().expect("clone the client socket");
    let horizon = schedule.last().copied().unwrap_or_default();
    let origin = Instant::now() + Duration::from_millis(20);
    let host = HostCpu::now();
    let cpu = process_cpu_s();

    let (mut run, last_reply) = thread::scope(|scope| {
        let reading = scope.spawn(|| {
            let cpu = thread_cpu_s();
            let mut run = ClientRun::default();
            let mut seen = vec![false; schedule.len()];
            let mut buf = Vec::new();
            let mut last_reply = origin;
            while read_some(&mut reader, &mut buf) {
                let decoded = drain_replies(&mut buf, pool, &mut seen, &mut run, |id, at, run| {
                    run.requests.push((id, origin + schedule[id as usize], at));
                    last_reply = at;
                });
                if decoded.is_none() {
                    break;
                }
            }
            run.loadgen_cpu_s = thread_cpu_s() - cpu;
            (run, last_reply)
        });

        let cpu = thread_cpu_s();
        let mut send_lag_us = Vec::with_capacity(schedule.len());
        for (id, offset) in schedule.iter().enumerate() {
            let due = origin + *offset;
            let now = Instant::now();
            if due > now {
                thread::sleep(due - now);
            }
            send_lag_us.push(Instant::now().duration_since(due).as_secs_f64() * 1e6);
            if send(&mut writer, pool, id as u64).is_err() {
                break;
            }
        }
        // Half-close: the server answers what is in flight, then closes,
        // which ends the reader on EOF.
        let _ = writer.shutdown(Shutdown::Write);
        let writer_cpu = thread_cpu_s() - cpu;
        let (mut run, last_reply) = reading.join().expect("reader thread");
        run.loadgen_cpu_s += writer_cpu;
        run.send_lag_us = send_lag_us;
        (run, last_reply)
    });
    run.process_cpu_s = process_cpu_s() - cpu;
    run.steal_share = host.steal_share(&HostCpu::now());
    run.attempted = schedule.len() as u64;
    run.window_s = last_reply
        .duration_since(origin)
        .max(horizon)
        .as_secs_f64()
        .max(1e-6);
    run
}

/// Closed loop from the calling thread: `window` requests stay in flight
/// on one connection, a reply releasing the next send, until `seconds`
/// have passed; then the window drains.
pub fn saturate(addr: SocketAddr, pool: &Pool, window: usize, seconds: f64) -> ClientRun {
    let mut stream = connect(addr);
    let host = HostCpu::now();
    let cpu = process_cpu_s();
    let own_cpu = thread_cpu_s();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);

    let mut run = ClientRun::default();
    let mut sent_at: Vec<Instant> = Vec::new();
    let mut seen: Vec<bool> = Vec::new();
    let mut buf = Vec::new();
    let mut last_reply = start;
    let mut in_flight = 0usize;
    let send_next = |stream: &mut TcpStream, sent_at: &mut Vec<Instant>, seen: &mut Vec<bool>| {
        let id = sent_at.len() as u64;
        sent_at.push(Instant::now());
        seen.push(false);
        send(stream, pool, id).is_ok()
    };
    while in_flight < window && send_next(&mut stream, &mut sent_at, &mut seen) {
        in_flight += 1;
    }
    while in_flight > 0 && read_some(&mut stream, &mut buf) {
        let mut done = Vec::new();
        let decoded = drain_replies(&mut buf, pool, &mut seen, &mut run, |id, at, _| {
            done.push((id, at));
        });
        for (id, at) in done {
            run.requests.push((id, sent_at[id as usize], at));
            last_reply = at;
        }
        let Some(replies) = decoded else { break };
        in_flight -= replies as usize;
        for _ in 0..replies {
            if Instant::now() < deadline && send_next(&mut stream, &mut sent_at, &mut seen) {
                in_flight += 1;
            }
        }
    }
    run.loadgen_cpu_s = thread_cpu_s() - own_cpu;
    run.process_cpu_s = process_cpu_s() - cpu;
    run.steal_share = host.steal_share(&HostCpu::now());
    run.attempted = sent_at.len() as u64;
    run.window_s = last_reply.duration_since(start).as_secs_f64().max(1e-6);
    run
}
