//! The TCP front-end: **sharded readiness-driven reactors** over
//! [`StreamServer`]'s non-blocking completion queue.
//!
//! [`NetServer::bind`] compiles the model once (via
//! [`StreamServer::start_with`]), binds a listener and spawns
//! [`NetOptions::reactors`] reactor threads (one per core by default).
//! Each shard owns a **private** connection table, write queues, wake pipe
//! and completion channel, and parks in its own
//! [`crate::poller::Poller`] — epoll with edge-triggered readiness.
//! Nothing in the front-end ever blocks on a peer:
//!
//! * **Accepts** happen on shard 0, which owns the listener and hands
//!   admitted sockets to its siblings **round-robin** over a per-shard
//!   channel plus a wake (`SO_REUSEPORT` without the setsockopt
//!   plumbing); the global [`NetOptions::max_connections`] cap is a
//!   shared atomic reserved at accept time, so admission control stays
//!   exact under sharding.  Connections **never migrate** between
//!   shards, so every per-connection invariant (incremental decode,
//!   completion-order replies, slow-reader isolation) is untouched.
//! * **Reads** are non-blocking into a per-connection buffer; complete
//!   frames are decoded incrementally and INFER requests are submitted
//!   through [`StreamServer::submit_tagged`] — so one connection can have
//!   any number of requests in flight (pipelining).  Submission tags are
//!   **shard-strided** (shard `i` uses `i, i+N, i+2N, ...`), keeping them
//!   globally unique for the telemetry recorder.
//! * **Completions** come back over each shard's mpsc channel; the
//!   dispatcher wakes the owning shard through its pipe, and replies are
//!   written in **completion order**, each echoing its request id for
//!   client-side correlation.
//! * **Writes** go through a per-connection write queue flushed on
//!   writability, so a stalled reader delays only its own replies — every
//!   other connection keeps flowing.  A reader that outgrows the
//!   write-buffer cap, or whose kernel buffer accepts nothing for the
//!   whole [`WRITE_STALL_TIMEOUT`], is disconnected.
//!
//! # Edge-triggered correctness
//!
//! Epoll reports a readiness transition exactly once, which
//! interacts with the [`NetOptions::read_burst`] fairness cap: a firehose
//! socket whose burst is cut short still has kernel bytes but will never
//! re-report readable.  Each reactor therefore keeps a **hot list** of
//! burst-truncated connections and re-reads them on the next iteration
//! (with a zero wait timeout while the list is non-empty) — fairness
//! between sockets is preserved *and* no byte is stranded.  Writes need
//! no such list: the reactor always flushes immediately after queueing,
//! so a non-empty write buffer implies a genuine `EWOULDBLOCK`, and the
//! kernel will edge on the next writable transition.
//!
//! Scores on the wire remain bit-identical to the matching in-process
//! [`StreamServer::submit`] (loopback suite), pipelined or not, at any
//! shard count.
//!
//! # Backpressure, end to end
//!
//! Load shedding is typed at both layers and always carries a retry hint
//! computed from the live [`StreamServer::queue_snapshot`]:
//!
//! * **Submission queue full** — `submit_tagged` returns
//!   [`snn_accel::AccelError::QueueFull`]; the reactor answers that request
//!   with a REJECTED frame (`scope = queue`) echoing its id and quoting
//!   the observed depth, the capacity, and how long the dispatcher needs
//!   to drain the backlog at its recent rate.  Other pipelined requests on
//!   the same connection are untouched.
//! * **Connection cap reached** — the shards collectively own at most
//!   [`NetOptions::max_connections`] sockets (the shared reservation
//!   counter); a connection past the cap is shed by the accepting shard
//!   with a REJECTED frame (`scope = connections`) queued on its write
//!   buffer and closed once flushed — no thread is spawned, the acceptor
//!   never blocks.
//!
//! Each reactor thread draws one [`snn_parallel::IoLease`]; it blocks in
//! the poller, not on a core (the `StreamServer` dispatcher is accounted
//! the same way).  Connection scaling is bounded by `max_connections`,
//! not by threads.
//!
//! # Failure isolation
//!
//! A panic in one reactor shard kills only that shard: its connections
//! die, its siblings keep serving, and the acceptor skips it for new
//! admissions.  [`NetServer::is_healthy`] turns `false` (any dead shard
//! means lost capacity and, for shard 0, a dead listener), which is the
//! supervision signal to rebuild the front-end; [`NetStats::per_reactor`]
//! says which shard died.
//!
//! # Shutdown
//!
//! [`NetServer::shutdown`] wakes every shard; each stops accepting and
//! reading, submits any complete frames already buffered, waits for its
//! in-flight inferences to complete, flushes its write queues (bounded by
//! [`SHUTDOWN_DRAIN_GRACE`]) and exits; only then is the inner server
//! torn down — a clean shutdown never drops a request it has already
//! read.

use crate::error::NetError;
use crate::poller::{Interest, Poller};
use crate::protocol::{
    error_code, probe_plaintext, reject_scope, stats_format, ErrorReply, Frame, PlaintextProbe,
    RejectReply, ScoreReply, NO_REQUEST_ID,
};
use crate::sys::WakePipe;
use snn_accel::config::AcceleratorConfig;
use snn_accel::serve::{
    Completion, CompletionSink, QueueSnapshot, ServerOptions, ServerStats, StreamServer,
};
use snn_accel::AccelError;
use snn_model::snn::SnnModel;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Options of a [`NetServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetOptions {
    /// Options of the inner [`StreamServer`] (micro-batching, queue
    /// capacity, execution mode) — validated by its constructor.
    pub server: ServerOptions,
    /// Upper bound of one poller sleep: the granularity of idle-timeout
    /// sweeps and the latency ceiling of noticing a shutdown — not of
    /// requests, which wake their shard through its pipe.
    pub poll_interval: Duration,
    /// A connection that has sent no complete request (and has none in
    /// flight) for this long is closed and its slot reclaimed.  Without
    /// the deadline, `max_connections` silent sockets would pin every slot
    /// forever and starve new connections while the server sits idle.
    pub idle_timeout: Duration,
    /// Most connections the shards collectively own at once.  Past the
    /// cap a new connection is shed with a typed REJECTED frame (`scope =
    /// connections`).  Must be at least 1 ([`NetServer::bind`] rejects 0
    /// with a typed error).  Connections are state, not threads, so this
    /// can comfortably sit far above the old per-connection worker cap.
    pub max_connections: usize,
    /// Reactor shards.  `0` (the default) resolves to the `SNN_REACTORS`
    /// environment variable if set, else one shard per available core.
    /// Shard 0 owns the listener and distributes admitted connections
    /// round-robin; a connection lives on one shard for its whole life.
    pub reactors: usize,
    /// Most bytes one readiness round reads from one socket — the
    /// fairness bound (see [`READ_BURST`], the default).  Tests shrink it
    /// to exercise the edge-trigger hot-list with small payloads.  Must
    /// be at least 1.
    pub read_burst: usize,
}

impl Default for NetOptions {
    fn default() -> Self {
        NetOptions {
            server: ServerOptions::default(),
            poll_interval: Duration::from_millis(20),
            idle_timeout: Duration::from_secs(60),
            max_connections: 256,
            reactors: 0,
            read_burst: READ_BURST,
        }
    }
}

/// Cap on one connection's queued-but-unwritten reply bytes.  A client
/// that pipelines requests and never reads its replies grows its write
/// queue; past this bound the reactor declares the reader dead and closes
/// the connection instead of buffering without limit.  Generous: a SCORES
/// reply is ~100 bytes, so this is tens of thousands of unread replies.
pub const MAX_WRITE_BUFFER: usize = 4 << 20;

/// How long a connection's write queue may sit non-empty **without the
/// kernel accepting a single byte** before the reader is declared dead
/// and the connection closed.  The peer's receive buffer being full for
/// this long means nobody is reading; without the bound, a reader stalled
/// *below* [`MAX_WRITE_BUFFER`] would pin its connection slot forever
/// (the reactor equivalent of the old per-connection write timeout).
/// Any write progress restarts the window.
pub const WRITE_STALL_TIMEOUT: Duration = Duration::from_secs(10);

/// Default of [`NetOptions::read_burst`]: most bytes a reactor reads from
/// one socket in one readiness round — a fairness bound so a firehose
/// peer cannot starve its shard neighbours between waits.  The remainder
/// stays in the kernel buffer and the reactor re-reads it via the hot
/// list (no new edge will fire for it).
pub const READ_BURST: usize = 256 << 10;

/// How long a reactor-wide draining shutdown may keep waiting on
/// in-flight inferences and unflushed replies before giving up on the
/// laggards.  Also the per-connection bound of the draining phase of a
/// terminally-answered connection (terminal reply queued, in-flight
/// completions still landing).
pub const SHUTDOWN_DRAIN_GRACE: Duration = Duration::from_secs(10);

/// How long a connection that has been answered and half-closed (error
/// replies, plaintext stats, sheds) is kept around to drain the peer's
/// unread bytes — closing with data pending in the receive buffer sends
/// RST, which could destroy the reply before the peer reads it.
pub const CLOSE_LINGER: Duration = Duration::from_millis(250);

/// Per-shard cap on connections in the shed/close pipeline (REJECTED
/// queued, write flushing, linger) beyond the admitted population.  Past
/// it, surplus connections are dropped without a frame — under that much
/// flood typed rejection inevitably degrades to kernel-level drops
/// anyway, but the reactor itself never blocks and its memory stays
/// bounded.
pub const MAX_SHED_CONNECTIONS: usize = 64;

/// Floor of the retry-after hint on connection-scope rejections
/// (milliseconds).  Connection slots free when a peer disconnects or
/// idles out — nothing the queue drain rate can predict — so the hint is
/// a polite back-off floor rather than a measurement.
pub const CONNECTIONS_RETRY_AFTER_MS: u64 = 100;

/// Poller token of a shard's wake pipe (connection tokens count up from
/// zero and never reach the reserved range).
const TOKEN_WAKE: u64 = u64::MAX;
/// Poller token of the listener (shard 0 only).
const TOKEN_LISTENER: u64 = u64::MAX - 1;

/// One shard's counters — each written only by its owning reactor
/// thread, read by anyone.
struct ShardCounters {
    alive: AtomicBool,
    accepted: AtomicU64,
    turned_away: AtomicU64,
    handoffs: AtomicU64,
    requests: AtomicU64,
    protocol_errors: AtomicU64,
    stats_requests: AtomicU64,
    open_connections: AtomicUsize,
}

impl ShardCounters {
    fn new() -> Self {
        ShardCounters {
            alive: AtomicBool::new(true),
            accepted: AtomicU64::new(0),
            turned_away: AtomicU64::new(0),
            handoffs: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            stats_requests: AtomicU64::new(0),
            open_connections: AtomicUsize::new(0),
        }
    }
}

/// Per-shard slice of [`NetStats`]: which reactor did what — a hot
/// accept shard, a dead shard, or an unbalanced handoff is visible here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReactorStats {
    /// Shard index (`0` owns the listener).
    pub index: usize,
    /// `false` once this shard's thread has exited (shutdown or panic).
    pub alive: bool,
    /// Connections admitted to this shard (the accept share).
    pub accepted: u64,
    /// Connections this shard shed at the cap (sheds land on the accept
    /// shard, which owns the admission decision).
    pub turned_away: u64,
    /// Admitted connections that arrived via listener handoff rather
    /// than locally (always 0 for shard 0).
    pub handoffs: u64,
    /// Connections this shard currently owns.
    pub open_connections: u64,
    /// Inference requests decoded by this shard.
    pub requests: u64,
    /// Protocol violations observed by this shard.
    pub protocol_errors: u64,
    /// STATS requests served by this shard.
    pub stats_requests: u64,
}

/// Snapshot of a [`NetServer`]'s counters plus the inner serving stats.
/// The flat counters aggregate over every reactor shard;
/// [`NetStats::per_reactor`] has the breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct NetStats {
    /// TCP connections accepted (admitted or shed), summed over shards.
    pub accepted: u64,
    /// Connections shed because the front-end was at `max_connections`.
    pub turned_away: u64,
    /// Inference requests received over the wire.
    pub requests: u64,
    /// Connections terminated for violating the frame protocol.
    pub protocol_errors: u64,
    /// STATS requests served (framed or plaintext).
    pub stats_requests: u64,
    /// Connections the shards currently own.
    pub open_connections: u64,
    /// `false` once **any** reactor shard has exited — normally
    /// (shutdown) or abnormally (a shard panic).  A supervisor that sees
    /// this `false` on a server it has not shut down knows part of the
    /// front-end is dead even though the process is alive; see
    /// [`NetServer::is_healthy`] and the per-shard `alive` flags in
    /// [`NetStats::per_reactor`].
    pub reactor_alive: bool,
    /// Reactor shards the server was built with.
    pub reactors: u64,
    /// Shards whose threads are still running.
    pub reactors_alive: u64,
    /// Per-shard breakdown (accept share, handoffs, liveness).
    pub per_reactor: Vec<ReactorStats>,
    /// The inner [`StreamServer`] statistics (completed, rejected, queue
    /// snapshot, per-unit utilisation, ...).
    pub server: ServerStats,
}

struct NetShared {
    server: StreamServer,
    options: NetOptions,
    /// Resolved shard count (≥ 1); `options.reactors` keeps the raw
    /// request (possibly 0 = auto).
    reactors: usize,
    shutdown: AtomicBool,
    /// Global admission reservation: incremented by the accepting shard
    /// **before** a connection is admitted or handed off, decremented by
    /// the owning shard when an admitted connection stops being served
    /// (drain or close).  Only the acceptor admits, so the cap check
    /// against this counter is exact.
    open_total: AtomicUsize,
    shards: Vec<ShardCounters>,
    wakes: Vec<Arc<WakePipe>>,
}

/// Flips a shard's `alive` flag when its reactor thread exits, even by
/// unwinding: the guard lives on the reactor's stack, so a panic anywhere
/// in the event loop still reports the death.
struct ReactorAliveGuard {
    shared: Arc<NetShared>,
    shard: usize,
}

impl Drop for ReactorAliveGuard {
    fn drop(&mut self) {
        self.shared.shards[self.shard]
            .alive
            .store(false, Ordering::Release);
    }
}

/// A listening TCP serving front-end.  See the module docs.
#[derive(Debug)]
pub struct NetServer {
    shared: Arc<NetShared>,
    reactors: Vec<JoinHandle<()>>,
    local_addr: SocketAddr,
}

impl std::fmt::Debug for NetShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetShared")
            .field("options", &self.options)
            .field("reactors", &self.reactors)
            .finish_non_exhaustive()
    }
}

/// Resolves `NetOptions::reactors`: explicit > `SNN_REACTORS` env > one
/// per available core; clamped to at least 1 and at most the connection
/// cap (a shard with no possible connection is pure overhead).
fn resolve_reactors(options: &NetOptions) -> usize {
    let requested = if options.reactors > 0 {
        options.reactors
    } else {
        std::env::var("SNN_REACTORS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    };
    requested.clamp(1, options.max_connections)
}

impl NetServer {
    /// Compiles `model`, binds `addr` (use port `0` for an ephemeral port)
    /// and starts the reactor shards.
    ///
    /// # Errors
    ///
    /// Propagates [`StreamServer::start_with`] errors (invalid options,
    /// unmappable model), rejects `max_connections == 0` and
    /// `read_burst == 0` with a typed
    /// [`snn_accel::AccelError::InvalidConfig`], and propagates socket /
    /// pipe errors.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        config: AcceleratorConfig,
        model: SnnModel,
        options: NetOptions,
    ) -> Result<Self, NetError> {
        if options.max_connections == 0 {
            return Err(NetError::Accel(AccelError::InvalidConfig {
                context: "NetOptions::max_connections is 0: every connection would be shed"
                    .to_string(),
            }));
        }
        if options.read_burst == 0 {
            return Err(NetError::Accel(AccelError::InvalidConfig {
                context: "NetOptions::read_burst is 0: no socket could ever be read".to_string(),
            }));
        }
        let reactors = resolve_reactors(&options);
        let server = StreamServer::start_with(config, model, options.server)?;
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;

        let mut wakes = Vec::with_capacity(reactors);
        for _ in 0..reactors {
            wakes.push(Arc::new(WakePipe::new()?));
        }
        // Pollers are built before the threads spawn so an
        // `epoll_create1` failure is a bind error, not a dead shard.
        let mut pollers = Vec::with_capacity(reactors);
        for _ in 0..reactors {
            pollers.push(Some(Poller::new()?));
        }
        let shared = Arc::new(NetShared {
            server,
            options,
            reactors,
            shutdown: AtomicBool::new(false),
            open_total: AtomicUsize::new(0),
            shards: (0..reactors).map(|_| ShardCounters::new()).collect(),
            wakes,
        });

        // The round-robin handoff fabric: shard 0 sends admitted sockets
        // to any sibling's channel and wakes it.  (Shard 0's own channel
        // exists for uniformity but the acceptor admits locally instead.)
        let mut txs = Vec::with_capacity(reactors);
        let mut rxs: Vec<Option<mpsc::Receiver<TcpStream>>> = Vec::with_capacity(reactors);
        for _ in 0..reactors {
            let (tx, rx) = mpsc::channel::<TcpStream>();
            txs.push(tx);
            rxs.push(Some(rx));
        }

        let mut handles = Vec::with_capacity(reactors);
        let mut listener_slot = Some(listener);
        for shard in 0..reactors {
            let poller = pollers[shard].take().expect("one poller per shard");
            let handoff_rx = rxs[shard].take().expect("one receiver per shard");
            let handoff_txs = if shard == 0 { txs.clone() } else { Vec::new() };
            let listener = if shard == 0 {
                listener_slot.take()
            } else {
                None
            };
            let completion_wake = Arc::clone(&shared.wakes[shard]);
            let (sink, completions) = CompletionSink::new(Arc::new(move || completion_wake.wake()));
            // Each shard blocks in its poller, not on a core, so it draws
            // an IO lease rather than compute budget (the StreamServer
            // dispatcher is accounted the same way).
            let lease = snn_parallel::budget().try_lease_io_threads(1);
            let reactor_shared = Arc::clone(&shared);
            let handle = thread::Builder::new()
                .name(format!("snn-net-reactor-{shard}"))
                .spawn(move || {
                    // The lease (when the budget had one left) lives
                    // exactly as long as the shard; the alive guard
                    // reports the thread's death on every exit path,
                    // panics included.
                    let _lease = lease;
                    let _alive = ReactorAliveGuard {
                        shared: Arc::clone(&reactor_shared),
                        shard,
                    };
                    Reactor::new(
                        &reactor_shared,
                        shard,
                        poller,
                        listener,
                        handoff_rx,
                        handoff_txs,
                        completions,
                        sink,
                    )
                    .run();
                })?;
            handles.push(handle);
        }
        Ok(NetServer {
            shared,
            reactors: handles,
            local_addr,
        })
    }

    /// The bound address — where clients connect.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Snapshot of the front-end counters (aggregated and per shard) and
    /// the inner serving stats.
    pub fn stats(&self) -> NetStats {
        let per_reactor = per_reactor_stats(&self.shared);
        let alive = per_reactor.iter().filter(|r| r.alive).count() as u64;
        NetStats {
            accepted: per_reactor.iter().map(|r| r.accepted).sum(),
            turned_away: per_reactor.iter().map(|r| r.turned_away).sum(),
            requests: per_reactor.iter().map(|r| r.requests).sum(),
            protocol_errors: per_reactor.iter().map(|r| r.protocol_errors).sum(),
            stats_requests: per_reactor.iter().map(|r| r.stats_requests).sum(),
            open_connections: per_reactor.iter().map(|r| r.open_connections).sum(),
            reactor_alive: alive == self.shared.reactors as u64,
            reactors: self.shared.reactors as u64,
            reactors_alive: alive,
            per_reactor,
            server: self.shared.server.stats(),
        }
    }

    /// `true` while every reactor shard is alive, the engine is healthy
    /// ([`StreamServer::is_healthy`]), and the server has not been told to
    /// shut down.
    ///
    /// A dead shard (a panic in its event loop — inference panics never
    /// reach the reactors, they are isolated inside the dispatcher) means
    /// its connections are gone and, for shard 0, that nothing accepts;
    /// the survivors keep serving *their* connections, but the front-end
    /// has silently lost capacity.  Likewise, a front-end whose engine
    /// died can only answer SHUTTING_DOWN.  This is the supervision
    /// signal: a monitor that sees `is_healthy() == false` on a server it
    /// did not shut down should rebuild the front-end.
    pub fn is_healthy(&self) -> bool {
        self.shared
            .shards
            .iter()
            .all(|s| s.alive.load(Ordering::Acquire))
            && self.shared.server.is_healthy()
            && !self.shared.shutdown.load(Ordering::Acquire)
    }

    /// Gracefully shuts down: stop accepting, drain in-flight requests,
    /// flush replies, join every shard, and return the final statistics.
    pub fn shutdown(mut self) -> NetStats {
        self.stop();
        self.stats()
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for wake in &self.shared.wakes {
            wake.wake();
        }
        // A panicked shard must not turn shutdown into a panic of its
        // own (or a double-panic abort when this runs from Drop during
        // unwinding): join errors are swallowed and teardown continues.
        for handle in self.reactors.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn per_reactor_stats(shared: &NetShared) -> Vec<ReactorStats> {
    shared
        .shards
        .iter()
        .enumerate()
        .map(|(index, c)| ReactorStats {
            index,
            alive: c.alive.load(Ordering::Acquire),
            accepted: c.accepted.load(Ordering::Relaxed),
            turned_away: c.turned_away.load(Ordering::Relaxed),
            handoffs: c.handoffs.load(Ordering::Relaxed),
            open_connections: c.open_connections.load(Ordering::Relaxed) as u64,
            requests: c.requests.load(Ordering::Relaxed),
            protocol_errors: c.protocol_errors.load(Ordering::Relaxed),
            stats_requests: c.stats_requests.load(Ordering::Relaxed),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The reactor
// ---------------------------------------------------------------------------

/// Lifecycle of one reactor-owned connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Serving requests.
    Open,
    /// A terminal reply (error / plaintext stats / shed) is queued: flush
    /// the write buffer, then half-close and move to [`ConnState::Linger`].
    Draining,
    /// Write side closed; discard the peer's unread bytes until EOF or the
    /// deadline so the kernel does not RST our last reply away.
    Linger,
}

/// What [`Conn::read_step`] observed about the socket.
struct ReadOutcome {
    /// The connection is dead and must be closed.
    dead: bool,
    /// The burst cap ended the read with bytes (possibly) still in the
    /// kernel buffer — the reactor must remember to come back (hot list),
    /// because no new edge will fire for bytes that already arrived.
    truncated: bool,
}

struct Conn {
    stream: TcpStream,
    state: ConnState,
    /// `false` for shed connections, which never held a reservation in
    /// the global admission counter.
    admitted: bool,
    /// Bytes read but not yet decoded (at most a partial frame after each
    /// processing pass).
    rbuf: Vec<u8>,
    /// Encoded replies not yet accepted by the kernel.
    wbuf: Vec<u8>,
    /// Tagged inferences submitted for this connection and not yet
    /// completed.
    in_flight: usize,
    /// The peer half-closed its sending side; serve what is in flight,
    /// flush, then close.
    peer_eof: bool,
    /// Wall-clock of the last complete request or completion (the idle
    /// clock must not tick while work is in flight).
    last_activity: Instant,
    /// Hard deadline for [`ConnState::Draining`]/[`ConnState::Linger`].
    deadline: Option<Instant>,
    /// Since when the write queue has been non-empty with the kernel
    /// accepting nothing (see [`WRITE_STALL_TIMEOUT`]).
    stalled_since: Option<Instant>,
    /// Total bytes this connection has ever handed to the kernel — the
    /// offset coordinate of `reply_marks`.
    flushed_total: u64,
    /// Write-stall telemetry marks, one per queued SCORES reply: `(byte
    /// offset at which the reply is fully flushed, when it was queued,
    /// trace request id)`.  Appended in completion order, so offsets are
    /// monotone and `flush_step` pops from the front.
    reply_marks: VecDeque<(u64, Instant, u64)>,
    /// Write-queue residencies measured by `flush_step`, waiting for the
    /// reactor to forward them to the span recorder.
    stall_samples: Vec<(u64, f64)>,
    /// Set when the fault injector faked an `EWOULDBLOCK` on this
    /// connection: the kernel state did not change, so epoll will never
    /// re-report — the reactor must treat the socket as hot.  Never set
    /// outside the `fault-injection` feature.
    fault_blocked: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            state: ConnState::Open,
            admitted: true,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            in_flight: 0,
            peer_eof: false,
            last_activity: Instant::now(),
            deadline: None,
            stalled_since: None,
            flushed_total: 0,
            reply_marks: VecDeque::new(),
            stall_samples: Vec::new(),
            fault_blocked: false,
        }
    }

    /// Queues an encoded reply for the writability path.
    fn queue_frame(&mut self, frame: &Frame) {
        self.wbuf.extend_from_slice(&frame.encode());
    }

    /// Marks the connection terminally answered: finish in-flight work,
    /// flush, half-close, linger, close.  The drain phase gets the full
    /// flush grace (in-flight completions are still landing); the linger
    /// after the half-close is short.  Callers that may hold an admission
    /// reservation go through [`retire_and_drain`] instead.
    fn begin_drain(&mut self) {
        if self.state == ConnState::Open {
            self.state = ConnState::Draining;
            self.deadline = Some(Instant::now() + SHUTDOWN_DRAIN_GRACE);
        }
    }

    /// Takes (and clears) the injected-`EWOULDBLOCK` marker.
    fn take_fault_blocked(&mut self) -> bool {
        std::mem::take(&mut self.fault_blocked)
    }

    /// One socket read, routed through the fault injector when the
    /// `fault-injection` feature is armed: short reads truncate the
    /// scratch window to one byte, the error faults never touch the
    /// socket.  Release builds compile down to the plain `read`.
    fn socket_read(&mut self, scratch: &mut [u8]) -> io::Result<usize> {
        #[cfg(feature = "fault-injection")]
        {
            use crate::fault::IoFault;
            match crate::fault::read_fault() {
                IoFault::None => self.stream.read(scratch),
                IoFault::Short => self.stream.read(&mut scratch[..1]),
                IoFault::WouldBlock => {
                    // The socket was not consulted: real bytes may remain,
                    // and the edge-triggered poller will not re-report them.
                    self.fault_blocked = true;
                    Err(io::Error::from(ErrorKind::WouldBlock))
                }
                IoFault::Interrupted => Err(io::Error::from(ErrorKind::Interrupted)),
                IoFault::Reset => Err(io::Error::from(ErrorKind::ConnectionReset)),
            }
        }
        #[cfg(not(feature = "fault-injection"))]
        self.stream.read(scratch)
    }

    /// One socket write, routed through the fault injector exactly like
    /// [`Conn::socket_read`] (short writes offer the kernel one byte).
    fn socket_write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        #[cfg(feature = "fault-injection")]
        {
            use crate::fault::IoFault;
            match crate::fault::write_fault() {
                IoFault::None => self.stream.write(bytes),
                IoFault::Short => self.stream.write(&bytes[..1]),
                IoFault::WouldBlock => {
                    // As with reads: the kernel buffer may be writable, so
                    // no writable edge is coming — flag for the hot list.
                    self.fault_blocked = true;
                    Err(io::Error::from(ErrorKind::WouldBlock))
                }
                IoFault::Interrupted => Err(io::Error::from(ErrorKind::Interrupted)),
                IoFault::Reset => Err(io::Error::from(ErrorKind::ConnectionReset)),
            }
        }
        #[cfg(not(feature = "fault-injection"))]
        self.stream.write(bytes)
    }

    /// Non-blocking read burst into the read buffer (discarded on non-Open
    /// states, where only EOF matters).
    fn read_step(&mut self, burst: usize) -> ReadOutcome {
        let discard = self.state != ConnState::Open;
        let mut scratch = [0u8; 8192];
        let mut total = 0usize;
        let mut truncated = false;
        loop {
            // The burst is a byte cap, not a round count: never ask the
            // kernel for more than the remaining allowance, so small test
            // bursts behave exactly like the production one.
            let want = scratch.len().min(burst - total);
            match self.socket_read(&mut scratch[..want]) {
                Ok(0) => {
                    self.peer_eof = true;
                    break;
                }
                Ok(n) => {
                    if !discard {
                        self.rbuf.extend_from_slice(&scratch[..n]);
                    }
                    total += n;
                    // Fairness: leave the rest in the kernel buffer.  No
                    // new edge will fire for it, so the caller must honour
                    // `truncated` (the hot list).
                    if total >= burst {
                        truncated = true;
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    return ReadOutcome {
                        dead: true,
                        truncated: false,
                    }
                }
            }
        }
        ReadOutcome {
            // EOF during a linger means the peer has nothing more in
            // flight that a close could RST away.
            dead: self.peer_eof && self.state != ConnState::Open,
            truncated: truncated && !self.peer_eof,
        }
    }

    /// Writes as much queued reply data as the kernel accepts.  Returns
    /// `true` when the connection is dead and must be closed.
    fn flush_step(&mut self) -> bool {
        let mut wrote = 0usize;
        while !self.wbuf.is_empty() {
            let queued = std::mem::take(&mut self.wbuf);
            let result = self.socket_write(&queued);
            self.wbuf = queued;
            match result {
                Ok(0) => return true,
                Ok(n) => {
                    self.wbuf.drain(..n);
                    wrote += n;
                    self.flushed_total += n as u64;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return true,
            }
        }
        // Write-stall telemetry: a reply whose last byte the kernel has now
        // accepted spent its whole queue residency in this buffer — sample
        // it for the recorder (the reactor forwards after each flush).
        while let Some(&(target, queued_at, request_id)) = self.reply_marks.front() {
            if target > self.flushed_total {
                break;
            }
            self.reply_marks.pop_front();
            self.stall_samples
                .push((request_id, queued_at.elapsed().as_secs_f64()));
        }
        // Write-stall clock: runs while bytes are queued and the kernel
        // accepts none of them, restarts on any progress.
        if self.wbuf.is_empty() {
            self.stalled_since = None;
        } else if wrote > 0 || self.stalled_since.is_none() {
            self.stalled_since = Some(Instant::now());
        }
        if self.wbuf.len() > MAX_WRITE_BUFFER {
            // The peer has stopped reading; buffering further replies for
            // it would trade one slow socket for unbounded memory.
            return true;
        }
        if self.wbuf.is_empty() && self.in_flight == 0 && self.state == ConnState::Draining {
            // Every reply flushed: half-close and linger briefly so the
            // FIN (not an RST) is what the peer observes after our last
            // frame.
            let _ = self.stream.shutdown(Shutdown::Write);
            self.state = ConnState::Linger;
            self.deadline = Some(Instant::now() + CLOSE_LINGER);
            if self.peer_eof {
                return true;
            }
        }
        false
    }
}

/// Ends an admitted connection's claim on the global admission counter
/// and starts its terminal drain.  Every `begin_drain` on a possibly
/// admitted connection must go through here — a reservation that leaks
/// would shrink the connection cap forever.
fn retire_and_drain(shared: &NetShared, conn: &mut Conn) {
    if conn.state == ConnState::Open && conn.admitted {
        shared.open_total.fetch_sub(1, Ordering::AcqRel);
    }
    conn.begin_drain();
}

/// A submitted-but-uncompleted inference: which connection asked, under
/// which wire request id.
struct Pending {
    token: u64,
    request_id: u64,
}

struct Reactor<'a> {
    shared: &'a Arc<NetShared>,
    shard: usize,
    poller: Poller,
    /// Shard 0 owns the listener; every other shard receives its accept
    /// share over the handoff channel.
    listener: Option<TcpListener>,
    handoff_rx: mpsc::Receiver<TcpStream>,
    /// Round-robin handoff senders, one per shard (non-empty only on the
    /// accepting shard).
    handoff_txs: Vec<mpsc::Sender<TcpStream>>,
    /// Round-robin cursor over shards (accepting shard only).
    next_target: usize,
    completions: mpsc::Receiver<Completion>,
    sink: CompletionSink,
    conns: HashMap<u64, Conn>,
    /// Tag of every in-flight tagged submission → its origin.
    pending: HashMap<u64, Pending>,
    /// Connections whose last read was cut short by the burst cap (or an
    /// injected `EWOULDBLOCK`): no new edge will fire for the bytes left
    /// behind, so the reactor re-reads these on the next iteration with a
    /// zero wait timeout.
    hot: HashSet<u64>,
    next_token: u64,
    /// Next submission tag: starts at the shard index, strides by the
    /// shard count — globally unique without cross-shard coordination
    /// (the telemetry recorder keys traces by tag).
    next_tag: u64,
    /// Set once when a shutdown is observed: already-buffered complete
    /// frames are submitted one final time, then reads stop.
    drain_started: bool,
}

impl<'a> Reactor<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        shared: &'a Arc<NetShared>,
        shard: usize,
        poller: Poller,
        listener: Option<TcpListener>,
        handoff_rx: mpsc::Receiver<TcpStream>,
        handoff_txs: Vec<mpsc::Sender<TcpStream>>,
        completions: mpsc::Receiver<Completion>,
        sink: CompletionSink,
    ) -> Self {
        Reactor {
            shared,
            shard,
            poller,
            listener,
            handoff_rx,
            handoff_txs,
            next_target: 0,
            completions,
            sink,
            conns: HashMap::new(),
            pending: HashMap::new(),
            hot: HashSet::new(),
            next_token: 0,
            next_tag: shard as u64,
            drain_started: false,
        }
    }

    fn counters(&self) -> &ShardCounters {
        &self.shared.shards[self.shard]
    }

    fn run(mut self) {
        if self
            .poller
            .register(
                self.shared.wakes[self.shard].read_fd(),
                TOKEN_WAKE,
                Interest::READ,
            )
            .is_err()
        {
            // A shard that cannot hear wakes cannot serve; die loudly
            // (the alive guard reports it).
            return;
        }
        if let Some(listener) = &self.listener {
            if self
                .poller
                .register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)
                .is_err()
            {
                return;
            }
        }
        let mut drain_deadline: Option<Instant> = None;
        loop {
            let draining = self.shared.shutdown.load(Ordering::Acquire);
            if draining {
                if !self.drain_started {
                    self.drain_started = true;
                    drain_deadline = Some(Instant::now() + SHUTDOWN_DRAIN_GRACE);
                    // Serve every complete frame already read off a socket,
                    // then stop reading: accepted work drains, new work is
                    // no longer admitted.
                    let tokens: Vec<u64> = self.conns.keys().copied().collect();
                    for token in tokens {
                        self.process_rbuf(token);
                    }
                    self.hot.clear();
                }
                let flushed = self.conns.values().all(|conn| conn.wbuf.is_empty());
                if (self.pending.is_empty() && flushed)
                    || drain_deadline.is_some_and(|d| Instant::now() >= d)
                {
                    return;
                }
            }

            // Hot connections have bytes we deliberately left behind: do
            // not park while any are pending.
            let prev_hot: Vec<u64> = self.hot.drain().collect();
            let timeout = if prev_hot.is_empty() {
                self.shared.options.poll_interval
            } else {
                Duration::ZERO
            };
            let events = match self.poller.wait(timeout) {
                Ok(events) => events.to_vec(),
                Err(_) => {
                    // EINVAL/ENOMEM are not per-connection conditions; back
                    // off instead of spinning and try again.
                    for token in prev_hot {
                        self.hot.insert(token);
                    }
                    thread::sleep(self.shared.options.poll_interval);
                    continue;
                }
            };

            // --- dispatch readiness ----------------------------------
            let mut accept = false;
            for event in &events {
                match event.token {
                    TOKEN_WAKE => self.shared.wakes[self.shard].drain(),
                    TOKEN_LISTENER => accept = true,
                    token => {
                        if event.error {
                            self.close(token);
                            continue;
                        }
                        if event.writable {
                            self.flush(token);
                        }
                        if event.readable && !draining {
                            self.read_ready(token);
                        }
                    }
                }
            }
            // Handoffs and completions are drained unconditionally:
            // try_recv is cheap and wake coalescing means byte counts
            // carry no information.
            self.drain_handoffs(draining);
            self.drain_completions();
            if accept && !draining {
                self.accept_ready();
            }
            // Re-serve the hot list from *before* this wait.  A token that
            // re-entered `hot` during dispatch already consumed its burst
            // this round — skip it for fairness; it keeps the next round
            // non-blocking instead.
            if !draining {
                for token in prev_hot {
                    if self.hot.contains(&token) {
                        continue;
                    }
                    self.flush(token);
                    self.read_ready(token);
                }
            }
            self.sweep();
        }
    }

    /// Accepts every connection the listener has queued and places each
    /// on a shard (round-robin over the living).
    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _peer)) => self.place_accepted(stream),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                // Transient accept errors (ECONNABORTED etc.): the next
                // readiness round retries.
                Err(_) => return,
            }
        }
    }

    /// Admission control and shard placement for one accepted socket.
    fn place_accepted(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let max = self.shared.options.max_connections;
        let open = self.shared.open_total.load(Ordering::Acquire);
        if open >= max {
            self.counters().accepted.fetch_add(1, Ordering::Relaxed);
            self.counters().turned_away.fetch_add(1, Ordering::Relaxed);
            self.shed(stream, open as u64);
            return;
        }
        // Reserve the slot before the connection is reachable by any
        // shard: only the acceptor admits, so the check above is exact
        // and the counter can only lag on the release side (closes), never
        // overshoot the cap.
        self.shared.open_total.fetch_add(1, Ordering::AcqRel);
        let shards = self.shared.reactors;
        let mut stream = Some(stream);
        for _ in 0..shards {
            let target = self.next_target % shards;
            self.next_target = (self.next_target + 1) % shards;
            if target == self.shard {
                self.shared.shards[target]
                    .accepted
                    .fetch_add(1, Ordering::Relaxed);
                self.admit(stream.take().expect("placed once"));
                return;
            }
            if !self.shared.shards[target].alive.load(Ordering::Acquire) {
                continue;
            }
            match self.handoff_txs[target].send(stream.take().expect("placed once")) {
                Ok(()) => {
                    self.shared.shards[target]
                        .accepted
                        .fetch_add(1, Ordering::Relaxed);
                    self.shared.shards[target]
                        .handoffs
                        .fetch_add(1, Ordering::Relaxed);
                    self.shared.wakes[target].wake();
                    return;
                }
                // The shard died between the liveness check and the send:
                // take the socket back and try the next target.
                Err(mpsc::SendError(returned)) => stream = Some(returned),
            }
        }
        // Unreachable in practice — the accepting shard itself is always
        // a valid target — but never leak the reservation.
        self.shared.open_total.fetch_sub(1, Ordering::AcqRel);
    }

    /// Sheds one over-cap connection with a typed REJECTED frame, owned
    /// locally by the accepting shard (bounded by
    /// [`MAX_SHED_CONNECTIONS`]).
    fn shed(&mut self, stream: TcpStream, open: u64) {
        // Sheds occupy close-pipeline slots (flush + linger), bounded
        // separately from serving slots; past that bound the stream is
        // simply dropped.
        let draining = self.conns.len() - self.open_count();
        if draining >= MAX_SHED_CONNECTIONS {
            return;
        }
        let _ = stream.set_nodelay(true);
        let mut conn = Conn::new(stream);
        conn.admitted = false;
        let snapshot = self.shared.server.queue_snapshot();
        conn.queue_frame(&Frame::Rejected(RejectReply {
            request_id: NO_REQUEST_ID,
            scope: reject_scope::CONNECTIONS,
            queued: open,
            capacity: self.shared.options.max_connections as u64,
            // Slot availability is not predicted by the queue drain
            // rate, so the hint is floored at a polite back-off rather
            // than the near-zero an empty queue would suggest.
            retry_after_ms: snapshot.retry_after_ms().max(CONNECTIONS_RETRY_AFTER_MS),
            drain_rate_mips: drain_rate_mips(&snapshot),
        }));
        conn.begin_drain();
        self.install(conn);
    }

    /// Installs an admitted (reservation-holding) connection on this
    /// shard.
    fn admit(&mut self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        let conn = Conn::new(stream);
        if self.install(conn) {
            self.counters()
                .open_connections
                .store(self.open_count(), Ordering::Relaxed);
        } else {
            // The poller refused the descriptor: the connection was
            // dropped, release its reservation.
            self.shared.open_total.fetch_sub(1, Ordering::AcqRel);
        }
    }

    /// Registers a connection with the poller and the table; returns
    /// `false` (dropping the connection) if the poller refuses it.
    fn install(&mut self, conn: Conn) -> bool {
        let token = self.next_token;
        self.next_token += 1;
        let fd = conn.stream.as_raw_fd();
        if self
            .poller
            .register(fd, token, Interest::READ_WRITE)
            .is_err()
        {
            return false;
        }
        self.conns.insert(token, conn);
        self.flush(token);
        true
    }

    /// Admits connections handed over by the accepting shard.  During a
    /// shutdown the handoff is refused and the acceptor-made reservation
    /// released (the acceptor itself has already stopped accepting; this
    /// only catches sockets in flight at the instant of shutdown).
    fn drain_handoffs(&mut self, draining: bool) {
        while let Ok(stream) = self.handoff_rx.try_recv() {
            if draining {
                self.shared.open_total.fetch_sub(1, Ordering::AcqRel);
                continue;
            }
            self.admit(stream);
        }
    }

    /// Admitted (non-shed) connections currently owned by this shard.
    fn open_count(&self) -> usize {
        self.conns
            .values()
            .filter(|c| c.state == ConnState::Open)
            .count()
    }

    /// Non-blocking read burst followed by frame processing.
    fn read_ready(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let was_open = conn.state == ConnState::Open;
        let outcome = conn.read_step(self.shared.options.read_burst);
        let refire = outcome.truncated || conn.take_fault_blocked();
        if outcome.dead {
            self.close(token);
            return;
        }
        if refire {
            self.hot.insert(token);
        }
        if was_open {
            self.process_rbuf(token);
        }
    }

    /// Decodes and serves every complete request buffered for `token`.
    fn process_rbuf(&mut self, token: u64) {
        // Disjoint field borrows: the connection map and the pending map
        // are used simultaneously below.
        let Reactor {
            shared,
            shard,
            conns,
            pending,
            next_tag,
            sink,
            ..
        } = self;
        let counters = &shared.shards[*shard];
        let Some(conn) = conns.get_mut(&token) else {
            return;
        };
        while conn.state == ConnState::Open {
            match probe_plaintext(&conn.rbuf) {
                PlaintextProbe::Stats { consumed } => {
                    conn.rbuf.drain(..consumed);
                    counters.stats_requests.fetch_add(1, Ordering::Relaxed);
                    // One-shot scrape, `nc`-style: raw text (no framing),
                    // then close.
                    conn.wbuf
                        .extend_from_slice(render_stats(shared, stats_format::TEXT).as_bytes());
                    retire_and_drain(shared, conn);
                    break;
                }
                PlaintextProbe::Traces { consumed } => {
                    conn.rbuf.drain(..consumed);
                    counters.stats_requests.fetch_add(1, Ordering::Relaxed);
                    // One-shot JSONL trace dump, also `nc`-style; draining
                    // is destructive, so each scrape returns fresh traces.
                    conn.wbuf
                        .extend_from_slice(render_stats(shared, stats_format::TRACES).as_bytes());
                    retire_and_drain(shared, conn);
                    break;
                }
                PlaintextProbe::NeedMore => break,
                PlaintextProbe::NotStats => {}
            }
            match Frame::decode(&conn.rbuf) {
                Ok(Some((frame, used))) => {
                    conn.rbuf.drain(..used);
                    handle_frame(
                        shared, counters, conn, pending, next_tag, sink, token, frame,
                    );
                    conn.last_activity = Instant::now();
                }
                Ok(None) => break,
                Err(err) => {
                    counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    conn.queue_frame(&Frame::Error(ErrorReply {
                        request_id: NO_REQUEST_ID,
                        code: error_code::PROTOCOL,
                        message: err.to_string(),
                    }));
                    conn.rbuf.clear();
                    retire_and_drain(shared, conn);
                    break;
                }
            }
        }
        self.flush(token);
    }

    /// Hands every settled inference back to its connection, in completion
    /// order.
    fn drain_completions(&mut self) {
        while let Ok(completion) = self.completions.try_recv() {
            let Some(origin) = self.pending.remove(&completion.tag) else {
                continue;
            };
            let Some(conn) = self.conns.get_mut(&origin.token) else {
                // The connection died while its inference ran; the result
                // has no reader.
                continue;
            };
            conn.in_flight -= 1;
            conn.last_activity = Instant::now();
            let frame = match completion.result {
                Ok(report) => Frame::Scores(ScoreReply {
                    request_id: origin.request_id,
                    prediction: report.prediction as u32,
                    time_steps: report.time_steps as u32,
                    thread_budget: report.thread_budget as u32,
                    total_cycles: report.total_cycles(),
                    logits: report.logits,
                }),
                // A deadline shed is backpressure, not failure: the reply
                // is a REJECTED frame (scope = deadline) quoting the live
                // queue, so clients retry it exactly like a queue-full.
                Err(AccelError::DeadlineExceeded { .. }) => {
                    let snapshot = self.shared.server.queue_snapshot();
                    Frame::Rejected(RejectReply {
                        request_id: origin.request_id,
                        scope: reject_scope::DEADLINE,
                        queued: snapshot.depth as u64,
                        capacity: snapshot.capacity as u64,
                        retry_after_ms: snapshot.retry_after_ms().max(1),
                        drain_rate_mips: drain_rate_mips(&snapshot),
                    })
                }
                Err(err) => error_reply(origin.request_id, &err),
            };
            conn.queue_frame(&frame);
            // Mark where this reply's last byte sits in the write queue so
            // flush_step can measure its residency — the WriteStall span of
            // the trace keyed by the submission tag.
            if self.shared.server.recorder().enabled() {
                conn.reply_marks.push_back((
                    conn.flushed_total + conn.wbuf.len() as u64,
                    Instant::now(),
                    completion.tag,
                ));
            }
            self.flush(origin.token);
        }
    }

    /// Writes as much queued reply data as the kernel accepts, then
    /// forwards any write-stall samples the flush produced to the span
    /// recorder (amending the already-published traces).
    fn flush(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let dead = conn.flush_step();
        // An injected EWOULDBLOCK left flushable bytes with no writable
        // edge coming: treat the connection as hot so the next iteration
        // retries the flush.
        let refire = conn.take_fault_blocked() && !conn.wbuf.is_empty();
        let samples = std::mem::take(&mut conn.stall_samples);
        if !samples.is_empty() {
            let recorder = self.shared.server.recorder();
            for (request_id, seconds) in samples {
                recorder.record_write_stall(request_id, seconds);
            }
        }
        if dead {
            self.close(token);
            return;
        }
        if refire {
            self.hot.insert(token);
        }
    }

    /// Deadline enforcement: idle Open connections, stalled readers,
    /// expired drains and lingers.
    fn sweep(&mut self) {
        let now = Instant::now();
        let idle = self.shared.options.idle_timeout;
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, conn)| {
                // A reader whose kernel buffer has refused every byte for
                // the whole stall window is gone, whatever the state.
                let stalled = conn
                    .stalled_since
                    .is_some_and(|since| now.duration_since(since) >= WRITE_STALL_TIMEOUT);
                stalled
                    || match conn.state {
                        ConnState::Open => {
                            let idle_out = conn.in_flight == 0
                                && conn.wbuf.is_empty()
                                && now.duration_since(conn.last_activity) >= idle;
                            // A peer that half-closed and has nothing in
                            // flight or unflushed is simply finished.
                            let finished =
                                conn.peer_eof && conn.in_flight == 0 && conn.wbuf.is_empty();
                            idle_out || finished
                        }
                        ConnState::Draining | ConnState::Linger => {
                            conn.deadline.is_some_and(|deadline| now >= deadline)
                        }
                    }
            })
            .map(|(&token, _)| token)
            .collect();
        for token in expired {
            self.close(token);
        }
    }

    fn close(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            // A connection closed while still serving releases its
            // admission reservation here (drained ones released it in
            // `retire_and_drain`).
            if conn.state == ConnState::Open && conn.admitted {
                self.shared.open_total.fetch_sub(1, Ordering::AcqRel);
            }
            self.poller.deregister(conn.stream.as_raw_fd());
            self.hot.remove(&token);
            self.counters()
                .open_connections
                .store(self.open_count(), Ordering::Relaxed);
        }
        // Stale `pending` entries for this token self-clean: their
        // completions arrive, find no connection, and are dropped.
    }
}

/// Serves one decoded client frame (reads already done, writes queued).
#[allow(clippy::too_many_arguments)]
fn handle_frame(
    shared: &NetShared,
    counters: &ShardCounters,
    conn: &mut Conn,
    pending: &mut HashMap<u64, Pending>,
    next_tag: &mut u64,
    sink: &CompletionSink,
    token: u64,
    frame: Frame,
) {
    match frame {
        Frame::Infer(request) => {
            counters.requests.fetch_add(1, Ordering::Relaxed);
            let request_id = request.request_id;
            let deadline = request
                .deadline_ms
                .map(|ms| Duration::from_millis(u64::from(ms)));
            let tensor = match request.into_tensor() {
                Ok(tensor) => tensor,
                Err(err) => {
                    conn.queue_frame(&Frame::Error(ErrorReply {
                        request_id,
                        code: error_code::BAD_REQUEST,
                        message: err.to_string(),
                    }));
                    return;
                }
            };
            let tag = *next_tag;
            // Shard-strided: tags stay globally unique across shards.
            *next_tag += shared.reactors as u64;
            match shared
                .server
                .submit_tagged_within(tensor, tag, sink, deadline)
            {
                Ok(()) => {
                    pending.insert(tag, Pending { token, request_id });
                    conn.in_flight += 1;
                }
                Err(AccelError::QueueFull { queued, capacity }) => {
                    let snapshot = shared.server.queue_snapshot();
                    conn.queue_frame(&Frame::Rejected(RejectReply {
                        request_id,
                        scope: reject_scope::QUEUE,
                        queued: queued as u64,
                        capacity: capacity as u64,
                        retry_after_ms: snapshot.retry_after_ms().max(1),
                        drain_rate_mips: drain_rate_mips(&snapshot),
                    }));
                }
                Err(err) => {
                    let reply = error_reply(request_id, &err);
                    let shutting_down = matches!(
                        &reply,
                        Frame::Error(ErrorReply { code, .. }) if *code == error_code::SHUTTING_DOWN
                    );
                    conn.queue_frame(&reply);
                    if shutting_down {
                        retire_and_drain(shared, conn);
                    }
                }
            }
        }
        Frame::StatsRequest { format } => {
            counters.stats_requests.fetch_add(1, Ordering::Relaxed);
            conn.queue_frame(&Frame::StatsText(render_stats(shared, format)));
        }
        // Server-bound traffic may only be requests.
        Frame::Scores(_) | Frame::Rejected(_) | Frame::Error(_) | Frame::StatsText(_) => {
            counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
            conn.queue_frame(&Frame::Error(ErrorReply {
                request_id: NO_REQUEST_ID,
                code: error_code::PROTOCOL,
                message: "unexpected server-bound frame".to_string(),
            }));
            retire_and_drain(shared, conn);
        }
    }
}

fn drain_rate_mips(snapshot: &QueueSnapshot) -> u64 {
    (snapshot.drain_rate_ips * 1000.0).round().max(0.0) as u64
}

fn error_reply(request_id: u64, err: &AccelError) -> Frame {
    let code = match err {
        AccelError::Serving { .. } => error_code::SHUTTING_DOWN,
        // The engine panicked on this one request; the panic was isolated
        // inside the dispatcher and the server keeps serving — the code
        // tells the client the input is poison, not the server.
        AccelError::EnginePanic { .. } => error_code::ENGINE_PANIC,
        // The engine died before serving this request; the server will
        // refuse everything after it with SHUTTING_DOWN.
        AccelError::ReplicaDown { .. } => error_code::REPLICA_DOWN,
        _ => error_code::BAD_REQUEST,
    };
    Frame::Error(ErrorReply {
        request_id,
        code,
        message: err.to_string(),
    })
}

/// Renders the serving counters in the negotiated [`stats_format`] — the
/// body of the framed STATS reply; the plaintext form also answers the
/// `nc`-style `STATS` line and the traces form the `TRACES` line.
fn render_stats(shared: &NetShared, format: u8) -> String {
    match format {
        stats_format::PROMETHEUS => render_stats_prometheus(shared),
        // Destructive drain of the completed-trace ring, one JSON object
        // per line.
        stats_format::TRACES => shared.server.recorder().render_jsonl(),
        _ => render_stats_text(shared),
    }
}

fn render_stats_text(shared: &NetShared) -> String {
    let server = shared.server.stats();
    let per_reactor = per_reactor_stats(shared);
    let reactors_alive = per_reactor.iter().filter(|r| r.alive).count();
    let mut out = String::new();
    out.push_str(&format!(
        "snn_net_protocol_version: {}\n",
        crate::protocol::VERSION
    ));
    out.push_str(&format!("completed: {}\n", server.completed));
    out.push_str(&format!("errors: {}\n", server.errors));
    out.push_str(&format!("panics: {}\n", server.panics));
    out.push_str(&format!("rejected: {}\n", server.rejected));
    out.push_str(&format!("deadline_sheds: {}\n", server.deadline_sheds));
    out.push_str(&format!(
        "reactor_alive: {}\n",
        u8::from(reactors_alive == shared.reactors)
    ));
    out.push_str(&format!("reactors: {}\n", shared.reactors));
    out.push_str(&format!("reactors_alive: {reactors_alive}\n"));
    out.push_str(&format!("batches: {}\n", server.batches));
    out.push_str(&format!("largest_batch: {}\n", server.largest_batch));
    out.push_str(&format!("queue_depth: {}\n", server.queue.depth));
    out.push_str(&format!("queue_capacity: {}\n", server.queue.capacity));
    out.push_str(&format!(
        "drain_rate_ips: {:.3}\n",
        server.queue.drain_rate_ips
    ));
    out.push_str(&format!("throughput_ips: {:.3}\n", server.throughput_ips()));
    out.push_str(&format!("thread_budget: {}\n", server.thread_budget));
    out.push_str(&format!(
        "connections_accepted: {}\n",
        per_reactor.iter().map(|r| r.accepted).sum::<u64>()
    ));
    out.push_str(&format!(
        "connections_turned_away: {}\n",
        per_reactor.iter().map(|r| r.turned_away).sum::<u64>()
    ));
    out.push_str(&format!(
        "connections_open: {}\n",
        per_reactor.iter().map(|r| r.open_connections).sum::<u64>()
    ));
    out.push_str(&format!(
        "connections_max: {}\n",
        shared.options.max_connections
    ));
    out.push_str(&format!(
        "requests: {}\n",
        per_reactor.iter().map(|r| r.requests).sum::<u64>()
    ));
    out.push_str(&format!(
        "protocol_errors: {}\n",
        per_reactor.iter().map(|r| r.protocol_errors).sum::<u64>()
    ));
    out.push_str(&format!(
        "stats_requests: {}\n",
        per_reactor.iter().map(|r| r.stats_requests).sum::<u64>()
    ));
    let recorder = shared.server.recorder();
    out.push_str(&format!("trace_open_spans: {}\n", recorder.open_spans()));
    for (key, histogram) in [
        (
            "request_queue_wait_seconds",
            recorder.queue_wait_histogram(),
        ),
        ("request_compute_seconds", recorder.compute_histogram()),
        ("request_duration_seconds", recorder.duration_histogram()),
        (
            "reactor_write_stall_seconds",
            recorder.write_stall_histogram(),
        ),
    ] {
        out.push_str(&format!("{key}_count: {}\n", histogram.count()));
        out.push_str(&format!("{key}_sum: {}\n", histogram.sum()));
    }
    for reactor in &per_reactor {
        out.push_str(&format!(
            "reactor[{}]: shard_alive={} connections={} accepted={} \
             turned_away={} handoffs={} requests={} protocol_errors={} stats_requests={}\n",
            reactor.index,
            u8::from(reactor.alive),
            reactor.open_connections,
            reactor.accepted,
            reactor.turned_away,
            reactor.handoffs,
            reactor.requests,
            reactor.protocol_errors,
            reactor.stats_requests,
        ));
    }
    for unit in &server.utilisation {
        out.push_str(&format!(
            "unit[{:?}]: units={} busy_cycles={} total_cycles={} utilisation={:.4}\n",
            unit.kind,
            unit.units,
            unit.busy_cycles,
            unit.total_cycles,
            unit.utilisation()
        ));
    }
    out
}

/// Prometheus exposition: `# TYPE` metadata plus `snn_`-prefixed metric
/// names, one sample per line — directly scrapeable.
fn render_stats_prometheus(shared: &NetShared) -> String {
    let server = shared.server.stats();
    let per_reactor = per_reactor_stats(shared);
    let reactors_alive = per_reactor.iter().filter(|r| r.alive).count();
    let mut out = String::new();
    let mut metric = |name: &str, kind: &str, value: String| {
        out.push_str(&format!("# TYPE {name} {kind}\n{name} {value}\n"));
    };
    metric(
        "snn_net_protocol_version",
        "gauge",
        crate::protocol::VERSION.to_string(),
    );
    metric(
        "snn_completed_total",
        "counter",
        server.completed.to_string(),
    );
    metric("snn_errors_total", "counter", server.errors.to_string());
    metric("snn_panics_total", "counter", server.panics.to_string());
    metric("snn_rejected_total", "counter", server.rejected.to_string());
    metric(
        "snn_deadline_sheds_total",
        "counter",
        server.deadline_sheds.to_string(),
    );
    metric(
        "snn_reactor_alive",
        "gauge",
        u8::from(reactors_alive == shared.reactors).to_string(),
    );
    metric("snn_reactors", "gauge", shared.reactors.to_string());
    metric("snn_reactors_alive", "gauge", reactors_alive.to_string());
    metric("snn_batches_total", "counter", server.batches.to_string());
    metric(
        "snn_largest_batch",
        "gauge",
        server.largest_batch.to_string(),
    );
    metric("snn_queue_depth", "gauge", server.queue.depth.to_string());
    metric(
        "snn_queue_capacity",
        "gauge",
        server.queue.capacity.to_string(),
    );
    metric(
        "snn_drain_rate_ips",
        "gauge",
        format!("{:.3}", server.queue.drain_rate_ips),
    );
    metric(
        "snn_throughput_ips",
        "gauge",
        format!("{:.3}", server.throughput_ips()),
    );
    metric(
        "snn_thread_budget",
        "gauge",
        server.thread_budget.to_string(),
    );
    metric(
        "snn_connections_accepted_total",
        "counter",
        per_reactor
            .iter()
            .map(|r| r.accepted)
            .sum::<u64>()
            .to_string(),
    );
    metric(
        "snn_connections_turned_away_total",
        "counter",
        per_reactor
            .iter()
            .map(|r| r.turned_away)
            .sum::<u64>()
            .to_string(),
    );
    metric(
        "snn_connections_open",
        "gauge",
        per_reactor
            .iter()
            .map(|r| r.open_connections)
            .sum::<u64>()
            .to_string(),
    );
    metric(
        "snn_connections_max",
        "gauge",
        shared.options.max_connections.to_string(),
    );
    metric(
        "snn_requests_total",
        "counter",
        per_reactor
            .iter()
            .map(|r| r.requests)
            .sum::<u64>()
            .to_string(),
    );
    metric(
        "snn_protocol_errors_total",
        "counter",
        per_reactor
            .iter()
            .map(|r| r.protocol_errors)
            .sum::<u64>()
            .to_string(),
    );
    metric(
        "snn_stats_requests_total",
        "counter",
        per_reactor
            .iter()
            .map(|r| r.stats_requests)
            .sum::<u64>()
            .to_string(),
    );
    metric(
        "snn_trace_open_spans",
        "gauge",
        shared.server.recorder().open_spans().to_string(),
    );
    // Per-reactor shard series: which shard is hot, dead, or unbalanced.
    for (name, kind, pick) in [
        (
            "snn_reactor_shard_alive",
            "gauge",
            Box::new(|r: &ReactorStats| u8::from(r.alive).to_string())
                as Box<dyn Fn(&ReactorStats) -> String>,
        ),
        (
            "snn_reactor_connections",
            "gauge",
            Box::new(|r| r.open_connections.to_string()),
        ),
        (
            "snn_reactor_accepted_total",
            "counter",
            Box::new(|r| r.accepted.to_string()),
        ),
        (
            "snn_reactor_turned_away_total",
            "counter",
            Box::new(|r| r.turned_away.to_string()),
        ),
        (
            "snn_reactor_handoffs_total",
            "counter",
            Box::new(|r| r.handoffs.to_string()),
        ),
        (
            "snn_reactor_requests_total",
            "counter",
            Box::new(|r| r.requests.to_string()),
        ),
        (
            "snn_reactor_protocol_errors_total",
            "counter",
            Box::new(|r| r.protocol_errors.to_string()),
        ),
        (
            "snn_reactor_stats_requests_total",
            "counter",
            Box::new(|r| r.stats_requests.to_string()),
        ),
    ] {
        out.push_str(&format!("# TYPE {name} {kind}\n"));
        for reactor in &per_reactor {
            out.push_str(&format!(
                "{name}{{reactor=\"{}\"}} {}\n",
                reactor.index,
                pick(reactor)
            ));
        }
    }
    for (name, kind, pick) in [
        (
            "snn_unit_count",
            "gauge",
            Box::new(|u: &snn_accel::report::UnitUtilisation| u.units.to_string())
                as Box<dyn Fn(&snn_accel::report::UnitUtilisation) -> String>,
        ),
        (
            "snn_unit_busy_cycles",
            "gauge",
            Box::new(|u| u.busy_cycles.to_string()),
        ),
        (
            "snn_unit_total_cycles",
            "gauge",
            Box::new(|u| u.total_cycles.to_string()),
        ),
        (
            "snn_unit_utilisation",
            "gauge",
            Box::new(|u| format!("{:.4}", u.utilisation())),
        ),
    ] {
        out.push_str(&format!("# TYPE {name} {kind}\n"));
        for unit in &server.utilisation {
            out.push_str(&format!(
                "{name}{{unit=\"{:?}\"}} {}\n",
                unit.kind,
                pick(unit)
            ));
        }
    }
    // Per-request latency histograms (queue wait, compute, end-to-end
    // duration, reactor write-stall) from the span recorder.
    shared.server.recorder().render_prometheus_into(&mut out);
    out
}
