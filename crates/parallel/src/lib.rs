//! # snn-parallel
//!
//! A persistent worker pool with a global thread budget, used to
//! parallelize output channels inside the processing-unit simulators and
//! batches of inferences in the top-level simulator.
//!
//! The container this workspace builds in has no registry access, so rayon
//! cannot be used.  Earlier revisions spawned scoped threads on every
//! `par_map`/`par_chunks_mut` call, which meant nested parallelism (a batch
//! of inferences, each parallelizing its convolution channels) multiplied
//! thread counts and oversubscribed many-core hosts.  This revision fixes
//! that structurally:
//!
//! * **[`ThreadBudget`]** — one process-global budget (see [`budget`])
//!   decides how many threads the whole simulator may keep busy.  It is
//!   read once from the `SNN_THREADS` environment variable, falling back to
//!   the machine's available parallelism with a floor of two (on a
//!   single-core host, splitting data-parallel loops in two measured
//!   slightly faster than the old per-call scoped spawns in
//!   `BENCH_conv.json`).
//! * **Persistent worker pool** — `total - 1` workers are spawned lazily on
//!   first use and live for the rest of the process.  [`par_map`] and
//!   [`par_chunks_mut`] split their input into blocks and submit them as
//!   pool tasks via [`run_tasks`]; the calling thread *helps* by executing
//!   queued tasks while it waits, so pool-side compute concurrency never
//!   exceeds the budget no matter how deeply calls nest — a batch worker
//!   that fans out over channels draws from the same queue it runs on.
//! * **IO leases** — long-lived IO-bound threads (the `snn-net` reactor,
//!   which parks in `poll(2)` over every connection; serving dispatchers)
//!   spend their life blocked on descriptors and only *submit* compute
//!   through the serving queue, so they do not consume the compute budget;
//!   they reserve an [`IoLease`] instead, bounded at [`IO_LEASE_FACTOR`]
//!   leases per budgeted thread.  Since the front-end moved to a
//!   single-reactor design, connections are **state, not threads** — a
//!   whole `NetServer` holds one lease, and connection counts are bounded
//!   by its own `max_connections`, not by this cap.
//!
//! Work is always split into contiguous blocks, so results land exactly
//! where a sequential loop would put them and outputs are deterministic
//! regardless of the number of workers.
//!
//! A task that panics does not poison the pool: the panic is caught in the
//! worker, carried back to the submitting call, and resumed there.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;

/// Upper bound on pool worker threads, keeping memory overhead bounded for
/// the small layer workloads the simulator runs.
pub const MAX_THREADS: usize = 16;

/// Rough number of inner-loop operations below which splitting work into
/// pool tasks costs more than it saves; callers gate their `threads`
/// argument on a work estimate against this (shared so the processing
/// units stay in sync — the dense/sparse gather threshold is calibrated
/// the same way via `AcceleratorConfig`).
pub const MIN_PARALLEL_WORK: u64 = 1 << 15;

/// Environment variable that pins the global thread budget (clamped to
/// `1..=MAX_THREADS`), read once at first use.
pub const THREADS_ENV: &str = "SNN_THREADS";

/// How many **IO-bound** threads may be leased per budgeted compute thread
/// (see [`ThreadBudget::try_lease_io_threads`]).  IO threads spend almost
/// all of their life blocked on descriptors, so they can outnumber the
/// compute budget without oversubscribing cores — the factor only bounds
/// thread-stack usage to a fixed multiple of the budget.  The expected
/// population is small and fixed: one reactor per network front-end plus
/// one dispatcher per serving instance, not one thread per connection.
pub const IO_LEASE_FACTOR: usize = 4;

// ---------------------------------------------------------------------------
// Thread budget
// ---------------------------------------------------------------------------

/// The process-global thread budget: how many threads the simulator's
/// worker pool may keep busy in total, plus the IO-thread leases drawn
/// against it.
#[derive(Debug)]
pub struct ThreadBudget {
    total: usize,
    io_leases: AtomicUsize,
}

impl ThreadBudget {
    /// Creates a budget of `total` threads (clamped to `1..=MAX_THREADS`).
    ///
    /// Intended for tests; production code uses the global [`budget`].
    pub fn new(total: usize) -> Self {
        ThreadBudget {
            total: total.clamp(1, MAX_THREADS),
            io_leases: AtomicUsize::new(0),
        }
    }

    fn from_env() -> Self {
        let total = match std::env::var(THREADS_ENV) {
            Ok(v) => v.trim().parse::<usize>().unwrap_or(0),
            Err(_) => 0,
        };
        if total > 0 {
            return ThreadBudget::new(total);
        }
        let cores = thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1);
        // Floor of two: single-core hosts split data-parallel loops in
        // two, which measured slightly *faster* on a 1-core host than the
        // old per-call scoped spawns (BENCH_conv.json).  `SNN_THREADS=1`
        // restores strictly sequential execution.
        ThreadBudget::new(cores.max(2))
    }

    /// Total number of threads this budget allows.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Number of IO-thread leases currently outstanding.
    pub fn io_leases_in_flight(&self) -> usize {
        self.io_leases.load(Ordering::Acquire)
    }

    /// Maximum number of IO threads this budget leases at once
    /// ([`IO_LEASE_FACTOR`] per budgeted thread).
    pub fn io_lease_cap(&self) -> usize {
        self.total.saturating_mul(IO_LEASE_FACTOR)
    }

    /// Tries to reserve `want` threads for **IO-bound** work — e.g. a
    /// network reactor that parks in `poll(2)` over every connection and
    /// only *submits* compute through the bounded serving queue.
    ///
    /// IO threads do not draw down the compute budget (they are parked in
    /// the kernel while the pool works), but they are still bounded — at
    /// most [`ThreadBudget::io_lease_cap`] leases exist at any time.
    /// Grants all-or-nothing; `None` means the host already runs more
    /// event loops than it has any use for, and the caller should degrade
    /// (run leaseless or refuse to start) rather than spawn anyway.
    pub fn try_lease_io_threads(&self, want: usize) -> Option<IoLease<'_>> {
        if !try_reserve(&self.io_leases, self.io_lease_cap(), want) {
            return None;
        }
        Some(IoLease {
            budget: self,
            threads: want,
        })
    }
}

/// All-or-nothing CAS reservation of `want` slots under `cap` outstanding.
fn try_reserve(counter: &AtomicUsize, cap: usize, want: usize) -> bool {
    if want == 0 || cap == 0 {
        return false;
    }
    let mut current = counter.load(Ordering::Acquire);
    loop {
        if current + want > cap {
            return false;
        }
        match counter.compare_exchange_weak(
            current,
            current + want,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => return true,
            Err(observed) => current = observed,
        }
    }
}

/// A reservation of IO-bound threads (e.g. network connection workers),
/// returned to the budget on drop.
#[derive(Debug)]
pub struct IoLease<'a> {
    budget: &'a ThreadBudget,
    threads: usize,
}

impl IoLease<'_> {
    /// Number of IO threads this lease grants.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl Drop for IoLease<'_> {
    fn drop(&mut self) {
        self.budget
            .io_leases
            .fetch_sub(self.threads, Ordering::AcqRel);
    }
}

/// The process-global [`ThreadBudget`], initialized on first use from
/// [`THREADS_ENV`] or the machine's available parallelism.
pub fn budget() -> &'static ThreadBudget {
    static BUDGET: OnceLock<ThreadBudget> = OnceLock::new();
    BUDGET.get_or_init(ThreadBudget::from_env)
}

/// Number of worker threads to use by default: the global budget's total.
///
/// Retained for compatibility with earlier revisions; prefer
/// [`budget`]`.total()` in new code.
pub fn default_threads() -> usize {
    budget().total()
}

/// Runs `f` under `catch_unwind` and converts a panic into an `Err`
/// carrying the panic payload's message — the isolation primitive a
/// supervisor uses to fail *one* unit of work instead of unwinding into
/// its own loop.
///
/// [`run_tasks`] deliberately re-raises task panics on the caller so
/// library misuse stays loud; a serving dispatcher that must survive a
/// poisoned input wraps the per-item body in `catch_panic_message` and
/// maps the message to a typed error instead.  `&str` and `String`
/// payloads (everything `panic!` produces) are extracted verbatim; other
/// payload types degrade to a placeholder.
pub fn catch_panic_message<T, F>(f: F) -> Result<T, String>
where
    F: FnOnce() -> T,
{
    panic::catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        if let Some(message) = payload.downcast_ref::<&str>() {
            (*message).to_string()
        } else if let Some(message) = payload.downcast_ref::<String>() {
            message.clone()
        } else {
            "panic payload of non-string type".to_string()
        }
    })
}

// ---------------------------------------------------------------------------
// Persistent worker pool
// ---------------------------------------------------------------------------

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A borrowed unit of work accepted by [`run_tasks`].
pub type Task<'env> = Box<dyn FnOnce() + Send + 'env>;

struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    job_ready: Condvar,
}

fn pool() -> &'static PoolShared {
    static POOL: OnceLock<&'static PoolShared> = OnceLock::new();
    POOL.get_or_init(|| {
        let shared: &'static PoolShared = Box::leak(Box::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            job_ready: Condvar::new(),
        }));
        // The submitting thread always helps, so `total - 1` workers give a
        // total compute concurrency equal to the budget.
        for index in 0..budget().total().saturating_sub(1) {
            thread::Builder::new()
                .name(format!("snn-pool-{index}"))
                .spawn(move || worker_loop(shared))
                .expect("spawn pool worker");
        }
        shared
    })
}

fn worker_loop(shared: &'static PoolShared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("pool queue lock");
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = shared.job_ready.wait(queue).expect("pool queue wait");
            }
        };
        // Jobs are wrapped in `catch_unwind` at submission, so this call
        // never unwinds into the worker loop.
        job();
    }
}

struct ScopeState {
    remaining: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl ScopeState {
    fn new(tasks: usize) -> Self {
        ScopeState {
            remaining: Mutex::new(tasks),
            done: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    fn finished(&self) -> bool {
        *self.remaining.lock().expect("scope lock") == 0
    }

    fn finish_one(&self) {
        let mut remaining = self.remaining.lock().expect("scope lock");
        *remaining -= 1;
        if *remaining == 0 {
            self.done.notify_all();
        }
    }

    fn wait_finished(&self) {
        let mut remaining = self.remaining.lock().expect("scope lock");
        while *remaining > 0 {
            remaining = self.done.wait(remaining).expect("scope wait");
        }
    }

    fn record_panic(&self, payload: Box<dyn std::any::Any + Send>) {
        let mut slot = self.panic.lock().expect("scope panic lock");
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    fn resume_panic(&self) {
        if let Some(payload) = self.panic.lock().expect("scope panic lock").take() {
            panic::resume_unwind(payload);
        }
    }
}

/// Erases the borrow lifetime of a task so it can sit in the pool's
/// `'static` job queue.
///
/// SAFETY: sound only because [`run_tasks`] does not return until every
/// submitted task has finished executing (the scope latch counts each
/// wrapper down, including panicking ones), so no borrow held by the task
/// is ever observable after it expires.  The transmute changes nothing but
/// the lifetime parameter of the trait object.
#[allow(unsafe_code)]
fn erase_lifetime<'env>(task: Task<'env>) -> Job {
    unsafe { std::mem::transmute::<Task<'env>, Job>(task) }
}

/// Runs a set of independent tasks on the shared worker pool and returns
/// when all of them have finished.
///
/// The calling thread participates: while its tasks are pending it executes
/// queued tasks itself (its own or other callers'), so concurrency stays
/// within the global [`ThreadBudget`] even when `run_tasks` calls nest —
/// e.g. a batch task that fans out over output channels.  Tasks must not
/// block on anything except their own nested `run_tasks` calls.
///
/// If a task panics, the panic is re-raised on the calling thread after all
/// tasks of this call have settled.
pub fn run_tasks(tasks: Vec<Task<'_>>) {
    if tasks.is_empty() {
        return;
    }
    if tasks.len() == 1 || budget().total() == 1 {
        for task in tasks {
            task();
        }
        return;
    }
    let scope = Arc::new(ScopeState::new(tasks.len()));
    let shared = pool();
    {
        let mut queue = shared.queue.lock().expect("pool queue lock");
        for task in tasks {
            let job = erase_lifetime(task);
            let scope = Arc::clone(&scope);
            queue.push_back(Box::new(move || {
                if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(job)) {
                    scope.record_panic(payload);
                }
                scope.finish_one();
            }));
        }
    }
    shared.job_ready.notify_all();
    // Help while waiting: execute queued jobs until this scope completes.
    // When the queue is momentarily empty, the remaining tasks of this
    // scope are running on other threads, so blocking on the latch is safe.
    loop {
        if scope.finished() {
            break;
        }
        let job = shared.queue.lock().expect("pool queue lock").pop_front();
        match job {
            Some(job) => job(),
            None => scope.wait_finished(),
        }
    }
    scope.resume_panic();
}

// ---------------------------------------------------------------------------
// Data-parallel helpers
// ---------------------------------------------------------------------------

/// Splits `len` items into at most `threads` contiguous block ranges of
/// near-equal size.  Returns `(start, end)` pairs covering `0..len`.
pub fn block_ranges(len: usize, threads: usize) -> Vec<(usize, usize)> {
    let workers = threads.clamp(1, len.max(1));
    let base = len / workers;
    let extra = len % workers;
    let mut ranges = Vec::with_capacity(workers);
    let mut start = 0;
    for worker in 0..workers {
        let size = base + usize::from(worker < extra);
        if size == 0 {
            break;
        }
        ranges.push((start, start + size));
        start += size;
    }
    ranges
}

/// Maps `f` over `items` in up to `threads` contiguous blocks submitted to
/// the shared worker pool, preserving input order in the output.
///
/// With one block (or one item) this degrades to a plain sequential map,
/// so callers can gate parallelism on a work estimate without duplicating
/// the loop body.
pub fn par_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let ranges = block_ranges(items.len(), threads);
    if ranges.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let mut results: Vec<Option<U>> = (0..items.len()).map(|_| None).collect();
    {
        let f = &f;
        let mut tasks: Vec<Task<'_>> = Vec::with_capacity(ranges.len());
        // Ranges are contiguous from zero, so the result buffer can be
        // peeled off block by block.
        let mut tail: &mut [Option<U>] = &mut results;
        for &(start, end) in &ranges {
            let (block, rest) = tail.split_at_mut(end - start);
            tail = rest;
            tasks.push(Box::new(move || {
                for (offset, slot) in block.iter_mut().enumerate() {
                    let index = start + offset;
                    *slot = Some(f(index, &items[index]));
                }
            }));
        }
        run_tasks(tasks);
    }
    results
        .into_iter()
        .map(|slot| slot.expect("worker filled every slot"))
        .collect()
}

/// Processes `data` as consecutive chunks of `chunk_len` elements, calling
/// `f(chunk_index, chunk)` for each, with chunk blocks distributed over up
/// to `threads` pool tasks.
///
/// The final chunk may be shorter when `chunk_len` does not divide
/// `data.len()`.  Chunks are disjoint, so the closure may freely mutate its
/// chunk; results are deterministic regardless of thread count.
///
/// # Panics
///
/// Panics if `chunk_len` is zero.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be non-zero");
    let chunk_count = data.len().div_ceil(chunk_len);
    let ranges = block_ranges(chunk_count, threads);
    if ranges.len() <= 1 {
        for (index, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(index, chunk);
        }
        return;
    }
    let f = &f;
    let mut tasks: Vec<Task<'_>> = Vec::with_capacity(ranges.len());
    let mut tail = data;
    for &(start, end) in &ranges {
        let block_elems = ((end - start) * chunk_len).min(tail.len());
        let (block, rest) = tail.split_at_mut(block_elems);
        tail = rest;
        tasks.push(Box::new(move || {
            for (offset, chunk) in block.chunks_mut(chunk_len).enumerate() {
                f(start + offset, chunk);
            }
        }));
    }
    run_tasks(tasks);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_ranges_cover_everything_in_order() {
        for len in 0..40 {
            for threads in 1..6 {
                let ranges = block_ranges(len, threads);
                let mut expected_start = 0;
                for &(start, end) in &ranges {
                    assert_eq!(start, expected_start);
                    assert!(end > start);
                    expected_start = end;
                }
                assert_eq!(expected_start, len);
            }
        }
    }

    #[test]
    fn par_map_matches_sequential_map() {
        let items: Vec<u64> = (0..101).collect();
        let sequential: Vec<u64> = items.iter().map(|v| v * v + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            let parallel = par_map(&items, threads, |_, v| v * v + 1);
            assert_eq!(parallel, sequential);
        }
    }

    #[test]
    fn par_map_passes_correct_indices() {
        let items = vec![(); 37];
        let indices = par_map(&items, 4, |i, _| i);
        assert_eq!(indices, (0..37).collect::<Vec<_>>());
    }

    #[test]
    fn par_chunks_mut_visits_every_chunk_once() {
        for (len, chunk_len) in [(96usize, 8usize), (97, 8), (5, 8), (64, 1)] {
            let mut data = vec![0u64; len];
            par_chunks_mut(&mut data, chunk_len, 4, |index, chunk| {
                for v in chunk.iter_mut() {
                    *v += 1 + index as u64;
                }
            });
            for (i, v) in data.iter().enumerate() {
                assert_eq!(*v, 1 + (i / chunk_len) as u64, "element {i}");
            }
        }
    }

    #[test]
    fn empty_inputs_are_fine() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, 4, |_, v| *v).is_empty());
        let mut none: Vec<u32> = Vec::new();
        par_chunks_mut(&mut none, 3, 4, |_, _| panic!("no chunks expected"));
    }

    #[test]
    fn default_threads_is_positive_and_capped() {
        let t = default_threads();
        assert!(t >= 1);
        assert!(t <= MAX_THREADS);
    }

    #[test]
    fn nested_par_map_draws_from_one_budget() {
        // A batch that fans out over channels: the inner calls run on the
        // same pool the outer call submitted to, so this must neither
        // deadlock nor produce wrong results.
        let batch: Vec<u64> = (0..8).collect();
        let result = par_map(&batch, 8, |_, &item| {
            let inner: Vec<u64> = (0..64).map(|c| item * 100 + c).collect();
            par_map(&inner, 8, |_, &v| v * 2).iter().sum::<u64>()
        });
        let expected: Vec<u64> = batch
            .iter()
            .map(|&item| (0..64u64).map(|c| (item * 100 + c) * 2).sum())
            .collect();
        assert_eq!(result, expected);
    }

    #[test]
    fn concurrent_scopes_from_many_threads_complete() {
        let handles: Vec<_> = (0..6)
            .map(|t| {
                thread::spawn(move || {
                    let items: Vec<u64> = (0..200).map(|i| i + t).collect();
                    let doubled = par_map(&items, 4, |_, v| v * 2);
                    assert_eq!(doubled[10], (10 + t) * 2);
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("scope thread");
        }
    }

    #[test]
    fn panics_propagate_to_the_caller_and_do_not_poison_the_pool() {
        let items: Vec<u32> = (0..50).collect();
        let result = panic::catch_unwind(|| {
            par_map(&items, 4, |_, &v| {
                if v == 33 {
                    panic!("boom at {v}");
                }
                v
            })
        });
        assert!(result.is_err());
        // The pool keeps working after a panicking scope.
        let ok = par_map(&items, 4, |_, &v| v + 1);
        assert_eq!(ok[49], 50);
    }

    #[test]
    fn catch_panic_message_extracts_str_and_string_payloads() {
        assert_eq!(catch_panic_message(|| 7), Ok(7));
        let literal = catch_panic_message::<(), _>(|| panic!("static boom"));
        assert_eq!(literal, Err("static boom".to_string()));
        let formatted = catch_panic_message::<(), _>(|| panic!("boom {}", 42));
        assert_eq!(formatted, Err("boom 42".to_string()));
        let odd = catch_panic_message::<(), _>(|| panic::panic_any(17u32));
        assert!(odd.unwrap_err().contains("non-string"));
    }

    #[test]
    fn io_leases_are_bounded_and_returned() {
        let budget = ThreadBudget::new(2);
        assert_eq!(budget.io_lease_cap(), 2 * IO_LEASE_FACTOR);
        let mut held = Vec::new();
        for _ in 0..budget.io_lease_cap() {
            held.push(budget.try_lease_io_threads(1).expect("io lease"));
        }
        assert_eq!(budget.io_leases_in_flight(), budget.io_lease_cap());
        assert!(budget.try_lease_io_threads(1).is_none());
        // Returning one lease frees exactly one slot.
        held.pop();
        assert!(budget.try_lease_io_threads(1).is_some());
        drop(held);
        assert_eq!(budget.io_leases_in_flight(), 0);
    }

    #[test]
    fn io_lease_requests_are_all_or_nothing() {
        let budget = ThreadBudget::new(1); // io cap = IO_LEASE_FACTOR
        assert!(budget.try_lease_io_threads(0).is_none());
        assert!(budget.try_lease_io_threads(IO_LEASE_FACTOR + 1).is_none());
        let wide = budget
            .try_lease_io_threads(IO_LEASE_FACTOR)
            .expect("full-width lease");
        assert_eq!(wide.threads(), IO_LEASE_FACTOR);
        assert!(budget.try_lease_io_threads(1).is_none());
    }

    #[test]
    fn budget_clamps_to_supported_range() {
        assert_eq!(ThreadBudget::new(0).total(), 1);
        assert_eq!(ThreadBudget::new(1000).total(), MAX_THREADS);
    }

    #[test]
    fn global_budget_has_a_floor_of_two() {
        // Unless `SNN_THREADS` pins it lower, the global budget splits
        // data-parallel loops in two even on a single-core host.
        if std::env::var(THREADS_ENV).is_err() {
            assert!(budget().total() >= 2);
        }
    }
}
