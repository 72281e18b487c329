//! Minimal `extern "C"` bindings for the readiness syscalls the reactor
//! needs: `epoll(7)`, `fcntl(2)` and `pipe(2)` — Linux only, no external
//! crate (the workspace has no registry access, and vendoring all of libc
//! for a handful of syscalls would be absurd).
//!
//! Everything `unsafe` in `snn-net` lives in this module, behind safe
//! wrappers:
//!
//! * [`Epoll`] — an `epoll(7)` instance for **edge-triggered** readiness:
//!   descriptors are registered once ([`Epoll::add`]) and only *changes*
//!   of readiness are reported, so a reactor wait is O(ready), not
//!   O(registered).  See [`crate::poller::Poller`] for the safe wrapper
//!   the reactor actually drives.
//! * [`WakePipe`] — a non-blocking self-pipe: any thread calls
//!   [`WakePipe::wake`] to make an `epoll_wait` that watches the read end
//!   return immediately.  This is how the serving dispatcher
//!   hands completions to a parked reactor.
//! * [`set_nonblocking`] — `fcntl(F_SETFL, O_NONBLOCK)` on a raw fd
//!   (std covers sockets; the pipe ends need it done by hand).
//!
//! The constants are the Linux generic ABI values (asm-generic), which is
//! the only platform this workspace targets (see CI).

#![allow(unsafe_code)]

use std::io;
use std::os::raw::{c_int, c_void};
use std::os::unix::io::RawFd;
use std::time::Duration;

const F_GETFL: c_int = 3;
const F_SETFL: c_int = 4;
const O_NONBLOCK: c_int = 0o4000;
const EINTR: i32 = 4;

extern "C" {
    fn fcntl(fd: c_int, cmd: c_int, ...) -> c_int;
    fn pipe(fds: *mut c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
}

// --------------------------------------------------------------------------
// epoll(7)
// --------------------------------------------------------------------------

/// `epoll` event: readable (or a peer hang-up made `read` return 0).
pub const EPOLLIN: u32 = 0x001;
/// `epoll` event: writable without blocking.
pub const EPOLLOUT: u32 = 0x004;
/// `epoll` revent: error condition on the descriptor.
pub const EPOLLERR: u32 = 0x008;
/// `epoll` revent: peer hung up (both directions).
pub const EPOLLHUP: u32 = 0x010;
/// `epoll` event: the peer half-closed its sending side (stream sockets).
pub const EPOLLRDHUP: u32 = 0x2000;
/// `epoll` flag: **edge-triggered** delivery — a readiness transition is
/// reported exactly once; the consumer must drain to `EWOULDBLOCK` (or
/// remember that it stopped early) before the next event will fire.
pub const EPOLLET: u32 = 1 << 31;

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;

/// One `epoll` event record — ABI-identical to the kernel's
/// `struct epoll_event`, which is packed on x86-64 (12 bytes) and
/// naturally aligned everywhere else.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Requested/returned event mask (bitwise OR of `EPOLL*`).
    pub events: u32,
    /// Caller-chosen cookie echoed back verbatim — the reactor stores its
    /// connection token here.
    pub data: u64,
}

impl EpollEvent {
    /// An empty (zeroed) record, for `epoll_wait` output buffers.
    pub fn zeroed() -> Self {
        EpollEvent { events: 0, data: 0 }
    }
}

/// An `epoll(7)` instance: the edge-triggered readiness backend.
///
/// Descriptors are registered **once** with their full event mask
/// ([`EPOLLET`] included); there is no per-wait interest rebuild —
/// [`Epoll::wait`] returns only descriptors whose readiness *changed*, in
/// O(ready) time.  The owner must respect the
/// edge-triggered contract: on a reported edge, consume until
/// `EWOULDBLOCK` or remember that bytes were deliberately left behind
/// (the reactor's hot-list does the latter for read-burst fairness).
#[derive(Debug)]
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Creates the instance (`EPOLL_CLOEXEC`).
    ///
    /// # Errors
    ///
    /// Propagates `epoll_create1(2)` failures (descriptor exhaustion, or
    /// a kernel without epoll) — `NetServer::bind` reports them.
    pub fn new() -> io::Result<Self> {
        // SAFETY: epoll_create1 takes no pointers; a failure is -1/errno.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut event = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `event` is a live, exclusively borrowed repr(C) record;
        // the kernel reads it for ADD and ignores it for DEL.
        let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut event) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` with the given `EPOLL*` event mask and cookie.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl(2)` failures (`EBADF` closed fd, `EEXIST`
    /// double registration, `ENOSPC` watch limit).
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Unregisters `fd`.  Closing a descriptor unregisters it implicitly;
    /// this exists for symmetry and for descriptors that outlive their
    /// registration (the listener during shutdown).
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl(2)` failures (`ENOENT` unregistered fd).
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks until a registered descriptor reports an edge, the timeout
    /// elapses, or a signal interrupts.  Fills `events` from the front and
    /// returns how many records were written (`0` for timeout; `EINTR` is
    /// reported as `0` so callers treat it as a spurious wake and
    /// re-loop).  A full buffer is not lossy: undelivered ready-list
    /// entries are reported by the next wait.
    ///
    /// A nonzero timeout is rounded *up* to at least 1 ms: `as_millis`
    /// truncates, so a sub-millisecond duration would otherwise become 0
    /// and turn every wait into a busy-spin.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_wait(2)` failures other than `EINTR`.
    pub fn wait(&self, events: &mut [EpollEvent], timeout: Duration) -> io::Result<usize> {
        #[cfg(feature = "fault-injection")]
        if crate::fault::poll_spurious_wake() {
            // Injected delayed readiness / EINTR: report a spurious
            // timeout without consulting the kernel; callers re-loop.
            return Ok(0);
        }
        if events.is_empty() {
            return Ok(0);
        }
        let mut millis = timeout.as_millis().min(i32::MAX as u128) as c_int;
        if millis == 0 && !timeout.is_zero() {
            millis = 1;
        }
        // SAFETY: `events` is a valid, exclusively borrowed slice of
        // repr(C) records; the kernel writes at most `events.len()` of
        // them.
        let rc = unsafe { epoll_wait(self.fd, events.as_mut_ptr(), events.len() as c_int, millis) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.raw_os_error() == Some(EINTR) {
            return Ok(0);
        }
        Err(err)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: closes the fd this struct exclusively owns, once.
        unsafe {
            close(self.fd);
        }
    }
}

/// Switches a raw descriptor to non-blocking mode via
/// `fcntl(F_GETFL/F_SETFL)`.
///
/// # Errors
///
/// Propagates `fcntl(2)` failures (`EBADF` for a closed descriptor).
pub fn set_nonblocking(fd: RawFd) -> io::Result<()> {
    // SAFETY: fcntl with GETFL/SETFL only reads/updates the file status
    // flags of `fd`; an invalid fd yields -1/EBADF, not UB.
    let flags = unsafe { fcntl(fd, F_GETFL) };
    if flags < 0 {
        return Err(io::Error::last_os_error());
    }
    let rc = unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// A self-pipe that wakes a reactor parked in [`Epoll::wait`].
///
/// Both ends are non-blocking.  [`WakePipe::wake`] writes one byte (from
/// any thread — the write end is never closed while the pipe lives);
/// the reactor registers [`WakePipe::read_fd`] with [`EPOLLIN`] and calls
/// [`WakePipe::drain`] after every wake.  A full pipe is not an error:
/// the reader is already guaranteed to wake, which is the only contract.
#[derive(Debug)]
pub struct WakePipe {
    read_fd: RawFd,
    write_fd: RawFd,
}

// SAFETY-free: raw fds are plain integers; the kernel serialises pipe
// reads/writes, and wake/drain never touch shared Rust state.
impl WakePipe {
    /// Creates the pipe with both ends non-blocking.
    ///
    /// # Errors
    ///
    /// Propagates `pipe(2)`/`fcntl(2)` failures (descriptor exhaustion).
    pub fn new() -> io::Result<Self> {
        let mut fds = [-1 as c_int; 2];
        // SAFETY: `fds` is a valid 2-slot buffer, exactly what pipe(2)
        // writes.
        let rc = unsafe { pipe(fds.as_mut_ptr()) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        let this = WakePipe {
            read_fd: fds[0],
            write_fd: fds[1],
        };
        set_nonblocking(this.read_fd)?;
        set_nonblocking(this.write_fd)?;
        Ok(this)
    }

    /// The end a reactor registers with [`EPOLLIN`].
    pub fn read_fd(&self) -> RawFd {
        self.read_fd
    }

    /// Makes any in-flight or future [`Epoll::wait`] on the read end
    /// return.
    /// Never blocks: when the pipe buffer is full the wake is already
    /// pending, so the failed write is deliberately ignored.
    pub fn wake(&self) {
        #[cfg(feature = "fault-injection")]
        if crate::fault::drop_wake_byte() {
            // Injected lost wake: safe to drop because the reactor drains
            // its completion channel unconditionally every round and the
            // poll interval bounds the sleep — the byte is an accelerant,
            // not a correctness requirement (chaos.rs pins this).
            return;
        }
        let byte = [1u8];
        // SAFETY: writes one byte from a live stack buffer to an fd this
        // struct owns; O_NONBLOCK turns a full pipe into EAGAIN.
        let _ = unsafe { write(self.write_fd, byte.as_ptr() as *const c_void, 1) };
    }

    /// Empties the pipe so the next [`Epoll::wait`] blocks again.  Coalesced
    /// wakes are expected: callers must re-check *all* wake sources after
    /// draining, not count bytes.
    ///
    /// Slurps *all* pending bytes per readiness event: under a completion
    /// storm every settled inference writes a wake byte, and a pipe holds
    /// 64 KiB of them — the sink must be large enough that one drain is a
    /// handful of `read(2)`s, not thousands (a 64-byte sink once meant a
    /// 10 k-completion storm cost ~160 syscalls per reactor round).
    pub fn drain(&self) {
        let mut sink = [0u8; 4096];
        loop {
            // SAFETY: reads into a live stack buffer from an owned fd;
            // an empty non-blocking pipe returns -1/EAGAIN which ends the
            // loop, as does EOF.
            let n = unsafe { read(self.read_fd, sink.as_mut_ptr() as *mut c_void, sink.len()) };
            if n <= 0 {
                return;
            }
        }
    }
}

impl Drop for WakePipe {
    fn drop(&mut self) {
        // SAFETY: closes the two fds this struct exclusively owns, once.
        unsafe {
            close(self.read_fd);
            close(self.write_fd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_nonblocking_rejects_a_closed_fd() {
        // fd -1 is never valid.
        assert!(set_nonblocking(-1).is_err());
    }

    fn wait_one(ep: &Epoll, timeout: Duration) -> Vec<EpollEvent> {
        let mut buf = [EpollEvent::zeroed(); 8];
        let n = ep.wait(&mut buf, timeout).unwrap();
        buf[..n].to_vec()
    }

    #[test]
    fn epoll_wake_pipe_wakes_a_wait_and_drains() {
        let pipe = WakePipe::new().unwrap();
        let ep = Epoll::new().unwrap();
        ep.add(pipe.read_fd(), EPOLLIN | EPOLLET, 7).unwrap();
        // Nothing pending: a short wait times out.
        assert!(wait_one(&ep, Duration::from_millis(10)).is_empty());
        pipe.wake();
        let events = wait_one(&ep, Duration::from_secs(5));
        assert_eq!(events.len(), 1);
        assert_eq!({ events[0].data }, 7, "the cookie round-trips");
        assert_ne!({ events[0].events } & EPOLLIN, 0);
        pipe.drain();
        assert!(wait_one(&ep, Duration::from_millis(10)).is_empty());
    }

    #[test]
    fn epoll_wake_from_another_thread_unblocks_wait() {
        let pipe = std::sync::Arc::new(WakePipe::new().unwrap());
        let ep = Epoll::new().unwrap();
        ep.add(pipe.read_fd(), EPOLLIN | EPOLLET, 1).unwrap();
        let waker = std::sync::Arc::clone(&pipe);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            waker.wake();
        });
        let events = wait_one(&ep, Duration::from_secs(10));
        assert_eq!(events.len(), 1, "the cross-thread wake must end the wait");
        handle.join().unwrap();
    }

    #[test]
    fn repeated_wakes_never_block_even_with_a_full_pipe() {
        let pipe = WakePipe::new().unwrap();
        let ep = Epoll::new().unwrap();
        ep.add(pipe.read_fd(), EPOLLIN | EPOLLET, 1).unwrap();
        // A pipe buffer is 64 KiB by default; far overshoot it.
        for _ in 0..100_000 {
            pipe.wake();
        }
        assert_eq!(wait_one(&ep, Duration::from_secs(5)).len(), 1);
        pipe.drain();
        assert!(wait_one(&ep, Duration::from_millis(10)).is_empty());
        // The full pipe did not wedge it: a fresh wake is a fresh edge.
        pipe.wake();
        assert_eq!(wait_one(&ep, Duration::from_secs(5)).len(), 1);
    }

    #[test]
    fn epoll_flood_of_wakes_drains_in_one_readiness_event() {
        // Regression: 10 k completions each write one wake byte before the
        // reactor gets scheduled.  One drain per readiness event must slurp
        // the whole backlog — afterwards the pipe is empty (the wait times
        // out) and a single fresh wake still gets through.
        let pipe = WakePipe::new().unwrap();
        let ep = Epoll::new().unwrap();
        ep.add(pipe.read_fd(), EPOLLIN | EPOLLET, 1).unwrap();
        for _ in 0..10_000 {
            pipe.wake();
        }
        assert_eq!(wait_one(&ep, Duration::from_secs(5)).len(), 1);
        pipe.drain();
        assert!(wait_one(&ep, Duration::from_millis(10)).is_empty());
        // The pipe still works after the flood: wake, wait, drain, quiet.
        pipe.wake();
        assert_eq!(wait_one(&ep, Duration::from_secs(5)).len(), 1);
        pipe.drain();
        assert!(wait_one(&ep, Duration::from_millis(10)).is_empty());
    }

    /// The edge-triggered contract, pinned: readiness that was already
    /// reported is **not** reported again until the descriptor becomes
    /// readable anew.  This is the failure mode the reactor's hot-list
    /// exists for.
    #[test]
    fn epoll_edge_trigger_reports_a_transition_exactly_once() {
        let pipe = WakePipe::new().unwrap();
        let ep = Epoll::new().unwrap();
        ep.add(pipe.read_fd(), EPOLLIN | EPOLLET, 9).unwrap();
        pipe.wake();
        assert_eq!(wait_one(&ep, Duration::from_secs(5)).len(), 1);
        // The byte is still in the pipe, but the edge was consumed: an
        // edge-triggered wait must now time out.
        assert!(
            wait_one(&ep, Duration::from_millis(20)).is_empty(),
            "EPOLLET re-reported un-drained readiness"
        );
        // A *new* byte is a new edge.
        pipe.wake();
        assert_eq!(wait_one(&ep, Duration::from_secs(5)).len(), 1);
    }

    #[test]
    fn epoll_rejects_a_closed_fd_and_double_registration() {
        let ep = Epoll::new().unwrap();
        assert!(ep.add(-1, EPOLLIN, 0).is_err(), "EBADF surfaces");
        let pipe = WakePipe::new().unwrap();
        ep.add(pipe.read_fd(), EPOLLIN | EPOLLET, 1).unwrap();
        assert!(
            ep.add(pipe.read_fd(), EPOLLIN | EPOLLET, 2).is_err(),
            "EEXIST surfaces"
        );
        ep.delete(pipe.read_fd()).unwrap();
        assert!(ep.delete(pipe.read_fd()).is_err(), "ENOENT surfaces");
        // Re-registration after delete works, under the new cookie.
        ep.add(pipe.read_fd(), EPOLLIN | EPOLLET, 3).unwrap();
        pipe.wake();
        let events = wait_one(&ep, Duration::from_secs(5));
        assert_eq!({ events[0].data }, 3);
    }

    #[test]
    fn epoll_submillisecond_timeouts_round_up_instead_of_busy_spinning() {
        // One wait could be unlucky on a loaded host, so require only that
        // the *sum* of many sub-ms waits shows real sleeping.
        let pipe = WakePipe::new().unwrap();
        let ep = Epoll::new().unwrap();
        ep.add(pipe.read_fd(), EPOLLIN | EPOLLET, 1).unwrap();
        let start = std::time::Instant::now();
        for _ in 0..20 {
            assert!(wait_one(&ep, Duration::from_micros(100)).is_empty());
        }
        assert!(
            start.elapsed() >= Duration::from_millis(10),
            "20 sub-ms waits finished in {:?}: the timeout truncated to 0",
            start.elapsed()
        );
        // A genuinely zero timeout still returns immediately.
        let start = std::time::Instant::now();
        for _ in 0..100 {
            wait_one(&ep, Duration::ZERO);
        }
        assert!(start.elapsed() < Duration::from_millis(100));
    }
}
