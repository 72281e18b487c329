//! The readiness wrapper the reactor drives: one [`Poller`] per reactor
//! shard, backed by an **edge-triggered epoll** instance (O(ready) waits,
//! descriptors registered once with their full event mask).
//!
//! Edge-triggered delivery reports a readiness transition exactly once,
//! so a consumer that stops reading early (the read-burst fairness cap)
//! must remember that the descriptor is still hot — see the reactor's
//! hot list.  Interest never changes after registration: a spurious
//! writable edge is cheaper than an `epoll_ctl` per state flip.

use crate::sys::{Epoll, EpollEvent, EPOLLERR, EPOLLET, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

/// What a descriptor's owner wants to hear about, fixed at registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Interest {
    /// Report when reading would not block (or the peer hung up).
    pub readable: bool,
    /// Report when writing would not block.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest (listener, wake pipe).
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Read + write interest (connections).
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness report, token-keyed.  A peer hang-up surfaces as both
/// readable and writable (HUP flushes what it can, then reads the EOF);
/// `error` means the descriptor should be torn down.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The cookie the descriptor was registered under.
    pub token: u64,
    /// Reading would not block (includes hang-ups: the EOF is readable).
    pub readable: bool,
    /// Writing would not block (includes hang-ups: the flush will fail
    /// fast and report the death).
    pub writable: bool,
    /// Error condition — tear the descriptor down.
    pub error: bool,
}

/// A readiness selector: register/deregister descriptors under `u64`
/// tokens, wait, iterate [`Event`]s.  See the module docs for the
/// edge-triggered contract.
pub struct Poller {
    ep: Epoll,
    /// `epoll_wait` output buffer, reused across waits.  Sized well above
    /// the per-shard connection budget; a full buffer is not lossy anyway
    /// (undelivered entries re-report next wait).
    buf: Vec<EpollEvent>,
    events: Vec<Event>,
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Poller")
            .field("ep", &self.ep)
            .finish_non_exhaustive()
    }
}

const EPOLL_WAIT_CAPACITY: usize = 1024;

impl Poller {
    /// Creates a poller on a fresh epoll instance.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_create1(2)` failures (descriptor exhaustion).
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            ep: Epoll::new()?,
            buf: vec![EpollEvent::zeroed(); EPOLL_WAIT_CAPACITY],
            events: Vec::new(),
        })
    }

    /// Registers `fd` under `token` with the edge-triggered mask for
    /// `interest`.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failures (watch exhaustion, closed fd) —
    /// the caller sheds the connection instead of serving it blind.
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut mask = EPOLLET | EPOLLRDHUP;
        if interest.readable {
            mask |= EPOLLIN;
        }
        if interest.writable {
            mask |= EPOLLOUT;
        }
        self.ep.add(fd, mask, token)
    }

    /// Unregisters `fd`.  Errors are deliberately swallowed: the only
    /// caller is connection teardown, where the fd is about to be closed
    /// (which unregisters it implicitly anyway).
    pub fn deregister(&mut self, fd: RawFd) {
        let _ = self.ep.delete(fd);
    }

    /// Blocks until readiness, timeout, or a (spurious-wake) interrupt,
    /// then returns the events.  Timeout semantics are
    /// [`Epoll::wait`]'s: sub-millisecond nonzero timeouts round up to
    /// 1 ms, `EINTR` is an empty return, and with the `fault-injection`
    /// feature armed the delayed-readiness hook may fire.
    ///
    /// # Errors
    ///
    /// Propagates non-`EINTR` `epoll_wait(2)` failures; the reactor backs
    /// off and retries.
    pub fn wait(&mut self, timeout: Duration) -> io::Result<&[Event]> {
        self.events.clear();
        let n = self.ep.wait(&mut self.buf, timeout)?;
        for record in &self.buf[..n] {
            // Copy out of the (packed) record before testing bits.
            let mask = { record.events };
            let token = { record.data };
            let readable = mask & (EPOLLIN | EPOLLHUP | EPOLLRDHUP) != 0;
            let writable = mask & (EPOLLOUT | EPOLLHUP) != 0;
            let error = mask & EPOLLERR != 0;
            if readable || writable || error {
                self.events.push(Event {
                    token,
                    readable,
                    writable,
                    error,
                });
            }
        }
        Ok(&self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sys::WakePipe;

    /// Wake → one readable event with the right token; drain → quiet.
    /// The Poller twin of the sys-level wake tests.
    #[test]
    fn wake_pipe_round_trip() {
        let mut poller = Poller::new().unwrap();
        let pipe = WakePipe::new().unwrap();
        poller.register(pipe.read_fd(), 42, Interest::READ).unwrap();
        assert!(
            poller.wait(Duration::from_millis(10)).unwrap().is_empty(),
            "idle wait must time out"
        );
        pipe.wake();
        let events = poller.wait(Duration::from_secs(5)).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 42);
        assert!(events[0].readable);
        assert!(!events[0].error);
        pipe.drain();
        assert!(
            poller.wait(Duration::from_millis(10)).unwrap().is_empty(),
            "drained pipe must be quiet"
        );
    }

    /// The delivery semantics the reactor's hot list exists for, pinned
    /// where the reactor can see it: un-drained readiness goes silent
    /// after its edge was reported, and a new byte is a new edge.
    #[test]
    fn undrained_readiness_is_reported_once() {
        let mut poller = Poller::new().unwrap();
        let pipe = WakePipe::new().unwrap();
        poller.register(pipe.read_fd(), 1, Interest::READ).unwrap();
        pipe.wake();
        assert_eq!(poller.wait(Duration::from_secs(5)).unwrap().len(), 1);
        assert!(
            poller.wait(Duration::from_millis(20)).unwrap().is_empty(),
            "a consumed edge was re-reported"
        );
        pipe.wake();
        assert_eq!(poller.wait(Duration::from_secs(5)).unwrap().len(), 1);
    }

    #[test]
    fn deregister_silences_the_descriptor() {
        let mut poller = Poller::new().unwrap();
        let pipe = WakePipe::new().unwrap();
        poller.register(pipe.read_fd(), 3, Interest::READ).unwrap();
        pipe.wake();
        poller.deregister(pipe.read_fd());
        assert!(
            poller.wait(Duration::from_millis(10)).unwrap().is_empty(),
            "deregistered fd still reported"
        );
    }

    #[test]
    fn registering_a_closed_fd_fails_only_where_the_kernel_is_consulted() {
        // epoll validates at registration (EBADF), so a closed fd is
        // refused up front instead of surfacing at wait time.
        let mut poller = Poller::new().unwrap();
        assert!(poller.register(-1, 0, Interest::READ).is_err());
        assert!(poller.wait(Duration::from_millis(5)).unwrap().is_empty());
    }
}
