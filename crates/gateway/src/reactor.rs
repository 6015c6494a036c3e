//! A minimal readiness reactor: the gateway's replacement for sleep-poll
//! worker loops.
//!
//! `epoll(7)` via raw `extern "C"` syscall declarations (libc is already
//! linked through `std`; no new crate dependency), with an `eventfd(2)`
//! waker. The listener can be registered `EPOLLEXCLUSIVE` so one
//! connection wakes one worker, not all of them. The crate is Linux-only:
//! any other target stops at the `compile_error!` below.
//!
//! The API is deliberately tiny and synchronous: one [`Reactor`] per
//! worker thread, owned outright, no interior locking. Readiness is
//! **level-triggered** so callers never need to drain a socket to
//! exhaustion before waiting again. The only cross-thread object is the
//! [`Waker`], which any thread may use to make a blocked
//! [`Reactor::wait`] return (the wake event surfaces as [`WAKE_TOKEN`]).
//!
//! # Safety
//!
//! This is the one module in the crate allowed to use `unsafe`: the raw
//! syscall surface is six foreign functions taking integers and pointers
//! to locally-owned buffers. Every call site is commented with the
//! invariant that makes it sound; nothing here dereferences
//! foreign-provided pointers.

#![allow(unsafe_code)]

#[cfg(not(target_os = "linux"))]
compile_error!("frap-gateway's reactor is built on Linux epoll(7) and eventfd(2) only");

use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::raw::{c_int, c_uint, c_void};
use std::sync::Arc;
use std::time::Duration;

/// The token [`Reactor::wait`] reports when a [`Waker`] fired (drained
/// internally; callers just observe the wakeup and re-check their flags).
pub const WAKE_TOKEN: usize = usize::MAX;

/// One readiness report from [`Reactor::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token the descriptor was registered with.
    pub token: usize,
    /// Readable, hung up, or errored (callers discover which by reading).
    pub readable: bool,
    /// Write space available.
    pub writable: bool,
}

/// Which readiness a registration asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when readable.
    pub readable: bool,
    /// Wake when writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest (the steady state of a caught-up connection).
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
}

/// Per-wake transport syscall and byte tallies.
///
/// The reactor's worker accumulates these as plain integers while it
/// serves one wake's readiness batch, then publishes them with a single
/// atomic add per field — the wire-efficiency counters behind
/// `bytes_per_decision` and `syscalls_per_decision` in the gateway
/// benchmark report, without paying one `fetch_add` per frame on the
/// hot path.
#[derive(Debug, Default, Clone, Copy)]
pub struct IoTally {
    /// `epoll_wait` returns (one per wake).
    pub wakeups: u64,
    /// `read(2)` calls issued against connection sockets, including the
    /// final `WouldBlock` that ends a drain.
    pub read_calls: u64,
    /// `write` calls issued against connection sockets.
    pub write_calls: u64,
    /// Payload bytes read off sockets.
    pub bytes_in: u64,
    /// Payload bytes accepted by sockets.
    pub bytes_out: u64,
}

impl IoTally {
    /// Folds another tally into this one.
    pub fn absorb(&mut self, other: IoTally) {
        self.wakeups += other.wakeups;
        self.read_calls += other.read_calls;
        self.write_calls += other.write_calls;
        self.bytes_in += other.bytes_in;
        self.bytes_out += other.bytes_out;
    }

    /// Total kernel crossings (wake, read, and write syscalls).
    pub fn syscalls(&self) -> u64 {
        self.wakeups + self.read_calls + self.write_calls
    }
}

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLLEXCLUSIVE: u32 = 1 << 28;
const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;

/// Kernel ABI: packed on x86-64, natural alignment elsewhere.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Debug, Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
}

/// Takes ownership of a descriptor a syscall just returned, or of the
/// error its `-1` stands for.
fn owned(fd: c_int) -> io::Result<OwnedFd> {
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: `fd` was just created by the caller's syscall and nothing
    // else owns it.
    Ok(unsafe { OwnedFd::from_raw_fd(fd) })
}

/// The cross-thread handle that interrupts a blocked [`Reactor::wait`].
///
/// Cloneable and cheap. Writes are non-blocking and best-effort: a full
/// counter already guarantees the target will wake, so `EAGAIN` is
/// success. The waker shares ownership of the eventfd, so the number
/// stays this channel's for as long as any waker exists: waking a reactor
/// that is already gone is a harmless write nobody reads, never a write
/// into whatever descriptor reused the number.
#[derive(Debug, Clone)]
pub struct Waker {
    fd: Arc<OwnedFd>,
}

impl Waker {
    /// Makes the paired reactor's current (or next) `wait` return.
    pub fn wake(&self) {
        let one: u64 = 1;
        // SAFETY: writes 8 bytes from a live local, the size eventfd
        // requires.
        let _ = unsafe { write(self.fd.as_raw_fd(), (&one as *const u64).cast(), 8) };
    }
}

/// The epoll-backed reactor.
#[derive(Debug)]
pub struct Reactor {
    epfd: OwnedFd,
    /// The eventfd, co-owned with every [`Waker`].
    wake: Arc<OwnedFd>,
    buf: Vec<EpollEvent>,
}

fn interest_bits(interest: Interest) -> u32 {
    let mut bits = EPOLLRDHUP;
    if interest.readable {
        bits |= EPOLLIN;
    }
    if interest.writable {
        bits |= EPOLLOUT;
    }
    bits
}

impl Reactor {
    /// A reactor with its wake channel (eventfd) pre-registered.
    pub fn new() -> io::Result<(Reactor, Waker)> {
        // SAFETY: plain syscalls returning a descriptor or -1.
        let epfd = owned(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        // SAFETY: as above.
        let wake = Arc::new(owned(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?);
        let reactor = Reactor {
            epfd,
            wake: Arc::clone(&wake),
            buf: vec![EpollEvent { events: 0, data: 0 }; 128],
        };
        reactor.ctl(EPOLL_CTL_ADD, wake.as_raw_fd(), EPOLLIN, WAKE_TOKEN)?;
        Ok((reactor, Waker { fd: wake }))
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: usize) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token as u64,
        };
        // SAFETY: `ev` is a live local; the kernel copies it before
        // returning. fds are plain integers.
        if unsafe { epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut ev) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers a socket by its descriptor. `exclusive` requests
    /// `EPOLLEXCLUSIVE` — useful when several workers register the same
    /// listening socket and each accept should wake one.
    pub fn register(
        &mut self,
        fd: RawFd,
        token: usize,
        interest: Interest,
        exclusive: bool,
    ) -> io::Result<()> {
        let mut bits = interest_bits(interest);
        if exclusive {
            // EPOLLEXCLUSIVE admits only IN/OUT/ET/WAKEUP; RDHUP would
            // make the whole registration EINVAL.
            bits &= EPOLLIN | EPOLLOUT;
            bits |= EPOLLEXCLUSIVE;
        }
        self.ctl(EPOLL_CTL_ADD, fd, bits, token)
    }

    /// Changes a registration's interest set.
    pub fn reregister(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest_bits(interest), token)
    }

    /// Removes a registration (required before the caller closes a
    /// descriptor another process-level dup keeps alive, e.g. a shared
    /// listener).
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks until readiness or a wake, appending events to `out`.
    /// `None` blocks indefinitely; a nonzero timeout rounds up to the
    /// next whole millisecond, so a short wait still blocks.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        out.clear();
        let timeout_ms: c_int = match timeout {
            None => -1,
            Some(d) => d.as_nanos().div_ceil(1_000_000).min(c_int::MAX as u128) as c_int,
        };
        // SAFETY: `buf` outlives the call and maxevents matches its
        // length.
        let n = unsafe {
            epoll_wait(
                self.epfd.as_raw_fd(),
                self.buf.as_mut_ptr(),
                self.buf.len() as c_int,
                timeout_ms,
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(err);
        }
        for i in 0..n as usize {
            let ev = self.buf[i];
            let token = ev.data as usize;
            let events = ev.events;
            if token == WAKE_TOKEN {
                // One read resets the counter, so level-triggered polling
                // does not spin on an old wakeup.
                let mut count = 0u64;
                // SAFETY: reads 8 bytes into a live local of that size.
                let _ = unsafe { read(self.wake.as_raw_fd(), (&mut count as *mut u64).cast(), 8) };
                out.push(Event {
                    token,
                    readable: false,
                    writable: false,
                });
                continue;
            }
            out.push(Event {
                token,
                // Errors and hangups surface as readability so the
                // caller's next read observes EOF/ECONNRESET.
                readable: events & (EPOLLIN | EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                writable: events & EPOLLOUT != 0,
            });
        }
        // A full buffer means more events may be pending; growing
        // amortizes to the connection count.
        if n as usize == self.buf.len() {
            let len = self.buf.len();
            self.buf.resize(len * 2, EpollEvent { events: 0, data: 0 });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    #[test]
    fn waker_interrupts_a_blocking_wait() {
        let (mut reactor, waker) = Reactor::new().expect("reactor");
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            waker.wake();
        });
        let mut events = Vec::new();
        reactor.wait(&mut events, None).expect("wait");
        assert!(events.iter().any(|e| e.token == WAKE_TOKEN));
        handle.join().unwrap();
    }

    #[test]
    fn a_sub_millisecond_wait_blocks_for_at_least_its_timeout() {
        let (mut reactor, _waker) = Reactor::new().expect("reactor");
        let mut events = Vec::new();
        let timeout = Duration::from_micros(300);
        let start = Instant::now();
        reactor.wait(&mut events, Some(timeout)).expect("wait");
        assert!(events.is_empty(), "nothing was ready: {events:?}");
        assert!(
            start.elapsed() >= timeout,
            "returned after {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn a_waker_outliving_its_reactor_writes_into_no_other_descriptor() {
        let (reactor, waker) = Reactor::new().expect("reactor");
        drop(reactor);
        // The kernel hands out the lowest free number, so had the drop
        // freed the wake descriptor, one of these sockets would get it.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let pairs: Vec<(TcpStream, TcpStream)> = (0..8)
            .map(|_| {
                let a = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
                let (b, _) = listener.accept().expect("accept");
                (a, b)
            })
            .collect();
        waker.wake();
        let mut buf = [0u8; 8];
        for (a, b) in &pairs {
            for mut rx in [a, b] {
                rx.set_nonblocking(true).expect("nonblocking");
                match rx.read(&mut buf) {
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    other => panic!("a stale wake reached a socket: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn socket_readability_is_reported_level_triggered() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut tx = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        let (rx, _) = listener.accept().expect("accept");
        rx.set_nonblocking(true).expect("nonblocking");

        let (mut reactor, _waker) = Reactor::new().expect("reactor");
        reactor
            .register(rx.as_raw_fd(), 7, Interest::READ, false)
            .expect("register");

        tx.write_all(b"ping").expect("write");
        let mut events = Vec::new();
        reactor
            .wait(&mut events, Some(Duration::from_secs(2)))
            .expect("wait");
        assert!(events.iter().any(|e| e.token == 7 && e.readable));

        // Level-triggered: not draining the socket re-reports it.
        reactor
            .wait(&mut events, Some(Duration::from_secs(2)))
            .expect("wait again");
        assert!(events.iter().any(|e| e.token == 7 && e.readable));

        let mut rx = rx;
        let mut buf = [0u8; 8];
        let n = rx.read(&mut buf).expect("read");
        assert_eq!(&buf[..n], b"ping");

        // Drained: a short timed wait now reports nothing for token 7.
        reactor
            .wait(&mut events, Some(Duration::from_millis(30)))
            .expect("wait drained");
        assert!(!events.iter().any(|e| e.token == 7));
    }

    #[test]
    fn interest_changes_gate_writability_reports() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let tx = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        tx.set_nonblocking(true).expect("nonblocking");
        let (_rx, _) = listener.accept().expect("accept");

        let (mut reactor, _waker) = Reactor::new().expect("reactor");
        reactor
            .register(tx.as_raw_fd(), 3, Interest::READ, false)
            .expect("register");
        let mut events = Vec::new();
        reactor
            .wait(&mut events, Some(Duration::from_millis(30)))
            .expect("wait");
        assert!(
            !events.iter().any(|e| e.token == 3 && e.writable),
            "write readiness reported without write interest"
        );

        reactor
            .reregister(
                tx.as_raw_fd(),
                3,
                Interest {
                    readable: true,
                    writable: true,
                },
            )
            .expect("reregister");
        reactor
            .wait(&mut events, Some(Duration::from_secs(2)))
            .expect("wait");
        assert!(events.iter().any(|e| e.token == 3 && e.writable));

        reactor.deregister(tx.as_raw_fd()).expect("deregister");
        reactor
            .wait(&mut events, Some(Duration::from_millis(30)))
            .expect("wait deregistered");
        assert!(!events.iter().any(|e| e.token == 3));
    }
}
