//! A minimal readiness reactor: the gateway's replacement for sleep-poll
//! worker loops.
//!
//! Three backends, picked at compile time, all behind one API:
//!
//! * **Linux** — `epoll(7)` via raw `extern "C"` syscall declarations
//!   (libc is already linked through `std`; no new crate dependency), with
//!   an `eventfd(2)` waker. The listener can be registered
//!   `EPOLLEXCLUSIVE` so one connection wakes one worker, not all of them.
//! * **Other Unix** — portable `poll(2)` over the registered descriptor
//!   set, with a non-blocking self-pipe waker.
//! * **Everything else** — a degraded timed-poll shim: `wait` parks on a
//!   condvar for a short interval (or until woken) and reports every
//!   registered token as ready. Callers must treat readiness as a *hint*
//!   (level-triggered semantics: spurious readiness resolves to
//!   `WouldBlock`), which makes this shim correct, merely not fast — it is
//!   the pre-reactor behavior, kept only so the crate still compiles off
//!   Unix.
//!
//! The API is deliberately tiny and synchronous: one [`Reactor`] per
//! worker thread, owned outright, no interior locking. Readiness is
//! **level-triggered** everywhere so callers never need to drain a socket
//! to exhaustion before waiting again. The only cross-thread object is
//! the [`Waker`], which any thread may use to make a blocked
//! [`Reactor::wait`] return (the wake event surfaces as
//! [`WAKE_TOKEN`]).
//!
//! # Safety
//!
//! This is the one module in the crate allowed to use `unsafe`: the raw
//! syscall surface is ~six foreign functions taking integers and pointers
//! to locally-owned buffers. Every call site is commented with the
//! invariant that makes it sound; nothing here dereferences
//! foreign-provided pointers.

#![allow(unsafe_code)]

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
    /// `epoll_wait`/`poll` returns (one per wake).
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

#[cfg(unix)]
pub use imp_unix::{Reactor, Waker};

#[cfg(not(unix))]
pub use imp_fallback::{Reactor, Waker};

/// The key a socket registers under with [`Reactor::register`]: its raw
/// descriptor on Unix, `token` on the degraded non-Unix shim (which only
/// needs a unique id).
#[cfg(unix)]
pub fn reactor_key<S: std::os::fd::AsRawFd>(sock: &S, _token: usize) -> std::os::fd::RawFd {
    sock.as_raw_fd()
}

/// The key a socket registers under with [`Reactor::register`]: its raw
/// descriptor on Unix, `token` on the degraded non-Unix shim (which only
/// needs a unique id).
#[cfg(not(unix))]
pub fn reactor_key<S>(_sock: &S, token: usize) -> i32 {
    token as i32
}

#[cfg(unix)]
mod imp_unix {
    use super::{Event, Interest, WAKE_TOKEN};
    use std::io;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
    use std::os::raw::{c_int, c_uint, c_void};
    use std::sync::Arc;
    use std::time::Duration;

    extern "C" {
        fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    }

    /// The cross-thread handle that interrupts a blocked [`Reactor::wait`].
    ///
    /// Cloneable and cheap. Writes are non-blocking and best-effort: a
    /// full pipe/counter already guarantees the target will wake, so
    /// `EAGAIN` is success. The waker shares ownership of the descriptor
    /// it writes to (the eventfd itself on Linux, the pipe's write end
    /// elsewhere), so the number stays this channel's for as long as any
    /// waker exists: waking a reactor that is already gone is a harmless
    /// write nobody reads, never a write into whatever descriptor reused
    /// the number.
    #[derive(Debug, Clone)]
    pub struct Waker {
        fd: Arc<OwnedFd>,
    }

    impl Waker {
        /// Makes the paired reactor's current (or next) `wait` return.
        pub fn wake(&self) {
            let one: u64 = 1;
            // SAFETY: writes 8 bytes from a live local; both eventfd and
            // pipe accept any byte payload (eventfd requires exactly 8).
            let _ = unsafe { write(self.fd.as_raw_fd(), (&one as *const u64).cast(), 8) };
        }
    }

    /// Drains a non-blocking wake descriptor so level-triggered polling
    /// does not spin on an old wakeup.
    fn drain_wake(fd: RawFd) {
        let mut buf = [0u8; 64];
        loop {
            // SAFETY: reads into a live local buffer of the stated size.
            let n = unsafe { read(fd, buf.as_mut_ptr().cast(), buf.len()) };
            if n <= 0 {
                break;
            }
            if (n as usize) < buf.len() {
                break;
            }
        }
    }

    #[cfg(target_os = "linux")]
    mod sys {
        use super::*;

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
        pub struct EpollEvent {
            pub events: u32,
            pub data: u64,
        }

        extern "C" {
            fn epoll_create1(flags: c_int) -> c_int;
            fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
            fn epoll_wait(
                epfd: c_int,
                events: *mut EpollEvent,
                maxevents: c_int,
                timeout: c_int,
            ) -> c_int;
            fn eventfd(initval: c_uint, flags: c_int) -> c_int;
            fn close(fd: c_int) -> c_int;
        }

        /// The epoll-backed reactor.
        #[derive(Debug)]
        pub struct Reactor {
            epfd: RawFd,
            /// The eventfd, co-owned with every [`Waker`](super::Waker).
            wake: Arc<OwnedFd>,
            buf: Vec<EpollEvent>,
        }

        impl Drop for Reactor {
            fn drop(&mut self) {
                // SAFETY: sole owner of the epoll descriptor.
                unsafe { close(self.epfd) };
            }
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

        fn ctl(epfd: RawFd, op: c_int, fd: RawFd, events: u32, token: usize) -> io::Result<()> {
            let mut ev = EpollEvent {
                events,
                data: token as u64,
            };
            // SAFETY: `ev` is a live local; the kernel copies it before
            // returning. fds are plain integers.
            let rc = unsafe { epoll_ctl(epfd, op, fd, &mut ev) };
            if rc < 0 {
                Err(io::Error::last_os_error())
            } else {
                Ok(())
            }
        }

        impl Reactor {
            /// A reactor with its wake channel (eventfd) pre-registered.
            pub fn new() -> io::Result<(Reactor, super::Waker)> {
                // SAFETY: plain syscalls returning descriptors or -1.
                let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
                if epfd < 0 {
                    return Err(io::Error::last_os_error());
                }
                // SAFETY: as above.
                let efd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
                if efd < 0 {
                    let err = io::Error::last_os_error();
                    // SAFETY: epfd was just created and is owned here.
                    unsafe { close(epfd) };
                    return Err(err);
                }
                // SAFETY: `efd` was just created and nothing else owns it.
                let wake = Arc::new(unsafe { OwnedFd::from_raw_fd(efd) });
                let reactor = Reactor {
                    epfd,
                    wake: Arc::clone(&wake),
                    buf: vec![EpollEvent { events: 0, data: 0 }; 128],
                };
                ctl(epfd, EPOLL_CTL_ADD, efd, EPOLLIN, WAKE_TOKEN)?;
                Ok((reactor, super::Waker { fd: wake }))
            }

            /// Registers a descriptor. `exclusive` requests
            /// `EPOLLEXCLUSIVE` — useful when several workers register the
            /// same listening socket and each accept should wake one.
            pub fn register(
                &mut self,
                fd: RawFd,
                token: usize,
                interest: Interest,
                exclusive: bool,
            ) -> io::Result<()> {
                let mut bits = interest_bits(interest);
                if exclusive {
                    // EPOLLEXCLUSIVE admits only IN/OUT/ET/WAKEUP; RDHUP
                    // would make the whole registration EINVAL.
                    bits &= EPOLLIN | EPOLLOUT;
                    bits |= EPOLLEXCLUSIVE;
                }
                ctl(self.epfd, EPOLL_CTL_ADD, fd, bits, token)
            }

            /// Changes a registration's interest set.
            pub fn reregister(
                &mut self,
                fd: RawFd,
                token: usize,
                interest: Interest,
            ) -> io::Result<()> {
                ctl(self.epfd, EPOLL_CTL_MOD, fd, interest_bits(interest), token)
            }

            /// Removes a registration (required before the caller closes a
            /// descriptor another process-level dup keeps alive, e.g. a
            /// shared listener).
            pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
                ctl(self.epfd, EPOLL_CTL_DEL, fd, 0, 0)
            }

            /// Blocks until readiness or a wake, appending events to
            /// `out`. `None` blocks indefinitely.
            pub fn wait(
                &mut self,
                out: &mut Vec<Event>,
                timeout: Option<Duration>,
            ) -> io::Result<()> {
                out.clear();
                let timeout_ms: c_int = match timeout {
                    None => -1,
                    Some(d) => d.as_millis().min(c_int::MAX as u128) as c_int,
                };
                // SAFETY: `buf` outlives the call and maxevents matches
                // its length.
                let n = unsafe {
                    epoll_wait(
                        self.epfd,
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
                        super::drain_wake(self.wake.as_raw_fd());
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
    }

    #[cfg(not(target_os = "linux"))]
    mod sys {
        use super::*;
        use std::os::raw::{c_short, c_ulong};

        const POLLIN: c_short = 0x001;
        const POLLOUT: c_short = 0x004;
        const POLLERR: c_short = 0x008;
        const POLLHUP: c_short = 0x010;
        const POLLNVAL: c_short = 0x020;
        const F_SETFL: c_int = 4;
        #[cfg(target_os = "linux")]
        const O_NONBLOCK: c_int = 0o4000;
        #[cfg(not(target_os = "linux"))]
        const O_NONBLOCK: c_int = 0x0004; // BSD lineage (macOS, the BSDs)

        #[repr(C)]
        #[derive(Debug, Clone, Copy)]
        struct PollFd {
            fd: c_int,
            events: c_short,
            revents: c_short,
        }

        extern "C" {
            fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
            fn pipe(fds: *mut c_int) -> c_int;
            fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
        }

        /// The portable `poll(2)` reactor: a dense descriptor list rebuilt
        /// only on (de)registration.
        #[derive(Debug)]
        pub struct Reactor {
            /// The self-pipe's read end; wakers co-own the write end.
            wake: OwnedFd,
            regs: Vec<(RawFd, usize, Interest)>,
            fds: Vec<PollFd>,
            dirty: bool,
        }

        impl Reactor {
            /// A reactor with its wake channel (self-pipe) pre-registered.
            pub fn new() -> io::Result<(Reactor, super::Waker)> {
                let mut ends: [c_int; 2] = [0; 2];
                // SAFETY: writes two descriptors into a live local array.
                if unsafe { pipe(ends.as_mut_ptr()) } < 0 {
                    return Err(io::Error::last_os_error());
                }
                // SAFETY: both ends were just created and nothing else
                // owns them; an early return below closes both.
                let [rx, tx] = ends.map(|fd| unsafe { OwnedFd::from_raw_fd(fd) });
                for fd in ends {
                    // SAFETY: sets O_NONBLOCK on descriptors we own.
                    if unsafe { fcntl(fd, F_SETFL, O_NONBLOCK) } < 0 {
                        return Err(io::Error::last_os_error());
                    }
                }
                let reactor = Reactor {
                    wake: rx,
                    regs: Vec::new(),
                    fds: Vec::new(),
                    dirty: true,
                };
                Ok((reactor, super::Waker { fd: Arc::new(tx) }))
            }

            /// Registers a descriptor (`exclusive` is advisory and ignored
            /// here: `poll` has no exclusive wakeups, accepts just race).
            pub fn register(
                &mut self,
                fd: RawFd,
                token: usize,
                interest: Interest,
                _exclusive: bool,
            ) -> io::Result<()> {
                self.regs.push((fd, token, interest));
                self.dirty = true;
                Ok(())
            }

            /// Changes a registration's interest set.
            pub fn reregister(
                &mut self,
                fd: RawFd,
                token: usize,
                interest: Interest,
            ) -> io::Result<()> {
                for reg in &mut self.regs {
                    if reg.0 == fd {
                        reg.1 = token;
                        reg.2 = interest;
                        self.dirty = true;
                        return Ok(());
                    }
                }
                Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    "descriptor not registered",
                ))
            }

            /// Removes a registration.
            pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
                self.regs.retain(|reg| reg.0 != fd);
                self.dirty = true;
                Ok(())
            }

            /// Blocks until readiness or a wake, appending events to `out`.
            pub fn wait(
                &mut self,
                out: &mut Vec<Event>,
                timeout: Option<Duration>,
            ) -> io::Result<()> {
                out.clear();
                if self.dirty {
                    self.fds.clear();
                    self.fds.push(PollFd {
                        fd: self.wake.as_raw_fd(),
                        events: POLLIN,
                        revents: 0,
                    });
                    for &(fd, _, interest) in &self.regs {
                        let mut events = 0;
                        if interest.readable {
                            events |= POLLIN;
                        }
                        if interest.writable {
                            events |= POLLOUT;
                        }
                        self.fds.push(PollFd {
                            fd,
                            events,
                            revents: 0,
                        });
                    }
                    self.dirty = false;
                }
                for fd in &mut self.fds {
                    fd.revents = 0;
                }
                let timeout_ms: c_int = match timeout {
                    None => -1,
                    Some(d) => d.as_millis().min(c_int::MAX as u128) as c_int,
                };
                // SAFETY: `fds` is a live, correctly-sized local buffer.
                let n =
                    unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as c_ulong, timeout_ms) };
                if n < 0 {
                    let err = io::Error::last_os_error();
                    if err.kind() == io::ErrorKind::Interrupted {
                        return Ok(());
                    }
                    return Err(err);
                }
                if self.fds[0].revents & POLLIN != 0 {
                    super::drain_wake(self.wake.as_raw_fd());
                    out.push(Event {
                        token: WAKE_TOKEN,
                        readable: false,
                        writable: false,
                    });
                }
                for (slot, &(_, token, _)) in self.fds[1..].iter().zip(&self.regs) {
                    let r = slot.revents;
                    if r == 0 {
                        continue;
                    }
                    out.push(Event {
                        token,
                        readable: r & (POLLIN | POLLERR | POLLHUP | POLLNVAL) != 0,
                        writable: r & POLLOUT != 0,
                    });
                }
                Ok(())
            }
        }
    }

    pub use sys::Reactor;

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::io::{Read as _, Write as _};
        use std::net::{TcpListener, TcpStream};
        use std::os::unix::io::AsRawFd;

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
}

#[cfg(not(unix))]
mod imp_fallback {
    use super::{Event, Interest, WAKE_TOKEN};
    use std::io;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::Duration;

    /// How long the shim parks per `wait` when nothing wakes it; bounded
    /// so level-triggered spurious readiness stays responsive.
    const PARK: Duration = Duration::from_micros(200);

    #[derive(Debug, Default)]
    struct WakeState {
        flag: Mutex<bool>,
        cv: Condvar,
    }

    /// Degraded cross-thread waker for the non-Unix shim.
    #[derive(Debug, Clone)]
    pub struct Waker {
        state: Arc<WakeState>,
    }

    impl Waker {
        /// Makes the paired reactor's current (or next) `wait` return.
        pub fn wake(&self) {
            *self.state.flag.lock().unwrap() = true;
            self.state.cv.notify_all();
        }
    }

    /// Timed-poll shim: reports every registration ready each cycle.
    #[derive(Debug)]
    pub struct Reactor {
        state: Arc<WakeState>,
        regs: Vec<(i32, usize, Interest)>,
    }

    impl Reactor {
        /// A reactor and its waker.
        pub fn new() -> io::Result<(Reactor, Waker)> {
            let state = Arc::new(WakeState::default());
            Ok((
                Reactor {
                    state: Arc::clone(&state),
                    regs: Vec::new(),
                },
                Waker { state },
            ))
        }

        /// Records a registration (readiness is simulated).
        pub fn register(
            &mut self,
            fd: i32,
            token: usize,
            interest: Interest,
            _exclusive: bool,
        ) -> io::Result<()> {
            self.regs.push((fd, token, interest));
            Ok(())
        }

        /// Updates a registration.
        pub fn reregister(&mut self, fd: i32, token: usize, interest: Interest) -> io::Result<()> {
            for reg in &mut self.regs {
                if reg.0 == fd {
                    reg.1 = token;
                    reg.2 = interest;
                    return Ok(());
                }
            }
            Err(io::Error::new(
                io::ErrorKind::NotFound,
                "descriptor not registered",
            ))
        }

        /// Removes a registration.
        pub fn deregister(&mut self, fd: i32) -> io::Result<()> {
            self.regs.retain(|reg| reg.0 != fd);
            Ok(())
        }

        /// Parks briefly (or until woken), then reports every registered
        /// token with its full interest as "ready" — a correct but
        /// unprioritized level-triggered approximation.
        pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            out.clear();
            let park = timeout.map_or(PARK, |t| t.min(PARK));
            let mut woken = self.state.flag.lock().unwrap();
            if !*woken {
                let (guard, _timed_out) = self
                    .state
                    .cv
                    .wait_timeout(woken, park)
                    .expect("wake mutex poisoned");
                woken = guard;
            }
            if *woken {
                *woken = false;
                out.push(Event {
                    token: WAKE_TOKEN,
                    readable: false,
                    writable: false,
                });
            }
            drop(woken);
            for &(_, token, interest) in &self.regs {
                out.push(Event {
                    token,
                    readable: interest.readable,
                    writable: interest.writable,
                });
            }
            Ok(())
        }
    }
}
