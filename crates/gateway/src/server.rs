//! The gateway server: a fixed pool of reactor-driven workers
//! multiplexing non-blocking connections with shard-bucketed wake
//! batching and a zero-copy reply path.
//!
//! # Threading model
//!
//! There is no acceptor thread and there are no sleeps. Each of the
//! `workers` **worker** threads owns a [`Reactor`] (epoll on Linux,
//! `poll(2)` on other Unix) and a clone of the listening socket,
//! registered for exclusive readiness — an incoming connect wakes one
//! worker, which accepts directly into its own connection slab. Each
//! worker owns its connections outright: per-connection state
//! (reassembly buffer, segmented reply ring, live ticket table) is plain
//! mutable data with no locks; the only shared state is the admission
//! service itself (which has its own sharding), the gateway's atomic
//! counters, and the open-connection gauge guarded by the condvar that
//! [`GatewayServer::wait_idle`] blocks on. Control-plane transitions
//! (drain, shutdown) reach sleeping workers through each reactor's
//! cross-thread [`Waker`] — a worker blocked in `epoll_wait` with zero
//! traffic costs zero CPU and still reacts to drain immediately.
//!
//! # The wake batch (adaptive batching + shard presort)
//!
//! One reactor wake serves **every** ready connection before any
//! admission work happens: each readable connection is drained to
//! `WouldBlock`, its request bytes landing directly in its reassembly
//! buffer ([`FrameBuffer::read_from`] — no scratch copy) and its admit
//! requests parking as flat [`AdmitHead`]s in a **shared wake arena**.
//! During that same drain pass each request is dropped into a
//! stable-order **bucket list indexed by its connection's target
//! shard** (assigned round-robin at accept). At the end of the wake the
//! buckets resolve in ascending shard order, each through one
//! [`admit_batch_with`](frap_service::AdmissionService::admit_batch_with)
//! call whose requests all name the same shard — the service's
//! uniform-run single-snapshot fast path — and replies are emitted in global
//! arrival order so each connection's responses leave in its request
//! order (the sequence of entry indices is the sequence tag). One clock
//! read classifies the entire wake; counters are tallied locally and
//! published with one atomic add per counter per wake.
//!
//! A parked request is never turned back into a task: arena → view →
//! units → verdict. Each request reaches the service as a
//! [`DemandView`] of its deadline, importance and the slice of the arena
//! its demands decoded into; the service's contribution model turns the
//! view into fixed-point units in one pass and tests those. No task
//! graph is built and no table consulted on the way, so a rejected
//! request allocates nothing and a shape never seen before costs what a
//! repeated one does (`tests/alloc_budget.rs`).
//!
//! The latency bound is the wake itself: a wake with one ready
//! connection resolves and flushes immediately after its drain — there
//! is no timer holding small batches hostage, so an idle gateway
//! answers a lone request with no added delay, while a busy gateway's
//! wakes naturally carry many connections' requests into one resolve
//! and one flush pass. A safety cap (`WAKE_RESOLVE_CAP`) resolves
//! mid-wake if a single wake parks an extreme number of requests, so
//! the arena stays bounded.
//!
//! # Zero-copy replies
//!
//! Responses are encoded **once**, directly into the connection's
//! segmented [`OutRing`]: admit verdicts stamp a handful of fields into
//! an interned response template
//! ([`encode_admit_response`]) and
//! the bytes go straight into ring segments. The flush pass hands the
//! kernel an iovec over the unsent spans with one `writev` per
//! connection per wake in the common case — no coalescing copy, and no
//! memmove when the socket accepts a partial write. Segments recycle
//! through a per-worker [`SegPool`], so steady state allocates nothing
//! and idle connections hold no reply memory at all.
//!
//! # Deadline-aware timeouts
//!
//! Each [`AdmitRequest`](crate::proto::AdmitRequest) carries the absolute
//! server-clock instant at which its transport slack runs out. A request
//! that reaches the front of the pipeline later than that is answered
//! [`Verdict::Expired`] without taking any shard lock — the work is
//! already dead, so the cheapest correct answer is to say so. These are
//! charged to the service's `expired_on_arrival` counter, keeping the
//! networked and in-process demand pictures comparable.
//!
//! # Backpressure
//!
//! The handshake advertises an in-flight **window**. The server bounds
//! each connection's unacknowledged reply bytes to `window` maximum-size
//! admit responses — counting both bytes already in the ring and
//! requests parked in the wake arena — and while a client is not
//! draining its responses the worker drops the connection's *read*
//! interest, so TCP flow control pushes back to the sender instead of
//! the gateway buffering without bound. Read interest returns the moment
//! the reply backlog drains below the window.
//!
//! # Graceful drain
//!
//! [`GatewayServer::drain`] wakes every worker; each deregisters and
//! drops its listener clone (closing the accept queue once the last
//! clone is gone) and the service stops admitting: in-flight requests
//! still get definitive answers (rejections once draining), releases
//! keep working, and every ticket still held for a connection is
//! released by RAII when the connection goes away — including abrupt
//! client disconnects.

use crate::outring::{OutRing, SegPool};
use crate::proto::{
    encode_admit_response, AdmitHead, BatchedFrame, Frame, FrameBuffer, Hello, HelloAck,
    StatsReport, Verdict, ADMIT_RESPONSE_MAX, HELLO_LEN, MAX_FRAME, MAX_STAGES, VERSION,
};
use crate::reactor::{Event, Interest, IoTally, Reactor, Waker, WAKE_TOKEN};
use frap_core::admission::ContributionModel;
use frap_core::demand::DemandView;
use frap_core::region::RegionTest;
use frap_core::time::TimeDelta;
use frap_core::Importance;
use frap_service::{
    AdmissionService, AdmissionTicket, BatchRequest, Clock, ServiceOutcome, TicketHasher,
};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Tunables for [`GatewayServer::bind`].
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Worker threads processing connections. Each runs its own reactor
    /// and accepts directly; there is no separate acceptor thread.
    pub workers: usize,
    /// Per-connection in-flight admission window advertised at handshake.
    pub window: u16,
    /// Liveness cutoff: a connection from which nothing — not even a
    /// [`Frame::Heartbeat`] — has been read for this long is closed,
    /// releasing every ticket it still holds (the lease/cluster layer
    /// relies on this to reconcile capacity held by dead peers). `None`
    /// disables the sweep; traffic of any kind counts as liveness, so
    /// set it to a few heartbeat intervals.
    pub idle_timeout: Option<Duration>,
}

impl Default for GatewayConfig {
    fn default() -> GatewayConfig {
        GatewayConfig {
            workers: 2,
            window: 256,
            idle_timeout: None,
        }
    }
}

/// Monotone gateway-level counters (distinct from the service's own
/// admission counters: these count *transport* events). Hot-path
/// counters are batched in a per-worker [`WakeTally`] and folded in
/// with one atomic add per counter per wake.
#[derive(Debug, Default)]
struct GatewayCounters {
    accepted: AtomicU64,
    closed: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    admitted: AtomicU64,
    rejected: AtomicU64,
    expired_on_arrival: AtomicU64,
    releases: AtomicU64,
    bad_requests: AtomicU64,
    protocol_errors: AtomicU64,
    backpressure_stalls: AtomicU64,
    idle_disconnects: AtomicU64,
    wakeups: AtomicU64,
    read_syscalls: AtomicU64,
    write_syscalls: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
}

/// A point-in-time copy of the gateway's transport counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatewaySnapshot {
    /// Connections accepted since start.
    pub accepted: u64,
    /// Connections closed (disconnect, protocol error, or shutdown).
    pub closed: u64,
    /// Frames decoded off sockets.
    pub frames_in: u64,
    /// Frames written to sockets.
    pub frames_out: u64,
    /// Admit responses carrying a ticket.
    pub admitted: u64,
    /// Admit responses carrying a rejection.
    pub rejected: u64,
    /// Admit responses answered `Expired` (transport slack gone).
    pub expired_on_arrival: u64,
    /// Release frames applied to a live ticket.
    pub releases: u64,
    /// Admit requests whose stage count exceeds the region (answered
    /// `Rejected` without an admission test).
    pub bad_requests: u64,
    /// Connections killed for unparseable or client-inappropriate frames.
    pub protocol_errors: u64,
    /// Times a connection's read interest was dropped because its reply
    /// window was full (TCP backpressure engaged). Counted per stall
    /// episode, not per poll cycle.
    pub backpressure_stalls: u64,
    /// Connections closed by the liveness sweep
    /// ([`GatewayConfig::idle_timeout`]): nothing read for longer than
    /// the cutoff. Their tickets were released on close.
    pub idle_disconnects: u64,
    /// Reactor wakes (`epoll_wait`/`poll` returns) across all workers.
    pub wakeups: u64,
    /// `read(2)` calls issued against connection sockets (including the
    /// trailing `WouldBlock` that ends each drain).
    pub read_syscalls: u64,
    /// `writev`/`write` calls issued against connection sockets.
    pub write_syscalls: u64,
    /// Payload bytes read off connection sockets.
    pub bytes_in: u64,
    /// Payload bytes accepted by connection sockets.
    pub bytes_out: u64,
}

impl GatewaySnapshot {
    /// Total kernel crossings attributable to the datapath: wakes plus
    /// read plus write syscalls. Divided by decisions this is the
    /// benchmark's `gateway.syscalls_per_decision` wire-efficiency row.
    pub fn syscalls(&self) -> u64 {
        self.wakeups + self.read_syscalls + self.write_syscalls
    }
}

struct Shared {
    stop: AtomicBool,
    draining: AtomicBool,
    /// Open-connection gauge; guarded by a mutex (not an atomic) so
    /// [`GatewayServer::wait_idle`] can block on `idle_cv` without a
    /// missed-wakeup race between the last decrement and the wait.
    open_conns: Mutex<usize>,
    idle_cv: Condvar,
    stats: GatewayCounters,
}

impl Shared {
    fn conns_opened(&self, n: usize) {
        *self.open_conns.lock().expect("conn gauge poisoned") += n;
    }

    fn conns_closed(&self, n: usize) {
        if n == 0 {
            return;
        }
        let mut open = self.open_conns.lock().expect("conn gauge poisoned");
        *open -= n;
        if *open == 0 {
            self.idle_cv.notify_all();
        }
    }

    fn snapshot(&self) -> GatewaySnapshot {
        let s = &self.stats;
        GatewaySnapshot {
            accepted: s.accepted.load(Ordering::Relaxed),
            closed: s.closed.load(Ordering::Relaxed),
            frames_in: s.frames_in.load(Ordering::Relaxed),
            frames_out: s.frames_out.load(Ordering::Relaxed),
            admitted: s.admitted.load(Ordering::Relaxed),
            rejected: s.rejected.load(Ordering::Relaxed),
            expired_on_arrival: s.expired_on_arrival.load(Ordering::Relaxed),
            releases: s.releases.load(Ordering::Relaxed),
            bad_requests: s.bad_requests.load(Ordering::Relaxed),
            protocol_errors: s.protocol_errors.load(Ordering::Relaxed),
            backpressure_stalls: s.backpressure_stalls.load(Ordering::Relaxed),
            idle_disconnects: s.idle_disconnects.load(Ordering::Relaxed),
            wakeups: s.wakeups.load(Ordering::Relaxed),
            read_syscalls: s.read_syscalls.load(Ordering::Relaxed),
            write_syscalls: s.write_syscalls.load(Ordering::Relaxed),
            bytes_in: s.bytes_in.load(Ordering::Relaxed),
            bytes_out: s.bytes_out.load(Ordering::Relaxed),
        }
    }
}

/// A running admission gateway bound to a TCP address.
///
/// Construct with [`GatewayServer::bind`]; stop with
/// [`GatewayServer::shutdown`] (dropping the server also shuts it down).
/// The server owns no admission state of its own beyond the per-connection
/// ticket tables — all capacity accounting lives in the
/// [`AdmissionService`] it fronts.
pub struct GatewayServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    drain_service: Arc<dyn Fn() + Send + Sync>,
    wakers: Vec<Waker>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for GatewayServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GatewayServer")
            .field("addr", &self.addr)
            .field("open_conns", &self.open_connections())
            .finish_non_exhaustive()
    }
}

impl GatewayServer {
    /// Binds a listener and starts the reactor worker threads serving
    /// `service`.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error when the address cannot be bound or a
    /// worker's reactor cannot be created, and returns
    /// [`std::io::ErrorKind::InvalidInput`] for a service whose region has
    /// more than [`MAX_STAGES`] stages: no admit frame could address them
    /// all and its [`Frame::StatsResponse`] could not be framed.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.workers` is zero.
    pub fn bind<A, R, M, C>(
        addr: A,
        service: AdmissionService<R, M, C>,
        cfg: GatewayConfig,
    ) -> std::io::Result<GatewayServer>
    where
        A: ToSocketAddrs,
        R: RegionTest + Send + Sync + 'static,
        M: ContributionModel + Send + Sync + 'static,
        C: Clock + 'static,
    {
        assert!(cfg.workers > 0, "at least one worker");
        let stages = service.region().stages();
        if stages > MAX_STAGES {
            let why = format!("a {stages}-stage region exceeds the wire format's {MAX_STAGES}");
            return Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, why));
        }
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            open_conns: Mutex::new(0),
            idle_cv: Condvar::new(),
            stats: GatewayCounters::default(),
        });

        let mut wakers = Vec::with_capacity(cfg.workers);
        let mut workers = Vec::with_capacity(cfg.workers);
        for w in 0..cfg.workers {
            let (reactor, waker) = Reactor::new()?;
            wakers.push(waker);
            // Each worker owns a clone of the listening socket; once every
            // clone is dropped (drain/shutdown) the accept queue closes.
            let listener = listener.try_clone()?;
            let shared = Arc::clone(&shared);
            let service = service.clone();
            let cfg = cfg.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("frap-gateway-worker-{w}"))
                    .spawn(move || worker_loop(&shared, &service, listener, reactor, &cfg, w))
                    .expect("spawn worker"),
            );
        }
        // The workers hold the only remaining listener handles.
        drop(listener);

        let drain_service: Arc<dyn Fn() + Send + Sync> = {
            let service = service.clone();
            Arc::new(move || service.drain())
        };

        Ok(GatewayServer {
            shared,
            addr,
            drain_service,
            wakers,
            workers,
        })
    }

    /// The address the gateway is listening on (useful after binding
    /// port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current transport counters.
    pub fn stats(&self) -> GatewaySnapshot {
        self.shared.snapshot()
    }

    /// Connections currently open.
    pub fn open_connections(&self) -> usize {
        *self.shared.open_conns.lock().expect("conn gauge poisoned")
    }

    /// Begins a graceful drain: every worker is woken to drop its
    /// listener clone (new connects are refused once the last clone
    /// closes), the service stops admitting (in-flight requests get
    /// definitive rejections; releases keep working), and existing
    /// connections are served until they disconnect. Idempotent.
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::Release);
        (self.drain_service)();
        for waker in &self.wakers {
            waker.wake();
        }
    }

    /// Blocks up to `timeout` for every connection to close after a
    /// [`GatewayServer::drain`]. Returns whether the gateway went idle.
    /// The wait parks on a condvar signalled at each connection close —
    /// no polling.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut open = self.shared.open_conns.lock().expect("conn gauge poisoned");
        while *open > 0 {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _timed_out) = self
                .shared
                .idle_cv
                .wait_timeout(open, deadline - now)
                .expect("conn gauge poisoned");
            open = guard;
        }
        true
    }

    /// Drains, stops every thread, and returns the final transport
    /// counters. Connections still open are dropped, which releases
    /// every ticket they held via the RAII ticket machinery.
    pub fn shutdown(mut self) -> GatewaySnapshot {
        self.stop_and_join();
        self.shared.snapshot()
    }

    fn stop_and_join(&mut self) {
        if self.workers.is_empty() {
            // Already stopped (`shutdown` ran; this is its `Drop`).
            return;
        }
        self.drain();
        self.shared.stop.store(true, Ordering::Release);
        for waker in &self.wakers {
            waker.wake();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for GatewayServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// The listener's reactor token; connection tokens start above it.
const LISTENER_TOKEN: usize = 0;
const FIRST_CONN: usize = 1;

/// Entries parked in the wake arena before a mid-wake resolve is forced,
/// bounding arena memory under a pathological wake (a single wake parks
/// at most this many requests plus one connection's final drain).
const WAKE_RESOLVE_CAP: usize = 4096;

/// The reactor key for a socket: its raw descriptor on Unix, the token
/// on the degraded non-Unix shim (which only needs a unique id).
#[cfg(unix)]
fn reactor_key<S: std::os::unix::io::AsRawFd>(sock: &S, _token: usize) -> std::os::unix::io::RawFd {
    sock.as_raw_fd()
}

#[cfg(not(unix))]
fn reactor_key<S>(_sock: &S, token: usize) -> i32 {
    token as i32
}

type TicketMap = HashMap<u64, AdmissionTicket, BuildHasherDefault<TicketHasher>>;

/// Per-connection state owned by exactly one worker.
struct Conn {
    stream: TcpStream,
    inbox: FrameBuffer,
    /// Segmented reply ring; encoded bytes go straight here and leave
    /// via `writev`, touched once in each direction.
    outbox: OutRing,
    /// Tickets admitted on this connection and not yet released. Closing
    /// the connection (disconnect, protocol error, shutdown) releases
    /// them all, as one run.
    tickets: TicketMap,
    greeted: bool,
    /// Target shard for every admit this connection sends, assigned
    /// round-robin at accept. Connection affinity makes each wake bucket
    /// a uniform-target run (the service's single-snapshot fast path)
    /// and makes per-connection reply order trivial to preserve — all of
    /// a connection's requests sit in one bucket, in arrival order.
    shard: usize,
    /// Admit requests parked in the current wake's arena and not yet
    /// resolved; counted against the reply window for backpressure.
    batched: u32,
    /// Whether this connection needs the end-of-wake flush pass.
    dirty: bool,
    /// The interest currently registered with the reactor; reregistration
    /// happens only when the desired interest differs.
    interest: Interest,
    /// When bytes were last read off this connection; the liveness sweep
    /// closes connections whose silence exceeds
    /// [`GatewayConfig::idle_timeout`]. Any traffic counts — a
    /// [`Frame::Heartbeat`] is the cheapest way to stay alive.
    last_heard: Instant,
}

impl Conn {
    fn new(stream: TcpStream, shard: usize) -> Conn {
        Conn {
            stream,
            inbox: FrameBuffer::new(),
            outbox: OutRing::new(),
            tickets: TicketMap::default(),
            greeted: false,
            shard,
            batched: 0,
            dirty: false,
            interest: Interest::READ,
            last_heard: Instant::now(),
        }
    }

    /// Reply bytes this connection would owe if every parked request
    /// resolved right now — the quantity the backpressure window bounds.
    fn projected_outbox(&self) -> usize {
        self.outbox.len() + self.batched as usize * ADMIT_RESPONSE_MAX
    }
}

/// One admit request parked in the wake arena: which connection slot it
/// came from (plus the generation guarding against slot reuse), and the
/// flat-decoded header indexing the shared demand arena. Arena order
/// *is* the sequence tag: entries are appended in arrival order, and
/// emission walks them in that order.
struct Entry {
    slot: u32,
    gen: u32,
    head: AdmitHead,
}

/// Per-worker counter deltas for one wake, folded into the shared
/// atomics with one `fetch_add` per nonzero counter per wake instead of
/// one per frame.
#[derive(Default)]
struct WakeTally {
    io: IoTally,
    frames_in: u64,
    frames_out: u64,
    admitted: u64,
    rejected: u64,
    expired_on_arrival: u64,
    bad_requests: u64,
    releases: u64,
}

impl WakeTally {
    fn publish(&mut self, stats: &GatewayCounters) {
        fn add(counter: &AtomicU64, v: u64) {
            if v > 0 {
                counter.fetch_add(v, Ordering::Relaxed);
            }
        }
        add(&stats.wakeups, self.io.wakeups);
        add(&stats.read_syscalls, self.io.read_calls);
        add(&stats.write_syscalls, self.io.write_calls);
        add(&stats.bytes_in, self.io.bytes_in);
        add(&stats.bytes_out, self.io.bytes_out);
        add(&stats.frames_in, self.frames_in);
        add(&stats.frames_out, self.frames_out);
        add(&stats.admitted, self.admitted);
        add(&stats.rejected, self.rejected);
        add(&stats.expired_on_arrival, self.expired_on_arrival);
        add(&stats.bad_requests, self.bad_requests);
        add(&stats.releases, self.releases);
        *self = WakeTally::default();
    }
}

/// The shared per-wake arena: every ready connection's drain parks its
/// admit requests here, shard-bucketed, and one resolve pass at the end
/// of the wake answers them all.
#[derive(Default)]
struct WakeBatch {
    /// Stage-demand arena the parked heads index into (µs per stage),
    /// and the only place a parked request's demands ever live: the
    /// service reads them here through the view it is lent.
    demands: Vec<u64>,
    /// Parked requests in global arrival order.
    entries: Vec<Entry>,
    /// Entry indices per target shard, each in arrival order. Indexed by
    /// shard id; sized once per worker loop.
    buckets: Vec<Vec<u32>>,
    /// Slots needing the end-of-wake flush pass. May hold stale slots
    /// (closed mid-wake); the connection's `dirty` flag is ground truth.
    dirty: Vec<usize>,
    /// Entry index of each request of the bucket currently resolving
    /// that reaches the admission test, in arrival order.
    lanes: Vec<u32>,
    /// Verdict per entry; `None` until classified/resolved (or forever,
    /// for entries whose connection died before resolution).
    verdicts: Vec<Option<Verdict>>,
    /// Service outcomes for the bucket currently resolving.
    outcomes: Vec<ServiceOutcome>,
    /// Tickets named by the run of `Release` frames being read off one
    /// connection; empty outside [`ingest_ready`].
    releasing: Vec<AdmissionTicket>,
    /// Reusable encode buffer for the rare owned-encode frames
    /// (heartbeat acks, stats responses) so they do not allocate.
    scratch_frame: Vec<u8>,
}

fn worker_loop<R, M, C>(
    shared: &Shared,
    service: &AdmissionService<R, M, C>,
    listener: TcpListener,
    mut reactor: Reactor,
    cfg: &GatewayConfig,
    worker: usize,
) where
    R: RegionTest + Send + Sync + 'static,
    M: ContributionModel + Send + Sync + 'static,
    C: Clock + 'static,
{
    let mut listener = Some(listener);
    if let Some(l) = listener.as_ref() {
        // Exclusive readiness: a pending connect wakes one worker, and
        // level-triggering re-arms the others if it does not drain the
        // queue.
        if reactor
            .register(
                reactor_key(l, LISTENER_TOKEN),
                LISTENER_TOKEN,
                Interest::READ,
                true,
            )
            .is_err()
        {
            listener = None;
        }
    }

    let mut slab: Vec<Option<Conn>> = Vec::new();
    // Generation per slot, bumped at close: parked arena entries carry
    // the generation they were created under, so a slot recycled
    // mid-wake can never receive a dead predecessor's replies.
    let mut gens: Vec<u32> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut events: Vec<Event> = Vec::new();
    let mut batch = WakeBatch::default();
    let shard_count = service.shards();
    batch.buckets.resize_with(shard_count, Vec::new);
    // Stagger the starting shard per worker so two workers' connections
    // do not all pile onto shard 0.
    let mut next_shard = worker % shard_count;
    let mut pool = SegPool::default();
    let mut tally = WakeTally::default();
    // Unacknowledged reply bytes allowed per connection before the worker
    // drops its read interest: the window in maximum-size admit responses.
    let reply_cap = cfg.window as usize * 32;
    // Waking at half the cutoff bounds how late the sweep can notice a
    // dead connection without costing measurable idle CPU.
    let wait_timeout = cfg
        .idle_timeout
        .map(|t| (t / 2).max(Duration::from_millis(1)));

    // Closes one slab connection: deregisters it, bumps the slot's
    // generation (orphaning any entries it parked in the wake arena),
    // releases its tickets as one run (a client vanishing with thousands
    // held must not take the shard lock once per ticket), recycles the
    // slot, and settles the gauges.
    let close_conn = |reactor: &mut Reactor,
                      slab: &mut [Option<Conn>],
                      gens: &mut [u32],
                      free: &mut Vec<usize>,
                      slot: usize| {
        let mut conn = slab[slot].take().expect("conn vanished");
        gens[slot] = gens[slot].wrapping_add(1);
        let _ = reactor.deregister(reactor_key(&conn.stream, FIRST_CONN + slot));
        service.release_batch(conn.tickets.drain().map(|(_, ticket)| ticket));
        free.push(slot);
        shared.stats.closed.fetch_add(1, Ordering::Relaxed);
        shared.conns_closed(1);
    };

    loop {
        if reactor.wait(&mut events, wait_timeout).is_err() {
            break;
        }
        tally.io.wakeups += 1;
        let stopping = shared.stop.load(Ordering::Acquire);
        if stopping || shared.draining.load(Ordering::Acquire) {
            // Deregister before dropping: clones in other workers keep the
            // underlying socket (and with it any stale epoll registration)
            // alive, so removal must be explicit.
            if let Some(l) = listener.take() {
                let _ = reactor.deregister(reactor_key(&l, LISTENER_TOKEN));
            }
        }
        if stopping {
            break;
        }

        for &ev in &events {
            match ev.token {
                WAKE_TOKEN => {} // control-plane flags checked above
                LISTENER_TOKEN => {
                    accept_ready(
                        shared,
                        &mut reactor,
                        &listener,
                        &mut slab,
                        &mut gens,
                        &mut free,
                        &mut next_shard,
                        shard_count,
                    );
                }
                token => {
                    let slot = token - FIRST_CONN;
                    // A stale event for a slot closed (or recycled) earlier
                    // in this batch resolves to a skip or a spurious
                    // `WouldBlock` serve — both benign.
                    if slab.get(slot).and_then(Option::as_ref).is_none() {
                        continue;
                    }
                    if !serve_event(
                        &mut slab, &gens, slot, ev, service, shared, &mut batch, &mut tally,
                        &mut pool, reply_cap, cfg.window,
                    ) {
                        close_conn(&mut reactor, &mut slab, &mut gens, &mut free, slot);
                    }
                }
            }
        }

        // End of wake: answer everything parked — one clock read, one
        // uniform-target admit_batch per nonempty shard bucket — then
        // flush each touched connection once.
        resolve_batch(&mut slab, &gens, service, &mut batch, &mut tally, &mut pool);
        while let Some(slot) = batch.dirty.pop() {
            let flushed = match slab.get_mut(slot).and_then(Option::as_mut) {
                // `dirty` unset: the slot was closed (and possibly
                // reused) after this entry was pushed — nothing owed.
                Some(conn) if conn.dirty => {
                    conn.dirty = false;
                    flush_conn(conn, &mut pool, &mut tally).is_ok()
                }
                _ => continue,
            };
            if !flushed {
                close_conn(&mut reactor, &mut slab, &mut gens, &mut free, slot);
                continue;
            }
            let conn = slab[slot].as_mut().expect("flushed conn is live");
            update_interest(conn, &mut reactor, FIRST_CONN + slot, reply_cap, shared);
        }
        tally.publish(&shared.stats);

        // Liveness sweep: a connection silent past the cutoff is dead to
        // us — close it so its tickets release and (for cluster peers)
        // lease reconciliation can reclaim the capacity it held.
        if let Some(cutoff) = cfg.idle_timeout {
            let now = Instant::now();
            for slot in 0..slab.len() {
                let idle = match slab[slot].as_ref() {
                    Some(conn) => now.saturating_duration_since(conn.last_heard),
                    None => continue,
                };
                if idle > cutoff {
                    shared
                        .stats
                        .idle_disconnects
                        .fetch_add(1, Ordering::Relaxed);
                    close_conn(&mut reactor, &mut slab, &mut gens, &mut free, slot);
                }
            }
        }
    }

    tally.publish(&shared.stats);
    // Worker exit releases every still-held ticket, again as runs.
    service.release_batch(
        slab.iter_mut()
            .flatten()
            .flat_map(|conn| conn.tickets.drain().map(|(_, ticket)| ticket)),
    );
    let dropped = slab.iter().filter(|slot| slot.is_some()).count();
    shared
        .stats
        .closed
        .fetch_add(dropped as u64, Ordering::Relaxed);
    shared.conns_closed(dropped);
}

/// Accepts every pending connection into this worker's slab, assigning
/// each a target shard round-robin.
#[allow(clippy::too_many_arguments)]
fn accept_ready(
    shared: &Shared,
    reactor: &mut Reactor,
    listener: &Option<TcpListener>,
    slab: &mut Vec<Option<Conn>>,
    gens: &mut Vec<u32>,
    free: &mut Vec<usize>,
    next_shard: &mut usize,
    shard_count: usize,
) {
    let Some(listener) = listener.as_ref() else {
        return;
    };
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nodelay(true);
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let slot = free.pop().unwrap_or_else(|| {
                    slab.push(None);
                    gens.push(0);
                    slab.len() - 1
                });
                let token = FIRST_CONN + slot;
                if reactor
                    .register(reactor_key(&stream, token), token, Interest::READ, false)
                    .is_err()
                {
                    free.push(slot);
                    continue;
                }
                slab[slot] = Some(Conn::new(stream, *next_shard));
                *next_shard = (*next_shard + 1) % shard_count;
                shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
                shared.conns_opened(1);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

/// Marks a connection for the end-of-wake flush pass (idempotent).
fn mark_dirty(conn: &mut Conn, slot: usize, dirty: &mut Vec<usize>) {
    if !conn.dirty {
        conn.dirty = true;
        dirty.push(slot);
    }
}

/// Serves one readiness event on a connection: drains the socket to
/// `WouldBlock`, parking admit requests in the wake arena. Returns
/// whether the connection stays open. Replies are not flushed here —
/// the end-of-wake pass does that once per touched connection — except
/// that a writable event triggers an immediate flush of bytes already
/// owed (that is what the event is for).
#[allow(clippy::too_many_arguments)]
fn serve_event<R, M, C>(
    slab: &mut [Option<Conn>],
    gens: &[u32],
    slot: usize,
    ev: Event,
    service: &AdmissionService<R, M, C>,
    shared: &Shared,
    batch: &mut WakeBatch,
    tally: &mut WakeTally,
    pool: &mut SegPool,
    reply_cap: usize,
    window: u16,
) -> bool
where
    R: RegionTest + Send + Sync + 'static,
    M: ContributionModel + Send + Sync + 'static,
    C: Clock + 'static,
{
    {
        let conn = slab[slot].as_mut().expect("serving a live conn");
        mark_dirty(conn, slot, &mut batch.dirty);
        // A writable event means the socket drained below its high-water
        // mark; push owed bytes now so backpressure lifts promptly.
        if ev.writable && !conn.outbox.is_empty() && flush_conn(conn, pool, tally).is_err() {
            return false;
        }
    }

    if ev.readable {
        loop {
            let drained;
            {
                let conn = slab[slot].as_mut().expect("serving a live conn");
                // Reply window full (counting parked requests) and the
                // client not draining: stop reading so TCP pushes back on
                // the sender (interest drops in the flush pass).
                if conn.projected_outbox() >= reply_cap {
                    break;
                }
                let res = conn.inbox.read_from_with_spare(&mut conn.stream);
                tally.io.read_calls += 1;
                match res {
                    Ok((0, _)) => return false,
                    Ok((n, spare)) => {
                        tally.io.bytes_in += n as u64;
                        conn.last_heard = Instant::now();
                        // A short read proves the socket buffer is empty:
                        // skip the confirming read that would only return
                        // `WouldBlock` (level-triggered readiness re-arms
                        // for bytes that arrive later).
                        drained = n < spare;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => return false,
                }
            }
            if !ingest_ready(
                slab, gens, slot, service, shared, batch, tally, pool, window,
            ) {
                return false;
            }
            if drained {
                break;
            }
        }
    }
    true
}

/// Decodes every complete frame buffered on a connection: admit requests
/// park in the wake arena (shard-bucketed, in arrival order), anything
/// else forces the pending arena to resolve first (responses must leave
/// in request order, and a release's capacity effect must land after the
/// admits that precede it) and is then handled inline — except that a
/// contiguous run of `Release` frames is collected and released together
/// when the next other frame, the end of the buffered frames or a
/// protocol error ends it, before anything later is looked at (DESIGN.md
/// §10). Returns `false` on a protocol violation (already counted) that
/// must end the connection.
#[allow(clippy::too_many_arguments)]
fn ingest_ready<R, M, C>(
    slab: &mut [Option<Conn>],
    gens: &[u32],
    slot: usize,
    service: &AdmissionService<R, M, C>,
    shared: &Shared,
    batch: &mut WakeBatch,
    tally: &mut WakeTally,
    pool: &mut SegPool,
    window: u16,
) -> bool
where
    R: RegionTest + Send + Sync + 'static,
    M: ContributionModel + Send + Sync + 'static,
    C: Clock + 'static,
{
    loop {
        // Re-borrowed each iteration so the arms that resolve the shared
        // arena can hand the whole slab to `resolve_batch`.
        let conn = slab[slot].as_mut().expect("serving a live conn");

        // The fixed-size hello precedes all framing.
        if !conn.greeted {
            if conn.inbox.pending() < HELLO_LEN {
                return true;
            }
            let mut hello = [0u8; HELLO_LEN];
            hello.copy_from_slice(&conn.inbox.peek()[..HELLO_LEN]);
            conn.inbox.consume(HELLO_LEN);
            match Hello::decode(&hello) {
                Ok(hello) => {
                    conn.greeted = true;
                    let ack = HelloAck {
                        // Negotiate down to what the client speaks; decode
                        // already rejected anything below MIN_VERSION.
                        version: hello.version.min(VERSION),
                        window,
                        max_frame: MAX_FRAME as u32,
                        server_now_us: service.clock().now().as_micros(),
                    };
                    conn.outbox.append(&ack.encode(), pool);
                }
                Err(_) => {
                    shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    return false;
                }
            }
        }

        let frame = conn.inbox.next_frame_into(&mut batch.demands);
        let in_run = matches!(frame, Ok(Some(BatchedFrame::Other(Frame::Release { .. }))));
        if !in_run && !batch.releasing.is_empty() {
            // The run ends: one call, one shard lock take for all of it.
            tally.releases += batch.releasing.len() as u64;
            service.release_batch(batch.releasing.drain(..));
        }
        match frame {
            Ok(Some(BatchedFrame::Admit(head))) => {
                tally.frames_in += 1;
                let entry = batch.entries.len() as u32;
                batch.buckets[conn.shard].push(entry);
                batch.entries.push(Entry {
                    slot: slot as u32,
                    gen: gens[slot],
                    head,
                });
                conn.batched += 1;
                // Safety valve: an extreme wake resolves mid-drain so the
                // arena cannot grow without bound.
                if batch.entries.len() >= WAKE_RESOLVE_CAP {
                    resolve_batch(slab, gens, service, batch, tally, pool);
                }
            }
            Ok(Some(BatchedFrame::Other(Frame::Release { ticket_id }))) => {
                tally.frames_in += 1;
                // A run of releases reaches the service in one call when
                // it ends; the admits parked ahead of it decide first —
                // once, nothing parks while the run is open.
                if batch.releasing.is_empty() {
                    resolve_batch(slab, gens, service, batch, tally, pool);
                }
                let conn = slab[slot].as_mut().expect("serving a live conn");
                // Ownership check: only this connection's tickets.
                batch.releasing.extend(conn.tickets.remove(&ticket_id));
            }
            Ok(Some(BatchedFrame::Other(frame))) => {
                tally.frames_in += 1;
                resolve_batch(slab, gens, service, batch, tally, pool);
                let conn = slab[slot].as_mut().expect("serving a live conn");
                if !handle_frame(conn, frame, service, tally, pool, &mut batch.scratch_frame) {
                    shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    return false;
                }
            }
            Ok(None) => return true,
            Err(_) => {
                shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                // Answer every frame that arrived ahead of the violation
                // (best effort — the socket is about to close), so the
                // peer learns which of its in-flight requests were
                // decided before the close voids the rest.
                resolve_batch(slab, gens, service, batch, tally, pool);
                let conn = slab[slot].as_mut().expect("serving a live conn");
                conn.dirty = false;
                let _ = flush_conn(conn, pool, tally);
                return false;
            }
        }
    }
}

/// Recomputes the connection's desired readiness interest and
/// reregisters only on change. Dropping read interest is the
/// backpressure stall; each such transition is counted once.
fn update_interest(
    conn: &mut Conn,
    reactor: &mut Reactor,
    token: usize,
    reply_cap: usize,
    shared: &Shared,
) {
    let want = Interest {
        readable: conn.projected_outbox() < reply_cap,
        writable: !conn.outbox.is_empty(),
    };
    if want == conn.interest {
        return;
    }
    if conn.interest.readable && !want.readable {
        shared
            .stats
            .backpressure_stalls
            .fetch_add(1, Ordering::Relaxed);
    }
    if reactor
        .reregister(reactor_key(&conn.stream, token), token, want)
        .is_ok()
    {
        conn.interest = want;
    }
}

/// Resolves every request parked in the wake arena: one clock read
/// classifies all of them, then each nonempty shard bucket goes through
/// one [`admit_batch_with`](AdmissionService::admit_batch_with) call
/// whose requests — views into the arena — are uniformly targeted at
/// that shard: the service's single-snapshot fast path. Refused here,
/// ahead of the service: requests whose transport slack is gone
/// (`Expired`) and tasks with more stages than the region has counters
/// (`Rejected`, counted in `bad_requests`). Replies are emitted in global arrival
/// order, so each connection's responses leave in its request order
/// (verdict-for-verdict what unsorted serial resolution would produce:
/// capacity totals are global, so bucket order cannot change any
/// verdict decided at one instant — the bucketed-vs-unsorted
/// differential test holds the two to that).
fn resolve_batch<R, M, C>(
    slab: &mut [Option<Conn>],
    gens: &[u32],
    service: &AdmissionService<R, M, C>,
    batch: &mut WakeBatch,
    tally: &mut WakeTally,
    pool: &mut SegPool,
) where
    R: RegionTest + Send + Sync + 'static,
    M: ContributionModel + Send + Sync + 'static,
    C: Clock + 'static,
{
    if batch.entries.is_empty() {
        batch.demands.clear();
        return;
    }
    // One clock read for the whole wake: every parked request arrived
    // before this instant, and `admit_batch_with` hoists its own single
    // read per call just the same.
    let now_us = service.clock().now().as_micros();
    let max_stages = service.region().stages();
    batch.verdicts.clear();
    batch.verdicts.resize(batch.entries.len(), None);
    let mut expired = 0u64;

    for shard in 0..batch.buckets.len() {
        if batch.buckets[shard].is_empty() {
            continue;
        }
        // Detach the bucket so the slab and the rest of the batch stay
        // borrowable; its allocation is handed back (cleared) below.
        let bucket = std::mem::take(&mut batch.buckets[shard]);
        batch.lanes.clear();
        for &entry_idx in &bucket {
            let entry = &batch.entries[entry_idx as usize];
            let slot = entry.slot as usize;
            // Connection died (or its slot was recycled) after parking
            // this request: nobody is listening for the answer, and its
            // ticket table is gone — leave the verdict `None`.
            if gens[slot] != entry.gen {
                continue;
            }
            let head = entry.head;
            // Deadline-aware timeout: transport slack already gone means
            // the task cannot possibly meet its deadline; it never
            // reaches a shard.
            if now_us > head.expires_at_us {
                expired += 1;
                batch.verdicts[entry_idx as usize] = Some(Verdict::Expired);
                continue;
            }
            // The one well-formed frame refused here: a task
            // visiting more stages than this service's region models has
            // no counter to charge, so it is answered without an
            // admission test. (Zero stages, or more than the wire's
            // `MAX_STAGES`, never decode; every other demand vector —
            // zero demands, demands beyond the deadline, a zero deadline
            // — is a task the region test itself judges.)
            if head.demands.1 - head.demands.0 > max_stages {
                tally.bad_requests += 1;
                batch.verdicts[entry_idx as usize] = Some(Verdict::Rejected);
                continue;
            }
            batch.lanes.push(entry_idx);
        }

        if !batch.lanes.is_empty() {
            // Each request is the view of its demands where the decoder
            // left them in the arena: nothing is built, copied or looked
            // up between the frame and the units the service charges.
            let (entries, demands, lanes) = (&batch.entries, &batch.demands, &batch.lanes);
            let request = |lane: usize| {
                let head = &entries[lanes[lane] as usize].head;
                let task = DemandView::pipeline(
                    TimeDelta::from_micros(head.deadline_us),
                    Importance::new(head.importance),
                    head.demands_in(demands),
                );
                BatchRequest {
                    allow_shed: head.allow_shed,
                    // Uniform target: the whole bucket hits one shard in
                    // one snapshot/lock acquisition.
                    shard: Some(shard),
                    task,
                }
            };
            batch.outcomes.clear();
            service.admit_batch_with(lanes.len(), request, &mut batch.outcomes);
            for (&entry_idx, outcome) in batch.lanes.iter().zip(batch.outcomes.drain(..)) {
                let slot = batch.entries[entry_idx as usize].slot as usize;
                let conn = slab[slot].as_mut().expect("gen-checked conn is live");
                batch.verdicts[entry_idx as usize] = Some(outcome_verdict(conn, outcome, tally));
            }
        }

        let mut bucket = bucket;
        bucket.clear();
        batch.buckets[shard] = bucket;
    }

    if expired > 0 {
        service.note_expired_on_arrival_n(expired);
        tally.expired_on_arrival += expired;
    }

    // Emission in global arrival order: within one connection that is
    // exactly its request order (its requests all carry ascending entry
    // indices), so pipelined clients see responses in the order they
    // asked.
    for (i, entry) in batch.entries.iter().enumerate() {
        let slot = entry.slot as usize;
        if gens[slot] != entry.gen {
            continue;
        }
        let conn = slab[slot].as_mut().expect("gen-checked conn is live");
        conn.batched -= 1;
        let Some(verdict) = batch.verdicts[i] else {
            continue;
        };
        let (buf, len) = encode_admit_response(entry.head.req_id, verdict);
        conn.outbox.append(&buf[..len], pool);
        tally.frames_out += 1;
        mark_dirty(conn, slot, &mut batch.dirty);
    }

    batch.entries.clear();
    batch.demands.clear();
    batch.verdicts.clear();
}

/// Converts a service outcome into a wire verdict, retaining any ticket
/// in the connection's table.
fn outcome_verdict(conn: &mut Conn, outcome: ServiceOutcome, tally: &mut WakeTally) -> Verdict {
    match outcome {
        ServiceOutcome::Admitted(ticket) => {
            let ticket_id = ticket.id();
            conn.tickets.insert(ticket_id, ticket);
            tally.admitted += 1;
            Verdict::Admitted { ticket_id }
        }
        ServiceOutcome::AdmittedAfterShedding { ticket, shed } => {
            let ticket_id = ticket.id();
            conn.tickets.insert(ticket_id, ticket);
            tally.admitted += 1;
            Verdict::AdmittedAfterShedding {
                ticket_id,
                shed: shed.len() as u32,
            }
        }
        ServiceOutcome::Rejected => {
            tally.rejected += 1;
            Verdict::Rejected
        }
    }
}

/// Writes as much of the connection's reply ring as the socket accepts
/// without blocking — vectored, straight from the ring segments. Errors
/// mean the peer is gone.
fn flush_conn(conn: &mut Conn, pool: &mut SegPool, tally: &mut WakeTally) -> std::io::Result<()> {
    if conn.outbox.is_empty() {
        return Ok(());
    }
    let (written, calls) = conn.outbox.flush_to(&mut conn.stream, pool)?;
    tally.io.write_calls += calls;
    tally.io.bytes_out += written as u64;
    Ok(())
}

/// Applies one non-admit client frame; returns `false` when the frame is
/// a protocol violation that must end the connection.
fn handle_frame<R, M, C>(
    conn: &mut Conn,
    frame: Frame,
    service: &AdmissionService<R, M, C>,
    tally: &mut WakeTally,
    pool: &mut SegPool,
    scratch: &mut Vec<u8>,
) -> bool
where
    R: RegionTest + Send + Sync + 'static,
    M: ContributionModel + Send + Sync + 'static,
    C: Clock + 'static,
{
    match frame {
        // Admit requests park in the wake arena and releases collect
        // into runs; neither reaches here.
        Frame::AdmitRequest(_) | Frame::Release { .. } => {
            unreachable!("admits and releases are taken by ingest_ready")
        }
        Frame::Heartbeat { nonce } => {
            scratch.clear();
            Frame::HeartbeatAck { nonce }.encode_into(scratch);
            conn.outbox.append(scratch, pool);
            tally.frames_out += 1;
            true
        }
        Frame::StatsRequest => {
            let snap = service.snapshot();
            scratch.clear();
            Frame::StatsResponse(StatsReport {
                admitted: snap.counters.admitted,
                rejected: snap.counters.rejected,
                shed: snap.counters.shed,
                released: snap.counters.released,
                expired: snap.counters.expired,
                expired_on_arrival: snap.counters.expired_on_arrival,
                live_tasks: snap.live_tasks as u64,
                utilizations: snap.utilizations,
            })
            .encode_into(scratch);
            conn.outbox.append(scratch, pool);
            tally.frames_out += 1;
            true
        }
        // Server-to-client frames arriving at the server are violations,
        // and so are cluster lease frames: those belong on a connection
        // to a lease *coordinator* (`frap-cluster`), not to the admission
        // gateway.
        Frame::AdmitResponse { .. }
        | Frame::HeartbeatAck { .. }
        | Frame::StatsResponse(_)
        | Frame::NodeHello { .. }
        | Frame::LeaseGrant { .. }
        | Frame::LeaseReturn { .. }
        | Frame::LeaseRequest { .. }
        | Frame::LeaseSteal { .. } => false,
    }
}
