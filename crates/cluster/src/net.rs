//! TCP transport for the lease protocol, reusing the gateway's versioned
//! wire format (`frap_gateway::proto`, v2 lease frames).
//!
//! The lease plane is low-rate — a handful of frames per node per
//! heartbeat — and the admission hot path never touches any of it.
//! [`CoordServer`] hosts a [`CoordCore`] behind a mutex on one thread
//! blocked in the gateway's readiness [`Reactor`], so it answers a node
//! the moment its bytes arrive; [`LeaseClient`] runs a [`NodeCore`] beat
//! loop over one blocking socket next to whatever `AdmissionService` the
//! node's gateway serves admissions from.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use frap_gateway::proto::{
    Frame, FrameBuffer, Hello, HelloAck, OutBuffer, HELLO_ACK_LEN, HELLO_LEN, MAX_FRAME, VERSION,
};
use frap_gateway::reactor::{Event, Interest, Reactor, Waker, WAKE_TOKEN};

use crate::coord::CoordCore;
use crate::node::{NodeCore, SpentProbe};

/// How long a peer may stay silent through connect and handshake before
/// the connection is given up, on either side: the lease client waits no
/// longer for connect or the ack, and the coordinator's sweep closes a
/// link whose hello has not arrived by then (so a silent peer holds a
/// coordinator socket for at most this plus one [`SWEEP`]). Not the beat
/// `tick`: a coordinator descheduled for a few milliseconds must not make
/// every node drop and redial its handshake.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_millis(50);

/// The coordinator's sweep period: liveness dooms, grace-period reclaims
/// and overdue handshakes are checked this often.
const SWEEP: Duration = Duration::from_millis(10);

/// The coordinator's reactor token for its listener; link tokens start
/// above it.
const LISTENER: usize = 0;
const FIRST_LINK: usize = 1;

/// Lease-plane traffic counters (both directions), shared so a caller
/// can report lease overhead alongside decision throughput.
#[derive(Debug, Default)]
pub struct LinkStats {
    /// Frames written.
    pub frames_out: AtomicU64,
    /// Payload bytes written.
    pub bytes_out: AtomicU64,
    /// Frames read.
    pub frames_in: AtomicU64,
    /// Payload bytes read.
    pub bytes_in: AtomicU64,
}

impl LinkStats {
    fn note_out(&self, frames: u64, bytes: u64) {
        self.frames_out.fetch_add(frames, Ordering::Relaxed);
        self.bytes_out.fetch_add(bytes, Ordering::Relaxed);
    }
    fn note_in(&self, frames: u64, bytes: u64) {
        self.frames_in.fetch_add(frames, Ordering::Relaxed);
        self.bytes_in.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Total frames in both directions.
    pub fn frames(&self) -> u64 {
        self.frames_in.load(Ordering::Relaxed) + self.frames_out.load(Ordering::Relaxed)
    }

    /// Total bytes in both directions.
    pub fn bytes(&self) -> u64 {
        self.bytes_in.load(Ordering::Relaxed) + self.bytes_out.load(Ordering::Relaxed)
    }
}

/// Reads once from `stream` into `buf`. Neither the lease client's read
/// timeout (its loop re-checks its shutdown flag) nor a spurious readiness
/// report on the coordinator's non-blocking socket is an error; EOF is.
fn fill(buf: &mut FrameBuffer, stream: &mut TcpStream) -> std::io::Result<()> {
    use ErrorKind::{Interrupted, TimedOut, WouldBlock};
    match buf.read_from(stream) {
        Ok(0) => Err(ErrorKind::UnexpectedEof.into()),
        Err(e) if !matches!(e.kind(), WouldBlock | TimedOut | Interrupted) => Err(e),
        _ => Ok(()),
    }
}

/// Decodes the next complete frame in `buf`, counting it in `stats`.
fn next_frame(buf: &mut FrameBuffer, stats: &LinkStats) -> std::io::Result<Option<Frame>> {
    let buffered = buf.pending();
    let frame = buf
        .next_frame()
        .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e))?;
    if frame.is_some() {
        stats.note_in(1, (buffered - buf.pending()) as u64);
    }
    Ok(frame)
}

fn write_frames(
    stream: &mut TcpStream,
    frames: &[Frame],
    stats: &LinkStats,
) -> std::io::Result<()> {
    if frames.is_empty() {
        return Ok(());
    }
    let mut out = Vec::new();
    for f in frames {
        f.encode_into(&mut out);
    }
    stats.note_out(frames.len() as u64, out.len() as u64);
    stream.write_all(&out)
}

/// A lease coordinator listening on TCP.
///
/// One thread, blocked in a readiness [`Reactor`] on the listener, every
/// node link and a [`Waker`]. It accepts as connections arrive, answers
/// each hello as soon as it is in, and runs every frame after it through
/// the [`CoordCore`]: answers go back on the link the frame came in on,
/// except steals, which go to the link that last carried a grant for
/// their node. The wait's timeout is the next sweep (liveness dooms,
/// grace-period reclaims, overdue handshakes), every 10 ms.
pub struct CoordServer {
    core: Arc<Mutex<CoordCore>>,
    stats: Arc<LinkStats>,
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    waker: Waker,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl CoordServer {
    /// Binds `addr` and serves `core` until drop.
    pub fn bind<A: ToSocketAddrs>(addr: A, core: CoordCore) -> std::io::Result<CoordServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let (mut reactor, waker) = Reactor::new()?;
        reactor.register(listener.as_raw_fd(), LISTENER, Interest::READ, false)?;

        let core = Arc::new(Mutex::new(core));
        let stats = Arc::new(LinkStats::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let plane = Plane {
            reactor,
            links: Vec::new(),
            free: Vec::new(),
            routes: Vec::new(),
            core: Arc::clone(&core),
            stats: Arc::clone(&stats),
            epoch_zero: Instant::now(),
        };
        let thread = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || plane.run(&listener, &shutdown))
        };

        Ok(CoordServer {
            core,
            stats,
            local_addr,
            shutdown,
            waker,
            thread: Some(thread),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Lease-plane traffic counters.
    pub fn stats(&self) -> &LinkStats {
        &self.stats
    }

    /// The coordinator ledger (for inspection and invariant checks).
    pub fn core(&self) -> &Arc<Mutex<CoordCore>> {
        &self.core
    }
}

impl Drop for CoordServer {
    /// Stops the thread and joins it; it closes the listener and every
    /// link on its way out.
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        self.waker.wake();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// One node connection on the coordinator's reactor.
struct Link {
    stream: TcpStream,
    inbox: FrameBuffer,
    outbox: OutBuffer,
    /// Until the hello is in: when the sweep gives up on the peer.
    hello_due: Option<Instant>,
    /// Whether write interest is registered: exactly while `outbox`
    /// holds bytes.
    want_write: bool,
}

impl Link {
    fn new(stream: TcpStream) -> Link {
        Link {
            stream,
            inbox: FrameBuffer::new(),
            outbox: OutBuffer::new(),
            hello_due: Some(Instant::now() + HANDSHAKE_TIMEOUT),
            want_write: false,
        }
    }

    fn queue(&mut self, frame: &Frame, stats: &LinkStats) {
        stats.note_out(1, self.outbox.push_frame(frame) as u64);
    }
}

/// The coordinator thread's state: its reactor, every link, and where
/// each node slot's steals go.
struct Plane {
    reactor: Reactor,
    /// Link `i` is registered under token `FIRST_LINK + i`.
    links: Vec<Option<Link>>,
    free: Vec<usize>,
    /// Node slot → token of the link that last carried its grant.
    routes: Vec<(u32, usize)>,
    core: Arc<Mutex<CoordCore>>,
    stats: Arc<LinkStats>,
    epoch_zero: Instant,
}

impl Plane {
    fn run(mut self, listener: &TcpListener, shutdown: &AtomicBool) {
        let mut events: Vec<Event> = Vec::new();
        let mut next_sweep = Instant::now() + SWEEP;
        loop {
            let timeout = next_sweep.saturating_duration_since(Instant::now());
            if self.reactor.wait(&mut events, Some(timeout)).is_err()
                || shutdown.load(Ordering::Acquire)
            {
                break;
            }
            for &ev in &events {
                match ev.token {
                    WAKE_TOKEN => {}
                    LISTENER => self.accept(listener),
                    token => self.serve(token, ev),
                }
            }
            let now = Instant::now();
            if now >= next_sweep {
                self.sweep(now);
                next_sweep = now + SWEEP;
            }
        }
        // Returning drops every link, the reactor and (in the caller) the
        // listener: all sockets are closed before `drop` is joined.
    }

    fn now_us(&self) -> u64 {
        self.epoch_zero.elapsed().as_micros() as u64
    }

    /// Accepts every pending connection, each registered for reads under
    /// its own token.
    fn accept(&mut self, listener: &TcpListener) {
        loop {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break, // `WouldBlock`: the backlog is drained
            };
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let slot = self.free.pop().unwrap_or_else(|| {
                self.links.push(None);
                self.links.len() - 1
            });
            let token = FIRST_LINK + slot;
            if self
                .reactor
                .register(stream.as_raw_fd(), token, Interest::READ, false)
                .is_err()
            {
                self.free.push(slot);
                continue;
            }
            self.links[slot] = Some(Link::new(stream));
        }
    }

    /// Serves one readiness report for a link.
    fn serve(&mut self, token: usize, ev: Event) {
        // A link closed earlier in this batch is skipped, or its reused
        // slot served spuriously (a read that would block): both benign.
        let Some(mut link) = self
            .links
            .get_mut(token - FIRST_LINK)
            .and_then(Option::take)
        else {
            return;
        };
        let ok = !ev.readable || self.receive(token, &mut link).is_ok();
        self.settle(token, link, ok);
    }

    /// Reads what `link`'s peer sent and answers it: the hello ack first,
    /// then every complete frame through the core. An error means close.
    fn receive(&mut self, token: usize, link: &mut Link) -> std::io::Result<()> {
        fill(&mut link.inbox, &mut link.stream)?;
        if link.hello_due.is_some() {
            let Some(hello) = link.inbox.peek().first_chunk::<HELLO_LEN>() else {
                return Ok(());
            };
            let hello = Hello::decode(hello)
                .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
            link.inbox.consume(HELLO_LEN);
            let ack = HelloAck {
                version: hello.version.min(VERSION),
                window: 1,
                max_frame: MAX_FRAME as u32,
                server_now_us: self.now_us(),
            };
            link.outbox.extend(&ack.encode());
            link.hello_due = None;
        }
        while let Some(frame) = next_frame(&mut link.inbox, &self.stats)? {
            let out = self
                .core
                .lock()
                .expect("coord poisoned")
                .handle(self.now_us(), &frame);
            for f in out {
                match &f {
                    Frame::LeaseGrant { node, .. } => {
                        // The grant answers this link's node: its slot's
                        // steals come here from now on.
                        self.routes.retain(|&(slot, _)| slot != *node);
                        self.routes.push((*node, token));
                    }
                    Frame::LeaseSteal { node, .. } => {
                        match self.routes.iter().find(|&&(slot, _)| slot == *node) {
                            Some(&(_, to)) if to == token => {}
                            Some(&(_, to)) => {
                                self.forward(to, &f);
                                continue;
                            }
                            // The node is gone: steals are best-effort.
                            None => continue,
                        }
                    }
                    _ => {}
                }
                link.queue(&f, &self.stats);
            }
        }
        Ok(())
    }

    /// Sends `frame` on another link than the one being served.
    fn forward(&mut self, token: usize, frame: &Frame) {
        if let Some(mut link) = self.links[token - FIRST_LINK].take() {
            link.queue(frame, &self.stats);
            self.settle(token, link, true);
        }
    }

    /// Flushes `link` and puts it back in its slot — or closes it if `ok`
    /// is false or the flush fails.
    fn settle(&mut self, token: usize, mut link: Link, ok: bool) {
        if ok
            && link.outbox.flush_to(&mut link.stream).is_ok()
            && self.watch_writes(token, &mut link).is_ok()
        {
            self.links[token - FIRST_LINK] = Some(link);
        } else {
            self.close(token, link);
        }
    }

    /// Asks for write readiness exactly while `link` has bytes queued.
    fn watch_writes(&mut self, token: usize, link: &mut Link) -> std::io::Result<()> {
        let want_write = !link.outbox.is_empty();
        if want_write != link.want_write {
            let interest = Interest {
                readable: true,
                writable: want_write,
            };
            self.reactor
                .reregister(link.stream.as_raw_fd(), token, interest)?;
            link.want_write = want_write;
        }
        Ok(())
    }

    /// Forgets a link (already out of its slot): deregisters it, drops
    /// its routes, and closes its socket.
    fn close(&mut self, token: usize, link: Link) {
        let _ = self.reactor.deregister(link.stream.as_raw_fd());
        self.routes.retain(|&(_, to)| to != token);
        self.free.push(token - FIRST_LINK);
    }

    /// Dooms and reclaims on the coordinator's wall clock, and closes
    /// every link whose hello is overdue.
    fn sweep(&mut self, now: Instant) {
        let now_us = self.now_us();
        let _ = self.core.lock().expect("coord poisoned").on_tick(now_us);
        for slot in 0..self.links.len() {
            let overdue = self.links[slot]
                .as_ref()
                .and_then(|link| link.hello_due)
                .is_some_and(|due| now >= due);
            if overdue {
                let link = self.links[slot].take().expect("overdue link is live");
                self.close(FIRST_LINK + slot, link);
            }
        }
    }
}

/// The node-side lease loop: owns the connection to the coordinator,
/// beats on schedule, and keeps a [`NodeCore`]'s wallet (and therefore
/// the node's shared admission caps) in sync.
///
/// The probe is the node's own `AdmissionService`; the loop never
/// touches its hot path — it only reads utilizations and nudges the
/// shared caps.
pub struct LeaseClient {
    core: Arc<Mutex<NodeCore>>,
    stats: Arc<LinkStats>,
    shutdown: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl LeaseClient {
    /// Starts the lease loop against `coord_addr`. `tick` is the drive
    /// period (use a fraction of the heartbeat; the core rate-limits
    /// itself). The core is ticked every `tick` whether or not a
    /// connection is up, so the lease TTL expires on schedule through an
    /// outage; what a tick wants to send while the link is down is
    /// dropped, as on a lossy link, and every tick without a link redials
    /// with a fresh handshake. A coordinator that accepts and then stays
    /// silent holds a tick up for at most `HANDSHAKE_TIMEOUT` (capped at
    /// the lease TTL).
    pub fn start<P>(
        coord_addr: String,
        core: NodeCore,
        probe: Arc<P>,
        tick: Duration,
    ) -> LeaseClient
    where
        P: SpentProbe + Send + Sync + 'static,
    {
        let patience = HANDSHAKE_TIMEOUT.min(Duration::from_micros(core.lease_ttl_us()));
        let core = Arc::new(Mutex::new(core));
        let stats = Arc::new(LinkStats::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let thread = {
            let core = Arc::clone(&core);
            let stats = Arc::clone(&stats);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || {
                let epoch_zero = Instant::now();
                let mut link: Option<(TcpStream, FrameBuffer)> = None;
                while !shutdown.load(Ordering::Relaxed) {
                    if link.is_none() {
                        link = connect(&coord_addr, patience, tick)
                            .ok()
                            .map(|stream| (stream, FrameBuffer::new()));
                    }
                    let now_us = epoch_zero.elapsed().as_micros() as u64;
                    let out = core.lock().expect("node poisoned").on_tick(now_us, &*probe);
                    let up = match &mut link {
                        Some((stream, reader)) => {
                            exchange(stream, reader, &out, &core, &*probe, &stats, epoch_zero)
                                .is_ok()
                        }
                        None => false,
                    };
                    if !up {
                        link = None;
                        std::thread::sleep(tick);
                    }
                }
            })
        };
        LeaseClient {
            core,
            stats,
            shutdown,
            thread: Some(thread),
        }
    }

    /// The wallet, for inspection.
    pub fn core(&self) -> &Arc<Mutex<NodeCore>> {
        &self.core
    }

    /// Lease-plane traffic counters.
    pub fn stats(&self) -> &Arc<LinkStats> {
        &self.stats
    }
}

impl Drop for LeaseClient {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Connects and completes the handshake, giving a silent peer `patience`
/// at each step; the returned stream reads with a timeout of one `tick`.
fn connect(addr: &str, patience: Duration, tick: Duration) -> std::io::Result<TcpStream> {
    let mut stream = addr
        .to_socket_addrs()?
        .find_map(|a| TcpStream::connect_timeout(&a, patience).ok())
        .ok_or(ErrorKind::ConnectionRefused)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(patience))?;
    stream.write_all(&Hello { version: VERSION }.encode())?;
    let mut ack = [0u8; HELLO_ACK_LEN];
    stream.read_exact(&mut ack)?;
    HelloAck::decode(&ack)
        .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
    stream.set_read_timeout(Some(tick))?;
    Ok(stream)
}

/// One tick on a live link: sends what the tick produced, then drains
/// whatever the coordinator sends until the next tick is due.
fn exchange<P: SpentProbe>(
    stream: &mut TcpStream,
    reader: &mut FrameBuffer,
    out: &[Frame],
    core: &Mutex<NodeCore>,
    probe: &P,
    stats: &LinkStats,
    epoch_zero: Instant,
) -> std::io::Result<()> {
    write_frames(stream, out, stats)?;
    fill(reader, stream)?;
    while let Some(frame) = next_frame(reader, stats)? {
        let now_us = epoch_zero.elapsed().as_micros() as u64;
        let out = core
            .lock()
            .expect("node poisoned")
            .on_frame(now_us, &frame, probe);
        write_frames(stream, &out, stats)?;
    }
    Ok(())
}
