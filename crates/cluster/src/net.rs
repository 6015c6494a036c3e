//! Blocking TCP transport for the lease protocol, reusing the
//! gateway's versioned wire format (`frap_gateway::proto`, v2 lease
//! frames).
//!
//! The lease plane is low-rate — a handful of frames per node per
//! heartbeat — so plain blocking sockets with one thread per node
//! connection are the right tool; the admission hot path never touches
//! any of this. [`CoordServer`] hosts a [`CoordCore`] behind a mutex;
//! [`LeaseClient`] runs a [`NodeCore`] beat loop next to whatever
//! `AdmissionService` the node's gateway serves admissions from.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use frap_gateway::proto::{
    Frame, FrameBuffer, Hello, HelloAck, HELLO_ACK_LEN, HELLO_LEN, MAX_FRAME, VERSION,
};

use crate::coord::CoordCore;
use crate::node::{NodeCore, SpentProbe};

/// How long a peer may stay silent through connect and handshake before
/// the connection is given up, and the coordinator's read timeout after
/// it. Not the beat `tick`: the acceptor polls every 5 ms, so a tick-sized
/// bound would drop and redial handshakes still waiting to be accepted.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_millis(50);

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

/// Reads once from a blocking stream into `buf`. A read timeout is not an
/// error (the caller's loop re-checks its shutdown flag); EOF is.
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
/// One blocking handler thread per node connection plus a periodic
/// sweeper for liveness dooms and grace-period reclaims. Steal frames
/// are routed to their target node's connection through a shared
/// writer registry.
pub struct CoordServer {
    core: Arc<Mutex<CoordCore>>,
    stats: Arc<LinkStats>,
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl CoordServer {
    /// Binds `addr` and serves `core` until drop.
    pub fn bind<A: ToSocketAddrs>(addr: A, core: CoordCore) -> std::io::Result<CoordServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let core = Arc::new(Mutex::new(core));
        let stats = Arc::new(LinkStats::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let writers: Arc<Mutex<Writers>> = Arc::new(Mutex::new(Vec::new()));
        let epoch_zero = Instant::now();
        let mut threads = Vec::new();

        // Sweeper: doom/reclaim on the coordinator's wall clock.
        {
            let core = Arc::clone(&core);
            let shutdown = Arc::clone(&shutdown);
            threads.push(std::thread::spawn(move || {
                while !shutdown.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(10));
                    let now_us = epoch_zero.elapsed().as_micros() as u64;
                    let _ = core.lock().expect("coord poisoned").on_tick(now_us);
                }
            }));
        }

        // Acceptor: spawns one handler thread per node connection.
        {
            let core = Arc::clone(&core);
            let stats = Arc::clone(&stats);
            let shutdown = Arc::clone(&shutdown);
            let writers = Arc::clone(&writers);
            threads.push(std::thread::spawn(move || {
                let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
                while !shutdown.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let core = Arc::clone(&core);
                            let stats = Arc::clone(&stats);
                            let shutdown = Arc::clone(&shutdown);
                            let writers = Arc::clone(&writers);
                            handlers.push(std::thread::spawn(move || {
                                let Ok(peer) = stream.peer_addr() else {
                                    return;
                                };
                                let _ = serve_node_conn(
                                    stream, peer, &core, &stats, &writers, &shutdown, epoch_zero,
                                );
                                writers
                                    .lock()
                                    .expect("writers poisoned")
                                    .retain(|(_, conn, _)| *conn != peer);
                            }));
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => break,
                    }
                }
                for h in handlers {
                    let _ = h.join();
                }
            }));
        }

        Ok(CoordServer {
            core,
            stats,
            local_addr,
            shutdown,
            threads,
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
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Slot → (connection's peer address, stream clone), for routing steals
/// to other nodes. The address names the connection that registered the
/// entry, so a handler removes only its own on exit.
type Writers = Vec<(u32, SocketAddr, TcpStream)>;

fn serve_node_conn(
    mut stream: TcpStream,
    peer: SocketAddr,
    core: &Mutex<CoordCore>,
    stats: &LinkStats,
    writers: &Mutex<Writers>,
    shutdown: &AtomicBool,
    epoch_zero: Instant,
) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    // Before the handshake, so a peer that connects and says nothing
    // cannot park this thread (and `CoordServer::drop`, which joins it).
    stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
    // Handshake: reuse the gateway preamble.
    let mut hello = [0u8; HELLO_LEN];
    stream.read_exact(&mut hello)?;
    let hello = Hello::decode(&hello)
        .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
    let ack = HelloAck {
        version: hello.version.min(VERSION),
        window: 1,
        max_frame: MAX_FRAME as u32,
        server_now_us: epoch_zero.elapsed().as_micros() as u64,
    };
    stream.write_all(&ack.encode())?;

    let mut reader = FrameBuffer::new();
    let mut my_slots: Vec<u32> = Vec::new();
    while !shutdown.load(Ordering::Relaxed) {
        fill(&mut reader, &mut stream)?;
        while let Some(frame) = next_frame(&mut reader, stats)? {
            let now_us = epoch_zero.elapsed().as_micros() as u64;
            let out = core.lock().expect("coord poisoned").handle(now_us, &frame);
            let mut here = Vec::new();
            for f in out {
                match &f {
                    Frame::LeaseGrant { node, .. } => {
                        // The grant answers this connection's node; adopt
                        // the slot and register our stream for steals.
                        if !my_slots.contains(node) {
                            my_slots.push(*node);
                            if let Ok(clone) = stream.try_clone() {
                                let mut w = writers.lock().expect("writers poisoned");
                                w.retain(|(s, _, _)| s != node);
                                w.push((*node, peer, clone));
                            }
                        }
                        here.push(f);
                    }
                    Frame::LeaseSteal { node, .. } if !my_slots.contains(node) => {
                        // Steal aimed at another node: route via its
                        // registered connection; drop it if the node is
                        // gone (steals are best-effort).
                        let mut w = writers.lock().expect("writers poisoned");
                        if let Some((_, _, other)) = w.iter_mut().find(|(s, _, _)| s == node) {
                            let _ = write_frames(other, std::slice::from_ref(&f), stats);
                        }
                    }
                    _ => here.push(f),
                }
            }
            write_frames(&mut stream, &here, stats)?;
        }
    }
    Ok(())
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
