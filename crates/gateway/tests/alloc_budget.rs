//! Allocation budget of the gateway's admit path, counted by a
//! `#[global_allocator]` over the whole process: once a connection and
//! its worker are warm, a rejected admit request allocates nothing —
//! whether or not its shape was ever seen before — and an admitted one
//! allocates exactly its ledger entry's unit vector.
//!
//! The test thread is the only client and allocates nothing inside a
//! measured window (frames are encoded ahead of it, replies land in a
//! stack buffer), so the tally is the worker's. One `#[test]` holds both
//! windows: a second test thread would allocate into the same tally.
//!
//! Counts are a property of the optimised binary the benchmark measures;
//! CI runs this file with `--release` as well.

use frap_core::admission::ExactContributions;
use frap_core::graph::TaskSpec;
use frap_core::region::FeasibleRegion;
use frap_core::time::TimeDelta;
use frap_core::wire::WireTaskSpec;
use frap_gateway::proto::{
    encode_admit_response, Frame, Hello, Verdict, ADMIT_RESPONSE_MAX, HELLO_ACK_LEN, VERSION,
};
use frap_gateway::server::{GatewayConfig, GatewayServer};
use frap_service::clock::ManualClock;
use frap_service::AdmissionService;
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct CountingAllocator;

/// Allocations (and reallocations) made by any thread.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` unchanged; the tally is one
// relaxed atomic add and never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

type Service = AdmissionService<FeasibleRegion, ExactContributions, Arc<ManualClock>>;

/// Admit requests per wake: one `write` the worker drains in one go.
const WAKE: usize = 40;
/// Every task's deadline: long, so demands of whole milliseconds are
/// small contributions, and on a clock that never moves.
const DEADLINE_US: u64 = 1_000_000_000;

/// A three-stage gateway with one worker (one thread to tally) on a
/// frozen clock, and a greeted raw connection to it.
fn start() -> (GatewayServer, Service, TcpStream) {
    let region = FeasibleRegion::deadline_monotonic(3);
    let service = AdmissionService::builder(region, ExactContributions)
        .clock(Arc::new(ManualClock::new()))
        .shards(1)
        .build();
    let cfg = GatewayConfig {
        workers: 1,
        ..GatewayConfig::default()
    };
    let server = GatewayServer::bind("127.0.0.1:0", service.clone(), cfg).expect("bind loopback");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .write_all(&Hello { version: VERSION }.encode())
        .expect("hello");
    stream
        .read_exact(&mut [0u8; HELLO_ACK_LEN])
        .expect("hello ack");
    (server, service, stream)
}

/// `wakes` × [`WAKE`] admit frames back to back, request `i` asking
/// `demands(i)` microseconds of the three stages; every frame is as long
/// as the first, so wake `w` is the `w`-th equal slice of the bytes.
fn admit_frames(wakes: usize, demands: impl Fn(u64) -> [u64; 3]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for i in 0..(wakes * WAKE) as u64 {
        let task = WireTaskSpec {
            deadline_us: DEADLINE_US,
            stage_demands_us: demands(i).to_vec(),
            importance: 1,
        };
        Frame::encode_admit_request_into(i, u64::MAX, false, &task, &mut bytes);
    }
    bytes
}

/// Sends one wake's frames and reads its [`WAKE`] replies, each
/// `reply_len` bytes, into `replies`; returns each reply's verdict.
fn round_trip(
    stream: &mut TcpStream,
    frames: &[u8],
    reply_len: usize,
    replies: &mut [u8],
) -> [Verdict; WAKE] {
    stream.write_all(frames).expect("send a wake");
    let replies = &mut replies[..WAKE * reply_len];
    stream.read_exact(replies).expect("the wake's replies");
    let mut verdicts = [Verdict::Expired; WAKE];
    for (k, verdict) in verdicts.iter_mut().enumerate() {
        match Frame::decode(&replies[k * reply_len..]).expect("a well-formed reply") {
            Some((Frame::AdmitResponse { verdict: v, .. }, len)) if len == reply_len => {
                *verdict = v;
            }
            other => panic!("reply {k} is not a {reply_len}-byte admit response: {other:?}"),
        }
    }
    verdicts
}

#[test]
fn admit_path_allocation_budget() {
    let mut replies = [0u8; WAKE * ADMIT_RESPONSE_MAX];

    // Window 1: a full region and 20 000 shapes, none ever repeated.
    {
        let (server, service, mut stream) = start();
        // Fill in three passes of ever finer tasks, each until the first
        // refusal: afterwards no task asking half a millisecond or more
        // of every stage fits (the region test is monotone per stage).
        for demand_us in [50_000_000, 5_000_000, 500_000] {
            let demands = [TimeDelta::from_micros(demand_us); 3];
            let filler = TaskSpec::pipeline(TimeDelta::from_micros(DEADLINE_US), &demands);
            let filler = filler.expect("three stages");
            while let Some(ticket) = service.try_admit(&filler) {
                ticket.detach();
            }
        }
        let held = service.utilizations();

        const WARM_UP: usize = 5;
        let wakes = 20_000 / WAKE;
        // No two requests share a first-stage demand, so none share a shape.
        let shape = |i: u64| [500_000 + i, 500_000 + i * 7 % 1_000, 500_000 + i * 13 % 977];
        let frames = admit_frames(WARM_UP + wakes, shape);
        let wake_len = frames.len() / (WARM_UP + wakes);
        let reply_len = encode_admit_response(0, Verdict::Rejected).1;
        let mut wake = frames.chunks_exact(wake_len);
        for frames in wake.by_ref().take(WARM_UP) {
            round_trip(&mut stream, frames, reply_len, &mut replies);
        }

        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for frames in wake {
            let verdicts = round_trip(&mut stream, frames, reply_len, &mut replies);
            assert!(verdicts.iter().all(|v| *v == Verdict::Rejected));
        }
        let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(
            allocated, 0,
            "{allocated} allocations over {wakes} wakes of {WAKE} rejected requests"
        );

        assert_eq!(service.utilizations(), held, "a rejection charges nothing");
        drop(stream);
        let stats = server.shutdown();
        assert_eq!(stats.rejected as usize, (WARM_UP + wakes) * WAKE);
        assert_eq!((stats.bad_requests, stats.protocol_errors), (0, 0));
    }

    // Window 2: an empty region. Each wake's 40 admissions are released
    // before the next (a heartbeat's echo says the releases were read),
    // so the ticket tables stay at their warmed-up size.
    {
        let (server, service, mut stream) = start();
        const WARM_UP: usize = 20;
        let wakes = 100;
        let frames = admit_frames(WARM_UP + wakes, |i| [1_000 + i, 1_000, 1_000]);
        let wake_len = frames.len() / (WARM_UP + wakes);
        let reply_len = encode_admit_response(0, Verdict::Admitted { ticket_id: 0 }).1;
        let mut ack = Vec::new();
        Frame::HeartbeatAck { nonce: 7 }.encode_into(&mut ack);
        let mut releases = Vec::with_capacity(WAKE * 64);
        let mut echoed = vec![0u8; ack.len()];

        let mut allocated = 0;
        for (w, frames) in frames.chunks_exact(wake_len).enumerate() {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let verdicts = round_trip(&mut stream, frames, reply_len, &mut replies);
            releases.clear();
            for verdict in verdicts {
                let Verdict::Admitted { ticket_id } = verdict else {
                    panic!("an empty region refused a tiny task: {verdict:?}");
                };
                Frame::Release { ticket_id }.encode_into(&mut releases);
            }
            Frame::Heartbeat { nonce: 7 }.encode_into(&mut releases);
            stream.write_all(&releases).expect("send releases");
            stream.read_exact(&mut echoed).expect("heartbeat echo");
            assert_eq!(echoed, ack);
            if w >= WARM_UP {
                allocated += ALLOCATIONS.load(Ordering::Relaxed) - before;
            }
        }
        assert_eq!(
            allocated as usize,
            wakes * WAKE,
            "one allocation — the entry's unit vector — per admitted ticket"
        );
        assert_eq!(service.live_tasks(), 0);
        drop(stream);
        server.shutdown();
    }
}
