//! End-to-end tests: a real gateway on loopback, real sockets, and the
//! invariants the networked path must preserve — no leaked tickets
//! (including across abrupt disconnects), definitive answers during
//! drain, expired-on-arrival short-circuiting, and enough throughput
//! that batching demonstrably works.

use frap_core::admission::ExactContributions;
use frap_core::region::FeasibleRegion;
use frap_core::time::TimeDelta;
use frap_core::wire::WireTaskSpec;
use frap_core::Importance;
use frap_gateway::client::GatewayClient;
use frap_gateway::proto::{AdmitRequest, Frame, FrameBuffer, Hello, Verdict, VERSION};
use frap_gateway::server::{GatewayConfig, GatewayServer};
use frap_service::{AdmissionService, MonotonicClock};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

type Service = AdmissionService<FeasibleRegion, ExactContributions, MonotonicClock>;

fn start(stages: usize, shards: usize) -> (GatewayServer, Service) {
    let service = AdmissionService::builder(
        FeasibleRegion::deadline_monotonic(stages),
        ExactContributions,
    )
    .shards(shards)
    .build();
    let server = GatewayServer::bind("127.0.0.1:0", service.clone(), GatewayConfig::default())
        .expect("bind loopback");
    (server, service)
}

fn small_task(stages: usize) -> WireTaskSpec {
    WireTaskSpec::new(
        TimeDelta::from_millis(200),
        &vec![TimeDelta::from_millis(2); stages],
        Importance::new(1),
    )
}

/// This process's resident set size in KiB, from `/proc/self/status`.
fn vm_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("VmRSS present");
    line.split_ascii_whitespace()
        .nth(1)
        .expect("VmRSS value")
        .parse()
        .expect("VmRSS is numeric")
}

/// Waits until `live_tasks` drops to zero (releases ride on worker
/// threads, so observation is asynchronous).
fn wait_no_live_tasks(service: &Service, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while service.live_tasks() > 0 {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    true
}

#[test]
fn admit_then_release_round_trip() {
    let (server, service) = start(3, 2);
    let mut client = GatewayClient::connect(server.local_addr()).expect("connect");

    let verdict = client
        .admit(&small_task(3), TimeDelta::from_millis(100), false)
        .expect("admit");
    let ticket_id = verdict.ticket_id().expect("a small task is admitted");
    assert_eq!(service.live_tasks(), 1);

    client.release(ticket_id).expect("release");
    assert!(wait_no_live_tasks(&service, Duration::from_secs(2)));

    let stats = client.stats().expect("stats");
    assert_eq!(stats.admitted, 1);
    assert_eq!(stats.released, 1);
    assert_eq!(stats.live_tasks, 0);
    assert_eq!(stats.utilizations.len(), 3);

    client.heartbeat().expect("heartbeat");
    drop(client);
    server.shutdown();
    service.debug_validate();
}

#[test]
fn abrupt_disconnect_releases_every_held_ticket() {
    let (server, service) = start(2, 2);
    let mut client = GatewayClient::connect(server.local_addr()).expect("connect");

    // A client holding far more than a window's worth: 12 000 tickets of
    // 1 µs over a minute each (the region holds millions), admitted in
    // pipelined chunks and deliberately never released.
    const HELD: usize = 12_000;
    let speck = WireTaskSpec::new(
        TimeDelta::from_secs(60),
        &[TimeDelta::from_micros(1); 2],
        Importance::new(1),
    );
    let mut verdicts = Vec::new();
    for _ in 0..HELD / 1_000 {
        for _ in 0..1_000 {
            client.queue_admit(&speck, TimeDelta::from_secs(30), false);
        }
        client.flush().expect("flush");
        let want = verdicts.len() + 1_000;
        while verdicts.len() < want {
            client.recv_admits_into(&mut verdicts).expect("recv");
        }
    }
    assert!(verdicts.iter().all(|(_, v)| v.is_admitted()));
    assert_eq!(service.live_tasks(), HELD);

    drop(client); // abrupt: tickets still held server-side

    assert!(
        wait_no_live_tasks(&service, Duration::from_secs(5)),
        "disconnect leaked tickets: {} live",
        service.live_tasks()
    );
    let snapshot = server.shutdown();
    assert_eq!(snapshot.protocol_errors, 0);
    let counters = service.counters();
    assert_eq!(counters.released, HELD as u64, "{counters:?}");
    assert_eq!(counters.expired + counters.shed, 0);
    assert_eq!(service.live_tasks(), 0);
    assert!(service.utilizations().iter().all(|&u| u == 0.0));
    service.debug_validate();
}

/// One write carrying `Release×k, Admit×k` against a full region: the
/// run of releases reaches the service before the admits behind it
/// decide, so all `k` fit again — and, nothing else having locked the
/// shard since the first `k` were admitted, the run catches every one of
/// them still on the pending ring.
#[test]
fn a_release_run_frees_the_region_for_the_admits_behind_it() {
    let (server, service) = start(2, 1);
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    raw_handshake(&mut stream);

    // 0.09 per stage against the two-stage bound (~0.382): four fit.
    let quarter = WireTaskSpec::new(
        TimeDelta::from_secs(10),
        &[TimeDelta::from_millis(900); 2],
        Importance::new(1),
    );
    let mut inbox = FrameBuffer::new();
    let mut bytes = Vec::new();
    for req_id in 0..5 {
        Frame::encode_admit_request_into(req_id, u64::MAX, false, &quarter, &mut bytes);
    }
    stream.write_all(&bytes).expect("fill");
    let mut held = Vec::new();
    for req_id in 0..5 {
        match raw_next_frame(&mut stream, &mut inbox) {
            Frame::AdmitResponse {
                req_id: got,
                verdict,
            } => {
                assert_eq!(got, req_id);
                held.extend(verdict.ticket_id());
            }
            other => panic!("expected an admit response, got {other:?}"),
        }
    }
    let k = held.len();
    assert_eq!(k, 4, "the fifth finds the region full");

    bytes.clear();
    for &ticket_id in &held {
        Frame::Release { ticket_id }.encode_into(&mut bytes);
    }
    for req_id in 10..10 + k as u64 {
        Frame::encode_admit_request_into(req_id, u64::MAX, false, &quarter, &mut bytes);
    }
    stream
        .write_all(&bytes)
        .expect("releases and admits in one write");
    for req_id in 10..10 + k as u64 {
        match raw_next_frame(&mut stream, &mut inbox) {
            Frame::AdmitResponse {
                req_id: got,
                verdict,
            } => {
                assert_eq!(got, req_id);
                assert!(verdict.is_admitted(), "request {req_id}: {verdict:?}");
            }
            other => panic!("expected an admit response, got {other:?}"),
        }
    }
    let counters = service.counters();
    assert_eq!(counters.released, k as u64);
    assert_eq!(counters.released_in_ring, k as u64, "{counters:?}");
    assert_eq!(service.live_tasks(), k);

    drop(stream);
    assert!(server.wait_idle(Duration::from_secs(5)));
    let snapshot = server.shutdown();
    assert_eq!(snapshot.protocol_errors, 0);
    assert_eq!(
        snapshot.releases, k as u64,
        "teardown is not a Release frame"
    );
    assert!(wait_no_live_tasks(&service, Duration::from_secs(5)));
    assert_eq!(service.counters().released, 2 * k as u64);
    service.debug_validate();
}

/// A run of releases only ever frees what its own connection holds:
/// unknown ids, a ticket named twice and another connection's ticket are
/// each a no-op, and the other connection's ticket stays live.
#[test]
fn a_release_run_touches_only_its_own_connections_tickets() {
    let (server, service) = start(2, 2);
    let addr = server.local_addr();
    let mut owner = GatewayClient::connect(addr).expect("connect");
    let mut other = GatewayClient::connect(addr).expect("connect");
    let budget = TimeDelta::from_secs(30);
    let theirs = owner
        .admit(&small_task(2), budget, false)
        .expect("admit")
        .ticket_id()
        .expect("admitted");
    let mine = other
        .admit(&small_task(2), budget, false)
        .expect("admit")
        .ticket_id()
        .expect("admitted");

    // One write: a run of four releases, closed by a heartbeat whose ack
    // proves the run was applied.
    other.queue_release(u64::MAX - 1);
    other.queue_release(mine);
    other.queue_release(mine);
    other.queue_release(theirs);
    other.heartbeat().expect("heartbeat behind the run");
    assert_eq!(service.counters().released, 1, "only its own, only once");
    assert_eq!(service.live_tasks(), 1, "the other connection's ticket");

    owner.release(theirs).expect("release");
    owner.heartbeat().expect("heartbeat");
    assert_eq!(service.counters().released, 2);
    assert_eq!(service.live_tasks(), 0);

    drop((owner, other));
    assert!(server.wait_idle(Duration::from_secs(5)));
    let snapshot = server.shutdown();
    assert_eq!(snapshot.protocol_errors, 0);
    assert_eq!(snapshot.releases, 2);
    service.debug_validate();
}

#[test]
fn drain_refuses_new_connections_and_new_admissions() {
    let (server, service) = start(2, 1);
    let addr = server.local_addr();
    let mut client = GatewayClient::connect(addr).expect("connect before drain");

    let verdict = client
        .admit(&small_task(2), TimeDelta::from_millis(100), false)
        .expect("admit before drain");
    let ticket_id = verdict.ticket_id().expect("admitted before drain");

    server.drain();

    // In-flight connections still get definitive answers — rejections for
    // new work, working releases for old work.
    let verdict = client
        .admit(&small_task(2), TimeDelta::from_millis(100), false)
        .expect("admit during drain still answered");
    assert_eq!(verdict, Verdict::Rejected);
    client.release(ticket_id).expect("release during drain");
    assert!(wait_no_live_tasks(&service, Duration::from_secs(2)));

    // New connections are refused once the listener is gone. Give the
    // acceptor a moment to observe the drain flag and drop the listener.
    std::thread::sleep(Duration::from_millis(50));
    let refused = match TcpStream::connect(addr) {
        Err(_) => true,
        // A backlog-accepted socket is still possible; it must then be
        // dead (EOF on the handshake reply).
        Ok(mut stream) => {
            let _ = stream.write_all(&Hello { version: VERSION }.encode());
            let mut byte = [0u8; 1];
            matches!(stream.read(&mut byte), Ok(0) | Err(_))
        }
    };
    assert!(refused, "drained gateway accepted a new connection");

    drop(client);
    let snapshot = server.shutdown();
    assert_eq!(snapshot.protocol_errors, 0);
    service.debug_validate();
}

#[test]
fn transport_slack_gone_is_expired_without_an_admission_test() {
    let (server, service) = start(2, 1);
    // Raw socket: hand-craft a request whose expiry is already past.
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .write_all(&Hello { version: VERSION }.encode())
        .expect("hello");
    let mut ack = [0u8; frap_gateway::proto::HELLO_ACK_LEN];
    stream.read_exact(&mut ack).expect("hello ack");

    std::thread::sleep(Duration::from_millis(2)); // ensure server clock > 1 µs
    let mut out = Vec::new();
    Frame::AdmitRequest(AdmitRequest {
        req_id: 7,
        expires_at_us: 1,
        allow_shed: false,
        task: small_task(2),
    })
    .encode_into(&mut out);
    stream.write_all(&out).expect("send expired request");

    let mut inbox = FrameBuffer::new();
    let mut buf = [0u8; 1024];
    let frame = loop {
        if let Some(frame) = inbox.next_frame().expect("well-formed reply") {
            break frame;
        }
        let n = stream.read(&mut buf).expect("read reply");
        assert_ne!(n, 0, "server closed early");
        inbox.extend(&buf[..n]);
    };
    assert_eq!(
        frame,
        Frame::AdmitResponse {
            req_id: 7,
            verdict: Verdict::Expired
        }
    );

    // Charged as its own counter; the shards never saw it.
    let counters = service.counters();
    assert_eq!(counters.expired_on_arrival, 1);
    assert_eq!(counters.admitted + counters.rejected, 0);
    assert_eq!(service.live_tasks(), 0);

    drop(stream);
    server.shutdown();
}

#[test]
fn a_task_with_more_stages_than_the_region_is_a_bad_request_not_an_error() {
    let (server, service) = start(2, 1);
    let mut client = GatewayClient::connect(server.local_addr()).expect("connect");
    let slack = TimeDelta::from_millis(100);

    // Three stages against a two-stage region: a well-formed frame naming
    // a counter the service does not have. Refused without an admission
    // test — nothing charged, nothing decided, nothing closed.
    let verdict = client.admit(&small_task(3), slack, true).expect("admit");
    assert_eq!(verdict, Verdict::Rejected);
    // A wake publishes its counters after it flushes its replies; the
    // heartbeat's echo comes from a later wake of the same worker.
    client.heartbeat().expect("heartbeat");
    assert_eq!(server.stats().bad_requests, 1);
    assert_eq!(server.stats().protocol_errors, 0);
    assert_eq!(service.utilizations(), vec![0.0, 0.0]);
    assert_eq!(service.live_tasks(), 0);
    assert_eq!(service.counters().decisions(), 0);

    // A zero deadline, by contrast, is a task like any other: an
    // infinite contribution the region test itself turns away.
    let mut no_time = small_task(2);
    no_time.deadline_us = 0;
    let verdict = client.admit(&no_time, slack, false).expect("admit");
    assert_eq!(verdict, Verdict::Rejected);
    client.heartbeat().expect("heartbeat");
    assert_eq!(server.stats().bad_requests, 1);
    assert_eq!(service.counters().rejected, 1);
    assert_eq!(service.utilizations(), vec![0.0, 0.0]);

    // The connection is still there, and the next request on it is
    // decided as if neither had been sent.
    let verdict = client.admit(&small_task(2), slack, false).expect("admit");
    let ticket_id = verdict.ticket_id().expect("a small task is admitted");
    assert_eq!(service.live_tasks(), 1);
    client.release(ticket_id).expect("release");
    assert!(wait_no_live_tasks(&service, Duration::from_secs(2)));

    drop(client);
    let stats = server.shutdown();
    assert_eq!((stats.bad_requests, stats.protocol_errors), (1, 0));
    // `rejected` counts the region test's refusals; the bad request has
    // its own counter.
    assert_eq!((stats.admitted, stats.rejected), (1, 1));
    service.debug_validate();
}

#[test]
fn bad_handshake_closes_the_connection_and_counts_a_protocol_error() {
    let (server, _service) = start(2, 1);
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.write_all(b"NOTFRAP!").expect("garbage hello");
    let mut byte = [0u8; 1];
    assert!(
        matches!(stream.read(&mut byte), Ok(0) | Err(_)),
        "server kept a connection with a bad handshake alive"
    );
    drop(stream);
    let snapshot = server.shutdown();
    assert_eq!(snapshot.protocol_errors, 1);
    assert_eq!(snapshot.admitted, 0);
}

#[test]
fn shedding_over_the_wire_reports_victims() {
    let (server, service) = start(1, 1);
    let mut client = GatewayClient::connect(server.local_addr()).expect("connect");

    // Saturate with low-importance work.
    let cheap = WireTaskSpec::new(
        TimeDelta::from_millis(100),
        &[TimeDelta::from_millis(20)],
        Importance::new(1),
    );
    let mut held = Vec::new();
    loop {
        let verdict = client
            .admit(&cheap, TimeDelta::from_millis(100), false)
            .expect("admit");
        match verdict.ticket_id() {
            Some(id) => held.push(id),
            None => break,
        }
    }
    assert!(!held.is_empty());

    // An important arrival with shedding allowed displaces someone.
    let vip = WireTaskSpec::new(
        TimeDelta::from_millis(100),
        &[TimeDelta::from_millis(20)],
        Importance::new(100),
    );
    let verdict = client
        .admit(&vip, TimeDelta::from_millis(100), true)
        .expect("admit vip");
    match verdict {
        Verdict::AdmittedAfterShedding { shed, .. } => assert!(shed > 0),
        other => panic!("expected shedding, got {other:?}"),
    }
    assert!(service.counters().shed > 0);

    // Releasing an already-shed ticket is a harmless no-op over the wire.
    for id in held {
        client.release(id).expect("release");
    }
    drop(client);
    server.shutdown();
    assert!(wait_no_live_tasks(&service, Duration::from_secs(5)));
    service.debug_validate();
}

/// Completes the hello handshake on a raw stream, returning the ack.
fn raw_handshake(stream: &mut TcpStream) -> frap_gateway::proto::HelloAck {
    stream
        .write_all(&Hello { version: VERSION }.encode())
        .expect("hello");
    let mut ack = [0u8; frap_gateway::proto::HELLO_ACK_LEN];
    stream.read_exact(&mut ack).expect("hello ack");
    frap_gateway::proto::HelloAck::decode(&ack).expect("well-formed ack")
}

/// Reads the next frame off a raw stream.
fn raw_next_frame(stream: &mut TcpStream, inbox: &mut FrameBuffer) -> Frame {
    let mut buf = [0u8; 4096];
    loop {
        if let Some(frame) = inbox.next_frame().expect("well-formed frame") {
            return frame;
        }
        let n = stream.read(&mut buf).expect("read");
        assert_ne!(n, 0, "server closed mid-stream");
        inbox.extend(&buf[..n]);
    }
}

/// A reactor must make a big, mostly-idle connection population cheap:
/// every connection registers once and costs nothing until its socket is
/// actually readable. With 1 000 idle connections parked, the few active
/// ones must still be served promptly and every open/close must be
/// accounted.
#[test]
fn a_thousand_mostly_idle_connections_stay_cheap_and_correct() {
    let (server, service) = start(2, 2);
    let addr = server.local_addr();
    let rss_before_kib = vm_rss_kib();

    let mut clients: Vec<GatewayClient> = (0..1000)
        .map(|i| {
            GatewayClient::connect(addr).unwrap_or_else(|e| panic!("connect #{i} failed: {e}"))
        })
        .collect();

    // While ~99% of the population idles, every 100th connection does a
    // full admit/release round trip and a heartbeat; none of them may
    // stall behind the idle crowd.
    let active = Instant::now();
    for i in (0..clients.len()).step_by(100) {
        let client = &mut clients[i];
        let verdict = client
            .admit(&small_task(2), TimeDelta::from_millis(500), false)
            .expect("admit on an active connection");
        if let Some(ticket_id) = verdict.ticket_id() {
            client.release(ticket_id).expect("release");
        }
        client.heartbeat().expect("heartbeat");
    }
    assert!(
        active.elapsed() < Duration::from_secs(5),
        "active connections starved behind idle ones: {:?}",
        active.elapsed()
    );

    // The parked population must be cheap in memory, not just in CPU: a
    // thousand idle connections (client and server ends both live in
    // this process) budget ~64 KiB each — frame buffers and out buffers
    // shrink back after bursts, so a connection that regressed to
    // pinning buffer high-water marks blows this bound immediately.
    let grown_kib = vm_rss_kib().saturating_sub(rss_before_kib);
    assert!(
        grown_kib < 64 * 1000,
        "1000 mostly-idle connections grew RSS by {grown_kib} KiB (> 64 KiB each)"
    );

    drop(clients);
    assert!(
        server.wait_idle(Duration::from_secs(10)),
        "disconnects not observed"
    );
    let snapshot = server.shutdown();
    assert_eq!(snapshot.accepted, 1000);
    assert_eq!(snapshot.closed, 1000);
    assert_eq!(snapshot.protocol_errors, 0);
    assert!(wait_no_live_tasks(&service, Duration::from_secs(5)));
    service.debug_validate();
}

/// Connects with the kernel receive buffer clamped to 4 KiB **before**
/// the handshake, so the advertised TCP window stays tiny and reply
/// bytes back up after a few kilobytes instead of after megabytes of
/// buffer autotuning. Uses Linux's socket constants, and a raw socket
/// because std offers no pre-connect socket options.
fn connect_with_tiny_recv_buffer(addr: std::net::SocketAddr) -> TcpStream {
    use std::os::unix::io::FromRawFd;
    extern "C" {
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn setsockopt(
            fd: i32,
            level: i32,
            name: i32,
            value: *const std::ffi::c_void,
            len: u32,
        ) -> i32;
        fn connect(fd: i32, addr: *const std::ffi::c_void, len: u32) -> i32;
    }
    const AF_INET: i32 = 2;
    const SOCK_STREAM: i32 = 1;
    const SOL_SOCKET: i32 = 1;
    const SO_RCVBUF: i32 = 8;
    #[repr(C)]
    struct SockaddrIn {
        family: u16,
        port_be: u16,
        addr_be: u32,
        zero: [u8; 8],
    }

    let std::net::SocketAddr::V4(v4) = addr else {
        panic!("loopback gateway binds IPv4");
    };
    let sa = SockaddrIn {
        family: AF_INET as u16,
        port_be: v4.port().to_be(),
        addr_be: u32::from(*v4.ip()).to_be(),
        zero: [0; 8],
    };
    let size: i32 = 4096;
    unsafe {
        let fd = socket(AF_INET, SOCK_STREAM, 0);
        assert!(fd >= 0, "socket() failed");
        let rc = setsockopt(
            fd,
            SOL_SOCKET,
            SO_RCVBUF,
            &size as *const i32 as *const std::ffi::c_void,
            std::mem::size_of::<i32>() as u32,
        );
        assert_eq!(rc, 0, "setsockopt(SO_RCVBUF) failed");
        let rc = connect(
            fd,
            &sa as *const SockaddrIn as *const std::ffi::c_void,
            std::mem::size_of::<SockaddrIn>() as u32,
        );
        assert_eq!(rc, 0, "connect() failed");
        TcpStream::from_raw_fd(fd)
    }
}

/// A client that floods requests but never reads must not make the
/// server buffer replies without bound: once a connection's unwritten
/// reply bytes reach the advertised window's worth, the worker drops
/// read interest (a backpressure stall) and the client's bytes wait in
/// kernel buffers. When the client finally reads, everything resolves
/// in order.
#[test]
fn slow_reader_backpressure_stops_reads_at_the_window() {
    let service =
        AdmissionService::builder(FeasibleRegion::deadline_monotonic(2), ExactContributions)
            .shards(1)
            .build();
    let server = GatewayServer::bind(
        "127.0.0.1:0",
        service.clone(),
        GatewayConfig {
            workers: 1,
            window: 4,
            idle_timeout: None,
        },
    )
    .expect("bind");

    let mut stream = connect_with_tiny_recv_buffer(server.local_addr());
    stream.set_nodelay(true).expect("nodelay");
    raw_handshake(&mut stream);

    // Far more requests than window=4 permits in flight, written without
    // reading a single reply — enough reply bytes (> 7 MB) to overflow
    // the server's send buffer even at the kernel's autotuning ceiling
    // (tcp_wmem max defaults to 4 MB), plus the client's clamped receive
    // buffer.
    let total: u64 = 400_000;
    let task = small_task(2);
    let mut bytes = Vec::new();
    for req_id in 1..=total {
        Frame::encode_admit_request_into(req_id, u64::MAX, false, &task, &mut bytes);
    }
    let mut writer_stream = stream.try_clone().expect("clone stream");
    let writer = std::thread::spawn(move || {
        writer_stream.write_all(&bytes).expect("flood write");
    });

    // Wait for the reply path to wedge: server replies fill the kernel
    // buffers, the outbox backs up past the cap, and the worker stops
    // reading — visible as a backpressure stall in live stats.
    let deadline = Instant::now() + Duration::from_secs(20);
    while server.stats().backpressure_stalls == 0 {
        assert!(
            Instant::now() < deadline,
            "flooding a non-reading client never engaged backpressure"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Now drain: every request still gets its verdict, in order.
    let mut inbox = FrameBuffer::new();
    for expect in 1..=total {
        match raw_next_frame(&mut stream, &mut inbox) {
            Frame::AdmitResponse { req_id, .. } => assert_eq!(req_id, expect),
            other => panic!("expected admit response #{expect}, got {other:?}"),
        }
    }
    writer.join().expect("writer thread");

    drop(stream);
    assert!(server.wait_idle(Duration::from_secs(5)));
    let snapshot = server.shutdown();
    assert_eq!(snapshot.protocol_errors, 0);
    assert!(
        snapshot.backpressure_stalls >= 1,
        "flooding a non-reading client never engaged backpressure"
    );
    assert!(wait_no_live_tasks(&service, Duration::from_secs(5)));
    service.debug_validate();
}

/// Drain and shutdown must complete promptly — workers block in the
/// reactor and are woken explicitly, so there is no polling interval to
/// wait out.
#[test]
fn drain_completes_promptly_with_no_sleeping_workers() {
    let (server, service) = start(2, 1);
    let addr = server.local_addr();
    let mut clients: Vec<GatewayClient> = (0..8)
        .map(|_| GatewayClient::connect(addr).expect("connect"))
        .collect();
    for client in &mut clients {
        client
            .admit(&small_task(2), TimeDelta::from_millis(500), false)
            .expect("admit");
    }

    let begun = Instant::now();
    server.drain();
    drop(clients);
    assert!(
        server.wait_idle(Duration::from_secs(5)),
        "connections lingered after drain"
    );
    let snapshot = server.shutdown();
    // Generous for debug builds and loaded CI, but far below anything a
    // sleep-poll loop with even a 100 ms interval could achieve for
    // 8 connections + drain + join.
    assert!(
        begun.elapsed() < Duration::from_secs(2),
        "drain/wait_idle/shutdown took {:?}",
        begun.elapsed()
    );
    assert_eq!(snapshot.protocol_errors, 0);
    assert!(wait_no_live_tasks(&service, Duration::from_secs(5)));
    service.debug_validate();
}

/// Non-admit frames interleaved into a pipelined burst must flush the
/// pending admit batch first: every response comes back in exactly the
/// order its request was written, with expired-on-arrival verdicts
/// holding their batch position.
#[test]
fn mixed_batches_keep_response_order_and_expiry_position() {
    let (server, service) = start(2, 1);
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    raw_handshake(&mut stream);
    std::thread::sleep(Duration::from_millis(2)); // server clock > 1 µs

    // One write: admit, expired admit, heartbeat, admit, stats request,
    // expired admit.
    let task = small_task(2);
    let mut bytes = Vec::new();
    Frame::encode_admit_request_into(1, u64::MAX, false, &task, &mut bytes);
    Frame::encode_admit_request_into(2, 1, false, &task, &mut bytes);
    Frame::Heartbeat { nonce: 9 }.encode_into(&mut bytes);
    Frame::encode_admit_request_into(3, u64::MAX, false, &task, &mut bytes);
    Frame::StatsRequest.encode_into(&mut bytes);
    Frame::encode_admit_request_into(4, 1, false, &task, &mut bytes);
    stream.write_all(&bytes).expect("burst write");

    let mut inbox = FrameBuffer::new();
    match raw_next_frame(&mut stream, &mut inbox) {
        Frame::AdmitResponse { req_id: 1, verdict } => assert!(verdict.is_admitted()),
        other => panic!("expected response 1, got {other:?}"),
    }
    assert_eq!(
        raw_next_frame(&mut stream, &mut inbox),
        Frame::AdmitResponse {
            req_id: 2,
            verdict: Verdict::Expired
        }
    );
    assert_eq!(
        raw_next_frame(&mut stream, &mut inbox),
        Frame::HeartbeatAck { nonce: 9 }
    );
    match raw_next_frame(&mut stream, &mut inbox) {
        Frame::AdmitResponse { req_id: 3, .. } => {}
        other => panic!("expected response 3, got {other:?}"),
    }
    match raw_next_frame(&mut stream, &mut inbox) {
        Frame::StatsResponse(report) => assert_eq!(report.expired_on_arrival, 1),
        other => panic!("expected stats, got {other:?}"),
    }
    assert_eq!(
        raw_next_frame(&mut stream, &mut inbox),
        Frame::AdmitResponse {
            req_id: 4,
            verdict: Verdict::Expired
        }
    );

    drop(stream);
    assert!(server.wait_idle(Duration::from_secs(5)));
    let snapshot = server.shutdown();
    assert_eq!(snapshot.protocol_errors, 0);
    assert_eq!(service.counters().expired_on_arrival, 2);
    assert!(wait_no_live_tasks(&service, Duration::from_secs(5)));
    service.debug_validate();
}

/// A deterministic trace of admissions and shedding requests, mixing
/// task shapes until the region saturates.
fn differential_trace() -> Vec<(WireTaskSpec, bool)> {
    let mut trace = Vec::new();
    for i in 0..40u64 {
        trace.push((
            WireTaskSpec::new(
                TimeDelta::from_millis(150 + 10 * (i % 4)),
                &[
                    TimeDelta::from_millis(4 + (i % 3)),
                    TimeDelta::from_millis(6),
                ],
                Importance::new(1),
            ),
            false,
        ));
    }
    for i in 0..12u64 {
        trace.push((
            WireTaskSpec::new(
                TimeDelta::from_millis(200),
                &[TimeDelta::from_millis(8), TimeDelta::from_millis(8)],
                Importance::new(5),
            ),
            i % 2 == 0,
        ));
    }
    for _ in 0..8u64 {
        trace.push((
            WireTaskSpec::new(
                TimeDelta::from_millis(400),
                &[TimeDelta::from_millis(1), TimeDelta::from_millis(1)],
                Importance::new(3),
            ),
            false,
        ));
    }
    trace
}

/// One step of a differential run: an admission, or the release of the
/// ticket an earlier admission (by index among the admits) was given —
/// nothing to send if that one was rejected.
enum Step {
    Admit(WireTaskSpec, bool),
    Release(usize),
}

/// The differential trace with `Release` frames mixed in: runs of two,
/// lone releases right behind the admit they free, and tickets named
/// twice. They free capacity mid-trace, so later verdicts depend on
/// every release landing exactly between the admits it was sent between.
fn differential_steps() -> Vec<Step> {
    let mut steps = Vec::new();
    for (n, (task, allow_shed)) in differential_trace().into_iter().enumerate() {
        steps.push(Step::Admit(task, allow_shed));
        if n >= 10 && n % 5 == 0 {
            steps.push(Step::Release(n - 10));
            steps.push(Step::Release(n - 9));
        }
        if n % 7 == 6 {
            steps.push(Step::Release(n));
        }
    }
    steps
}

/// Runs `steps` against a fresh gateway. With `serial` — the verdicts a
/// serial run produced, which is where a pipelined client learns the
/// ticket ids its `Release` frames must name before any reply is in —
/// everything goes out in one write (the server resolves it in large
/// batches and release runs); without, one synchronous frame at a time
/// (batches and runs of one).
fn run_trace(steps: &[Step], serial: Option<&[Verdict]>) -> Vec<Verdict> {
    let (server, service) = start(2, 2);
    let mut client = GatewayClient::connect(server.local_addr()).expect("connect");
    let budget = TimeDelta::from_millis(30_000);
    let admits = steps
        .iter()
        .filter(|s| matches!(s, Step::Admit(..)))
        .count();
    let mut verdicts: Vec<Verdict> = Vec::with_capacity(admits);

    if let Some(serial) = serial {
        for step in steps {
            match step {
                Step::Admit(task, allow_shed) => {
                    client.queue_admit(task, budget, *allow_shed);
                }
                Step::Release(k) => {
                    if let Some(id) = serial[*k].ticket_id() {
                        client.queue_release(id);
                    }
                }
            }
        }
        client.flush().expect("flush");
        let mut batch = Vec::new();
        while verdicts.len() < admits {
            batch.clear();
            client.recv_admits_into(&mut batch).expect("recv");
            verdicts.extend(batch.iter().map(|&(_, v)| v));
        }
    } else {
        for step in steps {
            match step {
                Step::Admit(task, allow_shed) => {
                    verdicts.push(client.admit(task, budget, *allow_shed).expect("admit"));
                }
                Step::Release(k) => {
                    if let Some(id) = verdicts[*k].ticket_id() {
                        client.release(id).expect("release");
                    }
                }
            }
        }
    }

    drop(client);
    assert!(server.wait_idle(Duration::from_secs(5)));
    let snapshot = server.shutdown();
    assert_eq!(snapshot.protocol_errors, 0);
    assert!(wait_no_live_tasks(&service, Duration::from_secs(5)));
    service.debug_validate();
    verdicts
}

/// The acceptance-criteria differential: for a fixed trace, the verdict
/// stream under the reactor's batched resolution is identical — verdict
/// for verdict, ticket id for ticket id, shed count for shed count — to
/// the single-admit path, `Release` frames mixed in and all.
#[test]
fn batched_and_single_admit_paths_yield_identical_verdict_streams() {
    let steps = differential_steps();
    let singles = run_trace(&steps, None);
    let batched = run_trace(&steps, Some(&singles));
    assert_eq!(batched, singles);
    let first_reject = batched.iter().position(|v| matches!(v, Verdict::Rejected));
    assert!(
        batched[first_reject.expect("trace never rejected")..]
            .iter()
            .any(|v| v.is_admitted()),
        "no admit behind the first reject — the releases freed nothing"
    );
    assert!(
        batched.iter().any(|v| v.is_admitted()),
        "trace never admitted — differential is vacuous"
    );
    assert!(
        batched.iter().any(|v| matches!(v, Verdict::Rejected)),
        "trace never rejected — differential is vacuous"
    );
}

/// The multi-connection differential: the same global arrival order,
/// once spread across four connections of a two-shard service, and once
/// down a single connection resolved request by request, must produce
/// the identical verdict stream — which connection a request arrives on
/// changes neither what is decided nor the per-connection reply order.
#[test]
fn multi_connection_drain_matches_serial_resolve() {
    let trace = differential_trace();
    let admit_only: Vec<Step> = trace
        .iter()
        .map(|(task, allow_shed)| Step::Admit(task.clone(), *allow_shed))
        .collect();
    let want = run_trace(&admit_only, None);

    let (server, service) = start(2, 2);
    let addr = server.local_addr();
    let mut clients: Vec<GatewayClient> = (0..4)
        .map(|_| GatewayClient::connect(addr).expect("connect"))
        .collect();
    let budget = TimeDelta::from_millis(30_000);

    // Chunks go round-robin across the connections; each chunk lands in
    // one write (one wake batch) and is drained fully before the next
    // chunk anywhere, so the global arrival order is exactly the
    // trace's.
    let mut got: Vec<Verdict> = Vec::with_capacity(trace.len());
    for (k, chunk) in trace.chunks(7).enumerate() {
        let client = &mut clients[k % 4];
        let mut expect: Vec<u64> = chunk
            .iter()
            .map(|(task, allow_shed)| client.queue_admit(task, budget, *allow_shed))
            .collect();
        client.flush().expect("flush");
        let mut replies = Vec::new();
        while replies.len() < chunk.len() {
            client.recv_admits_into(&mut replies).expect("recv");
        }
        // Reply order on a connection is request order, always.
        for (&(req_id, verdict), want_id) in replies.iter().zip(expect.drain(..)) {
            assert_eq!(req_id, want_id, "reply out of order on conn {}", k % 4);
            got.push(verdict);
        }
    }
    assert_eq!(
        got, want,
        "multi-connection drain diverged from serial resolve"
    );

    // A poisoned connection: two dead-on-arrival admits, then garbage.
    // The frames before the poison are answered in order, the
    // connection is closed with one protocol error, and the healthy
    // connections keep working — the blast radius is one socket.
    let mut bad = TcpStream::connect(addr).expect("connect");
    bad.set_nodelay(true).expect("nodelay");
    raw_handshake(&mut bad);
    std::thread::sleep(Duration::from_millis(2)); // server clock > 1 µs
    let task = small_task(2);
    let mut bytes = Vec::new();
    Frame::encode_admit_request_into(1, 1, false, &task, &mut bytes);
    Frame::encode_admit_request_into(2, 1, true, &task, &mut bytes);
    bytes.extend_from_slice(&[16, 0, 0, 0]); // declared length 16...
    bytes.extend_from_slice(&[0xFF; 16]); // ...of an unknown frame type
    bad.write_all(&bytes).expect("poisoned burst");
    let mut inbox = FrameBuffer::new();
    for req_id in [1u64, 2] {
        assert_eq!(
            raw_next_frame(&mut bad, &mut inbox),
            Frame::AdmitResponse {
                req_id,
                verdict: Verdict::Expired
            }
        );
    }
    let mut rest = Vec::new();
    bad.read_to_end(&mut rest)
        .expect("server closes after poison");
    assert!(rest.is_empty(), "no replies may follow the poison");

    for client in &mut clients {
        client
            .heartbeat()
            .expect("healthy conn survived the poison");
    }
    drop(clients);
    assert!(server.wait_idle(Duration::from_secs(5)));
    let snapshot = server.shutdown();
    assert_eq!(snapshot.protocol_errors, 1);
    assert!(wait_no_live_tasks(&service, Duration::from_secs(5)));
    service.debug_validate();
}

/// Batched pipelining over loopback must clear 100k decisions/s in a
/// release build (the benchmark's `gw_*` workloads measure the real
/// figure; this in-test floor is relaxed under `debug_assertions` where the
/// per-decision cost is dominated by unoptimized code, not the wire).
#[test]
fn loopback_throughput_clears_the_floor() {
    let floor = if cfg!(debug_assertions) {
        15_000.0
    } else {
        100_000.0
    };
    let decisions_target: u64 = if cfg!(debug_assertions) {
        40_000
    } else {
        200_000
    };

    let (server, service) = start(3, 2);
    let addr = server.local_addr();
    let task = small_task(3);

    let clients: Vec<_> = (0..2)
        .map(|_| {
            let task = task.clone();
            std::thread::spawn(move || {
                let mut client = GatewayClient::connect(addr).expect("connect");
                let window = (client.window() as usize).clamp(1, 128);
                let mut inflight = std::collections::VecDeque::with_capacity(window);
                let mut done = 0u64;
                let per_client = decisions_target / 2;
                while done < per_client {
                    while inflight.len() < window {
                        let id = client.queue_admit(&task, TimeDelta::from_millis(500), false);
                        inflight.push_back(id);
                    }
                    client.flush().expect("flush");
                    while inflight.len() > window / 2 {
                        let expect = inflight.pop_front().expect("non-empty");
                        let (req_id, verdict) = client.recv_admit().expect("recv");
                        assert_eq!(req_id, expect);
                        if let Some(ticket_id) = verdict.ticket_id() {
                            client.queue_release(ticket_id);
                        }
                        done += 1;
                    }
                }
                client.flush().expect("flush");
                while let Some(expect) = inflight.pop_front() {
                    let (req_id, verdict) = client.recv_admit().expect("recv");
                    assert_eq!(req_id, expect);
                    if let Some(ticket_id) = verdict.ticket_id() {
                        client.queue_release(ticket_id);
                    }
                    done += 1;
                }
                client.flush().expect("flush");
                done
            })
        })
        .collect();

    let started = Instant::now();
    let total: u64 = clients.into_iter().map(|c| c.join().expect("client")).sum();
    let rate = total as f64 / started.elapsed().as_secs_f64();
    assert!(
        rate >= floor,
        "sustained only {rate:.0} decisions/s (< {floor:.0})"
    );

    server.drain();
    assert!(server.wait_idle(Duration::from_secs(5)));
    let snapshot = server.shutdown();
    assert_eq!(snapshot.protocol_errors, 0);
    assert!(wait_no_live_tasks(&service, Duration::from_secs(5)));
    service.debug_validate();
}

#[test]
fn a_region_with_more_stages_than_a_frame_can_carry_is_refused_at_bind() {
    let service = |stages| {
        AdmissionService::builder(
            FeasibleRegion::deadline_monotonic(stages),
            ExactContributions,
        )
        .build()
    };
    let limit = frap_gateway::proto::MAX_STAGES;
    let refused = GatewayServer::bind("127.0.0.1:0", service(limit + 1), GatewayConfig::default())
        .expect_err("no admit frame addresses stage 1025");
    assert_eq!(refused.kind(), std::io::ErrorKind::InvalidInput);
    // The limit itself is served, stats frame included.
    let server = GatewayServer::bind("127.0.0.1:0", service(limit), GatewayConfig::default())
        .expect("bind loopback");
    let mut client = GatewayClient::connect(server.local_addr()).expect("connect");
    assert_eq!(client.stats().expect("stats").utilizations.len(), limit);
    assert_eq!(server.shutdown().protocol_errors, 0);
}
