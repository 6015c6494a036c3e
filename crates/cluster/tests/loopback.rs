//! Real-transport tests: a TCP coordinator plus lease clients on
//! loopback, each backing a live admission service. Covers handshake,
//! registration, granting, borrowing, and the conservation ledger — over
//! actual sockets rather than the harness — and what the harness cannot
//! show: a coordinator that goes away, and peers that connect and then
//! say nothing.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use frap_cluster::net::{CoordServer, LeaseClient};
use frap_cluster::{ClusterConfig, CoordCore, NodeCore, SharedStageCaps};
use frap_core::admission::ExactContributions;
use frap_core::lease::{params_fingerprint, StageCaps};
use frap_core::region::FeasibleRegion;
use frap_gateway::proto::{Frame, Hello, HELLO_ACK_LEN, VERSION};
use frap_service::AdmissionService;
use frap_workload::PipelineWorkloadBuilder;

const STAGES: usize = 3;
const NODES: usize = 3;

fn wall_config() -> ClusterConfig {
    ClusterConfig {
        heartbeat_us: 20_000,
        miss_limit: 4,
        lease_ttl_us: 60_000,
        max_delay_us: 50_000,
        max_deadline_us: 1_000_000,
        initial_div: 4,
        borrow_chunk_units: 20_000_000,
        low_water_units: 20_000_000,
        keep_units: 20_000_000,
    }
}

/// The global cap vector and the fingerprint every party presents.
fn region_params() -> (StageCaps, u64) {
    let region = FeasibleRegion::deadline_monotonic(STAGES);
    let caps = StageCaps::inscribed(&region);
    let fp = params_fingerprint(&region, &caps);
    (caps, fp)
}

fn coordinator(addr: &str, cfg: &ClusterConfig) -> std::io::Result<CoordServer> {
    let (caps, fp) = region_params();
    CoordServer::bind(addr, CoordCore::new(cfg.clone(), caps.units(), fp))
}

type Service = AdmissionService<SharedStageCaps, ExactContributions>;

/// A node's admission service and the lease client (5 ms tick) driving
/// its caps from the coordinator at `addr`.
fn node(addr: &str, cfg: &ClusterConfig, node_id: u64) -> (Arc<Service>, LeaseClient) {
    let shared = SharedStageCaps::new(STAGES);
    let service = Arc::new(
        AdmissionService::builder(shared.clone(), ExactContributions)
            .shards(1)
            .build(),
    );
    let core = NodeCore::new(cfg.clone(), node_id, shared, region_params().1);
    let client = LeaseClient::start(
        addr.to_string(),
        core,
        Arc::clone(&service),
        Duration::from_millis(5),
    );
    (service, client)
}

fn granted(client: &LeaseClient) -> bool {
    let core = client.core().lock().expect("node");
    core.caps().units().iter().any(|&u| u > 0)
}

/// Polls `done` every 2 ms for up to `limit`; whether it came true.
fn wait_for(limit: Duration, mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + limit;
    while !done() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    true
}

/// Drops `value` on another thread; whether the drop returned within
/// one second (a wedged drop fails the test instead of hanging it).
fn drops_within_a_second<T: Send + 'static>(value: T) -> bool {
    let (done, dropped) = mpsc::channel();
    std::thread::spawn(move || {
        drop(value);
        let _ = done.send(());
    });
    dropped.recv_timeout(Duration::from_secs(1)).is_ok()
}

#[test]
fn three_node_loopback_cluster_admits_and_conserves() {
    let (caps, _) = region_params();
    let cfg = wall_config();

    let server = coordinator("127.0.0.1:0", &cfg).expect("bind loopback");
    let addr = server.local_addr().to_string();

    let (services, clients): (Vec<_>, Vec<_>) =
        (0..NODES).map(|i| node(&addr, &cfg, i as u64 + 1)).unzip();

    // All three nodes registered and granted within a grace window.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let leases = server.core().lock().expect("coord").lease_count();
        let granted = clients.iter().all(granted);
        if leases == NODES && granted {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "cluster did not converge: {leases}/{NODES} leases, granted = {granted}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Drive admissions round-robin across the nodes; overload ensures
    // rejections once the leased budget is spent.
    let specs: Vec<_> = PipelineWorkloadBuilder::new(STAGES)
        .mean_computation_ms(5.0)
        .resolution(40.0)
        .seed(99)
        .build()
        .specs()
        .take(300)
        .collect();
    let mut admitted = 0u64;
    let mut rejected = 0u64;
    for (i, spec) in specs.iter().enumerate() {
        match services[i % NODES].try_admit(spec) {
            Some(ticket) => {
                admitted += 1;
                ticket.detach();
            }
            None => rejected += 1,
        }
        // Let the lease plane borrow between bursts.
        if i % 50 == 49 {
            std::thread::sleep(Duration::from_millis(25));
        }
    }
    assert!(admitted > 0, "granted nodes must admit work");
    assert!(rejected > 0, "overload must exhaust the leased budget");

    // Safety: aggregate utilization within the global cap vector.
    let mut sum = [0.0; STAGES];
    for service in &services {
        for (j, u) in service.utilizations().into_iter().enumerate() {
            sum[j] += u;
        }
    }
    for (j, (&u, &cap)) in sum.iter().zip(caps.caps()).enumerate() {
        assert!(u <= cap + 1e-6, "stage {j}: {u} exceeds cap {cap}");
    }

    // Ledger exact, lease plane actually trafficked.
    server.core().lock().expect("coord").debug_conservation();
    assert!(
        server.stats().frames() > 0,
        "lease frames should have flowed"
    );
    drop(clients);
}

/// Timing relation 1 of `ClusterConfig` over the real transport: with
/// the coordinator gone the node stops admitting when its lease TTL runs
/// out, and it comes back under a new incarnation once a coordinator
/// listens again.
#[test]
fn lease_expires_on_schedule_while_the_coordinator_is_unreachable() {
    // TTL 60 ms; dead-after stretched to 300 ms so the wall-clock bound
    // below has room for a loaded machine.
    let cfg = ClusterConfig {
        miss_limit: 15,
        ..wall_config()
    };
    let server = coordinator("127.0.0.1:0", &cfg).expect("bind loopback");
    let addr = server.local_addr().to_string();
    let (service, client) = node(&addr, &cfg, 1);
    assert!(
        wait_for(Duration::from_secs(5), || granted(&client)),
        "node was never granted"
    );

    drop(server);
    let gone = Instant::now();
    let expired = wait_for(Duration::from_secs(2), || {
        let core = client.core().lock().expect("node");
        core.counters().expiries >= 1 && core.caps().units().iter().all(|&u| u == 0)
    });
    assert!(
        expired,
        "caps still open 2 s after the coordinator went away"
    );
    let took = gone.elapsed();
    assert!(
        took <= Duration::from_micros(cfg.dead_after_us()),
        "lease expired {took:?} after the coordinator went away, later than dead-after"
    );
    let spec = PipelineWorkloadBuilder::new(STAGES)
        .seed(7)
        .build()
        .specs()
        .next()
        .expect("a spec");
    assert!(
        service.try_admit(&spec).is_none(),
        "a node without a lease must admit nothing"
    );

    // Another test may have been handed the port in the meantime; the
    // comeback is checked only when it can be bound again.
    let Ok(server) = coordinator(&addr, &cfg) else {
        eprintln!("port of {addr} taken, comeback not checked");
        return;
    };
    let back = wait_for(Duration::from_secs(5), || {
        let core = client.core().lock().expect("node");
        core.registered() && core.incarnation() >= 2 && core.caps().units().iter().any(|&u| u > 0)
    });
    assert!(back, "node did not re-register with the new coordinator");
    assert_eq!(server.core().lock().expect("coord").lease_count(), 1);
}

#[test]
fn coordinator_drop_is_not_held_up_by_a_silent_peer() {
    let server = coordinator("127.0.0.1:0", &wall_config()).expect("bind loopback");
    let _silent = TcpStream::connect(server.local_addr()).expect("connect");
    // Long enough for the acceptor to hand the connection to a handler.
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        drops_within_a_second(server),
        "CoordServer::drop waits on a peer that never sent its hello"
    );
}

#[test]
fn lease_client_drop_is_not_held_up_by_a_silent_coordinator() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("addr").to_string();
    let (_service, client) = node(&addr, &wall_config(), 1);
    // Accepts and never writes; redials wait in the listen backlog.
    let _held = listener.accept().expect("accept");
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        drops_within_a_second(client),
        "LeaseClient::drop waits on a coordinator that never acked the hello"
    );
}

/// A handler that gives up on its connection must not leave the steal
/// registry's clone of the stream holding the socket open.
#[test]
fn a_connection_the_coordinator_gives_up_on_is_closed() {
    let server = coordinator("127.0.0.1:0", &wall_config()).expect("bind loopback");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .expect("timeout");
    stream
        .write_all(&Hello { version: VERSION }.encode())
        .expect("hello");
    let mut ack = [0u8; HELLO_ACK_LEN];
    stream.read_exact(&mut ack).expect("hello ack");

    // Register (the grant puts this connection into the registry), then
    // break the protocol with an empty frame.
    let mut bytes = Vec::new();
    Frame::NodeHello {
        node_id: 1,
        incarnation: 1,
        params_fp: region_params().1,
    }
    .encode_into(&mut bytes);
    stream.write_all(&bytes).expect("node hello");
    let mut grant = [0u8; 4];
    stream.read_exact(&mut grant).expect("grant");
    stream.write_all(&[0u8; 4]).expect("empty frame");

    let mut rest = Vec::new();
    stream
        .read_to_end(&mut rest)
        .expect("the coordinator closes the connection");
}

/// A raw peer that has completed the handshake with the coordinator at
/// `addr`.
fn greeted_peer(addr: SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .expect("timeout");
    stream
        .write_all(&Hello { version: VERSION }.encode())
        .expect("hello");
    let mut ack = [0u8; HELLO_ACK_LEN];
    stream.read_exact(&mut ack).expect("hello ack");
    stream
}

/// A connection is accepted and its hello answered as the bytes arrive:
/// no acceptor poll stands between a node's dial and its ack.
#[test]
fn sequential_handshakes_are_answered_on_arrival() {
    let server = coordinator("127.0.0.1:0", &wall_config()).expect("bind loopback");
    let start = Instant::now();
    for _ in 0..20 {
        greeted_peer(server.local_addr());
    }
    let took = start.elapsed();
    assert!(
        took < Duration::from_millis(50),
        "20 sequential handshakes took {took:?}"
    );
}

#[test]
fn a_silent_peer_is_closed_after_the_handshake_timeout() {
    let server = coordinator("127.0.0.1:0", &wall_config()).expect("bind loopback");
    let mut silent = TcpStream::connect(server.local_addr()).expect("connect");
    silent
        .set_read_timeout(Some(Duration::from_secs(1)))
        .expect("timeout");
    let mut byte = [0u8; 1];
    let n = silent
        .read(&mut byte)
        .expect("the coordinator closes a silent peer within a second");
    assert_eq!(n, 0, "a peer that never sent its hello got bytes");
}

#[test]
fn coordinator_drop_closes_every_link() {
    let server = coordinator("127.0.0.1:0", &wall_config()).expect("bind loopback");
    let mut peer = greeted_peer(server.local_addr());
    let mut bytes = Vec::new();
    Frame::NodeHello {
        node_id: 1,
        incarnation: 1,
        params_fp: region_params().1,
    }
    .encode_into(&mut bytes);
    peer.write_all(&bytes).expect("node hello");
    // Read the whole grant, so what follows the drop is the close alone.
    let mut prefix = [0u8; 4];
    peer.read_exact(&mut prefix).expect("grant prefix");
    let mut grant = vec![0u8; u32::from_le_bytes(prefix) as usize];
    peer.read_exact(&mut grant).expect("grant body");

    drop(server);
    peer.set_read_timeout(Some(Duration::from_secs(1)))
        .expect("timeout");
    let mut byte = [0u8; 1];
    let n = peer
        .read(&mut byte)
        .expect("the link is closed by the time drop returns");
    assert_eq!(n, 0, "bytes after the grant");
}
