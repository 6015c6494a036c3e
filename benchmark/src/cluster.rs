//! `cluster_shift`: a lease coordinator and two leased gateway nodes, one
//! generator thread with one connection per node, open loop only at 200k
//! requests/s in total. Nine requests in ten go to the hot node, so it
//! needs about 70 % of the global cap and the cold node about 8 %; which
//! node is hot flips every 2 s. Before that, an oracle pass sends the
//! same arrivals to one un-leased gateway holding the full cap. The only
//! workload where lease grant / borrow / steal / return and
//! `SharedStageCaps` gating decide verdicts.
//!
//! Saturating a two-node cluster on two cores would measure the
//! scheduler, hence no closed-loop phase. Every thread shares one CPU (see
//! `env::pin_current_thread`).

use crate::hostref::{self, HostRef};
use crate::json::Json;
use crate::layers::Replay;
use crate::openloop::Schedule;
use crate::report::Report;
use crate::stats::{median, LatencySummary, Recorder};
use crate::trace::{NoTrace, Tracer, Tracing, ROOT};
use crate::wire::{
    Catalog, LoopSpans, Tally, LATENCY_WINDOWS, OPEN_INFLIGHT_CAP, TRANSPORT_BUDGET_US,
};
use crate::{env, gw, Ctx};
use frap_cluster::net::{CoordServer, LeaseClient};
use frap_cluster::{ClusterConfig, CoordCore, NodeCore, SharedStageCaps};
use frap_core::admission::ExactContributions;
use frap_core::lease::{params_fingerprint, utilization_from_units, StageCaps};
use frap_core::region::FeasibleRegion;
use frap_gateway::client::GatewayClient;
use frap_gateway::proto::{Frame, Verdict};
use frap_gateway::server::{GatewayConfig, GatewayServer, GatewaySnapshot};
use frap_service::AdmissionService;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

const STAGES: usize = gw::STAGES;
const NODES: usize = 2;
const RATE: f64 = 200_000.0;
/// How long an admitted ticket is held before its `Release` is sent.
/// Sized so the hot node's 180k requests/s keep about 60 tasks live:
/// 60 × 0.0033 (20 µs over 6 ms) ≈ 0.19 of utilization per stage, 70 %
/// of the 0.279 cap.
const HOLD_US: u64 = 300;
/// One request in this many goes to the cold node.
const COLD_ONE_IN: u64 = 10;
const FLIP_SECS: f64 = 2.0;
const SETUP_REPS: usize = 5;
const SAMPLE_EVERY_NS: u64 = 50_000_000;
/// Admit-rate buckets for `cluster.rebalance_ms`.
const BUCKET_NS: u64 = 10_000_000;

type NodeService = AdmissionService<SharedStageCaps, ExactContributions>;

/// Wall-clock lease timing for loopback, as `cluster-loadgen` uses: fast
/// beats so borrowing keeps up, a TTL well above scheduler jitter, and a
/// `max_deadline` covering the workload's deadlines.
fn cluster_config() -> ClusterConfig {
    ClusterConfig {
        heartbeat_us: 20_000,
        miss_limit: 4,
        lease_ttl_us: 80_000,
        max_delay_us: 50_000,
        max_deadline_us: 1_000_000,
        initial_div: 4,
        borrow_chunk_units: 20_000_000,
        low_water_units: 20_000_000,
        keep_units: 20_000_000,
    }
}

struct Node {
    server: GatewayServer,
    service: NodeService,
    lease: LeaseClient,
}

/// Coordinator, two leased nodes, and one connection to each.
struct ClusterRig {
    catalog: Catalog,
    coord: CoordServer,
    nodes: Vec<Node>,
    clients: Vec<GatewayClient>,
    connect_us: f64,
}

fn gateway_config() -> GatewayConfig {
    GatewayConfig {
        workers: 1,
        window: gw::WINDOW,
        idle_timeout: None,
    }
}

fn catalog(seed: u64) -> Catalog {
    // gw_admit_release-shaped tasks.
    Catalog::from_specs(
        gw::workload_builder(&gw::ADMIT_RELEASE, seed)
            .build()
            .specs()
            .take(4096)
            .collect(),
    )
}

fn build_cluster(seed: u64) -> Result<ClusterRig, String> {
    let io = |e: std::io::Error| format!("cluster_shift: I/O error: {e}");
    let catalog = catalog(seed);
    let region = FeasibleRegion::deadline_monotonic(STAGES);
    let caps = StageCaps::inscribed(&region);
    let cfg = cluster_config();
    let fp = params_fingerprint(&region, &caps);
    let coord = CoordServer::bind("127.0.0.1:0", CoordCore::new(cfg.clone(), caps.units(), fp))
        .map_err(io)?;
    let coord_addr = coord.local_addr().to_string();
    let mut nodes = Vec::with_capacity(NODES);
    for i in 0..NODES {
        let shared = SharedStageCaps::new(STAGES);
        let service = AdmissionService::builder(shared.clone(), ExactContributions)
            .shards(1)
            .build();
        let server =
            GatewayServer::bind("127.0.0.1:0", service.clone(), gateway_config()).map_err(io)?;
        let lease = LeaseClient::start(
            coord_addr.clone(),
            NodeCore::new(cfg.clone(), i as u64 + 1, shared, fp),
            Arc::new(service.clone()),
            Duration::from_millis(5),
        );
        nodes.push(Node {
            server,
            service,
            lease,
        });
    }
    // Lease warm-up: every node registered and holding budget.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let leases = coord
            .core()
            .lock()
            .expect("coordinator poisoned")
            .lease_count();
        let granted = nodes.iter().all(|n| {
            let core = n.lease.core().lock().expect("node poisoned");
            core.caps().units().iter().all(|&u| u > 0)
        });
        if leases == NODES && granted {
            break;
        }
        if Instant::now() >= deadline {
            return Err(format!(
                "cluster did not converge: {leases}/{NODES} leases, granted={granted}"
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let t = Instant::now();
    let mut clients = Vec::with_capacity(NODES);
    for node in &nodes {
        clients.push(GatewayClient::connect(node.server.local_addr()).map_err(io)?);
    }
    let connect_us = t.elapsed().as_secs_f64() * 1e6 / NODES as f64;
    Ok(ClusterRig {
        catalog,
        coord,
        nodes,
        clients,
        connect_us,
    })
}

/// One connection's generator-side state.
struct Conn {
    client: GatewayClient,
    /// `(due_ns, request id)` of requests sent and not yet answered.
    inflight: VecDeque<(u64, u64)>,
    /// `(release_at_ns, ticket)` of admitted tickets being held.
    holds: VecDeque<(u64, u64)>,
    tally: Tally,
    /// Admits per 10 ms bucket.
    admit_buckets: Vec<u32>,
    dirty: bool,
}

impl Conn {
    fn new(client: GatewayClient, buckets: usize) -> Conn {
        Conn {
            client,
            inflight: VecDeque::with_capacity(OPEN_INFLIGHT_CAP),
            holds: VecDeque::with_capacity(1024),
            tally: Tally::default(),
            admit_buckets: vec![0; buckets + 2],
            dirty: false,
        }
    }
}

/// What one open-loop pass reports.
struct Pass {
    tallies: Vec<Tally>,
    rtt: LatencySummary,
    lateness: LatencySummary,
    wall_s: f64,
    cpu_ns: u64,
    /// Time the generator spent spinning with nothing due.
    spin_ns: u64,
    gen_cpu_ns: u64,
    admit_buckets: Vec<Vec<u32>>,
    /// Samples at which the summed utilization left the global region.
    outside: u64,
    samples: u64,
    clients: Vec<GatewayClient>,
}

impl Pass {
    fn total(&self) -> Tally {
        let mut t = Tally::default();
        for tally in &self.tallies {
            t.add(tally);
        }
        t
    }
}

/// Which connection request `i` goes to, when `hot` is the hot node.
fn route(i: u64, hot: usize) -> usize {
    if i % COLD_ONE_IN == COLD_ONE_IN - 1 {
        1 - hot
    } else {
        hot
    }
}

/// The open-loop generator: one thread, one connection per target, a
/// fixed 200k/s schedule, each request timed from its due instant, each
/// admitted ticket released `HOLD_US` after its verdict is read.
#[allow(clippy::too_many_arguments)]
fn open_loop_pass<T: Tracing>(
    clients: Vec<GatewayClient>,
    catalog: &Catalog,
    duration: Duration,
    flip_ns: u64,
    services: &[&NodeService],
    global: &FeasibleRegion,
    tracer: &mut T,
    spans: LoopSpans,
) -> std::io::Result<Pass> {
    let dur_ns = duration.as_nanos() as u64;
    let schedule = Schedule::new(RATE, dur_ns);
    let total = schedule.total();
    let buckets = (dur_ns / BUCKET_NS) as usize;
    let mut conns: Vec<Conn> = clients.into_iter().map(|c| Conn::new(c, buckets)).collect();
    let mut rtt = Recorder::with_capacity(total as usize);
    let mut lateness = Recorder::with_capacity(total as usize);
    let mut verdicts: Vec<(u64, Verdict)> = Vec::with_capacity(OPEN_INFLIGHT_CAP);
    let (mut sent, mut next) = (0u64, 0usize);
    let (mut spin_ns, mut outside, mut samples) = (0u64, 0u64, 0u64);
    let mut next_sample = SAMPLE_EVERY_NS;
    let hold_ns = HOLD_US * 1000;
    let cpu_start = env::process_cpu_ns();
    let gen_cpu_start = env::thread_cpu_ns();
    let started = Instant::now();
    let mut batch = 0u64;
    // `(when, whether anything was sent or received)` of the previous turn:
    // a turn that found nothing to do was the generator spinning.
    let mut previous = (0u64, true);

    loop {
        let now = started.elapsed().as_nanos() as u64;
        if !previous.1 {
            spin_ns += now - previous.0;
        }
        let mut worked = false;
        let open = now < dur_ns + dur_ns / 20;
        let root = tracer.begin(spans.batch, ROOT, batch);

        // Releases that have been held long enough.
        for c in conns.iter_mut() {
            while c.holds.front().is_some_and(|h| h.0 <= now) {
                let (_, ticket) = c.holds.pop_front().expect("checked");
                c.client.queue_release(ticket);
                c.tally.releases_sent += 1;
                c.dirty = true;
                worked = true;
            }
        }
        // Requests that are due.
        let inflight: usize = conns.iter().map(|c| c.inflight.len()).sum();
        let due = if open {
            (schedule.due_count(now) - sent)
                .min(OPEN_INFLIGHT_CAP.saturating_sub(inflight) as u64)
                .min(256)
        } else {
            0
        };
        if due > 0 {
            worked = true;
            let s = tracer.begin(spans.encode, root, batch);
            let hot = ((now / flip_ns) % NODES as u64) as usize;
            for _ in 0..due {
                let c = &mut conns[route(sent, hot) % NODES];
                let i = next % catalog.len();
                next += 1;
                let expires = c.client.server_now_us().saturating_add(TRANSPORT_BUDGET_US);
                let id = c.client.queue_admit_prepared(&catalog.prepared[i], expires);
                let due_ns = schedule.due_ns(sent);
                lateness.record_ns(now.saturating_sub(due_ns));
                c.inflight.push_back((due_ns, id));
                c.tally.sent += 1;
                c.dirty = true;
                sent += 1;
            }
            tracer.end(s);
        }
        let s = tracer.begin(spans.flush, root, batch);
        for c in conns.iter_mut().filter(|c| c.dirty) {
            c.client.flush()?;
            c.dirty = false;
        }
        tracer.end(s);

        // Replies: block on each connection that owes any.
        let mut waited = false;
        for c in conns.iter_mut() {
            if c.inflight.is_empty() {
                continue;
            }
            waited = true;
            let s = tracer.begin(spans.recv, root, batch);
            verdicts.clear();
            c.client.recv_admits_into(&mut verdicts)?;
            tracer.end(s);
            let now = started.elapsed().as_nanos() as u64;
            for &got in &verdicts {
                let Some((due_ns, id)) = c.inflight.pop_front() else {
                    c.tally.answered += 1;
                    c.tally.out_of_order += 1;
                    continue;
                };
                rtt.record_ns(now.saturating_sub(due_ns));
                if let Some(ticket) = c.tally.absorb(id, got) {
                    c.holds.push_back((now + hold_ns, ticket));
                    let b = (now / BUCKET_NS) as usize;
                    if let Some(slot) = c.admit_buckets.get_mut(b) {
                        *slot += 1;
                    }
                }
            }
        }
        tracer.end(root);
        batch += 1;

        if now >= next_sample {
            // Committed charges only (see svc_boundary); summed over nodes
            // they must lie inside the global region.
            next_sample += SAMPLE_EVERY_NS;
            let mut sum = vec![0.0; STAGES];
            for service in services {
                for (slot, u) in sum.iter_mut().zip(service.gated_utilizations()) {
                    *slot += u;
                }
            }
            samples += 1;
            if !global.contains(&sum).unwrap_or(false) {
                outside += 1;
            }
        }
        previous = (now, worked || waited);
        if !waited {
            let holding = conns.iter().any(|c| !c.holds.is_empty());
            if (!open || sent == total) && !holding {
                break;
            }
            // Nothing owed: spin to the next due instant.
            std::hint::spin_loop();
        }
    }
    for c in conns.iter_mut() {
        c.client.flush()?;
    }
    let mut tallies: Vec<Tally> = conns.iter().map(|c| c.tally).collect();
    // Requests never sent are charged to the hot side's tally.
    tallies[0].unsent = total - sent;
    Ok(Pass {
        tallies,
        rtt: rtt.windowed_summary(LATENCY_WINDOWS),
        lateness: lateness.windowed_summary(LATENCY_WINDOWS),
        wall_s: started.elapsed().as_secs_f64(),
        cpu_ns: env::process_cpu_ns().saturating_sub(cpu_start),
        spin_ns,
        gen_cpu_ns: env::thread_cpu_ns().saturating_sub(gen_cpu_start),
        admit_buckets: conns.iter().map(|c| c.admit_buckets.clone()).collect(),
        outside,
        samples,
        clients: conns.into_iter().map(|c| c.client).collect(),
    })
}

/// Median time from a flip until the newly hot node admits at 90 % of
/// its steady rate (the median bucket of the second half of its period),
/// in ms; 10 ms resolution.
fn rebalance_ms(pass: &Pass, flip_ns: u64, dur_ns: u64) -> f64 {
    let per_period = (flip_ns / BUCKET_NS) as usize;
    let periods = (dur_ns / flip_ns) as usize;
    let mut times = Vec::new();
    for period in 1..periods {
        let hot = period % NODES;
        let buckets = &pass.admit_buckets[hot];
        let start = period * per_period;
        let end = ((period + 1) * per_period).min(buckets.len());
        if end <= start + 2 {
            continue;
        }
        let steady: Vec<f64> = buckets[start + (end - start) / 2..end]
            .iter()
            .map(|&b| f64::from(b))
            .collect();
        let target = 0.9 * median(&steady);
        let reached = buckets[start..end]
            .iter()
            .position(|&b| f64::from(b) >= target)
            .unwrap_or(end - start);
        times.push(reached as f64 * (BUCKET_NS as f64 / 1e6));
    }
    median(&times)
}

fn sum_stats(stats: &[GatewaySnapshot]) -> GatewaySnapshot {
    let mut t = GatewaySnapshot::default();
    for s in stats {
        t.admitted += s.admitted;
        t.rejected += s.rejected;
        t.expired_on_arrival += s.expired_on_arrival;
        t.releases += s.releases;
        t.protocol_errors += s.protocol_errors;
        t.bad_requests += s.bad_requests;
        t.frames_in += s.frames_in;
        t.frames_out += s.frames_out;
        t.wakeups += s.wakeups;
        t.read_syscalls += s.read_syscalls;
        t.write_syscalls += s.write_syscalls;
        t.bytes_in += s.bytes_in;
        t.bytes_out += s.bytes_out;
        t.backpressure_stalls += s.backpressure_stalls;
    }
    t
}

/// Disconnects, drains, stops and validates one gateway at quiescence.
fn quiesce(
    report: &mut Report,
    label: &str,
    server: GatewayServer,
    service: &NodeService,
) -> GatewaySnapshot {
    server.drain();
    let idle = server.wait_idle(Duration::from_secs(5));
    let stats = server.shutdown();
    // Tickets still held at disconnect are released by the server; the
    // rest expire within the longest deadline.
    service.maintain();
    let live = service.live_tasks();
    let c = service.counters();
    let validated =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| service.debug_validate())).is_ok();
    report.check(
        &format!("{label}_quiescent_and_valid"),
        idle && live == 0
            && validated
            && c.admitted == c.released + c.expired + c.shed + live as u64
            && stats.protocol_errors == 0,
        format!(
            "idle={idle} live={live} admitted={} released={} expired={} protocol_errors={} debug_validate={}",
            c.admitted,
            c.released,
            c.expired,
            stats.protocol_errors,
            if validated { "passed" } else { "PANICKED" }
        ),
    );
    stats
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let io = |e: std::io::Error| format!("cluster_shift: I/O error: {e}");
    let mut report = Report::new(
        "cluster_shift",
        ctx.seed,
        ctx.seconds,
        ctx.traced,
        ctx.comparable,
    );
    let pinned = env::pin_current_thread(env::bench_cpu());
    let region = FeasibleRegion::deadline_monotonic(STAGES);

    // Phase lengths: a quarter of the time for the oracle, whole flip
    // periods for the cluster.
    let flip_s = if ctx.comparable && !ctx.traced {
        FLIP_SECS
    } else {
        (ctx.seconds * 0.06).clamp(0.15, FLIP_SECS)
    };
    let scale = if ctx.traced { 0.3 } else { 1.0 };
    let periods = ((ctx.seconds * scale * 0.75 / flip_s).floor() as u64).max(2);
    let main_dur = Duration::from_secs_f64(periods as f64 * flip_s);
    let oracle_dur = Duration::from_secs_f64((ctx.seconds * scale * 0.25).max(flip_s));
    let flip_ns = (flip_s * 1e9) as u64;

    // Oracle: the same arrivals against one gateway holding the full cap.
    let caps = StageCaps::inscribed(&region);
    let oracle_service: NodeService = AdmissionService::builder(
        SharedStageCaps::from_units(&caps.units()),
        ExactContributions,
    )
    .shards(1)
    .build();
    let oracle_server =
        GatewayServer::bind("127.0.0.1:0", oracle_service.clone(), gateway_config()).map_err(io)?;
    let oracle_catalog = catalog(ctx.seed);
    let mut oracle_clients = Vec::new();
    for _ in 0..NODES {
        oracle_clients.push(GatewayClient::connect(oracle_server.local_addr()).map_err(io)?);
    }
    let oracle = open_loop_pass(
        oracle_clients,
        &oracle_catalog,
        oracle_dur,
        flip_ns,
        &[&oracle_service],
        &region,
        &mut NoTrace,
        LoopSpans::default(),
    )
    .map_err(io)?;
    let oracle_total = oracle.total();
    let oracle_outside = oracle.outside;
    drop(oracle.clients);
    let oracle_stats = quiesce(&mut report, "oracle", oracle_server, &oracle_service);

    // Set-up of the cluster, several times over between two readings of
    // the host-speed index. Only the set-up time is restated at index 1.0:
    // the open loop's rate is the schedule's, not the host's.
    let mut host = HostRef::start().map_err(io)?;
    let mut setup_speed = host.speed(hostref::READING).map_err(io)?;
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut connects = Vec::with_capacity(SETUP_REPS);
    let mut rig: Option<ClusterRig> = None;
    for _ in 0..SETUP_REPS {
        drop(rig.take());
        let t = Instant::now();
        let built = build_cluster(ctx.seed)?;
        setups.push(t.elapsed().as_secs_f64());
        connects.push(built.connect_us);
        rig = Some(built);
    }
    let ClusterRig {
        catalog,
        coord,
        nodes,
        clients,
        ..
    } = rig.expect("at least one set-up");
    setup_speed = (setup_speed + host.speed(hostref::READING).map_err(io)?) / 2.0;
    drop(host);
    report.e2e("setup_s", median(&setups) * setup_speed);

    let services: Vec<&NodeService> = nodes.iter().map(|n| &n.service).collect();
    let mut tracer = ctx.traced.then(Tracer::new);
    let lease_start: Vec<(u64, u64)> = nodes
        .iter()
        .map(|n| (n.lease.stats().frames(), n.lease.stats().bytes()))
        .collect();
    let main = match tracer.as_mut() {
        Some(t) => {
            let spans = LoopSpans::intern(t);
            open_loop_pass(
                clients, &catalog, main_dur, flip_ns, &services, &region, t, spans,
            )
        }
        None => open_loop_pass(
            clients,
            &catalog,
            main_dur,
            flip_ns,
            &services,
            &region,
            &mut NoTrace,
            LoopSpans::default(),
        ),
    }
    .map_err(io)?;
    let total = main.total();
    let lease_frames: u64 = nodes
        .iter()
        .zip(&lease_start)
        .map(|(n, s)| n.lease.stats().frames() - s.0)
        .sum();
    let lease_bytes: u64 = nodes
        .iter()
        .zip(&lease_start)
        .map(|(n, s)| n.lease.stats().bytes() - s.1)
        .sum();
    let borrows: u64 = nodes
        .iter()
        .map(|n| {
            n.lease
                .core()
                .lock()
                .expect("node poisoned")
                .counters()
                .borrows
        })
        .sum();
    let node_utilization: Vec<Vec<f64>> = nodes.iter().map(|n| n.service.utilizations()).collect();
    let node_caps: Vec<Vec<f64>> = nodes
        .iter()
        .map(|n| {
            let core = n.lease.core().lock().expect("node poisoned");
            core.caps()
                .units()
                .iter()
                .map(|&u| utilization_from_units(u))
                .collect()
        })
        .collect();
    let rebalance = rebalance_ms(&main, flip_ns, main_dur.as_nanos() as u64);

    // End-to-end metrics.
    let decisions = total.answered.max(1) as f64;
    report.e2e("decisions_per_s", total.answered as f64 / main.wall_s);
    report.e2e("rtt_p50_us", main.rtt.p50_ns as f64 / 1e3);
    report.e2e("rtt_p99_us", main.rtt.p99_ns as f64 / 1e3);
    // The generator spins while nothing is due; that idle spinning is not
    // a cost of deciding and is left out.
    report.e2e(
        "cpu_ns_per_decision",
        main.cpu_ns.saturating_sub(main.spin_ns) as f64 / decisions,
    );
    let cluster_accept = total.admitted as f64 / decisions;
    let oracle_accept = oracle_total.admitted as f64 / oracle_total.answered.max(1) as f64;
    let accept_vs_oracle = cluster_accept / oracle_accept.max(f64::MIN_POSITIVE);
    report.e2e("accept_vs_oracle", accept_vs_oracle);
    report.attempted = total.attempted() + oracle_total.attempted();
    report.failed = total.failed() + oracle_total.failed();

    // Quiesce the cluster: disconnect, drain, stop the lease loops, then
    // validate every ledger.
    drop(main.clients);
    let mut node_stats = Vec::new();
    let mut lease_handles = Vec::new();
    for (i, node) in nodes.into_iter().enumerate() {
        node_stats.push(quiesce(
            &mut report,
            &format!("node{i}"),
            node.server,
            &node.service,
        ));
        lease_handles.push(node.lease);
    }
    drop(lease_handles);
    let (coord_counters, conserved) = {
        let core = coord.core().lock().expect("coordinator poisoned");
        let conserved =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| core.debug_conservation()))
                .is_ok();
        (core.counters(), conserved)
    };
    let coord_frames = coord.stats().frames();
    drop(coord);
    let cluster_stats = sum_stats(&node_stats);

    report.check(
        "every_request_answered_once_in_order",
        total.answered == total.sent
            && total.out_of_order == 0
            && oracle_total.answered == oracle_total.sent
            && oracle_total.out_of_order == 0,
        format!(
            "cluster sent={} answered={} out_of_order={}; oracle sent={} answered={}",
            total.sent,
            total.answered,
            total.out_of_order,
            oracle_total.sent,
            oracle_total.answered
        ),
    );
    report.check(
        "client_tallies_equal_gateway_counters",
        cluster_stats.admitted == total.admitted
            && cluster_stats.rejected == total.rejected
            && cluster_stats.expired_on_arrival == total.expired
            && oracle_stats.admitted == oracle_total.admitted
            && oracle_stats.rejected == oracle_total.rejected,
        format!(
            "cluster client {}/{}/{} vs nodes {}/{}/{} (admitted/rejected/expired)",
            total.admitted,
            total.rejected,
            total.expired,
            cluster_stats.admitted,
            cluster_stats.rejected,
            cluster_stats.expired_on_arrival
        ),
    );
    report.check(
        "lease_ledger_conserved",
        conserved && coord_counters.fp_mismatches == 0,
        format!(
            "pool + outstanding = total on every stage; fp_mismatches={}",
            coord_counters.fp_mismatches
        ),
    );
    report.check(
        "summed_utilization_inside_global_region",
        main.outside == 0 && oracle_outside == 0,
        format!(
            "{} samples (every 50 ms), {} outside",
            main.samples, main.outside
        ),
    );
    report.check(
        "leases_moved_with_the_load",
        borrows > 0 && accept_vs_oracle > 0.5,
        format!(
            "borrows={borrows} steals={} accept_vs_oracle={accept_vs_oracle:.4}",
            coord_counters.steals
        ),
    );

    report.phases = Json::obj()
        .with("pinned", Json::Bool(pinned))
        .with("load", Json::Str(format!(
            "open loop only, {RATE} requests/s total, 1 generator thread, 1 connection per node, {NODES} nodes each GatewayConfig{{workers:1, window:{}}}, tickets held {HOLD_US} us, every thread on the highest-numbered CPU",
            gw::WINDOW
        )))
        .with("flip_every_s", Json::Num(flip_s))
        .with("cluster_seconds", Json::Num(main_dur.as_secs_f64()))
        .with("oracle_seconds", Json::Num(oracle_dur.as_secs_f64()))
        .with("cluster_accept_ratio", Json::Num(cluster_accept))
        .with("oracle_accept_ratio", Json::Num(oracle_accept))
        .with("rtt_samples", Json::Num(main.rtt.count as f64))
        .with("rtt_ptail_us", Json::Num(main.rtt.tail_ns as f64 / 1e3))
        .with("rtt_ptail_percentile", Json::Num(main.rtt.tail_percentile))
        .with("gen_lateness_p99_us", Json::Num(main.lateness.p99_ns as f64 / 1e3))
        .with("generator_spin_share", Json::Num(main.spin_ns as f64 / (main.wall_s * 1e9)))
        .with("cpu_note", Json::Str("process CPU minus the generator's idle spinning; generator work included".into()))
        .with("rebalance_ms", Json::Num(rebalance))
        .with("borrows", Json::Num(borrows as f64))
        .with("steals", Json::Num(coord_counters.steals as f64))
        .with("coordinator_frames", Json::Num(coord_frames as f64))
        .with("node_utilization_at_end", Json::Arr(node_utilization.iter().map(|u| Json::Arr(u.iter().map(|v| Json::Num(*v)).collect())).collect()))
        .with("node_caps_at_end", Json::Arr(node_caps.iter().map(|u| Json::Arr(u.iter().map(|v| Json::Num(*v)).collect())).collect()))
        .with("setup_s_samples", Json::Arr(setups.iter().map(|v| Json::Num(*v)).collect()))
        .with("setup_host_speed_index", Json::Num(setup_speed));

    if let Some(tracer) = tracer {
        let n = decisions;
        let total_self_ns = tracer.self_ns_by_name();
        let self_ns = |name: &str| total_self_ns(name) as f64 / n;
        report.layer(
            "bench.generator_self_ns_per_decision",
            self_ns(LoopSpans::BATCH),
        );
        report.layer("gateway.encode_req_ns", self_ns(LoopSpans::ENCODE));
        report.layer("gateway.client_flush_ns_per_req", self_ns(LoopSpans::FLUSH));
        report.layer("gateway.client_recv_ns_per_resp", self_ns(LoopSpans::RECV));
        let gen_busy = main.gen_cpu_ns.saturating_sub(main.spin_ns) as f64 / n;
        report.layer(
            "gateway.client_io_cpu_ns_per_decision",
            (gen_busy - self_ns(LoopSpans::BATCH) - self_ns(LoopSpans::ENCODE)).max(0.0),
        );
        report.layer(
            "bench.traced_decisions_per_s",
            total.answered as f64 / main.wall_s,
        );
        // Open loop at a fixed rate: tracing cannot slow the schedule, so
        // its overhead shows as generator lateness, not as throughput.
        report.layer("trace_overhead_share", 0.0);
        report.layer(
            "cluster.lease_frames_per_s",
            lease_frames as f64 / main.wall_s,
        );
        report.layer("cluster.lease_bytes_per_decision", lease_bytes as f64 / n);
        report.layer("cluster.borrows", borrows as f64);
        report.layer("cluster.steals", coord_counters.steals as f64);
        report.layer("cluster.rebalance_ms", rebalance);
        let replay = Replay::new(ctx.replay_budget());
        report.layer("cluster.coord_handle_ns", coord_handle_ns(&replay));
        report.layer("cluster.node_tick_ns", node_tick_ns(&replay));
        report.layer(
            "gateway.syscalls_per_decision",
            cluster_stats.syscalls() as f64 / n,
        );
        report.layer(
            "gateway.bytes_per_decision",
            (cluster_stats.bytes_in + cluster_stats.bytes_out) as f64 / n,
        );
        report.layer(
            "gateway.frames_per_wakeup",
            cluster_stats.frames_in as f64 / cluster_stats.wakeups.max(1) as f64,
        );
        report.layer(
            "gateway.backpressure_stalls",
            cluster_stats.backpressure_stalls as f64,
        );
        report.layer("gateway.rtt_p50_us", main.rtt.p50_ns as f64 / 1e3);
        report.layer("gateway.rtt_p99_us", main.rtt.p99_ns as f64 / 1e3);
        report.layer("gateway.rtt_ptail_us", main.rtt.tail_ns as f64 / 1e3);
        report.layer(
            "gateway.gen_lateness_p99_us",
            main.lateness.p99_ns as f64 / 1e3,
        );
        report.layer("gateway.connect_handshake_us", median(&connects));
        crate::write_trace("cluster_shift", &tracer);
    }
    report.finish();
    Ok(report)
}

/// `CoordCore::handle` alone: the cumulative `LeaseReturn` beat of a
/// registered node — the frame a coordinator sees most.
fn coord_handle_ns(replay: &Replay) -> f64 {
    let region = FeasibleRegion::deadline_monotonic(STAGES);
    let caps = StageCaps::inscribed(&region);
    let fp = params_fingerprint(&region, &caps);
    let mut core = CoordCore::new(cluster_config(), caps.units(), fp);
    let mut beats = Vec::new();
    for node_id in 1..=NODES as u64 {
        let hello = Frame::NodeHello {
            node_id,
            incarnation: 1,
            params_fp: fp,
        };
        for frame in core.handle(0, &hello) {
            if let Frame::LeaseGrant {
                node,
                epoch,
                returned_units,
                ..
            } = frame
            {
                beats.push(Frame::LeaseReturn {
                    node,
                    epoch,
                    returned_units,
                });
            }
        }
    }
    assert_eq!(beats.len(), NODES, "both nodes registered");
    let mut now_us = 0u64;
    replay.ns_per_op(64, || {
        let t = Instant::now();
        for k in 0..64 {
            now_us += 5_000;
            std::hint::black_box(core.handle(now_us, &beats[k % NODES]));
        }
        t.elapsed()
    })
}

/// `NodeCore::on_tick` alone, for a registered node whose service is idle.
fn node_tick_ns(replay: &Replay) -> f64 {
    let region = FeasibleRegion::deadline_monotonic(STAGES);
    let caps = StageCaps::inscribed(&region);
    let fp = params_fingerprint(&region, &caps);
    let cfg = cluster_config();
    let mut coord = CoordCore::new(cfg.clone(), caps.units(), fp);
    let shared = SharedStageCaps::new(STAGES);
    let service: NodeService = AdmissionService::builder(shared.clone(), ExactContributions)
        .shards(1)
        .build();
    let mut node = NodeCore::new(cfg, 1, shared, fp);
    for hello in node.on_tick(0, &service) {
        for grant in coord.handle(0, &hello) {
            node.on_frame(0, &grant, &service);
        }
    }
    assert!(node.registered(), "the node registered");
    let mut now_us = 0u64;
    replay.ns_per_op(64, || {
        let t = Instant::now();
        for _ in 0..64 {
            now_us += 5_000;
            for frame in node.on_tick(now_us, &service) {
                // Keep the lease alive: the coordinator answers each beat.
                for reply in coord.handle(now_us, &frame) {
                    node.on_frame(now_us, &reply, &service);
                }
            }
        }
        t.elapsed()
    })
}
