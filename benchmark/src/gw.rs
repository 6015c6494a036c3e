//! `gw_reject` and `gw_admit_release`: one gateway over loopback, one
//! generator thread, one connection, `GatewayConfig{workers:1, window:40}`
//! — so busy threads never exceed the box's two cores.
//!
//! Phases: closed loop (window 40) for throughput and CPU per decision,
//! then an open-loop ladder at 250k / 500k / 750k / 1000k requests/s for
//! latency (reported at the 500k rung) and the highest rate within the
//! latency limit.

use crate::hostref::{self, HostRef};
use crate::json::Json;
use crate::layers;
use crate::report::Report;
use crate::stats::{median, Recorder};
use crate::trace::{NoTrace, Tracer};
use crate::wire::{self, Catalog, ClosedRep, LoopSpans, Rung, Tally};
use crate::{env, Ctx};
use frap_core::admission::ExactContributions;
use frap_core::region::FeasibleRegion;
use frap_gateway::client::GatewayClient;
use frap_gateway::server::{GatewayConfig, GatewayServer, GatewaySnapshot};
use frap_service::{AdmissionService, CounterSnapshot};
use frap_workload::PipelineWorkloadBuilder;
use std::time::{Duration, Instant};

pub const STAGES: usize = 3;
pub const WINDOW: u16 = 40;
const CATALOG: usize = 4096;
/// The open-loop ladder, requests/s.
pub const RUNGS: [f64; 4] = [250_000.0, 500_000.0, 750_000.0, 1_000_000.0];
/// The rung `rtt_p50_us` / `rtt_p99_us` are reported at. Rungs above it
/// probe for the breaking point: requests that expire or cannot be sent
/// there decide `max_rate_within_limit` but are not counted as failures
/// of the run.
pub const RATED_RUNG: f64 = 500_000.0;
const SETUP_REPS: usize = 15;

type Service = AdmissionService<FeasibleRegion, ExactContributions>;

/// What distinguishes the two gateway workloads.
#[derive(Debug, Clone, Copy)]
pub struct GwParams {
    pub name: &'static str,
    pub mean_computation_ms: f64,
    pub resolution: f64,
    pub load: f64,
    /// Release every admitted ticket as soon as its verdict is read.
    pub release: bool,
}

/// 10 ms computations, 150–450 ms deadlines, tickets never released:
/// the region fills and > 99.9 % of verdicts are lock-free rejections.
pub const REJECT: GwParams = GwParams {
    name: "gw_reject",
    mean_computation_ms: 10.0,
    resolution: 10.0,
    load: 2.0,
    release: false,
};

/// 0.02 ms computations, 3–9 ms deadlines, every admitted ticket released
/// at once: ≥ 99 % admitted, so the same layers run as writes.
///
/// The issue's first sizing, 0.1 ms computations, was measured and does
/// not do what the workload is for: sixteen such tasks fill the 3-stage
/// region, so with a window of 40 only 56 % are admitted. At 0.02 ms the
/// 40 in flight use about half the region. (Longer deadlines instead —
/// 1 ms over 150–450 ms — leave some 300 000 released tickets' entries in
/// the timer wheel at any instant: throughput fell by a fifth, the median
/// latency tripled and peak RSS went from 58 to 137 MiB. That measures the
/// wheel's garbage, not the admit path.)
pub const ADMIT_RELEASE: GwParams = GwParams {
    name: "gw_admit_release",
    mean_computation_ms: 0.02,
    resolution: 100.0,
    load: 0.25,
    release: true,
};

pub fn workload_builder(p: &GwParams, seed: u64) -> PipelineWorkloadBuilder {
    PipelineWorkloadBuilder::new(STAGES)
        .mean_computation_ms(p.mean_computation_ms)
        .resolution(p.resolution)
        .load(p.load)
        .seed(seed)
}

/// Everything a run needs, built (and timed) as one set-up.
struct Rig {
    catalog: Catalog,
    service: Service,
    server: GatewayServer,
    client: GatewayClient,
    connect_us: f64,
}

fn build_rig(p: &GwParams, seed: u64) -> std::io::Result<Rig> {
    let catalog = Catalog::from_specs(
        workload_builder(p, seed)
            .build()
            .specs()
            .take(CATALOG)
            .collect(),
    );
    let service = AdmissionService::builder(
        FeasibleRegion::deadline_monotonic(STAGES),
        ExactContributions,
    )
    .shards(1)
    .build();
    let server = GatewayServer::bind(
        "127.0.0.1:0",
        service.clone(),
        GatewayConfig {
            workers: 1,
            window: WINDOW,
            idle_timeout: None,
        },
    )?;
    let t = Instant::now();
    let client = GatewayClient::connect(server.local_addr())?;
    let connect_us = t.elapsed().as_secs_f64() * 1e6;
    Ok(Rig {
        catalog,
        service,
        server,
        client,
        connect_us,
    })
}

/// Phase lengths derived from `--seconds`.
#[derive(Debug, Clone, Copy)]
struct Plan {
    /// Closed-loop repetitions, each followed by a reading of the
    /// host-speed index.
    closed_reps: usize,
    closed_len: f64,
    /// Length of each probe rung.
    rung_len: f64,
    /// Length of the rated rung.
    rated_len: f64,
}

fn plan(ctx: &Ctx) -> Plan {
    let s = ctx.seconds;
    if ctx.traced {
        // Shortened phases: one untraced and one traced repetition, and
        // short rungs.
        let len = (s * 0.1).clamp(0.3, 1.5);
        Plan {
            closed_reps: 1,
            closed_len: len,
            rung_len: len / 2.0,
            rated_len: len,
        }
    } else if ctx.comparable {
        // Three 2 s closed-loop repetitions, 2 s per probe rung, and the
        // rest — 4 s of the default 16 — on the rated rung, whose latency
        // is an end-to-end metric.
        let (closed_reps, closed_len, rung_len) = (40, 0.1, 2.0);
        let spent = closed_reps as f64 * (closed_len + hostref::READING.as_secs_f64())
            + (RUNGS.len() - 1) as f64 * rung_len;
        Plan {
            closed_reps,
            closed_len,
            rung_len,
            rated_len: (s - spent).clamp(2.0, 8.0),
        }
    } else {
        Plan {
            closed_reps: 2,
            closed_len: s * 0.2,
            rung_len: s * 0.15,
            rated_len: s * 0.15,
        }
    }
}

fn rung_json(r: &Rung, rated: bool) -> Json {
    Json::obj()
        .with("rate_per_s", Json::Num(r.rate))
        .with("counts_towards_failed", Json::Bool(rated))
        .with("sent", Json::Num(r.tally.sent as f64))
        .with("answered", Json::Num(r.tally.answered as f64))
        .with("admitted", Json::Num(r.tally.admitted as f64))
        .with("rejected", Json::Num(r.tally.rejected as f64))
        .with("expired", Json::Num(r.tally.expired as f64))
        .with("unsent", Json::Num(r.tally.unsent as f64))
        .with("rtt_samples", Json::Num(r.rtt.count as f64))
        .with("rtt_p50_us", Json::Num(r.rtt.p50_ns as f64 / 1e3))
        .with("rtt_p90_us", Json::Num(r.rtt.p90_ns as f64 / 1e3))
        .with("rtt_p99_us", Json::Num(r.rtt.p99_ns as f64 / 1e3))
        .with("rtt_ptail_us", Json::Num(r.rtt.tail_ns as f64 / 1e3))
        .with("rtt_ptail_percentile", Json::Num(r.rtt.tail_percentile))
        .with(
            "gen_lateness_p50_us",
            Json::Num(r.lateness.p50_ns as f64 / 1e3),
        )
        .with(
            "gen_lateness_p99_us",
            Json::Num(r.lateness.p99_ns as f64 / 1e3),
        )
        .with("answered_per_s", Json::Num(r.answered_per_s()))
        .with(
            "cpu_ns_per_decision",
            Json::Num(r.cpu_ns as f64 / r.tally.answered.max(1) as f64),
        )
        .with("backlog_end", Json::Num(r.backlog_end as f64))
        .with("backlog_growing", Json::Bool(r.backlog_growing))
        .with("within_limit", Json::Bool(r.within_limit()))
}

fn gateway_marks(g: &GatewaySnapshot, c: &CounterSnapshot) -> Vec<(String, u64)> {
    vec![
        ("gateway.frames_in".into(), g.frames_in),
        ("gateway.frames_out".into(), g.frames_out),
        ("gateway.wakeups".into(), g.wakeups),
        ("gateway.read_syscalls".into(), g.read_syscalls),
        ("gateway.write_syscalls".into(), g.write_syscalls),
        ("gateway.bytes_in".into(), g.bytes_in),
        ("gateway.bytes_out".into(), g.bytes_out),
        ("gateway.backpressure_stalls".into(), g.backpressure_stalls),
        ("service.admitted".into(), c.admitted),
        ("service.rejected".into(), c.rejected),
        ("service.fast_rejected".into(), c.fast_rejected),
        ("service.cas_retries".into(), c.cas_retries),
        ("service.seqlock_fallbacks".into(), c.seqlock_fallbacks),
    ]
}

pub fn run(p: &GwParams, ctx: &Ctx) -> Result<Report, String> {
    let io = |e: std::io::Error| format!("{}: I/O error: {e}", p.name);
    let mut report = Report::new(p.name, ctx.seed, ctx.seconds, ctx.traced, ctx.comparable);
    let plan = plan(ctx);
    // Generator and server share one CPU: see `env::pin_current_thread`.
    let pinned = env::pin_current_thread(env::bench_cpu());

    // The host-speed index: its echo thread shares the pinned CPU.
    let mut host = HostRef::start().map_err(io)?;
    let ref_dur = hostref::READING;

    // Set-up, several times over, between two readings of the index; the
    // median is reported and the last rig is the one measured.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut connects = Vec::with_capacity(SETUP_REPS);
    let mut rig = None;
    let mut setup_speed = host.speed(ref_dur).map_err(io)?;
    for _ in 0..SETUP_REPS {
        if let Some(Rig { client, server, .. }) = rig.take() {
            drop(client);
            server.shutdown();
        }
        let t = Instant::now();
        let built = build_rig(p, ctx.seed).map_err(io)?;
        setups.push(t.elapsed().as_secs_f64());
        connects.push(built.connect_us);
        rig = Some(built);
    }
    setup_speed = (setup_speed + host.speed(ref_dur).map_err(io)?) / 2.0;
    let Rig {
        catalog,
        service,
        server,
        mut client,
        ..
    } = rig.expect("at least one set-up");
    report.e2e("setup_s", median(&setups) * setup_speed);

    let window = usize::from(client.window()).clamp(1, 1024);
    let mut next = 0usize;
    let mut total = Tally::default();
    let mut rated = Tally::default();
    let closed_dur = Duration::from_secs_f64(plan.closed_len);
    let mut tracer = ctx.traced.then(Tracer::new);
    let stats_before = server.stats();
    let counters_before = service.counters();

    // Closed loop, untraced: the end-to-end throughput and CPU numbers.
    // Short repetitions, each followed by a reading of the host-speed
    // index on the same CPU, and each restated at the quiet reference
    // box's speed (see `hostref`); the median is reported.
    let mut reps: Vec<ClosedRep> = Vec::new();
    let mut speed: Vec<f64> = Vec::new();
    for _ in 0..plan.closed_reps {
        let rep = wire::closed_loop(
            &mut client,
            &catalog,
            &mut next,
            window,
            closed_dur,
            p.release,
            &mut NoTrace,
            LoopSpans::default(),
        )
        .map_err(io)?;
        total.add(&rep.tally);
        rated.add(&rep.tally);
        reps.push(rep);
        speed.push(host.speed(ref_dur).map_err(io)?);
    }
    drop(host);
    let dps: Vec<f64> = reps.iter().map(ClosedRep::decisions_per_s).collect();
    let cpu: Vec<f64> = reps.iter().map(ClosedRep::cpu_ns_per_decision).collect();
    report.e2e(
        "decisions_per_s",
        median(&hostref::rates_at_nominal(&dps, &speed)),
    );
    report.e2e(
        "cpu_ns_per_decision",
        median(&hostref::costs_at_nominal(&cpu, &speed)),
    );
    let closed_stats = server.stats();
    let closed_counters = service.counters();

    // Closed loop again with spans on, for the per-layer ledger only.
    let mut traced_rep = None;
    if let Some(tracer) = tracer.as_mut() {
        tracer.mark(
            "closed_traced_start",
            gateway_marks(&closed_stats, &closed_counters),
        );
        let spans = LoopSpans::intern(tracer);
        let rep = wire::closed_loop(
            &mut client,
            &catalog,
            &mut next,
            window,
            closed_dur,
            p.release,
            tracer,
            spans,
        )
        .map_err(io)?;
        tracer.mark(
            "closed_traced_end",
            gateway_marks(&server.stats(), &service.counters()),
        );
        total.add(&rep.tally);
        rated.add(&rep.tally);
        traced_rep = Some(rep);
    }

    // Open-loop ladder.
    let rates = &RUNGS;
    let mut rungs: Vec<Rung> = Vec::new();
    let mut probe_protocol_failures = 0u64;
    // One pair of sample buffers for the whole ladder, sized for its
    // largest rung.
    let largest = rates
        .iter()
        .map(|&rate| {
            let len = if rate == RATED_RUNG {
                plan.rated_len
            } else {
                plan.rung_len
            };
            (rate * len) as usize + 1
        })
        .max()
        .unwrap_or(0);
    let mut recorders = [
        Recorder::with_capacity(largest),
        Recorder::with_capacity(largest),
    ];
    for &rate in rates {
        let len = if rate == RATED_RUNG {
            plan.rated_len
        } else {
            plan.rung_len
        };
        let rung_dur = Duration::from_secs_f64(len);
        let rung = wire::open_loop_rung(
            &mut client,
            &catalog,
            &mut next,
            rate,
            rung_dur,
            p.release,
            &mut recorders,
        )
        .map_err(io)?;
        total.add(&rung.tally);
        if rate <= RATED_RUNG {
            rated.add(&rung.tally);
        } else {
            // Probe rungs still owe every request sent an in-order answer.
            probe_protocol_failures +=
                (rung.tally.sent - rung.tally.answered) + rung.tally.out_of_order;
        }
        rungs.push(rung);
    }
    let at_rated = rungs
        .iter()
        .find(|r| r.rate == RATED_RUNG)
        .expect("the rated rung always runs");
    report.e2e("rtt_p50_us", at_rated.rtt.p50_ns as f64 / 1e3);
    report.e2e("rtt_p99_us", at_rated.rtt.p99_ns as f64 / 1e3);
    // Highest rung within the limit with every rung below it also within.
    let max_rate = rungs
        .iter()
        .take_while(|r| r.within_limit())
        .last()
        .map_or(0.0, |r| r.rate);
    if !ctx.traced {
        report.e2e("max_rate_within_limit", max_rate);
    }

    // Quiesce: disconnect, drain, stop; only then validate.
    let stats_loaded = server.stats();
    let counters_loaded = service.counters();
    drop(client);
    server.drain();
    let idle = server.wait_idle(Duration::from_secs(5));
    let gateway = server.shutdown();
    service.maintain();
    let live = service.live_tasks();
    let counters = service.counters();
    let validated =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| service.debug_validate()));

    report.attempted = rated.attempted();
    report.failed = rated.failed() + probe_protocol_failures;
    report.check(
        "every_request_answered_once_in_order",
        total.answered == total.sent && total.out_of_order == 0,
        format!(
            "sent={} answered={} out_of_order={}",
            total.sent, total.answered, total.out_of_order
        ),
    );
    report.check(
        "client_tallies_equal_gateway_counters",
        gateway.admitted == total.admitted
            && gateway.rejected == total.rejected
            && gateway.expired_on_arrival == total.expired
            && gateway.releases <= total.releases_sent,
        format!(
            "client admitted/rejected/expired/releases_sent = {}/{}/{}/{}, gateway = {}/{}/{}/{}",
            total.admitted,
            total.rejected,
            total.expired,
            total.releases_sent,
            gateway.admitted,
            gateway.rejected,
            gateway.expired_on_arrival,
            gateway.releases
        ),
    );
    report.check(
        "no_protocol_errors",
        gateway.protocol_errors == 0 && gateway.bad_requests == 0,
        format!(
            "protocol_errors={} bad_requests={}",
            gateway.protocol_errors, gateway.bad_requests
        ),
    );
    report.check("gateway_idle_after_drain", idle, "all connections closed");
    report.check(
        "no_live_tasks_after_shutdown",
        live == 0,
        format!("live_tasks={live}"),
    );
    report.check(
        "admitted_equals_released_plus_expired_plus_live",
        counters.admitted == counters.released + counters.expired + counters.shed + live as u64,
        format!(
            "admitted={} released={} expired={} shed={} live={live}",
            counters.admitted, counters.released, counters.expired, counters.shed
        ),
    );
    report.check(
        "debug_validate_at_quiescence",
        validated.is_ok(),
        "ledger totals equal entry sums; utilization inside the region",
    );
    // Over the rated phases: the probe rungs may overfill the region.
    let accept = rated.admitted as f64 / rated.answered.max(1) as f64;
    if p.release {
        report.check(
            "mostly_admitted",
            accept >= 0.97,
            format!("admitted share {accept:.5} (≥ 0.97 required; ≥ 0.99 on a quiet box)"),
        );
    } else {
        report.check(
            "mostly_rejected",
            accept <= 0.001 && total.admitted > 0,
            format!("admitted share {accept:.6} (≤ 0.001, > 0 expected)"),
        );
    }

    report.phases = Json::obj()
        .with("pinned", Json::Bool(pinned))
        .with("pinning", Json::Str("generator and gateway worker share the highest-numbered CPU".into()))
        .with("load", Json::Str(format!(
            "1 generator thread, 1 connection, GatewayConfig{{workers:1, window:{WINDOW}}}, {STAGES}-stage pipeline, {} pre-encoded requests",
            catalog.len()
        )))
        .with("closed_loop", Json::obj()
            .with("repetitions", Json::Num(plan.closed_reps as f64))
            .with("seconds_each", Json::Num(plan.closed_len))
            .with("window", Json::Num(window as f64))
            .with("host_speed", Json::Str(format!(
                "a {:.0} ms reading of the host-speed index (hostref) after each repetition; \
                 decisions_per_s and cpu_ns_per_decision are medians over repetitions of the raw \
                 value restated at index 1.0",
                hostref::READING.as_secs_f64() * 1e3)))
            .with("host_speed_index", Json::Arr(speed.iter().map(|v| Json::Num((v * 1e4).round() / 1e4)).collect()))
            .with("host_speed_index_median", Json::Num(median(&speed)))
            .with("raw_decisions_per_s_median", Json::Num(median(&dps)))
            .with("raw_cpu_ns_per_decision_median", Json::Num(median(&cpu)))
            .with("decisions_per_s", Json::Arr(dps.iter().map(|v| Json::Num(v.round())).collect()))
            .with("cpu_ns_per_decision", Json::Arr(cpu.iter().map(|v| Json::Num((v * 10.0).round() / 10.0)).collect()))
            .with("frames_per_wakeup", Json::Num(
                (closed_stats.frames_in - stats_before.frames_in) as f64
                    / (closed_stats.wakeups - stats_before.wakeups).max(1) as f64))
            .with("syscalls_per_decision", Json::Num(
                (closed_stats.syscalls() - stats_before.syscalls()) as f64
                    / reps.iter().map(|r| r.tally.answered).sum::<u64>().max(1) as f64))
            .with("cpu_note", Json::Str("process CPU, generator thread included".into())))
        .with("open_loop", Json::obj()
            .with("seconds_each_probe_rung", Json::Num(plan.rung_len))
            .with("seconds_rated_rung", Json::Num(plan.rated_len))
            .with("latency_windows", Json::Num(wire::LATENCY_WINDOWS as f64))
            .with("rated_rung_per_s", Json::Num(RATED_RUNG))
            .with("rtt_p99_limit_us", Json::Num(wire::RTT_P99_LIMIT_US))
            .with("lateness_p99_limit_us", Json::Num(wire::LATENESS_P99_LIMIT_US))
            .with("rungs", Json::Arr(rungs.iter().map(|r| rung_json(r, r.rate <= RATED_RUNG)).collect())))
        .with("setup_s_samples", Json::Arr(setups.iter().map(|v| Json::Num(*v)).collect()))
        .with("setup_host_speed_index", Json::Num(setup_speed))
        .with("admitted_share", Json::Num(accept));

    if let Some(tracer) = tracer {
        let traced_rep = traced_rep.expect("traced runs have a traced repetition");
        layer_metrics(
            &mut report,
            p,
            ctx,
            &catalog,
            &tracer,
            &reps[0],
            &traced_rep,
            at_rated,
            median(&connects),
            (&stats_before, &stats_loaded),
            (&counters_before, &counters_loaded),
            total.answered,
            max_rate,
        );
        crate::write_trace(p.name, &tracer);
    }
    report.finish();
    Ok(report)
}

/// The traced run's per-layer rows: span self times from the traced
/// repetition, counter deltas, and the layer replay of the same request
/// stream through each layer's public function in isolation.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    report: &mut Report,
    p: &GwParams,
    ctx: &Ctx,
    catalog: &Catalog,
    tracer: &Tracer,
    untraced: &ClosedRep,
    traced: &ClosedRep,
    at_rated: &Rung,
    connect_us: f64,
    stats: (&GatewaySnapshot, &GatewaySnapshot),
    counters: (&CounterSnapshot, &CounterSnapshot),
    decisions: u64,
    max_rate: f64,
) {
    let n = traced.tally.answered.max(1) as f64;
    let total_self_ns = tracer.self_ns_by_name();
    let self_ns = |name: &str| total_self_ns(name) as f64 / n;
    let gen_self = self_ns(LoopSpans::BATCH) + self_ns(LoopSpans::ABSORB);
    let encode = self_ns(LoopSpans::ENCODE);
    // Span times are wall-clock: `recv` blocks while the server works, and
    // on the shared CPU the woken server can run inside `flush` too. They
    // say where a request's latency goes. For the CPU ledger the
    // generator thread's CPU is measured directly; what its own loop and
    // the encode spans do not account for went into the two I/O calls.
    let gen_cpu = traced.gen_cpu_ns as f64 / n;
    let client_io_cpu = (gen_cpu - gen_self - encode).max(0.0);
    let cpu_per_decision = traced.cpu_ns_per_decision();
    let server_cpu = (cpu_per_decision - gen_cpu).max(0.0);

    report.layer("bench.generator_self_ns_per_decision", gen_self);
    report.layer("gateway.encode_req_ns", encode);
    report.layer("gateway.client_flush_ns_per_req", self_ns(LoopSpans::FLUSH));
    report.layer("gateway.client_recv_ns_per_resp", self_ns(LoopSpans::RECV));
    report.layer("gateway.client_io_cpu_ns_per_decision", client_io_cpu);
    report.layer("bench.traced_decisions_per_s", traced.decisions_per_s());
    report.layer(
        "trace_overhead_share",
        1.0 - traced.decisions_per_s() / untraced.decisions_per_s(),
    );

    // Layer replay: the same requests through each layer's public
    // function, alone on one thread.
    let replay = layers::Replay::new(ctx.replay_budget());
    let decode_req = layers::gateway_decode_req_ns(&replay, catalog);
    let encode_resp = layers::gateway_encode_resp_ns(&replay, p.release);
    let decode_resp = layers::gateway_decode_resp_ns(&replay, p.release);
    let batch_reject = layers::service_batch40_ns(&replay, catalog, true);
    let batch_admit = layers::service_batch40_ns(&replay, catalog, false);
    report.layer(
        "gateway.encode_req_generic_ns",
        layers::gateway_encode_req_generic_ns(&replay, catalog),
    );
    report.layer("gateway.decode_req_ns", decode_req);
    report.layer("gateway.encode_resp_ns", encode_resp);
    report.layer("gateway.decode_resp_ns", decode_resp);
    report.layer("service.batch40_reject_ns_per_req", batch_reject);
    report.layer("service.batch40_admit_ns_per_req", batch_admit);
    report.layer(
        "service.try_admit_reject_ns",
        layers::service_try_admit_ns(&replay, catalog, true),
    );
    report.layer(
        "service.try_admit_admit_ns",
        layers::service_try_admit_ns(&replay, catalog, false),
    );
    report.layer(
        "service.release_ns",
        layers::service_release_by_id_ns(&replay, catalog),
    );
    report.layer(
        "service.maintain_ns_per_expiry",
        layers::service_maintain_ns_per_expiry(&replay, catalog),
    );
    report.layer(
        "service.snapshot_ns",
        layers::service_snapshot_ns(&replay, catalog),
    );
    report.layer(
        "core.fp_overlay_ns_per_check",
        layers::core_fp_overlay_ns(&replay, catalog),
    );
    report.layer(
        "core.fp_convert_ns_per_task",
        layers::core_fp_convert_ns(&replay, catalog),
    );
    report.layer(
        "workload.specs_per_s",
        layers::workload_specs_per_s(&replay, workload_builder(p, ctx.seed)),
    );

    // Server side of the ledger: what the replayed layers explain, and
    // the rest — reactor wakes, syscalls, bucketing, hand-off.
    let service_batch = if p.release { batch_admit } else { batch_reject };
    let explained = decode_req + service_batch + encode_resp;
    report.layer(
        "gateway.unattributed_ns_per_decision",
        (server_cpu - explained).max(0.0),
    );

    // Counter deltas over the loaded phases.
    let (g0, g1) = stats;
    let (c0, c1) = counters;
    let d = decisions.max(1) as f64;
    report.layer(
        "gateway.syscalls_per_decision",
        (g1.syscalls() - g0.syscalls()) as f64 / d,
    );
    report.layer(
        "gateway.bytes_per_decision",
        ((g1.bytes_in + g1.bytes_out) - (g0.bytes_in + g0.bytes_out)) as f64 / d,
    );
    report.layer(
        "gateway.frames_per_wakeup",
        (g1.frames_in - g0.frames_in) as f64 / (g1.wakeups - g0.wakeups).max(1) as f64,
    );
    report.layer(
        "gateway.backpressure_stalls",
        (g1.backpressure_stalls - g0.backpressure_stalls) as f64,
    );
    report.layer(
        "service.cas_retries_per_admit",
        (c1.cas_retries - c0.cas_retries) as f64 / (c1.admitted - c0.admitted).max(1) as f64,
    );
    report.layer(
        "service.seqlock_fallbacks",
        (c1.seqlock_fallbacks - c0.seqlock_fallbacks) as f64,
    );
    report.layer(
        "service.fast_reject_share",
        (c1.fast_rejected - c0.fast_rejected) as f64 / (c1.rejected - c0.rejected).max(1) as f64,
    );
    report.layer("gateway.rtt_p50_us", at_rated.rtt.p50_ns as f64 / 1e3);
    report.layer("gateway.rtt_p99_us", at_rated.rtt.p99_ns as f64 / 1e3);
    report.layer("gateway.rtt_ptail_us", at_rated.rtt.tail_ns as f64 / 1e3);
    report.layer(
        "gateway.gen_lateness_p99_us",
        at_rated.lateness.p99_ns as f64 / 1e3,
    );
    report.layer("gateway.connect_handshake_us", connect_us);
    report.layer("gateway.max_rate_within_limit", max_rate);

    // The identity the ledger is read by, recorded with the phases.
    report.phases.set(
        "ledger_ns_per_decision",
        Json::obj()
            .with("cpu_ns_per_decision_traced", Json::Num(cpu_per_decision))
            .with("generator_thread_cpu", Json::Num(gen_cpu))
            .with("server_side_cpu", Json::Num(server_cpu))
            .with("bench.generator_self", Json::Num(gen_self))
            .with("gateway.encode_req", Json::Num(encode))
            .with("gateway.client_io_cpu", Json::Num(client_io_cpu))
            .with("gateway.decode_req(replayed)", Json::Num(decode_req))
            .with("service.batch40(replayed)", Json::Num(service_batch))
            .with("gateway.encode_resp(replayed)", Json::Num(encode_resp))
            .with(
                "gateway.unattributed",
                Json::Num((server_cpu - explained).max(0.0)),
            )
            .with(
                "identity",
                Json::Str(
                    "cpu_ns_per_decision = bench.generator_self + gateway.{encode_req,client_io_cpu} \
                     + replayed gateway.{decode_req,encode_resp} + service.batch40 + gateway.unattributed"
                        .into(),
                ),
            ),
    );
}
