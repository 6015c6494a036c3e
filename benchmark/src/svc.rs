//! `svc_boundary`: no wire. Two threads call
//! `AdmissionService::try_admit` on one shared service whose utilization
//! sits on the region boundary — the regime where kernel near-boundary
//! fallbacks, CAS retries and exact rollbacks concentrate, and the only
//! place on this box where two deciders contend on the same atomics.
//!
//! Each thread keeps a ring with one slot per recent decision: a ticket
//! admitted at decision `n` is released at decision `n + H`. `H` is sized
//! from the stream so the two threads together *offer* twice what the
//! region holds, which puts utilization on the boundary and the admitted
//! share near one half for every seed. (Releasing the oldest only on a
//! new admit, as first specified, was measured and has a cliff: one
//! ticket more or less moved accept_ratio from 0.8 to 0.4 and decisions/s
//! by a quarter, so different seeds measured different regimes.) One
//! admitted ticket per thread per 100 ms is detached instead, so the
//! timer wheel keeps expiring (about 7 % of the cap). Closed loop; 1 call
//! in 32 is timed.

use crate::hostref::{self, HostRef};
use crate::json::Json;
use crate::layers;
use crate::report::Report;
use crate::stats::{median, Recorder};
use crate::trace::{Tracer, Tracing, ROOT};
use crate::{env, Ctx};
use frap_core::admission::{ContributionModel, ExactContributions};
use frap_core::graph::TaskSpec;
use frap_core::region::FeasibleRegion;
use frap_service::{AdmissionService, AdmissionTicket};
use frap_workload::PipelineWorkloadBuilder;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

pub const STAGES: usize = 3;
pub const THREADS: usize = 2;
const STREAM: usize = 2048;
/// One call in this many is timed.
const TIMED_EVERY: u64 = 32;
const DETACH_EVERY: Duration = Duration::from_millis(100);
const SAMPLE_EVERY: Duration = Duration::from_millis(50);
const SETUP_REPS: usize = 7;
/// Offered load as a multiple of what the region holds.
const OFFERED: f64 = 2.0;

type Service = AdmissionService<FeasibleRegion, ExactContributions>;

pub fn workload_builder(seed: u64, thread: usize) -> PipelineWorkloadBuilder {
    // 1 ms computations, 30–90 ms deadlines.
    PipelineWorkloadBuilder::new(STAGES)
        .mean_computation_ms(1.0)
        .resolution(20.0)
        .load(1.0)
        .seed(seed ^ ((thread as u64 + 1) << 32))
}

fn streams(seed: u64) -> Vec<Vec<TaskSpec>> {
    (0..THREADS)
        .map(|t| {
            workload_builder(seed, t)
                .build()
                .specs()
                .take(STREAM)
                .collect()
        })
        .collect()
}

/// Decisions a ticket is held for, per thread, so that `callers`
/// threads together offer `OFFERED` times what the region holds:
/// `Σ hold = OFFERED × cap / mean contribution` (both per stage).
fn holds(streams: &[Vec<TaskSpec>], callers: usize) -> Vec<usize> {
    let region = FeasibleRegion::deadline_monotonic(STAGES);
    let mut contributions = Vec::new();
    let (mut sum, mut count) = (0.0, 0usize);
    for spec in streams.iter().flatten() {
        ExactContributions.contributions_into(spec, &mut contributions);
        sum += contributions.iter().map(|c| c.1).sum::<f64>();
        count += contributions.len();
    }
    let total = (OFFERED * region.max_equal_utilization() / (sum / count as f64)).round() as usize;
    (0..callers)
        .map(|t| (total / callers + usize::from(t < total % callers)).max(1))
        .collect()
}

/// What one caller thread reports for one repetition.
struct CallerOutcome {
    decisions: u64,
    admitted: u64,
    cpu_ns: u64,
    timed: Recorder,
    tracer: Option<Tracer>,
}

fn caller<T: Tracing>(
    service: &Service,
    specs: &[TaskSpec],
    hold: usize,
    cpu: usize,
    stop: &AtomicBool,
    tracer: &mut T,
    span: u16,
) -> CallerOutcome {
    env::pin_current_thread(cpu);
    let cpu_start = env::thread_cpu_ns();
    let mut ring: Vec<Option<AdmissionTicket>> = (0..hold).map(|_| None).collect();
    let mut slot = 0usize;
    let mut timed = Recorder::with_capacity(1 << 18);
    let (mut decisions, mut admitted) = (0u64, 0u64);
    let mut next_detach = Instant::now() + DETACH_EVERY;
    let mut detach_next = false;
    'run: loop {
        for spec in specs {
            // The ticket admitted `hold` decisions ago leaves first.
            if let Some(ticket) = ring[slot].take() {
                ticket.release();
            }
            let outcome = if decisions % TIMED_EVERY == 0 {
                if stop.load(Ordering::Relaxed) {
                    break 'run;
                }
                let s = tracer.begin(span, ROOT, decisions);
                let t = Instant::now();
                let outcome = service.try_admit(spec);
                let done = Instant::now();
                tracer.end(s);
                timed.record_ns(done.duration_since(t).as_nanos() as u64);
                if done >= next_detach {
                    next_detach = done + DETACH_EVERY;
                    detach_next = true;
                }
                outcome
            } else {
                service.try_admit(spec)
            };
            decisions += 1;
            if let Some(ticket) = outcome {
                admitted += 1;
                if detach_next {
                    detach_next = false;
                    ticket.detach();
                } else {
                    ring[slot] = Some(ticket);
                }
            }
            slot = if slot + 1 == hold { 0 } else { slot + 1 };
        }
    }
    drop(ring);
    CallerOutcome {
        decisions,
        admitted,
        cpu_ns: env::thread_cpu_ns().saturating_sub(cpu_start),
        timed,
        tracer: None,
    }
}

/// One repetition's totals.
struct Rep {
    decisions: u64,
    admitted: u64,
    wall_s: f64,
    cpu_ns: u64,
    p50_ns: f64,
    p99_ns: f64,
    timed_calls: usize,
    tracers: Vec<Tracer>,
}

impl Rep {
    fn decisions_per_s(&self) -> f64 {
        self.decisions as f64 / self.wall_s
    }
}

/// Region checks made by the main thread while the callers run.
#[derive(Default)]
struct RegionWatch {
    samples: Vec<Vec<f64>>,
    outside: u64,
}

/// Runs `threads` callers for `duration`. The main thread adds no busy
/// thread of its own: it sleeps, and every 50 ms reads the write-stable
/// utilization vector and checks the service is inside its region.
fn repetition(
    service: &Service,
    streams: &[Vec<TaskSpec>],
    holds: &[usize],
    duration: Duration,
    traced: bool,
    watch: &mut RegionWatch,
) -> Rep {
    let stop = AtomicBool::new(false);
    let started = Instant::now();
    let outcomes: Vec<CallerOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = holds
            .iter()
            .enumerate()
            .map(|(t, &hold)| {
                let (stop, specs) = (&stop, &streams[t]);
                scope.spawn(move || {
                    if traced {
                        let mut tracer = Tracer::new();
                        let span = tracer.name("service.try_admit");
                        let outcome = caller(service, specs, hold, t, stop, &mut tracer, span);
                        CallerOutcome {
                            tracer: Some(tracer),
                            ..outcome
                        }
                    } else {
                        caller(service, specs, hold, t, stop, &mut crate::trace::NoTrace, 0)
                    }
                })
            })
            .collect();
        while started.elapsed() < duration {
            std::thread::sleep(SAMPLE_EVERY.min(duration.saturating_sub(started.elapsed())));
            // A plain read may include a charge that is about to be rolled
            // back; the gated read holds committed charges only, which is
            // what "never leaves the region" is a statement about.
            let stable = service.gated_utilizations();
            if !service.region().contains(&stable).unwrap_or(false) {
                watch.outside += 1;
            }
            watch.samples.push(service.utilizations());
        }
        stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let mut timed = Recorder::default();
    for o in &outcomes {
        timed.merge(&o.timed);
    }
    let summary = timed.summary();
    Rep {
        decisions: outcomes.iter().map(|o| o.decisions).sum(),
        admitted: outcomes.iter().map(|o| o.admitted).sum(),
        wall_s,
        cpu_ns: outcomes.iter().map(|o| o.cpu_ns).sum(),
        p50_ns: summary.p50_ns as f64,
        p99_ns: summary.p99_ns as f64,
        timed_calls: summary.count,
        tracers: outcomes.into_iter().filter_map(|o| o.tracer).collect(),
    }
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::new(
        "svc_boundary",
        ctx.seed,
        ctx.seconds,
        ctx.traced,
        ctx.comparable,
    );

    // Set-up: streams, ring-depth calibration, the service — several
    // times over between two readings of the host-speed index, on one CPU.
    // Only the set-up time is restated at index 1.0: the callers' loop is
    // bound by cache lines moving between the two CPUs, which the host's
    // slow spells do not touch (see `hostref` and the README).
    let host_err = |e: std::io::Error| format!("svc_boundary: host reference: {e}");
    env::pin_current_thread(env::bench_cpu());
    let mut host = HostRef::start().map_err(host_err)?;
    let mut setup_speed = host.speed(hostref::READING).map_err(host_err)?;
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut rig = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let streams = streams(ctx.seed);
        let holds = holds(&streams, THREADS);
        let service: Service = AdmissionService::builder(
            FeasibleRegion::deadline_monotonic(STAGES),
            ExactContributions,
        )
        .shards(THREADS)
        .build();
        setups.push(t.elapsed().as_secs_f64());
        rig = Some((streams, holds, service));
    }
    setup_speed = (setup_speed + host.speed(hostref::READING).map_err(host_err)?) / 2.0;
    drop(host);
    env::unpin_current_thread();
    let (streams, holds, service) = rig.expect("at least one set-up");
    report.e2e("setup_s", median(&setups) * setup_speed);

    let (reps, rep_len) = if ctx.traced {
        (1, (ctx.seconds * 0.1).clamp(0.3, 1.5))
    } else {
        (5, ctx.seconds / 5.0)
    };
    let rep_dur = Duration::from_secs_f64(rep_len);
    let mut watch = RegionWatch::default();
    let counters_before = service.counters();
    let mut validated = true;
    let mut measured: Vec<Rep> = Vec::new();
    for _ in 0..reps {
        measured.push(repetition(
            &service, &streams, &holds, rep_dur, false, &mut watch,
        ));
        // Quiescent between repetitions: the exact validator may run.
        validated &=
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| service.debug_validate()))
                .is_ok();
        let u = service.utilizations();
        if !service.region().contains(&u).unwrap_or(false) {
            watch.outside += 1;
        }
    }
    let counters_after = service.counters();

    let dps: Vec<f64> = measured.iter().map(Rep::decisions_per_s).collect();
    let cpu: Vec<f64> = measured
        .iter()
        .map(|r| r.cpu_ns as f64 / r.decisions.max(1) as f64)
        .collect();
    let p50: Vec<f64> = measured.iter().map(|r| r.p50_ns).collect();
    let p99: Vec<f64> = measured.iter().map(|r| r.p99_ns).collect();
    let decisions: u64 = measured.iter().map(|r| r.decisions).sum();
    let admitted: u64 = measured.iter().map(|r| r.admitted).sum();
    let accept = admitted as f64 / decisions.max(1) as f64;
    report.e2e("decisions_per_s", median(&dps));
    report.e2e("cpu_ns_per_decision", median(&cpu));
    report.e2e("decide_p50_ns", median(&p50));
    report.e2e("decide_p99_ns", median(&p99));
    // The caller's round trip is the call itself.
    report.e2e("rtt_p50_us", median(&p50) / 1e3);
    report.e2e("rtt_p99_us", median(&p99) / 1e3);
    report.e2e("accept_ratio", accept);
    report.attempted = decisions;
    report.failed = watch.outside;

    // Traced repetition, one-thread repetition and the layer replay.
    let mut trace_phase = Json::Null;
    if ctx.traced {
        let traced = repetition(&service, &streams, &holds, rep_dur, true, &mut watch);
        // One caller offering the same multiple of the region alone: the
        // same utilization, no contention.
        let single = repetition(
            &service,
            &streams,
            &self::holds(&streams[..1], 1),
            rep_dur,
            false,
            &mut watch,
        );
        let untraced = &measured[0];
        report.layer(
            "service.scaling_2t",
            untraced.decisions_per_s() / (2.0 * single.decisions_per_s()),
        );
        report.layer("bench.traced_decisions_per_s", traced.decisions_per_s());
        report.layer("service.decide_p50_ns", untraced.p50_ns);
        report.layer("service.decide_p99_ns", untraced.p99_ns);
        report.layer(
            "trace_overhead_share",
            1.0 - traced.decisions_per_s() / untraced.decisions_per_s(),
        );
        let d = (counters_after.admitted - counters_before.admitted).max(1) as f64;
        report.layer(
            "service.cas_retries_per_admit",
            (counters_after.cas_retries - counters_before.cas_retries) as f64 / d,
        );
        report.layer(
            "service.seqlock_fallbacks",
            (counters_after.seqlock_fallbacks - counters_before.seqlock_fallbacks) as f64,
        );
        report.layer(
            "service.fast_reject_share",
            (counters_after.fast_rejected - counters_before.fast_rejected) as f64
                / (counters_after.rejected - counters_before.rejected).max(1) as f64,
        );

        let replay = layers::Replay::new(ctx.replay_budget());
        let catalog = crate::wire::Catalog::from_specs(streams[0].clone());
        let region = FeasibleRegion::deadline_monotonic(STAGES);
        report.layer(
            "core.kernel_ns_per_check_s3",
            layers::core_kernel_ns(&replay, &region.kernel(), &watch.samples),
        );
        let wide = FeasibleRegion::deadline_monotonic(64);
        let straddling = layers::boundary_inputs(&wide, ctx.seed, 512);
        report.layer(
            "core.kernel_ns_per_check_s64",
            layers::core_kernel_ns(&replay, &wide.kernel(), &straddling),
        );
        report.layer(
            "core.kernel_fallback_share_s64",
            layers::kernel_fallback_share(&wide.kernel(), &straddling),
        );
        report.layer(
            "core.fp_overlay_ns_per_check",
            layers::core_fp_overlay_ns(&replay, &catalog),
        );
        report.layer(
            "core.fp_convert_ns_per_task",
            layers::core_fp_convert_ns(&replay, &catalog),
        );
        report.layer(
            "service.try_admit_reject_ns",
            layers::service_try_admit_ns(&replay, &catalog, true),
        );
        report.layer(
            "service.try_admit_admit_ns",
            layers::service_try_admit_ns(&replay, &catalog, false),
        );
        report.layer(
            "service.release_ns",
            layers::service_ticket_release_ns(&replay, &catalog.specs),
        );
        report.layer(
            "service.snapshot_ns",
            layers::service_snapshot_ns(&replay, &catalog),
        );
        report.layer(
            "workload.specs_per_s",
            layers::workload_specs_per_s(&replay, workload_builder(ctx.seed, 0)),
        );

        // Span self time per decision; `gateway.*` and `cluster.*` stay 0:
        // this workload never enters them.
        let spans: u64 = traced.tracers.iter().map(|t| t.span_count() as u64).sum();
        let self_ns: u64 = traced
            .tracers
            .iter()
            .map(|t| t.self_ns_by_name()("service.try_admit"))
            .sum();
        trace_phase = Json::obj()
            .with("timed_spans", Json::Num(spans as f64))
            .with(
                "service.try_admit_self_ns_per_timed_call",
                Json::Num(self_ns as f64 / spans.max(1) as f64),
            )
            .with("gateway_self_ns", Json::Num(0.0))
            .with("cluster_self_ns", Json::Num(0.0))
            .with(
                "single_thread_decisions_per_s",
                Json::Num(single.decisions_per_s()),
            );
        if let Some(tracer) = traced.tracers.first() {
            crate::write_trace("svc_boundary", tracer);
        }
    }

    // Quiescence: drop everything held, expire the detached tickets.
    std::thread::sleep(Duration::from_millis(100));
    service.maintain();
    let live = service.live_tasks();
    let counters = service.counters();
    validated &=
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| service.debug_validate())).is_ok();

    report.check(
        "service_never_left_the_region",
        watch.outside == 0,
        format!(
            "{} gated samples (every 50 ms and after each repetition), {} outside",
            watch.samples.len() + reps,
            watch.outside
        ),
    );
    report.check(
        "debug_validate_at_quiescence",
        validated,
        "after each repetition (callers joined) and at the end",
    );
    report.check(
        "accept_ratio_on_the_boundary",
        (0.3..=0.7).contains(&accept),
        format!("accept_ratio {accept:.4} holding each ticket for {holds:?} decisions; 0.3–0.7 expected"),
    );
    report.check(
        "admitted_equals_released_plus_expired_plus_live",
        counters.admitted == counters.released + counters.expired + counters.shed + live as u64,
        format!(
            "admitted={} released={} expired={} live={live}",
            counters.admitted, counters.released, counters.expired
        ),
    );
    report.check(
        "wheel_kept_expiring",
        counters.expired > 0,
        format!(
            "{} detached tickets expired through the timer wheel",
            counters.expired
        ),
    );

    report.phases = Json::obj()
        .with("load", Json::Str(format!(
            "{THREADS} caller threads (pinned to CPUs 0 and 1), shards({THREADS}), MonotonicClock, {STAGES} stages, no sockets; the main thread sleeps between 50 ms samples"
        )))
        .with("closed_loop", Json::obj()
            .with("repetitions", Json::Num(reps as f64))
            .with("seconds_each", Json::Num(rep_len))
            .with("held_for_decisions", Json::Arr(holds.iter().map(|h| Json::Num(*h as f64)).collect()))
            .with("offered_over_capacity", Json::Num(OFFERED))
            .with("timed_one_in", Json::Num(TIMED_EVERY as f64))
            .with("timed_calls", Json::Arr(measured.iter().map(|r| Json::Num(r.timed_calls as f64)).collect()))
            .with("decisions_per_s", Json::Arr(dps.iter().map(|v| Json::Num(*v)).collect()))
            .with("cpu_ns_per_decision", Json::Arr(cpu.iter().map(|v| Json::Num(*v)).collect()))
            .with("decide_p50_ns", Json::Arr(p50.iter().map(|v| Json::Num(*v)).collect()))
            .with("decide_p99_ns", Json::Arr(p99.iter().map(|v| Json::Num(*v)).collect()))
            .with("timing_note", Json::Str("decide_* include the two clock reads around the call (~40 ns)".into())))
        .with("setup_s_samples", Json::Arr(setups.iter().map(|v| Json::Num(*v)).collect()))
        .with("setup_host_speed_index", Json::Num(setup_speed))
        .with("traced", trace_phase);
    report.finish();
    Ok(report)
}
