//! Drives scenarios through the three admission backends — the
//! event-driven simulator, the lock-striped [`AdmissionService`] on a
//! manual clock, and the live TCP gateway in scaled real time — and
//! produces a [`ScenarioReport`] for each.
//!
//! The simulator is the canonical backend: it executes admitted tasks
//! and checks their end-to-end deadlines, so its report carries the
//! `missed == 0` guarantee. The service and gateway backends replay the
//! same trace through the production admission path; they decide but do
//! not execute, so their reports cover admission counts only.

use crate::report::{self, ReplayDecision, ScenarioReport};
use crate::spec::{Scenario, ScenarioPolicy};
use frap_core::admission::ExactContributions;
use frap_core::time::TimeDelta;
use frap_core::wire::WireTaskSpec;
use frap_gateway::client::GatewayClient;
use frap_gateway::proto::Verdict;
use frap_gateway::server::{GatewayConfig, GatewayServer};
use frap_service::{AdmissionService, ManualClock, ServiceOutcome};
use frap_sim::metrics::AdmitDecision;
use frap_sim::{OverloadPolicy, SimBuilder};
use frap_workload::replay::ArrivalTrace;
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// Margin the simulator runs past the arrival horizon so every admitted
/// task reaches its deadline (scenario deadlines are well under this).
pub const DRAIN: TimeDelta = TimeDelta::from_secs(2);

/// A simulator run: the canonical report plus the raw material backing
/// it (the trace and the per-arrival decision log).
pub struct SimRun {
    /// Canonical per-scenario report.
    pub report: ScenarioReport,
    /// The generated trace the report covers.
    pub trace: ArrivalTrace,
    /// One decision per offered arrival, in arrival order.
    pub decisions: Vec<AdmitDecision>,
}

/// Runs `sc` through the simulator with decision logging.
pub fn run_sim(sc: &Scenario) -> SimRun {
    run_sim_opts(sc, true)
}

/// [`run_sim`] with control over idle resets. The service and gateway
/// backends never observe stage-idle instants, so differential tests
/// replay against a sim built with `idle_resets = false` — that
/// configuration is pure charge-at-admit / decrement-at-deadline on both
/// sides.
pub fn run_sim_opts(sc: &Scenario, idle_resets: bool) -> SimRun {
    let trace = sc.generate();
    let mut builder = SimBuilder::new(sc.stages())
        .region(sc.region())
        .model(ExactContributions)
        .record_decisions(true)
        .idle_resets(idle_resets);
    if sc.policy == ScenarioPolicy::ShedLessImportant {
        builder = builder.overload(OverloadPolicy::ShedLessImportant);
    }
    let mut sim = builder.build();
    let started = Instant::now();
    sim.run(trace.iter_arrivals(), sc.horizon + DRAIN);
    let wall = started.elapsed().as_secs_f64();
    let metrics = sim.into_metrics();
    let report = report::from_sim(
        sc.name,
        &trace,
        &|tenant| sc.tenant_name(tenant),
        &metrics,
        wall,
    );
    SimRun {
        report,
        trace,
        decisions: metrics.decision_log,
    }
}

/// Replays `sc` through [`AdmissionService`] on a [`ManualClock`]: the
/// clock is stepped to each arrival instant and the arrival is offered
/// through the production admission path. Tickets are detached, so
/// charge lives until the deadline wheel expires it — the same
/// accounting as a simulator run without idle resets.
///
/// Returns the report plus the per-arrival decisions (for differential
/// tests against [`run_sim_opts`]).
pub fn run_service(sc: &Scenario) -> (ScenarioReport, Vec<ReplayDecision>) {
    let trace = sc.generate();
    let service = AdmissionService::builder(sc.region(), ExactContributions)
        .clock(ManualClock::new())
        .shards(1)
        .build();
    let mut decisions = Vec::with_capacity(trace.len());
    let mut shed_indices = Vec::new();
    // Ticket id -> arrival index, for attributing shed victims.
    let mut by_ticket: HashMap<u64, usize> = HashMap::new();
    let started = Instant::now();
    for (idx, rec) in trace.records.iter().enumerate() {
        service.clock().set(rec.at);
        match sc.policy {
            ScenarioPolicy::Reject => match service.try_admit(&rec.spec) {
                Some(ticket) => {
                    by_ticket.insert(ticket.detach(), idx);
                    decisions.push(ReplayDecision::Admitted);
                }
                None => decisions.push(ReplayDecision::Rejected),
            },
            ScenarioPolicy::ShedLessImportant => match service.try_admit_or_shed(&rec.spec) {
                ServiceOutcome::Admitted(ticket) => {
                    by_ticket.insert(ticket.detach(), idx);
                    decisions.push(ReplayDecision::Admitted);
                }
                ServiceOutcome::AdmittedAfterShedding { ticket, shed } => {
                    for victim in shed {
                        shed_indices.push(by_ticket[&victim]);
                    }
                    by_ticket.insert(ticket.detach(), idx);
                    decisions.push(ReplayDecision::Admitted);
                }
                ServiceOutcome::Rejected => decisions.push(ReplayDecision::Rejected),
            },
        }
    }
    let wall = started.elapsed().as_secs_f64();
    let report = report::from_replay(
        sc.name,
        "service",
        &trace,
        &|tenant| sc.tenant_name(tenant),
        &decisions,
        report::ReplaySheds {
            indices: &shed_indices,
            unattributed: 0,
        },
        wall,
    );
    (report, decisions)
}

/// Replays `sc` end-to-end through the live TCP gateway in scaled real
/// time: every duration in the trace — arrival gaps, stage demands, and
/// deadlines — is divided by `scale`, which preserves each task's
/// demand-to-deadline ratios (what the feasible-region test evaluates)
/// while compressing a multi-second trace into a sub-second replay.
///
/// Tickets are held, never released, so the server-side timer wheel
/// decrements each admitted task's charge at its (scaled) deadline —
/// mirroring the simulator's decrement-at-deadline accounting. Shed
/// victims are server-assigned ticket ids the client cannot map back to
/// arrivals, so gateway reports carry a shed total but no per-row shed
/// attribution.
///
/// # Errors
///
/// Propagates socket failures from the replay connection.
///
/// # Panics
///
/// Panics if the scenario is not [`Scenario::wire_compatible`] or
/// `scale` is zero.
pub fn run_gateway(sc: &Scenario, scale: u64) -> std::io::Result<ScenarioReport> {
    assert!(scale > 0, "scale must be positive");
    assert!(
        sc.wire_compatible(),
        "{}: trace has non-chain tasks, cannot replay over the wire",
        sc.name
    );
    let trace = sc.generate();
    let scaled: Vec<(u64, WireTaskSpec)> = trace
        .records
        .iter()
        .map(|rec| {
            let mut wire = WireTaskSpec::from_spec(&rec.spec)
                .expect("wire-compatible scenario produced a non-chain task");
            wire.deadline_us = (wire.deadline_us / scale).max(1);
            for d in &mut wire.stage_demands_us {
                *d = (*d / scale).max(1);
            }
            (rec.at.as_micros() / scale, wire)
        })
        .collect();
    let allow_shed = sc.policy == ScenarioPolicy::ShedLessImportant;

    let service = AdmissionService::builder(sc.region(), ExactContributions)
        .shards(1)
        .build();
    let server = GatewayServer::bind(
        "127.0.0.1:0",
        service.clone(),
        GatewayConfig {
            workers: 2,
            window: 256,
            idle_timeout: None,
        },
    )?;
    let mut client = GatewayClient::connect(server.local_addr())?;
    let window = usize::from(client.window().max(1));

    let mut decisions = vec![ReplayDecision::Rejected; scaled.len()];
    let mut inflight: VecDeque<usize> = VecDeque::new();
    let mut verdicts: Vec<(u64, Verdict)> = Vec::new();
    let mut unattributed_shed: u64 = 0;
    let mut settle =
        |inflight: &mut VecDeque<usize>, verdicts: &mut Vec<(u64, Verdict)>, shed: &mut u64| {
            for (_, verdict) in verdicts.drain(..) {
                let idx = inflight.pop_front().expect("verdict without a request");
                decisions[idx] = match verdict {
                    Verdict::Admitted { .. } => ReplayDecision::Admitted,
                    Verdict::AdmittedAfterShedding { shed: n, .. } => {
                        *shed += u64::from(n);
                        ReplayDecision::Admitted
                    }
                    Verdict::Rejected => ReplayDecision::Rejected,
                    Verdict::Expired => ReplayDecision::Expired,
                };
            }
        };

    let started = Instant::now();
    for (idx, (at_us, wire)) in scaled.iter().enumerate() {
        // Pace to the scaled arrival instant: coarse sleep, fine spin.
        let target = Duration::from_micros(*at_us);
        loop {
            let elapsed = started.elapsed();
            if elapsed >= target {
                break;
            }
            let gap = target - elapsed;
            if gap > Duration::from_micros(300) {
                std::thread::sleep(gap - Duration::from_micros(200));
            } else {
                std::hint::spin_loop();
            }
        }
        // The transport budget is the full scaled deadline: replay
        // measures admission decisions, not transport-induced expiry.
        client.queue_admit(wire, TimeDelta::from_micros(wire.deadline_us), allow_shed);
        inflight.push_back(idx);
        client.flush()?;
        while inflight.len() - (verdicts.len()) >= window {
            client.recv_admits_into(&mut verdicts)?;
        }
        settle(&mut inflight, &mut verdicts, &mut unattributed_shed);
    }
    client.flush()?;
    while !inflight.is_empty() {
        client.recv_admits_into(&mut verdicts)?;
        settle(&mut inflight, &mut verdicts, &mut unattributed_shed);
    }
    let wall = started.elapsed().as_secs_f64();
    drop(client);
    server.drain();
    server.wait_idle(Duration::from_secs(5));
    let snapshot = server.shutdown();
    assert_eq!(snapshot.protocol_errors, 0, "replay hit protocol errors");

    Ok(report::from_replay(
        sc.name,
        "gateway",
        &trace,
        &|tenant| sc.tenant_name(tenant),
        &decisions,
        report::ReplaySheds {
            indices: &[],
            unattributed: unattributed_shed,
        },
        wall,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::catalog;
    use frap_core::time::Time;

    fn quick(name: &str) -> Scenario {
        let mut sc = catalog(Time::from_millis(600))
            .into_iter()
            .find(|s| s.name == name)
            .expect("scenario in catalog");
        sc.horizon = Time::from_millis(600);
        sc
    }

    #[test]
    fn sim_backend_reports_no_misses_and_full_coverage() {
        for name in ["serverless", "diurnal", "flash_crowd", "multi_tenant"] {
            let run = run_sim(&quick(name));
            assert_eq!(run.report.missed, 0, "{name}: admitted task missed");
            assert_eq!(run.report.offered, run.trace.len() as u64, "{name}");
            assert_eq!(
                run.report.admitted + run.report.rejected,
                run.report.offered,
                "{name}: decisions must partition arrivals"
            );
            assert!(run.report.admitted > 0, "{name}: nothing admitted");
            let tenant_admits: u64 = run.report.tenants.iter().map(|t| t.admitted).sum();
            assert_eq!(tenant_admits, run.report.admitted, "{name}");
        }
    }

    #[test]
    fn shed_rows_concentrate_on_low_importance() {
        let run = run_sim(&quick("flash_crowd"));
        if run.report.shed == 0 {
            return; // not overloaded at this horizon; nothing to check
        }
        let shed_low: u64 = run
            .report
            .importances
            .iter()
            .filter(|r| r.importance == 1)
            .map(|r| r.shed)
            .sum();
        assert_eq!(
            shed_low, run.report.shed,
            "ShedLessImportant must only evict the lowest level present"
        );
    }

    #[test]
    fn service_replay_matches_sim_acceptance() {
        let sc = quick("serverless");
        let sim = run_sim_opts(&sc, false);
        let (service_report, decisions) = run_service(&sc);
        assert_eq!(service_report.offered, sim.report.offered);
        assert_eq!(decisions.len(), sim.decisions.len());
        for (idx, (svc, sim_d)) in decisions.iter().zip(sim.decisions.iter()).enumerate() {
            let sim_admitted = sim_d.is_admitted();
            let svc_admitted = *svc == ReplayDecision::Admitted;
            assert_eq!(svc_admitted, sim_admitted, "arrival {idx} diverged");
        }
    }

    #[test]
    fn gateway_replay_stays_within_tolerance() {
        let sc = quick("serverless");
        // Charge-till-deadline on both sides: see `run_sim_opts`.
        let sim = run_sim_opts(&sc, false);
        let gw = run_gateway(&sc, 20).expect("gateway replay");
        assert_eq!(gw.offered, sim.report.offered);
        let tolerance = (sim.report.admitted as f64 * 0.1).max(25.0);
        let delta = gw.admitted.abs_diff(sim.report.admitted);
        assert!(
            (delta as f64) <= tolerance,
            "gateway admitted {} vs sim {} (tolerance {tolerance})",
            gw.admitted,
            sim.report.admitted
        );
    }
}
