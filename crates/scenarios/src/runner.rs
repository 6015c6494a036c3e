//! Drives scenarios through two admission backends — the event-driven
//! simulator and the lock-free [`AdmissionService`] on a manual clock —
//! and produces a [`ScenarioReport`] for each.
//!
//! The simulator is the canonical backend: it executes admitted tasks
//! and checks their end-to-end deadlines, so its report carries the
//! `missed == 0` guarantee. The service backend replays the same trace
//! through the production admission path; it decides but does not
//! execute, so its report covers admission counts only.
//!
//! Both record one [`AdmitDecision`] per arrival — an admitted one
//! carrying the id its controller issued — and hand it to the one
//! [`report::build`]. The service replay returns its log beside the
//! report; [`run_sim`] drops the simulator's once the report is built (a
//! catalog pass keeps 16 bytes an arrival less), and [`run_sim_opts`]
//! returns it for the differential callers.

use crate::report::{self, Observed, ScenarioReport};
use crate::spec::{Scenario, ScenarioPolicy};
use frap_core::admission::ExactContributions;
use frap_core::task::TaskId;
use frap_core::time::TimeDelta;
use frap_service::{AdmissionService, ManualClock, ServiceOutcome};
use frap_sim::metrics::AdmitDecision;
use frap_sim::{OverloadPolicy, SimBuilder};
use frap_workload::replay::ArrivalTrace;
use std::time::Instant;

/// Margin the simulator runs past the arrival horizon so every admitted
/// task reaches its deadline (scenario deadlines are well under this).
pub const DRAIN: TimeDelta = TimeDelta::from_secs(2);

/// The decision recording an admission under the ticket id a service
/// issued.
fn admitted(ticket_id: u64) -> AdmitDecision {
    AdmitDecision::Admitted {
        task: TaskId::new(ticket_id),
    }
}

/// A simulator run: the canonical report and the trace it covers. The
/// per-arrival decision log the report is built from is not kept: only
/// the differential callers read it, and they take it from
/// [`run_sim_opts`].
pub struct SimRun {
    /// Canonical per-scenario report.
    pub report: ScenarioReport,
    /// The generated trace the report covers.
    pub trace: ArrivalTrace,
}

/// Runs `sc` through the simulator with idle resets on.
pub fn run_sim(sc: &Scenario) -> SimRun {
    run_sim_opts(sc, true).0
}

/// [`run_sim`] with control over idle resets, and the decision log: one
/// decision per offered arrival, in arrival order. The service has no
/// idle reset (a ticket's units leave at its
/// release or its deadline), so differential tests replay against a sim
/// built with `idle_resets = false` — that configuration is pure
/// charge-at-admit / decrement-at-deadline on both sides.
pub fn run_sim_opts(sc: &Scenario, idle_resets: bool) -> (SimRun, Vec<AdmitDecision>) {
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
    let report = report::build(sc, "sim", &trace, Observed::from(&metrics), wall);
    (SimRun { report, trace }, metrics.decision_log)
}

/// Replays `sc` through [`AdmissionService`] on a [`ManualClock`]: the
/// clock is stepped to each arrival instant and the arrival is offered
/// through the production admission path. Tickets are detached, so
/// charge lives until the deadline wheel expires it — the same
/// accounting as a simulator run without idle resets. The fresh one-shard
/// service issues ticket ids densely from 0 in admission order, as the
/// simulator issues task ids.
///
/// Returns the report plus the per-arrival decisions (for differential
/// tests against [`run_sim_opts`]).
pub fn run_service(sc: &Scenario) -> (ScenarioReport, Vec<AdmitDecision>) {
    let trace = sc.generate();
    let service = AdmissionService::builder(sc.region(), ExactContributions)
        .clock(ManualClock::new())
        .shards(1)
        .build();
    let mut decisions = Vec::with_capacity(trace.len());
    let mut victims = Vec::new();
    let started = Instant::now();
    for rec in &trace.records {
        service.clock().set(rec.at);
        let decision = match sc.policy {
            ScenarioPolicy::Reject => service.try_admit(&rec.spec).map(|t| admitted(t.detach())),
            ScenarioPolicy::ShedLessImportant => match service.try_admit_or_shed(&rec.spec) {
                ServiceOutcome::Admitted(ticket) => Some(admitted(ticket.detach())),
                ServiceOutcome::AdmittedAfterShedding { ticket, shed } => {
                    victims.extend(shed.into_iter().map(TaskId::new));
                    Some(admitted(ticket.detach()))
                }
                ServiceOutcome::Rejected => None,
            },
        };
        decisions.push(decision.unwrap_or(AdmitDecision::Rejected));
    }
    let wall = started.elapsed().as_secs_f64();
    let seen = Observed {
        decisions: &decisions,
        victims: &victims,
        events_processed: decisions.len() as u64,
        ..Observed::default()
    };
    let report = report::build(sc, "service", &trace, seen, wall);
    (report, decisions)
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
        let (sim, sim_decisions) = run_sim_opts(&sc, false);
        let (service_report, decisions) = run_service(&sc);
        assert_eq!(service_report.offered, sim.report.offered);
        assert_eq!(decisions.len(), sim_decisions.len());
        for (idx, (svc, sim_d)) in decisions.iter().zip(&sim_decisions).enumerate() {
            assert_eq!(svc, sim_d, "arrival {idx} diverged");
        }
    }
}
