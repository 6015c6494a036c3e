//! Differential suite: simulator vs production [`AdmissionService`] vs
//! the live gateway serving it.
//!
//! Replaying a scenario through the service on a [`ManualClock`] — one
//! shard, tickets detached, and the service has no idle reset — is pure
//! charge-at-admit / decrement-at-deadline, exactly the accounting of a
//! simulator run with `idle_resets(false)`. For `Reject`-policy
//! scenarios the two backends must therefore agree **decision for
//! decision**, not just in aggregate — down to the ids: both issue them
//! densely from 0 in admission order. (Shed-policy scenarios are
//! excluded from exact equality: victim *ordering* between equally
//! important live tasks is a tie-break the two implementations are free
//! to make differently.)
//!
//! The gateway replay ([`run_gateway`]) decides on a service built as the
//! service replay's, in lock-step on the same clock, so on every
//! wire-compatible family — shed policies included — its verdicts must be
//! the service's, decision for decision and id for id. On `serverless`
//! they are also the simulator's (idle resets off), at 2 s and over the
//! catalog's full 60 s horizon.

use frap_core::admission::ExactContributions;
use frap_core::task::TaskId;
use frap_core::time::Time;
use frap_core::wire::WireTaskSpec;
use frap_gateway::client::GatewayClient;
use frap_gateway::proto::Verdict;
use frap_gateway::server::{GatewayConfig, GatewayServer};
use frap_scenarios::report::{self, Observed};
use frap_scenarios::runner::{run_service, run_sim_opts};
use frap_scenarios::{catalog, Scenario, ScenarioPolicy, ScenarioReport};
use frap_service::{AdmissionService, ManualClock};
use frap_sim::metrics::AdmitDecision;
use std::time::{Duration, Instant};

/// Replays `sc` end-to-end through the live TCP gateway, in lock-step on
/// the scenario's clock: the gateway's service runs on a [`ManualClock`]
/// exactly as [`run_service`]'s does, and for each arrival the replay
/// steps the clock to the arrival instant, sends the task over its one
/// connection and waits for the verdict before the next arrival. Each
/// verdict is thus decided at its arrival's own instant, through the
/// real socket, codec, reactor and batch admission path, so the
/// decisions are [`run_service`]'s, ticket ids included.
///
/// Tickets are held on the connection, never released, so the service's
/// deadline wheel frees each admitted task's charge at its deadline, as
/// [`run_service`]'s detached tickets are freed. A verdict reports only
/// how many victims it shed, not which, so gateway reports carry a shed
/// total but no per-row shed attribution.
///
/// Panics if the scenario is not [`Scenario::wire_compatible`], on a
/// socket failure, on an [`Verdict::Expired`] (a request expires at its
/// arrival's deadline, which the replay's clock never passes before
/// answering it), or if the gateway counted a protocol error.
fn run_gateway(sc: &Scenario) -> (ScenarioReport, Vec<AdmitDecision>) {
    assert!(sc.wire_compatible(), "{}: not wire-compatible", sc.name);
    let trace = sc.generate();
    let allow_shed = sc.policy == ScenarioPolicy::ShedLessImportant;
    let service = AdmissionService::builder(sc.region(), ExactContributions)
        .clock(ManualClock::new())
        .shards(1)
        .build();
    let server = GatewayServer::bind("127.0.0.1:0", service.clone(), GatewayConfig::default())
        .expect("bind the gateway");
    let mut client = GatewayClient::connect(server.local_addr()).expect("connect");
    let admitted = |ticket_id| AdmitDecision::Admitted {
        task: TaskId::new(ticket_id),
    };
    let mut decisions = Vec::with_capacity(trace.len());
    let mut unattributed_shed = 0;
    let started = Instant::now();
    for rec in &trace.records {
        service.clock().set(rec.at);
        let wire = WireTaskSpec::from_spec(&rec.spec).expect("a chain");
        client.queue_admit_at(&wire, rec.at.as_micros() + wire.deadline_us, allow_shed);
        client.flush().expect("send");
        decisions.push(match client.recv_admit().expect("receive").1 {
            Verdict::Admitted { ticket_id } => admitted(ticket_id),
            Verdict::AdmittedAfterShedding { ticket_id, shed } => {
                unattributed_shed += u64::from(shed);
                admitted(ticket_id)
            }
            Verdict::Rejected => AdmitDecision::Rejected,
            Verdict::Expired => panic!("{}: arrival at {:?} expired", sc.name, rec.at),
        });
    }
    let wall = started.elapsed().as_secs_f64();
    drop(client);
    server.drain();
    server.wait_idle(Duration::from_secs(5));
    assert_eq!(
        server.shutdown().protocol_errors,
        0,
        "replay protocol errors"
    );
    let seen = Observed {
        decisions: &decisions,
        unattributed_shed,
        events_processed: decisions.len() as u64,
        ..Observed::default()
    };
    let report = report::build(sc, "gateway", &trace, seen, wall);
    (report, decisions)
}

fn scenario(name: &str, horizon: Time) -> Scenario {
    catalog(horizon)
        .into_iter()
        .find(|s| s.name == name)
        .expect("scenario in catalog")
}

fn assert_same_decisions(what: &str, a: &[AdmitDecision], b: &[AdmitDecision]) {
    assert_eq!(a.len(), b.len(), "{what}: coverage");
    let diverged: Vec<usize> = (0..a.len()).filter(|&i| a[i] != b[i]).collect();
    assert!(
        diverged.is_empty(),
        "{what}: {} arrival(s) decided differently, first at index {:?}",
        diverged.len(),
        diverged.first()
    );
}

fn assert_decision_equal(name: &str, horizon: Time) {
    let sc = scenario(name, horizon);
    assert_eq!(
        sc.policy,
        ScenarioPolicy::Reject,
        "{name}: exact equality only holds without shed tie-breaks"
    );
    let (sim, sim_decisions) = run_sim_opts(&sc, false);
    let (service_report, decisions) = run_service(&sc);

    assert_same_decisions(
        &format!("{name}: sim vs service"),
        &sim_decisions,
        &decisions,
    );
    assert_eq!(service_report.admitted, sim.report.admitted, "{name}");
    assert_eq!(service_report.rejected, sim.report.rejected, "{name}");

    // Attribution rows must agree too — same decisions over the same
    // trace must produce the same per-tenant and per-importance splits.
    for (sim_row, svc_row) in sim.report.tenants.iter().zip(&service_report.tenants) {
        assert_eq!(sim_row.tenant, svc_row.tenant, "{name}");
        assert_eq!(sim_row.admitted, svc_row.admitted, "{name}: tenant rows");
    }
    for (sim_row, svc_row) in sim
        .report
        .importances
        .iter()
        .zip(&service_report.importances)
    {
        assert_eq!(sim_row.importance, svc_row.importance, "{name}");
        assert_eq!(
            sim_row.admitted, svc_row.admitted,
            "{name}: importance rows"
        );
    }
}

#[test]
fn serverless_sim_and_service_agree_decision_for_decision() {
    assert_decision_equal("serverless", Time::from_secs(2));
}

#[test]
fn diurnal_sim_and_service_agree_decision_for_decision() {
    assert_decision_equal("diurnal", Time::from_secs(2));
}

/// The shed-policy scenarios still agree on aggregate feasibility: the
/// service may pick different equally-important victims, but the total
/// admitted+shed accounting must match the sim within the count of
/// tie-broken evictions (bounded here by the total shed on either side).
#[test]
fn shed_scenarios_agree_in_aggregate() {
    for name in ["flash_crowd", "multi_tenant"] {
        let sc = scenario(name, Time::from_secs(2));
        let (sim, _) = run_sim_opts(&sc, false);
        let (service_report, _) = run_service(&sc);
        assert_eq!(service_report.offered, sim.report.offered, "{name}");
        let slack = sim.report.shed.max(service_report.shed).max(1);
        let delta = service_report.admitted.abs_diff(sim.report.admitted);
        assert!(
            delta <= slack,
            "{name}: admitted diverged by {delta} (> shed slack {slack}): \
             service {} vs sim {}",
            service_report.admitted,
            sim.report.admitted
        );
    }
}

/// The gateway replay of wire-compatible `name` against the service
/// replay: the same decisions, and so the same totals. The gateway sees
/// its victims only as a count, which must be the service's.
fn assert_gateway_equals_service(name: &str) -> Vec<AdmitDecision> {
    let sc = scenario(name, Time::from_secs(2));
    assert!(sc.wire_compatible(), "{name}");
    let (service_report, service_decisions) = run_service(&sc);
    let (gateway_report, gateway_decisions) = run_gateway(&sc);
    assert_same_decisions(
        &format!("{name}: service vs gateway"),
        &service_decisions,
        &gateway_decisions,
    );
    assert_eq!(gateway_report.offered, service_report.offered, "{name}");
    assert_eq!(gateway_report.admitted, service_report.admitted, "{name}");
    assert_eq!(gateway_report.rejected, service_report.rejected, "{name}");
    // The service names its victims, so its rows carry every shed; the
    // gateway's total is its unattributed count alone.
    let in_rows = |r: &ScenarioReport| r.importances.iter().map(|row| row.shed).sum::<u64>();
    assert_eq!(in_rows(&service_report), service_report.shed, "{name}");
    assert_eq!(in_rows(&gateway_report), 0, "{name}");
    assert_eq!(gateway_report.shed, service_report.shed, "{name}");
    if sc.policy == ScenarioPolicy::ShedLessImportant {
        assert!(
            service_report.shed > 0,
            "{name}: nothing shed, nothing checked"
        );
    }
    gateway_decisions
}

#[test]
fn serverless_gateway_agrees_with_service_and_sim() {
    let gateway = assert_gateway_equals_service("serverless");
    let (_, sim_decisions) = run_sim_opts(&scenario("serverless", Time::from_secs(2)), false);
    assert_same_decisions("serverless: sim vs gateway", &sim_decisions, &gateway);
}

/// The whole 60 s `serverless` trace, as the catalog publishes it: the
/// gateway has no idle reset and holds tickets to their deadlines, so its
/// reference is the simulator with idle resets off, verdict for verdict.
#[test]
fn serverless_gateway_agrees_with_the_sim_over_the_full_horizon() {
    let sc = scenario("serverless", Time::from_secs(60));
    let (_, sim_decisions) = run_sim_opts(&sc, false);
    let (gateway_report, gateway_decisions) = run_gateway(&sc);
    assert!(
        gateway_report.offered > 10_000,
        "{}",
        gateway_report.offered
    );
    assert_same_decisions(
        "serverless 60 s: sim vs gateway",
        &sim_decisions,
        &gateway_decisions,
    );
}

#[test]
fn flash_crowd_gateway_agrees_with_service() {
    assert_gateway_equals_service("flash_crowd");
}

#[test]
fn multi_tenant_gateway_agrees_with_service() {
    assert_gateway_equals_service("multi_tenant");
}
