//! Differential suite: simulator vs production [`AdmissionService`].
//!
//! Replaying a scenario through the service on a [`ManualClock`] — one
//! shard, tickets detached, and the service has no idle reset — is pure
//! charge-at-admit / decrement-at-deadline, exactly the accounting of a
//! simulator run with `idle_resets(false)`. For `Reject`-policy
//! scenarios the two backends must therefore agree **decision for
//! decision**, not just in aggregate. (Shed-policy scenarios are
//! excluded from exact equality: victim *ordering* between equally
//! important live tasks is a tie-break the two implementations are free
//! to make differently.)

use frap_core::time::Time;
use frap_scenarios::runner::{run_service, run_sim_opts};
use frap_scenarios::{catalog, ReplayDecision, Scenario, ScenarioPolicy};

fn scenario(name: &str, horizon: Time) -> Scenario {
    catalog(horizon)
        .into_iter()
        .find(|s| s.name == name)
        .expect("scenario in catalog")
}

fn assert_decision_equal(name: &str, horizon: Time) {
    let sc = scenario(name, horizon);
    assert_eq!(
        sc.policy,
        ScenarioPolicy::Reject,
        "{name}: exact equality only holds without shed tie-breaks"
    );
    let sim = run_sim_opts(&sc, false);
    let (service_report, decisions) = run_service(&sc);

    assert_eq!(sim.decisions.len(), decisions.len(), "{name}: coverage");
    let mut diverged = Vec::new();
    for (idx, (sim_d, svc_d)) in sim.decisions.iter().zip(&decisions).enumerate() {
        let svc_admitted = *svc_d == ReplayDecision::Admitted;
        if sim_d.is_admitted() != svc_admitted {
            diverged.push(idx);
        }
    }
    assert!(
        diverged.is_empty(),
        "{name}: {} arrival(s) decided differently, first at index {:?}",
        diverged.len(),
        diverged.first()
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
        let sim = run_sim_opts(&sc, false);
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
