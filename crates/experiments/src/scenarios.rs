//! The four trace-driven scenario families of `frap-scenarios`
//! (serverless, diurnal, flash crowd, multi-tenant), each run through
//! the simulator at the scale's horizon.
//!
//! Returns the admission summary, one row a family, with each family's
//! per-tenant and shed-by-importance tables attached as
//! `scenarios/<family>_tenants` and `scenarios/<family>_importance`.
//! Every admitted-and-completed task is checked against its end-to-end
//! deadline, and the run asserts `missed == 0` for every family: the
//! feasible-region guarantee, exercised under cloud-shaped load.

use crate::common::{f, Scale, Table};
use crate::runner::fan_out;
use frap_core::time::Time;
use frap_scenarios::{catalog, run_sim, ScenarioPolicy};

/// Runs every catalog family; see the module docs.
///
/// # Panics
///
/// Panics if an admitted task of any family missed its deadline.
pub fn run(scale: Scale) -> Table {
    let horizon_secs = scale.horizon_secs;
    let scenarios = catalog(Time::from_secs(horizon_secs));
    println!(
        "scenarios: {} families at {horizon_secs}s horizon",
        scenarios.len()
    );
    let runs = fan_out(scenarios.len(), scale.jobs, |i| run_sim(&scenarios[i]));

    let mut summary = Table::new(
        format!("scenario admission summary ({horizon_secs}s horizon, sim backend)"),
        &[
            "scenario",
            "policy",
            "offered",
            "admitted",
            "acceptance",
            "rejected",
            "shed",
            "completed",
            "missed",
        ],
    );
    let mut total_events = 0u64;
    let mut total_wall = 0.0f64;
    for (sc, run) in scenarios.iter().zip(&runs) {
        let r = &run.report;
        assert_eq!(
            r.missed, 0,
            "{}: an admitted task missed its deadline — the region test failed",
            sc.name
        );
        total_events += r.events_processed;
        total_wall += r.wall_secs;
        let policy = match sc.policy {
            ScenarioPolicy::Reject => "reject",
            ScenarioPolicy::ShedLessImportant => "shed",
        };
        summary.push_row(vec![
            sc.name.to_string(),
            policy.to_string(),
            r.offered.to_string(),
            r.admitted.to_string(),
            f(r.acceptance_ratio()),
            r.rejected.to_string(),
            r.shed.to_string(),
            r.completed.to_string(),
            r.missed.to_string(),
        ]);

        let mut tenants = Table::new(
            format!("{}: per-tenant admission", sc.name),
            &[
                "tenant",
                "name",
                "offered",
                "admitted",
                "admit share",
                "shed",
            ],
        );
        for row in &r.tenants {
            tenants.push_row(vec![
                row.tenant.to_string(),
                row.name.clone(),
                row.offered.to_string(),
                row.admitted.to_string(),
                f(row.admitted as f64 / r.admitted.max(1) as f64),
                row.shed.to_string(),
            ]);
        }
        let mut importance = Table::new(
            format!("{}: shed by importance", sc.name),
            &["importance", "offered", "admitted", "shed", "shed share"],
        );
        for row in &r.importances {
            importance.push_row(vec![
                row.importance.to_string(),
                row.offered.to_string(),
                row.admitted.to_string(),
                row.shed.to_string(),
                f(row.shed as f64 / r.shed.max(1) as f64),
            ]);
        }
        tenants.print();
        importance.print();
        let attached = &mut summary.attached;
        attached.push((format!("scenarios/{}_tenants", sc.name), tenants));
        attached.push((format!("scenarios/{}_importance", sc.name), importance));
    }

    crate::runner::perf::note_events(total_events);
    let events_per_sec = if total_wall > 0.0 {
        total_events as f64 / total_wall
    } else {
        0.0
    };
    println!(
        "[perf] scenarios: {total_wall:.3} s wall, {total_events} events, \
         {events_per_sec:.0} events/s"
    );
    summary
}
