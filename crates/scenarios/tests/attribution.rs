//! The simulator report's tenant and importance rows against a
//! brute-force recount over the same run: every row's `offered`,
//! `admitted` and `shed` counted straight from the trace, the decision
//! log and the shed log, with each victim found by a linear search of the
//! decisions.

use frap_core::admission::ExactContributions;
use frap_core::time::Time;
use frap_scenarios::report::{build, Observed};
use frap_scenarios::{catalog, ImportanceRow, Scenario, TenantRow, DRAIN};
use frap_sim::metrics::SimMetrics;
use frap_sim::{OverloadPolicy, SimBuilder};
use frap_workload::replay::ArrivalTrace;
use std::collections::BTreeMap;

fn shed_run(sc: &Scenario) -> (ArrivalTrace, SimMetrics) {
    let trace = sc.generate();
    let mut sim = SimBuilder::new(sc.stages())
        .region(sc.region())
        .model(ExactContributions)
        .record_decisions(true)
        .overload(OverloadPolicy::ShedLessImportant)
        .build();
    sim.run(trace.iter_arrivals(), sc.horizon + DRAIN);
    (trace, sim.into_metrics())
}

/// `(offered, admitted, shed)` per tenant and per importance level.
type Counts = BTreeMap<u32, [u64; 3]>;

fn recount(trace: &ArrivalTrace, metrics: &SimMetrics) -> (Counts, Counts) {
    let mut tenants = Counts::new();
    let mut importances = Counts::new();
    let mut bump = |idx: usize, column: usize| {
        let r = &trace.records[idx];
        tenants.entry(r.tenant).or_default()[column] += 1;
        importances.entry(r.spec.importance.level()).or_default()[column] += 1;
    };
    for idx in 0..trace.len() {
        bump(idx, 0);
        if metrics.decision_log[idx].is_admitted() {
            bump(idx, 1);
        }
    }
    for &victim in &metrics.shed_log {
        let idx = metrics
            .decision_log
            .iter()
            .position(|d| d.admitted_task() == Some(victim))
            .expect("a victim was admitted");
        bump(idx, 2);
    }
    (tenants, importances)
}

#[test]
fn sim_report_rows_equal_a_brute_force_recount() {
    for sc in catalog(Time::from_secs(5)) {
        if sc.name != "flash_crowd" && sc.name != "multi_tenant" {
            continue;
        }
        let (trace, metrics) = shed_run(&sc);
        assert!(metrics.shed > 0, "{}: the run must shed", sc.name);
        let report = build(&sc, "sim", &trace, Observed::from(&metrics), 0.0);
        let (tenants, importances) = recount(&trace, &metrics);
        let tenant_rows: Counts = report
            .tenants
            .iter()
            .map(|r: &TenantRow| (r.tenant, [r.offered, r.admitted, r.shed]))
            .collect();
        let importance_rows: Counts = report
            .importances
            .iter()
            .map(|r: &ImportanceRow| (r.importance, [r.offered, r.admitted, r.shed]))
            .collect();
        assert_eq!(tenant_rows, tenants, "{}: tenant rows", sc.name);
        assert_eq!(importance_rows, importances, "{}: importance rows", sc.name);
        assert_eq!(report.tenants.len(), tenants.len(), "{}", sc.name);
        assert_eq!(report.importances.len(), importances.len(), "{}", sc.name);
    }
}
