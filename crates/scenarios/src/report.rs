//! Per-scenario admission reports: acceptance, per-tenant admit shares,
//! and shed-by-importance rows, built from a trace plus the backend's
//! per-arrival decisions.

use frap_sim::metrics::SimMetrics;
use frap_workload::replay::ArrivalTrace;
use std::collections::BTreeMap;

/// Per-tenant admission accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantRow {
    /// Tenant label from the trace.
    pub tenant: u32,
    /// Display name.
    pub name: String,
    /// Arrivals carrying this label.
    pub offered: u64,
    /// Arrivals admitted (immediately or from the wait queue).
    pub admitted: u64,
    /// Admitted tasks later shed under overload.
    pub shed: u64,
}

/// Per-importance-level admission accounting (the shed-by-importance
/// curve: under `ShedLessImportant`, shed counts should concentrate on
/// the lowest levels).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImportanceRow {
    /// Importance level.
    pub importance: u32,
    /// Arrivals at this level.
    pub offered: u64,
    /// Arrivals admitted.
    pub admitted: u64,
    /// Admitted tasks later shed.
    pub shed: u64,
}

/// One scenario × backend admission report.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Scenario name.
    pub scenario: String,
    /// Which backend produced the decisions (`sim`, `service`,
    /// `gateway`).
    pub backend: String,
    /// Arrivals offered.
    pub offered: u64,
    /// Arrivals admitted.
    pub admitted: u64,
    /// Arrivals rejected (including wait-queue timeouts).
    pub rejected: u64,
    /// Admitted tasks shed under overload.
    pub shed: u64,
    /// Admitted tasks that completed (simulator backend only; transport
    /// backends do not execute tasks).
    pub completed: u64,
    /// Completed tasks that missed their end-to-end deadline. The
    /// feasible-region guarantee makes this 0 for every admitted task
    /// the simulator ran; the scenario binary asserts it.
    pub missed: u64,
    /// Backend work measure (simulator events processed; transport
    /// decisions for the live backends).
    pub events_processed: u64,
    /// Wall-clock seconds the backend took (excluded from
    /// [`ScenarioReport::fingerprint`]).
    pub wall_secs: f64,
    /// Per-tenant rows, ascending tenant label.
    pub tenants: Vec<TenantRow>,
    /// Per-importance rows, ascending level.
    pub importances: Vec<ImportanceRow>,
}

impl ScenarioReport {
    /// Admitted over offered (1.0 when nothing was offered).
    pub fn acceptance_ratio(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            self.admitted as f64 / self.offered as f64
        }
    }

    /// Backend throughput: events processed per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            0.0
        } else {
            self.events_processed as f64 / self.wall_secs
        }
    }

    /// Deterministic digest of everything except wall-clock time, for
    /// golden tests: counts, then per-tenant and per-importance rows.
    pub fn fingerprint(&self) -> Vec<u64> {
        let mut fp = vec![
            self.offered,
            self.admitted,
            self.rejected,
            self.shed,
            self.completed,
            self.missed,
            self.events_processed,
            self.acceptance_ratio().to_bits(),
        ];
        for row in &self.tenants {
            fp.extend([u64::from(row.tenant), row.offered, row.admitted, row.shed]);
        }
        for row in &self.importances {
            fp.extend([
                u64::from(row.importance),
                row.offered,
                row.admitted,
                row.shed,
            ]);
        }
        fp
    }
}

/// Accumulates tenant/importance rows from per-arrival outcomes.
struct RowBuilder<'a> {
    trace: &'a ArrivalTrace,
    tenants: BTreeMap<u32, TenantRow>,
    importances: BTreeMap<u32, ImportanceRow>,
}

impl<'a> RowBuilder<'a> {
    fn new(trace: &'a ArrivalTrace, name_of: &dyn Fn(u32) -> String) -> RowBuilder<'a> {
        let mut tenants = BTreeMap::new();
        let mut importances = BTreeMap::new();
        for r in &trace.records {
            tenants
                .entry(r.tenant)
                .or_insert_with(|| TenantRow {
                    tenant: r.tenant,
                    name: name_of(r.tenant),
                    offered: 0,
                    admitted: 0,
                    shed: 0,
                })
                .offered += 1;
            let level = r.spec.importance.level();
            importances
                .entry(level)
                .or_insert_with(|| ImportanceRow {
                    importance: level,
                    offered: 0,
                    admitted: 0,
                    shed: 0,
                })
                .offered += 1;
        }
        RowBuilder {
            trace,
            tenants,
            importances,
        }
    }

    fn admitted(&mut self, arrival_idx: usize) {
        let r = &self.trace.records[arrival_idx];
        self.tenants
            .get_mut(&r.tenant)
            .expect("tenant row exists")
            .admitted += 1;
        self.importances
            .get_mut(&r.spec.importance.level())
            .expect("importance row exists")
            .admitted += 1;
    }

    fn shed(&mut self, arrival_idx: usize) {
        let r = &self.trace.records[arrival_idx];
        self.tenants.get_mut(&r.tenant).expect("tenant row").shed += 1;
        self.importances
            .get_mut(&r.spec.importance.level())
            .expect("importance row")
            .shed += 1;
    }

    fn finish(self) -> (Vec<TenantRow>, Vec<ImportanceRow>) {
        (
            self.tenants.into_values().collect(),
            self.importances.into_values().collect(),
        )
    }
}

/// Builds the canonical (simulator-backend) report from a trace and the
/// metrics of a decision-logged run.
///
/// Shed victims are attributed through their task ids, which the
/// simulator's controller issues densely from 0 in admission order: an id
/// indexes a table of arrival indexes directly.
///
/// # Panics
///
/// Panics if the metrics were collected without
/// `SimBuilder::record_decisions(true)` or over a different arrival
/// sequence (decision log and trace must have equal length).
pub fn from_sim(
    scenario: &str,
    trace: &ArrivalTrace,
    name_of: &dyn Fn(u32) -> String,
    metrics: &SimMetrics,
    wall_secs: f64,
) -> ScenarioReport {
    assert_eq!(
        metrics.decision_log.len(),
        trace.len(),
        "decision log must cover exactly the offered trace \
         (was the sim built with record_decisions(true)?)"
    );
    let mut rows = RowBuilder::new(trace, name_of);
    const UNSEEN: u32 = u32::MAX;
    assert!(trace.len() < UNSEEN as usize, "arrival indexes fit a u32");
    // Task id -> arrival index. Every admission has a decision-log entry,
    // so every id is below the number of arrivals.
    let mut arrival_of = vec![UNSEEN; trace.len()];
    for (idx, decision) in metrics.decision_log.iter().enumerate() {
        if let Some(task) = decision.admitted_task() {
            rows.admitted(idx);
            arrival_of[task.seq() as usize] = idx as u32;
        }
    }
    for victim in &metrics.shed_log {
        let idx = arrival_of
            .get(victim.seq() as usize)
            .copied()
            .filter(|&idx| idx != UNSEEN)
            .expect("shed victims are admitted tasks");
        rows.shed(idx as usize);
    }
    let (tenants, importances) = rows.finish();
    ScenarioReport {
        scenario: scenario.to_string(),
        backend: "sim".to_string(),
        offered: metrics.offered,
        admitted: metrics.admitted,
        rejected: metrics.rejected + metrics.wait_timeouts,
        shed: metrics.shed,
        completed: metrics.completed,
        missed: metrics.missed,
        events_processed: metrics.events_processed,
        wall_secs,
        tenants,
        importances,
    }
}

/// One per-arrival outcome from a transport backend replay (service or
/// gateway): the decision observed for the arrival at the same index in
/// the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayDecision {
    /// Admitted (ticket granted).
    Admitted,
    /// Rejected.
    Rejected,
    /// The transport budget expired before the request reached the
    /// controller (gateway only).
    Expired,
}

/// Shed attribution observed by a transport backend replay.
///
/// The service replay maps each victim's ticket back to its arrival
/// index; the gateway only learns victim *counts* from
/// `AdmittedAfterShedding` verdicts, so its sheds are unattributed —
/// they appear in the report totals but not in the per-tenant or
/// per-importance rows.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplaySheds<'a> {
    /// Arrival indexes of attributed victims.
    pub indices: &'a [usize],
    /// Victims the backend could not tie to an arrival index.
    pub unattributed: u64,
}

/// Builds a report from a transport backend's per-arrival decisions.
///
/// # Panics
///
/// Panics unless `decisions` has one entry per trace record.
pub fn from_replay(
    scenario: &str,
    backend: &str,
    trace: &ArrivalTrace,
    name_of: &dyn Fn(u32) -> String,
    decisions: &[ReplayDecision],
    sheds: ReplaySheds<'_>,
    wall_secs: f64,
) -> ScenarioReport {
    assert_eq!(decisions.len(), trace.len(), "one decision per arrival");
    let mut rows = RowBuilder::new(trace, name_of);
    let mut admitted = 0;
    let mut rejected = 0;
    for (idx, d) in decisions.iter().enumerate() {
        match d {
            ReplayDecision::Admitted => {
                admitted += 1;
                rows.admitted(idx);
            }
            ReplayDecision::Rejected | ReplayDecision::Expired => rejected += 1,
        }
    }
    for &idx in sheds.indices {
        rows.shed(idx);
    }
    let (tenants, importances) = rows.finish();
    ScenarioReport {
        scenario: scenario.to_string(),
        backend: backend.to_string(),
        offered: decisions.len() as u64,
        admitted,
        rejected,
        shed: sheds.indices.len() as u64 + sheds.unattributed,
        completed: 0,
        missed: 0,
        events_processed: decisions.len() as u64,
        wall_secs,
        tenants,
        importances,
    }
}

// Re-exported so callers can pattern-match sim decisions without a
// direct frap-sim dependency.
pub use frap_sim::metrics::AdmitDecision as SimDecision;

#[cfg(test)]
mod tests {
    use super::*;
    use frap_core::graph::TaskSpec;
    use frap_core::task::Importance;
    use frap_core::time::{Time, TimeDelta};

    fn tiny_trace() -> ArrivalTrace {
        let ms = TimeDelta::from_millis;
        let mut trace = ArrivalTrace::new();
        for (i, tenant) in [(0u64, 0u32), (1, 1), (2, 0), (3, 1)] {
            let spec = TaskSpec::pipeline(ms(50), &[ms(2)])
                .unwrap()
                .with_importance(Importance::new(tenant + 1));
            trace.push(Time::from_millis(i), spec, tenant);
        }
        trace
    }

    #[test]
    fn replay_report_attributes_rows() {
        let trace = tiny_trace();
        let decisions = [
            ReplayDecision::Admitted,
            ReplayDecision::Rejected,
            ReplayDecision::Admitted,
            ReplayDecision::Expired,
        ];
        let report = from_replay(
            "t",
            "service",
            &trace,
            &|t| format!("tenant-{t}"),
            &decisions,
            ReplaySheds {
                indices: &[2],
                unattributed: 0,
            },
            0.1,
        );
        assert_eq!(report.offered, 4);
        assert_eq!(report.admitted, 2);
        assert_eq!(report.rejected, 2);
        assert_eq!(report.shed, 1);
        assert!((report.acceptance_ratio() - 0.5).abs() < 1e-12);
        let t0 = &report.tenants[0];
        assert_eq!((t0.tenant, t0.offered, t0.admitted, t0.shed), (0, 2, 2, 1));
        let t1 = &report.tenants[1];
        assert_eq!((t1.tenant, t1.offered, t1.admitted, t1.shed), (1, 2, 0, 0));
        assert_eq!(report.importances.len(), 2);
    }

    #[test]
    fn fingerprint_ignores_wall_time() {
        let trace = tiny_trace();
        let decisions = [ReplayDecision::Admitted; 4];
        let name = |t: u32| format!("tenant-{t}");
        let a = from_replay(
            "t",
            "service",
            &trace,
            &name,
            &decisions,
            ReplaySheds::default(),
            0.1,
        );
        let b = from_replay(
            "t",
            "service",
            &trace,
            &name,
            &decisions,
            ReplaySheds::default(),
            9.9,
        );
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.wall_secs, b.wall_secs);
    }

    #[test]
    #[should_panic(expected = "one decision per arrival")]
    fn replay_length_mismatch_panics() {
        let trace = tiny_trace();
        from_replay(
            "t",
            "service",
            &trace,
            &|_| String::new(),
            &[ReplayDecision::Admitted],
            ReplaySheds::default(),
            0.0,
        );
    }
}
