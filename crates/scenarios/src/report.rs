//! Per-scenario admission reports: acceptance, per-tenant admit shares,
//! and shed-by-importance rows.
//!
//! Every backend — the simulator, the service replay and the gateway
//! replay of `tests/backends.rs` — records one [`AdmitDecision`] per trace arrival, and [`build`]
//! turns a trace plus what a backend [`Observed`] into a
//! [`ScenarioReport`]. Counts come from the decisions themselves, so the
//! three backends' reports count alike: `rejected` is every `Rejected`
//! and `TimedOut` decision, once.

use crate::spec::Scenario;
use frap_core::task::TaskId;
use frap_sim::metrics::{AdmitDecision, SimMetrics};
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
    fn new(trace: &'a ArrivalTrace, sc: &Scenario) -> RowBuilder<'a> {
        let mut tenants = BTreeMap::new();
        let mut importances = BTreeMap::new();
        for r in &trace.records {
            tenants
                .entry(r.tenant)
                .or_insert_with(|| TenantRow {
                    tenant: r.tenant,
                    name: sc.tenant_name(r.tenant),
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

/// What one backend observed over a trace: the input of [`build`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Observed<'a> {
    /// One decision per trace arrival, in arrival order.
    pub decisions: &'a [AdmitDecision],
    /// Shed victims, by the ids their controller issued: densely from 0
    /// in admission order, as the admitted decisions carry them.
    pub victims: &'a [TaskId],
    /// Victims seen only as a count (the gateway's verdicts name none):
    /// in the report's total, but in no tenant or importance row.
    pub unattributed_shed: u64,
    /// Admitted tasks that completed. Only the simulator executes tasks;
    /// the replays leave this and `missed` at 0.
    pub completed: u64,
    /// Completed tasks that missed their end-to-end deadline.
    pub missed: u64,
    /// Backend work: the simulator's events, one per decision for a
    /// replay.
    pub events_processed: u64,
}

impl<'a> From<&'a SimMetrics> for Observed<'a> {
    /// A decision-logged simulator run: its decision and shed logs and
    /// its executed counts.
    fn from(metrics: &'a SimMetrics) -> Observed<'a> {
        Observed {
            decisions: &metrics.decision_log,
            victims: &metrics.shed_log,
            unattributed_shed: 0,
            completed: metrics.completed,
            missed: metrics.missed,
            events_processed: metrics.events_processed,
        }
    }
}

/// Builds `sc`'s report over `trace` from what `backend` observed.
///
/// Shed victims are attributed through their ids, which index a table
/// of arrival indexes directly (every admission has a decision, so every
/// id is below the number of arrivals).
///
/// # Panics
///
/// Panics unless there is one decision per trace record (a simulator run
/// needs `SimBuilder::record_decisions(true)`), or if a victim's id was
/// not admitted.
pub fn build(
    sc: &Scenario,
    backend: &str,
    trace: &ArrivalTrace,
    seen: Observed<'_>,
    wall_secs: f64,
) -> ScenarioReport {
    assert_eq!(
        seen.decisions.len(),
        trace.len(),
        "one decision per arrival (was the sim built with record_decisions(true)?)"
    );
    let mut rows = RowBuilder::new(trace, sc);
    const UNSEEN: u32 = u32::MAX;
    assert!(trace.len() < UNSEEN as usize, "arrival indexes fit a u32");
    let mut arrival_of = vec![UNSEEN; trace.len()];
    let (mut admitted, mut rejected) = (0, 0);
    for (idx, decision) in seen.decisions.iter().enumerate() {
        match decision {
            AdmitDecision::Admitted { task } | AdmitDecision::AdmittedFromQueue { task } => {
                admitted += 1;
                rows.admitted(idx);
                arrival_of[task.seq() as usize] = idx as u32;
            }
            AdmitDecision::Rejected | AdmitDecision::TimedOut => rejected += 1,
            AdmitDecision::Queued => {}
        }
    }
    for victim in seen.victims {
        let idx = arrival_of
            .get(victim.seq() as usize)
            .copied()
            .filter(|&idx| idx != UNSEEN)
            .expect("shed victims are admitted tasks");
        rows.shed(idx as usize);
    }
    let (tenants, importances) = rows.finish();
    ScenarioReport {
        scenario: sc.name.to_string(),
        backend: backend.to_string(),
        offered: seen.decisions.len() as u64,
        admitted,
        rejected,
        shed: seen.victims.len() as u64 + seen.unattributed_shed,
        completed: seen.completed,
        missed: seen.missed,
        events_processed: seen.events_processed,
        wall_secs,
        tenants,
        importances,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::catalog;
    use frap_core::graph::TaskSpec;
    use frap_core::task::Importance;
    use frap_core::time::{Time, TimeDelta};
    use frap_sim::{SimBuilder, WaitPolicy};

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

    fn scenario() -> Scenario {
        catalog(Time::from_secs(1)).swap_remove(0)
    }

    fn admitted(task: u64) -> AdmitDecision {
        AdmitDecision::Admitted {
            task: TaskId::new(task),
        }
    }

    #[test]
    fn replay_report_attributes_rows() {
        let trace = tiny_trace();
        let decisions = [
            admitted(0),
            AdmitDecision::Rejected,
            admitted(1),
            AdmitDecision::TimedOut,
        ];
        let seen = Observed {
            decisions: &decisions,
            victims: &[TaskId::new(1)],
            events_processed: 4,
            ..Observed::default()
        };
        let report = build(&scenario(), "service", &trace, seen, 0.1);
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
        let decisions = [admitted(0), admitted(1), admitted(2), admitted(3)];
        let seen = Observed {
            decisions: &decisions,
            ..Observed::default()
        };
        let a = build(&scenario(), "service", &trace, seen, 0.1);
        let b = build(&scenario(), "service", &trace, seen, 9.9);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.wall_secs, b.wall_secs);
    }

    /// `SimMetrics::rejected` already counts wait timeouts; the report
    /// must not add them again.
    #[test]
    fn a_wait_timeout_is_one_rejection() {
        let sc = catalog(Time::from_secs(2))
            .into_iter()
            .find(|s| s.name == "flash_crowd")
            .expect("flash_crowd in the catalog");
        let trace = sc.generate();
        let mut sim = SimBuilder::new(sc.stages())
            .region(sc.region())
            .wait(WaitPolicy::WaitUpTo(TimeDelta::from_millis(1)))
            .record_decisions(true)
            .build();
        sim.run(trace.iter_arrivals(), sc.horizon + crate::DRAIN);
        let metrics = sim.into_metrics();
        assert!(metrics.wait_timeouts > 0, "some waits must time out");
        let report = build(&sc, "sim", &trace, Observed::from(&metrics), 0.0);
        assert_eq!(report.admitted + report.rejected, report.offered);
        assert_eq!(report.rejected, metrics.rejected);
    }

    #[test]
    #[should_panic(expected = "one decision per arrival")]
    fn replay_length_mismatch_panics() {
        let seen = Observed {
            decisions: &[admitted(0)],
            ..Observed::default()
        };
        build(&scenario(), "service", &tiny_trace(), seen, 0.0);
    }
}
