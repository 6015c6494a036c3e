//! Scenario catalog: named, seeded scenario instances and their
//! admission-control setup (stage count, region, overload policy).

use crate::{diurnal, flash, serverless, tenants};
use frap_core::region::RegionTest;
use frap_core::time::Time;
use frap_experiments::runner::{replication_seed, DEFAULT_BASE_SEED};
use frap_workload::replay::ArrivalTrace;

/// Which generator family a scenario instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// [`crate::serverless`] — heavy-tailed invocation replay.
    Serverless,
    /// [`crate::diurnal`] — day-curve web-farm mix (NHPP thinning).
    Diurnal,
    /// [`crate::flash`] — step overload with exponential decay.
    FlashCrowd,
    /// [`crate::tenants`] — static multi-tenant rate/importance mix.
    MultiTenant,
}

/// How the controller treats infeasible arrivals under overload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioPolicy {
    /// Reject infeasible arrivals outright.
    Reject,
    /// Shed admitted, less-important work to fit more important
    /// arrivals (Section 5's overload architecture).
    ShedLessImportant,
}

/// One runnable scenario instance: a family, a seed, a horizon, and the
/// admission policy it is evaluated under.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Stable name (also the CSV/report key).
    pub name: &'static str,
    /// Generator family.
    pub kind: ScenarioKind,
    /// Seed for the trace generator.
    pub seed: u64,
    /// Trace horizon (arrivals stop here; the sim runs a drain margin
    /// past it so admitted work completes).
    pub horizon: Time,
    /// Overload policy.
    pub policy: ScenarioPolicy,
}

/// Clamps a generator's tenant index into the trace's `u32` label space.
pub(crate) fn tenant_capped(tenant: usize) -> u32 {
    u32::try_from(tenant).unwrap_or(u32::MAX)
}

/// Reserves `trace.records` for arrivals averaging `mean_rate` (1/s) up
/// to `horizon`: the expected count plus 2 % (a Poisson count of 10⁴
/// strays 1 % from its mean; a rare overshoot grows the vector as before).
pub(crate) fn reserve_arrivals(trace: &mut ArrivalTrace, mean_rate: f64, horizon: Time) {
    let expected = mean_rate * horizon.as_secs_f64();
    trace.records.reserve((expected * 1.02) as usize + 64);
}

impl Scenario {
    /// Number of pipeline stages the scenario's tasks use.
    pub fn stages(&self) -> usize {
        match self.kind {
            ScenarioKind::Serverless => serverless::STAGES,
            ScenarioKind::Diurnal => diurnal::STAGES,
            ScenarioKind::FlashCrowd => flash::STAGES,
            ScenarioKind::MultiTenant => tenants::STAGES,
        }
    }

    /// The admission region for this scenario: the deadline-monotonic
    /// feasible region, intersected over all task-graph shapes the
    /// generator produces (Theorem 2) where the workload is
    /// heterogeneous. Built fresh on every call — regions are cheap and
    /// not all of them implement `Clone`.
    pub fn region(&self) -> Box<dyn RegionTest + Send + Sync> {
        match self.kind {
            ScenarioKind::Diurnal => Box::new(self.diurnal_config().farm.shape_region()),
            _ => Box::new(frap_core::region::FeasibleRegion::deadline_monotonic(
                self.stages(),
            )),
        }
    }

    /// Generates the arrival trace (deterministic in `seed`).
    pub fn generate(&self) -> ArrivalTrace {
        match self.kind {
            ScenarioKind::Serverless => serverless::ServerlessConfig {
                seed: self.seed,
                ..serverless::ServerlessConfig::default()
            }
            .generate(self.horizon),
            ScenarioKind::Diurnal => self.diurnal_config().generate(self.horizon),
            ScenarioKind::FlashCrowd => flash::FlashConfig {
                seed: self.seed,
                ..flash::FlashConfig::default()
            }
            .generate(self.horizon),
            ScenarioKind::MultiTenant => tenants::MultiTenantConfig {
                seed: self.seed,
                ..tenants::MultiTenantConfig::default()
            }
            .generate(self.horizon),
        }
    }

    /// Display name for a tenant label of this scenario.
    pub fn tenant_name(&self, tenant: u32) -> String {
        match self.kind {
            ScenarioKind::Serverless => serverless::ServerlessConfig::tenant_name(tenant),
            ScenarioKind::Diurnal => diurnal::DiurnalConfig::tenant_name(tenant),
            ScenarioKind::FlashCrowd => flash::FlashConfig::tenant_name(tenant),
            ScenarioKind::MultiTenant => tenants::MultiTenantConfig::default().tenant_name(tenant),
        }
    }

    /// Whether every task in the trace is a full-stage chain — the shape
    /// [`frap_core::wire::WireTaskSpec`] carries, i.e. whether the trace
    /// can replay over the gateway wire protocol. (The diurnal mix has
    /// fork-join and partial-stage shapes, so it cannot.)
    pub fn wire_compatible(&self) -> bool {
        !matches!(self.kind, ScenarioKind::Diurnal)
    }

    fn diurnal_config(&self) -> diurnal::DiurnalConfig {
        // One full day cycle across the horizon.
        diurnal::DiurnalConfig::new(self.horizon.as_secs_f64(), self.seed)
    }
}

/// The four scenario families at `horizon`, with per-family seeds
/// derived from the workspace seed scheme (family index = point index).
pub fn catalog(horizon: Time) -> Vec<Scenario> {
    let seed = |family: u64| replication_seed(DEFAULT_BASE_SEED, family, 0);
    vec![
        Scenario {
            name: "serverless",
            kind: ScenarioKind::Serverless,
            seed: seed(0),
            horizon,
            policy: ScenarioPolicy::Reject,
        },
        Scenario {
            name: "diurnal",
            kind: ScenarioKind::Diurnal,
            seed: seed(1),
            horizon,
            policy: ScenarioPolicy::Reject,
        },
        Scenario {
            name: "flash_crowd",
            kind: ScenarioKind::FlashCrowd,
            seed: seed(2),
            horizon,
            policy: ScenarioPolicy::ShedLessImportant,
        },
        Scenario {
            name: "multi_tenant",
            kind: ScenarioKind::MultiTenant,
            seed: seed(3),
            horizon,
            policy: ScenarioPolicy::ShedLessImportant,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_four_distinct_families() {
        let cat = catalog(Time::from_secs(1));
        assert_eq!(cat.len(), 4);
        let mut names: Vec<_> = cat.iter().map(|s| s.name).collect();
        names.dedup();
        assert_eq!(names.len(), 4);
        let mut seeds: Vec<_> = cat.iter().map(|s| s.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 4, "family seeds must differ");
    }

    #[test]
    fn regions_match_stage_counts() {
        for sc in catalog(Time::from_secs(1)) {
            assert_eq!(sc.region().stages(), sc.stages(), "{}", sc.name);
        }
    }

    #[test]
    fn wire_compatibility_holds_on_generated_traces() {
        for sc in catalog(Time::from_millis(500)) {
            let trace = sc.generate();
            assert!(!trace.is_empty(), "{}: empty trace", sc.name);
            let all_wire = trace
                .records
                .iter()
                .all(|r| frap_core::wire::WireTaskSpec::from_spec(&r.spec).is_some());
            if sc.wire_compatible() {
                assert!(all_wire, "{}: claims wire-compatible", sc.name);
            }
        }
    }
}
