//! Multi-tenant mix: per-tenant rate shares, importance tiers, service
//! demands, and deadline targets over a shared pipeline.
//!
//! The total offered rate is Poisson; each arrival is assigned to a
//! tenant class by its rate share. Classes differ in importance (the
//! shed ordering under overload), mean demand, and deadline tightness —
//! the setting the OPA-style priority search (ROADMAP item 4) will
//! evaluate utility against.

use crate::spec::{reserve_arrivals, tenant_capped};
use frap_core::graph::TaskSpec;
use frap_core::task::Importance;
use frap_core::time::{Time, TimeDelta};
use frap_workload::arrivals::{ArrivalProcess, PoissonProcess};
use frap_workload::dist::{Distribution, Exponential, Uniform};
use frap_workload::replay::ArrivalTrace;
use frap_workload::rng::Rng;

/// Stages of the shared pipeline.
pub const STAGES: usize = 4;

/// One tenant class of the mix.
#[derive(Debug, Clone)]
pub struct TenantClass {
    /// Display name.
    pub name: &'static str,
    /// Fraction of the total arrival rate, in `[0, 1]`; shares should
    /// sum to 1 (the last class absorbs any remainder).
    pub share: f64,
    /// Semantic importance (higher sheds later).
    pub importance: u32,
    /// Mean total computation per task (seconds), split evenly across
    /// the stages as independent exponentials.
    pub mean_total: f64,
    /// End-to-end deadline range (seconds, uniform).
    pub deadline: (f64, f64),
}

/// Parameters of the multi-tenant scenario.
#[derive(Debug, Clone)]
pub struct MultiTenantConfig {
    /// Total offered rate (1/s) across all tenants.
    pub rate: f64,
    /// The tenant classes; arrival shares are taken in order.
    pub classes: Vec<TenantClass>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MultiTenantConfig {
    fn default() -> MultiTenantConfig {
        MultiTenantConfig {
            // ~1.1 charge utilization per stage at the default mix:
            // sustained mild overload, so the importance tiers matter.
            rate: 1100.0,
            classes: vec![
                TenantClass {
                    name: "gold",
                    share: 0.20,
                    importance: 4,
                    mean_total: 0.002,
                    deadline: (0.06, 0.15),
                },
                TenantClass {
                    name: "silver",
                    share: 0.30,
                    importance: 3,
                    mean_total: 0.003,
                    deadline: (0.10, 0.30),
                },
                TenantClass {
                    name: "bronze",
                    share: 0.35,
                    importance: 2,
                    mean_total: 0.004,
                    deadline: (0.20, 0.50),
                },
                TenantClass {
                    name: "batch",
                    share: 0.15,
                    importance: 1,
                    mean_total: 0.008,
                    deadline: (0.40, 0.90),
                },
            ],
            seed: 0,
        }
    }
}

impl MultiTenantConfig {
    /// Generates the arrival trace up to `horizon`.
    pub fn generate(&self, horizon: Time) -> ArrivalTrace {
        assert!(!self.classes.is_empty(), "at least one tenant class");
        let mut rng = Rng::new(self.seed);
        let mut poisson = PoissonProcess::new(self.rate);
        let mut trace = ArrivalTrace::new().with_scenario(format!(
            "multi-tenant rate={} classes={} seed={}",
            self.rate,
            self.classes.len(),
            self.seed
        ));
        reserve_arrivals(&mut trace, self.rate, horizon);
        let mut t = Time::ZERO;
        loop {
            t += poisson.next_gap(&mut rng);
            if t > horizon {
                break;
            }
            // Class by rate share; the last class absorbs the remainder.
            let mut pick = rng.next_f64();
            let mut tenant = self.classes.len() - 1;
            for (i, class) in self.classes.iter().enumerate() {
                if pick < class.share {
                    tenant = i;
                    break;
                }
                pick -= class.share;
            }
            let class = &self.classes[tenant];
            let work = Exponential::new(class.mean_total / STAGES as f64);
            let deadline = Uniform::new(class.deadline.0, class.deadline.1);
            let demands: [TimeDelta; STAGES] = std::array::from_fn(|_| work.sample_delta(&mut rng));
            let spec = TaskSpec::pipeline(deadline.sample_delta(&mut rng), &demands)
                .expect("non-empty pipeline")
                .with_importance(Importance::new(class.importance));
            trace.push(t, spec, tenant_capped(tenant));
        }
        trace
    }

    /// Display name of tenant `tenant`.
    pub fn tenant_name(&self, tenant: u32) -> String {
        self.classes
            .get(tenant as usize)
            .map(|c| c.name.to_string())
            .unwrap_or_else(|| format!("tenant-{tenant}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_with_share_respecting_mix() {
        let cfg = MultiTenantConfig {
            seed: 13,
            ..MultiTenantConfig::default()
        };
        let horizon = Time::from_secs(4);
        let trace = cfg.generate(horizon);
        assert_eq!(trace, cfg.generate(horizon));
        let n = trace.len() as f64;
        for (i, class) in cfg.classes.iter().enumerate() {
            let got = trace
                .records
                .iter()
                .filter(|r| r.tenant == i as u32)
                .count() as f64
                / n;
            assert!(
                (got - class.share).abs() < 0.06,
                "{}: got {got:.3}, want {:.3}",
                class.name,
                class.share
            );
            // Importance rides on every spec of the class.
            assert!(trace
                .records
                .iter()
                .filter(|r| r.tenant == i as u32)
                .all(|r| r.spec.importance == Importance::new(class.importance)));
        }
    }
}
