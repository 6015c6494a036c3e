//! Flash crowd: a step overload at onset decaying back to baseline.
//!
//! Organic traffic arrives at a constant base rate; at the onset instant
//! a crowd multiplies the rate by `multiplier`, decaying exponentially.
//! Arrivals are produced by thinning at the peak rate, and the same
//! uniform draw that decides thinning classifies the survivor: draws
//! below the organic band are organic (tenant 0, higher importance),
//! the rest are crowd traffic (tenant 1, lower importance) — so under
//! [`crate::ScenarioPolicy::ShedLessImportant`] the controller sheds
//! crowd work to protect organic work, which the per-tenant report rows
//! make visible.

use crate::spec::{reserve_arrivals, tenant_capped};
use frap_core::graph::TaskSpec;
use frap_core::task::Importance;
use frap_core::time::{Time, TimeDelta};
use frap_workload::arrivals::{ArrivalProcess, PoissonProcess};
use frap_workload::dist::{Distribution, Exponential, Uniform};
use frap_workload::replay::ArrivalTrace;
use frap_workload::rng::Rng;

/// Stages of the serving pipeline.
pub const STAGES: usize = 3;

/// Parameters of the flash-crowd scenario.
#[derive(Debug, Clone)]
pub struct FlashConfig {
    /// Organic (pre-flash) arrival rate, 1/s.
    pub base_rate: f64,
    /// Peak-rate multiplier at onset (peak = `base_rate × multiplier`).
    pub multiplier: f64,
    /// Onset time as a fraction of the horizon, in `[0, 1)`.
    pub onset_frac: f64,
    /// Exponential decay time constant as a fraction of the horizon.
    pub decay_frac: f64,
    /// Mean total computation per request (seconds), split evenly over
    /// the stages as independent exponentials.
    pub mean_total: f64,
    /// End-to-end deadline range (seconds, uniform).
    pub deadline: (f64, f64),
    /// RNG seed.
    pub seed: u64,
}

impl Default for FlashConfig {
    fn default() -> FlashConfig {
        FlashConfig {
            base_rate: 140.0,
            multiplier: 6.0,
            onset_frac: 0.35,
            decay_frac: 0.18,
            // Per-stage demand of 3 ms puts the organic load at ~0.42
            // stage utilization and the flash peak at ~2.5 — well past
            // the region boundary, so the controller must shed.
            mean_total: 0.009,
            deadline: (0.08, 0.25),
            seed: 0,
        }
    }
}

impl FlashConfig {
    /// Instantaneous rate at `t` seconds for a run of length `horizon`
    /// seconds.
    pub fn rate_at(&self, t: f64, horizon: f64) -> f64 {
        let onset = self.onset_frac * horizon;
        if t < onset {
            self.base_rate
        } else {
            let decay = (-(t - onset) / (self.decay_frac * horizon)).exp();
            self.base_rate * (1.0 + (self.multiplier - 1.0) * decay)
        }
    }

    /// Generates the arrival trace up to `horizon` by thinning at the
    /// peak rate.
    pub fn generate(&self, horizon: Time) -> ArrivalTrace {
        assert!(self.multiplier >= 1.0);
        let h = horizon.as_secs_f64();
        let peak = self.base_rate * self.multiplier;
        let mut rng = Rng::new(self.seed);
        let mut poisson = PoissonProcess::new(peak);
        let work = Exponential::new(self.mean_total / STAGES as f64);
        let deadline = Uniform::new(self.deadline.0, self.deadline.1);
        let mut trace = ArrivalTrace::new().with_scenario(format!(
            "flash base={} x{} onset={} decay={} seed={}",
            self.base_rate, self.multiplier, self.onset_frac, self.decay_frac, self.seed
        ));
        // Mean of `rate_at` over the horizon: the base rate plus the
        // integral of the decaying crowd from onset to the end.
        let crowd = self.decay_frac * (1.0 - (-(1.0 - self.onset_frac) / self.decay_frac).exp());
        let mean_rate = self.base_rate * (1.0 + (self.multiplier - 1.0) * crowd);
        reserve_arrivals(&mut trace, mean_rate, horizon);
        let mut t = Time::ZERO;
        loop {
            t += poisson.next_gap(&mut rng);
            if t > horizon {
                break;
            }
            let u = rng.next_f64() * peak;
            if u >= self.rate_at(t.as_secs_f64(), h) {
                continue;
            }
            // The accept draw doubles as the classifier: the organic band
            // [0, base_rate) contributes exactly the base rate at all
            // times; the rest of the accepted band is the crowd.
            let (tenant, importance) = if u < self.base_rate {
                (0, Importance::new(2))
            } else {
                (1, Importance::new(1))
            };
            let demands: [TimeDelta; STAGES] = std::array::from_fn(|_| work.sample_delta(&mut rng));
            let spec = TaskSpec::pipeline(deadline.sample_delta(&mut rng), &demands)
                .expect("non-empty pipeline")
                .with_importance(importance);
            trace.push(t, spec, tenant_capped(tenant));
        }
        trace
    }

    /// Human-readable tenant label.
    pub fn tenant_name(tenant: u32) -> String {
        if tenant == 0 {
            "organic".into()
        } else {
            "crowd".into()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_crowd_arrives_after_onset() {
        let cfg = FlashConfig {
            seed: 3,
            ..FlashConfig::default()
        };
        let horizon = Time::from_secs(5);
        let a = cfg.generate(horizon);
        assert_eq!(a, cfg.generate(horizon));
        let onset = cfg.onset_frac * 5.0;
        let crowd_before = a
            .records
            .iter()
            .filter(|r| r.tenant == 1 && r.at.as_secs_f64() < onset)
            .count();
        let crowd_after = a
            .records
            .iter()
            .filter(|r| r.tenant == 1 && r.at.as_secs_f64() >= onset)
            .count();
        assert_eq!(crowd_before, 0, "crowd traffic before onset");
        assert!(crowd_after > 50, "crowd_after={crowd_after}");
    }

    #[test]
    fn organic_rate_is_flat_and_importance_split_holds() {
        let cfg = FlashConfig {
            seed: 9,
            ..FlashConfig::default()
        };
        let horizon = Time::from_secs(5);
        let trace = cfg.generate(horizon);
        for r in &trace.records {
            match r.tenant {
                0 => assert_eq!(r.spec.importance, Importance::new(2)),
                _ => assert_eq!(r.spec.importance, Importance::new(1)),
            }
        }
        let organic = trace.records.iter().filter(|r| r.tenant == 0).count();
        let expect = cfg.base_rate * 5.0;
        assert!(
            (organic as f64 - expect).abs() < 0.25 * expect,
            "organic={organic} expect≈{expect}"
        );
    }
}
