//! Diurnal web-farm load: the `webfarm` request mix under a day-curve
//! nonhomogeneous Poisson process.
//!
//! The instantaneous rate follows a raised-cosine day curve between a
//! trough and the farm's configured peak rate; arrivals are produced by
//! thinning a homogeneous Poisson process at the peak rate. Request
//! *content* (class mix, per-stage work, deadlines) reuses
//! [`WebFarmConfig::sample_spec`] unchanged, so the scenario inherits
//! the three heterogeneous task-graph shapes — and the Theorem 2
//! shape-intersection region from [`WebFarmConfig::shape_region`] is the
//! right admission test for it. The request class doubles as the tenant
//! label: 0 = static, 1 = dynamic, 2 = report.

use crate::spec::reserve_arrivals;
use frap_core::time::Time;
use frap_workload::arrivals::{ArrivalProcess, PoissonProcess};
use frap_workload::replay::ArrivalTrace;
use frap_workload::rng::Rng;
use frap_workload::webfarm::WebFarmConfig;

/// Stage count (the web farm's four resources).
pub const STAGES: usize = frap_workload::webfarm::STAGES;

/// Parameters of the diurnal web-farm scenario.
#[derive(Debug, Clone)]
pub struct DiurnalConfig {
    /// Request mix and peak rate ([`WebFarmConfig::rate`] is the peak of
    /// the day curve; its `seed` drives all randomness).
    pub farm: WebFarmConfig,
    /// Length of one simulated "day" (seconds) — one full cosine cycle.
    pub day: f64,
    /// Trough rate as a fraction of the peak rate, in `(0, 1]`.
    pub trough: f64,
}

impl DiurnalConfig {
    /// A one-cycle day curve spanning `day` seconds at the default
    /// web-farm mix.
    pub fn new(day: f64, seed: u64) -> DiurnalConfig {
        DiurnalConfig {
            farm: WebFarmConfig {
                // Peak of the day curve: past the app/db stage capacity,
                // so midday arrivals are rejected while the trough admits
                // everything — the curve shows up in the acceptance rate.
                rate: 800.0,
                seed,
                ..WebFarmConfig::default()
            },
            day,
            trough: 0.15,
        }
    }

    /// Instantaneous arrival rate at time `t` (1/s).
    pub fn rate_at(&self, t: f64) -> f64 {
        let peak = self.farm.rate;
        let cycle = 0.5 * (1.0 - (std::f64::consts::TAU * t / self.day).cos());
        peak * (self.trough + (1.0 - self.trough) * cycle)
    }

    /// Generates the arrival trace up to `horizon` by thinning.
    pub fn generate(&self, horizon: Time) -> ArrivalTrace {
        assert!(self.day > 0.0 && self.trough > 0.0 && self.trough <= 1.0);
        let mut rng = Rng::new(self.farm.seed);
        let mut poisson = PoissonProcess::new(self.farm.rate);
        let mut trace = ArrivalTrace::new().with_scenario(format!(
            "diurnal peak={} day={}s trough={} seed={}",
            self.farm.rate, self.day, self.trough, self.farm.seed
        ));
        // A quarter day in, the raised cosine is at its mean over a day.
        let mean_rate = self.rate_at(self.day / 4.0);
        reserve_arrivals(&mut trace, mean_rate, horizon);
        let mut t = Time::ZERO;
        loop {
            t += poisson.next_gap(&mut rng);
            if t > horizon {
                break;
            }
            // Thinning: keep the candidate with probability λ(t)/λmax.
            if rng.next_f64() * self.farm.rate >= self.rate_at(t.as_secs_f64()) {
                continue;
            }
            let spec = self.farm.sample_spec(&mut rng);
            // Class from the graph shape: static (1 node), dynamic
            // (3-chain), report (4-node fork-join).
            let tenant = match spec.graph.len() {
                1 => 0,
                3 => 1,
                _ => 2,
            };
            trace.push(t, spec, tenant);
        }
        trace
    }

    /// Human-readable tenant (request-class) label.
    pub fn tenant_name(tenant: u32) -> String {
        match tenant {
            0 => "static".into(),
            1 => "dynamic".into(),
            _ => "report".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_all_classes_present() {
        let cfg = DiurnalConfig::new(6.0, 11);
        let a = cfg.generate(Time::from_secs(6));
        assert_eq!(a, cfg.generate(Time::from_secs(6)));
        for class in 0..3 {
            assert!(
                a.records.iter().any(|r| r.tenant == class),
                "class {class} missing"
            );
        }
    }

    #[test]
    fn rate_tracks_the_day_curve() {
        let cfg = DiurnalConfig::new(8.0, 5);
        let trace = cfg.generate(Time::from_secs(8));
        // Count arrivals in the trough-centered and peak-centered halves.
        let peak_half = trace
            .records
            .iter()
            .filter(|r| {
                let t = r.at.as_secs_f64();
                (2.0..6.0).contains(&t)
            })
            .count();
        let trough_half = trace.len() - peak_half;
        assert!(
            peak_half as f64 > 2.0 * trough_half as f64,
            "peak_half={peak_half} trough_half={trough_half}"
        );
    }
}
