//! Serverless invocation replay: heavy-tailed service times with
//! cold-start spikes.
//!
//! Three stages model a function-as-a-service data path — ingress
//! router, worker pool, egress/commit — and every invocation is a
//! full-stage chain (so the trace also replays over the gateway wire
//! format, which carries exactly this shape). Service times are
//! lognormal with a Pareto tail fraction; a periodic cold-start window
//! multiplies worker time, producing the utilization spikes an admission
//! controller exists to absorb. Function popularity is Zipf-like and
//! the function id doubles as the trace's tenant label.

use crate::spec::{reserve_arrivals, tenant_capped};
use frap_core::graph::TaskSpec;
use frap_core::task::Importance;
use frap_core::time::{Time, TimeDelta};
use frap_workload::arrivals::{ArrivalProcess, PoissonProcess};
use frap_workload::dist::{Distribution, LogNormal, Pareto, Uniform};
use frap_workload::replay::ArrivalTrace;
use frap_workload::rng::Rng;

/// Stages: ingress router, worker pool, egress/commit.
pub const STAGES: usize = 3;

/// Parameters of the serverless replay.
#[derive(Debug, Clone)]
pub struct ServerlessConfig {
    /// Mean invocation rate (1/s).
    pub rate: f64,
    /// Number of distinct functions (tenant labels); popularity is
    /// Zipf-like with weight `1/(i+1)` for function `i`.
    pub functions: usize,
    /// Mean warm worker time (seconds).
    pub worker_mean: f64,
    /// Coefficient of variation of the lognormal worker time.
    pub worker_cv: f64,
    /// Fraction of invocations drawn from the Pareto tail instead.
    pub tail_fraction: f64,
    /// Pareto tail: minimum (seconds) and shape (> 1).
    pub tail: (f64, f64),
    /// Cold-start spike period and window length (seconds): during the
    /// first `cold.1` seconds of every `cold.0`-second period, worker
    /// time is multiplied by `cold_factor`.
    pub cold: (f64, f64),
    /// Worker-time multiplier inside a cold window.
    pub cold_factor: f64,
    /// End-to-end deadline range (seconds, uniform).
    pub deadline: (f64, f64),
    /// RNG seed.
    pub seed: u64,
}

impl Default for ServerlessConfig {
    fn default() -> ServerlessConfig {
        ServerlessConfig {
            rate: 250.0,
            functions: 6,
            worker_mean: 0.004,
            worker_cv: 1.5,
            tail_fraction: 0.05,
            tail: (0.008, 1.8),
            cold: (2.0, 0.25),
            cold_factor: 5.0,
            deadline: (0.10, 0.40),
            seed: 0,
        }
    }
}

impl ServerlessConfig {
    /// Generates the invocation trace up to `horizon`. Deterministic in
    /// `self` (same config ⇒ bit-identical trace).
    pub fn generate(&self, horizon: Time) -> ArrivalTrace {
        let mut rng = Rng::new(self.seed);
        let mut poisson = PoissonProcess::new(self.rate);
        let warm = LogNormal::from_mean_cv(self.worker_mean, self.worker_cv);
        let tail = Pareto::new(self.tail.0, self.tail.1);
        let deadline = Uniform::new(self.deadline.0, self.deadline.1);
        // Zipf-like popularity: cumulative weights 1/(i+1).
        let weights: Vec<f64> = (0..self.functions)
            .map(|i| 1.0 / (i as f64 + 1.0))
            .collect();
        let total: f64 = weights.iter().sum();

        let mut trace = ArrivalTrace::new().with_scenario(format!(
            "serverless rate={} functions={} seed={}",
            self.rate, self.functions, self.seed
        ));
        reserve_arrivals(&mut trace, self.rate, horizon);
        let mut t = Time::ZERO;
        loop {
            t += poisson.next_gap(&mut rng);
            if t > horizon {
                break;
            }
            // Function draw (tenant label).
            let mut pick = rng.next_f64() * total;
            let mut function = self.functions - 1;
            for (i, w) in weights.iter().enumerate() {
                if pick < *w {
                    function = i;
                    break;
                }
                pick -= w;
            }
            // Worker time: lognormal body, Pareto tail, cold-start factor.
            let is_tail = rng.next_f64() < self.tail_fraction;
            let mut worker = if is_tail {
                tail.sample(&mut rng)
            } else {
                warm.sample(&mut rng)
            };
            let phase = t.as_secs_f64() % self.cold.0;
            if phase < self.cold.1 {
                worker *= self.cold_factor;
            }
            let d = deadline.sample_delta(&mut rng);
            let spec = TaskSpec::pipeline(
                d,
                &[
                    TimeDelta::from_micros(200),
                    TimeDelta::from_secs_f64(worker),
                    TimeDelta::from_micros(300),
                ],
            )
            .expect("non-empty pipeline")
            .with_importance(Importance::new(1));
            trace.push(t, spec, tenant_capped(function));
        }
        trace
    }

    /// Human-readable tenant (function) label.
    pub fn tenant_name(tenant: u32) -> String {
        format!("fn-{tenant}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_wire_shaped() {
        let cfg = ServerlessConfig::default();
        let a = cfg.generate(Time::from_secs(2));
        let b = cfg.generate(Time::from_secs(2));
        assert_eq!(a, b);
        assert!(a.len() > 300, "len={}", a.len());
        for r in &a.records {
            assert!(r.spec.graph.is_chain());
            assert_eq!(r.spec.graph.len(), STAGES);
            assert!(frap_core::wire::WireTaskSpec::from_spec(&r.spec).is_some());
            assert!((r.tenant as usize) < cfg.functions);
        }
    }

    #[test]
    fn popularity_is_skewed_and_tails_exist() {
        let cfg = ServerlessConfig {
            seed: 7,
            ..ServerlessConfig::default()
        };
        let trace = cfg.generate(Time::from_secs(4));
        let f0 = trace.records.iter().filter(|r| r.tenant == 0).count();
        let flast = trace
            .records
            .iter()
            .filter(|r| r.tenant == cfg.functions as u32 - 1)
            .count();
        assert!(f0 > 2 * flast, "f0={f0} flast={flast}");
        // A cold window plus the Pareto tail must produce some worker
        // times far above the warm mean.
        let slow = trace
            .records
            .iter()
            .filter(|r| {
                r.spec
                    .graph
                    .subtasks()
                    .nth(1)
                    .expect("worker")
                    .computation()
                    > TimeDelta::from_secs_f64(3.0 * cfg.worker_mean)
            })
            .count();
        assert!(slow > 0, "no heavy-tailed worker times generated");
    }
}
