//! A web-farm scenario: the paper's introductory example of requests that
//! "must be processed by both the front-end and several tiers of back-end
//! servers that execute the business logic and interact with database
//! services".
//!
//! Four resources:
//!
//! | stage | role |
//! |-------|------|
//! | 0 | front end / load balancer |
//! | 1 | application server A |
//! | 2 | application server B |
//! | 3 | database |
//!
//! Three request classes with *different task-graph shapes* (this is the
//! heterogeneous-shape workload for
//! [`frap_core::region::ShapeRegion`]):
//!
//! * **static** — front end only (cache hit);
//! * **dynamic** — front end → one app server → database (chain);
//! * **report** — front end → both app servers in parallel → database
//!   (fork-join, Figure 3's shape).

use crate::arrivals::{ArrivalProcess, PoissonProcess};
use crate::dist::{Distribution, Exponential, Uniform};
use crate::rng::Rng;
use frap_core::graph::{TaskGraph, TaskSpec};
use frap_core::region::{FeasibleRegion, ShapeRegion};
use frap_core::task::{Importance, StageId, SubtaskSpec};
use frap_core::time::{Time, TimeDelta};

/// Number of resources in the farm.
pub const STAGES: usize = 4;

/// The front-end stage.
pub const FRONT_END: StageId = StageId::new(0);
/// Application server A.
pub const APP_A: StageId = StageId::new(1);
/// Application server B.
pub const APP_B: StageId = StageId::new(2);
/// The database.
pub const DATABASE: StageId = StageId::new(3);

/// Mix and rates of the three request classes.
#[derive(Debug, Clone)]
pub struct WebFarmConfig {
    /// Total arrivals per second.
    pub rate: f64,
    /// Probability an arrival is a static (cache-hit) request.
    pub static_fraction: f64,
    /// Probability an arrival is a report (fork-join) request; the
    /// remainder are dynamic requests.
    pub report_fraction: f64,
    /// Mean front-end work (seconds).
    pub front_end_mean: f64,
    /// Mean app-server work (seconds).
    pub app_mean: f64,
    /// Mean database work (seconds).
    pub db_mean: f64,
    /// Response-time target (relative deadline) range, seconds.
    pub deadline: (f64, f64),
    /// RNG seed.
    pub seed: u64,
}

impl Default for WebFarmConfig {
    fn default() -> WebFarmConfig {
        WebFarmConfig {
            rate: 200.0,
            static_fraction: 0.5,
            report_fraction: 0.1,
            front_end_mean: 0.001,
            app_mean: 0.004,
            db_mean: 0.003,
            deadline: (0.25, 0.75),
            seed: 0,
        }
    }
}

impl WebFarmConfig {
    /// Representative specs of the three request shapes (unit-time
    /// placeholders — shapes only), for building a [`ShapeRegion`].
    fn representative_shapes(&self) -> Vec<TaskGraph> {
        let ms1 = TimeDelta::from_millis(1);
        vec![
            TaskGraph::chain(vec![SubtaskSpec::new(FRONT_END, ms1)]).expect("valid"),
            TaskGraph::chain(vec![
                SubtaskSpec::new(FRONT_END, ms1),
                SubtaskSpec::new(APP_A, ms1),
                SubtaskSpec::new(DATABASE, ms1),
            ])
            .expect("valid"),
            TaskGraph::chain(vec![
                SubtaskSpec::new(FRONT_END, ms1),
                SubtaskSpec::new(APP_B, ms1),
                SubtaskSpec::new(DATABASE, ms1),
            ])
            .expect("valid"),
            TaskGraph::fork_join(
                SubtaskSpec::new(FRONT_END, ms1),
                &[SubtaskSpec::new(APP_A, ms1), SubtaskSpec::new(APP_B, ms1)],
                SubtaskSpec::new(DATABASE, ms1),
            )
            .expect("valid"),
        ]
    }

    /// Builds the Theorem 2 intersection region covering all shapes this
    /// workload produces.
    pub fn shape_region(&self) -> ShapeRegion {
        ShapeRegion::new(
            FeasibleRegion::deadline_monotonic(STAGES),
            self.representative_shapes(),
        )
    }

    /// Draws one request — class, per-stage work, deadline — advancing
    /// `rng` exactly as one iteration of [`WebFarmConfig::arrivals`] does
    /// (arrival timing excluded), so callers can substitute their own
    /// arrival process (e.g. NHPP thinning for diurnal curves) while
    /// keeping the per-request draws identical.
    pub fn sample_spec(&self, rng: &mut Rng) -> TaskSpec {
        let fe = Exponential::new(self.front_end_mean);
        let app = Exponential::new(self.app_mean);
        let db = Exponential::new(self.db_mean);
        let deadline = Uniform::new(self.deadline.0, self.deadline.1);
        let class = rng.next_f64();
        let graph = if class < self.static_fraction {
            TaskGraph::chain_of(&[(FRONT_END, fe.sample_delta(rng))]).expect("valid")
        } else if class < self.static_fraction + self.report_fraction {
            TaskGraph::fork_join(
                SubtaskSpec::new(FRONT_END, fe.sample_delta(rng)),
                &[
                    SubtaskSpec::new(APP_A, app.sample_delta(rng)),
                    SubtaskSpec::new(APP_B, app.sample_delta(rng)),
                ],
                SubtaskSpec::new(DATABASE, db.sample_delta(rng)),
            )
            .expect("valid")
        } else {
            // Dynamic request: balance across the two app servers.
            let server = if rng.next_f64() < 0.5 { APP_A } else { APP_B };
            TaskGraph::chain_of(&[
                (FRONT_END, fe.sample_delta(rng)),
                (server, app.sample_delta(rng)),
                (DATABASE, db.sample_delta(rng)),
            ])
            .expect("valid")
        };
        TaskSpec::new(deadline.sample_delta(rng), graph).with_importance(Importance::new(1))
    }

    /// Generates the arrival sequence up to `horizon`.
    pub fn arrivals(&self, horizon: Time) -> Vec<(Time, TaskSpec)> {
        let mut rng = Rng::new(self.seed);
        let mut poisson = PoissonProcess::new(self.rate);
        let mut out = Vec::new();
        let mut t = Time::ZERO;
        loop {
            t += poisson.next_gap(&mut rng);
            if t > horizon {
                break;
            }
            out.push((t, self.sample_spec(&mut rng)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_all_three_shapes() {
        let cfg = WebFarmConfig {
            seed: 3,
            ..WebFarmConfig::default()
        };
        let arrivals = cfg.arrivals(Time::from_secs(2));
        assert!(arrivals.len() > 200);
        let statics = arrivals.iter().filter(|(_, s)| s.graph.len() == 1).count();
        let chains = arrivals
            .iter()
            .filter(|(_, s)| s.graph.len() == 3 && s.graph.is_chain())
            .count();
        let reports = arrivals.iter().filter(|(_, s)| s.graph.len() == 4).count();
        assert!(statics > 0 && chains > 0 && reports > 0);
        // Rough mix check: half static, ~10% reports.
        let n = arrivals.len() as f64;
        assert!((statics as f64 / n - 0.5).abs() < 0.1);
        assert!((reports as f64 / n - 0.1).abs() < 0.06);
    }

    #[test]
    fn shape_region_covers_four_distinct_shapes() {
        use frap_core::region::RegionTest;
        let cfg = WebFarmConfig::default();
        let region = cfg.shape_region();
        assert_eq!(region.len(), 4);
        assert_eq!(RegionTest::stages(&region), STAGES);
        assert!(region.feasible(&[0.2, 0.2, 0.2, 0.2]));
        assert!(!region.feasible(&[0.5, 0.5, 0.5, 0.5]));
    }

    #[test]
    fn arrivals_are_sorted_and_deterministic() {
        let cfg = WebFarmConfig::default();
        let a = cfg.arrivals(Time::from_secs(1));
        let b = cfg.arrivals(Time::from_secs(1));
        assert_eq!(a.len(), b.len());
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn dynamic_requests_balance_across_app_servers() {
        let cfg = WebFarmConfig {
            static_fraction: 0.0,
            report_fraction: 0.0,
            seed: 8,
            ..WebFarmConfig::default()
        };
        let arrivals = cfg.arrivals(Time::from_secs(3));
        let on_a = arrivals
            .iter()
            .filter(|(_, s)| s.graph.subtasks().any(|sub| sub.stage == APP_A))
            .count();
        let on_b = arrivals
            .iter()
            .filter(|(_, s)| s.graph.subtasks().any(|sub| sub.stage == APP_B))
            .count();
        let ratio = on_a as f64 / (on_a + on_b) as f64;
        assert!((ratio - 0.5).abs() < 0.1, "ratio={ratio}");
    }
}
