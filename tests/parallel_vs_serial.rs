//! Differential suite for the parallel replication runner: on
//! representative parameter points from the figure 1/2, figure 3 (DAG),
//! and Table 1 experiments, the parallel runner must produce aggregates
//! **bit-identical** to the serial runner given the same base seed — and
//! two parallel runs with different worker counts must agree with each
//! other, since the seed derivation and merge order depend only on
//! replication indices, never on thread scheduling.

use frap::core::region::{FeasibleRegion, ShapeRegion};
use frap::core::time::{Time, TimeDelta};
use frap::sim::pipeline::{SimBuilder, WaitPolicy};
use frap::workload::taskgen::PipelineWorkloadBuilder;
use frap::workload::tsce::{self, TsceScenario};
use frap_experiments::common::Scale;
use frap_experiments::fig3_dag;
use frap_experiments::runner::{run_point_cfg, PointResult, RunConfig};

/// A four-replication scale at the given worker count.
fn scale(jobs: usize) -> Scale {
    Scale {
        horizon_secs: 4,
        replications: 4,
        jobs,
    }
}

/// The figure 1/2 style point: a single-stage pipeline under Poisson
/// load 0.9 (what `fig1_2::figure1_simulated` drives).
fn fig1_2_point(jobs: usize) -> PointResult {
    let horizon = Time::from_secs(4);
    run_point_cfg(
        RunConfig::new(scale(jobs)).point(0),
        || SimBuilder::new(1).build(),
        |seed| {
            PipelineWorkloadBuilder::new(1)
                .load(0.9)
                .resolution(20.0)
                .seed(seed)
                .build()
                .until(horizon)
        },
    )
}

/// The figure 3 point: fork-join tasks admitted with the Theorem 2 graph
/// region (`fig3_dag::run` part 2, point 1).
fn fig3_dag_point(jobs: usize) -> PointResult {
    let horizon = Time::from_secs(4);
    run_point_cfg(
        RunConfig::new(scale(jobs)).point(1),
        || {
            SimBuilder::new(fig3_dag::STAGES)
                .idle_resets(false)
                .region(ShapeRegion::new(
                    FeasibleRegion::deadline_monotonic(fig3_dag::STAGES),
                    [fig3_dag::figure3_graph()],
                ))
                .build()
        },
        |seed| fig3_dag::branch_heavy_arrivals(horizon, seed).into_iter(),
    )
}

/// The Table 1 point: the TSCE scenario at 400 tracks with reserved
/// critical capacity and a 200 ms admission wait queue.
fn table1_point(jobs: usize) -> PointResult {
    let horizon = Time::from_secs(4);
    run_point_cfg(
        RunConfig::new(scale(jobs)).point(5),
        || {
            SimBuilder::new(tsce::STAGES)
                .reservations(tsce::reservations().to_vec())
                .reserved_importance(tsce::CRITICAL)
                .wait(WaitPolicy::WaitUpTo(TimeDelta::from_millis(200)))
                .build()
        },
        |seed| {
            let scenario = TsceScenario {
                seed,
                ..TsceScenario::new(400)
            };
            scenario.arrivals(horizon).into_iter()
        },
    )
}

/// Asserts full bitwise agreement plus sanity on a pair of runs.
fn assert_identical(serial: &PointResult, parallel: &PointResult, what: &str) {
    assert!(
        serial.offered > 0,
        "{what}: the point must actually offer work"
    );
    assert_eq!(
        serial.fingerprint(),
        parallel.fingerprint(),
        "{what}: parallel aggregates must be bit-identical to serial"
    );
}

#[test]
fn fig1_2_point_parallel_matches_serial() {
    assert_identical(&fig1_2_point(1), &fig1_2_point(4), "fig1_2");
}

#[test]
fn fig3_dag_point_parallel_matches_serial() {
    assert_identical(&fig3_dag_point(1), &fig3_dag_point(4), "fig3_dag");
}

#[test]
fn table1_point_parallel_matches_serial() {
    assert_identical(&table1_point(1), &table1_point(4), "table1");
}

#[test]
fn different_worker_counts_agree_with_each_other() {
    // Worker count only changes which thread runs a replication, never
    // its seed or merge position: 2 and 5 workers must agree bitwise
    // (5 > replications also exercises the jobs clamp).
    let two = fig3_dag_point(2);
    let five = fig3_dag_point(5);
    assert_eq!(
        two.fingerprint(),
        five.fingerprint(),
        "jobs=2 and jobs=5 must agree bitwise"
    );
}

#[test]
fn events_and_wall_clock_are_recorded() {
    let r = fig1_2_point(2);
    assert!(r.events > 0, "event count must be recorded");
    assert!(r.wall_secs > 0.0, "wall clock must be recorded");
    assert!(r.events_per_sec() > 0.0);
    // The nondeterministic wall clock must not leak into the fingerprint.
    let fp = r.fingerprint();
    assert!(!fp.contains(&r.wall_secs.to_bits()));
}
