//! Empirical validation of Theorem 1 (the stage delay theorem): the time
//! any task spends at stage `j` never exceeds `f(U_j) · D_max`, where
//! `U_j` is the observed peak synthetic utilization at the stage and
//! `D_max` the largest admitted relative deadline.

use frap::core::delay::stage_delay_factor;
use frap::core::task::StageId;
use frap::core::time::{Time, TimeDelta};
use frap::sim::pipeline::SimBuilder;
use frap::workload::taskgen::PipelineWorkloadBuilder;

fn check(stages: usize, load: f64, resolution: f64, seed: u64) {
    let horizon = Time::from_secs(12);
    let builder = PipelineWorkloadBuilder::new(stages)
        .load(load)
        .resolution(resolution)
        .seed(seed);
    // Deadlines are uniform in [0.5, 1.5] × mean deadline.
    let d_max = TimeDelta::from_secs_f64(1.5 * builder.mean_deadline());
    let mut sim = SimBuilder::new(stages).build();
    let m = sim.run(builder.build().until(horizon), horizon).clone();
    assert!(m.admitted > 0);

    for j in 0..stages {
        let peak = sim.admission().state().stage(StageId::new(j)).peak();
        let bound = d_max.mul_f64(stage_delay_factor(peak));
        let observed = m.stages[j].stage_delay_max;
        assert!(
            observed <= bound,
            "Theorem 1 violated at stage {j}: observed L_j = {observed}, \
             bound f({peak:.4})·D_max = {bound} (stages={stages}, load={load}, \
             resolution={resolution}, seed={seed})"
        );
    }
}

#[test]
fn stage_delays_respect_theorem_bound_balanced() {
    for seed in [1u64, 2, 3] {
        check(2, 1.0, 50.0, seed);
    }
}

#[test]
fn stage_delays_respect_theorem_bound_deep_pipeline() {
    check(5, 1.2, 80.0, 4);
}

#[test]
fn stage_delays_respect_theorem_bound_coarse_tasks() {
    check(2, 1.5, 5.0, 5);
}

#[test]
fn stage_delays_respect_theorem_bound_single_stage() {
    check(1, 1.8, 30.0, 6);
}

/// Theorem 1 on a DAG topology, across replications, under the parallel
/// runner: every per-stage delay aggregated by [`PointResult`] must
/// respect `f(U_j) · D_max`. The aggregates are max-merged over
/// replications, which only relaxes the comparison: the merged peak is at
/// least the peak of whichever replication produced the merged delay,
/// and `f` is increasing.
fn check_dag_point<A, I>(stages: usize, d_max: TimeDelta, what: &str, make_arrivals: A)
where
    A: Fn(u64) -> I + Sync,
    I: Iterator<Item = (Time, frap::core::graph::TaskSpec)>,
{
    use frap_experiments::common::Scale;
    use frap_experiments::runner::{run_point_cfg, RunConfig};

    let scale = Scale {
        horizon_secs: 6,
        replications: 3,
        jobs: 3,
    };
    let r = run_point_cfg(
        RunConfig::new(scale).point(0),
        || SimBuilder::new(stages).build(),
        make_arrivals,
    );
    assert!(r.admitted > 0, "{what}: the point must admit work");
    for j in 0..stages {
        let peak = r.per_stage_peak_synth[j];
        let bound = d_max.mul_f64(stage_delay_factor(peak));
        let observed = r.per_stage_delay_max[j];
        assert!(
            observed <= bound,
            "{what}: Theorem 1 violated at stage {j}: observed L_j = {observed}, \
             bound f({peak:.4})·D_max = {bound}"
        );
    }
}

#[test]
fn stage_delays_respect_theorem_bound_fork_join_dag() {
    // The Figure 3 fork-join graph; deadlines are uniform in
    // [1.3, 3.9] s (see `branch_heavy_arrivals`).
    let horizon = Time::from_secs(6);
    check_dag_point(
        frap_experiments::fig3_dag::STAGES,
        TimeDelta::from_secs_f64(3.9),
        "fork-join",
        |seed| frap_experiments::fig3_dag::branch_heavy_arrivals(horizon, seed).into_iter(),
    );
}

#[test]
fn stage_delays_respect_theorem_bound_wide_fork_dag() {
    // A wider DAG: ingest forks into three parallel branches that rejoin.
    use frap::core::graph::{TaskGraph, TaskSpec};
    use frap::core::task::SubtaskSpec;
    use frap::workload::arrivals::{ArrivalProcess, PoissonProcess};
    use frap::workload::dist::{Distribution, Exponential, Uniform};
    use frap::workload::rng::Rng;

    let horizon = Time::from_secs(6);
    let d_lo = 0.8;
    let d_hi = 2.4;
    check_dag_point(5, TimeDelta::from_secs_f64(d_hi), "wide-fork", |seed| {
        let mut rng = Rng::new(seed);
        let mut poisson = PoissonProcess::new(80.0);
        let branch = Exponential::new(0.010);
        let deadline = Uniform::new(d_lo, d_hi);
        let ms1 = TimeDelta::from_millis(1);
        let mut out = Vec::new();
        let mut t = Time::ZERO;
        loop {
            t += poisson.next_gap(&mut rng);
            if t > horizon {
                break;
            }
            let g = TaskGraph::fork_join(
                SubtaskSpec::new(StageId::new(0), ms1),
                &[
                    SubtaskSpec::new(StageId::new(1), branch.sample_delta(&mut rng)),
                    SubtaskSpec::new(StageId::new(2), branch.sample_delta(&mut rng)),
                    SubtaskSpec::new(StageId::new(3), branch.sample_delta(&mut rng)),
                ],
                SubtaskSpec::new(StageId::new(4), ms1),
            )
            .expect("valid fork-join");
            out.push((t, TaskSpec::new(deadline.sample_delta(&mut rng), g)));
        }
        out.into_iter()
    });
}

/// The bound is not vacuous: at meaningful loads the observed maximum
/// stage delay is a substantial fraction of the theorem bound.
#[test]
fn bound_is_reasonably_tight_under_load() {
    let horizon = Time::from_secs(12);
    let builder = PipelineWorkloadBuilder::new(1)
        .load(2.0)
        .resolution(20.0)
        .seed(7);
    let d_max = TimeDelta::from_secs_f64(1.5 * builder.mean_deadline());
    let mut sim = SimBuilder::new(1).build();
    let m = sim.run(builder.build().until(horizon), horizon).clone();
    let peak = sim.admission().state().stage(StageId::new(0)).peak();
    let bound = d_max.mul_f64(stage_delay_factor(peak));
    let observed = m.stages[0].stage_delay_max;
    let tightness = observed.ratio(bound);
    assert!(
        tightness > 0.05,
        "observed {observed} should be a visible fraction of bound {bound}"
    );
}
