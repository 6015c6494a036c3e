//! Figure 3 / Equation (16) — feasible regions for DAG task graphs.
//!
//! The example graph: subtask 1 on R1 forks into subtasks 2 ∥ 3 (R2, R3)
//! which rejoin at subtask 4 (R4); the end-to-end delay is
//! `L1 + max(L2, L3) + L4`, giving the region
//!
//! ```text
//! f(U1) + max(f(U2), f(U3)) + f(U4) ≤ 1.
//! ```
//!
//! Part 1 tabulates the symmetric boundary: how much utilization the
//! parallel branches may carry versus a 4-stage chain — the gain from
//! recognizing parallelism. Part 2 validates Theorem 2 end to end by
//! simulating a fork-join workload admitted with the graph-shaped region:
//! higher acceptance than the conservative chain region, still zero
//! misses.

use crate::common::{f, Scale, Table};
use crate::runner::{perf, run_point_cfg, RunConfig};
use frap_core::delay::{stage_delay_factor, stage_delay_factor_inverse};
use frap_core::graph::TaskGraph;
use frap_core::region::{FeasibleRegion, ShapeRegion};
use frap_core::task::{StageId, SubtaskSpec};
use frap_core::time::{Time, TimeDelta};
use frap_sim::pipeline::SimBuilder;

/// Number of resources in the Figure 3 example.
pub const STAGES: usize = 4;

/// The canonical Figure 3 graph (computation times are irrelevant for the
/// region shape; 1 ms placeholders).
pub fn figure3_graph() -> TaskGraph {
    let ms1 = TimeDelta::from_millis(1);
    TaskGraph::fork_join(
        SubtaskSpec::new(StageId::new(0), ms1),
        &[
            SubtaskSpec::new(StageId::new(1), ms1),
            SubtaskSpec::new(StageId::new(2), ms1),
        ],
        SubtaskSpec::new(StageId::new(3), ms1),
    )
    .expect("valid fork-join")
}

/// Runs both parts; returns the boundary table with the Theorem 2
/// validation table attached as `fig3_theorem2_validation`.
pub fn run(scale: Scale) -> Table {
    let mut table = Table::new(
        "Figure 3 / Eq. (16): symmetric feasible boundary, DAG vs 4-chain",
        &[
            "u_chain_ends",
            "max_u_branch_dag",
            "max_u_branch_chain",
            "dag_gain",
        ],
    );
    for i in 0..=8 {
        let u_ends = 0.05 * i as f64;
        let budget_left = 1.0 - 2.0 * stage_delay_factor(u_ends);
        let (dag, chain) = if budget_left <= 0.0 {
            (0.0, 0.0)
        } else {
            // DAG: branches run in parallel → the max() lets each branch
            // carry the whole remaining budget. Chain: they sum.
            (
                stage_delay_factor_inverse(budget_left),
                stage_delay_factor_inverse(budget_left / 2.0),
            )
        };
        table.push_row(vec![f(u_ends), f(dag), f(chain), f(dag - chain)]);
    }
    table.print();

    // Part 2: simulate fork-join tasks under (a) the conservative chain
    // region and (b) the exact Theorem 2 graph region. The branches carry
    // the load (heavy parallel analyses, light ingest/fusion), which is
    // exactly where recognizing parallelism pays. Idle resets are disabled
    // here: with them, long-run acceptance converges to the stages' real
    // service capacity under *any* sound region, masking the analytic
    // difference this experiment isolates.
    let span = perf::Span::new();
    let horizon = Time::from_secs(scale.horizon_secs);
    let make_wl = |seed: u64| branch_heavy_arrivals(horizon, seed).into_iter();

    let conservative = run_point_cfg(
        RunConfig::new(scale).point(0),
        || SimBuilder::new(STAGES).idle_resets(false).build(),
        make_wl,
    );
    let exact = run_point_cfg(
        RunConfig::new(scale).point(1),
        || {
            SimBuilder::new(STAGES)
                .idle_resets(false)
                .region(ShapeRegion::new(
                    FeasibleRegion::deadline_monotonic(STAGES),
                    [figure3_graph()],
                ))
                .build()
        },
        make_wl,
    );

    let mut sim_table = Table::new(
        "Theorem 2 validation: fork-join workload, chain region vs graph region",
        &["region", "acceptance", "mean_util", "missed"],
    );
    sim_table.push_row(vec![
        "chain (conservative)".into(),
        f(conservative.acceptance),
        f(conservative.mean_util),
        conservative.missed.to_string(),
    ]);
    sim_table.push_row(vec![
        "graph (Theorem 2)".into(),
        f(exact.acceptance),
        f(exact.mean_util),
        exact.missed.to_string(),
    ]);
    sim_table.print();
    println!(
        "[fig3] graph region admits {:.1}% vs chain {:.1}%, both with {} + {} misses",
        exact.acceptance * 100.0,
        conservative.acceptance * 100.0,
        exact.missed,
        conservative.missed
    );
    table
        .attached
        .push(("fig3_theorem2_validation".into(), sim_table));
    span.report("fig3_dag");
    table
}

/// A stream of Figure 3-shaped tasks whose branch subtasks dominate the
/// computation (head/tail 1 ms, branches ~ Exp(12 ms)), at an arrival
/// rate that saturates the branch stages.
pub fn branch_heavy_arrivals(horizon: Time, seed: u64) -> Vec<(Time, frap_core::graph::TaskSpec)> {
    use frap_core::graph::TaskSpec;
    use frap_workload::arrivals::{ArrivalProcess, PoissonProcess};
    use frap_workload::dist::{Distribution, Exponential, Uniform};
    use frap_workload::rng::Rng;

    let mut rng = Rng::new(seed);
    let mut poisson = PoissonProcess::new(100.0); // branch load ≈ 1.2
    let branch = Exponential::new(0.012);
    // Resolution ~100 relative to the ~26 ms mean total computation.
    let deadline = Uniform::new(1.3, 3.9);
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
            ],
            SubtaskSpec::new(StageId::new(3), ms1),
        )
        .expect("valid fork-join");
        out.push((t, TaskSpec::new(deadline.sample_delta(&mut rng), g)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dag_boundary_dominates_chain() {
        let t = run(Scale {
            horizon_secs: 4,
            replications: 1,
            jobs: 1,
        });
        for row in &t.rows {
            let dag: f64 = row[1].parse().unwrap();
            let chain: f64 = row[2].parse().unwrap();
            assert!(dag >= chain, "parallelism can only help: {dag} vs {chain}");
        }
        // With nothing on the chain ends, the branch bound is the
        // uniprocessor bound for the DAG but the 2-stage bound for a chain.
        let first = &t.rows[0];
        let dag0: f64 = first[1].parse().unwrap();
        // Table cells carry 4 decimals.
        assert!((dag0 - frap_core::delay::UNIPROCESSOR_BOUND).abs() < 1e-3);
    }

    #[test]
    fn graph_region_accepts_at_least_as_much_and_never_misses() {
        let scale = Scale {
            horizon_secs: 5,
            replications: 1,
            jobs: 1,
        };
        let horizon = Time::from_secs(scale.horizon_secs);
        let make_wl = |seed: u64| branch_heavy_arrivals(horizon, seed).into_iter();
        let conservative = run_point_cfg(
            RunConfig::new(scale),
            || SimBuilder::new(STAGES).idle_resets(false).build(),
            make_wl,
        );
        let exact = run_point_cfg(
            RunConfig::new(scale),
            || {
                SimBuilder::new(STAGES)
                    .idle_resets(false)
                    .region(ShapeRegion::new(
                        FeasibleRegion::deadline_monotonic(STAGES),
                        [figure3_graph()],
                    ))
                    .build()
            },
            make_wl,
        );
        assert_eq!(conservative.missed, 0);
        assert_eq!(exact.missed, 0, "Theorem 2 region must stay safe");
        // Without idle resets, the synthetic region is the binding
        // constraint and recognizing the parallel branches must admit
        // strictly more work.
        assert!(
            exact.admitted as f64 > conservative.admitted as f64 * 1.05,
            "graph region should admit visibly more: {} vs {}",
            exact.admitted,
            conservative.admitted
        );
    }
}
