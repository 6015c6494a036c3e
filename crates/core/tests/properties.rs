//! Property-based tests for the analytical core.

use frap_core::admission::{Admission, ExactContributions};
use frap_core::alpha::{alpha_for_assignment, Alpha};
use frap_core::delay::{
    stage_delay_factor, stage_delay_factor_derivative, stage_delay_factor_inverse,
    symmetric_stage_bound, UNIPROCESSOR_BOUND,
};
use frap_core::graph::{TaskGraph, TaskSpec};
use frap_core::region::{FeasibleRegion, RegionTest};
use frap_core::synthetic::SyntheticState;
use frap_core::task::{Priority, StageId, SubtaskSpec, TaskId};
use frap_core::time::{Time, TimeDelta};
use proptest::prelude::*;

fn utilization() -> impl Strategy<Value = f64> {
    0.0..0.999f64
}

proptest! {
    #[test]
    fn delay_factor_nonnegative_and_increasing(u1 in utilization(), u2 in utilization()) {
        let (lo, hi) = if u1 <= u2 { (u1, u2) } else { (u2, u1) };
        let f_lo = stage_delay_factor(lo);
        let f_hi = stage_delay_factor(hi);
        prop_assert!(f_lo >= 0.0);
        prop_assert!(f_lo <= f_hi);
    }

    #[test]
    fn delay_factor_inverse_roundtrips(u in utilization()) {
        let x = stage_delay_factor(u);
        let back = stage_delay_factor_inverse(x);
        prop_assert!((back - u).abs() < 1e-8, "u={u} back={back}");
    }

    #[test]
    fn delay_factor_convex(u in 0.001..0.99f64, v in 0.001..0.99f64) {
        // Midpoint convexity: f((u+v)/2) ≤ (f(u)+f(v))/2.
        let mid = stage_delay_factor(0.5 * (u + v));
        let avg = 0.5 * (stage_delay_factor(u) + stage_delay_factor(v));
        prop_assert!(mid <= avg + 1e-12);
    }

    #[test]
    fn delay_factor_below_identity_then_above(u in utilization()) {
        // f(u) ≥ u/... sanity: f(u) ≥ u(1-u/2) and f crosses 1 at the bound.
        prop_assert!(stage_delay_factor(u) >= u * (1.0 - 0.5 * u) - 1e-15);
        if u < UNIPROCESSOR_BOUND {
            prop_assert!(stage_delay_factor(u) < 1.0);
        }
        if u > UNIPROCESSOR_BOUND + 1e-12 {
            prop_assert!(stage_delay_factor(u) > 1.0);
        }
    }

    #[test]
    fn derivative_is_positive(u in utilization()) {
        prop_assert!(stage_delay_factor_derivative(u) >= 1.0);
    }

    #[test]
    fn symmetric_bound_lies_on_surface(n in 1usize..12, budget in 0.01..1.0f64) {
        let u = symmetric_stage_bound(n, budget);
        let total = n as f64 * stage_delay_factor(u);
        prop_assert!((total - budget).abs() < 1e-8);
    }

    #[test]
    fn region_monotone_in_each_coordinate(
        us in proptest::collection::vec(utilization(), 1..6),
        bump in 0.0..0.2f64,
        idx in 0usize..6,
    ) {
        let region = FeasibleRegion::deadline_monotonic(us.len());
        let mut bigger = us.clone();
        let i = idx % us.len();
        bigger[i] = (bigger[i] + bump).min(0.9999);
        prop_assert!(region.value(&us).unwrap() <= region.value(&bigger).unwrap() + 1e-12);
        // Monotone feasibility: feasible at the bigger point implies
        // feasible at the smaller point.
        if region.feasible(&bigger) {
            prop_assert!(region.feasible(&us));
        }
    }

    #[test]
    fn alpha_never_exceeds_one_and_matches_brute_force(
        pairs in proptest::collection::vec((1u64..1_000, 1u64..1_000_000), 0..24)
    ) {
        let tasks: Vec<(Priority, TimeDelta)> = pairs
            .iter()
            .map(|&(p, d)| (Priority::new(p), TimeDelta::from_micros(d)))
            .collect();
        let fast = alpha_for_assignment(&tasks).value();
        prop_assert!(fast > 0.0 && fast <= 1.0);

        let mut brute = 1.0f64;
        for (i, hi) in tasks.iter().enumerate() {
            for (j, lo) in tasks.iter().enumerate() {
                if i != j && hi.0 >= lo.0 {
                    brute = brute.min(lo.1.ratio(hi.1));
                }
            }
        }
        brute = brute.clamp(f64::MIN_POSITIVE, 1.0);
        prop_assert!((fast - brute).abs() < 1e-12, "fast={fast} brute={brute}");
    }

    #[test]
    fn tracker_value_equals_sum_of_live_contributions(
        ops in proptest::collection::vec((0u64..40, 1u64..100, 1u64..1_000), 1..200)
    ) {
        // Interleave adds, expiries, departures and resets on one stage;
        // its counter must always equal the sum over the live entries of
        // a naive model. Every add takes a fresh id.
        let only = StageId::new(0);
        let mut st = SyntheticState::new(1);
        let mut live: Vec<(u64, f64, Time)> = Vec::new();
        let mut next_id = 0u64;
        let mut clock = Time::ZERO;
        for (i, &(pick, amount, dt)) in ops.iter().enumerate() {
            match i % 4 {
                0 | 1 => {
                    let expiry = clock + TimeDelta::from_micros(dt);
                    let amount = amount as f64 / 1000.0;
                    st.add_task(TaskId::new(next_id), &[(only, amount)], expiry);
                    live.push((next_id, amount, expiry));
                    next_id += 1;
                }
                2 => {
                    clock += TimeDelta::from_micros(dt / 2);
                    st.advance_to(clock);
                    live.retain(|&(_, _, expiry)| expiry > clock);
                }
                _ => {
                    // Any id issued so far, or the next one (not yet live).
                    let task = pick % (next_id + 1);
                    st.mark_departed(only, TaskId::new(task));
                    st.reset_idle(only);
                    live.retain(|&(id, _, _)| id != task);
                }
            }
            let reported = st.stage(only).value();
            let sum: f64 = live.iter().map(|&(_, amount, _)| amount).sum();
            prop_assert!((reported - sum).abs() < 1e-9);
            prop_assert!(reported >= -1e-12);
            prop_assert_eq!(st.stage(only).live_tasks(), live.len());
        }
    }

    #[test]
    fn chain_graph_region_equals_pipeline_region(
        us in proptest::collection::vec(utilization(), 1..6)
    ) {
        let n = us.len();
        let subtasks: Vec<SubtaskSpec> = (0..n)
            .map(|j| SubtaskSpec::new(StageId::new(j), TimeDelta::from_millis(1)))
            .collect();
        let g = TaskGraph::chain(subtasks).unwrap();
        let r = FeasibleRegion::deadline_monotonic(n);
        let gv = r.graph_value(&g, &us).unwrap();
        let pv = r.value(&us).unwrap();
        prop_assert!((gv - pv).abs() < 1e-9);
    }

    #[test]
    fn dag_longest_path_dominates_every_chain_subpath(
        delays in proptest::collection::vec(0.0..10.0f64, 4..5usize)
    ) {
        let ms1 = TimeDelta::from_millis(1);
        let g = TaskGraph::fork_join(
            SubtaskSpec::new(StageId::new(0), ms1),
            &[
                SubtaskSpec::new(StageId::new(1), ms1),
                SubtaskSpec::new(StageId::new(2), ms1),
            ],
            SubtaskSpec::new(StageId::new(3), ms1),
        )
        .unwrap();
        let lp = g.longest_path(&delays);
        let via1 = delays[0] + delays[1] + delays[3];
        let via2 = delays[0] + delays[2] + delays[3];
        prop_assert!((lp - via1.max(via2)).abs() < 1e-12);
    }

    #[test]
    fn admission_never_leaves_region(
        arrivals in proptest::collection::vec((1u64..60, 1u64..60, 50u64..400), 1..120)
    ) {
        // Whatever the arrival pattern, the invariant holds: after every
        // decision, the live utilization vector is inside the region.
        let region = FeasibleRegion::deadline_monotonic(2);
        let mut ac = Admission::new(region.clone(), ExactContributions);
        let mut now = Time::ZERO;
        for &(c1, c2, d) in &arrivals {
            now += TimeDelta::from_millis(1);
            let spec = TaskSpec::pipeline(
                TimeDelta::from_millis(d),
                &[TimeDelta::from_millis(c1), TimeDelta::from_millis(c2)],
            )
            .unwrap();
            let _ = ac.try_admit(now, &spec);
            let utils = ac.state().utilizations();
            prop_assert!(region.feasible(&utils), "outside region: {utils:?}");
        }
    }

    #[test]
    fn alpha_validation_is_total(v in proptest::num::f64::ANY) {
        // Alpha::new never panics; it either validates or errors.
        let r = Alpha::new(v);
        if let Ok(a) = r {
            prop_assert!(a.value() > 0.0 && a.value() <= 1.0);
        }
    }
}

/// Enumerates all source→sink paths of a small DAG and returns the max
/// path sum — the brute-force reference for `TaskGraph::longest_path`.
fn brute_force_longest(g: &TaskGraph, delays: &[f64]) -> f64 {
    fn dfs(g: &TaskGraph, node: usize, delays: &[f64]) -> f64 {
        let below = g
            .succs(node)
            .iter()
            .map(|&s| dfs(g, s as usize, delays))
            .fold(0.0f64, f64::max);
        delays[node] + below
    }
    g.sources()
        .into_iter()
        .map(|s| dfs(g, s, delays))
        .fold(0.0f64, f64::max)
}

proptest! {
    /// Random small layered DAGs: the DP longest path equals the
    /// brute-force enumeration over all paths.
    #[test]
    fn longest_path_matches_brute_force(
        layer_sizes in proptest::collection::vec(1usize..4, 1..4),
        edge_bits in proptest::collection::vec(proptest::bool::ANY, 64),
        delays_raw in proptest::collection::vec(0.0..10.0f64, 16),
    ) {
        // Build a layered DAG: every node may link to nodes in the next
        // layer, gated by edge_bits; guarantee at least one edge per
        // adjacent pair so the graph stays connected enough.
        let mut b = TaskGraph::builder();
        let mut layers: Vec<Vec<usize>> = Vec::new();
        let mut node_count = 0;
        for &size in &layer_sizes {
            let mut layer = Vec::new();
            for _ in 0..size {
                layer.push(b.add(SubtaskSpec::new(
                    StageId::new(node_count % 4),
                    TimeDelta::from_millis(1),
                )));
                node_count += 1;
            }
            layers.push(layer);
        }
        let mut bit = 0;
        for w in layers.windows(2) {
            for &from in &w[0] {
                let mut linked = false;
                for &to in &w[1] {
                    if edge_bits[bit % edge_bits.len()] {
                        b.edge(from, to);
                        linked = true;
                    }
                    bit += 1;
                }
                if !linked {
                    b.edge(from, w[1][0]);
                }
            }
        }
        let g = b.build().expect("layered DAGs are acyclic");
        let delays: Vec<f64> = (0..g.len()).map(|i| delays_raw[i % delays_raw.len()]).collect();
        let dp = g.longest_path(&delays);
        let brute = brute_force_longest(&g, &delays);
        prop_assert!((dp - brute).abs() < 1e-9, "dp={dp} brute={brute} graph={g}");

        // The critical path is a real path achieving the optimum.
        let path = g.critical_path(&delays);
        let path_sum: f64 = path.iter().map(|&i| delays[i]).sum();
        prop_assert!((path_sum - dp).abs() < 1e-9);
        for w in path.windows(2) {
            prop_assert!(g.succs(w[0]).contains(&(w[1] as u32)), "path must follow edges");
        }
    }
}

proptest! {
    /// Headroom is exact: adding the reported headroom at any stage lands
    /// on the surface, and headroom shrinks as other stages load up.
    #[test]
    fn stage_headroom_is_exact_and_monotone(
        us in proptest::collection::vec(0.0..0.5f64, 2..5),
        idx in 0usize..5,
        extra in 0.01..0.3f64,
    ) {
        use frap_core::capacity::stage_headroom;
        let n = us.len();
        let region = FeasibleRegion::deadline_monotonic(n);
        let j = idx % n;
        if !region.feasible(&us) {
            return Ok(());
        }
        let h = stage_headroom(&region, &us, StageId::new(j)).unwrap();
        let mut at = us.clone();
        at[j] += h;
        let v = region.value(&at).unwrap();
        prop_assert!((v - region.budget()).abs() < 1e-6, "v={v}");

        // Loading another stage can only shrink stage j's headroom.
        let other = (j + 1) % n;
        if n > 1 {
            let mut heavier = us.clone();
            heavier[other] = (heavier[other] + extra).min(0.95);
            if region.feasible(&heavier) {
                let h2 = stage_headroom(&region, &heavier, StageId::new(j)).unwrap();
                prop_assert!(h2 <= h + 1e-9, "h2={h2} h={h}");
            }
        }
    }

    /// Weighted allocation always lands on (or within float-eps of) the
    /// surface and preserves weight ratios among uncapped stages.
    #[test]
    fn weighted_allocation_on_surface(
        weights in proptest::collection::vec(0.1..10.0f64, 1..5),
    ) {
        use frap_core::capacity::weighted_allocation;
        let region = FeasibleRegion::deadline_monotonic(weights.len());
        let alloc = weighted_allocation(&region, &weights).unwrap();
        let v = region.value(&alloc).unwrap();
        prop_assert!(v <= region.budget() + 1e-6);
        prop_assert!((v - region.budget()).abs() < 1e-4, "v={v}");
        for (i, (&a, &w)) in alloc.iter().zip(&weights).enumerate() {
            let (a0, w0) = (alloc[0], weights[0]);
            let lhs = a * w0;
            let rhs = a0 * w;
            prop_assert!(
                (lhs - rhs).abs() < 1e-4 * (lhs.abs() + rhs.abs() + 1.0),
                "ratio broken at {i}"
            );
        }
    }
}
