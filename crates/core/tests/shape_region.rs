//! [`ShapeRegion`] against its definition: the conjunction of
//! [`FeasibleRegion::contains_graph`] over its shapes. Over the web farm's
//! four request shapes and over random DAGs of up to 16 nodes on up to 20
//! stages (past the 16 stage terms kept inline), with and without
//! blocking factors and urgency inversion, the two decide every random
//! vector and every vector on either side of the boundary alike.

use frap_core::alpha::Alpha;
use frap_core::graph::TaskGraph;
use frap_core::region::{FeasibleRegion, RegionTest, ShapeRegion};
use frap_core::task::{StageId, SubtaskSpec};
use frap_core::time::TimeDelta;
use proptest::prelude::*;

/// A splitmix64 step: the tests draw one seed and derive the rest.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let z = (*state ^ (*state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^ (z >> 27)
}

/// A uniform draw from `[0, 1)`.
fn unit(seed: &mut u64) -> f64 {
    (next(seed) >> 11) as f64 / (1u64 << 53) as f64
}

fn sub(stage: usize) -> SubtaskSpec {
    SubtaskSpec::new(StageId::new(stage), TimeDelta::from_millis(1))
}

/// The web farm's request shapes: the front end alone, a chain through
/// either application server to the database, and the fork-join through
/// both.
fn webfarm_shapes() -> Vec<TaskGraph> {
    let chain = |stages: &[usize]| TaskGraph::chain(stages.iter().map(|&j| sub(j)).collect());
    vec![
        chain(&[0]).unwrap(),
        chain(&[0, 1, 3]).unwrap(),
        chain(&[0, 2, 3]).unwrap(),
        TaskGraph::fork_join(sub(0), &[sub(1), sub(2)], sub(3)).unwrap(),
    ]
}

/// A DAG of `n` nodes on random stages below `stages`, each edge `i → k`
/// (`i < k`) present with probability one in `density`.
fn random_dag(n: usize, stages: usize, density: u64, seed: &mut u64) -> TaskGraph {
    let mut builder = TaskGraph::builder();
    for _ in 0..n {
        builder.add(sub((next(seed) % stages as u64) as usize));
    }
    for k in 1..n {
        for i in 0..k {
            if next(seed).is_multiple_of(density) {
                builder.edge(i, k);
            }
        }
    }
    builder
        .build()
        .expect("edges ascend, so the graph is acyclic")
}

/// A base region on `stages` stages: with `blocking`, random factors
/// summing below one half, and a random `α` in `(0.5, 1]`.
fn base(stages: usize, blocking: bool, seed: &mut u64) -> FeasibleRegion {
    if !blocking {
        return FeasibleRegion::deadline_monotonic(stages);
    }
    let alpha = Alpha::new(1.0 - 0.5 * unit(seed)).unwrap();
    let betas = (0..stages)
        .map(|_| 0.5 * unit(seed) / stages as f64)
        .collect();
    FeasibleRegion::with_alpha(stages, alpha)
        .with_blocking(betas)
        .unwrap()
}

/// Checks that the shapes' region and the conjunction of
/// `contains_graph` over the shapes agree on random vectors (some
/// saturated) and on both sides of the boundary along random directions.
/// Returns the region's shape count.
fn agree(
    base: FeasibleRegion,
    shapes: &[TaskGraph],
    seed: &mut u64,
) -> Result<usize, TestCaseError> {
    let stages = base.stages();
    let region = ShapeRegion::new(base.clone(), shapes.iter().cloned());
    let reference = |u: &[f64]| {
        shapes
            .iter()
            .all(|g| base.contains_graph(g, u).expect("well-formed"))
    };
    prop_assert!(!region.is_empty() || shapes.is_empty());
    prop_assert!(region.len() <= shapes.len());
    prop_assert_eq!(RegionTest::stages(&region), stages);
    // Feeding every shape twice keeps the same distinct shapes.
    let twice = ShapeRegion::new(base.clone(), shapes.iter().chain(shapes).cloned());
    prop_assert_eq!(&twice, &region);
    for _ in 0..16 {
        let u: Vec<f64> = (0..stages).map(|_| 1.1 * unit(seed)).collect();
        prop_assert_eq!(region.feasible(&u), reference(&u), "{:?}", u);
    }
    for _ in 0..8 {
        // Bisect the scale at which the reference stops admitting along a
        // random direction, then compare on both sides of it.
        let direction: Vec<f64> = (0..stages).map(|_| unit(seed)).collect();
        let at = |t: f64| direction.iter().map(|d| d * t).collect::<Vec<f64>>();
        let (mut lo, mut hi) = (0.0, 1.0 / direction.iter().copied().fold(1e-9, f64::max));
        for _ in 0..64 {
            let mid = 0.5 * (lo + hi);
            if reference(&at(mid)) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        for t in [lo, hi, 0.5 * (lo + hi)] {
            let u = at(t);
            prop_assert_eq!(region.feasible(&u), reference(&u), "{:?}", u);
        }
    }
    Ok(region.len())
}

proptest! {
    #[test]
    fn webfarm_shapes_decide_as_their_conjunction(
        blocking in proptest::bool::ANY,
        seed in proptest::num::u64::ANY,
    ) {
        let mut seed = seed;
        let base = base(4, blocking, &mut seed);
        prop_assert_eq!(agree(base, &webfarm_shapes(), &mut seed)?, 4);
    }

    #[test]
    fn random_dags_decide_as_their_conjunction(
        stages in 1usize..21,
        count in 1usize..6,
        blocking in proptest::bool::ANY,
        seed in proptest::num::u64::ANY,
    ) {
        let mut seed = seed;
        let shapes: Vec<TaskGraph> = (0..count)
            .map(|_| {
                let n = 1 + (next(&mut seed) % 16) as usize;
                let density = 1 + next(&mut seed) % 4;
                random_dag(n, stages, density, &mut seed)
            })
            .collect();
        let base = base(stages, blocking, &mut seed);
        agree(base, &shapes, &mut seed)?;
    }
}

/// No shape: every well-formed vector is feasible, and the stage count is
/// the base region's.
#[test]
fn an_empty_catalog_admits_everything() {
    let region = ShapeRegion::new(FeasibleRegion::deadline_monotonic(3), []);
    assert!(region.is_empty());
    assert_eq!(RegionTest::stages(&region), 3);
    assert!(region.feasible(&[0.99, 0.99, 0.99]));
}
