//! Heterogeneous task shapes end to end: the web-farm scenario mixes
//! three graph shapes, the admission controller enforces the
//! intersection of the shapes' regions (one Theorem 2 region per shape), and
//! every admitted request still meets its deadline.

use frap::core::region::FeasibleRegion;
use frap::core::time::Time;
use frap::sim::pipeline::SimBuilder;
use frap::workload::webfarm::{WebFarmConfig, STAGES};

#[test]
fn shape_catalog_admission_is_safe_for_mixed_shapes() {
    let horizon = Time::from_secs(15);
    for seed in [1u64, 2] {
        let cfg = WebFarmConfig {
            rate: 400.0, // overloads the farm: admission must throttle
            seed,
            ..WebFarmConfig::default()
        };
        let mut sim = SimBuilder::new(STAGES).region(cfg.shape_region()).build();
        let m = sim.run(cfg.arrivals(horizon).into_iter(), horizon).clone();
        assert!(m.admitted > 1000, "seed {seed}: admitted {}", m.admitted);
        assert_eq!(m.missed, 0, "seed {seed}");
    }
}

#[test]
fn shape_region_admits_at_least_as_much_as_chain_region() {
    // The conservative alternative treats every request as if it visited
    // all four stages in a chain (Σ f over all stages) — sound but
    // blinder than the per-shape regions.
    let horizon = Time::from_secs(15);
    let cfg = WebFarmConfig {
        rate: 400.0,
        seed: 5,
        ..WebFarmConfig::default()
    };

    let mut chain_sim = SimBuilder::new(STAGES)
        .region(FeasibleRegion::deadline_monotonic(STAGES))
        .idle_resets(false)
        .build();
    let chain = chain_sim
        .run(cfg.arrivals(horizon).into_iter(), horizon)
        .clone();

    let mut shape_sim = SimBuilder::new(STAGES)
        .region(cfg.shape_region())
        .idle_resets(false)
        .build();
    let shaped = shape_sim
        .run(cfg.arrivals(horizon).into_iter(), horizon)
        .clone();

    assert_eq!(chain.missed, 0);
    assert_eq!(shaped.missed, 0);
    assert!(
        shaped.admitted > chain.admitted,
        "shape-aware admission should accept more: {} vs {}",
        shaped.admitted,
        chain.admitted
    );
}

#[test]
fn front_end_is_shared_and_visible_in_metrics() {
    let horizon = Time::from_secs(10);
    let cfg = WebFarmConfig {
        rate: 300.0,
        seed: 9,
        ..WebFarmConfig::default()
    };
    let mut sim = SimBuilder::new(STAGES).region(cfg.shape_region()).build();
    let m = sim.run(cfg.arrivals(horizon).into_iter(), horizon).clone();
    // Every request touches the front end; only ~half proceed deeper.
    assert!(m.stage_utilization(0) > 0.0);
    let deep = m.stage_utilization(1) + m.stage_utilization(2) + m.stage_utilization(3);
    assert!(deep > 0.0);
    // The database sees roughly the non-static fraction of requests.
    assert!(
        m.stages[3].subtasks_completed < m.stages[0].subtasks_completed,
        "statics never reach the database"
    );
}
