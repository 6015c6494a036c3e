//! Arbitrary task graphs (paper Section 3.3, Figure 3 / Theorem 2).
//!
//! Builds the paper's example DAG — a radar frame processed on R1, fanned
//! out to two parallel analyses on R2 ∥ R3, fused on R4 — derives its
//! feasible region `f(U1) + max(f(U2), f(U3)) + f(U4) ≤ 1`, and runs it
//! through the simulator with a graph-aware admission controller.
//!
//! Run with: `cargo run --example dag_task_graph`

use frap::core::graph::{TaskGraph, TaskSpec};
use frap::core::region::{FeasibleRegion, RegionTest, ShapeRegion};
use frap::core::task::{StageId, SubtaskSpec};
use frap::core::time::{Time, TimeDelta};
use frap::sim::pipeline::SimBuilder;

fn radar_frame(deadline_ms: u64) -> TaskSpec {
    let ms = TimeDelta::from_millis;
    let mut b = TaskGraph::builder();
    let ingest = b.add(SubtaskSpec::new(StageId::new(0), ms(4))); // R1: ingest
    let track = b.add(SubtaskSpec::new(StageId::new(1), ms(10))); // R2: tracking
    let classify = b.add(SubtaskSpec::new(StageId::new(2), ms(8))); // R3: classification
    let fuse = b.add(SubtaskSpec::new(StageId::new(3), ms(4))); // R4: fusion
    b.edge(ingest, track)
        .edge(ingest, classify)
        .edge(track, fuse)
        .edge(classify, fuse);
    TaskSpec::new(
        TimeDelta::from_millis(deadline_ms),
        b.build().expect("acyclic"),
    )
}

fn main() {
    let frame = radar_frame(400);
    println!(
        "task graph: {} subtasks, sources {:?}, sinks {:?}",
        frame.graph.len(),
        frame.graph.sources(),
        frame.graph.sinks()
    );
    println!(
        "end-to-end delay expression d(L) over unit delays: {} (= 1 + max(1,1) + 1)",
        frame.graph.longest_path(&[1.0; 4])
    );

    // The feasible region induced by this shape (Theorem 2).
    let region = ShapeRegion::new(FeasibleRegion::deadline_monotonic(4), [frame.graph.clone()]);
    // f(0.2) + max(f(0.4), f(0.4)) + f(0.2) ≈ 0.98 ≤ 1: feasible, even
    // though a 4-stage *chain* at these utilizations would be far outside.
    let inside = [0.2, 0.4, 0.4, 0.2];
    let outside = [0.2, 0.4, 0.4, 0.4];
    println!(
        "utilizations {inside:?} feasible? {}",
        region.feasible(&inside)
    );
    println!(
        "utilizations {outside:?} feasible? {}",
        region.feasible(&outside)
    );
    println!(
        "note: parallel branches share the same term via max(), so the \
         branches tolerate far more load than a 4-stage chain would.\n"
    );

    // Simulate a stream of radar frames admitted against the graph region.
    let horizon = Time::from_secs(10);
    let mut sim = SimBuilder::new(4)
        .region(region)
        .record_outcomes(true)
        .build();
    let arrivals: Vec<(Time, TaskSpec)> = (0..2_000)
        .map(|i| (Time::from_micros(i * 5_000), radar_frame(400)))
        .collect();
    let m = sim.run(arrivals.into_iter(), horizon);
    println!(
        "simulated {} frames: admitted {} ({:.1}%), missed {}",
        m.offered,
        m.admitted,
        m.acceptance_ratio() * 100.0,
        m.missed
    );
    let uncontended: Vec<_> = m
        .outcomes
        .iter()
        .filter(|o| o.response() == TimeDelta::from_millis(18))
        .collect();
    println!(
        "{} frames saw the uncontended critical path (4 + max(10, 8) + 4 = 18 ms)",
        uncontended.len()
    );
    assert_eq!(m.missed, 0, "Theorem 2's region keeps every frame on time");
}
