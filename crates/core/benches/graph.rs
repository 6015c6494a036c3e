//! Describing one arrival: building a pipeline `TaskSpec`, cloning it (as
//! a trace replay does per arrival) and walking its demands through a
//! `DemandView` (as every admission test does), at three to six stages —
//! either side of the five words a plain chain keeps inline. Then the same
//! for Figure 3's fork-join `1 -> {2, 3} -> 4`, the one general graph the
//! scenario catalog generates: building it, cloning it, walking every
//! node's predecessors and successors (as the simulator does per
//! subtask) and summing its per-stage demand.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use frap_core::demand::DemandView;
use frap_core::graph::{TaskGraph, TaskSpec};
use frap_core::task::{StageId, SubtaskSpec};
use frap_core::time::TimeDelta;
use std::hint::black_box;

const STAGES: [usize; 4] = [3, 4, 5, 6];

fn deadline() -> TimeDelta {
    TimeDelta::from_millis(100)
}

fn computations(n: usize) -> Vec<TimeDelta> {
    (1..=n as u64).map(TimeDelta::from_millis).collect()
}

fn spec(n: usize) -> TaskSpec {
    TaskSpec::pipeline(deadline(), &computations(n)).expect("non-empty")
}

fn pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_pipeline");
    for n in STAGES {
        group.bench_with_input(BenchmarkId::from_parameter(n), &computations(n), |b, cs| {
            b.iter(|| TaskSpec::pipeline(black_box(deadline()), black_box(cs)).expect("non-empty"));
        });
    }
    group.finish();
}

fn clone(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_clone");
    for n in STAGES {
        group.bench_with_input(BenchmarkId::from_parameter(n), &spec(n), |b, spec| {
            b.iter(|| black_box(spec).clone());
        });
    }
    group.finish();
}

fn demand_walk(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_demand_walk");
    for n in STAGES {
        group.bench_with_input(BenchmarkId::from_parameter(n), &spec(n), |b, spec| {
            let mut out: Vec<(StageId, TimeDelta)> = Vec::with_capacity(n);
            b.iter(|| {
                out.clear();
                DemandView::from(black_box(spec)).map_into(&mut out, |stage, c| (stage, c));
                black_box(out.last().copied())
            });
        });
    }
    group.finish();
}

/// Figure 3's fork-join, with a different demand on each node.
fn figure3() -> TaskGraph {
    let sub =
        |j: usize| SubtaskSpec::new(StageId::new(j), TimeDelta::from_micros(1_000 + j as u64));
    TaskGraph::fork_join(sub(0), &[sub(1), sub(2)], sub(3)).expect("valid fork-join")
}

fn fork_join(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_fork_join");
    let sub = |j: usize| SubtaskSpec::new(StageId::new(j), black_box(TimeDelta::from_millis(2)));
    group.bench_with_input(BenchmarkId::from_parameter("build"), &(), |b, _| {
        b.iter(|| TaskGraph::fork_join(sub(0), &[sub(1), sub(2)], sub(3)).expect("valid"));
    });
    let graph = figure3();
    group.bench_with_input(BenchmarkId::from_parameter("clone"), &graph, |b, graph| {
        b.iter(|| black_box(graph).clone());
    });
    group.bench_with_input(BenchmarkId::from_parameter("walk"), &graph, |b, graph| {
        b.iter(|| {
            let graph = black_box(graph);
            let mut ids = 0;
            for i in 0..graph.len() {
                ids += graph
                    .preds(i)
                    .iter()
                    .chain(graph.succs(i))
                    .map(|&j| j as usize)
                    .sum::<usize>();
            }
            ids
        });
    });
    group.bench_with_input(
        BenchmarkId::from_parameter("stage_demands"),
        &graph,
        |b, graph| {
            b.iter(|| {
                black_box(graph)
                    .stage_demands()
                    .map(|(_, c)| c)
                    .sum::<TimeDelta>()
            });
        },
    );
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = pipeline, clone, demand_walk, fork_join
}
criterion_main!(benches);
