//! Feasible-region evaluation cost: the pipeline sum form and the
//! Theorem 2 longest-path form.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use frap_core::graph::TaskGraph;
use frap_core::region::FeasibleRegion;
use frap_core::task::{StageId, SubtaskSpec};
use frap_core::time::TimeDelta;
use std::hint::black_box;

fn pipeline_value(c: &mut Criterion) {
    let mut group = c.benchmark_group("region_pipeline_value");
    for stages in [1usize, 4, 16, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(stages), &stages, |b, &n| {
            let region = FeasibleRegion::deadline_monotonic(n);
            let utils = vec![0.3 / n as f64; n];
            b.iter(|| black_box(region.value(black_box(&utils)).expect("valid")));
        });
    }
    group.finish();
}

fn graph_value(c: &mut Criterion) {
    let mut group = c.benchmark_group("region_graph_value");
    for branches in [2usize, 8, 32] {
        group.bench_with_input(BenchmarkId::from_parameter(branches), &branches, |b, &k| {
            let stages = k + 2;
            let ms1 = TimeDelta::from_millis(1);
            let graph = TaskGraph::fork_join(
                SubtaskSpec::new(StageId::new(0), ms1),
                &(1..=k)
                    .map(|i| SubtaskSpec::new(StageId::new(i), ms1))
                    .collect::<Vec<_>>(),
                SubtaskSpec::new(StageId::new(stages - 1), ms1),
            )
            .expect("valid fork-join");
            let region = FeasibleRegion::deadline_monotonic(stages);
            let utils = vec![0.2 / stages as f64; stages];
            b.iter(|| black_box(region.graph_value(black_box(&graph), black_box(&utils))));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = pipeline_value, graph_value
}
criterion_main!(benches);
