//! Describing one arrival: building a pipeline `TaskSpec`, cloning it (as
//! a trace replay does per arrival) and walking its demands through a
//! `DemandView` (as every admission test does), at three to six stages —
//! either side of the five words a plain chain keeps inline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use frap_core::demand::DemandView;
use frap_core::graph::TaskSpec;
use frap_core::task::StageId;
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

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = pipeline, clone, demand_walk
}
criterion_main!(benches);
