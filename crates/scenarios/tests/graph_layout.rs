//! The task-graph layout as a budget (DESIGN.md §11): what describing one
//! task may cost in heap allocations and requested bytes, counted by a
//! `#[global_allocator]` that tallies per thread.
//!
//! Lives here rather than in `frap-core` because the per-family budgets
//! need the scenario catalog. Counts are a property of the optimised
//! binary the benchmark measures; CI runs this file with `--release` too.

use frap_core::graph::{TaskGraph, TaskSpec};
use frap_core::task::{Segment, StageId, SubtaskSpec};
use frap_core::time::{Time, TimeDelta};
use frap_core::wire::WireTaskSpec;
use frap_scenarios::catalog;
use frap_workload::replay::TraceRecord;
use frap_workload::taskgen::PipelineWorkloadBuilder;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    /// Allocations (and reallocations) made by this thread, and the bytes
    /// they asked for (a reallocation counts its growth).
    static TALLY: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    // Unreachable only while the thread's locals are being torn down.
    let _ = TALLY.try_with(|t| t.set((t.get().0 + 1, t.get().1 + bytes as u64)));
}

// SAFETY: every method forwards to `System` unchanged; the tally touches
// only a `Cell` in thread-local storage and never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// `(allocations, requested bytes)` of `f`, and its result.
fn cost_of<T>(f: impl FnOnce() -> T) -> ((u64, u64), T) {
    let before = TALLY.with(Cell::get);
    let out = f();
    let after = TALLY.with(Cell::get);
    ((after.0 - before.0, after.1 - before.1), out)
}

#[test]
fn segment_and_subtask_sizes() {
    assert_eq!(std::mem::size_of::<Segment>(), 16);
    assert!(std::mem::size_of::<SubtaskSpec>() <= 32);
    // Either form is one pointer to one allocation; a plain chain's is fat.
    assert_eq!(std::mem::size_of::<TaskGraph>(), 16);
}

#[test]
fn four_stage_pipeline_is_one_allocation() {
    let ms = TimeDelta::from_millis;
    let ((allocations, bytes), spec) =
        cost_of(|| TaskSpec::pipeline(ms(100), &[ms(1), ms(2), ms(3), ms(4)]).unwrap());
    // The reference counts and the per-stage demand, which is the chain.
    assert!(spec.graph.is_plain());
    assert_eq!(allocations, 1, "{allocations} allocations");
    assert!(bytes <= 96, "{bytes} bytes");
    // A trace record plus its graph: what a generated arrival costs.
    let record = std::mem::size_of::<TraceRecord>() as u64;
    assert!(record + bytes <= 160, "{record} B record + {bytes} B graph");

    let ((allocations, _), copy) = cost_of(|| spec.clone());
    assert_eq!(allocations, 0, "TaskSpec::clone allocated");
    assert_eq!(copy, spec);

    // The wire form expands without an intermediate vector either.
    let wire = WireTaskSpec::from_spec(&spec).expect("a pipeline");
    let ((allocations, _), expanded) = cost_of(|| wire.to_spec().unwrap());
    assert_eq!(allocations, 1, "to_spec: {allocations} allocations");
    assert_eq!(expanded, spec);
}

#[test]
fn one_segment_subtask_owns_no_heap() {
    let ((allocations, _), sub) =
        cost_of(|| SubtaskSpec::new(StageId::new(2), TimeDelta::from_millis(5)));
    assert_eq!(allocations, 0);
    assert_eq!(sub.segments.len(), 1);
}

#[test]
fn each_family_generates_within_budget() {
    println!("family: allocations / requested bytes per generated task");
    for scenario in catalog(Time::from_secs(20)) {
        let ((allocations, bytes), trace) = cost_of(|| scenario.generate());
        let tasks = trace.len() as f64;
        let (per_task, bytes_per_task) = (allocations as f64 / tasks, bytes as f64 / tasks);
        println!(
            "{}: {per_task:.2} / {bytes_per_task:.0}  ({tasks} tasks)",
            scenario.name
        );
        assert!(tasks > 1_000.0, "{}: {tasks} tasks", scenario.name);
        // One a task — the graph — but for the fork-joins among
        // `diurnal`'s arrivals, plus the trace's own vector and label.
        let budget = if scenario.name == "diurnal" { 2.0 } else { 1.0 };
        assert!(
            allocations as f64 <= budget * tasks + 4.0,
            "{}: {per_task} per task",
            scenario.name
        );
    }
}

#[test]
fn pipeline_workload_generates_one_allocation_a_task() {
    let mut workload = PipelineWorkloadBuilder::new(3).seed(7).build();
    let ((allocations, bytes), specs) =
        cost_of(|| workload.by_ref().take(10_000).collect::<Vec<_>>());
    let tasks = specs.len() as f64;
    println!(
        "PipelineWorkload: {:.2} / {:.0}",
        allocations as f64 / tasks,
        bytes as f64 / tasks
    );
    // One a task, plus the collecting vector doubling its way up.
    assert!(allocations as f64 <= 1.01 * tasks, "{allocations}");
}
