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
use frap_workload::replay::{parse_trace, render_trace, ArrivalTrace, TraceRecord};
use frap_workload::taskgen::PipelineWorkloadBuilder;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    /// Allocations (and reallocations) made by this thread, and the bytes
    /// they asked for (a reallocation counts its growth).
    static TALLY: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    /// Blocks this thread has freed.
    static FREES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // Unreachable only while the thread's locals are being torn down.
    let _ = TALLY.try_with(|t| t.set((t.get().0 + 1, t.get().1 + bytes as u64)));
}

// SAFETY: every method forwards to `System` unchanged; the tallies touch
// only `Cell`s in thread-local storage and never allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = FREES.try_with(|f| f.set(f.get() + 1));
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

/// The heap blocks `graph` owned: what dropping it frees.
fn blocks_owned(graph: TaskGraph) -> u64 {
    let before = FREES.with(Cell::get);
    drop(graph);
    FREES.with(Cell::get) - before
}

#[test]
fn segment_and_subtask_sizes() {
    assert_eq!(std::mem::size_of::<Segment>(), 16);
    assert!(std::mem::size_of::<SubtaskSpec>() <= 32);
    // A plain chain of up to five stages holds its words inline: a length
    // byte beside five 32-bit words, the form's tag in the spare values of
    // the words' own. Every other graph is one shared slice.
    assert_eq!(std::mem::size_of::<TaskGraph>(), 24);
    assert_eq!(std::mem::size_of::<TaskSpec>(), 40);
    assert_eq!(std::mem::size_of::<TraceRecord>(), 56);
}

#[test]
fn short_plain_chains_allocate_nothing() {
    let ms = TimeDelta::from_millis;
    let computations = [ms(1), ms(2), ms(3), ms(4), ms(5)];
    for n in 1..=5 {
        let ((allocations, _), spec) =
            cost_of(|| TaskSpec::pipeline(ms(100), &computations[..n]).unwrap());
        assert!(spec.graph.is_plain());
        assert_eq!(allocations, 0, "pipeline of {n}: {allocations} allocations");
        let ((allocations, _), copy) = cost_of(|| spec.clone());
        assert_eq!(allocations, 0, "TaskSpec::clone of {n} stages allocated");
        assert_eq!(copy, spec);
        assert_eq!(blocks_owned(copy.graph), 0, "pipeline of {n}");
    }

    let spec = TaskSpec::pipeline(ms(100), &computations).unwrap();
    let stages: Vec<(StageId, TimeDelta)> = spec.graph.stage_demands().collect();
    let subtasks: Vec<SubtaskSpec> = spec.graph.subtasks().collect();
    let wire = WireTaskSpec::from_spec(&spec).expect("a pipeline");
    let shift = |s: StageId| StageId::new(s.index() + 1);
    let mut builder = TaskGraph::builder();
    for (i, sub) in subtasks.iter().enumerate() {
        builder.add(sub.clone());
        if i > 0 {
            builder.edge(i - 1, i);
        }
    }

    // Every constructor of a plain chain fills the words in place.
    let ((allocations, _), built) = cost_of(|| TaskGraph::chain_of(&stages).unwrap());
    assert_eq!(allocations, 0, "chain_of: {allocations} allocations");
    assert_eq!(built, spec.graph);
    let ((allocations, _), built) = cost_of(|| TaskGraph::chain(subtasks).unwrap());
    assert_eq!(allocations, 0, "chain: {allocations} allocations");
    assert_eq!(built, spec.graph);
    let ((allocations, _), remapped) = cost_of(|| spec.remap_stages(shift));
    assert_eq!(allocations, 0, "remap_stages: {allocations} allocations");
    assert!(remapped.graph.is_plain());
    let ((allocations, _), expanded) = cost_of(|| wire.to_spec().unwrap());
    assert_eq!(allocations, 0, "to_spec: {allocations} allocations");
    assert_eq!(expanded, spec);
    // The builder allocates its own scratch (edge lists) but the graph it
    // hands back owns no block; `parse_trace` goes through it (below).
    let built = builder.build().unwrap();
    assert_eq!(built, spec.graph);
    assert_eq!(blocks_owned(built), 0, "builder");
}

#[test]
fn five_stages_are_inline_and_six_one_allocation() {
    let ms = TimeDelta::from_millis;
    let computations = [ms(1), ms(2), ms(3), ms(4), ms(5), ms(6)];
    for n in [5, 6] {
        let ((allocations, bytes), spec) =
            cost_of(|| TaskSpec::pipeline(ms(100), &computations[..n]).unwrap());
        // Past five, the reference counts and one packed word a stage:
        // 16 + 4 × 6 bytes.
        let shared = u64::from(n > 5);
        assert!(spec.graph.is_plain());
        assert_eq!(
            allocations, shared,
            "pipeline of {n}: {allocations} allocations"
        );
        assert!(bytes <= 40 * shared, "pipeline of {n}: {bytes} bytes");
        let ((allocations, _), copy) = cost_of(|| spec.clone());
        assert_eq!(allocations, 0, "TaskSpec::clone of {n} stages allocated");
        assert_eq!(copy, spec);
        // The wire form expands without an intermediate vector either.
        let wire = WireTaskSpec::from_spec(&spec).expect("a pipeline");
        let ((allocations, _), expanded) = cost_of(|| wire.to_spec().unwrap());
        assert_eq!(
            allocations, shared,
            "to_spec of {n}: {allocations} allocations"
        );
        assert_eq!(expanded, spec);
        assert_eq!(blocks_owned(expanded.graph), shared, "to_spec of {n}");
    }
}

#[test]
fn fork_join_is_one_block() {
    // Figure 3's `1 -> {2, 3} -> 4`: header, nodes, segments, demand
    // table and edge lists in one block of 60 words, 256 B with the
    // reference counts. The branches are borrowed from the stack.
    let sub = |stage: usize| SubtaskSpec::new(StageId::new(stage), TimeDelta::from_millis(2));
    let (head, branches, tail) = (sub(0), [sub(1), sub(2)], sub(3));
    let ((allocations, bytes), graph) =
        cost_of(|| TaskGraph::fork_join(head, &branches, tail).unwrap());
    assert!(!graph.is_plain());
    assert_eq!(allocations, 1, "fork_join: {allocations} allocations");
    assert!(bytes <= 256, "fork_join: {bytes} bytes");
    let ((allocations, _), copy) = cost_of(|| graph.clone());
    assert_eq!(allocations, 0, "clone allocated");
    assert_eq!(copy, graph);
    assert_eq!(blocks_owned(copy), 0, "a clone shares the block");
    assert_eq!(blocks_owned(graph), 1);
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
    for scenario in catalog(Time::from_secs(60)) {
        let ((allocations, bytes), trace) = cost_of(|| scenario.generate());
        let tasks = trace.len() as f64;
        let (per_task, bytes_per_task) = (allocations as f64 / tasks, bytes as f64 / tasks);
        println!(
            "{}: {per_task:.4} / {bytes_per_task:.2}  ({tasks} tasks)",
            scenario.name
        );
        assert!(tasks > 1_000.0, "{}: {tasks} tasks", scenario.name);
        // Nothing a task — a plain chain of up to five stages lives in its
        // record — but for the fork-joins among `diurnal`'s arrivals (one
        // in ten, each its one block; the branches are borrowed), plus the
        // trace's own vector and label. `diurnal` measured 0.0990.
        let budget = if scenario.name == "diurnal" {
            0.109
        } else {
            0.01
        };
        assert!(
            allocations as f64 <= budget * tasks + 4.0,
            "{}: {per_task} per task",
            scenario.name
        );
        // A 56 B record plus the records' slack; `diurnal`'s fork-joins
        // keep the general form, a 256 B block each. `diurnal` measured
        // 82.3 B.
        let bytes_budget = if scenario.name == "diurnal" {
            90.5
        } else {
            64.0
        };
        assert!(
            bytes_per_task <= bytes_budget,
            "{}: {bytes_per_task} B per task",
            scenario.name
        );
    }
}

#[test]
fn rendered_traces_parse_back_equal() {
    // The text form carries every packed word: each family's trace comes
    // back equal, plain chains plain and fork-joins general.
    for scenario in catalog(Time::from_secs(20)) {
        let trace = scenario.generate();
        let parsed =
            parse_trace(&render_trace(&trace)).unwrap_or_else(|e| panic!("{}: {e}", scenario.name));
        assert_eq!(parsed, trace, "{}", scenario.name);
    }
}

#[test]
fn parsed_chains_own_a_block_past_five_stages() {
    let ms = TimeDelta::from_millis;
    let computations = [ms(1), ms(2), ms(3), ms(4), ms(5), ms(6)];
    let mut trace = ArrivalTrace::new();
    for n in 1..=computations.len() {
        let spec = TaskSpec::pipeline(ms(100), &computations[..n]).unwrap();
        trace.push(Time::from_millis(n as u64), spec, 0);
    }
    let parsed = parse_trace(&render_trace(&trace)).unwrap();
    assert_eq!(parsed, trace);
    for (n, record) in (1..).zip(parsed.records) {
        assert!(record.spec.graph.is_plain(), "{n} stages");
        let owned = blocks_owned(record.spec.graph);
        assert_eq!(owned, u64::from(n > 5), "{n} stages");
    }
}

#[test]
fn pipeline_workload_allocates_nothing_per_three_stage_task() {
    let mut workload = PipelineWorkloadBuilder::new(3).seed(7).build();
    let ((allocations, bytes), specs) =
        cost_of(|| workload.by_ref().take(10_000).collect::<Vec<_>>());
    let tasks = specs.len() as f64;
    println!(
        "PipelineWorkload: {:.2} / {:.0}",
        allocations as f64 / tasks,
        bytes as f64 / tasks
    );
    // The collecting vector alone.
    assert!(allocations as f64 <= 0.01 * tasks, "{allocations}");
}
