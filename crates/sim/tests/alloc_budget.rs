//! Allocation budget of the simulator's steady state, counted by a
//! `#[global_allocator]` that tallies per thread: once the pools and heaps
//! have reached their working size, a chain task costs no heap allocation
//! inside `Simulation::run` (its jobs carry their one segment inline), and
//! a Theorem 2 region test costs none.
//!
//! Counts are a property of the optimised binary the benchmark measures;
//! CI runs this file with `--release` as well.

use frap_core::graph::{TaskGraph, TaskSpec};
use frap_core::region::FeasibleRegion;
use frap_core::task::{StageId, SubtaskSpec};
use frap_core::time::{Time, TimeDelta};
use frap_sim::SimBuilder;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // Unreachable only while the thread's locals are being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the tally touches
// only a `Cell` in thread-local storage and never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// `count` three-stage chain tasks from `start`, one a millisecond —
/// twice what the region admits — with computations and deadlines varied
/// by a small multiplicative generator. The same tasks for every `start`.
fn chain_arrivals(start: Time, count: u64) -> Vec<(Time, TaskSpec)> {
    let ms = TimeDelta::from_millis;
    let mut x = 1u64;
    (0..count)
        .map(|i| {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let c = |shift: u32| TimeDelta::from_micros(400 + (x >> shift) % 1_200);
            let spec = TaskSpec::pipeline(ms(40 + (x >> 50) % 80), &[c(10), c(24), c(38)]);
            (start + ms(i), spec.expect("non-empty chain"))
        })
        .collect()
}

#[test]
fn steady_state_chain_task_allocates_nothing() {
    // The measured window replays the warm-up's arrivals from an empty
    // system, so every pool and heap has already been as large as it will
    // need to be. The two id tables gave their memory back while the
    // system drained and double their way up again: a handful of
    // reallocations, which the 1 % allowance below covers.
    let (pause, end) = (Time::from_secs(11), Time::from_secs(22));
    let warm_up = chain_arrivals(Time::ZERO, 10_000);
    let measured = chain_arrivals(pause, 10_000);
    let mut sim = SimBuilder::new(3).build();
    let warm = sim.run(warm_up.into_iter(), pause);
    assert_eq!(warm.in_flight_at_end, 0, "warm-up must drain");
    let warm_admitted = warm.admitted;

    let (allocations, _) = allocations_during(|| sim.run(measured.into_iter(), end).admitted);
    let after = sim.metrics();
    let admitted = after.admitted - warm_admitted;
    assert_eq!(
        admitted, warm_admitted,
        "the replay decides as the warm-up did"
    );
    assert!(after.rejected > 0 && admitted > 3_000, "{after:?}");
    assert_eq!(after.missed, 0);
    assert!(
        allocations <= admitted / 100,
        "{allocations} allocations for {admitted} admitted tasks"
    );
}

#[test]
fn graph_region_test_allocates_nothing() {
    let ms = TimeDelta::from_millis;
    let sub = |stage: usize| SubtaskSpec::new(StageId::new(stage), ms(1));
    let region = FeasibleRegion::deadline_monotonic(4);
    let fork_join = TaskGraph::fork_join(sub(0), vec![sub(1), sub(2)], sub(3)).unwrap();
    let chain = TaskGraph::chain((0..4).map(sub).collect()).unwrap();
    let utilizations = [0.1, 0.2, 0.15, 0.05];
    let (allocations, value) = allocations_during(|| {
        (0..1_000)
            .map(|_| {
                region.graph_value(&fork_join, &utilizations).unwrap()
                    + region.graph_value(&chain, &utilizations).unwrap()
            })
            .sum::<f64>()
    });
    assert!(value > 0.0);
    assert_eq!(allocations, 0, "graph_value allocated");
}
