//! Allocation budget of the simulator's steady state, counted by a
//! `#[global_allocator]` that tallies per thread: once the pools and heaps
//! have reached their working size, a chain task costs no heap allocation
//! inside `Simulation::run` (its jobs carry their one segment inline), a
//! Theorem 2 region test — one shape's or a catalog's — costs none, and
//! an admit that sheds costs only the victim list it returns.
//!
//! Counts are a property of the optimised binary the benchmark measures;
//! CI runs this file with `--release` as well.

use frap_core::admission::{Admission, AdmitOutcome, ExactContributions};
use frap_core::graph::{TaskGraph, TaskSpec};
use frap_core::region::FeasibleRegion;
use frap_core::task::{Importance, StageId, SubtaskSpec};
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
fn recorded_decision_log_is_sized_once() {
    // An exact-size arrival iterator (a trace's is one) sizes the log up
    // front: one entry per arrival and no doubling slack — a log that
    // had grown would sit at a power of two above its 10 000 entries.
    let arrivals = chain_arrivals(Time::ZERO, 10_000);
    let mut sim = SimBuilder::new(3).record_decisions(true).build();
    let m = sim.run(arrivals.into_iter(), Time::from_secs(11));
    assert!(m.admitted > 0 && m.rejected > 0, "{m:?}");
    assert_eq!(m.decision_log.len(), 10_000);
    assert_eq!(m.decision_log.capacity(), 10_000);
}

#[test]
fn recorded_run_over_an_endless_stream_grows_its_log() {
    // An endless iterator's lower hint is `usize::MAX`: the log must not
    // reserve from it, only grow with the arrivals before `until`.
    let spec = chain_arrivals(Time::ZERO, 1).remove(0).1;
    let arrivals = (0u64..).map(move |i| (Time::from_millis(i), spec.clone()));
    assert_eq!(arrivals.size_hint().0, usize::MAX);
    let mut sim = SimBuilder::new(3).record_decisions(true).build();
    let m = sim.run(arrivals, Time::from_secs(2));
    assert!(m.admitted > 0, "{m:?}");
    assert!(
        (2_000..=2_001).contains(&m.decision_log.len()),
        "{}",
        m.decision_log.len()
    );
}

#[test]
fn graph_region_test_allocates_nothing() {
    let ms = TimeDelta::from_millis;
    let sub = |stage: usize| SubtaskSpec::new(StageId::new(stage), ms(1));
    let region = FeasibleRegion::deadline_monotonic(4);
    let fork_join = TaskGraph::fork_join(sub(0), &[sub(1), sub(2)], sub(3)).unwrap();
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

#[test]
fn shape_region_test_allocates_nothing() {
    use frap_core::region::RegionTest;
    let region = frap_workload::webfarm::WebFarmConfig::default().shape_region();
    let vectors = [[0.1, 0.2, 0.15, 0.05], [0.5, 0.5, 0.5, 0.5]];
    let (allocations, admitted) = allocations_during(|| {
        (0..1_000)
            .filter(|i| region.feasible(&vectors[i % 2]))
            .count()
    });
    assert_eq!(admitted, 500, "the first vector is inside, the second not");
    assert_eq!(allocations, 0, "the shape region test allocated");
}

#[test]
fn steady_state_shedding_admit_allocates_only_the_shed_list() {
    // Each round a lax task fills half the two-stage region, then an
    // important one arrives that fits only once the lax one is shed. The
    // oracle reports 1 ms executed on stage 0, so the shed keeps a share
    // of the victim's charge (the buffers the controller now owns). Both
    // tasks expire before the next round; an idle reset per round empties
    // the departed lists the kept share lands in.
    let ms = TimeDelta::from_millis;
    let task = |importance: u32| {
        TaskSpec::pipeline(ms(10), &[ms(3), ms(3)])
            .expect("non-empty chain")
            .with_importance(Importance::new(importance))
    };
    let (lax, important) = (task(1), task(2));
    let mut ac = Admission::new(FeasibleRegion::deadline_monotonic(2), ExactContributions);
    let round = |ac: &mut Admission<_, _>, i: u64| {
        let now = Time::from_millis(20 * i);
        for stage in 0..2 {
            ac.on_stage_idle(now, StageId::new(stage));
        }
        let (lax_allocations, admitted) = allocations_during(|| ac.try_admit(now, &lax));
        assert!(admitted.is_some(), "round {i}: the lax task fits alone");
        let (allocations, outcome) = allocations_during(|| {
            ac.try_admit_or_shed_with(now, &important, |_, out| {
                out.push((StageId::new(0), ms(1)));
            })
        });
        let AdmitOutcome::AdmittedAfterShedding { shed, .. } = outcome else {
            panic!("round {i}: the important task fits only by shedding: {outcome:?}");
        };
        assert_eq!(shed.len(), 1);
        (lax_allocations, allocations)
    };
    for i in 0..1_000 {
        round(&mut ac, i);
    }
    for i in 1_000..2_000 {
        let (lax_allocations, allocations) = round(&mut ac, i);
        assert_eq!(lax_allocations, 0, "round {i}: a plain admit allocated");
        assert_eq!(allocations, 1, "round {i}: beyond the returned shed list");
    }
    assert_eq!(
        ac.live_tasks(),
        1,
        "the last lax task went, the important one stays"
    );
}
