//! Property-based and scenario tests for the simulation substrate.

use frap_core::graph::{TaskGraph, TaskSpec};
use frap_core::task::{Importance, Segment, StageId, SubtaskSpec};
use frap_core::time::{Time, TimeDelta};
use frap_sim::pipeline::{OverloadPolicy, SimBuilder, WaitPolicy};
use frap_sim::sched::EarliestDeadlineFirst;
use frap_sim::trace::TraceEvent;
use frap_sim::SimMetrics;
use frap_workload::taskgen::PipelineWorkloadBuilder;
use proptest::prelude::*;

fn ms(v: u64) -> TimeDelta {
    TimeDelta::from_millis(v)
}

fn arbitrary_arrivals() -> impl Strategy<Value = Vec<(Time, TaskSpec)>> {
    // Random gaps, computation times and deadlines → a sorted arrival
    // sequence for a 2-stage pipeline.
    proptest::collection::vec(
        (0u64..30_000, 1u64..20_000, 1u64..20_000, 40u64..400),
        1..80,
    )
    .prop_map(|rows| {
        let mut t = Time::ZERO;
        rows.into_iter()
            .map(|(gap_us, c1_us, c2_us, d_ms)| {
                t += TimeDelta::from_micros(gap_us);
                let spec = TaskSpec::pipeline(
                    TimeDelta::from_millis(d_ms),
                    &[TimeDelta::from_micros(c1_us), TimeDelta::from_micros(c2_us)],
                )
                .expect("valid pipeline");
                (t, spec)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Conservation: offered = admitted + rejected; admitted = completed
    /// + in-flight (+ shed); busy time never exceeds the horizon; and the
    /// zero-miss guarantee holds for whatever was admitted.
    #[test]
    fn accounting_identities_hold(arrivals in arbitrary_arrivals()) {
        let horizon = Time::from_secs(10);
        let mut sim = SimBuilder::new(2).build();
        let m = sim.run(arrivals.into_iter(), horizon).clone();
        prop_assert_eq!(m.offered, m.admitted + m.rejected);
        prop_assert_eq!(m.admitted, m.completed + m.in_flight_at_end + m.shed);
        for st in &m.stages {
            prop_assert!(st.busy <= m.horizon);
        }
        prop_assert_eq!(m.missed, 0, "exact admission control never misses");
    }

    /// Work conservation on a single stage: the processor's busy time
    /// equals the total computation of completed jobs plus whatever the
    /// in-flight job consumed — never more than was admitted.
    #[test]
    fn busy_time_bounded_by_admitted_work(arrivals in arbitrary_arrivals()) {
        let horizon = Time::from_secs(10);
        let total_offered: TimeDelta = arrivals
            .iter()
            .map(|(_, s)| s.total_computation())
            .sum();
        let mut sim = SimBuilder::new(2).build();
        let m = sim.run(arrivals.into_iter(), horizon).clone();
        let total_busy: TimeDelta = m.stages.iter().map(|s| s.busy).sum();
        prop_assert!(total_busy <= total_offered);
    }

    /// Determinism as a property: running the same sequence twice gives
    /// identical aggregate metrics.
    #[test]
    fn runs_are_deterministic(arrivals in arbitrary_arrivals()) {
        let horizon = Time::from_secs(10);
        let mut a = SimBuilder::new(2).build();
        let ma = a.run(arrivals.clone().into_iter(), horizon).clone();
        let mut b = SimBuilder::new(2).build();
        let mb = b.run(arrivals.into_iter(), horizon).clone();
        prop_assert_eq!(ma.admitted, mb.admitted);
        prop_assert_eq!(ma.completed, mb.completed);
        prop_assert_eq!(ma.response_max, mb.response_max);
        prop_assert_eq!(ma.stages[0].busy, mb.stages[0].busy);
        prop_assert_eq!(ma.stages[1].busy, mb.stages[1].busy);
    }
}

#[test]
fn trace_records_full_task_lifecycle() {
    let mut sim = SimBuilder::new(2).trace(1000).build();
    let arrivals = vec![
        (
            Time::ZERO,
            TaskSpec::pipeline(ms(100), &[ms(5), ms(5)]).unwrap(),
        ),
        // Infeasible arrival: 60 ms on each of 2 stages of a 100 ms deadline.
        (
            Time::from_millis(1),
            TaskSpec::pipeline(ms(100), &[ms(60), ms(60)]).unwrap(),
        ),
    ];
    sim.run(arrivals.into_iter(), Time::from_secs(1));
    let trace = sim.trace().expect("tracing enabled");
    assert!(!trace.is_empty());
    let kinds: Vec<&TraceEvent> = trace.iter().collect();
    assert!(kinds
        .iter()
        .any(|e| matches!(e, TraceEvent::Admitted { .. })));
    assert!(kinds
        .iter()
        .any(|e| matches!(e, TraceEvent::Rejected { .. })));
    assert!(kinds
        .iter()
        .any(|e| matches!(e, TraceEvent::Dispatched { .. })));
    assert!(kinds
        .iter()
        .any(|e| matches!(e, TraceEvent::SubtaskDone { .. })));
    assert!(kinds
        .iter()
        .any(|e| matches!(e, TraceEvent::IdleReset { .. })));
    assert!(kinds
        .iter()
        .any(|e| matches!(e, TraceEvent::TaskDone { missed: false, .. })));
    // Timestamps are monotone.
    let mut prev = Time::ZERO;
    for e in trace.iter() {
        assert!(e.time() >= prev);
        prev = e.time();
    }
    // The successful task's own history is coherent.
    let first = trace
        .iter()
        .find_map(|e| match e {
            TraceEvent::Admitted { task, .. } => Some(*task),
            _ => None,
        })
        .unwrap();
    let history = trace.of_task(first);
    assert!(history.len() >= 4, "admit, 2×dispatch, 2×done, finish");
    let dump = trace.dump();
    assert!(dump.contains("admit"));
    assert!(dump.contains("run"));
}

#[test]
fn trace_is_disabled_by_default() {
    let mut sim = SimBuilder::new(1).build();
    sim.run(
        vec![(Time::ZERO, TaskSpec::pipeline(ms(10), &[ms(1)]).unwrap())].into_iter(),
        Time::from_secs(1),
    );
    assert!(sim.trace().is_none());
}

#[test]
fn response_percentiles_are_ordered() {
    let mut sim = SimBuilder::new(2).build();
    let arrivals: Vec<(Time, TaskSpec)> = (0..500)
        .map(|i| {
            (
                Time::from_micros(i * 3_000),
                TaskSpec::pipeline(ms(200), &[ms(1 + i % 5), ms(2)]).unwrap(),
            )
        })
        .collect();
    let m = sim.run(arrivals.into_iter(), Time::from_secs(10)).clone();
    assert!(m.completed > 400);
    let p50 = m.response_percentile(0.50);
    let p95 = m.response_percentile(0.95);
    let p99 = m.response_percentile(0.99);
    assert!(p50 <= p95 && p95 <= p99);
    assert!(p99 <= m.response_max);
    assert!(p50 >= ms(3), "at least the uncontended service time");
}

#[test]
fn snapshot_reflects_mid_run_state() {
    let mut sim = SimBuilder::new(2).build();
    // Run until t = 5 ms with a 10 ms + 10 ms task in flight.
    let arrivals = vec![(
        Time::ZERO,
        TaskSpec::pipeline(ms(100), &[ms(10), ms(10)]).unwrap(),
    )];
    sim.run(arrivals.into_iter(), Time::from_millis(5));
    let snap = sim.snapshot();
    assert_eq!(snap.clock, Time::from_millis(5));
    assert_eq!(snap.live_tasks, 1);
    assert_eq!(snap.stage_jobs, vec![1, 0], "still executing at stage 0");
    assert!(snap.stage_running[0].is_some());
    assert_eq!(snap.stage_running[1], None);
    assert!(snap.synthetic_utilizations[0] > 0.0);
    assert_eq!(snap.pending_admissions, 0);
}

#[test]
fn snapshot_after_completion_is_empty() {
    let mut sim = SimBuilder::new(1).build();
    let arrivals = vec![(Time::ZERO, TaskSpec::pipeline(ms(100), &[ms(10)]).unwrap())];
    sim.run(arrivals.into_iter(), Time::from_secs(1));
    let snap = sim.snapshot();
    assert_eq!(snap.live_tasks, 0);
    assert_eq!(snap.stage_jobs, vec![0]);
    assert_eq!(
        snap.synthetic_utilizations,
        vec![0.0],
        "idle reset cleared the departed task"
    );
}

#[test]
fn utilization_timeline_sampling() {
    // A 3 ms cadence deliberately not aligned with the 5 ms arrivals, so
    // samples land mid-execution as well as at idle instants.
    let mut sim = SimBuilder::new(2).sample_utilization(ms(3)).build();
    let arrivals: Vec<(Time, TaskSpec)> = (0..20)
        .map(|i| {
            (
                Time::from_millis(i * 5),
                TaskSpec::pipeline(ms(80), &[ms(2), ms(2)]).unwrap(),
            )
        })
        .collect();
    let m = sim
        .run(arrivals.into_iter(), Time::from_millis(200))
        .clone();
    // Samples at t = 0, 3, 6, …, 198.
    assert_eq!(m.utilization_timeline.len(), 67);
    assert_eq!(m.utilization_timeline[0].0, Time::ZERO);
    assert_eq!(m.utilization_timeline[66].0, Time::from_millis(198));
    // Each sample carries one value per stage; values rise while work
    // arrives and return to zero after everything departs and expires.
    for (_, utils) in &m.utilization_timeline {
        assert_eq!(utils.len(), 2);
        assert!(utils.iter().all(|&u| u >= 0.0));
    }
    let mid_max = m.utilization_timeline[..35]
        .iter()
        .map(|(_, u)| u[0])
        .fold(0.0f64, f64::max);
    assert!(mid_max > 0.0, "utilization must be visible while loaded");
    let last = &m.utilization_timeline[66].1;
    assert_eq!(last, &vec![0.0, 0.0], "all contributions expired by 198 ms");
}

#[test]
fn multi_server_stage_improves_responses_and_stays_safe() {
    // An app tier at 1.6× single-server capacity: with one server the
    // admission controller must reject heavily; with two servers behind
    // the same region the extra capacity shows up as faster responses and
    // (thanks to idle resets tracking real departures) higher admission.
    let build_arrivals = || -> Vec<(Time, TaskSpec)> {
        (0..1600u64)
            .map(|i| {
                (
                    Time::from_micros(i * 6_250), // 160/s for 10 s
                    TaskSpec::pipeline(ms(400), &[ms(10)]).unwrap(),
                )
            })
            .collect()
    };
    let horizon = Time::from_secs(11);

    let mut single = SimBuilder::new(1).build();
    let m1 = single.run(build_arrivals().into_iter(), horizon).clone();

    let mut dual = SimBuilder::new(1).stage_servers(0, 2).build();
    let m2 = dual.run(build_arrivals().into_iter(), horizon).clone();

    assert_eq!(m1.missed, 0);
    assert_eq!(m2.missed, 0, "extra servers never hurt the guarantee");
    assert!(
        m2.admitted > m1.admitted,
        "two servers admit more: {} vs {}",
        m2.admitted,
        m1.admitted
    );
    assert!(
        m2.response_percentile(0.95) <= m1.response_percentile(0.95),
        "p95 should not degrade with a second server"
    );
    // Utilization is normalized per server and stays in [0, 1].
    assert!(m2.stage_utilization(0) <= 1.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The accounting identities and the zero-miss guarantee also hold
    /// with a multi-server stage in the pipeline.
    #[test]
    fn multi_server_accounting_identities(arrivals in arbitrary_arrivals()) {
        let horizon = Time::from_secs(10);
        let mut sim = SimBuilder::new(2).stage_servers(1, 3).build();
        let m = sim.run(arrivals.into_iter(), horizon).clone();
        prop_assert_eq!(m.offered, m.admitted + m.rejected);
        prop_assert_eq!(m.admitted, m.completed + m.in_flight_at_end + m.shed);
        prop_assert_eq!(m.missed, 0);
        // Per-server-normalized utilization stays within [0, 1].
        for j in 0..2 {
            let u = m.stage_utilization(j);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&u), "u={u}");
        }
    }
}

#[test]
fn reserved_importance_tasks_bypass_admission() {
    use frap_core::task::Importance;
    let mut sim = SimBuilder::new(1)
        .reservations(vec![0.5])
        .reserved_importance(Importance::CRITICAL)
        .build();
    // A critical task whose contribution (0.9) would fail any test is
    // started anyway: its capacity is covered by the reservation.
    let critical = TaskSpec::pipeline(ms(100), &[ms(90)])
        .unwrap()
        .with_importance(Importance::CRITICAL);
    // A normal task that would fit an empty stage is rejected against the
    // 0.5 reservation floor (0.5 + 0.3 → f(0.8) > 1).
    let normal = TaskSpec::pipeline(ms(100), &[ms(30)]).unwrap();
    let arrivals = vec![(Time::ZERO, critical), (Time::from_millis(1), normal)];
    let m = sim.run(arrivals.into_iter(), Time::from_secs(1)).clone();
    assert_eq!(m.admitted, 1, "only the critical task enters");
    assert_eq!(m.rejected, 1);
    assert_eq!(m.completed, 1);
}

/// A relative deadline so long that `arrival + deadline` exceeds `u64`
/// microseconds saturates at `Time::MAX` in the simulator exactly as it
/// does in the admission ledger (`Admission::commit`): no overflow panic
/// (debug) and no wrapped, already-missed deadline (release), under
/// either policy that reads the absolute deadline.
#[test]
fn near_max_deadline_saturates_instead_of_overflowing() {
    let arrivals = || {
        let forever = TimeDelta::from_micros(u64::MAX - 5_000);
        let spec = TaskSpec::pipeline(forever, &[ms(1), ms(1)]).unwrap();
        vec![(Time::from_millis(10), spec)].into_iter()
    };
    let mut dm = SimBuilder::new(2).build();
    let mut edf = SimBuilder::new(2).policy(EarliestDeadlineFirst).build();
    for sim in [&mut dm, &mut edf] {
        let m = sim.run(arrivals(), Time::from_secs(1));
        assert_eq!((m.admitted, m.completed, m.missed), (1, 1, 0));
        assert_eq!(m.in_flight_at_end, 0);
    }
}

/// Pins the event count of a fixed run with preemptions (every preempted
/// run leaves a stale `SegmentDone` behind, which is popped and counted
/// like any other event) together with the aggregates it must produce.
/// The literals are the values before the event queue was split into
/// tiers: pop order and event accounting may not drift.
#[test]
fn event_count_and_aggregates_of_a_preempting_run_are_pinned() {
    let arrivals = (0..2_000u64).map(|i| {
        let deadline = ms(20 + (i * 7 % 11) * 15);
        let stages = [ms(1 + i % 4), ms(1 + (i * 3) % 5), ms(2)];
        let spec = TaskSpec::pipeline(deadline, &stages).unwrap();
        (Time::from_micros(i * 1_913), spec)
    });
    let mut sim = SimBuilder::new(3).trace(1 << 16).build();
    let m = sim.run(arrivals, Time::from_secs(5)).clone();
    // A job dispatched more than once was preempted in between.
    let dispatches = sim
        .trace()
        .expect("tracing enabled")
        .iter()
        .filter(|e| matches!(e, TraceEvent::Dispatched { .. }))
        .count() as u64;
    let subtasks: u64 = m.stages.iter().map(|s| s.subtasks_completed).sum();
    assert!(dispatches > subtasks, "the run has preemptions");
    let stale = dispatches - subtasks;
    assert_eq!(m.events_processed, 8_087);
    assert_eq!(m.admitted, 1_248);
    assert_eq!(m.completed, 1_248);
    assert_eq!(m.missed, 0);
    assert_eq!(m.response_sum, TimeDelta::from_micros(21_911_533));
    assert_eq!(stale, 1_095);
    // Arrivals + one deadline per admitted task + every dispatch's
    // completion event, stale or not.
    assert_eq!(m.events_processed, m.offered + m.admitted + dispatches);
}

/// `count` arrivals of a generated three-stage pipeline workload at
/// `load`, with short deadlines (so they expire within a short run) and
/// three importance levels in turn (so shedding has victims).
fn generated_pipeline(load: f64, seed: u64, count: usize) -> Vec<(Time, TaskSpec)> {
    let stream = PipelineWorkloadBuilder::new(3)
        .mean_computation_ms(2.0)
        .resolution(10.0)
        .load(load)
        .seed(seed)
        .build();
    let leveled = |(i, (t, spec)): (usize, (Time, TaskSpec))| {
        (t, spec.with_importance(Importance::new(i as u32 % 3)))
    };
    stream.take(count).enumerate().map(leveled).collect()
}

/// `spec` with each subtask's one segment split into two lock-free
/// halves: the same work, held in the general graph form.
fn split_segments(spec: &TaskSpec) -> TaskSpec {
    let halves = |sub: SubtaskSpec| {
        let c = sub.computation();
        let first = TimeDelta::from_micros(c.as_micros() / 2);
        let halves = vec![Segment::compute(first), Segment::compute(c - first)];
        SubtaskSpec::with_segments(sub.stage, halves)
    };
    let graph = TaskGraph::chain(spec.graph.subtasks().map(halves).collect());
    let split = TaskSpec::new(spec.deadline, graph.expect("non-empty chain"));
    split.with_importance(spec.importance)
}

/// The general graph path is the plain-chain path's oracle: a generated
/// workload run once as plain chains and once with every segment split in
/// two decides, sheds, completes and misses identically under both
/// overload policies, with idle resets on and off. Only the event count
/// may differ, by the split boundaries reached.
#[test]
fn general_path_decides_as_the_chain_path() {
    for (load, seed) in [(0.9, 11), (1.1, 12), (1.3, 13)] {
        let chains = generated_pipeline(load, seed, 2_000);
        let split: Vec<(Time, TaskSpec)> = chains
            .iter()
            .map(|(t, s)| (*t, split_segments(s)))
            .collect();
        assert!(chains.iter().all(|(_, s)| s.graph.is_plain()));
        assert!(split.iter().all(|(_, s)| !s.graph.is_plain()));
        let horizon = chains.last().expect("arrivals").0;
        for overload in [
            OverloadPolicy::RejectArrival,
            OverloadPolicy::ShedLessImportant,
        ] {
            for resets in [true, false] {
                let run = |arrivals: &[(Time, TaskSpec)]| {
                    let mut sim = SimBuilder::new(3)
                        .overload(overload)
                        .idle_resets(resets)
                        .record_decisions(true)
                        .record_outcomes(true)
                        .build();
                    sim.run(arrivals.iter().cloned(), horizon);
                    sim.into_metrics()
                };
                let (c, g) = (run(&chains), run(&split));
                let case = format!("load {load}, {overload:?}, idle resets {resets}");
                assert_eq!(c.decision_log, g.decision_log, "{case}");
                assert_eq!(c.shed_log, g.shed_log, "{case}");
                assert_eq!(c.outcomes, g.outcomes, "{case}");
                let counts = |m: &SimMetrics| {
                    (
                        m.admitted,
                        m.rejected,
                        m.completed,
                        m.missed,
                        m.shed,
                        m.in_flight_at_end,
                    )
                };
                assert_eq!(counts(&c), counts(&g), "{case}");
                assert!(g.events_processed >= c.events_processed, "{case}");
                if overload == OverloadPolicy::ShedLessImportant && load > 1.0 {
                    assert!(c.shed > 0, "{case}: the run sheds");
                }
            }
        }
    }
}

/// A run cut into several `run` segments equals one run: the same event
/// count, counts and decision log. A deadline past a segment's horizon is
/// queued and counted once, in the segment that reaches it.
#[test]
fn run_segments_equal_one_run() {
    let arrivals = generated_pipeline(1.2, 21, 1_500);
    let end = arrivals.last().expect("arrivals").0 + TimeDelta::from_secs(1);
    for wait in [WaitPolicy::Reject, WaitPolicy::WaitUpTo(ms(20))] {
        let build = || SimBuilder::new(3).wait(wait).record_decisions(true).build();
        let mut whole = build();
        whole.run(arrivals.iter().cloned(), end);
        let mut cut = build();
        let share = |n: u64, d: u64| Time::from_micros(end.as_micros() / d * n);
        let cuts = [
            share(1, 5),
            share(1, 3),
            share(1, 2) + TimeDelta::from_micros(7),
            end,
        ];
        let mut rest = arrivals.iter().cloned().peekable();
        for until in cuts {
            let segment = std::iter::from_fn(|| rest.next_if(|&(t, _)| t <= until));
            cut.run(segment, until);
        }
        let (w, c) = (whole.into_metrics(), cut.into_metrics());
        assert_eq!(w.events_processed, c.events_processed, "{wait:?}");
        let counts = |m: &SimMetrics| (m.offered, m.admitted, m.rejected, m.completed, m.missed);
        assert_eq!(counts(&w), counts(&c), "{wait:?}");
        assert_eq!(w.decision_log, c.decision_log, "{wait:?}");
    }

    // One task, deadline at t = 100 ms: not counted in a segment ending
    // before it, counted once in the segment that reaches it.
    let spec = TaskSpec::pipeline(ms(100), &[ms(10)]).unwrap();
    let mut sim = SimBuilder::new(1).build();
    let first = sim.run(
        [(Time::ZERO, spec.clone())].into_iter(),
        Time::from_millis(50),
    );
    assert_eq!(first.events_processed, 2, "arrival and completion");
    let second = sim.run(std::iter::empty(), Time::from_millis(200));
    assert_eq!(second.events_processed, 3, "the deadline, reached");
    let third = sim.run(std::iter::empty(), Time::from_millis(300));
    assert_eq!(third.events_processed, 3, "and not again");
    let mut whole = SimBuilder::new(1).build();
    let once = whole.run([(Time::ZERO, spec)].into_iter(), Time::from_millis(300));
    assert_eq!(once.events_processed, 3);

    // Two tasks: the lax one runs from t = 0 towards t = 50 ms, the urgent
    // one preempts it at t = 10 ms, so the lax run's first completion,
    // at t = 50 ms, is stale. A segment ending at t = 30 ms leaves it
    // queued and does not count it; the segment that reaches it counts it
    // once, and the whole run counts the same.
    let lax = TaskSpec::pipeline(ms(250), &[ms(50)]).unwrap();
    let urgent = TaskSpec::pipeline(ms(50), &[ms(10)]).unwrap();
    let arrivals = [(Time::ZERO, lax), (Time::from_millis(10), urgent)];
    let mut sim = SimBuilder::new(1).build();
    let first = sim.run(arrivals.iter().cloned(), Time::from_millis(30));
    assert_eq!(first.completed, 1);
    assert_eq!(first.events_processed, 3, "two arrivals and a completion");
    let second = sim.run(std::iter::empty(), Time::from_millis(300));
    assert_eq!(second.completed, 2);
    // The stale completion, the lax completion and both deadlines.
    assert_eq!(second.events_processed, 7);
    let mut whole = SimBuilder::new(1).build();
    let once = whole.run(arrivals.into_iter(), Time::from_millis(300));
    assert_eq!(once.completed, 2);
    // Arrivals, deadlines and three dispatches' completions, one stale.
    assert_eq!(once.events_processed, 7);
}

/// Deadlines reach the ledger lazily, yet every read after `run` sees it
/// current: with idle resets off, only deadlines remove charges, and past
/// every deadline both `admission().state()` and `snapshot()` read the
/// reservation floors on every stage.
#[test]
fn the_ledger_is_current_after_run() {
    let floors = [0.05, 0.1, 0.0];
    let arrivals = generated_pipeline(1.0, 31, 500);
    let last_deadline = arrivals.iter().map(|(t, s)| *t + s.deadline).max().unwrap();
    let mut sim = SimBuilder::new(3)
        .reservations(floors.to_vec())
        .idle_resets(false)
        .build();
    let m = sim.run(arrivals.into_iter(), last_deadline + ms(1));
    assert!(m.admitted > 0);
    let state = sim.admission().state();
    for (j, &floor) in floors.iter().enumerate() {
        let stage = state.stage(StageId::new(j));
        assert_eq!(stage.value(), floor, "stage {j}");
        assert_eq!(stage.live_tasks(), 0, "stage {j}");
        assert!(stage.peak() > floor, "stage {j} was charged");
    }
    assert_eq!(sim.admission().live_tasks(), 0);
    assert_eq!(sim.snapshot().synthetic_utilizations, floors);
}
