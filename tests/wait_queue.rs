//! Admission wait-queue semantics (the TSCE experiment's 200 ms queue):
//! retries on idle resets *and* deadline expiries, arrival-order fairness,
//! and exact timeout accounting.

use frap::core::graph::TaskSpec;
use frap::core::time::{Time, TimeDelta};
use frap::sim::metrics::AdmitDecision;
use frap::sim::pipeline::{SimBuilder, WaitPolicy};
use frap::sim::trace::TraceEvent;

fn ms(v: u64) -> TimeDelta {
    TimeDelta::from_millis(v)
}

fn at(v: u64) -> Time {
    Time::from_millis(v)
}

fn task(deadline_ms: u64, comp_ms: u64) -> TaskSpec {
    TaskSpec::pipeline(ms(deadline_ms), &[ms(comp_ms)]).unwrap()
}

#[test]
fn deadline_expiry_alone_releases_waiting_arrivals() {
    // Idle resets disabled: the only capacity-release signal is the first
    // task's deadline at t = 50 ms.
    let mut sim = SimBuilder::new(1)
        .idle_resets(false)
        .wait(WaitPolicy::WaitUpTo(ms(200)))
        .record_outcomes(true)
        .build();
    let arrivals = vec![
        (at(0), task(50, 25)), // C/D = 0.5
        (at(1), task(50, 25)), // together 1.0 > 0.586 → waits
    ];
    let m = sim.run(arrivals.into_iter(), Time::from_secs(1)).clone();
    assert_eq!(m.admitted, 2);
    assert_eq!(m.wait_timeouts, 0);
    assert_eq!(m.missed, 0);
    // The second task entered at the first one's deadline expiry (t = 50).
    // (A waiter's recorded arrival is its admission instant.)
    let completions: Vec<Time> = m.outcomes.iter().map(|o| o.completion).collect();
    assert!(completions.contains(&at(25)), "first task ran immediately");
    assert!(
        completions.contains(&at(75)),
        "second task admitted at the t=50 expiry, ran 25 ms: {completions:?}"
    );
}

#[test]
fn waiting_arrivals_admit_in_arrival_order_when_capacity_frees() {
    let mut sim = SimBuilder::new(1)
        .wait(WaitPolicy::WaitUpTo(ms(500)))
        .record_outcomes(true)
        .build();
    // One blocking task, then three identical waiters.
    let arrivals = vec![
        (at(0), task(100, 50)),
        (at(1), task(400, 50)),
        (at(2), task(400, 50)),
        (at(3), task(400, 50)),
    ];
    let m = sim.run(arrivals.into_iter(), Time::from_secs(2)).clone();
    assert_eq!(m.admitted, 4);
    assert_eq!(m.missed, 0);
    // The waiters are retried in queue order, so their admission times
    // (recorded as outcome arrivals) are non-decreasing with completion.
    let mut waiters: Vec<_> = m
        .outcomes
        .iter()
        .filter(|o| o.deadline.saturating_since(o.arrival) == ms(400))
        .collect();
    assert_eq!(waiters.len(), 3);
    waiters.sort_by_key(|o| o.arrival);
    for pair in waiters.windows(2) {
        assert!(
            pair[0].completion <= pair[1].completion,
            "earlier-admitted waiter finishes no later"
        );
    }
}

#[test]
fn timeouts_are_counted_exactly_once() {
    let mut sim = SimBuilder::new(1)
        .wait(WaitPolicy::WaitUpTo(ms(20)))
        .build();
    // The blocker holds the region past every waiter's patience.
    let arrivals = vec![
        (at(0), task(500, 290)), // util 0.58, runs 290 ms
        (at(1), task(500, 290)),
        (at(2), task(500, 290)),
    ];
    let m = sim.run(arrivals.into_iter(), Time::from_secs(2)).clone();
    assert_eq!(m.admitted, 1);
    assert_eq!(m.wait_timeouts, 2);
    assert_eq!(m.rejected, 2);
    assert_eq!(m.offered, 3);
    assert_eq!(m.missed, 0);
}

#[test]
fn smaller_later_arrival_may_overtake_a_large_waiter() {
    // Documented queue semantics: waiters are retried front-to-back but a
    // small task can be admitted while a larger, earlier waiter still does
    // not fit (no head-of-line blocking).
    let mut sim = SimBuilder::new(1)
        .wait(WaitPolicy::WaitUpTo(ms(300)))
        .record_outcomes(true)
        .build();
    let arrivals = vec![
        (at(0), task(200, 80)),  // blocker: util 0.4
        (at(1), task(200, 100)), // large waiter: needs 0.5 more — waits
        (at(2), task(200, 20)),  // small: 0.1 — fits alongside the blocker
    ];
    let m = sim.run(arrivals.into_iter(), Time::from_secs(2)).clone();
    assert_eq!(m.admitted, 3);
    // Identify by uncontended service demand: small responds fast.
    let small = m
        .outcomes
        .iter()
        .min_by_key(|o| o.response())
        .expect("outcomes exist");
    let large = m
        .outcomes
        .iter()
        .max_by_key(|o| o.completion)
        .expect("outcomes exist");
    assert!(
        small.completion < large.completion,
        "the small task is not head-of-line blocked"
    );
    assert_eq!(m.missed, 0);
}

#[test]
fn zero_wait_is_equivalent_to_reject() {
    let run = |wait: WaitPolicy| {
        let mut sim = SimBuilder::new(1).wait(wait).build();
        let arrivals = vec![(at(0), task(100, 50)), (at(1), task(100, 50))];
        sim.run(arrivals.into_iter(), Time::from_secs(1)).clone()
    };
    let rejected = run(WaitPolicy::Reject);
    let zero_wait = run(WaitPolicy::WaitUpTo(TimeDelta::ZERO));
    assert_eq!(rejected.admitted, zero_wait.admitted);
    // Timeouts are counted within `rejected` (they are a kind of
    // rejection), so the totals match across policies.
    assert_eq!(rejected.rejected, zero_wait.rejected);
    assert_eq!(zero_wait.wait_timeouts, zero_wait.rejected);
    assert_eq!(zero_wait.admitted, 1);
}

/// What the scheduling trace shows at the instant `t`, one word per event.
fn trace_at(sim: &frap::sim::Simulation, t: Time) -> Vec<&'static str> {
    let trace = sim.trace().expect("tracing enabled");
    trace
        .iter()
        .filter(|e| e.time() == t)
        .map(|e| match e {
            TraceEvent::Admitted { .. } => "admit",
            TraceEvent::Dispatched { .. } => "run",
            TraceEvent::SubtaskDone { .. } => "subtask-done",
            TraceEvent::TaskDone { .. } => "task-done",
            TraceEvent::IdleReset { .. } => "idle-reset",
            _ => "other",
        })
        .collect()
}

/// A completion that idles the stage and a deadline expiry land on the
/// same microsecond (t = 50 ms) with one arrival waiting. Which of the
/// two fires first is decided by the order they were *scheduled* in —
/// the event queue's one global insertion counter, across its near and
/// deadline tiers — and the two orders give different runs:
///
/// * expiry first: the expiry frees the short task's share, the waiter
///   fits beside the long task and starts on the free server; when the
///   long task then completes the stage is not idle, so no reset;
/// * completion first: the stage idles, the reset clears both departed
///   tasks, and the waiter enters after it.
#[test]
fn same_instant_completion_and_expiry_fire_in_scheduling_order() {
    // One stage, two servers, so the short task runs beside the long one
    // and its charge survives (no idle instant) until its deadline.
    let long = || task(125, 50); // util 0.4, done at t = 50
    let waiter = || task(100, 15); // 0.15: fits beside `long` only
    let run = |arrivals: Vec<(Time, TaskSpec)>| {
        let mut sim = SimBuilder::new(1)
            .stage_servers(0, 2)
            .wait(WaitPolicy::WaitUpTo(ms(200)))
            .record_outcomes(true)
            .trace(64)
            .build();
        let m = sim.run(arrivals.into_iter(), Time::from_secs(1)).clone();
        assert_eq!((m.admitted, m.completed, m.missed), (3, 3, 0));
        assert_eq!(m.wait_timeouts, 0);
        // Either way the waiter is admitted at t = 50 and runs 15 ms.
        assert!(m
            .outcomes
            .iter()
            .any(|o| o.arrival == at(50) && o.completion == at(65)));
        (m.stages[0].idle_resets, trace_at(&sim, at(50)))
    };

    // Expiry scheduled first: the short task (deadline 50) is admitted
    // at t = 0 ahead of the long one, whose completion event follows.
    let (resets, at_50) = run(vec![
        (at(0), task(50, 5)),
        (at(0), long()),
        (at(30), waiter()),
    ]);
    assert_eq!(at_50, ["admit", "run", "subtask-done", "task-done"]);
    assert_eq!(resets, 1, "only the final idle instant at t = 65");

    // Completion scheduled first: the long task starts at t = 0; the
    // short one arrives at t = 10 with deadline 40, expiring at t = 50.
    let (resets, at_50) = run(vec![
        (at(0), long()),
        (at(10), task(40, 5)),
        (at(30), waiter()),
    ]);
    assert_eq!(
        at_50,
        ["subtask-done", "task-done", "idle-reset", "admit", "run"]
    );
    assert_eq!(resets, 2, "t = 50 and t = 65");
}

/// A wait of `TimeDelta::MAX` is unbounded, not an overflow: the timeout
/// saturates at the end of time (as the ledger's expiry does), so the
/// waiters are admitted as capacity frees, exactly as with a one-hour
/// wait, instead of timing out at once with the clock run backwards.
#[test]
fn unbounded_wait_saturates_instead_of_wrapping() {
    let run = |wait: TimeDelta| {
        let mut sim = SimBuilder::new(1)
            .wait(WaitPolicy::WaitUpTo(wait))
            .record_decisions(true)
            .record_outcomes(true)
            .build();
        // C/D = 0.4 each: one fits, a second does not until the first's
        // idle reset.
        let arrivals = (1..=3).map(|i| (at(i), task(100, 40)));
        sim.run(arrivals, Time::from_secs(1)).clone()
    };
    let unbounded = run(TimeDelta::MAX);
    let hour = run(TimeDelta::from_secs(3_600));
    let kinds = |m: &frap::sim::SimMetrics| {
        let kind = |d: &AdmitDecision| match d {
            AdmitDecision::Admitted { .. } => "admitted",
            AdmitDecision::AdmittedFromQueue { .. } => "from-queue",
            AdmitDecision::TimedOut => "timed-out",
            _ => "other",
        };
        m.decision_log.iter().map(kind).collect::<Vec<_>>()
    };
    assert_eq!(kinds(&unbounded), ["admitted", "from-queue", "from-queue"]);
    assert_eq!(kinds(&unbounded), kinds(&hour));
    assert_eq!(unbounded.wait_timeouts, 0);
    assert_eq!((unbounded.completed, unbounded.missed), (3, 0));
    assert_eq!(unbounded.outcomes, hour.outcomes);
    let completions: Vec<Time> = unbounded.outcomes.iter().map(|o| o.completion).collect();
    assert_eq!(completions, [at(41), at(81), at(121)]);
}
