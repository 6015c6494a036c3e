//! Pinned reproducers of two known accounting gaps of shedding (ROADMAP
//! item 3; DESIGN.md §15, "Known gap").
//!
//! **A shed finished task is an early release.**
//!
//! A finished task's charge stays on its stages' counters until its
//! deadline or an idle reset: the interference it inflicted on tasks
//! still in flight has happened. The executed-work oracle that
//! `ShedLessImportant` hands the controller reads a victim's progress
//! from the simulator's live tasks, and a finished task is no longer
//! among them, so the oracle reports nothing and the controller reclaims
//! the victim's whole charge for the arrival.
//!
//! One stage, deadline-monotonic, the default region (`U ≤ 0.586`):
//! - at 0 ms, `low` (importance 1, 10 ms of 100 ms, `U = 0.1`) and `busy`
//!   (critical, 100 ms of 250 ms, `U = 0.4`) are admitted. `low` runs
//!   first and finishes at 10 ms; `busy` runs from 10 to 110 ms, so the
//!   stage does not idle;
//! - at 20 ms, `late` (critical, 24 ms of 200 ms, `U = 0.12`) does not fit
//!   beside 0.5 and sheds `low`, the one less important task.
//!
//! `low`'s 0.1 should stay on the counter, so shedding it frees nothing
//! and `late` is rejected. Today the counter drops to 0.4 and `late` is
//! admitted on it.
//!
//! **A victim shed for an arrival that is then rejected keeps running
//! with its charge released.** `Admission::try_admit_or_shed_with`
//! retires and sheds each victim before it knows the arrival will fit;
//! when shedding is not enough it returns `Rejected` and drops the victim
//! list, so the simulator neither kills nor books those victims. One
//! stage again:
//! - at 0 ms, `low` (importance 1, 20 ms of 100 ms, `U = 0.2`) and `busy`
//!   (critical, 75 ms of 250 ms, `U = 0.3`) are admitted; `low` runs
//!   first;
//! - at 10 ms, `big` (critical, 60 ms of 200 ms, `U = 0.3`) does not fit
//!   beside 0.5 and sheds `low`, which has run 10 ms and so keeps 0.1 of
//!   its charge. At 0.4 `big` still does not fit, and is rejected.
//!
//! `low` should either keep its whole charge and run on, or be killed
//! and counted as shed. Today it runs on with 0.1 of its 0.2 on the
//! counter, and the shed count does not include it.
//!
//! The `#[ignore]`d tests assert what should hold; run them with
//! `cargo test -p frap-sim --test known_gap -- --ignored`. The pins pass
//! and keep a change to the oracle or the ledger from moving these
//! traces unnoticed.

use frap_core::graph::TaskSpec;
use frap_core::task::{Importance, TaskId};
use frap_core::time::{Time, TimeDelta};
use frap_sim::metrics::AdmitDecision;
use frap_sim::{OverloadPolicy, SimBuilder};

const LOW: f64 = 0.1;
const BUSY: f64 = 0.4;
const LATE: f64 = 0.12;

fn task(deadline_ms: u64, c_ms: u64, importance: Importance) -> TaskSpec {
    let ms = TimeDelta::from_millis;
    TaskSpec::pipeline(ms(deadline_ms), &[ms(c_ms)])
        .unwrap()
        .with_importance(importance)
}

/// The stage's synthetic utilization just before `late` arrives and just
/// after, `late`'s verdict, and the tasks shed.
fn shed_a_finished_task() -> (f64, f64, AdmitDecision, u64) {
    let mut sim = SimBuilder::new(1)
        .overload(OverloadPolicy::ShedLessImportant)
        .record_decisions(true)
        .build();
    let at = Time::from_millis;
    let first = vec![
        (at(0), task(100, 10, Importance::new(1))),
        (at(0), task(250, 100, Importance::CRITICAL)),
    ];
    sim.run(first.into_iter(), at(19));
    let before = sim.snapshot();
    assert_eq!(before.live_tasks, 1, "`low` has finished, `busy` runs");
    assert!(before.stage_running[0].is_some(), "the stage is busy");
    let late = vec![(at(20), task(200, 24, Importance::CRITICAL))];
    sim.run(late.into_iter(), at(21));
    let after = sim.snapshot();
    let metrics = sim.metrics();
    let verdict = metrics.decision_log[2];
    (
        before.synthetic_utilizations[0],
        after.synthetic_utilizations[0],
        verdict,
        metrics.shed,
    )
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9
}

#[test]
#[ignore = "known gap, ROADMAP item 3"]
fn a_shed_finished_task_keeps_its_charge() {
    let (before, after, verdict, _) = shed_a_finished_task();
    assert!(close(before, LOW + BUSY), "before: {before}");
    let admitted = if verdict.is_admitted() { LATE } else { 0.0 };
    assert!(
        close(after, LOW + BUSY + admitted),
        "`low`'s charge left the counter: {after} after {verdict:?}"
    );
}

/// Today's counters: `low`'s charge leaves with the shed, and `late` is
/// admitted on the capacity it held.
#[test]
fn a_shed_finished_task_reproduces_todays_counters() {
    let (before, after, verdict, shed) = shed_a_finished_task();
    assert!(close(before, LOW + BUSY), "before: {before}");
    assert!(close(after, BUSY + LATE), "after: {after}");
    assert!(verdict.is_admitted(), "{verdict:?}");
    assert_eq!(shed, 1);
}

const RUNNING_LOW: f64 = 0.2;
const RUNNING_BUSY: f64 = 0.3;

/// The stage's synthetic utilization and live tasks just after `big` is
/// offered, `big`'s verdict, and the tasks shed. One `run` call: `low`
/// must still be mid-segment when `big` arrives.
fn shed_for_a_rejected_arrival() -> (f64, usize, AdmitDecision, u64) {
    let mut sim = SimBuilder::new(1)
        .overload(OverloadPolicy::ShedLessImportant)
        .record_decisions(true)
        .build();
    let at = Time::from_millis;
    let arrivals = vec![
        (at(0), task(100, 20, Importance::new(1))),
        (at(0), task(250, 75, Importance::CRITICAL)),
        (at(10), task(200, 60, Importance::CRITICAL)),
    ];
    sim.run(arrivals.into_iter(), at(11));
    let after = sim.snapshot();
    let low = TaskId::new(0);
    assert_eq!(after.stage_running[0], Some((low, 0)), "`low` runs");
    let metrics = sim.metrics();
    assert!(metrics.decision_log[..2].iter().all(|d| d.is_admitted()));
    (
        after.synthetic_utilizations[0],
        after.live_tasks,
        metrics.decision_log[2],
        metrics.shed,
    )
}

#[test]
#[ignore = "known gap, ROADMAP item 3"]
fn a_victim_of_a_rejected_arrival_is_charged_or_killed() {
    let (after, live, verdict, shed) = shed_for_a_rejected_arrival();
    assert_eq!(verdict, AdmitDecision::Rejected);
    let still_charged = live == 2 && close(after, RUNNING_LOW + RUNNING_BUSY);
    let killed_and_counted = live == 1 && shed == 1;
    assert!(
        still_charged || killed_and_counted,
        "`low` runs on with {after} on the counter, {live} live, {shed} shed"
    );
}

/// Today's state: `big` is rejected, `low` runs on with only its executed
/// 10 ms of 100 ms (0.1) on the counter beside `busy`, and no shed is
/// counted.
#[test]
fn a_victim_of_a_rejected_arrival_reproduces_todays_counters() {
    let (after, live, verdict, shed) = shed_for_a_rejected_arrival();
    assert_eq!(verdict, AdmitDecision::Rejected);
    assert!(close(after, 0.1 + RUNNING_BUSY), "after: {after}");
    assert_eq!(live, 2);
    assert_eq!(shed, 0);
}
