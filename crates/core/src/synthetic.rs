//! Synthetic (instantaneous) utilization tracking (Sections 2 and 4).
//!
//! The synthetic utilization of stage `j` at time `t` is
//! `U_j(t) = Σ_{T_i ∈ S(t)} C_ij / D_i` over the *current* tasks
//! `S(t) = {T_i | A_i ≤ t < A_i + D_i}` — tasks that have arrived and whose
//! deadlines have not yet expired. The admission controller keeps one
//! counter per stage:
//!
//! * **increment** by `C_ij / D_i` on every stage when a task is admitted
//!   (at its arrival to the first stage);
//! * **decrement** when the task's absolute deadline passes;
//! * **reset on idle** — the paper's key pessimism-reduction tool: when a
//!   stage becomes idle, contributions of tasks that already *departed*
//!   that stage are removed immediately (they cannot affect the stage's
//!   future schedule), down to a configured reservation floor.
//!
//! Reservations (Section 5) pre-load a counter with `U_j^res` for critical
//! tasks; the floor survives idle resets.
//!
//! # Layout
//!
//! A task has one deadline, so it has **one ledger record** (its expiry
//! plus its per-stage charges) in one [`IdTable`] and one entry in **one
//! expiry heap**. Per stage stays what the paper keeps per stage: the
//! counter, its watermark, and the departed tasks the next idle reset
//! visits. Every counter sees its `f64` additions in admission order and
//! its subtractions in `(expiry, id)`, departure or shed order — exactly
//! as a tracker with a heap of its own per stage would (DESIGN.md §7).

use crate::idtable::IdTable;
use crate::task::{StageId, TaskId};
use crate::time::{Time, TimeDelta};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One stage's share of a task's ledger record.
#[derive(Debug, Clone, Copy)]
struct Charge {
    stage: usize,
    amount: f64,
    /// The task's last subtask at this stage finished: the next idle reset
    /// there removes the charge.
    departed: bool,
}

/// Everything the ledger knows about one live task.
#[derive(Debug, Clone)]
struct TaskRecord {
    /// The task's absolute deadline: every charge below expires then.
    expiry: Time,
    /// `Some(D_i)` while an [`crate::admission::Admission`] counts the
    /// task among its live, sheddable tasks; `None` for a bare
    /// [`SyntheticState::add_task`] entry and for a shed victim's
    /// retained charge.
    admitted: Option<TimeDelta>,
    /// Ascending by stage, one per stage: [`SyntheticState::add_task`]
    /// refuses anything else.
    charges: Vec<Charge>,
}

/// A `(expiry, task)` heap entry packed into one key — the expiry's
/// microseconds above the task's sequence number, as the simulator's event
/// queue packs its keys — so the heap orders by `(expiry, id)` in one
/// integer compare.
#[inline]
fn expiry_key(expiry: Time, task: TaskId) -> u128 {
    (u128::from(expiry.as_micros()) << 64) | u128::from(task.seq())
}

/// The per-stage part of the ledger: the paper's counter.
#[derive(Debug, Clone, Default)]
struct StageCounter {
    reserved: f64,
    extra: f64,
    peak: f64,
    /// Live charges at this stage.
    live: usize,
    /// Tasks flagged departed here, in departure order, validated lazily —
    /// an idle reset touches only these instead of scanning the live set.
    departed: Vec<TaskId>,
}

impl StageCounter {
    fn new(reserved: f64) -> StageCounter {
        assert!(
            reserved.is_finite() && reserved >= 0.0,
            "reservation must be a finite non-negative utilization"
        );
        StageCounter {
            reserved,
            peak: reserved,
            ..StageCounter::default()
        }
    }

    #[inline]
    fn value(&self) -> f64 {
        self.reserved + self.extra
    }

    fn release(&mut self, amount: f64) {
        self.extra -= amount;
        self.live -= 1;
    }

    fn normalize(&mut self) {
        if self.live == 0 {
            // Pin to the floor exactly: no drift survives an empty counter.
            self.extra = 0.0;
        } else if self.extra < 0.0 {
            self.extra = 0.0;
        }
    }
}

/// A read-only view of one stage of a [`SyntheticState`]; see
/// [`SyntheticState::stage`].
#[derive(Debug, Clone, Copy)]
pub struct StageView<'a> {
    counter: &'a StageCounter,
    tasks: &'a IdTable<TaskRecord>,
    stage: usize,
}

impl StageView<'_> {
    /// Current synthetic utilization: reservation floor plus the sum of
    /// live contributions.
    #[inline]
    pub fn value(&self) -> f64 {
        self.counter.value()
    }

    /// The reservation floor `U_j^res`.
    pub fn reserved(&self) -> f64 {
        self.counter.reserved
    }

    /// The highest synthetic utilization ever observed (watermark). This
    /// is the `U_j` of Theorem 1: stage delays are bounded by
    /// `f(peak) · D_max` as long as utilization never exceeded the peak.
    pub fn peak(&self) -> f64 {
        self.counter.peak
    }

    /// Number of live (unexpired, unshed) contributions.
    pub fn live_tasks(&self) -> usize {
        self.counter.live
    }

    /// Whether `task` currently contributes to this stage.
    pub fn contains(&self, task: TaskId) -> bool {
        self.contribution(task).is_some()
    }

    /// The live contribution of `task`, if any.
    pub fn contribution(&self, task: TaskId) -> Option<f64> {
        let charges = &self.tasks.get(task)?.charges;
        let here = charges.iter().find(|c| c.stage == self.stage)?;
        Some(here.amount)
    }
}

/// The synthetic-utilization state of a whole `N`-stage system: one
/// counter per stage over one shared task ledger.
///
/// # Examples
///
/// ```
/// use frap_core::synthetic::SyntheticState;
/// use frap_core::task::{StageId, TaskId};
/// use frap_core::time::Time;
///
/// let mut st = SyntheticState::new(2);
/// st.add_task(
///     TaskId::new(0),
///     &[(StageId::new(0), 0.1), (StageId::new(1), 0.2)],
///     Time::from_secs(1),
/// );
/// assert_eq!(st.utilizations(), &[0.1, 0.2]);
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticState {
    stages: Vec<StageCounter>,
    tasks: IdTable<TaskRecord>,
    /// One [`expiry_key`] per record, lazily deleted.
    expiries: BinaryHeap<Reverse<u128>>,
    /// Records with `admitted` set.
    admitted: usize,
    /// Charge vectors of retired records, reused so that a steady-state
    /// admission allocates nothing.
    spare_charges: Vec<Vec<Charge>>,
}

impl SyntheticState {
    /// A system of `stages` stages with no reservations.
    pub fn new(stages: usize) -> SyntheticState {
        SyntheticState::with_reservations(&vec![0.0; stages])
    }

    /// A system with per-stage reservation floors (Section 5).
    ///
    /// # Panics
    ///
    /// Panics if any reservation is negative or not finite.
    pub fn with_reservations(reservations: &[f64]) -> SyntheticState {
        SyntheticState {
            stages: reservations.iter().map(|&r| StageCounter::new(r)).collect(),
            tasks: IdTable::new(),
            expiries: BinaryHeap::new(),
            admitted: 0,
            spare_charges: Vec::new(),
        }
    }

    /// Number of stages.
    pub fn stages(&self) -> usize {
        self.stages.len()
    }

    /// A view of one stage: its counter, watermark and live contributions.
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range.
    pub fn stage(&self, stage: StageId) -> StageView<'_> {
        StageView {
            counter: &self.stages[stage.index()],
            tasks: &self.tasks,
            stage: stage.index(),
        }
    }

    /// Applies the decrement-at-deadline rule: removes every task whose
    /// expiry is at or before `now` from every stage it charges. Returns
    /// the number of tasks removed.
    #[inline]
    pub fn advance_to(&mut self, now: Time) -> usize {
        let mut removed = 0;
        while let Some(&Reverse(key)) = self.expiries.peek() {
            let expiry = Time::from_micros((key >> 64) as u64);
            if expiry > now {
                break;
            }
            self.expiries.pop();
            let task = TaskId::new(key as u64);
            // Lazy deletion: the record may have been shed or reset away,
            // or its id charged afresh since.
            if self.tasks.get(task).is_some_and(|r| r.expiry == expiry) {
                let mut record = self.tasks.remove(task).expect("record just observed");
                for c in record.charges.drain(..) {
                    self.stages[c.stage].release(c.amount);
                }
                self.spare_charges.push(record.charges);
                self.admitted -= usize::from(record.admitted.is_some());
                removed += 1;
            }
        }
        if removed > 0 {
            self.stages.iter_mut().for_each(StageCounter::normalize);
        }
        removed
    }

    /// Adds a task's contributions (one `(stage, C_ij/D_i)` pair per stage
    /// it uses, ascending by stage), all expiring at the task's absolute
    /// deadline. A task is charged once: its id must not be live.
    ///
    /// # Panics
    ///
    /// Panics if `task` is live, a stage index is out of range, the stages
    /// repeat or descend, or a contribution is negative/not finite.
    pub fn add_task(&mut self, task: TaskId, contributions: &[(StageId, f64)], expiry: Time) {
        self.charge(task, contributions, expiry, None);
    }

    /// [`SyntheticState::add_task`]; with `admitted = Some(D_i)` the
    /// admission controller counts the task live until `expiry` (or until
    /// it is shed) — `D_i` being the denominator of every retained-charge
    /// fraction should it be shed mid-execution.
    #[inline]
    pub(crate) fn charge(
        &mut self,
        task: TaskId,
        contributions: &[(StageId, f64)],
        expiry: Time,
        admitted: Option<TimeDelta>,
    ) {
        assert!(
            self.tasks.get(task).is_none(),
            "{task:?} is already charged"
        );
        let mut charges = self.spare_charges.pop().unwrap_or_default();
        for &(stage, amount) in contributions {
            let stage = stage.index();
            assert!(
                amount.is_finite() && amount >= 0.0,
                "contribution must be a finite non-negative utilization"
            );
            assert!(
                charges.last().is_none_or(|last| last.stage < stage),
                "contributions must name each stage once, ascending"
            );
            let counter = &mut self.stages[stage];
            charges.push(Charge {
                stage,
                amount,
                departed: false,
            });
            counter.live += 1;
            counter.extra += amount;
            if counter.value() > counter.peak {
                counter.peak = counter.value();
            }
        }
        let record = TaskRecord {
            expiry,
            admitted,
            charges,
        };
        self.tasks.insert(task, record);
        self.expiries.push(Reverse(expiry_key(expiry, task)));
        self.admitted += usize::from(admitted.is_some());
    }

    /// Marks `task` as departed from `stage` (its last subtask there has
    /// finished), making its charge eligible for removal at the stage's
    /// next idle reset. A no-op if the task does not charge the stage.
    #[inline]
    pub fn mark_departed(&mut self, stage: StageId, task: TaskId) {
        let Some(record) = self.tasks.get_mut(task) else {
            return;
        };
        let charges = &mut record.charges;
        if let Some(c) = charges.iter_mut().find(|c| c.stage == stage.index()) {
            if !c.departed {
                c.departed = true;
                self.stages[stage.index()].departed.push(task);
            }
        }
    }

    /// The idle reset (Section 4): removes the charges of all tasks that
    /// departed `stage`, as they can no longer affect its schedule. Call
    /// when the stage has no running or ready subtask. Returns the number
    /// removed. The reservation floor is untouched.
    ///
    /// `O(departed)`: only the tasks flagged since the last reset are
    /// visited (lazily revalidated — an expiry or shed may have removed
    /// them already), never the full live set.
    #[inline]
    pub fn reset_idle(&mut self, stage: StageId) -> usize {
        let j = stage.index();
        let mut removed = 0;
        let mut departed = std::mem::take(&mut self.stages[j].departed);
        for task in departed.drain(..) {
            let Some(record) = self.tasks.get_mut(task) else {
                continue;
            };
            let charges = &mut record.charges;
            if let Some(i) = charges.iter().position(|c| c.stage == j && c.departed) {
                let c = record.charges.remove(i);
                self.stages[j].release(c.amount);
                removed += 1;
                self.drop_if_spent(task);
            }
        }
        self.stages[j].departed = departed;
        self.stages[j].normalize();
        removed
    }

    /// Removes a task from every stage (load shedding). Returns the total
    /// contribution removed.
    pub fn shed_task(&mut self, task: TaskId) -> f64 {
        self.shed_task_retaining(task, &[])
    }

    /// Sheds a task from every stage while retaining the given per-stage
    /// charges (its already-executed work, as utilization `e_j / D_i`,
    /// clamped to the live amount) — marked departed, so the normal
    /// idle-reset and deadline rules reclaim them. Stages absent from
    /// `retained` reclaim their full contribution. Returns the total
    /// reclaimed.
    ///
    /// This is the accounting-sound eviction: a task killed mid-execution
    /// has already inflicted interference equal to its executed work, and
    /// that share of its charge must stay on the counter until the stage
    /// idles or the task's deadline passes — exactly as if a task with that
    /// smaller computation time had been admitted and completed. Reclaiming
    /// it immediately hands already-consumed capacity to the next arrival
    /// and voids the region guarantee.
    ///
    /// # Panics
    ///
    /// Panics if a retained charge is negative/not finite or its stage
    /// index is out of range.
    pub fn shed_task_retaining(&mut self, task: TaskId, retained: &[(StageId, f64)]) -> f64 {
        for &(stage, amount) in retained {
            assert!(stage.index() < self.stages.len(), "stage out of range");
            assert!(
                amount.is_finite() && amount >= 0.0,
                "retained charge must be a finite non-negative utilization"
            );
        }
        let Some(record) = self.tasks.get_mut(task) else {
            return 0.0;
        };
        let mut reclaimed = 0.0;
        record.charges.retain_mut(|c| {
            let keep = retained
                .iter()
                .filter(|&&(stage, _)| stage.index() == c.stage);
            let keep = keep.map(|&(_, amount)| amount).sum::<f64>().min(c.amount);
            let counter = &mut self.stages[c.stage];
            reclaimed += c.amount - keep;
            if keep <= 0.0 {
                counter.release(c.amount);
            } else {
                counter.extra -= c.amount - keep;
                c.amount = keep;
                if !c.departed {
                    c.departed = true;
                    counter.departed.push(task);
                }
            }
            counter.normalize();
            keep > 0.0
        });
        self.drop_if_spent(task);
        reclaimed
    }

    /// Removes `task`'s record once nothing refers to it any more.
    #[inline]
    fn drop_if_spent(&mut self, task: TaskId) {
        let spent = |r: &TaskRecord| r.admitted.is_none() && r.charges.is_empty();
        if self.tasks.get(task).is_some_and(spent) {
            let record = self.tasks.remove(task).expect("record just observed");
            self.spare_charges.push(record.charges);
        }
    }

    /// Tasks an admission controller currently counts live.
    pub(crate) fn admitted_tasks(&self) -> usize {
        self.admitted
    }

    /// The relative deadline of `task` if it is live and sheddable.
    #[inline]
    pub(crate) fn admitted_deadline(&self, task: TaskId) -> Option<TimeDelta> {
        self.tasks.get(task)?.admitted
    }

    /// Stops counting `task` live (it is being shed); its charges stay
    /// until shed, reset or expired. Returns whether it was counted.
    #[inline]
    pub(crate) fn retire(&mut self, task: TaskId) -> bool {
        let Some(record) = self.tasks.get_mut(task) else {
            return false;
        };
        let was_admitted = record.admitted.take().is_some();
        self.admitted -= usize::from(was_admitted);
        self.drop_if_spent(task);
        was_admitted
    }

    /// The current utilization vector `(U_1, …, U_N)`.
    pub fn utilizations(&self) -> Vec<f64> {
        self.values().collect()
    }

    /// Every stage's counter, in stage order.
    pub(crate) fn values(&self) -> impl ExactSizeIterator<Item = f64> + '_ {
        self.stages.iter().map(StageCounter::value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one stage of a [`single`] ledger.
    const ONLY: StageId = StageId::new(0);

    fn t(task: u64) -> TaskId {
        TaskId::new(task)
    }

    fn at(secs: u64) -> Time {
        Time::from_secs(secs)
    }

    /// A one-stage ledger with a reservation floor.
    fn single(reserved: f64) -> SyntheticState {
        SyntheticState::with_reservations(&[reserved])
    }

    fn add(st: &mut SyntheticState, task: u64, amount: f64, expiry: Time) {
        st.add_task(t(task), &[(ONLY, amount)], expiry);
    }

    fn value(st: &SyntheticState) -> f64 {
        st.stage(ONLY).value()
    }

    #[test]
    fn add_and_expire() {
        let mut st = single(0.0);
        add(&mut st, 1, 0.2, at(10));
        add(&mut st, 2, 0.3, at(20));
        assert!((value(&st) - 0.5).abs() < 1e-12);
        assert_eq!(st.stage(ONLY).live_tasks(), 2);

        assert_eq!(st.advance_to(at(9)), 0);
        assert_eq!(st.advance_to(at(10)), 1); // deadline inclusive
        assert!((value(&st) - 0.3).abs() < 1e-12);
        assert_eq!(st.advance_to(at(30)), 1);
        assert_eq!(value(&st), 0.0);
        assert_eq!(st.stage(ONLY).live_tasks(), 0);
    }

    #[test]
    fn reservation_is_a_floor() {
        let mut st = single(0.4);
        assert_eq!(value(&st), 0.4);
        add(&mut st, 1, 0.1, at(5));
        assert!((value(&st) - 0.5).abs() < 1e-12);
        st.advance_to(at(5));
        assert_eq!(value(&st), 0.4);
        st.mark_departed(ONLY, t(2)); // unknown task: no-op
        st.reset_idle(ONLY);
        assert_eq!(value(&st), 0.4);
    }

    #[test]
    #[should_panic(expected = "reservation")]
    fn negative_reservation_panics() {
        let _ = single(-0.1);
    }

    #[test]
    #[should_panic(expected = "contribution")]
    fn negative_contribution_panics() {
        let mut st = single(0.0);
        add(&mut st, 1, -0.1, at(1));
    }

    #[test]
    #[should_panic(expected = "already charged")]
    fn charging_a_live_id_panics() {
        let mut st = single(0.0);
        add(&mut st, 1, 0.1, at(10));
        add(&mut st, 1, 0.2, at(20));
    }

    #[test]
    #[should_panic(expected = "each stage once, ascending")]
    fn repeated_stage_panics() {
        let mut st = SyntheticState::new(2);
        st.add_task(t(1), &[(ONLY, 0.1), (ONLY, 0.2)], at(10));
    }

    #[test]
    #[should_panic(expected = "each stage once, ascending")]
    fn descending_stages_panic() {
        let mut st = SyntheticState::new(2);
        st.add_task(t(1), &[(StageId::new(1), 0.1), (ONLY, 0.2)], at(10));
    }

    #[test]
    fn a_spent_id_may_be_charged_afresh() {
        let mut st = single(0.0);
        add(&mut st, 1, 0.2, at(10));
        st.shed_task(t(1));
        add(&mut st, 1, 0.3, at(20));
        // The first charge's heap entry is stale and must not remove the
        // second.
        assert_eq!(st.advance_to(at(10)), 0);
        assert_eq!(st.stage(ONLY).contribution(t(1)), Some(0.3));
        assert_eq!(st.advance_to(at(20)), 1);
        assert_eq!(value(&st), 0.0);
    }

    #[test]
    fn idle_reset_removes_only_departed() {
        let mut st = single(0.0);
        add(&mut st, 1, 0.2, at(100));
        add(&mut st, 2, 0.3, at(100));
        st.mark_departed(ONLY, t(1));
        assert_eq!(st.reset_idle(ONLY), 1);
        assert!((value(&st) - 0.3).abs() < 1e-12);
        assert!(!st.stage(ONLY).contains(t(1)));
        assert!(st.stage(ONLY).contains(t(2)));
    }

    #[test]
    fn shed_removes_any_live_task() {
        let mut st = single(0.0);
        add(&mut st, 1, 0.2, at(100));
        assert_eq!(st.shed_task(t(1)), 0.2);
        assert_eq!(st.shed_task(t(1)), 0.0);
        assert_eq!(value(&st), 0.0);
    }

    #[test]
    fn shed_retaining_keeps_executed_share() {
        let mut st = single(0.0);
        add(&mut st, 1, 0.4, at(100));
        let reclaimed = st.shed_task_retaining(t(1), &[(ONLY, 0.05)]);
        assert!((reclaimed - 0.35).abs() < 1e-12);
        assert!((value(&st) - 0.05).abs() < 1e-12);
        // The retained share is departed work: gone at the next idle reset.
        assert_eq!(st.reset_idle(ONLY), 1);
        assert_eq!(value(&st), 0.0);
    }

    #[test]
    fn shed_retaining_decrements_at_deadline() {
        let mut st = single(0.0);
        add(&mut st, 1, 0.4, at(10));
        st.shed_task_retaining(t(1), &[(ONLY, 0.1)]);
        assert_eq!(st.advance_to(at(10)), 1);
        assert_eq!(value(&st), 0.0);
    }

    #[test]
    fn shed_retaining_clamps_and_degenerates_to_shed() {
        let mut st = single(0.0);
        add(&mut st, 1, 0.2, at(100));
        // Retained above the live amount: nothing reclaimed.
        assert_eq!(st.shed_task_retaining(t(1), &[(ONLY, 0.5)]), 0.0);
        assert!((value(&st) - 0.2).abs() < 1e-12);
        // Zero retained on a fresh entry: identical to a plain shed.
        add(&mut st, 2, 0.3, at(100));
        assert_eq!(st.shed_task_retaining(t(2), &[(ONLY, 0.0)]), 0.3);
        assert!(!st.stage(ONLY).contains(t(2)));
        assert_eq!(st.shed_task_retaining(t(9), &[(ONLY, 0.1)]), 0.0);
    }

    #[test]
    fn system_shed_retaining_per_stage() {
        let mut st = SyntheticState::new(2);
        st.add_task(
            t(1),
            &[(StageId::new(0), 0.1), (StageId::new(1), 0.2)],
            at(10),
        );
        // Stage 0 keeps half its charge; stage 1 (absent from the slice)
        // reclaims everything.
        let reclaimed = st.shed_task_retaining(t(1), &[(StageId::new(0), 0.05)]);
        assert!((reclaimed - 0.25).abs() < 1e-12);
        assert_eq!(st.utilizations(), &[0.05, 0.0]);
    }

    #[test]
    fn shed_then_expiry_is_harmless() {
        // Lazy heap deletion must not double-remove.
        let mut st = single(0.0);
        add(&mut st, 1, 0.2, at(10));
        add(&mut st, 2, 0.3, at(10));
        st.shed_task(t(1));
        assert_eq!(st.advance_to(at(10)), 1);
        assert_eq!(value(&st), 0.0);
    }

    #[test]
    fn contribution_lookup() {
        let mut st = single(0.0);
        add(&mut st, 1, 0.25, at(10));
        assert_eq!(st.stage(ONLY).contribution(t(1)), Some(0.25));
        assert_eq!(st.stage(ONLY).contribution(t(9)), None);
    }

    #[test]
    fn empty_tracker_has_exact_floor() {
        let mut st = single(0.0);
        for i in 0..100 {
            add(&mut st, i, 0.1 / 3.0, at(1));
        }
        st.advance_to(at(1));
        // Bit-exact zero, not accumulated float noise.
        assert_eq!(value(&st), 0.0);
    }

    #[test]
    fn system_add_and_query() {
        let mut st = SyntheticState::new(3);
        assert_eq!(st.stages(), 3);
        st.add_task(
            t(1),
            &[(StageId::new(0), 0.1), (StageId::new(2), 0.3)],
            at(10),
        );
        assert_eq!(st.utilizations(), &[0.1, 0.0, 0.3]);
        assert!(st.stage(StageId::new(0)).contains(t(1)));
        assert!(!st.stage(StageId::new(1)).contains(t(1)));
    }

    #[test]
    fn system_tentative_vector_does_not_mutate() {
        // The vector a reader gets is its own copy: overlaying a tentative
        // arrival on it leaves the counters as they were.
        let mut st = SyntheticState::new(2);
        st.add_task(t(1), &[(StageId::new(0), 0.1)], at(10));
        let mut v = st.utilizations();
        v[0] += 0.2;
        v[1] += 0.3;
        assert_eq!(v, vec![0.30000000000000004, 0.3]);
        assert_eq!(st.utilizations(), &[0.1, 0.0]);
    }

    #[test]
    fn system_shed_task_totals() {
        let mut st = SyntheticState::new(2);
        st.add_task(
            t(1),
            &[(StageId::new(0), 0.1), (StageId::new(1), 0.2)],
            at(10),
        );
        let removed = st.shed_task(t(1));
        assert!((removed - 0.3).abs() < 1e-12);
        assert_eq!(st.utilizations(), &[0.0, 0.0]);
    }

    #[test]
    fn system_with_reservations() {
        let mut st = SyntheticState::with_reservations(&[0.4, 0.25, 0.1]);
        assert_eq!(st.utilizations(), &[0.4, 0.25, 0.1]);
        st.advance_to(at(1_000));
        assert_eq!(st.utilizations(), &[0.4, 0.25, 0.1]);
    }

    #[test]
    fn system_advance_expires_everywhere() {
        let mut st = SyntheticState::new(2);
        st.add_task(
            t(1),
            &[(StageId::new(0), 0.1), (StageId::new(1), 0.2)],
            at(5),
        );
        st.advance_to(at(5));
        assert_eq!(st.utilizations(), &[0.0, 0.0]);
    }
}
