//! Utilization-based admission control (Sections 4 and 5).
//!
//! The admission controller sits at the first stage. On each arrival it
//! tentatively adds the task's contributions `C_ij / D_i` to every stage's
//! synthetic-utilization counter and admits the task only if the system
//! stays inside the feasible region — an `O(N)` test in the number of
//! stages, independent of how many tasks are live. Counters are
//! decremented at deadlines and reset (for departed tasks) when a stage
//! idles.
//!
//! Variants implemented here:
//!
//! * [`Admission`] with [`ExactContributions`] — the paper's exact
//!   controller (knows each task's computation times).
//! * [`Admission`] with [`MeanContributions`] — Section 4.4's *approximate*
//!   controller that only knows mean per-stage computation times; admitted
//!   tasks may then (rarely) miss deadlines, which Figure 7 quantifies.
//! * Reservations — pass reservation floors to [`Admission::with_reservations`]
//!   (Section 5: capacity set aside for critical tasks).
//! * [`Admission::try_admit_or_shed`] — Section 5's overload architecture:
//!   if an important arrival falls outside the region, shed less important
//!   admitted work (reverse order of semantic importance) until it fits.
//! * Baselines: [`PerStageBound`] + [`SplitDeadlineContributions`] — the
//!   intermediate-deadline strawman the introduction argues against — and
//!   [`AlwaysAdmit`] (no admission control).

use crate::demand::DemandView;
use crate::fixed::fp_from_utilization;
use crate::graph::TaskSpec;
use crate::region::RegionTest;
use crate::synthetic::{overlay_contributions, SyntheticState};
use crate::task::{Importance, StageId, TaskId};
use crate::time::{Time, TimeDelta};
use std::collections::{BTreeMap, VecDeque};

/// The Section 4 decision kernel: would charging `contributions` on top of
/// the `current` utilization vector keep the system inside `region`?
///
/// `scratch` receives the tentative vector (current plus overlay) and is
/// reused across calls to avoid allocation. This is the one shared
/// implementation of the admission test, used by both the single-threaded
/// [`Admission`] controller and the concurrent `frap-service` admission
/// service — the two cannot drift.
pub fn tentative_feasible<R: RegionTest + ?Sized>(
    region: &R,
    current: &[f64],
    contributions: &[(StageId, f64)],
    scratch: &mut Vec<f64>,
) -> bool {
    scratch.clear();
    scratch.extend_from_slice(current);
    overlay_contributions(scratch, contributions);
    region.feasible(scratch)
}

/// Maps an arriving task to the per-stage contributions the admission
/// controller will charge for it.
///
/// The exact controller charges true `C_ij / D_i`; the approximate one
/// charges `C̄_j / D_i` from operator-supplied means (Section 4.4). A
/// model is one function of the task's [`DemandView`] and a stage; the
/// float and fixed-point vectors below are both walks over it, so a
/// task charges the same whether it arrived as a [`TaskSpec`] or as
/// demands read off a wire.
pub trait ContributionModel: std::fmt::Debug {
    /// The contribution charged on `stage`, of which `task` demands
    /// `demand`.
    fn contribution(&self, task: &DemandView<'_>, stage: StageId, demand: TimeDelta) -> f64;

    /// Appends `(stage, contribution)` pairs for `spec` to `out`.
    ///
    /// `out` is cleared by the caller; one entry per distinct stage,
    /// ascending.
    fn contributions_into(&self, spec: &TaskSpec, out: &mut Vec<(StageId, f64)>) {
        let task = DemandView::from(spec);
        task.map_into(out, |stage, c| (stage, self.contribution(&task, stage, c)));
    }

    /// Appends `task`'s charges to `out` in fixed-point units: each
    /// contribution through [`fp_from_utilization`] (rounded up) as it is
    /// computed — what [`crate::fixed::fp_contributions_into`] makes of
    /// [`ContributionModel::contributions_into`], in one pass.
    fn units_into(&self, task: &DemandView<'_>, out: &mut Vec<(StageId, u64)>) {
        let units = |stage, c| fp_from_utilization(self.contribution(task, stage, c));
        task.map_into(out, |stage, c| (stage, units(stage, c)));
    }
}

impl<T: ContributionModel + ?Sized> ContributionModel for Box<T> {
    fn contribution(&self, task: &DemandView<'_>, stage: StageId, demand: TimeDelta) -> f64 {
        (**self).contribution(task, stage, demand)
    }

    fn contributions_into(&self, spec: &TaskSpec, out: &mut Vec<(StageId, f64)>) {
        (**self).contributions_into(spec, out)
    }

    fn units_into(&self, task: &DemandView<'_>, out: &mut Vec<(StageId, u64)>) {
        (**self).units_into(task, out)
    }
}

/// Charges the true synthetic-utilization contributions `C_ij / D_i`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExactContributions;

impl ContributionModel for ExactContributions {
    fn contribution(&self, task: &DemandView<'_>, _stage: StageId, demand: TimeDelta) -> f64 {
        demand.ratio(task.deadline)
    }
}

/// Charges `C̄_j / D_i` using operator-estimated mean computation times per
/// stage, for workloads whose exact computation times are unknown at
/// arrival (Section 4.4).
///
/// # Examples
///
/// ```
/// use frap_core::admission::{ContributionModel, MeanContributions};
/// use frap_core::graph::TaskSpec;
/// use frap_core::time::TimeDelta;
///
/// let ms = TimeDelta::from_millis;
/// let model = MeanContributions::new(vec![ms(10), ms(10)]);
/// // The task's true demand (3 ms, 25 ms) is unknown to the controller…
/// let spec = TaskSpec::pipeline(ms(1000), &[ms(3), ms(25)])?;
/// let mut out = Vec::new();
/// model.contributions_into(&spec, &mut out);
/// // …so both stages are charged the mean: 10/1000.
/// assert!((out[0].1 - 0.01).abs() < 1e-12);
/// assert!((out[1].1 - 0.01).abs() < 1e-12);
/// # Ok::<(), frap_core::error::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeanContributions {
    means: Vec<TimeDelta>,
}

impl MeanContributions {
    /// Creates the model from mean computation times, one per stage.
    pub fn new(means: Vec<TimeDelta>) -> MeanContributions {
        MeanContributions { means }
    }

    /// The configured mean computation time of `stage` (zero if unknown).
    pub fn mean(&self, stage: StageId) -> TimeDelta {
        self.means
            .get(stage.index())
            .copied()
            .unwrap_or(TimeDelta::ZERO)
    }
}

impl ContributionModel for MeanContributions {
    fn contribution(&self, task: &DemandView<'_>, stage: StageId, _demand: TimeDelta) -> f64 {
        self.mean(stage).ratio(task.deadline)
    }
}

/// Contribution model of the intermediate-deadline baseline: the end-to-end
/// deadline is split evenly into per-stage deadlines `D_i / n_i` (where
/// `n_i` is the number of stages task `i` uses) and each stage is charged
/// `C_ij / (D_i / n_i)`.
///
/// Combined with [`PerStageBound`], this reproduces the classical
/// per-stage analysis the paper's introduction contrasts against: it
/// requires intermediate deadlines and is substantially more pessimistic
/// than the end-to-end region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SplitDeadlineContributions;

impl ContributionModel for SplitDeadlineContributions {
    fn contribution(&self, task: &DemandView<'_>, _stage: StageId, demand: TimeDelta) -> f64 {
        demand.ratio(task.deadline) * task.stages().max(1) as f64
    }
}

/// Per-stage scalar bound: feasible iff `U_j ≤ bound` at every stage.
///
/// With `bound = `[`crate::delay::UNIPROCESSOR_BOUND`] this is the
/// uniprocessor aperiodic test applied independently per stage — the
/// baseline admission region for [`SplitDeadlineContributions`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerStageBound {
    stages: usize,
    bound: f64,
}

impl PerStageBound {
    /// A per-stage bound test for `stages` stages.
    pub fn new(stages: usize, bound: f64) -> PerStageBound {
        PerStageBound { stages, bound }
    }

    /// The scalar per-stage bound.
    pub fn bound(&self) -> f64 {
        self.bound
    }
}

impl RegionTest for PerStageBound {
    fn stages(&self) -> usize {
        self.stages
    }

    fn feasible(&self, utilizations: &[f64]) -> bool {
        utilizations.iter().all(|&u| u <= self.bound)
    }
}

/// The no-admission-control baseline: everything is admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlwaysAdmit {
    stages: usize,
}

impl AlwaysAdmit {
    /// An always-true test for `stages` stages.
    pub fn new(stages: usize) -> AlwaysAdmit {
        AlwaysAdmit { stages }
    }
}

impl RegionTest for AlwaysAdmit {
    fn stages(&self) -> usize {
        self.stages
    }

    fn feasible(&self, _utilizations: &[f64]) -> bool {
        true
    }
}

/// Counters describing an admission controller's decisions so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Tasks admitted.
    pub admitted: u64,
    /// Tasks rejected.
    pub rejected: u64,
    /// Admitted tasks later shed at overload.
    pub shed: u64,
}

impl AdmissionStats {
    /// Fraction of decisions that admitted the task (1 if no decisions yet).
    pub fn acceptance_ratio(&self) -> f64 {
        let total = self.admitted + self.rejected;
        if total == 0 {
            1.0
        } else {
            self.admitted as f64 / total as f64
        }
    }
}

/// The outcome of an admission attempt that may shed lower-importance work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitOutcome {
    /// Admitted without disturbing existing work.
    Admitted(TaskId),
    /// Admitted after shedding the listed (less important) tasks.
    AdmittedAfterShedding {
        /// The new task's identifier.
        task: TaskId,
        /// Tasks evicted, least important first.
        shed: Vec<TaskId>,
    },
    /// Rejected: infeasible even after shedding everything less important.
    Rejected,
}

impl AdmitOutcome {
    /// The admitted task's id, if the task was admitted.
    pub fn task(&self) -> Option<TaskId> {
        match self {
            AdmitOutcome::Admitted(t) => Some(*t),
            AdmitOutcome::AdmittedAfterShedding { task, .. } => Some(*task),
            AdmitOutcome::Rejected => None,
        }
    }
}

/// The feasible-region admission controller.
///
/// Generic over the [`RegionTest`] (which region) and the
/// [`ContributionModel`] (what each task is charged). Maintains the
/// per-stage synthetic-utilization counters — whose task ledger also says
/// which admitted tasks are still live — and the order in which live tasks
/// would be shed.
///
/// # Examples
///
/// ```
/// use frap_core::admission::{Admission, ExactContributions};
/// use frap_core::graph::TaskSpec;
/// use frap_core::region::FeasibleRegion;
/// use frap_core::time::{Time, TimeDelta};
///
/// let ms = TimeDelta::from_millis;
/// let mut ac = Admission::new(FeasibleRegion::deadline_monotonic(2), ExactContributions);
/// let task = TaskSpec::pipeline(ms(100), &[ms(10), ms(10)])?;
/// // C/D = 0.1 per stage: comfortably inside the two-stage region.
/// assert!(ac.try_admit(Time::ZERO, &task).is_some());
/// # Ok::<(), frap_core::error::GraphError>(())
/// ```
#[derive(Debug)]
pub struct Admission<R, M> {
    region: R,
    model: M,
    state: SyntheticState,
    /// Shed order: importance levels ascending (a handful, so the map is
    /// one node), and within a level the admitted ids in issue order —
    /// ascending, so a push at the back keeps the level sorted. Entries
    /// are validated lazily against the ledger (an expired or shed task is
    /// skipped), and each admit retires the dead entries at the front of
    /// its level, so a level never holds more than the ledger's id window.
    shed_order: BTreeMap<Importance, VecDeque<TaskId>>,
    next_id: u64,
    stats: AdmissionStats,
    scratch: Vec<(StageId, f64)>,
    vec_scratch: Vec<f64>,
}

impl<R: RegionTest, M: ContributionModel> Admission<R, M> {
    /// A controller with no reservations.
    pub fn new(region: R, model: M) -> Admission<R, M> {
        let stages = region.stages();
        Admission {
            region,
            model,
            state: SyntheticState::new(stages),
            shed_order: BTreeMap::new(),
            next_id: 0,
            stats: AdmissionStats::default(),
            scratch: Vec::new(),
            vec_scratch: Vec::new(),
        }
    }

    /// A controller whose counters are pre-loaded with per-stage
    /// reservations for critical tasks (Section 5). Idle resets restore
    /// counters to these floors, never below.
    ///
    /// # Panics
    ///
    /// Panics if `reservations.len()` differs from the region's stage count.
    pub fn with_reservations(region: R, model: M, reservations: &[f64]) -> Admission<R, M> {
        assert_eq!(
            reservations.len(),
            region.stages(),
            "one reservation per stage"
        );
        let mut ac = Admission::new(region, model);
        ac.state = SyntheticState::with_reservations(reservations);
        ac
    }

    /// The region this controller enforces.
    pub fn region(&self) -> &R {
        &self.region
    }

    /// The synthetic-utilization state (for inspection and metrics).
    pub fn state(&self) -> &SyntheticState {
        &self.state
    }

    /// Mutable synthetic-utilization state — used by the simulator to
    /// report departures and idle periods.
    pub fn state_mut(&mut self) -> &mut SyntheticState {
        &mut self.state
    }

    /// Decision counters.
    pub fn stats(&self) -> AdmissionStats {
        self.stats
    }

    /// Number of admitted tasks whose deadlines have not yet expired.
    pub fn live_tasks(&self) -> usize {
        self.state.admitted_tasks()
    }

    /// Applies the decrement-at-deadline rule up to `now` on every stage;
    /// expired tasks stop being live (and sheddable) with it.
    pub fn advance_to(&mut self, now: Time) {
        self.state.advance_to(now);
    }

    /// Attempts to admit `spec` arriving at `now`. Returns the new task id
    /// on admission, or `None` (and counts a rejection) if admitting it
    /// would leave the feasible region.
    pub fn try_admit(&mut self, now: Time, spec: &TaskSpec) -> Option<TaskId> {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        self.model.contributions_into(spec, &mut scratch);
        let result = self.try_admit_with(now, spec, &scratch);
        self.scratch = scratch;
        result
    }

    /// [`Admission::try_admit`] with the contribution vector already in
    /// hand. `contributions` must be what [`Admission::contributions_for`]
    /// returns for `spec`; callers that retry the same spec repeatedly (the
    /// simulator's admission wait queue) compute it once at enqueue instead
    /// of once per attempt.
    pub fn try_admit_with(
        &mut self,
        now: Time,
        spec: &TaskSpec,
        contributions: &[(StageId, f64)],
    ) -> Option<TaskId> {
        self.advance_to(now);
        if self.admit_feasible(contributions) {
            Some(self.commit(now, spec, contributions))
        } else {
            self.stats.rejected += 1;
            None
        }
    }

    /// The per-stage contributions the model charges for `spec`, written
    /// into `out` (cleared first). This is exactly the vector
    /// [`Admission::try_admit`] would compute internally.
    pub fn contributions_for(&self, spec: &TaskSpec, out: &mut Vec<(StageId, f64)>) {
        out.clear();
        self.model.contributions_into(spec, out);
    }

    /// Attempts to admit `spec`; when infeasible, sheds live tasks that are
    /// strictly less important than `spec` (least important first) until
    /// the arrival fits or no candidates remain (Section 5's overload
    /// architecture).
    ///
    /// Victims' charges are reclaimed in full — correct only when shed
    /// tasks have not started executing (e.g. pure admission accounting, or
    /// eviction from a wait queue). Execution environments that kill tasks
    /// mid-flight must use [`Admission::try_admit_or_shed_with`] and report
    /// each victim's executed work, or the region guarantee is void.
    pub fn try_admit_or_shed(&mut self, now: Time, spec: &TaskSpec) -> AdmitOutcome {
        self.try_admit_or_shed_with(now, spec, |_, _| {})
    }

    /// [`Admission::try_admit_or_shed`] with an *executed-work oracle*: for
    /// each prospective victim, `executed` appends `(stage, e_j)` pairs
    /// giving the execution time the victim has already received on each
    /// stage. The controller then keeps `e_j / D_i` of the victim's charge
    /// on those counters — marked departed, so the usual idle-reset and
    /// decrement-at-deadline rules reclaim it — and only the *unexecuted*
    /// remainder is freed for the arrival.
    ///
    /// This is what makes mid-execution shedding sound: interference a
    /// victim already inflicted cannot be un-inflicted, so its charge must
    /// persist exactly as if a task with computation `e_j` had been
    /// admitted and completed. An oracle that reports nothing degenerates
    /// to full immediate reclaim ([`Admission::try_admit_or_shed`]).
    pub fn try_admit_or_shed_with(
        &mut self,
        now: Time,
        spec: &TaskSpec,
        mut executed: impl FnMut(TaskId, &mut Vec<(StageId, TimeDelta)>),
    ) -> AdmitOutcome {
        self.advance_to(now);
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        self.model.contributions_into(spec, &mut scratch);

        if self.admit_feasible(&scratch) {
            let id = self.commit(now, spec, &scratch);
            self.scratch = scratch;
            return AdmitOutcome::Admitted(id);
        }

        // Shed in reverse order of semantic importance, but never work at
        // or above the arrival's own importance.
        let mut shed = Vec::new();
        let mut fits = false;
        let mut exec_buf: Vec<(StageId, TimeDelta)> = Vec::new();
        let mut retain_buf: Vec<(StageId, f64)> = Vec::new();
        while let Some((victim, deadline)) = self.next_victim(spec.importance) {
            exec_buf.clear();
            executed(victim, &mut exec_buf);
            retain_buf.clear();
            retain_buf.extend(
                exec_buf
                    .iter()
                    .map(|&(stage, e)| (stage, e.ratio(deadline))),
            );
            self.state.retire(victim);
            self.state.shed_task_retaining(victim, &retain_buf);
            self.stats.shed += 1;
            shed.push(victim);
            if self.admit_feasible(&scratch) {
                fits = true;
                break;
            }
        }

        let outcome = if fits {
            let id = self.commit(now, spec, &scratch);
            AdmitOutcome::AdmittedAfterShedding { task: id, shed }
        } else {
            // Shedding was insufficient: the shed tasks stay shed (they
            // were the least important and the system is overloaded), and
            // the arrival is rejected.
            self.stats.rejected += 1;
            AdmitOutcome::Rejected
        };
        self.scratch = scratch;
        outcome
    }

    /// Admits a *pre-certified* task without charging synthetic
    /// utilization: its capacity is already covered by the per-stage
    /// reservations established at certification time (Section 5). The
    /// task gets an identity and is never a shedding candidate.
    pub fn admit_reserved(&mut self, _now: Time, _spec: &TaskSpec) -> TaskId {
        let id = TaskId::new(self.next_id);
        self.next_id += 1;
        self.stats.admitted += 1;
        id
    }

    /// Reports that `task`'s last subtask on `stage` finished, making its
    /// contribution eligible for the next idle reset there.
    pub fn on_stage_departure(&mut self, stage: StageId, task: TaskId) {
        self.state.mark_departed(stage, task);
    }

    /// Reports that `stage` has gone idle: departed tasks' contributions
    /// are removed from its counter (Section 4's reset rule).
    pub fn on_stage_idle(&mut self, now: Time, stage: StageId) {
        self.state.advance_to(now);
        self.state.reset_idle(stage);
    }

    /// Forcibly evicts an admitted task (external shedding), removing its
    /// contributions everywhere.
    pub fn shed(&mut self, task: TaskId) {
        if self.state.retire(task) {
            self.state.shed_task(task);
            self.stats.shed += 1;
        }
    }

    /// The live task to shed next for an arrival of importance `below` —
    /// lowest importance first, then lowest id, never at or above `below`
    /// — with its relative deadline.
    fn next_victim(&mut self, below: Importance) -> Option<(TaskId, TimeDelta)> {
        for (importance, level) in &mut self.shed_order {
            if *importance >= below {
                break;
            }
            while let Some(&task) = level.front() {
                if let Some(deadline) = self.state.admitted_deadline(task) {
                    return Some((task, deadline));
                }
                level.pop_front();
            }
        }
        None
    }

    /// Runs the shared decision kernel against the current counters.
    fn admit_feasible(&mut self, contributions: &[(StageId, f64)]) -> bool {
        let mut vec_scratch = std::mem::take(&mut self.vec_scratch);
        let ok = tentative_feasible(
            &self.region,
            self.state.utilizations(),
            contributions,
            &mut vec_scratch,
        );
        self.vec_scratch = vec_scratch;
        ok
    }

    fn commit(&mut self, now: Time, spec: &TaskSpec, contributions: &[(StageId, f64)]) -> TaskId {
        let id = TaskId::new(self.next_id);
        self.next_id += 1;
        let expiry = now.saturating_add(spec.deadline);
        self.state
            .charge(id, contributions, expiry, Some(spec.deadline));
        let level = self.shed_order.entry(spec.importance).or_default();
        while let Some(&front) = level.front() {
            if self.state.admitted_deadline(front).is_some() {
                break;
            }
            level.pop_front();
        }
        level.push_back(id);
        self.stats.admitted += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::UNIPROCESSOR_BOUND;
    use crate::region::FeasibleRegion;

    fn ms(v: u64) -> TimeDelta {
        TimeDelta::from_millis(v)
    }

    fn pipeline_task(deadline_ms: u64, per_stage_ms: &[u64]) -> TaskSpec {
        let comps: Vec<TimeDelta> = per_stage_ms.iter().map(|&c| ms(c)).collect();
        TaskSpec::pipeline(ms(deadline_ms), &comps).unwrap()
    }

    fn exact_two_stage() -> Admission<FeasibleRegion, ExactContributions> {
        Admission::new(FeasibleRegion::deadline_monotonic(2), ExactContributions)
    }

    #[test]
    fn admits_until_region_is_full() {
        let mut ac = exact_two_stage();
        // Each task contributes 0.05 per stage. The symmetric two-stage
        // bound is f⁻¹(1/2) ≈ 0.382, so about 7 admissions fit.
        let spec = pipeline_task(200, &[10, 10]);
        let mut admitted = 0;
        for _ in 0..20 {
            if ac.try_admit(Time::ZERO, &spec).is_some() {
                admitted += 1;
            }
        }
        assert!((6..=8).contains(&admitted), "admitted={admitted}");
        assert_eq!(ac.stats().admitted, admitted);
        assert_eq!(ac.stats().rejected, 20 - admitted);
    }

    #[test]
    fn counters_decrement_at_deadline() {
        let mut ac = exact_two_stage();
        let spec = pipeline_task(100, &[30, 30]);
        assert!(ac.try_admit(Time::ZERO, &spec).is_some());
        // 0.3 per stage: a second identical arrival fails (f(0.6)*2 > 1).
        assert!(ac.try_admit(Time::from_millis(1), &spec).is_none());
        // After the first task's deadline, capacity returns.
        assert!(ac.try_admit(Time::from_millis(100), &spec).is_some());
        assert_eq!(ac.live_tasks(), 1);
    }

    #[test]
    fn idle_reset_frees_capacity_early() {
        let mut ac = exact_two_stage();
        let spec = pipeline_task(100, &[30, 30]);
        let id = ac.try_admit(Time::ZERO, &spec).unwrap();
        assert!(ac.try_admit(Time::from_millis(1), &spec).is_none());
        // Task departs both stages at t = 2 ms and the stages go idle: the
        // paper's reset rule makes room well before the deadline.
        ac.on_stage_departure(StageId::new(0), id);
        ac.on_stage_departure(StageId::new(1), id);
        ac.on_stage_idle(Time::from_millis(2), StageId::new(0));
        ac.on_stage_idle(Time::from_millis(2), StageId::new(1));
        assert!(ac.try_admit(Time::from_millis(2), &spec).is_some());
    }

    #[test]
    fn reservations_preload_counters() {
        let region = FeasibleRegion::deadline_monotonic(3);
        let mut ac = Admission::with_reservations(region, ExactContributions, &[0.4, 0.25, 0.1]);
        // The TSCE reservations leave only 0.07 of budget (0.93 used).
        let small = pipeline_task(1000, &[10, 2, 2]);
        assert!(ac.try_admit(Time::ZERO, &small).is_some());
        let big = pipeline_task(1000, &[200, 2, 2]);
        assert!(ac.try_admit(Time::ZERO, &big).is_none());
    }

    #[test]
    #[should_panic(expected = "one reservation per stage")]
    fn reservation_arity_must_match() {
        let _ = Admission::with_reservations(
            FeasibleRegion::deadline_monotonic(2),
            ExactContributions,
            &[0.1],
        );
    }

    #[test]
    fn approximate_model_charges_means() {
        let region = FeasibleRegion::deadline_monotonic(2);
        let model = MeanContributions::new(vec![ms(10), ms(10)]);
        let mut ac = Admission::new(region, model);
        // True demand is huge, but the controller only sees the mean.
        let heavy = pipeline_task(100, &[90, 90]);
        assert!(ac.try_admit(Time::ZERO, &heavy).is_some());
    }

    #[test]
    fn split_deadline_baseline_is_more_pessimistic() {
        // End-to-end controller: two-stage region.
        let mut e2e = exact_two_stage();
        // Baseline: per-stage uniprocessor bound on C/(D/2).
        let mut base = Admission::new(
            PerStageBound::new(2, UNIPROCESSOR_BOUND),
            SplitDeadlineContributions,
        );
        let spec = pipeline_task(200, &[10, 10]);
        let (mut e2e_n, mut base_n) = (0, 0);
        for _ in 0..40 {
            if e2e.try_admit(Time::ZERO, &spec).is_some() {
                e2e_n += 1;
            }
            if base.try_admit(Time::ZERO, &spec).is_some() {
                base_n += 1;
            }
        }
        // Baseline charges 0.1/stage against 0.586 → ~5 tasks; end-to-end
        // charges 0.05/stage against the sum-form region → ~7 tasks.
        assert!(
            e2e_n > base_n,
            "end-to-end ({e2e_n}) should beat split-deadline ({base_n})"
        );
    }

    #[test]
    fn always_admit_never_rejects() {
        let mut ac = Admission::new(AlwaysAdmit::new(2), ExactContributions);
        let spec = pipeline_task(10, &[100, 100]);
        for _ in 0..100 {
            assert!(ac.try_admit(Time::ZERO, &spec).is_some());
        }
        assert_eq!(ac.stats().rejected, 0);
    }

    #[test]
    fn shedding_evicts_least_important_first() {
        let mut ac = exact_two_stage();
        let low = pipeline_task(100, &[15, 15]).with_importance(Importance::new(1));
        let mid = pipeline_task(100, &[15, 15]).with_importance(Importance::new(2));
        let id_low = ac.try_admit(Time::ZERO, &low).unwrap();
        let _id_mid = ac.try_admit(Time::ZERO, &mid).unwrap();
        // 0.3/stage live; a critical 0.2/stage arrival is infeasible
        // (f(0.5)·2 = 1.5) until someone is shed.
        let critical = pipeline_task(100, &[20, 20]).with_importance(Importance::CRITICAL);
        match ac.try_admit_or_shed(Time::from_millis(1), &critical) {
            AdmitOutcome::AdmittedAfterShedding { shed, .. } => {
                assert_eq!(shed, vec![id_low], "least important shed first");
            }
            other => panic!("expected shedding admission, got {other:?}"),
        }
        assert_eq!(ac.stats().shed, 1);
    }

    #[test]
    fn shedding_with_oracle_retains_executed_work() {
        let mut ac = exact_two_stage();
        let low = pipeline_task(100, &[15, 15]).with_importance(Importance::new(1));
        let mid = pipeline_task(100, &[15, 15]).with_importance(Importance::new(2));
        let id_low = ac.try_admit(Time::ZERO, &low).unwrap();
        let id_mid = ac.try_admit(Time::ZERO, &mid).unwrap();
        let critical = pipeline_task(100, &[20, 20]).with_importance(Importance::CRITICAL);
        // The low victim already ran 10 ms on stage 0: 0.1 of its 0.15
        // charge there is sunk and must stay. Freeing only 0.05 + 0.15 is
        // not enough for the arrival, so the mid victim is shed too.
        let outcome = ac.try_admit_or_shed_with(Time::from_millis(1), &critical, |victim, out| {
            if victim == id_low {
                out.push((StageId::new(0), TimeDelta::from_millis(10)));
            }
        });
        match outcome {
            AdmitOutcome::AdmittedAfterShedding { shed, .. } => {
                assert_eq!(shed, vec![id_low, id_mid]);
            }
            other => panic!("expected shedding admission, got {other:?}"),
        }
        // Stage 0 still carries the sunk 0.1 plus the arrival's 0.2.
        let u0 = ac.state().stage(StageId::new(0)).value();
        assert!((u0 - 0.3).abs() < 1e-9, "stage 0 utilization {u0}");
        let u1 = ac.state().stage(StageId::new(1)).value();
        assert!((u1 - 0.2).abs() < 1e-9, "stage 1 utilization {u1}");
    }

    #[test]
    fn shedding_with_oracle_retained_charge_expires_at_deadline() {
        let mut ac = exact_two_stage();
        let low = pipeline_task(100, &[15, 15]).with_importance(Importance::new(1));
        let id_low = ac.try_admit(Time::ZERO, &low).unwrap();
        // Fill the region so the arrival must shed.
        let filler = pipeline_task(100, &[20, 20]).with_importance(Importance::new(5));
        ac.try_admit(Time::ZERO, &filler).unwrap();
        let critical = pipeline_task(100, &[15, 15]).with_importance(Importance::CRITICAL);
        let outcome = ac.try_admit_or_shed_with(Time::from_millis(1), &critical, |victim, out| {
            assert_eq!(victim, id_low);
            out.push((StageId::new(0), TimeDelta::from_millis(5)));
        });
        assert!(matches!(
            outcome,
            AdmitOutcome::AdmittedAfterShedding { .. }
        ));
        // The victim's sunk 0.05 persists on stage 0…
        assert!(ac.state().stage(StageId::new(0)).contains(id_low));
        // …until its original deadline passes.
        ac.advance_to(Time::from_millis(100));
        assert!(!ac.state().stage(StageId::new(0)).contains(id_low));
    }

    #[test]
    fn shedding_never_evicts_equal_or_higher_importance() {
        let mut ac = exact_two_stage();
        let a = pipeline_task(100, &[30, 30]).with_importance(Importance::new(5));
        ac.try_admit(Time::ZERO, &a).unwrap();
        let b = pipeline_task(100, &[30, 30]).with_importance(Importance::new(5));
        assert_eq!(
            ac.try_admit_or_shed(Time::from_millis(1), &b),
            AdmitOutcome::Rejected
        );
        assert_eq!(ac.stats().shed, 0);
        assert_eq!(ac.live_tasks(), 1);
    }

    #[test]
    fn outcome_task_accessor() {
        assert_eq!(AdmitOutcome::Rejected.task(), None);
        assert_eq!(
            AdmitOutcome::Admitted(TaskId::new(3)).task(),
            Some(TaskId::new(3))
        );
        assert_eq!(
            AdmitOutcome::AdmittedAfterShedding {
                task: TaskId::new(4),
                shed: vec![]
            }
            .task(),
            Some(TaskId::new(4))
        );
    }

    #[test]
    fn acceptance_ratio() {
        let mut s = AdmissionStats::default();
        assert_eq!(s.acceptance_ratio(), 1.0);
        s.admitted = 3;
        s.rejected = 1;
        assert!((s.acceptance_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn graph_task_contributions_cover_used_stages_only() {
        use crate::graph::TaskGraph;
        use crate::task::SubtaskSpec;
        let g = TaskGraph::fork_join(
            SubtaskSpec::new(StageId::new(0), ms(10)),
            vec![
                SubtaskSpec::new(StageId::new(1), ms(10)),
                SubtaskSpec::new(StageId::new(2), ms(10)),
            ],
            SubtaskSpec::new(StageId::new(3), ms(10)),
        )
        .unwrap();
        let spec = TaskSpec::new(ms(1000), g);
        let mut ac = Admission::new(FeasibleRegion::deadline_monotonic(5), ExactContributions);
        let id = ac.try_admit(Time::ZERO, &spec).unwrap();
        assert!(ac.state().stage(StageId::new(0)).contains(id));
        assert!(ac.state().stage(StageId::new(3)).contains(id));
        assert!(!ac.state().stage(StageId::new(4)).contains(id));
    }

    #[test]
    fn expired_tasks_leave_shedding_index() {
        let mut ac = exact_two_stage();
        let spec = pipeline_task(50, &[10, 10]);
        ac.try_admit(Time::ZERO, &spec).unwrap();
        assert_eq!(ac.live_tasks(), 1);
        ac.advance_to(Time::from_millis(50));
        assert_eq!(ac.live_tasks(), 0);
    }

    #[test]
    fn external_shed_is_idempotent() {
        let mut ac = exact_two_stage();
        let spec = pipeline_task(100, &[10, 10]);
        let id = ac.try_admit(Time::ZERO, &spec).unwrap();
        ac.shed(id);
        ac.shed(id);
        assert_eq!(ac.stats().shed, 1);
        assert_eq!(ac.live_tasks(), 0);
    }
}
