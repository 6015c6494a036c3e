//! The end-to-end pipeline/DAG simulation (the paper's evaluation substrate).
//!
//! [`Simulation`] wires together:
//!
//! * an [`Admission`] controller from `frap-core` (feasible-region test,
//!   contribution model, reservations, shedding);
//! * one [`Stage`] per independent resource, each a preemptive
//!   fixed-priority processor with PCP critical sections;
//! * DAG routing — a subtask is released to its stage when all its graph
//!   predecessors complete; the task departs when every subtask is done;
//! * the synthetic-utilization bookkeeping rules of Section 4: decrement
//!   at deadlines, mark departures per stage, reset on idle;
//! * an optional admission *wait queue* (Section 5's TSCE experiment lets
//!   track updates wait up to 200 ms for an idle reset to make room).
//!
//! Simulations are deterministic: identical inputs (arrival sequence,
//! configuration, seeds) produce identical metrics.

use crate::events::{EventQueue, Fired};
use crate::metrics::{AdmitDecision, SimMetrics, TaskOutcome};
use crate::sched::{DeadlineMonotonic, PriorityPolicy};
use crate::stage::{Effect, Stage};
use crate::trace::{Trace, TraceEvent};
use frap_core::admission::{Admission, AdmitOutcome, ContributionModel, ExactContributions};
use frap_core::graph::{TaskGraph, TaskSpec};
use frap_core::idtable::IdTable;
use frap_core::region::{FeasibleRegion, RegionTest};
use frap_core::task::{Importance, Priority, StageId, TaskId};
use frap_core::time::{Time, TimeDelta};
use std::collections::VecDeque;

type BoxRegion = Box<dyn RegionTest + Send + Sync>;
type BoxModel = Box<dyn ContributionModel + Send + Sync>;
type BoxPolicy = Box<dyn PriorityPolicy + Send>;
/// Admission-time task rewriting (e.g. binding a logical stage to the
/// least-utilized replica); see [`SimBuilder::router`].
type BoxRouter = Box<dyn FnMut(&frap_core::synthetic::SyntheticState, TaskSpec) -> TaskSpec>;

/// What to do with an arrival the admission controller cannot take now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitPolicy {
    /// Reject immediately (the default; Figures 4–7).
    Reject,
    /// Queue the arrival for up to the given wait; retry whenever capacity
    /// is released (idle reset or deadline expiry). Section 5's TSCE
    /// experiment uses 200 ms.
    WaitUpTo(TimeDelta),
}

/// Whether an infeasible important arrival may evict less important
/// admitted work (Section 5's overload architecture).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Never shed admitted work.
    RejectArrival,
    /// Shed admitted tasks in reverse importance order to make room.
    ShedLessImportant,
}

/// A verdict [`Simulation::book`] writes.
#[derive(Debug, Clone, Copy)]
enum Verdict {
    /// Admitted, rejected or queued on arrival: a new log entry.
    Arrival(AdmitDecision),
    /// A wait resolved, admitted from the queue or timed out: upgrades the
    /// `Queued` entry of the arrival with this index.
    Resolved(AdmitDecision, usize),
    /// An admitted task shed at overload.
    Shed(TaskId),
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    SegmentDone { stage: usize, gen: u64 },
    WaitTimeout { seq: u64 },
    UtilizationSample,
}

/// Per-node run state of a general graph: outstanding precedence count
/// and where its job is. The node's segments are read off the graph when
/// it is released.
#[derive(Debug)]
struct NodeRun {
    remaining_preds: u32,
    /// The slot [`Stage::add_job`] handed out; meaningful once released
    /// (`remaining_preds == 0`) and until `done`.
    slot: u32,
    done: bool,
}

/// Where a task's subtasks are; the graph's form picks the variant.
#[derive(Debug)]
enum Progress {
    /// A plain chain ([`TaskGraph::is_plain`]) has one job at its stage at
    /// any instant and visits each stage once: node `nodes_done` is at its
    /// stage in `slot`, the nodes before it are done and those after it
    /// unreleased.
    Chain { slot: u32 },
    /// Any other graph: one record per node.
    Graph(Vec<NodeRun>),
}

#[derive(Debug)]
struct TaskRun {
    graph: TaskGraph,
    priority: Priority,
    arrival: Time,
    abs_deadline: Time,
    progress: Progress,
    nodes_done: u32,
}

impl TaskRun {
    fn stage_of(&self, node: usize) -> usize {
        self.graph.stage(node).index()
    }

    /// Whether the task still has an unfinished subtask on `stage` —
    /// graphs have a handful of nodes, so a scan beats bookkeeping. Never
    /// for a plain chain once its job there finished.
    fn outstanding_on(&self, stage: usize) -> bool {
        let Progress::Graph(nodes) = &self.progress else {
            return false;
        };
        let mut nodes = nodes.iter().enumerate();
        nodes.any(|(node, nr)| !nr.done && self.stage_of(node) == stage)
    }

    /// The executed-work oracle's answer for this task, in node order: the
    /// work each released node has received at `now`, a finished node's
    /// full computation included.
    fn executed(
        &self,
        task: TaskId,
        now: Time,
        stages: &[Stage],
        out: &mut Vec<(StageId, TimeDelta)>,
    ) {
        let mut report = |node: usize, slot: Option<u32>| {
            let stage = self.stage_of(node);
            let executed = slot
                .and_then(|slot| stages[stage].executed(now, slot, (task, node as u32)))
                // Completed subtask: its full demand ran.
                .unwrap_or_else(|| self.graph.subtask(node).computation());
            if executed > TimeDelta::ZERO {
                out.push((StageId::new(stage), executed));
            }
        };
        match &self.progress {
            Progress::Chain { slot } => {
                let current = self.nodes_done as usize;
                (0..current).for_each(|node| report(node, None));
                report(current, Some(*slot));
            }
            Progress::Graph(nodes) => {
                for (node, nr) in nodes.iter().enumerate() {
                    // A node never released has executed nothing.
                    if nr.remaining_preds == 0 {
                        report(node, Some(nr.slot));
                    }
                }
            }
        }
    }
}

#[derive(Debug)]
struct Pending {
    seq: u64,
    spec: TaskSpec,
    expires: Time,
    /// Index into [`Simulation::pending_shapes`]: the interned admission
    /// contribution vector, computed once at enqueue.
    shape: u32,
    /// The arrival's index in arrival order, which is that of its
    /// decision-log entry.
    arrival: usize,
}

/// A point-in-time view of a [`Simulation`]'s state; see
/// [`Simulation::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// The simulation clock.
    pub clock: Time,
    /// Admitted tasks not yet complete.
    pub live_tasks: usize,
    /// Arrivals waiting in the admission queue.
    pub pending_admissions: usize,
    /// Jobs present (running, ready, or blocked) per stage.
    pub stage_jobs: Vec<usize>,
    /// The job executing at each stage, if any.
    pub stage_running: Vec<Option<(TaskId, u32)>>,
    /// Current synthetic utilization per stage.
    pub synthetic_utilizations: Vec<f64>,
}

/// Builder for [`Simulation`].
///
/// # Examples
///
/// ```
/// use frap_sim::pipeline::SimBuilder;
/// use frap_core::graph::TaskSpec;
/// use frap_core::time::{Time, TimeDelta};
///
/// let ms = TimeDelta::from_millis;
/// let mut sim = SimBuilder::new(2).build();
/// let arrivals = vec![
///     (Time::ZERO, TaskSpec::pipeline(ms(100), &[ms(5), ms(5)]).unwrap()),
///     (Time::from_millis(1), TaskSpec::pipeline(ms(100), &[ms(5), ms(5)]).unwrap()),
/// ];
/// let metrics = sim.run(arrivals.into_iter(), Time::from_secs(1));
/// assert_eq!(metrics.admitted, 2);
/// assert_eq!(metrics.completed, 2);
/// assert_eq!(metrics.missed, 0);
/// ```
pub struct SimBuilder {
    stages: usize,
    region: BoxRegion,
    model: BoxModel,
    policy: BoxPolicy,
    reservations: Option<Vec<f64>>,
    wait: WaitPolicy,
    overload: OverloadPolicy,
    reserved_importance: Option<Importance>,
    idle_resets: bool,
    record_outcomes: bool,
    record_decisions: bool,
    trace_capacity: Option<usize>,
    sample_period: Option<TimeDelta>,
    router: Option<BoxRouter>,
    servers: Vec<usize>,
}

impl std::fmt::Debug for SimBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimBuilder")
            .field("stages", &self.stages)
            .field("wait", &self.wait)
            .field("overload", &self.overload)
            .field("idle_resets", &self.idle_resets)
            .field("router", &self.router.is_some())
            .finish_non_exhaustive()
    }
}

impl SimBuilder {
    /// Defaults: deadline-monotonic scheduling, the DM feasible region for
    /// `stages` stages, exact contributions, no reservations, reject on
    /// infeasible arrival.
    pub fn new(stages: usize) -> SimBuilder {
        SimBuilder {
            stages,
            region: Box::new(FeasibleRegion::deadline_monotonic(stages)),
            model: Box::new(ExactContributions),
            policy: Box::new(DeadlineMonotonic),
            reservations: None,
            wait: WaitPolicy::Reject,
            overload: OverloadPolicy::RejectArrival,
            reserved_importance: None,
            idle_resets: true,
            record_outcomes: false,
            record_decisions: false,
            trace_capacity: None,
            sample_period: None,
            router: None,
            servers: vec![1; stages],
        }
    }

    /// Sets the admission region test.
    ///
    /// # Panics
    ///
    /// Panics if the region's stage count disagrees with the builder's.
    pub fn region<R: RegionTest + Send + Sync + 'static>(mut self, region: R) -> SimBuilder {
        assert_eq!(region.stages(), self.stages, "region stage count mismatch");
        self.region = Box::new(region);
        self
    }

    /// Sets the contribution model (exact, mean-based, split-deadline …).
    pub fn model<M: ContributionModel + Send + Sync + 'static>(mut self, model: M) -> SimBuilder {
        self.model = Box::new(model);
        self
    }

    /// Sets the priority-assignment policy.
    pub fn policy<P: PriorityPolicy + Send + 'static>(mut self, policy: P) -> SimBuilder {
        self.policy = Box::new(policy);
        self
    }

    /// Pre-loads per-stage synthetic-utilization reservations (Section 5).
    pub fn reservations(mut self, reservations: Vec<f64>) -> SimBuilder {
        self.reservations = Some(reservations);
        self
    }

    /// Sets the wait-queue policy for infeasible arrivals.
    pub fn wait(mut self, wait: WaitPolicy) -> SimBuilder {
        self.wait = wait;
        self
    }

    /// Sets the overload (shedding) policy.
    pub fn overload(mut self, overload: OverloadPolicy) -> SimBuilder {
        self.overload = overload;
        self
    }

    /// Tasks at or above this importance bypass the admission test: they
    /// are *pre-certified* and their capacity is covered by the configured
    /// reservations (Section 5's critical periodic/aperiodic tasks).
    pub fn reserved_importance(mut self, threshold: Importance) -> SimBuilder {
        self.reserved_importance = Some(threshold);
        self
    }

    /// Enables or disables the reset-on-idle rule (Section 4). Disabling
    /// it is the paper's implicit baseline — admission becomes markedly
    /// more pessimistic (the reset ablation quantifies by how much).
    pub fn idle_resets(mut self, enabled: bool) -> SimBuilder {
        self.idle_resets = enabled;
        self
    }

    /// Keeps a per-task [`TaskOutcome`] record (memory ∝ completed tasks).
    pub fn record_outcomes(mut self, record: bool) -> SimBuilder {
        self.record_outcomes = record;
        self
    }

    /// Logs one [`AdmitDecision`] per offered arrival (in arrival order)
    /// into [`SimMetrics::decision_log`], plus every shed task into
    /// [`SimMetrics::shed_log`] (memory ∝ offered tasks). Trace-driven
    /// scenario reports use this to attribute decisions to the tenants and
    /// importance classes of the arrival sequence they supplied.
    pub fn record_decisions(mut self, record: bool) -> SimBuilder {
        self.record_decisions = record;
        self
    }

    /// Records the last `capacity` scheduling events (admissions,
    /// dispatches, completions, idle resets, …) for inspection via
    /// [`Simulation::trace`].
    pub fn trace(mut self, capacity: usize) -> SimBuilder {
        self.trace_capacity = Some(capacity);
        self
    }

    /// Backs stage `stage` with `servers` identical processors sharing
    /// one queue — an empirical extension beyond the paper's model (the
    /// analysis stays per-stage; a single-server region is conservative
    /// for a multi-server stage). Critical sections require one server.
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range or `servers` is zero.
    pub fn stage_servers(mut self, stage: usize, servers: usize) -> SimBuilder {
        assert!(stage < self.stages, "stage out of range");
        assert!(servers >= 1);
        self.servers[stage] = servers;
        self
    }

    /// Installs an admission-time router: every arrival is passed through
    /// `route` together with the live synthetic-utilization state before
    /// the admission test. The canonical use is *partitioned multi-server
    /// stages*: rewrite a logical stage to the least-utilized physical
    /// replica (see [`frap_core::graph::TaskSpec::remap_stages`]); the
    /// feasible-region analysis then applies per replica unchanged.
    pub fn router(
        mut self,
        route: impl FnMut(&frap_core::synthetic::SyntheticState, TaskSpec) -> TaskSpec + 'static,
    ) -> SimBuilder {
        self.router = Some(Box::new(route));
        self
    }

    /// Samples the per-stage synthetic-utilization vector every `period`
    /// into [`SimMetrics::utilization_timeline`] (the simulated analogue
    /// of the paper's Figure 1 curve).
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn sample_utilization(mut self, period: TimeDelta) -> SimBuilder {
        assert!(!period.is_zero(), "sample period must be positive");
        self.sample_period = Some(period);
        self
    }

    /// Builds the simulation.
    pub fn build(self) -> Simulation {
        let admission = match &self.reservations {
            Some(res) => Admission::with_reservations(self.region, self.model, res),
            None => Admission::new(self.region, self.model),
        };
        Simulation {
            stages: (0..self.stages)
                .map(|i| Stage::with_servers(StageId::new(i), self.servers[i]))
                .collect(),
            admission,
            policy: self.policy,
            // Steady state carries one segment completion per busy server
            // (and the stale ones of runs stopped early whose completion
            // lies past the horizon), plus one deadline per live task when
            // arrivals can wait; pre-size so neither tier reallocates under
            // paper-scale loads.
            queue: EventQueue::with_capacity(16 * self.stages, 1024.max(64 * self.stages)),
            tasks: IdTable::new(),
            pending: VecDeque::new(),
            pending_seq: 0,
            metrics: SimMetrics::new(self.stages),
            clock: Time::ZERO,
            horizon: Time::ZERO,
            wait: self.wait,
            overload: self.overload,
            reserved_importance: self.reserved_importance,
            idle_resets: self.idle_resets,
            record_outcomes: self.record_outcomes,
            record_decisions: self.record_decisions,
            trace: self.trace_capacity.map(Trace::new),
            sample_period: self.sample_period,
            sampling_started: false,
            router: self.router,
            effects: Vec::new(),
            cascade: Vec::new(),
            release_scratch: Vec::new(),
            spare_nodes: Vec::new(),
            pending_shapes: Vec::new(),
            contrib_scratch: Vec::new(),
            failed_shapes: Vec::new(),
        }
    }
}

/// A deterministic discrete-event simulation of an `N`-stage system with
/// feasible-region admission control.
///
/// Construct via [`SimBuilder`]; drive with [`Simulation::run`].
pub struct Simulation {
    stages: Vec<Stage>,
    admission: Admission<BoxRegion, BoxModel>,
    policy: BoxPolicy,
    queue: EventQueue<Event>,
    /// One run record per admitted task in flight, found by id
    /// subtraction (ids are issued densely by the admission controller).
    tasks: IdTable<TaskRun>,
    pending: VecDeque<Pending>,
    pending_seq: u64,
    metrics: SimMetrics,
    clock: Time,
    /// The `until` of the [`Simulation::run`] in progress (of the last one
    /// between runs).
    horizon: Time,
    wait: WaitPolicy,
    overload: OverloadPolicy,
    reserved_importance: Option<Importance>,
    idle_resets: bool,
    record_outcomes: bool,
    record_decisions: bool,
    trace: Option<Trace>,
    sample_period: Option<TimeDelta>,
    sampling_started: bool,
    router: Option<BoxRouter>,
    /// Reused out-buffer of one stage mutation (empty between mutations:
    /// [`Simulation::enqueue_effects`] moves its contents on), so the
    /// steady-state event path never allocates.
    effects: Vec<Effect>,
    /// Reused FIFO of `(stage, effect)` that [`Simulation::drain_effects`]
    /// walks with a cursor; empty between events.
    cascade: Vec<(usize, Effect)>,
    /// Reused successor-release list in [`Simulation::subtask_completed`].
    release_scratch: Vec<u32>,
    /// Node vectors of retired general-graph runs, reused by
    /// [`Simulation::start_task`] (a plain chain keeps none).
    spare_nodes: Vec<Vec<NodeRun>>,
    /// Interned admission contribution vectors of waiting arrivals (one
    /// entry per distinct shape; cleared whenever the queue empties).
    pending_shapes: Vec<Vec<(StageId, f64)>>,
    /// Reused buffer for computing a spec's contributions at enqueue.
    contrib_scratch: Vec<(StageId, f64)>,
    /// Reused per-pass rejection memo in [`Simulation::retry_pending`],
    /// indexed by shape id.
    failed_shapes: Vec<bool>,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("clock", &self.clock)
            .field("stages", &self.stages.len())
            .field("live_tasks", &self.tasks.len())
            .field("pending", &self.pending.len())
            .field("router", &self.router.is_some())
            .finish_non_exhaustive()
    }
}

impl Simulation {
    /// Runs the simulation over `arrivals` (which must be sorted by time)
    /// until simulated time `until`, returning the collected metrics.
    /// Several calls continue one simulation: cut at any instants, they
    /// count, decide and log as one call to the last `until` does.
    ///
    /// Arrivals after `until` are ignored; events after `until` are not
    /// processed (in-flight tasks are counted in
    /// [`SimMetrics::in_flight_at_end`]). When decisions are recorded and
    /// `arrivals` reports an exact length, the decision log reserves one
    /// entry for each of them up front, those after `until` included.
    ///
    /// # Panics
    ///
    /// Panics if an arrival's timestamp precedes the previous one or the
    /// simulation clock (an earlier call's `until` included), or if a task
    /// references a stage outside the configured range.
    pub fn run<I>(&mut self, arrivals: I, until: Time) -> &SimMetrics
    where
        I: Iterator<Item = (Time, TaskSpec)>,
    {
        self.horizon = until;
        if let (Some(period), false) = (self.sample_period, self.sampling_started) {
            self.sampling_started = true;
            self.take_utilization_sample();
            self.queue
                .push(self.clock.saturating_add(period), Event::UtilizationSample);
        }
        if self.record_decisions {
            // One entry per arrival: sized once from an iterator that knows
            // its length (a trace's does) instead of doubling up to twice
            // the count. A bounded guess or an endless stream grows as it goes.
            if let (exact, Some(upper)) = arrivals.size_hint() {
                if exact == upper {
                    self.metrics.decision_log.reserve(exact);
                }
            }
        }
        let mut arrivals = arrivals.peekable();
        loop {
            // Events at time t fire before arrivals at t: deadline expiries
            // and completions free capacity the arrival may then use. The
            // next arrival's timestamp (clamped to the horizon) therefore
            // bounds how far the event queue may be drained, which lets the
            // peek-then-pop pair fuse into one heap access.
            let next_arrival = arrivals.peek().map(|&(t, _)| t);
            let bound = next_arrival.map_or(until, |ta| ta.min(until));
            if let Some((time, fired)) = self.queue.pop_at_or_before(bound) {
                self.clock = time;
                self.metrics.events_processed += 1;
                match fired {
                    Fired::Event(event) => self.handle_event(event),
                    Fired::Deadline => {
                        // Queued only when arrivals can wait, or past an
                        // earlier run's horizon (see `start_task`). Decrement
                        // synthetic utilization; waiting arrivals may now fit.
                        self.admission.advance_to(time);
                        self.retry_pending();
                    }
                }
                continue;
            }
            match next_arrival {
                Some(ta) if ta <= until => {
                    let (time, spec) = arrivals.next().expect("peeked arrival exists");
                    // No event past the next arrival is popped, so within
                    // one call this is the sorted-arrivals check; across
                    // calls it keeps the clock from running backwards.
                    assert!(time >= self.clock, "arrivals must be sorted by time");
                    self.clock = time;
                    self.metrics.events_processed += 1;
                    self.handle_arrival(spec);
                }
                _ => break,
            }
        }

        self.clock = until;
        // The ledger catches up lazily; bring it to the horizon so that
        // `admission()` reads current counters between runs.
        self.admission.advance_to(until);
        for stage in &mut self.stages {
            stage.finalize(until);
        }
        self.metrics.horizon = until.saturating_since(Time::ZERO);
        self.metrics.in_flight_at_end = self.tasks.len() as u64;
        for (i, stage) in self.stages.iter().enumerate() {
            self.metrics.stages[i] = stage.metrics.clone();
        }
        &self.metrics
    }

    /// Metrics collected so far (finalized by [`Simulation::run`]).
    pub fn metrics(&self) -> &SimMetrics {
        &self.metrics
    }

    /// Ends the simulation and hands its metrics over — logs included —
    /// without copying them.
    pub fn into_metrics(self) -> SimMetrics {
        self.metrics
    }

    /// The admission controller's view (synthetic utilizations, stats).
    ///
    /// Deadlines reach the ledger lazily, but it is current wherever it
    /// is read: at every admission decision, idle reset, routing and
    /// utilization sample, in [`Simulation::snapshot`], and at the end of
    /// [`Simulation::run`] — so between runs this reads the counters as of
    /// the last horizon.
    pub fn admission(&self) -> &Admission<BoxRegion, BoxModel> {
        &self.admission
    }

    /// The recorded scheduling trace, if tracing was enabled via
    /// [`SimBuilder::trace`].
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// A point-in-time view of the simulation state (clock, live tasks,
    /// per-stage occupancy, synthetic utilizations). Useful between
    /// [`Simulation::run`] segments and in tests.
    pub fn snapshot(&mut self) -> Snapshot {
        self.admission.advance_to(self.clock);
        let stage_jobs = self.stages.iter().map(|s| s.job_count()).collect();
        let stage_running = self.stages.iter().map(|s| s.running()).collect();
        Snapshot {
            clock: self.clock,
            live_tasks: self.tasks.len(),
            pending_admissions: self.pending.len(),
            stage_jobs,
            stage_running,
            synthetic_utilizations: self.admission.state().utilizations(),
        }
    }

    #[inline]
    fn record(&mut self, event: TraceEvent) {
        if let Some(trace) = &mut self.trace {
            trace.record(event);
        }
    }

    fn handle_arrival(&mut self, spec: TaskSpec) {
        self.metrics.offered += 1;
        let now = self.clock;
        let spec = match self.router.as_mut() {
            Some(route) => {
                // Routing reads fresh utilization state.
                self.admission.advance_to(now);
                route(self.admission.state(), spec)
            }
            None => spec,
        };
        // A reserved task is pre-certified: its capacity is covered by the
        // reservations, so it skips the test.
        let reserved = self
            .reserved_importance
            .is_some_and(|t| spec.importance >= t);
        let admitted = match self.overload {
            _ if reserved => Some(self.admission.admit_reserved()),
            OverloadPolicy::RejectArrival => self.admission.try_admit(now, &spec),
            OverloadPolicy::ShedLessImportant => {
                // The executed-work oracle keeps the eviction sound: a
                // victim's already-executed time is interference it has
                // inflicted on queued tasks, so that share of its charge
                // must stay on the counters until its deadline or an idle
                // reset (Theorem 1's invariant). Only unexecuted work is
                // reclaimed for the arrival.
                let tasks = &self.tasks;
                let stages = &self.stages;
                let outcome = self
                    .admission
                    .try_admit_or_shed_with(now, &spec, |victim, out| {
                        if let Some(run) = tasks.get(victim) {
                            run.executed(victim, now, stages, out);
                        }
                    });
                match outcome {
                    AdmitOutcome::Admitted(id) => Some(id),
                    AdmitOutcome::AdmittedAfterShedding { task, shed } => {
                        for victim in shed {
                            self.kill_task(victim);
                        }
                        Some(task)
                    }
                    AdmitOutcome::Rejected => None,
                }
            }
        };
        match (admitted, self.wait) {
            (Some(task), _) => {
                self.book(Verdict::Arrival(AdmitDecision::Admitted { task }));
                self.start_task(task, spec);
            }
            (None, WaitPolicy::Reject) => self.book(Verdict::Arrival(AdmitDecision::Rejected)),
            (None, WaitPolicy::WaitUpTo(wait)) => {
                let seq = self.pending_seq;
                self.pending_seq += 1;
                // Saturating, like the ledger's expiry: an unbounded
                // wait must not wrap into the past.
                let expires = now.saturating_add(wait);
                let shape = self.intern_shape(&spec);
                self.book(Verdict::Arrival(AdmitDecision::Queued));
                self.pending.push_back(Pending {
                    seq,
                    spec,
                    expires,
                    shape,
                    arrival: self.metrics.offered as usize - 1,
                });
                self.queue.push(expires, Event::WaitTimeout { seq });
            }
        }
    }

    /// Books one verdict — the one place counters, the decision and shed
    /// logs and the trace learn of it: bumps its counter, writes its log
    /// entry (upgrading a `Queued` one in place when a wait resolves) and
    /// records its trace event.
    fn book(&mut self, verdict: Verdict) {
        let time = self.clock;
        let m = &mut self.metrics;
        let (decision, queued_at) = match verdict {
            Verdict::Arrival(decision) => (decision, None),
            Verdict::Resolved(decision, at) => (decision, Some(at)),
            Verdict::Shed(task) => {
                m.shed += 1;
                if self.record_decisions {
                    m.shed_log.push(task);
                }
                self.record(TraceEvent::Shed { time, task });
                return;
            }
        };
        let event = match decision {
            AdmitDecision::Admitted { task } | AdmitDecision::AdmittedFromQueue { task } => {
                m.admitted += 1;
                Some(TraceEvent::Admitted { time, task })
            }
            AdmitDecision::Rejected => {
                m.rejected += 1;
                Some(TraceEvent::Rejected { time })
            }
            AdmitDecision::TimedOut => {
                m.wait_timeouts += 1;
                m.rejected += 1;
                None
            }
            AdmitDecision::Queued => Some(TraceEvent::Queued { time }),
        };
        if self.record_decisions {
            match queued_at {
                Some(at) => m.decision_log[at] = decision,
                None => m.decision_log.push(decision),
            }
        }
        if let Some(event) = event {
            self.record(event);
        }
    }

    fn start_task(&mut self, id: TaskId, spec: TaskSpec) {
        let now = self.clock;
        let priority = self.policy.priority(now, &spec, id);
        // Saturating, like the ledger's expiry (`Admission::commit`).
        let abs_deadline = now.saturating_add(spec.deadline);
        let graph = spec.graph;
        let check_stage = |i: usize| {
            let stage = graph.stage(i).index();
            assert!(
                stage < self.stages.len(),
                "task references stage {stage} but the system has {}",
                self.stages.len()
            );
        };
        let chain = graph.is_plain();
        let progress = if chain {
            // A plain chain's stages ascend: its last is its highest.
            check_stage(graph.len() - 1);
            Progress::Chain { slot: 0 }
        } else {
            let mut nodes = self.spare_nodes.pop().unwrap_or_default();
            for i in 0..graph.len() {
                check_stage(i);
                nodes.push(NodeRun {
                    remaining_preds: graph.preds(i).len() as u32,
                    slot: 0,
                    done: false,
                });
            }
            Progress::Graph(nodes)
        };
        // A plain chain's one source is node 0.
        let candidates = if chain { 1 } else { graph.len() as u32 };
        self.tasks.insert(
            id,
            TaskRun {
                graph,
                priority,
                arrival: now,
                abs_deadline,
                progress,
                nodes_done: 0,
            },
        );
        // A deadline pop advances the ledger and retries the waiters. Every
        // reader of the ledger advances it first, so without a wait queue
        // the pop would only move the clock: the deadline is counted now
        // instead. One past the horizon stays queued for a later `run`.
        if matches!(self.wait, WaitPolicy::WaitUpTo(_)) || abs_deadline > self.horizon {
            self.queue.push_deadline(abs_deadline);
        } else {
            self.metrics.events_processed += 1;
        }
        // Sources first: nothing completes before the next event, so no
        // other node's precedence count reaches zero inside this loop.
        for node in 0..candidates {
            let run = self.tasks.get(id).expect("task just started");
            if run.graph.preds(node as usize).is_empty() {
                let stage_idx = self.release_subtask(id, node);
                self.drain_effects(stage_idx);
            }
        }
    }

    /// Hands `node`'s job to its stage, returning the stage index; the
    /// stage's effects are left in `self.effects`. A one-segment node's
    /// segment goes over inline, so this allocates nothing for a chain.
    fn release_subtask(&mut self, task: TaskId, node: u32) -> usize {
        let now = self.clock;
        let run = self.tasks.get_mut(task).expect("live task");
        let sub = run.graph.subtask(node as usize);
        let (stage_idx, segments) = (sub.stage.index(), sub.segments);
        let stage = &mut self.stages[stage_idx];
        let slot = stage.add_job(now, (task, node), run.priority, segments, &mut self.effects);
        match &mut run.progress {
            Progress::Chain { slot: at } => *at = slot,
            Progress::Graph(nodes) => nodes[node as usize].slot = slot,
        }
        stage_idx
    }

    fn handle_event(&mut self, event: Event) {
        match event {
            Event::SegmentDone { stage, gen } => {
                self.stages[stage].segment_done(self.clock, gen, &mut self.effects);
                self.drain_effects(stage);
            }
            Event::UtilizationSample => {
                self.take_utilization_sample();
                if let Some(period) = self.sample_period {
                    self.queue
                        .push(self.clock.saturating_add(period), Event::UtilizationSample);
                }
            }
            Event::WaitTimeout { seq } => {
                // `seq` values are strictly increasing along the queue
                // (FIFO order is preserved by retries), so the stale-token
                // miss case costs O(log n) instead of a full scan.
                if let Ok(pos) = self.pending.binary_search_by(|p| p.seq.cmp(&seq)) {
                    self.time_out(pos);
                }
            }
        }
    }

    /// Moves the effects `stage`'s mutation just produced to the tail of
    /// the cascade, tagged with their stage.
    fn enqueue_effects(&mut self, stage: usize) {
        let tagged = self.effects.iter().map(|&e| (stage, e));
        self.cascade.extend(tagged);
        self.effects.clear();
    }

    /// Consumes the effect buffer produced by a stage mutation.
    fn drain_effects(&mut self, stage_idx: usize) {
        // Effects may cascade (a completion releases a successor on another
        // stage, which produces further effects); process in FIFO order so
        // a Completed departure is recorded before the Idle reset that the
        // same event produced. The FIFO is the tail of one reused vector:
        // a nested call (an Idle admits a waiter, whose start drains its
        // own effects) begins past its caller's unread entries and leaves
        // them in place.
        let base = self.cascade.len();
        self.enqueue_effects(stage_idx);
        let mut next = base;
        while let Some(&(stage, effect)) = self.cascade.get(next) {
            next += 1;
            match effect {
                Effect::Start { key, gen, finish } => {
                    self.record(TraceEvent::Dispatched {
                        time: self.clock,
                        stage,
                        task: key.0,
                        node: key.1,
                    });
                    self.queue.push(finish, Event::SegmentDone { stage, gen });
                }
                Effect::Stopped { gen, finish } => {
                    // The stopped run's completion would pop only to be
                    // found stale: cancel it, counted as its pop in this
                    // run would have been. One past the horizon stays
                    // queued, and a later run's pop counts it. So does one
                    // whose `Start` a caller's cascade has yet to queue.
                    let stale = |e: &Event| *e == Event::SegmentDone { stage, gen };
                    if finish <= self.horizon && self.queue.remove(finish, stale) {
                        self.metrics.events_processed += 1;
                    }
                }
                Effect::Completed { key, .. } => {
                    self.record(TraceEvent::SubtaskDone {
                        time: self.clock,
                        stage,
                        task: key.0,
                        node: key.1,
                    });
                    self.subtask_completed(stage, key);
                }
                Effect::Idle => {
                    if self.idle_resets {
                        self.stages[stage].metrics.idle_resets += 1;
                        self.admission
                            .on_stage_idle(self.clock, StageId::new(stage));
                        self.record(TraceEvent::IdleReset {
                            time: self.clock,
                            stage,
                        });
                    }
                    self.retry_pending();
                }
            }
        }
        self.cascade.truncate(base);
    }

    /// Books a finished subtask: departure, task completion, or the
    /// release of its successors, whose stage effects join the cascade.
    fn subtask_completed(&mut self, stage_idx: usize, key: (TaskId, u32)) {
        let (task, node) = key;
        let now = self.clock;

        let Some(run) = self.tasks.get_mut(task) else {
            return;
        };
        if let Progress::Graph(nodes) = &mut run.progress {
            nodes[node as usize].done = true;
        }
        run.nodes_done += 1;
        let all_done = run.nodes_done as usize == run.graph.len();
        // Per-stage departure bookkeeping for idle resets.
        if !run.outstanding_on(stage_idx) {
            self.admission
                .on_stage_departure(StageId::new(stage_idx), task);
        }

        if all_done {
            let run = self.tasks.remove(task).expect("task just observed");
            self.metrics.completed += 1;
            let response = now.saturating_since(run.arrival);
            self.metrics.response_sum += response;
            self.metrics.response_max = self.metrics.response_max.max(response);
            self.metrics.response_hist.record(response);
            let missed = now > run.abs_deadline;
            if missed {
                self.metrics.missed += 1;
            }
            self.record(TraceEvent::TaskDone {
                time: now,
                task,
                missed,
            });
            if self.record_outcomes {
                self.metrics.outcomes.push(TaskOutcome {
                    task,
                    arrival: run.arrival,
                    completion: now,
                    deadline: run.abs_deadline,
                });
            }
            self.recycle(run.progress);
            return;
        }

        let run = self.tasks.get_mut(task).expect("live task");
        let Progress::Graph(nodes) = &mut run.progress else {
            // A plain chain: its next node, without walking its edges.
            let next_stage = self.release_subtask(task, node + 1);
            self.enqueue_effects(next_stage);
            return;
        };
        // Release successors whose predecessors are all complete.
        let mut to_release = std::mem::take(&mut self.release_scratch);
        to_release.clear();
        for &succ in run.graph.succs(node as usize) {
            let succ_run = &mut nodes[succ as usize];
            succ_run.remaining_preds -= 1;
            if succ_run.remaining_preds == 0 {
                to_release.push(succ);
            }
        }
        for &succ in &to_release {
            let succ_stage = self.release_subtask(task, succ);
            self.enqueue_effects(succ_stage);
        }
        self.release_scratch = to_release;
    }

    /// Kills an admitted task everywhere (used when shed at overload). The
    /// victim may already have finished executing — shedding then only
    /// releases its synthetic-utilization accounting, which the admission
    /// controller has already done.
    fn kill_task(&mut self, task: TaskId) {
        self.book(Verdict::Shed(task));
        let Some(run) = self.tasks.remove(task) else {
            return;
        };
        let now = self.clock;
        let mut kill = |node: usize, slot: u32| {
            let stage_idx = run.stage_of(node);
            let key = (task, node as u32);
            self.stages[stage_idx].kill(now, slot, key, &mut self.effects);
            // A kill can start another job or idle the stage.
            self.drain_effects(stage_idx);
        };
        match &run.progress {
            Progress::Chain { slot } => kill(run.nodes_done as usize, *slot),
            Progress::Graph(nodes) => {
                for (node, nr) in nodes.iter().enumerate() {
                    // Only a released, unfinished node is at its stage.
                    if nr.remaining_preds == 0 && !nr.done {
                        kill(node, nr.slot);
                    }
                }
            }
        }
        self.recycle(run.progress);
    }

    /// Returns a retired run's node vector to the pool.
    fn recycle(&mut self, progress: Progress) {
        if let Progress::Graph(mut nodes) = progress {
            nodes.clear();
            self.spare_nodes.push(nodes);
        }
    }

    fn take_utilization_sample(&mut self) {
        self.admission.advance_to(self.clock);
        let utils = self.admission.state().utilizations();
        self.metrics.utilization_timeline.push((self.clock, utils));
    }

    /// Interns `spec`'s admission contribution vector among the waiting
    /// arrivals' shapes and returns its dense id. Identical specs (the
    /// common case: a saturated queue of one task family) share an id, so
    /// the retry loop can memoize rejections in O(1) per entry.
    fn intern_shape(&mut self, spec: &TaskSpec) -> u32 {
        let mut contrib = std::mem::take(&mut self.contrib_scratch);
        self.admission.contributions_for(spec, &mut contrib);
        let shape = match self.pending_shapes.iter().position(|s| *s == contrib) {
            Some(i) => i as u32,
            None => {
                self.pending_shapes.push(contrib.clone());
                (self.pending_shapes.len() - 1) as u32
            }
        };
        self.contrib_scratch = contrib;
        shape
    }

    /// Books the waiting arrival at `pos` in the queue as timed out and
    /// drops it.
    fn time_out(&mut self, pos: usize) {
        let entry = self.pending.remove(pos).expect("entry exists");
        self.book(Verdict::Resolved(AdmitDecision::TimedOut, entry.arrival));
        if self.pending.is_empty() {
            self.pending_shapes.clear();
        }
    }

    fn retry_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let now = self.clock;
        // A rejected admission test leaves the controller's counters
        // untouched, so at a fixed `now` an identical contribution vector
        // is rejected again: memoize rejections per shape and skip the
        // re-test. A successful admission does change the counters, so the
        // memo is invalidated there.
        let mut failed = std::mem::take(&mut self.failed_shapes);
        failed.clear();
        failed.resize(self.pending_shapes.len(), false);
        // In-place walk: the common saturated pass admits nobody and
        // removes nothing, so it must not shuffle the queue around.
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].expires <= now {
                // Its timeout event may not have fired yet: drop it here,
                // so it is not admitted past its wait.
                self.time_out(i);
                continue;
            }
            let shape = self.pending[i].shape as usize;
            if failed[shape] {
                i += 1;
                continue;
            }
            let admitted = {
                let p = &self.pending[i];
                self.admission
                    .try_admit_with(now, &p.spec, &self.pending_shapes[shape])
            };
            match admitted {
                Some(task) => {
                    failed.iter_mut().for_each(|f| *f = false);
                    let p = self.pending.remove(i).expect("entry exists");
                    let decision = AdmitDecision::AdmittedFromQueue { task };
                    self.book(Verdict::Resolved(decision, p.arrival));
                    self.start_task(task, p.spec);
                }
                None => {
                    failed[shape] = true;
                    i += 1;
                }
            }
        }
        self.failed_shapes = failed;
        if self.pending.is_empty() {
            self.pending_shapes.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frap_core::task::{Importance, SubtaskSpec};

    fn ms(v: u64) -> TimeDelta {
        TimeDelta::from_millis(v)
    }

    fn at(v: u64) -> Time {
        Time::from_millis(v)
    }

    fn task(deadline_ms: u64, comps_ms: &[u64]) -> TaskSpec {
        let comps: Vec<TimeDelta> = comps_ms.iter().map(|&c| ms(c)).collect();
        TaskSpec::pipeline(ms(deadline_ms), &comps).unwrap()
    }

    #[test]
    fn single_task_flows_through_pipeline() {
        let mut sim = SimBuilder::new(3).record_outcomes(true).build();
        let arrivals = vec![(at(0), task(100, &[5, 10, 5]))];
        let m = sim.run(arrivals.into_iter(), Time::from_secs(1));
        assert_eq!(m.admitted, 1);
        assert_eq!(m.completed, 1);
        assert_eq!(m.missed, 0);
        assert_eq!(m.outcomes.len(), 1);
        // Uncontended: response = sum of computations.
        assert_eq!(m.outcomes[0].response(), ms(20));
        assert_eq!(m.stages[0].busy, ms(5));
        assert_eq!(m.stages[1].busy, ms(10));
        assert_eq!(m.stages[2].busy, ms(5));
    }

    #[test]
    fn admission_rejects_when_region_full() {
        let mut sim = SimBuilder::new(1).build();
        // Each task: C/D = 0.5 — one fits (0.5 < 0.586), two don't.
        let arrivals = vec![(at(0), task(100, &[50])), (at(1), task(100, &[50]))];
        let m = sim.run(arrivals.into_iter(), Time::from_secs(1));
        assert_eq!(m.admitted, 1);
        assert_eq!(m.rejected, 1);
        assert_eq!(m.missed, 0);
    }

    #[test]
    fn idle_reset_reopens_capacity() {
        let mut sim = SimBuilder::new(1).build();
        // Task 1 finishes at t=50; its deadline is t=100. The idle reset at
        // t=50 must let task 2 in even though 0.5+0.5 > bound.
        let arrivals = vec![(at(0), task(100, &[50])), (at(60), task(100, &[50]))];
        let m = sim.run(arrivals.into_iter(), Time::from_secs(1));
        assert_eq!(m.admitted, 2);
        assert_eq!(m.completed, 2);
        assert_eq!(m.missed, 0);
        assert!(m.stages[0].idle_resets >= 1);
    }

    #[test]
    fn wait_queue_admits_after_idle_reset() {
        let mut sim = SimBuilder::new(1)
            .wait(WaitPolicy::WaitUpTo(ms(30)))
            .build();
        // Second arrival at t=30 can't fit until the first departs at t=50.
        let arrivals = vec![(at(0), task(100, &[50])), (at(30), task(100, &[50]))];
        let m = sim.run(arrivals.into_iter(), Time::from_secs(1));
        assert_eq!(m.admitted, 2, "waited 20 ms then admitted on idle reset");
        assert_eq!(m.wait_timeouts, 0);
        assert_eq!(m.completed, 2);
        assert_eq!(m.missed, 0);
    }

    #[test]
    fn wait_queue_times_out() {
        let mut sim = SimBuilder::new(1)
            .wait(WaitPolicy::WaitUpTo(ms(10)))
            .build();
        let arrivals = vec![(at(0), task(100, &[50])), (at(30), task(100, &[50]))];
        let m = sim.run(arrivals.into_iter(), Time::from_secs(1));
        assert_eq!(m.admitted, 1);
        assert_eq!(m.wait_timeouts, 1);
        assert_eq!(m.rejected, 1);
    }

    #[test]
    fn dag_task_executes_branches_in_parallel() {
        let mut sim = SimBuilder::new(4).record_outcomes(true).build();
        let g = TaskGraph::fork_join(
            SubtaskSpec::new(StageId::new(0), ms(10)),
            &[
                SubtaskSpec::new(StageId::new(1), ms(20)),
                SubtaskSpec::new(StageId::new(2), ms(30)),
            ],
            SubtaskSpec::new(StageId::new(3), ms(10)),
        )
        .unwrap();
        let spec = TaskSpec::new(ms(500), g);
        let m = sim.run(vec![(at(0), spec)].into_iter(), Time::from_secs(1));
        assert_eq!(m.completed, 1);
        // Branches overlap: 10 + max(20, 30) + 10 = 50, not 70.
        assert_eq!(m.outcomes[0].response(), ms(50));
    }

    #[test]
    fn deadline_monotonic_prefers_urgent_tasks() {
        let mut sim = SimBuilder::new(1).record_outcomes(true).build();
        // A lax task arrives first, then an urgent one preempts it.
        let arrivals = vec![(at(0), task(1000, &[50])), (at(10), task(100, &[20]))];
        let m = sim.run(arrivals.into_iter(), Time::from_secs(2));
        assert_eq!(m.completed, 2);
        let urgent = m.outcomes.iter().find(|o| o.arrival == at(10)).unwrap();
        assert_eq!(
            urgent.response(),
            ms(20),
            "urgent task preempts immediately"
        );
        let lax = m.outcomes.iter().find(|o| o.arrival == at(0)).unwrap();
        assert_eq!(lax.response(), ms(70), "lax task absorbs the preemption");
    }

    #[test]
    fn no_misses_under_exact_admission_small_burst() {
        // A burst of identical tasks: whoever is admitted must meet the
        // end-to-end deadline (the paper's guarantee).
        let mut sim = SimBuilder::new(2).build();
        let arrivals: Vec<(Time, TaskSpec)> = (0..200)
            .map(|i| (Time::from_micros(i * 137), task(40, &[3, 3])))
            .collect();
        let m = sim.run(arrivals.into_iter(), Time::from_secs(5));
        assert!(m.admitted > 0);
        assert_eq!(m.missed, 0);
        assert_eq!(m.in_flight_at_end, 0);
    }

    #[test]
    fn always_admit_overload_misses_deadlines() {
        use frap_core::admission::AlwaysAdmit;
        let mut sim = SimBuilder::new(1).region(AlwaysAdmit::new(1)).build();
        // 10 tasks of 50 ms each, deadline 100 ms, all at t≈0: gross overload.
        let arrivals: Vec<(Time, TaskSpec)> = (0..10).map(|i| (at(i), task(100, &[50]))).collect();
        let m = sim.run(arrivals.into_iter(), Time::from_secs(5));
        assert_eq!(m.admitted, 10);
        assert!(
            m.missed > 0,
            "without admission control deadlines are missed"
        );
    }

    #[test]
    fn shedding_overload_policy_evicts_low_importance() {
        let mut sim = SimBuilder::new(1)
            .overload(OverloadPolicy::ShedLessImportant)
            .build();
        let mut lax = task(100, &[40]);
        lax.importance = Importance::new(1);
        let mut critical = task(100, &[40]);
        critical.importance = Importance::CRITICAL;
        let arrivals = vec![(at(0), lax), (at(5), critical)];
        let m = sim.run(arrivals.into_iter(), Time::from_secs(1));
        assert_eq!(m.admitted, 2);
        assert_eq!(m.shed, 1, "the lax task was evicted mid-execution");
        assert_eq!(m.completed, 1);
        assert_eq!(m.missed, 0);
    }

    #[test]
    fn decision_log_matches_arrival_order() {
        let mut sim = SimBuilder::new(1).record_decisions(true).build();
        // One fits (C/D = 0.5 < 0.586), the second is rejected.
        let arrivals = vec![(at(0), task(100, &[50])), (at(1), task(100, &[50]))];
        let m = sim.run(arrivals.into_iter(), Time::from_secs(1));
        assert_eq!(m.decision_log.len(), 2);
        assert!(m.decision_log[0].is_admitted());
        assert_eq!(m.decision_log[1], AdmitDecision::Rejected);
        assert!(m.shed_log.is_empty());
    }

    #[test]
    fn decision_log_off_by_default() {
        let mut sim = SimBuilder::new(1).build();
        let arrivals = vec![(at(0), task(100, &[50]))];
        let m = sim.run(arrivals.into_iter(), Time::from_secs(1));
        assert!(m.decision_log.is_empty());
    }

    #[test]
    fn decision_log_records_queue_resolutions() {
        let mut sim = SimBuilder::new(1)
            .wait(WaitPolicy::WaitUpTo(ms(30)))
            .record_decisions(true)
            .build();
        // Arrival 2 waits and is admitted at the idle reset (t=50); arrival
        // 3 (C/D = 0.8, never feasible under the single-stage DM bound)
        // waits and times out.
        let arrivals = vec![
            (at(0), task(100, &[50])),
            (at(30), task(100, &[50])),
            (at(95), task(100, &[80])),
        ];
        let m = sim.run(arrivals.into_iter(), Time::from_secs(1));
        assert_eq!(m.decision_log.len(), 3);
        assert!(m.decision_log[0].is_admitted());
        assert!(matches!(
            m.decision_log[1],
            AdmitDecision::AdmittedFromQueue { .. }
        ));
        assert_eq!(m.decision_log[2], AdmitDecision::TimedOut);
        assert_eq!(m.admitted, 2);
        assert_eq!(m.wait_timeouts, 1);
    }

    #[test]
    fn shed_log_names_the_victim() {
        let mut sim = SimBuilder::new(1)
            .overload(OverloadPolicy::ShedLessImportant)
            .record_decisions(true)
            .build();
        let mut lax = task(100, &[40]);
        lax.importance = Importance::new(1);
        let mut critical = task(100, &[40]);
        critical.importance = Importance::CRITICAL;
        let arrivals = vec![(at(0), lax), (at(5), critical)];
        let m = sim.run(arrivals.into_iter(), Time::from_secs(1));
        assert_eq!(m.shed_log.len(), 1);
        let victim = m.decision_log[0].admitted_task().expect("lax admitted");
        assert_eq!(m.shed_log[0], victim);
    }

    #[test]
    fn deterministic_across_runs() {
        let build = || SimBuilder::new(2).record_outcomes(true).build();
        let arrivals: Vec<(Time, TaskSpec)> = (0..500)
            .map(|i| {
                (
                    Time::from_micros(i * 997),
                    task(30 + (i % 7) * 10, &[2 + i % 3, 3]),
                )
            })
            .collect();
        let mut s1 = build();
        let m1 = s1
            .run(arrivals.clone().into_iter(), Time::from_secs(3))
            .clone();
        let mut s2 = build();
        let m2 = s2.run(arrivals.into_iter(), Time::from_secs(3)).clone();
        assert_eq!(m1.admitted, m2.admitted);
        assert_eq!(m1.completed, m2.completed);
        assert_eq!(m1.outcomes, m2.outcomes);
        assert_eq!(m1.stages[0].busy, m2.stages[0].busy);
    }

    #[test]
    #[should_panic(expected = "sorted by time")]
    fn unsorted_arrivals_panic() {
        let mut sim = SimBuilder::new(1).build();
        let arrivals = vec![(at(10), task(100, &[1])), (at(5), task(100, &[1]))];
        sim.run(arrivals.into_iter(), Time::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "sorted by time")]
    fn an_arrival_before_an_earlier_horizon_panics() {
        let mut sim = SimBuilder::new(1).build();
        sim.run(vec![(at(0), task(100, &[1]))].into_iter(), at(50));
        sim.run(vec![(at(10), task(100, &[1]))].into_iter(), at(100));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_range_stage_panics() {
        let mut sim = SimBuilder::new(1).build();
        let spec = TaskSpec::new(
            ms(100),
            TaskGraph::chain(vec![SubtaskSpec::new(StageId::new(5), ms(1))]).unwrap(),
        );
        // Region has 1 stage; spec uses stage 5: the synthetic-utilization
        // indexing panics (documented on SyntheticState::add_task).
        sim.run(vec![(at(0), spec)].into_iter(), Time::from_secs(1));
    }

    /// Without a wait queue an admitted task's deadline inside the
    /// horizon is counted, not queued; a wait queue, or a deadline past the
    /// horizon, queues it. A plain chain's run record holds no node
    /// vector; any other graph's does.
    #[test]
    fn deadlines_queue_only_when_read_and_chains_keep_no_nodes() {
        let start = |wait: WaitPolicy, horizon: Time, spec: TaskSpec| {
            let mut sim = SimBuilder::new(4).wait(wait).build();
            sim.horizon = horizon;
            sim.handle_arrival(spec);
            sim
        };
        let chain = task(100, &[50]);
        let sec = Time::from_secs(1);

        let sim = start(WaitPolicy::Reject, sec, chain.clone());
        assert_eq!(sim.queue.len(), 1, "the segment completion alone");
        assert_eq!(sim.metrics.events_processed, 1, "the deadline, counted");
        let run = sim.tasks.iter().next().expect("one live task").1;
        assert!(matches!(run.progress, Progress::Chain { .. }));
        assert!(sim.spare_nodes.is_empty());

        let sim = start(WaitPolicy::WaitUpTo(ms(10)), sec, chain.clone());
        assert_eq!(sim.queue.len(), 2, "completion and deadline");
        assert_eq!(sim.metrics.events_processed, 0);

        let sim = start(WaitPolicy::Reject, at(99), chain);
        assert_eq!(sim.queue.len(), 2, "the deadline lies past the horizon");
        assert_eq!(sim.metrics.events_processed, 0);

        let g = TaskGraph::fork_join(
            SubtaskSpec::new(StageId::new(0), ms(10)),
            &[
                SubtaskSpec::new(StageId::new(1), ms(20)),
                SubtaskSpec::new(StageId::new(2), ms(30)),
            ],
            SubtaskSpec::new(StageId::new(3), ms(10)),
        )
        .unwrap();
        let sim = start(WaitPolicy::Reject, sec, TaskSpec::new(ms(500), g));
        let run = sim.tasks.iter().next().expect("one live task").1;
        assert!(matches!(&run.progress, Progress::Graph(nodes) if nodes.len() == 4));
    }

    /// A stopped run's completion is cancelled only once it is queued. The
    /// lax task's first node ends at t = 10 ms: its second starts on stage
    /// 1, stage 0 idles, and the idle reset admits the waiter, whose start
    /// preempts that second node inside the cascade that has yet to queue
    /// its completion. That completion is queued stale, popped at t = 60
    /// ms, and counted once.
    #[test]
    fn a_stopped_run_whose_completion_is_not_queued_yet_is_counted_once() {
        let mut sim = SimBuilder::new(2)
            .wait(WaitPolicy::WaitUpTo(ms(50)))
            .record_decisions(true)
            .trace(64)
            .build();
        let stage1 = TaskGraph::chain_of(&[(StageId::new(1), ms(5))]).unwrap();
        let arrivals = vec![
            (at(0), task(100, &[10, 50])),
            (at(5), TaskSpec::new(ms(71), stage1)),
        ];
        let m = sim.run(arrivals.into_iter(), Time::from_secs(1)).clone();
        assert!(matches!(
            m.decision_log[1],
            AdmitDecision::AdmittedFromQueue { .. }
        ));
        assert_eq!((m.completed, m.missed), (2, 0));
        let trace = sim.trace().expect("tracing enabled");
        let dispatches = trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::Dispatched { .. }))
            .count();
        assert_eq!(dispatches, 4, "the lax task's second node ran twice");
        // Two arrivals, two deadlines, the waiter's timeout and one
        // completion per dispatch.
        assert_eq!(m.events_processed, 9);
    }

    #[test]
    fn horizon_cuts_in_flight_tasks() {
        let mut sim = SimBuilder::new(1).build();
        let arrivals = vec![(at(0), task(1000, &[500]))];
        let m = sim.run(arrivals.into_iter(), at(100));
        assert_eq!(m.completed, 0);
        assert_eq!(m.in_flight_at_end, 1);
        assert_eq!(m.stages[0].busy, ms(100), "busy span closed at horizon");
        assert_eq!(m.horizon, ms(100));
    }
}
