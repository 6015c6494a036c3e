//! Simulation metrics: the quantities the paper's figures report.
//!
//! * **Real stage utilization** — the fraction of simulated time a stage's
//!   processor is busy (Figures 4–6 plot its average after admission
//!   control).
//! * **Miss ratio of admitted tasks** — deadline misses over completed
//!   admitted tasks (Figure 7, approximate admission control).
//! * Response times, admission counters, blocking observations and idle
//!   resets for the ablations.

use crate::hist::LatencyHistogram;
use frap_core::task::TaskId;
use frap_core::time::{Time, TimeDelta};

/// Per-stage accounting.
#[derive(Debug, Clone)]
pub struct StageMetrics {
    /// Number of servers backing this stage (1 in the paper's model).
    pub servers: u32,
    /// Total server-time spent executing subtasks (summed over servers).
    pub busy: TimeDelta,
    /// Subtasks that finished here.
    pub subtasks_completed: u64,
    /// Times the stage went idle (each triggers a synthetic-utilization
    /// reset in the admission controller).
    pub idle_resets: u64,
    /// Total time subtasks spent blocked on locks here.
    pub blocking_total: TimeDelta,
    /// Largest single blocking episode observed here.
    pub blocking_max: TimeDelta,
    /// Number of blocking episodes.
    pub blocking_events: u64,
    /// Largest number of distinct blocking episodes suffered by a single
    /// job (PCP keeps this at 1 for single-lock stages).
    pub max_block_episodes: u32,
    /// Total time subtasks spent at this stage (arrival at the stage to
    /// departure), for average stage-delay reporting.
    pub stage_delay_total: TimeDelta,
    /// Largest single stage delay observed (the simulated `L_j`).
    pub stage_delay_max: TimeDelta,
}

impl Default for StageMetrics {
    fn default() -> StageMetrics {
        StageMetrics {
            servers: 1,
            busy: TimeDelta::ZERO,
            subtasks_completed: 0,
            idle_resets: 0,
            blocking_total: TimeDelta::ZERO,
            blocking_max: TimeDelta::ZERO,
            blocking_events: 0,
            max_block_episodes: 0,
            stage_delay_total: TimeDelta::ZERO,
            stage_delay_max: TimeDelta::ZERO,
        }
    }
}

impl StageMetrics {
    /// Real utilization over a horizon: busy server-time divided by the
    /// total server-time available (`horizon × servers`).
    pub fn utilization(&self, horizon: TimeDelta) -> f64 {
        self.busy.ratio(horizon) / f64::from(self.servers.max(1))
    }
}

/// A completed task's record, kept when per-task output is requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskOutcome {
    /// The task.
    pub task: TaskId,
    /// Arrival time at the system.
    pub arrival: Time,
    /// Completion time (departure from the last stage).
    pub completion: Time,
    /// Absolute deadline.
    pub deadline: Time,
}

impl TaskOutcome {
    /// End-to-end response time.
    pub fn response(&self) -> TimeDelta {
        self.completion.saturating_since(self.arrival)
    }

    /// Whether the end-to-end deadline was missed.
    pub fn missed(&self) -> bool {
        self.completion > self.deadline
    }
}

/// How one offered arrival was resolved by admission control.
///
/// Recorded in arrival order (one entry per offered task) when decision
/// logging is enabled via
/// [`SimBuilder::record_decisions`](crate::pipeline::SimBuilder::record_decisions),
/// so callers that know the arrival sequence (e.g. a trace with per-task
/// tenant labels) can attribute every decision without the simulator
/// carrying workload metadata. Replays of a trace through other deciders
/// (a service, a gateway) record the same type, so one report builder
/// reads them all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitDecision {
    /// Admitted at arrival (including the reserved-importance bypass).
    Admitted {
        /// The id the admission controller assigned.
        task: TaskId,
    },
    /// Rejected outright.
    Rejected,
    /// Parked in the admission wait queue and still waiting when the
    /// simulation ended (otherwise upgraded in place to
    /// [`AdmitDecision::AdmittedFromQueue`] or [`AdmitDecision::TimedOut`]).
    Queued,
    /// Admitted later from the wait queue.
    AdmittedFromQueue {
        /// The id the admission controller assigned.
        task: TaskId,
    },
    /// The wait, in the queue or in transit, ran out (counted as
    /// rejected).
    TimedOut,
}

impl AdmitDecision {
    /// The admitted task id, if this decision admitted one.
    pub fn admitted_task(&self) -> Option<TaskId> {
        match self {
            AdmitDecision::Admitted { task } | AdmitDecision::AdmittedFromQueue { task } => {
                Some(*task)
            }
            _ => None,
        }
    }

    /// Whether the arrival ended up admitted.
    pub fn is_admitted(&self) -> bool {
        self.admitted_task().is_some()
    }
}

/// Whole-simulation metrics.
#[derive(Debug, Clone, Default)]
pub struct SimMetrics {
    /// Simulated horizon (time of the last processed event).
    pub horizon: TimeDelta,
    /// Tasks offered to the admission controller.
    pub offered: u64,
    /// Tasks admitted (immediately or after waiting).
    pub admitted: u64,
    /// Tasks rejected: outright, or when their admission wait timed out
    /// (those are also counted in [`SimMetrics::wait_timeouts`]).
    pub rejected: u64,
    /// Tasks whose admission wait timed out (TSCE-style wait queue); a
    /// subset of [`SimMetrics::rejected`].
    pub wait_timeouts: u64,
    /// Admitted tasks shed at overload.
    pub shed: u64,
    /// Admitted tasks that completed all subtasks.
    pub completed: u64,
    /// Completed tasks that finished after their end-to-end deadline.
    pub missed: u64,
    /// Admitted tasks still in flight when the simulation ended.
    pub in_flight_at_end: u64,
    /// Arrivals, segment completions (stale ones of preempted or killed
    /// runs included), wait timeouts, utilization samples and task
    /// deadlines reached within the horizon — the denominator-free "work
    /// done" measure behind events/sec throughput reporting.
    /// Deterministic for a given input. Two kinds of event are counted
    /// without being popped, because nothing would read their pop: without
    /// a wait queue, a deadline inside the horizon, when its task is
    /// admitted (the ledger catches up lazily at every decision, idle
    /// reset, [`crate::Simulation::snapshot`] and the end of
    /// [`crate::Simulation::run`]); and a stopped run's completion inside
    /// the horizon, when it is cancelled. So the count is that of a loop
    /// that popped every one of them; one past the horizon stays queued
    /// and is counted by the `run` segment that reaches it.
    pub events_processed: u64,
    /// Sum of end-to-end response times of completed tasks.
    pub response_sum: TimeDelta,
    /// Largest end-to-end response time.
    pub response_max: TimeDelta,
    /// Log-bucketed histogram of end-to-end response times.
    pub response_hist: LatencyHistogram,
    /// Per-stage metrics.
    pub stages: Vec<StageMetrics>,
    /// Individual task outcomes (populated only when record-keeping is
    /// enabled in the simulation builder).
    pub outcomes: Vec<TaskOutcome>,
    /// Periodic samples of the per-stage synthetic utilization vector
    /// (populated when sampling is enabled in the simulation builder) —
    /// the simulated analogue of the paper's Figure 1 curve.
    pub utilization_timeline: Vec<(Time, Vec<f64>)>,
    /// One [`AdmitDecision`] per offered arrival, in arrival order
    /// (populated only when decision logging is enabled in the builder).
    pub decision_log: Vec<AdmitDecision>,
    /// Tasks shed at overload, in shedding order (populated only when
    /// decision logging is enabled in the builder).
    pub shed_log: Vec<TaskId>,
}

impl SimMetrics {
    /// Creates metrics for an `n`-stage system.
    pub fn new(stages: usize) -> SimMetrics {
        SimMetrics {
            stages: vec![StageMetrics::default(); stages],
            ..SimMetrics::default()
        }
    }

    /// Real utilization of stage `j` over the simulated horizon.
    pub fn stage_utilization(&self, j: usize) -> f64 {
        self.stages[j].utilization(self.horizon)
    }

    /// Mean real utilization across all stages (Figures 4 and 5 plot this).
    pub fn mean_stage_utilization(&self) -> f64 {
        if self.stages.is_empty() {
            return 0.0;
        }
        let sum: f64 = (0..self.stages.len())
            .map(|j| self.stage_utilization(j))
            .sum();
        sum / self.stages.len() as f64
    }

    /// Miss ratio among completed admitted tasks (Figure 7 plots this).
    pub fn miss_ratio(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.missed as f64 / self.completed as f64
        }
    }

    /// Fraction of offered tasks that were admitted.
    pub fn acceptance_ratio(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            self.admitted as f64 / self.offered as f64
        }
    }

    /// Mean end-to-end response time of completed tasks.
    pub fn mean_response(&self) -> TimeDelta {
        if self.completed == 0 {
            TimeDelta::ZERO
        } else {
            self.response_sum / self.completed
        }
    }

    /// End-to-end response-time quantile `q ∈ [0, 1]` over completed
    /// tasks (≤ 12.5 % high due to histogram bucketing).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn response_percentile(&self, q: f64) -> TimeDelta {
        self.response_hist.percentile(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_utilization_is_busy_over_horizon() {
        let mut m = SimMetrics::new(2);
        m.horizon = TimeDelta::from_secs(10);
        m.stages[0].busy = TimeDelta::from_secs(8);
        m.stages[1].busy = TimeDelta::from_secs(4);
        assert!((m.stage_utilization(0) - 0.8).abs() < 1e-12);
        assert!((m.stage_utilization(1) - 0.4).abs() < 1e-12);
        assert!((m.mean_stage_utilization() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn ratios_handle_zero_denominators() {
        let m = SimMetrics::new(1);
        assert_eq!(m.miss_ratio(), 0.0);
        assert_eq!(m.acceptance_ratio(), 1.0);
        assert_eq!(m.mean_response(), TimeDelta::ZERO);
        assert_eq!(m.mean_stage_utilization(), 0.0);
        let empty = SimMetrics::new(0);
        assert_eq!(empty.mean_stage_utilization(), 0.0);
    }

    #[test]
    fn miss_ratio_counts_completed_only() {
        let mut m = SimMetrics::new(1);
        m.completed = 10;
        m.missed = 1;
        assert!((m.miss_ratio() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn outcome_response_and_miss() {
        let o = TaskOutcome {
            task: TaskId::new(1),
            arrival: Time::from_millis(10),
            completion: Time::from_millis(35),
            deadline: Time::from_millis(30),
        };
        assert_eq!(o.response(), TimeDelta::from_millis(25));
        assert!(o.missed());
        let ok = TaskOutcome {
            completion: Time::from_millis(30),
            ..o
        };
        assert!(!ok.missed(), "finishing exactly at the deadline is a hit");
    }

    #[test]
    fn admit_decision_helpers() {
        let t = TaskId::new(7);
        assert_eq!(AdmitDecision::Admitted { task: t }.admitted_task(), Some(t));
        assert_eq!(
            AdmitDecision::AdmittedFromQueue { task: t }.admitted_task(),
            Some(t)
        );
        assert!(AdmitDecision::Admitted { task: t }.is_admitted());
        for d in [
            AdmitDecision::Rejected,
            AdmitDecision::Queued,
            AdmitDecision::TimedOut,
        ] {
            assert_eq!(d.admitted_task(), None);
            assert!(!d.is_admitted());
        }
    }

    #[test]
    fn mean_response_divides_by_completed() {
        let mut m = SimMetrics::new(1);
        m.completed = 4;
        m.response_sum = TimeDelta::from_millis(100);
        assert_eq!(m.mean_response(), TimeDelta::from_millis(25));
    }
}
