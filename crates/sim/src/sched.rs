//! Priority-assignment policies.
//!
//! The paper's model fixes a task's priority across all pipeline stages at
//! arrival. [`DeadlineMonotonic`] is the optimal fixed-priority policy for
//! aperiodic tasks (no urgency inversion, `α = 1`). [`RandomPriority`]
//! realizes the worst documented inversion (`α = D_least / D_most`) and
//! [`EarliestDeadlineFirst`] keys priority off the *absolute* deadline —
//! deliberately **not** a fixed-priority policy in the paper's sense (its
//! priority depends on arrival time), provided as an ablation.

use frap_core::graph::TaskSpec;
use frap_core::task::{Priority, TaskId};
use frap_core::time::Time;

/// Assigns the stage-invariant priority of each admitted task.
pub trait PriorityPolicy: std::fmt::Debug {
    /// The priority for `spec`, arriving at `now` with identity `id`.
    fn priority(&mut self, now: Time, spec: &TaskSpec, id: TaskId) -> Priority;

    /// A short, stable policy name for reports.
    fn name(&self) -> &'static str;
}

/// Deadline-monotonic: priority key = relative end-to-end deadline.
///
/// Shorter deadline ⇒ higher priority; no urgency inversion (`α = 1`).
///
/// # Examples
///
/// ```
/// use frap_sim::sched::{DeadlineMonotonic, PriorityPolicy};
/// use frap_core::graph::TaskSpec;
/// use frap_core::task::TaskId;
/// use frap_core::time::{Time, TimeDelta};
///
/// let ms = TimeDelta::from_millis;
/// let mut dm = DeadlineMonotonic;
/// let urgent = TaskSpec::pipeline(ms(10), &[ms(1)])?;
/// let lax = TaskSpec::pipeline(ms(100), &[ms(1)])?;
/// let p_urgent = dm.priority(Time::ZERO, &urgent, TaskId::new(0));
/// let p_lax = dm.priority(Time::ZERO, &lax, TaskId::new(1));
/// assert!(p_urgent > p_lax);
/// # Ok::<(), frap_core::error::GraphError>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeadlineMonotonic;

impl PriorityPolicy for DeadlineMonotonic {
    fn priority(&mut self, _now: Time, spec: &TaskSpec, _id: TaskId) -> Priority {
        Priority::new(spec.deadline.as_micros())
    }

    fn name(&self) -> &'static str {
        "deadline-monotonic"
    }
}

/// Random priorities, unrelated to deadlines: the fully urgency-inverted
/// fixed-priority policy with `α = D_least / D_most` (Section 2).
///
/// Uses a small deterministic internal generator so simulations are
/// reproducible from the seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RandomPriority {
    state: u64,
}

impl RandomPriority {
    /// A policy seeded for reproducibility.
    pub fn new(seed: u64) -> RandomPriority {
        RandomPriority {
            state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
        }
    }

    fn next_u64(&mut self) -> u64 {
        // SplitMix64: adequate statistical quality for priority keys.
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl PriorityPolicy for RandomPriority {
    fn priority(&mut self, _now: Time, _spec: &TaskSpec, _id: TaskId) -> Priority {
        Priority::new(self.next_u64())
    }

    fn name(&self) -> &'static str {
        "random"
    }
}

/// Earliest-deadline-first: priority key = absolute deadline `A_i + D_i`.
///
/// **Not** a fixed-priority policy in the paper's sense — the key depends
/// on arrival time — so the feasible-region guarantee does not cover it.
/// Provided as an ablation baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EarliestDeadlineFirst;

impl PriorityPolicy for EarliestDeadlineFirst {
    fn priority(&mut self, now: Time, spec: &TaskSpec, _id: TaskId) -> Priority {
        Priority::new(now.saturating_add(spec.deadline).as_micros())
    }

    fn name(&self) -> &'static str {
        "edf"
    }
}

/// Priorities follow semantic importance (most important = most urgent):
/// the suboptimal assignment Section 5 argues admission control makes
/// unnecessary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ByImportance;

impl PriorityPolicy for ByImportance {
    fn priority(&mut self, _now: Time, spec: &TaskSpec, _id: TaskId) -> Priority {
        // Higher importance → smaller key → higher priority.
        Priority::new(u64::from(u32::MAX - spec.importance.level()))
    }

    fn name(&self) -> &'static str {
        "by-importance"
    }
}

/// Empirically estimates the urgency-inversion parameter `α` of a policy
/// over a sample of the workload's task population, by assigning sample
/// priorities and computing the minimum deadline ratio across
/// priority-ordered pairs (Section 2's definition).
///
/// Use this to pick the [`frap_core::region::FeasibleRegion::with_alpha`]
/// budget that makes a non-deadline-monotonic policy safe.
///
/// # Examples
///
/// ```
/// use frap_sim::sched::{estimate_alpha, DeadlineMonotonic, RandomPriority};
/// use frap_core::graph::TaskSpec;
/// use frap_core::time::TimeDelta;
///
/// let ms = TimeDelta::from_millis;
/// let samples: Vec<TaskSpec> = (1..=10)
///     .map(|i| TaskSpec::pipeline(ms(i * 50), &[ms(1)]).unwrap())
///     .collect();
/// assert_eq!(estimate_alpha(&mut DeadlineMonotonic, &samples).value(), 1.0);
/// // Random priorities over deadlines 50..500 ms: α ≈ 0.1.
/// let a = estimate_alpha(&mut RandomPriority::new(7), &samples);
/// assert!(a.value() <= 0.2);
/// ```
pub fn estimate_alpha<P: PriorityPolicy + ?Sized>(
    policy: &mut P,
    samples: &[TaskSpec],
) -> frap_core::alpha::Alpha {
    let pairs: Vec<(Priority, frap_core::time::TimeDelta)> = samples
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            (
                policy.priority(Time::ZERO, spec, TaskId::new(i as u64)),
                spec.deadline,
            )
        })
        .collect();
    frap_core::alpha::alpha_for_assignment(&pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use frap_core::task::Importance;
    use frap_core::time::TimeDelta;

    fn spec(deadline_ms: u64) -> TaskSpec {
        TaskSpec::pipeline(
            TimeDelta::from_millis(deadline_ms),
            &[TimeDelta::from_millis(1)],
        )
        .unwrap()
    }

    #[test]
    fn dm_orders_by_relative_deadline() {
        let mut dm = DeadlineMonotonic;
        let a = dm.priority(Time::from_secs(5), &spec(10), TaskId::new(0));
        let b = dm.priority(Time::ZERO, &spec(20), TaskId::new(1));
        assert!(a > b, "shorter deadline wins regardless of arrival time");
        assert_eq!(dm.name(), "deadline-monotonic");
    }

    #[test]
    fn dm_is_arrival_time_invariant() {
        let mut dm = DeadlineMonotonic;
        let early = dm.priority(Time::ZERO, &spec(10), TaskId::new(0));
        let late = dm.priority(Time::from_secs(100), &spec(10), TaskId::new(1));
        assert_eq!(early, late);
    }

    #[test]
    fn random_is_reproducible_and_varied() {
        let mut a = RandomPriority::new(42);
        let mut b = RandomPriority::new(42);
        let s = spec(10);
        let keys_a: Vec<u64> = (0..50)
            .map(|i| a.priority(Time::ZERO, &s, TaskId::new(i)).key())
            .collect();
        let keys_b: Vec<u64> = (0..50)
            .map(|i| b.priority(Time::ZERO, &s, TaskId::new(i)).key())
            .collect();
        assert_eq!(keys_a, keys_b, "same seed, same sequence");
        let mut sorted = keys_a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert!(sorted.len() > 45, "keys should be essentially unique");
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = RandomPriority::new(1);
        let mut b = RandomPriority::new(2);
        let s = spec(10);
        assert_ne!(
            a.priority(Time::ZERO, &s, TaskId::new(0)),
            b.priority(Time::ZERO, &s, TaskId::new(0))
        );
    }

    #[test]
    fn edf_depends_on_arrival_time() {
        let mut edf = EarliestDeadlineFirst;
        let early = edf.priority(Time::ZERO, &spec(10), TaskId::new(0));
        let late = edf.priority(Time::from_secs(1), &spec(10), TaskId::new(1));
        assert!(early > late, "earlier absolute deadline wins");
    }

    #[test]
    fn estimate_alpha_matches_policy_character() {
        let samples: Vec<TaskSpec> = (1..=20).map(|i| spec(i * 10)).collect();
        assert_eq!(
            estimate_alpha(&mut DeadlineMonotonic, &samples).value(),
            1.0
        );
        let a = estimate_alpha(&mut RandomPriority::new(3), &samples).value();
        // Deadlines span 10..200 ms: random assignment's α approaches
        // D_least/D_most = 0.05 (sampling may not hit the exact extremes).
        assert!(a < 0.3, "a={a}");
        assert!(a >= 0.05 - 1e-12);
    }

    #[test]
    fn by_importance_orders_by_level() {
        let mut pol = ByImportance;
        let hi = spec(10).with_importance(Importance::new(9));
        let lo = spec(10).with_importance(Importance::new(1));
        assert!(
            pol.priority(Time::ZERO, &hi, TaskId::new(0))
                > pol.priority(Time::ZERO, &lo, TaskId::new(1))
        );
    }
}
