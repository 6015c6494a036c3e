//! Parameterised task-stream generators for the paper's experiments.
//!
//! The Section 4 setup: tasks arrive Poisson, per-stage computation times
//! are independent exponentials, and end-to-end deadlines are uniform over
//! a range that grows linearly with the number of stages. The key knobs:
//!
//! * **load** — offered input load as a fraction of bottleneck-stage
//!   capacity (Figure 4 sweeps 0.6–2.0);
//! * **resolution** — mean deadline over mean total computation time
//!   (Figure 5 sweeps it; ≈100 elsewhere, the "liquid" regime);
//! * **imbalance** — per-stage mean computation ratios (Figure 6);
//! * optional **critical sections** (the `β` ablation) and **DAG shapes**
//!   (Theorem 2).

use crate::arrivals::{ArrivalProcess, PoissonProcess};
use crate::dist::{Distribution, Exponential, Uniform};
use crate::rng::Rng;
use frap_core::graph::{TaskGraph, TaskSpec};
use frap_core::task::{Importance, LockId, Segment, StageId, SubtaskSpec};
use frap_core::time::{Time, TimeDelta};

/// Builder for [`PipelineWorkload`].
///
/// # Examples
///
/// ```
/// use frap_workload::taskgen::PipelineWorkloadBuilder;
/// use frap_core::time::Time;
///
/// // The paper's Figure 4 point: 3 stages, resolution 100, load 1.0.
/// let stream = PipelineWorkloadBuilder::new(3)
///     .mean_computation_ms(10.0)
///     .resolution(100.0)
///     .load(1.0)
///     .seed(42)
///     .build();
/// let arrivals: Vec<_> = stream.take(100).collect();
/// assert_eq!(arrivals.len(), 100);
/// assert!(arrivals.windows(2).all(|w| w[0].0 <= w[1].0), "sorted by time");
/// ```
#[derive(Debug, Clone)]
pub struct PipelineWorkloadBuilder {
    stage_means: Vec<f64>,
    resolution: f64,
    load: f64,
    deadline_spread: (f64, f64),
    critical_section: Option<CriticalSectionConfig>,
    importance: Importance,
    seed: u64,
}

/// Critical-section injection for the blocking (`β`) ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CriticalSectionConfig {
    /// Probability that a subtask contains a critical section.
    pub probability: f64,
    /// Fraction of the subtask's computation spent inside the section.
    pub fraction: f64,
    /// Number of distinct locks per stage to draw from.
    pub locks_per_stage: usize,
}

impl PipelineWorkloadBuilder {
    /// A balanced `stages`-stage workload with the paper's defaults:
    /// 10 ms mean per-stage computation, resolution 100, load 1.0,
    /// deadlines uniform over `[0.5, 1.5] ×` the mean deadline.
    pub fn new(stages: usize) -> PipelineWorkloadBuilder {
        assert!(stages > 0, "at least one stage");
        PipelineWorkloadBuilder {
            stage_means: vec![0.010; stages],
            resolution: 100.0,
            load: 1.0,
            deadline_spread: (0.5, 1.5),
            critical_section: None,
            importance: Importance::LOWEST,
            seed: 0,
        }
    }

    /// Sets the same mean computation time (milliseconds) for every stage.
    pub fn mean_computation_ms(mut self, ms: f64) -> Self {
        assert!(ms > 0.0);
        let n = self.stage_means.len();
        self.stage_means = vec![ms / 1e3; n];
        self
    }

    /// Sets per-stage mean computation times (milliseconds) — unequal
    /// means create the load imbalance of Figure 6.
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the stage count.
    pub fn stage_means_ms(mut self, means_ms: &[f64]) -> Self {
        assert_eq!(means_ms.len(), self.stage_means.len());
        assert!(means_ms.iter().all(|&m| m > 0.0));
        self.stage_means = means_ms.iter().map(|&m| m / 1e3).collect();
        self
    }

    /// Sets the task resolution: mean deadline / mean total computation.
    pub fn resolution(mut self, resolution: f64) -> Self {
        assert!(resolution > 0.0);
        self.resolution = resolution;
        self
    }

    /// Sets offered load as a fraction of *bottleneck-stage* capacity:
    /// the arrival rate becomes `load / max_j mean_j`.
    pub fn load(mut self, load: f64) -> Self {
        assert!(load > 0.0);
        self.load = load;
        self
    }

    /// Sets the uniform deadline spread as multiples of the mean deadline
    /// (default `(0.5, 1.5)`).
    pub fn deadline_spread(mut self, lo: f64, hi: f64) -> Self {
        assert!(0.0 < lo && lo <= hi);
        self.deadline_spread = (lo, hi);
        self
    }

    /// Injects critical sections (see [`CriticalSectionConfig`]).
    pub fn critical_sections(mut self, cfg: CriticalSectionConfig) -> Self {
        assert!((0.0..=1.0).contains(&cfg.probability));
        assert!((0.0..=1.0).contains(&cfg.fraction));
        assert!(cfg.locks_per_stage > 0);
        self.critical_section = Some(cfg);
        self
    }

    /// Sets the semantic importance stamped on every generated task.
    pub fn importance(mut self, importance: Importance) -> Self {
        self.importance = importance;
        self
    }

    /// Seeds the generator (same seed ⇒ identical stream).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The arrival rate (tasks/second) this configuration produces.
    pub fn arrival_rate(&self) -> f64 {
        let bottleneck = self
            .stage_means
            .iter()
            .cloned()
            .fold(f64::MIN_POSITIVE, f64::max);
        self.load / bottleneck
    }

    /// The mean per-stage computation times, in seconds.
    pub fn stage_means(&self) -> &[f64] {
        &self.stage_means
    }

    /// The mean end-to-end deadline, in seconds.
    pub fn mean_deadline(&self) -> f64 {
        self.resolution * self.stage_means.iter().sum::<f64>()
    }

    /// Builds the (infinite) arrival stream.
    pub fn build(self) -> PipelineWorkload {
        let rate = self.arrival_rate();
        let mean_deadline = self.mean_deadline();
        let deadline = Uniform::new(
            self.deadline_spread.0 * mean_deadline,
            self.deadline_spread.1 * mean_deadline,
        );
        PipelineWorkload {
            comp: self
                .stage_means
                .iter()
                .map(|&m| Exponential::new(m))
                .collect(),
            deadline,
            arrivals: PoissonProcess::new(rate),
            critical_section: self.critical_section,
            importance: self.importance,
            rng: Rng::new(self.seed),
            clock: Time::ZERO,
        }
    }
}

/// An infinite, deterministic stream of `(arrival_time, TaskSpec)` pairs
/// for a pipeline system; see [`PipelineWorkloadBuilder`].
#[derive(Debug, Clone)]
pub struct PipelineWorkload {
    comp: Vec<Exponential>,
    deadline: Uniform,
    arrivals: PoissonProcess,
    critical_section: Option<CriticalSectionConfig>,
    importance: Importance,
    rng: Rng,
    clock: Time,
}

impl PipelineWorkload {
    /// Restricts the stream to arrivals at or before `horizon`.
    pub fn until(self, horizon: Time) -> impl Iterator<Item = (Time, TaskSpec)> {
        self.take_while(move |&(t, _)| t <= horizon)
    }

    /// Drops the generated arrival instants, yielding task specifications
    /// only — the form wall-clock callers (such as the `frap-service`
    /// admission service and its load generator) consume, where arrival
    /// times come from a real clock instead of the generator's virtual
    /// Poisson clock. The stream is `Send`, so it can be moved into a
    /// worker thread.
    pub fn specs(self) -> impl Iterator<Item = TaskSpec> + Send {
        self.map(|(_, spec)| spec)
    }
}

impl Iterator for PipelineWorkload {
    type Item = (Time, TaskSpec);

    fn next(&mut self) -> Option<(Time, TaskSpec)> {
        self.clock += self.arrivals.next_gap(&mut self.rng);
        let deadline = self.deadline.sample_delta(&mut self.rng);
        let Some(cfg) = self.critical_section else {
            // Every subtask one lock-free segment: the plain chain, built
            // straight from the draws.
            let rng = &mut self.rng;
            let graph = TaskGraph::pipeline(self.comp.iter().map(|dist| dist.sample_delta(rng)));
            let spec = TaskSpec::new(deadline, graph.expect("at least one stage"));
            return Some((self.clock, spec.with_importance(self.importance)));
        };

        let mut subtasks = Vec::with_capacity(self.comp.len());
        for (j, dist) in self.comp.iter().enumerate() {
            let c = dist.sample_delta(&mut self.rng);
            let stage = StageId::new(j);
            let sub = if self.rng.next_f64() < cfg.probability && !c.is_zero() {
                let cs = c.mul_f64(cfg.fraction);
                let rest = c.saturating_sub(cs);
                let lock = LockId::new(self.rng.range_u64(cfg.locks_per_stage as u64) as usize);
                SubtaskSpec::with_segments(
                    stage,
                    vec![
                        Segment::compute(rest / 2),
                        Segment::critical(cs, lock),
                        Segment::compute(rest - rest / 2),
                    ],
                )
            } else {
                SubtaskSpec::new(stage, c)
            };
            subtasks.push(sub);
        }
        let graph = TaskGraph::chain(subtasks).expect("non-empty chain");
        let spec = TaskSpec::new(deadline, graph).with_importance(self.importance);
        Some((self.clock, spec))
    }
}

/// A generator of random fork-join DAG tasks (Theorem 2 workloads): a head
/// subtask on stage 0, `k ∈ [1, stages−2]` parallel branch subtasks on
/// distinct middle stages, and a tail subtask on the last stage.
#[derive(Debug, Clone)]
pub struct DagWorkload {
    stages: usize,
    mean_comp: Exponential,
    deadline: Uniform,
    arrivals: PoissonProcess,
    rng: Rng,
    clock: Time,
}

impl DagWorkload {
    /// A fork-join DAG stream over `stages ≥ 3` stages with the given mean
    /// per-subtask computation (seconds), task resolution, arrival rate
    /// (tasks/second), and seed.
    ///
    /// # Panics
    ///
    /// Panics if `stages < 3` or a parameter is non-positive.
    pub fn new(
        stages: usize,
        mean_comp: f64,
        resolution: f64,
        rate: f64,
        seed: u64,
    ) -> DagWorkload {
        assert!(stages >= 3, "fork-join needs head, branch, tail stages");
        assert!(mean_comp > 0.0 && resolution > 0.0 && rate > 0.0);
        // Mean total computation ≈ (2 + (stages−2)/2) subtasks worth.
        let mean_total = mean_comp * (2.0 + (stages as f64 - 2.0) / 2.0);
        let mean_deadline = resolution * mean_total;
        DagWorkload {
            stages,
            mean_comp: Exponential::new(mean_comp),
            deadline: Uniform::new(0.5 * mean_deadline, 1.5 * mean_deadline),
            arrivals: PoissonProcess::new(rate),
            rng: Rng::new(seed),
            clock: Time::ZERO,
        }
    }

    /// Restricts the stream to arrivals at or before `horizon`.
    pub fn until(self, horizon: Time) -> impl Iterator<Item = (Time, TaskSpec)> {
        self.take_while(move |&(t, _)| t <= horizon)
    }

    /// Drops the generated arrival instants, yielding task specifications
    /// only; see [`PipelineWorkload::specs`].
    pub fn specs(self) -> impl Iterator<Item = TaskSpec> + Send {
        self.map(|(_, spec)| spec)
    }
}

impl Iterator for DagWorkload {
    type Item = (Time, TaskSpec);

    fn next(&mut self) -> Option<(Time, TaskSpec)> {
        self.clock += self.arrivals.next_gap(&mut self.rng);
        let deadline = self.deadline.sample_delta(&mut self.rng);
        let middle = self.stages - 2;
        let k = 1 + self.rng.range_u64(middle as u64) as usize;
        // Choose k distinct middle stages (Fisher-Yates prefix).
        let mut pool: Vec<usize> = (1..=middle).collect();
        for i in 0..k {
            let j = i + self.rng.range_u64((pool.len() - i) as u64) as usize;
            pool.swap(i, j);
        }
        let head = SubtaskSpec::new(StageId::new(0), self.mean_comp.sample_delta(&mut self.rng));
        let branches: Vec<SubtaskSpec> = pool[..k]
            .iter()
            .map(|&s| SubtaskSpec::new(StageId::new(s), self.mean_comp.sample_delta(&mut self.rng)))
            .collect();
        let tail = SubtaskSpec::new(
            StageId::new(self.stages - 1),
            self.mean_comp.sample_delta(&mut self.rng),
        );
        let graph = TaskGraph::fork_join(head, branches, tail).expect("valid fork-join");
        Some((self.clock, TaskSpec::new(deadline, graph)))
    }
}

/// A set of periodic task streams (optionally jittered), rendered into a
/// merged arrival sequence — the workload shape of the paper's Section 1
/// motivation and of classical periodic analyses.
///
/// # Examples
///
/// ```
/// use frap_workload::taskgen::PeriodicSet;
/// use frap_core::graph::TaskSpec;
/// use frap_core::time::{Time, TimeDelta};
///
/// let ms = TimeDelta::from_millis;
/// let spec = TaskSpec::pipeline(ms(50), &[ms(2), ms(2)])?;
/// let mut set = PeriodicSet::new();
/// set.add(spec.clone(), ms(50)).add(spec, ms(100));
/// set.stagger_phases();
/// let arrivals = set.arrivals(Time::from_secs(1), 7);
/// assert!(!arrivals.is_empty());
/// assert!(arrivals.windows(2).all(|w| w[0].0 <= w[1].0));
/// # Ok::<(), frap_core::error::GraphError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct PeriodicSet {
    streams: Vec<PeriodicStream>,
}

#[derive(Debug, Clone)]
struct PeriodicStream {
    spec: TaskSpec,
    period: TimeDelta,
    phase: TimeDelta,
    jitter: f64,
}

impl PeriodicSet {
    /// An empty set.
    pub fn new() -> PeriodicSet {
        PeriodicSet {
            streams: Vec::new(),
        }
    }

    /// Adds a jitter-free stream released at phase 0.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn add(&mut self, spec: TaskSpec, period: TimeDelta) -> &mut Self {
        self.add_with(spec, period, TimeDelta::ZERO, 0.0)
    }

    /// Adds a stream with an explicit initial phase and release-jitter
    /// fraction (`jitter ∈ [0, 1]`, as in
    /// [`crate::arrivals::PeriodicWithJitter`]).
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero or `jitter` is outside `[0, 1]`.
    pub fn add_with(
        &mut self,
        spec: TaskSpec,
        period: TimeDelta,
        phase: TimeDelta,
        jitter: f64,
    ) -> &mut Self {
        assert!(!period.is_zero(), "period must be positive");
        assert!((0.0..=1.0).contains(&jitter), "jitter must be in [0, 1]");
        self.streams.push(PeriodicStream {
            spec,
            period,
            phase,
            jitter,
        });
        self
    }

    /// Number of streams.
    pub fn len(&self) -> usize {
        self.streams.len()
    }

    /// Whether the set has no streams.
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }

    /// Spreads stream phases evenly (`phase_i = i · T_i / n`): the
    /// deployment-style staggering that avoids the synchronous critical
    /// instant.
    pub fn stagger_phases(&mut self) -> &mut Self {
        let n = self.streams.len().max(1) as u64;
        for (i, s) in self.streams.iter_mut().enumerate() {
            s.phase = TimeDelta::from_micros(i as u64 * s.period.as_micros() / n);
        }
        self
    }

    /// Renders all streams into one merged, time-sorted arrival sequence
    /// up to `horizon`. Each stream draws its jitter from an independent
    /// generator derived from `seed`.
    pub fn arrivals(&self, horizon: Time, seed: u64) -> Vec<(Time, TaskSpec)> {
        use crate::arrivals::{ArrivalProcess, PeriodicWithJitter};
        let mut master = Rng::new(seed);
        let streams = self
            .streams
            .iter()
            .map(|s| {
                let mut rng = master.split();
                let mut out = Vec::new();
                if s.jitter == 0.0 {
                    let mut t = Time::ZERO + s.phase;
                    while t <= horizon {
                        out.push((t, s.spec.clone()));
                        t += s.period;
                    }
                } else {
                    let mut proc = PeriodicWithJitter::new(s.period, s.jitter);
                    let mut t = Time::ZERO + s.phase + proc.next_gap(&mut rng);
                    while t <= horizon {
                        out.push((t, s.spec.clone()));
                        t += proc.next_gap(&mut rng);
                    }
                }
                out
            })
            .collect();
        merge_arrivals(streams)
    }
}

/// Merges several already-sorted arrival streams into one sorted stream.
///
/// # Examples
///
/// ```
/// use frap_workload::taskgen::{merge_arrivals, PipelineWorkloadBuilder};
///
/// let a = PipelineWorkloadBuilder::new(2).seed(1).build().take(50);
/// let b = PipelineWorkloadBuilder::new(2).seed(2).build().take(50);
/// let merged = merge_arrivals(vec![a.collect(), b.collect()]);
/// assert_eq!(merged.len(), 100);
/// assert!(merged.windows(2).all(|w| w[0].0 <= w[1].0));
/// ```
pub fn merge_arrivals(streams: Vec<Vec<(Time, TaskSpec)>>) -> Vec<(Time, TaskSpec)> {
    let mut all: Vec<(Time, TaskSpec)> = streams.into_iter().flatten().collect();
    all.sort_by_key(|&(t, _)| t);
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_sorted_and_reproducible() {
        let take = |seed| -> Vec<(Time, TaskSpec)> {
            PipelineWorkloadBuilder::new(3)
                .seed(seed)
                .build()
                .take(200)
                .collect()
        };
        let a = take(9);
        let b = take(9);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.0, y.0);
            assert_eq!(x.1.deadline, y.1.deadline);
        }
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn resolution_controls_deadline_scale() {
        let stream = PipelineWorkloadBuilder::new(2)
            .mean_computation_ms(10.0)
            .resolution(100.0)
            .seed(3)
            .build();
        let tasks: Vec<_> = stream.take(2000).collect();
        let mean_deadline: f64 = tasks
            .iter()
            .map(|(_, s)| s.deadline.as_secs_f64())
            .sum::<f64>()
            / tasks.len() as f64;
        // Mean deadline should be ≈ 100 × 20 ms = 2 s.
        assert!((mean_deadline - 2.0).abs() < 0.1, "mean={mean_deadline}");
        // Deadlines span [1, 3] s.
        for (_, s) in &tasks {
            let d = s.deadline.as_secs_f64();
            assert!((1.0..=3.0).contains(&d), "d={d}");
        }
    }

    #[test]
    fn load_sets_arrival_rate_on_bottleneck() {
        let b = PipelineWorkloadBuilder::new(2)
            .stage_means_ms(&[10.0, 20.0])
            .load(1.5);
        // Bottleneck mean 20 ms → rate = 1.5 / 0.02 = 75/s.
        assert!((b.arrival_rate() - 75.0).abs() < 1e-9);
    }

    #[test]
    fn offered_load_matches_parameter() {
        let builder = PipelineWorkloadBuilder::new(2)
            .mean_computation_ms(10.0)
            .load(0.8)
            .seed(5);
        let rate = builder.arrival_rate();
        let tasks: Vec<_> = builder.build().take(5000).collect();
        let span = (tasks.last().unwrap().0.as_secs_f64()).max(1e-9);
        let per_stage_demand: f64 = tasks
            .iter()
            .map(|(_, s)| s.graph.subtask(0).computation().as_secs_f64())
            .sum();
        let offered = per_stage_demand / span;
        assert!((rate - 80.0).abs() < 1e-9);
        assert!((offered - 0.8).abs() < 0.05, "offered={offered}");
    }

    #[test]
    fn critical_sections_are_injected() {
        let stream = PipelineWorkloadBuilder::new(2)
            .critical_sections(CriticalSectionConfig {
                probability: 1.0,
                fraction: 0.5,
                locks_per_stage: 2,
            })
            .seed(6)
            .build();
        let tasks: Vec<_> = stream.take(50).collect();
        for (_, s) in &tasks {
            for sub in s.graph.subtasks() {
                if sub.computation().is_zero() {
                    continue;
                }
                assert!(sub.has_critical_section());
                // CS is about half the computation.
                let frac = sub.max_critical_section().ratio(sub.computation());
                assert!((0.4..=0.6).contains(&frac), "frac={frac}");
            }
        }
    }

    #[test]
    fn importance_is_stamped() {
        let stream = PipelineWorkloadBuilder::new(1)
            .importance(Importance::new(7))
            .seed(1)
            .build();
        for (_, s) in stream.take(5) {
            assert_eq!(s.importance, Importance::new(7));
        }
    }

    #[test]
    fn until_respects_horizon() {
        let horizon = Time::from_secs(1);
        let stream = PipelineWorkloadBuilder::new(1).load(2.0).seed(8).build();
        for (t, _) in stream.until(horizon) {
            assert!(t <= horizon);
        }
    }

    #[test]
    fn dag_workload_produces_fork_joins() {
        let stream = DagWorkload::new(5, 0.005, 50.0, 20.0, 4);
        for (_, spec) in stream.take(100) {
            assert!(spec.graph.len() >= 3);
            assert_eq!(spec.graph.sources().len(), 1);
            assert_eq!(spec.graph.sinks().len(), 1);
            // Head on stage 0, tail on last stage.
            assert_eq!(spec.graph.subtask(0).stage, StageId::new(0));
            let sink = spec.graph.sinks()[0];
            assert_eq!(spec.graph.subtask(sink).stage, StageId::new(4));
            // Branch stages are distinct.
            let mut mids: Vec<usize> = spec
                .graph
                .subtasks()
                .map(|s| s.stage.index())
                .filter(|&s| s != 0 && s != 4)
                .collect();
            let before = mids.len();
            mids.sort_unstable();
            mids.dedup();
            assert_eq!(mids.len(), before, "branch stages must be distinct");
        }
    }

    #[test]
    fn periodic_set_exact_when_unjittered() {
        let ms = frap_core::time::TimeDelta::from_millis;
        let spec = TaskSpec::pipeline(ms(50), &[ms(1)]).unwrap();
        let mut set = PeriodicSet::new();
        set.add(spec, ms(100));
        let arr = set.arrivals(Time::from_millis(350), 1);
        let times: Vec<u64> = arr.iter().map(|(t, _)| t.as_micros() / 1000).collect();
        assert_eq!(times, vec![0, 100, 200, 300]);
    }

    #[test]
    fn periodic_set_staggering_spreads_phases() {
        let ms = frap_core::time::TimeDelta::from_millis;
        let spec = TaskSpec::pipeline(ms(50), &[ms(1)]).unwrap();
        let mut set = PeriodicSet::new();
        for _ in 0..4 {
            set.add(spec.clone(), ms(100));
        }
        set.stagger_phases();
        let arr = set.arrivals(Time::from_millis(99), 1);
        let times: Vec<u64> = arr.iter().map(|(t, _)| t.as_micros() / 1000).collect();
        assert_eq!(times, vec![0, 25, 50, 75]);
    }

    #[test]
    fn periodic_set_jitter_is_reproducible_and_rate_preserving() {
        let ms = frap_core::time::TimeDelta::from_millis;
        let spec = TaskSpec::pipeline(ms(50), &[ms(1)]).unwrap();
        let build = || {
            let mut set = PeriodicSet::new();
            for _ in 0..3 {
                set.add_with(spec.clone(), ms(100), frap_core::time::TimeDelta::ZERO, 0.8);
            }
            set.arrivals(Time::from_secs(20), 9)
        };
        let a = build();
        let b = build();
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x.0 == y.0));
        // ~3 streams × 200 releases over 20 s.
        assert!((a.len() as i64 - 600).abs() < 60, "len={}", a.len());
    }

    #[test]
    fn merge_keeps_global_order() {
        let a: Vec<_> = PipelineWorkloadBuilder::new(1)
            .seed(1)
            .build()
            .take(20)
            .collect();
        let b: Vec<_> = PipelineWorkloadBuilder::new(1)
            .seed(2)
            .build()
            .take(20)
            .collect();
        let merged = merge_arrivals(vec![a, b]);
        assert_eq!(merged.len(), 40);
        assert!(merged.windows(2).all(|w| w[0].0 <= w[1].0));
    }
}
