//! Replication runner: executes one parameter point across seeds —
//! serially or fanned out over a scoped thread pool ([`fan_out`], which
//! the scenarios binary uses for its families too) — and aggregates the
//! metrics the figures need.
//!
//! # Determinism contract
//!
//! Every replication of a parameter point draws its workload seed from
//! [`replication_seed`]`(`[`DEFAULT_BASE_SEED`]`, point, rep)`, a
//! SplitMix64-style hash of the three coordinates. The contract:
//!
//! 1. **Seeds depend only on coordinates.** Neither the worker-thread
//!    count ([`Scale::jobs`](crate::common::Scale)) nor the order in which
//!    replications happen to finish enters the hash, so replication `rep`
//!    of point `point` sees the same arrival stream everywhere.
//! 2. **Replications are merged in replication-index order.** Workers
//!    deposit each finished replication's outcome into a slot indexed
//!    by its replication number; the reduction then folds the slots
//!    `0, 1, …, R-1` exactly as the serial loop would. Floating-point
//!    accumulation order is therefore fixed, making parallel aggregates
//!    **bit-identical** to serial ones (`tests/parallel_vs_serial.rs`
//!    enforces this differentially).
//! 3. **Max-merged fields are order-independent anyway.** Per-stage peak
//!    synthetic utilization and maximum stage delay combine with `max`,
//!    which is commutative and associative over the (NaN-free) values the
//!    simulator produces.
//!
//! Changing the base seed, the point index, or the replication count changes
//! the sampled streams (and is a results-affecting change); changing
//! `jobs` never does.

use crate::common::Scale;
use frap_core::graph::TaskSpec;
use frap_core::task::StageId;
use frap_core::time::{Time, TimeDelta};
use frap_sim::pipeline::Simulation;
use std::time::Instant;

/// The base seed every experiment's replication seeds derive from.
pub const DEFAULT_BASE_SEED: u64 = 0x5EED_0000;

/// The SplitMix64 finalizer (full-avalanche 64-bit mix).
#[inline]
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The workload seed for replication `rep` of parameter point `point`
/// under `base_seed`: `mix(mix(mix(base_seed) ^ point) ^ rep)` with `mix`
/// the SplitMix64 finalizer. See the module docs for the contract.
pub fn replication_seed(base_seed: u64, point: u64, rep: u64) -> u64 {
    mix(mix(mix(base_seed) ^ point) ^ rep)
}

/// One parameter point's execution coordinates: the scale and the
/// point's index within its sweep (so sweeps decorrelate without the
/// figure modules inventing ad-hoc seed arithmetic).
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Problem size and parallelism.
    pub scale: Scale,
    /// Index of this point within its sweep.
    pub point: u64,
}

impl RunConfig {
    /// A config for `scale` at point 0.
    pub fn new(scale: Scale) -> RunConfig {
        RunConfig { scale, point: 0 }
    }

    /// Sets the point index.
    pub fn point(mut self, point: u64) -> RunConfig {
        self.point = point;
        self
    }
}

/// Aggregated results of one parameter point (averaged over replications).
#[derive(Debug, Clone, Default)]
pub struct PointResult {
    /// Mean real utilization across stages.
    pub mean_util: f64,
    /// Per-stage mean real utilization.
    pub per_stage_util: Vec<f64>,
    /// Miss ratio among completed admitted tasks.
    pub miss_ratio: f64,
    /// Fraction of offered tasks admitted.
    pub acceptance: f64,
    /// Total tasks offered (summed over replications).
    pub offered: u64,
    /// Total tasks admitted.
    pub admitted: u64,
    /// Total completed.
    pub completed: u64,
    /// Total deadline misses among completed tasks.
    pub missed: u64,
    /// Total admitted tasks shed at overload.
    pub shed: u64,
    /// Total wait-queue timeouts.
    pub wait_timeouts: u64,
    /// Largest stage delay observed at each stage across replications
    /// (the simulated `L_j`; compare against `f(U_j)·D_max`).
    pub per_stage_delay_max: Vec<TimeDelta>,
    /// Peak synthetic utilization observed at each stage across
    /// replications (the `U_j` entering the Theorem 1 bound).
    pub per_stage_peak_synth: Vec<f64>,
    /// Total simulator events processed (deterministic).
    pub events: u64,
    /// Wall-clock seconds spent on this point (*not* deterministic;
    /// excluded from [`PointResult::fingerprint`]).
    pub wall_secs: f64,
}

impl PointResult {
    /// A canonical bit-level digest of every *deterministic* field (floats
    /// via [`f64::to_bits`]; wall-clock time excluded). Two runs of the
    /// same point agree on their fingerprints iff their aggregates are
    /// bit-identical — this is what the differential suite compares.
    pub fn fingerprint(&self) -> Vec<u64> {
        let mut out = vec![
            self.mean_util.to_bits(),
            self.miss_ratio.to_bits(),
            self.acceptance.to_bits(),
            self.offered,
            self.admitted,
            self.completed,
            self.missed,
            self.shed,
            self.wait_timeouts,
            self.events,
        ];
        out.extend(self.per_stage_util.iter().map(|u| u.to_bits()));
        out.extend(self.per_stage_delay_max.iter().map(|d| d.as_micros()));
        out.extend(self.per_stage_peak_synth.iter().map(|u| u.to_bits()));
        out
    }

    /// Simulator throughput for this point (events per wall-clock second).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.events as f64 / self.wall_secs
        } else {
            0.0
        }
    }
}

/// One replication's record: its own counts and ratios, with
/// `wall_secs = 0` (the point's wall time is measured around the fan-out).
fn run_replication<S, A, I>(
    seed: u64,
    horizon: Time,
    make_sim: &S,
    make_arrivals: &A,
) -> PointResult
where
    S: Fn() -> Simulation,
    A: Fn(u64) -> I,
    I: Iterator<Item = (Time, TaskSpec)>,
{
    let mut sim = make_sim();
    let m = sim.run(make_arrivals(seed), horizon);
    let stages = m.stages.len();
    PointResult {
        mean_util: m.mean_stage_utilization(),
        per_stage_util: (0..stages).map(|j| m.stage_utilization(j)).collect(),
        miss_ratio: m.miss_ratio(),
        acceptance: m.acceptance_ratio(),
        offered: m.offered,
        admitted: m.admitted,
        completed: m.completed,
        missed: m.missed,
        shed: m.shed,
        wait_timeouts: m.wait_timeouts,
        events: m.events_processed,
        per_stage_delay_max: m.stages.iter().map(|s| s.stage_delay_max).collect(),
        per_stage_peak_synth: (0..stages)
            .map(|j| sim.admission().state().stage(StageId::new(j)).peak())
            .collect(),
        wall_secs: 0.0,
    }
}

/// Folds replication records in index order (the shared reduction of the
/// serial and parallel paths; see the module docs).
fn reduce(outcomes: &[PointResult]) -> PointResult {
    let mut out = PointResult::default();
    let mut util_sum = 0.0;
    let mut per_stage: Vec<f64> = Vec::new();
    let mut miss_sum = 0.0;
    let mut acc_sum = 0.0;
    for o in outcomes {
        util_sum += o.mean_util;
        if per_stage.is_empty() {
            per_stage = vec![0.0; o.per_stage_util.len()];
            out.per_stage_delay_max = vec![TimeDelta::ZERO; o.per_stage_util.len()];
            out.per_stage_peak_synth = vec![0.0; o.per_stage_util.len()];
        }
        for (slot, &u) in per_stage.iter_mut().zip(&o.per_stage_util) {
            *slot += u;
        }
        for (slot, &d) in out
            .per_stage_delay_max
            .iter_mut()
            .zip(&o.per_stage_delay_max)
        {
            *slot = (*slot).max(d);
        }
        for (slot, &p) in out
            .per_stage_peak_synth
            .iter_mut()
            .zip(&o.per_stage_peak_synth)
        {
            *slot = slot.max(p);
        }
        miss_sum += o.miss_ratio;
        acc_sum += o.acceptance;
        out.offered += o.offered;
        out.admitted += o.admitted;
        out.completed += o.completed;
        out.missed += o.missed;
        out.shed += o.shed;
        out.wait_timeouts += o.wait_timeouts;
        out.events += o.events;
    }
    let n = outcomes.len().max(1) as f64;
    out.mean_util = util_sum / n;
    out.per_stage_util = per_stage.iter().map(|&u| u / n).collect();
    out.miss_ratio = miss_sum / n;
    out.acceptance = acc_sum / n;
    out
}

/// Runs `scale.replications` independent simulations of one parameter
/// point and aggregates them, using `scale.jobs` worker threads.
///
/// `make_sim` builds a fresh simulation per replication; `make_arrivals`
/// produces the (sorted) arrival stream for the given seed. Both may be
/// called concurrently from worker threads (hence `Fn + Sync`); each
/// `Simulation` itself lives and dies on a single worker.
pub fn run_point_cfg<S, A, I>(cfg: RunConfig, make_sim: S, make_arrivals: A) -> PointResult
where
    S: Fn() -> Simulation + Sync,
    A: Fn(u64) -> I + Sync,
    I: Iterator<Item = (Time, TaskSpec)>,
{
    let start = Instant::now();
    let horizon = Time::from_secs(cfg.scale.horizon_secs);
    let outcomes = fan_out(cfg.scale.replications as usize, cfg.scale.jobs, |rep| {
        let seed = replication_seed(DEFAULT_BASE_SEED, cfg.point, rep as u64);
        run_replication(seed, horizon, &make_sim, &make_arrivals)
    });

    let mut result = reduce(&outcomes);
    result.wall_secs = start.elapsed().as_secs_f64();
    perf::record(result.events, start.elapsed());
    result
}

/// The worker count for `tasks` independent tasks under a `jobs` request
/// (`0` = hardware parallelism), clamped to `1..=tasks` (extra threads
/// would idle).
pub(crate) fn workers(jobs: usize, tasks: usize) -> usize {
    let requested = if jobs == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        jobs
    };
    requested.clamp(1, tasks.max(1))
}

/// Runs `task(i)` for every `i` in `0..count` and returns the results in
/// index order, on up to `jobs` scoped worker threads (`0` = hardware
/// parallelism). With one worker this is the plain serial map.
///
/// Worker `w` takes tasks `w, w + jobs, w + 2·jobs, …` and each result
/// lands in its index's slot, so the order of the returned results (and
/// of any fold over them) never depends on which worker finished first.
pub fn fan_out<T, F>(count: usize, jobs: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = workers(jobs, count);
    if jobs == 1 {
        return (0..count).map(task).collect();
    }
    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(count, || None);
    std::thread::scope(|scope| {
        let task = &task;
        let handles: Vec<_> = (0..jobs)
            .map(|w| {
                scope.spawn(move || {
                    (w..count)
                        .step_by(jobs)
                        .map(|i| (i, task(i)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (i, result) in handle.join().expect("fan-out worker panicked") {
                slots[i] = Some(result);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every task ran"))
        .collect()
}

/// Process-wide throughput accounting for the experiment harness: every
/// [`run_point_cfg`] call adds its event count and wall time here, and the
/// figure modules / binaries report deltas via [`perf::Span`].
pub mod perf {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::{Duration, Instant};

    static EVENTS: AtomicU64 = AtomicU64::new(0);
    static WALL_NANOS: AtomicU64 = AtomicU64::new(0);
    static POINTS: AtomicU64 = AtomicU64::new(0);

    pub(super) fn record(events: u64, wall: Duration) {
        EVENTS.fetch_add(events, Ordering::Relaxed);
        WALL_NANOS.fetch_add(wall.as_nanos() as u64, Ordering::Relaxed);
        POINTS.fetch_add(1, Ordering::Relaxed);
    }

    /// Credits simulator events that ran outside the replication runner
    /// (modules that drive a [`frap_sim::pipeline::Simulation`] directly),
    /// so their work still shows up in `[perf]` throughput lines.
    pub fn note_events(events: u64) {
        EVENTS.fetch_add(events, Ordering::Relaxed);
    }

    /// Cumulative counters at one instant.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Snapshot {
        /// Simulator events processed by all finished points.
        pub events: u64,
        /// Summed per-point wall time, nanoseconds (≥ real elapsed time
        /// when points themselves run concurrently).
        pub wall_nanos: u64,
        /// Parameter points completed.
        pub points: u64,
    }

    /// The current cumulative counters.
    pub fn snapshot() -> Snapshot {
        Snapshot {
            events: EVENTS.load(Ordering::Relaxed),
            wall_nanos: WALL_NANOS.load(Ordering::Relaxed),
            points: POINTS.load(Ordering::Relaxed),
        }
    }

    /// Measures the runner work inside a region of code: snapshot deltas
    /// for events/points, a real wall clock for elapsed time.
    #[derive(Debug)]
    pub struct Span {
        at_start: Snapshot,
        started: Instant,
    }

    impl Span {
        /// Starts measuring.
        #[allow(clippy::new_without_default)]
        pub fn new() -> Span {
            Span {
                at_start: snapshot(),
                started: Instant::now(),
            }
        }

        /// Events processed since the span started.
        pub fn events(&self) -> u64 {
            snapshot().events - self.at_start.events
        }

        /// Real elapsed time since the span started.
        pub fn elapsed(&self) -> Duration {
            self.started.elapsed()
        }

        /// Formats and prints a `[perf]` line: label, wall time, events,
        /// throughput, and points covered. Returns the line.
        pub fn report(&self, label: &str) -> String {
            let now = snapshot();
            let events = now.events - self.at_start.events;
            let points = now.points - self.at_start.points;
            let wall = self.started.elapsed().as_secs_f64();
            let rate = if wall > 0.0 {
                events as f64 / wall
            } else {
                0.0
            };
            let line = format!(
                "[perf] {label}: {wall:.3} s wall, {events} events, \
                 {:.3} M events/s, {points} points",
                rate / 1e6
            );
            println!("{line}");
            line
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frap_sim::pipeline::SimBuilder;
    use frap_workload::taskgen::PipelineWorkloadBuilder;

    fn scale(replications: u64, jobs: usize) -> Scale {
        Scale {
            horizon_secs: 2,
            replications,
            jobs,
        }
    }

    fn run_with(scale: Scale) -> PointResult {
        let horizon = Time::from_secs(scale.horizon_secs);
        run_point_cfg(
            RunConfig::new(scale),
            || SimBuilder::new(2).build(),
            move |seed| {
                PipelineWorkloadBuilder::new(2)
                    .load(0.5)
                    .seed(seed)
                    .build()
                    .until(horizon)
            },
        )
    }

    #[test]
    fn aggregates_over_replications() {
        let r = run_with(scale(2, 1));
        assert!(r.offered > 0);
        assert!(r.mean_util > 0.0 && r.mean_util < 1.0);
        assert_eq!(r.per_stage_util.len(), 2);
        assert_eq!(r.per_stage_delay_max.len(), 2);
        assert_eq!(r.per_stage_peak_synth.len(), 2);
        assert_eq!(r.missed, 0, "exact admission never misses");
        assert!(r.events > 0, "event counting is wired through");
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        let serial = run_with(scale(4, 1));
        let parallel = run_with(scale(4, 4));
        assert_eq!(serial.fingerprint(), parallel.fingerprint());
    }

    #[test]
    fn seed_derivation_decorrelates_coordinates() {
        let s = replication_seed(DEFAULT_BASE_SEED, 0, 0);
        assert_ne!(s, replication_seed(DEFAULT_BASE_SEED, 0, 1));
        assert_ne!(s, replication_seed(DEFAULT_BASE_SEED, 1, 0));
        assert_ne!(s, replication_seed(DEFAULT_BASE_SEED + 1, 0, 0));
        // Stable: the recorded-seed contract.
        assert_eq!(s, replication_seed(DEFAULT_BASE_SEED, 0, 0));
    }

    #[test]
    fn perf_counters_accumulate() {
        let span = perf::Span::new();
        let r = run_with(scale(1, 1));
        assert!(span.events() >= r.events);
        let line = span.report("runner-test");
        assert!(line.contains("runner-test"));
    }
}
