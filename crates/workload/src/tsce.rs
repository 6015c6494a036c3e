//! The Total Ship Computing Environment scenario (Section 5, Table 1).
//!
//! A three-stage shipboard mission pipeline:
//!
//! | stage | role |
//! |-------|------|
//! | 0 | sensor processing / tracking |
//! | 1 | distribution / planning |
//! | 2 | display / weapon consoles |
//!
//! Critical tasks (Table 1, notional numbers from the paper):
//!
//! | task | kind | D | stage 0 | stage 1 | stage 2 |
//! |------|------|---|---------|---------|---------|
//! | Weapon Detection | aperiodic, hard | 500 ms | 100 ms | 65 ms | 30 ms |
//! | Weapon Targeting | periodic 50 ms, hard | 50 ms | 5 ms | 5 ms | 5 ms |
//! | UAV Video | periodic 500 ms, soft | 500 ms | 50 ms | 10 ms | 50 ms |
//!
//! Reserved synthetic utilizations follow the paper's arithmetic: sum the
//! contributions on stages 0 and 1, take the largest on stage 2 (different
//! tasks use different consoles there), giving `(0.4, 0.25, 0.1)`; Equation
//! (13) evaluates to 0.93 < 1, so the critical set is certifiable.
//!
//! Dynamic load is the Target Tracking work: one 1 ms stage-0 *track
//! update* per track per 1 s period (admitted online, allowed to wait up
//! to 200 ms), plus a 1 Hz *display refresh* task (20 ms distribution +
//! 20 ms display) that presents all tracks — the Table 1 footnote that
//! distributor/display cost is independent of the number of tracks.
//!
//! **Substitutions** (documented in DESIGN.md): the real TSCE hardware is
//! modeled as three independent resources; Weapon Detection/Targeting
//! stage-2 work runs on dedicated consoles/weapon hardware and is charged
//! to the stage-2 reservation via the paper's `max` rule rather than
//! executed on the shared display resource.

use crate::arrivals::{ArrivalProcess, PoissonProcess};
use crate::rng::Rng;
use crate::taskgen::merge_arrivals;
use frap_core::delay::stage_delay_factor;
use frap_core::graph::{TaskGraph, TaskSpec};
use frap_core::task::{Importance, StageId, SubtaskSpec};
use frap_core::time::{Time, TimeDelta};

/// Number of pipeline stages in the TSCE model.
pub const STAGES: usize = 3;

/// Importance level marking pre-certified critical tasks (they bypass
/// online admission; their capacity is reserved).
pub const CRITICAL: Importance = Importance::CRITICAL;

/// Importance of the dynamically admitted tracking load.
pub const TRACKING: Importance = Importance::new(10);

const MS: fn(u64) -> TimeDelta = TimeDelta::from_millis;

/// Weapon Detection: hard aperiodic threat assessment, D = 500 ms,
/// C = (100, 65, —) ms.
pub fn weapon_detection_spec() -> TaskSpec {
    let graph = TaskGraph::chain(vec![
        SubtaskSpec::new(StageId::new(0), MS(100)),
        SubtaskSpec::new(StageId::new(1), MS(65)),
    ])
    .expect("valid chain");
    TaskSpec::new(MS(500), graph).with_importance(CRITICAL)
}

/// Weapon Targeting: hard periodic engagement control, P = D = 50 ms,
/// C = (5, 5, —) ms.
fn weapon_targeting_spec() -> TaskSpec {
    let graph = TaskGraph::chain(vec![
        SubtaskSpec::new(StageId::new(0), MS(5)),
        SubtaskSpec::new(StageId::new(1), MS(5)),
    ])
    .expect("valid chain");
    TaskSpec::new(MS(50), graph).with_importance(CRITICAL)
}

/// UAV reconnaissance video: soft periodic stream, P = D = 500 ms,
/// C = (50, 10, 50) ms.
fn uav_video_spec() -> TaskSpec {
    let graph = TaskGraph::chain(vec![
        SubtaskSpec::new(StageId::new(0), MS(50)),
        SubtaskSpec::new(StageId::new(1), MS(10)),
        SubtaskSpec::new(StageId::new(2), MS(50)),
    ])
    .expect("valid chain");
    TaskSpec::new(MS(500), graph).with_importance(CRITICAL)
}

/// One track update: 1 ms of stage-0 tracking per track per second,
/// D = 1 s, admitted online.
fn track_update_spec() -> TaskSpec {
    let graph = TaskGraph::chain(vec![SubtaskSpec::new(StageId::new(0), MS(1))]).expect("valid");
    TaskSpec::new(TimeDelta::from_secs(1), graph).with_importance(TRACKING)
}

/// The 1 Hz display refresh presenting all tracks: 2 ms/console
/// distribution (10 consoles) + 20 ms display, D = 1 s, admitted online.
fn display_refresh_spec() -> TaskSpec {
    let graph = TaskGraph::chain(vec![
        SubtaskSpec::new(StageId::new(1), MS(20)),
        SubtaskSpec::new(StageId::new(2), MS(20)),
    ])
    .expect("valid chain");
    TaskSpec::new(TimeDelta::from_secs(1), graph).with_importance(TRACKING)
}

/// The reserved synthetic utilizations `(U_1^res, U_2^res, U_3^res)`
/// computed from Table 1 exactly as the paper does: sums on stages 0–1,
/// maximum on stage 2 (per-task consoles).
///
/// # Examples
///
/// ```
/// let r = frap_workload::tsce::reservations();
/// assert!((r[0] - 0.40).abs() < 1e-12);
/// assert!((r[1] - 0.25).abs() < 1e-12);
/// assert!((r[2] - 0.10).abs() < 1e-12);
/// ```
pub fn reservations() -> [f64; STAGES] {
    let report = certification();
    [
        report.reservations[0],
        report.reservations[1],
        report.reservations[2],
    ]
}

/// The full certification plan and report for the Table 1 critical set
/// (Equation 13 against the deadline-monotonic region).
pub fn certification() -> frap_core::certify::CertificationReport {
    use frap_core::certify::ReservationPlan;
    use frap_core::region::FeasibleRegion;

    // Stage-2 (display/weapon) work runs on per-task consoles: reserve
    // the max, not the sum (Table 1: WD 30/500 = 0.06, WT 5/50 = 0.1,
    // UAV 50/500 = 0.1).
    let wd3 = TaskSpec::new(
        MS(500),
        TaskGraph::chain(vec![SubtaskSpec::new(StageId::new(2), MS(30))]).expect("valid"),
    );
    let wt3 = TaskSpec::new(
        MS(50),
        TaskGraph::chain(vec![SubtaskSpec::new(StageId::new(2), MS(5))]).expect("valid"),
    );
    let uav3 = TaskSpec::new(
        MS(500),
        TaskGraph::chain(vec![SubtaskSpec::new(StageId::new(2), MS(50))]).expect("valid"),
    );

    let mut plan = ReservationPlan::new(STAGES);
    // Stages 0 and 1 are shared resources: contributions sum. (The UAV
    // spec also carries stage-2 work for the simulator; that stage is
    // covered by the exclusive group below, so only stages 0–1 are added
    // here.)
    for t in [
        &weapon_detection_spec(),
        &weapon_targeting_spec(),
        &uav_video_spec(),
    ] {
        plan.add_raw(StageId::new(0), t.contribution_at(StageId::new(0)));
        plan.add_raw(StageId::new(1), t.contribution_at(StageId::new(1)));
    }
    plan.add_exclusive_group(StageId::new(2), &[&wd3, &wt3, &uav3]);
    plan.certify(&FeasibleRegion::deadline_monotonic(STAGES))
}

/// Equation (13)'s left-hand side over the reservations — the paper's
/// certification value, ≈ 0.93 (< 1 means the critical set is feasible).
pub fn certification_value() -> f64 {
    reservations().iter().map(|&u| stage_delay_factor(u)).sum()
}

/// Configuration for the runtime capacity experiment of Section 5.
#[derive(Debug, Clone)]
pub struct TsceScenario {
    /// Number of concurrent tracks (each contributes one update per second).
    pub tracks: usize,
    /// Mean arrivals/second of Weapon Detection threat assessments.
    pub weapon_detection_rate: f64,
    /// RNG seed (stagger phases, WD arrivals).
    pub seed: u64,
}

impl TsceScenario {
    /// A scenario with the given number of tracks, 1 WD/s, seed 0.
    pub fn new(tracks: usize) -> TsceScenario {
        TsceScenario {
            tracks,
            weapon_detection_rate: 1.0,
            seed: 0,
        }
    }

    /// Generates the merged, time-sorted arrival sequence up to `horizon`.
    ///
    /// Streams: Weapon Targeting every 50 ms, UAV video every 500 ms,
    /// Weapon Detection as Poisson, one display refresh per second, and
    /// `tracks` track-update streams with phases staggered uniformly over
    /// the 1 s period.
    pub fn arrivals(&self, horizon: Time) -> Vec<(Time, TaskSpec)> {
        let mut rng = Rng::new(self.seed);
        let mut streams: Vec<Vec<(Time, TaskSpec)>> = Vec::new();

        streams.push(periodic(
            weapon_targeting_spec(),
            MS(50),
            Time::ZERO,
            horizon,
        ));
        streams.push(periodic(uav_video_spec(), MS(500), Time::ZERO, horizon));
        streams.push(periodic(
            display_refresh_spec(),
            TimeDelta::from_secs(1),
            Time::ZERO,
            horizon,
        ));

        // Poisson weapon detections.
        let mut wd = Vec::new();
        let mut p = PoissonProcess::new(self.weapon_detection_rate);
        let mut t = Time::ZERO + p.next_gap(&mut rng);
        while t <= horizon {
            wd.push((t, weapon_detection_spec()));
            t += p.next_gap(&mut rng);
        }
        streams.push(wd);

        // Track updates: phases staggered over the second.
        let period = TimeDelta::from_secs(1);
        for i in 0..self.tracks {
            let phase =
                TimeDelta::from_micros((i as u64 * period.as_micros()) / self.tracks.max(1) as u64);
            streams.push(periodic(
                track_update_spec(),
                period,
                Time::ZERO + phase,
                horizon,
            ));
        }

        merge_arrivals(streams)
    }
}

fn periodic(
    spec: TaskSpec,
    period: TimeDelta,
    phase: Time,
    horizon: Time,
) -> Vec<(Time, TaskSpec)> {
    let mut out = Vec::new();
    let mut t = phase;
    while t <= horizon {
        out.push((t, spec.clone()));
        t += period;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservations_match_paper() {
        let r = reservations();
        assert!((r[0] - 0.40).abs() < 1e-12, "stage 0: {}", r[0]);
        assert!((r[1] - 0.25).abs() < 1e-12, "stage 1: {}", r[1]);
        assert!((r[2] - 0.10).abs() < 1e-12, "stage 2: {}", r[2]);
    }

    #[test]
    fn certification_value_is_093() {
        let v = certification_value();
        assert!((v - 0.93).abs() < 0.005, "v={v}");
        assert!(v < 1.0, "the critical set must certify");
    }

    #[test]
    fn table1_contributions() {
        let wd = weapon_detection_spec();
        assert!((wd.contribution_at(StageId::new(0)) - 0.2).abs() < 1e-12);
        assert!((wd.contribution_at(StageId::new(1)) - 0.13).abs() < 1e-12);
        let wt = weapon_targeting_spec();
        assert!((wt.contribution_at(StageId::new(0)) - 0.1).abs() < 1e-12);
        assert!((wt.contribution_at(StageId::new(1)) - 0.1).abs() < 1e-12);
        let uav = uav_video_spec();
        assert!((uav.contribution_at(StageId::new(0)) - 0.1).abs() < 1e-12);
        assert!((uav.contribution_at(StageId::new(1)) - 0.02).abs() < 1e-12);
        assert!((uav.contribution_at(StageId::new(2)) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn critical_tasks_are_marked() {
        assert_eq!(weapon_detection_spec().importance, CRITICAL);
        assert_eq!(weapon_targeting_spec().importance, CRITICAL);
        assert_eq!(uav_video_spec().importance, CRITICAL);
        assert_eq!(track_update_spec().importance, TRACKING);
        assert!(CRITICAL > TRACKING);
    }

    #[test]
    fn arrivals_are_sorted_and_scale_with_tracks() {
        let horizon = Time::from_secs(2);
        let small = TsceScenario::new(10).arrivals(horizon);
        let large = TsceScenario::new(100).arrivals(horizon);
        assert!(small.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(large.len() > small.len());
        // Weapon targeting fires 41 times in [0, 2] s (t = 0, 50 ms, …).
        let wt_count = small.iter().filter(|(_, s)| s.deadline == MS(50)).count();
        assert_eq!(wt_count, 41);
    }

    #[test]
    fn track_phases_are_staggered() {
        let horizon = Time::from_secs(1);
        let arr = TsceScenario::new(4).arrivals(horizon);
        let track_times: Vec<Time> = arr
            .iter()
            .filter(|(_, s)| s.importance == TRACKING && s.graph.len() == 1)
            .map(|&(t, _)| t)
            .collect();
        // 4 tracks staggered at 0, 250, 500, 750 ms (plus second period).
        assert!(track_times.contains(&Time::from_millis(0)));
        assert!(track_times.contains(&Time::from_millis(250)));
        assert!(track_times.contains(&Time::from_millis(500)));
        assert!(track_times.contains(&Time::from_millis(750)));
    }

    #[test]
    fn scenario_is_deterministic() {
        let a = TsceScenario::new(20).arrivals(Time::from_secs(1));
        let b = TsceScenario::new(20).arrivals(Time::from_secs(1));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.0, y.0);
        }
    }
}
