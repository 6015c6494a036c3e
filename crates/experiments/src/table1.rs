//! Table 1 / Section 5 — the Total Ship Computing Environment case study.
//!
//! Two questions, as the paper poses them:
//!
//! 1. **Certification** — are Weapon Detection, Weapon Targeting and UAV
//!    video schedulable concurrently? Compute the reserved synthetic
//!    utilizations (0.4, 0.25, 0.1) and Equation (13)'s value (0.93 < 1).
//! 2. **Runtime capacity** — with that capacity reserved, how many Target
//!    Tracking tasks can be admitted dynamically (arrivals may wait up to
//!    200 ms at the admission controller)? The paper reports ≈ 550
//!    concurrent tracks with stage 1 the bottleneck at ≈ 95 % utilization,
//!    thanks to the idle-reset rule.

use crate::common::{f, Scale, Table};
use crate::runner::{perf, run_point_cfg, RunConfig};
use frap_core::time::{Time, TimeDelta};
use frap_sim::pipeline::{SimBuilder, WaitPolicy};
use frap_workload::tsce::{self, TsceScenario};

/// Track counts swept when searching for capacity.
pub const TRACK_SWEEP: [usize; 8] = [100, 200, 300, 400, 500, 550, 600, 700];

/// Runs both parts and returns the capacity table with the certification
/// table attached as `table1_certification`.
pub fn run(scale: Scale) -> Table {
    // Part 1: certification arithmetic.
    let res = tsce::reservations();
    let cert = tsce::certification_value();
    let mut cert_table = Table::new(
        "Table 1 (certification): reserved synthetic utilizations and Eq. (13)",
        &["quantity", "paper", "measured"],
    );
    cert_table.push_row(vec!["U_res stage 1".into(), "0.40".into(), f(res[0])]);
    cert_table.push_row(vec!["U_res stage 2".into(), "0.25".into(), f(res[1])]);
    cert_table.push_row(vec!["U_res stage 3".into(), "0.10".into(), f(res[2])]);
    cert_table.push_row(vec!["Eq.(13) value".into(), "0.93".into(), f(cert)]);
    cert_table.push_row(vec![
        "certifiable (< 1)".into(),
        "yes".into(),
        if cert < 1.0 {
            "yes".into()
        } else {
            "no".into()
        },
    ]);
    cert_table.print();

    // Part 2: runtime track capacity.
    let mut table = Table::new(
        "Table 1 (runtime): track capacity with 200 ms admission wait",
        &[
            "tracks",
            "track_accept_ratio",
            "stage1_util",
            "stage2_util",
            "stage3_util",
            "wait_timeouts",
            "missed",
        ],
    );
    let span = perf::Span::new();
    let horizon_secs = scale.horizon_secs.max(5);
    let horizon = Time::from_secs(horizon_secs);
    let scale = Scale {
        horizon_secs,
        ..scale
    };
    let mut capacity = 0usize;
    for (pi, &tracks) in TRACK_SWEEP.iter().enumerate() {
        // Each replication re-seeds the scenario's phase/arrival draws; the
        // aggregates below average per-stage utilizations across seeds.
        let r = run_point_cfg(
            RunConfig::new(scale).point(pi as u64),
            || {
                SimBuilder::new(tsce::STAGES)
                    .reservations(tsce::reservations().to_vec())
                    .reserved_importance(tsce::CRITICAL)
                    .wait(WaitPolicy::WaitUpTo(TimeDelta::from_millis(200)))
                    .build()
            },
            |seed| {
                let scenario = TsceScenario {
                    seed,
                    ..TsceScenario::new(tracks)
                };
                scenario.arrivals(horizon).into_iter()
            },
        );
        if r.wait_timeouts == 0 && r.missed == 0 {
            capacity = capacity.max(tracks);
        }
        table.push_row(vec![
            tracks.to_string(),
            f(r.acceptance),
            f(r.per_stage_util[0]),
            f(r.per_stage_util[1]),
            f(r.per_stage_util[2]),
            r.wait_timeouts.to_string(),
            r.missed.to_string(),
        ]);
    }
    table
        .attached
        .push(("table1_certification".into(), cert_table));
    println!(
        "[table1] largest swept track count fully admitted (no timeouts, no misses): {capacity} \
         (paper: ~550, stage 1 ≈ 95% utilization)"
    );
    span.report("table1");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn certification_matches_paper() {
        let v = tsce::certification_value();
        assert!((v - 0.93).abs() < 0.005);
    }

    #[test]
    fn capacity_run_has_stage1_bottleneck() {
        let scale = Scale {
            horizon_secs: 5,
            replications: 1,
            jobs: 1,
        };
        let t = run(scale);
        assert_eq!(t.rows.len(), TRACK_SWEEP.len());
        // At the highest track count, stage 1 is the bottleneck.
        let last = t.rows.last().unwrap();
        let s1: f64 = last[2].parse().unwrap();
        let s2: f64 = last[3].parse().unwrap();
        let s3: f64 = last[4].parse().unwrap();
        assert!(
            s1 > s2 && s1 > s3,
            "stage 1 must be the bottleneck: {s1} {s2} {s3}"
        );
        assert!(s1 > 0.5, "stage 1 should be heavily utilized: {s1}");
        // Critical tasks never miss.
        for row in &t.rows {
            assert_eq!(row[6], "0", "no deadline misses in the TSCE scenario");
        }
    }
}
