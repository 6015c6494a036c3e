//! Golden-value regression suite for the simulator's deterministic
//! aggregates.
//!
//! Re-runs the quick-scale fig1_2, fig3_dag, and table1 parameter points
//! and asserts their [`PointResult::fingerprint`] digests are
//! **bit-identical** to values committed here. The fingerprints were
//! captured from the `HashMap`/`BTreeSet` stage implementation that
//! predates the slab/packed-key rewrite, so any change to scheduling
//! tie-breaks, PCP wake order, seed derivation, or float accumulation
//! order fails loudly instead of silently reshaping `results/*.csv`.
//!
//! If a change is *supposed* to alter results (a new seed scheme, a model
//! fix), re-bless the constants with
//!
//! ```text
//! FRAP_BLESS=1 cargo test -p frap-experiments --test golden_aggregates -- --nocapture
//! ```
//!
//! and paste the printed arrays — and say so in the commit message,
//! because every committed CSV changes with them.

use frap_core::region::{FeasibleRegion, ShapeRegion};
use frap_core::time::{Time, TimeDelta};
use frap_experiments::common::Scale;
use frap_experiments::fig3_dag;
use frap_experiments::runner::{run_point_cfg, PointResult, RunConfig};
use frap_sim::pipeline::{SimBuilder, WaitPolicy};
use frap_workload::taskgen::PipelineWorkloadBuilder;
use frap_workload::tsce::{self, TsceScenario};

/// Quick scale, serial: golden values must not depend on the worker count
/// (they don't — see `tests/parallel_vs_serial.rs` — but the serial path
/// keeps the suite cheap on single-core runners).
fn quick_serial() -> Scale {
    Scale::quick().with_jobs(1)
}

/// The figure 1/2 style point: single-stage pipeline, Poisson load 0.9.
fn fig1_2_point() -> PointResult {
    let horizon = Time::from_secs(quick_serial().horizon_secs);
    run_point_cfg(
        RunConfig::new(quick_serial()).point(0),
        || SimBuilder::new(1).build(),
        |seed| {
            PipelineWorkloadBuilder::new(1)
                .load(0.9)
                .resolution(20.0)
                .seed(seed)
                .build()
                .until(horizon)
        },
    )
}

/// The figure 3 point: fork-join DAG admitted with the Theorem 2 region.
fn fig3_dag_point() -> PointResult {
    let horizon = Time::from_secs(quick_serial().horizon_secs);
    run_point_cfg(
        RunConfig::new(quick_serial()).point(1),
        || {
            SimBuilder::new(fig3_dag::STAGES)
                .idle_resets(false)
                .region(ShapeRegion::new(
                    FeasibleRegion::deadline_monotonic(fig3_dag::STAGES),
                    [fig3_dag::figure3_graph()],
                ))
                .build()
        },
        |seed| fig3_dag::branch_heavy_arrivals(horizon, seed).into_iter(),
    )
}

/// The Table 1 point: the TSCE scenario at 400 tracks with reservations,
/// pre-certified critical tasks, and a 200 ms admission wait queue —
/// exercises reservations, importance bypass, the wait queue, and PCP
/// critical sections in one run.
fn table1_point() -> PointResult {
    let horizon = Time::from_secs(quick_serial().horizon_secs);
    run_point_cfg(
        RunConfig::new(quick_serial()).point(5),
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
                ..TsceScenario::new(400)
            };
            scenario.arrivals(horizon).into_iter()
        },
    )
}

fn check(name: &str, actual: &PointResult, golden: &[u64]) {
    let fp = actual.fingerprint();
    if std::env::var("FRAP_BLESS").is_ok() {
        println!("const GOLDEN_{}: &[u64] = &{:?};", name.to_uppercase(), fp);
        return;
    }
    assert!(actual.offered > 0, "{name}: the point must offer work");
    assert_eq!(
        fp, golden,
        "{name}: quick-scale aggregates diverged from the committed golden \
         fingerprint — a data-structure change reordered ties or altered \
         float accumulation (see module docs for how to re-bless)"
    );
}

const GOLDEN_FIG1_2: &[u64] = &[
    4604837941098450362,
    0,
    4605914114387378552,
    1487,
    1276,
    1274,
    0,
    0,
    0,
    4454,
    4604837941098450362,
    120213,
    4603450468966678940,
];
const GOLDEN_FIG3_DAG: &[u64] = &[
    4599554636926767910,
    0,
    4603430950504986052,
    1562,
    911,
    902,
    0,
    0,
    0,
    6372,
    4588366379556863476,
    4603586877150763858,
    4603508967691960116,
    4588285314763570807,
    3000,
    1249520,
    1240064,
    2773,
    4589227742643267010,
    4603217171970325746,
    4603184550423332458,
    4589227742643267010,
];
const GOLDEN_TABLE1: &[u64] = &[
    4600064479588958340,
    0,
    4607147969376565912,
    6796,
    6770,
    6762,
    0,
    0,
    26,
    21332,
    4604690802306174681,
    4597139391630981202,
    4593311331947716280,
    276000,
    75000,
    50000,
    4601507883269530584,
    4598535507515466056,
    4593311331947716281,
];

#[test]
fn fig1_2_quick_point_matches_golden() {
    check("fig1_2", &fig1_2_point(), GOLDEN_FIG1_2);
}

#[test]
fn fig3_dag_quick_point_matches_golden() {
    check("fig3_dag", &fig3_dag_point(), GOLDEN_FIG3_DAG);
}

#[test]
fn table1_quick_point_matches_golden() {
    check("table1", &table1_point(), GOLDEN_TABLE1);
}
