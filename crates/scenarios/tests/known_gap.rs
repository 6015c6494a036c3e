//! Pinned reproducers of a known soundness gap (ROADMAP item 1; DESIGN.md
//! §15, "Known gap").
//!
//! The paper's guarantee is zero deadline misses among admitted tasks. On
//! the 60 s `flash_crowd` family a handful of seeds break it — by 0.6 to
//! 51 ms, always a task with a deadline near the top of the 80–250 ms
//! range, i.e. at the lowest deadline-monotonic priority. Shedding is not
//! the cause: base seed 19 misses under plain `Reject` too. Turning idle
//! resets off removes every miss, so the gap is in the reset-on-idle rule
//! as implemented — per-stage counters fall independently, so the
//! per-stage maxima a task meets along its path need not lie jointly
//! inside the region.
//!
//! The smallest known instance is the paper's own Figure 5, which
//! `results/fig5.csv` publishes with one miss: two stages, plain `Reject`,
//! exact contributions, one server a stage, and one late task of 4 008
//! admitted at resolution 2, load 1.5, replication 1.
//!
//! The three `#[ignore]`d tests assert what *should* hold and fail today;
//! run them with `cargo test -p frap-scenarios --test known_gap --
//! --ignored`. The controls and the verdict pins pass, and keep a
//! refactor of the ledger or the simulator from moving these traces
//! unnoticed.

use frap_core::time::Time;
use frap_experiments::fig5;
use frap_experiments::runner::{replication_seed, DEFAULT_BASE_SEED};
use frap_scenarios::{catalog, run_sim_opts, Scenario, ScenarioPolicy};
use frap_sim::pipeline::SimBuilder;
use frap_workload::taskgen::PipelineWorkloadBuilder;

/// `flash_crowd` at the benchmark's 60 s horizon, seeded as `sim_paper`
/// seeds its families: `replication_seed(base, family 2, replication 0)`.
fn flash_crowd(base: u64, policy: ScenarioPolicy) -> Scenario {
    let mut sc = catalog(Time::from_secs(60)).swap_remove(2);
    assert_eq!(sc.name, "flash_crowd");
    sc.seed = replication_seed(base, 2, 0);
    sc.policy = policy;
    sc
}

fn missed(base: u64, policy: ScenarioPolicy, idle_resets: bool) -> (u64, u64) {
    let report = run_sim_opts(&flash_crowd(base, policy), idle_resets).report;
    (report.admitted, report.missed)
}

#[test]
#[ignore = "known gap, ROADMAP item 1"]
fn shedding_flash_crowd_misses_no_deadline() {
    for base in [8, 9] {
        let (admitted, missed) = missed(base, ScenarioPolicy::ShedLessImportant, true);
        assert_eq!(
            missed, 0,
            "base {base}: {missed} of {admitted} admitted tasks late"
        );
    }
}

#[test]
#[ignore = "known gap, ROADMAP item 1"]
fn rejecting_flash_crowd_misses_no_deadline() {
    let (admitted, missed) = missed(19, ScenarioPolicy::Reject, true);
    assert_eq!(
        missed, 0,
        "base 19: {missed} of {admitted} admitted tasks late"
    );
}

/// The control: the same traces with decrement-at-deadline only.
#[test]
fn without_idle_resets_the_same_traces_miss_nothing() {
    for base in [8, 9, 19] {
        for policy in [ScenarioPolicy::ShedLessImportant, ScenarioPolicy::Reject] {
            let (admitted, missed) = missed(base, policy, false);
            assert!(
                admitted > 6_000,
                "base {base} {policy:?}: admitted {admitted}"
            );
            assert_eq!(missed, 0, "base {base} {policy:?}");
        }
    }
}

/// Today's verdicts on the gap seeds, misses included: `(admitted,
/// missed)`. Bit-identical accounting reproduces them exactly; when the
/// gap is closed these change and the `#[ignore]`s above come off.
#[test]
fn gap_seeds_reproduce_the_recorded_verdicts() {
    use ScenarioPolicy::{Reject, ShedLessImportant};
    assert_eq!(missed(8, ShedLessImportant, true), (12_836, 2));
    assert_eq!(missed(9, ShedLessImportant, true), (12_704, 1));
    assert_eq!(missed(19, ShedLessImportant, true), (12_533, 2));
    assert_eq!(missed(19, Reject, true), (11_807, 1));
}

/// Figure 5's point at resolution 2 and load 1.5, replication 1, over
/// 60 s, built as `fig5::run` builds it: `(admitted, missed)`.
fn fig5_gap(idle_resets: bool) -> (u64, u64) {
    let (ri, si) = (0, 2);
    let (resolution, load) = (fig5::RESOLUTIONS[ri], fig5::LOADS[si]);
    assert_eq!((resolution, load), (2.0, 1.5));
    // `fig5::run` numbers its points resolution-major.
    let point = (ri * fig5::LOADS.len() + si) as u64;
    let seed = replication_seed(DEFAULT_BASE_SEED, point, 1);
    assert_eq!(seed, 0xec79_b03e_60d2_4f62);
    let horizon = Time::from_secs(60);
    let arrivals = PipelineWorkloadBuilder::new(fig5::STAGES)
        .resolution(resolution)
        .load(load)
        .seed(seed)
        .build()
        .until(horizon);
    let mut sim = SimBuilder::new(fig5::STAGES)
        .idle_resets(idle_resets)
        .build();
    let metrics = sim.run(arrivals, horizon);
    (metrics.admitted, metrics.missed)
}

#[test]
#[ignore = "known gap, ROADMAP item 1"]
fn figure5_misses_no_deadline() {
    let (admitted, missed) = fig5_gap(true);
    assert_eq!(missed, 0, "{missed} of {admitted} admitted tasks late");
}

/// Today's verdicts on Figure 5's gap point, the one miss included.
#[test]
fn figure5_gap_reproduces_the_recorded_verdicts() {
    assert_eq!(fig5_gap(true), (4_008, 1));
}

/// The control: the same trace with decrement-at-deadline only.
#[test]
fn figure5_without_idle_resets_misses_nothing() {
    let (admitted, missed) = fig5_gap(false);
    assert!(admitted > 2_000, "admitted {admitted}");
    assert_eq!(missed, 0);
}
