//! The serverless scenario replayed through the live gateway at 1/20 time
//! scale must admit within tolerance of the simulator without idle
//! resets (charge-till-deadline on both sides: see `run_sim_opts`).
//!
//! The replay paces 600 ms of trace into 30 ms of wall clock, so a few
//! milliseconds of scheduling delay move its verdicts. It is its own test
//! target, so no sibling test shares its cores, and CI repeats it; a
//! failure reports the gateway's rejected and expired counts and how far
//! the sends fell behind schedule.

use frap_core::time::Time;
use frap_scenarios::{catalog, run_gateway, run_sim_opts};
use frap_sim::metrics::AdmitDecision;

#[test]
fn gateway_replay_stays_within_tolerance() {
    let mut sc = catalog(Time::from_millis(600))
        .into_iter()
        .find(|s| s.name == "serverless")
        .expect("scenario in catalog");
    sc.horizon = Time::from_millis(600);
    let sim = run_sim_opts(&sc, false);
    let gw = run_gateway(&sc, 20).expect("gateway replay");
    assert_eq!(gw.report.offered, sim.report.offered);
    let tolerance = (sim.report.admitted as f64 * 0.1).max(25.0);
    let delta = gw.report.admitted.abs_diff(sim.report.admitted);
    assert!(
        (delta as f64) <= tolerance,
        "gateway admitted {} vs sim {} (tolerance {tolerance}); gateway rejected {}, \
         expired {}; sends fell behind schedule by {:?} at most, {:?} on average",
        gw.report.admitted,
        sim.report.admitted,
        gw.count(AdmitDecision::Rejected),
        gw.count(AdmitDecision::TimedOut),
        gw.max_send_lag,
        gw.mean_send_lag,
    );
}
