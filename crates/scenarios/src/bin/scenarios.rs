//! Scenario runner: drives every catalog scenario through the simulator
//! (and one through the live gateway), printing per-scenario admission
//! reports. A full-horizon run also writes them as CSV under
//! `results/scenarios/`; a `--quick` run writes nothing there.
//!
//! ```text
//! cargo run --release -p frap-scenarios --bin scenarios -- [flags]
//!
//!   --quick             8 s horizon instead of 60 s
//!   --jobs N            worker threads for the sim runs (0 = hardware)
//!   --no-gateway        skip the live-gateway replay (the serverless
//!                       trace at 1/20 time scale)
//!   --save-traces DIR   also write each generated trace as a
//!                       `frap-arrivals v2` file under DIR (loadable,
//!                       tenants and scenario line included, with
//!                       `frap_workload::replay::load_trace`)
//! ```
//!
//! Every admitted-and-completed task in the simulator is checked against
//! its end-to-end deadline; this binary asserts `missed == 0` for every
//! scenario — the feasible-region guarantee, exercised under cloud-shaped
//! load. An unknown flag exits 2 and lists the valid ones; so does a
//! `--jobs` without a worker count.

use frap_core::time::Time;
use frap_experiments::common::{f, Scale, Table};
use frap_experiments::runner::fan_out;
use frap_scenarios::runner::{run_gateway, run_sim};
use frap_scenarios::{catalog, ScenarioPolicy};
use frap_sim::metrics::AdmitDecision;

/// Time compression of the live-gateway replay: durations and gaps are
/// divided by this factor, so every `C/D` ratio is preserved.
const GATEWAY_SCALE: u64 = 20;

fn policy_name(p: ScenarioPolicy) -> &'static str {
    match p {
        ScenarioPolicy::Reject => "reject",
        ScenarioPolicy::ShedLessImportant => "shed",
    }
}

fn main() {
    let scale = Scale::from_args();
    let mut no_gateway = false;
    let mut save_traces = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => {}
            "--jobs" => {
                // `Scale::from_args` has checked the value.
                args.next();
            }
            "--no-gateway" => no_gateway = true,
            "--save-traces" => {
                save_traces = Some(args.next().expect("--save-traces requires a directory"));
            }
            _ => {
                eprintln!(
                    "unknown flag `{arg}`; valid: --quick --jobs N --no-gateway --save-traces DIR"
                );
                std::process::exit(2);
            }
        }
    }
    let publish = scale.is_publication();
    let horizon_secs = scale.horizon_secs;
    let horizon = Time::from_secs(horizon_secs);

    let scenarios = catalog(horizon);
    println!(
        "scenarios: {} families at {horizon_secs}s horizon",
        scenarios.len()
    );

    let runs = fan_out(scenarios.len(), scale.jobs, |i| run_sim(&scenarios[i]));

    if let Some(dir) = save_traces {
        std::fs::create_dir_all(&dir).expect("create trace directory");
        for (sc, run) in scenarios.iter().zip(&runs) {
            let path = format!("{dir}/{}.trace", sc.name);
            frap_workload::replay::save_trace(&path, &run.trace).expect("write trace");
            println!("saved          {path} ({} arrivals)", run.trace.len());
        }
    }

    let mut summary = Table::new(
        format!("scenario admission summary ({horizon_secs}s horizon, sim backend)"),
        &[
            "scenario",
            "policy",
            "offered",
            "admitted",
            "acceptance",
            "rejected",
            "shed",
            "completed",
            "missed",
        ],
    );
    let mut total_events = 0u64;
    let mut total_wall = 0.0f64;
    for (sc, run) in scenarios.iter().zip(&runs) {
        let r = &run.report;
        assert_eq!(
            r.missed, 0,
            "{}: an admitted task missed its deadline — the region test failed",
            sc.name
        );
        total_events += r.events_processed;
        total_wall += r.wall_secs;
        summary.push_row(vec![
            sc.name.to_string(),
            policy_name(sc.policy).to_string(),
            r.offered.to_string(),
            r.admitted.to_string(),
            f(r.acceptance_ratio()),
            r.rejected.to_string(),
            r.shed.to_string(),
            r.completed.to_string(),
            r.missed.to_string(),
        ]);
    }
    summary.print();
    if publish {
        summary.write_csv("scenarios/summary");
    }

    for (sc, run) in scenarios.iter().zip(&runs) {
        let r = &run.report;
        let mut tenants = Table::new(
            format!("{}: per-tenant admission", sc.name),
            &[
                "tenant",
                "name",
                "offered",
                "admitted",
                "admit share",
                "shed",
            ],
        );
        for row in &r.tenants {
            tenants.push_row(vec![
                row.tenant.to_string(),
                row.name.clone(),
                row.offered.to_string(),
                row.admitted.to_string(),
                f(row.admitted as f64 / r.admitted.max(1) as f64),
                row.shed.to_string(),
            ]);
        }
        let mut importance = Table::new(
            format!("{}: shed by importance", sc.name),
            &["importance", "offered", "admitted", "shed", "shed share"],
        );
        for row in &r.importances {
            importance.push_row(vec![
                row.importance.to_string(),
                row.offered.to_string(),
                row.admitted.to_string(),
                row.shed.to_string(),
                f(row.shed as f64 / r.shed.max(1) as f64),
            ]);
        }
        tenants.print();
        importance.print();
        if publish {
            tenants.write_csv(&format!("scenarios/{}_tenants", sc.name));
            importance.write_csv(&format!("scenarios/{}_importance", sc.name));
        }
    }

    let events_per_sec = if total_wall > 0.0 {
        total_events as f64 / total_wall
    } else {
        0.0
    };
    println!(
        "[perf] scenarios: {total_wall:.3} s wall, {total_events} events, \
         {events_per_sec:.0} events/s"
    );

    // Live-gateway replay: the same serverless trace, time-compressed,
    // through real TCP against the production admission path.
    if !no_gateway {
        let sc = scenarios
            .iter()
            .find(|s| s.name == "serverless")
            .expect("serverless scenario in catalog");
        // Reference for the wire comparison: the sim without idle resets.
        // The gateway never observes stage-idle instants and the replay
        // holds tickets to their deadlines, so charge-till-deadline is
        // the accounting both sides share; the canonical (reset-on-idle)
        // report above admits strictly more.
        let sim = frap_scenarios::run_sim_opts(sc, false);
        let run = run_gateway(sc, GATEWAY_SCALE).expect("gateway replay");
        let gw = &run.report;
        let tolerance = (sim.report.admitted as f64 * 0.10).max(25.0);
        let delta = gw.admitted.abs_diff(sim.report.admitted);
        println!(
            "gateway replay (scale 1/{GATEWAY_SCALE}): offered={} admitted={} \
             rejected={} expired={} expired+rejected share={} vs sim admitted={} \
             (delta {delta}, tolerance {tolerance:.0}; sends behind schedule by \
             {:?} at most)",
            gw.offered,
            gw.admitted,
            run.count(AdmitDecision::Rejected),
            run.count(AdmitDecision::TimedOut),
            f(1.0 - gw.acceptance_ratio()),
            sim.report.admitted,
            run.max_send_lag,
        );
        assert!(
            (delta as f64) <= tolerance,
            "gateway replay diverged from sim: {} vs {} (tolerance {tolerance:.0})",
            gw.admitted,
            sim.report.admitted
        );
    }
}
