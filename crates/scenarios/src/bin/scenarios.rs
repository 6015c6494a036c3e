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
//!   --save-traces DIR   also write each generated trace as a
//!                       `frap-arrivals v2` file under DIR (loadable,
//!                       tenants and scenario line included, with
//!                       `frap_workload::replay::load_trace`)
//! ```
//!
//! Every admitted-and-completed task in the simulator is checked against
//! its end-to-end deadline; this binary asserts `missed == 0` for every
//! scenario — the feasible-region guarantee, exercised under cloud-shaped
//! load. It then replays the serverless trace through a live gateway in
//! lock-step on the trace's clock and asserts that every verdict is the
//! simulator's. An unknown flag, or a `--jobs` or `--save-traces`
//! without its value, exits 2; a trace that cannot be saved exits 1.

use frap_core::time::Time;
use frap_experiments::common::{exit_quietly_when_stdout_closes, f, Scale, Table};
use frap_experiments::runner::fan_out;
use frap_scenarios::runner::{run_gateway, run_sim, run_sim_opts, SimRun};
use frap_scenarios::{catalog, Scenario, ScenarioPolicy};

fn policy_name(p: ScenarioPolicy) -> &'static str {
    match p {
        ScenarioPolicy::Reject => "reject",
        ScenarioPolicy::ShedLessImportant => "shed",
    }
}

/// The `--save-traces` directory, if any, from this program's arguments.
/// `--quick` and `--jobs N` are [`Scale::parse`]'s.
///
/// # Errors
///
/// An unknown flag, or a `--save-traces` without a directory.
fn save_traces_dir(args: &[String]) -> Result<Option<String>, String> {
    let mut dir = None;
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--quick" => {}
            "--jobs" => {
                rest.next();
            }
            "--save-traces" => {
                let value = rest.next().filter(|d| !d.starts_with("--"));
                dir = Some(value.ok_or("`--save-traces` needs a directory")?.clone());
            }
            _ => return Err(format!("unknown flag `{arg}`")),
        }
    }
    Ok(dir)
}

/// Writes each scenario's trace as `DIR/<name>.trace`.
fn save_traces(dir: &str, scenarios: &[Scenario], runs: &[SimRun]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    for (sc, run) in scenarios.iter().zip(runs) {
        let path = format!("{dir}/{}.trace", sc.name);
        frap_workload::replay::save_trace(&path, &run.trace)
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("saved          {path} ({} arrivals)", run.trace.len());
    }
    Ok(())
}

fn main() {
    exit_quietly_when_stdout_closes();
    let scale = Scale::from_args();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let trace_dir = save_traces_dir(&args).unwrap_or_else(|err| {
        eprintln!("{err}; valid: --quick --jobs N --save-traces DIR");
        std::process::exit(2)
    });
    let publish = scale.is_publication();
    let horizon_secs = scale.horizon_secs;
    let horizon = Time::from_secs(horizon_secs);

    let scenarios = catalog(horizon);
    println!(
        "scenarios: {} families at {horizon_secs}s horizon",
        scenarios.len()
    );

    let runs = fan_out(scenarios.len(), scale.jobs, |i| run_sim(&scenarios[i]));

    if let Some(dir) = trace_dir {
        if let Err(err) = save_traces(&dir, &scenarios, &runs) {
            eprintln!("--save-traces: {err}");
            std::process::exit(1);
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

    // The serverless trace once more, through real TCP in lock-step on
    // its own clock. The gateway has no idle reset and holds tickets to
    // their deadlines, so its reference is the sim without idle resets
    // (the canonical report above admits more), verdict for verdict.
    let sc = scenarios
        .iter()
        .find(|s| s.name == "serverless")
        .expect("serverless scenario in catalog");
    let (_, sim_decisions) = run_sim_opts(sc, false);
    let (gw, decisions) = run_gateway(sc).expect("gateway replay");
    let diverged = decisions
        .iter()
        .zip(&sim_decisions)
        .position(|(g, s)| g != s);
    assert!(
        decisions.len() == sim_decisions.len() && diverged.is_none(),
        "gateway replay diverged from the sim (idle resets off), first at arrival {diverged:?}"
    );
    println!(
        "gateway replay: {} arrivals over TCP, {} admitted, every verdict the sim's \
         (idle resets off); {:.3} s wall",
        gw.offered, gw.admitted, gw.wall_secs
    );
}

#[cfg(test)]
mod tests {
    use super::save_traces_dir;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn save_traces_dir_reads_the_directory_and_skips_the_scale_flags() {
        assert_eq!(save_traces_dir(&args(&[])), Ok(None));
        assert_eq!(
            save_traces_dir(&args(&["--quick", "--jobs", "2", "--save-traces", "out"])),
            Ok(Some("out".to_string()))
        );
    }

    #[test]
    fn save_traces_dir_refuses_a_missing_directory_and_unknown_flags() {
        for bad in [
            &["--save-traces"][..],
            &["--save-traces", "--quick"],
            &["--quick", "--save-traces"],
        ] {
            let err = save_traces_dir(&args(bad)).expect_err("must refuse");
            assert!(err.contains("--save-traces"), "{bad:?}: {err}");
        }
        for bad in [&["--no-gateway"][..], &["--smoke"], &["fig4"]] {
            let err = save_traces_dir(&args(bad)).expect_err("must refuse");
            assert!(err.contains("unknown flag"), "{bad:?}: {err}");
        }
    }
}
