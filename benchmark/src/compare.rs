//! `compare <a.json> <b.json>`: one row per workload × end-to-end metric
//! with both medians, quartiles, delta, bound and verdict.
//!
//! * `ok` — b's median is no worse than a's by more than the bound;
//! * `regressed` — it is worse by more than the bound;
//! * `unresolved` — either side's run-to-run spread (interquartile range
//!   over median) is wider than the bound, so the comparison cannot tell,
//!   unless every run of b reads better than every run of a.
//!
//! Exits non-zero on any `regressed` row or any rise in `failed_share`.

use crate::json::{self, Json};
use crate::metrics::{self, Better, Bound, E2eDef};
use crate::stats::quartiles;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse (positive) or better (negative) `b` is than `a`, in the
/// metric's own units.
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Higher => a - b,
        Better::Lower => b - a,
    }
}

/// Judges one workload × metric from the per-run values of both sides.
pub fn judge(workload: &str, def: &E2eDef, a: &[f64], b: &[f64]) -> Verdict {
    // An exact output differs from seed to seed but not from run to run:
    // with the same seeds on both sides it is compared run by run, and
    // spread across seeds says nothing about noise.
    if metrics::bound_for(workload, def) == Bound::Exact && a.len() == b.len() {
        let worsened = a
            .iter()
            .zip(b)
            .any(|(&x, &y)| worsening(def.better, x, y) > 1e-12 * x.abs());
        return if worsened {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
    }
    let (a_q1, a_med, a_q3) = quartiles(a);
    let (b_q1, b_med, b_q3) = quartiles(b);
    let worse_by = worsening(def.better, a_med, b_med);
    let allowed = match metrics::bound_for(workload, def) {
        Bound::Relative(r) => r * a_med.abs(),
        Bound::RelativeOrAbs(r, abs) => (r * a_med.abs()).max(abs),
        Bound::Exact => 0.0,
        Bound::OneRung => metrics::RUNG_STEP,
    };
    // Exact outputs tolerate float formatting noise only.
    let allowed = allowed.max(1e-12 * a_med.abs());
    let every_b_beats_every_a = match def.better {
        Better::Higher => min(b) > max(a),
        Better::Lower => max(b) < min(a),
    };
    let spread_too_wide = |q1: f64, q3: f64| a.len().min(b.len()) >= 2 && (q3 - q1).abs() > allowed;
    if (spread_too_wide(a_q1, a_q3) || spread_too_wide(b_q1, b_q3)) && !every_b_beats_every_a {
        Verdict::Unresolved
    } else if worse_by > allowed {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Per-run values of `metric` on `workload` in a result file.
fn values(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|run| {
            run.get("workloads")?
                .get(workload)?
                .get("e2e")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn bound_label(workload: &str, def: &E2eDef) -> String {
    match metrics::bound_for(workload, def) {
        Bound::Relative(r) => format!("{:.0}%", r * 100.0),
        Bound::RelativeOrAbs(r, abs) => format!("max({:.0}%,{abs}{})", r * 100.0, def.unit),
        Bound::Exact => "0".into(),
        Bound::OneRung => "one rung".into(),
    }
}

/// Prints the table; `Ok(false)` when anything regressed.
pub fn run(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a_doc, b_doc) = (load(a_path)?, load(b_path)?);
    for (doc, path) in [(&a_doc, a_path), (&b_doc, b_path)] {
        if doc.get("comparable").and_then(Json::as_bool) != Some(true) {
            println!(
                "note: {} is a smoke result (comparable: false)",
                path.display()
            );
        }
        if doc
            .get("env")
            .and_then(|e| e.get("noisy"))
            .and_then(Json::as_bool)
            == Some(true)
        {
            println!(
                "note: {} was recorded on a busy box (noisy: true)",
                path.display()
            );
        }
    }
    println!(
        "{:<17} {:<22} {:>13} {:>27} {:>13} {:>27} {:>9} {:>14}  verdict",
        "workload", "metric", "a median", "a [q1, q3]", "b median", "b [q1, q3]", "delta", "bound"
    );
    let (mut regressed, mut unresolved, mut rows) = (0, 0, 0);
    for workload in metrics::WORKLOADS {
        for def in &metrics::E2E {
            if !def.workloads.contains(&workload) {
                continue;
            }
            let a = values(&a_doc, workload, def.name);
            let b = values(&b_doc, workload, def.name);
            if a.is_empty() || b.is_empty() {
                println!("{workload:<17} {:<22} missing from one side", def.name);
                regressed += 1;
                continue;
            }
            let (a_q1, a_med, a_q3) = quartiles(&a);
            let (b_q1, b_med, b_q3) = quartiles(&b);
            let mut verdict = judge(workload, def, &a, &b);
            // Any rise in failed_share fails the comparison outright.
            if def.name == "failed_share" && b_med > a_med {
                verdict = Verdict::Regressed;
            }
            let delta = if a_med != 0.0 {
                format!("{:+.2}%", (b_med - a_med) / a_med * 100.0)
            } else {
                format!("{:+.4}", b_med - a_med)
            };
            println!(
                "{workload:<17} {:<22} {a_med:>13.4} {:>27} {b_med:>13.4} {:>27} {delta:>9} {:>14}  {}",
                def.name,
                format!("[{a_q1:.4}, {a_q3:.4}]"),
                format!("[{b_q1:.4}, {b_q3:.4}]"),
                bound_label(workload, def),
                verdict.label()
            );
            rows += 1;
            match verdict {
                Verdict::Regressed => regressed += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Ok => {}
            }
        }
    }
    println!("{rows} rows: {regressed} regressed, {unresolved} unresolved");
    Ok(regressed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static E2eDef {
        metrics::e2e_def(name).unwrap()
    }

    #[test]
    fn within_bound_is_ok_beyond_is_regressed() {
        let d = def("decisions_per_s"); // higher is better, 25 %
        let a = [1000.0, 1010.0, 990.0, 1005.0, 995.0];
        let slower_15 = a.map(|v| v * 0.85);
        let slower_30 = a.map(|v| v * 0.70);
        let faster = a.map(|v| v * 1.5);
        assert_eq!(judge("gw_reject", d, &a, &slower_15), Verdict::Ok);
        assert_eq!(judge("gw_reject", d, &a, &slower_30), Verdict::Regressed);
        assert_eq!(judge("gw_reject", d, &a, &faster), Verdict::Ok);

        let d = def("rtt_p50_us"); // lower is better, 10 %
        assert_eq!(judge("gw_reject", d, &a, &faster), Verdict::Regressed);
        assert_eq!(judge("gw_reject", d, &a, &slower_30), Verdict::Ok);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_b_wins_every_run() {
        let d = def("decisions_per_s");
        let noisy = [700.0, 1000.0, 1300.0, 800.0, 1200.0];
        let steady = [1000.0, 1001.0, 999.0, 1002.0, 998.0];
        assert_eq!(judge("gw_reject", d, &noisy, &steady), Verdict::Unresolved);
        assert_eq!(judge("gw_reject", d, &steady, &noisy), Verdict::Unresolved);
        // Every run of b beats every run of a: resolved despite the spread.
        let clear_win = noisy.map(|v| v + 1000.0);
        assert_eq!(judge("gw_reject", d, &noisy, &clear_win), Verdict::Ok);
    }

    #[test]
    fn exact_and_floored_bounds() {
        // sim_paper's accept_ratio is an exact output; svc_boundary's is not.
        let d = def("accept_ratio");
        // Exact outputs vary across seeds, never across runs of one seed.
        assert_eq!(
            judge("sim_paper", d, &[0.92, 0.95, 0.90], &[0.92, 0.95, 0.90]),
            Verdict::Ok
        );
        assert_eq!(
            judge("sim_paper", d, &[0.92, 0.95, 0.90], &[0.92, 0.94, 0.90]),
            Verdict::Regressed
        );
        assert_eq!(
            judge("sim_paper", d, &[0.5, 0.5], &[0.499, 0.499]),
            Verdict::Regressed
        );
        assert_eq!(
            judge("svc_boundary", d, &[0.5, 0.5], &[0.49, 0.49]),
            Verdict::Ok
        );
        // setup_s: 3 ms -> 20 ms is inside the 0.05 s floor.
        let d = def("setup_s");
        assert_eq!(
            judge("gw_reject", d, &[0.003, 0.003], &[0.020, 0.020]),
            Verdict::Ok
        );
        assert_eq!(
            judge("gw_reject", d, &[1.0, 1.0], &[1.3, 1.3]),
            Verdict::Regressed
        );
        // max_rate_within_limit may drop one rung, not two.
        let d = def("max_rate_within_limit");
        assert_eq!(
            judge("gw_reject", d, &[750e3, 750e3], &[500e3, 500e3]),
            Verdict::Ok
        );
        assert_eq!(
            judge("gw_reject", d, &[750e3, 750e3], &[250e3, 250e3]),
            Verdict::Regressed
        );
    }
}
