//! One workload run's result: metrics by name with units, the correctness
//! checks, failure counts, and the phase plan it ran.

use crate::json::{self, Json};
use crate::metrics::{self, LAYER};

/// A correctness check; one failed check fails the command.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything one workload run reports.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// False for `--smoke` runs: phases too short to compare.
    pub comparable: bool,
    /// Requests / decisions / simulated tasks attempted.
    pub attempted: u64,
    /// I/O or protocol errors, unanswered or out-of-order replies,
    /// `Expired` verdicts, requests the generator could not send, and
    /// (sim) deadline misses among admitted tasks. A `Rejected` verdict
    /// is the product, not a failure.
    pub failed: u64,
    /// End-to-end metrics `(name, value, unit)`.
    pub e2e: Vec<(String, f64, String)>,
    /// Per-layer metrics `(name, value, unit)`.
    pub layer: Vec<(String, f64, String)>,
    pub checks: Vec<Check>,
    /// Phase plan and per-phase detail (rungs, repetitions, thread and
    /// connection counts, open vs closed loop).
    pub phases: Json,
}

impl Report {
    pub fn new(workload: &str, seed: u64, seconds: f64, traced: bool, comparable: bool) -> Report {
        Report {
            workload: workload.to_string(),
            seed,
            seconds,
            traced,
            comparable,
            attempted: 0,
            failed: 0,
            e2e: Vec::new(),
            layer: Vec::new(),
            checks: Vec::new(),
            phases: Json::obj(),
        }
    }

    /// Records an end-to-end metric under its fixed name and unit.
    pub fn e2e(&mut self, name: &str, value: f64) {
        let def = metrics::e2e_def(name).unwrap_or_else(|| panic!("unknown e2e metric {name}"));
        self.e2e
            .push((name.to_string(), value, def.unit.to_string()));
    }

    /// Records a per-layer metric under its fixed name and unit.
    pub fn layer(&mut self, name: &str, value: f64) {
        let unit = LAYER
            .iter()
            .find(|l| l.0 == name)
            .unwrap_or_else(|| panic!("unknown layer metric {name}"))
            .1;
        match self.layer.iter_mut().find(|m| m.0 == name) {
            Some(slot) => slot.1 = value,
            None => self.layer.push((name.to_string(), value, unit.to_string())),
        }
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }

    /// Adds the metrics every workload derives the same way.
    pub fn finish(&mut self) {
        let share = if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        self.e2e("peak_rss_mb", crate::env::peak_rss_mb());
        self.e2e("failed_share", share);
        self.check(
            "attempted_nonzero",
            self.attempted > 0,
            format!("attempted={}", self.attempted),
        );
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    pub fn e2e_value(&self, name: &str) -> Option<f64> {
        self.e2e.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    pub fn layer_value(&self, name: &str) -> Option<f64> {
        self.layer.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    pub fn to_json(&self) -> Json {
        let metric_obj = |list: &[(String, f64, String)]| {
            let mut obj = Json::obj();
            for (name, value, unit) in list {
                obj.set(
                    name,
                    Json::obj()
                        .with("value", Json::Num(*value))
                        .with("unit", Json::Str(unit.clone())),
                );
            }
            obj
        };
        Json::obj()
            .with("workload", Json::Str(self.workload.clone()))
            .with("seed", Json::Str(self.seed.to_string()))
            .with("seconds", Json::Num(self.seconds))
            .with("traced", Json::Bool(self.traced))
            .with("comparable", Json::Bool(self.comparable))
            .with("correct", Json::Bool(self.correct()))
            .with("attempted", Json::Num(self.attempted as f64))
            .with("failed", Json::Num(self.failed as f64))
            .with("e2e", metric_obj(&self.e2e))
            .with("layer", metric_obj(&self.layer))
            .with(
                "checks",
                Json::Arr(
                    self.checks
                        .iter()
                        .map(|c| {
                            Json::obj()
                                .with("name", Json::Str(c.name.clone()))
                                .with("ok", Json::Bool(c.ok))
                                .with("detail", Json::Str(c.detail.clone()))
                        })
                        .collect(),
                ),
            )
            .with("phases", self.phases.clone())
    }

    pub fn from_json(doc: &Json) -> Result<Report, String> {
        let text = |k: &str| {
            doc.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("result lacks \"{k}\""))
        };
        let num = |k: &str| {
            doc.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("result lacks \"{k}\""))
        };
        let flag = |k: &str| {
            doc.get(k)
                .and_then(Json::as_bool)
                .ok_or_else(|| format!("result lacks \"{k}\""))
        };
        let metric_list = |k: &str| -> Result<Vec<(String, f64, String)>, String> {
            let fields = doc
                .get(k)
                .and_then(Json::as_obj)
                .ok_or_else(|| format!("result lacks \"{k}\""))?;
            fields
                .iter()
                .map(|(name, m)| {
                    let value = m.get("value").and_then(Json::as_f64);
                    let unit = m.get("unit").and_then(Json::as_str);
                    match (value, unit) {
                        (Some(v), Some(u)) => Ok((name.clone(), v, u.to_string())),
                        _ => Err(format!("metric {name} is malformed")),
                    }
                })
                .collect()
        };
        let checks = doc
            .get("checks")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|c| Check {
                name: c.get("name").and_then(Json::as_str).unwrap_or("?").into(),
                ok: c.get("ok").and_then(Json::as_bool).unwrap_or(false),
                detail: c.get("detail").and_then(Json::as_str).unwrap_or("").into(),
            })
            .collect();
        Ok(Report {
            workload: text("workload")?,
            seed: text("seed")?.parse().map_err(|_| "bad seed".to_string())?,
            seconds: num("seconds")?,
            traced: flag("traced")?,
            comparable: flag("comparable")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            e2e: metric_list("e2e")?,
            layer: metric_list("layer")?,
            checks,
            phases: doc.get("phases").cloned().unwrap_or(Json::Null),
        })
    }

    pub fn load(path: &std::path::Path) -> Result<Report, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Report::from_json(&json::parse(&text)?)
    }

    /// The human-readable block: every metric by name with its unit, then
    /// every check.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} (seed {}, {} s{}{}) ==",
            self.workload,
            self.seed,
            self.seconds,
            if self.traced { ", traced" } else { "" },
            if self.comparable {
                ""
            } else {
                ", smoke: comparable=false"
            }
        );
        let _ = writeln!(out, "  {}", crate::env::LOOPBACK);
        if !self.traced {
            for (name, value, unit) in &self.e2e {
                let _ = writeln!(out, "  {name:<42} {value:>18.4} {unit}");
            }
        }
        for (name, value, unit) in &self.layer {
            let _ = writeln!(out, "  {name:<42} {value:>18.4} {unit}");
        }
        let _ = writeln!(
            out,
            "  attempted={} failed={} correct={}",
            self.attempted,
            self.failed,
            self.correct()
        );
        for c in &self.checks {
            let _ = writeln!(
                out,
                "  [{}] {} — {}",
                if c.ok { "ok" } else { "FAILED" },
                c.name,
                c.detail
            );
        }
        out
    }

    /// The driver contract's last line: `correct`, `attempted`, `failed`,
    /// and exactly the metrics `BENCHMARK.json` lists for this mode.
    pub fn contract_line(&self) -> String {
        let mut metrics_obj = Json::obj();
        if self.traced {
            for (name, unit) in LAYER {
                let value = self.layer_value(name).unwrap_or(0.0);
                metrics_obj.set(
                    name,
                    Json::obj()
                        .with("value", Json::Num(value))
                        .with("unit", Json::Str(unit.into())),
                );
            }
        } else {
            for def in metrics::E2E.iter().filter(|d| d.contract) {
                let value = self.e2e_value(def.name).unwrap_or(0.0);
                metrics_obj.set(
                    def.name,
                    Json::obj()
                        .with("value", Json::Num(value))
                        .with("unit", Json::Str(def.unit.into())),
                );
            }
        }
        Json::obj()
            .with("correct", Json::Bool(self.correct()))
            .with("attempted", Json::Num(self.attempted.max(1) as f64))
            .with("failed", Json::Num(self.failed as f64))
            .with("metrics", metrics_obj)
            .render()
    }
}
