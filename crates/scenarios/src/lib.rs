//! # frap-scenarios
//!
//! Trace-driven, cloud-scale workload scenarios for the feasible-region
//! admission controller — the repo's demonstration that the region test
//! Σ f(U_j) ≤ α(1−Σβ) holds up outside the paper's Section 5 TSCE
//! setting.
//!
//! Four scenario families, each a deterministic generator from a seed to
//! a tenant-attributed [`frap_workload::replay::ArrivalTrace`]
//! (`frap-arrivals v2` on disk):
//!
//! * [`serverless`] — invocation replay with heavy-tailed
//!   (lognormal + Pareto) service times, Zipf-weighted function
//!   popularity, and periodic cold-start spikes;
//! * [`diurnal`] — the `webfarm` request mix under a day-curve
//!   nonhomogeneous Poisson process (thinning);
//! * [`flash`] — a flash crowd: step overload at onset with exponential
//!   decay, organic vs crowd tenants of different importance;
//! * [`tenants`] — a static multi-tenant mix with per-tenant rate
//!   shares, importance tiers, and deadline targets.
//!
//! The [`runner`] drives a scenario through two backends — the
//! virtual-time simulator (`frap-sim`, the canonical report) and the
//! manually-clocked [`frap_service::AdmissionService`] (a deterministic
//! replay, held decision for decision to the simulator by the
//! differential tests, which also replay it over the live gateway). Each
//! backend records one `AdmitDecision` per arrival, and [`report`] turns
//! those into per-scenario acceptance, per-tenant admit shares, and
//! shed-by-importance tables.
//!
//! The `scenarios` module of `frap-experiments` runs the catalog and
//! publishes the tables: `cargo run --release -p frap-experiments --bin
//! all -- scenarios` (the 60 s horizon) writes `results/scenarios.csv`
//! and `results/scenarios/`; with `--quick` (8 s) it prints them and
//! writes nothing. To keep a generated trace, write
//! [`Scenario::generate`]'s result with
//! [`frap_workload::replay::save_trace`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diurnal;
pub mod flash;
pub mod report;
pub mod runner;
pub mod serverless;
pub mod spec;
pub mod tenants;

pub use report::{ImportanceRow, ScenarioReport, TenantRow};
pub use runner::{run_service, run_sim, run_sim_opts, SimRun, DRAIN};
pub use spec::{catalog, Scenario, ScenarioKind, ScenarioPolicy};
