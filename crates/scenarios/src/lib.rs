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
//! The [`runner`] drives a scenario through up to three backends — the
//! virtual-time simulator (`frap-sim`, the canonical report), the
//! manually-clocked [`frap_service::AdmissionService`] (a deterministic
//! replay used by the differential tests), and the live
//! [`frap_gateway`] over real TCP in scaled real time. Each backend
//! records one `AdmitDecision` per arrival, and [`report`] turns those
//! into per-scenario acceptance, per-tenant admit shares, and
//! shed-by-importance tables.
//!
//! `cargo run --release -p frap-scenarios --bin scenarios` (the 60 s
//! horizon) prints the tables and writes them under `results/scenarios/`;
//! with `--quick` (8 s) it prints them and writes nothing.

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
pub use runner::{run_gateway, run_service, run_sim, run_sim_opts, GatewayRun, SimRun, DRAIN};
pub use spec::{catalog, Scenario, ScenarioKind, ScenarioPolicy};
