//! # frap-cluster
//!
//! Distributed admission control over **leased feasible-region
//! budgets**: many gateway nodes admitting against one logical
//! feasible region (the paper's `Σ_j f(U_j) ≤ α(1 − Σβ)` test),
//! without a coordinator on any admission's hot path.
//!
//! ## How the region is split
//!
//! `f` is superadditive, so the region's right-hand side cannot be
//! shared out in `f`-space — but utilization is additive across nodes.
//! The cluster therefore fixes a cap vector inside the region
//! (`frap_core::lease::StageCaps::inscribed`) and treats each stage's
//! cap as a one-dimensional budget in integer units. A [`coord`]
//! coordinator leases slices of each stage's budget to nodes;
//! each node's [`node`] wallet drives a [`shared_caps`]
//! box region that its local `AdmissionService` admits against via the
//! ordinary `tentative_feasible_fp` fast path. Conservation —
//! `pool + Σ outstanding = total`, per stage, always, in exact integer
//! units — is the ledger invariant everything else rests on.
//!
//! Nodes **borrow on pressure** (headroom below a low-water mark),
//! **return on idle**, and obey **steals** when the coordinator runs
//! short. Node failure is handled by lease TTLs, heartbeat-miss
//! detection ([`liveness`]), and epoch/incarnation-guarded
//! reconciliation that reclaims a dead node's budget only after its
//! admitted work has provably drained ([`config`] spells out the
//! timing relations).
//!
//! ## Testing strategy
//!
//! Every protocol behavior runs first under [`harness`] — a
//! deterministic in-process message-passing simulator (virtual time,
//! seeded RNG, per-link drop/duplicate/delay/reorder faults,
//! partitions) with [`actors`] wrapping the cores around real
//! admission services. Runs are bit-identical for a fixed seed, so
//! fault-schedule property tests are reproducible. The real transport
//! ([`net`]) then reuses the gateway's versioned wire protocol
//! (`frap_gateway::proto`, protocol v2 lease frames) over TCP: a
//! coordinator on one readiness-reactor thread, nodes on blocking
//! sockets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actors;
pub mod config;
pub mod coord;
pub mod harness;
pub mod liveness;
pub mod net;
pub mod node;
pub mod shared_caps;

pub use config::ClusterConfig;
pub use coord::{CoordCore, CoordCounters};
pub use harness::{Actor, ActorId, Ctx, LinkFaults, Sim, SimStats};
pub use liveness::MissCounter;
pub use node::{NodeCore, NodeCounters, SpentProbe};
pub use shared_caps::SharedStageCaps;
