//! # frap-core
//!
//! Feasible-region schedulability analysis and admission control for
//! **aperiodic tasks with end-to-end deadlines in resource pipelines** — a
//! from-scratch implementation of
//!
//! > T. Abdelzaher, G. Thaker, P. Lardieri, *"A Feasible Region for Meeting
//! > Aperiodic End-to-End Deadlines in Resource Pipelines"*, ICDCS 2004.
//!
//! Tasks arrive aperiodically, traverse `N` stages (independent resources
//! such as CPUs), and must leave the pipeline within a relative end-to-end
//! deadline. The paper derives a *feasible region* — a surface in the
//! per-stage synthetic-utilization space — such that **every task meets its
//! deadline** while the system stays inside it:
//!
//! ```text
//! Σ_j  U_j (1 − U_j/2) / (1 − U_j)  ≤  α (1 − Σ_j β_j)
//! ```
//!
//! with `α` the urgency-inversion parameter of the fixed-priority policy
//! (`α = 1` for deadline-monotonic) and `β_j` per-stage blocking factors
//! for critical sections under the priority ceiling protocol. Theorem 2
//! extends the region to arbitrary DAG task graphs via the longest-path
//! end-to-end delay expression.
//!
//! The region yields an `O(N)` admission test — independent of the number
//! of live tasks — plus the bookkeeping rules that make it practical:
//! decrement synthetic utilization at deadlines, reset departed tasks'
//! contributions when a stage idles, reserve capacity for critical tasks,
//! and shed in reverse order of semantic importance at overload.
//!
//! ## Quickstart
//!
//! ```
//! use frap_core::admission::{Admission, ExactContributions};
//! use frap_core::graph::TaskSpec;
//! use frap_core::region::FeasibleRegion;
//! use frap_core::time::{Time, TimeDelta};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ms = TimeDelta::from_millis;
//!
//! // A three-stage pipeline under deadline-monotonic scheduling.
//! let region = FeasibleRegion::deadline_monotonic(3);
//! let mut ac = Admission::new(region, ExactContributions);
//!
//! // A request: 5 ms + 10 ms + 5 ms of work, 500 ms end-to-end deadline.
//! let request = TaskSpec::pipeline(ms(500), &[ms(5), ms(10), ms(5)])?;
//!
//! match ac.try_admit(Time::ZERO, &request) {
//!     Some(id) => println!("admitted as {id}"),
//!     None => println!("rejected: would leave the feasible region"),
//! }
//! # Ok(())
//! # }
//! ```
//!
//! ## Module map
//!
//! | Module | Paper section | Contents |
//! |--------|---------------|----------|
//! | [`time`] | — | integer-microsecond clock ([`time::Time`], [`time::TimeDelta`]) |
//! | [`task`] | §2 | stages, priorities, importance, subtasks, critical-section segments |
//! | [`graph`] | §2, §3.3 | task graphs (pipelines, fork-join, arbitrary DAGs), [`graph::TaskSpec`] |
//! | [`delay`] | Theorem 1 | the stage-delay function `f` and its algebra |
//! | [`alpha`] | §2 | the urgency-inversion parameter `α` |
//! | [`region`] | §3 | [`region::FeasibleRegion`], Theorem 2 graph regions, [`region::RegionTest`] |
//! | [`synthetic`] | §2, §4 | synthetic-utilization counters with expiry, idle reset, reservations |
//! | [`idtable`] | — | sliding-window table keyed by dense task ids ([`idtable::IdTable`]) |
//! | [`demand`] | §4 | [`demand::DemandView`]: deadline, importance and per-stage demands, borrowed from a spec or a wire frame |
//! | [`admission`] | §4, §5 | exact/approximate/reservation/shedding controllers and baselines |
//! | [`shed`] | §5 | [`shed::ShedOrder`]: the victim order shared by the library controller and the service shards |
//! | [`capacity`] | §3 | headroom queries, budget allocation, cost-of-depth tables |
//! | [`hist`] | — | log-bucketed latency histogram shared by the simulator and service layers |
//! | [`fixed`] | §4 | binary fixed-point utilization units for lock-free charge accounting |
//! | [`wire`] | — | compact pipeline wire form ([`wire::WireTaskSpec`]) for transports and traces |
//! | [`certify`] | §5 | offline certification / reservation planning for critical task sets |
//! | [`rta`] | §1 (related work) | holistic response-time analysis — the classical periodic baseline |
//!
//! The companion crates build on this one: `frap-sim` (discrete-event
//! pipeline simulator with preemptive fixed-priority stages and the
//! priority ceiling protocol), `frap-workload` (generators and the TSCE
//! scenario), and `frap-experiments` (regenerates every figure and table
//! of the paper's evaluation).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod alpha;
pub mod capacity;
pub mod certify;
pub mod delay;
pub mod demand;
pub mod error;
pub mod fixed;
pub mod graph;
pub mod hist;
pub mod idtable;
pub mod kernel;
pub mod lease;
pub mod region;
pub mod rta;
pub mod shed;
pub mod synthetic;
pub mod task;
pub mod time;
pub mod wire;

pub use admission::{Admission, AdmitOutcome, ExactContributions, MeanContributions};
pub use alpha::Alpha;
pub use delay::{stage_delay_factor, UNIPROCESSOR_BOUND};
pub use graph::{TaskGraph, TaskSpec};
pub use hist::LatencyHistogram;
pub use lease::{StageCaps, UNIT_SCALE};
pub use region::{FeasibleRegion, RegionTest};
pub use synthetic::{StageTracker, SyntheticState};
pub use task::{Importance, Priority, StageId, SubtaskSpec, TaskId};
pub use time::{Time, TimeDelta};
pub use wire::WireTaskSpec;
