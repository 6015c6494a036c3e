//! Differential test: a fault-free 3-node cluster versus a single-node
//! oracle admitting the same trace against the full inscribed cap
//! vector, in the budget units the cluster leases.
//!
//! The cluster can only ever be *more* conservative than the oracle —
//! budget is partitioned, so a node may reject while another node's
//! unspent lease idles — but borrow-on-pressure must keep the gap
//! small. We assert both directions: the cluster admits at most a
//! whisker more than the oracle (different admission sets can free
//! capacity at slightly different instants), and at least 75% of it.

mod common;

use common::{build_cluster, round_robin, test_config, trace};
use frap_cluster::SharedStageCaps;
use frap_core::admission::ExactContributions;
use frap_core::graph::TaskSpec;
use frap_core::lease::StageCaps;
use frap_core::region::FeasibleRegion;
use frap_core::time::Time;
use frap_service::{AdmissionService, ManualClock};
use std::sync::Arc;

const STAGES: usize = 3;
const NODES: usize = 3;

/// Replays the trace through one admission service holding the entire
/// cap budget, on the same virtual clock the cluster uses.
fn oracle_admitted(arrivals: &[(u64, TaskSpec)]) -> u64 {
    let region = FeasibleRegion::deadline_monotonic(STAGES);
    let caps = SharedStageCaps::from_units(&StageCaps::inscribed(&region).units());
    let clock = Arc::new(ManualClock::new());
    let service = AdmissionService::builder(caps, ExactContributions)
        .clock(Arc::clone(&clock))
        .shards(1)
        .build();
    let mut admitted = 0;
    for (at, spec) in arrivals {
        clock.set(Time::from_micros(*at));
        service.maintain();
        if let Some(ticket) = service.try_admit(spec) {
            admitted += 1;
            ticket.detach();
        }
    }
    admitted
}

fn run_pair(seed: u64) -> (u64, u64, u64) {
    // 2x overload: both sides must reject, so the comparison bites.
    let all = trace(STAGES, 2.0, seed, 60_000, 400_000);
    let total = all.len() as u64;
    let oracle = oracle_admitted(&all);

    let arrivals = round_robin(&all, NODES);
    let mut cluster = build_cluster(seed, STAGES, NODES, test_config(), arrivals);
    cluster.run_checked(600_000, 2_000, 1e-6);
    let (admitted, rejected) = cluster.totals();
    assert_eq!(admitted + rejected, total, "every arrival got a verdict");
    (oracle, admitted, total)
}

#[test]
fn cluster_tracks_single_node_oracle() {
    for seed in [3, 17, 1234] {
        let (oracle, cluster, total) = run_pair(seed);
        assert!(
            oracle > 0 && oracle < total,
            "seed {seed}: oracle should be capacity-bound (admitted {oracle}/{total})"
        );
        // Never meaningfully less conservative than the oracle…
        let upper = oracle + oracle / 20 + 2;
        assert!(
            cluster <= upper,
            "seed {seed}: cluster admitted {cluster}, oracle {oracle} (upper {upper})"
        );
        // …and within 25% of it despite the split budget.
        let lower = (oracle as f64 * 0.75) as u64;
        assert!(
            cluster >= lower,
            "seed {seed}: cluster admitted {cluster}, oracle {oracle} (lower {lower})"
        );
    }
}
