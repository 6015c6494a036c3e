//! The TSCE scenario through the *concurrent service* layer.
//!
//! Where `shipboard_tsce.rs` simulates the shipboard pipeline in virtual
//! time, this example drives the same Section 5 workload through
//! [`frap::service::AdmissionService`] — the sharded, wall-clock-capable
//! admission controller — replaying the generated arrival instants on a
//! [`ManualClock`] so the run is deterministic. It prints the admission
//! counters (admitted / rejected / shed / deadline-expired) and the tail
//! of the decision-latency histogram.
//!
//! Run with: `cargo run --release --example admission_service`

use frap::core::admission::ExactContributions;
use frap::core::region::FeasibleRegion;
use frap::core::time::Time;
use frap::service::{AdmissionService, ManualClock, ServiceOutcome};
use frap::workload::tsce;
use std::sync::Arc;

fn main() {
    // The paper's per-stage reservations for the certified-critical tasks
    // (Weapon Detection, Weapon Targeting, UAV video) become floors that
    // releases and expiries never drop below.
    let reservations = tsce::reservations();
    println!("TSCE through the service layer");
    println!("reserved synthetic utilization per stage: {reservations:?}\n");

    let horizon = Time::from_secs(20);
    // Weapon detections are the one *aperiodic* critical stream: they are
    // admitted online (and may shed tracking work); the periodic critical
    // tasks are recognized below by their computation signature.
    let wd_cost = tsce::weapon_detection_spec().total_computation();
    for tracks in [200usize, 400, 550] {
        let clock = Arc::new(ManualClock::new());
        let service = AdmissionService::builder(
            FeasibleRegion::deadline_monotonic(tsce::STAGES),
            ExactContributions,
        )
        .clock(Arc::clone(&clock))
        .shards(2)
        .reservations(&reservations)
        .build();

        // Replay the generated arrival schedule on the manual clock.
        // *Periodic* certified-critical tasks (Weapon Targeting, UAV
        // video) ride on the reservation floors — charging them again
        // would double-count the capacity certified offline — while the
        // aperiodic weapon detections and all tracking load go through
        // online admission. Every admitted ticket is detached: its
        // synthetic utilization stays charged until the deadline
        // decrement, exactly the paper's rule.
        let mut reserved = 0u64;
        for (at, spec) in tsce::TsceScenario::new(tracks).arrivals(horizon) {
            clock.set(at);
            if spec.importance == tsce::CRITICAL && spec.total_computation() != wd_cost {
                reserved += 1;
                service.maintain();
                continue;
            }
            match service.try_admit_or_shed(&spec) {
                ServiceOutcome::Admitted(ticket) => {
                    ticket.detach();
                }
                ServiceOutcome::AdmittedAfterShedding { ticket, .. } => {
                    ticket.detach();
                }
                ServiceOutcome::Rejected => {}
            }
        }
        clock.set(horizon);
        service.maintain();

        let snap = service.snapshot();
        let c = snap.counters;
        println!("{tracks} tracks over {}s:", horizon.as_secs_f64());
        println!(
            "  admitted {}  rejected {}  shed {}  deadline-expired {}  \
             reserved(pre-certified) {}  (accept {:.1}%)",
            c.admitted,
            c.rejected,
            c.shed,
            c.expired,
            reserved,
            c.acceptance_ratio() * 100.0
        );
        println!(
            "  decision latency: p50 {} ns, p99 {} ns, max {} ns",
            snap.decision_latency_ns(0.50),
            snap.decision_latency_ns(0.99),
            snap.decision_max_ns()
        );
        let floors: Vec<String> = snap
            .utilizations
            .iter()
            .map(|u| format!("{u:.3}"))
            .collect();
        println!(
            "  end-of-run utilization (≥ reservations): [{}]\n",
            floors.join(", ")
        );
        service.debug_validate();
    }
    println!("all invariants validated");
}
