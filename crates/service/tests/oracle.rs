//! Oracle tests: driven from one thread under a [`ManualClock`], the
//! concurrent service must agree **decision for decision** with the
//! single-threaded library controller
//! (`frap_core::admission::Admission`) — same admit/reject sequence, same
//! assigned ids, same shed victims, same counters, and matching
//! utilization vectors. The `try_admit` and shedding drivers run at one
//! shard and at two: one thread has one home shard, so the shard count
//! must not show.
//!
//! Both sides share the decision kernel
//! (`frap_core::admission::tentative_feasible`) and apply charges in the
//! same order, so single-shard agreement is exact up to float
//! associativity in the decrement path (entries with several
//! contributions on one stage are subtracted term-by-term here and as a
//! merged sum there); utilizations are compared at `1e-9`, far above
//! that ulp-level noise and far below any decision threshold the test
//! workloads approach.

use frap_core::admission::{Admission, AdmitOutcome, ExactContributions, MeanContributions};
use frap_core::graph::TaskSpec;
use frap_core::region::FeasibleRegion;
use frap_core::task::{Importance, StageId};
use frap_core::time::{Time, TimeDelta};
use frap_service::{AdmissionService, AdmissionTicket, ManualClock, ServiceOutcome};
use frap_workload::taskgen::DagWorkload;
use frap_workload::PipelineWorkloadBuilder;
use std::collections::HashMap;
use std::sync::Arc;

fn assert_utilizations_agree<R, M>(library: &mut Admission<R, M>, service_u: &[f64], step: usize)
where
    R: frap_core::region::RegionTest,
    M: frap_core::admission::ContributionModel,
{
    let lib_u = library.state_mut().utilizations();
    assert_eq!(lib_u.len(), service_u.len());
    for (j, (&a, &b)) in lib_u.iter().zip(service_u).enumerate() {
        assert!(
            (a - b).abs() < 1e-9,
            "step {step}: stage {j} utilization diverged: library={a} service={b}"
        );
    }
}

/// Shard counts the `try_admit` and shedding drivers run at.
const SHARD_COUNTS: [usize; 2] = [1, 2];

/// Drives both controllers through the same arrival stream with
/// `try_admit`, asserting identical outcomes at every step.
fn run_try_admit_oracle<I: Iterator<Item = (Time, TaskSpec)>>(
    stages: usize,
    arrivals: I,
    mean_model: bool,
) {
    let arrivals: Vec<(Time, TaskSpec)> = arrivals.collect();
    for shards in SHARD_COUNTS {
        let region = FeasibleRegion::deadline_monotonic(stages);
        let clock = Arc::new(ManualClock::new());

        let means: Vec<TimeDelta> = (0..stages).map(|_| TimeDelta::from_millis(10)).collect();
        if mean_model {
            let mut library = Admission::new(region.clone(), MeanContributions::new(means.clone()));
            let service = AdmissionService::builder(region, MeanContributions::new(means))
                .clock(Arc::clone(&clock))
                .shards(shards)
                .build();
            drive_try_admit(&mut library, &service, &clock, arrivals.iter().cloned());
        } else {
            let mut library = Admission::new(region.clone(), ExactContributions);
            let service = AdmissionService::builder(region, ExactContributions)
                .clock(Arc::clone(&clock))
                .shards(shards)
                .build();
            drive_try_admit(&mut library, &service, &clock, arrivals.iter().cloned());
        }
    }
}

fn drive_try_admit<R, M, I>(
    library: &mut Admission<R, M>,
    service: &AdmissionService<R, M, Arc<ManualClock>>,
    clock: &ManualClock,
    arrivals: I,
) where
    R: frap_core::region::RegionTest + Send + Sync + Clone + 'static,
    M: frap_core::admission::ContributionModel + Send + Sync + 'static,
    I: Iterator<Item = (Time, TaskSpec)>,
{
    let mut admitted = Vec::new();
    for (steps, (at, spec)) in arrivals.enumerate() {
        clock.set(at);
        let lib = library.try_admit(at, &spec);
        let svc = service.try_admit(&spec);
        assert_eq!(
            lib.is_some(),
            svc.is_some(),
            "step {steps}: decision diverged for {spec:?}"
        );
        if let (Some(task), Some(ticket)) = (lib, svc) {
            assert_eq!(task.seq(), ticket.id(), "step {steps}: id diverged");
            admitted.push(ticket.detach());
        }
        assert_eq!(library.live_tasks(), service.live_tasks(), "step {steps}");
        assert_utilizations_agree(library, &service.utilizations(), steps);
    }
    let stats = library.stats();
    let counters = service.counters();
    assert_eq!(stats.admitted, counters.admitted);
    assert_eq!(stats.rejected, counters.rejected);
    assert!(stats.admitted > 0, "workload never admitted anything");
    assert!(stats.rejected > 0, "workload never rejected anything");
    service.debug_validate();
}

#[test]
fn pipeline_exact_model_agrees() {
    let arrivals = PipelineWorkloadBuilder::new(3)
        .mean_computation_ms(10.0)
        .resolution(20.0)
        .load(1.5)
        .seed(7)
        .build()
        .until(Time::from_secs(30));
    run_try_admit_oracle(3, arrivals, false);
}

#[test]
fn pipeline_mean_model_agrees() {
    let arrivals = PipelineWorkloadBuilder::new(4)
        .mean_computation_ms(10.0)
        .resolution(15.0)
        .load(2.0)
        .seed(21)
        .build()
        .until(Time::from_secs(20));
    run_try_admit_oracle(4, arrivals, true);
}

#[test]
fn dag_exact_model_agrees() {
    let arrivals = DagWorkload::new(5, 0.008, 12.0, 40.0, 3).until(Time::from_secs(20));
    run_try_admit_oracle(5, arrivals, false);
}

#[test]
fn shedding_oracle_agrees() {
    // Mixed-importance overload: every arrival goes through the shedding
    // path on both sides; shed victim lists must match exactly.
    for shards in SHARD_COUNTS {
        let region = FeasibleRegion::deadline_monotonic(3);
        let clock = Arc::new(ManualClock::new());
        let mut library = Admission::new(region.clone(), ExactContributions);
        let service = AdmissionService::builder(region, ExactContributions)
            .clock(Arc::clone(&clock))
            .shards(shards)
            .build();

        let arrivals = PipelineWorkloadBuilder::new(3)
            .mean_computation_ms(10.0)
            .resolution(25.0)
            .load(3.0)
            .seed(99)
            .build()
            .until(Time::from_secs(20));

        let mut sheddings = 0u64;
        for (steps, (at, spec)) in arrivals.enumerate() {
            // Deterministically vary importance so later arrivals can evict
            // earlier ones.
            let spec = spec.with_importance(Importance::new((steps % 7) as u32));
            clock.set(at);
            let lib = library.try_admit_or_shed(at, &spec);
            let svc = service.try_admit_or_shed(&spec);
            match (&lib, &svc) {
                (AdmitOutcome::Admitted(task), ServiceOutcome::Admitted(ticket)) => {
                    assert_eq!(task.seq(), ticket.id(), "step {steps}");
                }
                (
                    AdmitOutcome::AdmittedAfterShedding { task, shed },
                    ServiceOutcome::AdmittedAfterShedding {
                        ticket,
                        shed: svc_shed,
                    },
                ) => {
                    assert_eq!(task.seq(), ticket.id(), "step {steps}");
                    let lib_shed: Vec<u64> = shed.iter().map(|t| t.seq()).collect();
                    assert_eq!(&lib_shed, svc_shed, "step {steps}: shed lists diverged");
                    sheddings += 1;
                }
                (AdmitOutcome::Rejected, ServiceOutcome::Rejected) => {}
                other => panic!("step {steps}: outcome diverged: {other:?}"),
            }
            if let Some(ticket) = svc.ticket() {
                ticket.detach();
            }
            assert_eq!(library.live_tasks(), service.live_tasks(), "step {steps}");
            assert_utilizations_agree(&mut library, &service.utilizations(), steps);
        }
        assert!(sheddings > 0, "workload never exercised the shedding path");
        let stats = library.stats();
        let counters = service.counters();
        assert_eq!(stats.admitted, counters.admitted);
        assert_eq!(stats.rejected, counters.rejected);
        assert_eq!(stats.shed, counters.shed);
        service.debug_validate();
    }
}

#[test]
fn idle_reset_oracle_agrees() {
    // Idle resets remove departed contributions on both sides. The
    // library's reset iterates a HashMap (nondeterministic order), so the
    // scenario departs ONE task per stage between resets — order-free.
    let region = FeasibleRegion::deadline_monotonic(2);
    let clock = Arc::new(ManualClock::new());
    let mut library = Admission::new(region.clone(), ExactContributions);
    let service = AdmissionService::builder(region, ExactContributions)
        .clock(Arc::clone(&clock))
        .shards(1)
        .build();

    let ms = TimeDelta::from_millis;
    let spec = TaskSpec::pipeline(ms(500), &[ms(40), ms(40)]).unwrap();

    let mut now = Time::ZERO;
    let mut tickets: HashMap<u64, AdmissionTicket> = HashMap::new();
    for round in 0..50usize {
        now = now.saturating_add(ms(7));
        clock.set(now);
        let lib = library.try_admit(now, &spec);
        let svc = service.try_admit(&spec);
        assert_eq!(lib.is_some(), svc.is_some(), "round {round}");
        if let Some(ticket) = svc {
            tickets.insert(ticket.id(), ticket);
        }

        // Depart the single oldest live ticket from stage 0, then reset.
        if round % 3 == 2 {
            if let Some((&id, _)) = tickets.iter().min_by_key(|(&id, _)| id) {
                let ticket = tickets.remove(&id).unwrap();
                for j in 0..2 {
                    library.on_stage_departure(StageId::new(j), frap_core::task::TaskId::new(id));
                    ticket.mark_departed(StageId::new(j));
                }
                for j in 0..2 {
                    library.on_stage_idle(now, StageId::new(j));
                    service.on_stage_idle(StageId::new(j));
                }
                ticket.detach();
            }
        }
        assert_utilizations_agree(&mut library, &service.utilizations(), round);
    }
    let stats = library.stats();
    let counters = service.counters();
    assert_eq!(stats.admitted, counters.admitted);
    assert_eq!(stats.rejected, counters.rejected);
    assert!(counters.admitted > 0);
    service.debug_validate();
    for (_, t) in tickets {
        t.detach();
    }
}
