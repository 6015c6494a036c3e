//! Quickstart: feasible-region admission control on a three-stage pipeline.
//!
//! Run with: `cargo run --example quickstart`

use frap::core::admission::{Admission, ExactContributions};
use frap::core::delay::{stage_delay_factor, UNIPROCESSOR_BOUND};
use frap::core::graph::TaskSpec;
use frap::core::region::FeasibleRegion;
use frap::core::task::StageId;
use frap::core::time::{Time, TimeDelta};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ms = TimeDelta::from_millis;

    // ---------------------------------------------------------------
    // 1. The analysis: the stage delay function and the feasible region.
    // ---------------------------------------------------------------
    println!("stage delay function f(u) = u(1-u/2)/(1-u):");
    for u in [0.1, 0.3, 0.5, UNIPROCESSOR_BOUND] {
        println!("  f({u:.3}) = {:.3}", stage_delay_factor(u));
    }
    println!("single-stage bound: f(u) = 1  at u = {UNIPROCESSOR_BOUND:.4}  (= 1/(1+sqrt(1/2)))\n");

    // A three-stage pipeline under deadline-monotonic scheduling: all
    // end-to-end deadlines are met while  sum_j f(U_j) <= 1.
    let region = FeasibleRegion::deadline_monotonic(3);
    println!(
        "symmetric surface point for 3 stages: U_j = {:.4} per stage\n",
        region.max_equal_utilization()
    );

    // ---------------------------------------------------------------
    // 2. The admission controller: O(stages) per decision.
    // ---------------------------------------------------------------
    let mut ac = Admission::new(region, ExactContributions);

    // A request takes 5 ms + 10 ms + 5 ms through the stages and must
    // finish within 200 ms end to end.
    let request = TaskSpec::pipeline(ms(200), &[ms(5), ms(10), ms(5)])?;
    println!(
        "request contributions C_ij/D_i: {:?}",
        request.contributions().collect::<Vec<_>>()
    );

    let mut admitted = 0;
    let mut rejected = 0;
    for _ in 0..40 {
        match ac.try_admit(Time::ZERO, &request) {
            Some(_id) => admitted += 1,
            None => rejected += 1,
        }
    }
    println!("burst of 40 simultaneous requests: {admitted} admitted, {rejected} rejected");
    println!(
        "synthetic utilizations now: {:?}",
        ac.state().utilizations()
    );

    // ---------------------------------------------------------------
    // 3. The bookkeeping rules: deadlines decrement, idle resets free
    //    capacity early.
    // ---------------------------------------------------------------
    let later = Time::ZERO + ms(200);
    ac.advance_to(later);
    println!(
        "after all deadlines expire: {:?}",
        ac.state().utilizations()
    );
    let id = ac.try_admit(later, &request).expect("capacity is back");
    // The task finishes everywhere and the stages go idle well before its
    // deadline: the idle reset removes its contribution immediately.
    for j in 0..3 {
        ac.on_stage_departure(StageId::new(j), id);
        ac.on_stage_idle(later + ms(25), StageId::new(j));
    }
    println!(
        "after an idle reset 25 ms in: {:?}",
        ac.state().utilizations()
    );
    Ok(())
}
