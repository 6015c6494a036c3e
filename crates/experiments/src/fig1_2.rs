//! Figures 1 and 2 — the synthetic-utilization curve and the worst-case
//! pattern (illustrative figures behind the stage delay theorem).
//!
//! * **Figure 1** replays a scripted busy period through a one-stage
//!   [`Admission`] controller that admits everything, and emits the
//!   resulting synthetic-utilization step curve: each arrival raises `U_j`
//!   by `C_ij/D_i` for `D_i` time units,
//!   so the area under the curve equals the total computation time (the
//!   *area property* used in the proof).
//! * **Figure 2** constructs the worst-case (minimum-height) pattern of
//!   Lemma 5: the curve is flat at `U_j` until the departure of the tagged
//!   task, then declines along the line of slope `1/D_max` as the `E_i`
//!   tasks (all with deadline `D_max`, arrivals separated by their
//!   computation times) expire — verifying `L_j = f(U_j) · D_max`.

use crate::common::{ascii_chart, f, Scale, Table};
use frap_core::admission::{Admission, AlwaysAdmit, ExactContributions};
use frap_core::delay::{stage_delay_factor, stage_delay_factor_inverse};
use frap_core::graph::TaskSpec;
use frap_core::task::StageId;
use frap_core::time::{Time, TimeDelta};

/// Emits both curves; returns the Figure 2 table
/// (`t, worst_case_U, bounding_line`) with the Figure 1 table attached as
/// `fig1_synthetic_utilization_curve`.
pub fn run(scale: Scale) -> Table {
    let span = crate::runner::perf::Span::new();
    let curve = figure1();
    figure1_simulated(scale);
    let mut table = figure2();
    table
        .attached
        .push(("fig1_synthetic_utilization_curve".into(), curve));
    span.report("fig1_2");
    table
}

/// A simulated synthetic-utilization timeline: a single-stage system under
/// Poisson load, sampled through the live admission controller — the
/// "real" version of Figure 1's curve, with idle resets visible as sudden
/// drops.
fn figure1_simulated(scale: Scale) {
    use frap_sim::pipeline::SimBuilder;
    use frap_workload::taskgen::PipelineWorkloadBuilder;

    let horizon = Time::from_secs(scale.horizon_secs.clamp(2, 4));
    let mut sim = SimBuilder::new(1)
        .sample_utilization(TimeDelta::from_millis(7))
        .build();
    let wl = PipelineWorkloadBuilder::new(1)
        .load(0.9)
        .resolution(20.0)
        .seed(11)
        .build()
        .until(horizon);
    let m = sim.run(wl, horizon).clone();
    crate::runner::perf::note_events(m.events_processed);
    let xs: Vec<f64> = m
        .utilization_timeline
        .iter()
        .map(|(t, _)| t.as_secs_f64())
        .collect();
    let ys: Vec<f64> = m.utilization_timeline.iter().map(|(_, u)| u[0]).collect();
    println!(
        "{}",
        ascii_chart(
            "Figure 1 (simulated): U(t) under Poisson load, idle resets visible as drops",
            &xs,
            &[("U(t)", ys.clone())],
            "synthetic utilization",
        )
    );
    let peak = ys.iter().cloned().fold(0.0f64, f64::max);
    println!(
        "[fig1-sim] {} samples, peak synthetic utilization {:.3} \
         (uniprocessor bound {:.3}), {} idle resets",
        ys.len(),
        peak,
        frap_core::delay::UNIPROCESSOR_BOUND,
        m.stages[0].idle_resets
    );
}

/// Figure 1: a synthetic-utilization step curve for a scripted busy period.
fn figure1() -> Table {
    let mut ac = Admission::new(AlwaysAdmit::new(1), ExactContributions);
    let ms = TimeDelta::from_millis;
    // Scripted arrivals: (time ms, C ms, D ms).
    let script: [(u64, u64, u64); 6] = [
        (0, 10, 100),
        (5, 20, 200),
        (20, 10, 80),
        (45, 30, 300),
        (60, 10, 100),
        (90, 20, 250),
    ];
    let mut events: Vec<Time> = Vec::new();
    for &(a, _c, d) in &script {
        let arrival = Time::from_millis(a);
        events.push(arrival);
        events.push(arrival + ms(d));
    }
    events.sort_unstable();
    events.dedup();

    let mut table = Table::new(
        "Figure 1: synthetic utilization curve U_j(t) for a scripted busy period",
        &["t_ms", "U_j"],
    );
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    let mut next_arrival = 0usize;
    for &t in &events {
        ac.advance_to(t);
        while next_arrival < script.len() && Time::from_millis(script[next_arrival].0) <= t {
            let (a, c, d) = script[next_arrival];
            let spec = TaskSpec::pipeline(ms(d), &[ms(c)]).expect("a one-stage chain");
            ac.try_admit(Time::from_millis(a), &spec)
                .expect("no admission control");
            next_arrival += 1;
        }
        let u = ac.state().stage(StageId::new(0)).value();
        xs.push(t.as_secs_f64() * 1e3);
        ys.push(u);
        table.push_row(vec![f(t.as_secs_f64() * 1e3), f(u)]);
    }
    // Area property: area under the curve equals ΣC_i.
    let total_c: f64 = script.iter().map(|&(_, c, _)| c as f64).sum();
    println!(
        "[fig1] area property: sum of computation times = {total_c} ms \
         (each task contributes a C_i/D_i × D_i rectangle)"
    );
    println!(
        "{}",
        ascii_chart("Figure 1 (shape): U_j(t)", &xs, &[("U_j", ys)], "U_j")
    );
    table.print();
    table
}

/// Figure 2: the worst-case pattern for a stage with delay budget `L_j`.
fn figure2() -> Table {
    // Parameters: D_max = 1 s; tagged task delayed L_j = 0.4 s.
    let d_max = 1.0f64;
    let l_j = 0.4f64;
    // Theorem 1: the minimum curve height is U_j with f(U_j) = L_j / D_max.
    let u_j = stage_delay_factor_inverse(l_j / d_max);
    // Verify by evaluating f forward.
    let back = stage_delay_factor(u_j) * d_max;
    assert!((back - l_j).abs() < 1e-9);

    let mut table = Table::new(
        "Figure 2: worst-case synthetic utilization pattern (L_j = 0.4 s, D_max = 1 s)",
        &["t_s", "worst_case_U", "bounding_line"],
    );
    let mut xs = Vec::new();
    let mut flat = Vec::new();
    let mut line = Vec::new();
    let steps = 50;
    let end = l_j + d_max;
    for i in 0..=steps {
        let t = end * i as f64 / steps as f64;
        // Flat at U_j until the departure (t = L_j), then the trailing
        // edge declines along slope 1/D_max (the ED line of Figure 2).
        let u = if t <= l_j {
            u_j
        } else {
            (u_j - (t - l_j) / d_max).max(0.0)
        };
        let bound = ((end - t) / d_max).min(u_j);
        xs.push(t);
        flat.push(u);
        line.push(bound);
        table.push_row(vec![f(t), f(u), f(bound)]);
    }
    println!(
        "[fig2] minimum curve height U_j = {u_j:.4} for L_j/D_max = {:.2} \
         (stage delay theorem: L_j = f(U_j)·D_max)",
        l_j / d_max
    );
    println!(
        "{}",
        ascii_chart(
            "Figure 2 (shape): worst-case pattern",
            &xs,
            &[("worst-case U", flat), ("trailing bound", line)],
            "U_j",
        )
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worst_case_height_matches_inverse() {
        let t = run(Scale::quick());
        // The flat section's height solves f(U) = L/Dmax = 0.4.
        let u: f64 = t.rows[0][1].parse().unwrap();
        assert!((stage_delay_factor(u) - 0.4).abs() < 1e-3, "u={u}");
        // The curve is non-increasing.
        let mut prev = f64::INFINITY;
        for row in &t.rows {
            let v: f64 = row[1].parse().unwrap();
            assert!(v <= prev + 1e-12);
            prev = v;
        }
        // It reaches (near) zero by the end of the base L + Dmax.
        let last: f64 = t.rows.last().unwrap()[1].parse().unwrap();
        assert!(last < 0.05);
    }
}
