//! A three-tier web server (front end → business logic → database) serving
//! aperiodic requests with end-to-end response-time guarantees — the
//! motivating scenario from the paper's introduction.
//!
//! Compares feasible-region admission control against no admission control
//! at 150 % offered load: the controller trades a fraction of the arrivals
//! for a hard guarantee that every *accepted* request meets its deadline.
//!
//! Run with: `cargo run --example web_server_pipeline`

use frap::core::admission::AlwaysAdmit;
use frap::core::time::Time;
use frap::sim::pipeline::SimBuilder;
use frap::sim::SimMetrics;
use frap::workload::taskgen::PipelineWorkloadBuilder;

const STAGES: usize = 3; // front end, app tier, database

fn serve(with_admission_control: bool) -> SimMetrics {
    let horizon = Time::from_secs(30);
    // Mean request work: 2 ms + 5 ms + 3 ms; deadlines ~ 60x total work
    // (hundreds of concurrent requests in flight, as on a real server).
    let workload = PipelineWorkloadBuilder::new(STAGES)
        .stage_means_ms(&[2.0, 5.0, 3.0])
        .resolution(60.0)
        .load(1.5)
        .seed(2024)
        .build()
        .until(horizon);

    let mut sim = if with_admission_control {
        SimBuilder::new(STAGES).build()
    } else {
        SimBuilder::new(STAGES)
            .region(AlwaysAdmit::new(STAGES))
            .build()
    };
    sim.run(workload, horizon).clone()
}

fn report(label: &str, m: &SimMetrics) {
    println!("--- {label} ---");
    println!("  offered:     {}", m.offered);
    println!(
        "  admitted:    {} ({:.1}%)",
        m.admitted,
        m.acceptance_ratio() * 100.0
    );
    println!("  completed:   {}", m.completed);
    println!(
        "  missed:      {} ({:.2}% of completions)",
        m.missed,
        m.miss_ratio() * 100.0
    );
    println!("  mean resp:   {}", m.mean_response());
    println!(
        "  resp p50/p99: {} / {}",
        m.response_percentile(0.50),
        m.response_percentile(0.99)
    );
    println!("  max resp:    {}", m.response_max);
    for j in 0..STAGES {
        println!("  tier {j} util: {:.1}%", m.stage_utilization(j) * 100.0);
    }
    println!();
}

fn main() {
    println!("three-tier server at 150% offered load (bottleneck tier capacity)\n");
    let with_ac = serve(true);
    let without_ac = serve(false);
    report("feasible-region admission control", &with_ac);
    report("no admission control", &without_ac);

    assert_eq!(
        with_ac.missed, 0,
        "the feasible region guarantees every admitted request its deadline"
    );
    println!(
        "=> admission control served {} requests with ZERO deadline misses;\n\
         => without it, {} of {} completed requests blew their deadline.",
        with_ac.completed, without_ac.missed, without_ac.completed
    );
}
