//! Capture, save, replay, and trace a workload.
//!
//! Demonstrates the operational tooling around the simulator: arrival
//! traces serialize to a shareable text format, and the simulator can
//! record a scheduling trace (admissions, dispatches, completions, idle
//! resets) for post-mortem inspection.
//!
//! Run with: `cargo run --example trace_and_replay`

use frap::core::time::Time;
use frap::sim::pipeline::SimBuilder;
use frap::workload::replay::{load_trace, save_trace, ArrivalTrace};
use frap::workload::taskgen::PipelineWorkloadBuilder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let horizon = Time::from_secs(1);

    // 1. Generate a workload and save it.
    let workload = PipelineWorkloadBuilder::new(2)
        .load(1.0)
        .resolution(30.0)
        .seed(7)
        .build()
        .until(horizon);
    let mut original = ArrivalTrace::new().with_scenario("pipeline load=1.0 seed=7");
    for (at, spec) in workload {
        original.push(at, spec, 0);
    }
    let path = std::env::temp_dir().join("frap_demo_trace.txt");
    save_trace(&path, &original)?;
    println!("saved {} arrivals to {}", original.len(), path.display());

    // 2. Load it back — bit-identical workload, shareable across machines.
    let replayed = load_trace(&path)?;
    assert_eq!(replayed, original);

    // 3. Run it with scheduling-trace recording enabled.
    let mut sim = SimBuilder::new(2).trace(50_000).build();
    let m = sim.run(replayed.iter_arrivals(), horizon).clone();
    println!(
        "replayed run: {} offered, {} admitted, {} completed, {} missed",
        m.offered, m.admitted, m.completed, m.missed
    );
    println!(
        "response times: p50 {}  p99 {}  max {}",
        m.response_percentile(0.50),
        m.response_percentile(0.99),
        m.response_max
    );

    // 4. Inspect the trace: overall stats and one task's life story.
    let trace = sim.trace().expect("tracing enabled");
    println!(
        "\ntrace: {} events retained ({} dropped)",
        trace.len(),
        trace.dropped()
    );
    if let Some(first_admitted) = trace.iter().find_map(|e| match e {
        frap::sim::TraceEvent::Admitted { task, .. } => Some(*task),
        _ => None,
    }) {
        println!("life of {first_admitted}:");
        for event in trace.of_task(first_admitted) {
            println!("  {event}");
        }
    }

    std::fs::remove_file(&path).ok();
    Ok(())
}
