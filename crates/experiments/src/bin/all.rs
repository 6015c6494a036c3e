//! Regenerates every figure and table in one run (use `--quick` for the
//! scaled-down variant, `--jobs N` to set replication parallelism).

fn main() {
    let scale = frap_experiments::common::Scale::from_args();
    println!(
        "# FRAP experiment suite (horizon {}s x {} replications, {} jobs)\n",
        scale.horizon_secs,
        scale.replications,
        scale.effective_jobs()
    );
    type Runner = fn(frap_experiments::common::Scale) -> frap_experiments::common::Table;
    let runs: Vec<(&str, Runner)> = vec![
        ("fig1_2", frap_experiments::fig1_2::run),
        ("fig3_dag", frap_experiments::fig3_dag::run),
        ("fig4", frap_experiments::fig4::run),
        ("fig5", frap_experiments::fig5::run),
        ("fig6", frap_experiments::fig6::run),
        ("fig7", frap_experiments::fig7::run),
        ("table1", frap_experiments::table1::run),
        ("ablations", frap_experiments::ablations::run),
        ("jitter", frap_experiments::jitter::run),
        ("stress", frap_experiments::stress::run),
        ("multiserver", frap_experiments::multiserver::run),
    ];
    let suite = frap_experiments::runner::perf::Span::new();
    for (name, run) in runs {
        println!("\n################ {name} ################");
        let table = run(scale);
        table.print();
        table.write_csv(name);
    }
    println!();
    suite.report("suite total");
}
