//! Regenerates the paper's figures and tables: every module of
//! `frap_experiments::MODULES`, or only those named on the command line
//! (run in `MODULES` order).
//!
//! ```text
//! cargo run --release -p frap-experiments --bin all -- [MODULE…] [--quick] [--jobs N]
//! ```
//!
//! At publication scale each module's table is written to
//! `results/<module>.csv` and each table it attaches to
//! `results/<attached name>.csv`. `--quick` runs the same sweeps at the
//! quick scale and writes nothing; `--jobs N` sets the replication
//! parallelism (`0`, the default, uses every core). An unknown module, or
//! a `--jobs` without a worker count, exits 2.

use frap_experiments::common::Scale;
use frap_experiments::MODULES;

fn main() {
    let scale = Scale::from_args();
    let mut names = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => {}
            "--jobs" => {
                // `Scale::from_args` has checked the value.
                args.next();
            }
            _ => names.push(arg),
        }
    }
    if let Some(unknown) = names
        .iter()
        .find(|n| !MODULES.iter().any(|(name, _)| name == n))
    {
        let valid: Vec<&str> = MODULES.iter().map(|(name, _)| *name).collect();
        eprintln!("unknown module `{unknown}`; valid: {}", valid.join(" "));
        std::process::exit(2);
    }
    let publish = scale.is_publication();
    println!(
        "# FRAP experiment suite (horizon {}s x {} replications, {} jobs)\n",
        scale.horizon_secs,
        scale.replications,
        scale.effective_jobs()
    );
    let suite = frap_experiments::runner::perf::Span::new();
    for (name, run) in MODULES {
        if !names.is_empty() && !names.iter().any(|n| n == name) {
            continue;
        }
        println!("\n################ {name} ################");
        let table = run(scale);
        table.print();
        if publish {
            table.write_csv(name);
            for (attached, side) in &table.attached {
                side.write_csv(attached);
            }
        }
    }
    println!();
    suite.report("suite total");
}
