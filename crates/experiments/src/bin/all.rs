//! Writes `results/`: runs every module of `frap_experiments::MODULES` —
//! the paper's figures and tables, the repo's sweeps and the scenario
//! families — or only those named on the command line (run in `MODULES`
//! order).
//!
//! ```text
//! cargo run --release -p frap-experiments --bin all -- [MODULE…] [--quick] [--jobs N]
//! ```
//!
//! At publication scale each module's table is written to
//! `results/<module>.csv` and each table it attaches to
//! `results/<attached name>.csv`. `--quick` runs the same sweeps at the
//! quick scale and writes nothing; `--jobs N` sets the replication
//! parallelism (`0`, the default, uses every core). A module's own
//! checks (the scenario families' zero misses among them) panic on a
//! failure. An unknown module, or a `--jobs` without a worker count,
//! exits 2.

use frap_experiments::common::Scale;
use frap_experiments::MODULES;

fn main() {
    exit_quietly_when_stdout_closes();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (scale, names) = Scale::parse(&args).unwrap_or_else(|err| {
        eprintln!("{err}");
        std::process::exit(2)
    });
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

/// Makes `all` stop quietly, with status 0, once stdout's reader has
/// gone (`all | head`): `println!` panics there, and this panic hook
/// turns that one panic into an exit. Every other panic goes on to the
/// hook it replaces. `tests/broken_pipe.rs` pins the standard library's
/// message it matches.
fn exit_quietly_when_stdout_closes() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let message = info.payload_as_str().unwrap_or_default();
        if message.starts_with("failed printing to stdout: Broken pipe") {
            std::process::exit(0);
        }
        default(info);
    }));
}
