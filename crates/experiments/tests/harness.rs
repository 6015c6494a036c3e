//! One producer per committed CSV: the modules return their tables (side
//! tables attached) and write nothing, and every CSV under `results/`,
//! subdirectories included, is the main table of exactly one `MODULES`
//! entry or exactly one attached table.

use frap_experiments::common::Scale;
use frap_experiments::{fig1_2, fig3_dag, scenarios, table1, Module, MODULES};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Each module with side tables, and the names it attaches them under.
const ATTACHING: [(Module, &[&str]); 4] = [
    (
        ("fig1_2", fig1_2::run),
        &["fig1_synthetic_utilization_curve"],
    ),
    (("fig3_dag", fig3_dag::run), &["fig3_theorem2_validation"]),
    (("table1", table1::run), &["table1_certification"]),
    (
        ("scenarios", scenarios::run),
        &[
            "scenarios/serverless_tenants",
            "scenarios/serverless_importance",
            "scenarios/diurnal_tenants",
            "scenarios/diurnal_importance",
            "scenarios/flash_crowd_tenants",
            "scenarios/flash_crowd_importance",
            "scenarios/multi_tenant_tenants",
            "scenarios/multi_tenant_importance",
        ],
    ),
];

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Every file under `dir`, recursively, with its bytes.
fn snapshot(dir: &Path, out: &mut Vec<(PathBuf, Vec<u8>)>) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read results/")
        .map(|e| e.expect("results/ entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            snapshot(&path, out);
        } else {
            let bytes = std::fs::read(&path).expect("read a results/ file");
            out.push((path, bytes));
        }
    }
}

#[test]
fn each_committed_csv_has_one_producer_and_runs_write_nothing() {
    let mut before = Vec::new();
    snapshot(&results_dir(), &mut before);

    let scale = Scale {
        horizon_secs: 1,
        replications: 1,
        jobs: 1,
    };
    for ((module, run), sides) in ATTACHING {
        let table = run(scale);
        let names: Vec<&str> = table.attached.iter().map(|(name, _)| &name[..]).collect();
        assert_eq!(names, sides, "{module} attaches exactly its side tables");
        assert!(
            MODULES.iter().any(|(name, _)| *name == module),
            "{module} is a `MODULES` entry"
        );
    }

    // Every stem produced, counted once per producer.
    let mut produced: Vec<&str> = MODULES.iter().map(|(name, _)| *name).collect();
    produced.extend(
        ATTACHING
            .iter()
            .flat_map(|(_, sides)| sides.iter().copied()),
    );
    let distinct: BTreeSet<&str> = produced.iter().copied().collect();
    assert_eq!(distinct.len(), produced.len(), "a stem with two producers");

    let root = results_dir();
    let committed: BTreeSet<String> = before
        .iter()
        .filter(|(path, _)| path.extension().is_some_and(|e| e == "csv"))
        .map(|(path, _)| {
            let stem = path.strip_prefix(&root).unwrap().with_extension("");
            stem.to_string_lossy().replace('\\', "/")
        })
        .collect();
    let distinct: BTreeSet<String> = distinct.into_iter().map(String::from).collect();
    assert_eq!(
        distinct, committed,
        "every CSV under results/ has exactly one producer"
    );

    let mut after = Vec::new();
    snapshot(&results_dir(), &mut after);
    assert!(before == after, "running the modules changed results/");
}
