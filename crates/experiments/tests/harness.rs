//! One producer per committed CSV: the modules return their tables (side
//! tables attached) and write nothing, and every top-level
//! `results/*.csv` is the main table of one `MODULES` entry or one
//! attached table.

use frap_experiments::common::Scale;
use frap_experiments::{fig1_2, fig3_dag, table1, Module, MODULES};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Each module with a side table, and the name it attaches it under.
const ATTACHING: [(Module, &str); 3] = [
    (("fig1_2", fig1_2::run), "fig1_synthetic_utilization_curve"),
    (("fig3_dag", fig3_dag::run), "fig3_theorem2_validation"),
    (("table1", table1::run), "table1_certification"),
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
    for ((module, run), side) in ATTACHING {
        let table = run(scale);
        let names: Vec<&str> = table.attached.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, [side], "{module} attaches exactly its side table");
    }

    let produced: BTreeSet<String> = MODULES
        .iter()
        .map(|(name, _)| *name)
        .chain(ATTACHING.iter().map(|(_, side)| *side))
        .map(String::from)
        .collect();
    let committed: BTreeSet<String> = before
        .iter()
        .filter(|(path, _)| {
            path.parent() == Some(results_dir().as_path())
                && path.extension().is_some_and(|e| e == "csv")
        })
        .map(|(path, _)| path.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    assert_eq!(
        produced, committed,
        "every results/*.csv has exactly one producer"
    );

    let mut after = Vec::new();
    snapshot(&results_dir(), &mut after);
    assert!(before == after, "running the modules changed results/");
}
