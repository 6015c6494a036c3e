//! # frap-experiments
//!
//! Regenerates every table and figure of the paper's evaluation (Section 4
//! and Section 5), the ablations called out in `DESIGN.md`, and the
//! reports of the `frap-scenarios` families: everything under `results/`.
//!
//! Each experiment lives in its own module with a `run(scale)` entry point
//! returning a printable/CSV-exportable [`common::Table`], with any side
//! tables it computed attached ([`common::Table::attached`]). No module
//! writes a file: the one binary, `all`, runs the modules of [`MODULES`]
//! (all of them, or those named on its command line) and, at publication
//! scale only, writes each main table as `results/<module name>.csv` and
//! each attached one under its own name. With `--quick` it runs the same
//! sweeps at [`common::Scale::quick`] and writes nothing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod common;
pub mod runner;

pub mod fig1_2;
pub mod fig3_dag;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod jitter;
pub mod multiserver;
pub mod table1;

pub mod ablations;
pub mod scenarios;
pub mod stress;

use common::{Scale, Table};

/// An experiment module: its name, which is also the CSV stem of its main
/// table, and its entry point.
pub type Module = (&'static str, fn(Scale) -> Table);

/// Every module that writes `results/`: the paper's experiments in the
/// order the paper presents them, then the repo's own sweeps and the
/// scenario families.
pub const MODULES: [Module; 12] = [
    ("fig1_2", fig1_2::run),
    ("fig3_dag", fig3_dag::run),
    ("fig4", fig4::run),
    ("fig5", fig5::run),
    ("fig6", fig6::run),
    ("fig7", fig7::run),
    ("table1", table1::run),
    ("ablations", ablations::run),
    ("jitter", jitter::run),
    ("stress", stress::run),
    ("multiserver", multiserver::run),
    ("scenarios", scenarios::run),
];
