//! # frap-experiments
//!
//! Regenerates every table and figure of the paper's evaluation (Section 4
//! and Section 5) plus the ablations called out in `DESIGN.md`.
//!
//! Each experiment lives in its own module with a `run(scale)` entry point
//! returning a printable/CSV-exportable [`common::Table`]. Binaries under
//! `src/bin/` run the publication-scale sweeps, and with `--quick` the
//! same sweeps at [`common::Scale::quick`].

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
pub mod stress;
