//! # frap-bench
//!
//! Criterion sweeps of the paper's complexity claim, along the axes the
//! repo's benchmark (`benchmark/`, which holds every throughput and
//! per-layer number) does not vary:
//!
//! * `admission` — decision latency is `O(stages)` and flat in the number
//!   of live tasks (the paper's scalability claim), contrasted with a
//!   per-task-walk baseline whose cost grows with the population;
//! * `region` — feasible-region evaluation (pipeline sum and Theorem 2
//!   longest-path forms);
//! * `synthetic` — synthetic-utilization tracker operations.

#![forbid(unsafe_code)]
