//! The benchmark's fixed vocabulary: workload names, end-to-end metrics
//! with their bounds, and the per-layer metric names. Later issues cite
//! these names; changing one is a benchmark change, never part of a
//! product PR.

/// The five workloads, in the order `all` runs them.
pub const WORKLOADS: [&str; 5] = [
    "gw_reject",
    "gw_admit_release",
    "svc_boundary",
    "sim_paper",
    "cluster_shift",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// How much worse a median may get before `compare` calls a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Share of the baseline median.
    Relative(f64),
    /// Share of the baseline median, but never tighter than an absolute
    /// floor (set-up times of a few milliseconds jitter by more than a
    /// tenth of themselves).
    RelativeOrAbs(f64, f64),
    /// Any worsening at all is a regression (exact outputs, failures).
    Exact,
    /// One rung of the open-loop ladder (250k requests/s).
    OneRung,
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct E2eDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
    /// Workloads it is reported on.
    pub workloads: &'static [&'static str],
    /// Whether it is defined on every workload and therefore listed under
    /// `end_to_end` in `BENCHMARK.json` (the driver requires every listed
    /// metric from every workload; the rest are judged by `compare`).
    pub contract: bool,
}

const ALL: &[&str] = &WORKLOADS;
const GW: &[&str] = &["gw_reject", "gw_admit_release"];

/// The rung step of the open-loop ladder, requests/s.
pub const RUNG_STEP: f64 = 250_000.0;

/// The thirteen end-to-end metrics.
pub const E2E: [E2eDef; 13] = [
    E2eDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: Bound::RelativeOrAbs(0.25, 0.05),
        workloads: ALL,
        contract: true,
    },
    E2eDef {
        name: "decisions_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: Bound::Relative(0.25),
        workloads: ALL,
        contract: true,
    },
    E2eDef {
        name: "rtt_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: Bound::Relative(0.10),
        workloads: ALL,
        contract: false,
    },
    E2eDef {
        name: "rtt_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: Bound::Relative(0.10),
        workloads: ALL,
        contract: false,
    },
    E2eDef {
        name: "max_rate_within_limit",
        unit: "1/s",
        better: Better::Higher,
        bound: Bound::OneRung,
        workloads: GW,
        contract: false,
    },
    E2eDef {
        name: "decide_p50_ns",
        unit: "ns",
        better: Better::Lower,
        bound: Bound::Relative(0.10),
        workloads: &["svc_boundary"],
        contract: false,
    },
    E2eDef {
        name: "decide_p99_ns",
        unit: "ns",
        better: Better::Lower,
        bound: Bound::Relative(0.10),
        workloads: &["svc_boundary"],
        contract: false,
    },
    E2eDef {
        name: "cpu_ns_per_decision",
        unit: "ns",
        better: Better::Lower,
        bound: Bound::Relative(0.25),
        workloads: ALL,
        contract: true,
    },
    E2eDef {
        name: "accept_ratio",
        unit: "ratio",
        better: Better::Higher,
        bound: Bound::Relative(0.05),
        workloads: &["svc_boundary", "sim_paper"],
        contract: false,
    },
    E2eDef {
        name: "accept_vs_oracle",
        unit: "ratio",
        better: Better::Higher,
        bound: Bound::Relative(0.05),
        workloads: &["cluster_shift"],
        contract: false,
    },
    E2eDef {
        name: "sim_events_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: Bound::Relative(0.10),
        workloads: &["sim_paper"],
        contract: false,
    },
    E2eDef {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: Bound::Relative(0.25),
        workloads: ALL,
        contract: true,
    },
    E2eDef {
        name: "failed_share",
        unit: "ratio",
        better: Better::Lower,
        bound: Bound::Exact,
        workloads: ALL,
        contract: false,
    },
];

pub fn e2e_def(name: &str) -> Option<&'static E2eDef> {
    E2E.iter().find(|d| d.name == name)
}

/// The bound `compare` applies to `(workload, metric)`: `accept_ratio` is
/// statistical on `svc_boundary` but an exact output of `sim_paper`.
pub fn bound_for(workload: &str, def: &E2eDef) -> Bound {
    if def.name == "accept_ratio" && workload == "sim_paper" {
        Bound::Exact
    } else {
        def.bound
    }
}

/// Every per-layer metric `(name, unit)`; layer = crate/module name. A
/// traced run reports all of them, with 0 for layers the workload never
/// enters.
pub const LAYER: [(&str, &str); 57] = [
    ("core.kernel_ns_per_check_s3", "ns"),
    ("core.kernel_ns_per_check_s64", "ns"),
    ("core.kernel_fallback_share_s64", "ratio"),
    ("core.fp_overlay_ns_per_check", "ns"),
    ("core.fp_convert_ns_per_task", "ns"),
    ("core.admission_ns_per_decision", "ns"),
    ("workload.specs_per_s", "1/s"),
    ("sim.events_per_s_noac", "1/s"),
    ("sim.events", "count"),
    ("experiments.fig4_events_per_s", "1/s"),
    ("experiments.table1_events_per_s", "1/s"),
    ("experiments.parallel_speedup_j2", "ratio"),
    ("scenarios.gen_tasks_per_s", "1/s"),
    ("scenarios.sim_events_per_s", "1/s"),
    ("scenarios.service_replay_decisions_per_s", "1/s"),
    ("service.try_admit_reject_ns", "ns"),
    ("service.try_admit_admit_ns", "ns"),
    ("service.release_ns", "ns"),
    ("service.batch40_reject_ns_per_req", "ns"),
    ("service.batch40_admit_ns_per_req", "ns"),
    ("service.maintain_ns_per_expiry", "ns"),
    ("service.cas_retries_per_admit", "ratio"),
    ("service.seqlock_fallbacks", "count"),
    ("service.fast_reject_share", "ratio"),
    ("service.scaling_2t", "ratio"),
    ("service.snapshot_ns", "ns"),
    ("service.decide_p50_ns", "ns"),
    ("service.decide_p99_ns", "ns"),
    ("gateway.encode_req_ns", "ns"),
    ("gateway.encode_req_generic_ns", "ns"),
    ("gateway.decode_req_ns", "ns"),
    ("gateway.encode_resp_ns", "ns"),
    ("gateway.decode_resp_ns", "ns"),
    ("gateway.client_flush_ns_per_req", "ns"),
    ("gateway.client_recv_ns_per_resp", "ns"),
    ("gateway.client_io_cpu_ns_per_decision", "ns"),
    ("gateway.syscalls_per_decision", "ratio"),
    ("gateway.bytes_per_decision", "ratio"),
    ("gateway.frames_per_wakeup", "ratio"),
    ("gateway.backpressure_stalls", "count"),
    ("gateway.rtt_p50_us", "us"),
    ("gateway.rtt_p99_us", "us"),
    ("gateway.rtt_ptail_us", "us"),
    ("gateway.gen_lateness_p99_us", "us"),
    ("gateway.connect_handshake_us", "us"),
    ("gateway.unattributed_ns_per_decision", "ns"),
    ("gateway.max_rate_within_limit", "1/s"),
    ("cluster.lease_frames_per_s", "1/s"),
    ("cluster.lease_bytes_per_decision", "ratio"),
    ("cluster.borrows", "count"),
    ("cluster.steals", "count"),
    ("cluster.rebalance_ms", "ms"),
    ("cluster.coord_handle_ns", "ns"),
    ("cluster.node_tick_ns", "ns"),
    ("bench.generator_self_ns_per_decision", "ns"),
    ("bench.traced_decisions_per_s", "1/s"),
    ("trace_overhead_share", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = E2E.iter().map(|d| d.name).collect();
        names.extend(LAYER.iter().map(|l| l.0));
        names.extend(WORKLOADS);
        let ok = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        };
        for n in &names {
            assert!(ok(n), "bad name {n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate name");
        for d in &E2E {
            for w in d.workloads {
                assert!(WORKLOADS.contains(w));
            }
        }
        assert_eq!(E2E.iter().filter(|d| d.contract).count(), 4);
    }

    /// `BENCHMARK.json` at the repo root is the same vocabulary: the
    /// contract metrics with their units, directions and bounds, every
    /// layer metric, the five workloads, and `run_seconds`.
    #[test]
    fn benchmark_json_agrees_with_this_file() {
        use crate::json::{parse, Json};
        let path = crate::env::bench_dir().join("..").join("BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses");
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("a list")
                .to_vec()
        };
        let text = |j: &Json, key: &str| {
            j.get(key)
                .and_then(Json::as_str)
                .expect("a string")
                .to_string()
        };

        let workloads: Vec<String> = list("workloads").iter().map(|w| text(w, "name")).collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
        let contract: Vec<&E2eDef> = E2E.iter().filter(|d| d.contract).collect();
        let listed = list("end_to_end");
        assert_eq!(listed.len(), contract.len());
        for (json, def) in listed.iter().zip(contract) {
            assert_eq!(text(json, "name"), def.name);
            assert_eq!(text(json, "unit"), def.unit);
            let better = if def.better == Better::Higher {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(text(json, "better"), better);
            let bound = match def.bound {
                Bound::Relative(r) | Bound::RelativeOrAbs(r, _) => r,
                Bound::Exact | Bound::OneRung => panic!("{} cannot be a contract metric", def.name),
            };
            assert_eq!(json.get("bound").and_then(Json::as_f64), Some(bound));
        }
        let layers: Vec<(String, String)> = list("per_layer")
            .iter()
            .map(|l| (text(l, "name"), text(l, "unit")))
            .collect();
        let ours: Vec<(String, String)> = LAYER.iter().map(|l| (l.0.into(), l.1.into())).collect();
        assert_eq!(layers, ours);
    }
}
