//! Golden determinism suite for the scenario subsystem.
//!
//! For every catalog family at the quick horizon, asserts that
//!
//! 1. the rendered `frap-arrivals v2` trace bytes, and
//! 2. the sim-side [`ScenarioReport::fingerprint`]
//!
//! are **bit-identical** to digests committed here: same seed and
//! configuration must reproduce the same bytes on disk and the same
//! admission report, or the committed scenario CSVs under `results/` silently
//! reshape. The digests are FNV-1a-64 over the trace bytes and over the
//! fingerprint words.
//!
//! If a change is *supposed* to alter scenario output (a generator
//! retune, a new seed scheme), re-bless with
//!
//! ```text
//! FRAP_BLESS=1 cargo test -p frap-scenarios --test determinism -- --nocapture
//! ```
//!
//! paste the printed constants, regenerate the committed CSVs, and say so
//! in the commit message.

use frap_core::time::Time;
use frap_scenarios::runner::run_sim;
use frap_scenarios::{catalog, Scenario, ScenarioReport};
use frap_workload::replay::render_trace;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn fingerprint_hash(report: &ScenarioReport) -> u64 {
    let words = report.fingerprint();
    let mut bytes = Vec::with_capacity(words.len() * 8);
    for w in words {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    fnv1a(&bytes)
}

/// The horizon of `all --quick`, whose `scenarios` module prints these
/// reports.
const QUICK_HORIZON: Time = Time::from_secs(8);

fn quick_scenario(name: &str) -> Scenario {
    catalog(QUICK_HORIZON)
        .into_iter()
        .find(|s| s.name == name)
        .expect("scenario in catalog")
}

fn check(name: &str, golden_trace: u64, golden_report: u64) {
    let sc = quick_scenario(name);
    let run = run_sim(&sc);
    assert!(!run.trace.is_empty(), "{name}: empty trace");
    let trace_hash = fnv1a(render_trace(&run.trace).as_bytes());
    let report_hash = fingerprint_hash(&run.report);
    if std::env::var("FRAP_BLESS").is_ok() {
        println!(
            "const GOLDEN_{}: (u64, u64) = ({trace_hash:#018x}, {report_hash:#018x});",
            name.to_uppercase()
        );
        return;
    }
    assert_eq!(
        trace_hash, golden_trace,
        "{name}: trace bytes diverged from the committed golden digest \
         (see module docs for how to re-bless)"
    );
    assert_eq!(
        report_hash, golden_report,
        "{name}: sim report diverged from the committed golden digest \
         (see module docs for how to re-bless)"
    );
}

const GOLDEN_SERVERLESS: (u64, u64) = (0x9fceea799f0a03c9, 0x022b0b5f808fa566);
const GOLDEN_DIURNAL: (u64, u64) = (0x538d8548110b9c07, 0x9f1293835d696da5);
const GOLDEN_FLASH_CROWD: (u64, u64) = (0x2804ed14142f7434, 0xcf39e3a8f501bab1);
const GOLDEN_MULTI_TENANT: (u64, u64) = (0xb42e8936ad4079df, 0x7d3b20f68c02b3ad);

#[test]
fn serverless_trace_and_report_match_golden() {
    check("serverless", GOLDEN_SERVERLESS.0, GOLDEN_SERVERLESS.1);
}

#[test]
fn diurnal_trace_and_report_match_golden() {
    check("diurnal", GOLDEN_DIURNAL.0, GOLDEN_DIURNAL.1);
}

#[test]
fn flash_crowd_trace_and_report_match_golden() {
    check("flash_crowd", GOLDEN_FLASH_CROWD.0, GOLDEN_FLASH_CROWD.1);
}

#[test]
fn multi_tenant_trace_and_report_match_golden() {
    check("multi_tenant", GOLDEN_MULTI_TENANT.0, GOLDEN_MULTI_TENANT.1);
}

/// The on-disk round trip is part of the determinism contract: a trace
/// saved as `frap-arrivals v2` and parsed back must re-render to the
/// same bytes.
#[test]
fn rendered_traces_roundtrip_bit_identically() {
    for sc in catalog(Time::from_millis(500)) {
        let trace = sc.generate();
        let rendered = render_trace(&trace);
        let parsed = frap_workload::replay::parse_trace(&rendered)
            .unwrap_or_else(|e| panic!("{}: {e}", sc.name));
        assert_eq!(parsed, trace, "{}", sc.name);
        assert_eq!(render_trace(&parsed), rendered, "{}", sc.name);
    }
}
