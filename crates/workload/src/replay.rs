//! Saving and replaying arrival traces.
//!
//! Experiments are reproducible from seeds, but sharing a concrete
//! workload (or replaying a trace captured from a real system) needs a
//! serialized form. The format is a line-oriented text file with a
//! versioned header:
//!
//! ```text
//! # frap-arrivals v2
//! # scenario: serverless seed=42
//! <arrival_us>,<deadline_us>,<importance>,<nodes>,<edges>[,<tenant>]
//! ```
//!
//! where `<nodes>` is `;`-separated subtasks — each `stage:seg|seg|…`
//! with a segment being `dur_us` or `dur_us@lock` (critical section) —
//! and `<edges>` is `;`-separated `from->to` pairs (empty for single
//! subtasks, `-` when absent).
//!
//! **v2** extends **v1** backward-compatibly: an optional trailing
//! `<tenant>` field attributes each arrival to a tenant (defaults to 0
//! when absent), and an optional `# scenario: <text>` comment carries
//! free-form scenario metadata. Traces are written as v2 only
//! ([`render_trace`], [`save_trace`]); [`parse_trace`] and [`load_trace`]
//! also read v1 files, which yield tenant 0 and no scenario line. Headers
//! naming any other version are rejected (with the line number).
//!
//! # Examples
//!
//! A generated workload, saved as a tenant-attributed [`ArrivalTrace`]
//! and loaded back:
//!
//! ```
//! use frap_workload::replay::{load_trace, save_trace, ArrivalTrace};
//! use frap_workload::taskgen::PipelineWorkloadBuilder;
//!
//! let mut trace = ArrivalTrace::new().with_scenario("demo seed=1");
//! for (at, spec) in PipelineWorkloadBuilder::new(2).seed(1).build().take(10) {
//!     trace.push(at, spec, 7);
//! }
//! let path = std::env::temp_dir().join("frap_replay_doc_trace.txt");
//! save_trace(&path, &trace)?;
//! let loaded = load_trace(&path)?;
//! assert_eq!(loaded, trace);
//! assert_eq!(loaded.records[3].tenant, 7);
//! assert_eq!(loaded.scenario.as_deref(), Some("demo seed=1"));
//! # std::fs::remove_file(&path).ok();
//! # Ok::<(), frap_workload::replay::ReplayError>(())
//! ```

use frap_core::graph::{TaskGraph, TaskSpec};
use frap_core::task::{Importance, LockId, Segment, StageId, SubtaskSpec};
use frap_core::time::{Time, TimeDelta};
use std::fmt;
use std::fmt::Write as _;
use std::path::Path;

/// Errors from loading an arrival trace. Every parse variant carries the
/// 1-based line number of the offending line (see [`ReplayError::line`]).
#[derive(Debug)]
#[non_exhaustive]
pub enum ReplayError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The header names a format version this parser does not understand.
    UnsupportedVersion {
        /// 1-based line number.
        line: usize,
        /// The version text found in the header.
        version: String,
    },
    /// A data line had the wrong number of comma-separated fields.
    FieldCount {
        /// 1-based line number.
        line: usize,
        /// How many fields the line actually had.
        got: usize,
    },
    /// A numeric field did not parse.
    InvalidNumber {
        /// 1-based line number.
        line: usize,
        /// Which field was malformed.
        what: &'static str,
        /// The offending text.
        text: String,
    },
    /// A node entry was structurally malformed (missing the `stage:segs`
    /// separator).
    MalformedNode {
        /// 1-based line number.
        line: usize,
        /// The offending node text.
        node: String,
    },
    /// An edge entry was structurally malformed (missing `->`).
    MalformedEdge {
        /// 1-based line number.
        line: usize,
        /// The offending edge text.
        edge: String,
    },
    /// The nodes and edges did not assemble into a valid task graph
    /// (cycle, dangling edge index, …).
    InvalidGraph {
        /// 1-based line number.
        line: usize,
        /// The graph builder's complaint.
        reason: String,
    },
    /// An arrival precedes the arrival of an earlier line (a trace lists
    /// its arrivals in nondecreasing time order).
    OutOfOrder {
        /// 1-based line number.
        line: usize,
        /// The arrival time of the previous data line.
        previous: Time,
        /// This line's arrival time, earlier than `previous`.
        arrival: Time,
    },
}

impl ReplayError {
    /// The 1-based line number the error points at (`None` for I/O
    /// errors, which concern the file as a whole).
    pub fn line(&self) -> Option<usize> {
        match self {
            ReplayError::Io(_) => None,
            ReplayError::UnsupportedVersion { line, .. }
            | ReplayError::FieldCount { line, .. }
            | ReplayError::InvalidNumber { line, .. }
            | ReplayError::MalformedNode { line, .. }
            | ReplayError::MalformedEdge { line, .. }
            | ReplayError::InvalidGraph { line, .. }
            | ReplayError::OutOfOrder { line, .. } => Some(*line),
        }
    }
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Io(e) => write!(f, "arrival trace io error: {e}"),
            ReplayError::UnsupportedVersion { line, version } => write!(
                f,
                "arrival trace parse error at line {line}: unsupported format version {version:?}"
            ),
            ReplayError::FieldCount { line, got } => write!(
                f,
                "arrival trace parse error at line {line}: expected 5 or 6 fields, got {got}"
            ),
            ReplayError::InvalidNumber { line, what, text } => write!(
                f,
                "arrival trace parse error at line {line}: invalid {what}: {text:?}"
            ),
            ReplayError::MalformedNode { line, node } => write!(
                f,
                "arrival trace parse error at line {line}: node missing stage separator: {node:?}"
            ),
            ReplayError::MalformedEdge { line, edge } => write!(
                f,
                "arrival trace parse error at line {line}: malformed edge: {edge:?}"
            ),
            ReplayError::InvalidGraph { line, reason } => write!(
                f,
                "arrival trace parse error at line {line}: invalid task graph: {reason}"
            ),
            ReplayError::OutOfOrder {
                line,
                previous,
                arrival,
            } => write!(
                f,
                "arrival trace parse error at line {line}: arrival at {} us precedes the \
                 previous arrival at {} us",
                arrival.as_micros(),
                previous.as_micros()
            ),
        }
    }
}

impl std::error::Error for ReplayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplayError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ReplayError {
    fn from(e: std::io::Error) -> Self {
        ReplayError::Io(e)
    }
}

const HEADER_V2: &str = "# frap-arrivals v2";
const HEADER_PREFIX: &str = "# frap-arrivals ";
const SCENARIO_PREFIX: &str = "# scenario:";

/// One arrival in a [`ArrivalTrace`]: when, what, and whose.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Arrival time.
    pub at: Time,
    /// The task offered to admission control.
    pub spec: TaskSpec,
    /// Tenant (or workload-class) label; 0 when the trace predates v2.
    pub tenant: u32,
}

/// A tenant-attributed arrival sequence plus scenario metadata — the
/// in-memory form of the `frap-arrivals v2` on-disk format.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ArrivalTrace {
    /// Free-form scenario description (`# scenario:` line), if any.
    pub scenario: Option<String>,
    /// Arrivals in nondecreasing time order.
    pub records: Vec<TraceRecord>,
}

impl ArrivalTrace {
    /// An empty trace with no scenario metadata.
    pub fn new() -> ArrivalTrace {
        ArrivalTrace::default()
    }

    /// This trace with a `# scenario:` metadata line. Newlines are
    /// replaced with spaces (the on-disk form is line-oriented).
    pub fn with_scenario(mut self, scenario: impl Into<String>) -> ArrivalTrace {
        self.scenario = Some(scenario.into().replace(['\n', '\r'], " "));
        self
    }

    /// Appends an arrival.
    pub fn push(&mut self, at: Time, spec: TaskSpec, tenant: u32) {
        self.records.push(TraceRecord { at, spec, tenant });
    }

    /// Number of arrivals.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace has no arrivals.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The arrivals as the `(Time, TaskSpec)` form the simulator and the
    /// replication runner consume (tenants dropped; a graph clone is a
    /// 24-byte copy for a plain chain of up to five stages and a refcount
    /// bump otherwise, O(1) either way).
    pub fn arrivals(&self) -> Vec<(Time, TaskSpec)> {
        self.iter_arrivals().collect()
    }

    /// [`ArrivalTrace::arrivals`] one at a time, borrowing the trace: the
    /// simulator pulls arrivals as its clock reaches them, so nothing is
    /// built up front.
    pub fn iter_arrivals(&self) -> impl Iterator<Item = (Time, TaskSpec)> + '_ {
        self.records.iter().map(|r| (r.at, r.spec.clone()))
    }
}

fn render_spec_fields(out: &mut String, t: Time, spec: &TaskSpec) {
    let mut nodes = String::new();
    for (i, sub) in spec.graph.subtasks().enumerate() {
        if i > 0 {
            nodes.push(';');
        }
        let _ = write!(nodes, "{}:", sub.stage.index());
        for (k, seg) in sub.segments.iter().enumerate() {
            if k > 0 {
                nodes.push('|');
            }
            match seg.lock {
                Some(l) => {
                    let _ = write!(nodes, "{}@{}", seg.duration.as_micros(), l.index());
                }
                None => {
                    let _ = write!(nodes, "{}", seg.duration.as_micros());
                }
            }
        }
    }
    let mut edges = String::new();
    for i in 0..spec.graph.len() {
        for &s in spec.graph.succs(i) {
            if !edges.is_empty() {
                edges.push(';');
            }
            let _ = write!(edges, "{i}->{s}");
        }
    }
    if edges.is_empty() {
        edges.push('-');
    }
    let _ = write!(
        out,
        "{},{},{},{},{}",
        t.as_micros(),
        spec.deadline.as_micros(),
        spec.importance.level(),
        nodes,
        edges
    );
}

/// Renders a tenant-attributed trace to the v2 format.
pub fn render_trace(trace: &ArrivalTrace) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{HEADER_V2}");
    if let Some(scenario) = &trace.scenario {
        let _ = writeln!(out, "{SCENARIO_PREFIX} {scenario}");
    }
    for r in &trace.records {
        render_spec_fields(&mut out, r.at, &r.spec);
        let _ = writeln!(out, ",{}", r.tenant);
    }
    out
}

/// Parses one integer field into the type that stores it: a value that
/// does not fit is refused like any other malformed number, never
/// truncated.
fn num<T: std::str::FromStr>(line: usize, s: &str, what: &'static str) -> Result<T, ReplayError> {
    s.parse().map_err(|_| ReplayError::InvalidNumber {
        line,
        what,
        text: s.to_string(),
    })
}

/// Parses either trace format (v1 or v2) into an [`ArrivalTrace`].
///
/// v1 lines yield tenant 0; a v2 trailing tenant field and `# scenario:`
/// metadata are picked up when present.
///
/// # Errors
///
/// Returns the [`ReplayError`] variant describing the first malformed
/// line — arrivals out of time order included; every parse variant
/// carries the 1-based line number.
pub fn parse_trace(text: &str) -> Result<ArrivalTrace, ReplayError> {
    let mut trace = ArrivalTrace::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix(SCENARIO_PREFIX) {
            trace.scenario = Some(rest.trim().to_string());
            continue;
        }
        if let Some(version) = trimmed.strip_prefix(HEADER_PREFIX) {
            if version != "v1" && version != "v2" {
                return Err(ReplayError::UnsupportedVersion {
                    line,
                    version: version.to_string(),
                });
            }
            continue;
        }
        if trimmed.starts_with('#') {
            continue;
        }
        let mut fields = [""; 6];
        let mut count = 0;
        for field in trimmed.split(',') {
            if let Some(slot) = fields.get_mut(count) {
                *slot = field;
            }
            count += 1;
        }
        if count != 5 && count != 6 {
            return Err(ReplayError::FieldCount { line, got: count });
        }
        let micros = |s, what| num::<u64>(line, s, what);
        let arrival = Time::from_micros(micros(fields[0], "arrival time")?);
        if let Some(previous) = trace.records.last().map(|r| r.at) {
            if arrival < previous {
                return Err(ReplayError::OutOfOrder {
                    line,
                    previous,
                    arrival,
                });
            }
        }
        let deadline = TimeDelta::from_micros(micros(fields[1], "deadline")?);
        let importance = Importance::new(num(line, fields[2], "importance")?);

        let mut builder = TaskGraph::builder();
        for node in fields[3].split(';') {
            let (stage_s, segs_s) =
                node.split_once(':')
                    .ok_or_else(|| ReplayError::MalformedNode {
                        line,
                        node: node.to_string(),
                    })?;
            let stage = StageId::new(num(line, stage_s, "stage")?);
            let mut segments = Vec::new();
            for seg in segs_s.split('|') {
                let segment = match seg.split_once('@') {
                    Some((dur, lock)) => Segment::critical(
                        TimeDelta::from_micros(micros(dur, "segment duration")?),
                        LockId::new(num::<u32>(line, lock, "lock")? as usize),
                    ),
                    None => {
                        Segment::compute(TimeDelta::from_micros(micros(seg, "segment duration")?))
                    }
                };
                segments.push(segment);
            }
            builder.add(SubtaskSpec::with_segments(stage, segments));
        }
        if fields[4] != "-" {
            for edge in fields[4].split(';') {
                let (a, b) = edge
                    .split_once("->")
                    .ok_or_else(|| ReplayError::MalformedEdge {
                        line,
                        edge: edge.to_string(),
                    })?;
                builder.edge(num(line, a, "edge source")?, num(line, b, "edge target")?);
            }
        }
        let graph = builder.build().map_err(|e| ReplayError::InvalidGraph {
            line,
            reason: e.to_string(),
        })?;
        let tenant = match count {
            6 => num(line, fields[5], "tenant")?,
            _ => 0,
        };
        trace.push(
            arrival,
            TaskSpec::new(deadline, graph).with_importance(importance),
            tenant,
        );
    }
    Ok(trace)
}

/// Writes a tenant-attributed trace to `path` in the v2 format.
///
/// # Errors
///
/// Returns [`ReplayError::Io`] on filesystem errors.
pub fn save_trace(path: impl AsRef<Path>, trace: &ArrivalTrace) -> Result<(), ReplayError> {
    std::fs::write(path, render_trace(trace))?;
    Ok(())
}

/// Loads a tenant-attributed trace from `path` (either format version).
///
/// # Errors
///
/// Returns [`ReplayError::Io`] on filesystem errors and a parse variant
/// (with line number) on malformed content.
pub fn load_trace(path: impl AsRef<Path>) -> Result<ArrivalTrace, ReplayError> {
    parse_trace(&std::fs::read_to_string(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taskgen::{
        merge_arrivals, CriticalSectionConfig, DagWorkload, PipelineWorkloadBuilder,
    };

    /// `arrivals` written as a trace and parsed back.
    fn roundtrip(arrivals: &[(Time, TaskSpec)]) -> Vec<(Time, TaskSpec)> {
        let mut trace = ArrivalTrace::new();
        for (t, spec) in arrivals {
            trace.push(*t, spec.clone(), 0);
        }
        parse_trace(&render_trace(&trace)).unwrap().arrivals()
    }

    #[test]
    fn roundtrip_pipeline_workload() {
        let original: Vec<_> = PipelineWorkloadBuilder::new(3)
            .seed(5)
            .build()
            .take(50)
            .collect();
        let loaded = roundtrip(&original);
        assert_eq!(original.len(), loaded.len());
        for ((t1, s1), (t2, s2)) in original.iter().zip(&loaded) {
            assert_eq!(t1, t2);
            assert_eq!(s1.deadline, s2.deadline);
            assert_eq!(s1.importance, s2.importance);
            assert_eq!(s1.graph, s2.graph);
        }
    }

    #[test]
    fn roundtrip_with_critical_sections() {
        let original: Vec<_> = PipelineWorkloadBuilder::new(2)
            .critical_sections(CriticalSectionConfig {
                probability: 1.0,
                fraction: 0.4,
                locks_per_stage: 3,
            })
            .seed(6)
            .build()
            .take(20)
            .collect();
        let loaded = roundtrip(&original);
        for ((_, s1), (_, s2)) in original.iter().zip(&loaded) {
            assert_eq!(s1.graph, s2.graph);
        }
    }

    #[test]
    fn roundtrip_dag_workload() {
        let original: Vec<_> = DagWorkload::new(5, 0.005, 50.0, 30.0, 7).take(20).collect();
        let loaded = roundtrip(&original);
        for ((_, s1), (_, s2)) in original.iter().zip(&loaded) {
            assert_eq!(s1.graph, s2.graph);
            assert_eq!(s1.graph.sources(), s2.graph.sources());
            assert_eq!(s1.graph.sinks(), s2.graph.sinks());
        }
    }

    #[test]
    fn roundtrip_v2_trace_with_tenants_and_scenario() {
        let specs: Vec<_> = PipelineWorkloadBuilder::new(2)
            .seed(11)
            .build()
            .take(12)
            .collect();
        let mut trace = ArrivalTrace::new().with_scenario("unit seed=11 rate=5");
        for (i, (t, spec)) in specs.into_iter().enumerate() {
            trace.push(t, spec, (i % 3) as u32);
        }
        let text = render_trace(&trace);
        assert!(text.starts_with("# frap-arrivals v2\n"));
        let loaded = parse_trace(&text).unwrap();
        assert_eq!(loaded.scenario.as_deref(), Some("unit seed=11 rate=5"));
        assert_eq!(loaded.len(), trace.len());
        for (a, b) in trace.records.iter().zip(&loaded.records) {
            assert_eq!(a.at, b.at);
            assert_eq!(a.tenant, b.tenant);
            assert_eq!(a.spec.graph, b.spec.graph);
        }
        // Re-render is byte-identical (canonical form).
        assert_eq!(render_trace(&loaded), text);
    }

    #[test]
    fn v1_files_parse_as_tenant_zero_traces() {
        let text = "# frap-arrivals v1\n100,2000,3,0:500,-\n";
        let trace = parse_trace(text).unwrap();
        assert_eq!(trace.scenario, None);
        assert_eq!(trace.records[0].tenant, 0);
        assert_eq!(trace.records[0].spec.importance, Importance::new(3));
    }

    #[test]
    fn trace_file_roundtrip() {
        let dir = std::env::temp_dir().join("frap_replay_test_v2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace_v2.txt");
        let mut trace = ArrivalTrace::new().with_scenario("file roundtrip");
        for (t, spec) in PipelineWorkloadBuilder::new(2).seed(4).build().take(6) {
            trace.push(t, spec, 2);
        }
        save_trace(&path, &trace).unwrap();
        let loaded = load_trace(&path).unwrap();
        assert_eq!(loaded, trace);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let text = "# frap-arrivals v1\n\n# comment\n100,2000,0,0:500,-\n";
        let loaded = parse_trace(text).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded.records[0].at, Time::from_micros(100));
    }

    #[test]
    fn scenario_newlines_are_sanitized() {
        let trace = ArrivalTrace::new().with_scenario("a\nb\r\nc");
        let text = render_trace(&trace);
        let loaded = parse_trace(&text).unwrap();
        assert_eq!(loaded.scenario.as_deref(), Some("a b  c"));
    }

    #[test]
    fn field_count_error_carries_line() {
        match parse_trace("# h\n1,2,3\n").unwrap_err() {
            e @ ReplayError::FieldCount { line, got } => {
                assert_eq!((line, got), (2, 3));
                assert_eq!(e.line(), Some(2));
            }
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn invalid_number_error_carries_line() {
        match parse_trace("1,2,x,0:5,-\n").unwrap_err() {
            ReplayError::InvalidNumber { line, what, text } => {
                assert_eq!(line, 1);
                assert_eq!(what, "importance");
                assert_eq!(text, "x");
            }
            other => panic!("unexpected: {other}"),
        }
        // A malformed segment duration inside a node reports its position.
        match parse_trace("1,2,0,0:bad|5,-\n").unwrap_err() {
            ReplayError::InvalidNumber { line, what, .. } => {
                assert_eq!(line, 1);
                assert_eq!(what, "segment duration");
            }
            other => panic!("unexpected: {other}"),
        }
        // … as does a malformed lock id after `@`.
        match parse_trace("\n1,2,0,0:5@z,-\n").unwrap_err() {
            ReplayError::InvalidNumber { line, what, .. } => {
                assert_eq!(line, 2);
                assert_eq!(what, "lock");
            }
            other => panic!("unexpected: {other}"),
        }
    }

    /// `2^32 + 1` in a 32-bit field: refused, not read as 1.
    fn refused(text: &str, field: &'static str) {
        match parse_trace(text).unwrap_err() {
            ReplayError::InvalidNumber { line, what, text } => {
                assert_eq!((line, what, text.as_str()), (2, field, "4294967297"));
            }
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn importance_that_does_not_fit_is_refused() {
        refused("# frap-arrivals v2\n1,2,4294967297,0:5,-,0\n", "importance");
        let ok = parse_trace("1,2,4294967295,0:5,-\n").unwrap();
        assert_eq!(ok.records[0].spec.importance, Importance::CRITICAL);
    }

    #[test]
    fn tenant_that_does_not_fit_is_refused() {
        refused("# frap-arrivals v2\n1,2,0,0:5,-,4294967297\n", "tenant");
        let ok = parse_trace("1,2,0,0:5,-,4294967295\n").unwrap();
        assert_eq!(ok.records[0].tenant, u32::MAX);
    }

    #[test]
    fn lock_that_does_not_fit_is_refused() {
        refused("# frap-arrivals v2\n1,2,0,0:5@4294967297,-,0\n", "lock");
        let ok = parse_trace("1,2,0,0:5@4294967295,-\n").unwrap();
        let lock = ok.records[0].spec.graph.subtask(0).segments[0].lock;
        assert_eq!(lock, Some(LockId::new(u32::MAX as usize)));
    }

    #[test]
    fn malformed_node_error_carries_line() {
        match parse_trace("# header\n\n1,2,0,500,-\n").unwrap_err() {
            ReplayError::MalformedNode { line, node } => {
                assert_eq!(line, 3);
                assert_eq!(node, "500");
            }
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn malformed_edge_error_carries_line() {
        match parse_trace("1,2,0,0:5;1:5,zzz\n").unwrap_err() {
            e @ ReplayError::MalformedEdge { .. } => {
                assert_eq!(e.line(), Some(1));
                assert!(e.to_string().contains("line 1"));
            }
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn invalid_graph_error_carries_line() {
        match parse_trace("# x\n1,2,0,0:5;1:5,0->1;1->0\n").unwrap_err() {
            ReplayError::InvalidGraph { line, reason } => {
                assert_eq!(line, 2);
                assert!(reason.contains("cycle"), "reason={reason}");
            }
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn unsupported_version_error_carries_line() {
        match parse_trace("# frap-arrivals v9\n1,2,0,0:5,-\n").unwrap_err() {
            ReplayError::UnsupportedVersion { line, version } => {
                assert_eq!(line, 1);
                assert_eq!(version, "v9");
            }
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn out_of_order_arrival_error_carries_line_and_times() {
        let text = "# frap-arrivals v2\n10000,2000,0,0:5,-,0\n5000,2000,0,0:5,-,0\n";
        match parse_trace(text).unwrap_err() {
            e @ ReplayError::OutOfOrder {
                line,
                previous,
                arrival,
            } => {
                assert_eq!(line, 3);
                assert_eq!(previous, Time::from_micros(10_000));
                assert_eq!(arrival, Time::from_micros(5_000));
                assert_eq!(e.line(), Some(3));
                assert!(e.to_string().contains("line 3"), "{e}");
            }
            other => panic!("unexpected: {other}"),
        }
        // Equal arrival times are in order.
        assert_eq!(parse_trace("7,2,0,0:5,-\n7,2,0,0:5,-\n").unwrap().len(), 2);
    }

    #[test]
    fn invalid_tenant_error_carries_line() {
        match parse_trace("# frap-arrivals v2\n1,2,0,0:5,-,nope\n").unwrap_err() {
            ReplayError::InvalidNumber { line, what, .. } => {
                assert_eq!(line, 2);
                assert_eq!(what, "tenant");
            }
            other => panic!("unexpected: {other}"),
        }
    }

    proptest::proptest! {
        /// Chains (plain and with critical sections), fork-joins and
        /// tenants survive the text form exactly, and a chain comes back
        /// in the form it was generated in.
        #[test]
        fn parse_inverts_render(seed in proptest::num::u64::ANY, stages in 1usize..6) {
            let locked = PipelineWorkloadBuilder::new(stages)
                .critical_sections(CriticalSectionConfig {
                    probability: 0.5,
                    fraction: 0.3,
                    locks_per_stage: 3,
                })
                .seed(seed);
            let forked = DagWorkload::new(stages + 2, 0.005, 50.0, 30.0, seed);
            let mut trace = ArrivalTrace::new().with_scenario(format!("roundtrip seed={seed}"));
            // In time order, as a trace must be.
            let arrivals = merge_arrivals(vec![locked.build().take(8).collect(), forked.take(8).collect()]);
            for (i, (t, spec)) in arrivals.into_iter().enumerate() {
                trace.push(t, spec.with_importance(Importance::new(i as u32)), seed as u32);
            }
            let loaded = parse_trace(&render_trace(&trace)).unwrap();
            proptest::prop_assert_eq!(&loaded, &trace);
            for graph in loaded.records.iter().map(|r| &r.spec.graph) {
                let in_order = graph.topological_order().windows(2).all(|w| w[0] < w[1]);
                if graph.is_chain() && in_order {
                    // Equality is structural, so equal to what `chain`
                    // builds means stored as `chain` stores it: the
                    // plain form whenever the subtasks allow it.
                    let chain = TaskGraph::chain(graph.subtasks().collect()).unwrap();
                    proptest::prop_assert_eq!(graph, &chain);
                }
            }
        }
    }

    #[test]
    fn load_missing_file_is_io_error() {
        match load_trace("/nonexistent/frap/trace.txt").unwrap_err() {
            e @ ReplayError::Io(_) => assert_eq!(e.line(), None),
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn error_display_nonempty() {
        let e = ReplayError::InvalidGraph {
            line: 3,
            reason: "boom".into(),
        };
        assert!(e.to_string().contains("line 3"));
        let e = ReplayError::FieldCount { line: 7, got: 2 };
        assert!(e.to_string().contains("line 7"));
    }
}
