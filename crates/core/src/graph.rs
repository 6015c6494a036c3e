//! Task graphs: precedence-constrained sets of subtasks (Section 3.3).
//!
//! The paper's basic model is a *pipeline* — a single chain of subtasks, one
//! per stage. Its Theorem 2 generalizes the feasible region to arbitrary
//! directed acyclic graphs, where the end-to-end delay is the longest path
//! through per-subtask stage delays (sums along chains, `max` across
//! parallel branches, e.g. `L1 + max(L2, L3) + L4` for Figure 3).
//!
//! [`TaskGraph`] stores the DAG in validated, topologically sorted form and
//! provides the longest-path evaluation both for analysis (delay-bound
//! expressions over utilizations) and for the simulator (subtask release on
//! predecessor completion).

use crate::error::GraphError;
use crate::task::{Importance, StageId, SubtaskSpec};
use crate::time::TimeDelta;
use std::collections::BTreeMap;

/// A validated directed acyclic graph of subtasks.
///
/// Construct with [`TaskGraph::chain`] (a pipeline), [`TaskGraph::fork_join`]
/// (Figure 3-style branch/rejoin), or [`TaskGraph::builder`] for arbitrary
/// shapes. Construction validates that the graph is non-empty, edges are in
/// range, and the precedence relation is acyclic.
///
/// The structure is immutable once built, so clones share one refcounted
/// allocation: cloning a [`TaskSpec`] (which workload generators do once
/// per arrival) costs an `Arc` bump. `Arc` rather than `Rc` keeps specs
/// `Send` for the concurrent admission service.
///
/// A graph stores only what differs between two tasks: its subtasks and
/// their per-stage demand. Edge lists exist only for shapes other than the
/// chain `0 -> 1 -> … -> n-1`, whose edges are a function of `n` and are
/// read from one shared index table (DESIGN.md §11). However such a chain
/// is built, it has that one form, so equality stays structural.
///
/// # Examples
///
/// ```
/// use frap_core::graph::TaskGraph;
/// use frap_core::task::{StageId, SubtaskSpec};
/// use frap_core::time::TimeDelta;
///
/// // The 4-subtask graph of the paper's Figure 3: 1 -> {2, 3} -> 4.
/// let ms = TimeDelta::from_millis;
/// let mut b = TaskGraph::builder();
/// let t1 = b.add(SubtaskSpec::new(StageId::new(0), ms(1)));
/// let t2 = b.add(SubtaskSpec::new(StageId::new(1), ms(2)));
/// let t3 = b.add(SubtaskSpec::new(StageId::new(2), ms(3)));
/// let t4 = b.add(SubtaskSpec::new(StageId::new(3), ms(4)));
/// b.edge(t1, t2).edge(t1, t3).edge(t2, t4).edge(t3, t4);
/// let g = b.build()?;
///
/// // End-to-end delay expression: L1 + max(L2, L3) + L4.
/// assert_eq!(g.longest_path(&[1.0, 2.0, 3.0, 4.0]), 1.0 + 3.0 + 4.0);
/// # Ok::<(), frap_core::error::GraphError>(())
/// ```
#[derive(Clone)]
pub struct TaskGraph {
    inner: std::sync::Arc<GraphInner>,
}

#[derive(Debug, PartialEq)]
struct GraphInner {
    subtasks: Vec<SubtaskSpec>,
    /// Per-stage demand `C_ij` summed over subtasks, ascending by stage —
    /// precomputed once so the admission hot path (contributions per
    /// arrival) is a plain walk instead of a merge + sort per request.
    stage_demand: Vec<(StageId, TimeDelta)>,
    /// `None` for the chain `0 -> 1 -> … -> n-1` of at most
    /// [`CHAIN_TABLE`] subtasks, whose edges are slices of [`INDEX`].
    edges: Option<Box<Edges>>,
}

#[derive(Debug, Clone, PartialEq)]
struct Edges {
    preds: Vec<Vec<usize>>,
    succs: Vec<Vec<usize>>,
    topo: Vec<usize>,
}

/// The longest chain stored without edge lists: the wire format's stage
/// limit. A longer chain keeps explicit [`Edges`].
const CHAIN_TABLE: usize = 1024;

/// `INDEX[i] == i`: node `i` of an edge-less chain has predecessors
/// `INDEX[i-1..i]` and successors `INDEX[i+1..i+2]`, and the topological
/// order is `INDEX[..n]`.
static INDEX: [usize; CHAIN_TABLE] = {
    let mut table = [0; CHAIN_TABLE];
    let mut i = 0;
    while i < CHAIN_TABLE {
        table[i] = i;
        i += 1;
    }
    table
};

/// The index table cut to an edge-less chain of `n` nodes.
///
/// # Panics
///
/// Panics if `index >= n`, as indexing an edge list would.
fn chain_ids(n: usize, index: usize) -> &'static [usize] {
    assert!(index < n, "subtask {index} of a {n}-subtask chain");
    &INDEX[..n]
}

/// Successors of node `index` in the edge-less chain of `n` nodes.
fn chain_succs(n: usize, index: usize) -> &'static [usize] {
    &chain_ids(n, index)[index + 1..n.min(index + 2)]
}

/// Merges per-subtask computation into per-stage totals, ascending by
/// stage. Summed in `TimeDelta` (integer microseconds), exactly as the
/// on-demand merge used to.
fn merged_stage_demand(subtasks: &[SubtaskSpec]) -> Vec<(StageId, TimeDelta)> {
    let mut v: Vec<(StageId, TimeDelta)> = Vec::with_capacity(subtasks.len());
    // Stages strictly ascending so far (every `pipeline()` chain all the
    // way): each subtask is a new last entry, no search and no sort.
    let mut ascending = true;
    for s in subtasks {
        if ascending && v.last().is_none_or(|&(last, _)| last < s.stage) {
            v.push((s.stage, s.computation()));
            continue;
        }
        ascending = false;
        match v.iter_mut().find(|(stage, _)| *stage == s.stage) {
            Some(slot) => slot.1 += s.computation(),
            None => v.push((s.stage, s.computation())),
        }
    }
    if !ascending {
        v.sort_unstable_by_key(|&(stage, _)| stage);
    }
    v
}

/// The first subtask without segments, as the error both constructors
/// return.
fn check_segments(subtasks: &[SubtaskSpec]) -> Result<(), GraphError> {
    match subtasks.iter().position(|s| s.segments.is_empty()) {
        Some(index) => Err(GraphError::EmptySubtask { index }),
        None => Ok(()),
    }
}

impl PartialEq for TaskGraph {
    fn eq(&self, other: &TaskGraph) -> bool {
        std::sync::Arc::ptr_eq(&self.inner, &other.inner) || *self.inner == *other.inner
    }
}

impl std::fmt::Debug for TaskGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let nodes = 0..self.len();
        f.debug_struct("TaskGraph")
            .field("subtasks", &self.inner.subtasks)
            .field(
                "preds",
                &nodes.clone().map(|i| self.preds(i)).collect::<Vec<_>>(),
            )
            .field("succs", &nodes.map(|i| self.succs(i)).collect::<Vec<_>>())
            .field("topo", &self.topological_order())
            .finish()
    }
}

impl TaskGraph {
    /// Starts building an arbitrary task graph.
    pub fn builder() -> TaskGraphBuilder {
        TaskGraphBuilder {
            subtasks: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// A pipeline: subtasks executed strictly in order.
    ///
    /// A chain's precedence structure is a function of its length, so up
    /// to the index table's 1024 subtasks this stores no edges and skips
    /// the general builder (edge list, deduplication, Kahn's algorithm) —
    /// workload generators construct one graph per arrival, making this
    /// the hottest graph constructor by far. [`TaskGraphBuilder::build`]
    /// given exactly the edges `i -> i+1` returns the same graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Empty`] when `subtasks` is empty and
    /// [`GraphError::EmptySubtask`] when a subtask has no segments.
    pub fn chain(subtasks: Vec<SubtaskSpec>) -> Result<TaskGraph, GraphError> {
        let n = subtasks.len();
        if n == 0 {
            return Err(GraphError::Empty);
        }
        if n > CHAIN_TABLE {
            // Past the index table a chain keeps edge lists: the general
            // form, from the general builder.
            let edges = (1..n).map(|i| (i - 1, i)).collect();
            return TaskGraphBuilder { subtasks, edges }.build();
        }
        check_segments(&subtasks)?;
        Ok(TaskGraph::from_parts(subtasks, None))
    }

    /// The chain [`TaskSpec::pipeline`] describes: subtask `j` runs on
    /// stage `j` for `computations[j]`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Empty`] when `computations` is empty.
    pub fn pipeline(
        computations: impl Iterator<Item = TimeDelta>,
    ) -> Result<TaskGraph, GraphError> {
        let stage_subtask = |(j, c)| SubtaskSpec::new(StageId::new(j), c);
        TaskGraph::chain(computations.enumerate().map(stage_subtask).collect())
    }

    fn from_parts(subtasks: Vec<SubtaskSpec>, edges: Option<Box<Edges>>) -> TaskGraph {
        let stage_demand = merged_stage_demand(&subtasks);
        TaskGraph {
            inner: std::sync::Arc::new(GraphInner {
                subtasks,
                stage_demand,
                edges,
            }),
        }
    }

    /// A fork-join graph: `head` then all of `branches` in parallel, then
    /// `tail` (the shape of the paper's Figure 3 when `branches.len() == 2`).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EmptySubtask`] when a subtask has no segments.
    pub fn fork_join(
        head: SubtaskSpec,
        branches: Vec<SubtaskSpec>,
        tail: SubtaskSpec,
    ) -> Result<TaskGraph, GraphError> {
        let mut b = TaskGraph::builder();
        let h = b.add(head);
        let t = h + branches.len() + 1;
        if branches.is_empty() {
            b.edge(h, t);
        }
        for branch in branches {
            let id = b.add(branch);
            b.edge(h, id);
            b.edge(id, t);
        }
        b.add(tail);
        b.build()
    }

    /// Number of subtasks.
    pub fn len(&self) -> usize {
        self.inner.subtasks.len()
    }

    /// Whether the graph has no subtasks (never true for a built graph;
    /// provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.inner.subtasks.is_empty()
    }

    /// The subtask at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn subtask(&self, index: usize) -> &SubtaskSpec {
        &self.inner.subtasks[index]
    }

    /// Iterates over all subtasks in insertion order.
    pub fn subtasks(&self) -> impl Iterator<Item = &SubtaskSpec> {
        self.inner.subtasks.iter()
    }

    /// Predecessors of subtask `index`.
    pub fn preds(&self, index: usize) -> &[usize] {
        match &self.inner.edges {
            Some(edges) => &edges.preds[index],
            None => &chain_ids(self.len(), index)[index.saturating_sub(1)..index],
        }
    }

    /// Successors of subtask `index`.
    pub fn succs(&self, index: usize) -> &[usize] {
        match &self.inner.edges {
            Some(edges) => &edges.succs[index],
            None => chain_succs(self.len(), index),
        }
    }

    /// Subtask indices with no predecessors (released at task arrival).
    pub fn sources(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.preds(i).is_empty())
            .collect()
    }

    /// Subtask indices with no successors (task departs when all finish).
    pub fn sinks(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.succs(i).is_empty())
            .collect()
    }

    /// A topological order of subtask indices.
    pub fn topological_order(&self) -> &[usize] {
        match &self.inner.edges {
            Some(edges) => &edges.topo,
            None => &INDEX[..self.len()],
        }
    }

    /// Whether the graph is a single chain (a pipeline). Allocates
    /// nothing, and is O(1) for a chain stored without edge lists.
    pub fn is_chain(&self) -> bool {
        let Some(edges) = &self.inner.edges else {
            return true;
        };
        edges.preds.iter().filter(|p| p.is_empty()).count() == 1
            && edges.preds.iter().all(|p| p.len() <= 1)
            && edges.succs.iter().all(|s| s.len() <= 1)
    }

    /// The distinct stages used by this graph, in ascending order.
    pub fn stages_used(&self) -> Vec<StageId> {
        let mut v: Vec<StageId> = self.inner.subtasks.iter().map(|s| s.stage).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Total computation time demanded from each stage (`C_ij` summed over
    /// all subtasks of this task on stage `j`).
    pub fn stage_demand(&self) -> BTreeMap<StageId, TimeDelta> {
        self.inner.stage_demand.iter().copied().collect()
    }

    /// [`TaskGraph::stage_demand`] without building a map: the per-stage
    /// totals, ascending by stage, as precomputed at construction.
    pub fn stage_demands(&self) -> &[(StageId, TimeDelta)] {
        &self.inner.stage_demand
    }

    /// Total computation time over all subtasks.
    pub fn total_computation(&self) -> TimeDelta {
        self.inner.subtasks.iter().map(|s| s.computation()).sum()
    }

    /// Evaluates the end-to-end delay expression `d(L_1, …, L_M)` — the
    /// longest path through the DAG — for the given per-subtask delays.
    ///
    /// This is the paper's `d(·)` of Theorem 2: delays add along precedence
    /// chains and combine by `max` across parallel branches.
    ///
    /// # Panics
    ///
    /// Panics if `delays.len() != self.len()`.
    pub fn longest_path(&self, delays: &[f64]) -> f64 {
        assert_eq!(
            delays.len(),
            self.len(),
            "one delay per subtask is required"
        );
        self.longest_path_by(|i| delays[i])
    }

    /// [`TaskGraph::longest_path`] with the delay of subtask `i` computed
    /// by `delay(i)` (called once per subtask, in topological order) —
    /// for callers that derive delays on the fly, such as the per-arrival
    /// Theorem 2 test. Graphs of up to 16 subtasks are evaluated without
    /// a heap allocation.
    pub fn longest_path_by(&self, delay: impl Fn(usize) -> f64) -> f64 {
        const INLINE: usize = 16;
        let n = self.len();
        let mut inline = [0.0f64; INLINE];
        let mut spilled = Vec::new();
        let finish: &mut [f64] = if n <= INLINE {
            &mut inline[..n]
        } else {
            spilled.resize(n, 0.0);
            &mut spilled
        };
        for &i in self.topological_order() {
            let start = self
                .preds(i)
                .iter()
                .map(|&p| finish[p])
                .fold(0.0f64, f64::max);
            finish[i] = start + delay(i);
        }
        finish.iter().copied().fold(0.0, f64::max)
    }

    /// Returns a copy of the graph with every subtask's stage rewritten by
    /// `f` — the tool for *partitioned* multi-server stages: a logical
    /// stage backed by `m` replicas becomes `m` physical stages, and each
    /// task is bound to one replica at admission time (the analysis then
    /// applies per replica exactly as for any other stage).
    pub fn remap_stages(&self, f: impl Fn(StageId) -> StageId) -> TaskGraph {
        let mut subtasks = self.inner.subtasks.clone();
        for sub in &mut subtasks {
            sub.stage = f(sub.stage);
        }
        TaskGraph::from_parts(subtasks, self.inner.edges.clone())
    }

    /// Like [`TaskGraph::longest_path`] but returns the subtask indices of
    /// one critical (longest) path, from a source to a sink.
    ///
    /// # Panics
    ///
    /// Panics if `delays.len() != self.len()`.
    pub fn critical_path(&self, delays: &[f64]) -> Vec<usize> {
        assert_eq!(delays.len(), self.len());
        let mut finish = vec![0.0f64; self.len()];
        let mut via: Vec<Option<usize>> = vec![None; self.len()];
        for &i in self.topological_order() {
            let mut start = 0.0;
            for &p in self.preds(i) {
                if finish[p] > start {
                    start = finish[p];
                    via[i] = Some(p);
                }
            }
            finish[i] = start + delays[i];
        }
        let mut end = 0;
        for i in 0..self.len() {
            if finish[i] > finish[end] {
                end = i;
            }
        }
        let mut path = vec![end];
        while let Some(p) = via[*path.last().expect("path is non-empty")] {
            path.push(p);
        }
        path.reverse();
        path
    }
}

impl std::fmt::Display for TaskGraph {
    /// Renders the precedence structure compactly, e.g. a chain as
    /// `s0 -> s1 -> s2` and a fork-join as `s0 -> {s1 || s2} -> s3`
    /// (general DAGs fall back to an explicit edge list).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_chain() {
            let mut first = true;
            let mut cur = self.sources()[0];
            loop {
                if !first {
                    write!(f, " -> ")?;
                }
                write!(f, "s{}", self.subtask(cur).stage.index())?;
                first = false;
                match self.succs(cur).first() {
                    Some(&next) => cur = next,
                    None => return Ok(()),
                }
            }
        }
        // Fork-join shape: one source, one sink, all middles independent.
        let sources = self.sources();
        let sinks = self.sinks();
        if sources.len() == 1 && sinks.len() == 1 && self.len() > 2 {
            let (head, tail) = (sources[0], sinks[0]);
            let middles: Vec<usize> = (0..self.len())
                .filter(|&i| i != head && i != tail)
                .collect();
            let is_fork_join = middles
                .iter()
                .all(|&m| self.preds(m) == [head] && self.succs(m) == [tail])
                && self.succs(head).len() == middles.len()
                && self.preds(tail).len() == middles.len();
            if is_fork_join {
                write!(f, "s{} -> {{", self.subtask(head).stage.index())?;
                for (i, &m) in middles.iter().enumerate() {
                    if i > 0 {
                        write!(f, " || ")?;
                    }
                    write!(f, "s{}", self.subtask(m).stage.index())?;
                }
                return write!(f, "}} -> s{}", self.subtask(tail).stage.index());
            }
        }
        // General DAG: explicit edges.
        write!(f, "dag[{} nodes:", self.len())?;
        for i in 0..self.len() {
            for &s in self.succs(i) {
                write!(f, " {}->{}", i, s)?;
            }
        }
        write!(f, "]")
    }
}

/// Incremental builder for [`TaskGraph`]; see [`TaskGraph::builder`].
#[derive(Debug, Clone, Default)]
pub struct TaskGraphBuilder {
    subtasks: Vec<SubtaskSpec>,
    edges: Vec<(usize, usize)>,
}

impl TaskGraphBuilder {
    /// Adds a subtask and returns its index.
    pub fn add(&mut self, subtask: SubtaskSpec) -> usize {
        self.subtasks.push(subtask);
        self.subtasks.len() - 1
    }

    /// Adds a precedence edge: `from` must finish before `to` is released.
    pub fn edge(&mut self, from: usize, to: usize) -> &mut Self {
        self.edges.push((from, to));
        self
    }

    /// Validates and builds the graph.
    ///
    /// # Errors
    ///
    /// Returns an error if the graph is empty, an edge is out of range or a
    /// self-loop, a subtask has no segments, or the relation is cyclic.
    pub fn build(&mut self) -> Result<TaskGraph, GraphError> {
        let n = self.subtasks.len();
        if n == 0 {
            return Err(GraphError::Empty);
        }
        check_segments(&self.subtasks)?;
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(from, to) in &self.edges {
            if from >= n {
                return Err(GraphError::NodeOutOfRange {
                    index: from,
                    len: n,
                });
            }
            if to >= n {
                return Err(GraphError::NodeOutOfRange { index: to, len: n });
            }
            if from == to {
                return Err(GraphError::SelfLoop { index: from });
            }
            // Duplicate edges are harmless but would skew in-degree counting;
            // deduplicate here.
            if !succs[from].contains(&to) {
                succs[from].push(to);
                preds[to].push(from);
            }
        }

        // Exactly the edges `i -> i+1`: the one form such a chain has.
        if n <= CHAIN_TABLE && (0..n).all(|i| succs[i] == chain_succs(n, i)) {
            let subtasks = std::mem::take(&mut self.subtasks);
            return Ok(TaskGraph::from_parts(subtasks, None));
        }

        // Kahn's algorithm for a deterministic topological order.
        let mut indeg: Vec<usize> = preds.iter().map(Vec::len).collect();
        let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        ready.sort_unstable();
        let mut topo = Vec::with_capacity(n);
        let mut cursor = 0;
        while cursor < ready.len() {
            let i = ready[cursor];
            cursor += 1;
            topo.push(i);
            for &s in &succs[i] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    ready.push(s);
                }
            }
        }
        if topo.len() != n {
            return Err(GraphError::Cycle);
        }

        let edges = Box::new(Edges { preds, succs, topo });
        Ok(TaskGraph::from_parts(
            std::mem::take(&mut self.subtasks),
            Some(edges),
        ))
    }
}

/// A complete task description: end-to-end deadline, semantic importance,
/// and the subtask graph.
///
/// This is the unit the admission controller reasons about and the
/// simulator executes.
///
/// # Examples
///
/// ```
/// use frap_core::graph::TaskSpec;
/// use frap_core::time::TimeDelta;
///
/// // A two-stage pipeline task: 10 ms then 20 ms, 1 s end-to-end deadline.
/// let t = TaskSpec::pipeline(
///     TimeDelta::from_secs(1),
///     &[TimeDelta::from_millis(10), TimeDelta::from_millis(20)],
/// )?;
/// assert_eq!(t.total_computation(), TimeDelta::from_millis(30));
/// // Synthetic-utilization contribution at stage 0: C/D = 0.01.
/// let c: Vec<_> = t.contributions().collect();
/// assert!((c[0].1 - 0.01).abs() < 1e-12);
/// # Ok::<(), frap_core::error::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSpec {
    /// Relative end-to-end deadline `D_i`.
    pub deadline: TimeDelta,
    /// Semantic importance (for overload shedding; not scheduling priority).
    pub importance: Importance,
    /// The precedence-constrained subtask structure.
    pub graph: TaskGraph,
}

impl TaskSpec {
    /// Creates a task from a graph with default (lowest) importance.
    pub fn new(deadline: TimeDelta, graph: TaskGraph) -> Self {
        TaskSpec {
            deadline,
            importance: Importance::LOWEST,
            graph,
        }
    }

    /// Convenience constructor for a pipeline task whose subtask `j` runs
    /// on stage `j` with computation time `computations[j]`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Empty`] when `computations` is empty.
    pub fn pipeline(
        deadline: TimeDelta,
        computations: &[TimeDelta],
    ) -> Result<TaskSpec, GraphError> {
        let graph = TaskGraph::pipeline(computations.iter().copied())?;
        Ok(TaskSpec::new(deadline, graph))
    }

    /// Sets the semantic importance (builder style).
    pub fn with_importance(mut self, importance: Importance) -> Self {
        self.importance = importance;
        self
    }

    /// Total computation time over all subtasks.
    pub fn total_computation(&self) -> TimeDelta {
        self.graph.total_computation()
    }

    /// The task's synthetic-utilization contribution `C_ij / D_i` at each
    /// stage it uses, in ascending stage order.
    pub fn contributions(&self) -> impl Iterator<Item = (StageId, f64)> + '_ {
        let deadline = self.deadline;
        self.graph
            .stage_demands()
            .iter()
            .map(move |&(stage, c)| (stage, c.ratio(deadline)))
    }

    /// The contribution `C_ij / D_i` at one stage (zero if unused).
    pub fn contribution_at(&self, stage: StageId) -> f64 {
        let demands = self.graph.stage_demands();
        match demands.binary_search_by_key(&stage, |&(s, _)| s) {
            Ok(i) => demands[i].1.ratio(self.deadline),
            Err(_) => 0.0,
        }
    }

    /// Task resolution: end-to-end deadline divided by total computation
    /// time (Section 4.2). High resolution means many small tasks.
    pub fn resolution(&self) -> f64 {
        self.deadline.ratio(self.total_computation())
    }

    /// Returns a copy with every subtask's stage rewritten by `f`; see
    /// [`TaskGraph::remap_stages`].
    pub fn remap_stages(&self, f: impl Fn(StageId) -> StageId) -> TaskSpec {
        TaskSpec {
            deadline: self.deadline,
            importance: self.importance,
            graph: self.graph.remap_stages(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{LockId, Segment};

    fn ms(v: u64) -> TimeDelta {
        TimeDelta::from_millis(v)
    }

    fn sub(stage: usize, c: u64) -> SubtaskSpec {
        SubtaskSpec::new(StageId::new(stage), ms(c))
    }

    #[test]
    fn chain_builds_pipeline() {
        let g = TaskGraph::chain(vec![sub(0, 1), sub(1, 2), sub(2, 3)]).unwrap();
        assert_eq!(g.len(), 3);
        assert!(g.is_chain());
        assert_eq!(g.sources(), vec![0]);
        assert_eq!(g.sinks(), vec![2]);
        assert_eq!(g.topological_order(), &[0, 1, 2]);
        assert_eq!(g.total_computation(), ms(6));
    }

    #[test]
    fn chain_keeps_no_edge_lists_up_to_the_index_table() {
        let by_edges = |n: usize| {
            let mut b = TaskGraph::builder();
            for i in 0..n {
                b.add(sub(i, 1));
            }
            // Out of order and one of them twice: still exactly `i -> i+1`.
            for i in (1..n).rev().chain([1]) {
                b.edge(i - 1, i);
            }
            b.build().unwrap()
        };
        for n in [1, 2, 3, CHAIN_TABLE] {
            let g = TaskGraph::chain((0..n).map(|i| sub(i, 1)).collect()).unwrap();
            assert!(g.inner.edges.is_none(), "chain of {n}");
            assert!(
                n == 1 || by_edges(n).inner.edges.is_none(),
                "built chain of {n}"
            );
            assert_eq!(g.succs(n - 1), &[] as &[usize]);
            assert_eq!(g.preds(n - 1), &INDEX[n.saturating_sub(2)..n - 1]);
        }
        // One past the table: the general form, the same from both.
        let n = CHAIN_TABLE + 1;
        let long = TaskGraph::chain((0..n).map(|i| sub(i, 1)).collect()).unwrap();
        assert!(long.inner.edges.is_some());
        assert!(long.is_chain());
        assert_eq!(long, by_edges(n));
        assert_eq!(long.preds(n - 1), &[n - 2]);
        assert_eq!(long.topological_order().len(), n);
        // A chain in any other order keeps its edges.
        let mut b = TaskGraph::builder();
        let (a, c) = (b.add(sub(0, 1)), b.add(sub(1, 1)));
        b.edge(c, a);
        let reversed = b.build().unwrap();
        assert!(reversed.inner.edges.is_some() && reversed.is_chain());
        assert_eq!(reversed.topological_order(), &[1, 0]);
    }

    #[test]
    #[should_panic(expected = "subtask 3 of a 3-subtask chain")]
    fn chain_edge_accessors_check_the_index() {
        let g = TaskGraph::chain(vec![sub(0, 1), sub(1, 2), sub(2, 3)]).unwrap();
        g.preds(3);
    }

    #[test]
    fn stage_demand_is_sorted_whatever_the_stage_order() {
        let demand = |stages: &[usize]| {
            let subs = stages.iter().map(|&s| sub(s, 1)).collect();
            TaskGraph::chain(subs).unwrap().stage_demands().to_vec()
        };
        let at = |s: usize, c: u64| (StageId::new(s), ms(c));
        assert_eq!(demand(&[0, 1, 2]), [at(0, 1), at(1, 1), at(2, 1)]);
        assert_eq!(demand(&[0, 2, 1]), [at(0, 1), at(1, 1), at(2, 1)]);
        assert_eq!(demand(&[1, 3, 3, 0, 1]), [at(0, 1), at(1, 2), at(3, 2)]);
    }

    #[test]
    fn empty_chain_rejected() {
        assert_eq!(TaskGraph::chain(vec![]).unwrap_err(), GraphError::Empty);
    }

    #[test]
    fn cycle_detected() {
        let mut b = TaskGraph::builder();
        let a = b.add(sub(0, 1));
        let c = b.add(sub(1, 1));
        b.edge(a, c).edge(c, a);
        assert_eq!(b.build().unwrap_err(), GraphError::Cycle);
    }

    #[test]
    fn self_loop_rejected() {
        let mut b = TaskGraph::builder();
        let a = b.add(sub(0, 1));
        b.edge(a, a);
        assert_eq!(b.build().unwrap_err(), GraphError::SelfLoop { index: 0 });
    }

    #[test]
    fn out_of_range_edge_rejected() {
        let mut b = TaskGraph::builder();
        let a = b.add(sub(0, 1));
        b.edge(a, 7);
        assert_eq!(
            b.build().unwrap_err(),
            GraphError::NodeOutOfRange { index: 7, len: 1 }
        );
    }

    #[test]
    fn empty_subtask_rejected() {
        let mut b = TaskGraph::builder();
        b.add(SubtaskSpec::with_segments(StageId::new(0), vec![]));
        assert_eq!(
            b.build().unwrap_err(),
            GraphError::EmptySubtask { index: 0 }
        );
    }

    #[test]
    fn duplicate_edges_deduplicated() {
        let mut b = TaskGraph::builder();
        let a = b.add(sub(0, 1));
        let c = b.add(sub(1, 1));
        b.edge(a, c).edge(a, c).edge(a, c);
        let g = b.build().unwrap();
        assert_eq!(g.succs(a), &[c]);
        assert_eq!(g.preds(c), &[a]);
    }

    #[test]
    fn figure3_longest_path() {
        // 1 -> {2, 3} -> 4, as in the paper's Figure 3.
        let g = TaskGraph::fork_join(sub(0, 1), vec![sub(1, 1), sub(2, 1)], sub(3, 1)).unwrap();
        assert!(!g.is_chain());
        // d(L1..L4) = L1 + max(L2, L3) + L4
        assert_eq!(g.longest_path(&[1.0, 5.0, 2.0, 3.0]), 9.0);
        assert_eq!(g.longest_path(&[1.0, 2.0, 5.0, 3.0]), 9.0);
        assert_eq!(g.critical_path(&[1.0, 5.0, 2.0, 3.0]), vec![0, 1, 3]);
    }

    #[test]
    fn fork_join_with_no_branches_is_chain() {
        let g = TaskGraph::fork_join(sub(0, 1), vec![], sub(1, 1)).unwrap();
        assert!(g.is_chain());
        assert_eq!(g.longest_path(&[2.0, 3.0]), 5.0);
    }

    #[test]
    fn longest_path_on_chain_is_sum() {
        let g = TaskGraph::chain(vec![sub(0, 1), sub(1, 1), sub(2, 1)]).unwrap();
        assert_eq!(g.longest_path(&[1.5, 2.5, 3.0]), 7.0);
        assert_eq!(g.critical_path(&[1.5, 2.5, 3.0]), vec![0, 1, 2]);
    }

    #[test]
    fn stage_demand_merges_repeated_stages() {
        // Subtasks 0 and 2 share stage 0 (the paper notes Theorem 2 covers
        // this: their utilizations coincide).
        let g = TaskGraph::chain(vec![sub(0, 1), sub(1, 2), sub(0, 3)]).unwrap();
        let demand = g.stage_demand();
        assert_eq!(demand[&StageId::new(0)], ms(4));
        assert_eq!(demand[&StageId::new(1)], ms(2));
        assert_eq!(g.stages_used(), vec![StageId::new(0), StageId::new(1)]);
    }

    #[test]
    fn task_spec_contributions() {
        let t = TaskSpec::pipeline(TimeDelta::from_secs(1), &[ms(10), ms(20)]).unwrap();
        assert!((t.contribution_at(StageId::new(0)) - 0.01).abs() < 1e-12);
        assert!((t.contribution_at(StageId::new(1)) - 0.02).abs() < 1e-12);
        assert_eq!(t.contribution_at(StageId::new(9)), 0.0);
        assert!((t.resolution() - 1000.0 / 30.0).abs() < 1e-9);
    }

    #[test]
    fn task_spec_importance_builder() {
        let t = TaskSpec::pipeline(ms(100), &[ms(1)])
            .unwrap()
            .with_importance(Importance::CRITICAL);
        assert_eq!(t.importance, Importance::CRITICAL);
    }

    #[test]
    fn remap_stages_rewrites_and_preserves_structure() {
        let g = TaskGraph::chain(vec![sub(0, 1), sub(1, 2), sub(0, 3)]).unwrap();
        // Send logical stage 0 to physical replica stage 5.
        let remapped = g.remap_stages(|s| {
            if s == StageId::new(0) {
                StageId::new(5)
            } else {
                s
            }
        });
        assert_eq!(remapped.subtask(0).stage, StageId::new(5));
        assert_eq!(remapped.subtask(1).stage, StageId::new(1));
        assert_eq!(remapped.subtask(2).stage, StageId::new(5));
        assert_eq!(remapped.total_computation(), g.total_computation());
        assert_eq!(remapped.topological_order(), g.topological_order());

        let spec = TaskSpec::pipeline(ms(100), &[ms(1), ms(2)]).unwrap();
        let rs = spec.remap_stages(|s| StageId::new(s.index() + 10));
        assert!((rs.contribution_at(StageId::new(10)) - 0.01).abs() < 1e-12);
        assert_eq!(rs.contribution_at(StageId::new(0)), 0.0);
        assert_eq!(rs.deadline, spec.deadline);
    }

    #[test]
    fn display_chain_and_fork_join() {
        let chain = TaskGraph::chain(vec![sub(0, 1), sub(1, 1), sub(2, 1)]).unwrap();
        assert_eq!(format!("{chain}"), "s0 -> s1 -> s2");
        let fj = TaskGraph::fork_join(sub(0, 1), vec![sub(1, 1), sub(2, 1)], sub(3, 1)).unwrap();
        assert_eq!(format!("{fj}"), "s0 -> {s1 || s2} -> s3");
        // A general DAG (diamond with an extra shortcut) falls back to edges.
        let mut b = TaskGraph::builder();
        let a = b.add(sub(0, 1));
        let c = b.add(sub(1, 1));
        let d = b.add(sub(2, 1));
        b.edge(a, c).edge(a, d).edge(c, d);
        let g = b.build().unwrap();
        let s = format!("{g}");
        assert!(s.starts_with("dag["), "got {s}");
        assert!(s.contains("0->1"));
    }

    #[test]
    fn graph_with_critical_sections() {
        let s = SubtaskSpec::with_segments(
            StageId::new(0),
            vec![
                Segment::compute(ms(1)),
                Segment::critical(ms(2), LockId::new(0)),
            ],
        );
        let g = TaskGraph::chain(vec![s]).unwrap();
        assert_eq!(g.total_computation(), ms(3));
        assert_eq!(g.subtask(0).max_critical_section(), ms(2));
    }
}
