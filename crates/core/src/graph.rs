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
use std::sync::Arc;

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
/// A graph stores only what differs between two tasks (DESIGN.md §11). A
/// *plain chain* — subtask `j` is one lock-free segment on stage `s_j`,
/// the `s_j` strictly ascending, the edges exactly `0 -> 1 -> … -> n-1` —
/// is its per-stage demand `[(s_j, C_j)]` and nothing else: one
/// allocation, the very slice [`TaskGraph::stage_demands`] lends. Every
/// other graph keeps its subtask list, and edge lists unless it is a chain
/// in index order. Every constructor picks the form from the graph alone,
/// so however a graph is built it has one form and equality stays
/// structural.
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
pub struct TaskGraph(Repr);

#[derive(Clone)]
enum Repr {
    /// A plain chain: entry `j` is subtask `j`'s stage and computation,
    /// which makes it the per-stage demand as well.
    Plain(Arc<[(StageId, TimeDelta)]>),
    /// Every other graph.
    General(Arc<GraphInner>),
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
    edges: Option<Edges>,
}

/// The explicit precedence lists of an `n`-node graph in one buffer: the
/// topological order (`n` ids), then `2n + 1` offsets into the buffer,
/// then the ids of list `0..2n`. List `i` holds node `i`'s predecessors
/// and list `n + i` its successors, each in the order its edges were first
/// added.
#[derive(Debug, Clone, PartialEq)]
struct Edges(Vec<usize>);

impl Edges {
    /// The lists of `edges` (in range, no self-loops) with duplicates
    /// dropped; the topological order is left for [`Edges::sorted`].
    fn new(n: usize, edges: &[(usize, usize)]) -> Edges {
        let base = 3 * n + 1;
        let mut buf = vec![0; base + 2 * edges.len()];
        let (head, ids) = buf.split_at_mut(base);
        let at = &mut head[n..];
        // Count each list's length into the slot after its start, sum the
        // counts into starts, then fill: each list's start advances to its
        // end, which is where the next list starts.
        for &(from, to) in edges {
            at[to + 1] += 1;
            at[n + from + 1] += 1;
        }
        for k in 1..at.len() {
            at[k] += at[k - 1];
        }
        for &(from, to) in edges {
            for (list, id) in [(to, from), (n + from, to)] {
                ids[at[list]] = id;
                at[list] += 1;
            }
        }
        // Keep the first of each repeated id and close the gaps: every
        // list moves down, never up, so this works in place.
        let (mut read, mut write) = (0, 0);
        for bound in &mut at[..2 * n] {
            let (start, end) = (write, *bound);
            for r in read..end {
                if !ids[start..write].contains(&ids[r]) {
                    ids[write] = ids[r];
                    write += 1;
                }
            }
            read = end;
            *bound = base + start;
        }
        at[2 * n] = base + write;
        buf.truncate(base + write);
        Edges(buf)
    }

    /// Fills in the topological order by Kahn's algorithm, sources
    /// ascending first, so the order is deterministic.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Cycle`] when there is no such order.
    fn sorted(mut self, n: usize) -> Result<Edges, GraphError> {
        let mut indeg: Vec<usize> = (0..n).map(|i| self.list(n, i).len()).collect();
        let mut len = 0;
        for (i, _) in indeg.iter().enumerate().filter(|&(_, &d)| d == 0) {
            self.0[len] = i;
            len += 1;
        }
        let mut cursor = 0;
        while cursor < len {
            let i = self.0[cursor];
            cursor += 1;
            for r in self.0[2 * n + i]..self.0[2 * n + i + 1] {
                let s = self.0[r];
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    self.0[len] = s;
                    len += 1;
                }
            }
        }
        if len == n {
            Ok(self)
        } else {
            Err(GraphError::Cycle)
        }
    }

    /// List `list` (`0..2n`) of the `n`-node graph.
    fn list(&self, n: usize, list: usize) -> &[usize] {
        let at = &self.0[n..];
        &self.0[at[list]..at[list + 1]]
    }
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

/// Successors of node `index` in the edge-less chain of `n` nodes.
fn chain_succs(n: usize, index: usize) -> &'static [usize] {
    &INDEX[index + 1..n.min(index + 2)]
}

/// Merges per-subtask computation into per-stage totals, ascending by
/// stage. Summed in `TimeDelta` (integer microseconds), exactly as the
/// on-demand merge used to.
fn merged_stage_demand(subtasks: &[SubtaskSpec]) -> Vec<(StageId, TimeDelta)> {
    let mut v: Vec<(StageId, TimeDelta)> = Vec::with_capacity(subtasks.len());
    // Stages strictly ascending so far: each subtask is a new last entry,
    // no search and no sort.
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

/// Whether the stages of `demands` strictly ascend.
fn ascending(demands: &[(StageId, TimeDelta)]) -> bool {
    demands.windows(2).all(|w| w[0].0 < w[1].0)
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
        match (&self.0, &other.0) {
            (Repr::Plain(a), Repr::Plain(b)) => Arc::ptr_eq(a, b) || a == b,
            (Repr::General(a), Repr::General(b)) => Arc::ptr_eq(a, b) || a == b,
            // One graph, one form.
            _ => false,
        }
    }
}

impl std::fmt::Debug for TaskGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let nodes = 0..self.len();
        f.debug_struct("TaskGraph")
            .field("subtasks", &self.subtasks().collect::<Vec<_>>())
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
    /// the general builder (edge lists, deduplication, Kahn's algorithm);
    /// a plain chain keeps its per-stage demand alone.
    /// [`TaskGraphBuilder::build`] given exactly the edges `i -> i+1`
    /// returns the same graph.
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
        Ok(TaskGraph::index_chain(subtasks))
    }

    /// The chain whose subtask `j` is one lock-free segment of
    /// `demands[j].1` on stage `demands[j].0` — [`TaskGraph::chain`]
    /// without a subtask list in between. With the stages strictly
    /// ascending (and at most 1024 of them) the graph is one allocation, a
    /// copy of `demands`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Empty`] when `demands` is empty.
    pub fn chain_of(demands: &[(StageId, TimeDelta)]) -> Result<TaskGraph, GraphError> {
        TaskGraph::plain(Arc::from(demands))
    }

    /// The chain [`TaskSpec::pipeline`] describes: subtask `j` runs on
    /// stage `j` for `computations[j]`. Up to 1024 stages this is one
    /// allocation when std trusts the iterator's length (a slice's, copied
    /// or mapped); other iterators are collected first.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Empty`] when `computations` is empty.
    pub fn pipeline(
        computations: impl Iterator<Item = TimeDelta>,
    ) -> Result<TaskGraph, GraphError> {
        let stage_demand = |(j, c)| (StageId::new(j), c);
        TaskGraph::plain(computations.enumerate().map(stage_demand).collect())
    }

    /// The chain of one lock-free subtask per entry of `demands`: stored as
    /// `demands` itself when that is the plain form, else built as any
    /// other chain.
    fn plain(demands: Arc<[(StageId, TimeDelta)]>) -> Result<TaskGraph, GraphError> {
        if demands.len() > CHAIN_TABLE || !ascending(&demands) {
            let subtask = |&(stage, c): &(StageId, TimeDelta)| SubtaskSpec::new(stage, c);
            return TaskGraph::chain(demands.iter().map(subtask).collect());
        }
        if demands.is_empty() {
            return Err(GraphError::Empty);
        }
        Ok(TaskGraph(Repr::Plain(demands)))
    }

    /// The chain `0 -> 1 -> … -> n-1` of `subtasks` (`1 ≤ n ≤ 1024`, none
    /// without segments), in its one form.
    fn index_chain(subtasks: Vec<SubtaskSpec>) -> TaskGraph {
        let lock_free = |s: &SubtaskSpec| matches!(&*s.segments, [only] if only.lock.is_none());
        let ascending = subtasks.windows(2).all(|w| w[0].stage < w[1].stage);
        if ascending && subtasks.iter().all(lock_free) {
            let demand = |s: &SubtaskSpec| (s.stage, s.segments[0].duration);
            return TaskGraph(Repr::Plain(subtasks.iter().map(demand).collect()));
        }
        TaskGraph::general(subtasks, None)
    }

    fn general(subtasks: Vec<SubtaskSpec>, edges: Option<Edges>) -> TaskGraph {
        let stage_demand = merged_stage_demand(&subtasks);
        TaskGraph(Repr::General(Arc::new(GraphInner {
            subtasks,
            stage_demand,
            edges,
        })))
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
        match &self.0 {
            Repr::Plain(demands) => demands.len(),
            Repr::General(inner) => inner.subtasks.len(),
        }
    }

    /// Whether the graph has no subtasks (never true for a built graph;
    /// provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the graph is stored as a plain chain — its per-stage demand
    /// and nothing else (see [`TaskGraph`]). A function of the graph alone.
    pub fn is_plain(&self) -> bool {
        matches!(self.0, Repr::Plain(_))
    }

    /// The subtask at `index`, by value: a one-segment subtask owns no
    /// heap, so for a plain chain this allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn subtask(&self, index: usize) -> SubtaskSpec {
        match &self.0 {
            Repr::Plain(demands) => {
                let (stage, c) = demands[index];
                SubtaskSpec::new(stage, c)
            }
            Repr::General(inner) => inner.subtasks[index].clone(),
        }
    }

    /// The stage subtask `index` runs on, without building the subtask.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn stage(&self, index: usize) -> StageId {
        match &self.0 {
            Repr::Plain(demands) => demands[index].0,
            Repr::General(inner) => inner.subtasks[index].stage,
        }
    }

    /// Iterates over all subtasks in insertion order, by value (see
    /// [`TaskGraph::subtask`]).
    pub fn subtasks(&self) -> impl Iterator<Item = SubtaskSpec> + '_ {
        (0..self.len()).map(|i| self.subtask(i))
    }

    /// Explicit edge lists; `None` for a chain in index order of at most
    /// [`CHAIN_TABLE`] subtasks.
    fn edges(&self) -> Option<&Edges> {
        match &self.0 {
            Repr::Plain(_) => None,
            Repr::General(inner) => inner.edges.as_ref(),
        }
    }

    /// Predecessors of subtask `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn preds(&self, index: usize) -> &[usize] {
        let n = self.len();
        assert!(index < n, "subtask {index} of a {n}-subtask graph");
        match self.edges() {
            Some(edges) => edges.list(n, index),
            None => &INDEX[index.saturating_sub(1)..index],
        }
    }

    /// Successors of subtask `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn succs(&self, index: usize) -> &[usize] {
        let n = self.len();
        assert!(index < n, "subtask {index} of a {n}-subtask graph");
        match self.edges() {
            Some(edges) => edges.list(n, n + index),
            None => chain_succs(n, index),
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
        match self.edges() {
            Some(edges) => &edges.0[..self.len()],
            None => &INDEX[..self.len()],
        }
    }

    /// Whether the graph is a single chain (a pipeline). Allocates
    /// nothing, and is O(1) for a chain stored without edge lists.
    pub fn is_chain(&self) -> bool {
        let Some(edges) = self.edges() else {
            return true;
        };
        let n = self.len();
        let sizes = |lists: std::ops::Range<usize>| lists.map(|k| edges.list(n, k).len());
        sizes(0..n).filter(|&size| size == 0).count() == 1 && sizes(0..2 * n).all(|size| size <= 1)
    }

    /// The distinct stages used by this graph, in ascending order.
    pub fn stages_used(&self) -> Vec<StageId> {
        self.stage_demands()
            .iter()
            .map(|&(stage, _)| stage)
            .collect()
    }

    /// Total computation time demanded from each stage (`C_ij` summed over
    /// all subtasks of this task on stage `j`).
    pub fn stage_demand(&self) -> BTreeMap<StageId, TimeDelta> {
        self.stage_demands().iter().copied().collect()
    }

    /// [`TaskGraph::stage_demand`] without building a map: the per-stage
    /// totals, ascending by stage, as stored at construction.
    pub fn stage_demands(&self) -> &[(StageId, TimeDelta)] {
        match &self.0 {
            Repr::Plain(demands) => demands,
            Repr::General(inner) => &inner.stage_demand,
        }
    }

    /// Total computation time over all subtasks.
    pub fn total_computation(&self) -> TimeDelta {
        self.stage_demands().iter().map(|&(_, c)| c).sum()
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
        if let Repr::Plain(demands) = &self.0 {
            let remapped = demands.iter().map(|&(stage, c)| (f(stage), c)).collect();
            return TaskGraph::plain(remapped).expect("a built graph is non-empty");
        }
        let mut subtasks: Vec<SubtaskSpec> = self.subtasks().collect();
        for sub in &mut subtasks {
            sub.stage = f(sub.stage);
        }
        match self.edges() {
            None => TaskGraph::index_chain(subtasks),
            Some(edges) => TaskGraph::general(subtasks, Some(edges.clone())),
        }
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
                write!(f, "s{}", self.stage(cur).index())?;
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
                write!(f, "s{} -> {{", self.stage(head).index())?;
                for (i, &m) in middles.iter().enumerate() {
                    if i > 0 {
                        write!(f, " || ")?;
                    }
                    write!(f, "s{}", self.stage(m).index())?;
                }
                return write!(f, "}} -> s{}", self.stage(tail).index());
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
        }
        // Duplicate edges are harmless but would skew in-degree counting;
        // the lists keep each edge once.
        let edges = Edges::new(n, &self.edges);

        // Exactly the edges `i -> i+1`: the one form such a chain has.
        if n <= CHAIN_TABLE && (0..n).all(|i| edges.list(n, n + i) == chain_succs(n, i)) {
            return Ok(TaskGraph::index_chain(std::mem::take(&mut self.subtasks)));
        }
        let edges = edges.sorted(n)?;
        Ok(TaskGraph::general(
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
            assert!(g.is_plain(), "chain of {n}");
            assert!(n == 1 || by_edges(n).is_plain(), "built chain of {n}");
            // A repeated stage is not plain, and still keeps no edges.
            let repeated = TaskGraph::chain((0..n).map(|i| sub(i / 2, 1)).collect()).unwrap();
            assert!(repeated.edges().is_none() && (n == 1) == repeated.is_plain());
            assert_eq!(g.succs(n - 1), &[] as &[usize]);
            assert_eq!(g.preds(n - 1), &INDEX[n.saturating_sub(2)..n - 1]);
        }
        // One past the table: the general form, the same from both.
        let n = CHAIN_TABLE + 1;
        let long = TaskGraph::chain((0..n).map(|i| sub(i, 1)).collect()).unwrap();
        assert!(long.edges().is_some());
        assert!(long.is_chain());
        assert_eq!(long, by_edges(n));
        assert_eq!(long.preds(n - 1), &[n - 2]);
        assert_eq!(long.topological_order().len(), n);
        // A chain in any other order keeps its edges.
        let mut b = TaskGraph::builder();
        let (a, c) = (b.add(sub(0, 1)), b.add(sub(1, 1)));
        b.edge(c, a);
        let reversed = b.build().unwrap();
        assert!(reversed.edges().is_some() && reversed.is_chain());
        assert_eq!(reversed.topological_order(), &[1, 0]);
    }

    #[test]
    #[should_panic(expected = "subtask 3 of a 3-subtask graph")]
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
