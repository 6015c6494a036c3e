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

use crate::demand::Demands;
use crate::error::GraphError;
use crate::task::{Importance, LockId, Segment, StageId, SubtaskSpec};
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
/// A graph stores only what differs between two tasks (DESIGN.md §11). A
/// *plain chain* — subtask `j` is one lock-free segment on stage `s_j`,
/// the `s_j` strictly ascending and below 2^8, every `C_j` below 2^24 µs
/// (16.8 s), the edges exactly `0 -> 1 -> … -> n-1` — is its per-stage
/// demand and nothing else: one 32-bit word per stage, `s_j << 24 | C_j`,
/// which [`TaskGraph::stage_demands`] unpacks. A plain chain of at most
/// five stages keeps its words in the graph itself, so building, cloning
/// and dropping it touch no heap, and a clone is a 24-byte copy. A longer
/// one keeps them in one shared allocation. Every other graph — a chain
/// past either limit among them — is one shared block of 32-bit words:
/// its nodes, their segments, its per-stage demand and, unless it is a
/// chain in index order, its edge lists. The structure is immutable once
/// built, so clones share what is on the heap: cloning a [`TaskSpec`]
/// (which workload generators do once per arrival) costs at most an `Arc`
/// bump. `Arc` rather than `Rc` keeps specs `Send` for the concurrent
/// admission service. Every constructor picks the form and the place from
/// the graph alone, so however a graph is built it has one form and
/// equality stays structural.
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
    /// A plain chain: word `j` packs subtask `j`'s stage and computation
    /// (see [`pack`]), which makes it the per-stage demand as well. The
    /// words ascend with the stage.
    Plain(Words),
    /// Every other graph, as one [`Block`].
    General(Arc<[u32]>),
}

/// The most words a plain chain keeps inline, in the graph itself: as
/// many as fit beside the length byte in the 24 bytes the shared form
/// takes anyway.
const INLINE_WORDS: usize = 5;

/// A plain chain's words: up to [`INLINE_WORDS`] of them inline, more in
/// one shared allocation. The place is a function of the length alone,
/// and either way the words are read as one slice.
#[derive(Clone)]
enum Words {
    /// The first `n` of the array.
    Inline(u8, [u32; INLINE_WORDS]),
    /// More than [`INLINE_WORDS`].
    Shared(Arc<[u32]>),
}

impl Words {
    /// Collects `words`, inline while there are at most [`INLINE_WORDS`]:
    /// a short chain allocates nothing, and a longer one is collected
    /// once, when its sixth word arrives.
    fn collect(mut words: impl Iterator<Item = u32>) -> Words {
        let mut inline = [0; INLINE_WORDS];
        let mut n = 0;
        while let Some(word) = words.next() {
            if n == INLINE_WORDS {
                return Words::Shared(inline.into_iter().chain([word]).chain(words).collect());
            }
            inline[n] = word;
            n += 1;
        }
        Words::Inline(n as u8, inline)
    }
}

impl std::ops::Deref for Words {
    type Target = [u32];

    #[inline]
    fn deref(&self) -> &[u32] {
        match self {
            Words::Inline(n, words) => &words[..usize::from(*n)],
            Words::Shared(words) => words,
        }
    }
}

/// The words before a general graph's nodes: `n`, the number of rows of
/// its demand table, and the lock word of a lock-free segment.
const HEADER: usize = 3;

/// A general graph's words, in this order:
///
/// | words | what |
/// |---|---|
/// | [`HEADER`] | `n`; `m`; the free lock word (below) |
/// | `2n` | node `i`: the row of its stage in the demand table, then the end of its segments |
/// | `4n` | the demand table, ascending by stage, its first `m` rows used: the stage's halves, then the demand's |
/// | `3n + 1 + 2e` | the [`Lists`], unless the graph is a chain in index order |
/// | `3s` | the `s` segments, node by node: the duration's low and high halves, then the lock |
///
/// What the admission test and the simulator read per arrival — a node's
/// stage, the demand table, the lists — sits at an offset that is a
/// function of `n` alone. Node `i`'s segments run from node `i - 1`'s end
/// (0 for node 0) to its own, so the last node's end is `s`, and the
/// block keeps lists exactly when it is longer than `HEADER + 6n + 3s`
/// words. The lock word of a lock-free segment is `u32::MAX`, or, when a
/// segment holds that lock, the largest value no segment's lock takes.
/// Every word is a function of the graph, and the unused rows are zero,
/// so two blocks are equal exactly when their graphs are.
#[derive(Clone, Copy)]
struct Block<'a>(&'a [u32]);

/// A 64-bit value as a row or a segment stores it: low half, high half.
#[inline]
fn halves(value: u64) -> [u32; 2] {
    [value as u32, (value >> 32) as u32]
}

/// The value of [`halves`].
#[inline]
fn joined(lo: u32, hi: u32) -> u64 {
    u64::from(lo) | u64::from(hi) << 32
}

/// A demand-table row's stage and total demand.
#[inline]
pub(crate) fn row(&[stage_lo, stage_hi, c_lo, c_hi]: &[u32; 4]) -> (StageId, TimeDelta) {
    let stage = StageId::new(joined(stage_lo, stage_hi) as usize);
    (stage, TimeDelta::from_micros(joined(c_lo, c_hi)))
}

impl<'a> Block<'a> {
    #[inline]
    fn len(self) -> usize {
        self.0[0] as usize
    }

    /// Where node `i`'s segments end, in segments.
    #[inline]
    fn segments_end(self, i: usize) -> usize {
        self.0[HEADER + 2 * i + 1] as usize
    }

    /// Where the segments, the block's last words, start.
    #[inline]
    fn segments_at(self) -> usize {
        self.0.len() - 3 * self.segments_end(self.len() - 1)
    }

    /// The demand table's used rows.
    #[inline]
    fn rows(self) -> &'a [[u32; 4]] {
        let at = HEADER + 2 * self.len();
        self.0[at..at + 4 * self.0[1] as usize].as_chunks().0
    }

    /// Node `i`'s stage. This and [`Block::subtask`] are not inlined:
    /// they keep [`TaskGraph::stage`] and [`TaskGraph::subtask`], which
    /// the simulator calls for every released subtask, small enough to
    /// inline with a plain chain's one-word decode.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    fn stage(self, i: usize) -> StageId {
        let n = self.len();
        assert!(i < n, "subtask {i} of a {n}-subtask graph");
        row(&self.rows()[self.0[HEADER + 2 * i] as usize]).0
    }

    /// Node `i` as a subtask; see [`Block::stage`].
    fn subtask(self, i: usize) -> SubtaskSpec {
        SubtaskSpec {
            stage: self.stage(i),
            segments: self.segments(i).collect(),
        }
    }

    /// Node `i`'s segments.
    fn segments(self, i: usize) -> impl Iterator<Item = Segment> + 'a {
        let start = if i == 0 { 0 } else { self.segments_end(i - 1) };
        let at = self.segments_at();
        let words = &self.0[at + 3 * start..at + 3 * self.segments_end(i)];
        let free = self.0[2];
        words
            .as_chunks()
            .0
            .iter()
            .map(move |&[lo, hi, lock]| Segment {
                duration: TimeDelta::from_micros(joined(lo, hi)),
                lock: (lock != free).then(|| LockId::new(lock as usize)),
            })
    }

    /// The edge lists; `None` for a chain in index order.
    #[inline]
    fn lists(self) -> Option<Lists<'a>> {
        let (at, end) = (HEADER + 6 * self.len(), self.segments_at());
        (end > at).then(|| Lists(&self.0[at..end]))
    }
}

/// The explicit precedence lists of an `n`-node graph: the topological
/// order (`n` ids), then `2n + 1` offsets into these words, then the ids
/// of list `0..2n`, which end with the words. List `i` holds node `i`'s
/// predecessors and list `n + i` its successors, each in the order its
/// edges were first added.
#[derive(Clone, Copy)]
struct Lists<'a>(&'a [u32]);

impl<'a> Lists<'a> {
    /// List `list` (`0..2n`) of the `n`-node graph.
    #[inline]
    fn list(self, n: usize, list: usize) -> &'a [u32] {
        let at = &self.0[n..];
        &self.0[at[list] as usize..at[list + 1] as usize]
    }
}

/// Writes the lists of `edges` (in range, no self-loops) into `buf`,
/// `3n + 1 + 2e` zeroed words for the `e` edges given, keeping each
/// repeated edge once, and returns how many words that leaves. The
/// topological order is left for [`sort_lists`].
fn write_lists(
    buf: &mut [u32],
    n: usize,
    edges: impl Iterator<Item = (usize, usize)> + Clone,
) -> usize {
    assert!(
        u32::try_from(buf.len()).is_ok(),
        "a task graph of {n} nodes"
    );
    let base = 3 * n + 1;
    let (head, ids) = buf.split_at_mut(base);
    let at = &mut head[n..];
    // Count each list's length into the slot after its start, sum the
    // counts into starts, then fill: each list's start advances to its
    // end, which is where the next list starts.
    for (from, to) in edges.clone() {
        at[to + 1] += 1;
        at[n + from + 1] += 1;
    }
    for k in 1..at.len() {
        at[k] += at[k - 1];
    }
    for (from, to) in edges {
        for (list, id) in [(to, from), (n + from, to)] {
            ids[at[list] as usize] = id as u32;
            at[list] += 1;
        }
    }
    // Keep the first of each repeated id and close the gaps: every list
    // moves down, never up, so this works in place. The offsets become
    // offsets into `buf`.
    let (mut read, mut write) = (0, 0);
    for bound in &mut at[..2 * n] {
        let (start, end) = (write, *bound as usize);
        for r in read..end {
            if !ids[start..write].contains(&ids[r]) {
                ids[write] = ids[r];
                write += 1;
            }
        }
        read = end;
        *bound = (base + start) as u32;
    }
    at[2 * n] = (base + write) as u32;
    base + write
}

/// Fills in the topological order of the lists in `buf` by Kahn's
/// algorithm, sources ascending first, so the order is deterministic.
/// Graphs of up to 16 nodes count their in-degrees without a heap
/// allocation.
///
/// # Errors
///
/// Returns [`GraphError::Cycle`] when there is no such order.
fn sort_lists(buf: &mut [u32], n: usize) -> Result<(), GraphError> {
    const INLINE: usize = 16;
    let mut inline = [0; INLINE];
    let mut spilled = Vec::new();
    let indeg: &mut [u32] = if n <= INLINE {
        &mut inline[..n]
    } else {
        spilled.resize(n, 0);
        &mut spilled
    };
    for (i, d) in indeg.iter_mut().enumerate() {
        *d = Lists(buf).list(n, i).len() as u32;
    }
    let mut len = 0;
    for (i, _) in indeg.iter().enumerate().filter(|&(_, &d)| d == 0) {
        buf[len] = i as u32;
        len += 1;
    }
    let mut cursor = 0;
    while cursor < len {
        let i = buf[cursor] as usize;
        cursor += 1;
        for r in buf[2 * n + i] as usize..buf[2 * n + i + 1] as usize {
            let s = buf[r] as usize;
            indeg[s] -= 1;
            if indeg[s] == 0 {
                buf[len] = s as u32;
                len += 1;
            }
        }
    }
    if len == n {
        Ok(())
    } else {
        Err(GraphError::Cycle)
    }
}

/// The longest chain stored without edge lists: the wire format's stage
/// limit. A longer chain keeps explicit [`Lists`].
const CHAIN_TABLE: usize = 1024;

/// `INDEX[i] == i`: node `i` of an edge-less chain has predecessors
/// `INDEX[i-1..i]` and successors `INDEX[i+1..i+2]`, and the topological
/// order is `INDEX[..n]`.
static INDEX: [u32; CHAIN_TABLE] = {
    let mut table = [0; CHAIN_TABLE];
    let mut i = 0;
    while i < CHAIN_TABLE {
        table[i] = i as u32;
        i += 1;
    }
    table
};

/// Successors of node `index` in the edge-less chain of `n` nodes.
fn chain_succs(n: usize, index: usize) -> &'static [u32] {
    &INDEX[index + 1..n.min(index + 2)]
}

/// The low bits of a plain chain's word: the demand in microseconds. The
/// high 8 hold the stage.
const DEMAND_BITS: u32 = 24;

/// A plain chain's word for `c` on `stage`, `stage << 24 | c`, when the
/// stage is below 2^8 and `c` below 2^24 µs; `None` past either limit.
#[inline]
fn pack(stage: StageId, c: TimeDelta) -> Option<u32> {
    let stage = u8::try_from(stage.index()).ok()?;
    let c = u32::try_from(c.as_micros()).ok()?;
    (c >> DEMAND_BITS == 0).then_some(u32::from(stage) << DEMAND_BITS | c)
}

/// The stage and demand a plain chain's word packs.
#[inline]
pub(crate) fn unpack(word: u32) -> (StageId, TimeDelta) {
    let stage = StageId::new((word >> DEMAND_BITS) as usize);
    let c = word & ((1 << DEMAND_BITS) - 1);
    (stage, TimeDelta::from_micros(u64::from(c)))
}

/// [`TaskGraph::stage_demands`]: a plain chain's words unpacked, or the
/// general form's demand table.
#[derive(Clone)]
enum StageDemands<'a> {
    Packed(std::slice::Iter<'a, u32>),
    Rows(std::slice::Iter<'a, [u32; 4]>),
}

impl Iterator for StageDemands<'_> {
    type Item = (StageId, TimeDelta);

    #[inline]
    fn next(&mut self) -> Option<(StageId, TimeDelta)> {
        match self {
            StageDemands::Packed(words) => words.next().map(|&word| unpack(word)),
            StageDemands::Rows(rows) => rows.next().map(row),
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            StageDemands::Packed(words) => words.size_hint(),
            StageDemands::Rows(rows) => rows.size_hint(),
        }
    }
}

impl ExactSizeIterator for StageDemands<'_> {}

/// The first subtask without segments, as the error every constructor
/// returns.
fn check_segments<'s>(
    mut subtasks: impl Iterator<Item = &'s SubtaskSpec>,
) -> Result<(), GraphError> {
    match subtasks.position(|s| s.segments.is_empty()) {
        Some(index) => Err(GraphError::EmptySubtask { index }),
        None => Ok(()),
    }
}

impl PartialEq for TaskGraph {
    fn eq(&self, other: &TaskGraph) -> bool {
        match (&self.0, &other.0) {
            (Repr::Plain(a), Repr::Plain(b)) => **a == **b,
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
        check_segments(subtasks.iter())?;
        Ok(TaskGraph::index_chain(&subtasks))
    }

    /// The chain whose subtask `j` is one lock-free segment of
    /// `demands[j].1` on stage `demands[j].0` — [`TaskGraph::chain`]
    /// without a subtask list in between. In the plain form (see
    /// [`TaskGraph`]) the graph is `demands` packed: inline up to five
    /// stages, one allocation past that.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Empty`] when `demands` is empty.
    pub fn chain_of(demands: &[(StageId, TimeDelta)]) -> Result<TaskGraph, GraphError> {
        let words = demands.iter().map(|&(stage, c)| pack(stage, c));
        TaskGraph::plain(words).or_else(|_| {
            let subtask = |&(stage, c): &(StageId, TimeDelta)| SubtaskSpec::new(stage, c);
            TaskGraph::chain(demands.iter().map(subtask).collect())
        })
    }

    /// The chain [`TaskSpec::pipeline`] describes: subtask `j` runs on
    /// stage `j` for `computations[j]`. In the plain form this allocates
    /// nothing up to five stages, and past that once when std trusts the
    /// iterator's length (a slice's, copied or mapped); other iterators
    /// are collected first.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Empty`] when `computations` is empty.
    pub fn pipeline(
        computations: impl Iterator<Item = TimeDelta>,
    ) -> Result<TaskGraph, GraphError> {
        // The iterator is read once. From the first demand that does not
        // pack on, every demand is kept aside as well, for the general
        // form: a word past the limits holds no demand to recover.
        let mut unpacked = Vec::new();
        let words = computations.enumerate().map(|(j, c)| {
            let word = pack(StageId::new(j), c).filter(|_| unpacked.is_empty());
            if word.is_none() {
                unpacked.push(c);
            }
            word
        });
        TaskGraph::plain(words).or_else(|words| {
            let packed = &words[..words.len() - unpacked.len()];
            let demands = packed.iter().map(|&word| unpack(word).1).chain(unpacked);
            let subtask = |(j, c)| SubtaskSpec::new(StageId::new(j), c);
            TaskGraph::chain(demands.enumerate().map(subtask).collect())
        })
    }

    /// `words` — from [`pack`], `None` for a subtask past its limits — as
    /// a plain chain if that is its form: at least one word, every one
    /// packed, the stages strictly ascending (which keeps a plain chain
    /// within the 256 stages a word can name). Otherwise the words come
    /// back, each one that did not pack as zero, for the caller to build
    /// the chain the general way.
    fn plain(words: impl Iterator<Item = Option<u32>>) -> Result<TaskGraph, Words> {
        let mut packed = true;
        let words = Words::collect(words.map(|word| {
            packed &= word.is_some();
            word.unwrap_or(0)
        }));
        let ascending = words.windows(2).all(|w| unpack(w[0]).0 < unpack(w[1]).0);
        if packed && ascending && !words.is_empty() {
            Ok(TaskGraph(Repr::Plain(words)))
        } else {
            Err(words)
        }
    }

    /// The chain `0 -> 1 -> … -> n-1` of `subtasks` (`1 ≤ n ≤ 1024`, none
    /// without segments), in its one form.
    fn index_chain(subtasks: &[SubtaskSpec]) -> TaskGraph {
        let lock_free = |s: &SubtaskSpec| matches!(&*s.segments, [only] if only.lock.is_none());
        if subtasks.iter().all(lock_free) {
            let word = |s: &SubtaskSpec| pack(s.stage, s.segments[0].duration);
            if let Ok(graph) = TaskGraph::plain(subtasks.iter().map(word)) {
                return graph;
            }
        }
        TaskGraph::general(subtasks.iter(), 0, |_| {})
    }

    /// The general form of `subtasks` (at least one, none without
    /// segments): one [`Block`] of the exact length, allocated once and
    /// filled in place, with `list_words` words of edge lists that `lists`
    /// writes (none for a chain in index order).
    fn general<'s>(
        subtasks: impl Iterator<Item = &'s SubtaskSpec> + Clone,
        list_words: usize,
        lists: impl FnOnce(&mut [u32]),
    ) -> TaskGraph {
        let largest = Some(LockId::new(u32::MAX as usize));
        let (mut n, mut s, mut holds_largest) = (0, 0, false);
        for sub in subtasks.clone() {
            n += 1;
            s += sub.segments.len();
            holds_largest |= sub.segments.iter().any(|segment| segment.lock == largest);
        }
        let len = HEADER + 6 * n + list_words + 3 * s;
        assert!(u32::try_from(len).is_ok(), "a task graph of {n} nodes");
        // A collected iterator of trusted length is one allocation.
        let mut block: Arc<[u32]> = std::iter::repeat_n(0, len).collect();
        let words = Arc::get_mut(&mut block).expect("a new block is unique");
        let (nodes, rest) = words.split_at_mut(HEADER + 2 * n);
        let (table, rest) = rest.split_at_mut(4 * n);
        let (lists_buf, segments) = rest.split_at_mut(list_words);
        let table: &mut [[u32; 4]] = table.as_chunks_mut().0;

        let mut free = u32::MAX;
        if holds_largest {
            let locks = (subtasks.clone())
                .flat_map(|sub| sub.segments.iter())
                .filter_map(|segment| segment.lock);
            while locks.clone().any(|lock| lock.index() == free as usize) {
                free -= 1;
            }
        }
        let new_row = |stage: StageId, c: TimeDelta| {
            let [stage_lo, stage_hi] = halves(stage.index() as u64);
            let [c_lo, c_hi] = halves(c.as_micros());
            [stage_lo, stage_hi, c_lo, c_hi]
        };
        // While the stages ascend, node `i` is row `i`; from the first
        // that does not, each demand is merged into the rows, kept
        // ascending: a new stage inserted, a repeated one summed in
        // `TimeDelta`, and the nodes find their rows once all are in.
        let (mut end, mut rows, mut ascending) = (0, 0, true);
        for (i, sub) in subtasks.clone().enumerate() {
            let mut c = TimeDelta::ZERO;
            for segment in sub.segments.iter() {
                let [lo, hi] = halves(segment.duration.as_micros());
                let lock = segment.lock.map_or(free, |lock| lock.index() as u32);
                segments[3 * end..3 * end + 3].copy_from_slice(&[lo, hi, lock]);
                c += segment.duration;
                end += 1;
            }
            nodes[HEADER + 2 * i + 1] = end as u32;
            if ascending && (rows == 0 || row(&table[rows - 1]).0 < sub.stage) {
                nodes[HEADER + 2 * i] = rows as u32;
                table[rows] = new_row(sub.stage, c);
                rows += 1;
                continue;
            }
            ascending = false;
            match table[..rows].binary_search_by_key(&sub.stage, |r| row(r).0) {
                Ok(at) => {
                    let total = row(&table[at]).1 + c;
                    table[at][2..].copy_from_slice(&halves(total.as_micros()));
                }
                Err(at) => {
                    table.copy_within(at..rows, at + 1);
                    table[at] = new_row(sub.stage, c);
                    rows += 1;
                }
            }
        }
        if !ascending {
            for (i, sub) in subtasks.enumerate() {
                let at = table[..rows].binary_search_by_key(&sub.stage, |r| row(r).0);
                nodes[HEADER + 2 * i] = at.expect("every stage has a row") as u32;
            }
        }
        nodes[..HEADER].copy_from_slice(&[n as u32, rows as u32, free]);
        lists(lists_buf);
        TaskGraph(Repr::General(block))
    }

    /// A fork-join graph: `head` then all of `branches` in parallel, then
    /// `tail` (the shape of the paper's Figure 3 when `branches.len() == 2`).
    /// It is the graph the builder makes of those edges (with at most one
    /// branch, the chain), built straight into its one block, without the
    /// builder's edge vector or a subtask list; the branches are borrowed,
    /// so a caller can pass them from an array on its stack.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EmptySubtask`] when a subtask has no segments.
    pub fn fork_join(
        head: SubtaskSpec,
        branches: &[SubtaskSpec],
        tail: SubtaskSpec,
    ) -> Result<TaskGraph, GraphError> {
        let n = branches.len() + 2;
        if n <= 3 {
            let mut subtasks = Vec::with_capacity(n);
            subtasks.push(head);
            subtasks.extend_from_slice(branches);
            subtasks.push(tail);
            return TaskGraph::chain(subtasks);
        }
        let once = std::iter::once;
        let subtasks = once(&head).chain(branches).chain(once(&tail));
        check_segments(subtasks.clone())?;
        // The builder's lists of these edges, written straight into the
        // block: none repeats, so their length is known up front.
        let edges = (1..n - 1).flat_map(|b| [(0, b), (b, n - 1)]);
        let list_words = 3 * n + 1 + 4 * (n - 2);
        Ok(TaskGraph::general(subtasks, list_words, |buf| {
            write_lists(buf, n, edges);
            sort_lists(buf, n).expect("a fork-join is acyclic");
        }))
    }

    /// Number of subtasks.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Plain(words) => words.len(),
            Repr::General(block) => Block(block).len(),
        }
    }

    /// Whether the graph has no subtasks (never true for a built graph;
    /// provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the graph is stored as a plain chain — its per-stage demand
    /// and nothing else (see [`TaskGraph`]). A function of the graph alone.
    #[inline]
    pub fn is_plain(&self) -> bool {
        matches!(self.0, Repr::Plain(_))
    }

    /// The subtask at `index`, by value: a one-segment subtask owns no
    /// heap, so this allocates only for a subtask of several segments.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[inline]
    pub fn subtask(&self, index: usize) -> SubtaskSpec {
        match &self.0 {
            Repr::Plain(words) => {
                let (stage, c) = unpack(words[index]);
                SubtaskSpec::new(stage, c)
            }
            Repr::General(block) => Block(block).subtask(index),
        }
    }

    /// The stage subtask `index` runs on, without building the subtask.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[inline]
    pub fn stage(&self, index: usize) -> StageId {
        match &self.0 {
            Repr::Plain(words) => unpack(words[index]).0,
            Repr::General(block) => Block(block).stage(index),
        }
    }

    /// Iterates over all subtasks in insertion order, by value (see
    /// [`TaskGraph::subtask`]).
    pub fn subtasks(&self) -> impl Iterator<Item = SubtaskSpec> + '_ {
        (0..self.len()).map(|i| self.subtask(i))
    }

    /// Explicit edge lists; `None` for a chain in index order of at most
    /// [`CHAIN_TABLE`] subtasks.
    #[inline]
    fn lists(&self) -> Option<Lists<'_>> {
        match &self.0 {
            Repr::Plain(_) => None,
            Repr::General(block) => Block(block).lists(),
        }
    }

    /// Predecessors of subtask `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[inline]
    pub fn preds(&self, index: usize) -> &[u32] {
        let n = self.len();
        assert!(index < n, "subtask {index} of a {n}-subtask graph");
        match self.lists() {
            Some(lists) => lists.list(n, index),
            None => &INDEX[index.saturating_sub(1)..index],
        }
    }

    /// Successors of subtask `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[inline]
    pub fn succs(&self, index: usize) -> &[u32] {
        let n = self.len();
        assert!(index < n, "subtask {index} of a {n}-subtask graph");
        match self.lists() {
            Some(lists) => lists.list(n, n + index),
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
    pub fn topological_order(&self) -> &[u32] {
        match self.lists() {
            Some(lists) => &lists.0[..self.len()],
            None => &INDEX[..self.len()],
        }
    }

    /// Whether the graph is a single chain (a pipeline). Allocates
    /// nothing, and is O(1) for a chain stored without edge lists.
    pub fn is_chain(&self) -> bool {
        let Some(lists) = self.lists() else {
            return true;
        };
        let n = self.len();
        let sizes = |range: std::ops::Range<usize>| range.map(|k| lists.list(n, k).len());
        sizes(0..n).filter(|&size| size == 0).count() == 1 && sizes(0..2 * n).all(|size| size <= 1)
    }

    /// The distinct stages used by this graph, in ascending order.
    pub fn stages_used(&self) -> Vec<StageId> {
        self.stage_demands().map(|(stage, _)| stage).collect()
    }

    /// Total computation time demanded from each stage (`C_ij` summed over
    /// all subtasks of this task on stage `j`).
    pub fn stage_demand(&self) -> BTreeMap<StageId, TimeDelta> {
        self.stage_demands().collect()
    }

    /// [`TaskGraph::stage_demand`] without building a map: the per-stage
    /// totals, ascending by stage, as stored at construction (a plain
    /// chain's words unpacked one by one, or the general form's demand
    /// table).
    pub fn stage_demands(
        &self,
    ) -> impl ExactSizeIterator<Item = (StageId, TimeDelta)> + Clone + '_ {
        match &self.0 {
            Repr::Plain(words) => StageDemands::Packed(words.iter()),
            Repr::General(block) => StageDemands::Rows(Block(block).rows().iter()),
        }
    }

    /// The stored per-stage demand, as
    /// [`DemandView`](crate::demand::DemandView) lends it: a plain
    /// chain's words, or the general form's demand table.
    pub(crate) fn demands(&self) -> Demands<'_> {
        match &self.0 {
            Repr::Plain(words) => Demands::Packed(words),
            Repr::General(block) => Demands::Rows(Block(block).rows()),
        }
    }

    /// Total computation time over all subtasks.
    pub fn total_computation(&self) -> TimeDelta {
        self.stage_demands().map(|(_, c)| c).sum()
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
            let i = i as usize;
            let start = self
                .preds(i)
                .iter()
                .map(|&p| finish[p as usize])
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
        if let Repr::Plain(words) = &self.0 {
            let remap = |&word: &u32| {
                let (stage, c) = unpack(word);
                pack(f(stage), c)
            };
            if let Ok(graph) = TaskGraph::plain(words.iter().map(remap)) {
                return graph;
            }
        }
        let mut subtasks: Vec<SubtaskSpec> = self.subtasks().collect();
        for sub in &mut subtasks {
            sub.stage = f(sub.stage);
        }
        match self.lists() {
            None => TaskGraph::index_chain(&subtasks),
            Some(Lists(words)) => TaskGraph::general(subtasks.iter(), words.len(), |buf| {
                buf.copy_from_slice(words)
            }),
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
            let i = i as usize;
            let mut start = 0.0;
            for &p in self.preds(i) {
                let p = p as usize;
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
                    Some(&next) => cur = next as usize,
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
                .all(|&m| self.preds(m) == [head as u32] && self.succs(m) == [tail as u32])
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
        check_segments(self.subtasks.iter())?;
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
        // the lists keep each edge once. They are written here, at their
        // length before deduplication, and copied into the block.
        let mut lists = vec![0; 3 * n + 1 + 2 * self.edges.len()];
        let kept = write_lists(&mut lists, n, self.edges.iter().copied());
        lists.truncate(kept);

        // Exactly the edges `i -> i+1`: the one form such a chain has.
        if n <= CHAIN_TABLE && (0..n).all(|i| Lists(&lists).list(n, n + i) == chain_succs(n, i)) {
            return Ok(TaskGraph::index_chain(&std::mem::take(&mut self.subtasks)));
        }
        sort_lists(&mut lists, n)?;
        let subtasks = std::mem::take(&mut self.subtasks);
        Ok(TaskGraph::general(subtasks.iter(), lists.len(), |buf| {
            buf.copy_from_slice(&lists)
        }))
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
            .map(move |(stage, c)| (stage, c.ratio(deadline)))
    }

    /// The contribution `C_ij / D_i` at one stage (zero if unused).
    pub fn contribution_at(&self, stage: StageId) -> f64 {
        // Both forms are ascending by stage: a binary search either way.
        let demand = match &self.graph.0 {
            Repr::Plain(words) => words
                .binary_search_by_key(&stage, |&word| unpack(word).0)
                .map(|i| unpack(words[i]).1),
            Repr::General(block) => {
                let rows = Block(block).rows();
                (rows.binary_search_by_key(&stage, |r| row(r).0)).map(|i| row(&rows[i]).1)
            }
        };
        demand.map_or(0.0, |c| c.ratio(self.deadline))
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
        // Past stage 255 a chain is not plain, and still keeps no edges.
        for n in [1, 2, 3, 256, 257, CHAIN_TABLE] {
            let g = TaskGraph::chain((0..n).map(|i| sub(i, 1)).collect()).unwrap();
            assert!(
                g.lists().is_none() && g.is_plain() == (n <= 256),
                "chain of {n}"
            );
            assert!(n == 1 || by_edges(n) == g, "built chain of {n}");
            // A repeated stage is not plain, and still keeps no edges.
            let repeated = TaskGraph::chain((0..n).map(|i| sub(i / 2, 1)).collect()).unwrap();
            assert!(repeated.lists().is_none() && (n == 1) == repeated.is_plain());
            assert_eq!(g.succs(n - 1), &[] as &[u32]);
            assert_eq!(g.preds(n - 1), &INDEX[n.saturating_sub(2)..n - 1]);
        }
        // One past the table: the general form, the same from both.
        let n = CHAIN_TABLE + 1;
        let long = TaskGraph::chain((0..n).map(|i| sub(i, 1)).collect()).unwrap();
        assert!(long.lists().is_some());
        assert!(long.is_chain());
        assert_eq!(long, by_edges(n));
        assert_eq!(long.preds(n - 1), &[n as u32 - 2]);
        assert_eq!(long.topological_order().len(), n);
        // A chain in any other order keeps its edges.
        let mut b = TaskGraph::builder();
        let (a, c) = (b.add(sub(0, 1)), b.add(sub(1, 1)));
        b.edge(c, a);
        let reversed = b.build().unwrap();
        assert!(reversed.lists().is_some() && reversed.is_chain());
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
            TaskGraph::chain(subs)
                .unwrap()
                .stage_demands()
                .collect::<Vec<_>>()
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
        assert_eq!(g.succs(a), &[c as u32]);
        assert_eq!(g.preds(c), &[a as u32]);
    }

    #[test]
    fn figure3_longest_path() {
        // 1 -> {2, 3} -> 4, as in the paper's Figure 3.
        let g = TaskGraph::fork_join(sub(0, 1), &[sub(1, 1), sub(2, 1)], sub(3, 1)).unwrap();
        assert!(!g.is_chain());
        // d(L1..L4) = L1 + max(L2, L3) + L4
        assert_eq!(g.longest_path(&[1.0, 5.0, 2.0, 3.0]), 9.0);
        assert_eq!(g.longest_path(&[1.0, 2.0, 5.0, 3.0]), 9.0);
        assert_eq!(g.critical_path(&[1.0, 5.0, 2.0, 3.0]), vec![0, 1, 3]);
    }

    #[test]
    fn fork_join_with_no_branches_is_chain() {
        let g = TaskGraph::fork_join(sub(0, 1), &[], sub(1, 1)).unwrap();
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
        let fj = TaskGraph::fork_join(sub(0, 1), &[sub(1, 1), sub(2, 1)], sub(3, 1)).unwrap();
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
