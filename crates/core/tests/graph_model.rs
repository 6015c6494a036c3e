//! One model for every [`TaskGraph`] accessor: a naive adjacency-matrix
//! reference that plain chains (stored as their per-stage demand alone,
//! one packed word a stage),
//! other chains (stored without edge lists up to the index table, with
//! them past it), chains built edge by edge, chain-shaped graphs in
//! another order, fork-joins and random DAGs must all agree with — so the
//! compact forms (DESIGN.md §11) are unobservable but for
//! [`TaskGraph::is_plain`], which must be true exactly for the graphs the
//! model calls plain. A plain chain of up to five stages keeps its words
//! inline and a longer one in a shared block; every constructor and every
//! accessor is checked on both sides of that boundary. Every other graph
//! is one block of 32-bit words, which random builder DAGs exercise with
//! several segments a node, locks (the largest lock id among them),
//! demands past 2^32 µs, stages past 2^32 and edges given in any order.
//! The packed word's limits, the three lenders of a [`DemandView`] and
//! the wire round trip are checked against the model too.

use frap_core::admission::{
    ContributionModel, ExactContributions, MeanContributions, SplitDeadlineContributions,
};
use frap_core::demand::DemandView;
use frap_core::graph::{TaskGraph, TaskSpec};
use frap_core::task::{Importance, LockId, Segment, StageId, SubtaskSpec};
use frap_core::time::TimeDelta;
use frap_core::wire::WireTaskSpec;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// `graph.rs`'s `CHAIN_TABLE`: chains up to this long keep no edge lists.
const TABLE: usize = 1024;

/// `graph.rs`'s `INLINE_WORDS`: plain chains up to this long keep their
/// words inline.
const INLINE: usize = 5;

/// The plain form's limits: a packed word holds a stage below this …
const STAGE_LIMIT: usize = 1 << 8;
/// … and a demand below this many microseconds.
const DEMAND_LIMIT: u64 = 1 << 24;

/// A splitmix64 step: the tests draw one seed and derive the rest.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let z = (*state ^ (*state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^ (z >> 27)
}

/// `n` subtasks on random stages `0..6` (so stages repeat and come in any
/// order), each of 1–3 segments, a third of them critical sections.
fn subtasks(n: usize, seed: &mut u64) -> Vec<SubtaskSpec> {
    (0..n)
        .map(|_| {
            let stage = StageId::new((next(seed) % 6) as usize);
            let segments = (0..1 + next(seed) % 3).map(|_| {
                let duration = TimeDelta::from_micros(1 + next(seed) % 5_000);
                match next(seed) % 3 {
                    0 => Segment::critical(duration, LockId::new((next(seed) % 4) as usize)),
                    _ => Segment::compute(duration),
                }
            });
            SubtaskSpec::with_segments(stage, segments.collect())
        })
        .collect()
}

/// `n` subtasks of the plain form: one lock-free segment each (zero
/// computation included), on strictly ascending stages with random gaps.
fn plain_subtasks(n: usize, seed: &mut u64) -> Vec<SubtaskSpec> {
    let mut stage = (next(seed) % 3) as usize;
    (0..n)
        .map(|_| {
            let sub = SubtaskSpec::new(
                StageId::new(stage),
                TimeDelta::from_micros(next(seed) % 5_000),
            );
            stage += 1 + (next(seed) % 3) as usize;
            sub
        })
        .collect()
}

/// `n` subtasks that take the general form's every field to its range:
/// stages from a few small ones (so they repeat), past 2^32 and
/// `usize::MAX`; one to four segments, durations up to 2^40 µs with one
/// in four past 2^32; a third of them critical sections, on small locks
/// and on the two largest lock ids (the largest is the block's usual
/// lock-free marker).
fn wide_subtasks(n: usize, seed: &mut u64) -> Vec<SubtaskSpec> {
    const STAGES: [usize; 8] = [0, 1, 2, 3, 5, 1 << 33, usize::MAX - 1, usize::MAX];
    const LOCKS: [usize; 4] = [0, 3, u32::MAX as usize - 1, u32::MAX as usize];
    (0..n)
        .map(|_| {
            let stage = StageId::new(STAGES[(next(seed) % 8) as usize]);
            let segments = (0..1 + next(seed) % 4).map(|_| {
                let us = match next(seed) % 4 {
                    0 => (1 << 32) + next(seed) % (1 << 40),
                    _ => next(seed) % 5_000,
                };
                let duration = TimeDelta::from_micros(us);
                match next(seed) % 3 {
                    0 => Segment::critical(duration, LockId::new(LOCKS[(next(seed) % 4) as usize])),
                    _ => Segment::compute(duration),
                }
            });
            SubtaskSpec::with_segments(stage, segments.collect())
        })
        .collect()
}

/// Takes a plain chain's subtasks out of the plain form at one random
/// node: `how` 0 makes its segment a critical section, 1 gives it two
/// segments, 2 repeats its predecessor's stage, 3 swaps stages with its
/// predecessor (a descent). Returns whether anything changed (2 and 3
/// need a predecessor).
fn spoil(subs: &mut [SubtaskSpec], how: u64, seed: &mut u64) -> bool {
    let n = subs.len();
    let i = match how {
        0 | 1 => next(seed) as usize % n,
        _ if n < 2 => return false,
        _ => 1 + next(seed) as usize % (n - 1),
    };
    let c = subs[i].computation();
    match how {
        0 => subs[i].segments = vec![Segment::critical(c, LockId::new(0))].into(),
        1 => {
            let tail = Segment::compute(TimeDelta::from_micros(1));
            subs[i].segments = vec![Segment::compute(c), tail].into();
        }
        2 => subs[i].stage = subs[i - 1].stage,
        _ => {
            let stage = subs[i].stage;
            subs[i].stage = subs[i - 1].stage;
            subs[i - 1].stage = stage;
        }
    }
    true
}

/// Whole-number delays, so every sum below is exact.
fn delays(n: usize, seed: &mut u64) -> Vec<f64> {
    (0..n).map(|_| (1 + next(seed) % 1_000) as f64).collect()
}

/// The reference: subtasks and a precedence matrix, with each node's
/// neighbours read off the matrix once, in ascending order.
struct Model {
    subtasks: Vec<SubtaskSpec>,
    /// `edge[a][b]`: `a` must finish before `b` starts.
    edge: Vec<Vec<bool>>,
    preds: Vec<Vec<usize>>,
    succs: Vec<Vec<usize>>,
}

impl Model {
    fn new(subtasks: Vec<SubtaskSpec>, edges: &[(usize, usize)]) -> Model {
        let n = subtasks.len();
        let mut edge = vec![vec![false; n]; n];
        for &(a, b) in edges {
            edge[a][b] = true;
        }
        let ids = |keep: &dyn Fn(usize) -> bool| (0..n).filter(|&j| keep(j)).collect();
        Model {
            preds: (0..n).map(|i| ids(&|p| edge[p][i])).collect(),
            succs: (0..n).map(|i| ids(&|s| edge[i][s])).collect(),
            subtasks,
            edge,
        }
    }

    fn len(&self) -> usize {
        self.subtasks.len()
    }

    fn preds(&self, i: usize) -> &[usize] {
        &self.preds[i]
    }

    fn succs(&self, i: usize) -> &[usize] {
        &self.succs[i]
    }

    /// Finish time of every node: its delay after its latest predecessor.
    fn finish(&self, delays: &[f64]) -> Vec<f64> {
        fn visit(m: &Model, i: usize, delays: &[f64], memo: &mut [Option<f64>]) -> f64 {
            if let Some(done) = memo[i] {
                return done;
            }
            let start = (m.preds(i).iter())
                .map(|&p| visit(m, p, delays, memo))
                .fold(0.0, f64::max);
            memo[i] = Some(start + delays[i]);
            start + delays[i]
        }
        let mut memo = vec![None; self.len()];
        (0..self.len())
            .map(|i| visit(self, i, delays, &mut memo))
            .collect()
    }

    fn stage_demand(&self) -> BTreeMap<StageId, TimeDelta> {
        let mut demand = BTreeMap::new();
        for sub in &self.subtasks {
            *demand.entry(sub.stage).or_insert(TimeDelta::ZERO) += sub.computation();
        }
        demand
    }

    /// One source and nobody with two neighbours on either side: in an
    /// acyclic graph that is a single path through every node.
    fn is_chain(&self) -> bool {
        let n = self.len();
        (0..n).filter(|&i| self.preds(i).is_empty()).count() == 1
            && (0..n).all(|i| self.preds(i).len() <= 1 && self.succs(i).len() <= 1)
    }

    /// What `TaskGraph::is_plain` must say: the chain `0 -> 1 -> … -> n-1`
    /// of at most `TABLE` subtasks, each one lock-free segment below
    /// `DEMAND_LIMIT`, on strictly ascending stages below `STAGE_LIMIT`.
    fn is_plain(&self) -> bool {
        let n = self.len();
        let index_chain = (0..n).all(|i| self.succs(i).iter().copied().eq(i + 1..n.min(i + 2)));
        let packs = |s: &SubtaskSpec| {
            s.segments.len() == 1
                && s.segments[0].lock.is_none()
                && s.stage.index() < STAGE_LIMIT
                && s.computation().as_micros() < DEMAND_LIMIT
        };
        let ascending = self.subtasks.windows(2).all(|w| w[0].stage < w[1].stage);
        n <= TABLE && index_chain && self.subtasks.iter().all(packs) && ascending
    }

    /// What `Debug` printed when every graph kept its edge lists.
    fn debug(&self, topo: &[usize]) -> String {
        format!(
            "TaskGraph {{ subtasks: {:?}, preds: {:?}, succs: {:?}, topo: {:?} }}",
            self.subtasks, self.preds, self.succs, topo,
        )
    }
}

/// `ids` as indices, ascending.
fn sorted(ids: &[u32]) -> Vec<usize> {
    let mut v = indices(ids);
    v.sort_unstable();
    v
}

fn indices(ids: &[u32]) -> Vec<usize> {
    ids.iter().map(|&i| i as usize).collect()
}

/// Every accessor of `g` against the model.
fn agrees(g: &TaskGraph, m: &Model, seed: &mut u64) -> Result<(), String> {
    let n = m.len();
    let check = |ok: bool, what: &str| {
        if ok {
            Ok(())
        } else {
            Err(format!("{what}: {g:?}"))
        }
    };
    check(g.len() == n && !g.is_empty(), "len")?;
    check(g.is_plain() == m.is_plain(), "is_plain")?;
    check(g.subtasks().eq(m.subtasks.iter().cloned()), "subtasks")?;
    check((0..n).all(|i| g.subtask(i) == m.subtasks[i]), "subtask")?;
    check((0..n).all(|i| g.stage(i) == m.subtasks[i].stage), "stage")?;
    check((0..n).all(|i| sorted(g.preds(i)) == m.preds(i)), "preds")?;
    check((0..n).all(|i| sorted(g.succs(i)) == m.succs(i)), "succs")?;
    let sources: Vec<usize> = (0..n).filter(|&i| m.preds(i).is_empty()).collect();
    let sinks: Vec<usize> = (0..n).filter(|&i| m.succs(i).is_empty()).collect();
    check(g.sources() == sources, "sources")?;
    check(g.sinks() == sinks, "sinks")?;
    check(g.is_chain() == m.is_chain(), "is_chain")?;

    // A permutation in which every edge points forwards.
    let topo = indices(g.topological_order());
    let mut position = vec![usize::MAX; n];
    for (at, &i) in topo.iter().enumerate() {
        position[i] = at;
    }
    check(
        sorted(g.topological_order()) == (0..n).collect::<Vec<_>>(),
        "topo permutes",
    )?;
    let forwards = |a: usize, b: usize| !m.edge[a][b] || position[a] < position[b];
    check((0..n).all(|a| (0..n).all(|b| forwards(a, b))), "topo order")?;

    let demand = m.stage_demand();
    check(g.stage_demand() == demand, "stage_demand")?;
    check(
        g.stage_demands().eq(demand.clone()) && g.stage_demands().len() == demand.len(),
        "stage_demands",
    )?;
    check(
        g.stages_used().into_iter().eq(demand.keys().copied()),
        "stages_used",
    )?;
    let total = m
        .subtasks
        .iter()
        .map(|s| s.computation())
        .sum::<TimeDelta>();
    check(g.total_computation() == total, "total_computation")?;

    let delays = delays(n, seed);
    let finish = m.finish(&delays);
    let longest = finish.iter().copied().fold(0.0, f64::max);
    check(g.longest_path(&delays) == longest, "longest_path")?;
    check(
        g.longest_path_by(|i| delays[i]) == longest,
        "longest_path_by",
    )?;
    // A critical path is a path, source to sink, as long as the longest.
    let path = g.critical_path(&delays);
    check(
        path.windows(2).all(|w| m.edge[w[0]][w[1]]),
        "critical_path edges",
    )?;
    check(
        sources.contains(&path[0]) && sinks.contains(path.last().unwrap()),
        "critical_path ends",
    )?;
    check(
        path.iter().map(|&i| delays[i]).sum::<f64>() == longest,
        "critical_path length",
    )?;

    // Lists of two or more print in insertion order, which the matrix
    // does not keep; a chain has none.
    check(!m.is_chain() || format!("{g:?}") == m.debug(&topo), "Debug")
}

fn build(subtasks: &[SubtaskSpec], edges: &[(usize, usize)]) -> TaskGraph {
    let mut b = TaskGraph::builder();
    for sub in subtasks {
        b.add(sub.clone());
    }
    for &(from, to) in edges {
        b.edge(from, to);
    }
    b.build().expect("acyclic by construction")
}

fn chain_display(subtasks: &[SubtaskSpec], order: &[usize]) -> String {
    let stages: Vec<String> = (order.iter())
        .map(|&i| format!("s{}", subtasks[i].stage.index()))
        .collect();
    stages.join(" -> ")
}

proptest! {
    /// `TaskGraph::chain` and the builder given exactly `i -> i+1`, on
    /// both sides of the index table's end: one graph, one form.
    #[test]
    fn chain_and_explicit_edges_are_one_graph(pick in 0usize..8, small in 1usize..12, seed in proptest::num::u64::ANY) {
        let mut seed = seed;
        // One case in eight sits on the cutover: TABLE - 1, TABLE, TABLE + 1.
        let n = if pick == 0 { TABLE - 1 + small % 3 } else { small };
        let subs = subtasks(n, &mut seed);
        let mut edges: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
        let chain = TaskGraph::chain(subs.clone()).unwrap();
        let model = Model::new(subs.clone(), &edges);
        if let Err(why) = agrees(&chain, &model, &mut seed) {
            prop_assert!(false, "chain of {n}: {why}");
        }
        // The builder sees the edges in any order, some of them twice.
        let extra = next(&mut seed) as usize % n;
        edges.extend(edges.get(extra).copied());
        edges.rotate_left(extra);
        let built = build(&subs, &edges);
        prop_assert_eq!(&built, &chain);
        prop_assert!(chain.is_chain() && built.is_chain());
        prop_assert_eq!(built.topological_order(), chain.topological_order());
        prop_assert_eq!(indices(built.topological_order()), (0..n).collect::<Vec<_>>());
        for i in 0..n {
            prop_assert_eq!(built.preds(i), chain.preds(i));
            prop_assert_eq!(built.succs(i), chain.succs(i));
        }
        prop_assert_eq!(format!("{built:?}"), format!("{chain:?}"));
        let order: Vec<usize> = (0..n).collect();
        prop_assert_eq!(format!("{chain}"), chain_display(&subs, &order));
        prop_assert_eq!(format!("{built}"), format!("{chain}"));
    }

    /// A chain whose edges are not `i -> i+1` is still a chain, in its
    /// own order — and a different graph from the index-order chain.
    #[test]
    fn chain_in_another_order_keeps_its_order(n in 2usize..10, seed in proptest::num::u64::ANY) {
        let mut seed = seed;
        let subs = subtasks(n, &mut seed);
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, next(&mut seed) as usize % (i + 1));
        }
        if order.windows(2).all(|w| w[0] + 1 == w[1]) {
            order.swap(0, 1); // `1 -> 0 -> …`
        }
        let edges: Vec<(usize, usize)> = order.windows(2).map(|w| (w[0], w[1])).collect();
        let g = build(&subs, &edges);
        if let Err(why) = agrees(&g, &Model::new(subs.clone(), &edges), &mut seed) {
            prop_assert!(false, "order {order:?}: {why}");
        }
        prop_assert!(g.is_chain());
        prop_assert_eq!(indices(g.topological_order()), order.clone());
        prop_assert_eq!(format!("{g}"), chain_display(&subs, &order));
        prop_assert_ne!(&g, &TaskGraph::chain(subs).unwrap());
    }

    /// Fork-joins of 0–5 branches.
    #[test]
    fn fork_join_agrees_with_the_model(branches in 0usize..6, seed in proptest::num::u64::ANY) {
        let mut seed = seed;
        let subs = subtasks(branches + 2, &mut seed);
        let tail = branches + 1;
        let edges: Vec<(usize, usize)> = match branches {
            0 => vec![(0, 1)],
            _ => (1..tail).flat_map(|b| [(0, b), (b, tail)]).collect(),
        };
        let g = TaskGraph::fork_join(subs[0].clone(), &subs[1..tail], subs[tail].clone()).unwrap();
        if let Err(why) = agrees(&g, &Model::new(subs.clone(), &edges), &mut seed) {
            prop_assert!(false, "{branches} branches: {why}");
        }
        let stage = |i: usize| format!("s{}", subs[i].stage.index());
        let expected = match branches {
            0 | 1 => chain_display(&subs, &(0..=tail).collect::<Vec<_>>()),
            _ => {
                let middle: Vec<String> = (1..tail).map(stage).collect();
                format!("{} -> {{{}}} -> {}", stage(0), middle.join(" || "), stage(tail))
            }
        };
        prop_assert_eq!(format!("{g}"), expected);
        // It is the graph the builder makes of the same edges, and with at
        // most one branch the chain, in the chain's form.
        prop_assert_eq!(&g, &build(&subs, &edges));
        if branches <= 1 {
            prop_assert_eq!(g, TaskGraph::chain(subs).unwrap());
        }
    }

    /// Random DAGs: each pair `a < b` (in a shuffled labelling) is an
    /// edge with probability one half, one third or one quarter.
    #[test]
    fn random_dag_agrees_with_the_model(n in 1usize..9, density in 2u64..5, seed in proptest::num::u64::ANY) {
        let mut seed = seed;
        let subs = subtasks(n, &mut seed);
        let mut label: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            label.swap(i, next(&mut seed) as usize % (i + 1));
        }
        let mut edges = Vec::new();
        for a in 0..n {
            for b in a + 1..n {
                if next(&mut seed).is_multiple_of(density) {
                    edges.push((label[a], label[b]));
                }
            }
        }
        let g = build(&subs, &edges);
        if let Err(why) = agrees(&g, &Model::new(subs.clone(), &edges), &mut seed) {
            prop_assert!(false, "edges {edges:?}: {why}");
        }

        // Remapping stages keeps the shape and recomputes the demand.
        let shift = |s: StageId| StageId::new((s.index() * 5 + 2) % 7);
        let remapped = g.remap_stages(shift);
        let mut moved = subs;
        for sub in &mut moved {
            sub.stage = shift(sub.stage);
        }
        if let Err(why) = agrees(&remapped, &Model::new(moved.clone(), &edges), &mut seed) {
            prop_assert!(false, "remapped, edges {edges:?}: {why}");
        }
        prop_assert_eq!(remapped.topological_order(), g.topological_order());
        prop_assert_eq!(remapped, build(&moved, &edges));
    }
}

/// `edges` in a random order, with a random few of them repeated.
fn shuffled(edges: &[(usize, usize)], seed: &mut u64) -> Vec<(usize, usize)> {
    let mut out = edges.to_vec();
    for i in (1..out.len()).rev() {
        out.swap(i, next(seed) as usize % (i + 1));
    }
    for _ in 0..next(seed) % 3 {
        if let Some(&edge) = out.get(next(seed) as usize % out.len().max(1)) {
            let at = next(seed) as usize % (out.len() + 1);
            out.insert(at, edge);
        }
    }
    out
}

/// What `PartialEq` must say: the same subtasks, and every list and the
/// topological order the same, in order. `Debug` prints exactly that.
fn same_structure(a: &TaskGraph, b: &TaskGraph) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

proptest! {
    /// Random builder DAGs in the general form's full range — several
    /// segments a node, locks up to the largest id, demands past 2^32 µs,
    /// stages past 2^32 — with their edges given in any order and some
    /// twice: every accessor, `longest_path`, a clone and equality against
    /// the model, and `remap_stages` onto other stages and back.
    #[test]
    fn random_builder_dag_in_the_wide_range(n in 1usize..12, density in 2u64..5, seed in proptest::num::u64::ANY) {
        let mut seed = seed;
        let subs = wide_subtasks(n, &mut seed);
        let mut label: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            label.swap(i, next(&mut seed) as usize % (i + 1));
        }
        let mut edges = Vec::new();
        for a in 0..n {
            for b in a + 1..n {
                if next(&mut seed).is_multiple_of(density) {
                    edges.push((label[a], label[b]));
                }
            }
        }
        let given = shuffled(&edges, &mut seed);
        let model = Model::new(subs.clone(), &given);
        let g = build(&subs, &given);
        if let Err(why) = agrees(&g, &model, &mut seed) {
            prop_assert!(false, "edges {given:?}: {why}");
        }
        let copy = g.clone();
        prop_assert_eq!(&copy, &g);
        if let Err(why) = agrees(&copy, &model, &mut seed) {
            prop_assert!(false, "clone, edges {given:?}: {why}");
        }

        // Equality is structural: the same edges in another order are the
        // same graph exactly when every list comes out in the same order.
        let reordered = build(&subs, &shuffled(&edges, &mut seed));
        prop_assert_eq!(reordered == g, same_structure(&reordered, &g));
        if let Err(why) = agrees(&reordered, &model, &mut seed) {
            prop_assert!(false, "reordered, edges {edges:?}: {why}");
        }
        // One segment's lock added, dropped or moved is another graph.
        let mut relocked = subs.clone();
        let at = next(&mut seed) as usize % n;
        let mut segments = relocked[at].segments.to_vec();
        segments[0].lock = match segments[0].lock {
            Some(lock) if lock.index() == u32::MAX as usize => None,
            Some(_) => Some(LockId::new(u32::MAX as usize)),
            None => Some(LockId::new(u32::MAX as usize)),
        };
        relocked[at].segments = segments.into();
        let other = build(&relocked, &given);
        prop_assert_ne!(&other, &g);
        if let Err(why) = agrees(&other, &Model::new(relocked, &given), &mut seed) {
            prop_assert!(false, "relocked {at}, edges {given:?}: {why}");
        }

        // A remap onto other stages and back: the shape kept, the demand
        // table rebuilt, and the round trip the graph it started from.
        let there = |s: StageId| StageId::new(s.index().rotate_left(7) ^ 3);
        let back = |s: StageId| StageId::new((s.index() ^ 3).rotate_right(7));
        let mut moved = subs.clone();
        for sub in &mut moved {
            sub.stage = there(sub.stage);
        }
        let remapped = g.remap_stages(there);
        if let Err(why) = agrees(&remapped, &Model::new(moved.clone(), &given), &mut seed) {
            prop_assert!(false, "remapped, edges {given:?}: {why}");
        }
        prop_assert_eq!(&remapped, &build(&moved, &given));
        prop_assert_eq!(remapped.topological_order(), g.topological_order());
        prop_assert_eq!(&remapped.remap_stages(back), &g);
        // A remap that merges stages sums their demand.
        let folded = |s: StageId| StageId::new(s.index() % 3);
        let mut merged = subs;
        for sub in &mut merged {
            sub.stage = folded(sub.stage);
        }
        if let Err(why) = agrees(&g.remap_stages(folded), &Model::new(merged, &given), &mut seed) {
            prop_assert!(false, "folded, edges {given:?}: {why}");
        }
    }
}

proptest! {
    /// The plain form is chosen exactly for plain chains — the same by
    /// `chain`, `chain_of` and the builder given `i -> i+1`, on both sides
    /// of the word's stage limit and of the index table's end — and a
    /// lock segment, a two-segment node, a repeated or a descending stage
    /// keeps the general form.
    #[test]
    fn plain_form_is_chosen_exactly_for_plain_chains(pick in 0usize..8, small in 1usize..12, how in 0u64..5, seed in proptest::num::u64::ANY) {
        let mut seed = seed;
        // One case in eight sits on the cutover, one in eight has its
        // last stage near 255 (stages climb by two on average).
        let n = match pick {
            0 => TABLE - 1 + small % 3,
            1 => 120 + small,
            _ => small,
        };
        let mut subs = plain_subtasks(n, &mut seed);
        let spoiled = how < 4 && spoil(&mut subs, how, &mut seed);
        let edges: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
        let model = Model::new(subs.clone(), &edges);
        let stages_fit = subs.iter().all(|s| s.stage.index() < STAGE_LIMIT);
        prop_assert_eq!(model.is_plain(), n <= TABLE && stages_fit && !spoiled);

        let chain = TaskGraph::chain(subs.clone()).unwrap();
        if let Err(why) = agrees(&chain, &model, &mut seed) {
            prop_assert!(false, "chain of {n}, spoiled by {how}: {why}");
        }
        prop_assert_eq!(&build(&subs, &edges), &chain);
        if how >= 2 {
            // Still one lock-free segment a node: `chain_of` covers it.
            let demands: Vec<(StageId, TimeDelta)> =
                subs.iter().map(|s| (s.stage, s.computation())).collect();
            prop_assert_eq!(&TaskGraph::chain_of(&demands).unwrap(), &chain);
        }
    }

    /// Every way of building a pipeline — `chain`, `chain_of`,
    /// `pipeline`, `TaskSpec::pipeline`, the builder given `i -> i+1` in
    /// any order, the wire form's `to_spec`, a clone, an identity remap
    /// and a fork-join without branches — yields the one plain graph, on
    /// both sides of the inline boundary (five words), and a remap onto
    /// every `stride`-th stage yields the chain on those stages.
    #[test]
    fn every_pipeline_constructor_yields_the_plain_form(n in 1usize..12, stride in 1usize..4, seed in proptest::num::u64::ANY) {
        let mut seed = seed;
        let cs: Vec<TimeDelta> = (0..n).map(|_| TimeDelta::from_micros(next(&mut seed) % 5_000)).collect();
        let subs: Vec<SubtaskSpec> = (0..n).map(|j| SubtaskSpec::new(StageId::new(j), cs[j])).collect();
        let demands: Vec<(StageId, TimeDelta)> = (0..n).map(|j| (StageId::new(j), cs[j])).collect();
        let chain_edges: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
        let model = Model::new(subs.clone(), &chain_edges);
        let mut edges = chain_edges.clone();
        edges.rotate_left(next(&mut seed) as usize % n);
        edges.extend(edges.first().copied());

        let chain = TaskGraph::chain(subs.clone()).unwrap();
        let spec = TaskSpec::pipeline(TimeDelta::from_secs(1), &cs).unwrap();
        let wire = WireTaskSpec::from_spec(&spec).expect("a pipeline");
        let built = [
            TaskGraph::chain_of(&demands).unwrap(),
            TaskGraph::pipeline(cs.iter().copied()).unwrap(),
            spec.graph.clone(),
            build(&subs, &edges),
            wire.to_spec().unwrap().graph,
            chain.clone(),
            chain.remap_stages(|s| s),
        ];
        for (k, g) in built.iter().enumerate() {
            prop_assert!(g.is_plain(), "constructor {}", k);
            prop_assert_eq!(g, &chain, "constructor {}", k);
            if let Err(why) = agrees(g, &model, &mut seed) {
                prop_assert!(false, "constructor {k}: {why}");
            }
        }
        let strided: Vec<SubtaskSpec> =
            (0..n).map(|j| SubtaskSpec::new(StageId::new(j * stride), cs[j])).collect();
        let remapped = chain.remap_stages(|s| StageId::new(s.index() * stride));
        prop_assert!(remapped.is_plain());
        prop_assert_eq!(&remapped, &TaskGraph::chain(strided.clone()).unwrap());
        if let Err(why) = agrees(&remapped, &Model::new(strided, &chain_edges), &mut seed) {
            prop_assert!(false, "stride {stride}: {why}");
        }
        if n == 2 {
            let fork_join = TaskGraph::fork_join(subs[0].clone(), &[], subs[1].clone()).unwrap();
            prop_assert_eq!(&fork_join, &chain);
        }
        prop_assert_eq!(chain.stage_demands().collect::<Vec<_>>(), demands);
    }
}

/// A remap decides the form afresh: one that breaks the ascending order
/// (`[5, 1, 5]`) keeps the general form, one that keeps or restores it
/// gives the plain form.
#[test]
fn remap_stages_chooses_the_form_afresh() {
    let ms = TimeDelta::from_millis;
    let on = |stages: &[usize]| -> Vec<SubtaskSpec> {
        (stages.iter().enumerate())
            .map(|(j, &s)| SubtaskSpec::new(StageId::new(s), ms(j as u64 + 1)))
            .collect()
    };
    let remap = |to: [usize; 3]| move |s: StageId| StageId::new(to[s.index()]);
    let plain = TaskGraph::chain(on(&[0, 1, 2])).unwrap();
    assert!(plain.is_plain());

    let broken = plain.remap_stages(remap([5, 1, 5]));
    assert!(!broken.is_plain() && broken.is_chain());
    assert_eq!(broken, TaskGraph::chain(on(&[5, 1, 5])).unwrap());
    let mut seed = 3;
    let edges = [(0, 1), (1, 2)];
    agrees(&broken, &Model::new(on(&[5, 1, 5]), &edges), &mut seed).unwrap();
    assert_eq!(
        broken.stage_demands().collect::<Vec<_>>(),
        [(StageId::new(1), ms(2)), (StageId::new(5), ms(4))]
    );

    let kept = plain.remap_stages(remap([3, 4, 9]));
    assert!(kept.is_plain());
    assert_eq!(kept, TaskGraph::chain(on(&[3, 4, 9])).unwrap());

    let descending = TaskGraph::chain(on(&[2, 1, 0])).unwrap();
    assert!(!descending.is_plain());
    let restored = descending.remap_stages(|s| StageId::new(9 - s.index()));
    assert!(restored.is_plain());
    assert_eq!(restored, TaskGraph::chain(on(&[7, 8, 9])).unwrap());

    // The same on both sides of the inline boundary: five inline words
    // and six shared ones leave the plain form when a remap reverses
    // them or folds the last stage onto the one before, and return to it
    // when a remap sorts them again.
    for n in [INLINE, INLINE + 1] {
        let stages: Vec<usize> = (0..n).collect();
        let edges: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
        let plain = TaskGraph::chain(on(&stages)).unwrap();
        assert!(plain.is_plain(), "{n} stages");
        let folds: [&dyn Fn(usize) -> usize; 2] = [&|s| 9 - s, &|s| s.min(n - 2)];
        for fold in folds {
            let folded: Vec<usize> = stages.iter().map(|&s| fold(s)).collect();
            let broken = plain.remap_stages(|s| StageId::new(fold(s.index())));
            assert!(!broken.is_plain() && broken.is_chain(), "{n} stages");
            assert_eq!(broken, TaskGraph::chain(on(&folded)).unwrap());
            agrees(&broken, &Model::new(on(&folded), &edges), &mut seed).unwrap();
        }
        let reversed = plain.remap_stages(|s| StageId::new(9 - s.index()));
        let restored = reversed.remap_stages(|s| StageId::new(20 - s.index()));
        assert!(restored.is_plain(), "{n} stages");
        let sorted: Vec<usize> = (11..11 + n).collect();
        assert_eq!(restored, TaskGraph::chain(on(&sorted)).unwrap());
    }
}

/// Remapping a chain's stages leaves it the edge-less chain it was.
#[test]
fn remapped_chain_is_the_chain_of_the_remapped_subtasks() {
    let mut seed = 17;
    let subs = subtasks(5, &mut seed);
    let shift = |s: StageId| StageId::new(s.index() + 3);
    let mut moved = subs.clone();
    for sub in &mut moved {
        sub.stage = shift(sub.stage);
    }
    let remapped = TaskGraph::chain(subs).unwrap().remap_stages(shift);
    assert_eq!(remapped, TaskGraph::chain(moved).unwrap());
    assert!(remapped.is_chain());
}

/// The packed word's two limits: a stage of 256 or a demand of 2^24 µs
/// takes the general form and one less stays plain, by every
/// constructor, and every accessor agrees with the model on both sides —
/// for chains of three to six stages, either side of the inline boundary,
/// with the demand under test second or last. A demand of 2^32 µs or more
/// does not fit a word even truncated, and comes back exact from the wire.
#[test]
fn the_packed_limits_pick_the_form() {
    for len in [3, INLINE - 1, INLINE, INLINE + 1] {
        for at in [1, len - 1] {
            packed_limits_pick_the_form(len, at);
        }
    }
}

/// [`the_packed_limits_pick_the_form`] for chains of `len` stages:
/// `3, 4, …` and then the stage under test, with the demand under test on
/// subtask `at`.
fn packed_limits_pick_the_form(len: usize, at: usize) {
    let us = TimeDelta::from_micros;
    let edges: Vec<(usize, usize)> = (1..len).map(|i| (i - 1, i)).collect();
    let mut seed = 5;
    // (last stage, demand under test): plain only when both are in range.
    // The last three demands keep a small value in the word's low bits.
    let cases = [
        (STAGE_LIMIT - 1, DEMAND_LIMIT - 1),
        (STAGE_LIMIT, 7),
        (9, DEMAND_LIMIT),
        (STAGE_LIMIT, DEMAND_LIMIT),
        (9, (1 << 32) + 7),
        (STAGE_LIMIT - 1, (1 << 40) | 3),
        (usize::MAX, (1 << 63) + 1),
    ];
    for (last, demand) in cases {
        let what = format!("{len} stages, stage {last}, demand {demand} on subtask {at}");
        let plain = last < STAGE_LIMIT && demand < DEMAND_LIMIT;
        let stages: Vec<usize> = (3..len + 2).chain([last]).collect();
        let demand_on = |j: usize| us(if j == at { demand } else { 11 + j as u64 });
        let demands: Vec<(StageId, TimeDelta)> = (stages.iter().enumerate())
            .map(|(j, &s)| (StageId::new(s), demand_on(j)))
            .collect();
        let subs: Vec<SubtaskSpec> = (demands.iter())
            .map(|&(stage, c)| SubtaskSpec::new(stage, c))
            .collect();
        let model = Model::new(subs.clone(), &edges);
        assert_eq!(model.is_plain(), plain, "{what}");
        let on_index = TaskGraph::pipeline(demands.iter().map(|&(_, c)| c)).unwrap();
        let graphs = [
            TaskGraph::chain(subs.clone()).unwrap(),
            TaskGraph::chain_of(&demands).unwrap(),
            build(&subs, &edges),
            on_index.remap_stages(|s| StageId::new(stages[s.index()])),
        ];
        for (k, g) in graphs.iter().enumerate() {
            agrees(g, &model, &mut seed)
                .unwrap_or_else(|why| panic!("{what}, constructor {k}: {why}"));
            assert_eq!(g, &graphs[0], "{what}, constructor {k}");
        }
        // On stages `0..len` only the demand decides, and the wire form
        // comes back as the same graph, every demand exact.
        assert_eq!(on_index.is_plain(), demand < DEMAND_LIMIT, "{what}");
        let on_index_subs: Vec<SubtaskSpec> = (demands.iter().enumerate())
            .map(|(j, &(_, c))| SubtaskSpec::new(StageId::new(j), c))
            .collect();
        let on_index_model = Model::new(on_index_subs, &edges);
        agrees(&on_index, &on_index_model, &mut seed).unwrap();
        let spec = TaskSpec::new(us(1_000), on_index);
        let wire = WireTaskSpec::from_spec(&spec).expect("a pipeline");
        let wire_us: Vec<u64> = demands.iter().map(|&(_, c)| c.as_micros()).collect();
        assert_eq!(wire.stage_demands_us, wire_us, "{what}");
        let expanded = wire.to_spec().unwrap();
        agrees(&expanded.graph, &on_index_model, &mut seed)
            .unwrap_or_else(|why| panic!("{what}, to_spec: {why}"));
        assert_eq!(expanded, spec, "{what}");
    }
}

/// One `u64` a stage: charged units, or a contribution's `f64` bits.
type StageBits = Vec<(StageId, u64)>;

/// The units `model` charges for `task`, and its contributions.
fn charges(model: &dyn ContributionModel, task: DemandView<'_>) -> (StageBits, StageBits) {
    let mut units = Vec::new();
    model.units_into(&task, &mut units);
    let mut contributions = Vec::new();
    let bits = |stage, c| (stage, model.contribution(&task, stage, c).to_bits());
    task.map_into(&mut contributions, bits);
    (units, contributions)
}

proptest! {
    /// One chain lent three ways — its packed `TaskSpec` (inline words up
    /// to five stages, shared past that), that spec's `WireTaskSpec`, and
    /// the general form of a twin whose segments hold a lock (the same
    /// demands on the same stages) — is charged bit-identical units and
    /// contributions by every model, and `contributions_into` agrees for
    /// both specs.
    #[test]
    fn one_chain_lent_three_ways_charges_the_same(
        cs in proptest::collection::vec((0u8..8, 0u64..50_000), 1..=8),
        deadline_us in 0u64..2_000_000,
        means_us in proptest::collection::vec(0u64..40_000, 0..=8),
    ) {
        // One demand in eight sits just under the packed limit.
        let cs: Vec<TimeDelta> = (cs.into_iter())
            .map(|(roll, us)| TimeDelta::from_micros(if roll == 0 { DEMAND_LIMIT - 1 - us } else { us }))
            .collect();
        let deadline = TimeDelta::from_micros(deadline_us);
        let spec = TaskSpec::pipeline(deadline, &cs).unwrap().with_importance(Importance::new(2));
        prop_assert!(spec.graph.is_plain());
        let wire = WireTaskSpec::from_spec(&spec).expect("a pipeline");
        let locked = |(j, &c): (usize, &TimeDelta)| {
            SubtaskSpec::with_segments(StageId::new(j), vec![Segment::critical(c, LockId::new(0))])
        };
        let twin = TaskGraph::chain(cs.iter().enumerate().map(locked).collect()).unwrap();
        prop_assert!(!twin.is_plain());
        let twin = TaskSpec::new(deadline, twin).with_importance(Importance::new(2));
        let means = means_us.into_iter().map(TimeDelta::from_micros).collect();
        let models: [&dyn ContributionModel; 3] =
            [&ExactContributions, &MeanContributions::new(means), &SplitDeadlineContributions];
        for model in models {
            let packed = charges(model, (&spec).into());
            prop_assert_eq!(&charges(model, (&wire).into()), &packed, "{:?}, wire-lent", model);
            prop_assert_eq!(&charges(model, (&twin).into()), &packed, "{:?}, general form", model);
            let (mut by_spec, mut by_twin) = (Vec::new(), Vec::new());
            model.contributions_into(&spec, &mut by_spec);
            model.contributions_into(&twin, &mut by_twin);
            let bits = |v: Vec<(StageId, f64)>| v.into_iter().map(|(s, c)| (s, c.to_bits())).collect::<Vec<_>>();
            prop_assert_eq!(&bits(by_spec), &packed.1);
            prop_assert_eq!(&bits(by_twin), &packed.1);
        }
    }

    /// `contribution_at` (a binary search of either form) is the linear
    /// scan of the model's per-stage demand, at every stage used, between
    /// them, past them and past the packed limit.
    #[test]
    fn contribution_at_is_a_linear_scan(
        n in 1usize..10,
        how in 0u64..6,
        deadline_us in 0u64..100_000,
        seed in proptest::num::u64::ANY,
    ) {
        let mut seed = seed;
        let mut subs = if how == 5 { subtasks(n, &mut seed) } else { plain_subtasks(n, &mut seed) };
        if how < 4 {
            spoil(&mut subs, how, &mut seed);
        }
        let edges: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
        let model = Model::new(subs.clone(), &edges);
        let spec = TaskSpec::new(TimeDelta::from_micros(deadline_us), build(&subs, &edges));
        let demand = model.stage_demand();
        let probes = (0..40).chain([STAGE_LIMIT - 1, STAGE_LIMIT, usize::MAX]);
        for stage in probes.map(StageId::new) {
            let scan = (demand.iter())
                .find(|&(&s, _)| s == stage)
                .map_or(0.0, |(_, c)| c.ratio(spec.deadline));
            prop_assert_eq!(spec.contribution_at(stage).to_bits(), scan.to_bits(), "stage {}", stage);
        }
    }
}

/// The wire form round-trips a plain chain at one stage and at the 256
/// a word can name, and the general chain one past that, at the index
/// table's 1024 and one past it.
#[test]
fn wire_round_trips_at_one_and_1024_stages() {
    for n in [1, STAGE_LIMIT, STAGE_LIMIT + 1, TABLE, TABLE + 1] {
        let mut seed = n as u64;
        let us: Vec<u64> = (0..n).map(|_| next(&mut seed) % DEMAND_LIMIT).collect();
        let cs: Vec<TimeDelta> = us.iter().map(|&c| TimeDelta::from_micros(c)).collect();
        let spec = TaskSpec::pipeline(TimeDelta::from_secs(1), &cs)
            .unwrap()
            .with_importance(Importance::new(7));
        assert_eq!(spec.graph.is_plain(), n <= STAGE_LIMIT, "{n} stages");
        let wire = WireTaskSpec::from_spec(&spec).expect("a pipeline");
        assert_eq!(wire.stage_demands_us, us);
        assert_eq!((wire.deadline_us, wire.importance), (1_000_000, 7));
        assert_eq!(wire.to_spec().unwrap(), spec, "{n} stages");
    }
}
