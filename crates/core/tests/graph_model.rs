//! One model for every [`TaskGraph`] accessor: a naive adjacency-matrix
//! reference that plain chains (stored as their per-stage demand alone),
//! other chains (stored without edge lists up to the index table, with
//! them past it), chains built edge by edge, chain-shaped graphs in
//! another order, fork-joins and random DAGs must all agree with — so the
//! compact forms (DESIGN.md §11) are unobservable but for
//! [`TaskGraph::is_plain`], which must be true exactly for the graphs the
//! model calls plain.

use frap_core::graph::{TaskGraph, TaskSpec};
use frap_core::task::{LockId, Segment, StageId, SubtaskSpec};
use frap_core::time::TimeDelta;
use frap_core::wire::WireTaskSpec;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// `graph.rs`'s `CHAIN_TABLE`: chains up to this long keep no edge lists.
const TABLE: usize = 1024;

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
    /// of at most `TABLE` subtasks, each one lock-free segment, on
    /// strictly ascending stages.
    fn is_plain(&self) -> bool {
        let n = self.len();
        let index_chain = (0..n).all(|i| self.succs(i).iter().copied().eq(i + 1..n.min(i + 2)));
        let lock_free = |s: &SubtaskSpec| s.segments.len() == 1 && s.segments[0].lock.is_none();
        let ascending = self.subtasks.windows(2).all(|w| w[0].stage < w[1].stage);
        n <= TABLE && index_chain && self.subtasks.iter().all(lock_free) && ascending
    }

    /// What `Debug` printed when every graph kept its edge lists.
    fn debug(&self, topo: &[usize]) -> String {
        format!(
            "TaskGraph {{ subtasks: {:?}, preds: {:?}, succs: {:?}, topo: {:?} }}",
            self.subtasks, self.preds, self.succs, topo,
        )
    }
}

fn sorted(ids: &[usize]) -> Vec<usize> {
    let mut v = ids.to_vec();
    v.sort_unstable();
    v
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
    let topo = g.topological_order();
    let mut position = vec![usize::MAX; n];
    for (at, &i) in topo.iter().enumerate() {
        position[i] = at;
    }
    check(sorted(topo) == (0..n).collect::<Vec<_>>(), "topo permutes")?;
    let forwards = |a: usize, b: usize| !m.edge[a][b] || position[a] < position[b];
    check((0..n).all(|a| (0..n).all(|b| forwards(a, b))), "topo order")?;

    let demand = m.stage_demand();
    check(g.stage_demand() == demand, "stage_demand")?;
    check(
        g.stage_demands().iter().copied().eq(demand.clone()),
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
    check(!m.is_chain() || format!("{g:?}") == m.debug(topo), "Debug")
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
        prop_assert_eq!(built.topological_order(), &(0..n).collect::<Vec<_>>()[..]);
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
        prop_assert_eq!(g.topological_order(), &order[..]);
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
        let g = TaskGraph::fork_join(subs[0].clone(), subs[1..tail].to_vec(), subs[tail].clone()).unwrap();
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
        // With at most one branch it is the chain, in the chain's form.
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

proptest! {
    /// The plain form is chosen exactly for plain chains — the same by
    /// `chain`, `chain_of` and the builder given `i -> i+1`, on both sides
    /// of the index table's end — and a lock segment, a two-segment node,
    /// a repeated or a descending stage keeps the general form.
    #[test]
    fn plain_form_is_chosen_exactly_for_plain_chains(pick in 0usize..8, small in 1usize..12, how in 0u64..5, seed in proptest::num::u64::ANY) {
        let mut seed = seed;
        let n = if pick == 0 { TABLE - 1 + small % 3 } else { small };
        let mut subs = plain_subtasks(n, &mut seed);
        let spoiled = how < 4 && spoil(&mut subs, how, &mut seed);
        let edges: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
        let model = Model::new(subs.clone(), &edges);
        prop_assert_eq!(model.is_plain(), n <= TABLE && !spoiled);

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
    /// any order, the wire form's `to_spec`, an identity remap and a
    /// fork-join without branches — yields the one plain graph.
    #[test]
    fn every_pipeline_constructor_yields_the_plain_form(n in 1usize..12, seed in proptest::num::u64::ANY) {
        let mut seed = seed;
        let cs: Vec<TimeDelta> = (0..n).map(|_| TimeDelta::from_micros(next(&mut seed) % 5_000)).collect();
        let subs: Vec<SubtaskSpec> = (0..n).map(|j| SubtaskSpec::new(StageId::new(j), cs[j])).collect();
        let demands: Vec<(StageId, TimeDelta)> = (0..n).map(|j| (StageId::new(j), cs[j])).collect();
        let mut edges: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
        let model = Model::new(subs.clone(), &edges);
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
            chain.remap_stages(|s| s),
        ];
        for (k, g) in built.iter().enumerate() {
            prop_assert!(g.is_plain(), "constructor {}", k);
            prop_assert_eq!(g, &chain, "constructor {}", k);
            if let Err(why) = agrees(g, &model, &mut seed) {
                prop_assert!(false, "constructor {k}: {why}");
            }
        }
        if n == 2 {
            let fork_join = TaskGraph::fork_join(subs[0].clone(), vec![], subs[1].clone()).unwrap();
            prop_assert_eq!(&fork_join, &chain);
        }
        prop_assert_eq!(chain.stage_demands(), &demands[..]);
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
        broken.stage_demands(),
        &[(StageId::new(1), ms(2)), (StageId::new(5), ms(4))]
    );

    let kept = plain.remap_stages(remap([3, 4, 9]));
    assert!(kept.is_plain());
    assert_eq!(kept, TaskGraph::chain(on(&[3, 4, 9])).unwrap());

    let descending = TaskGraph::chain(on(&[2, 1, 0])).unwrap();
    assert!(!descending.is_plain());
    let restored = descending.remap_stages(|s| StageId::new(9 - s.index()));
    assert!(restored.is_plain());
    assert_eq!(restored, TaskGraph::chain(on(&[7, 8, 9])).unwrap());
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
