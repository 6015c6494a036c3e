//! A compact, transport-friendly form of [`TaskSpec`].
//!
//! Networked admission (the `frap-gateway` crate) must ship a task's
//! admission-relevant shape across a socket without serializing the full
//! [`TaskGraph`]. For the paper's pipeline model
//! that shape is three integers wide: the relative end-to-end deadline,
//! the per-stage computation demands (stage `j`'s subtask runs `C_ij`
//! microseconds), and the semantic importance used by overload shedding.
//! [`WireTaskSpec`] is exactly that triple, with lossless conversions to
//! and from pipeline-shaped [`TaskSpec`]s.
//!
//! The type lives in `frap-core` (rather than the gateway) so that any
//! transport — or a future on-disk trace format — agrees on one canonical
//! compact encoding of "a pipeline task".
//!
//! A receiver that only has to *decide* on the task does not expand it:
//! [`DemandView`](crate::demand::DemandView) borrows the three fields as
//! they are (`DemandView::from(&wire)`, or `DemandView::pipeline` over a
//! decode arena) and charges, to the unit, what the expanded
//! [`TaskSpec`] would. [`WireTaskSpec::to_spec`] is for receivers that
//! go on to *run* the task.
//!
//! # Examples
//!
//! ```
//! use frap_core::graph::TaskSpec;
//! use frap_core::time::TimeDelta;
//! use frap_core::wire::WireTaskSpec;
//!
//! let ms = TimeDelta::from_millis;
//! let spec = TaskSpec::pipeline(ms(100), &[ms(5), ms(10)])?;
//! let wire = WireTaskSpec::from_spec(&spec).expect("pipelines convert");
//! assert_eq!(wire.deadline_us, 100_000);
//! assert_eq!(wire.stage_demands_us, vec![5_000, 10_000]);
//! assert_eq!(wire.to_spec()?, spec);
//! # Ok::<(), frap_core::error::GraphError>(())
//! ```

use crate::error::GraphError;
use crate::graph::{TaskGraph, TaskSpec};
use crate::task::Importance;
use crate::time::TimeDelta;

/// A pipeline task in wire form: everything the admission test needs,
/// nothing a transport cannot carry as plain little-endian integers.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WireTaskSpec {
    /// Relative end-to-end deadline `D_i`, in microseconds.
    pub deadline_us: u64,
    /// Per-stage computation demand `C_ij` in microseconds; entry `j` is
    /// the demand on stage `j`, and the pipeline visits stages `0..n` in
    /// order.
    pub stage_demands_us: Vec<u64>,
    /// Raw importance level (higher = more important; shed last).
    pub importance: u32,
}

impl WireTaskSpec {
    /// Builds the wire form of a stage-ordered pipeline task.
    pub fn new(deadline: TimeDelta, stage_demands: &[TimeDelta], importance: Importance) -> Self {
        WireTaskSpec {
            deadline_us: deadline.as_micros(),
            stage_demands_us: stage_demands.iter().map(|d| d.as_micros()).collect(),
            importance: importance.level(),
        }
    }

    /// Compresses `spec` into wire form.
    ///
    /// Returns `None` unless `spec` is pipeline-shaped the way
    /// [`TaskSpec::pipeline`] builds it: a chain whose `k`-th subtask runs
    /// on stage `k`. Arbitrary DAGs and stage-reordered chains have no
    /// compact wire form and must stay in-process.
    pub fn from_spec(spec: &TaskSpec) -> Option<WireTaskSpec> {
        let graph = &spec.graph;
        if !graph.is_chain() || (0..graph.len()).any(|k| graph.stage(k).index() != k) {
            return None;
        }
        // Subtask `k` alone runs on stage `k`: the per-stage demand is the
        // per-subtask computation, in stage order — for a plain chain, its
        // words less their stage bits.
        let demands = graph.stage_demands().map(|(_, c)| c.as_micros());
        Some(WireTaskSpec {
            deadline_us: spec.deadline.as_micros(),
            stage_demands_us: demands.collect(),
            importance: spec.importance.level(),
        })
    }

    /// Expands the wire form back into a full [`TaskSpec`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Empty`] when `stage_demands_us` is empty
    /// (a task must visit at least one stage).
    pub fn to_spec(&self) -> Result<TaskSpec, GraphError> {
        let demands = self.stage_demands_us.iter();
        let graph = TaskGraph::pipeline(demands.map(|&us| TimeDelta::from_micros(us)))?;
        Ok(
            TaskSpec::new(TimeDelta::from_micros(self.deadline_us), graph)
                .with_importance(Importance::new(self.importance)),
        )
    }

    /// Number of pipeline stages the task visits.
    pub fn stages(&self) -> usize {
        self.stage_demands_us.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{StageId, SubtaskSpec};

    fn ms(v: u64) -> TimeDelta {
        TimeDelta::from_millis(v)
    }

    #[test]
    fn round_trips_through_task_spec() {
        let wire = WireTaskSpec {
            deadline_us: 250_000,
            stage_demands_us: vec![1_000, 0, 7],
            importance: 42,
        };
        let spec = wire.to_spec().unwrap();
        assert_eq!(spec.deadline, TimeDelta::from_micros(250_000));
        assert_eq!(spec.importance, Importance::new(42));
        assert_eq!(WireTaskSpec::from_spec(&spec), Some(wire));
    }

    #[test]
    fn constructor_matches_pipeline() {
        let wire = WireTaskSpec::new(ms(100), &[ms(5), ms(10)], Importance::CRITICAL);
        let via_spec =
            WireTaskSpec::from_spec(&wire.to_spec().unwrap()).expect("pipeline converts");
        assert_eq!(wire, via_spec);
        assert_eq!(wire.stages(), 2);
    }

    #[test]
    fn empty_demands_error() {
        let wire = WireTaskSpec {
            deadline_us: 1,
            stage_demands_us: vec![],
            importance: 0,
        };
        assert!(wire.to_spec().is_err());
    }

    #[test]
    fn non_pipeline_shapes_have_no_wire_form() {
        let sub = |s: usize| SubtaskSpec::new(StageId::new(s), ms(1));
        // A fork-join DAG is not a chain.
        let dag = TaskGraph::fork_join(sub(0), &[sub(1), sub(2)], sub(3)).unwrap();
        assert_eq!(WireTaskSpec::from_spec(&TaskSpec::new(ms(10), dag)), None);
        // A chain that visits stages out of order is not stage-ordered.
        let chain = TaskGraph::chain(vec![sub(1), sub(0)]).unwrap();
        assert_eq!(WireTaskSpec::from_spec(&TaskSpec::new(ms(10), chain)), None);
    }
}
