//! The multi-dimensional feasible region (Section 3).
//!
//! The paper's first contribution: a surface in the per-stage synthetic
//! utilization space `(U_1, …, U_N)` such that **all end-to-end deadlines
//! are met** while the system stays inside it. For a pipeline under a
//! fixed-priority policy with urgency-inversion parameter `α` and per-stage
//! blocking factors `β_j` (Equations 13, 12, 15):
//!
//! ```text
//! Σ_j  U_j (1 − U_j/2) / (1 − U_j)   ≤   α (1 − Σ_j β_j)
//! ```
//!
//! For an arbitrary DAG task graph (Theorem 2), the left-hand side becomes
//! the end-to-end delay expression `d(·)` — the longest path through
//! per-subtask terms `f(U_kj) + β_kj` — compared against `α`:
//!
//! ```text
//! d( f(U_k1) + β_k1, …, f(U_kM) + β_kM )   ≤   α
//! ```
//!
//! [`FeasibleRegion`] evaluates both forms and validates its input;
//! [`RegionTest`] is the trait the admission controllers consume. Each form
//! has one decision path behind it: [`FeasibleRegion`]'s test is its
//! [`RegionKernel::feasible`], one exact sum at every depth, and
//! [`ShapeRegion`] is the one graph-form test, for one shape or for a
//! workload that must stay inside several shapes' regions.

use crate::alpha::Alpha;
use crate::delay::{stage_delay_factor, stage_delay_factor_inverse};
use crate::error::RegionError;
use crate::graph::TaskGraph;
use crate::kernel::RegionKernel;

/// A feasible region for an `N`-stage system: the set of synthetic
/// utilization vectors under which every admitted task meets its
/// end-to-end deadline.
///
/// # Examples
///
/// ```
/// use frap_core::region::FeasibleRegion;
///
/// // Two-stage pipeline, deadline-monotonic scheduling.
/// let region = FeasibleRegion::deadline_monotonic(2);
/// assert!(region.contains(&[0.3, 0.3])?);   // comfortably inside
/// assert!(!region.contains(&[0.55, 0.55])?); // f(0.55)·2 ≈ 1.77 > 1
/// # Ok::<(), frap_core::error::RegionError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FeasibleRegion {
    alpha: Alpha,
    blocking: Vec<f64>,
    /// The stage count and `α (1 − Σβ)`, built once here (and again by
    /// [`FeasibleRegion::with_blocking`]) so the per-decision hot path
    /// ([`RegionTest::feasible`]) neither re-sums the blocking vector nor
    /// re-checks the budget.
    kernel: RegionKernel,
}

fn pipeline_kernel(alpha: Alpha, blocking: &[f64]) -> RegionKernel {
    let beta_sum: f64 = blocking.iter().sum();
    RegionKernel::new(blocking.len(), (alpha.value() * (1.0 - beta_sum)).max(0.0))
}

impl FeasibleRegion {
    /// The region for deadline-monotonic scheduling of independent tasks
    /// (`α = 1`, no blocking): Equation (13).
    pub fn deadline_monotonic(stages: usize) -> FeasibleRegion {
        FeasibleRegion::with_alpha(stages, Alpha::DEADLINE_MONOTONIC)
    }

    /// The region for an arbitrary fixed-priority policy with
    /// urgency-inversion parameter `alpha`: Equation (12).
    pub fn with_alpha(stages: usize, alpha: Alpha) -> FeasibleRegion {
        let blocking = vec![0.0; stages];
        FeasibleRegion {
            alpha,
            kernel: pipeline_kernel(alpha, &blocking),
            blocking,
        }
    }

    /// Adds per-stage blocking factors `β_j = max_i B_ij / D_i` for
    /// non-independent tasks under the priority ceiling protocol:
    /// Equation (15).
    ///
    /// # Errors
    ///
    /// Returns [`RegionError::DimensionMismatch`] if `blocking.len()` is not
    /// the number of stages, and [`RegionError::InvalidBlocking`] if any
    /// factor is outside `[0, 1)` or their sum reaches 1 (no budget left).
    pub fn with_blocking(mut self, blocking: Vec<f64>) -> Result<FeasibleRegion, RegionError> {
        if blocking.len() != self.stages() {
            return Err(RegionError::DimensionMismatch {
                expected: self.stages(),
                got: blocking.len(),
            });
        }
        let mut sum = 0.0;
        for &b in &blocking {
            if !b.is_finite() || !(0.0..1.0).contains(&b) {
                return Err(RegionError::InvalidBlocking { value: b });
            }
            sum += b;
        }
        if sum >= 1.0 {
            return Err(RegionError::InvalidBlocking { value: sum });
        }
        self.kernel = pipeline_kernel(self.alpha, &blocking);
        self.blocking = blocking;
        Ok(self)
    }

    /// Number of stages (the dimensionality of the utilization space).
    pub fn stages(&self) -> usize {
        self.kernel.stages()
    }

    /// The urgency-inversion parameter.
    pub fn alpha(&self) -> Alpha {
        self.alpha
    }

    /// The per-stage blocking factors `β_j`.
    pub fn blocking(&self) -> &[f64] {
        &self.blocking
    }

    /// The right-hand side of the pipeline inequality:
    /// `α (1 − Σ_j β_j)`.
    pub fn budget(&self) -> f64 {
        self.kernel.budget()
    }

    /// This region's prepared pipeline test (see [`crate::kernel`]): stage
    /// count plus the cached budget.
    pub fn kernel(&self) -> RegionKernel {
        self.kernel
    }

    /// The left-hand side of the pipeline inequality: `Σ_j f(U_j)`.
    ///
    /// Returns `f64::INFINITY` when any stage is saturated (`U_j ≥ 1`).
    ///
    /// # Errors
    ///
    /// Returns [`RegionError::DimensionMismatch`] for a wrong-length vector
    /// and [`RegionError::InvalidUtilization`] for negative or NaN entries.
    pub fn value(&self, utilizations: &[f64]) -> Result<f64, RegionError> {
        self.check_dims(utilizations)?;
        Ok(self.kernel.exact_value(utilizations))
    }

    /// Whether the utilization vector lies inside the region — i.e. whether
    /// every admitted task is guaranteed to meet its end-to-end deadline.
    ///
    /// # Errors
    ///
    /// Same as [`FeasibleRegion::value`].
    pub fn contains(&self, utilizations: &[f64]) -> Result<bool, RegionError> {
        Ok(self.value(utilizations)? <= self.budget())
    }

    /// Remaining budget: `α(1 − Σβ) − Σ f(U_j)`. Negative outside the
    /// region; `-∞` when a stage is saturated.
    ///
    /// # Errors
    ///
    /// Same as [`FeasibleRegion::value`].
    pub fn margin(&self, utilizations: &[f64]) -> Result<f64, RegionError> {
        Ok(self.budget() - self.value(utilizations)?)
    }

    /// Evaluates Theorem 2's left-hand side for one task's graph: the
    /// longest path through per-subtask terms `f(U_kj) + β_kj`.
    ///
    /// Multiple subtasks on the same stage read the same utilization entry,
    /// exactly as the paper prescribes for Figure 3's shared-processor
    /// variant.
    ///
    /// # Errors
    ///
    /// Returns [`RegionError::StageOutOfRange`] if the graph references a
    /// stage this region was not built for, plus the errors of
    /// [`FeasibleRegion::value`].
    pub fn graph_value(&self, graph: &TaskGraph, utilizations: &[f64]) -> Result<f64, RegionError> {
        self.check_dims(utilizations)?;
        let mut stages = (0..graph.len()).map(|i| graph.stage(i).index());
        if let Some(index) = stages.find(|&j| j >= self.stages()) {
            return Err(RegionError::StageOutOfRange {
                index,
                stages: self.stages(),
            });
        }
        Ok(graph.longest_path_by(|i| {
            let j = graph.stage(i).index();
            stage_delay_factor(utilizations[j]) + self.blocking[j]
        }))
    }

    /// Whether Theorem 2's condition `d(f(U)+β) ≤ α` holds for `graph`.
    ///
    /// # Errors
    ///
    /// Same as [`FeasibleRegion::graph_value`].
    pub fn contains_graph(
        &self,
        graph: &TaskGraph,
        utilizations: &[f64],
    ) -> Result<bool, RegionError> {
        Ok(self.graph_value(graph, utilizations)? <= self.alpha.value())
    }

    /// The largest per-stage utilization when load is spread equally:
    /// `f⁻¹(budget / N)`. This is the symmetric point on the bounding
    /// surface.
    pub fn max_equal_utilization(&self) -> f64 {
        if self.stages() == 0 {
            return 0.0;
        }
        stage_delay_factor_inverse(self.budget() / self.stages() as f64)
    }

    fn check_dims(&self, utilizations: &[f64]) -> Result<(), RegionError> {
        if utilizations.len() != self.stages() {
            return Err(RegionError::DimensionMismatch {
                expected: self.stages(),
                got: utilizations.len(),
            });
        }
        for &u in utilizations {
            if u.is_nan() || u < 0.0 {
                return Err(RegionError::InvalidUtilization { value: u });
            }
        }
        Ok(())
    }
}

/// A schedulability test over a synthetic-utilization vector, as consumed
/// by the admission controllers in [`crate::admission`].
///
/// Implementations must be *monotone*: if `utils` is feasible then any
/// vector that is pointwise `≤ utils` is feasible too. All of the paper's
/// regions have this property because `f` is increasing.
pub trait RegionTest: std::fmt::Debug {
    /// The dimensionality (number of stages) this test expects.
    fn stages(&self) -> usize;

    /// Whether the utilization vector is inside the feasible region.
    ///
    /// # Panics
    ///
    /// May panic if `utilizations.len() != self.stages()` or entries are
    /// negative/NaN; admission controllers guarantee well-formed input.
    fn feasible(&self, utilizations: &[f64]) -> bool;
}

impl<T: RegionTest + ?Sized> RegionTest for Box<T> {
    fn stages(&self) -> usize {
        (**self).stages()
    }

    fn feasible(&self, utilizations: &[f64]) -> bool {
        (**self).feasible(utilizations)
    }
}

impl RegionTest for FeasibleRegion {
    fn stages(&self) -> usize {
        self.kernel.stages()
    }

    /// The pipeline-form test `Σ f(U_j) ≤ α(1 − Σβ)`, decided by this
    /// region's [`RegionKernel::feasible`]: the sum
    /// [`FeasibleRegion::contains`] compares, without its validation.
    // Inline hint: this non-generic impl is called from monomorphized
    // admission loops in other crates; without LTO the hint is what lets
    // the kernel's sum inline into the caller.
    #[inline]
    fn feasible(&self, utilizations: &[f64]) -> bool {
        debug_assert_eq!(
            utilizations.len(),
            self.stages(),
            "utilization vector length must equal the stage count"
        );
        self.kernel.feasible(utilizations)
    }
}

/// Theorem 2's region for a workload's task-graph shapes over one base
/// region (α, β, stage count): feasible when `d(f(U) + β) ≤ α` holds for
/// every shape. One shape gives that shape's region; a workload mixing
/// shapes must stay inside each one's.
///
/// Two graphs share a shape when their subtask→stage assignment and edges
/// coincide (computation times do not enter the region), and
/// [`ShapeRegion::new`] keeps one of each. On a well-formed vector the
/// verdict is the conjunction of [`FeasibleRegion::contains_graph`] over
/// the shapes, bit for bit: each stage's term `f(U_j) + β_j` is computed
/// once per decision, and each shape's paths sum those same `f64` values
/// in the same order.
///
/// # Examples
///
/// ```
/// use frap_core::graph::TaskGraph;
/// use frap_core::region::{FeasibleRegion, RegionTest, ShapeRegion};
/// use frap_core::task::{StageId, SubtaskSpec};
/// use frap_core::time::TimeDelta;
///
/// let sub = |stage, ms| SubtaskSpec::new(StageId::new(stage), TimeDelta::from_millis(ms));
/// let fork_join = TaskGraph::fork_join(sub(0, 1), &[sub(1, 1), sub(2, 1)], sub(3, 1))?;
/// let same_shape = TaskGraph::fork_join(sub(0, 9), &[sub(1, 9), sub(2, 9)], sub(3, 9))?;
/// let base = FeasibleRegion::deadline_monotonic(4);
/// let region = ShapeRegion::new(base, [fork_join, same_shape]);
/// assert_eq!(region.len(), 1, "durations do not make a new shape");
/// // Parallel branches don't add: u on stages 1 and 2 counts once.
/// assert!(region.feasible(&[0.2, 0.4, 0.4, 0.2]));
/// # Ok::<(), frap_core::error::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ShapeRegion {
    base: FeasibleRegion,
    shapes: Vec<TaskGraph>,
}

/// A shape signature: per-node stage assignment plus the sorted edge list.
type ShapeSignature = (Vec<usize>, Vec<(usize, usize)>);

fn signature(graph: &TaskGraph) -> ShapeSignature {
    let stages: Vec<usize> = (0..graph.len()).map(|i| graph.stage(i).index()).collect();
    let mut edges = Vec::new();
    for i in 0..graph.len() {
        for &s in graph.succs(i) {
            edges.push((i, s as usize));
        }
    }
    edges.sort_unstable();
    (stages, edges)
}

impl ShapeRegion {
    /// The intersection of the Theorem 2 regions of `shapes` over `base`,
    /// keeping the first graph of each distinct shape.
    ///
    /// # Panics
    ///
    /// Panics if a shape names a stage `base` lacks.
    pub fn new(base: FeasibleRegion, shapes: impl IntoIterator<Item = TaskGraph>) -> ShapeRegion {
        let mut signatures = Vec::new();
        let mut kept = Vec::new();
        for graph in shapes {
            let sig = signature(&graph);
            if signatures.contains(&sig) {
                continue;
            }
            assert!(
                sig.0.iter().all(|&j| j < base.stages()),
                "a shape names a stage outside the base region's {} stages",
                base.stages()
            );
            signatures.push(sig);
            kept.push(graph);
        }
        ShapeRegion { base, shapes: kept }
    }

    /// Number of distinct shapes.
    pub fn len(&self) -> usize {
        self.shapes.len()
    }

    /// Whether there are no shapes (then every vector is feasible).
    pub fn is_empty(&self) -> bool {
        self.shapes.is_empty()
    }
}

impl RegionTest for ShapeRegion {
    fn stages(&self) -> usize {
        self.base.stages()
    }

    /// # Panics
    ///
    /// Panics on a malformed vector.
    fn feasible(&self, utilizations: &[f64]) -> bool {
        const INLINE: usize = 16;
        self.base
            .check_dims(utilizations)
            .expect("well-formed utilization vector");
        let n = utilizations.len();
        let mut inline = [0.0f64; INLINE];
        let mut spilled = Vec::new();
        let terms: &mut [f64] = if n <= INLINE {
            &mut inline[..n]
        } else {
            spilled.resize(n, 0.0);
            &mut spilled
        };
        for (j, term) in terms.iter_mut().enumerate() {
            *term = stage_delay_factor(utilizations[j]) + self.base.blocking[j];
        }
        let alpha = self.base.alpha.value();
        let terms = &*terms;
        self.shapes
            .iter()
            .all(|graph| graph.longest_path_by(|i| terms[graph.stage(i).index()]) <= alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::UNIPROCESSOR_BOUND;
    use crate::task::{StageId, SubtaskSpec};
    use crate::time::TimeDelta;

    fn ms(v: u64) -> TimeDelta {
        TimeDelta::from_millis(v)
    }

    #[test]
    fn single_stage_reduces_to_uniprocessor_bound() {
        let r = FeasibleRegion::deadline_monotonic(1);
        assert!(r.contains(&[UNIPROCESSOR_BOUND - 1e-9]).unwrap());
        assert!(!r.contains(&[UNIPROCESSOR_BOUND + 1e-9]).unwrap());
        assert!((r.max_equal_utilization() - UNIPROCESSOR_BOUND).abs() < 1e-12);
    }

    #[test]
    fn empty_utilizations_always_feasible() {
        let r = FeasibleRegion::deadline_monotonic(3);
        assert!(r.contains(&[0.0, 0.0, 0.0]).unwrap());
        assert_eq!(r.value(&[0.0, 0.0, 0.0]).unwrap(), 0.0);
        assert_eq!(r.margin(&[0.0, 0.0, 0.0]).unwrap(), 1.0);
    }

    #[test]
    fn saturated_stage_is_infeasible() {
        let r = FeasibleRegion::deadline_monotonic(2);
        assert!(!r.contains(&[1.0, 0.0]).unwrap());
        assert_eq!(r.value(&[1.0, 0.0]).unwrap(), f64::INFINITY);
        assert_eq!(r.margin(&[1.0, 0.0]).unwrap(), f64::NEG_INFINITY);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let r = FeasibleRegion::deadline_monotonic(2);
        assert_eq!(
            r.value(&[0.1]).unwrap_err(),
            RegionError::DimensionMismatch {
                expected: 2,
                got: 1
            }
        );
    }

    #[test]
    fn invalid_utilization_rejected() {
        let r = FeasibleRegion::deadline_monotonic(1);
        assert!(matches!(
            r.value(&[-0.1]).unwrap_err(),
            RegionError::InvalidUtilization { .. }
        ));
        assert!(matches!(
            r.value(&[f64::NAN]).unwrap_err(),
            RegionError::InvalidUtilization { .. }
        ));
    }

    #[test]
    fn alpha_scales_budget() {
        let lax = FeasibleRegion::deadline_monotonic(2);
        let strict = FeasibleRegion::with_alpha(2, Alpha::new(0.5).unwrap());
        assert_eq!(lax.budget(), 1.0);
        assert_eq!(strict.budget(), 0.5);
        let u = [0.3, 0.3]; // value ≈ 0.729
        assert!(lax.contains(&u).unwrap());
        assert!(!strict.contains(&u).unwrap());
    }

    #[test]
    fn blocking_shrinks_budget() {
        let r = FeasibleRegion::deadline_monotonic(2)
            .with_blocking(vec![0.1, 0.2])
            .unwrap();
        assert!((r.budget() - 0.7).abs() < 1e-12);
        assert_eq!(r.blocking(), &[0.1, 0.2]);
    }

    #[test]
    fn blocking_validation() {
        let r = FeasibleRegion::deadline_monotonic(2);
        assert!(r.clone().with_blocking(vec![0.1]).is_err());
        assert!(r.clone().with_blocking(vec![-0.1, 0.0]).is_err());
        assert!(r.clone().with_blocking(vec![1.0, 0.0]).is_err());
        assert!(r.clone().with_blocking(vec![0.6, 0.6]).is_err()); // sum ≥ 1
        assert!(r.clone().with_blocking(vec![f64::NAN, 0.0]).is_err());
        assert!(r.with_blocking(vec![0.3, 0.3]).is_ok());
    }

    #[test]
    fn tsce_reservations_are_certifiable() {
        // Section 5: Equation (13) over (0.4, 0.25, 0.1) gives 0.93 < 1.
        let r = FeasibleRegion::deadline_monotonic(3);
        let v = r.value(&[0.4, 0.25, 0.1]).unwrap();
        assert!((v - 0.93).abs() < 0.005);
        assert!(r.contains(&[0.4, 0.25, 0.1]).unwrap());
    }

    #[test]
    fn region_is_monotone() {
        let r = FeasibleRegion::deadline_monotonic(3);
        let hi = [0.3, 0.2, 0.25];
        let lo = [0.25, 0.2, 0.1];
        assert!(r.value(&lo).unwrap() <= r.value(&hi).unwrap());
    }

    #[test]
    fn chain_graph_value_equals_pipeline_value() {
        let g = TaskGraph::chain(vec![
            SubtaskSpec::new(StageId::new(0), ms(1)),
            SubtaskSpec::new(StageId::new(1), ms(1)),
            SubtaskSpec::new(StageId::new(2), ms(1)),
        ])
        .unwrap();
        let r = FeasibleRegion::deadline_monotonic(3);
        let u = [0.2, 0.3, 0.1];
        let gv = r.graph_value(&g, &u).unwrap();
        let pv = r.value(&u).unwrap();
        assert!((gv - pv).abs() < 1e-12);
    }

    #[test]
    fn figure3_region_expression() {
        // Eq. (16): f(U1) + max(f(U2), f(U3)) + f(U4) ≤ 1.
        let g = figure3_graph();
        let r = FeasibleRegion::deadline_monotonic(4);
        let u = [0.2, 0.5, 0.3, 0.2];
        let expect = stage_delay_factor(0.2)
            + stage_delay_factor(0.5).max(stage_delay_factor(0.3))
            + stage_delay_factor(0.2);
        assert!((r.graph_value(&g, &u).unwrap() - expect).abs() < 1e-12);
        // The parallel branches give the DAG more room than a 4-chain.
        assert!(r.graph_value(&g, &u).unwrap() < r.value(&u).unwrap());
    }

    #[test]
    fn graph_with_repeated_stage_uses_same_utilization() {
        // Subtasks 0 and 2 both on stage 0: the paper notes U4 = U1 then.
        let g = TaskGraph::chain(vec![
            SubtaskSpec::new(StageId::new(0), ms(1)),
            SubtaskSpec::new(StageId::new(1), ms(1)),
            SubtaskSpec::new(StageId::new(0), ms(1)),
        ])
        .unwrap();
        let r = FeasibleRegion::deadline_monotonic(2);
        let v = r.graph_value(&g, &[0.2, 0.3]).unwrap();
        let expect = 2.0 * stage_delay_factor(0.2) + stage_delay_factor(0.3);
        assert!((v - expect).abs() < 1e-12);
    }

    #[test]
    fn graph_stage_out_of_range() {
        let g = TaskGraph::chain(vec![SubtaskSpec::new(StageId::new(5), ms(1))]).unwrap();
        let r = FeasibleRegion::deadline_monotonic(2);
        assert_eq!(
            r.graph_value(&g, &[0.1, 0.1]).unwrap_err(),
            RegionError::StageOutOfRange {
                index: 5,
                stages: 2
            }
        );
    }

    #[test]
    fn graph_blocking_adds_per_subtask() {
        let g = TaskGraph::chain(vec![
            SubtaskSpec::new(StageId::new(0), ms(1)),
            SubtaskSpec::new(StageId::new(1), ms(1)),
        ])
        .unwrap();
        let r = FeasibleRegion::deadline_monotonic(2)
            .with_blocking(vec![0.05, 0.1])
            .unwrap();
        let v = r.graph_value(&g, &[0.0, 0.0]).unwrap();
        assert!((v - 0.15).abs() < 1e-12);
    }

    fn figure3_graph() -> TaskGraph {
        TaskGraph::fork_join(
            SubtaskSpec::new(StageId::new(0), ms(1)),
            &[
                SubtaskSpec::new(StageId::new(1), ms(1)),
                SubtaskSpec::new(StageId::new(2), ms(1)),
            ],
            SubtaskSpec::new(StageId::new(3), ms(1)),
        )
        .unwrap()
    }

    #[test]
    fn one_shape_region_decides_as_contains_graph_with_blocking() {
        let base = FeasibleRegion::with_alpha(4, Alpha::new(0.9).unwrap())
            .with_blocking(vec![0.02, 0.05, 0.01, 0.03])
            .unwrap();
        let g = figure3_graph();
        let region = ShapeRegion::new(base.clone(), [g.clone()]);
        assert_eq!(region.len(), 1);
        assert_eq!(RegionTest::stages(&region), 4);
        let mut hits = [0u32; 2];
        for a in 0..=20 {
            for b in 0..=20 {
                let u = [
                    0.01 * a as f64,
                    0.04 * b as f64,
                    0.5 - 0.02 * a as f64,
                    0.15,
                ];
                let want = base.contains_graph(&g, &u).unwrap();
                assert_eq!(region.feasible(&u), want, "{u:?}");
                hits[usize::from(want)] += 1;
            }
        }
        assert!(hits[0] > 0 && hits[1] > 0, "both verdicts occur: {hits:?}");
        // On the boundary itself: scale a direction to where d(f(U)+β) = α.
        let at = |t: f64| [0.3 * t, 0.5 * t, 0.2 * t, 0.4 * t];
        let (mut lo, mut hi) = (0.0, 1.0);
        for _ in 0..64 {
            let mid = 0.5 * (lo + hi);
            if base.contains_graph(&g, &at(mid)).unwrap() {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        assert!(region.feasible(&at(lo)));
        assert!(!region.feasible(&at(hi)));
    }

    #[test]
    fn shape_catalog_distinguishes_structure_not_durations() {
        let fj = figure3_graph();
        let fj_other_times = TaskGraph::fork_join(
            SubtaskSpec::new(StageId::new(0), ms(7)),
            &[
                SubtaskSpec::new(StageId::new(1), ms(7)),
                SubtaskSpec::new(StageId::new(2), ms(7)),
            ],
            SubtaskSpec::new(StageId::new(3), ms(7)),
        )
        .unwrap();
        let chain = TaskGraph::chain(vec![
            SubtaskSpec::new(StageId::new(0), ms(1)),
            SubtaskSpec::new(StageId::new(1), ms(1)),
            SubtaskSpec::new(StageId::new(2), ms(1)),
            SubtaskSpec::new(StageId::new(3), ms(1)),
        ])
        .unwrap();
        let base = FeasibleRegion::deadline_monotonic(4);
        assert!(ShapeRegion::new(base.clone(), []).is_empty());
        let all = ShapeRegion::new(base.clone(), [fj.clone(), fj_other_times, chain]);
        assert_eq!(all.len(), 2);

        // The intersection is at most as permissive as each member: a
        // point feasible for the fork-join alone can be cut by the chain.
        let branch_heavy = [0.1, 0.45, 0.45, 0.1];
        let fj_only = ShapeRegion::new(base, [fj]);
        assert!(fj_only.feasible(&branch_heavy));
        assert!(!all.feasible(&branch_heavy), "the chain member cuts it");
        assert!(all.feasible(&[0.1, 0.2, 0.2, 0.1]));
    }

    #[test]
    fn shape_catalog_distinguishes_stage_assignment() {
        let a = TaskGraph::chain(vec![
            SubtaskSpec::new(StageId::new(0), ms(1)),
            SubtaskSpec::new(StageId::new(1), ms(1)),
        ])
        .unwrap();
        let b = TaskGraph::chain(vec![
            SubtaskSpec::new(StageId::new(0), ms(1)),
            SubtaskSpec::new(StageId::new(2), ms(1)),
        ])
        .unwrap();
        let region = ShapeRegion::new(FeasibleRegion::deadline_monotonic(3), [a, b]);
        assert_eq!(region.len(), 2, "different stages = different shape");
    }

    #[test]
    #[should_panic(expected = "outside the base region")]
    fn shape_region_rejects_a_stage_the_base_lacks() {
        let g = TaskGraph::chain(vec![SubtaskSpec::new(StageId::new(5), ms(1))]).unwrap();
        let _ = ShapeRegion::new(FeasibleRegion::deadline_monotonic(2), [g]);
    }

    #[test]
    fn max_equal_utilization_on_surface() {
        for n in 1..=8 {
            let r = FeasibleRegion::deadline_monotonic(n);
            let u = r.max_equal_utilization();
            let v = r.value(&vec![u; n]).unwrap();
            assert!((v - 1.0).abs() < 1e-9, "n={n} v={v}");
        }
    }
}
