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
//! [`FeasibleRegion`] evaluates both forms; [`RegionTest`] is the trait the
//! admission controllers consume.

use crate::alpha::Alpha;
use crate::delay::{stage_delay_factor, stage_delay_factor_inverse};
use crate::error::RegionError;
use crate::graph::TaskGraph;
use crate::kernel::{FastVerdict, RegionKernel};

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
    stages: usize,
    alpha: Alpha,
    blocking: Vec<f64>,
    /// `α (1 − Σβ)` cached at construction so the per-decision hot path
    /// ([`RegionTest::feasible`] via [`RegionKernel`]) never re-sums the
    /// blocking vector. Recomputed by [`FeasibleRegion::with_blocking`]
    /// with the same expression [`FeasibleRegion::budget`] always used.
    budget: f64,
}

fn compute_budget(alpha: Alpha, blocking: &[f64]) -> f64 {
    let beta_sum: f64 = blocking.iter().sum();
    (alpha.value() * (1.0 - beta_sum)).max(0.0)
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
        let budget = compute_budget(alpha, &blocking);
        FeasibleRegion {
            stages,
            alpha,
            blocking,
            budget,
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
        if blocking.len() != self.stages {
            return Err(RegionError::DimensionMismatch {
                expected: self.stages,
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
        self.blocking = blocking;
        self.budget = compute_budget(self.alpha, &self.blocking);
        Ok(self)
    }

    /// Number of stages (the dimensionality of the utilization space).
    pub fn stages(&self) -> usize {
        self.stages
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
        self.budget
    }

    /// The vectorized fast-path kernel for this region's pipeline test
    /// (see [`crate::kernel`]): stage count plus the cached budget.
    pub fn kernel(&self) -> RegionKernel {
        RegionKernel::new(self.stages, self.budget)
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
        Ok(utilizations.iter().map(|&u| stage_delay_factor(u)).sum())
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
        if let Some(index) = stages.find(|&j| j >= self.stages) {
            return Err(RegionError::StageOutOfRange {
                index,
                stages: self.stages,
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
        if self.stages == 0 {
            return 0.0;
        }
        stage_delay_factor_inverse(self.budget() / self.stages as f64)
    }

    fn check_dims(&self, utilizations: &[f64]) -> Result<(), RegionError> {
        if utilizations.len() != self.stages {
            return Err(RegionError::DimensionMismatch {
                expected: self.stages,
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
        self.stages
    }

    /// The pipeline-form test `Σ f(U_j) ≤ α(1 − Σβ)`, routed through the
    /// vectorized [`RegionKernel`]: definitive fast verdicts are returned
    /// directly (they provably match the exact test); near-boundary and
    /// ineligible vectors fall back to the exact, validating
    /// [`FeasibleRegion::contains`] path. Pipelines shorter than the
    /// measured crossover skip the kernel entirely (see
    /// [`crate::kernel::SCALAR_CUTOVER`]) — the guard-band bookkeeping
    /// costs more than the exact sum there.
    /// Decision-for-decision identical to calling `contains` alone
    /// (`tests/kernel_differential.rs`).
    // Inline hint: this non-generic impl is called from monomorphized
    // admission loops in other crates; without LTO the hint is what lets
    // the cutover branch and kernel dispatch flatten into the caller.
    #[inline]
    fn feasible(&self, utilizations: &[f64]) -> bool {
        if utilizations.len() < crate::kernel::SCALAR_CUTOVER {
            return self
                .contains(utilizations)
                .expect("well-formed utilization vector");
        }
        self.feasible_vectorized(utilizations)
    }
}

impl FeasibleRegion {
    /// The above-cutover arm of the routed region test: kernel verdict
    /// with exact fallback. Outlined so the short-pipeline fast path the
    /// cutover protects stays small in callers.
    fn feasible_vectorized(&self, utilizations: &[f64]) -> bool {
        match self.kernel().classify(utilizations) {
            FastVerdict::Feasible => true,
            FastVerdict::Infeasible => false,
            FastVerdict::NearBoundary | FastVerdict::Ineligible => self
                .contains(utilizations)
                .expect("well-formed utilization vector"),
        }
    }
}

/// Theorem 2's per-task-class test: the feasible region induced by one task
/// graph shape.
///
/// Systems with heterogeneous task shapes keep one `GraphRegion` per shape
/// and require all of them to hold (see [`AllOf`]).
///
/// # Examples
///
/// ```
/// use frap_core::graph::TaskGraph;
/// use frap_core::region::{FeasibleRegion, GraphRegion, RegionTest};
/// use frap_core::task::{StageId, SubtaskSpec};
/// use frap_core::time::TimeDelta;
///
/// let ms = TimeDelta::from_millis;
/// let g = TaskGraph::fork_join(
///     SubtaskSpec::new(StageId::new(0), ms(1)),
///     vec![
///         SubtaskSpec::new(StageId::new(1), ms(1)),
///         SubtaskSpec::new(StageId::new(2), ms(1)),
///     ],
///     SubtaskSpec::new(StageId::new(3), ms(1)),
/// )?;
/// let region = GraphRegion::new(FeasibleRegion::deadline_monotonic(4), g);
/// // Parallel branches don't add: u on stages 1 and 2 counts once.
/// assert!(region.feasible(&[0.2, 0.4, 0.4, 0.2]));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GraphRegion {
    region: FeasibleRegion,
    graph: TaskGraph,
}

impl GraphRegion {
    /// Combines a base region (α, β, stage count) with a task-graph shape.
    pub fn new(region: FeasibleRegion, graph: TaskGraph) -> GraphRegion {
        GraphRegion { region, graph }
    }

    /// The underlying base region.
    pub fn region(&self) -> &FeasibleRegion {
        &self.region
    }

    /// The task-graph shape this test covers.
    pub fn graph(&self) -> &TaskGraph {
        &self.graph
    }
}

impl RegionTest for GraphRegion {
    fn stages(&self) -> usize {
        self.region.stages()
    }

    fn feasible(&self, utilizations: &[f64]) -> bool {
        self.region
            .contains_graph(&self.graph, utilizations)
            .expect("well-formed utilization vector and graph")
    }
}

/// Conjunction of region tests: feasible only when *every* member test is.
///
/// Used when the workload mixes task-graph shapes — each shape contributes
/// its Theorem 2 region and the admission controller must keep the system
/// inside the intersection.
#[derive(Debug, Default)]
pub struct AllOf {
    tests: Vec<Box<dyn RegionTest + Send + Sync>>,
}

impl AllOf {
    /// An empty conjunction for `stages` stages (feasible everywhere until
    /// tests are added).
    pub fn new() -> AllOf {
        AllOf { tests: Vec::new() }
    }

    /// Adds a member test.
    ///
    /// # Panics
    ///
    /// Panics if the new test's stage count disagrees with existing members.
    pub fn push<T: RegionTest + Send + Sync + 'static>(&mut self, test: T) -> &mut Self {
        if let Some(first) = self.tests.first() {
            assert_eq!(
                first.stages(),
                test.stages(),
                "all member tests must share the stage count"
            );
        }
        self.tests.push(Box::new(test));
        self
    }

    /// Number of member tests.
    pub fn len(&self) -> usize {
        self.tests.len()
    }

    /// Whether there are no member tests.
    pub fn is_empty(&self) -> bool {
        self.tests.is_empty()
    }
}

impl RegionTest for AllOf {
    fn stages(&self) -> usize {
        self.tests.first().map(|t| t.stages()).unwrap_or(0)
    }

    fn feasible(&self, utilizations: &[f64]) -> bool {
        self.tests.iter().all(|t| t.feasible(utilizations))
    }
}

/// Builds the intersection region for a workload mixing task-graph
/// *shapes*: one Theorem 2 [`GraphRegion`] per distinct precedence shape
/// observed (two graphs share a shape when their subtask→stage assignment
/// and edges coincide — computation times are irrelevant to the region).
///
/// Feed it representative task specs offline, then [`ShapeCatalog::build`]
/// the [`AllOf`] test the admission controller enforces.
///
/// # Examples
///
/// ```
/// use frap_core::graph::TaskGraph;
/// use frap_core::region::{FeasibleRegion, RegionTest, ShapeCatalog};
/// use frap_core::task::{StageId, SubtaskSpec};
/// use frap_core::time::TimeDelta;
///
/// let ms = TimeDelta::from_millis;
/// let chain = TaskGraph::chain(vec![
///     SubtaskSpec::new(StageId::new(0), ms(1)),
///     SubtaskSpec::new(StageId::new(1), ms(2)),
/// ])?;
/// let same_shape = TaskGraph::chain(vec![
///     SubtaskSpec::new(StageId::new(0), ms(9)),  // different times,
///     SubtaskSpec::new(StageId::new(1), ms(9)),  // same shape
/// ])?;
/// let mut catalog = ShapeCatalog::new(FeasibleRegion::deadline_monotonic(2));
/// assert!(catalog.observe(&chain));
/// assert!(!catalog.observe(&same_shape), "deduplicated");
/// let region = catalog.build();
/// assert!(region.feasible(&[0.3, 0.3]));
/// # Ok::<(), frap_core::error::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ShapeCatalog {
    base: FeasibleRegion,
    signatures: Vec<ShapeSignature>,
    shapes: Vec<TaskGraph>,
}

/// A shape signature: per-node stage assignment plus the sorted edge list.
type ShapeSignature = (Vec<usize>, Vec<(usize, usize)>);

impl ShapeCatalog {
    /// An empty catalog over the given base region (α, β, stage count).
    pub fn new(base: FeasibleRegion) -> ShapeCatalog {
        ShapeCatalog {
            base,
            signatures: Vec::new(),
            shapes: Vec::new(),
        }
    }

    fn signature(graph: &TaskGraph) -> ShapeSignature {
        let stages: Vec<usize> = (0..graph.len()).map(|i| graph.stage(i).index()).collect();
        let mut edges = Vec::new();
        for i in 0..graph.len() {
            for &s in graph.succs(i) {
                edges.push((i, s));
            }
        }
        edges.sort_unstable();
        (stages, edges)
    }

    /// Registers a task's shape; returns `true` when the shape is new.
    pub fn observe(&mut self, graph: &TaskGraph) -> bool {
        let sig = Self::signature(graph);
        if self.signatures.contains(&sig) {
            return false;
        }
        self.signatures.push(sig);
        self.shapes.push(graph.clone());
        true
    }

    /// Number of distinct shapes observed.
    pub fn len(&self) -> usize {
        self.shapes.len()
    }

    /// Whether no shapes have been observed.
    pub fn is_empty(&self) -> bool {
        self.shapes.is_empty()
    }

    /// Builds the conjunction of per-shape Theorem 2 regions.
    pub fn build(&self) -> AllOf {
        let mut all = AllOf::new();
        for shape in &self.shapes {
            all.push(GraphRegion::new(self.base.clone(), shape.clone()));
        }
        all
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
        let g = TaskGraph::fork_join(
            SubtaskSpec::new(StageId::new(0), ms(1)),
            vec![
                SubtaskSpec::new(StageId::new(1), ms(1)),
                SubtaskSpec::new(StageId::new(2), ms(1)),
            ],
            SubtaskSpec::new(StageId::new(3), ms(1)),
        )
        .unwrap();
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

    #[test]
    fn region_test_trait_objects() {
        let mut all = AllOf::new();
        assert!(all.is_empty());
        assert_eq!(RegionTest::stages(&all), 0);
        all.push(FeasibleRegion::deadline_monotonic(2));
        let g = TaskGraph::chain(vec![
            SubtaskSpec::new(StageId::new(0), ms(1)),
            SubtaskSpec::new(StageId::new(1), ms(1)),
        ])
        .unwrap();
        all.push(GraphRegion::new(FeasibleRegion::deadline_monotonic(2), g));
        assert_eq!(all.len(), 2);
        assert_eq!(RegionTest::stages(&all), 2);
        assert!(all.feasible(&[0.2, 0.2]));
        assert!(!all.feasible(&[0.9, 0.9]));
    }

    #[test]
    #[should_panic(expected = "stage count")]
    fn all_of_rejects_mismatched_stage_counts() {
        let mut all = AllOf::new();
        all.push(FeasibleRegion::deadline_monotonic(2));
        all.push(FeasibleRegion::deadline_monotonic(3));
    }

    #[test]
    fn shape_catalog_distinguishes_structure_not_durations() {
        let mut catalog = ShapeCatalog::new(FeasibleRegion::deadline_monotonic(4));
        assert!(catalog.is_empty());
        let fj = TaskGraph::fork_join(
            SubtaskSpec::new(StageId::new(0), ms(1)),
            vec![
                SubtaskSpec::new(StageId::new(1), ms(1)),
                SubtaskSpec::new(StageId::new(2), ms(1)),
            ],
            SubtaskSpec::new(StageId::new(3), ms(1)),
        )
        .unwrap();
        let fj_other_times = TaskGraph::fork_join(
            SubtaskSpec::new(StageId::new(0), ms(7)),
            vec![
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
        assert!(catalog.observe(&fj));
        assert!(!catalog.observe(&fj_other_times));
        assert!(catalog.observe(&chain));
        assert_eq!(catalog.len(), 2);

        // The intersection is at most as permissive as each member: a
        // point feasible for the fork-join alone can be cut by the chain.
        let all = catalog.build();
        assert_eq!(all.len(), 2);
        let branch_heavy = [0.1, 0.45, 0.45, 0.1];
        let fj_only = GraphRegion::new(FeasibleRegion::deadline_monotonic(4), fj);
        assert!(fj_only.feasible(&branch_heavy));
        assert!(!all.feasible(&branch_heavy), "the chain member cuts it");
        assert!(all.feasible(&[0.1, 0.2, 0.2, 0.1]));
    }

    #[test]
    fn shape_catalog_distinguishes_stage_assignment() {
        let mut catalog = ShapeCatalog::new(FeasibleRegion::deadline_monotonic(3));
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
        assert!(catalog.observe(&a));
        assert!(catalog.observe(&b), "different stages = different shape");
        assert_eq!(catalog.len(), 2);
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
