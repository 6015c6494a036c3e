//! A vectorized fast path for the pipeline region test.
//!
//! The hot kernel of every admission decision is the pipeline inequality
//!
//! ```text
//! Σ_j f(U_j) ≤ α (1 − Σ_j β_j),      f(u) = u (1 − u/2) / (1 − u)
//! ```
//!
//! evaluated once per arrival over the tentative utilization vector. The
//! scalar path ([`crate::delay::stage_delay_factor`] summed in `f64`) costs
//! one branch and one division per stage and does not auto-vectorize
//! because of the `u ≥ 1` saturation branch. [`RegionKernel`] evaluates the
//! same sum branch-free in `f32` across eight independent lanes (which the
//! compiler turns into SIMD on any target with vector divides) and then
//! decides in one of three ways:
//!
//! * the approximate sum is **below** the budget by more than a guard
//!   band → [`FastVerdict::Feasible`], provably what the exact test says;
//! * the approximate sum is **above** the budget by more than the guard
//!   band → [`FastVerdict::Infeasible`], ditto;
//! * anything near the boundary, or any input outside the fast path's
//!   eligibility envelope (negative, NaN, or close enough to the `u → 1`
//!   pole that `f32` error explodes) → fall back to the exact scalar path.
//!
//! Because definitive verdicts are only issued outside the guard band and
//! the band dominates the worst-case `f32` error (see
//! `RegionKernel::guard_band`), the kernel's verdicts are
//! **decision-for-decision identical** to the exact scalar test — the
//! property `tests/kernel_differential.rs` hammers with ulp-adjacent
//! boundary vectors.

use crate::delay::stage_delay_factor;

/// Largest per-stage utilization the `f32` fast path accepts.
///
/// `1 − 1/32`, exactly representable in both `f32` and `f64`. At this
/// point `f(u) ≈ 16` and `f′(u) ≈ 512`; beyond it the pole at `u = 1`
/// amplifies the `f32` rounding of `u` faster than any useful guard band
/// can absorb, so such stages (rare: a single one contributes 16× a
/// typical whole-system budget) take the exact path instead.
pub const FAST_MAX_UTILIZATION: f64 = 0.96875;

const FAST_MAX_F32: f32 = FAST_MAX_UTILIZATION as f32;

/// Number of independent accumulator lanes; eight `f32`s fill a 256-bit
/// vector register.
pub const LANES: usize = 8;

/// Vector length below which the exact scalar sum beats the `f32` lanes
/// outright, so [`RegionKernel::feasible`] (and the region trait
/// routing) skips the fast path entirely. Measured crossover on the
/// reference container (sweep over 8–48 stages, both admission
/// regimes): the lane loop plus guard-band bookkeeping loses by ~25%
/// at 8–12 stages, breaks even in the noisy 24–28 band, and wins on
/// every cell from four vector widths up (~20% at 32–48, ~1.3–2× at
/// 64–1024). The cutover sits at the top of the break-even band so the
/// vectorized arm only runs where it reliably pays.
pub const SCALAR_CUTOVER: usize = 4 * LANES;

/// What the vectorized fast path concluded about one utilization vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastVerdict {
    /// Inside the region by more than the guard band: identical to the
    /// exact test's `true`.
    Feasible,
    /// Outside the region by more than the guard band: identical to the
    /// exact test's `false`.
    Infeasible,
    /// Within the guard band of the budget — the fast sum cannot be
    /// trusted to sign the margin; run the exact scalar test.
    NearBoundary,
    /// Some stage was outside `[0, FAST_MAX_UTILIZATION]` (including NaN)
    /// or the vector length mismatched; run the exact (validating) path.
    Ineligible,
}

/// A prepared pipeline region test: stage count plus the precomputed
/// right-hand side `α (1 − Σβ)`.
///
/// Cheap to copy; every [`crate::region::FeasibleRegion`] keeps one
/// (see [`crate::region::FeasibleRegion::kernel`]), and standalone
/// construction serves benches and tests.
///
/// # Examples
///
/// ```
/// use frap_core::kernel::{FastVerdict, RegionKernel};
///
/// let k = RegionKernel::new(2, 1.0);
/// assert_eq!(k.classify(&[0.3, 0.3]), FastVerdict::Feasible);
/// assert_eq!(k.classify(&[0.55, 0.55]), FastVerdict::Infeasible);
/// assert!(k.feasible(&[0.3, 0.3]));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionKernel {
    stages: usize,
    budget: f64,
}

impl RegionKernel {
    /// A kernel for `stages` stages against the given budget
    /// (`α (1 − Σβ)` for the paper's pipeline region).
    ///
    /// # Panics
    ///
    /// Panics if `budget` is negative or not finite.
    pub fn new(stages: usize, budget: f64) -> RegionKernel {
        assert!(
            budget.is_finite() && budget >= 0.0,
            "region budget must be finite and non-negative"
        );
        RegionKernel { stages, budget }
    }

    /// The expected utilization-vector length.
    pub fn stages(&self) -> usize {
        self.stages
    }

    /// The right-hand side of the inequality.
    pub fn budget(&self) -> f64 {
        self.budget
    }

    /// The branch-free `f32` evaluation: eight-lane sum of
    /// `x (1 − x/2) / (1 − x)` with a per-lane eligibility mask, folded
    /// into `f64` and compared against the budget ± guard band.
    ///
    /// Never wrong, sometimes undecided: a definitive
    /// [`FastVerdict::Feasible`] / [`FastVerdict::Infeasible`] always
    /// matches the exact scalar test; everything else defers to it.
    // Non-short-circuiting `&` keeps the lane loop branch-free; the
    // range-contains form would reintroduce `&&`.
    #[allow(clippy::manual_range_contains)]
    #[inline]
    pub fn classify(&self, utilizations: &[f64]) -> FastVerdict {
        if utilizations.len() != self.stages {
            return FastVerdict::Ineligible;
        }
        let mut chunks = utilizations.chunks_exact(LANES);
        let mut eligible = true;
        let mut lanes = 0.0f64;
        // Short vectors (the common 2–4 stage pipelines) skip the lane
        // arrays entirely — initializing and folding eight accumulators
        // costs more than the whole sum at that size.
        if utilizations.len() >= LANES {
            let mut acc = [0.0f32; LANES];
            let mut ok = [true; LANES];
            for chunk in &mut chunks {
                for lane in 0..LANES {
                    let x = chunk[lane] as f32;
                    ok[lane] &= (x >= 0.0) & (x <= FAST_MAX_F32);
                    acc[lane] += x * (1.0 - 0.5 * x) / (1.0 - x);
                }
            }
            eligible = ok.iter().all(|&b| b);
            lanes = acc.iter().map(|&a| a as f64).sum::<f64>();
        }
        let mut tail = 0.0f32;
        for &u in chunks.remainder() {
            let x = u as f32;
            eligible &= (x >= 0.0) & (x <= FAST_MAX_F32);
            tail += x * (1.0 - 0.5 * x) / (1.0 - x);
        }
        if !eligible {
            // Ineligible lanes may have produced ±∞/NaN terms; the
            // accumulators are dead here, so that never escapes.
            return FastVerdict::Ineligible;
        }
        let approx = lanes + tail as f64;
        let guard = self.guard_band(approx);
        if approx + guard <= self.budget {
            FastVerdict::Feasible
        } else if approx - guard > self.budget {
            FastVerdict::Infeasible
        } else {
            FastVerdict::NearBoundary
        }
    }

    /// The region verdict: fast path first, exact scalar fallback on
    /// [`FastVerdict::NearBoundary`] / [`FastVerdict::Ineligible`].
    ///
    /// Bit-identical to `exact_feasible` for every well-formed vector.
    /// Inherits [`stage_delay_factor`]'s input contract on the fallback:
    /// validate lengths and signs at the API boundary (as
    /// [`crate::region::FeasibleRegion::contains`] does).
    // `#[inline]` on this and the exact twins below: the workspace does
    // not enable LTO, so without the hint every cross-crate caller —
    // including the admission hot loops in `frap-service` and the bench
    // cells — pays a call layer the in-crate scalar baseline does not,
    // which alone showed up as a ~10% artifact on sub-cutover sizes.
    // The vectorized arm stays outlined on purpose: folding the lane
    // loop into every caller bloats the short-pipeline hot path it is
    // explicitly bypassing, and above the cutover one call is noise.
    #[inline]
    pub fn feasible(&self, utilizations: &[f64]) -> bool {
        // Trivially identical shortcut: below the measured crossover the
        // f32 evaluation plus guard-band check costs more than the exact
        // sum it approximates (~2–3× at 2–4 stages, still ~25% at 16),
        // so short pipelines — the common case — go straight to the
        // answer.
        if utilizations.len() < SCALAR_CUTOVER {
            return self.exact_feasible(utilizations);
        }
        self.feasible_vectorized(utilizations)
    }

    /// The above-cutover arm of [`RegionKernel::feasible`]: fast verdict
    /// with exact fallback, no length shortcut.
    fn feasible_vectorized(&self, utilizations: &[f64]) -> bool {
        match self.classify(utilizations) {
            FastVerdict::Feasible => true,
            FastVerdict::Infeasible => false,
            FastVerdict::NearBoundary | FastVerdict::Ineligible => {
                self.exact_feasible(utilizations)
            }
        }
    }

    /// The exact scalar left-hand side; [`crate::region::FeasibleRegion::value`]
    /// returns this sum once it has validated the vector.
    #[inline]
    pub fn exact_value(&self, utilizations: &[f64]) -> f64 {
        utilizations.iter().map(|&u| stage_delay_factor(u)).sum()
    }

    /// The exact scalar verdict `Σ f(U_j) ≤ budget`.
    #[inline]
    pub fn exact_feasible(&self, utilizations: &[f64]) -> bool {
        self.exact_value(utilizations) <= self.budget
    }

    /// The symmetric error envelope around the approximate sum within
    /// which a definitive verdict is refused.
    ///
    /// Worst-case `f32` error, per eligible term with `f = f(u)`:
    /// converting `u` to `f32` perturbs it by ≤ `ε₃₂u`, amplified through
    /// `f` by `f′(u) · u ≤ 2(1 + f²)`; the three-op `f32` evaluation of
    /// `f` itself adds ≤ `4ε₃₂f`. Summed over the vector (using
    /// `Σf ≤ S`, `Σf² ≤ S²` for `S` the total) plus ≤ `(n/8)ε₃₂S` of
    /// lane-accumulation error:
    ///
    /// ```text
    /// |approx − exact| ≤ ε₃₂ (2n + 4S + 2S² + nS/8),   ε₃₂ = 2⁻²³
    /// ```
    ///
    /// The band below is that bound with every coefficient inflated ≥ 8×,
    /// so a sum that clears it clears the true error with margin. Near a
    /// unit budget (`S ≈ 1`) the band is ~10⁻⁶ per stage — vectors must
    /// land within ulps-of-`f64` territory scaled by ~10⁶ to dodge a
    /// definitive verdict, which only adversarial boundary constructions
    /// (and the differential suite) do.
    fn guard_band(&self, approx: f64) -> f64 {
        let n = self.stages as f64;
        1e-6 * n + 4e-6 * approx + 2e-6 * approx * approx + 1.2e-7 * n * approx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn definitive_verdicts_off_the_boundary() {
        let k = RegionKernel::new(3, 1.0);
        assert_eq!(k.classify(&[0.1, 0.1, 0.1]), FastVerdict::Feasible);
        assert_eq!(k.classify(&[0.5, 0.5, 0.5]), FastVerdict::Infeasible);
        assert!(k.feasible(&[0.1, 0.1, 0.1]));
        assert!(!k.feasible(&[0.5, 0.5, 0.5]));
    }

    #[test]
    fn near_boundary_defers_to_exact() {
        // The two-stage symmetric surface point: f(u)·2 = 1 exactly-ish.
        let u = crate::delay::stage_delay_factor_inverse(0.5);
        let k = RegionKernel::new(2, 1.0);
        assert_eq!(k.classify(&[u, u]), FastVerdict::NearBoundary);
        assert_eq!(k.feasible(&[u, u]), k.exact_feasible(&[u, u]));
    }

    #[test]
    fn pole_adjacent_stages_are_ineligible() {
        // Eligibility is judged on the f32-rounded value, so the envelope
        // extends half an f32 ulp (~3e-8 here) past FAST_MAX — which the
        // guard band's 8× safety factor absorbs. Anything that rounds
        // above is out.
        let k = RegionKernel::new(2, 1.0);
        for bad in [
            FAST_MAX_UTILIZATION + 1e-6,
            1.0 - 1e-9,
            1.0,
            1.5,
            -0.1,
            f64::NAN,
        ] {
            assert_eq!(
                k.classify(&[bad, 0.1]),
                FastVerdict::Ineligible,
                "u = {bad}"
            );
        }
        // Saturated stages resolve through the exact path: infeasible.
        assert!(!k.feasible(&[1.0, 0.0]));
    }

    #[test]
    fn fast_max_itself_is_eligible() {
        let k = RegionKernel::new(1, 1.0);
        assert_eq!(k.classify(&[FAST_MAX_UTILIZATION]), FastVerdict::Infeasible);
    }

    #[test]
    fn length_mismatch_is_ineligible() {
        let k = RegionKernel::new(3, 1.0);
        assert_eq!(k.classify(&[0.1, 0.1]), FastVerdict::Ineligible);
    }

    #[test]
    fn empty_vector_against_zero_budget() {
        let k = RegionKernel::new(0, 0.0);
        assert_eq!(k.classify(&[]), FastVerdict::Feasible);
        assert!(k.feasible(&[]));
    }

    #[test]
    fn zero_vector_against_zero_budget_defers() {
        // Exact: 0 ≤ 0 holds; the fast path cannot sign a zero margin.
        let k = RegionKernel::new(2, 0.0);
        assert_eq!(k.classify(&[0.0, 0.0]), FastVerdict::NearBoundary);
        assert!(k.feasible(&[0.0, 0.0]));
    }

    #[test]
    fn long_vectors_cover_lanes_and_tail() {
        for n in [1usize, 7, 8, 9, 16, 63, 64, 65, 1024] {
            let k = RegionKernel::new(n, 1.0);
            let inside = vec![0.5 / n as f64; n];
            let outside = vec![0.9; n];
            assert_eq!(k.classify(&inside), FastVerdict::Feasible, "n = {n}");
            assert_eq!(k.classify(&outside), FastVerdict::Infeasible, "n = {n}");
            assert_eq!(k.feasible(&inside), k.exact_feasible(&inside));
        }
    }

    #[test]
    #[should_panic(expected = "budget")]
    fn negative_budget_panics() {
        let _ = RegionKernel::new(1, -0.5);
    }
}
