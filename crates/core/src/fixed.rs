//! Binary fixed-point utilization units for lock-free charge accounting.
//!
//! The concurrent service (`frap-service`) charges admitted tasks'
//! synthetic-utilization contributions into per-stage atomic counters.
//! Floating-point accumulation is unusable there: `f64` addition is not
//! associative, so concurrent charge/release interleavings drift, an
//! exact rollback of an optimistic charge is impossible, and an idle
//! stage never returns to exactly zero. This module fixes the currency
//! instead: utilization is held in **integer units**, where addition and
//! subtraction are exact in any order, rollback is bit-identical, and a
//! fully released stage reads exactly `0`.
//!
//! It follows the conversion discipline of [`crate::lease`] (one
//! quantization at the boundary, conservative rounding direction, all
//! arithmetic in integers) but at a **binary** scale rather than lease's
//! decimal 10⁻⁹:
//!
//! * **1 unit = 2⁻⁵³ utilization** ([`FP_ONE`] = 2⁵³ units per Erlang).
//!   Multiplying an `f64` by a power of two only shifts its exponent, so
//!   `u × 2⁵³` is *exact* for every finite `u` — the only rounding in
//!   [`fp_from_utilization`] is the final `ceil` to an integer, an error
//!   under one unit (2⁻⁵³ ≈ 1.1 × 10⁻¹⁶). A decimal scale like lease's
//!   would round every conversion by up to half a unit (5 × 10⁻¹⁰),
//!   which accumulated over live tasks would breach the 10⁻⁹ agreement
//!   the service's oracle suites hold it to against the float library
//!   controller.
//! * **Demands round up** (`ceil`), so a quantized contribution is never
//!   smaller than the real one and the admission test stays conservative
//!   — the mirror of [`crate::lease::units_from_utilization`], which
//!   rounds budgets down.
//! * `u64` headroom is 2⁶⁴ ⁻ ⁵³ = 2048 Erlang per stage, orders of
//!   magnitude above any vector the region test could accept.
//!
//! [`feasible_fp`] and [`tentative_feasible_fp`] run the region test
//! directly over unit vectors, converting to `f64` per evaluation; the
//! conversion is exact for utilizations below 1.0 (units < 2⁵³ fit an
//! `f64` mantissa) and rounds by at most 2⁻⁵³ relatively above it.

use crate::region::RegionTest;
use crate::task::StageId;

/// Base-2 exponent of the unit scale: 1 unit = 2⁻⁵³ utilization.
pub const FP_SHIFT: u32 = 53;

/// Units per 1.0 (one Erlang) of utilization.
pub const FP_ONE: u64 = 1 << FP_SHIFT;

/// Converts a utilization to units, rounding **up** (conservative for
/// demands and reservation floors: never understate load). Negative,
/// NaN, and zero inputs map to `0`; values beyond the `u64` range
/// saturate.
#[inline]
pub fn fp_from_utilization(utilization: f64) -> u64 {
    if utilization.is_nan() || utilization <= 0.0 {
        return 0;
    }
    // Exact: multiplying by 2^53 only shifts the exponent.
    let scaled = utilization * FP_ONE as f64;
    if scaled >= u64::MAX as f64 {
        return u64::MAX;
    }
    // Integer ceil of the (exact) product, without `f64::ceil` — which
    // lowers to a libm call on baseline x86-64 and would dominate the
    // quantization cost on the admission hot path. The `as` cast
    // truncates toward zero; values ≥ 2^53 carry no fraction, and below
    // 2^53 both `scaled` and `truncated as f64` are exact, so the
    // comparison recovers the exact ceil.
    let truncated = scaled as u64;
    truncated + u64::from((truncated as f64) < scaled)
}

/// Converts units back to a utilization. Exact below 1.0 Erlang (2⁵³
/// units); above it, rounds to nearest with relative error ≤ 2⁻⁵³.
#[inline]
pub fn utilization_from_fp(units: u64) -> f64 {
    // 2⁻⁵³ is a power of two, so multiplying by it is bit-identical to
    // dividing by 2⁵³ — and a multiply, unlike a divide, pipelines on
    // the decision hot path.
    const FP_INV: f64 = 1.0 / FP_ONE as f64;
    units as f64 * FP_INV
}

/// Converts per-stage `(stage, utilization)` contributions into merged
/// per-stage unit demands, appended to `out` (cleared first) with at
/// most one entry per stage. Merging happens in integer units, so the
/// summed demand a charge adds equals exactly what a later release
/// subtracts.
#[inline]
pub fn fp_contributions_into(contributions: &[(StageId, f64)], out: &mut Vec<(StageId, u64)>) {
    out.clear();
    for &(stage, amount) in contributions {
        let units = fp_from_utilization(amount);
        match out.iter_mut().find(|(s, _)| *s == stage) {
            Some(slot) => slot.1 = slot.1.saturating_add(units),
            None => out.push((stage, units)),
        }
    }
}

/// Whether the unit vector `current_fp` lies inside `region`. `scratch`
/// holds the transient `f64` view (cleared and refilled; kept a
/// parameter so hot paths reuse one allocation).
#[inline]
pub fn feasible_fp<R: RegionTest + ?Sized>(
    region: &R,
    current_fp: &[u64],
    scratch: &mut Vec<f64>,
) -> bool {
    scratch.clear();
    scratch.extend(current_fp.iter().map(|&u| utilization_from_fp(u)));
    region.feasible(scratch)
}

/// Whether charging `contributions` (merged per-stage unit demands) on
/// top of `current_fp` stays inside `region` — the fixed-point analogue
/// of the tentative vector [`crate::admission::Admission`] tests. The
/// overlay is summed in integer units, so the tested vector equals
/// bit-for-bit what the post-charge counters would read.
#[inline]
pub fn tentative_feasible_fp<R: RegionTest + ?Sized>(
    region: &R,
    current_fp: &[u64],
    contributions: &[(StageId, u64)],
    scratch: &mut Vec<f64>,
) -> bool {
    scratch.clear();
    scratch.extend(current_fp.iter().map(|&u| utilization_from_fp(u)));
    for &(stage, units) in contributions {
        let j = stage.index();
        scratch[j] = utilization_from_fp(current_fp[j].saturating_add(units));
    }
    region.feasible(scratch)
}

/// [`tentative_feasible_fp`] taking the contributions still in float
/// form: each amount is quantized exactly as [`fp_contributions_into`]
/// would (per-piece `ceil`, accumulation in integer units) and overlaid
/// without materializing the merged demand vector. Verdicts are
/// bit-identical to converting first; paths that reject most arrivals
/// save the conversion pass entirely and quantize only on the admit
/// branch. `units_scratch` holds the overlaid unit vector.
#[inline]
pub fn tentative_feasible_fp_overlay<R: RegionTest + ?Sized>(
    region: &R,
    current_fp: &[u64],
    contributions: &[(StageId, f64)],
    units_scratch: &mut Vec<u64>,
    scratch: &mut Vec<f64>,
) -> bool {
    units_scratch.clear();
    units_scratch.extend_from_slice(current_fp);
    for &(stage, amount) in contributions {
        let j = stage.index();
        units_scratch[j] = units_scratch[j].saturating_add(fp_from_utilization(amount));
    }
    scratch.clear();
    scratch.extend(units_scratch.iter().map(|&u| utilization_from_fp(u)));
    region.feasible(scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::FeasibleRegion;

    #[test]
    fn conversion_is_exact_up_to_the_ceil() {
        for &u in &[0.0, 1e-12, 0.1, 0.25, 0.5, 0.75, 0.999, 1.0, 1.5] {
            let units = fp_from_utilization(u);
            let back = utilization_from_fp(units);
            assert!(back >= u, "ceil must never understate: {u} -> {back}");
            assert!(back - u <= 2.0 / FP_ONE as f64, "{u} -> {back}");
        }
        // Dyadic rationals convert without any rounding at all.
        assert_eq!(fp_from_utilization(0.5), FP_ONE / 2);
        assert_eq!(utilization_from_fp(FP_ONE / 4), 0.25);
    }

    #[test]
    fn degenerate_inputs_are_clamped() {
        assert_eq!(fp_from_utilization(-1.0), 0);
        assert_eq!(fp_from_utilization(f64::NAN), 0);
        assert_eq!(fp_from_utilization(f64::INFINITY), u64::MAX);
        assert_eq!(fp_from_utilization(4096.0), u64::MAX, "beyond u64 headroom");
    }

    #[test]
    fn contributions_merge_per_stage_in_units() {
        let s = StageId::new;
        let mut out = Vec::new();
        fp_contributions_into(&[(s(1), 0.25), (s(0), 0.5), (s(1), 0.125)], &mut out);
        assert_eq!(
            out,
            vec![(s(1), FP_ONE / 4 + FP_ONE / 8), (s(0), FP_ONE / 2)]
        );
    }

    #[test]
    fn tentative_fp_agrees_with_direct_overlay() {
        let region = FeasibleRegion::deadline_monotonic(2);
        let current = vec![fp_from_utilization(0.1), fp_from_utilization(0.1)];
        let mut scratch = Vec::new();
        let small = vec![(StageId::new(0), fp_from_utilization(0.05))];
        assert!(tentative_feasible_fp(
            &region,
            &current,
            &small,
            &mut scratch
        ));
        let huge = vec![
            (StageId::new(0), fp_from_utilization(0.9)),
            (StageId::new(1), fp_from_utilization(0.9)),
        ];
        assert!(!tentative_feasible_fp(
            &region,
            &current,
            &huge,
            &mut scratch
        ));
        // The plain (no-overlay) form sees the same boundary.
        assert!(feasible_fp(&region, &current, &mut scratch));
    }
}
