//! Differential battery: [`RegionKernel::feasible`] must be the exact
//! region test **bit-for-bit on the verdict** — admit exactly when
//! `Σ f(U_j) ≤ budget` holds in `f64` — on every vector and at every
//! width, including vectors constructed within a few ulps of the region
//! boundary and of `f`'s pole at `U → 1`. Alongside, the `f32` estimate
//! [`RegionKernel::classify`] must never issue a definitive verdict the
//! exact test contradicts.
//!
//! Four layers:
//!
//! * a deterministic bulk sweep (> 10⁵ cases, seeded splitmix64) across
//!   1–1024 stages and several utilization regimes;
//! * adversarial constructions: solve the last stage so the exact sum
//!   lands on the budget, then walk it ulp-by-ulp across the boundary;
//!   plus pole-adjacent stages straddling the estimate's eligibility cap;
//! * the same ulp walk at 31, 32, 33, 64 and 1024 stages;
//! * proptest shrinkers over random vectors, for minimized
//!   counterexamples if a regression ever lands.

use frap_core::delay::{stage_delay_factor, stage_delay_factor_inverse};
use frap_core::kernel::{FastVerdict, RegionKernel, FAST_MAX_UTILIZATION};
use frap_core::region::{FeasibleRegion, RegionTest};
use proptest::prelude::*;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// The scalar oracle, spelled with the same operation order as
/// `FeasibleRegion::value` / `RegionKernel::exact_value`.
fn oracle_value(utils: &[f64]) -> f64 {
    utils.iter().map(|&u| stage_delay_factor(u)).sum()
}

/// Asserts every kernel surface against the oracle for one case and
/// returns 1 (so call sites can tally cases).
fn check(kernel: &RegionKernel, utils: &[f64]) -> u64 {
    let value = oracle_value(utils);
    let margin = kernel.budget() - value;
    let want = value <= kernel.budget();
    assert_eq!(
        want,
        margin >= 0.0,
        "margin sign disagrees with the verdict: value={value:e} budget={:e}",
        kernel.budget()
    );
    let got = kernel.feasible(utils);
    assert_eq!(
        got,
        want,
        "verdict diverged: budget={:e} value={value:e} utils={utils:?}",
        kernel.budget()
    );
    // A definitive estimate must never contradict the oracle.
    match kernel.classify(utils) {
        FastVerdict::Feasible => assert!(want, "fast Feasible lied: {utils:?}"),
        FastVerdict::Infeasible => assert!(!want, "fast Infeasible lied: {utils:?}"),
        FastVerdict::NearBoundary | FastVerdict::Ineligible => {}
    }
    1
}

/// Nudges `x` by `ulps` representation steps (negative = toward zero).
fn nudge(x: f64, ulps: i64) -> f64 {
    assert!(x > 0.0 && x.is_finite());
    f64::from_bits((x.to_bits() as i64 + ulps) as u64)
}

#[test]
fn bulk_sweep_matches_exact_scalar_on_1e5_cases() {
    let mut state = 0xF3A5_1D2E_C0FF_EE00u64;
    let mut cases = 0u64;

    // Sizes skew small (realistic pipelines) with periodic wide vectors
    // to cover full lanes, remainders, and the 1024-stage extreme.
    let size_of = |i: u64, state: &mut u64| -> usize {
        match i % 50 {
            49 => 1024,
            47 | 48 => 256,
            44..=46 => 64,
            40..=43 => 17 + (splitmix64(state) % 16) as usize,
            _ => 1 + (splitmix64(state) % 16) as usize,
        }
    };

    for i in 0..120_000u64 {
        let n = size_of(i, &mut state);
        // Rotate through utilization regimes: comfortably inside,
        // straddling, decisively outside, and pole-heavy.
        let mut utils: Vec<f64> = match i % 4 {
            0 => (0..n).map(|_| unit(&mut state) * 0.4 / n as f64).collect(),
            1 => (0..n).map(|_| unit(&mut state) * 0.999).collect(),
            2 => (0..n).map(|_| 0.2 + unit(&mut state) * 0.79).collect(),
            _ => (0..n)
                .map(|_| {
                    if splitmix64(&mut state).is_multiple_of(7) {
                        // Hug the eligibility cap and the pole.
                        FAST_MAX_UTILIZATION - 1e-3 + unit(&mut state) * 2e-3
                    } else {
                        unit(&mut state) * 0.9
                    }
                })
                .collect(),
        };
        // A sprinkle of exactly-saturated stages (f = ∞).
        if i % 97 == 0 && !utils.is_empty() {
            let j = (splitmix64(&mut state) as usize) % utils.len();
            utils[j] = 1.0;
        }

        // The paper's unit budget plus random budgets on both sides of
        // whatever sum the vector produces.
        let budgets = [
            1.0,
            unit(&mut state) * 2.0,
            unit(&mut state) * 17.0 * n as f64,
        ];
        for b in budgets {
            let kernel = RegionKernel::new(n, b);
            cases += check(&kernel, &utils);
        }
    }
    assert!(cases >= 100_000, "only {cases} cases generated");
}

/// A vector of `n` stages whose exact sum lands on `budget`: a random
/// prefix consuming at most ~70% of it, then the last stage solved for
/// the rest. `None` when the solve leaves `(0, 1)`.
fn on_the_boundary(n: usize, budget: f64, state: &mut u64) -> Option<Vec<f64>> {
    let mut utils: Vec<f64> = (0..n - 1)
        .map(|_| stage_delay_factor_inverse(unit(state) * 0.7 * budget / n as f64))
        .collect();
    let target = budget - oracle_value(&utils);
    if target <= 0.0 {
        return None;
    }
    let last = stage_delay_factor_inverse(target);
    if !last.is_finite() || last <= 0.0 || last >= 1.0 {
        return None;
    }
    utils.push(last);
    Some(utils)
}

#[test]
fn boundary_adjacent_vectors_cross_the_budget_ulp_by_ulp() {
    // Walk the solved stage across the boundary one representation step
    // at a time. These are the worst inputs an approximate test can face;
    // every verdict must be the exact sum's.
    let mut state = 0xB0A7_CAFE_5EED_0001u64;
    let mut cases = 0u64;
    let mut near_boundary_seen = 0u64;

    for i in 0..4_000u64 {
        let n = 1 + (i as usize % 12);
        let budget = if i % 3 == 0 {
            1.0
        } else {
            0.25 + unit(&mut state) * 2.0
        };
        let kernel = RegionKernel::new(n, budget);
        let Some(utils) = on_the_boundary(n, budget, &mut state) else {
            continue;
        };
        let last = utils[n - 1];
        for ulps in -4i64..=4 {
            let mut v = utils.clone();
            v[n - 1] = nudge(last, ulps);
            cases += check(&kernel, &v);
            if kernel.classify(&v) == FastVerdict::NearBoundary {
                near_boundary_seen += 1;
            }
        }
    }
    assert!(cases >= 10_000, "only {cases} boundary cases generated");
    // The construction must actually land in the estimate's guard band
    // (otherwise this test silently stopped testing the seam).
    assert!(
        near_boundary_seen > cases / 2,
        "boundary construction stopped landing in the guard band \
         ({near_boundary_seen}/{cases})"
    );
}

#[test]
fn feasible_is_the_exact_sum_at_every_width() {
    // Widths around and past 32, where `classify` fills its lanes several
    // times over: boundary walks, random vectors on both sides of the
    // budget, and saturated stages, each against the oracle.
    let mut state = 0x0DD5_1DE5_0F32_0001u64;
    for n in [31usize, 32, 33, 64, 1024] {
        let mut walked = 0;
        for _ in 0..200 {
            let budget = 0.25 + unit(&mut state) * 2.0;
            let kernel = RegionKernel::new(n, budget);
            if let Some(utils) = on_the_boundary(n, budget, &mut state) {
                for ulps in -4i64..=4 {
                    let mut v = utils.clone();
                    v[n - 1] = nudge(utils[n - 1], ulps);
                    check(&kernel, &v);
                }
                walked += 1;
            }
            let spread = unit(&mut state) * 4.0 * budget / n as f64;
            let mut v: Vec<f64> = (0..n).map(|_| unit(&mut state) * spread).collect();
            check(&kernel, &v);
            v[(splitmix64(&mut state) as usize) % n] = 1.0;
            check(&kernel, &v);
        }
        assert!(walked >= 100, "n = {n}: only {walked} boundary vectors");
    }
}

#[test]
fn pole_adjacent_vectors_take_the_exact_path_verdict() {
    // Values within ulps of f's pole at u = 1 and of the eligibility cap.
    let specials = [
        nudge(1.0, -3),
        nudge(1.0, -2),
        nudge(1.0, -1),
        1.0,
        nudge(1.0, 1),
        nudge(FAST_MAX_UTILIZATION, -2),
        nudge(FAST_MAX_UTILIZATION, -1),
        FAST_MAX_UTILIZATION,
        nudge(FAST_MAX_UTILIZATION, 1),
        nudge(FAST_MAX_UTILIZATION, 2),
        1.0 - 1e-12,
        1.0 - 1e-9,
        1.0 - 1e-7,
        0.999,
    ];
    let mut cases = 0u64;
    for &a in &specials {
        for &b in &specials {
            for budget in [0.5, 1.0, 40.0] {
                let kernel = RegionKernel::new(3, budget);
                cases += check(&kernel, &[a, 0.1, b]);
            }
        }
        let kernel = RegionKernel::new(1, 1.0);
        cases += check(&kernel, &[a]);
    }
    assert!(cases > 500);
}

#[test]
fn feasible_region_trait_path_matches_contains() {
    // The service consumes the kernel through `RegionTest::feasible` on
    // `FeasibleRegion`; that routing must equal the validating `contains`.
    let mut state = 0x51CA_FE00_DEAD_BEEFu64;
    for n in [1usize, 2, 3, 8, 16, 64] {
        let region = FeasibleRegion::deadline_monotonic(n);
        let kernel = region.kernel();
        assert_eq!(kernel.stages(), n);
        assert_eq!(kernel.budget(), region.budget());
        for _ in 0..2_000 {
            let utils: Vec<f64> = (0..n).map(|_| unit(&mut state) * 1.02).collect();
            let want = region.contains(&utils).unwrap();
            assert_eq!(region.feasible(&utils), want, "n={n} utils={utils:?}");
            assert_eq!(kernel.feasible(&utils), want);
        }
    }
    // Blocking factors shrink the budget; the cached kernel must follow.
    let region = FeasibleRegion::deadline_monotonic(2)
        .with_blocking(vec![0.1, 0.2])
        .unwrap();
    assert_eq!(region.kernel().budget(), region.budget());
    for _ in 0..2_000 {
        let utils: Vec<f64> = (0..2).map(|_| unit(&mut state) * 1.02).collect();
        assert_eq!(region.feasible(&utils), region.contains(&utils).unwrap());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn kernel_matches_oracle_on_random_vectors(
        utils in proptest::collection::vec(0.0..1.05f64, 1..200),
        budget in 0.0..4.0f64,
    ) {
        let kernel = RegionKernel::new(utils.len(), budget);
        let want = oracle_value(&utils) <= budget;
        prop_assert_eq!(kernel.feasible(&utils), want);
        match kernel.classify(&utils) {
            FastVerdict::Feasible => prop_assert!(want),
            FastVerdict::Infeasible => prop_assert!(!want),
            _ => {}
        }
    }

    #[test]
    fn kernel_matches_oracle_on_wide_vectors(
        utils in proptest::collection::vec(0.0..0.999f64, 512..1024),
    ) {
        let kernel = RegionKernel::new(utils.len(), 1.0);
        prop_assert_eq!(kernel.feasible(&utils), oracle_value(&utils) <= 1.0);
    }

    #[test]
    fn region_trait_matches_contains(
        utils in proptest::collection::vec(0.0..1.05f64, 1..64),
    ) {
        let region = FeasibleRegion::deadline_monotonic(utils.len());
        prop_assert_eq!(region.feasible(&utils), region.contains(&utils).unwrap());
    }
}
