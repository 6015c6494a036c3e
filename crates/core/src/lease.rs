//! Leaseable per-stage utilization budgets for distributed admission.
//!
//! The paper's region test `Σ_j f(U_j) ≤ α(1 − Σβ)` is **nonlinear** in
//! the utilization vector, and `f` is superadditive on `[0, 1)` — so the
//! region's *budget* cannot be split among gateway nodes in `f`-space:
//! per-node shares of the right-hand side would let the aggregate vector
//! leave the region. What *can* be split is utilization itself, which is
//! additive across nodes. This module therefore fixes a point
//! `(Û_1, …, Û_N)` **inside** the feasible region — a per-stage cap
//! vector — and treats each stage's cap as a one-dimensional budget that
//! a coordinator may lease out in slices. Because `f` is monotone, any
//! spending pattern with `Σ_nodes U_j^{(n)} ≤ Û_j` for every stage keeps
//! the true aggregate inside the region:
//!
//! ```text
//! Σ_j f(Σ_n U_j^{(n)})  ≤  Σ_j f(Û_j)  ≤  α(1 − Σβ)
//! ```
//!
//! [`StageCaps`] holds that cap vector. A node admits against its
//! currently leased share of it — a box region of per-stage caps,
//! `frap_cluster`'s `SharedStageCaps` — through the same tentative-vector
//! test a single-node controller runs; only the region object differs.
//!
//! # Integer budget units
//!
//! Lease accounting must satisfy an *exact* conservation invariant
//! (`Σ leased + unleased = total`, always), which floats cannot promise
//! under arbitrary grant/return interleavings. Budgets therefore travel
//! as integer **units** of 10⁻⁹ utilization ([`UNIT_SCALE`]): one unit
//! is one nano-Erlang of stage utilization. Conversions round in the
//! safe direction — budgets round *down* ([`units_from_utilization`]),
//! per-task demands round *up* ([`crate::fixed::fp_from_utilization`])
//! — so unit-space admission is never less conservative than the
//! real-valued test it mirrors.
//!
//! # Why leases carry region parameters
//!
//! A lease is only meaningful against the region it was cut from: α
//! depends on the priority assignment (see `alpha_for_assignment` and
//! the priority-order sensitivity results in the multi-stage
//! fixed-priority literature), and β on the blocking terms. Nodes and
//! coordinator must agree on *all* of it, so leases are tagged with a
//! [`params_fingerprint`] of the full parameter set, not just a budget
//! scalar; a mismatch means a misconfigured node whose grants must be
//! refused.

use crate::region::FeasibleRegion;

/// Budget units per 1.0 of utilization: one unit is 10⁻⁹ Erlang.
pub const UNIT_SCALE: u64 = 1_000_000_000;

/// Converts a utilization into whole budget units, rounding **down** —
/// a budget never promises capacity the region does not contain.
pub fn units_from_utilization(utilization: f64) -> u64 {
    if utilization.is_nan() || utilization <= 0.0 {
        return 0;
    }
    (utilization * UNIT_SCALE as f64).floor() as u64
}

/// The utilization a unit count represents (exact for any realistic
/// count: unit totals fit far below 2⁵³).
pub fn utilization_from_units(units: u64) -> f64 {
    units as f64 / UNIT_SCALE as f64
}

/// Per-stage utilization caps `U_j ≤ cap_j`: the box a cluster *as a
/// whole* enforces when its caps are a point inside a [`FeasibleRegion`]
/// (see [`StageCaps::inscribed`]), and which its coordinator leases out
/// in budget units.
#[derive(Debug, Clone, PartialEq)]
pub struct StageCaps {
    caps: Vec<f64>,
}

impl StageCaps {
    /// Caps from explicit per-stage bounds.
    ///
    /// # Panics
    ///
    /// Panics if any cap is negative or NaN.
    pub fn new(caps: Vec<f64>) -> StageCaps {
        for &c in &caps {
            assert!(c >= 0.0 && !c.is_nan(), "stage cap must be ≥ 0, got {c}");
        }
        StageCaps { caps }
    }

    /// The largest symmetric cap vector inscribed in `region`: every
    /// stage capped at `f⁻¹(budget / N)`, the region's equal-utilization
    /// corner. By monotonicity of `f`, any spending within these caps is
    /// feasible for `region` itself.
    pub fn inscribed(region: &FeasibleRegion) -> StageCaps {
        let cap = region.max_equal_utilization();
        StageCaps {
            caps: vec![cap; region.stages()],
        }
    }

    /// The per-stage caps.
    pub fn caps(&self) -> &[f64] {
        &self.caps
    }

    /// The caps as whole budget units, rounded down.
    pub fn units(&self) -> Vec<u64> {
        self.caps
            .iter()
            .map(|&c| units_from_utilization(c))
            .collect()
    }
}

/// A collision-resistant-enough digest of everything two cluster
/// members must agree on before trading leases: stage count, α, the
/// blocking vector, and the cap vector itself. FNV-1a over the exact
/// bit patterns — any parameter drift (a different priority assignment
/// changing α, a re-tuned cap point) changes the fingerprint.
pub fn params_fingerprint(region: &FeasibleRegion, caps: &StageCaps) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(region.stages() as u64);
    h.write_u64(region.alpha().value().to_bits());
    for &beta in region.blocking() {
        h.write_u64(beta.to_bits());
    }
    h.write_u64(caps.caps.len() as u64);
    for &cap in &caps.caps {
        h.write_u64(cap.to_bits());
    }
    h.finish()
}

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions_round_safely() {
        assert_eq!(units_from_utilization(0.5), UNIT_SCALE / 2);
        assert_eq!(units_from_utilization(0.0), 0);
        assert_eq!(units_from_utilization(-1.0), 0);
        assert_eq!(units_from_utilization(f64::NAN), 0);
        // Budgets round down.
        assert!(utilization_from_units(units_from_utilization(0.3)) <= 0.3);
        assert_eq!(units_from_utilization(1.0 / 3.0), UNIT_SCALE / 3);
        assert_eq!(utilization_from_units(UNIT_SCALE), 1.0);
    }

    #[test]
    fn inscribed_caps_stay_inside_the_region() {
        let region = FeasibleRegion::deadline_monotonic(4);
        let caps = StageCaps::inscribed(&region);
        assert!(region.contains(caps.caps()).unwrap());
        // And they are maximal in the symmetric direction: nudging every
        // stage up leaves the region.
        let bumped: Vec<f64> = caps.caps().iter().map(|c| c + 1e-6).collect();
        assert!(!region.contains(&bumped).unwrap());
    }

    #[test]
    fn inscribed_caps_round_down_to_units() {
        for stages in 1..=8 {
            let region = FeasibleRegion::deadline_monotonic(stages);
            let caps = StageCaps::inscribed(&region);
            let units = caps.units();
            assert_eq!(units.len(), stages);
            for (&u, &cap) in units.iter().zip(caps.caps()) {
                assert!(utilization_from_units(u) <= cap, "{u} units above {cap}");
                assert!(
                    utilization_from_units(u + 1) > cap,
                    "{u} units not the floor"
                );
            }
        }
    }

    #[test]
    fn fingerprint_tracks_every_parameter() {
        let region = FeasibleRegion::deadline_monotonic(3);
        let caps = StageCaps::inscribed(&region);
        let fp = params_fingerprint(&region, &caps);
        assert_eq!(fp, params_fingerprint(&region, &caps), "deterministic");

        let other_region = FeasibleRegion::deadline_monotonic(4);
        let other_caps = StageCaps::inscribed(&other_region);
        assert_ne!(fp, params_fingerprint(&other_region, &other_caps));

        let tweaked = StageCaps::new(vec![0.1, 0.1, 0.1]);
        assert_ne!(fp, params_fingerprint(&region, &tweaked));
    }
}
