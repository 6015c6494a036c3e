//! A small deterministic PRNG (xoshiro256\*\*, SplitMix64-seeded).
//!
//! The experiments must be bit-for-bit reproducible from recorded seeds
//! across platforms, so FRAP ships its own generator instead of depending
//! on an external crate whose stream might change between versions.
//! xoshiro256\*\* passes BigCrush and is more than adequate for workload
//! generation (it is not cryptographic and is not meant to be).
//!
//! Every replication's seed, in the experiments and the scenario catalog,
//! is [`replication_seed`]: a hash of the base seed, the parameter point
//! and the replication index.

/// A seeded xoshiro256\*\* generator.
///
/// # Examples
///
/// ```
/// use frap_workload::rng::Rng;
/// let mut a = Rng::new(7);
/// let mut b = Rng::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let u = a.next_f64();
/// assert!((0.0..1.0).contains(&u));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Creates a generator from a seed (any value, including 0).
    pub fn new(seed: u64) -> Rng {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // All-zero state would be a fixed point; SplitMix64 cannot produce
        // four zeros from any seed, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 1;
        }
        Rng { s }
    }

    /// The next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform draw from `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform draw from `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is not finite.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite() && lo <= hi);
        lo + (hi - lo) * self.next_f64()
    }

    /// A uniform draw from `[0, n)` using Lemire rejection (unbiased).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn range_u64(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        // Widening-multiply rejection sampling (Lemire).
        let threshold = n.wrapping_neg() % n;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (n as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }
}

/// The base seed every replication seed of the experiments and the
/// scenario catalog derives from.
pub const DEFAULT_BASE_SEED: u64 = 0x5EED_0000;

/// The workload seed for replication `rep` of parameter point `point`
/// under `base_seed`: `mix(mix(mix(base_seed) ^ point) ^ rep)`, with `mix`
/// one SplitMix64 step. It depends on those three coordinates alone, so a
/// replication sees the same arrival stream whichever worker runs it.
pub fn replication_seed(base_seed: u64, point: u64, rep: u64) -> u64 {
    let mix = |mut x: u64| splitmix64(&mut x);
    mix(mix(mix(base_seed) ^ point) ^ rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproducible_from_seed() {
        let mut a = Rng::new(123);
        let mut b = Rng::new(123);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn zero_seed_works() {
        let mut r = Rng::new(0);
        let x = r.next_u64();
        let y = r.next_u64();
        assert_ne!(x, y);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::new(42);
        for _ in 0..10_000 {
            let u = r.next_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn f64_mean_is_about_half() {
        let mut r = Rng::new(42);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.next_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn range_u64_unbiased_coverage() {
        let mut r = Rng::new(7);
        let mut counts = [0u32; 5];
        for _ in 0..50_000 {
            counts[r.range_u64(5) as usize] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "counts={counts:?}");
        }
    }

    #[test]
    fn range_f64_bounds() {
        let mut r = Rng::new(9);
        for _ in 0..1000 {
            let v = r.range_f64(3.0, 4.0);
            assert!((3.0..4.0).contains(&v));
        }
        assert_eq!(r.range_f64(2.0, 2.0), 2.0);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn range_u64_zero_panics() {
        Rng::new(1).range_u64(0);
    }
}
