//! Deterministic random number generation.
//!
//! The simulator carries its own xoshiro256** implementation instead of
//! depending on an external crate: simulation results must be bit-stable
//! across dependency upgrades so that `EXPERIMENTS.md` stays
//! reproducible. Seeding uses SplitMix64, the initialisation function
//! recommended by the xoshiro authors.

/// SplitMix64 step, used to expand a 64-bit seed into generator state.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seedable xoshiro256** pseudo-random generator.
///
/// # Examples
///
/// ```
/// use desim::Rng;
///
/// let mut a = Rng::new(42);
/// let mut b = Rng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Rng {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Derives an independent generator for a named sub-stream.
    ///
    /// Components (load generator, workload, interference process, …)
    /// each fork their own stream so that adding a consumer of
    /// randomness in one component does not perturb another.
    pub fn fork(&mut self, stream: u64) -> Rng {
        Rng::new(self.next_u64() ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Returns the next 64 random bits.
    #[inline]
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

    /// Returns a uniform value in `[0, bound)` using Lemire's unbiased
    /// multiply-shift rejection method.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        // 53 high bits scaled to [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Samples an exponential distribution with the given mean.
    ///
    /// Used for Poisson inter-arrival times in the open-loop load
    /// generator, exactly as the paper's mutilate-like generator does.
    #[inline]
    pub fn exp(&mut self, mean: f64) -> f64 {
        // 1 - U is in (0, 1], so ln() is finite.
        -mean * (1.0 - self.gen_f64()).ln()
    }

    /// Samples a standard normal via Box–Muller.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1 = (1.0 - self.gen_f64()).max(f64::MIN_POSITIVE);
        let u2 = self.gen_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + std_dev * z
    }
}

#[cfg(test)]
mod tests {
    use super::Rng;

    #[test]
    fn deterministic_stream() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forked_streams_are_independent_of_order() {
        let mut root1 = Rng::new(99);
        let fork_a = root1.fork(1).next_u64();
        let mut root2 = Rng::new(99);
        let fork_a2 = root2.fork(1).next_u64();
        assert_eq!(fork_a, fork_a2);
    }

    #[test]
    fn exp_mean_converges() {
        let mut rng = Rng::new(5);
        let n = 200_000;
        let mean = 3.0;
        let sum: f64 = (0..n).map(|_| rng.exp(mean)).sum();
        let sample_mean = sum / n as f64;
        assert!(
            (sample_mean - mean).abs() < 0.05,
            "sample mean {sample_mean} too far from {mean}"
        );
    }

    #[test]
    fn normal_moments_converge() {
        let mut rng = Rng::new(6);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn gen_bool_probability() {
        let mut rng = Rng::new(8);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.2)).count();
        assert!((hits as f64 / 100_000.0 - 0.2).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn zero_bound_panics() {
        Rng::new(0).gen_range(0);
    }

    /// `gen_range(b)` always returns a value below `b`, across random
    /// seeds and bounds (including extreme bounds).
    #[test]
    fn range_in_bounds() {
        let mut meta = Rng::new(0x5EED);
        for _ in 0..64 {
            let seed = meta.next_u64();
            let bound = 1 + meta.gen_range(u64::MAX - 1);
            let mut rng = Rng::new(seed);
            for _ in 0..32 {
                assert!(rng.gen_range(bound) < bound);
            }
        }
        for bound in [1u64, 2, 3, u64::MAX - 1, u64::MAX] {
            let mut rng = Rng::new(9);
            for _ in 0..32 {
                assert!(rng.gen_range(bound) < bound);
            }
        }
    }

    /// `gen_f64` stays in [0, 1).
    #[test]
    fn f64_in_unit_interval() {
        let mut meta = Rng::new(0xF64);
        for _ in 0..64 {
            let mut rng = Rng::new(meta.next_u64());
            for _ in 0..64 {
                let x = rng.gen_f64();
                assert!((0.0..1.0).contains(&x));
            }
        }
    }

    /// `exp` samples are non-negative and finite for any mean.
    #[test]
    fn exp_non_negative() {
        let mut meta = Rng::new(0xE4B);
        for _ in 0..64 {
            let mut rng = Rng::new(meta.next_u64());
            let mean = 0.001 + meta.gen_f64() * 1e6;
            for _ in 0..32 {
                let x = rng.exp(mean);
                assert!(x.is_finite());
                assert!(x >= 0.0);
            }
        }
    }
}
