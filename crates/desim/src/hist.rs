//! HDR-style latency histogram.
//!
//! Values (nanoseconds) are binned into 64 sub-buckets per power of two,
//! giving a worst-case relative error of 1/64 ≈ 1.6 % — well inside the
//! resolution any latency figure in the paper needs. Recording is O(1);
//! percentile extraction walks the (fixed, small) bucket array.

/// Sub-buckets per octave; must be a power of two.
const SUB: u64 = 64;
/// log2(SUB).
const SUB_BITS: u32 = 6;
/// Total bucket count: values below `SUB` get exact unit buckets, each
/// higher octave gets `SUB` buckets; 64-bit values need at most
/// `(64 - SUB_BITS) * SUB` more.
const NBUCKETS: usize = (SUB + (64 - SUB_BITS) as u64 * SUB) as usize;

/// A log-bucketed histogram of nanosecond latencies.
///
/// # Examples
///
/// ```
/// use desim::Histogram;
///
/// let mut h = Histogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// let p50 = h.percentile(50.0);
/// assert!((490..=515).contains(&p50), "p50 = {p50}");
/// ```
#[derive(Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

/// Maps a value to its bucket index.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let shift = msb - SUB_BITS;
        let sub = ((v >> shift) & (SUB - 1)) as usize;
        ((msb - SUB_BITS + 1) as usize) * SUB as usize + sub
    }
}

/// Returns the largest value mapping to `bucket` (used when reporting
/// percentiles, so tails are never under-reported).
#[inline]
fn bucket_high(bucket: usize) -> u64 {
    if (bucket as u64) < SUB {
        bucket as u64
    } else {
        let octave = bucket as u64 / SUB - 1;
        let sub = bucket as u64 % SUB;
        let shift = octave as u32;
        // Bucket covers [ (SUB + sub) << shift, ((SUB + sub + 1) << shift) - 1 ].
        // Computed in u128: the top octave's upper bound exceeds u64.
        let high = ((SUB + sub + 1) as u128) << shift;
        u64::try_from(high - 1).unwrap_or(u64::MAX)
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: vec![0; NBUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Returns the number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Returns the arithmetic mean, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Returns the smallest recorded value, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Returns the largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Returns the value at percentile `p` (0–100).
    ///
    /// The returned value is the upper bound of the bucket containing
    /// the rank, clamped to the recorded maximum, so tail percentiles
    /// are conservative (never under-reported by bucketing).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_high(i).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Returns the cumulative distribution as `(value, fraction ≤ value)`
    /// points over non-empty buckets, for CDF plots (Fig 2b).
    pub fn cdf(&self) -> Vec<(u64, f64)> {
        let mut out = Vec::new();
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            out.push((
                bucket_high(i).min(self.max),
                seen as f64 / self.count as f64,
            ));
        }
        out
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("mean", &self.mean())
            .field("p50", &self.percentile(50.0))
            .field("p99", &self.percentile(99.0))
            .field("p999", &self.percentile(99.9))
            .field("max", &self.max)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(99.0), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn exact_below_sub() {
        // Values below 64 are stored exactly.
        let mut h = Histogram::new();
        for v in 0..64u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(0.0), 0);
        assert_eq!(h.percentile(100.0), 63);
        assert_eq!(h.percentile(50.0), 31);
    }

    #[test]
    fn single_value() {
        let mut h = Histogram::new();
        h.record(12_345);
        for p in [0.0, 50.0, 99.0, 99.9, 100.0] {
            let v = h.percentile(p);
            assert!((12_345..=12_544).contains(&v), "p{p} = {v}");
        }
        assert_eq!(h.max(), 12_345);
        assert_eq!(h.min(), 12_345);
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new();
        h.record(10);
        h.record(20);
        h.record(30);
        assert_eq!(h.mean(), 20.0);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let mut h = Histogram::new();
        for v in [5u64, 5, 80, 3_000, 3_000, 3_000, 90_000] {
            h.record(v);
        }
        let cdf = h.cdf();
        assert!(cdf.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1));
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn huge_values_do_not_overflow() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX / 2);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
        assert!(h.percentile(100.0) >= u64::MAX / 2);
    }

    #[test]
    fn bucket_bounds_cover_value() {
        for v in [0u64, 1, 63, 64, 65, 127, 128, 1_000, 1 << 20, 1 << 40] {
            let b = bucket_of(v);
            assert!(bucket_high(b) >= v, "bucket_high({b}) < {v}");
            if b > 0 {
                assert!(
                    bucket_high(b - 1) < v,
                    "value {v} should not fit in bucket {}",
                    b - 1
                );
            }
        }
    }

    /// Exact percentile on the raw sample for comparison.
    fn exact_percentile(sorted: &[u64], p: f64) -> u64 {
        let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
        sorted[rank - 1]
    }

    /// Draws `len` values in `[1, bound]` from the simulator's own
    /// seeded generator (deterministic stand-in for proptest inputs).
    fn random_values(rng: &mut Rng, len: usize, bound: u64) -> Vec<u64> {
        (0..len).map(|_| 1 + rng.gen_range(bound)).collect()
    }

    /// Histogram percentile is within the bucketing error bound of the
    /// exact sorted-sample percentile, over many random samples.
    #[test]
    fn percentile_accuracy() {
        let mut rng = Rng::new(0xACC);
        for _ in 0..64 {
            let len = 10 + rng.gen_range(490) as usize;
            let mut values = random_values(&mut rng, len, 1_000_000_000);
            let p = 1.0 + 99.0 * rng.gen_f64();
            let mut h = Histogram::new();
            for &v in &values {
                h.record(v);
            }
            values.sort_unstable();
            let exact = exact_percentile(&values, p);
            let approx = h.percentile(p);
            // Upper-bound reporting: approx >= exact, within one bucket.
            assert!(approx >= exact, "approx {approx} < exact {exact}");
            assert!(
                approx as f64 <= exact as f64 * (1.0 + 2.0 / SUB as f64) + 1.0,
                "approx {approx} too far above exact {exact}"
            );
        }
    }

    /// Percentiles are monotone in p.
    #[test]
    fn percentile_monotone() {
        let mut rng = Rng::new(0x304);
        for _ in 0..64 {
            let len = 1 + rng.gen_range(199) as usize;
            let values = random_values(&mut rng, len, 1_000_000);
            let mut h = Histogram::new();
            for &v in &values {
                h.record(v);
            }
            let ps = [0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0];
            for w in ps.windows(2) {
                assert!(h.percentile(w[0]) <= h.percentile(w[1]));
            }
        }
    }

    /// Bucket-boundary audit: at every octave boundary `SUB << k`
    /// (± 1), at `u64::MAX`, and for random values, the round-trip
    /// `bucket_high(bucket_of(v)) >= v` holds and both maps are
    /// monotone. Guards the off-by-one class of bugs in the log-bucket
    /// arithmetic.
    #[test]
    fn bucket_roundtrip_at_octave_boundaries() {
        let mut values: Vec<u64> = vec![0, 1, SUB - 1, SUB, SUB + 1, u64::MAX - 1, u64::MAX];
        for k in 0..(64 - SUB_BITS) {
            let base = SUB << k;
            values.push(base - 1);
            values.push(base);
            if let Some(v) = base.checked_add(1) {
                values.push(v);
            }
        }
        let mut rng = Rng::new(0xB0B);
        for _ in 0..4_096 {
            values.push(rng.next_u64());
        }
        values.sort_unstable();
        let mut prev: Option<(u64, usize)> = None;
        for &v in &values {
            let b = bucket_of(v);
            assert!(b < NBUCKETS, "bucket_of({v}) = {b} out of range");
            assert!(
                bucket_high(b) >= v,
                "bucket_high({b}) = {} < {v}",
                bucket_high(b)
            );
            if b > 0 {
                assert!(
                    bucket_high(b - 1) < v,
                    "value {v} also fits bucket {}",
                    b - 1
                );
            }
            if let Some((pv, pb)) = prev {
                assert!(b >= pb, "bucket_of not monotone: {pv}→{pb}, {v}→{b}");
            }
            prev = Some((v, b));
        }
        // bucket_high is monotone and itself round-trips.
        for b in 1..NBUCKETS {
            assert!(
                bucket_high(b) > bucket_high(b - 1),
                "bucket_high not monotone at {b}"
            );
            assert_eq!(
                bucket_of(bucket_high(b)),
                b,
                "bucket_high({b}) maps elsewhere"
            );
        }
    }
}
