//! Summary statistics over the repetitions of one run, and the
//! FNV-1a-64 hash that fingerprints a run's simulated output.

/// Minimum, median and quartiles of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarises `values`.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summary of an empty sample");
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.total_cmp(b));
        let [q1, median, q3] = quartiles(&v);
        Summary {
            n: v.len(),
            min: v[0],
            q1,
            median,
            q3,
            max: v[v.len() - 1],
        }
    }

    /// Distance between the quartiles as a share of the median (0 when
    /// the median is 0, which only a constant-zero sample has here).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quartiles of an ascending sample by the rule of Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), so spreads
/// computed here and by the acceptance driver agree. A single value is
/// its own quartiles.
fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let len = sorted.len();
    if len == 1 {
        return [sorted[0]; 3];
    }
    let m = len + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

/// FNV-1a, 64-bit.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        let s = Summary::of(&[3.0, 1.0]);
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max),
            (1.0, 0.5, 2.0, 3.5, 3.0)
        );
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = Summary::of(&[16.0, 1.0, 4.0, 2.0, 8.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
        assert_eq!(s.spread(), 10.5 / 4.0);
    }

    #[test]
    fn single_value_and_zero_median() {
        let s = Summary::of(&[7.0]);
        assert_eq!((s.min, s.q1, s.median, s.q3, s.n), (7.0, 7.0, 7.0, 7.0, 1));
        assert_eq!(Summary::of(&[0.0, 0.0, 0.0]).spread(), 0.0);
    }

    #[test]
    fn fnv_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
