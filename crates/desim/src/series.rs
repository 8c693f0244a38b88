//! Time-bucketed series sampling.
//!
//! A [`TimeSeries`] aggregates samples of a fluctuating quantity (queue
//! depth, counter rates, health scores) into fixed simulated-time
//! buckets, so the telemetry plane can show *dynamics* — e.g. the queue
//! oscillation under bursty arrivals — instead of only end-of-run
//! percentiles.

use crate::time::{SimDuration, SimTime};

/// A mean-per-bucket time series.
///
/// Each bucket also keeps the maximum and the *last* sample it
/// received, so one series serves both aggregation modes: mean/max for
/// rate-like quantities and last-value for gauges (where the most
/// recent observation, not the average of observations, is the state).
#[derive(Debug, Clone)]
pub struct TimeSeries {
    bucket: SimDuration,
    sums: Vec<f64>,
    counts: Vec<u64>,
    maxima: Vec<f64>,
    lasts: Vec<f64>,
}

impl TimeSeries {
    /// Creates a series with the given bucket width.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is zero.
    pub fn new(bucket: SimDuration) -> TimeSeries {
        assert!(bucket > SimDuration::ZERO, "zero bucket width");
        TimeSeries {
            bucket,
            sums: Vec::new(),
            counts: Vec::new(),
            maxima: Vec::new(),
            lasts: Vec::new(),
        }
    }

    /// Reserves room for `buckets` buckets, so recording up to that
    /// horizon never regrows the series.
    pub fn reserve(&mut self, buckets: usize) {
        self.sums.reserve(buckets);
        self.counts.reserve(buckets);
        self.maxima.reserve(buckets);
        self.lasts.reserve(buckets);
    }

    /// Records one sample of the quantity at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite: a NaN would poison every
    /// aggregate of its bucket, and an infinity would make the
    /// serialised output non-portable — both are recording bugs at the
    /// sampling site, not data.
    pub fn record(&mut self, t: SimTime, value: f64) {
        assert!(value.is_finite(), "non-finite sample {value}");
        let idx = (t.as_nanos() / self.bucket.as_nanos()) as usize;
        if idx >= self.sums.len() {
            self.sums.resize(idx + 1, 0.0);
            self.counts.resize(idx + 1, 0);
            self.maxima.resize(idx + 1, f64::NEG_INFINITY);
            self.lasts.resize(idx + 1, 0.0);
        }
        self.sums[idx] += value;
        self.counts[idx] += 1;
        self.maxima[idx] = self.maxima[idx].max(value);
        self.lasts[idx] = value;
    }

    /// Returns `(bucket start, mean)` for every non-empty bucket.
    pub fn means(&self) -> Vec<(SimTime, f64)> {
        self.iter_stat(|i| self.sums[i] / self.counts[i] as f64)
    }

    /// Returns `(bucket start, max)` for every non-empty bucket.
    pub fn maxima(&self) -> Vec<(SimTime, f64)> {
        self.iter_stat(|i| self.maxima[i])
    }

    /// Returns `(bucket start, last sample)` for every non-empty bucket
    /// — the gauge view: each bucket reports the state it ended in,
    /// not the average of its observations.
    pub fn lasts(&self) -> Vec<(SimTime, f64)> {
        self.iter_stat(|i| self.lasts[i])
    }

    fn iter_stat(&self, f: impl Fn(usize) -> f64) -> Vec<(SimTime, f64)> {
        (0..self.sums.len())
            .filter(|&i| self.counts[i] > 0)
            .map(|i| (SimTime(i as u64 * self.bucket.as_nanos()), f(i)))
            .collect()
    }

    /// Total samples recorded.
    pub fn samples(&self) -> u64 {
        self.counts.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_aggregate_means_and_maxima() {
        let mut s = TimeSeries::new(SimDuration::from_micros(10));
        s.record(SimTime(1_000), 2.0);
        s.record(SimTime(9_000), 4.0); // same bucket
        s.record(SimTime(25_000), 10.0); // bucket 2
        let means = s.means();
        assert_eq!(means.len(), 2);
        assert_eq!(means[0], (SimTime(0), 3.0));
        assert_eq!(means[1], (SimTime(20_000), 10.0));
        assert_eq!(s.maxima()[0].1, 4.0);
        assert_eq!(s.maxima()[1].1, 10.0);
        assert_eq!(s.lasts()[0].1, 4.0);
        assert_eq!(s.samples(), 3);
    }

    #[test]
    fn empty_series() {
        let s = TimeSeries::new(SimDuration::from_micros(1));
        assert!(s.means().is_empty());
        assert_eq!(s.samples(), 0);
    }

    #[test]
    fn sparse_buckets_skip_gaps() {
        let mut s = TimeSeries::new(SimDuration::from_nanos(100));
        s.record(SimTime(50), 1.0);
        s.record(SimTime(1_050), 5.0);
        let means = s.means();
        assert_eq!(
            means,
            vec![(SimTime(0), 1.0), (SimTime(1_000), 5.0)],
            "gap buckets are not reported"
        );
    }

    #[test]
    #[should_panic(expected = "zero bucket")]
    fn zero_bucket_panics() {
        TimeSeries::new(SimDuration::ZERO);
    }
}
