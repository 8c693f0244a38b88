//! Open-loop Poisson arrival process.

use desim::{Rng, SimDuration, SimTime};

/// An inter-arrival draw in whole nanoseconds, at least one:
/// `gap.round().max(1.0) as u64` without the libm `round` call. The
/// cast truncates (and saturates, NaN to 0), and for a non-negative
/// draw the remaining fraction is exact in f64, so carrying it half-up
/// is round-half-away-from-zero.
#[inline]
fn gap_ns(gap: f64) -> u64 {
    let whole = gap as u64;
    let carry = gap - whole as f64 >= 0.5;
    whole.saturating_add(carry as u64).max(1)
}

/// An open-loop Poisson request source.
///
/// Being *open loop* is essential to the paper's methodology: arrivals
/// do not wait for replies, so queueing delay shows up as latency (and
/// overload as drops) instead of silently throttling the offered load.
///
/// # Examples
///
/// ```
/// use loadgen::OpenLoop;
///
/// let mut src = OpenLoop::new(1_000_000.0, 42); // 1 MRPS
/// let t1 = src.next_arrival();
/// let t2 = src.next_arrival();
/// assert!(t2 > t1);
/// ```
#[derive(Debug, Clone)]
pub struct OpenLoop {
    rng: Rng,
    mean_interarrival_ns: f64,
    next: SimTime,
    generated: u64,
}

impl OpenLoop {
    /// Creates a source offering `rate_rps` requests per second.
    ///
    /// # Panics
    ///
    /// Panics if `rate_rps` is not strictly positive.
    pub fn new(rate_rps: f64, seed: u64) -> OpenLoop {
        assert!(rate_rps > 0.0, "offered load must be positive");
        OpenLoop {
            rng: Rng::new(seed),
            mean_interarrival_ns: 1e9 / rate_rps,
            next: SimTime::ZERO,
            generated: 0,
        }
    }

    /// Returns the next request's hardware TX timestamp.
    #[inline]
    pub fn next_arrival(&mut self) -> SimTime {
        let gap = self.rng.exp(self.mean_interarrival_ns);
        self.next += SimDuration::from_nanos(gap_ns(gap));
        self.generated += 1;
        self.next
    }

    /// Requests generated so far.
    pub fn generated(&self) -> u64 {
        self.generated
    }

    /// The configured mean inter-arrival gap.
    pub fn mean_interarrival(&self) -> SimDuration {
        SimDuration::from_nanos(self.mean_interarrival_ns.round() as u64)
    }
}

/// A two-state Markov-modulated Poisson process (MMPP): bursts of
/// `peak_factor ×` the mean rate alternate with quiet periods, keeping
/// the long-run average at `rate_rps`.
///
/// Used to study burst tolerance (§3.2: the unithread pool "must be
/// sufficient to handle bursty request arrivals").
#[derive(Debug, Clone)]
pub struct BurstyLoop {
    rng: Rng,
    on_interarrival_ns: f64,
    off_interarrival_ns: f64,
    mean_phase_ns: f64,
    in_burst: bool,
    phase_end: SimTime,
    next: SimTime,
    generated: u64,
}

impl BurstyLoop {
    /// Creates a bursty source averaging `rate_rps`; bursts run at
    /// `peak_factor ×` that rate, quiet phases absorb the difference
    /// (equal mean phase lengths).
    ///
    /// # Panics
    ///
    /// Panics unless `rate_rps > 0` and `peak_factor > 1`.
    pub fn new(rate_rps: f64, peak_factor: f64, mean_phase: SimDuration, seed: u64) -> BurstyLoop {
        assert!(rate_rps > 0.0, "offered load must be positive");
        assert!(
            (1.0..=2.0).contains(&peak_factor) && peak_factor > 1.0,
            "peak factor must be in (1, 2] (equal-length phases)"
        );
        // Equal expected phase lengths: mean = (r_on + r_off) / 2, so
        // r_off = (2 − peak_factor) × rate keeps the long-run average.
        let r_on = rate_rps * peak_factor;
        let r_off = (rate_rps * (2.0 - peak_factor)).max(1.0);
        BurstyLoop {
            rng: Rng::new(seed),
            on_interarrival_ns: 1e9 / r_on,
            off_interarrival_ns: 1e9 / r_off,
            mean_phase_ns: mean_phase.as_nanos() as f64,
            in_burst: false,
            phase_end: SimTime::ZERO,
            next: SimTime::ZERO,
            generated: 0,
        }
    }

    /// Returns the next request's hardware TX timestamp.
    #[inline]
    pub fn next_arrival(&mut self) -> SimTime {
        loop {
            if self.next >= self.phase_end {
                self.in_burst = !self.in_burst;
                let len = self.rng.exp(self.mean_phase_ns).max(1.0);
                self.phase_end = self.next + SimDuration::from_nanos(len as u64);
            }
            let mean = if self.in_burst {
                self.on_interarrival_ns
            } else {
                self.off_interarrival_ns
            };
            let gap = SimDuration::from_nanos(gap_ns(self.rng.exp(mean)));
            let candidate = self.next + gap;
            if candidate > self.phase_end {
                // Cross into the next phase and redraw at its rate.
                self.next = self.phase_end;
                continue;
            }
            self.next = candidate;
            self.generated += 1;
            return self.next;
        }
    }

    /// Requests generated so far.
    pub fn generated(&self) -> u64 {
        self.generated
    }

    /// Whether the process is currently inside a burst.
    pub fn in_burst(&self) -> bool {
        self.in_burst
    }
}

/// RSS-style fan-in of one arrival stream onto `lanes` per-dispatcher
/// ingress slots.
///
/// Real multi-core ingress planes steer packets by a NIC hash of the
/// flow tuple, not round-robin: consecutive arrivals of a burst can land
/// on the *same* lane while its siblings idle. This steers by a
/// splitmix64 hash of the arrival sequence number, which reproduces that
/// lumpiness deterministically — the imbalance is what work stealing and
/// flat combining exist to absorb. With one lane the steer is the
/// constant `0` and the internal counter is the only state touched, so a
/// single-dispatcher run stays bit-identical to the pre-fan-in stream.
#[derive(Debug, Clone)]
pub struct IngressFanIn {
    lanes: usize,
    salt: u64,
    seq: u64,
}

impl IngressFanIn {
    /// Creates a fan-in over `lanes` ingress slots, salted by `seed`.
    ///
    /// # Panics
    ///
    /// Panics when `lanes` is zero.
    pub fn new(lanes: usize, seed: u64) -> IngressFanIn {
        assert!(lanes >= 1, "fan-in needs at least one lane");
        IngressFanIn {
            lanes,
            salt: seed,
            seq: 0,
        }
    }

    /// Steers the next arrival to a lane in `0..lanes`.
    #[inline]
    pub fn steer(&mut self) -> usize {
        let i = self.seq;
        self.seq += 1;
        if self.lanes == 1 {
            return 0;
        }
        // splitmix64 finalizer over (sequence ⊕ salt).
        let mut z = i
            .wrapping_add(0x9e37_79b9_7f4a_7c15)
            .wrapping_mul(0x2545_f491_4f6c_dd1d)
            ^ self.salt;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z % self.lanes as u64) as usize
    }

    /// Number of ingress lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_converges_to_offered_load() {
        let mut src = OpenLoop::new(2_000_000.0, 7);
        let n = 200_000;
        let mut last = SimTime::ZERO;
        for _ in 0..n {
            last = src.next_arrival();
        }
        let achieved = n as f64 / last.as_secs_f64();
        assert!(
            (achieved / 2_000_000.0 - 1.0).abs() < 0.02,
            "achieved {achieved} rps"
        );
        assert_eq!(src.generated(), n);
    }

    #[test]
    fn arrivals_strictly_increase() {
        let mut src = OpenLoop::new(10_000_000.0, 3);
        let mut prev = SimTime::ZERO;
        for _ in 0..10_000 {
            let t = src.next_arrival();
            assert!(t > prev);
            prev = t;
        }
    }

    #[test]
    fn same_seed_same_sequence() {
        let mut a = OpenLoop::new(1e6, 11);
        let mut b = OpenLoop::new(1e6, 11);
        for _ in 0..1000 {
            assert_eq!(a.next_arrival(), b.next_arrival());
        }
    }

    #[test]
    fn interarrival_cv_is_poisson_like() {
        // Exponential gaps: coefficient of variation ≈ 1.
        let mut src = OpenLoop::new(1e6, 5);
        let mut gaps = Vec::new();
        let mut prev = SimTime::ZERO;
        for _ in 0..100_000 {
            let t = src.next_arrival();
            gaps.push(t.since(prev).as_nanos() as f64);
            prev = t;
        }
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((cv - 1.0).abs() < 0.05, "cv = {cv}");
    }

    /// `gap_ns` is the libm expression it replaced, on the draws real
    /// runs make and on the values where truncate-and-carry could
    /// differ from `round` (halves, the f64 integer boundary, casts
    /// that saturate, negatives, NaN).
    #[test]
    fn gap_rounding_matches_libm_round() {
        let reference = |gap: f64| gap.round().max(1.0) as u64;
        for rate in [0.3e6, 1.3e6, 2.4e6] {
            let mut rng = Rng::new(rate as u64);
            for _ in 0..1_000_000 {
                let gap = rng.exp(1e9 / rate);
                assert_eq!(gap_ns(gap), reference(gap), "gap {gap}");
            }
        }
        let mut samples: Vec<f64> = (0..40_000).map(|i| i as f64 * 0.25).collect();
        let two52 = (1u64 << 52) as f64;
        samples.extend([
            0.5f64.next_down(),
            0.5f64.next_up(),
            1.5f64.next_down(),
            1e9 + 0.5,
            (1e9 + 0.5f64).next_down(),
            4_294_967_295.5,
            two52 - 0.5,
            two52 - 1.0,
            two52 + 1.0,
            u64::MAX as f64,
            (u64::MAX as f64).next_down(),
            1e300,
            f64::INFINITY,
            -0.0,
            -0.4,
            -3.7,
            f64::NAN,
        ]);
        for gap in samples {
            assert_eq!(gap_ns(gap), reference(gap), "gap {gap}");
        }
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_rate_panics() {
        OpenLoop::new(0.0, 1);
    }

    #[test]
    fn bursty_mean_rate_converges() {
        let mut src = BurstyLoop::new(1_000_000.0, 1.8, SimDuration::from_micros(500), 7);
        let n = 300_000;
        let mut last = SimTime::ZERO;
        for _ in 0..n {
            last = src.next_arrival();
        }
        let achieved = n as f64 / last.as_secs_f64();
        assert!(
            (achieved / 1_000_000.0 - 1.0).abs() < 0.08,
            "long-run mean {achieved} rps"
        );
    }

    #[test]
    fn bursty_is_burstier_than_poisson() {
        // Compare max arrivals in 100 µs windows: the MMPP must show
        // materially hotter windows than plain Poisson at the same mean.
        fn max_window(mut next: impl FnMut() -> SimTime) -> usize {
            let mut counts = std::collections::HashMap::new();
            for _ in 0..200_000 {
                let t = next();
                *counts.entry(t.as_nanos() / 100_000).or_insert(0usize) += 1;
            }
            counts.values().copied().max().unwrap_or(0)
        }
        let mut poisson = OpenLoop::new(1_000_000.0, 3);
        let mut bursty = BurstyLoop::new(1_000_000.0, 1.9, SimDuration::from_micros(400), 3);
        let p = max_window(|| poisson.next_arrival());
        let b = max_window(|| bursty.next_arrival());
        assert!(
            b as f64 > p as f64 * 1.15,
            "bursty max window {b} vs poisson {p}"
        );
    }

    #[test]
    fn bursty_arrivals_strictly_increase() {
        let mut src = BurstyLoop::new(500_000.0, 1.5, SimDuration::from_micros(200), 9);
        let mut prev = SimTime::ZERO;
        for _ in 0..20_000 {
            let t = src.next_arrival();
            assert!(t > prev);
            prev = t;
        }
    }

    #[test]
    #[should_panic(expected = "peak factor")]
    fn bursty_rejects_bad_factor() {
        BurstyLoop::new(1e6, 3.0, SimDuration::from_micros(100), 1);
    }

    #[test]
    fn single_lane_fan_in_is_constant_zero() {
        let mut f = IngressFanIn::new(1, 99);
        for _ in 0..1000 {
            assert_eq!(f.steer(), 0);
        }
    }

    #[test]
    fn fan_in_is_deterministic_and_in_range() {
        let mut a = IngressFanIn::new(4, 7);
        let mut b = IngressFanIn::new(4, 7);
        for _ in 0..10_000 {
            let lane = a.steer();
            assert_eq!(lane, b.steer());
            assert!(lane < 4);
        }
    }

    #[test]
    fn fan_in_spreads_roughly_evenly_but_not_round_robin() {
        let mut f = IngressFanIn::new(4, 11);
        let mut counts = [0usize; 4];
        let mut repeats = 0usize;
        let mut prev = usize::MAX;
        let n = 40_000;
        for _ in 0..n {
            let lane = f.steer();
            counts[lane] += 1;
            if lane == prev {
                repeats += 1;
            }
            prev = lane;
        }
        for (lane, &c) in counts.iter().enumerate() {
            let share = c as f64 / n as f64;
            assert!(
                (0.22..=0.28).contains(&share),
                "lane {lane} got share {share}"
            );
        }
        // Hash steering keeps back-to-back same-lane arrivals (~1/lanes
        // of the stream); strict round-robin would have none.
        assert!(repeats > n / 8, "only {repeats} back-to-back repeats");
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lane_fan_in_rejected() {
        IngressFanIn::new(0, 1);
    }
}
