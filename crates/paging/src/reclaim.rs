//! Reclaimer policy.
//!
//! Adios pins a dedicated reclaimer core that monitors memory use and
//! "proactively evicts pages before entering an out-of-memory state"
//! (§3.3); reclamation starts when free memory falls below a watermark
//! (15 % of local memory by default) and runs until a hysteresis target
//! is rebuilt. Conventional systems (DiLOS, Linux/kswapd in Hermit)
//! instead *wake* a reclaimer thread on pressure, paying a wake-up delay
//! during which faulting threads can stall on an empty free list.
//!
//! This module holds the pure policy arithmetic; the runtime supplies
//! the timing (wake-up delays, per-eviction cost, write-back posts).

/// How the reclaimer is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReclaimerMode {
    /// Adios: pinned thread, begins evicting as soon as free frames drop
    /// below the low watermark.
    #[default]
    Proactive,
    /// DiLOS/kswapd: woken when pressure is detected (at fault time),
    /// paying a wake-up latency before the first eviction.
    WakeUp,
}

/// Watermark configuration, in fractions of cache capacity.
#[derive(Debug, Clone, Copy)]
pub struct Watermarks {
    /// Reclamation starts when `free / capacity` drops below this
    /// (paper default: 15 %).
    pub low: f64,
    /// Reclamation stops once `free / capacity` is rebuilt to this.
    pub high: f64,
}

impl Default for Watermarks {
    fn default() -> Self {
        // The paper reclaims "immediately after reaching a certain
        // threshold" (15 %); the narrow hysteresis keeps each reclaim
        // cycle small so write-back bursts stay bounded.
        Watermarks {
            low: 0.15,
            high: 0.16,
        }
    }
}

impl Watermarks {
    /// Creates watermarks, validating the invariants.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < low <= high < 1`.
    pub const fn new(low: f64, high: f64) -> Watermarks {
        assert!(low > 0.0 && low <= high && high < 1.0, "bad watermarks");
        Watermarks { low, high }
    }

    /// Free-frame count below which reclamation must start.
    pub fn low_frames(&self, capacity: usize) -> usize {
        ((capacity as f64 * self.low).ceil() as usize).max(1)
    }

    /// Free-frame count at which reclamation stops.
    pub fn high_frames(&self, capacity: usize) -> usize {
        ((capacity as f64 * self.high).ceil() as usize).max(2)
    }

    /// Whether reclamation should start.
    pub fn should_start(&self, free: usize, capacity: usize) -> bool {
        free < self.low_frames(capacity)
    }

    /// Whether reclamation may stop.
    pub fn may_stop(&self, free: usize, capacity: usize) -> bool {
        free >= self.high_frames(capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let w = Watermarks::default();
        assert!((w.low - 0.15).abs() < 1e-9);
        // 15 % of a 1000-frame cache.
        assert_eq!(w.low_frames(1000), 150);
    }

    #[test]
    fn start_stop_logic() {
        let w = Watermarks::new(0.1, 0.2);
        assert!(w.should_start(99, 1000));
        assert!(!w.should_start(100, 1000));
        assert!(w.may_stop(200, 1000));
        assert!(!w.may_stop(199, 1000));
    }

    #[test]
    fn tiny_caches_still_have_margins() {
        let w = Watermarks::default();
        assert!(w.low_frames(1) >= 1);
        assert!(w.high_frames(1) >= w.low_frames(1));
    }

    #[test]
    #[should_panic(expected = "bad watermarks")]
    fn inverted_watermarks_panic() {
        Watermarks::new(0.5, 0.2);
    }

    /// Hysteresis: once stopped, reclamation does not immediately
    /// restart (high watermark implies above low watermark), for every
    /// capacity in the practical range.
    #[test]
    fn hysteresis() {
        let w = Watermarks::default();
        for capacity in 2usize..100_000 {
            let stop_at = w.high_frames(capacity);
            assert!(!w.should_start(stop_at, capacity), "capacity {capacity}");
        }
    }
}
