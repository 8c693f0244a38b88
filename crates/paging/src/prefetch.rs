//! Prefetching.
//!
//! Every system the paper evaluates overlaps a prefetching algorithm
//! with the page fetch (§2.3: "executing a prefetching algorithm is one
//! of the most common tasks chosen for overlapping"). Two mechanisms are
//! modelled:
//!
//! - [`SeqDetector`] — per-request sequential readahead: after two
//!   consecutive faults on adjacent pages, the prefetcher fetches a
//!   window ahead. This is what makes RocksDB SCAN and the IVF cluster
//!   walks cheap after the first few pages.
//! - A *speculative degree* (configured in the runtime): the fraction of
//!   faults on which the always-on readahead fetches one extra adjacent
//!   page even without a detected stream, modelling the OSv/DiLOS
//!   VMA readahead on random workloads (mostly wasted — it is why the
//!   measured RDMA byte rate per fault exceeds one page in Figures 2e
//!   and 7e).

/// Sequential-stream detector with exponential window growth.
#[derive(Debug, Clone)]
pub struct SeqDetector {
    last_page: u64,
    streak: u32,
    window: u32,
    max_window: u32,
}

impl Default for SeqDetector {
    fn default() -> Self {
        SeqDetector::new(8)
    }
}

impl SeqDetector {
    /// Creates a detector whose readahead window grows up to
    /// `max_window` pages.
    pub fn new(max_window: u32) -> SeqDetector {
        SeqDetector {
            last_page: u64::MAX,
            streak: 0,
            window: 1,
            max_window: max_window.max(1),
        }
    }

    /// Observes a faulting page; returns how many pages ahead to
    /// prefetch (0 = no stream detected).
    #[inline]
    pub fn on_fault(&mut self, page: u64) -> u32 {
        if page == self.last_page.wrapping_add(1) {
            self.streak += 1;
        } else {
            self.streak = 0;
            self.window = 1;
        }
        self.last_page = page;
        if self.streak >= 2 {
            self.window = (self.window * 2).min(self.max_window);
            self.window
        } else {
            0
        }
    }

    /// Current streak length (consecutive adjacent faults).
    pub fn streak(&self) -> u32 {
        self.streak
    }
}

/// Leap-style majority-trend prefetcher (Maruf & Chowdhury, ATC '20 —
/// cited by the paper as the prefetching state of the art).
///
/// Keeps a window of recent fault *deltas*; if a majority of the window
/// agrees on one delta (the "trend"), prefetch along that stride —
/// catching strided access patterns plain next-page readahead misses.
#[derive(Debug, Clone)]
pub struct LeapDetector {
    last_page: u64,
    deltas: Vec<i64>,
    next_slot: usize,
    window: u32,
    depth: u32,
    max_depth: u32,
}

impl LeapDetector {
    /// Creates a detector with a `window`-delta history and prefetch
    /// depth growing up to `max_depth` strides.
    pub fn new(window: u32, max_depth: u32) -> LeapDetector {
        LeapDetector {
            last_page: u64::MAX,
            deltas: Vec::with_capacity(window.max(2) as usize),
            next_slot: 0,
            window: window.max(2),
            depth: 1,
            max_depth: max_depth.max(1),
        }
    }

    /// Observes a faulting page; returns `(stride, count)`: prefetch
    /// pages `page + stride * i` for `i in 1..=count` (count 0 = no
    /// majority trend).
    #[inline]
    pub fn on_fault(&mut self, page: u64) -> (i64, u32) {
        if self.last_page != u64::MAX {
            let delta = page.wrapping_sub(self.last_page) as i64;
            if self.deltas.len() < self.window as usize {
                self.deltas.push(delta);
            } else {
                self.deltas[self.next_slot] = delta;
                self.next_slot = (self.next_slot + 1) % self.window as usize;
            }
        }
        self.last_page = page;
        if self.deltas.len() < 2 {
            return (0, 0);
        }
        // Boyer–Moore majority vote over the delta window (what Leap
        // actually computes).
        let mut candidate = 0i64;
        let mut count = 0i32;
        for &d in &self.deltas {
            if count == 0 {
                candidate = d;
                count = 1;
            } else if d == candidate {
                count += 1;
            } else {
                count -= 1;
            }
        }
        let votes = self.deltas.iter().filter(|&&d| d == candidate).count();
        if candidate != 0 && votes * 2 > self.deltas.len() {
            self.depth = (self.depth * 2).min(self.max_depth);
            (candidate, self.depth)
        } else {
            self.depth = 1;
            (0, 0)
        }
    }
}

#[cfg(test)]
mod leap_tests {
    use super::*;

    #[test]
    fn detects_unit_stride() {
        let mut d = LeapDetector::new(4, 8);
        assert_eq!(d.on_fault(10).1, 0);
        let (_, n) = d.on_fault(11);
        let _ = n; // one delta: below majority threshold of 2
        let (s, n) = d.on_fault(12);
        assert_eq!(s, 1);
        assert!(n >= 1);
    }

    #[test]
    fn detects_large_stride_readahead_misses() {
        let mut d = LeapDetector::new(4, 8);
        let mut found = (0, 0);
        for i in 0..6u64 {
            found = d.on_fault(100 + i * 37);
        }
        assert_eq!(found.0, 37, "majority trend is the 37-page stride");
        assert!(found.1 >= 2);
    }

    #[test]
    fn random_faults_produce_no_trend() {
        let mut d = LeapDetector::new(8, 8);
        let mut fired = 0;
        for page in [5u64, 900, 17, 30_000, 44, 2, 777, 123, 9_999] {
            if d.on_fault(page).1 > 0 {
                fired += 1;
            }
        }
        assert_eq!(fired, 0, "no majority delta in random faults");
    }

    #[test]
    fn trend_break_resets_depth() {
        let mut d = LeapDetector::new(4, 16);
        for i in 0..8u64 {
            d.on_fault(i);
        }
        // Break the stream; depth resets once the majority flips away.
        for page in [1_000u64, 5_000, 20_000, 90_000, 123_456] {
            d.on_fault(page);
        }
        let (_, n) = d.on_fault(500_000);
        assert_eq!(n, 0);
    }

    #[test]
    fn negative_stride_detected() {
        let mut d = LeapDetector::new(4, 8);
        let mut found = (0, 0);
        for i in 0..6u64 {
            found = d.on_fault(10_000 - i * 3);
        }
        assert_eq!(found.0, -3, "descending scans have negative trends");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_faults_never_prefetch() {
        let mut d = SeqDetector::new(8);
        for page in [5u64, 900, 17, 3, 44] {
            assert_eq!(d.on_fault(page), 0);
        }
    }

    #[test]
    fn sequential_stream_grows_window() {
        let mut d = SeqDetector::new(8);
        assert_eq!(d.on_fault(10), 0);
        assert_eq!(d.on_fault(11), 0); // streak 1
        assert_eq!(d.on_fault(12), 2); // streak 2: window doubles to 2
        assert_eq!(d.on_fault(13), 4);
        assert_eq!(d.on_fault(14), 8);
        assert_eq!(d.on_fault(15), 8, "capped at max_window");
    }

    #[test]
    fn break_resets_window() {
        let mut d = SeqDetector::new(8);
        for p in 10..14u64 {
            d.on_fault(p);
        }
        assert!(d.streak() >= 2);
        assert_eq!(d.on_fault(500), 0);
        assert_eq!(d.streak(), 0);
        assert_eq!(d.on_fault(501), 0);
        assert_eq!(d.on_fault(502), 2, "window restarted small");
    }

    #[test]
    fn window_never_exceeds_cap() {
        let mut d = SeqDetector::new(4);
        let mut max_seen = 0;
        for p in 0..100u64 {
            max_seen = max_seen.max(d.on_fault(p));
        }
        assert_eq!(max_seen, 4);
    }
}
