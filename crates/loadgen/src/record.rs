//! Latency recording with component breakdowns.

use desim::{CriticalPath, Histogram, SimDuration, SimTime};

/// Where a request's time went (Figures 2c and 7c).
///
/// All fields are nanoseconds. Breakdowns are derived from the span
/// layer's [`CriticalPath`] attribution (see
/// [`Breakdown::from_critical_path`]): the five wall-clock components
/// plus `net_ns` partition the end-to-end latency *exactly*, so
/// [`Breakdown::total_ns`] equals the request's measured e2e latency.
/// Busy-wait time is called out separately because it is the paper's
/// villain: worker cycles burned spinning on an outstanding fetch (the
/// slashed region of Figure 2c); as wasted *cycles* it overlays the
/// wall-clock components rather than adding to them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// Dispatcher + worker queueing delay, QP-stall and reply-doorbell
    /// waits included.
    pub queueing_ns: u64,
    /// Worker cycles burned busy-waiting (fetch spins, QP-full stalls,
    /// reply-CQE spins) — an overlay on the wall-clock components,
    /// excluded from [`Breakdown::total_ns`].
    pub busywait_ns: u64,
    /// Request handling compute (application + fault handler + map +
    /// reply construction).
    pub handling_ns: u64,
    /// Stalled RDMA fetch exposure: time the request was parked on or
    /// spinning for a fetch (fetch wall time hidden under useful work
    /// is *not* charged here).
    pub rdma_ns: u64,
    /// Context-switch time (unithread switches, preemption switches).
    pub ctxswitch_ns: u64,
    /// Client↔server network time (request delivery + reply flight).
    pub net_ns: u64,
}

impl Breakdown {
    /// Sum of the disjoint wall-clock components; equals the request's
    /// end-to-end latency exactly for span-derived breakdowns.
    /// `busywait_ns` is excluded: it is a wasted-cycles overlay on the
    /// queueing/rdma wall time, reported separately.
    pub fn total_ns(&self) -> u64 {
        self.queueing_ns + self.handling_ns + self.rdma_ns + self.ctxswitch_ns + self.net_ns
    }

    /// Folds a span-layer attribution into the figure-2c/7c component
    /// scheme. The mapping keeps [`Breakdown::total_ns`] equal to
    /// `cp.e2e_ns` (the ten phases partition e2e exactly):
    ///
    /// - queueing ← dispatch + queue + qp_stall + tx_wait
    /// - handling ← handle + reply
    /// - rdma ← fetch_wait + spin (stalled fetch exposure)
    /// - ctxswitch ← ctx, net ← net
    /// - busywait ← spin + qp_stall + tx_wait (cycles burned polling;
    ///   overlay, not a component)
    pub fn from_critical_path(cp: &CriticalPath) -> Breakdown {
        Breakdown {
            queueing_ns: cp.dispatch_ns + cp.queue_ns + cp.qp_stall_ns + cp.tx_wait_ns,
            busywait_ns: cp.spin_ns + cp.qp_stall_ns + cp.tx_wait_ns,
            handling_ns: cp.handle_ns + cp.reply_ns,
            rdma_ns: cp.fetch_wait_ns + cp.spin_ns,
            ctxswitch_ns: cp.ctx_ns,
            net_ns: cp.net_ns,
        }
    }
}

/// Mean breakdown of the requests whose end-to-end latency sits around
/// a percentile (the paper plots component composition at P10/P50/P99/
/// P99.9).
#[derive(Debug, Clone, Copy, Default)]
pub struct BreakdownAt {
    /// The percentile this row describes.
    pub percentile: f64,
    /// Mean components of requests in the window around the percentile.
    pub mean: BreakdownF,
    /// Mean end-to-end latency of the same window; equals
    /// [`BreakdownF::total_ns`] up to float rounding (the components
    /// partition each request's e2e exactly).
    pub mean_e2e_ns: f64,
}

/// Fractional breakdown (means).
#[derive(Debug, Clone, Copy, Default)]
pub struct BreakdownF {
    /// See [`Breakdown::queueing_ns`].
    pub queueing_ns: f64,
    /// See [`Breakdown::busywait_ns`].
    pub busywait_ns: f64,
    /// See [`Breakdown::handling_ns`].
    pub handling_ns: f64,
    /// See [`Breakdown::rdma_ns`].
    pub rdma_ns: f64,
    /// See [`Breakdown::ctxswitch_ns`].
    pub ctxswitch_ns: f64,
    /// See [`Breakdown::net_ns`].
    pub net_ns: f64,
}

impl BreakdownF {
    /// Sum of the disjoint wall-clock components (busy-wait excluded),
    /// mirroring [`Breakdown::total_ns`].
    pub fn total_ns(&self) -> f64 {
        self.queueing_ns + self.handling_ns + self.rdma_ns + self.ctxswitch_ns + self.net_ns
    }
}

/// Collects end-to-end latencies (per request class), breakdowns and
/// drop counts over a measurement window.
pub struct Recorder {
    warmup_end: SimTime,
    measure_end: SimTime,
    overall: Histogram,
    per_class: Vec<Histogram>,
    breakdowns: Vec<(u64, Breakdown)>,
    keep_breakdowns: bool,
    completed: u64,
    completed_in_window: u64,
    dropped: u64,
    first_completion: Option<SimTime>,
    last_completion: Option<SimTime>,
}

impl Recorder {
    /// Creates a recorder measuring completions whose *reply RX time*
    /// falls in `[warmup_end, measure_end)` (steady-state completions,
    /// as a real load generator measures).
    pub fn new(warmup_end: SimTime, measure_end: SimTime, classes: usize) -> Recorder {
        Recorder {
            warmup_end,
            measure_end,
            overall: Histogram::new(),
            per_class: (0..classes.max(1)).map(|_| Histogram::new()).collect(),
            breakdowns: Vec::new(),
            keep_breakdowns: false,
            completed: 0,
            completed_in_window: 0,
            dropped: 0,
            first_completion: None,
            last_completion: None,
        }
    }

    /// Enables per-request breakdown retention (memory-proportional to
    /// completions; used by the breakdown figures only).
    pub fn keep_breakdowns(&mut self, on: bool) {
        self.keep_breakdowns = on;
    }

    /// Records a completed request.
    #[inline]
    pub fn complete(
        &mut self,
        class: u16,
        tx_time: SimTime,
        rx_time: SimTime,
        breakdown: Breakdown,
    ) {
        self.completed += 1;
        if rx_time < self.warmup_end || rx_time >= self.measure_end {
            return;
        }
        let e2e = rx_time.since(tx_time).as_nanos();
        self.overall.record(e2e);
        if let Some(h) = self.per_class.get_mut(class as usize) {
            h.record(e2e);
        }
        if self.keep_breakdowns {
            self.breakdowns.push((e2e, breakdown));
        }
        self.completed_in_window += 1;
        if self.first_completion.is_none() {
            self.first_completion = Some(rx_time);
        }
        self.last_completion = Some(rx_time);
    }

    /// Records a dropped request (RX ring or queue overflow).
    pub fn drop_request(&mut self, tx_time: SimTime) {
        if tx_time >= self.warmup_end && tx_time < self.measure_end {
            self.dropped += 1;
        }
    }

    /// The overall end-to-end latency histogram.
    pub fn overall(&self) -> &Histogram {
        &self.overall
    }

    /// Latency histogram of one request class.
    pub fn class(&self, class: u16) -> &Histogram {
        &self.per_class[class as usize]
    }

    /// Completions inside the measurement window.
    pub fn completed_in_window(&self) -> u64 {
        self.completed_in_window
    }

    /// All completions, including warm-up.
    pub fn completed_total(&self) -> u64 {
        self.completed
    }

    /// Drops inside the measurement window.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Achieved throughput over the measurement window, in requests per
    /// second.
    pub fn achieved_rps(&self) -> f64 {
        let window = self.measure_end.since(self.warmup_end);
        if window == SimDuration::ZERO {
            return 0.0;
        }
        self.completed_in_window as f64 / window.as_secs_f64()
    }

    /// The first and last completion instants inside the window (for
    /// sanity-checking that a run actually spanned its window).
    pub fn completion_span(&self) -> Option<(SimTime, SimTime)> {
        Some((self.first_completion?, self.last_completion?))
    }

    /// Mean component breakdown of requests whose latency falls in a
    /// small rank window around percentile `p` (requires
    /// [`Recorder::keep_breakdowns`]).
    pub fn breakdown_at(&mut self, p: f64) -> BreakdownAt {
        assert!(
            self.keep_breakdowns,
            "breakdown_at requires keep_breakdowns(true)"
        );
        self.breakdowns.sort_unstable_by_key(|(e2e, _)| *e2e);
        let n = self.breakdowns.len();
        if n == 0 {
            return BreakdownAt {
                percentile: p,
                mean: BreakdownF::default(),
                mean_e2e_ns: 0.0,
            };
        }
        let rank = (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n) - 1;
        // Average a ±0.05 % window (at least 11 samples) around the rank.
        let half = ((n / 2000) + 5).min(n / 2);
        let lo = rank.saturating_sub(half);
        let hi = (rank + half + 1).min(n);
        let window = &self.breakdowns[lo..hi];
        let m = window.len() as f64;
        let mut mean = BreakdownF::default();
        let mut mean_e2e_ns = 0.0;
        for (e2e, b) in window {
            mean.queueing_ns += b.queueing_ns as f64 / m;
            mean.busywait_ns += b.busywait_ns as f64 / m;
            mean.handling_ns += b.handling_ns as f64 / m;
            mean.rdma_ns += b.rdma_ns as f64 / m;
            mean.ctxswitch_ns += b.ctxswitch_ns as f64 / m;
            mean.net_ns += b.net_ns as f64 / m;
            mean_e2e_ns += *e2e as f64 / m;
        }
        BreakdownAt {
            percentile: p,
            mean,
            mean_e2e_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime(ns)
    }

    #[test]
    fn warmup_excluded() {
        let mut r = Recorder::new(t(1000), t(2000), 1);
        r.complete(0, t(500), t(600), Breakdown::default()); // warm-up
        r.complete(0, t(1500), t(1700), Breakdown::default());
        r.complete(0, t(2500), t(2600), Breakdown::default()); // after end
        assert_eq!(r.completed_in_window(), 1);
        assert_eq!(r.completed_total(), 3);
        assert_eq!(r.overall().count(), 1);
        assert_eq!(r.overall().percentile(50.0), 200);
    }

    #[test]
    fn per_class_histograms() {
        let mut r = Recorder::new(t(0), t(10_000), 2);
        r.complete(0, t(1), t(101), Breakdown::default());
        r.complete(1, t(2), t(1002), Breakdown::default());
        assert_eq!(r.class(0).count(), 1);
        assert_eq!(r.class(1).count(), 1);
        assert!(r.class(1).percentile(50.0) > r.class(0).percentile(50.0));
    }

    #[test]
    fn achieved_rps_over_window() {
        let mut r = Recorder::new(t(0), t(1_000_000), 1); // 1 ms window
        for i in 0..100 {
            r.complete(0, t(i * 10_000), t(i * 10_000 + 500), Breakdown::default());
        }
        assert!((r.achieved_rps() - 100_000.0).abs() < 1.0);
    }

    #[test]
    fn completion_span_tracks_window() {
        let mut r = Recorder::new(t(0), t(1_000_000), 1);
        assert_eq!(r.completion_span(), None);
        r.complete(0, t(100), t(500), Breakdown::default());
        r.complete(0, t(200), t(900), Breakdown::default());
        assert_eq!(r.completion_span(), Some((t(500), t(900))));
    }

    #[test]
    fn drops_counted_in_window_only() {
        let mut r = Recorder::new(t(100), t(200), 1);
        r.drop_request(t(50));
        r.drop_request(t(150));
        r.drop_request(t(250));
        assert_eq!(r.dropped(), 1);
    }

    #[test]
    fn breakdown_at_partitions_fast_and_slow() {
        let mut r = Recorder::new(t(0), t(1_000_000), 1);
        r.keep_breakdowns(true);
        // 90 fast requests: all handling; 10 slow: mostly queueing.
        for i in 0..90 {
            let b = Breakdown {
                handling_ns: 800,
                ..Default::default()
            };
            r.complete(0, t(i * 100), t(i * 100 + 800), b);
        }
        for i in 0..10 {
            let b = Breakdown {
                handling_ns: 800,
                queueing_ns: 50_000,
                ..Default::default()
            };
            r.complete(0, t(50_000 + i * 100), t(100_800 + i * 100), b);
        }
        let p50 = r.breakdown_at(50.0);
        let p99 = r.breakdown_at(99.0);
        assert!(p50.mean.queueing_ns < 10_000.0, "{:?}", p50);
        assert!(p99.mean.queueing_ns > 20_000.0, "{:?}", p99);
    }

    #[test]
    fn breakdown_total_sums_components() {
        let b = Breakdown {
            queueing_ns: 1,
            busywait_ns: 2,
            handling_ns: 3,
            rdma_ns: 4,
            ctxswitch_ns: 5,
            net_ns: 6,
        };
        assert_eq!(b.total_ns(), 19, "busywait excluded (wasted-cycle overlay)");
    }

    #[test]
    fn breakdown_from_critical_path_partitions_e2e() {
        let cp = CriticalPath {
            e2e_ns: 1_000,
            net_ns: 100,
            dispatch_ns: 50,
            queue_ns: 150,
            handle_ns: 200,
            spin_ns: 80,
            fetch_wait_ns: 220,
            qp_stall_ns: 60,
            tx_wait_ns: 40,
            ctx_ns: 70,
            reply_ns: 30,
            fetch_wall_ns: 500,
            fetch_hidden_ns: 200,
        };
        assert_eq!(cp.components_sum(), cp.e2e_ns);
        let b = Breakdown::from_critical_path(&cp);
        assert_eq!(b.total_ns(), cp.e2e_ns, "components partition e2e");
        assert_eq!(b.queueing_ns, 50 + 150 + 60 + 40);
        assert_eq!(b.rdma_ns, 220 + 80);
        assert_eq!(b.busywait_ns, 80 + 60 + 40);
        assert_eq!(b.handling_ns, 230);
        assert_eq!(b.net_ns, 100);
    }

    #[test]
    fn breakdown_at_reports_window_mean_e2e() {
        let mut r = Recorder::new(t(0), t(1_000_000), 1);
        r.keep_breakdowns(true);
        for i in 0..200u64 {
            let q = 100 + i * 10;
            let b = Breakdown {
                queueing_ns: q,
                handling_ns: 700,
                net_ns: 200,
                ..Default::default()
            };
            r.complete(0, t(i * 1_000), t(i * 1_000 + b.total_ns()), b);
        }
        for p in [10.0, 50.0, 99.0, 99.9] {
            let row = r.breakdown_at(p);
            assert!(
                (row.mean.total_ns() - row.mean_e2e_ns).abs() < 0.5,
                "p{p}: components {} vs e2e {}",
                row.mean.total_ns(),
                row.mean_e2e_ns
            );
        }
    }

    #[test]
    #[should_panic(expected = "requires keep_breakdowns")]
    fn breakdown_requires_opt_in() {
        let mut r = Recorder::new(t(0), t(1), 1);
        r.breakdown_at(50.0);
    }
}
