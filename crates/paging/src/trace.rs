//! Page-access traces.
//!
//! A request executes *for real* against a [`PagedArena`](crate::arena);
//! while it runs, a [`TraceRecorder`] captures the alternating sequence
//! of compute time and page touches. The runtime later replays the
//! [`Trace`] against the simulated cache, so residency decides *timing*
//! while the set of touched pages is exact.

/// One page touch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Page index within the arena.
    pub page: u64,
    /// Whether the touch dirties the page.
    pub write: bool,
}

/// One replay step: burn `compute_ns`, then (optionally) touch a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// CPU time consumed before the access, in nanoseconds.
    pub compute_ns: u32,
    /// The page touch ending the step, if any.
    pub access: Option<Access>,
}

/// A recorded request execution.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Request class (workload-defined, e.g. GET vs SCAN) for per-class
    /// latency reporting.
    pub class: u16,
    /// Replay steps in execution order.
    pub steps: Vec<Step>,
    /// Size of the request packet on the wire.
    pub request_bytes: u32,
    /// Size of the reply packet on the wire.
    pub reply_bytes: u32,
}

impl Trace {
    /// Total recorded compute time in nanoseconds.
    pub fn compute_ns(&self) -> u64 {
        self.steps.iter().map(|s| s.compute_ns as u64).sum()
    }

    /// Number of page touches.
    pub fn accesses(&self) -> usize {
        self.steps.iter().filter(|s| s.access.is_some()).count()
    }

    /// Distinct pages touched.
    pub fn distinct_pages(&self) -> usize {
        let mut pages: Vec<u64> = self
            .steps
            .iter()
            .filter_map(|s| s.access.map(|a| a.page))
            .collect();
        pages.sort_unstable();
        pages.dedup();
        pages.len()
    }
}

/// Memory-access cost constants charged while recording.
///
/// They model the compute node's DRAM hierarchy: a pointer-chasing load
/// over a multi-gigabyte working set costs roughly one DRAM round trip;
/// bulk copies stream at memory bandwidth.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Cost of a dependent (pointer-chasing) word access.
    pub word_access_ns: u32,
    /// Streaming cost per byte for bulk reads/writes (inverse bandwidth).
    pub byte_stream_ns: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            word_access_ns: 80,
            byte_stream_ns: 0.25,
        }
    }
}

/// Records compute time and page touches during a real execution.
#[derive(Debug)]
pub struct TraceRecorder {
    steps: Vec<Step>,
    pending_ns: f64,
    /// Small window of recently recorded pages: repeated touches of the
    /// same hot page collapse into compute cost instead of new steps
    /// (they would be guaranteed hits during replay anyway — the page's
    /// reference bit protects it for the duration of the request).
    recent: [u64; 4],
    recent_next: usize,
    cost: CostModel,
}

impl TraceRecorder {
    /// Creates a recorder with the given cost model.
    pub fn new(cost: CostModel) -> TraceRecorder {
        TraceRecorder::with_steps(cost, Vec::new())
    }

    /// Creates a recorder that records into `steps`: the buffer is
    /// cleared and its capacity kept, so a recycled [`Trace`]'s step
    /// storage serves the next request without a fresh allocation.
    #[inline]
    pub fn with_steps(cost: CostModel, mut steps: Vec<Step>) -> TraceRecorder {
        steps.clear();
        TraceRecorder {
            steps,
            pending_ns: 0.0,
            recent: [u64::MAX; 4],
            recent_next: 0,
            cost,
        }
    }

    /// Creates a default-cost recorder over `buf`'s own step storage,
    /// leaving `buf` empty until [`TraceRecorder::finish_into`] hands
    /// the steps back: the pooled request path of every generator.
    #[inline]
    pub fn reusing(buf: &mut Trace) -> TraceRecorder {
        TraceRecorder::with_steps(CostModel::default(), std::mem::take(&mut buf.steps))
    }

    /// Adds pure compute time.
    #[inline]
    pub fn compute_ns(&mut self, ns: f64) {
        self.pending_ns += ns;
    }

    /// Records a touch of `page`; dedupes against the recent window.
    #[inline]
    pub fn touch(&mut self, page: u64, write: bool) {
        if self.recent.contains(&page) {
            // Still charge the (cached) access itself.
            self.pending_ns += 4.0;
            if write {
                // A write to a recently-read page must still appear in the
                // trace once so the replay marks the page dirty.
                if !self
                    .steps
                    .iter()
                    .rev()
                    .take(8)
                    .any(|s| s.access == Some(Access { page, write: true }))
                {
                    self.flush_step(Some(Access { page, write }));
                }
            }
            return;
        }
        self.recent[self.recent_next] = page;
        self.recent_next = (self.recent_next + 1) % self.recent.len();
        self.pending_ns += self.cost.word_access_ns as f64;
        self.flush_step(Some(Access { page, write }));
    }

    /// Records a bulk access of `len` bytes starting at `addr`,
    /// touching every covered page.
    #[inline]
    pub fn touch_range(&mut self, addr: u64, len: u64, write: bool) {
        if len == 0 {
            return;
        }
        let first = crate::page_of(addr);
        let last = crate::page_of(addr + len - 1);
        self.pending_ns += self.cost.byte_stream_ns * len as f64;
        for page in first..=last {
            self.touch(page, write);
        }
    }

    #[inline]
    fn flush_step(&mut self, access: Option<Access>) {
        // Round half up without the libm `round` call: the cast
        // truncates (and saturates), and for the non-negative values
        // accrued here the remaining fraction is exact in f64, so this
        // equals `pending_ns.round() as u32`.
        let whole = self.pending_ns as u32;
        let round_up = self.pending_ns - whole as f64 >= 0.5;
        let compute = whole.saturating_add(round_up as u32);
        self.pending_ns = 0.0;
        self.steps.push(Step {
            compute_ns: compute,
            access,
        });
    }

    /// Finishes recording, producing the trace.
    #[inline]
    pub fn finish(mut self, class: u16, request_bytes: u32, reply_bytes: u32) -> Trace {
        if self.pending_ns > 0.0 {
            self.flush_step(None);
        }
        Trace {
            class,
            steps: self.steps,
            request_bytes,
            reply_bytes,
        }
    }

    /// Finishes recording into `out`, replacing every field (the step
    /// buffer moves; pair with [`TraceRecorder::reusing`] to recycle
    /// `out`'s own storage).
    #[inline]
    pub fn finish_into(self, out: &mut Trace, class: u16, request_bytes: u32, reply_bytes: u32) {
        *out = self.finish(class, request_bytes, reply_bytes);
    }
}

impl Default for TraceRecorder {
    fn default() -> Self {
        TraceRecorder::new(CostModel::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_alternating_compute_and_access() {
        let mut r = TraceRecorder::default();
        r.compute_ns(100.0);
        r.touch(5, false);
        r.compute_ns(50.0);
        let t = r.finish(0, 64, 128);
        assert_eq!(t.steps.len(), 2);
        assert_eq!(
            t.steps[0].access,
            Some(Access {
                page: 5,
                write: false
            })
        );
        assert_eq!(t.steps[0].compute_ns, 180); // 100 + word access
        assert_eq!(t.steps[1].access, None);
        assert_eq!(t.accesses(), 1);
        assert_eq!(t.reply_bytes, 128);
    }

    #[test]
    fn dedupes_recent_pages() {
        let mut r = TraceRecorder::default();
        r.touch(1, false);
        r.touch(1, false);
        r.touch(1, false);
        let t = r.finish(0, 0, 0);
        assert_eq!(t.accesses(), 1, "repeated touches collapse");
    }

    #[test]
    fn write_after_read_still_recorded() {
        let mut r = TraceRecorder::default();
        r.touch(1, false);
        r.touch(1, true); // must surface so replay dirties the page
        let t = r.finish(0, 0, 0);
        let writes = t
            .steps
            .iter()
            .filter(|s| matches!(s.access, Some(a) if a.write))
            .count();
        assert_eq!(writes, 1);
    }

    #[test]
    fn touch_range_covers_all_pages() {
        let mut r = TraceRecorder::default();
        // 3 pages: [4000, 12000) crosses pages 0, 1, 2.
        r.touch_range(4000, 8000, false);
        let t = r.finish(0, 0, 0);
        let pages: Vec<u64> = t
            .steps
            .iter()
            .filter_map(|s| s.access.map(|a| a.page))
            .collect();
        assert_eq!(pages, vec![0, 1, 2]);
    }

    #[test]
    fn touch_range_empty_is_noop() {
        let mut r = TraceRecorder::default();
        r.touch_range(100, 0, true);
        let t = r.finish(0, 0, 0);
        assert_eq!(t.steps.len(), 0);
        assert_eq!(t.compute_ns(), 0);
    }

    #[test]
    fn distinct_pages_counts_unique() {
        let mut r = TraceRecorder::default();
        r.touch(3, false);
        r.touch(9, false);
        r.touch(200, false);
        r.touch(3, false); // outside window by then? window = 4, still in
        let t = r.finish(0, 0, 0);
        assert_eq!(t.distinct_pages(), 3);
    }

    /// Recording into an adopted, pre-dirtied buffer yields the same
    /// trace as a fresh recorder and keeps the buffer's allocation.
    #[test]
    fn adopted_buffer_is_cleared_and_reused() {
        let record = |mut r: TraceRecorder| {
            r.compute_ns(10.0);
            r.touch(3, false);
            r.touch(4, true);
            r.compute_ns(5.0);
            r
        };
        let fresh = record(TraceRecorder::default()).finish(2, 64, 128);
        let mut buf = Trace {
            class: 9,
            steps: Vec::with_capacity(32),
            request_bytes: 1,
            reply_bytes: 1,
        };
        buf.steps.push(Step {
            compute_ns: 1,
            access: None,
        });
        let storage = buf.steps.as_ptr();
        record(TraceRecorder::reusing(&mut buf)).finish_into(&mut buf, 2, 64, 128);
        assert_eq!(buf.steps, fresh.steps);
        assert_eq!(
            (buf.class, buf.request_bytes, buf.reply_bytes),
            (fresh.class, fresh.request_bytes, fresh.reply_bytes)
        );
        assert_eq!(buf.steps.as_ptr(), storage, "step storage reallocated");
    }

    /// The libm-free rounding equals `round() as u32` on everything a
    /// recorder can accrue: quarter-ns multiples (byte streaming),
    /// values next to a half, and the saturating top end.
    #[test]
    fn step_rounding_matches_libm_round() {
        let mut samples: Vec<f64> = (0..40_000).map(|i| i as f64 * 0.25).collect();
        samples.extend([
            0.5f64.next_down(),
            0.5f64.next_up(),
            1e9 + 0.5,
            (1e9 + 0.5f64).next_down(),
            4_294_967_294.5,
            4_294_967_295.4,
            4_294_967_295.5,
            5e9,
            1e300,
        ]);
        for ns in samples {
            let mut r = TraceRecorder::default();
            r.compute_ns(ns);
            let t = r.finish(0, 0, 0);
            let got = t.steps.first().map_or(0, |s| s.compute_ns);
            assert_eq!(got, ns.round() as u32, "pending {ns}");
        }
    }

    #[test]
    fn compute_totals() {
        let mut r = TraceRecorder::default();
        r.compute_ns(10.0);
        r.compute_ns(15.5);
        r.touch(0, false);
        let t = r.finish(7, 0, 0);
        assert_eq!(t.class, 7);
        assert_eq!(t.compute_ns(), 26 + 80);
    }
}
