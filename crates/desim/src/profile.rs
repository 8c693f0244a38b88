//! Virtual-time core profiler and queueing observatory.
//!
//! The span layer (PR 2) answers "where did *this request's* latency
//! go"; this module answers the dual question: "where did *each core's*
//! time go". A [`CoreProfiler`] tiles every core's timeline exhaustively
//! into typed [`CoreState`]s with the same cursor discipline spans use —
//! each accrual covers exactly the interval between the core's cursor
//! and the new instant, clamped to the measurement window — so per-core
//! state durations sum to the window *exactly*: no gaps, no overlaps.
//!
//! On top of it, [`QueueProbe`]s watch every software and hardware queue
//! (dispatcher ingress, per-worker runnable, per-shard send queues,
//! deferred write-backs): depth over time, per-element waits, and a
//! Little's-law cross-check (`mean_depth ≈ arrival_rate × mean_wait`)
//! that scores each queue's own bookkeeping for consistency.
//!
//! Everything is deterministic: accruals are integer nanosecond
//! arithmetic, reports serialise with fixed-precision formatting, and
//! the profiler schedules no events of its own — enabling it never
//! perturbs a run.

use crate::hist::Histogram;
use crate::json::{Perfetto, ToJson, Writer, PERFETTO_PROFILE_PID};
use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;
use std::fmt::Write as _;

/// Number of [`CoreState`] variants (array dimension of every tile).
pub const NUM_STATES: usize = 9;

/// What a core is doing at an instant of virtual time. The nine states
/// partition each core's timeline exhaustively.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoreState {
    /// Dispatcher admission / delegated-TX recycle work.
    Dispatch,
    /// Handing a request between dispatcher and worker (either side),
    /// including work-steal transfers.
    Handoff,
    /// Useful request work: setup, compute, fault-handler entry/issue,
    /// page map, reply build.
    Work,
    /// Busy-waiting on a fetch completion (the paper's enemy), or
    /// holding the core in a fault handler paused on a full QP (§5.2)
    /// — with [`CoreState::TxWait`], the run's whole busy-wait account.
    Spin,
    /// Idle with parked unithreads — yielded work is outstanding and
    /// the core waits for a completion to wake it.
    Park,
    /// Context switching: unithread switches, CQ polls bundled with
    /// them, and preemption costs.
    CtxSwitch,
    /// Stalled on the fetch path without spinning: waiting for a free
    /// frame (fault retry backoff).
    FetchWait,
    /// Spinning on a reply-TX completion (no polling delegation).
    TxWait,
    /// Nothing to do and nothing outstanding.
    Idle,
}

impl CoreState {
    /// Every state, in the order reports serialise them.
    pub const ALL: [CoreState; NUM_STATES] = [
        CoreState::Dispatch,
        CoreState::Handoff,
        CoreState::Work,
        CoreState::Spin,
        CoreState::Park,
        CoreState::CtxSwitch,
        CoreState::FetchWait,
        CoreState::TxWait,
        CoreState::Idle,
    ];

    /// Stable lower-case name used in JSON, folded stacks and Perfetto.
    pub fn name(self) -> &'static str {
        match self {
            CoreState::Dispatch => "dispatch",
            CoreState::Handoff => "handoff",
            CoreState::Work => "work",
            CoreState::Spin => "spin",
            CoreState::Park => "park",
            CoreState::CtxSwitch => "ctx_switch",
            CoreState::FetchWait => "fetch_wait",
            CoreState::TxWait => "tx_wait",
            CoreState::Idle => "idle",
        }
    }

    fn idx(self) -> usize {
        match self {
            CoreState::Dispatch => 0,
            CoreState::Handoff => 1,
            CoreState::Work => 2,
            CoreState::Spin => 3,
            CoreState::Park => 4,
            CoreState::CtxSwitch => 5,
            CoreState::FetchWait => 6,
            CoreState::TxWait => 7,
            CoreState::Idle => 8,
        }
    }
}

/// Number of equal sub-windows the measurement window is split into
/// for the folded-stack flamegraph and the Perfetto state tracks
/// (per-core state *totals* are always window-exact regardless).
pub const FLAME_WINDOWS: usize = 8;

/// Switches the profiler on (`RunParams::profile`). It has nothing to
/// configure: the sub-window count is [`FLAME_WINDOWS`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ProfileConfig;

struct CoreSlot {
    label: String,
    /// A worker core, as opposed to a dispatcher core.
    is_worker: bool,
    /// Everything before this instant has been accrued to some state.
    cursor: SimTime,
    /// State accrued for open-ended intervals (idle/parked/stalled gaps
    /// closed by the next `flush`).
    gap: CoreState,
    /// Flame sub-window holding the last accrued instant. Accruals
    /// start at the cursor, which only advances, so the search for an
    /// interval's sub-window resumes here.
    sub: usize,
    /// ns per state per flame sub-window, measurement-window scoped.
    tiles: Vec<[u64; NUM_STATES]>,
}

/// Exhaustive per-core state accounting over the measurement window.
///
/// Discipline (mirrors `SpanBuilder::phase`):
///
/// - [`CoreProfiler::phase`] accrues `[cursor, until]` to a state and
///   advances the cursor — for *closed* intervals whose length is known
///   when they start (compute, context switches, spins).
/// - [`CoreProfiler::set_gap`] marks the state of an *open* interval
///   (idle, parked, QP-stalled); the next [`CoreProfiler::flush`]
///   accrues `[cursor, now]` to it.
/// - Accruals are clamped to `[window_start, window_end]` and the
///   cursor never moves backwards (worker virtual clocks run slightly
///   ahead of the event clock), so per-core totals tile the window
///   exactly by construction.
pub struct CoreProfiler {
    w_start: SimTime,
    w_end: SimTime,
    /// The `FLAME_WINDOWS + 1` sub-window boundaries in ns: sub-window
    /// `k` covers `[bounds[k], bounds[k + 1])`, `bounds[k] = w_start +
    /// window · k / FLAME_WINDOWS`. Fixed per run, so they are divided
    /// out once here and an accrual only compares against them.
    bounds: Vec<u64>,
    cores: Vec<CoreSlot>,
}

impl CoreProfiler {
    /// Creates a profiler for the measurement window
    /// `[w_start, w_end]`.
    ///
    /// # Panics
    ///
    /// Panics when the window is inverted.
    pub fn new(w_start: SimTime, w_end: SimTime, _: &ProfileConfig) -> CoreProfiler {
        assert!(w_end >= w_start, "inverted measurement window");
        let (ws, nb) = (w_start.as_nanos(), FLAME_WINDOWS as u128);
        let win = (w_end.as_nanos() - ws) as u128;
        CoreProfiler {
            w_start,
            w_end,
            bounds: (0..=nb).map(|k| ws + (win * k / nb) as u64).collect(),
            cores: Vec::new(),
        }
    }

    /// Registers a core and returns its index. Cores start idle with
    /// their cursor at t = 0.
    pub fn add_core(&mut self, label: String, is_worker: bool) -> usize {
        self.cores.push(CoreSlot {
            label,
            is_worker,
            cursor: SimTime::ZERO,
            gap: CoreState::Idle,
            sub: 0,
            tiles: vec![[0; NUM_STATES]; FLAME_WINDOWS],
        });
        self.cores.len() - 1
    }

    /// Accrues the window-clamped part of `[from, to]` to `state`,
    /// split exactly across flame sub-windows. `from` is the core's
    /// cursor, so successive calls never go back in time.
    fn accrue(&mut self, core: usize, state: CoreState, from: SimTime, to: SimTime) {
        let a = from.max(self.w_start).as_nanos();
        let b = to.min(self.w_end).as_nanos();
        if b <= a {
            return;
        }
        let s = state.idx();
        let slot = &mut self.cores[core];
        // `lo < b <= w_end`, the last boundary, so `k` stops in range.
        let (mut lo, mut k) = (a, slot.sub);
        while lo < b {
            let hi = self.bounds[k + 1];
            if hi <= lo {
                k += 1;
                continue;
            }
            let end = b.min(hi);
            slot.tiles[k][s] += end - lo;
            lo = end;
        }
        slot.sub = k;
    }

    /// [`CoreProfiler::accrue`] as it was before the boundary table:
    /// the sub-window index and each boundary divided out per call. The
    /// oracle of the equivalence tests.
    #[cfg(test)]
    fn accrue_reference(&mut self, core: usize, state: CoreState, from: SimTime, to: SimTime) {
        let a = from.max(self.w_start).as_nanos();
        let b = to.min(self.w_end).as_nanos();
        if b <= a {
            return;
        }
        let ws = self.w_start.as_nanos();
        let win = self.w_end.as_nanos() - ws;
        let nb = FLAME_WINDOWS as u64;
        let s = state.idx();
        let tiles = &mut self.cores[core].tiles;
        // Sub-window k covers [ws + win*k/nb, ws + win*(k+1)/nb).
        let mut lo = a;
        let mut k = if win == 0 {
            0
        } else {
            (((a - ws) as u128 * nb as u128 / win as u128) as u64).min(nb - 1)
        };
        while lo < b {
            let hi = if k + 1 >= nb {
                self.w_end.as_nanos()
            } else {
                ws + (win as u128 * (k as u128 + 1) / nb as u128) as u64
            };
            let end = b.min(hi);
            tiles[k as usize][s] += end - lo;
            lo = end;
            k += 1;
        }
    }

    /// Closes the interval `[cursor, until]` as `state` and advances
    /// the cursor. A stale `until` (behind the cursor) accrues nothing
    /// and leaves the cursor in place.
    pub fn phase(&mut self, core: usize, state: CoreState, until: SimTime) {
        let cursor = self.cores[core].cursor;
        if until <= cursor {
            return;
        }
        self.accrue(core, state, cursor, until);
        self.cores[core].cursor = until;
    }

    /// Accrues the open gap `[cursor, now]` to the core's gap state.
    /// Call when the core re-enters execution after idling, parking or
    /// stalling.
    pub fn flush(&mut self, core: usize, now: SimTime) {
        let gap = self.cores[core].gap;
        self.phase(core, gap, now);
    }

    /// Sets the state accrued for the core's current open interval.
    pub fn set_gap(&mut self, core: usize, state: CoreState) {
        self.cores[core].gap = state;
    }

    /// The core's current gap state.
    pub fn gap(&self, core: usize) -> CoreState {
        self.cores[core].gap
    }

    /// Closes every core's tail gap at the window end and freezes the
    /// tilings into a report. Asserts the tiling invariant, in release
    /// builds too: each core's state durations sum to the window
    /// exactly.
    pub fn finish(mut self, queues: Vec<QueueReport>) -> ProfileReport {
        let w_end = self.w_end;
        for c in 0..self.cores.len() {
            self.flush(c, w_end);
        }
        let window = self.w_end.since(self.w_start);
        let cores: Vec<CoreReport> = self
            .cores
            .into_iter()
            .map(|slot| {
                let mut states = [0u64; NUM_STATES];
                for tile in &slot.tiles {
                    for (acc, v) in states.iter_mut().zip(tile) {
                        *acc += v;
                    }
                }
                assert_eq!(
                    states.iter().sum::<u64>(),
                    window.as_nanos(),
                    "core `{}` tiling must sum to the measurement window",
                    slot.label
                );
                CoreReport {
                    label: slot.label,
                    is_worker: slot.is_worker,
                    states,
                    tiles: slot.tiles,
                }
            })
            .collect();
        ProfileReport {
            window,
            w_start: self.w_start,
            cores,
            queues,
        }
    }
}

/// Depth / wait instrumentation of one queue, measurement-window
/// scoped. Two usage modes:
///
/// - **FIFO** ([`QueueProbe::enqueue`] / [`QueueProbe::dequeue`]): the
///   probe keeps enqueue stamps and derives each element's wait at
///   dequeue. Valid for strictly FIFO queues.
/// - **Tracked** ([`QueueProbe::inc`] / [`QueueProbe::dec`] +
///   [`QueueProbe::wait`]): depth is counted and waits are reported by
///   the caller — for queues drained out of order (hardware send
///   queues, whose residence is known analytically at post time).
pub struct QueueProbe {
    name: String,
    w_start: SimTime,
    w_end: SimTime,
    stamps: VecDeque<SimTime>,
    depth: u64,
    max_depth: u64,
    /// Depth integral bookmark (clamped monotone).
    last: SimTime,
    /// ns·elements accumulated inside the window.
    depth_integral: u128,
    arrivals: u64,
    departures: u64,
    wait_sum_ns: u128,
    wait_hist: Histogram,
}

impl QueueProbe {
    /// Creates a probe scoped to the measurement window.
    pub fn new(name: String, w_start: SimTime, w_end: SimTime) -> QueueProbe {
        QueueProbe {
            name,
            w_start,
            w_end,
            stamps: VecDeque::new(),
            depth: 0,
            max_depth: 0,
            last: SimTime::ZERO,
            depth_integral: 0,
            arrivals: 0,
            departures: 0,
            wait_sum_ns: 0,
            wait_hist: Histogram::new(),
        }
    }

    fn in_window(&self, t: SimTime) -> bool {
        t >= self.w_start && t < self.w_end
    }

    /// Integrates the depth held since the last change over the part of
    /// `[last, now]` inside the window.
    fn advance(&mut self, now: SimTime) {
        let a = self.last.max(self.w_start);
        let b = now.min(self.w_end);
        if b > a {
            self.depth_integral += self.depth as u128 * b.since(a).as_nanos() as u128;
        }
        self.last = self.last.max(now);
    }

    /// FIFO mode: an element entered the queue.
    pub fn enqueue(&mut self, now: SimTime) -> u64 {
        self.advance(now);
        self.depth += 1;
        self.max_depth = self.max_depth.max(self.depth);
        self.stamps.push_back(now);
        if self.in_window(now) {
            self.arrivals += 1;
        }
        self.depth
    }

    /// FIFO mode: the head element left the queue; its wait is derived
    /// from the stored enqueue stamp.
    pub fn dequeue(&mut self, now: SimTime) -> u64 {
        self.advance(now);
        if let Some(at) = self.stamps.pop_front() {
            self.depth = self.depth.saturating_sub(1);
            if self.in_window(now) {
                self.departures += 1;
                let w = now.saturating_since(at).as_nanos();
                self.wait_sum_ns += w as u128;
                self.wait_hist.record(w);
            }
        }
        self.depth
    }

    /// Tracked mode: depth grew by one (wait reported separately).
    pub fn inc(&mut self, now: SimTime) -> u64 {
        self.advance(now);
        self.depth += 1;
        self.max_depth = self.max_depth.max(self.depth);
        if self.in_window(now) {
            self.arrivals += 1;
        }
        self.depth
    }

    /// Tracked mode: depth shrank by one.
    pub fn dec(&mut self, now: SimTime) -> u64 {
        self.advance(now);
        self.depth = self.depth.saturating_sub(1);
        if self.in_window(now) {
            self.departures += 1;
        }
        self.depth
    }

    /// Tracked mode: an element that entered at `at` will reside in the
    /// queue for `wait` (known analytically at post time).
    pub fn wait(&mut self, at: SimTime, wait: SimDuration) {
        if self.in_window(at) {
            self.wait_sum_ns += wait.as_nanos() as u128;
            self.wait_hist.record(wait.as_nanos());
        }
    }

    /// Current depth.
    pub fn depth(&self) -> u64 {
        self.depth
    }

    /// Freezes the probe into a report.
    pub fn report(&self) -> QueueReport {
        let win_ns = self.w_end.since(self.w_start).as_nanos();
        let mean_depth = if win_ns > 0 {
            self.depth_integral as f64 / win_ns as f64
        } else {
            0.0
        };
        let arrival_rate_hz = if win_ns > 0 {
            self.arrivals as f64 / (win_ns as f64 / 1e9)
        } else {
            0.0
        };
        let wait_samples = self.wait_hist.count();
        let mean_wait_ns = if wait_samples > 0 {
            self.wait_sum_ns as f64 / wait_samples as f64
        } else {
            0.0
        };
        // Little's law: L = λW. The predicted mean depth from arrival
        // rate × mean wait against the directly integrated depth; the
        // consistency score is the smaller ratio of the two (1.0 =
        // books balance perfectly). Near-empty queues score 1.0
        // vacuously — there is nothing to cross-check.
        let predicted = arrival_rate_hz * (mean_wait_ns / 1e9);
        let littles_consistency = if mean_depth < 1e-3 && predicted < 1e-3 {
            1.0
        } else if mean_depth <= 0.0 || predicted <= 0.0 {
            0.0
        } else {
            (mean_depth / predicted).min(predicted / mean_depth)
        };
        QueueReport {
            name: self.name.clone(),
            arrivals: self.arrivals,
            departures: self.departures,
            max_depth: self.max_depth,
            mean_depth,
            arrival_rate_hz,
            mean_wait_ns,
            wait_p50_ns: self.wait_hist.percentile(50.0),
            wait_p99_ns: self.wait_hist.percentile(99.0),
            wait_samples,
            littles_consistency,
        }
    }
}

/// One queue's measurement-window summary.
#[derive(Debug, Clone)]
pub struct QueueReport {
    /// Queue name (its depth gauge is `q.<name>.depth`).
    pub name: String,
    /// Elements entering the queue inside the window.
    pub arrivals: u64,
    /// Elements leaving the queue inside the window.
    pub departures: u64,
    /// Peak depth observed (whole run).
    pub max_depth: u64,
    /// Time-averaged depth over the window (the L of Little's law).
    pub mean_depth: f64,
    /// Arrival rate over the window (the λ).
    pub arrival_rate_hz: f64,
    /// Mean per-element wait (the W).
    pub mean_wait_ns: f64,
    /// Median wait.
    pub wait_p50_ns: u64,
    /// Tail wait.
    pub wait_p99_ns: u64,
    /// Waits sampled inside the window.
    pub wait_samples: u64,
    /// `min(L/λW, λW/L)` — 1.0 when the queue's books balance.
    pub littles_consistency: f64,
}

/// One core's tiled timeline.
#[derive(Debug, Clone)]
pub struct CoreReport {
    /// Display label (`dispatcher`, `worker0`, …).
    pub label: String,
    /// Counts toward worker aggregates.
    pub is_worker: bool,
    /// ns per state over the whole window (sums to the window exactly).
    pub states: [u64; NUM_STATES],
    /// ns per state per flame sub-window (each row sums to its
    /// sub-window).
    pub tiles: Vec<[u64; NUM_STATES]>,
}

impl CoreReport {
    /// ns accrued to `state` over the window.
    pub fn ns(&self, state: CoreState) -> u64 {
        self.states[state.idx()]
    }

    /// Total tiled ns (equals the window by the tiling invariant).
    pub fn total_ns(&self) -> u64 {
        self.states.iter().sum()
    }

    /// Fraction of the core's time in `state`.
    pub fn fraction(&self, state: CoreState) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            0.0
        } else {
            self.ns(state) as f64 / total as f64
        }
    }
}

/// The profiler's end-of-run report: per-core tilings plus the queueing
/// observatory.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// Measurement window length.
    pub window: SimDuration,
    /// Window start (virtual time).
    pub w_start: SimTime,
    /// Per-core tilings, dispatcher first.
    pub cores: Vec<CoreReport>,
    /// Per-queue summaries, fixed registration order.
    pub queues: Vec<QueueReport>,
}

impl ProfileReport {
    /// Folded-stack flamegraph text: one line per
    /// core × state × sub-window, weighted in nanoseconds —
    /// `speedscope flame.folded` or
    /// `inferno-flamegraph < flame.folded > flame.svg` render it
    /// directly.
    pub fn folded(&self) -> String {
        let mut out = String::with_capacity(4096);
        for core in &self.cores {
            for state in CoreState::ALL {
                for (k, tile) in core.tiles.iter().enumerate() {
                    let ns = tile[state.idx()];
                    if ns > 0 {
                        let _ = writeln!(out, "{};{};w{} {}", core.label, state.name(), k, ns);
                    }
                }
            }
        }
        out
    }

    /// Writes the per-core state tracks into a Perfetto document: each
    /// core is a thread under [`PERFETTO_PROFILE_PID`], each sub-window
    /// is tiled by one `"X"` span per non-empty state (states laid out
    /// in [`CoreState::ALL`] order inside the sub-window, so each track
    /// is gap-free exactly like the underlying tiling).
    pub fn write_perfetto(&self, doc: &mut Perfetto) {
        let pid = PERFETTO_PROFILE_PID;
        doc.process_name(pid, Some(0), "core profiler");
        for (tid, core) in self.cores.iter().enumerate() {
            let tid = tid as u64;
            doc.thread_name(pid, tid, &core.label);
            let win = self.window.as_nanos();
            let nb = FLAME_WINDOWS as u64;
            for (k, tile) in core.tiles.iter().enumerate() {
                // Sub-window origin, exact to the accrual boundaries.
                let base = self.w_start.as_nanos() + (win as u128 * k as u128 / nb as u128) as u64;
                let mut off = 0u64;
                for state in CoreState::ALL {
                    let ns = tile[state.idx()];
                    if ns == 0 {
                        continue;
                    }
                    doc.complete(pid, tid, base + off, ns, state.name(), None);
                    off += ns;
                }
            }
        }
    }
}

impl ToJson for ProfileReport {
    /// One deterministic JSON object (embedded under `"profile"` in the
    /// per-run JSON).
    fn write_json(&self, w: &mut Writer) {
        w.object(|w| {
            w.key("window_ns").u64(self.window.as_nanos());
            w.key("flame_windows").u64(FLAME_WINDOWS as u64);
            w.key("cores").array(|w| {
                for core in &self.cores {
                    w.object(|w| {
                        w.key("label").string(&core.label);
                        w.key("total_ns").u64(core.total_ns());
                        w.key("states").object(|w| {
                            for state in CoreState::ALL {
                                w.key(state.name()).u64(core.ns(state));
                            }
                        });
                    });
                }
            });
            w.key("queues").array(|w| {
                for q in &self.queues {
                    w.object(|w| {
                        w.key("name").string(&q.name);
                        w.key("arrivals").u64(q.arrivals);
                        w.key("departures").u64(q.departures);
                        w.key("max_depth").u64(q.max_depth);
                        w.key("mean_depth").f64(q.mean_depth, 6);
                        w.key("arrival_rate_hz").f64(q.arrival_rate_hz, 3);
                        w.key("mean_wait_ns").f64(q.mean_wait_ns, 3);
                        w.key("wait_p50_ns").u64(q.wait_p50_ns);
                        w.key("wait_p99_ns").u64(q.wait_p99_ns);
                        w.key("wait_samples").u64(q.wait_samples);
                        w.key("littles_consistency").f64(q.littles_consistency, 6);
                    });
                }
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_nanos(ns)
    }

    #[test]
    fn tiling_is_exhaustive_and_exact() {
        let mut p = CoreProfiler::new(t(1_000), t(9_000), &ProfileConfig);
        let c = p.add_core("worker0".into(), true);
        // Pre-window activity clamps to nothing.
        p.phase(c, CoreState::Work, t(500));
        // Straddles the window start.
        p.phase(c, CoreState::Work, t(2_000));
        // Open gap: park until 4 µs.
        p.set_gap(c, CoreState::Park);
        p.flush(c, t(4_000));
        // Backwards timestamp (worker clock skew): accrues nothing.
        p.phase(c, CoreState::Spin, t(3_500));
        p.phase(c, CoreState::Spin, t(6_000));
        // Runs past the window end; clamped.
        p.phase(c, CoreState::Work, t(12_000));
        let rep = p.finish(Vec::new());
        let core = &rep.cores[0];
        assert_eq!(core.total_ns(), 8_000);
        assert_eq!(core.ns(CoreState::Work), 1_000 + 3_000);
        assert_eq!(core.ns(CoreState::Park), 2_000);
        assert_eq!(core.ns(CoreState::Spin), 2_000);
        assert_eq!(core.ns(CoreState::Idle), 0);
        // Every flame sub-window tiles too.
        assert_eq!(core.tiles.len(), FLAME_WINDOWS);
        for tile in &core.tiles {
            assert_eq!(tile.iter().sum::<u64>(), 8_000 / FLAME_WINDOWS as u64);
        }
    }

    #[test]
    fn untouched_cores_are_all_idle() {
        let mut p = CoreProfiler::new(t(0), t(5_000), &ProfileConfig);
        p.add_core("dispatcher".into(), false);
        let rep = p.finish(Vec::new());
        assert_eq!(rep.cores[0].ns(CoreState::Idle), 5_000);
        assert_eq!(rep.cores[0].total_ns(), 5_000);
    }

    #[test]
    fn flame_subwindows_split_accruals_exactly() {
        let mut p = CoreProfiler::new(t(0), t(10), &ProfileConfig);
        let c = p.add_core("w".into(), true);
        // One accrual spanning all eight uneven sub-windows (boundaries
        // at 10·k/8: 0, 1, 2, 3, 5, 6, 7, 8, 10).
        p.phase(c, CoreState::Work, t(10));
        let rep = p.finish(Vec::new());
        let work: Vec<u64> = rep.cores[0]
            .tiles
            .iter()
            .map(|tile| tile[CoreState::Work.idx()])
            .collect();
        assert_eq!(work, [1, 1, 1, 2, 1, 1, 1, 2]);
    }

    /// Applies one pseudo-random stream of `phase` / `flush` /
    /// `set_gap` calls to a profiler whose accruals go through the
    /// boundary table and to one driven through
    /// [`CoreProfiler::accrue_reference`], and compares every tile.
    fn assert_tiles_like_the_reference(ws: u64, we: u64, seed: u64) {
        let new = || {
            let mut p = CoreProfiler::new(t(ws), t(we), &ProfileConfig);
            p.add_core("dispatcher".into(), false);
            p.add_core("worker0".into(), true);
            p
        };
        let (mut fast, mut slow) = (new(), new());
        // The reference's `phase`: the same cursor discipline around
        // the old accrual.
        let phase_reference = |p: &mut CoreProfiler, core: usize, state, until: SimTime| {
            let cursor = p.cores[core].cursor;
            if until > cursor {
                p.accrue_reference(core, state, cursor, until);
                p.cores[core].cursor = until;
            }
        };
        let mut rng = crate::rng::Rng::new(seed);
        let bounds = fast.bounds.clone();
        let span = (we - ws).max(1);
        let mut now = [ws.saturating_sub(span / 16); 2];
        for _ in 0..600 {
            let core = rng.gen_range(2) as usize;
            // Mostly short steps; sometimes a jump across sub-windows,
            // an instant exactly on a boundary, or a stale one.
            now[core] = match rng.gen_range(10) {
                0 => now[core].saturating_add(span / 3),
                1 => bounds[rng.gen_range(bounds.len() as u64) as usize].max(now[core]),
                _ => now[core].saturating_add(rng.gen_range(span / 200 + 2)),
            };
            let until = t(match rng.gen_range(6) {
                0 => now[core].saturating_sub(span / 50),
                _ => now[core],
            });
            let state = CoreState::ALL[rng.gen_range(NUM_STATES as u64) as usize];
            if rng.gen_bool(0.3) {
                fast.set_gap(core, state);
                slow.set_gap(core, state);
                fast.flush(core, until);
                phase_reference(&mut slow, core, state, until);
            } else {
                fast.phase(core, state, until);
                phase_reference(&mut slow, core, state, until);
            }
        }
        for core in 0..2 {
            let gap = slow.cores[core].gap;
            phase_reference(&mut slow, core, gap, t(we));
        }
        let fast = fast.finish(Vec::new());
        for (f, s) in fast.cores.iter().zip(&slow.cores) {
            assert_eq!(f.tiles, s.tiles, "[{ws}, {we}], seed {seed}");
            assert_eq!(f.total_ns(), we - ws);
        }
    }

    #[test]
    fn boundary_table_accrues_like_the_division_formula() {
        let mut rng = crate::rng::Rng::new(77);
        // The benchmark's open-ended window, degenerate ones narrower
        // than the sub-window count, and random ones.
        assert_tiles_like_the_reference(0, u64::MAX / 2, 1);
        assert_tiles_like_the_reference(1_000, 1_000, 2);
        assert_tiles_like_the_reference(1_000, 1_005, 3);
        for seed in 0..40 {
            let ws = rng.gen_range(1_000_000);
            let we = ws + 1 + rng.gen_range(50_000_000);
            assert_tiles_like_the_reference(ws, we, seed);
        }
    }

    #[test]
    fn fifo_probe_balances_littles_law() {
        // Deterministic D/D/1: arrivals every 100 ns, service 50 ns.
        let mut q = QueueProbe::new("q".into(), t(0), t(100_000));
        let mut at = 0u64;
        while at < 100_000 {
            q.enqueue(t(at));
            q.dequeue(t(at + 50));
            at += 100;
        }
        let r = q.report();
        assert_eq!(r.arrivals, 1_000);
        assert_eq!(r.wait_samples, 1_000);
        assert!((r.mean_wait_ns - 50.0).abs() < 3.0, "{}", r.mean_wait_ns);
        assert!(
            r.littles_consistency > 0.95,
            "consistency {}",
            r.littles_consistency
        );
    }

    #[test]
    fn near_empty_probe_scores_vacuously() {
        let q = QueueProbe::new("q".into(), t(0), t(1_000));
        let r = q.report();
        assert_eq!(r.littles_consistency, 1.0);
        assert_eq!(r.wait_samples, 0);
    }

    #[test]
    fn tracked_probe_integrates_depth() {
        let mut q = QueueProbe::new("sq".into(), t(0), t(1_000));
        q.inc(t(0));
        q.wait(t(0), SimDuration::from_nanos(400));
        q.inc(t(200));
        q.wait(t(200), SimDuration::from_nanos(300));
        q.dec(t(400));
        q.dec(t(500));
        let r = q.report();
        // Depth 1 over [0,200), 2 over [200,400), 1 over [400,500).
        let expect = (200.0 + 2.0 * 200.0 + 100.0) / 1_000.0;
        assert!((r.mean_depth - expect).abs() < 1e-9);
        assert_eq!(r.max_depth, 2);
        assert_eq!(r.departures, 2);
    }

    #[test]
    fn report_serialisations_are_wellformed() {
        let mut p = CoreProfiler::new(t(0), t(1_000), &ProfileConfig);
        let d = p.add_core("dispatcher".into(), false);
        let w = p.add_core("worker0".into(), true);
        p.phase(d, CoreState::Dispatch, t(600));
        p.phase(w, CoreState::Spin, t(1_000));
        let mut q = QueueProbe::new("ingress".into(), t(0), t(1_000));
        q.enqueue(t(10));
        q.dequeue(t(20));
        let rep = p.finish(vec![q.report()]);
        assert!((rep.cores[w].fraction(CoreState::Spin) - 1.0).abs() < 1e-9);

        let json = rep.to_json();
        assert!(json.starts_with("{\"window_ns\":1000,\"flame_windows\":8,"));
        assert!(json.contains("\"label\":\"dispatcher\""));
        assert!(json.contains("\"littles_consistency\""));

        // Eight 125 ns sub-windows: dispatch fills four and 100 ns of
        // the fifth.
        let folded = rep.folded();
        assert!(folded.contains("dispatcher;dispatch;w0 125"));
        assert!(folded.contains("dispatcher;dispatch;w4 100"));
        assert!(folded.contains("worker0;spin;w1 125"));

        let mut doc = Perfetto::default();
        rep.write_perfetto(&mut doc);
        let evs = doc.finish();
        assert!(evs.contains("\"name\":\"thread_name\",\"args\":{\"name\":\"worker0\"}"));
        assert!(evs.contains(
            "{\"ph\":\"X\",\"pid\":2000000,\"tid\":1,\"ts\":0.500,\"dur\":0.125,\"name\":\"spin\"}"
        ));
    }
}
