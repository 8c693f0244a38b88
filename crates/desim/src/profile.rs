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
use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;
use std::fmt::Write as _;

/// Synthetic pid under which per-core state tracks are emitted into
/// Perfetto documents — above the telemetry pid so the profiler gets
/// its own process lane in the UI.
pub const PERFETTO_PROFILE_PID: u64 = 2_000_000;

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
    /// Busy-waiting on a fetch completion (the paper's enemy).
    Spin,
    /// Idle with parked unithreads — yielded work is outstanding and
    /// the core waits for a completion to wake it.
    Park,
    /// Context switching: unithread switches, CQ polls bundled with
    /// them, and preemption costs.
    CtxSwitch,
    /// Stalled on the fetch path without spinning: paused on a full QP
    /// or waiting for a free frame (fault retry backoff).
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

/// Configuration of the profiler.
#[derive(Debug, Clone)]
pub struct ProfileConfig {
    /// Number of equal sub-windows the measurement window is split into
    /// for the folded-stack flamegraph and the Perfetto state tracks
    /// (per-core state *totals* are always window-exact regardless).
    pub flame_windows: usize,
}

impl Default for ProfileConfig {
    fn default() -> ProfileConfig {
        ProfileConfig { flame_windows: 8 }
    }
}

/// Static metric names for the queue-depth gauges the observatory
/// registers (the registry requires `&'static str` names, so dynamic
/// indices need name tables — same scheme as `trace::shard_names`).
pub mod queue_names {
    /// Workers with a dedicated runnable-queue gauge (larger worker
    /// counts are still profiled; they just lose the per-tick series).
    pub const MAX_WORKERS: usize = 16;
    /// Shard rails with dedicated send-queue / write-back gauges.
    pub const MAX_SHARDS: usize = 8;

    /// Dispatcher cores with a dedicated per-ingress depth gauge
    /// (matches `trace::dispatcher_names::MAX_DISPATCHERS`).
    pub const MAX_DISPATCHERS: usize = 16;

    /// Central dispatcher ingress queue depth.
    pub const INGRESS: &str = "q.ingress.depth";
    /// Per-dispatcher ingress slot depth (arrivals published to the
    /// dispatcher that it has not yet admitted). Registered only when
    /// the ingress plane has more than one dispatcher core.
    pub const D_INGRESS: [&str; MAX_DISPATCHERS] = [
        "q.d0.ingress.depth",
        "q.d1.ingress.depth",
        "q.d2.ingress.depth",
        "q.d3.ingress.depth",
        "q.d4.ingress.depth",
        "q.d5.ingress.depth",
        "q.d6.ingress.depth",
        "q.d7.ingress.depth",
        "q.d8.ingress.depth",
        "q.d9.ingress.depth",
        "q.d10.ingress.depth",
        "q.d11.ingress.depth",
        "q.d12.ingress.depth",
        "q.d13.ingress.depth",
        "q.d14.ingress.depth",
        "q.d15.ingress.depth",
    ];
    /// Per-worker runnable (resumed unithread) queue depth.
    pub const RUNNABLE: [&str; MAX_WORKERS] = [
        "q.w0.runnable.depth",
        "q.w1.runnable.depth",
        "q.w2.runnable.depth",
        "q.w3.runnable.depth",
        "q.w4.runnable.depth",
        "q.w5.runnable.depth",
        "q.w6.runnable.depth",
        "q.w7.runnable.depth",
        "q.w8.runnable.depth",
        "q.w9.runnable.depth",
        "q.w10.runnable.depth",
        "q.w11.runnable.depth",
        "q.w12.runnable.depth",
        "q.w13.runnable.depth",
        "q.w14.runnable.depth",
        "q.w15.runnable.depth",
    ];
    /// Per-shard outstanding send-queue entries (all QPs on the rail).
    pub const SQ: [&str; MAX_SHARDS] = [
        "q.shard0.sq.depth",
        "q.shard1.sq.depth",
        "q.shard2.sq.depth",
        "q.shard3.sq.depth",
        "q.shard4.sq.depth",
        "q.shard5.sq.depth",
        "q.shard6.sq.depth",
        "q.shard7.sq.depth",
    ];
    /// Per-shard deferred write-back queue depth.
    pub const WRITEBACK: [&str; MAX_SHARDS] = [
        "q.shard0.writeback.depth",
        "q.shard1.writeback.depth",
        "q.shard2.writeback.depth",
        "q.shard3.writeback.depth",
        "q.shard4.writeback.depth",
        "q.shard5.writeback.depth",
        "q.shard6.writeback.depth",
        "q.shard7.writeback.depth",
    ];
}

struct CoreSlot {
    label: String,
    /// Counts toward worker aggregates (`worker_spin_fraction`).
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
    flame_windows: usize,
    /// The `flame_windows + 1` sub-window boundaries in ns: sub-window
    /// `k` covers `[bounds[k], bounds[k + 1])`, `bounds[k] = w_start +
    /// window · k / flame_windows`. Fixed per run, so they are divided
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
    /// Panics when the window is inverted or `flame_windows` is zero.
    pub fn new(w_start: SimTime, w_end: SimTime, cfg: &ProfileConfig) -> CoreProfiler {
        assert!(w_end >= w_start, "inverted measurement window");
        assert!(cfg.flame_windows >= 1, "flame_windows must be positive");
        let (ws, nb) = (w_start.as_nanos(), cfg.flame_windows as u128);
        let win = (w_end.as_nanos() - ws) as u128;
        CoreProfiler {
            w_start,
            w_end,
            flame_windows: cfg.flame_windows,
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
            tiles: vec![[0; NUM_STATES]; self.flame_windows],
        });
        self.cores.len() - 1
    }

    /// Number of registered cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
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
        let nb = self.flame_windows as u64;
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
    /// tilings into a report. In debug builds, asserts the tiling
    /// invariant: each core's state durations sum to the window
    /// exactly.
    pub fn finish(mut self, queues: Vec<QueueReport>, frame_wait_ns: u64) -> ProfileReport {
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
                debug_assert_eq!(
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
            flame_windows: self.flame_windows,
            cores,
            queues,
            frame_wait_ns,
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
    /// Queue name (matches its depth-gauge name minus the suffix).
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
    /// Flame sub-windows per core.
    pub flame_windows: usize,
    /// Per-core tilings, dispatcher first.
    pub cores: Vec<CoreReport>,
    /// Per-queue summaries, fixed registration order.
    pub queues: Vec<QueueReport>,
    /// Window-clamped ns workers spent waiting for a free frame
    /// (`fetch_wait` minus this is the QP-stall share — the part the
    /// legacy `spin_ns` counter also books).
    pub frame_wait_ns: u64,
}

impl ProfileReport {
    /// Fraction of worker-core time burned in spin-class states (busy
    /// spins, TX-completion spins, QP-stall pauses — the same set the
    /// legacy `spin_ns` counter books), over the *tiled* worker time.
    /// Unlike the legacy ratio this denominator is proven by the tiling
    /// invariant rather than assumed.
    pub fn worker_spin_fraction(&self) -> f64 {
        let mut spin = 0u64;
        let mut total = 0u64;
        for c in self.cores.iter().filter(|c| c.is_worker) {
            spin += c.ns(CoreState::Spin) + c.ns(CoreState::TxWait) + c.ns(CoreState::FetchWait);
            total += c.total_ns();
        }
        let spin = spin.saturating_sub(self.frame_wait_ns);
        if total == 0 {
            0.0
        } else {
            spin as f64 / total as f64
        }
    }

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

    /// Perfetto events for the per-core state tracks: each core is a
    /// thread under the profiler's synthetic process, each sub-window
    /// is tiled by one `"X"` span per non-empty state (states laid out
    /// in [`CoreState::ALL`] order inside the sub-window, so each track
    /// is gap-free exactly like the underlying tiling).
    pub fn perfetto_events(&self) -> Vec<String> {
        let pid = PERFETTO_PROFILE_PID;
        let mut evs = Vec::new();
        evs.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\
             \"args\":{{\"name\":\"core profiler\"}}}}"
        ));
        for (tid, core) in self.cores.iter().enumerate() {
            evs.push(format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                core.label
            ));
            let win = self.window.as_nanos();
            let nb = self.flame_windows as u64;
            for (k, tile) in core.tiles.iter().enumerate() {
                // Sub-window origin, exact to the accrual boundaries.
                let base = self.w_start.as_nanos() + (win as u128 * k as u128 / nb as u128) as u64;
                let mut off = 0u64;
                for state in CoreState::ALL {
                    let ns = tile[state.idx()];
                    if ns == 0 {
                        continue;
                    }
                    evs.push(format!(
                        "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{:.3},\
                         \"dur\":{:.3},\"name\":\"{}\"}}",
                        (base + off) as f64 / 1e3,
                        ns as f64 / 1e3,
                        state.name()
                    ));
                    off += ns;
                }
            }
        }
        evs
    }

    /// Deterministic JSON object (embedded under `"profile"` in the
    /// per-run JSON).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        let _ = write!(
            out,
            "{{\"window_ns\":{},\"flame_windows\":{},\"worker_spin_fraction\":{:.6},\
             \"frame_wait_ns\":{},\"cores\":[",
            self.window.as_nanos(),
            self.flame_windows,
            self.worker_spin_fraction(),
            self.frame_wait_ns
        );
        for (i, core) in self.cores.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"label\":\"{}\",\"total_ns\":{},\"states\":{{",
                core.label,
                core.total_ns()
            );
            for (j, state) in CoreState::ALL.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":{}", state.name(), core.ns(*state));
            }
            out.push_str("}}");
        }
        out.push_str("],\"queues\":[");
        for (i, q) in self.queues.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"arrivals\":{},\"departures\":{},\"max_depth\":{},\
                 \"mean_depth\":{:.6},\"arrival_rate_hz\":{:.3},\"mean_wait_ns\":{:.3},\
                 \"wait_p50_ns\":{},\"wait_p99_ns\":{},\"wait_samples\":{},\
                 \"littles_consistency\":{:.6}}}",
                q.name,
                q.arrivals,
                q.departures,
                q.max_depth,
                q.mean_depth,
                q.arrival_rate_hz,
                q.mean_wait_ns,
                q.wait_p50_ns,
                q.wait_p99_ns,
                q.wait_samples,
                q.littles_consistency
            );
        }
        out.push_str("]}");
        out
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
        let cfg = ProfileConfig { flame_windows: 4 };
        let mut p = CoreProfiler::new(t(1_000), t(9_000), &cfg);
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
        let rep = p.finish(Vec::new(), 0);
        let core = &rep.cores[0];
        assert_eq!(core.total_ns(), 8_000);
        assert_eq!(core.ns(CoreState::Work), 1_000 + 3_000);
        assert_eq!(core.ns(CoreState::Park), 2_000);
        assert_eq!(core.ns(CoreState::Spin), 2_000);
        assert_eq!(core.ns(CoreState::Idle), 0);
        // Every flame sub-window tiles too.
        for tile in &core.tiles {
            assert_eq!(tile.iter().sum::<u64>(), 2_000);
        }
    }

    #[test]
    fn untouched_cores_are_all_idle() {
        let mut p = CoreProfiler::new(t(0), t(5_000), &ProfileConfig::default());
        p.add_core("dispatcher".into(), false);
        let rep = p.finish(Vec::new(), 0);
        assert_eq!(rep.cores[0].ns(CoreState::Idle), 5_000);
        assert_eq!(rep.cores[0].total_ns(), 5_000);
    }

    #[test]
    fn flame_subwindows_split_accruals_exactly() {
        let cfg = ProfileConfig { flame_windows: 3 };
        let mut p = CoreProfiler::new(t(0), t(10), &cfg);
        let c = p.add_core("w".into(), true);
        // One accrual spanning all three uneven sub-windows
        // ([0,3), [3,6), [6,10)).
        p.phase(c, CoreState::Work, t(10));
        let rep = p.finish(Vec::new(), 0);
        let tiles = &rep.cores[0].tiles;
        assert_eq!(tiles[0][CoreState::Work.idx()], 3);
        assert_eq!(tiles[1][CoreState::Work.idx()], 3);
        assert_eq!(tiles[2][CoreState::Work.idx()], 4);
    }

    /// Applies one pseudo-random stream of `phase` / `flush` /
    /// `set_gap` calls to a profiler whose accruals go through the
    /// boundary table and to one driven through
    /// [`CoreProfiler::accrue_reference`], and compares every tile.
    fn assert_tiles_like_the_reference(ws: u64, we: u64, flame_windows: usize, seed: u64) {
        let cfg = ProfileConfig { flame_windows };
        let new = || {
            let mut p = CoreProfiler::new(t(ws), t(we), &cfg);
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
        let fast = fast.finish(Vec::new(), 0);
        for (f, s) in fast.cores.iter().zip(&slow.cores) {
            assert_eq!(
                f.tiles, s.tiles,
                "[{ws}, {we}] / {flame_windows}, seed {seed}"
            );
            assert_eq!(f.total_ns(), we - ws);
        }
    }

    #[test]
    fn boundary_table_accrues_like_the_division_formula() {
        let mut rng = crate::rng::Rng::new(77);
        for flame_windows in [1, 3, 8] {
            // The benchmark's open-ended window, degenerate ones
            // narrower than the sub-window count, and random ones.
            assert_tiles_like_the_reference(0, u64::MAX / 2, flame_windows, 1);
            assert_tiles_like_the_reference(1_000, 1_000, flame_windows, 2);
            assert_tiles_like_the_reference(1_000, 1_005, flame_windows, 3);
            for seed in 0..40 {
                let ws = rng.gen_range(1_000_000);
                let we = ws + 1 + rng.gen_range(50_000_000);
                assert_tiles_like_the_reference(ws, we, flame_windows, seed);
            }
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
        let cfg = ProfileConfig { flame_windows: 2 };
        let mut p = CoreProfiler::new(t(0), t(1_000), &cfg);
        let d = p.add_core("dispatcher".into(), false);
        let w = p.add_core("worker0".into(), true);
        p.phase(d, CoreState::Dispatch, t(600));
        p.phase(w, CoreState::Spin, t(1_000));
        let mut q = QueueProbe::new("ingress".into(), t(0), t(1_000));
        q.enqueue(t(10));
        q.dequeue(t(20));
        let rep = p.finish(vec![q.report()], 0);
        assert!((rep.worker_spin_fraction() - 1.0).abs() < 1e-9);

        let json = rep.to_json();
        assert!(json.starts_with("{\"window_ns\":1000,"));
        assert!(json.contains("\"label\":\"dispatcher\""));
        assert!(json.contains("\"littles_consistency\""));

        let folded = rep.folded();
        assert!(folded.contains("dispatcher;dispatch;w0 500"));
        assert!(folded.contains("worker0;spin;w1 500"));

        let evs = rep.perfetto_events();
        assert!(evs.iter().any(|e| e.contains("\"thread_name\"")));
        assert!(evs.iter().any(|e| e.contains("\"name\":\"spin\"")));
    }
}
