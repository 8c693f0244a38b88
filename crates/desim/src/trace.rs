//! Virtual-time tracing and per-component metrics.
//!
//! Two complementary observability primitives share this module:
//!
//! - [`Tracer`] — a sink for discrete [`TraceEvent`]s stamped with
//!   simulated time. The default [`NoopTracer`] reports itself disabled
//!   so instrumentation sites cost one branch; [`RingTracer`] keeps the
//!   most recent `capacity` events in a bounded ring and counts what it
//!   dropped, so a saturated run can still be traced with bounded
//!   memory. The ring stores fixed-size, name-free records (the
//!   `(component, name)` pair is interned to a [`TraceCode`]); text and
//!   time order are restored only at export, by [`TraceLog`].
//! - [`Metrics`] — a typed counter/gauge registry. Components register
//!   named counters ([`CounterId`]) and time-weighted gauges
//!   ([`GaugeId`]) once, then update them through copyable handles on
//!   the hot path (an indexed add — no hashing, no allocation).
//!   [`Metrics::reset`] re-bases every instrument at a window boundary,
//!   which is how the runtime scopes rates to the measurement window
//!   (warm-up activity is discarded at the warm-up→measure boundary).
//!
//! Snapshots serialize to JSON with a deterministic field order
//! (registration order), so two runs with the same seed produce
//! byte-identical output — the determinism suite relies on this.

use std::collections::VecDeque;
use std::fmt::Write as _;

use crate::time::SimTime;

/// One traced occurrence at a simulated instant.
///
/// The payload is two bare `u64`s rather than a string map: trace
/// records are produced on the simulator's hot path, where formatting
/// or allocating per event would distort the very timings being
/// observed. The meaning of `a`/`b` is per event name and documented at
/// the emitting site (`docs/MODEL.md` lists the schema).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated instant of the event.
    pub at: SimTime,
    /// Emitting component (e.g. `"dispatch"`, `"fault"`, `"reclaim"`).
    pub component: &'static str,
    /// Event name within the component.
    pub name: &'static str,
    /// First payload word (meaning depends on `name`).
    pub a: u64,
    /// Second payload word (meaning depends on `name`).
    pub b: u64,
}

impl TraceEvent {
    /// Renders the event as one deterministic JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"t\":{},\"c\":\"{}\",\"e\":\"{}\",\"a\":{},\"b\":{}}}",
            self.at.as_nanos(),
            self.component,
            self.name,
            self.a,
            self.b
        );
    }
}

/// An interned `(component, name)` pair: an index into the closed
/// [`code`] table or, past its end, into the names a [`RingTracer`]
/// interned for callers of [`Tracer::record`]. Only the [`code`]
/// constants exist outside this module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCode(u16);

/// Declares the closed table once: a [`TraceCode`] constant per pair
/// (in [`code`]) and the text each code exports as.
macro_rules! trace_codes {
    ($($id:ident = ($component:literal, $name:literal),)*) => {
        /// The closed table of events the simulator itself emits (the
        /// runtime's observer and the telemetry SLO engine): emitting
        /// through one of these codes skips interning.
        /// `docs/MODEL.md` §7 documents each event's payload.
        pub mod code {
            use super::TraceCode;

            #[allow(non_camel_case_types, clippy::upper_case_acronyms)]
            enum Idx {
                $($id,)*
            }
            $(
                #[doc = concat!("`", $component, "` / `", $name, "`.")]
                pub const $id: TraceCode = TraceCode(Idx::$id as u16);
            )*
        }

        /// Text of every [`code`] constant, indexed by the code.
        const CLOSED: &[(&str, &str)] = &[$(($component, $name),)*];
    };
}

trace_codes! {
    DISPATCH_ARRIVAL = ("dispatch", "arrival"),
    DISPATCH_DROP = ("dispatch", "drop"),
    DISPATCH_SHED = ("dispatch", "shed"),
    DISPATCH_STEAL = ("dispatch", "disp_steal"),
    DISPATCH_ADMIT = ("dispatch", "disp_admit"),
    DISPATCH_ASSIGN = ("dispatch", "assign"),
    DISPATCH_ASSIGN_LOCAL = ("dispatch", "assign_local"),
    WORKER_SPIN = ("worker", "spin"),
    WORKER_STEAL = ("worker", "steal"),
    WORKER_SEG_START = ("worker", "seg_start"),
    WORKER_SEG_RESUME = ("worker", "seg_resume"),
    WORKER_SEG_AFTER_SPIN = ("worker", "seg_after_spin"),
    WORKER_SEG_RETRY = ("worker", "seg_retry"),
    WORKER_SEG_ABORT = ("worker", "seg_abort"),
    WORKER_PREEMPT = ("worker", "preempt"),
    WORKER_COMPLETE = ("worker", "complete"),
    FAULT_ABORT = ("fault", "abort"),
    FAULT_COALESCE = ("fault", "coalesce"),
    FAULT_MISS = ("fault", "miss"),
    FAULT_QP_STALL = ("fault", "qp_stall"),
    FAULT_RETRANSMIT = ("fault", "retransmit"),
    FAULT_FETCH_ERROR = ("fault", "fetch_error"),
    FAULT_FAILOVER = ("fault", "failover"),
    FAULT_CHAIN_FAIL = ("fault", "chain_fail"),
    FAULT_PREFETCH = ("fault", "prefetch"),
    FAULT_FETCH_FAILED = ("fault", "fetch_failed"),
    RECLAIM_DIRECT = ("reclaim", "direct"),
    RECLAIM_TICK = ("reclaim", "tick"),
    RECLAIM_WRITEBACK = ("reclaim", "writeback"),
    NIC_FETCH_DONE = ("nic", "fetch_done"),
    NIC_CQE_RETIRE = ("nic", "cqe_retire"),
    SLO_BREACH_BEGIN = ("slo", "breach_begin"),
    SLO_BREACH_END = ("slo", "breach_end"),
}

/// What the ring stores per event: 32 bytes, no text.
#[derive(Debug, Clone, Copy)]
struct Record {
    at: SimTime,
    a: u64,
    b: u64,
    code: TraceCode,
}

impl Record {
    /// Restores the text of the record's code (`interned` is the
    /// owning ring's extension of the closed table).
    fn expand(&self, interned: &[(&'static str, &'static str)]) -> TraceEvent {
        let i = self.code.0 as usize;
        let (component, name) = match CLOSED.get(i) {
            Some(&pair) => pair,
            None => interned[i - CLOSED.len()],
        };
        TraceEvent {
            at: self.at,
            component,
            name,
            a: self.a,
            b: self.b,
        }
    }
}

/// A sink for trace events.
pub trait Tracer {
    /// Whether events should be produced at all. Instrumentation sites
    /// check this before building a [`TraceEvent`], so a disabled
    /// tracer costs one call per site.
    fn enabled(&self) -> bool;
    /// Records one event (ignored by disabled tracers).
    fn record(&mut self, ev: TraceEvent);
    /// Removes and returns every buffered event, oldest first.
    fn drain(&mut self) -> Vec<TraceEvent>;
    /// Events discarded because the buffer was full.
    fn dropped(&self) -> u64;
}

/// The zero-cost default: never enabled, never stores anything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopTracer;

impl Tracer for NoopTracer {
    fn enabled(&self) -> bool {
        false
    }
    fn record(&mut self, _ev: TraceEvent) {}
    fn drain(&mut self) -> Vec<TraceEvent> {
        Vec::new()
    }
    fn dropped(&self) -> u64 {
        0
    }
}

/// Largest ring allocated up front; a larger `capacity` (it is caller
/// input) grows past this on demand instead of reserving it all.
const EAGER_RECORDS: usize = 1 << 20;

/// A bounded ring of the most recent events.
///
/// Two entry points feed one storage format: [`RingTracer::emit`] takes
/// an already-interned [`TraceCode`] (what the simulator's own sites
/// use), and [`Tracer::record`] interns a [`TraceEvent`]'s
/// `(component, name)` first — any `&'static str` pair is accepted.
#[derive(Debug)]
pub struct RingTracer {
    buf: VecDeque<Record>,
    capacity: usize,
    dropped: u64,
    /// Pairs outside the closed table, in first-seen order; code
    /// `CLOSED.len() + i` names `interned[i]`.
    interned: Vec<(&'static str, &'static str)>,
    /// The pair [`Tracer::record`] interned last: a site that emits one
    /// event repeatedly is recognised by address, without a search.
    last: Option<(&'static str, &'static str, TraceCode)>,
}

impl RingTracer {
    /// Creates a tracer retaining at most `capacity` events. The ring
    /// is allocated here, once (its pages are first touched as events
    /// arrive).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> RingTracer {
        assert!(capacity > 0, "tracer needs capacity");
        RingTracer {
            buf: VecDeque::with_capacity(capacity.min(EAGER_RECORDS)),
            capacity,
            dropped: 0,
            interned: Vec::new(),
            last: None,
        }
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Records one event by code (one of the [`code`] constants — the
    /// only codes there are outside this module).
    #[inline]
    pub fn emit(&mut self, at: SimTime, code: TraceCode, a: u64, b: u64) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(Record { at, a, b, code });
    }

    fn intern(&mut self, component: &'static str, name: &'static str) -> TraceCode {
        if let Some((c, n, code)) = self.last {
            if std::ptr::eq(c, component) && std::ptr::eq(n, name) {
                return code;
            }
        }
        let known = CLOSED
            .iter()
            .chain(&self.interned)
            .position(|&(c, n)| c == component && n == name);
        let idx = known.unwrap_or_else(|| {
            self.interned.push((component, name));
            CLOSED.len() + self.interned.len() - 1
        });
        let code = TraceCode(u16::try_from(idx).expect("over 65 536 distinct trace event names"));
        self.last = Some((component, name, code));
        code
    }

    /// Every buffered event, oldest first, as a [`TraceLog`]. The ring's
    /// buffer becomes the log's — nothing is copied or expanded.
    pub fn into_log(self) -> TraceLog {
        TraceLog {
            records: Vec::from(self.buf),
            interned: self.interned,
        }
    }
}

impl Tracer for RingTracer {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, ev: TraceEvent) {
        let code = self.intern(ev.component, ev.name);
        self.emit(ev.at, code, ev.a, ev.b);
    }

    fn drain(&mut self) -> Vec<TraceEvent> {
        let interned = &self.interned;
        self.buf.drain(..).map(|r| r.expand(interned)).collect()
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Insertion steps per record [`TraceLog::sort_by_time`] spends before
/// it hands the rest to the general merge sort.
const SKEW_BUDGET: usize = 64;

/// The events taken out of a [`RingTracer`], still in their compact
/// form; text is produced by the accessors that export
/// ([`TraceLog::iter`], [`TraceLog::to_json`]).
#[derive(Debug, Clone)]
pub struct TraceLog {
    records: Vec<Record>,
    interned: Vec<(&'static str, &'static str)>,
}

impl TraceLog {
    /// Number of events.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log holds no events.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The events, in the log's current order.
    pub fn iter(&self) -> Events<'_> {
        Events {
            records: self.records.iter(),
            interned: &self.interned,
        }
    }

    /// Orders the events by instant, equal instants keeping their
    /// relative order — exactly `sort_by_key(|e| e.at)`, in place.
    ///
    /// Emission order is almost time order (worker virtual clocks run
    /// a bounded skew ahead of the event clock), so this is an
    /// insertion sort: linear while records sit within a bounded
    /// distance of their place. Input that is not like that exhausts
    /// the step budget and falls through to the merge sort; the
    /// insertions made until then were themselves stable, so the result
    /// is the same.
    pub fn sort_by_time(&mut self) {
        let v = &mut self.records[..];
        let budget = SKEW_BUDGET.saturating_mul(v.len());
        let mut steps = 0;
        for i in 1..v.len() {
            let rec = v[i];
            let mut j = i;
            while j > 0 && v[j - 1].at > rec.at {
                v[j] = v[j - 1];
                j -= 1;
            }
            v[j] = rec;
            steps += i - j;
            if steps > budget {
                v.sort_by_key(|r| r.at);
                return;
            }
        }
    }

    /// Renders the events as a deterministic JSON array (the bytes
    /// [`trace_to_json`] produces for the same events).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2 + 64 * self.records.len());
        write_json_array(&mut out, self.iter());
        out
    }
}

/// Iterator over a [`TraceLog`]'s events, expanding each to a
/// [`TraceEvent`] as it is read.
#[derive(Debug, Clone)]
pub struct Events<'a> {
    records: std::slice::Iter<'a, Record>,
    interned: &'a [(&'static str, &'static str)],
}

impl Iterator for Events<'_> {
    type Item = TraceEvent;

    fn next(&mut self) -> Option<TraceEvent> {
        self.records.next().map(|r| r.expand(self.interned))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.records.size_hint()
    }
}

impl ExactSizeIterator for Events<'_> {}

impl<'a> IntoIterator for &'a TraceLog {
    type Item = TraceEvent;
    type IntoIter = Events<'a>;

    fn into_iter(self) -> Events<'a> {
        self.iter()
    }
}

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered time-weighted gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

#[derive(Debug, Clone)]
struct Counter {
    name: &'static str,
    value: u64,
}

#[derive(Debug, Clone)]
struct Gauge {
    name: &'static str,
    last: f64,
    max: f64,
    /// Time integral of the gauge value (value × ns) since the last
    /// reset, up to `since`.
    integral: f64,
    since: SimTime,
}

/// The counter/gauge registry one simulation owns.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    counters: Vec<Counter>,
    gauges: Vec<Gauge>,
    reset_at: SimTime,
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Registers a counter; the returned handle is valid for the
    /// registry's lifetime.
    pub fn counter(&mut self, name: &'static str) -> CounterId {
        debug_assert!(
            self.counters.iter().all(|c| c.name != name),
            "duplicate counter {name}"
        );
        self.counters.push(Counter { name, value: 0 });
        CounterId(self.counters.len() - 1)
    }

    /// Registers a time-weighted gauge starting at 0.
    pub fn gauge(&mut self, name: &'static str) -> GaugeId {
        debug_assert!(
            self.gauges.iter().all(|g| g.name != name),
            "duplicate gauge {name}"
        );
        self.gauges.push(Gauge {
            name,
            last: 0.0,
            max: 0.0,
            integral: 0.0,
            since: SimTime::ZERO,
        });
        GaugeId(self.gauges.len() - 1)
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0].value += n;
    }

    /// Adds 1 to a counter.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// Current value of a counter.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0].value
    }

    /// Sets a gauge to `value` at simulated instant `now`, accumulating
    /// the time the previous value was held.
    ///
    /// Updates with `now` earlier than the gauge's last update are
    /// tolerated (worker virtual clocks run slightly ahead of the event
    /// clock): the value is adopted without accruing negative time.
    #[inline]
    pub fn gauge_set(&mut self, id: GaugeId, now: SimTime, value: f64) {
        let g = &mut self.gauges[id.0];
        if now > g.since {
            g.integral += g.last * now.since(g.since).as_nanos() as f64;
            g.since = now;
        }
        g.last = value;
        if value > g.max {
            g.max = value;
        }
    }

    /// Iterates `(name, value)` over every registered counter in
    /// registration order. Registration order is deterministic, so the
    /// telemetry flight recorder can index its per-counter series by
    /// position.
    pub fn counters_iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|c| (c.name, c.value))
    }

    /// Iterates `(name, current value)` over every registered gauge in
    /// registration order.
    pub fn gauges_iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.gauges.iter().map(|g| (g.name, g.last))
    }

    /// Re-bases every instrument at `now`: counters return to zero,
    /// gauges keep their current value but forget their history (max
    /// and time integral restart). Called at the warm-up→measure
    /// boundary so every rate covers only the measurement window.
    pub fn reset(&mut self, now: SimTime) {
        for c in &mut self.counters {
            c.value = 0;
        }
        for g in &mut self.gauges {
            g.integral = 0.0;
            g.max = g.last;
            g.since = now;
        }
        self.reset_at = now;
    }

    /// Takes a snapshot at `now`; gauge means are time-weighted over
    /// the interval since the last [`Metrics::reset`] (or creation).
    pub fn snapshot(&self, now: SimTime) -> MetricsSnapshot {
        let window = now.saturating_since(self.reset_at).as_nanos() as f64;
        MetricsSnapshot {
            counters: self.counters.iter().map(|c| (c.name, c.value)).collect(),
            gauges: self
                .gauges
                .iter()
                .map(|g| {
                    let extra = if now > g.since {
                        g.last * now.since(g.since).as_nanos() as f64
                    } else {
                        0.0
                    };
                    GaugeSnapshot {
                        name: g.name,
                        last: g.last,
                        max: g.max,
                        mean: if window > 0.0 {
                            (g.integral + extra) / window
                        } else {
                            g.last
                        },
                    }
                })
                .collect(),
            window_ns: window as u64,
        }
    }
}

/// Point-in-time view of one gauge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugeSnapshot {
    /// Registered name.
    pub name: &'static str,
    /// Value at snapshot time.
    pub last: f64,
    /// Maximum value observed since the last reset.
    pub max: f64,
    /// Time-weighted mean since the last reset.
    pub mean: f64,
}

/// Frozen registry contents, in registration order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` per registered counter.
    pub counters: Vec<(&'static str, u64)>,
    /// One entry per registered gauge.
    pub gauges: Vec<GaugeSnapshot>,
    /// Length of the interval the snapshot covers, ns.
    pub window_ns: u64,
}

impl MetricsSnapshot {
    /// Looks a counter up by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Looks a gauge up by name.
    pub fn gauge(&self, name: &str) -> Option<&GaugeSnapshot> {
        self.gauges.iter().find(|g| g.name == name)
    }

    /// Renders the snapshot as one deterministic JSON object
    /// (registration order; floats at fixed precision).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"window_ns\":");
        let _ = write!(out, "{}", self.window_ns);
        out.push_str(",\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{v}");
        }
        out.push_str("},\"gauges\":{");
        for (i, g) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"last\":{:.3},\"max\":{:.3},\"mean\":{:.6}}}",
                g.name, g.last, g.max, g.mean
            );
        }
        out.push_str("}}");
        out
    }
}

/// Static per-shard metric names.
///
/// [`Metrics::counter`] and [`Metrics::gauge`] take `&'static str`, so
/// per-shard names cannot be formatted at run time; this table holds
/// them for up to [`shard_names::MAX_SHARDS`] shards. The schema is the
/// sharded simulation's contract with external consumers (held by
/// `tests/properties.rs::sharded_counters_sum_to_run_totals`, which
/// reads the registry through this table): per shard `N`, the
/// counters `shardN.fetches`, `shardN.fetch_retransmits`,
/// `shardN.fetch_cqe_errors`, `shardN.fetch_failovers` and
/// `shardN.fetch_chain_failures`, plus the `shardN.qp_outstanding`
/// gauge. Single-shard runs register none of them, keeping their
/// metrics JSON bit-identical to pre-sharding output.
pub mod shard_names {
    /// Highest shard count the static name tables cover.
    pub const MAX_SHARDS: usize = 8;

    /// READ posts (demand attempts + prefetches) routed to the shard.
    pub const FETCHES: [&str; MAX_SHARDS] = [
        "shard0.fetches",
        "shard1.fetches",
        "shard2.fetches",
        "shard3.fetches",
        "shard4.fetches",
        "shard5.fetches",
        "shard6.fetches",
        "shard7.fetches",
    ];

    /// RC retransmissions burned by the shard's fetches.
    pub const RETRANSMITS: [&str; MAX_SHARDS] = [
        "shard0.fetch_retransmits",
        "shard1.fetch_retransmits",
        "shard2.fetch_retransmits",
        "shard3.fetch_retransmits",
        "shard4.fetch_retransmits",
        "shard5.fetch_retransmits",
        "shard6.fetch_retransmits",
        "shard7.fetch_retransmits",
    ];

    /// Error CQEs surfaced by the shard's demand-fetch chains.
    pub const CQE_ERRORS: [&str; MAX_SHARDS] = [
        "shard0.fetch_cqe_errors",
        "shard1.fetch_cqe_errors",
        "shard2.fetch_cqe_errors",
        "shard3.fetch_cqe_errors",
        "shard4.fetch_cqe_errors",
        "shard5.fetch_cqe_errors",
        "shard6.fetch_cqe_errors",
        "shard7.fetch_cqe_errors",
    ];

    /// Fetches re-mapped onto the next replica of the shard's chain.
    pub const FAILOVERS: [&str; MAX_SHARDS] = [
        "shard0.fetch_failovers",
        "shard1.fetch_failovers",
        "shard2.fetch_failovers",
        "shard3.fetch_failovers",
        "shard4.fetch_failovers",
        "shard5.fetch_failovers",
        "shard6.fetch_failovers",
        "shard7.fetch_failovers",
    ];

    /// Chains that exhausted the shard's replicas or attempt budget.
    pub const CHAIN_FAILURES: [&str; MAX_SHARDS] = [
        "shard0.fetch_chain_failures",
        "shard1.fetch_chain_failures",
        "shard2.fetch_chain_failures",
        "shard3.fetch_chain_failures",
        "shard4.fetch_chain_failures",
        "shard5.fetch_chain_failures",
        "shard6.fetch_chain_failures",
        "shard7.fetch_chain_failures",
    ];

    /// Outstanding work requests on the shard's NIC rail.
    pub const QP_OUTSTANDING: [&str; MAX_SHARDS] = [
        "shard0.qp_outstanding",
        "shard1.qp_outstanding",
        "shard2.qp_outstanding",
        "shard3.qp_outstanding",
        "shard4.qp_outstanding",
        "shard5.qp_outstanding",
        "shard6.qp_outstanding",
        "shard7.qp_outstanding",
    ];

    /// Fraction of decayed page heat landing on the shard (memory
    /// observatory; registered only when the observatory is enabled).
    pub const HEAT_SHARE: [&str; MAX_SHARDS] = [
        "shard0.heat_share",
        "shard1.heat_share",
        "shard2.heat_share",
        "shard3.heat_share",
        "shard4.heat_share",
        "shard5.heat_share",
        "shard6.heat_share",
        "shard7.heat_share",
    ];

    /// Smoothed RTT estimate of the shard's NIC rail, microseconds.
    pub const SRTT_US: [&str; MAX_SHARDS] = [
        "shard0.srtt_us",
        "shard1.srtt_us",
        "shard2.srtt_us",
        "shard3.srtt_us",
        "shard4.srtt_us",
        "shard5.srtt_us",
        "shard6.srtt_us",
        "shard7.srtt_us",
    ];

    /// RTT variance estimate of the shard's NIC rail, microseconds.
    pub const RTTVAR_US: [&str; MAX_SHARDS] = [
        "shard0.rttvar_us",
        "shard1.rttvar_us",
        "shard2.rttvar_us",
        "shard3.rttvar_us",
        "shard4.rttvar_us",
        "shard5.rttvar_us",
        "shard6.rttvar_us",
        "shard7.rttvar_us",
    ];

    /// Base (un-backed-off) retransmission timeout the shard's rail
    /// would arm next, microseconds.
    pub const RTO_US: [&str; MAX_SHARDS] = [
        "shard0.rto_us",
        "shard1.rto_us",
        "shard2.rto_us",
        "shard3.rto_us",
        "shard4.rto_us",
        "shard5.rto_us",
        "shard6.rto_us",
        "shard7.rto_us",
    ];
}

/// Static per-tenant counter names. Same rationale as [`shard_names`]:
/// [`Metrics::counter`] takes `&'static str`, so the tenant plane
/// pre-bakes names for up to [`tenant_names::MAX_TENANTS`] tenants. The
/// schema is the multi-tenant simulation's contract with external
/// consumers (held by the runtime's
/// `overloaded_mix_sheds_low_priority_and_conserves_requests`, which
/// reads the registry through this table): per tenant `N`, the
/// counters `tenantN.arrivals`, `tenantN.admitted`,
/// `tenantN.completions`, `tenantN.sheds` and `tenantN.drops`.
/// Single-tenant runs register none of them, keeping their metrics
/// JSON bit-identical to pre-tenant output.
pub mod tenant_names {
    /// Highest tenant count the static name tables cover.
    pub const MAX_TENANTS: usize = 8;

    /// Requests generated for the tenant (offered load).
    pub const ARRIVALS: [&str; MAX_TENANTS] = [
        "tenant0.arrivals",
        "tenant1.arrivals",
        "tenant2.arrivals",
        "tenant3.arrivals",
        "tenant4.arrivals",
        "tenant5.arrivals",
        "tenant6.arrivals",
        "tenant7.arrivals",
    ];

    /// Requests that passed admission into the dispatcher queue.
    pub const ADMITTED: [&str; MAX_TENANTS] = [
        "tenant0.admitted",
        "tenant1.admitted",
        "tenant2.admitted",
        "tenant3.admitted",
        "tenant4.admitted",
        "tenant5.admitted",
        "tenant6.admitted",
        "tenant7.admitted",
    ];

    /// Requests the tenant completed with a reply.
    pub const COMPLETIONS: [&str; MAX_TENANTS] = [
        "tenant0.completions",
        "tenant1.completions",
        "tenant2.completions",
        "tenant3.completions",
        "tenant4.completions",
        "tenant5.completions",
        "tenant6.completions",
        "tenant7.completions",
    ];

    /// Requests rejected by admission control (token bucket empty or
    /// low-priority past the shed watermark).
    pub const SHEDS: [&str; MAX_TENANTS] = [
        "tenant0.sheds",
        "tenant1.sheds",
        "tenant2.sheds",
        "tenant3.sheds",
        "tenant4.sheds",
        "tenant5.sheds",
        "tenant6.sheds",
        "tenant7.sheds",
    ];

    /// Requests lost to queue overflow or fault aborts.
    pub const DROPS: [&str; MAX_TENANTS] = [
        "tenant0.drops",
        "tenant1.drops",
        "tenant2.drops",
        "tenant3.drops",
        "tenant4.drops",
        "tenant5.drops",
        "tenant6.drops",
        "tenant7.drops",
    ];
}

/// Static per-dispatcher metric names.
///
/// Same discipline as [`shard_names`]: [`Metrics::counter`] and
/// [`Metrics::gauge`] take `&'static str`, so per-dispatcher names live
/// in a static table covering up to
/// [`dispatcher_names::MAX_DISPATCHERS`] ingress cores. The schema is
/// the multi-dispatcher simulation's contract with external consumers
/// (held by `tests/properties.rs::steals_never_dispatch_a_request_twice`
/// and the runtime's `flat_combining_amortises_admissions`, which read
/// the registry through this table): per dispatcher `N`, the counters
/// `dispatcherN.admitted`, `dispatcherN.steals` and
/// `dispatcherN.combines`, plus the `dispatcherN.busy_fraction` gauge.
/// Single-dispatcher runs register none of them (the lone core keeps
/// the scalar `dispatcher.busy_fraction` gauge), keeping their metrics
/// JSON bit-identical to pre-scaling output.
pub mod dispatcher_names {
    /// Highest dispatcher count the static name tables cover.
    pub const MAX_DISPATCHERS: usize = 16;

    /// Requests admitted by the dispatcher (steals included).
    pub const ADMITTED: [&str; MAX_DISPATCHERS] = [
        "dispatcher0.admitted",
        "dispatcher1.admitted",
        "dispatcher2.admitted",
        "dispatcher3.admitted",
        "dispatcher4.admitted",
        "dispatcher5.admitted",
        "dispatcher6.admitted",
        "dispatcher7.admitted",
        "dispatcher8.admitted",
        "dispatcher9.admitted",
        "dispatcher10.admitted",
        "dispatcher11.admitted",
        "dispatcher12.admitted",
        "dispatcher13.admitted",
        "dispatcher14.admitted",
        "dispatcher15.admitted",
    ];

    /// Arrivals this dispatcher admitted away from a busier sibling's
    /// ingress slot (`DispatchPolicy::WorkStealing`).
    pub const STEALS: [&str; MAX_DISPATCHERS] = [
        "dispatcher0.steals",
        "dispatcher1.steals",
        "dispatcher2.steals",
        "dispatcher3.steals",
        "dispatcher4.steals",
        "dispatcher5.steals",
        "dispatcher6.steals",
        "dispatcher7.steals",
        "dispatcher8.steals",
        "dispatcher9.steals",
        "dispatcher10.steals",
        "dispatcher11.steals",
        "dispatcher12.steals",
        "dispatcher13.steals",
        "dispatcher14.steals",
        "dispatcher15.steals",
    ];

    /// Arrivals absorbed into a batch this dispatcher opened as the
    /// combiner (`DispatchPolicy::FlatCombining`; the opener itself is
    /// not counted).
    pub const COMBINES: [&str; MAX_DISPATCHERS] = [
        "dispatcher0.combines",
        "dispatcher1.combines",
        "dispatcher2.combines",
        "dispatcher3.combines",
        "dispatcher4.combines",
        "dispatcher5.combines",
        "dispatcher6.combines",
        "dispatcher7.combines",
        "dispatcher8.combines",
        "dispatcher9.combines",
        "dispatcher10.combines",
        "dispatcher11.combines",
        "dispatcher12.combines",
        "dispatcher13.combines",
        "dispatcher14.combines",
        "dispatcher15.combines",
    ];

    /// Busy/idle square wave of the dispatcher core (mirrors the scalar
    /// `dispatcher.busy_fraction` gauge of single-dispatcher runs).
    pub const BUSY_FRACTION: [&str; MAX_DISPATCHERS] = [
        "dispatcher0.busy_fraction",
        "dispatcher1.busy_fraction",
        "dispatcher2.busy_fraction",
        "dispatcher3.busy_fraction",
        "dispatcher4.busy_fraction",
        "dispatcher5.busy_fraction",
        "dispatcher6.busy_fraction",
        "dispatcher7.busy_fraction",
        "dispatcher8.busy_fraction",
        "dispatcher9.busy_fraction",
        "dispatcher10.busy_fraction",
        "dispatcher11.busy_fraction",
        "dispatcher12.busy_fraction",
        "dispatcher13.busy_fraction",
        "dispatcher14.busy_fraction",
        "dispatcher15.busy_fraction",
    ];
}

fn write_json_array(out: &mut String, events: impl Iterator<Item = TraceEvent>) {
    out.push('[');
    for (i, ev) in events.enumerate() {
        if i > 0 {
            out.push(',');
        }
        ev.write_json(out);
    }
    out.push(']');
}

/// Renders a slice of trace events as a deterministic JSON array.
pub fn trace_to_json(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    write_json_array(&mut out, events.iter().copied());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, name: &'static str) -> TraceEvent {
        TraceEvent {
            at: SimTime(t),
            component: "test",
            name,
            a: t,
            b: 0,
        }
    }

    #[test]
    fn noop_is_disabled_and_empty() {
        let mut t = NoopTracer;
        assert!(!t.enabled());
        t.record(ev(1, "x"));
        assert!(t.drain().is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_drops() {
        let mut t = RingTracer::new(3);
        assert!(t.enabled());
        for i in 0..5 {
            t.record(ev(i, "e"));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let drained: Vec<u64> = t.drain().iter().map(|e| e.at.as_nanos()).collect();
        assert_eq!(drained, vec![2, 3, 4]);
        assert!(t.is_empty());
    }

    #[test]
    #[should_panic(expected = "tracer needs capacity")]
    fn zero_capacity_rejected() {
        RingTracer::new(0);
    }

    #[test]
    fn ring_record_fits_32_bytes() {
        assert!(std::mem::size_of::<Record>() <= 32);
    }

    #[test]
    fn closed_codes_export_their_pair() {
        let mut t = RingTracer::new(4);
        t.emit(SimTime(1), code::DISPATCH_ARRIVAL, 0, 0);
        t.emit(SimTime(2), code::NIC_CQE_RETIRE, 0, 0);
        t.emit(SimTime(3), code::SLO_BREACH_END, 0, 0);
        let names: Vec<_> = t.drain().iter().map(|e| (e.component, e.name)).collect();
        assert_eq!(
            names,
            [
                ("dispatch", "arrival"),
                ("nic", "cqe_retire"),
                ("slo", "breach_end")
            ]
        );
        // The table is a set: no pair is declared twice.
        for (i, pair) in CLOSED.iter().enumerate() {
            assert!(!CLOSED[..i].contains(pair), "{pair:?} declared twice");
        }
    }

    #[test]
    fn record_interns_by_content_not_address() {
        let mut t = RingTracer::new(16);
        // A closed pair through the adaptor lands on the closed code.
        t.record(ev(1, "x"));
        t.record(TraceEvent {
            component: "fault",
            name: "miss",
            ..ev(2, "")
        });
        // Equal text at another address is the same name.
        let copy: &'static str = String::from("x").leak();
        t.record(ev(3, copy));
        t.record(ev(4, "y"));
        assert_eq!(t.interned, [("test", "x"), ("test", "y")]);
        let log = t.into_log();
        assert_eq!(log.records[1].code, code::FAULT_MISS);
        assert_eq!(log.records[0].code, log.records[2].code);
        let names: Vec<_> = log.iter().map(|e| e.name).collect();
        assert_eq!(names, ["x", "miss", "x", "y"]);
    }

    /// Feeds the same skewed stream to two wrapped rings and checks the
    /// in-place ordering of one against `sort_by_key` over the other's
    /// expanded events.
    fn assert_sorts_like_sort_by_key(capacity: usize, stamps: &[u64]) {
        let (mut a, mut b) = (RingTracer::new(capacity), RingTracer::new(capacity));
        for (i, &at) in stamps.iter().enumerate() {
            // The payload is the emission index: it tells equal
            // instants apart, so a stability slip shows.
            let name = if i % 3 == 0 { "p" } else { "q" };
            a.record(TraceEvent {
                a: i as u64,
                ..ev(at, name)
            });
            b.record(TraceEvent {
                a: i as u64,
                ..ev(at, name)
            });
        }
        let mut log = a.into_log();
        log.sort_by_time();
        let mut want = b.drain();
        want.sort_by_key(|e| e.at);
        assert_eq!(log.len(), want.len());
        assert!(log.iter().eq(want.iter().copied()), "order differs");
        assert_eq!(log.to_json(), trace_to_json(&want));
    }

    #[test]
    fn log_orders_skewed_wrapped_rings_like_sort_by_key() {
        let mut rng = crate::rng::Rng::new(9);
        for capacity in [1, 7, 1_000, 4_096] {
            // An event clock advancing 0-60 ns per event (so instants
            // repeat), each stamp skewed by up to ±200 ns, 2.5 rings'
            // worth so the ring has wrapped.
            let mut clock = 10_000u64;
            let stamps: Vec<u64> = (0..capacity * 5 / 2 + 3)
                .map(|_| {
                    clock += rng.gen_range(4) * 20;
                    clock + rng.gen_range(401) - 200
                })
                .collect();
            assert_sorts_like_sort_by_key(capacity, &stamps);
        }
    }

    #[test]
    fn log_orders_unbounded_skew_through_the_fallback() {
        // Descending stamps with repeats: every record is as far from
        // its place as it can be, which exhausts the insertion budget.
        let stamps: Vec<u64> = (0..2_000u64).rev().map(|i| i / 2).collect();
        assert!(stamps.len() * stamps.len() / 4 > SKEW_BUDGET * stamps.len());
        assert_sorts_like_sort_by_key(stamps.len(), &stamps);
    }

    #[test]
    fn counters_add_and_reset() {
        let mut m = Metrics::new();
        let a = m.counter("a");
        let b = m.counter("b");
        m.add(a, 5);
        m.inc(b);
        assert_eq!(m.counter_value(a), 5);
        let snap = m.snapshot(SimTime(10));
        assert_eq!(snap.counter("a"), Some(5));
        assert_eq!(snap.counter("b"), Some(1));
        assert_eq!(snap.counter("missing"), None);
        m.reset(SimTime(10));
        assert_eq!(m.counter_value(a), 0);
    }

    #[test]
    fn gauge_mean_is_time_weighted() {
        let mut m = Metrics::new();
        let g = m.gauge("depth");
        // 0 for 10 ns, then 4 for 30 ns: mean = (0*10 + 4*30) / 40 = 3.
        m.gauge_set(g, SimTime(10), 4.0);
        let snap = m.snapshot(SimTime(40));
        let gs = snap.gauge("depth").unwrap();
        assert!((gs.mean - 3.0).abs() < 1e-9, "mean {}", gs.mean);
        assert_eq!(gs.max, 4.0);
        assert_eq!(gs.last, 4.0);
    }

    #[test]
    fn gauge_reset_rebases_window() {
        let mut m = Metrics::new();
        let g = m.gauge("q");
        m.gauge_set(g, SimTime(0), 100.0);
        // Warm-up holds 100; reset at t=50 must forget it.
        m.reset(SimTime(50));
        m.gauge_set(g, SimTime(60), 2.0);
        // 100 for 10 ns then 2 for 40 ns: mean = (1000 + 80) / 50 = 21.6.
        let snap = m.snapshot(SimTime(100));
        let gs = snap.gauge("q").unwrap();
        assert!((gs.mean - 21.6).abs() < 1e-9, "mean {}", gs.mean);
        // Max restarts from the value held at reset time.
        assert_eq!(gs.max, 100.0);
        m.reset(SimTime(100));
        assert_eq!(m.snapshot(SimTime(100)).gauge("q").unwrap().max, 2.0);
    }

    #[test]
    fn gauge_tolerates_time_regression() {
        let mut m = Metrics::new();
        let g = m.gauge("q");
        m.gauge_set(g, SimTime(100), 5.0);
        // A slightly-earlier update (worker virtual clock) must not
        // accrue negative time.
        m.gauge_set(g, SimTime(90), 7.0);
        let snap = m.snapshot(SimTime(200));
        assert_eq!(snap.gauge("q").unwrap().max, 7.0);
        assert!(snap.gauge("q").unwrap().mean > 0.0);
    }

    #[test]
    fn json_is_deterministic_and_ordered() {
        let build = || {
            let mut m = Metrics::new();
            let c = m.counter("faults");
            let g = m.gauge("outstanding");
            m.add(c, 3);
            m.gauge_set(g, SimTime(5), 2.0);
            m.snapshot(SimTime(10)).to_json()
        };
        let a = build();
        assert_eq!(a, build());
        assert!(a.contains("\"faults\":3"), "{a}");
        // Registration order, not alphabetical.
        assert!(a.find("faults").unwrap() < a.find("outstanding").unwrap());
    }

    #[test]
    fn trace_json_roundtrips_shape() {
        let events = [ev(1, "alpha"), ev(2, "beta")];
        let json = trace_to_json(&events);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"e\":\"alpha\""));
        assert!(json.contains("\"t\":2"));
        assert_eq!(json.matches('{').count(), 2);
    }
}
