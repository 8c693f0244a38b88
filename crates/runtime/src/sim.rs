//! The discrete-event simulation of one compute node under load.
//!
//! Execution model: every simulated activity is an event in a single
//! total-order queue. Workers execute request traces *synchronously in
//! virtual time* between blocking points; each blocking point (page
//! fault, busy-wait completion, reply transmission, going idle)
//! schedules the continuation as a new event, so fetch completions and
//! new arrivals interleave with worker progress exactly as on real
//! hardware.
//!
//! Timing approximation: within one execution segment a worker's
//! virtual clock `t` runs ahead of the global event clock by at most a
//! few microseconds; fabric FIFOs are updated in call order rather than
//! strict virtual-time order within that window. The error is bounded
//! by one segment length and is far below the latency scales the paper
//! reports.

use std::collections::VecDeque;
use std::rc::Rc;

use desim::profile::{
    queue_names, CoreProfiler, CoreState, ProfileConfig, ProfileReport, QueueProbe,
};
use desim::span::{stage, SpanBuilder, SpanConfig, SpanReport, SpanStore};
use desim::telemetry::{
    EpisodeNote, FlightRecorder, HealthInput, TelemetryConfig, TelemetryReport,
};
use desim::trace::{CounterId, GaugeId};
use desim::{
    EventQueue, FxHashMap, Metrics, MetricsSnapshot, NoopTracer, RingTracer, Rng, SimDuration,
    SimTime, SloRule, TraceEvent, Tracer,
};
use fabric::link::Link;
use fabric::nic::Verb;
use fabric::{EthPort, FabricParams, MemNode, QpId, RdmaNic, ShardMap};
use faults::{FaultPlane, FaultScenario, FaultStats};
use loadgen::{
    Breakdown, BurstyLoop, IngressFanIn, LoadPoint, OpenLoop, Recorder, TenantMix, TenantPlane,
    TenantPriority, TenantSpec,
};
pub use paging::observe::MemObsConfig;
use paging::observe::{MemObservatory, MemReport, PrefetchClass};
use paging::prefetch::{LeapDetector, SeqDetector};
use paging::reclaim::ReclaimerMode;
use paging::trace::Trace;
use paging::{PageCache, PageState, PAGE_SIZE};

use crate::config::{
    DispatchPolicy, FaultPolicy, PrefetcherKind, QueueModel, SystemConfig, WorkerSelect,
};
use crate::workload::Workload;

/// Parameters of one simulation run.
#[derive(Debug, Clone)]
pub struct RunParams {
    /// Offered load in requests per second.
    pub offered_rps: f64,
    /// Seed for arrivals, workload and steering randomness.
    pub seed: u64,
    /// Warm-up time excluded from measurement.
    pub warmup: SimDuration,
    /// Measurement window.
    pub measure: SimDuration,
    /// Local DRAM as a fraction of the working set (paper default 0.2;
    /// 1.0 = everything local).
    pub local_mem_fraction: f64,
    /// Retain per-request breakdowns (Figures 2c / 7c).
    pub keep_breakdowns: bool,
    /// Optional burstiness: `(peak_factor, mean_phase)` turns the
    /// Poisson source into a two-state MMPP with the same mean rate
    /// (§3.2 burst-tolerance studies).
    pub burst: Option<(f64, SimDuration)>,
    /// Record a queue-depth/in-flight timeline with this bucket width
    /// (None = off; used by the burst-tolerance study).
    pub timeline_bucket: Option<SimDuration>,
    /// Retain a virtual-time event trace with this ring-buffer capacity
    /// (None = tracing off, the zero-cost default). The most recent
    /// `capacity` events are kept; [`RunResult::trace`] returns them
    /// sorted by simulated time.
    pub trace_capacity: Option<usize>,
    /// Per-request span tracing and critical-path attribution (None =
    /// off, the zero-cost default). Implicitly enabled in stats-only
    /// mode when [`RunParams::keep_breakdowns`] is set, since
    /// breakdowns are derived from the span trees.
    pub spans: Option<SpanConfig>,
    /// Fault scenario to arm the fabric's fault plane with (None = the
    /// inert plane: a lossless fabric, bit-identical to runs predating
    /// fault injection). Seeded from [`RunParams::seed`], so a run with
    /// the same seed and scenario replays byte-identically.
    pub faults: Option<FaultScenario>,
    /// Continuous telemetry (None = off, the zero-cost default: no tick
    /// events enter the queue, so disabled runs replay byte-identically
    /// to runs predating telemetry). When set, a
    /// [`desim::telemetry::FlightRecorder`] samples every counter and
    /// gauge each tick, scores per-QP/per-shard health, and runs the
    /// configured SLO rules; the report lands in
    /// [`RunResult::telemetry`].
    pub telemetry: Option<TelemetryConfig>,
    /// Core profiler + queueing observatory (None = off, the zero-cost
    /// default: nothing registers and nothing accrues, so disabled runs
    /// replay byte-identically to runs predating the profiler). When
    /// set, a [`desim::profile::CoreProfiler`] tiles every core's
    /// timeline (dispatcher included) exhaustively into typed states
    /// and [`desim::profile::QueueProbe`]s watch every queue; the
    /// report lands in [`RunResult::profile`].
    pub profile: Option<ProfileConfig>,
    /// Multi-tenant traffic plane (None = the legacy single-source
    /// arrival path, byte-identical to runs predating tenants). When
    /// set, arrivals come from a [`TenantMix`] merging every tenant's
    /// own source, each request carries its tenant id, per-tenant
    /// token-bucket admission and the low-priority shed watermark run
    /// at dispatcher ingress, and [`RunResult::tenants`] carries the
    /// per-tenant window accounting. `tenantN.*` counters join the
    /// registry only when the plane has more than one tenant, so a
    /// one-tenant plane reproduces the golden capture byte for byte.
    /// When the plane is set, [`RunParams::burst`] is ignored — burst
    /// shapes are per-tenant ([`TenantSpec::burst`]).
    pub tenants: Option<TenantPlane>,
    /// Memory-access observatory (None = off, the zero-cost default:
    /// nothing registers and no hook fires, so disabled runs replay
    /// byte-identically to runs predating the observatory). When set,
    /// a [`paging::observe::MemObservatory`] attributes every
    /// prefetched page's fate (hit / late / wasted, with an exact
    /// conservation identity), tracks decayed page heat, per-window
    /// working-set size and per-shard heat shares, and the frozen
    /// report lands in [`RunResult::memory`].
    pub memory: Option<MemObsConfig>,
}

impl Default for RunParams {
    fn default() -> Self {
        RunParams {
            offered_rps: 1_000_000.0,
            seed: 1,
            warmup: SimDuration::from_millis(20),
            measure: SimDuration::from_millis(80),
            local_mem_fraction: 0.2,
            keep_breakdowns: false,
            burst: None,
            timeline_bucket: None,
            trace_capacity: None,
            spans: None,
            faults: None,
            telemetry: None,
            profile: None,
            tenants: None,
            memory: None,
        }
    }
}

/// Queue-depth and in-flight-fetch dynamics over the run.
pub struct Timeline {
    /// Central pending-queue depth, sampled at each arrival.
    pub queue_depth: desim::TimeSeries,
    /// Outstanding RDMA fetches, sampled at each arrival.
    pub inflight: desim::TimeSeries,
}

/// Aggregate statistics of one run, scoped to the measurement window.
///
/// This is a compatibility view derived from the run's [`Metrics`]
/// registry (see [`RunResult::metrics`] for the full registry snapshot,
/// including gauges and counters this struct does not carry).
#[derive(Debug, Clone, Copy, Default)]
pub struct SimStats {
    /// Worker time burned busy-waiting (spinning), ns.
    pub spin_ns: u64,
    /// Preemptions performed (DiLOS-P).
    pub preemptions: u64,
    /// Faults that found the QP full and had to pause.
    pub qp_stalls: u64,
    /// Faults coalesced onto an in-flight fetch.
    pub coalesced: u64,
    /// Synchronous direct reclaims on the fault path.
    pub direct_reclaims: u64,
    /// Dirty pages written back.
    pub writebacks: u64,
    /// Speculative/sequential prefetch fetches issued.
    pub prefetches: u64,
    /// Requests taken from a peer's queue (`PerWorkerStealing`).
    pub steals: u64,
}

impl SimStats {
    /// Rebuilds the compatibility view from a registry snapshot.
    fn from_snapshot(snap: &MetricsSnapshot) -> SimStats {
        let c = |name| snap.counter(name).unwrap_or(0);
        SimStats {
            spin_ns: c("spin_ns"),
            preemptions: c("preemptions"),
            qp_stalls: c("qp_stalls"),
            coalesced: c("coalesced"),
            direct_reclaims: c("direct_reclaims"),
            writebacks: c("writebacks"),
            prefetches: c("prefetches"),
            steals: c("steals"),
        }
    }
}

/// Handles to every counter/gauge the simulation registers, resolved
/// once at construction so hot-path updates are indexed adds.
struct MetricIds {
    spin_ns: CounterId,
    preemptions: CounterId,
    qp_stalls: CounterId,
    coalesced: CounterId,
    direct_reclaims: CounterId,
    writebacks: CounterId,
    prefetches: CounterId,
    steals: CounterId,
    dispatches: CounterId,
    completions: CounterId,
    drops: CounterId,
    reclaim_ticks: CounterId,
    rdma_data_msgs: CounterId,
    rdma_ctrl_msgs: CounterId,
    qp_full_retries: CounterId,
    fetch_retransmits: CounterId,
    fetch_cqe_errors: CounterId,
    fetch_failovers: CounterId,
    fetch_chain_failures: CounterId,
    fetch_aborts: CounterId,
    prefetch_errors: CounterId,
    writeback_errors: CounterId,
    injected_losses: CounterId,
    injected_cqe_errors: CounterId,
    queue_depth: GaugeId,
    qp_outstanding: GaugeId,
    fault_episode_active: GaugeId,
}

impl MetricIds {
    fn register(m: &mut Metrics) -> MetricIds {
        MetricIds {
            spin_ns: m.counter("spin_ns"),
            preemptions: m.counter("preemptions"),
            qp_stalls: m.counter("qp_stalls"),
            coalesced: m.counter("coalesced"),
            direct_reclaims: m.counter("direct_reclaims"),
            writebacks: m.counter("writebacks"),
            prefetches: m.counter("prefetches"),
            steals: m.counter("steals"),
            dispatches: m.counter("dispatches"),
            completions: m.counter("completions"),
            drops: m.counter("drops"),
            reclaim_ticks: m.counter("reclaim_ticks"),
            rdma_data_msgs: m.counter("rdma_data_msgs"),
            rdma_ctrl_msgs: m.counter("rdma_ctrl_msgs"),
            qp_full_retries: m.counter("nic.qp_full_retries"),
            fetch_retransmits: m.counter("fetch_retransmits"),
            fetch_cqe_errors: m.counter("fetch_cqe_errors"),
            fetch_failovers: m.counter("fetch_failovers"),
            fetch_chain_failures: m.counter("fetch_chain_failures"),
            fetch_aborts: m.counter("fetch_aborts"),
            prefetch_errors: m.counter("prefetch_errors"),
            writeback_errors: m.counter("writeback_errors"),
            injected_losses: m.counter("faults.injected_losses"),
            injected_cqe_errors: m.counter("faults.injected_cqe_errors"),
            queue_depth: m.gauge("queue_depth"),
            qp_outstanding: m.gauge("qp_outstanding"),
            fault_episode_active: m.gauge("fault_episode_active"),
        }
    }
}

/// Per-shard counter/gauge handles (see
/// [`desim::trace::shard_names`]). Registered only on multi-shard runs:
/// a single shard must serialise the exact pre-sharding metrics schema.
struct ShardMetricIds {
    fetches: CounterId,
    retransmits: CounterId,
    cqe_errors: CounterId,
    failovers: CounterId,
    chain_failures: CounterId,
    qp_outstanding: GaugeId,
}

impl ShardMetricIds {
    fn register(m: &mut Metrics, shard: usize) -> ShardMetricIds {
        use desim::trace::shard_names as sn;
        ShardMetricIds {
            fetches: m.counter(sn::FETCHES[shard]),
            retransmits: m.counter(sn::RETRANSMITS[shard]),
            cqe_errors: m.counter(sn::CQE_ERRORS[shard]),
            failovers: m.counter(sn::FAILOVERS[shard]),
            chain_failures: m.counter(sn::CHAIN_FAILURES[shard]),
            qp_outstanding: m.gauge(sn::QP_OUTSTANDING[shard]),
        }
    }
}

/// Per-dispatcher counter/gauge handles (see
/// [`desim::trace::dispatcher_names`]). Registered only when the
/// ingress plane has more than one dispatcher core: a single dispatcher
/// must serialise the exact pre-scaling metrics schema.
struct DispatcherMetricIds {
    admitted: CounterId,
    steals: CounterId,
    combines: CounterId,
    /// Per-core busy square wave; joins the registry only when an
    /// observer (telemetry or the profiler) wants it, mirroring the
    /// scalar `dispatcher.busy_fraction` gate of single-dispatcher runs.
    busy: Option<GaugeId>,
}

impl DispatcherMetricIds {
    fn register(m: &mut Metrics, d: usize, observed: bool) -> DispatcherMetricIds {
        use desim::trace::dispatcher_names as dn;
        DispatcherMetricIds {
            admitted: m.counter(dn::ADMITTED[d]),
            steals: m.counter(dn::STEALS[d]),
            combines: m.counter(dn::COMBINES[d]),
            busy: observed.then(|| m.gauge(dn::BUSY_FRACTION[d])),
        }
    }
}

/// One dispatcher-timeline charge, recorded only under `cfg(test)` so
/// the differential oracle (see the `oracle` test module) can replay
/// the admission arithmetic lock-step against a scalar reference.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DispatchCharge {
    pub(crate) op: DispatchOp,
    /// Event-clock instant the charge was requested at.
    pub(crate) now: SimTime,
    /// Charged interval on the serving dispatcher's timeline.
    pub(crate) start: SimTime,
    pub(crate) end: SimTime,
    /// Serving dispatcher core.
    pub(crate) disp: usize,
}

/// Kind of dispatcher-timeline charge (test-only; see [`DispatchCharge`]).
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum DispatchOp {
    /// Admission of one arrival (`dispatch_cost` + `client_stack`).
    Admit,
    /// Push-path handoff of a queued request to an idle worker.
    PushHandoff,
    /// Pull-path handoff to a worker that ran dry.
    PullHandoff,
    /// Recycle of one delegated TX completion.
    Recycle,
}

/// One memnode shard's measurement-window accounting.
#[derive(Debug, Clone)]
pub struct ShardWindow {
    /// Shard index.
    pub shard: usize,
    /// Bytes moved on the shard's RDMA data direction (memnode →
    /// compute) over the window.
    pub data_bytes: u64,
    /// Utilisation of the shard's data direction.
    pub data_util: f64,
    /// Demand-fetch latency (post → terminal clean CQE) of fetches
    /// completing inside the window.
    pub fetch_ns: desim::Histogram,
}

/// Per-tenant counter handles (see [`desim::trace::tenant_names`]).
/// Registered only on multi-tenant runs: a single-tenant plane must
/// serialise the exact pre-tenant metrics schema.
struct TenantMetricIds {
    arrivals: CounterId,
    admitted: CounterId,
    completions: CounterId,
    sheds: CounterId,
    drops: CounterId,
}

impl TenantMetricIds {
    fn register(m: &mut Metrics, tenant: usize) -> TenantMetricIds {
        use desim::trace::tenant_names as tn;
        TenantMetricIds {
            arrivals: m.counter(tn::ARRIVALS[tenant]),
            admitted: m.counter(tn::ADMITTED[tenant]),
            completions: m.counter(tn::COMPLETIONS[tenant]),
            sheds: m.counter(tn::SHEDS[tenant]),
            drops: m.counter(tn::DROPS[tenant]),
        }
    }
}

/// One tenant's measurement-window accounting (arrivals, sheds and
/// drops window on the request's TX instant; completions and latency
/// window on the reply's RX instant, mirroring the [`Recorder`]).
#[derive(Debug, Clone, Default)]
struct TenantAcct {
    arrivals: u64,
    admitted: u64,
    completed: u64,
    sheds: u64,
    drops: u64,
    latency: desim::Histogram,
}

/// A deterministic token bucket policing one tenant's admissions.
/// Pure f64 arithmetic, no rng draws: a policed run replays
/// byte-identically under the same arrival stream.
#[derive(Debug, Clone)]
struct TokenBucket {
    tokens: f64,
    rate_per_ns: f64,
    cap: f64,
    last: SimTime,
}

impl TokenBucket {
    fn new(rate_rps: f64, burst: u32) -> TokenBucket {
        TokenBucket {
            tokens: burst as f64,
            rate_per_ns: rate_rps / desim::NS_PER_SEC as f64,
            cap: burst as f64,
            last: SimTime::ZERO,
        }
    }

    /// Refills for the elapsed time and spends one token if available.
    fn admit(&mut self, now: SimTime) -> bool {
        let elapsed = now.saturating_since(self.last).as_nanos() as f64;
        self.last = now;
        self.tokens = (self.tokens + elapsed * self.rate_per_ns).min(self.cap);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Per-tenant accounting outcomes (see `Simulation::tenant_note`).
#[derive(Clone, Copy)]
enum TenantEvent {
    Arrival,
    Admitted,
    Shed,
    Drop,
    Completion,
}

/// The tenant plane's runtime state (present only when
/// [`RunParams::tenants`] is set).
struct TenPlane {
    specs: Vec<TenantSpec>,
    /// `true` for low-priority tenants (shed-eligible, served last).
    lo: Vec<bool>,
    /// Dispatcher-queue depth beyond which low-priority arrivals shed.
    shed_watermark: Option<usize>,
    /// Per-tenant admission buckets (None = no policing).
    buckets: Vec<Option<TokenBucket>>,
    /// Per-tenant counter handles; empty on single-tenant planes
    /// (schema compatibility — see [`TenantMetricIds`]).
    ids: Vec<TenantMetricIds>,
    acct: Vec<TenantAcct>,
}

/// One tenant's measurement-window view (one entry per tenant in
/// [`RunResult::tenants`] whenever the plane was on).
#[derive(Debug, Clone)]
pub struct TenantWindow {
    /// Tenant id (index into the plane's spec list).
    pub tenant: usize,
    /// Display name from the spec.
    pub name: String,
    /// Priority class name (`"high"` / `"low"`).
    pub priority: &'static str,
    /// The tenant's configured offered rate.
    pub offered_rps: f64,
    /// Arrivals whose TX instant fell in the window.
    pub arrivals: u64,
    /// Arrivals that passed admission (token bucket + watermark).
    pub admitted: u64,
    /// Requests completing (reply RX) inside the window.
    pub completed: u64,
    /// Arrivals rejected by admission control.
    pub sheds: u64,
    /// Arrivals lost to queue overflow or fetch-chain aborts.
    pub drops: u64,
    /// End-to-end latency of the tenant's windowed completions.
    pub latency_ns: desim::Histogram,
    /// Verdict of the tenant's latency SLO rules over the window
    /// histogram (None = the spec carries no latency rule): for each
    /// `lat<OBJ:BUDGET@WINDOW` rule, the fraction of completions over
    /// `OBJ` must not exceed `BUDGET`.
    pub slo_ok: Option<bool>,
}

/// End-of-run request conservation: every generated arrival is exactly
/// one of completed, overflow-dropped, shed, aborted, or still live
/// when the drain window closed. Tracked unconditionally (plain
/// counters, no registry entries) and debug-asserted at run end.
#[derive(Debug, Clone, Copy, Default)]
pub struct Conservation {
    /// Requests generated by the arrival source.
    pub arrivals: u64,
    /// Requests that completed with a reply.
    pub completions: u64,
    /// Requests dropped on queue overflow (RX ring or pending cap).
    pub drops: u64,
    /// Requests shed by tenant admission control.
    pub sheds: u64,
    /// Requests aborted after fetch-chain exhaustion.
    pub aborts: u64,
    /// Requests still allocated when the run stopped draining.
    pub inflight_at_end: u64,
}

impl Conservation {
    /// Whether the identity
    /// `arrivals == completions + drops + sheds + aborts + inflight_at_end`
    /// holds.
    pub fn holds(&self) -> bool {
        self.arrivals
            == self.completions + self.drops + self.sheds + self.aborts + self.inflight_at_end
    }
}

/// Result of one run.
pub struct RunResult {
    /// Latency recorder (per-class histograms, breakdowns, drops).
    pub recorder: Recorder,
    /// Utilisation of the RDMA data direction (memory→compute) over the
    /// measurement window.
    pub rdma_data_util: f64,
    /// Utilisation of the RDMA control direction (compute→memory).
    pub rdma_ctrl_util: f64,
    /// Aggregate counters (compatibility view of [`RunResult::metrics`]).
    pub stats: SimStats,
    /// Full metrics-registry snapshot over the measurement window:
    /// every counter plus time-weighted gauges (queue depth, QP
    /// occupancy).
    pub metrics: MetricsSnapshot,
    /// Virtual-time event trace, sorted by simulated time (present only
    /// when [`RunParams::trace_capacity`] was set).
    pub trace: Option<Vec<TraceEvent>>,
    /// Trace events discarded because the ring buffer was full.
    pub trace_dropped: u64,
    /// Page-cache counters over the measurement window.
    pub cache: paging::cache::CacheStats,
    /// The offered load this run used.
    pub offered_rps: f64,
    /// Measurement window length.
    pub window: SimDuration,
    /// Workers configured.
    pub workers: usize,
    /// Optional dynamics timeline (see [`RunParams::timeline_bucket`]).
    pub timeline: Option<Timeline>,
    /// Span-layer report: per-stage histograms, critical-path
    /// attributions and tail exemplars (present when spans were on —
    /// see [`RunParams::spans`]).
    pub spans: Option<SpanReport>,
    /// Per-shard window accounting, one entry per configured memnode
    /// shard (a single entry on unsharded runs).
    pub shards: Vec<ShardWindow>,
    /// Per-tenant window accounting, one entry per tenant of the plane
    /// (empty when the run had no tenant plane — see
    /// [`RunParams::tenants`]).
    pub tenants: Vec<TenantWindow>,
    /// End-of-run request conservation, tracked on every run.
    pub conservation: Conservation,
    /// Continuous-telemetry report: bucketed counter/gauge series, SLO
    /// event log, per-QP/per-shard health trajectories, and fault
    /// episode annotations (present when [`RunParams::telemetry`] was
    /// set).
    pub telemetry: Option<TelemetryReport>,
    /// Core-profiler report: exhaustive per-core state tilings, the
    /// queueing observatory with Little's-law consistency scores, and
    /// the flamegraph/Perfetto exporters (present when
    /// [`RunParams::profile`] was set).
    pub profile: Option<ProfileReport>,
    /// Memory-access observatory report: prefetch-fate attribution with
    /// the exact conservation identity, decayed page-heat top-K,
    /// per-window working-set sizes, heatmap matrix, stride
    /// fingerprint and shard heat shares (present when
    /// [`RunParams::memory`] was set).
    pub memory: Option<MemReport>,
    /// Every dispatcher-core charge in commit order, for the
    /// differential oracle (test builds only).
    #[cfg(test)]
    pub(crate) dispatcher_log: Vec<DispatchCharge>,
}

impl RunResult {
    /// Summarises the run as one sweep point.
    pub fn point(&self) -> LoadPoint {
        let h = self.recorder.overall();
        LoadPoint {
            offered_rps: self.offered_rps,
            achieved_rps: self.recorder.achieved_rps(),
            p50_ns: h.percentile(50.0),
            p99_ns: h.percentile(99.0),
            p999_ns: h.percentile(99.9),
            mean_ns: h.mean(),
            drops: self.recorder.dropped(),
            rdma_util: self.rdma_data_util,
        }
    }

    /// Fraction of total worker time spent spinning.
    ///
    /// With the profiler on, this is derived from the per-core state
    /// tilings, whose denominator is *proven* to cover the window
    /// exactly (see [`desim::profile::CoreProfiler`]). Without it, the
    /// legacy counter ratio is used; its denominator assumes every
    /// worker exists for the full window — true today, but unchecked,
    /// which is why profiled runs prefer the tiling-derived value.
    pub fn spin_fraction(&self) -> f64 {
        match &self.profile {
            Some(p) => p.worker_spin_fraction(),
            None => {
                self.stats.spin_ns as f64 / (self.workers as f64 * self.window.as_nanos() as f64)
            }
        }
    }
}

/// Continuations a worker wake-up can carry.
#[derive(Debug, Clone, Copy)]
enum Cont {
    /// Begin (or re-begin after preemption) executing a request.
    Start { req: usize },
    /// Resume a yielded unithread whose fetch completed (map + switch).
    Resume { req: usize },
    /// Busy-wait finished: map the page and continue.
    AfterBusyWait { req: usize },
    /// Retry a fault that could not allocate or post.
    RetryFault { req: usize },
    /// A busy-waited fetch surfaced an error completion after retry
    /// exhaustion / failover-chain exhaustion: the request is dropped.
    AbortFault { req: usize },
}

#[derive(Debug)]
enum Ev {
    /// Request delivered to the node's RX path.
    Arrival { req: usize },
    /// Dispatcher finished admitting a request into the central queue.
    Admit { req: usize },
    /// A worker continues at its scheduled time.
    WorkerWake { worker: usize, cont: Cont },
    /// A page fetch CQE became pollable.
    FetchDone { worker: usize, page: u64 },
    /// A yielded request becomes runnable (after any kernel wake-up
    /// delay — nonzero only for Infiniswap).
    WaiterReady { req: usize },
    /// A reclaimer write-back completed on its dedicated QP (one per
    /// shard rail).
    WriteDone { shard: usize },
    /// Reclaimer processes its next batch.
    ReclaimTick,
    /// An intermediate error CQE of a failover chain becomes pollable;
    /// consuming it frees the QP slot on the shard's rail (the chain
    /// continued on another QP, so nothing resumes here).
    CqeRetire { shard: usize, qp: QpId },
    /// The flight recorder takes its next sample (scheduled only when
    /// telemetry is on; see [`RunParams::telemetry`]).
    TelemetryTick,
}

/// Cumulative fetch accounting for one telemetry entity (a worker QP or
/// a shard rail); the bridge diffs consecutive ticks to get rates.
#[derive(Debug, Clone, Copy, Default)]
struct FetchTally {
    fetches: u64,
    retransmits: u64,
    errors: u64,
}

impl FetchTally {
    fn since(&self, prev: &FetchTally) -> FetchTally {
        FetchTally {
            fetches: self.fetches - prev.fetches,
            retransmits: self.retransmits - prev.retransmits,
            errors: self.errors - prev.errors,
        }
    }
}

/// Glue between the simulation and the [`FlightRecorder`]: per-QP and
/// per-shard fetch tallies (for retransmit-rate and error-chain health
/// terms) plus the recorder itself. Health entities are registered in a
/// fixed order — worker QPs first, then shards — and
/// [`Simulation::on_telemetry_tick`] builds the inputs in that order.
struct TelemBridge {
    rec: FlightRecorder,
    qp_tally: Vec<FetchTally>,
    qp_prev: Vec<FetchTally>,
    shard_tally: Vec<FetchTally>,
    shard_prev: Vec<FetchTally>,
    /// Per-tenant arrival/shed tallies (multi-tenant runs with
    /// telemetry only; `fetches` carries arrivals and `errors` carries
    /// sheds — the health bridge reads them as offered load and
    /// admission failures).
    tenant_tally: Vec<FetchTally>,
    tenant_prev: Vec<FetchTally>,
    /// Expected arrivals per telemetry tick for each tenant (its
    /// configured rate × the tick period) — the capacity term of the
    /// tenant's health score.
    tenant_per_tick: Vec<f64>,
    /// Adaptive-RTO transport gauges per shard rail, sampled each tick
    /// just before the recorder: `(srtt_us, rttvar_us, rto_us)`.
    /// Registered as `nic.*` on single-shard runs and `shardN.*`
    /// otherwise; zero until the estimator has its first RTT sample
    /// (the effective RTO gauge always carries the armed value, fixed
    /// ladder included).
    rto_ids: Vec<(GaugeId, GaugeId, GaugeId)>,
}

/// Per-request prefetch-pattern detector.
enum Detector {
    None,
    Seq(SeqDetector),
    Leap(LeapDetector),
}

impl Detector {
    fn new(kind: PrefetcherKind) -> Detector {
        match kind {
            PrefetcherKind::None => Detector::None,
            PrefetcherKind::Readahead { window } => Detector::Seq(SeqDetector::new(window)),
            PrefetcherKind::Leap { window, depth } => {
                Detector::Leap(LeapDetector::new(window, depth))
            }
        }
    }

    /// Returns `(stride, count)` of pages to prefetch after a fault.
    fn on_fault(&mut self, page: u64) -> (i64, u32) {
        match self {
            Detector::None => (0, 0),
            Detector::Seq(d) => (1, d.on_fault(page)),
            Detector::Leap(d) => d.on_fault(page),
        }
    }
}

struct Req {
    trace: Trace,
    step: usize,
    /// Tenant the request belongs to (0 on single-source runs).
    tenant: u16,
    /// Dispatcher core that admitted the request and owns its handoff /
    /// recycle work (0 on single-dispatcher runs).
    disp: u16,
    /// Ingress slot the arrival was steered to (equals `disp` unless a
    /// sibling stole the admission; 0 on single-dispatcher runs).
    ingress_slot: u16,
    /// Load-generator hardware TX timestamp.
    tx_time: SimTime,
    /// When the request last started running on a worker (preemption
    /// epoch).
    sched_epoch: SimTime,
    /// Worker currently responsible (valid once started).
    worker: usize,
    /// When the current fault's fetch completed.
    fetch_done_at: SimTime,
    started: bool,
    /// Span tree under construction (present when the span layer is
    /// on). All latency attribution derives from it.
    spans: Option<SpanBuilder>,
    detector: Detector,
    /// Previous page this request touched (observatory stride
    /// fingerprint; maintained only when the observatory is on).
    obs_last_page: Option<u64>,
}

struct Worker {
    busy: bool,
    /// Worker timeline high-water mark: it can accept new work only at
    /// or after this instant.
    free_at: SimTime,
    qp: QpId,
    /// Yielded unithreads whose fetches completed (ready to resume).
    resumes: VecDeque<usize>,
    /// Per-worker queue (Hermit / d-FCFS ablation).
    local_queue: VecDeque<usize>,
    /// A fault paused on a full QP.
    blocked: Option<(usize, SimTime)>,
}

/// How a demand-fetch chain resolved (see `Simulation::issue_fetch`).
struct FetchOutcome {
    /// QP carrying the terminal completion.
    qp: QpId,
    /// When the terminal completion becomes pollable.
    done_at: SimTime,
    /// Terminal completion is an error (chain exhausted).
    failed: bool,
}

struct Inflight {
    done_at: SimTime,
    /// QP whose CQE retires this fetch (the failover QP when the fetch
    /// chain migrated off the faulting worker's QP).
    qp: QpId,
    /// The terminal completion is an error: at `done_at` the page is
    /// still remote and every requester must abort.
    failed: bool,
    /// Yield-policy waiters (request ids) to resume on completion.
    waiters: Waiters,
    /// Completion consumed early by a worker that caught up with it.
    completed_early: bool,
}

/// The requests parked on one fetch, in park order. Nearly every fetch
/// parks exactly one (the faulting request), which is held inline; only
/// coalesced waiters go to the heap. The `Vec`'s niche keeps this the
/// size of the `Vec` it replaced, so [`Inflight`] does not grow.
#[derive(Default)]
enum Waiters {
    #[default]
    None,
    One(usize),
    Many(Vec<usize>),
}

impl Waiters {
    fn push(&mut self, req: usize) {
        match self {
            Waiters::None => *self = Waiters::One(req),
            Waiters::One(first) => *self = Waiters::Many(vec![*first, req]),
            Waiters::Many(all) => all.push(req),
        }
    }
}

impl IntoIterator for Waiters {
    type Item = usize;
    type IntoIter = std::iter::Chain<std::option::IntoIter<usize>, std::vec::IntoIter<usize>>;

    fn into_iter(self) -> Self::IntoIter {
        let (one, many) = match self {
            Waiters::None => (None, Vec::new()),
            Waiters::One(req) => (Some(req), Vec::new()),
            Waiters::Many(all) => (None, all),
        };
        one.into_iter().chain(many)
    }
}

#[derive(PartialEq)]
enum ReclaimState {
    Idle,
    Scheduled,
}

/// The arrival source (Poisson, MMPP, or a merged multi-tenant mix).
enum Arrivals {
    Poisson(OpenLoop),
    Bursty(BurstyLoop),
    Tenant(TenantMix),
}

impl Arrivals {
    /// Next arrival instant and the tenant it belongs to (tenant 0 for
    /// the single-source legacy paths).
    fn next_arrival(&mut self) -> (SimTime, u16) {
        match self {
            Arrivals::Poisson(p) => (p.next_arrival(), 0),
            Arrivals::Bursty(b) => (b.next_arrival(), 0),
            Arrivals::Tenant(m) => m.next_arrival(),
        }
    }
}

/// Bits of [`Simulation::obs_mask`]: which optional observability
/// layers are enabled for this run.
mod obs {
    /// Virtual-time event tracing ([`RunParams::trace_capacity`]).
    ///
    /// [`RunParams::trace_capacity`]: super::RunParams::trace_capacity
    pub const TRACE: u8 = 1 << 0;
    /// The span layer ([`RunParams::spans`] or kept breakdowns).
    ///
    /// [`RunParams::spans`]: super::RunParams::spans
    pub const SPANS: u8 = 1 << 1;
    /// The core profiler + queueing observatory
    /// ([`RunParams::profile`]).
    ///
    /// [`RunParams::profile`]: super::RunParams::profile
    pub const PROFILE: u8 = 1 << 2;
    /// The memory-access observatory ([`RunParams::memory`]).
    ///
    /// [`RunParams::memory`]: super::RunParams::memory
    pub const MEMORY: u8 = 1 << 3;
}

/// The core profiler's runtime state: the per-core tiler, park
/// bookkeeping, and one [`QueueProbe`] (+ registered depth gauge) per
/// instrumented queue. Present only when [`RunParams::profile`] is set.
///
/// Core indexing: cores `0..wbase` are the dispatcher cores (one on
/// single-dispatcher runs, labelled `dispatcher`; `dispatcherN`
/// otherwise), core `wbase + w` is worker `w`.
struct ProfPlane {
    cores: CoreProfiler,
    /// First worker core index (= the dispatcher count).
    wbase: usize,
    /// Parked (yielded, fetch outstanding) unithreads per worker —
    /// decides whether an idle gap is `Park` or `Idle`.
    parked: Vec<u32>,
    /// Window-clamped ns workers spent waiting for a free frame. These
    /// tile as `FetchWait` but the legacy `spin_ns` counter never
    /// booked them, so the spin-fraction cross-check subtracts them.
    frame_wait_ns: u64,
    /// Dispatcher ingress queue (the central `pending` queue).
    ingress: QueueProbe,
    ingress_gauge: GaugeId,
    /// Per-dispatcher ingress slots (arrivals awaiting their admit
    /// tick); empty on single-dispatcher runs.
    dingress: Vec<QueueProbe>,
    dingress_gauges: Vec<Option<GaugeId>>,
    /// Per-worker runnable (resume) queues.
    runnable: Vec<QueueProbe>,
    runnable_gauges: Vec<Option<GaugeId>>,
    /// Per-shard NIC send-queue occupancy (all QPs on the rail).
    sq: Vec<QueueProbe>,
    sq_gauges: Vec<Option<GaugeId>>,
    /// Per-shard deferred write-back queues.
    wb: Vec<QueueProbe>,
    wb_gauges: Vec<Option<GaugeId>>,
}

/// One compute node + memory node + load generator, ready to run.
pub struct Simulation<'w> {
    cfg: SystemConfig,
    params: RunParams,
    events: EventQueue<Ev>,
    eth: EthPort,
    /// One NIC rail per memnode shard, each with the full per-worker /
    /// writeback / failover QP layout. A fetch posts on its page's
    /// shard rail, so shards queue and account independently.
    nics: Vec<RdmaNic>,
    /// Deterministic page → shard → memnode placement.
    shard_map: ShardMap,
    /// Memory nodes, indexed by global node id: shard `s`'s replica
    /// chain occupies `s * replicas .. (s + 1) * replicas`. Demand
    /// fetches start at the shard's primary and fail over round-robin
    /// along the chain on error completions.
    mems: Vec<MemNode>,
    /// Deterministic fault injector consulted by every NIC post (the
    /// inert plane draws nothing and perturbs nothing).
    plane: FaultPlane,
    /// Plane counters at the warm-up boundary (window re-basing).
    plane_start: FaultStats,
    cache: PageCache,
    workload: &'w mut dyn Workload,
    arrivals: Arrivals,
    recorder: Recorder,
    rng: Rng,
    reqs: Vec<Option<Req>>,
    free_reqs: Vec<usize>,
    /// Retired requests' step buffers, recycled through
    /// [`Workload::next_request_into`] so steady-state arrivals perform
    /// no per-request trace allocation (where the workload overrides it).
    trace_pool: Vec<Trace>,
    /// Observability feature mask ([`obs`]): resolved once at
    /// construction so disabled layers cost one integer test per
    /// emission site instead of a virtual call or `Option` chain.
    obs_mask: u8,
    workers: Vec<Worker>,
    pending: VecDeque<usize>,
    /// Low-priority central queue, used only when a tenant plane is
    /// on: the dispatcher serves `pending` (high priority) first.
    /// Empty — and never touched — on plane-off runs, so the legacy
    /// path is byte-identical.
    pending_lo: VecDeque<usize>,
    /// Priority-split dispatcher ingress, used only when a tenant
    /// plane is on: arrivals waiting for their admit tick are popped
    /// high-priority-first instead of FIFO, so a high-priority request
    /// never queues behind a low-priority backlog at admission. Admit
    /// tick *timing* is unchanged — only the identity served at each
    /// tick is reordered. Empty on plane-off runs.
    ingress_hi: VecDeque<usize>,
    ingress_lo: VecDeque<usize>,
    /// Tenant-plane runtime state (None = plane off).
    tenplane: Option<TenPlane>,
    /// Request-conservation tallies (`inflight_at_end` is derived at
    /// run end from the live request slots).
    cons: Conservation,
    rr_next: usize,
    /// One admission timeline per dispatcher core (`max`-clamped
    /// high-water marks; index 0 reproduces the scalar pre-scaling
    /// timeline bit-for-bit on single-dispatcher runs).
    dispatcher_free: Vec<SimTime>,
    /// Arrivals published to each dispatcher's ingress slot that have
    /// not reached their admit tick yet (rx-ring bounded per slot).
    admission_backlog: Vec<usize>,
    /// RSS-style steering of arrivals onto ingress slots (constant 0
    /// with one dispatcher).
    fanin: IngressFanIn,
    /// Flat-combining state: the current combiner, its batch window's
    /// end, members so far, and the end of the last admission charged
    /// under the combiner lock (admissions stay globally FIFO — the
    /// combiner role is exclusive, only its *cost* is amortised).
    fc_leader: usize,
    fc_until: SimTime,
    fc_count: usize,
    fc_tail: SimTime,
    /// Per-dispatcher metric handles; empty on single-dispatcher runs
    /// (schema compatibility — see [`DispatcherMetricIds`]).
    disp_ids: Vec<DispatcherMetricIds>,
    /// Dispatcher-timeline charges for the differential oracle.
    #[cfg(test)]
    dispatcher_log: Vec<DispatchCharge>,
    inflight: FxHashMap<u64, Inflight>,
    /// Superseded fetch records: a fetch whose completion was consumed
    /// early can see its page evicted and re-faulted while its
    /// `FetchDone` event is still queued. The re-fault moves the old
    /// record here (keyed by page + completion time) so the stale event
    /// still frees the right QP slot and wakes its own waiters instead
    /// of stealing the live entry's.
    orphan_fetches: Vec<(u64, Inflight)>,
    /// Per-shard dirty pages whose write-back is waiting for that
    /// shard's reclaimer-QP slot.
    deferred_writebacks: Vec<VecDeque<u64>>,
    reclaim_state: ReclaimState,
    /// The reclaimer's start / stop thresholds in free frames, resolved
    /// once from `cfg.watermarks` (the cache capacity never changes).
    low_frames: usize,
    high_frames: usize,
    gen_end: SimTime,
    metrics: Metrics,
    ids: MetricIds,
    /// Per-shard metric handles; empty on single-shard runs (schema
    /// compatibility — see [`ShardMetricIds`]).
    shard_ids: Vec<ShardMetricIds>,
    /// Per-shard demand-fetch latency over the measurement window.
    shard_fetch_ns: Vec<desim::Histogram>,
    tracer: Box<dyn Tracer>,
    span_store: Option<SpanStore>,
    /// Per-shard (data, ctrl) link snapshots at the warm-up boundary.
    start_snap: Option<Vec<(fabric::link::LinkSnapshot, fabric::link::LinkSnapshot)>>,
    end_snap: Option<Vec<(fabric::link::LinkSnapshot, fabric::link::LinkSnapshot)>>,
    cache_start: Option<paging::cache::CacheStats>,
    cache_end: Option<paging::cache::CacheStats>,
    metrics_snap: Option<MetricsSnapshot>,
    last_now: SimTime,
    warmup_end: SimTime,
    measure_end: SimTime,
    timeline: Option<Timeline>,
    /// Continuous-telemetry bridge (None = telemetry off; see
    /// [`RunParams::telemetry`]).
    telem: Option<TelemBridge>,
    /// Core profiler + queueing observatory (None = profiler off; see
    /// [`RunParams::profile`]).
    prof: Option<ProfPlane>,
    /// Dispatcher-utilization gauge, registered when telemetry or the
    /// profiler is on (the window-aggregate gauge value in the metrics
    /// snapshot is time-weighted and therefore *is* the busy fraction;
    /// per-tick telemetry series sample the instantaneous 0/1 level).
    dispatcher_busy_gauge: Option<GaugeId>,
    /// Memory-access observatory (None = off; see
    /// [`RunParams::memory`]).
    memobs: Option<MemObsPlane>,
}

/// The memory observatory's runtime state: the bounded-memory
/// attribution/heat core plus the registry handles its window
/// rollovers publish into (all registered only when the observatory is
/// on, so disabled runs keep the golden serialisation schema).
struct MemObsPlane {
    obs: MemObservatory,
    /// Distinct pages touched in the last closed window.
    ws_pages: GaugeId,
    /// `max/mean` shard heat share.
    heat_skew: GaugeId,
    /// Cumulative strict prefetch hit-rate.
    hit_rate: GaugeId,
    /// Rows/records dropped by bounded-memory caps (mirrors the
    /// `trace_dropped` convention: explicit, never silent).
    obs_dropped: CounterId,
    /// `shardN.heat_share` gauges (empty on single-shard runs).
    heat_share: Vec<GaugeId>,
    /// `obs_dropped` value already mirrored into the registry counter.
    dropped_synced: u64,
}

impl<'w> Simulation<'w> {
    /// Builds a simulation of `cfg` running `workload` under `params`.
    ///
    /// The workload is borrowed so an expensive application dataset can
    /// be built once and swept over many load points.
    ///
    /// # Panics
    ///
    /// Panics if `local_mem_fraction` is outside `(0, 1]`.
    pub fn new(
        cfg: SystemConfig,
        workload: &'w mut dyn Workload,
        mut params: RunParams,
    ) -> Simulation<'w> {
        assert!(
            params.local_mem_fraction > 0.0 && params.local_mem_fraction <= 1.0,
            "local_mem_fraction must be in (0, 1]"
        );
        assert!(cfg.workers >= 1, "at least one worker required");
        let total_pages = workload.total_pages();
        let capacity = ((total_pages as f64 * params.local_mem_fraction).round() as usize)
            .clamp(16, total_pages as usize);
        let mut cache = PageCache::new(capacity, total_pages, cfg.eviction);
        let mut rng = Rng::new(params.seed ^ 0xC0FF_EE00);

        // Warm the cache to its steady-state fill (free list sitting at
        // the high watermark) so measurement starts in steady state.
        let low_frames = cfg.watermarks.low_frames(capacity);
        let high_frames = cfg.watermarks.high_frames(capacity);
        let fill = if capacity == total_pages as usize {
            capacity
        } else {
            capacity - high_frames
        };
        match workload.warm_pages() {
            Some(pages) => cache.warm_with(pages.into_iter().take(fill)),
            None => cache.warm(fill, &mut rng.fork(1)),
        }

        let warmup_end = SimTime::ZERO + params.warmup;
        let measure_end = warmup_end + params.measure;
        // One shared allocation for the fabric cost constants: every
        // NIC rail references it instead of carrying a private copy.
        let fabric_params: Rc<FabricParams> = Rc::new(cfg.fabric.clone());
        let workers = (0..cfg.workers)
            .map(|i| Worker {
                busy: false,
                free_at: SimTime::ZERO,
                qp: QpId(i as u32),
                resumes: VecDeque::new(),
                local_queue: VecDeque::new(),
                blocked: None,
            })
            .collect();

        let classes = workload.classes().len();
        let mut recorder = Recorder::new(warmup_end, measure_end, classes);
        recorder.keep_breakdowns(params.keep_breakdowns);

        let mut metrics = Metrics::new();
        let ids = MetricIds::register(&mut metrics);
        let shards = cfg.shards();
        let replicas = cfg.replicas();
        // Per-shard names join the registry only when sharding is on:
        // the single-shard schema must stay bit-identical to the
        // pre-sharding output.
        let shard_ids = if shards > 1 {
            (0..shards)
                .map(|s| ShardMetricIds::register(&mut metrics, s))
                .collect()
        } else {
            Vec::new()
        };
        let shard_map = ShardMap::new(shards, replicas, total_pages, cfg.shard_policy);

        // Tenant plane: the merged arrival mix is built from the spec
        // list, and per-tenant counter names join the registry only
        // when the plane has more than one tenant (a one-tenant plane
        // must serialise the exact pre-tenant schema). Registration
        // happens here — before the flight recorder below — so
        // telemetry runs sample the tenant counters too.
        let plane = params.tenants.take();
        let tenant_mix = plane.as_ref().map(|p| TenantMix::new(p, params.seed));
        let tenplane = plane.map(|p| {
            let n = p.specs.len();
            let ids = if n > 1 {
                (0..n)
                    .map(|t| TenantMetricIds::register(&mut metrics, t))
                    .collect()
            } else {
                Vec::new()
            };
            TenPlane {
                lo: p
                    .specs
                    .iter()
                    .map(|s| s.priority == TenantPriority::Low)
                    .collect(),
                buckets: p
                    .specs
                    .iter()
                    .map(|s| s.bucket_rps.map(|r| TokenBucket::new(r, s.bucket_burst)))
                    .collect(),
                acct: vec![TenantAcct::default(); n],
                ids,
                shed_watermark: p.shed_watermark,
                specs: p.specs,
            }
        });

        // Dispatcher scaling: per-dispatcher counters join the registry
        // only when the ingress plane has more than one core, mirroring
        // the shard/tenant gating discipline — a single dispatcher must
        // serialise the exact pre-scaling schema.
        let ndisp = cfg.ndispatchers();
        let observed = params.telemetry.is_some() || params.profile.is_some();
        let disp_ids = if ndisp > 1 {
            (0..ndisp)
                .map(|d| DispatcherMetricIds::register(&mut metrics, d, observed))
                .collect()
        } else {
            Vec::new()
        };
        // Dispatcher utilization joins the registry only when an
        // observer (telemetry or the profiler) wants it: the default
        // schema must stay byte-identical to the golden capture. With
        // more than one dispatcher the scalar gauge gives way to the
        // per-core `dispatcherN.busy_fraction` gauges above.
        let dispatcher_busy_gauge =
            (ndisp == 1 && observed).then(|| metrics.gauge("dispatcher.busy_fraction"));
        // The profiler's probes and depth gauges, like every other
        // instrument, must register before the flight recorder below so
        // telemetry runs sample them.
        let prof = params.profile.take().map(|pc| {
            let mut cores = CoreProfiler::new(warmup_end, measure_end, &pc);
            if ndisp == 1 {
                cores.add_core("dispatcher".to_string(), false);
            } else {
                for d in 0..ndisp {
                    cores.add_core(format!("dispatcher{d}"), false);
                }
            }
            for w in 0..cfg.workers {
                cores.add_core(format!("worker{w}"), true);
            }
            ProfPlane {
                cores,
                wbase: ndisp,
                parked: vec![0; cfg.workers],
                frame_wait_ns: 0,
                ingress: QueueProbe::new("ingress".to_string(), warmup_end, measure_end),
                ingress_gauge: metrics.gauge(queue_names::INGRESS),
                dingress: if ndisp > 1 {
                    (0..ndisp)
                        .map(|d| QueueProbe::new(format!("d{d}.ingress"), warmup_end, measure_end))
                        .collect()
                } else {
                    Vec::new()
                },
                dingress_gauges: if ndisp > 1 {
                    (0..ndisp)
                        .map(|d| queue_names::D_INGRESS.get(d).map(|n| metrics.gauge(n)))
                        .collect()
                } else {
                    Vec::new()
                },
                runnable: (0..cfg.workers)
                    .map(|w| QueueProbe::new(format!("w{w}.runnable"), warmup_end, measure_end))
                    .collect(),
                runnable_gauges: (0..cfg.workers)
                    .map(|w| queue_names::RUNNABLE.get(w).map(|n| metrics.gauge(n)))
                    .collect(),
                sq: (0..shards)
                    .map(|s| QueueProbe::new(format!("shard{s}.sq"), warmup_end, measure_end))
                    .collect(),
                sq_gauges: (0..shards)
                    .map(|s| queue_names::SQ.get(s).map(|n| metrics.gauge(n)))
                    .collect(),
                wb: (0..shards)
                    .map(|s| {
                        QueueProbe::new(format!("shard{s}.writeback"), warmup_end, measure_end)
                    })
                    .collect(),
                wb_gauges: (0..shards)
                    .map(|s| queue_names::WRITEBACK.get(s).map(|n| metrics.gauge(n)))
                    .collect(),
            }
        });

        // The scenario and telemetry configs are consumed, not cloned:
        // neither is read again after construction.
        let plane = match params.faults.take() {
            Some(s) => FaultPlane::new(s, params.seed ^ 0xFA17_1A7E_0000_0001),
            None => FaultPlane::inert(),
        };

        use desim::trace::shard_names as sn;
        // Memory-access observatory: registers its gauges/counter only
        // when enabled (and before the flight recorder, so telemetry
        // ticks sample them). Disabled runs register nothing and stay
        // byte-identical to the golden capture.
        let memobs = params.memory.take().map(|mc| MemObsPlane {
            obs: MemObservatory::new(mc, total_pages, shards),
            ws_pages: metrics.gauge("memory.ws_pages"),
            heat_skew: metrics.gauge("memory.heat_skew"),
            hit_rate: metrics.gauge("memory.prefetch_hit_rate"),
            obs_dropped: metrics.counter("memory.obs_dropped"),
            heat_share: if shards > 1 {
                (0..shards)
                    .map(|s| metrics.gauge(sn::HEAT_SHARE[s]))
                    .collect()
            } else {
                Vec::new()
            },
            dropped_synced: 0,
        });

        // Adaptive-RTO transport gauges: telemetry-gated (they exist to
        // be sampled by the flight recorder) and registered before it.
        let rto_ids: Vec<(GaugeId, GaugeId, GaugeId)> = if params.telemetry.is_some() {
            if shards == 1 {
                vec![(
                    metrics.gauge("nic.srtt_us"),
                    metrics.gauge("nic.rttvar_us"),
                    metrics.gauge("nic.rto_us"),
                )]
            } else {
                (0..shards)
                    .map(|s| {
                        (
                            metrics.gauge(sn::SRTT_US[s]),
                            metrics.gauge(sn::RTTVAR_US[s]),
                            metrics.gauge(sn::RTO_US[s]),
                        )
                    })
                    .collect()
            }
        } else {
            Vec::new()
        };

        // The flight recorder samples the instrument set as registered
        // above (ids + per-shard ids), so it must be built after them.
        // Health entities: one per worker QP, then one per shard rail.
        let telem = params.telemetry.take().map(|tc| {
            let mut rec = FlightRecorder::new(tc, &metrics);
            for w in 0..cfg.workers {
                rec.register_health(format!("qp{w}"));
            }
            for s in 0..shards {
                rec.register_health(format!("shard{s}"));
            }
            // Tenant health entities follow the shards, mirroring the
            // counter-registration gate: multi-tenant planes only.
            let tenants = tenplane.as_ref().map_or(0, |tp| {
                if tp.specs.len() > 1 {
                    tp.specs.len()
                } else {
                    0
                }
            });
            for t in 0..tenants {
                rec.register_health(format!("tenant{t}"));
            }
            let tick_s = rec.tick_period().as_secs_f64();
            TelemBridge {
                tenant_per_tick: (0..tenants)
                    .map(|t| tenplane.as_ref().expect("tenants > 0").specs[t].rate_rps * tick_s)
                    .collect(),
                rec,
                qp_tally: vec![FetchTally::default(); cfg.workers],
                qp_prev: vec![FetchTally::default(); cfg.workers],
                shard_tally: vec![FetchTally::default(); shards],
                shard_prev: vec![FetchTally::default(); shards],
                tenant_tally: vec![FetchTally::default(); tenants],
                tenant_prev: vec![FetchTally::default(); tenants],
                rto_ids,
            }
        });

        let tracer: Box<dyn Tracer> = match params.trace_capacity {
            Some(cap) => Box::new(RingTracer::new(cap)),
            None => Box::new(NoopTracer),
        };
        // Breakdowns are derived from span trees, so keeping them
        // implies the span layer (stats-only: the recorder holds the
        // per-request rows itself).
        let span_store = params
            .spans
            .or(if params.keep_breakdowns {
                Some(SpanConfig::stats_only())
            } else {
                None
            })
            .map(SpanStore::new);
        let obs_mask = (if tracer.enabled() { obs::TRACE } else { 0 })
            | (if span_store.is_some() { obs::SPANS } else { 0 })
            | (if prof.is_some() { obs::PROFILE } else { 0 })
            | (if memobs.is_some() { obs::MEMORY } else { 0 });

        Simulation {
            events: EventQueue::new(),
            eth: EthPort::new(&fabric_params),
            // One NIC rail per shard; each rail carries one QP per
            // worker, the reclaimer's write-back QP, and the failover
            // QP used by fetch chains re-issued after an error
            // completion.
            nics: (0..shards)
                .map(|_| RdmaNic::new(fabric_params.clone(), cfg.workers as u32 + 2))
                .collect(),
            // Every shard's chain exports the full page space
            // (address-preserving, like the pre-sharding replicas), so
            // re-mapping a page is purely a routing decision.
            mems: (0..shards * replicas)
                .map(|i| MemNode::new(total_pages, PAGE_SIZE as u32).with_id(i as u32))
                .collect(),
            shard_map,
            plane,
            plane_start: FaultStats::default(),
            cache,
            arrivals: match tenant_mix {
                Some(mix) => Arrivals::Tenant(mix),
                None => match params.burst {
                    None => Arrivals::Poisson(OpenLoop::new(params.offered_rps, params.seed)),
                    Some((peak, phase)) => Arrivals::Bursty(BurstyLoop::new(
                        params.offered_rps,
                        peak,
                        phase,
                        params.seed,
                    )),
                },
            },
            recorder,
            rng,
            reqs: Vec::new(),
            free_reqs: Vec::new(),
            trace_pool: Vec::new(),
            obs_mask,
            workers,
            pending: VecDeque::new(),
            pending_lo: VecDeque::new(),
            ingress_hi: VecDeque::new(),
            ingress_lo: VecDeque::new(),
            tenplane,
            cons: Conservation::default(),
            rr_next: 0,
            dispatcher_free: vec![SimTime::ZERO; ndisp],
            admission_backlog: vec![0; ndisp],
            fanin: IngressFanIn::new(ndisp, params.seed ^ 0xD15A_7C48_0000_0001),
            fc_leader: 0,
            fc_until: SimTime::ZERO,
            fc_count: 0,
            fc_tail: SimTime::ZERO,
            disp_ids,
            #[cfg(test)]
            dispatcher_log: Vec::new(),
            inflight: FxHashMap::default(),
            orphan_fetches: Vec::new(),
            deferred_writebacks: vec![VecDeque::new(); shards],
            reclaim_state: ReclaimState::Idle,
            low_frames,
            high_frames,
            gen_end: measure_end,
            metrics,
            ids,
            shard_ids,
            shard_fetch_ns: vec![desim::Histogram::new(); shards],
            tracer,
            span_store,
            start_snap: None,
            end_snap: None,
            cache_start: None,
            cache_end: None,
            metrics_snap: None,
            last_now: SimTime::ZERO,
            warmup_end,
            measure_end,
            timeline: params.timeline_bucket.map(|b| Timeline {
                queue_depth: desim::TimeSeries::new(b),
                inflight: desim::TimeSeries::new(b),
            }),
            telem,
            prof,
            dispatcher_busy_gauge,
            memobs,
            workload,
            cfg,
            params,
        }
    }

    /// Runs to completion and returns the results.
    pub fn run(mut self) -> RunResult {
        self.schedule_next_arrival();
        if let Some(b) = &self.telem {
            self.events
                .push(SimTime::ZERO + b.rec.tick_period(), Ev::TelemetryTick);
        }
        let drain_end = self.measure_end + SimDuration::from_millis(20);
        while let Some((now, ev)) = self.events.pop() {
            if self.start_snap.is_none() && now >= self.warmup_end {
                // Warm-up → measure boundary: every counter, gauge and
                // cache statistic re-bases here so rates cover only the
                // measurement window.
                self.start_snap = Some(Self::link_snapshots(&self.nics));
                self.cache_start = Some(self.cache.stats());
                if let Some(b) = &mut self.telem {
                    // Bank the counts accrued since the last tick:
                    // the imminent reset would otherwise drop them
                    // from every rate series.
                    b.rec.bank(&self.metrics);
                }
                self.metrics.reset(now);
                if let Some(b) = &mut self.telem {
                    // The reset zeroed every counter; re-sync the
                    // recorder's baselines so the next tick's deltas
                    // stay meaningful.
                    b.rec.rebase(&self.metrics);
                }
                self.plane_start = self.plane.stats();
            }
            if self.end_snap.is_none() && now >= self.measure_end {
                self.end_snap = Some(Self::link_snapshots(&self.nics));
                self.cache_end = Some(self.cache.stats());
                self.finalize_window(now);
            }
            if now > drain_end {
                break;
            }
            self.last_now = now;
            self.handle(now, ev);
        }
        // Light-load runs can drain the event queue before reaching the
        // boundaries; fall back to the final counters.
        if self.end_snap.is_none() {
            self.end_snap = Some(Self::link_snapshots(&self.nics));
            self.cache_end = Some(self.cache.stats());
            self.finalize_window(self.last_now);
        }
        let window = self.params.measure;
        // Utilisation is the mean across shard rails (equal to the
        // single rail's utilisation on unsharded runs); the per-shard
        // view keeps each rail's own numbers.
        let (data_util, ctrl_util, shard_windows) = match (&self.start_snap, &self.end_snap) {
            (Some(s0), Some(s1)) => {
                let n = s0.len() as f64;
                let data: f64 = s0
                    .iter()
                    .zip(s1)
                    .map(|((d0, _), (d1, _))| Link::utilization(d0, d1, window))
                    .sum();
                let ctrl: f64 = s0
                    .iter()
                    .zip(s1)
                    .map(|((_, c0), (_, c1))| Link::utilization(c0, c1, window))
                    .sum();
                let windows = s0
                    .iter()
                    .zip(s1)
                    .enumerate()
                    .map(|(s, ((d0, _), (d1, _)))| ShardWindow {
                        shard: s,
                        data_bytes: d1.bytes - d0.bytes,
                        data_util: Link::utilization(d0, d1, window),
                        fetch_ns: std::mem::take(&mut self.shard_fetch_ns[s]),
                    })
                    .collect();
                (data / n, ctrl / n, windows)
            }
            _ => (0.0, 0.0, Vec::new()),
        };
        let metrics = self.metrics_snap.expect("window finalized above");
        let cache = match (self.cache_start, self.cache_end) {
            (Some(start), Some(end)) => end.since(&start),
            (None, Some(end)) => end,
            _ => unreachable!("cache_end set above"),
        };
        let trace = if self.params.trace_capacity.is_some() {
            let mut events = self.tracer.drain();
            // Worker virtual clocks run slightly ahead of the event
            // clock, so records arrive almost — not exactly — in time
            // order; present the timeline sorted (stable, so equal
            // timestamps keep emission order and stay deterministic).
            events.sort_by_key(|e| e.at);
            Some(events)
        } else {
            None
        };
        // Annotate the telemetry report with the fault episodes that
        // were scheduled, so breaches can be read against the injected
        // disturbance (link episodes hit every series; node episodes
        // are pinned to the shard whose chain the node belongs to).
        let replicas = self.cfg.replicas();
        let telemetry = self.telem.take().map(|b| {
            let episodes = self
                .params
                .faults
                .as_ref()
                .map(|sc| {
                    sc.episodes
                        .iter()
                        .map(|ep| {
                            let (kind, affected) = match ep.kind {
                                faults::EpisodeKind::LinkDegraded { .. } => {
                                    ("link_degraded", vec!["*".to_string()])
                                }
                                faults::EpisodeKind::NodeStall { node, .. } => (
                                    "node_stall",
                                    vec![format!("shard{}", node as usize / replicas)],
                                ),
                                faults::EpisodeKind::NodeDown { node } => (
                                    "node_down",
                                    vec![format!("shard{}", node as usize / replicas)],
                                ),
                            };
                            EpisodeNote {
                                start: ep.start,
                                end: ep.end,
                                kind,
                                affected,
                            }
                        })
                        .collect()
                })
                .unwrap_or_default();
            b.rec.finish(episodes)
        });
        // Close every core's tail gap at the window end and freeze the
        // tilings; queue reports keep a fixed order (ingress,
        // per-dispatcher ingress slots when scaled, per-worker runnable,
        // per-shard SQ, per-shard write-back) so serialisation is
        // deterministic.
        let profile = self.prof.take().map(|p| {
            let mut queues = Vec::with_capacity(
                1 + p.dingress.len() + p.runnable.len() + p.sq.len() + p.wb.len(),
            );
            queues.push(p.ingress.report());
            queues.extend(p.dingress.iter().map(QueueProbe::report));
            queues.extend(p.runnable.iter().map(QueueProbe::report));
            queues.extend(p.sq.iter().map(QueueProbe::report));
            queues.extend(p.wb.iter().map(QueueProbe::report));
            p.cores.finish(queues, p.frame_wait_ns)
        });
        let stats = SimStats::from_snapshot(&metrics);
        // Satellite cross-check: on fault-free runs the legacy spin
        // counter and the tiling-derived spin time must agree. They
        // cannot agree exactly — the counter bins whole spin intervals
        // at the instant they are issued (a spin straddling the warm-up
        // boundary is booked whole or zeroed by the reset) while the
        // profiler clamps every accrual to the window — so the bound is
        // 2 % of total worker time plus 5 % of the counter itself.
        #[cfg(debug_assertions)]
        if let Some(p) = &profile {
            if !self.plane.active() {
                let derived: u64 = p
                    .cores
                    .iter()
                    .filter(|c| c.is_worker)
                    .map(|c| {
                        c.ns(CoreState::Spin) + c.ns(CoreState::TxWait) + c.ns(CoreState::FetchWait)
                    })
                    .sum::<u64>()
                    .saturating_sub(p.frame_wait_ns);
                let total: u64 = p
                    .cores
                    .iter()
                    .filter(|c| c.is_worker)
                    .map(|c| c.total_ns())
                    .sum();
                let diff = stats.spin_ns.abs_diff(derived);
                assert!(
                    diff as f64 <= 0.02 * total as f64 + 0.05 * stats.spin_ns as f64,
                    "legacy spin_ns {} vs profiler-derived {} diverge beyond tolerance",
                    stats.spin_ns,
                    derived
                );
            }
        }
        // Request conservation: every arrival the source generated must
        // be exactly one of completed / dropped / shed / aborted /
        // still live. Live slots at drain end are the in-flight term.
        self.cons.inflight_at_end = self.reqs.iter().filter(|r| r.is_some()).count() as u64;
        debug_assert!(
            self.cons.holds(),
            "request conservation violated: {:?}",
            self.cons
        );
        // Observatory run-end sweep: remaining prefetch records resolve
        // to wasted (arrived, never consumed) or inflight_at_end, and
        // the fate identity must then hold exactly per detector class.
        let memory = self.memobs.take().map(|mo| {
            let rep = mo.obs.finish(self.last_now.as_nanos());
            debug_assert!(
                rep.holds(),
                "prefetch-fate conservation violated: {:?}",
                rep.classes
            );
            rep
        });
        let tenants = match self.tenplane.take() {
            None => Vec::new(),
            Some(tp) => tp
                .specs
                .iter()
                .zip(tp.acct)
                .enumerate()
                .map(|(t, (spec, acct))| TenantWindow {
                    tenant: t,
                    name: spec.name.clone(),
                    priority: spec.priority.name(),
                    offered_rps: spec.rate_rps,
                    arrivals: acct.arrivals,
                    admitted: acct.admitted,
                    completed: acct.completed,
                    sheds: acct.sheds,
                    drops: acct.drops,
                    slo_ok: slo_verdict(&spec.slo, &acct.latency),
                    latency_ns: acct.latency,
                })
                .collect(),
        };
        RunResult {
            recorder: self.recorder,
            rdma_data_util: data_util,
            rdma_ctrl_util: ctrl_util,
            stats,
            metrics,
            trace,
            trace_dropped: self.tracer.dropped(),
            cache,
            offered_rps: self.params.offered_rps,
            window,
            workers: self.cfg.workers,
            timeline: self.timeline,
            spans: self.span_store.map(SpanStore::finish),
            shards: shard_windows,
            tenants,
            conservation: self.cons,
            telemetry,
            profile,
            memory,
            #[cfg(test)]
            dispatcher_log: std::mem::take(&mut self.dispatcher_log),
        }
    }

    /// Per-shard (data, ctrl) link snapshots, in shard order.
    fn link_snapshots(
        nics: &[RdmaNic],
    ) -> Vec<(fabric::link::LinkSnapshot, fabric::link::LinkSnapshot)> {
        nics.iter()
            .map(|n| (n.data_link().snapshot(), n.ctrl_link().snapshot()))
            .collect()
    }

    /// Outstanding work requests summed over every shard rail.
    fn total_outstanding(&self) -> u32 {
        self.nics.iter().map(|n| n.total_outstanding()).sum()
    }

    /// Updates a shard's QP-occupancy gauge (multi-shard runs only —
    /// the handles are not registered otherwise).
    #[inline]
    fn note_shard_outstanding(&mut self, shard: usize, at: SimTime) {
        if let Some(ids) = self.shard_ids.get(shard) {
            self.metrics.gauge_set(
                ids.qp_outstanding,
                at,
                self.nics[shard].total_outstanding() as f64,
            );
        }
    }

    /// Closes the measurement window at `now`: folds the link message
    /// deltas into the registry and freezes the snapshot.
    fn finalize_window(&mut self, now: SimTime) {
        if let (Some(s0), Some(s1)) = (&self.start_snap, &self.end_snap) {
            let data: u64 = s0
                .iter()
                .zip(s1)
                .map(|((d0, _), (d1, _))| d1.messages - d0.messages)
                .sum();
            let ctrl: u64 = s0
                .iter()
                .zip(s1)
                .map(|((_, c0), (_, c1))| c1.messages - c0.messages)
                .sum();
            self.metrics.add(self.ids.rdma_data_msgs, data);
            self.metrics.add(self.ids.rdma_ctrl_msgs, ctrl);
        }
        // Fault-plane counters accumulate from t=0; fold in the
        // measurement-window delta like the link message counts above.
        let fs = self.plane.stats();
        self.metrics.add(
            self.ids.injected_losses,
            fs.losses - self.plane_start.losses,
        );
        self.metrics.add(
            self.ids.injected_cqe_errors,
            fs.cqe_errors - self.plane_start.cqe_errors,
        );
        self.metrics_snap = Some(self.metrics.snapshot(now));
    }

    /// Records a trace event if tracing is enabled (one integer test —
    /// no virtual call — when disabled).
    #[inline]
    fn trace(&mut self, at: SimTime, component: &'static str, name: &'static str, a: u64, b: u64) {
        if self.obs_mask & obs::TRACE != 0 {
            self.tracer.record(TraceEvent {
                at,
                component,
                name,
                a,
                b,
            });
        }
    }

    // ----- core profiler hooks -------------------------------------------
    //
    // All hooks are one integer test when the profiler is off
    // (mirroring [`Simulation::trace`]); none of them schedules events,
    // so enabling the profiler never perturbs a run. Cores `0..wbase`
    // are the dispatcher cores; worker `w` tiles core `wbase + w`.

    /// Accrues worker `w`'s open gap (idle/park/stall) up to `now`.
    #[inline]
    fn wprof_flush(&mut self, w: usize, now: SimTime) {
        if self.obs_mask & obs::PROFILE != 0 {
            if let Some(p) = &mut self.prof {
                p.cores.flush(p.wbase + w, now);
            }
        }
    }

    /// Closes worker `w`'s interval `[cursor, until]` as `state`.
    #[inline]
    fn wprof_phase(&mut self, w: usize, state: CoreState, until: SimTime) {
        if self.obs_mask & obs::PROFILE != 0 {
            if let Some(p) = &mut self.prof {
                p.cores.phase(p.wbase + w, state, until);
            }
        }
    }

    /// Marks the state of worker `w`'s next open interval.
    #[inline]
    fn wprof_gap(&mut self, w: usize, state: CoreState) {
        if self.obs_mask & obs::PROFILE != 0 {
            if let Some(p) = &mut self.prof {
                p.cores.set_gap(p.wbase + w, state);
            }
        }
    }

    /// Worker `w` idles until a handoff that completes at `until`
    /// (push-path dispatch onto an idle worker): the open gap runs to
    /// the handoff's start, then the handoff itself tiles as `Handoff`.
    #[inline]
    fn wprof_handoff_from(&mut self, w: usize, start: SimTime, until: SimTime) {
        if self.obs_mask & obs::PROFILE != 0 {
            if let Some(p) = &mut self.prof {
                p.cores.flush(p.wbase + w, start);
                p.cores.phase(p.wbase + w, CoreState::Handoff, until);
            }
        }
    }

    /// Records one busy interval `[start, end]` of the given state on
    /// dispatcher core `d`'s timeline. Per-core intervals are naturally
    /// monotone (every `dispatcher_free[d]` advance is `max`-clamped),
    /// so the 1 → 0 gauge edges integrate to the true busy fraction in
    /// the window aggregate.
    #[inline]
    fn dispatcher_busy(&mut self, d: usize, start: SimTime, end: SimTime, state: CoreState) {
        if let Some(g) = self.dispatcher_busy_gauge {
            self.metrics.gauge_set(g, start, 1.0);
            self.metrics.gauge_set(g, end, 0.0);
        }
        if let Some(ids) = self.disp_ids.get(d) {
            if let Some(g) = ids.busy {
                self.metrics.gauge_set(g, start, 1.0);
                self.metrics.gauge_set(g, end, 0.0);
            }
        }
        if self.obs_mask & obs::PROFILE != 0 {
            if let Some(p) = &mut self.prof {
                p.cores.flush(d, start);
                p.cores.phase(d, state, end);
            }
        }
    }

    /// Logs one dispatcher-timeline charge for the differential oracle
    /// (test builds only — the release hot path carries no log).
    #[cfg(test)]
    fn log_charge(&mut self, op: DispatchOp, now: SimTime, start: SimTime, end: SimTime, d: usize) {
        self.dispatcher_log.push(DispatchCharge {
            op,
            now,
            start,
            end,
            disp: d,
        });
    }

    /// Ingress (central pending queue) enter/leave.
    #[inline]
    fn q_ingress(&mut self, now: SimTime, push: bool) {
        if let Some(p) = &mut self.prof {
            let d = if push {
                p.ingress.enqueue(now)
            } else {
                p.ingress.dequeue(now)
            };
            self.metrics.gauge_set(p.ingress_gauge, now, d as f64);
        }
    }

    /// Dispatcher `d`'s ingress slot enter/leave (multi-dispatcher runs
    /// only — the probes are not built otherwise).
    #[inline]
    fn q_dingress(&mut self, d: usize, now: SimTime, push: bool) {
        if let Some(p) = &mut self.prof {
            let Some(probe) = p.dingress.get_mut(d) else {
                return;
            };
            let depth = if push {
                probe.enqueue(now)
            } else {
                probe.dequeue(now)
            };
            if let Some(g) = p.dingress_gauges[d] {
                self.metrics.gauge_set(g, now, depth as f64);
            }
        }
    }

    /// Worker `w`'s runnable (resume) queue enter/leave.
    #[inline]
    fn q_runnable(&mut self, w: usize, now: SimTime, push: bool) {
        if let Some(p) = &mut self.prof {
            let d = if push {
                p.runnable[w].enqueue(now)
            } else {
                p.runnable[w].dequeue(now)
            };
            if let Some(g) = p.runnable_gauges[w] {
                self.metrics.gauge_set(g, now, d as f64);
            }
        }
    }

    /// A work request occupied a slot on shard `shard`'s send queue at
    /// `at`; its residence (post → CQE consumption) is known
    /// analytically at post time.
    #[inline]
    fn q_sq_post(&mut self, shard: usize, at: SimTime, residence: SimDuration) {
        if let Some(p) = &mut self.prof {
            let d = p.sq[shard].inc(at);
            p.sq[shard].wait(at, residence);
            if let Some(g) = p.sq_gauges[shard] {
                self.metrics.gauge_set(g, at, d as f64);
            }
        }
    }

    /// A CQE retired one slot on shard `shard`'s send queue.
    #[inline]
    fn q_sq_cqe(&mut self, shard: usize, now: SimTime) {
        if let Some(p) = &mut self.prof {
            let d = p.sq[shard].dec(now);
            if let Some(g) = p.sq_gauges[shard] {
                self.metrics.gauge_set(g, now, d as f64);
            }
        }
    }

    /// Shard `shard`'s deferred write-back queue enter/leave.
    #[inline]
    fn q_wb(&mut self, shard: usize, now: SimTime, push: bool) {
        if let Some(p) = &mut self.prof {
            let d = if push {
                p.wb[shard].enqueue(now)
            } else {
                p.wb[shard].dequeue(now)
            };
            if let Some(g) = p.wb_gauges[shard] {
                self.metrics.gauge_set(g, now, d as f64);
            }
        }
    }

    /// A unithread parked (yielded with its fetch outstanding) on
    /// worker `w`.
    #[inline]
    fn prof_park(&mut self, w: usize) {
        if let Some(p) = &mut self.prof {
            p.parked[w] += 1;
        }
    }

    /// A parked unithread on worker `w` left the parked set at `now`
    /// (became runnable, or was dropped by a failed fetch). If the
    /// worker is idling, its gap so far was `Park`; re-derive the gap
    /// state from the remaining parked count.
    #[inline]
    fn prof_unpark(&mut self, w: usize, now: SimTime, idle: bool) {
        if let Some(p) = &mut self.prof {
            p.parked[w] -= 1;
            if idle {
                p.cores.flush(p.wbase + w, now);
                let gap = if p.parked[w] > 0 {
                    CoreState::Park
                } else {
                    CoreState::Idle
                };
                p.cores.set_gap(p.wbase + w, gap);
            }
        }
    }

    // ----- arrivals and dispatch ---------------------------------------

    fn schedule_next_arrival(&mut self) {
        let (tx, tenant) = self.arrivals.next_arrival();
        if tx >= self.gen_end {
            return;
        }
        // Recycle a retired request's step buffer when one is free.
        let mut trace = self.trace_pool.pop().unwrap_or_default();
        // Route the draw through the tenant-aware hook: the default
        // implementation delegates straight to `next_request_into`, so
        // plane-off runs draw the identical rng stream.
        self.workload
            .next_request_for(tenant as usize, &mut self.rng, &mut trace);
        let req_bytes = trace.request_bytes;
        let id = self.alloc_req(trace, tx, tenant);
        self.cons.arrivals += 1;
        let delivered = self.eth.deliver_request(tx, req_bytes);
        self.events.push(delivered, Ev::Arrival { req: id });
    }

    fn alloc_req(&mut self, trace: Trace, tx: SimTime, tenant: u16) -> usize {
        let spans = self.span_store.as_mut().map(|s| s.builder(trace.class, tx));
        let req = Req {
            trace,
            step: 0,
            tenant,
            disp: 0,
            ingress_slot: 0,
            tx_time: tx,
            sched_epoch: tx,
            worker: usize::MAX,
            fetch_done_at: SimTime::ZERO,
            started: false,
            spans,
            detector: Detector::new(self.cfg.prefetcher),
            obs_last_page: None,
        };
        if let Some(slot) = self.free_reqs.pop() {
            self.reqs[slot] = Some(req);
            slot
        } else {
            self.reqs.push(Some(req));
            self.reqs.len() - 1
        }
    }

    fn free_req(&mut self, id: usize) {
        if let Some(req) = self.reqs[id].take() {
            // Bound the pool so a transient burst doesn't pin its
            // high-water mark of step buffers forever.
            if self.trace_pool.len() < 4_096 {
                self.trace_pool.push(req.trace);
            }
        }
        self.free_reqs.push(id);
    }

    fn req(&mut self, id: usize) -> &mut Req {
        self.reqs[id].as_mut().expect("dangling request id")
    }

    /// The request's span builder, if the span layer is on (one integer
    /// test when off, before any request-slot load — mirrors
    /// [`Simulation::trace`]).
    #[inline]
    fn sb(&mut self, id: usize) -> Option<&mut SpanBuilder> {
        if self.obs_mask & obs::SPANS == 0 {
            return None;
        }
        self.reqs[id]
            .as_mut()
            .expect("dangling request id")
            .spans
            .as_mut()
    }

    /// Returns a dropped request's span buffer to the store's pool.
    fn discard_spans(&mut self, id: usize) {
        if let Some(b) = self.req(id).spans.take() {
            if let Some(store) = &mut self.span_store {
                store.discard(b);
            }
        }
    }

    fn handle(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::Arrival { req } => self.on_arrival(now, req),
            Ev::Admit { req } => self.on_admit(now, req),
            Ev::WorkerWake { worker, cont } => self.on_worker_wake(now, worker, cont),
            Ev::FetchDone { worker, page } => self.on_fetch_done(now, worker, page),
            Ev::WaiterReady { req } => self.on_waiter_ready(now, req),
            Ev::WriteDone { shard } => self.on_write_done(now, shard),
            Ev::ReclaimTick => self.on_reclaim_tick(now),
            Ev::CqeRetire { shard, qp } => self.on_cqe_retire(now, shard, qp),
            Ev::TelemetryTick => self.on_telemetry_tick(now),
        }
    }

    /// One flight-recorder sample: gathers health inputs (worker QPs
    /// first, then shard rails — the order the entities were registered
    /// in), lets the recorder snapshot the registry and run the SLO
    /// engine, and schedules the next tick. Read-only with respect to
    /// simulation state, so enabling telemetry perturbs nothing but the
    /// event queue's tie-break sequence numbers.
    fn on_telemetry_tick(&mut self, now: SimTime) {
        let Some(mut b) = self.telem.take() else {
            return;
        };
        let qp_depth = self.cfg.fabric.qp_depth as f64;
        let shards = self.cfg.shards();
        let mut health = Vec::with_capacity(self.workers.len() + shards);
        for (w, worker) in self.workers.iter().enumerate() {
            let outstanding: u32 = self.nics.iter().map(|n| n.outstanding(worker.qp)).sum();
            let d = b.qp_tally[w].since(&b.qp_prev[w]);
            b.qp_prev[w] = b.qp_tally[w];
            health.push(HealthInput {
                outstanding: outstanding as f64,
                // A worker QP exists on every shard rail, so its slots
                // scale with the shard count.
                capacity: qp_depth * shards as f64,
                error_chains: d.errors as f64,
                retransmit_rate: if d.fetches > 0 {
                    d.retransmits as f64 / d.fetches as f64
                } else {
                    0.0
                },
                degraded_queue: (worker.resumes.len()
                    + worker.local_queue.len()
                    + usize::from(worker.blocked.is_some())) as f64,
            });
        }
        for s in 0..shards {
            let d = b.shard_tally[s].since(&b.shard_prev[s]);
            b.shard_prev[s] = b.shard_tally[s];
            health.push(HealthInput {
                outstanding: self.nics[s].total_outstanding() as f64,
                capacity: qp_depth * (self.cfg.workers + 2) as f64,
                error_chains: d.errors as f64,
                retransmit_rate: if d.fetches > 0 {
                    d.retransmits as f64 / d.fetches as f64
                } else {
                    0.0
                },
                degraded_queue: self.deferred_writebacks[s].len() as f64,
            });
        }
        // Per-tenant health rows (registered only for multi-tenant
        // planes): "outstanding" is the tick's arrival count against the
        // tenant's configured per-tick rate, "errors" are sheds.
        for t in 0..b.tenant_tally.len() {
            let d = b.tenant_tally[t].since(&b.tenant_prev[t]);
            b.tenant_prev[t] = b.tenant_tally[t];
            health.push(HealthInput {
                outstanding: d.fetches as f64,
                capacity: b.tenant_per_tick[t].max(1.0),
                error_chains: d.errors as f64,
                retransmit_rate: if d.fetches > 0 {
                    d.errors as f64 / d.fetches as f64
                } else {
                    0.0
                },
                degraded_queue: 0.0,
            });
        }
        // Adaptive-RTO visibility: sample each shard rail's RFC 6298
        // state into its gauges before the recorder snapshots them.
        // Zero until the timer is warm (no RTT samples yet); the RTO
        // gauge always carries the armed base value, so fixed-ladder
        // runs show a flat line at `params.rto`.
        for (s, &(srtt_id, rttvar_id, rto_id)) in b.rto_ids.iter().enumerate() {
            let nic = &self.nics[s];
            let srtt = nic.srtt().map_or(0.0, |d| d.as_nanos() as f64 / 1_000.0);
            let rttvar = nic.rttvar().map_or(0.0, |d| d.as_nanos() as f64 / 1_000.0);
            let rto = nic.current_rto().as_nanos() as f64 / 1_000.0;
            self.metrics.gauge_set(srtt_id, now, srtt);
            self.metrics.gauge_set(rttvar_id, now, rttvar);
            self.metrics.gauge_set(rto_id, now, rto);
        }
        b.rec.tick(now, &self.metrics, &health, &mut *self.tracer);
        let next = now + b.rec.tick_period();
        if next <= self.measure_end {
            self.events.push(next, Ev::TelemetryTick);
        }
        self.telem = Some(b);
    }

    /// Tallies one fetch attempt for telemetry health scoring,
    /// attributed to the worker QP that originated the chain and to the
    /// shard rail it ran on (one branch when telemetry is off).
    #[inline]
    fn telem_fetch(&mut self, shard: usize, qp: QpId, retransmits: u64, error: bool) {
        if let Some(b) = &mut self.telem {
            if let Some(t) = b.qp_tally.get_mut(qp.0 as usize) {
                t.fetches += 1;
                t.retransmits += retransmits;
                t.errors += u64::from(error);
            }
            let t = &mut b.shard_tally[shard];
            t.fetches += 1;
            t.retransmits += retransmits;
            t.errors += u64::from(error);
        }
    }

    // ----- memory-access observatory hooks -------------------------------
    //
    // All hooks are one integer test when the observatory is off
    // (mirroring [`Simulation::trace`]); none schedules events or draws
    // from the shared RNG, so enabling the observatory never perturbs a
    // run — equal-seed runs replay byte-identically with it on or off.

    /// Books a completed demand access at `t`: heat sketch, working
    /// set, heatmap, shard touch and stride fingerprint — and, when
    /// `classify`, resolves a tracked prefetch of `page` as a *hit*
    /// (the line was already resident when demand reached it). Window
    /// rollovers publish fresh gauge values into the registry.
    fn mobs_touch(&mut self, req: usize, page: u64, t: SimTime, classify: bool) {
        if self.obs_mask & obs::MEMORY == 0 {
            return;
        }
        let delta = {
            let r = self.req(req);
            let last = r.obs_last_page;
            r.obs_last_page = Some(page);
            last.map(|p| page as i64 - p as i64)
        };
        let shard = self.shard_map.shard_of(page);
        let Some(mo) = &mut self.memobs else { return };
        if classify {
            mo.obs.classify_hit(page);
        }
        if mo.obs.on_touch(page, shard, t.as_nanos(), delta) {
            self.metrics
                .gauge_set(mo.ws_pages, t, mo.obs.ws_last() as f64);
            self.metrics.gauge_set(mo.heat_skew, t, mo.obs.heat_skew());
            self.metrics.gauge_set(mo.hit_rate, t, mo.obs.hit_rate());
            for (s, g) in mo.heat_share.iter().enumerate() {
                self.metrics.gauge_set(*g, t, mo.obs.shard_share(s));
            }
            let dropped = mo.obs.dropped();
            self.metrics
                .add(mo.obs_dropped, dropped - mo.dropped_synced);
            mo.dropped_synced = dropped;
        }
    }

    /// Resolves a demand access that coalesced onto an in-flight line
    /// at `t` against a tracked prefetch of `page`: a line that arrived
    /// before use is a *hit*, a still-flying healthy line is *late*
    /// (the head start since issue is credited as saved latency), and a
    /// failed line is left for the completion path to classify wasted.
    #[inline]
    fn mobs_coalesce(&mut self, page: u64, t: SimTime) {
        if self.obs_mask & obs::MEMORY == 0 {
            return;
        }
        let Some(info) = self.inflight.get(&page) else {
            return;
        };
        let (done_at, failed) = (info.done_at, info.failed);
        if let Some(mo) = &mut self.memobs {
            if done_at <= t {
                mo.obs.classify_hit(page);
            } else if !failed {
                mo.obs.classify_late(page, t.as_nanos());
            }
        }
    }

    /// Books a prefetch issuance for fate attribution.
    #[inline]
    fn mobs_prefetch_issued(&mut self, page: u64, class: PrefetchClass, t: SimTime) {
        if self.obs_mask & obs::MEMORY == 0 {
            return;
        }
        if let Some(mo) = &mut self.memobs {
            mo.obs.on_prefetch_issued(page, class, t.as_nanos());
        }
    }

    /// Marks a tracked prefetch's line as arrived (its fetch
    /// completed successfully).
    #[inline]
    fn mobs_arrived(&mut self, page: u64) {
        if self.obs_mask & obs::MEMORY == 0 {
            return;
        }
        if let Some(mo) = &mut self.memobs {
            mo.obs.on_prefetch_arrived(page);
        }
    }

    /// `page` left the cache (eviction, reservation cancel) or its
    /// fetch failed terminally: a tracked never-consumed prefetch of it
    /// is *wasted*.
    #[inline]
    fn mobs_wasted(&mut self, page: u64) {
        if self.obs_mask & obs::MEMORY == 0 {
            return;
        }
        if let Some(mo) = &mut self.memobs {
            mo.obs.classify_wasted(page);
        }
    }

    // ----- tenant plane --------------------------------------------------

    /// Books one tenant-plane event: bumps the tenant's registry
    /// counter (multi-tenant runs only — see [`TenantMetricIds`]) and
    /// its window accounting. Arrivals, sheds and drops window on the
    /// TX instant; completions on the reply RX instant. One branch
    /// when the plane is off.
    #[inline]
    fn tenant_note(&mut self, tenant: u16, ev: TenantEvent, at: SimTime, latency_ns: u64) {
        let Some(tp) = &mut self.tenplane else { return };
        let t = tenant as usize;
        if let Some(ids) = tp.ids.get(t) {
            let id = match ev {
                TenantEvent::Arrival => ids.arrivals,
                TenantEvent::Admitted => ids.admitted,
                TenantEvent::Shed => ids.sheds,
                TenantEvent::Drop => ids.drops,
                TenantEvent::Completion => ids.completions,
            };
            self.metrics.inc(id);
        }
        if at < self.warmup_end || at >= self.measure_end {
            return;
        }
        let a = &mut tp.acct[t];
        match ev {
            TenantEvent::Arrival => a.arrivals += 1,
            TenantEvent::Admitted => a.admitted += 1,
            TenantEvent::Shed => a.sheds += 1,
            TenantEvent::Drop => a.drops += 1,
            TenantEvent::Completion => {
                a.completed += 1;
                a.latency.record(latency_ns);
            }
        }
    }

    /// Tallies a tenant arrival (or shed) for telemetry health
    /// scoring (one branch when telemetry is off or single-tenant).
    #[inline]
    fn telem_tenant(&mut self, tenant: u16, shed: bool) {
        if let Some(b) = &mut self.telem {
            if let Some(t) = b.tenant_tally.get_mut(tenant as usize) {
                if shed {
                    t.errors += 1;
                } else {
                    t.fetches += 1;
                }
            }
        }
    }

    /// Combined central-queue depth across both priority classes.
    #[inline]
    fn pending_depth(&self) -> usize {
        self.pending.len() + self.pending_lo.len()
    }

    /// Enqueues an admitted request into its priority class's central
    /// queue (everything is high-priority with the plane off, so the
    /// legacy path never touches `pending_lo`).
    #[inline]
    fn push_pending(&mut self, req: usize) {
        let lo = match &self.tenplane {
            Some(tp) => {
                tp.lo[self.reqs[req].as_ref().expect("dangling request id").tenant as usize]
            }
            None => false,
        };
        if lo {
            self.pending_lo.push_back(req);
        } else {
            self.pending.push_back(req);
        }
    }

    /// Dequeues the next central-queue request: every queued
    /// high-priority request is served before any low-priority one.
    #[inline]
    fn pop_pending(&mut self) -> Option<usize> {
        self.pending
            .pop_front()
            .or_else(|| self.pending_lo.pop_front())
    }

    /// Tenant admission at dispatcher ingress: the tenant's token
    /// bucket first, then the low-priority shed watermark. Returns
    /// `true` when the request was shed and fully retired here. Shed
    /// requests never enter a latency histogram but stay in the
    /// offered-load accounting ([`Recorder::drop_request`]); the
    /// explicit outcome is visible as `tenantN.sheds` counters, the
    /// `dispatch/shed` trace event and [`Conservation::sheds`].
    fn tenant_admission(&mut self, now: SimTime, req: usize) -> bool {
        if self.tenplane.is_none() {
            return false;
        }
        let tenant = self.reqs[req].as_ref().expect("dangling request id").tenant;
        // Watermark depth is the full dispatcher ingress picture:
        // requests waiting for their admit tick — summed over *every*
        // dispatcher's ingress slot, not just one — plus both central
        // queues. Under dispatcher-bound overload the backlog pools in
        // `admission_backlog` before it ever reaches `pending`, and on
        // scaled ingress planes it pools across all the slots at once;
        // counting a single slot would shed `dispatchers ×` too late.
        let depth = self.pending_depth() + self.admission_backlog.iter().sum::<usize>();
        let shed = {
            let tp = self.tenplane.as_mut().expect("checked above");
            let t = tenant as usize;
            let refused = match &mut tp.buckets[t] {
                Some(b) => !b.admit(now),
                None => false,
            };
            refused || (tp.lo[t] && tp.shed_watermark.is_some_and(|wm| depth >= wm))
        };
        if !shed {
            return false;
        }
        let tx = self.req(req).tx_time;
        self.recorder.drop_request(tx);
        self.discard_spans(req);
        self.free_req(req);
        self.cons.sheds += 1;
        self.tenant_note(tenant, TenantEvent::Shed, tx, 0);
        self.telem_tenant(tenant, true);
        self.trace(now, "dispatch", "shed", req as u64, tenant as u64);
        true
    }

    /// Chooses the dispatcher core that admits an arrival steered to
    /// ingress slot `home` and charges the admission on its timeline,
    /// per [`DispatchPolicy`]. Returns `(serving core, start, end)` of
    /// the charge; the admit event fires at `end`.
    fn admit_on_policy(&mut self, now: SimTime, home: usize) -> (usize, SimTime, SimTime) {
        let admit_cost = self.cfg.dispatch_cost + self.cfg.client_stack;
        let ndisp = self.dispatcher_free.len();
        match self.cfg.dispatch_policy {
            // The paper's design: one shared FCFS queue whose head is a
            // serialization point. Admissions run on core 0's timeline
            // no matter how many dispatcher cores exist — the sweep
            // measures exactly this cliff.
            DispatchPolicy::SingleFcfs => {
                let start = self.dispatcher_free[0].max(now);
                let end = start + admit_cost;
                self.dispatcher_free[0] = end;
                (0, start, end)
            }
            DispatchPolicy::WorkStealing => {
                let mut serve = home;
                let mut cost = admit_cost;
                if ndisp > 1 {
                    let thief = (0..ndisp)
                        .min_by_key(|&d| (self.dispatcher_free[d], d))
                        .expect("at least one dispatcher");
                    // A steal pays only when the thief wins even after
                    // the steal synchronization — except during an
                    // active fault episode, where the margin is waived
                    // so siblings drain a degraded dispatcher's slot as
                    // soon as they are strictly earlier.
                    let margin = if self.plane.active() && self.plane.episode_active(now) {
                        SimDuration::ZERO
                    } else {
                        self.cfg.steal_cost
                    };
                    if thief != home
                        && self.dispatcher_free[thief] + margin < self.dispatcher_free[home]
                    {
                        serve = thief;
                        cost = admit_cost + self.cfg.steal_cost;
                        if let Some(ids) = self.disp_ids.get(serve) {
                            self.metrics.inc(ids.steals);
                        }
                        self.trace(now, "dispatch", "disp_steal", serve as u64, home as u64);
                    }
                }
                let start = self.dispatcher_free[serve].max(now);
                let end = start + cost;
                self.dispatcher_free[serve] = end;
                (serve, start, end)
            }
            DispatchPolicy::FlatCombining => {
                // The combiner role is exclusive: admissions serialise
                // behind `fc_tail` and stay globally FIFO; only the
                // *cost* is amortised. A batch opener pays the full
                // admission, joiners inside its window a quarter of the
                // dispatch cost (the combiner's amortised slot scan).
                let (serve, cost) =
                    if now < self.fc_until && self.fc_count < self.cfg.combining_batch.max(1) {
                        self.fc_count += 1;
                        if let Some(ids) = self.disp_ids.get(self.fc_leader) {
                            self.metrics.inc(ids.combines);
                        }
                        let pass = SimDuration::from_nanos(self.cfg.dispatch_cost.as_nanos() / 4);
                        (self.fc_leader, pass + self.cfg.client_stack)
                    } else {
                        self.fc_leader = home;
                        self.fc_until = now + self.cfg.combining_window;
                        self.fc_count = 1;
                        (home, admit_cost)
                    };
                let start = self.fc_tail.max(self.dispatcher_free[serve]).max(now);
                let end = start + cost;
                self.dispatcher_free[serve] = end;
                self.fc_tail = end;
                (serve, start, end)
            }
        }
    }

    fn on_arrival(&mut self, now: SimTime, req: usize) {
        self.schedule_next_arrival();
        // Only the per-worker queue models ever fill `local_queue`.
        let mut depth = self.pending_depth();
        if self.cfg.queue_model != QueueModel::SingleQueue {
            depth += self
                .workers
                .iter()
                .map(|w| w.local_queue.len())
                .sum::<usize>();
        }
        self.metrics
            .gauge_set(self.ids.queue_depth, now, depth as f64);
        let inflight = self.total_outstanding();
        if let Some(tl) = &mut self.timeline {
            tl.queue_depth.record(now, depth as f64);
            tl.inflight.record(now, inflight as f64);
        }
        if self.plane.active() {
            let in_episode = self.plane.episode_active(now);
            self.metrics
                .gauge_set(self.ids.fault_episode_active, now, in_episode as u64 as f64);
        }
        self.trace(now, "dispatch", "arrival", req as u64, depth as u64);
        // Request flight + RX path: tx_time → delivery.
        if let Some(sb) = self.sb(req) {
            sb.phase(stage::NET, now);
        }
        // Tenant-plane ingress: book the arrival, then run admission
        // (token bucket + low-priority shed watermark). All of this is
        // branch-only when the plane is off.
        let (tenant, tx) = {
            let r = self.reqs[req].as_ref().expect("dangling request id");
            (r.tenant, r.tx_time)
        };
        self.tenant_note(tenant, TenantEvent::Arrival, tx, 0);
        self.telem_tenant(tenant, false);
        if self.tenant_admission(now, req) {
            return;
        }
        match self.cfg.queue_model {
            QueueModel::SingleQueue => {
                // Arrival fan-in: the NIC's RSS hash lands the packet in
                // one dispatcher's ingress slot (always slot 0 with one
                // dispatcher — the steer is a constant there).
                let home = self.fanin.steer();
                if self.admission_backlog[home] >= self.cfg.fabric.rx_ring_entries
                    || self.pending_depth() >= self.cfg.pending_cap
                {
                    self.recorder.drop_request(tx);
                    self.discard_spans(req);
                    self.free_req(req);
                    self.metrics.inc(self.ids.drops);
                    self.cons.drops += 1;
                    self.tenant_note(tenant, TenantEvent::Drop, tx, 0);
                    self.trace(now, "dispatch", "drop", req as u64, 0);
                    return;
                }
                self.admission_backlog[home] += 1;
                self.q_dingress(home, now, true);
                if let Some(tp) = &self.tenplane {
                    // Priority-split ingress: the admit tick below pops
                    // hi-first (see `on_admit`), so the `req` carried by
                    // the event is only the plane-off identity.
                    if tp.lo[tenant as usize] {
                        self.ingress_lo.push_back(req);
                    } else {
                        self.ingress_hi.push_back(req);
                    }
                }
                let (serve, start, end) = self.admit_on_policy(now, home);
                {
                    let r = self.reqs[req].as_mut().expect("dangling request id");
                    r.disp = serve as u16;
                    r.ingress_slot = home as u16;
                }
                if let Some(ids) = self.disp_ids.get(serve) {
                    self.metrics.inc(ids.admitted);
                }
                self.dispatcher_busy(serve, start, end, CoreState::Dispatch);
                #[cfg(test)]
                self.log_charge(DispatchOp::Admit, now, start, end, serve);
                self.events.push(end, Ev::Admit { req });
            }
            QueueModel::PerWorker | QueueModel::PerWorkerStealing => {
                // RSS-style random steering straight into a worker queue.
                let w = self.rng.gen_range(self.cfg.workers as u64) as usize;
                let cap = (self.cfg.pending_cap / self.cfg.workers).max(16);
                if self.workers[w].local_queue.len() >= cap {
                    self.recorder.drop_request(tx);
                    self.discard_spans(req);
                    self.free_req(req);
                    self.metrics.inc(self.ids.drops);
                    self.cons.drops += 1;
                    self.tenant_note(tenant, TenantEvent::Drop, tx, 0);
                    self.trace(now, "dispatch", "drop", req as u64, w as u64);
                    return;
                }
                self.workers[w].local_queue.push_back(req);
                self.tenant_note(tenant, TenantEvent::Admitted, tx, 0);
                self.try_run_local(now, w);
            }
        }
    }

    fn on_admit(&mut self, now: SimTime, req: usize) {
        // With a tenant plane on, the admit tick serves the ingress
        // queues hi-first; the event's own `req` is one of the queued
        // entries (ticks and pushes are one-to-one), just not
        // necessarily the one admitted now.
        let req = if self.tenplane.is_some() {
            self.ingress_hi
                .pop_front()
                .or_else(|| self.ingress_lo.pop_front())
                .expect("admit tick without a queued ingress request")
        } else {
            req
        };
        // The popped identity vacates the ingress slot it was steered
        // to at arrival (each identity increments and decrements its
        // own slot exactly once, so the per-slot counts stay exact
        // even when the tenant plane reorders hi-before-lo).
        let slot = self.reqs[req]
            .as_ref()
            .expect("dangling request id")
            .ingress_slot as usize;
        self.admission_backlog[slot] -= 1;
        self.q_dingress(slot, now, false);
        // Dispatcher admission work: delivery → admit.
        if let Some(sb) = self.sb(req) {
            sb.phase(stage::DISPATCH, now);
        }
        self.q_ingress(now, true);
        let (tenant, tx) = {
            let r = self.reqs[req].as_ref().expect("dangling request id");
            (r.tenant, r.tx_time)
        };
        self.tenant_note(tenant, TenantEvent::Admitted, tx, 0);
        // Multi-dispatcher admit commit: `a` = request, `b` = serving
        // dispatcher. Gated off the single-dispatcher machine so the
        // golden single-dispatcher byte streams stay untouched.
        if self.dispatcher_free.len() > 1 {
            let d = self.reqs[req].as_ref().expect("dangling request id").disp as u64;
            self.trace(now, "dispatch", "disp_admit", req as u64, d);
        }
        self.push_pending(req);
        self.try_dispatch(now);
    }

    /// Algorithm 1 (PF-aware) or round-robin dispatch of pending
    /// requests to idle workers.
    fn try_dispatch(&mut self, now: SimTime) {
        while self.pending_depth() > 0 {
            let Some(w) = self.pick_idle_worker() else {
                return;
            };
            let req = self.pop_pending().expect("non-empty pending");
            self.q_ingress(now, false);
            // The handoff is charged on the dispatcher that admitted
            // the request — it owns the run-queue entry.
            let d = self.reqs[req].as_ref().expect("dangling request id").disp as usize;
            let start = self.dispatcher_free[d].max(now);
            let hstart = start.max(self.workers[w].free_at);
            let wake = hstart + self.cfg.handoff_cost;
            let dend = start + self.cfg.handoff_cost;
            self.dispatcher_free[d] = dend;
            self.dispatcher_busy(d, start, dend, CoreState::Handoff);
            #[cfg(test)]
            self.log_charge(DispatchOp::PushHandoff, now, start, dend, d);
            self.wprof_handoff_from(w, hstart, wake);
            self.workers[w].busy = true;
            self.metrics.inc(self.ids.dispatches);
            self.trace(now, "dispatch", "assign", req as u64, w as u64);
            self.events.push(
                wake,
                Ev::WorkerWake {
                    worker: w,
                    cont: Cont::Start { req },
                },
            );
        }
    }

    fn pick_idle_worker(&mut self) -> Option<usize> {
        // With multiple dispatchers during an active fault episode,
        // worker selection is forced PF-aware regardless of the
        // configured policy: error CQEs hold QP slots until their
        // retirement fires, so min-outstanding selection steers new
        // work away from QPs with outstanding error chains while the
        // degraded queues drain.
        let mut select = self.cfg.worker_select;
        if self.dispatcher_free.len() > 1
            && self.plane.active()
            && self.plane.episode_active(self.last_now)
        {
            select = WorkerSelect::PfAware;
        }
        match select {
            WorkerSelect::RoundRobin => {
                let n = self.cfg.workers;
                for k in 0..n {
                    let w = (self.rr_next + k) % n;
                    if !self.workers[w].busy {
                        self.rr_next = (w + 1) % n;
                        return Some(w);
                    }
                }
                None
            }
            WorkerSelect::PfAware => {
                // SortByOutstandingPFCount over idle workers: take the
                // minimum (ties by index for determinism). A worker's
                // outstanding count spans every shard rail its QP id is
                // mapped onto, so dispatch stays fault-aware under
                // sharding without favouring any one shard.
                let mut best: Option<(u32, usize)> = None;
                for (i, w) in self.workers.iter().enumerate() {
                    if w.busy {
                        continue;
                    }
                    let count: u32 = self.nics.iter().map(|n| n.outstanding(w.qp)).sum();
                    // The first idle worker with nothing in flight is
                    // the minimum already; else `<` keeps the lower index.
                    if count == 0 {
                        return Some(i);
                    } else if best.is_none_or(|(c, _)| count < c) {
                        best = Some((count, i));
                    }
                }
                best.map(|(_, i)| i)
            }
        }
    }

    /// Hermit path: a worker with a non-empty local queue starts the
    /// head request if idle.
    fn try_run_local(&mut self, now: SimTime, w: usize) {
        if self.workers[w].busy || self.workers[w].local_queue.is_empty() {
            return;
        }
        let req = self.workers[w].local_queue.pop_front().expect("non-empty");
        self.workers[w].busy = true;
        self.metrics.inc(self.ids.dispatches);
        self.trace(now, "dispatch", "assign_local", req as u64, w as u64);
        let hstart = now.max(self.workers[w].free_at);
        let wake = hstart + self.cfg.handoff_cost;
        self.wprof_handoff_from(w, hstart, wake);
        self.events.push(
            wake,
            Ev::WorkerWake {
                worker: w,
                cont: Cont::Start { req },
            },
        );
    }

    // ----- worker execution ---------------------------------------------

    fn on_worker_wake(&mut self, now: SimTime, w: usize, cont: Cont) {
        debug_assert!(self.workers[w].busy, "wake of an idle worker");
        if self.obs_mask & obs::TRACE != 0 {
            // Segment boundary: the worker (re-)enters an execution
            // segment; `a` = worker, `b` = request.
            let (name, req) = match cont {
                Cont::Start { req } => ("seg_start", req),
                Cont::Resume { req } => ("seg_resume", req),
                Cont::AfterBusyWait { req } => ("seg_after_spin", req),
                Cont::RetryFault { req } => ("seg_retry", req),
                Cont::AbortFault { req } => ("seg_abort", req),
            };
            self.trace(now, "worker", name, w as u64, req as u64);
        }
        // The worker re-enters execution: close its open gap
        // (idle/park/stall). For wakes whose phases were accrued at
        // issue time (busy-wait spins, handoffs) the cursor is already
        // at `now` and this is a no-op.
        self.wprof_flush(w, now);
        match cont {
            Cont::Start { req } => {
                let setup_extra = self
                    .cfg
                    .kernel
                    .map(|k| k.net_stack)
                    .unwrap_or(SimDuration::ZERO);
                let is_yield = self.cfg.fault_policy == FaultPolicy::Yield;
                let setup = self.cfg.request_setup + setup_extra;
                let ctx = self.cfg.ctx_switch;
                let cq = self.cfg.cq_poll;
                let mut t = now;
                let first;
                {
                    let r = self.req(req);
                    r.sched_epoch = now;
                    r.worker = w;
                    first = !r.started;
                    r.started = true;
                    if let Some(sb) = r.spans.as_mut() {
                        // Time spent queued (admit → start, or preempt
                        // → restart), then a new execution segment.
                        sb.phase(stage::QUEUE, now);
                        sb.begin_segment(now, w);
                    }
                    if first {
                        t += setup;
                        if is_yield {
                            // Unithread creation + switch in, plus the
                            // worker's CQ poll before starting new
                            // unithreads (Figure 5).
                            t += ctx + cq;
                        }
                        if let Some(sb) = r.spans.as_mut() {
                            sb.phase(stage::HANDLE, now + setup);
                            if is_yield {
                                sb.phase(stage::CTX, now + setup + ctx + cq);
                            }
                        }
                    }
                }
                if first {
                    self.wprof_phase(w, CoreState::Work, now + setup);
                    if is_yield {
                        self.wprof_phase(w, CoreState::CtxSwitch, now + setup + ctx + cq);
                    }
                }
                self.execute(w, req, t);
            }
            Cont::Resume { req } => {
                let map = self.cfg.fault_map;
                let ctx = self.cfg.ctx_switch;
                let mut t = now;
                {
                    let r = self.req(req);
                    let fetch_done = r.fetch_done_at;
                    if let Some(sb) = r.spans.as_mut() {
                        // Fetch wall time is the fault's wait; runnable
                        // time past completion is queueing.
                        sb.phase(stage::FETCH_WAIT, fetch_done);
                        sb.phase(stage::QUEUE, now);
                        sb.end_fault(now);
                        sb.begin_segment(now, w);
                        sb.phase(stage::HANDLE, now + map);
                        sb.phase(stage::CTX, now + map + ctx);
                    }
                }
                self.wprof_phase(w, CoreState::Work, now + map);
                self.wprof_phase(w, CoreState::CtxSwitch, now + map + ctx);
                t += map + ctx;
                self.execute(w, req, t);
            }
            Cont::AfterBusyWait { req } => {
                // Map + (on Hermit) the kernel→user return crossing.
                let mut map = self.cfg.fault_map;
                if let Some(k) = self.cfg.kernel {
                    map += k.kernel_exit;
                }
                let mut t = now;
                if let Some(sb) = self.sb(req) {
                    // Spin residue (wake can trail the CQE), then the
                    // fault closes with the page map.
                    sb.phase(stage::SPIN, now);
                    sb.end_fault(now + map);
                    sb.phase(stage::HANDLE, now + map);
                }
                self.wprof_phase(w, CoreState::Work, now + map);
                t += map;
                self.execute(w, req, t);
            }
            Cont::RetryFault { req } => {
                // Waiting for a frame ended at `now`; the open fault
                // span is kept — the retry continues the same fault.
                if let Some(sb) = self.sb(req) {
                    sb.phase(stage::QUEUE, now);
                }
                // Re-enter the fault for the current step's page.
                self.execute(w, req, now);
            }
            Cont::AbortFault { req } => {
                // The fetch chain exhausted its retries/replicas: the
                // request cannot make progress and is dropped, exactly
                // as a real runtime would surface an I/O error to the
                // application after burning the full retry ladder.
                let (tenant, tx) = {
                    let r = self.reqs[req].as_ref().expect("dangling request id");
                    (r.tenant, r.tx_time)
                };
                self.recorder.drop_request(tx);
                self.discard_spans(req);
                self.free_req(req);
                self.metrics.inc(self.ids.drops);
                self.metrics.inc(self.ids.fetch_aborts);
                self.cons.aborts += 1;
                self.tenant_note(tenant, TenantEvent::Drop, tx, 0);
                self.trace(now, "fault", "abort", w as u64, req as u64);
                self.worker_pick_next(w, now);
            }
        }
    }

    /// Runs `req` on worker `w` from its current step at virtual time
    /// `t`, until it blocks or completes.
    fn execute(&mut self, w: usize, req: usize, mut t: SimTime) {
        loop {
            let (step_opt, do_preempt) = {
                let interval = self.cfg.preempt_interval;
                let preemptable = self.cfg.fault_policy == FaultPolicy::BusyWaitPreempt;
                let r = self.req(req);
                if r.step >= r.trace.steps.len() {
                    (None, false)
                } else {
                    let over =
                        preemptable && r.step > 0 && t.saturating_since(r.sched_epoch) >= interval;
                    (Some(r.trace.steps[r.step]), over)
                }
            };
            let Some(step) = step_opt else {
                self.finish_request(w, req, t);
                return;
            };
            if do_preempt {
                // Concord-style probe fired: save context, re-enqueue at
                // the tail of the central queue, pick other work.
                self.metrics.inc(self.ids.preemptions);
                self.trace(t, "worker", "preempt", w as u64, req as u64);
                let cost = self.cfg.preempt_cost;
                if let Some(sb) = self.sb(req) {
                    sb.phase(stage::HANDLE, t);
                    sb.phase(stage::CTX, t + cost);
                    sb.end_segment(t + cost);
                }
                t += cost;
                self.wprof_phase(w, CoreState::CtxSwitch, t);
                self.q_ingress(t, true);
                self.push_pending(req);
                self.worker_pick_next(w, t);
                return;
            }

            // Compute part of the step (+ kernel interference on Hermit).
            let mut compute = SimDuration::from_nanos(step.compute_ns as u64);
            if let Some(k) = self.cfg.kernel {
                let p = step.compute_ns as f64 / k.interference_period.as_nanos() as f64;
                if p > 0.0 && self.rng.gen_bool(p.min(1.0)) {
                    let stall = SimDuration::from_nanos(
                        self.rng.exp(k.interference_stall.as_nanos() as f64) as u64,
                    );
                    // The stall is involuntary descheduling, not useful
                    // work: flush the compute so far, attribute the
                    // stall to queueing.
                    if let Some(sb) = self.sb(req) {
                        sb.phase(stage::HANDLE, t + compute);
                        sb.phase(stage::QUEUE, t + compute + stall);
                    }
                    compute += stall;
                }
            }
            t += compute;
            // Kernel-interference stalls fold into `Work` here: the
            // core is occupied either way, and the request-level view
            // already attributes the stall to queueing via the span.
            self.wprof_phase(w, CoreState::Work, t);

            if let Some(access) = step.access {
                match self.cache.lookup(access.page) {
                    PageState::Resident => {
                        // Every access eventually lands here (resume and
                        // after-spin wakes re-run the faulting step), so
                        // this is the single completed-access book-keeping
                        // point: a tracked prefetch resolved by this touch
                        // is a hit.
                        self.mobs_touch(req, access.page, t, true);
                        self.cache.touch(access.page, access.write);
                        self.req(req).step += 1;
                    }
                    PageState::InFlight => {
                        self.metrics.inc(self.ids.coalesced);
                        self.trace(t, "fault", "coalesce", req as u64, access.page);
                        // Demand raced an in-flight prefetch: arrived
                        // lines classify hit, still-flying ones late.
                        self.mobs_coalesce(access.page, t);
                        self.cache.note_coalesced();
                        if !self.wait_on_inflight(w, req, access.page, t) {
                            return;
                        }
                        // Fetch had already completed by `t`: continue as
                        // a hit (the prefetch fate was classified above,
                        // so this books the access only).
                        self.mobs_touch(req, access.page, t, false);
                        self.cache.touch(access.page, access.write);
                        self.req(req).step += 1;
                    }
                    PageState::NotResident => {
                        if !self.fault(w, req, access.page, access.write, t) {
                            return;
                        }
                        // Unreachable in practice: fault always blocks.
                    }
                }
            } else {
                self.req(req).step += 1;
            }
        }
    }

    /// Waits on an already-in-flight fetch. Returns `true` if the fetch
    /// had in fact completed by `t` (caller continues inline).
    fn wait_on_inflight(&mut self, w: usize, req: usize, page: u64, t: SimTime) -> bool {
        let (done_at, failed) = {
            let info = self.inflight.get(&page).expect("in-flight page");
            (info.done_at, info.failed)
        };
        if failed {
            // The fetch we coalesced onto will surface an error CQE: the
            // page never arrives, so this request aborts too. Yielders
            // park as usual and are dropped when the error surfaces
            // (on_fetch_done); busy-waiters burn until the CQE and then
            // abort — the page was never mapped, so early consumption is
            // impossible.
            match self.cfg.fault_policy {
                FaultPolicy::Yield => {
                    let ctx = self.cfg.ctx_switch;
                    let cq = self.cfg.cq_poll;
                    {
                        let r = self.req(req);
                        r.worker = w;
                        if let Some(sb) = r.spans.as_mut() {
                            sb.phase(stage::HANDLE, t);
                            sb.phase(stage::CTX, t + ctx);
                            sb.end_segment(t + ctx);
                        }
                    }
                    self.inflight
                        .get_mut(&page)
                        .expect("in-flight page")
                        .waiters
                        .push(req);
                    self.wprof_phase(w, CoreState::CtxSwitch, t + ctx + cq);
                    self.prof_park(w);
                    self.worker_pick_next(w, t + ctx + cq);
                }
                FaultPolicy::BusyWait | FaultPolicy::BusyWaitPreempt => {
                    let spin = done_at.saturating_since(t);
                    if let Some(sb) = self.sb(req) {
                        sb.phase(stage::HANDLE, t);
                        sb.phase(stage::SPIN, done_at.max(t));
                    }
                    self.wprof_phase(w, CoreState::Spin, done_at.max(t));
                    self.metrics.add(self.ids.spin_ns, spin.as_nanos());
                    self.trace(t, "worker", "spin", w as u64, spin.as_nanos());
                    self.events.push(
                        done_at.max(t),
                        Ev::WorkerWake {
                            worker: w,
                            cont: Cont::AbortFault { req },
                        },
                    );
                }
            }
            return false;
        }
        if done_at <= t {
            // The completion predates our virtual time: consume it early.
            let info = self.inflight.get_mut(&page).expect("in-flight page");
            if !info.completed_early {
                info.completed_early = true;
                self.cache.complete_fetch(page);
            }
            return true;
        }
        match self.cfg.fault_policy {
            FaultPolicy::Yield => {
                let ctx = self.cfg.ctx_switch;
                let cq = self.cfg.cq_poll;
                {
                    let r = self.req(req);
                    r.worker = w;
                    if let Some(sb) = r.spans.as_mut() {
                        // Coalesced wait: no fault span of our own (the
                        // fetch belongs to another request) — park and
                        // wait for its completion.
                        sb.phase(stage::HANDLE, t);
                        sb.phase(stage::CTX, t + ctx);
                        sb.end_segment(t + ctx);
                    }
                }
                self.inflight
                    .get_mut(&page)
                    .expect("in-flight page")
                    .waiters
                    .push(req);
                self.wprof_phase(w, CoreState::CtxSwitch, t + ctx + cq);
                self.prof_park(w);
                self.worker_pick_next(w, t + ctx + cq);
                false
            }
            FaultPolicy::BusyWait | FaultPolicy::BusyWaitPreempt => {
                let spin = done_at.since(t);
                if let Some(sb) = self.sb(req) {
                    sb.phase(stage::HANDLE, t);
                    sb.phase(stage::SPIN, done_at);
                }
                self.wprof_phase(w, CoreState::Spin, done_at);
                self.metrics.add(self.ids.spin_ns, spin.as_nanos());
                self.trace(t, "worker", "spin", w as u64, spin.as_nanos());
                // FetchDone at done_at was scheduled earlier, so FIFO
                // tie-breaking completes the page before this wake.
                self.events.push(
                    done_at,
                    Ev::WorkerWake {
                        worker: w,
                        cont: Cont::AfterBusyWait { req },
                    },
                );
                false
            }
        }
    }

    /// Handles a page fault. Returns `false` (always, in practice): the
    /// request blocked and `execute` must return.
    fn fault(&mut self, w: usize, req: usize, page: u64, _write: bool, mut t: SimTime) -> bool {
        // Flush compute up to the faulting access and open the fault
        // span (re-entrant: a retry continues the fault it opened).
        if let Some(sb) = self.sb(req) {
            sb.phase(stage::HANDLE, t);
            sb.begin_fault(t, page);
        }
        // Fault-handler entry (+ kernel crossing on Hermit).
        let mut entry = self.cfg.fault_entry;
        if let Some(k) = self.cfg.kernel {
            entry += k.fault_entry + k.swap_work;
        }
        t += entry;
        self.trace(t, "fault", "miss", req as u64, page);

        // Reserve a frame; on pressure, run direct reclaim like a real
        // kernel would (and kick the reclaimer).
        if !self.cache.begin_fetch(page) {
            self.kick_reclaimer(t);
            match self.cache.evict_one() {
                Some((victim, dirty)) => {
                    self.metrics.inc(self.ids.direct_reclaims);
                    self.trace(t, "reclaim", "direct", victim, dirty as u64);
                    self.mobs_wasted(victim);
                    if dirty {
                        self.writeback(t, victim);
                    }
                    t += self.cfg.direct_reclaim_cost;
                    assert!(self.cache.begin_fetch(page), "evicted frame not reusable");
                }
                None => {
                    // Every frame is in flight: wait briefly and retry.
                    if let Some(sb) = self.sb(req) {
                        sb.phase(stage::HANDLE, t);
                    }
                    // The wait tiles as `FetchWait`; the legacy spin
                    // counter never booked frame waits, so they are
                    // tracked separately for the spin cross-check.
                    self.wprof_phase(w, CoreState::Work, t);
                    self.wprof_gap(w, CoreState::FetchWait);
                    if let Some(p) = &mut self.prof {
                        let a = t.max(self.warmup_end);
                        let b = (t + SimDuration::from_nanos(500)).min(self.measure_end);
                        if b > a {
                            p.frame_wait_ns += b.since(a).as_nanos();
                        }
                    }
                    self.events.push(
                        t + SimDuration::from_nanos(500),
                        Ev::WorkerWake {
                            worker: w,
                            cont: Cont::RetryFault { req },
                        },
                    );
                    return false;
                }
            }
        }
        self.kick_reclaimer(t);

        // Post the one-sided READ on the page's shard rail, following
        // that shard's failover chain across replicas when completions
        // come back in error.
        let shard = self.shard_map.shard_of(page);
        let qp = self.workers[w].qp;
        let post_at = t + self.cfg.fault_issue;
        let outcome = match self.issue_fetch(req, qp, shard, page, post_at) {
            Ok(o) => o,
            Err(fabric::PostError::QpFull) => {
                // §5.2: "page fault handlers must pause, waiting for
                // available slots in the QPs". The worker is stuck (even
                // under the yield policy the *handler* occupies it).
                self.metrics.inc(self.ids.qp_stalls);
                self.metrics.inc(self.ids.qp_full_retries);
                self.trace(t, "fault", "qp_stall", w as u64, page);
                // Undo the reservation: re-try will re-reserve.
                self.cache.complete_fetch(page);
                let evicted = self.cache.evict_one();
                debug_assert!(evicted.is_some());
                if let Some((victim, _)) = evicted {
                    self.mobs_wasted(victim);
                }
                self.workers[w].blocked = Some((req, t));
                // The QP_STALL phase is emitted when a CQE frees a slot
                // (see on_fetch_done); flush the handler work now. The
                // stall tiles as `FetchWait`, closed by the retry wake.
                if let Some(sb) = self.sb(req) {
                    sb.phase(stage::HANDLE, t);
                }
                self.wprof_phase(w, CoreState::Work, t);
                self.wprof_gap(w, CoreState::FetchWait);
                return false;
            }
        };
        t += self.cfg.fault_issue + self.cfg.prefetch_compute;
        self.wprof_phase(w, CoreState::Work, t);
        let outstanding = self.total_outstanding();
        self.metrics
            .gauge_set(self.ids.qp_outstanding, t, outstanding as f64);
        self.note_shard_outstanding(shard, t);
        if let Some(old) = self.inflight.insert(
            page,
            Inflight {
                done_at: outcome.done_at,
                qp: outcome.qp,
                failed: outcome.failed,
                waiters: Waiters::default(),
                completed_early: false,
            },
        ) {
            // The page was early-consumed, evicted and is now being
            // re-fetched before the old completion surfaced.
            debug_assert!(old.completed_early, "live fetch overwritten");
            self.orphan_fetches.push((page, old));
        }
        self.events
            .push(outcome.done_at, Ev::FetchDone { worker: w, page });

        self.issue_prefetches(w, req, page, t);

        match self.cfg.fault_policy {
            FaultPolicy::Yield => {
                // Figure 5 steps 4–7: yield to the worker, which polls
                // its CQ once and takes the next unithread.
                let ctx = self.cfg.ctx_switch;
                let cq = self.cfg.cq_poll;
                {
                    let r = self.req(req);
                    r.worker = w;
                    if let Some(sb) = r.spans.as_mut() {
                        sb.phase(stage::HANDLE, t);
                        sb.phase(stage::CTX, t + ctx);
                        sb.end_segment(t + ctx);
                    }
                }
                self.inflight
                    .get_mut(&page)
                    .expect("just inserted")
                    .waiters
                    .push(req);
                self.wprof_phase(w, CoreState::CtxSwitch, t + ctx + cq);
                self.prof_park(w);
                self.worker_pick_next(w, t + ctx + cq);
            }
            FaultPolicy::BusyWait | FaultPolicy::BusyWaitPreempt => {
                // Busy-waiters burn the whole retransmission/failover
                // timeline on-core — the mechanism that separates the
                // baselines from Adios under faults.
                let spin = outcome.done_at.saturating_since(t);
                if let Some(sb) = self.sb(req) {
                    sb.phase(stage::HANDLE, t);
                    sb.phase(stage::SPIN, outcome.done_at.max(t));
                }
                self.wprof_phase(w, CoreState::Spin, outcome.done_at.max(t));
                self.metrics.add(self.ids.spin_ns, spin.as_nanos());
                self.trace(t, "worker", "spin", w as u64, spin.as_nanos());
                let wake = outcome.done_at.max(t);
                let cont = if outcome.failed {
                    Cont::AbortFault { req }
                } else {
                    Cont::AfterBusyWait { req }
                };
                self.events.push(wake, Ev::WorkerWake { worker: w, cont });
            }
        }
        false
    }

    /// Posts a demand READ for `page` at `at` on `qp`, following the
    /// failover chain when completions surface in error: each error CQE
    /// re-issues the fetch on the dedicated failover QP against the next
    /// replica, until a clean completion or the attempt budget
    /// (`max_fetch_attempts`) runs out.
    ///
    /// The analytic fabric resolves each attempt's completion time at
    /// post time, so the whole chain is walked here; intermediate error
    /// CQEs are retired via [`Ev::CqeRetire`] when they surface. The
    /// previous attempt's CQE is retired only once the next post
    /// succeeds — a full failover QP ends the chain at that CQE.
    ///
    /// Returns `Err(QpFull)` only when the *first* post finds the
    /// worker's QP full (the caller pauses the fault handler).
    fn issue_fetch(
        &mut self,
        req: usize,
        qp0: QpId,
        shard: usize,
        page: u64,
        post_at: SimTime,
    ) -> Result<FetchOutcome, fabric::PostError> {
        let replicas = self.cfg.replicas();
        let max_attempts = self.cfg.max_fetch_attempts.max(1);
        let failover_qp = QpId(self.cfg.workers as u32 + 1);
        let mut qp = qp0;
        let mut replica = 0usize;
        let mut at = post_at;
        let mut attempt = 1u32;
        // Terminal CQE of the previous (errored) attempt.
        let mut pending: Option<(QpId, SimTime)> = None;
        loop {
            let completion = match self.post_read(at, shard, qp, page, replica) {
                Ok(c) => c,
                Err(e) => {
                    let Some((pqp, pdone)) = pending else {
                        return Err(e);
                    };
                    // Failover QP full: the chain dies at the previous
                    // error CQE.
                    self.metrics.inc(self.ids.qp_full_retries);
                    self.metrics.inc(self.ids.fetch_chain_failures);
                    self.shard_inc(shard, |s| s.chain_failures);
                    self.trace(at, "fault", "chain_fail", req as u64, page);
                    return Ok(FetchOutcome {
                        qp: pqp,
                        done_at: pdone,
                        failed: true,
                    });
                }
            };
            self.q_sq_post(shard, at, completion.slot_residence(at));
            self.shard_inc(shard, |s| s.fetches);
            // Telemetry attributes every attempt of the chain to the
            // worker QP that originated it, even after failover.
            self.telem_fetch(
                shard,
                qp0,
                completion.retransmits as u64,
                completion.is_error(),
            );
            if let Some((pqp, pdone)) = pending.take() {
                // The failover post took over: the previous error CQE
                // only needs retiring when it becomes pollable.
                self.events.push(pdone, Ev::CqeRetire { shard, qp: pqp });
                self.metrics.inc(self.ids.fetch_failovers);
                self.shard_inc(shard, |s| s.failovers);
            }
            if completion.retransmits > 0 {
                self.metrics
                    .add(self.ids.fetch_retransmits, completion.retransmits as u64);
                self.shard_add(shard, |s| s.retransmits, completion.retransmits as u64);
                self.trace(
                    completion.wire_start,
                    "fault",
                    "retransmit",
                    req as u64,
                    completion.retransmits as u64,
                );
            }
            if let Some(sb) = self.sb(req) {
                sb.fetch_with_retrans(
                    at,
                    completion.issued_at,
                    completion.wire_start,
                    completion.done_at,
                    page,
                    desim::span::shard_qp(shard as u64, qp.0 as u64),
                    completion.retransmits,
                );
            }
            if !completion.is_error() {
                if completion.done_at >= self.warmup_end && completion.done_at < self.measure_end {
                    self.shard_fetch_ns[shard]
                        .record(completion.done_at.saturating_since(post_at).as_nanos());
                }
                return Ok(FetchOutcome {
                    qp,
                    done_at: completion.done_at,
                    failed: false,
                });
            }
            self.metrics.inc(self.ids.fetch_cqe_errors);
            self.shard_inc(shard, |s| s.cqe_errors);
            self.trace(completion.done_at, "fault", "fetch_error", req as u64, page);
            if attempt >= max_attempts {
                self.metrics.inc(self.ids.fetch_chain_failures);
                self.shard_inc(shard, |s| s.chain_failures);
                return Ok(FetchOutcome {
                    qp,
                    done_at: completion.done_at,
                    failed: true,
                });
            }
            pending = Some((qp, completion.done_at));
            replica = (replica + 1) % replicas;
            at = completion.done_at;
            qp = failover_qp;
            attempt += 1;
            // The trace/span operand is the *global* memnode id the
            // chain moves to — on single-shard runs that equals the
            // replica index, preserving the pre-sharding byte stream.
            let node = self.shard_map.node_id(shard, replica) as u64;
            self.trace(at, "fault", "failover", node, attempt as u64);
            if let Some(sb) = self.sb(req) {
                sb.failover(at, node, attempt as u64);
            }
        }
    }

    /// One READ post on shard `shard`'s rail against its replica
    /// `replica`, through the fault plane.
    fn post_read(
        &mut self,
        at: SimTime,
        shard: usize,
        qp: QpId,
        page: u64,
        replica: usize,
    ) -> Result<fabric::nic::Completion, fabric::PostError> {
        let node = self.shard_map.node_id(shard, replica) as usize;
        self.nics[shard].post(
            at,
            qp,
            Verb::Read,
            page,
            self.cfg.fetch_page_bytes,
            &mut self.mems[node],
            &mut self.plane,
        )
    }

    /// Bumps a per-shard counter (registered only on multi-shard runs).
    #[inline]
    fn shard_inc(&mut self, shard: usize, pick: fn(&ShardMetricIds) -> CounterId) {
        if let Some(id) = self.shard_ids.get(shard).map(pick) {
            self.metrics.inc(id);
        }
    }

    /// Adds to a per-shard counter (registered only on multi-shard runs).
    #[inline]
    fn shard_add(&mut self, shard: usize, pick: fn(&ShardMetricIds) -> CounterId, n: u64) {
        if let Some(id) = self.shard_ids.get(shard).map(pick) {
            self.metrics.add(id, n);
        }
    }

    /// Sequential + speculative readahead (§2.3: every system overlaps a
    /// prefetching algorithm with the fetch).
    fn issue_prefetches(&mut self, w: usize, req: usize, page: u64, t: SimTime) {
        let (mut stride, mut n) = self.req(req).detector.on_fault(page);
        let spec = self.cfg.speculative_readahead > 0.0
            && self.rng.gen_bool(self.cfg.speculative_readahead.min(1.0));
        let mut speculative = false;
        if n == 0 && spec {
            (stride, n) = (1, 1);
            speculative = true;
        }
        // Fate-attribution class: the configured detector, or the
        // speculative next-page fallback when the detector had no
        // pattern (observatory runs only; the hook self-gates).
        let class = if speculative {
            PrefetchClass::Speculative
        } else {
            match self.req(req).detector {
                Detector::Leap(_) => PrefetchClass::Leap,
                _ => PrefetchClass::Readahead,
            }
        };
        let qp = self.workers[w].qp;
        for i in 1..=n as i64 {
            let signed = page as i64 + stride * i;
            if signed < 0 {
                break;
            }
            let p = signed as u64;
            if p >= self.cache.total_pages() || self.cache.lookup(p) != PageState::NotResident {
                continue;
            }
            if self.cache.free_frames() == 0 {
                break;
            }
            assert!(self.cache.begin_fetch(p));
            let ps = self.shard_map.shard_of(p);
            match self.post_read(t, ps, qp, p, 0) {
                Ok(c) => {
                    self.q_sq_post(ps, t, c.slot_residence(t));
                    self.metrics.inc(self.ids.prefetches);
                    self.mobs_prefetch_issued(p, class, t);
                    self.shard_inc(ps, |s| s.fetches);
                    self.telem_fetch(ps, qp, c.retransmits as u64, c.is_error());
                    self.trace(t, "fault", "prefetch", page, p);
                    if c.is_error() {
                        // Speculative fetches get no failover chain —
                        // the error completion cancels the reservation
                        // when it surfaces, and a later demand access
                        // simply re-faults.
                        self.metrics.inc(self.ids.prefetch_errors);
                    }
                    if let Some(old) = self.inflight.insert(
                        p,
                        Inflight {
                            done_at: c.done_at,
                            qp,
                            failed: c.is_error(),
                            waiters: Waiters::default(),
                            completed_early: false,
                        },
                    ) {
                        // Same supersede case as the demand path: the
                        // old fetch was early-consumed and its page
                        // already evicted again.
                        debug_assert!(old.completed_early, "live fetch overwritten");
                        self.orphan_fetches.push((p, old));
                    }
                    self.events
                        .push(c.done_at, Ev::FetchDone { worker: w, page: p });
                }
                Err(_) => {
                    // QP full: drop the speculative fetch.
                    self.metrics.inc(self.ids.qp_full_retries);
                    self.cache.complete_fetch(p);
                    let evicted = self.cache.evict_one();
                    debug_assert!(evicted.is_some());
                    if let Some((victim, _)) = evicted {
                        self.mobs_wasted(victim);
                    }
                    break;
                }
            }
        }
        self.kick_reclaimer(t);
    }

    fn on_fetch_done(&mut self, now: SimTime, w: usize, page: u64) {
        // Match the event to its fetch record: the live entry when its
        // completion time is `now`, else the superseded record a
        // re-fetch parked aside (see `orphan_fetches`). An orphan only
        // frees its QP slot and wakes its own waiters — the cache and
        // observatory state belong to the live fetch.
        let mut orphan = false;
        let info = match self.inflight.get(&page) {
            Some(i) if i.done_at == now => self.inflight.remove(&page),
            _ => {
                orphan = true;
                self.orphan_fetches
                    .iter()
                    .position(|(p, o)| *p == page && o.done_at == now)
                    .map(|i| self.orphan_fetches.remove(i).1)
            }
        };
        debug_assert!(info.is_some(), "completion without a fetch record");
        // The CQE lands on the QP that carried the terminal attempt (the
        // failover QP when the chain migrated); prefetch entries and
        // pre-fault paths fall back to the worker's QP.
        let cqe_qp = info.as_ref().map_or(self.workers[w].qp, |i| i.qp);
        let shard = self.shard_map.shard_of(page);
        self.nics[shard].on_cqe(now, cqe_qp);
        self.q_sq_cqe(shard, now);
        let outstanding = self.total_outstanding();
        self.metrics
            .gauge_set(self.ids.qp_outstanding, now, outstanding as f64);
        self.note_shard_outstanding(shard, now);
        self.trace(now, "nic", "fetch_done", w as u64, page);
        if let Some(info) = info {
            if info.failed {
                // The terminal completion is an error: the page never
                // arrived. Cancel the frame reservation and abort every
                // parked waiter (busy-waiters abort via their own
                // scheduled wake).
                debug_assert!(!info.completed_early, "failed fetch consumed early");
                debug_assert!(!orphan, "orphaned fetches are always early-consumed");
                self.cache.complete_fetch(page);
                // A tracked prefetch that fails terminally is wasted;
                // the eviction victim (any page — the cancel idiom may
                // reclaim a different frame) is handled uniformly.
                self.mobs_wasted(page);
                let evicted = self.cache.evict_one();
                debug_assert!(evicted.is_some());
                if let Some((victim, _)) = evicted {
                    self.mobs_wasted(victim);
                }
                self.trace(now, "fault", "fetch_failed", w as u64, page);
                for waiter in info.waiters {
                    let (tenant, tx, home) = {
                        let r = self.req(waiter);
                        (r.tenant, r.tx_time, r.worker)
                    };
                    self.recorder.drop_request(tx);
                    self.discard_spans(waiter);
                    self.free_req(waiter);
                    self.metrics.inc(self.ids.drops);
                    self.metrics.inc(self.ids.fetch_aborts);
                    self.cons.aborts += 1;
                    self.tenant_note(tenant, TenantEvent::Drop, tx, 0);
                    let idle = !self.workers[home].busy;
                    self.prof_unpark(home, now, idle);
                }
            } else {
                if !info.completed_early {
                    self.cache.complete_fetch(page);
                }
                if !orphan {
                    // An orphan's own prefetch record was consumed when
                    // it was classified; the page's current record (if
                    // any) belongs to the live fetch still in flight.
                    self.mobs_arrived(page);
                }
                for waiter in info.waiters {
                    self.req(waiter).fetch_done_at = now;
                    if self.cfg.resume_delay > SimDuration::ZERO {
                        // Kernel scheduler wake-up before the thread is
                        // runnable (Infiniswap).
                        self.events
                            .push(now + self.cfg.resume_delay, Ev::WaiterReady { req: waiter });
                    } else {
                        self.make_waiter_ready(now, waiter);
                    }
                }
            }
        }
        // A fault paused on this worker's full QP can retry now.
        if let Some((req, since)) = self.workers[w].blocked.take() {
            let spin = now.saturating_since(since);
            if let Some(sb) = self.sb(req) {
                sb.phase(stage::QP_STALL, now);
            }
            self.metrics.add(self.ids.spin_ns, spin.as_nanos());
            self.trace(now, "worker", "spin", w as u64, spin.as_nanos());
            self.events.push(
                now,
                Ev::WorkerWake {
                    worker: w,
                    cont: Cont::RetryFault { req },
                },
            );
        }
    }

    fn on_waiter_ready(&mut self, now: SimTime, req: usize) {
        self.make_waiter_ready(now, req);
    }

    fn make_waiter_ready(&mut self, now: SimTime, waiter: usize) {
        let home = self.req(waiter).worker;
        let idle = !self.workers[home].busy;
        self.prof_unpark(home, now, idle);
        self.q_runnable(home, now, true);
        self.workers[home].resumes.push_back(waiter);
        if !self.workers[home].busy {
            self.workers[home].busy = true;
            let wake = now.max(self.workers[home].free_at);
            self.wake_for_next(home, wake);
        }
    }

    /// Worker `w` is free at virtual time `t`: resume a ready unithread,
    /// pull new work, or go idle.
    fn worker_pick_next(&mut self, w: usize, t: SimTime) {
        if !self.workers[w].resumes.is_empty() {
            self.wake_for_next(w, t);
            return;
        }
        match self.cfg.queue_model {
            QueueModel::SingleQueue => {
                if let Some(req) = self.pop_pending() {
                    self.q_ingress(t, false);
                    let d = self.reqs[req].as_ref().expect("dangling request id").disp as usize;
                    let start = self.dispatcher_free[d].max(t);
                    let wake = start + self.cfg.handoff_cost;
                    self.dispatcher_free[d] = wake;
                    self.dispatcher_busy(d, start, wake, CoreState::Handoff);
                    #[cfg(test)]
                    self.log_charge(DispatchOp::PullHandoff, t, start, wake, d);
                    // Pull-path handoff: the worker waits on the
                    // dispatcher, so the whole `[t, wake]` interval is
                    // handoff time on the worker core too.
                    self.wprof_phase(w, CoreState::Handoff, wake);
                    self.events.push(
                        wake,
                        Ev::WorkerWake {
                            worker: w,
                            cont: Cont::Start { req },
                        },
                    );
                    return;
                }
            }
            QueueModel::PerWorker | QueueModel::PerWorkerStealing => {
                if let Some(req) = self.workers[w].local_queue.pop_front() {
                    let wake = t + self.cfg.handoff_cost;
                    self.wprof_phase(w, CoreState::Handoff, wake);
                    self.events.push(
                        wake,
                        Ev::WorkerWake {
                            worker: w,
                            cont: Cont::Start { req },
                        },
                    );
                    return;
                }
                if self.cfg.queue_model == QueueModel::PerWorkerStealing {
                    // ZygOS: steal the head of the longest peer queue,
                    // preserving FCFS order as closely as possible.
                    let victim = (0..self.cfg.workers)
                        .filter(|&v| v != w)
                        .max_by_key(|&v| self.workers[v].local_queue.len());
                    if let Some(v) = victim {
                        if let Some(req) = self.workers[v].local_queue.pop_front() {
                            self.metrics.inc(self.ids.steals);
                            self.trace(t, "worker", "steal", w as u64, v as u64);
                            let wake = t + self.cfg.steal_cost;
                            self.wprof_phase(w, CoreState::Handoff, wake);
                            self.events.push(
                                wake,
                                Ev::WorkerWake {
                                    worker: w,
                                    cont: Cont::Start { req },
                                },
                            );
                            return;
                        }
                    }
                }
            }
        }
        // Going idle: the open gap is `Park` while yielded unithreads
        // are outstanding on this worker, plain `Idle` otherwise.
        if let Some(p) = &mut self.prof {
            let gap = if p.parked[w] > 0 {
                CoreState::Park
            } else {
                CoreState::Idle
            };
            p.cores.set_gap(p.wbase + w, gap);
        }
        self.workers[w].busy = false;
        self.workers[w].free_at = t;
    }

    /// Schedules the worker's next action at `t` when it has resumes
    /// queued (used from both the worker path and FetchDone wake-ups).
    fn wake_for_next(&mut self, w: usize, t: SimTime) {
        let req = self.workers[w]
            .resumes
            .pop_front()
            .expect("wake_for_next without resumes");
        self.q_runnable(w, t, false);
        self.events.push(
            t,
            Ev::WorkerWake {
                worker: w,
                cont: Cont::Resume { req },
            },
        );
    }

    fn finish_request(&mut self, w: usize, req: usize, mut t: SimTime) {
        let reply_bytes = self.req(req).trace.reply_bytes;
        let build = self.cfg.reply_build + self.cfg.client_stack;
        if let Some(sb) = self.sb(req) {
            // Flush compute since the last blocking point, then the
            // reply serialisation.
            sb.phase(stage::HANDLE, t);
            sb.phase(stage::REPLY, t + build);
        }
        t += build;
        self.wprof_phase(w, CoreState::Work, t);
        if self.cfg.fault_policy == FaultPolicy::Yield {
            // Switch from the unithread back to the worker.
            let ctx = self.cfg.ctx_switch;
            if let Some(sb) = self.sb(req) {
                sb.phase(stage::CTX, t + ctx);
            }
            t += ctx;
            self.wprof_phase(w, CoreState::CtxSwitch, t);
        }
        let tx = self.eth.send_reply(t, reply_bytes);
        if self.cfg.polling_delegation {
            // The TX CQE is raised on the dispatcher's CQ; the worker
            // moves on immediately and the dispatcher recycles the
            // buffer within its normal polling batches. Only the
            // recycle *work* loads the dispatcher — the CQE's arrival
            // time does not stall admissions (CQEs wait in the CQ).
            let d = self.reqs[req].as_ref().expect("dangling request id").disp as usize;
            let start = self.dispatcher_free[d].max(t);
            let dend = start + self.cfg.recycle_cost;
            self.dispatcher_free[d] = dend;
            self.dispatcher_busy(d, start, dend, CoreState::Dispatch);
            #[cfg(test)]
            self.log_charge(DispatchOp::Recycle, t, start, dend, d);
        } else {
            // The worker spins until the TX completion. The spin can
            // outlast the client's receive instant (CQE raise vs. wire
            // propagation); the tail past `client_rx_at` is not part of
            // this request's latency, so the span is clamped to it.
            let spin = tx.cqe_at.saturating_since(t);
            if let Some(sb) = self.sb(req) {
                sb.phase(stage::TX_WAIT, tx.cqe_at.min(tx.client_rx_at));
            }
            self.wprof_phase(w, CoreState::TxWait, tx.cqe_at.max(t));
            self.metrics.add(self.ids.spin_ns, spin.as_nanos());
            self.trace(t, "worker", "spin", w as u64, spin.as_nanos());
            t = t.max(tx.cqe_at);
        }
        let (class, tx_time, tenant) = {
            let r = self.req(req);
            (r.trace.class, r.tx_time, r.tenant)
        };
        let rx = tx.client_rx_at;
        // Close the tree (reply flight to the client is the final NET
        // phase) and derive the breakdown from its critical path. A
        // segment re-dispatched onto a lagging worker clock can leave
        // the span cursor a few tens of ns past `client_rx_at` (the
        // bounded virtual-time skew documented at the top of this
        // file); the completion instant is the later of the two so the
        // attribution always tiles the recorded end-to-end latency.
        let builder = self.req(req).spans.take();
        let (rx, b) = match (self.span_store.as_mut(), builder) {
            (Some(store), Some(mut sb)) => {
                let rx = rx.max(sb.cursor());
                sb.end_segment(t.min(rx));
                sb.phase(stage::NET, rx);
                let in_window = rx >= self.warmup_end && rx < self.measure_end;
                let b = Breakdown::from_critical_path(&store.complete(sb, rx, in_window));
                (rx, b)
            }
            _ => (rx, Breakdown::default()),
        };
        if let Some(bridge) = &mut self.telem {
            bridge.rec.on_completion(rx.saturating_since(tx_time));
        }
        self.recorder.complete(class, tx_time, rx, b);
        self.free_req(req);
        self.metrics.inc(self.ids.completions);
        self.cons.completions += 1;
        self.tenant_note(
            tenant,
            TenantEvent::Completion,
            rx,
            rx.saturating_since(tx_time).as_nanos(),
        );
        self.trace(t, "worker", "complete", w as u64, req as u64);
        self.worker_pick_next(w, t);
    }

    // ----- reclaimer -----------------------------------------------------

    fn kick_reclaimer(&mut self, now: SimTime) {
        if self.reclaim_state == ReclaimState::Scheduled {
            return;
        }
        if self.cache.free_frames() >= self.low_frames {
            return;
        }
        let delay = match self.cfg.reclaimer_mode {
            ReclaimerMode::Proactive => SimDuration::ZERO,
            ReclaimerMode::WakeUp => self.cfg.reclaim_wake_delay,
        };
        self.reclaim_state = ReclaimState::Scheduled;
        self.events.push(now + delay, Ev::ReclaimTick);
    }

    fn on_reclaim_tick(&mut self, now: SimTime) {
        let mut evicted = 0;
        while evicted < self.cfg.reclaim_batch {
            if self.cache.free_frames() >= self.high_frames {
                break;
            }
            match self.cache.evict_one() {
                Some((page, dirty)) => {
                    self.mobs_wasted(page);
                    if dirty {
                        self.writeback(now, page);
                    }
                    evicted += 1;
                }
                None => break,
            }
        }
        let free = self.cache.free_frames();
        self.metrics.inc(self.ids.reclaim_ticks);
        self.trace(now, "reclaim", "tick", evicted as u64, free as u64);
        if free < self.high_frames && evicted > 0 {
            let batch_time = self.cfg.evict_cost.saturating_mul(evicted as u64);
            self.events.push(now + batch_time, Ev::ReclaimTick);
        } else {
            self.reclaim_state = ReclaimState::Idle;
        }
    }

    fn writeback(&mut self, now: SimTime, page: u64) {
        // Write-behind on the reclaimer's dedicated QP; the frame is
        // reused immediately (the model keeps page contents host-side).
        // The QP's bounded depth paces write-back bursts — without it a
        // reclaim cycle would dump thousands of WRITEs into the shared
        // WQE engine and stall page fetches behind them.
        let qp = QpId(self.cfg.workers as u32);
        let shard = self.shard_map.shard_of(page);
        let primary = self.shard_map.node_id(shard, 0) as usize;
        match self.nics[shard].post(
            now,
            qp,
            Verb::Write,
            page,
            self.cfg.fetch_page_bytes,
            &mut self.mems[primary],
            &mut self.plane,
        ) {
            Ok(c) => {
                self.q_sq_post(shard, now, c.slot_residence(now));
                self.metrics.inc(self.ids.writebacks);
                if c.is_error() {
                    // The frame was already reused and page contents are
                    // host-side in this model, so a failed write-back is
                    // only counted, not replayed.
                    self.metrics.inc(self.ids.writeback_errors);
                }
                self.trace(now, "reclaim", "writeback", page, 0);
                self.events.push(c.done_at, Ev::WriteDone { shard });
            }
            Err(fabric::PostError::QpFull) => {
                self.metrics.inc(self.ids.qp_full_retries);
                self.q_wb(shard, now, true);
                self.deferred_writebacks[shard].push_back(page);
            }
        }
    }

    fn on_write_done(&mut self, now: SimTime, shard: usize) {
        self.nics[shard].on_cqe(now, QpId(self.cfg.workers as u32));
        self.q_sq_cqe(shard, now);
        let outstanding = self.total_outstanding();
        self.metrics
            .gauge_set(self.ids.qp_outstanding, now, outstanding as f64);
        self.note_shard_outstanding(shard, now);
        if let Some(page) = self.deferred_writebacks[shard].pop_front() {
            self.q_wb(shard, now, false);
            self.writeback(now, page);
        }
    }

    /// An intermediate error CQE of a failover chain surfaced: consume
    /// it so the QP slot frees (the chain already continued elsewhere).
    fn on_cqe_retire(&mut self, now: SimTime, shard: usize, qp: QpId) {
        self.nics[shard].on_cqe(now, qp);
        self.q_sq_cqe(shard, now);
        let outstanding = self.total_outstanding();
        self.metrics
            .gauge_set(self.ids.qp_outstanding, now, outstanding as f64);
        self.note_shard_outstanding(shard, now);
        self.trace(now, "nic", "cqe_retire", qp.0 as u64, shard as u64);
    }
}

/// Evaluates a tenant's latency SLO rules over its window histogram:
/// a `lat<OBJ:BUDGET@WINDOW` rule allows at most a `BUDGET` fraction of
/// completions over `OBJ` — equivalently, the `(1 − BUDGET)`-quantile
/// must sit at or under the objective. Returns `None` when the spec
/// carries no latency rule or no completion landed in the window.
fn slo_verdict(rules: &[SloRule], latency: &desim::Histogram) -> Option<bool> {
    let mut verdict = None;
    for rule in rules {
        if let SloRule::LatencyBurn {
            objective, budget, ..
        } = rule
        {
            if latency.count() == 0 {
                continue;
            }
            let q = ((1.0 - budget) * 100.0).clamp(0.0, 100.0);
            let ok = latency.percentile(q) <= objective.as_nanos();
            verdict = Some(verdict.unwrap_or(true) && ok);
        }
    }
    verdict
}

/// Convenience: build and run one experiment.
pub fn run_one(cfg: SystemConfig, workload: &mut dyn Workload, params: RunParams) -> RunResult {
    Simulation::new(cfg, workload, params).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemKind;
    use crate::workload::ArrayIndexWorkload;

    /// A small working set so tests run fast: 16 Ki pages, 20 % local.
    fn small_workload() -> ArrayIndexWorkload {
        ArrayIndexWorkload::new(16_384)
    }

    fn quick_params(rps: f64) -> RunParams {
        RunParams {
            offered_rps: rps,
            seed: 42,
            warmup: SimDuration::from_millis(2),
            measure: SimDuration::from_millis(10),
            local_mem_fraction: 0.2,
            keep_breakdowns: false,
            burst: None,
            timeline_bucket: None,
            trace_capacity: None,
            spans: None,
            faults: None,
            telemetry: None,
            profile: None,
            memory: None,
            tenants: None,
        }
    }

    fn run(kind: SystemKind, rps: f64) -> RunResult {
        let mut w = small_workload();
        run_one(SystemConfig::for_kind(kind), &mut w, quick_params(rps))
    }

    fn run_faulty(cfg: SystemConfig, rps: f64, scenario: FaultScenario) -> RunResult {
        let mut w = small_workload();
        run_one(
            cfg,
            &mut w,
            RunParams {
                faults: Some(scenario),
                telemetry: None,
                ..quick_params(rps)
            },
        )
    }

    /// Every error CQE either fails over to the next replica or
    /// terminates its chain — no fetch can vanish in between. On
    /// sharded runs the same partition must hold shard by shard:
    /// failovers on one shard cannot paper over chain failures on
    /// another.
    fn assert_fault_invariant(res: &RunResult) {
        use desim::trace::shard_names as sn;
        let c = |name| res.metrics.counter(name).unwrap_or(0);
        assert_eq!(
            c("fetch_cqe_errors"),
            c("fetch_failovers") + c("fetch_chain_failures"),
            "error CQEs must be exactly partitioned into failovers and chain failures"
        );
        for s in 0..sn::MAX_SHARDS {
            if let Some(errs) = res.metrics.counter(sn::CQE_ERRORS[s]) {
                assert_eq!(
                    errs,
                    c(sn::FAILOVERS[s]) + c(sn::CHAIN_FAILURES[s]),
                    "shard {s}: error CQEs must partition into failovers and chain failures"
                );
            }
        }
    }

    #[test]
    fn lossy_fabric_retransmits_but_conserves_every_request() {
        for kind in [SystemKind::Dilos, SystemKind::Adios] {
            let res = run_faulty(
                SystemConfig::for_kind(kind),
                400_000.0,
                FaultScenario::lossy(),
            );
            let c = |name| res.metrics.counter(name).unwrap_or(0);
            assert!(
                c("fetch_retransmits") > 0,
                "{}: 2% loss must trigger retransmissions",
                kind.name()
            );
            // 7 RC retries put retry exhaustion at ~loss^8: every fetch
            // eventually completes and nothing is dropped.
            assert_eq!(res.recorder.dropped(), 0, "{}", kind.name());
            assert_eq!(c("fetch_aborts"), 0, "{}", kind.name());
            assert_fault_invariant(&res);
            assert!(res.recorder.completed_in_window() > 500);
        }
    }

    #[test]
    fn memnode_crash_fails_over_to_replica() {
        let cfg = SystemConfig {
            memnode_replicas: 2,
            ..SystemConfig::adios()
        };
        let res = run_faulty(cfg, 400_000.0, FaultScenario::crash());
        let c = |name| res.metrics.counter(name).unwrap_or(0);
        assert!(
            c("fetch_failovers") > 0,
            "outage fetches must divert to the secondary replica"
        );
        assert_eq!(res.recorder.dropped(), 0, "replica absorbs the outage");
        assert_fault_invariant(&res);
    }

    #[test]
    fn memnode_crash_without_replica_aborts_chains() {
        // A failed chain burns ~3.8 ms of RTO ladders before its error
        // CQE surfaces; keep measuring long enough to observe the
        // aborts the 10 ms outage provokes.
        let mut w = small_workload();
        let res = run_one(
            SystemConfig::adios(),
            &mut w,
            RunParams {
                faults: Some(FaultScenario::crash()),
                telemetry: None,
                measure: SimDuration::from_millis(20),
                ..quick_params(400_000.0)
            },
        );
        let c = |name| res.metrics.counter(name).unwrap_or(0);
        // With a single replica the failover chain re-targets the same
        // dead node and exhausts its attempt budget.
        assert!(c("fetch_chain_failures") > 0);
        assert!(c("fetch_aborts") > 0);
        assert!(res.recorder.dropped() > 0);
        assert_fault_invariant(&res);
    }

    #[test]
    fn stall_episodes_inflate_busywait_spin() {
        let base = run(SystemKind::Dilos, 400_000.0);
        let stalled = run_faulty(SystemConfig::dilos(), 400_000.0, FaultScenario::stall());
        assert!(
            stalled.stats.spin_ns > base.stats.spin_ns,
            "stalled memnode must lengthen busy-wait spins: {} vs {}",
            stalled.stats.spin_ns,
            base.stats.spin_ns
        );
        assert_fault_invariant(&stalled);
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let a = run_faulty(SystemConfig::adios(), 500_000.0, FaultScenario::lossy());
        let b = run_faulty(SystemConfig::adios(), 500_000.0, FaultScenario::lossy());
        assert_eq!(
            a.recorder.completed_in_window(),
            b.recorder.completed_in_window()
        );
        assert_eq!(
            a.recorder.overall().percentile(99.9),
            b.recorder.overall().percentile(99.9)
        );
        assert_eq!(
            a.metrics.counter("fetch_retransmits"),
            b.metrics.counter("fetch_retransmits")
        );
        assert_eq!(
            a.metrics.counter("faults.injected_losses"),
            b.metrics.counter("faults.injected_losses")
        );
    }

    #[test]
    fn low_load_latency_is_microsecond_scale() {
        for kind in [SystemKind::Dilos, SystemKind::Adios] {
            let res = run(kind, 100_000.0);
            let p50 = res.recorder.overall().percentile(50.0);
            assert!(
                (1_000..20_000).contains(&p50),
                "{}: p50 = {p50} ns",
                kind.name()
            );
            assert_eq!(res.recorder.dropped(), 0, "{}", kind.name());
            assert!(res.recorder.completed_in_window() > 500);
        }
    }

    #[test]
    fn determinism_same_seed_same_results() {
        let a = run(SystemKind::Adios, 500_000.0);
        let b = run(SystemKind::Adios, 500_000.0);
        assert_eq!(
            a.recorder.completed_in_window(),
            b.recorder.completed_in_window()
        );
        assert_eq!(
            a.recorder.overall().percentile(99.0),
            b.recorder.overall().percentile(99.0)
        );
        assert_eq!(a.stats.prefetches, b.stats.prefetches);
    }

    #[test]
    fn adios_beats_dilos_at_high_load() {
        // Past DiLOS' saturation point, Adios must deliver both more
        // throughput and a dramatically lower tail (the paper's headline
        // result).
        let dilos = run(SystemKind::Dilos, 2_200_000.0);
        let adios = run(SystemKind::Adios, 2_200_000.0);
        assert!(
            adios.recorder.achieved_rps() > dilos.recorder.achieved_rps() * 1.2,
            "throughput: adios {} vs dilos {}",
            adios.recorder.achieved_rps(),
            dilos.recorder.achieved_rps()
        );
    }

    #[test]
    fn adios_spin_time_is_negligible() {
        let dilos = run(SystemKind::Dilos, 1_200_000.0);
        let adios = run(SystemKind::Adios, 1_200_000.0);
        assert!(
            dilos.spin_fraction() > 0.2,
            "dilos spin fraction = {}",
            dilos.spin_fraction()
        );
        assert!(
            adios.spin_fraction() < 0.05,
            "adios spin fraction = {}",
            adios.spin_fraction()
        );
    }

    #[test]
    fn rdma_utilization_higher_for_adios() {
        let dilos = run(SystemKind::Dilos, 2_500_000.0);
        let adios = run(SystemKind::Adios, 2_500_000.0);
        assert!(
            adios.rdma_data_util > dilos.rdma_data_util * 1.2,
            "util: adios {} vs dilos {}",
            adios.rdma_data_util,
            dilos.rdma_data_util
        );
    }

    #[test]
    fn hermit_is_slowest() {
        let hermit = run(SystemKind::Hermit, 1_200_000.0);
        let dilos = run(SystemKind::Dilos, 1_200_000.0);
        assert!(
            hermit.recorder.achieved_rps() < dilos.recorder.achieved_rps(),
            "hermit {} vs dilos {}",
            hermit.recorder.achieved_rps(),
            dilos.recorder.achieved_rps()
        );
        assert!(
            hermit.recorder.overall().percentile(99.9) > dilos.recorder.overall().percentile(99.9),
            "hermit tail should be worse"
        );
    }

    #[test]
    fn all_local_memory_means_no_fetches() {
        let mut params = quick_params(500_000.0);
        params.local_mem_fraction = 1.0;
        let mut w = small_workload();
        let res = run_one(SystemConfig::adios(), &mut w, params);
        assert_eq!(res.cache.misses, 0);
        assert_eq!(res.stats.prefetches, 0);
        assert!(res.rdma_data_util < 1e-6);
        assert!(res.recorder.completed_in_window() > 1000);
    }

    #[test]
    fn overload_drops_requests_and_caps_throughput() {
        let res = run(SystemKind::Dilos, 5_000_000.0);
        assert!(res.recorder.dropped() > 0, "expected drops at 5 MRPS");
        let achieved = res.recorder.achieved_rps();
        assert!(
            achieved < 3_000_000.0,
            "achieved {achieved} should be capped by saturation"
        );
    }

    #[test]
    fn preemption_happens_only_in_dilos_p() {
        // A long-compute workload (SCAN-like) to give probes a chance.
        struct LongCompute;
        impl Workload for LongCompute {
            fn classes(&self) -> &'static [&'static str] {
                &["long"]
            }
            fn total_pages(&self) -> u64 {
                4096
            }
            fn next_request(&mut self, rng: &mut Rng) -> Trace {
                let steps = (0..20)
                    .map(|_| paging::trace::Step {
                        compute_ns: 1_000,
                        access: Some(paging::trace::Access {
                            page: rng.gen_range(4096),
                            write: false,
                        }),
                    })
                    .collect();
                Trace {
                    class: 0,
                    steps,
                    request_bytes: 64,
                    reply_bytes: 64,
                }
            }
        }
        let params = quick_params(50_000.0);
        let p = run_one(SystemConfig::dilos_p(), &mut LongCompute, params.clone());
        let d = run_one(SystemConfig::dilos(), &mut LongCompute, params);
        assert!(p.stats.preemptions > 0, "DiLOS-P must preempt long scans");
        assert_eq!(d.stats.preemptions, 0, "DiLOS never preempts");
    }

    #[test]
    fn breakdown_components_populated() {
        let mut params = quick_params(1_000_000.0);
        params.keep_breakdowns = true;
        let mut w = small_workload();
        let mut res = run_one(SystemConfig::dilos(), &mut w, params.clone());
        let p50 = res.recorder.breakdown_at(50.0);
        assert!(p50.mean.handling_ns > 0.0);
        // 80 % of requests fault; at P50 the fetch shows up.
        assert!(p50.mean.rdma_ns > 0.0);

        let mut w2 = small_workload();
        let mut adios = run_one(SystemConfig::adios(), &mut w2, params);
        let a99 = adios.breakdown99();
        assert!(a99.mean.busywait_ns < 100.0, "adios must not spin: {a99:?}");
    }

    impl RunResult {
        fn breakdown99(&mut self) -> loadgen::record::BreakdownAt {
            self.recorder.breakdown_at(99.0)
        }
    }

    #[test]
    fn writebacks_happen_with_dirty_pages() {
        struct WriteHeavy;
        impl Workload for WriteHeavy {
            fn classes(&self) -> &'static [&'static str] {
                &["write"]
            }
            fn total_pages(&self) -> u64 {
                8192
            }
            fn next_request(&mut self, rng: &mut Rng) -> Trace {
                Trace {
                    class: 0,
                    steps: vec![paging::trace::Step {
                        compute_ns: 300,
                        access: Some(paging::trace::Access {
                            page: rng.gen_range(8192),
                            write: true,
                        }),
                    }],
                    request_bytes: 64,
                    reply_bytes: 64,
                }
            }
        }
        let res = run_one(
            SystemConfig::adios(),
            &mut WriteHeavy,
            quick_params(500_000.0),
        );
        assert!(res.stats.writebacks > 0, "dirty evictions must write back");
        assert!(res.rdma_ctrl_util > 0.0);
    }

    #[test]
    fn qp_depth_one_forces_handler_pauses() {
        let mut cfg = SystemConfig::adios();
        cfg.fabric.qp_depth = 1;
        let mut w = small_workload();
        let res = run_one(cfg, &mut w, quick_params(1_500_000.0));
        assert!(
            res.stats.qp_stalls > 0,
            "depth-1 QPs must pause the fault handler (§5.2 mechanism)"
        );
        assert!(
            res.recorder.completed_in_window() > 1_000,
            "still makes progress"
        );
    }

    #[test]
    fn hot_page_faults_coalesce() {
        // Every request hits the same handful of pages: concurrent
        // faults must wait on the in-flight fetch, not duplicate it.
        struct HotPages;
        impl Workload for HotPages {
            fn classes(&self) -> &'static [&'static str] {
                &["hot"]
            }
            fn total_pages(&self) -> u64 {
                4096
            }
            fn next_request(&mut self, rng: &mut Rng) -> Trace {
                Trace {
                    class: 0,
                    steps: vec![paging::trace::Step {
                        compute_ns: 300,
                        access: Some(paging::trace::Access {
                            page: rng.gen_range(4), // 4 hot pages
                            write: false,
                        }),
                    }],
                    request_bytes: 32,
                    reply_bytes: 32,
                }
            }
            fn warm_pages(&self) -> Option<Vec<u64>> {
                Some(vec![4000, 4001]) // keep the hot pages cold initially
            }
        }
        let mut params = quick_params(2_000_000.0);
        params.local_mem_fraction = 0.05;
        // The hot set becomes resident within microseconds, so the
        // coalescing happens at the very start of the run: measure
        // from t = 0 or the windowed counters will miss it.
        params.warmup = SimDuration::ZERO;
        let res = run_one(SystemConfig::adios(), &mut HotPages, params);
        assert!(
            res.stats.coalesced > 0,
            "concurrent faults on hot pages must coalesce"
        );
        // Far fewer fetches than requests: the hot set stays resident.
        assert!(res.cache.misses < res.recorder.completed_in_window() / 10);
    }

    #[test]
    fn stealing_happens_and_is_counted() {
        let cfg = SystemConfig {
            queue_model: QueueModel::PerWorkerStealing,
            ..SystemConfig::adios()
        };
        let mut w = small_workload();
        let res = run_one(cfg, &mut w, quick_params(1_500_000.0));
        assert!(
            res.stats.steals > 0,
            "random steering must imbalance queues"
        );
    }

    #[test]
    fn infiniswap_resume_delay_slows_remote_requests() {
        let mut w = small_workload();
        let inf = run_one(SystemConfig::infiniswap(), &mut w, quick_params(150_000.0));
        let adios = run_one(SystemConfig::adios(), &mut w, quick_params(150_000.0));
        let (i50, a50) = (
            inf.recorder.overall().percentile(50.0),
            adios.recorder.overall().percentile(50.0),
        );
        assert!(
            i50 > a50 * 4,
            "kernel wake-up delay must dominate: infiniswap {i50} vs adios {a50}"
        );
        assert!(inf.spin_fraction() < 0.05, "infiniswap yields, never spins");
    }

    #[test]
    fn timeline_records_queue_dynamics() {
        let mut params = quick_params(1_800_000.0);
        params.timeline_bucket = Some(SimDuration::from_micros(100));
        let mut w = small_workload();
        let res = run_one(SystemConfig::dilos(), &mut w, params);
        let tl = res.timeline.expect("timeline requested");
        assert!(tl.queue_depth.samples() > 1_000);
        assert!(tl.inflight.global_max() >= 1.0);
        assert!(!tl.queue_depth.means().is_empty());
    }

    #[test]
    fn huge_page_fetches_inflate_latency() {
        let mut cfg = SystemConfig::adios();
        cfg.fetch_page_bytes = 2 * 1024 * 1024;
        cfg.speculative_readahead = 0.0;
        cfg.prefetcher = crate::config::PrefetcherKind::None;
        // Below the 2 MB variant's (tiny) link capacity, so remote
        // requests actually complete and dominate the median.
        let mut w = small_workload();
        let huge = run_one(cfg, &mut w, quick_params(8_000.0));
        let small = run_one(SystemConfig::adios(), &mut w, quick_params(8_000.0));
        assert!(
            huge.recorder.overall().percentile(50.0)
                > small.recorder.overall().percentile(50.0) * 10,
            "512x I/O amplification must show: {} vs {}",
            huge.recorder.overall().percentile(50.0),
            small.recorder.overall().percentile(50.0)
        );
    }

    #[test]
    fn near_zero_load_runs_cleanly() {
        // A window that may see zero or a handful of arrivals must not
        // wedge the event loop or the utilisation accounting.
        let mut w = small_workload();
        let res = run_one(SystemConfig::adios(), &mut w, quick_params(100.0));
        assert_eq!(res.recorder.dropped(), 0);
        assert!(res.rdma_data_util < 0.01);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let cfg = SystemConfig {
            workers: 0,
            ..SystemConfig::adios()
        };
        let mut w = small_workload();
        let _ = run_one(cfg, &mut w, quick_params(1_000.0));
    }

    #[test]
    fn conservation_completed_plus_dropped() {
        let res = run(SystemKind::Adios, 800_000.0);
        // Within the measurement window, throughput ≈ offered − drops.
        let offered_in_window = res.offered_rps * res.window.as_secs_f64();
        let acc = res.recorder.completed_in_window() + res.recorder.dropped();
        let ratio = acc as f64 / offered_in_window;
        assert!(
            (0.95..=1.05).contains(&ratio),
            "conservation ratio {ratio} (completed+dropped {acc} vs offered {offered_in_window})"
        );
    }

    #[test]
    fn warmup_activity_excluded_from_window_counters() {
        // A warmup longer than the measurement window: with cumulative
        // counters (the old bug) spin_ns would cover warmup + drain and
        // spin_fraction could exceed 1; windowed counters keep it sane.
        let mut params = quick_params(1_500_000.0);
        params.warmup = SimDuration::from_millis(8);
        params.measure = SimDuration::from_millis(4);
        let mut w = small_workload();
        let res = run_one(SystemConfig::dilos(), &mut w, params);
        assert!(res.stats.spin_ns > 0, "DiLOS busy-waits under load");
        assert!(
            res.spin_fraction() <= 1.0 + 1e-9,
            "spin fraction {} must not exceed total worker time",
            res.spin_fraction()
        );
        // The snapshot window covers the measurement phase only, not
        // warmup or the post-measure drain.
        let win = res.metrics.window_ns as f64;
        let measure = SimDuration::from_millis(4).as_nanos() as f64;
        assert!(
            win >= measure && win < measure * 1.5,
            "window {win} ns should be ≈ measure window {measure} ns"
        );
    }

    #[test]
    fn trace_records_virtual_time_events() {
        let mut params = quick_params(1_000_000.0);
        params.trace_capacity = Some(50_000);
        let mut w = small_workload();
        let res = run_one(SystemConfig::adios(), &mut w, params);
        let trace = res.trace.expect("trace requested");
        assert!(!trace.is_empty());
        assert!(
            trace.windows(2).all(|w| w[0].at <= w[1].at),
            "trace must be sorted by virtual time"
        );
        let names: std::collections::HashSet<_> =
            trace.iter().map(|e| (e.component, e.name)).collect();
        assert!(names.contains(&("dispatch", "arrival")));
        assert!(names.contains(&("fault", "miss")));
        assert!(names.contains(&("worker", "complete")));
    }

    #[test]
    fn metrics_registry_matches_stats_view() {
        let mut w = small_workload();
        let res = run_one(SystemConfig::dilos(), &mut w, quick_params(1_500_000.0));
        let m = &res.metrics;
        assert_eq!(m.counter("spin_ns"), Some(res.stats.spin_ns));
        assert_eq!(m.counter("preemptions"), Some(res.stats.preemptions));
        assert_eq!(m.counter("qp_stalls"), Some(res.stats.qp_stalls));
        assert_eq!(m.counter("coalesced"), Some(res.stats.coalesced));
        assert_eq!(m.counter("writebacks"), Some(res.stats.writebacks));
        assert_eq!(m.counter("steals"), Some(res.stats.steals));
        // Completions flow through both the recorder and the registry.
        // The recorder windows on each completion's rx timestamp while
        // the registry re-bases at the first *event* past each boundary
        // (and worker virtual clocks lead the event clock), so the two
        // may disagree by the couple of requests in flight at a
        // boundary — but no more.
        let reg = m.counter("completions").unwrap();
        let rec = res.recorder.completed_in_window();
        assert!(
            reg.abs_diff(rec) <= 8,
            "registry completions {reg} vs recorder {rec}"
        );
        // Gauges exist and saw activity.
        let qd = m.gauge("queue_depth").expect("queue_depth registered");
        assert!(qd.max >= 1.0);
        assert!(m.gauge("qp_outstanding").is_some());
    }

    // ----- memnode sharding ---------------------------------------------

    #[test]
    fn single_shard_runs_register_no_per_shard_counters() {
        use desim::trace::shard_names as sn;
        let mut w = small_workload();
        let res = run_one(SystemConfig::adios(), &mut w, quick_params(400_000.0));
        assert!(
            res.metrics.counter(sn::FETCHES[0]).is_none(),
            "per-shard counters must stay out of single-shard registries"
        );
        assert!(res.metrics.gauge(sn::QP_OUTSTANDING[0]).is_none());
        assert_eq!(
            res.shards.len(),
            1,
            "the lone shard still gets a window view"
        );
    }

    #[test]
    fn sharded_run_spreads_fetches_across_every_shard() {
        use desim::trace::shard_names as sn;
        let cfg = SystemConfig {
            memnode_shards: 4,
            ..SystemConfig::adios()
        };
        let mut w = small_workload();
        let res = run_one(cfg, &mut w, quick_params(400_000.0));
        assert_eq!(res.shards.len(), 4);
        for s in 0..4 {
            let fetched = res.metrics.counter(sn::FETCHES[s]).unwrap_or(0);
            assert!(fetched > 0, "shard {s} saw no fetches");
            assert!(
                res.shards[s].data_bytes > 0,
                "shard {s} moved no data on its rail"
            );
        }
        assert_eq!(res.recorder.dropped(), 0);
        assert_fault_invariant(&res);
    }

    #[test]
    fn sharded_crash_fails_over_one_shard_and_spares_the_rest() {
        use desim::trace::shard_names as sn;
        // Down global node 0 — shard 0's primary under the packed chain
        // layout — with no steady error rate (the canonical `crash`
        // scenario adds 0.1 % background CQE errors, which would touch
        // every shard). Shard 0's pages must walk its replica chain;
        // shards 1–3 must never see an error.
        let cfg = SystemConfig {
            memnode_shards: 4,
            memnode_replicas: 2,
            ..SystemConfig::adios()
        };
        let res = run_faulty(cfg, 400_000.0, FaultScenario::crash_node(0));
        let c = |name| res.metrics.counter(name).unwrap_or(0);
        assert!(
            c(sn::FAILOVERS[0]) > 0,
            "shard 0's outage must divert onto its replica"
        );
        for s in 1..4 {
            assert_eq!(
                c(sn::CQE_ERRORS[s]),
                0,
                "shard {s} shares no fate with shard 0's dead primary"
            );
        }
        assert_eq!(res.recorder.dropped(), 0, "replica absorbs the outage");
        assert_fault_invariant(&res);
    }

    #[test]
    fn sharded_crash_of_a_non_primary_node_spares_shard_zero() {
        use desim::trace::shard_names as sn;
        // Down shard 1's primary (global node 2 when replicas = 2):
        // re-mapping must stay contained to shard 1.
        let cfg = SystemConfig {
            memnode_shards: 4,
            memnode_replicas: 2,
            ..SystemConfig::adios()
        };
        let res = run_faulty(cfg, 400_000.0, FaultScenario::crash_node(2));
        let c = |name| res.metrics.counter(name).unwrap_or(0);
        assert!(c(sn::FAILOVERS[1]) > 0, "shard 1 must fail over");
        for s in [0usize, 2, 3] {
            assert_eq!(c(sn::CQE_ERRORS[s]), 0, "shard {s} must be untouched");
        }
        assert_eq!(res.recorder.dropped(), 0);
        assert_fault_invariant(&res);
    }

    #[test]
    #[should_panic(expected = "memnode_shards must be at least 1")]
    fn zero_shards_is_rejected_at_run_start() {
        let cfg = SystemConfig {
            memnode_shards: 0,
            ..SystemConfig::adios()
        };
        let mut w = small_workload();
        let _ = run_one(cfg, &mut w, quick_params(100_000.0));
    }

    // ----- tenant plane --------------------------------------------------

    use loadgen::{TenantPlane, TenantPriority, TenantSpec};

    fn tenant_params(plane: TenantPlane) -> RunParams {
        RunParams {
            offered_rps: plane.total_rate_rps(),
            tenants: Some(plane),
            ..quick_params(0.0)
        }
    }

    #[test]
    fn single_tenant_plane_registers_no_tenant_counters() {
        use desim::trace::tenant_names as tn;
        let plane = TenantPlane::new(vec![TenantSpec::new(
            400_000.0,
            "array",
            TenantPriority::High,
        )]);
        let mut w = small_workload();
        let res = run_one(SystemConfig::adios(), &mut w, tenant_params(plane));
        assert!(
            res.metrics.counter(tn::ARRIVALS[0]).is_none(),
            "tenantN.* counters must stay out of single-tenant registries"
        );
        assert_eq!(res.tenants.len(), 1, "the lone tenant still gets a window");
        let t = &res.tenants[0];
        assert_eq!(t.priority, "high");
        assert!(
            t.completed > 1_000,
            "tenant saw {} completions",
            t.completed
        );
        assert_eq!(t.completed, res.recorder.completed_in_window());
        assert_eq!(t.sheds + t.drops, 0);
        assert!(t.slo_ok.is_none(), "no SLO rule, no verdict");
        assert!(res.conservation.holds());
        assert!(res.conservation.sheds == 0 && res.conservation.aborts == 0);
    }

    #[test]
    fn overloaded_mix_sheds_low_priority_and_conserves_requests() {
        use desim::trace::tenant_names as tn;
        // A high-priority tenant comfortably inside capacity plus a
        // low-priority flood far past saturation, with the watermark
        // set low enough to engage: shedding must land entirely on the
        // flood while the partition identities hold.
        let plane = TenantPlane::new(vec![
            TenantSpec::new(300_000.0, "array", TenantPriority::High),
            TenantSpec::new(6_000_000.0, "array", TenantPriority::Low),
        ])
        .with_shed_watermark(64);
        let mut w = small_workload();
        let res = run_one(SystemConfig::adios(), &mut w, tenant_params(plane));
        assert_eq!(res.tenants.len(), 2);
        let (hi, lo) = (&res.tenants[0], &res.tenants[1]);
        assert_eq!(hi.sheds, 0, "watermark must never shed high priority");
        assert!(lo.sheds > 1_000, "the flood must shed (got {})", lo.sheds);
        assert!(hi.completed > 1_000 && lo.completed > 0);
        // Windowed per-tenant views partition the recorder's view.
        assert_eq!(
            hi.completed + lo.completed,
            res.recorder.completed_in_window()
        );
        assert_eq!(
            hi.sheds + lo.sheds + hi.drops + lo.drops,
            res.recorder.dropped()
        );
        // Registry counters partition the global ones (whole run, not
        // just the window).
        let c = |name| res.metrics.counter(name).unwrap_or(0);
        assert_eq!(
            c(tn::COMPLETIONS[0]) + c(tn::COMPLETIONS[1]),
            res.metrics.counter("completions").unwrap_or(0)
        );
        assert!(c(tn::ARRIVALS[0]) > 0 && c(tn::ARRIVALS[1]) > 0);
        assert_eq!(c(tn::SHEDS[0]), 0);
        assert!(c(tn::SHEDS[1]) > 0);
        assert!(res.conservation.holds(), "{:?}", res.conservation);
        assert!(res.conservation.sheds > 0);
    }

    #[test]
    fn token_bucket_polices_a_tenant_to_its_configured_rate() {
        // One tenant offering 600k but policed to 200k: admitted
        // throughput must track the bucket, not the offered rate, and
        // the excess must surface as sheds.
        let plane = TenantPlane::new(vec![
            TenantSpec::new(600_000.0, "array", TenantPriority::High).with_bucket(200_000.0, 64),
            TenantSpec::new(100_000.0, "array", TenantPriority::High),
        ]);
        let mut w = small_workload();
        let res = run_one(SystemConfig::adios(), &mut w, tenant_params(plane));
        let t0 = &res.tenants[0];
        let window_s = SimDuration::from_millis(10).as_secs_f64();
        let admitted_rps = t0.admitted as f64 / window_s;
        assert!(
            (150_000.0..=210_000.0).contains(&admitted_rps),
            "policed tenant admitted {admitted_rps:.0} rps, want ~200k"
        );
        assert!(t0.sheds > 1_000, "policing must shed the excess");
        assert_eq!(res.tenants[1].sheds, 0, "unpoliced tenant is untouched");
        assert!(res.conservation.holds());
    }

    #[test]
    fn per_tenant_slo_verdicts_follow_the_latency_split() {
        // Same workload, wildly different objectives: a 1 s objective
        // must pass and a 1 ns objective must fail on the same run.
        let generous = desim::parse_slo_spec("lat<1s:0.01@1ms").unwrap();
        let impossible = desim::parse_slo_spec("lat<1ns:0.01@1ms").unwrap();
        let plane = TenantPlane::new(vec![
            TenantSpec::new(200_000.0, "array", TenantPriority::High).with_slo(generous),
            TenantSpec::new(200_000.0, "array", TenantPriority::High).with_slo(impossible),
        ]);
        let mut w = small_workload();
        let res = run_one(SystemConfig::adios(), &mut w, tenant_params(plane));
        assert_eq!(res.tenants[0].slo_ok, Some(true));
        assert_eq!(res.tenants[1].slo_ok, Some(false));
    }

    #[test]
    fn conservation_tracked_on_legacy_single_stream_runs() {
        let res = run(SystemKind::Adios, 400_000.0);
        assert!(res.conservation.holds(), "{:?}", res.conservation);
        assert!(res.conservation.arrivals > 0);
        assert_eq!(res.conservation.sheds, 0, "no plane, no sheds");
        assert!(res.tenants.is_empty(), "no plane, no tenant windows");
    }

    // ----- dispatcher scaling --------------------------------------------

    /// Scalar single-queue reference dispatcher: replays a charge log
    /// with the exact arithmetic the pre-scaling hot path used
    /// (`free = max(free, now) + cost`) and asserts the multi-queue
    /// implementation produced the identical admit/handoff sequence.
    fn assert_matches_scalar_reference(cfg: &SystemConfig, log: &[DispatchCharge]) {
        assert!(!log.is_empty(), "the oracle needs a non-empty charge log");
        let mut free = SimTime::ZERO;
        for (i, c) in log.iter().enumerate() {
            assert_eq!(c.disp, 0, "charge {i}: SingleFcfs must serve on core 0");
            let cost = match c.op {
                DispatchOp::Admit => cfg.dispatch_cost + cfg.client_stack,
                DispatchOp::PushHandoff | DispatchOp::PullHandoff => cfg.handoff_cost,
                DispatchOp::Recycle => cfg.recycle_cost,
            };
            let start = free.max(c.now);
            let end = start + cost;
            assert_eq!(
                (c.start, c.end),
                (start, end),
                "charge {i} ({:?} at {:?}) diverges from the scalar reference",
                c.op,
                c.now
            );
            free = end;
        }
    }

    #[test]
    fn single_fcfs_matches_scalar_reference_dispatcher() {
        // Lock-step differential oracle, at one dispatcher (the default
        // machine) and at four (extra cores must change nothing under
        // SingleFcfs — the shared queue head serialises on core 0).
        for ndisp in [1, 4] {
            let cfg = SystemConfig {
                dispatchers: ndisp,
                ..SystemConfig::adios()
            };
            let mut w = small_workload();
            let res = run_one(cfg.clone(), &mut w, quick_params(900_000.0));
            let kinds: std::collections::HashSet<_> =
                res.dispatcher_log.iter().map(|c| c.op).collect();
            assert!(
                kinds.contains(&DispatchOp::Admit) && kinds.contains(&DispatchOp::Recycle),
                "the run must exercise admits and delegated recycles"
            );
            assert_matches_scalar_reference(&cfg, &res.dispatcher_log);
        }
    }

    #[test]
    fn single_dispatcher_registers_no_per_dispatcher_counters() {
        use desim::trace::dispatcher_names as dn;
        let res = run(SystemKind::Adios, 400_000.0);
        for d in 0..dn::MAX_DISPATCHERS {
            assert_eq!(
                res.metrics.counter(dn::ADMITTED[d]),
                None,
                "dispatcher counters must not exist on single-dispatcher runs"
            );
        }
    }

    #[test]
    fn single_fcfs_extra_dispatchers_stay_idle() {
        use desim::trace::dispatcher_names as dn;
        let cfg = SystemConfig {
            dispatchers: 4,
            ..SystemConfig::adios()
        };
        let mut w = small_workload();
        let res = run_one(cfg, &mut w, quick_params(900_000.0));
        let c = |name| res.metrics.counter(name).unwrap_or(0);
        assert!(c(dn::ADMITTED[0]) > 0, "core 0 serves every admission");
        for d in 1..4 {
            assert_eq!(c(dn::ADMITTED[d]), 0, "SingleFcfs keeps core {d} idle");
            assert_eq!(c(dn::STEALS[d]), 0);
            assert_eq!(c(dn::COMBINES[d]), 0);
        }
        assert!(res.conservation.holds(), "{:?}", res.conservation);
    }

    #[test]
    fn work_stealing_steals_under_skew_and_conserves() {
        use desim::trace::dispatcher_names as dn;
        let cfg = SystemConfig {
            dispatchers: 4,
            dispatch_policy: DispatchPolicy::WorkStealing,
            workers: 32,
            ..SystemConfig::adios()
        };
        let mut w = small_workload();
        let res = run_one(
            cfg,
            &mut w,
            RunParams {
                local_mem_fraction: 1.0,
                ..quick_params(5_000_000.0)
            },
        );
        let c = |name| res.metrics.counter(name).unwrap_or(0);
        let admitted: u64 = (0..4).map(|d| c(dn::ADMITTED[d])).sum();
        assert!(admitted > 0);
        assert!(
            (0..4).all(|d| c(dn::ADMITTED[d]) > 0),
            "RSS fan-in plus stealing must spread admissions over every core"
        );
        let steals: u64 = (0..4).map(|d| c(dn::STEALS[d])).sum();
        assert!(steals > 0, "overload must trigger steals from hot slots");
        assert!(res.conservation.holds(), "{:?}", res.conservation);
    }

    #[test]
    fn flat_combining_amortises_admissions() {
        use desim::trace::dispatcher_names as dn;
        let cfg = SystemConfig {
            dispatchers: 4,
            dispatch_policy: DispatchPolicy::FlatCombining,
            workers: 32,
            ..SystemConfig::adios()
        };
        let mut w = small_workload();
        let res = run_one(
            cfg,
            &mut w,
            RunParams {
                local_mem_fraction: 1.0,
                ..quick_params(5_000_000.0)
            },
        );
        let c = |name| res.metrics.counter(name).unwrap_or(0);
        let admitted: u64 = (0..4).map(|d| c(dn::ADMITTED[d])).sum();
        let combines: u64 = (0..4).map(|d| c(dn::COMBINES[d])).sum();
        assert!(combines > 0, "a saturated combiner must batch admissions");
        assert!(
            combines < admitted,
            "every batch has an opener that pays full cost"
        );
        assert!(res.conservation.holds(), "{:?}", res.conservation);
    }

    #[test]
    fn work_stealing_scales_past_the_single_queue_knee() {
        // Dispatcher-bound regime: all-local requests on a wide worker
        // pool, offered far past the single-dispatcher admission rate.
        // Four stealing dispatchers must beat one shared FCFS queue by
        // a wide margin on the same machine.
        let params = || RunParams {
            local_mem_fraction: 1.0,
            ..quick_params(5_000_000.0)
        };
        let fcfs = {
            let cfg = SystemConfig {
                dispatchers: 4,
                workers: 32,
                ..SystemConfig::adios()
            };
            let mut w = small_workload();
            run_one(cfg, &mut w, params()).recorder.achieved_rps()
        };
        let ws = {
            let cfg = SystemConfig {
                dispatchers: 4,
                dispatch_policy: DispatchPolicy::WorkStealing,
                workers: 32,
                ..SystemConfig::adios()
            };
            let mut w = small_workload();
            run_one(cfg, &mut w, params()).recorder.achieved_rps()
        };
        assert!(
            ws > fcfs * 1.3,
            "work stealing {ws:.0} rps must clearly beat single FCFS {fcfs:.0} rps"
        );
    }

    /// Red-green regression for the shed watermark: the depth it
    /// compares must sum the admission backlog over *every* ingress
    /// slot. Under the old single-slot accounting, four slots of 10
    /// waiting admits each would read as depth 10 and the watermark at
    /// 32 would never trip.
    #[test]
    fn shed_watermark_sums_backlog_across_all_ingress_slots() {
        let plane = || {
            TenantPlane::new(vec![
                TenantSpec::new(100_000.0, "array", TenantPriority::High),
                TenantSpec::new(100_000.0, "array", TenantPriority::Low),
            ])
            .with_shed_watermark(32)
        };
        let cfg = SystemConfig {
            dispatchers: 4,
            dispatch_policy: DispatchPolicy::FlatCombining,
            ..SystemConfig::adios()
        };
        let mut w = small_workload();
        let mut sim = Simulation::new(
            cfg,
            &mut w,
            RunParams {
                tenants: Some(plane()),
                ..quick_params(100_000.0)
            },
        );
        // Every slot individually under the watermark, the machine as a
        // whole past it: the low-priority request must shed.
        sim.admission_backlog = vec![10, 10, 10, 10];
        let lo = sim.alloc_req(Trace::default(), SimTime::ZERO, 1);
        sim.cons.arrivals += 1;
        assert!(
            sim.tenant_admission(SimTime::ZERO, lo),
            "summed ingress backlog (40) must trip the watermark (32)"
        );
        // High priority is never watermark-shed, whatever the depth.
        let hi = sim.alloc_req(Trace::default(), SimTime::ZERO, 0);
        sim.cons.arrivals += 1;
        assert!(!sim.tenant_admission(SimTime::ZERO, hi));
        // And a genuinely shallow machine admits low priority.
        sim.admission_backlog = vec![10, 0, 0, 0];
        let lo2 = sim.alloc_req(Trace::default(), SimTime::ZERO, 1);
        sim.cons.arrivals += 1;
        assert!(!sim.tenant_admission(SimTime::ZERO, lo2));
    }

    /// PF-aware selection is a hand-rolled early-exit loop; hold it to
    /// the reference it replaced — `min_by_key((Σ rails outstanding,
    /// index))` over idle workers — across random busy masks and
    /// outstanding vectors on 1, 4 and 8 rails, including all-busy
    /// (`None`) and all-zero states.
    #[test]
    fn pf_aware_pick_matches_min_by_key_reference() {
        let mut rng = Rng::new(0x91C4);
        for shards in [1usize, 4, 8] {
            let cfg = SystemConfig {
                memnode_shards: shards,
                ..SystemConfig::adios()
            };
            assert_eq!(cfg.worker_select, WorkerSelect::PfAware);
            let mut w = small_workload();
            let mut sim = Simulation::new(cfg, &mut w, quick_params(100_000.0));
            let n = sim.workers.len();
            let (mut none, mut zero_exit, mut by_count) = (0, 0, 0);
            for trial in 0..600 {
                // Steer every (worker, rail) towards a random target
                // depth; every fourth trial drains to all-zero.
                for i in 0..n {
                    let qp = sim.workers[i].qp;
                    for rail in 0..shards {
                        let target = match trial % 4 {
                            0 => 0,
                            _ => rng.gen_range(4) as u32,
                        };
                        while sim.nics[rail].outstanding(qp) < target {
                            sim.post_read(SimTime::ZERO, rail, qp, 0, 0).unwrap();
                        }
                        while sim.nics[rail].outstanding(qp) > target {
                            sim.nics[rail].on_cqe(SimTime::ZERO, qp);
                        }
                    }
                }
                // Busy mask: random density, all-busy every seventh.
                let density = rng.gen_range(5);
                for worker in &mut sim.workers {
                    worker.busy = trial % 7 == 0 || rng.gen_range(4) < density;
                }
                let count = |sim: &Simulation, i: usize| -> u32 {
                    let qp = sim.workers[i].qp;
                    sim.nics.iter().map(|nic| nic.outstanding(qp)).sum()
                };
                let want = (0..n)
                    .filter(|&i| !sim.workers[i].busy)
                    .min_by_key(|&i| (count(&sim, i), i));
                assert_eq!(
                    sim.pick_idle_worker(),
                    want,
                    "{shards} rails, trial {trial}"
                );
                match want {
                    None => none += 1,
                    Some(i) if count(&sim, i) == 0 => zero_exit += 1,
                    Some(_) => by_count += 1,
                }
            }
            assert!(none > 50 && zero_exit > 50 && by_count > 50);
        }
    }
}
