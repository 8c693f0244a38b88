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
//!
//! # Module map
//!
//! The node is three small state machines (§3 of the paper) plus the
//! ingress path that feeds them; each file owns its slice of
//! [`Simulation`]'s state and the events that drive it — `ingress.rs`
//! (`Arrival`, `Admit`), `worker.rs` (`WorkerWake`, `WaiterReady`),
//! `fetch.rs` (`FetchDone`, `CqeRetire`), `reclaim.rs` (`ReclaimTick`,
//! `WriteDone`) — while this file keeps the wiring, the event loop and
//! the public parameter and result types, and `observe.rs` every
//! measurement (DESIGN.md §3 has the full map).
//!
//! # The `Observer` contract
//!
//! The state machines never touch a plane, a probe or the registry:
//! each site makes **one semantic call** on the single
//! `observe::Observer`, which is write-only — nothing in it schedules
//! an event, draws from an `Rng` or is read back by the model (see
//! `observe.rs` for the full contract).

use std::collections::VecDeque;
use std::rc::Rc;

use desim::profile::{ProfileConfig, ProfileReport};
use desim::span::{SpanConfig, SpanReport};
use desim::telemetry::{TelemetryConfig, TelemetryReport};
use desim::{EventQueue, MetricsSnapshot, Rng, SimDuration, SimTime, TraceLog};
use fabric::{EthPort, FabricParams, MemNode, QpId, RdmaNic, ShardMap};
use faults::{FaultPlane, FaultScenario};
use loadgen::{IngressFanIn, LoadPoint, Recorder, TenantMix, TenantPlane};
pub use paging::observe::MemObsConfig;
use paging::observe::MemReport;
use paging::trace::Trace;
use paging::{PageCache, PAGE_SIZE};

use crate::config::{QueueModel, SystemConfig, WATERMARKS};
use crate::workload::Workload;

mod fetch;
mod ingress;
mod observe;
mod reclaim;
#[cfg(test)]
mod tests;
mod worker;

use fetch::{Detector, FetchId, FetchTable};
use ingress::{Arrivals, Combiner, TenantAdmission};
pub use observe::SimStats;
use observe::{Observer, WindowEdge};
use reclaim::ReclaimState;
use worker::Worker;

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
    /// shapes are per-tenant ([`loadgen::TenantSpec::burst`]).
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

/// One dispatcher-timeline charge, recorded only under `cfg(test)` so
/// the differential oracle (see the `tests` module) can replay the
/// admission arithmetic lock-step against a scalar reference.
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

/// What one superseded fetch completion did, recorded only under
/// `cfg(test)` (see `Simulation::on_fetch_done`): the stale event must
/// free its own QP slot and leave the page's later fetch alone.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StaleCompletion {
    /// Work requests outstanding run-wide / on the record's QP, before
    /// and after the event.
    pub(crate) outstanding: (u32, u32),
    pub(crate) on_qp: (u32, u32),
    /// Requests parked on the stale record itself.
    pub(crate) own_waiters: usize,
    /// Requests parked on the page's later fetch, before and after
    /// (`None` = the page has no record in the table).
    pub(crate) later_waiters: (Option<usize>, Option<usize>),
}

/// What a dispatcher core is charged for (see
/// `Simulation::charge_dispatcher`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum DispatchOp {
    /// Admission of one arrival (`DISPATCH_COST` + `client_stack`).
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
/// counters, no registry entries) and asserted at run end, in release
/// builds too.
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
    /// when [`RunParams::trace_capacity`] was set). The log holds the
    /// ring's compact records; iterating it yields
    /// [`desim::TraceEvent`]s.
    pub trace: Option<TraceLog>,
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
    /// A page fetch CQE became pollable; `fetch` is the handle of the
    /// fetch's own record in the fetch table.
    FetchDone { worker: usize, fetch: FetchId },
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

/// Why a request left the node without a reply (see
/// `Simulation::retire`).
#[derive(Debug, Clone, Copy)]
enum Retire {
    /// Queue overflow at ingress; `queue` is the trace operand (0 for
    /// the RX ring / central queue, the worker index for a per-worker
    /// queue).
    Overflow { queue: usize },
    /// Tenant admission control refused it.
    Shed,
    /// Its fetch chain failed while worker `worker` busy-waited on it.
    AbortedSpinning { worker: usize },
    /// Its fetch chain failed while it was parked (yielded).
    AbortedParked,
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
    detector: Detector,
}

/// The live request in slot `id` (a free function so a caller can hold
/// it across a mutable borrow of another `Simulation` field).
#[inline]
fn live(reqs: &[Option<Req>], id: usize) -> &Req {
    reqs[id].as_ref().expect("dangling request id")
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
    /// Outstanding work requests per QP id, summed over every rail (the
    /// PF-aware dispatch signal), and their run-wide total: running
    /// sums kept where posts and CQEs happen (`Simulation::post`,
    /// `Simulation::consume_cqe`), never re-summed per event.
    qp_outstanding: Vec<u32>,
    outstanding: u32,
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
    cache: PageCache,
    workload: &'w mut dyn Workload,
    arrivals: Arrivals,
    rng: Rng,
    reqs: Vec<Option<Req>>,
    free_reqs: Vec<usize>,
    /// Retired requests' step buffers, recycled through
    /// [`Workload::next_request_into`] so steady-state arrivals perform
    /// no per-request trace allocation (where the workload overrides it).
    trace_pool: Vec<Trace>,
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
    /// Tenant admission control (None = no tenant plane).
    admission: Option<TenantAdmission>,
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
    combiner: Combiner,
    /// Dispatcher-timeline charges for the differential oracle.
    #[cfg(test)]
    dispatcher_log: Vec<DispatchCharge>,
    /// Every superseded fetch completion, in event order.
    #[cfg(test)]
    stale_completions: Vec<StaleCompletion>,
    /// One record per fetch whose `FetchDone` is still queued, indexed
    /// by the handle the event carries. A fetch whose completion was
    /// consumed early can see its page evicted and re-faulted while its
    /// event is still queued: the re-fault marks the old record
    /// superseded, so the stale event still frees the right QP slot and
    /// wakes its own waiters instead of the later fetch's.
    fetches: FetchTable,
    /// Per-shard dirty pages whose write-back is waiting for that
    /// shard's reclaimer-QP slot.
    deferred_writebacks: Vec<VecDeque<u64>>,
    reclaim_state: ReclaimState,
    /// The reclaimer's start / stop thresholds in free frames, resolved
    /// once from [`WATERMARKS`] (the cache capacity never changes).
    low_frames: usize,
    high_frames: usize,
    /// Whether the event clock has crossed the measurement window's
    /// opening and closing edges.
    opened: bool,
    closed: bool,
    last_now: SimTime,
    warmup_end: SimTime,
    measure_end: SimTime,
    /// The most events the queue can hold at once, waiter-ready events
    /// aside (see `Simulation::event_bound`).
    event_ceiling: usize,
    /// Every measurement of the run (see the module docs).
    obs: Observer,
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
        let low_frames = WATERMARKS.low_frames(capacity);
        let high_frames = WATERMARKS.high_frames(capacity);
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
        let shards = cfg.shards();
        let replicas = cfg.replicas();
        let ndisp = cfg.ndispatchers();
        let shard_map = ShardMap::new(shards, replicas, total_pages, cfg.shard_policy);
        // Every posted work request holds its QP slot until the one
        // event that consumes its CQE fires (`FetchDone`, `CqeRetire`,
        // `WriteDone`): this bounds the fetch table and those events.
        let qp_slots = shards * (cfg.workers + 2) * cfg.fabric.qp_depth as usize;
        // Admit ticks are one per occupied dispatcher ingress slot; the
        // per-worker queue models admit without an event.
        let ingress_slots = match cfg.queue_model {
            QueueModel::SingleQueue => ndisp * cfg.fabric.rx_ring_entries,
            QueueModel::PerWorker | QueueModel::PerWorkerStealing => 0,
        };
        // + the next arrival, one wake per worker, the reclaim tick and
        // the telemetry tick.
        let event_ceiling = 1 + ingress_slots + qp_slots + cfg.workers + 2;

        // Tenant plane: the merged arrival mix and the admission state
        // are built from the spec list; the specs themselves go to the
        // observer, which owns the per-tenant accounting.
        let tenants: Option<TenantPlane> = params.tenants.take();
        let arrivals = Arrivals::new(
            &params,
            tenants.as_ref().map(|p| TenantMix::new(p, params.seed)),
        );
        let admission = tenants.as_ref().map(TenantAdmission::new);
        // The scenario is consumed, not cloned: the armed plane keeps
        // it for the run-end telemetry episode annotations.
        let plane = match params.faults.take() {
            Some(s) => FaultPlane::new(s, params.seed ^ 0xFA17_1A7E_0000_0001),
            None => FaultPlane::inert(),
        };
        let obs = Observer::new(
            &cfg,
            &mut params,
            workload.classes().len(),
            shard_map.clone(),
            total_pages,
            tenants.map(|p| p.specs).unwrap_or_default(),
        );

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
            qp_outstanding: vec![0; cfg.workers + 2],
            outstanding: 0,
            // Every shard's chain exports the full page space
            // (address-preserving, like the pre-sharding replicas), so
            // re-mapping a page is purely a routing decision.
            mems: (0..shards * replicas)
                .map(|i| MemNode::new(total_pages, PAGE_SIZE as u32).with_id(i as u32))
                .collect(),
            shard_map,
            plane,
            cache,
            arrivals,
            rng,
            // Request slots start at the parked-request scale — one per
            // slot of the workers' own QPs — so the table does not grow
            // by doubling through warm-up. (Its size also decides on
            // which side of glibc's heap-trim threshold repeated
            // set-ups of the array workloads fall: re-measure `setup_s`
            // when changing it; CHANGES.md, PR 20.)
            reqs: Vec::with_capacity(cfg.workers * cfg.fabric.qp_depth as usize),
            free_reqs: Vec::new(),
            trace_pool: Vec::new(),
            workers: (0..cfg.workers).map(Worker::new).collect(),
            pending: VecDeque::new(),
            pending_lo: VecDeque::new(),
            ingress_hi: VecDeque::new(),
            ingress_lo: VecDeque::new(),
            admission,
            cons: Conservation::default(),
            rr_next: 0,
            dispatcher_free: vec![SimTime::ZERO; ndisp],
            admission_backlog: vec![0; ndisp],
            fanin: IngressFanIn::new(ndisp, params.seed ^ 0xD15A_7C48_0000_0001),
            combiner: Combiner::default(),
            #[cfg(test)]
            dispatcher_log: Vec::new(),
            #[cfg(test)]
            stale_completions: Vec::new(),
            fetches: FetchTable::new(qp_slots),
            deferred_writebacks: vec![VecDeque::new(); shards],
            reclaim_state: ReclaimState::Idle,
            low_frames,
            high_frames,
            opened: false,
            closed: false,
            last_now: SimTime::ZERO,
            warmup_end,
            measure_end,
            event_ceiling,
            obs,
            workload,
            cfg,
            params,
        }
    }

    /// Runs to completion and returns the results.
    pub fn run(mut self) -> RunResult {
        self.schedule_next_arrival();
        if let Some(period) = self.obs.telemetry_period() {
            self.events.push(SimTime::ZERO + period, Ev::TelemetryTick);
        }
        let drain_end = self.measure_end + SimDuration::from_millis(20);
        while let Some((now, ev)) = self.events.pop() {
            if !self.opened && now >= self.warmup_end {
                self.opened = true;
                self.obs.window_opened(now, self.window_edge());
            }
            if !self.closed && now >= self.measure_end {
                self.closed = true;
                self.obs.window_closed(now, self.window_edge());
            }
            if now > drain_end {
                break;
            }
            self.last_now = now;
            self.handle(now, ev);
        }
        // Light-load runs can drain the event queue before reaching the
        // boundaries; fall back to the final counters.
        if !self.closed {
            self.obs.window_closed(self.last_now, self.window_edge());
        }
        // Live slots at drain end are conservation's in-flight term.
        self.cons.inflight_at_end = self.reqs.iter().filter(|r| r.is_some()).count() as u64;
        let res = self.obs.finish(
            self.last_now,
            &self.params,
            &self.cfg,
            self.cons,
            &self.plane,
        );
        #[cfg(test)]
        let res = RunResult {
            dispatcher_log: self.dispatcher_log,
            ..res
        };
        res
    }

    /// The cumulative model counters that re-base at a window edge, as
    /// of now.
    fn window_edge(&self) -> WindowEdge {
        WindowEdge {
            links: self
                .nics
                .iter()
                .map(|n| (n.data_link().snapshot(), n.ctrl_link().snapshot()))
                .collect(),
            cache: self.cache.stats(),
            faults: self.plane.stats(),
        }
    }

    fn handle(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::Arrival { req } => self.on_arrival(now, req),
            Ev::Admit { req } => self.on_admit(now, req),
            Ev::WorkerWake { worker, cont } => self.on_worker_wake(now, worker, cont),
            Ev::FetchDone { worker, fetch } => self.on_fetch_done(now, worker, fetch),
            Ev::WaiterReady { req } => self.make_waiter_ready(now, req),
            Ev::WriteDone { shard } => self.on_write_done(now, shard),
            Ev::ReclaimTick => self.on_reclaim_tick(now),
            Ev::CqeRetire { shard, qp } => self.on_cqe_retire(now, shard, qp),
            Ev::TelemetryTick => self.on_telemetry_tick(now),
        }
        debug_assert!(
            self.events.len() <= self.event_bound(),
            "{} events pending, over the ceiling of {} (DESIGN.md §9)",
            self.events.len(),
            self.event_bound()
        );
    }

    /// The most events that can be pending right now. The ceiling
    /// resolved in [`Simulation::new`] covers every kind but
    /// `WaiterReady`, which is queued only when resumes are delayed
    /// (Infiniswap's kernel wake-up) and then at most once per live
    /// request. The event queue's `push` is O(pending) in the worst
    /// case, so the bound is checked after every handler in debug
    /// builds (tier-1) instead of assumed.
    fn event_bound(&self) -> usize {
        let waiters = if self.cfg.resume_delay > SimDuration::ZERO {
            self.reqs.len() - self.free_reqs.len()
        } else {
            0
        };
        self.event_ceiling + waiters
    }

    /// One flight-recorder sample; the observer reads the live queues
    /// it scores health from and nothing else, so enabling telemetry
    /// perturbs nothing: a tick only adds one entry to the event queue,
    /// which keeps every other pair of events in the same relative
    /// order.
    fn on_telemetry_tick(&mut self, now: SimTime) {
        let next = self.obs.telemetry_tick(
            now,
            &self.cfg,
            &self.workers,
            &self.nics,
            &self.deferred_writebacks,
        );
        if next <= self.measure_end {
            self.events.push(next, Ev::TelemetryTick);
        }
    }
}

/// Convenience: build and run one experiment.
pub fn run_one(cfg: SystemConfig, workload: &mut dyn Workload, params: RunParams) -> RunResult {
    Simulation::new(cfg, workload, params).run()
}
