//! The observer seam: every measurement the run takes — the latency
//! recorder, the metrics registry, the trace ring, spans, the core
//! profiler and its queue probes, the memory observatory and the
//! telemetry bridge — behind one [`Observer`] that the
//! state machine feeds with one semantic call per site.
//!
//! The contract (checked by `observer_is_write_only` and the golden
//! matrix in `tests/determinism.rs`):
//!
//! - **write-only** — no hook returns a value the model acts on;
//! - **inert** — no hook schedules an event or draws from an `Rng`.
//!   (The one thing handed back is the telemetry tick period: the event
//!   loop schedules the recorder's own sampling event with it, and that
//!   event touches nothing but the observer.);
//! - **one call per site** — a site states *what happened* once and the
//!   observer fans it out to whatever is on. [`Observer::mask`] is the
//!   single fast-reject: a hook does its always-on registry writes,
//!   then leaves on one integer test unless a plane it feeds is on;
//! - **registration order is serialisation order** — `setup.rs`
//!   registers counters, gauges, probes and health entities in the
//!   order the run JSON carries them; reordering it changes the bytes;
//! - **records are fixed-size, ordered and formatted at `finish` /
//!   export** — a hook stores codes and indices ([`TraceCode`], the
//!   span layer's one-byte names), never text, and does no arithmetic
//!   that is constant for the run; the trace is put in time order once,
//!   in [`Observer::finish`], names reappear only in the exporters, and
//!   `setup.rs` reserves every series whose length follows from the
//!   horizon.
//!
//! `setup.rs` builds the observer, `report.rs` owns the window edges
//! and freezes everything into the [`super::RunResult`], `telemetry.rs`
//! is the flight-recorder bridge; the hooks live here, grouped by the
//! state-machine file that calls them.

use desim::profile::{CoreProfiler, CoreState, QueueProbe};
use desim::span::{shard_qp, stage, SpanBuilder, SpanStore};
use desim::trace::{code, CounterId, GaugeId, TraceCode};
use desim::{Histogram, Metrics, MetricsSnapshot, RingTracer, SimTime};
use fabric::nic::Completion;
use fabric::{QpId, ShardMap};
use loadgen::{Breakdown, Recorder, TenantSpec};
use paging::observe::{MemObservatory, PrefetchClass};

use super::{Cont, DispatchOp, Req, Retire};

mod report;
mod setup;
mod telemetry;

pub use report::{SimStats, WindowEdge};
use telemetry::TelemBridge;

/// Bits of [`Observer::mask`]: the multi-hook planes that are on (the
/// memory observatory's hooks feed it alone, so its `Option` is their
/// gate).
const TRACE: u8 = 1 << 0;
const SPANS: u8 = 1 << 1;
const PROFILE: u8 = 1 << 2;

/// Handles to the run-total counters and gauges, resolved once at
/// construction so hot-path updates are indexed adds.
struct Ids {
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
    /// Fetch-chain counters; each has a `shardN.*` twin on sharded runs.
    chain: ChainIds,
    fetch_aborts: CounterId,
    prefetch_errors: CounterId,
    writeback_errors: CounterId,
    injected_losses: CounterId,
    injected_cqe_errors: CounterId,
    queue_depth: GaugeId,
    qp_outstanding: GaugeId,
    fault_episode_active: GaugeId,
}

/// The fetch-chain counters that exist both as run totals and per
/// shard (see [`Observer::chain_add`]).
struct ChainIds {
    retransmits: CounterId,
    cqe_errors: CounterId,
    failovers: CounterId,
    chain_failures: CounterId,
}

/// Per-shard counter/gauge handles (`shardN.*`).
struct ShardIds {
    fetches: CounterId,
    chain: ChainIds,
    qp_outstanding: GaugeId,
}

/// Per-dispatcher counter/gauge handles (`dispatcherN.*`).
struct DispatcherIds {
    admitted: CounterId,
    steals: CounterId,
    combines: CounterId,
    /// Per-core busy square wave; joins the registry only when
    /// telemetry or the profiler wants it, mirroring the scalar
    /// `dispatcher.busy_fraction` gate of single-dispatcher runs.
    busy: Option<GaugeId>,
}

/// Per-tenant outcomes, indexing the tenant counter handles
/// (`tenantN.*`) and window accounting.
#[derive(Clone, Copy, PartialEq)]
enum TenantEvent {
    Arrival,
    Admitted,
    Completion,
    Shed,
    Drop,
}

/// One tenant's measurement-window accounting (arrivals, sheds and
/// drops window on the request's TX instant; completions and latency
/// window on the reply's RX instant, mirroring the [`Recorder`]).
#[derive(Debug, Clone, Default)]
struct TenantAcct {
    /// Indexed by [`TenantEvent`].
    counts: [u64; 5],
    latency: Histogram,
}

/// A queue the profiler watches in FIFO mode (see [`Observer::queue`]).
#[derive(Clone, Copy)]
pub enum Queue {
    /// The central pending queue (both priority classes).
    Ingress,
    /// Dispatcher `d`'s ingress slot (arrivals awaiting their admit
    /// tick); probed on multi-dispatcher runs only.
    DispatcherIngress(usize),
    /// Worker `w`'s runnable (resume) queue.
    Runnable(usize),
    /// Shard `s`'s deferred write-back queue.
    Writeback(usize),
}

/// How a request came to start on a worker (see
/// [`Observer::handed_off`]).
#[derive(Clone, Copy)]
pub enum Handoff {
    /// The dispatcher pushed it onto an idle worker.
    Pushed,
    /// An idle worker took the head of its own queue.
    Local,
    /// A worker that ran dry pulled it (central or own queue).
    Pulled,
    /// A worker that ran dry stole it from peer `victim`'s queue.
    Stolen { victim: usize },
}

/// What a consumed CQE carried (see [`Observer::cqe_consumed`]).
#[derive(Clone, Copy)]
pub enum Cqe {
    /// The terminal completion of a fetch of `page` issued by `worker`.
    Fetch { worker: usize, page: u64 },
    /// A reclaimer write-back.
    Write,
    /// An intermediate error CQE of a failover chain, on `qp`.
    Retire { qp: QpId },
}

/// One instrumented queue: its probe and its depth gauge.
struct Probed {
    probe: QueueProbe,
    gauge: GaugeId,
}

impl Probed {
    /// Applies one depth change and publishes the new depth.
    fn step(&mut self, m: &mut Metrics, at: SimTime, op: fn(&mut QueueProbe, SimTime) -> u64) {
        let depth = op(&mut self.probe, at);
        m.gauge_set(self.gauge, at, depth as f64);
    }
}

/// The core profiler's runtime state: the per-core tiler, park
/// bookkeeping, and one [`Probed`] per instrumented queue.
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
    ingress: Probed,
    /// Empty on single-dispatcher runs.
    dispatcher_ingress: Vec<Probed>,
    runnable: Vec<Probed>,
    /// Per-shard NIC send-queue occupancy (all QPs on the rail),
    /// tracked mode: residence is known analytically at post time.
    sq: Vec<Probed>,
    writeback: Vec<Probed>,
}

impl ProfPlane {
    /// The gap state of an idling worker: `Park` while yielded
    /// unithreads are outstanding on it, plain `Idle` otherwise.
    fn idle_gap(&mut self, w: usize) {
        let gap = if self.parked[w] > 0 {
            CoreState::Park
        } else {
            CoreState::Idle
        };
        self.cores.set_gap(self.wbase + w, gap);
    }

    /// A work request took a slot on `shard`'s send queue at `at`.
    fn sq_post(&mut self, m: &mut Metrics, shard: usize, at: SimTime, c: &Completion) {
        self.sq[shard].step(m, at, QueueProbe::inc);
        self.sq[shard].probe.wait(at, c.slot_residence(at));
    }
}

/// The span layer: the store plus the tree under construction for each
/// live request slot.
struct SpanPlane {
    store: SpanStore,
    live: Vec<Option<SpanBuilder>>,
}

/// The memory observatory: the bounded-memory attribution/heat core
/// plus the registry handles its window rollovers publish into.
struct MemPlane {
    obs: MemObservatory,
    /// Previous page each live request slot touched (stride
    /// fingerprint).
    last_page: Vec<Option<u64>>,
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

/// Every measurement of one run (see the module docs for the contract).
pub struct Observer {
    /// Which per-event planes are on: resolved once at construction so
    /// a hook rejects the ones it feeds with one integer test.
    mask: u8,
    w_start: SimTime,
    w_end: SimTime,
    /// Worker busy-wait ns inside the window: fetch spins, reply-TX
    /// spins and QP-full pauses, each clamped to `[w_start, w_end)`.
    /// With the profiler on it equals the workers' `Spin + TxWait`
    /// tiling exactly (asserted in [`Observer::finish`]).
    spin_ns: u64,
    recorder: Recorder,
    metrics: Metrics,
    /// The window's edges and, once it closed, the frozen registry.
    opened: Option<WindowEdge>,
    closed: Option<(WindowEdge, MetricsSnapshot)>,
    ids: Ids,
    /// Empty on single-shard runs.
    shard_ids: Vec<ShardIds>,
    /// Empty on single-dispatcher runs.
    dispatcher_ids: Vec<DispatcherIds>,
    /// Dispatcher-utilization gauge of single-dispatcher runs,
    /// registered when telemetry or the profiler is on (the
    /// window-aggregate gauge value in the metrics snapshot is
    /// time-weighted and therefore *is* the busy fraction; per-tick
    /// telemetry series sample the instantaneous 0/1 level).
    dispatcher_busy: Option<GaugeId>,
    /// `tenantN.*` counters, indexed by [`TenantEvent`]; empty on
    /// single-tenant planes.
    tenant_ids: Vec<[CounterId; 5]>,
    /// One per tenant of the plane; empty when the plane is off.
    tenant_acct: Vec<TenantAcct>,
    tenant_specs: Vec<TenantSpec>,
    /// Per-shard demand-fetch latency over the measurement window.
    shard_fetch_ns: Vec<Histogram>,
    shard_map: ShardMap,
    ring: Option<RingTracer>,
    spans: Option<SpanPlane>,
    prof: Option<ProfPlane>,
    mem: Option<MemPlane>,
    telem: Option<TelemBridge>,
}

impl Observer {
    // ----- plumbing -------------------------------------------------------

    #[inline]
    fn in_window(&self, t: SimTime) -> bool {
        t >= self.w_start && t < self.w_end
    }

    #[inline]
    fn trace(&mut self, at: SimTime, code: TraceCode, a: u64, b: u64) {
        if let Some(ring) = &mut self.ring {
            ring.emit(at, code, a, b);
        }
    }

    /// The span tree of live request slot `id`, when the layer is on.
    #[inline]
    fn span(&mut self, id: usize) -> Option<&mut SpanBuilder> {
        self.spans.as_mut()?.live[id].as_mut()
    }

    /// Closes worker `w`'s interval `[cursor, until]` as `state`.
    #[inline]
    fn tile(&mut self, w: usize, state: CoreState, until: SimTime) {
        if let Some(p) = &mut self.prof {
            p.cores.phase(p.wbase + w, state, until);
        }
    }

    /// Bumps a fetch-chain run total and, on sharded runs, its
    /// `shardN.*` twin.
    #[inline]
    fn chain_add(&mut self, shard: usize, pick: fn(&ChainIds) -> CounterId, n: u64) {
        self.metrics.add(pick(&self.ids.chain), n);
        if let Some(ids) = self.shard_ids.get(shard) {
            self.metrics.add(pick(&ids.chain), n);
        }
    }

    /// Books worker `w`'s busy-wait over `[from, to]`: the trace event
    /// at `at`, and the part inside the window into the spin tally.
    #[inline]
    fn book_spin(&mut self, at: SimTime, w: usize, from: SimTime, to: SimTime) {
        let ns = to.saturating_since(from).as_nanos();
        self.trace(at, code::WORKER_SPIN, w as u64, ns);
        let (a, b) = (from.max(self.w_start), to.min(self.w_end));
        self.spin_ns += b.saturating_since(a).as_nanos();
    }

    /// Publishes the QP-occupancy gauges after a post or a CQE on
    /// `shard`'s rail: `total` work requests are outstanding run-wide,
    /// `on_rail` of them on that rail (the per-shard gauge exists on
    /// sharded runs only).
    #[inline]
    fn qp_gauges(&mut self, at: SimTime, shard: usize, total: u32, on_rail: u32) {
        self.metrics
            .gauge_set(self.ids.qp_outstanding, at, total as f64);
        if let Some(ids) = self.shard_ids.get(shard) {
            self.metrics
                .gauge_set(ids.qp_outstanding, at, on_rail as f64);
        }
    }

    /// Books one tenant-plane outcome: the tenant's registry counter
    /// (multi-tenant planes only), its window accounting, and — for
    /// arrivals and sheds — its telemetry tally. Arrivals, sheds and
    /// drops window on the TX instant; completions on the reply RX
    /// instant. One length test when the plane is off.
    #[inline]
    fn tenant(&mut self, tenant: u16, ev: TenantEvent, at: SimTime, latency_ns: u64) {
        let t = tenant as usize;
        if t >= self.tenant_acct.len() {
            return;
        }
        if let Some(ids) = self.tenant_ids.get(t) {
            self.metrics.inc(ids[ev as usize]);
        }
        if let Some(b) = &mut self.telem {
            b.tenant(t, ev == TenantEvent::Arrival, ev == TenantEvent::Shed);
        }
        if self.in_window(at) {
            let acct = &mut self.tenant_acct[t];
            acct.counts[ev as usize] += 1;
            if ev == TenantEvent::Completion {
                acct.latency.record(latency_ns);
            }
        }
    }

    // ----- ingress.rs -----------------------------------------------------

    /// Request slot `slot` was (re)allocated.
    #[inline]
    pub fn request_created(&mut self, slot: usize, class: u16, tx: SimTime) {
        if let Some(sp) = &mut self.spans {
            if sp.live.len() <= slot {
                sp.live.resize_with(slot + 1, || None);
            }
            sp.live[slot] = Some(sp.store.builder(class, tx));
        }
        if let Some(mp) = &mut self.mem {
            if mp.last_page.len() <= slot {
                mp.last_page.resize(slot + 1, None);
            }
            mp.last_page[slot] = None;
        }
    }

    /// Request `id` reached the node's RX path; `episode` is the fault
    /// plane's episode state when it is armed.
    #[inline]
    pub fn arrived(
        &mut self,
        now: SimTime,
        id: usize,
        r: &Req,
        depth: usize,
        episode: Option<bool>,
    ) {
        self.metrics
            .gauge_set(self.ids.queue_depth, now, depth as f64);
        if let Some(active) = episode {
            self.metrics
                .gauge_set(self.ids.fault_episode_active, now, active as u64 as f64);
        }
        self.trace(now, code::DISPATCH_ARRIVAL, id as u64, depth as u64);
        // Request flight + RX path: tx_time → delivery.
        if let Some(sb) = self.span(id) {
            sb.phase(stage::NET, now);
        }
        self.tenant(r.tenant, TenantEvent::Arrival, r.tx_time, 0);
    }

    /// Request `id` left the node without a reply. Shed and dropped
    /// requests never enter a latency histogram but stay in the
    /// offered-load accounting.
    pub fn dropped(&mut self, now: SimTime, id: usize, r: &Req, why: Retire) {
        self.recorder.drop_request(r.tx_time);
        if let Some(sp) = &mut self.spans {
            if let Some(b) = sp.live[id].take() {
                sp.store.discard(b);
            }
        }
        let outcome = match why {
            Retire::Shed => TenantEvent::Shed,
            _ => {
                self.metrics.inc(self.ids.drops);
                TenantEvent::Drop
            }
        };
        if let Retire::AbortedSpinning { .. } | Retire::AbortedParked = why {
            self.metrics.inc(self.ids.fetch_aborts);
        }
        self.tenant(r.tenant, outcome, r.tx_time, 0);
        let id = id as u64;
        match why {
            Retire::Overflow { queue } => self.trace(now, code::DISPATCH_DROP, id, queue as u64),
            Retire::Shed => self.trace(now, code::DISPATCH_SHED, id, r.tenant as u64),
            Retire::AbortedSpinning { worker } => {
                self.trace(now, code::FAULT_ABORT, worker as u64, id)
            }
            // The `fetch_failed` event already covers every parked waiter.
            Retire::AbortedParked => {}
        }
    }

    pub fn dispatcher_stole(&mut self, now: SimTime, thief: usize, home: usize) {
        if let Some(ids) = self.dispatcher_ids.get(thief) {
            self.metrics.inc(ids.steals);
        }
        self.trace(now, code::DISPATCH_STEAL, thief as u64, home as u64);
    }

    pub fn dispatcher_combined(&mut self, leader: usize) {
        if let Some(ids) = self.dispatcher_ids.get(leader) {
            self.metrics.inc(ids.combines);
        }
    }

    /// Dispatcher core `d` is busy with `op` over `[start, end]`. The
    /// 1 → 0 gauge edges integrate to the true busy fraction in the
    /// window aggregate because per-core intervals are monotone.
    #[inline]
    pub fn dispatcher_charged(&mut self, d: usize, op: DispatchOp, start: SimTime, end: SimTime) {
        let busy = match self.dispatcher_ids.get(d) {
            Some(ids) => {
                if op == DispatchOp::Admit {
                    self.metrics.inc(ids.admitted);
                }
                ids.busy
            }
            None => self.dispatcher_busy,
        };
        if let Some(g) = busy {
            self.metrics.gauge_set(g, start, 1.0);
            self.metrics.gauge_set(g, end, 0.0);
        }
        if let Some(p) = &mut self.prof {
            let state = match op {
                DispatchOp::Admit | DispatchOp::Recycle => CoreState::Dispatch,
                DispatchOp::PushHandoff | DispatchOp::PullHandoff => CoreState::Handoff,
            };
            p.cores.flush(d, start);
            p.cores.phase(d, state, end);
        }
    }

    /// Request `id` was admitted into the central queue; `serving`
    /// names the dispatcher on multi-dispatcher machines.
    #[inline]
    pub fn admitted(&mut self, now: SimTime, id: usize, r: &Req, serving: Option<usize>) {
        self.queue(
            Queue::DispatcherIngress(r.ingress_slot as usize),
            now,
            false,
        );
        // Dispatcher admission work: delivery → admit.
        if let Some(sb) = self.span(id) {
            sb.phase(stage::DISPATCH, now);
        }
        self.tenant(r.tenant, TenantEvent::Admitted, r.tx_time, 0);
        if let Some(d) = serving {
            self.trace(now, code::DISPATCH_ADMIT, id as u64, d as u64);
        }
    }

    /// Steered straight into a per-worker queue.
    pub fn admitted_local(&mut self, r: &Req) {
        self.tenant(r.tenant, TenantEvent::Admitted, r.tx_time, 0);
    }

    /// An element entered (`enter`) or left a FIFO queue at `at`.
    #[inline]
    pub fn queue(&mut self, q: Queue, at: SimTime, enter: bool) {
        let Some(p) = &mut self.prof else { return };
        let probed = match q {
            Queue::Ingress => Some(&mut p.ingress),
            Queue::DispatcherIngress(d) => p.dispatcher_ingress.get_mut(d),
            Queue::Runnable(w) => p.runnable.get_mut(w),
            Queue::Writeback(s) => p.writeback.get_mut(s),
        };
        if let Some(probed) = probed {
            let op = if enter {
                QueueProbe::enqueue
            } else {
                QueueProbe::dequeue
            };
            probed.step(&mut self.metrics, at, op);
        }
    }

    // ----- worker.rs ------------------------------------------------------

    /// Request `id` will start on worker `w` at `until`, after a
    /// handoff that occupies the worker from `from` (it idles until
    /// then).
    #[inline]
    pub fn handed_off(
        &mut self,
        now: SimTime,
        w: usize,
        id: usize,
        how: Handoff,
        from: SimTime,
        until: SimTime,
    ) {
        match how {
            Handoff::Pushed | Handoff::Local => {
                self.metrics.inc(self.ids.dispatches);
                let code = match how {
                    Handoff::Local => code::DISPATCH_ASSIGN_LOCAL,
                    _ => code::DISPATCH_ASSIGN,
                };
                self.trace(now, code, id as u64, w as u64);
            }
            Handoff::Stolen { victim } => {
                self.metrics.inc(self.ids.steals);
                self.trace(now, code::WORKER_STEAL, w as u64, victim as u64);
            }
            Handoff::Pulled => {}
        }
        if let Some(p) = &mut self.prof {
            p.cores.flush(p.wbase + w, from);
            p.cores.phase(p.wbase + w, CoreState::Handoff, until);
        }
    }

    /// Worker `w` wakes at `now` to continue `cont`: its open gap
    /// (idle/park/stall) closes — for wakes whose phases were accrued
    /// at issue time (busy-wait spins, handoffs) the cursor is already
    /// at `now` and the flush is a no-op. The wake's preamble of
    /// handler work (request setup on a first start, the page map on a
    /// resume or after a spin) runs until `work_until`, the unithread
    /// switch-in after it until `switched_in`; `fetch_done` is when a
    /// resuming request's fetch completed.
    #[inline]
    pub fn woke(
        &mut self,
        now: SimTime,
        w: usize,
        cont: Cont,
        fetch_done: SimTime,
        work_until: Option<SimTime>,
        switched_in: Option<SimTime>,
    ) {
        if self.mask & (TRACE | SPANS | PROFILE) == 0 {
            return;
        }
        let (code, id) = match cont {
            Cont::Start { req } => (code::WORKER_SEG_START, req),
            Cont::Resume { req } | Cont::Refault { req } => (code::WORKER_SEG_RESUME, req),
            Cont::AfterBusyWait { req } => (code::WORKER_SEG_AFTER_SPIN, req),
            Cont::RetryFault { req } => (code::WORKER_SEG_RETRY, req),
            // Only a dead chain's wake gets here.
            Cont::AfterErrorCqe { req } => (code::WORKER_SEG_ABORT, req),
        };
        self.trace(now, code, w as u64, id as u64);
        if let Some(p) = &mut self.prof {
            p.cores.flush(p.wbase + w, now);
        }
        if let Some(sb) = self.span(id) {
            match cont {
                // Time spent queued (admit → start, or preempt →
                // restart), then a new execution segment.
                Cont::Start { .. } => {
                    sb.phase(stage::QUEUE, now);
                    sb.begin_segment(now, w);
                }
                // Fetch wall time is the fault's wait; runnable time
                // past completion is queueing. Only a mapped page closes
                // the fault: a refault's re-entered fault continues it.
                Cont::Resume { .. } | Cont::Refault { .. } => {
                    sb.phase(stage::FETCH_WAIT, fetch_done);
                    sb.phase(stage::QUEUE, now);
                    if let Cont::Resume { .. } = cont {
                        sb.end_fault(now);
                    }
                    sb.begin_segment(now, w);
                }
                // Spin residue (wake can trail the CQE), then the fault
                // closes with the page map.
                Cont::AfterBusyWait { .. } => {
                    sb.phase(stage::SPIN, now);
                    sb.end_fault(work_until.unwrap_or(now));
                }
                // A frame, QP-slot or failed-prefetch wait ended; an
                // open fault span is kept — the retry continues it.
                Cont::RetryFault { .. } => sb.phase(stage::QUEUE, now),
                Cont::AfterErrorCqe { .. } => {}
            }
            if let Some(t) = work_until {
                sb.phase(stage::HANDLE, t);
            }
            if let Some(t) = switched_in {
                sb.phase(stage::CTX, t);
            }
        }
        if let Some(t) = work_until {
            self.tile(w, CoreState::Work, t);
        }
        if let Some(t) = switched_in {
            self.tile(w, CoreState::CtxSwitch, t);
        }
    }

    /// The preemption probe fired at `t`; the context is saved by
    /// `saved`.
    pub fn preempted(&mut self, t: SimTime, w: usize, id: usize, saved: SimTime) {
        self.metrics.inc(self.ids.preemptions);
        self.trace(t, code::WORKER_PREEMPT, w as u64, id as u64);
        if let Some(sb) = self.span(id) {
            sb.phase(stage::HANDLE, t);
            sb.phase(stage::CTX, saved);
            sb.end_segment(saved);
        }
        self.tile(w, CoreState::CtxSwitch, saved);
    }

    /// Kernel interference descheduled request `id` over `[from,
    /// until]`: compute so far is flushed and the stall attributed to
    /// queueing. (The core view folds the stall into `Work`: the core
    /// is occupied either way.)
    pub fn kernel_stalled(&mut self, id: usize, from: SimTime, until: SimTime) {
        if let Some(sb) = self.span(id) {
            sb.phase(stage::HANDLE, from);
            sb.phase(stage::QUEUE, until);
        }
    }

    #[inline]
    pub fn computed(&mut self, w: usize, t: SimTime) {
        self.tile(w, CoreState::Work, t);
    }

    /// Request `id` completed a demand access to `page` at `t`: heat
    /// sketch, working set, heatmap, shard touch and stride fingerprint
    /// — and, when `classify`, a tracked prefetch of `page` resolves
    /// as a *hit* (the line was already resident when demand reached
    /// it). Window rollovers publish fresh gauge values.
    #[inline]
    pub fn touched(&mut self, id: usize, page: u64, t: SimTime, classify: bool) {
        let Some(mp) = &mut self.mem else { return };
        let delta = mp.last_page[id]
            .replace(page)
            .map(|last| page as i64 - last as i64);
        if classify {
            mp.obs.classify_hit(page);
        }
        let shard = self.shard_map.shard_of(page);
        if mp.obs.on_touch(page, shard, t.as_nanos(), delta) {
            let m = &mut self.metrics;
            m.gauge_set(mp.ws_pages, t, mp.obs.ws_last() as f64);
            m.gauge_set(mp.heat_skew, t, mp.obs.heat_skew());
            m.gauge_set(mp.hit_rate, t, mp.obs.hit_rate());
            for (s, g) in mp.heat_share.iter().enumerate() {
                m.gauge_set(*g, t, mp.obs.shard_share(s));
            }
            let dropped = mp.obs.dropped();
            m.add(mp.obs_dropped, dropped - mp.dropped_synced);
            mp.dropped_synced = dropped;
        }
    }

    /// Request `id` yielded at `t`: switched out by `switched`, and the
    /// worker has polled its CQ by `polled`.
    #[inline]
    pub fn parked(&mut self, w: usize, id: usize, t: SimTime, switched: SimTime, polled: SimTime) {
        if let Some(sb) = self.span(id) {
            sb.phase(stage::HANDLE, t);
            sb.phase(stage::CTX, switched);
            sb.end_segment(switched);
        }
        if let Some(p) = &mut self.prof {
            p.cores.phase(p.wbase + w, CoreState::CtxSwitch, polled);
            p.parked[w] += 1;
        }
    }

    /// A parked unithread on worker `w` left the parked set at `now`
    /// (became runnable, or was dropped by a failed fetch). If the
    /// worker is idling, its gap so far was `Park`; the gap state is
    /// re-derived from the remaining parked count.
    #[inline]
    pub fn unparked(&mut self, w: usize, now: SimTime, idle: bool) {
        if let Some(p) = &mut self.prof {
            p.parked[w] -= 1;
            if idle {
                p.cores.flush(p.wbase + w, now);
                p.idle_gap(w);
            }
        }
    }

    #[inline]
    pub fn went_idle(&mut self, w: usize) {
        if let Some(p) = &mut self.prof {
            p.idle_gap(w);
        }
    }

    /// Worker `w` busy-waits on a fetch over `[t, until]`.
    pub fn spun(&mut self, w: usize, id: usize, t: SimTime, until: SimTime) {
        self.book_spin(t, w, t, until);
        if let Some(sb) = self.span(id) {
            sb.phase(stage::HANDLE, t);
            sb.phase(stage::SPIN, until);
        }
        self.tile(w, CoreState::Spin, until);
    }

    /// Request `id` ran to its end at `t`: the reply is built by
    /// `built` and (yield policy) the unithread switched out by
    /// `switched`.
    #[inline]
    pub fn replied(
        &mut self,
        w: usize,
        id: usize,
        t: SimTime,
        built: SimTime,
        switched: Option<SimTime>,
    ) {
        if self.mask & (SPANS | PROFILE) == 0 {
            return;
        }
        if let Some(sb) = self.span(id) {
            sb.phase(stage::HANDLE, t);
            sb.phase(stage::REPLY, built);
            if let Some(t) = switched {
                sb.phase(stage::CTX, t);
            }
        }
        self.tile(w, CoreState::Work, built);
        if let Some(t) = switched {
            self.tile(w, CoreState::CtxSwitch, t);
        }
    }

    /// Request `id`'s reply, posted by worker `w` at `t`, raises its TX
    /// CQE at `cqe_at` and reaches the client at `client_rx_at`; the
    /// worker spins for the CQE when `spins` (no polling delegation).
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn completed(
        &mut self,
        t: SimTime,
        w: usize,
        id: usize,
        r: &Req,
        cqe_at: SimTime,
        client_rx_at: SimTime,
        spins: bool,
    ) {
        let mut done = t;
        if spins {
            // The spin can outlast the client's receive instant (CQE
            // raise vs. wire propagation); the tail past `client_rx_at`
            // is not part of the request's latency, so the span is
            // clamped to it.
            if let Some(sb) = self.span(id) {
                sb.phase(stage::TX_WAIT, cqe_at.min(client_rx_at));
            }
            done = cqe_at.max(t);
            self.tile(w, CoreState::TxWait, done);
            self.book_spin(t, w, t, cqe_at);
        }
        // Close the tree (reply flight to the client is the final NET
        // phase) and derive the breakdown from its critical path. A
        // segment re-dispatched onto a lagging worker clock can leave
        // the span cursor a few tens of ns past `client_rx_at` (the
        // bounded virtual-time skew documented in the `sim` module
        // docs); the completion instant is the later of the two so the
        // attribution always tiles the recorded end-to-end latency.
        let mut rx = client_rx_at;
        let mut breakdown = Breakdown::default();
        if let Some(sp) = &mut self.spans {
            if let Some(mut sb) = sp.live[id].take() {
                rx = rx.max(sb.cursor());
                sb.end_segment(done.min(rx));
                sb.phase(stage::NET, rx);
                let in_window = rx >= self.w_start && rx < self.w_end;
                breakdown = Breakdown::from_critical_path(&sp.store.complete(sb, rx, in_window));
            }
        }
        let latency = rx.saturating_since(r.tx_time);
        if let Some(b) = &mut self.telem {
            b.rec.on_completion(latency);
        }
        self.recorder
            .complete(r.trace.class, r.tx_time, rx, breakdown);
        self.metrics.inc(self.ids.completions);
        self.tenant(r.tenant, TenantEvent::Completion, rx, latency.as_nanos());
        self.trace(done, code::WORKER_COMPLETE, w as u64, id as u64);
    }

    // ----- fetch.rs -------------------------------------------------------

    /// Request `id`'s access to `page` at `t` coalesced onto an
    /// in-flight fetch completing at `done_at`. Against a tracked
    /// prefetch: a line that arrived before use is a *hit*, a
    /// still-flying healthy line is *late* (the head start since issue
    /// is credited as saved latency), and a failed line is left for
    /// the completion path to classify wasted.
    pub fn coalesced(&mut self, t: SimTime, id: usize, page: u64, done_at: SimTime, failed: bool) {
        self.metrics.inc(self.ids.coalesced);
        self.trace(t, code::FAULT_COALESCE, id as u64, page);
        if let Some(mp) = &mut self.mem {
            if done_at <= t {
                mp.obs.classify_hit(page);
            } else if !failed {
                mp.obs.classify_late(page, t.as_nanos());
            }
        }
    }

    /// Request `id` faulted on `page` at `t`; the handler is entered by
    /// `entered`. The fault span is re-entrant: a retry continues the
    /// fault it opened.
    #[inline]
    pub fn fault_began(&mut self, t: SimTime, id: usize, page: u64, entered: SimTime) {
        if let Some(sb) = self.span(id) {
            sb.phase(stage::HANDLE, t);
            sb.begin_fault(t, page);
        }
        self.trace(entered, code::FAULT_MISS, id as u64, page);
    }

    pub fn direct_reclaimed(&mut self, t: SimTime, victim: u64, dirty: bool) {
        self.metrics.inc(self.ids.direct_reclaims);
        self.trace(t, code::RECLAIM_DIRECT, victim, dirty as u64);
        self.evicted(victim);
    }

    /// `page` left the cache (eviction, reservation cancel): a tracked
    /// never-consumed prefetch of it is *wasted*.
    #[inline]
    pub fn evicted(&mut self, page: u64) {
        if let Some(mp) = &mut self.mem {
            mp.obs.classify_wasted(page);
        }
    }

    /// Request `id`'s fault handler pauses on worker `w` at `t`: the
    /// handler work so far is flushed and the pause tiles as `gap`,
    /// closed by the retry wake.
    fn handler_paused(&mut self, w: usize, id: usize, t: SimTime, gap: CoreState) {
        if let Some(sb) = self.span(id) {
            sb.phase(stage::HANDLE, t);
        }
        if let Some(p) = &mut self.prof {
            p.cores.phase(p.wbase + w, CoreState::Work, t);
            p.cores.set_gap(p.wbase + w, gap);
        }
    }

    /// Every frame is in flight: request `id`'s fault waits on worker
    /// `w` from `t` for its retry. The wait tiles as `FetchWait` and is
    /// not busy-waiting.
    pub fn frame_wait(&mut self, w: usize, id: usize, t: SimTime) {
        self.handler_paused(w, id, t, CoreState::FetchWait);
    }

    /// Request `id`'s fault on `page` found worker `w`'s QP full at
    /// `t`: the handler holds the core until a CQE frees a slot
    /// (§5.2), so the pause tiles as `Spin` ([`Observer::qp_stall_ended`]
    /// books it and emits the QP_STALL phase then).
    pub fn qp_stalled(&mut self, w: usize, id: usize, t: SimTime, page: u64) {
        self.metrics.inc(self.ids.qp_stalls);
        self.metrics.inc(self.ids.qp_full_retries);
        self.trace(t, code::FAULT_QP_STALL, w as u64, page);
        self.handler_paused(w, id, t, CoreState::Spin);
    }

    /// A CQE freed a slot for the fault paused on worker `w`'s full QP
    /// since `since`.
    pub fn qp_stall_ended(&mut self, now: SimTime, w: usize, id: usize, since: SimTime) {
        if let Some(sb) = self.span(id) {
            sb.phase(stage::QP_STALL, now);
        }
        self.book_spin(now, w, since, now);
    }

    /// The fault handler finished issuing a demand fetch at `t`
    /// (`total` / `on_rail` as in [`Observer::qp_gauges`]).
    #[inline]
    pub fn fetch_issued(&mut self, w: usize, t: SimTime, shard: usize, total: u32, on_rail: u32) {
        self.tile(w, CoreState::Work, t);
        self.qp_gauges(t, shard, total, on_rail);
    }

    /// A READ was posted at `at` on `shard`'s rail for a chain that
    /// worker QP `origin` started: one send-queue slot is taken for the
    /// completion's residence, and telemetry attributes the attempt to
    /// the originating QP (even after failover) and to the rail.
    #[inline]
    fn read_posted(&mut self, shard: usize, origin: QpId, at: SimTime, c: &Completion) {
        if let Some(p) = &mut self.prof {
            p.sq_post(&mut self.metrics, shard, at, c);
        }
        if let Some(ids) = self.shard_ids.get(shard) {
            self.metrics.inc(ids.fetches);
        }
        if let Some(b) = &mut self.telem {
            b.fetch(shard, origin, c);
        }
    }

    /// One attempt of request `id`'s demand-fetch chain for `page` was
    /// posted at `at` (the chain's first post was at `post_at`, on
    /// worker QP `origin`); `failover` marks an attempt posted when its
    /// predecessor's error CQE surfaced.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn demand_posted(
        &mut self,
        id: usize,
        shard: usize,
        origin: QpId,
        page: u64,
        at: SimTime,
        post_at: SimTime,
        c: &Completion,
        failover: bool,
    ) {
        self.read_posted(shard, origin, at, c);
        if failover {
            self.chain_add(shard, |i| i.failovers, 1);
        }
        let retransmits = c.retransmits as u64;
        if retransmits > 0 {
            self.chain_add(shard, |i| i.retransmits, retransmits);
            self.trace(c.wire_start, code::FAULT_RETRANSMIT, id as u64, retransmits);
        }
        if let Some(sb) = self.span(id) {
            let qp = shard_qp(shard as u64, c.qp.0 as u64);
            sb.fetch_with_retrans(
                at,
                c.issued_at,
                c.wire_start,
                c.done_at,
                page,
                qp,
                c.retransmits,
            );
        }
        if !c.is_error() && self.in_window(c.done_at) {
            self.shard_fetch_ns[shard].record(c.done_at.saturating_since(post_at).as_nanos());
        }
    }

    /// An attempt of request `id`'s chain surfaced an error CQE at
    /// `at`. The chain fails over to memnode `next.0` as attempt
    /// `next.1`, or — its attempt budget spent — fails.
    pub fn attempt_failed(
        &mut self,
        at: SimTime,
        id: usize,
        shard: usize,
        page: u64,
        next: Option<(u64, u32)>,
    ) {
        self.chain_add(shard, |i| i.cqe_errors, 1);
        self.trace(at, code::FAULT_FETCH_ERROR, id as u64, page);
        match next {
            None => self.chain_add(shard, |i| i.chain_failures, 1),
            Some((node, attempt)) => {
                self.trace(at, code::FAULT_FAILOVER, node, attempt as u64);
                if let Some(sb) = self.span(id) {
                    sb.failover(at, node, attempt as u64);
                }
            }
        }
    }

    /// The chain died at `at`: the failover QP was full.
    pub fn chain_cut(&mut self, at: SimTime, id: usize, shard: usize, page: u64) {
        self.metrics.inc(self.ids.qp_full_retries);
        self.chain_add(shard, |i| i.chain_failures, 1);
        self.trace(at, code::FAULT_CHAIN_FAIL, id as u64, page);
    }

    /// A prefetch of `page` (triggered by a fault on `trigger`) was
    /// posted.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn prefetch_posted(
        &mut self,
        t: SimTime,
        trigger: u64,
        page: u64,
        shard: usize,
        qp: QpId,
        class: PrefetchClass,
        c: &Completion,
    ) {
        self.read_posted(shard, qp, t, c);
        self.metrics.inc(self.ids.prefetches);
        if c.is_error() {
            self.metrics.inc(self.ids.prefetch_errors);
        }
        if let Some(mp) = &mut self.mem {
            mp.obs.on_prefetch_issued(page, class, t.as_nanos());
        }
        self.trace(t, code::FAULT_PREFETCH, trigger, page);
    }

    /// QP full: the prefetch was dropped.
    pub fn prefetch_refused(&mut self) {
        self.metrics.inc(self.ids.qp_full_retries);
    }

    /// A CQE was consumed, freeing its send-queue slot on the rail
    /// (`total` / `on_rail` as in [`Observer::qp_gauges`]).
    #[inline]
    pub fn cqe_consumed(
        &mut self,
        now: SimTime,
        shard: usize,
        total: u32,
        on_rail: u32,
        what: Cqe,
    ) {
        if let Some(p) = &mut self.prof {
            p.sq[shard].step(&mut self.metrics, now, QueueProbe::dec);
        }
        self.qp_gauges(now, shard, total, on_rail);
        match what {
            Cqe::Fetch { worker, page } => {
                self.trace(now, code::NIC_FETCH_DONE, worker as u64, page)
            }
            Cqe::Retire { qp } => self.trace(now, code::NIC_CQE_RETIRE, qp.0 as u64, shard as u64),
            Cqe::Write => {}
        }
    }

    /// The fetch of `page` issued by worker `w` completed in error: the
    /// page never arrived, so a tracked prefetch of it is wasted.
    pub fn fetch_failed(&mut self, now: SimTime, w: usize, page: u64) {
        self.evicted(page);
        self.trace(now, code::FAULT_FETCH_FAILED, w as u64, page);
    }

    /// The live fetch of `page` completed: a tracked prefetch's line
    /// has arrived.
    #[inline]
    pub fn fetch_arrived(&mut self, page: u64) {
        if let Some(mp) = &mut self.mem {
            mp.obs.on_prefetch_arrived(page);
        }
    }

    // ----- reclaim.rs -----------------------------------------------------

    pub fn reclaim_ticked(&mut self, now: SimTime, evicted: usize, free: usize) {
        self.metrics.inc(self.ids.reclaim_ticks);
        self.trace(now, code::RECLAIM_TICK, evicted as u64, free as u64);
    }

    pub fn writeback_posted(&mut self, now: SimTime, shard: usize, page: u64, c: &Completion) {
        if let Some(p) = &mut self.prof {
            p.sq_post(&mut self.metrics, shard, now, c);
        }
        self.metrics.inc(self.ids.writebacks);
        if c.is_error() {
            self.metrics.inc(self.ids.writeback_errors);
        }
        self.trace(now, code::RECLAIM_WRITEBACK, page, 0);
    }

    /// The write-back QP was full: the page joins the deferred queue.
    pub fn writeback_deferred(&mut self, now: SimTime, shard: usize) {
        self.metrics.inc(self.ids.qp_full_retries);
        self.queue(Queue::Writeback(shard), now, true);
    }
}
