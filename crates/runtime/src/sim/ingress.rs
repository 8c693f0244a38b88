//! Ingress: the arrival source, request slots, tenant admission, the
//! dispatcher cores' admission timelines and the central queues —
//! everything between the wire and `try_dispatch` (§3.1).

use desim::{SimDuration, SimTime};
use fabric::params::RX_RING_ENTRIES;
use loadgen::{BurstyLoop, OpenLoop, TenantMix, TenantPlane, TenantPriority};
use paging::trace::Trace;

use super::observe::Queue;
#[cfg(test)]
use super::DispatchCharge;
use super::{live, Detector, DispatchOp, Ev, Req, Retire, RunParams, Simulation};
use crate::config::{
    DispatchPolicy, QueueModel, COMBINING_BATCH, COMBINING_WINDOW, DISPATCH_COST, STEAL_COST,
};

/// The arrival source (Poisson, MMPP, or a merged multi-tenant mix).
pub(super) enum Arrivals {
    Poisson(OpenLoop),
    Bursty(BurstyLoop),
    Tenant(TenantMix),
}

impl Arrivals {
    /// The tenant mix when the plane is on (`Simulation::new` refuses
    /// [`RunParams::burst`] with it), else the single-source Poisson or
    /// MMPP stream.
    pub(super) fn new(params: &RunParams, mix: Option<TenantMix>) -> Arrivals {
        match (mix, params.burst) {
            (Some(mix), _) => Arrivals::Tenant(mix),
            (None, None) => Arrivals::Poisson(OpenLoop::new(params.offered_rps, params.seed)),
            (None, Some((peak, phase))) => Arrivals::Bursty(BurstyLoop::new(
                params.offered_rps,
                peak,
                phase,
                params.seed,
            )),
        }
    }

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

/// Tenant admission control at dispatcher ingress (present only when
/// [`RunParams::tenants`] is set). The per-tenant *accounting* lives in
/// the observer; this is the state admission decisions read.
pub(super) struct TenantAdmission {
    /// `true` for low-priority tenants (shed-eligible, served last).
    lo: Vec<bool>,
    /// Dispatcher-queue depth beyond which low-priority arrivals shed.
    shed_watermark: Option<usize>,
    /// Per-tenant admission buckets (None = no policing).
    buckets: Vec<Option<TokenBucket>>,
}

impl TenantAdmission {
    pub(super) fn new(plane: &TenantPlane) -> TenantAdmission {
        TenantAdmission {
            lo: plane
                .specs
                .iter()
                .map(|s| s.priority == TenantPriority::Low)
                .collect(),
            shed_watermark: plane.shed_watermark,
            buckets: plane
                .specs
                .iter()
                .map(|s| s.bucket_rps.map(|r| TokenBucket::new(r, s.bucket_burst)))
                .collect(),
        }
    }
}

/// Flat-combining state: the current combiner, its batch window's end,
/// members so far, and the end of the last admission charged under the
/// combiner lock (admissions stay globally FIFO — the combiner role is
/// exclusive, only its *cost* is amortised).
#[derive(Default)]
pub(super) struct Combiner {
    leader: usize,
    until: SimTime,
    count: usize,
    tail: SimTime,
}

impl Simulation<'_> {
    pub(super) fn schedule_next_arrival(&mut self) {
        let (tx, tenant) = self.arrivals.next_arrival();
        if tx >= self.measure_end {
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

    pub(super) fn alloc_req(&mut self, trace: Trace, tx: SimTime, tenant: u16) -> usize {
        let class = trace.class;
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
            fetch_posted: SimTime::ZERO,
            started: false,
            detector: Detector::new(self.cfg.prefetcher),
        };
        let slot = if let Some(slot) = self.free_reqs.pop() {
            self.reqs[slot] = Some(req);
            slot
        } else {
            self.reqs.push(Some(req));
            self.reqs.len() - 1
        };
        self.obs.request_created(slot, class, tx);
        slot
    }

    #[inline]
    pub(super) fn free_req(&mut self, id: usize) {
        // A second free would hand one slot to two live requests.
        let req = self.reqs[id].take().expect("request slot freed twice");
        // Bound the pool so a transient burst doesn't pin its
        // high-water mark of step buffers forever.
        if self.trace_pool.len() < 4_096 {
            self.trace_pool.push(req.trace);
        }
        self.free_reqs.push(id);
    }

    #[inline]
    pub(super) fn req(&mut self, id: usize) -> &mut Req {
        self.reqs[id].as_mut().expect("dangling request id")
    }

    /// Retires a request that leaves without a reply — overflow drop,
    /// admission shed or fetch-chain abort: the observer books the
    /// outcome, the slot is freed and conservation tallied.
    #[inline]
    pub(super) fn retire(&mut self, now: SimTime, req: usize, why: Retire) {
        let r = live(&self.reqs, req);
        self.obs.dropped(now, req, r, why);
        self.free_req(req);
        match why {
            Retire::Overflow { .. } => self.cons.drops += 1,
            Retire::Shed => self.cons.sheds += 1,
            Retire::AbortedSpinning { .. } | Retire::AbortedParked => self.cons.aborts += 1,
        }
    }

    /// Combined central-queue depth across both priority classes.
    #[inline]
    pub(super) fn pending_depth(&self) -> usize {
        self.pending.len() + self.pending_lo.len()
    }

    /// Whether `req` belongs to a low-priority tenant (never, with the
    /// plane off).
    #[inline]
    fn is_low_priority(&self, req: usize) -> bool {
        match &self.admission {
            Some(adm) => adm.lo[live(&self.reqs, req).tenant as usize],
            None => false,
        }
    }

    /// Enqueues an admitted (or preempted) request into its priority
    /// class's central queue at `at` (everything is high-priority with
    /// the plane off, so the legacy path never touches `pending_lo`).
    #[inline]
    pub(super) fn push_pending(&mut self, at: SimTime, req: usize) {
        self.obs.queue(Queue::Ingress, at, true);
        if self.is_low_priority(req) {
            self.pending_lo.push_back(req);
        } else {
            self.pending.push_back(req);
        }
    }

    /// Dequeues the next central-queue request at `at`: every queued
    /// high-priority request is served before any low-priority one.
    #[inline]
    pub(super) fn pop_pending(&mut self, at: SimTime) -> Option<usize> {
        let req = self
            .pending
            .pop_front()
            .or_else(|| self.pending_lo.pop_front())?;
        self.obs.queue(Queue::Ingress, at, false);
        Some(req)
    }

    /// Tenant admission at dispatcher ingress: the tenant's token
    /// bucket first, then the low-priority shed watermark. Returns
    /// `true` when the request was shed and fully retired here. Shed
    /// requests never enter a latency histogram but stay in the
    /// offered-load accounting; the explicit outcome is visible as
    /// `tenantN.sheds` counters, the `dispatch/shed` trace event and
    /// [`super::Conservation::sheds`].
    pub(super) fn tenant_admission(&mut self, now: SimTime, req: usize) -> bool {
        if self.admission.is_none() {
            return false;
        }
        // Watermark depth is the full dispatcher ingress picture:
        // requests waiting for their admit tick — summed over *every*
        // dispatcher's ingress slot, not just one — plus both central
        // queues. Under dispatcher-bound overload the backlog pools in
        // `admission_backlog` before it ever reaches `pending`, and on
        // scaled ingress planes it pools across all the slots at once;
        // counting a single slot would shed `dispatchers ×` too late.
        let depth = self.pending_depth() + self.admission_backlog.iter().sum::<usize>();
        let t = live(&self.reqs, req).tenant as usize;
        let Some(adm) = &mut self.admission else {
            return false;
        };
        let refused = match &mut adm.buckets[t] {
            Some(b) => !b.admit(now),
            None => false,
        };
        let shed = refused || (adm.lo[t] && adm.shed_watermark.is_some_and(|wm| depth >= wm));
        if shed {
            self.retire(now, req, Retire::Shed);
        }
        shed
    }

    /// Chooses the dispatcher core that admits an arrival steered to
    /// ingress slot `home` and charges the admission on its timeline,
    /// per [`DispatchPolicy`]. Returns the serving core and the end of
    /// the charge; the admit event fires then.
    fn admit_on_policy(&mut self, now: SimTime, home: usize) -> (usize, SimTime) {
        let admit_cost = DISPATCH_COST + self.cfg.client_stack;
        let ndisp = self.dispatcher_free.len();
        let (serve, cost) = match self.cfg.dispatch_policy {
            // The paper's design: one shared FCFS queue whose head is a
            // serialization point. Admissions run on core 0's timeline
            // no matter how many dispatcher cores exist — the sweep
            // measures exactly this cliff.
            DispatchPolicy::SingleFcfs => (0, admit_cost),
            DispatchPolicy::WorkStealing => {
                let thief = (0..ndisp)
                    .min_by_key(|&d| (self.dispatcher_free[d], d))
                    .expect("at least one dispatcher");
                // A steal pays only when the thief wins even after the
                // steal synchronization — except during an active fault
                // episode, where the margin is waived so siblings drain
                // a degraded dispatcher's slot as soon as they are
                // strictly earlier.
                let margin = if self.plane.active() && self.plane.episode_active(now) {
                    SimDuration::ZERO
                } else {
                    STEAL_COST
                };
                if thief != home
                    && self.dispatcher_free[thief] + margin < self.dispatcher_free[home]
                {
                    self.obs.dispatcher_stole(now, thief, home);
                    (thief, admit_cost + STEAL_COST)
                } else {
                    (home, admit_cost)
                }
            }
            DispatchPolicy::FlatCombining => {
                // A batch opener pays the full admission, joiners
                // inside its window a quarter of the dispatch cost (the
                // combiner's amortised slot scan).
                let fc = &mut self.combiner;
                let (serve, cost) = if now < fc.until && fc.count < COMBINING_BATCH {
                    fc.count += 1;
                    self.obs.dispatcher_combined(fc.leader);
                    let pass = SimDuration::from_nanos(DISPATCH_COST.as_nanos() / 4);
                    (fc.leader, pass + self.cfg.client_stack)
                } else {
                    fc.leader = home;
                    fc.until = now + COMBINING_WINDOW;
                    fc.count = 1;
                    (home, admit_cost)
                };
                // The combiner role is exclusive: admissions serialise
                // behind `tail` and stay globally FIFO; only the *cost*
                // is amortised.
                self.dispatcher_free[serve] = self.dispatcher_free[serve].max(fc.tail);
                let (_, end) = self.charge_dispatcher(serve, DispatchOp::Admit, now, cost);
                self.combiner.tail = end;
                return (serve, end);
            }
        };
        let (_, end) = self.charge_dispatcher(serve, DispatchOp::Admit, now, cost);
        (serve, end)
    }

    /// Charges `cost` of `op` work on dispatcher core `d`'s timeline,
    /// starting at `now` or the core's own high-water mark, whichever
    /// is later. Returns the charged `(start, end)`. Per-core intervals
    /// are monotone because every advance is `max`-clamped.
    #[inline]
    pub(super) fn charge_dispatcher(
        &mut self,
        d: usize,
        op: DispatchOp,
        now: SimTime,
        cost: SimDuration,
    ) -> (SimTime, SimTime) {
        let start = self.dispatcher_free[d].max(now);
        let end = start + cost;
        self.dispatcher_free[d] = end;
        self.obs.dispatcher_charged(d, op, start, end);
        #[cfg(test)]
        self.dispatcher_log.push(DispatchCharge {
            op,
            now,
            start,
            end,
            disp: d,
        });
        (start, end)
    }

    pub(super) fn on_arrival(&mut self, now: SimTime, req: usize) {
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
        let episode = self.plane.active().then(|| self.plane.episode_active(now));
        let r = live(&self.reqs, req);
        self.obs.arrived(now, req, r, depth, episode);
        // Tenant-plane ingress: token bucket + low-priority shed
        // watermark (branch-only when the plane is off).
        if self.tenant_admission(now, req) {
            return;
        }
        match self.cfg.queue_model {
            QueueModel::SingleQueue => {
                // Arrival fan-in: the NIC's RSS hash lands the packet in
                // one dispatcher's ingress slot (always slot 0 with one
                // dispatcher — the steer is a constant there).
                let home = self.fanin.steer();
                if self.admission_backlog[home] >= RX_RING_ENTRIES
                    || self.pending_depth() >= self.cfg.pending_cap
                {
                    self.retire(now, req, Retire::Overflow { queue: 0 });
                    return;
                }
                self.admission_backlog[home] += 1;
                self.obs.queue(Queue::DispatcherIngress(home), now, true);
                if self.admission.is_some() {
                    // Priority-split ingress: the admit tick below pops
                    // hi-first (see `on_admit`), so the `req` carried by
                    // the event is only the plane-off identity.
                    if self.is_low_priority(req) {
                        self.ingress_lo.push_back(req);
                    } else {
                        self.ingress_hi.push_back(req);
                    }
                }
                let (serve, end) = self.admit_on_policy(now, home);
                let r = self.req(req);
                r.disp = serve as u16;
                r.ingress_slot = home as u16;
                self.events.push(end, Ev::Admit { req });
            }
            QueueModel::PerWorker | QueueModel::PerWorkerStealing => {
                // RSS-style random steering straight into a worker queue.
                let w = self.rng.gen_range(self.cfg.workers as u64) as usize;
                let cap = (self.cfg.pending_cap / self.cfg.workers).max(16);
                if self.workers[w].local_queue.len() >= cap {
                    self.retire(now, req, Retire::Overflow { queue: w });
                    return;
                }
                self.workers[w].local_queue.push_back(req);
                self.obs.admitted_local(live(&self.reqs, req));
                self.try_run_local(now, w);
            }
        }
    }

    pub(super) fn on_admit(&mut self, now: SimTime, req: usize) {
        // With a tenant plane on, the admit tick serves the ingress
        // queues hi-first; the event's own `req` is one of the queued
        // entries (ticks and pushes are one-to-one), just not
        // necessarily the one admitted now.
        let req = if self.admission.is_some() {
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
        let r = live(&self.reqs, req);
        self.admission_backlog[r.ingress_slot as usize] -= 1;
        // The serving dispatcher is reported only on multi-dispatcher
        // machines, so the golden single-dispatcher byte streams stay
        // untouched.
        let serving = (self.dispatcher_free.len() > 1).then_some(r.disp as usize);
        self.obs.admitted(now, req, r, serving);
        self.push_pending(now, req);
        self.try_dispatch(now);
    }
}
