//! Page faults: coalescing onto in-flight fetches, the fault handler,
//! demand-fetch failover chains over the shard rails, prefetching, and
//! completion (CQE) handling.

use desim::{SimDuration, SimTime};
use fabric::nic::{Completion, Verb};
use fabric::{PostError, QpId};
use paging::observe::PrefetchClass;
use paging::prefetch::{LeapDetector, SeqDetector};
use paging::PageState;

use super::observe::Cqe;
use super::{Cont, Ev, Retire, Simulation};
use crate::config::{FaultPolicy, PrefetcherKind};

/// Per-request prefetch-pattern detector.
pub(super) enum Detector {
    None,
    Seq(SeqDetector),
    Leap(LeapDetector),
}

impl Detector {
    pub(super) fn new(kind: PrefetcherKind) -> Detector {
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

/// One fetch in flight: how its terminal completion resolves (see
/// `Simulation::issue_fetch`) and who is parked on it.
pub(super) struct Inflight {
    /// When the terminal completion becomes pollable.
    done_at: SimTime,
    /// QP whose CQE retires this fetch (the failover QP when the fetch
    /// chain migrated off the faulting worker's QP).
    qp: QpId,
    /// The terminal completion is an error: at `done_at` the page is
    /// still remote and every requester must abort.
    failed: bool,
    /// Yield-policy waiters (request ids) to resume on completion.
    pub(super) waiters: Waiters,
    /// Completion consumed early by a worker that caught up with it.
    completed_early: bool,
}

impl Inflight {
    fn new(qp: QpId, done_at: SimTime, failed: bool) -> Inflight {
        Inflight {
            done_at,
            qp,
            failed,
            waiters: Waiters::default(),
            completed_early: false,
        }
    }
}

/// The requests parked on one fetch, in park order. Nearly every fetch
/// parks exactly one (the faulting request), which is held inline; only
/// coalesced waiters go to the heap. The `Vec`'s niche keeps this the
/// size of the `Vec` it replaced, so [`Inflight`] does not grow.
#[derive(Default)]
pub(super) enum Waiters {
    #[default]
    None,
    One(usize),
    Many(Vec<usize>),
}

impl Waiters {
    pub(super) fn push(&mut self, req: usize) {
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

impl Simulation<'_> {
    /// Waits on an already-in-flight fetch. Returns `true` if the fetch
    /// had in fact completed by `t` (caller continues inline).
    pub(super) fn wait_on_inflight(&mut self, w: usize, req: usize, page: u64, t: SimTime) -> bool {
        let info = self.inflight.get_mut(&page).expect("in-flight page");
        let (done_at, failed) = (info.done_at, info.failed);
        // Demand raced an in-flight fetch (possibly a prefetch: arrived
        // lines classify hit, still-flying ones late).
        self.obs.coalesced(t, req, page, done_at, failed);
        if !failed && done_at <= t {
            // The completion predates our virtual time: consume it early.
            if !info.completed_early {
                info.completed_early = true;
                self.cache.complete_fetch(page);
            }
            return true;
        }
        // A failed fetch will surface an error CQE: the page never
        // arrives (it was never mapped, so early consumption is
        // impossible) and this request aborts too. Yielders park as
        // usual and are dropped when the error surfaces
        // (`on_fetch_done`); busy-waiters burn until the CQE and then
        // abort. On a healthy fetch, `FetchDone` at `done_at` was
        // scheduled earlier, so FIFO tie-breaking completes the page
        // before a busy-waiter's wake.
        match self.cfg.fault_policy {
            // Coalesced wait: the fetch belongs to another request.
            FaultPolicy::Yield => self.park(w, req, page, t),
            FaultPolicy::BusyWait | FaultPolicy::BusyWaitPreempt => {
                let cont = if failed {
                    Cont::AbortFault { req }
                } else {
                    Cont::AfterBusyWait { req }
                };
                self.busy_wait(w, req, t, done_at, cont);
            }
        }
        false
    }

    /// Handles a page fault: the request always blocks (parks, spins or
    /// waits to retry), so `execute` returns after this.
    pub(super) fn fault(&mut self, w: usize, req: usize, page: u64, mut t: SimTime) {
        // Fault-handler entry (+ kernel crossing on Hermit).
        let entered = t
            + self.cfg.fault_entry
            + self
                .cfg
                .kernel
                .map_or(SimDuration::ZERO, |k| k.fault_entry + k.swap_work);
        self.obs.fault_began(t, req, page, entered);
        t = entered;

        // Reserve a frame; on pressure, run direct reclaim like a real
        // kernel would (and kick the reclaimer).
        if !self.cache.begin_fetch(page) {
            self.kick_reclaimer(t);
            match self.cache.evict_one() {
                Some((victim, dirty)) => {
                    self.obs.direct_reclaimed(t, victim, dirty);
                    if dirty {
                        self.writeback(t, victim);
                    }
                    t += self.cfg.direct_reclaim_cost;
                    assert!(self.cache.begin_fetch(page), "evicted frame not reusable");
                }
                None => {
                    // Every frame is in flight: wait briefly and retry.
                    let retry_at = t + SimDuration::from_nanos(500);
                    self.obs.frame_wait(w, req, t, retry_at);
                    self.events.push(
                        retry_at,
                        Ev::WorkerWake {
                            worker: w,
                            cont: Cont::RetryFault { req },
                        },
                    );
                    return;
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
        let Ok(fetch) = self.issue_fetch(req, qp, shard, page, post_at) else {
            // §5.2: "page fault handlers must pause, waiting for
            // available slots in the QPs". The worker is stuck (even
            // under the yield policy the *handler* occupies it) until a
            // CQE frees a slot (see `on_fetch_done`); the retry
            // re-reserves the frame.
            self.obs.qp_stalled(w, req, t, page);
            self.cancel_reservation(page);
            self.workers[w].blocked = Some((req, t));
            return;
        };
        t += self.cfg.fault_issue + self.cfg.prefetch_compute;
        self.obs.fetch_issued(w, t, shard, &self.nics);
        let (done_at, failed) = (fetch.done_at, fetch.failed);
        self.record_fetch(page, fetch);
        self.events.push(done_at, Ev::FetchDone { worker: w, page });

        self.issue_prefetches(w, req, page, t);

        match self.cfg.fault_policy {
            FaultPolicy::Yield => self.park(w, req, page, t),
            FaultPolicy::BusyWait | FaultPolicy::BusyWaitPreempt => {
                // Busy-waiters burn the whole retransmission/failover
                // timeline on-core — the mechanism that separates the
                // baselines from Adios under faults.
                let cont = if failed {
                    Cont::AbortFault { req }
                } else {
                    Cont::AfterBusyWait { req }
                };
                self.busy_wait(w, req, t, done_at, cont);
            }
        }
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
    ) -> Result<Inflight, PostError> {
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
                    self.obs.chain_cut(at, req, shard, page);
                    return Ok(Inflight::new(pqp, pdone, true));
                }
            };
            let took_over = pending.take();
            if let Some((pqp, pdone)) = took_over {
                // The failover post took over: the previous error CQE
                // only needs retiring when it becomes pollable.
                self.events.push(pdone, Ev::CqeRetire { shard, qp: pqp });
            }
            self.obs.demand_posted(
                req,
                shard,
                qp0,
                page,
                at,
                post_at,
                &completion,
                took_over.is_some(),
            );
            if !completion.is_error() {
                return Ok(Inflight::new(qp, completion.done_at, false));
            }
            let last = attempt >= max_attempts;
            if !last {
                replica = (replica + 1) % replicas;
                attempt += 1;
            }
            // The trace/span operand is the *global* memnode id the
            // chain moves to — on single-shard runs that equals the
            // replica index, preserving the pre-sharding byte stream.
            let next = (!last).then(|| (self.shard_map.node_id(shard, replica) as u64, attempt));
            self.obs
                .attempt_failed(completion.done_at, req, shard, page, next);
            if last {
                return Ok(Inflight::new(qp, completion.done_at, true));
            }
            pending = Some((qp, completion.done_at));
            at = completion.done_at;
            qp = failover_qp;
        }
    }

    /// One READ post on shard `shard`'s rail against its replica
    /// `replica`, through the fault plane.
    #[inline]
    pub(super) fn post_read(
        &mut self,
        at: SimTime,
        shard: usize,
        qp: QpId,
        page: u64,
        replica: usize,
    ) -> Result<Completion, PostError> {
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

    /// Sequential + speculative readahead (§2.3: every system overlaps a
    /// prefetching algorithm with the fetch).
    fn issue_prefetches(&mut self, w: usize, req: usize, page: u64, t: SimTime) {
        let (mut stride, mut n) = self.req(req).detector.on_fault(page);
        let spec = self.cfg.speculative_readahead > 0.0
            && self.rng.gen_bool(self.cfg.speculative_readahead.min(1.0));
        // Fate-attribution class: the configured detector, or the
        // speculative next-page fallback when the detector had no
        // pattern.
        let class = if n == 0 && spec {
            (stride, n) = (1, 1);
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
                    // Speculative fetches get no failover chain — an
                    // error completion cancels the reservation when it
                    // surfaces, and a later demand access simply
                    // re-faults.
                    self.obs.prefetch_posted(t, page, p, ps, qp, class, &c);
                    self.record_fetch(p, Inflight::new(qp, c.done_at, c.is_error()));
                    self.events
                        .push(c.done_at, Ev::FetchDone { worker: w, page: p });
                }
                Err(_) => {
                    // QP full: drop the speculative fetch.
                    self.obs.prefetch_refused();
                    self.cancel_reservation(p);
                    break;
                }
            }
        }
        self.kick_reclaimer(t);
    }

    /// Records `fetch` as the live fetch of `page`, parking a
    /// superseded record aside (see `Simulation::orphan_fetches`).
    #[inline]
    fn record_fetch(&mut self, page: u64, fetch: Inflight) {
        if let Some(old) = self.inflight.insert(page, fetch) {
            assert!(old.completed_early, "live fetch overwritten");
            self.orphan_fetches.push((page, old));
        }
    }

    /// Cancels the frame reservation taken for a fetch of `page` that
    /// will not happen (or failed): the reservation completes and a
    /// frame is reclaimed in its place — any frame, the victim need not
    /// be `page`'s.
    #[inline]
    fn cancel_reservation(&mut self, page: u64) {
        self.cache.complete_fetch(page);
        let evicted = self.cache.evict_one();
        debug_assert!(evicted.is_some());
        if let Some((victim, _)) = evicted {
            self.obs.evicted(victim);
        }
    }

    /// Consumes a CQE on `shard`'s rail, freeing its QP slot.
    #[inline]
    pub(super) fn consume_cqe(&mut self, now: SimTime, shard: usize, qp: QpId, what: Cqe) {
        self.nics[shard].on_cqe(now, qp);
        self.obs.cqe_consumed(now, shard, &self.nics, what);
    }

    pub(super) fn on_fetch_done(&mut self, now: SimTime, w: usize, page: u64) {
        // Match the event to its fetch record: the live entry when its
        // completion time is `now`, else the superseded record a
        // re-fetch parked aside (see `orphan_fetches`). An orphan only
        // frees its QP slot and wakes its own waiters — the cache and
        // observatory state belong to the live fetch.
        let live = self.inflight.get(&page).is_some_and(|i| i.done_at == now);
        let info = if live {
            self.inflight.remove(&page)
        } else {
            self.orphan_fetches
                .iter()
                .position(|(p, o)| *p == page && o.done_at == now)
                .map(|i| self.orphan_fetches.remove(i).1)
        }
        .expect("completion without a fetch record");
        // The CQE lands on the QP that carried the terminal attempt
        // (the failover QP when the chain migrated).
        let shard = self.shard_map.shard_of(page);
        self.consume_cqe(now, shard, info.qp, Cqe::Fetch { worker: w, page });
        if info.failed {
            // The terminal completion is an error: the page never
            // arrived. Cancel the frame reservation and abort every
            // parked waiter (busy-waiters abort via their own
            // scheduled wake).
            debug_assert!(!info.completed_early, "failed fetch consumed early");
            debug_assert!(live, "orphaned fetches are always early-consumed");
            self.obs.fetch_failed(now, w, page);
            self.cancel_reservation(page);
            for waiter in info.waiters {
                let home = self.req(waiter).worker;
                self.retire(now, waiter, Retire::AbortedParked);
                let idle = !self.workers[home].busy;
                self.obs.unparked(home, now, idle);
            }
        } else {
            if !info.completed_early {
                self.cache.complete_fetch(page);
            }
            if live {
                // An orphan's own prefetch record was consumed when it
                // was classified; the page's current record (if any)
                // belongs to the live fetch still in flight.
                self.obs.fetch_arrived(page);
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
        // A fault paused on this worker's full QP can retry now.
        if let Some((req, since)) = self.workers[w].blocked.take() {
            self.obs.qp_stall_ended(now, w, req, since);
            self.events.push(
                now,
                Ev::WorkerWake {
                    worker: w,
                    cont: Cont::RetryFault { req },
                },
            );
        }
    }

    /// An intermediate error CQE of a failover chain surfaced: consume
    /// it so the QP slot frees (the chain already continued elsewhere).
    pub(super) fn on_cqe_retire(&mut self, now: SimTime, shard: usize, qp: QpId) {
        self.consume_cqe(now, shard, qp, Cqe::Retire { qp });
    }
}
