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
use super::{live, Cont, Ev, Retire, Simulation};
use crate::config::{
    FaultPolicy, PrefetcherKind, DIRECT_RECLAIM_COST, FAULT_ENTRY, FAULT_ISSUE, MAX_FETCH_ATTEMPTS,
    PREFETCH_COMPUTE,
};

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

/// One fetch in flight: how its current attempt's completion resolves
/// (a failover attempt is posted into the same record, see
/// `Simulation::on_fetch_done`) and who is parked on it.
pub(super) struct Inflight {
    page: u64,
    /// When the current attempt's completion becomes pollable.
    done_at: SimTime,
    /// The request whose fault issued the fetch.
    req: u32,
    /// Demand attempt number (routed by `Simulation::attempt_route`),
    /// or 0 for a prefetch, which gets no failover chain.
    attempt: u8,
    /// The current attempt's completion is an error: at `done_at` the
    /// chain fails over, or the page stays remote.
    failed: bool,
    /// Completion consumed early by a worker that caught up with it:
    /// the event only frees the QP slot and wakes this record's waiters.
    completed_early: bool,
    /// Yield-policy waiters (request ids) to resume on completion.
    pub(super) waiters: Waiters,
}

impl Inflight {
    fn new(page: u64, req: usize, attempt: u8, done_at: SimTime, failed: bool) -> Inflight {
        Inflight {
            page,
            done_at,
            req: req as u32,
            attempt,
            failed,
            completed_early: false,
            waiters: Waiters::default(),
        }
    }
}

/// Handle of one record in the [`FetchTable`]. It rides in the fetch's
/// `Ev::FetchDone` and, while the page is in flight, in the page's
/// cache entry (`PageCache::fetch_tag`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct FetchId(u32);

/// Every fetch whose `FetchDone` is still queued, in a slab indexed by
/// [`FetchId`]: the completion event carries its own record's handle, a
/// fault hands the handle it just got to `park`, and a coalescing
/// access reads it from the in-flight page's cache entry — nothing on
/// the fetch path hashes or searches.
///
/// A record holds its QP slot until its event fires, so the table never
/// holds more than `capacity` = Σ rails × QPs × `qp_depth` records;
/// [`FetchTable::insert`] asserts it. A page has at most one record its
/// cache entry names: `PageCache::begin_fetch` refuses a second fetch of
/// an in-flight page, so only an early-consumed record can share its
/// page with a later one.
pub(super) struct FetchTable {
    /// `None` = on the free list.
    slots: Vec<Option<Inflight>>,
    free: Vec<u32>,
    capacity: usize,
}

impl FetchTable {
    pub(super) fn new(capacity: usize) -> FetchTable {
        FetchTable {
            slots: Vec::new(),
            free: Vec::new(),
            capacity,
        }
    }

    /// Records `fetch` in a free slot.
    fn insert(&mut self, fetch: Inflight) -> FetchId {
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(fetch);
                FetchId(i)
            }
            None => {
                assert!(
                    self.slots.len() < self.capacity,
                    "fetch table over its bound of {} records",
                    self.capacity
                );
                self.slots.push(Some(fetch));
                FetchId(self.slots.len() as u32 - 1)
            }
        }
    }

    #[inline]
    pub(super) fn get_mut(&mut self, id: FetchId) -> &mut Inflight {
        self.slots[id.0 as usize]
            .as_mut()
            .expect("retired fetch handle")
    }

    /// The completion of record `id` was consumed before its event.
    #[inline]
    fn consumed_early(&mut self, id: FetchId) {
        let f = self.get_mut(id);
        debug_assert!(!f.completed_early);
        f.completed_early = true;
    }

    /// Puts back record `id`, just removed: its chain failed over.
    fn reinstate(&mut self, id: FetchId, fetch: Inflight) {
        debug_assert_eq!(self.free.last(), Some(&id.0), "not the last retired");
        self.free.pop();
        self.slots[id.0 as usize] = Some(fetch);
    }

    /// Retires record `id` at its event.
    #[inline]
    fn remove(&mut self, id: FetchId) -> Inflight {
        let fetch = self.slots[id.0 as usize]
            .take()
            .expect("completion without a fetch record");
        self.free.push(id.0);
        fetch
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
    #[cfg(test)]
    fn len(&self) -> usize {
        match self {
            Waiters::None => 0,
            Waiters::One(_) => 1,
            Waiters::Many(all) => all.len(),
        }
    }

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
        // The page's cache entry names the fetch to wait on.
        let fetch = FetchId(self.cache.fetch_tag(page));
        let info = self.fetches.get_mut(fetch);
        debug_assert!(info.page == page && !info.completed_early);
        let (done_at, failed, attempt) = (info.done_at, info.failed, info.attempt);
        // Demand raced an in-flight fetch (possibly a prefetch: arrived
        // lines classify hit, still-flying ones late).
        self.obs.coalesced(t, req, page, done_at, failed);
        if !failed && done_at <= t {
            // The completion predates our virtual time: consume it early.
            self.fetches.consumed_early(fetch);
            self.cache.complete_fetch(page);
            return true;
        }
        // A failed attempt surfaces an error CQE, never the page.
        // Yielders park and follow the chain to its end; busy-waiters
        // spin to the CQE, and `FetchDone` at `done_at`, scheduled
        // earlier, resolves the attempt first (FIFO tie-breaking).
        match self.cfg.fault_policy {
            // Coalesced wait: the fetch belongs to another request.
            FaultPolicy::Yield => self.park(w, req, fetch, t),
            FaultPolicy::BusyWait | FaultPolicy::BusyWaitPreempt => {
                self.spin_on(w, req, t, done_at, failed, attempt)
            }
        }
        false
    }

    /// Busy-waiter `req` woke on worker `w` from an attempt's error CQE,
    /// which its `FetchDone` (queued first) resolved: spins on the
    /// chain's next attempt if the page is still in flight (`true`).
    pub(super) fn spin_on_failover(&mut self, w: usize, req: usize, now: SimTime) -> bool {
        let r = self.req(req);
        let page = r.trace.steps[r.step].access.expect("a fault step").page;
        let in_flight = self.cache.lookup(page) == PageState::InFlight;
        if in_flight {
            let info = self.fetches.get_mut(FetchId(self.cache.fetch_tag(page)));
            let (done_at, failed, attempt) = (info.done_at, info.failed, info.attempt);
            self.spin_on(w, req, now, done_at, failed, attempt);
        }
        in_flight
    }

    /// Busy-waits worker `w` from `t` until the current attempt of the
    /// fetch `req` waits on (number `attempt`, 0 = a prefetch) surfaces
    /// its CQE at `done_at` (no earlier than `t`), then continues `req`.
    /// The fault path passes its fresh completion: no record lookup.
    fn spin_on(
        &mut self,
        w: usize,
        req: usize,
        t: SimTime,
        done_at: SimTime,
        failed: bool,
        attempt: u8,
    ) {
        let cont = match (failed, attempt) {
            (false, _) => Cont::AfterBusyWait { req },
            // A prefetch has no chain: the waiter faults afresh, with
            // a chain of its own.
            (true, 0) => Cont::RetryFault { req },
            (true, _) => Cont::AfterErrorCqe { req },
        };
        let until = done_at.max(t);
        self.obs.spun(w, req, t, until);
        self.events.push(until, Ev::WorkerWake { worker: w, cont });
    }

    /// Handles a page fault: the request always blocks (parks, spins or
    /// waits to retry), so `execute` returns after this.
    pub(super) fn fault(&mut self, w: usize, req: usize, page: u64, mut t: SimTime) {
        // Fault-handler entry (+ kernel crossing on Hermit).
        let entered = t
            + FAULT_ENTRY
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
                    t += DIRECT_RECLAIM_COST;
                    assert!(self.cache.begin_fetch(page), "evicted frame not reusable");
                }
                None => {
                    // Every frame is in flight: wait briefly and retry.
                    let retry_at = t + SimDuration::from_nanos(500);
                    self.obs.frame_wait(w, req, t);
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

        // Post the one-sided READ on the page's shard rail: the chain's
        // first attempt (an error CQE fails it over when it surfaces).
        let post_at = t + FAULT_ISSUE;
        self.req(req).fetch_posted = post_at;
        let Ok(c) = self.post_demand(w, req, page, 1, post_at) else {
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
        t += FAULT_ISSUE + PREFETCH_COMPUTE;
        let shard = self.shard_map.shard_of(page);
        let (total, on_rail) = self.qp_load(shard);
        self.obs.fetch_issued(w, t, shard, total, on_rail);
        let fetch = self.record_fetch(w, Inflight::new(page, req, 1, c.done_at, c.is_error()));

        self.issue_prefetches(w, req, page, t);

        match self.cfg.fault_policy {
            FaultPolicy::Yield => self.park(w, req, fetch, t),
            // Busy-waiters burn the whole retransmission/failover
            // timeline on-core — the mechanism that separates the
            // baselines from Adios under faults.
            FaultPolicy::BusyWait | FaultPolicy::BusyWaitPreempt => {
                self.spin_on(w, req, t, c.done_at, c.is_error(), 1)
            }
        }
    }

    /// Posts attempt `attempt` of request `req`'s demand READ of `page`
    /// at `at` from worker `w`. Always inlined, so the fault path's copy
    /// folds its constant first attempt: it runs on nearly every fault.
    #[inline(always)]
    fn post_demand(
        &mut self,
        w: usize,
        req: usize,
        page: u64,
        attempt: u8,
        at: SimTime,
    ) -> Result<Completion, PostError> {
        let shard = self.shard_map.shard_of(page);
        let (qp, replica) = self.attempt_route(w, attempt);
        let c = self.post(at, shard, qp, Verb::Read, page, replica)?;
        let (origin, began) = (self.workers[w].qp, live(&self.reqs, req).fetch_posted);
        self.obs
            .demand_posted(req, shard, origin, page, at, began, &c, attempt > 1);
        Ok(c)
    }

    /// The QP and replica of attempt `attempt` of worker `w`'s fetch —
    /// the one place the failover route is decided. A first attempt or
    /// a prefetch rides the worker's QP to the primary (no division on
    /// the hot path). A failover rides the failover QP and never goes
    /// back to the primary while there is another replica: it cycles
    /// over replicas `1 + (attempt − 2) % (replicas − 1)`, or re-posts
    /// to the primary when it has none.
    fn attempt_route(&self, w: usize, attempt: u8) -> (QpId, usize) {
        if attempt <= 1 {
            return (self.workers[w].qp, 0);
        }
        let replica = match self.cfg.replicas() {
            1 => 0,
            n => 1 + (attempt as usize - 2) % (n - 1),
        };
        (QpId(self.cfg.workers as u32 + 1), replica)
    }

    /// One page-sized post on shard `shard`'s rail against its replica
    /// `replica`, through the fault plane. Every post goes through
    /// here and every CQE through [`Simulation::consume_cqe`], which is
    /// what keeps `qp_outstanding` / `outstanding` equal to the rails'
    /// own counts without re-summing them per event.
    #[inline]
    pub(super) fn post(
        &mut self,
        at: SimTime,
        shard: usize,
        qp: QpId,
        verb: Verb,
        page: u64,
        replica: usize,
    ) -> Result<Completion, PostError> {
        let node = self.shard_map.node_id(shard, replica) as usize;
        let posted = self.nics[shard].post(
            at,
            qp,
            verb,
            page,
            self.cfg.fetch_page_bytes,
            &mut self.mems[node],
            &mut self.plane,
        );
        if posted.is_ok() {
            self.qp_outstanding[qp.0 as usize] += 1;
            self.outstanding += 1;
            self.debug_check_outstanding(qp);
        }
        posted
    }

    /// The running totals against the re-summed rails (debug builds).
    #[inline]
    fn debug_check_outstanding(&self, qp: QpId) {
        debug_assert_eq!(
            self.outstanding,
            self.nics.iter().map(|n| n.total_outstanding()).sum::<u32>()
        );
        debug_assert_eq!(
            self.qp_outstanding[qp.0 as usize],
            self.nics.iter().map(|n| n.outstanding(qp)).sum::<u32>()
        );
    }

    /// Outstanding work requests run-wide and on `shard`'s rail, for
    /// the QP-occupancy gauges.
    #[inline]
    fn qp_load(&self, shard: usize) -> (u32, u32) {
        (self.outstanding, self.nics[shard].total_outstanding())
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
            match self.post(t, ps, qp, Verb::Read, p, 0) {
                Ok(c) => {
                    // Speculative fetches get no failover chain — an
                    // error completion cancels the reservation when it
                    // surfaces, and a later demand access simply
                    // re-faults.
                    self.obs.prefetch_posted(t, page, p, ps, qp, class, &c);
                    self.record_fetch(w, Inflight::new(p, req, 0, c.done_at, c.is_error()));
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

    /// Records `fetch`, issued by worker `w`, as the current fetch of
    /// its page: tags the page's cache entry with the record's handle
    /// and schedules the completion event that carries it.
    #[inline]
    fn record_fetch(&mut self, w: usize, fetch: Inflight) -> FetchId {
        let (page, done_at) = (fetch.page, fetch.done_at);
        let id = self.fetches.insert(fetch);
        self.cache.tag_fetch(page, id.0);
        self.events.push(
            done_at,
            Ev::FetchDone {
                worker: w,
                fetch: id,
            },
        );
        id
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
        self.qp_outstanding[qp.0 as usize] -= 1;
        self.outstanding -= 1;
        self.debug_check_outstanding(qp);
        let (total, on_rail) = self.qp_load(shard);
        self.obs.cqe_consumed(now, shard, total, on_rail, what);
    }

    pub(super) fn on_fetch_done(&mut self, now: SimTime, w: usize, fetch: FetchId) {
        // The event carries its own record, retired here; a chain that
        // fails over puts it back.
        let info = self.fetches.remove(fetch);
        debug_assert_eq!(info.done_at, now);
        let (page, req, attempt, failed) =
            (info.page, info.req as usize, info.attempt, info.failed);
        // The CQE lands on the QP that carried the current attempt.
        let shard = self.shard_map.shard_of(page);
        let (qp, _) = self.attempt_route(w, attempt);
        #[cfg(test)]
        let stale = info
            .completed_early
            .then(|| (info.waiters.len(), self.stale_probe(page, qp)));
        // A demand attempt's error CQE with budget left fails the chain
        // over into the same record, whose waiters stay parked on it.
        let fails_over = failed && attempt > 0 && u32::from(attempt) < MAX_FETCH_ATTEMPTS;
        let what = if fails_over {
            Cqe::Retire { qp }
        } else {
            Cqe::Fetch { worker: w, page }
        };
        self.consume_cqe(now, shard, qp, what);
        if failed && attempt > 0 {
            // The trace/span operand is the *global* memnode id the
            // chain moves to — on single-shard runs that equals the
            // replica index, preserving the pre-sharding byte stream.
            let next = fails_over.then(|| {
                let (_, replica) = self.attempt_route(w, attempt + 1);
                let node = self.shard_map.node_id(shard, replica);
                (node as u64, u32::from(attempt) + 1)
            });
            self.obs.attempt_failed(now, req, shard, page, next);
        }
        // A failover posts the next attempt into the same record and
        // puts it back, its waiters still parked; a full failover QP cuts
        // the chain at this CQE.
        let retired = if !fails_over {
            Some(info)
        } else if let Ok(c) = self.post_demand(w, req, page, attempt + 1, now) {
            let next = Inflight {
                attempt: attempt + 1,
                done_at: c.done_at,
                failed: c.is_error(),
                ..info
            };
            self.fetches.reinstate(fetch, next);
            self.events
                .push(c.done_at, Ev::FetchDone { worker: w, fetch });
            None
        } else {
            self.obs.chain_cut(now, req, shard, page);
            Some(info)
        };
        if let Some(info) = retired {
            // An early-consumed record only wakes its own waiters: the
            // coalesce that consumed it completed the page's fetch and
            // classified its prefetch record, and the page may since have
            // been evicted and fetched again.
            if failed {
                // The fetch ended in error: the page never arrived.
                debug_assert!(!info.completed_early, "failed fetch consumed early");
                self.obs.fetch_failed(now, w, page);
                self.cancel_reservation(page);
            } else if !info.completed_early {
                self.cache.complete_fetch(page);
                self.obs.fetch_arrived(page);
            }
            // A dead demand chain aborts its parked waiters (busy-waiters
            // abort at their own wake); any other waiter resumes, or
            // refaults with a chain of its own if its prefetch failed.
            for waiter in info.waiters {
                if failed && attempt > 0 {
                    let home = self.req(waiter).worker;
                    self.retire(now, waiter, Retire::AbortedParked);
                    let idle = !self.workers[home].busy;
                    self.obs.unparked(home, now, idle);
                    continue;
                }
                self.req(waiter).fetch_done_at = now;
                let cont = if failed {
                    Cont::Refault { req: waiter }
                } else {
                    Cont::Resume { req: waiter }
                };
                if self.cfg.resume_delay > SimDuration::ZERO {
                    // Kernel scheduler wake-up before the thread is
                    // runnable (Infiniswap).
                    self.events
                        .push(now + self.cfg.resume_delay, Ev::WaiterReady { cont });
                } else {
                    self.make_waiter_ready(now, cont);
                }
            }
        }
        // A fault paused on this worker's full QP can retry now — but
        // never before it paused: the worker's clock runs ahead of the
        // event clock, and a retry behind `since` would run the handler
        // over work the worker already did.
        if let Some((req, since)) = self.workers[w].blocked.take() {
            self.obs.qp_stall_ended(now, w, req, since);
            self.events.push(
                now.max(since),
                Ev::WorkerWake {
                    worker: w,
                    cont: Cont::RetryFault { req },
                },
            );
        }
        #[cfg(test)]
        if let Some((own_waiters, before)) = stale {
            let after = self.stale_probe(page, qp);
            self.stale_completions.push(super::StaleCompletion {
                outstanding: (before.0, after.0),
                on_qp: (before.1, after.1),
                own_waiters,
                later_waiters: (before.2, after.2),
            });
        }
    }

    /// What an early-consumed completion of `page` on `qp` may and may
    /// not change: outstanding work requests run-wide and on `qp`, and
    /// the waiters parked on the page's later fetch, if one is in flight.
    #[cfg(test)]
    fn stale_probe(&mut self, page: u64, qp: QpId) -> (u32, u32, Option<usize>) {
        let later = (self.cache.lookup(page) == PageState::InFlight).then(|| {
            let id = FetchId(self.cache.fetch_tag(page));
            self.fetches.get_mut(id).waiters.len()
        });
        (self.outstanding, self.qp_outstanding[qp.0 as usize], later)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fetch table recycles retired handles, keeps an early-consumed
    /// record apart from its page's later fetch, and refuses to grow past
    /// its bound.
    #[test]
    fn fetch_table_reuses_handles_and_tracks_the_current_record() {
        // One record per QP slot, whose bytes the ledger's allocation
        // metrics see: it must not grow.
        assert_eq!(std::mem::size_of::<Inflight>(), 48);
        let fetch = |page, done_at| Inflight::new(page, 0, 1, SimTime(done_at), false);
        let mut t = FetchTable::new(2);
        let a = t.insert(fetch(7, 10));
        let b = t.insert(fetch(8, 10));
        assert_ne!(a, b);
        // Retire, then reuse the slot: the table stays at two slots.
        assert!(!t.remove(a).completed_early);
        let c = t.insert(fetch(9, 10));
        assert_eq!(c, a, "a retired handle is the next one handed out");
        // An early-consumed record and its page's next fetch are two
        // records: each handle still resolves to its own.
        t.consumed_early(b);
        assert!(!t.remove(c).completed_early);
        let d = t.insert(fetch(8, 20));
        assert_eq!(t.get_mut(d).done_at, SimTime(20));
        t.get_mut(d).waiters.push(3);
        let stale = t.remove(b);
        assert!(stale.completed_early && stale.waiters.into_iter().next().is_none());
        let live = t.remove(d);
        assert!(!live.completed_early);
        assert_eq!(live.waiters.into_iter().collect::<Vec<_>>(), [3]);
        assert!(t.slots.iter().all(Option::is_none));
    }

    #[test]
    #[should_panic(expected = "fetch table over its bound of 3 records")]
    fn fetch_table_bound_fires_at_capacity_plus_one() {
        let mut t = FetchTable::new(3);
        for page in 0..4 {
            t.insert(Inflight::new(page, 0, 1, SimTime(10), false));
        }
    }
}
