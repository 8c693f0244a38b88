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

/// One fetch in flight: how its terminal completion resolves (see
/// `Simulation::issue_fetch`) and who is parked on it.
pub(super) struct Inflight {
    page: u64,
    /// When the terminal completion becomes pollable.
    done_at: SimTime,
    /// QP whose CQE retires this fetch (the failover QP when the fetch
    /// chain migrated off the faulting worker's QP).
    qp: QpId,
    /// The terminal completion is an error: at `done_at` the page is
    /// still remote and every requester must abort.
    failed: bool,
    /// Completion consumed early by a worker that caught up with it.
    completed_early: bool,
    /// A later fetch of `page` was recorded while this one's
    /// `FetchDone` was still queued (only an early-consumed record can
    /// be: its page was evicted and re-faulted). The stale event still
    /// frees this record's QP slot and wakes this record's waiters; the
    /// cache and observatory state belong to the later fetch.
    superseded: bool,
    /// Yield-policy waiters (request ids) to resume on completion.
    pub(super) waiters: Waiters,
}

impl Inflight {
    fn new(page: u64, qp: QpId, done_at: SimTime, failed: bool) -> Inflight {
        Inflight {
            page,
            done_at,
            qp,
            failed,
            completed_early: false,
            superseded: false,
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
/// [`FetchTable::insert`] asserts it.
pub(super) struct FetchTable {
    /// `None` = on the free list.
    slots: Vec<Option<Inflight>>,
    free: Vec<u32>,
    /// The early-consumed records that are still their page's current
    /// one: the only records a new fetch can supersede, and seldom more
    /// than one or two, so `insert` searches these, never the slab.
    early: Vec<FetchId>,
    capacity: usize,
}

impl FetchTable {
    pub(super) fn new(capacity: usize) -> FetchTable {
        FetchTable {
            slots: Vec::new(),
            free: Vec::new(),
            early: Vec::new(),
            capacity,
        }
    }

    /// The page's current record, if one is still in the table (a scan:
    /// for assertions and tests).
    fn current_mut(&mut self, page: u64) -> Option<&mut Inflight> {
        self.slots
            .iter_mut()
            .flatten()
            .find(|f| f.page == page && !f.superseded)
    }

    /// Records `fetch` as the current fetch of its page, superseding an
    /// early-consumed record of the same page whose event is still
    /// queued. (A pending record that was *not* consumed early keeps its
    /// page in flight, so `PageCache::begin_fetch` has already refused
    /// the fetch that would overwrite it.)
    fn insert(&mut self, fetch: Inflight) -> FetchId {
        let slots = &self.slots;
        let same_page =
            |id: &FetchId| slots[id.0 as usize].as_ref().map(|f| f.page) == Some(fetch.page);
        if let Some(i) = self.early.iter().position(same_page) {
            let old = self.early.swap_remove(i);
            self.get_mut(old).superseded = true;
        }
        debug_assert!(
            self.current_mut(fetch.page).is_none(),
            "live fetch overwritten"
        );
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
        debug_assert!(!f.completed_early && !f.superseded);
        f.completed_early = true;
        self.early.push(id);
    }

    /// Retires record `id` at its event.
    #[inline]
    fn remove(&mut self, id: FetchId) -> Inflight {
        let fetch = self.slots[id.0 as usize]
            .take()
            .expect("completion without a fetch record");
        if fetch.completed_early && !fetch.superseded {
            let listed = self.early.iter().position(|&e| e == id);
            self.early
                .swap_remove(listed.expect("early-consumed current record is listed"));
        }
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
        debug_assert!(info.page == page && !info.completed_early && !info.superseded);
        let (done_at, failed) = (info.done_at, info.failed);
        // Demand raced an in-flight fetch (possibly a prefetch: arrived
        // lines classify hit, still-flying ones late).
        self.obs.coalesced(t, req, page, done_at, failed);
        if !failed && done_at <= t {
            // The completion predates our virtual time: consume it early.
            self.fetches.consumed_early(fetch);
            self.cache.complete_fetch(page);
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
            FaultPolicy::Yield => self.park(w, req, fetch, t),
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
        let post_at = t + FAULT_ISSUE;
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
        t += FAULT_ISSUE + PREFETCH_COMPUTE;
        let (total, on_rail) = self.qp_load(shard);
        self.obs.fetch_issued(w, t, shard, total, on_rail);
        let (done_at, failed) = (fetch.done_at, fetch.failed);
        let fetch = self.record_fetch(w, fetch);

        self.issue_prefetches(w, req, page, t);

        match self.cfg.fault_policy {
            FaultPolicy::Yield => self.park(w, req, fetch, t),
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
    /// ([`MAX_FETCH_ATTEMPTS`]) runs out.
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
        let failover_qp = QpId(self.cfg.workers as u32 + 1);
        let mut qp = qp0;
        let mut replica = 0usize;
        let mut at = post_at;
        let mut attempt = 1u32;
        // Terminal CQE of the previous (errored) attempt.
        let mut pending: Option<(QpId, SimTime)> = None;
        loop {
            let completion = match self.post(at, shard, qp, Verb::Read, page, replica) {
                Ok(c) => c,
                Err(e) => {
                    let Some((pqp, pdone)) = pending else {
                        return Err(e);
                    };
                    // Failover QP full: the chain dies at the previous
                    // error CQE.
                    self.obs.chain_cut(at, req, shard, page);
                    return Ok(Inflight::new(page, pqp, pdone, true));
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
                return Ok(Inflight::new(page, qp, completion.done_at, false));
            }
            let last = attempt >= MAX_FETCH_ATTEMPTS;
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
                return Ok(Inflight::new(page, qp, completion.done_at, true));
            }
            pending = Some((qp, completion.done_at));
            at = completion.done_at;
            qp = failover_qp;
        }
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
                    self.record_fetch(w, Inflight::new(p, qp, c.done_at, c.is_error()));
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
        // The event carries its own record. A superseded one only frees
        // its QP slot and wakes its own waiters — the cache and
        // observatory state belong to the page's later fetch.
        let info = self.fetches.remove(fetch);
        debug_assert_eq!(info.done_at, now);
        let (page, live) = (info.page, !info.superseded);
        #[cfg(test)]
        let stale = (!live).then(|| (info.qp, info.waiters.len(), self.stale_probe(page, info.qp)));
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
            debug_assert!(live, "superseded fetches are always early-consumed");
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
                // A superseded fetch's own prefetch record was consumed
                // when it was classified; the page's current record (if
                // any) belongs to the later fetch still in flight.
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
        #[cfg(test)]
        if let Some((qp, own_waiters, before)) = stale {
            let after = self.stale_probe(page, qp);
            self.stale_completions.push(super::StaleCompletion {
                outstanding: (before.0, after.0),
                on_qp: (before.1, after.1),
                own_waiters,
                later_waiters: (before.2, after.2),
            });
        }
    }

    /// What a superseded completion of `page` on `qp` may and may not
    /// change: outstanding work requests run-wide and on `qp`, and the
    /// waiters parked on the page's later fetch.
    #[cfg(test)]
    fn stale_probe(&mut self, page: u64, qp: QpId) -> (u32, u32, Option<usize>) {
        (
            self.outstanding,
            self.qp_outstanding[qp.0 as usize],
            self.fetches.current_mut(page).map(|f| f.waiters.len()),
        )
    }

    /// An intermediate error CQE of a failover chain surfaced: consume
    /// it so the QP slot frees (the chain already continued elsewhere).
    pub(super) fn on_cqe_retire(&mut self, now: SimTime, shard: usize, qp: QpId) {
        self.consume_cqe(now, shard, qp, Cqe::Retire { qp });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fetch table recycles retired handles, supersedes only
    /// early-consumed records, and refuses to grow past its bound.
    #[test]
    fn fetch_table_reuses_handles_and_tracks_the_current_record() {
        let fetch = |page| Inflight::new(page, QpId(0), SimTime(10), false);
        let mut t = FetchTable::new(2);
        let a = t.insert(fetch(7));
        let b = t.insert(fetch(8));
        assert_ne!(a, b);
        // Retire, then reuse the slot: the table stays at two slots.
        assert!(!t.remove(a).superseded);
        let c = t.insert(fetch(9));
        assert_eq!(c, a, "a retired handle is the next one handed out");
        // An early-consumed record is superseded by the page's next fetch;
        // its own handle still resolves to it.
        t.consumed_early(b);
        assert!(!t.remove(c).superseded);
        let d = t.insert(fetch(8));
        assert_eq!(t.current_mut(8).map(|f| f.done_at), Some(SimTime(10)));
        t.get_mut(d).waiters.push(3);
        let stale = t.remove(b);
        assert!(stale.superseded && stale.waiters.into_iter().next().is_none());
        let live = t.remove(d);
        assert!(!live.superseded);
        assert_eq!(live.waiters.into_iter().collect::<Vec<_>>(), [3]);
        assert!(t.current_mut(8).is_none());
    }

    #[test]
    #[should_panic(expected = "fetch table over its bound of 3 records")]
    fn fetch_table_bound_fires_at_capacity_plus_one() {
        let mut t = FetchTable::new(3);
        for page in 0..4 {
            t.insert(Inflight::new(page, QpId(0), SimTime(10), false));
        }
    }

    /// A fetch of a page whose current record was *not* consumed early
    /// would strand that record's waiters: debug builds refuse (in
    /// release, `PageCache::begin_fetch` has refused it before).
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "live fetch overwritten")]
    fn fetch_table_refuses_to_supersede_a_pending_fetch() {
        let mut t = FetchTable::new(4);
        let early = t.insert(Inflight::new(1, QpId(0), SimTime(10), false));
        t.consumed_early(early);
        t.insert(Inflight::new(2, QpId(0), SimTime(10), false));
        t.insert(Inflight::new(2, QpId(0), SimTime(20), false));
    }
}
