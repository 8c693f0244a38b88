//! Workers: dispatch onto idle workers (Algorithm 1), the execute loop,
//! yielding at a fault and resuming on its CQE (Figure 5 steps 4–7),
//! busy-waiting, replying, and picking the next unit of work.

use std::collections::VecDeque;

use desim::{SimDuration, SimTime};
use fabric::QpId;
use paging::PageState;

use super::fetch::FetchId;
use super::observe::{Handoff, Queue};
use super::{live, Cont, DispatchOp, Ev, Retire, Simulation};
use crate::config::{
    FaultPolicy, QueueModel, WorkerSelect, CQ_POLL, FAULT_MAP, HANDOFF_COST, PREEMPT_COST,
    PREEMPT_INTERVAL, RECYCLE_COST, REPLY_BUILD, REQUEST_SETUP, STEAL_COST,
};

pub(super) struct Worker {
    pub(super) busy: bool,
    /// Worker timeline high-water mark: it can accept new work only at
    /// or after this instant.
    pub(super) free_at: SimTime,
    pub(super) qp: QpId,
    /// Yielded unithreads whose fetches completed (ready to resume).
    pub(super) resumes: VecDeque<usize>,
    /// Per-worker queue (Hermit / d-FCFS ablation).
    pub(super) local_queue: VecDeque<usize>,
    /// A fault paused on a full QP.
    pub(super) blocked: Option<(usize, SimTime)>,
}

impl Worker {
    pub(super) fn new(index: usize) -> Worker {
        Worker {
            busy: false,
            free_at: SimTime::ZERO,
            qp: QpId(index as u32),
            resumes: VecDeque::new(),
            local_queue: VecDeque::new(),
            blocked: None,
        }
    }
}

impl Simulation<'_> {
    // ----- dispatch -------------------------------------------------------

    /// Algorithm 1 (PF-aware) or round-robin dispatch of pending
    /// requests to idle workers.
    pub(super) fn try_dispatch(&mut self, now: SimTime) {
        while self.pending_depth() > 0 {
            let Some(w) = self.pick_idle_worker() else {
                return;
            };
            let req = self.pop_pending(now).expect("non-empty pending");
            // The handoff is charged on the dispatcher that admitted
            // the request — it owns the run-queue entry.
            let d = self.req(req).disp as usize;
            let (start, _) = self.charge_dispatcher(d, DispatchOp::PushHandoff, now, HANDOFF_COST);
            let from = start.max(self.workers[w].free_at);
            let wake = from + HANDOFF_COST;
            self.start_request(now, w, req, Handoff::Pushed, from, wake);
        }
    }

    pub(super) fn pick_idle_worker(&mut self) -> Option<usize> {
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
                // mapped onto (`qp_outstanding` is that running sum), so
                // dispatch stays fault-aware under sharding without
                // favouring any one shard.
                let mut best: Option<(u32, usize)> = None;
                for (i, w) in self.workers.iter().enumerate() {
                    if w.busy {
                        continue;
                    }
                    let count = self.qp_outstanding[w.qp.0 as usize];
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
    pub(super) fn try_run_local(&mut self, now: SimTime, w: usize) {
        if self.workers[w].busy {
            return;
        }
        let Some(req) = self.workers[w].local_queue.pop_front() else {
            return;
        };
        let from = now.max(self.workers[w].free_at);
        let wake = from + HANDOFF_COST;
        self.start_request(now, w, req, Handoff::Local, from, wake);
    }

    /// Starts `req` on worker `w` at `wake`, after a handoff that
    /// occupies the worker from `from` (it idles until then); `now` is
    /// the clock the decision is taken at.
    #[inline]
    fn start_request(
        &mut self,
        now: SimTime,
        w: usize,
        req: usize,
        how: Handoff,
        from: SimTime,
        wake: SimTime,
    ) {
        self.workers[w].busy = true;
        self.obs.handed_off(now, w, req, how, from, wake);
        self.events.push(
            wake,
            Ev::WorkerWake {
                worker: w,
                cont: Cont::Start { req },
            },
        );
    }

    // ----- worker execution ---------------------------------------------

    pub(super) fn on_worker_wake(&mut self, now: SimTime, w: usize, cont: Cont) {
        debug_assert!(self.workers[w].busy, "wake of an idle worker");
        let yields = self.cfg.fault_policy == FaultPolicy::Yield;
        let kernel = self.cfg.kernel;
        // The wake's preamble of handler work and, under the yield
        // policy, the unithread switch-in that follows it.
        let (req, work_until, switched_in) = match cont {
            Cont::Start { req } => {
                let r = self.reqs[req].as_mut().expect("dangling request id");
                r.sched_epoch = now;
                r.worker = w;
                if std::mem::replace(&mut r.started, true) {
                    // Restart after preemption: straight back to work.
                    (req, None, None)
                } else {
                    // Request setup (+ the kernel network stack on
                    // Hermit); then unithread creation + switch in, plus
                    // the worker's CQ poll before starting new
                    // unithreads (Figure 5).
                    let setup =
                        now + REQUEST_SETUP + kernel.map_or(SimDuration::ZERO, |k| k.net_stack);
                    let switch = self.cfg.ctx_switch + CQ_POLL;
                    (req, Some(setup), yields.then(|| setup + switch))
                }
            }
            Cont::Resume { req } => {
                let mapped = now + FAULT_MAP;
                (req, Some(mapped), Some(mapped + self.cfg.ctx_switch))
            }
            // Map + (on Hermit) the kernel→user return crossing.
            Cont::AfterBusyWait { req } => {
                let mapped = now + FAULT_MAP + kernel.map_or(SimDuration::ZERO, |k| k.kernel_exit);
                (req, Some(mapped), None)
            }
            // Re-enter the fault for the current step's page / abort.
            Cont::RetryFault { req } | Cont::AbortFault { req } => (req, None, None),
        };
        let fetch_done = live(&self.reqs, req).fetch_done_at;
        self.obs
            .woke(now, w, cont, fetch_done, work_until, switched_in);
        if let Cont::AbortFault { .. } = cont {
            // The fetch chain exhausted its retries/replicas: the
            // request cannot make progress and is dropped, exactly as a
            // real runtime would surface an I/O error to the
            // application after burning the full retry ladder.
            self.retire(now, req, Retire::AbortedSpinning { worker: w });
            self.worker_pick_next(w, now);
        } else {
            self.execute(w, req, switched_in.or(work_until).unwrap_or(now));
        }
    }

    /// Runs `req` on worker `w` from its current step at virtual time
    /// `t`, until it blocks or completes.
    fn execute(&mut self, w: usize, req: usize, mut t: SimTime) {
        // Constant for the run: read once, not once per step.
        let kernel = self.cfg.kernel;
        let preempt_after =
            (self.cfg.fault_policy == FaultPolicy::BusyWaitPreempt).then_some(PREEMPT_INTERVAL);
        loop {
            let r = live(&self.reqs, req);
            let Some(&step) = r.trace.steps.get(r.step) else {
                self.finish_request(w, req, t);
                return;
            };
            if preempt_after
                .is_some_and(|interval| r.step > 0 && t.saturating_since(r.sched_epoch) >= interval)
            {
                // Concord-style probe fired: save context, re-enqueue at
                // the tail of the central queue, pick other work.
                let saved = t + PREEMPT_COST;
                self.obs.preempted(t, w, req, saved);
                self.push_pending(saved, req);
                self.worker_pick_next(w, saved);
                return;
            }

            // Compute part of the step (+ kernel interference on Hermit).
            let mut compute = SimDuration::from_nanos(step.compute_ns as u64);
            if let Some(k) = kernel {
                let p = step.compute_ns as f64 / k.interference_period.as_nanos() as f64;
                if p > 0.0 && self.rng.gen_bool(p.min(1.0)) {
                    let stall = SimDuration::from_nanos(
                        self.rng.exp(k.interference_stall.as_nanos() as f64) as u64,
                    );
                    // The stall is involuntary descheduling, not useful
                    // work.
                    self.obs
                        .kernel_stalled(req, t + compute, t + compute + stall);
                    compute += stall;
                }
            }
            t += compute;
            self.obs.computed(w, t);

            if let Some(access) = step.access {
                match self.cache.lookup(access.page) {
                    PageState::Resident => {
                        // Every access eventually lands here (resume and
                        // after-spin wakes re-run the faulting step), so
                        // this is the single completed-access book-keeping
                        // point: a tracked prefetch resolved by this touch
                        // is a hit.
                        self.obs.touched(req, access.page, t, true);
                    }
                    PageState::InFlight => {
                        self.cache.note_coalesced();
                        if !self.wait_on_inflight(w, req, access.page, t) {
                            return;
                        }
                        // Fetch had already completed by `t`: continue as
                        // a hit (the prefetch fate was classified when the
                        // access coalesced, so this books the access only).
                        self.obs.touched(req, access.page, t, false);
                    }
                    PageState::NotResident => {
                        self.fault(w, req, access.page, t);
                        return;
                    }
                }
                self.cache.touch(access.page, access.write);
            }
            self.req(req).step += 1;
        }
    }

    /// Yields `req` at `t` onto the in-flight fetch `fetch`: the
    /// unithread switches out, the worker polls its CQ once and takes
    /// its next unit of work (Figure 5 steps 4–7).
    #[inline]
    pub(super) fn park(&mut self, w: usize, req: usize, fetch: FetchId, t: SimTime) {
        let switched = t + self.cfg.ctx_switch;
        let polled = switched + CQ_POLL;
        self.req(req).worker = w;
        self.fetches.get_mut(fetch).waiters.push(req);
        self.obs.parked(w, req, t, switched, polled);
        self.worker_pick_next(w, polled);
    }

    /// Busy-waits worker `w` from `t` until `until` (no earlier than
    /// `t`), then continues `req` with `cont`.
    #[inline]
    pub(super) fn busy_wait(
        &mut self,
        w: usize,
        req: usize,
        t: SimTime,
        until: SimTime,
        cont: Cont,
    ) {
        let until = until.max(t);
        self.obs.spun(w, req, t, until);
        self.events.push(until, Ev::WorkerWake { worker: w, cont });
    }

    pub(super) fn make_waiter_ready(&mut self, now: SimTime, waiter: usize) {
        let home = self.req(waiter).worker;
        let idle = !self.workers[home].busy;
        self.obs.unparked(home, now, idle);
        self.obs.queue(Queue::Runnable(home), now, true);
        self.workers[home].resumes.push_back(waiter);
        if idle {
            self.workers[home].busy = true;
            let wake = now.max(self.workers[home].free_at);
            self.wake_for_next(home, wake);
        }
    }

    /// Worker `w` is free at virtual time `t`: resume a ready unithread,
    /// pull new work, or go idle.
    pub(super) fn worker_pick_next(&mut self, w: usize, t: SimTime) {
        if !self.workers[w].resumes.is_empty() {
            self.wake_for_next(w, t);
            return;
        }
        match self.cfg.queue_model {
            QueueModel::SingleQueue => {
                if let Some(req) = self.pop_pending(t) {
                    // Pull-path handoff: the worker waits on the
                    // dispatcher that owns the request, so the whole
                    // wait is handoff time on the worker core too.
                    let d = self.req(req).disp as usize;
                    let (_, end) =
                        self.charge_dispatcher(d, DispatchOp::PullHandoff, t, HANDOFF_COST);
                    self.start_request(t, w, req, Handoff::Pulled, t, end);
                    return;
                }
            }
            QueueModel::PerWorker | QueueModel::PerWorkerStealing => {
                if let Some(req) = self.workers[w].local_queue.pop_front() {
                    self.start_request(t, w, req, Handoff::Pulled, t, t + HANDOFF_COST);
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
                            let how = Handoff::Stolen { victim: v };
                            self.start_request(t, w, req, how, t, t + STEAL_COST);
                            return;
                        }
                    }
                }
            }
        }
        // Going idle.
        self.obs.went_idle(w);
        self.workers[w].busy = false;
        self.workers[w].free_at = t;
    }

    /// Schedules the worker's next action at `t` when it has resumes
    /// queued (used from both the worker path and FetchDone wake-ups).
    #[inline]
    fn wake_for_next(&mut self, w: usize, t: SimTime) {
        let req = self.workers[w]
            .resumes
            .pop_front()
            .expect("wake_for_next without resumes");
        self.obs.queue(Queue::Runnable(w), t, false);
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
        // Reply serialisation, then (under the yield policy) the switch
        // from the unithread back to the worker.
        let built = t + REPLY_BUILD + self.cfg.client_stack;
        let switched =
            (self.cfg.fault_policy == FaultPolicy::Yield).then(|| built + self.cfg.ctx_switch);
        self.obs.replied(w, req, t, built, switched);
        t = switched.unwrap_or(built);
        let tx = self.eth.send_reply(t, reply_bytes);
        let r = live(&self.reqs, req);
        // Without polling delegation the worker spins until the TX
        // completion.
        let spins = !self.cfg.polling_delegation;
        self.obs
            .completed(t, w, req, r, tx.cqe_at, tx.client_rx_at, spins);
        if spins {
            t = t.max(tx.cqe_at);
        } else {
            // The TX CQE is raised on the dispatcher's CQ; the worker
            // moves on immediately and the dispatcher recycles the
            // buffer within its normal polling batches. Only the
            // recycle *work* loads the dispatcher — the CQE's arrival
            // time does not stall admissions (CQEs wait in the CQ).
            let d = r.disp as usize;
            self.charge_dispatcher(d, DispatchOp::Recycle, t, RECYCLE_COST);
        }
        self.free_req(req);
        self.cons.completions += 1;
        self.worker_pick_next(w, t);
    }
}
