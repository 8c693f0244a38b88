//! The reclaimer: watermark-driven background eviction and write-back
//! of dirty victims on its dedicated QP.

use desim::{SimDuration, SimTime};
use fabric::nic::Verb;
use fabric::{PostError, QpId};
use paging::reclaim::ReclaimerMode;

use super::observe::{Cqe, Queue};
use super::{Ev, Simulation};
use crate::config::{EVICT_COST, RECLAIM_BATCH, RECLAIM_WAKE_DELAY};

#[derive(PartialEq)]
pub(super) enum ReclaimState {
    Idle,
    Scheduled,
}

impl Simulation<'_> {
    #[inline]
    pub(super) fn kick_reclaimer(&mut self, now: SimTime) {
        if self.reclaim_state == ReclaimState::Scheduled {
            return;
        }
        if self.cache.free_frames() >= self.low_frames {
            return;
        }
        let delay = match self.cfg.reclaimer_mode {
            ReclaimerMode::Proactive => SimDuration::ZERO,
            ReclaimerMode::WakeUp => RECLAIM_WAKE_DELAY,
        };
        self.reclaim_state = ReclaimState::Scheduled;
        self.events.push(now + delay, Ev::ReclaimTick);
    }

    pub(super) fn on_reclaim_tick(&mut self, now: SimTime) {
        let mut evicted = 0;
        while evicted < RECLAIM_BATCH {
            if self.cache.free_frames() >= self.high_frames {
                break;
            }
            match self.cache.evict_one() {
                Some((page, dirty)) => {
                    self.obs.evicted(page);
                    if dirty {
                        self.writeback(now, page);
                    }
                    evicted += 1;
                }
                None => break,
            }
        }
        let free = self.cache.free_frames();
        self.obs.reclaim_ticked(now, evicted, free);
        if free < self.high_frames && evicted > 0 {
            let batch_time = EVICT_COST.saturating_mul(evicted as u64);
            self.events.push(now + batch_time, Ev::ReclaimTick);
        } else {
            self.reclaim_state = ReclaimState::Idle;
        }
    }

    /// The reclaimer's dedicated write-back QP (one per shard rail).
    #[inline]
    fn writeback_qp(&self) -> QpId {
        QpId(self.cfg.workers as u32)
    }

    pub(super) fn writeback(&mut self, now: SimTime, page: u64) {
        // Write-behind on the reclaimer's dedicated QP; the frame is
        // reused immediately (the model keeps page contents host-side).
        // The QP's bounded depth paces write-back bursts — without it a
        // reclaim cycle would dump thousands of WRITEs into the shared
        // WQE engine and stall page fetches behind them.
        let qp = self.writeback_qp();
        let shard = self.shard_map.shard_of(page);
        // Write-backs go to the shard's primary.
        match self.post(now, shard, qp, Verb::Write, page, 0) {
            Ok(c) => {
                // The frame was already reused and page contents are
                // host-side in this model, so a failed write-back is
                // only counted, not replayed.
                self.obs.writeback_posted(now, shard, page, &c);
                self.events.push(c.done_at, Ev::WriteDone { shard });
            }
            Err(PostError::QpFull) => {
                self.obs.writeback_deferred(now, shard);
                self.deferred_writebacks[shard].push_back(page);
            }
        }
    }

    pub(super) fn on_write_done(&mut self, now: SimTime, shard: usize) {
        self.consume_cqe(now, shard, self.writeback_qp(), Cqe::Write);
        if let Some(page) = self.deferred_writebacks[shard].pop_front() {
            self.obs.queue(Queue::Writeback(shard), now, false);
            self.writeback(now, page);
        }
    }
}
