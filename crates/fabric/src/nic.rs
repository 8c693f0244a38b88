//! The RDMA NIC model.
//!
//! A [`RdmaNic`] owns the two directions of the compute↔memory link and
//! a set of queue pairs. Posting a verb walks the request through every
//! FIFO resource analytically — doorbell, shared WQE engine, outbound
//! wire, remote NIC, inbound wire, local DMA — and returns the completion
//! time. Because each resource is first-come-first-served, computing
//! completion times at post time in event order is exact.
//!
//! Two behaviours matter for the paper's results:
//!
//! - **Bounded send queues.** `post` fails with [`PostError::QpFull`]
//!   when a QP already has `qp_depth` outstanding requests; the Adios
//!   page fault handler must then pause (§5.2, the Memcached ceiling).
//! - **Per-QP outstanding counts** are exposed so the dispatcher can run
//!   PF-aware dispatching (Algorithm 1): "the user-level scheduler
//!   directly accesses the kernel-level QP information exposed by the
//!   unikernel".
//!
//! With an armed [`FaultPlane`], `post` additionally models the RC
//! transport: a lost request or response packet goes unacknowledged
//! until the retransmission timeout fires, the engine retransmits with
//! exponential backoff, and after `rc_retries` failed retransmissions
//! the work request completes with a fatal CQE error
//! ([`CompletionStatus::RetryExceeded`]). Retransmissions are generated
//! by the NIC's transport engine an RTO after the original send, so
//! they bypass the WQE-engine and link FIFO heads (which were already
//! charged at post time) and only account wasted wire bytes.

use std::rc::Rc;

use desim::{SimDuration, SimTime};
use faults::{FaultPlane, NodeHealth};

use crate::link::Link;
use crate::memnode::MemNode;
use crate::params::FabricParams;

/// Identifies a queue pair on the NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QpId(pub u32);

/// Identifies a completion queue on the NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CqId(pub u32);

/// One-sided verbs supported by the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// Fetch a page from the memory node (page-fault path).
    Read,
    /// Write a dirty page back to the memory node (reclaim path).
    Write,
}

/// Why a post was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PostError {
    /// The QP's send queue is at `qp_depth` outstanding requests.
    QpFull,
}

/// How a work request's CQE reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionStatus {
    /// The transfer completed.
    Success,
    /// The RC retry budget was exhausted: the original send and all
    /// `rc_retries` retransmissions went unacknowledged.
    RetryExceeded,
    /// The transfer was delivered but the CQE carries a fatal error
    /// (remote access/protection fault, WR flushed).
    RemoteError,
}

/// A successfully posted work request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// QP the work request was posted on.
    pub qp: QpId,
    /// CQ the completion will be raised on (the QP's associated CQ).
    pub cq: CqId,
    /// Simulated instant the shared WQE engine dispatched the work
    /// request (doorbell + engine queueing paid; wire not yet). The
    /// span layer splits each fetch into `nic_queue` (post→issue) and
    /// `wire` (issue→completion) at this instant.
    pub issued_at: SimTime,
    /// Simulated instant the *final* transmission attempt went on the
    /// wire. Equals `issued_at` unless the transport retransmitted;
    /// the span layer renders `[issued_at, wire_start]` as the
    /// retransmission phase.
    pub wire_start: SimTime,
    /// Simulated instant the CQE becomes pollable.
    pub done_at: SimTime,
    /// How the CQE reports (errors are still CQEs: the caller must
    /// consume them with [`RdmaNic::on_cqe`] at `done_at`).
    pub status: CompletionStatus,
    /// RC retransmissions this WR needed (0 on a lossless fabric).
    pub retransmits: u32,
}

impl Completion {
    /// Whether the CQE reports a fatal error.
    pub fn is_error(&self) -> bool {
        self.status != CompletionStatus::Success
    }

    /// Queueing wait in the shared WQE engine: post instant →
    /// dispatch. Zero when the engine was idle.
    pub fn sq_wait(&self, posted_at: SimTime) -> SimDuration {
        self.issued_at.saturating_since(posted_at)
    }

    /// Full send-queue slot residence: post instant → CQE pollable.
    /// The slot itself frees when the CQE is consumed with
    /// [`RdmaNic::on_cqe`], which simulations do at `done_at` — so this
    /// is the per-element wait the queueing observatory records for SQ
    /// occupancy.
    pub fn slot_residence(&self, posted_at: SimTime) -> SimDuration {
        self.done_at.saturating_since(posted_at)
    }
}

#[derive(Debug, Clone)]
struct Qp {
    outstanding: u32,
    cq: CqId,
}

/// Aggregate QP-occupancy accounting at one instant, for computing
/// time-weighted mean occupancy over a measurement window (diff two
/// snapshots and divide by the window).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OccupancySnapshot {
    /// Time integral of total outstanding work requests, in WR × ns.
    pub weighted_ns: u128,
    /// Maximum total outstanding observed since NIC creation.
    pub max: u32,
}

/// The compute-node RNIC together with the RDMA link to the memory node.
#[derive(Debug, Clone)]
pub struct RdmaNic {
    /// Shared, immutable cost constants: the runtime builds one NIC
    /// rail per memnode shard, and all rails reference one allocation
    /// instead of each carrying a private copy.
    params: Rc<FabricParams>,
    engine_free: SimTime,
    qps: Vec<Qp>,
    /// Running Σ `qps[i].outstanding`: `post` and `on_cqe` adjust it, so
    /// the per-fetch occupancy accounting never re-sums the QPs.
    total: u32,
    /// Compute → memory direction (READ requests, WRITE data).
    to_remote: Link,
    /// Memory → compute direction (READ data, WRITE acks).
    from_remote: Link,
    /// Size of the control messages (READ request / WRITE ack).
    ctrl_bytes: u32,
    posted_reads: u64,
    posted_writes: u64,
    /// Time integral of total outstanding WRs (WR × ns), up to
    /// `occ_since`.
    occ_weighted: u128,
    occ_since: SimTime,
    occ_max: u32,
    /// Smoothed round-trip time in ns (RFC 6298), fed from
    /// unretransmitted completions when `params.adaptive_rto` is set.
    srtt_ns: f64,
    /// Round-trip time variance in ns (RFC 6298).
    rttvar_ns: f64,
    /// RTT samples folded into `srtt_ns` so far; zero means the
    /// adaptive timer has no estimate and falls back to `params.rto`.
    rtt_samples: u64,
}

/// Transport timer granularity: the adaptive RTO never arms finer than
/// this (RFC 6298's clock-granularity term `G`).
const RTO_GRANULARITY_NS: u64 = 1_000;

impl RdmaNic {
    /// Creates a NIC with `num_qps` queue pairs; QP *i* initially
    /// completes into CQ *i*.
    ///
    /// Accepts either owned [`FabricParams`] or a pre-shared
    /// `Rc<FabricParams>`; multiple rails built from the same `Rc`
    /// share one parameter allocation.
    pub fn new(params: impl Into<Rc<FabricParams>>, num_qps: u32) -> RdmaNic {
        let params = params.into();
        RdmaNic {
            to_remote: Link::new(&params),
            from_remote: Link::new(&params),
            qps: (0..num_qps)
                .map(|i| Qp {
                    outstanding: 0,
                    cq: CqId(i),
                })
                .collect(),
            total: 0,
            engine_free: SimTime::ZERO,
            ctrl_bytes: 16,
            posted_reads: 0,
            posted_writes: 0,
            occ_weighted: 0,
            occ_since: SimTime::ZERO,
            occ_max: 0,
            srtt_ns: 0.0,
            rttvar_ns: 0.0,
            rtt_samples: 0,
            params,
        }
    }

    /// Accrues occupancy-time up to `now`. Non-monotone timestamps
    /// (worker virtual clocks run slightly ahead of the event clock)
    /// are tolerated by never accruing negative intervals.
    #[inline]
    fn advance_occupancy(&mut self, now: SimTime) {
        if now > self.occ_since {
            let held = self.total_outstanding() as u128;
            self.occ_weighted += held * now.since(self.occ_since).as_nanos() as u128;
            self.occ_since = now;
        }
    }

    /// Re-associates a QP's completions with a different CQ.
    ///
    /// This is the CQ/QP semantic Adios leverages for polling delegation
    /// (§3.4): a CQ can manage multiple QPs.
    pub fn associate_cq(&mut self, qp: QpId, cq: CqId) {
        self.qps[qp.0 as usize].cq = cq;
    }

    /// The backed-off RTO armed after transmission attempt `attempt`
    /// (0 = the original send): base RTO doubling per retry, capped.
    ///
    /// The base is `params.rto` (fixed firmware ladder), or — with
    /// [`FabricParams::adaptive_rto`] on and at least one RTT sample —
    /// `SRTT + max(G, 4·RTTVAR)` per RFC 6298, so a warm transport
    /// detects a lost microsecond-scale fetch in a few µs instead of
    /// the 16 µs minimum the fixed timer imposes.
    fn rto_backoff(&self, attempt: u32) -> SimDuration {
        let base = if self.params.adaptive_rto && self.rtt_samples > 0 {
            let rto = self.srtt_ns + (4.0 * self.rttvar_ns).max(RTO_GRANULARITY_NS as f64);
            (rto.round() as u64).max(RTO_GRANULARITY_NS)
        } else {
            self.params.rto.as_nanos()
        };
        let ns = base.saturating_mul(1u64 << attempt.min(16));
        SimDuration::from_nanos(ns.min(self.params.rto_cap.as_nanos()).max(1))
    }

    /// Folds one RTT measurement into SRTT/RTTVAR (RFC 6298 §2, with
    /// the standard α = 1/8, β = 1/4 gains). Only unretransmitted
    /// exchanges are sampled (Karn's algorithm), which callers enforce.
    fn rtt_sample(&mut self, r: SimDuration) {
        let r = r.as_nanos() as f64;
        if self.rtt_samples == 0 {
            self.srtt_ns = r;
            self.rttvar_ns = r / 2.0;
        } else {
            self.rttvar_ns = 0.75 * self.rttvar_ns + 0.25 * (self.srtt_ns - r).abs();
            self.srtt_ns = 0.875 * self.srtt_ns + 0.125 * r;
        }
        self.rtt_samples += 1;
    }

    /// Smoothed RTT estimate, if the adaptive timer has one.
    pub fn srtt(&self) -> Option<SimDuration> {
        (self.rtt_samples > 0).then(|| SimDuration::from_nanos(self.srtt_ns.round() as u64))
    }

    /// RTT variance estimate, if the adaptive timer has one.
    pub fn rttvar(&self) -> Option<SimDuration> {
        (self.rtt_samples > 0).then(|| SimDuration::from_nanos(self.rttvar_ns.round() as u64))
    }

    /// The base (attempt-0, un-backed-off) RTO the NIC would arm for
    /// the next send: the RFC 6298 estimate once the adaptive timer is
    /// warm, the fixed firmware ladder value otherwise.
    pub fn current_rto(&self) -> SimDuration {
        self.rto_backoff(0)
    }

    /// Extra one-way cost a degraded link adds on top of a FIFO
    /// transmit: the slowed-down share of serialization plus added
    /// latency. Zero (exactly) on a healthy link.
    #[inline]
    fn degrade_extra(&self, bytes: u32, pen: &faults::LinkPenalty) -> SimDuration {
        if pen.bw_factor <= 1.0 && pen.extra_latency == SimDuration::ZERO {
            return SimDuration::ZERO;
        }
        let base = self.params.serialize(bytes).as_nanos() as f64;
        let slow = (base * (pen.bw_factor - 1.0)).max(0.0).round() as u64;
        SimDuration::from_nanos(slow) + pen.extra_latency
    }

    /// Full analytic one-way cost of a retransmitted packet (which
    /// bypasses the link FIFO): degraded serialization + propagation +
    /// added latency.
    fn retransmit_leg(&self, bytes: u32, pen: &faults::LinkPenalty) -> SimDuration {
        let base = self.params.serialize(bytes).as_nanos() as f64;
        let ser = (base * pen.bw_factor.max(1.0)).round() as u64;
        SimDuration::from_nanos(ser.max(1)) + self.params.propagation + pen.extra_latency
    }

    /// Posts a one-sided verb of `bytes` payload on `qp` at `now`.
    ///
    /// On success, the QP's outstanding count rises by one; the caller
    /// must call [`RdmaNic::on_cqe`] when simulated time reaches
    /// `done_at` (i.e. when it processes the completion event) — for
    /// error completions too, since errors are still CQEs.
    ///
    /// `plane` injects faults; with [`FaultPlane::inert`] the transfer
    /// timing is bit-identical to the lossless model (no rng draws, no
    /// penalties).
    #[allow(clippy::too_many_arguments)]
    pub fn post(
        &mut self,
        now: SimTime,
        qp: QpId,
        verb: Verb,
        page: u64,
        bytes: u32,
        mem: &mut MemNode,
        plane: &mut FaultPlane,
    ) -> Result<Completion, PostError> {
        if self.qps[qp.0 as usize].outstanding >= self.params.qp_depth {
            return Err(PostError::QpFull);
        }
        self.advance_occupancy(now);
        let q = &mut self.qps[qp.0 as usize];
        q.outstanding += 1;
        let cq = q.cq;
        self.total += 1;
        self.occ_max = self.occ_max.max(self.total);

        // Doorbell + shared WQE engine (single FIFO server).
        let ready = now + self.params.doorbell;
        self.engine_free = self.engine_free.max(ready) + self.params.nic_engine;
        let dispatched = self.engine_free;

        let (out_bytes, in_bytes) = match verb {
            Verb::Read => {
                self.posted_reads += 1;
                (self.ctrl_bytes, bytes)
            }
            Verb::Write => {
                self.posted_writes += 1;
                (bytes, self.ctrl_bytes)
            }
        };

        // RC transfer: each attempt sends the outbound leg, the remote
        // serves it, and the inbound leg returns. A loss anywhere means
        // no CQE — the transport waits out the (backed-off) RTO and
        // retransmits, up to the retry budget. Attempt 0 rides the
        // normal FIFO resources; retransmissions happen an RTO later in
        // transport hardware and are charged analytically (see
        // `Link::account`).
        let mut attempt: u32 = 0;
        let mut send_at = dispatched;
        let (status, done_at) = loop {
            let retx = attempt > 0;
            let out_pen = plane.link_penalty(send_at);
            let out_arrive = if retx {
                self.to_remote.account(out_bytes);
                send_at + self.retransmit_leg(out_bytes, &out_pen)
            } else {
                let arrive = self.to_remote.transmit(send_at, out_bytes);
                arrive + self.degrade_extra(out_bytes, &out_pen)
            };
            let delivered = !plane.packet_lost(send_at)
                && plane.node_health(mem.id(), out_arrive) != NodeHealth::Down;
            if delivered {
                match verb {
                    Verb::Read => mem.serve_read(page),
                    Verb::Write => mem.serve_write(page),
                }
                let stall = match plane.node_health(mem.id(), out_arrive) {
                    NodeHealth::Stalled(d) => d,
                    _ => SimDuration::ZERO,
                };
                let resp_ready = out_arrive + self.params.remote_processing + stall;
                let in_pen = plane.link_penalty(resp_ready);
                let resp_here = if retx {
                    self.from_remote.account(in_bytes);
                    resp_ready + self.retransmit_leg(in_bytes, &in_pen)
                } else {
                    let arrive = self.from_remote.transmit(resp_ready, in_bytes);
                    arrive + self.degrade_extra(in_bytes, &in_pen)
                };
                if !plane.packet_lost(resp_ready) {
                    let done = resp_here + self.params.local_dma;
                    let status = if plane.cqe_error(done) {
                        CompletionStatus::RemoteError
                    } else {
                        CompletionStatus::Success
                    };
                    break (status, done);
                }
            }
            // No ACK: wait out the RTO armed at send time, then either
            // retransmit or give up with a fatal CQE.
            let timeout_at = send_at + self.rto_backoff(attempt);
            if attempt >= self.params.rc_retries {
                break (CompletionStatus::RetryExceeded, timeout_at);
            }
            send_at = timeout_at;
            attempt += 1;
        };
        // Feed the adaptive timer from delivered, unretransmitted
        // exchanges only (Karn's algorithm): `done_at - send_at` is the
        // true wire round-trip of the attempt that produced the CQE.
        if self.params.adaptive_rto && attempt == 0 && status != CompletionStatus::RetryExceeded {
            self.rtt_sample(done_at.since(send_at));
        }
        Ok(Completion {
            qp,
            cq,
            issued_at: dispatched,
            wire_start: send_at,
            done_at,
            status,
            retransmits: attempt,
        })
    }

    /// Consumes a completion at `now`: decrements the QP's outstanding
    /// count and accrues occupancy-time.
    ///
    /// Must be called in completion-time order (the runtime processes
    /// completion events through its time-ordered queue, which
    /// guarantees this).
    ///
    /// # Panics
    ///
    /// Panics if the QP has no outstanding request.
    #[inline]
    pub fn on_cqe(&mut self, now: SimTime, qp: QpId) {
        self.advance_occupancy(now);
        let q = &mut self.qps[qp.0 as usize];
        assert!(q.outstanding > 0, "CQE for idle QP {qp:?}");
        q.outstanding -= 1;
        self.total -= 1;
    }

    /// Takes an occupancy snapshot at `now` (see [`OccupancySnapshot`]).
    pub fn occupancy(&self, now: SimTime) -> OccupancySnapshot {
        let mut weighted = self.occ_weighted;
        if now > self.occ_since {
            weighted +=
                self.total_outstanding() as u128 * now.since(self.occ_since).as_nanos() as u128;
        }
        OccupancySnapshot {
            weighted_ns: weighted,
            max: self.occ_max,
        }
    }

    /// Outstanding work requests on `qp` (the PF-aware dispatch signal).
    #[inline]
    pub fn outstanding(&self, qp: QpId) -> u32 {
        self.qps[qp.0 as usize].outstanding
    }

    /// Total outstanding work requests across all QPs.
    #[inline]
    pub fn total_outstanding(&self) -> u32 {
        debug_assert_eq!(
            self.total,
            self.qps.iter().map(|q| q.outstanding).sum::<u32>()
        );
        self.total
    }

    /// The memory→compute direction (carries fetched pages); its
    /// utilisation is "RDMA link utilisation" in Figures 2e / 7e.
    pub fn data_link(&self) -> &Link {
        &self.from_remote
    }

    /// The compute→memory direction (carries write-backs + requests).
    pub fn ctrl_link(&self) -> &Link {
        &self.to_remote
    }

    /// READ work requests posted so far.
    pub fn posted_reads(&self) -> u64 {
        self.posted_reads
    }

    /// WRITE work requests posted so far.
    pub fn posted_writes(&self) -> u64 {
        self.posted_writes
    }

    /// Number of queue pairs.
    pub fn num_qps(&self) -> u32 {
        self.qps.len() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faults::FaultScenario;

    fn setup() -> (RdmaNic, MemNode) {
        (
            RdmaNic::new(FabricParams::default(), 8),
            MemNode::new(1 << 20, 4096),
        )
    }

    fn inert() -> FaultPlane {
        FaultPlane::inert()
    }

    /// A scenario whose every packet is lost (loss probability 1).
    fn black_hole() -> FaultPlane {
        FaultPlane::new(
            FaultScenario {
                name: "black-hole",
                loss: 1.0,
                corrupt: 0.0,
                cqe_error: 0.0,
                episodes: Vec::new(),
            },
            1,
        )
    }

    #[test]
    fn unloaded_read_completes_in_paper_window() {
        let (mut nic, mut mem) = setup();
        let c = nic
            .post(
                SimTime(0),
                QpId(0),
                Verb::Read,
                7,
                4096,
                &mut mem,
                &mut inert(),
            )
            .unwrap();
        let us = c.done_at.as_nanos() as f64 / 1000.0;
        assert!((1.9..=3.1).contains(&us), "fetch = {us} us");
        assert_eq!(c.cq, CqId(0));
        assert_eq!(mem.reads(), 1);
    }

    #[test]
    fn outstanding_tracks_posts_and_cqes() {
        let (mut nic, mut mem) = setup();
        nic.post(
            SimTime(0),
            QpId(2),
            Verb::Read,
            0,
            4096,
            &mut mem,
            &mut inert(),
        )
        .unwrap();
        nic.post(
            SimTime(0),
            QpId(2),
            Verb::Read,
            1,
            4096,
            &mut mem,
            &mut inert(),
        )
        .unwrap();
        assert_eq!(nic.outstanding(QpId(2)), 2);
        assert_eq!(nic.total_outstanding(), 2);
        nic.on_cqe(SimTime(5_000), QpId(2));
        assert_eq!(nic.outstanding(QpId(2)), 1);
    }

    #[test]
    fn qp_depth_enforced() {
        let params = FabricParams {
            qp_depth: 2,
            ..FabricParams::default()
        };
        let mut nic = RdmaNic::new(params, 1);
        let mut mem = MemNode::new(100, 4096);
        nic.post(
            SimTime(0),
            QpId(0),
            Verb::Read,
            0,
            4096,
            &mut mem,
            &mut inert(),
        )
        .unwrap();
        nic.post(
            SimTime(0),
            QpId(0),
            Verb::Read,
            1,
            4096,
            &mut mem,
            &mut inert(),
        )
        .unwrap();
        let err = nic.post(
            SimTime(0),
            QpId(0),
            Verb::Read,
            2,
            4096,
            &mut mem,
            &mut inert(),
        );
        assert_eq!(err, Err(PostError::QpFull));
        // A CQE frees a slot.
        nic.on_cqe(SimTime(5_000), QpId(0));
        assert!(nic
            .post(
                SimTime(0),
                QpId(0),
                Verb::Read,
                2,
                4096,
                &mut mem,
                &mut inert()
            )
            .is_ok());
    }

    #[test]
    fn engine_is_shared_across_qps() {
        let (mut nic, mut mem) = setup();
        let a = nic
            .post(
                SimTime(0),
                QpId(0),
                Verb::Read,
                0,
                4096,
                &mut mem,
                &mut inert(),
            )
            .unwrap();
        let b = nic
            .post(
                SimTime(0),
                QpId(1),
                Verb::Read,
                1,
                4096,
                &mut mem,
                &mut inert(),
            )
            .unwrap();
        // Both pay engine + wire queueing; the second completes later.
        assert!(b.done_at > a.done_at);
    }

    #[test]
    fn cq_reassociation_routes_completions() {
        let (mut nic, mut mem) = setup();
        nic.associate_cq(QpId(3), CqId(0));
        let c = nic
            .post(
                SimTime(0),
                QpId(3),
                Verb::Read,
                0,
                4096,
                &mut mem,
                &mut inert(),
            )
            .unwrap();
        assert_eq!(c.cq, CqId(0));
        assert_eq!(c.qp, QpId(3));
    }

    #[test]
    fn writes_load_outbound_direction() {
        let (mut nic, mut mem) = setup();
        let before_out = nic.ctrl_link().snapshot();
        let before_in = nic.data_link().snapshot();
        nic.post(
            SimTime(0),
            QpId(0),
            Verb::Write,
            9,
            4096,
            &mut mem,
            &mut inert(),
        )
        .unwrap();
        let d_out = nic.ctrl_link().snapshot().bytes - before_out.bytes;
        let d_in = nic.data_link().snapshot().bytes - before_in.bytes;
        assert!(d_out > 4096, "page travels outbound");
        assert!(d_in < 256, "only the ack returns");
        assert_eq!(mem.writes(), 1);
    }

    #[test]
    fn reads_load_inbound_direction() {
        let (mut nic, mut mem) = setup();
        let before = nic.data_link().snapshot();
        for p in 0..10 {
            nic.post(
                SimTime(0),
                QpId(0),
                Verb::Read,
                p,
                4096,
                &mut mem,
                &mut inert(),
            )
            .unwrap();
        }
        let after = nic.data_link().snapshot();
        assert_eq!(after.bytes - before.bytes, 10 * (4096 + 78));
        assert_eq!(nic.posted_reads(), 10);
    }

    #[test]
    fn back_to_back_reads_pipeline_on_the_wire() {
        // With many outstanding READs, completions are spaced by the data
        // serialization time (the link is the bottleneck), demonstrating
        // the concurrency yield-based handling unlocks.
        let (mut nic, mut mem) = setup();
        let mut last = SimTime::ZERO;
        let mut gaps = Vec::new();
        for p in 0..20 {
            let c = nic
                .post(
                    SimTime(0),
                    QpId((p % 8) as u32),
                    Verb::Read,
                    p,
                    4096,
                    &mut mem,
                    &mut inert(),
                )
                .unwrap();
            if p > 10 {
                gaps.push(c.done_at.since(last));
            }
            last = c.done_at;
        }
        for g in gaps {
            // Bottleneck spacing: the WQE engine (400 ns) or the data
            // serialization (~334 ns), whichever binds.
            assert!(
                g <= SimDuration::from_nanos(410),
                "steady-state gap {g} should be ~ one engine slot"
            );
        }
    }

    #[test]
    fn issued_at_splits_queue_from_wire() {
        let (mut nic, mut mem) = setup();
        let a = nic
            .post(
                SimTime(0),
                QpId(0),
                Verb::Read,
                0,
                4096,
                &mut mem,
                &mut inert(),
            )
            .unwrap();
        // Doorbell + engine paid before dispatch; wire after.
        assert!(a.issued_at > SimTime(0));
        assert!(a.issued_at < a.done_at);
        // A second post queues behind the first in the shared engine.
        let b = nic
            .post(
                SimTime(0),
                QpId(1),
                Verb::Read,
                1,
                4096,
                &mut mem,
                &mut inert(),
            )
            .unwrap();
        assert!(b.issued_at > a.issued_at);
    }

    #[test]
    #[should_panic(expected = "CQE for idle QP")]
    fn spurious_cqe_panics() {
        let (mut nic, _) = setup();
        nic.on_cqe(SimTime(0), QpId(0));
    }

    #[test]
    fn occupancy_is_time_weighted() {
        let (mut nic, mut mem) = setup();
        // Two WRs held from t=0; one retires at t=1000, the other at
        // t=3000. Integral = 2*1000 + 1*2000 = 4000 WR·ns.
        nic.post(
            SimTime(0),
            QpId(0),
            Verb::Read,
            0,
            4096,
            &mut mem,
            &mut inert(),
        )
        .unwrap();
        nic.post(
            SimTime(0),
            QpId(1),
            Verb::Read,
            1,
            4096,
            &mut mem,
            &mut inert(),
        )
        .unwrap();
        nic.on_cqe(SimTime(1_000), QpId(0));
        nic.on_cqe(SimTime(3_000), QpId(1));
        let occ = nic.occupancy(SimTime(3_000));
        assert_eq!(occ.weighted_ns, 4_000);
        assert_eq!(occ.max, 2);
        // Idle afterwards: the integral stops growing.
        assert_eq!(nic.occupancy(SimTime(10_000)).weighted_ns, 4_000);
    }

    #[test]
    fn lossless_post_reports_success_with_no_retransmits() {
        let (mut nic, mut mem) = setup();
        let c = nic
            .post(
                SimTime(0),
                QpId(0),
                Verb::Read,
                7,
                4096,
                &mut mem,
                &mut inert(),
            )
            .unwrap();
        assert_eq!(c.status, CompletionStatus::Success);
        assert_eq!(c.retransmits, 0);
        assert_eq!(c.wire_start, c.issued_at);
        assert!(!c.is_error());
    }

    #[test]
    fn black_hole_exhausts_retry_budget_with_backoff() {
        let (mut nic, mut mem) = setup();
        let mut plane = black_hole();
        let c = nic
            .post(
                SimTime(0),
                QpId(0),
                Verb::Read,
                7,
                4096,
                &mut mem,
                &mut plane,
            )
            .unwrap();
        assert_eq!(c.status, CompletionStatus::RetryExceeded);
        assert!(c.is_error());
        assert_eq!(c.retransmits, FabricParams::default().rc_retries);
        // 16 + 32 + 64 + 128 + 4×256 µs of backed-off RTOs.
        let elapsed = c.done_at.since(c.issued_at).as_nanos();
        assert_eq!(elapsed, 1_264_000, "RTO ladder = {elapsed} ns");
        assert!(c.wire_start > c.issued_at);
        // No request ever reached the node.
        assert_eq!(mem.reads(), 0);
        // The QP slot is held until the error CQE is consumed.
        assert_eq!(nic.outstanding(QpId(0)), 1);
        nic.on_cqe(c.done_at, QpId(0));
        assert_eq!(nic.outstanding(QpId(0)), 0);
    }

    #[test]
    fn adaptive_rto_without_samples_matches_legacy_ladder() {
        // Cold transport: no successful completion has ever been seen,
        // so the adaptive timer has no estimate and must fall back to
        // the exact fixed ladder (byte-identity with the knob off).
        let params = FabricParams {
            adaptive_rto: true,
            ..FabricParams::default()
        };
        let mut nic = RdmaNic::new(params, 8);
        let mut mem = MemNode::new(1 << 20, 4096);
        let c = nic
            .post(
                SimTime(0),
                QpId(0),
                Verb::Read,
                7,
                4096,
                &mut mem,
                &mut black_hole(),
            )
            .unwrap();
        assert_eq!(c.status, CompletionStatus::RetryExceeded);
        assert_eq!(c.done_at.since(c.issued_at).as_nanos(), 1_264_000);
        assert!(nic.srtt().is_none());
    }

    #[test]
    fn adaptive_rto_warm_transport_times_out_in_microseconds() {
        // Three retries keep the 256 µs backoff cap out of the picture,
        // so the elapsed ladder reflects the adaptive base directly.
        let params = FabricParams {
            adaptive_rto: true,
            rc_retries: 3,
            ..FabricParams::default()
        };
        let mut nic = RdmaNic::new(params, 8);
        let mut mem = MemNode::new(1 << 20, 4096);
        // Warm SRTT/RTTVAR with a few clean fetches (~2.3 µs each).
        let mut t = SimTime(0);
        for page in 0..4 {
            let c = nic
                .post(t, QpId(0), Verb::Read, page, 4096, &mut mem, &mut inert())
                .unwrap();
            nic.on_cqe(c.done_at, QpId(0));
            t = c.done_at + SimDuration::from_micros(1);
        }
        let srtt = nic.srtt().expect("warm transport has an RTT estimate");
        assert!(
            (1_500..=3_500).contains(&srtt.as_nanos()),
            "srtt = {srtt:?}"
        );
        // A black-holed fetch now exhausts the retry budget far faster
        // than the fixed 16 µs base would: the legacy ladder with three
        // retries is 16+32+64+128 = 240 µs, the adaptive one runs off
        // a ~5 µs base.
        let c = nic
            .post(
                t,
                QpId(0),
                Verb::Read,
                99,
                4096,
                &mut mem,
                &mut black_hole(),
            )
            .unwrap();
        assert_eq!(c.status, CompletionStatus::RetryExceeded);
        assert_eq!(c.retransmits, 3);
        let elapsed = c.done_at.since(c.issued_at).as_nanos();
        assert!(
            elapsed < 120_000,
            "adaptive ladder = {elapsed} ns, expected well under the 240 µs fixed ladder"
        );
        // Retransmitted (ambiguous) exchanges never feed the estimator.
        let srtt_after = nic.srtt().unwrap();
        assert_eq!(srtt, srtt_after);
    }

    #[test]
    fn retransmissions_account_wasted_bandwidth_without_fifo_distortion() {
        let (mut nic, mut mem) = setup();
        let before = nic.ctrl_link().snapshot();
        let free_before = nic.ctrl_link().next_free();
        let c = nic
            .post(
                SimTime(0),
                QpId(0),
                Verb::Read,
                7,
                4096,
                &mut mem,
                &mut black_hole(),
            )
            .unwrap();
        let after = nic.ctrl_link().snapshot();
        // Original + every retransmission consumed request-sized bytes.
        assert_eq!(after.messages - before.messages, 1 + c.retransmits as u64);
        // Only the original send moved the FIFO head (to the end of its
        // own ~8 ns serialization at dispatch) — not out to the RTO
        // ladder a transmit-per-retry would imply.
        let free_after = nic.ctrl_link().next_free();
        assert!(free_after > free_before);
        assert!(
            free_after < c.issued_at + SimDuration::from_nanos(100),
            "FIFO head at {free_after:?} distorted by retransmissions"
        );
    }

    #[test]
    fn node_down_is_indistinguishable_from_loss_and_replica_survives() {
        let params = FabricParams::default();
        let mut plane = FaultPlane::new(FaultScenario::crash(), 3);
        let t = SimTime(20_000_000); // inside the outage window
        let mut primary = MemNode::new(1 << 20, 4096); // id 0: down
        let mut nic = RdmaNic::new(params.clone(), 8);
        let c = nic
            .post(t, QpId(0), Verb::Read, 7, 4096, &mut primary, &mut plane)
            .unwrap();
        assert_eq!(c.status, CompletionStatus::RetryExceeded);
        assert_eq!(primary.reads(), 0);
        nic.on_cqe(c.done_at, QpId(0));

        let mut replica = MemNode::new(1 << 20, 4096).with_id(1);
        let c2 = nic
            .post(t, QpId(0), Verb::Read, 7, 4096, &mut replica, &mut plane)
            .unwrap();
        assert_eq!(c2.status, CompletionStatus::Success);
        assert_eq!(c2.retransmits, 0);
        assert_eq!(replica.reads(), 1);
    }

    #[test]
    fn node_stall_delays_the_response() {
        let mut healthy = inert();
        let mut plane = FaultPlane::new(FaultScenario::stall(), 3);
        let t = SimTime(3_200_000); // inside a stall window
        let (mut nic_a, mut mem_a) = setup();
        let base = nic_a
            .post(t, QpId(0), Verb::Read, 7, 4096, &mut mem_a, &mut healthy)
            .unwrap();
        let (mut nic_b, mut mem_b) = setup();
        let stalled = nic_b
            .post(t, QpId(0), Verb::Read, 7, 4096, &mut mem_b, &mut plane)
            .unwrap();
        assert_eq!(stalled.status, CompletionStatus::Success);
        assert_eq!(
            stalled.done_at.since(base.done_at),
            SimDuration::from_micros(50)
        );
    }

    #[test]
    fn injected_cqe_error_is_fatal_but_on_time() {
        let (mut nic, mut mem) = setup();
        let mut plane = FaultPlane::new(
            FaultScenario {
                name: "poison",
                loss: 0.0,
                corrupt: 0.0,
                cqe_error: 1.0,
                episodes: Vec::new(),
            },
            1,
        );
        let c = nic
            .post(
                SimTime(0),
                QpId(0),
                Verb::Read,
                7,
                4096,
                &mut mem,
                &mut plane,
            )
            .unwrap();
        assert_eq!(c.status, CompletionStatus::RemoteError);
        assert_eq!(c.retransmits, 0);
        // The data transfer itself completed (and was served) on time.
        assert_eq!(mem.reads(), 1);
        let us = c.done_at.as_nanos() as f64 / 1000.0;
        assert!((1.9..=3.1).contains(&us), "fetch = {us} us");
    }

    #[test]
    fn degraded_link_window_slows_the_transfer() {
        let mut plane = FaultPlane::new(
            FaultScenario {
                name: "degraded",
                loss: 0.0,
                corrupt: 0.0,
                cqe_error: 0.0,
                episodes: vec![faults::Episode {
                    start: SimTime(0),
                    end: SimTime(1_000_000),
                    kind: faults::EpisodeKind::LinkDegraded {
                        extra_latency: SimDuration::from_micros(2),
                        bw_factor: 2.0,
                        loss: 0.0,
                    },
                }],
            },
            1,
        );
        let (mut nic_a, mut mem_a) = setup();
        let base = nic_a
            .post(
                SimTime(0),
                QpId(0),
                Verb::Read,
                7,
                4096,
                &mut mem_a,
                &mut inert(),
            )
            .unwrap();
        let (mut nic_b, mut mem_b) = setup();
        let slow = nic_b
            .post(
                SimTime(0),
                QpId(0),
                Verb::Read,
                7,
                4096,
                &mut mem_b,
                &mut plane,
            )
            .unwrap();
        // Both legs pay +2 µs latency; the data leg also pays ~334 ns of
        // halved bandwidth, the request leg a few ns.
        let extra = slow.done_at.since(base.done_at).as_nanos();
        assert!((4_300..4_500).contains(&extra), "extra = {extra} ns");
    }

    /// The running total is a shortcut for Σ `outstanding(qp)`; hold it
    /// to that sum (and the occupancy integral and maximum derived from
    /// it to a scalar model) after every step of a seeded random
    /// post/CQE sequence — in release builds too, where the
    /// `debug_assert` inside `total_outstanding` is compiled out.
    /// Covers `QpFull` rejections, error CQEs (lossy link with no retry
    /// budget) and the write-back / failover QPs past the worker range.
    #[test]
    fn running_total_equals_per_qp_sum_on_random_sequences() {
        const WORKERS: u32 = 8;
        const QPS: u32 = WORKERS + 2; // + write-back, + failover
        let params = FabricParams {
            qp_depth: 4,
            rc_retries: 0,
            ..FabricParams::default()
        };
        let mut nic = RdmaNic::new(params, QPS);
        let mut mem = MemNode::new(1 << 20, 4096);
        let mut plane = FaultPlane::new(FaultScenario::lossy(), 7);
        let mut rng = desim::Rng::new(0x70_7A1);
        let mut now = SimTime::ZERO;
        // Scalar model: completions in flight, occupancy integral, maximum.
        let mut inflight: Vec<(SimTime, QpId)> = Vec::new();
        let (mut weighted, mut since, mut max) = (0u128, SimTime::ZERO, 0u32);
        let (mut rejected, mut errors) = (0u32, 0u32);
        for _ in 0..20_000 {
            let post = inflight.is_empty() || rng.gen_range(100) < 55;
            // Either post a little later, or consume the earliest
            // completion (as the runtime does) when it surfaces.
            let cqe = if post {
                now += SimDuration::from_nanos(rng.gen_range(1_500));
                None
            } else {
                let i = (0..inflight.len()).min_by_key(|&i| inflight[i].0).unwrap();
                let (done_at, qp) = inflight.swap_remove(i);
                now = now.max(done_at);
                Some(qp)
            };
            let held = inflight.len() as u128 + cqe.is_some() as u128;
            weighted += held * now.since(since).as_nanos() as u128;
            since = now;
            if let Some(qp) = cqe {
                nic.on_cqe(now, qp);
            } else {
                let qp = QpId(rng.gen_range(QPS as u64) as u32);
                let verb = if qp.0 == WORKERS {
                    Verb::Write
                } else {
                    Verb::Read
                };
                let page = rng.gen_range(1 << 20);
                match nic.post(now, qp, verb, page, 4096, &mut mem, &mut plane) {
                    Ok(c) => {
                        errors += c.is_error() as u32;
                        inflight.push((c.done_at, qp));
                        max = max.max(inflight.len() as u32);
                    }
                    Err(PostError::QpFull) => {
                        assert_eq!(nic.outstanding(qp), 4);
                        rejected += 1;
                    }
                }
            }
            let sum: u32 = (0..QPS).map(|q| nic.outstanding(QpId(q))).sum();
            assert_eq!(nic.total_outstanding(), sum);
            assert_eq!(sum as usize, inflight.len());
            assert_eq!(
                nic.occupancy(now),
                OccupancySnapshot {
                    weighted_ns: weighted,
                    max
                }
            );
        }
        assert!(rejected > 50, "QpFull never exercised: {rejected}");
        assert!(errors > 50, "error CQEs never exercised: {errors}");
        assert!(now > SimTime(5_000_000), "never reached the lossy spike");
    }
}
