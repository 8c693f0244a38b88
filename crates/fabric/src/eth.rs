//! Raw-Ethernet client path.
//!
//! The load generator and the compute node exchange UDP-style request/
//! reply packets over a dedicated 100 GbE link using the Raw Ethernet
//! feature of libibverbs (§4 of the paper). The feature the evaluation
//! relies on — NIC hardware timestamps on TX and RX completion
//! descriptors — is modelled by returning wire-accurate delivery times,
//! which the load generator records as its RX timestamps.

use std::collections::VecDeque;

use desim::SimTime;

use crate::link::Link;
use crate::params::FabricParams;

/// Bounded RX descriptor ring; packets arriving to a full ring are
/// dropped (this is where offered-load beyond saturation disappears in
/// Figure 2d).
#[derive(Debug)]
pub struct RxRing<T> {
    ring: VecDeque<T>,
    capacity: usize,
    drops: u64,
}

impl<T> RxRing<T> {
    /// Creates a ring with `capacity` descriptors.
    pub fn new(capacity: usize) -> RxRing<T> {
        RxRing {
            ring: VecDeque::with_capacity(capacity),
            capacity,
            drops: 0,
        }
    }

    /// Posts a received packet; returns `false` (and counts a drop) if
    /// the ring is full.
    pub fn push(&mut self, item: T) -> bool {
        if self.ring.len() >= self.capacity {
            self.drops += 1;
            false
        } else {
            self.ring.push_back(item);
            true
        }
    }

    /// Takes the oldest packet.
    pub fn pop(&mut self) -> Option<T> {
        self.ring.pop_front()
    }

    /// Packets currently queued.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Packets dropped because the ring was full.
    pub fn drops(&self) -> u64 {
        self.drops
    }
}

/// The reply-transmission result.
#[derive(Debug, Clone, Copy)]
pub struct TxResult {
    /// When the TX completion (CQE) becomes pollable at the compute node
    /// — the signal polling delegation redirects to the dispatcher's CQ.
    pub cqe_at: SimTime,
    /// When the reply is fully received by the load generator's NIC;
    /// this is the hardware RX timestamp used for end-to-end latency.
    pub client_rx_at: SimTime,
}

/// The compute-node Ethernet port (client-facing).
#[derive(Debug)]
pub struct EthPort {
    /// Load generator → compute node direction.
    ingress: Link,
    /// Compute node → load generator direction.
    egress: Link,
    tx_engine_free: SimTime,
    tx_engine_cost: desim::SimDuration,
    cqe_cost: desim::SimDuration,
}

impl EthPort {
    /// Creates the port from the shared fabric parameters.
    pub fn new(params: &FabricParams) -> EthPort {
        EthPort {
            ingress: Link::new(params),
            egress: Link::new(params),
            tx_engine_free: SimTime::ZERO,
            tx_engine_cost: params.eth_tx_engine,
            cqe_cost: params.eth_tx_completion,
        }
    }

    /// Carries a client request put on the wire at `now` (the load
    /// generator's hardware TX timestamp); returns when it lands in the
    /// compute node's RX ring.
    #[inline]
    pub fn deliver_request(&mut self, now: SimTime, bytes: u32) -> SimTime {
        self.ingress.transmit(now, bytes)
    }

    /// Transmits a reply posted by a worker at `now`.
    #[inline]
    pub fn send_reply(&mut self, now: SimTime, bytes: u32) -> TxResult {
        self.tx_engine_free = self.tx_engine_free.max(now) + self.tx_engine_cost;
        let client_rx_at = self.egress.transmit(self.tx_engine_free, bytes);
        // The local CQE is raised once the frame has left the port.
        let cqe_at = self.egress.next_free() + self.cqe_cost;
        TxResult {
            cqe_at,
            client_rx_at,
        }
    }

    /// The ingress (request) direction.
    pub fn ingress(&self) -> &Link {
        &self.ingress
    }

    /// The egress (reply) direction.
    pub fn egress(&self) -> &Link {
        &self.egress
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rx_ring_bounds_and_drops() {
        let mut r = RxRing::new(2);
        assert!(r.push(1));
        assert!(r.push(2));
        assert!(!r.push(3));
        assert_eq!(r.drops(), 1);
        assert_eq!(r.pop(), Some(1));
        assert!(r.push(3));
        assert_eq!(r.len(), 2);
        assert_eq!(r.pop(), Some(2));
        assert_eq!(r.pop(), Some(3));
        assert!(r.is_empty());
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn request_delivery_has_wire_latency() {
        let mut p = EthPort::new(&FabricParams::default());
        let arrival = p.deliver_request(SimTime(0), 100);
        // ser((100+78)*8 bits at 100 Gbps) ≈ 15 ns + 300 ns propagation.
        assert!((310..=330).contains(&arrival.as_nanos()), "{arrival:?}");
    }

    #[test]
    fn reply_cqe_after_frame_leaves() {
        let mut p = EthPort::new(&FabricParams::default());
        let tx = p.send_reply(SimTime(1_000), 1024);
        // The local CQE needs a PCIe completion round trip after the
        // frame leaves; the client's RX lands before it.
        assert!(tx.cqe_at > tx.client_rx_at);
        assert!(
            tx.cqe_at.as_nanos() - tx.client_rx_at.as_nanos() >= 500,
            "TX completion is what a non-delegating worker spins on"
        );
    }

    #[test]
    fn replies_share_the_tx_engine() {
        let mut p = EthPort::new(&FabricParams::default());
        let a = p.send_reply(SimTime(0), 128);
        let b = p.send_reply(SimTime(0), 128);
        assert!(b.client_rx_at > a.client_rx_at);
    }

    #[test]
    fn directions_are_independent() {
        let mut p = EthPort::new(&FabricParams::default());
        // Saturate egress; ingress latency must not change.
        for _ in 0..100 {
            p.send_reply(SimTime(0), 4096);
        }
        let arrival = p.deliver_request(SimTime(0), 100);
        assert!(arrival.as_nanos() < 400);
    }
}
