//! Raw-Ethernet client path.
//!
//! The load generator and the compute node exchange UDP-style request/
//! reply packets over a dedicated 100 GbE link using the Raw Ethernet
//! feature of libibverbs (§4 of the paper). The feature the evaluation
//! relies on — NIC hardware timestamps on TX and RX completion
//! descriptors — is modelled by returning wire-accurate delivery times,
//! which the load generator records as its RX timestamps.

use desim::SimTime;

use crate::link::Link;
use crate::params::{FabricParams, ETH_TX_COMPLETION, ETH_TX_ENGINE};

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
}

impl EthPort {
    /// Creates the port from the shared fabric parameters.
    pub fn new(params: &FabricParams) -> EthPort {
        EthPort {
            ingress: Link::new(params),
            egress: Link::new(params),
            tx_engine_free: SimTime::ZERO,
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
        self.tx_engine_free = self.tx_engine_free.max(now) + ETH_TX_ENGINE;
        let client_rx_at = self.egress.transmit(self.tx_engine_free, bytes);
        // The local CQE is raised once the frame has left the port.
        let cqe_at = self.egress.next_free() + ETH_TX_COMPLETION;
        TxResult {
            cqe_at,
            client_rx_at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
