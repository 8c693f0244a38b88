//! Fabric cost constants.
//!
//! Costs are calibrated to the paper's testbed (ConnectX-6 Dx 100 GbE,
//! PCIe-attached, 4 KB pages) and to the latency components the paper
//! itself publishes: an unloaded 4 KB one-sided READ lands at ≈2.3 µs,
//! inside the 2–3 µs the paper quotes (§3, refs [29, 64, 66]). The
//! testbed is fixed, so every cost no experiment varies is a named
//! constant; [`FabricParams`] carries only the five knobs a caller sets.

use desim::SimDuration;

/// One-way propagation + switching delay per link.
pub const PROPAGATION: SimDuration = SimDuration::from_nanos(300);
/// Wire overhead added to every message (Ethernet + IP + UDP + BTH/
/// RETH + ICRC + FCS for RoCE; Ethernet framing for raw packets).
pub const WIRE_OVERHEAD_BYTES: u32 = 78;
/// MMIO doorbell + PCIe posting cost paid by the CPU per work request.
pub const DOORBELL: SimDuration = SimDuration::from_nanos(100);
/// Shared NIC work-queue-engine occupancy per WQE. This is the
/// resource the paper blames for Memcached's throughput ceiling ("the
/// NIC could not match the host's processing power", §5.2).
pub const NIC_ENGINE: SimDuration = SimDuration::from_nanos(400);
/// Memory-node-side NIC processing + host DMA per request.
pub const REMOTE_PROCESSING: SimDuration = SimDuration::from_nanos(600);
/// Compute-node-side DMA write + CQE generation on response arrival.
pub const LOCAL_DMA: SimDuration = SimDuration::from_nanos(250);
/// Cap on the exponentially backed-off RTO.
pub const RTO_CAP: SimDuration = SimDuration::from_micros(256);
/// RX descriptor ring size of the Ethernet port.
pub const RX_RING_ENTRIES: usize = 4096;
/// TX engine occupancy per Ethernet transmit.
pub const ETH_TX_ENGINE: SimDuration = SimDuration::from_nanos(150);
/// Delay from a frame leaving the port to its TX CQE being pollable
/// (descriptor fetch + completion DMA over PCIe). This is what a
/// non-delegating worker busy-waits on.
pub const ETH_TX_COMPLETION: SimDuration = SimDuration::from_nanos(1_000);

/// The fabric knobs a caller varies; every other cost is a constant of
/// this module.
#[derive(Debug, Clone, Copy)]
pub struct FabricParams {
    /// Link bandwidth in bits per second (100 GbE).
    pub link_bandwidth_bps: u64,
    /// Send-queue depth per QP (maximum outstanding work requests).
    pub qp_depth: u32,
    /// Base RC retransmission timeout: how long the transport engine
    /// waits for the missing response/ACK before retransmitting. RoCE
    /// `local_ack_timeout` granularity puts practical minima in the
    /// tens of microseconds.
    pub rto: SimDuration,
    /// RC retry budget (`retry_cnt`): retransmissions allowed before
    /// the work request completes with a fatal CQE error.
    pub rc_retries: u32,
    /// Adaptive retransmission timer (RFC 6298 style): the transport
    /// engine tracks SRTT/RTTVAR from unretransmitted completions and
    /// arms `SRTT + 4·RTTVAR` instead of the fixed [`rto`](Self::rto)
    /// base once it has a sample. Off by default — the legacy fixed
    /// 16 µs ladder is what the paper's testbed NIC firmware does, and
    /// keeping it the default preserves byte-identity of every run
    /// that predates this knob.
    pub adaptive_rto: bool,
}

impl Default for FabricParams {
    fn default() -> Self {
        FabricParams {
            link_bandwidth_bps: 100_000_000_000,
            qp_depth: 64,
            rto: SimDuration::from_micros(16),
            rc_retries: 7,
            adaptive_rto: false,
        }
    }
}

impl FabricParams {
    /// Serialization time for `bytes` of payload plus wire overhead.
    pub fn serialize(&self, payload_bytes: u32) -> SimDuration {
        let wire_bytes = (payload_bytes + WIRE_OVERHEAD_BYTES) as u64;
        // bits / (bits per ns); round up so a message never takes zero time.
        let bits = wire_bytes * 8;
        let ns = (bits * desim::NS_PER_SEC).div_ceil(self.link_bandwidth_bps);
        SimDuration::from_nanos(ns.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_of_a_page() {
        let p = FabricParams::default();
        // 4 KB + 78 B at 100 Gbps = 4174 * 8 / 100 = ~334 ns.
        let d = p.serialize(4096);
        assert!((330..=340).contains(&d.as_nanos()), "{d:?}");
    }

    #[test]
    fn serialization_never_zero() {
        let p = FabricParams::default();
        assert!(p.serialize(0).as_nanos() >= 1);
    }

    #[test]
    fn unloaded_read_latency_in_paper_range() {
        // Doorbell + engine + req wire + prop + remote + data wire + prop
        // + local DMA should land in the paper's 2–3 µs window.
        let p = FabricParams::default();
        let total = DOORBELL
            + NIC_ENGINE
            + p.serialize(16)
            + PROPAGATION
            + REMOTE_PROCESSING
            + p.serialize(4096)
            + PROPAGATION
            + LOCAL_DMA;
        let us = total.as_nanos() as f64 / 1_000.0;
        assert!((1.9..=3.1).contains(&us), "unloaded fetch = {us} us");
    }
}
