//! Simulated network fabric for the Adios reproduction.
//!
//! The paper's testbed connects a compute node, a memory node and a load
//! generator with 100 GbE links; the compute node fetches 4 KB pages from
//! the memory node with one-sided RDMA READs over an NVIDIA ConnectX-6 Dx
//! RNIC. No RNIC is available here, so this crate models the fabric as
//! queueing components with published cost constants (see `DESIGN.md` §2):
//!
//! - [`Link`] — a unidirectional, bandwidth-limited wire with propagation
//!   delay and byte/busy-time accounting (for the RDMA-utilisation
//!   figures).
//! - [`RdmaNic`] — queue pairs with bounded send queues, a shared WQE
//!   processing engine, one-sided READ/WRITE verbs and completion routing
//!   to per-QP completion queues. CQ *re-association* — the mechanism
//!   behind Adios' polling delegation (§3.4 of the paper) — is supported
//!   by giving each QP an explicit target CQ.
//! - [`EthPort`] — the Raw-Ethernet client path with hardware TX/RX
//!   timestamps (the load generator measures end-to-end latency exactly
//!   as the paper does, from NIC timestamps). The RX ring's bound,
//!   [`params::RX_RING_ENTRIES`], is enforced by the runtime's admission
//!   backlog.
//! - [`MemNode`] — the passive one-sided memory node, with address-range
//!   validation and service statistics.
//! - [`ShardMap`] — deterministic page → shard → memnode placement
//!   (hash or range partition) with per-shard replica chains, so the
//!   page space can span several memory nodes.
//!
//! All components are *passive*: they never own an event loop. Posting a
//! work request returns the simulated completion time analytically (every
//! internal resource is FIFO), and the caller schedules that completion
//! in its own event queue.

pub mod eth;
pub mod link;
pub mod memnode;
pub mod nic;
pub mod params;
pub mod shard;

pub use eth::EthPort;
pub use link::Link;
pub use memnode::MemNode;
pub use nic::{Completion, CompletionStatus, OccupancySnapshot, PostError, QpId, RdmaNic};
pub use params::FabricParams;
pub use shard::{ShardMap, ShardPolicy};
