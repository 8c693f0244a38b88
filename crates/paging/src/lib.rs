//! Compute-node memory management for the Adios reproduction.
//!
//! This crate models the paging side of a memory-disaggregation system:
//!
//! - [`PageCache`] — the local-DRAM page cache with a unified,
//!   single-lookup page table (DiLOS consolidates all paging metadata
//!   into one table; we keep the same property: one `u32` per page
//!   resolves residency, in-flight state and frame, and the 8-byte
//!   frame it names holds the reference and dirty bits and the
//!   in-flight fetch's tag).
//! - [`cache::EvictionPolicy`] — CLOCK (default), FIFO and LRU victims.
//! - [`reclaim`] — watermark arithmetic for the proactive reclaimer
//!   (Adios pins a reclaimer that starts below 15 % free, §3.3) and the
//!   wake-up-based reclaimer of conventional systems.
//! - [`Trace`]/[`TraceRecorder`] — the page-access trace a request
//!   records while executing for real against a [`PagedArena`]; the
//!   runtime replays the trace against the simulated cache, so *which*
//!   pages a request touches is exact and only *when* is modelled.
//! - [`PagedArena`] — a real byte arena with page-touch recording, the
//!   substrate all four applications build their data structures on.
//! - [`prefetch::SeqDetector`] — sequential readahead detection.
//! - [`observe`] — the memory-access observatory: prefetch-fate
//!   attribution, decayed page-heat/working-set tracking and
//!   deterministic heatmap/fingerprint exports.

pub mod arena;
pub mod cache;
pub mod observe;
pub mod prefetch;
pub mod reclaim;
pub mod trace;

pub use arena::PagedArena;
pub use cache::{EvictionPolicy, PageCache, PageState};
pub use trace::{Access, CostModel, Step, Trace, TraceRecorder};

/// Page size of the compute node (the paper uses 4 KB pages on the
/// compute node and 2 MB huge pages only inside the memory node).
pub const PAGE_SIZE: u64 = 4096;

/// Returns the page containing byte address `addr`.
#[inline]
pub fn page_of(addr: u64) -> u64 {
    addr / PAGE_SIZE
}
