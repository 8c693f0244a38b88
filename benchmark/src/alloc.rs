//! Counting global allocator of the `perfbench` binary: allocation
//! count, bytes, live bytes and peak live bytes, so `allocs_per_req`,
//! `alloc_bytes_per_req` and `peak_live_mb` are exact counts rather
//! than estimates. The harness snapshots around a measured region and
//! keeps its own bookkeeping (result vectors, span records) outside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The system allocator with four statistics counters in front.
pub struct Counting;

// Statistics only: nothing is published through these, so `Relaxed`.
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn on_alloc(size: usize) {
    COUNT.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
    let live = LIVE.fetch_add(size as u64, Relaxed) + size as u64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's layout and
// pointer unchanged; the counters never influence what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // One allocation event of the new size; live moves by the delta.
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        on_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocation events and bytes requested since process start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    pub count: u64,
    pub bytes: u64,
}

impl Snapshot {
    pub fn now() -> Snapshot {
        Snapshot {
            count: COUNT.load(Relaxed),
            bytes: BYTES.load(Relaxed),
        }
    }

    /// Events and bytes between `earlier` and `self`.
    pub fn since(self, earlier: Snapshot) -> Snapshot {
        Snapshot {
            count: self.count - earlier.count,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Restarts peak tracking from the current live size and returns that
/// size, so a region's peak can be reported net of what the harness
/// already held when the region began.
pub fn reset_peak() -> u64 {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// Highest live size since the last [`reset_peak`].
pub fn peak() -> u64 {
    PEAK.load(Relaxed)
}
