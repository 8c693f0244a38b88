//! A global allocator that counts the calling thread's allocator calls
//! and tracks its live and peak live bytes.
//!
//! Included by path from the allocation-budget tests of several crates
//! (`#[path = ".../counting_alloc.rs"] mod counting_alloc;`); each test
//! binary installs it with
//! `#[global_allocator] static GLOBAL: Counting = Counting;`. Counting
//! per thread keeps tests that run in parallel (and the harness) out of
//! each other's counts, and counting calls and requested bytes rather
//! than time or resident memory makes the result the same on any
//! machine.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

pub struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    // Signed: a thread may free what another one allocated.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Allocator calls (`alloc` + `realloc`) made by this thread so far.
pub fn allocs() -> u64 {
    ALLOCS.get()
}

/// Restarts this thread's peak tracking from its current live bytes and
/// returns them, so a region's peak can be taken net of what was
/// already live when it began.
#[allow(dead_code)] // not every including test reads bytes
pub fn reset_peak() -> i64 {
    let live = LIVE.get();
    PEAK.set(live);
    live
}

/// This thread's highest live bytes since the last [`reset_peak`].
#[allow(dead_code)] // not every including test reads bytes
pub fn peak() -> i64 {
    PEAK.get()
}

fn count() {
    // `try_with`: the allocator outlives a dying thread's locals.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Moves this thread's live bytes by `delta`, raising the peak with it.
fn live(delta: i64) {
    if let Ok(now) = LIVE.try_with(|l| {
        l.set(l.get() + delta);
        l.get()
    }) {
        let _ = PEAK.try_with(|p| p.set(p.get().max(now)));
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; counting touches only `const`-initialised
// thread-local `Cell`s, which neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        live(layout.size() as i64);
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        live(layout.size() as i64);
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System` via the methods above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // Live moves by the size delta, as the allocator sees it.
        live(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System`; arguments pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
