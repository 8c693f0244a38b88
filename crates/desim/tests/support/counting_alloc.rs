//! A global allocator that counts the calling thread's allocator calls.
//!
//! Included by path from the allocation-budget tests of several crates
//! (`#[path = ".../counting_alloc.rs"] mod counting_alloc;`); each test
//! binary installs it with
//! `#[global_allocator] static GLOBAL: Counting = Counting;`. Counting
//! per thread keeps tests that run in parallel (and the harness) out of
//! each other's counts, and counting calls rather than bytes or time
//! makes the result the same on any machine.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

pub struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Allocator calls (`alloc` + `realloc`) made by this thread so far.
pub fn allocs() -> u64 {
    ALLOCS.get()
}

fn count() {
    // `try_with`: the allocator outlives a dying thread's locals.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; counting touches only a `const`-initialised
// thread-local `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via the methods above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System`; arguments pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
