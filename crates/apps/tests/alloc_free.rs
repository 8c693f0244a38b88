//! Steady-state request generation allocates nothing: after a warm-up,
//! `next_request_into` on one recycled `Trace` must not touch the
//! allocator. Counts allocator calls on seeded streams, so the result
//! is the same on any machine.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use desim::Rng;
use paging::trace::Trace;

#[allow(dead_code)] // the anchors' constants and hashing are not used here
mod stream;

/// Counts this thread's allocator calls, so tests running in parallel
/// (and the harness) do not disturb each other's counts.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
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

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System`; arguments pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WARM_UP: usize = 1_000;
const MEASURED: usize = 10_000;

#[test]
fn warmed_up_generators_do_not_allocate() {
    for case in stream::CASES {
        let mut workload = (case.build)();
        let mut rng = Rng::new(41);
        let mut buf = Trace::default();
        for _ in 0..WARM_UP {
            workload.next_request_into(&mut rng, &mut buf);
        }
        let before = ALLOCS.get();
        for _ in 0..MEASURED {
            workload.next_request_into(&mut rng, &mut buf);
        }
        let allocs = ALLOCS.get() - before;
        assert_eq!(
            allocs, 0,
            "{}: allocations in {MEASURED} warmed-up requests",
            case.name
        );
    }
}
