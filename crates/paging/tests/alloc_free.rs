//! Steady-state memory observation allocates nothing: inside one heat
//! window, `MemObservatory::on_touch` — and the prefetch bookkeeping
//! around it — must not touch the allocator.

use desim::Rng;
use paging::observe::{MemObsConfig, MemObservatory, PrefetchClass};

#[path = "../../desim/tests/support/counting_alloc.rs"]
mod counting_alloc;

#[global_allocator]
static GLOBAL: counting_alloc::Counting = counting_alloc::Counting;

const PAGES: u64 = 65_536;
const WARM_UP: u64 = 1_000;
const MEASURED: u64 = 10_000;

#[test]
fn touches_within_one_window_do_not_allocate() {
    let mut obs = MemObservatory::new(MemObsConfig, PAGES, 2);
    let mut rng = Rng::new(41);
    let mut last = 0u64;
    let mut touch = |i: u64| {
        // 11 000 touches 50 ns apart stay inside the first 1 ms window.
        let (page, now) = (rng.gen_range(PAGES), i * 50);
        obs.classify_hit(page);
        obs.on_touch(
            page,
            (page % 2) as usize,
            now,
            Some(page as i64 - last as i64),
        );
        last = page;
        let ahead = (page + 1) % PAGES;
        obs.classify_wasted(ahead);
        obs.on_prefetch_issued(ahead, PrefetchClass::Speculative, now);
        obs.on_prefetch_arrived(ahead);
    };
    (0..WARM_UP).for_each(&mut touch);
    let before = counting_alloc::allocs();
    (WARM_UP..WARM_UP + MEASURED).for_each(&mut touch);
    let allocs = counting_alloc::allocs() - before;
    assert_eq!(allocs, 0, "allocations in {MEASURED} warmed-up touches");
    let report = obs.finish(1_000_000);
    assert_eq!(report.touches, WARM_UP + MEASURED);
    assert!(report.holds());
}
