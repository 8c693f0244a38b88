//! Steady-state paging allocates nothing: inside one heat window,
//! `MemObservatory::on_touch` — and the prefetch bookkeeping around it —
//! must not touch the allocator, nor may a reserved observatory closing
//! windows or finishing, nor a warmed `PageCache` faulting and evicting
//! between the reclaimer's watermarks.

use desim::Rng;
use paging::observe::{MemObsConfig, MemObservatory, PrefetchClass, HEAT_WINDOW_NS, TOP_K};
use paging::reclaim::Watermarks;
use paging::{EvictionPolicy, PageCache, PageState};

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

/// A reserved observatory's allocator calls do not depend on how many
/// windows the run closes — the closed heatmap rows share one buffer
/// sized by `reserve` — and `finish` lists the hottest pages into a
/// buffer allocated with the observatory.
#[test]
fn closing_windows_and_finishing_do_not_allocate() {
    let run = |windows: u64| {
        let start = counting_alloc::allocs();
        let mut obs = MemObservatory::new(MemObsConfig, PAGES, 2);
        // As the runtime sizes it: one row per window of the horizon,
        // plus one.
        obs.reserve(windows as usize + 1);
        let mut rng = Rng::new(47);
        for w in 0..windows {
            for i in 0..20 {
                let page = rng.gen_range(PAGES);
                obs.on_touch(page, (page % 2) as usize, w * HEAT_WINDOW_NS + i, None);
            }
        }
        let before_finish = counting_alloc::allocs();
        let report = obs.finish(windows * HEAT_WINDOW_NS);
        let in_finish = counting_alloc::allocs() - before_finish;
        assert_eq!(
            in_finish, 0,
            "allocations in finish after {windows} windows"
        );
        assert_eq!(report.rows.len() as u64, windows);
        assert_eq!(report.heat_top.len(), TOP_K);
        before_finish - start
    };
    assert_eq!(run(10), run(2_000), "allocations grow with closed windows");
}

/// Warm-up sizes the stack of released frames for every frame it left
/// fresh, so a cache warmed to the high watermark, as the runtime warms
/// it, then cycled fault → complete → evict with its free frames held
/// between the watermarks never grows that stack inside a run.
#[test]
fn warmed_cache_cycles_without_allocating() {
    const CAPACITY: usize = 4_096;
    const CYCLES: u64 = 10_000;
    let marks = Watermarks::new(0.15, 0.16);
    let (low, high) = (marks.low_frames(CAPACITY), marks.high_frames(CAPACITY));
    for policy in [
        EvictionPolicy::Clock,
        EvictionPolicy::Fifo,
        EvictionPolicy::Lru,
    ] {
        let mut cache = PageCache::new(CAPACITY, PAGES, policy);
        let mut rng = Rng::new(43);
        cache.warm(CAPACITY - high, &mut rng);
        let before = counting_alloc::allocs();
        let mut evictions = 0;
        for _ in 0..CYCLES {
            let page = loop {
                let page = rng.gen_range(PAGES);
                if cache.lookup(page) == PageState::NotResident {
                    break page;
                }
            };
            assert!(cache.begin_fetch(page), "a frame above the low watermark");
            cache.complete_fetch(page);
            cache.touch(page, page % 3 == 0);
            if cache.free_frames() < low {
                while cache.free_frames() < high {
                    cache.evict_one().expect("a resident victim");
                    evictions += 1;
                }
            }
        }
        let allocs = counting_alloc::allocs() - before;
        assert_eq!(allocs, 0, "{policy:?}: allocations in {CYCLES} cycles");
        assert!(
            evictions > CYCLES / 2,
            "{policy:?}: only {evictions} evictions"
        );
    }
}
