//! The local-DRAM page cache with a unified page table.
//!
//! DiLOS' key paging optimisation — kept by Adios — is a *unified page
//! table*: all paging-related metadata is resolved with a single lookup.
//! [`PageCache`] mirrors that: `state[page]` and `frame_of[page]` are
//! flat arrays whose entry encodes residency, in-flight status and the
//! owning frame, and the frame of an in-flight page also names the
//! fetch filling it ([`PageCache::tag_fetch`] / [`PageCache::fetch_tag`]
//! carry the caller's 32-bit handle in what used to be padding). A
//! second access to a page in flight therefore finds the fetch to wait
//! on with the lookup that told it the page was in flight — the runtime
//! keeps no page → fetch map beside the table.
//!
//! Fetches are two-phase because RDMA READs are one-sided: the fault
//! handler must *reserve a frame first* (the NIC DMA-writes the page
//! into it), so allocation pressure is felt at fault time, not at
//! completion time. This is exactly why the paper's proactive reclaimer
//! matters: if no frame is free when a fault occurs, the handler pauses.

use desim::Rng;

/// Residency state of a page, resolved with a single lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageState {
    /// Only the remote copy exists.
    NotResident,
    /// A fetch is in flight; a frame is already reserved.
    InFlight,
    /// Mapped in local DRAM.
    Resident,
}

/// Victim selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionPolicy {
    /// Second-chance CLOCK (default; approximates LRU like OSv/Linux).
    #[default]
    Clock,
    /// Strict FIFO over frames.
    Fifo,
    /// Exact LRU via an intrusive recency list (more bookkeeping per
    /// touch than CLOCK; the `ablation_eviction` study quantifies the
    /// trade-off).
    Lru,
}

const NO_FRAME: u32 = u32::MAX;
const NO_PAGE: u64 = u64::MAX;

#[derive(Debug, Clone, Copy)]
struct Frame {
    page: u64,
    /// Caller's tag of the fetch in flight into this frame (see
    /// [`PageCache::tag_fetch`]); it sits in what was padding.
    fetch_tag: u32,
    referenced: bool,
    dirty: bool,
}

impl Frame {
    const EMPTY: Frame = Frame {
        page: NO_PAGE,
        fetch_tag: 0,
        referenced: false,
        dirty: false,
    };
}

/// Counters the experiments report.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Accesses that found the page resident.
    pub hits: u64,
    /// Accesses that found the page absent (faults).
    pub misses: u64,
    /// Accesses that found a fetch already in flight (coalesced faults).
    pub coalesced: u64,
    /// Pages evicted.
    pub evictions: u64,
    /// Evictions that required a write-back.
    pub dirty_evictions: u64,
}

impl CacheStats {
    /// Counter deltas since an `earlier` snapshot of the same cache —
    /// how the runtime scopes cache rates to the measurement window.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            coalesced: self.coalesced - earlier.coalesced,
            evictions: self.evictions - earlier.evictions,
            dirty_evictions: self.dirty_evictions - earlier.dirty_evictions,
        }
    }
}

/// The local page cache of the compute node.
///
/// # Examples
///
/// ```
/// use paging::{EvictionPolicy, PageCache, PageState};
///
/// let mut cache = PageCache::new(2, 100, EvictionPolicy::Clock);
/// assert!(cache.begin_fetch(7));      // fault: frame reserved
/// assert_eq!(cache.lookup(7), PageState::InFlight);
/// cache.complete_fetch(7);            // one-sided READ landed
/// cache.touch(7, false);              // now a hit
/// assert_eq!(cache.stats().hits, 1);
/// ```
pub struct PageCache {
    /// Per-page state; indexes `frames` when resident or in flight.
    state: Vec<u8>,
    frame_of: Vec<u32>,
    frames: Vec<Frame>,
    free: Vec<u32>,
    clock_hand: usize,
    policy: EvictionPolicy,
    stats: CacheStats,
    /// Intrusive LRU list over frames (only maintained under
    /// `EvictionPolicy::Lru`): `lru_prev[f]`/`lru_next[f]` link resident
    /// frames from least- to most-recently used.
    lru_prev: Vec<u32>,
    lru_next: Vec<u32>,
    lru_head: u32,
    lru_tail: u32,
}

const S_NOT: u8 = 0;
const S_INFLIGHT: u8 = 1;
const S_RESIDENT: u8 = 2;

impl PageCache {
    /// Creates a cache of `capacity` frames over `total_pages` pages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or exceeds `total_pages`.
    pub fn new(capacity: usize, total_pages: u64, policy: EvictionPolicy) -> PageCache {
        assert!(capacity > 0, "cache needs at least one frame");
        assert!(
            capacity as u64 <= total_pages,
            "cache larger than working set: {capacity} frames > {total_pages} pages"
        );
        PageCache {
            state: vec![S_NOT; total_pages as usize],
            frame_of: vec![NO_FRAME; total_pages as usize],
            frames: vec![Frame::EMPTY; capacity],
            free: (0..capacity as u32).rev().collect(),
            clock_hand: 0,
            policy,
            stats: CacheStats::default(),
            lru_prev: vec![NO_FRAME; capacity],
            lru_next: vec![NO_FRAME; capacity],
            lru_head: NO_FRAME,
            lru_tail: NO_FRAME,
        }
    }

    /// Unlinks `f` from the LRU list (no-op if not linked).
    fn lru_unlink(&mut self, f: u32) {
        let (p, n) = (self.lru_prev[f as usize], self.lru_next[f as usize]);
        if p != NO_FRAME {
            self.lru_next[p as usize] = n;
        } else if self.lru_head == f {
            self.lru_head = n;
        }
        if n != NO_FRAME {
            self.lru_prev[n as usize] = p;
        } else if self.lru_tail == f {
            self.lru_tail = p;
        }
        self.lru_prev[f as usize] = NO_FRAME;
        self.lru_next[f as usize] = NO_FRAME;
    }

    /// Pushes `f` at the MRU (tail) end.
    fn lru_push_mru(&mut self, f: u32) {
        self.lru_prev[f as usize] = self.lru_tail;
        self.lru_next[f as usize] = NO_FRAME;
        if self.lru_tail != NO_FRAME {
            self.lru_next[self.lru_tail as usize] = f;
        }
        self.lru_tail = f;
        if self.lru_head == NO_FRAME {
            self.lru_head = f;
        }
    }

    /// Total frames.
    pub fn capacity(&self) -> usize {
        self.frames.len()
    }

    /// Frames on the free list.
    #[inline]
    pub fn free_frames(&self) -> usize {
        self.free.len()
    }

    /// Resident + in-flight pages.
    #[inline]
    pub fn used_frames(&self) -> usize {
        self.capacity() - self.free_frames()
    }

    /// Pages in the working set.
    #[inline]
    pub fn total_pages(&self) -> u64 {
        self.state.len() as u64
    }

    /// Returns the page's state (the unified single lookup).
    #[inline]
    pub fn lookup(&self, page: u64) -> PageState {
        match self.state[page as usize] {
            S_NOT => PageState::NotResident,
            S_INFLIGHT => PageState::InFlight,
            _ => PageState::Resident,
        }
    }

    /// Records an access to a resident page: sets the reference bit (and
    /// the dirty bit for writes) and counts a hit.
    ///
    /// # Panics
    ///
    /// Panics if the page is not resident.
    #[inline]
    pub fn touch(&mut self, page: u64, write: bool) {
        assert_eq!(
            self.state[page as usize], S_RESIDENT,
            "touch of non-resident page {page}"
        );
        let frame = self.frame_of[page as usize];
        let f = &mut self.frames[frame as usize];
        f.referenced = true;
        f.dirty |= write;
        self.stats.hits += 1;
        if self.policy == EvictionPolicy::Lru {
            self.lru_unlink(frame);
            self.lru_push_mru(frame);
        }
    }

    /// Counts a miss (fault) on `page` and reserves a frame for the
    /// incoming one-sided READ. Returns `false` if no frame is free —
    /// the fault handler must pause for the reclaimer.
    ///
    /// # Panics
    ///
    /// Panics if the page is already resident or in flight.
    #[inline]
    pub fn begin_fetch(&mut self, page: u64) -> bool {
        assert_eq!(
            self.state[page as usize], S_NOT,
            "begin_fetch on page {page} already present"
        );
        let Some(frame) = self.free.pop() else {
            return false;
        };
        self.stats.misses += 1;
        self.state[page as usize] = S_INFLIGHT;
        self.frame_of[page as usize] = frame;
        self.frames[frame as usize] = Frame {
            page,
            fetch_tag: 0,
            referenced: true,
            dirty: false,
        };
        if self.policy == EvictionPolicy::Lru {
            self.lru_push_mru(frame);
        }
        true
    }

    /// Counts a fault that found the fetch already in flight (a second
    /// unithread faulting on the same page; it waits on the existing
    /// fetch instead of issuing a duplicate READ).
    #[inline]
    pub fn note_coalesced(&mut self) {
        self.stats.coalesced += 1;
    }

    /// Attaches the caller's `tag` to the fetch in flight for `page` —
    /// the runtime stores its fetch-record handle here, so the same
    /// lookup that finds a page in flight also names the fetch to wait
    /// on. Read it back with [`PageCache::fetch_tag`].
    ///
    /// # Panics
    ///
    /// Panics if no fetch is in flight for `page`.
    #[inline]
    pub fn tag_fetch(&mut self, page: u64, tag: u32) {
        assert_eq!(
            self.state[page as usize], S_INFLIGHT,
            "tag_fetch without begin_fetch for page {page}"
        );
        self.frames[self.frame_of[page as usize] as usize].fetch_tag = tag;
    }

    /// The tag [`PageCache::tag_fetch`] attached to the fetch in flight
    /// for `page` (0 if none was attached).
    ///
    /// # Panics
    ///
    /// Panics if no fetch is in flight for `page`.
    #[inline]
    pub fn fetch_tag(&self, page: u64) -> u32 {
        assert_eq!(
            self.state[page as usize], S_INFLIGHT,
            "fetch_tag of page {page}, which is not in flight"
        );
        self.frames[self.frame_of[page as usize] as usize].fetch_tag
    }

    /// Completes the in-flight fetch of `page`: the page becomes
    /// resident in its reserved frame.
    ///
    /// # Panics
    ///
    /// Panics if no fetch is in flight for `page`.
    #[inline]
    pub fn complete_fetch(&mut self, page: u64) {
        assert_eq!(
            self.state[page as usize], S_INFLIGHT,
            "complete_fetch without begin_fetch for page {page}"
        );
        self.state[page as usize] = S_RESIDENT;
    }

    /// Evicts one resident page and returns `(page, was_dirty)`, or
    /// `None` if nothing is evictable (all frames free or in flight).
    #[inline]
    pub fn evict_one(&mut self) -> Option<(u64, bool)> {
        // The frame count is constant for the run, so the CLOCK hand
        // wraps with a compare; `% n` would be a division per step.
        self.evict_one_stepping(|hand, n| if hand + 1 == n { 0 } else { hand + 1 })
    }

    /// [`PageCache::evict_one`] with the CLOCK hand's successor function
    /// `next_hand(hand, frames)` supplied by the caller (the tests pass
    /// the `% n` it replaced).
    #[inline]
    fn evict_one_stepping(
        &mut self,
        next_hand: impl Fn(usize, usize) -> usize,
    ) -> Option<(u64, bool)> {
        let n = self.frames.len();
        if self.used_frames() == 0 {
            return None;
        }
        if self.policy == EvictionPolicy::Lru {
            // Walk from the LRU end, skipping in-flight frames.
            let mut f = self.lru_head;
            while f != NO_FRAME {
                let page = self.frames[f as usize].page;
                if page != NO_PAGE && self.state[page as usize] != S_INFLIGHT {
                    let dirty = self.frames[f as usize].dirty;
                    self.lru_unlink(f);
                    self.frames[f as usize] = Frame::EMPTY;
                    self.state[page as usize] = S_NOT;
                    self.frame_of[page as usize] = NO_FRAME;
                    self.free.push(f);
                    self.stats.evictions += 1;
                    if dirty {
                        self.stats.dirty_evictions += 1;
                    }
                    return Some((page, dirty));
                }
                f = self.lru_next[f as usize];
            }
            return None;
        }
        // Up to two sweeps: the first may only clear reference bits.
        for _ in 0..2 * n {
            let i = self.clock_hand;
            self.clock_hand = next_hand(i, n);
            let f = &mut self.frames[i];
            if f.page == NO_PAGE || self.state[f.page as usize] == S_INFLIGHT {
                continue;
            }
            if self.policy == EvictionPolicy::Clock && f.referenced {
                f.referenced = false;
                continue;
            }
            let page = f.page;
            let dirty = f.dirty;
            *f = Frame::EMPTY;
            self.state[page as usize] = S_NOT;
            self.frame_of[page as usize] = NO_FRAME;
            self.free.push(i as u32);
            self.stats.evictions += 1;
            if dirty {
                self.stats.dirty_evictions += 1;
            }
            return Some((page, dirty));
        }
        None
    }

    /// Pre-populates the cache with `n` distinct random pages (steady
    /// state for a uniform workload), leaving the rest of the frames
    /// free. Used to warm experiments so measurements start in steady
    /// state instead of paying a cold-start fetch storm.
    pub fn warm(&mut self, n: usize, rng: &mut Rng) {
        let n = n.min(self.capacity());
        let total = self.total_pages();
        if n as u64 == total {
            // Every page fits: drawing distinct random pages until all
            // are placed is a coupon collector (≈ ln(total) draws per
            // page). With everything resident nothing ever faults or is
            // evicted, so which frame holds which page is unobservable:
            // fill in page order.
            self.warm_with(0..total);
            return;
        }
        let mut placed = 0;
        while placed < n {
            let page = rng.gen_range(total);
            if self.lookup(page) != PageState::NotResident {
                continue;
            }
            assert!(self.begin_fetch(page), "warm ran out of frames");
            self.complete_fetch(page);
            placed += 1;
        }
        // Warming is not a measured fetch.
        self.stats = CacheStats::default();
    }

    /// Pre-populates the cache with the specific `pages` (used by
    /// workloads whose steady-state cache is not uniform, e.g. after a
    /// sequential load phase).
    pub fn warm_with(&mut self, pages: impl IntoIterator<Item = u64>) {
        for page in pages {
            if self.free_frames() == 0 {
                break;
            }
            if self.lookup(page) != PageState::NotResident {
                continue;
            }
            assert!(self.begin_fetch(page));
            self.complete_fetch(page);
        }
        self.stats = CacheStats::default();
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::Rng;

    fn cache(cap: usize, pages: u64) -> PageCache {
        PageCache::new(cap, pages, EvictionPolicy::Clock)
    }

    #[test]
    fn fetch_lifecycle() {
        let mut c = cache(2, 10);
        assert_eq!(c.lookup(3), PageState::NotResident);
        assert!(c.begin_fetch(3));
        assert_eq!(c.lookup(3), PageState::InFlight);
        assert_eq!(c.free_frames(), 1);
        c.complete_fetch(3);
        assert_eq!(c.lookup(3), PageState::Resident);
        c.touch(3, false);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn begin_fetch_fails_when_full() {
        let mut c = cache(1, 10);
        assert!(c.begin_fetch(0));
        assert!(!c.begin_fetch(1), "no frame free");
        c.complete_fetch(0);
        // Still full: frame 0 holds page 0.
        assert!(!c.begin_fetch(1));
        let (page, dirty) = c.evict_one().unwrap();
        assert_eq!((page, dirty), (0, false));
        assert!(c.begin_fetch(1));
    }

    #[test]
    fn dirty_bit_survives_to_eviction() {
        let mut c = cache(1, 10);
        c.begin_fetch(5);
        c.complete_fetch(5);
        c.touch(5, true);
        // CLOCK gives the referenced frame a second chance, then evicts.
        let (page, dirty) = c.evict_one().unwrap();
        assert_eq!((page, dirty), (5, true));
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn clock_prefers_unreferenced() {
        let mut c = cache(2, 10);
        for p in [0u64, 1] {
            c.begin_fetch(p);
            c.complete_fetch(p);
        }
        // Re-reference page 0 only; both were referenced at fetch, so one
        // full sweep clears bits, then page 1 (unreferenced) goes first
        // when page 0 is touched again between sweeps.
        c.evict_one(); // clears both reference bits, then evicts one
        let s = c.stats();
        assert_eq!(s.evictions, 1);
    }

    #[test]
    fn fifo_ignores_reference_bits() {
        let mut c = PageCache::new(2, 10, EvictionPolicy::Fifo);
        c.begin_fetch(7);
        c.complete_fetch(7);
        c.begin_fetch(8);
        c.complete_fetch(8);
        c.touch(7, false);
        let (page, _) = c.evict_one().unwrap();
        assert_eq!(page, 7, "FIFO evicts oldest regardless of references");
    }

    #[test]
    fn inflight_pages_are_not_evictable() {
        let mut c = cache(1, 10);
        c.begin_fetch(2);
        assert_eq!(c.evict_one(), None, "only an in-flight frame exists");
        c.complete_fetch(2);
        assert!(c.evict_one().is_some());
    }

    #[test]
    #[should_panic(expected = "touch of non-resident page")]
    fn touch_missing_panics() {
        let mut c = cache(1, 10);
        c.touch(0, false);
    }

    #[test]
    #[should_panic(expected = "already present")]
    fn double_fetch_panics() {
        let mut c = cache(2, 10);
        c.begin_fetch(1);
        c.begin_fetch(1);
    }

    #[test]
    fn warm_fills_requested_frames() {
        let mut rng = Rng::new(1);
        let mut c = cache(100, 1000);
        c.warm(80, &mut rng);
        assert_eq!(c.free_frames(), 20);
        assert_eq!(c.stats().misses, 0, "warming is not measured");
        let resident = (0..1000)
            .filter(|&p| c.lookup(p) == PageState::Resident)
            .count();
        assert_eq!(resident, 80);
    }

    #[test]
    fn warm_with_specific_pages() {
        let mut c = cache(4, 100);
        c.warm_with([10, 11, 10, 12]);
        assert_eq!(c.used_frames(), 3);
        assert_eq!(c.lookup(10), PageState::Resident);
        assert_eq!(c.lookup(13), PageState::NotResident);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = PageCache::new(3, 100, EvictionPolicy::Lru);
        for p in [1u64, 2, 3] {
            assert!(c.begin_fetch(p));
            c.complete_fetch(p);
        }
        // Touch 1 and 3: page 2 becomes the LRU victim.
        c.touch(1, false);
        c.touch(3, false);
        assert_eq!(c.evict_one(), Some((2, false)));
        // Next victim: 1 (touched before 3).
        assert_eq!(c.evict_one(), Some((1, false)));
        assert_eq!(c.evict_one(), Some((3, false)));
        assert_eq!(c.evict_one(), None);
    }

    #[test]
    fn lru_skips_inflight_frames() {
        let mut c = PageCache::new(2, 100, EvictionPolicy::Lru);
        assert!(c.begin_fetch(5)); // in flight, oldest
        assert!(c.begin_fetch(6));
        c.complete_fetch(6);
        assert_eq!(c.evict_one(), Some((6, false)), "in-flight 5 is pinned");
        c.complete_fetch(5);
        assert_eq!(c.evict_one(), Some((5, false)));
    }

    #[test]
    fn lru_matches_reference_model() {
        use std::collections::VecDeque;
        let mut c = PageCache::new(4, 64, EvictionPolicy::Lru);
        let mut reference: VecDeque<u64> = VecDeque::new(); // LRU at front
        let mut rng = Rng::new(31);
        for _ in 0..2_000 {
            let page = rng.gen_range(64);
            match c.lookup(page) {
                PageState::Resident => {
                    c.touch(page, false);
                    reference.retain(|&p| p != page);
                    reference.push_back(page);
                }
                PageState::InFlight => unreachable!("completed immediately"),
                PageState::NotResident => {
                    if !c.begin_fetch(page) {
                        let victim = c.evict_one().map(|(p, _)| p);
                        assert_eq!(victim, reference.pop_front(), "LRU order diverged");
                        assert!(c.begin_fetch(page));
                    }
                    c.complete_fetch(page);
                    reference.push_back(page);
                }
            }
        }
    }

    /// Frame conservation: free + used == capacity under arbitrary
    /// operation sequences, and no page is ever double-mapped.
    #[test]
    fn frame_conservation() {
        let mut rng = Rng::new(0xCACE);
        for round in 0..48 {
            let policy = [
                EvictionPolicy::Clock,
                EvictionPolicy::Fifo,
                EvictionPolicy::Lru,
            ][round % 3];
            let mut c = PageCache::new(8, 50, policy);
            let ops = 1 + rng.gen_range(299) as usize;
            for _ in 0..ops {
                let page = rng.gen_range(50);
                let write = rng.gen_bool(0.5);
                match c.lookup(page) {
                    PageState::Resident => c.touch(page, write),
                    PageState::InFlight => c.complete_fetch(page),
                    PageState::NotResident => {
                        if !c.begin_fetch(page) {
                            // A cache full of in-flight fetches has no
                            // evictable victim; otherwise eviction must
                            // make room.
                            if c.evict_one().is_some() {
                                assert!(c.begin_fetch(page));
                            }
                        }
                    }
                }
                assert_eq!(c.free_frames() + c.used_frames(), c.capacity());
                // No double mapping: each frame's page is unique.
                let resident = (0..50)
                    .filter(|&p| c.lookup(p) != PageState::NotResident)
                    .count();
                assert!(resident <= c.capacity());
            }
        }
    }

    /// The compare-wrapped CLOCK hand picks the victims `% n` picked:
    /// two caches fed the op streams of `frame_conservation`, one
    /// stepping its hand with the expression `evict_one` replaced.
    #[test]
    fn clock_hand_wrap_matches_modulo() {
        let mut rng = Rng::new(0xCACE);
        let mut victims = 0;
        for round in 0..48 {
            let policy = [EvictionPolicy::Clock, EvictionPolicy::Fifo][round % 2];
            // Small caches wrap the hand often; a one-frame cache wraps
            // it on every step.
            let cap = [1usize, 2, 3, 8][round % 4];
            let mut fast = PageCache::new(cap, 50, policy);
            let mut reference = PageCache::new(cap, 50, policy);
            let ops = 1 + rng.gen_range(299) as usize;
            for _ in 0..ops {
                let page = rng.gen_range(50);
                let write = rng.gen_bool(0.5);
                assert_eq!(fast.lookup(page), reference.lookup(page));
                match fast.lookup(page) {
                    PageState::Resident => {
                        fast.touch(page, write);
                        reference.touch(page, write);
                    }
                    PageState::InFlight => {
                        fast.complete_fetch(page);
                        reference.complete_fetch(page);
                    }
                    PageState::NotResident => {
                        if !fast.begin_fetch(page) {
                            assert!(!reference.begin_fetch(page));
                            let victim = fast.evict_one();
                            let expect = reference.evict_one_stepping(|hand, n| (hand + 1) % n);
                            assert_eq!(victim, expect, "round {round}");
                            if victim.is_some() {
                                victims += 1;
                                assert!(fast.begin_fetch(page));
                                assert!(reference.begin_fetch(page));
                            }
                        } else {
                            assert!(reference.begin_fetch(page));
                        }
                    }
                }
                assert_eq!(fast.clock_hand, reference.clock_hand);
            }
        }
        assert!(victims > 300, "only {victims} evictions compared");
    }

    /// The in-flight page's entry carries the caller's fetch tag until
    /// the fetch completes; a later fetch into the same frame starts
    /// untagged.
    #[test]
    fn fetch_tag_rides_the_inflight_entry() {
        let mut c = cache(1, 10);
        assert!(c.begin_fetch(4));
        assert_eq!(c.fetch_tag(4), 0, "untagged until the caller tags it");
        c.tag_fetch(4, 77);
        assert_eq!(c.fetch_tag(4), 77);
        c.complete_fetch(4);
        assert_eq!(c.evict_one(), Some((4, false)));
        assert!(c.begin_fetch(5), "same frame, next fetch");
        assert_eq!(c.fetch_tag(5), 0);
    }

    #[test]
    #[should_panic(expected = "not in flight")]
    fn fetch_tag_of_resident_page_panics() {
        let mut c = cache(1, 10);
        c.begin_fetch(4);
        c.complete_fetch(4);
        c.fetch_tag(4);
    }

    /// Warming every page (100 % local) fills in page order without a
    /// single draw; a partial fill still draws.
    #[test]
    fn warm_to_full_draws_nothing() {
        let mut rng = Rng::new(9);
        let mut untouched = rng.clone();
        let mut c = cache(64, 64);
        c.warm(64, &mut rng);
        assert_eq!(rng.next_u64(), untouched.next_u64(), "no draw taken");
        assert_eq!(c.free_frames(), 0);
        assert!((0..64).all(|p| c.lookup(p) == PageState::Resident));
        assert_eq!(c.stats().misses, 0, "warming is not measured");
        let mut c = cache(63, 64);
        c.warm(63, &mut rng);
        assert_ne!(rng.next_u64(), untouched.next_u64(), "partial fill draws");
    }

    /// Evicting until empty returns every resident page exactly once.
    #[test]
    fn eviction_drains() {
        let mut rng = Rng::new(0xD2A1);
        for _ in 0..48 {
            let mut pages = std::collections::HashSet::new();
            let n = 1 + rng.gen_range(7) as usize;
            while pages.len() < n {
                pages.insert(rng.gen_range(100));
            }
            let mut c = cache(8, 100);
            for &p in &pages {
                assert!(c.begin_fetch(p));
                c.complete_fetch(p);
            }
            let mut evicted = Vec::new();
            while let Some((p, _)) = c.evict_one() {
                evicted.push(p);
            }
            evicted.sort_unstable();
            let mut expect: Vec<u64> = pages.into_iter().collect();
            expect.sort_unstable();
            assert_eq!(evicted, expect);
            assert_eq!(c.free_frames(), c.capacity());
        }
    }
}
