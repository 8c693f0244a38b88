//! The local-DRAM page cache with a unified page table.
//!
//! DiLOS' key paging optimisation — kept by Adios — is a *unified page
//! table*: all paging-related metadata is resolved with a single lookup.
//! [`PageCache`] mirrors that with one `u32` word per page: 0 while only
//! the remote copy exists, else the page's frame + 1, with bit 31 set
//! while the fetch filling that frame is in flight. An 8-byte frame holds
//! the page (low 30 bits) under its reference (31) and dirty (30) bits,
//! and the tag of the fetch in flight into it ([`PageCache::tag_fetch`] /
//! [`PageCache::fetch_tag`] carry the caller's 32-bit handle). A second
//! access to a page in flight therefore finds the fetch to wait on
//! through the word that told it the page was in flight — the runtime
//! keeps no page → fetch map beside the table.
//!
//! [`PageCache`]'s private `place` is the one writer of that encoding:
//! a fault's [`PageCache::begin_fetch`] places a page in flight, warm-up
//! ([`PageCache::warm`], [`PageCache::warm_with`]) places it resident.
//! The free frames are the frames eviction released, reused last in
//! first out, plus the tail of frames no page has held yet, handed out in
//! ascending order once the released ones run out. That is the order a
//! full reversed free list would pop, without writing one at set-up:
//! set-up pays only for the frames warm-up fills.
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

/// Page-table word: bit 31 marks the page's fetch in flight.
const INFLIGHT: u32 = 1 << 31;
/// Frame word: the reference and dirty bits, and below them the 30-bit
/// page field, all ones in an empty frame.
const REF: u32 = 1 << 31;
const DIRTY: u32 = 1 << 30;
const NO_PAGE: u32 = DIRTY - 1;
const NO_FRAME: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Frame {
    /// The page (low 30 bits), `REF` and `DIRTY`.
    page: u32,
    /// Caller's tag of the fetch in flight into this frame (see
    /// [`PageCache::tag_fetch`]).
    fetch_tag: u32,
}

impl Frame {
    const EMPTY: Frame = Frame {
        page: NO_PAGE,
        fetch_tag: 0,
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
    /// The page table: one word per page (see the module doc).
    entry: Vec<u32>,
    frames: Vec<Frame>,
    /// Frames eviction released, reused last in first out before any
    /// fresh frame.
    free: Vec<u32>,
    /// Frames `fresh..` have never held a page.
    fresh: u32,
    clock_hand: usize,
    policy: EvictionPolicy,
    stats: CacheStats,
    /// Intrusive LRU list over frames (allocated and maintained only
    /// under `EvictionPolicy::Lru`): `lru_prev[f]`/`lru_next[f]` link
    /// resident frames from least- to most-recently used.
    lru_prev: Vec<u32>,
    lru_next: Vec<u32>,
    lru_head: u32,
    lru_tail: u32,
}

impl PageCache {
    /// Creates a cache of `capacity` frames over `total_pages` pages.
    ///
    /// # Panics
    ///
    /// Panics if `total_pages` ≥ 2³⁰ − 1, or `capacity` is 0 or above `total_pages`.
    pub fn new(capacity: usize, total_pages: u64, policy: EvictionPolicy) -> PageCache {
        assert!(
            total_pages < u64::from(NO_PAGE),
            "{total_pages} pages overflow the 30-bit page field"
        );
        assert!(capacity > 0, "cache needs at least one frame");
        assert!(
            capacity as u64 <= total_pages,
            "cache larger than working set: {capacity} frames > {total_pages} pages"
        );
        let lru = policy == EvictionPolicy::Lru;
        let links = if lru { capacity } else { 0 };
        PageCache {
            entry: vec![0; total_pages as usize],
            frames: vec![Frame::EMPTY; capacity],
            free: Vec::new(),
            fresh: 0,
            clock_hand: 0,
            policy,
            stats: CacheStats::default(),
            lru_prev: vec![NO_FRAME; links],
            lru_next: vec![NO_FRAME; links],
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

    /// Frames holding no page: the released ones and the fresh tail.
    #[inline]
    pub fn free_frames(&self) -> usize {
        self.free.len() + self.frames.len() - self.fresh as usize
    }

    /// Takes a free frame: the last one released, else the lowest fresh one.
    #[inline]
    fn take_frame(&mut self) -> Option<u32> {
        if let Some(f) = self.free.pop() {
            return Some(f);
        }
        let f = self.fresh;
        if f as usize == self.frames.len() {
            return None;
        }
        self.fresh += 1;
        Some(f)
    }

    /// Places `page` in `frame`: the page-table word (frame + 1 under
    /// `flag`, `INFLIGHT` or 0), the frame word (referenced, clean,
    /// untagged) and, under LRU, the MRU link.
    #[inline]
    fn place(&mut self, page: u64, frame: u32, flag: u32) {
        self.entry[page as usize] = (frame + 1) | flag;
        self.frames[frame as usize] = Frame {
            page: page as u32 | REF,
            fetch_tag: 0,
        };
        if self.policy == EvictionPolicy::Lru {
            self.lru_push_mru(frame);
        }
    }

    /// Resident + in-flight pages.
    #[inline]
    pub fn used_frames(&self) -> usize {
        self.capacity() - self.free_frames()
    }

    /// Pages in the working set.
    #[inline]
    pub fn total_pages(&self) -> u64 {
        self.entry.len() as u64
    }

    /// Returns the page's state (the unified single lookup).
    #[inline]
    pub fn lookup(&self, page: u64) -> PageState {
        match self.entry[page as usize] {
            0 => PageState::NotResident,
            e if e & INFLIGHT != 0 => PageState::InFlight,
            _ => PageState::Resident,
        }
    }

    /// The frame of `page`'s fetch in flight; `what` names the caller
    /// in the panic.
    #[inline]
    fn inflight_frame(&self, page: u64, what: &str) -> usize {
        let e = self.entry[page as usize];
        assert!(e & INFLIGHT != 0, "{what}: page {page} is not in flight");
        (e & !INFLIGHT) as usize - 1
    }

    /// Records an access to a resident page: sets the reference bit (and
    /// the dirty bit for writes) and counts a hit.
    ///
    /// # Panics
    ///
    /// Panics if the page is not resident.
    #[inline]
    pub fn touch(&mut self, page: u64, write: bool) {
        // An absent (0) or in-flight word wraps to a frame ≥ `INFLIGHT`.
        let frame = self.entry[page as usize].wrapping_sub(1);
        assert!(frame < INFLIGHT, "touch of non-resident page {page}");
        self.frames[frame as usize].page |= if write { REF | DIRTY } else { REF };
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
            self.entry[page as usize], 0,
            "begin_fetch on page {page} already present"
        );
        let Some(frame) = self.take_frame() else {
            return false;
        };
        self.stats.misses += 1;
        self.place(page, frame, INFLIGHT);
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
        let f = self.inflight_frame(page, "tag_fetch");
        self.frames[f].fetch_tag = tag;
    }

    /// The tag [`PageCache::tag_fetch`] attached to the fetch in flight
    /// for `page` (0 if none was attached).
    ///
    /// # Panics
    ///
    /// Panics if no fetch is in flight for `page`.
    #[inline]
    pub fn fetch_tag(&self, page: u64) -> u32 {
        self.frames[self.inflight_frame(page, "fetch_tag")].fetch_tag
    }

    /// Completes the in-flight fetch of `page`: the page becomes
    /// resident in its reserved frame.
    ///
    /// # Panics
    ///
    /// Panics if no fetch is in flight for `page`.
    #[inline]
    pub fn complete_fetch(&mut self, page: u64) {
        let f = self.inflight_frame(page, "complete_fetch");
        self.entry[page as usize] = f as u32 + 1;
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
                if self.evictable(self.frames[f as usize].page) {
                    return Some(self.retire(f as usize));
                }
                f = self.lru_next[f as usize];
            }
            return None;
        }
        // Up to two sweeps: the first may only clear reference bits.
        for _ in 0..2 * n {
            let i = self.clock_hand;
            self.clock_hand = next_hand(i, n);
            let word = self.frames[i].page;
            if !self.evictable(word) {
                continue;
            }
            if self.policy == EvictionPolicy::Clock && word & REF != 0 {
                self.frames[i].page = word & !REF;
                continue;
            }
            return Some(self.retire(i));
        }
        None
    }

    /// Whether frame word `word` names a resident page (not empty, not in flight).
    #[inline]
    fn evictable(&self, word: u32) -> bool {
        let page = word & NO_PAGE;
        page != NO_PAGE && self.entry[page as usize] & INFLIGHT == 0
    }

    /// Evicts frame `f`'s resident page: the one retire path of every policy.
    #[inline]
    fn retire(&mut self, f: usize) -> (u64, bool) {
        let word = self.frames[f].page;
        let (page, dirty) = (word & NO_PAGE, word & DIRTY != 0);
        if self.policy == EvictionPolicy::Lru {
            self.lru_unlink(f as u32);
        }
        self.frames[f] = Frame::EMPTY;
        self.entry[page as usize] = 0;
        self.free.push(f as u32);
        self.stats.evictions += 1;
        self.stats.dirty_evictions += u64::from(dirty);
        (u64::from(page), dirty)
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
            let frame = self.take_frame().expect("warm ran out of frames");
            self.place(page, frame, 0);
            placed += 1;
        }
        self.warmed();
    }

    /// Pre-populates the cache with the specific `pages` (used by
    /// workloads whose steady-state cache is not uniform, e.g. after a
    /// sequential load phase).
    pub fn warm_with(&mut self, pages: impl IntoIterator<Item = u64>) {
        for page in pages {
            if self.lookup(page) != PageState::NotResident {
                continue;
            }
            let Some(frame) = self.take_frame() else {
                break;
            };
            self.place(page, frame, 0);
        }
        self.warmed();
    }

    /// Ends warm-up: sizes the released-frame stack for every frame
    /// warm-up left fresh, so eviction never grows it inside a run.
    fn warmed(&mut self) {
        self.free
            .reserve_exact(self.frames.len() - self.fresh as usize);
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

    /// A plain model of the cache: frames as `Option` slots searched
    /// linearly, the same free stack and CLOCK hand, recency as a list of
    /// frames (least recently used first).
    #[derive(Clone, Copy)]
    struct Slot {
        page: u64,
        inflight: bool,
        referenced: bool,
        dirty: bool,
        tag: u32,
    }

    struct Model {
        policy: EvictionPolicy,
        slots: Vec<Option<Slot>>,
        free: Vec<usize>,
        hand: usize,
        recency: Vec<usize>,
        stats: CacheStats,
    }

    impl Model {
        fn new(cap: usize, policy: EvictionPolicy) -> Model {
            Model {
                policy,
                slots: vec![None; cap],
                free: (0..cap).rev().collect(),
                hand: 0,
                recency: Vec::new(),
                stats: CacheStats::default(),
            }
        }

        fn slot(&mut self, page: u64) -> Option<&mut Slot> {
            self.slots.iter_mut().flatten().find(|s| s.page == page)
        }

        fn state(&mut self, page: u64) -> PageState {
            match self.slot(page) {
                None => PageState::NotResident,
                Some(s) if s.inflight => PageState::InFlight,
                Some(_) => PageState::Resident,
            }
        }

        fn frame(&self, page: u64) -> usize {
            let holds = |s: &Option<Slot>| s.is_some_and(|s| s.page == page);
            self.slots.iter().position(holds).unwrap()
        }

        fn touch(&mut self, page: u64, write: bool) {
            let f = self.frame(page);
            let s = self.slots[f].as_mut().unwrap();
            s.referenced = true;
            s.dirty |= write;
            self.recency.retain(|&x| x != f);
            self.recency.push(f);
            self.stats.hits += 1;
        }

        /// Puts `page` in the frame on top of the free stack: in flight
        /// for a fault, resident for warm-up.
        fn place(&mut self, page: u64, inflight: bool) -> bool {
            let Some(f) = self.free.pop() else {
                return false;
            };
            self.slots[f] = Some(Slot {
                page,
                inflight,
                referenced: true,
                dirty: false,
                tag: 0,
            });
            self.recency.push(f);
            true
        }

        fn begin_fetch(&mut self, page: u64) -> bool {
            let placed = self.place(page, true);
            self.stats.misses += u64::from(placed);
            placed
        }

        fn warm_with(&mut self, pages: impl IntoIterator<Item = u64>) {
            for page in pages {
                if self.free.is_empty() {
                    break;
                }
                if self.state(page) == PageState::NotResident {
                    self.place(page, false);
                }
            }
        }

        /// Warm-up's contract: every page in page order when all fit,
        /// else `n` distinct pages in the order `rng` draws them.
        fn warm(&mut self, n: usize, total: u64, rng: &mut Rng) {
            if n as u64 == total {
                return self.warm_with(0..total);
            }
            let mut placed = 0;
            while placed < n {
                let page = rng.gen_range(total);
                if self.state(page) == PageState::NotResident {
                    self.place(page, false);
                    placed += 1;
                }
            }
        }

        fn evict(&mut self) -> Option<(u64, bool)> {
            let n = self.slots.len();
            let evictable = |s: &Option<Slot>| s.is_some_and(|s| !s.inflight);
            let victim = if self.policy == EvictionPolicy::Lru {
                self.recency
                    .iter()
                    .copied()
                    .find(|&f| evictable(&self.slots[f]))
            } else {
                let mut victim = None;
                for _ in 0..2 * n {
                    let i = self.hand;
                    self.hand = (i + 1) % n;
                    if !evictable(&self.slots[i]) {
                        continue;
                    }
                    let s = self.slots[i].as_mut().unwrap();
                    if self.policy == EvictionPolicy::Clock && s.referenced {
                        s.referenced = false;
                        continue;
                    }
                    victim = Some(i);
                    break;
                }
                victim
            }?;
            let s = self.slots[victim].take().unwrap();
            self.recency.retain(|&x| x != victim);
            self.free.push(victim);
            self.stats.evictions += 1;
            self.stats.dirty_evictions += u64::from(s.dirty);
            Some((s.page, s.dirty))
        }
    }

    /// Asserts `c` agrees with `m`: free + used == capacity, the free
    /// frame count, every page's state, frame and dirty bit, and the
    /// counters.
    fn assert_agrees(c: &PageCache, m: &mut Model, round: usize) {
        assert_eq!(c.free_frames() + c.used_frames(), c.capacity());
        assert_eq!(c.free_frames(), m.free.len(), "round {round}");
        for p in 0..c.total_pages() {
            assert_eq!(c.lookup(p), m.state(p), "page {p}, round {round}");
            if c.lookup(p) != PageState::NotResident {
                let f = (c.entry[p as usize] & !INFLIGHT) as usize - 1;
                assert_eq!(f, m.frame(p), "frame of page {p}, round {round}");
                let dirty = c.frames[f].page & DIRTY != 0;
                assert_eq!(dirty, m.slot(p).unwrap().dirty, "page {p}, round {round}");
            }
        }
        let (s, e) = (c.stats(), m.stats);
        assert_eq!(
            (s.hits, s.misses, s.evictions, s.dirty_evictions),
            (e.hits, e.misses, e.evictions, e.dirty_evictions)
        );
    }

    /// Evictions, dirty evictions and tag reads [`drive`] compared.
    #[derive(Default)]
    struct Compared {
        victims: u32,
        dirty_victims: u32,
        tag_reads: u32,
    }

    /// Feeds `c` and `m` `ops` random steps — faults, touches (half
    /// writes, half of all accesses to a 12-page hot set), completions,
    /// fetch tags and reclaimer evictions — asserting after each that
    /// they agree, every victim (with its dirty bit) is the model's, and
    /// an in-flight page reads back the model's tag.
    fn drive(
        c: &mut PageCache,
        m: &mut Model,
        rng: &mut Rng,
        ops: usize,
        round: usize,
    ) -> Compared {
        let mut n = Compared::default();
        let pages = c.total_pages();
        for _ in 0..ops {
            let hot = rng.gen_bool(0.5);
            let page = rng.gen_range(if hot { 12 } else { pages });
            let write = rng.gen_bool(0.5);
            let mut victim = None;
            if rng.gen_bool(0.1) {
                // The reclaimer, evicting ahead of demand.
                victim = Some(c.evict_one());
                assert_eq!(victim.unwrap(), m.evict(), "round {round}");
            } else {
                match c.lookup(page) {
                    PageState::Resident => {
                        c.touch(page, write);
                        m.touch(page, write);
                    }
                    PageState::InFlight => {
                        n.tag_reads += 1;
                        assert_eq!(c.fetch_tag(page), m.slot(page).unwrap().tag);
                        if rng.gen_bool(0.5) {
                            c.complete_fetch(page);
                            m.slot(page).unwrap().inflight = false;
                        }
                    }
                    PageState::NotResident => {
                        if !c.begin_fetch(page) {
                            assert!(!m.begin_fetch(page));
                            // A cache full of in-flight fetches has no
                            // evictable victim; otherwise eviction must
                            // make room.
                            victim = Some(c.evict_one());
                            assert_eq!(victim.unwrap(), m.evict(), "round {round}");
                            if victim.unwrap().is_some() {
                                assert!(c.begin_fetch(page));
                                assert!(m.begin_fetch(page));
                            }
                        } else {
                            assert!(m.begin_fetch(page));
                        }
                        if c.lookup(page) == PageState::InFlight && rng.gen_bool(0.5) {
                            let tag = rng.next_u64() as u32;
                            c.tag_fetch(page, tag);
                            m.slot(page).unwrap().tag = tag;
                        }
                        // Most READs land before the page is wanted again.
                        if c.lookup(page) == PageState::InFlight && rng.gen_bool(0.7) {
                            c.complete_fetch(page);
                            m.slot(page).unwrap().inflight = false;
                        }
                    }
                }
            }
            if let Some(Some((_, dirty))) = victim {
                n.victims += 1;
                n.dirty_victims += u32::from(dirty);
            }
            assert_agrees(c, m, round);
        }
        n
    }

    const POLICIES: [EvictionPolicy; 3] = [
        EvictionPolicy::Clock,
        EvictionPolicy::Fifo,
        EvictionPolicy::Lru,
    ];

    /// Frame conservation and agreement with [`Model`] under every
    /// policy, from a cold cache (see [`drive`]).
    #[test]
    fn frame_conservation() {
        let mut rng = Rng::new(0xCACE);
        let mut total = Compared::default();
        for round in 0..48 {
            let policy = POLICIES[round % 3];
            let mut c = PageCache::new(8, 50, policy);
            let mut m = Model::new(8, policy);
            let ops = 1 + rng.gen_range(299) as usize;
            let n = drive(&mut c, &mut m, &mut rng, ops, round);
            total.victims += n.victims;
            total.dirty_victims += n.dirty_victims;
            total.tag_reads += n.tag_reads;
        }
        assert!(
            total.victims > 2_000,
            "only {} evictions compared",
            total.victims
        );
        assert!(
            total.dirty_victims > 100,
            "only {} dirty evictions",
            total.dirty_victims
        );
        assert!(total.tag_reads > 800, "only {} tag reads", total.tag_reads);
    }

    /// The same agreement from warmed starts, where the model keeps the
    /// full reversed free stack the cache replaced with released frames
    /// plus a fresh tail: `warm` below capacity, to a full cache and over
    /// every page, and `warm_with` a list with repeats, each under every
    /// policy. Warm-up must leave the model's frames, and draw what it
    /// draws.
    #[test]
    fn warmed_starts_match_model() {
        let mut rng = Rng::new(0x3A3B);
        let mut total = Compared::default();
        for round in 0..96 {
            let policy = POLICIES[round % 3];
            let (cap, pages) = if round / 3 % 4 == 2 {
                (40, 40)
            } else {
                (16, 40)
            };
            let mut c = PageCache::new(cap, pages, policy);
            let mut m = Model::new(cap, policy);
            match round / 3 % 4 {
                kind @ 0..=2 => {
                    let n = if kind == 0 {
                        1 + rng.gen_range(cap as u64 - 1) as usize
                    } else {
                        cap
                    };
                    let mut model_rng = rng.clone();
                    c.warm(n, &mut rng);
                    m.warm(n, pages, &mut model_rng);
                    assert_eq!(rng.next_u64(), model_rng.next_u64(), "same draws");
                    assert_eq!(c.used_frames(), n);
                }
                _ => {
                    let list: Vec<u64> =
                        (0..rng.gen_range(32)).map(|_| rng.gen_range(24)).collect();
                    c.warm_with(list.iter().copied());
                    m.warm_with(list);
                }
            }
            assert_eq!(c.stats().misses, 0, "warming is not measured");
            assert_agrees(&c, &mut m, round);
            let n = drive(&mut c, &mut m, &mut rng, 300, round);
            total.victims += n.victims;
            total.dirty_victims += n.dirty_victims;
            total.tag_reads += n.tag_reads;
        }
        assert!(
            total.victims > 3_000,
            "only {} evictions compared",
            total.victims
        );
        assert!(
            total.dirty_victims > 200,
            "only {} dirty evictions",
            total.dirty_victims
        );
        assert!(total.tag_reads > 800, "only {} tag reads", total.tag_reads);
    }

    /// The packed layout: an 8-byte frame, a page-table word of frame + 1
    /// with bit 31 while in flight, the page under the reference (31) and
    /// dirty (30) bits, and an all-ones page field in an empty frame.
    #[test]
    fn packed_layout() {
        assert_eq!(std::mem::size_of::<Frame>(), 8);
        let mut c = cache(2, 10);
        assert!(c.begin_fetch(5) && c.begin_fetch(6));
        assert_eq!((c.entry[5], c.entry[6]), (1 | 1 << 31, 2 | 1 << 31));
        assert_eq!(c.frames[0].page, 5 | 1 << 31, "referenced at fetch");
        c.complete_fetch(5);
        c.complete_fetch(6);
        assert_eq!((c.entry[5], c.entry[6]), (1, 2));
        c.touch(5, true);
        assert_eq!(c.frames[0].page, 5 | 1 << 31 | 1 << 30);
        // The sweep clears both reference bits, then takes frame 0.
        assert_eq!(c.evict_one(), Some((5, true)));
        assert_eq!(c.frames[1].page, 6, "reference bit cleared");
        assert_eq!(c.frames[0].page, (1 << 30) - 1, "empty frame");
        assert_eq!(c.entry[5], 0);
    }

    /// The page bound is checked before the table is allocated: a cache
    /// over 2^30 pages (a 4 GiB table) panics at once.
    #[test]
    #[should_panic(expected = "30-bit page field")]
    fn page_bound_checked_first() {
        PageCache::new(1, 1 << 30, EvictionPolicy::Clock);
    }

    /// Only LRU allocates the recency links.
    #[test]
    fn lru_links_only_under_lru() {
        for policy in [EvictionPolicy::Clock, EvictionPolicy::Fifo] {
            let c = PageCache::new(64, 128, policy);
            assert_eq!(c.lru_prev.capacity() + c.lru_next.capacity(), 0);
        }
        let c = PageCache::new(64, 128, EvictionPolicy::Lru);
        assert_eq!((c.lru_prev.len(), c.lru_next.len()), (64, 64));
    }

    /// The compare-wrapped CLOCK hand picks the victims `% n` picked:
    /// two caches fed random op streams, one stepping its hand with the
    /// expression `evict_one` replaced.
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
