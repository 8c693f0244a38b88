//! Memory-access observatory: prefetch-efficacy attribution, page-heat
//! and working-set tracking, and deterministic exports.
//!
//! The runtime can only act on prefetching and placement policy if it
//! can *measure* them. This module is the measurement substrate:
//!
//! - **Prefetch fates** — every prefetched page is classified exactly
//!   once as a *hit* (demand access after the line arrived), *late*
//!   (a demand access raced the in-flight prefetch and only waited the
//!   residual fetch time; the head start is credited as saved
//!   latency), or *wasted* (evicted, failed, or still unaccessed at
//!   run end). Records still in flight at run end are counted as
//!   `inflight_at_end`, giving the exact conservation identity
//!   `issued == hits + lates + wasted + inflight_at_end` per detector
//!   class and in total.
//! - **Page heat** — a SpaceSaving top-K heavy-hitter sketch with
//!   exponential per-window decay (`w ← w · d^Δwindows`), plus a
//!   bucketed address-range histogram absorbing the weight of pages
//!   displaced from the sketch, so memory stays `O(K + buckets)`
//!   regardless of footprint.
//! - **Working set & heatmap** — per-window distinct-page counts and a
//!   `page-bucket × time-window → touches` matrix, both capped at
//!   [`MemObsConfig::max_windows`] rows with explicit drop accounting
//!   ([`MemObservatory::dropped`]) instead of silent truncation.
//! - **Shard heat shares** — decayed per-shard touch weights exposing
//!   placement skew (`max/mean` ratio) as a time series.
//!
//! Everything here is deterministic: iteration happens over vectors or
//! sorted snapshots, hashing uses the seed-free Fx tables, and floats
//! are serialised at fixed precision — equal-seed runs produce
//! byte-identical [`MemReport`] serialisations.
//!
//! Per-page state (last window seen, sketch slot, address bucket, the
//! tracked prefetch) lives in one page-indexed table (`PageTable`),
//! so a touch is an indexed load rather than a handful of hash probes,
//! and the sketch's minimum is the root of an indexed heap rather than
//! a scan. Both are exact replacements: the report is bit-for-bit what
//! the hashed, scanning implementation produced.

use desim::fxhash::FxHashMap;
use std::fmt::Write as _;

/// Detector class a prefetch is attributed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrefetchClass {
    /// Sequential readahead (`SeqDetector`).
    Readahead = 0,
    /// Leap majority-trend detection (`LeapDetector`).
    Leap = 1,
    /// The speculative next-page fallback taken when the detector has
    /// no pattern.
    Speculative = 2,
}

/// Display names for the three classes, indexed by discriminant.
pub const CLASS_NAMES: [&str; 3] = ["readahead", "leap", "speculative"];

/// Observatory configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MemObsConfig {
    /// Width of a heat/working-set window in virtual nanoseconds.
    pub heat_window_ns: u64,
    /// Heavy-hitter slots in the heat sketch.
    pub top_k: usize,
    /// Per-window decay multiplier applied to sketch weights, the rest
    /// histogram and shard heat (`0 < d <= 1`).
    pub heat_decay: f64,
    /// Address-range buckets of the heatmap and rest histogram.
    pub heatmap_buckets: usize,
    /// Cap on recorded window rows (heatmap + working-set series);
    /// rows beyond the cap are counted in `obs_dropped`.
    pub max_windows: usize,
    /// Cap on simultaneously tracked prefetch records; overflow issues
    /// are conservatively classified wasted and counted dropped.
    pub max_tracked: usize,
    /// Distinct stride deltas kept in the fingerprint; the rest fold
    /// into an explicit `other` bin.
    pub max_strides: usize,
}

impl Default for MemObsConfig {
    fn default() -> MemObsConfig {
        MemObsConfig {
            heat_window_ns: 1_000_000, // 1 ms
            top_k: 64,
            heat_decay: 0.5,
            heatmap_buckets: 64,
            max_windows: 4096,
            max_tracked: 1 << 20,
            max_strides: 64,
        }
    }
}

/// Fate counters for one detector class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FateCounters {
    /// Prefetches issued (including ones that later fail).
    pub issued: u64,
    /// Demand access found the page already arrived.
    pub hits: u64,
    /// Demand access raced the in-flight prefetch.
    pub lates: u64,
    /// Evicted, failed, or unaccessed by run end.
    pub wasted: u64,
    /// Still in flight when the run ended.
    pub inflight_at_end: u64,
    /// Head-start nanoseconds credited to late prefetches.
    pub late_saved_ns: u64,
}

impl FateCounters {
    /// Exact conservation identity for this class.
    pub fn holds(&self) -> bool {
        self.issued == self.hits + self.lates + self.wasted + self.inflight_at_end
    }
}

/// What the observatory knows about one page. All-zero means "never
/// seen", which is what lets the table come zero-filled from the
/// allocator without being written.
///
/// A tuple rather than a struct because `vec![zero; n]` takes the
/// allocator's zeroed path (untouched, lazily mapped pages) only for
/// element types the standard library knows to be all-zero — integers
/// and tuples of them, not user structs. Fields, in order:
///
/// 0. `seen`: last window the page was touched in, plus one;
/// 1. `pf_issued_ns`: issue instant of the tracked prefetch;
/// 2. `slot`: heat-sketch slot holding the page, plus one;
/// 3. `bucket`: address bucket, plus one (filled on first touch);
/// 4. `pf`: tracked prefetch — its class plus one, [`PF_ARRIVED`] set
///    once the line arrived; zero when none is tracked.
type PageRec = (u64, u64, u32, u32, u8);

/// Bit of [`PageRec`]'s `pf` field: the prefetched line has arrived.
const PF_ARRIVED: u8 = 0x80;

/// Class index (into the fate counters) of a non-zero `pf` field.
#[inline]
fn pf_class(pf: u8) -> usize {
    (pf & !PF_ARRIVED) as usize - 1
}

/// Page-indexed [`PageRec`]s: a dense zero-initialised slab for pages
/// inside the footprint, a hash table for the (never, in the simulator)
/// pages beyond it.
struct PageTable {
    dense: Vec<PageRec>,
    sparse: FxHashMap<u64, PageRec>,
}

impl PageTable {
    fn new(total_pages: u64) -> PageTable {
        let n = usize::try_from(total_pages).expect("page footprint exceeds the address space");
        PageTable {
            dense: vec![(0, 0, 0, 0, 0); n],
            sparse: FxHashMap::default(),
        }
    }

    /// The page's record, created empty if the page is new.
    #[inline]
    fn rec(&mut self, page: u64) -> &mut PageRec {
        match self.dense.get_mut(page as usize) {
            Some(r) => r,
            None => self.sparse.entry(page).or_default(),
        }
    }

    /// The page's record if it could hold anything (a lookup never
    /// grows the sparse part).
    #[inline]
    fn peek(&mut self, page: u64) -> Option<&mut PageRec> {
        match self.dense.get_mut(page as usize) {
            Some(r) => Some(r),
            None => self.sparse.get_mut(&page),
        }
    }

    fn iter(&self) -> impl Iterator<Item = &PageRec> {
        self.dense.iter().chain(self.sparse.values())
    }
}

struct HeatSlot {
    page: u64,
    weight: f64,
}

/// The SpaceSaving slots plus a binary min-heap over them keyed
/// `(weight, slot index)`, so the slot to displace — minimum weight,
/// lowest index among ties — is the heap's root.
struct HeatSketch {
    slots: Vec<HeatSlot>,
    /// Slot indices in heap order.
    heap: Vec<u32>,
    /// Heap position of each slot.
    pos: Vec<u32>,
}

impl HeatSketch {
    fn with_capacity(top_k: usize) -> HeatSketch {
        HeatSketch {
            slots: Vec::with_capacity(top_k),
            heap: Vec::with_capacity(top_k),
            pos: Vec::with_capacity(top_k),
        }
    }

    #[inline]
    fn before(&self, a: u32, b: u32) -> bool {
        let (wa, wb) = (self.slots[a as usize].weight, self.slots[b as usize].weight);
        wa < wb || (wa == wb && a < b)
    }

    /// Sinks the slot at heap position `i` (its weight grew).
    fn sift_down(&mut self, mut i: usize) {
        let slot = self.heap[i];
        loop {
            let mut child = 2 * i + 1;
            if child >= self.heap.len() {
                break;
            }
            if child + 1 < self.heap.len() && self.before(self.heap[child + 1], self.heap[child]) {
                child += 1;
            }
            if !self.before(self.heap[child], slot) {
                break;
            }
            self.heap[i] = self.heap[child];
            self.pos[self.heap[i] as usize] = i as u32;
            i = child;
        }
        self.heap[i] = slot;
        self.pos[slot as usize] = i as u32;
    }

    /// Restores the heap order over all slots.
    fn heapify(&mut self) {
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i);
        }
    }

    /// Adds a slot of weight 1 for `page` and returns its index. (A
    /// sketch fills its `top_k` slots once, so re-ordering the whole
    /// heap per fill is cheap enough.)
    fn push(&mut self, page: u64) -> u32 {
        let slot = u32::try_from(self.slots.len()).expect("heat sketch has under 2^32 slots");
        self.slots.push(HeatSlot { page, weight: 1.0 });
        self.pos.push(slot);
        self.heap.push(slot);
        self.heapify();
        slot
    }

    /// Adds 1 to a tracked slot's weight.
    #[inline]
    fn bump(&mut self, slot: u32) {
        self.slots[slot as usize].weight += 1.0;
        self.sift_down(self.pos[slot as usize] as usize);
    }

    /// Hands the minimum slot to `page` with the displaced page's
    /// weight plus one. Returns the slot and what it held.
    fn displace_min(&mut self, page: u64) -> (u32, HeatSlot) {
        let slot = self.heap[0];
        let s = &mut self.slots[slot as usize];
        let old = std::mem::replace(
            s,
            HeatSlot {
                page,
                weight: s.weight + 1.0,
            },
        );
        self.sift_down(0);
        (slot, old)
    }

    /// Multiplies every weight by `age` and rebuilds the heap: scaling
    /// keeps the order of distinct weights but can round two of them
    /// equal, and a new tie is ordered by slot index.
    fn decay(&mut self, age: f64) {
        for s in &mut self.slots {
            s.weight *= age;
        }
        self.heapify();
    }
}

/// One closed observation window.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowRow {
    /// Window index (`start_ns = idx * heat_window_ns`).
    pub idx: u64,
    /// Distinct pages touched in the window.
    pub ws_pages: u64,
    /// Shard heat skew (`max/mean` share) at window close.
    pub skew: f64,
    /// Cumulative strict prefetch hit-rate at window close.
    pub hit_rate: f64,
    /// Touches per address bucket inside the window.
    pub buckets: Vec<u64>,
}

/// Live observatory state; one per enabled run.
pub struct MemObservatory {
    cfg: MemObsConfig,
    total_pages: u64,
    pages: PageTable,
    // Prefetch-fate attribution.
    /// Prefetch records currently tracked in `pages`.
    pf_tracked: usize,
    fates: [FateCounters; 3],
    // Heat sketch (SpaceSaving) + displaced-weight histogram.
    sketch: HeatSketch,
    rest_hist: Vec<f64>,
    // Windows.
    cur_window: u64,
    /// `[start, end)` of the current window in ns: a touch inside it
    /// needs no division to find its window.
    cur_span: (u64, u64),
    distinct_pages: u64,
    ws_cur: u64,
    hm_cur: Vec<u64>,
    shard_cur: Vec<u64>,
    shard_heat: Vec<f64>,
    shares: Vec<f64>,
    skew: f64,
    ws_last: u64,
    rows: Vec<WindowRow>,
    // Stride fingerprint.
    strides: FxHashMap<i64, u64>,
    stride_other: u64,
    touches: u64,
    dropped: u64,
}

impl MemObservatory {
    /// Creates an observatory over a `total_pages` footprint spread
    /// across `shards` rails.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate configuration (zero window, no buckets,
    /// no slots, or a decay outside `(0, 1]`).
    pub fn new(cfg: MemObsConfig, total_pages: u64, shards: usize) -> MemObservatory {
        assert!(cfg.heat_window_ns > 0, "zero-width heat window");
        assert!(cfg.heatmap_buckets > 0 && cfg.top_k > 0, "empty sketch");
        assert!(
            cfg.heat_decay > 0.0 && cfg.heat_decay <= 1.0,
            "decay outside (0, 1]"
        );
        let total_pages = total_pages.max(1);
        MemObservatory {
            cfg,
            total_pages,
            pages: PageTable::new(total_pages),
            pf_tracked: 0,
            fates: [FateCounters::default(); 3],
            sketch: HeatSketch::with_capacity(cfg.top_k),
            rest_hist: vec![0.0; cfg.heatmap_buckets],
            cur_window: 0,
            cur_span: (0, cfg.heat_window_ns),
            distinct_pages: 0,
            ws_cur: 0,
            hm_cur: vec![0; cfg.heatmap_buckets],
            shard_cur: vec![0; shards.max(1)],
            shard_heat: vec![0.0; shards.max(1)],
            shares: vec![0.0; shards.max(1)],
            skew: 0.0,
            ws_last: 0,
            rows: Vec::new(),
            strides: FxHashMap::default(),
            stride_other: 0,
            touches: 0,
            dropped: 0,
        }
    }

    /// Sizes the window-row series for a run closing `windows` windows
    /// (capped at [`MemObsConfig::max_windows`], past which rows are
    /// dropped anyway).
    pub fn reserve(&mut self, windows: usize) {
        self.rows.reserve(windows.min(self.cfg.max_windows));
    }

    #[inline]
    fn bucket(&self, page: u64) -> usize {
        let b = self.cfg.heatmap_buckets as u64;
        ((page.min(self.total_pages - 1) * b) / self.total_pages) as usize
    }

    /// Closes every window before `w` and advances to it.
    fn roll_to(&mut self, w: u64) {
        debug_assert!(w > self.cur_window);
        let gap = w - self.cur_window;
        // Fold the closing window's shard touches into the decayed
        // heat, then age everything across the (possibly idle) gap.
        let d = self.cfg.heat_decay;
        let total: f64 = {
            for (h, c) in self.shard_heat.iter_mut().zip(&self.shard_cur) {
                *h = *h * d + *c as f64;
            }
            self.shard_heat.iter().sum()
        };
        if total > 0.0 {
            let n = self.shard_heat.len() as f64;
            let mut max = 0.0f64;
            for (s, h) in self.shard_heat.iter().enumerate() {
                let share = h / total;
                self.shares[s] = share;
                max = max.max(share);
            }
            self.skew = max * n;
        }
        if gap > 1 {
            let age = d.powi((gap - 1) as i32);
            for h in &mut self.shard_heat {
                *h *= age;
            }
        }
        let age_all = d.powi(gap as i32);
        self.sketch.decay(age_all);
        for r in &mut self.rest_hist {
            *r *= age_all;
        }
        self.ws_last = self.ws_cur;
        if self.ws_cur > 0 || self.hm_cur.iter().any(|&c| c > 0) {
            if self.rows.len() < self.cfg.max_windows {
                self.rows.push(WindowRow {
                    idx: self.cur_window,
                    ws_pages: self.ws_cur,
                    skew: self.skew,
                    hit_rate: self.hit_rate(),
                    buckets: std::mem::replace(&mut self.hm_cur, vec![0; self.cfg.heatmap_buckets]),
                });
            } else {
                self.dropped += 1;
                self.hm_cur.iter_mut().for_each(|c| *c = 0);
            }
        }
        self.ws_cur = 0;
        self.shard_cur.iter_mut().for_each(|c| *c = 0);
        self.cur_window = w;
        let start = w.saturating_mul(self.cfg.heat_window_ns);
        self.cur_span = (start, start.saturating_add(self.cfg.heat_window_ns));
    }

    /// Books one completed demand access. Returns `true` when one or
    /// more windows closed (gauge values are fresh).
    pub fn on_touch(&mut self, page: u64, shard: usize, now_ns: u64, delta: Option<i64>) -> bool {
        // A skewed worker clock can stamp a touch before the current
        // window; only then (and at a roll) is the window divided out.
        let in_current = now_ns >= self.cur_span.0 && now_ns < self.cur_span.1;
        let w = if in_current {
            self.cur_window
        } else {
            now_ns / self.cfg.heat_window_ns
        };
        let rolled = w > self.cur_window;
        if rolled {
            self.roll_to(w);
        }
        self.touches += 1;
        let &mut (seen, _, slot, bucket, _) = self.pages.rec(page);
        let bucket = match bucket {
            0 => u32::try_from(self.bucket(page) + 1).expect("under 2^32 heatmap buckets"),
            filled => filled,
        };
        // Heat sketch: bump a tracked slot, fill a free one, or
        // displace the minimum-weight slot (ties broken by slot index,
        // which is deterministic).
        let slot = if slot != 0 {
            self.sketch.bump(slot - 1);
            slot
        } else if self.sketch.slots.len() < self.cfg.top_k {
            self.sketch.push(page) + 1
        } else {
            let (slot, old) = self.sketch.displace_min(page);
            // A page in the sketch was touched: its bucket is filled.
            let (_, _, old_slot, old_bucket, _) = self.pages.rec(old.page);
            *old_slot = 0;
            self.rest_hist[*old_bucket as usize - 1] += old.weight;
            slot + 1
        };
        let (rec_seen, _, rec_slot, rec_bucket, _) = self.pages.rec(page);
        (*rec_seen, *rec_slot, *rec_bucket) = (w + 1, slot, bucket);
        self.hm_cur[bucket as usize - 1] += 1;
        if let Some(c) = self.shard_cur.get_mut(shard) {
            *c += 1;
        }
        if seen == 0 {
            self.distinct_pages += 1;
        }
        if seen < w + 1 {
            self.ws_cur += 1;
        }
        if let Some(d) = delta {
            if let Some(c) = self.strides.get_mut(&d) {
                *c += 1;
            } else if self.strides.len() < self.cfg.max_strides {
                self.strides.insert(d, 1);
            } else {
                self.stride_other += 1;
            }
        }
        rolled
    }

    /// Records a prefetch issuance. When the record table is full the
    /// prefetch is conservatively booked `issued + wasted` at once and
    /// counted dropped, keeping the conservation identity exact.
    pub fn on_prefetch_issued(&mut self, page: u64, class: PrefetchClass, now_ns: u64) {
        let f = &mut self.fates[class as usize];
        f.issued += 1;
        if self.pf_tracked >= self.cfg.max_tracked {
            f.wasted += 1;
            self.dropped += 1;
            return;
        }
        let (_, pf_issued_ns, _, _, pf) = self.pages.rec(page);
        let prev = std::mem::replace(pf, class as u8 + 1);
        *pf_issued_ns = now_ns;
        debug_assert!(prev == 0, "prefetch of a page already tracked");
        match prev {
            0 => self.pf_tracked += 1,
            // Defensive: never lose a record — the displaced prefetch
            // was never consumed.
            displaced => self.fates[pf_class(displaced)].wasted += 1,
        }
    }

    /// Marks a tracked prefetch's data as arrived (fetch completed).
    pub fn on_prefetch_arrived(&mut self, page: u64) {
        if let Some((_, _, _, _, pf)) = self.pages.peek(page) {
            if *pf != 0 {
                *pf |= PF_ARRIVED;
            }
        }
    }

    /// Stops tracking `page`'s prefetch, if there is one, and returns
    /// its class index and issue instant.
    #[inline]
    fn pf_take(&mut self, page: u64) -> Option<(usize, u64)> {
        let (_, pf_issued_ns, _, _, pf) = self.pages.peek(page)?;
        if *pf == 0 {
            return None;
        }
        let taken = (pf_class(std::mem::take(pf)), *pf_issued_ns);
        self.pf_tracked -= 1;
        Some(taken)
    }

    /// Classifies a tracked prefetch as a hit. Returns whether a
    /// record existed.
    #[inline]
    pub fn classify_hit(&mut self, page: u64) -> bool {
        match self.pf_take(page) {
            Some((class, _)) => {
                self.fates[class].hits += 1;
                true
            }
            None => false,
        }
    }

    /// Classifies a tracked prefetch as late: a demand access at
    /// `now_ns` raced the still-in-flight line. The head start since
    /// issue is credited as saved latency.
    pub fn classify_late(&mut self, page: u64, now_ns: u64) -> bool {
        match self.pf_take(page) {
            Some((class, issued_ns)) => {
                let f = &mut self.fates[class];
                f.lates += 1;
                f.late_saved_ns += now_ns.saturating_sub(issued_ns);
                true
            }
            None => false,
        }
    }

    /// Classifies a tracked prefetch as wasted (evicted unaccessed or
    /// failed terminally). Returns whether a record existed.
    #[inline]
    pub fn classify_wasted(&mut self, page: u64) -> bool {
        match self.pf_take(page) {
            Some((class, _)) => {
                self.fates[class].wasted += 1;
                true
            }
            None => false,
        }
    }

    /// Rows (ws/heatmap/series) and records dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Distinct pages touched in the last closed window.
    pub fn ws_last(&self) -> u64 {
        self.ws_last
    }

    /// Shard heat skew (`max/mean` share) as of the last closed window.
    pub fn heat_skew(&self) -> f64 {
        self.skew
    }

    /// Decayed heat share of shard `s` as of the last closed window.
    pub fn shard_share(&self, s: usize) -> f64 {
        self.shares.get(s).copied().unwrap_or(0.0)
    }

    /// Cumulative strict hit-rate over classified prefetches.
    pub fn hit_rate(&self) -> f64 {
        let (mut hits, mut done) = (0u64, 0u64);
        for f in &self.fates {
            hits += f.hits;
            done += f.hits + f.lates + f.wasted;
        }
        if done == 0 {
            0.0
        } else {
            hits as f64 / done as f64
        }
    }

    /// Closes the run at `end_ns`: flushes the open window, sweeps the
    /// remaining records (arrived → wasted, in flight →
    /// `inflight_at_end`) and freezes the report.
    pub fn finish(mut self, end_ns: u64) -> MemReport {
        let w = end_ns / self.cfg.heat_window_ns + 1;
        if w > self.cur_window {
            self.roll_to(w);
        }
        // Sweep what is still tracked (the fates are counts, so the
        // order of the sweep is immaterial).
        if self.pf_tracked > 0 {
            for &(_, _, _, _, pf) in self.pages.iter().filter(|r| r.4 != 0) {
                let f = &mut self.fates[pf_class(pf)];
                if pf & PF_ARRIVED != 0 {
                    f.wasted += 1;
                } else {
                    f.inflight_at_end += 1;
                }
            }
        }
        let mut heat_top: Vec<(u64, f64)> = self
            .sketch
            .slots
            .iter()
            .map(|s| (s.page, s.weight))
            .collect();
        heat_top.sort_unstable_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        let mut strides: Vec<(i64, u64)> = self.strides.iter().map(|(&d, &c)| (d, c)).collect();
        strides.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        MemReport {
            window_ns: self.cfg.heat_window_ns,
            heatmap_buckets: self.cfg.heatmap_buckets,
            total_pages: self.total_pages,
            touches: self.touches,
            distinct_pages: self.distinct_pages,
            classes: self.fates,
            heat_top,
            rest_hist: self.rest_hist,
            rows: self.rows,
            strides,
            stride_other: self.stride_other,
            shard_shares: self.shares,
            heat_skew: self.skew,
            obs_dropped: self.dropped,
        }
    }
}

/// Frozen end-of-run observatory report, serialised into the
/// `"memory"` run-JSON block and the heatmap/fingerprint CSVs.
#[derive(Clone, Debug, PartialEq)]
pub struct MemReport {
    /// Window width used for every series.
    pub window_ns: u64,
    /// Address buckets of the heatmap and rest histogram.
    pub heatmap_buckets: usize,
    /// Page-space size the buckets divide.
    pub total_pages: u64,
    /// Completed demand accesses booked.
    pub touches: u64,
    /// Distinct pages touched over the whole run.
    pub distinct_pages: u64,
    /// Per-class fate counters, indexed by [`PrefetchClass`].
    pub classes: [FateCounters; 3],
    /// Heavy hitters, hottest first (page, decayed weight).
    pub heat_top: Vec<(u64, f64)>,
    /// Decayed weight displaced from the sketch, per address bucket.
    pub rest_hist: Vec<f64>,
    /// Closed windows in time order.
    pub rows: Vec<WindowRow>,
    /// Stride fingerprint, most frequent first (delta pages, count).
    pub strides: Vec<(i64, u64)>,
    /// Stride observations beyond the tracked deltas.
    pub stride_other: u64,
    /// Final decayed heat share per shard.
    pub shard_shares: Vec<f64>,
    /// Final `max/mean` shard heat skew.
    pub heat_skew: f64,
    /// Rows/records dropped by bounded-memory caps.
    pub obs_dropped: u64,
}

impl MemReport {
    /// Totals over all detector classes.
    pub fn totals(&self) -> FateCounters {
        let mut t = FateCounters::default();
        for c in &self.classes {
            t.issued += c.issued;
            t.hits += c.hits;
            t.lates += c.lates;
            t.wasted += c.wasted;
            t.inflight_at_end += c.inflight_at_end;
            t.late_saved_ns += c.late_saved_ns;
        }
        t
    }

    /// Exact conservation identity, per class and in total.
    pub fn holds(&self) -> bool {
        self.classes.iter().all(FateCounters::holds) && self.totals().holds()
    }

    /// Cumulative strict hit-rate (`hits / classified`).
    pub fn hit_rate(&self) -> f64 {
        let t = self.totals();
        let done = t.hits + t.lates + t.wasted;
        if done == 0 {
            0.0
        } else {
            t.hits as f64 / done as f64
        }
    }

    /// Mean working-set pages over closed windows.
    pub fn ws_mean(&self) -> f64 {
        if self.rows.is_empty() {
            0.0
        } else {
            self.rows.iter().map(|r| r.ws_pages as f64).sum::<f64>() / self.rows.len() as f64
        }
    }

    /// Peak working-set pages over closed windows.
    pub fn ws_peak(&self) -> u64 {
        self.rows.iter().map(|r| r.ws_pages).max().unwrap_or(0)
    }

    /// Deterministic JSON for the `"memory"` run-JSON block.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        let t = self.totals();
        let _ = write!(
            out,
            "{{\"window_ns\":{},\"touches\":{},\"distinct_pages\":{},\"total_pages\":{}",
            self.window_ns, self.touches, self.distinct_pages, self.total_pages
        );
        let _ = write!(
            out,
            ",\"prefetch\":{{\"issued\":{},\"hits\":{},\"lates\":{},\"wasted\":{},\
             \"inflight_at_end\":{},\"late_saved_ns\":{},\"hit_rate\":{:.6},\"conserved\":{}",
            t.issued,
            t.hits,
            t.lates,
            t.wasted,
            t.inflight_at_end,
            t.late_saved_ns,
            self.hit_rate(),
            self.holds()
        );
        out.push_str(",\"by_detector\":{");
        for (i, c) in self.classes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"issued\":{},\"hits\":{},\"lates\":{},\"wasted\":{},\
                 \"inflight_at_end\":{},\"late_saved_ns\":{}}}",
                CLASS_NAMES[i],
                c.issued,
                c.hits,
                c.lates,
                c.wasted,
                c.inflight_at_end,
                c.late_saved_ns
            );
        }
        out.push_str("}}");
        let _ = write!(
            out,
            ",\"working_set\":{{\"windows\":{},\"mean_pages\":{:.3},\"peak_pages\":{}}}",
            self.rows.len(),
            self.ws_mean(),
            self.ws_peak()
        );
        out.push_str(",\"heat\":{\"top\":[");
        for (i, (page, w)) in self.heat_top.iter().take(16).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"page\":{page},\"weight\":{w:.3}}}");
        }
        let _ = write!(out, "],\"skew\":{:.6},\"shard_shares\":[", self.heat_skew);
        for (i, s) in self.shard_shares.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{s:.6}");
        }
        out.push_str("]}");
        out.push_str(",\"strides\":{\"top\":[");
        for (i, (d, c)) in self.strides.iter().take(16).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"delta\":{d},\"count\":{c}}}");
        }
        let _ = write!(out, "],\"other\":{}}}", self.stride_other);
        let _ = write!(out, ",\"obs_dropped\":{}", self.obs_dropped);
        if self.obs_dropped > 0 {
            let _ = write!(
                out,
                ",\"warning\":\"{} observatory rows/records dropped by bounded-memory caps; \
                 series under-report\"",
                self.obs_dropped
            );
        }
        out.push('}');
        out
    }

    /// Heatmap CSV: one row per non-zero `window × bucket` cell.
    pub fn heatmap_csv(&self) -> String {
        let mut out = String::from("window_start_us,page_bucket,touches\n");
        for r in &self.rows {
            let start_us = r.idx * self.window_ns / 1000;
            for (b, &c) in r.buckets.iter().enumerate() {
                if c > 0 {
                    let _ = writeln!(out, "{start_us},{b},{c}");
                }
            }
        }
        out
    }

    /// Access-shape fingerprint CSV (stride distribution).
    pub fn fingerprint_csv(&self) -> String {
        let mut out = String::from("delta_pages,count\n");
        for (d, c) in &self.strides {
            let _ = writeln!(out, "{d},{c}");
        }
        if self.stride_other > 0 {
            let _ = writeln!(out, "other,{}", self.stride_other);
        }
        out
    }

    /// Perfetto counter events (heat skew, working set, hit-rate) under
    /// the synthetic process `pid`, one sample per closed window.
    pub fn perfetto_counter_events(&self, pid: u64) -> Vec<String> {
        let mut out = Vec::with_capacity(self.rows.len() * 3 + 1);
        out.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\
             \"args\":{{\"name\":\"memory\"}}}}"
        ));
        for r in &self.rows {
            let end_ns = (r.idx + 1) * self.window_ns;
            let ts = format!("{:.3}", end_ns as f64 / 1000.0);
            out.push(format!(
                "{{\"ph\":\"C\",\"pid\":{pid},\"name\":\"heat_skew\",\"ts\":{ts},\
                 \"args\":{{\"value\":{:.6}}}}}",
                r.skew
            ));
            out.push(format!(
                "{{\"ph\":\"C\",\"pid\":{pid},\"name\":\"prefetch_hit_rate\",\"ts\":{ts},\
                 \"args\":{{\"value\":{:.6}}}}}",
                r.hit_rate
            ));
            out.push(format!(
                "{{\"ph\":\"C\",\"pid\":{pid},\"name\":\"ws_pages\",\"ts\":{ts},\
                 \"args\":{{\"value\":{}}}}}",
                r.ws_pages
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(pages: u64, shards: usize) -> MemObservatory {
        MemObservatory::new(MemObsConfig::default(), pages, shards)
    }

    #[test]
    fn fates_conserve_across_every_classification_path() {
        let mut o = obs(1000, 1);
        o.on_prefetch_issued(1, PrefetchClass::Readahead, 100);
        o.on_prefetch_issued(2, PrefetchClass::Readahead, 100);
        o.on_prefetch_issued(3, PrefetchClass::Leap, 100);
        o.on_prefetch_issued(4, PrefetchClass::Speculative, 100);
        o.on_prefetch_issued(5, PrefetchClass::Leap, 100);
        o.on_prefetch_arrived(1);
        assert!(o.classify_hit(1));
        assert!(o.classify_late(2, 600));
        o.on_prefetch_arrived(3);
        assert!(o.classify_wasted(3)); // evicted unaccessed
        o.on_prefetch_arrived(4); // arrived, never accessed → sweep wasted
                                  // page 5 stays in flight → inflight_at_end
        let r = o.finish(10_000_000);
        let t = r.totals();
        assert_eq!(
            (t.issued, t.hits, t.lates, t.wasted, t.inflight_at_end),
            (5, 1, 1, 2, 1)
        );
        assert!(r.holds());
        assert_eq!(
            r.classes[PrefetchClass::Readahead as usize].late_saved_ns,
            500
        );
        assert_eq!(r.classes[PrefetchClass::Leap as usize].inflight_at_end, 1);
    }

    #[test]
    fn record_cap_overflow_stays_conserved_and_counts_dropped() {
        let cfg = MemObsConfig {
            max_tracked: 2,
            ..MemObsConfig::default()
        };
        let mut o = MemObservatory::new(cfg, 100, 1);
        for p in 0..5u64 {
            o.on_prefetch_issued(p, PrefetchClass::Readahead, 0);
        }
        let r = o.finish(1);
        assert!(r.holds());
        assert_eq!(r.totals().issued, 5);
        assert_eq!(r.obs_dropped, 3);
        assert!(r.to_json().contains("\"warning\""));
    }

    #[test]
    fn heat_sketch_is_bounded_and_finds_the_heavy_hitter() {
        let cfg = MemObsConfig {
            top_k: 4,
            ..MemObsConfig::default()
        };
        let mut o = MemObservatory::new(cfg, 10_000, 1);
        for i in 0..2_000u64 {
            o.on_touch(7, 0, i, None); // hot page
            o.on_touch(i % 1_000, 0, i, None); // churn
        }
        let r = o.finish(2_000);
        assert_eq!(r.heat_top.len(), 4);
        assert_eq!(r.heat_top[0].0, 7, "hot page must top the sketch");
        assert!(
            r.rest_hist.iter().sum::<f64>() > 0.0,
            "displaced weight lands in the rest"
        );
    }

    #[test]
    fn windows_roll_decay_and_cap() {
        let cfg = MemObsConfig {
            heat_window_ns: 100,
            max_windows: 3,
            ..MemObsConfig::default()
        };
        let mut o = MemObservatory::new(cfg, 64, 2);
        for w in 0..6u64 {
            for i in 0..4 {
                let rolled = o.on_touch(i, (i % 2) as usize, w * 100 + i, None);
                assert_eq!(rolled, w > 0 && i == 0);
            }
        }
        let r = o.finish(600);
        assert_eq!(r.rows.len(), 3, "row cap");
        assert_eq!(r.obs_dropped, 3, "each dropped row is counted");
        assert_eq!(r.rows[0].ws_pages, 4);
        // Two shards touched evenly → no skew.
        assert!((r.heat_skew - 1.0).abs() < 1e-9, "skew {}", r.heat_skew);
        assert!((r.shard_shares[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn skewed_touches_show_dominant_shard() {
        let mut o = obs(1024, 4);
        for i in 0..1_000u64 {
            o.on_touch(i % 16, 0, i * 1_000, None); // all heat on shard 0
        }
        o.on_touch(999, 3, 2_000_000, None);
        let r = o.finish(3_000_000);
        assert!(r.shard_shares[0] > 0.9, "shares {:?}", r.shard_shares);
        assert!(r.heat_skew > 3.5, "skew {}", r.heat_skew);
    }

    #[test]
    fn stride_fingerprint_tracks_deltas_and_overflows_to_other() {
        let cfg = MemObsConfig {
            max_strides: 2,
            ..MemObsConfig::default()
        };
        let mut o = MemObservatory::new(cfg, 1 << 20, 1);
        for i in 0..10u64 {
            o.on_touch(i, 0, i, Some(1));
        }
        o.on_touch(100, 0, 20, Some(-3));
        o.on_touch(200, 0, 21, Some(17)); // over cap → other
        let r = o.finish(100);
        assert_eq!(r.strides[0], (1, 10));
        assert_eq!(r.strides[1], (-3, 1));
        assert_eq!(r.stride_other, 1);
        let csv = r.fingerprint_csv();
        assert!(csv.contains("1,10") && csv.ends_with("other,1\n"));
    }

    #[test]
    fn exports_are_deterministic_and_wellformed() {
        let run = || {
            let mut o = obs(4096, 2);
            for i in 0..500u64 {
                o.on_touch((i * 7) % 512, (i % 2) as usize, i * 2_500, Some(7));
            }
            o.on_prefetch_issued(9, PrefetchClass::Leap, 10);
            o.on_prefetch_arrived(9);
            o.classify_hit(9);
            o.finish(1_250_000)
        };
        let (a, b) = (run(), run());
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.heatmap_csv(), b.heatmap_csv());
        assert_eq!(
            a.perfetto_counter_events(3_000_000),
            b.perfetto_counter_events(3_000_000)
        );
        assert!(a.heatmap_csv().lines().count() > 1, "non-empty heatmap");
        assert!(a.to_json().contains("\"conserved\":true"));
        for ev in a.perfetto_counter_events(3_000_000).iter().skip(1) {
            assert!(ev.contains("\"ph\":\"C\""), "{ev}");
        }
    }

    #[test]
    fn ws_counts_distinct_pages_per_window() {
        let cfg = MemObsConfig {
            heat_window_ns: 1_000,
            ..MemObsConfig::default()
        };
        let mut o = MemObservatory::new(cfg, 64, 1);
        for _ in 0..10 {
            o.on_touch(5, 0, 10, None);
        }
        o.on_touch(6, 0, 20, None);
        o.on_touch(5, 0, 1_500, None); // same page, next window → counted again
        let r = o.finish(2_000);
        assert_eq!(r.rows[0].ws_pages, 2);
        assert_eq!(r.rows[1].ws_pages, 1);
        assert_eq!(r.distinct_pages, 2);
        assert_eq!(r.ws_peak(), 2);
    }

    /// Feeds one pseudo-random run — demand accesses drawn by
    /// `next_page`, prefetch traffic on neighbouring pages, a clock
    /// that crosses a window every ~100 touches, idles once, and
    /// sometimes stamps a touch just behind it — to the observatory and
    /// to the reference, and compares the two reports bit for bit.
    fn assert_matches_reference(
        cfg: MemObsConfig,
        seed: u64,
        mut next_page: impl FnMut(&mut desim::Rng, u64) -> u64,
    ) {
        const PAGES: u64 = 4_096;
        const TOUCHES: u64 = 8_000;
        let mut new = MemObservatory::new(cfg, PAGES, 4);
        let mut old = reference::RefObservatory::new(cfg, PAGES, 4);
        let mut rng = desim::Rng::new(seed);
        let (mut clock, mut last) = (0u64, 0u64);
        for i in 0..TOUCHES {
            clock += rng.gen_range(cfg.heat_window_ns / 50);
            if i == TOUCHES / 2 {
                // An idle stretch long enough that decay 0.5 underflows
                // every weight to zero: the whole sketch ties.
                clock += 1_100 * cfg.heat_window_ns;
            }
            // Worker clocks lead the event clock by a bounded skew, so
            // a touch can be stamped before the window just opened.
            let now = clock.saturating_sub(rng.gen_range(8) / 7 * (cfg.heat_window_ns / 20));
            let page = next_page(&mut rng, i);
            let (shard, delta) = ((page % 4) as usize, Some(page as i64 - last as i64));
            last = page;
            if rng.gen_bool(0.5) {
                assert_eq!(new.classify_hit(page), old.classify_hit(page));
            }
            assert_eq!(
                new.on_touch(page, shard, now, delta),
                old.on_touch(page, shard, now, delta),
                "touch {i}"
            );
            // Prefetch traffic next to the touched page, every fate.
            let near = page + 1 + rng.gen_range(3);
            match rng.gen_range(8) {
                0 | 1 => {
                    // The runtime never re-issues a tracked page.
                    assert_eq!(new.classify_wasted(near), old.classify_wasted(near));
                    let class = [
                        PrefetchClass::Readahead,
                        PrefetchClass::Leap,
                        PrefetchClass::Speculative,
                    ][rng.gen_range(3) as usize];
                    new.on_prefetch_issued(near, class, now);
                    old.on_prefetch_issued(near, class, now);
                }
                2 => {
                    new.on_prefetch_arrived(near);
                    old.on_prefetch_arrived(near);
                }
                3 => assert_eq!(
                    new.classify_late(near, now + 50),
                    old.classify_late(near, now + 50)
                ),
                _ => {}
            }
            assert_eq!(new.hit_rate().to_bits(), old.hit_rate().to_bits());
            assert_eq!(new.ws_last(), old.ws_last());
            assert_eq!(new.dropped(), old.dropped());
        }
        assert!(
            clock / cfg.heat_window_ns >= 50,
            "the run must roll 50 windows"
        );
        let (new, old) = (new.finish(clock), old.finish(clock));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(new.heat_top.len(), old.heat_top.len());
        for (n, o) in new.heat_top.iter().zip(&old.heat_top) {
            assert_eq!((n.0, n.1.to_bits()), (o.0, o.1.to_bits()), "heat_top");
        }
        assert_eq!(bits(&new.rest_hist), bits(&old.rest_hist), "rest_hist");
        assert_eq!(new.rows, old.rows, "rows");
        assert_eq!(new, old);
        assert!(new.holds());
        assert_eq!(new.to_json(), old.to_json());
    }

    /// The slot a linear scan displaces: minimum weight, lowest index
    /// among ties.
    fn scan_min(sk: &HeatSketch) -> u32 {
        let mut min_i = 0;
        for (i, s) in sk.slots.iter().enumerate() {
            if s.weight < sk.slots[min_i].weight {
                min_i = i;
            }
        }
        min_i as u32
    }

    #[test]
    fn heap_root_is_the_scan_minimum_after_every_operation() {
        let mut rng = desim::Rng::new(5);
        let mut sk = HeatSketch::with_capacity(16);
        for page in 0..16 {
            sk.push(page);
            assert_eq!(sk.heap[0], scan_min(&sk));
        }
        for step in 0..4_000u64 {
            match rng.gen_range(10) {
                0 => sk.decay([1.0, 0.5, 0.9][rng.gen_range(3) as usize]),
                1..=4 => sk.bump(rng.gen_range(16) as u32),
                _ => {
                    let want = scan_min(&sk);
                    assert_eq!(sk.displace_min(100 + step).0, want);
                }
            }
            assert_eq!(sk.heap[0], scan_min(&sk), "step {step}");
            for (i, &slot) in sk.heap.iter().enumerate() {
                assert_eq!(sk.pos[slot as usize] as usize, i);
            }
        }
    }

    #[test]
    fn decay_reorders_the_ties_it_creates() {
        let mut sk = HeatSketch::with_capacity(3);
        for page in 0..3 {
            sk.push(page);
        }
        // Two distinct subnormal weights that halve to the same value
        // (3ε → 1.5ε rounds to 2ε; 4ε → 2ε), the smaller in the higher
        // slot.
        sk.slots[0].weight = f64::from_bits(4);
        sk.slots[1].weight = f64::from_bits(3);
        sk.decay(1.0);
        assert_eq!(sk.heap[0], 1);
        sk.decay(0.5);
        assert_eq!(sk.slots[0].weight.to_bits(), sk.slots[1].weight.to_bits());
        assert_eq!(sk.heap[0], 0, "a tie goes to the lowest slot");
    }

    #[test]
    fn page_table_and_heap_report_like_hash_maps_and_scan() {
        for heat_decay in [0.5, 1.0] {
            for top_k in [1, 5, 64] {
                let cfg = MemObsConfig {
                    heat_window_ns: 10_000,
                    heat_decay,
                    top_k,
                    max_tracked: 40,
                    ..MemObsConfig::default()
                };
                // Uniform: nearly every touch displaces, and with no
                // decay every weight is a small integer — ties
                // everywhere. Every 500th page lies past the footprint.
                assert_matches_reference(cfg, 1, |rng, i| match i % 500 {
                    0 => 4_096 + rng.gen_range(64),
                    _ => rng.gen_range(4_096),
                });
                // Zipf-like: a few heavy hitters stay in the sketch.
                assert_matches_reference(cfg, 2, |rng, _| {
                    let u = rng.gen_f64();
                    ((4_096.0f64).powf(u * u * u) as u64).min(4_095)
                });
                // Sequential scan, wrapping.
                assert_matches_reference(cfg, 3, |_, i| (i * 3) % 4_096);
            }
        }
    }

    /// The observatory as it was before the page table and the heap: hash
    /// maps keyed by page and a linear scan for the sketch's minimum. The
    /// oracle of the equivalence tests below.
    #[allow(dead_code)]
    mod reference {
        use super::super::*;

        struct PfRec {
            class: u8,
            issued_ns: u64,
            arrived: bool,
        }

        struct HeatSlot {
            page: u64,
            weight: f64,
        }

        /// Live observatory state; one per enabled run.
        pub struct RefObservatory {
            cfg: MemObsConfig,
            total_pages: u64,
            // Prefetch-fate attribution.
            pf: FxHashMap<u64, PfRec>,
            fates: [FateCounters; 3],
            // Heat sketch (SpaceSaving) + displaced-weight histogram.
            slots: Vec<HeatSlot>,
            slot_of: FxHashMap<u64, usize>,
            rest_hist: Vec<f64>,
            // Windows.
            cur_window: u64,
            last_seen: FxHashMap<u64, u64>,
            ws_cur: u64,
            hm_cur: Vec<u64>,
            shard_cur: Vec<u64>,
            shard_heat: Vec<f64>,
            shares: Vec<f64>,
            skew: f64,
            ws_last: u64,
            rows: Vec<WindowRow>,
            // Stride fingerprint.
            strides: FxHashMap<i64, u64>,
            stride_other: u64,
            touches: u64,
            dropped: u64,
        }

        impl RefObservatory {
            /// Creates an observatory over a `total_pages` footprint spread
            /// across `shards` rails.
            ///
            /// # Panics
            ///
            /// Panics on a degenerate configuration (zero window, no buckets,
            /// no slots, or a decay outside `(0, 1]`).
            pub fn new(cfg: MemObsConfig, total_pages: u64, shards: usize) -> RefObservatory {
                assert!(cfg.heat_window_ns > 0, "zero-width heat window");
                assert!(cfg.heatmap_buckets > 0 && cfg.top_k > 0, "empty sketch");
                assert!(
                    cfg.heat_decay > 0.0 && cfg.heat_decay <= 1.0,
                    "decay outside (0, 1]"
                );
                RefObservatory {
                    cfg,
                    total_pages: total_pages.max(1),
                    pf: FxHashMap::default(),
                    fates: [FateCounters::default(); 3],
                    slots: Vec::with_capacity(cfg.top_k),
                    slot_of: FxHashMap::default(),
                    rest_hist: vec![0.0; cfg.heatmap_buckets],
                    cur_window: 0,
                    last_seen: FxHashMap::default(),
                    ws_cur: 0,
                    hm_cur: vec![0; cfg.heatmap_buckets],
                    shard_cur: vec![0; shards.max(1)],
                    shard_heat: vec![0.0; shards.max(1)],
                    shares: vec![0.0; shards.max(1)],
                    skew: 0.0,
                    ws_last: 0,
                    rows: Vec::new(),
                    strides: FxHashMap::default(),
                    stride_other: 0,
                    touches: 0,
                    dropped: 0,
                }
            }

            #[inline]
            fn bucket(&self, page: u64) -> usize {
                let b = self.cfg.heatmap_buckets as u64;
                ((page.min(self.total_pages - 1) * b) / self.total_pages) as usize
            }

            /// Closes every window before `w` and advances to it.
            fn roll_to(&mut self, w: u64) {
                debug_assert!(w > self.cur_window);
                let gap = w - self.cur_window;
                // Fold the closing window's shard touches into the decayed
                // heat, then age everything across the (possibly idle) gap.
                let d = self.cfg.heat_decay;
                let total: f64 = {
                    for (h, c) in self.shard_heat.iter_mut().zip(&self.shard_cur) {
                        *h = *h * d + *c as f64;
                    }
                    self.shard_heat.iter().sum()
                };
                if total > 0.0 {
                    let n = self.shard_heat.len() as f64;
                    let mut max = 0.0f64;
                    for (s, h) in self.shard_heat.iter().enumerate() {
                        let share = h / total;
                        self.shares[s] = share;
                        max = max.max(share);
                    }
                    self.skew = max * n;
                }
                if gap > 1 {
                    let age = d.powi((gap - 1) as i32);
                    for h in &mut self.shard_heat {
                        *h *= age;
                    }
                }
                let age_all = d.powi(gap as i32);
                for s in &mut self.slots {
                    s.weight *= age_all;
                }
                for r in &mut self.rest_hist {
                    *r *= age_all;
                }
                self.ws_last = self.ws_cur;
                if self.ws_cur > 0 || self.hm_cur.iter().any(|&c| c > 0) {
                    if self.rows.len() < self.cfg.max_windows {
                        self.rows.push(WindowRow {
                            idx: self.cur_window,
                            ws_pages: self.ws_cur,
                            skew: self.skew,
                            hit_rate: self.hit_rate(),
                            buckets: std::mem::replace(
                                &mut self.hm_cur,
                                vec![0; self.cfg.heatmap_buckets],
                            ),
                        });
                    } else {
                        self.dropped += 1;
                        self.hm_cur.iter_mut().for_each(|c| *c = 0);
                    }
                }
                self.ws_cur = 0;
                self.shard_cur.iter_mut().for_each(|c| *c = 0);
                self.cur_window = w;
            }

            /// Books one completed demand access. Returns `true` when one or
            /// more windows closed (gauge values are fresh).
            pub fn on_touch(
                &mut self,
                page: u64,
                shard: usize,
                now_ns: u64,
                delta: Option<i64>,
            ) -> bool {
                let w = now_ns / self.cfg.heat_window_ns;
                let rolled = w > self.cur_window;
                if rolled {
                    self.roll_to(w);
                }
                self.touches += 1;
                // Heat sketch: bump a tracked slot, fill a free one, or
                // displace the minimum-weight slot (ties broken by slot index,
                // which is deterministic).
                if let Some(&i) = self.slot_of.get(&page) {
                    self.slots[i].weight += 1.0;
                } else if self.slots.len() < self.cfg.top_k {
                    self.slot_of.insert(page, self.slots.len());
                    self.slots.push(HeatSlot { page, weight: 1.0 });
                } else {
                    let mut min_i = 0;
                    for (i, s) in self.slots.iter().enumerate() {
                        if s.weight < self.slots[min_i].weight {
                            min_i = i;
                        }
                    }
                    let old = &self.slots[min_i];
                    let b = self.bucket(old.page);
                    self.rest_hist[b] += old.weight;
                    self.slot_of.remove(&old.page);
                    let w0 = old.weight;
                    self.slot_of.insert(page, min_i);
                    self.slots[min_i] = HeatSlot {
                        page,
                        weight: w0 + 1.0,
                    };
                }
                let b = self.bucket(page);
                self.hm_cur[b] += 1;
                if let Some(c) = self.shard_cur.get_mut(shard) {
                    *c += 1;
                }
                let seen = self.last_seen.insert(page, w);
                if seen != Some(w) && seen.is_none_or(|s| s < w) {
                    self.ws_cur += 1;
                }
                if let Some(d) = delta {
                    if let Some(c) = self.strides.get_mut(&d) {
                        *c += 1;
                    } else if self.strides.len() < self.cfg.max_strides {
                        self.strides.insert(d, 1);
                    } else {
                        self.stride_other += 1;
                    }
                }
                rolled
            }

            /// Records a prefetch issuance. When the record table is full the
            /// prefetch is conservatively booked `issued + wasted` at once and
            /// counted dropped, keeping the conservation identity exact.
            pub fn on_prefetch_issued(&mut self, page: u64, class: PrefetchClass, now_ns: u64) {
                let f = &mut self.fates[class as usize];
                f.issued += 1;
                if self.pf.len() >= self.cfg.max_tracked {
                    f.wasted += 1;
                    self.dropped += 1;
                    return;
                }
                let prev = self.pf.insert(
                    page,
                    PfRec {
                        class: class as u8,
                        issued_ns: now_ns,
                        arrived: false,
                    },
                );
                debug_assert!(prev.is_none(), "prefetch of a page already tracked");
                if let Some(p) = prev {
                    // Defensive: never lose a record — the displaced prefetch
                    // was never consumed.
                    self.fates[p.class as usize].wasted += 1;
                }
            }

            /// Marks a tracked prefetch's data as arrived (fetch completed).
            pub fn on_prefetch_arrived(&mut self, page: u64) {
                if let Some(r) = self.pf.get_mut(&page) {
                    r.arrived = true;
                }
            }

            /// Classifies a tracked prefetch as a hit. Returns whether a
            /// record existed.
            pub fn classify_hit(&mut self, page: u64) -> bool {
                match self.pf.remove(&page) {
                    Some(r) => {
                        self.fates[r.class as usize].hits += 1;
                        true
                    }
                    None => false,
                }
            }

            /// Classifies a tracked prefetch as late: a demand access at
            /// `now_ns` raced the still-in-flight line. The head start since
            /// issue is credited as saved latency.
            pub fn classify_late(&mut self, page: u64, now_ns: u64) -> bool {
                match self.pf.remove(&page) {
                    Some(r) => {
                        let f = &mut self.fates[r.class as usize];
                        f.lates += 1;
                        f.late_saved_ns += now_ns.saturating_sub(r.issued_ns);
                        true
                    }
                    None => false,
                }
            }

            /// Classifies a tracked prefetch as wasted (evicted unaccessed or
            /// failed terminally). Returns whether a record existed.
            pub fn classify_wasted(&mut self, page: u64) -> bool {
                match self.pf.remove(&page) {
                    Some(r) => {
                        self.fates[r.class as usize].wasted += 1;
                        true
                    }
                    None => false,
                }
            }

            /// Rows (ws/heatmap/series) and records dropped so far.
            pub fn dropped(&self) -> u64 {
                self.dropped
            }

            /// Distinct pages touched in the last closed window.
            pub fn ws_last(&self) -> u64 {
                self.ws_last
            }

            /// Shard heat skew (`max/mean` share) as of the last closed window.
            pub fn heat_skew(&self) -> f64 {
                self.skew
            }

            /// Decayed heat share of shard `s` as of the last closed window.
            pub fn shard_share(&self, s: usize) -> f64 {
                self.shares.get(s).copied().unwrap_or(0.0)
            }

            /// Cumulative strict hit-rate over classified prefetches.
            pub fn hit_rate(&self) -> f64 {
                let (mut hits, mut done) = (0u64, 0u64);
                for f in &self.fates {
                    hits += f.hits;
                    done += f.hits + f.lates + f.wasted;
                }
                if done == 0 {
                    0.0
                } else {
                    hits as f64 / done as f64
                }
            }

            /// Closes the run at `end_ns`: flushes the open window, sweeps the
            /// remaining records (arrived → wasted, in flight →
            /// `inflight_at_end`) and freezes the report.
            pub fn finish(mut self, end_ns: u64) -> MemReport {
                let w = end_ns / self.cfg.heat_window_ns + 1;
                if w > self.cur_window {
                    self.roll_to(w);
                }
                // Sweep in deterministic page order.
                let mut leftover: Vec<(u64, bool, u8)> = self
                    .pf
                    .iter()
                    .map(|(&p, r)| (p, r.arrived, r.class))
                    .collect();
                leftover.sort_unstable();
                for (_, arrived, class) in leftover {
                    let f = &mut self.fates[class as usize];
                    if arrived {
                        f.wasted += 1;
                    } else {
                        f.inflight_at_end += 1;
                    }
                }
                let mut heat_top: Vec<(u64, f64)> =
                    self.slots.iter().map(|s| (s.page, s.weight)).collect();
                heat_top.sort_unstable_by(|a, b| {
                    b.1.partial_cmp(&a.1)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.0.cmp(&b.0))
                });
                let mut strides: Vec<(i64, u64)> =
                    self.strides.iter().map(|(&d, &c)| (d, c)).collect();
                strides.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                MemReport {
                    window_ns: self.cfg.heat_window_ns,
                    heatmap_buckets: self.cfg.heatmap_buckets,
                    total_pages: self.total_pages,
                    touches: self.touches,
                    distinct_pages: self.last_seen.len() as u64,
                    classes: self.fates,
                    heat_top,
                    rest_hist: self.rest_hist,
                    rows: self.rows,
                    strides,
                    stride_other: self.stride_other,
                    shard_shares: self.shares,
                    heat_skew: self.skew,
                    obs_dropped: self.dropped,
                }
            }
        }
    }
}
