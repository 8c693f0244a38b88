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
//! - **Page heat** — every page's exact touch count with exponential
//!   per-window decay (`h ← h · d^Δwindows + 1` at each touch,
//!   `d =` [`HEAT_DECAY`]), kept in the page table and aged lazily;
//!   the run end lists the [`TOP_K`] hottest pages.
//! - **Working set & heatmap** — per-window distinct-page counts and a
//!   `page-bucket × time-window → touches` matrix, both capped at
//!   [`MAX_WINDOWS`] rows with explicit drop accounting
//!   ([`MemObservatory::dropped`]) instead of silent truncation.
//! - **Shard heat shares** — decayed per-shard touch weights exposing
//!   placement skew (`max/mean` ratio) as a time series.
//!
//! Everything here is deterministic: iteration happens over vectors or
//! sorted snapshots and floats are serialised at fixed precision —
//! equal-seed runs produce byte-identical [`MemReport`] serialisations.
//!
//! Per-page state (last window seen, decayed heat, address bucket, the
//! tracked prefetch) lives in one page-indexed vector sized to the
//! footprint, so a touch is an indexed load rather than a handful of
//! hash probes (and a page past the footprint panics). The heatmap's
//! closed rows share one flat buffer sized from the run's horizon.

use desim::json::{Perfetto, ToJson, Writer, PERFETTO_MEMORY_PID};
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

/// Width of a heat / working-set window in virtual nanoseconds (1 ms).
pub const HEAT_WINDOW_NS: u64 = 1_000_000;
/// Hottest pages listed in [`MemReport::heat_top`].
pub const TOP_K: usize = 64;
/// Per-window decay multiplier applied to page and shard heat. A page's
/// heat is aged only when the page is touched or listed, across every
/// window since its last touch at once; scaling by a power of two is
/// exact (while the weight stays a normal float), so that equals ageing
/// it at every window close.
pub const HEAT_DECAY: f64 = 0.5;
const _: () = assert!(
    HEAT_DECAY > 0.0 && HEAT_DECAY < 1.0 && HEAT_DECAY.to_bits() << 12 == 0,
    "lazy ageing is exact only for a power-of-two decay"
);
/// Address-range buckets of the heatmap.
pub const HEATMAP_BUCKETS: usize = 64;
/// Cap on recorded window rows (heatmap + working-set series); rows
/// beyond the cap are counted in `obs_dropped`.
pub const MAX_WINDOWS: usize = 4096;
/// Distinct stride deltas kept in the fingerprint; the rest fold into
/// an explicit `other` bin.
pub const MAX_STRIDES: usize = 64;

/// Switches the observatory on (`RunParams::memory`). It has nothing to
/// configure: every size and rate is one of the constants above.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemObsConfig;

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

    /// The six counters as members of the open JSON object.
    fn write_members(&self, w: &mut Writer) {
        w.key("issued").u64(self.issued);
        w.key("hits").u64(self.hits);
        w.key("lates").u64(self.lates);
        w.key("wasted").u64(self.wasted);
        w.key("inflight_at_end").u64(self.inflight_at_end);
        w.key("late_saved_ns").u64(self.late_saved_ns);
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
/// 2. `heat`: decayed touch count as of window `seen − 1`
///    (`f64::to_bits`);
/// 3. `bucket`: address bucket, plus one (filled on first touch);
/// 4. `pf`: tracked prefetch — its class plus one, [`PF_ARRIVED`] set
///    once the line arrived; zero when none is tracked.
type PageRec = (u64, u64, u64, u32, u8);

/// Bit of [`PageRec`]'s `pf` field: the prefetched line has arrived.
const PF_ARRIVED: u8 = 0x80;

/// Class index (into the fate counters) of a non-zero `pf` field.
#[inline]
fn pf_class(pf: u8) -> usize {
    (pf & !PF_ARRIVED) as usize - 1
}

/// Ageing factor across `windows` window closes: `HEAT_DECAY^windows`.
#[inline]
fn age(windows: u64) -> f64 {
    HEAT_DECAY.powi(i32::try_from(windows).unwrap_or(i32::MAX))
}

/// One closed observation window.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowRow {
    /// Window index (`start_ns = idx * HEAT_WINDOW_NS`).
    pub idx: u64,
    /// Distinct pages touched in the window.
    pub ws_pages: u64,
    /// Shard heat skew (`max/mean` share) at window close.
    pub skew: f64,
    /// Cumulative strict prefetch hit-rate at window close.
    pub hit_rate: f64,
}

/// Live observatory state; one per enabled run.
pub struct MemObservatory {
    total_pages: u64,
    /// One record per page of the footprint, indexed by page number.
    pages: Vec<PageRec>,
    /// Prefetch fates.
    fates: [FateCounters; 3],
    /// The hottest pages, filled at `finish`.
    heat_top: Vec<(u64, f64)>,
    // Windows.
    cur_window: u64,
    /// `[start, end)` of the current window in ns: a touch inside it
    /// needs no division to find its window.
    cur_span: (u64, u64),
    distinct_pages: u64,
    ws_cur: u64,
    /// Touches per address bucket in the current window.
    hm_cur: [u64; HEATMAP_BUCKETS],
    /// The closed rows' buckets, `HEATMAP_BUCKETS` per row.
    heatmap: Vec<u64>,
    shard_cur: Vec<u64>,
    shard_heat: Vec<f64>,
    shares: Vec<f64>,
    skew: f64,
    ws_last: u64,
    rows: Vec<WindowRow>,
    // Stride fingerprint: `(delta, count)` sorted by delta, at most
    // `MAX_STRIDES` entries.
    strides: Vec<(i64, u64)>,
    stride_other: u64,
    touches: u64,
    dropped: u64,
}

impl MemObservatory {
    /// Creates an observatory over a `total_pages` footprint spread
    /// across `shards` rails. Every page the observatory is handed must
    /// lie inside the footprint; one past it panics.
    pub fn new(_: MemObsConfig, total_pages: u64, shards: usize) -> MemObservatory {
        let total_pages = total_pages.max(1);
        let n = usize::try_from(total_pages).expect("page footprint exceeds the address space");
        MemObservatory {
            total_pages,
            pages: vec![(0, 0, 0, 0, 0); n],
            fates: [FateCounters::default(); 3],
            heat_top: Vec::with_capacity(TOP_K),
            cur_window: 0,
            cur_span: (0, HEAT_WINDOW_NS),
            distinct_pages: 0,
            ws_cur: 0,
            hm_cur: [0; HEATMAP_BUCKETS],
            heatmap: Vec::new(),
            shard_cur: vec![0; shards.max(1)],
            shard_heat: vec![0.0; shards.max(1)],
            shares: vec![0.0; shards.max(1)],
            skew: 0.0,
            ws_last: 0,
            rows: Vec::new(),
            strides: Vec::new(),
            stride_other: 0,
            touches: 0,
            dropped: 0,
        }
    }

    /// Sizes the window-row series and the heatmap for a run closing
    /// `windows` windows (capped at [`MAX_WINDOWS`], past which rows are
    /// dropped anyway).
    pub fn reserve(&mut self, windows: usize) {
        let rows = windows.min(MAX_WINDOWS);
        self.rows.reserve(rows);
        self.heatmap.reserve(rows * HEATMAP_BUCKETS);
    }

    /// Address bucket of a page inside the footprint.
    #[inline]
    fn bucket(&self, page: u64) -> usize {
        ((page * HEATMAP_BUCKETS as u64) / self.total_pages) as usize
    }

    /// Closes every window before `w` and advances to it.
    fn roll_to(&mut self, w: u64) {
        debug_assert!(w > self.cur_window);
        let gap = w - self.cur_window;
        // Fold the closing window's shard touches into the decayed
        // heat, then age it across the rest of the (possibly idle) gap.
        let total: f64 = {
            for (h, c) in self.shard_heat.iter_mut().zip(&self.shard_cur) {
                *h = *h * HEAT_DECAY + *c as f64;
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
            let factor = age(gap - 1);
            for h in &mut self.shard_heat {
                *h *= factor;
            }
        }
        self.ws_last = self.ws_cur;
        if self.ws_cur > 0 || self.hm_cur.iter().any(|&c| c > 0) {
            if self.rows.len() < MAX_WINDOWS {
                self.rows.push(WindowRow {
                    idx: self.cur_window,
                    ws_pages: self.ws_cur,
                    skew: self.skew,
                    hit_rate: self.hit_rate(),
                });
                self.heatmap.extend_from_slice(&self.hm_cur);
            } else {
                self.dropped += 1;
            }
            self.hm_cur = [0; HEATMAP_BUCKETS];
        }
        self.ws_cur = 0;
        self.shard_cur.iter_mut().for_each(|c| *c = 0);
        self.cur_window = w;
        let start = w.saturating_mul(HEAT_WINDOW_NS);
        self.cur_span = (start, start.saturating_add(HEAT_WINDOW_NS));
    }

    /// Books one completed demand access. Returns `true` when one or
    /// more windows closed (gauge values are fresh).
    ///
    /// # Panics
    ///
    /// Panics when `page` lies past the footprint.
    pub fn on_touch(&mut self, page: u64, shard: usize, now_ns: u64, delta: Option<i64>) -> bool {
        // A skewed worker clock can stamp a touch before the current
        // window; only then (and at a roll) is the window divided out.
        let in_current = now_ns >= self.cur_span.0 && now_ns < self.cur_span.1;
        let w = if in_current {
            self.cur_window
        } else {
            now_ns / HEAT_WINDOW_NS
        };
        let rolled = w > self.cur_window;
        if rolled {
            self.roll_to(w);
        }
        self.touches += 1;
        let (seen, _, heat, bucket, _) = self.pages[page as usize];
        let bucket = match bucket {
            0 => u32::try_from(self.bucket(page) + 1).expect("under 2^32 heatmap buckets"),
            filled => filled,
        };
        // Age the heat across the windows since the page's last touch;
        // a touch stamped before that window ages nothing.
        let heat = match (w + 1).saturating_sub(seen) {
            0 => f64::from_bits(heat),
            gap => f64::from_bits(heat) * age(gap),
        };
        let (rec_seen, _, rec_heat, rec_bucket, _) = &mut self.pages[page as usize];
        (*rec_seen, *rec_heat, *rec_bucket) = (w + 1, (heat + 1.0).to_bits(), bucket);
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
            match self.strides.binary_search_by_key(&d, |&(d, _)| d) {
                Ok(i) => self.strides[i].1 += 1,
                Err(i) if self.strides.len() < MAX_STRIDES => self.strides.insert(i, (d, 1)),
                Err(_) => self.stride_other += 1,
            }
        }
        rolled
    }

    /// Records a prefetch issuance.
    pub fn on_prefetch_issued(&mut self, page: u64, class: PrefetchClass, now_ns: u64) {
        self.fates[class as usize].issued += 1;
        let (_, pf_issued_ns, _, _, pf) = &mut self.pages[page as usize];
        let prev = std::mem::replace(pf, class as u8 + 1);
        *pf_issued_ns = now_ns;
        debug_assert!(prev == 0, "prefetch of a page already tracked");
        if prev != 0 {
            // Defensive: never lose a record — the displaced prefetch
            // was never consumed.
            self.fates[pf_class(prev)].wasted += 1;
        }
    }

    /// Marks a tracked prefetch's data as arrived (fetch completed).
    pub fn on_prefetch_arrived(&mut self, page: u64) {
        let pf = &mut self.pages[page as usize].4;
        if *pf != 0 {
            *pf |= PF_ARRIVED;
        }
    }

    /// Stops tracking `page`'s prefetch, if there is one, and returns
    /// its class index and issue instant.
    #[inline]
    fn pf_take(&mut self, page: u64) -> Option<(usize, u64)> {
        let (_, pf_issued_ns, _, _, pf) = &mut self.pages[page as usize];
        if *pf == 0 {
            return None;
        }
        Some((pf_class(std::mem::take(pf)), *pf_issued_ns))
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

    /// Window rows dropped so far by the [`MAX_WINDOWS`] cap.
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
    /// `inflight_at_end`), lists the hottest pages and freezes the
    /// report.
    pub fn finish(mut self, end_ns: u64) -> MemReport {
        let w = end_ns / HEAT_WINDOW_NS + 1;
        if w > self.cur_window {
            self.roll_to(w);
        }
        // One sweep of the table. The fates are counts, so its order is
        // immaterial; it visits pages ascending, so a page joins the
        // list (weight descending, page ascending) only when strictly
        // hotter than the coolest listed page.
        let top = &mut self.heat_top;
        for (page, &(seen, _, heat, _, pf)) in (0u64..).zip(&self.pages) {
            if pf != 0 {
                let f = &mut self.fates[pf_class(pf)];
                if pf & PF_ARRIVED != 0 {
                    f.wasted += 1;
                } else {
                    f.inflight_at_end += 1;
                }
            }
            if seen == 0 {
                continue;
            }
            let weight = f64::from_bits(heat) * age(self.cur_window + 1 - seen);
            if top.len() == TOP_K {
                if top[TOP_K - 1].1 >= weight {
                    continue;
                }
                top.pop();
            }
            let at = top.partition_point(|&(_, w)| w >= weight);
            top.insert(at, (page, weight));
        }
        let mut strides = self.strides;
        strides.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        MemReport {
            window_ns: HEAT_WINDOW_NS,
            total_pages: self.total_pages,
            touches: self.touches,
            distinct_pages: self.distinct_pages,
            classes: self.fates,
            heat_top: self.heat_top,
            rows: self.rows,
            heatmap: self.heatmap,
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
    /// Page-space size the buckets divide.
    pub total_pages: u64,
    /// Completed demand accesses booked.
    pub touches: u64,
    /// Distinct pages touched over the whole run.
    pub distinct_pages: u64,
    /// Per-class fate counters, indexed by [`PrefetchClass`].
    pub classes: [FateCounters; 3],
    /// The [`TOP_K`] hottest pages, hottest first, ties by page
    /// (page, decayed weight at the run end).
    pub heat_top: Vec<(u64, f64)>,
    /// Closed windows in time order.
    pub rows: Vec<WindowRow>,
    /// The rows' buckets, read through [`MemReport::buckets`].
    heatmap: Vec<u64>,
    /// Stride fingerprint, most frequent first (delta pages, count).
    pub strides: Vec<(i64, u64)>,
    /// Stride observations beyond the tracked deltas.
    pub stride_other: u64,
    /// Final decayed heat share per shard.
    pub shard_shares: Vec<f64>,
    /// Final `max/mean` shard heat skew.
    pub heat_skew: f64,
    /// Window rows dropped by the [`MAX_WINDOWS`] cap.
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

    /// Touches per address bucket inside closed window `rows[row]`.
    pub fn buckets(&self, row: usize) -> &[u64] {
        &self.heatmap[row * HEATMAP_BUCKETS..][..HEATMAP_BUCKETS]
    }

    /// Heatmap CSV: one row per non-zero `window × bucket` cell.
    pub fn heatmap_csv(&self) -> String {
        let mut out = String::from("window_start_us,page_bucket,touches\n");
        for (i, r) in self.rows.iter().enumerate() {
            let start_us = r.idx * self.window_ns / 1000;
            for (b, &c) in self.buckets(i).iter().enumerate() {
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

    /// Writes the observatory's counter tracks (heat skew, prefetch
    /// hit-rate, working set) into a Perfetto document under
    /// [`PERFETTO_MEMORY_PID`], one sample per closed window.
    pub fn write_perfetto(&self, doc: &mut Perfetto) {
        let pid = PERFETTO_MEMORY_PID;
        doc.process_name(pid, None, "memory");
        for r in &self.rows {
            let end_ns = (r.idx + 1) * self.window_ns;
            doc.counter(pid, "heat_skew", end_ns, r.skew, 6);
            doc.counter(pid, "prefetch_hit_rate", end_ns, r.hit_rate, 6);
            doc.counter(pid, "ws_pages", end_ns, r.ws_pages as f64, 0);
        }
    }
}

impl ToJson for MemReport {
    /// Deterministic JSON for the `"memory"` run-JSON block.
    fn write_json(&self, w: &mut Writer) {
        w.object(|w| {
            w.key("window_ns").u64(self.window_ns);
            w.key("touches").u64(self.touches);
            w.key("distinct_pages").u64(self.distinct_pages);
            w.key("total_pages").u64(self.total_pages);
            w.key("prefetch").object(|w| {
                self.totals().write_members(w);
                w.key("hit_rate").f64(self.hit_rate(), 6);
                w.key("conserved").bool(self.holds());
                w.key("by_detector").object(|w| {
                    for (name, c) in CLASS_NAMES.iter().zip(&self.classes) {
                        w.key(name).object(|w| c.write_members(w));
                    }
                });
            });
            w.key("working_set").object(|w| {
                w.key("windows").u64(self.rows.len() as u64);
                w.key("mean_pages").f64(self.ws_mean(), 3);
                w.key("peak_pages").u64(self.ws_peak());
            });
            w.key("heat").object(|w| {
                w.key("top").array(|w| {
                    for &(page, weight) in self.heat_top.iter().take(16) {
                        w.object(|w| {
                            w.key("page").u64(page);
                            w.key("weight").f64(weight, 3);
                        });
                    }
                });
                w.key("skew").f64(self.heat_skew, 6);
                w.key("shard_shares").array(|w| {
                    for &share in &self.shard_shares {
                        w.f64(share, 6);
                    }
                });
            });
            w.key("strides").object(|w| {
                w.key("top").array(|w| {
                    for &(delta, count) in self.strides.iter().take(16) {
                        w.object(|w| {
                            w.key("delta").i64(delta);
                            w.key("count").u64(count);
                        });
                    }
                });
                w.key("other").u64(self.stride_other);
            });
            w.key("obs_dropped").u64(self.obs_dropped);
            if self.obs_dropped > 0 {
                w.key("warning").string(&format!(
                    "{} observatory rows/records dropped by bounded-memory caps; \
                     series under-report",
                    self.obs_dropped
                ));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(pages: u64, shards: usize) -> MemObservatory {
        MemObservatory::new(MemObsConfig, pages, shards)
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

    /// Every page of the footprint prefetched at once is one record per
    /// page: nothing is dropped, and the sweep conserves every fate.
    #[test]
    fn prefetching_the_whole_footprint_conserves_fates() {
        const PAGES: u64 = 4_096;
        let mut o = obs(PAGES, 1);
        let classes = [
            PrefetchClass::Readahead,
            PrefetchClass::Leap,
            PrefetchClass::Speculative,
        ];
        for p in 0..PAGES {
            o.on_prefetch_issued(p, classes[(p % 3) as usize], 0);
        }
        for p in 0..PAGES {
            match p % 4 {
                0 => {
                    o.on_prefetch_arrived(p);
                    assert!(o.classify_hit(p));
                }
                1 => assert!(o.classify_late(p, 10)),
                2 => o.on_prefetch_arrived(p), // swept wasted
                _ => {}                        // in flight at the end
            }
        }
        let r = o.finish(1);
        assert!(r.holds());
        let t = r.totals();
        assert_eq!(t.issued, PAGES);
        let quarter = PAGES / 4;
        assert_eq!(
            (t.hits, t.lates, t.wasted, t.inflight_at_end),
            (quarter, quarter, quarter, quarter)
        );
        assert_eq!(r.obs_dropped, 0);
        assert!(!r.to_json().contains("\"warning\""));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn touch_past_the_footprint_panics() {
        obs(64, 1).on_touch(64, 0, 0, None);
    }

    #[test]
    fn heat_sketch_is_bounded_and_finds_the_heavy_hitter() {
        let mut o = obs(10_000, 1);
        for i in 0..2_000u64 {
            o.on_touch(7, 0, i, None); // hot page
            o.on_touch(i % 1_000, 0, i, None); // churn
        }
        let r = o.finish(2_000);
        assert_eq!(r.heat_top.len(), TOP_K);
        assert_eq!(r.heat_top[0].0, 7, "hot page must top the sketch");
    }

    /// Hand-computed heats: ageing across idle windows, a tie listed
    /// page-ascending, and touches stamped before the current window,
    /// which count in their own window and age nothing.
    #[test]
    fn heat_is_the_exact_decayed_touch_count() {
        const MS: u64 = HEAT_WINDOW_NS;
        let mut o = obs(64, 1);
        for i in 0..3 {
            o.on_touch(9, 0, i, None); // 3 as of window 0
        }
        o.on_touch(13, 0, 3, None);
        o.on_touch(9, 0, 2 * MS, None); // 3 · 0.25 + 1 as of window 2
        o.on_touch(5, 0, 2 * MS, None);
        o.on_touch(3, 0, 2 * MS + 1, None);
        o.on_touch(7, 0, 3 * MS + MS / 10, None); // opens window 3
        o.on_touch(7, 0, 3 * MS - MS / 10, None); // 1 + 1, now as of window 2
        o.on_touch(11, 0, 3 * MS - MS / 20, None); // 1 as of window 2
        o.on_touch(13, 0, 3 * MS - MS / 30, None); // 1 · 0.25 + 1 as of window 2

        // Closing window 4: every page ages two windows.
        let r = o.finish(3 * MS + MS / 2);
        assert_eq!(
            r.heat_top,
            [
                (7, 0.5),
                (9, 0.4375),
                (13, 0.3125),
                (3, 0.25),
                (5, 0.25),
                (11, 0.25)
            ]
        );
    }

    /// Sixty-three pages (fewer than `TOP_K`, so the SpaceSaving sketch
    /// this table replaced never displaced one) on a Zipf-like stream
    /// with idle gaps of 2 to 9 windows: the list equals, bit for bit,
    /// what that sketch reported, since a power-of-two decay ages a
    /// weight exactly whether it is applied at every window close or
    /// across the gap at once.
    #[test]
    fn heat_matches_the_sketch_below_its_capacity() {
        #[rustfmt::skip]
        const SKETCH: [(u64, u64); 63] = [
            (0, 0x40361632e192277d),
            (157, 0x4018903e73c1b864),
            (314, 0x400f802a29830b6c),
            (628, 0x4006601a82012158),
            (471, 0x4002a011e801dec4),
            (785, 0x400090121481874c),
            (942, 0x3fffc0226902f200),
            (2198, 0x3fff200c800183e0),
            (1099, 0x3ff96008330213e0),
            (1256, 0x3ff2a02826016350),
            (1570, 0x3ff0a01c1800ad48),
            (2983, 0x3fef801928014e20),
            (6908, 0x3fef002084010220),
            (2669, 0x3feac0089a0008b0),
            (3925, 0x3fea000084003640),
            (8949, 0x3fe800004000c000),
            (1413, 0x3fe78068da02d4a0),
            (5024, 0x3fe48009ea01bf80),
            (2512, 0x3fe2800fb000ede0),
            (9577, 0x3fe1000410004800),
            (6280, 0x3fe0800050001000),
            (3768, 0x3fe0400812018600),
            (7850, 0x3fe0400258001000),
            (3297, 0x3fe000182e014830),
            (1727, 0x3fdf80c240032500),
            (2355, 0x3fde800110030d80),
            (3140, 0x3fdb005d20001f80),
            (5495, 0x3fd8002600028040),
            (4553, 0x3fd80013f4002000),
            (2041, 0x3fd500a8d800fb21),
            (7693, 0x3fd4800100001000),
            (1884, 0x3fd400619c036c40),
            (4396, 0x3fd3000a08001480),
            (7222, 0x3fd300022000a400),
            (4082, 0x3fd2001260000ca0),
            (6123, 0x3fd200000000c440),
            (3611, 0x3fd1000728049820),
            (7065, 0x3fd0001538002000),
            (7379, 0x3fd0000820008100),
            (5181, 0x3fd0000440014b00),
            (8635, 0x3fd0000204004000),
            (8792, 0x3fd000010000c040),
            (2826, 0x3fd0000004025a40),
            (8007, 0x3fd0000000016000),
            (5652, 0x3fc6001a10084900),
            (5338, 0x3fc6000500000c01),
            (6751, 0x3fc2000480000400),
            (4239, 0x3fc000aaa000e200),
            (9734, 0x3fc0003820024400),
            (4867, 0x3fb4009010000800),
            (5966, 0x3fa80022c0142400),
            (5809, 0x3fa0008240001000),
            (7536, 0x3fa0005000402200),
            (6594, 0x3fa0002400000001),
            (9106, 0x3fa0000500001000),
            (6437, 0x3f90064500044202),
            (3454, 0x3f9000414002b604),
            (9420, 0x3f90001480010400),
            (8321, 0x3f90000000100000),
            (8478, 0x3f800c0000010000),
            (4710, 0x3ef4580092400212),
            (9263, 0x3eb0000814004000),
            (8164, 0x3eb0000800001810),
        ];
        let mut o = obs(10_000, 2);
        let mut rng = desim::Rng::new(9);
        let mut clock = 0u64;
        for i in 0..8_000u64 {
            clock += rng.gen_range(HEAT_WINDOW_NS / 40);
            if i % 1_000 == 500 {
                clock += (2 + i / 1_000) * HEAT_WINDOW_NS;
            }
            let u = rng.gen_f64();
            let k = (TOP_K as f64).powf(u * u) as u64 - 1;
            let page = (k * 157) % 10_000;
            o.on_touch(page, (page % 2) as usize, clock, None);
        }
        let r = o.finish(clock);
        let bits: Vec<(u64, u64)> = r.heat_top.iter().map(|&(p, w)| (p, w.to_bits())).collect();
        assert_eq!(bits, SKETCH);
    }

    #[test]
    fn windows_roll_decay_and_cap() {
        let windows = MAX_WINDOWS as u64 + 3;
        let mut o = obs(64, 2);
        for w in 0..windows {
            for i in 0..4 {
                let rolled = o.on_touch(i, (i % 2) as usize, w * HEAT_WINDOW_NS + i, None);
                assert_eq!(rolled, w > 0 && i == 0);
            }
        }
        let r = o.finish(windows * HEAT_WINDOW_NS);
        assert_eq!(r.rows.len(), MAX_WINDOWS, "row cap");
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
        let mut o = obs(1 << 12, 1);
        for i in 0..10u64 {
            o.on_touch(i, 0, i, Some(1));
        }
        o.on_touch(100, 0, 20, Some(-3));
        // Fill the fingerprint with singleton deltas; one more is over
        // the cap → other.
        for d in 0..MAX_STRIDES as i64 - 2 {
            o.on_touch(200, 0, 21, Some(1_000 + d));
        }
        o.on_touch(300, 0, 22, Some(17));
        let r = o.finish(100);
        assert_eq!(r.strides.len(), MAX_STRIDES);
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
        let timeline = |r: &MemReport| {
            let mut doc = Perfetto::default();
            r.write_perfetto(&mut doc);
            doc.finish()
        };
        let tracks = timeline(&a);
        assert_eq!(tracks, timeline(&b));
        assert!(a.heatmap_csv().lines().count() > 1, "non-empty heatmap");
        assert!(a.to_json().contains("\"conserved\":true"));
        // The process name, then three counter samples per closed window.
        assert_eq!(tracks.matches("\"ph\":\"M\"").count(), 1);
        assert_eq!(tracks.matches("\"ph\":\"C\"").count(), 3 * a.rows.len());
        assert!(tracks.contains("\"name\":\"ws_pages\",\"ts\":1000.000,\"args\":{\"value\":"));
    }

    #[test]
    fn ws_counts_distinct_pages_per_window() {
        let mut o = obs(64, 1);
        for _ in 0..10 {
            o.on_touch(5, 0, 10, None);
        }
        o.on_touch(6, 0, 20, None);
        // Same page, next window → counted again.
        o.on_touch(5, 0, HEAT_WINDOW_NS + HEAT_WINDOW_NS / 2, None);
        let r = o.finish(2 * HEAT_WINDOW_NS);
        assert_eq!(r.rows[0].ws_pages, 2);
        assert_eq!(r.rows[1].ws_pages, 1);
        assert_eq!(r.distinct_pages, 2);
        assert_eq!(r.ws_peak(), 2);
    }

    /// Feeds one pseudo-random run — demand accesses drawn by
    /// `next_page`, prefetch traffic on neighbouring pages, a clock
    /// that crosses a window every ~100 touches, idles once, and
    /// sometimes stamps a touch just behind it — to the observatory and
    /// to the reference, compares the two reports bit for bit and
    /// returns the observatory's.
    fn assert_matches_reference(
        seed: u64,
        mut next_page: impl FnMut(&mut desim::Rng, u64) -> u64,
    ) -> MemReport {
        const PAGES: u64 = 4_096;
        const TOUCHES: u64 = 8_000;
        let mut new = obs(PAGES, 4);
        let mut old = reference::RefObservatory::new(PAGES, 4);
        let mut rng = desim::Rng::new(seed);
        let (mut clock, mut last) = (0u64, 0u64);
        // Touches stamped in a window before the latest one seen.
        let (mut early, mut latest) = (0u64, 0u64);
        for i in 0..TOUCHES {
            clock += rng.gen_range(HEAT_WINDOW_NS / 50);
            if i == TOUCHES / 2 {
                // An idle stretch long enough that decay 0.5 underflows
                // every weight to zero: the whole sketch ties.
                clock += 1_100 * HEAT_WINDOW_NS;
            }
            // Worker clocks lead the event clock by a bounded skew, so
            // a touch can be stamped before the window just opened.
            let now = clock.saturating_sub(rng.gen_range(8) / 7 * (HEAT_WINDOW_NS / 20));
            early += u64::from(now / HEAT_WINDOW_NS < latest / HEAT_WINDOW_NS);
            latest = latest.max(now);
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
            // Prefetch traffic next to the touched page, every fate
            // (the runtime prefetches only inside the footprint).
            let near = (page + 1 + rng.gen_range(3)).min(PAGES - 1);
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
        assert!(clock / HEAT_WINDOW_NS >= 50, "the run must roll 50 windows");
        assert!(early > 0, "some touches must be stamped a window early");
        let (new, old) = (new.finish(clock), old.finish(clock));
        assert_eq!(new.heat_top.len(), TOP_K);
        for (n, o) in new.heat_top.iter().zip(&old.heat_top) {
            assert_eq!((n.0, n.1.to_bits()), (o.0, o.1.to_bits()), "heat_top");
        }
        assert_eq!(new.rows, old.rows, "rows");
        assert_eq!(new, old);
        assert!(new.holds());
        assert_eq!(new.to_json(), old.to_json());
        new
    }

    #[test]
    fn page_table_reports_like_hash_maps_and_scan() {
        // Uniform: the listed heats are close, a few tie.
        assert_matches_reference(1, |rng, _| rng.gen_range(4_096));
        // Zipf-like: a few heavy hitters.
        assert_matches_reference(2, |rng, _| {
            let u = rng.gen_f64();
            ((4_096.0f64).powf(u * u * u) as u64).min(4_095)
        });
        // Sequential scan, wrapping: pages touched once in the same
        // window tie, and ties list page-ascending.
        let r = assert_matches_reference(3, |_, i| (i * 3) % 4_096);
        let ties: Vec<_> = r.heat_top.windows(2).filter(|p| p[0].1 == p[1].1).collect();
        assert!(!ties.is_empty(), "the scan must list ties");
        assert!(ties.iter().all(|p| p[0].0 < p[1].0));
    }

    /// The observatory over hash maps keyed by page, with each page's
    /// heat aged at its touches by the same recurrence and the hottest
    /// pages picked by a full sort. The oracle of the equivalence tests
    /// above. Its maps are only probed, counted, or drained into a sort
    /// by a total order, so their iteration order never reaches a report.
    mod reference {
        use super::super::*;
        use std::collections::HashMap;

        struct PfRec {
            class: u8,
            issued_ns: u64,
            arrived: bool,
        }

        /// Live observatory state; one per enabled run.
        pub struct RefObservatory {
            total_pages: u64,
            // Prefetch-fate attribution.
            pf: HashMap<u64, PfRec>,
            fates: [FateCounters; 3],
            // Decayed heat as of the page's `last_seen` window.
            heat: HashMap<u64, f64>,
            // Windows.
            cur_window: u64,
            last_seen: HashMap<u64, u64>,
            ws_cur: u64,
            hm_cur: Vec<u64>,
            heatmap: Vec<u64>,
            shard_cur: Vec<u64>,
            shard_heat: Vec<f64>,
            shares: Vec<f64>,
            skew: f64,
            ws_last: u64,
            rows: Vec<WindowRow>,
            // Stride fingerprint.
            strides: HashMap<i64, u64>,
            stride_other: u64,
            touches: u64,
            dropped: u64,
        }

        impl RefObservatory {
            /// Creates an observatory over a `total_pages` footprint spread
            /// across `shards` rails.
            pub fn new(total_pages: u64, shards: usize) -> RefObservatory {
                RefObservatory {
                    total_pages: total_pages.max(1),
                    pf: HashMap::new(),
                    fates: [FateCounters::default(); 3],
                    heat: HashMap::new(),
                    cur_window: 0,
                    last_seen: HashMap::new(),
                    ws_cur: 0,
                    hm_cur: vec![0; HEATMAP_BUCKETS],
                    heatmap: Vec::new(),
                    shard_cur: vec![0; shards.max(1)],
                    shard_heat: vec![0.0; shards.max(1)],
                    shares: vec![0.0; shards.max(1)],
                    skew: 0.0,
                    ws_last: 0,
                    rows: Vec::new(),
                    strides: HashMap::new(),
                    stride_other: 0,
                    touches: 0,
                    dropped: 0,
                }
            }

            #[inline]
            fn bucket(&self, page: u64) -> usize {
                let b = HEATMAP_BUCKETS as u64;
                ((page.min(self.total_pages - 1) * b) / self.total_pages) as usize
            }

            /// Closes every window before `w` and advances to it.
            fn roll_to(&mut self, w: u64) {
                debug_assert!(w > self.cur_window);
                let gap = w - self.cur_window;
                // Fold the closing window's shard touches into the decayed
                // heat, then age everything across the (possibly idle) gap.
                let d = HEAT_DECAY;
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
                self.ws_last = self.ws_cur;
                if self.ws_cur > 0 || self.hm_cur.iter().any(|&c| c > 0) {
                    if self.rows.len() < MAX_WINDOWS {
                        self.rows.push(WindowRow {
                            idx: self.cur_window,
                            ws_pages: self.ws_cur,
                            skew: self.skew,
                            hit_rate: self.hit_rate(),
                        });
                        self.heatmap.extend_from_slice(&self.hm_cur);
                    } else {
                        self.dropped += 1;
                    }
                    self.hm_cur.iter_mut().for_each(|c| *c = 0);
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
                let w = now_ns / HEAT_WINDOW_NS;
                let rolled = w > self.cur_window;
                if rolled {
                    self.roll_to(w);
                }
                self.touches += 1;
                let b = self.bucket(page);
                self.hm_cur[b] += 1;
                if let Some(c) = self.shard_cur.get_mut(shard) {
                    *c += 1;
                }
                let seen = self.last_seen.insert(page, w);
                if seen != Some(w) && seen.is_none_or(|s| s < w) {
                    self.ws_cur += 1;
                }
                // Age across the windows since the last touch (none
                // for a touch stamped before it), then count this one.
                let gap = seen.map_or(0, |s| w.saturating_sub(s));
                let h = self.heat.entry(page).or_insert(0.0);
                *h = *h * HEAT_DECAY.powi(gap as i32) + 1.0;
                if let Some(d) = delta {
                    if let Some(c) = self.strides.get_mut(&d) {
                        *c += 1;
                    } else if self.strides.len() < MAX_STRIDES {
                        self.strides.insert(d, 1);
                    } else {
                        self.stride_other += 1;
                    }
                }
                rolled
            }

            /// Records a prefetch issuance.
            pub fn on_prefetch_issued(&mut self, page: u64, class: PrefetchClass, now_ns: u64) {
                self.fates[class as usize].issued += 1;
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

            /// Window rows dropped so far.
            pub fn dropped(&self) -> u64 {
                self.dropped
            }

            /// Distinct pages touched in the last closed window.
            pub fn ws_last(&self) -> u64 {
                self.ws_last
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
                let w = end_ns / HEAT_WINDOW_NS + 1;
                if w > self.cur_window {
                    self.roll_to(w);
                }
                // The fates are counts: the sweep's order is immaterial.
                for r in self.pf.values() {
                    let f = &mut self.fates[r.class as usize];
                    if r.arrived {
                        f.wasted += 1;
                    } else {
                        f.inflight_at_end += 1;
                    }
                }
                // Pages are distinct, so (weight desc, page asc) is a
                // total order.
                let mut heat_top: Vec<(u64, f64)> = self
                    .heat
                    .iter()
                    .map(|(&p, &h)| {
                        let gap = self.cur_window - self.last_seen[&p];
                        (p, h * HEAT_DECAY.powi(gap as i32))
                    })
                    .collect();
                heat_top.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                heat_top.truncate(TOP_K);
                // Deltas are distinct, so (count desc, delta asc) is a
                // total order.
                let mut strides: Vec<(i64, u64)> = self.strides.into_iter().collect();
                strides.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                MemReport {
                    window_ns: HEAT_WINDOW_NS,
                    total_pages: self.total_pages,
                    touches: self.touches,
                    distinct_pages: self.last_seen.len() as u64,
                    classes: self.fates,
                    heat_top,
                    rows: self.rows,
                    heatmap: self.heatmap,
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
