//! RocksDB-like ordered store (§5.2, Figure 11).
//!
//! The paper runs RocksDB v8.3.2 with the PlainTable format in `mmap`
//! mode, "which makes RocksDB read data from remote memory through load
//! instructions and paging". PlainTable is a flat, fully in-memory
//! format: records in key order plus a lightweight index. This module
//! reproduces that shape:
//!
//! - a **sorted record log** of fixed-size `(key u64, value)` records;
//! - a **sparse index** with one `(first_key, rank)` entry per
//!   `GROUP`-record block, binary-searched on lookup (its upper levels
//!   are touched by every request and therefore stay cached, exactly
//!   like PlainTable's in-memory index under CLOCK);
//! - `GET` = sparse-index search + in-block binary search over direct
//!   offsets;
//! - `SCAN(n)` = `GET`-style positioning + a forward sweep over `n`
//!   records — sequential page touches that the readahead prefetcher
//!   detects (this is the long bimodal-tail request of Figure 11).
//!
//! The load runs in two passes: a write pass fills the records (each
//! value in place in the arena) and the sparse index in rank order, then
//! an index pass recomputes every key and inserts it into the hash
//! index, again in rank order. The arena bytes depend on that insertion
//! order alone, so they are the bytes a record-at-a-time load writes.

use desim::Rng;
use paging::trace::Trace;
use paging::{PagedArena, TraceRecorder};
use runtime::Workload;

use crate::hashidx::HashIndex;

/// Records per sparse-index block.
const GROUP: u64 = 16;

/// An ordered store over arena memory.
///
/// # Examples
///
/// ```
/// use apps::OrderedDb;
/// use paging::TraceRecorder;
///
/// let db = OrderedDb::build(1_000, 32);
/// let mut rec = TraceRecorder::default();
/// let start = OrderedDb::key_of_rank(10);
/// let rows = db.scan(start, 5, &mut rec);
/// assert_eq!(rows.len(), 5);
/// assert!(rows.windows(2).all(|w| w[0].0 < w[1].0), "key order");
///
/// // Readers hand out borrowed views of the arena; `scan_with` shows
/// // each row to a visitor and materialises nothing itself.
/// let value: &[u8] = db.get(start, &mut rec).unwrap();
/// assert_eq!(value, OrderedDb::value_for(start, 32));
/// let mut bytes = 0;
/// let visited = db.scan_with(start, 5, &mut rec, |_key, value| bytes += value.len());
/// assert_eq!((visited, bytes), (5, 5 * 32));
/// ```
pub struct OrderedDb {
    arena: PagedArena,
    /// PlainTable's point-lookup hash index: key → rank.
    hash_index: HashIndex,
    index_base: u64,
    index_entries: u64,
    data_base: u64,
    num_keys: u64,
    record_bytes: u64,
    value_len: u32,
}

impl OrderedDb {
    /// Builds a store with `num_keys` sorted keys and `value_len`-byte
    /// values.
    ///
    /// # Panics
    ///
    /// Panics if `num_keys` is zero.
    pub fn build(num_keys: u64, value_len: u32) -> OrderedDb {
        let mut db = OrderedDb::empty(num_keys, value_len);
        // Write pass: records and sparse-index entries, in rank order,
        // each value filled in place.
        for rank in 0..num_keys {
            let key = Self::key_of_rank(rank);
            let record = db.arena.poke_slice(db.record_addr(rank), db.record_bytes);
            let (key_bytes, value) = record.split_at_mut(8);
            key_bytes.copy_from_slice(&key.to_le_bytes());
            fill_value(key, value);
            if rank % GROUP == 0 {
                let e = db.index_base + (rank / GROUP) * 16;
                db.arena.poke_u64(e, key);
                db.arena.poke_u64(e + 8, rank);
            }
        }
        // Index pass: the same keys, in the same (rank) order.
        for rank in 0..num_keys {
            db.hash_index
                .insert_untraced(&mut db.arena, Self::key_of_rank(rank), rank);
        }
        db
    }

    /// A store with its arena, hash index, sparse index and record log
    /// allocated, no record loaded.
    ///
    /// # Panics
    ///
    /// Panics if `num_keys` is zero.
    fn empty(num_keys: u64, value_len: u32) -> OrderedDb {
        assert!(num_keys > 0, "OrderedDb needs num_keys > 0");
        let record_bytes = 8 + value_len as u64;
        let index_entries = num_keys.div_ceil(GROUP);
        let capacity = num_keys * record_bytes
            + index_entries * 16
            + (num_keys as f64 / 0.7 * 16.0) as u64 * 2
            + (8 << 20);
        let mut arena = PagedArena::new(capacity);
        let hash_index = HashIndex::build(&mut arena, num_keys);
        let index_base = arena.alloc(index_entries * 16, paging::PAGE_SIZE);
        let data_base = arena.alloc(num_keys * record_bytes, paging::PAGE_SIZE);
        OrderedDb {
            arena,
            hash_index,
            index_base,
            index_entries,
            data_base,
            num_keys,
            record_bytes,
            value_len,
        }
    }

    /// The deterministic sorted key at `rank` (strided with jitter so
    /// keys are non-contiguous yet ordered, like hashed user keys).
    pub fn key_of_rank(rank: u64) -> u64 {
        rank * 1000 + (rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 54)
    }

    /// The deterministic value stored under `key`, in a fresh `Vec`
    /// (the allocating convenience; the load fills each value in place).
    pub fn value_for(key: u64, value_len: u32) -> Vec<u8> {
        let mut value = vec![0u8; value_len as usize];
        fill_value(key, &mut value);
        value
    }

    fn record_addr(&self, rank: u64) -> u64 {
        self.data_base + rank * self.record_bytes
    }

    /// Number of keys loaded.
    pub fn num_keys(&self) -> u64 {
        self.num_keys
    }

    /// Total pages of the working set.
    pub fn total_pages(&self) -> u64 {
        self.arena.total_pages()
    }

    /// Finds the rank of the first record with key ≥ `key` (recording
    /// all index and record touches).
    fn lower_bound(&self, key: u64, rec: &mut TraceRecorder) -> u64 {
        // Binary search the sparse index.
        let (mut lo, mut hi) = (0u64, self.index_entries);
        while lo < hi {
            let mid = (lo + hi) / 2;
            rec.compute_ns(4.0);
            let k = self.arena.read_u64(self.index_base + mid * 16, rec);
            if k <= key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let block = lo.saturating_sub(1);
        let start = block * GROUP;
        let end = (start + GROUP).min(self.num_keys);
        // Binary search within the block over direct offsets.
        let (mut lo, mut hi) = (start, end);
        while lo < hi {
            let mid = (lo + hi) / 2;
            rec.compute_ns(4.0);
            let k = self.arena.read_u64(self.record_addr(mid), rec);
            if k < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Point lookup through PlainTable's hash index (GETs never walk
    /// the sorted index; that is the SCAN positioning path). Returns
    /// the value as a borrowed view of the arena.
    pub fn get(&self, key: u64, rec: &mut TraceRecorder) -> Option<&[u8]> {
        rec.compute_ns(40.0); // key hash + bucket arithmetic
        let rank = self.hash_index.get(&self.arena, key, rec)?;
        let addr = self.record_addr(rank);
        let k = self.arena.read_u64(addr, rec);
        if k != key {
            return None;
        }
        Some(self.arena.read_bytes(addr + 8, self.value_len as u64, rec))
    }

    /// Iterates up to `n` records starting at the first key ≥
    /// `start_key` (the paper's SCAN(100) reads the values referenced
    /// by a series of keys), showing each `(key, value)` — the value a
    /// borrowed view of the arena — to `visit`. Returns the number of
    /// rows visited. Every record's bytes are recorded as read whatever
    /// the visitor does with them.
    pub fn scan_with(
        &self,
        start_key: u64,
        n: usize,
        rec: &mut TraceRecorder,
        mut visit: impl FnMut(u64, &[u8]),
    ) -> usize {
        let first = self.lower_bound(start_key, rec);
        let end = first.saturating_add(n as u64).min(self.num_keys);
        for rank in first..end {
            let addr = self.record_addr(rank);
            let k = self.arena.read_u64(addr, rec);
            let v = self.arena.read_bytes(addr + 8, self.value_len as u64, rec);
            // Iterator + value materialisation cost per record.
            rec.compute_ns(30.0);
            visit(k, v);
        }
        (end - first) as usize
    }

    /// [`OrderedDb::scan_with`] collecting `(key, value-checksum)`
    /// pairs: the allocating convenience the correctness tests use.
    pub fn scan(&self, start_key: u64, n: usize, rec: &mut TraceRecorder) -> Vec<(u64, u8)> {
        let mut out = Vec::with_capacity(n);
        self.scan_with(start_key, n, rec, |k, v| {
            out.push((k, v.iter().fold(0u8, |a, &b| a.wrapping_add(b))));
        });
        out
    }
}

/// Writes the deterministic value of `key` over `out`.
fn fill_value(key: u64, out: &mut [u8]) {
    for (i, b) in out.iter_mut().enumerate() {
        *b = (key as u8) ^ (i as u8).wrapping_mul(31);
    }
}

/// The paper's RocksDB workload: 99 % GET / 1 % SCAN(100), 1024 B
/// values (Figure 11's bimodal, high-dispersion service times).
pub struct RocksDbWorkload {
    db: OrderedDb,
    scan_fraction: f64,
    scan_len: usize,
}

impl RocksDbWorkload {
    /// Creates the 99/1 GET/SCAN(100) mix over a fresh store.
    ///
    /// # Panics
    ///
    /// Panics if `num_keys` is zero.
    pub fn new(num_keys: u64, value_len: u32) -> RocksDbWorkload {
        RocksDbWorkload {
            db: OrderedDb::build(num_keys, value_len),
            scan_fraction: 0.01,
            scan_len: 100,
        }
    }

    /// Overrides the mix (used by ablations).
    ///
    /// # Panics
    ///
    /// Panics if `scan_fraction` is outside `[0, 1]` or `scan_len` is
    /// zero.
    pub fn with_mix(mut self, scan_fraction: f64, scan_len: usize) -> RocksDbWorkload {
        assert!((0.0..=1.0).contains(&scan_fraction), "scan_fraction");
        assert!(scan_len > 0, "scan_len must be positive");
        self.scan_fraction = scan_fraction;
        self.scan_len = scan_len;
        self
    }

    /// Access to the underlying store.
    pub fn db(&self) -> &OrderedDb {
        &self.db
    }
}

/// Class index of GET requests.
pub const CLASS_GET: u16 = 0;
/// Class index of SCAN requests.
pub const CLASS_SCAN: u16 = 1;

impl Workload for RocksDbWorkload {
    fn classes(&self) -> &'static [&'static str] {
        &["GET", "SCAN"]
    }

    fn total_pages(&self) -> u64 {
        self.db.total_pages()
    }

    fn next_request_into(&mut self, rng: &mut Rng, buf: &mut Trace) {
        let mut rec = TraceRecorder::reusing(buf);
        rec.compute_ns(120.0); // request parse
        let rank = rng.gen_range(self.db.num_keys());
        let key = OrderedDb::key_of_rank(rank);
        if rng.gen_bool(self.scan_fraction) {
            // The reply is a series summary: the rows are read (and
            // recorded) in place, none is copied out.
            let rows = self.db.scan_with(key, self.scan_len, &mut rec, |_, _| {});
            debug_assert!(rows > 0);
            rec.compute_ns(80.0); // reply with the series summary
            rec.finish_into(buf, CLASS_SCAN, 64, 16 + 9 * rows as u32);
        } else {
            let v = self.db.get(key, &mut rec);
            debug_assert!(v.is_some());
            rec.compute_ns(60.0);
            let reply = 16 + v.map_or(0, |v| v.len() as u32);
            rec.finish_into(buf, CLASS_GET, 64, reply);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder() -> TraceRecorder {
        TraceRecorder::default()
    }

    /// The record-at-a-time load: each record staged in a buffer,
    /// copied in and indexed before the next — the oracle of
    /// [`OrderedDb::build`].
    fn build_record_at_a_time(num_keys: u64, value_len: u32) -> OrderedDb {
        let mut db = OrderedDb::empty(num_keys, value_len);
        let mut value = vec![0u8; value_len as usize];
        for rank in 0..num_keys {
            let key = OrderedDb::key_of_rank(rank);
            let addr = db.record_addr(rank);
            db.arena.poke_u64(addr, key);
            fill_value(key, &mut value);
            db.arena.poke_bytes(addr + 8, &value);
            db.hash_index.insert_untraced(&mut db.arena, key, rank);
            if rank % GROUP == 0 {
                let e = db.index_base + (rank / GROUP) * 16;
                db.arena.poke_u64(e, key);
                db.arena.poke_u64(e + 8, rank);
            }
        }
        db
    }

    #[test]
    fn two_pass_load_writes_the_bytes_of_the_record_at_a_time_load() {
        for num_keys in [1, GROUP - 1, GROUP + 1, 20_000] {
            for value_len in [32, 1_024] {
                assert_eq!(
                    crate::arena_digest(&OrderedDb::build(num_keys, value_len).arena),
                    crate::arena_digest(&build_record_at_a_time(num_keys, value_len).arena),
                    "{num_keys} keys x {value_len} B"
                );
            }
        }
    }

    #[test]
    fn get_every_key() {
        let db = OrderedDb::build(3_000, 64);
        for rank in [0u64, 1, 1500, 2998, 2999] {
            let key = OrderedDb::key_of_rank(rank);
            let mut rec = recorder();
            let v = db.get(key, &mut rec).expect("present");
            assert_eq!(v, OrderedDb::value_for(key, 64));
        }
    }

    #[test]
    fn get_missing_keys() {
        let db = OrderedDb::build(1_000, 64);
        let mut rec = recorder();
        assert_eq!(db.get(OrderedDb::key_of_rank(0) + 1, &mut rec), None);
        assert_eq!(db.get(u64::MAX, &mut rec), None);
    }

    #[test]
    fn scan_matches_btreemap_reference() {
        let n = 2_000u64;
        let db = OrderedDb::build(n, 32);
        let reference: std::collections::BTreeMap<u64, u8> = (0..n)
            .map(|r| {
                let k = OrderedDb::key_of_rank(r);
                let v = OrderedDb::value_for(k, 32);
                (k, v.iter().fold(0u8, |a, &b| a.wrapping_add(b)))
            })
            .collect();
        let mut rng = Rng::new(9);
        for _ in 0..50 {
            let start = rng.gen_range(n * 1000);
            let mut rec = recorder();
            let got = db.scan(start, 10, &mut rec);
            let want: Vec<(u64, u8)> = reference
                .range(start..)
                .take(10)
                .map(|(&k, &v)| (k, v))
                .collect();
            assert_eq!(got, want, "scan from {start}");
        }
    }

    /// A no-op visitor records exactly the trace the collecting `scan`
    /// does, and a scan running off the end reports the short count.
    #[test]
    fn scan_with_records_the_same_trace_whatever_the_visitor() {
        let db = OrderedDb::build(2_000, 256);
        for (rank, want) in [(0u64, 100), (1_234, 100), (1_950, 50)] {
            let start = OrderedDb::key_of_rank(rank);
            let mut rec_a = recorder();
            let rows = db.scan(start, 100, &mut rec_a);
            let mut rec_b = recorder();
            let visited = db.scan_with(start, 100, &mut rec_b, |_, _| {});
            assert_eq!((rows.len(), visited), (want, want));
            assert_eq!(rec_a.finish(1, 0, 0).steps, rec_b.finish(1, 0, 0).steps);
        }
        let mut rec = recorder();
        assert_eq!(db.scan_with(u64::MAX, 10, &mut rec, |_, _| {}), 0);
    }

    #[test]
    #[should_panic(expected = "num_keys > 0")]
    fn empty_store_is_rejected() {
        OrderedDb::build(0, 64);
    }

    #[test]
    #[should_panic(expected = "scan_len must be positive")]
    fn zero_length_scans_are_rejected() {
        let _ = RocksDbWorkload::new(100, 64).with_mix(0.2, 0);
    }

    #[test]
    #[should_panic(expected = "scan_fraction")]
    fn out_of_range_scan_fraction_is_rejected() {
        let _ = RocksDbWorkload::new(100, 64).with_mix(1.5, 100);
    }

    #[test]
    fn scan_trace_is_sequential() {
        let db = OrderedDb::build(100_000, 1024);
        let mut rec = recorder();
        db.scan(OrderedDb::key_of_rank(50_000), 100, &mut rec);
        let t = rec.finish(CLASS_SCAN, 0, 0);
        // 100 records × 1032 B ≈ 25 pages, walked in order.
        let pages: Vec<u64> = t
            .steps
            .iter()
            .filter_map(|s| s.access.map(|a| a.page))
            .collect();
        let data_pages = &pages[pages.len().saturating_sub(20)..];
        assert!(
            data_pages.windows(2).all(|w| w[1] == w[0] + 1),
            "data sweep must be sequential: {data_pages:?}"
        );
        assert!(t.accesses() > 20);
    }

    #[test]
    fn scan_is_much_heavier_than_get() {
        // §5.2: SCAN(100) service is 25–100× a GET's.
        let db = OrderedDb::build(100_000, 1024);
        let mut rec_g = recorder();
        db.get(OrderedDb::key_of_rank(123), &mut rec_g);
        let get = rec_g.finish(0, 0, 0);
        let mut rec_s = recorder();
        db.scan(OrderedDb::key_of_rank(123), 100, &mut rec_s);
        let scan = rec_s.finish(1, 0, 0);
        assert!(scan.compute_ns() > get.compute_ns() * 10);
        assert!(scan.accesses() > get.accesses() * 3);
    }

    #[test]
    fn workload_mix_ratio() {
        let mut w = RocksDbWorkload::new(10_000, 128);
        let mut rng = Rng::new(5);
        let mut scans = 0;
        for _ in 0..5_000 {
            let t = w.next_request(&mut rng);
            if t.class == CLASS_SCAN {
                scans += 1;
            }
        }
        // 1 % ± noise.
        assert!((20..=90).contains(&scans), "scans = {scans}");
    }
}
