//! The paged arena applications build their data structures in.
//!
//! The arena is real host memory (a flat byte vector): the KVS hash
//! table, the PlainTable index, Silo's tuples and the IVF-Flat cluster
//! lists all live in it and are read/written for real, which is what the
//! correctness tests exercise. Every access routes through a
//! [`TraceRecorder`] so the page-touch sequence is captured for replay.
//!
//! Addresses are plain `u64` offsets ("remote-memory virtual addresses");
//! the paper's applications get the same effect by `mmap`ing a
//! remote-memory region and using ordinary loads and stores.

use crate::trace::TraceRecorder;
use crate::PAGE_SIZE;

/// A byte arena with page-touch recording.
pub struct PagedArena {
    data: Vec<u8>,
    brk: u64,
}

impl PagedArena {
    /// Creates an arena of `bytes` capacity (rounded up to page size).
    pub fn new(bytes: u64) -> PagedArena {
        let rounded = bytes.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        PagedArena {
            data: vec![0u8; rounded as usize],
            brk: 0,
        }
    }

    /// Number of pages in the arena (the remote working set).
    pub fn total_pages(&self) -> u64 {
        self.data.len() as u64 / PAGE_SIZE
    }

    /// Bytes allocated so far.
    pub fn allocated(&self) -> u64 {
        self.brk
    }

    /// Allocates `size` bytes aligned to `align`; returns the offset.
    ///
    /// Allocation is a bump pointer: the paper's workloads build their
    /// working set once at load time and never free.
    ///
    /// # Panics
    ///
    /// Panics if the arena is exhausted or `align` is not a power of two.
    pub fn alloc(&mut self, size: u64, align: u64) -> u64 {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let base = (self.brk + align - 1) & !(align - 1);
        let end = base
            .checked_add(size)
            .expect("arena allocation size overflow");
        assert!(
            end <= self.data.len() as u64,
            "arena exhausted: need {end} bytes, capacity {}",
            self.data.len()
        );
        self.brk = end;
        base
    }

    /// Reads a `u64` at `addr` (dependent access: one page touch).
    #[inline]
    pub fn read_u64(&self, addr: u64, rec: &mut TraceRecorder) -> u64 {
        rec.touch(addr / PAGE_SIZE, false);
        self.peek_u64(addr)
    }

    /// Writes a `u64` at `addr`.
    #[inline]
    pub fn write_u64(&mut self, addr: u64, value: u64, rec: &mut TraceRecorder) {
        rec.touch(addr / PAGE_SIZE, true);
        self.poke_u64(addr, value);
    }

    /// Reads a `u32` at `addr`.
    #[inline]
    pub fn read_u32(&self, addr: u64, rec: &mut TraceRecorder) -> u32 {
        rec.touch(addr / PAGE_SIZE, false);
        let a = addr as usize;
        u32::from_le_bytes(self.data[a..a + 4].try_into().unwrap())
    }

    /// Writes a `u32` at `addr`.
    #[inline]
    pub fn write_u32(&mut self, addr: u64, value: u32, rec: &mut TraceRecorder) {
        rec.touch(addr / PAGE_SIZE, true);
        let a = addr as usize;
        self.data[a..a + 4].copy_from_slice(&value.to_le_bytes());
    }

    /// Bulk-reads `len` bytes at `addr` (streaming access).
    #[inline]
    pub fn read_bytes(&self, addr: u64, len: u64, rec: &mut TraceRecorder) -> &[u8] {
        rec.touch_range(addr, len, false);
        &self.data[addr as usize..(addr + len) as usize]
    }

    /// Bulk-writes `src` at `addr` (streaming access).
    #[inline]
    pub fn write_bytes(&mut self, addr: u64, src: &[u8], rec: &mut TraceRecorder) {
        rec.touch_range(addr, src.len() as u64, true);
        self.data[addr as usize..addr as usize + src.len()].copy_from_slice(src);
    }

    /// Reads a `u64` without recording — for load-time population only
    /// (the paper's load phase is not measured either).
    #[inline]
    pub fn peek_u64(&self, addr: u64) -> u64 {
        let a = addr as usize;
        u64::from_le_bytes(self.data[a..a + 8].try_into().unwrap())
    }

    /// Writes a `u64` without recording (load-time population).
    #[inline]
    pub fn poke_u64(&mut self, addr: u64, value: u64) {
        let a = addr as usize;
        self.data[a..a + 8].copy_from_slice(&value.to_le_bytes());
    }

    /// Bulk-reads without recording (load-time population).
    #[inline]
    pub fn peek_bytes(&self, addr: u64, len: u64) -> &[u8] {
        &self.data[addr as usize..(addr + len) as usize]
    }

    /// Bulk-writes without recording (load-time population).
    #[inline]
    pub fn poke_bytes(&mut self, addr: u64, src: &[u8]) {
        self.data[addr as usize..addr as usize + src.len()].copy_from_slice(src);
    }

    /// A writable view of `len` bytes at `addr`, without recording
    /// (load-time population: a loader fills a record in place instead
    /// of staging it in a buffer and copying it over).
    #[inline]
    pub fn poke_slice(&mut self, addr: u64, len: u64) -> &mut [u8] {
        &mut self.data[addr as usize..(addr + len) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::CostModel;

    #[test]
    fn alloc_bumps_and_aligns() {
        let mut a = PagedArena::new(PAGE_SIZE * 4);
        let x = a.alloc(10, 8);
        let y = a.alloc(10, 64);
        assert_eq!(x, 0);
        assert_eq!(y % 64, 0);
        assert!(y >= 10);
        assert_eq!(a.total_pages(), 4);
    }

    #[test]
    #[should_panic(expected = "arena exhausted")]
    fn alloc_overflow_panics() {
        let mut a = PagedArena::new(PAGE_SIZE);
        a.alloc(PAGE_SIZE + 1, 8);
    }

    #[test]
    fn u64_round_trip_records_pages() {
        let mut a = PagedArena::new(PAGE_SIZE * 8);
        let addr = 3 * PAGE_SIZE + 16;
        let mut rec = TraceRecorder::new(CostModel::default());
        a.write_u64(addr, 0xDEAD_BEEF, &mut rec);
        assert_eq!(a.read_u64(addr, &mut rec), 0xDEAD_BEEF);
        let t = rec.finish(0, 0, 0);
        // Write recorded; read deduped against the recent window.
        assert!(t.steps.iter().any(|s| matches!(
            s.access,
            Some(acc) if acc.page == 3 && acc.write
        )));
    }

    #[test]
    fn bytes_round_trip_across_pages() {
        let mut a = PagedArena::new(PAGE_SIZE * 4);
        let addr = PAGE_SIZE - 8; // straddles pages 0 and 1
        let payload = [7u8; 64];
        let mut rec = TraceRecorder::new(CostModel::default());
        a.write_bytes(addr, &payload, &mut rec);
        assert_eq!(a.read_bytes(addr, 64, &mut rec), &payload[..]);
        let t = rec.finish(0, 0, 0);
        let pages: Vec<u64> = t
            .steps
            .iter()
            .filter_map(|s| s.access.map(|x| x.page))
            .collect();
        assert!(pages.contains(&0) && pages.contains(&1));
    }

    #[test]
    fn peek_poke_do_not_record() {
        let mut a = PagedArena::new(PAGE_SIZE);
        let rec = TraceRecorder::new(CostModel::default());
        a.poke_u64(0, 42);
        assert_eq!(a.peek_u64(0), 42);
        let t = rec.finish(0, 0, 0);
        assert_eq!(t.steps.len(), 0);
    }

    #[test]
    fn u32_round_trip() {
        let mut a = PagedArena::new(PAGE_SIZE);
        let mut rec = TraceRecorder::new(CostModel::default());
        a.write_u32(100, 77, &mut rec);
        assert_eq!(a.read_u32(100, &mut rec), 77);
    }
}
