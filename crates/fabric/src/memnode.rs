//! The memory node.
//!
//! With one-sided RDMA the memory node's CPU never touches a page fetch:
//! its NIC serves READ/WRITE directly from registered memory (the paper
//! backs it with 2 MB huge pages). The node is therefore passive in the
//! model — its per-request cost lives in
//! [`FabricParams::remote_processing`](crate::FabricParams) — but it
//! still validates addresses and keeps service statistics.

/// The remote memory node backing the compute node's paged memory.
#[derive(Debug, Clone)]
pub struct MemNode {
    id: u32,
    total_pages: u64,
    page_size: u32,
    reads: u64,
    writes: u64,
    bytes_read: u64,
    bytes_written: u64,
}

impl MemNode {
    /// Creates a memory node exporting `total_pages` pages of
    /// `page_size` bytes, with id 0.
    pub fn new(total_pages: u64, page_size: u32) -> MemNode {
        MemNode {
            id: 0,
            total_pages,
            page_size,
            reads: 0,
            writes: 0,
            bytes_read: 0,
            bytes_written: 0,
        }
    }

    /// Assigns the node id the fault plane keys its health episodes on
    /// (replica 0 is the primary; replicas take ids 1, 2, …).
    pub fn with_id(mut self, id: u32) -> MemNode {
        self.id = id;
        self
    }

    /// This node's id in the fault plane's namespace.
    #[inline]
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Serves a one-sided READ of `page`.
    ///
    /// # Panics
    ///
    /// Panics if `page` is outside the exported region — a fetch of an
    /// unmapped remote page is always a compute-node paging bug.
    #[inline]
    pub fn serve_read(&mut self, page: u64) {
        assert!(
            page < self.total_pages,
            "remote READ outside exported region: page {page} >= {}",
            self.total_pages
        );
        self.reads += 1;
        self.bytes_read += self.page_size as u64;
    }

    /// Serves a one-sided WRITE of `page` (dirty-page write-back).
    ///
    /// # Panics
    ///
    /// Panics if `page` is outside the exported region.
    #[inline]
    pub fn serve_write(&mut self, page: u64) {
        assert!(
            page < self.total_pages,
            "remote WRITE outside exported region: page {page} >= {}",
            self.total_pages
        );
        self.writes += 1;
        self.bytes_written += self.page_size as u64;
    }

    /// Number of pages exported.
    pub fn total_pages(&self) -> u64 {
        self.total_pages
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> u32 {
        self.page_size
    }

    /// READs served so far.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// WRITEs served so far.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Bytes served by READs.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Bytes absorbed by WRITEs.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_reads_and_writes() {
        let mut m = MemNode::new(100, 4096);
        m.serve_read(0);
        m.serve_read(99);
        m.serve_write(5);
        assert_eq!(m.reads(), 2);
        assert_eq!(m.writes(), 1);
        assert_eq!(m.bytes_read(), 8192);
        assert_eq!(m.bytes_written(), 4096);
    }

    #[test]
    #[should_panic(expected = "outside exported region")]
    fn read_out_of_range_panics() {
        MemNode::new(10, 4096).serve_read(10);
    }

    #[test]
    #[should_panic(expected = "outside exported region")]
    fn write_out_of_range_panics() {
        MemNode::new(10, 4096).serve_write(11);
    }
}
