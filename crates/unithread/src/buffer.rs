//! The unified unithread buffer pool.
//!
//! §3.2 / Figure 4 of the paper: each unithread lives in one
//! pre-allocated buffer laid out as
//!
//! ```text
//! | packet payload (MTU) | context | universal stack →ꜜ  |
//! 0                      MTU                    buffer size
//! ```
//!
//! The packet payload, the thread context and the merged kernel+user
//! ("universal") stack share a single allocation, so a request consumes
//! one buffer instead of the three a Shinjuku-style design needs
//! (payload, user stack, exception stack — 12 KB vs 4 KB, a 66 % saving
//! the paper turns into 1 GB of extra page cache).
//!
//! Buffers are pre-allocated at pool construction (131 072 in the
//! paper) and recycled; the request path never allocates.

use crate::context::Context;

/// The paper's pre-allocated pool size (§3.2).
pub const PAPER_POOL_SIZE: usize = 131_072;

/// The paper's per-unithread buffer size (4 KB minimum per request).
pub const PAPER_BUFFER_SIZE: usize = 4096;

/// Stack-bottom canary used to detect overflows (no guard pages: the
/// pool is a single slab, like the paper's pre-allocated buffers).
pub(crate) const STACK_CANARY: u64 = 0xDEAD_C0DE_5AFE_57AC;

/// A pool of unified unithread buffers.
pub struct BufferPool {
    slab: Box<[u8]>,
    buf_size: usize,
    payload_capacity: usize,
    free: Vec<u32>,
    capacity: usize,
}

impl BufferPool {
    /// Creates a pool of `capacity` buffers of `buf_size` bytes, with
    /// the first `payload_capacity` bytes of each reserved for the
    /// packet payload.
    ///
    /// # Panics
    ///
    /// Panics if the layout leaves less than 256 bytes of stack.
    pub fn new(capacity: usize, buf_size: usize, payload_capacity: usize) -> BufferPool {
        let ctx_off = payload_capacity.div_ceil(16) * 16;
        let stack_bottom = ctx_off + std::mem::size_of::<Context>() + 8; // + canary
        assert!(
            buf_size >= stack_bottom + 256,
            "buffer too small: {buf_size} B leaves no stack after {stack_bottom} B of header"
        );
        BufferPool {
            slab: vec![0u8; capacity * buf_size].into_boxed_slice(),
            buf_size,
            payload_capacity,
            free: (0..capacity as u32).rev().collect(),
            capacity,
        }
    }

    /// Total buffers.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Buffers currently free.
    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    /// Takes a buffer; plants the stack canary. Returns `None` when the
    /// pool is exhausted (the paper sizes the pool for the worst burst).
    pub fn acquire(&mut self) -> Option<u32> {
        let idx = self.free.pop()?;
        // SAFETY: idx is in range; canary slot is inside the buffer.
        unsafe { *self.canary_ptr(idx) = STACK_CANARY };
        Some(idx)
    }

    /// Returns a buffer to the pool.
    ///
    /// # Panics
    ///
    /// Panics on a double release (in debug builds, via the free-list
    /// scan) or out-of-range index.
    pub fn release(&mut self, idx: u32) {
        assert!((idx as usize) < self.capacity, "buffer index out of range");
        debug_assert!(!self.free.contains(&idx), "double release of buffer {idx}");
        self.free.push(idx);
    }

    fn base(&self, idx: u32) -> *const u8 {
        // SAFETY: idx < capacity is an invariant of acquire/release.
        unsafe { self.slab.as_ptr().add(idx as usize * self.buf_size) }
    }

    fn ctx_offset(&self) -> usize {
        self.payload_capacity.div_ceil(16) * 16
    }

    /// Pointer to the buffer's context block.
    pub fn context_ptr(&self, idx: u32) -> *mut Context {
        (self.base(idx) as usize + self.ctx_offset()) as *mut Context
    }

    fn canary_ptr(&self, idx: u32) -> *mut u64 {
        (self.base(idx) as usize + self.ctx_offset() + std::mem::size_of::<Context>()) as *mut u64
    }

    /// Exclusive top of the buffer's universal stack (16-aligned).
    pub fn stack_top(&self, idx: u32) -> *mut u8 {
        let end = self.base(idx) as usize + self.buf_size;
        (end & !0xF) as *mut u8
    }

    /// The buffer's packet-payload area.
    pub fn payload(&self, idx: u32) -> &[u8] {
        // SAFETY: payload area is in range and u8 has no validity
        // requirements.
        unsafe { std::slice::from_raw_parts(self.base(idx), self.payload_capacity) }
    }

    /// Mutable packet-payload area.
    ///
    /// # Safety
    ///
    /// The caller must ensure the buffer is currently acquired and no
    /// other alias to its payload exists (a running unithread's
    /// [`Yielder`](crate::Yielder) is the unique accessor).
    pub unsafe fn payload_mut(&mut self, idx: u32) -> &mut [u8] {
        // SAFETY: forwarded to the caller.
        unsafe { std::slice::from_raw_parts_mut(self.base(idx) as *mut u8, self.payload_capacity) }
    }

    /// Whether the stack canary of `idx` is intact.
    pub fn canary_intact(&self, idx: u32) -> bool {
        // SAFETY: canary slot is inside the buffer.
        unsafe { *self.canary_ptr(idx) == STACK_CANARY }
    }

    #[cfg(test)]
    pub(crate) fn corrupt_canary_for_test(&mut self, idx: u32) {
        // SAFETY: test-only; slot is in range.
        unsafe { *self.canary_ptr(idx) = 0 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Usable stack bytes of buffer 0: from the stack top down to the
    /// canary word past the context block.
    fn stack_bytes(p: &BufferPool) -> usize {
        p.stack_top(0) as usize - p.canary_ptr(0) as usize - 8
    }

    #[test]
    fn acquire_release_cycle() {
        let mut p = BufferPool::new(4, 16 * 1024, 1500);
        assert_eq!(p.capacity(), 4);
        let a = p.acquire().unwrap();
        let b = p.acquire().unwrap();
        assert_ne!(a, b);
        assert_eq!(p.free_count(), 2);
        p.release(a);
        assert_eq!(p.free_count(), 3);
        assert!(p.canary_intact(b));
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut p = BufferPool::new(2, 8 * 1024, 128);
        assert!(p.acquire().is_some());
        assert!(p.acquire().is_some());
        assert!(p.acquire().is_none());
    }

    #[test]
    fn layout_is_ordered_and_aligned() {
        let p = BufferPool::new(2, PAPER_BUFFER_SIZE, 1500);
        let ctx = p.context_ptr(1) as usize;
        let top = p.stack_top(1) as usize;
        assert_eq!(ctx % 16, 0, "context must be 16-aligned");
        assert_eq!(top % 16, 0, "stack top must be 16-aligned");
        assert!(ctx > p.payload(1).as_ptr() as usize);
        assert!(top > ctx + std::mem::size_of::<Context>());
        assert!(stack_bytes(&p) >= 256);
    }

    #[test]
    fn paper_buffer_fits_payload_ctx_and_stack() {
        // The paper's 4 KB buffer with a 1500 B MTU leaves > 2.4 KB of
        // universal stack.
        let p = BufferPool::new(1, PAPER_BUFFER_SIZE, 1500);
        assert!(stack_bytes(&p) > 2400, "stack = {}", stack_bytes(&p));
    }

    #[test]
    fn payload_round_trip() {
        let mut p = BufferPool::new(1, 8 * 1024, 64);
        let idx = p.acquire().unwrap();
        // SAFETY: buffer acquired, single alias.
        let pl = unsafe { p.payload_mut(idx) };
        pl[0] = 0xAB;
        pl[63] = 0xCD;
        assert_eq!(p.payload(idx)[0], 0xAB);
        assert_eq!(p.payload(idx)[63], 0xCD);
    }

    #[test]
    #[should_panic(expected = "buffer too small")]
    fn rejects_stackless_layout() {
        BufferPool::new(1, 1600, 1500);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn release_out_of_range_panics() {
        BufferPool::new(1, 8 * 1024, 64).release(5);
    }

    #[test]
    fn memory_saving_vs_three_buffer_design() {
        // §3.2: 4 KB unified vs 12 KB (payload + user stack + exception
        // stack) — a 66 % saving; over the paper's 131 072 buffers that
        // is 1 GB.
        let unified = PAPER_POOL_SIZE * PAPER_BUFFER_SIZE;
        let shinjuku = PAPER_POOL_SIZE * (3 * PAPER_BUFFER_SIZE);
        assert_eq!(shinjuku - unified, 1 << 30);
    }
}
