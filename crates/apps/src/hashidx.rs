//! An open-addressing hash index stored inside a [`PagedArena`].
//!
//! Maps `u64` keys to `u64` payloads (record addresses). Used as the
//! lookup structure of the KVS and as the per-table primary index of
//! the Silo engine — in a memory-disaggregated setting the index lives
//! in (pageable) remote memory too, so its probes must appear in the
//! access trace.
//!
//! Layout: a power-of-two slot array of 16-byte `(key, value)` pairs,
//! linear probing, `EMPTY_KEY` sentinel. Load factor is kept ≤ 0.7 by
//! construction (capacity is fixed at build time; the workloads insert
//! a known maximum number of keys).

use paging::{PagedArena, TraceRecorder};

/// Sentinel for an empty slot. Keys must not use this value.
pub const EMPTY_KEY: u64 = u64::MAX;

/// A fixed-capacity open-addressing hash index in arena memory.
#[derive(Debug, Clone, Copy)]
pub struct HashIndex {
    base: u64,
    mask: u64,
    slots: u64,
}

#[inline]
fn mix(mut x: u64) -> u64 {
    // splitmix64 finalizer: good avalanche for sequential keys.
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl HashIndex {
    /// Allocates an index able to hold `max_keys` at ≤ 0.7 load.
    ///
    /// # Panics
    ///
    /// Panics if the arena cannot hold the slot array.
    pub fn build(arena: &mut PagedArena, max_keys: u64) -> HashIndex {
        let want = ((max_keys as f64 / 0.7).ceil() as u64).max(16);
        let slots = want.next_power_of_two();
        let base = arena.alloc(slots * 16, paging::PAGE_SIZE);
        // Fill with the empty sentinel.
        for i in 0..slots {
            arena.poke_u64(base + i * 16, EMPTY_KEY);
        }
        HashIndex {
            base,
            mask: slots - 1,
            slots,
        }
    }

    /// Slot count (for sizing arithmetic).
    pub fn slots(&self) -> u64 {
        self.slots
    }

    /// Inserts without trace recording (load phase).
    ///
    /// # Panics
    ///
    /// Panics if the table is full or `key == EMPTY_KEY`.
    pub fn insert_untraced(&self, arena: &mut PagedArena, key: u64, value: u64) {
        assert_ne!(key, EMPTY_KEY, "key collides with the empty sentinel");
        let mut i = mix(key) & self.mask;
        for _ in 0..=self.mask {
            let slot = self.base + i * 16;
            let k = arena.peek_u64(slot);
            if k == EMPTY_KEY || k == key {
                arena.poke_u64(slot, key);
                arena.poke_u64(slot + 8, value);
                return;
            }
            i = (i + 1) & self.mask;
        }
        panic!("hash index full");
    }

    /// Looks a key up, recording the probed pages.
    #[inline]
    pub fn get(&self, arena: &PagedArena, key: u64, rec: &mut TraceRecorder) -> Option<u64> {
        let mut i = mix(key) & self.mask;
        for _ in 0..=self.mask {
            let slot = self.base + i * 16;
            let k = arena.read_u64(slot, rec);
            if k == key {
                // Same 16-byte pair: the value read is covered by the
                // slot's page touch.
                return Some(arena.peek_u64(slot + 8));
            }
            if k == EMPTY_KEY {
                return None;
            }
            i = (i + 1) & self.mask;
        }
        None
    }

    /// Looks a key up without recording (load phase / invariants
    /// checking).
    pub fn get_untraced(&self, arena: &PagedArena, key: u64) -> Option<u64> {
        let mut i = mix(key) & self.mask;
        for _ in 0..=self.mask {
            let slot = self.base + i * 16;
            let k = arena.peek_u64(slot);
            if k == key {
                return Some(arena.peek_u64(slot + 8));
            }
            if k == EMPTY_KEY {
                return None;
            }
            i = (i + 1) & self.mask;
        }
        None
    }

    /// Inserts with trace recording (runtime inserts, e.g. TPC-C
    /// new-order rows).
    ///
    /// # Panics
    ///
    /// Panics if the table is full or `key == EMPTY_KEY`.
    pub fn insert(&self, arena: &mut PagedArena, key: u64, value: u64, rec: &mut TraceRecorder) {
        assert_ne!(key, EMPTY_KEY, "key collides with the empty sentinel");
        let mut i = mix(key) & self.mask;
        for _ in 0..=self.mask {
            let slot = self.base + i * 16;
            let k = arena.read_u64(slot, rec);
            if k == EMPTY_KEY || k == key {
                arena.write_u64(slot, key, rec);
                arena.poke_u64(slot + 8, value);
                // The value write shares the slot's page; record it as a
                // write touch for dirtiness.
                rec.touch(slot / paging::PAGE_SIZE, true);
                return;
            }
            i = (i + 1) & self.mask;
        }
        panic!("hash index full");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paging::trace::CostModel;

    fn arena() -> PagedArena {
        PagedArena::new(8 << 20)
    }

    fn rec() -> TraceRecorder {
        TraceRecorder::new(CostModel::default())
    }

    #[test]
    fn insert_then_get() {
        let mut a = arena();
        let idx = HashIndex::build(&mut a, 1000);
        for k in 0..1000u64 {
            idx.insert_untraced(&mut a, k, k * 7);
        }
        for k in 0..1000u64 {
            let mut r = rec();
            assert_eq!(idx.get(&a, k, &mut r), Some(k * 7));
        }
        let mut r = rec();
        assert_eq!(idx.get(&a, 5000, &mut r), None);
    }

    #[test]
    fn overwrite_updates_value() {
        let mut a = arena();
        let idx = HashIndex::build(&mut a, 10);
        idx.insert_untraced(&mut a, 3, 30);
        idx.insert_untraced(&mut a, 3, 31);
        let mut r = rec();
        assert_eq!(idx.get(&a, 3, &mut r), Some(31));
    }

    #[test]
    fn traced_insert_records_write() {
        let mut a = arena();
        let idx = HashIndex::build(&mut a, 10);
        let mut r = rec();
        idx.insert(&mut a, 9, 99, &mut r);
        let t = r.finish(0, 0, 0);
        assert!(t
            .steps
            .iter()
            .any(|s| matches!(s.access, Some(acc) if acc.write)));
        let mut r2 = rec();
        assert_eq!(idx.get(&a, 9, &mut r2), Some(99));
    }

    #[test]
    fn get_records_probe_pages() {
        let mut a = arena();
        let idx = HashIndex::build(&mut a, 100_000);
        idx.insert_untraced(&mut a, 42, 1);
        let mut r = rec();
        idx.get(&a, 42, &mut r);
        let t = r.finish(0, 0, 0);
        assert!(t.accesses() >= 1, "probe must touch the slot page");
    }

    #[test]
    fn dense_fill_up_to_capacity() {
        let mut a = arena();
        let idx = HashIndex::build(&mut a, 5000);
        for k in 0..5000u64 {
            idx.insert_untraced(&mut a, k.wrapping_mul(0x9E37_79B9) + 1, k);
        }
        // All retrievable.
        let mut hits = 0;
        for k in 0..5000u64 {
            let mut r = rec();
            if idx.get(&a, k.wrapping_mul(0x9E37_79B9) + 1, &mut r) == Some(k) {
                hits += 1;
            }
        }
        assert_eq!(hits, 5000);
    }

    #[test]
    #[should_panic(expected = "empty sentinel")]
    fn sentinel_key_rejected() {
        let mut a = arena();
        let idx = HashIndex::build(&mut a, 10);
        idx.insert_untraced(&mut a, EMPTY_KEY, 0);
    }
}
