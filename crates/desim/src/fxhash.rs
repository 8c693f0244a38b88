//! A fast, deterministic hasher for hot-path maps.
//!
//! `std`'s default `HashMap` hasher (SipHash-1-3) is keyed and
//! DoS-resistant, which the simulator does not need: keys are page
//! numbers and queue-pair ids from a deterministic run, and the map is
//! rebuilt from scratch every run. This is the Fx multiply-rotate hash
//! (as used by rustc's `FxHashMap`): one rotate, one xor and one
//! multiply per word, unkeyed and therefore also run-to-run stable —
//! iteration-order-independent code paths stay byte-deterministic.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit Fx multiplier (derived from the golden ratio).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx multiply-rotate hasher state.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }
}

/// `HashMap` with the Fx hasher.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_round_trips() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..1_000u64 {
            m.insert(i * 7919, i);
        }
        for i in 0..1_000u64 {
            assert_eq!(m.get(&(i * 7919)), Some(&i));
        }
        assert_eq!(m.len(), 1_000);
    }

    #[test]
    fn hash_is_stable_across_instances() {
        // Unkeyed: two hashers over the same input agree (and therefore
        // agree across runs and processes).
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u64(0xDEAD_BEEF);
        b.write_u64(0xDEAD_BEEF);
        assert_eq!(a.finish(), b.finish());
        assert_ne!(a.finish(), 0);
    }

    #[test]
    fn byte_writes_match_word_writes_for_full_words() {
        let mut a = FxHasher::default();
        a.write(&0x0123_4567_89ab_cdefu64.to_le_bytes());
        let mut b = FxHasher::default();
        b.write_u64(0x0123_4567_89ab_cdef);
        assert_eq!(a.finish(), b.finish());
    }
}
