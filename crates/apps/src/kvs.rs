//! Memcached-like key-value store (§5.2, Figure 10).
//!
//! The paper ports Memcached v1.6.21 onto Adios, replacing its
//! dispatcher/worker with Adios' and `mmap`ing its slabs into remote
//! memory. Here the equivalent store is a hash index over fixed-layout
//! items in a [`PagedArena`]:
//!
//! ```text
//! item: [ key_hash u64 | key_len u32 | val_len u32 | key bytes | value bytes ]
//! ```
//!
//! Keys are 50 bytes and values 128 B or 1024 B as in the paper's two
//! workloads. A GET probes the index, verifies the key bytes and
//! streams the value — two to three page touches over a multi-GB
//! working set, which is exactly the paper's Memcached fault profile.
//!
//! The load runs in two passes per batch of `LOAD_BATCH` keys: a
//! write pass lays the items out in key-id order, one after the other,
//! and an index pass inserts their `(hash, addr)` pairs in the same
//! order. The arena bytes depend on the insertion order alone (linear
//! probing places a key by what was inserted before it), so the split
//! leaves every byte where the item-at-a-time load put it, while the
//! tight index loop keeps several random slot misses in flight instead
//! of one per item. The key hash is FNV-1a over the 50 key bytes,
//! computed in closed form from the key id's significant digits, which
//! are extracted once per item, GET or SET and shared with the key bytes
//! (see `KeyDigits`).

use desim::Rng;
use paging::trace::Trace;
use paging::{PagedArena, TraceRecorder};
use runtime::Workload;

use crate::hashidx::HashIndex;

/// Key size used by the paper's Memcached workloads.
pub const KEY_BYTES: usize = 50;

const ITEM_HEADER: u64 = 16;

/// A Memcached-like store in arena memory.
///
/// # Examples
///
/// ```
/// use apps::Kvs;
/// use paging::TraceRecorder;
///
/// let kvs = Kvs::build(1_000, 128);
/// let mut rec = TraceRecorder::default();
/// // A borrowed view of the stored bytes: nothing is copied.
/// let value: &[u8] = kvs.get(42, &mut rec).unwrap();
/// assert_eq!(value, Kvs::value_for(42, 128));
/// let trace = rec.finish(0, 64, 144);
/// assert!(trace.accesses() >= 2); // index probe + item pages
/// ```
pub struct Kvs {
    arena: PagedArena,
    index: HashIndex,
    num_keys: u64,
    value_len: u32,
}

/// Writes the deterministic value of `key_id` over `out`.
fn fill_value(key_id: u64, out: &mut [u8]) {
    for (i, b) in out.iter_mut().enumerate() {
        *b = (key_id as u8).wrapping_add(i as u8);
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01B3;

/// Decimal digits at the head of every key (a `u64` never has more);
/// the rest is `k` filler.
const DIGITS: usize = 20;

/// Every key before its significant digits go in: [`DIGITS`] `'0'`s,
/// then `k` filler up to [`KEY_BYTES`].
const KEY_TEMPLATE: [u8; KEY_BYTES] = {
    let mut k = [b'k'; KEY_BYTES];
    let mut i = 0;
    while i < DIGITS {
        k[i] = b'0';
        i += 1;
    }
    k
};

/// One FNV-1a step.
const fn fnv_step(h: u64, byte: u8) -> u64 {
    (h ^ byte as u64).wrapping_mul(FNV_PRIME)
}

/// `ZEROS[z]`: the FNV-1a state after `z` leading `'0'` digits.
const ZEROS: [u64; DIGITS + 1] = {
    let mut t = [FNV_OFFSET; DIGITS + 1];
    let mut z = 1;
    while z <= DIGITS {
        t[z] = fnv_step(t[z - 1], b'0');
        z += 1;
    }
    t
};

/// The FNV-1a state after the `k` filler, starting from `h`, byte by
/// byte.
const fn filler_steps(mut h: u64) -> u64 {
    let mut i = DIGITS;
    while i < KEY_BYTES {
        h = fnv_step(h, b'k');
        i += 1;
    }
    h
}

/// `FNV_PRIME` to the power of the filler length.
const FILLER_PRIME: u64 = {
    let mut p = 1u64;
    let mut i = DIGITS;
    while i < KEY_BYTES {
        p = p.wrapping_mul(FNV_PRIME);
        i += 1;
    }
    p
};

/// `FILLER_LOW[l] = filler_steps(l) − l · FILLER_PRIME`, for every low
/// 7-bit state `l`.
const FILLER_LOW: [u64; 128] = {
    let mut t = [0u64; 128];
    let mut l = 0;
    while l < 128 {
        t[l] = filler_steps(l as u64).wrapping_sub((l as u64).wrapping_mul(FILLER_PRIME));
        l += 1;
    }
    t
};

/// The significant decimal digits of a key id, extracted once and
/// shared by its key bytes and its key hash.
struct KeyDigits {
    /// The significant digits right-aligned, most significant first;
    /// the bytes before them are unused.
    buf: [u8; DIGITS],
    /// How many there are (0 for key id 0).
    n: usize,
}

impl KeyDigits {
    fn of(key_id: u64) -> KeyDigits {
        let mut buf = [0u8; DIGITS];
        let mut n = 0;
        let mut rest = key_id;
        while rest > 0 {
            n += 1;
            buf[DIGITS - n] = b'0' + (rest % 10) as u8;
            rest /= 10;
        }
        KeyDigits { buf, n }
    }

    fn significant(&self) -> &[u8] {
        &self.buf[DIGITS - self.n..]
    }

    /// The key: the 20 zero-padded digits, then `k` filler up to
    /// [`KEY_BYTES`].
    fn bytes(&self) -> [u8; KEY_BYTES] {
        let mut k = KEY_TEMPLATE;
        k[DIGITS - self.n..DIGITS].copy_from_slice(self.significant());
        k
    }

    /// The key hash: FNV-1a over [`KeyDigits::bytes`] — what
    /// memcached-style stores compute per GET — in closed form.
    ///
    /// The state after the leading `'0'`s is [`ZEROS`]; each
    /// significant digit is one step. The filler is exact in one
    /// multiply-add: XOR with a byte below 128 adds to `h` an amount
    /// that depends on `h mod 128` alone, and `h mod 128` after a step
    /// depends on `h mod 128` alone (the prime multiplies mod 2⁶⁴, whose
    /// low bits see only low bits), so `n` filler steps take `h` to
    /// `h · Pⁿ + S[h mod 128]`, and `S = FILLER_LOW`.
    fn hash(&self) -> u64 {
        let zeros = ZEROS[DIGITS - self.n];
        let h = self
            .significant()
            .iter()
            .fold(zeros, |h, &d| fnv_step(h, d));
        let h = h
            .wrapping_mul(FILLER_PRIME)
            .wrapping_add(FILLER_LOW[(h & 0x7F) as usize]);
        // Every stored hash (and so every stream anchor) carries this
        // bit. It does not keep the hash off the index's `EMPTY_KEY`,
        // which is `u64::MAX` and odd: the `assert_ne!` in
        // `HashIndex::insert_untraced` guards the sentinel.
        h | 1
    }
}

/// Keys whose index inserts a load buffers between its write pass and
/// its index pass (16 KiB of `(hash, addr)` pairs).
const LOAD_BATCH: usize = 1_024;

impl Kvs {
    /// Builds and populates a store with `num_keys` keys of
    /// `value_len`-byte values (values are a deterministic fill).
    ///
    /// # Panics
    ///
    /// Panics if `num_keys` is zero.
    pub fn build(num_keys: u64, value_len: u32) -> Kvs {
        let mut kvs = Kvs::empty(num_keys, value_len);
        let mut batch = Vec::with_capacity(LOAD_BATCH);
        for start in (0..num_keys).step_by(LOAD_BATCH) {
            let end = (start + LOAD_BATCH as u64).min(num_keys);
            batch.extend((start..end).map(|id| kvs.write_item(id)));
            for &(h, addr) in &batch {
                kvs.index.insert_untraced(&mut kvs.arena, h, addr);
            }
            batch.clear();
        }
        kvs
    }

    /// A store with its arena and empty index allocated, no item loaded.
    ///
    /// # Panics
    ///
    /// Panics if `num_keys` is zero.
    fn empty(num_keys: u64, value_len: u32) -> Kvs {
        assert!(num_keys > 0, "Kvs needs num_keys > 0");
        let item_bytes = ITEM_HEADER + KEY_BYTES as u64 + value_len as u64;
        let index_bytes = (num_keys as f64 / 0.7 * 16.0) as u64 * 2;
        let capacity = num_keys * (item_bytes + 8) + index_bytes + (8 << 20);
        let mut arena = PagedArena::new(capacity);
        let index = HashIndex::build(&mut arena, num_keys);
        Kvs {
            arena,
            index,
            num_keys,
            value_len,
        }
    }

    /// Allocates and fills the item of `key_id` in place; returns its
    /// `(hash, addr)` for the index pass.
    fn write_item(&mut self, key_id: u64) -> (u64, u64) {
        let digits = KeyDigits::of(key_id);
        let h = digits.hash();
        let len = ITEM_HEADER + KEY_BYTES as u64 + self.value_len as u64;
        let addr = self.arena.alloc(len, 8);
        let item = self.arena.poke_slice(addr, len);
        let (header, body) = item.split_at_mut(ITEM_HEADER as usize);
        let (key, value) = body.split_at_mut(KEY_BYTES);
        let meta = ((KEY_BYTES as u64) << 32) | self.value_len as u64;
        header[..8].copy_from_slice(&h.to_le_bytes());
        header[8..].copy_from_slice(&meta.to_le_bytes());
        key.copy_from_slice(&digits.bytes());
        fill_value(key_id, value);
        (h, addr)
    }

    /// The deterministic value stored for `key_id`, in a fresh `Vec`
    /// (the allocating convenience; loads and SETs fill a reused
    /// buffer instead).
    pub fn value_for(key_id: u64, value_len: u32) -> Vec<u8> {
        let mut value = vec![0u8; value_len as usize];
        fill_value(key_id, &mut value);
        value
    }

    /// Number of keys loaded.
    pub fn num_keys(&self) -> u64 {
        self.num_keys
    }

    /// Total pages of the working set.
    pub fn total_pages(&self) -> u64 {
        self.arena.total_pages()
    }

    /// SET by key id: overwrites the stored value in place (values are
    /// fixed-size, as in memcached slab classes), recording every page
    /// touch as a write.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not exactly the store's value size or the
    /// key was never loaded.
    pub fn set(&mut self, key_id: u64, value: &[u8], rec: &mut TraceRecorder) {
        assert_eq!(value.len(), self.value_len as usize, "slab value size");
        rec.compute_ns(350.0);
        let h = KeyDigits::of(key_id).hash();
        let addr = self
            .index
            .get(&self.arena, h, rec)
            .expect("SET of unloaded key");
        // Verify + LRU bump like GET, then stream the new value in.
        let _ = self.arena.read_u64(addr, rec);
        rec.compute_ns(120.0);
        let key_len = KEY_BYTES as u64;
        self.arena
            .write_bytes(addr + ITEM_HEADER + key_len, value, rec);
    }

    /// GET by key id: returns the stored value as a borrowed view of
    /// the arena, recording every page touch.
    ///
    /// Like real Memcached, a GET is not read-only: it bumps the item's
    /// LRU recency metadata, dirtying the item's header page. Under
    /// memory disaggregation those dirty pages must be written back on
    /// eviction — which is what saturates the RNIC's message rate and
    /// caps Memcached's throughput in the paper (§5.2: "the NIC could
    /// not match the host's processing power").
    pub fn get(&self, key_id: u64, rec: &mut TraceRecorder) -> Option<&[u8]> {
        let digits = KeyDigits::of(key_id);
        // Hashing 50 key bytes + memcached protocol/locking overhead.
        rec.compute_ns(350.0);
        let h = digits.hash();
        let addr = self.index.get(&self.arena, h, rec)?;
        let stored_hash = self.arena.read_u64(addr, rec);
        if stored_hash != h {
            return None;
        }
        let meta = self.arena.peek_u64(addr + 8);
        let key_len = meta >> 32;
        let val_len = meta & 0xFFFF_FFFF;
        let stored_key = self.arena.read_bytes(addr + ITEM_HEADER, key_len, rec);
        if stored_key != digits.bytes() {
            return None;
        }
        // Key comparison + LRU bump (a *write* to the item header).
        rec.compute_ns(120.0);
        rec.touch(addr / paging::PAGE_SIZE, true);
        Some(
            self.arena
                .read_bytes(addr + ITEM_HEADER + key_len, val_len, rec),
        )
    }
}

/// Class index of GET requests.
pub const CLASS_GET: u16 = 0;
/// Class index of SET requests.
pub const CLASS_SET: u16 = 1;

/// The paper's Memcached workload (Figure 10): uniform-random keys,
/// one value size per experiment; GET-only by default, with an optional
/// SET fraction for write-mix studies.
pub struct MemcachedWorkload {
    kvs: Kvs,
    request_bytes: u32,
    set_fraction: f64,
    /// Scratch for the value a SET carries, refilled per request.
    set_payload: Vec<u8>,
    /// Normalized Zipf CDF over key ranks (rank = key id, so hot keys
    /// cluster at low arena addresses); `None` keeps the paper's
    /// uniform key pick.
    zipf_cdf: Option<Vec<f64>>,
}

impl MemcachedWorkload {
    /// Creates the GET-only workload over a freshly built store.
    ///
    /// # Panics
    ///
    /// Panics if `num_keys` is zero.
    pub fn new(num_keys: u64, value_len: u32) -> MemcachedWorkload {
        MemcachedWorkload {
            kvs: Kvs::build(num_keys, value_len),
            request_bytes: 24 + KEY_BYTES as u32,
            set_fraction: 0.0,
            set_payload: vec![0; value_len as usize],
            zipf_cdf: None,
        }
    }

    /// Adds a SET fraction to the mix.
    ///
    /// # Panics
    ///
    /// Panics if `set_fraction` is outside `[0, 1]`.
    pub fn with_sets(mut self, set_fraction: f64) -> MemcachedWorkload {
        assert!((0.0..=1.0).contains(&set_fraction));
        self.set_fraction = set_fraction;
        self
    }

    /// Switches the key pick from uniform to Zipf(`theta`): key `k` is
    /// drawn with probability ∝ 1/(k+1)^θ via inverse-CDF binary search
    /// over a table built once here (no extra RNG draws per request, so
    /// the request *shape* stays identical to the uniform workload).
    /// Rank equals key id, so hot keys sit on a handful of arena pages —
    /// the skew shows up directly as page-heat and (under range
    /// sharding) shard-heat imbalance. θ ≈ 0.99 is the YCSB default.
    ///
    /// # Panics
    ///
    /// Panics if `theta` is not finite and positive.
    pub fn with_zipf(mut self, theta: f64) -> MemcachedWorkload {
        assert!(theta.is_finite() && theta > 0.0, "zipf theta");
        let n = self.kvs.num_keys;
        let mut cdf = Vec::with_capacity(n as usize);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(theta);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        self.zipf_cdf = Some(cdf);
        self
    }

    /// Access to the underlying store (for correctness tests).
    pub fn kvs(&self) -> &Kvs {
        &self.kvs
    }
}

impl Workload for MemcachedWorkload {
    fn classes(&self) -> &'static [&'static str] {
        &["GET", "SET"]
    }

    fn total_pages(&self) -> u64 {
        self.kvs.total_pages()
    }

    fn next_request_into(&mut self, rng: &mut Rng, buf: &mut Trace) {
        let key_id = match &self.zipf_cdf {
            Some(cdf) => {
                let u = rng.gen_f64();
                (cdf.partition_point(|&c| c < u) as u64).min(self.kvs.num_keys - 1)
            }
            None => rng.gen_range(self.kvs.num_keys),
        };
        let mut rec = TraceRecorder::reusing(buf);
        // Request parse (memcached protocol header + key).
        rec.compute_ns(120.0);
        if self.set_fraction > 0.0 && rng.gen_bool(self.set_fraction) {
            fill_value(rng.next_u64(), &mut self.set_payload);
            self.kvs.set(key_id, &self.set_payload, &mut rec);
            rec.compute_ns(60.0);
            let request = self.request_bytes + self.set_payload.len() as u32;
            rec.finish_into(buf, CLASS_SET, request, 16);
        } else {
            let value = self.kvs.get(key_id, &mut rec);
            debug_assert!(value.is_some(), "loaded key must be found");
            let reply = 16 + value.map_or(0, |v| v.len() as u32);
            // Reply serialization.
            rec.compute_ns(60.0);
            rec.finish_into(buf, CLASS_GET, self.request_bytes, reply);
        }
    }
}

#[cfg(test)]
mod tests {
    use paging::trace::CostModel;

    use super::*;

    /// The key of `key_id`, all 20 digits formatted one by one: the
    /// oracle of [`KeyDigits::bytes`].
    fn key_bytes(key_id: u64) -> [u8; KEY_BYTES] {
        let mut k = [b'k'; KEY_BYTES];
        let mut rest = key_id;
        for digit in k[..DIGITS].iter_mut().rev() {
            *digit = b'0' + (rest % 10) as u8;
            rest /= 10;
        }
        k
    }

    /// Byte-wise FNV-1a over the key, with the stored low bit: the
    /// oracle of the closed-form [`KeyDigits::hash`].
    fn fnv1a(key: &[u8]) -> u64 {
        key.iter().fold(FNV_OFFSET, |h, &b| fnv_step(h, b)) | 1
    }

    /// The item-at-a-time load: each item written, hashed byte by byte
    /// and inserted before the next — the oracle of [`Kvs::build`].
    fn build_item_at_a_time(num_keys: u64, value_len: u32) -> Kvs {
        let mut kvs = Kvs::empty(num_keys, value_len);
        let mut value = vec![0u8; value_len as usize];
        for id in 0..num_keys {
            fill_value(id, &mut value);
            let key = key_bytes(id);
            let h = fnv1a(&key);
            let len = ITEM_HEADER + KEY_BYTES as u64 + value_len as u64;
            let addr = kvs.arena.alloc(len, 8);
            kvs.arena.poke_u64(addr, h);
            kvs.arena
                .poke_u64(addr + 8, ((KEY_BYTES as u64) << 32) | value_len as u64);
            kvs.arena.poke_bytes(addr + ITEM_HEADER, &key);
            kvs.arena
                .poke_bytes(addr + ITEM_HEADER + KEY_BYTES as u64, &value);
            kvs.index.insert_untraced(&mut kvs.arena, h, addr);
        }
        kvs
    }

    #[test]
    fn batched_load_writes_the_bytes_of_the_item_at_a_time_load() {
        for num_keys in [1, 1_023, 1_024, 1_025, 50_000] {
            for value_len in [128, 1_024] {
                assert_eq!(
                    crate::arena_digest(&Kvs::build(num_keys, value_len).arena),
                    crate::arena_digest(&build_item_at_a_time(num_keys, value_len).arena),
                    "{num_keys} keys x {value_len} B"
                );
            }
        }
    }

    /// Both sides of every digit-count boundary: 0, 9, 10, 99, …,
    /// 10¹⁹, `u64::MAX`.
    fn digit_count_boundaries() -> Vec<u64> {
        let mut ids = vec![0, u64::MAX];
        let mut p = 1u64;
        for _ in 0..DIGITS - 1 {
            p *= 10;
            ids.extend([p - 1, p]);
        }
        ids
    }

    #[test]
    fn closed_form_key_hash_is_byte_wise_fnv1a() {
        let mut ids = digit_count_boundaries();
        let mut rng = Rng::new(32);
        // Every magnitude, not only the 19- and 20-digit ids most draws are.
        ids.extend((0..100_000).map(|i| rng.next_u64() >> (i % 64)));
        for id in ids {
            assert_eq!(
                KeyDigits::of(id).hash(),
                fnv1a(&key_bytes(id)),
                "key id {id}"
            );
        }
    }

    #[test]
    fn shared_digits_give_the_formatted_key_and_its_hash() {
        for id in digit_count_boundaries() {
            let digits = KeyDigits::of(id);
            assert_eq!(digits.bytes(), key_bytes(id), "key id {id}");
            assert_eq!(digits.hash(), fnv1a(&key_bytes(id)), "key id {id}");
        }
    }

    #[test]
    fn get_returns_stored_values() {
        let kvs = Kvs::build(2_000, 128);
        for id in [0u64, 1, 999, 1999] {
            let mut rec = TraceRecorder::new(CostModel::default());
            let v = kvs.get(id, &mut rec).expect("present");
            assert_eq!(v, Kvs::value_for(id, 128));
        }
    }

    #[test]
    fn key_digits_match_the_formatted_id() {
        for id in [0u64, 7, 42, 1_999, 10_000_000_019, u64::MAX] {
            let key = KeyDigits::of(id).bytes();
            assert_eq!(&key[..20], format!("{id:020}").as_bytes());
            assert!(key[20..].iter().all(|&b| b == b'k'));
        }
    }

    #[test]
    #[should_panic(expected = "num_keys > 0")]
    fn empty_store_is_rejected() {
        Kvs::build(0, 128);
    }

    #[test]
    #[should_panic(expected = "num_keys > 0")]
    fn empty_workload_is_rejected() {
        MemcachedWorkload::new(0, 128);
    }

    #[test]
    fn matches_reference_hashmap() {
        let kvs = Kvs::build(500, 64);
        let reference: std::collections::HashMap<u64, Vec<u8>> =
            (0..500).map(|id| (id, Kvs::value_for(id, 64))).collect();
        for id in 0..500u64 {
            let mut rec = TraceRecorder::new(CostModel::default());
            assert_eq!(kvs.get(id, &mut rec), reference.get(&id).map(Vec::as_slice));
        }
    }

    #[test]
    fn missing_key_returns_none() {
        let kvs = Kvs::build(100, 128);
        let mut rec = TraceRecorder::new(CostModel::default());
        assert_eq!(kvs.get(100_000, &mut rec), None);
    }

    #[test]
    fn get_trace_touches_index_and_item() {
        let kvs = Kvs::build(50_000, 1024);
        let mut rec = TraceRecorder::new(CostModel::default());
        kvs.get(123, &mut rec).unwrap();
        let t = rec.finish(0, 0, 0);
        // Index probe page + item pages (header/key/value may straddle).
        assert!(t.accesses() >= 2, "trace: {:?}", t.steps);
        assert!(t.accesses() <= 6);
        assert!(t.compute_ns() > 0);
    }

    #[test]
    fn set_overwrites_value() {
        let mut kvs = Kvs::build(100, 64);
        let mut rec = TraceRecorder::new(CostModel::default());
        let new_value = vec![0xEE; 64];
        kvs.set(42, &new_value, &mut rec);
        let t = rec.finish(0, 0, 0);
        assert!(
            t.steps
                .iter()
                .any(|s| matches!(s.access, Some(a) if a.write)),
            "SET must dirty item pages"
        );
        let mut rec2 = TraceRecorder::new(CostModel::default());
        assert_eq!(kvs.get(42, &mut rec2).unwrap(), new_value);
        // Other keys untouched.
        let mut rec3 = TraceRecorder::new(CostModel::default());
        assert_eq!(kvs.get(41, &mut rec3).unwrap(), Kvs::value_for(41, 64));
    }

    #[test]
    #[should_panic(expected = "slab value size")]
    fn set_wrong_size_panics() {
        let mut kvs = Kvs::build(10, 64);
        let mut rec = TraceRecorder::new(CostModel::default());
        kvs.set(1, &[0u8; 32], &mut rec);
    }

    #[test]
    fn mixed_workload_produces_both_classes() {
        let mut w = MemcachedWorkload::new(5_000, 128).with_sets(0.3);
        let mut rng = Rng::new(8);
        let mut sets = 0;
        for _ in 0..2_000 {
            let t = w.next_request(&mut rng);
            if t.class == CLASS_SET {
                sets += 1;
                assert!(t.request_bytes > 128, "SET carries the value");
            }
        }
        assert!((450..=750).contains(&sets), "sets = {sets}");
    }

    #[test]
    fn workload_produces_valid_traces() {
        let mut w = MemcachedWorkload::new(10_000, 128);
        let mut rng = Rng::new(3);
        for _ in 0..100 {
            let t = w.next_request(&mut rng);
            assert_eq!(t.class, 0);
            assert!(t.reply_bytes >= 16 + 128);
            assert!(t.accesses() >= 2);
        }
    }

    #[test]
    fn zipf_concentrates_on_hot_keys() {
        let mut w = MemcachedWorkload::new(10_000, 128).with_zipf(0.99);
        let mut rng = Rng::new(11);
        let mut hot = 0u64;
        const DRAWS: u64 = 4_000;
        for _ in 0..DRAWS {
            let t = w.next_request(&mut rng);
            assert_eq!(t.class, CLASS_GET);
            // Recover the drawn key from the first value byte pattern is
            // fragile; instead re-draw the same distribution directly.
            let _ = t;
        }
        // Draw from the CDF directly: top 1% of ranks should carry far
        // more than 1% of the mass under θ=0.99 (≈35% for n=10k).
        let cdf = w.zipf_cdf.as_ref().unwrap();
        let mut rng2 = Rng::new(12);
        for _ in 0..DRAWS {
            let u = rng2.gen_f64();
            let k = cdf.partition_point(|&c| c < u) as u64;
            if k < 100 {
                hot += 1;
            }
        }
        let share = hot as f64 / DRAWS as f64;
        assert!(share > 0.2, "top-1% share {share} under Zipf(0.99)");
        // And the uniform workload stays near 1%.
        let mut hot_u = 0u64;
        let mut rng3 = Rng::new(13);
        for _ in 0..DRAWS {
            if rng3.gen_range(10_000) < 100 {
                hot_u += 1;
            }
        }
        assert!((hot_u as f64 / DRAWS as f64) < 0.05);
    }

    #[test]
    fn value_sizes_match_paper_workloads() {
        for vs in [128u32, 1024] {
            let kvs = Kvs::build(100, vs);
            let mut rec = TraceRecorder::new(CostModel::default());
            assert_eq!(kvs.get(5, &mut rec).unwrap().len(), vs as usize);
        }
    }
}
