//! Real application substrates for the Adios reproduction (Table 2).
//!
//! Each of the paper's four applications is implemented as a real data
//! structure living in a [`paging::PagedArena`]: lookups, scans,
//! transactions and vector searches execute against real bytes (the
//! correctness tests compare them with reference implementations), and
//! every memory access records the exact page-touch trace the simulator
//! replays.
//!
//! | Paper app | Here | Workload |
//! |-----------|------|----------|
//! | Memcached | [`kvs`] — chained-hash KVS | GET, 128 B / 1024 B values |
//! | RocksDB (PlainTable, mmap) | [`ordb`] — sorted log + sparse index | 99 % GET / 1 % SCAN(100) |
//! | Silo (Caladan variant) | [`silo`] — epoch OCC engine | TPC-C, standard mix |
//! | Faiss (IndexIVFFlat) | [`vecdb`] — IVF-Flat index | BIGANN-style kNN queries |
//! | — (tenant-plane extension) | [`llmserve`] — session-table KV cache | LLM prefill/decode serving |
//!
//! Datasets are synthetically generated and scaled down from the
//! paper's (40 GB / 20 GB / 48 GB) footprints; the local-memory *ratio*
//! (20 %) and the access-pattern shapes are preserved, which is what
//! drives memory-disaggregation behaviour (see `DESIGN.md` §2).

pub mod hashidx;
pub mod kvs;
pub mod llmserve;
pub mod ordb;
pub mod silo;
pub mod vecdb;

pub use kvs::{Kvs, MemcachedWorkload};
pub use llmserve::{LlmServe, LlmServeWorkload};
pub use ordb::{OrderedDb, RocksDbWorkload};
pub use silo::{SiloDb, TpccWorkload};
pub use vecdb::{FaissWorkload, IvfFlat};

/// `(FNV-1a of every arena byte, total_pages, allocated)`: what the
/// loaders' differential tests compare against their oracles.
#[cfg(test)]
fn arena_digest(arena: &paging::PagedArena) -> (u64, u64, u64) {
    let bytes = arena.peek_bytes(0, arena.total_pages() * paging::PAGE_SIZE);
    let h = bytes.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01B3)
    });
    (h, arena.total_pages(), arena.allocated())
}

#[cfg(test)]
mod tests {
    use desim::Rng;
    use paging::trace::{Step, Trace};
    use runtime::Workload;

    use super::silo::TpccScale;
    use super::{
        FaissWorkload, LlmServeWorkload, MemcachedWorkload, RocksDbWorkload, TpccWorkload,
    };

    /// Apps-side twin of `runtime::workload`'s
    /// `into_path_matches_allocating_path`: the pooled
    /// `next_request_into` path (one recycled, pre-dirtied buffer) must
    /// produce the same trace stream as a fresh buffer per request from
    /// the same rng draws — the simulator's trace pool depends on it.
    /// Requests mutate the stores, so each side owns its own.
    #[test]
    fn into_path_matches_allocating_path() {
        fn check<W: Workload>(build: impl Fn() -> W, seed: u64, min_classes: usize) {
            let (mut fresh, mut pooled) = (build(), build());
            let mut rng_a = Rng::new(seed);
            let mut rng_b = Rng::new(seed);
            let mut buf = Trace::default();
            // Pre-dirty the buffer so stale state would be caught.
            buf.steps.push(Step {
                compute_ns: 1,
                access: None,
            });
            buf.class = 7;
            let mut classes = vec![0usize; fresh.classes().len()];
            for _ in 0..500 {
                let t = fresh.next_request(&mut rng_a);
                pooled.next_request_into(&mut rng_b, &mut buf);
                assert_eq!(t.class, buf.class);
                assert_eq!(t.steps, buf.steps);
                assert_eq!(t.request_bytes, buf.request_bytes);
                assert_eq!(t.reply_bytes, buf.reply_bytes);
                classes[t.class as usize] += 1;
            }
            let seen = classes.iter().filter(|&&n| n > 0).count();
            assert!(seen >= min_classes, "mix: {classes:?}");
            // Both streams consumed the same number of draws.
            assert_eq!(rng_a.next_u64(), rng_b.next_u64());
        }
        check(|| MemcachedWorkload::new(4_000, 128).with_sets(0.3), 21, 2);
        // GET/SCAN: short point lookups alternate with long scans, so
        // the recycled buffer both shrinks and grows.
        check(
            || RocksDbWorkload::new(4_000, 256).with_mix(0.2, 100),
            22,
            2,
        );
        // Batched: finished traces are handed out by swapping buffers,
        // so the fresh side feeds every batch empty ones and the pooled
        // side one that has been round all eight slots.
        check(|| TpccWorkload::new(TpccScale::tiny(), 2), 23, 4);
        check(|| FaissWorkload::new(2_000, 16, 4, 3), 24, 1);
        check(|| LlmServeWorkload::new(16, 32), 25, 2);
    }
}
