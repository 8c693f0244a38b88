//! Faiss-like IVF-Flat vector search (§5.2, Figure 13; Table 2).
//!
//! The paper runs Faiss v1.8.0 with `IndexIVFFlat` — "the fastest
//! indexing method but consumes a significant amount of memory" — over
//! the BIGANN dataset (128-dimensional SIFT byte vectors), with Adios'
//! MD scheduler replacing OpenMP for request-level parallelism.
//!
//! This module implements IVF-Flat for real:
//!
//! - a **coarse quantizer**: k-means centroids (Lloyd iterations over a
//!   training sample), stored in the arena and scanned by every query —
//!   the hot region that stays cached;
//! - **inverted lists**: per-centroid contiguous `[ids | vectors]`
//!   regions; probing a list is a sequential sweep, the access pattern
//!   that makes readahead effective;
//! - **search**: rank centroids by distance to the query, scan the
//!   `nprobe` nearest lists with exact L2 distances, keep a top-k heap.
//!
//! The dataset is BIGANN-shaped: byte vectors clustered around random
//! centers with Gaussian noise (see `DESIGN.md` §2 on dataset
//! substitution).

use std::collections::BinaryHeap;

use desim::Rng;
use paging::trace::Trace;
use paging::{PagedArena, TraceRecorder};
use runtime::Workload;

/// SIFT/BIGANN dimensionality.
pub const DIM: usize = 128;

/// Distance cost per scanned vector (SIMD u8 L2 over 128 dims).
const SCAN_NS_PER_VEC: f64 = 20.0;

/// Distance cost per centroid in the coarse quantizer (f32 L2).
const COARSE_NS_PER_CENTROID: f64 = 40.0;

/// An IVF-Flat index over arena memory.
pub struct IvfFlat {
    arena: PagedArena,
    nlist: usize,
    centroid_base: u64,
    /// Per-list `(ids_base, vecs_base, len)`.
    lists: Vec<(u64, u64, u64)>,
    num_vectors: u64,
}

/// Scratch a caller keeps across [`IvfFlat::search_with`] calls: the
/// centroid ranking, the top-k heap and the sorted hits, so a warmed-up
/// search allocates nothing.
#[derive(Debug, Default)]
pub struct SearchScratch {
    ranked: Vec<(f64, usize)>,
    /// Max-heap on distance.
    heap: BinaryHeap<(u64, u64)>,
    hits: Vec<(u64, u64)>,
}

fn l2_u8(a: &[u8], b: &[u8]) -> u64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = x as i64 - y as i64;
            (d * d) as u64
        })
        .sum()
}

fn l2_f32_u8(c: &[f32], v: &[u8]) -> f64 {
    c.iter()
        .zip(v)
        .map(|(&x, &y)| {
            let d = x as f64 - y as f64;
            d * d
        })
        .sum()
}

impl IvfFlat {
    /// Generates a BIGANN-shaped dataset of `num_vectors` byte vectors,
    /// trains `nlist` centroids with k-means and builds the index.
    pub fn build(num_vectors: u64, nlist: usize, seed: u64) -> IvfFlat {
        let mut rng = Rng::new(seed ^ 0xB16A);
        // Ground-truth cluster centers.
        let true_centers: Vec<Vec<u8>> = (0..nlist)
            .map(|_| (0..DIM).map(|_| rng.gen_range(256) as u8).collect())
            .collect();
        // Dataset: center + Gaussian noise.
        let vectors: Vec<Vec<u8>> = (0..num_vectors)
            .map(|_| {
                let c = &true_centers[rng.gen_range(nlist as u64) as usize];
                (0..DIM)
                    .map(|j| (c[j] as f64 + rng.normal(0.0, 8.0)).clamp(0.0, 255.0) as u8)
                    .collect()
            })
            .collect();

        // K-means (Lloyd) on a training sample, seeded from random
        // dataset points, as Faiss trains its coarse quantizer.
        let sample: Vec<&Vec<u8>> = (0..(num_vectors.min(20_000)))
            .map(|_| &vectors[rng.gen_range(num_vectors) as usize])
            .collect();
        let mut centroids: Vec<Vec<f32>> = (0..nlist)
            .map(|_| {
                vectors[rng.gen_range(num_vectors) as usize]
                    .iter()
                    .map(|&b| b as f32)
                    .collect()
            })
            .collect();
        for _iter in 0..4 {
            let mut sums = vec![vec![0f64; DIM]; nlist];
            let mut counts = vec![0u64; nlist];
            for v in &sample {
                let best = Self::nearest_centroid(&centroids, v);
                counts[best] += 1;
                for j in 0..DIM {
                    sums[best][j] += v[j] as f64;
                }
            }
            for (i, c) in centroids.iter_mut().enumerate() {
                if counts[i] > 0 {
                    for j in 0..DIM {
                        c[j] = (sums[i][j] / counts[i] as f64) as f32;
                    }
                }
            }
        }

        // Assign every vector to its list.
        let mut membership: Vec<Vec<u64>> = vec![Vec::new(); nlist];
        for (id, v) in vectors.iter().enumerate() {
            membership[Self::nearest_centroid(&centroids, v)].push(id as u64);
        }

        // Lay out the index in the arena.
        let capacity = (nlist * DIM * 4) as u64
            + num_vectors * (DIM as u64 + 8)
            + (nlist as u64 + 4) * paging::PAGE_SIZE * 2;
        let mut arena = PagedArena::new(capacity);
        let centroid_base = arena.alloc((nlist * DIM * 4) as u64, paging::PAGE_SIZE);
        for (i, c) in centroids.iter().enumerate() {
            for (j, &x) in c.iter().enumerate() {
                let off = centroid_base + (i * DIM + j) as u64 * 4;
                arena.poke_bytes(off, &x.to_le_bytes());
            }
        }
        let mut lists = Vec::with_capacity(nlist);
        for members in &membership {
            let len = members.len() as u64;
            let ids_base = arena.alloc((len * 8).max(8), 8);
            let vecs_base = arena.alloc((len * DIM as u64).max(8), paging::PAGE_SIZE);
            for (slot, &id) in members.iter().enumerate() {
                arena.poke_u64(ids_base + slot as u64 * 8, id);
                arena.poke_bytes(vecs_base + (slot * DIM) as u64, &vectors[id as usize]);
            }
            lists.push((ids_base, vecs_base, len));
        }
        IvfFlat {
            arena,
            nlist,
            centroid_base,
            lists,
            num_vectors,
        }
    }

    fn nearest_centroid(centroids: &[Vec<f32>], v: &[u8]) -> usize {
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (i, c) in centroids.iter().enumerate() {
            let d = l2_f32_u8(c, v);
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best
    }

    /// Number of indexed vectors.
    pub fn num_vectors(&self) -> u64 {
        self.num_vectors
    }

    /// Number of inverted lists.
    pub fn nlist(&self) -> usize {
        self.nlist
    }

    /// Total pages of the working set.
    pub fn total_pages(&self) -> u64 {
        self.arena.total_pages()
    }

    /// Reads back an indexed vector by scanning its lists (untraced;
    /// a borrowed view of the arena).
    pub fn vector(&self, id: u64) -> Option<&[u8]> {
        for &(ids_base, vecs_base, len) in &self.lists {
            for slot in 0..len {
                if self.arena.peek_u64(ids_base + slot * 8) == id {
                    return Some(
                        self.arena
                            .peek_bytes(vecs_base + slot * DIM as u64, DIM as u64),
                    );
                }
            }
        }
        None
    }

    /// kNN search: returns the `k` nearest `(id, distance)` pairs,
    /// probing the `nprobe` closest lists and recording every page
    /// touch. The allocating convenience over
    /// [`IvfFlat::search_with`].
    pub fn search(
        &self,
        query: &[u8],
        k: usize,
        nprobe: usize,
        rec: &mut TraceRecorder,
    ) -> Vec<(u64, u64)> {
        let mut scratch = SearchScratch::default();
        self.search_with(query, k, nprobe, &mut scratch, rec);
        scratch.hits
    }

    /// [`IvfFlat::search`] over caller-owned scratch: the hits are a
    /// view into `scratch`, and list ids and vectors are read in place
    /// in the arena.
    pub fn search_with<'s>(
        &self,
        query: &[u8],
        k: usize,
        nprobe: usize,
        scratch: &'s mut SearchScratch,
        rec: &mut TraceRecorder,
    ) -> &'s [(u64, u64)] {
        assert_eq!(query.len(), DIM, "query dimensionality");
        let SearchScratch { ranked, heap, hits } = scratch;
        // Coarse quantizer: stream the centroid table and rank.
        let raw = self
            .arena
            .read_bytes(self.centroid_base, (self.nlist * DIM * 4) as u64, rec);
        rec.compute_ns(COARSE_NS_PER_CENTROID * self.nlist as f64);
        ranked.clear();
        ranked.extend((0..self.nlist).map(|i| {
            let mut d = 0.0f64;
            for (j, &q) in query.iter().enumerate() {
                let off = (i * DIM + j) * 4;
                let c = f32::from_le_bytes(raw[off..off + 4].try_into().unwrap());
                let diff = c as f64 - q as f64;
                d += diff * diff;
            }
            (d, i)
        }));
        // Ties keep list order, as a stable sort on distance would —
        // without the stable sort's merge buffer.
        ranked.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

        // Scan the nprobe nearest lists.
        heap.clear();
        heap.reserve(k);
        for &(_, list) in ranked.iter().take(nprobe.min(self.nlist)) {
            let (ids_base, vecs_base, len) = self.lists[list];
            if len == 0 {
                continue;
            }
            let ids = self.arena.read_bytes(ids_base, len * 8, rec);
            let vecs = self.arena.read_bytes(vecs_base, len * DIM as u64, rec);
            rec.compute_ns(SCAN_NS_PER_VEC * len as f64);
            for slot in 0..len as usize {
                let v = &vecs[slot * DIM..(slot + 1) * DIM];
                let d = l2_u8(query, v);
                let id = u64::from_le_bytes(ids[slot * 8..slot * 8 + 8].try_into().unwrap());
                if heap.len() < k {
                    heap.push((d, id));
                } else if let Some(&(worst, _)) = heap.peek() {
                    if d < worst {
                        heap.pop();
                        heap.push((d, id));
                    }
                }
            }
        }
        hits.clear();
        hits.extend(heap.drain().map(|(d, id)| (id, d)));
        hits.sort_by_key(|&(_, d)| d);
        hits
    }

    /// Exact brute-force kNN over all lists (untraced; test oracle).
    pub fn brute_force(&self, query: &[u8], k: usize) -> Vec<(u64, u64)> {
        let mut all: Vec<(u64, u64)> = Vec::new();
        for &(ids_base, vecs_base, len) in &self.lists {
            for slot in 0..len {
                let id = self.arena.peek_u64(ids_base + slot * 8);
                let v = self
                    .arena
                    .peek_bytes(vecs_base + slot * DIM as u64, DIM as u64);
                all.push((id, l2_u8(query, v)));
            }
        }
        all.sort_by_key(|&(_, d)| d);
        all.truncate(k);
        all
    }
}

/// The paper's Faiss workload: kNN queries over a BIGANN-style index.
pub struct FaissWorkload {
    index: IvfFlat,
    nprobe: usize,
    k: usize,
    /// Scratch for the query vector, redrawn per request.
    query: [u8; DIM],
    scratch: SearchScratch,
}

/// A BIGANN-style query: `base` with N(0, 2) noise on every dimension
/// (query vectors are drawn from the same distribution as the base
/// set).
fn perturb(base: &[u8], rng: &mut Rng, query: &mut [u8; DIM]) {
    for (q, &b) in query.iter_mut().zip(base) {
        *q = (b as f64 + rng.normal(0.0, 2.0)).clamp(0.0, 255.0) as u8;
    }
}

impl FaissWorkload {
    /// Builds the index and workload (`nprobe` controls the paper's
    /// accuracy/latency trade-off).
    pub fn new(num_vectors: u64, nlist: usize, nprobe: usize, seed: u64) -> FaissWorkload {
        FaissWorkload {
            index: IvfFlat::build(num_vectors, nlist, seed),
            nprobe,
            k: 10,
            query: [0; DIM],
            scratch: SearchScratch::default(),
        }
    }

    /// Access to the index.
    pub fn index(&self) -> &IvfFlat {
        &self.index
    }

    /// Overrides the probe count (accuracy/latency trade-off).
    pub fn with_nprobe(mut self, nprobe: usize) -> FaissWorkload {
        self.nprobe = nprobe;
        self
    }

    /// Measures recall@k against exact brute force over `queries`
    /// perturbed dataset vectors (real computation, no simulation).
    pub fn measure_recall(&self, queries: usize, rng: &mut Rng) -> f64 {
        let mut hits = 0usize;
        let mut query = [0u8; DIM];
        for _ in 0..queries {
            let id = rng.gen_range(self.index.num_vectors());
            let base = self.index.vector(id).expect("indexed vector");
            perturb(base, rng, &mut query);
            let mut rec = TraceRecorder::default();
            let approx = self.index.search(&query, self.k, self.nprobe, &mut rec);
            let exact = self.index.brute_force(&query, self.k);
            let ids: std::collections::HashSet<u64> = approx.iter().map(|&(i, _)| i).collect();
            hits += exact.iter().filter(|&&(i, _)| ids.contains(&i)).count();
        }
        hits as f64 / (queries * self.k) as f64
    }
}

impl Workload for FaissWorkload {
    fn classes(&self) -> &'static [&'static str] {
        &["SEARCH"]
    }

    fn total_pages(&self) -> u64 {
        self.index.total_pages()
    }

    fn next_request_into(&mut self, rng: &mut Rng, buf: &mut Trace) {
        // Query: a perturbed dataset vector.
        let id = rng.gen_range(self.index.num_vectors());
        let base = self.index.vector(id).expect("indexed vector");
        perturb(base, rng, &mut self.query);
        let mut rec = TraceRecorder::reusing(buf);
        rec.compute_ns(300.0); // request parse + query decode
        let hits = self
            .index
            .search_with(
                &self.query,
                self.k,
                self.nprobe,
                &mut self.scratch,
                &mut rec,
            )
            .len();
        debug_assert!(hits > 0);
        rec.compute_ns(200.0); // reply with ids + distances
        rec.finish_into(buf, 0, 64 + DIM as u32, 16 + 16 * hits as u32);
    }
}

#[cfg(test)]
mod tests {
    use paging::trace::CostModel;

    use super::*;

    fn small_index() -> IvfFlat {
        IvfFlat::build(2_000, 16, 7)
    }

    #[test]
    fn lists_partition_the_dataset() {
        let idx = small_index();
        let total: u64 = idx.lists.iter().map(|&(_, _, len)| len).sum();
        assert_eq!(total, 2_000);
    }

    #[test]
    fn exact_vector_is_its_own_nearest_neighbour() {
        let idx = small_index();
        let mut found = 0;
        for id in [0u64, 17, 500, 1999] {
            let v = idx.vector(id).unwrap();
            let mut rec = TraceRecorder::new(CostModel::default());
            let hits = idx.search(v, 1, 4, &mut rec);
            if hits
                .first()
                .map(|&(i, d)| d == 0 && i == id)
                .unwrap_or(false)
            {
                found += 1;
            }
        }
        assert!(found >= 3, "recall@1 for exact queries: {found}/4");
    }

    #[test]
    fn search_matches_brute_force_with_full_probe() {
        let idx = small_index();
        let mut rng = Rng::new(3);
        for _ in 0..5 {
            let id = rng.gen_range(2_000);
            let q = idx.vector(id).unwrap();
            let mut rec = TraceRecorder::new(CostModel::default());
            let approx = idx.search(q, 5, 16, &mut rec); // probe everything
            let exact = idx.brute_force(q, 5);
            let approx_ids: std::collections::HashSet<u64> =
                approx.iter().map(|&(i, _)| i).collect();
            let hits = exact
                .iter()
                .filter(|&&(i, _)| approx_ids.contains(&i))
                .count();
            assert_eq!(hits, 5, "full probe must equal brute force");
        }
    }

    #[test]
    fn recall_reasonable_with_partial_probe() {
        let idx = IvfFlat::build(5_000, 32, 11);
        let mut rng = Rng::new(4);
        let mut recall_hits = 0;
        let trials = 20;
        for _ in 0..trials {
            let id = rng.gen_range(5_000);
            let q = idx.vector(id).unwrap();
            let mut rec = TraceRecorder::new(CostModel::default());
            let approx = idx.search(q, 10, 8, &mut rec);
            let exact = idx.brute_force(q, 10);
            let approx_ids: std::collections::HashSet<u64> =
                approx.iter().map(|&(i, _)| i).collect();
            recall_hits += exact
                .iter()
                .filter(|&&(i, _)| approx_ids.contains(&i))
                .count();
        }
        let recall = recall_hits as f64 / (trials * 10) as f64;
        assert!(recall >= 0.7, "recall@10 = {recall}");
    }

    #[test]
    fn search_trace_is_scan_heavy_and_sequential() {
        let idx = IvfFlat::build(20_000, 16, 5);
        let q = idx.vector(42).unwrap();
        let mut rec = TraceRecorder::new(CostModel::default());
        idx.search(q, 10, 4, &mut rec);
        let t = rec.finish(0, 0, 0);
        // 4 lists × ~1250 vectors × 128 B ≈ 160 pages.
        assert!(t.accesses() > 60, "accesses = {}", t.accesses());
        assert!(
            t.compute_ns() > 50_000,
            "distance compute should dominate: {} ns",
            t.compute_ns()
        );
        // Within a list, the vector sweep is page-sequential.
        let pages: Vec<u64> = t
            .steps
            .iter()
            .filter_map(|s| s.access.map(|a| a.page))
            .collect();
        let seq_pairs = pages.windows(2).filter(|w| w[1] == w[0] + 1).count();
        assert!(
            seq_pairs as f64 / pages.len() as f64 > 0.8,
            "sequential fraction too low"
        );
    }

    #[test]
    fn workload_traces_are_valid() {
        let mut w = FaissWorkload::new(3_000, 16, 4, 9);
        let mut rng = Rng::new(10);
        for _ in 0..5 {
            let t = w.next_request(&mut rng);
            assert_eq!(t.class, 0);
            assert!(t.accesses() > 10);
            assert!(t.reply_bytes > 16);
        }
    }

    #[test]
    #[should_panic(expected = "query dimensionality")]
    fn wrong_dimension_panics() {
        let idx = small_index();
        let mut rec = TraceRecorder::new(CostModel::default());
        idx.search(&[0u8; 64], 1, 1, &mut rec);
    }
}
