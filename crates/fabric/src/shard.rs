//! Deterministic sharding of the remote page space across memnodes.
//!
//! A [`ShardMap`] partitions the page-id space into `shards` disjoint
//! shards. Each shard owns a *replica chain* of memnodes: the chain of
//! shard `s` occupies the global node ids `s * replicas .. (s + 1) *
//! replicas`, with replica 0 the primary every fetch targets first.
//! With one shard the map degenerates to the pre-sharding layout (node
//! ids `0 .. replicas`), so single-shard runs are bit-identical to the
//! unsharded simulation.
//!
//! Two placement policies are supported:
//!
//! - [`ShardPolicy::Hash`] — a splitmix64-style mix of the page id
//!   modulo the shard count. Spreads any access pattern near-uniformly;
//!   the default.
//! - [`ShardPolicy::Range`] — contiguous, gap-free ranges of the page
//!   space (`page * shards / total_pages`). Keeps sequential streams on
//!   one shard, which preserves readahead locality at the cost of skew
//!   under hot ranges.

/// How pages are assigned to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPolicy {
    /// Hash of the page id modulo the shard count.
    Hash,
    /// Contiguous range partition of the page space.
    Range,
}

/// A deterministic page → shard → memnode map.
#[derive(Debug, Clone)]
pub struct ShardMap {
    shards: usize,
    replicas: usize,
    total_pages: u64,
    policy: ShardPolicy,
    /// How [`ShardMap::shard_of`] evaluates the policy, resolved once.
    eval: Eval,
}

/// The map's shape is constant for the run, so the two shapes whose
/// placement needs no division are recognised at construction.
#[derive(Debug, Clone, Copy)]
enum Eval {
    /// One shard: every page is on shard 0 under either policy.
    Single,
    /// `Hash` over a power-of-two shard count: `% shards` is this mask.
    HashMask(u64),
    /// The policy's defining expression.
    General,
}

/// The finalizer of splitmix64: a full-avalanche 64-bit mix.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl ShardMap {
    /// Builds a map of `total_pages` pages over `shards` shards, each
    /// backed by a chain of `replicas` memnodes.
    ///
    /// # Panics
    ///
    /// Panics if `shards`, `replicas` or `total_pages` is zero.
    pub fn new(shards: usize, replicas: usize, total_pages: u64, policy: ShardPolicy) -> ShardMap {
        assert!(shards >= 1, "at least one memnode shard required");
        assert!(replicas >= 1, "at least one replica per shard required");
        assert!(total_pages >= 1, "empty page space");
        let eval = if shards == 1 {
            Eval::Single
        } else if policy == ShardPolicy::Hash && shards.is_power_of_two() {
            Eval::HashMask(shards as u64 - 1)
        } else {
            Eval::General
        };
        ShardMap {
            shards,
            replicas,
            total_pages,
            policy,
            eval,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Replicas per shard.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// Placement policy.
    pub fn policy(&self) -> ShardPolicy {
        self.policy
    }

    /// The shard owning `page`. Total over the page space and pure in
    /// `(page, policy, shards, total_pages)`.
    #[inline]
    pub fn shard_of(&self, page: u64) -> usize {
        debug_assert!(page < self.total_pages, "page outside the page space");
        match self.eval {
            Eval::Single => 0,
            Eval::HashMask(mask) => (mix64(page) & mask) as usize,
            Eval::General => self.shard_of_general(page),
        }
    }

    /// The policies' defining expressions (and the tests' oracle for
    /// the shapes [`Eval`] short-cuts).
    #[inline]
    fn shard_of_general(&self, page: u64) -> usize {
        match self.policy {
            ShardPolicy::Hash => (mix64(page) % self.shards as u64) as usize,
            // u128 keeps `page * shards` exact for any page count.
            ShardPolicy::Range => {
                ((page as u128 * self.shards as u128) / self.total_pages as u128) as usize
            }
        }
    }

    /// Global memnode id of `replica` in `shard`'s chain.
    #[inline]
    pub fn node_id(&self, shard: usize, replica: usize) -> u32 {
        debug_assert!(shard < self.shards && replica < self.replicas);
        (shard * self.replicas + replica) as u32
    }

    /// Global memnode id of `shard`'s primary.
    pub fn primary(&self, shard: usize) -> u32 {
        self.node_id(shard, 0)
    }

    /// Re-maps `page` onto the first live node of its shard's chain,
    /// probing the chain in failover order (primary first). `alive`
    /// judges a global node id; returns `None` when the whole chain is
    /// down. This is the declarative spec of the runtime's reactive
    /// failover chain: the chain re-issues in exactly this order, so a
    /// fetch never lands on a node this function would skip.
    pub fn route(&self, page: u64, alive: impl Fn(u32) -> bool) -> Option<u32> {
        let shard = self.shard_of(page);
        (0..self.replicas)
            .map(|r| self.node_id(shard, r))
            .find(|&n| alive(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGES: u64 = 65_536;

    #[test]
    fn map_is_total_and_deterministic() {
        for policy in [ShardPolicy::Hash, ShardPolicy::Range] {
            let m = ShardMap::new(4, 2, PAGES, policy);
            let n = ShardMap::new(4, 2, PAGES, policy);
            for page in 0..PAGES {
                let s = m.shard_of(page);
                assert!(s < 4, "{policy:?}: shard {s} out of range for page {page}");
                assert_eq!(s, n.shard_of(page), "{policy:?}: map must be pure");
                assert_eq!(s, m.shard_of(page), "{policy:?}: map must be stable");
            }
        }
    }

    #[test]
    fn hash_policy_is_balanced_within_tolerance() {
        let m = ShardMap::new(4, 1, PAGES, ShardPolicy::Hash);
        let mut counts = [0u64; 4];
        for page in 0..PAGES {
            counts[m.shard_of(page)] += 1;
        }
        let ideal = PAGES as f64 / 4.0;
        for (s, &c) in counts.iter().enumerate() {
            let skew = (c as f64 - ideal).abs() / ideal;
            assert!(
                skew < 0.05,
                "shard {s} holds {c} pages, {skew:.3} away from the ideal {ideal}"
            );
        }
    }

    #[test]
    fn range_policy_is_contiguous_and_gap_free() {
        // Deliberately not a divisor of the page count: the partition
        // must still cover everything without gaps.
        for shards in [1usize, 3, 4, 7] {
            let m = ShardMap::new(shards, 1, PAGES, ShardPolicy::Range);
            let mut prev = 0usize;
            let mut seen = vec![false; shards];
            seen[0] = true;
            assert_eq!(m.shard_of(0), 0, "range partition starts at shard 0");
            for page in 1..PAGES {
                let s = m.shard_of(page);
                assert!(
                    s == prev || s == prev + 1,
                    "{shards} shards: shard ids must be monotone and gap-free, \
                     got {prev} -> {s} at page {page}"
                );
                seen[s] = true;
                prev = s;
            }
            assert_eq!(prev, shards - 1, "partition must end at the last shard");
            assert!(seen.iter().all(|&s| s), "every shard must own pages");
        }
    }

    #[test]
    fn node_ids_pack_chains_densely() {
        let m = ShardMap::new(3, 2, PAGES, ShardPolicy::Hash);
        let ids: Vec<u32> = (0..3)
            .flat_map(|s| (0..2).map(move |r| (s, r)))
            .map(|(s, r)| m.node_id(s, r))
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(m.primary(0), 0, "shard 0's primary keeps node id 0");
        assert_eq!(m.primary(2), 4);
    }

    #[test]
    fn single_shard_matches_unsharded_layout() {
        let m = ShardMap::new(1, 2, PAGES, ShardPolicy::Hash);
        for page in (0..PAGES).step_by(997) {
            assert_eq!(m.shard_of(page), 0);
        }
        assert_eq!(m.primary(0), 0);
        assert_eq!(m.node_id(0, 1), 1);
    }

    #[test]
    fn post_crash_remap_avoids_down_nodes_and_covers_every_page() {
        let m = ShardMap::new(4, 2, PAGES, ShardPolicy::Hash);
        // Crash shard 1's primary (global node id 2): its pages must
        // re-map onto the replica, every other shard keeps its primary,
        // and no page routes to the dead node.
        let down = m.primary(1);
        for page in 0..PAGES {
            let node = m
                .route(page, |n| n != down)
                .expect("chain has a live replica");
            assert_ne!(node, down, "page {page} routed to the down node");
            let shard = m.shard_of(page);
            if shard == 1 {
                assert_eq!(node, m.node_id(1, 1), "crashed shard re-maps to replica");
            } else {
                assert_eq!(node, m.primary(shard), "other shards stay undisturbed");
            }
        }
        // A fully-dead chain is reported, not silently mis-routed.
        let dead = ShardMap::new(2, 1, PAGES, ShardPolicy::Hash);
        assert_eq!(dead.route(0, |_| false), None);
    }

    /// The division-free shapes place every page exactly where the
    /// policy's defining expression does — and are actually taken.
    #[test]
    fn fast_paths_match_the_defining_expression() {
        const N: u64 = 100_000;
        for shards in 1usize..=9 {
            for policy in [ShardPolicy::Hash, ShardPolicy::Range] {
                let m = ShardMap::new(shards, 1, N, policy);
                let fast = !matches!(m.eval, Eval::General);
                let expect =
                    shards == 1 || (policy == ShardPolicy::Hash && [2, 4, 8].contains(&shards));
                assert_eq!(fast, expect, "{shards} shards, {policy:?}: {:?}", m.eval);
                for page in 0..N {
                    assert_eq!(
                        m.shard_of(page),
                        m.shard_of_general(page),
                        "{shards} shards, {policy:?}, page {page}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one memnode shard")]
    fn zero_shards_rejected() {
        let _ = ShardMap::new(0, 1, PAGES, ShardPolicy::Hash);
    }
}
