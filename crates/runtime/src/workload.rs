//! The workload abstraction and the paper's microbenchmark.

use desim::Rng;
use paging::trace::{Access, Step, Trace};

/// A request source: produces one [`Trace`] per request.
///
/// Application crates implement this by executing a real request
/// against their [`paging::PagedArena`]-backed data structures and
/// recording the page touches; the simulator replays the trace.
///
/// The contract every generator keeps: execute for real, record every
/// byte range, materialise nothing the caller did not ask for.
/// Per-request scratch (payloads, read/write sets, ranking buffers) is
/// owned by the workload, and the trace lands in the caller's recycled
/// buffer — so a warmed-up generator allocates nothing per request.
///
/// # Examples
///
/// ```
/// use desim::Rng;
/// use paging::trace::{Access, Step, Trace};
/// use runtime::Workload;
///
/// /// One random page touch per request.
/// struct OnePage;
///
/// impl Workload for OnePage {
///     fn classes(&self) -> &'static [&'static str] {
///         &["touch"]
///     }
///     fn total_pages(&self) -> u64 {
///         1024
///     }
///     fn next_request_into(&mut self, rng: &mut Rng, buf: &mut Trace) {
///         // Replace every field; keep the step storage.
///         (buf.class, buf.request_bytes, buf.reply_bytes) = (0, 32, 64);
///         buf.steps.clear();
///         let page = rng.gen_range(1024);
///         buf.steps.push(Step {
///             compute_ns: 200,
///             access: Some(Access { page, write: false }),
///         });
///     }
/// }
///
/// // `next_request` is provided: a fresh buffer through the same method.
/// let trace = OnePage.next_request(&mut Rng::new(1));
/// assert_eq!(trace.accesses(), 1);
/// ```
pub trait Workload {
    /// Human-readable names of the request classes (index = `class`).
    fn classes(&self) -> &'static [&'static str];

    /// Number of pages in the working set (the remote region size).
    fn total_pages(&self) -> u64;

    /// Produces the next request's trace into `buf`, replacing every
    /// field and reusing its step storage. This is the one method a
    /// generator writes: the simulator recycles retired requests'
    /// traces through it, so steady-state arrivals allocate nothing.
    fn next_request_into(&mut self, rng: &mut Rng, buf: &mut Trace);

    /// Produces the next request's trace in a fresh buffer — the
    /// allocating convenience for tests and examples. Same stream and
    /// same `rng` draws as [`next_request_into`] by construction.
    ///
    /// [`next_request_into`]: Workload::next_request_into
    fn next_request(&mut self, rng: &mut Rng) -> Trace {
        let mut trace = Trace::default();
        self.next_request_into(rng, &mut trace);
        trace
    }

    /// Produces the next request's trace for a specific tenant of a
    /// multi-tenant run. The default ignores the tenant and delegates
    /// to [`next_request_into`] — single-app workloads serve every
    /// tenant the same stream, which keeps `tenants = 1` runs
    /// byte-identical to the pre-tenant path. [`TenantWorkload`]
    /// overrides it to route each tenant to its own app.
    ///
    /// [`next_request_into`]: Workload::next_request_into
    fn next_request_for(&mut self, tenant: usize, rng: &mut Rng, buf: &mut Trace) {
        let _ = tenant;
        self.next_request_into(rng, buf);
    }

    /// Pages that should be resident at steady state, used to warm the
    /// cache; `None` (default) means a uniform random sample.
    fn warm_pages(&self) -> Option<Vec<u64>> {
        None
    }
}

/// The paper's microbenchmark (§2, §5.1): clients send a random index
/// into a large array; the node replies with the value at that index.
///
/// One random page access per request, bimodal service time at a 20 %
/// local-memory ratio: ~0.85 µs when local, ~5.3 µs when remote.
#[derive(Debug, Clone)]
pub struct ArrayIndexWorkload {
    total_pages: u64,
    parse_ns: f64,
    reply_ns: f64,
    request_bytes: u32,
    reply_bytes: u32,
}

impl ArrayIndexWorkload {
    /// Creates the workload over an array of `total_pages` 4 KB pages.
    pub fn new(total_pages: u64) -> ArrayIndexWorkload {
        ArrayIndexWorkload {
            total_pages,
            parse_ns: 250.0,
            reply_ns: 200.0,
            request_bytes: 32,
            reply_bytes: 64,
        }
    }
}

impl Workload for ArrayIndexWorkload {
    fn classes(&self) -> &'static [&'static str] {
        &["lookup"]
    }

    fn total_pages(&self) -> u64 {
        self.total_pages
    }

    fn next_request_into(&mut self, rng: &mut Rng, buf: &mut Trace) {
        let page = rng.gen_range(self.total_pages);
        buf.class = 0;
        buf.request_bytes = self.request_bytes;
        buf.reply_bytes = self.reply_bytes;
        buf.steps.clear();
        buf.steps.push(Step {
            compute_ns: self.parse_ns as u32,
            access: Some(Access { page, write: false }),
        });
        buf.steps.push(Step {
            compute_ns: self.reply_ns as u32,
            access: None,
        });
    }
}

/// A strided-access workload: each request walks `touches` pages with a
/// fixed page `stride` from a random start.
///
/// Plain next-page readahead never fires on it (the deltas are not +1),
/// while Leap's majority-trend prefetcher locks onto the stride after a
/// few faults — the prefetcher-policy ablation's workload.
#[derive(Debug, Clone)]
pub struct StridedWorkload {
    total_pages: u64,
    stride: u64,
    touches: u32,
}

impl StridedWorkload {
    /// Creates the workload over `total_pages`, reading `touches` pages
    /// `stride` apart per request.
    ///
    /// # Panics
    ///
    /// Panics if a walk cannot fit in the working set.
    pub fn new(total_pages: u64, stride: u64, touches: u32) -> StridedWorkload {
        assert!(
            stride * touches as u64 * 2 < total_pages,
            "walk does not fit the working set"
        );
        StridedWorkload {
            total_pages,
            stride,
            touches,
        }
    }
}

impl Workload for StridedWorkload {
    fn classes(&self) -> &'static [&'static str] {
        &["walk"]
    }

    fn total_pages(&self) -> u64 {
        self.total_pages
    }

    fn next_request_into(&mut self, rng: &mut Rng, buf: &mut Trace) {
        let span = self.stride * self.touches as u64;
        let start = rng.gen_range(self.total_pages - span);
        buf.class = 0;
        buf.request_bytes = 32;
        buf.reply_bytes = 64;
        buf.steps.clear();
        buf.steps.extend((0..self.touches).map(|i| Step {
            compute_ns: 220,
            access: Some(Access {
                page: start + i as u64 * self.stride,
                write: false,
            }),
        }));
        buf.steps.push(Step {
            compute_ns: 180,
            access: None,
        });
    }
}

/// N co-located tenant apps with disjoint page namespaces and
/// concatenated class tables — the workload side of the tenant plane
/// and the multi-application setting Canvas (§1) targets.
///
/// `TenantWorkload` is told which tenant each arrival belongs to (the
/// [`loadgen::tenant::TenantMix`] merged stream carries the id) and
/// routes `next_request_for` to that tenant's app, shifting its pages
/// past the preceding tenants' working sets and its classes past their
/// class tables. Per-tenant latency and span class annotations fall out
/// of the class shift for free.
pub struct TenantWorkload {
    apps: Vec<Box<dyn Workload>>,
    /// Page-namespace base of each tenant (prefix sums of totals).
    page_offsets: Vec<u64>,
    /// Class-table base of each tenant.
    class_offsets: Vec<u16>,
    classes: &'static [&'static str],
}

impl TenantWorkload {
    /// Co-locates one app per tenant, in tenant-id order.
    ///
    /// # Panics
    ///
    /// Panics if `apps` is empty.
    pub fn new(apps: Vec<Box<dyn Workload>>) -> TenantWorkload {
        assert!(!apps.is_empty(), "a tenant workload needs at least one app");
        let mut page_offsets = Vec::with_capacity(apps.len());
        let mut class_offsets = Vec::with_capacity(apps.len());
        let mut pages = 0u64;
        let mut classes = 0u16;
        let mut combined: Vec<&'static str> = Vec::new();
        for app in &apps {
            page_offsets.push(pages);
            class_offsets.push(classes);
            pages += app.total_pages();
            classes += app.classes().len() as u16;
            combined.extend(app.classes());
        }
        TenantWorkload {
            // The trait hands out 'static class tables, so the
            // concatenation is leaked once per configuration (a handful
            // of pointers).
            classes: Box::leak(combined.into_boxed_slice()),
            apps,
            page_offsets,
            class_offsets,
        }
    }
}

impl Workload for TenantWorkload {
    fn classes(&self) -> &'static [&'static str] {
        self.classes
    }

    fn total_pages(&self) -> u64 {
        self.apps.iter().map(|a| a.total_pages()).sum()
    }

    fn next_request_into(&mut self, rng: &mut Rng, buf: &mut Trace) {
        // Un-tagged draws come from tenant 0 (the single-tenant path).
        self.next_request_for(0, rng, buf);
    }

    fn next_request_for(&mut self, tenant: usize, rng: &mut Rng, buf: &mut Trace) {
        self.apps[tenant].next_request_into(rng, buf);
        let offset = self.page_offsets[tenant];
        if offset > 0 {
            for step in &mut buf.steps {
                if let Some(a) = &mut step.access {
                    a.page += offset;
                }
            }
        }
        buf.class += self.class_offsets[tenant];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strided_walks_have_constant_stride() {
        let mut w = StridedWorkload::new(100_000, 7, 12);
        let mut rng = Rng::new(4);
        let t = w.next_request(&mut rng);
        let pages: Vec<u64> = t
            .steps
            .iter()
            .filter_map(|s| s.access.map(|a| a.page))
            .collect();
        assert_eq!(pages.len(), 12);
        assert!(pages.windows(2).all(|p| p[1] - p[0] == 7));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_walk_panics() {
        StridedWorkload::new(100, 10, 10);
    }

    #[test]
    fn tenant_workload_routes_by_tenant_id() {
        let mut w = TenantWorkload::new(vec![
            Box::new(ArrayIndexWorkload::new(1_000)),
            Box::new(StridedWorkload::new(50_000, 3, 4)),
            Box::new(ArrayIndexWorkload::new(2_000)),
        ]);
        assert_eq!(w.total_pages(), 53_000);
        assert_eq!(w.classes(), &["lookup", "walk", "lookup"]);
        let mut rng = Rng::new(21);
        let mut buf = Trace::default();
        for _ in 0..300 {
            for (t, range) in [(0, 0..1_000u64), (1, 1_000..51_000), (2, 51_000..53_000)] {
                w.next_request_for(t, &mut rng, &mut buf);
                assert_eq!(buf.class as usize, t, "class shift tags the tenant");
                for page in buf.steps.iter().filter_map(|s| s.access.map(|a| a.page)) {
                    assert!(range.contains(&page), "tenant {t} page {page} escaped");
                }
            }
        }
    }

    #[test]
    fn tenant_workload_untagged_draw_is_tenant_zero() {
        // The single-tenant path (next_request_into with no tenant id)
        // must be indistinguishable from tenant 0's own stream.
        let mut a = TenantWorkload::new(vec![Box::new(ArrayIndexWorkload::new(4_000))]);
        let mut b = ArrayIndexWorkload::new(4_000);
        let mut rng_a = Rng::new(5);
        let mut rng_b = Rng::new(5);
        let mut buf_a = Trace::default();
        let mut buf_b = Trace::default();
        for _ in 0..500 {
            a.next_request_into(&mut rng_a, &mut buf_a);
            b.next_request_into(&mut rng_b, &mut buf_b);
            assert_eq!(buf_a.steps, buf_b.steps);
            assert_eq!(buf_a.class, buf_b.class);
        }
    }

    #[test]
    fn microbench_touches_one_uniform_page() {
        let mut w = ArrayIndexWorkload::new(1000);
        let mut rng = Rng::new(1);
        let mut pages = std::collections::HashSet::new();
        for _ in 0..2000 {
            let t = w.next_request(&mut rng);
            assert_eq!(t.accesses(), 1);
            let page = t.steps[0].access.unwrap().page;
            assert!(page < 1000);
            pages.insert(page);
        }
        // Uniform over 1000 pages: 2000 draws should hit most of them.
        assert!(pages.len() > 750, "only {} distinct pages", pages.len());
    }

    /// A recycled, pre-dirtied buffer must come back holding exactly the
    /// trace a fresh buffer gets, from the same rng draws: generators
    /// replace every field — the simulator's byte-determinism depends
    /// on it. Tenant 0 goes through `next_request`, any other tenant
    /// through `next_request_for` into a fresh buffer.
    #[test]
    fn into_path_matches_allocating_path() {
        fn check(mut fresh: impl Workload, mut pooled: impl Workload, tenant: usize, seed: u64) {
            let mut rng_a = Rng::new(seed);
            let mut rng_b = Rng::new(seed);
            let mut buf = Trace::default();
            // Pre-dirty the buffer so stale state would be caught.
            buf.steps.push(Step {
                compute_ns: 1,
                access: None,
            });
            buf.class = 7;
            for _ in 0..500 {
                let t = if tenant == 0 {
                    fresh.next_request(&mut rng_a)
                } else {
                    let mut t = Trace::default();
                    fresh.next_request_for(tenant, &mut rng_a, &mut t);
                    t
                };
                pooled.next_request_for(tenant, &mut rng_b, &mut buf);
                assert_eq!(t.class, buf.class);
                assert_eq!(t.steps, buf.steps);
                assert_eq!(t.request_bytes, buf.request_bytes);
                assert_eq!(t.reply_bytes, buf.reply_bytes);
            }
        }
        check(
            ArrayIndexWorkload::new(5_000),
            ArrayIndexWorkload::new(5_000),
            0,
            11,
        );
        check(
            StridedWorkload::new(100_000, 7, 12),
            StridedWorkload::new(100_000, 7, 12),
            0,
            12,
        );
        let two_apps = || {
            TenantWorkload::new(vec![
                Box::new(ArrayIndexWorkload::new(1_000)),
                Box::new(StridedWorkload::new(50_000, 3, 4)),
            ])
        };
        check(two_apps(), two_apps(), 1, 13);
    }

    #[test]
    fn compute_matches_local_service_target() {
        // Local hits: parse + reply + per-request setup/reply costs in
        // the runtime should land near the paper's 0.85 µs local
        // service time. The trace itself carries 450 ns.
        let mut w = ArrayIndexWorkload::new(10);
        let t = w.next_request(&mut Rng::new(2));
        assert_eq!(t.compute_ns(), 450);
    }
}
