//! Multi-tenant traffic plane: N independent arrival sources merged
//! into one deterministic stream tagged with tenant ids.
//!
//! A [`TenantSpec`] describes one tenant — its offered rate, the app it
//! runs, a priority class and an optional latency SLO (the
//! `lat<OBJ:BUDGET@WINDOW` grammar, parsed with
//! [`desim::parse_slo_spec`]). A [`TenantPlane`] is the full mix plus
//! the admission knobs the runtime enforces (per-tenant token buckets,
//! the low-priority shed watermark). [`TenantMix`] turns a plane into
//! the merged arrival stream.
//!
//! Determinism contract: every tenant draws from its *own* generator,
//! seeded as `base_seed ^ golden_ratio * index ^ seed_bump`, and the
//! merge is a total order on `(time, tenant index)`. Changing one
//! tenant's `seed_bump` therefore reshuffles only that tenant's arrival
//! instants — the other tenants' subsequences are byte-identical (see
//! `per_tenant_streams_are_independent`). With a single tenant and
//! `seed_bump = 0` the stream is *exactly* `OpenLoop::new(rate, seed)`,
//! which is what keeps `tenants = 1` runs on the golden byte stream.

use crate::arrivals::OpenLoop;
use desim::{SimTime, SloRule};

/// Dispatcher priority class of a tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantPriority {
    /// Served first; never shed by the watermark policy.
    High,
    /// Served after every queued high-priority request; shed once the
    /// dispatcher queue crosses the plane's watermark.
    Low,
}

impl TenantPriority {
    /// Lower-case display name (stable — the run JSON uses it).
    pub fn name(self) -> &'static str {
        match self {
            TenantPriority::High => "high",
            TenantPriority::Low => "low",
        }
    }
}

/// One tenant of the mix.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Display name (defaults to `tN` when parsed from a spec string).
    pub name: String,
    /// Mean offered rate in requests per second.
    pub rate_rps: f64,
    /// App the tenant runs — a workload name resolved by the caller
    /// (`array`, `kvs`, `llm`, …); the plane itself is app-agnostic.
    pub app: String,
    /// Dispatcher priority class.
    pub priority: TenantPriority,
    /// SLO rules evaluated over the tenant's own completion window.
    pub slo: Vec<SloRule>,
    /// XORed into the tenant's derived seed — lets tests perturb one
    /// tenant's stream without touching the others.
    pub seed_bump: u64,
    /// Token-bucket admission rate in requests per second; `None`
    /// admits everything (no policing).
    pub bucket_rps: Option<f64>,
    /// Token-bucket burst capacity in requests.
    pub bucket_burst: u32,
}

impl TenantSpec {
    /// A Poisson tenant with no SLO and no admission cap.
    pub fn new(rate_rps: f64, app: impl Into<String>, priority: TenantPriority) -> TenantSpec {
        assert!(rate_rps > 0.0, "tenant rate must be positive");
        TenantSpec {
            name: String::new(),
            rate_rps,
            app: app.into(),
            priority,
            slo: Vec::new(),
            seed_bump: 0,
            bucket_rps: None,
            bucket_burst: 64,
        }
    }

    /// Builder: attach a parsed SLO rule set.
    pub fn with_slo(mut self, slo: Vec<SloRule>) -> TenantSpec {
        self.slo = slo;
        self
    }

    /// Builder: token-bucket admission cap.
    pub fn with_bucket(mut self, rate_rps: f64, burst: u32) -> TenantSpec {
        assert!(rate_rps > 0.0 && burst > 0, "bucket must admit something");
        self.bucket_rps = Some(rate_rps);
        self.bucket_burst = burst;
        self
    }

    /// Builder: perturb this tenant's derived seed.
    pub fn with_seed_bump(mut self, bump: u64) -> TenantSpec {
        self.seed_bump = bump;
        self
    }

    /// Parses one tenant field: `RATE[@BUCKET]:APP:PRIO[:SLO]`, where
    /// `RATE` accepts `k`/`m` suffixes (`800k`, `1.2m`), the optional
    /// `@BUCKET` rate enables token-bucket admission policing at that
    /// rate (burst 64), `APP` is a workload name, `PRIO` is `hi`/`high`
    /// or `lo`/`low`, and the optional trailing `SLO` is a full PR 5
    /// spec (it may itself contain `:`, so the split stops after the
    /// third field).
    pub fn parse(field: &str) -> Result<TenantSpec, String> {
        let mut parts = field.splitn(4, ':');
        let rate = parts
            .next()
            .filter(|s| !s.is_empty())
            .ok_or_else(|| format!("empty tenant field in {field:?}"))?;
        let (rate, bucket) = match rate.split_once('@') {
            Some((r, b)) => (r, Some(parse_rate(b)?)),
            None => (rate, None),
        };
        let rate_rps = parse_rate(rate)?;
        let app = parts
            .next()
            .filter(|s| !s.is_empty())
            .ok_or_else(|| format!("tenant {field:?}: missing app name"))?;
        let prio = parts
            .next()
            .filter(|s| !s.is_empty())
            .ok_or_else(|| format!("tenant {field:?}: missing priority (hi/lo)"))?;
        let priority = match prio {
            "hi" | "high" => TenantPriority::High,
            "lo" | "low" => TenantPriority::Low,
            other => return Err(format!("tenant {field:?}: unknown priority {other:?}")),
        };
        let slo = match parts.next() {
            Some(spec) if !spec.is_empty() => desim::parse_slo_spec(spec)
                .map_err(|e| format!("tenant {field:?}: bad SLO spec: {e}"))?,
            _ => Vec::new(),
        };
        let mut spec = TenantSpec::new(rate_rps, app, priority).with_slo(slo);
        if let Some(b) = bucket {
            spec = spec.with_bucket(b, 64);
        }
        Ok(spec)
    }
}

/// Parses `800k` / `1.2m` / `250000` into requests per second.
fn parse_rate(s: &str) -> Result<f64, String> {
    let (digits, mult) = match s.as_bytes().last() {
        Some(b'k') | Some(b'K') => (&s[..s.len() - 1], 1e3),
        Some(b'm') | Some(b'M') => (&s[..s.len() - 1], 1e6),
        _ => (s, 1.0),
    };
    let v: f64 = digits
        .parse()
        .map_err(|_| format!("bad rate {s:?} (expected e.g. 800k, 1.2m, 250000)"))?;
    if !v.is_finite() || v <= 0.0 {
        return Err(format!("rate {s:?} must be positive and finite"));
    }
    Ok(v * mult)
}

/// The most tenants a plane holds: a request carries its tenant id as
/// a `u16` ([`TenantMix::next_arrival`]).
const TENANT_LIMIT: usize = 1 << 16;

/// The full tenant mix plus the admission knobs the runtime enforces.
#[derive(Debug, Clone)]
pub struct TenantPlane {
    /// The tenants, in id order (tenant ids are indices into this).
    pub specs: Vec<TenantSpec>,
    /// Dispatcher-queue depth beyond which low-priority arrivals are
    /// shed; `None` disables watermark shedding.
    pub shed_watermark: Option<usize>,
}

impl TenantPlane {
    /// A plane over explicit specs; names default to `tN`.
    ///
    /// # Panics
    ///
    /// Panics when `specs` is empty or holds more than 65 536 tenants
    /// (tenant ids are `u16`).
    pub fn new(mut specs: Vec<TenantSpec>) -> TenantPlane {
        assert!(
            !specs.is_empty(),
            "a tenant plane needs at least one tenant"
        );
        assert!(
            specs.len() <= TENANT_LIMIT,
            "at most {TENANT_LIMIT} tenants (tenant ids are u16)"
        );
        for (i, s) in specs.iter_mut().enumerate() {
            if s.name.is_empty() {
                s.name = format!("t{i}");
            }
        }
        TenantPlane {
            specs,
            shed_watermark: None,
        }
    }

    /// Builder: enable watermark shedding of low-priority arrivals.
    pub fn with_shed_watermark(mut self, depth: usize) -> TenantPlane {
        self.shed_watermark = Some(depth);
        self
    }

    /// Parses a `;`-separated list of tenant fields (see
    /// [`TenantSpec::parse`]), e.g.
    /// `600k:kvs:hi:lat<150us:0.1@1ms;1.8m:llm:lo`.
    pub fn parse(spec: &str) -> Result<TenantPlane, String> {
        let specs: Vec<TenantSpec> = spec
            .split(';')
            .filter(|f| !f.is_empty())
            .map(TenantSpec::parse)
            .collect::<Result<_, _>>()?;
        if specs.is_empty() {
            return Err("empty tenant spec".into());
        }
        if specs.len() > TENANT_LIMIT {
            return Err(format!(
                "at most {TENANT_LIMIT} tenants supported (tenant ids are u16)"
            ));
        }
        Ok(TenantPlane::new(specs))
    }

    /// Total offered rate across all tenants.
    pub fn total_rate_rps(&self) -> f64 {
        self.specs.iter().map(|s| s.rate_rps).sum()
    }
}

/// The derived per-tenant seed: tenant 0 with no bump keeps the base
/// seed bit-for-bit (single-tenant golden byte-identity); later tenants
/// decorrelate via a golden-ratio stride.
fn tenant_seed(base: u64, index: usize, bump: u64) -> u64 {
    base ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ bump
}

/// N independent arrival sources merged into one stream tagged with
/// tenant ids, by total order on `(time, tenant index)`.
pub struct TenantMix {
    /// One Poisson source per tenant.
    sources: Vec<OpenLoop>,
    /// The head arrival of each tenant, not yet emitted.
    pending: Vec<SimTime>,
    generated: u64,
}

impl TenantMix {
    /// Builds the merged stream for a plane.
    pub fn new(plane: &TenantPlane, base_seed: u64) -> TenantMix {
        let mut sources: Vec<OpenLoop> = plane
            .specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                OpenLoop::new(spec.rate_rps, tenant_seed(base_seed, i, spec.seed_bump))
            })
            .collect();
        let pending = sources.iter_mut().map(OpenLoop::next_arrival).collect();
        TenantMix {
            sources,
            pending,
            generated: 0,
        }
    }

    /// Next arrival in the merged stream: the earliest pending instant,
    /// ties broken by the lower tenant index.
    pub fn next_arrival(&mut self) -> (SimTime, u16) {
        let mut best = 0usize;
        for i in 1..self.pending.len() {
            if self.pending[i] < self.pending[best] {
                best = i;
            }
        }
        let at = self.pending[best];
        self.pending[best] = self.sources[best].next_arrival();
        self.generated += 1;
        (at, best as u16)
    }

    /// Number of tenants in the mix.
    pub fn tenants(&self) -> usize {
        self.sources.len()
    }

    /// Arrivals emitted so far.
    pub fn generated(&self) -> u64 {
        self.generated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane3() -> TenantPlane {
        TenantPlane::new(vec![
            TenantSpec::new(300_000.0, "kvs", TenantPriority::High),
            TenantSpec::new(500_000.0, "llm", TenantPriority::Low),
            TenantSpec::new(200_000.0, "array", TenantPriority::Low),
        ])
    }

    /// Drains `n` arrivals, returning each tenant's own subsequence.
    fn subsequences(mix: &mut TenantMix, n: usize) -> Vec<Vec<SimTime>> {
        let mut out = vec![Vec::new(); mix.tenants()];
        for _ in 0..n {
            let (at, t) = mix.next_arrival();
            out[t as usize].push(at);
        }
        out
    }

    #[test]
    fn merged_stream_is_time_ordered_and_deterministic() {
        let mut a = TenantMix::new(&plane3(), 7);
        let mut b = TenantMix::new(&plane3(), 7);
        let mut last = SimTime(0);
        for _ in 0..5_000 {
            let (ta, ia) = a.next_arrival();
            let (tb, ib) = b.next_arrival();
            assert_eq!((ta, ia), (tb, ib), "equal seeds must merge identically");
            assert!(ta >= last, "merged stream must be time-ordered");
            last = ta;
        }
        assert_eq!(a.generated(), 5_000);
    }

    #[test]
    fn single_tenant_reproduces_open_loop_exactly() {
        // The byte-identity keystone: one Poisson tenant with no bump
        // *is* OpenLoop under the same seed.
        let plane = TenantPlane::new(vec![TenantSpec::new(
            900_000.0,
            "array",
            TenantPriority::High,
        )]);
        let mut mix = TenantMix::new(&plane, 5);
        let mut solo = OpenLoop::new(900_000.0, 5);
        for _ in 0..10_000 {
            let (at, t) = mix.next_arrival();
            assert_eq!(t, 0);
            assert_eq!(at, solo.next_arrival());
        }
    }

    #[test]
    fn per_tenant_streams_are_independent() {
        // Bumping tenant 2's seed must not move a single arrival of
        // tenants 0 and 1 — only the interleaving changes.
        let mut base = TenantMix::new(&plane3(), 11);
        let mut bumped_plane = plane3();
        bumped_plane.specs[2].seed_bump = 0xDEAD_BEEF;
        let mut bumped = TenantMix::new(&bumped_plane, 11);
        let a = subsequences(&mut base, 6_000);
        let b = subsequences(&mut bumped, 6_000);
        // Compare the common prefix of each unperturbed tenant (the
        // drain cut lands at different per-tenant counts).
        for t in 0..2 {
            let n = a[t].len().min(b[t].len());
            assert!(n > 500, "tenant {t} should have arrivals");
            assert_eq!(a[t][..n], b[t][..n], "tenant {t} stream moved");
        }
        assert_ne!(
            a[2][..a[2].len().min(b[2].len())],
            b[2][..a[2].len().min(b[2].len())],
            "the bumped tenant must actually change"
        );
    }

    #[test]
    fn rates_partition_the_merged_stream() {
        // Each tenant's share of arrivals tracks its share of the rate.
        let mut mix = TenantMix::new(&plane3(), 13);
        let counts = subsequences(&mut mix, 50_000);
        let total: f64 = 1_000_000.0;
        for (t, rate) in [300_000.0, 500_000.0, 200_000.0].iter().enumerate() {
            let share = counts[t].len() as f64 / 50_000.0;
            let want = rate / total;
            assert!(
                (share - want).abs() < 0.02,
                "tenant {t}: share {share:.3} vs rate share {want:.3}"
            );
        }
    }

    #[test]
    fn spec_parsing_round_trips() {
        let plane =
            TenantPlane::parse("600k:kvs:hi:lat<150us:0.1@1ms;1.8m:llm:lo;250000:array:low")
                .unwrap();
        assert_eq!(plane.specs.len(), 3);
        assert_eq!(plane.specs[0].rate_rps, 600_000.0);
        assert_eq!(plane.specs[0].app, "kvs");
        assert_eq!(plane.specs[0].priority, TenantPriority::High);
        assert_eq!(plane.specs[0].slo.len(), 1);
        assert!(matches!(plane.specs[0].slo[0], SloRule::LatencyBurn { .. }));
        assert_eq!(plane.specs[1].rate_rps, 1_800_000.0);
        assert_eq!(plane.specs[1].priority, TenantPriority::Low);
        assert!(plane.specs[1].slo.is_empty());
        assert_eq!(plane.specs[2].rate_rps, 250_000.0);
        assert_eq!(plane.specs[2].name, "t2");
        assert!((plane.total_rate_rps() - 2_650_000.0).abs() < 1.0);
    }

    #[test]
    fn spec_parsing_reads_the_bucket_suffix() {
        // `RATE@BUCKET` polices admission below the offered rate; the
        // `@` inside a trailing SLO window must not confuse the split.
        let plane = TenantPlane::parse("3m@400k:llm:lo;300k:kvs:hi:lat<200us:0.001@10ms").unwrap();
        assert_eq!(plane.specs[0].rate_rps, 3_000_000.0);
        assert_eq!(plane.specs[0].bucket_rps, Some(400_000.0));
        assert_eq!(plane.specs[0].bucket_burst, 64);
        assert_eq!(plane.specs[1].bucket_rps, None);
        assert_eq!(plane.specs[1].slo.len(), 1);
        assert!(TenantPlane::parse("3m@:llm:lo").is_err());
        assert!(TenantPlane::parse("3m@0:llm:lo").is_err());
    }

    #[test]
    fn spec_parsing_rejects_garbage() {
        assert!(TenantPlane::parse("").is_err());
        assert!(TenantPlane::parse("0:kvs:hi").is_err());
        assert!(TenantPlane::parse("800k:kvs").is_err());
        assert!(TenantPlane::parse("800k:kvs:mid").is_err());
        assert!(TenantPlane::parse("800k:kvs:hi:lat<oops").is_err());
        // Tenant ids are u16: one past 65 536 is refused; a mix wider
        // than any fixed name table is fine.
        let too_many = "1k:a:hi;".repeat(TENANT_LIMIT + 1);
        assert!(TenantPlane::parse(&too_many)
            .unwrap_err()
            .contains("at most 65536 tenants"));
        assert_eq!(
            TenantPlane::parse(&"1k:a:hi;".repeat(9))
                .unwrap()
                .specs
                .len(),
            9
        );
    }

    #[test]
    #[should_panic(expected = "at most 65536 tenants")]
    fn oversized_tenant_plane_rejected() {
        let spec = TenantSpec::new(1_000.0, "array", TenantPriority::Low);
        TenantPlane::new(vec![spec; TENANT_LIMIT + 1]);
    }
}
