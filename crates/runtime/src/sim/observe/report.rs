//! The measurement window's edges and the end of the run: freezing
//! every plane into its report block, checking the run's exact
//! identities, and assembling the [`RunResult`].

use desim::profile::CoreState;
use desim::{EpisodeNote, Histogram, MetricsSnapshot, SimTime, SloRule, Tracer};
use fabric::link::{Link, LinkSnapshot};
use faults::{EpisodeKind, FaultPlane, FaultStats};
use paging::cache::CacheStats;

use super::{ChainIds, Observer};
use crate::config::SystemConfig;
use crate::sim::{Conservation, RunParams, RunResult, ShardWindow, TenantWindow};

/// Aggregate statistics of one run, scoped to the measurement window.
///
/// This is a compatibility view derived from the run's metrics registry
/// (see [`RunResult::metrics`] for the full registry snapshot, including
/// gauges and counters this struct does not carry).
#[derive(Debug, Clone, Copy, Default)]
pub struct SimStats {
    /// Worker time burned busy-waiting (spinning), ns.
    pub spin_ns: u64,
    /// Preemptions performed (DiLOS-P).
    pub preemptions: u64,
    /// Faults that found the QP full and had to pause.
    pub qp_stalls: u64,
    /// Faults coalesced onto an in-flight fetch.
    pub coalesced: u64,
    /// Synchronous direct reclaims on the fault path.
    pub direct_reclaims: u64,
    /// Dirty pages written back.
    pub writebacks: u64,
    /// Speculative/sequential prefetch fetches issued.
    pub prefetches: u64,
    /// Requests taken from a peer's queue (`PerWorkerStealing`).
    pub steals: u64,
}

impl SimStats {
    /// Rebuilds the compatibility view from a registry snapshot.
    fn from_snapshot(snap: &MetricsSnapshot) -> SimStats {
        let c = |name| snap.counter(name).unwrap_or(0);
        SimStats {
            spin_ns: c("spin_ns"),
            preemptions: c("preemptions"),
            qp_stalls: c("qp_stalls"),
            coalesced: c("coalesced"),
            direct_reclaims: c("direct_reclaims"),
            writebacks: c("writebacks"),
            prefetches: c("prefetches"),
            steals: c("steals"),
        }
    }
}

/// The model counters that accumulate from t = 0 and re-base at a
/// measurement-window edge: per-shard (data, ctrl) link counters,
/// page-cache counters and fault-plane counters.
pub struct WindowEdge {
    pub links: Vec<(LinkSnapshot, LinkSnapshot)>,
    pub cache: CacheStats,
    pub faults: FaultStats,
}

impl Observer {
    /// The warm-up → measure boundary: every counter, gauge and cache
    /// statistic re-bases here so rates cover only the measurement
    /// window.
    pub fn window_opened(&mut self, now: SimTime, edge: WindowEdge) {
        self.opened = Some(edge);
        if let Some(b) = &mut self.telem {
            // Bank the counts accrued since the last tick: the
            // imminent reset would otherwise drop them from every rate
            // series.
            b.rec.bank(&self.metrics);
        }
        self.metrics.reset(now);
        if let Some(b) = &mut self.telem {
            // The reset zeroed every counter; re-sync the recorder's
            // baselines so the next tick's deltas stay meaningful.
            b.rec.rebase(&self.metrics);
        }
    }

    /// The window closed at `now`: the link-message and fault-plane
    /// counters' window deltas are folded into the registry and the
    /// snapshot freezes.
    pub fn window_closed(&mut self, now: SimTime, edge: WindowEdge) {
        let mut since = FaultStats::default();
        if let Some(opened) = &self.opened {
            let (mut data, mut ctrl) = (0, 0);
            for ((d0, c0), (d1, c1)) in opened.links.iter().zip(&edge.links) {
                data += d1.messages - d0.messages;
                ctrl += c1.messages - c0.messages;
            }
            self.metrics.add(self.ids.rdma_data_msgs, data);
            self.metrics.add(self.ids.rdma_ctrl_msgs, ctrl);
            since = opened.faults;
        }
        let faults = &edge.faults;
        self.metrics
            .add(self.ids.injected_losses, faults.losses - since.losses);
        self.metrics.add(
            self.ids.injected_cqe_errors,
            faults.cqe_errors - since.cqe_errors,
        );
        self.closed = Some((edge, self.metrics.snapshot(now)));
    }

    /// Freezes every plane into its report block, checks the run's
    /// exact identities — in release builds too; they are O(1) per run
    /// — and assembles the result. `end` is the last event's instant.
    pub fn finish(
        self,
        end: SimTime,
        params: &RunParams,
        cfg: &SystemConfig,
        conservation: Conservation,
        plane: &FaultPlane,
    ) -> RunResult {
        let window = params.measure;
        let (closed, metrics) = self.closed.expect("window closed before finish");
        let stats = SimStats::from_snapshot(&metrics);
        // Utilisation is the mean across shard rails (equal to the
        // single rail's utilisation on unsharded runs); the per-shard
        // view keeps each rail's own numbers.
        let mut fetch_ns = self.shard_fetch_ns.into_iter();
        let (mut data_util, mut ctrl_util, mut shards) = (0.0, 0.0, Vec::new());
        if let Some(opened) = &self.opened {
            for (s, ((d0, c0), (d1, c1))) in opened.links.iter().zip(&closed.links).enumerate() {
                shards.push(ShardWindow {
                    shard: s,
                    data_bytes: d1.bytes - d0.bytes,
                    data_util: Link::utilization(d0, d1, window),
                    fetch_ns: fetch_ns.next().expect("one histogram per shard"),
                });
                data_util += shards[s].data_util;
                ctrl_util += Link::utilization(c0, c1, window);
            }
            data_util /= shards.len() as f64;
            ctrl_util /= shards.len() as f64;
        }
        // Worker virtual clocks run slightly ahead of the event clock,
        // so records arrive almost — not exactly — in time order;
        // present the timeline sorted (stable, so equal timestamps keep
        // emission order and stay deterministic). The ring's buffer
        // becomes the log as it is: compact records, named at export.
        let (trace, trace_dropped) = match self.ring {
            Some(ring) => {
                let dropped = ring.dropped();
                let mut log = ring.into_log();
                log.sort_by_time();
                (Some(log), dropped)
            }
            None => (None, 0),
        };
        // Close every core's tail gap at the window end and freeze the
        // tilings; queue reports keep a fixed order (ingress,
        // per-dispatcher ingress slots when scaled, per-worker runnable,
        // per-shard SQ, per-shard write-back) so serialisation is
        // deterministic.
        let profile = self.prof.map(|p| {
            let queues = std::iter::once(&p.ingress)
                .chain(&p.dispatcher_ingress)
                .chain(&p.runnable)
                .chain(&p.sq)
                .chain(&p.writeback)
                .map(|q| q.probe.report())
                .collect();
            p.cores.finish(queues, p.frame_wait_ns)
        });
        // Observatory run-end sweep: remaining prefetch records resolve
        // to wasted (arrived, never consumed) or inflight_at_end.
        let memory = self.mem.map(|mp| mp.obs.finish(end.as_nanos()));

        // The run's exact identities. Request conservation: every
        // arrival the source generated is exactly one of completed /
        // dropped / shed / aborted / still live. Prefetch fates: every
        // issued prefetch resolves to exactly one fate per detector
        // class. Fetch chains: every error CQE either fails over or
        // ends its chain — run-wide and per shard.
        assert!(
            conservation.holds(),
            "request conservation violated: {conservation:?}"
        );
        if let Some(rep) = &memory {
            let classes = &rep.classes;
            assert!(
                rep.holds(),
                "prefetch-fate conservation violated: {classes:?}"
            );
        }
        // (error CQEs, failovers + chain failures), read by handle.
        let split = |chain: &ChainIds| {
            let c = |id| metrics.counter_value(id);
            (
                c(chain.cqe_errors),
                c(chain.failovers) + c(chain.chain_failures),
            )
        };
        let (errors, resolved) = split(&self.ids.chain);
        assert_eq!(errors, resolved, "fetch-chain bookkeeping violated");
        for (s, ids) in self.shard_ids.iter().enumerate() {
            let (errors, resolved) = split(&ids.chain);
            assert_eq!(
                errors, resolved,
                "shard {s}: fetch-chain bookkeeping violated"
            );
        }
        // Cross-check (debug builds): on fault-free runs the legacy
        // spin counter and the tiling-derived spin time must agree.
        // They cannot agree exactly — the counter bins whole spin
        // intervals at the instant they are issued (a spin straddling
        // the warm-up boundary is booked whole or zeroed by the reset)
        // while the profiler clamps every accrual to the window — so
        // the bound is 2 % of total worker time plus 5 % of the counter
        // itself.
        if let (true, Some(p), false) = (cfg!(debug_assertions), &profile, plane.active()) {
            let workers = || p.cores.iter().filter(|c| c.is_worker);
            let derived = workers()
                .map(|c| {
                    c.ns(CoreState::Spin) + c.ns(CoreState::TxWait) + c.ns(CoreState::FetchWait)
                })
                .sum::<u64>()
                .saturating_sub(p.frame_wait_ns);
            let total: u64 = workers().map(|c| c.total_ns()).sum();
            let diff = stats.spin_ns.abs_diff(derived);
            assert!(
                diff as f64 <= 0.02 * total as f64 + 0.05 * stats.spin_ns as f64,
                "legacy spin_ns {} vs profiler-derived {} diverge beyond tolerance",
                stats.spin_ns,
                derived
            );
        }

        let tenants = self
            .tenant_specs
            .iter()
            .zip(self.tenant_acct)
            .enumerate()
            .map(|(t, (spec, acct))| {
                let [arrivals, admitted, completed, sheds, drops] = acct.counts;
                TenantWindow {
                    tenant: t,
                    name: spec.name.clone(),
                    priority: spec.priority.name(),
                    offered_rps: spec.rate_rps,
                    arrivals,
                    admitted,
                    completed,
                    sheds,
                    drops,
                    slo_ok: slo_verdict(&spec.slo, &acct.latency),
                    latency_ns: acct.latency,
                }
            })
            .collect();
        RunResult {
            recorder: self.recorder,
            rdma_data_util: data_util,
            rdma_ctrl_util: ctrl_util,
            stats,
            metrics,
            trace,
            trace_dropped,
            cache: match &self.opened {
                Some(opened) => closed.cache.since(&opened.cache),
                None => closed.cache,
            },
            offered_rps: params.offered_rps,
            window,
            workers: cfg.workers,
            spans: self.spans.map(|sp| sp.store.finish()),
            shards,
            tenants,
            conservation,
            telemetry: self
                .telem
                .map(|b| b.rec.finish(episode_notes(plane, cfg.replicas()))),
            profile,
            memory,
            #[cfg(test)]
            dispatcher_log: Vec::new(),
        }
    }
}

/// The fault episodes the plane was armed with, as telemetry
/// annotations, so breaches can be read against the injected
/// disturbance: link episodes hit every series, node episodes are
/// pinned to the shard whose replica chain the node belongs to.
fn episode_notes(plane: &FaultPlane, replicas: usize) -> Vec<EpisodeNote> {
    let shard = |node: u32| vec![format!("shard{}", node as usize / replicas)];
    plane
        .scenario()
        .episodes
        .iter()
        .map(|ep| {
            let (kind, affected) = match ep.kind {
                EpisodeKind::LinkDegraded { .. } => ("link_degraded", vec!["*".to_string()]),
                EpisodeKind::NodeStall { node, .. } => ("node_stall", shard(node)),
                EpisodeKind::NodeDown { node } => ("node_down", shard(node)),
            };
            EpisodeNote {
                start: ep.start,
                end: ep.end,
                kind,
                affected,
            }
        })
        .collect()
}

/// Evaluates a tenant's latency SLO rules over its window histogram:
/// a `lat<OBJ:BUDGET@WINDOW` rule allows at most a `BUDGET` fraction of
/// completions over `OBJ` — equivalently, the `(1 − BUDGET)`-quantile
/// must sit at or under the objective. Returns `None` when the spec
/// carries no latency rule or no completion landed in the window.
fn slo_verdict(rules: &[SloRule], latency: &Histogram) -> Option<bool> {
    let mut verdict = None;
    for rule in rules {
        if let SloRule::LatencyBurn {
            objective, budget, ..
        } = rule
        {
            if latency.count() == 0 {
                continue;
            }
            let q = ((1.0 - budget) * 100.0).clamp(0.0, 100.0);
            let ok = latency.percentile(q) <= objective.as_nanos();
            verdict = Some(verdict.unwrap_or(true) && ok);
        }
    }
    verdict
}
