//! Builds the [`Observer`]: registers every instrument and plane, in
//! serialisation order.

use desim::profile::{CoreProfiler, QueueProbe};
use desim::span::{SpanConfig, SpanStore};
use desim::telemetry::FlightRecorder;
use desim::trace::intern;
use desim::{Histogram, Metrics, RingTracer, SimDuration, SimTime};
use fabric::ShardMap;
use loadgen::{Recorder, TenantSpec};
use paging::observe::MemObservatory;

use super::telemetry::{Tallied, TelemBridge};
use super::{
    ChainIds, DispatcherIds, Ids, MemPlane, Observer, Probed, ProfPlane, ShardIds, SpanPlane,
    TenantAcct, PROFILE, SPANS, TRACE,
};
use crate::config::SystemConfig;
use crate::sim::RunParams;

/// The schema gate: per-entity instruments (shards, tenants,
/// dispatchers) join the registry only when there is more than one
/// entity, so a degenerate plane serialises the exact schema that
/// predates it.
fn multi<T>(n: usize, register: impl FnMut(usize) -> T) -> Vec<T> {
    if n > 1 {
        (0..n).map(register).collect()
    } else {
        Vec::new()
    }
}

/// The registry name `{entity}{i}.{field}` of a per-entity instrument
/// (`shard3.fetches`), built where it is registered.
fn named(entity: &str, i: usize, field: &str) -> &'static str {
    intern(format_args!("{entity}{i}.{field}"))
}

/// Completions a Poisson source of `rps` is not expected to exceed over
/// `measure`: the mean plus six standard deviations (a completion needs
/// an arrival, so saturation only lowers the count).
fn measured_bound(rps: f64, measure: SimDuration) -> usize {
    let mean = rps * measure.as_secs_f64();
    (mean + 6.0 * mean.sqrt()) as usize + 1
}

impl Observer {
    /// Builds the observer for one run, consuming the plane configs out
    /// of `params`. Everything registers here, in the order the run
    /// JSON carries it: run totals, per-shard, per-tenant,
    /// per-dispatcher, the profiler's depth gauges, the observatory's
    /// instruments, the RTO gauges — and only then the flight recorder,
    /// which samples the instrument set as registered. `tenant_specs`
    /// is empty when the tenant plane is off.
    pub fn new(
        cfg: &SystemConfig,
        params: &mut RunParams,
        classes: usize,
        shard_map: ShardMap,
        total_pages: u64,
        tenant_specs: Vec<TenantSpec>,
    ) -> Observer {
        let w_start = SimTime::ZERO + params.warmup;
        let w_end = w_start + params.measure;
        let (shards, ndisp) = (cfg.shards(), cfg.ndispatchers());
        let mut recorder = Recorder::new(w_start, w_end, classes);
        recorder.keep_breakdowns(params.keep_breakdowns);
        let mut metrics = Metrics::new();
        let m = &mut metrics;
        let ids = Ids {
            spin_ns: m.counter("spin_ns"),
            preemptions: m.counter("preemptions"),
            qp_stalls: m.counter("qp_stalls"),
            coalesced: m.counter("coalesced"),
            direct_reclaims: m.counter("direct_reclaims"),
            writebacks: m.counter("writebacks"),
            prefetches: m.counter("prefetches"),
            steals: m.counter("steals"),
            dispatches: m.counter("dispatches"),
            completions: m.counter("completions"),
            drops: m.counter("drops"),
            reclaim_ticks: m.counter("reclaim_ticks"),
            rdma_data_msgs: m.counter("rdma_data_msgs"),
            rdma_ctrl_msgs: m.counter("rdma_ctrl_msgs"),
            qp_full_retries: m.counter("nic.qp_full_retries"),
            chain: ChainIds {
                retransmits: m.counter("fetch_retransmits"),
                cqe_errors: m.counter("fetch_cqe_errors"),
                failovers: m.counter("fetch_failovers"),
                chain_failures: m.counter("fetch_chain_failures"),
            },
            fetch_aborts: m.counter("fetch_aborts"),
            prefetch_errors: m.counter("prefetch_errors"),
            writeback_errors: m.counter("writeback_errors"),
            injected_losses: m.counter("faults.injected_losses"),
            injected_cqe_errors: m.counter("faults.injected_cqe_errors"),
            queue_depth: m.gauge("queue_depth"),
            qp_outstanding: m.gauge("qp_outstanding"),
            fault_episode_active: m.gauge("fault_episode_active"),
        };
        let shard_ids = multi(shards, |s| ShardIds {
            fetches: m.counter(named("shard", s, "fetches")),
            chain: ChainIds {
                retransmits: m.counter(named("shard", s, "fetch_retransmits")),
                cqe_errors: m.counter(named("shard", s, "fetch_cqe_errors")),
                failovers: m.counter(named("shard", s, "fetch_failovers")),
                chain_failures: m.counter(named("shard", s, "fetch_chain_failures")),
            },
            qp_outstanding: m.gauge(named("shard", s, "qp_outstanding")),
        });
        let tenant_ids = multi(tenant_specs.len(), |t| {
            ["arrivals", "admitted", "completions", "sheds", "drops"]
                .map(|field| m.counter(named("tenant", t, field)))
        });
        // Dispatcher utilization joins the registry only when an
        // observer of it (telemetry or the profiler) is on: per core on
        // scaled ingress planes, else the one scalar gauge.
        let observed = params.telemetry.is_some() || params.profile.is_some();
        let dispatcher_ids = multi(ndisp, |d| DispatcherIds {
            admitted: m.counter(named("dispatcher", d, "admitted")),
            steals: m.counter(named("dispatcher", d, "steals")),
            combines: m.counter(named("dispatcher", d, "combines")),
            busy: observed.then(|| m.gauge(named("dispatcher", d, "busy_fraction"))),
        });
        let dispatcher_busy = (ndisp == 1 && observed).then(|| m.gauge("dispatcher.busy_fraction"));

        let prof = params.profile.take().map(|pc| {
            let mut cores = CoreProfiler::new(w_start, w_end, &pc);
            if ndisp == 1 {
                cores.add_core("dispatcher".to_string(), false);
            } else {
                for d in 0..ndisp {
                    cores.add_core(format!("dispatcher{d}"), false);
                }
            }
            for w in 0..cfg.workers {
                cores.add_core(format!("worker{w}"), true);
            }
            // Every queue's depth gauge is named after its probe.
            let mut probed = |name: String| Probed {
                gauge: m.gauge(intern(format_args!("q.{name}.depth"))),
                probe: QueueProbe::new(name, w_start, w_end),
            };
            ProfPlane {
                cores,
                wbase: ndisp,
                parked: vec![0; cfg.workers],
                frame_wait_ns: 0,
                ingress: probed("ingress".to_string()),
                dispatcher_ingress: multi(ndisp, |d| probed(format!("d{d}.ingress"))),
                runnable: (0..cfg.workers)
                    .map(|w| probed(format!("w{w}.runnable")))
                    .collect(),
                sq: (0..shards)
                    .map(|s| probed(format!("shard{s}.sq")))
                    .collect(),
                writeback: (0..shards)
                    .map(|s| probed(format!("shard{s}.writeback")))
                    .collect(),
            }
        });

        // Planes size their per-window / per-tick / per-request series
        // once, from the horizon, instead of regrowing (and re-copying)
        // them as the run proceeds.
        let horizon = params.warmup + params.measure;
        let mem = params.memory.take().map(|mc| MemPlane {
            obs: {
                let mut obs = MemObservatory::new(mc, total_pages, shards);
                obs.reserve((horizon.as_nanos() / mc.heat_window_ns) as usize + 1);
                obs
            },
            last_page: Vec::new(),
            ws_pages: m.gauge("memory.ws_pages"),
            heat_skew: m.gauge("memory.heat_skew"),
            hit_rate: m.gauge("memory.prefetch_hit_rate"),
            obs_dropped: m.counter("memory.obs_dropped"),
            heat_share: multi(shards, |s| m.gauge(named("shard", s, "heat_share"))),
            dropped_synced: 0,
        });

        let telem = params.telemetry.take().map(|tc| {
            // The transport gauges exist to be sampled by the flight
            // recorder, so they are telemetry-gated.
            let mut rto = multi(shards, |s| {
                (
                    m.gauge(named("shard", s, "srtt_us")),
                    m.gauge(named("shard", s, "rttvar_us")),
                    m.gauge(named("shard", s, "rto_us")),
                )
            });
            if rto.is_empty() {
                rto.push((
                    m.gauge("nic.srtt_us"),
                    m.gauge("nic.rttvar_us"),
                    m.gauge("nic.rto_us"),
                ));
            }
            let mut rec = FlightRecorder::new(tc, m);
            for w in 0..cfg.workers {
                rec.register_health(format!("qp{w}"));
            }
            for s in 0..shards {
                rec.register_health(format!("shard{s}"));
            }
            let tick_s = rec.tick_period().as_secs_f64();
            let tenant_per_tick = multi(tenant_specs.len(), |t| {
                rec.register_health(format!("tenant{t}"));
                tenant_specs[t].rate_rps * tick_s
            });
            rec.reserve((horizon.as_nanos() / rec.tick_period().as_nanos()) as usize);
            TelemBridge {
                rec,
                health: Vec::new(),
                qps: vec![Tallied::default(); cfg.workers],
                shards: vec![Tallied::default(); shards],
                tenants: vec![Tallied::default(); tenant_per_tick.len()],
                tenant_per_tick,
                rto,
            }
        });

        let ring = params.trace_capacity.map(RingTracer::new);
        // Breakdowns are derived from span trees, so keeping them
        // implies the span layer (stats-only: the recorder holds the
        // per-request rows itself).
        let spans = params
            .spans
            .or(params.keep_breakdowns.then(SpanConfig::stats_only))
            .map(|sc| {
                let mut store = SpanStore::new(sc);
                store.reserve(measured_bound(params.offered_rps, params.measure));
                SpanPlane {
                    store,
                    live: Vec::new(),
                }
            });
        let bit = |on: bool, bit: u8| if on { bit } else { 0 };
        Observer {
            mask: bit(ring.is_some(), TRACE)
                | bit(spans.is_some(), SPANS)
                | bit(prof.is_some(), PROFILE),
            w_start,
            w_end,
            recorder,
            opened: None,
            closed: None,
            ids,
            shard_ids,
            dispatcher_ids,
            dispatcher_busy,
            tenant_ids,
            tenant_acct: vec![TenantAcct::default(); tenant_specs.len()],
            tenant_specs,
            shard_fetch_ns: vec![Histogram::new(); shards],
            shard_map,
            ring,
            spans,
            prof,
            mem,
            telem,
            metrics,
        }
    }
}
