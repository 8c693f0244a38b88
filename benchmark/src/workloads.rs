//! The benchmark's workloads: what each simulates and why it exists.
//!
//! Every workload is an open loop: Poisson arrivals at a fixed offered
//! rate from the model's own `loadgen` source, statistics opening after
//! a 50 ms simulated warm-up on a cache `Simulation::new` pre-warms.
//! The request stream (arrival times, keys, request mix) is drawn from
//! `--seed`; datasets are the apps' fixed synthetic ones.

use apps::{MemcachedWorkload, RocksDbWorkload};
use desim::{ProfileConfig, SimDuration, SpanConfig, TelemetryConfig};
use runtime::sim::{MemObsConfig, RunParams};
use runtime::{ArrayIndexWorkload, DispatchPolicy, SystemConfig, Workload};

/// Name and one-line reason of each workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [(&str, &str); 7] = [
    (
        "micro_knee",
        "Adios, array microbenchmark at its 1.3 Mrps knee, 20% local: ~80% of requests fault, so wheel, dispatch/yield/resume, NIC and fault/evict dominate; engine optimisations aim here",
    ),
    (
        "micro_local",
        "micro_knee at 100% local memory and 2.0 Mrps: zero faults bypass fabric and the paging miss path, leaving ingress, dispatch, wheel and recorder; control for fabric/paging changes",
    ),
    (
        "dilos_knee",
        "micro_knee input under DiLOS: busy-wait fault policy (spin accrual, no yield/park), the path 3 of the 4 systems in every sweep take",
    ),
    (
        "kvs_setmix",
        "Adios, Memcached 400k keys x 128 B with 30% SETs at 800 krps: real app execution, dirty evictions and write-back traffic; ~1/4 of host time is trace generation, ~100 MB dataset",
    ),
    (
        "scan_mix",
        "Adios, RocksDB 100k x 1 KB with 20% SCAN(100) at 300 krps: sequential pattern, long traces, readahead prefetcher and reclaimer do most of their work here and none in micro_*",
    ),
    (
        "scaleout_knee",
        "Adios with 4 work-stealing dispatchers, 4 memnode shards x 2 replicas at 2.4 Mrps: the only workload where per-shard rails, per-dispatcher ingress/steal and shardN/dispatcherN metrics are live",
    ),
    (
        "obs_all",
        "micro_knee input with all five observability planes on (trace ring, spans, profiler, memory observatory, telemetry): what observation costs; micro_knee is its planes-off control",
    ),
];

/// Simulated warm-up before statistics open.
const WARMUP: SimDuration = SimDuration::from_millis(50);

/// One simulated workload: system, run parameters and dataset builder.
pub struct SimCase {
    pub cfg: SystemConfig,
    pub params: RunParams,
    pub build: fn() -> Box<dyn Workload>,
}

fn array() -> Box<dyn Workload> {
    Box::new(ArrayIndexWorkload::new(65_536))
}

/// `RunParams` shared by every workload; `horizon_div` shortens the
/// measured window for `--smoke` and for the traced run's side cases.
pub fn params(seed: u64, rps: f64, measure_ms: u64, horizon_div: u64) -> RunParams {
    RunParams {
        offered_rps: rps,
        seed,
        warmup: WARMUP,
        measure: SimDuration::from_micros(measure_ms * 1_000 / horizon_div),
        local_mem_fraction: 0.2,
        ..Default::default()
    }
}

/// The simulated case behind workload `name`, or `None` for an unknown
/// name.
pub fn sim_case(name: &str, seed: u64, horizon_div: u64) -> Option<SimCase> {
    let p = |rps, ms| params(seed, rps, ms, horizon_div);
    let case = |cfg, params, build| Some(SimCase { cfg, params, build });
    match name {
        "micro_knee" => case(SystemConfig::adios(), p(1.3e6, 400), array),
        "micro_local" => {
            let mut params = p(2.0e6, 400);
            params.local_mem_fraction = 1.0;
            case(SystemConfig::adios(), params, array)
        }
        "dilos_knee" => case(SystemConfig::dilos(), p(1.3e6, 2000), array),
        "kvs_setmix" => case(SystemConfig::adios(), p(0.8e6, 800), || {
            Box::new(MemcachedWorkload::new(400_000, 128).with_sets(0.3))
        }),
        "scan_mix" => case(SystemConfig::adios(), p(0.3e6, 800), || {
            Box::new(RocksDbWorkload::new(100_000, 1024).with_mix(0.2, 100))
        }),
        "scaleout_knee" => {
            let mut cfg = SystemConfig::adios();
            cfg.dispatchers = 4;
            cfg.dispatch_policy = DispatchPolicy::WorkStealing;
            cfg.memnode_shards = 4;
            cfg.memnode_replicas = 2;
            case(cfg, p(2.4e6, 200), array)
        }
        "obs_all" => {
            let mut params = p(1.3e6, 200);
            params.trace_capacity = Some(1 << 16);
            params.spans = Some(SpanConfig::default());
            params.profile = Some(ProfileConfig::default());
            params.memory = Some(MemObsConfig::default());
            params.telemetry = Some(TelemetryConfig::default());
            case(SystemConfig::adios(), params, array)
        }
        _ => None,
    }
}
