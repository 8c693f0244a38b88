//! The golden matrix: one short run per reachable corner of the node
//! model, each pinned to the `(len, fnv1a)` of its serialised output.
//!
//! Every other determinism test compares two runs of the *same* build,
//! so it cannot see a refactor drift; a refactor must pass these
//! constants unmodified. Why a row was re-pinned is in `git log` and
//! CHANGES.md.
//!
//! Shared by `tests/determinism.rs` (asserts the table) and
//! `examples/golden_capture.rs` (prints it — refresh a row only when an
//! intentional format or model change lands).

use adios::desim::{ProfileConfig, SpanConfig};
use adios::paging::EvictionPolicy;
use adios::prelude::*;

/// FNV-1a 64 over a byte string (no dependency needed).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The matrix's base parameters: 900 krps, seed 5, 3 ms warm-up +
/// 12 ms window, 20 % local memory, every plane off.
pub fn params() -> RunParams {
    RunParams {
        offered_rps: 900_000.0,
        seed: 5,
        warmup: SimDuration::from_millis(3),
        measure: SimDuration::from_millis(12),
        local_mem_fraction: 0.2,
        ..Default::default()
    }
}

/// Switches all five observability planes on.
pub fn all_planes(mut p: RunParams) -> RunParams {
    p.trace_capacity = Some(200_000);
    p.spans = Some(SpanConfig::with_exemplars(95.0, 32));
    p.profile = Some(ProfileConfig);
    p.memory = Some(MemObsConfig);
    p.telemetry = Some(TelemetryConfig::default());
    p
}

/// Everything a run serialises: the run JSON (metrics, planes' report
/// blocks, trace), the Perfetto export of the span exemplars and the
/// breakdown row where the run kept them.
pub fn serialise(mut res: RunResult, breakdowns: bool) -> String {
    let mut out = adios::core_api::run_json(&res);
    if let Some(spans) = &res.spans {
        out.push_str(&adios::desim::span::perfetto_json(&spans.exemplars));
    }
    if breakdowns {
        out.push_str(&format!("{:?}", res.recorder.breakdown_at(99.0)));
    }
    out
}

fn array(cfg: SystemConfig, p: RunParams) -> String {
    let breakdowns = p.keep_breakdowns;
    let mut w = ArrayIndexWorkload::new(16_384);
    serialise(run_one(cfg, &mut w, p), breakdowns)
}

pub fn sharded() -> SystemConfig {
    SystemConfig {
        memnode_shards: 4,
        memnode_replicas: 2,
        ..SystemConfig::adios()
    }
}

/// `FaultScenario::crash()` downs node 0 over 10–60 ms; a 5 + 60 ms
/// run opens and closes that episode inside the window.
fn crash_params() -> RunParams {
    RunParams {
        warmup: SimDuration::from_millis(5),
        measure: SimDuration::from_millis(60),
        faults: Some(FaultScenario::crash()),
        ..params()
    }
}

/// `cfg` under eviction `policy` at 5 % local memory: every fault
/// evicts, so the victim order decides the run.
fn thrashing(cfg: SystemConfig, policy: EvictionPolicy) -> String {
    let cfg = SystemConfig {
        eviction: policy,
        ..cfg
    };
    let p = RunParams {
        local_mem_fraction: 0.05,
        ..params()
    };
    array(cfg, p)
}

fn scaled(policy: DispatchPolicy) -> SystemConfig {
    SystemConfig {
        dispatchers: 4,
        dispatch_policy: policy,
        workers: 32,
        ..SystemConfig::adios()
    }
}

fn three_tenants() -> TenantPlane {
    TenantPlane::new(vec![
        TenantSpec::new(300_000.0, "array", TenantPriority::High),
        TenantSpec::new(400_000.0, "array", TenantPriority::High),
        TenantSpec::new(2_100_000.0, "array", TenantPriority::Low).with_bucket(200_000.0, 64),
    ])
    .with_shed_watermark(64)
}

fn scan_mix(prefetcher: PrefetcherKind) -> String {
    let mut w = RocksDbWorkload::new(20_000, 1024).with_mix(0.2, 100);
    let cfg = SystemConfig {
        prefetcher,
        ..SystemConfig::adios()
    };
    let p = RunParams {
        offered_rps: 150_000.0,
        ..params()
    };
    serialise(run_one(cfg, &mut w, p), false)
}

/// One row of the matrix: a name, the run behind it, and the pinned
/// `(len, fnv1a)` of [`serialise`]'s output.
pub struct Case {
    pub name: &'static str,
    pub run: fn() -> String,
    pub golden: (usize, u64),
}

/// The matrix. Rows 1–5 are the five `SystemConfig` constructors with
/// every plane off; the rest switch on one plane, fault scenario,
/// scale-out axis, queue model, eviction policy, application or arrival
/// shape each. The unreplicated crash rows reach the abort paths
/// (failed-fetch waiters under yield, `AfterErrorCqe` under busy-wait),
/// the thrash row direct reclaim and frame waits, the SET-heavy crash
/// row write-back errors and QP-full deferrals, the 5 %-local rows
/// FIFO's and LRU's victim choice on every fault.
pub const MATRIX: &[Case] = &[
    Case {
        name: "infiniswap",
        run: || array(SystemConfig::infiniswap(), params()),
        golden: (1_112, 0xd11f_5d5c_d1a8_c6cc),
    },
    Case {
        name: "hermit",
        run: || array(SystemConfig::hermit(), params()),
        golden: (1_106, 0x89dd_9c03_6438_a131),
    },
    Case {
        name: "dilos",
        run: || array(SystemConfig::dilos(), params()),
        golden: (1_097, 0x369e_8712_5c66_dc37),
    },
    Case {
        name: "dilos_p",
        run: || array(SystemConfig::dilos_p(), params()),
        golden: (1_100, 0xf38e_9f4c_538b_07b7),
    },
    Case {
        name: "adios",
        run: || array(SystemConfig::adios(), params()),
        golden: (1_098, 0x9610_d2a9_6f1a_594a),
    },
    Case {
        name: "adios+trace",
        run: || {
            let mut p = params();
            p.trace_capacity = Some(200_000);
            array(SystemConfig::adios(), p)
        },
        golden: (5_211_298, 0x5976_32ee_cb59_a775),
    },
    Case {
        name: "adios+spans",
        run: || {
            let mut p = params();
            p.spans = Some(SpanConfig::with_exemplars(95.0, 32));
            array(SystemConfig::adios(), p)
        },
        golden: (91_956, 0x438e_d9b6_341e_933c),
    },
    Case {
        name: "adios+profile",
        run: || {
            let mut p = params();
            p.profile = Some(ProfileConfig);
            array(SystemConfig::adios(), p)
        },
        golden: (6_067, 0xea50_a99d_a104_f3c8),
    },
    Case {
        name: "adios+memory",
        run: || {
            let mut p = params();
            p.memory = Some(MemObsConfig);
            array(SystemConfig::adios(), p)
        },
        golden: (2_491, 0xd02c_d1d1_b85a_d1c3),
    },
    Case {
        name: "adios+telemetry",
        run: || {
            let mut p = params();
            p.telemetry = Some(TelemetryConfig::default());
            array(SystemConfig::adios(), p)
        },
        golden: (107_699, 0xb564_8b01_28a0_940c),
    },
    Case {
        name: "adios+all-planes",
        run: || array(SystemConfig::adios(), all_planes(params())),
        golden: (5_452_318, 0x9b3a_4c52_85b3_d3dc),
    },
    Case {
        name: "dilos_p+all-planes",
        run: || array(SystemConfig::dilos_p(), all_planes(params())),
        golden: (6_911_877, 0x0871_a5e7_3ef5_9e14),
    },
    Case {
        name: "hermit+all-planes",
        run: || array(SystemConfig::hermit(), all_planes(params())),
        golden: (6_245_654, 0xc823_5736_f7cb_c0c8),
    },
    Case {
        name: "dilos+breakdowns",
        run: || {
            let mut p = params();
            p.keep_breakdowns = true;
            array(SystemConfig::dilos(), p)
        },
        golden: (2_429, 0xc28a_2214_3bcb_b8c0),
    },
    Case {
        name: "dilos+lossy",
        run: || {
            let mut p = params();
            p.faults = Some(FaultScenario::lossy());
            array(SystemConfig::dilos(), p)
        },
        golden: (1_111, 0x9ee7_add3_f070_dc39),
    },
    Case {
        name: "adios+crash-unreplicated",
        run: || {
            let mut p = params();
            p.faults = Some(FaultScenario::crash());
            array(SystemConfig::adios(), p)
        },
        golden: (1_140, 0x29cb_c00f_27dc_91b6),
    },
    Case {
        name: "dilos+crash-unreplicated",
        run: || {
            let mut p = params();
            p.faults = Some(FaultScenario::crash());
            array(SystemConfig::dilos(), p)
        },
        golden: (1_107, 0x31bd_167e_cb55_b84e),
    },
    Case {
        name: "adios+thrash+all-planes",
        run: || {
            let mut p = all_planes(params());
            p.offered_rps = 2_500_000.0;
            p.local_mem_fraction = 0.02;
            array(SystemConfig::adios(), p)
        },
        golden: (11_472_668, 0xdaeb_67f5_231d_3b7c),
    },
    Case {
        name: "4x2-shards+crash",
        run: || array(sharded(), crash_params()),
        golden: (2_409, 0xf1f9_d702_328c_677f),
    },
    Case {
        name: "4x2-shards+crash+all-planes",
        run: || array(sharded(), all_planes(crash_params())),
        golden: (12_718_004, 0xd8bf_0c1e_b4f3_1245),
    },
    Case {
        name: "4-dispatchers+work-stealing",
        run: || {
            let mut p = params();
            p.offered_rps = 3_000_000.0;
            array(scaled(DispatchPolicy::WorkStealing), p)
        },
        golden: (1_445, 0xc55d_0622_b22e_7798),
    },
    Case {
        name: "4-dispatchers+flat-combining",
        run: || {
            let mut p = params();
            p.offered_rps = 3_000_000.0;
            array(scaled(DispatchPolicy::FlatCombining), p)
        },
        golden: (1_445, 0x9ee4_ea38_8db1_a03f),
    },
    Case {
        name: "3-tenants+bucket+watermark",
        run: || {
            let mut p = params();
            p.offered_rps = 2_800_000.0;
            p.tenants = Some(three_tenants());
            array(SystemConfig::adios(), p)
        },
        golden: (2_223, 0xd40e_0388_7e70_b7f9),
    },
    Case {
        name: "4-dispatchers+3-tenants+lossy+all-planes",
        run: || {
            let mut p = all_planes(params());
            p.offered_rps = 2_800_000.0;
            p.tenants = Some(three_tenants());
            p.faults = Some(FaultScenario::lossy());
            array(scaled(DispatchPolicy::WorkStealing), p)
        },
        golden: (10_092_042, 0x7c43_83ba_4510_d27e),
    },
    Case {
        name: "per-worker-stealing",
        run: || {
            let cfg = SystemConfig {
                queue_model: QueueModel::PerWorkerStealing,
                ..SystemConfig::dilos()
            };
            array(cfg, params())
        },
        golden: (1_101, 0xcec8_16a6_e871_0b1e),
    },
    Case {
        name: "memcached+30%-sets",
        run: || {
            let mut w = MemcachedWorkload::new(60_000, 128).with_sets(0.3);
            let p = RunParams {
                offered_rps: 600_000.0,
                ..params()
            };
            serialise(run_one(SystemConfig::adios(), &mut w, p), false)
        },
        golden: (1_102, 0x3fc3_19c2_a9a9_3c4d),
    },
    Case {
        name: "memcached+50%-sets+crash+all-planes",
        run: || {
            let mut w = MemcachedWorkload::new(60_000, 128).with_sets(0.5);
            let mut p = all_planes(params());
            p.offered_rps = 600_000.0;
            p.local_mem_fraction = 0.1;
            p.faults = Some(FaultScenario::crash());
            serialise(run_one(SystemConfig::adios(), &mut w, p), false)
        },
        golden: (4_965_735, 0x893a_0519_510a_f618),
    },
    Case {
        name: "rocksdb-scan+readahead",
        run: || scan_mix(PrefetcherKind::Readahead { window: 8 }),
        golden: (1_102, 0x0dc6_6e5e_5a19_bf69),
    },
    Case {
        name: "rocksdb-scan+leap",
        run: || {
            scan_mix(PrefetcherKind::Leap {
                window: 8,
                depth: 8,
            })
        },
        golden: (1_106, 0x334f_755e_731d_6874),
    },
    Case {
        name: "adios+fifo+5%-local",
        run: || thrashing(SystemConfig::adios(), EvictionPolicy::Fifo),
        golden: (1_099, 0xb82b_51d0_89da_1fc7),
    },
    Case {
        name: "adios+lru+5%-local",
        run: || thrashing(SystemConfig::adios(), EvictionPolicy::Lru),
        golden: (1_099, 0x1f66_6c1a_366b_862b),
    },
    Case {
        name: "dilos+fifo+5%-local",
        run: || thrashing(SystemConfig::dilos(), EvictionPolicy::Fifo),
        golden: (1_099, 0x8687_bdfa_ec8b_958b),
    },
    Case {
        name: "dilos+lru+5%-local",
        run: || thrashing(SystemConfig::dilos(), EvictionPolicy::Lru),
        golden: (1_099, 0x10b1_f4fd_581f_732a),
    },
    Case {
        name: "burst",
        run: || {
            let mut p = params();
            p.burst = Some((1.9, SimDuration::from_micros(400)));
            array(SystemConfig::adios(), p)
        },
        golden: (1_101, 0x207c_276f_d88a_1cf3),
    },
];
