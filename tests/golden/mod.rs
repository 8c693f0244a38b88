//! The golden matrix: one short run per reachable corner of the node
//! model, each pinned to the `(len, fnv1a)` of its serialised output.
//!
//! Every other determinism test compares two runs of the *same* build,
//! so it cannot see a refactor drift; these constants were captured on
//! the tree *before* `runtime::sim` was decomposed and must pass
//! unmodified after. (Three re-pins since: the three telemetry + armed
//! fault rows, when the report's `"episodes"` annotations stopped being
//! empty — their bytes differ from the capture only inside that array;
//! and the 32-worker all-planes row, when every worker's runnable queue
//! got its `q.wN.runnable.depth` gauge — removing the gauges of workers
//! 16–31 from the registry and the telemetry series restores the old
//! bytes exactly; and the MMPP row, when the dynamics timeline whose
//! series it appended was removed — cutting that suffix off the old
//! output gives its new pin exactly.)
//! Shared by `tests/determinism.rs` (asserts the table) and
//! `examples/golden_capture.rs` (prints it — refresh a row only when an
//! intentional format or model change lands).

use adios::desim::{ProfileConfig, SpanConfig};
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
/// scale-out axis, queue model, application or arrival shape each. The
/// unreplicated crash rows reach the abort paths (failed-fetch waiters
/// under yield, `AbortFault` under busy-wait), the thrash row direct
/// reclaim and frame waits, the SET-heavy crash row write-back errors
/// and QP-full deferrals.
pub const MATRIX: &[Case] = &[
    Case {
        name: "infiniswap",
        run: || array(SystemConfig::infiniswap(), params()),
        golden: (1_130, 0xb35d_f74c_6abd_8390),
    },
    Case {
        name: "hermit",
        run: || array(SystemConfig::hermit(), params()),
        golden: (1_125, 0x4b55_25da_ca5e_2781),
    },
    Case {
        name: "dilos",
        run: || array(SystemConfig::dilos(), params()),
        golden: (1_116, 0x6d15_202e_0f83_8aea),
    },
    Case {
        name: "dilos_p",
        run: || array(SystemConfig::dilos_p(), params()),
        golden: (1_119, 0xa97e_923e_4eaf_c1bb),
    },
    Case {
        name: "adios",
        run: || array(SystemConfig::adios(), params()),
        golden: (1_110, 0x14b4_af57_b054_000e),
    },
    Case {
        name: "adios+trace",
        run: || {
            let mut p = params();
            p.trace_capacity = Some(200_000);
            array(SystemConfig::adios(), p)
        },
        golden: (5_211_310, 0x58f5_9052_20c6_1539),
    },
    Case {
        name: "adios+spans",
        run: || {
            let mut p = params();
            p.spans = Some(SpanConfig::with_exemplars(95.0, 32));
            array(SystemConfig::adios(), p)
        },
        golden: (91_968, 0xeb6c_a99b_b085_db78),
    },
    Case {
        name: "adios+profile",
        run: || {
            let mut p = params();
            p.profile = Some(ProfileConfig);
            array(SystemConfig::adios(), p)
        },
        golden: (6_129, 0x5ecd_6657_81d5_b499),
    },
    Case {
        name: "adios+memory",
        run: || {
            let mut p = params();
            p.memory = Some(MemObsConfig);
            array(SystemConfig::adios(), p)
        },
        golden: (2_501, 0xf70a_4cd5_8190_f3a8),
    },
    Case {
        name: "adios+telemetry",
        run: || {
            let mut p = params();
            p.telemetry = Some(TelemetryConfig::default());
            array(SystemConfig::adios(), p)
        },
        golden: (110_165, 0x6a58_5f2f_9655_c1e9),
    },
    Case {
        name: "adios+all-planes",
        run: || array(SystemConfig::adios(), all_planes(params())),
        golden: (5_454_832, 0x9736_06f2_7163_b453),
    },
    Case {
        name: "dilos_p+all-planes",
        run: || array(SystemConfig::dilos_p(), all_planes(params())),
        golden: (6_915_145, 0xee8f_2e9c_9fbd_5136),
    },
    Case {
        name: "hermit+all-planes",
        run: || array(SystemConfig::hermit(), all_planes(params())),
        golden: (6_248_928, 0xb5a3_437e_0e84_abd0),
    },
    Case {
        name: "dilos+breakdowns",
        run: || {
            let mut p = params();
            p.keep_breakdowns = true;
            array(SystemConfig::dilos(), p)
        },
        golden: (2_448, 0x9fb0_020d_dc7c_abd9),
    },
    Case {
        name: "dilos+lossy",
        run: || {
            let mut p = params();
            p.faults = Some(FaultScenario::lossy());
            array(SystemConfig::dilos(), p)
        },
        golden: (1_130, 0x68fd_968c_17b8_f5b2),
    },
    Case {
        name: "adios+crash-unreplicated",
        run: || {
            let mut p = params();
            p.faults = Some(FaultScenario::crash());
            array(SystemConfig::adios(), p)
        },
        golden: (1_129, 0x1db4_e9c2_c31b_8c50),
    },
    Case {
        name: "dilos+crash-unreplicated",
        run: || {
            let mut p = params();
            p.faults = Some(FaultScenario::crash());
            array(SystemConfig::dilos(), p)
        },
        golden: (1_128, 0x0d7d_7d51_5976_4e96),
    },
    Case {
        name: "adios+thrash+all-planes",
        run: || {
            let mut p = all_planes(params());
            p.offered_rps = 2_500_000.0;
            p.local_mem_fraction = 0.02;
            array(SystemConfig::adios(), p)
        },
        golden: (11_475_183, 0x623b_de3d_2bc3_c76b),
    },
    Case {
        name: "4x2-shards+crash",
        run: || array(sharded(), crash_params()),
        golden: (2_419, 0xb4d0_1499_e6c9_60d2),
    },
    Case {
        name: "4x2-shards+crash+all-planes",
        run: || array(sharded(), all_planes(crash_params())),
        golden: (12_770_883, 0x7da7_078a_f494_7ba6),
    },
    Case {
        name: "4-dispatchers+work-stealing",
        run: || {
            let mut p = params();
            p.offered_rps = 3_000_000.0;
            array(scaled(DispatchPolicy::WorkStealing), p)
        },
        golden: (1_464, 0x3e5f_3977_2ab4_d9a1),
    },
    Case {
        name: "4-dispatchers+flat-combining",
        run: || {
            let mut p = params();
            p.offered_rps = 3_000_000.0;
            array(scaled(DispatchPolicy::FlatCombining), p)
        },
        golden: (1_464, 0x82e2_38f6_3585_e38f),
    },
    Case {
        name: "3-tenants+bucket+watermark",
        run: || {
            let mut p = params();
            p.offered_rps = 2_800_000.0;
            p.tenants = Some(three_tenants());
            array(SystemConfig::adios(), p)
        },
        golden: (2_235, 0x9e72_6658_fabd_45bd),
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
        golden: (10_094_558, 0xfac7_c4cb_eca5_7685),
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
        golden: (1_120, 0xf6de_4d49_0cef_415a),
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
        golden: (1_114, 0xb530_5c05_feda_5379),
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
        golden: (4_117_473, 0xd342_69cb_6db1_5563),
    },
    Case {
        name: "rocksdb-scan+readahead",
        run: || scan_mix(PrefetcherKind::Readahead { window: 8 }),
        golden: (1_114, 0x6c82_0074_0034_c45d),
    },
    Case {
        name: "rocksdb-scan+leap",
        run: || {
            scan_mix(PrefetcherKind::Leap {
                window: 8,
                depth: 8,
            })
        },
        golden: (1_118, 0xdaac_3726_9a41_8c60),
    },
    Case {
        name: "burst",
        run: || {
            let mut p = params();
            p.burst = Some((1.9, SimDuration::from_micros(400)));
            array(SystemConfig::adios(), p)
        },
        golden: (1_113, 0xaf60_63da_9787_ce8f),
    },
];
