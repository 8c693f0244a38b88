//! Reproducibility: a simulation run is a pure function of its
//! configuration and seed, across the whole stack including the
//! application substrates.

use adios::apps::silo::tpcc::TpccScale;
use adios::desim::json::ToJson;
use adios::prelude::*;

mod golden;

use golden::fnv1a;

fn params(seed: u64) -> RunParams {
    RunParams {
        seed,
        ..golden::params()
    }
}

fn fingerprint(r: &RunResult) -> (u64, u64, u64, u64, u64) {
    (
        r.recorder.completed_in_window(),
        r.recorder.overall().percentile(50.0),
        r.recorder.overall().percentile(99.9),
        r.stats.prefetches,
        r.cache.misses,
    )
}

#[test]
fn microbench_bitwise_reproducible() {
    for kind in SystemKind::all() {
        let mut w1 = ArrayIndexWorkload::new(16_384);
        let mut w2 = ArrayIndexWorkload::new(16_384);
        let a = run_one(SystemConfig::for_kind(kind), &mut w1, params(5));
        let b = run_one(SystemConfig::for_kind(kind), &mut w2, params(5));
        assert_eq!(fingerprint(&a), fingerprint(&b), "{}", kind.name());
    }
}

#[test]
fn different_seeds_differ() {
    let mut w1 = ArrayIndexWorkload::new(16_384);
    let mut w2 = ArrayIndexWorkload::new(16_384);
    let a = run_one(SystemConfig::adios(), &mut w1, params(5));
    let b = run_one(SystemConfig::adios(), &mut w2, params(6));
    assert_ne!(
        fingerprint(&a),
        fingerprint(&b),
        "different arrival sequences should not produce identical runs"
    );
}

#[test]
fn memcached_reproducible() {
    let mut w1 = MemcachedWorkload::new(60_000, 128);
    let mut w2 = MemcachedWorkload::new(60_000, 128);
    let a = run_one(SystemConfig::adios(), &mut w1, params(7));
    let b = run_one(SystemConfig::adios(), &mut w2, params(7));
    assert_eq!(fingerprint(&a), fingerprint(&b));
}

#[test]
fn tpcc_reproducible_including_occ() {
    let mut w1 = TpccWorkload::new(TpccScale::tiny(), 9);
    let mut w2 = TpccWorkload::new(TpccScale::tiny(), 9);
    let mut p = params(8);
    p.offered_rps = 60_000.0;
    let a = run_one(SystemConfig::dilos_p(), &mut w1, p.clone());
    let b = run_one(SystemConfig::dilos_p(), &mut w2, p);
    assert_eq!(fingerprint(&a), fingerprint(&b));
    assert_eq!(
        w1.stats().retries,
        w2.stats().retries,
        "OCC retries deterministic"
    );
    assert_eq!(w1.stats().commits, w2.stats().commits);
}

#[test]
fn metrics_and_trace_json_bitwise_reproducible() {
    // The observability layer inherits the simulation's determinism:
    // equal seeds serialise to byte-identical metrics + trace JSON.
    let mut p = params(5);
    p.trace_capacity = Some(200_000);
    let mut w1 = ArrayIndexWorkload::new(16_384);
    let mut w2 = ArrayIndexWorkload::new(16_384);
    let a = run_one(SystemConfig::adios(), &mut w1, p.clone());
    let b = run_one(SystemConfig::adios(), &mut w2, p.clone());
    assert_eq!(a.trace_dropped, b.trace_dropped);
    assert_eq!(
        adios::core_api::run_json(&a),
        adios::core_api::run_json(&b),
        "equal seeds must serialise identically"
    );

    let mut w3 = ArrayIndexWorkload::new(16_384);
    let mut p2 = p.clone();
    p2.seed = 6;
    let c = run_one(SystemConfig::adios(), &mut w3, p2);
    assert_ne!(
        adios::core_api::run_json(&a),
        adios::core_api::run_json(&c),
        "different seeds must not collide"
    );
}

#[test]
fn span_and_perfetto_json_bitwise_reproducible() {
    // The span layer inherits the simulation's determinism too: equal
    // seeds must select equal exemplar trees and serialise them to
    // byte-identical Perfetto JSON.
    use adios::desim::span::perfetto_json;
    let mut p = params(5);
    p.spans = Some(adios::desim::SpanConfig::with_exemplars(95.0, 32));
    let mut w1 = ArrayIndexWorkload::new(16_384);
    let mut w2 = ArrayIndexWorkload::new(16_384);
    let a = run_one(SystemConfig::adios(), &mut w1, p.clone());
    let b = run_one(SystemConfig::adios(), &mut w2, p.clone());
    let (ra, rb) = (a.spans.as_ref().unwrap(), b.spans.as_ref().unwrap());
    assert!(!ra.exemplars.is_empty(), "tail exemplars expected");
    assert_eq!(ra.measured, rb.measured);
    assert_eq!(ra.stats.to_json(), rb.stats.to_json());
    assert_eq!(
        ra.exemplars, rb.exemplars,
        "equal seeds must keep identical span trees"
    );
    assert_eq!(
        perfetto_json(&ra.exemplars),
        perfetto_json(&rb.exemplars),
        "equal seeds must serialise identical Perfetto JSON"
    );

    let mut w3 = ArrayIndexWorkload::new(16_384);
    let mut p2 = p.clone();
    p2.seed = 6;
    let c = run_one(SystemConfig::adios(), &mut w3, p2);
    assert_ne!(
        ra.exemplars,
        c.spans.as_ref().unwrap().exemplars,
        "different seeds must not collide"
    );
}

#[test]
fn fault_injection_bitwise_reproducible() {
    // The fault plane inherits the simulation's determinism end to
    // end: the same seed and scenario must serialise to byte-identical
    // run JSON (metrics + trace) and Perfetto span JSON.
    use adios::desim::span::perfetto_json;
    let mut p = params(5);
    p.trace_capacity = Some(200_000);
    p.spans = Some(adios::desim::SpanConfig::with_exemplars(95.0, 32));
    p.faults = Some(FaultScenario::lossy());
    let cfg = || SystemConfig {
        memnode_replicas: 2,
        ..SystemConfig::adios()
    };
    let mut w1 = ArrayIndexWorkload::new(16_384);
    let mut w2 = ArrayIndexWorkload::new(16_384);
    let a = run_one(cfg(), &mut w1, p.clone());
    let b = run_one(cfg(), &mut w2, p.clone());
    assert_eq!(fingerprint(&a), fingerprint(&b));
    assert_eq!(
        a.metrics.counter("fetch_retransmits"),
        b.metrics.counter("fetch_retransmits"),
        "retransmission schedule must be reproducible"
    );
    assert_eq!(
        a.metrics.counter("faults.injected_losses"),
        b.metrics.counter("faults.injected_losses"),
        "fault injection must be reproducible"
    );
    assert_eq!(
        adios::core_api::run_json(&a),
        adios::core_api::run_json(&b),
        "equal seed + scenario must serialise identically"
    );
    assert_eq!(
        perfetto_json(&a.spans.as_ref().unwrap().exemplars),
        perfetto_json(&b.spans.as_ref().unwrap().exemplars),
        "equal seed + scenario must serialise identical Perfetto JSON"
    );

    // A different scenario over the same seed must not collide.
    let mut w3 = ArrayIndexWorkload::new(16_384);
    let mut p2 = p.clone();
    p2.faults = Some(FaultScenario::stall());
    let c = run_one(cfg(), &mut w3, p2);
    assert_ne!(
        adios::core_api::run_json(&a),
        adios::core_api::run_json(&c),
        "different scenarios must not collide"
    );
}

#[test]
fn sharded_runs_bitwise_reproducible() {
    // Sharding the page space must not cost any determinism: at 1 and
    // 4 shards, equal seeds serialise to byte-identical run JSON
    // (metrics + per-shard block + trace) and Perfetto span JSON.
    use adios::desim::span::perfetto_json;
    let mut jsons = Vec::new();
    for shards in [1usize, 4] {
        let mut p = params(5);
        p.trace_capacity = Some(200_000);
        p.spans = Some(adios::desim::SpanConfig::with_exemplars(95.0, 32));
        let cfg = || SystemConfig {
            memnode_shards: shards,
            ..SystemConfig::adios()
        };
        let mut w1 = ArrayIndexWorkload::new(16_384);
        let mut w2 = ArrayIndexWorkload::new(16_384);
        let a = run_one(cfg(), &mut w1, p.clone());
        let b = run_one(cfg(), &mut w2, p.clone());
        assert_eq!(fingerprint(&a), fingerprint(&b), "{shards} shards");
        assert_eq!(
            adios::core_api::run_json(&a),
            adios::core_api::run_json(&b),
            "{shards} shards: equal seeds must serialise identically"
        );
        assert_eq!(
            perfetto_json(&a.spans.as_ref().unwrap().exemplars),
            perfetto_json(&b.spans.as_ref().unwrap().exemplars),
            "{shards} shards: equal seeds must serialise identical Perfetto JSON"
        );
        jsons.push(adios::core_api::run_json(&a));
    }
    assert_ne!(
        jsons[0], jsons[1],
        "shard counts must not collide: routing and the per-shard block differ"
    );
}

#[test]
fn telemetry_json_bitwise_reproducible() {
    // The telemetry plane inherits the simulation's determinism: equal
    // seeds must produce byte-identical telemetry JSON — series, SLO
    // event log, health trajectories and episode annotations — both
    // standalone and embedded in the run JSON.
    let mut p = params(5);
    p.faults = Some(FaultScenario::lossy());
    p.telemetry = Some(TelemetryConfig::default());
    let mut w1 = ArrayIndexWorkload::new(16_384);
    let mut w2 = ArrayIndexWorkload::new(16_384);
    let a = run_one(SystemConfig::adios(), &mut w1, p.clone());
    let b = run_one(SystemConfig::adios(), &mut w2, p.clone());
    let (ta, tb) = (a.telemetry.as_ref().unwrap(), b.telemetry.as_ref().unwrap());
    assert!(ta.ticks > 0, "recorder must have sampled");
    assert_eq!(ta.events, tb.events, "SLO event logs must match");
    assert_eq!(
        ta.to_json(),
        tb.to_json(),
        "equal seeds must serialise identical telemetry JSON"
    );
    assert_eq!(
        adios::core_api::perfetto_json(&a),
        adios::core_api::perfetto_json(&b),
        "equal seeds must serialise identical counter tracks"
    );
    let ja = adios::core_api::run_json(&a);
    assert!(
        ja.contains("\"telemetry\":{\"tick_ns\":100000,"),
        "run JSON must embed the telemetry block"
    );
    assert_eq!(ja, adios::core_api::run_json(&b));

    // A different seed must not collide.
    let mut w3 = ArrayIndexWorkload::new(16_384);
    let mut p2 = p.clone();
    p2.seed = 6;
    let c = run_one(SystemConfig::adios(), &mut w3, p2);
    assert_ne!(ta.to_json(), c.telemetry.as_ref().unwrap().to_json());
}

#[test]
fn single_shard_reproduces_the_unsharded_byte_stream() {
    // Regression anchor for the sharding refactor: with the default
    // `memnode_shards = 1`, today's runs must reproduce the
    // pre-sharding serialisation *byte for byte* — same length, same
    // FNV-1a fingerprint — for both the run JSON (metrics + trace) and
    // the Perfetto span export. The constants were captured on the
    // single-primary tree; refresh them via `cargo run --release
    // --example golden_capture` only when an intentional format change
    // lands.
    use adios::desim::span::perfetto_json;
    let mut p = params(5);
    p.trace_capacity = Some(200_000);
    p.spans = Some(adios::desim::SpanConfig::with_exemplars(95.0, 32));
    let mut w = ArrayIndexWorkload::new(16_384);
    let res = run_one(SystemConfig::adios(), &mut w, p);
    let run = adios::core_api::run_json(&res);
    let spans = perfetto_json(&res.spans.as_ref().unwrap().exemplars);
    assert_eq!(
        (run.len(), fnv1a(run.as_bytes())),
        (5_212_333, 0x86d4_f837_26b3_4ffe),
        "run JSON drifted from the pre-sharding byte stream"
    );
    assert_eq!(
        (spans.len(), fnv1a(spans.as_bytes())),
        (89_823, 0x2d32_f248_98b5_aab4),
        "Perfetto JSON drifted from the pre-sharding byte stream"
    );
}

#[test]
fn single_tenant_plane_reproduces_the_golden_byte_stream() {
    // The tenant plane must be invisible when it is degenerate: a
    // 1-tenant Poisson plane at the same rate and seed is the *same
    // run* as the planeless golden capture above — same arrival stream
    // (tenant 0 keeps the base seed bit for bit), no tenant counters in
    // the registry, no tenants block in the JSON — so both exports must
    // land on the pre-tenant FNV anchors byte for byte.
    use adios::desim::span::perfetto_json;
    let mut p = params(5);
    p.trace_capacity = Some(200_000);
    p.spans = Some(adios::desim::SpanConfig::with_exemplars(95.0, 32));
    p.tenants = Some(TenantPlane::new(vec![TenantSpec::new(
        900_000.0,
        "array",
        TenantPriority::High,
    )]));
    let mut w = ArrayIndexWorkload::new(16_384);
    let res = run_one(SystemConfig::adios(), &mut w, p);
    let run = adios::core_api::run_json(&res);
    let spans = perfetto_json(&res.spans.as_ref().unwrap().exemplars);
    assert_eq!(
        (run.len(), fnv1a(run.as_bytes())),
        (5_212_333, 0x86d4_f837_26b3_4ffe),
        "a degenerate tenant plane must not perturb the run JSON byte stream"
    );
    assert_eq!(
        (spans.len(), fnv1a(spans.as_bytes())),
        (89_823, 0x2d32_f248_98b5_aab4),
        "a degenerate tenant plane must not perturb the Perfetto byte stream"
    );
}

#[test]
fn tenant_plane_runs_bitwise_reproducible() {
    // The tenant plane inherits the simulation's determinism: equal
    // seeds over the same mix must serialise to byte-identical run JSON
    // (per-tenant block + conservation identity included).
    let plane = || {
        TenantPlane::new(vec![
            TenantSpec::new(300_000.0, "array", TenantPriority::High),
            TenantSpec::new(2_500_000.0, "array", TenantPriority::Low).with_bucket(200_000.0, 64),
        ])
        .with_shed_watermark(64)
    };
    let mut p = params(5);
    p.offered_rps = 2_800_000.0;
    p.tenants = Some(plane());
    let mut w1 = ArrayIndexWorkload::new(16_384);
    let mut w2 = ArrayIndexWorkload::new(16_384);
    let a = run_one(SystemConfig::adios(), &mut w1, p.clone());
    let b = run_one(SystemConfig::adios(), &mut w2, p.clone());
    assert!(a.tenants[1].sheds > 0, "the mix must actually shed");
    let ja = adios::core_api::run_json(&a);
    assert!(
        ja.contains("\"tenants\":[") && ja.contains("\"conservation\":{"),
        "run JSON must embed the tenant and conservation blocks"
    );
    assert_eq!(ja, adios::core_api::run_json(&b));

    // A different seed must not collide.
    let mut w3 = ArrayIndexWorkload::new(16_384);
    let mut p2 = p.clone();
    p2.seed = 6;
    let c = run_one(SystemConfig::adios(), &mut w3, p2);
    assert_ne!(ja, adios::core_api::run_json(&c));
}

#[test]
fn workload_traces_independent_of_system() {
    // The same seed must offer the *same request sequence* to every
    // system — that is what makes cross-system comparisons fair.
    let mut w1 = ArrayIndexWorkload::new(16_384);
    let mut w2 = ArrayIndexWorkload::new(16_384);
    let a = run_one(SystemConfig::dilos(), &mut w1, params(11));
    let b = run_one(SystemConfig::adios(), &mut w2, params(11));
    // Both systems clear this light load: same completion counts.
    assert_eq!(
        a.conservation.completions, b.conservation.completions,
        "identical arrival sequences expected"
    );
}

#[test]
fn profiler_output_bitwise_reproducible() {
    // The core profiler inherits the simulation's determinism: equal
    // seeds must serialise to byte-identical profile JSON, folded
    // flamegraph text and Perfetto state tracks, standalone and
    // embedded in the run JSON — and profiler-off runs must carry no
    // profile block at all (the golden byte-stream test above pins
    // that path bit for bit).
    let mut p = params(5);
    p.profile = Some(adios::desim::ProfileConfig);
    let mut w1 = ArrayIndexWorkload::new(16_384);
    let mut w2 = ArrayIndexWorkload::new(16_384);
    let a = run_one(SystemConfig::adios(), &mut w1, p.clone());
    let b = run_one(SystemConfig::adios(), &mut w2, p.clone());
    let (pa, pb) = (a.profile.as_ref().unwrap(), b.profile.as_ref().unwrap());
    assert!(!pa.folded().is_empty(), "flamegraph must have stacks");
    assert_eq!(pa.folded(), pb.folded(), "folded stacks must match");
    assert_eq!(pa.to_json(), pb.to_json(), "profile JSON must match");
    assert_eq!(
        adios::core_api::perfetto_json(&a),
        adios::core_api::perfetto_json(&b)
    );
    let ja = adios::core_api::run_json(&a);
    assert!(
        ja.contains("\"profile\":{\"window_ns\":"),
        "run JSON must embed the profile block"
    );
    assert_eq!(ja, adios::core_api::run_json(&b));

    // Profiler-off runs say nothing about profiling.
    let mut w3 = ArrayIndexWorkload::new(16_384);
    let off = run_one(SystemConfig::adios(), &mut w3, params(5));
    assert!(
        !adios::core_api::run_json(&off).contains("\"profile\""),
        "disabled profiler must leave the run JSON untouched"
    );

    // A different seed must not collide.
    let mut w4 = ArrayIndexWorkload::new(16_384);
    let mut p2 = p.clone();
    p2.seed = 6;
    let c = run_one(SystemConfig::adios(), &mut w4, p2);
    assert_ne!(pa.to_json(), c.profile.as_ref().unwrap().to_json());
}

#[test]
fn explicit_single_dispatcher_reproduces_the_golden_byte_stream() {
    // The dispatcher-scaling knobs must be invisible at their
    // defaults: spelling out `dispatchers = 1` + `SingleFcfs`
    // explicitly is the *same machine* as the golden capture above —
    // same run JSON and Perfetto export, byte for byte, on the
    // committed FNV anchors.
    use adios::desim::span::perfetto_json;
    let mut p = params(5);
    p.trace_capacity = Some(200_000);
    p.spans = Some(adios::desim::SpanConfig::with_exemplars(95.0, 32));
    let cfg = SystemConfig {
        dispatchers: 1,
        dispatch_policy: DispatchPolicy::SingleFcfs,
        ..SystemConfig::adios()
    };
    let mut w = ArrayIndexWorkload::new(16_384);
    let res = run_one(cfg, &mut w, p);
    let run = adios::core_api::run_json(&res);
    let spans = perfetto_json(&res.spans.as_ref().unwrap().exemplars);
    assert_eq!(
        (run.len(), fnv1a(run.as_bytes())),
        (5_212_333, 0x86d4_f837_26b3_4ffe),
        "an explicit single-dispatcher machine must reproduce the golden run JSON"
    );
    assert_eq!(
        (spans.len(), fnv1a(spans.as_bytes())),
        (89_823, 0x2d32_f248_98b5_aab4),
        "an explicit single-dispatcher machine must reproduce the golden Perfetto JSON"
    );
}

#[test]
fn multi_dispatcher_runs_bitwise_reproducible() {
    // Scaling the dispatch plane must not cost any determinism: for
    // every policy on a four-dispatcher machine, equal seeds serialise
    // to byte-identical run JSON (metrics, per-dispatcher counters and
    // trace included) — and the policies must not collide with each
    // other, since their admission schedules genuinely differ.
    let mut jsons = Vec::new();
    for policy in [
        DispatchPolicy::SingleFcfs,
        DispatchPolicy::WorkStealing,
        DispatchPolicy::FlatCombining,
    ] {
        let cfg = || SystemConfig {
            dispatchers: 4,
            dispatch_policy: policy,
            workers: 32,
            ..SystemConfig::adios()
        };
        let mut p = params(5);
        p.offered_rps = 3_000_000.0;
        p.trace_capacity = Some(200_000);
        let mut w1 = ArrayIndexWorkload::new(16_384);
        let mut w2 = ArrayIndexWorkload::new(16_384);
        let a = run_one(cfg(), &mut w1, p.clone());
        let b = run_one(cfg(), &mut w2, p);
        assert_eq!(fingerprint(&a), fingerprint(&b), "{policy:?}");
        let ja = adios::core_api::run_json(&a);
        assert_eq!(
            ja,
            adios::core_api::run_json(&b),
            "{policy:?}: equal seeds must serialise identically"
        );
        jsons.push(ja);
    }
    assert_ne!(jsons[0], jsons[1], "stealing must not collide with FCFS");
    assert_ne!(jsons[0], jsons[2], "combining must not collide with FCFS");
    assert_ne!(jsons[1], jsons[2], "stealing and combining must differ");
}

#[test]
fn memory_observatory_bitwise_reproducible() {
    // The memory observatory inherits the simulation's determinism:
    // equal seeds must serialise byte-identical `"memory"` run-JSON
    // blocks, heatmap CSVs and Perfetto counter tracks — and
    // observatory-off runs must carry no memory block at all (the
    // golden byte-stream tests above pin that path bit for bit).
    let mut p = params(5);
    p.memory = Some(MemObsConfig);
    let mut w1 = ArrayIndexWorkload::new(16_384);
    let mut w2 = ArrayIndexWorkload::new(16_384);
    let a = run_one(SystemConfig::adios(), &mut w1, p.clone());
    let b = run_one(SystemConfig::adios(), &mut w2, p.clone());
    let (ma, mb) = (a.memory.as_ref().unwrap(), b.memory.as_ref().unwrap());
    assert!(ma.holds(), "fate conservation must hold");
    assert!(ma.touches > 0, "the run must book demand accesses");
    assert_eq!(ma.to_json(), mb.to_json(), "memory JSON must match");
    assert_eq!(ma.heatmap_csv(), mb.heatmap_csv());
    assert_eq!(ma.fingerprint_csv(), mb.fingerprint_csv());
    assert_eq!(
        adios::core_api::perfetto_json(&a),
        adios::core_api::perfetto_json(&b)
    );
    let ja = adios::core_api::run_json(&a);
    assert!(
        ja.contains("\"memory\":{\"window_ns\":"),
        "run JSON must embed the memory block"
    );
    assert_eq!(ja, adios::core_api::run_json(&b));

    // Observatory-off runs say nothing about memory.
    let mut w3 = ArrayIndexWorkload::new(16_384);
    let off = run_one(SystemConfig::adios(), &mut w3, params(5));
    assert!(off.memory.is_none());
    assert!(
        !adios::core_api::run_json(&off).contains("\"memory\""),
        "disabled observatory must leave the run JSON untouched"
    );

    // A different seed must not collide.
    let mut w4 = ArrayIndexWorkload::new(16_384);
    let mut p2 = p.clone();
    p2.seed = 6;
    let c = run_one(SystemConfig::adios(), &mut w4, p2);
    assert_ne!(ma.to_json(), c.memory.as_ref().unwrap().to_json());
}

#[test]
fn golden_matrix_reproduces_the_captured_byte_streams() {
    // Cross-commit anchor for every corner of the node model — all five
    // systems, each plane alone and together, faults, shards,
    // dispatchers, tenants, queue models, write-back and prefetch paths:
    // each row's serialised output must land on the `(len, fnv1a)`
    // captured before `runtime::sim` was decomposed.
    let drifted: Vec<String> = golden::MATRIX
        .iter()
        .filter_map(|case| {
            let out = (case.run)();
            let got = (out.len(), fnv1a(out.as_bytes()));
            (got != case.golden).then(|| {
                format!(
                    "{}: got ({}, 0x{:016x}), golden ({}, 0x{:016x})",
                    case.name, got.0, got.1, case.golden.0, case.golden.1
                )
            })
        })
        .collect();
    assert!(
        drifted.is_empty(),
        "golden matrix drifted:\n{}",
        drifted.join("\n")
    );
}

#[test]
fn observer_is_write_only() {
    // The Observer contract: switching every plane on must not move one
    // modelled number. Latency histogram, cache, conservation, the
    // run-total counters and link utilisation are equal to the
    // planes-off run at the same seed, system by system.
    let model = |r: &RunResult| {
        let h = r.recorder.overall();
        format!(
            "{} {} {} {} {:.6} | {:?} | {:?} | {:?} | {:.9}",
            h.count(),
            h.percentile(50.0),
            h.percentile(99.0),
            h.percentile(99.9),
            h.mean(),
            r.cache,
            r.conservation,
            r.stats,
            r.rdma_data_util
        )
    };
    let cases = [
        ("adios", SystemConfig::adios(), None),
        ("dilos", SystemConfig::dilos(), None),
        ("dilos_p", SystemConfig::dilos_p(), None),
        ("hermit", SystemConfig::hermit(), None),
        (
            "4x2-shards+lossy",
            golden::sharded(),
            Some(FaultScenario::lossy()),
        ),
    ];
    for (name, cfg, faults) in cases {
        let mut p = params(5);
        p.faults = faults;
        let mut w_off = ArrayIndexWorkload::new(16_384);
        let mut w_on = ArrayIndexWorkload::new(16_384);
        let off = run_one(cfg.clone(), &mut w_off, p.clone());
        let on = run_one(cfg.clone(), &mut w_on, golden::all_planes(p.clone()));
        assert!(on.profile.is_some() && on.telemetry.is_some() && on.memory.is_some());
        assert_eq!(
            model(&off),
            model(&on),
            "{name}: planes perturbed the model"
        );
        // The same with the span layer in its sweep setting
        // (`SpanConfig::default()`: no tree is ever retained, so the
        // builders are sparse) — which must also attribute every
        // request exactly as the tree-keeping run did.
        let mut sparse = golden::all_planes(p);
        sparse.spans = Some(adios::desim::SpanConfig::default());
        let mut w_sparse = ArrayIndexWorkload::new(16_384);
        let sparse = run_one(cfg, &mut w_sparse, sparse);
        assert_eq!(
            model(&off),
            model(&sparse),
            "{name}: planes (sparse spans) perturbed the model"
        );
        let (kept, swept) = (on.spans.unwrap(), sparse.spans.unwrap());
        assert_eq!(
            kept.stats.to_json(),
            swept.stats.to_json(),
            "{name}: sparse spans attribute differently"
        );
        // The span plane and the recorder count the same window.
        assert_eq!(
            swept.measured,
            sparse.recorder.completed_in_window(),
            "{name}: span and recorder windows disagree"
        );
    }
}
