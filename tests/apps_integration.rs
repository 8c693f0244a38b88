//! Application workloads driven through the full simulation stack.

use adios::apps::ordb::{CLASS_GET, CLASS_SCAN};
use adios::apps::silo::tpcc::TpccScale;
use adios::prelude::*;

fn params(rps: f64, measure_ms: u64) -> RunParams {
    RunParams {
        offered_rps: rps,
        seed: 99,
        warmup: SimDuration::from_millis(3),
        measure: SimDuration::from_millis(measure_ms),
        local_mem_fraction: 0.2,
        keep_breakdowns: false,
        burst: None,
        trace_capacity: None,
        spans: None,
        faults: None,
        telemetry: None,
        profile: None,
        memory: None,
        tenants: None,
    }
}

#[test]
fn memcached_serves_and_dirties_pages() {
    let mut wl = MemcachedWorkload::new(150_000, 128);
    let r = run_one(SystemConfig::adios(), &mut wl, params(400_000.0, 15));
    assert!(r.recorder.completed_in_window() > 3_000);
    // GETs bump LRU metadata → evictions of dirty pages → write-backs.
    assert!(r.stats.writebacks > 0, "LRU bumps must cause write-backs");
    assert_eq!(r.recorder.dropped(), 0);
}

#[test]
fn memcached_throughput_capped_by_nic_not_workers() {
    // §5.2: the NIC (engine + write-backs), not worker CPU, caps
    // Memcached; Adios and DiLOS peak close together.
    // At test scale the index is fully hot, so the NIC bound is softer
    // than at the paper-like scale Figure 10 checks; both systems must
    // still saturate well below the absurd offered load, close together.
    let mut wl = MemcachedWorkload::new(150_000, 128);
    let a = run_one(SystemConfig::adios(), &mut wl, params(3_200_000.0, 15));
    let d = run_one(SystemConfig::dilos(), &mut wl, params(3_200_000.0, 15));
    assert!(
        a.recorder.achieved_rps() < 3_000_000.0,
        "Adios must saturate"
    );
    assert!(
        d.recorder.achieved_rps() < 3_000_000.0,
        "DiLOS must saturate"
    );
    let ratio = a.recorder.achieved_rps() / d.recorder.achieved_rps();
    assert!(
        (0.95..=2.3).contains(&ratio),
        "memcached gains bounded by the NIC: {ratio}"
    );
}

#[test]
fn rocksdb_scan_tail_separates_systems() {
    // Past DiLOS' knee (its capacity here is ~0.7 MRPS), SCAN-induced
    // HOL blocking dominates its GET tail.
    let mut wl = RocksDbWorkload::new(120_000, 1024);
    let d = run_one(SystemConfig::dilos(), &mut wl, params(850_000.0, 20));
    let a = run_one(SystemConfig::adios(), &mut wl, params(850_000.0, 20));
    let d_get = d.recorder.class(CLASS_GET).percentile(99.9);
    let a_get = a.recorder.class(CLASS_GET).percentile(99.9);
    assert!(
        d_get > a_get,
        "GETs behind busy-waiting SCANs must show HOL blocking: {d_get} vs {a_get}"
    );
    // SCANs are the heavy class for everyone.
    assert!(
        a.recorder.class(CLASS_SCAN).percentile(50.0)
            > a.recorder.class(CLASS_GET).percentile(50.0) * 5
    );
}

#[test]
fn rocksdb_scans_benefit_from_readahead() {
    let mut wl = RocksDbWorkload::new(120_000, 1024);
    let on = run_one(SystemConfig::adios(), &mut wl, params(200_000.0, 15));
    let cfg_off = SystemConfig {
        prefetcher: runtime::PrefetcherKind::None,
        speculative_readahead: 0.0,
        ..SystemConfig::adios()
    };
    let off = run_one(cfg_off, &mut wl, params(200_000.0, 15));
    assert!(on.stats.prefetches > 0);
    assert!(
        on.recorder.class(CLASS_SCAN).percentile(50.0)
            < off.recorder.class(CLASS_SCAN).percentile(50.0),
        "sequential readahead must shorten SCANs"
    );
}

#[test]
fn tpcc_runs_transactionally_under_simulation() {
    let mut wl = TpccWorkload::new(TpccScale::tiny(), 5);
    let r = run_one(SystemConfig::adios(), &mut wl, params(80_000.0, 25));
    assert!(r.recorder.completed_in_window() > 500);
    let stats = wl.stats();
    assert!(stats.commits.iter().sum::<u64>() > 500);
    // All five classes appear.
    for class in 0..5u16 {
        assert!(
            r.recorder.class(class).count() > 0,
            "class {class} unused in the mix"
        );
    }
    // TPC-C writes must flow back to the memory node.
    assert!(r.stats.writebacks > 0);
}

#[test]
fn tpcc_consistency_survives_simulation() {
    use adios::apps::silo::tpcc::{DISTRICT, WAREHOUSE};
    let mut wl = TpccWorkload::new(TpccScale::tiny(), 6);
    let _ = run_one(SystemConfig::dilos(), &mut wl, params(80_000.0, 25));
    let db = wl.db();
    let scale = db.scale();
    for w in 0..scale.warehouses {
        let w_ytd = db.engine().peek_field(WAREHOUSE, w, 0).unwrap();
        let d_sum: u64 = (0..scale.districts_per_w)
            .map(|d| {
                db.engine()
                    .peek_field(DISTRICT, w * scale.districts_per_w + d, 0)
                    .unwrap()
            })
            .sum();
        assert_eq!(w_ytd, d_sum, "TPC-C consistency condition 1");
    }
}

#[test]
fn faiss_queries_are_millisecond_scale_and_sequential() {
    let mut wl = FaissWorkload::new(20_000, 64, 4, 7);
    let r = run_one(SystemConfig::adios(), &mut wl, params(2_000.0, 120));
    assert!(r.recorder.completed_in_window() > 50);
    let p50 = r.recorder.overall().percentile(50.0);
    assert!(
        (100_000..50_000_000).contains(&p50),
        "vector search should be sub-50ms but far above µs: {p50} ns"
    );
    assert!(
        r.stats.prefetches > 0,
        "IVF list sweeps must trigger readahead"
    );
}

#[test]
fn faiss_busywait_collapses_before_adios() {
    let mut wl = FaissWorkload::new(20_000, 64, 4, 8);
    let load = 12_000.0;
    let d = run_one(SystemConfig::dilos(), &mut wl, params(load, 120));
    let a = run_one(SystemConfig::adios(), &mut wl, params(load, 120));
    assert!(
        a.recorder.achieved_rps() > d.recorder.achieved_rps() * 1.1,
        "adios {} vs dilos {}",
        a.recorder.achieved_rps(),
        d.recorder.achieved_rps()
    );
}
