//! Ablations of Adios' individual design choices (DESIGN.md §6).
//!
//! Four studies beyond the paper's own figures:
//!
//! - **reclaimer**: proactive pinned reclaimer vs wake-up reclaimer —
//!   the §3.3 design choice;
//! - **queueing**: single centralized queue vs per-worker d-FCFS — the
//!   §3.4 single-queueing choice;
//! - **prefetch**: sequential readahead on/off under SCAN-heavy load;
//! - **unithread memory**: the §3.2 claim that the unified buffer frees
//!   12.5 % of the local cache (1 GB of 8 GB) — measured as the
//!   throughput/latency effect of shrinking the cache by that amount.

use apps::ordb::CLASS_SCAN;
use apps::{MemcachedWorkload, RocksDbWorkload};
use paging::reclaim::ReclaimerMode;
use paging::EvictionPolicy;
use runtime::sim::RunParams;
use runtime::{ArrayIndexWorkload, QueueModel, SystemConfig};

use super::{fmt_us, fmt_x, peak_rps, sweep};
use crate::report::{Expectation, FigureReport, Series};
use crate::scale::Scale;

/// Proactive vs wake-up reclaimer.
pub fn reclaimer(scale: Scale) -> FigureReport {
    let mut report = FigureReport::new("Ablation R", "Proactive vs wake-up reclaimer (§3.3)");
    let mut wl = ArrayIndexWorkload::new(scale.microbench_pages());
    let loads = [1_500_000.0, 2_000_000.0, 2_400_000.0];
    let pro = sweep(&SystemConfig::adios(), &mut wl, &loads, scale.params(91));
    let wake_cfg = SystemConfig {
        reclaimer_mode: ReclaimerMode::WakeUp,
        ..SystemConfig::adios()
    };
    let wake = sweep(&wake_cfg, &mut wl, &loads, scale.params(91));
    let mut s = Series::new(
        "allocation stalls at high fetch rates",
        "   offered   proactive: direct-reclaims / p999(us)   wake-up: direct-reclaims / p999(us)",
    );
    for (p, w) in pro.iter().zip(&wake) {
        s.rows.push(format!(
            "{:>10.0} {:>24} / {:>9.2} {:>24} / {:>9.2}",
            p.offered_rps,
            p.stats.direct_reclaims,
            p.point().p999_ns as f64 / 1000.0,
            w.stats.direct_reclaims,
            w.point().p999_ns as f64 / 1000.0,
        ));
    }
    report.series.push(s);
    let pro_dr: u64 = pro.iter().map(|r| r.stats.direct_reclaims).sum();
    let wake_dr: u64 = wake.iter().map(|r| r.stats.direct_reclaims).sum();
    report.expectations.push(Expectation::checked(
        "proactive reclaim keeps allocation off the fault path",
        "no out-of-memory pauses (§3.3)",
        format!("direct reclaims: proactive {pro_dr} vs wake-up {wake_dr}"),
        pro_dr <= wake_dr,
    ));
    report
}

/// Single queue vs per-worker queues.
pub fn queueing(scale: Scale) -> FigureReport {
    let mut report = FigureReport::new("Ablation Q", "Single queue vs per-worker d-FCFS (§3.4)");
    let mut wl = ArrayIndexWorkload::new(scale.microbench_pages());
    let loads = [1_000_000.0, 1_600_000.0, 2_200_000.0];
    let sq = sweep(&SystemConfig::adios(), &mut wl, &loads, scale.params(92));
    let pw_cfg = SystemConfig {
        queue_model: QueueModel::PerWorker,
        ..SystemConfig::adios()
    };
    let pw = sweep(&pw_cfg, &mut wl, &loads, scale.params(92));
    let mut s = Series::new(
        "tail latency under each queueing model",
        "   offered   single-queue p999(us)   per-worker p999(us)",
    );
    for (a, b) in sq.iter().zip(&pw) {
        s.rows.push(format!(
            "{:>10.0} {:>21.2} {:>20.2}",
            a.offered_rps,
            a.point().p999_ns as f64 / 1000.0,
            b.point().p999_ns as f64 / 1000.0,
        ));
    }
    report.series.push(s);
    let (a99, b99) = (sq[1].point().p999_ns as f64, pw[1].point().p999_ns as f64);
    report.expectations.push(Expectation::checked(
        "single queueing cuts the tail (c-FCFS vs d-FCFS)",
        "centralized FCFS achieves the best tail latency",
        format!("per-worker is {} worse at mid load", fmt_x(b99 / a99)),
        b99 >= a99,
    ));
    report
}

/// Readahead on vs off under the SCAN-heavy RocksDB mix.
pub fn prefetch(scale: Scale) -> FigureReport {
    let mut report = FigureReport::new("Ablation P", "Sequential readahead under SCAN(100)");
    let mut wl = RocksDbWorkload::new(scale.rocksdb_keys() / 2, 1024);
    let loads = [150_000.0, 300_000.0];
    let on = sweep(&SystemConfig::adios(), &mut wl, &loads, scale.params(93));
    let off_cfg = SystemConfig {
        prefetcher: runtime::PrefetcherKind::None,
        speculative_readahead: 0.0,
        ..SystemConfig::adios()
    };
    let off = sweep(&off_cfg, &mut wl, &loads, scale.params(93));
    let mut s = Series::new(
        "SCAN(100) latency with and without readahead",
        "   offered   readahead SCAN p50(us)   none SCAN p50(us)   prefetches",
    );
    for (a, b) in on.iter().zip(&off) {
        s.rows.push(format!(
            "{:>10.0} {:>22.2} {:>18.2} {:>12}",
            a.offered_rps,
            a.recorder.class(CLASS_SCAN).percentile(50.0) as f64 / 1000.0,
            b.recorder.class(CLASS_SCAN).percentile(50.0) as f64 / 1000.0,
            a.stats.prefetches,
        ));
    }
    report.series.push(s);
    let a50 = on[0].recorder.class(CLASS_SCAN).percentile(50.0);
    let b50 = off[0].recorder.class(CLASS_SCAN).percentile(50.0);
    report.expectations.push(Expectation::checked(
        "readahead accelerates sequential SCANs",
        "prefetching overlaps the next pages with the current fetch",
        format!("{} vs {} SCAN P50", fmt_us(a50), fmt_us(b50)),
        a50 < b50,
    ));
    report
}

/// The unified-buffer memory saving as extra page cache.
pub fn unithread_memory(scale: Scale) -> FigureReport {
    let mut report = FigureReport::new(
        "Ablation M",
        "Universal-stack memory saving as page cache (§3.2)",
    );
    let mut wl = ArrayIndexWorkload::new(scale.microbench_pages());
    let loads = [1_600_000.0, 2_200_000.0];
    // Adios keeps the full cache; a three-buffer (Shinjuku-style)
    // thread design would forfeit 12.5 % of it (1 GB of the paper's
    // 8 GB cache).
    let full = sweep(&SystemConfig::adios(), &mut wl, &loads, scale.params(94));
    let shrunk = sweep(
        &SystemConfig::adios(),
        &mut wl,
        &loads,
        RunParams {
            local_mem_fraction: 0.2 * 0.875,
            ..scale.params(94)
        },
    );
    let mut s = Series::new(
        "cache at 20 % vs 17.5 % of the working set",
        "   offered   full-cache p999(us)   shrunk p999(us)   full tput   shrunk tput",
    );
    for (a, b) in full.iter().zip(&shrunk) {
        s.rows.push(format!(
            "{:>10.0} {:>19.2} {:>17.2} {:>11.0} {:>13.0}",
            a.offered_rps,
            a.point().p999_ns as f64 / 1000.0,
            b.point().p999_ns as f64 / 1000.0,
            a.recorder.achieved_rps(),
            b.recorder.achieved_rps(),
        ));
    }
    report.series.push(s);
    report.expectations.push(Expectation::checked(
        "losing the saved memory costs performance",
        "1 GB ≙ 12.5 % of the 8 GB cache (§3.2)",
        format!(
            "peak {} with full cache vs shrunk",
            fmt_x(peak_rps(&full) / peak_rps(&shrunk))
        ),
        peak_rps(&full) >= peak_rps(&shrunk) * 0.99,
    ));
    report
}

/// Eviction policy: CLOCK vs FIFO vs exact LRU under a skewed-reuse
/// workload (the RocksDB mix keeps its indexes hot, so recency matters).
pub fn eviction(scale: Scale) -> FigureReport {
    let mut report = FigureReport::new("Ablation E", "Eviction policy: CLOCK vs FIFO vs exact LRU");
    let mut wl = RocksDbWorkload::new(scale.rocksdb_keys() / 2, 1024);
    let loads = [300_000.0, 500_000.0];
    let mut rows = Vec::new();
    let mut hit_rates = Vec::new();
    for (name, policy) in [
        ("CLOCK", EvictionPolicy::Clock),
        ("FIFO", EvictionPolicy::Fifo),
        ("LRU", EvictionPolicy::Lru),
    ] {
        let cfg = SystemConfig {
            eviction: policy,
            ..SystemConfig::adios()
        };
        let res = sweep(&cfg, &mut wl, &loads, scale.params(101));
        let r = &res[1];
        let hit = r.cache.hits as f64 / (r.cache.hits + r.cache.misses).max(1) as f64;
        hit_rates.push((name, hit));
        rows.push(format!(
            "  {:<6} {:>9.1}% {:>12.2} {:>13.2}",
            name,
            hit * 100.0,
            r.point().p50_ns as f64 / 1000.0,
            r.point().p999_ns as f64 / 1000.0,
        ));
    }
    let mut s = Series::new(
        "hit rate and latency at the higher load",
        "  policy   hit-rate      p50(us)     p999(us)",
    );
    s.rows = rows;
    report.series.push(s);
    let clock = hit_rates[0].1;
    let fifo = hit_rates[1].1;
    let lru = hit_rates[2].1;
    report.expectations.push(Expectation::checked(
        "recency-aware policies beat FIFO on hot indexes",
        "CLOCK approximates LRU (why OSv/Linux use it)",
        format!("hit rates: CLOCK {clock:.3}, FIFO {fifo:.3}, LRU {lru:.3}"),
        clock >= fifo - 0.01 && lru >= fifo - 0.01,
    ));
    report
}

/// GET/SET mix: writes add write-back traffic on the control direction.
pub fn write_mix(scale: Scale) -> FigureReport {
    let mut report = FigureReport::new(
        "Ablation W2",
        "Memcached write mix: SET traffic doubles the NIC's work",
    );
    let loads = [400_000.0, 700_000.0];
    let mut rows = Vec::new();
    let mut utils = Vec::new();
    for set_frac in [0.0f64, 0.3] {
        let mut wl =
            MemcachedWorkload::new(scale.memcached_keys(128).min(500_000), 128).with_sets(set_frac);
        let res = sweep(&SystemConfig::adios(), &mut wl, &loads, scale.params(102));
        let r = &res[1];
        utils.push((set_frac, r.rdma_ctrl_util, r.stats.writebacks));
        rows.push(format!(
            "  {:>4.0}% {:>12.0} {:>12.1}% {:>12.1}% {:>12}",
            set_frac * 100.0,
            r.recorder.achieved_rps(),
            r.rdma_data_util * 100.0,
            r.rdma_ctrl_util * 100.0,
            r.stats.writebacks,
        ));
    }
    let mut s = Series::new(
        "SET fraction vs link directions (higher load point)",
        "  sets      achieved     data-util    ctrl-util   writebacks",
    );
    s.rows = rows;
    report.series.push(s);
    report.expectations.push(Expectation::checked(
        "SETs grow write-back traffic on the outbound direction",
        "dirty pages must be written back before reuse",
        format!(
            "ctrl util {:.1}% → {:.1}%",
            utils[0].1 * 100.0,
            utils[1].1 * 100.0
        ),
        utils[1].1 >= utils[0].1 && utils[1].2 >= utils[0].2,
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reclaimer_ablation_shape() {
        let r = reclaimer(Scale::Quick);
        assert!(r.all_ok(), "{}", r.render());
    }

    #[test]
    fn queueing_ablation_shape() {
        let r = queueing(Scale::Quick);
        assert!(r.all_ok(), "{}", r.render());
    }

    #[test]
    fn prefetch_ablation_shape() {
        let r = prefetch(Scale::Quick);
        assert!(r.all_ok(), "{}", r.render());
    }

    #[test]
    fn memory_ablation_shape() {
        let r = unithread_memory(Scale::Quick);
        assert!(r.all_ok(), "{}", r.render());
    }

    #[test]
    fn eviction_ablation_shape() {
        let r = eviction(Scale::Quick);
        assert!(r.all_ok(), "{}", r.render());
    }

    #[test]
    fn write_mix_ablation_shape() {
        let r = write_mix(Scale::Quick);
        assert!(r.all_ok(), "{}", r.render());
    }
}
