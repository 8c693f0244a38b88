//! Experiment scaling.
//!
//! The paper's datasets (40 GB arrays, TPC-C SF-200, BIGANN-100M) do
//! not fit a development machine; experiments therefore run at a scaled
//! working set with the *same 20 % local-memory ratio*. Two presets are
//! provided; `Full` is selected with the `ADIOS_FULL=1` environment
//! variable and is what `EXPERIMENTS.md` records.

use desim::SimDuration;
use runtime::sim::RunParams;

/// How large to run the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small datasets and short windows — CI-friendly smoke runs.
    Quick,
    /// The scale used to produce `EXPERIMENTS.md`.
    Full,
}

impl Scale {
    /// Reads `ADIOS_FULL` from the environment (default [`Scale::Quick`]).
    pub fn from_env() -> Scale {
        if std::env::var("ADIOS_FULL")
            .map(|v| v == "1")
            .unwrap_or(false)
        {
            Scale::Full
        } else {
            Scale::Quick
        }
    }

    /// Microbenchmark array size in pages (paper: 40 GB = 10 Mi pages).
    pub fn microbench_pages(self) -> u64 {
        match self {
            Scale::Quick => (256 << 20) / paging::PAGE_SIZE, // 256 MiB
            Scale::Full => (2048 << 20) / paging::PAGE_SIZE, // 2 GiB
        }
    }

    /// Warm-up before the measurement window.
    pub fn warmup(self) -> SimDuration {
        match self {
            Scale::Quick => SimDuration::from_millis(10),
            Scale::Full => SimDuration::from_millis(30),
        }
    }

    /// Measurement window for high-rate workloads.
    pub fn measure(self) -> SimDuration {
        match self {
            Scale::Quick => SimDuration::from_millis(40),
            Scale::Full => SimDuration::from_millis(150),
        }
    }

    /// The run every report point starts from: this scale's horizon
    /// ([`Scale::warmup`] + [`Scale::measure`]) at `seed`, the paper's
    /// 20 % local-memory ratio, and every observability plane off. A
    /// point spells only what differs (`..scale.params(seed)`); a sweep
    /// sets `offered_rps` per point.
    pub fn params(self, seed: u64) -> RunParams {
        RunParams {
            seed,
            warmup: self.warmup(),
            measure: self.measure(),
            ..Default::default()
        }
    }

    /// Offered-load grid for the microbenchmark sweeps (RPS).
    pub fn microbench_loads(self) -> Vec<f64> {
        let ks: &[u64] = match self {
            Scale::Quick => &[200, 700, 1300, 1700, 2000, 2300, 2600],
            Scale::Full => &[
                200, 500, 700, 900, 1100, 1300, 1400, 1500, 1600, 1700, 1850, 2000, 2150, 2300,
                2450, 2600, 2800, 3000,
            ],
        };
        ks.iter().map(|&k| k as f64 * 1000.0).collect()
    }

    /// Memcached key counts (per value size the arena differs).
    pub fn memcached_keys(self, value_len: u32) -> u64 {
        let budget: u64 = match self {
            Scale::Quick => 192 << 20,
            Scale::Full => 1 << 30,
        };
        budget / (value_len as u64 + 90)
    }

    /// Memcached offered-load grid (RPS).
    pub fn memcached_loads(self) -> Vec<f64> {
        let ks: &[u64] = match self {
            Scale::Quick => &[300, 600, 800, 950, 1100, 1250],
            Scale::Full => &[100, 300, 500, 650, 800, 900, 1000, 1100, 1200, 1300, 1450],
        };
        ks.iter().map(|&k| k as f64 * 1000.0).collect()
    }

    /// RocksDB key count (1032-byte records).
    pub fn rocksdb_keys(self) -> u64 {
        match self {
            Scale::Quick => 200_000,
            Scale::Full => 1_000_000,
        }
    }

    /// RocksDB offered-load grid (RPS).
    pub fn rocksdb_loads(self) -> Vec<f64> {
        let ks: &[u64] = match self {
            Scale::Quick => &[150, 300, 450, 550, 700, 900, 1100],
            Scale::Full => &[50, 150, 300, 450, 550, 650, 750, 850, 1000, 1150, 1300],
        };
        ks.iter().map(|&k| k as f64 * 1000.0).collect()
    }

    /// TPC-C warehouses (paper: 200).
    pub fn tpcc_warehouses(self) -> u64 {
        match self {
            Scale::Quick => 2,
            Scale::Full => 4,
        }
    }

    /// TPC-C offered-load grid (RPS).
    pub fn tpcc_loads(self) -> Vec<f64> {
        let ks: &[u64] = match self {
            Scale::Quick => &[40, 80, 120, 160, 200],
            Scale::Full => &[25, 50, 75, 100, 125, 150, 175, 200, 225, 250],
        };
        ks.iter().map(|&k| k as f64 * 1000.0).collect()
    }

    /// TPC-C needs a longer window for tail percentiles at low rates.
    pub fn tpcc_measure(self) -> SimDuration {
        match self {
            Scale::Quick => SimDuration::from_millis(80),
            Scale::Full => SimDuration::from_millis(250),
        }
    }

    /// Faiss index size (paper: 100 M vectors).
    pub fn faiss_vectors(self) -> u64 {
        match self {
            Scale::Quick => 100_000,
            Scale::Full => 400_000,
        }
    }

    /// Faiss inverted lists.
    pub fn faiss_nlist(self) -> usize {
        match self {
            Scale::Quick => 256,
            Scale::Full => 512,
        }
    }

    /// Faiss probes per query.
    pub fn faiss_nprobe(self) -> usize {
        8
    }

    /// Faiss offered-load grid (RPS) — queries are milliseconds long.
    pub fn faiss_loads(self) -> Vec<f64> {
        match self {
            Scale::Quick => vec![500.0, 2_000.0, 4_000.0, 6_000.0],
            Scale::Full => vec![250.0, 1_000.0, 2_000.0, 3_500.0, 5_000.0, 6_500.0, 8_000.0],
        }
    }

    /// Faiss measurement window (long enough for tail samples at low
    /// rates).
    pub fn faiss_measure(self) -> SimDuration {
        match self {
            Scale::Quick => SimDuration::from_millis(400),
            Scale::Full => SimDuration::from_millis(1_500),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_is_smaller_than_full() {
        assert!(Scale::Quick.microbench_pages() < Scale::Full.microbench_pages());
        assert!(Scale::Quick.measure() < Scale::Full.measure());
        assert!(Scale::Quick.microbench_loads().len() < Scale::Full.microbench_loads().len());
        assert!(Scale::Quick.tpcc_warehouses() <= Scale::Full.tpcc_warehouses());
    }

    #[test]
    fn ratios_preserved() {
        // The local-memory fraction is applied elsewhere; the scaled
        // working sets must stay big enough for 20 % caching to leave a
        // realistic miss pattern.
        assert!(Scale::Quick.microbench_pages() >= 16_384);
        assert!(Scale::Quick.memcached_keys(128) > 100_000);
        assert!(Scale::Quick.rocksdb_keys() >= 100_000);
    }

    #[test]
    fn params_carry_the_horizon_and_no_plane() {
        for (scale, seed) in [(Scale::Quick, 7), (Scale::Full, 61)] {
            let p = scale.params(seed);
            assert_eq!(p.seed, seed);
            assert_eq!(p.warmup, scale.warmup());
            assert_eq!(p.measure, scale.measure());
            assert_eq!(p.local_mem_fraction, 0.2);
            assert!(!p.keep_breakdowns);
            assert!(p.burst.is_none() && p.faults.is_none() && p.tenants.is_none());
            assert!(p.trace_capacity.is_none());
            assert!(p.spans.is_none());
            assert!(p.profile.is_none());
            assert!(p.memory.is_none());
            assert!(p.telemetry.is_none());
        }
    }
}
