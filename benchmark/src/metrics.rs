//! The metric catalogue: every name the benchmark prints, with unit,
//! direction and (end-to-end only) regression bound. `BENCHMARK.json`
//! declares the same catalogue; `tests/smoke.rs` holds the two equal.

/// One metric's declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct Def {
    pub name: String,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression; `None` for per-layer.
    pub bound: Option<f64>,
}

fn def(name: &str, unit: &'static str, better: &'static str, bound: Option<f64>) -> Def {
    Def {
        name: name.to_string(),
        unit,
        better,
        bound,
    }
}

/// End-to-end metrics, reported by every workload with `--trace 0`.
///
/// Time base is in the name and the unit: `host_*` and `setup_s` are
/// simulator wall time, `sim_*` (units `sim_us`, `sim_req/s`) are
/// modelled time — deterministic for a seed, so their bounds only have
/// to cover seed-to-seed variation.
pub fn end_to_end() -> Vec<Def> {
    vec![
        def("host_ns_per_req", "ns", "lower", Some(0.25)),
        def("allocs_per_req", "count", "lower", Some(0.05)),
        def("alloc_bytes_per_req", "B", "lower", Some(0.08)),
        def("peak_live_mb", "MB", "lower", Some(0.03)),
        def("setup_s", "s", "lower", Some(0.25)),
        def("sim_p999_us", "sim_us", "lower", Some(0.25)),
        def("sim_p50_us", "sim_us", "lower", Some(0.04)),
        def("sim_achieved_rps", "sim_req/s", "higher", Some(0.02)),
    ]
}

pub const APPS: [&str; 6] = ["array", "kvs", "rocksdb", "tpcc", "faiss", "llm"];
pub const PLANES: [&str; 5] = ["trace", "spans", "profile", "memory", "telemetry"];
pub const SYSTEMS: [&str; 4] = ["adios", "dilos", "dilos_p", "hermit"];

/// Per-layer metrics, reported by every workload with `--trace 1`.
pub fn per_layer() -> Vec<Def> {
    let lower = |name: &str, unit| def(name, unit, "lower", None);
    let higher = |name: &str, unit| def(name, unit, "higher", None);
    let mut d = vec![
        // Span tree of the workload's own repetitions.
        lower("apps.build_s", "s"),
        lower("runtime.sim_new_ms", "ms"),
        lower("runtime.sim_run_ns_per_req", "ns"),
        lower("apps.tracegen_ns_per_req", "ns"),
        lower("runtime.sim_run_self_ns_per_req", "ns"),
        lower("core.run_json_us", "us"),
        lower("core.run_json_bytes", "B"),
        // Modelled-component counts of the workload (exact).
        lower("sim.cache.miss_ratio", "ratio"),
        lower("sim.cache.evictions_per_req", "count"),
        lower("sim.cache.dirty_evictions_per_req", "count"),
        lower("sim.fabric.rdma_msgs_per_req", "count"),
        lower("sim.fabric.data_util", "ratio"),
        lower("sim.prefetch.issued_per_req", "count"),
        higher("sim.prefetch.hit_ratio", "ratio"),
        lower("sim.writebacks_per_req", "count"),
        lower("sim.spin_fraction", "ratio"),
        lower("sim.queue_depth_mean", "count"),
        lower("sim.qp_outstanding_mean", "count"),
        lower("sim.steals_per_req", "count"),
        lower("sim.failed_share", "ratio"),
        // Layer micro-cases.
        lower("desim.wheel.ns_per_event", "ns"),
        lower("desim.wheel.far_ns_per_event", "ns"),
        lower("desim.hist.record_ns", "ns"),
        lower("desim.metrics.counter_ns", "ns"),
        lower("loadgen.arrivals.next_ns", "ns"),
        lower("loadgen.recorder.record_ns", "ns"),
        lower("loadgen.tenant.next_ns", "ns"),
        lower("loadgen.ingress.steer_ns", "ns"),
        lower("fabric.shard.route_ns", "ns"),
        lower("fabric.nic.post_cqe_ns", "ns"),
        lower("fabric.link.transmit_ns", "ns"),
        lower("paging.cache.hit_ns", "ns"),
        lower("paging.cache.fault_evict_ns", "ns"),
        lower("paging.prefetch.detect_ns", "ns"),
        lower("paging.trace.record_ns", "ns"),
    ];
    for app in APPS {
        d.push(lower(&format!("apps.{app}.build_s"), "s"));
        d.push(lower(&format!("apps.{app}.tracegen_ns_per_req"), "ns"));
        d.push(lower(&format!("apps.{app}.allocs_per_req"), "count"));
        d.push(lower(&format!("apps.{app}.pages_per_req"), "count"));
    }
    d.extend([
        lower("desim.span.ns_per_req", "ns"),
        lower("desim.profile.transition_ns", "ns"),
        lower("desim.telemetry.tick_us", "us"),
        lower("desim.trace.emit_ns", "ns"),
        lower("paging.observe.touch_ns", "ns"),
        lower("faults.plane.decide_ns", "ns"),
        lower("unithread.switch.cycles", "cycles"),
        lower("unithread.heavy_switch.cycles", "cycles"),
        lower("unithread.runner.spawn_ns", "ns"),
        lower("unithread.runner.yield_ns", "ns"),
        lower("unithread.runner.ns_per_req", "ns"),
        lower("unithread.runner.allocs_per_req", "count"),
    ]);
    // Side runs of the simulator on the micro_knee input.
    for plane in PLANES {
        d.push(lower(&format!("obs.{plane}.overhead_pct"), "%"));
        d.push(lower(&format!("obs.{plane}.allocs_per_req"), "count"));
    }
    for system in SYSTEMS {
        d.push(lower(
            &format!("runtime.system.{system}.host_ns_per_req"),
            "ns",
        ));
    }
    d.extend([
        lower("runtime.faults_lossy.host_ns_per_req", "ns"),
        higher("runtime.saturation.sim_peak_rps", "sim_req/s"),
        lower("runtime.saturation.host_ns_per_req", "ns"),
    ]);
    d
}

/// Whether `name` fits the contract's charset: starts with a letter or
/// digit, then at most 63 more of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_valid_and_unique() {
        let mut names: Vec<String> = end_to_end()
            .into_iter()
            .chain(per_layer())
            .map(|d| d.name)
            .collect();
        names.extend(crate::workloads::WORKLOADS.iter().map(|w| w.0.to_string()));
        assert!(per_layer().len() <= 128);
        for n in &names {
            assert!(valid_name(n), "bad name {n:?}");
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate names");
    }

    #[test]
    fn charset_rule() {
        for ok in ["a", "host_ns_per_req", "apps.kvs.build_s", "9lives", "a-b"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_a", ".a", "a b", "a/b", "a%", "é", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn bounds_fit_the_contract() {
        let e2e = end_to_end();
        assert!(e2e
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = e2e
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(
            e2e.iter().all(|d| d.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!(per_layer().iter().all(|d| d.bound.is_none()));
    }
}
