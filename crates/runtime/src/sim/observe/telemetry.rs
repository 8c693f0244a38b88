//! Glue between the observer and the [`FlightRecorder`]: per-QP,
//! per-shard and per-tenant tallies (for the retransmit-rate and
//! error-chain health terms), the transport gauges, and the tick.

use std::collections::VecDeque;

use desim::telemetry::{FlightRecorder, HealthInput};
use desim::trace::GaugeId;
use desim::{NoopTracer, SimDuration, SimTime, Tracer};
use fabric::nic::Completion;
use fabric::{QpId, RdmaNic};

use super::Observer;
use crate::config::SystemConfig;
use crate::sim::worker::Worker;

/// Cumulative fetch accounting for one telemetry entity (a worker QP or
/// a shard rail). For a tenant, `fetches` carries arrivals and `errors`
/// sheds — the health bridge reads them as offered load and admission
/// failures.
#[derive(Debug, Clone, Copy, Default)]
struct FetchTally {
    fetches: u64,
    retransmits: u64,
    errors: u64,
}

impl FetchTally {
    /// One entity's health row for the tick this delta covers;
    /// `rate_events` is the numerator of the per-fetch rate term.
    fn health(
        &self,
        outstanding: f64,
        capacity: f64,
        rate_events: u64,
        degraded: f64,
    ) -> HealthInput {
        HealthInput {
            outstanding,
            capacity,
            error_chains: self.errors as f64,
            retransmit_rate: if self.fetches > 0 {
                rate_events as f64 / self.fetches as f64
            } else {
                0.0
            },
            degraded_queue: degraded,
        }
    }
}

/// One health entity's running tally and its value at the last tick;
/// the bridge diffs consecutive ticks to get rates.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct Tallied {
    now: FetchTally,
    prev: FetchTally,
}

impl Tallied {
    fn book(&mut self, c: &Completion) {
        self.now.fetches += 1;
        self.now.retransmits += c.retransmits as u64;
        self.now.errors += u64::from(c.is_error());
    }

    /// The tally accrued since the previous call (one telemetry tick).
    fn take_delta(&mut self) -> FetchTally {
        let d = FetchTally {
            fetches: self.now.fetches - self.prev.fetches,
            retransmits: self.now.retransmits - self.prev.retransmits,
            errors: self.now.errors - self.prev.errors,
        };
        self.prev = self.now;
        d
    }
}

/// Health entities are registered in a fixed order — worker QPs,
/// shards, tenants — and [`Observer::telemetry_tick`] builds the inputs
/// in that order.
pub(super) struct TelemBridge {
    pub(super) rec: FlightRecorder,
    /// The tick's health rows, rebuilt in place every tick.
    pub(super) health: Vec<HealthInput>,
    pub(super) qps: Vec<Tallied>,
    pub(super) shards: Vec<Tallied>,
    /// Multi-tenant planes only.
    pub(super) tenants: Vec<Tallied>,
    /// Expected arrivals per telemetry tick for each tenant (its
    /// configured rate × the tick period) — the capacity term of the
    /// tenant's health score.
    pub(super) tenant_per_tick: Vec<f64>,
    /// Adaptive-RTO transport gauges per shard rail, sampled each tick
    /// just before the recorder: `(srtt_us, rttvar_us, rto_us)`.
    /// Registered as `nic.*` on single-shard runs and `shardN.*`
    /// otherwise; zero until the estimator has its first RTT sample
    /// (the effective RTO gauge always carries the armed value, fixed
    /// ladder included).
    pub(super) rto: Vec<(GaugeId, GaugeId, GaugeId)>,
}

impl TelemBridge {
    /// Tallies one READ attempt, attributed to the worker QP that
    /// originated the chain and to the shard rail it ran on.
    pub(super) fn fetch(&mut self, shard: usize, origin: QpId, c: &Completion) {
        if let Some(t) = self.qps.get_mut(origin.0 as usize) {
            t.book(c);
        }
        self.shards[shard].book(c);
    }

    /// Tallies a tenant arrival or shed.
    pub(super) fn tenant(&mut self, tenant: usize, arrival: bool, shed: bool) {
        if let Some(t) = self.tenants.get_mut(tenant) {
            t.now.fetches += u64::from(arrival);
            t.now.errors += u64::from(shed);
        }
    }
}

impl Observer {
    /// The flight recorder's sampling period (None = telemetry off).
    pub fn telemetry_period(&self) -> Option<SimDuration> {
        self.telem.as_ref().map(|b| b.rec.tick_period())
    }

    /// One flight-recorder sample at `now`: gathers health inputs from
    /// the live queues, samples the transport gauges, and lets the
    /// recorder snapshot the registry and run the SLO engine. Returns
    /// the next tick's instant.
    pub fn telemetry_tick(
        &mut self,
        now: SimTime,
        cfg: &SystemConfig,
        workers: &[Worker],
        nics: &[RdmaNic],
        deferred_writebacks: &[VecDeque<u64>],
    ) -> SimTime {
        let b = self.telem.as_mut().expect("tick without telemetry");
        let qp_depth = cfg.fabric.qp_depth as f64;
        let health = &mut b.health;
        health.clear();
        for (worker, tally) in workers.iter().zip(&mut b.qps) {
            let outstanding: u32 = nics.iter().map(|n| n.outstanding(worker.qp)).sum();
            let degraded = worker.resumes.len()
                + worker.local_queue.len()
                + usize::from(worker.blocked.is_some());
            let d = tally.take_delta();
            // A worker QP exists on every shard rail, so its slots
            // scale with the shard count.
            let capacity = qp_depth * nics.len() as f64;
            health.push(d.health(outstanding as f64, capacity, d.retransmits, degraded as f64));
        }
        for ((nic, deferred), tally) in nics.iter().zip(deferred_writebacks).zip(&mut b.shards) {
            let d = tally.take_delta();
            let capacity = qp_depth * (cfg.workers + 2) as f64;
            let outstanding = nic.total_outstanding() as f64;
            health.push(d.health(outstanding, capacity, d.retransmits, deferred.len() as f64));
        }
        // Per-tenant rows: "outstanding" is the tick's arrival count
        // against the tenant's configured per-tick rate, "errors" are
        // sheds.
        for (tally, per_tick) in b.tenants.iter_mut().zip(&b.tenant_per_tick) {
            let d = tally.take_delta();
            health.push(d.health(d.fetches as f64, per_tick.max(1.0), d.errors, 0.0));
        }
        // Adaptive-RTO visibility: sample each shard rail's RFC 6298
        // state into its gauges before the recorder snapshots them.
        // Zero until the timer is warm (no RTT samples yet); the RTO
        // gauge always carries the armed base value, so fixed-ladder
        // runs show a flat line at `params.rto`.
        let us = |d: SimDuration| d.as_nanos() as f64 / 1_000.0;
        for (nic, &(srtt, rttvar, rto)) in nics.iter().zip(&b.rto) {
            let m = &mut self.metrics;
            m.gauge_set(srtt, now, nic.srtt().map_or(0.0, us));
            m.gauge_set(rttvar, now, nic.rttvar().map_or(0.0, us));
            m.gauge_set(rto, now, us(nic.current_rto()));
        }
        // SLO breach transitions land in the trace ring when it is on.
        let tracer: &mut dyn Tracer = match &mut self.ring {
            Some(ring) => ring,
            None => &mut NoopTracer,
        };
        b.rec.tick(now, &self.metrics, &b.health, tracer);
        now + b.rec.tick_period()
    }
}
