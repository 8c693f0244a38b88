//! Continuous telemetry: a virtual-time flight recorder, an SLO
//! burn-rate engine, and derived health scores.
//!
//! Everything the simulator exports today is end-of-run (window-scoped
//! counters, span percentiles). This module adds the *dynamics*: a
//! [`FlightRecorder`] samples every registered counter and gauge from a
//! [`Metrics`] registry on a fixed virtual-time tick into
//! [`TimeSeries`] buckets, computes per-entity health scores
//! ([`health_score`]), and evaluates declarative [`SloRule`]s —
//! latency-objective burn rate, error-budget exhaustion, queue-growth
//! detection — over sliding windows, emitting typed [`SloEvent`]s into
//! the trace ring the moment an objective starts (or stops) burning.
//!
//! The whole plane is deterministic: sampling happens on the event
//! queue in virtual time, every aggregate is a pure fold over samples,
//! and serialisation uses fixed-precision formatting, so two
//! identically-seeded runs produce byte-identical telemetry JSON.

use crate::series::TimeSeries;
use crate::time::{SimDuration, SimTime};
use crate::trace::{Metrics, TraceEvent, Tracer};
use std::collections::VecDeque;
use std::fmt::Write as _;

/// Synthetic pid under which Perfetto counter tracks and SLO instants
/// are emitted, far above any request id used by the span exporter so
/// the telemetry process gets its own lane in the UI.
pub const PERFETTO_TELEMETRY_PID: u64 = 1_000_000;

/// Configuration for the telemetry plane.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Sampling period in virtual time.
    pub tick: SimDuration,
    /// SLO rules to evaluate each tick.
    pub rules: Vec<SloRule>,
}

impl Default for TelemetryConfig {
    fn default() -> TelemetryConfig {
        TelemetryConfig {
            tick: SimDuration::from_micros(100),
            rules: default_rules(),
        }
    }
}

/// The default rule set: a 50 µs latency objective with a 1 % error
/// budget over 1 ms, a 1 % drop budget over 1 ms, and 2× queue growth
/// detection over 500 µs.
pub fn default_rules() -> Vec<SloRule> {
    vec![
        SloRule::LatencyBurn {
            objective: SimDuration::from_micros(50),
            budget: 0.01,
            window: SimDuration::from_millis(1),
        },
        SloRule::ErrorBudget {
            budget: 0.01,
            window: SimDuration::from_millis(1),
        },
        SloRule::QueueGrowth {
            factor: 2.0,
            window: SimDuration::from_micros(500),
        },
    ]
}

/// One declarative service-level objective, evaluated every tick over a
/// sliding window of ticks.
#[derive(Debug, Clone, PartialEq)]
pub enum SloRule {
    /// Fraction of completions slower than `objective`, averaged over
    /// `window`, divided by `budget`: the classic burn rate. Burn ≥ 1
    /// means the error budget is being spent faster than it accrues.
    LatencyBurn {
        /// Latency objective per completion.
        objective: SimDuration,
        /// Tolerated fraction of completions over the objective.
        budget: f64,
        /// Sliding window the fraction is averaged over.
        window: SimDuration,
    },
    /// Fraction of dropped requests (drops / (drops + completions)),
    /// averaged over `window`, divided by `budget`.
    ErrorBudget {
        /// Tolerated drop fraction.
        budget: f64,
        /// Sliding window the fraction is averaged over.
        window: SimDuration,
    },
    /// Mean queue depth over the last `window` compared to the mean
    /// over the window before it; burning when the ratio reaches
    /// `factor` (and the current mean is at least one request).
    QueueGrowth {
        /// Growth ratio that constitutes a breach.
        factor: f64,
        /// Width of each of the two compared windows.
        window: SimDuration,
    },
}

impl SloRule {
    /// Name of the series the rule derives its signal from.
    pub fn series(&self) -> &'static str {
        match self {
            SloRule::LatencyBurn { .. } => "latency",
            SloRule::ErrorBudget { .. } => "drops",
            SloRule::QueueGrowth { .. } => "queue_depth",
        }
    }

    /// Short kind tag used in JSON and CSV output.
    pub fn kind_name(&self) -> &'static str {
        match self {
            SloRule::LatencyBurn { .. } => "latency_burn",
            SloRule::ErrorBudget { .. } => "error_budget",
            SloRule::QueueGrowth { .. } => "queue_growth",
        }
    }

    /// The rule's sliding window.
    pub fn window(&self) -> SimDuration {
        match self {
            SloRule::LatencyBurn { window, .. }
            | SloRule::ErrorBudget { window, .. }
            | SloRule::QueueGrowth { window, .. } => *window,
        }
    }

    fn to_json(&self) -> String {
        match self {
            SloRule::LatencyBurn {
                objective,
                budget,
                window,
            } => format!(
                "{{\"kind\":\"latency_burn\",\"objective_ns\":{},\"budget\":{:.6},\"window_ns\":{}}}",
                objective.as_nanos(),
                budget,
                window.as_nanos()
            ),
            SloRule::ErrorBudget { budget, window } => format!(
                "{{\"kind\":\"error_budget\",\"budget\":{:.6},\"window_ns\":{}}}",
                budget,
                window.as_nanos()
            ),
            SloRule::QueueGrowth { factor, window } => format!(
                "{{\"kind\":\"queue_growth\",\"factor\":{:.6},\"window_ns\":{}}}",
                factor,
                window.as_nanos()
            ),
        }
    }
}

/// Parses a comma-separated SLO spec string into rules.
///
/// Grammar (durations take `ns`/`us`/`ms`/`s` suffixes):
///
/// - `lat<OBJ:BUDGET@WINDOW` — latency burn rate, e.g. `lat<20us:0.05@1ms`
/// - `err<BUDGET@WINDOW` — error budget, e.g. `err<0.01@1ms`
/// - `qgrow>FACTOR@WINDOW` — queue growth, e.g. `qgrow>2@500us`
pub fn parse_slo_spec(spec: &str) -> Result<Vec<SloRule>, String> {
    let mut rules = Vec::new();
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        if let Some(rest) = part.strip_prefix("lat<") {
            let (head, window) = split_window(rest)?;
            let (obj, budget) = head
                .split_once(':')
                .ok_or_else(|| format!("`{part}`: expected lat<OBJ:BUDGET@WINDOW"))?;
            rules.push(SloRule::LatencyBurn {
                objective: parse_duration(obj)?,
                budget: parse_fraction(budget)?,
                window,
            });
        } else if let Some(rest) = part.strip_prefix("err<") {
            let (head, window) = split_window(rest)?;
            rules.push(SloRule::ErrorBudget {
                budget: parse_fraction(head)?,
                window,
            });
        } else if let Some(rest) = part.strip_prefix("qgrow>") {
            let (head, window) = split_window(rest)?;
            let factor = head
                .parse::<f64>()
                .map_err(|_| format!("`{head}`: bad growth factor"))?;
            if !(factor.is_finite() && factor > 0.0) {
                return Err(format!("`{head}`: growth factor must be positive"));
            }
            rules.push(SloRule::QueueGrowth { factor, window });
        } else {
            return Err(format!(
                "`{part}`: expected lat<…, err<… or qgrow>… (see --slo grammar)"
            ));
        }
    }
    if rules.is_empty() {
        return Err("empty SLO spec".to_string());
    }
    Ok(rules)
}

fn split_window(s: &str) -> Result<(&str, SimDuration), String> {
    let (head, w) = s
        .split_once('@')
        .ok_or_else(|| format!("`{s}`: missing @WINDOW"))?;
    Ok((head, parse_duration(w)?))
}

fn parse_duration(s: &str) -> Result<SimDuration, String> {
    let (num, mult) = if let Some(n) = s.strip_suffix("ns") {
        (n, 1.0)
    } else if let Some(n) = s.strip_suffix("us") {
        (n, 1e3)
    } else if let Some(n) = s.strip_suffix("ms") {
        (n, 1e6)
    } else if let Some(n) = s.strip_suffix('s') {
        (n, 1e9)
    } else {
        return Err(format!("`{s}`: duration needs a ns/us/ms/s suffix"));
    };
    let v = num
        .parse::<f64>()
        .map_err(|_| format!("`{s}`: bad duration"))?;
    if !(v.is_finite() && v > 0.0) {
        return Err(format!("`{s}`: duration must be positive"));
    }
    Ok(SimDuration((v * mult) as u64))
}

fn parse_fraction(s: &str) -> Result<f64, String> {
    let v = s
        .parse::<f64>()
        .map_err(|_| format!("`{s}`: bad fraction"))?;
    if !(v.is_finite() && v > 0.0 && v <= 1.0) {
        return Err(format!("`{s}`: fraction must be in (0, 1]"));
    }
    Ok(v)
}

/// Whether an [`SloEvent`] opens or closes a breach interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloEventKind {
    /// The rule's burn rate crossed 1 from below.
    BreachBegin,
    /// The rule's burn rate fell back under 1.
    BreachEnd,
}

impl SloEventKind {
    /// Short tag used in JSON/CSV output and trace event names.
    pub fn name(&self) -> &'static str {
        match self {
            SloEventKind::BreachBegin => "begin",
            SloEventKind::BreachEnd => "end",
        }
    }
}

/// A breach transition emitted by the SLO engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloEvent {
    /// Index into the configured rule list.
    pub rule: usize,
    /// Begin or end of a breach interval.
    pub kind: SloEventKind,
    /// Tick instant the transition was observed at.
    pub at: SimTime,
    /// Name of the series the rule derives its signal from.
    pub series: &'static str,
    /// The rule's sliding window.
    pub window: SimDuration,
    /// Burn rate at the transition, in thousandths (1000 = burn 1.0).
    pub value_milli: u64,
}

/// Raw inputs for one entity's health score at one tick.
#[derive(Debug, Clone, Copy, Default)]
pub struct HealthInput {
    /// Outstanding fetches currently posted for the entity.
    pub outstanding: f64,
    /// Capacity those fetches are posted against (QP depth × rails).
    pub capacity: f64,
    /// Error chains currently unresolved (failovers in progress).
    pub error_chains: f64,
    /// Retransmissions per fetch over the last tick (0 when no fetches).
    pub retransmit_rate: f64,
    /// Requests parked in degraded-mode queues (resume/deferred work).
    pub degraded_queue: f64,
}

/// Deterministic 0–100 health score.
///
/// `100 − 40·min(1, outstanding/capacity) − min(30, 10·error_chains)
/// − min(20, 40·retransmit_rate) − min(10, degraded_queue)`, clamped
/// at 0. Full marks mean an idle, error-free entity; the weights put
/// queue-pressure (40) above error chains (30), retransmissions (20),
/// and degraded-queue depth (10).
pub fn health_score(h: &HealthInput) -> f64 {
    let occupancy = if h.capacity > 0.0 {
        (h.outstanding / h.capacity).min(1.0)
    } else {
        0.0
    };
    let score = 100.0
        - 40.0 * occupancy
        - (10.0 * h.error_chains).min(30.0)
        - (40.0 * h.retransmit_rate).min(20.0)
        - h.degraded_queue.min(10.0);
    score.max(0.0)
}

/// A fault episode annotation carried into the telemetry report so
/// breaches can be read against the injected disturbance.
#[derive(Debug, Clone)]
pub struct EpisodeNote {
    /// Episode start (inclusive).
    pub start: SimTime,
    /// Episode end (exclusive).
    pub end: SimTime,
    /// Episode kind tag (e.g. `"link_degraded"`, `"node_down"`).
    pub kind: &'static str,
    /// Series the episode affects (`"*"` for fabric-wide episodes,
    /// `"shardN"` for node-scoped ones).
    pub affected: Vec<String>,
}

struct RuleState {
    /// Per-tick signal samples; latency/error rules keep `window/tick`
    /// entries, queue-growth keeps twice that (two compared windows).
    ring: VecDeque<f64>,
    ring_cap: usize,
    active: bool,
    burn: TimeSeries,
    /// Completions over the latency objective this tick (latency rules).
    lat_over: u64,
    /// Completions observed this tick (latency rules).
    lat_total: u64,
}

/// The flight recorder: samples a [`Metrics`] registry every tick,
/// maintains health-score trajectories, and runs the SLO engine.
pub struct FlightRecorder {
    tick: SimDuration,
    rules: Vec<SloRule>,
    states: Vec<RuleState>,
    counter_names: Vec<&'static str>,
    counter_prev: Vec<u64>,
    /// Counts banked by [`FlightRecorder::bank`] across a registry
    /// reset, folded into the next tick's deltas so the partial period
    /// before the reset is not dropped from the rate series.
    counter_carry: Vec<u64>,
    counter_series: Vec<TimeSeries>,
    gauge_names: Vec<&'static str>,
    gauge_series: Vec<TimeSeries>,
    health_names: Vec<String>,
    health_series: Vec<TimeSeries>,
    /// Position of the `drops` / `completions` counters and the
    /// `queue_depth` gauge, when the registry has them (the error and
    /// queue rules read these well-known names).
    drops_idx: Option<usize>,
    completions_idx: Option<usize>,
    queue_idx: Option<usize>,
    events: Vec<SloEvent>,
    ticks: u64,
}

impl FlightRecorder {
    /// Builds a recorder over the registry's current instrument set.
    /// Instruments registered *after* construction are not sampled, so
    /// construct the recorder once the simulation has registered
    /// everything (registration order is deterministic).
    ///
    /// # Panics
    ///
    /// Panics if the tick is zero.
    pub fn new(cfg: TelemetryConfig, metrics: &Metrics) -> FlightRecorder {
        assert!(cfg.tick > SimDuration::ZERO, "zero telemetry tick");
        let tick = cfg.tick;
        let counter_names: Vec<_> = metrics.counters_iter().map(|(n, _)| n).collect();
        let counter_prev: Vec<_> = metrics.counters_iter().map(|(_, v)| v).collect();
        let gauge_names: Vec<_> = metrics.gauges_iter().map(|(n, _)| n).collect();
        let states = cfg
            .rules
            .iter()
            .map(|r| {
                let w = (r.window().as_nanos() / tick.as_nanos()).max(1) as usize;
                let cap = match r {
                    SloRule::QueueGrowth { .. } => 2 * w,
                    _ => w,
                };
                RuleState {
                    ring: VecDeque::with_capacity(cap),
                    ring_cap: cap,
                    active: false,
                    burn: TimeSeries::new(tick),
                    lat_over: 0,
                    lat_total: 0,
                }
            })
            .collect();
        FlightRecorder {
            tick,
            counter_series: counter_names
                .iter()
                .map(|_| TimeSeries::new(tick))
                .collect(),
            gauge_series: gauge_names.iter().map(|_| TimeSeries::new(tick)).collect(),
            drops_idx: counter_names.iter().position(|&n| n == "drops"),
            completions_idx: counter_names.iter().position(|&n| n == "completions"),
            queue_idx: gauge_names.iter().position(|&n| n == "queue_depth"),
            counter_names,
            counter_carry: vec![0; counter_prev.len()],
            counter_prev,
            gauge_names,
            health_names: Vec::new(),
            health_series: Vec::new(),
            rules: cfg.rules,
            states,
            events: Vec::new(),
            ticks: 0,
        }
    }

    /// Reserves every series (counters, gauges, burn rates, and the
    /// health entities registered so far) for a recording of `ticks`
    /// ticks, so [`FlightRecorder::tick`] does not allocate up to that
    /// horizon. Call once, after the last
    /// [`FlightRecorder::register_health`].
    pub fn reserve(&mut self, ticks: usize) {
        let series = self
            .counter_series
            .iter_mut()
            .chain(&mut self.gauge_series)
            .chain(&mut self.health_series)
            .chain(self.states.iter_mut().map(|st| &mut st.burn));
        for s in series {
            // Bucket `ticks` itself is the last one a tick lands in.
            s.reserve(ticks + 1);
        }
    }

    /// Sampling period.
    pub fn tick_period(&self) -> SimDuration {
        self.tick
    }

    /// Registers a health-score entity (e.g. `"qp3"`, `"shard1"`) and
    /// returns its index; [`FlightRecorder::tick`] then expects one
    /// [`HealthInput`] per registered entity, in registration order.
    pub fn register_health(&mut self, name: String) -> usize {
        self.health_names.push(name);
        self.health_series.push(TimeSeries::new(self.tick));
        self.health_names.len() - 1
    }

    /// Feeds one request completion into the latency-burn rules. Call
    /// for every completion between ticks; the per-tick fraction is
    /// folded into each latency rule's sliding window at the next tick.
    pub fn on_completion(&mut self, latency: SimDuration) {
        for (rule, st) in self.rules.iter().zip(self.states.iter_mut()) {
            if let SloRule::LatencyBurn { objective, .. } = rule {
                st.lat_total += 1;
                if latency > *objective {
                    st.lat_over += 1;
                }
            }
        }
    }

    /// Banks the not-yet-sampled counter deltas (everything accrued
    /// since the previous tick). Call immediately **before** a
    /// [`Metrics::reset`]: the reset lowers every counter below the
    /// recorder's baseline, and without banking, `tick`'s saturating
    /// subtraction would silently clamp the partial period to zero —
    /// under-reporting every rate series at the warm-up boundary.
    /// The banked counts are folded into the next tick's deltas.
    pub fn bank(&mut self, metrics: &Metrics) {
        for (i, (_, v)) in metrics.counters_iter().enumerate() {
            self.counter_carry[i] += v.saturating_sub(self.counter_prev[i]);
        }
    }

    /// Re-synchronises counter baselines after a [`Metrics::reset`]
    /// (the warm-up → measure boundary), so the first post-reset tick
    /// does not read a bogus delta. Pair with [`FlightRecorder::bank`]
    /// before the reset, or the partial tick period preceding the
    /// boundary is lost.
    pub fn rebase(&mut self, metrics: &Metrics) {
        for (i, (_, v)) in metrics.counters_iter().enumerate() {
            self.counter_prev[i] = v;
        }
    }

    /// Takes one sample: counter deltas and gauge values land in their
    /// series, health inputs are scored, and every SLO rule is
    /// evaluated. Breach transitions are appended to the event log and
    /// recorded into `tracer` (component `"slo"`, names
    /// `"breach_begin"`/`"breach_end"`, payload `a` = rule index,
    /// `b` = burn in thousandths).
    ///
    /// # Panics
    ///
    /// Panics if `health` does not have one entry per registered
    /// health entity.
    pub fn tick(
        &mut self,
        now: SimTime,
        metrics: &Metrics,
        health: &[HealthInput],
        tracer: &mut dyn Tracer,
    ) {
        self.ticks += 1;
        let mut drops_delta = 0u64;
        let mut completions_delta = 0u64;
        for (i, (_, v)) in metrics.counters_iter().enumerate() {
            let d =
                v.saturating_sub(self.counter_prev[i]) + std::mem::take(&mut self.counter_carry[i]);
            self.counter_prev[i] = v;
            self.counter_series[i].record(now, d as f64);
            if Some(i) == self.drops_idx {
                drops_delta = d;
            }
            if Some(i) == self.completions_idx {
                completions_delta = d;
            }
        }
        let mut queue_now = 0.0;
        for (i, (_, v)) in metrics.gauges_iter().enumerate() {
            self.gauge_series[i].record(now, v);
            if Some(i) == self.queue_idx {
                queue_now = v;
            }
        }
        assert_eq!(
            health.len(),
            self.health_series.len(),
            "one HealthInput per registered entity"
        );
        for (i, h) in health.iter().enumerate() {
            self.health_series[i].record(now, health_score(h));
        }

        for (ri, (rule, st)) in self.rules.iter().zip(self.states.iter_mut()).enumerate() {
            let burn = match rule {
                SloRule::LatencyBurn { budget, .. } => {
                    let frac = if st.lat_total > 0 {
                        st.lat_over as f64 / st.lat_total as f64
                    } else {
                        0.0
                    };
                    st.lat_over = 0;
                    st.lat_total = 0;
                    push_ring(&mut st.ring, st.ring_cap, frac);
                    ring_mean(&st.ring) / budget
                }
                SloRule::ErrorBudget { budget, .. } => {
                    let total = drops_delta + completions_delta;
                    let frac = if total > 0 {
                        drops_delta as f64 / total as f64
                    } else {
                        0.0
                    };
                    push_ring(&mut st.ring, st.ring_cap, frac);
                    ring_mean(&st.ring) / budget
                }
                SloRule::QueueGrowth { factor, .. } => {
                    push_ring(&mut st.ring, st.ring_cap, queue_now);
                    if st.ring.len() == st.ring_cap {
                        let half = st.ring_cap / 2;
                        let prev: f64 = st.ring.iter().take(half).sum::<f64>() / half as f64;
                        let cur: f64 =
                            st.ring.iter().skip(half).sum::<f64>() / (st.ring_cap - half) as f64;
                        if cur >= 1.0 {
                            (cur / prev.max(1.0)) / factor
                        } else {
                            0.0
                        }
                    } else {
                        0.0
                    }
                }
            };
            // Burn is quantised to thousandths *before* the breach
            // decision, so the event log and the exported burn series
            // agree exactly: in-breach ⇔ series value ≥ 1.0.
            let value_milli = (burn * 1000.0).round() as u64;
            st.burn.record(now, value_milli as f64 / 1000.0);
            let breaching = value_milli >= 1000;
            if breaching != st.active {
                st.active = breaching;
                let kind = if breaching {
                    SloEventKind::BreachBegin
                } else {
                    SloEventKind::BreachEnd
                };
                self.events.push(SloEvent {
                    rule: ri,
                    kind,
                    at: now,
                    series: rule.series(),
                    window: rule.window(),
                    value_milli,
                });
                if tracer.enabled() {
                    tracer.record(TraceEvent {
                        at: now,
                        component: "slo",
                        name: match kind {
                            SloEventKind::BreachBegin => "breach_begin",
                            SloEventKind::BreachEnd => "breach_end",
                        },
                        a: ri as u64,
                        b: value_milli,
                    });
                }
            }
        }
    }

    /// Finalises the recording into a report, annotated with the fault
    /// episodes that ran during the window. A breach still open at the
    /// last tick stays open (no synthetic end event).
    pub fn finish(self, episodes: Vec<EpisodeNote>) -> TelemetryReport {
        TelemetryReport {
            tick: self.tick,
            ticks: self.ticks,
            rules: self.rules,
            events: self.events,
            episodes,
            counters: self
                .counter_names
                .into_iter()
                .zip(self.counter_series)
                .collect(),
            gauges: self
                .gauge_names
                .into_iter()
                .zip(self.gauge_series)
                .collect(),
            burn: self.states.into_iter().map(|s| s.burn).collect(),
            health: self
                .health_names
                .into_iter()
                .zip(self.health_series)
                .collect(),
        }
    }
}

fn push_ring(ring: &mut VecDeque<f64>, cap: usize, v: f64) {
    if ring.len() == cap {
        ring.pop_front();
    }
    ring.push_back(v);
}

fn ring_mean(ring: &VecDeque<f64>) -> f64 {
    if ring.is_empty() {
        return 0.0;
    }
    ring.iter().sum::<f64>() / ring.len() as f64
}

/// The finished recording: bucketed series, the SLO event log, health
/// trajectories, and episode annotations, with deterministic JSON/CSV
/// and Perfetto serialisations.
pub struct TelemetryReport {
    /// Sampling period.
    pub tick: SimDuration,
    /// Ticks taken.
    pub ticks: u64,
    /// The rules that were evaluated (index = `SloEvent::rule`).
    pub rules: Vec<SloRule>,
    /// Breach transitions, in tick order.
    pub events: Vec<SloEvent>,
    /// Fault episodes that ran during the recording.
    pub episodes: Vec<EpisodeNote>,
    counters: Vec<(&'static str, TimeSeries)>,
    gauges: Vec<(&'static str, TimeSeries)>,
    burn: Vec<TimeSeries>,
    health: Vec<(String, TimeSeries)>,
}

impl TelemetryReport {
    /// Looks a counter-rate series up by name (values are deltas per
    /// tick).
    pub fn counter_series(&self, name: &str) -> Option<&TimeSeries> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s)
    }

    /// Looks a gauge series up by name (values are last-at-tick).
    pub fn gauge_series(&self, name: &str) -> Option<&TimeSeries> {
        self.gauges.iter().find(|(n, _)| *n == name).map(|(_, s)| s)
    }

    /// Burn-rate series of rule `i` (values quantised to thousandths,
    /// exactly as the breach decision saw them).
    pub fn burn_series(&self, i: usize) -> &TimeSeries {
        &self.burn[i]
    }

    /// `(entity name, score series)` per registered health entity.
    pub fn health_series(&self) -> impl Iterator<Item = (&str, &TimeSeries)> {
        self.health.iter().map(|(n, s)| (n.as_str(), s))
    }

    /// Serialises the report as one deterministic JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 * 1024);
        let _ = write!(
            out,
            "{{\"tick_ns\":{},\"ticks\":{},\"rules\":[",
            self.tick.as_nanos(),
            self.ticks
        );
        for (i, r) in self.rules.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&r.to_json());
        }
        out.push_str("],\"events\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"rule\":{},\"kind\":\"{}\",\"t_ns\":{},\"series\":\"{}\",\"window_ns\":{},\"value_milli\":{}}}",
                e.rule,
                e.kind.name(),
                e.at.as_nanos(),
                e.series,
                e.window.as_nanos(),
                e.value_milli
            );
        }
        out.push_str("],\"episodes\":[");
        for (i, ep) in self.episodes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"start_ns\":{},\"end_ns\":{},\"kind\":\"{}\",\"affected\":[",
                ep.start.as_nanos(),
                ep.end.as_nanos(),
                ep.kind
            );
            for (j, a) in ep.affected.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{a}\"");
            }
            out.push_str("]}");
        }
        out.push_str("],\"series\":{");
        let mut first = true;
        for (name, s) in &self.counters {
            series_json(&mut out, &mut first, name, &s.means());
        }
        for (name, s) in &self.gauges {
            series_json(&mut out, &mut first, name, &s.lasts());
        }
        for (i, s) in self.burn.iter().enumerate() {
            series_json(&mut out, &mut first, &format!("slo{i}.burn"), &s.lasts());
        }
        out.push_str("},\"health\":{");
        let mut first = true;
        for (name, s) in &self.health {
            series_json(&mut out, &mut first, name, &s.lasts());
        }
        out.push_str("}}");
        out
    }

    /// `series,t_ns,value` CSV over every counter, gauge and burn
    /// series.
    pub fn series_csv(&self) -> String {
        let mut out = String::from("series,t_ns,value\n");
        for (name, s) in &self.counters {
            for (t, v) in s.means() {
                let _ = writeln!(out, "{},{},{:.3}", name, t.as_nanos(), v);
            }
        }
        for (name, s) in &self.gauges {
            for (t, v) in s.lasts() {
                let _ = writeln!(out, "{},{},{:.3}", name, t.as_nanos(), v);
            }
        }
        for (i, s) in self.burn.iter().enumerate() {
            for (t, v) in s.lasts() {
                let _ = writeln!(out, "slo{}.burn,{},{:.3}", i, t.as_nanos(), v);
            }
        }
        out
    }

    /// `entity,t_ns,score` CSV over every health trajectory.
    pub fn health_csv(&self) -> String {
        let mut out = String::from("entity,t_ns,score\n");
        for (name, s) in &self.health {
            for (t, v) in s.lasts() {
                let _ = writeln!(out, "{},{},{:.3}", name, t.as_nanos(), v);
            }
        }
        out
    }

    /// `rule,kind,t_ns,series,window_ns,value_milli` CSV of the SLO
    /// event log.
    pub fn events_csv(&self) -> String {
        let mut out = String::from("rule,kind,t_ns,series,window_ns,value_milli\n");
        for e in &self.events {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{}",
                e.rule,
                e.kind.name(),
                e.at.as_nanos(),
                e.series,
                e.window.as_nanos(),
                e.value_milli
            );
        }
        out
    }

    /// Perfetto (Chrome trace format) events for the telemetry process:
    /// one `"C"` counter track per series under
    /// [`PERFETTO_TELEMETRY_PID`], plus an instant per SLO transition —
    /// each event serialised as one JSON object string.
    /// `adios_core::perfetto_json` puts them on one timeline with the
    /// span exemplars and the other planes' tracks.
    pub fn perfetto_counter_events(&self) -> Vec<String> {
        fn us(t: SimTime) -> String {
            format!("{:.3}", t.as_nanos() as f64 / 1000.0)
        }
        let pid = PERFETTO_TELEMETRY_PID;
        let mut evs = vec![format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\"args\":{{\"name\":\"telemetry\"}}}}"
        )];
        let mut counter = |name: &str, pts: Vec<(SimTime, f64)>| {
            for (t, v) in pts {
                evs.push(format!(
                    "{{\"ph\":\"C\",\"pid\":{pid},\"name\":\"{}\",\"ts\":{},\"args\":{{\"value\":{:.3}}}}}",
                    name,
                    us(t),
                    v
                ));
            }
        };
        for (name, s) in &self.counters {
            counter(name, s.means());
        }
        for (name, s) in &self.gauges {
            counter(name, s.lasts());
        }
        for (i, s) in self.burn.iter().enumerate() {
            counter(&format!("slo{i}.burn"), s.lasts());
        }
        for (name, s) in &self.health {
            counter(&format!("health.{name}"), s.lasts());
        }
        for e in &self.events {
            evs.push(format!(
                "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":0,\"ts\":{},\"name\":\"slo{} breach {}\",\"s\":\"p\"}}",
                us(e.at),
                e.rule,
                e.kind.name()
            ));
        }
        evs
    }
}

fn series_json(out: &mut String, first: &mut bool, name: &str, pts: &[(SimTime, f64)]) {
    if !*first {
        out.push(',');
    }
    *first = false;
    let _ = write!(out, "\"{name}\":[");
    for (i, (t, v)) in pts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{},{:.3}]", t.as_nanos(), v);
    }
    out.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::NoopTracer;

    #[test]
    fn spec_grammar_round_trips() {
        let rules = parse_slo_spec("lat<20us:0.05@1ms, err<0.01@1ms,qgrow>2@500us").unwrap();
        assert_eq!(
            rules,
            vec![
                SloRule::LatencyBurn {
                    objective: SimDuration::from_micros(20),
                    budget: 0.05,
                    window: SimDuration::from_millis(1),
                },
                SloRule::ErrorBudget {
                    budget: 0.01,
                    window: SimDuration::from_millis(1),
                },
                SloRule::QueueGrowth {
                    factor: 2.0,
                    window: SimDuration::from_micros(500),
                },
            ]
        );
    }

    #[test]
    fn spec_grammar_rejects_nonsense() {
        for bad in [
            "",
            "lat<20us@1ms",           // missing budget
            "lat<20us:0.05",          // missing window
            "err<1.5@1ms",            // fraction out of range
            "qgrow>-2@1ms",           // negative factor
            "foo<1@1ms",              // unknown rule
            "lat<20parsecs:0.05@1ms", // bad unit
        ] {
            assert!(parse_slo_spec(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn health_score_weights_and_clamp() {
        let idle = HealthInput::default();
        assert_eq!(health_score(&idle), 100.0);
        let busy = HealthInput {
            outstanding: 32.0,
            capacity: 64.0,
            ..HealthInput::default()
        };
        assert_eq!(health_score(&busy), 80.0); // 40·0.5
        let dying = HealthInput {
            outstanding: 1000.0,
            capacity: 1.0,
            error_chains: 50.0,
            retransmit_rate: 10.0,
            degraded_queue: 1000.0,
        };
        assert_eq!(health_score(&dying), 0.0); // every term saturates
        let zero_capacity = HealthInput {
            outstanding: 5.0,
            capacity: 0.0,
            ..HealthInput::default()
        };
        assert_eq!(health_score(&zero_capacity), 100.0);
    }

    #[test]
    fn latency_burn_opens_and_closes_a_breach() {
        let mut m = Metrics::new();
        let _c = m.counter("completions");
        let cfg = TelemetryConfig {
            tick: SimDuration::from_micros(10),
            rules: vec![SloRule::LatencyBurn {
                objective: SimDuration::from_micros(5),
                budget: 0.1,
                window: SimDuration::from_micros(20), // 2 ticks
            }],
        };
        let mut rec = FlightRecorder::new(cfg, &m);
        let mut tracer = NoopTracer;
        let mut now = SimTime::ZERO;
        let mut step = |rec: &mut FlightRecorder, over: bool| {
            now += SimDuration::from_micros(10);
            for _ in 0..10 {
                rec.on_completion(if over {
                    SimDuration::from_micros(50)
                } else {
                    SimDuration::from_micros(1)
                });
            }
            rec.tick(now, &m, &[], &mut tracer);
        };
        step(&mut rec, false);
        step(&mut rec, false);
        step(&mut rec, true); // window frac 0.5 ⇒ burn 5 ⇒ breach
        step(&mut rec, true);
        step(&mut rec, false);
        step(&mut rec, false); // window clean ⇒ burn 0 ⇒ clear
        let rep = rec.finish(Vec::new());
        let kinds: Vec<_> = rep.events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![SloEventKind::BreachBegin, SloEventKind::BreachEnd]
        );
        assert_eq!(rep.events[0].at, SimTime(30_000));
        assert_eq!(rep.events[1].at, SimTime(60_000));
        assert_eq!(rep.events[0].series, "latency");
        assert!(rep.events[0].value_milli >= 1000);
        assert!(rep.events[1].value_milli < 1000);
        // The burn series agrees with the decisions it produced.
        for (t, v) in rep.burn_series(0).lasts() {
            let inside = t >= rep.events[0].at && t < rep.events[1].at;
            assert_eq!(v >= 1.0, inside, "burn series disagrees at {t}");
        }
    }

    #[test]
    fn counter_deltas_and_rebase() {
        let mut m = Metrics::new();
        let c = m.counter("work");
        let cfg = TelemetryConfig {
            tick: SimDuration::from_micros(10),
            rules: default_rules(),
        };
        let mut rec = FlightRecorder::new(cfg, &m);
        let mut tracer = NoopTracer;
        m.add(c, 7);
        rec.tick(SimTime(10_000), &m, &[], &mut tracer);
        m.add(c, 3);
        // Warm-up boundary: bank the 3 not-yet-sampled counts, zero
        // the registry, re-sync the baselines.
        rec.bank(&m);
        m.reset(SimTime(15_000));
        rec.rebase(&m);
        m.add(c, 4);
        rec.tick(SimTime(20_000), &m, &[], &mut tracer);
        let rep = rec.finish(Vec::new());
        let pts = rep.counter_series("work").unwrap().means();
        // Second tick: 4 counted after the reset + the 3 banked across
        // it — the full period, not a clamped partial.
        assert_eq!(pts, vec![(SimTime(10_000), 7.0), (SimTime(20_000), 7.0)]);
    }

    /// Regression: a `Metrics::reset` between ticks lowers every
    /// counter below the recorder's baseline; the saturating delta
    /// then silently clamps the pre-reset tail to zero unless it is
    /// banked. Conservation must hold across the boundary: the series
    /// total equals every count ever added.
    #[test]
    fn rebase_boundary_conserves_counts() {
        let mut m = Metrics::new();
        let c = m.counter("work");
        let cfg = TelemetryConfig {
            tick: SimDuration::from_micros(10),
            rules: default_rules(),
        };
        let mut rec = FlightRecorder::new(cfg, &m);
        let mut tracer = NoopTracer;
        let mut added = 0u64;
        for i in 0..10u64 {
            m.add(c, 5 + i);
            added += 5 + i;
            // Reset mid-stream every third tick, like the warm-up
            // boundary does (but misaligned with the tick grid).
            if i == 3 || i == 7 {
                m.add(c, 2);
                added += 2;
                rec.bank(&m);
                m.reset(SimTime(i * 10_000 + 5_000));
                rec.rebase(&m);
            }
            rec.tick(SimTime((i + 1) * 10_000), &m, &[], &mut tracer);
        }
        let rep = rec.finish(Vec::new());
        let total: f64 = rep
            .counter_series("work")
            .unwrap()
            .means()
            .iter()
            .map(|(_, v)| v)
            .sum();
        assert_eq!(total as u64, added, "counts lost across rebase");
    }

    #[test]
    fn queue_growth_detects_a_ramp() {
        let mut m = Metrics::new();
        let q = m.gauge("queue_depth");
        let cfg = TelemetryConfig {
            tick: SimDuration::from_micros(10),
            rules: vec![SloRule::QueueGrowth {
                factor: 2.0,
                window: SimDuration::from_micros(20), // 2-tick halves
            }],
        };
        let mut rec = FlightRecorder::new(cfg, &m);
        let mut tracer = NoopTracer;
        let depths = [2.0, 2.0, 2.0, 2.0, 8.0, 8.0, 8.0, 8.0];
        for (i, &d) in depths.iter().enumerate() {
            let t = SimTime((i as u64 + 1) * 10_000);
            m.gauge_set(q, t, d);
            rec.tick(t, &m, &[], &mut tracer);
        }
        let rep = rec.finish(Vec::new());
        assert!(
            rep.events
                .iter()
                .any(|e| e.kind == SloEventKind::BreachBegin && e.series == "queue_depth"),
            "ramp from 2 to 8 must trip the 2x growth rule: {:?}",
            rep.events
        );
    }

    #[test]
    fn report_json_shape() {
        let m = Metrics::new();
        let cfg = TelemetryConfig::default();
        let mut rec = FlightRecorder::new(cfg, &m);
        rec.register_health("qp0".to_string());
        let mut tracer = NoopTracer;
        rec.tick(SimTime(100_000), &m, &[HealthInput::default()], &mut tracer);
        let rep = rec.finish(vec![EpisodeNote {
            start: SimTime(0),
            end: SimTime(50_000),
            kind: "link_degraded",
            affected: vec!["*".to_string()],
        }]);
        let json = rep.to_json();
        assert!(json.starts_with("{\"tick_ns\":100000,\"ticks\":1,"));
        assert!(json.contains("\"episodes\":[{\"start_ns\":0,\"end_ns\":50000,\"kind\":\"link_degraded\",\"affected\":[\"*\"]}]"));
        assert!(json.contains("\"health\":{\"qp0\":[[100000,100.000]]}"));
        assert!(json.contains("\"slo0.burn\":[[100000,0.000]]"));
        assert!(rep.health_csv().contains("qp0,100000,100.000"));
        let tracks = rep.perfetto_counter_events();
        assert!(tracks.iter().any(|e| e.contains("\"ph\":\"C\"")));
    }
}
