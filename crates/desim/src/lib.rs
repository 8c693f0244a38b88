//! Discrete-event simulation kernel for the Adios reproduction.
//!
//! This crate provides the deterministic building blocks every simulated
//! component is made of:
//!
//! - [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated time,
//!   with conversions to CPU cycles at the testbed clock rate (2 GHz, the
//!   Intel Xeon Gold 6330 of the paper's compute node).
//! - [`EventQueue`] — a total-order event queue: one ring kept sorted
//!   by time. Ties in timestamps are broken by insertion order, so a
//!   simulation run is a pure function of its inputs and seed.
//! - [`Rng`] — a small, seedable xoshiro256** generator (no external
//!   dependency, so results never change under a dependency bump), with
//!   samplers for the distributions the experiments need (uniform,
//!   exponential for Poisson arrival processes, normal).
//! - [`Histogram`] — an HDR-style log-bucketed latency histogram with
//!   ~1.5 % relative error, used for every P50/P99/P99.9 figure.
//! - [`trace`] — virtual-time tracing ([`Tracer`], [`RingTracer`]) and
//!   the typed counter/gauge registry ([`Metrics`]) every component
//!   reports through.
//! - [`span`] — per-request span trees ([`SpanBuilder`], [`SpanStore`])
//!   with exact critical-path attribution ([`CriticalPath`]), per-stage
//!   histograms, tail exemplars, and their Perfetto tracks.
//! - [`telemetry`] — continuous telemetry: a virtual-time
//!   [`FlightRecorder`] sampling every counter/gauge once per tick,
//!   per-entity health scores, and an SLO
//!   burn-rate engine emitting typed [`SloEvent`]s into the trace ring.
//! - [`profile`] — virtual-time core profiler ([`CoreProfiler`]) tiling
//!   every core's timeline exhaustively into typed [`CoreState`]s, plus
//!   queue probes ([`QueueProbe`]) with a Little's-law cross-check and
//!   folded-stack flamegraph export.
//! - [`json`] — the one JSON writer every report serialises through
//!   ([`json::Writer`], [`json::ToJson`]) and the Perfetto timeline
//!   document the span layer and the planes write their tracks into
//!   ([`json::Perfetto`]).

pub mod event;
pub mod hist;
pub mod json;
pub mod profile;
pub mod rng;
pub mod span;
pub mod telemetry;
pub mod time;
pub mod trace;

pub use event::EventQueue;
pub use hist::Histogram;
pub use profile::{
    CoreProfiler, CoreReport, CoreState, ProfileConfig, ProfileReport, QueueProbe, QueueReport,
};
pub use rng::Rng;
pub use span::{
    CriticalPath, Span, SpanBuilder, SpanConfig, SpanReport, SpanStore, SpanTree, StageStats,
};
pub use telemetry::{
    health_score, parse_slo_spec, EpisodeNote, FlightRecorder, HealthInput, SloEvent, SloEventKind,
    SloRule, TelemetryConfig, TelemetryReport,
};
pub use time::{SimDuration, SimTime, CYCLES_PER_SEC, NS_PER_SEC};
pub use trace::{
    CounterId, GaugeId, Metrics, MetricsSnapshot, NoopTracer, RingTracer, TraceCode, TraceEvent,
    TraceLog, Tracer,
};
