//! Deterministic fault plane for the disaggregation fabric.
//!
//! Production RDMA deployments are not lossless: packets drop, CQEs
//! surface errors, links flap, and memory nodes stall or crash. This
//! crate models those conditions as a **fault plane** that the fabric
//! and runtime consult at well-defined points in virtual time:
//!
//! - a [`FaultScenario`] is a pure description — steady-state per-packet
//!   loss / corruption / CQE-error probabilities plus a list of
//!   [`Episode`]s (time windows during which a link degrades or a
//!   memnode stalls or goes down);
//! - a [`FaultPlane`] is the scenario armed with a seeded [`desim::Rng`]
//!   stream. Every probabilistic draw comes from that stream, so a run
//!   with the same seed and scenario replays byte-identically;
//! - [`FaultPlane::inert`] is the zero-probability plane: it never draws
//!   from the rng and answers every query with "healthy", so fault-free
//!   runs are bit-identical to runs built before this crate existed.
//!
//! Episode placement is part of the scenario (fixed, deterministic
//! windows), not of the rng stream: two planes built from the same
//! scenario agree on *when* a link flaps regardless of seed; the seed
//! only decides *which* packets inside a lossy window are dropped.

use desim::{Rng, SimDuration, SimTime};

/// Health of a memory node at a queried instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeHealth {
    /// Serving normally.
    Up,
    /// Alive but slow: every access pays the given extra latency.
    Stalled(SimDuration),
    /// Unreachable: packets sent to it are lost.
    Down,
}

/// Extra cost the fabric link pays at a queried instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkPenalty {
    /// Added one-way latency on top of normal propagation.
    pub extra_latency: SimDuration,
    /// Serialization-time multiplier (1.0 = full bandwidth; 4.0 means
    /// the link is running at a quarter of its nominal bandwidth).
    pub bw_factor: f64,
}

impl LinkPenalty {
    /// No penalty: the link is healthy.
    pub const NONE: LinkPenalty = LinkPenalty {
        extra_latency: SimDuration::ZERO,
        bw_factor: 1.0,
    };
}

/// What happens during an [`Episode`]'s window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EpisodeKind {
    /// The compute↔memnode link runs degraded: extra one-way latency,
    /// reduced bandwidth, and an *additional* per-packet loss
    /// probability on top of the scenario's steady-state loss.
    LinkDegraded {
        extra_latency: SimDuration,
        bw_factor: f64,
        loss: f64,
    },
    /// Memnode `node` is alive but stalls every access by `stall`
    /// (e.g. background compaction, ECC scrubbing, a hiccuping DIMM).
    NodeStall { node: u32, stall: SimDuration },
    /// Memnode `node` is unreachable; packets to it are lost and the
    /// runtime must fail the fetch over to a replica.
    NodeDown { node: u32 },
}

/// A fault episode: `kind` holds over the half-open window
/// `[start, end)` of virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Episode {
    pub start: SimTime,
    pub end: SimTime,
    pub kind: EpisodeKind,
}

impl Episode {
    /// Whether `at` falls inside this episode's window.
    #[inline]
    pub fn active_at(&self, at: SimTime) -> bool {
        self.start <= at && at < self.end
    }
}

/// A complete, declarative fault scenario.
///
/// Probabilities are per *packet* (one request or one response message
/// on the wire), not per work request; a READ whose request and
/// response both survive still completes in one round trip.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultScenario {
    /// Scenario name (stable identifier used by `--faults <name>`).
    pub name: &'static str,
    /// Steady-state per-packet loss probability.
    pub loss: f64,
    /// Steady-state per-packet corruption probability. A corrupted
    /// packet is NAK'd / CRC-dropped by the receiver, so the transport
    /// treats it exactly like a loss (retransmit path).
    pub corrupt: f64,
    /// Probability that a *delivered* completion is reported as a fatal
    /// CQE error (e.g. remote protection fault, WR flushed).
    pub cqe_error: f64,
    /// Scheduled fault windows.
    pub episodes: Vec<Episode>,
}

impl FaultScenario {
    /// The empty scenario: nothing ever fails.
    pub fn none() -> FaultScenario {
        FaultScenario {
            name: "none",
            loss: 0.0,
            corrupt: 0.0,
            cqe_error: 0.0,
            episodes: Vec::new(),
        }
    }

    /// Steady 2 % packet loss — the "congested pod" scenario. Enough
    /// that ~4 % of fetches eat at least one retransmission timeout.
    /// One 2 ms congestion spike at t = 5 ms (half bandwidth, +4 µs
    /// one-way latency, an extra 10 % loss) gives fault-aware policies
    /// and SLO burn-rate tests a clean before/during/after signal.
    pub fn lossy() -> FaultScenario {
        let spike_start = SimTime(5_000_000);
        FaultScenario {
            name: "lossy",
            loss: 0.02,
            corrupt: 0.002,
            cqe_error: 0.0,
            episodes: vec![Episode {
                start: spike_start,
                end: spike_start + SimDuration::from_millis(2),
                kind: EpisodeKind::LinkDegraded {
                    extra_latency: SimDuration::from_micros(4),
                    bw_factor: 2.0,
                    loss: 0.10,
                },
            }],
        }
    }

    /// Mild steady loss plus periodic link-degradation windows: every
    /// 20 ms the link spends 2 ms at half bandwidth, +2 µs one-way
    /// latency, and an extra 5 % loss (an incast / failover-reroute
    /// flap).
    pub fn flaky() -> FaultScenario {
        let mut episodes = Vec::new();
        for i in 0..50u64 {
            let start = SimTime(i * 20_000_000 + 5_000_000);
            episodes.push(Episode {
                start,
                end: start + SimDuration::from_millis(2),
                kind: EpisodeKind::LinkDegraded {
                    extra_latency: SimDuration::from_micros(2),
                    bw_factor: 2.0,
                    loss: 0.05,
                },
            });
        }
        FaultScenario {
            name: "flaky",
            loss: 0.005,
            corrupt: 0.0,
            cqe_error: 0.0,
            episodes,
        }
    }

    /// Periodic memnode stalls: every 10 ms, node 0 stalls all accesses
    /// by 50 µs for a 1 ms window (compaction / scrubbing hiccups).
    pub fn stall() -> FaultScenario {
        let mut episodes = Vec::new();
        for i in 0..100u64 {
            let start = SimTime(i * 10_000_000 + 3_000_000);
            episodes.push(Episode {
                start,
                end: start + SimDuration::from_millis(1),
                kind: EpisodeKind::NodeStall {
                    node: 0,
                    stall: SimDuration::from_micros(50),
                },
            });
        }
        FaultScenario {
            name: "stall",
            loss: 0.0,
            corrupt: 0.0,
            cqe_error: 0.0,
            episodes,
        }
    }

    /// Primary-memnode crash: node 0 goes dark from t = 10 ms to
    /// t = 60 ms. Requires a replica memnode for the run to survive —
    /// exercises the runtime's failover path end to end.
    pub fn crash() -> FaultScenario {
        FaultScenario {
            name: "crash",
            loss: 0.0,
            corrupt: 0.0,
            cqe_error: 0.001,
            episodes: vec![Episode {
                start: SimTime(10_000_000),
                end: SimTime(60_000_000),
                kind: EpisodeKind::NodeDown { node: 0 },
            }],
        }
    }

    /// Crash of a specific memnode: `node` goes dark from t = 10 ms to
    /// t = 60 ms with no steady-state noise. Under a sharded layout
    /// this downs exactly one shard's chain member, so failovers (and
    /// nothing else) concentrate on that shard — the isolation property
    /// the shard-scaling experiment checks. `crash_node(0)` is
    /// [`FaultScenario::crash`] minus its steady CQE-error trickle.
    pub fn crash_node(node: u32) -> FaultScenario {
        FaultScenario {
            name: "crash-node",
            loss: 0.0,
            corrupt: 0.0,
            cqe_error: 0.0,
            episodes: vec![Episode {
                start: SimTime(10_000_000),
                end: SimTime(60_000_000),
                kind: EpisodeKind::NodeDown { node },
            }],
        }
    }

    /// Looks a scenario up by its stable name.
    pub fn by_name(name: &str) -> Option<FaultScenario> {
        match name {
            "none" => Some(FaultScenario::none()),
            "lossy" => Some(FaultScenario::lossy()),
            "flaky" => Some(FaultScenario::flaky()),
            "stall" => Some(FaultScenario::stall()),
            "crash" => Some(FaultScenario::crash()),
            _ => None,
        }
    }

    /// All stable scenario names, for CLI help text.
    pub fn names() -> &'static [&'static str] {
        &["none", "lossy", "flaky", "stall", "crash"]
    }

    /// A scenario with a specific steady loss rate (used by sweeps).
    pub fn with_loss(loss: f64) -> FaultScenario {
        assert!((0.0..1.0).contains(&loss), "loss must be in [0, 1)");
        FaultScenario {
            name: "loss-sweep",
            loss,
            corrupt: 0.0,
            cqe_error: 0.0,
            episodes: Vec::new(),
        }
    }

    /// Whether this scenario can ever inject anything.
    pub fn is_inert(&self) -> bool {
        self.loss == 0.0 && self.corrupt == 0.0 && self.cqe_error == 0.0 && self.episodes.is_empty()
    }
}

/// Injection counters, folded into the run's metric registry at
/// finalization.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Packets dropped (steady-state loss + episode loss + corruption).
    pub losses: u64,
    /// Delivered completions flipped to fatal CQE errors.
    pub cqe_errors: u64,
}

/// A [`FaultScenario`] armed with a seeded rng stream.
///
/// The plane is consulted by `fabric::nic` on every packet send and by
/// the runtime when choosing a memnode; all its answers depend only on
/// (scenario, seed, query arguments), never on host state.
#[derive(Debug, Clone)]
pub struct FaultPlane {
    scenario: FaultScenario,
    rng: Rng,
    active: bool,
    stats: FaultStats,
}

impl FaultPlane {
    /// The do-nothing plane. Never draws from its rng, so arming a run
    /// with `inert()` leaves its event stream bit-identical to a run
    /// that predates fault injection.
    pub fn inert() -> FaultPlane {
        FaultPlane {
            scenario: FaultScenario::none(),
            rng: Rng::new(0),
            active: false,
            stats: FaultStats::default(),
        }
    }

    /// Arms `scenario` with an rng stream forked from `seed`.
    pub fn new(scenario: FaultScenario, seed: u64) -> FaultPlane {
        let active = !scenario.is_inert();
        FaultPlane {
            scenario,
            rng: Rng::new(seed),
            active,
            stats: FaultStats::default(),
        }
    }

    /// Whether this plane can inject anything at all. The fabric uses
    /// this as a fast path: an inert plane costs one branch per post.
    #[inline]
    pub fn active(&self) -> bool {
        self.active
    }

    /// The scenario this plane was armed with.
    pub fn scenario(&self) -> &FaultScenario {
        &self.scenario
    }

    /// Draws whether a packet put on the wire at `at` is lost (dropped,
    /// or corrupted and NAK'd — the transport reacts identically).
    #[inline]
    pub fn packet_lost(&mut self, at: SimTime) -> bool {
        if !self.active {
            return false;
        }
        let mut p = self.scenario.loss + self.scenario.corrupt;
        for ep in &self.scenario.episodes {
            if let EpisodeKind::LinkDegraded { loss, .. } = ep.kind {
                if ep.active_at(at) {
                    p += loss;
                }
            }
        }
        if p <= 0.0 {
            return false;
        }
        let lost = self.rng.gen_bool(p.min(1.0));
        if lost {
            self.stats.losses += 1;
        }
        lost
    }

    /// Draws whether a completion delivered at `at` is reported as a
    /// fatal CQE error instead of a success.
    #[inline]
    pub fn cqe_error(&mut self, _at: SimTime) -> bool {
        if !self.active || self.scenario.cqe_error <= 0.0 {
            return false;
        }
        let err = self.rng.gen_bool(self.scenario.cqe_error);
        if err {
            self.stats.cqe_errors += 1;
        }
        err
    }

    /// Health of memnode `node` at instant `at`. `Down` dominates
    /// `Stalled`; overlapping stalls add up.
    #[inline]
    pub fn node_health(&self, node: u32, at: SimTime) -> NodeHealth {
        if !self.active {
            return NodeHealth::Up;
        }
        let mut stall = SimDuration::ZERO;
        for ep in &self.scenario.episodes {
            if !ep.active_at(at) {
                continue;
            }
            match ep.kind {
                EpisodeKind::NodeDown { node: n } if n == node => return NodeHealth::Down,
                EpisodeKind::NodeStall { node: n, stall: s } if n == node => stall += s,
                _ => {}
            }
        }
        if stall > SimDuration::ZERO {
            NodeHealth::Stalled(stall)
        } else {
            NodeHealth::Up
        }
    }

    /// Aggregate link penalty at instant `at`: extra latencies add,
    /// bandwidth factors multiply.
    #[inline]
    pub fn link_penalty(&self, at: SimTime) -> LinkPenalty {
        if !self.active {
            return LinkPenalty::NONE;
        }
        let mut pen = LinkPenalty::NONE;
        for ep in &self.scenario.episodes {
            if let EpisodeKind::LinkDegraded {
                extra_latency,
                bw_factor,
                ..
            } = ep.kind
            {
                if ep.active_at(at) {
                    pen.extra_latency += extra_latency;
                    pen.bw_factor *= bw_factor;
                }
            }
        }
        pen
    }

    /// Whether any episode window covers `at` (drives the runtime's
    /// degraded-mode gauge).
    #[inline]
    pub fn episode_active(&self, at: SimTime) -> bool {
        self.active && self.scenario.episodes.iter().any(|e| e.active_at(at))
    }

    /// Injection counters so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_plane_never_injects() {
        let mut p = FaultPlane::inert();
        assert!(!p.active());
        for i in 0..10_000 {
            let t = SimTime(i * 100);
            assert!(!p.packet_lost(t));
            assert!(!p.cqe_error(t));
            assert_eq!(p.node_health(0, t), NodeHealth::Up);
            assert_eq!(p.link_penalty(t), LinkPenalty::NONE);
        }
        assert_eq!(p.stats(), FaultStats::default());
    }

    #[test]
    fn loss_rate_matches_scenario() {
        let mut p = FaultPlane::new(FaultScenario::with_loss(0.02), 7);
        let n = 200_000;
        let lost = (0..n).filter(|i| p.packet_lost(SimTime(*i))).count();
        let rate = lost as f64 / n as f64;
        assert!((0.015..0.025).contains(&rate), "rate {rate}");
        assert_eq!(p.stats().losses, lost as u64);
    }

    #[test]
    fn same_seed_same_draws() {
        let mut a = FaultPlane::new(FaultScenario::lossy(), 42);
        let mut b = FaultPlane::new(FaultScenario::lossy(), 42);
        for i in 0..50_000 {
            let t = SimTime(i * 37);
            assert_eq!(a.packet_lost(t), b.packet_lost(t));
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn episode_windows_are_half_open() {
        let p = FaultPlane::new(FaultScenario::crash(), 1);
        assert_eq!(p.node_health(0, SimTime(9_999_999)), NodeHealth::Up);
        assert_eq!(p.node_health(0, SimTime(10_000_000)), NodeHealth::Down);
        assert_eq!(p.node_health(0, SimTime(59_999_999)), NodeHealth::Down);
        assert_eq!(p.node_health(0, SimTime(60_000_000)), NodeHealth::Up);
        // Replica (node 1) is unaffected throughout.
        assert_eq!(p.node_health(1, SimTime(30_000_000)), NodeHealth::Up);
    }

    #[test]
    fn stalls_accumulate_and_report() {
        let p = FaultPlane::new(FaultScenario::stall(), 1);
        match p.node_health(0, SimTime(3_500_000)) {
            NodeHealth::Stalled(d) => assert_eq!(d, SimDuration::from_micros(50)),
            other => panic!("expected stall, got {other:?}"),
        }
        assert_eq!(p.node_health(0, SimTime(1_000_000)), NodeHealth::Up);
    }

    #[test]
    fn link_penalty_applies_inside_flap_window() {
        let p = FaultPlane::new(FaultScenario::flaky(), 1);
        let inside = p.link_penalty(SimTime(5_500_000));
        assert_eq!(inside.extra_latency, SimDuration::from_micros(2));
        assert!((inside.bw_factor - 2.0).abs() < 1e-12);
        let outside = p.link_penalty(SimTime(1_000_000));
        assert_eq!(outside, LinkPenalty::NONE);
        assert!(p.episode_active(SimTime(5_500_000)));
        assert!(!p.episode_active(SimTime(1_000_000)));
    }

    #[test]
    fn crash_node_downs_exactly_that_node() {
        let p = FaultPlane::new(FaultScenario::crash_node(3), 7);
        let mid = SimTime(30_000_000);
        assert_eq!(p.node_health(3, mid), NodeHealth::Down);
        for other in [0, 1, 2, 4] {
            assert_eq!(p.node_health(other, mid), NodeHealth::Up, "node {other}");
        }
        // Same window as `crash`, but none of its steady CQE-error
        // trickle: errors can only come from the targeted node.
        assert_eq!(p.node_health(3, SimTime(9_999_999)), NodeHealth::Up);
        assert_eq!(p.node_health(3, SimTime(60_000_000)), NodeHealth::Up);
        assert_eq!(FaultScenario::crash_node(0).cqe_error, 0.0);
        assert!(!FaultScenario::crash_node(0).is_inert());
    }

    #[test]
    fn by_name_roundtrip_and_rejection() {
        for name in FaultScenario::names() {
            let s = FaultScenario::by_name(name).expect("known scenario");
            assert_eq!(&s.name, name);
        }
        assert!(FaultScenario::by_name("nope").is_none());
        assert!(FaultScenario::none().is_inert());
        assert!(!FaultScenario::lossy().is_inert());
    }
}
