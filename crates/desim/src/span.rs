//! Per-request span trees, critical-path attribution, and Perfetto export.
//!
//! A [`SpanBuilder`] records one request's life as a tree of spans:
//! a root `request` span covering arrival→reply, structural children
//! (`segment` per worker occupancy, `fault` per page fault, `fetch` per
//! RDMA read with `nic_queue`/`wire` sub-spans), and a gap-free tiling
//! of *phase* spans ([`stage`]) that partitions the whole end-to-end
//! interval. The tiling is enforced by construction: [`SpanBuilder::phase`]
//! always extends from the builder's cursor (the end of the previous
//! phase) to the given instant, so phase durations sum to the
//! end-to-end latency *exactly* — the invariant the critical-path
//! attribution ([`CriticalPath`]) and the figure-2c/7c breakdowns rest
//! on.
//!
//! Records are fixed-size and carry no text. A [`Span`] is 40 bytes and
//! its name is a [`Name`]: one byte, spelled [`stage`]`::*` /
//! [`node`]`::*` at call sites and turned into text only by the
//! exporters ([`Name::as_str`], `Display`). The attribution is kept as
//! the tree grows — [`SpanBuilder::phase`] adds each phase to its
//! stage's total — so completing a request reads ten totals plus the
//! few stall and fetch intervals the overlays need.
//!
//! Whether a tree is *materialised* at all follows from the
//! [`SpanConfig`]: a store that can never retain an exemplar
//! (`exemplar_percentile: None` or `max_exemplars == 0` — what
//! [`SpanConfig::default`] and [`SpanConfig::stats_only`] say, and what
//! every breakdown run uses) hands out *sparse* builders, which keep the root,
//! the stall phases and the fetch spans the overlays read, and drop
//! every other span after adding it to the totals. The attribution is
//! the same either way.
//!
//! The layer is zero-cost when disabled (the runtime's observer keeps
//! the builders in a side table indexed by request slot that only
//! exists while the layer is on; every site is one branch otherwise)
//! and allocation-free in steady state when on: completed trees return
//! their span buffers to a pool inside [`SpanStore`],
//! [`SpanStore::complete`] computes the attribution over scratch the
//! store owns, and [`SpanStore::reserve`] sizes the per-request rows
//! once. Only a retained exemplar takes its buffer out of the pool.
//!
//! [`SpanStore`] aggregates completed trees three ways:
//!
//! - per-stage [`Histogram`]s ([`StageStats`]) for p50/p99/p99.9 per
//!   component of every run with the layer on;
//! - optional per-request [`CriticalPath`] rows (the exact-sum
//!   breakdown the recorder consumes);
//! - a bounded *tail exemplar* set: full span trees are retained only
//!   for requests whose end-to-end latency lands at or above a
//!   configurable percentile of the running distribution, evicting the
//!   fastest retained exemplar first, so memory stays bounded at
//!   saturation while the trees that explain the tail survive.
//!
//! Exporters: [`StageStats`]' JSON (the run report's `"stages"`) and
//! the exemplars' Perfetto tracks ([`write_perfetto`], or a whole
//! document from [`perfetto_json`]; Chrome trace event format, loadable
//! in [Perfetto](https://ui.perfetto.dev) — see `docs/MODEL.md` §7).

use std::fmt;

use crate::hist::Histogram;
use crate::json::{Perfetto, ToJson, Writer};
use crate::time::SimTime;

/// Sentinel parent index meaning "no parent" (only the root uses it).
pub const NO_PARENT: u32 = u32::MAX;

/// Number of phase names (the components of [`CriticalPath`]).
const NUM_PHASES: usize = 10;

/// An interned span name: one byte in a [`Span`], text only at export.
///
/// The phase names come first, in [`CriticalPath`]'s component order,
/// so a phase's discriminant indexes its stage total. Call sites spell
/// names through the [`stage`] and [`node`] constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Name {
    /// [`stage::NET`].
    Net,
    /// [`stage::DISPATCH`].
    Dispatch,
    /// [`stage::QUEUE`].
    Queue,
    /// [`stage::HANDLE`].
    Handle,
    /// [`stage::SPIN`].
    Spin,
    /// [`stage::FETCH_WAIT`].
    FetchWait,
    /// [`stage::QP_STALL`].
    QpStall,
    /// [`stage::TX_WAIT`].
    TxWait,
    /// [`stage::CTX`].
    Ctx,
    /// [`stage::REPLY`].
    Reply,
    /// [`node::REQUEST`].
    Request,
    /// [`node::SEGMENT`].
    Segment,
    /// [`node::FAULT`].
    Fault,
    /// [`node::FETCH`].
    Fetch,
    /// [`node::NIC_QUEUE`].
    NicQueue,
    /// [`node::WIRE`].
    Wire,
    /// [`node::RETRANS`].
    Retrans,
    /// [`node::FAILOVER`].
    Failover,
}

impl Name {
    /// The name as the exporters write it.
    pub const fn as_str(self) -> &'static str {
        match self {
            Name::Net => "net",
            Name::Dispatch => "dispatch",
            Name::Queue => "queue",
            Name::Handle => "handle",
            Name::Spin => "spin",
            Name::FetchWait => "fetch_wait",
            Name::QpStall => "qp_stall",
            Name::TxWait => "tx_wait",
            Name::Ctx => "ctx",
            Name::Reply => "reply",
            Name::Request => "request",
            Name::Segment => "segment",
            Name::Fault => "fault",
            Name::Fetch => "fetch",
            Name::NicQueue => "nic_queue",
            Name::Wire => "wire",
            Name::Retrans => "retrans",
            Name::Failover => "failover",
        }
    }

    /// Whether this is a phase ([`stage`]) name.
    #[inline]
    fn is_phase(self) -> bool {
        (self as usize) < NUM_PHASES
    }

    /// Whether this phase blocks the request on a fetch.
    #[inline]
    fn is_stall(self) -> bool {
        matches!(self, Name::Spin | Name::FetchWait)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Phase-span names: a gap-free partition of each request's
/// end-to-end interval. Every nanosecond of a request's latency is
/// covered by exactly one phase span, so these sum to the root span's
/// duration by construction.
pub mod stage {
    use super::Name;

    /// Client↔server network time (request delivery + reply flight).
    pub const NET: Name = Name::Net;
    /// Dispatcher occupancy before the request is queued to a worker.
    pub const DISPATCH: Name = Name::Dispatch;
    /// Waiting in a run queue for a worker (initial, resume, or retry).
    pub const QUEUE: Name = Name::Queue;
    /// Handler compute on a worker (includes fault-entry kernel cost).
    pub const HANDLE: Name = Name::Handle;
    /// Busy-wait polling for a fetch completion (wasted CPU).
    pub const SPIN: Name = Name::Spin;
    /// Parked waiting for a fetch completion (worker reused elsewhere).
    pub const FETCH_WAIT: Name = Name::FetchWait;
    /// Blocked on a full QP send queue before the fetch could post.
    pub const QP_STALL: Name = Name::QpStall;
    /// Waiting for the reply doorbell/CQE after handler completion.
    pub const TX_WAIT: Name = Name::TxWait;
    /// Context-switch cost (park + resume halves).
    pub const CTX: Name = Name::Ctx;
    /// Reply construction and server-side network stack.
    pub const REPLY: Name = Name::Reply;
}

/// Structural (non-phase) span names.
pub mod node {
    use super::Name;

    /// Root span: one per request, arrival→client reply receipt.
    pub const REQUEST: Name = Name::Request;
    /// One contiguous occupancy of a worker core.
    pub const SEGMENT: Name = Name::Segment;
    /// One page fault, entry→resume (or retry chain).
    pub const FAULT: Name = Name::Fault;
    /// One RDMA read, post→completion. `b` is a [`super::shard_qp`]
    /// payload: the QP in the low word and the memnode shard the fetch
    /// routed to in the high word (zero on single-shard runs, which
    /// keeps their span JSON identical to pre-sharding output).
    pub const FETCH: Name = Name::Fetch;
    /// Fetch sub-span: doorbell→NIC engine dispatch.
    pub const NIC_QUEUE: Name = Name::NicQueue;
    /// Fetch sub-span: NIC engine dispatch→DMA completion (of the
    /// final transmission attempt when the transport retransmitted).
    pub const WIRE: Name = Name::Wire;
    /// Fetch sub-span: RC retransmission window, first dispatch→final
    /// attempt's send (`a` = retransmission count). Only present when
    /// the transport retransmitted.
    pub const RETRANS: Name = Name::Retrans;
    /// Instant marker: the runtime re-issued a failed fetch on the
    /// failover QP (`a` = global memnode id the retry targets — equal
    /// to the replica index on single-shard runs — `b` = attempt).
    pub const FAILOVER: Name = Name::Failover;
}

/// Packs a fetch span's `b` payload: the QP id in the low 32 bits and
/// the memnode shard in the high 32. Shard 0 leaves the payload equal
/// to the bare QP id, so single-shard runs serialise exactly as before
/// sharding existed.
#[inline]
pub fn shard_qp(shard: u64, qp: u64) -> u64 {
    debug_assert!(qp < (1 << 32), "QP id overflows the payload low word");
    (shard << 32) | qp
}

/// One node in a request's span tree (40 bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Span name ([`stage`] or [`node`] constant).
    pub name: Name,
    /// Index of the parent span in the tree, or [`NO_PARENT`].
    pub parent: u32,
    /// Start instant.
    pub start: SimTime,
    /// End instant (`>= start`).
    pub end: SimTime,
    /// First payload word (meaning per name; `docs/MODEL.md` §7).
    pub a: u64,
    /// Second payload word.
    pub b: u64,
}

impl Span {
    /// Span length in nanoseconds.
    #[inline]
    pub fn dur_ns(&self) -> u64 {
        self.end.as_nanos() - self.start.as_nanos()
    }
}

/// A completed request's span tree. `spans[0]` is always the root
/// `request` span; children reference parents by index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanTree {
    /// Monotonic per-run request sequence number (arrival order).
    pub request: u64,
    /// Workload-defined request class.
    pub class: u16,
    /// The spans, root first, in emission order.
    pub spans: Vec<Span>,
}

impl SpanTree {
    /// End-to-end latency (root span length) in nanoseconds.
    pub fn e2e_ns(&self) -> u64 {
        self.spans[0].dur_ns()
    }
}

/// Records one in-flight request's span tree.
///
/// The builder keeps a *cursor*: the end of the last phase span
/// emitted. [`SpanBuilder::phase`] tiles `[cursor, until]` with the
/// named phase and advances the cursor, clamping `until` up to the
/// cursor so time never runs backward; instants already covered
/// produce no span. This makes the phase tiling gap-free and
/// overlap-free regardless of emission-site ordering quirks, which is
/// what guarantees `Σ phases = e2e` exactly.
///
/// A builder from [`SpanBuilder::new`] materialises every span. One
/// from a [`SpanStore`] that can never retain a tree is *sparse*: it
/// keeps the root, the stall phases and the fetch spans — what the
/// attribution's overlays read — and only adds every other phase to
/// its stage total; the structural calls are no-ops.
#[derive(Debug)]
pub struct SpanBuilder {
    request: u64,
    class: u16,
    /// Whether every span is materialised (`false` = sparse).
    full: bool,
    spans: Vec<Span>,
    cursor: SimTime,
    open_segment: u32,
    open_fault: u32,
    /// Phase totals so far, indexed by the phase's [`Name`].
    stage_ns: [u64; NUM_PHASES],
}

impl SpanBuilder {
    /// Starts a tree for request `request` of `class`, arriving
    /// (client transmit) at `tx`. `buf` is a recycled span buffer
    /// (pass `Vec::new()` when not pooling).
    pub fn new(request: u64, class: u16, tx: SimTime, buf: Vec<Span>) -> SpanBuilder {
        SpanBuilder::start(request, class, tx, buf, true)
    }

    fn start(request: u64, class: u16, tx: SimTime, mut buf: Vec<Span>, full: bool) -> SpanBuilder {
        buf.clear();
        buf.push(Span {
            name: node::REQUEST,
            parent: NO_PARENT,
            start: tx,
            end: tx,
            a: class as u64,
            b: 0,
        });
        SpanBuilder {
            request,
            class,
            full,
            spans: buf,
            cursor: tx,
            open_segment: NO_PARENT,
            open_fault: NO_PARENT,
            stage_ns: [0; NUM_PHASES],
        }
    }

    /// The end of the last phase emitted (the tiling frontier).
    pub fn cursor(&self) -> SimTime {
        self.cursor
    }

    /// Parent for a new phase span: innermost open structural span.
    fn phase_parent(&self) -> u32 {
        if self.open_fault != NO_PARENT {
            self.open_fault
        } else if self.open_segment != NO_PARENT {
            self.open_segment
        } else {
            0
        }
    }

    /// Tiles `[cursor, until]` with phase `name` (a [`stage`] constant)
    /// and advances the cursor. If `until` is not after the cursor,
    /// nothing is emitted.
    pub fn phase(&mut self, name: Name, until: SimTime) {
        if until <= self.cursor {
            return;
        }
        debug_assert!(name.is_phase(), "`{name}` is not a phase name");
        self.stage_ns[name as usize] += until.as_nanos() - self.cursor.as_nanos();
        if self.full || name.is_stall() {
            let parent = self.phase_parent();
            self.spans.push(Span {
                name,
                parent,
                start: self.cursor,
                end: until,
                a: 0,
                b: 0,
            });
        }
        self.cursor = until;
    }

    /// Opens a worker-occupancy segment at `at` on worker `worker`.
    pub fn begin_segment(&mut self, at: SimTime, worker: usize) {
        if !self.full {
            return;
        }
        debug_assert_eq!(self.open_segment, NO_PARENT, "segment already open");
        self.open_segment = self.spans.len() as u32;
        self.spans.push(Span {
            name: node::SEGMENT,
            parent: 0,
            start: at,
            end: at,
            a: worker as u64,
            b: 0,
        });
    }

    /// Closes the open segment at `at` (no-op when none is open).
    pub fn end_segment(&mut self, at: SimTime) {
        if self.open_segment != NO_PARENT {
            let s = &mut self.spans[self.open_segment as usize];
            s.end = at.max(s.start);
            self.open_segment = NO_PARENT;
        }
    }

    /// Opens a fault span at `at` for `page`. Re-entrant: if a fault is
    /// already open (QP-full retry re-enters the fault path), the
    /// existing span is kept.
    pub fn begin_fault(&mut self, at: SimTime, page: u64) {
        if !self.full || self.open_fault != NO_PARENT {
            return;
        }
        let parent = if self.open_segment != NO_PARENT {
            self.open_segment
        } else {
            0
        };
        self.open_fault = self.spans.len() as u32;
        self.spans.push(Span {
            name: node::FAULT,
            parent,
            start: at,
            end: at,
            a: page,
            b: 0,
        });
    }

    /// Closes the open fault at `at` (no-op when none is open).
    pub fn end_fault(&mut self, at: SimTime) {
        if self.open_fault != NO_PARENT {
            let s = &mut self.spans[self.open_fault as usize];
            s.end = at.max(s.start);
            self.open_fault = NO_PARENT;
        }
    }

    /// Records one RDMA fetch: posted at `post`, dispatched by the NIC
    /// engine at `issued`, completed at `done`. Emits a `fetch` span
    /// (child of the open fault, segment, or root) with `nic_queue`
    /// and `wire` sub-spans split at `issued`.
    pub fn fetch(&mut self, post: SimTime, issued: SimTime, done: SimTime, page: u64, qp: u64) {
        self.fetch_with_retrans(post, issued, issued, done, page, qp, 0);
    }

    /// Like [`SpanBuilder::fetch`], but for a transfer the RC transport
    /// retransmitted: `wire_start` is the final attempt's send instant,
    /// and `[issued, wire_start]` becomes a `retrans` sub-span carrying
    /// the retransmission count.
    #[allow(clippy::too_many_arguments)]
    pub fn fetch_with_retrans(
        &mut self,
        post: SimTime,
        issued: SimTime,
        wire_start: SimTime,
        done: SimTime,
        page: u64,
        qp: u64,
        retransmits: u32,
    ) {
        let done = done.max(post);
        let issued = issued.clamp(post, done);
        let wire_start = wire_start.clamp(issued, done);
        let parent = self.phase_parent();
        let fetch_idx = self.spans.len() as u32;
        self.spans.push(Span {
            name: node::FETCH,
            parent,
            start: post,
            end: done,
            a: page,
            b: qp,
        });
        if !self.full {
            return;
        }
        self.spans.push(Span {
            name: node::NIC_QUEUE,
            parent: fetch_idx,
            start: post,
            end: issued,
            a: page,
            b: qp,
        });
        if retransmits > 0 && wire_start > issued {
            self.spans.push(Span {
                name: node::RETRANS,
                parent: fetch_idx,
                start: issued,
                end: wire_start,
                a: retransmits as u64,
                b: qp,
            });
        }
        self.spans.push(Span {
            name: node::WIRE,
            parent: fetch_idx,
            start: wire_start,
            end: done,
            a: page,
            b: qp,
        });
    }

    /// Emits a zero-length `failover` marker at `at`: the runtime gave
    /// up on a fetch attempt and re-issued it targeting `replica`
    /// (`attempt` counts issues of this fetch, starting at 1).
    pub fn failover(&mut self, at: SimTime, replica: u64, attempt: u64) {
        if !self.full {
            return;
        }
        let parent = self.phase_parent();
        self.spans.push(Span {
            name: node::FAILOVER,
            parent,
            start: at,
            end: at,
            a: replica,
            b: attempt,
        });
    }

    /// The attribution of the request as completed at `rx`: the phase
    /// totals kept by [`SpanBuilder::phase`] plus the fetch overlays of
    /// the spans recorded so far (`stalls` is scratch).
    fn attribution(&self, rx: SimTime, stalls: &mut Vec<(u64, u64)>) -> CriticalPath {
        debug_assert_eq!(self.cursor, rx, "phase tiling must reach the reply instant");
        let tx = self.spans[0].start;
        let (wall, hidden) = fetch_overlays(&self.spans, stalls);
        CriticalPath::from_parts(
            rx.max(tx).as_nanos() - tx.as_nanos(),
            self.stage_ns,
            wall,
            hidden,
        )
    }

    /// Completes the tree: the reply reached the client at `rx`. The
    /// caller must have tiled phases up to `rx`; any still-open
    /// segment or fault is closed defensively. (A sparse builder yields
    /// the sparse tree: root, stall phases, fetches.)
    pub fn finish(mut self, rx: SimTime) -> SpanTree {
        debug_assert_eq!(self.cursor, rx, "phase tiling must reach the reply instant");
        self.end_fault(rx);
        self.end_segment(rx);
        let root = &mut self.spans[0];
        root.end = rx.max(root.start);
        SpanTree {
            request: self.request,
            class: self.class,
            spans: self.spans,
        }
    }

    /// Abandons the tree (dropped request), returning the span buffer
    /// for recycling.
    pub fn into_buf(self) -> Vec<Span> {
        self.spans
    }
}

/// The fetch overlays of a span list, `(fetch_wall_ns,
/// fetch_hidden_ns)`: summed wall time of the `fetch` spans, and the
/// part of it no stall phase (`spin`, `fetch_wait`) overlaps. `stalls`
/// is scratch for the stall intervals.
fn fetch_overlays(spans: &[Span], stalls: &mut Vec<(u64, u64)>) -> (u64, u64) {
    stalls.clear();
    stalls.extend(
        spans
            .iter()
            .filter(|s| s.name.is_stall())
            .map(|s| (s.start.as_nanos(), s.end.as_nanos())),
    );
    let (mut wall, mut hidden) = (0, 0);
    for f in spans.iter().filter(|s| s.name == node::FETCH) {
        let (fs, fe) = (f.start.as_nanos(), f.end.as_nanos());
        wall += fe - fs;
        let stalled: u64 = stalls
            .iter()
            .map(|&(bs, be)| be.min(fe).saturating_sub(bs.max(fs)))
            .sum();
        hidden += (fe - fs).saturating_sub(stalled.min(fe - fs));
    }
    (wall, hidden)
}

/// Exact attribution of one request's end-to-end latency.
///
/// The ten phase components sum to `e2e_ns` *exactly* (the phase
/// tiling is gap-free by construction — see [`SpanBuilder::phase`]).
/// `fetch_wall_ns`/`fetch_hidden_ns` are overlays, not components:
/// wall time of RDMA fetches and the part of it overlapped by useful
/// work (prefetch ahead of demand, or fetch racing handler compute)
/// rather than by a stall. `spin_ns + fetch_wait_ns` is the stalled
/// remainder — the critical-path fetch exposure the paper's figures
/// 2c/7c call "RDMA".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CriticalPath {
    /// End-to-end latency (root span), ns.
    pub e2e_ns: u64,
    /// [`stage::NET`] total, ns.
    pub net_ns: u64,
    /// [`stage::DISPATCH`] total, ns.
    pub dispatch_ns: u64,
    /// [`stage::QUEUE`] total, ns.
    pub queue_ns: u64,
    /// [`stage::HANDLE`] total, ns.
    pub handle_ns: u64,
    /// [`stage::SPIN`] total, ns.
    pub spin_ns: u64,
    /// [`stage::FETCH_WAIT`] total, ns.
    pub fetch_wait_ns: u64,
    /// [`stage::QP_STALL`] total, ns.
    pub qp_stall_ns: u64,
    /// [`stage::TX_WAIT`] total, ns.
    pub tx_wait_ns: u64,
    /// [`stage::CTX`] total, ns.
    pub ctx_ns: u64,
    /// [`stage::REPLY`] total, ns.
    pub reply_ns: u64,
    /// Overlay: summed wall time of all `fetch` spans, ns.
    pub fetch_wall_ns: u64,
    /// Overlay: fetch wall time overlapped by useful work (not by a
    /// spin or park stall), ns.
    pub fetch_hidden_ns: u64,
}

impl CriticalPath {
    /// Computes the attribution for one completed tree (one built with
    /// every span materialised — see [`SpanBuilder::new`]).
    pub fn of(tree: &SpanTree) -> CriticalPath {
        let mut stage_ns = [0; NUM_PHASES];
        for s in tree.spans.iter().filter(|s| s.name.is_phase()) {
            stage_ns[s.name as usize] += s.dur_ns();
        }
        let (wall, hidden) = fetch_overlays(&tree.spans, &mut Vec::new());
        CriticalPath::from_parts(tree.e2e_ns(), stage_ns, wall, hidden)
    }

    /// Assembles an attribution from phase totals indexed by the
    /// phase's [`Name`] and the two fetch overlays.
    fn from_parts(
        e2e_ns: u64,
        stage_ns: [u64; NUM_PHASES],
        fetch_wall_ns: u64,
        fetch_hidden_ns: u64,
    ) -> CriticalPath {
        let [net_ns, dispatch_ns, queue_ns, handle_ns, spin_ns, fetch_wait_ns, qp_stall_ns, tx_wait_ns, ctx_ns, reply_ns] =
            stage_ns;
        CriticalPath {
            e2e_ns,
            net_ns,
            dispatch_ns,
            queue_ns,
            handle_ns,
            spin_ns,
            fetch_wait_ns,
            qp_stall_ns,
            tx_wait_ns,
            ctx_ns,
            reply_ns,
            fetch_wall_ns,
            fetch_hidden_ns,
        }
    }

    /// The attribution as the pre-interning implementation computed it:
    /// a string match per span and two fresh interval lists per tree.
    /// Kept as the oracle the equivalence tests compare against.
    #[cfg(test)]
    fn of_reference(tree: &SpanTree) -> CriticalPath {
        let mut cp = CriticalPath {
            e2e_ns: tree.e2e_ns(),
            ..CriticalPath::default()
        };
        let mut stalls: Vec<(u64, u64)> = Vec::new();
        let mut fetches: Vec<(u64, u64)> = Vec::new();
        for s in &tree.spans {
            let d = s.dur_ns();
            match s.name.as_str() {
                "net" => cp.net_ns += d,
                "dispatch" => cp.dispatch_ns += d,
                "queue" => cp.queue_ns += d,
                "handle" => cp.handle_ns += d,
                "spin" => {
                    cp.spin_ns += d;
                    stalls.push((s.start.as_nanos(), s.end.as_nanos()));
                }
                "fetch_wait" => {
                    cp.fetch_wait_ns += d;
                    stalls.push((s.start.as_nanos(), s.end.as_nanos()));
                }
                "qp_stall" => cp.qp_stall_ns += d,
                "tx_wait" => cp.tx_wait_ns += d,
                "ctx" => cp.ctx_ns += d,
                "reply" => cp.reply_ns += d,
                "fetch" => fetches.push((s.start.as_nanos(), s.end.as_nanos())),
                _ => {}
            }
        }
        for &(fs, fe) in &fetches {
            cp.fetch_wall_ns += fe - fs;
            let stalled: u64 = stalls
                .iter()
                .map(|&(bs, be)| be.min(fe).saturating_sub(bs.max(fs)))
                .sum();
            cp.fetch_hidden_ns += (fe - fs).saturating_sub(stalled.min(fe - fs));
        }
        cp
    }

    /// The ten phase components as `(stage name, ns)` pairs, in
    /// canonical order.
    pub fn components(&self) -> [(&'static str, u64); 10] {
        [
            (stage::NET.as_str(), self.net_ns),
            (stage::DISPATCH.as_str(), self.dispatch_ns),
            (stage::QUEUE.as_str(), self.queue_ns),
            (stage::HANDLE.as_str(), self.handle_ns),
            (stage::SPIN.as_str(), self.spin_ns),
            (stage::FETCH_WAIT.as_str(), self.fetch_wait_ns),
            (stage::QP_STALL.as_str(), self.qp_stall_ns),
            (stage::TX_WAIT.as_str(), self.tx_wait_ns),
            (stage::CTX.as_str(), self.ctx_ns),
            (stage::REPLY.as_str(), self.reply_ns),
        ]
    }

    /// Sum of the ten phase components; equals `e2e_ns` for any tree
    /// built through [`SpanBuilder`].
    pub fn components_sum(&self) -> u64 {
        self.components().iter().map(|&(_, v)| v).sum()
    }
}

/// Canonical stage-histogram order: end-to-end first, then the ten
/// phase components, then the two fetch overlays.
pub const STAGES: [&str; 13] = [
    "e2e",
    stage::NET.as_str(),
    stage::DISPATCH.as_str(),
    stage::QUEUE.as_str(),
    stage::HANDLE.as_str(),
    stage::SPIN.as_str(),
    stage::FETCH_WAIT.as_str(),
    stage::QP_STALL.as_str(),
    stage::TX_WAIT.as_str(),
    stage::CTX.as_str(),
    stage::REPLY.as_str(),
    "fetch_wall",
    "fetch_hidden",
];

/// Per-stage latency histograms over measured requests, in
/// [`STAGES`] order.
#[derive(Debug, Clone)]
pub struct StageStats {
    hists: Vec<(&'static str, Histogram)>,
}

impl Default for StageStats {
    fn default() -> Self {
        Self::new()
    }
}

impl StageStats {
    /// Creates empty histograms for every canonical stage.
    pub fn new() -> StageStats {
        StageStats {
            hists: STAGES.iter().map(|&n| (n, Histogram::new())).collect(),
        }
    }

    /// Records one request's attribution into every stage histogram.
    pub fn record(&mut self, cp: &CriticalPath) {
        let values = [
            cp.e2e_ns,
            cp.net_ns,
            cp.dispatch_ns,
            cp.queue_ns,
            cp.handle_ns,
            cp.spin_ns,
            cp.fetch_wait_ns,
            cp.qp_stall_ns,
            cp.tx_wait_ns,
            cp.ctx_ns,
            cp.reply_ns,
            cp.fetch_wall_ns,
            cp.fetch_hidden_ns,
        ];
        for ((_, h), v) in self.hists.iter_mut().zip(values) {
            h.record(v);
        }
    }

    /// The end-to-end histogram ([`STAGES`]`[0]`).
    fn e2e(&self) -> &Histogram {
        &self.hists[0].1
    }

    /// Histogram for `name`, if it is a canonical stage.
    pub fn get(&self, name: &str) -> Option<&Histogram> {
        self.hists.iter().find(|(n, _)| *n == name).map(|(_, h)| h)
    }

    /// Iterates `(stage name, histogram)` in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &Histogram)> {
        self.hists.iter().map(|(n, h)| (*n, h))
    }
}

impl ToJson for StageStats {
    /// `{"stage":{"count":..,"mean":..,"p50":..,"p99":..,"p999":..,
    /// "max":..},..}` in canonical order, the mean at fixed precision.
    fn write_json(&self, w: &mut Writer) {
        w.object(|w| {
            for (name, h) in &self.hists {
                w.key(name).object(|w| {
                    w.key("count").u64(h.count());
                    w.key("mean").f64(h.mean(), 1);
                    w.key("p50").u64(h.percentile(50.0));
                    w.key("p99").u64(h.percentile(99.0));
                    w.key("p999").u64(h.percentile(99.9));
                    w.key("max").u64(h.max());
                });
            }
        });
    }
}

/// Configuration for the per-run span layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanConfig {
    /// Keep one [`CriticalPath`] row per measured request (needed for
    /// percentile-window breakdowns; costs ~100 B/request).
    pub keep_attributions: bool,
    /// Retain full span trees for requests at or above this
    /// end-to-end percentile (`None` disables exemplar retention).
    pub exemplar_percentile: Option<f64>,
    /// Upper bound on retained exemplar trees.
    pub max_exemplars: usize,
}

impl Default for SpanConfig {
    fn default() -> Self {
        SpanConfig {
            keep_attributions: true,
            exemplar_percentile: None,
            max_exemplars: 0,
        }
    }
}

impl SpanConfig {
    /// Stage histograms only: no per-request rows, no exemplars. The
    /// cheapest useful setting — what a breakdown run turns on by
    /// itself.
    pub fn stats_only() -> SpanConfig {
        SpanConfig {
            keep_attributions: false,
            exemplar_percentile: None,
            max_exemplars: 0,
        }
    }

    /// Stats plus up to `max` full trees for requests at or above the
    /// `p`-th end-to-end percentile.
    pub fn with_exemplars(p: f64, max: usize) -> SpanConfig {
        SpanConfig {
            keep_attributions: false,
            exemplar_percentile: Some(p),
            max_exemplars: max,
        }
    }
}

/// Maximum recycled span buffers kept by a store.
const POOL_CAP: usize = 256;

/// Owns everything the span layer aggregates during a run.
#[derive(Debug)]
pub struct SpanStore {
    cfg: SpanConfig,
    /// Whether any tree can ever be retained as an exemplar; when not,
    /// builders are sparse.
    retains: bool,
    stats: StageStats,
    attributions: Vec<CriticalPath>,
    exemplars: Vec<SpanTree>,
    pool: Vec<Vec<Span>>,
    /// Scratch for the stall intervals of the tree being completed.
    stalls: Vec<(u64, u64)>,
    next_request: u64,
    measured: u64,
}

impl SpanStore {
    /// Creates an empty store.
    pub fn new(cfg: SpanConfig) -> SpanStore {
        SpanStore {
            cfg,
            retains: cfg.exemplar_percentile.is_some() && cfg.max_exemplars > 0,
            stats: StageStats::new(),
            attributions: Vec::new(),
            exemplars: Vec::new(),
            pool: Vec::new(),
            stalls: Vec::new(),
            next_request: 0,
            measured: 0,
        }
    }

    /// Sizes the per-request attribution rows for `measured` completions
    /// inside the window, so a run of known horizon never regrows (and
    /// re-copies) them. A no-op unless
    /// [`SpanConfig::keep_attributions`].
    pub fn reserve(&mut self, measured: usize) {
        if self.cfg.keep_attributions {
            self.attributions.reserve(measured);
        }
    }

    /// Starts a builder for the next request (sequence numbers are
    /// assigned in arrival order, so same-seed runs agree).
    pub fn builder(&mut self, class: u16, tx: SimTime) -> SpanBuilder {
        let request = self.next_request;
        self.next_request += 1;
        let buf = self.pool.pop().unwrap_or_default();
        SpanBuilder::start(request, class, tx, buf, self.retains)
    }

    /// Reclaims an abandoned builder's buffer (dropped request).
    pub fn discard(&mut self, b: SpanBuilder) {
        self.recycle(b.into_buf());
    }

    fn recycle(&mut self, mut buf: Vec<Span>) {
        if self.pool.len() < POOL_CAP {
            buf.clear();
            self.pool.push(buf);
        }
    }

    /// Completes a request at reply-receipt instant `rx` and returns
    /// its attribution, whose components sum to its end-to-end latency
    /// exactly. Aggregates (histograms, attribution rows, exemplars)
    /// only when `in_window` — warm-up and drain-phase completions still
    /// produce an attribution but leave no trace.
    pub fn complete(&mut self, b: SpanBuilder, rx: SimTime, in_window: bool) -> CriticalPath {
        let cp = b.attribution(rx, &mut self.stalls);
        debug_assert_eq!(cp.components_sum(), cp.e2e_ns);
        if in_window {
            self.measured += 1;
            self.stats.record(&cp);
            if self.cfg.keep_attributions {
                self.attributions.push(cp);
            }
        }
        match self.cfg.exemplar_percentile {
            // Online threshold over the measured e2e distribution: a
            // tree qualifies while it sits at/above the p-th percentile
            // seen so far.
            Some(p) if in_window && self.retains && cp.e2e_ns >= self.stats.e2e().percentile(p) => {
                if self.exemplars.len() < self.cfg.max_exemplars {
                    self.exemplars.push(b.finish(rx));
                    return cp;
                }
                let (mi, min_e2e) = self
                    .exemplars
                    .iter()
                    .enumerate()
                    .map(|(i, t)| (i, t.e2e_ns()))
                    .min_by_key(|&(_, e)| e)
                    .expect("max_exemplars > 0");
                if cp.e2e_ns > min_e2e {
                    let old = std::mem::replace(&mut self.exemplars[mi], b.finish(rx));
                    self.recycle(old.spans);
                    return cp;
                }
            }
            _ => {}
        }
        self.discard(b);
        cp
    }

    /// Freezes the store into the report carried on `RunResult`.
    /// Exemplars are sorted by request sequence so output is
    /// insertion-order independent.
    pub fn finish(mut self) -> SpanReport {
        self.exemplars.sort_by_key(|t| t.request);
        SpanReport {
            stats: self.stats,
            attributions: self.attributions,
            exemplars: self.exemplars,
            measured: self.measured,
        }
    }
}

/// Frozen span-layer output of one run.
#[derive(Debug, Clone)]
pub struct SpanReport {
    /// Per-stage histograms over measured requests.
    pub stats: StageStats,
    /// One attribution row per measured request (empty unless
    /// [`SpanConfig::keep_attributions`]).
    pub attributions: Vec<CriticalPath>,
    /// Retained tail exemplar trees, by request sequence.
    pub exemplars: Vec<SpanTree>,
    /// Measured-window completions seen by the store.
    pub measured: u64,
}

/// Writes span trees' tracks into a Perfetto document.
///
/// Layout: each request is a Perfetto *process* (`pid` = request
/// sequence) with four tracks — `tid` 0 the root `request` span,
/// `tid` 1 worker segments, `tid` 2 the phase tiling, `tid` 3 faults
/// — all as `"X"` complete events (each track is overlap-free by
/// construction). Fetches and their `nic_queue`/`wire` sub-spans are
/// async `"b"`/`"e"` pairs (category `"fetch"`, process-wide unique
/// ids) because concurrent prefetches overlap in time; a failover is an
/// instant on the faults track.
pub fn write_perfetto(doc: &mut Perfetto, trees: &[SpanTree]) {
    let mut async_id: u64 = 0;
    for t in trees {
        let pid = t.request;
        let name = format!("request {} (class {})", t.request, t.class);
        doc.process_name(pid, None, &name);
        for (tid, name) in [
            (0, "request"),
            (1, "segments"),
            (2, "phases"),
            (3, "faults"),
        ] {
            doc.thread_name(pid, tid, name);
        }
        for s in &t.spans {
            let (start, name, args) = (s.start.as_nanos(), s.name.as_str(), (s.a, s.b));
            let tid = match s.name {
                node::REQUEST => 0,
                node::SEGMENT => 1,
                node::FAULT => 3,
                node::FAILOVER => {
                    doc.instant(pid, 3, start, name, "t", Some(args));
                    continue;
                }
                node::FETCH | node::NIC_QUEUE | node::WIRE | node::RETRANS => {
                    let end = s.end.as_nanos();
                    doc.async_slice("fetch", async_id, pid, 0, start, end, name, args);
                    async_id += 1;
                    continue;
                }
                _ => 2,
            };
            doc.complete(pid, tid, start, s.dur_ns(), name, Some(args));
        }
    }
}

/// Renders span trees as one Chrome trace event document, loadable at
/// <https://ui.perfetto.dev> (layout: [`write_perfetto`]).
pub fn perfetto_json(trees: &[SpanTree]) -> String {
    let mut doc = Perfetto::default();
    write_perfetto(&mut doc, trees);
    doc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime(ns)
    }

    /// A representative tree: net→dispatch→queue→segment(handle,
    /// fault(handle, spin), handle)→reply→tx_wait→net.
    fn sample_tree(request: u64) -> SpanTree {
        let mut b = SpanBuilder::new(request, 1, t(0), Vec::new());
        b.phase(stage::NET, t(100));
        b.phase(stage::DISPATCH, t(150));
        b.phase(stage::QUEUE, t(200));
        b.begin_segment(t(200), 3);
        b.phase(stage::HANDLE, t(500));
        b.begin_fault(t(500), 42);
        b.phase(stage::HANDLE, t(600));
        b.fetch(t(600), t(620), t(900), 42, 7);
        b.phase(stage::SPIN, t(900));
        b.end_fault(t(900));
        b.phase(stage::HANDLE, t(1_100));
        b.phase(stage::REPLY, t(1_200));
        b.end_segment(t(1_200));
        b.phase(stage::TX_WAIT, t(1_250));
        b.phase(stage::NET, t(1_400));
        b.finish(t(1_400))
    }

    #[test]
    fn span_fits_40_bytes() {
        assert!(std::mem::size_of::<Span>() <= 40);
        assert_eq!(std::mem::size_of::<Name>(), 1);
    }

    /// The instants [`drive`] hands out: a clock that mostly advances.
    struct Steps {
        rng: crate::rng::Rng,
        now: u64,
    }

    impl Steps {
        fn next(&mut self) -> SimTime {
            self.now += self.rng.gen_range(400);
            // One instant in eight is stale (behind the cursor).
            t(if self.rng.gen_range(8) == 0 {
                self.now.saturating_sub(300)
            } else {
                self.now
            })
        }

        fn after(&mut self, from: SimTime, min: u64, spread: u64) -> SimTime {
            t(from.as_nanos() + min + self.rng.gen_range(spread))
        }
    }

    /// Drives `b` through one pseudo-random request life — segments,
    /// re-entrant faults, demand fetches with retransmits and
    /// failovers, prefetch fetches overlapping everything, stalls of
    /// both kinds, stale instants — and returns the reply instant.
    /// Equal seeds issue equal calls, whatever the builder's mode.
    fn drive(b: &mut SpanBuilder, seed: u64) -> SimTime {
        let mut s = Steps {
            rng: crate::rng::Rng::new(seed),
            now: b.cursor().as_nanos(),
        };
        b.phase(stage::NET, s.next());
        b.phase(stage::DISPATCH, s.next());
        b.phase(stage::QUEUE, s.next());
        for _ in 0..1 + s.rng.gen_range(4) {
            b.begin_segment(s.next(), 3);
            b.phase(stage::HANDLE, s.next());
            for _ in 0..s.rng.gen_range(3) {
                let page = s.rng.gen_range(1 << 20);
                b.begin_fault(s.next(), page);
                // A QP-full retry re-enters the open fault.
                if s.rng.gen_bool(0.3) {
                    b.phase(stage::QP_STALL, s.next());
                    b.begin_fault(s.next(), page);
                }
                // Prefetches ride along: they overlap the demand
                // fetch, each other, and the stalls below.
                for _ in 0..s.rng.gen_range(3) {
                    let post = s.next();
                    let done = s.after(post, 0, 5_000);
                    b.fetch(post, s.after(post, 20, 1), done, page + 1, 9);
                }
                let post = s.next();
                let issued = s.after(post, 40, 1);
                let mut done = s.after(post, 200, 3_000);
                let retransmits = s.rng.gen_range(3) as u32;
                let wire = s.after(issued, 1_000 * retransmits as u64, 1);
                b.fetch_with_retrans(post, issued, wire, done, page, 3, retransmits);
                if s.rng.gen_bool(0.3) {
                    b.failover(done, 1, 2);
                    let again = done;
                    done = s.after(again, 200, 3_000);
                    b.fetch(again, s.after(again, 30, 1), done, page, 4);
                }
                // The stall ends around the fetch's completion.
                s.now = s
                    .now
                    .max(done.as_nanos().saturating_sub(s.rng.gen_range(600)));
                if s.rng.gen_bool(0.5) {
                    b.phase(stage::SPIN, s.next());
                } else {
                    b.phase(stage::CTX, s.next());
                    b.end_segment(s.next());
                    b.phase(stage::FETCH_WAIT, s.next());
                    b.phase(stage::QUEUE, s.next());
                    b.begin_segment(s.next(), 0);
                }
                b.end_fault(s.next());
                b.phase(stage::HANDLE, s.next());
            }
            b.phase(stage::CTX, s.next());
            b.end_segment(s.next());
            b.phase(stage::QUEUE, s.next());
        }
        b.phase(stage::REPLY, s.next());
        b.phase(stage::TX_WAIT, s.next());
        let rx = t(s.now + 500);
        b.phase(stage::NET, rx);
        rx
    }

    #[test]
    fn attributions_agree_with_the_reference_on_random_trees() {
        let mut scratch = Vec::new();
        let (mut stalled, mut hidden) = (0, 0);
        for seed in 0..500 {
            let mut full = SpanBuilder::new(seed, 0, t(1_000), Vec::new());
            let mut sparse = SpanBuilder::start(seed, 0, t(1_000), Vec::new(), false);
            let rx = drive(&mut full, seed);
            assert_eq!(drive(&mut sparse, seed), rx);
            let incremental = full.attribution(rx, &mut scratch);
            let no_tree = sparse.attribution(rx, &mut scratch);
            assert!(sparse.spans.len() < full.spans.len());
            let tree = full.finish(rx);
            let want = CriticalPath::of_reference(&tree);
            assert_eq!(incremental, want, "seed {seed}: incremental");
            assert_eq!(no_tree, want, "seed {seed}: no-tree");
            assert_eq!(CriticalPath::of(&tree), want, "seed {seed}: of()");
            assert_eq!(want.components_sum(), want.e2e_ns);
            stalled += want.spin_ns + want.fetch_wait_ns;
            hidden += want.fetch_hidden_ns;
        }
        // The trees exercised what the overlays are about.
        assert!(stalled > 0 && hidden > 0);
    }

    #[test]
    fn store_attributes_alike_whether_or_not_it_keeps_trees() {
        let mut sparse = SpanStore::new(SpanConfig::default());
        let mut full = SpanStore::new(SpanConfig {
            keep_attributions: true,
            ..SpanConfig::with_exemplars(50.0, 8)
        });
        assert!(!sparse.retains && full.retains);
        for seed in 0..200 {
            let (mut a, mut b) = (sparse.builder(0, t(0)), full.builder(0, t(0)));
            let rx = drive(&mut a, seed);
            drive(&mut b, seed);
            let in_window = seed % 5 != 0;
            assert_eq!(
                sparse.complete(a, rx, in_window),
                full.complete(b, rx, in_window)
            );
        }
        let (sparse, full) = (sparse.finish(), full.finish());
        assert_eq!(sparse.attributions, full.attributions);
        assert_eq!(sparse.stats.to_json(), full.stats.to_json());
        assert!(sparse.exemplars.is_empty());
        assert_eq!(full.exemplars.len(), 8);
        // A retained tree is the whole tree.
        for tree in &full.exemplars {
            assert_eq!(CriticalPath::of(tree), CriticalPath::of_reference(tree));
            assert!(tree.spans.iter().any(|s| s.name == node::SEGMENT));
        }
    }

    #[test]
    fn phase_tiling_sums_to_e2e_exactly() {
        let tree = sample_tree(0);
        let cp = CriticalPath::of(&tree);
        assert_eq!(tree.e2e_ns(), 1_400);
        assert_eq!(cp.components_sum(), cp.e2e_ns);
        assert_eq!(cp.net_ns, 100 + 150);
        assert_eq!(cp.handle_ns, 300 + 100 + 200);
        assert_eq!(cp.spin_ns, 300);
    }

    #[test]
    fn phase_clamps_backward_time_and_skips_empty() {
        let mut b = SpanBuilder::new(0, 0, t(1_000), Vec::new());
        b.phase(stage::NET, t(1_100));
        // An earlier instant (worker clock behind the cursor) emits
        // nothing and does not move the cursor back.
        b.phase(stage::QUEUE, t(1_050));
        assert_eq!(b.cursor(), t(1_100));
        b.phase(stage::QUEUE, t(1_100));
        let tree = b.finish(t(1_100));
        assert_eq!(tree.spans.len(), 2); // root + net
        assert_eq!(CriticalPath::of(&tree).components_sum(), tree.e2e_ns());
    }

    #[test]
    fn fetch_overlap_accounting_splits_hidden_from_stalled() {
        let mut b = SpanBuilder::new(0, 0, t(0), Vec::new());
        b.begin_segment(t(0), 0);
        b.begin_fault(t(0), 9);
        // Fetch [0, 400]; the request only stalls on it for [300, 400]
        // (100 ns); the first 300 ns are hidden under handler compute.
        b.fetch(t(0), t(40), t(400), 9, 0);
        b.phase(stage::HANDLE, t(300));
        b.phase(stage::SPIN, t(400));
        b.end_fault(t(400));
        b.end_segment(t(400));
        let tree = b.finish(t(400));
        let cp = CriticalPath::of(&tree);
        assert_eq!(cp.fetch_wall_ns, 400);
        assert_eq!(cp.spin_ns, 100);
        assert_eq!(cp.fetch_hidden_ns, 300);
        assert_eq!(cp.components_sum(), cp.e2e_ns);
    }

    #[test]
    fn fetch_fully_stalled_hides_nothing() {
        let mut b = SpanBuilder::new(0, 0, t(0), Vec::new());
        b.begin_fault(t(0), 1);
        b.fetch(t(0), t(10), t(200), 1, 0);
        b.phase(stage::FETCH_WAIT, t(200));
        b.end_fault(t(200));
        let tree = b.finish(t(200));
        let cp = CriticalPath::of(&tree);
        assert_eq!(cp.fetch_hidden_ns, 0);
        assert_eq!(cp.fetch_wait_ns, 200);
    }

    #[test]
    fn structural_tree_shape() {
        let tree = sample_tree(5);
        assert_eq!(tree.spans[0].name, node::REQUEST);
        assert_eq!(tree.spans[0].parent, NO_PARENT);
        let seg = tree
            .spans
            .iter()
            .position(|s| s.name == node::SEGMENT)
            .unwrap();
        assert_eq!(tree.spans[seg].parent, 0);
        assert_eq!(tree.spans[seg].a, 3);
        let fault = tree
            .spans
            .iter()
            .position(|s| s.name == node::FAULT)
            .unwrap();
        assert_eq!(tree.spans[fault].parent as usize, seg);
        let fetch = tree
            .spans
            .iter()
            .position(|s| s.name == node::FETCH)
            .unwrap();
        assert_eq!(tree.spans[fetch].parent as usize, fault);
        // nic_queue + wire tile the fetch span.
        let nq = &tree.spans[fetch + 1];
        let wire = &tree.spans[fetch + 2];
        assert_eq!(nq.name, node::NIC_QUEUE);
        assert_eq!(wire.name, node::WIRE);
        assert_eq!(nq.parent as usize, fetch);
        assert_eq!(nq.dur_ns() + wire.dur_ns(), tree.spans[fetch].dur_ns());
        // The spin after the fetch is a child of the fault.
        let spin = tree.spans.iter().find(|s| s.name == stage::SPIN).unwrap();
        assert_eq!(spin.parent as usize, fault);
    }

    #[test]
    fn retransmitted_fetch_gets_a_retrans_child() {
        let mut b = SpanBuilder::new(0, 0, t(0), Vec::new());
        b.begin_fault(t(0), 9);
        b.phase(stage::HANDLE, t(50));
        b.fetch_with_retrans(t(50), t(70), t(16_070), t(18_000), 9, 2, 1);
        b.failover(t(18_000), 1, 2);
        b.fetch_with_retrans(t(18_000), t(18_020), t(18_020), t(20_000), 9, 3, 0);
        b.phase(stage::SPIN, t(20_000));
        b.end_fault(t(20_000));
        let tree = b.finish(t(20_000));

        let retrans: Vec<&Span> = tree
            .spans
            .iter()
            .filter(|s| s.name == node::RETRANS)
            .collect();
        assert_eq!(retrans.len(), 1, "only the lossy fetch has one");
        assert_eq!(retrans[0].start, t(70));
        assert_eq!(retrans[0].end, t(16_070));
        assert_eq!(retrans[0].a, 1, "carries the retransmit count");

        // The first fetch's wire span starts at the final attempt.
        let wires: Vec<&Span> = tree.spans.iter().filter(|s| s.name == node::WIRE).collect();
        assert_eq!(wires[0].start, t(16_070));
        assert_eq!(wires[1].start, t(18_020));

        let fo = tree
            .spans
            .iter()
            .find(|s| s.name == node::FAILOVER)
            .expect("failover marker");
        assert_eq!((fo.start, fo.a, fo.b), (t(18_000), 1, 2));
        assert_eq!(fo.dur_ns(), 0);

        // Structural additions never disturb the phase-tiling identity.
        let cp = CriticalPath::of(&tree);
        assert_eq!(cp.components_sum(), tree.e2e_ns());
        // Both fetch walls are accounted.
        assert_eq!(cp.fetch_wall_ns, (18_000 - 50) + (20_000 - 18_000));

        // Perfetto export renders retrans as async pair and failover as
        // an instant event, deterministically.
        let json = perfetto_json(&[tree]);
        assert!(json.contains("\"name\":\"retrans\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"name\":\"failover\""));
    }

    #[test]
    fn stage_stats_percentiles_monotone() {
        let mut stats = StageStats::new();
        for i in 0..500u64 {
            let mut b = SpanBuilder::new(i, 0, t(0), Vec::new());
            b.phase(stage::QUEUE, t(10 + i % 97));
            b.phase(stage::HANDLE, t(200 + 13 * (i % 31)));
            let tree = b.finish(t(200 + 13 * (i % 31)));
            stats.record(&CriticalPath::of(&tree));
        }
        for (name, h) in stats.iter() {
            let (p50, p99, p999) = (h.percentile(50.0), h.percentile(99.0), h.percentile(99.9));
            assert!(p50 <= p99 && p99 <= p999, "{name}: {p50} {p99} {p999}");
        }
        assert_eq!(stats.get("e2e").unwrap().count(), 500);
    }

    #[test]
    fn store_counts_only_measured_window() {
        let mut store = SpanStore::new(SpanConfig::default());
        let mut b = store.builder(0, t(0));
        b.phase(stage::HANDLE, t(100));
        store.complete(b, t(100), false); // warm-up
        let mut b = store.builder(0, t(200));
        b.phase(stage::HANDLE, t(450));
        let cp = store.complete(b, t(450), true);
        assert_eq!(cp.e2e_ns, 250);
        let report = store.finish();
        assert_eq!(report.measured, 1);
        assert_eq!(report.attributions.len(), 1);
        assert_eq!(report.stats.get("e2e").unwrap().count(), 1);
    }

    #[test]
    fn exemplar_sampler_is_bounded_and_keeps_the_tail() {
        let mut store = SpanStore::new(SpanConfig::with_exemplars(0.0, 4));
        for i in 1..=100u64 {
            let mut b = store.builder(0, t(0));
            b.phase(stage::HANDLE, t(i * 10));
            store.complete(b, t(i * 10), true);
        }
        let report = store.finish();
        assert_eq!(report.exemplars.len(), 4);
        // The four slowest requests (970..=1000 ns) survive.
        let mut kept: Vec<u64> = report.exemplars.iter().map(|t| t.e2e_ns()).collect();
        kept.sort_unstable();
        assert_eq!(kept, vec![970, 980, 990, 1_000]);
        // Sorted by arrival sequence for deterministic export.
        let seqs: Vec<u64> = report.exemplars.iter().map(|t| t.request).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted);
    }

    #[test]
    fn exemplar_threshold_filters_the_fast_majority() {
        let mut store = SpanStore::new(SpanConfig::with_exemplars(99.0, 16));
        // 1000 fast requests and 5 slow ones; only the tail (and the
        // cold-start admissions before the histogram stabilizes)
        // should be retained.
        for i in 0..1_000u64 {
            let mut b = store.builder(0, t(0));
            b.phase(stage::HANDLE, t(100 + i % 7));
            store.complete(b, t(100 + i % 7), true);
        }
        for _ in 0..5 {
            let mut b = store.builder(0, t(0));
            b.phase(stage::HANDLE, t(10_000));
            store.complete(b, t(10_000), true);
        }
        let report = store.finish();
        assert!(report.exemplars.len() <= 16);
        let slow = report
            .exemplars
            .iter()
            .filter(|t| t.e2e_ns() == 10_000)
            .count();
        assert_eq!(slow, 5, "all tail trees retained");
    }

    #[test]
    fn store_recycles_buffers() {
        let mut store = SpanStore::new(SpanConfig::stats_only());
        for _ in 0..10 {
            let mut b = store.builder(0, t(0));
            b.phase(stage::HANDLE, t(50));
            store.complete(b, t(50), true);
        }
        assert!(!store.pool.is_empty() && store.pool.len() <= 10);
        let b = store.builder(0, t(0));
        store.discard(b);
        assert!(!store.pool.is_empty());
    }

    #[test]
    fn perfetto_json_is_deterministic_and_pairs_async_events() {
        let trees = [sample_tree(0)];
        let a = perfetto_json(&trees);
        assert_eq!(a, perfetto_json(&trees));
        assert!(a.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(a.ends_with("]}"));
        let begins = a.matches("\"ph\":\"b\"").count();
        let ends = a.matches("\"ph\":\"e\"").count();
        assert_eq!(begins, ends);
        assert_eq!(begins, 3); // fetch + nic_queue + wire
                               // Phase spans land on the phases track with µs timestamps.
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("\"name\":\"queue\""));
        assert!(a.contains("\"ts\":0.000"));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "phase tiling must reach the reply instant")]
    fn finish_requires_complete_tiling() {
        let mut b = SpanBuilder::new(0, 0, t(0), Vec::new());
        b.phase(stage::NET, t(50));
        let _ = b.finish(t(100));
    }
}
