//! System configuration: the four evaluated systems and their cost
//! constants.

use desim::SimDuration;
use fabric::{FabricParams, ShardPolicy};
use paging::reclaim::{ReclaimerMode, Watermarks};
use paging::EvictionPolicy;

/// Which paper system a configuration models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// Infiniswap (NSDI '17): the original paging-based MD system —
    /// yield-based like Adios, but through the *kernel* scheduler
    /// (≈4 µs context switches, block-layer swap path, scheduler
    /// wake-up delays). The paper measured it off the charts (P99.9
    /// 582 µs–73 ms, 261 KRPS) and excluded it from the figures.
    Infiniswap,
    /// Hermit: kernel-based busy-waiting with asynchronous non-critical
    /// work (NSDI '23).
    Hermit,
    /// DiLOS: unikernel busy-waiting (EuroSys '23) — the paper's main
    /// baseline.
    Dilos,
    /// DiLOS extended with Concord-style preemptive scheduling (§5
    /// Setup, "DiLOS-P").
    DilosP,
    /// Adios: yield-based page fault handling with unithreads.
    Adios,
}

impl SystemKind {
    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            SystemKind::Infiniswap => "Infiniswap",
            SystemKind::Hermit => "Hermit",
            SystemKind::Dilos => "DiLOS",
            SystemKind::DilosP => "DiLOS-P",
            SystemKind::Adios => "Adios",
        }
    }

    /// The four systems of the paper's figures, in plotting order
    /// (Infiniswap is excluded exactly as the paper excludes it).
    pub fn all() -> [SystemKind; 4] {
        [
            SystemKind::Hermit,
            SystemKind::Dilos,
            SystemKind::DilosP,
            SystemKind::Adios,
        ]
    }
}

/// What the page fault handler does while the fetch is in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPolicy {
    /// Spin on the CQ until the fetch completes (Fastswap/Hermit/DiLOS).
    BusyWait,
    /// Spin, but the scheduler preempts requests at app-level probe
    /// points every [`PREEMPT_INTERVAL`] (DiLOS-P / Concord).
    BusyWaitPreempt,
    /// Issue the fetch and context-switch back to the worker (Adios).
    Yield,
}

/// How the dispatcher picks a worker when several are idle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerSelect {
    /// Rotate over idle workers (Shinjuku/Concord baseline).
    RoundRobin,
    /// Algorithm 1: sort idle workers by outstanding page-fetch count
    /// and prefer the least congested QP.
    PfAware,
}

/// How arrivals are admitted when the ingress plane has more than one
/// dispatcher core (`SystemConfig::dispatchers`).
///
/// With `dispatchers = 1` every policy degenerates to the paper's
/// single-queue FCFS dispatcher except [`DispatchPolicy::FlatCombining`],
/// whose batch amortisation applies even to a lone combiner.
/// `dispatchers = 1` with [`DispatchPolicy::SingleFcfs`] reproduces the
/// pre-scaling byte stream bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// The paper's design: one shared FCFS ingress queue whose head is a
    /// serialization point. Extra dispatcher cores idle — this is the
    /// baseline the scaling sweep measures the knee of.
    SingleFcfs,
    /// Per-dispatcher ingress queues with RSS-style hash steering; a
    /// dispatcher whose timeline is idle steals an arrival from a busier
    /// sibling, paying [`STEAL_COST`] on its own timeline.
    WorkStealing,
    /// Flat combining / delegation: arrivals publish to per-dispatcher
    /// slots and the current combiner drains them in batches under an
    /// exclusive combiner role. The batch opener pays the full
    /// [`DISPATCH_COST`]; joiners within [`COMBINING_WINDOW`] (up to
    /// [`COMBINING_BATCH`] per batch) pay a quarter of it.
    FlatCombining,
}

impl DispatchPolicy {
    /// CLI/report label (`--dispatch-policy` accepts these).
    pub fn name(self) -> &'static str {
        match self {
            DispatchPolicy::SingleFcfs => "single-fcfs",
            DispatchPolicy::WorkStealing => "work-stealing",
            DispatchPolicy::FlatCombining => "flat-combining",
        }
    }
}

/// Queueing architecture in front of the workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueModel {
    /// One centralized FCFS queue fed by the dispatcher (c-FCFS).
    SingleQueue,
    /// Per-worker queues with random (RSS-style) steering — Hermit's
    /// kernel path, and the `ablation_queueing` baseline (d-FCFS).
    PerWorker,
    /// Per-worker queues with ZygOS-style work stealing: an idle worker
    /// takes the head of the longest peer queue (approximated
    /// centralized FCFS, §3.4, ZygOS).
    PerWorkerStealing,
}

/// Which prefetcher the page fault handler overlaps with the fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetcherKind {
    /// No pattern-based prefetching.
    None,
    /// Sequential readahead with an exponentially growing window (the
    /// OSv/DiLOS default; next-page streams only).
    Readahead {
        /// Maximum readahead window in pages.
        window: u32,
    },
    /// Leap's majority-trend prefetcher (ATC '20): detects arbitrary
    /// strides by majority vote over recent fault deltas.
    Leap {
        /// Delta-history window.
        window: u32,
        /// Maximum prefetch depth in strides.
        depth: u32,
    },
}

/// Extra costs of a kernel-based (non-unikernel) fault path.
#[derive(Debug, Clone, Copy)]
pub struct KernelCosts {
    /// Exception entry into the kernel.
    pub fault_entry: SimDuration,
    /// Swap-path software work on the critical path (Hermit moves ~10 %
    /// of it off the critical path; that discount is already applied by
    /// `SystemConfig::hermit`).
    pub swap_work: SimDuration,
    /// Return to user (`iret`-class, §3: 1–2 µs control transfer).
    pub kernel_exit: SimDuration,
    /// Kernel network-stack cost added to every request (no kernel
    /// bypass on the client path).
    pub net_stack: SimDuration,
    /// Mean period between kernel interference events per worker
    /// (scheduler ticks, softirqs, kswapd — the kernel tail).
    pub interference_period: SimDuration,
    /// Mean duration of one interference stall.
    pub interference_stall: SimDuration,
}

// ----- costs every system shares (no preset or caller varies them) -----

/// Flat-combining batch window: arrivals landing within this window of
/// the batch opener may join its batch at amortised cost.
pub const COMBINING_WINDOW: SimDuration = SimDuration::from_micros(1);
/// Maximum requests per flat-combining batch (opener included).
pub const COMBINING_BATCH: usize = 8;
/// Reclaim watermarks: reclamation starts below 15 % free frames (the
/// paper's threshold, §3.3) and stops at 16 %.
pub const WATERMARKS: Watermarks = Watermarks::new(0.15, 0.16);
/// Preemption interval (DiLOS-P; paper default 5 µs).
pub const PREEMPT_INTERVAL: SimDuration = SimDuration::from_micros(5);
/// Cost of one preemption (probe hit + ucontext-class switch +
/// re-enqueue).
pub const PREEMPT_COST: SimDuration = SimDuration::from_nanos(220);
/// Cost of one work-steal, by a dispatcher ([`DispatchPolicy::WorkStealing`])
/// or by a worker ([`QueueModel::PerWorkerStealing`]).
pub const STEAL_COST: SimDuration = SimDuration::from_nanos(250);
/// Dispatcher cost to admit + dispatch one request.
pub const DISPATCH_COST: SimDuration = SimDuration::from_nanos(150);
/// Dispatcher cost to hand a queued request to a newly idle worker.
pub const HANDOFF_COST: SimDuration = SimDuration::from_nanos(80);
/// Dispatcher cost to recycle one delegated TX completion.
pub const RECYCLE_COST: SimDuration = SimDuration::from_nanos(60);
/// Worker cost to set up a request (parse headers, create the
/// unithread / handler frame).
pub const REQUEST_SETUP: SimDuration = SimDuration::from_nanos(150);
/// Worker cost to build the reply before posting TX.
pub const REPLY_BUILD: SimDuration = SimDuration::from_nanos(100);
/// Unikernel fault-handler entry (exception + unified lookup).
pub const FAULT_ENTRY: SimDuration = SimDuration::from_nanos(500);
/// Frame allocation + WQE build cost at fault time.
pub const FAULT_ISSUE: SimDuration = SimDuration::from_nanos(300);
/// Prefetch-algorithm compute run while the fetch is in flight.
pub const PREFETCH_COMPUTE: SimDuration = SimDuration::from_nanos(400);
/// Mapping the fetched page + resuming the faulting code.
pub const FAULT_MAP: SimDuration = SimDuration::from_nanos(700);
/// One CQ poll by a worker.
pub const CQ_POLL: SimDuration = SimDuration::from_nanos(60);
/// Per-page eviction cost paid by the reclaimer.
pub const EVICT_COST: SimDuration = SimDuration::from_nanos(100);
/// Reclaimer batch size per tick.
pub const RECLAIM_BATCH: usize = 16;
/// Wake-up delay of a `WakeUp`-mode reclaimer.
pub const RECLAIM_WAKE_DELAY: SimDuration = SimDuration::from_micros(5);
/// Synchronous direct-reclaim cost when a fault finds no free frame.
pub const DIRECT_RECLAIM_COST: SimDuration = SimDuration::from_nanos(600);
/// Total issue attempts per demand fetch (the original plus failovers)
/// before the runtime gives up and aborts the request.
pub const MAX_FETCH_ATTEMPTS: u32 = 3;

/// Full configuration of one simulated system.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Which paper system this models.
    pub kind: SystemKind,
    /// Worker threads (paper: 8).
    pub workers: usize,
    /// Page-fault handling policy.
    pub fault_policy: FaultPolicy,
    /// Worker-selection policy among idle workers.
    pub worker_select: WorkerSelect,
    /// Queueing architecture.
    pub queue_model: QueueModel,
    /// Dispatcher (ingress) cores. The paper's machine has exactly one;
    /// more model a scaled ingress plane whose admission policy is
    /// [`SystemConfig::dispatch_policy`]. One dispatcher with
    /// `SingleFcfs` reproduces the pre-scaling byte stream bit-for-bit.
    pub dispatchers: usize,
    /// Admission policy across dispatcher cores.
    pub dispatch_policy: DispatchPolicy,
    /// Whether reply-TX completions are delegated to the dispatcher's
    /// CQ (§3.4). Without it the worker busy-waits the TX completion.
    pub polling_delegation: bool,
    /// Reclaimer drive mode.
    pub reclaimer_mode: ReclaimerMode,
    /// Eviction policy of the page cache.
    pub eviction: EvictionPolicy,
    /// Kernel path costs (Hermit only).
    pub kernel: Option<KernelCosts>,
    /// Expected extra pages speculatively fetched per fault by the
    /// always-on readahead (see `paging::prefetch`; models the DiLOS/
    /// OSv prefetcher all systems run, §2.3).
    pub speculative_readahead: f64,
    /// Pattern-based prefetcher run by the fault handler.
    pub prefetcher: PrefetcherKind,
    /// Bytes fetched per fault (4 KB pages; 2 MB reproduces the paper's
    /// huge-page I/O-amplification discussion in §5.2 Silo).
    pub fetch_page_bytes: u32,
    /// Delay between a fetch completion and the faulting thread being
    /// runnable again (zero in Adios; kernel-scheduler wake-up latency
    /// in Infiniswap).
    pub resume_delay: SimDuration,
    /// Per-request networking-stack overhead beyond raw Ethernet,
    /// charged on RX admission (dispatcher) and reply TX (worker).
    /// Zero models the paper's Raw-Ethernet/UDP prototype; ~0.4 µs a
    /// TAS/IX-class kernel-bypass TCP; ~2.5 µs a kernel TCP stack
    /// (§6: "networking protocol support is orthogonal to our design").
    pub client_stack: SimDuration,
    /// One unithread context switch (Table 1: 40 cycles = 20 ns).
    pub ctx_switch: SimDuration,
    /// Central pending-queue capacity (arrivals beyond it are dropped).
    pub pending_cap: usize,
    /// Memory-node shards the remote page space is partitioned over.
    /// Each shard gets its own memnode chain, NIC rail and QP set; a
    /// fetch routes to its page's shard. One shard reproduces the
    /// pre-sharding single-primary layout bit-for-bit.
    pub memnode_shards: usize,
    /// How pages are placed onto shards (hash by default; range keeps
    /// sequential streams on one shard).
    pub shard_policy: ShardPolicy,
    /// Memory-node replicas per shard. Replica 0 is the shard's primary
    /// every fetch targets first; under an armed fault plane, a fetch
    /// whose CQE errors fails over to the next replica in the shard's
    /// chain.
    pub memnode_replicas: usize,
    /// Fabric parameters.
    pub fabric: FabricParams,
}

impl SystemConfig {
    fn base(kind: SystemKind) -> SystemConfig {
        SystemConfig {
            kind,
            workers: 8,
            fault_policy: FaultPolicy::BusyWait,
            worker_select: WorkerSelect::RoundRobin,
            queue_model: QueueModel::SingleQueue,
            dispatchers: 1,
            dispatch_policy: DispatchPolicy::SingleFcfs,
            polling_delegation: false,
            reclaimer_mode: ReclaimerMode::WakeUp,
            eviction: EvictionPolicy::Clock,
            kernel: None,
            speculative_readahead: 0.25,
            prefetcher: PrefetcherKind::Readahead { window: 8 },
            fetch_page_bytes: paging::PAGE_SIZE as u32,
            resume_delay: SimDuration::ZERO,
            client_stack: SimDuration::ZERO,
            ctx_switch: SimDuration::from_nanos(20),
            pending_cap: 4096,
            memnode_shards: 1,
            shard_policy: ShardPolicy::Hash,
            memnode_replicas: 1,
            fabric: FabricParams::default(),
        }
    }

    /// DiLOS: unikernel busy-waiting, single queue, wake-up reclaimer.
    pub fn dilos() -> SystemConfig {
        SystemConfig::base(SystemKind::Dilos)
    }

    /// DiLOS-P: DiLOS plus Concord-style preemption (manually enforced
    /// cooperation, 5 µs interval).
    pub fn dilos_p() -> SystemConfig {
        SystemConfig {
            fault_policy: FaultPolicy::BusyWaitPreempt,
            ..SystemConfig::base(SystemKind::DilosP)
        }
    }

    /// Adios: yield-based fault handling, PF-aware dispatch, polling
    /// delegation, proactive pinned reclaimer.
    pub fn adios() -> SystemConfig {
        SystemConfig {
            fault_policy: FaultPolicy::Yield,
            worker_select: WorkerSelect::PfAware,
            polling_delegation: true,
            reclaimer_mode: ReclaimerMode::Proactive,
            ..SystemConfig::base(SystemKind::Adios)
        }
    }

    /// Hermit: kernel-based busy-waiting with per-core RSS queues,
    /// asynchronous offload of non-urgent fault work, and kernel tail
    /// interference.
    pub fn hermit() -> SystemConfig {
        SystemConfig {
            queue_model: QueueModel::PerWorker,
            kernel: Some(KernelCosts {
                fault_entry: SimDuration::from_nanos(400),
                // ~0.9 µs of swap-path software work after Hermit's
                // async design moves ~10 % off the critical path.
                swap_work: SimDuration::from_nanos(800),
                kernel_exit: SimDuration::from_nanos(600),
                net_stack: SimDuration::from_nanos(700),
                interference_period: SimDuration::from_micros(800),
                interference_stall: SimDuration::from_micros(60),
            }),
            ..SystemConfig::base(SystemKind::Hermit)
        }
    }

    /// Infiniswap: yield-based paging through the kernel — heavyweight
    /// context switches, block-layer swap work per fault, and scheduler
    /// wake-up latency before a fetched thread runs again.
    pub fn infiniswap() -> SystemConfig {
        SystemConfig {
            fault_policy: FaultPolicy::Yield,
            queue_model: QueueModel::PerWorker,
            // ~4 µs kernel context switch (Litton et al., §7): 2 µs per
            // direction.
            ctx_switch: SimDuration::from_micros(2),
            resume_delay: SimDuration::from_micros(30),
            kernel: Some(KernelCosts {
                fault_entry: SimDuration::from_nanos(600),
                // Block-layer swap path (bio + frontswap + RDMA block
                // driver) — far heavier than Hermit's tuned path.
                swap_work: SimDuration::from_micros(6),
                kernel_exit: SimDuration::from_micros(1),
                net_stack: SimDuration::from_micros(1),
                interference_period: SimDuration::from_micros(600),
                interference_stall: SimDuration::from_micros(150),
            }),
            ..SystemConfig::base(SystemKind::Infiniswap)
        }
    }

    /// The configuration for a [`SystemKind`].
    pub fn for_kind(kind: SystemKind) -> SystemConfig {
        match kind {
            SystemKind::Infiniswap => SystemConfig::infiniswap(),
            SystemKind::Hermit => SystemConfig::hermit(),
            SystemKind::Dilos => SystemConfig::dilos(),
            SystemKind::DilosP => SystemConfig::dilos_p(),
            SystemKind::Adios => SystemConfig::adios(),
        }
    }

    /// Memory-node replicas per shard, clamped to at least one — a
    /// chain always has its primary. Every consumer of
    /// [`SystemConfig::memnode_replicas`] must go through this accessor
    /// so the clamp lives in exactly one place.
    pub fn replicas(&self) -> usize {
        self.memnode_replicas.max(1)
    }

    /// Validated memory-node shard count.
    ///
    /// # Panics
    ///
    /// Panics when `memnode_shards` is zero (a page space with no home).
    pub fn shards(&self) -> usize {
        assert!(
            self.memnode_shards >= 1,
            "memnode_shards must be at least 1"
        );
        self.memnode_shards
    }

    /// Validated dispatcher-core count.
    ///
    /// # Panics
    ///
    /// Panics when `dispatchers` is zero (nobody to admit arrivals) or
    /// exceeds 65 536: a request carries the dispatcher that admitted it
    /// and the ingress slot it was steered to as `u16` indices.
    pub fn ndispatchers(&self) -> usize {
        assert!(self.dispatchers >= 1, "dispatchers must be at least 1");
        assert!(
            self.dispatchers <= 1 << 16,
            "dispatchers must not exceed 65536 (requests carry u16 dispatcher indices)"
        );
        self.dispatchers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_setup() {
        let a = SystemConfig::adios();
        assert_eq!(a.workers, 8);
        assert_eq!(a.fault_policy, FaultPolicy::Yield);
        assert_eq!(a.worker_select, WorkerSelect::PfAware);
        assert!(a.polling_delegation);
        assert_eq!(a.reclaimer_mode, ReclaimerMode::Proactive);
        assert_eq!(a.dispatchers, 1, "the paper's machine has one dispatcher");
        assert_eq!(a.dispatch_policy, DispatchPolicy::SingleFcfs);

        let d = SystemConfig::dilos();
        assert_eq!(d.fault_policy, FaultPolicy::BusyWait);
        assert_eq!(d.worker_select, WorkerSelect::RoundRobin);
        assert!(!d.polling_delegation);

        let p = SystemConfig::dilos_p();
        assert_eq!(p.fault_policy, FaultPolicy::BusyWaitPreempt);
        assert_eq!(PREEMPT_INTERVAL, SimDuration::from_micros(5));

        let h = SystemConfig::hermit();
        assert!(h.kernel.is_some());
        assert_eq!(h.queue_model, QueueModel::PerWorker);

        // The shared constants: reclamation at the paper's 15 % (the
        // same thresholds `paging` defaults to), three fetch attempts.
        let paging_default = Watermarks::default();
        assert_eq!(WATERMARKS.low, 0.15);
        assert_eq!(
            (WATERMARKS.low, WATERMARKS.high),
            (paging_default.low, paging_default.high)
        );
        assert_eq!(MAX_FETCH_ATTEMPTS, 3);
    }

    #[test]
    fn kind_names() {
        assert_eq!(SystemKind::Adios.name(), "Adios");
        assert_eq!(SystemKind::DilosP.name(), "DiLOS-P");
        assert_eq!(SystemKind::all().len(), 4);
    }

    #[test]
    fn for_kind_round_trips() {
        for kind in SystemKind::all() {
            assert_eq!(SystemConfig::for_kind(kind).kind, kind);
        }
    }

    #[test]
    fn shard_and_replica_accessors_validate() {
        let cfg = SystemConfig::adios();
        assert_eq!(cfg.shards(), 1, "presets default to the unsharded layout");
        assert_eq!(cfg.replicas(), 1);

        let sharded = SystemConfig {
            memnode_shards: 4,
            memnode_replicas: 0, // clamped, not rejected: chains keep a primary
            ..SystemConfig::adios()
        };
        assert_eq!(sharded.shards(), 4);
        assert_eq!(sharded.replicas(), 1);
        assert_eq!(sharded.shard_policy, ShardPolicy::Hash);
    }

    #[test]
    #[should_panic(expected = "memnode_shards must be at least 1")]
    fn zero_shards_rejected() {
        let cfg = SystemConfig {
            memnode_shards: 0,
            ..SystemConfig::adios()
        };
        let _ = cfg.shards();
    }

    #[test]
    fn dispatcher_accessor_validates() {
        let cfg = SystemConfig::adios();
        assert_eq!(cfg.ndispatchers(), 1, "presets default to one dispatcher");

        let scaled = SystemConfig {
            dispatchers: 4,
            dispatch_policy: DispatchPolicy::WorkStealing,
            ..SystemConfig::adios()
        };
        assert_eq!(scaled.ndispatchers(), 4);
        assert_eq!(scaled.dispatch_policy.name(), "work-stealing");

        let widest = SystemConfig {
            dispatchers: 1 << 16,
            ..SystemConfig::adios()
        };
        assert_eq!(widest.ndispatchers(), 65_536, "every u16 index is usable");
    }

    #[test]
    #[should_panic(expected = "dispatchers must be at least 1")]
    fn zero_dispatchers_rejected() {
        let cfg = SystemConfig {
            dispatchers: 0,
            ..SystemConfig::adios()
        };
        let _ = cfg.ndispatchers();
    }

    #[test]
    #[should_panic(expected = "dispatchers must not exceed 65536")]
    fn oversized_dispatcher_count_rejected() {
        let cfg = SystemConfig {
            dispatchers: (1 << 16) + 1,
            ..SystemConfig::adios()
        };
        let _ = cfg.ndispatchers();
    }

    #[test]
    fn unithread_switch_matches_table_1() {
        // 40 cycles at 2 GHz = 20 ns.
        assert_eq!(SystemConfig::adios().ctx_switch.as_cycles(), 40);
    }
}
