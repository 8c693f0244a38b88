//! A cooperative unithread runner.
//!
//! [`Runner`] plays the role of an Adios *worker*: it owns a
//! [`BufferPool`], creates a unithread per request, context-switches
//! into it, and regains control whenever the thread yields (the
//! page-fault handler's yield in the paper), parks, or finishes. The
//! single-address-space property the paper gets from the unikernel is
//! inherent here: runner, threads and "kernel" code share one process.

use std::cell::Cell;
use std::collections::VecDeque;

use crate::buffer::BufferPool;
use crate::context::{switch, Context};

/// Identifies a unithread in its runner (the buffer index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ThreadId(pub u32);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Free,
    Ready,
    Running,
    Parked,
    Finished,
}

/// Why `Runner::spawn` failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpawnError {
    /// Every pre-allocated buffer is in use.
    PoolExhausted,
}

type EntryFn = Box<dyn FnOnce(&mut Yielder)>;

/// Context-switch accounting of one runner.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwitchStats {
    /// Unithreads spawned.
    pub spawns: u64,
    /// Parks (the page-fault handler's yield).
    pub parks: u64,
    /// Unparks (fetch completions making a thread runnable).
    pub unparks: u64,
    /// Unithreads run to completion.
    pub finishes: u64,
    /// One-way context switches performed.
    pub switches: u64,
}

struct Core {
    pool: BufferPool,
    state: Vec<State>,
    entries: Vec<Option<EntryFn>>,
    main_ctx: Context,
    ready: VecDeque<u32>,
    current: Option<u32>,
    panic_payload: Option<Box<dyn std::any::Any + Send>>,
    stats: SwitchStats,
}

thread_local! {
    static CURRENT_CORE: Cell<*mut Core> = const { Cell::new(std::ptr::null_mut()) };
}

/// Handle a running unithread uses to give up the CPU.
pub struct Yielder {
    core: *mut Core,
    tid: u32,
}

impl Yielder {
    /// This thread's id.
    pub fn id(&self) -> ThreadId {
        ThreadId(self.tid)
    }

    /// Yields to the runner and re-queues this thread at the back of
    /// the ready queue (cooperative time slicing).
    pub fn yield_now(&mut self) {
        // SAFETY: `core` outlives every thread it runs (threads only
        // execute inside `Runner::run_one`, which borrows the runner).
        let core = unsafe { &mut *self.core };
        core.state[self.tid as usize] = State::Ready;
        core.ready.push_back(self.tid);
        self.switch_to_runner();
    }

    /// Yields to the runner without re-queueing; the thread sleeps until
    /// [`Runner::unpark`]. This is the page-fault handler's yield: the
    /// thread resumes only when its page fetch completes.
    pub fn park(&mut self) {
        // SAFETY: as in `yield_now`.
        let core = unsafe { &mut *self.core };
        core.state[self.tid as usize] = State::Parked;
        core.stats.parks += 1;
        self.switch_to_runner();
    }

    /// The packet-payload area of this thread's unified buffer.
    pub fn payload(&mut self) -> &mut [u8] {
        // SAFETY: the buffer is acquired for this live thread and the
        // returned borrow is tied to `self`, its unique accessor.
        unsafe { (&mut *self.core).pool.payload_mut(self.tid) }
    }

    fn switch_to_runner(&mut self) {
        // SAFETY: both contexts are alive: the runner's main context is
        // owned by `Core` and this thread's context sits in its acquired
        // buffer; the reference ends before the switch, which returns
        // when the runner resumes us.
        let (own, main) = unsafe {
            let c = &mut *self.core;
            c.stats.switches += 1;
            (c.pool.context_ptr(self.tid), &raw const c.main_ctx)
        };
        // SAFETY: see above; both context blocks stay allocated.
        unsafe { switch(own, main) };
    }
}

extern "C" fn trampoline(arg: u64) -> ! {
    let tid = arg as u32;
    let core = CURRENT_CORE.with(|c| c.get());
    debug_assert!(!core.is_null(), "trampoline outside a runner");
    // SAFETY: `run_one` installed `core` and keeps it alive while the
    // thread runs; the reference is dropped before any switch.
    let entry = unsafe { (&mut *core).entries[tid as usize].take() }.expect("thread without entry");
    let mut yielder = Yielder { core, tid };
    // Panics must not unwind across the assembly boundary: catch and
    // re-raise on the runner side.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        entry(&mut yielder);
    }));
    // SAFETY: core is still alive; we are on this thread's own stack,
    // and the mutable reference ends before the final switch.
    let (own, main) = unsafe {
        let c = &mut *core;
        if let Err(payload) = result {
            c.panic_payload = Some(payload);
        }
        c.state[tid as usize] = State::Finished;
        c.stats.finishes += 1;
        c.stats.switches += 1;
        (c.pool.context_ptr(tid), &raw const c.main_ctx)
    };
    // SAFETY: contexts derived above remain valid; the runner resumes
    // and recycles this buffer only after the switch completes.
    unsafe { switch(own, main) };
    unreachable!("resumed a finished unithread");
}

/// A single-core cooperative unithread scheduler.
///
/// # Examples
///
/// ```
/// use unithread::Runner;
///
/// let mut worker = Runner::new(16, 32 * 1024, 256);
/// // A request that "faults" (parks) once mid-execution.
/// let tid = worker
///     .spawn(b"GET k1", |y| {
///         let first = y.payload()[0];
///         y.park(); // yield-based page fault
///         assert_eq!(y.payload()[0], first); // stack + buffer intact
///     })
///     .unwrap();
/// worker.run_until_idle();          // ran until the park
/// assert_eq!(worker.live_count(), 1);
/// worker.unpark(tid);               // fetch completed
/// worker.run_until_idle();
/// assert_eq!(worker.live_count(), 0); // buffer recycled
/// ```
pub struct Runner {
    core: Box<Core>,
}

impl Runner {
    /// Creates a runner with `capacity` pre-allocated buffers of
    /// `buf_size` bytes (`payload_capacity` of each reserved for packet
    /// payload).
    ///
    /// Rust frames are larger than the C frames of the paper's
    /// unikernel; for closures that do real work, prefer ≥ 16 KB
    /// buffers over the paper's 4 KB.
    pub fn new(capacity: usize, buf_size: usize, payload_capacity: usize) -> Runner {
        Runner {
            core: Box::new(Core {
                pool: BufferPool::new(capacity, buf_size, payload_capacity),
                state: vec![State::Free; capacity],
                entries: (0..capacity).map(|_| None).collect(),
                main_ctx: Context::zeroed(),
                ready: VecDeque::new(),
                current: None,
                panic_payload: None,
                stats: SwitchStats::default(),
            }),
        }
    }

    /// Spawns a unithread for a request; `payload` is copied into the
    /// unified buffer's packet area (as the paper's networking stack
    /// does on RX).
    pub fn spawn<F>(&mut self, payload: &[u8], f: F) -> Result<ThreadId, SpawnError>
    where
        F: FnOnce(&mut Yielder) + 'static,
    {
        let core = &mut *self.core;
        let Some(idx) = core.pool.acquire() else {
            return Err(SpawnError::PoolExhausted);
        };
        // SAFETY: freshly acquired buffer, no other alias.
        let dst = unsafe { core.pool.payload_mut(idx) };
        let n = payload.len().min(dst.len());
        dst[..n].copy_from_slice(&payload[..n]);

        core.entries[idx as usize] = Some(Box::new(f));
        let ctx = Context::prepare(trampoline, idx as u64, core.pool.stack_top(idx));
        // SAFETY: the context block lives inside the acquired buffer.
        unsafe { core.pool.context_ptr(idx).write(ctx) };
        core.state[idx as usize] = State::Ready;
        core.ready.push_back(idx);
        core.stats.spawns += 1;
        Ok(ThreadId(idx))
    }

    /// Runs the next ready unithread until it yields, parks or
    /// finishes. Returns `false` if nothing was ready.
    ///
    /// # Panics
    ///
    /// Re-raises a panic that occurred inside the unithread, and panics
    /// if a thread overflowed its universal stack (canary check).
    pub fn run_one(&mut self) -> bool {
        let core: *mut Core = &mut *self.core;
        // Pre-switch bookkeeping through a short-lived reference that
        // ends before the switch (thread code re-derives its own).
        let (tid, main, target) = {
            let c = &mut *self.core;
            let Some(tid) = c.ready.pop_front() else {
                return false;
            };
            debug_assert_eq!(c.state[tid as usize], State::Ready);
            c.state[tid as usize] = State::Running;
            c.current = Some(tid);
            c.stats.switches += 1;
            (tid, &raw mut c.main_ctx, c.pool.context_ptr(tid))
        };
        let prev = CURRENT_CORE.with(|c| c.replace(core));
        // SAFETY: `main` and `target` point into `self.core`, which is
        // heap-pinned and outlives the call; no reference is live across
        // the switch.
        unsafe { switch(main, target) };
        CURRENT_CORE.with(|c| c.set(prev));

        let c = &mut *self.core;
        c.current = None;
        assert!(
            c.pool.canary_intact(tid),
            "unithread {tid} overflowed its universal stack"
        );
        if c.state[tid as usize] == State::Finished {
            c.state[tid as usize] = State::Free;
            c.entries[tid as usize] = None;
            c.pool.release(tid);
        }
        if let Some(p) = c.panic_payload.take() {
            std::panic::resume_unwind(p);
        }
        true
    }

    /// Runs until no thread is ready (parked threads stay parked).
    pub fn run_until_idle(&mut self) {
        while self.run_one() {}
    }

    /// Makes a parked thread ready again (fetch completion in the
    /// paper's Figure 5, step 8).
    ///
    /// # Panics
    ///
    /// Panics if the thread is not parked.
    pub fn unpark(&mut self, tid: ThreadId) {
        let core = &mut *self.core;
        assert_eq!(
            core.state[tid.0 as usize],
            State::Parked,
            "unpark of non-parked thread {tid:?}"
        );
        core.state[tid.0 as usize] = State::Ready;
        core.ready.push_back(tid.0);
        core.stats.unparks += 1;
    }

    /// Threads alive in any state (ready, running or parked).
    pub fn live_count(&self) -> usize {
        self.core.pool.capacity() - self.core.pool.free_count()
    }

    /// One-way context switches performed so far.
    pub fn switch_count(&self) -> u64 {
        self.core.stats.switches
    }

    /// Full context-switch accounting (spawns, parks, unparks,
    /// finishes, switches).
    pub fn stats(&self) -> SwitchStats {
        self.core.stats
    }

    #[cfg(test)]
    pub(crate) fn corrupt_canary_for_test(&mut self, tid: ThreadId) {
        self.core.pool.corrupt_canary_for_test(tid.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn runner(cap: usize) -> Runner {
        Runner::new(cap, 32 * 1024, 256)
    }

    #[test]
    fn runs_to_completion() {
        let mut r = runner(4);
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        r.spawn(b"", move |_| {
            h.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        assert!(r.run_one());
        assert!(!r.run_one());
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert_eq!(r.live_count(), 0, "buffer recycled");
    }

    #[test]
    fn yield_now_round_robins() {
        let mut r = runner(4);
        let log = Rc::new(std::cell::RefCell::new(Vec::new()));
        for name in 0..2u32 {
            let log = log.clone();
            r.spawn(b"", move |y| {
                log.borrow_mut().push((name, 0));
                y.yield_now();
                log.borrow_mut().push((name, 1));
            })
            .unwrap();
        }
        r.run_until_idle();
        assert_eq!(
            &*log.borrow(),
            &[(0, 0), (1, 0), (0, 1), (1, 1)],
            "yields interleave in FIFO order"
        );
    }

    #[test]
    fn park_requires_unpark() {
        let mut r = runner(2);
        let done = Rc::new(std::cell::Cell::new(false));
        let d = done.clone();
        let tid = r
            .spawn(b"", move |y| {
                y.park();
                d.set(true);
            })
            .unwrap();
        r.run_until_idle();
        assert!(!done.get(), "parked thread must not resume by itself");
        assert_eq!(r.live_count(), 1);
        r.unpark(tid);
        r.run_until_idle();
        assert!(done.get());
        assert_eq!(r.live_count(), 0);
    }

    #[test]
    fn payload_is_copied_into_unified_buffer() {
        let mut r = runner(1);
        let seen = Rc::new(std::cell::RefCell::new(Vec::new()));
        let s = seen.clone();
        r.spawn(b"GET key17", move |y| {
            s.borrow_mut().extend_from_slice(&y.payload()[..9]);
        })
        .unwrap();
        r.run_until_idle();
        assert_eq!(&*seen.borrow(), b"GET key17");
    }

    #[test]
    fn pool_exhaustion_and_recycling() {
        let mut r = runner(2);
        r.spawn(b"", |y| y.park()).unwrap();
        r.spawn(b"", |y| y.park()).unwrap();
        assert!(matches!(
            r.spawn(b"", |_| {}),
            Err(SpawnError::PoolExhausted)
        ));
        r.run_until_idle(); // both park
        assert_eq!(r.live_count(), 2);
    }

    #[test]
    fn thousand_threads_interleave() {
        let mut r = Runner::new(1024, 16 * 1024, 64);
        let sum = Rc::new(std::cell::Cell::new(0u64));
        for i in 0..1000u64 {
            let sum = sum.clone();
            r.spawn(b"", move |y| {
                y.yield_now();
                sum.set(sum.get() + i);
                y.yield_now();
            })
            .unwrap();
        }
        r.run_until_idle();
        assert_eq!(sum.get(), 999 * 1000 / 2);
        assert!(r.switch_count() >= 2 * 3 * 1000_u64 / 2);
    }

    #[test]
    fn unithread_panic_propagates_to_runner() {
        let mut r = runner(2);
        r.spawn(b"", |_| panic!("boom in unithread")).unwrap();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            r.run_one();
        }));
        assert!(err.is_err());
        assert_eq!(r.live_count(), 0, "buffer still recycled after panic");
    }

    #[test]
    #[should_panic(expected = "overflowed its universal stack")]
    fn canary_corruption_detected() {
        let mut r = runner(2);
        let tid = r
            .spawn(b"", |y| {
                y.yield_now();
            })
            .unwrap();
        r.run_one(); // thread yields back
        r.corrupt_canary_for_test(tid);
        r.run_one(); // detection on return
    }

    #[test]
    #[should_panic(expected = "unpark of non-parked")]
    fn unpark_ready_thread_panics() {
        let mut r = runner(1);
        let tid = r.spawn(b"", |_| {}).unwrap();
        r.unpark(tid);
    }

    #[test]
    fn switch_stats_account_for_lifecycle() {
        let mut r = runner(4);
        let t1 = r.spawn(b"", |y| y.park()).unwrap();
        r.spawn(b"", |y| y.yield_now()).unwrap();
        r.run_until_idle(); // t1 parks; t2 yields then finishes
        r.unpark(t1);
        r.run_until_idle(); // t1 finishes
        let s = r.stats();
        assert_eq!(s.spawns, 2);
        assert_eq!(s.parks, 1);
        assert_eq!(s.unparks, 1);
        assert_eq!(s.finishes, 2);
        // Every dispatch and every return is one one-way switch: t1 runs
        // twice (park + finish), t2 twice (yield + finish) → 8 switches.
        assert_eq!(s.switches, 8);
        assert_eq!(s.switches, r.switch_count());
    }

    #[test]
    fn recursion_fits_universal_stack() {
        fn fib(n: u64) -> u64 {
            if n < 2 {
                n
            } else {
                fib(n - 1) + fib(n - 2)
            }
        }
        let mut r = Runner::new(1, 64 * 1024, 64);
        let out = Rc::new(std::cell::Cell::new(0u64));
        let o = out.clone();
        r.spawn(b"", move |_| o.set(fib(15))).unwrap();
        r.run_until_idle();
        assert_eq!(out.get(), 610);
    }
}
