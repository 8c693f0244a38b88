//! Deterministic event queue.
//!
//! All simulated activity is driven by a single [`EventQueue`]. Events
//! scheduled for the same instant are delivered in insertion order
//! (FIFO), which makes every run a pure function of its inputs — a
//! property the integration tests rely on to compare systems under
//! identical arrival sequences.
//!
//! # Implementation: hierarchical timing wheel
//!
//! The queue is a hashed hierarchical timing wheel (Varghese & Lauck)
//! rather than a binary heap. µs-scale memory disaggregation produces
//! dense, near-sorted timestamps — fetch completions a few µs out,
//! telemetry ticks every 100 µs, retransmission timeouts a few ms out —
//! exactly the regime where O(1) wheel operations beat the heap's
//! O(log n) sift with its payload moves.
//!
//! Geometry:
//!
//! - 8 levels × 256 slots; level `L` slots are `2^(8L)` ns wide, so the
//!   eight levels tile the full 64-bit nanosecond timeline (8 × 8 = 64
//!   bits) with no overflow list.
//! - Level 0 slots are **1 ns** wide: every entry in a level-0 slot has
//!   the exact same timestamp, so FIFO delivery within a slot *is*
//!   insertion order — no per-slot sort, and the `(time, seq)` total
//!   order of the previous heap implementation is reproduced exactly.
//! - An event at time `t` lives at the level of the highest byte in
//!   which `t` differs from the current cursor, in slot
//!   `(t >> 8·L) & 0xff`.
//! - When the cursor crosses into a slot of level ≥ 2, that slot
//!   *cascades*: its entries re-place themselves one or more levels
//!   lower, preserving their relative (insertion) order.
//! - A **level-1** slot does not cascade; it is *delivered in place*.
//!   The simulator keeps only 5–25 events pending, nearly all of them
//!   0.25–8 µs out — one level-1 hop — so cascading would place almost
//!   every event twice. Instead the slot's deque (already in push
//!   order) is stable-sorted by timestamp, which *is* `(time, seq)`
//!   order, and popped from the front, merged by time with level 0.
//!   Ties go to the in-place run: its entries were all pushed before
//!   the cursor entered the slot's 256 ns window, and every push made
//!   while the cursor is inside that window differs from it only in
//!   byte 0, so it lands in level 0 and carries a later `seq`.
//! - A 256-bit occupancy bitmap per level makes "find the earliest
//!   non-empty slot" a handful of trailing-zero scans.
//!
//! Slot deques retain their capacity across reuse, so steady-state
//! operation performs no allocation per event: the wheel doubles as the
//! event-payload arena.

use std::collections::VecDeque;

use crate::time::SimTime;

/// log2(slots per level); 256 slots → one byte of the timestamp.
const SLOT_BITS: usize = 8;
/// Slots per wheel level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels; 8 levels × 8 bits cover the whole u64 ns timeline.
const LEVELS: usize = 8;
/// Words of the per-level occupancy bitmap.
const BITMAP_WORDS: usize = SLOTS / 64;

/// A total-order discrete-event queue.
///
/// # Examples
///
/// ```
/// use desim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime(20), "b");
/// q.push(SimTime(10), "a");
/// q.push(SimTime(20), "c"); // same instant as "b": FIFO order
/// assert_eq!(q.pop(), Some((SimTime(10), "a")));
/// assert_eq!(q.pop(), Some((SimTime(20), "b")));
/// assert_eq!(q.pop(), Some((SimTime(20), "c")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    /// `LEVELS * SLOTS` deques, indexed `level * SLOTS + slot`. Entries
    /// carry their absolute timestamp so cascades can re-place them.
    slots: Vec<VecDeque<(u64, E)>>,
    /// Per-level occupancy bitmaps.
    occ: [[u64; BITMAP_WORDS]; LEVELS],
    /// Pending-event count.
    len: usize,
    /// Timestamp of the most recently popped event; also the placement
    /// cursor for the wheel.
    now: SimTime,
    /// Index into `slots` of the level-1 slot being delivered in place
    /// (sorted by time, occupancy bit already cleared), or `NO_RUN`.
    /// While set the cursor sits inside that slot's 256 ns window and
    /// the deque is non-empty.
    run: usize,
}

/// `EventQueue::run` when no level-1 slot is being delivered in place.
const NO_RUN: usize = usize::MAX;

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[inline]
fn first_set(words: &[u64; BITMAP_WORDS]) -> Option<usize> {
    for (w, word) in words.iter().enumerate() {
        if *word != 0 {
            return Some(w * 64 + word.trailing_zeros() as usize);
        }
    }
    None
}

impl<E> EventQueue<E> {
    /// Creates an empty queue positioned at t = 0.
    pub fn new() -> Self {
        EventQueue {
            slots: (0..LEVELS * SLOTS).map(|_| VecDeque::new()).collect(),
            occ: [[0; BITMAP_WORDS]; LEVELS],
            len: 0,
            now: SimTime::ZERO,
            run: NO_RUN,
        }
    }

    /// Places `(t, payload)` into the wheel relative to the current
    /// cursor. Does not touch `len`.
    #[inline]
    fn place(&mut self, t: u64, payload: E) {
        // Highest differing byte between t and the cursor picks the
        // level; `| 1` maps the t == now case onto level 0.
        let x = (t ^ self.now.0) | 1;
        let level = ((63 - x.leading_zeros()) >> 3) as usize;
        let slot = ((t >> (SLOT_BITS * level)) & (SLOTS as u64 - 1)) as usize;
        self.occ[level][slot / 64] |= 1u64 << (slot % 64);
        self.slots[level * SLOTS + slot].push_back((t, payload));
    }

    /// Schedules `payload` for delivery at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the timestamp of the most
    /// recently popped event — scheduling into the past is always a
    /// simulation bug.
    pub fn push(&mut self, time: SimTime, payload: E) {
        assert!(
            time >= self.now,
            "event scheduled in the past: {time:?} < now {:?}",
            self.now
        );
        self.place(time.0, payload);
        self.len += 1;
    }

    /// Absolute timestamp of level-0 slot `slot` in the cursor's window.
    #[inline]
    fn level0_time(&self, slot: usize) -> u64 {
        (self.now.0 & !(SLOTS as u64 - 1)) | slot as u64
    }

    /// Removes and returns the next event, advancing the queue clock to
    /// its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None;
        }
        loop {
            // All pending level-0 entries lie in the cursor's current
            // 256 ns window, so the first occupied slot holds level 0's
            // earliest timestamp, FIFO within the deque.
            let l0 = first_set(&self.occ[0]);
            if self.run != NO_RUN {
                // The in-place run shares that window. Its entries were
                // all pushed before the cursor entered it, level 0's
                // after, so the run wins ties.
                let rt = self.slots[self.run][0].0;
                if l0.is_none_or(|slot| rt <= self.level0_time(slot)) {
                    let q = &mut self.slots[self.run];
                    let (t, payload) = q.pop_front().expect("in-place run on empty slot");
                    if q.is_empty() {
                        self.run = NO_RUN;
                    }
                    return Some(self.deliver(t, payload));
                }
            }
            if let Some(slot) = l0 {
                let q = &mut self.slots[slot];
                let (t, payload) = q.pop_front().expect("occupancy bit set on empty slot");
                if q.is_empty() {
                    self.occ[0][slot / 64] &= !(1u64 << (slot % 64));
                }
                return Some(self.deliver(t, payload));
            }
            // Level 0 and the run are exhausted: advance the cursor to
            // the earliest occupied slot of the lowest occupied level.
            let mut advanced = false;
            for level in 1..LEVELS {
                let Some(slot) = first_set(&self.occ[level]) else {
                    continue;
                };
                let shift = SLOT_BITS * level;
                // Absolute start of that slot: the cursor's bytes above
                // `level` are unchanged since placement (crossing them
                // would have cascaded this slot first).
                let high = if shift + SLOT_BITS >= 64 {
                    0
                } else {
                    (self.now.0 >> (shift + SLOT_BITS)) << (shift + SLOT_BITS)
                };
                let slot_start = high | ((slot as u64) << shift);
                debug_assert!(slot_start >= self.now.0);
                self.now = SimTime(slot_start);
                self.occ[level][slot / 64] &= !(1u64 << (slot % 64));
                let idx = level * SLOTS + slot;
                if level == 1 {
                    // Deliver in place: the deque holds push order, so a
                    // stable sort by time yields `(time, seq)` order with
                    // no second placement. No later push can land here —
                    // the cursor's byte 1 now equals this slot.
                    let q = self.slots[idx].make_contiguous();
                    if q.len() > 1 {
                        q.sort_by_key(|&(t, _)| t);
                    }
                    self.run = idx;
                } else {
                    let mut moved = std::mem::take(&mut self.slots[idx]);
                    for (t, payload) in moved.drain(..) {
                        debug_assert!(t >= slot_start);
                        self.place(t, payload);
                    }
                    // Hand the drained deque's capacity back to the slot.
                    self.slots[idx] = moved;
                }
                advanced = true;
                break;
            }
            debug_assert!(advanced, "len > 0 but no occupied slot");
            if !advanced {
                return None;
            }
        }
    }

    /// Books the removal of an entry at `t` and advances the clock.
    #[inline]
    fn deliver(&mut self, t: u64, payload: E) -> (SimTime, E) {
        self.len -= 1;
        debug_assert!(t >= self.now.0);
        self.now = SimTime(t);
        (SimTime(t), payload)
    }

    /// Returns the timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        // Level 0's first occupied slot and the in-place run's front
        // are the only candidates inside the cursor's window.
        let l0 = first_set(&self.occ[0]).map(|slot| self.level0_time(slot));
        let run = (self.run != NO_RUN).then(|| self.slots[self.run][0].0);
        if let Some(t) = l0.into_iter().chain(run).min() {
            return Some(SimTime(t));
        }
        // Otherwise the minimum lives in the first occupied slot of the
        // lowest occupied level; slots above level 0 are not ordered
        // internally, so scan the deque.
        for level in 1..LEVELS {
            if let Some(slot) = first_set(&self.occ[level]) {
                let t = self.slots[level * SLOTS + slot]
                    .iter()
                    .map(|(t, _)| *t)
                    .min()
                    .expect("occupancy bit set on empty slot");
                return Some(SimTime(t));
            }
        }
        None
    }

    /// Returns the timestamp of the most recently popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The original `BinaryHeap`-backed queue, retained as a differential
/// oracle: it defines the reference `(time, seq)` total order that the
/// timing wheel must reproduce exactly.
#[cfg(test)]
pub(crate) mod oracle {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    use crate::time::SimTime;

    struct Entry<E> {
        time: SimTime,
        seq: u64,
        payload: E,
    }

    impl<E> PartialEq for Entry<E> {
        fn eq(&self, other: &Self) -> bool {
            self.time == other.time && self.seq == other.seq
        }
    }

    impl<E> Eq for Entry<E> {}

    impl<E> PartialOrd for Entry<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl<E> Ord for Entry<E> {
        fn cmp(&self, other: &Self) -> Ordering {
            // Reversed: the earliest (time, seq) pair is the heap maximum.
            (other.time, other.seq).cmp(&(self.time, self.seq))
        }
    }

    pub(crate) struct HeapEventQueue<E> {
        heap: BinaryHeap<Entry<E>>,
        next_seq: u64,
        now: SimTime,
    }

    impl<E> HeapEventQueue<E> {
        pub(crate) fn new() -> Self {
            HeapEventQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
                now: SimTime::ZERO,
            }
        }

        pub(crate) fn push(&mut self, time: SimTime, payload: E) {
            assert!(time >= self.now, "oracle: event scheduled in the past");
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Entry { time, seq, payload });
        }

        pub(crate) fn pop(&mut self) -> Option<(SimTime, E)> {
            let entry = self.heap.pop()?;
            self.now = entry.time;
            Some((entry.time, entry.payload))
        }

        pub(crate) fn len(&self) -> usize {
            self.heap.len()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::HeapEventQueue;
    use super::*;
    use crate::rng::Rng;
    use crate::time::SimDuration;

    #[test]
    fn orders_by_time_then_fifo() {
        let mut q = EventQueue::new();
        q.push(SimTime(5), 1u32);
        q.push(SimTime(3), 2);
        q.push(SimTime(5), 3);
        q.push(SimTime(4), 4);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec![2, 4, 1, 3]);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.push(SimTime(10), ());
        q.push(SimTime(30), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime(10));
        q.pop();
        assert_eq!(q.now(), SimTime(30));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.push(SimTime(10), ());
        q.pop();
        q.push(SimTime(5), ());
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.push(SimTime(7), 'x');
        assert_eq!(q.peek_time(), Some(SimTime(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert_eq!(q.pop(), Some((SimTime(7), 'x')));
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn scheduling_at_now_is_allowed() {
        let mut q = EventQueue::new();
        q.push(SimTime(10), 0u8);
        q.pop();
        // Zero-delay follow-up events are common (e.g. immediate dispatch).
        q.push(q.now() + SimDuration::ZERO, 1);
        assert_eq!(q.pop(), Some((SimTime(10), 1)));
    }

    /// Popped timestamps are non-decreasing, and events with equal
    /// timestamps come out in insertion order, over random schedules.
    #[test]
    fn total_order() {
        let mut rng = Rng::new(0x701);
        for _ in 0..64 {
            let n = 1 + rng.gen_range(199) as usize;
            let mut q = EventQueue::new();
            for i in 0..n {
                q.push(SimTime(rng.gen_range(1_000)), i);
            }
            let mut prev: Option<(SimTime, usize)> = None;
            while let Some((t, i)) = q.pop() {
                if let Some((pt, pi)) = prev {
                    assert!(t >= pt);
                    if t == pt {
                        assert!(i > pi, "FIFO violated at equal timestamps");
                    }
                }
                prev = Some((t, i));
            }
        }
    }

    /// Every pushed event is popped exactly once.
    #[test]
    fn conservation() {
        let mut rng = Rng::new(0xC02);
        for _ in 0..64 {
            let n = rng.gen_range(100) as usize;
            let mut q = EventQueue::new();
            for i in 0..n {
                q.push(SimTime(rng.gen_range(100)), i);
            }
            let mut seen = vec![false; n];
            while let Some((_, i)) = q.pop() {
                assert!(!seen[i]);
                seen[i] = true;
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    /// Differential test against the retained heap oracle: random
    /// interleavings of pushes and pops, including zero-delay
    /// self-pushes issued mid-drain, must yield byte-identical pop
    /// sequences.
    #[test]
    fn wheel_matches_heap_oracle_on_random_schedules() {
        let mut rng = Rng::new(0xD1FF);
        for round in 0..48 {
            let mut wheel = EventQueue::new();
            let mut heap = HeapEventQueue::new();
            let mut next_id = 0usize;
            let ops = 400 + rng.gen_range(400) as usize;
            for _ in 0..ops {
                // Bias towards pushes early, pops late; always keep the
                // two queues in lock-step.
                if wheel.is_empty() || rng.gen_range(3) > 0 {
                    let base = wheel.now().0;
                    // Mix of near (µs-scale), far (ms-scale) and
                    // zero-delay events, like the simulator emits.
                    let delta = match rng.gen_range(10) {
                        0 => 0,
                        1..=6 => rng.gen_range(8_000),
                        7 | 8 => rng.gen_range(4_000_000),
                        _ => rng.gen_range(60_000_000),
                    };
                    let t = SimTime(base + delta);
                    wheel.push(t, next_id);
                    heap.push(t, next_id);
                    next_id += 1;
                } else {
                    let w = wheel.pop();
                    let h = heap.pop();
                    assert_eq!(w, h, "divergence in round {round}");
                    // Occasionally emulate a handler scheduling a
                    // zero-delay follow-up during the drain.
                    if rng.gen_range(4) == 0 {
                        let t = wheel.now();
                        wheel.push(t, next_id);
                        heap.push(t, next_id);
                        next_id += 1;
                    }
                }
                assert_eq!(wheel.len(), heap.len());
            }
            // Drain to empty; sequences must stay identical.
            loop {
                let w = wheel.pop();
                let h = heap.pop();
                assert_eq!(w, h, "drain divergence in round {round}");
                if w.is_none() {
                    break;
                }
            }
        }
    }

    /// FIFO holds for equal instants even when the earlier push had to
    /// traverse more cascade hops than the later one (pushed closer to
    /// delivery time).
    #[test]
    fn equal_instant_fifo_across_cascade_levels() {
        let mut q = EventQueue::new();
        let t = SimTime(3_000_000); // lands at level 2 relative to t = 0
        q.push(t, 0u32); // placed far from the target: cascades twice
        q.push(SimTime(2_999_000), 99);
        assert_eq!(q.pop(), Some((SimTime(2_999_000), 99)));
        q.push(t, 1); // placed ~1 µs out: one level lower
        q.push(SimTime(2_999_900), 98);
        assert_eq!(q.pop(), Some((SimTime(2_999_900), 98)));
        q.push(t, 2); // placed 100 ns out: level 0 directly
        assert_eq!(q.pop(), Some((t, 0)));
        assert_eq!(q.pop(), Some((t, 1)));
        assert_eq!(q.pop(), Some((t, 2)));
        assert!(q.is_empty());
    }

    /// A handler that keeps re-scheduling at `now` during a drain sees
    /// its events delivered after everything already pending at that
    /// instant, in push order.
    #[test]
    fn zero_delay_self_pushes_during_drain() {
        let mut q = EventQueue::new();
        for i in 0..4u32 {
            q.push(SimTime(50), i);
        }
        let mut order = Vec::new();
        let mut extra = 4u32;
        while let Some((t, i)) = q.pop() {
            order.push(i);
            // First three pops chain a new same-instant event each.
            if i < 3 {
                q.push(t, extra);
                extra += 1;
            }
        }
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5, 6]);
    }

    /// Far-future timestamps that overflow the lower wheel levels —
    /// up to and including `u64::MAX` — are stored and delivered in
    /// order, against the oracle.
    #[test]
    fn far_future_timestamps_span_all_levels() {
        let mut wheel = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        let times = [
            0u64,
            1,
            255,
            256,
            65_535,
            65_536,
            1 << 24,
            (1 << 24) + 1,
            1 << 32,
            1 << 40,
            1 << 48,
            1 << 56,
            u64::MAX - 1,
            u64::MAX,
            u64::MAX, // duplicate at the very top: FIFO there too
        ];
        for (i, &t) in times.iter().enumerate() {
            wheel.push(SimTime(t), i);
            heap.push(SimTime(t), i);
        }
        let mut popped = 0usize;
        loop {
            let w = wheel.pop();
            assert_eq!(w, heap.pop());
            if w.is_none() {
                break;
            }
            popped += 1;
        }
        assert_eq!(popped, times.len());
    }

    /// Conservation under cascade-heavy schedules: every event pushed
    /// across widely-spaced timestamps is popped exactly once.
    #[test]
    fn conservation_across_levels() {
        let mut rng = Rng::new(0xCAFE);
        for _ in 0..16 {
            let n = 200 + rng.gen_range(200) as usize;
            let mut q = EventQueue::new();
            let mut seen = vec![false; n];
            for i in 0..n {
                // Spread across ~6 orders of magnitude so every level
                // below the top sees traffic.
                let magnitude = 1u64 << (rng.gen_range(40) as u32);
                q.push(SimTime(rng.gen_range(magnitude.max(2))), i);
            }
            while let Some((_, i)) = q.pop() {
                assert!(!seen[i], "event {i} delivered twice");
                seen[i] = true;
            }
            assert!(seen.iter().all(|&s| s), "events lost in the wheel");
        }
    }

    /// The wheel and the heap oracle driven in lock-step; every pop
    /// checks the payload order and that `peek_time` predicted it.
    struct Lockstep {
        wheel: EventQueue<usize>,
        heap: HeapEventQueue<usize>,
        next_id: usize,
    }

    impl Lockstep {
        fn new() -> Lockstep {
            Lockstep {
                wheel: EventQueue::new(),
                heap: HeapEventQueue::new(),
                next_id: 0,
            }
        }

        fn push(&mut self, t: SimTime) {
            self.wheel.push(t, self.next_id);
            self.heap.push(t, self.next_id);
            self.next_id += 1;
        }

        fn pop(&mut self) -> Option<SimTime> {
            let peeked = self.wheel.peek_time();
            let w = self.wheel.pop();
            assert_eq!(w, self.heap.pop(), "wheel diverged from the heap oracle");
            assert_eq!(peeked, w.map(|(t, _)| t), "peek_time disagrees with pop");
            assert_eq!(self.wheel.len(), self.heap.len());
            w.map(|(t, _)| t)
        }
    }

    /// Differential test on the traffic shape the simulator actually
    /// produces: 4–30 pending events, 85 % of delays between 256 ns and
    /// 8 µs (one level-1 hop away — the in-place delivery path),
    /// same-instant bursts, and zero-delay pushes issued while a
    /// level-1 slot is being delivered in place. `peek_time` must agree
    /// with `pop` at every step.
    #[test]
    fn in_place_delivery_matches_heap_on_measured_traffic_shape() {
        let mut rng = Rng::new(0x1A7E);
        let mut q = Lockstep::new();
        let mut pushes_into_live_run = 0u32;
        let mut ties_against_run = 0u32;
        for _ in 0..60_000 {
            let pending = q.wheel.len();
            if pending < 4 || (pending < 30 && rng.gen_range(2) == 0) {
                let delay = match rng.gen_range(100) {
                    0..=84 => 256 + rng.gen_range(8_000 - 256),
                    85..=89 => 0,
                    90..=94 => rng.gen_range(256),
                    _ => rng.gen_range(3_000_000),
                };
                let t = SimTime(q.wheel.now().0 + delay);
                // One event, or a same-instant burst of up to five.
                let burst = match rng.gen_range(8) {
                    0 => 2 + rng.gen_range(4),
                    _ => 1,
                };
                for _ in 0..burst {
                    q.push(t);
                }
                continue;
            }
            q.pop();
            if q.wheel.run == NO_RUN {
                continue;
            }
            // A handler reacting inside the window of a live run: a
            // zero-delay follow-up, or one aimed at the instant of the
            // run's next entry (lands in level 0, must lose the tie).
            match rng.gen_range(4) {
                0 => {
                    q.push(q.wheel.now());
                    pushes_into_live_run += 1;
                }
                1 => {
                    q.push(SimTime(q.wheel.slots[q.wheel.run][0].0));
                    ties_against_run += 1;
                }
                _ => {}
            }
        }
        while q.pop().is_some() {}
        assert_eq!(q.wheel.run, NO_RUN);
        // The shape really exercised the paths it is named for.
        assert!(pushes_into_live_run > 500, "{pushes_into_live_run}");
        assert!(ties_against_run > 500, "{ties_against_run}");
    }

    /// The overload shape: ~500 pending events, almost all of them a
    /// monotone stream of admission ticks a fixed service time apart,
    /// with deliveries scheduling µs-scale follow-ups.
    #[test]
    fn deep_monotone_admit_stream_matches_heap() {
        let mut rng = Rng::new(0xAD31);
        let mut q = Lockstep::new();
        let mut admit_at = 0u64;
        for _ in 0..40_000 {
            // Top the backlog up to 500 pending admits, 210 ns apart.
            while q.wheel.len() < 500 {
                admit_at = admit_at.max(q.wheel.now().0) + 210;
                q.push(SimTime(admit_at));
            }
            let now = q.pop().expect("backlog is never empty");
            if rng.gen_range(3) == 0 {
                q.push(now + SimDuration::from_nanos(rng.gen_range(4_000)));
            }
        }
        while q.pop().is_some() {}
    }

    /// peek_time always agrees with the subsequent pop, including when
    /// the next event sits in an upper level awaiting a cascade.
    #[test]
    fn peek_agrees_with_pop_across_levels() {
        let mut rng = Rng::new(0xBEEF);
        let mut q = EventQueue::new();
        for i in 0..300usize {
            let delta = match rng.gen_range(3) {
                0 => rng.gen_range(200),
                1 => rng.gen_range(100_000),
                _ => rng.gen_range(50_000_000),
            };
            q.push(SimTime(q.now().0 + delta), i);
        }
        while let Some(peeked) = q.peek_time() {
            let (t, _) = q.pop().unwrap();
            assert_eq!(peeked, t);
        }
    }
}
