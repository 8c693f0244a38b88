//! Deterministic event queue.
//!
//! All simulated activity is driven by a single [`EventQueue`]. Events
//! scheduled for the same instant are delivered in insertion order
//! (FIFO), which makes every run a pure function of its inputs.
//!
//! It is one `VecDeque` sorted by timestamp. `push` inserts *after*
//! every entry at or before its instant, so equal instants sit in push
//! order, and `pop` takes the front: by induction the ring is always in
//! the reference heap's `(time, seq)` order, with no `seq` stored.
//!
//! Cost: `pop` / `peek_time` O(1); `push` one or two compares when the
//! event is the latest or the earliest pending, else O(log n) compares
//! and a move of min(k, n − k) entries (`VecDeque::insert` shifts the
//! shorter side) — O(n) mid-queue in a deep queue, which the simulator
//! (5–25 events; deep backlogs are monotone admit ticks, which append)
//! never makes and whose ceiling `runtime::sim` asserts (DESIGN.md §9).
//!
//! Why not the timing wheel this replaced (8 × 256 slot deques): at
//! 5–25 pending nearly every pop paid a cursor advance over ≈ 80 KB.
//! Why not a binary heap: a sift-down per pop, and ties need a `seq`.

use std::collections::VecDeque;

use crate::time::SimTime;

/// A total-order discrete-event queue.
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
    /// Pending events, sorted by time; equal instants in push order.
    ring: VecDeque<(SimTime, E)>,
    /// Timestamp of the most recently popped event.
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue positioned at t = 0.
    pub fn new() -> Self {
        EventQueue {
            ring: VecDeque::new(),
            now: SimTime::ZERO,
        }
    }

    /// Schedules `payload` for delivery at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the last popped event's: always a bug.
    pub fn push(&mut self, time: SimTime, payload: E) {
        assert!(
            time >= self.now,
            "event scheduled in the past: {time:?} < now {:?}",
            self.now
        );
        if self.ring.back().is_none_or(|&(back, _)| time >= back) {
            self.ring.push_back((time, payload));
        } else if time < self.ring[0].0 {
            // Strictly the earliest: no search (a fifth of all pushes).
            self.ring.push_front((time, payload));
        } else {
            // After every entry at or before `time`: FIFO among equals.
            let at = self.ring.partition_point(|&(t, _)| t <= time);
            self.ring.insert(at, (time, payload));
        }
    }

    /// Removes and returns the next event, advancing the clock to it.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.ring.pop_front().inspect(|&(t, _)| self.now = t)
    }

    /// Returns the timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.ring.front().map(|&(t, _)| t)
    }

    /// Returns the timestamp of the most recently popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }
}

/// The original `BinaryHeap`-backed queue, retained as a differential
/// oracle: it defines the reference `(time, seq)` total order that the
/// sorted ring must reproduce exactly.
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
            let mut ring = EventQueue::new();
            let mut heap = HeapEventQueue::new();
            let mut next_id = 0usize;
            let ops = 400 + rng.gen_range(400) as usize;
            for _ in 0..ops {
                // Bias towards pushes early, pops late; always keep the
                // two queues in lock-step.
                if ring.is_empty() || rng.gen_range(3) > 0 {
                    let base = ring.now().0;
                    // Mix of near (µs-scale), far (ms-scale) and
                    // zero-delay events, like the simulator emits.
                    let delta = match rng.gen_range(10) {
                        0 => 0,
                        1..=6 => rng.gen_range(8_000),
                        7 | 8 => rng.gen_range(4_000_000),
                        _ => rng.gen_range(60_000_000),
                    };
                    let t = SimTime(base + delta);
                    ring.push(t, next_id);
                    heap.push(t, next_id);
                    next_id += 1;
                } else {
                    let w = ring.pop();
                    let h = heap.pop();
                    assert_eq!(w, h, "divergence in round {round}");
                    // Occasionally emulate a handler scheduling a
                    // zero-delay follow-up during the drain.
                    if rng.gen_range(4) == 0 {
                        let t = ring.now();
                        ring.push(t, next_id);
                        heap.push(t, next_id);
                        next_id += 1;
                    }
                }
                assert_eq!(ring.len(), heap.len());
            }
            // Drain to empty; sequences must stay identical.
            loop {
                let w = ring.pop();
                let h = heap.pop();
                assert_eq!(w, h, "drain divergence in round {round}");
                if w.is_none() {
                    break;
                }
            }
        }
    }

    /// FIFO holds for equal instants however far ahead of delivery each
    /// push was made (3 ms, ~1 µs and 100 ns: three different levels of
    /// the timing wheel this test was written against).
    #[test]
    fn equal_instant_fifo_across_cascade_levels() {
        let mut q = EventQueue::new();
        let t = SimTime(3_000_000);
        q.push(t, 0u32); // pushed 3 ms ahead
        q.push(SimTime(2_999_000), 99);
        assert_eq!(q.pop(), Some((SimTime(2_999_000), 99)));
        q.push(t, 1); // pushed ~1 µs ahead
        q.push(SimTime(2_999_900), 98);
        assert_eq!(q.pop(), Some((SimTime(2_999_900), 98)));
        q.push(t, 2); // pushed 100 ns ahead
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

    /// Far-future timestamps — either side of every power of 256, up
    /// to and including `u64::MAX` — are stored and delivered in order,
    /// against the oracle.
    #[test]
    fn far_future_timestamps_span_all_levels() {
        let mut ring = EventQueue::new();
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
            ring.push(SimTime(t), i);
            heap.push(SimTime(t), i);
        }
        let mut popped = 0usize;
        loop {
            let w = ring.pop();
            assert_eq!(w, heap.pop());
            if w.is_none() {
                break;
            }
            popped += 1;
        }
        assert_eq!(popped, times.len());
    }

    /// Conservation: every event pushed across widely-spaced
    /// timestamps is popped exactly once.
    #[test]
    fn conservation_across_levels() {
        let mut rng = Rng::new(0xCAFE);
        for _ in 0..16 {
            let n = 200 + rng.gen_range(200) as usize;
            let mut q = EventQueue::new();
            let mut seen = vec![false; n];
            for i in 0..n {
                // Spread across ~12 orders of magnitude.
                let magnitude = 1u64 << (rng.gen_range(40) as u32);
                q.push(SimTime(rng.gen_range(magnitude.max(2))), i);
            }
            while let Some((_, i)) = q.pop() {
                assert!(!seen[i], "event {i} delivered twice");
                seen[i] = true;
            }
            assert!(seen.iter().all(|&s| s), "events lost in the queue");
        }
    }

    /// The ring and the heap oracle driven in lock-step; every pop
    /// checks the payload order and that `peek_time` predicted it.
    struct Lockstep {
        ring: EventQueue<usize>,
        heap: HeapEventQueue<usize>,
        next_id: usize,
        /// Latest instant pushed so far: while it is after `now` it is
        /// still pending, i.e. the ring's back.
        latest: SimTime,
    }

    impl Lockstep {
        fn new() -> Lockstep {
            Lockstep {
                ring: EventQueue::new(),
                heap: HeapEventQueue::new(),
                next_id: 0,
                latest: SimTime::ZERO,
            }
        }

        /// Pushes the next payload id (they count up from 0) at `t`.
        fn push(&mut self, t: SimTime) {
            self.ring.push(t, self.next_id);
            self.heap.push(t, self.next_id);
            self.next_id += 1;
            self.latest = self.latest.max(t);
        }

        fn pop(&mut self) -> Option<(SimTime, usize)> {
            let peeked = self.ring.peek_time();
            let r = self.ring.pop();
            assert_eq!(r, self.heap.pop(), "ring diverged from the heap oracle");
            assert_eq!(peeked, r.map(|(t, _)| t), "peek_time disagrees with pop");
            assert_eq!(self.ring.len(), self.heap.len());
            r
        }
    }

    /// Differential test on the traffic shape the simulator actually
    /// produces: 4–30 pending events, 85 % of delays between 256 ns and
    /// 8 µs, same-instant bursts, zero-delay pushes issued mid-drain,
    /// pushes aimed at the instant `peek_time` reports — which must queue
    /// behind everything already pending there — and pushes one ns
    /// before the latest pending instant, which must not append.
    /// `peek_time` must agree with `pop` at every step.
    #[test]
    fn sorted_ring_matches_heap_on_measured_traffic_shape() {
        let mut rng = Rng::new(0x1A7E);
        let mut q = Lockstep::new();
        let mut zero_delay_pushes = 0u32;
        let mut ties_against_front = 0u32;
        let mut front_inserts = 0u32;
        let mut one_before_back = 0u32;
        for _ in 0..60_000 {
            let pending = q.ring.len();
            if pending < 4 || (pending < 30 && rng.gen_range(2) == 0) {
                let delay = match rng.gen_range(100) {
                    0..=84 => 256 + rng.gen_range(8_000 - 256),
                    85..=89 => 0,
                    90..=94 => rng.gen_range(256),
                    _ => rng.gen_range(3_000_000),
                };
                let t = SimTime(q.ring.now().0 + delay);
                front_inserts += q.ring.peek_time().is_some_and(|front| t < front) as u32;
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
            // A handler reacting to the delivery: a zero-delay
            // follow-up, one aimed at the next pending instant (it must
            // lose the tie to every entry already there), or one a
            // nanosecond ahead of the back.
            match (rng.gen_range(6), q.ring.peek_time()) {
                (0, _) => {
                    q.push(q.ring.now());
                    zero_delay_pushes += 1;
                }
                (1, Some(front)) => {
                    q.push(front);
                    ties_against_front += 1;
                }
                (2, _) if q.latest > q.ring.now() => {
                    q.push(SimTime(q.latest.0 - 1));
                    one_before_back += 1;
                }
                _ => {}
            }
        }
        while q.pop().is_some() {}
        // The shape really exercised the paths it is named for.
        assert!(zero_delay_pushes > 500, "{zero_delay_pushes}");
        assert!(ties_against_front > 500, "{ties_against_front}");
        assert!(front_inserts > 500, "{front_inserts}");
        assert!(one_before_back > 500, "{one_before_back}");
    }

    /// The overload shape: ≈ 16 k pending events, almost all of them
    /// four interleaved monotone streams of admission ticks (one per
    /// dispatcher, a fixed service time apart, unequal backlogs — so the
    /// shorter streams' ticks land mid-queue), with deliveries
    /// scheduling µs-scale follow-ups at the front.
    #[test]
    fn deep_monotone_admit_stream_matches_heap() {
        const BACKLOG: [usize; 4] = [4_096, 4_096, 4_000, 3_900];
        const SERVICE_NS: [u64; 4] = [210, 210, 215, 220];
        let mut rng = Rng::new(0xAD31);
        let mut q = Lockstep::new();
        let mut admit_at = [0u64; 4];
        let mut queued = [0usize; 4];
        // Stream of each payload id (4 = a follow-up).
        let mut stream_of = Vec::new();
        for _ in 0..40_000 {
            // Top every stream's backlog up, round-robin.
            while (0..4).any(|d| queued[d] < BACKLOG[d]) {
                for d in 0..4 {
                    if queued[d] < BACKLOG[d] {
                        admit_at[d] = admit_at[d].max(q.ring.now().0) + SERVICE_NS[d];
                        q.push(SimTime(admit_at[d]));
                        stream_of.push(d);
                        queued[d] += 1;
                    }
                }
            }
            let (now, id) = q.pop().expect("backlog is never empty");
            if let Some(n) = queued.get_mut(stream_of[id]) {
                *n -= 1;
            }
            if rng.gen_range(3) == 0 {
                q.push(now + SimDuration::from_nanos(rng.gen_range(4_000)));
                stream_of.push(4);
            }
        }
        assert!(q.ring.len() > 16_000, "{}", q.ring.len());
        while q.pop().is_some() {}
    }

    /// The slow case, for correctness only: 10 k events pending and
    /// uniformly random delays, so nearly every push is a mid-queue
    /// insert — the shape the simulator never produces.
    #[test]
    fn adversarial_mid_queue_inserts_match_heap() {
        let mut rng = Rng::new(0xADE5);
        let mut q = Lockstep::new();
        for _ in 0..30_000 {
            while q.ring.len() < 10_000 {
                q.push(SimTime(q.ring.now().0 + rng.gen_range(10_000_000)));
            }
            q.pop();
        }
        while q.pop().is_some() {}
    }

    /// peek_time always agrees with the subsequent pop, including when
    /// the next event is far (ms) beyond the last delivery.
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
