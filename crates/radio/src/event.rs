//! A minimal, stable discrete-event scheduler.
//!
//! Events are `(Instant, T)` pairs popped in time order; ties break by
//! insertion order so runs are reproducible regardless of payload type.
//!
//! Two implementations share the same API and — provably, see
//! `tests/props.rs` — the same pop order:
//!
//! * [`EventQueue`]: FIFO run lanes + one fallback heap. Near-periodic
//!   traffic (duty-cycled beacons) is the worst case for a binary heap —
//!   every push sifts through `log n` of the million pending wakes —
//!   while a lane appends and pops in O(1). The few events that fit no
//!   lane wait in a small binary heap.
//! * [`NaiveEventQueue`]: the original binary heap, kept as the
//!   differential oracle in the same spirit as
//!   [`NaiveMedium`](crate::NaiveMedium).
//!
//! Every scheduled event takes the next sequence number `seq`, and the
//! queue pops the global `(time, seq)` minimum — exactly the naive
//! heap's order. Each lane and the heap are internally `(time, seq)`-sorted,
//! so that minimum is always one of their heads.
//!
//! ## Run lanes
//!
//! A Wi-LE fleet wakes on a fixed period, so its schedule is one long
//! monotone train: every reschedule lands at or after the last one. The
//! queue keeps [`LANES`] FIFO lanes for such trains. An event is appended
//! to the first lane whose tail time is `<=` its own (an empty lane takes
//! any event); appending keeps the lane sorted by time, and its `seq`s
//! rise by construction, so a lane's head is its minimum. A staggered
//! wake train and the poll train each settle in a lane of their own and
//! never touch the heap. Only events that fit no lane — a timer behind
//! every lane's tail, in the future or behind `now` — fall back to the
//! heap. A past event there sorts before every later one, which is the
//! legacy "fires immediately" behaviour.
//!
//! [`EventQueue::pop`] takes the `(time, seq)` minimum of the lane heads
//! and the heap top.

use crate::time::{Duration, Instant};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

struct Entry<T> {
    at: Instant,
    seq: u64,
    payload: T,
}

impl<T> Entry<T> {
    /// The pop-order key.
    fn key(&self) -> (Instant, u64) {
        (self.at, self.seq)
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap on (at, seq).
        other.key().cmp(&self.key())
    }
}

/// FIFO run lanes in front of the heap: one for a fleet's wake train,
/// one for its poll train. Counted with four lanes, every metro run
/// (`city-1m`, E14, `metro-dense`, E13 chaos), the E10 fleet, the E8
/// campaign and the association fleet filed all their events in the
/// first two; only the E15 mixed city, ~2 k events in all, reached
/// lanes three and four (see EXPERIMENTS.md, "Run-lane occupancy"), and
/// with two lanes those spill to the heap.
pub const LANES: usize = 2;

/// Where the earliest pending event waits.
#[derive(Clone, Copy)]
enum Head {
    Lane(usize),
    Heap,
}

/// A time-ordered queue of scheduled events carrying payloads of type `T`.
///
/// ```
/// use wile_radio::{EventQueue, Instant};
/// let mut q = EventQueue::new();
/// q.schedule(Instant::from_ms(20), "b");
/// q.schedule(Instant::from_ms(10), "a");
/// q.schedule(Instant::from_ms(20), "c");
/// assert_eq!(q.pop(), Some((Instant::from_ms(10), "a")));
/// assert_eq!(q.pop(), Some((Instant::from_ms(20), "b"))); // FIFO on ties
/// assert_eq!(q.pop(), Some((Instant::from_ms(20), "c")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<T> {
    /// Monotone FIFO trains: each lane is sorted by `(time, seq)`.
    lanes: [VecDeque<Entry<T>>; LANES],
    /// Events that fit no lane, ordered by `(time, seq)`.
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
    now: Instant,
    monotonic: bool,
}

impl<T> EventQueue<T> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            lanes: std::array::from_fn(|_| VecDeque::new()),
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: Instant::ZERO,
            monotonic: false,
        }
    }

    /// Debug-assert that every [`EventQueue::schedule`] targets the
    /// present or future (`at >=` the last popped event's time). The
    /// simulation kernel enables this so a past-scheduling bug fails
    /// loudly in debug builds instead of silently firing "immediately";
    /// release builds pay nothing.
    pub fn assert_monotonic(&mut self, on: bool) {
        self.monotonic = on;
    }

    /// The first lane whose tail is at or before `at` (an empty lane
    /// takes any event), if any: appending there keeps it sorted.
    fn lane_for(&self, at: Instant) -> Option<usize> {
        self.lanes
            .iter()
            .position(|lane| lane.back().is_none_or(|tail| tail.at <= at))
    }

    /// Stamp the next sequence number on an event.
    fn entry(&mut self, at: Instant, payload: T) -> Entry<T> {
        let seq = self.next_seq;
        self.next_seq += 1;
        Entry { at, seq, payload }
    }

    /// File a stamped event: the first lane that takes it, else the heap.
    fn push(&mut self, e: Entry<T>) {
        match self.lane_for(e.at) {
            Some(lane) => self.lanes[lane].push_back(e),
            None => self.heap.push(e),
        }
    }

    /// The `(time, seq)` minimum over the lane heads and the heap top,
    /// and where it waits.
    fn head(&self) -> Option<((Instant, u64), Head)> {
        let mut best = self.heap.peek().map(|e| (e.key(), Head::Heap));
        for (i, lane) in self.lanes.iter().enumerate() {
            if let Some(e) = lane.front() {
                if best.is_none_or(|(key, _)| e.key() < key) {
                    best = Some((e.key(), Head::Lane(i)));
                }
            }
        }
        best
    }

    /// Schedule `payload` to fire at `at`. Scheduling in the past (before
    /// the last popped event) is allowed but will fire "immediately" in
    /// pop order; callers that care should enable
    /// [`EventQueue::assert_monotonic`].
    pub fn schedule(&mut self, at: Instant, payload: T) {
        if self.monotonic {
            debug_assert!(
                at >= self.now,
                "scheduled an event in the past: {at} < now {}",
                self.now
            );
        }
        let e = self.entry(at, payload);
        self.push(e);
    }

    /// Schedule a homogeneous train of events: payload `i` fires at
    /// `start + stride * i`. This is the staggered-wake pattern fleets
    /// use at start-up (one wake per device, evenly spread over a beacon
    /// period); batching it keeps the monotonic check out of the
    /// per-device path and schedules the whole train in one
    /// call. A `stride` of zero schedules every payload at `start`, in
    /// FIFO order.
    ///
    /// The train is monotone, so when a lane takes its first event the
    /// whole train goes there, with capacity reserved from the
    /// iterator's `size_hint`.
    pub fn schedule_batch<I>(&mut self, start: Instant, stride: Duration, payloads: I)
    where
        I: IntoIterator<Item = T>,
    {
        if self.monotonic {
            // `stride` is unsigned: `start` in the future covers the train.
            debug_assert!(
                start >= self.now,
                "scheduled an event in the past: {start} < now {}",
                self.now
            );
        }
        let payloads = payloads.into_iter();
        let lane = self.lane_for(start);
        if let Some(lane) = lane {
            self.lanes[lane].reserve(payloads.size_hint().0);
        }
        let mut at = start;
        for payload in payloads {
            let e = self.entry(at, payload);
            match lane {
                Some(lane) => self.lanes[lane].push_back(e),
                None => self.push(e),
            }
            at += stride;
        }
    }

    /// Pop the earliest event, advancing the queue's notion of "now".
    pub fn pop(&mut self) -> Option<(Instant, T)> {
        let e = match self.head()?.1 {
            Head::Lane(lane) => self.lanes[lane].pop_front(),
            Head::Heap => self.heap.pop(),
        }
        .expect("the head is pending");
        // Past events fire behind `now`; it never runs backwards.
        self.now = self.now.max(e.at);
        Some((e.at, e.payload))
    }

    /// The timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<Instant> {
        self.head().map(|((at, _), _)| at)
    }

    /// The time of the most recently popped event (simulation "now").
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum::<usize>() + self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.lanes.iter().all(VecDeque::is_empty)
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// The original binary-heap event queue, kept verbatim as the
/// differential oracle for [`EventQueue`] (run lanes + one fallback heap).
/// Same API, same documented semantics; `tests/props.rs` drives both
/// through random schedule/pop interleavings and asserts identical pop
/// streams.
pub struct NaiveEventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
    now: Instant,
    monotonic: bool,
}

impl<T> NaiveEventQueue<T> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        NaiveEventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: Instant::ZERO,
            monotonic: false,
        }
    }

    /// See [`EventQueue::assert_monotonic`].
    pub fn assert_monotonic(&mut self, on: bool) {
        self.monotonic = on;
    }

    /// See [`EventQueue::schedule`].
    pub fn schedule(&mut self, at: Instant, payload: T) {
        if self.monotonic {
            debug_assert!(
                at >= self.now,
                "scheduled an event in the past: {at} < now {}",
                self.now
            );
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, payload });
    }

    /// See [`EventQueue::schedule_batch`].
    pub fn schedule_batch<I>(&mut self, start: Instant, stride: Duration, payloads: I)
    where
        I: IntoIterator<Item = T>,
    {
        let mut at = start.as_nanos();
        for payload in payloads {
            self.schedule(Instant::from_nanos(at), payload);
            at += stride.as_nanos();
        }
    }

    /// See [`EventQueue::pop`].
    pub fn pop(&mut self) -> Option<(Instant, T)> {
        self.heap.pop().map(|e| {
            self.now = self.now.max(e.at);
            (e.at, e.payload)
        })
    }

    /// See [`EventQueue::peek_time`].
    pub fn peek_time(&self) -> Option<Instant> {
        self.heap.peek().map(|e| e.at)
    }

    /// See [`EventQueue::now`].
    pub fn now(&self) -> Instant {
        self.now
    }

    /// See [`EventQueue::len`].
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// See [`EventQueue::is_empty`].
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<T> Default for NaiveEventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        for ms in [5u64, 1, 9, 3] {
            q.schedule(Instant::from_ms(ms), ms);
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, [1, 3, 5, 9]);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        let t = Instant::from_ms(7);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn ties_survive_cascades() {
        // Equal far-future instants scheduled around an earlier event
        // pop in schedule order once that event has fired.
        let mut q = EventQueue::new();
        let far = Instant::from_secs(3600);
        q.schedule(far, "a");
        q.schedule(Instant::from_ms(1), "warm");
        q.schedule(far, "b");
        q.schedule(far, "c");
        assert_eq!(q.pop(), Some((Instant::from_ms(1), "warm")));
        assert_eq!(q.pop(), Some((far, "a")));
        assert_eq!(q.pop(), Some((far, "b")));
        assert_eq!(q.pop(), Some((far, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn now_tracks_pops() {
        let mut q = EventQueue::new();
        q.schedule(Instant::from_ms(4), ());
        assert_eq!(q.now(), Instant::ZERO);
        q.pop();
        assert_eq!(q.now(), Instant::from_ms(4));
    }

    #[test]
    fn drain_until_respects_deadline() {
        let mut q = EventQueue::new();
        for ms in 1..=10u64 {
            q.schedule(Instant::from_ms(ms), ms);
        }
        let mut first = Vec::new();
        while q.peek_time().is_some_and(|t| t <= Instant::from_ms(5)) {
            first.push(q.pop().unwrap());
        }
        assert_eq!(first.len(), 5);
        assert_eq!(q.len(), 5);
        assert_eq!(q.peek_time(), Some(Instant::from_ms(6)));
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(Instant::from_ms(10), "first");
        let (t, _) = q.pop().unwrap();
        // Self-rescheduling pattern used by periodic transmitters.
        q.schedule(t + Duration::from_ms(10), "second");
        assert_eq!(q.pop().unwrap().0, Instant::from_ms(20));
    }

    #[test]
    fn empty_behaviour() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn past_scheduling_fires_immediately_without_monotonic_mode() {
        // The documented legacy behaviour: a past event is accepted and
        // pops before anything later, in FIFO order among past events.
        let mut q = EventQueue::new();
        q.schedule(Instant::from_ms(50), "future");
        q.pop();
        assert_eq!(q.now(), Instant::from_ms(50));
        q.schedule(Instant::from_ms(10), "late-a");
        q.schedule(Instant::from_ms(10), "late-b");
        q.schedule(Instant::from_ms(60), "on-time");
        assert_eq!(q.pop(), Some((Instant::from_ms(10), "late-a")));
        assert_eq!(q.pop(), Some((Instant::from_ms(10), "late-b")));
        // `now` never runs backwards even when past events fire.
        assert_eq!(q.now(), Instant::from_ms(50));
        assert_eq!(q.pop(), Some((Instant::from_ms(60), "on-time")));
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        should_panic(expected = "scheduled an event in the past")
    )]
    fn monotonic_mode_rejects_past_scheduling_in_debug() {
        let mut q = EventQueue::new();
        q.assert_monotonic(true);
        q.schedule(Instant::from_ms(50), "future");
        q.pop();
        q.schedule(Instant::from_ms(60), "on-time");
        q.schedule(Instant::from_ms(10), "late");
        // Release builds compile the debug_assert out: the past event is
        // accepted (the legacy behaviour) and pops first.
        assert_eq!(q.pop(), Some((Instant::from_ms(10), "late")));
        assert_eq!(q.pop(), Some((Instant::from_ms(60), "on-time")));
        assert_eq!(q.now(), Instant::from_ms(60));
    }

    #[test]
    fn schedule_after_lands_at_now_plus_delay() {
        let mut q = EventQueue::new();
        q.assert_monotonic(true);
        q.schedule(Instant::from_ms(5), "seed");
        let (t, _) = q.pop().unwrap();
        q.schedule(t + Duration::from_ms(7), "next");
        assert_eq!(q.pop(), Some((Instant::from_ms(12), "next")));
        // Zero delay is valid in monotonic mode: fires at `now`.
        q.schedule(q.now() + Duration::ZERO, "immediate");
        assert_eq!(q.pop(), Some((Instant::from_ms(12), "immediate")));
    }

    #[test]
    fn schedule_batch_staggers_a_wake_train() {
        let mut q = EventQueue::new();
        q.schedule_batch(Instant::from_ms(500), Duration::from_us(250), 0..4u32);
        q.schedule(Instant::from_ms(500) + Duration::from_us(250), 99);
        let order: Vec<(Instant, u32)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![
                (Instant::from_ms(500), 0),
                (Instant::from_ms(500) + Duration::from_us(250), 1),
                (Instant::from_ms(500) + Duration::from_us(250), 99),
                (Instant::from_ms(500) + Duration::from_us(500), 2),
                (Instant::from_ms(500) + Duration::from_us(750), 3),
            ]
        );
    }

    /// `(per-lane lengths, heap events)`.
    fn placement<T>(q: &EventQueue<T>) -> (Vec<usize>, usize) {
        (q.lanes.iter().map(VecDeque::len).collect(), q.heap.len())
    }

    #[test]
    fn ties_across_lanes_wheel_and_overdue_pop_in_schedule_order() {
        type Twins = (EventQueue<&'static str>, NaiveEventQueue<&'static str>);
        fn schedule(q: &mut Twins, ms: u64, label: &'static str) {
            q.0.schedule(Instant::from_ms(ms), label);
            q.1.schedule(Instant::from_ms(ms), label);
        }
        fn pop(q: &mut Twins) -> Option<&'static str> {
            let popped = q.0.pop();
            assert_eq!(popped, q.1.pop());
            popped.map(|(_, label)| label)
        }
        let q = &mut (EventQueue::new(), NaiveEventQueue::new());
        schedule(q, 10, "lane0-a");
        schedule(q, 90, "lane0-tail");
        // Behind lane 0's tail: opens lane 1, tying with lane 0's head.
        schedule(q, 10, "lane1-a");
        schedule(q, 80, "lane1-tail");
        // One pin per remaining lane, each behind every tail so far.
        for k in (2..).take(LANES - 2) {
            schedule(q, 72 - k, "pin");
        }
        // Future events behind every lane's tail: the heap, tying with
        // both lane heads.
        schedule(q, 10, "heap-a");
        schedule(q, 20, "heap-b");
        let mut lanes = vec![2, 2];
        lanes.resize(LANES, 1);
        assert_eq!(placement(&q.0), (lanes, 2));
        let mut expect = vec!["lane0-a", "lane1-a", "heap-a", "heap-b"];
        expect.extend(std::iter::repeat_n("pin", LANES - 2));
        expect.push("lane1-tail");
        for label in expect {
            assert_eq!(pop(q), Some(label));
        }
        // `now` is 80 ms and every lane but lane 0 is empty. Lane 0 grows
        // a later tail; each other lane takes a past event and a tail
        // behind the previous one. A past event at the same instant and
        // a future one at lane 0's head then fit no lane: both land in
        // the heap, each tying with a lane head.
        schedule(q, 100, "lane0-late");
        for k in 1..LANES {
            schedule(q, 15, "lane-past");
            schedule(q, 100 - k as u64, "lane-past-tail");
        }
        schedule(q, 15, "heap-past");
        schedule(q, 90, "heap-future");
        let mut lanes = vec![2];
        lanes.resize(LANES, 2);
        assert_eq!(placement(&q.0), (lanes, 2));
        let rest: Vec<&str> = std::iter::from_fn(|| pop(q)).collect();
        let mut expect = vec!["lane-past"; LANES - 1];
        expect.extend(["heap-past", "lane0-tail", "heap-future"]);
        expect.extend(std::iter::repeat_n("lane-past-tail", LANES - 1));
        expect.push("lane0-late");
        assert_eq!(rest, expect);
    }

    #[test]
    fn wheel_matches_naive_on_a_periodic_mix() {
        // A deterministic mini-differential: staggered periodic wakes,
        // far-future timers, same-instant bursts, and interleaved pops.
        let mut wheel = EventQueue::new();
        let mut naive = NaiveEventQueue::new();
        let mut label = 0u64;
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut rand = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for round in 0..50u64 {
            for _ in 0..(rand() % 8) {
                let at = Instant::from_nanos(round * 1_000_000 + rand() % 5_000_000);
                wheel.schedule(at, label);
                naive.schedule(at, label);
                label += 1;
            }
            for _ in 0..(rand() % 6) {
                assert_eq!(wheel.pop(), naive.pop());
                assert_eq!(wheel.now(), naive.now());
            }
            assert_eq!(wheel.peek_time(), naive.peek_time());
            assert_eq!(wheel.len(), naive.len());
        }
        loop {
            let (a, b) = (wheel.pop(), naive.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
