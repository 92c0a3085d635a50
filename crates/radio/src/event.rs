//! A minimal, stable discrete-event scheduler.
//!
//! Events are `(Instant, T)` pairs popped in time order; ties break by
//! insertion order so runs are reproducible regardless of payload type.
//!
//! Two implementations share the same API and — provably, see
//! `tests/props.rs` — the same pop order:
//!
//! * [`EventQueue`]: a hierarchical timer wheel. Near-periodic traffic
//!   (duty-cycled beacons) is the worst case for a binary heap — every
//!   push sifts through `log n` of the million pending wakes — while the
//!   wheel schedules in O(1) and pops in O(levels) amortised.
//! * [`NaiveEventQueue`]: the original binary heap, kept as the
//!   differential oracle in the same spirit as
//!   [`NaiveMedium`](crate::NaiveMedium).
//!
//! ## Wheel geometry
//!
//! Time is `u64` nanoseconds. The wheel has 11 levels of 64 slots; level
//! `l` indexes bits `[6l, 6l+6)` of the event time, so 11 levels cover
//! all 66 > 64 bits and no event is ever out of range. An event lives at
//! the level of the *highest bit where its time differs from the wheel's
//! `elapsed` cursor*; the cursor only ever advances to the slot base of
//! the earliest pending event, so every pending time stays `>= elapsed`
//! and placement stays canonical. Popping drains the first occupied slot
//! of the lowest occupied level; slots above level 0 are cascaded — all
//! their events re-inserted strictly further down — until the minimum
//! sits at level 0, where a slot can hold only one distinct instant and
//! its FIFO order is exactly schedule order (equal times follow identical
//! slot paths through every cascade), so wheel entries carry no sequence
//! number. Events scheduled *before* `elapsed` (the documented legacy
//! "fires immediately" behaviour) are parked in a tiny overflow heap,
//! ordered by `(time, seq)`, that always pops first; they can never tie
//! with a wheel event on time, so the pop order is identical to the
//! naive queue's.

use crate::time::{Duration, Instant};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

struct Entry<T> {
    at: Instant,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
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
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Bits of the timestamp consumed per wheel level.
const LEVEL_BITS: u32 = 6;
/// Slots per level (`2^LEVEL_BITS`).
const SLOTS: usize = 1 << LEVEL_BITS;
/// Levels needed so `LEVELS * LEVEL_BITS >= 64` bits of nanoseconds.
const LEVELS: usize = 11;

/// One wheel slot: `(time ns, payload)` events in insertion order plus
/// the cached minimum timestamp. Slots above level 0 only ever drain
/// wholesale (cascade), and level-0 slots hold a single distinct
/// instant, so a push-only minimum is exact. Entries carry no sequence
/// number: slot FIFO order *is* schedule order (see the module docs).
struct Slot<T> {
    entries: VecDeque<(u64, T)>,
    min_at: u64,
}

impl<T> Slot<T> {
    fn new() -> Self {
        Slot {
            entries: VecDeque::new(),
            min_at: u64::MAX,
        }
    }
}

struct Level<T> {
    /// Bitmap of non-empty slots; `trailing_zeros` finds the first.
    occupied: u64,
    slots: Vec<Slot<T>>,
}

/// The wheel level for an event at `at` given the cursor `elapsed`:
/// the level containing the highest differing bit (0 when equal).
fn level_of(elapsed: u64, at: u64) -> usize {
    let diff = elapsed ^ at;
    if diff == 0 {
        0
    } else {
        ((63 - diff.leading_zeros()) / LEVEL_BITS) as usize
    }
}

/// The slot index of `at` within `level`: bits `[6l, 6l+6)`.
fn slot_of(at: u64, level: usize) -> usize {
    ((at >> (LEVEL_BITS as usize * level)) & (SLOTS as u64 - 1)) as usize
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
    levels: Vec<Level<T>>,
    /// Events scheduled before `elapsed` (legacy past-scheduling); their
    /// times are strictly below every wheel event's, so "overdue pops
    /// first" preserves the exact (time, seq) order.
    overdue: BinaryHeap<Entry<T>>,
    /// The wheel cursor: every wheel event's time is `>= elapsed`, and
    /// it equals the last wheel-popped time (so `elapsed <= now`).
    elapsed: u64,
    wheel_len: usize,
    next_seq: u64,
    now: Instant,
    monotonic: bool,
}

impl<T> EventQueue<T> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            levels: (0..LEVELS)
                .map(|_| Level {
                    occupied: 0,
                    slots: (0..SLOTS).map(|_| Slot::new()).collect(),
                })
                .collect(),
            overdue: BinaryHeap::new(),
            elapsed: 0,
            wheel_len: 0,
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

    fn wheel_insert(&mut self, at: u64, payload: T) {
        debug_assert!(at >= self.elapsed);
        let level = level_of(self.elapsed, at);
        let slot = slot_of(at, level);
        let s = &mut self.levels[level].slots[slot];
        s.min_at = s.min_at.min(at);
        s.entries.push_back((at, payload));
        self.levels[level].occupied |= 1 << slot;
    }

    /// `(level, slot, min_at)` of the earliest wheel event. The minimum
    /// always sits in the first occupied slot of the lowest occupied
    /// level: a lower-level event agrees with `elapsed` on every bit
    /// above its level and therefore precedes anything that differs
    /// higher up.
    fn wheel_min(&self) -> Option<(usize, usize, u64)> {
        self.levels.iter().enumerate().find_map(|(l, level)| {
            (level.occupied != 0).then(|| {
                let slot = level.occupied.trailing_zeros() as usize;
                (l, slot, level.slots[slot].min_at)
            })
        })
    }

    /// Schedule `payload` to fire at `at`. Scheduling in the past (before
    /// the last popped event) is allowed but will fire "immediately" in
    /// pop order; callers that care should enable
    /// [`EventQueue::assert_monotonic`] or use
    /// [`EventQueue::schedule_after`].
    pub fn schedule(&mut self, at: Instant, payload: T) {
        if self.monotonic {
            debug_assert!(
                at >= self.now,
                "scheduled an event in the past: {at} < now {}",
                self.now
            );
        }
        let ns = at.as_nanos();
        if ns < self.elapsed {
            self.push_overdue(at, payload);
        } else {
            self.wheel_insert(ns, payload);
            self.wheel_len += 1;
        }
    }

    /// Schedule a homogeneous train of events: payload `i` fires at
    /// `start + stride * i`. This is the staggered-wake pattern fleets
    /// use at start-up (one wake per device, evenly spread over a beacon
    /// period); batching it keeps the monotonic check out of the
    /// per-device path and schedules the whole train in one
    /// call. A `stride` of zero schedules every payload at `start`, in
    /// FIFO order.
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
        let stride = stride.as_nanos();
        let mut at = start.as_nanos();
        for payload in payloads {
            if at < self.elapsed {
                self.push_overdue(Instant::from_nanos(at), payload);
            } else {
                self.wheel_insert(at, payload);
                self.wheel_len += 1;
            }
            at += stride;
        }
    }

    /// Park an event scheduled before the wheel cursor in the overdue
    /// heap, which orders by `(time, seq)`.
    fn push_overdue(&mut self, at: Instant, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.overdue.push(Entry { at, seq, payload });
    }

    /// Schedule `payload` to fire `delay` after `now` and return the
    /// resulting absolute time. Because the target is expressed as a
    /// forward offset from the caller's clock, it can never land before
    /// `now` — the safe form for self-rescheduling actors.
    ///
    /// `now` is asserted (debug builds) to be at or after the queue's
    /// own notion of the present, catching callers whose local clock
    /// fell behind the events already popped.
    pub fn schedule_after(&mut self, now: Instant, delay: Duration, payload: T) -> Instant {
        debug_assert!(
            now >= self.now,
            "caller clock {now} lags the queue's now {}",
            self.now
        );
        let at = now + delay;
        self.schedule(at, payload);
        at
    }

    /// Pop the earliest event, advancing the queue's notion of "now".
    pub fn pop(&mut self) -> Option<(Instant, T)> {
        if let Some(e) = self.overdue.pop() {
            // Overdue times are strictly below `elapsed` and every wheel
            // event; `now` still never runs backwards.
            self.now = self.now.max(e.at);
            return Some((e.at, e.payload));
        }
        loop {
            let (level, slot, _) = self.wheel_min()?;
            if level == 0 {
                // A level-0 slot holds exactly one distinct instant (the
                // slot is 1 ns wide relative to `elapsed`), so front-pop
                // is schedule order.
                let s = &mut self.levels[0].slots[slot];
                let (at, payload) = s.entries.pop_front().expect("occupied slot");
                if s.entries.is_empty() {
                    s.min_at = u64::MAX;
                    self.levels[0].occupied &= !(1 << slot);
                }
                self.elapsed = at;
                self.wheel_len -= 1;
                let at = Instant::from_nanos(at);
                self.now = self.now.max(at);
                return Some((at, payload));
            }
            // Cascade: drain the whole slot, advance the cursor to its
            // base (all entries share bits >= 6*level, and nothing
            // pending is earlier), and re-insert. Every entry now
            // differs from `elapsed` only below this level, so each
            // lands strictly further down — the loop terminates. Equal
            // times follow identical slot paths at every level, so
            // insertion order survives any number of cascades.
            let s = &mut self.levels[level].slots[slot];
            let drained = std::mem::take(&mut s.entries);
            s.min_at = u64::MAX;
            self.levels[level].occupied &= !(1 << slot);
            let shift = LEVEL_BITS as usize * level;
            let base = (drained.front().expect("occupied slot").0 >> shift) << shift;
            debug_assert!(base >= self.elapsed);
            self.elapsed = base;
            for (at, payload) in drained {
                debug_assert!(level_of(self.elapsed, at) < level);
                self.wheel_insert(at, payload);
            }
        }
    }

    /// The timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<Instant> {
        if let Some(e) = self.overdue.peek() {
            return Some(e.at);
        }
        self.wheel_min().map(|(_, _, min)| Instant::from_nanos(min))
    }

    /// The time of the most recently popped event (simulation "now").
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel_len + self.overdue.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drain events up to and including `deadline`, in order.
    pub fn drain_until(&mut self, deadline: Instant) -> Vec<(Instant, T)> {
        let mut out = Vec::new();
        self.drain_until_into(deadline, &mut out);
        out
    }

    /// Drain events up to and including `deadline`, in order, appending
    /// to `out`. The allocation-free form of
    /// [`EventQueue::drain_until`] — hot loops keep one scratch buffer
    /// alive across calls instead of allocating a fresh `Vec` per poll.
    pub fn drain_until_into(&mut self, deadline: Instant, out: &mut Vec<(Instant, T)>) {
        while matches!(self.peek_time(), Some(t) if t <= deadline) {
            out.push(self.pop().expect("peeked event"));
        }
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// The original binary-heap event queue, kept verbatim as the
/// differential oracle for [`EventQueue`] (the timer wheel). Same API,
/// same documented semantics; `tests/props.rs` drives both through
/// random schedule/pop interleavings and asserts identical pop streams.
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

    /// See [`EventQueue::schedule_after`].
    pub fn schedule_after(&mut self, now: Instant, delay: Duration, payload: T) -> Instant {
        debug_assert!(
            now >= self.now,
            "caller clock {now} lags the queue's now {}",
            self.now
        );
        let at = now + delay;
        self.schedule(at, payload);
        at
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

    /// See [`EventQueue::drain_until`].
    pub fn drain_until(&mut self, deadline: Instant) -> Vec<(Instant, T)> {
        let mut out = Vec::new();
        self.drain_until_into(deadline, &mut out);
        out
    }

    /// See [`EventQueue::drain_until_into`].
    pub fn drain_until_into(&mut self, deadline: Instant, out: &mut Vec<(Instant, T)>) {
        while matches!(self.peek_time(), Some(t) if t <= deadline) {
            out.push(self.pop().expect("peeked event"));
        }
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
        // Two equal instants far from `elapsed` share every slot path,
        // so a multi-level cascade cannot reorder them.
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
        let first = q.drain_until(Instant::from_ms(5));
        assert_eq!(first.len(), 5);
        assert_eq!(q.len(), 5);
        assert_eq!(q.peek_time(), Some(Instant::from_ms(6)));
    }

    #[test]
    fn drain_until_into_reuses_the_buffer() {
        let mut q = EventQueue::new();
        for ms in 1..=6u64 {
            q.schedule(Instant::from_ms(ms), ms);
        }
        let mut buf = Vec::with_capacity(8);
        q.drain_until_into(Instant::from_ms(3), &mut buf);
        assert_eq!(buf.len(), 3);
        let cap = buf.capacity();
        buf.clear();
        q.drain_until_into(Instant::from_ms(10), &mut buf);
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.capacity(), cap, "no reallocation");
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
        // pops before anything later, in FIFO order among the overdue.
        let mut q = EventQueue::new();
        q.schedule(Instant::from_ms(50), "future");
        q.pop();
        assert_eq!(q.now(), Instant::from_ms(50));
        q.schedule(Instant::from_ms(10), "late-a");
        q.schedule(Instant::from_ms(10), "late-b");
        q.schedule(Instant::from_ms(60), "on-time");
        assert_eq!(q.pop(), Some((Instant::from_ms(10), "late-a")));
        assert_eq!(q.pop(), Some((Instant::from_ms(10), "late-b")));
        // `now` never runs backwards even when overdue events fire.
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
        q.schedule(Instant::from_ms(50), ());
        q.pop();
        q.schedule(Instant::from_ms(10), ());
        // In release builds the debug_assert compiles out and the event
        // is accepted (legacy behaviour); make the test pass there too.
        #[cfg(not(debug_assertions))]
        panic!("scheduled an event in the past (release-mode stand-in)");
    }

    #[test]
    fn schedule_after_lands_at_now_plus_delay() {
        let mut q = EventQueue::new();
        q.assert_monotonic(true);
        q.schedule(Instant::from_ms(5), "seed");
        let (t, _) = q.pop().unwrap();
        let at = q.schedule_after(t, Duration::from_ms(7), "next");
        assert_eq!(at, Instant::from_ms(12));
        assert_eq!(q.pop(), Some((Instant::from_ms(12), "next")));
        // Zero delay is valid: fires at `now`, after nothing.
        q.schedule_after(at, Duration::ZERO, "immediate");
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
