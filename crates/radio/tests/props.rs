//! Property-based tests for the simulation substrate.

use proptest::prelude::*;
use std::sync::Arc;
use wile_radio::channel::ChannelModel;
use wile_radio::clock::DriftClock;
use wile_radio::event::LANES;
use wile_radio::gilbert::GilbertElliott;

use wile_radio::medium::{FrameSource, Medium, RadioConfig, RadioId, SourceId, TxParams};
use wile_radio::naive::NaiveMedium;
use wile_radio::per::packet_error_rate;
use wile_radio::time::{Duration, Instant};
use wile_radio::{EventQueue, NaiveEventQueue};

/// Pop every event at or before `deadline`, in order, from either
/// queue type.
macro_rules! pop_through {
    ($q:expr, $deadline:expr) => {{
        let mut out = Vec::new();
        while $q.peek_time().is_some_and(|t| t <= $deadline) {
            out.push($q.pop().unwrap());
        }
        out
    }};
}

/// One randomized radio: position in a 60 m box, one of three channels,
/// one of two sensitivities.
fn arb_radio() -> impl Strategy<Value = RadioConfig> {
    (0.0f64..60.0, 0.0f64..60.0, 0u8..3, any::<bool>()).prop_map(|(x, y, ch, deaf)| RadioConfig {
        position_m: (x, y),
        channel: [1, 6, 11][ch as usize],
        sensitivity_dbm: if deaf { -75.0 } else { -92.0 },
    })
}

/// A wide-area radio: positions span a ~half-kilometre metro hall —
/// dozens of spatial grid cells, so the sharded inbox walk has real
/// neighbourhoods to cull (most pairs are beyond the sensitivity
/// horizon of a 0/10 dBm transmission).
fn arb_radio_wide() -> impl Strategy<Value = RadioConfig> {
    (-200.0f64..400.0, -200.0f64..400.0, 0u8..3, any::<bool>()).prop_map(|(x, y, ch, deaf)| {
        RadioConfig {
            position_m: (x, y),
            channel: [1, 6, 11][ch as usize],
            sensitivity_dbm: if deaf { -75.0 } else { -92.0 },
        }
    })
}

/// One randomized transmission: sender index, start gap (µs), airtime
/// (µs), payload length, tx power.
type TrafficItem = (usize, u64, u64, usize, bool);

fn arb_traffic() -> impl Strategy<Value = Vec<TrafficItem>> {
    // The medium stores frames in 16 KiB chunks: one frame in five is
    // long enough (past half a chunk) to force the next chunk, and some
    // of those (past a whole one) get a chunk of their own.
    let len =
        (0u8..5, 1usize..40, 8_000usize..20_000)
            .prop_map(|(pick, short, long)| if pick == 0 { long } else { short });
    prop::collection::vec(
        (0usize..8, 0u64..800, 20u64..400, len, any::<bool>()),
        1..60,
    )
}

/// The `k`-th frame's payload: no two frames or offsets alike.
fn payload(k: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| (k + i * 7) as u8).collect()
}

/// Renders key `k << 16 | len` as [`payload`]`(k, len)`, the bytes the
/// naive reference is handed eagerly.
#[derive(Debug)]
struct Payloads;

impl FrameSource for Payloads {
    fn render(&self, key: u64, out: &mut Vec<u8>) {
        out.extend(payload((key >> 16) as usize, (key & 0xFFFF) as usize));
    }
}

/// Whether bit `k mod 64` of `mask` is set: frame `k` of a schedule
/// goes through [`Medium::transmit_from`] instead of being copied.
fn keyed(mask: u64, k: usize) -> bool {
    mask >> (k % 64) & 1 == 1
}

/// Transmit frame `k`, `payload(k, len)`, on `medium`: logged by key
/// when `source` is given, else copied into the arena.
fn send(
    medium: &mut Medium,
    source: Option<SourceId>,
    from: RadioId,
    at: Instant,
    params: TxParams,
    (k, len): (usize, usize),
) -> Instant {
    match source {
        Some(id) => {
            let key = (k as u64) << 16 | len as u64;
            medium.transmit_from(from, at, params, id, key, len as u16)
        }
        None => medium.transmit(from, at, params, payload(k, len)),
    }
}

/// A transmission as [`Medium::transmissions`] yields it, owned.
type Logged = (RadioId, Instant, Instant, Vec<u8>);

/// `medium`'s retained log must be the tail of everything sent.
fn assert_log_tail(
    medium: &Medium,
    sent: &[Logged],
) -> Result<(), proptest::test_runner::TestCaseError> {
    let logged: Vec<Logged> = medium
        .transmissions()
        .map(|(from, start, end, bytes)| (from, start, end, bytes.to_vec()))
        .collect();
    prop_assert_eq!(&logged[..], &sent[sent.len() - logged.len()..]);
    Ok(())
}

/// Drive the optimized and naive media through identical topology,
/// traffic, interleaved polls and carrier-sense queries; every
/// observable must match bit-for-bit. The frames `keyed_mask` picks
/// (see [`keyed`]) reach the optimized medium as keys of a
/// [`FrameSource`] and the naive one as bytes. After each poll the
/// optimized medium's log is read too, so some keyed frames are first
/// rendered by a delivery and others (those still on air) by the log.
fn assert_media_equivalent(
    seed: u64,
    sigma_db: f64,
    radios: &[RadioConfig],
    traffic: &[TrafficItem],
    poll_every: usize,
    bounded: bool,
    keyed_mask: u64,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let model = ChannelModel {
        shadowing_sigma_db: sigma_db,
        ..Default::default()
    };
    let mut fast = Medium::new(model, seed);
    let mut slow = NaiveMedium::new(model, seed);
    fast.retire_consumed(bounded);
    let source = fast.add_source(Arc::new(Payloads));
    let ids: Vec<_> = radios.iter().map(|&cfg| fast.attach(cfg)).collect();
    for &cfg in radios {
        slow.attach(cfg);
    }
    let mut sent: Vec<Logged> = Vec::new();
    let mut t = Instant::ZERO;
    for (k, &(sender, gap_us, airtime_us, len, high_power)) in traffic.iter().enumerate() {
        let from = ids[sender % ids.len()];
        t += Duration::from_us(gap_us);
        let params = TxParams {
            airtime: Duration::from_us(airtime_us),
            power_dbm: if high_power { 10.0 } else { 0.0 },
            min_snr_db: 15.0,
        };
        let by_key = keyed(keyed_mask, k).then_some(source);
        let end_fast = send(&mut fast, by_key, from, t, params, (k, len));
        let end_slow = slow.transmit(from, t, params, payload(k, len));
        prop_assert_eq!(end_fast, end_slow);
        sent.push((from, t, end_slow, payload(k, len)));
        // Carrier sense mid-frame must agree for every radio.
        let mid = t + Duration::from_us(airtime_us / 2);
        for &r in &ids {
            prop_assert_eq!(fast.is_busy(r, mid), slow.is_busy(r, mid));
        }
        if (k + 1) % poll_every == 0 {
            for &r in &ids {
                prop_assert_eq!(fast.take_inbox(r, t), slow.take_inbox(r, t));
            }
            assert_log_tail(&fast, &sent)?;
        }
    }
    let drain = t + Duration::from_secs(1);
    for &r in &ids {
        prop_assert_eq!(fast.take_inbox(r, drain), slow.take_inbox(r, drain));
    }
    assert_log_tail(&fast, &sent)?;
    if bounded {
        // The whole point of bounded mode: consumed history is gone.
        prop_assert!(fast.live_tx_count() <= traffic.len());
    }
    Ok(())
}

/// Two bounded media and the naive reference under identical traffic,
/// differing only in how the transmit-only radios are released.
struct ReleaseTwins {
    /// Releases everyone with one [`Medium::release_all`] per round.
    batch: Medium,
    /// Calls [`Medium::release`] for each transmit-only radio instead.
    looped: Medium,
    naive: NaiveMedium,
    /// The [`Payloads`] source on `batch` and on `looped`.
    sources: (SourceId, SourceId),
    ids: Vec<RadioId>,
    /// Whether each radio drains its inbox (else it is transmit-only).
    listens: Vec<bool>,
    /// Radios attached before the first round; later ones never saw
    /// the retired history the naive reference still delivers.
    original: usize,
}

impl ReleaseTwins {
    fn new(seed: u64) -> Self {
        let model = ChannelModel::default();
        let mut batch = Medium::new(model, seed);
        let mut looped = Medium::new(model, seed);
        batch.retire_consumed(true);
        looped.retire_consumed(true);
        let sources = (
            batch.add_source(Arc::new(Payloads)),
            looped.add_source(Arc::new(Payloads)),
        );
        ReleaseTwins {
            batch,
            looped,
            naive: NaiveMedium::new(model, seed),
            sources,
            ids: Vec::new(),
            listens: Vec::new(),
            original: 0,
        }
    }

    fn attach(&mut self, (cfg, listener): (RadioConfig, bool)) {
        let id = self.batch.attach(cfg);
        assert_eq!(self.looped.attach(cfg), id);
        self.naive.attach(cfg);
        self.ids.push(id);
        self.listens.push(listener);
    }

    /// Transmit frame `k` of `len` bytes, by key on the optimized
    /// media when `by_key`.
    fn transmit(
        &mut self,
        sender: usize,
        at: Instant,
        params: TxParams,
        frame: (usize, usize),
        by_key: bool,
    ) {
        let from = self.ids[sender % self.ids.len()];
        let (batch, looped) = self.sources;
        send(
            &mut self.batch,
            by_key.then_some(batch),
            from,
            at,
            params,
            frame,
        );
        send(
            &mut self.looped,
            by_key.then_some(looped),
            from,
            at,
            params,
            frame,
        );
        self.naive
            .transmit(from, at, params, payload(frame.0, frame.1));
    }

    /// One poll round at `t`: every radio makes one cursor move, in
    /// attach order on the looped medium.
    fn round(&mut self, t: Instant) -> Result<(), proptest::test_runner::TestCaseError> {
        for (k, (&r, &listener)) in self.ids.iter().zip(&self.listens).enumerate() {
            if listener {
                let got = self.batch.take_inbox(r, t);
                prop_assert_eq!(&got, &self.looped.take_inbox(r, t));
                if k < self.original {
                    prop_assert_eq!(&got, &self.naive.take_inbox(r, t));
                }
            } else {
                self.looped.release(r, t);
            }
        }
        self.batch.release_all(t);
        prop_assert_eq!(self.batch.live_tx_count(), self.looped.live_tx_count());
        prop_assert_eq!(
            self.batch.retired_tx_count(),
            self.looped.retired_tx_count()
        );
        Ok(())
    }
}

/// Poll rounds every `poll_every` transmissions: the listeners drain
/// their inbox and the transmit-only radios are released. Frames,
/// retained and retired counts must agree between one
/// [`Medium::release_all`] and a per-radio [`Medium::release`] loop
/// after every round, and the radios attached at the start must see
/// exactly what the naive full-history reference delivers. After each
/// round one radio of `late` (while any are left) attaches, so radios
/// join behind an already-raised release floor. The frames
/// `keyed_mask` picks reach the optimized media by key.
fn assert_release_all_matches_release_loop(
    seed: u64,
    radios: &[(RadioConfig, bool)],
    late: &[(RadioConfig, bool)],
    traffic: &[TrafficItem],
    poll_every: usize,
    keyed_mask: u64,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let mut twins = ReleaseTwins::new(seed);
    for &radio in radios {
        twins.attach(radio);
    }
    twins.original = radios.len();
    let mut late = late.iter();
    let mut t = Instant::ZERO;
    for (k, &(sender, gap_us, airtime_us, len, high_power)) in traffic.iter().enumerate() {
        t += Duration::from_us(gap_us);
        let params = TxParams {
            airtime: Duration::from_us(airtime_us),
            power_dbm: if high_power { 10.0 } else { 0.0 },
            min_snr_db: 15.0,
        };
        twins.transmit(sender, t, params, (k, len), keyed(keyed_mask, k));
        if (k + 1) % poll_every == 0 {
            twins.round(t)?;
            if let Some(&radio) = late.next() {
                twins.attach(radio);
            }
        }
    }
    twins.round(t + Duration::from_secs(1))?;
    prop_assert!(twins.batch.live_tx_count() <= traffic.len());
    Ok(())
}

proptest! {
    #[test]
    fn event_queue_pops_sorted_and_stable(times in prop::collection::vec(0u64..10_000, 0..200)) {
        let mut q = EventQueue::new();
        for (i, &ms) in times.iter().enumerate() {
            q.schedule(Instant::from_ms(ms), i);
        }
        let mut out = Vec::new();
        while let Some((t, i)) = q.pop() {
            out.push((t, i));
        }
        prop_assert_eq!(out.len(), times.len());
        // Sorted by time, ties by insertion order.
        for w in out.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1);
            }
        }
    }

    #[test]
    fn event_queue_ties_stay_fifo_under_interleaved_schedule_and_pop(
        // Each op: (schedule-time bucket, pops to attempt before the next
        // schedule). Few buckets → many exact-time ties, which is the
        // property under test: ties must pop in schedule order even when
        // pops are interleaved between the schedules.
        ops in prop::collection::vec((0u64..6, 0usize..3), 1..120),
    ) {
        let mut q = EventQueue::new();
        // Popping mid-stream moves `now` forward; later schedules into
        // earlier buckets are "past" events, which the queue documents
        // as firing immediately — exclude them from the FIFO claim by
        // scheduling relative to the queue's own now.
        let mut scheduled = 0u64;
        let mut popped: Vec<(Instant, u64)> = Vec::new();
        for &(bucket, pops) in &ops {
            let at = q.now() + Duration::from_ms(bucket);
            q.schedule(at, scheduled);
            scheduled += 1;
            for _ in 0..pops {
                if let Some(e) = q.pop() {
                    popped.push(e);
                }
            }
        }
        while let Some(e) = q.pop() {
            popped.push(e);
        }
        prop_assert_eq!(popped.len() as u64, scheduled);
        // Among events popped in one drain stretch, equal times must
        // preserve schedule order (payload = schedule ordinal).
        for w in popped.windows(2) {
            if w[0].0 == w[1].0 {
                prop_assert!(
                    w[0].1 < w[1].1,
                    "tie at {} popped out of schedule order: {} before {}",
                    w[0].0, w[0].1, w[1].1
                );
            }
        }
        // And every event was popped exactly once.
        let mut ids: Vec<u64> = popped.iter().map(|e| e.1).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..scheduled).collect::<Vec<_>>());
    }

    #[test]
    fn timer_wheel_matches_naive_heap_pop_for_pop(
        // Random interleaving of schedules and pops. Times come from a
        // few coarse buckets, plus a jitter that often collides —
        // exercising same-instant FIFO ties, events behind every lane's
        // tail, and (since pops move `now` while schedules may land
        // behind it) past events in the fallback heap.
        ops in prop::collection::vec(
            (0u64..6, 0u64..4, 0usize..3, any::<bool>()),
            1..200,
        ),
    ) {
        let mut wheel = EventQueue::new();
        let mut naive = NaiveEventQueue::new();
        for (label, &(bucket, jitter, pops, absolute)) in ops.iter().enumerate() {
            let label = label as u64;
            // Absolute times can fall behind `now` once pops happen —
            // the legacy past-scheduling path both queues must agree on.
            let at = if absolute {
                Instant::from_ms(bucket * 40 + jitter)
            } else {
                wheel.now() + Duration::from_ms(bucket * 40 + jitter)
            };
            wheel.schedule(at, label);
            naive.schedule(at, label);
            prop_assert_eq!(wheel.peek_time(), naive.peek_time());
            prop_assert_eq!(wheel.len(), naive.len());
            for _ in 0..pops {
                prop_assert_eq!(wheel.pop(), naive.pop());
                prop_assert_eq!(wheel.now(), naive.now());
            }
        }
        loop {
            let (a, b) = (wheel.pop(), naive.pop());
            prop_assert_eq!(a, b);
            prop_assert_eq!(wheel.now(), naive.now());
            if a.is_none() {
                break;
            }
        }
        prop_assert!(wheel.is_empty() && naive.is_empty());
    }

    #[test]
    fn timer_wheel_matches_naive_heap_in_monotonic_mode(
        // The kernel's usage pattern: monotonic mode on, every schedule
        // a forward offset from `now` (never in the past), pops up to
        // periodic deadlines. Tight buckets force many exact ties.
        ops in prop::collection::vec((0u64..5, 0u64..3), 1..150),
        drain_every in 1usize..8,
    ) {
        let mut wheel = EventQueue::new();
        let mut naive = NaiveEventQueue::new();
        wheel.assert_monotonic(true);
        naive.assert_monotonic(true);
        for (k, &(bucket, extra)) in ops.iter().enumerate() {
            let label = k as u64;
            let delay = Duration::from_ms(bucket * 25) + Duration::from_us(extra);
            prop_assert_eq!(wheel.now(), naive.now());
            wheel.schedule(wheel.now() + delay, label);
            naive.schedule(naive.now() + delay, label);
            if (k + 1) % drain_every == 0 {
                let deadline = wheel.now() + Duration::from_ms(50);
                prop_assert_eq!(pop_through!(wheel, deadline), pop_through!(naive, deadline));
            }
        }
        let end = Instant::from_secs(3600);
        prop_assert_eq!(pop_through!(wheel, end), pop_through!(naive, end));
    }

    #[test]
    fn schedule_batch_matches_item_by_item_schedules(
        start_ms in 0u64..1_000,
        stride_us in 0u64..5_000,
        count in 0usize..400,
        pre in prop::collection::vec(0u64..2_000, 0..20),
    ) {
        // A batched wake train interleaved with ordinary schedules must
        // be indistinguishable from scheduling each wake individually.
        let mut batched = EventQueue::new();
        let mut single = EventQueue::new();
        for (i, &ms) in pre.iter().enumerate() {
            batched.schedule(Instant::from_ms(ms), u64::MAX - i as u64);
            single.schedule(Instant::from_ms(ms), u64::MAX - i as u64);
        }
        let start = Instant::from_ms(start_ms);
        let stride = Duration::from_us(stride_us);
        batched.schedule_batch(start, stride, (0..count).map(|i| i as u64));
        for i in 0..count {
            single.schedule(start + stride.mul(i as u64), i as u64);
        }
        loop {
            let (a, b) = (batched.pop(), single.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn drain_until_includes_boundary_and_leaves_the_rest(
        times in prop::collection::vec(0u64..2_000, 1..150),
        deadline in 0u64..2_000,
    ) {
        let mut q = EventQueue::new();
        for (i, &us) in times.iter().enumerate() {
            q.schedule(Instant::from_us(us), i);
        }
        let deadline = Instant::from_us(deadline);
        let drained = pop_through!(q, deadline);
        // Exactly the events at-or-before the deadline come out —
        // boundary *inclusive* — and everything later stays queued.
        let expect = times.iter().filter(|&&us| Instant::from_us(us) <= deadline).count();
        prop_assert_eq!(drained.len(), expect);
        prop_assert_eq!(q.len(), times.len() - expect);
        for (t, _) in &drained {
            prop_assert!(*t <= deadline);
        }
        if let Some(next) = q.peek_time() {
            prop_assert!(next > deadline);
        }
        // Drained events are themselves time-ordered with FIFO ties.
        for w in drained.windows(2) {
            prop_assert!(w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1));
        }
    }

    #[test]
    fn duration_arithmetic_consistent(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4) {
        let da = Duration::from_nanos(a);
        let db = Duration::from_nanos(b);
        prop_assert_eq!((da + db).as_nanos(), a + b);
        prop_assert_eq!(da.saturating_sub(db).as_nanos(), a.saturating_sub(b));
        let t = Instant::from_nanos(a) + db;
        prop_assert_eq!(t.since(Instant::from_nanos(a)), db);
    }

    #[test]
    fn per_is_probability_and_monotone(
        snr in -40.0f64..60.0,
        min_snr in 0.0f64..30.0,
        len in 1usize..2304,
    ) {
        let p = packet_error_rate(snr, min_snr, len);
        prop_assert!((0.0..=1.0).contains(&p));
        let p_better = packet_error_rate(snr + 5.0, min_snr, len);
        prop_assert!(p_better <= p);
    }

    #[test]
    fn path_loss_monotone_in_distance(d1 in 0.1f64..1000.0, d2 in 0.1f64..1000.0) {
        prop_assume!(d1 < d2);
        let c = ChannelModel::default();
        prop_assert!(c.path_loss_db(d1) <= c.path_loss_db(d2));
        prop_assert!(c.snr_db(0.0, d1) >= c.snr_db(0.0, d2));
    }

    #[test]
    fn clock_drift_bounded(ppm in -100.0f64..100.0, secs in 1u64..100_000, seed in any::<u64>()) {
        let mut c = DriftClock::new(ppm, Duration::ZERO, seed);
        let nominal = Duration::from_secs(secs);
        let actual = c.true_duration(nominal);
        let err = (actual.as_nanos() as i128 - nominal.as_nanos() as i128).abs() as f64;
        let bound = nominal.as_nanos() as f64 * (ppm.abs() * 1e-6) + 2.0;
        prop_assert!(err <= bound, "err {err} bound {bound}");
    }

    #[test]
    fn medium_delivery_deterministic_per_seed(
        seed in any::<u64>(),
        dist in 1.0f64..80.0,
        n in 1usize..30,
    ) {
        let run = || {
            let mut m = Medium::new(ChannelModel::default(), seed);
            let a = m.attach(RadioConfig::default());
            let b = m.attach(RadioConfig { position_m: (dist, 0.0), ..Default::default() });
            let mut t = Instant::ZERO;
            for i in 0..n {
                t = m.transmit(
                    a,
                    t + Duration::from_ms(1),
                    TxParams { airtime: Duration::from_us(100), power_dbm: 0.0, min_snr_db: 15.0 },
                    vec![i as u8; 100],
                );
            }
            m.take_inbox(b, t + Duration::from_secs(1))
                .iter()
                .map(|f| f.bytes[0])
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn delivered_frames_arrive_in_order_and_intact(
        dist in 0.5f64..5.0,
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..64), 1..20),
    ) {
        // Close range: everything must arrive, in order, bit-exact.
        let mut m = Medium::new(ChannelModel::default(), 9);
        let a = m.attach(RadioConfig::default());
        let b = m.attach(RadioConfig { position_m: (dist, 0.0), ..Default::default() });
        let mut t = Instant::ZERO;
        for p in &payloads {
            t = m.transmit(
                a,
                t + Duration::from_ms(1),
                TxParams { airtime: Duration::from_us(50), power_dbm: 0.0, min_snr_db: 5.0 },
                p.clone(),
            );
        }
        let got = m.take_inbox(b, t + Duration::from_secs(1));
        prop_assert_eq!(got.len(), payloads.len());
        for (rx, p) in got.iter().zip(&payloads) {
            prop_assert_eq!(&rx.bytes[..], &p[..]);
        }
        for w in got.windows(2) {
            prop_assert!(w[0].at <= w[1].at);
        }
    }

    #[test]
    fn gilbert_elliott_stationary_loss_matches_closed_form(
        p_enter in 0.05f64..0.5,
        p_exit in 0.05f64..0.5,
        loss_good in 0.0f64..0.2,
        loss_bad in 0.5f64..1.0,
        seed in any::<u64>(),
    ) {
        let mut ge = GilbertElliott::new(
            p_enter, p_exit, loss_good, loss_bad, Duration::from_ms(1), seed,
        );
        let n = 100_000usize;
        let lost = (0..n).filter(|_| ge.next_frame()).count();
        let measured = lost as f64 / n as f64;
        let expected = ge.stationary_loss();
        // The samples are Markov-correlated: the asymptotic variance of
        // the occupancy fraction is pi(1-pi) * (2/(p_enter+p_exit) - 1)
        // / n; loss indicators add at most Bernoulli noise on top.
        let pi = ge.stationary_bad();
        let occupancy_var = pi * (1.0 - pi) * (2.0 / (p_enter + p_exit) - 1.0) / n as f64;
        let bernoulli_var = expected * (1.0 - expected) / n as f64;
        let tol = 6.0 * (occupancy_var + bernoulli_var).sqrt() + 1e-3;
        prop_assert!(
            (measured - expected).abs() <= tol,
            "measured {measured:.4} vs closed form {expected:.4} (tol {tol:.4})"
        );
    }

    #[test]
    fn inbox_cursor_never_duplicates(
        n in 1usize..20,
        poll_points in prop::collection::vec(0u64..40, 1..10),
    ) {
        let mut m = Medium::new(ChannelModel::default(), 4);
        let a = m.attach(RadioConfig::default());
        let b = m.attach(RadioConfig { position_m: (1.0, 0.0), ..Default::default() });
        let mut t = Instant::ZERO;
        for i in 0..n {
            t = m.transmit(
                a,
                t + Duration::from_ms(1),
                TxParams { airtime: Duration::from_us(50), power_dbm: 0.0, min_snr_db: 5.0 },
                vec![i as u8],
            );
        }
        let mut polls: Vec<u64> = poll_points;
        polls.sort_unstable();
        let mut total = 0;
        for ms in polls {
            total += m.take_inbox(b, Instant::from_ms(ms)).len();
        }
        total += m.take_inbox(b, t + Duration::from_secs(1)).len();
        prop_assert_eq!(total, n);
    }

    #[test]
    fn indexed_medium_matches_naive_reference(
        seed in any::<u64>(),
        radios in prop::collection::vec(arb_radio(), 2..8),
        traffic in arb_traffic(),
        poll_every in 1usize..10,
        keyed_mask in any::<u64>(),
    ) {
        assert_media_equivalent(seed, 0.0, &radios, &traffic, poll_every, false, keyed_mask)?;
    }

    #[test]
    fn indexed_medium_matches_naive_reference_with_shadowing(
        seed in any::<u64>(),
        sigma in 1.0f64..10.0,
        radios in prop::collection::vec(arb_radio(), 2..8),
        traffic in arb_traffic(),
        poll_every in 1usize..10,
        keyed_mask in any::<u64>(),
    ) {
        assert_media_equivalent(seed, sigma, &radios, &traffic, poll_every, false, keyed_mask)?;
    }

    #[test]
    fn sharded_medium_matches_naive_over_wide_areas(
        seed in any::<u64>(),
        sigma in 0.0f64..10.0,
        radios in prop::collection::vec(arb_radio_wide(), 2..10),
        traffic in arb_traffic(),
        poll_every in 1usize..10,
        keyed_mask in any::<u64>(),
    ) {
        // Multi-cell topologies (including negative coordinates) where
        // the spatial cull skips most sender cells: the delivered frame
        // streams and carrier-sense answers must still be bit-identical
        // to the naive full walk.
        assert_media_equivalent(seed, sigma, &radios, &traffic, poll_every, false, keyed_mask)?;
    }

    #[test]
    fn bounded_medium_matches_naive_reference(
        seed in any::<u64>(),
        radios in prop::collection::vec(arb_radio(), 2..8),
        traffic in arb_traffic(),
        poll_every in 1usize..10,
        keyed_mask in any::<u64>(),
    ) {
        // Retirement enabled: deliveries, loss rolls and in-contract
        // carrier sense must still match the full-history reference.
        assert_media_equivalent(seed, 0.0, &radios, &traffic, poll_every, true, keyed_mask)?;
    }

    #[test]
    fn release_all_matches_a_per_radio_release_loop(
        seed in any::<u64>(),
        radios in prop::collection::vec((arb_radio(), any::<bool>()), 2..8),
        late in prop::collection::vec((arb_radio(), any::<bool>()), 0..3),
        traffic in arb_traffic(),
        poll_every in 1usize..10,
        keyed_mask in any::<u64>(),
    ) {
        // Listeners and transmit-only radios mixed, some attached after
        // the first releases: the batch release must be exactly the
        // per-radio loop, down to when history is retired.
        assert_release_all_matches_release_loop(seed, &radios, &late, &traffic, poll_every, keyed_mask)?;
    }

    #[test]
    fn release_all_matches_a_per_radio_release_loop_at_scale(
        seed in any::<u64>(),
        radios in prop::collection::vec((arb_radio(), any::<bool>()), 2..6),
        late in prop::collection::vec((arb_radio(), any::<bool>()), 0..3),
        traffic in prop::collection::vec(
            (0usize..8, 0u64..200, 20u64..400, 1usize..8, any::<bool>()),
            100..300,
        ),
        poll_every in 10usize..60,
        keyed_mask in any::<u64>(),
    ) {
        // Enough traffic per round that retirement clears its batching
        // threshold, so the retired counts move.
        assert_release_all_matches_release_loop(seed, &radios, &late, &traffic, poll_every, keyed_mask)?;
    }
}

/// One step of the run-lane oracle.
#[derive(Debug, Clone)]
enum LaneOp {
    /// Extend monotone train `train` by `step_ms`; with `catch_up` the
    /// train first jumps to the queue's `now`, otherwise it may lag it.
    Train {
        train: usize,
        step_ms: u64,
        catch_up: bool,
    },
    /// One event at an absolute time, often behind `now` (the legacy
    /// past-scheduling path).
    At(u64),
    /// Up to this many pops.
    Pop(usize),
    /// Pop every event up to this many ms past `now`.
    Drain(u64),
}

/// More concurrent trains than lanes, so some must spill to the heap;
/// a 1 ms grain and 0–2 ms steps make exact ties common. Trains are
/// drawn 5 times in 9, pops 2, absolute times and drains 1 each.
fn arb_lane_op() -> impl Strategy<Value = LaneOp> {
    (0u8..9, 0..LANES + 3, 0u64..40, any::<bool>()).prop_map(
        |(kind, train, x, catch_up)| match kind {
            0..=4 => LaneOp::Train {
                train,
                step_ms: x % 3,
                catch_up,
            },
            5 => LaneOp::At(x),
            6 | 7 => LaneOp::Pop(train % 4),
            _ => LaneOp::Drain(x % 6),
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn run_lanes_match_naive_heap_with_spilled_trains(
        ops in prop::collection::vec(arb_lane_op(), 1..300),
    ) {
        // Interleaved monotone trains fill the lanes and spill into the
        // fallback heap, as do absolute times behind `now`. Equal times
        // across lanes and heap must pop in schedule order, and every
        // observer must agree throughout.
        let mut q = EventQueue::new();
        let mut naive = NaiveEventQueue::new();
        let mut tails = [Instant::ZERO; LANES + 3];
        for (label, op) in ops.iter().enumerate() {
            let label = label as u64;
            match *op {
                LaneOp::Train { train, step_ms, catch_up } => {
                    let from = if catch_up { tails[train].max(q.now()) } else { tails[train] };
                    let at = from + Duration::from_ms(step_ms);
                    tails[train] = at;
                    q.schedule(at, label);
                    naive.schedule(at, label);
                }
                LaneOp::At(ms) => {
                    q.schedule(Instant::from_ms(ms), label);
                    naive.schedule(Instant::from_ms(ms), label);
                }
                LaneOp::Pop(n) => {
                    for _ in 0..n {
                        prop_assert_eq!(q.pop(), naive.pop());
                        prop_assert_eq!(q.now(), naive.now());
                    }
                }
                LaneOp::Drain(ms) => {
                    let deadline = q.now() + Duration::from_ms(ms);
                    prop_assert_eq!(pop_through!(q, deadline), pop_through!(naive, deadline));
                }
            }
            prop_assert_eq!(q.peek_time(), naive.peek_time());
            prop_assert_eq!(q.len(), naive.len());
        }
        loop {
            let (a, b) = (q.pop(), naive.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        prop_assert!(q.is_empty());
    }
}

#[test]
fn city_wake_and_poll_tie_pops_the_wake_first() {
    // The million-device city: wakes 60 µs apart from 500 ms, one per
    // device per 60 s period, and a poll every 10 s. Device 325,000's
    // first wake lands at 0.5 s + 325,000 × 60 µs = 20 s, on the second
    // poll. The wake train is scheduled first, so that wake pops first,
    // exactly as in the naive heap.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Ev {
        Wake(u32),
        Poll,
    }
    const DEVICES: u32 = 1_000_000;
    let period = Duration::from_secs(60);
    let poll_every = Duration::from_secs(10);
    let stride = Duration::from_nanos(period.as_nanos() / DEVICES as u64);
    assert_eq!(stride, Duration::from_nanos(60_000));
    let mut q = EventQueue::new();
    let mut naive = NaiveEventQueue::new();
    q.schedule_batch(Instant::from_ms(500), stride, (0..DEVICES).map(Ev::Wake));
    naive.schedule_batch(Instant::from_ms(500), stride, (0..DEVICES).map(Ev::Wake));
    q.schedule(Instant::from_secs(10), Ev::Poll);
    naive.schedule(Instant::from_secs(10), Ev::Poll);
    let tie_at = Instant::from_secs(20);
    let mut at_tie = Vec::new();
    loop {
        let popped = q.pop();
        assert_eq!(popped, naive.pop());
        let (at, ev) = popped.expect("the trains never run dry");
        if at > tie_at {
            break;
        }
        if at == tie_at {
            at_tie.push(ev);
        }
        let next = match ev {
            Ev::Wake(_) => at + period,
            Ev::Poll => at + poll_every,
        };
        q.schedule(next, ev);
        naive.schedule(next, ev);
    }
    assert_eq!(at_tie, [Ev::Wake(325_000), Ev::Poll]);
}
