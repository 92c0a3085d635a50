//! The discrete-event actor kernel.
//!
//! A [`Kernel`] owns the shared simulation state every scenario driver
//! in this workspace used to plumb by hand — the [`Medium`], one
//! [`EventQueue`], an optional seeded [`FaultTimeline`], and the
//! [`Telemetry`] collector whose run trace records what actors emit —
//! and dispatches typed events to registered [`Actor`]s in strict
//! `(time, schedule-order)` order. Time is sparse: the kernel jumps
//! from wake event to wake event, so a device that deep-sleeps for an
//! hour costs exactly one queue pop, and 10k-device fleets stay
//! tractable.
//!
//! ## Determinism contract
//!
//! For a fixed medium seed, fault plan, and actor/event setup order,
//! a kernel run is byte-identical across processes and worker counts:
//!
//! * events pop in `(time, schedule ordinal)` order — ties resolve
//!   FIFO, so "send to myself now" sequences execute in the order they
//!   were issued, with nothing else interleaving at the same instant;
//! * the queue runs in monotonic mode ([`EventQueue::assert_monotonic`])
//!   — scheduling into the past is a bug and fails loudly in debug
//!   builds rather than silently reordering history;
//! * all randomness lives in the seeded medium/fault state; actors get
//!   no entropy source;
//! * the medium runs bounded ([`Medium::retire_consumed`]) by default,
//!   and retirement is proven not to change delivery (PR 2), so memory
//!   behaviour cannot alter results.

use std::any::Any;
use wile_radio::channel::ChannelModel;
use wile_radio::medium::Medium;
use wile_radio::plan::FaultTimeline;
use wile_radio::time::{Duration, Instant};
use wile_radio::EventQueue;
use wile_telemetry::Telemetry;

/// Handle to an actor registered with a [`Kernel`]; stable for the
/// kernel's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ActorId(pub(crate) usize);

impl ActorId {
    /// The actor's slot index (assigned in registration order).
    pub fn index(&self) -> usize {
        self.0
    }
}

/// A simulated role driven by events: a device lifecycle, a gateway, a
/// fault process. Actors never see each other directly — they interact
/// through scheduled events and the shared [`Medium`] exposed on
/// [`Ctx`].
pub trait Actor<E>: 'static {
    /// Handle one event addressed to this actor at simulated time
    /// `now`. Use `ctx` to transmit, schedule follow-ups, consult the
    /// fault timeline, and emit trace events.
    fn on_event(&mut self, now: Instant, ev: E, ctx: &mut Ctx<'_, E>);
}

/// Object-safe shim over [`Actor`] that adds `Any` access without
/// relying on `dyn` trait upcasting (stabilized after our MSRV).
trait ActorObj<E>: 'static {
    fn obj_on_event(&mut self, now: Instant, ev: E, ctx: &mut Ctx<'_, E>);
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

impl<E: 'static, A: Actor<E>> ActorObj<E> for A {
    fn obj_on_event(&mut self, now: Instant, ev: E, ctx: &mut Ctx<'_, E>) {
        self.on_event(now, ev, ctx);
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// An event addressed to one actor.
struct Envelope<E> {
    dst: ActorId,
    ev: E,
}

/// What an actor can reach while handling an event: the shared medium,
/// the fault timeline, scheduling, the air lease, and the telemetry
/// collector.
pub struct Ctx<'a, E> {
    now: Instant,
    self_id: ActorId,
    /// The shared radio medium — transmit, drain inboxes, release
    /// consumed history ([`Medium::release_all`]).
    pub medium: &'a mut Medium,
    /// The kernel's seeded fault timeline, if one was installed. A
    /// public field (not an accessor) so it can be borrowed alongside
    /// [`Ctx::medium`] in one expression.
    pub faults: Option<&'a mut FaultTimeline>,
    /// The kernel's telemetry collector (disabled by default, in which
    /// case every recording call is a single-branch no-op). Public for
    /// the same borrow-splitting reason as [`Ctx::medium`].
    pub telemetry: &'a mut Telemetry,
    queue: &'a mut EventQueue<Envelope<E>>,
    air_lease: &'a mut Instant,
}

impl<E> Ctx<'_, E> {
    /// Simulated time of the event being handled.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// The handling actor's own id.
    pub fn self_id(&self) -> ActorId {
        self.self_id
    }

    /// Schedule `ev` for `dst` at absolute time `at` (≥ now).
    pub fn schedule(&mut self, at: Instant, dst: ActorId, ev: E) {
        self.queue.schedule(at, Envelope { dst, ev });
    }

    /// Send `ev` to `dst` at the current instant. FIFO tie-breaking
    /// guarantees it is handled immediately after the current event
    /// (and any same-instant events sent before it), with nothing later
    /// interleaving — the kernel's "continue synchronously in another
    /// actor" primitive.
    pub fn send(&mut self, dst: ActorId, ev: E) {
        self.schedule(self.now, dst, ev);
    }

    /// Fire time of the next pending event, if any. Drivers use this as
    /// a clear-air guard: only start a multi-transmission exchange when
    /// nothing else is scheduled inside its window.
    pub fn next_event_time(&self) -> Option<Instant> {
        self.queue.peek_time()
    }

    /// Record `(event, value)` attributed to this actor as an `emit`
    /// event in the kernel's run trace (a no-op unless the trace is
    /// enabled).
    pub fn emit(&mut self, event: &'static str, value: u64) {
        self.telemetry
            .trace_emit(self.now, self.self_id.0 as u32, event, value);
    }

    /// Open a sim-time telemetry span on this actor (no-op when
    /// telemetry is disabled). Spans nest per actor.
    pub fn span_enter(&mut self, name: &'static str) {
        self.telemetry
            .span_enter(self.now, self.self_id.0 as u32, name);
    }

    /// Close this actor's innermost telemetry span, recording its
    /// sim-time duration into the `span_ns{span=<name>}` histogram.
    /// Tolerated no-op (returns `None`) when no span is open.
    pub fn span_exit(&mut self) -> Option<(&'static str, u64)> {
        self.telemetry.span_exit(self.now, self.self_id.0 as u32)
    }

    /// Open a sim-time telemetry span attributed to an explicit key
    /// instead of this actor — the hook for actors that manage several
    /// sub-entities (e.g. a cluster sink opening a `lane.down` span per
    /// crashed gateway lane). Keys share the actor-id namespace, so
    /// pick them from a range no actor id reaches (the cluster sink
    /// uses `u32::MAX - lane`).
    pub fn span_enter_for(&mut self, key: u32, name: &'static str) {
        self.telemetry.span_enter(self.now, key, name);
    }

    /// Close the innermost span opened under `key` via
    /// [`Ctx::span_enter_for`]. Tolerated no-op when none is open.
    pub fn span_exit_for(&mut self, key: u32) -> Option<(&'static str, u64)> {
        self.telemetry.span_exit(self.now, key)
    }

    /// Claim the air until `until`: actors that run synchronous
    /// multi-transmission exchanges (e.g. a full WiFi association)
    /// publish their occupancy so peers defer past it instead of
    /// violating the medium's time-ordered transmit contract. The lease
    /// only ever extends.
    pub fn reserve_air(&mut self, until: Instant) {
        if until > *self.air_lease {
            *self.air_lease = until;
            self.telemetry.inc("kernel.air_lease.extends", &[], 1);
        }
    }

    /// Until when the air is currently leased ([`Instant::ZERO`] when
    /// it never was).
    pub fn air_reserved_until(&self) -> Instant {
        *self.air_lease
    }
}

/// A deterministic discrete-event simulation: shared state plus a set
/// of actors, run to event-queue exhaustion.
pub struct Kernel<E> {
    medium: Medium,
    queue: EventQueue<Envelope<E>>,
    faults: Option<FaultTimeline>,
    actors: Vec<Option<Box<dyn ActorObj<E>>>>,
    air_lease: Instant,
    telemetry: Telemetry,
    /// Events dispatched over the kernel's lifetime (tallied always —
    /// one add per step — and published at flush).
    events_dispatched: u64,
    /// Deepest the event queue has ever been.
    queue_high_water: usize,
}

impl<E: 'static> Kernel<E> {
    /// A kernel over a fresh [`Medium`] with the given propagation
    /// model and loss seed.
    ///
    /// The medium starts in bounded mode (`retire_consumed(true)`): a
    /// long fleet run holds O(in-flight) transmissions, not the full
    /// history, provided its poller calls [`Medium::release_all`] — the
    /// transmit-only radios sit at the medium's release mark, and only
    /// that call moves it.
    pub fn new(model: ChannelModel, seed: u64) -> Self {
        let mut medium = Medium::new(model, seed);
        medium.retire_consumed(true);
        let mut queue = EventQueue::new();
        queue.assert_monotonic(true);
        Kernel {
            medium,
            queue,
            faults: None,
            actors: Vec::new(),
            air_lease: Instant::ZERO,
            telemetry: Telemetry::off(),
            events_dispatched: 0,
            queue_high_water: 0,
        }
    }

    /// The shared medium (attach radios here during setup).
    pub fn medium(&self) -> &Medium {
        &self.medium
    }

    /// Mutable access to the shared medium.
    pub fn medium_mut(&mut self) -> &mut Medium {
        &mut self.medium
    }

    /// Install the seeded fault timeline actors see via
    /// [`Ctx::faults`].
    pub fn set_faults(&mut self, faults: FaultTimeline) {
        self.faults = Some(faults);
    }

    /// The telemetry collector (disabled unless a driver installed an
    /// enabled one).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Mutable access to the telemetry collector.
    pub fn telemetry_mut(&mut self) -> &mut Telemetry {
        &mut self.telemetry
    }

    /// Install a telemetry collector (typically [`Telemetry::new`] or
    /// [`Telemetry::with_trace`]) before the run.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Publish the kernel's and medium's internal tallies into the
    /// telemetry registry. Call once, after the run; counters use
    /// absolute `set` semantics so a second flush overwrites rather
    /// than double-counts. No-op while telemetry is disabled.
    pub fn flush_telemetry(&mut self) {
        if !self.telemetry.enabled() {
            return;
        }
        let ms = self.medium.stats();
        let reg = self.telemetry.registry_mut();
        reg.counter_set("kernel.events_dispatched", &[], self.events_dispatched);
        reg.gauge_set("kernel.queue.high_water", &[], self.queue_high_water as i64);
        reg.counter_set("medium.tx_attempts", &[], ms.tx_attempts);
        reg.counter_set("medium.culled_sensitivity", &[], ms.culled_sensitivity);
        reg.counter_set("medium.collision_losses", &[], ms.collision_losses);
        reg.counter_set("medium.per_losses", &[], ms.per_losses);
        reg.counter_set("medium.delivered", &[], ms.delivered);
        reg.counter_set("medium.cache.hits", &[], ms.cache_hits);
        reg.counter_set("medium.cache.misses", &[], ms.cache_misses);
        reg.gauge_set(
            "medium.retained.high_water",
            &[],
            ms.retained_high_water as i64,
        );
        reg.counter_set("medium.retired", &[], self.medium.retired_tx_count());
    }

    /// Register an actor; its [`ActorId`] is its registration ordinal.
    pub fn add_actor<A: Actor<E>>(&mut self, actor: A) -> ActorId {
        self.actors.push(Some(Box::new(actor)));
        ActorId(self.actors.len() - 1)
    }

    /// Take an actor out of the kernel (typically after the run, to
    /// fold its accumulated state into a report). Events still
    /// addressed to it are dropped silently.
    ///
    /// Panics if `id` names a removed actor or a different type.
    pub fn remove_actor<A: Actor<E>>(&mut self, id: ActorId) -> A {
        *self.actors[id.0]
            .take()
            .expect("actor was removed (or is mid-dispatch)")
            .into_any()
            .downcast()
            .expect("actor type mismatch")
    }

    /// Schedule `ev` for `dst` at `at` (setup-time scheduling; actors
    /// use [`Ctx::schedule`]).
    pub fn schedule(&mut self, at: Instant, dst: ActorId, ev: E) {
        self.queue.schedule(at, Envelope { dst, ev });
    }

    /// Schedule a homogeneous event train for `dst` — the i-th event
    /// fires at `start + stride·i` — in one amortized pass over the
    /// queue ([`EventQueue::schedule_batch`]). This is the setup idiom
    /// for staggering a million device wakes across one beacon period:
    /// the train lands in one of the queue's run lanes, whose
    /// reschedules then append in O(1) and never touch the fallback heap
    /// (the queue is run lanes + one fallback heap).
    pub fn schedule_batch(
        &mut self,
        start: Instant,
        stride: Duration,
        dst: ActorId,
        evs: impl IntoIterator<Item = E>,
    ) {
        self.queue.schedule_batch(
            start,
            stride,
            evs.into_iter().map(|ev| Envelope { dst, ev }),
        );
    }

    /// Simulated time of the last dispatched event.
    pub fn now(&self) -> Instant {
        self.queue.now()
    }

    /// Fire one event into its actor. Events addressed to removed
    /// actors are dropped (the dispatch still counts).
    fn dispatch(&mut self, at: Instant, env: Envelope<E>) {
        self.events_dispatched += 1;
        let Some(mut actor) = self.actors[env.dst.0].take() else {
            return;
        };
        let mut ctx = Ctx {
            now: at,
            self_id: env.dst,
            medium: &mut self.medium,
            faults: self.faults.as_mut(),
            telemetry: &mut self.telemetry,
            queue: &mut self.queue,
            air_lease: &mut self.air_lease,
        };
        actor.obj_on_event(at, env.ev, &mut ctx);
        self.actors[env.dst.0] = Some(actor);
    }

    /// Dispatch the next event; false when the queue is empty. Events
    /// addressed to removed actors are dropped (the pop still counts).
    ///
    /// The run loop is this pop → dispatch step: an event stays in
    /// the queue until it fires, so [`Ctx::next_event_time`] is the
    /// queue's own front and exact at every dispatch, and the
    /// high-water mark is read after each one.
    pub fn step(&mut self) -> bool {
        let Some((at, env)) = self.queue.pop() else {
            return false;
        };
        self.dispatch(at, env);
        if self.queue.len() > self.queue_high_water {
            self.queue_high_water = self.queue.len();
        }
        true
    }

    /// Run until the event queue is empty; returns events dispatched.
    pub fn run(&mut self) -> u64 {
        let mut n = 0;
        while self.step() {
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replies to every `n` with `n - 1` until zero, recording each.
    struct Counter {
        peer: Option<ActorId>,
        seen: Vec<(Instant, u32)>,
    }

    impl Actor<u32> for Counter {
        fn on_event(&mut self, now: Instant, ev: u32, ctx: &mut Ctx<'_, u32>) {
            self.seen.push((now, ev));
            ctx.emit("tick", ev as u64);
            if ev > 0 {
                if let Some(peer) = self.peer {
                    ctx.schedule(now + Duration::from_secs(3600), peer, ev - 1);
                }
            }
        }
    }

    #[test]
    fn ping_pong_jumps_sparse_time() {
        let mut k: Kernel<u32> = Kernel::new(ChannelModel::default(), 1);
        // Actor ids are registration ordinals: `a` can name `b` before
        // `b` is registered.
        let a = k.add_actor(Counter {
            peer: Some(ActorId(1)),
            seen: Vec::new(),
        });
        let b = k.add_actor(Counter {
            peer: Some(a),
            seen: Vec::new(),
        });
        assert_eq!(b, ActorId(1));
        k.schedule(Instant::from_secs(1), a, 4);
        // 5 events total even though they span 4+ simulated hours:
        // sparse advancement costs one pop per wake.
        assert_eq!(k.run(), 5);
        assert_eq!(k.now(), Instant::from_secs(1 + 4 * 3600));
        let a = k.remove_actor::<Counter>(a);
        let b = k.remove_actor::<Counter>(b);
        assert_eq!(
            a.seen.iter().map(|&(_, v)| v).collect::<Vec<_>>(),
            [4, 2, 0]
        );
        assert_eq!(b.seen.iter().map(|&(_, v)| v).collect::<Vec<_>>(), [3, 1]);
    }

    /// Echoes each event to a collector at the same instant.
    struct Forwarder {
        to: ActorId,
    }
    impl Actor<u32> for Forwarder {
        fn on_event(&mut self, _now: Instant, ev: u32, ctx: &mut Ctx<'_, u32>) {
            ctx.send(self.to, ev);
        }
    }
    #[derive(Default)]
    struct Collector {
        got: Vec<u32>,
    }
    impl Actor<u32> for Collector {
        fn on_event(&mut self, _now: Instant, ev: u32, _ctx: &mut Ctx<'_, u32>) {
            self.got.push(ev);
        }
    }

    #[test]
    fn same_instant_sends_stay_fifo() {
        let mut k: Kernel<u32> = Kernel::new(ChannelModel::default(), 1);
        let sink = k.add_actor(Collector::default());
        let fwd = k.add_actor(Forwarder { to: sink });
        let t = Instant::from_ms(5);
        for v in 0..50 {
            k.schedule(t, fwd, v);
        }
        k.run();
        let sink = k.remove_actor::<Collector>(sink);
        assert_eq!(sink.got, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn events_to_removed_actors_are_dropped() {
        let mut k: Kernel<u32> = Kernel::new(ChannelModel::default(), 1);
        let sink = k.add_actor(Collector::default());
        k.schedule(Instant::from_ms(1), sink, 7);
        k.schedule(Instant::from_ms(2), sink, 8);
        assert!(k.step());
        let sink_state = k.remove_actor::<Collector>(sink);
        assert_eq!(sink_state.got, [7]);
        // The ms-2 event now addresses a hole; the run drains it.
        assert_eq!(k.run(), 1);
    }

    #[test]
    fn bounded_medium_is_the_default_with_opt_out() {
        // The opt-out was `Kernel::retain_history`, now deleted; only the
        // bounded default remains to check.
        use wile_radio::medium::{RadioConfig, TxParams};
        let mut k: Kernel<u32> = Kernel::new(ChannelModel::default(), 1);
        let a = k.medium_mut().attach(RadioConfig::default());
        let _b = k.medium_mut().attach(RadioConfig {
            position_m: (1.0, 0.0),
            ..Default::default()
        });
        for i in 0..200u64 {
            k.medium_mut().transmit(
                a,
                Instant::from_ms(i),
                TxParams {
                    airtime: Duration::from_us(50),
                    power_dbm: 0.0,
                    min_snr_db: 10.0,
                },
                vec![i as u8],
            );
        }
        k.medium_mut().release_all(Instant::from_secs(1));
        assert!(
            k.medium().retired_tx_count() > 0,
            "bounded by default: history retires"
        );
    }

    #[test]
    fn air_lease_extends_monotonically() {
        struct Leaser {
            saw: Vec<Instant>,
        }
        impl Actor<u32> for Leaser {
            fn on_event(&mut self, now: Instant, ev: u32, ctx: &mut Ctx<'_, u32>) {
                self.saw.push(ctx.air_reserved_until());
                ctx.reserve_air(now + Duration::from_ms(ev as u64));
            }
        }
        let mut k: Kernel<u32> = Kernel::new(ChannelModel::default(), 1);
        let a = k.add_actor(Leaser { saw: Vec::new() });
        k.schedule(Instant::from_ms(0), a, 100);
        k.schedule(Instant::from_ms(10), a, 5); // shorter: lease must not shrink
        k.schedule(Instant::from_ms(20), a, 0);
        k.run();
        let a = k.remove_actor::<Leaser>(a);
        assert_eq!(
            a.saw,
            [Instant::ZERO, Instant::from_ms(100), Instant::from_ms(100)]
        );
    }

    #[test]
    fn log_attributes_entries_to_actors() {
        let mut k: Kernel<u32> = Kernel::new(ChannelModel::default(), 1);
        let a = k.add_actor(Counter {
            peer: None,
            seen: Vec::new(),
        });
        k.set_telemetry(Telemetry::with_trace());
        k.schedule(Instant::from_ms(1), a, 9);
        k.run();
        let trace = k.telemetry().trace();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.events()[0].actor, a.index() as u32);
        assert_eq!(trace.events()[0].value, 9);
    }

    #[test]
    fn kernel_telemetry_counts_dispatch_and_traces_emits() {
        let mut k: Kernel<u32> = Kernel::new(ChannelModel::default(), 1);
        k.set_telemetry(Telemetry::with_trace());
        // Actor ids are registration ordinals: `a` can name `b` before
        // `b` is registered.
        let a = k.add_actor(Counter {
            peer: Some(ActorId(1)),
            seen: Vec::new(),
        });
        let b = k.add_actor(Counter {
            peer: Some(a),
            seen: Vec::new(),
        });
        assert_eq!(b, ActorId(1));
        k.schedule(Instant::from_secs(1), a, 4);
        k.run();
        k.flush_telemetry();
        let reg = k.telemetry().registry();
        assert_eq!(reg.counter("kernel.events_dispatched", &[]), Some(5));
        assert_eq!(reg.gauge("kernel.queue.high_water", &[]).unwrap().last(), 1);
        // Each of the five dispatches emitted one "tick".
        assert_eq!(k.telemetry().trace().len(), 5);
        assert_eq!(k.telemetry().trace().events()[0].name, "tick");
    }

    #[test]
    fn disabled_telemetry_leaves_no_registry_state() {
        let mut k: Kernel<u32> = Kernel::new(ChannelModel::default(), 1);
        let a = k.add_actor(Counter {
            peer: None,
            seen: Vec::new(),
        });
        k.schedule(Instant::from_ms(1), a, 2);
        k.run();
        k.flush_telemetry();
        assert!(k.telemetry().registry().is_empty());
        assert!(k.telemetry().trace().is_empty());
    }
}
