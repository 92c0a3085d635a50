//! The air-facing context every backend primitive executes against.

use wile_radio::medium::Medium;
use wile_radio::time::Instant;
use wile_telemetry::Telemetry;

/// The air-facing context a primitive executes against.
///
/// Backends are deliberately *not* coupled to the `wile-sim` kernel:
/// an actor splits its `Ctx` into this borrow bundle (medium +
/// telemetry are disjoint public fields), and non-kernel callers (the
/// differential oracles, unit tests) construct one directly around a
/// bare [`Medium`].
pub struct AirCtx<'a> {
    /// The shared air.
    pub medium: &'a mut Medium,
    /// Current sim time — primitives may only touch the air at or
    /// after this instant (the medium enforces global transmit order).
    pub now: Instant,
    /// Telemetry actor key for the `mac.request` span (the issuing
    /// device's ordinal is the natural choice).
    pub actor: u32,
    /// Per-primitive counters and the request span land here.
    pub telemetry: &'a mut Telemetry,
}

impl<'a> AirCtx<'a> {
    /// An `AirCtx` with telemetry disabled, for oracle/test callers.
    pub fn bare(medium: &'a mut Medium, now: Instant, telemetry: &'a mut Telemetry) -> Self {
        AirCtx {
            medium,
            now,
            actor: 0,
            telemetry,
        }
    }

    /// Count a `*.request` and open the `mac.request` sim-time span.
    pub(crate) fn begin(&mut self, counter: &'static str) {
        self.telemetry.inc(counter, &[], 1);
        self.telemetry
            .span_enter(self.now, self.actor, "mac.request");
    }

    /// Count a `*.confirm` and close the span at `done` — the instant
    /// the exchange finished on the air, so the span measures what the
    /// air did, not just what the app asked.
    pub(crate) fn finish(&mut self, counter: &'static str, done: Instant) {
        self.telemetry.inc(counter, &[], 1);
        self.telemetry.span_exit(done.max(self.now), self.actor);
    }
}
