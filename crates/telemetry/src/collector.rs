//! The per-run collector: one owner for registry + trace + open spans.
//!
//! A [`Telemetry`] value is threaded through a kernel run (or a worker
//! cell) and later merged into a parent collector in deterministic
//! (shard/worker-index) order. Disabled collectors make every recording
//! call a single-branch no-op, which is what the telemetry-off arm of
//! the differential test relies on.

use wile_radio::time::Instant;

use crate::registry::{Label, Registry};
use crate::report::TelemetryReport;
use crate::span::SpanTracker;
use crate::trace::{RunTrace, TraceEvent, TraceKind};

/// Collects metrics, trace events, and spans for one run.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    enabled: bool,
    registry: Registry,
    trace: RunTrace,
    spans: SpanTracker,
}

impl Telemetry {
    /// A disabled collector: every recording call is a no-op.
    pub fn off() -> Self {
        Self::default()
    }

    /// An enabled collector (trace still off — opt in separately, the
    /// event stream is the one unbounded-memory part of telemetry).
    pub fn new() -> Self {
        Telemetry {
            enabled: true,
            ..Self::default()
        }
    }

    /// An enabled collector that also records the event trace.
    pub fn with_trace() -> Self {
        let mut t = Telemetry::new();
        t.trace.set_enabled(true);
        t
    }

    /// Whether this collector records anything.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Enable or disable the event trace (independent of metrics).
    pub fn set_trace_enabled(&mut self, on: bool) {
        self.trace.set_enabled(on);
    }

    /// The metric registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Mutable access to the metric registry (flush paths).
    pub fn registry_mut(&mut self) -> &mut Registry {
        &mut self.registry
    }

    /// The recorded event trace.
    pub fn trace(&self) -> &RunTrace {
        &self.trace
    }

    /// Add `n` to a counter (no-op while disabled).
    pub fn inc(&mut self, name: &'static str, labels: &[Label], n: u64) {
        if self.enabled {
            self.registry.inc(name, labels, n);
        }
    }

    /// Record a histogram observation (no-op while disabled).
    pub fn observe(&mut self, name: &'static str, labels: &[Label], v: u64) {
        if self.enabled {
            self.registry.observe(name, labels, v);
        }
    }

    /// Record an actor-emitted `(event, value)` sample into the trace.
    pub fn trace_emit(&mut self, at: Instant, actor: u32, name: &'static str, value: u64) {
        if self.enabled {
            self.trace.push(TraceEvent {
                at,
                actor,
                kind: TraceKind::Emit,
                name,
                value,
            });
        }
    }

    /// Open a span on `actor`; records a trace event and counts it.
    pub fn span_enter(&mut self, at: Instant, actor: u32, name: &'static str) {
        if !self.enabled {
            return;
        }
        self.spans.enter(actor, name, at);
        self.trace.push(TraceEvent {
            at,
            actor,
            kind: TraceKind::SpanEnter,
            name,
            value: self.spans.depth(actor) as u64,
        });
    }

    /// Close the innermost span on `actor`: observes its duration into
    /// the `span_ns{span=<name>}` histogram and traces the exit.
    /// Returns the closed span's name and duration in ns.
    pub fn span_exit(&mut self, at: Instant, actor: u32) -> Option<(&'static str, u64)> {
        if !self.enabled {
            return None;
        }
        let (name, dur_ns) = self.spans.exit(actor, at)?;
        self.registry
            .observe("span_ns", &[("span", name.into())], dur_ns);
        self.trace.push(TraceEvent {
            at,
            actor,
            kind: TraceKind::SpanExit,
            name,
            value: dur_ns,
        });
        Some((name, dur_ns))
    }

    /// Fold a child collector in: registries merge instrument-wise,
    /// traces append. Call in shard/worker-index order so trace event
    /// order (the only order-sensitive stream) is reproducible.
    pub fn merge_from(&mut self, other: &Telemetry) {
        if !self.enabled {
            return;
        }
        self.registry.merge_from(&other.registry);
        self.trace.append_from(&other.trace);
    }

    /// Snapshot the deterministic state into a report.
    pub fn report(&self) -> TelemetryReport {
        TelemetryReport::from_telemetry(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_collector_records_nothing() {
        let mut t = Telemetry::off();
        t.inc("c", &[], 1);
        t.observe("h", &[], 2);
        t.span_enter(Instant::ZERO, 0, "s");
        assert!(t.span_exit(Instant::from_ms(1), 0).is_none());
        t.trace_emit(Instant::ZERO, 0, "e", 4);
        assert!(t.registry().is_empty());
        assert!(t.trace().is_empty());
    }

    #[test]
    fn span_durations_land_in_histogram() {
        let mut t = Telemetry::with_trace();
        t.span_enter(Instant::from_ms(5), 7, "cycle");
        let (name, dur) = t.span_exit(Instant::from_ms(9), 7).unwrap();
        assert_eq!(name, "cycle");
        assert_eq!(dur, 4_000_000);
        let h = t
            .registry()
            .histogram("span_ns", &[("span", "cycle".into())])
            .unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 4_000_000);
        assert_eq!(t.trace().len(), 2);
    }

    #[test]
    fn merge_folds_registry_and_trace() {
        let mut parent = Telemetry::with_trace();
        parent.inc("c", &[], 1);
        let mut child = Telemetry::with_trace();
        child.inc("c", &[], 2);
        child.trace_emit(Instant::ZERO, 1, "e", 9);
        parent.merge_from(&child);
        assert_eq!(parent.registry().counter("c", &[]), Some(3));
        assert_eq!(parent.trace().len(), 1);
    }
}
