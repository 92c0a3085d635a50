//! Structured run traces: an ordered stream of sim-time events with a
//! JSONL export carrying a schema-versioned header.

use crate::json::Json;
use wile_radio::time::Instant;

/// Schema identifier written into every trace header.
pub(crate) const TRACE_SCHEMA: &str = "wile.run-trace";
/// Schema version written into every trace header; bump on any field
/// change so downstream tooling can refuse traces it doesn't understand.
pub(crate) const TRACE_VERSION: u32 = 1;

/// What kind of moment a trace event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TraceKind {
    /// An actor-emitted `(event, value)` sample (`Ctx::emit`).
    Emit,
    /// A span opened.
    SpanEnter,
    /// A span closed; `value` is the span duration in nanoseconds.
    SpanExit,
}

impl TraceKind {
    /// Stable wire name.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            TraceKind::Emit => "emit",
            TraceKind::SpanEnter => "span_enter",
            TraceKind::SpanExit => "span_exit",
        }
    }
}

/// One trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time of the event.
    pub(crate) at: Instant,
    /// Index of the actor (or lane) the event is attributed to.
    pub actor: u32,
    /// Record kind.
    pub(crate) kind: TraceKind,
    /// Event or span name (static so tracing never allocates per event).
    pub name: &'static str,
    /// Payload: emit value, or span duration in ns for `SpanExit`.
    pub value: u64,
}

/// An append-only event stream recorded during a run.
///
/// Events append strictly in dispatch order, so for a fixed seed the
/// stream is byte-identical across runs. Disabled by default: at metro
/// scale a trace would hold hundreds of millions of events, so callers
/// opt in per run.
#[derive(Debug, Clone, Default)]
pub struct RunTrace {
    events: Vec<TraceEvent>,
    enabled: bool,
}

impl RunTrace {
    /// Turn recording on or off.
    pub(crate) fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Whether events are currently being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Append an event (no-op while disabled).
    pub(crate) fn push(&mut self, ev: TraceEvent) {
        if self.enabled {
            self.events.push(ev);
        }
    }

    /// All recorded events, in dispatch order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Append another trace's events (shard-order merge).
    pub(crate) fn append_from(&mut self, other: &RunTrace) {
        self.events.extend_from_slice(&other.events);
    }

    /// Serialize to JSONL: a schema-versioned header object on line 1,
    /// then one event object per line.
    ///
    /// ```text
    /// {"schema":"wile.run-trace","version":1,"events":2}
    /// {"at_ns":1000,"actor":0,"kind":"emit","name":"tx","value":7}
    /// ...
    /// ```
    pub fn to_jsonl(&self) -> String {
        let mut out = Json::obj()
            .field("schema", Json::str(TRACE_SCHEMA))
            .field("version", Json::int(TRACE_VERSION as u64))
            .field("events", Json::int(self.events.len() as u64))
            .render();
        out.push('\n');
        for ev in &self.events {
            out.push_str(
                &Json::obj()
                    .field("at_ns", Json::int(ev.at.as_nanos()))
                    .field("actor", Json::int(ev.actor as u64))
                    .field("kind", Json::str(ev.kind.as_str()))
                    .field("name", Json::str(ev.name))
                    .field("value", Json::int(ev.value))
                    .render(),
            );
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn ev(at_us: u64, actor: u32, kind: TraceKind, name: &'static str, value: u64) -> TraceEvent {
        TraceEvent {
            at: Instant::from_us(at_us),
            actor,
            kind,
            name,
            value,
        }
    }

    #[test]
    fn disabled_by_default() {
        let mut t = RunTrace::default();
        t.push(ev(1, 0, TraceKind::Emit, "tx", 1));
        assert!(t.is_empty());
        t.set_enabled(true);
        t.push(ev(1, 0, TraceKind::Emit, "tx", 1));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn jsonl_header_and_lines_parse() {
        let mut t = RunTrace::default();
        t.set_enabled(true);
        t.push(ev(5, 2, TraceKind::Emit, "poll", 3));
        t.push(ev(9, 2, TraceKind::SpanExit, "cycle", 4_000));
        let text = t.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        let header = json::parse(lines[0]).unwrap();
        assert_eq!(header.get("schema").unwrap().as_str(), Some(TRACE_SCHEMA));
        assert_eq!(header.get("version").unwrap().as_f64(), Some(1.0));
        assert_eq!(header.get("events").unwrap().as_f64(), Some(2.0));
        let line = json::parse(lines[2]).unwrap();
        assert_eq!(line.get("kind").unwrap().as_str(), Some("span_exit"));
        assert_eq!(line.get("at_ns").unwrap().as_f64(), Some(9_000.0));
        assert_eq!(line.get("value").unwrap().as_f64(), Some(4_000.0));
    }
}
