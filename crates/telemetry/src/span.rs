//! Sim-time spans: nestable enter/exit intervals attributed to an
//! actor or lane.
//!
//! Spans are stamped with *simulated* time, so their durations are
//! deterministic and belong in the deterministic snapshot (unlike
//! wall-clock profiling, which lives in [`crate::prof`]). Each actor
//! owns an independent stack, so spans nest per actor and interleave
//! freely across actors.

use std::collections::HashMap;

use wile_radio::time::Instant;

/// Per-actor open-span stacks.
///
/// The map is only ever indexed by a single actor (never iterated), so
/// `HashMap` iteration order can't leak into any deterministic output.
#[derive(Debug, Clone, Default)]
pub(crate) struct SpanTracker {
    open: HashMap<u32, Vec<(&'static str, Instant)>>,
}

impl SpanTracker {
    /// Open a span named `name` on `actor` at sim time `at`.
    pub(crate) fn enter(&mut self, actor: u32, name: &'static str, at: Instant) {
        self.open.entry(actor).or_default().push((name, at));
    }

    /// Close the innermost open span on `actor`, returning its name and
    /// duration in nanoseconds. Returns `None` (and records nothing) if
    /// the actor has no open span — a tolerated no-op so drivers can
    /// close-if-open at cycle boundaries.
    pub(crate) fn exit(&mut self, actor: u32, at: Instant) -> Option<(&'static str, u64)> {
        let (name, opened_at) = self.open.get_mut(&actor)?.pop()?;
        let dur_ns = at.since(opened_at).as_nanos();
        Some((name, dur_ns))
    }

    /// Number of spans currently open on `actor`.
    pub(crate) fn depth(&self, actor: u32) -> usize {
        self.open.get(&actor).map_or(0, Vec::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_per_actor() {
        let mut t = SpanTracker::default();
        t.enter(1, "outer", Instant::from_ms(10));
        t.enter(1, "inner", Instant::from_ms(12));
        t.enter(2, "other", Instant::from_ms(11));
        assert_eq!(t.depth(1), 2);
        let (name, dur) = t.exit(1, Instant::from_ms(13)).unwrap();
        assert_eq!(name, "inner");
        assert_eq!(dur, 1_000_000);
        let (name, dur) = t.exit(1, Instant::from_ms(20)).unwrap();
        assert_eq!(name, "outer");
        assert_eq!(dur, 10_000_000);
        assert_eq!(t.exit(1, Instant::from_ms(21)), None);
        assert_eq!(t.depth(2), 1);
    }
}
