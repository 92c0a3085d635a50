//! Timestamped state-transition traces.
//!
//! The trace is the ground truth the simulated multimeter samples: a
//! sequence of `(instant, state)` transitions plus named phase marks
//! (the paper annotates Figure 3 with "MC/WiFi init",
//! "Probe/Auth./Associate", "DHCP/ARP", "Tx", "Sleep").

use crate::power::PowerState;
use wile_radio::time::Instant;

/// One maximal interval spent in a single state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Interval start.
    pub start: Instant,
    /// Interval end (start of the next state, or the trace end).
    pub end: Instant,
    /// The state occupied.
    pub state: PowerState,
}

/// A named phase annotation covering `[start, end)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Label as it appears in the figure legend.
    pub label: String,
    /// Phase start.
    pub start: Instant,
    /// Phase end.
    pub end: Instant,
}

/// An append-only record of a device's power-state history.
#[derive(Debug, Clone, Default)]
pub struct StateTrace {
    transitions: Vec<(Instant, PowerState)>,
    phases: Vec<Phase>,
    open_phase: Option<(String, Instant)>,
}

impl StateTrace {
    /// An empty trace.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Record entering `state` at `at`. Timestamps must not decrease.
    pub(crate) fn push(&mut self, at: Instant, state: PowerState) {
        if let Some(&(last, prev)) = self.transitions.last() {
            assert!(at >= last, "trace must be appended in time order");
            if prev == state {
                return; // coalesce no-op transitions
            }
        }
        self.transitions.push((at, state));
    }

    /// Open a named phase at `at`, closing any phase already open.
    pub(crate) fn begin_phase(&mut self, at: Instant, label: &str) {
        self.end_phase(at);
        self.open_phase = Some((label.to_string(), at));
    }

    /// Close the currently open phase at `at` (no-op when none is open).
    pub(crate) fn end_phase(&mut self, at: Instant) {
        if let Some((label, start)) = self.open_phase.take() {
            self.phases.push(Phase {
                label,
                start,
                end: at,
            });
        }
    }

    /// The recorded phases (closed ones only).
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// The raw transition list.
    pub fn transitions(&self) -> &[(Instant, PowerState)] {
        &self.transitions
    }

    /// The state at time `at` (`None` before the first transition).
    pub fn state_at(&self, at: Instant) -> Option<PowerState> {
        match self.transitions.binary_search_by(|&(t, _)| t.cmp(&at)) {
            Ok(i) => Some(self.transitions[i].1),
            Err(0) => None,
            Err(i) => Some(self.transitions[i - 1].1),
        }
    }

    /// Iterate maximal same-state spans, with the final span closed at
    /// `end` (states after `end` are ignored).
    pub fn spans(&self, end: Instant) -> Vec<Span> {
        let mut out = Vec::new();
        for w in self.transitions.windows(2) {
            let (t0, s) = w[0];
            let (t1, _) = w[1];
            if t0 >= end {
                break;
            }
            out.push(Span {
                start: t0,
                end: t1.max(t0).min_end(end),
                state: s,
            });
        }
        if let Some(&(t, s)) = self.transitions.last() {
            if t < end {
                out.push(Span {
                    start: t,
                    end,
                    state: s,
                });
            }
        }
        out.retain(|s| s.end > s.start);
        out
    }
}

trait MinEnd {
    fn min_end(self, cap: Instant) -> Instant;
}
impl MinEnd for Instant {
    fn min_end(self, cap: Instant) -> Instant {
        if self < cap {
            self
        } else {
            cap
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wile_radio::time::Duration;

    fn t(ms: u64) -> Instant {
        Instant::from_ms(ms)
    }

    #[test]
    fn spans_partition_the_timeline() {
        let mut tr = StateTrace::new();
        tr.push(t(0), PowerState::DeepSleep);
        tr.push(t(100), PowerState::Active { mhz: 80 });
        tr.push(t(150), PowerState::RadioTx { power_dbm: 0.0 });
        tr.push(t(151), PowerState::DeepSleep);
        let spans = tr.spans(t(1000));
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].end.since(spans[0].start), Duration::from_ms(100));
        assert_eq!(spans[3].end, t(1000));
        // Contiguous.
        for w in spans.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn state_at_queries() {
        let mut tr = StateTrace::new();
        tr.push(t(10), PowerState::Active { mhz: 80 });
        tr.push(t(20), PowerState::DeepSleep);
        assert_eq!(tr.state_at(t(5)), None);
        assert_eq!(tr.state_at(t(10)), Some(PowerState::Active { mhz: 80 }));
        assert_eq!(tr.state_at(t(15)), Some(PowerState::Active { mhz: 80 }));
        assert_eq!(tr.state_at(t(20)), Some(PowerState::DeepSleep));
        assert_eq!(tr.state_at(t(500)), Some(PowerState::DeepSleep));
    }

    #[test]
    fn duplicate_states_coalesce() {
        let mut tr = StateTrace::new();
        tr.push(t(0), PowerState::DeepSleep);
        tr.push(t(5), PowerState::DeepSleep);
        assert_eq!(tr.transitions().len(), 1);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn time_order_enforced() {
        let mut tr = StateTrace::new();
        tr.push(t(10), PowerState::DeepSleep);
        tr.push(t(5), PowerState::LightSleep);
    }

    #[test]
    fn phases_open_close() {
        let mut tr = StateTrace::new();
        tr.begin_phase(t(0), "MC/WiFi init");
        tr.begin_phase(t(100), "Tx");
        tr.end_phase(t(110));
        assert_eq!(tr.phases().len(), 2);
        assert_eq!(tr.phases()[0].label, "MC/WiFi init");
        assert_eq!(tr.phases()[0].end, t(100));
        assert_eq!(tr.phases()[1].end, t(110));
    }

    #[test]
    fn spans_capped_by_end() {
        let mut tr = StateTrace::new();
        tr.push(t(0), PowerState::DeepSleep);
        tr.push(t(50), PowerState::Active { mhz: 80 });
        let spans = tr.spans(t(20));
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].end, t(20));
    }

    #[test]
    fn empty_trace_behaviour() {
        let tr = StateTrace::new();
        assert!(tr.spans(t(10)).is_empty());
        assert_eq!(tr.state_at(t(10)), None);
    }
}
