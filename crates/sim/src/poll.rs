//! The poll train: when a gateway or cluster sink drains.
//!
//! Every polled run in the workspace — the fleet gateway, the metro,
//! chaos and mixed cluster sinks, the fault campaign's gateway, and the
//! `wile-gatewayd` replay core — drains on one schedule. The first poll
//! is due at `ZERO + every`; a poll at `t` is followed by one at
//! `min(t + every, horizon)` while `t` is short of the horizon; so the
//! last poll lands exactly on the horizon. Poll instants are aggregation
//! batch boundaries, so the replay core reproduces an in-process run
//! only because both draw their instants from this one definition.

use wile_radio::time::{Duration, Instant};

/// A poll schedule: a fixed cadence clamped onto a final horizon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PollTrain {
    every: Duration,
    horizon: Instant,
}

impl PollTrain {
    /// Poll every `every`, finishing exactly on `horizon`.
    ///
    /// # Panics
    /// If `every` is zero (the train would never advance).
    pub fn new(every: Duration, horizon: Instant) -> Self {
        assert!(every.as_nanos() > 0, "poll cadence must be positive");
        PollTrain { every, horizon }
    }

    /// The first poll: `ZERO + every`, even past a degenerate horizon
    /// (every run polls at least once).
    pub fn first(&self) -> Instant {
        Instant::ZERO + self.every
    }

    /// The poll after one at `t`, or `None` once `t` has reached the
    /// horizon.
    pub fn next(&self, t: Instant) -> Option<Instant> {
        // Compare the gap rather than form `t + every`, which can pass
        // the end of time when a header declares a huge cadence.
        (t < self.horizon).then(|| {
            if self.horizon.since(t) <= self.every {
                self.horizon
            } else {
                t + self.every
            }
        })
    }

    /// The final poll instant.
    pub fn horizon(&self) -> Instant {
        self.horizon
    }

    /// Every poll instant, in order.
    pub fn instants(self) -> impl Iterator<Item = Instant> {
        std::iter::successors(Some(self.first()), move |&t| self.next(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_poll_lands_on_the_horizon() {
        // every=5s, horizon=12s → polls at 5, 10, 12.
        let train = PollTrain::new(Duration::from_secs(5), Instant::from_secs(12));
        let polls: Vec<Instant> = train.instants().collect();
        assert_eq!(
            polls,
            [5, 10, 12].map(Instant::from_secs),
            "the final poll is clamped onto the horizon"
        );
        assert_eq!(train.next(Instant::from_secs(12)), None);
    }

    #[test]
    fn a_horizon_on_the_cadence_is_not_polled_twice() {
        let train = PollTrain::new(Duration::from_secs(5), Instant::from_secs(15));
        assert_eq!(train.instants().count(), 3);
    }

    #[test]
    fn a_cadence_past_the_end_of_time_clamps_onto_the_horizon() {
        let every = Duration::from_nanos((1 << 63) + 1);
        let train = PollTrain::new(every, Instant::from_nanos(u64::MAX));
        let polls: Vec<Instant> = train.instants().collect();
        assert_eq!(
            polls,
            [Instant::ZERO + every, Instant::from_nanos(u64::MAX)],
            "the second poll would overflow if formed as t + every"
        );
    }

    #[test]
    fn a_degenerate_horizon_still_gets_one_poll() {
        let train = PollTrain::new(Duration::from_secs(5), Instant::from_secs(2));
        let polls: Vec<Instant> = train.instants().collect();
        assert_eq!(polls, [Instant::from_secs(5)]);
    }

    #[test]
    #[should_panic(expected = "poll cadence must be positive")]
    fn a_zero_cadence_is_refused() {
        PollTrain::new(Duration::from_nanos(0), Instant::from_secs(1));
    }
}
