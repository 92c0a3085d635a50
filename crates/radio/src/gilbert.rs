//! Gilbert–Elliott two-state bursty loss model.
//!
//! The Bernoulli injector in [`crate::fault`] draws every frame
//! independently, but 2.4 GHz losses are not independent: microwave
//! ovens, frequency-hopping Bluetooth, and Wi-Fi data bursts produce
//! *runs* of destroyed frames. The classic two-state Markov model
//! (Gilbert 1960, Elliott 1963) captures exactly that: a **Good** state
//! with low loss and a **Bad** state with high loss, with geometric
//! dwell times in each.
//!
//! The chain here is discrete-time with a configurable step length, so
//! the burstiness is expressed in *time* rather than in frames: two
//! repeats of a beacon 5 ms apart see nearly the same channel state,
//! while messages a period apart see nearly independent states. That is
//! the property that makes fixed k-repetition the wrong tool under
//! bursts — and what the adaptive policy in `wile::reliability` is
//! measured against.
//!
//! Determinism: the chain is seeded and advanced only by explicit
//! calls, so a run is reproducible frame-for-frame.

use crate::time::{Duration, Instant};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which state the channel is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelState {
    /// Low-loss state.
    Good,
    /// High-loss (burst) state.
    Bad,
}

/// The two-state bursty loss channel.
#[derive(Debug, Clone)]
pub struct GilbertElliott {
    /// Per-step probability of leaving Good for Bad.
    pub p_enter: f64,
    /// Per-step probability of leaving Bad for Good.
    pub p_exit: f64,
    /// Frame loss probability while Good.
    pub loss_good: f64,
    /// Frame loss probability while Bad.
    pub loss_bad: f64,
    /// Length of one chain step.
    step: Duration,
    state: ChannelState,
    /// The chain has been advanced up to this instant.
    advanced_to: Instant,
    rng: StdRng,
}

impl GilbertElliott {
    /// A model with explicit per-step transition and per-state loss
    /// probabilities. `step` is the chain's time resolution; dwell
    /// times are geometric with means `step / p_enter` (Good) and
    /// `step / p_exit` (Bad).
    pub fn new(
        p_enter: f64,
        p_exit: f64,
        loss_good: f64,
        loss_bad: f64,
        step: Duration,
        seed: u64,
    ) -> Self {
        for p in [p_enter, p_exit, loss_good, loss_bad] {
            assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        }
        assert!(
            p_enter > 0.0 && p_exit > 0.0,
            "absorbing states make the stationary distribution degenerate"
        );
        assert!(step > Duration::ZERO, "zero-length chain step");
        let mut rng = StdRng::seed_from_u64(seed);
        // Start from the stationary distribution so statistics hold
        // from the first frame, not only asymptotically.
        let pi_bad = p_enter / (p_enter + p_exit);
        let state = if rng.gen_bool(pi_bad) {
            ChannelState::Bad
        } else {
            ChannelState::Good
        };
        GilbertElliott {
            p_enter,
            p_exit,
            loss_good,
            loss_bad,
            step,
            state,
            advanced_to: Instant::ZERO,
            rng,
        }
    }

    /// The classic Gilbert model: lossless Good state, total loss in
    /// the Bad state, with the given mean dwell times.
    pub fn from_dwell_times(good_dwell: Duration, bad_dwell: Duration, seed: u64) -> Self {
        // 10 ms resolution unless the dwells themselves are shorter.
        let step = Duration::from_ms(10)
            .min(good_dwell)
            .min(bad_dwell)
            .max(Duration::from_us(100));
        let p_enter = (step.as_nanos() as f64 / good_dwell.as_nanos() as f64).min(1.0);
        let p_exit = (step.as_nanos() as f64 / bad_dwell.as_nanos() as f64).min(1.0);
        GilbertElliott::new(p_enter, p_exit, 0.0, 1.0, step, seed)
    }

    /// Current state (without advancing the chain).
    pub fn state(&self) -> ChannelState {
        self.state
    }

    /// Stationary probability of being in the Bad state:
    /// `p_enter / (p_enter + p_exit)`.
    pub fn stationary_bad(&self) -> f64 {
        self.p_enter / (self.p_enter + self.p_exit)
    }

    /// Closed-form long-run frame loss rate:
    /// `π_G·loss_good + π_B·loss_bad`.
    pub fn stationary_loss(&self) -> f64 {
        let pi_bad = self.stationary_bad();
        (1.0 - pi_bad) * self.loss_good + pi_bad * self.loss_bad
    }

    /// Advance the chain one step and report whether a frame sent in
    /// the *new* state is lost. This is the frame-clocked interface the
    /// stationary-statistics property test uses.
    pub fn next_frame(&mut self) -> bool {
        self.step_once();
        self.sample_loss()
    }

    /// Advance the chain to `at` (whole elapsed steps) and report
    /// whether a frame arriving at `at` is lost. Time-clocked: frames
    /// close together in time see correlated states.
    pub fn frame_lost(&mut self, at: Instant) -> bool {
        if at > self.advanced_to {
            let steps = at.since(self.advanced_to).as_nanos() / self.step.as_nanos();
            // Cap the walk: beyond ~64 mixing times the state is
            // indistinguishable from a fresh stationary draw.
            let mixing_cap = (64.0 / self.p_enter.min(self.p_exit)).ceil() as u64;
            for _ in 0..steps.min(mixing_cap) {
                self.step_once();
            }
            self.advanced_to += Duration::from_nanos(steps * self.step.as_nanos());
        }
        self.sample_loss()
    }

    fn step_once(&mut self) {
        let flip = match self.state {
            ChannelState::Good => self.rng.gen_bool(self.p_enter),
            ChannelState::Bad => self.rng.gen_bool(self.p_exit),
        };
        if flip {
            self.state = match self.state {
                ChannelState::Good => ChannelState::Bad,
                ChannelState::Bad => ChannelState::Good,
            };
        }
    }

    fn sample_loss(&mut self) -> bool {
        let p = match self.state {
            ChannelState::Good => self.loss_good,
            ChannelState::Bad => self.loss_bad,
        };
        p > 0.0 && self.rng.gen_bool(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stationary_loss_closed_form() {
        let g = GilbertElliott::new(0.1, 0.4, 0.01, 0.9, Duration::from_ms(10), 1);
        let pi_bad = 0.1 / 0.5;
        let want = 0.8 * 0.01 + pi_bad * 0.9;
        assert!((g.stationary_loss() - want).abs() < 1e-12);
    }

    #[test]
    fn losses_come_in_bursts() {
        // Mean run length of losses must exceed i.i.d.'s at the same
        // average rate: that is the whole point of the model.
        let mut g =
            GilbertElliott::from_dwell_times(Duration::from_ms(900), Duration::from_ms(100), 7);
        let outcomes: Vec<bool> = (0..20_000).map(|_| g.next_frame()).collect();
        let loss_rate = outcomes.iter().filter(|&&l| l).count() as f64 / outcomes.len() as f64;
        assert!((loss_rate - 0.1).abs() < 0.03, "loss rate {loss_rate}");
        // Mean loss-run length: i.i.d. at 10 % would give ~1.11.
        let mut runs = Vec::new();
        let mut cur = 0usize;
        for &l in &outcomes {
            if l {
                cur += 1;
            } else if cur > 0 {
                runs.push(cur);
                cur = 0;
            }
        }
        let mean_run = runs.iter().sum::<usize>() as f64 / runs.len() as f64;
        assert!(mean_run > 3.0, "mean run {mean_run} — not bursty");
    }

    #[test]
    fn time_clocked_correlation() {
        // Two frames 1 ms apart agree far more often than two frames
        // 10 s apart.
        let agreement = |gap: Duration| {
            let mut g =
                GilbertElliott::from_dwell_times(Duration::from_ms(500), Duration::from_ms(500), 3);
            let mut t = Instant::ZERO;
            let mut agree = 0;
            let n = 2_000;
            for _ in 0..n {
                t += Duration::from_secs(30); // decorrelate pairs
                let a = g.frame_lost(t);
                let b = g.frame_lost(t + gap);
                if a == b {
                    agree += 1;
                }
            }
            agree as f64 / n as f64
        };
        let close = agreement(Duration::from_ms(1));
        let far = agreement(Duration::from_secs(10));
        assert!(close > 0.95, "close {close}");
        assert!(far < 0.8, "far {far}");
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut g = GilbertElliott::new(0.05, 0.2, 0.0, 1.0, Duration::from_ms(5), seed);
            (0..500).map(|_| g.next_frame()).collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    #[should_panic]
    fn rejects_absorbing_chain() {
        GilbertElliott::new(0.0, 0.5, 0.0, 1.0, Duration::from_ms(1), 0);
    }
}
