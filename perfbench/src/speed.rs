//! The host-speed reference the end-to-end times are reported against.
//!
//! The benchmark's shared host runs the workloads at two or three
//! speeds in spells that last from a fraction of a second to minutes: a
//! `metro-dense` poll cycle takes 26 ms in a fast spell and 42 ms in a
//! slow one, and whole invocations moved by a quarter between minutes.
//! No statistic inside one invocation removes that. A short sort of
//! random numbers, the benchmark's own work, slows in step with the
//! workloads (a compute loop and a pointer chase do not), so a [`Clock`]
//! runs such a unit at every boundary of a timed region's stretches and
//! reports each stretch at the units' nominal speed:
//! `host time × NOMINAL_S / unit time`.
//!
//! The units run between the program's calls, never inside a stretch,
//! and their own time is in no stretch. They do not touch the program's
//! data, so a change to the program moves the reported times in full.

use std::hint::black_box;
use std::time::Instant as WallInstant;

/// Numbers sorted by one unit: 16 KiB, so a unit stays in the core's
/// first-level cache whatever the program left there.
const LEN: usize = 4096;

/// Host seconds one unit is taken to last: times are reported at this
/// speed. It is about a unit's time on the 2-core host in its fast
/// spells.
pub const NOMINAL_S: f64 = 70e-6;

/// Times a region stretch by stretch, with a reference unit at each
/// boundary.
pub struct Clock {
    buf: Vec<u32>,
    /// The xorshift state that fills the buffer; it carries over between
    /// units, so each unit sorts new numbers.
    x: u64,
    /// When the current stretch began (the end of the unit before it),
    /// and that unit's host seconds.
    last: (WallInstant, f64),
    host_s: f64,
    nominal_s: f64,
}

impl Clock {
    /// Run a unit and start the first stretch.
    pub fn start() -> Self {
        let mut clock = Clock {
            buf: Vec::with_capacity(LEN),
            x: 0x9e37_79b9_7f4a_7c15,
            last: (WallInstant::now(), 0.0),
            host_s: 0.0,
            nominal_s: 0.0,
        };
        let unit_s = clock.unit();
        clock.last = (WallInstant::now(), unit_s);
        clock
    }

    /// Fill the buffer with random numbers and sort it; returns the
    /// host seconds this took.
    fn unit(&mut self) -> f64 {
        let t0 = WallInstant::now();
        self.buf.clear();
        for _ in 0..LEN {
            self.x ^= self.x << 13;
            self.x ^= self.x >> 7;
            self.x ^= self.x << 17;
            self.buf.push(self.x as u32);
        }
        self.buf.sort_unstable();
        black_box(&self.buf);
        t0.elapsed().as_secs_f64()
    }

    /// End the current stretch, run a unit, and start the next stretch.
    /// Returns the ended stretch's seconds at the nominal speed of the
    /// units on either side of it.
    pub fn lap(&mut self) -> f64 {
        let end = WallInstant::now();
        let unit_s = self.unit();
        let host_s = (end - self.last.0).as_secs_f64();
        let nominal_s = host_s * NOMINAL_S / ((self.last.1 + unit_s) / 2.0);
        self.last = (WallInstant::now(), unit_s);
        self.host_s += host_s;
        self.nominal_s += nominal_s;
        nominal_s
    }

    /// Host seconds of the stretches ended so far.
    pub fn host_s(&self) -> f64 {
        self.host_s
    }

    /// Seconds of the stretches ended so far, at the nominal speed.
    pub fn nominal_s(&self) -> f64 {
        self.nominal_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laps_add_up_and_leave_the_units_out() {
        let t0 = WallInstant::now();
        let mut clock = Clock::start();
        let laps: Vec<f64> = (0..3).map(|_| clock.lap()).collect();
        assert!(laps.iter().all(|&s| s > 0.0));
        assert_eq!(clock.nominal_s(), laps.iter().sum::<f64>());
        // Four units ran; the stretches between them hold almost nothing.
        assert!(clock.host_s() < t0.elapsed().as_secs_f64() / 4.0);
    }
}
