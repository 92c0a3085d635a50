//! Medium-level counters and their public snapshot.
//!
//! The medium's receive paths take `&self` (delivery modelling is
//! logically read-only), so the live tallies sit in `Cell`s; callers
//! see only the plain [`MediumStats`] snapshot. Counting is always on —
//! a handful of integer increments per frame is far below measurement
//! noise even on the metro hot path — and purely observational, so
//! behaviour with and without a consumer attached is identical.

use std::cell::Cell;

/// A point-in-time snapshot of the medium's internal counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MediumStats {
    /// Frames offered to the medium (`transmit` calls).
    pub tx_attempts: u64,
    /// Receptions culled because the arrival was below the receiver's
    /// sensitivity floor. Two parts: a drain counts each arrival it
    /// computes below the floor, and a pair provably beyond the
    /// sensitivity horizon is counted when the transmission is filed —
    /// at transmit, for each listener whose cover square holds the
    /// sender's cell, or when a listener registers, for the retained
    /// log from its cursor on (see [`crate::Medium::listen`]). A
    /// transmission a listener skips ([`crate::Medium::release_all`]) may
    /// so count as culled for it without ever being drained.
    pub culled_sensitivity: u64,
    /// Receptions destroyed by an overlapping frame within the capture
    /// margin.
    pub collision_losses: u64,
    /// Receptions lost to the SNR-derived packet error rate roll.
    pub per_losses: u64,
    /// Frames actually delivered into an inbox.
    pub delivered: u64,
    /// Link-budget cache hits in `rx_power`.
    pub cache_hits: u64,
    /// Link-budget cache misses (fresh path-loss computations).
    pub cache_misses: u64,
    /// High-water mark of retained (unretired) transmissions.
    pub retained_high_water: u64,
}

/// Interior-mutable tallies owned by the medium.
#[derive(Debug, Clone, Default)]
pub(crate) struct MediumCounters {
    pub(crate) culled_sensitivity: Cell<u64>,
    pub(crate) collision_losses: Cell<u64>,
    pub(crate) per_losses: Cell<u64>,
    pub(crate) delivered: Cell<u64>,
    pub(crate) cache_hits: Cell<u64>,
    pub(crate) cache_misses: Cell<u64>,
    pub(crate) retained_high_water: Cell<u64>,
}

impl MediumCounters {
    pub(crate) fn bump(cell: &Cell<u64>) {
        cell.set(cell.get() + 1);
    }

    pub(crate) fn high_water(&self, retained: u64) {
        if retained > self.retained_high_water.get() {
            self.retained_high_water.set(retained);
        }
    }

    pub(crate) fn snapshot(&self, tx_attempts: u64) -> MediumStats {
        MediumStats {
            tx_attempts,
            culled_sensitivity: self.culled_sensitivity.get(),
            collision_losses: self.collision_losses.get(),
            per_losses: self.per_losses.get(),
            delivered: self.delivered.get(),
            cache_hits: self.cache_hits.get(),
            cache_misses: self.cache_misses.get(),
            retained_high_water: self.retained_high_water.get(),
        }
    }
}
