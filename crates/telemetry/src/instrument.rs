//! Typed instruments: counters, gauges, and log-bucketed histograms.
//!
//! Every instrument is deterministic by construction: values are
//! unsigned integers, histogram sums accumulate in `u128` (integer
//! addition commutes, unlike floating point), and bucket edges are
//! fixed powers of two so a merged snapshot is byte-identical no matter
//! how the observations were split across workers or shards.

/// A monotonically increasing event count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// A zeroed counter.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Add `n` to the count.
    pub(crate) fn inc(&mut self, n: u64) {
        self.value = self.value.wrapping_add(n);
    }

    /// Overwrite with an absolute value (for end-of-run flushes that
    /// copy a subsystem's internal tally into the registry exactly once).
    pub(crate) fn set(&mut self, v: u64) {
        self.value = v;
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.value
    }

    /// Fold another counter in (counts add).
    pub(crate) fn merge(&mut self, other: &Counter) {
        self.value = self.value.wrapping_add(other.value);
    }
}

/// A point-in-time level plus its high-water mark.
///
/// Merging gauges takes the maximum of both fields so the result is
/// independent of merge order; a gauge therefore answers "how deep did
/// it ever get" rather than "where did it end" once shards are folded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Gauge {
    last: i64,
    high_water: i64,
}

impl Gauge {
    /// A zeroed gauge.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Record the current level, updating the high-water mark.
    pub(crate) fn set(&mut self, v: i64) {
        self.last = v;
        if v > self.high_water {
            self.high_water = v;
        }
    }

    /// Most recently recorded level.
    pub fn last(&self) -> i64 {
        self.last
    }

    /// Highest level ever recorded.
    pub fn high_water(&self) -> i64 {
        self.high_water
    }

    /// Fold another gauge in (both fields take the max, so the merge
    /// commutes).
    pub(crate) fn merge(&mut self, other: &Gauge) {
        if other.last > self.last {
            self.last = other.last;
        }
        if other.high_water > self.high_water {
            self.high_water = other.high_water;
        }
    }
}

/// Number of histogram buckets: bucket 0 holds the value 0, bucket `i`
/// (1 ≤ i ≤ 64) holds values in `[2^(i-1), 2^i)`.
pub(crate) const HIST_BUCKETS: usize = 65;

/// A histogram over `u64` observations with fixed power-of-two bucket
/// edges.
///
/// Counts, the `u128` sum, and min/max are all invariant under
/// permutation of inserts, and `merge(a, b)` equals inserting every
/// observation into one histogram — the soundness lemma that lets
/// per-worker and per-shard histograms be folded into one snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index for a value: 0 for 0, else `64 - leading_zeros`.
    pub fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Inclusive-exclusive `[lo, hi)` range covered by bucket `i`
    /// (bucket 0 is the single value 0; bucket 64's `hi` saturates).
    pub fn bucket_range(i: usize) -> (u64, u64) {
        match i {
            0 => (0, 1),
            64 => (1 << 63, u64::MAX),
            _ => (1 << (i - 1), 1 << i),
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest observation, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean observation, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Per-bucket counts (length `HIST_BUCKETS`).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Fold another histogram in: element-wise bucket addition plus
    /// count/sum addition and min/max widening. Equivalent to having
    /// inserted every one of `other`'s observations here.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            if other.min < self.min {
                self.min = other.min;
            }
            if other.max > self.max {
                self.max = other.max;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_inc_set_merge() {
        let mut c = Counter::new();
        c.inc(3);
        c.inc(4);
        assert_eq!(c.get(), 7);
        c.set(100);
        assert_eq!(c.get(), 100);
        let mut d = Counter::new();
        d.inc(1);
        d.merge(&c);
        assert_eq!(d.get(), 101);
    }

    #[test]
    fn gauge_tracks_high_water_and_merges_commutatively() {
        let mut g = Gauge::new();
        g.set(5);
        g.set(2);
        assert_eq!(g.last(), 2);
        assert_eq!(g.high_water(), 5);
        let mut h = Gauge::new();
        h.set(9);
        h.set(1);
        let mut ab = g;
        ab.merge(&h);
        let mut ba = h;
        ba.merge(&g);
        assert_eq!(ab, ba);
        assert_eq!(ab.high_water(), 9);
    }

    #[test]
    fn histogram_buckets_cover_u64() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        for i in 0..HIST_BUCKETS {
            let (lo, hi) = Histogram::bucket_range(i);
            assert_eq!(Histogram::bucket_of(lo), i);
            if i < 64 {
                assert!(hi == 1 || Histogram::bucket_of(hi - 1) == i);
            }
        }
    }

    #[test]
    fn histogram_observe_and_stats() {
        let mut h = Histogram::new();
        assert!(h.min().is_none());
        for v in [0u64, 1, 1, 5, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1007);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1000));
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[1], 2);
    }

    #[test]
    fn histogram_merge_equals_insert_all() {
        let xs = [3u64, 0, 7, 7, 1 << 40, 255];
        let ys = [9u64, 2, 1 << 63];
        let mut a = Histogram::new();
        for &v in &xs {
            a.observe(v);
        }
        let mut b = Histogram::new();
        for &v in &ys {
            b.observe(v);
        }
        let mut all = Histogram::new();
        for &v in xs.iter().chain(&ys) {
            all.observe(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }
}
