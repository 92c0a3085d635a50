//! Bounded per-gateway report queues — the cluster's backpressure
//! primitive.
//!
//! Every gateway lane buffers its pipeline output here between
//! aggregation rounds. The queue is a hard bound, not a hint: when a
//! poll interval offers more reports than the lane may hold, the excess
//! is **dropped at the tail and counted**, never silently buffered.
//! Tail drop keeps the oldest reports (the ones closest to delivery),
//! which preserves arrival order for everything that survives; the drop
//! counter and high-water mark flow into
//! [`crate::aggregator::ClusterStats`] so overload is visible, exactly
//! like a production ingest stage's queue metrics.

use crate::report::GatewayReport;
use std::collections::VecDeque;

/// A bounded FIFO of [`GatewayReport`]s with drop accounting.
#[derive(Debug)]
pub struct ReportQueue {
    buf: VecDeque<GatewayReport>,
    capacity: usize,
    drops: u64,
    high_water: usize,
}

impl ReportQueue {
    /// A queue holding at most `capacity` reports. A zero capacity is
    /// nonsensical (every report would drop) and panics.
    pub fn bounded(capacity: usize) -> Self {
        assert!(capacity > 0, "a zero-capacity lane drops everything");
        ReportQueue {
            buf: VecDeque::new(),
            capacity,
            drops: 0,
            high_water: 0,
        }
    }

    /// An effectively unbounded queue (capacity `usize::MAX`) — used by
    /// the differential oracle, where the single-gateway reference has
    /// no queue at all.
    pub fn unbounded() -> Self {
        ReportQueue {
            buf: VecDeque::new(),
            capacity: usize::MAX,
            drops: 0,
            high_water: 0,
        }
    }

    /// Offer a report. Returns `true` if enqueued; `false` if the lane
    /// was full and the report was dropped (and counted).
    pub fn push(&mut self, report: GatewayReport) -> bool {
        if self.buf.len() >= self.capacity {
            self.drops += 1;
            return false;
        }
        self.buf.push_back(report);
        if self.buf.len() > self.high_water {
            self.high_water = self.buf.len();
        }
        true
    }

    /// Take everything queued, in FIFO order, leaving the queue empty
    /// (capacity, drop count and high-water mark persist).
    pub fn drain(&mut self) -> Vec<GatewayReport> {
        self.buf.drain(..).collect()
    }

    /// Append everything queued to `out` in FIFO order, leaving the
    /// queue empty. The allocation-free sibling of
    /// [`drain`](ReportQueue::drain): the cluster's poll loop feeds one
    /// reused batch buffer from every lane instead of collecting a
    /// fresh `Vec` per lane per poll.
    pub fn drain_into(&mut self, out: &mut Vec<GatewayReport>) {
        out.extend(self.buf.drain(..));
    }

    /// Take the oldest queued report, if any.
    pub fn pop(&mut self) -> Option<GatewayReport> {
        self.buf.pop_front()
    }

    /// Discard everything queued (crash semantics: the contents are
    /// destroyed, not delivered). Capacity, drop count and high-water
    /// mark persist.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Reports currently queued.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Reports dropped at the tail because the lane was full.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Deepest the queue has ever been.
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wile_radio::time::Instant;

    fn report(n: u64) -> GatewayReport {
        GatewayReport {
            gateway: 0,
            device_id: 1,
            seq: n as u16,
            at: Instant::from_ms(n),
            rssi_dbm: -50.0,
            payload: vec![0].into(),
            encrypted: false,
            ordinal: n,
        }
    }

    #[test]
    fn tail_drop_counts_and_keeps_oldest() {
        let mut q = ReportQueue::bounded(3);
        for n in 0..5 {
            q.push(report(n));
        }
        assert_eq!(q.len(), 3);
        assert_eq!(q.drops(), 2);
        assert_eq!(q.high_water(), 3);
        let kept: Vec<u16> = q.drain().into_iter().map(|r| r.seq).collect();
        assert_eq!(kept, vec![0, 1, 2], "tail drop keeps the head");
        assert!(q.is_empty());
        // Drop accounting and high water survive the drain.
        assert_eq!(q.drops(), 2);
        assert_eq!(q.high_water(), 3);
        // After draining there is room again.
        assert!(q.push(report(9)));
        assert_eq!(q.drops(), 2);
    }

    #[test]
    fn drain_into_appends_fifo_and_empties() {
        let mut q = ReportQueue::bounded(4);
        for n in 0..3 {
            q.push(report(n));
        }
        let mut out = vec![report(99)];
        q.drain_into(&mut out);
        let seqs: Vec<u16> = out.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![99, 0, 1, 2], "appends after existing contents");
        assert!(q.is_empty());
        assert_eq!(q.high_water(), 3);
        // pop/clear cover the partition and crash paths.
        q.push(report(7));
        q.push(report(8));
        assert_eq!(q.pop().map(|r| r.seq), Some(7));
        q.clear();
        assert!(q.pop().is_none());
    }

    #[test]
    fn high_water_tracks_peak_not_current() {
        let mut q = ReportQueue::bounded(10);
        q.push(report(0));
        q.push(report(1));
        q.drain();
        q.push(report(2));
        assert_eq!(q.len(), 1);
        assert_eq!(q.high_water(), 2);
    }

    #[test]
    fn unbounded_never_drops() {
        let mut q = ReportQueue::unbounded();
        for n in 0..10_000 {
            assert!(q.push(report(n)));
        }
        assert_eq!(q.drops(), 0);
        assert_eq!(q.len(), 10_000);
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn zero_capacity_is_rejected() {
        let _ = ReportQueue::bounded(0);
    }
}
