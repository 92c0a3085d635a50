//! The deterministic heart of `wile-gatewayd`: a pure, IO-free state
//! machine that accepts byte-exact [`RxFrame`]s stamped into lanes and
//! drives them through the identical `GatewayIngest → ReportQueue →
//! ClusterAggregator` pipeline the in-process scenarios run.
//!
//! [`GatewaydCore`] never reads a clock, a socket, or a file. Time
//! advances only through the frames' own arrival stamps and explicit
//! [`advance_to`](GatewaydCore::advance_to) watermarks; the daemon
//! shell owns all IO and feeds the core. That split is what makes
//! replay exact: the same record stream produces the same poll train,
//! the same aggregation batches, the same deliveries, the same digest —
//! byte for byte, asserted against the in-process cluster by
//! `tests/gatewayd_diff.rs`.
//!
//! The core shares the metro scenario's cluster pieces rather than
//! copying them: the same [`PollTrain`] schedule, the same
//! [`cluster_config`], and the same per-poll step ([`ClusterRun::poll`]:
//! cluster poll → digest fold → retain → evict stale devices), fed from
//! staged lanes instead of a medium.

use crate::wire::WcapHeader;
use std::collections::VecDeque;
use std::fmt;
use wile::monitor::{Gateway, GatewayStats};
use wile_cluster::{ClusterDelivery, ClusterStats, GatewayCluster};
use wile_radio::medium::{RadioId, RxFrame};
use wile_radio::time::{Duration, Instant};
use wile_scenarios::metro::{cluster_config, ClusterRun, MetroReport};
use wile_sim::ingest::GatewayIngest;
use wile_sim::poll::PollTrain;
use wile_telemetry::{LabelValue, Registry};

/// World parameters the core needs to reproduce a scenario's pipeline.
#[derive(Debug, Clone)]
pub struct GatewaydConfig {
    /// Cluster lane count.
    pub gateways: usize,
    /// Per-lane report queue bound (`None` = unbounded).
    pub queue_capacity: Option<usize>,
    /// Poll cadence.
    pub poll_every: Duration,
    /// Stale-device eviction horizon.
    pub stale_after: Duration,
    /// Final poll instant.
    pub horizon: Instant,
    /// Retain the full delivery stream in the report (differential
    /// tests); otherwise compare digests.
    pub keep_deliveries: bool,
    /// Aggregation worker threads (results are identical at any
    /// setting; the daemon defaults to 1).
    pub workers: usize,
    /// Record a [`PollRecord`] per poll for the JSONL run trace.
    pub log_polls: bool,
}

impl GatewaydConfig {
    /// Build from a capture/stream header (daemon defaults: one
    /// worker, digests only, no poll log).
    pub fn from_header(h: &WcapHeader) -> Self {
        GatewaydConfig {
            gateways: h.gateways as usize,
            queue_capacity: h.queue_capacity,
            poll_every: h.poll_every,
            stale_after: h.stale_after,
            horizon: h.horizon,
            keep_deliveries: false,
            workers: 1,
            log_polls: false,
        }
    }
}

/// Why the core refused a frame. Every rejection is counted in the
/// ledger (`rejected`) — a refused frame is accounted, not lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestError {
    /// Lane index out of range for this cluster.
    LaneOutOfRange {
        /// The offered lane.
        lane: u32,
        /// Configured lane count.
        gateways: usize,
    },
    /// The frame is stamped at or before an already-executed poll: it
    /// can never join the window it belonged to, and ingesting it late
    /// would silently shift a later aggregation batch.
    Stale {
        /// The frame's stamp.
        at: Instant,
        /// The last executed poll.
        polled: Instant,
    },
    /// The frame is stamped earlier than its lane's previous frame;
    /// staged lanes must be non-decreasing (capture order is the
    /// medium's arrival order, which is).
    OutOfOrder {
        /// The frame's stamp.
        at: Instant,
        /// The lane's previous stamp.
        prev: Instant,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::LaneOutOfRange { lane, gateways } => {
                write!(f, "lane {lane} out of range (cluster has {gateways})")
            }
            IngestError::Stale { at, polled } => write!(
                f,
                "frame at {}ns is at or before the executed poll at {}ns",
                at.as_nanos(),
                polled.as_nanos()
            ),
            IngestError::OutOfOrder { at, prev } => write!(
                f,
                "frame at {}ns regresses behind its lane's previous frame at {}ns",
                at.as_nanos(),
                prev.as_nanos()
            ),
        }
    }
}

impl std::error::Error for IngestError {}

/// One executed poll, for the JSONL run trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PollRecord {
    /// Poll instant.
    pub at: Instant,
    /// Deliveries this poll produced.
    pub delivered: u64,
    /// Devices evicted as stale at this poll.
    pub evicted: u64,
}

/// Everything a finished run measured, shaped to compare against a
/// [`MetroReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct GatewaydReport {
    /// Cluster lane count.
    pub gateways: usize,
    /// Frames offered to the core (accepted + rejected).
    pub frames_in: u64,
    /// Frames refused with a typed [`IngestError`].
    pub rejected: u64,
    /// Frames stamped after the final poll instant: counted when
    /// offered, never staged or polled.
    pub late: u64,
    /// Polls executed.
    pub polls: u64,
    /// Full cluster counters.
    pub stats: ClusterStats,
    /// Per-lane gateway pipeline counters (frame-level ledger).
    pub gateway_stats: Vec<GatewayStats>,
    /// The delivery stream (empty unless `keep_deliveries`).
    pub deliveries: Vec<ClusterDelivery>,
    /// FNV-1a digest over the full delivery stream.
    pub delivery_digest: u64,
    /// Devices evicted as stale (in eviction order, as metro reports
    /// them).
    pub evicted: Vec<u32>,
    /// Poll records not yet drained via
    /// [`GatewaydCore::take_poll_log`] (empty unless
    /// [`GatewaydConfig::log_polls`]).
    pub poll_log: Vec<PollRecord>,
    /// The final poll instant (== configured horizon).
    pub sim_end: Instant,
}

impl GatewaydReport {
    /// Byte-identity against an in-process metro run: cluster counters,
    /// delivery stream, digest, and evictions all equal. (`sim_end` is
    /// not compared — the kernel's end time includes device wakes the
    /// capture does not replay; medium-side fields like `peak_live_tx`
    /// have no daemon counterpart.)
    pub fn matches_metro(&self, m: &MetroReport) -> bool {
        self.gateways == m.gateways
            && self.stats == m.stats
            && self.deliveries == m.deliveries
            && self.delivery_digest == m.delivery_digest
            && self.evicted == m.evicted
    }

    /// The frame-level conservation ledger: every frame offered to the
    /// core was rejected with a typed error, stamped past the final
    /// poll, or seen by a lane's gateway pipeline. Nothing vanishes.
    pub fn frames_ledger_closes(&self) -> bool {
        let seen: u64 = self.gateway_stats.iter().map(|g| g.frames_seen).sum();
        self.frames_in == self.rejected + self.late + seen
    }

    /// Record the finished run's counters into a telemetry registry:
    /// the same cluster and gateway keys the live core records, plus
    /// the daemon-front-door ledger (nothing is staged once finished).
    /// Serves the post-run scrape after the core has been consumed.
    pub fn record_telemetry(&self, reg: &mut Registry) {
        self.stats.record_telemetry(reg);
        for (i, gateway) in self.gateway_stats.iter().enumerate() {
            gateway.record_telemetry(reg, &[("lane", LabelValue::from(i))]);
        }
        record_front_door(reg, self.frames_in, self.rejected, self.late, self.polls, 0);
    }
}

/// The daemon-front-door ledger as the `gatewayd.*` instruments; it
/// closes as `frames_in == rejected + staged + late + Σ frames_seen`.
fn record_front_door(
    reg: &mut Registry,
    frames_in: u64,
    rejected: u64,
    late: u64,
    polls: u64,
    staged: usize,
) {
    reg.counter_set("gatewayd.frames_in", &[], frames_in);
    reg.counter_set("gatewayd.rejected", &[], rejected);
    reg.counter_set("gatewayd.late", &[], late);
    reg.counter_set("gatewayd.polls", &[], polls);
    reg.gauge_set("gatewayd.staged", &[], staged as i64);
}

/// The deterministic replay/ingest core. See the module docs for the
/// exactness contract.
pub struct GatewaydCore {
    cfg: GatewaydConfig,
    run: ClusterRun,
    train: PollTrain,
    /// Per-lane staged frames, non-decreasing by stamp; a poll at `t`
    /// consumes every staged frame with `at <= t`.
    staged: Vec<VecDeque<RxFrame>>,
    /// Per-lane last staged stamp (monotonicity guard).
    last_at: Vec<Option<Instant>>,
    /// Last executed poll.
    polled: Option<Instant>,
    /// Next due poll.
    next_poll: Instant,
    finished: bool,
    poll_log: Vec<PollRecord>,
    frames_in: u64,
    rejected: u64,
    late: u64,
    polls: u64,
}

impl GatewaydCore {
    /// A fresh core: empty cluster lanes, first poll due at
    /// `ZERO + poll_every` (even a degenerate horizon gets its one
    /// poll).
    ///
    /// # Panics
    /// If `gateways` or `workers` is zero, or `poll_every` is zero.
    pub fn new(cfg: GatewaydConfig) -> Self {
        assert!(cfg.gateways >= 1, "a cluster needs at least one lane");
        assert!(cfg.workers >= 1);
        let train = PollTrain::new(cfg.poll_every, cfg.horizon);
        let mut cluster = GatewayCluster::new(cluster_config(cfg.queue_capacity, cfg.stale_after));
        // Lane radios are nominal: the daemon never touches a medium,
        // but `GatewayIngest` carries its radio id, and lane order is
        // what the capture's lane indices refer to.
        for i in 0..cfg.gateways {
            cluster.add_gateway(GatewayIngest::new(RadioId(i as u32), Gateway::new()));
        }
        GatewaydCore {
            run: ClusterRun::new(cluster, cfg.workers, cfg.keep_deliveries),
            train,
            staged: (0..cfg.gateways).map(|_| VecDeque::new()).collect(),
            last_at: vec![None; cfg.gateways],
            polled: None,
            next_poll: train.first(),
            finished: false,
            poll_log: Vec::new(),
            frames_in: 0,
            rejected: 0,
            late: 0,
            polls: 0,
            cfg,
        }
    }

    /// The configuration this core runs.
    pub fn config(&self) -> &GatewaydConfig {
        &self.cfg
    }

    /// Drain the accumulated poll log (empty unless
    /// [`GatewaydConfig::log_polls`]).
    pub fn take_poll_log(&mut self) -> Vec<PollRecord> {
        std::mem::take(&mut self.poll_log)
    }

    /// Offer one stamped frame. The stamp is a watermark: every poll
    /// due strictly before it runs first (capture order is poll-major,
    /// so by the time a frame stamped past a poll boundary arrives,
    /// every frame belonging to that window has been offered).
    /// Deliveries produced by those polls land in `out`. A frame
    /// stamped after the final poll is counted as late and not staged;
    /// a rejected frame is counted and reported. Neither is silently
    /// dropped.
    pub fn offer(
        &mut self,
        lane: u32,
        frame: RxFrame,
        out: &mut Vec<ClusterDelivery>,
    ) -> Result<(), IngestError> {
        self.frames_in += 1;
        if lane as usize >= self.cfg.gateways {
            self.rejected += 1;
            return Err(IngestError::LaneOutOfRange {
                lane,
                gateways: self.cfg.gateways,
            });
        }
        // A frame stamped exactly on the next poll boundary belongs to
        // that poll (drains are inclusive), so only strictly-later
        // stamps release it.
        while !self.finished && self.next_poll < frame.at {
            self.run_poll(out);
        }
        if let Some(p) = self.polled {
            if frame.at <= p {
                self.rejected += 1;
                return Err(IngestError::Stale {
                    at: frame.at,
                    polled: p,
                });
            }
        }
        // Not stale, yet the final poll has run: the frame is stamped
        // past it, and no window will ever hold it.
        if self.finished {
            self.late += 1;
            return Ok(());
        }
        let lane = lane as usize;
        if let Some(prev) = self.last_at[lane] {
            if frame.at < prev {
                self.rejected += 1;
                return Err(IngestError::OutOfOrder { at: frame.at, prev });
            }
        }
        self.last_at[lane] = Some(frame.at);
        self.staged[lane].push_back(frame);
        Ok(())
    }

    /// Run every poll due at or before `to` (an explicit watermark —
    /// the wire `Advance` record, or the daemon's end-of-stream drain).
    pub fn advance_to(&mut self, to: Instant, out: &mut Vec<ClusterDelivery>) {
        while !self.finished && self.next_poll <= to {
            self.run_poll(out);
        }
    }

    /// Seal the run: execute every remaining poll through the horizon
    /// (the final one lands exactly on it), then produce the report.
    pub fn finish(mut self, out: &mut Vec<ClusterDelivery>) -> GatewaydReport {
        while !self.finished {
            self.run_poll(out);
        }
        let stats = self.run.cluster.stats();
        assert!(
            stats.conserves_offered_load(),
            "delivered + suppressions + drops must equal hears: {stats:?}"
        );
        let gateway_stats: Vec<GatewayStats> = (0..self.cfg.gateways)
            .map(|i| self.run.cluster.ingest(i).gateway().stats())
            .collect();
        let report = GatewaydReport {
            gateways: self.cfg.gateways,
            frames_in: self.frames_in,
            rejected: self.rejected,
            late: self.late,
            polls: self.polls,
            stats,
            gateway_stats,
            deliveries: self.run.deliveries,
            delivery_digest: self.run.digest,
            evicted: self.run.evicted,
            poll_log: self.poll_log,
            sim_end: self.polled.expect("finish() executes at least one poll"),
        };
        assert!(
            report.frames_ledger_closes(),
            "frame ledger must close: {} in != {} rejected + {} late + seen",
            report.frames_in,
            report.rejected,
            report.late
        );
        report
    }

    /// Record the pipeline's counters into a telemetry registry: the
    /// full cluster/gateway set plus the daemon-front-door ledger.
    pub fn record_telemetry(&self, reg: &mut Registry) {
        self.run.cluster.record_telemetry(reg);
        let staged = self.staged.iter().map(VecDeque::len).sum();
        record_front_door(
            reg,
            self.frames_in,
            self.rejected,
            self.late,
            self.polls,
            staged,
        );
    }

    /// Run the next due poll off the staged lanes.
    fn run_poll(&mut self, out: &mut Vec<ClusterDelivery>) {
        let t = self.next_poll;
        let evicted_before = self.run.evicted.len();
        let staged = &mut self.staged;
        let got = self.run.poll(t, |cluster, workers| {
            cluster.poll_staged(staged, None, t, workers)
        });
        if self.cfg.log_polls {
            self.poll_log.push(PollRecord {
                at: t,
                delivered: got.len() as u64,
                evicted: (self.run.evicted.len() - evicted_before) as u64,
            });
        }
        out.extend(got);
        self.polls += 1;
        self.polled = Some(t);
        match self.train.next(t) {
            Some(next) => self.next_poll = next,
            None => self.finished = true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn cfg() -> GatewaydConfig {
        GatewaydConfig {
            gateways: 2,
            queue_capacity: Some(64),
            poll_every: Duration::from_secs(5),
            stale_after: Duration::from_secs(600),
            horizon: Instant::from_secs(12),
            keep_deliveries: true,
            workers: 1,
            log_polls: true,
        }
    }

    fn frame(at_s: u64) -> RxFrame {
        RxFrame {
            at: Instant::from_secs(at_s),
            from: RadioId(99),
            rssi_dbm: -50.0,
            snr_db: 20.0,
            bytes: Arc::from(&b"\x00"[..]),
        }
    }

    #[test]
    fn rejections_are_typed_and_counted() {
        let mut core = GatewaydCore::new(cfg());
        let mut out = Vec::new();
        assert_eq!(
            core.offer(7, frame(1), &mut out),
            Err(IngestError::LaneOutOfRange {
                lane: 7,
                gateways: 2
            })
        );
        // A frame stamped past the first poll boundary executes it...
        core.offer(0, frame(6), &mut out).unwrap();
        assert_eq!(core.polls, 1);
        // ...after which a frame at or before that poll is stale.
        assert_eq!(
            core.offer(0, frame(4), &mut out),
            Err(IngestError::Stale {
                at: Instant::from_secs(4),
                polled: Instant::from_secs(5),
            })
        );
        // Lane regression is refused.
        core.offer(0, frame(8), &mut out).unwrap();
        assert_eq!(
            core.offer(0, frame(7), &mut out),
            Err(IngestError::OutOfOrder {
                at: Instant::from_secs(7),
                prev: Instant::from_secs(8),
            })
        );
        let report = core.finish(&mut out);
        assert_eq!(report.frames_in, 5);
        assert_eq!(report.rejected, 3);
        assert!(report.frames_ledger_closes());
    }

    #[test]
    fn late_frames_are_ledgered() {
        let mut core = GatewaydCore::new(cfg());
        let mut out = Vec::new();
        // Stamped past the horizon: counted late on offer, never
        // staged, and the first one's drain refuses none of the rest.
        for at_s in [50, 50, 60] {
            let _ = core.offer(1, frame(at_s), &mut out);
        }
        let report = core.finish(&mut out);
        assert_eq!(report.late, 3);
        assert_eq!(report.rejected, 0);
        assert!(report.frames_ledger_closes());
    }
}
