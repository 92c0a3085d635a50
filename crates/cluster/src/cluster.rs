//! The cluster facade: lanes of [`GatewayIngest`] feeding one
//! [`ClusterAggregator`] through bounded [`ReportQueue`]s.
//!
//! A [`GatewayCluster`] owns the whole pipeline downstream of the
//! radios:
//!
//! ```text
//!   radio 0 ─ GatewayIngest ─ ReportQueue ─┐
//!   radio 1 ─ GatewayIngest ─ ReportQueue ─┼─ ClusterAggregator ─ deliveries
//!   radio N ─ GatewayIngest ─ ReportQueue ─┘      (sharded)
//! ```
//!
//! One [`poll`](GatewayCluster::poll) call drains every lane from the
//! shared [`Medium`] up to an instant, pushes each lane's survivors
//! through its bounded queue (tail-dropping and counting overflow),
//! then runs one aggregation round over everything the queues held.
//! Lanes are drained in index order and reports are stamped with a
//! serial enqueue ordinal, so for a fixed world the batch handed to the
//! aggregator — and therefore every delivery, ownership decision, and
//! counter — is identical at any worker count.
//!
//! The caller keeps ownership of the [`Medium`] (and of history
//! retirement via `release_all` in bounded mode), matching how the
//! fleet scenario drives single gateways.

use crate::aggregator::{ClusterAggregator, ClusterStats, RoamingConfig};
use crate::faults::{ClusterFaultPlan, CrashEdge, PartitionPolicy};
use crate::queue::ReportQueue;
use crate::report::{ClusterDelivery, GatewayReport};
use std::collections::VecDeque;
use wile::monitor::GatewaySnapshot;
use wile_radio::medium::{Medium, RadioId, RxFrame};
use wile_radio::plan::FaultTimeline;
use wile_radio::time::{Duration, Instant};
use wile_sim::ingest::GatewayIngest;
use wile_telemetry::{LabelValue, ProfScope, Registry};

/// How many device shards an aggregation round fans out over. Fixed
/// per cluster — never derived from the worker count — so results are
/// worker-count independent.
const SHARDS: usize = 8;

/// Cluster-wide tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Per-lane queue bound (reports per poll interval). `None` means
    /// unbounded — used by the differential oracle, where the
    /// single-gateway reference has no queue at all.
    pub queue_capacity: Option<usize>,
    /// Evict devices unheard for this long on each
    /// [`GatewayCluster::evict_stale`] call.
    pub stale_after: Duration,
    /// How a partitioned lane's backhaul buffers and sheds (only
    /// consulted while a [`ClusterFaultPlan`] schedules partitions).
    pub partition: PartitionPolicy,
    /// Snapshot every live lane's gateway state (dedup + link health +
    /// counters) this often; a lane restarting after a crash resumes
    /// from its last checkpoint instead of cold. `None` disables
    /// checkpointing — restarts are always cold.
    pub checkpoint_every: Option<Duration>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            queue_capacity: Some(4096),
            stale_after: Duration::from_secs(600),
            partition: PartitionPolicy::default(),
            checkpoint_every: None,
        }
    }
}

/// What happened to a lane, surfaced by
/// [`GatewayCluster::take_lane_events`] for scenario sinks to trace.
#[derive(Debug, Clone, PartialEq)]
pub enum LaneEvent {
    /// The lane's process crashed: queued + backhaul-buffered reports
    /// destroyed (`lost`), owned devices orphaned for re-election.
    Down {
        /// Reports destroyed in the crash.
        lost: u64,
        /// Devices this lane owned, now orphaned (sorted).
        orphaned: Vec<u32>,
    },
    /// The lane's process came back — warm from its last checkpoint
    /// when `restored`, cold otherwise.
    Up {
        /// Whether a checkpoint was restored.
        restored: bool,
    },
    /// A checkpoint of this lane's gateway state was taken.
    Checkpoint,
    /// The lane's backhaul partition became visible at a poll.
    PartitionStart,
    /// The partition healed; `flushed` buffered reports re-entered the
    /// aggregation batch.
    PartitionEnd {
        /// Reports that survived the partition and flushed.
        flushed: usize,
    },
}

/// A [`LaneEvent`] stamped with the lane and the simulated instant the
/// cluster applied it.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneEventRecord {
    /// When the transition was applied (crash/restart instants come
    /// from the plan; partition edges carry the poll instant that
    /// observed them).
    pub at: Instant,
    /// Which lane.
    pub lane: usize,
    /// What happened.
    pub event: LaneEvent,
}

/// One gateway's slot in the cluster.
#[derive(Debug)]
struct Lane {
    ingest: GatewayIngest,
    queue: ReportQueue,
    hears: u64,
    /// Process currently inside a crash window.
    down: bool,
    /// Backhaul partition observed at the last poll.
    partitioned: bool,
    /// Store-and-forward buffer while partitioned: `(retries, report)`,
    /// oldest first.
    backhaul: VecDeque<(u32, GatewayReport)>,
    /// Reports shed with accounting (backhaul overflow, retry
    /// exhaustion, overload admission control).
    shed: u64,
    /// Reports destroyed in crashes (queue + backhaul contents).
    lost_in_crash: u64,
    crashes: u64,
    restarts: u64,
    /// Last checkpoint of this lane's gateway state.
    checkpoint: Option<GatewaySnapshot>,
}

/// Observation tap on the raw per-lane frame stream: lane index plus
/// the frame, in drain order, before admission predicates or fault
/// timelines touch it.
pub type LaneTap<'a> = &'a mut dyn FnMut(usize, &RxFrame);

/// A sharded multi-gateway ingestion cluster. See the module docs for
/// the pipeline shape and determinism contract.
#[derive(Debug)]
pub struct GatewayCluster {
    cfg: ClusterConfig,
    lanes: Vec<Lane>,
    agg: ClusterAggregator,
    next_ordinal: u64,
    /// The infrastructure fault schedule, if chaos is engaged. An
    /// empty plan is proven byte-identical to `None` by the chaos
    /// differential oracle.
    faults: Option<ClusterFaultPlan>,
    /// End of the last poll window (`None` before the first poll, so
    /// transitions at exactly `Instant::ZERO` are not skipped).
    last_poll: Option<Instant>,
    /// Next scheduled checkpoint instant.
    next_checkpoint: Option<Instant>,
    /// Per-lane checkpoints taken so far.
    checkpoints: u64,
    /// Lane transitions applied since the last
    /// [`take_lane_events`](GatewayCluster::take_lane_events).
    events: Vec<LaneEventRecord>,
    /// Aggregation-batch scratch, reused across polls: lane queues
    /// drain into it, the aggregator drains it. Always empty between
    /// polls; only the allocation persists.
    batch: Vec<GatewayReport>,
    /// Raw-frame scratch, reused across lanes and polls: each lane's
    /// drain lands here and its gateway ingest empties it again.
    inbox: Vec<RxFrame>,
}

impl GatewayCluster {
    /// An empty cluster; add gateways with
    /// [`add_gateway`](GatewayCluster::add_gateway).
    pub fn new(cfg: ClusterConfig) -> Self {
        let agg = ClusterAggregator::new(0, SHARDS, RoamingConfig::default());
        GatewayCluster {
            cfg,
            lanes: Vec::new(),
            agg,
            next_ordinal: 0,
            faults: None,
            last_poll: None,
            next_checkpoint: cfg.checkpoint_every.map(|e| Instant::ZERO + e),
            checkpoints: 0,
            events: Vec::new(),
            batch: Vec::new(),
            inbox: Vec::new(),
        }
    }

    /// Register a gateway pipeline; returns its lane index (drain
    /// order, tie-break order, and the index reported in stats).
    pub fn add_gateway(&mut self, ingest: GatewayIngest) -> usize {
        let queue = match self.cfg.queue_capacity {
            Some(cap) => ReportQueue::bounded(cap),
            None => ReportQueue::unbounded(),
        };
        self.lanes.push(Lane {
            ingest,
            queue,
            hears: 0,
            down: false,
            partitioned: false,
            backhaul: VecDeque::new(),
            shed: 0,
            lost_in_crash: 0,
            crashes: 0,
            restarts: 0,
            checkpoint: None,
        });
        self.agg.add_lane()
    }

    /// Install an infrastructure fault schedule. Call before the first
    /// poll; the plan is replayed against poll windows, so transitions
    /// already behind [`poll`](GatewayCluster::poll)'s clock never
    /// fire.
    pub fn set_faults(&mut self, plan: ClusterFaultPlan) {
        self.faults = Some(plan);
    }

    /// Drain the lane transitions (crash, restart, checkpoint,
    /// partition edges) applied since the last call, in `(at, lane)`
    /// order. Scenario sinks turn these into trace events and spans.
    pub fn take_lane_events(&mut self) -> Vec<LaneEventRecord> {
        std::mem::take(&mut self.events)
    }

    /// Number of gateways in the cluster.
    pub fn gateways(&self) -> usize {
        self.lanes.len()
    }

    /// Borrow a lane's gateway pipeline (stats, link health).
    pub fn ingest(&self, lane: usize) -> &GatewayIngest {
        &self.lanes[lane].ingest
    }

    /// The lane currently owning `device_id`, if tracked.
    pub fn owner_of(&self, device_id: u32) -> Option<usize> {
        self.agg.owner_of(device_id)
    }

    /// Drain every lane from the medium up to `up_to`, queue the
    /// reports (bounded, with drop accounting), and run one sharded
    /// aggregation round with up to `workers` threads. Returns the
    /// cluster-wide deliveries, sorted by `(arrival, device, seq)`.
    ///
    /// With a [`ClusterFaultPlan`] installed
    /// ([`set_faults`](GatewayCluster::set_faults)), the poll window is
    /// segmented at crash/restart/checkpoint instants and each segment
    /// drained separately, so state transitions land between exactly
    /// the frames they should:
    ///
    /// * frames arriving inside a crash window are consumed and
    ///   discarded (the radio hears; nothing behind it is alive — they
    ///   never count as `hears`, exactly like an air-side outage);
    /// * at a crash instant the lane's queued and backhaul-buffered
    ///   reports are destroyed (`lost_in_crash`), its gateway state is
    ///   wiped cold, and its owned devices are orphaned for
    ///   re-election;
    /// * at a restart instant the gateway restores from its last
    ///   checkpoint (when checkpointing is on) before any further frame
    ///   is ingested;
    /// * while partitioned, a lane's reports park in a bounded backhaul
    ///   buffer, aging one retry per poll — overflow and retry
    ///   exhaustion shed with accounting — and the survivors flush
    ///   (oldest first) on the first poll after the partition heals;
    /// * under an overload window, the batch is admission-controlled to
    ///   the configured cap (earliest enqueue ordinals first; the rest
    ///   shed, charged to their lanes).
    ///
    /// With no plan (or an empty one) every branch above is inert and
    /// the poll is byte-identical to the pre-fault pipeline — the chaos
    /// differential oracle proves it end to end.
    ///
    /// `tap`, when given, observes every raw frame each lane pulls off
    /// the medium (lane index + frame, before admission predicates or
    /// fault timelines touch it). This is the `.wcap` capture hook: the
    /// tap sees the byte-exact per-lane air stream in drain order and
    /// never perturbs the poll.
    pub fn poll(
        &mut self,
        medium: &mut Medium,
        faults: Option<&mut FaultTimeline>,
        up_to: Instant,
        workers: usize,
        mut tap: Option<LaneTap<'_>>,
    ) -> Vec<ClusterDelivery> {
        self.poll_with(faults, up_to, workers, |radio, idx, to, inbox| {
            {
                let _scope = ProfScope::new("medium.take_inbox");
                medium.take_inbox_into(radio, to, inbox);
            }
            if let Some(t) = tap.as_mut() {
                for f in inbox.iter() {
                    t(idx, f);
                }
            }
        })
    }

    /// [`poll`](GatewayCluster::poll) without a [`Medium`]: each lane
    /// drains from its caller-owned staged buffer instead of a radio
    /// inbox. This is the ingestion-service entry point — a daemon that
    /// receives byte-exact frames over a socket stages them per lane
    /// and polls here, and the downstream pipeline (fault segmentation,
    /// bounded queues, aggregation) is the *same code* the in-process
    /// scenarios run, so replaying a capture reproduces them
    /// byte-for-byte.
    ///
    /// Frames with `at <= up_to` are consumed from the front of each
    /// lane's deque; later frames stay for a future poll. Buffers must
    /// hold frames in non-decreasing `at` order per lane (the order a
    /// radio inbox yields them) — a frame behind an earlier-stamped one
    /// would otherwise be drained in a different order than the medium
    /// path, and byte-identity is the whole point.
    ///
    /// `staged` must have exactly one deque per lane.
    pub fn poll_staged(
        &mut self,
        staged: &mut [VecDeque<RxFrame>],
        faults: Option<&mut FaultTimeline>,
        up_to: Instant,
        workers: usize,
    ) -> Vec<ClusterDelivery> {
        assert_eq!(staged.len(), self.lanes.len(), "one staged buffer per lane");
        self.poll_with(faults, up_to, workers, |_, idx, to, inbox| {
            let q = &mut staged[idx];
            while q.front().is_some_and(|f| f.at <= to) {
                inbox.extend(q.pop_front());
            }
        })
    }

    /// The shared poll body: window segmentation, crash/restart/
    /// checkpoint transitions, partition parking, overload admission,
    /// each lane's gateway ingest (admission predicate, air-side
    /// `faults`, gateway pipeline) and the aggregation round — generic
    /// over where each lane's raw frames come from. `drain(radio, lane,
    /// to, inbox)` must append to `inbox` every frame arriving by `to`
    /// for that lane, in arrival order, and consume them.
    fn poll_with<D>(
        &mut self,
        mut faults: Option<&mut FaultTimeline>,
        up_to: Instant,
        workers: usize,
        mut drain: D,
    ) -> Vec<ClusterDelivery>
    where
        D: FnMut(RadioId, usize, Instant, &mut Vec<RxFrame>),
    {
        let prev = self.last_poll;
        self.last_poll = Some(up_to);
        let plan = self.faults.clone().unwrap_or_default();

        // Segment boundaries inside this poll window, time-ordered.
        // At one instant: restarts apply first (a back-to-back window
        // hands over cleanly), then checkpoints (a lane restarting at a
        // checkpoint instant is captured fresh), then crashes (state up
        // to the instant is still checkpointable).
        const STEP_RESTART: u8 = 0;
        const STEP_CHECKPOINT: u8 = 1;
        const STEP_CRASH: u8 = 2;
        let mut steps: Vec<(Instant, u8, usize)> = plan
            .crash_transitions(prev, up_to)
            .into_iter()
            .map(|(at, lane, edge)| match edge {
                CrashEdge::Restart => (at, STEP_RESTART, lane),
                CrashEdge::Crash => (at, STEP_CRASH, lane),
            })
            .collect();
        if let (Some(every), Some(mut nc)) = (self.cfg.checkpoint_every, self.next_checkpoint) {
            while nc <= up_to {
                steps.push((nc, STEP_CHECKPOINT, usize::MAX));
                nc += every;
            }
            self.next_checkpoint = Some(nc);
        }
        steps.sort_by_key(|&(at, kind, lane)| (at, kind, lane));

        let GatewayCluster {
            cfg,
            lanes,
            agg,
            next_ordinal,
            checkpoints,
            events,
            batch,
            inbox,
            ..
        } = self;
        // The batch scratch is drained by the aggregator every round;
        // the clear is belt and braces against a panicked prior poll.
        batch.clear();
        // Index-driven because the per-step closures need `&mut
        // lanes[idx]` re-borrowed between segments.
        #[allow(clippy::needless_range_loop)]
        for idx in 0..lanes.len() {
            // Lane-major drain, segmented at this lane's transitions.
            // Frame order per lane is unchanged from the unsegmented
            // path, so the shared air-side fault timeline sees the
            // exact same sequence — byte-identity with faults=None
            // holds even when air and infra plans run together.
            let mut drain_to = |lane: &mut Lane, to: Instant| {
                drain(lane.ingest.radio(), idx, to, inbox);
                let got = {
                    let _scope = ProfScope::new("lane.ingest");
                    lane.ingest
                        .ingest_when(inbox.drain(..), faults.as_deref_mut(), |t| {
                            !plan.lane_down(idx, t)
                        })
                };
                for r in got {
                    lane.hears += 1;
                    let report = GatewayReport::from_received(idx, *next_ordinal, r);
                    *next_ordinal += 1;
                    lane.queue.push(report);
                }
            };
            for &(at, kind, lane_idx) in &steps {
                let lane = &mut lanes[idx];
                match kind {
                    STEP_RESTART if lane_idx == idx => {
                        // Restore first: a frame at exactly the restart
                        // instant is ingested by the revived process.
                        lane.down = false;
                        let restored = match &lane.checkpoint {
                            Some(cp) => {
                                lane.ingest.gateway_mut().restore(cp);
                                true
                            }
                            None => false,
                        };
                        lane.restarts += 1;
                        events.push(LaneEventRecord {
                            at,
                            lane: idx,
                            event: LaneEvent::Up { restored },
                        });
                        drain_to(lane, at);
                    }
                    STEP_CRASH if lane_idx == idx => {
                        // Frames strictly before the crash reach the
                        // queue; a frame at exactly the crash instant
                        // is already inside the (start-inclusive)
                        // window and is discarded by the admit
                        // predicate.
                        drain_to(lane, at);
                        let lane = &mut lanes[idx];
                        let lost = (lane.queue.len() + lane.backhaul.len()) as u64;
                        lane.queue.clear();
                        lane.backhaul.clear();
                        lane.lost_in_crash += lost;
                        lane.crashes += 1;
                        lane.down = true;
                        lane.ingest.gateway_mut().reset_cold();
                        let orphaned = agg.orphan_lane(idx);
                        events.push(LaneEventRecord {
                            at,
                            lane: idx,
                            event: LaneEvent::Down { lost, orphaned },
                        });
                    }
                    STEP_CHECKPOINT => {
                        drain_to(lane, at);
                        let lane = &mut lanes[idx];
                        if !lane.down {
                            lane.checkpoint = Some(lane.ingest.gateway().snapshot());
                            *checkpoints += 1;
                            events.push(LaneEventRecord {
                                at,
                                lane: idx,
                                event: LaneEvent::Checkpoint,
                            });
                        }
                    }
                    _ => {}
                }
            }
            let lane = &mut lanes[idx];
            drain_to(lane, up_to);

            // Backhaul resolution, evaluated at poll boundaries (flush
            // attempts happen when the lane tries to reach the
            // aggregator, i.e. now).
            let lane = &mut lanes[idx];
            if plan.lane_partitioned(idx, up_to) {
                if !lane.partitioned {
                    lane.partitioned = true;
                    events.push(LaneEventRecord {
                        at: up_to,
                        lane: idx,
                        event: LaneEvent::PartitionStart,
                    });
                }
                // Existing entries just failed another flush attempt.
                let mut exhausted = 0u64;
                for (retries, _) in lane.backhaul.iter_mut() {
                    *retries += 1;
                }
                lane.backhaul.retain(|&(retries, _)| {
                    let keep = retries <= cfg.partition.max_retries;
                    if !keep {
                        exhausted += 1;
                    }
                    keep
                });
                lane.shed += exhausted;
                // Park this poll's reports, bounded.
                while let Some(report) = lane.queue.pop() {
                    if lane.backhaul.len() < cfg.partition.buffer {
                        lane.backhaul.push_back((0, report));
                    } else {
                        lane.shed += 1;
                    }
                }
            } else {
                if lane.partitioned {
                    lane.partitioned = false;
                    events.push(LaneEventRecord {
                        at: up_to,
                        lane: idx,
                        event: LaneEvent::PartitionEnd {
                            flushed: lane.backhaul.len(),
                        },
                    });
                }
                batch.extend(lane.backhaul.drain(..).map(|(_, r)| r));
                lane.queue.drain_into(batch);
            }
        }

        // Aggregator admission control under overload: earliest
        // ordinals first, the rest shed. The sort only happens when a
        // cap is active, so fault-free polls keep the historical batch
        // order byte-for-byte (the aggregator's output is order-
        // independent anyway — this is belt and braces).
        if let Some(cap) = plan.overload_cap(up_to) {
            if batch.len() > cap {
                batch.sort_by_key(|r| r.ordinal);
                for report in batch.drain(cap..) {
                    lanes[report.gateway].shed += 1;
                }
            }
        }

        events.sort_by_key(|e| (e.at, e.lane));
        let _scope = ProfScope::new("cluster.aggregate");
        agg.round(batch, workers)
    }

    /// Evict devices unheard for [`ClusterConfig::stale_after`];
    /// returns the evicted ids, **sorted ascending**.
    ///
    /// The sort is part of the determinism contract, not a courtesy:
    /// scenario sinks fold the returned ids into run digests and trace
    /// events, so the order must be identical across worker counts and
    /// platforms. The underlying device table is a `HashMap` whose
    /// iteration order is unspecified — the explicit sort (in
    /// [`ClusterAggregator::evict_stale`]) is what makes the result
    /// stable. Never expose unsorted ids from this path.
    pub fn evict_stale(&mut self, now: Instant) -> Vec<u32> {
        self.agg.evict_stale(now, self.cfg.stale_after)
    }

    /// Forget cluster-wide dedup state at a sequence-epoch boundary
    /// (pair with [`wile::monitor::Gateway::clear_dedup`] on each
    /// lane's gateway).
    pub fn clear_dedup(&mut self) {
        self.agg.clear_dedup();
        for lane in &mut self.lanes {
            lane.ingest.gateway_mut().clear_dedup();
        }
    }

    /// Snapshot every counter the cluster keeps: per-lane hears, queue
    /// drops and high-water marks, election wins and suppressions,
    /// plus cluster totals. The snapshot satisfies
    /// [`ClusterStats::conserves_offered_load`] after every poll.
    pub fn stats(&self) -> ClusterStats {
        let mut s = self.agg.stats_snapshot();
        for (i, lane) in self.lanes.iter().enumerate() {
            s.lanes[i].hears = lane.hears;
            s.lanes[i].queue_drops = lane.queue.drops();
            s.lanes[i].queue_high_water = lane.queue.high_water();
            s.lanes[i].shed = lane.shed;
            s.lanes[i].lost_in_crash = lane.lost_in_crash;
            s.lanes[i].crashes = lane.crashes;
            s.lanes[i].restarts = lane.restarts;
            s.lanes[i].backhaul_buffered = lane.backhaul.len();
        }
        s.checkpoints = self.checkpoints;
        s
    }

    /// Start recording per-round election metrics (group sizes, win
    /// RSSI) inside the aggregator; they surface through
    /// [`record_telemetry`](GatewayCluster::record_telemetry).
    pub fn enable_telemetry(&mut self) {
        self.agg.enable_telemetry();
    }

    /// Dump everything the cluster counted into `reg` as absolute
    /// values: the [`ClusterStats`] terms (see
    /// [`ClusterStats::record_telemetry`]), each lane's gateway-pipeline
    /// counters (labelled `lane=<i>`), and — when
    /// [`enable_telemetry`](GatewayCluster::enable_telemetry) was
    /// called — the aggregator's election histograms. Counters and
    /// gauges are set, not added, so repeat calls do not double-count;
    /// the election histograms merge by addition, so dump them into a
    /// fresh registry (or call once at end of run).
    pub fn record_telemetry(&self, reg: &mut Registry) {
        self.stats().record_telemetry(reg);
        for (i, lane) in self.lanes.iter().enumerate() {
            lane.ingest
                .gateway()
                .record_telemetry(reg, &[("lane", LabelValue::from(i))]);
        }
        if let Some(elections) = self.agg.telemetry() {
            reg.merge_from(elections);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wile::inject::Injector;
    use wile::monitor::Gateway;
    use wile::registry::DeviceIdentity;
    use wile_radio::medium::{Medium, RadioConfig};

    /// Two gateways 1 m / 9 m from a device at the origin-adjacent
    /// position: both hear it, lane 0 louder.
    fn world() -> (Medium, GatewayCluster, wile_radio::medium::RadioId) {
        let mut medium = Medium::new(Default::default(), 11);
        let near = medium.attach(RadioConfig::default());
        let far = medium.attach(RadioConfig {
            position_m: (8.0, 0.0),
            ..Default::default()
        });
        let dev = medium.attach(RadioConfig {
            position_m: (1.0, 0.0),
            ..Default::default()
        });
        let mut cluster = GatewayCluster::new(ClusterConfig::default());
        cluster.add_gateway(GatewayIngest::new(near, Gateway::new()));
        cluster.add_gateway(GatewayIngest::new(far, Gateway::new()));
        (medium, cluster, dev)
    }

    #[test]
    fn overlapping_gateways_deliver_once_and_conserve() {
        let (mut medium, mut cluster, dev) = world();
        let mut inj = Injector::new(DeviceIdentity::new(5), Instant::ZERO);
        inj.inject(&mut medium, dev, b"reading-a");
        inj.inject(&mut medium, dev, b"reading-b");
        let got = cluster.poll(&mut medium, None, Instant::from_secs(5), 1, None);
        assert_eq!(got.len(), 2, "two messages, each delivered once");
        assert!(got.windows(2).all(|w| w[0].at <= w[1].at));
        let stats = cluster.stats();
        assert_eq!(stats.delivered, 2);
        assert_eq!(stats.lanes[0].hears, 2);
        assert_eq!(stats.lanes[1].hears, 2);
        assert_eq!(stats.lanes[0].wins, 2, "nearer gateway wins the election");
        assert_eq!(stats.lanes[1].suppressions, 2);
        assert!(stats.conserves_offered_load());
        assert_eq!(cluster.owner_of(5), Some(0));
    }

    #[test]
    fn bounded_queue_drops_are_counted_and_conserved() {
        let mut medium = Medium::new(Default::default(), 11);
        let gw = medium.attach(RadioConfig::default());
        let dev = medium.attach(RadioConfig {
            position_m: (1.0, 0.0),
            ..Default::default()
        });
        let mut cluster = GatewayCluster::new(ClusterConfig {
            queue_capacity: Some(3),
            ..Default::default()
        });
        cluster.add_gateway(GatewayIngest::new(gw, Gateway::new()));
        let mut inj = Injector::new(DeviceIdentity::new(5), Instant::ZERO);
        for n in 0..8 {
            inj.inject(&mut medium, dev, format!("m{n}").as_bytes());
        }
        let got = cluster.poll(&mut medium, None, Instant::from_secs(60), 1, None);
        assert_eq!(got.len(), 3, "queue bound caps one poll's deliveries");
        let stats = cluster.stats();
        assert_eq!(stats.lanes[0].hears, 8);
        assert_eq!(stats.lanes[0].queue_drops, 5);
        assert_eq!(stats.lanes[0].queue_high_water, 3);
        assert!(stats.conserves_offered_load());
    }

    #[test]
    fn record_telemetry_snapshots_and_conserves() {
        let (mut medium, mut cluster, dev) = world();
        cluster.enable_telemetry();
        let mut inj = Injector::new(DeviceIdentity::new(5), Instant::ZERO);
        inj.inject(&mut medium, dev, b"reading-a");
        inj.inject(&mut medium, dev, b"reading-b");
        cluster.poll(&mut medium, None, Instant::from_secs(5), 1, None);
        let mut reg = Registry::new();
        cluster.record_telemetry(&mut reg);
        let lane0 = [("lane", LabelValue::from(0usize))];
        assert_eq!(reg.counter("cluster.lane.hears", &lane0), Some(2));
        assert_eq!(reg.counter("cluster.delivered", &[]), Some(2));
        assert_eq!(reg.counter("cluster.conservation.holds", &[]), Some(1));
        // Both messages elected from two-report groups.
        let h = reg
            .histogram("cluster.election.group_size", &[])
            .expect("election histogram recorded");
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 4);
        // Absolute semantics: a second dump does not double-count
        // counters.
        cluster.record_telemetry(&mut reg);
        assert_eq!(reg.counter("cluster.delivered", &[]), Some(2));
    }

    #[test]
    fn stale_devices_evict_via_config() {
        let (mut medium, mut cluster, dev) = world();
        let mut inj = Injector::new(DeviceIdentity::new(5), Instant::ZERO);
        inj.inject(&mut medium, dev, b"only");
        cluster.poll(&mut medium, None, Instant::from_secs(5), 1, None);
        assert!(cluster.evict_stale(Instant::from_secs(100)).is_empty());
        assert_eq!(cluster.evict_stale(Instant::from_secs(2_000)), vec![5]);
        assert_eq!(cluster.owner_of(5), None);
    }

    #[test]
    fn evict_stale_returns_sorted_ids() {
        // The determinism contract: ids come back ascending no matter
        // what order the HashMap would iterate them (digests and trace
        // events depend on this).
        let (mut medium, mut cluster, dev) = world();
        for (n, id) in [9u32, 3, 7, 20, 1].into_iter().enumerate() {
            // Staggered so the beacons don't collide on the air.
            let mut inj = Injector::new(DeviceIdentity::new(id), Instant::ZERO);
            inj.sleep_until(Instant::ZERO + Duration::from_ms(500 * n as u64));
            inj.inject(&mut medium, dev, b"x");
        }
        cluster.poll(&mut medium, None, Instant::from_secs(5), 1, None);
        assert_eq!(
            cluster.evict_stale(Instant::from_secs(2_000)),
            vec![1, 3, 7, 9, 20]
        );
    }

    fn crash_phase(lane: usize, a: u64, b: u64) -> crate::faults::ClusterFaultPhase {
        crate::faults::ClusterFaultPhase::new(
            Instant::from_secs(a),
            Instant::from_secs(b),
            crate::faults::ClusterDisturbance::LaneCrash { lane },
            format!("crash-{lane}"),
        )
    }

    #[test]
    fn lane_crash_destroys_discards_and_recovers_elsewhere() {
        let (mut medium, mut cluster, dev) = world();
        let mut inj = Injector::new(DeviceIdentity::new(5), Instant::ZERO);
        cluster.set_faults(ClusterFaultPlan::new(vec![crash_phase(0, 10, 30)]));

        // Before the crash: lane 0 (nearer) wins and owns the device.
        inj.inject(&mut medium, dev, b"a"); // ~0.5 s
        cluster.poll(&mut medium, None, Instant::from_secs(5), 1, None);
        assert_eq!(cluster.owner_of(5), Some(0));

        // "c" lands pre-crash but is only polled after: it dies in
        // lane 0's queue at the crash. "b" lands inside the window:
        // lane 0's radio hears it but nothing behind it is alive.
        inj.sleep_until(Instant::from_secs(8));
        inj.inject(&mut medium, dev, b"c");
        inj.sleep_until(Instant::from_secs(12));
        inj.inject(&mut medium, dev, b"b");
        let got = cluster.poll(&mut medium, None, Instant::from_secs(35), 1, None);
        assert_eq!(got.len(), 2, "lane 1 keeps both messages flowing");
        assert!(got.iter().all(|d| d.gateway == 1));

        let s = cluster.stats();
        assert_eq!(s.lanes[0].hears, 2, "'a' and pre-crash 'c'");
        assert_eq!(s.lanes[0].lost_in_crash, 1, "'c' died in the queue");
        assert_eq!(s.lanes[0].crashes, 1);
        assert_eq!(s.lanes[0].restarts, 1);
        assert_eq!(s.lanes[1].hears, 3);
        assert_eq!(s.delivered, 3);
        assert_eq!(s.recovered, 1, "orphaned device re-adopted by lane 1");
        assert_eq!(cluster.owner_of(5), Some(1));
        assert!(s.conserves_offered_load());

        let events = cluster.take_lane_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].at, Instant::from_secs(10));
        assert_eq!(
            events[0].event,
            LaneEvent::Down {
                lost: 1,
                orphaned: vec![5]
            }
        );
        assert_eq!(events[1].at, Instant::from_secs(30));
        assert_eq!(events[1].event, LaneEvent::Up { restored: false });
        assert!(cluster.take_lane_events().is_empty(), "events drain once");
    }

    /// One gateway + one device; returns (medium, cluster, dev radio).
    fn solo(cfg: ClusterConfig) -> (Medium, GatewayCluster, wile_radio::medium::RadioId) {
        let mut medium = Medium::new(Default::default(), 11);
        let gw = medium.attach(RadioConfig::default());
        let dev = medium.attach(RadioConfig {
            position_m: (1.0, 0.0),
            ..Default::default()
        });
        let mut cluster = GatewayCluster::new(cfg);
        cluster.add_gateway(GatewayIngest::new(gw, Gateway::new()));
        (medium, cluster, dev)
    }

    #[test]
    fn checkpoint_restore_resumes_warm_cold_restart_does_not() {
        use wile::message::Message;
        let run = |checkpoint_every: Option<Duration>| {
            let (mut medium, mut cluster, dev) = solo(ClusterConfig {
                checkpoint_every,
                ..Default::default()
            });
            cluster.set_faults(ClusterFaultPlan::new(vec![crash_phase(0, 15, 25)]));
            let mut inj = Injector::new(DeviceIdentity::new(5), Instant::ZERO);
            inj.inject(&mut medium, dev, b"m0"); // seq 0, ~0.5 s
            cluster.poll(&mut medium, None, Instant::from_secs(5), 1, None);
            // After the restart, the device's repeat copy of seq 0
            // arrives (application-level replay).
            inj.sleep_until(Instant::from_secs(30));
            inj.inject_message(&mut medium, dev, &Message::new(5, 0, b"m0"));
            cluster.poll(&mut medium, None, Instant::from_secs(40), 1, None);
            let s = cluster.stats();
            assert!(s.conserves_offered_load());
            assert_eq!(s.delivered, 1, "at-most-once regardless of restore mode");
            (s, cluster.take_lane_events())
        };

        // Warm: the 10 s checkpoint remembered (5, seq 0); the restored
        // gateway suppresses the replay locally — it never becomes a
        // cluster hear.
        let (warm, warm_events) = run(Some(Duration::from_secs(10)));
        assert_eq!(warm.lanes[0].hears, 1);
        assert_eq!(warm.total_suppressions(), 0);
        assert!(warm.checkpoints >= 1);
        assert!(warm_events
            .iter()
            .any(|e| e.event == LaneEvent::Up { restored: true }));
        assert!(warm_events
            .iter()
            .any(|e| e.at == Instant::from_secs(10) && e.event == LaneEvent::Checkpoint));
        // The down lane is not checkpointed mid-window.
        assert!(!warm_events
            .iter()
            .any(|e| e.at == Instant::from_secs(20) && e.event == LaneEvent::Checkpoint));

        // Cold: the replay re-enters the pipeline and the (never
        // crashed) aggregator suppresses it instead.
        let (cold, cold_events) = run(None);
        assert_eq!(cold.lanes[0].hears, 2);
        assert_eq!(cold.total_suppressions(), 1);
        assert_eq!(cold.checkpoints, 0);
        assert!(cold_events
            .iter()
            .any(|e| e.event == LaneEvent::Up { restored: false }));
    }

    #[test]
    fn partition_parks_reports_then_flushes_in_order() {
        let (mut medium, mut cluster, dev) = solo(ClusterConfig::default());
        cluster.set_faults(ClusterFaultPlan::new(vec![
            crate::faults::ClusterFaultPhase::new(
                Instant::from_secs(10),
                Instant::from_secs(40),
                crate::faults::ClusterDisturbance::BackhaulPartition { lane: 0 },
                "cut",
            ),
        ]));
        let mut inj = Injector::new(DeviceIdentity::new(5), Instant::ZERO);
        inj.inject(&mut medium, dev, b"p0");
        let got = cluster.poll(&mut medium, None, Instant::from_secs(5), 1, None);
        assert_eq!(got.len(), 1);

        // Two polls inside the partition: reports park, nothing
        // delivers, and the buffered term keeps conservation honest.
        inj.sleep_until(Instant::from_secs(12));
        inj.inject(&mut medium, dev, b"p1");
        assert!(cluster
            .poll(&mut medium, None, Instant::from_secs(20), 1, None)
            .is_empty());
        inj.sleep_until(Instant::from_secs(25));
        inj.inject(&mut medium, dev, b"p2");
        assert!(cluster
            .poll(&mut medium, None, Instant::from_secs(30), 1, None)
            .is_empty());
        let s = cluster.stats();
        assert_eq!(s.lanes[0].backhaul_buffered, 2);
        assert_eq!(s.delivered, 1);
        assert!(s.conserves_offered_load());

        // Heal: the backlog flushes oldest-first and delivers.
        let got = cluster.poll(&mut medium, None, Instant::from_secs(45), 1, None);
        assert_eq!(got.len(), 2);
        assert_eq!((got[0].seq, got[1].seq), (1, 2), "oldest first");
        let s = cluster.stats();
        assert_eq!(s.lanes[0].backhaul_buffered, 0);
        assert_eq!(s.delivered, 3);
        assert!(s.conserves_offered_load());
        let events = cluster.take_lane_events();
        assert!(events
            .iter()
            .any(|e| e.event == LaneEvent::PartitionStart && e.at == Instant::from_secs(20)));
        assert!(events
            .iter()
            .any(|e| e.event == LaneEvent::PartitionEnd { flushed: 2 }
                && e.at == Instant::from_secs(45)));
    }

    #[test]
    fn partition_retry_exhaustion_sheds_with_accounting() {
        let (mut medium, mut cluster, dev) = solo(ClusterConfig {
            partition: PartitionPolicy {
                buffer: 8192,
                max_retries: 1,
            },
            ..Default::default()
        });
        cluster.set_faults(ClusterFaultPlan::new(vec![
            crate::faults::ClusterFaultPhase::new(
                Instant::from_secs(10),
                Instant::from_secs(100),
                crate::faults::ClusterDisturbance::BackhaulPartition { lane: 0 },
                "long-cut",
            ),
        ]));
        let mut inj = Injector::new(DeviceIdentity::new(5), Instant::ZERO);
        inj.sleep_until(Instant::from_secs(12));
        inj.inject(&mut medium, dev, b"q0");
        // Parked at 20 (0 retries), survives 30 (1 retry), shed at 40
        // (2 > max_retries).
        for t in [20, 30, 40] {
            assert!(cluster
                .poll(&mut medium, None, Instant::from_secs(t), 1, None)
                .is_empty());
        }
        let s = cluster.stats();
        assert_eq!(s.lanes[0].shed, 1);
        assert_eq!(s.lanes[0].backhaul_buffered, 0);
        assert_eq!(s.delivered, 0, "nothing ever delivered");
        assert!(s.conserves_offered_load());
        // The heal flushes nothing: the report is gone, with receipts.
        assert!(cluster
            .poll(&mut medium, None, Instant::from_secs(110), 1, None)
            .is_empty());
        assert!(cluster.stats().conserves_offered_load());
    }

    #[test]
    fn overload_admission_control_sheds_above_cap() {
        let (mut medium, mut cluster, dev) = solo(ClusterConfig::default());
        cluster.set_faults(ClusterFaultPlan::new(vec![
            crate::faults::ClusterFaultPhase::new(
                Instant::ZERO,
                Instant::from_secs(100),
                crate::faults::ClusterDisturbance::AggregatorOverload { admit_per_round: 2 },
                "melt",
            ),
        ]));
        let mut inj = Injector::new(DeviceIdentity::new(5), Instant::ZERO);
        for n in 0..5 {
            inj.inject(&mut medium, dev, format!("m{n}").as_bytes());
        }
        let got = cluster.poll(&mut medium, None, Instant::from_secs(50), 1, None);
        assert_eq!(got.len(), 2, "cap admits the two earliest ordinals");
        assert_eq!((got[0].seq, got[1].seq), (0, 1));
        let s = cluster.stats();
        assert_eq!(s.lanes[0].hears, 5);
        assert_eq!(s.lanes[0].shed, 3);
        assert!(s.conserves_offered_load());
    }

    #[test]
    fn empty_fault_plan_is_identical_to_no_plan() {
        let run = |with_plan: bool| {
            let (mut medium, mut cluster, dev) = world();
            if with_plan {
                cluster.set_faults(ClusterFaultPlan::empty());
            }
            let mut inj = Injector::new(DeviceIdentity::new(5), Instant::ZERO);
            let mut deliveries = Vec::new();
            for n in 0u64..6 {
                inj.inject(&mut medium, dev, format!("m{n}").as_bytes());
                inj.sleep_until(Instant::from_secs(10 * (n + 1)));
                deliveries.extend(cluster.poll(
                    &mut medium,
                    None,
                    Instant::from_secs(10 * (n + 1)),
                    1,
                    None,
                ));
            }
            (deliveries, cluster.stats())
        };
        assert_eq!(run(true), run(false));
    }
}
