//! Cross-gateway aggregation: sharded dedup, best-RSSI election, and
//! roaming with hysteresis.
//!
//! N gateways with overlapping coverage all hear the same beacon; the
//! aggregator is the stage that turns those N observations into exactly
//! one cluster-wide delivery. It works in **rounds**: each round takes
//! the batch of [`GatewayReport`]s drained from every lane queue,
//! shards it by device across the deterministic parallel engine
//! ([`wile_sim::engine::run_cells`]), where each shard elects a winner
//! per message and updates its own devices in place, and merges the
//! per-shard counters back in shard order — so the result is
//! byte-identical at any worker count.
//!
//! ## Election
//!
//! Reports for one device are processed in `(arrival, ordinal)` order.
//! Copies of the *same transmission* share an arrival instant (the
//! medium stamps every receiver with the end-of-PPDU time), so they
//! form one election group: the strongest RSSI wins (ties: lowest lane,
//! then lowest enqueue ordinal), the rest are dedup suppressions
//! charged to their own lanes. A later group with an already-seen
//! sequence number — an application-level repeat copy, or a straggler
//! arriving a round late — is suppressed outright, which is exactly the
//! single-gateway `Gateway` dedup semantic lifted cluster-wide.
//!
//! ## Roaming
//!
//! Each device has an owning gateway (the lane expected to serve its
//! downlink). Ownership follows delivery elections but with
//! **hysteresis**: a challenger must beat the incumbent's RSSI for the
//! same message by [`RoamingConfig::hysteresis_db`] *and* the incumbent
//! must have held the device for [`RoamingConfig::min_dwell`] — unless
//! the incumbent did not hear the message at all, in which case the
//! handoff is immediate. Flapping RSSI near the cell boundary therefore
//! cannot thrash ownership, but a device walking out of a dead
//! gateway's cell is re-homed on the next delivery.
//!
//! ## Sharding invariant
//!
//! All aggregation state is keyed by device, and a device maps to
//! exactly one shard (a pure hash of its id — **not** of the worker
//! count). Each shard owns its devices' table and its slice of the
//! round behind its own lock, and a round's cell for shard `s` locks
//! only shard `s`, so no two cells touch the same state and no lock is
//! ever contended. Workers only decide which thread executes which
//! shard; the counters merge back in shard order and the deliveries
//! are sorted by `(arrival, device, seq)`, so `WILE_WORKERS=1/2/8`
//! produce byte-identical results (`tests/cluster_diff.rs` asserts it
//! end to end).

use crate::report::{ClusterDelivery, GatewayReport};
use std::collections::hash_map::{Entry, HashMap};
use std::sync::Mutex;
use wile::seqset::SeqSet;
use wile_radio::time::{Duration, Instant};
use wile_sim::engine::run_cells;
use wile_telemetry::{LabelValue, Registry};

/// Roaming/handoff tuning.
#[derive(Debug, Clone, Copy)]
pub struct RoamingConfig {
    /// How many dB stronger a challenger must hear a message than the
    /// incumbent owner before ownership moves (when both heard it).
    pub hysteresis_db: f64,
    /// Minimum time a gateway holds a device before a
    /// stronger-challenger handoff may occur (waived when the incumbent
    /// goes deaf to the device).
    pub min_dwell: Duration,
}

impl Default for RoamingConfig {
    fn default() -> Self {
        RoamingConfig {
            hysteresis_db: 6.0,
            min_dwell: Duration::from_secs(30),
        }
    }
}

/// Per-lane (per-gateway) counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Reports the gateway pipeline offered to the cluster (post
    /// per-gateway dedup, pre queue).
    pub hears: u64,
    /// Reports dropped at this lane's bounded queue (backpressure).
    pub queue_drops: u64,
    /// Deepest this lane's queue has ever been.
    pub queue_high_water: usize,
    /// Deliveries this lane's report won.
    pub wins: u64,
    /// Reports dequeued but suppressed as cross-gateway duplicates.
    pub suppressions: u64,
    /// Reports shed by fault machinery with accounting: backhaul
    /// buffer overflow, retry exhaustion during a partition, or
    /// aggregator admission control under overload.
    pub shed: u64,
    /// Reports destroyed in this lane's queue or backhaul buffer when
    /// its process crashed.
    pub lost_in_crash: u64,
    /// Crash windows this lane has entered.
    pub crashes: u64,
    /// Restarts (crash windows exited; ≤ `crashes` mid-window).
    pub restarts: u64,
    /// Reports currently parked in the lane's partition backhaul
    /// buffer — in flight, neither delivered nor lost yet. Zero
    /// whenever no partition is active.
    pub backhaul_buffered: usize,
}

/// A structured snapshot of everything the cluster counted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Per-gateway counters, by lane index.
    pub lanes: Vec<LaneStats>,
    /// Messages delivered cluster-wide (exactly once each).
    pub delivered: u64,
    /// Ownership handoffs between gateways.
    pub handoffs: u64,
    /// Devices evicted as stale.
    pub evicted: u64,
    /// Devices currently tracked (heard at least once, not evicted).
    pub devices_tracked: usize,
    /// Orphaned devices re-adopted by a delivery election after their
    /// owning lane crashed.
    pub recovered: u64,
    /// Checkpoints the cluster has taken across all lanes.
    pub checkpoints: u64,
}

impl ClusterStats {
    /// Total reports offered by all gateway pipelines.
    pub fn total_hears(&self) -> u64 {
        self.lanes.iter().map(|l| l.hears).sum()
    }

    /// Total reports dropped by lane queues.
    pub fn total_drops(&self) -> u64 {
        self.lanes.iter().map(|l| l.queue_drops).sum()
    }

    /// Total cross-gateway dedup suppressions.
    pub fn total_suppressions(&self) -> u64 {
        self.lanes.iter().map(|l| l.suppressions).sum()
    }

    /// Total reports shed by fault machinery (partitions + overload).
    pub fn total_shed(&self) -> u64 {
        self.lanes.iter().map(|l| l.shed).sum()
    }

    /// Total reports destroyed in lane crashes.
    pub fn total_lost_in_crash(&self) -> u64 {
        self.lanes.iter().map(|l| l.lost_in_crash).sum()
    }

    /// Total reports currently parked in partition backhaul buffers.
    pub fn total_buffered(&self) -> u64 {
        self.lanes.iter().map(|l| l.backhaul_buffered as u64).sum()
    }

    /// Deepest any lane queue has ever been.
    pub fn max_queue_high_water(&self) -> usize {
        self.lanes
            .iter()
            .map(|l| l.queue_high_water)
            .max()
            .unwrap_or(0)
    }

    /// The extended conservation law the whole subsystem is audited
    /// against: every offered report is delivered, suppressed, dropped
    /// at a queue, shed by fault machinery, destroyed in a crash, or
    /// still parked in a partition backhaul buffer — nothing vanishes,
    /// nothing is double-counted. With no fault layer (or an empty
    /// plan) every fault term is zero and this degenerates to PR 5's
    /// `delivered + suppressions + queue_drops == hears`.
    pub fn conserves_offered_load(&self) -> bool {
        self.delivered
            + self.total_suppressions()
            + self.total_drops()
            + self.total_shed()
            + self.total_lost_in_crash()
            + self.total_buffered()
            == self.total_hears()
    }

    /// Dump these counters into `reg` as absolute values: per-lane
    /// queue, election and fault counters (labelled `lane=<i>`), the
    /// cluster totals, and the conservation-law terms. Counters and
    /// gauges are set, not added, so repeat calls do not double-count.
    pub fn record_telemetry(&self, reg: &mut Registry) {
        for (i, lane) in self.lanes.iter().enumerate() {
            let labels = [("lane", LabelValue::from(i))];
            reg.counter_set("cluster.lane.hears", &labels, lane.hears);
            reg.counter_set("cluster.lane.queue_drops", &labels, lane.queue_drops);
            reg.counter_set("cluster.lane.wins", &labels, lane.wins);
            reg.counter_set("cluster.lane.suppressions", &labels, lane.suppressions);
            reg.counter_set("cluster.lane.shed", &labels, lane.shed);
            reg.counter_set("cluster.lane.lost_in_crash", &labels, lane.lost_in_crash);
            reg.counter_set("cluster.lane.crashes", &labels, lane.crashes);
            reg.counter_set("cluster.lane.restarts", &labels, lane.restarts);
            reg.gauge_set(
                "cluster.lane.queue.high_water",
                &labels,
                lane.queue_high_water as i64,
            );
            reg.gauge_set(
                "cluster.lane.backhaul.buffered",
                &labels,
                lane.backhaul_buffered as i64,
            );
        }
        reg.counter_set("cluster.delivered", &[], self.delivered);
        reg.counter_set("cluster.handoffs", &[], self.handoffs);
        reg.counter_set("cluster.evicted", &[], self.evicted);
        reg.counter_set("cluster.recovered", &[], self.recovered);
        reg.counter_set("cluster.checkpoints", &[], self.checkpoints);
        reg.gauge_set("cluster.devices_tracked", &[], self.devices_tracked as i64);
        // The extended conservation law, as first-class terms:
        // delivered + suppressions + drops + shed + lost_in_crash +
        // buffered == hears must hold after every poll.
        reg.counter_set("cluster.conservation.hears", &[], self.total_hears());
        reg.counter_set("cluster.conservation.drops", &[], self.total_drops());
        reg.counter_set(
            "cluster.conservation.suppressions",
            &[],
            self.total_suppressions(),
        );
        reg.counter_set("cluster.conservation.delivered", &[], self.delivered);
        reg.counter_set("cluster.conservation.shed", &[], self.total_shed());
        reg.counter_set(
            "cluster.conservation.lost_in_crash",
            &[],
            self.total_lost_in_crash(),
        );
        reg.counter_set("cluster.conservation.buffered", &[], self.total_buffered());
        reg.counter_set(
            "cluster.conservation.holds",
            &[],
            u64::from(self.conserves_offered_load()),
        );
    }
}

/// Everything the aggregator remembers about one device.
#[derive(Debug)]
struct DeviceState {
    /// Sequence numbers delivered cluster-wide (cleared per epoch via
    /// [`ClusterAggregator::clear_dedup`]; seqs wrap at 65536).
    seen: SeqSet,
    /// Owning lane.
    owner: usize,
    /// When the current owner acquired the device.
    owner_since: Instant,
    /// Last time any gateway heard the device (delivered or not).
    last_heard: Instant,
    /// The owning lane crashed since the last delivery: ownership is
    /// provisional and the next delivery election re-elects it
    /// unconditionally (dwell and hysteresis waived).
    orphaned: bool,
}

/// One shard: the devices that hash to it, and its slice of the
/// current round. The report list is empty between rounds; only its
/// allocation persists. The device table keeps `std`'s keyed SipHash:
/// device ids come off the wire, and a fixed hasher would let a sender
/// pick colliding ids.
#[derive(Debug, Default)]
struct Shard {
    devices: HashMap<u32, DeviceState>,
    reports: Vec<GatewayReport>,
}

/// What one shard computed from its slice of a round, merged back in
/// shard order.
struct ShardOutcome {
    deliveries: Vec<ClusterDelivery>,
    wins: Vec<u64>,
    suppressions: Vec<u64>,
    handoffs: u64,
    recoveries: u64,
    /// Per-shard telemetry (election group sizes, win RSSI), built only
    /// when the aggregator has telemetry enabled. Shards never share a
    /// registry; the owner merges these back **in shard order**, so the
    /// merged snapshot is identical at any worker count.
    metrics: Option<Registry>,
}

/// A device's shard: a fixed multiplicative hash of its id. Depends on
/// the shard count only — never on workers — so the partition (and
/// therefore every result) is stable across worker settings.
fn shard_of(device_id: u32, shards: usize) -> usize {
    (device_id.wrapping_mul(0x9E37_79B1) >> 16) as usize % shards
}

/// The cross-gateway aggregation stage. See the module docs for the
/// election, roaming, and sharding semantics.
#[derive(Debug)]
pub struct ClusterAggregator {
    roaming: RoamingConfig,
    /// One lock per shard. A round's cell for shard `s` locks only
    /// `shards[s]`; everything outside a round goes through `get_mut`
    /// or an uncontended `lock`.
    shards: Vec<Mutex<Shard>>,
    wins: Vec<u64>,
    suppressions: Vec<u64>,
    delivered: u64,
    handoffs: u64,
    evicted: u64,
    recovered: u64,
    /// When present, rounds record election-shape metrics here (merged
    /// from per-shard registries in shard order).
    telemetry: Option<Registry>,
}

impl ClusterAggregator {
    /// An aggregator for `lanes` gateways, sharding rounds `shards`
    /// ways (≥ 1).
    pub fn new(lanes: usize, shards: usize, roaming: RoamingConfig) -> Self {
        assert!(shards >= 1, "at least one shard");
        ClusterAggregator {
            roaming,
            shards: (0..shards).map(|_| Mutex::default()).collect(),
            wins: vec![0; lanes],
            suppressions: vec![0; lanes],
            delivered: 0,
            handoffs: 0,
            evicted: 0,
            recovered: 0,
            telemetry: None,
        }
    }

    /// Start recording election-shape metrics (group sizes, win RSSI)
    /// into an internal registry; read it back with
    /// [`telemetry`](ClusterAggregator::telemetry).
    pub fn enable_telemetry(&mut self) {
        if self.telemetry.is_none() {
            self.telemetry = Some(Registry::new());
        }
    }

    /// The accumulated election metrics, if
    /// [`enable_telemetry`](ClusterAggregator::enable_telemetry) was
    /// called.
    pub fn telemetry(&self) -> Option<&Registry> {
        self.telemetry.as_ref()
    }

    /// Grow the lane count by one (gateway registration order).
    pub fn add_lane(&mut self) -> usize {
        self.wins.push(0);
        self.suppressions.push(0);
        self.wins.len() - 1
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.wins.len()
    }

    /// The lane currently owning `device_id`, if it is tracked.
    pub fn owner_of(&self, device_id: u32) -> Option<usize> {
        let shard = lock(&self.shards[shard_of(device_id, self.shards.len())]);
        shard.devices.get(&device_id).map(|d| d.owner)
    }

    /// Messages delivered cluster-wide so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Ownership handoffs so far.
    pub fn handoffs(&self) -> u64 {
        self.handoffs
    }

    /// Devices evicted as stale so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Orphaned devices re-adopted by a delivery election so far.
    pub fn recovered(&self) -> u64 {
        self.recovered
    }

    /// Mark every device owned by `lane` as orphaned: its owner's
    /// process died, so the next delivery election re-elects ownership
    /// with dwell and hysteresis waived (the recovery path). Dedup
    /// state is untouched — the aggregator never crashes in this model,
    /// which is what keeps cluster-wide at-most-once intact across lane
    /// crashes. Returns the orphaned ids, **sorted** (feeds digests and
    /// reports; same determinism contract as
    /// [`evict_stale`](ClusterAggregator::evict_stale)).
    pub fn orphan_lane(&mut self, lane: usize) -> Vec<u32> {
        let mut ids = Vec::new();
        for shard in &mut self.shards {
            for (&id, d) in &mut shard_mut(shard).devices {
                if d.owner == lane {
                    d.orphaned = true;
                    ids.push(id);
                }
            }
        }
        ids.sort_unstable();
        ids
    }

    /// Devices currently tracked.
    pub fn devices_tracked(&self) -> usize {
        self.shards.iter().map(|s| lock(s).devices.len()).sum()
    }

    /// Per-lane election wins.
    pub fn lane_wins(&self) -> &[u64] {
        &self.wins
    }

    /// Per-lane dedup suppressions.
    pub fn lane_suppressions(&self) -> &[u64] {
        &self.suppressions
    }

    /// Run one aggregation round over `batch` with up to `workers`
    /// threads, draining `batch` (the caller keeps the allocation for
    /// the next poll). Each report moves into its device's shard, and
    /// each shard folds its reports into its own device table in place
    /// (`process_shard`), one [`run_cells`] cell per shard. Returns
    /// the elected deliveries sorted by `(arrival, device, seq)` —
    /// byte-identical for any `workers`.
    pub fn round(
        &mut self,
        batch: &mut Vec<GatewayReport>,
        workers: usize,
    ) -> Vec<ClusterDelivery> {
        if batch.is_empty() {
            return Vec::new();
        }
        let lanes = self.lanes();
        let n = self.shards.len();
        for r in batch.drain(..) {
            shard_mut(&mut self.shards[shard_of(r.device_id, n)])
                .reports
                .push(r);
        }
        let shards = &self.shards;
        let roaming = &self.roaming;
        let instrumented = self.telemetry.is_some();
        let outcomes = run_cells(n, workers.max(1), |s| {
            process_shard(&mut lock(&shards[s]), roaming, lanes, instrumented)
        });

        let mut deliveries = Vec::new();
        for out in outcomes {
            if let (Some(total), Some(shard)) = (self.telemetry.as_mut(), out.metrics.as_ref()) {
                total.merge_from(shard);
            }
            for lane in 0..lanes {
                self.wins[lane] += out.wins[lane];
                self.suppressions[lane] += out.suppressions[lane];
            }
            self.handoffs += out.handoffs;
            self.recovered += out.recoveries;
            self.delivered += out.deliveries.len() as u64;
            deliveries.extend(out.deliveries);
        }
        deliveries.sort_by_key(|d| (d.at, d.device_id, d.seq));
        deliveries
    }

    /// Evict every device no gateway has heard for `idle`; returns the
    /// evicted ids, sorted. Ownership and dedup state are forgotten —
    /// a device that comes back is re-adopted from scratch (sequence
    /// numbers will have moved on by then; mid-epoch returns that reuse
    /// a seq are indistinguishable from replays and stay suppressed at
    /// the per-gateway layer anyway).
    pub fn evict_stale(&mut self, now: Instant, idle: Duration) -> Vec<u32> {
        let mut gone = Vec::new();
        for shard in &mut self.shards {
            shard_mut(shard).devices.retain(|&id, d| {
                let stale = now.since(d.last_heard) >= idle;
                if stale {
                    gone.push(id);
                }
                !stale
            });
        }
        gone.sort_unstable();
        self.evicted += gone.len() as u64;
        gone
    }

    /// Forget cluster-wide dedup state (call per sequence epoch, like
    /// [`wile::monitor::Gateway::clear_dedup`]); ownership and
    /// last-heard clocks survive.
    pub fn clear_dedup(&mut self) {
        for shard in &mut self.shards {
            for d in shard_mut(shard).devices.values_mut() {
                d.seen.clear();
            }
        }
    }

    /// Snapshot the aggregator-side counters into a [`ClusterStats`]
    /// (queue fields are zero here; [`crate::GatewayCluster::stats`]
    /// overlays them from the lane queues).
    pub fn stats_snapshot(&self) -> ClusterStats {
        ClusterStats {
            lanes: (0..self.lanes())
                .map(|i| LaneStats {
                    wins: self.wins[i],
                    suppressions: self.suppressions[i],
                    ..Default::default()
                })
                .collect(),
            delivered: self.delivered,
            handoffs: self.handoffs,
            evicted: self.evicted,
            devices_tracked: self.devices_tracked(),
            recovered: self.recovered,
            checkpoints: 0,
        }
    }
}

/// Lock a shard. Inside a round each cell locks only its own shard,
/// and outside one nothing else holds a lock, so this never waits.
fn lock(shard: &Mutex<Shard>) -> std::sync::MutexGuard<'_, Shard> {
    shard.lock().expect("aggregator shard poisoned")
}

/// A shard, through exclusive access to the aggregator (no locking).
fn shard_mut(shard: &mut Mutex<Shard>) -> &mut Shard {
    shard.get_mut().expect("aggregator shard poisoned")
}

/// Sequentially fold one shard's reports into its device table, in
/// place: a known device's state is updated where it lives, only a new
/// device is inserted, and each winner's payload moves into its
/// delivery. Leaves the shard's report list empty.
fn process_shard(
    shard: &mut Shard,
    roaming: &RoamingConfig,
    lanes: usize,
    instrumented: bool,
) -> ShardOutcome {
    let mut out = ShardOutcome {
        deliveries: Vec::new(),
        wins: vec![0; lanes],
        suppressions: vec![0; lanes],
        handoffs: 0,
        recoveries: 0,
        metrics: instrumented.then(Registry::new),
    };
    let Shard { devices, reports } = shard;
    // One stable sort: devices fold in id order, each device's reports
    // in (arrival, ordinal) order.
    reports.sort_by_key(|r| (r.device_id, r.at, r.ordinal));
    for reps in reports.chunk_by_mut(|a, b| a.device_id == b.device_id) {
        let id = reps[0].device_id;
        // One probe per device per round: a known device's state, or
        // the slot its first delivery fills.
        let (mut state, mut vacant) = match devices.entry(id) {
            Entry::Occupied(e) => (Some(e.into_mut()), None),
            Entry::Vacant(e) => (None, Some(e)),
        };
        let mut i = 0;
        while i < reps.len() {
            // One election group: same transmission ⇒ same (seq, at).
            let (seq, at) = (reps[i].seq, reps[i].at);
            let mut j = i + 1;
            while j < reps.len() && reps[j].seq == seq && reps[j].at == at {
                j += 1;
            }
            let group = &mut reps[i..j];
            i = j;

            if let Some(s) = state.as_mut() {
                if at > s.last_heard {
                    s.last_heard = at;
                }
                if s.seen.contains(seq) {
                    for r in group.iter() {
                        out.suppressions[r.gateway] += 1;
                    }
                    if let Some(m) = out.metrics.as_mut() {
                        m.inc("cluster.election.stale_groups", &[], 1);
                    }
                    continue;
                }
            }

            // Elect: max RSSI, ties to the lowest lane then ordinal.
            let mut w = 0;
            for (k, r) in group.iter().enumerate().skip(1) {
                let win = &group[w];
                if r.rssi_dbm > win.rssi_dbm
                    || (r.rssi_dbm == win.rssi_dbm
                        && (r.gateway, r.ordinal) < (win.gateway, win.ordinal))
                {
                    w = k;
                }
            }
            for (k, r) in group.iter().enumerate() {
                if k != w {
                    out.suppressions[r.gateway] += 1;
                }
            }
            let win = &group[w];
            out.wins[win.gateway] += 1;
            if let Some(m) = out.metrics.as_mut() {
                m.observe("cluster.election.group_size", &[], group.len() as u64);
                // RSSI is negative dBm; record path attenuation
                // (-dBm, rounded) so the histogram stays in u64 space.
                m.observe(
                    "cluster.election.win_atten_db",
                    &[],
                    (-win.rssi_dbm).max(0.0).round() as u64,
                );
            }

            let handoff = match state.as_mut() {
                None => {
                    let slot = vacant
                        .take()
                        .expect("an untracked device's first group elects");
                    state = Some(slot.insert(DeviceState {
                        seen: SeqSet::from_iter([seq]),
                        owner: win.gateway,
                        owner_since: at,
                        last_heard: at,
                        orphaned: false,
                    }));
                    false
                }
                Some(s) => {
                    s.seen.insert(seq);
                    if s.orphaned {
                        // Recovery: the owner's process died since the
                        // last delivery. Re-elect unconditionally —
                        // dwell and hysteresis protect a live
                        // incumbent, and this one is (or was) dead.
                        s.orphaned = false;
                        out.recoveries += 1;
                        let moved = win.gateway != s.owner;
                        s.owner = win.gateway;
                        s.owner_since = at;
                        if moved {
                            out.handoffs += 1;
                        }
                        moved
                    } else if win.gateway == s.owner {
                        false
                    } else {
                        let incumbent_rssi = group
                            .iter()
                            .filter(|r| r.gateway == s.owner)
                            .map(|r| r.rssi_dbm)
                            .fold(None, |best: Option<f64>, r| {
                                Some(best.map_or(r, |b| if r > b { r } else { b }))
                            });
                        let moves = match incumbent_rssi {
                            // Incumbent deaf to this message: re-home now.
                            None => true,
                            Some(inc) => {
                                win.rssi_dbm > inc + roaming.hysteresis_db
                                    && at.since(s.owner_since) >= roaming.min_dwell
                            }
                        };
                        if moves {
                            s.owner = win.gateway;
                            s.owner_since = at;
                            out.handoffs += 1;
                        }
                        moves
                    }
                }
            };

            let win = &mut group[w];
            out.deliveries.push(ClusterDelivery {
                device_id: id,
                seq,
                at,
                rssi_dbm: win.rssi_dbm,
                gateway: win.gateway,
                payload: std::mem::take(&mut win.payload),
                encrypted: win.encrypted,
                handoff,
            });
        }
    }
    reports.clear();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(
        gateway: usize,
        device: u32,
        seq: u16,
        at_ms: u64,
        rssi: f64,
        ord: u64,
    ) -> GatewayReport {
        GatewayReport {
            gateway,
            device_id: device,
            seq,
            at: Instant::from_ms(at_ms),
            rssi_dbm: rssi,
            payload: vec![7].into(),
            encrypted: false,
            ordinal: ord,
        }
    }

    fn agg(lanes: usize) -> ClusterAggregator {
        ClusterAggregator::new(
            lanes,
            4,
            RoamingConfig {
                hysteresis_db: 6.0,
                min_dwell: Duration::from_secs(10),
            },
        )
    }

    #[test]
    fn same_transmission_elects_best_rssi_once() {
        let mut a = agg(3);
        let got = a.round(
            &mut vec![
                rep(0, 1, 0, 100, -70.0, 0),
                rep(1, 1, 0, 100, -55.0, 1),
                rep(2, 1, 0, 100, -62.0, 2),
            ],
            1,
        );
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].gateway, 1);
        assert_eq!(got[0].rssi_dbm, -55.0);
        assert_eq!(a.lane_wins(), &[0, 1, 0]);
        assert_eq!(a.lane_suppressions(), &[1, 0, 1]);
        assert_eq!(a.owner_of(1), Some(1));
    }

    #[test]
    fn repeat_copies_and_stragglers_are_suppressed() {
        let mut a = agg(2);
        // First copy delivered...
        let got = a.round(&mut vec![rep(0, 1, 5, 100, -60.0, 0)], 1);
        assert_eq!(got.len(), 1);
        // ...repeat copy in a later round: suppressed on both lanes.
        let got = a.round(
            &mut vec![rep(0, 1, 5, 650, -58.0, 1), rep(1, 1, 5, 650, -50.0, 2)],
            1,
        );
        assert!(got.is_empty());
        assert_eq!(a.delivered(), 1);
        assert_eq!(a.lane_suppressions(), &[1, 1]);
        // Same-round repeat (two transmissions in one batch): the
        // earlier one wins regardless of RSSI, the later suppresses.
        let got = a.round(
            &mut vec![rep(1, 1, 6, 900, -80.0, 3), rep(0, 1, 6, 1450, -40.0, 4)],
            1,
        );
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].gateway, 1, "first transmission wins");
        assert_eq!(got[0].at, Instant::from_ms(900));
    }

    #[test]
    fn hysteresis_blocks_flapping_but_not_clear_wins() {
        let mut a = agg(2);
        // Adopt on lane 0.
        a.round(&mut vec![rep(0, 7, 0, 0, -60.0, 0)], 1);
        assert_eq!(a.owner_of(7), Some(0));
        // Lane 1 is 3 dB better — inside the 6 dB hysteresis: no move.
        let got = a.round(
            &mut vec![
                rep(0, 7, 1, 20_000, -60.0, 1),
                rep(1, 7, 1, 20_000, -57.0, 2),
            ],
            1,
        );
        assert_eq!(a.owner_of(7), Some(0));
        assert_eq!(a.handoffs(), 0);
        assert!(!got[0].handoff);
        // Lane 1 is 10 dB better and the dwell has elapsed: handoff.
        let got = a.round(
            &mut vec![
                rep(0, 7, 2, 40_000, -60.0, 3),
                rep(1, 7, 2, 40_000, -50.0, 4),
            ],
            1,
        );
        assert_eq!(a.owner_of(7), Some(1));
        assert_eq!(a.handoffs(), 1);
        assert!(got[0].handoff);
    }

    #[test]
    fn min_dwell_delays_strong_challengers() {
        let mut a = agg(2);
        a.round(&mut vec![rep(0, 7, 0, 0, -60.0, 0)], 1);
        // 10 dB better but only 5 s after adoption (< 10 s dwell).
        a.round(
            &mut vec![rep(0, 7, 1, 5_000, -60.0, 1), rep(1, 7, 1, 5_000, -50.0, 2)],
            1,
        );
        assert_eq!(a.owner_of(7), Some(0), "dwell not yet served");
        assert_eq!(a.handoffs(), 0);
    }

    #[test]
    fn deaf_incumbent_loses_immediately() {
        let mut a = agg(2);
        a.round(&mut vec![rep(0, 7, 0, 0, -60.0, 0)], 1);
        // Owner heard nothing, challenger barely hears it, 1 s in:
        // dwell and hysteresis are waived.
        a.round(&mut vec![rep(1, 7, 1, 1_000, -89.0, 1)], 1);
        assert_eq!(a.owner_of(7), Some(1));
        assert_eq!(a.handoffs(), 1);
    }

    #[test]
    fn orphaned_devices_reelect_immediately_and_sorted() {
        let mut a = agg(2);
        a.round(&mut vec![rep(0, 9, 0, 0, -60.0, 0)], 1);
        a.round(&mut vec![rep(0, 4, 0, 10, -60.0, 1)], 1);
        a.round(&mut vec![rep(1, 7, 0, 20, -60.0, 2)], 1);
        // Lane 0 crashes: its devices orphan, returned sorted.
        assert_eq!(a.orphan_lane(0), vec![4, 9]);
        // 1 s later — far inside dwell, 1 dB inside hysteresis — a
        // challenger still takes the orphan instantly.
        let got = a.round(&mut vec![rep(1, 9, 1, 1_000, -61.0, 3)], 1);
        assert_eq!(got.len(), 1);
        assert_eq!(a.owner_of(9), Some(1));
        assert_eq!(a.recovered(), 1);
        assert_eq!(a.handoffs(), 1);
        // The restarted owner itself can also re-adopt: no handoff,
        // still a recovery.
        let got = a.round(&mut vec![rep(0, 4, 1, 2_000, -61.0, 4)], 1);
        assert_eq!(got.len(), 1);
        assert_eq!(a.owner_of(4), Some(0));
        assert_eq!(a.recovered(), 2);
        assert_eq!(a.handoffs(), 1);
        // Dedup survived the crash: the pre-crash seq stays suppressed.
        let got = a.round(&mut vec![rep(1, 9, 1, 3_000, -50.0, 5)], 1);
        assert!(got.is_empty(), "aggregator dedup is crash-proof");
    }

    #[test]
    fn eviction_forgets_devices_and_counts() {
        let mut a = agg(1);
        a.round(&mut vec![rep(0, 1, 0, 0, -60.0, 0)], 1);
        a.round(&mut vec![rep(0, 2, 0, 50_000, -60.0, 1)], 1);
        assert_eq!(a.devices_tracked(), 2);
        let gone = a.evict_stale(Instant::from_secs(70), Duration::from_secs(30));
        assert_eq!(gone, vec![1]);
        assert_eq!(a.devices_tracked(), 1);
        assert_eq!(a.evicted(), 1);
        // The evicted device re-delivers (fresh dedup state).
        let got = a.round(&mut vec![rep(0, 1, 0, 80_000, -60.0, 2)], 1);
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn clear_dedup_keeps_ownership() {
        let mut a = agg(2);
        a.round(&mut vec![rep(1, 3, 9, 0, -60.0, 0)], 1);
        a.clear_dedup();
        assert_eq!(a.owner_of(3), Some(1));
        let got = a.round(&mut vec![rep(1, 3, 9, 60_000, -60.0, 1)], 1);
        assert_eq!(got.len(), 1, "epoch cleared: same seq delivers again");
    }

    #[test]
    fn rounds_are_worker_count_independent() {
        let batch = |ord0: u64| -> Vec<GatewayReport> {
            (0..200u32)
                .flat_map(|d| {
                    (0..3usize).map(move |g| {
                        rep(
                            g,
                            d % 37 + 1,
                            (d / 37) as u16,
                            1_000 + (d % 37) as u64 * 10,
                            -60.0 - (g as f64) * (d % 5) as f64,
                            ord0 + (d * 3 + g as u32) as u64,
                        )
                    })
                })
                .collect()
        };
        let run = |workers: usize| {
            let mut a = agg(3);
            let d1 = a.round(&mut batch(0), workers);
            let d2 = a.round(&mut batch(1000), workers);
            (d1, d2, a.stats_snapshot())
        };
        let base = run(1);
        for w in [2, 8] {
            assert_eq!(run(w), base, "workers {w}");
        }
    }
}
