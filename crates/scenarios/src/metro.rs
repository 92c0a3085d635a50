//! Metro scenario: a multi-gateway Wi-LE deployment on the cluster
//! subsystem (experiment E11).
//!
//! A grid of gateways with overlapping coverage blankets a hall of
//! beaconing devices; every gateway runs the standard
//! [`GatewayIngest`] pipeline and all of them feed one
//! [`GatewayCluster`], which dedups cross-gateway copies (best-RSSI
//! election), tracks per-device ownership with roaming hysteresis, and
//! applies bounded per-lane queues with drop accounting. The whole
//! thing runs on the `wile-sim` actor kernel with the bounded medium,
//! so the E11 configuration — 8 gateways × 20,000 devices × 1 simulated
//! hour — completes in seconds with O(in-flight) medium memory.
//!
//! Two runners share one world builder:
//!
//! - [`run_metro`] — the cluster pipeline, sharded across the
//!   deterministic parallel engine (`workers` threads, byte-identical
//!   results at any setting).
//! - [`run_metro_reference`] — a single plain [`GatewayIngest`] with no
//!   cluster at all, for the differential oracle: a 1-gateway cluster
//!   must reproduce it byte-for-byte (`tests/cluster_diff.rs`).
//!
//! Shadowing is deliberately enabled (static per link): gateways hear
//! the same device at persistently different strengths, which gives the
//! election real work, and cell-edge loss occasionally deafens an
//! owner, which exercises roaming handoffs.

use std::collections::BTreeSet;
use wile::monitor::Gateway;
use wile_cluster::{ClusterConfig, ClusterDelivery, ClusterStats, GatewayCluster};
use wile_mac::{AirCtx, BeaconFleet};
use wile_radio::channel::ChannelModel;
use wile_radio::medium::{RadioConfig, RadioId, RxFrame};
use wile_radio::plan::{Disturbance, FaultPhase, FaultPlan, FaultTimeline};
use wile_radio::time::{Duration, Instant};
use wile_sim::ingest::GatewayIngest;
use wile_sim::kernel::{Actor, ActorId, Ctx, Kernel};
use wile_sim::poll::PollTrain;
use wile_telemetry::{ProfScope, Telemetry};

/// Metro deployment configuration.
#[derive(Debug, Clone)]
pub struct MetroConfig {
    /// Gateway count; laid out row-major on a grid of `gw_cols`
    /// columns.
    pub gateways: usize,
    /// Grid columns.
    pub gw_cols: usize,
    /// Grid pitch, metres. The WILE_PAPER rate reaches ~10 m at 0 dBm
    /// under the default model, so a pitch below that gives every
    /// device overlapping coverage.
    pub gw_spacing_m: f64,
    /// Device count; positions are drawn deterministically from the
    /// seed inside the grid's bounding box plus `margin_m`.
    pub devices: usize,
    /// How far outside the gateway hull devices may sit, metres.
    pub margin_m: f64,
    /// Per-device beacon period (wakes staggered across it).
    pub period: Duration,
    /// Simulated run length.
    pub duration: Duration,
    /// Cluster poll-and-release cadence.
    pub poll_every: Duration,
    /// Per-lane queue bound (`None` = unbounded, oracle mode).
    pub queue_capacity: Option<usize>,
    /// Static per-link shadowing sigma, dB.
    pub shadowing_sigma_db: f64,
    /// Cluster stale-device eviction horizon.
    pub stale_after: Duration,
    /// Optional fault plan applied at every gateway.
    pub faults: Option<FaultPlan>,
    /// Retain the full delivery stream in the report (differential
    /// tests); at metro scale leave it off and compare digests.
    pub keep_deliveries: bool,
    /// World seed.
    pub seed: u64,
}

impl MetroConfig {
    /// The E11 configuration: 8 gateways in a 4×2 grid, 20,000 devices,
    /// one simulated hour.
    pub fn metro(seed: u64) -> Self {
        MetroConfig {
            gateways: 8,
            gw_cols: 4,
            gw_spacing_m: 8.0,
            devices: 20_000,
            margin_m: 4.0,
            period: Duration::from_secs(60),
            duration: Duration::from_secs(3_600),
            poll_every: Duration::from_secs(10),
            queue_capacity: Some(4096),
            shadowing_sigma_db: 6.0,
            stale_after: Duration::from_secs(600),
            faults: None,
            keep_deliveries: false,
            seed,
        }
    }

    /// The E14 configuration: a city-scale deployment — 100 gateways on
    /// a 10×10 grid at 200 m pitch, one million devices, one simulated
    /// hour. Shadowing is off so the sensitivity horizon is tight
    /// (~54 m at 0 dBm under the default model) and each gateway's
    /// inbox walk touches only its own neighbourhood of the million-
    /// device transmission stream; coverage is deliberately sparse
    /// (most devices are out of decode range — E14 measures scale and
    /// determinism, not delivery ratio).
    pub fn million(seed: u64) -> Self {
        MetroConfig {
            gateways: 100,
            gw_cols: 10,
            gw_spacing_m: 200.0,
            devices: 1_000_000,
            margin_m: 50.0,
            period: Duration::from_secs(60),
            duration: Duration::from_secs(3_600),
            poll_every: Duration::from_secs(10),
            queue_capacity: Some(8192),
            shadowing_sigma_db: 0.0,
            stale_after: Duration::from_secs(900),
            faults: None,
            keep_deliveries: false,
            seed,
        }
    }

    /// A devices-scaling point for the E14 grid: the `million`
    /// geometry shrunk so device density stays constant — gateways
    /// scale as one per 10,000 devices (minimum 4, square-ish grid)
    /// and the hall area scales with the gateway count.
    pub fn metro_scaled(devices: usize, seed: u64) -> Self {
        let gateways = (devices / 10_000).max(4);
        let gw_cols = (gateways as f64).sqrt().ceil() as usize;
        MetroConfig {
            gateways,
            gw_cols,
            devices,
            ..MetroConfig::million(seed)
        }
    }

    /// A small multi-gateway configuration for tests.
    pub fn smoke(seed: u64) -> Self {
        MetroConfig {
            gateways: 3,
            gw_cols: 3,
            gw_spacing_m: 6.0,
            devices: 150,
            margin_m: 3.0,
            period: Duration::from_secs(30),
            duration: Duration::from_secs(300),
            poll_every: Duration::from_secs(5),
            queue_capacity: Some(1024),
            shadowing_sigma_db: 6.0,
            stale_after: Duration::from_secs(120),
            faults: None,
            keep_deliveries: true,
            seed,
        }
    }

    /// The differential-oracle configuration: one gateway, unbounded
    /// lane (the reference has no queue), full delivery retention, and
    /// a fault plan so the oracle also covers the fault-filtered path.
    pub fn oracle(seed: u64) -> Self {
        MetroConfig {
            gateways: 1,
            gw_cols: 1,
            gw_spacing_m: 8.0,
            devices: 40,
            margin_m: 6.0,
            period: Duration::from_secs(15),
            duration: Duration::from_secs(300),
            poll_every: Duration::from_secs(5),
            queue_capacity: None,
            shadowing_sigma_db: 4.0,
            stale_after: Duration::from_secs(600),
            faults: Some(FaultPlan::new(
                vec![
                    FaultPhase::new(
                        Instant::from_secs(60),
                        Instant::from_secs(90),
                        Disturbance::GatewayOutage,
                        "reboot",
                    ),
                    FaultPhase::new(
                        Instant::from_secs(120),
                        Instant::from_secs(240),
                        Disturbance::RandomLoss { p: 0.3 },
                        "lossy patch",
                    ),
                ],
                seed,
            )),
            keep_deliveries: true,
            seed,
        }
    }

    /// The run's poll schedule: every `poll_every`, the last poll on
    /// the horizon one beacon period past the end of the run (so the
    /// final wakes' frames are drained).
    pub fn poll_train(&self) -> PollTrain {
        PollTrain::new(self.poll_every, Instant::ZERO + self.duration + self.period)
    }

    fn gw_position(&self, i: usize) -> (f64, f64) {
        let col = i % self.gw_cols;
        let row = i / self.gw_cols;
        (
            col as f64 * self.gw_spacing_m,
            row as f64 * self.gw_spacing_m,
        )
    }

    /// Deterministic device position: splitmix64 draws inside the
    /// gateway hull's bounding box extended by the margin.
    fn device_position(&self, i: usize) -> (f64, f64) {
        let rows = self.gateways.div_ceil(self.gw_cols);
        let width = (self.gw_cols.saturating_sub(1)) as f64 * self.gw_spacing_m;
        let height = (rows.saturating_sub(1)) as f64 * self.gw_spacing_m;
        let r1 = splitmix64(self.seed ^ (i as u64).wrapping_mul(2).wrapping_add(1));
        let r2 = splitmix64(r1);
        let unit = |r: u64| r as f64 / u64::MAX as f64;
        (
            -self.margin_m + unit(r1) * (width + 2.0 * self.margin_m),
            -self.margin_m + unit(r2) * (height + 2.0 * self.margin_m),
        )
    }
}

pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What a metro run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct MetroReport {
    /// Gateway count.
    pub gateways: usize,
    /// Device count.
    pub devices: usize,
    /// Beacons transmitted fleet-wide.
    pub beacons_sent: u64,
    /// Full cluster counters (per-lane hears, wins, suppressions,
    /// queue drops, high-water marks, handoffs, evictions). In the
    /// reference runner this carries the single gateway's view with
    /// cluster-only fields zero.
    pub stats: ClusterStats,
    /// The delivery stream (empty unless `keep_deliveries`).
    pub deliveries: Vec<ClusterDelivery>,
    /// FNV-1a digest over the full delivery stream — compact
    /// byte-identity witness at metro scale.
    pub delivery_digest: u64,
    /// The most transmissions the bounded medium retained right after a
    /// poll's release — the sample is taken once each poll has released
    /// the history it drained, so a transmit-only fleet reads about 1
    /// here. The in-flight high water between polls is the medium's
    /// `retained_high_water` stat.
    pub peak_live_tx: usize,
    /// Transmissions retired by the bounded medium.
    pub retired_tx: u64,
    /// Devices evicted as stale (ids sorted within each poll).
    pub evicted: Vec<u32>,
    /// Devices still provisioned after eviction: the fleet less the
    /// distinct evicted ids.
    pub registry_devices: usize,
    /// Simulated end time.
    pub sim_end: Instant,
}

impl MetroReport {
    /// Cluster-wide delivery ratio over unique messages offered (each
    /// beacon is one unique message; copies are not double-counted).
    pub fn delivery_ratio(&self) -> f64 {
        if self.beacons_sent == 0 {
            1.0
        } else {
            self.stats.delivered as f64 / self.beacons_sent as f64
        }
    }
}

/// Events driving the metro world.
pub(crate) enum MetroEv {
    /// Device `i` wakes and transmits one beacon.
    Wake(u32),
    /// The sink (cluster or reference gateway) drains and releases.
    Poll,
}

/// The entire transmit-only fleet as one actor: the device ordinal
/// rides in [`MetroEv::Wake`].
impl Actor<MetroEv> for BeaconFleet {
    fn on_event(&mut self, now: Instant, ev: MetroEv, ctx: &mut Ctx<'_, MetroEv>) {
        let MetroEv::Wake(i) = ev else { return };
        let mut air = AirCtx {
            medium: &mut *ctx.medium,
            now,
            actor: i,
            telemetry: &mut *ctx.telemetry,
        };
        if let Some(next) = self.wake(&mut air, i) {
            ctx.schedule(next, ctx.self_id(), MetroEv::Wake(i));
        }
    }
}

/// An observation hook over the raw per-lane frame stream: called with
/// `(lane, frame)` for every frame a cluster lane pulls off the medium,
/// before admission predicates or fault timelines touch it. This is the
/// `.wcap` capture point — `wile-gatewayd` hangs its recorder here and
/// replays the identical stream through the same pipeline. Taps observe
/// only; the run is byte-identical with or without one.
pub type FrameTap = Box<dyn FnMut(usize, &RxFrame)>;

/// Fold one delivery into the FNV-1a digest. Every runner that folds a
/// delivery stream — metro, chaos, and the `wile-gatewayd` replay core —
/// must use this single definition; digest equality is the compact
/// byte-identity witness across all of them.
pub fn fold_delivery(h: &mut u64, d: &ClusterDelivery) {
    let mut fold = |v: u64| {
        *h ^= v;
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    fold(d.device_id as u64);
    fold(d.seq as u64);
    fold(d.at.as_nanos());
    fold(d.gateway as u64);
    fold(d.rssi_dbm.to_bits());
    fold(u64::from(d.encrypted) << 1 | u64::from(d.handoff));
    fold(d.payload.len() as u64);
    for &b in &d.payload {
        fold(b as u64);
    }
}

/// FNV-1a offset basis — the seed value every delivery digest starts
/// from (see [`fold_delivery`]).
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// The cluster shape every metro-shaped run builds — metro, chaos,
/// mixed, and the `wile-gatewayd` replay core: the world's lane bound
/// and eviction horizon.
pub fn cluster_config(queue_capacity: Option<usize>, stale_after: Duration) -> ClusterConfig {
    ClusterConfig {
        queue_capacity,
        stale_after,
        ..Default::default()
    }
}

/// The cluster side every metro-shaped run shares — the metro and
/// chaos sinks and the `wile-gatewayd` replay core — with the outputs
/// it accumulates. One [`poll`](ClusterRun::poll) is the whole
/// per-poll step; running it on the same frames at the same poll
/// instants is what makes those runs byte-identical.
#[derive(Debug)]
pub struct ClusterRun {
    /// The cluster pipeline.
    pub cluster: GatewayCluster,
    workers: usize,
    keep: bool,
    /// FNV-1a digest over every delivery so far (see
    /// [`fold_delivery`]).
    pub digest: u64,
    /// The delivery stream (empty unless kept).
    pub deliveries: Vec<ClusterDelivery>,
    /// Devices evicted as stale, in eviction order.
    pub evicted: Vec<u32>,
}

impl ClusterRun {
    /// Run `cluster` with up to `workers` aggregation threads,
    /// retaining the delivery stream when `keep`.
    pub fn new(cluster: GatewayCluster, workers: usize, keep: bool) -> Self {
        ClusterRun {
            cluster,
            workers,
            keep,
            digest: FNV_OFFSET,
            deliveries: Vec::new(),
            evicted: Vec::new(),
        }
    }

    /// One poll at `now`: `source(cluster, workers)` runs the cluster
    /// poll (off a medium or off staged frames), every delivery is
    /// folded into the digest and retained when asked, then devices
    /// unheard past the stale horizon are evicted. Returns the poll's
    /// deliveries.
    pub fn poll(
        &mut self,
        now: Instant,
        source: impl FnOnce(&mut GatewayCluster, usize) -> Vec<ClusterDelivery>,
    ) -> Vec<ClusterDelivery> {
        let got = source(&mut self.cluster, self.workers);
        for d in &got {
            fold_delivery(&mut self.digest, d);
        }
        if self.keep {
            self.deliveries.extend(got.iter().cloned());
        }
        self.evicted.extend(self.cluster.evict_stale(now));
        got
    }
}

/// The cluster sink: poll, release, sample memory, schedule the next
/// poll, repeat.
pub(crate) struct ClusterSink {
    pub(crate) run: ClusterRun,
    pub(crate) train: PollTrain,
    peak_live_tx: usize,
    /// Raw-frame observation hook (`.wcap` capture); `None` on every
    /// path that doesn't record.
    tap: Option<FrameTap>,
}

impl ClusterSink {
    pub(crate) fn new(run: ClusterRun, train: PollTrain, tap: Option<FrameTap>) -> Self {
        ClusterSink {
            run,
            train,
            peak_live_tx: 0,
            tap,
        }
    }

    /// One poll at `now`, with the next one scheduled; returns the
    /// poll's deliveries.
    pub(crate) fn poll(
        &mut self,
        now: Instant,
        ctx: &mut Ctx<'_, MetroEv>,
    ) -> Vec<ClusterDelivery> {
        let tap = self
            .tap
            .as_mut()
            .map(|t| &mut **t as &mut dyn FnMut(usize, &RxFrame));
        let got = {
            let _scope = ProfScope::new("metro.poll.cluster");
            self.run.poll(now, |cluster, workers| {
                cluster.poll(ctx.medium, ctx.faults.as_deref_mut(), now, workers, tap)
            })
        };
        ctx.emit("poll_delivered", got.len() as u64);
        for d in &got {
            // Path attenuation (-dBm, rounded) of every delivered
            // message; single-branch no-op while telemetry is off.
            ctx.telemetry.observe(
                "metro.delivery.atten_db",
                &[],
                (-d.rssi_dbm).max(0.0).round() as u64,
            );
        }
        // Devices are transmit-only: waive history so the bounded
        // medium retires it.
        {
            let _scope = ProfScope::new("metro.poll.release_all");
            ctx.medium.release_all(now);
        }
        self.peak_live_tx = self.peak_live_tx.max(ctx.medium.live_tx_count());
        if let Some(next) = self.train.next(now) {
            ctx.schedule(next, ctx.self_id(), MetroEv::Poll);
        }
        got
    }
}

impl Actor<MetroEv> for ClusterSink {
    fn on_event(&mut self, now: Instant, _ev: MetroEv, ctx: &mut Ctx<'_, MetroEv>) {
        self.poll(now, ctx);
    }
}

/// The reference sink: one plain gateway pipeline, no cluster.
struct ReferenceSink {
    ingest: GatewayIngest,
    train: PollTrain,
    keep: bool,
    deliveries: Vec<ClusterDelivery>,
    digest: u64,
    hears: u64,
    peak_live_tx: usize,
}

impl Actor<MetroEv> for ReferenceSink {
    fn on_event(&mut self, now: Instant, _ev: MetroEv, ctx: &mut Ctx<'_, MetroEv>) {
        for r in self
            .ingest
            .drain(ctx.medium, ctx.faults.as_deref_mut(), now)
        {
            self.hears += 1;
            let d = ClusterDelivery {
                device_id: r.device_id,
                seq: r.seq,
                at: r.at,
                rssi_dbm: r.rssi_dbm,
                gateway: 0,
                payload: r.payload,
                encrypted: r.encrypted,
                handoff: false,
            };
            fold_delivery(&mut self.digest, &d);
            if self.keep {
                self.deliveries.push(d);
            }
        }
        ctx.medium.release_all(now);
        self.peak_live_tx = self.peak_live_tx.max(ctx.medium.live_tx_count());
        if let Some(next) = self.train.next(now) {
            ctx.schedule(next, ctx.self_id(), MetroEv::Poll);
        }
    }
}

/// A built metro world: the kernel with the gateway radios (attached
/// first, in lane order) and the fleet actor.
pub(crate) struct World {
    pub(crate) kernel: Kernel<MetroEv>,
    pub(crate) gw_radios: Vec<RadioId>,
    fleet: ActorId,
}

/// Shared world construction: kernel, gateway radios, and the single
/// SoA fleet actor (device `i` provisioned as id `i + 1`) with its
/// wake train staggered across one period.
pub(crate) fn build_world(cfg: &MetroConfig) -> World {
    let _scope = ProfScope::new("metro.build_world");
    assert!(cfg.gateways >= 1 && cfg.devices >= 1);
    assert!(cfg.gw_cols >= 1);
    let model = ChannelModel {
        shadowing_sigma_db: cfg.shadowing_sigma_db,
        ..Default::default()
    };
    let mut kernel: Kernel<MetroEv> = Kernel::new(model, cfg.seed);
    if let Some(plan) = &cfg.faults {
        kernel.set_faults(FaultTimeline::new(plan.clone()));
    }

    let gw_radios: Vec<RadioId> = (0..cfg.gateways)
        .map(|i| {
            kernel.medium_mut().attach(RadioConfig {
                position_m: cfg.gw_position(i),
                ..Default::default()
            })
        })
        .collect();

    let mut fleet = BeaconFleet::new(
        kernel.medium_mut(),
        cfg.period,
        Instant::ZERO + cfg.duration,
    );
    for i in 0..cfg.devices {
        let radio = kernel.medium_mut().attach(RadioConfig {
            position_m: cfg.device_position(i),
            ..Default::default()
        });
        fleet.push_device(i as u32 + 1, radio);
    }

    // Stagger wakes uniformly across one period so arrivals never tie,
    // scheduled as one batched train into an event-queue run lane.
    let (start, stagger) = fleet.wake_train();
    let fleet = kernel.add_actor(fleet);
    kernel.schedule_batch(
        start,
        stagger,
        fleet,
        (0..cfg.devices as u32).map(MetroEv::Wake),
    );
    World {
        kernel,
        gw_radios,
        fleet,
    }
}

/// The cluster over the world's gateway radios (lane order = radio
/// order). When `tel` is enabled the cluster and the kernel record
/// telemetry too.
pub(crate) fn instrumented_cluster(
    world: &mut World,
    cfg: ClusterConfig,
    tel: &Telemetry,
) -> GatewayCluster {
    let mut cluster = GatewayCluster::new(cfg);
    if tel.enabled() {
        let mut kt = Telemetry::new();
        kt.set_trace_enabled(tel.trace().enabled());
        world.kernel.set_telemetry(kt);
        cluster.enable_telemetry();
    }
    for &radio in &world.gw_radios {
        cluster.add_gateway(GatewayIngest::new(radio, Gateway::new()));
    }
    cluster
}

/// Add `sink` to the world, run it from its first poll to the end of
/// the simulation, and take it back out.
pub(crate) fn drive<S: Actor<MetroEv>>(world: &mut World, train: PollTrain, sink: S) -> S {
    let id = world.kernel.add_actor(sink);
    world.kernel.schedule(train.first(), id, MetroEv::Poll);
    world.kernel.run();
    world.kernel.remove_actor(id)
}

/// Close a finished metro-shaped run: audit conservation, fold the
/// run's counters into `tel` (when enabled; `record_extra` adds the
/// caller's own), and assemble the report.
pub(crate) fn finish_run(
    cfg: &MetroConfig,
    mut world: World,
    sink: ClusterSink,
    tel: &mut Telemetry,
    record_extra: impl FnOnce(&mut wile_telemetry::Registry),
) -> MetroReport {
    let ClusterSink {
        run, peak_live_tx, ..
    } = sink;
    let beacons = world
        .kernel
        .remove_actor::<BeaconFleet>(world.fleet)
        .total_sent();
    let stats = run.cluster.stats();
    assert!(
        stats.conserves_offered_load(),
        "delivered + suppressions + drops must equal hears: {stats:?}"
    );
    if tel.enabled() {
        world.kernel.flush_telemetry();
        let reg = world.kernel.telemetry_mut().registry_mut();
        run.cluster.record_telemetry(reg);
        reg.counter_set("metro.beacons_sent", &[], beacons);
        reg.counter_set("metro.evicted", &[], run.evicted.len() as u64);
        reg.gauge_set("metro.peak_live_tx", &[], peak_live_tx as i64);
        record_extra(reg);
        tel.merge_from(world.kernel.telemetry());
    }
    // Every fleet device is provisioned; an eviction deprovisions it.
    let evicted: BTreeSet<u32> = run
        .evicted
        .iter()
        .copied()
        .filter(|&id| (1..=cfg.devices).contains(&(id as usize)))
        .collect();
    let registry_devices = cfg.devices - evicted.len();
    MetroReport {
        gateways: cfg.gateways,
        devices: cfg.devices,
        beacons_sent: beacons,
        stats,
        deliveries: run.deliveries,
        delivery_digest: run.digest,
        peak_live_tx,
        retired_tx: world.kernel.medium().retired_tx_count(),
        evicted: run.evicted,
        registry_devices,
        sim_end: world.kernel.now(),
    }
}

/// Run the metro deployment through the cluster with up to `workers`
/// aggregation threads. The result — deliveries, digest, every counter
/// — is byte-identical at any `workers` setting.
pub fn run_metro(cfg: &MetroConfig, workers: usize) -> MetroReport {
    // Telemetry off: every recording call degrades to one branch, and
    // `tests/telemetry_diff.rs` proves the report is byte-identical to
    // the instrumented run's.
    let mut tel = Telemetry::off();
    run_metro_with_telemetry(cfg, workers, &mut tel)
}

/// [`run_metro`], additionally folding the run's telemetry into `tel`:
/// kernel dispatch and medium counters, per-lane cluster and gateway
/// pipeline counters, link health, election histograms (merged in
/// shard order), and the delivery-attenuation histogram. When `tel` is
/// disabled this records nothing and is exactly [`run_metro`]; the
/// [`MetroReport`] itself never carries telemetry, so the two arms are
/// comparable with `==`.
pub fn run_metro_with_telemetry(
    cfg: &MetroConfig,
    workers: usize,
    tel: &mut Telemetry,
) -> MetroReport {
    run_metro_with(cfg, workers, tel, None)
}

/// The fully general metro runner: telemetry *and* an optional
/// [`FrameTap`] observing the raw per-lane frame stream (the `.wcap`
/// capture hook). Both observation channels are proven non-perturbing —
/// `tap = None` is exactly [`run_metro_with_telemetry`], and the
/// gatewayd differential oracle proves a tapped run's report equals an
/// untapped one's.
pub fn run_metro_with(
    cfg: &MetroConfig,
    workers: usize,
    tel: &mut Telemetry,
    tap: Option<FrameTap>,
) -> MetroReport {
    let mut world = build_world(cfg);
    let cluster = instrumented_cluster(
        &mut world,
        cluster_config(cfg.queue_capacity, cfg.stale_after),
        tel,
    );
    let train = cfg.poll_train();
    let run = ClusterRun::new(cluster, workers, cfg.keep_deliveries);
    let sink = drive(&mut world, train, ClusterSink::new(run, train, tap));
    finish_run(cfg, world, sink, tel, |_| {})
}

/// Run the same world through one plain [`GatewayIngest`] — no cluster,
/// no queue, no aggregator — producing a report in the same shape. The
/// differential oracle: with `cfg.gateways == 1` the cluster runner
/// must match this byte for byte on deliveries and digest.
pub fn run_metro_reference(cfg: &MetroConfig) -> MetroReport {
    assert_eq!(
        cfg.gateways, 1,
        "the reference is a single gateway by construction"
    );
    let mut world = build_world(cfg);
    let train = cfg.poll_train();
    let ingest = GatewayIngest::new(world.gw_radios[0], Gateway::new());
    let sink = drive(
        &mut world,
        train,
        ReferenceSink {
            ingest,
            train,
            keep: cfg.keep_deliveries,
            deliveries: Vec::new(),
            digest: FNV_OFFSET,
            hears: 0,
            peak_live_tx: 0,
        },
    );
    let World {
        mut kernel, fleet, ..
    } = world;
    let beacons = kernel.remove_actor::<BeaconFleet>(fleet).total_sent();
    let mut stats = ClusterStats::default();
    stats.lanes.push(wile_cluster::LaneStats {
        hears: sink.hears,
        wins: sink.hears,
        ..Default::default()
    });
    stats.delivered = sink.hears;
    stats.devices_tracked = sink
        .deliveries
        .iter()
        .map(|d| d.device_id)
        .collect::<std::collections::HashSet<_>>()
        .len();
    MetroReport {
        gateways: 1,
        devices: cfg.devices,
        beacons_sent: beacons,
        stats,
        deliveries: sink.deliveries,
        delivery_digest: sink.digest,
        peak_live_tx: sink.peak_live_tx,
        retired_tx: kernel.medium().retired_tx_count(),
        evicted: Vec::new(),
        registry_devices: cfg.devices,
        sim_end: kernel.now(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_metro_dedups_and_conserves() {
        let report = run_metro(&MetroConfig::smoke(42), 1);
        // 150 devices × ~10 periods.
        assert!(report.beacons_sent >= 150 * 9, "{report:?}");
        // Overlapping coverage: gateways hear far more copies than
        // there are messages, and the cluster folds them to one each.
        assert!(
            report.stats.total_hears() > report.stats.delivered,
            "no overlap exercised: {:?}",
            report.stats
        );
        assert!(report.stats.total_suppressions() > 0);
        assert!(report.delivery_ratio() > 0.9, "{report:?}");
        // Every delivered message appears exactly once.
        let mut keys: Vec<(u32, u16)> = report
            .deliveries
            .iter()
            .map(|d| (d.device_id, d.seq))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len() as u64, report.stats.delivered);
        // The bounded medium stayed bounded.
        assert!(report.peak_live_tx < report.beacons_sent as usize / 4);
    }

    /// The smoke world's delivery digest and the counters around it,
    /// pinned: a change to how the fleet transmits or how the cluster
    /// elects, queues or evicts shows here.
    #[test]
    fn sap_metro_matches_direct_runner() {
        let r = run_metro(&MetroConfig::smoke(42), 1);
        assert_eq!(r.delivery_digest, 0x2450_3dea_160f_2b6e, "{:?}", r.stats);
        assert_eq!((r.beacons_sent, r.stats.delivered), (1498, 1498));
        assert_eq!(r.stats.total_hears(), 1132 + 1410 + 1169);
        assert_eq!(r.stats.handoffs, 1);
        assert_eq!((r.peak_live_tx, r.retired_tx), (1, 1497));
        assert_eq!(r.registry_devices, 150);
        assert!(r.evicted.is_empty());
        assert_eq!(r.sim_end, Instant::from_secs(330));
    }

    #[test]
    fn smoke_metro_is_deterministic() {
        let a = run_metro(&MetroConfig::smoke(7), 1);
        let b = run_metro(&MetroConfig::smoke(7), 1);
        assert_eq!(a, b);
    }

    #[test]
    fn shadowed_overlap_produces_handoffs() {
        // Cell-edge devices under shadowing + loss: some owner-deaf
        // messages must occur over 10 periods, each re-homing a device.
        let report = run_metro(&MetroConfig::smoke(42), 1);
        assert!(report.stats.handoffs > 0, "{:?}", report.stats);
    }
}
